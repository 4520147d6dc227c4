//! Internal diagnostic: per-stage surface construction numbers.

use ballfit::config::{DetectorConfig, SurfaceConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::surface::SurfaceBuilder;
use ballfit_bench::{fig1_network, gallery_network, Args};
use ballfit_netgen::scenario::Scenario;

fn main() {
    let model = if Args::from_env("--fig1").has("--fig1") {
        fig1_network(1)
    } else {
        gallery_network(Scenario::SolidSphere, 77)
    };
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    for route in [false, true] {
        for k in [3u32, 4, 5] {
            let surfaces =
                SurfaceBuilder::new(SurfaceConfig { k, route_around: route, ..Default::default() })
                    .build(&model, &detection);
            for s in &surfaces {
                let st = &s.stats;
                println!(
                    "route={route} k={k}: group={} lm={} cdg={} cdm={} added={} dropped={} flips={} edges={} faces={} euler={} border={} nonmani={}",
                    st.group_size, st.landmarks, st.cdg_edges, st.cdm_edges, st.added_edges,
                    st.dropped_edges, st.flips, s.edges.len(), st.faces, st.euler,
                    st.audit.border_edges, st.audit.non_manifold_edges
                );
            }
        }
    }
}
