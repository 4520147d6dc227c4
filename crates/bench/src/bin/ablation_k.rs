//! E10 — ablation of the landmark spacing `k` (Sec. III): "k determines
//! the fineness of the mesh. It is usually set between 3 to 5. [...] The
//! larger the k, the coarser the mesh surfaces, resulting in more nodes
//! left outside."
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin ablation_k
//! ```

use ballfit::config::{DetectorConfig, SurfaceConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::surface::SurfaceBuilder;
use ballfit_bench::{format_table, gallery_network, parallel_map, write_csv, Args};
use ballfit_netgen::scenario::Scenario;

fn main() {
    Args::from_env("");
    let scenarios = [Scenario::SolidSphere, Scenario::BendedPipe];
    let mut table = vec![vec![
        "scenario".into(),
        "k".into(),
        "landmarks".into(),
        "faces".into(),
        "manifold%".into(),
        "deviation".into(),
        "node->mesh".into(),
        "strict manifold%".into(),
    ]];
    let mut rows = Vec::new();
    for scenario in scenarios {
        let model = gallery_network(scenario, 77);
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let shape = model.shape();
        let runs = parallel_map(vec![3u32, 4, 5], |&k| {
            let surfaces = SurfaceBuilder::new(SurfaceConfig { k, ..Default::default() })
                .build(&model, &detection);
            (k, surfaces)
        });
        for (k, surfaces) in &runs {
            let landmarks: usize = surfaces.iter().map(|s| s.stats.landmarks).sum();
            let faces: usize = surfaces.iter().map(|s| s.stats.faces).sum();
            let manifold = if surfaces.is_empty() {
                0.0
            } else {
                surfaces.iter().map(|s| s.stats.audit.manifold_fraction()).sum::<f64>()
                    / surfaces.len() as f64
            };
            let deviation = if surfaces.is_empty() {
                f64::NAN
            } else {
                surfaces.iter().map(|s| s.mesh.mean_abs_distance_to(&*shape)).sum::<f64>()
                    / surfaces.len() as f64
            };
            // "Nodes left outside the mesh" (paper, Sec. III): a coarser
            // mesh cuts corners, leaving boundary nodes farther from the
            // nearest mesh face. Mean node→mesh distance captures that.
            let mut dist_sum = 0.0;
            let mut dist_count = 0usize;
            for s in surfaces {
                for &n in &s.group {
                    if let Some(d) = s.mesh.distance_to_point(model.positions()[n]) {
                        dist_sum += d;
                        dist_count += 1;
                    }
                }
            }
            let node_mesh = if dist_count == 0 { f64::NAN } else { dist_sum / dist_count as f64 };
            // Paper-faithful completion (no detour) for comparison.
            let strict = SurfaceBuilder::new(SurfaceConfig {
                k: *k,
                route_around: false,
                ..Default::default()
            })
            .build(&model, &detection);
            let strict_manifold = if strict.is_empty() {
                0.0
            } else {
                strict.iter().map(|s| s.stats.audit.manifold_fraction()).sum::<f64>()
                    / strict.len() as f64
            };
            table.push(vec![
                scenario.to_string(),
                k.to_string(),
                landmarks.to_string(),
                faces.to_string(),
                format!("{:.1}", 100.0 * manifold),
                format!("{deviation:.3}"),
                format!("{node_mesh:.3}"),
                format!("{:.1}", 100.0 * strict_manifold),
            ]);
            rows.push(vec![
                scenario.name().to_string(),
                k.to_string(),
                landmarks.to_string(),
                faces.to_string(),
                format!("{manifold:.4}"),
                format!("{deviation:.4}"),
                format!("{node_mesh:.4}"),
                format!("{strict_manifold:.4}"),
            ]);
        }
    }
    println!("landmark-spacing ablation (k ∈ 3..5):");
    println!("{}", format_table(&table));
    let p = write_csv(
        "ablation_k.csv",
        &[
            "scenario",
            "k",
            "landmarks",
            "faces",
            "manifold_fraction",
            "mesh_deviation",
            "node_mesh_distance",
            "strict_manifold_fraction",
        ],
        &rows,
    );
    println!("wrote {}", p.display());
}
