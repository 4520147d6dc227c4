//! E5 — Fig. 1(b–f): the surface-construction pipeline stage by stage on
//! one network: boundary nodes → landmarks → CDG → CDM → triangular mesh.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin fig1_pipeline_stages [-- --small]
//! ```
//!
//! Prints per-boundary stage counters and exports the final meshes as OBJ.

use ballfit::config::{DetectorConfig, SurfaceConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::surface::SurfaceBuilder;
use ballfit_bench::{export_mesh, fig1_network, fig1_network_small, format_table, Args};

fn main() {
    let small = Args::from_env("--small").has("--small");
    let model = if small { fig1_network_small(1) } else { fig1_network(1) };
    println!(
        "network: {} nodes, avg degree {:.1}, scenario {} (expected boundaries: {})",
        model.len(),
        model.topology().degree_stats().mean,
        model.scenario(),
        model.scenario().expected_boundaries()
    );

    // Fig. 1(b): boundary detection (ground-truth coordinates — the figure
    // panel is the error-free pipeline; Figs. 1(j–l) add errors).
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    println!(
        "detected boundary nodes: {} in {} groups (balls tested: {})",
        detection.boundary_count(),
        detection.groups.len(),
        detection.balls_tested
    );

    // Figs. 1(c–f): landmarks, CDG, CDM, triangulation, flips — per group.
    let surfaces = SurfaceBuilder::new(SurfaceConfig::default()).build(&model, &detection);
    let mut table = vec![vec![
        "boundary".into(),
        "nodes".into(),
        "landmarks".into(),
        "CDG".into(),
        "CDM".into(),
        "added".into(),
        "dropped".into(),
        "flips".into(),
        "faces".into(),
        "manifold%".into(),
        "Euler".into(),
    ]];
    for (i, s) in surfaces.iter().enumerate() {
        let st = &s.stats;
        table.push(vec![
            i.to_string(),
            st.group_size.to_string(),
            st.landmarks.to_string(),
            st.cdg_edges.to_string(),
            st.cdm_edges.to_string(),
            st.added_edges.to_string(),
            st.dropped_edges.to_string(),
            st.flips.to_string(),
            st.faces.to_string(),
            format!("{:.1}", 100.0 * st.audit.manifold_fraction()),
            st.euler.to_string(),
        ]);
    }
    println!("\npipeline stages per boundary (Fig. 1(c)–1(f)):");
    println!("{}", format_table(&table));

    let shape = model.shape();
    for (i, s) in surfaces.iter().enumerate() {
        let path = export_mesh(&format!("fig1f_mesh_{i}.obj"), &s.mesh);
        println!(
            "mesh {i}: deviation from true surface {:.3} radio ranges -> {}",
            s.mesh.mean_abs_distance_to(&*shape),
            path.display()
        );
    }
}
