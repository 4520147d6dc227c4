//! E7 — Fig. 1(j–l): mesh robustness under 20%, 30% and 40% distance
//! measurement errors. The paper's observation: the triangular mesh is
//! "not seriously deformed" — mistaken nodes hug the true boundary and
//! missing nodes scatter uniformly, so landmark election and meshing
//! barely change.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin mesh_under_error [-- --small]
//! ```

use ballfit::Pipeline;
use ballfit_bench::{
    export_mesh, fig1_network, fig1_network_small, format_table, parallel_map, write_csv, Args,
};

fn main() {
    let small = Args::from_env("--small").has("--small");
    let model = if small { fig1_network_small(4) } else { fig1_network(4) };
    println!("network: {} nodes", model.len());
    let shape = model.shape();

    let errors = [0u32, 20, 30, 40];
    let runs = parallel_map(errors.to_vec(), |&e| (e, Pipeline::paper(e, 11).run(&model)));

    let baseline_faces: usize =
        runs[0].1.surfaces.iter().map(|s| s.stats.faces).sum::<usize>().max(1);

    let mut table = vec![vec![
        "error".into(),
        "boundary".into(),
        "meshes".into(),
        "landmarks".into(),
        "faces".into(),
        "face drift".into(),
        "manifold%".into(),
        "deviation".into(),
    ]];
    let mut rows = Vec::new();
    for (e, result) in &runs {
        let landmarks: usize = result.surfaces.iter().map(|s| s.stats.landmarks).sum();
        let faces: usize = result.surfaces.iter().map(|s| s.stats.faces).sum();
        let manifold = if result.surfaces.is_empty() {
            0.0
        } else {
            result.surfaces.iter().map(|s| s.stats.audit.manifold_fraction()).sum::<f64>()
                / result.surfaces.len() as f64
        };
        let deviation = if result.surfaces.is_empty() {
            f64::NAN
        } else {
            result.surfaces.iter().map(|s| s.mesh.mean_abs_distance_to(&*shape)).sum::<f64>()
                / result.surfaces.len() as f64
        };
        let drift = (faces as f64 - baseline_faces as f64) / baseline_faces as f64;
        table.push(vec![
            format!("{e}%"),
            result.detection.boundary_count().to_string(),
            result.surfaces.len().to_string(),
            landmarks.to_string(),
            faces.to_string(),
            format!("{:+.1}%", 100.0 * drift),
            format!("{:.1}", 100.0 * manifold),
            format!("{deviation:.3}"),
        ]);
        rows.push(vec![
            e.to_string(),
            result.detection.boundary_count().to_string(),
            result.surfaces.len().to_string(),
            landmarks.to_string(),
            faces.to_string(),
            format!("{drift:.4}"),
            format!("{manifold:.4}"),
            format!("{deviation:.4}"),
        ]);
        for (i, s) in result.surfaces.iter().enumerate() {
            export_mesh(&format!("fig1jkl_mesh_err{e}_{i}.obj"), &s.mesh);
        }
    }
    println!("\nFig. 1(j–l) — mesh under distance measurement error:");
    println!("{}", format_table(&table));
    let p = write_csv(
        "fig1jkl_mesh_under_error.csv",
        &[
            "error_pct",
            "boundary_nodes",
            "meshes",
            "landmarks",
            "faces",
            "face_drift",
            "manifold_fraction",
            "mesh_deviation",
        ],
        &rows,
    );
    println!("wrote {}", p.display());
}
