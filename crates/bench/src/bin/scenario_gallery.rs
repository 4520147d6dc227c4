//! E6 — Figs. 6–10: the five scenario galleries (underwater, one hole,
//! two holes, bended pipe, sphere): boundary detection + mesh quality per
//! scenario at the paper's default settings.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin scenario_gallery
//! ```
//!
//! Emits `results/gallery.csv` and one OBJ mesh per boundary.

use ballfit::Pipeline;
use ballfit_bench::{
    export_mesh, format_table, gallery_network, parallel_map, pct, write_csv, Args,
};
use ballfit_netgen::scenario::Scenario;

fn main() {
    Args::from_env("");
    let runs = parallel_map(Scenario::PAPER_GALLERY.to_vec(), |&scenario| {
        let model = gallery_network(scenario, 42);
        let result = Pipeline::paper(10, 7).run(&model);
        (scenario, model, result)
    });

    let mut table = vec![vec![
        "scenario".into(),
        "nodes".into(),
        "truth".into(),
        "recall".into(),
        "precision".into(),
        "groups".into(),
        "expected".into(),
        "meshes".into(),
        "faces".into(),
        "deviation".into(),
    ]];
    let mut rows = Vec::new();
    for (scenario, model, result) in &runs {
        let shape = model.shape();
        let faces: usize = result.surfaces.iter().map(|s| s.stats.faces).sum();
        let deviation = if result.surfaces.is_empty() {
            f64::NAN
        } else {
            result.surfaces.iter().map(|s| s.mesh.mean_abs_distance_to(&*shape)).sum::<f64>()
                / result.surfaces.len() as f64
        };
        table.push(vec![
            scenario.to_string(),
            model.len().to_string(),
            result.stats.truth.to_string(),
            pct(result.stats.recall()),
            pct(result.stats.precision()),
            result.detection.groups.len().to_string(),
            scenario.expected_boundaries().to_string(),
            result.surfaces.len().to_string(),
            faces.to_string(),
            format!("{deviation:.3}"),
        ]);
        rows.push(vec![
            scenario.name().to_string(),
            model.len().to_string(),
            result.stats.truth.to_string(),
            format!("{:.4}", result.stats.recall()),
            format!("{:.4}", result.stats.precision()),
            result.detection.groups.len().to_string(),
            scenario.expected_boundaries().to_string(),
            faces.to_string(),
            format!("{deviation:.4}"),
        ]);
        for (i, s) in result.surfaces.iter().enumerate() {
            export_mesh(&format!("gallery_{}_mesh_{i}.obj", scenario.name()), &s.mesh);
        }
    }
    println!("Figs. 6–10 — scenario gallery (10% distance error):");
    println!("{}", format_table(&table));
    let p = write_csv(
        "gallery.csv",
        &[
            "scenario",
            "nodes",
            "truth",
            "recall",
            "precision",
            "groups",
            "expected_boundaries",
            "faces",
            "mesh_deviation",
        ],
        &rows,
    );
    println!("wrote {}", p.display());
}
