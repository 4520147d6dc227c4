//! E9 — ablation of the unit-ball radius `r` (Sec. II-A3): "the size of
//! holes to be detected is adjustable by varying r. If one is interested
//! in the boundary nodes of large holes only, a larger r can be chosen."
//!
//! On the one-hole network (hole radius 2 ≈ 1.21 radio ranges), sweeping
//! the ball-radius factor should keep the outer boundary detected at every
//! setting while the hole boundary disappears once the ball no longer fits
//! into the hole.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin ablation_ball_radius
//! ```

use ballfit::config::{DetectorConfig, UbfConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::metrics::DetectionStats;
use ballfit_bench::{format_table, gallery_network, parallel_map, pct, write_csv, Args};
use ballfit_netgen::scenario::Scenario;

fn main() {
    Args::from_env("");
    let model = gallery_network(Scenario::SpaceOneHole, 9);
    let hole_radius_in_ranges = 2.0 / model.radio_range();
    println!(
        "one-hole network: {} nodes, radio range {:.3} (hole radius ≈ {:.2} ranges)",
        model.len(),
        model.radio_range(),
        hole_radius_in_ranges
    );

    let factors = [0.75f64, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0];
    let runs = parallel_map(factors.to_vec(), |&factor| {
        let cfg = DetectorConfig {
            ubf: UbfConfig { ball_radius_factor: factor, ..Default::default() },
            ..Default::default()
        };
        let detection = BoundaryDetector::new(cfg).detect(&model);
        let stats = DetectionStats::evaluate(&model, &detection);
        (factor, detection.groups.len(), stats)
    });

    let mut table = vec![vec![
        "r factor".into(),
        "found".into(),
        "groups".into(),
        "recall".into(),
        "precision".into(),
    ]];
    let mut rows = Vec::new();
    for (factor, groups, stats) in &runs {
        table.push(vec![
            format!("{factor:.2}"),
            stats.found.to_string(),
            groups.to_string(),
            pct(stats.recall()),
            pct(stats.precision()),
        ]);
        rows.push(vec![
            format!("{factor:.2}"),
            stats.found.to_string(),
            groups.to_string(),
            format!("{:.4}", stats.recall()),
            format!("{:.4}", stats.precision()),
        ]);
    }
    println!("\nball-radius ablation (expect the hole group to vanish once r > hole radius):");
    println!("{}", format_table(&table));
    let p = write_csv(
        "ablation_ball_radius.csv",
        &["radius_factor", "found", "groups", "recall", "precision"],
        &rows,
    );
    println!("wrote {}", p.display());
}
