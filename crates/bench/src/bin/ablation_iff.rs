//! E11 — ablation of the IFF thresholds (Sec. II-B): the paper sets
//! θ = 20 (icosahedron bound) and TTL T = 3. Under heavy distance error,
//! UBF promotes isolated interior fragments; IFF must remove them without
//! eating genuine boundaries.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin ablation_iff
//! ```

use ballfit::config::{CoordinateSource, DetectorConfig, IffConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::metrics::DetectionStats;
use ballfit_bench::{format_table, gallery_network, parallel_map, pct, write_csv, Args};
use ballfit_netgen::scenario::Scenario;

fn main() {
    Args::from_env("");
    let model = gallery_network(Scenario::SolidSphere, 5);
    println!("sphere network: {} nodes, 40% distance error", model.len());

    let mut configs = Vec::new();
    for theta in [1usize, 5, 10, 20, 40, 80] {
        for ttl in [1u32, 2, 3, 4] {
            configs.push(IffConfig { theta, ttl });
        }
    }
    let runs = parallel_map(configs, |&iff| {
        let cfg = DetectorConfig {
            coordinates: CoordinateSource::paper_error(40, 3),
            iff,
            ..Default::default()
        };
        let detection = BoundaryDetector::new(cfg).detect(&model);
        let candidates = detection.candidates.iter().filter(|&&b| b).count();
        let stats = DetectionStats::evaluate(&model, &detection);
        let groups = detection.groups.len();
        (iff, candidates, groups, stats)
    });

    let mut table = vec![vec![
        "theta".into(),
        "TTL".into(),
        "candidates".into(),
        "kept".into(),
        "groups".into(),
        "recall".into(),
        "precision".into(),
    ]];
    let mut rows = Vec::new();
    for (iff, candidates, groups, stats) in &runs {
        table.push(vec![
            iff.theta.to_string(),
            iff.ttl.to_string(),
            candidates.to_string(),
            stats.found.to_string(),
            groups.to_string(),
            pct(stats.recall()),
            pct(stats.precision()),
        ]);
        rows.push(vec![
            iff.theta.to_string(),
            iff.ttl.to_string(),
            candidates.to_string(),
            stats.found.to_string(),
            groups.to_string(),
            format!("{:.4}", stats.recall()),
            format!("{:.4}", stats.precision()),
        ]);
    }
    println!("\nIFF ablation (θ × TTL at 40% error; paper default θ=20, T=3):");
    println!("{}", format_table(&table));
    let p = write_csv(
        "ablation_iff.csv",
        &["theta", "ttl", "candidates", "kept", "groups", "recall", "precision"],
        &rows,
    );
    println!("wrote {}", p.display());
}
