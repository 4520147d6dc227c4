//! E13 — ablation of UBF's witness scope (Sec. II-A2 vs II-A3).
//!
//! Lemma 1's correctness argument ranges over the full `2r` ball, but the
//! paper's Algorithm 1 deliberately restricts both ball definition and
//! emptiness witnesses to the one-hop neighborhood for a "truly localized"
//! protocol. The cost of that approximation is hidden witnesses: a ball
//! can test empty while nodes 1–2 hops away actually pierce it.
//!
//! On TetGen-like (blue-noise) workloads the approximation is nearly free
//! — that is the regime the paper evaluates. On *uniform* clouds the
//! hidden-witness false positives appear, and the 2-hop variant recovers
//! most of the lost precision at the price of one extra exchange round and
//! ~an-order-of-magnitude more ball tests.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin ablation_two_hop
//! ```

use ballfit::config::{DetectorConfig, UbfConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::metrics::DetectionStats;
use ballfit_bench::{format_table, pct, write_csv, Args};
use ballfit_netgen::builder::{NetworkBuilder, Placement};
use ballfit_netgen::scenario::Scenario;

fn main() {
    Args::from_env("");
    let mut table = vec![vec![
        "placement".into(),
        "witnesses".into(),
        "found".into(),
        "recall".into(),
        "precision".into(),
        "balls tested".into(),
    ]];
    let mut rows = Vec::new();
    for (placement, label) in
        [(Placement::BlueNoise, "blue-noise"), (Placement::Uniform, "uniform")]
    {
        let model = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(450)
            .interior_nodes(750)
            .target_degree(17.0)
            .placement(placement)
            .require_connected(false)
            .seed(13)
            .build()
            .expect("ablation network generates");
        for hops in [1u32, 2] {
            let cfg = DetectorConfig {
                ubf: UbfConfig { witness_hops: hops, ..Default::default() },
                ..Default::default()
            };
            let detection = BoundaryDetector::new(cfg).detect(&model);
            let stats = DetectionStats::evaluate(&model, &detection);
            table.push(vec![
                label.into(),
                format!("{hops}-hop"),
                stats.found.to_string(),
                pct(stats.recall()),
                pct(stats.precision()),
                detection.balls_tested.to_string(),
            ]);
            rows.push(vec![
                label.into(),
                hops.to_string(),
                stats.found.to_string(),
                format!("{:.4}", stats.recall()),
                format!("{:.4}", stats.precision()),
                detection.balls_tested.to_string(),
            ]);
        }
    }
    println!("UBF witness-scope ablation (ground-truth coordinates):");
    println!("{}", format_table(&table));
    let p = write_csv(
        "ablation_two_hop.csv",
        &["placement", "witness_hops", "found", "recall", "precision", "balls_tested"],
        &rows,
    );
    println!("wrote {}", p.display());
}
