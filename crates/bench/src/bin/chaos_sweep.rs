//! E19 — chaos sweep: detection quality under combined radio faults and
//! topology churn.
//!
//! For every `(loss, crash fraction, churn rate)` cell the sweep runs
//! [`ballfit::chaos::run_chaos`] on a one-hole network: a seeded
//! `ChurnPlan` mutates the topology epoch by epoch while every epoch's
//! hardened detection stack (backoff UBF → repeated flood → evidence
//! grouping) executes under a derived `FaultPlan` (message loss,
//! duplication, transient crashes). The convergence watchdog grades each
//! epoch with a typed `DetectionOutcome`; reported per cell: exact
//! epochs, minimum coverage, mean boundary Jaccard against the
//! incremental oracle, total detection lag (extra rounds vs the
//! fault-free baseline), repair traffic, and the degradation-cause
//! histogram. Results are written as a JSON artifact into
//! `$BALLFIT_RESULTS` or `results/`.
//!
//! Every reported quantity is a deterministic function of the seeds —
//! no wall-clock fields — so repeated runs are byte-identical.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin chaos_sweep            # full grid
//! cargo run --release -p ballfit-bench --bin chaos_sweep -- --smoke # CI smoke run
//! cargo run --release -p ballfit-bench --bin chaos_sweep -- --validate out.json
//! ```
//!
//! Grid cells run in parallel (`--threads N` / `BALLFIT_THREADS`,
//! default all cores); each cell's incremental oracle runs
//! single-threaded so results are independent of the worker count.
//! `--trace <path>` re-runs the heaviest cell with tracing enabled and
//! exports the chaos/epoch/watchdog span tree as JSONL.

use std::path::Path;

use ballfit_bench::{fixed, Args, Parallelism};
use ballfit_json::{arr, obj};

use ballfit::chaos::{run_chaos, run_chaos_traced, ChaosConfig, ChaosReport, DegradeCause};
use ballfit::config::DetectorConfig;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_wsn::churn::ChurnPlan;

struct Grid {
    losses: Vec<f64>,
    crashes: Vec<f64>,
    rates: Vec<f64>,
    epochs: usize,
}

fn grid(smoke: bool) -> Grid {
    if smoke {
        Grid { losses: vec![0.1], crashes: vec![0.05], rates: vec![0.02], epochs: 2 }
    } else {
        Grid {
            losses: vec![0.0, 0.1, 0.3],
            crashes: vec![0.0, 0.05, 0.1],
            rates: vec![0.01, 0.02],
            epochs: 4,
        }
    }
}

/// The chaos reference network: the paper's one-hole scenario at a size
/// where the full hardened stack (grouping budget is O(n) rounds) stays
/// tractable across the grid. Exactness is judged against the
/// incremental oracle on the *same* churned topology, so detection
/// parity — not hole visibility — is what the sweep measures.
fn reference_model(smoke: bool) -> NetworkModel {
    let (surface, interior, degree, seed) =
        if smoke { (60, 90, 12.0, 11) } else { (120, 180, 12.0, 11) };
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(degree)
        .require_connected(false)
        .seed(seed)
        .build()
        .expect("reference model generates")
}

/// Position seed for churn joins; fixed so every cell replays the same
/// join-position stream and cells differ only in their fault knobs.
const POSITION_SEED: u64 = 0x00C0_FFEE;
const FAULT_SEED: u64 = 7;

struct Cell {
    loss: f64,
    crash: f64,
    rate: f64,
    epochs: usize,
    exact_epochs: usize,
    min_coverage: f64,
    mean_jaccard: f64,
    total_lag: usize,
    repairs: u64,
    exhausted: u64,
    partition: usize,
    crash_quorum: usize,
    retry_exhausted: usize,
    truncated: usize,
}

fn cell_config(loss: f64, crash: f64, rate: f64, epochs: usize, drift: f64) -> ChaosConfig {
    let churn = ChurnPlan::none()
        .with_seed(9)
        .with_epochs(epochs)
        .with_join_rate(rate)
        .with_leave_rate(rate)
        .with_move_rate(rate)
        .with_max_drift(drift);
    // Zero-noise local-MDS coordinates: both the oracle and the
    // distributed stack embed the same measured distances, so a clean
    // channel reproduces the oracle exactly (see `ChaosConfig` docs).
    ChaosConfig::new(DetectorConfig::paper(0, 0), churn)
        .with_loss(loss)
        .with_duplication(loss / 2.0)
        .with_max_delay(if loss > 0.0 { 1 } else { 0 })
        .with_crash_fraction(crash)
        .with_fault_seed(FAULT_SEED)
}

fn summarize(loss: f64, crash: f64, rate: f64, report: &ChaosReport) -> Cell {
    let mut causes = [0usize; 4];
    for e in &report.epochs {
        if let Some(cause) = e.outcome.cause() {
            let slot = match cause {
                DegradeCause::Partition => 0,
                DegradeCause::CrashQuorum => 1,
                DegradeCause::RetryExhausted => 2,
                DegradeCause::Truncated => 3,
            };
            causes[slot] += 1;
        }
    }
    Cell {
        loss,
        crash,
        rate,
        epochs: report.epochs.len(),
        exact_epochs: report.exact_epochs(),
        min_coverage: report.min_coverage(),
        mean_jaccard: report.mean_jaccard(),
        total_lag: report.total_lag(),
        repairs: report.epochs.iter().map(|e| e.repairs).sum(),
        exhausted: report.epochs.iter().map(|e| e.exhausted).sum(),
        partition: causes[0],
        crash_quorum: causes[1],
        retry_exhausted: causes[2],
        truncated: causes[3],
    }
}

fn main() {
    let args =
        Args::from_env("--smoke --out <path> --trace <path> --threads <n> --validate <path>");
    let smoke = args.has("--smoke");
    let parallelism = args.parallelism();

    let grid = grid(smoke);
    let model = reference_model(smoke);
    let drift = 0.5 * model.radio_range();
    let mut params = Vec::new();
    for &loss in &grid.losses {
        for &crash in &grid.crashes {
            for &rate in &grid.rates {
                params.push((loss, crash, rate));
            }
        }
    }
    eprintln!(
        "chaos sweep: {} cells x {} epochs on {} nodes, {} thread(s){}",
        params.len(),
        grid.epochs,
        model.len(),
        parallelism.get(),
        if smoke { " (smoke)" } else { "" }
    );

    // Each cell drives its own churn replica and oracle; cells shard
    // over workers and the oracle stays sequential so cell results are
    // independent of the worker count.
    let cells = ballfit_par::par_map(parallelism, &params, |&(loss, crash, rate)| {
        let config = cell_config(loss, crash, rate, grid.epochs, drift);
        let report = run_chaos(&model, &config, POSITION_SEED, Parallelism::sequential())
            .expect("in-shape sampling never exhausts");
        summarize(loss, crash, rate, &report)
    });
    for c in &cells {
        eprintln!(
            "  loss={:>4} crash={:>4} rate={:>4}: {}/{} exact, min coverage {:.3}, \
             mean J {:.3}, lag {}, repairs {}",
            c.loss,
            c.crash,
            c.rate,
            c.exact_epochs,
            c.epochs,
            c.min_coverage,
            c.mean_jaccard,
            c.total_lag,
            c.repairs,
        );
    }

    if let Some(tp) = args.value("--trace") {
        // Re-run the heaviest cell traced: the full chaos/epoch/watchdog
        // span tree, including per-epoch verdict events.
        let &(loss, crash, rate) = params.last().expect("grid is never empty");
        let config = cell_config(loss, crash, rate, grid.epochs, drift);
        let mut trace = ballfit_obs::Trace::enabled();
        run_chaos_traced(&model, &config, POSITION_SEED, Parallelism::sequential(), &mut trace)
            .expect("in-shape sampling never exhausts");
        trace.write_jsonl(Path::new(tp)).expect("trace JSONL is writable");
        println!("wrote trace {tp}");
    }

    let cells = cells.iter().map(|c| {
        obj([
            ("loss", c.loss.into()),
            ("crash", c.crash.into()),
            ("rate", c.rate.into()),
            ("epochs", c.epochs.into()),
            ("exact_epochs", c.exact_epochs.into()),
            ("min_coverage", fixed(c.min_coverage, 6)),
            ("mean_jaccard", fixed(c.mean_jaccard, 6)),
            ("total_lag", c.total_lag.into()),
            ("repairs", c.repairs.into()),
            ("exhausted", c.exhausted.into()),
            (
                "causes",
                obj([
                    ("partition", c.partition.into()),
                    ("crash_quorum", c.crash_quorum.into()),
                    ("retry_exhausted", c.retry_exhausted.into()),
                    ("truncated", c.truncated.into()),
                ]),
            ),
        ])
    });
    let meta = obj([
        ("experiment", "E19-chaos".into()),
        ("smoke", smoke.into()),
        ("scenario", "SpaceOneHole".into()),
        ("nodes", model.len().into()),
        ("epochs", grid.epochs.into()),
        ("coordinates", "local-mds (zero noise)".into()),
        ("crash_window", "down at round 1, revive at round 6".into()),
        ("oracle", "incremental detector on the same churned topology".into()),
    ]);
    args.write_artifact("chaos_sweep.json", &obj([("meta", meta), ("cells", arr(cells))]));
}
