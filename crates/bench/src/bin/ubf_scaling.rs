//! E17 — thread-scaling of the UBF candidacy sweep.
//!
//! Runs the full from-scratch detector (`detect_view`) on the Fig. 1
//! one-hole network (4210 nodes, degree 18.8) at a ladder of worker
//! thread counts, asserts that every run's detection state is
//! **byte-identical** to the single-threaded run (the `ballfit-par`
//! determinism contract), and reports per-count wall-clock plus speedup
//! over one thread. Results land in `$BALLFIT_RESULTS/ubf_scaling.json`
//! (or `results/`).
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin ubf_scaling             # 4210 nodes
//! cargo run --release -p ballfit-bench --bin ubf_scaling -- --smoke  # ~1150 nodes
//! cargo run --release -p ballfit-bench --bin ubf_scaling -- --validate out.json
//! ```
//!
//! The hardware caps what the speedup can show: on a single-core host
//! every count measures ~1×. The JSON records `available_parallelism` so
//! a reader can tell a scaling failure from a core-starved machine.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ballfit::config::DetectorConfig;
use ballfit::detector::{BoundaryDetection, BoundaryDetector};
use ballfit::view::NetView;
use ballfit_bench::{
    fig1_network, fig1_network_small, results_path, validate_and_exit, Parallelism,
};
use ballfit_netgen::model::NetworkModel;

/// Thread-count ladder of the acceptance criterion.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Timed repetitions per thread count; best-of is reported (the usual
/// guard against scheduler noise on a shared machine).
const REPS: usize = 3;

fn identical(a: &BoundaryDetection, b: &BoundaryDetection) -> bool {
    a.candidates == b.candidates
        && a.boundary == b.boundary
        && a.groups == b.groups
        && a.balls_tested == b.balls_tested
        && a.degenerate_nodes == b.degenerate_nodes
}

struct Row {
    threads: usize,
    best_secs: f64,
}

fn sweep(model: &NetworkModel, ladder: &[usize]) -> Vec<Row> {
    let view = NetView::from_model(model);
    let cfg = DetectorConfig::default();
    let reference =
        BoundaryDetector::new(cfg).with_parallelism(Parallelism::sequential()).detect_view(&view);

    let mut rows = Vec::new();
    for &threads in ladder {
        let det = BoundaryDetector::new(cfg).with_parallelism(Parallelism::threads(threads));
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let detection = det.detect_view(&view);
            let dt = t0.elapsed().as_secs_f64();
            assert!(
                identical(&detection, &reference),
                "detection at {threads} threads diverged from the sequential run"
            );
            best = best.min(dt);
        }
        eprintln!("  threads={threads}: best of {REPS} runs {best:.3}s (byte-identical)");
        rows.push(Row { threads, best_secs: best });
    }
    rows
}

fn main() {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out requires a path"))),
            "--trace" => {
                trace_out = Some(PathBuf::from(args.next().expect("--trace requires a path")));
            }
            "--validate" => {
                let path = PathBuf::from(args.next().expect("--validate requires a path"));
                validate_and_exit(&path, false);
            }
            other => {
                panic!(
                    "unknown argument {other} (expected --smoke / --out <path> / \
                     --trace <path> / --validate <path>)"
                )
            }
        }
    }

    let model = if smoke { fig1_network_small(42) } else { fig1_network(42) };
    let cores = Parallelism::available().get();
    eprintln!(
        "ubf scaling: {} nodes, thread ladder {THREAD_LADDER:?}, {cores} core(s) available{}",
        model.len(),
        if smoke { " (smoke)" } else { "" }
    );
    let rows = sweep(&model, &THREAD_LADDER);
    let base = rows[0].best_secs;

    let mut doc = String::new();
    doc.push_str("{\n");
    let _ = writeln!(
        doc,
        "  \"meta\": {{\"experiment\": \"E17-ubf-thread-scaling\", \"smoke\": {smoke}, \
         \"nodes\": {}, \"edges\": {}, \"reps\": {REPS}, \
         \"available_parallelism\": {cores}, \
         \"determinism\": \"byte-identical to sequential, asserted per run\"}},",
        model.len(),
        model.topology().edge_count()
    );
    doc.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            doc,
            "    {{\"threads\": {}, \"best_secs\": {:.6}, \"speedup_vs_1\": {:.3}}}",
            r.threads,
            r.best_secs,
            base / r.best_secs
        );
        doc.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");

    let path = results_path(out, "ubf_scaling.json");
    std::fs::write(&path, &doc).expect("scaling JSON is writable");
    println!("wrote {}", path.display());

    if let Some(tp) = trace_out {
        // One traced sequential detection: the trace is byte-identical
        // at every thread count, so one representative run suffices.
        let mut trace = ballfit_obs::Trace::enabled();
        BoundaryDetector::new(DetectorConfig::default())
            .with_parallelism(Parallelism::sequential())
            .detect_view_traced(&NetView::from_model(&model), &mut trace);
        trace.write_jsonl(&tp).expect("trace JSONL is writable");
        println!("wrote trace {}", tp.display());
    }
}
