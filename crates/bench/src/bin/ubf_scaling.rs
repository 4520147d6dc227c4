//! E17 — thread-scaling of the UBF candidacy sweep.
//!
//! Runs the full from-scratch detector (`detect_view`) on the Fig. 1
//! one-hole network (4210 nodes, degree 18.8) at a ladder of worker
//! thread counts, twice: with known coordinates (`DetectorConfig::default`)
//! and with the paper's local-MDS frames at 10% ranging error
//! (`DetectorConfig::paper(10, 7)`, frames embedded in lane groups of
//! equal size). Every run's detection state is asserted **byte-identical**
//! to the single-threaded run of its configuration (the `ballfit-par`
//! determinism contract). A one-thread row then times the local-MDS
//! frames of every node one at a time (`neighborhood_frame_view`) against
//! the batched lane groups (`neighborhood_frames_view`) and asserts that
//! their bits are equal. Results land in
//! `$BALLFIT_RESULTS/ubf_scaling.json` (or `results/`).
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

use std::path::Path;
use std::time::Instant;

use ballfit::config::DetectorConfig;
use ballfit::detector::{BoundaryDetection, BoundaryDetector};
use ballfit::localizer::{neighborhood_frame_view, neighborhood_frames_view, NeighborhoodFrame};
use ballfit::view::NetView;
use ballfit_bench::{fig1_network, fig1_network_small, fixed, Args, Parallelism};
use ballfit_json::{arr, obj, JsonValue};
use ballfit_netgen::model::NetworkModel;

/// Thread-count ladder of the acceptance criterion.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Timed repetitions per measurement. Every rep's seconds are recorded;
/// the median is the measurement and min–max its spread, so a reader can
/// tell scaling from scheduler noise on a shared machine.
const REPS: usize = 5;

fn identical(a: &BoundaryDetection, b: &BoundaryDetection) -> bool {
    a.candidates == b.candidates
        && a.boundary == b.boundary
        && a.groups == b.groups
        && a.balls_tested == b.balls_tested
        && a.degenerate_nodes == b.degenerate_nodes
}

struct Row {
    threads: usize,
    secs: Vec<f64>,
}

fn sweep(model: &NetworkModel, cfg: DetectorConfig, label: &str, ladder: &[usize]) -> Vec<Row> {
    let view = NetView::from_model(model);
    let reference =
        BoundaryDetector::new(cfg).with_parallelism(Parallelism::sequential()).detect_view(&view);

    let mut rows = Vec::new();
    for &threads in ladder {
        let det = BoundaryDetector::new(cfg).with_parallelism(Parallelism::threads(threads));
        let secs = timed_reps(
            || det.detect_view(&view),
            |detection| {
                assert!(
                    identical(&detection, &reference),
                    "{label}: detection at {threads} threads diverged from the sequential run"
                );
            },
        );
        let [min, median, max] = min_median_max(&secs);
        eprintln!(
            "  {label}, threads={threads}: median of {REPS} runs {median:.3}s, {min:.3}–{max:.3}s \
             (byte-identical)"
        );
        rows.push(Row { threads, secs });
    }
    rows
}

/// The wall times of `REPS` runs of `run` in seconds, in run order;
/// `check` inspects every run's output outside the timed region.
fn timed_reps<T>(mut run: impl FnMut() -> T, mut check: impl FnMut(T)) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let output = run();
            let elapsed = t0.elapsed().as_secs_f64();
            check(output);
            elapsed
        })
        .collect()
}

/// Min, median and max of `secs` (`REPS` is odd).
fn min_median_max(secs: &[f64]) -> [f64; 3] {
    let mut sorted = secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    [sorted[0], sorted[sorted.len() / 2], sorted[sorted.len() - 1]]
}

fn median(secs: &[f64]) -> f64 {
    min_median_max(secs)[1]
}

/// Every rep's seconds, in run order, with their median, min and max.
fn spread(secs: &[f64]) -> [(&'static str, JsonValue); 4] {
    let [min, median, max] = min_median_max(secs);
    [
        ("median_secs", fixed(median, 6)),
        ("min_secs", fixed(min, 6)),
        ("max_secs", fixed(max, 6)),
        ("secs", arr(secs.iter().map(|&s| fixed(s, 6)))),
    ]
}

/// Members, own index and the f64 bits of coordinates and stress.
fn frame_bits(frame: &Option<NeighborhoodFrame>) -> Option<(Vec<usize>, usize, Vec<u64>, u64)> {
    frame.as_ref().map(|f| {
        let coords = f.coords.iter().flat_map(|c| [c.x, c.y, c.z]).map(f64::to_bits).collect();
        (f.members.clone(), f.self_index, coords, f.stress.to_bits())
    })
}

/// One thread: every node's local-MDS frame one at a time against the
/// batched lane groups, bits asserted equal on every run.
fn frames_row(model: &NetworkModel, cfg: DetectorConfig) -> JsonValue {
    let view = NetView::from_model(model);
    let (source, k) = (&cfg.coordinates, cfg.ubf.witness_hops);
    let nodes: Vec<usize> = (0..model.len()).collect();
    let reference: Vec<_> = nodes
        .iter()
        .map(|&node| frame_bits(&neighborhood_frame_view(&view, node, source, k)))
        .collect();
    let per_node_secs = timed_reps(
        || nodes.iter().map(|&node| neighborhood_frame_view(&view, node, source, k)).collect(),
        |frames: Vec<_>| {
            for (node, frame) in frames.iter().enumerate() {
                assert!(frame_bits(frame) == reference[node], "frame of node {node} changed");
            }
        },
    );
    let batched_secs = timed_reps(
        || neighborhood_frames_view(&view, &nodes, source, k),
        |frames| {
            for (node, frame) in frames.iter().enumerate() {
                assert!(
                    frame_bits(frame) == reference[node],
                    "batched frame of node {node} differs"
                );
            }
        },
    );
    let frames = reference.iter().filter(|frame| frame.is_some()).count();
    let (per_node, batched) = (median(&per_node_secs), median(&batched_secs));
    eprintln!(
        "  frames, threads=1: one at a time {per_node:.3}s, lane groups {batched:.3}s \
         (medians; {frames} frames, bit-identical)"
    );
    obj([
        ("threads", 1u32.into()),
        ("config", "paper(10, 7)".into()),
        ("frames", frames.into()),
        ("per_node", obj(spread(&per_node_secs))),
        ("batched", obj(spread(&batched_secs))),
        ("speedup", fixed(per_node / batched, 3)),
        ("bits", "identical, asserted per run".into()),
    ])
}

/// A thread ladder's rows, with median speedups against its one-thread
/// run.
fn ladder_rows(rows: &[Row]) -> JsonValue {
    let base = median(&rows[0].secs);
    arr(rows.iter().map(|r| {
        let mut row = vec![("threads", r.threads.into())];
        row.extend(spread(&r.secs));
        row.push(("speedup_vs_1", fixed(base / median(&r.secs), 3)));
        obj(row)
    }))
}

fn main() {
    let args = Args::from_env("--smoke --out <path> --trace <path> --validate <path>");
    let smoke = args.has("--smoke");

    let model = if smoke { fig1_network_small(42) } else { fig1_network(42) };
    let cores = Parallelism::available().get();
    eprintln!(
        "ubf scaling: {} nodes, thread ladder {THREAD_LADDER:?}, {cores} core(s) available{}",
        model.len(),
        if smoke { " (smoke)" } else { "" }
    );
    let paper = DetectorConfig::paper(10, 7);
    let rows = sweep(&model, DetectorConfig::default(), "known coordinates", &THREAD_LADDER);
    let paper_rows = sweep(&model, paper, "paper(10, 7)", &THREAD_LADDER);
    let frames = frames_row(&model, paper);

    let meta = obj([
        ("experiment", "E17-ubf-thread-scaling".into()),
        ("smoke", smoke.into()),
        ("nodes", model.len().into()),
        ("edges", model.topology().edge_count().into()),
        ("reps", REPS.into()),
        (
            "statistic",
            "median of reps (min and max give the spread); speedups are ratios of medians".into(),
        ),
        ("available_parallelism", cores.into()),
        ("rows", "DetectorConfig::default (known coordinates)".into()),
        ("paper_rows", "DetectorConfig::paper(10, 7) (local-MDS frames in lane groups)".into()),
        ("determinism", "byte-identical to sequential, asserted per run".into()),
    ]);
    let doc = obj([
        ("meta", meta),
        ("rows", ladder_rows(&rows)),
        ("paper_rows", ladder_rows(&paper_rows)),
        ("frames", frames),
    ]);
    args.write_artifact("ubf_scaling.json", &doc);

    if let Some(tp) = args.value("--trace") {
        // One traced sequential detection: the trace is byte-identical
        // at every thread count, so one representative run suffices.
        let mut trace = ballfit_obs::Trace::enabled();
        BoundaryDetector::new(DetectorConfig::default())
            .with_parallelism(Parallelism::sequential())
            .detect_view_traced(&NetView::from_model(&model), &mut trace);
        trace.write_jsonl(Path::new(tp)).expect("trace JSONL is writable");
        println!("wrote trace {tp}");
    }
}
