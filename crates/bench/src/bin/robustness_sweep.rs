//! E15 — robustness sweep: degradation of the hardened protocol stack on
//! an unreliable radio, as a function of link-loss rate and crashed-node
//! fraction.
//!
//! For every `(loss, crash_fraction, seed)` cell the sweep runs hardened
//! UBF, the hardened IFF flood, hardened grouping, and the landmark
//! election against a deterministic [`FaultPlan`] (permanent fail-stop
//! crashes at round 1), then scores the outputs of the *alive* nodes
//! against the fault-free centralized detector: missing/mistaken boundary
//! rates, grouping label agreement, landmark convergence and Jaccard
//! similarity, and message overhead relative to the fault-free plain
//! protocols. Results are emitted as JSON (hand-rolled — the sweep is
//! dependency-free by design) into `$BALLFIT_RESULTS` or `results/`.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin robustness_sweep            # full grid
//! cargo run --release -p ballfit-bench --bin robustness_sweep -- --smoke # CI smoke run
//! cargo run --release -p ballfit-bench --bin robustness_sweep -- --validate out.json
//! ```
//!
//! Grid cells run in parallel (`--threads N` / `BALLFIT_THREADS`, default
//! all cores); results are collected in grid order, so the JSON is
//! byte-identical at every thread count. `--validate <path>` checks an
//! emitted file for JSON well-formedness in-process and exits.

use std::fmt::Write as _;
use std::path::PathBuf;

use ballfit_bench::{results_path, validate_and_exit, Parallelism};

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::grouping::group_boundaries;
use ballfit::landmarks::elect_landmarks;
use ballfit::protocols::{
    run_grouping_protocol, run_hardened_grouping, run_hardened_iff, run_hardened_ubf,
    run_iff_protocol, run_landmark_protocol, run_ubf_protocol, Backoff,
};
use ballfit::view::NetView;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::Trace;
use ballfit_wsn::faults::FaultPlan;
use ballfit_wsn::flood::fragment_sizes;
use ballfit_wsn::NodeId;

/// Number of times each hardened-flood forward is transmitted.
const FLOOD_REPEATS: u32 = 8;

struct Grid {
    losses: Vec<f64>,
    crash_fractions: Vec<f64>,
    seeds: Vec<u64>,
}

fn reference_model(smoke: bool) -> NetworkModel {
    let (surface, interior, degree, seed) =
        if smoke { (80, 100, 12.0, 7) } else { (200, 300, 14.0, 77) };
    NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(degree)
        .seed(seed)
        .build()
        .expect("reference model generates")
}

fn grid(smoke: bool) -> Grid {
    if smoke {
        Grid { losses: vec![0.0, 0.1], crash_fractions: vec![0.0, 0.05], seeds: vec![1] }
    } else {
        Grid {
            losses: vec![0.0, 0.05, 0.1, 0.2, 0.3],
            crash_fractions: vec![0.0, 0.05, 0.1],
            seeds: vec![1, 2, 3],
        }
    }
}

/// `(missing_rate, mistaken_rate)` of `got` vs `want`, restricted to
/// nodes where `alive` holds. `None` when a denominator is empty.
fn boundary_rates(want: &[bool], got: &[bool], alive: &[bool]) -> (Option<f64>, Option<f64>) {
    let (mut pos, mut neg, mut missing, mut mistaken) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..want.len() {
        if !alive[i] {
            continue;
        }
        if want[i] {
            pos += 1;
            if !got[i] {
                missing += 1;
            }
        } else {
            neg += 1;
            if got[i] {
                mistaken += 1;
            }
        }
    }
    let rate = |num: usize, den: usize| (den > 0).then(|| num as f64 / den as f64);
    (rate(missing, pos), rate(mistaken, neg))
}

fn json_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

struct CellResult {
    loss: f64,
    crash_fraction: f64,
    seed: u64,
    crashed: usize,
    ubf_ok: bool,
    ubf_missing: Option<f64>,
    ubf_mistaken: Option<f64>,
    ubf_overhead: Option<f64>,
    iff_missing: Option<f64>,
    iff_mistaken: Option<f64>,
    iff_overhead: Option<f64>,
    grouping_ok: bool,
    grouping_agreement: Option<f64>,
    grouping_overhead: Option<f64>,
    landmark_converged: bool,
    landmark_jaccard: Option<f64>,
    dropped: u64,
    crash_lost: u64,
}

fn run_cell(
    model: &NetworkModel,
    cfg: &DetectorConfig,
    central: &ballfit::detector::BoundaryDetection,
    baseline: &Baseline,
    loss: f64,
    crash_fraction: f64,
    seed: u64,
) -> CellResult {
    let n = model.len();
    let topo = model.topology();
    let retry = Backoff::default();
    // Duplication and delay ride along with loss (the "misbehaving
    // radio" axis); the crash axis stays pure so the (0, 0) cell is a
    // clean baseline.
    let plan = FaultPlan::lossy(seed, loss)
        .with_duplication(if loss > 0.0 { 0.05 } else { 0.0 })
        .with_max_delay(u32::from(loss > 0.0))
        .with_random_crashes(n, crash_fraction, 1, None);
    let mut alive = vec![true; n];
    for c in &plan.crashes {
        if c.node < n {
            alive[c.node] = false;
        }
    }
    let crashed = alive.iter().filter(|a| !**a).count();
    let off = &mut Trace::disabled();

    // Phase 1: hardened UBF.
    let view = NetView::from_model(model);
    let ubf = run_hardened_ubf(&view, &cfg.ubf, &cfg.coordinates, retry, &plan, off);
    let (ubf_ok, ubf_flags, ubf_msgs) = match ubf {
        Ok((flags, stats)) => (true, flags, Some(stats.messages)),
        Err(_) => (false, vec![false; n], None),
    };
    let (ubf_missing, ubf_mistaken) =
        if ubf_ok { boundary_rates(&central.candidates, &ubf_flags, &alive) } else { (None, None) };

    // Phase 2: hardened IFF flood over the centralized candidate set (so
    // the flood's own degradation is measured in isolation).
    let candidates = &central.candidates;
    let (sizes, stats) = run_hardened_iff(topo, candidates, cfg.iff.ttl, FLOOD_REPEATS, &plan, off)
        .expect("hardened flood quiesces");
    let via_flood: Vec<bool> = (0..n).map(|i| candidates[i] && sizes[i] >= cfg.iff.theta).collect();
    let (iff_missing, iff_mistaken) = boundary_rates(&central.boundary, &via_flood, &alive);
    let (dropped, crash_lost) = (stats.faults.dropped, stats.faults.crash_lost);
    let iff_msgs = stats.messages;

    // Phase 3: hardened grouping over the centralized boundary.
    let grouping = run_hardened_grouping(topo, &central.boundary, retry, &plan, off);
    let (grouping_ok, grouping_agreement, grouping_msgs) = match grouping {
        Ok((labels, stats)) => {
            let groups = group_boundaries(topo, &central.boundary);
            let (mut members, mut agree) = (0usize, 0usize);
            for group in &groups {
                for &m in group {
                    if alive[m] {
                        members += 1;
                        if labels[m] == Some(group[0]) {
                            agree += 1;
                        }
                    }
                }
            }
            let agreement = (members > 0).then(|| agree as f64 / members as f64);
            (true, agreement, Some(stats.messages))
        }
        Err(_) => (false, None, None),
    };

    // Phase 4: landmark election on the largest boundary group.
    let groups = group_boundaries(topo, &central.boundary);
    let (landmark_converged, landmark_jaccard) = match groups.first() {
        Some(group) if group.len() >= 4 => {
            match run_landmark_protocol(topo, group, 3, &plan, off) {
                Ok((elected, _)) => {
                    let reference = elect_landmarks(topo, group, 3);
                    let e: std::collections::BTreeSet<NodeId> = elected.into_iter().collect();
                    let r: std::collections::BTreeSet<NodeId> = reference.into_iter().collect();
                    let inter = e.intersection(&r).count();
                    let union = e.union(&r).count();
                    let jaccard = (union > 0).then(|| inter as f64 / union as f64);
                    (true, jaccard)
                }
                Err(_) => (false, None),
            }
        }
        _ => (true, None),
    };

    let overhead =
        |msgs: Option<u64>, base: u64| msgs.filter(|_| base > 0).map(|m| m as f64 / base as f64);
    CellResult {
        loss,
        crash_fraction,
        seed,
        crashed,
        ubf_ok,
        ubf_missing,
        ubf_mistaken,
        ubf_overhead: overhead(ubf_msgs, baseline.ubf_msgs),
        iff_missing,
        iff_mistaken,
        iff_overhead: overhead(Some(iff_msgs), baseline.iff_msgs),
        grouping_ok,
        grouping_agreement,
        grouping_overhead: overhead(grouping_msgs, baseline.grouping_msgs),
        landmark_converged,
        landmark_jaccard,
        dropped,
        crash_lost,
    }
}

struct Baseline {
    ubf_msgs: u64,
    iff_msgs: u64,
    grouping_msgs: u64,
}

/// Fault-free plain-protocol baseline. With an enabled `trace` the
/// three runs land in `"ubf"` / `"iff"` / `"grouping"` spans — the
/// `--trace` export that `obs::summary` rolls into per-protocol tables.
fn baseline(
    model: &NetworkModel,
    cfg: &DetectorConfig,
    central: &ballfit::detector::BoundaryDetection,
    trace: &mut Trace,
) -> Baseline {
    let topo = model.topology();
    let (_, ubf) = run_ubf_protocol(&NetView::from_model(model), &cfg.coordinates, trace)
        .expect("perfect radio quiesces");
    let candidates = &central.candidates;
    let (sizes, iff) =
        run_iff_protocol(topo, candidates, cfg.iff.ttl, trace).expect("perfect radio quiesces");
    assert_eq!(
        sizes,
        fragment_sizes(topo, cfg.iff.ttl, |i| candidates[i]),
        "flood baseline self-check"
    );
    let (_, grouping) =
        run_grouping_protocol(topo, &central.boundary, trace).expect("perfect radio quiesces");
    Baseline { ubf_msgs: ubf.messages, iff_msgs: iff.messages, grouping_msgs: grouping.messages }
}

fn main() {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out requires a path"))),
            "--trace" => {
                trace_out = Some(PathBuf::from(args.next().expect("--trace requires a path")));
            }
            "--threads" => {
                let n = args.next().expect("--threads requires a count");
                threads = Some(n.parse().expect("--threads requires a positive integer"));
            }
            "--validate" => {
                let path = PathBuf::from(args.next().expect("--validate requires a path"));
                validate_and_exit(&path, false);
            }
            other => panic!(
                "unknown argument {other} (expected --smoke / --out <path> / --trace <path> / \
                 --threads <n> / --validate <path>)"
            ),
        }
    }
    let parallelism = threads.map(Parallelism::threads).unwrap_or_default();

    let model = reference_model(smoke);
    let cfg = DetectorConfig::paper(10, 3);
    let central = BoundaryDetector::new(cfg).with_parallelism(parallelism).detect(&model);
    let mut trace = if trace_out.is_some() { Trace::enabled() } else { Trace::disabled() };
    let base = baseline(&model, &cfg, &central, &mut trace);
    if let Some(tp) = &trace_out {
        trace.write_jsonl(tp).expect("trace JSONL is writable");
        println!("wrote trace {}", tp.display());
    }
    let grid = grid(smoke);
    let mut params = Vec::new();
    for &loss in &grid.losses {
        for &crash_fraction in &grid.crash_fractions {
            for &seed in &grid.seeds {
                params.push((loss, crash_fraction, seed));
            }
        }
    }
    eprintln!(
        "robustness sweep: {} nodes, {} cells, {} thread(s){}",
        model.len(),
        params.len(),
        parallelism.get(),
        if smoke { " (smoke)" } else { "" }
    );

    // Each cell is self-contained (per-cell fault PRNGs), so the grid
    // shards over workers; the collected order is the grid order, keeping
    // the emitted JSON byte-identical at every thread count.
    let cells = ballfit_par::par_map(parallelism, &params, |&(loss, crash_fraction, seed)| {
        run_cell(&model, &cfg, &central, &base, loss, crash_fraction, seed)
    });
    for cell in &cells {
        eprintln!(
            "  loss={:>4} crash={:>4} seed={}: \
             ubf miss={} mist={}, iff miss={}, grouping agree={}, landmark J={}",
            cell.loss,
            cell.crash_fraction,
            cell.seed,
            json_opt(cell.ubf_missing),
            json_opt(cell.ubf_mistaken),
            json_opt(cell.iff_missing),
            json_opt(cell.grouping_agreement),
            json_opt(cell.landmark_jaccard),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"experiment\": \"E15-robustness\", \"smoke\": {smoke}, \
         \"nodes\": {}, \"edges\": {}, \"duplication\": 0.05, \"max_delay\": 1, \
         \"flood_repeats\": {FLOOD_REPEATS}}},",
        model.len(),
        model.topology().edge_count()
    );
    let _ = writeln!(
        json,
        "  \"baseline_messages\": {{\"ubf\": {}, \"iff\": {}, \"grouping\": {}}},",
        base.ubf_msgs, base.iff_msgs, base.grouping_msgs
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"loss\": {}, \"crash_fraction\": {}, \"seed\": {}, \"crashed\": {}, \
             \"ubf\": {{\"ok\": {}, \"missing\": {}, \"mistaken\": {}, \"overhead\": {}}}, \
             \"iff\": {{\"missing\": {}, \"mistaken\": {}, \"overhead\": {}}}, \
             \"grouping\": {{\"ok\": {}, \"agreement\": {}, \"overhead\": {}}}, \
             \"landmark\": {{\"converged\": {}, \"jaccard\": {}}}, \
             \"faults\": {{\"dropped\": {}, \"crash_lost\": {}}}}}",
            c.loss,
            c.crash_fraction,
            c.seed,
            c.crashed,
            c.ubf_ok,
            json_opt(c.ubf_missing),
            json_opt(c.ubf_mistaken),
            json_opt(c.ubf_overhead),
            json_opt(c.iff_missing),
            json_opt(c.iff_mistaken),
            json_opt(c.iff_overhead),
            c.grouping_ok,
            json_opt(c.grouping_agreement),
            json_opt(c.grouping_overhead),
            c.landmark_converged,
            json_opt(c.landmark_jaccard),
            c.dropped,
            c.crash_lost,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = results_path(out, "robustness_sweep.json");
    std::fs::write(&path, &json).expect("sweep JSON is writable");
    println!("wrote {}", path.display());
}
