//! E18 — measured per-node cost profile vs density ρ.
//!
//! The paper's efficiency statements are asymptotic: Lemma 1 bounds the
//! candidate balls a node may test by the cube of its neighborhood size,
//! Theorem 1 tightens the *expected* work to Θ(ρ²) for constant-density
//! deployments, and the protocol analysis claims per-node message
//! overhead linear in ρ (one table broadcast per node for UBF, scoped
//! flooding for IFF, monotone label flooding for grouping). This
//! experiment measures all of those counts with the `ballfit-obs`
//! tracing subsystem instead of trusting hand-derived numbers:
//!
//! * Fixed-shape networks (SolidSphere, constant node count) are built
//!   at a ladder of target densities ρ.
//! * Each rung runs the traced detector plus the traced UBF / IFF /
//!   grouping protocol executions into one trace; `obs::summary` rolls
//!   the trace into per-protocol msgs/node, bytes/node and
//!   ball-tests/node.
//! * Log-log least-squares fits of those per-node counts against the
//!   *measured* mean degree estimate the growth exponents, which the
//!   JSON reports next to the claimed Θ(ρ²) (expected) and O(ρ³)
//!   (worst-case) targets.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin cost_profile             # full ladder
//! cargo run --release -p ballfit-bench --bin cost_profile -- --smoke  # 2 rungs, small net
//! cargo run --release -p ballfit-bench --bin cost_profile -- --trace t.jsonl --smoke
//! cargo run --release -p ballfit-bench --bin cost_profile -- --validate out.json
//! cargo run --release -p ballfit-bench --bin cost_profile -- --validate t.jsonl
//! ```
//!
//! Results land in `$BALLFIT_RESULTS/cost_profile.json` (or `results/`);
//! `--trace` additionally writes the concatenated per-rung JSONL traces
//! (deterministic byte-for-byte, which `scripts/check.sh` pins with a
//! `trace_diff` self-compare).

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::protocols::{run_grouping_protocol, run_iff_protocol, run_ubf_protocol};
use ballfit::view::NetView;
use ballfit_bench::{fixed, loglog_slope, Args};
use ballfit_json::{arr, obj};
use ballfit_netgen::builder::{NetworkBuilder, Placement};
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::summary::summarize;
use ballfit_obs::Trace;

/// Target-degree ladder of the full run (fixed shape, varying density).
const DEGREE_LADDER: [f64; 6] = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0];

/// Reduced ladder for the smoke gate.
const SMOKE_LADDER: [f64; 2] = [10.0, 14.0];

/// Network seed (matches the E15 reference model family).
const SEED: u64 = 77;

/// Node count of the at-scale re-fit (5 000 under `--smoke`): the small
/// fixed-shape ladder above measures exponents at a few hundred nodes,
/// where boundary effects are large; this section re-fits the Theorem-1
/// ball-test exponent at 10⁵ nodes on the flat-CSR storage.
const AT_SCALE_N: usize = 100_000;

/// Degree calibration happens at this node count, then the range is
/// scaled by (cal/n)^(1/3) to hold density in the fixed volume.
const AT_SCALE_CAL_N: usize = 2_000;

struct Row {
    target_degree: f64,
    mean_degree: f64,
    nodes: usize,
    edges: usize,
    ball_tests_per_node: f64,
    ubf_msgs_per_node: f64,
    ubf_bytes_per_node: f64,
    iff_msgs_per_node: f64,
    grouping_msgs_per_node: f64,
}

fn build(density: f64, smoke: bool) -> NetworkModel {
    let (surface, interior) = if smoke { (70, 110) } else { (200, 300) };
    NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(density)
        .seed(SEED)
        .build()
        .unwrap_or_else(|e| panic!("cost-profile network at degree {density} failed: {e}"))
}

/// Runs the traced pipeline + protocols on one rung and rolls the trace
/// up. Returns the row plus the rung's JSONL trace.
fn profile(density: f64, smoke: bool) -> (Row, String) {
    let model = build(density, smoke);
    let n = model.len();
    let edges = model.topology().edge_count();
    let cfg = DetectorConfig::default();
    let mut trace = Trace::enabled();

    // Centralized-equivalent detection: ball-test counts per node.
    let view = NetView::from_model(&model);
    let detection = BoundaryDetector::new(cfg).detect_view_traced(&view, &mut trace);

    // Message-passing executions: UBF table exchange, IFF scoped
    // flooding over the candidates, min-label grouping over the final
    // boundary. The runner spans reuse the detector's phase names, so
    // each summary row carries both the computation and the traffic.
    run_ubf_protocol(&view, &cfg.coordinates, &mut trace).expect("perfect radio quiesces");
    run_iff_protocol(model.topology(), &detection.candidates, cfg.iff.ttl, &mut trace)
        .expect("IFF flood quiesces on a perfect radio");
    run_grouping_protocol(model.topology(), &detection.boundary, &mut trace)
        .expect("perfect radio quiesces");

    let summary = summarize(trace.records());
    let per_node = |name: &str, field: fn(&ballfit_obs::summary::ProtocolSummary) -> u64| {
        summary.get(name).map_or(0.0, |row| field(row) as f64 / n as f64)
    };
    let row = Row {
        target_degree: density,
        mean_degree: 2.0 * edges as f64 / n as f64,
        nodes: n,
        edges,
        ball_tests_per_node: per_node("ubf", |r| r.ball_tests),
        ubf_msgs_per_node: per_node("ubf", |r| r.messages),
        ubf_bytes_per_node: per_node("ubf", |r| r.bytes),
        iff_msgs_per_node: per_node("iff", |r| r.messages),
        grouping_msgs_per_node: per_node("grouping", |r| r.messages),
    };
    (row, trace.to_jsonl())
}

/// One rung of the at-scale section: untraced detection only (protocol
/// simulators at 10⁵ nodes would dominate the runtime without changing
/// the exponent being measured — ball tests are counted by the detector
/// itself).
struct ScaleRow {
    target_degree: f64,
    mean_degree: f64,
    nodes: usize,
    edges: usize,
    ball_tests_per_node: f64,
}

fn profile_at_scale(density: f64, smoke: bool) -> ScaleRow {
    let n = if smoke { 5_000 } else { AT_SCALE_N };
    let surface_of = |total: usize| -> usize {
        let cal_surface = 2 * AT_SCALE_CAL_N / 5;
        let s = cal_surface as f64 * (total as f64 / AT_SCALE_CAL_N as f64).powf(2.0 / 3.0);
        (s.round() as usize).min(total - 1).max(1)
    };
    // Calibrate the range at a tractable size, then scale it down as
    // n^(-1/3). Uniform placement: blue-noise pool thinning at 10⁵ nodes
    // is infeasible and irrelevant to the exponent.
    let build = |total: usize, range: Option<f64>| -> NetworkModel {
        let surface = surface_of(total);
        let builder = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(surface)
            .interior_nodes(total - surface)
            .placement(Placement::Uniform)
            .require_connected(false)
            .seed(SEED);
        match range {
            Some(r) => builder.radio_range(r),
            None => builder.target_degree(density),
        }
        .build()
        .unwrap_or_else(|e| panic!("at-scale network at degree {density} failed: {e}"))
    };
    let cal = build(AT_SCALE_CAL_N, None);
    let range = cal.radio_range() * (AT_SCALE_CAL_N as f64 / n as f64).powf(1.0 / 3.0);
    let model = build(n, Some(range));
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    let edges = model.topology().edge_count();
    ScaleRow {
        target_degree: density,
        mean_degree: 2.0 * edges as f64 / n as f64,
        nodes: n,
        edges,
        ball_tests_per_node: detection.balls_tested as f64 / n as f64,
    }
}

fn main() {
    let args = Args::from_env("--smoke --out <path> --trace <path> --validate <path>");
    let smoke = args.has("--smoke");

    let ladder: &[f64] = if smoke { &SMOKE_LADDER } else { &DEGREE_LADDER };
    eprintln!("cost profile: degree ladder {ladder:?}{}", if smoke { " (smoke)" } else { "" });
    let mut rows = Vec::new();
    let mut traces = String::new();
    for &density in ladder {
        let (row, jsonl) = profile(density, smoke);
        eprintln!(
            "  rho={:>4.1}: measured degree {:.2}, {:.1} ball tests/node, {:.1} UBF msgs/node",
            row.target_degree, row.mean_degree, row.ball_tests_per_node, row.ubf_msgs_per_node
        );
        traces.push_str(&jsonl);
        rows.push(row);
    }

    let pick = |f: fn(&Row) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|r| (r.mean_degree, f(r))).collect()
    };
    let ball_slope = loglog_slope(&pick(|r| r.ball_tests_per_node));
    let ubf_msg_slope = loglog_slope(&pick(|r| r.ubf_msgs_per_node));
    let ubf_byte_slope = loglog_slope(&pick(|r| r.ubf_bytes_per_node));

    eprintln!(
        "at-scale re-fit: degree ladder {ladder:?} at n={}",
        if smoke { 5_000 } else { AT_SCALE_N }
    );
    let mut scale_rows = Vec::new();
    for &density in ladder {
        let row = profile_at_scale(density, smoke);
        eprintln!(
            "  rho={:>4.1}: measured degree {:.2}, {:.1} ball tests/node (n={})",
            row.target_degree, row.mean_degree, row.ball_tests_per_node, row.nodes
        );
        scale_rows.push(row);
    }
    let at_scale_points: Vec<(f64, f64)> =
        scale_rows.iter().map(|r| (r.mean_degree, r.ball_tests_per_node)).collect();
    let at_scale_ball_slope = loglog_slope(&at_scale_points);

    let rows = rows.iter().map(|r| {
        obj([
            ("target_degree", fixed(r.target_degree, 1)),
            ("mean_degree", fixed(r.mean_degree, 4)),
            ("nodes", r.nodes.into()),
            ("edges", r.edges.into()),
            ("ball_tests_per_node", fixed(r.ball_tests_per_node, 4)),
            ("ubf_msgs_per_node", fixed(r.ubf_msgs_per_node, 4)),
            ("ubf_bytes_per_node", fixed(r.ubf_bytes_per_node, 4)),
            ("iff_msgs_per_node", fixed(r.iff_msgs_per_node, 4)),
            ("grouping_msgs_per_node", fixed(r.grouping_msgs_per_node, 4)),
        ])
    });
    let scale_rows = scale_rows.iter().map(|r| {
        obj([
            ("target_degree", fixed(r.target_degree, 1)),
            ("mean_degree", fixed(r.mean_degree, 4)),
            ("nodes", r.nodes.into()),
            ("edges", r.edges.into()),
            ("ball_tests_per_node", fixed(r.ball_tests_per_node, 4)),
        ])
    });
    let claims = obj([
        ("ball_tests_expected", "Theta(rho^2)".into()),
        ("ball_tests_worst_case", "O(rho^3)".into()),
        ("ubf_msgs", "Theta(rho)".into()),
    ]);
    let meta = obj([
        ("experiment", "E18-cost-profile".into()),
        ("smoke", smoke.into()),
        ("scenario", "SolidSphere".into()),
        ("seed", SEED.into()),
        ("claims", claims),
    ]);
    let at_scale = obj([
        ("rows", arr(scale_rows)),
        ("fits", obj([("ball_tests_loglog_slope", fixed(at_scale_ball_slope, 4))])),
    ]);
    let fits = obj([
        ("ball_tests_loglog_slope", fixed(ball_slope, 4)),
        ("ubf_msgs_loglog_slope", fixed(ubf_msg_slope, 4)),
        ("ubf_bytes_loglog_slope", fixed(ubf_byte_slope, 4)),
    ]);
    let doc = obj([("meta", meta), ("rows", arr(rows)), ("at_scale", at_scale), ("fits", fits)]);
    args.write_artifact("cost_profile.json", &doc);
    println!(
        "measured exponents: ball tests/node ~ rho^{ball_slope:.2}, \
         UBF msgs/node ~ rho^{ubf_msg_slope:.2}, UBF bytes/node ~ rho^{ubf_byte_slope:.2}; \
         at scale: ball tests/node ~ rho^{at_scale_ball_slope:.2}"
    );
    if let Some(tp) = args.value("--trace") {
        std::fs::write(tp, &traces).expect("trace JSONL is writable");
        println!("wrote trace {tp}");
    }
}
