//! E21 — wall-time and memory scaling of the CSR pipeline, 10³ → 10⁶.
//!
//! The flat-CSR refactor of the topology storage claims near-linear
//! end-to-end scaling: one contiguous `u32` arena instead of a million
//! heap-allocated neighbor `Vec`s, struct-of-arrays positions, and
//! two-pass grid→CSR construction whose peak memory is the final arena.
//! This experiment measures that claim directly instead of trusting it:
//!
//! * A node-count ladder (10³, 10⁴, 10⁵, 10⁶) is run on two gallery
//!   shapes (SolidSphere and SpaceOneHole) at fixed expected density:
//!   surface nodes scale as n^(2/3), the radio range is calibrated once
//!   at the 10³ base rung (target degree 18.5) and scaled by
//!   (n₀/n)^(1/3) so degree stays roughly constant in the fixed volume.
//! * Every rung runs in a **fresh subprocess** (re-invoking this binary
//!   with `--rung <scenario> <n>`) so `VmHWM` in `/proc/self/status` is
//!   that rung's true peak RSS, not the high-water mark of whatever rung
//!   ran before it.
//! * Per rung: generation + detection wall time, peak RSS, measured mean
//!   degree, CSR arena size, boundary/group counts, Theorem-1 ball-test
//!   totals. Log-log fits of wall time and RSS against n estimate the
//!   scaling exponents (acceptance: wall-time exponent ≤ ~1.15).
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin scale_ladder              # full ladder
//! cargo run --release -p ballfit-bench --bin scale_ladder -- --smoke   # 2 small rungs
//! cargo run --release -p ballfit-bench --bin scale_ladder -- --smoke --deterministic
//! cargo run --release -p ballfit-bench --bin scale_ladder -- --validate out.json
//! ```
//!
//! Results land in `$BALLFIT_RESULTS/scale_ladder.json` (or `results/`).
//! `--deterministic` zeroes the measured wall/RSS fields (and their fits)
//! so `scripts/check.sh` can pin two runs byte-identical; everything else
//! in the report — structure, degrees, boundary counts, ball tests — is
//! deterministic by construction.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit_bench::{loglog_slope, results_path, validate_and_exit};
use ballfit_netgen::builder::{NetworkBuilder, Placement};
use ballfit_netgen::scenario::Scenario;

/// Node-count ladder of the full run.
const LADDER: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Reduced ladder for the smoke gate.
const SMOKE_LADDER: [usize; 2] = [1_000, 2_000];

/// Shapes measured (one convex gallery shape, one with an inner hole).
const SCENARIOS: [Scenario; 2] = [Scenario::SolidSphere, Scenario::SpaceOneHole];

/// Network seed family (per-scenario offset keeps clouds independent).
const SEED: u64 = 911;

/// Paper density target, calibrated once at the base rung.
const TARGET_DEGREE: f64 = 18.5;

/// Anchor for the surface-node count; scales as n^(2/3) (area vs volume).
const BASE_N: usize = 1_000;

/// Surface nodes at the anchor; scales as n^(2/3).
const BASE_SURFACE: usize = 140;

/// Degree calibration happens at this node count; other rungs scale the
/// calibrated range by (CAL_N / n)^(1/3). Calibrating mid-ladder (rather
/// than at 10³) centers the finite-size degree drift — smaller rungs
/// lose a little degree to boundary deficit, larger rungs gain a little
/// as the deficit shrinks — so the 10⁶ rung stays near nominal density
/// instead of 35% above it.
const CAL_N: usize = 10_000;

fn surface_nodes(n: usize) -> usize {
    let s = BASE_SURFACE as f64 * (n as f64 / BASE_N as f64).powf(2.0 / 3.0);
    (s.round() as usize).min(n - 1).max(1)
}

fn seed_for(scenario: Scenario) -> u64 {
    SEED + SCENARIOS.iter().position(|&s| s == scenario).expect("ladder scenario") as u64
}

/// Radio range for a rung: calibrate the [`CAL_N`] rung to the paper's
/// target degree, then scale as n^(-1/3) to hold density in the fixed
/// volume.
fn rung_range(scenario: Scenario, n: usize) -> f64 {
    let cal = NetworkBuilder::new(scenario)
        .surface_nodes(surface_nodes(CAL_N))
        .interior_nodes(CAL_N - surface_nodes(CAL_N))
        .target_degree(TARGET_DEGREE)
        .placement(Placement::Uniform)
        .require_connected(false)
        .seed(seed_for(scenario))
        .build()
        .expect("calibration rung builds");
    cal.radio_range() * (CAL_N as f64 / n as f64).powf(1.0 / 3.0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Runs one rung in-process and prints its JSON row on stdout. Invoked in
/// a fresh subprocess per rung so peak RSS is per-rung.
fn run_rung(scenario: Scenario, n: usize, deterministic: bool) {
    let surface = surface_nodes(n);
    let range = rung_range(scenario, n);

    let t0 = Instant::now();
    let model = NetworkBuilder::new(scenario)
        .surface_nodes(surface)
        .interior_nodes(n - surface)
        .radio_range(range)
        .placement(Placement::Uniform)
        .require_connected(false)
        .seed(seed_for(scenario))
        .build()
        .expect("rung builds");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    let detect_ms = t1.elapsed().as_secs_f64() * 1e3;

    let topo = model.topology();
    let boundary = detection.boundary.iter().filter(|&&b| b).count();
    let candidates = detection.candidates.iter().filter(|&&b| b).count();
    let (build_ms, detect_ms, rss) =
        if deterministic { (0.0, 0.0, 0.0) } else { (build_ms, detect_ms, peak_rss_mb()) };
    println!(
        "{{\"scenario\": \"{}\", \"n\": {}, \"surface_nodes\": {}, \"interior_nodes\": {}, \
         \"radio_range\": {:.6}, \"mean_degree\": {:.4}, \"edges\": {}, \"arena_slots\": {}, \
         \"candidates\": {}, \"boundary_nodes\": {}, \"groups\": {}, \"balls_tested\": {}, \
         \"build_wall_ms\": {:.2}, \"detect_wall_ms\": {:.2}, \"total_wall_ms\": {:.2}, \
         \"peak_rss_mb\": {:.2}}}",
        scenario.name(),
        n,
        surface,
        n - surface,
        range,
        topo.degree_stats().mean,
        topo.edge_count(),
        topo.arena_slots(),
        candidates,
        boundary,
        detection.groups.len(),
        detection.balls_tested,
        build_ms,
        detect_ms,
        build_ms + detect_ms,
        rss,
    );
}

fn main() {
    let mut smoke = false;
    let mut deterministic = false;
    let mut out: Option<PathBuf> = None;
    let mut rung: Option<(Scenario, usize)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--deterministic" => deterministic = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out requires a path"))),
            "--rung" => {
                let name = args.next().expect("--rung requires a scenario name");
                let scenario =
                    Scenario::by_name(&name).unwrap_or_else(|| panic!("unknown scenario {name:?}"));
                let n: usize =
                    args.next().expect("--rung requires a node count").parse().expect("usize");
                rung = Some((scenario, n));
            }
            "--validate" => {
                let path = PathBuf::from(args.next().expect("--validate requires a path"));
                validate_and_exit(&path, false);
            }
            other => panic!(
                "unknown argument {other} (expected --smoke / --deterministic / --out <path> / \
                 --rung <scenario> <n> / --validate <path>)"
            ),
        }
    }

    if let Some((scenario, n)) = rung {
        run_rung(scenario, n, deterministic);
        return;
    }

    let ladder: &[usize] = if smoke { &SMOKE_LADDER } else { &LADDER };
    let exe = std::env::current_exe().expect("own binary path");
    eprintln!(
        "scale ladder: n in {ladder:?} on {:?}{}",
        SCENARIOS.map(|s| s.name()),
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<String> = Vec::new();
    let mut fits = String::new();
    for (si, &scenario) in SCENARIOS.iter().enumerate() {
        let mut wall_points = Vec::new();
        let mut rss_points = Vec::new();
        for &n in ladder {
            let mut cmd = Command::new(&exe);
            cmd.arg("--rung").arg(scenario.name()).arg(n.to_string());
            if deterministic {
                cmd.arg("--deterministic");
            }
            let output = cmd.output().expect("rung subprocess spawns");
            assert!(
                output.status.success(),
                "rung {} n={n} failed: {}",
                scenario.name(),
                String::from_utf8_lossy(&output.stderr)
            );
            let row = String::from_utf8(output.stdout).expect("utf8 row");
            let row = row.trim().to_string();
            let parsed = ballfit_json::parse(&row).unwrap_or_else(|e| panic!("bad row {row}: {e}"));
            let field = |key: &str| {
                parsed
                    .get(key)
                    .and_then(ballfit_json::JsonValue::as_f64)
                    .unwrap_or_else(|| panic!("row missing number {key}: {row}"))
            };
            eprintln!(
                "  {} n={n}: degree {:.2}, {} boundary nodes, {:.0} ms, {:.0} MB peak",
                scenario.name(),
                field("mean_degree"),
                field("boundary_nodes"),
                field("total_wall_ms"),
                field("peak_rss_mb"),
            );
            wall_points.push((n as f64, field("total_wall_ms")));
            rss_points.push((n as f64, field("peak_rss_mb")));
            rows.push(row);
        }
        let (wall_slope, rss_slope) = if deterministic {
            (0.0, 0.0)
        } else {
            (loglog_slope(&wall_points), loglog_slope(&rss_points))
        };
        let _ = write!(
            fits,
            "\"{0}_wall_loglog_slope\": {1:.4}, \"{0}_rss_loglog_slope\": {2:.4}",
            scenario.name(),
            wall_slope,
            rss_slope
        );
        if si + 1 < SCENARIOS.len() {
            fits.push_str(", ");
        }
        if !deterministic {
            eprintln!(
                "  {}: wall ~ n^{wall_slope:.2}, peak RSS ~ n^{rss_slope:.2}",
                scenario.name()
            );
        }
    }

    let mut doc = String::new();
    doc.push_str("{\n");
    let _ = writeln!(
        doc,
        "  \"meta\": {{\"experiment\": \"E21-scale-ladder\", \"smoke\": {smoke}, \
         \"deterministic\": {deterministic}, \"seed\": {SEED}, \
         \"target_degree\": {TARGET_DEGREE}, \"base_rung\": {BASE_N}, \
         \"scenarios\": [\"sphere\", \"one_hole\"]}},"
    );
    doc.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(doc, "    {row}");
        doc.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ],\n");
    let _ = writeln!(doc, "  \"fits\": {{{fits}}}");
    doc.push_str("}\n");

    let path = results_path(out, "scale_ladder.json");
    std::fs::write(&path, &doc).expect("scale-ladder JSON is writable");
    println!("wrote {}", path.display());
}
