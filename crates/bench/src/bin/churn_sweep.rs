//! E16 — churn sweep: incremental boundary maintenance vs from-scratch
//! re-detection on dynamic networks.
//!
//! For every `(scenario, churn rate, seed)` cell the sweep drives a seeded
//! `ChurnPlan` (equal per-epoch join/leave/drift rates) through a
//! `ChurnDriver`, and after *every* event repairs an `IncrementalDetector`
//! while also timing a full `detect_view` on the same topology. Exactness
//! of the incremental state (boundary flags and grouping) is asserted on
//! each event — the timing comparison is only meaningful because the two
//! computations produce identical results. Reported per cell: the
//! incremental-vs-full wall-clock ratio distribution (p10/median/p90),
//! the dirty-halo size distribution (p50/p90/max), and mean per-event
//! costs. A final hole-cycle phase heals the one-hole scenario's interior
//! void with a lattice of filler joins (boundary groups 2 → 1) and carves
//! it back open by removing them (→ 2), tracking boundary-accuracy
//! stability. Results are written as a JSON artifact into
//! `$BALLFIT_RESULTS` or `results/`.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin churn_sweep            # full grid
//! cargo run --release -p ballfit-bench --bin churn_sweep -- --smoke # CI smoke run
//! cargo run --release -p ballfit-bench --bin churn_sweep -- --validate out.json
//! ```
//!
//! Grid cells run in parallel (`--threads N` / `BALLFIT_THREADS`, default
//! all cores) and are collected in grid order. Inside a cell both sides
//! of the timing comparison run single-threaded, so the incremental-vs-
//! full ratios stay comparable across thread counts (and with earlier
//! single-threaded runs); only wall-clock fields vary between runs.
//! `--validate <path>` checks an emitted file for JSON well-formedness
//! in-process and exits.

use std::path::Path;
use std::time::Instant;

use ballfit_bench::{fixed, Args, Parallelism};
use ballfit_json::{arr, obj};

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::incremental::IncrementalDetector;
use ballfit::view::NetView;
use ballfit_geom::Vec3;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_wsn::churn::{ChurnPlan, DynamicTopology, TopologyEvent};

struct Grid {
    scenarios: Vec<Scenario>,
    rates: Vec<f64>,
    seeds: Vec<u64>,
    epochs: usize,
}

fn grid(smoke: bool) -> Grid {
    if smoke {
        Grid {
            scenarios: vec![Scenario::SolidSphere],
            rates: vec![0.02],
            seeds: vec![1],
            epochs: 3,
        }
    } else {
        Grid {
            scenarios: vec![Scenario::SolidSphere, Scenario::SpaceOneHole],
            rates: vec![0.01, 0.02, 0.05, 0.10],
            seeds: vec![1, 2, 3],
            epochs: 12,
        }
    }
}

fn reference_model(scenario: Scenario, smoke: bool) -> NetworkModel {
    // The full sphere is the acceptance configuration: 500 nodes.
    let (surface, interior, degree, seed) =
        if smoke { (80, 100, 12.0, 7) } else { (200, 300, 14.0, 77) };
    NetworkBuilder::new(scenario)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(degree)
        .require_connected(false)
        .seed(seed)
        .build()
        .expect("reference model generates")
}

fn scenario_name(s: Scenario) -> &'static str {
    match s {
        Scenario::SolidSphere => "SolidSphere",
        Scenario::SpaceOneHole => "SpaceOneHole",
        other => unreachable!("scenario {other:?} not part of E16"),
    }
}

/// p-th percentile (nearest-rank) of an unsorted sample.
fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

struct Cell {
    scenario: &'static str,
    rate: f64,
    seed: u64,
    events: usize,
    live_final: usize,
    speedup_p10: f64,
    speedup_median: f64,
    speedup_p90: f64,
    halo_p50: f64,
    halo_p90: f64,
    halo_max: f64,
    mean_inc_us: f64,
    mean_full_us: f64,
}

/// Asserts the incremental state equals a from-scratch run; returns the
/// full run's wall-clock seconds.
fn check_against_full(
    detector: &BoundaryDetector,
    inc: &IncrementalDetector,
    dynamic: &DynamicTopology,
) -> f64 {
    let view = NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range());
    let t0 = Instant::now();
    let full = detector.detect_view(&view);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(inc.boundary(), &full.boundary[..], "incremental boundary diverged from scratch");
    assert_eq!(inc.groups(), &full.groups[..], "incremental grouping diverged from scratch");
    dt
}

fn run_cell(
    scenario: Scenario,
    rate: f64,
    seed: u64,
    epochs: usize,
    model: &NetworkModel,
    config: DetectorConfig,
) -> Cell {
    let plan = ChurnPlan::none()
        .with_seed(seed)
        .with_epochs(epochs)
        .with_join_rate(rate)
        .with_leave_rate(rate)
        .with_move_rate(rate)
        .with_max_drift(0.5 * model.radio_range());
    let schedule = plan.schedule(model.len());
    let mut driver = ChurnDriver::new(model, seed ^ 0x9E37_79B9_7F4A_7C15);
    // Cells already run in parallel; keep both timed computations
    // single-threaded so the speedup ratios measure the algorithms, not
    // worker contention.
    let detector = BoundaryDetector::new(config).with_parallelism(Parallelism::sequential());
    let mut inc = IncrementalDetector::new_with_parallelism(
        config,
        driver.dynamic(),
        Parallelism::sequential(),
    );

    let mut speedups = Vec::with_capacity(schedule.len());
    let mut halos = Vec::with_capacity(schedule.len());
    let mut inc_times = Vec::with_capacity(schedule.len());
    let mut full_times = Vec::with_capacity(schedule.len());
    for ev in &schedule {
        let (_, delta) = driver.step(ev).expect("in-shape sampling never exhausts");
        let t0 = Instant::now();
        let diff = inc.apply(driver.dynamic(), &delta);
        let inc_dt = t0.elapsed().as_secs_f64();
        let full_dt = check_against_full(&detector, &inc, driver.dynamic());
        speedups.push(full_dt / inc_dt);
        halos.push(diff.halo.len() as f64);
        inc_times.push(inc_dt);
        full_times.push(full_dt);
    }

    Cell {
        scenario: scenario_name(scenario),
        rate,
        seed,
        events: schedule.len(),
        live_final: driver.dynamic().live_count(),
        speedup_p10: percentile(&speedups, 10.0),
        speedup_median: percentile(&speedups, 50.0),
        speedup_p90: percentile(&speedups, 90.0),
        halo_p50: percentile(&halos, 50.0),
        halo_p90: percentile(&halos, 90.0),
        halo_max: percentile(&halos, 100.0),
        mean_inc_us: mean(&inc_times) * 1e6,
        mean_full_us: mean(&full_times) * 1e6,
    }
}

struct HoleCycle {
    filler_nodes: usize,
    groups_initial: usize,
    groups_healed: usize,
    groups_reopened: usize,
    boundary_initial: usize,
    boundary_healed: usize,
    boundary_reopened: usize,
}

/// A one-hole model dense enough for the interior void to be detectable:
/// the 500-node sweep model's radio range (~2.5) exceeds the hole radius
/// (2), so the hole is invisible there. At 1150 nodes / degree 16 the
/// range drops to ~1.95 and detection reports two boundary groups.
fn hole_model(smoke: bool) -> NetworkModel {
    let (surface, interior, degree, seed) =
        if smoke { (80, 100, 12.0, 7) } else { (500, 650, 16.0, 77) };
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(degree)
        .require_connected(false)
        .seed(seed)
        .build()
        .expect("hole-cycle model generates")
}

/// The one-hole scenario's interior void is a radius-2 sphere at the
/// origin. Starting with the hole open (two boundary groups at full
/// size), *heal* it by joining a dense lattice of filler nodes inside the
/// void (the hole-boundary group dissolves), then *carve* it back open by
/// removing every filler — with exactness asserted after every event.
/// With an enabled `trace` every repair emits a `"churn-event"` span
/// with its dirty-halo size and boundary diff (the `--trace` export).
fn hole_cycle(
    model: &NetworkModel,
    config: DetectorConfig,
    trace: &mut ballfit_obs::Trace,
) -> HoleCycle {
    let mut dynamic = DynamicTopology::new(model.positions(), model.radio_range());
    let detector = BoundaryDetector::new(config);
    let mut inc = IncrementalDetector::new(config, &dynamic);
    let groups_initial = inc.groups().len();
    let boundary_initial = inc.detection().boundary_count();

    // Lattice of filler positions inside the void, spaced well under the
    // radio range so the filled region reads as solid interior.
    let spacing = 0.55 * model.radio_range();
    let hole_radius = 2.0;
    let mut fillers = Vec::new();
    let steps = (2.0 * hole_radius / spacing).ceil() as i64;
    for ix in -steps..=steps {
        for iy in -steps..=steps {
            for iz in -steps..=steps {
                let p = Vec3::new(ix as f64, iy as f64, iz as f64) * spacing;
                if p.norm() < hole_radius - 0.05 {
                    fillers.push(p);
                }
            }
        }
    }

    let first_filler = dynamic.len();
    for &p in &fillers {
        let delta = dynamic.apply(&TopologyEvent::Join { position: p });
        inc.apply_traced(&dynamic, &delta, trace);
        check_against_full(&detector, &inc, &dynamic);
    }
    let groups_healed = inc.groups().len();
    let boundary_healed = inc.detection().boundary_count();

    for slot in first_filler..dynamic.len() {
        let delta = dynamic.apply(&TopologyEvent::Leave { node: slot });
        inc.apply_traced(&dynamic, &delta, trace);
        check_against_full(&detector, &inc, &dynamic);
    }
    HoleCycle {
        filler_nodes: fillers.len(),
        groups_initial,
        groups_healed,
        groups_reopened: inc.groups().len(),
        boundary_initial,
        boundary_healed,
        boundary_reopened: inc.detection().boundary_count(),
    }
}

fn main() {
    let args =
        Args::from_env("--smoke --out <path> --trace <path> --threads <n> --validate <path>");
    let smoke = args.has("--smoke");
    let parallelism = args.parallelism();

    let config = DetectorConfig::default();
    let grid = grid(smoke);
    eprintln!(
        "churn sweep: {} cells, {} thread(s){}",
        grid.scenarios.len() * grid.rates.len() * grid.seeds.len(),
        parallelism.get(),
        if smoke { " (smoke)" } else { "" }
    );

    let models: Vec<(Scenario, NetworkModel)> =
        grid.scenarios.iter().map(|&s| (s, reference_model(s, smoke))).collect();
    let nodes = models.last().map_or(0, |(_, m)| m.len());
    let mut params = Vec::new();
    for (mi, _) in models.iter().enumerate() {
        for &rate in &grid.rates {
            for &seed in &grid.seeds {
                params.push((mi, rate, seed));
            }
        }
    }

    // Every cell drives its own seeded plan on its own dynamic topology,
    // so cells shard over workers; the collected order is the grid order.
    let cells = ballfit_par::par_map(parallelism, &params, |&(mi, rate, seed)| {
        let (scenario, model) = &models[mi];
        run_cell(*scenario, rate, seed, grid.epochs, model, config)
    });
    for ((mi, rate, seed), cell) in params.iter().zip(&cells) {
        eprintln!(
            "  {} rate={:>4} seed={}: {} events exact, speedup median {:.1}x \
             (p10 {:.1}x), halo p50 {:.0} of {} nodes",
            cell.scenario,
            rate,
            seed,
            cell.events,
            cell.speedup_median,
            cell.speedup_p10,
            cell.halo_p50,
            models[*mi].1.len(),
        );
    }

    eprintln!("  hole cycle (heal + re-carve the one-hole void)...");
    let hole = hole_model(smoke);
    let trace_out = args.value("--trace");
    let mut trace = if trace_out.is_some() {
        ballfit_obs::Trace::enabled()
    } else {
        ballfit_obs::Trace::disabled()
    };
    let cycle = hole_cycle(&hole, config, &mut trace);
    if let Some(tp) = trace_out {
        trace.write_jsonl(Path::new(tp)).expect("trace JSONL is writable");
        println!("wrote trace {tp}");
    }
    eprintln!(
        "  hole cycle: {} fillers, groups {} -> {} -> {}, boundary {} -> {} -> {}",
        cycle.filler_nodes,
        cycle.groups_initial,
        cycle.groups_healed,
        cycle.groups_reopened,
        cycle.boundary_initial,
        cycle.boundary_healed,
        cycle.boundary_reopened,
    );

    let cells = cells.iter().map(|c| {
        obj([
            ("scenario", c.scenario.into()),
            ("rate", c.rate.into()),
            ("seed", c.seed.into()),
            ("events", c.events.into()),
            ("live_final", c.live_final.into()),
            (
                "speedup",
                obj([
                    ("p10", fixed(c.speedup_p10, 3)),
                    ("median", fixed(c.speedup_median, 3)),
                    ("p90", fixed(c.speedup_p90, 3)),
                ]),
            ),
            (
                "halo",
                obj([
                    ("p50", c.halo_p50.into()),
                    ("p90", c.halo_p90.into()),
                    ("max", c.halo_max.into()),
                ]),
            ),
            (
                "mean_event_us",
                obj([("incremental", fixed(c.mean_inc_us, 1)), ("full", fixed(c.mean_full_us, 1))]),
            ),
        ])
    });
    let meta = obj([
        ("experiment", "E16-churn".into()),
        ("smoke", smoke.into()),
        ("nodes", nodes.into()),
        ("epochs", grid.epochs.into()),
        ("coordinates", "ground-truth".into()),
        ("exactness", "asserted on every event".into()),
    ]);
    let counts = |initial: usize, healed: usize, reopened: usize| {
        obj([("initial", initial.into()), ("healed", healed.into()), ("reopened", reopened.into())])
    };
    let hole_cycle = obj([
        ("scenario", "SpaceOneHole".into()),
        ("filler_nodes", cycle.filler_nodes.into()),
        ("groups", counts(cycle.groups_initial, cycle.groups_healed, cycle.groups_reopened)),
        (
            "boundary_count",
            counts(cycle.boundary_initial, cycle.boundary_healed, cycle.boundary_reopened),
        ),
    ]);
    let doc = obj([("meta", meta), ("cells", arr(cells)), ("hole_cycle", hole_cycle)]);
    args.write_artifact("churn_sweep.json", &doc);
}
