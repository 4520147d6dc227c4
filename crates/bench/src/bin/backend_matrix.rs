//! E22 — backend matrix: the first cross-algorithm head-to-head. Every
//! registered [`BoundaryBackend`](ballfit_backends::BoundaryBackend) runs
//! over the full paper gallery, the E15 fault grid, and the E16 churn
//! grid, and each cell reports quality against a reference alongside the
//! cost totals (`messages`, `bytes`, `rounds`, `ball_tests`) that
//! `obs::summary` reconstructs from the backend's own trace — the same
//! reconstruction the conformance tests pin against the backend's
//! self-reported tallies.
//!
//! Quality references per grid:
//!
//! * **gallery** — ground-truth surface membership of the generated
//!   model (recall / precision / Jaccard as in E2).
//! * **faults** — the fault-free reference detection on the intact
//!   topology, scored over *alive* nodes only (E15 semantics). The view
//!   itself is degraded structurally: crashed nodes are isolated and
//!   each surviving link is dropped i.i.d. with the loss probability,
//!   both from seeded per-cell draws.
//! * **churn** — a from-scratch reference detection on the *final*
//!   post-churn topology, scored over live nodes (E16 semantics). The
//!   `ubf` backend scores J = 1 here by construction; the row anchors
//!   what the rivals' agreement numbers mean.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin backend_matrix            # full grid
//! cargo run --release -p ballfit-bench --bin backend_matrix -- --smoke # CI smoke run
//! cargo run --release -p ballfit-bench --bin backend_matrix -- --validate out.json
//! ```
//!
//! Grid cells run in parallel (`--threads N` / `BALLFIT_THREADS`, default
//! all cores); every backend inside a cell runs single-threaded and the
//! cells are collected in grid order, so the JSON is byte-identical at
//! every thread count — there is no wall-clock anywhere in the output.
//! `--validate <path>` checks an emitted file for JSON well-formedness
//! in-process and exits.

use ballfit_bench::{fixed, gallery_network, Args, Parallelism};

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::view::NetView;
use ballfit_backends::{configured, NAMES};
use ballfit_json::{arr, obj, JsonValue};
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::summary::summarize;
use ballfit_obs::Trace;
use ballfit_wsn::churn::ChurnPlan;
use ballfit_wsn::faults::FaultPlan;
use ballfit_wsn::topology::Topology;

/// Network seed shared by every gallery cell.
const GALLERY_SEED: u64 = 42;

struct Grids {
    gallery: Vec<Scenario>,
    losses: Vec<f64>,
    crash_fractions: Vec<f64>,
    fault_seeds: Vec<u64>,
    churn_scenarios: Vec<Scenario>,
    churn_rates: Vec<f64>,
    churn_seeds: Vec<u64>,
    churn_epochs: usize,
}

fn grids(smoke: bool) -> Grids {
    if smoke {
        Grids {
            gallery: vec![Scenario::SolidSphere],
            losses: vec![0.0, 0.1],
            crash_fractions: vec![0.0, 0.05],
            fault_seeds: vec![1],
            churn_scenarios: vec![Scenario::SolidSphere],
            churn_rates: vec![0.02],
            churn_seeds: vec![1],
            churn_epochs: 3,
        }
    } else {
        Grids {
            gallery: Scenario::PAPER_GALLERY.to_vec(),
            losses: vec![0.0, 0.05, 0.1, 0.2, 0.3],
            crash_fractions: vec![0.0, 0.05, 0.1],
            fault_seeds: vec![1, 2, 3],
            churn_scenarios: vec![Scenario::SolidSphere, Scenario::SpaceOneHole],
            churn_rates: vec![0.01, 0.02, 0.05, 0.10],
            churn_seeds: vec![1, 2, 3],
            churn_epochs: 12,
        }
    }
}

/// The 500-node sphere shared by the fault and churn grids (the E15/E16
/// acceptance configuration; the churn grid builds one per scenario).
fn reference_model(scenario: Scenario, smoke: bool) -> NetworkModel {
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

fn gallery_model(scenario: Scenario, smoke: bool) -> NetworkModel {
    if smoke {
        reference_model(scenario, true)
    } else {
        gallery_network(scenario, GALLERY_SEED)
    }
}

/// Finalizer of murmur3 (fmix64): the per-edge drop hash.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Uniform draw in `[0, 1)` keyed on `(seed, i, j)` — the link-drop coin.
fn edge_draw(seed: u64, i: usize, j: usize) -> f64 {
    let key = seed ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Quality of `got` vs `truth`, restricted to nodes where `consider`
/// holds. `None` when a denominator is empty.
struct Quality {
    recall: Option<f64>,
    precision: Option<f64>,
    jaccard: Option<f64>,
}

fn quality(truth: &[bool], got: &[bool], consider: &[bool]) -> Quality {
    let (mut tp, mut fp, mut missed) = (0usize, 0usize, 0usize);
    for i in 0..truth.len() {
        if !consider[i] {
            continue;
        }
        match (truth[i], got[i]) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => missed += 1,
            (false, false) => {}
        }
    }
    let rate = |num: usize, den: usize| (den > 0).then(|| num as f64 / den as f64);
    Quality {
        recall: rate(tp, tp + missed),
        precision: rate(tp, tp + fp),
        jaccard: rate(tp, tp + fp + missed),
    }
}

/// One backend's run in one cell: quality plus the cost totals that
/// `obs::summary` rolls up from the backend's trace.
struct BackendRow {
    backend: &'static str,
    boundary: usize,
    groups: usize,
    quality: Quality,
    messages: u64,
    bytes: u64,
    rounds: u64,
    ball_tests: u64,
}

/// Runs one registered backend over `view` with an enabled trace and
/// scores it. Costs come from `obs::summary` over the emitted trace, not
/// from the backend's own tally (`tests/backends.rs` pins the two equal).
fn run_backend(
    name: &'static str,
    view: &NetView<'_>,
    seed: u64,
    truth: &[bool],
    consider: &[bool],
) -> BackendRow {
    // Cells shard over workers; every backend inside a cell runs
    // single-threaded so the emitted JSON is identical at every ladder
    // rung.
    let backend = configured(name, DetectorConfig::default(), seed, Parallelism::sequential())
        .expect("registry names resolve");
    let mut trace = Trace::enabled();
    let result = backend.detect(view, &mut trace);
    let summary = summarize(trace.records());
    let messages: u64 = summary.rows.iter().map(|r| r.messages).sum();
    let bytes: u64 = summary.rows.iter().map(|r| r.bytes).sum();
    let rounds: u64 = summary.rows.iter().map(|r| r.rounds).sum();
    let ball_tests: u64 = summary.rows.iter().map(|r| r.ball_tests).sum();
    BackendRow {
        backend: name,
        boundary: result.boundary_count(),
        groups: result.detection.groups.len(),
        quality: quality(truth, result.boundary(), consider),
        messages,
        bytes,
        rounds,
        ball_tests,
    }
}

struct GalleryCell {
    scenario: String,
    nodes: usize,
    edges: usize,
    rows: Vec<BackendRow>,
}

fn run_gallery_cell(scenario: Scenario, smoke: bool) -> GalleryCell {
    let model = gallery_model(scenario, smoke);
    let view = NetView::from_model(&model);
    let truth = model.is_surface();
    let consider = vec![true; model.len()];
    let rows = NAMES
        .iter()
        .map(|&name| run_backend(name, &view, GALLERY_SEED, truth, &consider))
        .collect();
    GalleryCell {
        scenario: scenario.name().to_string(),
        nodes: model.len(),
        edges: model.topology().edge_count(),
        rows,
    }
}

struct FaultCell {
    loss: f64,
    crash_fraction: f64,
    seed: u64,
    crashed: usize,
    dropped_links: usize,
    rows: Vec<BackendRow>,
}

fn run_fault_cell(
    model: &NetworkModel,
    reference: &[bool],
    loss: f64,
    crash_fraction: f64,
    seed: u64,
) -> FaultCell {
    let n = model.len();
    // Crash sampling matches E15: the FaultPlan's own seeded draw.
    let plan = FaultPlan::lossy(seed, loss).with_random_crashes(n, crash_fraction, 1, None);
    let mut alive = vec![true; n];
    for c in &plan.crashes {
        if c.node < n {
            alive[c.node] = false;
        }
    }
    let crashed = alive.iter().filter(|a| !**a).count();

    // Structural degradation: crashed nodes lose every link; surviving
    // links drop i.i.d. with the loss probability (symmetric — one coin
    // per undirected edge).
    let topo = model.topology();
    let mut edges = Vec::with_capacity(topo.edge_count());
    let mut dropped_links = 0usize;
    for i in 0..n {
        for &j in topo.neighbors(i) {
            let j = j as usize;
            if i >= j || !alive[i] || !alive[j] {
                continue;
            }
            if loss > 0.0 && edge_draw(seed, i, j) < loss {
                dropped_links += 1;
            } else {
                edges.push((i, j));
            }
        }
    }
    let degraded = Topology::from_edges(n, &edges);
    let view = NetView::new(&degraded, model.positions(), model.radio_range());
    let rows =
        NAMES.iter().map(|&name| run_backend(name, &view, seed, reference, &alive)).collect();
    FaultCell { loss, crash_fraction, seed, crashed, dropped_links, rows }
}

struct ChurnCell {
    scenario: String,
    rate: f64,
    seed: u64,
    events: usize,
    live_final: usize,
    rows: Vec<BackendRow>,
}

fn run_churn_cell(
    model: &NetworkModel,
    scenario: Scenario,
    rate: f64,
    seed: u64,
    epochs: usize,
) -> ChurnCell {
    let plan = ChurnPlan::none()
        .with_seed(seed)
        .with_epochs(epochs)
        .with_join_rate(rate)
        .with_leave_rate(rate)
        .with_move_rate(rate)
        .with_max_drift(0.5 * model.radio_range());
    let schedule = plan.schedule(model.len());
    let mut driver = ChurnDriver::new(model, seed ^ 0x9E37_79B9_7F4A_7C15);
    for ev in &schedule {
        driver.step(ev).expect("in-shape sampling never exhausts");
    }
    let dynamic = driver.dynamic();
    let view = NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range());
    // From-scratch reference on the final topology; live slots only
    // (left nodes linger as isolated slots in the dynamic arena).
    let reference = BoundaryDetector::new(DetectorConfig::default())
        .with_parallelism(Parallelism::sequential())
        .detect_view(&view);
    let consider: Vec<bool> = (0..dynamic.len()).map(|i| dynamic.is_live(i)).collect();
    let rows = NAMES
        .iter()
        .map(|&name| run_backend(name, &view, seed, &reference.boundary, &consider))
        .collect();
    ChurnCell {
        scenario: scenario.name().to_string(),
        rate,
        seed,
        events: schedule.len(),
        live_final: dynamic.live_count(),
        rows,
    }
}

/// A cell's `backends` rows.
fn backends(rows: &[BackendRow]) -> JsonValue {
    arr(rows.iter().map(|r| {
        obj([
            ("backend", r.backend.into()),
            ("boundary", r.boundary.into()),
            ("groups", r.groups.into()),
            ("recall", fixed(r.quality.recall, 4)),
            ("precision", fixed(r.quality.precision, 4)),
            ("jaccard", fixed(r.quality.jaccard, 4)),
            ("messages", r.messages.into()),
            ("bytes", r.bytes.into()),
            ("rounds", r.rounds.into()),
            ("ball_tests", r.ball_tests.into()),
        ])
    }))
}

fn main() {
    let args = Args::from_env("--smoke --out <path> --threads <n> --validate <path>");
    let smoke = args.has("--smoke");
    let parallelism = args.parallelism();
    let grids = grids(smoke);
    let fault_cells_n = grids.losses.len() * grids.crash_fractions.len() * grids.fault_seeds.len();
    let churn_cells_n =
        grids.churn_scenarios.len() * grids.churn_rates.len() * grids.churn_seeds.len();
    eprintln!(
        "backend matrix: {} backends x ({} gallery + {} fault + {} churn cells), {} thread(s){}",
        NAMES.len(),
        grids.gallery.len(),
        fault_cells_n,
        churn_cells_n,
        parallelism.get(),
        if smoke { " (smoke)" } else { "" }
    );

    // Phase 1: gallery.
    let gallery_cells =
        ballfit_par::par_map(parallelism, &grids.gallery, |&s| run_gallery_cell(s, smoke));
    for c in &gallery_cells {
        for r in &c.rows {
            eprintln!(
                "  gallery {:<12} {:<4}: J={} boundary={} msgs={} balls={}",
                c.scenario,
                r.backend,
                fixed(r.quality.jaccard, 4),
                r.boundary,
                r.messages,
                r.ball_tests,
            );
        }
    }

    // Phase 2: faults. Reference detection once, fault-free and intact.
    let fault_model = reference_model(Scenario::SolidSphere, smoke);
    let fault_reference = BoundaryDetector::new(DetectorConfig::default())
        .with_parallelism(parallelism)
        .detect_view(&NetView::from_model(&fault_model));
    let mut fault_params = Vec::new();
    for &loss in &grids.losses {
        for &crash_fraction in &grids.crash_fractions {
            for &seed in &grids.fault_seeds {
                fault_params.push((loss, crash_fraction, seed));
            }
        }
    }
    let fault_cells = ballfit_par::par_map(parallelism, &fault_params, |&(loss, crash, seed)| {
        run_fault_cell(&fault_model, &fault_reference.boundary, loss, crash, seed)
    });
    for c in &fault_cells {
        for r in &c.rows {
            eprintln!(
                "  fault loss={:>4} crash={:>4} seed={} {:<4}: J={} msgs={}",
                c.loss,
                c.crash_fraction,
                c.seed,
                r.backend,
                fixed(r.quality.jaccard, 4),
                r.messages,
            );
        }
    }

    // Phase 3: churn.
    let churn_models: Vec<(Scenario, NetworkModel)> =
        grids.churn_scenarios.iter().map(|&s| (s, reference_model(s, smoke))).collect();
    let mut churn_params = Vec::new();
    for (mi, _) in churn_models.iter().enumerate() {
        for &rate in &grids.churn_rates {
            for &seed in &grids.churn_seeds {
                churn_params.push((mi, rate, seed));
            }
        }
    }
    let churn_cells = ballfit_par::par_map(parallelism, &churn_params, |&(mi, rate, seed)| {
        let (scenario, model) = &churn_models[mi];
        run_churn_cell(model, *scenario, rate, seed, grids.churn_epochs)
    });
    for c in &churn_cells {
        for r in &c.rows {
            eprintln!(
                "  churn {:<12} rate={:>4} seed={} {:<4}: J={} msgs={}",
                c.scenario,
                c.rate,
                c.seed,
                r.backend,
                fixed(r.quality.jaccard, 4),
                r.messages,
            );
        }
    }

    let meta = obj([
        ("experiment", "E22-backend-matrix".into()),
        ("smoke", smoke.into()),
        ("backends", arr(NAMES)),
        ("coordinates", "ground-truth".into()),
        (
            "quality",
            obj([
                ("gallery", "vs generated ground truth".into()),
                ("faults", "alive nodes vs fault-free reference".into()),
                ("churn", "live nodes vs from-scratch reference on the final topology".into()),
            ]),
        ),
    ]);
    let gallery = gallery_cells.iter().map(|c| {
        obj([
            ("scenario", c.scenario.as_str().into()),
            ("nodes", c.nodes.into()),
            ("edges", c.edges.into()),
            ("backends", backends(&c.rows)),
        ])
    });
    let faults = fault_cells.iter().map(|c| {
        obj([
            ("loss", c.loss.into()),
            ("crash_fraction", c.crash_fraction.into()),
            ("seed", c.seed.into()),
            ("crashed", c.crashed.into()),
            ("dropped_links", c.dropped_links.into()),
            ("backends", backends(&c.rows)),
        ])
    });
    let churn = churn_cells.iter().map(|c| {
        obj([
            ("scenario", c.scenario.as_str().into()),
            ("rate", c.rate.into()),
            ("seed", c.seed.into()),
            ("events", c.events.into()),
            ("live_final", c.live_final.into()),
            ("backends", backends(&c.rows)),
        ])
    });
    let fault_model = obj([
        ("nodes", fault_model.len().into()),
        ("edges", fault_model.topology().edge_count().into()),
    ]);
    let doc = obj([
        ("meta", meta),
        ("gallery", arr(gallery)),
        ("fault_model", fault_model),
        ("faults", arr(faults)),
        ("churn", arr(churn)),
    ]);
    args.write_artifact("backend_matrix.json", &doc);
}
