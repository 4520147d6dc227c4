//! E20 — serve load: the multi-tenant daemon under concurrent instances.
//!
//! Builds one deterministic JSONL request log that creates many network
//! instances (cycling through the scenario gallery), drives each through
//! several churn epochs, interleaves boundary/stats queries, and injects
//! fault epochs on a rotating subset — then serves the log twice, once
//! sequentially and once on the full worker pool, and asserts the two
//! response logs are **byte-identical** before reporting anything. The
//! report is therefore a pure function of the request log: per-instance
//! rows (final live population, boundary size, recomputed balls, inject
//! verdicts) plus aggregate inject-round quantiles.
//!
//! Every reported quantity derives from the typed response stream — no
//! wall-clock fields — so repeated runs are byte-identical and the
//! committed `results/serve_load.json` doubles as a regression pin.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin serve_load            # full load
//! cargo run --release -p ballfit-bench --bin serve_load -- --smoke # CI smoke run
//! cargo run --release -p ballfit-bench --bin serve_load -- --validate out.json
//! ```
//!
//! Instances shard over workers (`--threads N` / `BALLFIT_THREADS`,
//! default all cores); each instance's detector runs single-threaded so
//! the response bytes are independent of the worker count — which is
//! exactly what the built-in identity assertion re-proves on every run.

use ballfit_bench::{Args, Parallelism};
use ballfit_json::{arr, obj};

use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_serve::{
    encode_request, CreateSource, FaultKnobs, QueryKind, ServeRequest, ServeResponse, Service,
    WireConfig, WireEvent,
};
use ballfit_wsn::churn::ChurnPlan;

struct Load {
    instances: usize,
    epochs: usize,
    surface: usize,
    interior: usize,
}

fn load(smoke: bool) -> Load {
    if smoke {
        Load { instances: 8, epochs: 2, surface: 40, interior: 60 }
    } else {
        Load { instances: 12, epochs: 5, surface: 80, interior: 120 }
    }
}

/// Fault knobs rotate with the epoch so the load covers a clean channel,
/// mild loss and heavy loss without exploding the request count.
const LOSSES: [f64; 3] = [0.0, 0.1, 0.25];

fn instance_model(scenario: Scenario, load: &Load, seed: u64) -> NetworkModel {
    NetworkBuilder::new(scenario)
        .surface_nodes(load.surface)
        .interior_nodes(load.interior)
        .target_degree(12.0)
        .require_connected(false)
        .seed(seed)
        .build()
        .expect("instance model generates")
}

/// Builds the whole request log up front: `create` for every instance,
/// then per epoch an `events` batch + `boundary` query per instance and
/// an `inject` on the rotating third, then a final `stats` sweep, one
/// `checkpoint`, and `shutdown`. The churn streams are produced by a
/// local [`ChurnDriver`] mirror per instance, so every `events` batch is
/// valid by construction and the log is a deterministic function of the
/// seeds alone.
fn request_log(load: &Load) -> (Vec<ServeRequest>, Vec<String>) {
    let mut log = Vec::new();
    let mut ids = Vec::new();
    let mut batches: Vec<Vec<Vec<WireEvent>>> = Vec::new();

    for i in 0..load.instances {
        let scenario = Scenario::ALL[i % Scenario::ALL.len()];
        let model = instance_model(scenario, load, 100 + i as u64);
        let id = format!("{}-{i:02}", scenario.name());
        let positions: Vec<[f64; 3]> = model.positions().iter().map(|p| [p.x, p.y, p.z]).collect();
        log.push(ServeRequest::Create {
            id: id.clone(),
            source: CreateSource::Positions { positions, range: model.radio_range() },
            // Zero-noise paper config: the injected chaos epochs are
            // judged against the incremental oracle, and only matched
            // coordinates make a clean channel reproduce it exactly
            // (same contract as E19's cell config).
            config: WireConfig { error: Some(0), ..WireConfig::default() },
        });
        let plan = ChurnPlan::none()
            .with_seed(40 + i as u64)
            .with_epochs(load.epochs)
            .with_join_rate(0.02)
            .with_leave_rate(0.02)
            .with_move_rate(0.03)
            .with_max_drift(0.4 * model.radio_range());
        let mut driver = ChurnDriver::new(&model, 0xE20_0000 + i as u64);
        let mut per_epoch = vec![Vec::new(); load.epochs];
        for ev in plan.schedule(model.len()) {
            let (resolved, _) = driver.step(&ev).expect("mirror driver stays in sync");
            per_epoch[ev.epoch].push(resolved.into());
        }
        ids.push(id);
        batches.push(per_epoch);
    }

    for epoch in 0..load.epochs {
        for (i, id) in ids.iter().enumerate() {
            log.push(ServeRequest::Events { id: id.clone(), events: batches[i][epoch].clone() });
            log.push(ServeRequest::Query { id: id.clone(), what: QueryKind::Boundary });
            if (i + epoch) % 3 == 0 {
                log.push(ServeRequest::Inject {
                    id: id.clone(),
                    faults: FaultKnobs {
                        loss: LOSSES[epoch % LOSSES.len()],
                        crash_fraction: 0.04,
                        seed: (epoch * 31 + i) as u64,
                        ..FaultKnobs::default()
                    },
                });
            }
        }
    }
    for id in &ids {
        log.push(ServeRequest::Query { id: id.clone(), what: QueryKind::Stats });
    }
    log.push(ServeRequest::Checkpoint { id: ids[0].clone() });
    log.push(ServeRequest::Shutdown);
    (log, ids)
}

#[derive(Default)]
struct Row {
    nodes: usize,
    live: usize,
    boundary: usize,
    groups: usize,
    epochs: usize,
    applied: usize,
    balls: u64,
    injects: usize,
    inject_exact: usize,
    inject_rounds: Vec<usize>,
    messages: u64,
    bytes: u64,
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[usize], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn main() {
    let args = Args::from_env("--smoke --out <path> --threads <n> --validate <path>");
    let smoke = args.has("--smoke");
    let parallelism = args.parallelism();
    let cores = Parallelism::available().get();

    let spec = load(smoke);
    let (log, ids) = request_log(&spec);
    let jsonl: String = log.iter().map(|r| encode_request(r) + "\n").collect();
    eprintln!(
        "serve load: {} instances x {} epochs, {} requests, {} worker(s){}",
        spec.instances,
        spec.epochs,
        log.len(),
        parallelism.get(),
        if smoke { " (smoke)" } else { "" }
    );

    // The determinism contract, re-proved on every run: the response log
    // is a pure function of the request log, independent of the pool.
    let pooled = Service::new(parallelism).serve_jsonl(&jsonl);
    let sequential = Service::new(Parallelism::sequential()).serve_jsonl(&jsonl);
    assert_eq!(pooled, sequential, "response log must not depend on the worker count");

    let responses = Service::new(parallelism).serve_log(&log);
    assert_eq!(responses.len(), log.len(), "one response per request");
    let index_of = |id: &str| ids.iter().position(|x| x == id).expect("known instance id");
    let mut rows: Vec<Row> = ids.iter().map(|_| Row::default()).collect();
    for resp in &responses {
        match resp {
            ServeResponse::Created { id, nodes, live, boundary, groups, .. } => {
                let row = &mut rows[index_of(id)];
                row.nodes = *nodes;
                row.live = *live;
                row.boundary = *boundary;
                row.groups = *groups;
            }
            ServeResponse::Applied { id, applied, balls, boundary, groups, .. } => {
                let row = &mut rows[index_of(id)];
                row.epochs += 1;
                row.applied += applied;
                row.balls += balls;
                row.boundary = *boundary;
                row.groups = *groups;
            }
            ServeResponse::Injected { id, exact, rounds, live, .. } => {
                let row = &mut rows[index_of(id)];
                row.injects += 1;
                row.inject_exact += usize::from(*exact);
                row.inject_rounds.push(*rounds);
                row.live = *live;
            }
            ServeResponse::StatsRows { id, rows: stats } => {
                let row = &mut rows[index_of(id)];
                row.messages = stats.iter().map(|r| r.messages).sum();
                row.bytes = stats.iter().map(|r| r.bytes).sum();
            }
            ServeResponse::Error(e) => panic!("load log must serve cleanly, got {e}"),
            _ => {}
        }
    }
    for (id, row) in ids.iter().zip(&rows) {
        eprintln!(
            "  {id}: {} -> {} live, boundary {} ({} groups), {} balls, {}/{} exact injects",
            row.nodes, row.live, row.boundary, row.groups, row.balls, row.inject_exact, row.injects,
        );
    }

    let mut all_rounds: Vec<usize> = rows.iter().flat_map(|r| r.inject_rounds.clone()).collect();
    all_rounds.sort_unstable();
    let injects: usize = rows.iter().map(|r| r.injects).sum();
    let exact: usize = rows.iter().map(|r| r.inject_exact).sum();

    let meta = obj([
        ("experiment", "E20-serve-load".into()),
        ("smoke", smoke.into()),
        ("instances", spec.instances.into()),
        ("epochs", spec.epochs.into()),
        ("requests", log.len().into()),
        ("surface", spec.surface.into()),
        ("interior", spec.interior.into()),
        ("available_parallelism", cores.into()),
        (
            "determinism",
            "pooled response log byte-identical to sequential, asserted per run".into(),
        ),
    ]);
    let instances = ids.iter().zip(&rows).map(|(id, row)| {
        obj([
            ("id", id.as_str().into()),
            ("nodes", row.nodes.into()),
            ("live", row.live.into()),
            ("boundary", row.boundary.into()),
            ("groups", row.groups.into()),
            ("epochs", row.epochs.into()),
            ("events_applied", row.applied.into()),
            ("balls", row.balls.into()),
            ("injects", row.injects.into()),
            ("inject_exact", row.inject_exact.into()),
            ("messages", row.messages.into()),
            ("bytes", row.bytes.into()),
        ])
    });
    let aggregate = obj([
        ("injects", injects.into()),
        ("inject_exact", exact.into()),
        ("inject_rounds_p50", percentile(&all_rounds, 50.0).into()),
        ("inject_rounds_p99", percentile(&all_rounds, 99.0).into()),
        ("events_applied", rows.iter().map(|r| r.applied).sum::<usize>().into()),
        ("balls", rows.iter().map(|r| r.balls).sum::<u64>().into()),
    ]);
    let doc = obj([("meta", meta), ("instances", arr(instances)), ("aggregate", aggregate)]);
    args.write_artifact("serve_load.json", &doc);
}
