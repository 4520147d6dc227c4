//! The multi-tenant service: many [`Instance`]s keyed by id, driven by
//! [`ServeRequest`]s, sharded across the `ballfit-par` pool.
//!
//! # Determinism contract
//!
//! The response log is a pure function of the request log. Three design
//! rules make that hold at every worker-thread count:
//!
//! 1. **Per-instance state is confined.** Each instance owns its
//!    topology, detector, and trace; no request touches two instances.
//! 2. **Per-instance order is program order.** [`Service::serve_log`]
//!    groups requests by instance id and moves each instance (with its
//!    request indices) into one [`ballfit_par::par_map_owned`] job, so
//!    an instance's requests always run sequentially in log order —
//!    only *different* instances run concurrently.
//! 3. **All instance work is sequential.** Detectors run under
//!    [`Parallelism::sequential`]; the service's thread budget is spent
//!    across instances, never inside one.
//!
//! Responses are spliced back at their request's log position, so the
//! output bytes are independent of job completion order. Everything is
//! logical time — no wall clock enters any response.

use std::collections::BTreeMap;

use ballfit::chaos::{epoch_plan, run_epoch, ChaosConfig, DetectionOutcome};
use ballfit::incremental::IncrementalDetector;
use ballfit::surface::SurfaceBuilder;
use ballfit::view::NetView;
use ballfit_geom::Vec3;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::summary::summarize;
use ballfit_obs::Trace;
use ballfit_par::Parallelism;
use ballfit_wsn::churn::{ChurnPlan, DynamicTopology, TopologyEvent};

use crate::wire::{
    CreateSource, FaultKnobs, MeshRow, QueryKind, ServeError, ServeRequest, ServeResponse,
    WireBackend, WireCheckpoint, WireConfig, WireEvent,
};

/// Boundary/group view computed by a non-reference backend. The UBF
/// pipeline stays incrementally maintained (it drives fragments, mesh
/// bootstrap, and inject epochs); a rival backend is recomputed from
/// scratch after create/events/restore and *overlays* the boundary and
/// group queries. Dead slots are isolated nodes a degree-based rival
/// rightly flags degenerate, so the overlay masks them out and regroups
/// over live flags only.
#[derive(Debug)]
struct BackendOverlay {
    /// Per-slot boundary flags, dead slots forced to `false`.
    boundary: Vec<bool>,
    /// Boundary groups over the masked flags, canonical order.
    groups: Vec<Vec<usize>>,
}

/// One tenant: a dynamic topology, its incrementally-maintained
/// detector, a structured trace, and the epoch counters that keep
/// replayed fault streams aligned across checkpoint/restore.
#[derive(Debug)]
pub struct Instance {
    /// The wire config the instance was created with (echoed by
    /// `checkpoint` so a restore rebuilds the identical detector config
    /// *and* backend).
    config: WireConfig,
    dynamic: DynamicTopology,
    detector: IncrementalDetector,
    /// `Some` iff `config.backend` is not the reference pipeline.
    overlay: Option<BackendOverlay>,
    trace: Trace,
    /// Events batches applied so far (the next batch's epoch index).
    epoch: u64,
    /// Inject epochs run so far (the next inject's fault-stream index).
    injects: u64,
}

impl Instance {
    fn from_dynamic(config: WireConfig, dynamic: DynamicTopology) -> Instance {
        // Sequential on purpose: see the module docs' determinism
        // contract — the service parallelizes across instances only.
        let detector = IncrementalDetector::new_with_parallelism(
            config.to_detector(),
            &dynamic,
            Parallelism::sequential(),
        );
        let mut inst = Instance {
            config,
            dynamic,
            detector,
            overlay: None,
            trace: Trace::enabled(),
            epoch: 0,
            injects: 0,
        };
        inst.refresh_overlay();
        inst
    }

    /// Recomputes the rival-backend overlay (no-op for the reference
    /// backend). The backend's exchanges record into the instance trace,
    /// so `query what=stats` carries rival costs next to UBF costs.
    fn refresh_overlay(&mut self) {
        if self.config.backend == WireBackend::Ubf {
            self.overlay = None;
            return;
        }
        let view = NetView::new(
            self.dynamic.topology(),
            self.dynamic.positions(),
            self.dynamic.radio_range(),
        );
        let backend = ballfit_backends::configured(
            self.config.backend.as_str(),
            self.config.to_detector(),
            self.config.noise_seed,
            Parallelism::sequential(),
        )
        .expect("wire backend names mirror the registry");
        let result = backend.detect(&view, &mut self.trace);
        let mut boundary = result.detection.boundary;
        for (i, flag) in boundary.iter_mut().enumerate() {
            if !self.dynamic.is_live(i) {
                *flag = false;
            }
        }
        let groups = ballfit::grouping::group_boundaries(self.dynamic.topology(), &boundary);
        self.overlay = Some(BackendOverlay { boundary, groups });
    }

    /// Per-slot boundary flags of the configured backend.
    fn boundary_flags(&self) -> &[bool] {
        match &self.overlay {
            Some(o) => &o.boundary,
            None => self.detector.boundary(),
        }
    }

    /// Boundary groups of the configured backend, canonical order.
    fn groups(&self) -> &[Vec<usize>] {
        match &self.overlay {
            Some(o) => &o.groups,
            None => self.detector.groups(),
        }
    }

    /// Live boundary node ids, ascending.
    fn live_boundary(&self) -> Vec<usize> {
        let flags = self.boundary_flags();
        (0..self.dynamic.len()).filter(|&i| flags[i] && self.dynamic.is_live(i)).collect()
    }

    fn created_response(&self, id: &str) -> ServeResponse {
        ServeResponse::Created {
            id: id.to_string(),
            nodes: self.dynamic.len(),
            live: self.dynamic.live_count(),
            boundary: self.live_boundary().len(),
            groups: self.groups().len(),
            balls: self.detector.detection().balls_tested,
        }
    }
}

fn create_instance(
    id: &str,
    source: &CreateSource,
    config: WireConfig,
) -> Result<Instance, ServeError> {
    let dynamic = match source {
        CreateSource::Scene(scene) => {
            let scenario =
                Scenario::by_name(&scene.scenario).ok_or_else(|| ServeError::BadScene {
                    id: id.to_string(),
                    detail: format!("unknown scenario '{}'", scene.scenario),
                })?;
            let model = NetworkBuilder::new(scenario)
                .surface_nodes(scene.surface)
                .interior_nodes(scene.interior)
                .target_degree(scene.degree)
                .seed(scene.seed)
                .build()
                .map_err(|e| ServeError::BadScene { id: id.to_string(), detail: e.to_string() })?;
            DynamicTopology::new(model.positions(), model.radio_range())
        }
        CreateSource::Positions { positions, range } => {
            if positions.is_empty() {
                return Err(ServeError::BadScene {
                    id: id.to_string(),
                    detail: "at least one position is required".to_string(),
                });
            }
            let pos: Vec<Vec3> = positions.iter().copied().map(Vec3::from).collect();
            DynamicTopology::new(&pos, *range)
        }
    };
    Ok(Instance::from_dynamic(config, dynamic))
}

/// Pre-validates an event batch against a simulated liveness vector so
/// a bad batch is rejected *whole* — [`DynamicTopology::apply`] panics
/// on a leave/move of a dead slot, and a half-applied batch would leave
/// the instance in a state the request log cannot explain.
fn validate_events(
    id: &str,
    dynamic: &DynamicTopology,
    events: &[WireEvent],
) -> Result<(), ServeError> {
    let mut alive: Vec<bool> = (0..dynamic.len()).map(|i| dynamic.is_live(i)).collect();
    for ev in events {
        match *ev {
            WireEvent::Join { .. } => alive.push(true),
            WireEvent::Leave { node } => {
                if !alive.get(node).copied().unwrap_or(false) {
                    return Err(ServeError::DeadNode { id: id.to_string(), node });
                }
                alive[node] = false;
            }
            WireEvent::Move { node, .. } => {
                if !alive.get(node).copied().unwrap_or(false) {
                    return Err(ServeError::DeadNode { id: id.to_string(), node });
                }
            }
        }
    }
    Ok(())
}

fn apply_events(inst: &mut Instance, id: &str, events: &[WireEvent]) -> ServeResponse {
    if let Err(e) = validate_events(id, &inst.dynamic, events) {
        return ServeResponse::Error(e);
    }
    let (mut promoted, mut demoted, mut regrouped, mut halo) = (0usize, 0usize, 0usize, 0usize);
    let mut balls = 0u64;
    for ev in events {
        let event = match *ev {
            WireEvent::Join { position } => TopologyEvent::Join { position: position.into() },
            WireEvent::Leave { node } => TopologyEvent::Leave { node },
            WireEvent::Move { node, to } => TopologyEvent::Move { node, to: to.into() },
        };
        let delta = inst.dynamic.apply(&event);
        // No extra span wrapper: the per-event `"churn-event"` spans a
        // direct IncrementalDetector driver would record are exactly
        // what this instance's trace records (the serve ≡ direct pin).
        let diff = inst.detector.apply_traced(&inst.dynamic, &delta, &mut inst.trace);
        promoted += diff.promoted.len();
        demoted += diff.demoted.len();
        regrouped += diff.regrouped.len();
        halo += diff.halo.len();
        balls += diff.balls;
    }
    let epoch = inst.epoch;
    inst.epoch += 1;
    // A rival backend has no incremental form: recompute its overlay
    // once per successful batch. The diff counters above still report
    // the incremental UBF repair (they describe maintenance cost, not
    // the overlay verdicts).
    inst.refresh_overlay();
    ServeResponse::Applied {
        id: id.to_string(),
        epoch,
        applied: events.len(),
        promoted,
        demoted,
        regrouped,
        halo,
        balls,
        boundary: inst.live_boundary().len(),
        groups: inst.groups().len(),
    }
}

fn query_instance(inst: &Instance, id: &str, what: QueryKind) -> ServeResponse {
    match what {
        QueryKind::Boundary => {
            ServeResponse::BoundaryNodes { id: id.to_string(), nodes: inst.live_boundary() }
        }
        QueryKind::Groups => {
            ServeResponse::GroupList { id: id.to_string(), groups: inst.groups().to_vec() }
        }
        QueryKind::Fragments => {
            let candidates = inst.detector.candidates();
            let fragments = inst.detector.fragments();
            ServeResponse::FragmentList {
                id: id.to_string(),
                fragments: (0..inst.dynamic.len())
                    .filter(|&i| candidates[i] && inst.dynamic.is_live(i))
                    .map(|i| (i, fragments[i]))
                    .collect(),
            }
        }
        QueryKind::Stats => ServeResponse::StatsRows {
            id: id.to_string(),
            rows: summarize(inst.trace.records()).rows,
        },
        QueryKind::Mesh => {
            let view = NetView::new(
                inst.dynamic.topology(),
                inst.dynamic.positions(),
                inst.dynamic.radio_range(),
            );
            let builder = SurfaceBuilder::new(ballfit::config::SurfaceConfig::default());
            let mut meshes = Vec::new();
            for (gi, group) in inst.groups().iter().enumerate() {
                // Mesh the live members only: a dead slot is isolated and
                // would distort landmark election.
                let live: Vec<usize> =
                    group.iter().copied().filter(|&m| inst.dynamic.is_live(m)).collect();
                let Some(surface) = builder.build_group_view(&view, &live) else {
                    continue;
                };
                let s = &surface.stats;
                meshes.push(MeshRow {
                    group: gi,
                    size: s.group_size,
                    landmarks: s.landmarks,
                    faces: s.faces,
                    euler: s.euler,
                    manifold_ppm: (s.audit.manifold_fraction() * 1_000_000.0).round() as u64,
                });
            }
            ServeResponse::MeshList { id: id.to_string(), meshes }
        }
    }
}

fn checkpoint_instance(inst: &Instance, id: &str) -> ServeResponse {
    ServeResponse::CheckpointTaken {
        id: id.to_string(),
        checkpoint: WireCheckpoint {
            epoch: inst.epoch,
            injects: inst.injects,
            config: inst.config,
            snapshot: inst.dynamic.snapshot(),
            detector: Box::new(inst.detector.checkpoint()),
        },
    }
}

fn restore_instance(cp: &WireCheckpoint) -> Result<Instance, ServeError> {
    let n = cp.snapshot.positions.len();
    let bad = |detail: String| ServeError::BadRequest { detail };
    if cp.snapshot.alive.len() != n {
        return Err(bad(format!(
            "snapshot alive length {} != positions length {n}",
            cp.snapshot.alive.len()
        )));
    }
    let det = &cp.detector;
    for (what, len) in [
        ("candidates", det.candidates.len()),
        ("degenerate", det.degenerate.len()),
        ("balls", det.balls.len()),
        ("fragments", det.fragments.len()),
        ("boundary", det.boundary.len()),
    ] {
        if len != n {
            return Err(bad(format!("detector {what} length {len} != snapshot length {n}")));
        }
    }
    for group in &det.groups {
        for &m in group {
            if m >= n {
                return Err(bad(format!("group member {m} out of range for {n} slots")));
            }
        }
    }
    let dynamic = DynamicTopology::restore(&cp.snapshot);
    let detector = IncrementalDetector::restore(det, Parallelism::sequential());
    let mut inst = Instance {
        config: cp.config,
        dynamic,
        detector,
        overlay: None,
        // The trace restarts empty: stats are per-incarnation. The
        // replayed *protocol* work is still byte-identical, which is
        // what the crash-recovery pin checks.
        trace: Trace::enabled(),
        epoch: cp.epoch,
        injects: cp.injects,
    };
    // The checkpoint carries the backend name in its config; the
    // overlay itself is derived state and is recomputed, not persisted.
    inst.refresh_overlay();
    Ok(inst)
}

/// Inject always exercises the hardened UBF stack against the oracle,
/// whatever `config.backend` says: the chaos watchdog judges the
/// *reference* pipeline's fault tolerance, and a rival backend's
/// overlay is untouched by fault epochs (they leave the topology as
/// they found it).
fn inject_instance(inst: &mut Instance, id: &str, faults: &FaultKnobs) -> ServeResponse {
    let ccfg = ChaosConfig::new(inst.config.to_detector(), ChurnPlan::none())
        .with_loss(faults.loss)
        .with_duplication(faults.duplication)
        .with_max_delay(faults.max_delay)
        .with_crash_fraction(faults.crash_fraction)
        .with_crash_window(faults.crash_down, faults.crash_up)
        .with_fault_seed(faults.seed);
    let live = inst.dynamic.live_nodes();
    let plan = epoch_plan(&ccfg, inst.injects as usize, &live);
    let crashed = plan.crashes.len();
    let verdict = run_epoch(&inst.dynamic, &ccfg, &plan, &inst.detector, &mut inst.trace);
    let epoch = inst.injects;
    inst.injects += 1;
    let (unreached, cause) = match &verdict.outcome {
        DetectionOutcome::Exact { .. } => (0, "none".to_string()),
        DetectionOutcome::Degraded { unreached, cause, .. } => {
            (unreached.len(), cause.as_str().to_string())
        }
    };
    ServeResponse::Injected {
        id: id.to_string(),
        epoch,
        exact: verdict.outcome.is_exact(),
        cause,
        coverage_ppm: (verdict.outcome.coverage() * 1_000_000.0).round() as u64,
        unreached,
        boundary: verdict.outcome.boundary().len(),
        rounds: verdict.rounds,
        clean_rounds: verdict.clean_rounds,
        repairs: verdict.repairs,
        exhausted: verdict.exhausted,
        live: live.len(),
        crashed,
    }
}

/// Applies one request to one instance slot. `slot` is `None` when no
/// instance exists under the request's id; `create`/`restore` fill it,
/// everything else requires it. Pure with respect to the rest of the
/// service — the sharding in [`Service::serve_log`] relies on that.
fn apply_to_slot(slot: &mut Option<Instance>, req: &ServeRequest) -> ServeResponse {
    let id = req.id().unwrap_or_default().to_string();
    match req {
        ServeRequest::Create { source, config, .. } => {
            if slot.is_some() {
                return ServeResponse::Error(ServeError::DuplicateInstance { id });
            }
            match create_instance(&id, source, *config) {
                Ok(inst) => {
                    let resp = inst.created_response(&id);
                    *slot = Some(inst);
                    resp
                }
                Err(e) => ServeResponse::Error(e),
            }
        }
        ServeRequest::Restore { checkpoint, .. } => {
            if slot.is_some() {
                return ServeResponse::Error(ServeError::DuplicateInstance { id });
            }
            match restore_instance(checkpoint) {
                Ok(inst) => {
                    let resp = ServeResponse::Restored {
                        id,
                        nodes: inst.dynamic.len(),
                        live: inst.dynamic.live_count(),
                        boundary: inst.live_boundary().len(),
                        groups: inst.groups().len(),
                    };
                    *slot = Some(inst);
                    resp
                }
                Err(e) => ServeResponse::Error(e),
            }
        }
        ServeRequest::Events { events, .. } => match slot.as_mut() {
            Some(inst) => apply_events(inst, &id, events),
            None => ServeResponse::Error(ServeError::UnknownInstance { id }),
        },
        ServeRequest::Query { what, .. } => match slot.as_ref() {
            Some(inst) => query_instance(inst, &id, *what),
            None => ServeResponse::Error(ServeError::UnknownInstance { id }),
        },
        ServeRequest::Checkpoint { .. } => match slot.as_ref() {
            Some(inst) => checkpoint_instance(inst, &id),
            None => ServeResponse::Error(ServeError::UnknownInstance { id }),
        },
        ServeRequest::Inject { faults, .. } => match slot.as_mut() {
            Some(inst) => inject_instance(inst, &id, faults),
            None => ServeResponse::Error(ServeError::UnknownInstance { id }),
        },
        // Shutdown is service-level; `Service::handle` intercepts it.
        ServeRequest::Shutdown => ServeResponse::ShutdownOk,
    }
}

/// The daemon state: instances keyed by id, a thread budget for
/// cross-instance sharding, and the shutdown latch.
#[derive(Debug)]
pub struct Service {
    parallelism: Parallelism,
    instances: BTreeMap<String, Instance>,
    down: bool,
}

impl Service {
    /// A service sharding instance work over `parallelism` workers.
    /// The thread count never affects response bytes — only latency.
    pub fn new(parallelism: Parallelism) -> Self {
        Service { parallelism, instances: BTreeMap::new(), down: false }
    }

    /// A single-threaded service (the reference executor).
    pub fn sequential() -> Self {
        Service::new(Parallelism::sequential())
    }

    /// Handles one request in program order.
    pub fn handle(&mut self, req: &ServeRequest) -> ServeResponse {
        if self.down {
            return ServeResponse::Error(ServeError::AfterShutdown);
        }
        if matches!(req, ServeRequest::Shutdown) {
            self.down = true;
            return ServeResponse::ShutdownOk;
        }
        let id = req.id().expect("non-shutdown requests carry an id").to_string();
        let mut slot = self.instances.remove(&id);
        let resp = apply_to_slot(&mut slot, req);
        if let Some(inst) = slot {
            self.instances.insert(id, inst);
        }
        resp
    }

    /// Handles a whole request log, sharding instances across the
    /// worker pool. Byte-identical to folding [`Service::handle`] over
    /// the log — the per-instance request order is program order, and
    /// responses are spliced back at their request's position.
    pub fn serve_log(&mut self, reqs: &[ServeRequest]) -> Vec<ServeResponse> {
        let cut = if self.down {
            0
        } else {
            reqs.iter().position(|r| matches!(r, ServeRequest::Shutdown)).unwrap_or(reqs.len())
        };

        // Group the pre-shutdown prefix by instance id, preserving each
        // instance's request order.
        let mut by_id: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, req) in reqs.iter().take(cut).enumerate() {
            let id = req.id().expect("non-shutdown requests carry an id");
            by_id.entry(id.to_string()).or_default().push(i);
        }
        let jobs: Vec<(String, Option<Instance>, Vec<usize>)> = by_id
            .into_iter()
            .map(|(id, idxs)| {
                let inst = self.instances.remove(&id);
                (id, inst, idxs)
            })
            .collect();

        let done = ballfit_par::par_map_owned(self.parallelism, jobs, |(id, inst, idxs)| {
            let mut slot = inst;
            let outs: Vec<ServeResponse> =
                idxs.iter().map(|&i| apply_to_slot(&mut slot, &reqs[i])).collect();
            (id, slot, idxs, outs)
        });

        let mut responses: Vec<Option<ServeResponse>> = (0..reqs.len()).map(|_| None).collect();
        for (id, slot, idxs, outs) in done {
            if let Some(inst) = slot {
                self.instances.insert(id, inst);
            }
            for (i, out) in idxs.into_iter().zip(outs) {
                responses[i] = Some(out);
            }
        }
        for (i, slot) in responses.iter_mut().enumerate().skip(cut) {
            if i == cut && !self.down {
                self.down = true;
                *slot = Some(ServeResponse::ShutdownOk);
            } else {
                *slot = Some(ServeResponse::Error(ServeError::AfterShutdown));
            }
        }
        responses.into_iter().map(|r| r.expect("every request is answered")).collect()
    }

    /// Serves a JSONL transcript: one request per line, one response
    /// line per request line, in order. Blank lines are skipped; a line
    /// that fails to parse is answered in place with a typed error and
    /// never reaches an instance.
    pub fn serve_jsonl(&mut self, input: &str) -> String {
        let lines: Vec<&str> = input.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        let mut parsed: Vec<Result<ServeRequest, ServeError>> = Vec::with_capacity(lines.len());
        for line in &lines {
            parsed.push(crate::wire::parse_request(line));
        }
        let ok_reqs: Vec<ServeRequest> =
            parsed.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
        let mut ok_responses = self.serve_log(&ok_reqs).into_iter();

        let mut out = String::new();
        for p in parsed {
            let resp = match p {
                Ok(_) => ok_responses.next().expect("one response per parsed request"),
                Err(e) => ServeResponse::Error(e),
            };
            out.push_str(&crate::wire::encode_response(&resp));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_positions() -> Vec<[f64; 3]> {
        // A 3×3×3 unit lattice: at range 1.8 (diagonal neighbors in
        // reach) the center node 13 is the only non-boundary node.
        let mut pos = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    pos.push([x as f64, y as f64, z as f64]);
                }
            }
        }
        pos
    }

    fn create_req(id: &str) -> ServeRequest {
        ServeRequest::Create {
            id: id.to_string(),
            source: CreateSource::Positions { positions: tiny_positions(), range: 1.8 },
            config: WireConfig::default(),
        }
    }

    #[test]
    fn create_query_shutdown_lifecycle() {
        let mut svc = Service::sequential();
        match svc.handle(&create_req("a")) {
            ServeResponse::Created { nodes, live, .. } => {
                assert_eq!(nodes, 27);
                assert_eq!(live, 27);
            }
            other => panic!("unexpected {other:?}"),
        }
        match svc.handle(&ServeRequest::Query { id: "a".to_string(), what: QueryKind::Boundary }) {
            ServeResponse::BoundaryNodes { nodes, .. } => {
                assert_eq!(nodes.len(), 26, "all lattice nodes but the center are boundary");
                assert!(!nodes.contains(&13));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(svc.handle(&ServeRequest::Shutdown), ServeResponse::ShutdownOk);
        assert_eq!(
            svc.handle(&ServeRequest::Checkpoint { id: "a".to_string() }),
            ServeResponse::Error(ServeError::AfterShutdown)
        );
    }

    #[test]
    fn typed_errors_for_bad_targets() {
        let mut svc = Service::sequential();
        assert_eq!(
            svc.handle(&ServeRequest::Query { id: "ghost".to_string(), what: QueryKind::Groups }),
            ServeResponse::Error(ServeError::UnknownInstance { id: "ghost".to_string() })
        );
        svc.handle(&create_req("a"));
        assert_eq!(
            svc.handle(&create_req("a")),
            ServeResponse::Error(ServeError::DuplicateInstance { id: "a".to_string() })
        );
        // A batch with one bad event is rejected whole.
        let before = match svc
            .handle(&ServeRequest::Query { id: "a".to_string(), what: QueryKind::Boundary })
        {
            ServeResponse::BoundaryNodes { nodes, .. } => nodes,
            other => panic!("unexpected {other:?}"),
        };
        let resp = svc.handle(&ServeRequest::Events {
            id: "a".to_string(),
            events: vec![
                WireEvent::Leave { node: 0 },
                WireEvent::Leave { node: 0 }, // dead by the time it applies
            ],
        });
        assert_eq!(
            resp,
            ServeResponse::Error(ServeError::DeadNode { id: "a".to_string(), node: 0 })
        );
        let after = match svc
            .handle(&ServeRequest::Query { id: "a".to_string(), what: QueryKind::Boundary })
        {
            ServeResponse::BoundaryNodes { nodes, .. } => nodes,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(before, after, "rejected batch must leave the instance untouched");
    }

    #[test]
    fn stat_backend_overlays_boundary_and_survives_checkpoint_restore() {
        let mut svc = Service::sequential();
        let create = ServeRequest::Create {
            id: "s".to_string(),
            source: CreateSource::Positions { positions: tiny_positions(), range: 1.8 },
            config: WireConfig { backend: WireBackend::Stat, ..WireConfig::default() },
        };
        let (boundary0, groups0) = match svc.handle(&create) {
            ServeResponse::Created { boundary, groups, .. } => (boundary, groups),
            other => panic!("unexpected {other:?}"),
        };
        let nodes = match svc
            .handle(&ServeRequest::Query { id: "s".to_string(), what: QueryKind::Boundary })
        {
            ServeResponse::BoundaryNodes { nodes, .. } => nodes,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(nodes.len(), boundary0);
        // Degree statistics on the lattice: sparse corners are boundary,
        // the fully-connected center is not.
        assert!(nodes.contains(&0), "corner 0 should look sparse to the stat backend");
        assert!(!nodes.contains(&13), "center 13 should look dense to the stat backend");
        // Groups come from the overlay and cover exactly the boundary.
        match svc.handle(&ServeRequest::Query { id: "s".to_string(), what: QueryKind::Groups }) {
            ServeResponse::GroupList { groups, .. } => {
                assert_eq!(groups.len(), groups0);
                let mut members: Vec<usize> = groups.into_iter().flatten().collect();
                members.sort_unstable();
                assert_eq!(members, nodes);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The backend rides the checkpoint; a restore reproduces the view.
        let cp = match svc.handle(&ServeRequest::Checkpoint { id: "s".to_string() }) {
            ServeResponse::CheckpointTaken { checkpoint, .. } => checkpoint,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(cp.config.backend, WireBackend::Stat);
        match svc.handle(&ServeRequest::Restore { id: "s2".to_string(), checkpoint: cp }) {
            ServeResponse::Restored { boundary, groups, .. } => {
                assert_eq!(boundary, boundary0);
                assert_eq!(groups, groups0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Events refresh the overlay: a dead slot can never stay boundary.
        svc.handle(&ServeRequest::Events {
            id: "s".to_string(),
            events: vec![WireEvent::Leave { node: 0 }],
        });
        match svc.handle(&ServeRequest::Query { id: "s".to_string(), what: QueryKind::Boundary }) {
            ServeResponse::BoundaryNodes { nodes, .. } => {
                assert!(!nodes.contains(&0), "left node must drop out of the overlay");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_log_matches_sequential_handle_at_every_thread_count() {
        let mut log = Vec::new();
        for id in ["a", "b", "c"] {
            log.push(create_req(id));
        }
        for id in ["a", "b", "c"] {
            log.push(ServeRequest::Events {
                id: id.to_string(),
                events: vec![
                    WireEvent::Leave { node: 13 },
                    WireEvent::Join { position: [1.0, 1.0, 3.0] },
                ],
            });
            log.push(ServeRequest::Query { id: id.to_string(), what: QueryKind::Boundary });
            log.push(ServeRequest::Query { id: id.to_string(), what: QueryKind::Stats });
        }
        log.push(ServeRequest::Shutdown);
        log.push(ServeRequest::Query { id: "a".to_string(), what: QueryKind::Groups });

        let mut reference = Service::sequential();
        let expected: Vec<ServeResponse> = log.iter().map(|r| reference.handle(r)).collect();
        for threads in [1, 2, 4, 8] {
            let mut svc = Service::new(Parallelism::threads(threads));
            assert_eq!(svc.serve_log(&log), expected, "threads={threads}");
        }
    }

    #[test]
    fn jsonl_answers_malformed_lines_in_place() {
        let mut svc = Service::sequential();
        let input = "\n{\"op\":\"query\",\"id\":\"a\",\"what\":\"boundary\"}\n{broken\n{\"op\":\"shutdown\"}\n";
        let out = svc.serve_jsonl(input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"err\":\"unknown-instance\""));
        assert!(lines[1].starts_with("{\"err\":\"bad-json\""));
        assert_eq!(lines[2], "{\"ok\":\"shutdown\"}");
    }
}
