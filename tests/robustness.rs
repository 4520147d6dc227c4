//! Integration: the hardened protocol stack still reproduces the
//! centralized detector on an unreliable radio.
//!
//! Acceptance scenario (ISSUE 2): on the `SolidSphere` reference model,
//! with seeded link loss ≤ 10% and ≤ 5% of nodes transiently crashed,
//! hardened UBF and hardened grouping must produce exactly the
//! centralized detector's candidate flags and component labels. The
//! retransmission budgets are sized so every lost table/label is
//! re-offered until it lands; determinism of the fault layer makes this
//! test exactly reproducible.
//!
//! Acceptance scenario (ISSUE 7): the chaos runtime combines those radio
//! faults with live topology churn. With 10% loss and 5% transient
//! crashes during 2%-per-epoch churn on the one-hole scenario, every
//! epoch must converge *exactly* to the incremental oracle; past the
//! retry budget the run must return a typed `Degraded` outcome with a
//! coverage figure — never panic or hang. Checkpointing mid-churn and
//! restoring must replay byte-identically to the uninterrupted run.

use ballfit::chaos::{run_chaos, ChaosConfig};
use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::grouping::group_boundaries;
use ballfit::incremental::IncrementalDetector;
use ballfit::protocols::{
    run_grouping_protocol, run_hardened_grouping, run_hardened_iff, run_hardened_ubf,
    run_iff_protocol, run_ubf_protocol, Backoff,
};
use ballfit::view::NetView;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::Trace;
use ballfit_par::Parallelism;
use ballfit_wsn::churn::{ChurnPlan, DynamicTopology, TopologyEvent};
use ballfit_wsn::faults::FaultPlan;
use ballfit_wsn::flood::{fragment_sizes, HardenedFragmentFlood};
use ballfit_wsn::sim::Simulator;

fn model() -> NetworkModel {
    NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(200)
        .interior_nodes(300)
        .target_degree(14.0)
        .seed(77)
        .build()
        .expect("reference model generates")
}

/// ≤ 10% base link loss, some duplication and delay, and 5% of nodes
/// down from round 1 through round 5 (transient fail-stop).
fn acceptance_plan(n: usize) -> FaultPlan {
    FaultPlan::lossy(2026, 0.10).with_duplication(0.05).with_max_delay(1).with_random_crashes(
        n,
        0.05,
        1,
        Some(6),
    )
}

#[test]
fn hardened_pipeline_matches_centralized_under_loss_and_crashes() {
    let model = model();
    let cfg = DetectorConfig::paper(10, 3);
    let central = BoundaryDetector::new(cfg).detect(&model);
    let plan = acceptance_plan(model.len());
    let retry = Backoff::default();
    let view = NetView::from_model(&model);
    let off = &mut Trace::disabled();

    // Phase 1: hardened UBF matches the centralized candidate flags.
    let (flags, ubf) = run_hardened_ubf(&view, &cfg.ubf, &cfg.coordinates, retry, &plan, off)
        .expect("hardened UBF quiesces under the acceptance plan");
    assert_eq!(flags, central.candidates, "hardened UBF diverged under faults");

    // Phase 2: hardened IFF flood reproduces the fragment sizes exactly —
    // max-TTL tracking makes the flood monotone, so with enough repeats
    // it converges to the shortest-path TTL semantics of the centralized
    // count despite loss and transient crashes.
    let ttl = cfg.iff.ttl;
    let candidates = &central.candidates;
    let (flood_sizes, _) = run_hardened_iff(model.topology(), candidates, ttl, 8, &plan, off)
        .expect("hardened flood must quiesce");
    let sizes = fragment_sizes(model.topology(), ttl, |i| candidates[i]);
    for (i, &size) in sizes.iter().enumerate() {
        assert_eq!(flood_sizes[i], size, "fragment size diverged at node {i}");
    }
    let theta = cfg.iff.theta;
    let via_protocol: Vec<bool> =
        (0..model.len()).map(|i| candidates[i] && flood_sizes[i] >= theta).collect();
    assert_eq!(via_protocol, central.boundary, "IFF filtering diverged under faults");

    // Phase 3: hardened grouping matches the centralized components.
    let (labels, grouping) =
        run_hardened_grouping(model.topology(), &central.boundary, retry, &plan, off)
            .expect("hardened grouping quiesces under the acceptance plan");
    let groups = group_boundaries(model.topology(), &central.boundary);
    for group in &groups {
        for &m in group {
            assert_eq!(labels[m], Some(group[0]), "node {m} mislabeled under faults");
        }
    }
    for (i, (label, &member)) in labels.iter().zip(&central.boundary).enumerate() {
        if !member {
            assert_eq!(*label, None, "non-member {i} acquired a label");
        }
    }

    // The radio genuinely misbehaved, and hardening has a real cost.
    assert!(ubf.messages > 0 && grouping.messages > 0);
}

#[test]
fn acceptance_plan_actually_injects_faults() {
    let model = model();
    let plan = acceptance_plan(model.len());
    let cfg = DetectorConfig::paper(10, 3);
    let retry = Backoff::default();
    let states_run = run_hardened_ubf(
        &NetView::from_model(&model),
        &cfg.ubf,
        &cfg.coordinates,
        retry,
        &plan,
        &mut Trace::disabled(),
    );
    // Re-run cheaply via the raw engine to inspect fault counters.
    let mut sim =
        Simulator::new(model.topology(), |id| HardenedFragmentFlood::new(id % 2 == 0, 3, 4));
    let stats = sim.run_with_faults(60 + plan.round_slack(), &plan);
    assert!(stats.faults.dropped > 0, "plan dropped nothing");
    assert!(stats.faults.crash_lost > 0, "plan crashed no deliveries");
    assert!(states_run.is_ok());
}

#[test]
fn hardened_stack_under_zero_faults_equals_plain_stack() {
    let model = model();
    let cfg = DetectorConfig::paper(10, 3);
    let retry = Backoff::default();
    let none = FaultPlan::none();
    let view = NetView::from_model(&model);
    let topo = model.topology();
    let off = &mut Trace::disabled();

    let (plain_flags, _) =
        run_ubf_protocol(&view, &cfg.ubf, &cfg.coordinates, off).expect("plain quiesces");
    let (hard_flags, _) = run_hardened_ubf(&view, &cfg.ubf, &cfg.coordinates, retry, &none, off)
        .expect("hardened quiesces");
    assert_eq!(hard_flags, plain_flags);

    // One repeat on a perfect radio: the plain flood's sizes and messages.
    let central = BoundaryDetector::new(cfg).detect(&model);
    let ttl = cfg.iff.ttl;
    let (plain_sizes, plain_flood) =
        run_iff_protocol(topo, &central.candidates, ttl, off).expect("plain quiesces");
    let (hard_sizes, hard_flood) =
        run_hardened_iff(topo, &central.candidates, ttl, 1, &none, off).expect("hardened quiesces");
    assert_eq!(hard_sizes, plain_sizes);
    assert_eq!(hard_flood.messages, plain_flood.messages, "repeats = 1 adds no messages");

    let (plain_labels, _) =
        run_grouping_protocol(topo, &central.boundary, off).expect("plain quiesces");
    let (hard_labels, _) = run_hardened_grouping(topo, &central.boundary, retry, &none, off)
        .expect("hardened quiesces");
    assert_eq!(hard_labels, plain_labels);
}

// ---------------------------------------------------------------------------
// ISSUE 7: chaos runtime — faults under churn, recovery, degradation.
// ---------------------------------------------------------------------------

/// The chaos reference network: the one-hole scenario at the size the
/// committed E19 sweep (`results/chaos_sweep.json`) runs at.
fn chaos_model() -> NetworkModel {
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(120)
        .interior_nodes(180)
        .target_degree(12.0)
        .require_connected(false)
        .seed(11)
        .build()
        .expect("chaos model generates")
}

/// 2%-per-epoch churn with the E19 seeds.
fn chaos_churn(model: &NetworkModel, epochs: usize) -> ChurnPlan {
    ChurnPlan::none()
        .with_seed(9)
        .with_epochs(epochs)
        .with_join_rate(0.02)
        .with_leave_rate(0.02)
        .with_move_rate(0.02)
        .with_max_drift(0.5 * model.radio_range())
}

/// The chaos acceptance pin: 10% loss plus 5% transient crashes while
/// the topology churns at 2% per epoch — every epoch converges exactly
/// to the incremental oracle on the same churned topology. (This is the
/// `loss=0.1, crash=0.05, rate=0.02` cell of the committed E19 sweep.)
#[test]
fn chaos_converges_exact_under_loss_crashes_and_churn() {
    let model = chaos_model();
    let config = ChaosConfig::new(DetectorConfig::paper(0, 0), chaos_churn(&model, 4))
        .with_loss(0.10)
        .with_duplication(0.05)
        .with_max_delay(1)
        .with_crash_fraction(0.05)
        .with_fault_seed(7);
    let report = run_chaos(&model, &config, 0x00C0_FFEE, Parallelism::default())
        .expect("in-shape sampling never exhausts");
    assert!(!report.events.is_empty(), "churn must actually mutate the topology");
    assert_eq!(
        report.exact_epochs(),
        report.epochs.len(),
        "every epoch must be exact under the acceptance faults: {:?}",
        report.epochs.iter().map(|e| &e.outcome).collect::<Vec<_>>()
    );
    assert!(report.min_coverage() >= 1.0, "exact epochs have full coverage");
    // Repairs prove the radio genuinely misbehaved and recovery worked.
    assert!(report.epochs.iter().map(|e| e.repairs).sum::<u64>() > 0, "no repairs spent");
}

/// Past the retry budget the watchdog degrades gracefully: a typed
/// outcome with a coverage figure and a cause — never a panic or hang.
#[test]
fn chaos_past_retry_budget_degrades_with_typed_outcome() {
    let model = chaos_model();
    let churn = ChurnPlan::none()
        .with_seed(9)
        .with_epochs(2)
        .with_join_rate(0.02)
        .with_leave_rate(0.02)
        .with_move_rate(0.05)
        .with_max_drift(0.5 * model.radio_range());
    let config = ChaosConfig::new(DetectorConfig::paper(0, 0), churn)
        .with_loss(0.30)
        .with_duplication(0.05)
        .with_max_delay(1)
        .with_crash_fraction(0.20)
        .with_crash_window(1, None) // permanent crashes: no revival
        .with_fault_seed(7);
    let report = run_chaos(&model, &config, 0x00C0_FFEE, Parallelism::default())
        .expect("chaos never errors on radio faults");
    let degraded: Vec<_> = report.epochs.iter().filter(|e| !e.outcome.is_exact()).collect();
    assert!(!degraded.is_empty(), "20% permanent crashes at 30% loss must degrade some epoch");
    for e in &degraded {
        let coverage = e.outcome.coverage();
        assert!((0.0..1.0).contains(&coverage), "degraded coverage {coverage} out of range");
        assert!(e.outcome.cause().is_some(), "degraded outcome must carry a cause");
        assert!(!e.outcome.boundary().is_empty(), "partial boundary still reported");
    }
}

/// The crash-recovery pin: snapshot the dynamic topology and checkpoint
/// the incremental detector mid-churn, restore both, replay the
/// remaining events — adjacency, candidates, boundary and groups must be
/// byte-identical to the uninterrupted run.
#[test]
fn checkpoint_restore_replays_byte_identically() {
    let model = chaos_model();
    let plan = chaos_churn(&model, 6);
    let schedule = plan.schedule(model.len());
    // Resolve the schedule into concrete topology events once, so the
    // interrupted and uninterrupted replicas replay the same stream.
    let mut driver = ballfit_netgen::churn::ChurnDriver::new(&model, 0x00C0_FFEE);
    let events: Vec<TopologyEvent> = schedule
        .iter()
        .map(|ev| driver.step(ev).expect("in-shape sampling never exhausts").0)
        .collect();
    assert!(events.len() >= 8, "need a non-trivial event stream, got {}", events.len());
    let config = DetectorConfig::paper(0, 0);

    // Uninterrupted run.
    let mut full_dyn = DynamicTopology::new(model.positions(), model.radio_range());
    let mut full_inc = IncrementalDetector::new(config, &full_dyn);
    for ev in &events {
        let delta = full_dyn.apply(ev);
        full_inc.apply(&full_dyn, &delta);
    }

    // Interrupted run: crash after event k, restore, replay the rest.
    let k = events.len() / 2;
    let (snapshot, checkpoint) = {
        let mut part_dyn = DynamicTopology::new(model.positions(), model.radio_range());
        let mut part_inc = IncrementalDetector::new(config, &part_dyn);
        for ev in &events[..k] {
            let delta = part_dyn.apply(ev);
            part_inc.apply(&part_dyn, &delta);
        }
        (part_dyn.snapshot(), part_inc.checkpoint())
    }; // the pre-crash replica is dropped here — only the snapshots survive
    snapshot.validate();
    let mut rec_dyn = DynamicTopology::restore(&snapshot);
    let mut rec_inc = IncrementalDetector::restore(&checkpoint, Parallelism::sequential());
    for ev in &events[k..] {
        let delta = rec_dyn.apply(ev);
        rec_inc.apply(&rec_dyn, &delta);
    }

    assert_eq!(rec_dyn.topology(), full_dyn.topology(), "adjacency diverged after restore");
    assert_eq!(rec_dyn.positions(), full_dyn.positions(), "positions diverged after restore");
    let full_state = full_inc.checkpoint();
    let rec_state = rec_inc.checkpoint();
    assert_eq!(rec_state.candidates, full_state.candidates, "candidates diverged after restore");
    assert_eq!(rec_state.boundary, full_state.boundary, "boundary diverged after restore");
    assert_eq!(rec_state.groups, full_state.groups, "groups diverged after restore");
    assert_eq!(rec_state, full_state, "detector state diverged after restore");
    assert_eq!(rec_inc.detection(), full_inc.detection(), "detection diverged after restore");
}
