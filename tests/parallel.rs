//! Integration: the parallel detection pipeline is *deterministic* — at
//! every worker-thread count the detector produces output byte-identical
//! to the sequential run. This is the `ballfit-par` contract (chunked,
//! index-ordered reassembly; no reduction-order dependence) pinned at the
//! pipeline level, on the thread ladder of the E17 acceptance criterion.

use ballfit::chaos::{run_chaos, ChaosConfig};
use ballfit::config::DetectorConfig;
use ballfit::detector::{BoundaryDetection, BoundaryDetector};
use ballfit::incremental::IncrementalDetector;
use ballfit::metrics::DetectionStats;
use ballfit::view::NetView;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_par::Parallelism;
use ballfit_wsn::churn::{ChurnEvent, ChurnPlan};

/// The E17 thread ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn model(scenario: Scenario, seed: u64) -> NetworkModel {
    NetworkBuilder::new(scenario)
        .surface_nodes(160)
        .interior_nodes(240)
        .target_degree(13.5)
        .seed(seed)
        .build()
        .unwrap()
}

fn assert_identical(a: &BoundaryDetection, b: &BoundaryDetection, what: &str) {
    assert_eq!(a.candidates, b.candidates, "{what}: candidate flags diverged");
    assert_eq!(a.boundary, b.boundary, "{what}: boundary set diverged");
    assert_eq!(a.groups, b.groups, "{what}: grouping labels diverged");
    assert_eq!(a.balls_tested, b.balls_tested, "{what}: ball-test tally diverged");
    assert_eq!(a.degenerate_nodes, b.degenerate_nodes, "{what}: degenerate set diverged");
}

/// Known coordinates (per-node sweep) and the paper's local-MDS frames
/// (lane groups of equal-size frames per worker).
fn configs() -> [DetectorConfig; 2] {
    [DetectorConfig::default(), DetectorConfig::paper(10, 7)]
}

#[test]
fn detect_view_is_byte_identical_at_every_thread_count() {
    for (scenario, seed) in [(Scenario::SpaceOneHole, 5), (Scenario::SolidSphere, 17)] {
        let model = model(scenario, seed);
        let view = NetView::from_model(&model);
        for cfg in configs() {
            let reference = BoundaryDetector::new(cfg)
                .with_parallelism(Parallelism::sequential())
                .detect_view(&view);
            for threads in THREAD_LADDER {
                let detection = BoundaryDetector::new(cfg)
                    .with_parallelism(Parallelism::threads(threads))
                    .detect_view(&view);
                let what = format!("{scenario:?}, {:?}, at {threads} threads", cfg.coordinates);
                assert_identical(&detection, &reference, &what);
            }
        }
    }
}

#[test]
fn ground_truth_metrics_are_thread_count_invariant() {
    let model = model(Scenario::SpaceOneHole, 5);
    let detection =
        BoundaryDetector::new(DetectorConfig::default()).detect_view(&NetView::from_model(&model));
    let reference = DetectionStats::evaluate_with(&model, &detection, Parallelism::sequential());
    for threads in THREAD_LADDER {
        let stats =
            DetectionStats::evaluate_with(&model, &detection, Parallelism::threads(threads));
        assert_eq!(stats, reference, "evaluate_with diverged at {threads} threads");
    }
}

/// E19 under parallelism: a full chaos run — faults injected while the
/// topology churns, every epoch graded by the watchdog — produces a
/// report equal at every ladder count to the sequential run (outcomes,
/// coverage, jaccard, lag, repair counts, events, diffs, detection).
#[test]
fn chaos_report_is_identical_at_every_thread_count() {
    let model = model(Scenario::SpaceOneHole, 21);
    let churn = ChurnPlan::none()
        .with_seed(4)
        .with_epochs(2)
        .with_join_rate(0.02)
        .with_leave_rate(0.02)
        .with_move_rate(0.02)
        .with_max_drift(0.4 * model.radio_range());
    let config = ChaosConfig::new(DetectorConfig::paper(0, 0), churn)
        .with_loss(0.20)
        .with_duplication(0.05)
        .with_max_delay(1)
        .with_crash_fraction(0.10)
        .with_fault_seed(7);
    let reference = run_chaos(&model, &config, 7, Parallelism::sequential())
        .expect("in-shape sampling never exhausts");
    assert!(!reference.events.is_empty(), "churn must actually mutate the topology");
    for threads in THREAD_LADDER {
        let report = run_chaos(&model, &config, 7, Parallelism::threads(threads))
            .expect("in-shape sampling never exhausts");
        assert_eq!(report, reference, "chaos report diverged at {threads} threads");
    }
}

/// E16 under parallelism: after every churn event, an incremental detector
/// running at each ladder count agrees byte-for-byte with the sequential
/// incremental detector *and* with a from-scratch parallel detect.
#[test]
fn incremental_maintenance_is_byte_identical_at_every_thread_count() {
    let model = model(Scenario::SpaceOneHole, 21);
    let plan = ChurnPlan::none()
        .with_seed(4)
        .with_epochs(8)
        .with_join_rate(0.04)
        .with_leave_rate(0.04)
        .with_move_rate(0.04)
        .with_max_drift(0.4 * model.radio_range());
    let schedule = plan.schedule(model.len());
    let events = schedule.len().min(60);
    for config in configs() {
        incremental_matches_at_every_thread_count(&model, config, &schedule[..events]);
    }
}

fn incremental_matches_at_every_thread_count(
    model: &NetworkModel,
    config: DetectorConfig,
    schedule: &[ChurnEvent],
) {
    let events = schedule.len();
    let run = |par: Parallelism| {
        let mut driver = ChurnDriver::new(model, 7);
        let mut inc = IncrementalDetector::new_with_parallelism(config, driver.dynamic(), par);
        let mut per_event = Vec::with_capacity(events);
        for ev in schedule {
            let (_, delta) = driver.step(ev).expect("in-shape sampling never exhausts");
            inc.apply(driver.dynamic(), &delta);
            per_event.push(inc.detection());
        }
        per_event
    };

    let reference = run(Parallelism::sequential());
    for threads in THREAD_LADDER {
        let detections = run(Parallelism::threads(threads));
        for (i, (d, r)) in detections.iter().zip(&reference).enumerate() {
            let what = format!("{:?}, event {i} at {threads} threads", config.coordinates);
            assert_identical(d, r, &what);
        }
        // And the final state matches a from-scratch parallel detect.
        let mut driver = ChurnDriver::new(model, 7);
        for ev in schedule {
            driver.step(ev).expect("in-shape sampling never exhausts");
        }
        let dynamic = driver.dynamic();
        let view = NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range());
        let full = BoundaryDetector::new(config)
            .with_parallelism(Parallelism::threads(threads))
            .detect_view(&view);
        assert_identical(
            detections.last().expect("at least one event"),
            &full,
            &format!("{:?}: incremental-vs-full at {threads} threads", config.coordinates),
        );
    }
}
