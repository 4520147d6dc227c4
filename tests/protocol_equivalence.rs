//! Integration: the message-passing protocol executions agree with the
//! centralized-equivalent executors across the whole pipeline.

use ballfit::config::{CoordinateSource, DetectorConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::grouping::group_boundaries;
use ballfit::iff::apply_iff;
use ballfit::incremental::IncrementalDetector;
use ballfit::landmarks::elect_landmarks;
use ballfit::protocols::{
    exchange, run_grouping_protocol, run_iff_protocol, run_landmark_protocol, run_ubf_protocol,
    Backoff, HardenedUbf, UbfProtocol,
};
use ballfit::view::NetView;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::Trace;
use ballfit_wsn::churn::ChurnPlan;
use ballfit_wsn::faults::FaultPlan;
use ballfit_wsn::flood::fragment_sizes;

fn model(seed: u64) -> ballfit_netgen::model::NetworkModel {
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(300)
        .interior_nodes(420)
        .target_degree(14.0)
        .seed(seed)
        .build()
        .expect("model generates")
}

#[test]
fn full_pipeline_protocols_agree_with_centralized() {
    let model = model(101);
    let cfg = DetectorConfig::paper(20, 9);
    let central = BoundaryDetector::new(cfg).detect(&model);
    let off = &mut Trace::disabled();

    // Phase 1: UBF.
    let view = NetView::from_model(&model);
    let (nodes, ubf) =
        run_ubf_protocol(&view, &cfg.coordinates, off).expect("perfect radio quiesces");
    let ubf_flags = UbfProtocol::decide_all(&nodes, view.radio_range(), &cfg.ubf, &cfg.coordinates);
    assert_eq!(ubf_flags, central.candidates);
    assert_eq!(ubf.messages, 2 * model.topology().edge_count() as u64);

    // Phase 2: IFF.
    let (sizes, _) = run_iff_protocol(model.topology(), &central.candidates, cfg.iff.ttl, off)
        .expect("perfect radio quiesces");
    assert_eq!(sizes, fragment_sizes(model.topology(), cfg.iff.ttl, |n| central.candidates[n]));
    let boundary: Vec<bool> =
        (0..model.len()).map(|i| central.candidates[i] && sizes[i] >= cfg.iff.theta).collect();
    assert_eq!(boundary, apply_iff(model.topology(), &central.candidates, &cfg.iff));
    assert_eq!(boundary, central.boundary);

    // Grouping.
    let (labels, _) =
        run_grouping_protocol(model.topology(), &boundary, off).expect("perfect radio quiesces");
    let groups = group_boundaries(model.topology(), &boundary);
    for group in &groups {
        for &member in group {
            assert_eq!(labels[member], Some(group[0]));
        }
    }

    // Landmarks on every group that can mesh.
    for group in groups.iter().filter(|g| g.len() >= 4) {
        for k in [3u32, 4] {
            let central_lm = elect_landmarks(model.topology(), group, k);
            let (protocol_lm, _) =
                run_landmark_protocol(model.topology(), group, k, &FaultPlan::none(), off)
                    .expect("election converges");
            assert_eq!(protocol_lm, central_lm, "k={k}");
        }
    }
}

#[test]
fn protocol_equivalence_across_error_levels() {
    let model = model(202);
    for error in [0u32, 40, 80] {
        let cfg = DetectorConfig::paper(error, 5);
        let central = BoundaryDetector::new(cfg).detect(&model);
        let view = NetView::from_model(&model);
        let (nodes, _) = run_ubf_protocol(&view, &cfg.coordinates, &mut Trace::disabled())
            .expect("perfect radio quiesces");
        let flags = UbfProtocol::decide_all(&nodes, view.radio_range(), &cfg.ubf, &cfg.coordinates);
        assert_eq!(flags, central.candidates, "error={error}%");
    }
}

#[test]
fn batched_ubf_decisions_match_one_decide_per_node() {
    let model = model(303);
    let view = NetView::from_model(&model);
    let topo = model.topology();
    let range = view.radio_range();
    let off = &mut Trace::disabled();
    let sources = [
        CoordinateSource::GroundTruth,
        CoordinateSource::paper_error(0, 3),
        CoordinateSource::paper_error(40, 3),
    ];
    for source in sources {
        let cfg = DetectorConfig::paper(0, 3).ubf;
        let states = UbfProtocol::for_view(&view, &source);
        let (nodes, _) = exchange(topo, "ubf", 4, &FaultPlan::none(), off, |id| states[id].clone());
        let perfect: Vec<bool> = nodes.iter().map(|n| n.decide(range, &cfg, &source)).collect();
        assert_eq!(UbfProtocol::decide_all(&nodes, range, &cfg, &source), perfect, "{source:?}");

        // Half the tables lost and never retransmitted: nodes decide from
        // partial tables.
        let backoff = Backoff { attempts: 0, ..Backoff::default() };
        let plan = FaultPlan::lossy(11, 0.5);
        let budget = HardenedUbf::round_budget(backoff, &plan);
        let (nodes, _) = exchange(topo, "hardened-ubf", budget, &plan, off, |id| {
            HardenedUbf::new(states[id].clone(), backoff)
        });
        let one_by_one: Vec<bool> = nodes.iter().map(|n| n.decide(range, &cfg, &source)).collect();
        assert_eq!(
            HardenedUbf::decide_all(&nodes, range, &cfg, &source),
            one_by_one,
            "{source:?} on a lossy radio"
        );
        assert_ne!(one_by_one, perfect, "{source:?}: the lossy radio changed no decision");
    }
}

/// After every batch of joins, leaves (which leave dead slots) and moves,
/// the fault-free hardened UBF exchange decides exactly the incremental
/// detector's candidates, slot for slot, with local-MDS frames at 0% and
/// at 20% ranging error: the verdicts `chaos::run_epoch` takes from its
/// oracle instead of embedding every frame again.
#[test]
fn churned_fault_free_ubf_matches_the_incremental_candidates() {
    let model = NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(120)
        .interior_nodes(180)
        .target_degree(13.0)
        .require_connected(false)
        .seed(404)
        .build()
        .expect("model generates");
    let plan = ChurnPlan::none()
        .with_seed(6)
        .with_epochs(4)
        .with_join_rate(0.03)
        .with_leave_rate(0.03)
        .with_move_rate(0.03)
        .with_max_drift(0.5 * model.radio_range());
    let schedule = plan.schedule(model.len());
    let (backoff, perfect, off) = (Backoff::default(), FaultPlan::none(), &mut Trace::disabled());
    for cfg in [DetectorConfig::paper(0, 0), DetectorConfig::paper(20, 9)] {
        let mut driver = ChurnDriver::new(&model, 17);
        let mut oracle = IncrementalDetector::new(cfg, driver.dynamic());
        for epoch in 0..plan.epochs {
            for ev in schedule.iter().filter(|ev| ev.epoch == epoch) {
                let (_, delta) = driver.step(ev).expect("in-shape sampling never exhausts");
                oracle.apply(driver.dynamic(), &delta);
            }
            let dynamic = driver.dynamic();
            let view = NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range());
            let states = UbfProtocol::for_view(&view, &cfg.coordinates);
            let budget = HardenedUbf::round_budget(backoff, &perfect);
            let (nodes, _) =
                exchange(view.topology(), "hardened-ubf", budget, &perfect, off, |id| {
                    HardenedUbf::new(states[id].clone(), backoff)
                });
            let flags =
                HardenedUbf::decide_all(&nodes, view.radio_range(), &cfg.ubf, &cfg.coordinates);
            assert_eq!(flags, oracle.candidates(), "{:?}, epoch {epoch}", cfg.coordinates);
        }
        let dynamic = driver.dynamic();
        assert!(dynamic.live_count() < dynamic.len(), "no leave left a dead slot");
    }
}
