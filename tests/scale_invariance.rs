//! Integration: scaling a network by an exact power of two changes no UBF
//! verdict.
//!
//! Multiplying every position and the radio range by `2^k` is exact in
//! binary floating point, so the topology, every measured distance and
//! every local frame scale exactly, and only a tolerance that does not
//! scale with them can move a verdict or fail an assert. These scales
//! reach the local-MDS kernel's symmetry check: the rounding asymmetry of
//! a double-centred matrix of squared distances grows with `4^k`, and at
//! these `k` it exceeds an absolute `1e-8`.

use ballfit::config::DetectorConfig;
use ballfit::view::NetView;
use ballfit::{BoundaryDetection, BoundaryDetector};
use ballfit_geom::Vec3;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_wsn::Topology;

/// The scenario's network of the paper's Figs. 6–10 (`scenario_gallery`).
fn gallery(scenario: Scenario) -> NetworkModel {
    let (surface, interior) = match scenario {
        Scenario::BendedPipe => (500, 800),
        _ => (700, 1200),
    };
    NetworkBuilder::new(scenario)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(18.5)
        .seed(42)
        .build()
        .expect("gallery networks build")
}

/// Detection at 10% distance error on `model` with positions and range
/// multiplied by `scale`.
fn detect_scaled(model: &NetworkModel, scale: f64) -> (Topology, BoundaryDetection) {
    let positions: Vec<Vec3> = model.positions().iter().map(|&p| p * scale).collect();
    let range = model.radio_range() * scale;
    let topo = Topology::from_positions(&positions, range);
    let view = NetView::new(&topo, &positions, range);
    let detection = BoundaryDetector::new(DetectorConfig::paper(10, 7)).detect_view(&view);
    (topo, detection)
}

fn verdicts_survive_binary_scaling(scenario: Scenario) {
    let model = gallery(scenario);
    let (topo, base) = detect_scaled(&model, 1.0);
    assert!(base.candidates.contains(&true), "{scenario}: no candidates at scale 1");
    for k in [12, 14, 20] {
        let (scaled_topo, scaled) = detect_scaled(&model, 2f64.powi(k));
        assert_eq!(scaled_topo, topo, "{scenario} at 2^{k}: topology");
        assert_eq!(scaled.candidates, base.candidates, "{scenario} at 2^{k}: candidates");
        assert_eq!(scaled.balls_tested, base.balls_tested, "{scenario} at 2^{k}: balls");
    }
}

#[test]
fn verdicts_survive_binary_scaling_on_underwater() {
    verdicts_survive_binary_scaling(Scenario::Underwater);
}

#[test]
fn verdicts_survive_binary_scaling_on_one_hole() {
    verdicts_survive_binary_scaling(Scenario::SpaceOneHole);
}

#[test]
fn verdicts_survive_binary_scaling_on_two_holes() {
    verdicts_survive_binary_scaling(Scenario::SpaceTwoHoles);
}

#[test]
fn verdicts_survive_binary_scaling_on_bended_pipe() {
    verdicts_survive_binary_scaling(Scenario::BendedPipe);
}

#[test]
fn verdicts_survive_binary_scaling_on_sphere() {
    verdicts_survive_binary_scaling(Scenario::SolidSphere);
}
