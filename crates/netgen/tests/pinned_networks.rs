//! Literal pins of generated networks: positions, ground-truth flags,
//! radio range and edge count, hashed with FNV-1a. Every experiment and
//! every benchmark workload starts from these builds, so a change to how
//! the generator finds its answers must leave each digest unchanged.

use ballfit_netgen::builder::{NetworkBuilder, Placement};
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;

/// FNV-1a (64-bit) over a network's position bits, surface flags, range
/// bits and edge count.
fn digest(model: &NetworkModel) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in model.positions() {
        for c in [p.x, p.y, p.z] {
            eat(&c.to_bits().to_le_bytes());
        }
    }
    for &s in model.is_surface() {
        eat(&[u8::from(s)]);
    }
    eat(&model.radio_range().to_bits().to_le_bytes());
    eat(&(model.topology().edge_count() as u64).to_le_bytes());
    h
}

/// The paper gallery at seed 42 with perfbench `paper-gallery`'s sizes:
/// ~1,900 nodes (1,300 for the pipe), degree 18.5, blue noise.
#[test]
fn gallery_networks_are_pinned() {
    let want: [(Scenario, u64); 5] = [
        (Scenario::Underwater, 0x6fcb_92b5_7e8e_b904),
        (Scenario::SpaceOneHole, 0x2285_a107_4eac_90b0),
        (Scenario::SpaceTwoHoles, 0xa677_7a8c_43ee_1c2f),
        (Scenario::BendedPipe, 0xa67c_df6c_f274_93b6),
        (Scenario::SolidSphere, 0x66e8_0820_72a8_3cc1),
    ];
    for (scenario, pinned) in want {
        let (surface, interior) =
            if scenario == Scenario::BendedPipe { (500, 800) } else { (700, 1200) };
        let model = NetworkBuilder::new(scenario)
            .surface_nodes(surface)
            .interior_nodes(interior)
            .target_degree(18.5)
            .seed(42)
            .build()
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        assert_eq!(digest(&model), pinned, "{scenario}: {:#018x}", digest(&model));
    }
}

/// One `serve-churn` tenant per scenario: 80 surface and 120 interior
/// nodes at degree 12, network seed 100 + the scenario's index. The
/// bended pipe's surface pool (seed 101) keeps 81 points at its
/// selected spacing, so this pin also runs `poisson_select`'s trim.
#[test]
fn churn_tenant_networks_are_pinned() {
    let want: [u64; 7] = [
        0xd3c7_6543_923c_8fe0,
        0x129c_401f_eb09_28ea,
        0xd591_94c7_8ed3_5335,
        0xdd03_0aee_9d35_fcd9,
        0xdc23_34da_260a_cfde,
        0x5bb4_767c_1526_3925,
        0x0706_9cc8_bd55_b0ff,
    ];
    for (i, (scenario, pinned)) in Scenario::ALL.into_iter().zip(want).enumerate() {
        let model = NetworkBuilder::new(scenario)
            .surface_nodes(80)
            .interior_nodes(120)
            .target_degree(12.0)
            .require_connected(false)
            .seed(100 + i as u64)
            .build()
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        assert_eq!(digest(&model), pinned, "{scenario}: {:#018x}", digest(&model));
    }
}

/// E21's 10⁴ calibration rung (uniform sphere, seed 911): the scale
/// ladder and perfbench `scale-1e5` scale every other rung's range from
/// this one.
#[test]
fn e21_calibration_range_is_pinned() {
    let model = NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(650)
        .interior_nodes(9_350)
        .placement(Placement::Uniform)
        .target_degree(18.5)
        .require_connected(false)
        .seed(911)
        .build()
        .expect("calibration rung builds");
    let range = model.radio_range();
    assert_eq!(range.to_bits(), 0x3fde_4636_f576_fb4f, "{range} = {:#018x}", range.to_bits());
}
