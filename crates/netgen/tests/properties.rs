//! Property tests for the scenario generator, over seeded random inputs.

use ballfit_geom::sdf::Sdf;
use ballfit_netgen::measure::{DistanceOracle, ErrorModel};
use ballfit_netgen::sampler::{sample_interior, sample_surface};
use ballfit_netgen::scenario::Scenario;
use ballfit_rng::{Rng, StdRng};

/// Seeded cases per property; case `c` draws from `StdRng::seed_from_u64(c)`.
const CASES: u64 = 24;

/// Interior samples are strictly inside; surface samples are within
/// the shell of the zero level set — for every scenario and seed.
#[test]
fn samples_respect_the_shape() {
    for case in 0..CASES {
        let mut draw = StdRng::seed_from_u64(case);
        let scenario = Scenario::PAPER_GALLERY[draw.gen_range(0..5usize)];
        let seed = draw.gen_range(0..50u64);
        let sdf = scenario.build(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let interior = sample_interior(&*sdf, 40, 0.0, &mut rng).unwrap();
        for p in &interior {
            assert!(sdf.distance(*p) < 0.0, "case {case}: {scenario}: interior point escaped");
        }
        let surface = sample_surface(&*sdf, 30, 0.25, &mut rng).unwrap();
        for p in &surface {
            assert!(
                sdf.distance(*p).abs() < 0.05,
                "case {case}: {scenario}: surface point off-surface by {}",
                sdf.distance(*p)
            );
        }
    }
}

/// The uniform error model stays within its band and the oracle is
/// symmetric for arbitrary pairs.
#[test]
fn oracle_band_and_symmetry() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let i = rng.gen_range(0..5000usize);
        let j = rng.gen_range(0..5000usize);
        let d = rng.gen_range(0.0..2.0);
        let fraction = rng.gen_range(0.0..1.0);
        let seed = rng.gen_range(0..100u64);
        let oracle = DistanceOracle::new(ErrorModel::UniformRadius { fraction }, 1.0, seed);
        let m1 = oracle.measure(i, j, d);
        let m2 = oracle.measure(j, i, d);
        assert_eq!(m1, m2, "case {case}: oracle asymmetric");
        assert!(m1 >= 0.0, "case {case}");
        assert!(m1 >= (d - fraction) - 1e-12, "case {case}: below band: {m1} vs {d}±{fraction}");
        assert!(m1 <= d + fraction + 1e-12, "case {case}: above band: {m1} vs {d}±{fraction}");
    }
}

/// Proportional errors scale with the true distance.
#[test]
fn proportional_band() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let d = rng.gen_range(0.01..5.0);
        let fraction = rng.gen_range(0.0..0.9);
        let seed = rng.gen_range(0..50u64);
        let oracle = DistanceOracle::new(ErrorModel::Proportional { fraction }, 1.0, seed);
        let m = oracle.measure(1, 2, d);
        assert!(m >= d * (1.0 - fraction) - 1e-12, "case {case}: {m} vs {d}·(1±{fraction})");
        assert!(m <= d * (1.0 + fraction) + 1e-12, "case {case}: {m} vs {d}·(1±{fraction})");
    }
}
