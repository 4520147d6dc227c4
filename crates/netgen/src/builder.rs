//! End-to-end network generation with degree calibration.

use ballfit_geom::grid::SpatialGrid;
use ballfit_geom::Vec3;
use ballfit_rng::{Rng, StdRng};
use ballfit_wsn::Topology;

use crate::model::NetworkModel;
use crate::sampler;
use crate::scenario::Scenario;
use crate::GenError;

/// How nodes are placed inside / on the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Pure uniform rejection sampling. Matches a literal reading of the
    /// paper's "randomly uniformly distributed", but a Poisson cloud
    /// contains genuine voids that Unit Ball Fitting correctly reports as
    /// holes — inflating "mistaken" counts against surface-only ground
    /// truth.
    Uniform,
    /// TetGen-like blue noise (default): near-maximal Poisson-disk
    /// selection from a dense uniform pool. Minimum spacing plus
    /// no-large-void coverage mirror the vertex distribution of the
    /// quality tetrahedral mesher the paper generated its networks with.
    BlueNoise,
}

/// Builder for [`NetworkModel`]s.
///
/// Reproduces the paper's generation procedure (Sec. IV-A): sample
/// ground-truth boundary nodes on the model surface, an interior cloud
/// inside it, then choose a radio range so the network is connected with
/// the requested average degree (paper: 18.5 on average, range 5–45).
///
/// # Example
///
/// ```
/// use ballfit_netgen::builder::NetworkBuilder;
/// use ballfit_netgen::scenario::Scenario;
///
/// let model = NetworkBuilder::new(Scenario::SolidBox)
///     .surface_nodes(200)
///     .interior_nodes(300)
///     .target_degree(14.0)
///     .seed(3)
///     .build()
///     .expect("generation succeeds");
/// let stats = model.topology().degree_stats();
/// assert!((stats.mean - 14.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    scenario: Scenario,
    n_surface: usize,
    n_interior: usize,
    seed: u64,
    target_degree: Option<f64>,
    radio_range: Option<f64>,
    surface_shell: f64,
    interior_margin: f64,
    placement: Placement,
    require_connected: bool,
}

impl NetworkBuilder {
    /// Starts a builder for the given scenario with paper-like defaults
    /// (target degree 18.5, connectivity required).
    pub fn new(scenario: Scenario) -> Self {
        NetworkBuilder {
            scenario,
            n_surface: 500,
            n_interior: 1000,
            seed: 0,
            target_degree: Some(18.5),
            radio_range: None,
            surface_shell: 0.25,
            interior_margin: 0.35,
            placement: Placement::BlueNoise,
            require_connected: true,
        }
    }

    /// Number of ground-truth boundary nodes to sample on the surface.
    pub fn surface_nodes(mut self, n: usize) -> Self {
        self.n_surface = n;
        self
    }

    /// Number of interior nodes to sample.
    pub fn interior_nodes(mut self, n: usize) -> Self {
        self.n_interior = n;
        self
    }

    /// RNG seed (controls sampling, shuffling, and terrain noise).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Calibrate the radio range to hit this average nodal degree
    /// (mutually exclusive with [`NetworkBuilder::radio_range`]; the last
    /// call wins).
    pub fn target_degree(mut self, degree: f64) -> Self {
        assert!(degree > 0.0, "target degree must be positive");
        self.target_degree = Some(degree);
        self.radio_range = None;
        self
    }

    /// Use a fixed radio range instead of degree calibration.
    pub fn radio_range(mut self, range: f64) -> Self {
        assert!(range > 0.0, "radio range must be positive");
        self.radio_range = Some(range);
        self.target_degree = None;
        self
    }

    /// Clearance between interior nodes and the model surface (default
    /// 0.35 model units: it is compared with the shape's signed distance
    /// field, so it does not scale with the calibrated radio range).
    ///
    /// The paper builds its clouds with TetGen, whose interior mesh
    /// vertices keep roughly one tet-edge of clearance from the surface
    /// facets; without that clearance, interior nodes hugging the surface
    /// legitimately see empty space outside and are reported as
    /// (1-hop-adjacent) "mistaken" boundary nodes. Set to `0.0` for a pure
    /// uniform cloud.
    pub fn interior_margin(mut self, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        self.interior_margin = margin;
        self
    }

    /// Node placement style (default: [`Placement::BlueNoise`]).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Whether to fail when the generated network is disconnected
    /// (default: true — the paper considers well-connected networks only).
    pub fn require_connected(mut self, yes: bool) -> Self {
        self.require_connected = yes;
        self
    }

    /// Generates the network.
    ///
    /// # Errors
    ///
    /// * [`GenError::SamplingBudgetExhausted`] — shape too thin for the
    ///   requested node counts;
    /// * [`GenError::DegreeUnreachable`] — no range in the search bracket
    ///   achieves the target degree;
    /// * [`GenError::Disconnected`] — the final network has more than one
    ///   component and connectivity is required;
    /// * [`GenError::NoNodes`] — the surface or interior node count is zero.
    pub fn build(&self) -> Result<NetworkModel, GenError> {
        for (count, kind) in [(self.n_surface, "surface"), (self.n_interior, "interior")] {
            if count == 0 {
                return Err(GenError::NoNodes { kind });
            }
        }
        let sdf = self.scenario.build(self.seed);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x5851_F42D_4C95_7F2D));

        let (surface, interior) = match self.placement {
            Placement::Uniform => (
                sampler::sample_surface(&*sdf, self.n_surface, self.surface_shell, &mut rng)?,
                sampler::sample_interior(&*sdf, self.n_interior, self.interior_margin, &mut rng)?,
            ),
            Placement::BlueNoise => {
                // Dense uniform pools, thinned to near-maximal Poisson-disk
                // sets of approximately the requested sizes.
                let pool_factor = 8;
                let surface_pool = sampler::sample_surface(
                    &*sdf,
                    self.n_surface * pool_factor,
                    self.surface_shell,
                    &mut rng,
                )?;
                let (surface, _) = sampler::poisson_select(&surface_pool, self.n_surface);
                let interior_pool = sampler::sample_interior(
                    &*sdf,
                    self.n_interior * pool_factor,
                    self.interior_margin,
                    &mut rng,
                )?;
                let (interior, _) = sampler::poisson_select(&interior_pool, self.n_interior);
                (surface, interior)
            }
        };

        let mut tagged: Vec<(Vec3, bool)> = surface
            .into_iter()
            .map(|p| (p, true))
            .chain(interior.into_iter().map(|p| (p, false)))
            .collect();
        // Shuffle so node IDs carry no surface/interior signal (ID-based
        // tie-breaks in the pipeline must not be accidentally informed).
        rng.shuffle(&mut tagged);
        let positions: Vec<Vec3> = tagged.iter().map(|&(p, _)| p).collect();
        let is_surface: Vec<bool> = tagged.iter().map(|&(_, s)| s).collect();

        let range = match (self.radio_range, self.target_degree) {
            (Some(r), _) => r,
            (None, Some(target)) => calibrate_range(&positions, target)?,
            (None, None) => unreachable!("builder always has a range or target"),
        };

        let topology = Topology::from_positions(&positions, range);
        if self.require_connected {
            let components = ballfit_wsn::components::components_of(&topology, |_| true).len();
            if components != 1 {
                return Err(GenError::Disconnected { components });
            }
        }
        Ok(NetworkModel::from_parts(
            self.scenario,
            self.seed,
            positions,
            is_surface,
            range,
            topology,
        ))
    }
}

/// Bisection search for the radio range achieving the target average
/// degree. Average degree is monotone non-decreasing in the range, so
/// bisection over `(0, bounding-diagonal]` converges.
///
/// A round counts pairs only until its decision is fixed. Its test holds
/// for every average at or above some threshold (`d >= target` for
/// reachability, `d - target > 0.05 * target` in the loop), and the
/// partial average after each grid cell is a lower bound on the full one:
/// the pair count only grows, and converting it to `f64`, dividing by `n`
/// and subtracting the target are all monotone. So once the test holds
/// for a partial average, the full count would take the same branch. A
/// round whose test never holds counts every pair, so an unreachable
/// target reports the exact average.
fn calibrate_range(positions: &[Vec3], target: f64) -> Result<f64, GenError> {
    assert!(!positions.is_empty(), "cannot calibrate an empty network");
    let bounds = ballfit_geom::Aabb::from_points(positions).expect("non-empty positions");
    let mut lo = 1e-3;
    let mut hi = bounds.extent().norm().max(1e-3);

    // The average degree at range `r`, counted until `settled` holds.
    let avg_degree_until = |r: f64, settled: &dyn Fn(f64) -> bool| -> f64 {
        let grid = SpatialGrid::build(positions, r.max(1e-6));
        let avg = |pairs: u64| (2 * pairs) as f64 / positions.len() as f64;
        avg(grid.pair_count_until(positions, r, |pairs| settled(avg(pairs))))
    };

    let reached = avg_degree_until(hi, &|d| d >= target);
    if reached < target {
        return Err(GenError::DegreeUnreachable { target, achieved: reached });
    }
    let mut best = hi;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let d = avg_degree_until(mid, &|d| d - target > 0.05 * target);
        if (d - target).abs() <= 0.05 * target {
            return Ok(mid);
        }
        if d < target {
            lo = mid;
        } else {
            hi = mid;
            best = mid;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_connected_sphere_network() {
        let model = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(250)
            .interior_nodes(550)
            .target_degree(16.0)
            .seed(11)
            .build()
            .unwrap();
        assert_eq!(model.len(), 800);
        assert_eq!(model.surface_count(), 250);
        assert!(model.topology().is_connected());
        let mean = model.topology().degree_stats().mean;
        assert!((mean - 16.0).abs() < 2.0, "calibrated degree {mean}");
        // Every node is inside-or-on the shape.
        let sdf = model.shape();
        for &p in model.positions() {
            assert!(sdf.distance(p) < 0.05, "node escaped the shape: {p}");
        }
    }

    #[test]
    fn fixed_radio_range_is_respected() {
        let model = NetworkBuilder::new(Scenario::SolidBox)
            .surface_nodes(150)
            .interior_nodes(350)
            .radio_range(1.4)
            .require_connected(false)
            .seed(2)
            .build()
            .unwrap();
        assert_eq!(model.radio_range(), 1.4);
    }

    #[test]
    fn deterministic_in_seed() {
        let mk = |seed| {
            NetworkBuilder::new(Scenario::SolidBox)
                .surface_nodes(100)
                .interior_nodes(200)
                .target_degree(12.0)
                .require_connected(false)
                .seed(seed)
                .build()
                .unwrap()
        };
        let a = mk(5);
        let b = mk(5);
        let c = mk(6);
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.is_surface(), b.is_surface());
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn ground_truth_ids_are_shuffled() {
        let model = NetworkBuilder::new(Scenario::SolidBox)
            .surface_nodes(200)
            .interior_nodes(200)
            .radio_range(1.5)
            .require_connected(false)
            .seed(3)
            .build()
            .unwrap();
        // If surface nodes occupied a contiguous prefix the first 200 flags
        // would all be true; shuffling makes that astronomically unlikely.
        let prefix_true = model.is_surface()[..200].iter().filter(|&&b| b).count();
        assert!(prefix_true < 200, "ground truth not shuffled");
        assert_eq!(model.surface_count(), 200);
    }

    #[test]
    fn unreachable_degree_errors() {
        // 10 nodes cannot reach average degree 50.
        let err = NetworkBuilder::new(Scenario::SolidBox)
            .surface_nodes(5)
            .interior_nodes(5)
            .target_degree(50.0)
            .seed(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, GenError::DegreeUnreachable { .. }), "{err}");
    }

    /// The calibration that counted every pair of every bisection round,
    /// kept as the reference for the ranges and errors it returns.
    fn calibrate_range_reference(positions: &[Vec3], target: f64) -> Result<f64, GenError> {
        let bounds = ballfit_geom::Aabb::from_points(positions).expect("non-empty positions");
        let mut lo = 1e-3;
        let mut hi = bounds.extent().norm().max(1e-3);
        let avg_degree = |r: f64| -> f64 {
            let grid = SpatialGrid::build(positions, r.max(1e-6));
            let (_, arena) = grid.adjacency_csr(positions, r);
            arena.len() as f64 / positions.len() as f64
        };
        if avg_degree(hi) < target {
            return Err(GenError::DegreeUnreachable { target, achieved: avg_degree(hi) });
        }
        let mut best = hi;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let d = avg_degree(mid);
            if (d - target).abs() <= 0.05 * target {
                return Ok(mid);
            }
            if d < target {
                lo = mid;
            } else {
                hi = mid;
                best = mid;
            }
        }
        Ok(best)
    }

    /// Ranges compare by bits; errors by their target and achieved bits.
    fn calibration_bits(r: Result<f64, GenError>) -> Result<u64, (u64, u64)> {
        r.map(f64::to_bits).map_err(|e| match e {
            GenError::DegreeUnreachable { target, achieved } => {
                (target.to_bits(), achieved.to_bits())
            }
            other => panic!("unexpected calibration error {other}"),
        })
    }

    #[test]
    fn calibration_matches_the_full_count_reference() {
        let mut rng = StdRng::seed_from_u64(0xCA1);
        let mut cube: Vec<Vec3> = (0..600)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(0.0..1.0),
                )
            })
            .collect();
        let gallery = NetworkBuilder::new(Scenario::SpaceOneHole)
            .surface_nodes(200)
            .interior_nodes(300)
            .radio_range(1.0)
            .require_connected(false)
            .seed(9)
            .build()
            .unwrap();
        let clusters: Vec<Vec3> = cube
            .iter()
            .enumerate()
            .map(|(i, &p)| p * 0.1 + Vec3::new(40.0 * (i % 4) as f64, 0.0, -7.0))
            .collect();
        let few: Vec<Vec3> = cube[..10].to_vec();
        for i in 0..100 {
            let p = cube[i];
            cube.push(p);
        }
        let cases: [(&str, &[Vec3], &[f64]); 4] = [
            ("cube with duplicates", &cube, &[3.0, 12.0, 18.5, 60.0]),
            ("gallery network", gallery.positions(), &[6.0, 14.0, 18.5, 25.0]),
            ("far-apart clusters", &clusters, &[5.0, 18.5, 140.0]),
            // 10 points reach degree 9 at most: the unreachable error must
            // report the same `achieved` as a full count.
            ("ten points", &few, &[2.0, 9.0, 9.5, 50.0]),
        ];
        for (name, positions, targets) in cases {
            for &target in targets {
                assert_eq!(
                    calibration_bits(calibrate_range(positions, target)),
                    calibration_bits(calibrate_range_reference(positions, target)),
                    "{name} at target {target}"
                );
            }
        }
        let unreachable = calibrate_range(&few, 50.0).unwrap_err();
        assert_eq!(unreachable, GenError::DegreeUnreachable { target: 50.0, achieved: 9.0 });
    }

    #[test]
    fn zero_node_counts_error_in_both_placements() {
        for placement in [Placement::BlueNoise, Placement::Uniform] {
            for (surface, interior, kind) in [(0, 50, "surface"), (50, 0, "interior")] {
                let err = NetworkBuilder::new(Scenario::SolidSphere)
                    .surface_nodes(surface)
                    .interior_nodes(interior)
                    .placement(placement)
                    .build()
                    .unwrap_err();
                assert_eq!(err, GenError::NoNodes { kind }, "{placement:?}");
                assert_eq!(err.to_string(), format!("{kind} node count must be positive"));
            }
        }
    }

    #[test]
    fn disconnection_detected_at_tiny_range() {
        let err = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(50)
            .interior_nodes(50)
            .radio_range(0.05)
            .seed(4)
            .build()
            .unwrap_err();
        assert!(matches!(err, GenError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn all_paper_scenarios_generate() {
        for (i, s) in Scenario::PAPER_GALLERY.iter().enumerate() {
            let model = NetworkBuilder::new(*s)
                .surface_nodes(220)
                .interior_nodes(380)
                .target_degree(15.0)
                .require_connected(false)
                .seed(100 + i as u64)
                .build()
                .unwrap_or_else(|e| panic!("scenario {s} failed: {e}"));
            assert_eq!(model.len(), 600);
        }
    }
}
