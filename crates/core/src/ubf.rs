//! Phase 1: Unit Ball Fitting (Algorithm 1 of the paper).
//!
//! A node is a boundary candidate iff an *empty unit ball* — a ball of
//! radius `r = 1 + ε` (radio ranges) containing no neighborhood node —
//! can be placed touching it. Lemma 1 reduces the search to the balls
//! determined by the node and two of its neighbors; Theorem 1 bounds the
//! per-node work by `Θ(ρ³)` for nodal density `ρ`.
//!
//! The *localized* variant (the paper's Algorithm 1) tests only one-hop
//! neighbors both as ball-defining points and as emptiness witnesses.
//!
//! [`ubf_test`] walks the node's candidate balls with
//! [`ballfit_geom::sphere::CandidateBalls`], which builds them four
//! neighbour pairs per pass, and scans each ball's witnesses in 4-point
//! struct-of-arrays chunks. Both are bit-identical to the per-pair
//! formulation the tests keep as the reference.

use ballfit_geom::sphere::CandidateBalls;
use ballfit_geom::Vec3;

use crate::config::UbfConfig;

/// Outcome of a UBF test on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UbfOutcome {
    /// `true` if an empty unit ball touching the node exists.
    pub is_boundary: bool,
    /// Number of candidate balls examined before deciding.
    pub balls_tested: usize,
}

/// Runs the UBF test for the node at `self_index` within a neighborhood
/// given by `coords` (any rigid frame; UBF is isometry-invariant).
///
/// `radio_range` scales the configured ball-radius factor. Neighborhoods
/// with fewer than 3 members cannot define any ball; they yield
/// `is_boundary == cfg.degenerate_is_boundary`.
///
/// Candidate balls are those of
/// [`ballfit_geom::sphere::balls_through_three_points`] for the node and
/// every pair of its neighbours, in pair order; a ball is empty when no
/// member lies strictly inside it (`Sphere::strictly_contains` with the
/// configured tolerance). The kernel computes each neighbour's offset
/// once, builds the balls of four pairs per pass, and scans the witnesses
/// in branch-free chunks; the outcome, `balls_tested` included, is
/// bit-identical to that per-pair formulation, which the tests keep as
/// the reference.
///
/// # Panics
///
/// Panics if `self_index` is out of range, or if a neighborhood of at
/// least 3 members meets a ball radius that is not finite and positive.
pub fn ubf_test(
    coords: &[Vec3],
    self_index: usize,
    radio_range: f64,
    cfg: &UbfConfig,
) -> UbfOutcome {
    assert!(self_index < coords.len(), "self index out of range");
    let n = coords.len();
    if n < 3 {
        return UbfOutcome { is_boundary: cfg.degenerate_is_boundary, balls_tested: 0 };
    }
    let r = cfg.ball_radius(radio_range);
    assert!(r.is_finite() && r > 0.0, "ball radius must be positive: {r}");
    let tol = cfg.containment_tolerance * radio_range;
    // `Sphere::strictly_contains`'s bound, hoisted out of the scan.
    let limit = (r - tol) * (r - tol);
    let balls = CandidateBalls::new(coords, self_index);
    let witnesses = Witnesses::new(coords);

    let mut balls_tested = 0usize;
    let empty_ball = balls.any(r, |ball| {
        balls_tested += 1;
        !witnesses.any_within(ball.center, limit)
    });
    if empty_ball {
        return UbfOutcome { is_boundary: true, balls_tested };
    }
    if balls_tested == 0 {
        // Every triple was degenerate (collinear neighborhood or all
        // circumradii exceed r): the well-connectedness assumption
        // (Definition 3) is violated, so fall back to the degenerate
        // policy rather than claiming "interior".
        return UbfOutcome { is_boundary: cfg.degenerate_is_boundary, balls_tested: 0 };
    }
    UbfOutcome { is_boundary: false, balls_tested }
}

/// Points per witness chunk: the scan takes one branch per chunk.
const LANES: usize = 4;

/// The neighborhood as struct-of-arrays chunks of [`LANES`] points, the
/// last one padded with points at infinity: their squared distance to any
/// center is `inf` or NaN, which is below no bound.
struct Witnesses {
    chunks: Vec<[[f64; LANES]; 3]>,
}

impl Witnesses {
    fn new(coords: &[Vec3]) -> Self {
        let chunks = coords
            .chunks(LANES)
            .map(|points| {
                let mut chunk = [[f64::INFINITY; LANES]; 3];
                for (i, p) in points.iter().enumerate() {
                    chunk[0][i] = p.x;
                    chunk[1][i] = p.y;
                    chunk[2][i] = p.z;
                }
                chunk
            })
            .collect();
        Witnesses { chunks }
    }

    /// `true` if some point `p` has `p.distance_squared(center) < limit`,
    /// evaluated with `Vec3::distance_squared`'s operations and order.
    #[inline]
    fn any_within(&self, center: Vec3, limit: f64) -> bool {
        self.chunks.iter().any(|[xs, ys, zs]| {
            let mut hit = false;
            for i in 0..LANES {
                let dx = xs[i] - center.x;
                let dy = ys[i] - center.y;
                let dz = zs[i] - center.z;
                hit |= dx * dx + dy * dy + dz * dz < limit;
            }
            hit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UbfConfig {
        UbfConfig::default()
    }

    /// A node at the center of a dense spherical shell of neighbors:
    /// every unit ball touching it contains shell nodes → interior.
    #[test]
    fn interior_node_in_dense_cage_is_not_boundary() {
        let mut coords = vec![Vec3::ZERO]; // the node under test
                                           // Shell of 26 nodes at radius 0.75 (grid directions).
        for x in -1..=1 {
            for y in -1..=1 {
                for z in -1..=1 {
                    if (x, y, z) == (0, 0, 0) {
                        continue;
                    }
                    let v = Vec3::new(x as f64, y as f64, z as f64).normalized() * 0.75;
                    coords.push(v);
                }
            }
        }
        let out = ubf_test(&coords, 0, 1.0, &cfg());
        assert!(!out.is_boundary, "caged node misread as boundary");
        assert!(out.balls_tested > 0);
    }

    /// A node on a planar sheet of neighbors: the half-space above is
    /// empty, so a unit ball fits → boundary.
    #[test]
    fn node_on_a_plane_is_boundary() {
        let mut coords = vec![Vec3::ZERO];
        for x in -2..=2 {
            for y in -2..=2 {
                if (x, y) != (0, 0) {
                    coords.push(Vec3::new(x as f64 * 0.4, y as f64 * 0.4, 0.0));
                }
            }
        }
        let out = ubf_test(&coords, 0, 1.0, &cfg());
        assert!(out.is_boundary, "planar-sheet node must be boundary");
    }

    /// Nodes below a half-space of neighbors but near its edge.
    #[test]
    fn node_under_thick_slab_is_interior() {
        // Node at origin below a slab z ∈ {0.35, 0.7} of neighbors, plus
        // lateral neighbors in its own plane: every ball touching the node
        // from above hits slab nodes; from below... the slab does not
        // block below, so place the node inside a full box grid instead.
        let mut coords = vec![Vec3::ZERO];
        for x in -2..=2 {
            for y in -2..=2 {
                for z in -2..=2 {
                    if (x, y, z) == (0, 0, 0) {
                        continue;
                    }
                    coords.push(Vec3::new(x as f64, y as f64, z as f64) * 0.45);
                }
            }
        }
        let out = ubf_test(&coords, 0, 1.0, &cfg());
        assert!(!out.is_boundary);
    }

    #[test]
    fn degenerate_neighborhoods_follow_config() {
        let lonely = vec![Vec3::ZERO, Vec3::X];
        let out = ubf_test(&lonely, 0, 1.0, &cfg());
        assert!(out.is_boundary, "default marks degenerate nodes as boundary");
        assert_eq!(out.balls_tested, 0);

        let strict = UbfConfig { degenerate_is_boundary: false, ..cfg() };
        assert!(!ubf_test(&lonely, 0, 1.0, &strict).is_boundary);
    }

    /// The defining nodes themselves must not invalidate a ball
    /// (containment tolerance).
    #[test]
    fn defining_points_do_not_block_their_ball() {
        // Exactly three nodes: the ball through them is always "empty".
        let coords = vec![Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0)];
        let out = ubf_test(&coords, 0, 1.0, &cfg());
        assert!(out.is_boundary);
    }

    /// Larger ball radii ignore smaller voids (the hole-size knob of
    /// Sec. II-A3).
    #[test]
    fn ball_radius_controls_detectable_hole_size() {
        // Node on the wall of a small spherical void of radius ~0.8:
        // neighbors populate everything except the void.
        let mut coords = vec![Vec3::ZERO];
        let void_center = Vec3::new(0.78, 0.0, 0.0);
        for x in -3..=3 {
            for y in -3..=3 {
                for z in -3..=3 {
                    let p = Vec3::new(x as f64, y as f64, z as f64) * 0.4;
                    if p.norm() < 1e-9 {
                        continue;
                    }
                    if p.distance(void_center) > 0.78 && p.norm() <= 1.45 {
                        coords.push(p);
                    }
                }
            }
        }
        // r = 0.75 fits in the void → boundary of the small hole found.
        let small = UbfConfig { ball_radius_factor: 0.75, ..cfg() };
        assert!(ubf_test(&coords, 0, 1.0, &small).is_boundary);
        // r = 1.15 cannot fit into the small void → hole ignored.
        let large = UbfConfig { ball_radius_factor: 1.15, ..cfg() };
        assert!(!ubf_test(&coords, 0, 1.0, &large).is_boundary);
    }

    /// UBF is invariant under rigid motion of the local frame.
    #[test]
    fn isometry_invariance() {
        let base = vec![
            Vec3::ZERO,
            Vec3::new(0.6, 0.1, 0.0),
            Vec3::new(-0.2, 0.55, 0.2),
            Vec3::new(0.1, -0.5, 0.4),
            Vec3::new(0.3, 0.3, -0.5),
        ];
        let out1 = ubf_test(&base, 0, 1.0, &cfg());
        // Rotate 90° about z and translate.
        let moved: Vec<Vec3> =
            base.iter().map(|p| Vec3::new(-p.y, p.x, p.z) + Vec3::new(5.0, -3.0, 2.0)).collect();
        let out2 = ubf_test(&moved, 0, 1.0, &cfg());
        assert_eq!(out1.is_boundary, out2.is_boundary);
    }

    /// Collinear neighborhoods define no balls at all: the degenerate
    /// policy applies (Definition 3 violation).
    #[test]
    fn collinear_neighborhood_is_degenerate() {
        let coords = vec![Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), Vec3::new(-0.5, 0.0, 0.0)];
        let out = ubf_test(&coords, 0, 1.0, &cfg());
        assert!(out.is_boundary);
        assert_eq!(out.balls_tested, 0);
        let strict = UbfConfig { degenerate_is_boundary: false, ..cfg() };
        assert!(!ubf_test(&coords, 0, 1.0, &strict).is_boundary);
    }

    #[test]
    #[should_panic(expected = "self index out of range")]
    fn bad_self_index_panics() {
        let _ = ubf_test(&[Vec3::ZERO], 5, 1.0, &cfg());
    }

    #[test]
    fn outcomes_key_deterministic_tallies() {
        use std::collections::BTreeMap;
        let a = UbfOutcome { is_boundary: true, balls_tested: 3 };
        let b = UbfOutcome { is_boundary: false, balls_tested: 3 };
        let mut tally: BTreeMap<UbfOutcome, usize> = BTreeMap::new();
        for out in [a, b, a] {
            *tally.entry(out).or_default() += 1;
        }
        assert_eq!(tally[&a], 2);
        assert_eq!(tally.len(), 2);
    }

    /// The per-pair formulation `ubf_test` must agree with exactly:
    /// `balls_through_three_points` for every pair, then a linear scan of
    /// the neighborhood with `Sphere::strictly_contains`.
    fn reference_ubf(
        coords: &[Vec3],
        self_index: usize,
        radio_range: f64,
        cfg: &UbfConfig,
    ) -> UbfOutcome {
        use ballfit_geom::sphere::balls_through_three_points;
        let n = coords.len();
        let degenerate = UbfOutcome { is_boundary: cfg.degenerate_is_boundary, balls_tested: 0 };
        if n < 3 {
            return degenerate;
        }
        let r = cfg.ball_radius(radio_range);
        let tol = cfg.containment_tolerance * radio_range;
        let me = coords[self_index];
        let mut balls_tested = 0;
        for j in (0..n).filter(|&j| j != self_index) {
            for k in ((j + 1)..n).filter(|&k| k != self_index) {
                for ball in &balls_through_three_points(me, coords[j], coords[k], r) {
                    balls_tested += 1;
                    if coords.iter().all(|&p| !ball.strictly_contains(p, tol)) {
                        return UbfOutcome { is_boundary: true, balls_tested };
                    }
                }
            }
        }
        if balls_tested == 0 {
            return degenerate;
        }
        UbfOutcome { is_boundary: false, balls_tested }
    }

    /// Seeded neighborhoods built to hit the kernel's edge cases, each
    /// with the index of the node under test.
    fn adversarial_neighborhood(seed: u64, range: f64, r: f64) -> (Vec<Vec3>, usize) {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = |rng: &mut StdRng| {
            let v = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            v.try_normalized(1e-3).unwrap_or(Vec3::X)
        };
        let origin = Vec3::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), 0.3);
        let count = rng.gen_range(3..28);
        let mut coords = vec![origin];
        match seed % 5 {
            // On one radius-r sphere through the node: every triple is
            // tangent to or contained in the same ball.
            0 => {
                let center = origin - unit(&mut rng) * r;
                for _ in 0..count {
                    coords.push(center + unit(&mut rng) * r);
                }
            }
            // A coplanar sheet (z fixed), so every normal is ±z.
            1 => {
                for _ in 0..count {
                    let d = Vec3::new(rng.gen_range(-0.7..0.7), rng.gen_range(-0.7..0.7), 0.0);
                    coords.push(origin + d * range);
                }
            }
            // Duplicated points, the node's own position included.
            2 => {
                for _ in 0..count {
                    let p = if rng.gen_bool(0.4) {
                        coords[rng.gen_range(0..coords.len())]
                    } else {
                        origin + unit(&mut rng) * (range * rng.gen_range(0.2..1.0))
                    };
                    coords.push(p);
                }
            }
            // Fewer than 3 members.
            3 => coords.truncate(rng.gen_range(1..3)),
            // A generic neighborhood inside the radio range.
            _ => {
                for _ in 0..count {
                    coords.push(origin + unit(&mut rng) * (range * rng.gen_range(0.05..1.0)));
                }
            }
        }
        let self_index = rng.gen_range(0..coords.len());
        coords.swap(0, self_index);
        (coords, self_index)
    }

    #[test]
    fn kernel_matches_the_per_pair_reference_on_adversarial_neighborhoods() {
        let configs = [
            cfg(),
            UbfConfig { containment_tolerance: 0.0, ..cfg() },
            UbfConfig { ball_radius_factor: 0.75, ..cfg() },
            UbfConfig { ball_radius_factor: 1.15, ..cfg() },
            UbfConfig { degenerate_is_boundary: false, ..cfg() },
        ];
        let mut shapes = [0usize; 5];
        for seed in 0..600u64 {
            let range = [1.0, 0.219564, 37.5][seed as usize % 3];
            for c in &configs {
                let (coords, me) = adversarial_neighborhood(seed, range, c.ball_radius(range));
                let got = ubf_test(&coords, me, range, c);
                assert_eq!(got, reference_ubf(&coords, me, range, c), "seed {seed}, {c:?}");
                shapes[seed as usize % 5] += usize::from(got.balls_tested > 0);
            }
        }
        // Every shape but "fewer than 3" actually built balls.
        assert!(shapes[0] > 0 && shapes[1] > 0 && shapes[2] > 0 && shapes[4] > 0, "{shapes:?}");
        assert_eq!(shapes[3], 0);

        // The kernel computes the pairs (j, k..k + 4) of one j together, so
        // pair (j, k) of the node's other members sits in lane slot
        // (k − j − 1) mod 4. Sizes 3–12 give every remainder of the pair
        // count, and every slot must see each kind of pair. Tolerance
        // −range puts every defining point inside its own ball, so the
        // `full_walk` configuration visits every pair.
        let full_walk = UbfConfig { containment_tolerance: -1.0, ..cfg() };
        let mut slots = [[0usize; 4]; 4];
        for seed in 0..400u64 {
            let range = [1.0, 0.219564, 37.5][seed as usize % 3];
            let size = 3 + seed as usize % 10;
            for c in configs.iter().chain([&full_walk]) {
                let r = c.ball_radius(range);
                let (coords, me) = lane_slot_neighborhood(seed, size, range, r);
                let got = ubf_test(&coords, me, range, c);
                assert_eq!(got, reference_ubf(&coords, me, range, c), "seed {seed}, {c:?}");
            }
            let r = full_walk.ball_radius(range);
            let (coords, me) = lane_slot_neighborhood(seed, size, range, r);
            let others: Vec<Vec3> =
                coords.iter().enumerate().filter(|&(i, _)| i != me).map(|(_, &p)| p).collect();
            for j in 0..others.len() {
                for k in (j + 1)..others.len() {
                    let kind = pair_kind(coords[me], others[j], others[k], r);
                    slots[(k - j - 1) % 4][kind] += 1;
                }
            }
        }
        assert!(slots.iter().flatten().all(|&count| count > 0), "{slots:?}");
    }

    /// The pair's kind: degenerate triangle, circumradius above `r`,
    /// tangent (one ball), or two balls.
    fn pair_kind(me: Vec3, b: Vec3, c: Vec3, r: f64) -> usize {
        use ballfit_geom::sphere::balls_through_three_points;
        use ballfit_geom::Triangle;
        match balls_through_three_points(me, b, c, r).len() {
            0 if Triangle::new(me, b, c).circumcenter().is_none() => 0,
            0 => 1,
            1 => 2,
            _ => 3,
        }
    }

    /// A seeded neighbourhood of `size` members that mixes every kind of
    /// pair: points on one radius-`r` circle through the node (tangent
    /// pairs), duplicates and points collinear with the node (degenerate
    /// pairs), points far apart (circumradius above `r`) and generic
    /// points, in random order. Returns the coordinates and the node's
    /// index.
    fn lane_slot_neighborhood(seed: u64, size: usize, range: f64, r: f64) -> (Vec<Vec3>, usize) {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E);
        let unit = |rng: &mut StdRng| {
            let v = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            v.try_normalized(1e-3).unwrap_or(Vec3::X)
        };
        let origin = Vec3::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), 0.3);
        let u = unit(&mut rng);
        let v = u.cross(unit(&mut rng)).try_normalized(1e-3).unwrap_or(u.any_orthonormal());
        // The circle of radius r in the (u, v) plane that passes through
        // the node at angle 0.
        let on_circle = |t: f64| origin + (u * (t.cos() - 1.0) + v * t.sin()) * r;
        let mut coords = vec![origin];
        while coords.len() < size {
            let p = match rng.gen_range(0..5) {
                0 | 1 => on_circle(rng.gen_range(0.3..6.0)),
                2 => coords[rng.gen_range(0..coords.len())],
                3 => {
                    let q = coords[rng.gen_range(0..coords.len())];
                    origin + (q - origin) * rng.gen_range(-1.5..1.5)
                }
                _ => origin + unit(&mut rng) * (range * rng.gen_range(0.05..2.5)),
            };
            coords.push(p);
        }
        let self_index = rng.gen_range(0..coords.len());
        coords.swap(0, self_index);
        (coords, self_index)
    }

    #[test]
    fn kernel_matches_the_per_pair_reference_on_the_gallery() {
        use crate::config::CoordinateSource;
        use crate::localizer::neighborhood_frame_view;
        use crate::view::NetView;
        use ballfit_netgen::builder::NetworkBuilder;
        use ballfit_netgen::scenario::Scenario;

        let sources = [CoordinateSource::GroundTruth, CoordinateSource::paper_error(30, 7)];
        for scenario in Scenario::PAPER_GALLERY {
            // The networks of the paper's Figs. 6–10 (`scenario_gallery`).
            let (surface, interior) =
                if scenario == Scenario::BendedPipe { (500, 800) } else { (700, 1200) };
            let model = NetworkBuilder::new(scenario)
                .surface_nodes(surface)
                .interior_nodes(interior)
                .target_degree(18.5)
                .seed(42)
                .build()
                .expect("gallery network");
            let view = NetView::from_model(&model);
            let range = view.radio_range();
            for source in &sources {
                let mut boundary = 0;
                for node in 0..view.len() {
                    let Some(f) = neighborhood_frame_view(&view, node, source, 1) else {
                        continue;
                    };
                    let got = ubf_test(&f.coords, f.self_index, range, &cfg());
                    let want = reference_ubf(&f.coords, f.self_index, range, &cfg());
                    assert_eq!(got, want, "{scenario} node {node}, {source:?}");
                    boundary += usize::from(got.is_boundary);
                }
                assert!(boundary > 0, "{scenario}: no candidates, {source:?}");
            }
        }
    }

    /// E21's 10⁴-node sphere rung with ground-truth frames: every node
    /// matches the reference, and the totals match the committed
    /// `results/scale_ladder.json` row.
    #[test]
    fn kernel_matches_the_per_pair_reference_on_the_e21_sphere() {
        use crate::config::CoordinateSource;
        use crate::localizer::neighborhood_frame_view;
        use crate::view::NetView;
        use ballfit_netgen::builder::{NetworkBuilder, Placement};
        use ballfit_netgen::scenario::Scenario;

        let model = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(650)
            .interior_nodes(9_350)
            .target_degree(18.5)
            .placement(Placement::Uniform)
            .require_connected(false)
            .seed(911)
            .build()
            .expect("E21 calibration rung");
        let view = NetView::from_model(&model);
        let range = view.radio_range();
        let (mut candidates, mut balls) = (0, 0);
        for node in 0..view.len() {
            let f = neighborhood_frame_view(&view, node, &CoordinateSource::GroundTruth, 1)
                .expect("ground-truth frames always exist");
            let got = ubf_test(&f.coords, f.self_index, range, &cfg());
            assert_eq!(got, reference_ubf(&f.coords, f.self_index, range, &cfg()), "node {node}");
            candidates += usize::from(got.is_boundary);
            balls += got.balls_tested;
        }
        assert_eq!((candidates, balls), (2_976, 2_638_079));
    }
}
