//! Spheres and the fixed-radius ball construction at the heart of
//! Unit Ball Fitting (UBF).
//!
//! [`balls_through_three_points`] is Eq. (1) for one triple.
//! [`CandidateBalls`] is the same construction for one node and every pair
//! of its neighbours (Lemma 1): it computes each neighbour's offset once and
//! the balls of four pairs per pass, in fixed-size struct-of-arrays lanes
//! that compile to packed SSE2 arithmetic. Each lane performs the scalar
//! operations in the scalar order, so both give the same bits.

use crate::{Vec3, EPS};

/// A sphere (ball) with a center and radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Center of the sphere.
    pub center: Vec3,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Vec3, radius: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "invalid sphere radius: {radius}");
        Sphere { center, radius }
    }

    /// Returns `true` if `p` lies strictly inside the sphere, with a shrink
    /// margin `tol` (points within `tol` of the surface count as outside).
    #[inline]
    pub fn strictly_contains(&self, p: Vec3, tol: f64) -> bool {
        crate::predicates::strictly_inside_ball(p, self.center, self.radius, tol)
    }

    /// Returns `true` if `p` lies on the sphere surface within `tol`.
    #[inline]
    pub fn touches(&self, p: Vec3, tol: f64) -> bool {
        (p.distance(self.center) - self.radius).abs() <= tol
    }

    /// Signed distance from `p` to the sphere surface (negative inside).
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f64 {
        p.distance(self.center) - self.radius
    }

    /// Volume of the ball.
    #[inline]
    pub fn volume(&self) -> f64 {
        (4.0 / 3.0) * std::f64::consts::PI * self.radius.powi(3)
    }
}

/// The balls [`balls_through_three_points`] found: none, one or two,
/// held inline so that constructing them never allocates.
///
/// Dereferences to the slice of the balls that exist.
#[derive(Debug, Clone, Copy)]
pub struct Balls {
    spheres: [Sphere; 2],
    len: usize,
}

impl Balls {
    const NONE: Balls = Balls { spheres: [Sphere { center: Vec3::ZERO, radius: 0.0 }; 2], len: 0 };
}

impl std::ops::Deref for Balls {
    type Target = [Sphere];

    #[inline]
    fn deref(&self) -> &[Sphere] {
        &self.spheres[..self.len]
    }
}

impl<'a> IntoIterator for &'a Balls {
    type Item = &'a Sphere;
    type IntoIter = std::slice::Iter<'a, Sphere>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Neighbour pairs whose candidate balls one pass of Eq. (1) computes
/// together: two SSE2 registers of `f64`. Four was the fastest width for
/// UBF over E21's 10⁵-node sphere on one thread of an AMD EPYC (2 lanes
/// 415 ms, 4 lanes 369 ms, 8 lanes 426 ms).
const LANES: usize = 4;

/// A point given relative to an apex: `p − apex` together with its
/// squared length, the two per-point terms of Eq. (1).
#[derive(Debug, Clone, Copy)]
struct Offset {
    d: Vec3,
    d2: f64,
}

impl Offset {
    #[inline]
    fn new(apex: Vec3, p: Vec3) -> Self {
        let d = p - apex;
        Offset { d, d2: d.norm_squared() }
    }
}

/// [`LANES`] offsets from one apex, one array per term.
#[derive(Debug, Clone, Copy)]
struct OffsetLanes {
    x: [f64; LANES],
    y: [f64; LANES],
    z: [f64; LANES],
    d2: [f64; LANES],
}

/// Eq. (1) for one apex, one offset `b` and [`LANES`] offsets `c`: per
/// lane, the degeneracy terms `|n|²` and `|n|` of `n = b × c`, the
/// circumcentre, `h² = r² − R²`, and both ball centres `circumcentre ± h ·
/// n/|n|`. Every lane is computed, degenerate or not; [`BallLanes::any`]
/// decides which centres are balls.
#[derive(Debug, Clone, Copy)]
struct BallLanes {
    n2: [f64; LANES],
    n_len: [f64; LANES],
    h2: [f64; LANES],
    center: [[f64; LANES]; 3],
    plus: [[f64; LANES]; 3],
    minus: [[f64; LANES]; 3],
}

impl BallLanes {
    /// Each lane performs the scalar operations below on its own operands,
    /// in this order: those of [`crate::Triangle::circumcenter`] and
    /// [`crate::Triangle::normal`] on the triangle `(apex, apex + b, apex +
    /// c)`, whose edge cross product is computed once for both. The lane
    /// loop has a fixed trip count and no branch, so LLVM packs it into
    /// SSE2 instructions, which round each lane exactly like scalar code.
    #[inline]
    fn new(apex: Vec3, b: Offset, c: &OffsetLanes, r: f64) -> Self {
        let mut out = BallLanes {
            n2: [0.0; LANES],
            n_len: [0.0; LANES],
            h2: [0.0; LANES],
            center: [[0.0; LANES]; 3],
            plus: [[0.0; LANES]; 3],
            minus: [[0.0; LANES]; 3],
        };
        for l in 0..LANES {
            let cd = Vec3::new(c.x[l], c.y[l], c.z[l]);
            // n = ab × ac is both Triangle::circumcenter's plane vector and
            // Triangle::normal's area vector.
            let n = b.d.cross(cd);
            let n2 = n.norm_squared();
            let n_len = n2.sqrt();
            let offset = (n.cross(b.d) * c.d2[l] + cd.cross(n) * b.d2) / (2.0 * n2);
            let center = apex + offset;
            let h2 = r * r - center.distance_squared(apex);
            let normal = n / n_len;
            let h = h2.sqrt();
            let plus = center + normal * h;
            let minus = center - normal * h;
            (out.n2[l], out.n_len[l], out.h2[l]) = (n2, n_len, h2);
            for (column, v) in
                [(&mut out.center, center), (&mut out.plus, plus), (&mut out.minus, minus)]
            {
                (column[0][l], column[1][l], column[2][l]) = (v.x, v.y, v.z);
            }
        }
        out
    }

    /// Walks lane `l`'s balls until `stop` returns `true`, and returns
    /// whether it did: no ball when the triangle is degenerate (both of the
    /// triangle formulation's tests stay) or its circumradius exceeds `r`,
    /// the circumcentre alone when the two mirror balls coincide, else the
    /// `+n` ball, then the `−n` ball.
    #[inline]
    fn any(&self, l: usize, r: f64, stop: &mut impl FnMut(&Sphere) -> bool) -> bool {
        let (n2, n_len, h2) = (self.n2[l], self.n_len[l], self.h2[l]);
        if n2 <= EPS * EPS || n_len <= EPS || h2 < -EPS {
            return false;
        }
        let ball = |v: &[[f64; LANES]; 3]| Sphere {
            center: Vec3::new(v[0][l], v[1][l], v[2][l]),
            radius: r,
        };
        if h2 <= EPS {
            // Tangent case: single ball with its center in the triangle plane.
            return stop(&ball(&self.center));
        }
        stop(&ball(&self.plus)) || stop(&ball(&self.minus))
    }
}

/// Computes the balls of radius `r` whose surface passes through the three
/// points `a`, `b`, `c` — the construction of Eq. (1) in the paper.
///
/// Geometrically: the centers are the circumcenter of the triangle offset
/// along ± its plane normal by `sqrt(r² − R²)`, where `R` is the
/// circumradius.
///
/// Returns:
/// * no ball when the triangle is degenerate or `R > r` (no such ball
///   exists),
/// * one ball when `R ≈ r` (the two mirror solutions coincide),
/// * two mirror-image balls otherwise.
///
/// This is [`CandidateBalls`]' lane kernel with one live lane, so the two
/// agree bit for bit.
///
/// # Panics
///
/// Panics if `r` is not finite and positive.
///
/// # Example
///
/// ```
/// use ballfit_geom::{Vec3, sphere::balls_through_three_points};
/// let balls = balls_through_three_points(
///     Vec3::new(0.5, 0.0, 0.0),
///     Vec3::new(-0.5, 0.0, 0.0),
///     Vec3::new(0.0, 0.5, 0.0),
///     1.0,
/// );
/// assert_eq!(balls.len(), 2);
/// assert!((balls[0].center.z + balls[1].center.z).abs() < 1e-12);
/// ```
pub fn balls_through_three_points(a: Vec3, b: Vec3, c: Vec3, r: f64) -> Balls {
    assert!(r.is_finite() && r > 0.0, "ball radius must be positive: {r}");
    let c = Offset::new(a, c);
    let lanes =
        OffsetLanes { x: [c.d.x; LANES], y: [c.d.y; LANES], z: [c.d.z; LANES], d2: [c.d2; LANES] };
    let mut balls = Balls::NONE;
    BallLanes::new(a, Offset::new(a, b), &lanes, r).any(0, r, &mut |ball| {
        balls.spheres[balls.len] = *ball;
        balls.len += 1;
        false
    });
    balls
}

/// The candidate balls of Lemma 1 for one node: the balls of a fixed radius
/// through the node (the *apex*) and every pair of the other points.
///
/// The offsets `p − apex` and their squared lengths are computed once, into
/// one allocation of four struct-of-arrays columns padded by `LANES − 1`
/// zeros. [`CandidateBalls::any`] then computes the balls of a pair `(j, k)`
/// and the next three pairs `(j, k + 1..k + 4)` in one pass.
///
/// # Example
///
/// ```
/// use ballfit_geom::{sphere::CandidateBalls, Vec3};
/// let points = [Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0)];
/// let mut seen = 0;
/// let stopped = CandidateBalls::new(&points, 0).any(1.0, |_| {
///     seen += 1;
///     false
/// });
/// assert!(!stopped);
/// assert_eq!(seen, 2); // the two mirror balls of the one pair
/// ```
#[derive(Debug, Clone)]
pub struct CandidateBalls {
    apex: Vec3,
    len: usize,
    columns: Vec<f64>,
}

impl CandidateBalls {
    /// The candidate balls through `points[apex]` and every pair of the
    /// other points, which keep their order.
    ///
    /// # Panics
    ///
    /// Panics if `apex` is out of range.
    pub fn new(points: &[Vec3], apex: usize) -> Self {
        let me = points[apex];
        let len = points.len() - 1;
        let stride = len + LANES - 1;
        let mut columns = vec![0.0; 4 * stride];
        let (x, rest) = columns.split_at_mut(stride);
        let (y, rest) = rest.split_at_mut(stride);
        let (z, d2) = rest.split_at_mut(stride);
        let others = points.iter().enumerate().filter(|&(i, _)| i != apex);
        for (slot, (_, &p)) in others.enumerate() {
            let o = Offset::new(me, p);
            (x[slot], y[slot], z[slot], d2[slot]) = (o.d.x, o.d.y, o.d.z, o.d2);
        }
        CandidateBalls { apex: me, len, columns }
    }

    /// Walks the radius-`r` candidate balls in pair order — `(j, k)` for
    /// `j < k` in the order of the points, and per pair the balls of
    /// [`balls_through_three_points`]`(apex, p_j, p_k, r)` in its order —
    /// and returns `true` at the first ball `stop` returns `true` for;
    /// `false` when no ball stops the walk.
    ///
    /// The balls are those of [`balls_through_three_points`] bit for bit.
    /// A pass computes up to three pairs past the one that stops the walk;
    /// `stop` never sees them.
    ///
    /// `r` must be finite and positive; the caller checks it once.
    #[inline]
    pub fn any(&self, r: f64, mut stop: impl FnMut(&Sphere) -> bool) -> bool {
        debug_assert!(r.is_finite() && r > 0.0, "ball radius must be positive: {r}");
        let stride = self.len + LANES - 1;
        let (x, rest) = self.columns.split_at(stride);
        let (y, rest) = rest.split_at(stride);
        let (z, d2) = rest.split_at(stride);
        let lanes = |column: &[f64], k: usize| -> [f64; LANES] {
            column[k..k + LANES].try_into().expect("columns are padded by LANES - 1")
        };
        for j in 0..self.len {
            let b = Offset { d: Vec3::new(x[j], y[j], z[j]), d2: d2[j] };
            for k in (j + 1..self.len).step_by(LANES) {
                let c = OffsetLanes {
                    x: lanes(x, k),
                    y: lanes(y, k),
                    z: lanes(z, k),
                    d2: lanes(d2, k),
                };
                let batch = BallLanes::new(self.apex, b, &c, r);
                for l in 0..LANES.min(self.len - k) {
                    if batch.any(l, r, &mut stop) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_membership() {
        let s = Sphere::new(Vec3::ZERO, 1.0);
        assert!(s.strictly_contains(Vec3::new(0.5, 0.0, 0.0), 1e-9));
        assert!(!s.strictly_contains(Vec3::X, 1e-9));
        assert!(s.touches(Vec3::X, 1e-9));
        assert!(!s.touches(Vec3::new(0.9, 0.0, 0.0), 1e-9));
        assert!((s.signed_distance(Vec3::new(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((s.volume() - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid sphere radius")]
    fn negative_radius_panics() {
        let _ = Sphere::new(Vec3::ZERO, -1.0);
    }

    #[test]
    fn two_mirror_balls() {
        let a = Vec3::new(0.5, 0.0, 0.0);
        let b = Vec3::new(-0.5, 0.0, 0.0);
        let c = Vec3::new(0.0, 0.5, 0.0);
        let balls = balls_through_three_points(a, b, c, 1.0);
        assert_eq!(balls.len(), 2);
        for ball in &balls {
            for p in [a, b, c] {
                assert!(ball.touches(p, 1e-9), "ball must touch all three points");
            }
        }
        // Mirror symmetry across the z = 0 plane.
        assert!((balls[0].center.z + balls[1].center.z).abs() < 1e-12);
        assert!(balls[0].center.z.abs() > 0.1);
    }

    #[test]
    fn no_ball_when_circumradius_exceeds_r() {
        // Circumradius of this triangle is 2 > 1 → no unit ball through it.
        let a = Vec3::new(2.0, 0.0, 0.0);
        let b = Vec3::new(-2.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 2.0, 0.0);
        assert!(balls_through_three_points(a, b, c, 1.0).is_empty());
    }

    #[test]
    fn tangent_case_single_ball() {
        // Equatorial triangle: circumradius exactly r → one ball centered in plane.
        let r = 1.0;
        let a = Vec3::new(r, 0.0, 0.0);
        let b = Vec3::new(-r, 0.0, 0.0);
        let c = Vec3::new(0.0, r, 0.0);
        let balls = balls_through_three_points(a, b, c, r);
        assert_eq!(balls.len(), 1);
        assert!(balls[0].center.norm() < 1e-6);
    }

    #[test]
    fn degenerate_triangle_yields_nothing() {
        let a = Vec3::ZERO;
        let b = Vec3::X;
        let c = Vec3::new(2.0, 0.0, 0.0);
        assert!(balls_through_three_points(a, b, c, 1.0).is_empty());
    }

    #[test]
    fn works_in_arbitrary_orientation() {
        // Rotate/translate a known configuration and verify touch invariants.
        let base =
            [Vec3::new(0.3, 0.1, 0.0), Vec3::new(-0.2, 0.4, 0.1), Vec3::new(0.0, -0.3, 0.35)];
        let shift = Vec3::new(10.0, -5.0, 2.5);
        let pts: Vec<Vec3> = base.iter().map(|&p| p + shift).collect();
        let balls = balls_through_three_points(pts[0], pts[1], pts[2], 1.0);
        assert_eq!(balls.len(), 2);
        for ball in &balls {
            for &p in &pts {
                assert!(ball.touches(p, 1e-9));
            }
        }
    }

    /// Eq. (1) as `Triangle::circumcenter` and `Triangle::normal` compute
    /// it, into a `Vec`: the formulation the per-offset kernel must
    /// reproduce bit for bit.
    fn reference_balls(a: Vec3, b: Vec3, c: Vec3, r: f64) -> Vec<Sphere> {
        let tri = crate::Triangle::new(a, b, c);
        let (center, normal) = match (tri.circumcenter(), tri.normal()) {
            (Some(o), Some(n)) => (o, n),
            _ => return Vec::new(),
        };
        let h2 = r * r - center.distance_squared(a);
        if h2 < -EPS {
            return Vec::new();
        }
        if h2 <= EPS {
            return vec![Sphere::new(center, r)];
        }
        let h = h2.sqrt();
        vec![Sphere::new(center + normal * h, r), Sphere::new(center - normal * h, r)]
    }

    #[test]
    fn offsets_reproduce_the_triangle_formulation_bit_for_bit() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(2010);
        let bits = |s: &Sphere| [s.center.x, s.center.y, s.center.z, s.radius].map(f64::to_bits);
        let mut counts = [0usize; 3];
        for i in 0..20_000 {
            let mut point = |scale: f64| {
                Vec3::new(
                    rng.gen_range(-scale..scale),
                    rng.gen_range(-scale..scale),
                    rng.gen_range(-scale..scale),
                )
            };
            let r = [1.0, 0.5, 1.0 + 1e-6][i % 3];
            let mut a = point(50.0);
            let mut b = a + point(1.0);
            let c = match i % 5 {
                // Near-collinear and coincident points.
                0 => a + (b - a) * 2.0 + point(1e-9),
                1 => b,
                // On a circle of radius r: the tangent case.
                2 => {
                    let o = a;
                    let u = point(1.0).try_normalized(1e-3).unwrap_or(Vec3::X);
                    let v = u.cross(point(1.0)).try_normalized(1e-3).unwrap_or(u.any_orthonormal());
                    let on_circle = |t: f64| o + (u * t.cos() + v * t.sin()) * r;
                    a = on_circle(0.3);
                    b = on_circle(2.0);
                    on_circle(4.4)
                }
                _ => a + point(1.0),
            };
            let got = balls_through_three_points(a, b, c, r);
            let want = reference_balls(a, b, c, r);
            assert_eq!(got.len(), want.len(), "{a} {b} {c} r={r}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g), bits(w), "{a} {b} {c} r={r}");
            }
            counts[got.len()] += 1;
        }
        assert!(counts.iter().all(|&k| k > 0), "every ball count occurs: {counts:?}");
    }
}
