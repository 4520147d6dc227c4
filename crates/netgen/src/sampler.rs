//! Point sampling inside and on the surface of SDF solids.

use ballfit_geom::sdf::Sdf;
use ballfit_geom::Vec3;
use ballfit_rng::{Rng, StdRng};

use crate::GenError;

/// Samples a point uniformly in an axis-aligned box.
fn sample_in_bounds(rng: &mut StdRng, bounds: &ballfit_geom::Aabb) -> Vec3 {
    Vec3::new(
        rng.gen_range(bounds.min.x..=bounds.max.x),
        rng.gen_range(bounds.min.y..=bounds.max.y),
        rng.gen_range(bounds.min.z..=bounds.max.z),
    )
}

/// Rejection-samples `count` points uniformly inside the solid.
///
/// `margin` keeps points at least that far inside the surface (`distance <
/// -margin`); pass `0.0` for the full interior.
///
/// # Errors
///
/// [`GenError::SamplingBudgetExhausted`] if the acceptance rate is too low
/// to place `count` points within `count * 10_000` attempts.
pub fn sample_interior<S: Sdf + ?Sized>(
    sdf: &S,
    count: usize,
    margin: f64,
    rng: &mut StdRng,
) -> Result<Vec<Vec3>, GenError> {
    let bounds = sdf.bounds();
    let mut out = Vec::with_capacity(count);
    let budget = count.saturating_mul(10_000).max(10_000);
    let mut attempts = 0usize;
    while out.len() < count && attempts < budget {
        attempts += 1;
        let p = sample_in_bounds(rng, &bounds);
        if sdf.distance(p) < -margin {
            out.push(p);
        }
    }
    if out.len() < count {
        return Err(GenError::SamplingBudgetExhausted { placed: out.len(), requested: count });
    }
    Ok(out)
}

/// Samples `count` points (approximately uniformly) on the surface of the
/// solid: candidates are drawn from a thin shell `|distance| < shell` and
/// Newton-projected onto the zero level set.
///
/// # Errors
///
/// [`GenError::SamplingBudgetExhausted`] if not enough surface points can
/// be placed.
pub fn sample_surface<S: Sdf + ?Sized>(
    sdf: &S,
    count: usize,
    shell: f64,
    rng: &mut StdRng,
) -> Result<Vec<Vec3>, GenError> {
    assert!(shell > 0.0, "shell thickness must be positive");
    let bounds = sdf.bounds().inflated(shell);
    let mut out: Vec<Vec3> = Vec::with_capacity(count);
    let budget = count.saturating_mul(20_000).max(20_000);
    let mut attempts = 0usize;
    while out.len() < count && attempts < budget {
        attempts += 1;
        let p = sample_in_bounds(rng, &bounds);
        if sdf.distance(p).abs() > shell {
            continue;
        }
        let q = sdf.project_to_surface(p, 15);
        if sdf.distance(q).abs() > shell * 0.1 {
            continue; // projection failed to converge (e.g. CSG crease)
        }
        out.push(q);
    }
    if out.len() < count {
        return Err(GenError::SamplingBudgetExhausted { placed: out.len(), requested: count });
    }
    Ok(out)
}

/// Greedy minimum-spacing thinning: scans `pool` in order and keeps every
/// point at least `spacing` away from all previously kept points.
/// Because the pool is dense, the kept set is near-maximal: any location
/// farther than `spacing` from all kept points would have had its pool
/// candidate kept.
///
/// A pool point is tested against the kept points whose cell keys
/// `floor(coord / spacing)` lie within one of its own on every axis (the
/// 27 cells around it), with the strict `distance² < spacing²` test.
///
/// # Panics
///
/// Panics if `spacing` is negative or the pool has `u32::MAX` points or
/// more.
pub fn greedy_thin(pool: &[Vec3], spacing: f64) -> Vec<usize> {
    assert!(spacing >= 0.0, "spacing must be non-negative");
    // Exact sentinel: spacing is asserted >= 0, and exactly 0 means "keep
    // everything" — not a numeric comparison.
    // ballfit-lint: allow(float-safety)
    if spacing == 0.0 {
        return (0..pool.len()).collect();
    }
    let Some(mut grid) = ThinGrid::new(pool, spacing) else {
        return Vec::new();
    };
    let mut kept = Vec::new();
    for (i, &p) in pool.iter().enumerate() {
        let key = thin_key(p, spacing);
        if !grid.blocks(p, key) {
            grid.insert(p, key);
            kept.push(i);
        }
    }
    kept
}

/// A point's cell key at `spacing`: `floor(coord / spacing)` per axis.
fn thin_key(p: Vec3, spacing: f64) -> [i64; 3] {
    [p.x, p.y, p.z].map(|c| (c / spacing).floor() as i64)
}

/// Key boxes with more cells than this per pool point get wider cells, so
/// [`ThinGrid`] stays O(pool) whatever the coordinates.
const MAX_CELLS_PER_POINT: u64 = 32;

/// End of a [`ThinGrid`] cell list.
const NIL: u32 = u32::MAX;

/// [`greedy_thin`]'s kept points as singly linked lists over a dense cell
/// array spanning the pool's key box.
///
/// A cell covers `2^shift` keys per axis. `shift` is 0, one key per cell,
/// unless the key box holds more than [`MAX_CELLS_PER_POINT`] cells per
/// pool point; then it is the smallest shift from 2 up (cells at least
/// three keys wide) that fits. Wider cells hold points more than one key
/// apart, so their queries also compare keys.
struct ThinGrid {
    spacing: f64,
    min: [i64; 3],
    dims: [usize; 3],
    shift: u32,
    /// First kept point of each cell, or [`NIL`].
    head: Vec<u32>,
    /// Per kept point: the next kept point in its cell, or [`NIL`].
    next: Vec<u32>,
    kept: Vec<Vec3>,
}

impl ThinGrid {
    /// An empty grid over the key box of `pool`; `None` for an empty pool.
    fn new(pool: &[Vec3], spacing: f64) -> Option<Self> {
        assert!(pool.len() < NIL as usize, "pool exceeds the u32 index space");
        let mut keys = pool.iter().map(|&p| thin_key(p, spacing));
        let first = keys.next()?;
        let (min, max) = keys.fold((first, first), |(lo, hi), k| {
            ([0, 1, 2].map(|a| lo[a].min(k[a])), [0, 1, 2].map(|a| hi[a].max(k[a])))
        });
        let span = [0, 1, 2].map(|a| max[a].abs_diff(min[a]));
        let cells = |shift: u32| {
            span.iter().try_fold(1u64, |n, &s| n.checked_mul((s >> shift).checked_add(1)?))
        };
        // At shift 63 the box is at most 2 cells per axis, within any
        // non-empty pool's budget.
        let budget = (pool.len() as u64).saturating_mul(MAX_CELLS_PER_POINT);
        let mut shift = 0;
        while cells(shift).is_none_or(|n| n > budget) {
            shift = shift.max(1) + 1;
        }
        let dims = span.map(|s| ((s >> shift) + 1) as usize);
        Some(ThinGrid {
            spacing,
            min,
            dims,
            shift,
            head: vec![NIL; dims.iter().product()],
            next: Vec::new(),
            kept: Vec::new(),
        })
    }

    /// Whether a kept point within one key of `key` on every axis lies
    /// closer than the spacing to `p`.
    fn blocks(&self, p: Vec3, key: [i64; 3]) -> bool {
        let s2 = self.spacing * self.spacing;
        let [xs, ys, zs] = [0, 1, 2].map(|a| {
            let offset = key[a].abs_diff(self.min[a]);
            let lo = offset.saturating_sub(1) >> self.shift;
            let hi = (offset.saturating_add(1) >> self.shift).min(self.dims[a] as u64 - 1);
            lo as usize..=hi as usize
        });
        for x in xs {
            for y in ys.clone() {
                let row = (x * self.dims[1] + y) * self.dims[2];
                for z in zs.clone() {
                    let mut j = self.head[row + z];
                    while j != NIL {
                        let q = self.kept[j as usize];
                        if q.distance_squared(p) < s2
                            && (self.shift == 0 || within_one(thin_key(q, self.spacing), key))
                        {
                            return true;
                        }
                        j = self.next[j as usize];
                    }
                }
            }
        }
        false
    }

    /// Adds a kept point to the cell of its key.
    fn insert(&mut self, p: Vec3, key: [i64; 3]) {
        let [x, y, z] = [0, 1, 2].map(|a| (key[a].abs_diff(self.min[a]) >> self.shift) as usize);
        let cell = (x * self.dims[1] + y) * self.dims[2] + z;
        self.next.push(self.head[cell]);
        self.head[cell] = self.kept.len() as u32;
        self.kept.push(p);
    }
}

/// Whether two keys differ by at most one on every axis.
fn within_one(a: [i64; 3], b: [i64; 3]) -> bool {
    (0..3).all(|i| a[i].abs_diff(b[i]) <= 1)
}

/// Selects a near-maximal Poisson-disk subset of `pool` with approximately
/// `target` points, by bisecting the spacing. Returns `(points, spacing)`.
///
/// This emulates the vertex distribution of a quality tetrahedral mesher
/// (TetGen in the paper): minimum spacing between nodes *and* no large
/// empty voids, the property that keeps Unit Ball Fitting free of interior
/// false positives on the paper's workloads.
///
/// # Panics
///
/// Panics if `target == 0` or the pool is smaller than `target`.
pub fn poisson_select(pool: &[Vec3], target: usize) -> (Vec<Vec3>, f64) {
    assert!(target > 0, "target must be positive");
    assert!(pool.len() >= target, "pool smaller than target");
    let bounds = ballfit_geom::Aabb::from_points(pool).expect("non-empty pool");
    let mut lo = 0.0f64;
    let mut hi = bounds.extent().norm().max(1e-6);
    // count(spacing) is monotone non-increasing; find the largest spacing
    // keeping at least `target` points.
    let mut best: Option<(Vec<usize>, f64)> = None;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let kept = greedy_thin(pool, mid);
        if kept.len() >= target {
            lo = mid;
            best = Some((kept, mid));
        } else {
            hi = mid;
        }
    }
    let (kept, spacing) = best.unwrap_or_else(|| ((0..pool.len()).collect(), 0.0));
    let points: Vec<Vec3> = kept.into_iter().map(|i| pool[i]).collect();
    if points.len() == target {
        return (points, spacing);
    }
    // Trim to the exact target by dropping the most redundant points
    // (smallest nearest-neighbor distance first), which perturbs the
    // blue-noise coverage least. One grid-accelerated NN pass suffices —
    // the excess is a small fraction of the selection.
    let grid = ballfit_geom::grid::SpatialGrid::build(&points, spacing.max(1e-9));
    let mut nn: Vec<(f64, usize)> = (0..points.len())
        .map(|i| {
            // Nearest neighbor is at distance in [spacing, 2·spacing) for a
            // near-maximal set; widen the search radius until found.
            let mut radius = spacing.max(1e-9) * 2.0;
            loop {
                let near = grid.neighbors_within(&points, i, radius);
                if let Some(d) = near
                    .iter()
                    .map(|&j| points[i].distance_squared(points[j]))
                    .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
                {
                    return (d, i);
                }
                radius *= 2.0;
            }
        })
        .collect();
    nn.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let drop: std::collections::BTreeSet<usize> =
        nn.iter().take(points.len() - target).map(|&(_, i)| i).collect();
    let trimmed: Vec<Vec3> =
        points.iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, &p)| p).collect();
    (trimmed, spacing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballfit_geom::sdf::SphereSdf;

    #[test]
    fn interior_points_are_inside() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let pts = sample_interior(&s, 500, 0.0, &mut rng).unwrap();
        assert_eq!(pts.len(), 500);
        for p in &pts {
            assert!(s.contains(*p));
        }
    }

    #[test]
    fn interior_margin_is_respected() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        let pts = sample_interior(&s, 200, 0.5, &mut rng).unwrap();
        for p in &pts {
            assert!(s.distance(*p) < -0.5 + 1e-12);
        }
    }

    #[test]
    fn interior_sampling_is_roughly_uniform() {
        // Halves of the ball should get comparable counts.
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let pts = sample_interior(&s, 2000, 0.0, &mut rng).unwrap();
        let upper = pts.iter().filter(|p| p.z > 0.0).count();
        assert!((800..=1200).contains(&upper), "upper half has {upper} of 2000");
    }

    #[test]
    fn surface_points_lie_on_surface() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let pts = sample_surface(&s, 300, 0.2, &mut rng).unwrap();
        assert_eq!(pts.len(), 300);
        for p in &pts {
            assert!(s.distance(*p).abs() < 0.02, "off-surface point {p}");
        }
    }

    /// A field with no zero level set: every point is 1 outside, so no
    /// candidate ever lands in the sampling shell.
    #[derive(Debug)]
    struct NoSurface;

    impl Sdf for NoSurface {
        fn distance(&self, _: Vec3) -> f64 {
            1.0
        }

        fn bounds(&self) -> ballfit_geom::Aabb {
            ballfit_geom::Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
        }
    }

    #[test]
    fn surfaceless_shape_exhausts_budget() {
        let err = sample_surface(&NoSurface, 3, 0.2, &mut StdRng::seed_from_u64(6)).unwrap_err();
        assert!(matches!(err, GenError::SamplingBudgetExhausted { placed: 0, requested: 3 }));
        let msg = err.to_string();
        assert!(msg.contains("budget exhausted"), "{msg}");
    }

    #[test]
    fn greedy_thin_enforces_spacing_and_maximality() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let pool = sample_interior(&s, 3000, 0.0, &mut rng).unwrap();
        let spacing = 0.5;
        let kept = greedy_thin(&pool, spacing);
        // Pairwise spacing.
        for (ai, &a) in kept.iter().enumerate() {
            for &b in &kept[ai + 1..] {
                assert!(pool[a].distance(pool[b]) >= spacing - 1e-12);
            }
        }
        // Near-maximality: every pool point is within `spacing` of a kept one.
        for &p in &pool {
            let near = kept.iter().any(|&k| pool[k].distance(p) < spacing);
            assert!(near, "pool point {p} uncovered");
        }
        // spacing == 0 keeps everything.
        assert_eq!(greedy_thin(&pool[..50], 0.0).len(), 50);
    }

    /// The `BTreeMap` grid `greedy_thin` searched before its flat grid,
    /// kept as the reference its decisions are pinned to.
    fn greedy_thin_reference(pool: &[Vec3], spacing: f64) -> Vec<usize> {
        if spacing == 0.0 {
            return (0..pool.len()).collect();
        }
        let key = |p: Vec3| -> (i64, i64, i64) {
            (
                (p.x / spacing).floor() as i64,
                (p.y / spacing).floor() as i64,
                (p.z / spacing).floor() as i64,
            )
        };
        let mut grid: std::collections::BTreeMap<(i64, i64, i64), Vec<usize>> =
            std::collections::BTreeMap::new();
        let s2 = spacing * spacing;
        let mut kept = Vec::new();
        'pool: for (i, &p) in pool.iter().enumerate() {
            let (cx, cy, cz) = key(p);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        if let Some(bucket) = grid.get(&(cx + dx, cy + dy, cz + dz)) {
                            if bucket.iter().any(|&j| pool[j].distance_squared(p) < s2) {
                                continue 'pool;
                            }
                        }
                    }
                }
            }
            grid.entry((cx, cy, cz)).or_default().push(i);
            kept.push(i);
        }
        kept
    }

    fn uniform_box(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi), rng.gen_range(lo..hi)))
            .collect()
    }

    /// Seeded pools that stress the thinning grid's keys and bounds, each
    /// with the spacings to thin it at.
    fn thin_cases() -> Vec<(&'static str, Vec<Vec3>, Vec<f64>)> {
        let ball = sample_interior(
            &SphereSdf::new(Vec3::ZERO, 2.0),
            3000,
            0.0,
            &mut StdRng::seed_from_u64(70),
        )
        .unwrap();
        let mut coincident = uniform_box(150, 71, -1.0, 1.0);
        for i in 0..150 {
            coincident.push(coincident[i]);
            coincident.push(coincident[(i * 7) % 150]);
        }
        // Lattice points on exact multiples of the spacing, some nudged by
        // one ulp either way: keys on cell boundaries and pair distances
        // equal to the spacing, which the strict test must keep apart.
        let step = 0.25;
        let mut lattice = Vec::new();
        let mut rng = StdRng::seed_from_u64(72);
        for x in -4..4 {
            for y in -4..4 {
                for z in -4..4 {
                    let nudge = |c: f64, r: u32| match r {
                        0 => c.next_down(),
                        1 => c.next_up(),
                        _ => c,
                    };
                    let c = [x, y, z].map(|k| k as f64 * step);
                    lattice.push(Vec3::new(
                        nudge(c[0], rng.gen_range(0..4)),
                        nudge(c[1], rng.gen_range(0..4)),
                        nudge(c[2], rng.gen_range(0..4)),
                    ));
                }
            }
        }
        let negative = uniform_box(800, 73, -10.0, -7.0);
        let tiny = uniform_box(300, 74, 0.0, 1.0);
        // Far-apart clusters and a sparse line: their key boxes at these
        // spacings hold far more cells than the pools have points.
        let mut clusters = Vec::new();
        for (k, offset) in [0.0, 1e5, -3e6].into_iter().enumerate() {
            let shift = Vec3::new(offset, -0.5 * offset, 0.25 * offset);
            clusters
                .extend(uniform_box(200, 75 + k as u64, 0.0, 1.0).into_iter().map(|p| p + shift));
        }
        let line: Vec<Vec3> = (0..400)
            .map(|i| Vec3::new(i as f64 * 0.37 + 1e4 * (i % 3) as f64, 0.1 * (i % 5) as f64, 0.0))
            .collect();
        vec![
            ("uniform ball", ball, vec![0.05, 0.2, 0.5, 1.3]),
            ("coincident points", coincident, vec![1e-9, 0.1, 0.4]),
            ("exact multiples of the spacing", lattice, vec![step, 2.0 * step, 0.5 * step]),
            ("negative coordinates", negative, vec![0.1, 0.35, 1.0]),
            ("spacing above the extent", tiny, vec![2.0, 50.0]),
            ("key box dwarfs the pool", clusters, vec![0.05, 0.2]),
            ("sparse line", line, vec![0.3, 0.5, 1.0]),
        ]
    }

    #[test]
    fn greedy_thin_matches_the_map_grid_reference() {
        let mut shifts = Vec::new();
        for (name, pool, spacings) in thin_cases() {
            for spacing in spacings {
                let want = greedy_thin_reference(&pool, spacing);
                assert_eq!(greedy_thin(&pool, spacing), want, "{name} at spacing {spacing}");
                let grid = ThinGrid::new(&pool, spacing).unwrap();
                let cells = grid.head.len() as u64;
                assert!(cells <= MAX_CELLS_PER_POINT * pool.len() as u64, "{name}: {cells} cells");
                shifts.push(grid.shift);
            }
        }
        assert!(shifts.contains(&0) && shifts.iter().any(|&s| s >= 2), "{shifts:?}");
        assert!(greedy_thin(&[], 0.5).is_empty());
        // Saturated keys: a key box of 2^64 cells per axis still gets a
        // bounded grid.
        let far = [
            Vec3::new(1e300, 0.0, 0.0),
            Vec3::new(-1e300, 0.0, 0.0),
            Vec3::new(f64::MAX, f64::MIN, 0.0),
            Vec3::ZERO,
            Vec3::new(0.5, 0.0, 0.0),
        ];
        assert_eq!(greedy_thin(&far, 1.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn poisson_select_hits_target_approximately() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let mut rng = StdRng::seed_from_u64(8);
        let pool = sample_interior(&s, 4000, 0.0, &mut rng).unwrap();
        let (pts, spacing) = poisson_select(&pool, 400);
        assert_eq!(pts.len(), 400);
        assert!(spacing > 0.0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert!(pts[i].distance(pts[j]) >= spacing - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "pool smaller than target")]
    fn poisson_select_pool_too_small_panics() {
        let _ = poisson_select(&[Vec3::ZERO], 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let s = SphereSdf::new(Vec3::ZERO, 2.0);
        let a = sample_interior(&s, 50, 0.0, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = sample_interior(&s, 50, 0.0, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
