//! Point sampling inside and on the surface of SDF solids.

use std::ops::RangeInclusive;

use ballfit_geom::grid::SpatialGrid;
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
    Thinning::new(pool).round(spacing)
}

/// `v.floor() as i64`, without a call: on the baseline x86-64 target
/// `f64::floor` is a call into a software `floor` routine. The cast
/// truncates toward zero and saturates (NaN gives 0), so only a negative
/// non-integer needs one subtracted, and the saturated `i64::MIN` keeps.
#[inline]
fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from((t as f64) > v))
}

/// A point's cell key at `spacing`: `floor(coord / spacing)` per axis.
#[inline]
fn thin_key(p: Vec3, spacing: f64) -> [i64; 3] {
    [p.x, p.y, p.z].map(|c| floor_i64(c / spacing))
}

/// Whether two keys differ by at most `reach` on every axis.
fn within(a: [i64; 3], b: [i64; 3], reach: u64) -> bool {
    (0..3).all(|i| a[i].abs_diff(b[i]) <= reach)
}

/// Key boxes with more cells than this per key get wider cells, so a
/// [`CellBox`] stays O(keys) whatever the coordinates.
const MAX_CELLS_PER_POINT: u64 = 32;

/// End of a [`CellGrid`] cell list, and "no blocker" in [`Thinning`].
const NIL: u32 = u32::MAX;

/// A dense array of cells spanning the box of a key set.
///
/// A cell covers `2^shift` keys per axis. `shift` is 0, one key per cell,
/// unless the key box holds more than [`MAX_CELLS_PER_POINT`] cells per
/// key; then it is the smallest shift from 2 up (cells at least three keys
/// wide) that fits. Wider cells hold points more than one key apart, so
/// their queries also compare keys.
struct CellBox {
    min: [i64; 3],
    dims: [usize; 3],
    shift: u32,
}

impl CellBox {
    /// The box of `keys`; `None` when there are none.
    fn new(keys: &[[i64; 3]]) -> Option<Self> {
        assert!(keys.len() < NIL as usize, "pool exceeds the u32 index space");
        let (&first, rest) = keys.split_first()?;
        let (min, max) = rest.iter().fold((first, first), |(lo, hi), k| {
            ([0, 1, 2].map(|a| lo[a].min(k[a])), [0, 1, 2].map(|a| hi[a].max(k[a])))
        });
        let span = [0, 1, 2].map(|a| max[a].abs_diff(min[a]));
        let cells = |shift: u32| {
            span.iter().try_fold(1u64, |n, &s| n.checked_mul((s >> shift).checked_add(1)?))
        };
        // At shift 63 the box is at most 2 cells per axis, within any
        // non-empty key set's budget.
        let budget = (keys.len() as u64).saturating_mul(MAX_CELLS_PER_POINT);
        let mut shift = 0;
        while cells(shift).is_none_or(|n| n > budget) {
            shift = shift.max(1) + 1;
        }
        let dims = span.map(|s| ((s >> shift) + 1) as usize);
        Some(CellBox { min, dims, shift })
    }

    fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// The cell of `key`.
    fn cell(&self, key: [i64; 3]) -> usize {
        let [x, y, z] = [0, 1, 2].map(|a| (key[a].abs_diff(self.min[a]) >> self.shift) as usize);
        self.row(x, y) + z
    }

    /// The cells holding keys within one of `key` on every axis: their
    /// ranges along each axis.
    #[inline]
    fn around(&self, key: [i64; 3]) -> [RangeInclusive<usize>; 3] {
        [0, 1, 2].map(|a| {
            let offset = key[a].abs_diff(self.min[a]);
            let lo = offset.saturating_sub(1) >> self.shift;
            let hi = (offset.saturating_add(1) >> self.shift).min(self.dims[a] as u64 - 1);
            lo as usize..=hi as usize
        })
    }

    /// The first cell of row `(x, y)`; the row's cells follow it along z.
    #[inline]
    fn row(&self, x: usize, y: usize) -> usize {
        (x * self.dims[1] + y) * self.dims[2]
    }
}

/// Points as singly linked lists over a [`CellBox`], filled one point at
/// a time.
struct CellGrid {
    cells: CellBox,
    /// First point of each cell, or [`NIL`].
    head: Vec<u32>,
    /// Per point: the next point in its cell, or [`NIL`].
    next: Vec<u32>,
    points: Vec<Vec3>,
    /// Per point: the caller's index for it.
    ids: Vec<u32>,
}

impl CellGrid {
    fn new(cells: CellBox) -> Self {
        CellGrid {
            head: vec![NIL; cells.len()],
            cells,
            next: Vec::new(),
            points: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// The id of the first point, in the cells holding keys within one of
    /// `key` on every axis, for which `hit` holds.
    #[inline]
    fn find(&self, key: [i64; 3], mut hit: impl FnMut(Vec3, u32) -> bool) -> Option<u32> {
        let [xs, ys, zs] = self.cells.around(key);
        for x in xs {
            for y in ys.clone() {
                let row = self.cells.row(x, y);
                for z in zs.clone() {
                    let mut j = self.head[row + z];
                    while j != NIL {
                        let id = self.ids[j as usize];
                        if hit(self.points[j as usize], id) {
                            return Some(id);
                        }
                        j = self.next[j as usize];
                    }
                }
            }
        }
        None
    }

    /// Adds a point to the cell of its key.
    fn insert(&mut self, p: Vec3, key: [i64; 3], id: u32) {
        let cell = self.cells.cell(key);
        self.next.push(self.head[cell]);
        self.head[cell] = self.points.len() as u32;
        self.points.push(p);
        self.ids.push(id);
    }
}

/// [`greedy_thin`] over one pool at a sequence of spacings, remembering
/// each rejected point's blocker from one round to the next.
///
/// A point's decision depends only on [`greedy_thin`]'s predicate: some
/// earlier point kept in this round lies within one key of it on every
/// axis and closer than the spacing. A point first retries the kept point
/// that last rejected it, and is rejected again without a grid scan when
/// that point is kept in this round, closer than the spacing and within
/// one key; otherwise the scan decides and records the blocker it finds.
/// Either way the predicate is applied exactly, so every round keeps
/// exactly [`greedy_thin`]'s points. (The key test never decides alone:
/// two points closer than the spacing always have keys within one, which
/// the reference tests search for at rounding boundaries.) Across the late
/// rounds of a bisection the spacing barely moves, so almost every retry
/// succeeds. The three arrays cost 29 bytes per pool point.
struct Thinning<'a> {
    pool: &'a [Vec3],
    /// Each point's key at the current round's spacing.
    keys: Vec<[i64; 3]>,
    /// Whether each point was kept in the current round.
    kept: Vec<bool>,
    /// The kept point that last rejected each point, or [`NIL`].
    blocker: Vec<u32>,
}

impl<'a> Thinning<'a> {
    fn new(pool: &'a [Vec3]) -> Self {
        Thinning {
            pool,
            keys: vec![[0; 3]; pool.len()],
            kept: vec![false; pool.len()],
            blocker: vec![NIL; pool.len()],
        }
    }

    /// [`greedy_thin`] at a positive `spacing`: the kept indices.
    fn round(&mut self, spacing: f64) -> Vec<usize> {
        for (key, &p) in self.keys.iter_mut().zip(self.pool) {
            *key = thin_key(p, spacing);
        }
        let Some(cells) = CellBox::new(&self.keys) else {
            return Vec::new();
        };
        let mut grid = CellGrid::new(cells);
        let s2 = spacing * spacing;
        let keys = &self.keys;
        let mut out = Vec::new();
        for (i, &p) in self.pool.iter().enumerate() {
            let key = keys[i];
            // A blocker precedes the point it blocks, so its flag is
            // already this round's.
            let last = self.blocker[i] as usize;
            let retried = self.blocker[i] != NIL
                && self.kept[last]
                && self.pool[last].distance_squared(p) < s2
                && within(keys[last], key, 1);
            let blocked = retried
                || grid
                    .find(key, |q, id| {
                        q.distance_squared(p) < s2
                            && (grid.cells.shift == 0 || within(keys[id as usize], key, 1))
                    })
                    .inspect(|&id| self.blocker[i] = id)
                    .is_some();
            self.kept[i] = !blocked;
            if !blocked {
                grid.insert(p, key, i as u32);
                out.push(i);
            }
        }
        out
    }
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
    // keeping at least `target` points. Every round runs greedy_thin.
    let mut thinning = Thinning::new(pool);
    let mut best: Option<(Vec<usize>, f64)> = None;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let kept = thinning.round(mid);
        if kept.len() >= target {
            lo = mid;
            best = Some((kept, mid));
        } else {
            hi = mid;
        }
    }
    drop(thinning);
    let (kept, spacing) = best.unwrap_or_else(|| ((0..pool.len()).collect(), 0.0));
    let points: Vec<Vec3> = kept.into_iter().map(|i| pool[i]).collect();
    if points.len() == target {
        return (points, spacing);
    }
    (trim(points, spacing, target), spacing)
}

/// Trims a selection to exactly `target` points by dropping the most
/// redundant ones (smallest nearest-neighbour distance first, ties by
/// index), which perturbs the blue-noise coverage least.
///
/// A point's nearest-neighbour distance is the minimum `distance²` over
/// the other points at most `2·cell` away whose [`SpatialGrid::key`]s at
/// `cell = max(spacing, 1e-9)` lie within two of its own on every axis:
/// the first radius of a search that doubles until it finds a point. In a
/// near-maximal set the nearest neighbour lies in `[spacing, 2·spacing)`,
/// so a dense grid of cells two keys wide (27 cells per point) finds
/// almost every minimum; only a point with nothing in that first radius
/// widens, through a [`SpatialGrid`] built the first time one does. A
/// minimum does not depend on visit order, so neither does the trim.
fn trim(points: Vec<Vec3>, spacing: f64, target: usize) -> Vec<Vec3> {
    let cell = spacing.max(1e-9);
    let radius = cell * 2.0;
    let r2 = radius * radius;
    let keys: Vec<[i64; 3]> = points
        .iter()
        .map(|&p| {
            let (x, y, z) = SpatialGrid::key(p, cell);
            [x, y, z]
        })
        .collect();
    // Cells two keys wide: the cells around a point's cell hold every key
    // within two of its own.
    let wide: Vec<[i64; 3]> = keys.iter().map(|k| k.map(|c| c >> 1)).collect();
    let cells = CellBox::new(&wide).expect("a trimmed selection is non-empty");
    // The points sorted by cell, so that each run of cells is one slice.
    let mut start = vec![0u32; cells.len() + 1];
    for &w in &wide {
        start[cells.cell(w) + 1] += 1;
    }
    for c in 0..cells.len() {
        start[c + 1] += start[c];
    }
    let mut by_cell = vec![(Vec3::ZERO, [0i64; 3], 0u32); points.len()];
    let mut fill = start.clone();
    for (i, &w) in wide.iter().enumerate() {
        let slot = &mut fill[cells.cell(w)];
        by_cell[*slot as usize] = (points[i], keys[i], i as u32);
        *slot += 1;
    }
    let mut far: Option<SpatialGrid> = None;
    let mut nn: Vec<(f64, usize)> = by_cell
        .iter()
        .map(|&(p, key, i)| {
            let mut nearest: Option<f64> = None;
            let [xs, ys, zs] = cells.around(key.map(|c| c >> 1));
            for x in xs {
                for y in ys.clone() {
                    let row = cells.row(x, y);
                    let run = start[row + zs.start()] as usize..start[row + zs.end() + 1] as usize;
                    for &(q, k, j) in &by_cell[run] {
                        let d = p.distance_squared(q);
                        if d <= r2 && j != i && within(k, key, 2) {
                            nearest = Some(nearest.map_or(d, |a| a.min(d)));
                        }
                    }
                }
            }
            let i = i as usize;
            let d = nearest.unwrap_or_else(|| {
                let grid = far.get_or_insert_with(|| SpatialGrid::build(&points, cell));
                nearest_within(grid, &points, i, radius * 2.0)
            });
            (d, i)
        })
        .collect();
    let excess = points.len() - target;
    nn.select_nth_unstable_by(excess, |a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut dropped = vec![false; points.len()];
    for &(_, i) in &nn[..excess] {
        dropped[i] = true;
    }
    points.into_iter().zip(dropped).filter(|&(_, d)| !d).map(|(p, _)| p).collect()
}

/// The smallest `distance²` from point `i` to the other points within
/// `radius`, doubling the radius until there is one.
fn nearest_within(grid: &SpatialGrid, points: &[Vec3], i: usize, mut radius: f64) -> f64 {
    loop {
        let near = grid.neighbors_within(points, i, radius);
        if let Some(d) = near
            .iter()
            .map(|&j| points[i].distance_squared(points[j]))
            .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
        {
            return d;
        }
        radius *= 2.0;
    }
}

#[cfg(test)]
mod reference;

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

    #[test]
    fn greedy_thin_matches_the_map_grid_reference() {
        let mut shifts = Vec::new();
        for (name, pool, spacings) in reference::thin_cases() {
            for spacing in spacings {
                let want = reference::reference_thin(&pool, spacing);
                assert_eq!(greedy_thin(&pool, spacing), want, "{name} at spacing {spacing}");
                let keys: Vec<[i64; 3]> = pool.iter().map(|&p| thin_key(p, spacing)).collect();
                let cells = CellBox::new(&keys).unwrap();
                let count = cells.len() as u64;
                assert!(count <= MAX_CELLS_PER_POINT * pool.len() as u64, "{name}: {count} cells");
                shifts.push(cells.shift);
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

    /// The inline floor against the library's, at signed zeros, halves,
    /// the edges of exact integers (2⁵²) and of `i64` (2⁶³), infinities,
    /// NaN and subnormals.
    #[test]
    fn floor_i64_matches_the_library_floor() {
        let two52 = 2f64.powi(52);
        let two63 = 2f64.powi(63);
        let mut values = vec![
            0.0,
            0.5,
            1.0,
            1.5,
            2.5,
            1.0f64.next_down(),
            1.0f64.next_up(),
            two52 + 0.5,
            two52 - 0.5,
            two52 + 1.0,
            two52.next_down(),
            2.0 * two52,
            2.0 * two52 + 2.0,
            two63,
            two63.next_down(),
            two63.next_up(),
            1e19,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            3.7e-5 / 0.1,
        ];
        values.extend(values.clone().into_iter().map(|v| -v));
        values.push(f64::NAN);
        for v in values {
            assert_eq!(floor_i64(v), v.floor() as i64, "{v:e}");
        }
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
