//! Uniform spatial hash grid for fixed-radius neighbor queries.
//!
//! Building radio adjacency for an `n`-node network naively costs `O(n²)`
//! distance checks; the paper's networks have thousands of nodes and the
//! experiment harness sweeps many of them, so the generator bins points into
//! cells of side `cell_size` and only inspects the 27 neighboring cells.
//!
//! Two adjacency builders are provided: [`SpatialGrid::adjacency`] returns
//! per-node `Vec`s (the historical shape, kept as the reference for
//! equality pins), and [`SpatialGrid::adjacency_csr`] emits a flat CSR
//! (offsets + neighbor arena) in two counting passes with no per-node or
//! transient pair allocation — the million-node path, where peak RSS is
//! essentially the size of the finished arena.
//!
//! The cells live in a `BTreeMap`, which point inserts, removals and
//! queries need. An adjacency build instead walks a snapshot of the map —
//! keys in order, members and their positions flattened — finding each
//! cell's neighbour cells with one forward-only cursor per half-offset,
//! in the map walk's pair order.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::Vec3;

/// Cell coordinates are clamped to `±KEY_CLAMP` before the `i64` cast.
///
/// Without the clamp, a coordinate like `1e300` saturates the float→int
/// cast to `i64::MAX` and the `±reach` cell-scan offsets overflow (a panic
/// under debug assertions, silent wraparound in release — neighbors could
/// be looked up in the wrong cell). Clamping is monotone and shifts any
/// in-range pair of cell coordinates by at most their true separation, so
/// the `±reach` scan still covers every candidate pair: points beyond the
/// clamp collapse into the boundary cells, where the exact distance test
/// keeps results correct (merely scanning more candidates). At `2^40`
/// cells the clamp is far outside every generated scene, so normal-scale
/// behavior is bit-identical.
const KEY_CLAMP: f64 = (1i64 << 40) as f64;

/// A uniform spatial hash over a set of points, supporting radius queries.
///
/// # Example
///
/// ```
/// use ballfit_geom::{grid::SpatialGrid, Vec3};
/// let pts = vec![Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), Vec3::new(3.0, 0.0, 0.0)];
/// let grid = SpatialGrid::build(&pts, 1.0);
/// let mut near = grid.neighbors_within(&pts, 0, 1.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    // BTreeMap rather than HashMap: `adjacency` iterates the cells, and
    // deterministic cell order keeps whole-pipeline runs bit-reproducible.
    cells: BTreeMap<(i64, i64, i64), Vec<usize>>,
    // The reach-1 half-neighborhood scan offsets (14 entries), hoisted
    // out of the adjacency builders: every radius-≤-cell_size adjacency
    // call — the hot path, since `Topology::from_positions` builds grids
    // with `cell_size == range` — reuses this vector instead of
    // reallocating it per invocation.
    half_offsets_r1: Vec<(i64, i64, i64)>,
}

/// Half-neighborhood cell offsets for a given reach: the origin plus every
/// offset lexicographically greater than it, so a cell-pair scan visits
/// each unordered pair exactly once.
fn half_offsets(reach: i64) -> Vec<(i64, i64, i64)> {
    let mut o = Vec::new();
    for dx in -reach..=reach {
        for dy in -reach..=reach {
            for dz in -reach..=reach {
                if (dx, dy, dz) >= (0, 0, 0) {
                    o.push((dx, dy, dz));
                }
            }
        }
    }
    o
}

impl SpatialGrid {
    /// Builds a grid over `points` with the given `cell_size`.
    ///
    /// For radius-`r` queries, `cell_size >= r` gives the classic
    /// 27-cell scan; smaller cells also work but scan more cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn build(points: &[Vec3], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive: {cell_size}"
        );
        let mut cells: BTreeMap<(i64, i64, i64), Vec<usize>> = BTreeMap::new();
        for (i, &p) in points.iter().enumerate() {
            cells.entry(Self::key(p, cell_size)).or_default().push(i);
        }
        SpatialGrid { cell_size, cells, half_offsets_r1: half_offsets(1) }
    }

    #[inline]
    fn cell_coord(x: f64, cell: f64) -> i64 {
        // NaN clamps to NaN and casts to 0 — same cell NaN always hashed to.
        (x / cell).floor().clamp(-KEY_CLAMP, KEY_CLAMP) as i64
    }

    /// The cell `p` falls in at `cell`: `floor(coord / cell)` per axis,
    /// clamped to `±2^40` — where [`SpatialGrid::build`] bins it.
    #[inline]
    pub fn key(p: Vec3, cell: f64) -> (i64, i64, i64) {
        (Self::cell_coord(p.x, cell), Self::cell_coord(p.y, cell), Self::cell_coord(p.z, cell))
    }

    /// The hoisted offset table when it covers `reach`, else a fresh one.
    fn offsets_for(&self, reach: i64) -> Cow<'_, [(i64, i64, i64)]> {
        if reach <= 1 {
            Cow::Borrowed(&self.half_offsets_r1)
        } else {
            Cow::Owned(half_offsets(reach))
        }
    }

    #[inline]
    fn reach_for(&self, radius: f64) -> i64 {
        // The clamp keeps a pathological radius/cell ratio from producing
        // a reach the ±offset arithmetic could overflow on; past the key
        // clamp every cell is within reach anyway.
        (radius / self.cell_size).ceil().clamp(0.0, 2.0 * KEY_CLAMP) as i64
    }

    /// Cell side length this grid was built with.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Inserts point-index `i`, located at `p`, into the grid. The caller
    /// is responsible for keeping the backing `points` slice consistent
    /// (`points[i] == p` whenever a query runs) and for not inserting the
    /// same index twice.
    ///
    /// Together with [`SpatialGrid::remove`] this supports dynamic point
    /// sets (network churn): membership changes cost one bucket update
    /// instead of an `O(n)` rebuild.
    pub fn insert(&mut self, i: usize, p: Vec3) {
        self.cells.entry(Self::key(p, self.cell_size)).or_default().push(i);
    }

    /// Removes point-index `i` from the grid, where `p` is the position it
    /// was inserted under (the cell is derived from `p`, so it must be the
    /// same value — not a later position).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not present in the cell of `p`.
    pub fn remove(&mut self, i: usize, p: Vec3) {
        let key = Self::key(p, self.cell_size);
        let bucket = self.cells.get_mut(&key).expect("SpatialGrid::remove: cell is empty");
        let at = bucket.iter().position(|&x| x == i).expect("SpatialGrid::remove: index in cell");
        bucket.remove(at);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
    }

    /// Indices of all points within distance `radius` of `points[query]`,
    /// excluding `query` itself. `points` must be the same slice the grid
    /// was built from.
    pub fn neighbors_within(&self, points: &[Vec3], query: usize, radius: f64) -> Vec<usize> {
        let center = points[query];
        let mut out = self.points_within(points, center, radius);
        out.retain(|&i| i != query);
        out
    }

    /// Indices of all points within distance `radius` of an arbitrary
    /// location `center`.
    pub fn points_within(&self, points: &[Vec3], center: Vec3, radius: f64) -> Vec<usize> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let r2 = radius * radius;
        let reach = self.reach_for(radius);
        let (cx, cy, cz) = Self::key(center, self.cell_size);
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy, cz + dz)) {
                        for &i in bucket {
                            if points[i].distance_squared(center) <= r2 {
                                out.push(i);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The point pairs within `radius`, ready to walk: the occupied cells
    /// flattened in key order, with the half-neighbourhood offsets that
    /// `radius` needs.
    fn pairs_within(&self, points: &[Vec3], radius: f64) -> PairWalk<'_> {
        let total = self.cells.values().map(Vec::len).sum();
        let mut walk = PairWalk {
            offsets: self.offsets_for(self.reach_for(radius)),
            r2: radius * radius,
            len: points.len(),
            keys: Vec::with_capacity(self.cells.len()),
            starts: Vec::with_capacity(self.cells.len() + 1),
            members: Vec::with_capacity(total),
            positions: Vec::with_capacity(total),
        };
        walk.starts.push(0);
        for (&key, bucket) in &self.cells {
            walk.keys.push(key);
            walk.members.extend_from_slice(bucket);
            walk.positions.extend(bucket.iter().map(|&i| points[i]));
            walk.starts.push(walk.members.len());
        }
        walk
    }

    /// Builds the full fixed-radius adjacency: `result[i]` holds the sorted
    /// indices of every point within `radius` of point `i` (excluding `i`).
    pub fn adjacency(&self, points: &[Vec3], radius: f64) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); points.len()];
        self.pairs_within(points, radius).for_each(|i, j| {
            adj[i].push(j);
            adj[j].push(i);
        });
        for list in &mut adj {
            list.sort_unstable();
        }
        adj
    }

    /// The number of point pairs within `radius`, counted cell by cell in
    /// the adjacency builders' walk. After each cell, `stop` gets the
    /// pairs counted so far, and the count ends at the first cell where
    /// it returns true. A `stop` that never holds counts every pair: half
    /// the degree sum of [`SpatialGrid::adjacency_csr`].
    ///
    /// The count only grows, so a caller whose question is settled by a
    /// lower bound (range calibration: is the average degree already too
    /// high?) gets the full count's answer without the rest of the walk.
    pub fn pair_count_until(
        &self,
        points: &[Vec3],
        radius: f64,
        stop: impl FnMut(u64) -> bool,
    ) -> u64 {
        self.pairs_within(points, radius).walk(|_, _| {}, stop)
    }

    /// Builds the fixed-radius adjacency directly in CSR form: returns
    /// `(offsets, neighbors)` where point `i`'s sorted neighbor indices
    /// are `neighbors[offsets[i] as usize..offsets[i + 1] as usize]`.
    ///
    /// Two passes (count, then scatter) instead of one pair-buffer pass:
    /// peak memory is the degree array plus the finished arena, which is
    /// what lets million-node builds stay near the final footprint.
    ///
    /// # Panics
    ///
    /// Panics if the point count or total directed-degree sum exceeds
    /// `u32::MAX` (a ~4-billion-entry arena; far past any supported scene).
    pub fn adjacency_csr(&self, points: &[Vec3], radius: f64) -> (Vec<u32>, Vec<u32>) {
        assert!(points.len() <= u32::MAX as usize, "point count exceeds u32 index space");
        // One walk for both passes.
        let pairs = self.pairs_within(points, radius);
        let deg = pairs.degrees();
        let total: u64 = deg.iter().map(|&d| d as u64).sum();
        assert!(total <= u32::MAX as u64, "adjacency arena exceeds u32 index space");
        let mut offsets = Vec::with_capacity(points.len() + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &deg {
            acc += d;
            offsets.push(acc);
        }
        // Scatter: `cursor[i]` tracks the next free slot of point `i`.
        let mut cursor: Vec<u32> = offsets[..points.len()].to_vec();
        let mut arena = vec![0u32; total as usize];
        pairs.for_each(|i, j| {
            arena[cursor[i] as usize] = j as u32;
            cursor[i] += 1;
            arena[cursor[j] as usize] = i as u32;
            cursor[j] += 1;
        });
        for i in 0..points.len() {
            arena[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        (offsets, arena)
    }
}

/// A [`SpatialGrid`]'s pairs within a radius, as a walk over its cells in
/// key order: cell `c` has key `keys[c]` and members
/// `members[starts[c]..starts[c + 1]]` in bucket order, whose points are
/// copied alongside into `positions`.
struct PairWalk<'a> {
    offsets: Cow<'a, [(i64, i64, i64)]>,
    r2: f64,
    len: usize,
    keys: Vec<(i64, i64, i64)>,
    starts: Vec<usize>,
    members: Vec<usize>,
    positions: Vec<Vec3>,
}

impl PairWalk<'_> {
    /// Visits every point pair within the radius exactly once (unordered),
    /// scanning each occupied cell against the cells at its
    /// half-neighbourhood offsets: cells in key order, offsets in order,
    /// then the cell's members against the other cell's (against its own
    /// later members at offset zero).
    ///
    /// Offset `o`'s neighbour keys `key + o` ascend with the cells, so one
    /// forward-only cursor per offset finds them all in a single sweep of
    /// `keys`.
    fn for_each<F: FnMut(usize, usize)>(&self, f: F) {
        self.walk(f, |_| false);
    }

    /// [`PairWalk::for_each`] that also counts the pairs it visits and,
    /// after each cell, ends early if `stop` holds for the count so far.
    /// Returns the count.
    fn walk<F, S>(&self, mut f: F, mut stop: S) -> u64
    where
        F: FnMut(usize, usize),
        S: FnMut(u64) -> bool,
    {
        let mut pairs = 0u64;
        let mut cursors = vec![0usize; self.offsets.len()];
        for (cell, &(x, y, z)) in self.keys.iter().enumerate() {
            let mine = self.starts[cell]..self.starts[cell + 1];
            for (&(dx, dy, dz), cursor) in self.offsets.iter().zip(&mut cursors) {
                let target = (x + dx, y + dy, z + dz);
                while self.keys.get(*cursor).is_some_and(|&key| key < target) {
                    *cursor += 1;
                }
                if self.keys.get(*cursor) != Some(&target) {
                    continue;
                }
                let same = (dx, dy, dz) == (0, 0, 0);
                let other_end = self.starts[*cursor + 1];
                for a in mine.clone() {
                    let start = if same { a + 1 } else { self.starts[*cursor] };
                    let p = self.positions[a];
                    for b in start..other_end {
                        if p.distance_squared(self.positions[b]) <= self.r2 {
                            f(self.members[a], self.members[b]);
                            pairs += 1;
                        }
                    }
                }
            }
            if stop(pairs) {
                break;
            }
        }
        pairs
    }

    /// Per-point neighbour counts.
    fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.len];
        self.for_each(|i, j| {
            deg[i] += 1;
            deg[j] += 1;
        });
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballfit_rng::{Rng, StdRng};

    fn brute_adjacency(points: &[Vec3], radius: f64) -> Vec<Vec<usize>> {
        let r2 = radius * radius;
        let mut adj = vec![Vec::new(); points.len()];
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i].distance_squared(points[j]) <= r2 {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        adj
    }

    fn random_points(n: usize, seed: u64, span: f64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                )
            })
            .collect()
    }

    /// The map walk the cursor walk replaced, kept as the reference: every
    /// occupied cell in key order against its half-neighbourhood, each
    /// neighbour cell found by a `BTreeMap` lookup. Returns the pairs in
    /// visit order, one list per occupied cell.
    fn reference_pairs(
        grid: &SpatialGrid,
        points: &[Vec3],
        radius: f64,
    ) -> Vec<Vec<(usize, usize)>> {
        let r2 = radius * radius;
        let mut cells = Vec::new();
        for (&(x, y, z), bucket) in &grid.cells {
            let mut pairs = Vec::new();
            for &(dx, dy, dz) in half_offsets(grid.reach_for(radius)).iter() {
                let same = (dx, dy, dz) == (0, 0, 0);
                let other = if same {
                    bucket
                } else {
                    match grid.cells.get(&(x + dx, y + dy, z + dz)) {
                        Some(b) => b,
                        None => continue,
                    }
                };
                for (ai, &i) in bucket.iter().enumerate() {
                    let start = if same { ai + 1 } else { 0 };
                    for &j in &other[start..] {
                        if points[i].distance_squared(points[j]) <= r2 {
                            pairs.push((i, j));
                        }
                    }
                }
            }
            cells.push(pairs);
        }
        cells
    }

    /// Seeded point sets for the cursor walk, each with a cell size and a
    /// query radius.
    fn walk_cases() -> Vec<(&'static str, Vec<Vec3>, f64, f64)> {
        let mut rng = StdRng::seed_from_u64(0xC0250);
        let mut duplicates = random_points(80, 21, 1.5);
        for _ in 0..40 {
            let p = duplicates[rng.gen_range(0..duplicates.len())];
            duplicates.push(p);
        }
        let mut extreme = random_points(30, 22, 1.0);
        for p in random_points(20, 23, 0.4) {
            extreme.push(p + Vec3::new(1e300, 0.0, -1e300));
        }
        extreme.extend([
            Vec3::new(1e300, 0.0, 0.0),
            Vec3::new(1e300, 0.3, 0.0),
            Vec3::new(-1e300, 0.0, 0.3),
            Vec3::new(f64::MAX, f64::MAX, f64::MAX),
            Vec3::new(f64::MIN, 0.0, f64::MAX),
        ]);
        let mut clusters = Vec::new();
        for (seed, center) in
            [Vec3::ZERO, Vec3::new(50.0, -30.0, 7.0), Vec3::new(-80.0, 0.5, 120.0)]
                .iter()
                .enumerate()
        {
            clusters
                .extend(random_points(60, 30 + seed as u64, 1.2).into_iter().map(|p| p + *center));
        }
        vec![
            ("reach 1", random_points(400, 24, 3.0), 1.0, 1.0),
            ("reach 1, radius below the cell", random_points(300, 25, 2.0), 1.0, 0.6),
            ("reach 2", random_points(300, 26, 2.0), 0.5, 0.9),
            ("reach 3", random_points(200, 27, 1.5), 0.3, 0.8),
            ("duplicate points", duplicates, 0.5, 0.5),
            ("coordinates beyond KEY_CLAMP", extreme, 1.0, 1.0),
            ("a single point", vec![Vec3::new(0.3, -0.2, 0.1)], 1.0, 1.0),
            ("no points", Vec::new(), 1.0, 1.0),
            ("far-apart clusters", clusters.clone(), 1.0, 1.0),
            ("far-apart clusters, reach 2", clusters, 0.45, 0.8),
        ]
    }

    #[test]
    fn cursor_walk_matches_the_map_walk_and_brute_force() {
        for (name, pts, cell, radius) in walk_cases() {
            let grid = SpatialGrid::build(&pts, cell);
            let per_cell = reference_pairs(&grid, &pts, radius);
            let want: Vec<(usize, usize)> = per_cell.concat();
            let mut visits = Vec::new();
            grid.pairs_within(&pts, radius).for_each(|i, j| visits.push((i, j)));
            assert_eq!(visits, want, "{name}: pair-visit order");

            let mut adj = vec![Vec::new(); pts.len()];
            for &(i, j) in &want {
                adj[i].push(j);
                adj[j].push(i);
            }
            for list in &mut adj {
                list.sort_unstable();
            }
            assert_eq!(adj, brute_adjacency(&pts, radius), "{name}: reference vs brute force");
            assert_eq!(grid.adjacency(&pts, radius), adj, "{name}: adjacency");
            // The stopping count ends after the first cell whose running
            // total reaches the bound, and counts every pair without one.
            let total = want.len() as u64;
            assert_eq!(grid.pair_count_until(&pts, radius, |_| false), total, "{name}: pairs");
            for bound in [1, 2, total / 3, total / 2, total] {
                let mut counted = 0;
                for cell in &per_cell {
                    counted += cell.len() as u64;
                    if counted >= bound {
                        break;
                    }
                }
                let stopped = grid.pair_count_until(&pts, radius, |pairs| pairs >= bound);
                assert_eq!(stopped, counted, "{name}: count stopped at {bound}");
            }
            let (offsets, arena) = grid.adjacency_csr(&pts, radius);
            assert_eq!(offsets.len(), pts.len() + 1, "{name}: CSR offsets");
            for (i, list) in adj.iter().enumerate() {
                let slice = &arena[offsets[i] as usize..offsets[i + 1] as usize];
                assert!(slice.iter().map(|&v| v as usize).eq(list.iter().copied()), "{name}: {i}");
            }
        }
    }

    #[test]
    fn matches_bruteforce_adjacency() {
        for seed in 0..4 {
            let pts = random_points(300, seed, 3.0);
            let grid = SpatialGrid::build(&pts, 1.0);
            assert_eq!(grid.adjacency(&pts, 1.0), brute_adjacency(&pts, 1.0));
        }
    }

    #[test]
    fn matches_bruteforce_with_small_cells() {
        let pts = random_points(200, 7, 2.0);
        let grid = SpatialGrid::build(&pts, 0.35);
        assert_eq!(grid.adjacency(&pts, 1.0), brute_adjacency(&pts, 1.0));
    }

    /// Regression pin for the hoisted offset table: the cached reach-1
    /// offsets must reproduce exactly what per-call recomputation built.
    #[test]
    fn hoisted_offsets_pin_adjacency_output() {
        let recomputed = half_offsets(1);
        assert_eq!(recomputed.len(), 14);
        for seed in 0..3 {
            let pts = random_points(250, seed, 2.5);
            let grid = SpatialGrid::build(&pts, 1.0);
            assert_eq!(grid.half_offsets_r1, recomputed);
            assert_eq!(grid.adjacency(&pts, 1.0), brute_adjacency(&pts, 1.0));
            // Radius below cell size reuses the same cached table.
            assert_eq!(grid.adjacency(&pts, 0.6), brute_adjacency(&pts, 0.6));
        }
    }

    #[test]
    fn csr_matches_vec_of_vec_adjacency() {
        for (seed, cell, radius) in [(0u64, 1.0, 1.0), (7, 0.35, 1.0), (11, 0.5, 1.7)] {
            let pts = random_points(220, seed, 2.0);
            let grid = SpatialGrid::build(&pts, cell);
            let reference = grid.adjacency(&pts, radius);
            let (offsets, arena) = grid.adjacency_csr(&pts, radius);
            let pairs = grid.pair_count_until(&pts, radius, |_| false);
            assert_eq!(2 * pairs, arena.len() as u64);
            assert_eq!(offsets.len(), pts.len() + 1);
            assert_eq!(offsets[0], 0);
            for (i, list) in reference.iter().enumerate() {
                let slice = &arena[offsets[i] as usize..offsets[i + 1] as usize];
                assert_eq!(slice.len(), list.len(), "slice of {i}");
                assert!(slice.iter().map(|&v| v as usize).eq(list.iter().copied()), "node {i}");
            }
        }
    }

    #[test]
    fn csr_of_empty_input() {
        let pts: Vec<Vec3> = Vec::new();
        let grid = SpatialGrid::build(&pts, 1.0);
        let (offsets, arena) = grid.adjacency_csr(&pts, 1.0);
        assert_eq!(offsets, vec![0]);
        assert!(arena.is_empty());
    }

    /// Extreme coordinates (far past the cell-key clamp) must neither
    /// panic on offset overflow nor report wrong neighbors: the clamp
    /// collapses the far points into boundary cells and the exact
    /// distance test keeps every query correct.
    #[test]
    fn extreme_coordinates_clamp_instead_of_overflowing() {
        let pts = vec![
            Vec3::new(1e300, 0.0, 0.0),
            Vec3::new(1e300, 0.3, 0.0),
            Vec3::new(-1e300, 0.0, 0.0),
            Vec3::new(-1e300, 0.0, 0.3),
            Vec3::ZERO,
            Vec3::new(0.2, 0.0, 0.0),
            Vec3::new(f64::MAX, f64::MAX, f64::MAX),
        ];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.adjacency(&pts, 1.0), brute_adjacency(&pts, 1.0));
        let (offsets, arena) = grid.adjacency_csr(&pts, 1.0);
        let as_vecs: Vec<Vec<usize>> = (0..pts.len())
            .map(|i| {
                arena[offsets[i] as usize..offsets[i + 1] as usize]
                    .iter()
                    .map(|&v| v as usize)
                    .collect()
            })
            .collect();
        assert_eq!(as_vecs, brute_adjacency(&pts, 1.0));
        let mut near = grid.points_within(&pts, Vec3::new(1e300, 0.1, 0.0), 1.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        // Membership updates in the clamped cells stay consistent.
        let mut moved = grid.clone();
        moved.remove(1, pts[1]);
        let mut near = moved.points_within(&pts, Vec3::new(1e300, 0.1, 0.0), 1.0);
        near.sort_unstable();
        assert_eq!(near, vec![0]);
    }

    #[test]
    fn neighbors_within_excludes_self() {
        let pts = vec![Vec3::ZERO, Vec3::new(0.2, 0.0, 0.0)];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.neighbors_within(&pts, 0, 1.0), vec![1]);
        assert_eq!(grid.neighbors_within(&pts, 1, 1.0), vec![0]);
    }

    #[test]
    fn points_within_arbitrary_center() {
        let pts = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(5.0, 0.0, 0.0)];
        let grid = SpatialGrid::build(&pts, 1.0);
        let mut hits = grid.points_within(&pts, Vec3::new(0.5, 0.0, 0.0), 0.6);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        assert!(grid.points_within(&pts, Vec3::new(100.0, 0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let pts = vec![Vec3::ZERO, Vec3::ZERO, Vec3::ZERO];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.neighbors_within(&pts, 0, 0.5).len(), 2);
        let adj = grid.adjacency(&pts, 0.5);
        assert_eq!(adj[0], vec![1, 2]);
    }

    #[test]
    fn empty_input() {
        let pts: Vec<Vec3> = Vec::new();
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.occupied_cells(), 0);
        assert!(grid.adjacency(&pts, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_panics() {
        let _ = SpatialGrid::build(&[], 0.0);
    }

    #[test]
    fn insert_and_remove_track_membership() {
        let mut pts = random_points(120, 13, 2.0);
        let mut grid = SpatialGrid::build(&pts, 1.0);
        // Remove half the points, move a quarter, then re-add the removed
        // half at new positions; queries must match a fresh grid over the
        // same live set throughout.
        for (i, &p) in pts.iter().enumerate().take(60) {
            grid.remove(i, p);
        }
        for (i, p) in pts.iter_mut().enumerate().take(90).skip(60) {
            let to = *p + Vec3::new(0.4, -0.3, 0.2);
            grid.remove(i, *p);
            *p = to;
            grid.insert(i, to);
        }
        for (i, p) in pts.iter_mut().enumerate().take(60) {
            let to = *p * 0.5 + Vec3::new(0.1, 0.1, -0.2);
            *p = to;
            grid.insert(i, to);
        }
        let fresh = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.occupied_cells(), fresh.occupied_cells());
        for q in 0..pts.len() {
            let mut a = grid.neighbors_within(&pts, q, 1.0);
            let mut b = fresh.neighbors_within(&pts, q, 1.0);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn removed_points_stop_matching_queries() {
        let pts = vec![Vec3::ZERO, Vec3::new(0.2, 0.0, 0.0), Vec3::new(0.4, 0.0, 0.0)];
        let mut grid = SpatialGrid::build(&pts, 1.0);
        grid.remove(1, pts[1]);
        assert_eq!(grid.points_within(&pts, Vec3::ZERO, 0.5), vec![0, 2]);
        grid.insert(1, pts[1]);
        assert_eq!(grid.points_within(&pts, Vec3::ZERO, 0.5), vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "index in cell")]
    fn double_remove_panics() {
        let pts = vec![Vec3::ZERO, Vec3::new(0.1, 0.0, 0.0)];
        let mut grid = SpatialGrid::build(&pts, 1.0);
        grid.remove(0, pts[0]);
        grid.remove(0, pts[0]);
    }

    #[test]
    fn radius_larger_than_cell() {
        let pts = random_points(150, 11, 2.0);
        let grid = SpatialGrid::build(&pts, 0.5);
        assert_eq!(grid.adjacency(&pts, 1.7), brute_adjacency(&pts, 1.7));
    }
}
