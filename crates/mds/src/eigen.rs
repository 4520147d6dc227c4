//! Cyclic Jacobi eigendecomposition for symmetric matrices, one matrix at
//! a time or several same-size matrices in lock-step lanes.

use crate::matrix::SquareMatrix;

/// Result of an eigendecomposition: `values[k]` belongs to the unit
/// eigenvector stored in column `k` of `vectors`, sorted by descending
/// eigenvalue.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `k` pairs with `values[k]`.
    pub vectors: SquareMatrix,
}

impl EigenDecomposition {
    /// Extracts eigenvector `k` as an owned vector.
    pub fn vector(&self, k: usize) -> Vec<f64> {
        (0..self.vectors.n()).map(|i| self.vectors[(i, k)]).collect()
    }
}

/// Entries of one interleaved lane buffer (lanes × n²) a lane group may
/// fill: eight 24-member matrices, 36 KB.
const LANE_ENTRIES: usize = 8 * 24 * 24;

/// How many `n × n` matrices share one lane group: the widest of 8, 4 and
/// 2 lanes whose buffers stay within eight 24-member matrices (8 lanes up
/// to 24 members, 4 up to 33, 2 up to 48), else 1.
fn lane_width(n: usize) -> usize {
    [8, 4, 2].into_iter().find(|&width| width * n * n <= LANE_ENTRIES).unwrap_or(1)
}

/// Positions `0..sizes.len()` of `sizes[i] × sizes[i]` matrices cut into
/// lane groups: equal sizes only, largest first, positions ascending, and
/// at most as many as fit the lane buffers (8 up to size 24, 4 up to 33, 2
/// up to 48, else 1). The groups depend on `sizes` alone; a caller that
/// builds one group's matrices at a time holds no more than eight
/// 24-member matrices per worker.
pub fn lane_groups(sizes: &[usize]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&at| std::cmp::Reverse(sizes[at]));
    order
        .chunk_by(|&x, &y| sizes[x] == sizes[y])
        .flat_map(|run| run.chunks(lane_width(sizes[run[0]])))
        .map(<[usize]>::to_vec)
        .collect()
}

/// Sweep cap of every lane.
const MAX_SWEEPS: usize = 100;

/// Computes all eigenpairs of a symmetric matrix with the cyclic Jacobi
/// method.
///
/// Jacobi is quadratically convergent and unconditionally stable for
/// symmetric input; for the neighborhood-sized matrices of the ballfit
/// pipeline (`n ≤ ~60`) it is the method of choice. This is the one-lane
/// case of [`jacobi_eigen_lanes`].
///
/// # Panics
///
/// Panics if `m` is not symmetric within `1e-8 · max(1, max |m_ij|)`.
pub fn jacobi_eigen(m: &SquareMatrix) -> EigenDecomposition {
    let [e] = jacobi_eigen_lanes([m]);
    e
}

/// [`jacobi_eigen`] of `L` same-size matrices at once: lane `l` performs
/// exactly the operations `jacobi_eigen(ms[l])` performs, in the same
/// order, so every eigenpair has the same bits.
///
/// A rotation's parameters form a serial chain of divisions and square
/// roots; running independent matrices in lock step lets those chains
/// overlap. Lanes keep their own convergence test, sweep cap and `1e-300`
/// skip:
///
/// * the matrices are interleaved element by element, so each rotation
///   walks the lanes of one element together;
/// * a lane whose off-diagonal norm meets its tolerance at the start of a
///   sweep is copied out (its result is final) and the others go on;
///   what the finished lane computes afterwards is discarded;
/// * a lane whose `|a_pq|` is below `1e-300` keeps both rotated entries
///   through a per-lane select while the other lanes rotate (a `c = 1`,
///   `s = 0` rotation instead could turn `−0.0` into `+0.0`).
///
/// `V` is kept transposed, so the row rotation of `A` and the
/// accumulation into `V` both run over two contiguous rows
/// (`tests/mds_kernel.rs` pins the bits against the textbook
/// formulation).
///
/// # Panics
///
/// Panics if the matrices differ in size, or if one is not symmetric
/// within `1e-8 · max(1, max |m_ij|)`.
pub fn jacobi_eigen_lanes<const L: usize>(ms: [&SquareMatrix; L]) -> [EigenDecomposition; L] {
    let mut scratch = LaneScratch::default();
    let mut lanes = scratch.lanes::<L>(ms.first().map_or(0, |m| m.n()));
    for (lane, m) in ms.into_iter().enumerate() {
        lanes.load(lane, m);
    }
    lanes.solve(|eig| eig.decomposition())
}

/// Reusable buffers of the lane kernel ([`jacobi_eigen_lanes`]): the
/// interleaved matrices `A` and `Vᵀ` of one lane pass, for
/// [`crate::local::embed_local_many`]. One per worker (the frame sweeps
/// create it in `par_map_init`); its contents never reach a result.
#[derive(Debug, Default)]
pub struct LaneScratch {
    a: Vec<f64>,
    vt: Vec<f64>,
}

impl LaneScratch {
    /// `L` empty lanes of `n × n` matrices in these buffers.
    pub(crate) fn lanes<const L: usize>(&mut self, n: usize) -> Lanes<'_, L> {
        for buffer in [&mut self.a, &mut self.vt] {
            buffer.clear();
            buffer.reserve_exact(L * n * n);
            buffer.resize(L * n * n, 0.0);
        }
        let (a, _) = self.a.as_chunks_mut::<L>();
        let (vt, _) = self.vt.as_chunks_mut::<L>();
        // Row k of `vt` is column k of V.
        for i in 0..n {
            vt[i * n + i] = [1.0; L];
        }
        Lanes { a, vt, n }
    }
}

/// One lane group in a [`LaneScratch`]: matrix `l` is lane `l` of every
/// element of `a`, and row `k` of `vt` is column `k` of its `V`.
pub(crate) struct Lanes<'a, const L: usize> {
    a: &'a mut [[f64; L]],
    vt: &'a mut [[f64; L]],
    n: usize,
}

impl<const L: usize> Lanes<'_, L> {
    /// Copies `m` into lane `lane`, so the caller can drop it before the
    /// next lane is built.
    ///
    /// # Panics
    ///
    /// Panics if `m` has the wrong size or is not symmetric within
    /// `1e-8 · max(1, max |m_ij|)`.
    pub(crate) fn load(&mut self, lane: usize, m: &SquareMatrix) {
        let n = self.n;
        assert_eq!(m.n(), n, "lanes must have the same size");
        assert!(m.is_symmetric(m.symmetry_tolerance()), "jacobi_eigen requires a symmetric matrix");
        for (i, row) in self.a.chunks_exact_mut(n.max(1)).enumerate() {
            for (j, entry) in row.iter_mut().enumerate() {
                entry[lane] = m[(i, j)];
            }
        }
    }

    /// Runs the lanes to convergence and returns `finish` of each lane's
    /// eigenpairs, taken when that lane converges (or after its last
    /// sweep).
    pub(crate) fn solve<T>(self, mut finish: impl FnMut(&LaneEigen<'_, L>) -> T) -> [T; L] {
        let Lanes { a, vt, n } = self;
        let tol = off_diagonal_norms(a, n).map(|norm| 1e-13 * (1.0 + norm));
        let mut done: [Option<T>; L] = [const { None }; L];
        for _ in 0..MAX_SWEEPS {
            let norms = off_diagonal_norms(a, n);
            for l in 0..L {
                if done[l].is_none() && norms[l] <= tol[l] {
                    done[l] = Some(finish(&LaneEigen::new(a, vt, n, l)));
                }
            }
            if done.iter().all(Option::is_some) {
                break;
            }
            let live = done.each_ref().map(Option::is_none);
            for p in 0..n {
                for q in (p + 1)..n {
                    let (app, aqq, apq) = (a[p * n + p], a[q * n + q], a[p * n + q]);
                    let keep: [bool; L] = std::array::from_fn(|l| apq[l].abs() < 1e-300);
                    if (0..L).all(|l| keep[l] || !live[l]) {
                        // No lane that is still open rotates at (p, q).
                        continue;
                    }
                    let mut c = [0.0; L];
                    let mut s = [0.0; L];
                    for l in 0..L {
                        let theta = (aqq[l] - app[l]) / (2.0 * apq[l]);
                        // Stable tangent computation.
                        let root = (1.0 + theta * theta).sqrt();
                        let t = 1.0 / if theta >= 0.0 { theta + root } else { theta - root };
                        c[l] = 1.0 / (1.0 + t * t).sqrt();
                        s[l] = t * c[l];
                    }
                    if (0..L).any(|l| keep[l] && live[l]) {
                        // An open lane skips (p, q) while others rotate.
                        rotate(a, vt, n, p, q, |x, y| {
                            for l in 0..L {
                                let (xl, yl) = (x[l], y[l]);
                                let (rx, ry) = (c[l] * xl - s[l] * yl, s[l] * xl + c[l] * yl);
                                x[l] = if keep[l] { xl } else { rx };
                                y[l] = if keep[l] { yl } else { ry };
                            }
                        });
                    } else {
                        rotate(a, vt, n, p, q, |x, y| {
                            for l in 0..L {
                                let (xl, yl) = (x[l], y[l]);
                                x[l] = c[l] * xl - s[l] * yl;
                                y[l] = s[l] * xl + c[l] * yl;
                            }
                        });
                    }
                }
            }
        }
        // Lanes still open after the last sweep end where they stand.
        std::array::from_fn(|l| {
            done[l].take().unwrap_or_else(|| finish(&LaneEigen::new(a, vt, n, l)))
        })
    }
}

/// One lane's eigenpairs as they stand: the diagonal of `A` and the rows
/// of `Vᵀ`, sorted by descending eigenvalue (stable).
pub(crate) struct LaneEigen<'a, const L: usize> {
    /// Eigenvalues in descending order.
    pub(crate) values: Vec<f64>,
    order: Vec<usize>,
    vt: &'a [[f64; L]],
    lane: usize,
}

impl<'a, const L: usize> LaneEigen<'a, L> {
    fn new(a: &[[f64; L]], vt: &'a [[f64; L]], n: usize, lane: usize) -> Self {
        let diag: Vec<f64> = (0..n).map(|i| a[i * n + i][lane]).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| diag[j].total_cmp(&diag[i]));
        let values = order.iter().map(|&k| diag[k]).collect();
        LaneEigen { values, order, vt, lane }
    }

    /// Component `i` of the unit eigenvector of `values[k]`.
    pub(crate) fn vector(&self, i: usize, k: usize) -> f64 {
        self.vt[self.order[k] * self.values.len() + i][self.lane]
    }

    fn decomposition(&self) -> EigenDecomposition {
        let vectors = SquareMatrix::from_fn(self.values.len(), |i, k| self.vector(i, k));
        EigenDecomposition { values: self.values.clone(), vectors }
    }
}

/// Per-lane Frobenius norm of the off-diagonal part, summed in row-major
/// order as [`SquareMatrix::off_diagonal_norm`] sums it.
fn off_diagonal_norms<const L: usize>(a: &[[f64; L]], n: usize) -> [f64; L] {
    let mut sum = [0.0; L];
    for (i, row) in a.chunks_exact(n.max(1)).enumerate() {
        for (j, entry) in row.iter().enumerate() {
            if i != j {
                for l in 0..L {
                    sum[l] += entry[l] * entry[l];
                }
            }
        }
    }
    sum.map(f64::sqrt)
}

/// One Jacobi rotation of every lane: `A ← Jᵀ A J` (columns `p < q`,
/// walking the rows, then rows `p` and `q`) and `Vᵀ ← Jᵀ Vᵀ`, where
/// `pair(x, y)` rotates one element pair in place.
#[inline(always)]
fn rotate<const L: usize>(
    a: &mut [[f64; L]],
    vt: &mut [[f64; L]],
    n: usize,
    p: usize,
    q: usize,
    pair: impl Fn(&mut [f64; L], &mut [f64; L]),
) {
    for row in a.chunks_exact_mut(n) {
        let (head, tail) = row.split_at_mut(q);
        pair(&mut head[p], &mut tail[0]);
    }
    for m in [a, vt] {
        let (head, tail) = m.split_at_mut(q * n);
        for (x, y) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
            pair(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigenDecomposition) -> SquareMatrix {
        let n = e.values.len();
        SquareMatrix::from_fn(n, |i, j| {
            (0..n).map(|k| e.values[k] * e.vectors[(i, k)] * e.vectors[(j, k)]).sum()
        })
    }

    #[test]
    fn diagonal_matrix() {
        let mut m = SquareMatrix::zeros(3);
        m[(0, 0)] = 3.0;
        m[(1, 1)] = 1.0;
        m[(2, 2)] = 2.0;
        let e = jacobi_eigen(&m);
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = SquareMatrix::from_fn(2, |i, j| if i == j { 2.0 } else { 1.0 });
        let e = jacobi_eigen(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vector(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_random_symmetric() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for n in [1usize, 2, 5, 12, 25] {
            let mut m = SquareMatrix::zeros(n);
            for i in 0..n {
                for j in i..n {
                    let x = rng.gen_range(-2.0..2.0);
                    m[(i, j)] = x;
                    m[(j, i)] = x;
                }
            }
            let e = jacobi_eigen(&m);
            let r = reconstruct(&e);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (r[(i, j)] - m[(i, j)]).abs() < 1e-8,
                        "n={n} mismatch at ({i},{j}): {} vs {}",
                        r[(i, j)],
                        m[(i, j)]
                    );
                }
            }
            // Eigenvalues must be sorted descending.
            for w in e.values.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10;
        let mut m = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let x = rng.gen_range(-1.0..1.0);
                m[(i, j)] = x;
                m[(j, i)] = x;
            }
        }
        let e = jacobi_eigen(&m);
        for a in 0..n {
            for b in 0..n {
                let dot: f64 = (0..n).map(|i| e.vectors[(i, a)] * e.vectors[(i, b)]).sum();
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9, "({a},{b}) dot {dot}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_input_panics() {
        let m = SquareMatrix::from_fn(2, |i, j| (i * 2 + j) as f64);
        let _ = jacobi_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn an_asymmetric_lane_panics_among_symmetric_ones() {
        let good = SquareMatrix::identity(2);
        let bad = SquareMatrix::from_fn(2, |i, j| (i * 2 + j) as f64);
        let _ = jacobi_eigen_lanes([&good, &bad, &good]);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn lanes_of_different_sizes_panic() {
        let _ = jacobi_eigen_lanes([&SquareMatrix::identity(2), &SquareMatrix::identity(3)]);
    }
}
