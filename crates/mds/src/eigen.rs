//! Cyclic Jacobi eigendecomposition for symmetric matrices.

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

/// Computes all eigenpairs of a symmetric matrix with the cyclic Jacobi
/// method.
///
/// Jacobi is quadratically convergent and unconditionally stable for
/// symmetric input; for the neighborhood-sized matrices of the ballfit
/// pipeline (`n ≤ ~60`) it is the method of choice.
///
/// `V` is kept transposed, so that the row rotation of `A` and the
/// accumulation into `V` both run over two contiguous rows; every
/// rotation performs the same floating-point operations in the same order
/// as the column/row/column formulation (`tests/mds_kernel.rs` pins the
/// bits).
///
/// # Panics
///
/// Panics if `m` is not symmetric within `1e-8 · max(1, max |m_ij|)`.
pub fn jacobi_eigen(m: &SquareMatrix) -> EigenDecomposition {
    // Relative to the largest entry: a double-centred matrix of squared
    // distances grows with the square of the network's scale, and so does
    // its rounding asymmetry. Never stricter than an absolute 1e-8.
    let tol = 1e-8 * m.max_abs().max(1.0);
    assert!(m.is_symmetric(tol), "jacobi_eigen requires a symmetric matrix");
    let n = m.n();
    let mut a = m.clone();
    // Row k of `vt` is column k of V.
    let mut vt = SquareMatrix::identity(n);

    let max_sweeps = 100;
    let tol = 1e-13 * (1.0 + a.off_diagonal_norm());
    for _ in 0..max_sweeps {
        if a.off_diagonal_norm() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent computation.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // A ← Jᵀ A J applied in place.
                a.rotate_columns(p, q, c, s);
                a.rotate_rows(p, q, c, s);
                // Accumulate rotations into V.
                vt.rotate_rows(p, q, c, s);
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&k| a[(k, k)]).collect();
    let vectors = SquareMatrix::from_fn(n, |i, k| vt[(order[k], i)]);
    EigenDecomposition { values, vectors }
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
}
