//! Small dense square matrices.

use std::fmt;

/// A dense row-major square matrix of `f64`.
///
/// Sized for local-neighborhood work (tens of rows), so no cache blocking.
/// Its own operations are scalar; the eigensolver copies matrices into
/// interleaved lanes ([`crate::eigen::LaneScratch`]) whose rotations the
/// compiler vectorises across matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// A zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        SquareMatrix { n, data: vec![0.0; n * n] }
    }

    /// The identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from an element function.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The largest absolute entry, 0 for an empty matrix.
    fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |max, x| max.max(x.abs()))
    }

    /// The symmetry tolerance of the MDS kernel, `1e-8 · max(1, max |m_ij|)`:
    /// relative to the largest entry, because distances and double-centred
    /// squared distances grow with the network's scale and so does their
    /// rounding asymmetry. Never stricter than an absolute `1e-8`.
    pub(crate) fn symmetry_tolerance(&self) -> f64 {
        1e-8 * self.max_abs().max(1.0)
    }

    /// Row `i`, mutable, next to row `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `i ≠ k` and both are below `n`.
    pub(crate) fn row_and(&mut self, i: usize, k: usize) -> (&mut [f64], &[f64]) {
        assert!(i != k && i < self.n && k < self.n, "invalid row pair ({i}, {k})");
        let n = self.n;
        let (head, tail) = self.data.split_at_mut(i.max(k) * n);
        if i < k {
            (&mut head[i * n..(i + 1) * n], &tail[..n])
        } else {
            (&mut tail[..n], &head[k * n..(k + 1) * n])
        }
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != n`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n, "dimension mismatch");
        (0..self.n).map(|i| (0..self.n).map(|j| self[(i, j)] * v[j]).sum()).collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mul_mat(&self, rhs: &SquareMatrix) -> SquareMatrix {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        let mut out = SquareMatrix::zeros(self.n);
        for i in 0..self.n {
            for k in 0..self.n {
                let a = self[(i, k)];
                // Exact zero skip: purely a sparsity fast path, any nonzero
                // (however tiny) must still multiply through.
                // ballfit-lint: allow(float-safety)
                if a == 0.0 {
                    continue;
                }
                for j in 0..self.n {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Frobenius norm of the off-diagonal part (convergence measure for
    /// Jacobi sweeps).
    pub fn off_diagonal_norm(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    s += self[(i, j)] * self[(i, j)];
                }
            }
        }
        s.sqrt()
    }

    /// Applies the double-centering operator used by classical MDS:
    /// `B = −½ J A J` with `J = I − 𝟙𝟙ᵀ/n`.
    pub fn double_centered(&self) -> SquareMatrix {
        let n = self.n;
        let nf = n as f64;
        let row_means: Vec<f64> =
            (0..n).map(|i| (0..n).map(|j| self[(i, j)]).sum::<f64>() / nf).collect();
        let col_means: Vec<f64> =
            (0..n).map(|j| (0..n).map(|i| self[(i, j)]).sum::<f64>() / nf).collect();
        let grand = row_means.iter().sum::<f64>() / nf;
        SquareMatrix::from_fn(n, |i, j| -0.5 * (self[(i, j)] - row_means[i] - col_means[j] + grand))
    }
}

impl std::ops::Index<(usize, usize)> for SquareMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for SquareMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

impl fmt::Display for SquareMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.n {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let m = SquareMatrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.n(), 3);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn from_fn_and_symmetry() {
        let m = SquareMatrix::from_fn(3, |i, j| (i + j) as f64);
        assert!(m.is_symmetric(0.0));
        let asym = SquareMatrix::from_fn(2, |i, j| (i * 2 + j) as f64);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn mat_vec_product() {
        let m = SquareMatrix::from_fn(2, |i, j| ((i + 1) * (j + 1)) as f64);
        // [[1,2],[2,4]] · [1,1] = [3,6]
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 6.0]);
    }

    #[test]
    fn mat_mat_product() {
        let a = SquareMatrix::from_fn(2, |i, j| if i == j { 2.0 } else { 0.0 });
        let b = SquareMatrix::from_fn(2, |i, j| (i * 2 + j) as f64 + 1.0);
        let c = a.mul_mat(&b);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(c[(i, j)], 2.0 * b[(i, j)]);
            }
        }
        let id = SquareMatrix::identity(2);
        assert_eq!(b.mul_mat(&id), b);
    }

    #[test]
    fn off_diagonal_norm() {
        let m = SquareMatrix::identity(4);
        assert_eq!(m.off_diagonal_norm(), 0.0);
        let mut m2 = SquareMatrix::zeros(2);
        m2[(0, 1)] = 3.0;
        m2[(1, 0)] = 4.0;
        assert_eq!(m2.off_diagonal_norm(), 5.0);
    }

    #[test]
    fn double_centering_zeroes_row_sums() {
        let m = SquareMatrix::from_fn(4, |i, j| ((i as f64) - (j as f64)).powi(2));
        let b = m.double_centered();
        for i in 0..4 {
            let row_sum: f64 = (0..4).map(|j| b[(i, j)]).sum();
            assert!(row_sum.abs() < 1e-12, "row {i} sum {row_sum}");
        }
        assert!(b.is_symmetric(1e-12));
    }

    #[test]
    fn display_shape() {
        let s = SquareMatrix::identity(2).to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
