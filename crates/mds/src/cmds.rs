//! Classical (Torgerson) multidimensional scaling into 3D.

use ballfit_geom::Vec3;

use crate::eigen::{jacobi_eigen, LaneScratch};
use crate::matrix::SquareMatrix;
use crate::MdsError;

/// Recovers 3D coordinates from a complete pairwise distance matrix via
/// classical MDS: double-center the squared distances and expand the top
/// three eigenpairs.
///
/// The returned embedding is centered at the origin and determined up to a
/// rigid motion plus reflection — exactly the ambiguity the paper's local
/// frames tolerate.
///
/// # Errors
///
/// * [`MdsError::TooFewPoints`] for fewer than 2 points;
/// * [`MdsError::InvalidDistance`] for negative/non-finite entries.
///
/// # Panics
///
/// Panics if `distances` is not symmetric within
/// `1e-8 · max(1, max |d_ij|)`.
pub fn classical_mds(distances: &SquareMatrix) -> Result<Vec<Vec3>, MdsError> {
    check_distances(distances)?;
    let eig = jacobi_eigen(&gram_matrix(distances));
    Ok(embedding(&eig.values, |i, axis| eig.vectors[(i, axis)]))
}

/// [`classical_mds`] of same-size matrices that passed
/// [`check_distances`], in lane passes of 8, 4, 2 and 1 matrices (widest
/// first); each lane's Gram matrix is dropped once loaded.
pub(crate) fn classical_mds_lanes(
    scratch: &mut LaneScratch,
    distances: &[&SquareMatrix],
) -> Vec<Vec<Vec3>> {
    fn lanes<const L: usize>(
        scratch: &mut LaneScratch,
        distances: &[&SquareMatrix],
    ) -> Vec<Vec<Vec3>> {
        let mut lanes = scratch.lanes::<L>(distances[0].n());
        for (lane, d) in distances.iter().enumerate() {
            lanes.load(lane, &gram_matrix(d));
        }
        lanes.solve(|eig| embedding(&eig.values, |i, axis| eig.vector(i, axis))).into()
    }
    let mut coords = Vec::with_capacity(distances.len());
    let mut rest = distances;
    while !rest.is_empty() {
        let width = [8, 4, 2].into_iter().find(|&w| w <= rest.len()).unwrap_or(1);
        let (group, tail) = rest.split_at(width);
        coords.extend(match width {
            8 => lanes::<8>(scratch, group),
            4 => lanes::<4>(scratch, group),
            2 => lanes::<2>(scratch, group),
            _ => lanes::<1>(scratch, group),
        });
        rest = tail;
    }
    coords
}

/// The errors [`classical_mds`] documents: fewer than 2 points, or a
/// negative or non-finite distance.
pub(crate) fn check_distances(distances: &SquareMatrix) -> Result<(), MdsError> {
    let n = distances.n();
    if n < 2 {
        return Err(MdsError::TooFewPoints { points: n });
    }
    for i in 0..n {
        for j in 0..n {
            let d = distances[(i, j)];
            if !d.is_finite() || d < 0.0 {
                return Err(MdsError::InvalidDistance { row: i, col: j });
            }
        }
    }
    Ok(())
}

/// The matrix classical MDS decomposes: the double-centred squared
/// distances.
///
/// # Panics
///
/// Panics if `distances` is not symmetric within
/// `1e-8 · max(1, max |d_ij|)`.
fn gram_matrix(distances: &SquareMatrix) -> SquareMatrix {
    assert!(
        distances.is_symmetric(distances.symmetry_tolerance()),
        "distance matrix must be symmetric"
    );
    let n = distances.n();
    let squared = SquareMatrix::from_fn(n, |i, j| distances[(i, j)].powi(2));
    squared.double_centered()
}

/// The 3D embedding of a Gram matrix from its eigenvalues (descending) and
/// `vector(i, k)`, component `i` of eigenvector `k`.
///
/// Top three non-negative eigenpairs give the 3D embedding. Noisy or
/// non-Euclidean inputs can push trailing eigenvalues negative; those
/// axes are dropped (coordinate 0), the standard classical-MDS practice.
fn embedding(values: &[f64], vector: impl Fn(usize, usize) -> f64) -> Vec<Vec3> {
    let n = values.len();
    let mut coords = vec![Vec3::ZERO; n];
    for (axis, &lambda) in values.iter().enumerate().take(3) {
        if lambda <= 0.0 {
            break;
        }
        let scale = lambda.sqrt();
        for (i, c) in coords.iter_mut().enumerate() {
            let value = scale * vector(i, axis);
            match axis {
                0 => c.x = value,
                1 => c.y = value,
                _ => c.z = value,
            }
        }
    }
    coords
}

/// Root-mean-square discrepancy between a coordinate embedding and a target
/// distance matrix (diagnostic used in tests and experiments).
///
/// # Panics
///
/// Panics if `coords.len() != distances.n()`.
pub fn embedding_rmse(coords: &[Vec3], distances: &SquareMatrix) -> f64 {
    let n = coords.len();
    assert_eq!(n, distances.n(), "dimension mismatch");
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let err = coords[i].distance(coords[j]) - distances[(i, j)];
            sum += err * err;
            count += 1;
        }
    }
    (sum / count as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distance_matrix(points: &[Vec3]) -> SquareMatrix {
        SquareMatrix::from_fn(points.len(), |i, j| points[i].distance(points[j]))
    }

    #[test]
    fn recovers_a_tetrahedron_up_to_isometry() {
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.3, 0.9, 0.0),
            Vec3::new(0.2, 0.3, 0.8),
        ];
        let d = distance_matrix(&pts);
        let rec = classical_mds(&d).unwrap();
        assert!(embedding_rmse(&rec, &d) < 1e-9);
    }

    #[test]
    fn planar_input_stays_planar() {
        let pts = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        ];
        let d = distance_matrix(&pts);
        let rec = classical_mds(&d).unwrap();
        assert!(embedding_rmse(&rec, &d) < 1e-9);
        // The recovered third axis must be ~0 (rank-2 Gram matrix).
        for c in &rec {
            assert!(c.z.abs() < 1e-6, "expected planar embedding, got z={}", c.z);
        }
    }

    #[test]
    fn two_points() {
        let mut d = SquareMatrix::zeros(2);
        d[(0, 1)] = 5.0;
        d[(1, 0)] = 5.0;
        let rec = classical_mds(&d).unwrap();
        assert!((rec[0].distance(rec[1]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            classical_mds(&SquareMatrix::zeros(1)),
            Err(MdsError::TooFewPoints { points: 1 })
        );
        let mut d = SquareMatrix::zeros(2);
        d[(0, 1)] = -1.0;
        d[(1, 0)] = -1.0;
        assert_eq!(classical_mds(&d), Err(MdsError::InvalidDistance { row: 0, col: 1 }));
    }

    #[test]
    fn symmetry_check_scales_with_the_distances() {
        // A tetrahedron scaled by 2^30 with one distance one ulp off: the
        // asymmetry is 2^-22 ≈ 2.4e-7 absolute, 2.2e-16 relative.
        let scale = (1u64 << 30) as f64;
        let pts: Vec<Vec3> = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.0), (0.2, 0.3, 0.8)]
            .iter()
            .map(|&(x, y, z)| Vec3::new(x, y, z) * scale)
            .collect();
        let mut d = distance_matrix(&pts);
        d[(0, 1)] = f64::from_bits(d[(0, 1)].to_bits() + 1);
        assert!(!d.is_symmetric(1e-8));
        let rec = classical_mds(&d).unwrap();
        assert!(embedding_rmse(&rec, &d) < 1e-6 * scale);
    }

    #[test]
    fn embedding_is_centered() {
        let pts = vec![
            Vec3::new(3.0, 1.0, 2.0),
            Vec3::new(4.0, 1.5, 2.2),
            Vec3::new(3.5, 0.5, 1.8),
            Vec3::new(3.2, 1.2, 2.9),
        ];
        let rec = classical_mds(&distance_matrix(&pts)).unwrap();
        let c: Vec3 = rec.iter().copied().sum::<Vec3>() / rec.len() as f64;
        assert!(c.norm() < 1e-9, "embedding not centered: {c}");
    }

    #[test]
    fn noisy_distances_still_embed_reasonably() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Vec3> = (0..12)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let noisy = SquareMatrix::from_fn(pts.len(), |i, j| {
            if i == j {
                0.0
            } else {
                let ij = if i < j { (i, j) } else { (j, i) };
                // Deterministic symmetric perturbation.
                let bump = (((ij.0 * 31 + ij.1 * 17) % 7) as f64 - 3.0) * 0.01;
                (pts[i].distance(pts[j]) + bump).max(0.01)
            }
        });
        let rec = classical_mds(&noisy).unwrap();
        assert!(embedding_rmse(&rec, &noisy) < 0.1);
    }
}
