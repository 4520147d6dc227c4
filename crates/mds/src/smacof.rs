//! SMACOF stress-majorization refinement.
//!
//! Classical MDS minimizes *strain*; the "improved MDS-based localization"
//! the paper adopts (`[31]` Shang & Ruml) follows the closed-form solution
//! with an iterative least-squares refinement. SMACOF (Scaling by
//! MAjorizing a COmplicated Function) is that refinement: it monotonically
//! decreases the raw stress
//! `σ(X) = Σ_{i<j} w_ij (‖x_i − x_j‖ − d_ij)²`
//! via the Guttman transform.

use ballfit_geom::Vec3;

use crate::matrix::SquareMatrix;

/// Raw stress of an embedding against target distances with binary weights:
/// pairs with `weight(i, j) == false` are ignored (unmeasured pairs).
///
/// # Panics
///
/// Panics if `coords.len() != distances.n()`.
pub fn stress<W: Fn(usize, usize) -> bool>(
    coords: &[Vec3],
    distances: &SquareMatrix,
    weight: W,
) -> f64 {
    let n = coords.len();
    assert_eq!(n, distances.n(), "dimension mismatch");
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            if weight(i, j) {
                let err = coords[i].distance(coords[j]) - distances[(i, j)];
                s += err * err;
            }
        }
    }
    s
}

/// Configuration for [`refine_weighted`].
#[derive(Debug, Clone, Copy)]
pub struct SmacofConfig {
    /// Maximum Guttman iterations.
    pub max_iterations: usize,
    /// Stop when the relative stress improvement drops below this.
    pub tolerance: f64,
}

impl Default for SmacofConfig {
    fn default() -> Self {
        SmacofConfig { max_iterations: 50, tolerance: 1e-6 }
    }
}

/// Refines an embedding against *selected* pairs only (binary weights):
/// pairs with `weight(i, j) == false` are ignored entirely.
///
/// This is the right refinement for MDS-MAP-style local frames, where
/// unmeasured pairs were filled by shortest-path estimates: those inflated
/// values seed the classical-MDS start but must not keep pulling on the
/// solution. The update is the per-point weighted Guttman step
/// `x_i ← mean_{j ∈ meas(i)} ( z_j + d_ij · (z_i − z_j)/‖z_i − z_j‖ )`,
/// guarded to return the lowest-stress iterate seen.
///
/// `weight` is asked once per pair `i < j`. The stress sums over the
/// measured pairs in that order, so it equals [`stress`] bit for bit.
///
/// Returns the final (weighted) stress; `coords` holds the best iterate.
///
/// # Panics
///
/// Panics if `coords.len() != distances.n()`.
pub fn refine_weighted<W: Fn(usize, usize) -> bool>(
    coords: &mut [Vec3],
    distances: &SquareMatrix,
    weight: W,
    config: SmacofConfig,
) -> f64 {
    let n = coords.len();
    assert_eq!(n, distances.n(), "dimension mismatch");
    if n < 2 {
        return 0.0;
    }
    // The measured pairs `(i, j, d_ij)`, `i < j`, and each point's measured
    // partners in ascending order with the target from the point's own row.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut partners: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if weight(i, j) {
                pairs.push((i, j, distances[(i, j)]));
                partners[i].push((j, distances[(i, j)]));
                partners[j].push((i, distances[(j, i)]));
            }
        }
    }

    // `lengths[i * n + j]` is ‖x_i − x_j‖ of a measured pair as the last
    // stress pass computed it, for both orientations. The next Guttman step
    // runs on exactly those coordinates, and ‖z_j − z_i‖ has the bits of
    // ‖z_i − z_j‖ (negation is exact), so it reads its lengths here.
    let mut lengths = vec![0.0; n * n];
    let mut best = coords.to_vec();
    let mut best_stress = pair_stress(coords, &pairs, &mut lengths);
    let mut current = best_stress;
    let mut z = coords.to_vec();
    for _ in 0..config.max_iterations {
        z.copy_from_slice(coords);
        let rows = lengths.chunks_exact(n);
        for (((c, zi), mine), row) in coords.iter_mut().zip(&z).zip(&partners).zip(rows) {
            if mine.is_empty() {
                continue;
            }
            let mut acc = Vec3::ZERO;
            for &(j, d) in mine {
                // Per direction: one shared, negated delta would flip the
                // sign of a zero component.
                let delta = *zi - z[j];
                let dist = row[j];
                let target = if dist > 1e-12 {
                    z[j] + delta * (d / dist)
                } else {
                    z[j] // coincident: leave at partner (degenerate)
                };
                acc += target;
            }
            *c = acc / mine.len() as f64;
        }
        let next = pair_stress(coords, &pairs, &mut lengths);
        if next < best_stress {
            best_stress = next;
            best.copy_from_slice(coords);
        }
        if (current - next).abs() <= config.tolerance * current.max(1e-30) {
            break;
        }
        current = next;
    }
    coords.copy_from_slice(&best);
    best_stress
}

/// Raw stress over an explicit list of `(i, j, d_ij)` pairs, summed in
/// list order, recording each pair's length in the row-major `n × n`
/// table `lengths` under `(i, j)` and `(j, i)`.
fn pair_stress(coords: &[Vec3], pairs: &[(usize, usize, f64)], lengths: &mut [f64]) -> f64 {
    let n = coords.len();
    let mut s = 0.0;
    for &(i, j, d) in pairs {
        let dist = coords[i].distance(coords[j]);
        lengths[i * n + j] = dist;
        lengths[j * n + i] = dist;
        let err = dist - d;
        s += err * err;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmds::{classical_mds, embedding_rmse};

    fn distance_matrix(points: &[Vec3]) -> SquareMatrix {
        SquareMatrix::from_fn(points.len(), |i, j| points[i].distance(points[j]))
    }

    #[test]
    fn stress_of_exact_embedding_is_zero() {
        let pts = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let d = distance_matrix(&pts);
        assert!(stress(&pts, &d, |_, _| true) < 1e-15);
    }

    #[test]
    fn stress_weights_exclude_pairs() {
        let pts = vec![Vec3::ZERO, Vec3::X];
        let mut d = SquareMatrix::zeros(2);
        d[(0, 1)] = 5.0;
        d[(1, 0)] = 5.0;
        assert!(stress(&pts, &d, |_, _| true) > 0.0);
        assert_eq!(stress(&pts, &d, |_, _| false), 0.0);
    }

    #[test]
    fn refine_decreases_stress_from_perturbed_start() {
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.4, 1.1, 0.0),
            Vec3::new(0.3, 0.4, 0.9),
            Vec3::new(0.8, 0.7, 0.4),
        ];
        let d = distance_matrix(&pts);
        // Perturb the truth and let SMACOF pull it back.
        let mut coords: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| p + Vec3::new(0.05, -0.04, 0.03) * ((i % 3) as f64))
            .collect();
        let before = stress(&coords, &d, |_, _| true);
        let after = refine_weighted(&mut coords, &d, |_, _| true, SmacofConfig::default());
        assert!(after < before, "stress must not increase: {before} -> {after}");
        assert!(after < 1e-6, "should converge to near-exact: {after}");
    }

    #[test]
    fn refine_improves_classical_mds_under_noise() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Vec3> = (0..10)
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
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                let bump = (((a * 13 + b * 7) % 5) as f64 - 2.0) * 0.02;
                (pts[i].distance(pts[j]) + bump).max(0.01)
            }
        });
        let mut coords = classical_mds(&noisy).unwrap();
        let rmse_before = embedding_rmse(&coords, &noisy);
        refine_weighted(&mut coords, &noisy, |_, _| true, SmacofConfig::default());
        let rmse_after = embedding_rmse(&coords, &noisy);
        assert!(
            rmse_after <= rmse_before + 1e-12,
            "SMACOF worsened the fit: {rmse_before} -> {rmse_after}"
        );
    }

    #[test]
    fn weighted_refine_fixes_measured_pairs_despite_bad_fill() {
        // Square with unit sides measured; diagonals "completed" to inflated
        // 2-hop values (2.0 instead of √2). Weighted refinement must restore
        // the measured sides, which fitting every pair would compromise.
        let side = 1.0;
        let mut d = SquareMatrix::zeros(4);
        let pairs = [(0, 1), (1, 2), (2, 3), (3, 0)];
        for &(a, b) in &pairs {
            d[(a, b)] = side;
            d[(b, a)] = side;
        }
        d[(0, 2)] = 2.0;
        d[(2, 0)] = 2.0;
        d[(1, 3)] = 2.0;
        d[(3, 1)] = 2.0;
        let measured = |i: usize, j: usize| pairs.contains(&(i, j)) || pairs.contains(&(j, i));

        let mut coords = classical_mds(&d).unwrap();
        let s = refine_weighted(&mut coords, &d, measured, SmacofConfig::default());
        for &(a, b) in &pairs {
            let got = coords[a].distance(coords[b]);
            assert!((got - side).abs() < 0.02, "side ({a},{b}) = {got}");
        }
        assert!(s < 1e-3, "weighted stress {s}");
    }

    #[test]
    fn weighted_refine_with_no_pairs_is_a_noop() {
        let d = SquareMatrix::zeros(3);
        let mut coords = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        let orig = coords.clone();
        let s = refine_weighted(&mut coords, &d, |_, _| false, SmacofConfig::default());
        assert_eq!(s, 0.0);
        assert_eq!(coords, orig);
    }

    #[test]
    fn refine_trivial_sizes() {
        let d = SquareMatrix::zeros(1);
        let mut one = vec![Vec3::ZERO];
        assert_eq!(refine_weighted(&mut one, &d, |_, _| true, SmacofConfig::default()), 0.0);
    }
}
