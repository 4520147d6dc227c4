//! Integration: the local-MDS kernel is bit-identical to its textbook
//! formulation.
//!
//! `jacobi_eigen`, `refine_weighted` and `LocalDistances` run on flat
//! row-major storage, but every floating-point operation happens in the
//! same order as in the index-based versions kept below as references.
//! These pins compare f64 bits on seeded matrices (diagonal, repeated
//! eigenvalues, exact-zero and sub-1e-300 off-diagonal entries, a −0.0
//! diagonal beside a dense block, double-centred distance matrices
//! symmetric only within 1e-8), on the lane kernel at every width it runs
//! at (lanes of different families, so they converge in different sweeps
//! and one skips while others rotate), and on every node's frame of the
//! five gallery networks at 0, 10, 30 and 100% error, one node at a time
//! and batched over a shuffled node list.

use ballfit::config::CoordinateSource;
use ballfit::localizer::{neighborhood_frame_view, neighborhood_frames_view, NeighborhoodFrame};
use ballfit::view::NetView;
use ballfit_geom::Vec3;
use ballfit_mds::eigen::{jacobi_eigen, jacobi_eigen_lanes, EigenDecomposition};
use ballfit_mds::local::LocalDistances;
use ballfit_mds::matrix::SquareMatrix;
use ballfit_mds::smacof::{refine_weighted, SmacofConfig};
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::measure::ErrorModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_rng::{Rng, StdRng};
use ballfit_wsn::NodeId;

/// The reference kernel: the index-based formulation (nested distance
/// table, `V` untransposed, per-call closures) the flat kernel must match
/// bit for bit.
mod reference {
    use ballfit_geom::Vec3;
    use ballfit_mds::eigen::EigenDecomposition;
    use ballfit_mds::matrix::SquareMatrix;
    use ballfit_mds::smacof::{stress, SmacofConfig};
    use ballfit_mds::MdsError;

    pub fn jacobi_eigen(m: &SquareMatrix) -> EigenDecomposition {
        assert!(m.is_symmetric(1e-8), "jacobi_eigen requires a symmetric matrix");
        let n = m.n();
        let mut a = m.clone();
        let mut v = SquareMatrix::identity(n);
        let tol = 1e-13 * (1.0 + a.off_diagonal_norm());
        for _ in 0..100 {
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
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
        let values: Vec<f64> = order.iter().map(|&k| a[(k, k)]).collect();
        let vectors = SquareMatrix::from_fn(n, |i, k| v[(i, order[k])]);
        EigenDecomposition { values, vectors }
    }

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
        let partners: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| j != i && weight(i.min(j), i.max(j))).collect())
            .collect();
        let wfn = |i: usize, j: usize| weight(i.min(j), i.max(j));
        let mut best = coords.to_vec();
        let mut best_stress = stress(coords, distances, wfn);
        let mut current = best_stress;
        for _ in 0..config.max_iterations {
            let z: Vec<Vec3> = coords.to_vec();
            for (i, c) in coords.iter_mut().enumerate() {
                if partners[i].is_empty() {
                    continue;
                }
                let mut acc = Vec3::ZERO;
                for &j in &partners[i] {
                    let delta = z[i] - z[j];
                    let dist = delta.norm();
                    let target =
                        if dist > 1e-12 { z[j] + delta * (distances[(i, j)] / dist) } else { z[j] };
                    acc += target;
                }
                *c = acc / partners[i].len() as f64;
            }
            let next = stress(coords, distances, wfn);
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

    pub struct LocalDistances {
        n: usize,
        measured: Vec<Vec<Option<f64>>>,
    }

    impl LocalDistances {
        pub fn new(n: usize) -> Self {
            LocalDistances { n, measured: vec![vec![None; n]; n] }
        }

        pub fn set(&mut self, i: usize, j: usize, d: f64) {
            assert!(i < self.n && j < self.n && i != j, "invalid pair ({i}, {j})");
            assert!(d.is_finite() && d >= 0.0, "invalid distance {d}");
            self.measured[i][j] = Some(d);
            self.measured[j][i] = Some(d);
        }

        pub fn get(&self, i: usize, j: usize) -> Option<f64> {
            if i == j {
                Some(0.0)
            } else {
                self.measured[i][j]
            }
        }

        pub fn complete(&self) -> Result<SquareMatrix, MdsError> {
            let n = self.n;
            let mut d = SquareMatrix::from_fn(n, |i, j| {
                if i == j {
                    0.0
                } else {
                    self.measured[i][j].unwrap_or(f64::INFINITY)
                }
            });
            for k in 0..n {
                for i in 0..n {
                    let dik = d[(i, k)];
                    if !dik.is_finite() {
                        continue;
                    }
                    for j in 0..n {
                        let via = dik + d[(k, j)];
                        if via < d[(i, j)] {
                            d[(i, j)] = via;
                        }
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    if !d[(i, j)].is_finite() {
                        return Err(MdsError::DisconnectedNeighborhood);
                    }
                }
            }
            Ok(d)
        }
    }

    /// `embed_local` with the default (refining, floorless) configuration,
    /// classical MDS included, on the reference kernel.
    pub fn embed_local(distances: &LocalDistances) -> Result<(Vec<Vec3>, f64), MdsError> {
        let full = distances.complete()?;
        let n = full.n();
        if n < 2 {
            return Err(MdsError::TooFewPoints { points: n });
        }
        let squared = SquareMatrix::from_fn(n, |i, j| full[(i, j)].powi(2));
        let eig = jacobi_eigen(&squared.double_centered());
        let mut coords = vec![Vec3::ZERO; n];
        for axis in 0..3.min(n) {
            let lambda = eig.values[axis];
            if lambda <= 0.0 {
                break;
            }
            let scale = lambda.sqrt();
            for (i, c) in coords.iter_mut().enumerate() {
                let value = scale * eig.vectors[(i, axis)];
                match axis {
                    0 => c.x = value,
                    1 => c.y = value,
                    _ => c.z = value,
                }
            }
        }
        let measured = |i: usize, j: usize| i != j && distances.get(i, j).is_some();
        let stress = refine_weighted(&mut coords, &full, measured, SmacofConfig::default());
        Ok((coords, stress))
    }
}

fn matrix_bits(m: &SquareMatrix) -> Vec<u64> {
    let n = m.n();
    (0..n * n).map(|k| m[(k / n, k % n)].to_bits()).collect()
}

fn coord_bits(coords: &[Vec3]) -> Vec<u64> {
    coords.iter().flat_map(|c| [c.x, c.y, c.z]).map(f64::to_bits).collect()
}

fn eigen_bits(e: &EigenDecomposition) -> (Vec<u64>, Vec<u64>) {
    (e.values.iter().map(|v| v.to_bits()).collect(), matrix_bits(&e.vectors))
}

fn random_points(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            Vec3::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
        .collect()
}

/// A symmetric matrix whose upper triangle (diagonal included) is `f(i, j)`.
fn symmetric(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> SquareMatrix {
    let mut m = SquareMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let x = f(i, j);
            m[(i, j)] = x;
            m[(j, i)] = x;
        }
    }
    m
}

/// The seeded matrix families of the Jacobi pin, at size `n`.
fn jacobi_cases(rng: &mut StdRng, n: usize) -> Vec<(&'static str, SquareMatrix)> {
    let mut cases = Vec::new();
    cases.push(("dense", symmetric(n, |_, _| rng.gen_range(-2.0..2.0))));
    cases.push((
        "diagonal",
        symmetric(n, |i, j| if i == j { rng.gen_range(-3.0..3.0) } else { 0.0 }),
    ));
    cases.push(("all-ones", symmetric(n, |_, _| 1.0)));
    // Q·diag(λ)·Qᵀ with a Householder Q and eigenvalues in repeated pairs.
    let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let vv: f64 = v.iter().map(|x| x * x).sum();
    let q = SquareMatrix::from_fn(n, |i, j| f64::from(i == j) - 2.0 * v[i] * v[j] / vv);
    let lambda: Vec<f64> = (0..n).map(|k| ((k / 2) as f64) - 3.0).collect();
    cases.push((
        "repeated",
        symmetric(n, |i, j| (0..n).map(|k| q[(i, k)] * lambda[k] * q[(j, k)]).sum()),
    ));
    // Exact zeros and entries below the 1e-300 rotation threshold.
    let tiny = [0.0, -0.0, 1e-305, -4e-301, 5e-324];
    cases.push((
        "zero-and-tiny",
        symmetric(n, |i, j| match (i == j, rng.gen_range(0..3)) {
            (true, _) | (false, 0) => rng.gen_range(-2.0..2.0),
            _ => tiny[rng.gen_range(0..tiny.len())],
        }),
    ));
    // A dense block beside rows of signed zeros: the zero rows skip every
    // rotation while the block keeps the matrix unconverged, so the −0.0
    // diagonal must come out as −0.0 even from lanes that skip while
    // others rotate.
    let half = n / 2;
    cases.push((
        "signed-zero-block",
        symmetric(n, |_, j| if j < half { rng.gen_range(-2.0..2.0) } else { -0.0 }),
    ));
    // Double-centred squared distances whose distance matrix carries an
    // asymmetric relative perturbation of ~1e-12: symmetric only within
    // 1e-8, as classical MDS sees them.
    let pts = random_points(rng, n);
    let d = SquareMatrix::from_fn(n, |i, j| {
        let skew = if i == j { 0.0 } else { rng.gen_range(-1e-12..1e-12) };
        (pts[i].distance(pts[j]) * (1.0 + skew)).powi(2)
    });
    let b = d.double_centered();
    // (Two points double-centre to an exactly symmetric matrix.)
    assert!(b.is_symmetric(1e-8) && (n < 3 || !b.is_symmetric(0.0)), "n={n}: not near-symmetric");
    cases.push(("near-symmetric", b));
    cases
}

#[test]
fn jacobi_matches_the_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x1AC0B1);
    for n in 1..40 {
        for (name, m) in jacobi_cases(&mut rng, n) {
            let got = eigen_bits(&jacobi_eigen(&m));
            let want = eigen_bits(&reference::jacobi_eigen(&m));
            assert_eq!(got, want, "n={n}, {name}: eigendecomposition bits differ");
        }
    }
}

/// `W` lanes of size `n`, lane `l` filled with family `(first + l) mod
/// families` of `cases`; every lane's eigenpairs must equal the
/// reference's.
fn lanes_match<const W: usize>(n: usize, cases: &[(&'static str, SquareMatrix)], first: usize) {
    let lanes: [&(&str, SquareMatrix); W] =
        std::array::from_fn(|l| &cases[(first + l) % cases.len()]);
    let got = jacobi_eigen_lanes(lanes.map(|(_, m)| m));
    for (l, ((name, m), e)) in lanes.iter().zip(&got).enumerate() {
        let want = eigen_bits(&reference::jacobi_eigen(m));
        assert_eq!(eigen_bits(e), want, "n={n}, {W} lanes: lane {l} ({name}) differs");
    }
}

#[test]
fn lane_kernel_matches_the_reference_bit_for_bit() {
    // Mixing families puts a diagonal lane (done before the first sweep)
    // next to dense ones (several sweeps), and a zero-and-tiny lane (exact
    // ±0, 5e-324 and other sub-1e-300 entries it must skip) next to lanes
    // that rotate at the same (p, q).
    let mut rng = StdRng::seed_from_u64(0x1A4E5);
    for n in 1..40 {
        let cases = jacobi_cases(&mut rng, n);
        for first in 0..cases.len() {
            lanes_match::<1>(n, &cases, first);
            lanes_match::<2>(n, &cases, first);
            lanes_match::<4>(n, &cases, first);
            lanes_match::<8>(n, &cases, first);
        }
    }
}

#[test]
fn refine_weighted_matches_the_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5AAC0F);
    for n in 1..40 {
        let pts = random_points(&mut rng, n);
        // Noisy, and asymmetric in the last bits, so each point must read
        // its target from its own row.
        let d = SquareMatrix::from_fn(n, |i, j| pts[i].distance(pts[j]) + rng.gen_range(0.0..0.05));
        let density = rng.gen_range(0.0..1.0);
        let mask: Vec<bool> = (0..n * n).map(|_| rng.gen_bool(density)).collect();
        let weight = |i: usize, j: usize| mask[i * n + j];
        let mut start = random_points(&mut rng, n);
        if n >= 3 {
            start[2] = start[1]; // a coincident pair
        }
        let config = SmacofConfig { max_iterations: 60, tolerance: 1e-9 };
        let mut got = start.clone();
        let got_stress = refine_weighted(&mut got, &d, weight, config);
        let mut want = start.clone();
        let want_stress = reference::refine_weighted(&mut want, &d, weight, config);
        assert_eq!(coord_bits(&got), coord_bits(&want), "n={n}: refined coordinates differ");
        assert_eq!(got_stress.to_bits(), want_stress.to_bits(), "n={n}: stress differs");
    }
}

#[test]
fn local_distances_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for n in 0..40 {
        let pts = random_points(&mut rng, n);
        let density = rng.gen_range(0.0..1.0);
        let mut flat = LocalDistances::new(n);
        let mut nested = reference::LocalDistances::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(density) {
                    let d = pts[i].distance(pts[j]);
                    flat.set(i, j, d);
                    nested.set(i, j, d);
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(flat.get(i, j).map(f64::to_bits), nested.get(i, j).map(f64::to_bits));
            }
        }
        let got = flat.complete().map(|m| matrix_bits(&m));
        let want = nested.complete().map(|m| matrix_bits(&m));
        assert_eq!(got, want, "n={n}, density {density}: completion differs");
    }
}

fn frame_bits(frame: &NeighborhoodFrame) -> (Vec<NodeId>, usize, Vec<u64>, u64) {
    (frame.members.clone(), frame.self_index, coord_bits(&frame.coords), frame.stress.to_bits())
}

/// Every node's production frame on `scenario`'s gallery network equals
/// the reference embedding of the same measurements, at 0, 10, 30 and
/// 100% error; the batched frames of a shuffled node list equal the
/// one-node frames.
fn gallery_frames_match(scenario: Scenario) {
    let (surface, interior) = match scenario {
        Scenario::BendedPipe => (500, 800),
        _ => (700, 1200),
    };
    let model = NetworkBuilder::new(scenario)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(18.5)
        .seed(42)
        .build()
        .expect("gallery networks build");
    let view = NetView::from_model(&model);
    let topo = model.topology();
    for percent in [0, 10, 30, 100] {
        let mut one_by_one = Vec::with_capacity(model.len());
        let source = CoordinateSource::paper_error(percent, 7);
        let oracle = view.oracle(ErrorModel::paper_percent(percent), 7);
        for node in 0..model.len() {
            let members = topo.closed_k_hop_neighborhood(node, 1);
            let mut table = reference::LocalDistances::new(members.len());
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    let (i, j) = (members[a], members[b]);
                    if topo.are_neighbors(i, j) {
                        table.set(a, b, oracle.measure(i, j, view.true_distance(i, j)));
                    }
                }
            }
            let want = if members.len() < 2 { None } else { reference::embed_local(&table).ok() };
            let got = neighborhood_frame_view(&view, node, &source, 1);
            assert_eq!(
                got.as_ref().map(|f| (coord_bits(&f.coords), f.stress.to_bits())),
                want.map(|(coords, stress)| (coord_bits(&coords), stress.to_bits())),
                "{scenario}, {percent}% error: frame of node {node} differs"
            );
            one_by_one.push(got.as_ref().map(frame_bits));
        }
        let mut nodes: Vec<NodeId> = (0..model.len()).collect();
        StdRng::seed_from_u64(u64::from(percent)).shuffle(&mut nodes);
        let batched = neighborhood_frames_view(&view, &nodes, &source, 1);
        for (&node, frame) in nodes.iter().zip(&batched) {
            assert_eq!(
                frame.as_ref().map(frame_bits),
                one_by_one[node],
                "{scenario}, {percent}% error: batched frame of node {node} differs"
            );
        }
    }
}

#[test]
fn gallery_frames_match_on_underwater() {
    gallery_frames_match(Scenario::Underwater);
}

#[test]
fn gallery_frames_match_on_one_hole() {
    gallery_frames_match(Scenario::SpaceOneHole);
}

#[test]
fn gallery_frames_match_on_two_holes() {
    gallery_frames_match(Scenario::SpaceTwoHoles);
}

#[test]
fn gallery_frames_match_on_bended_pipe() {
    gallery_frames_match(Scenario::BendedPipe);
}

#[test]
fn gallery_frames_match_on_sphere() {
    gallery_frames_match(Scenario::SolidSphere);
}
