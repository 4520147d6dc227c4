//! Per-node local coordinate frames from noisy 1-hop distance measurements.
//!
//! This realizes step (I) of the paper's UBF algorithm: node `i` collects
//! the measured distances between all pairs of nodes within its one-hop
//! neighborhood `N(i)` and embeds them in a *local* 3D frame (no global
//! alignment). Pairs that are mutual radio neighbors have measurements;
//! pairs that are not (two neighbors of `i` more than one radio range
//! apart) are completed by shortest paths *within the neighborhood graph*,
//! the MDS-MAP approach of Shang & Ruml.

use ballfit_geom::Vec3;

use crate::cmds::{check_distances, classical_mds_lanes};
use crate::eigen::{lane_groups, LaneScratch};
use crate::matrix::SquareMatrix;
use crate::smacof::{self, SmacofConfig};
use crate::MdsError;

/// Input to a local embedding: `n` neighborhood members and the measured
/// distances for the pairs that have them.
#[derive(Debug, Clone)]
pub struct LocalDistances {
    /// The measured distance of pair `(i, j)`, `+∞` for an unmeasured pair
    /// and 0 on the diagonal — the starting matrix of
    /// [`LocalDistances::complete`]. Symmetric.
    measured: SquareMatrix,
}

impl LocalDistances {
    /// Creates an empty measurement table over `n` members.
    pub fn new(n: usize) -> Self {
        let measured = SquareMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { f64::INFINITY });
        LocalDistances { measured }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.measured.n()
    }

    /// `true` if there are no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a symmetric measurement between members `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, equal, or `d` is negative or
    /// non-finite.
    pub fn set(&mut self, i: usize, j: usize, d: f64) {
        let n = self.len();
        assert!(i < n && j < n && i != j, "invalid pair ({i}, {j})");
        assert!(d.is_finite() && d >= 0.0, "invalid distance {d}");
        self.measured[(i, j)] = d;
        self.measured[(j, i)] = d;
    }

    /// The recorded measurement, if any.
    ///
    /// # Panics
    ///
    /// Panics if `i != j` and either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i == j {
            return Some(0.0);
        }
        assert!(i < self.len() && j < self.len(), "invalid pair ({i}, {j})");
        let d = self.measured[(i, j)];
        d.is_finite().then_some(d)
    }

    /// Completes the table into a full matrix using all-pairs shortest
    /// paths over the measured edges (Floyd–Warshall; neighborhoods are
    /// small).
    ///
    /// # Errors
    ///
    /// [`MdsError::DisconnectedNeighborhood`] if some pair remains
    /// unreachable.
    pub fn complete(&self) -> Result<SquareMatrix, MdsError> {
        shortest_paths(self.measured.clone())
    }

    /// [`LocalDistances::complete`] in the table's own storage, with which
    /// pairs were measured (`i ≠ j`, row-major).
    fn into_complete(self) -> Result<(SquareMatrix, Vec<bool>), MdsError> {
        let n = self.len();
        let measured = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| i != j && self.measured[(i, j)].is_finite())
            .collect();
        Ok((shortest_paths(self.measured)?, measured))
    }
}

/// All-pairs shortest paths over `d` in place (Floyd–Warshall;
/// neighborhoods are small), from the table's starting matrix.
fn shortest_paths(mut d: SquareMatrix) -> Result<SquareMatrix, MdsError> {
    let n = d.n();
    for k in 0..n {
        // Row k never changes in round k (d_kk = 0), so every other row
        // reads it as a slice.
        for i in (0..n).filter(|&i| i != k) {
            let dik = d[(i, k)];
            if !dik.is_finite() {
                continue;
            }
            let (row_i, row_k) = d.row_and(i, k);
            for (x, &dkj) in row_i.iter_mut().zip(row_k) {
                let via = dik + dkj;
                *x = if via < *x { via } else { *x };
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

/// Configuration of the local embedding.
#[derive(Debug, Clone, Copy)]
pub struct LocalFrameConfig {
    /// Whether to run SMACOF refinement after classical MDS (the paper
    /// adopts the *improved* MDS localization, which refines).
    pub refine: bool,
    /// SMACOF parameters when `refine` is set.
    pub smacof: SmacofConfig,
}

impl Default for LocalFrameConfig {
    fn default() -> Self {
        LocalFrameConfig { refine: true, smacof: SmacofConfig::default() }
    }
}

/// A computed local frame: coordinates per neighborhood member, in the
/// member order of the input [`LocalDistances`].
#[derive(Debug, Clone)]
pub struct LocalFrame {
    /// Embedded coordinates (centered, arbitrary orientation/handedness).
    pub coords: Vec<Vec3>,
    /// Final raw stress over the measured pairs (0 for exact inputs).
    pub stress: f64,
}

/// Embeds a neighborhood into a local 3D frame: the one-table case of
/// [`embed_local_many`].
///
/// # Errors
///
/// Propagates [`MdsError`] from completion and MDS (too few points,
/// disconnected neighborhood, invalid distances).
pub fn embed_local(
    distances: &LocalDistances,
    config: LocalFrameConfig,
) -> Result<LocalFrame, MdsError> {
    let mut frames = embed_local_many(vec![distances.clone()], config, &mut LaneScratch::default());
    frames.pop().expect("one frame per table")
}

/// Embeds many neighborhoods, one result per table in `tables` order, each
/// bit-identical to [`embed_local`] of that table.
///
/// Tables are taken in [`lane_groups`] of equal member count. Each table
/// of a group is completed in its own storage, and the group runs
/// classical MDS's eigendecompositions as lock-step lane passes in
/// `scratch`; only one group's matrices are alive at a time.
///
/// # Errors
///
/// Each result carries its own table's [`MdsError`], as for
/// [`embed_local`].
pub fn embed_local_many(
    tables: Vec<LocalDistances>,
    config: LocalFrameConfig,
    scratch: &mut LaneScratch,
) -> Vec<Result<LocalFrame, MdsError>> {
    let mut frames = vec![None; tables.len()];
    let sizes: Vec<usize> = tables.iter().map(LocalDistances::len).collect();
    let mut tables: Vec<Option<LocalDistances>> = tables.into_iter().map(Some).collect();
    for group in lane_groups(&sizes) {
        let mut lanes = Vec::with_capacity(group.len());
        for t in group {
            let table = tables[t].take().expect("each table is embedded once");
            match table.into_complete().and_then(|(full, measured)| {
                check_distances(&full)?;
                Ok((full, measured))
            }) {
                Ok((full, measured)) => lanes.push((t, full, measured)),
                Err(e) => frames[t] = Some(Err(e)),
            }
        }
        let fulls: Vec<&SquareMatrix> = lanes.iter().map(|(_, full, _)| full).collect();
        let embeddings = classical_mds_lanes(scratch, &fulls);
        for ((t, full, measured), mut coords) in lanes.iter().zip(embeddings) {
            let stress = refine(full, measured, &mut coords, config);
            frames[*t] = Some(Ok(LocalFrame { coords, stress }));
        }
    }
    frames.into_iter().map(|frame| frame.expect("every table is embedded")).collect()
}

/// Refines classical MDS's `coords` per `config` and returns the stress.
///
/// Refinement is weighted to the *measured* pairs: the shortest-path
/// completions seeded classical MDS but are systematically inflated, so
/// they must not keep pulling on the refined frame.
fn refine(
    full: &SquareMatrix,
    measured: &[bool],
    coords: &mut [Vec3],
    config: LocalFrameConfig,
) -> f64 {
    let n = full.n();
    let measured = |i: usize, j: usize| measured[i * n + j];
    if config.refine {
        smacof::refine_weighted(coords, full, measured, config.smacof)
    } else {
        smacof::stress(coords, full, measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build measurements from true points, marking only pairs within
    /// `range` as measured.
    fn from_points(points: &[Vec3], range: f64) -> LocalDistances {
        let mut ld = LocalDistances::new(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let d = points[i].distance(points[j]);
                if d <= range {
                    ld.set(i, j, d);
                }
            }
        }
        ld
    }

    #[test]
    fn complete_fills_via_shortest_paths() {
        // Chain 0-1-2 with unit links; pair (0,2) unmeasured → completed to 2.
        let pts = vec![Vec3::ZERO, Vec3::X, Vec3::new(2.0, 0.0, 0.0)];
        let ld = from_points(&pts, 1.0);
        assert_eq!(ld.get(0, 2), None);
        assert_eq!(ld.get(0, 0), Some(0.0));
        let full = ld.complete().unwrap();
        assert_eq!(full[(0, 2)], 2.0);
        assert_eq!(full[(0, 1)], 1.0);
    }

    #[test]
    fn disconnected_neighborhood_errors() {
        let pts = vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        let ld = from_points(&pts, 1.0);
        assert_eq!(ld.complete(), Err(MdsError::DisconnectedNeighborhood));
    }

    #[test]
    fn exact_measurements_recover_geometry() {
        let pts = vec![
            Vec3::new(0.1, 0.0, 0.2),
            Vec3::new(0.9, 0.1, 0.0),
            Vec3::new(0.4, 0.8, 0.1),
            Vec3::new(0.3, 0.3, 0.9),
            Vec3::new(0.6, 0.5, 0.5),
        ];
        // All pairs measured (range large).
        let ld = from_points(&pts, 10.0);
        let frame = embed_local(&ld, LocalFrameConfig::default()).unwrap();
        assert!(frame.stress < 1e-10, "stress {}", frame.stress);
        // Pairwise distances preserved.
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let truth = pts[i].distance(pts[j]);
                let got = frame.coords[i].distance(frame.coords[j]);
                assert!((truth - got).abs() < 1e-6, "pair ({i},{j}): {truth} vs {got}");
            }
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let pts = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.5, 0.9, 0.0),
            Vec3::new(0.4, 0.3, 0.8),
            Vec3::new(1.2, 0.7, 0.3),
            Vec3::new(0.1, 1.0, 0.6),
        ];
        // Restrict measurements so some pairs are path-completed (inflated),
        // making the input slightly non-Euclidean.
        let ld = from_points(&pts, 1.1);
        let plain =
            embed_local(&ld, LocalFrameConfig { refine: false, ..Default::default() }).unwrap();
        let refined = embed_local(&ld, LocalFrameConfig::default()).unwrap();
        assert!(refined.stress <= plain.stress + 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn set_diagonal_panics() {
        let mut ld = LocalDistances::new(3);
        ld.set(1, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn set_negative_panics() {
        let mut ld = LocalDistances::new(3);
        ld.set(0, 1, -0.5);
    }
}
