//! # ballfit-mds
//!
//! MDS-based localization substrate for the `ballfit` reproduction of
//! *"Localized Algorithm for Precise Boundary Detection in 3D Wireless
//! Networks"* (ICDCS 2010).
//!
//! In the paper (Sec. II-A3, step I), every node without known coordinates
//! establishes a *local* coordinate system for its one-hop neighborhood
//! from noisy pairwise distance measurements, using the MDS-based
//! localization of Shang & Ruml `[31]`. Only the relative frame matters:
//! Unit Ball Fitting is invariant under rigid motions and reflections.
//!
//! This crate implements that substrate from scratch:
//!
//! * [`matrix::SquareMatrix`] — small dense matrices.
//! * [`eigen::jacobi_eigen`] — a cyclic Jacobi eigensolver for symmetric
//!   matrices (neighborhood sizes are ≤ a few dozen, where Jacobi is both
//!   simple and accurate), and [`eigen::jacobi_eigen_lanes`], the same
//!   solver run on up to eight same-size matrices in lock-step lanes,
//!   each lane bit-identical to `jacobi_eigen`.
//! * [`cmds::classical_mds`] — classical (Torgerson) MDS: squared-distance
//!   double centering followed by a top-`k` eigendecomposition.
//! * [`smacof`] — SMACOF stress-majorization refinement, the iterative
//!   improvement step of "improved MDS-based localization".
//! * [`local::LocalFrame`] — the end-to-end per-node pipeline: complete
//!   missing pairwise distances by shortest paths within the neighborhood,
//!   run classical MDS, optionally refine with SMACOF.
//!   [`local::embed_local_many`] embeds many neighborhoods at once, same-size
//!   ones sharing lane passes, with the bits of [`local::embed_local`].
//!
//! # Example
//!
//! ```
//! use ballfit_mds::cmds::classical_mds;
//! use ballfit_mds::matrix::SquareMatrix;
//!
//! // A unit square in the plane, recovered into 3D (third axis ~ 0).
//! let pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
//! let d = SquareMatrix::from_fn(4, |i, j| {
//!     let (dx, dy): (f64, f64) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
//!     (dx * dx + dy * dy).sqrt()
//! });
//! let coords = classical_mds(&d).unwrap();
//! // Pairwise distances are preserved.
//! let err = (coords[0].distance(coords[1]) - 1.0).abs();
//! assert!(err < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmds;
pub mod eigen;
pub mod local;
pub mod matrix;
pub mod smacof;

/// Errors produced by the localization pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// Fewer than two points — no geometry to recover.
    TooFewPoints {
        /// Number of points supplied.
        points: usize,
    },
    /// The distance information does not connect all points, so relative
    /// positions are undefined.
    DisconnectedNeighborhood,
    /// The distance matrix contains a negative or non-finite entry.
    InvalidDistance {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl std::fmt::Display for MdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdsError::TooFewPoints { points } => {
                write!(f, "need at least 2 points for MDS, got {points}")
            }
            MdsError::DisconnectedNeighborhood => {
                write!(f, "distance information does not connect the neighborhood")
            }
            MdsError::InvalidDistance { row, col } => {
                write!(f, "invalid distance at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for MdsError {}
