//! # ballfit-netgen
//!
//! 3D wireless-network scenario generator for the `ballfit` reproduction of
//! *"Localized Algorithm for Precise Boundary Detection in 3D Wireless
//! Networks"* (ICDCS 2010).
//!
//! The paper constructs its simulated networks with TetGen and a set of 3D
//! graphic tools (Sec. IV-A): a 3D model is built; nodes are sampled
//! randomly uniformly *on its surface* (the ground-truth boundary nodes)
//! and *inside* it (the interior cloud); a radio range is chosen to make
//! the network connected with average nodal degree ≈ 18.5; and distance
//! measurements carry random errors of 0–100% of the radio range.
//!
//! This crate replaces that toolchain from scratch:
//!
//! * [`scenario::Scenario`] — the five evaluation scenarios (underwater
//!   column, space network with one and two interior holes, bended pipe,
//!   sphere) plus extra shapes, built on the SDF algebra of `ballfit-geom`.
//! * [`sampler`] — rejection sampling for interior clouds and
//!   project-to-surface sampling for ground-truth boundary nodes, and
//!   minimum-spacing thinning for blue-noise placement.
//! * [`builder::NetworkBuilder`] — end-to-end generation with radio-range
//!   calibration to a target average degree.
//! * [`model::NetworkModel`] — the generated network: positions, ground
//!   truth, radio range, topology.
//! * [`measure`] — distance-measurement error models and the deterministic
//!   per-pair [`measure::DistanceOracle`].
//! * [`churn`] — the dynamic-network hook: [`churn::ChurnDriver`] resolves
//!   abstract churn schedules into concrete in-shape topology events.
//!
//! # Example
//!
//! ```
//! use ballfit_netgen::builder::NetworkBuilder;
//! use ballfit_netgen::scenario::Scenario;
//!
//! let model = NetworkBuilder::new(Scenario::SolidSphere)
//!     .surface_nodes(300)
//!     .interior_nodes(700)
//!     .target_degree(16.0)
//!     .seed(7)
//!     .build()
//!     .expect("generation succeeds");
//! assert_eq!(model.len(), 1000);
//! assert!(model.topology().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod churn;
pub mod measure;
pub mod model;
pub mod sampler;
pub mod scenario;

/// Errors produced while generating a network.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// Rejection sampling failed to place the requested nodes (shape too
    /// thin relative to its bounding box, or budget too small).
    SamplingBudgetExhausted {
        /// Nodes successfully placed.
        placed: usize,
        /// Nodes requested.
        requested: usize,
    },
    /// No radio range within the search bracket achieves the target degree.
    DegreeUnreachable {
        /// Target average degree.
        target: f64,
        /// Best achieved average degree.
        achieved: f64,
    },
    /// The generated network is not connected at the chosen radio range.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
    /// A node count is zero: every network has ground-truth surface nodes
    /// and an interior cloud.
    NoNodes {
        /// `"surface"` or `"interior"`.
        kind: &'static str,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::SamplingBudgetExhausted { placed, requested } => {
                write!(f, "sampling budget exhausted: placed {placed} of {requested} nodes")
            }
            GenError::DegreeUnreachable { target, achieved } => {
                write!(f, "target degree {target} unreachable (best {achieved:.2})")
            }
            GenError::Disconnected { components } => {
                write!(f, "generated network has {components} connected components")
            }
            GenError::NoNodes { kind } => write!(f, "{kind} node count must be positive"),
        }
    }
}

impl std::error::Error for GenError {}
