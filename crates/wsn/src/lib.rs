//! # ballfit-wsn
//!
//! Wireless-network substrate for the `ballfit` reproduction of *"Localized
//! Algorithm for Precise Boundary Detection in 3D Wireless Networks"*
//! (ICDCS 2010).
//!
//! The paper's algorithms are *distributed and localized*: every node acts
//! on information from its one-hop neighborhood, exchanged over the radio.
//! This crate provides the two execution substrates used throughout the
//! reproduction:
//!
//! * [`Topology`] — an immutable connectivity graph (built from node
//!   positions and a radio range, or from explicit adjacency) with the graph
//!   machinery the pipeline needs: BFS hop distances, subset-restricted
//!   deterministic shortest paths, connected components, degree statistics.
//! * [`sim`] — a synchronous round-based message-passing simulator. A
//!   [`sim::Protocol`] describes per-node behaviour; the engine delivers
//!   messages between radio neighbors round by round and accounts every
//!   message sent, which lets the test-suite verify both the *outputs* and
//!   the *locality/message-complexity claims* of the paper (e.g. IFF's
//!   `O(1)` scoped flooding, run by [`flood::FragmentFlood`]).
//! * [`faults`] — a deterministic unreliable-radio model
//!   ([`faults::FaultPlan`]: per-link loss, duplication, bounded delay,
//!   scheduled crashes) applied by [`sim::Simulator::run_with_faults`].
//!   The engine has one round loop, and the perfect radio is
//!   [`faults::FaultPlan::none`]: [`sim::Simulator::run`] calls the loop
//!   with it.
//! * [`churn`] — a deterministic dynamic-network model
//!   ([`churn::ChurnPlan`]: seeded per-epoch join/leave/drift schedules)
//!   plus [`churn::DynamicTopology`], which maintains connectivity under
//!   events via incremental adjacency updates pinned byte-identical to a
//!   from-scratch rebuild; the static network is the zero-churn special
//!   case.
//!
//! Fast centralized-equivalent executors for the protocols live next to the
//! algorithms in the `ballfit` core crate; integration tests assert that the
//! two executions agree.
//!
//! # Example
//!
//! ```
//! use ballfit_geom::Vec3;
//! use ballfit_wsn::Topology;
//!
//! // Three nodes on a line, radio range 1: 0–1–2 is a path.
//! let positions = vec![
//!     Vec3::ZERO,
//!     Vec3::new(0.8, 0.0, 0.0),
//!     Vec3::new(1.6, 0.0, 0.0),
//! ];
//! let topo = Topology::from_positions(&positions, 1.0);
//! assert_eq!(topo.neighbors(1), &[0, 2]);
//! assert_eq!(topo.hop_distances(0)[2], Some(2));
//! assert!(topo.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod churn;
pub mod components;
pub mod faults;
pub mod flood;
pub mod sim;
pub mod topology;

pub use topology::{DegreeStats, NodeId, Topology};
