//! Statistical degree-based boundary recognition, after Fekete et al.,
//! "Neighborhood-Based Topology Recognition in Sensor Networks"
//! (arxiv cs/0508006).
//!
//! The insight the rival reproduces: in a network of roughly uniform
//! density, interior nodes see a full ball of neighbors while boundary
//! nodes see a truncated one, so a node whose degree falls clearly
//! below the density its own neighborhood implies is probably on the
//! boundary. The localized form here:
//!
//! 1. **Degree exchange** — every node broadcasts its degree once
//!    (`2·|E|` messages on a perfect radio) and accumulates its
//!    neighbors' degrees, giving it the closed-neighborhood mean degree
//!    `μ_i = (deg_i + Σ_{j∈N(i)} deg_j) / (1 + deg_i)` — its local
//!    density estimate.
//! 2. **Seeded threshold test** — node `i` declares boundary iff
//!    `deg_i < t · μ_i · (1 + j·(2u_i − 1))` where `t` is the threshold
//!    factor, `j` a small jitter amplitude, and `u_i ∈ [0, 1)` a
//!    per-node draw from a seeded bit mixer. The jitter reproduces the
//!    paper's probabilistic flavor while staying replay-bit-identical:
//!    the draw depends only on `(seed, node id)`, never on scheduling.
//! 3. **Grouping flood** — the same component-labeling exchange the
//!    reference pipeline uses, so group structure and its cost are
//!    comparable across backends.
//!
//! Isolated nodes (degree 0) have no neighborhood to estimate density
//! from; they are reported as degenerate and conservatively flagged
//! boundary, mirroring the UBF pipeline's `degenerate_is_boundary`
//! default. No unit balls are fitted, so `balls_tested` is always 0 —
//! that zero is the point of the head-to-head: E22 measures what the
//! geometric machinery buys over pure degree statistics.

use ballfit::detector::BoundaryDetection;
use ballfit::grouping::group_boundaries;
use ballfit::protocols::run_grouping_protocol;
use ballfit::view::NetView;
use ballfit_obs::{Trace, TraceEvent};
use ballfit_par::{par_map, Parallelism};
use ballfit_wsn::sim::{Ctx, Protocol, Simulator};
use ballfit_wsn::topology::NodeId;

use crate::{BackendDetection, BoundaryBackend};

/// Default threshold factor `t`: boundary iff degree < t·μ. Tuned on
/// the scenario gallery — high enough to catch truncated neighborhoods
/// on curved surfaces (recall 0.4–0.9 at paper density), low enough
/// that dense interiors stay quiet (precision ≥ 0.8 everywhere).
pub const DEFAULT_THRESHOLD: f64 = 0.85;

/// Default jitter amplitude `j` for the seeded threshold perturbation.
pub const DEFAULT_JITTER: f64 = 0.02;

/// The degree exchange is a single broadcast round; slack mirrors the
/// UBF exchange bound.
const EXCHANGE_MAX_ROUNDS: usize = 4;

/// SplitMix-style 64-bit finalizer (murmur3 fmix64 constants). Not a
/// stream RNG: one stateless draw per `(seed, node)` key, which is what
/// makes replays bit-identical regardless of evaluation order.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Uniform draw in `[0, 1)` keyed by `(seed, node)`.
fn unit_draw(seed: u64, node: NodeId) -> f64 {
    let key = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One-shot degree broadcast + accumulation. Quiesces after the single
/// delivery round on a perfect radio.
#[derive(Debug, Clone, Copy, Default)]
struct DegreeExchange {
    /// Own degree, learned from the neighbor list at start.
    degree: u64,
    /// Sum of neighbor degrees received.
    sum: u64,
}

impl Protocol for DegreeExchange {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.degree = ctx.neighbors().len() as u64;
        ctx.broadcast(self.degree);
    }

    fn on_message(&mut self, _from: NodeId, msg: &u64, _ctx: &mut Ctx<'_, u64>) {
        self.sum = self.sum.saturating_add(*msg);
    }
}

/// Fekete-style statistical boundary detector.
#[derive(Debug, Clone, Copy)]
pub struct StatisticalBackend {
    seed: u64,
    parallelism: Parallelism,
}

impl StatisticalBackend {
    /// A backend with [`DEFAULT_THRESHOLD`] and [`DEFAULT_JITTER`] and the
    /// given seed for the per-node threshold perturbation.
    pub fn new(seed: u64) -> Self {
        Self { seed, parallelism: Parallelism::default() }
    }

    /// Sets the worker-thread policy for the per-node verdict sweep.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The seed keying the per-node threshold draws.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl BoundaryBackend for StatisticalBackend {
    fn name(&self) -> &'static str {
        "stat"
    }

    fn detect(&self, view: &NetView<'_>, trace: &mut Trace) -> BackendDetection {
        let topo = view.topology();

        // Phase 1: degree exchange, measured on the simulator.
        trace.open("stat");
        trace.event(TraceEvent::NetSize { nodes: view.len(), edges: topo.edge_count() });
        let mut sim = Simulator::new(topo, |_| DegreeExchange::default());
        let stats = sim.run_traced(EXCHANGE_MAX_ROUNDS, trace);
        assert!(stats.quiescent, "degree exchange must quiesce on a perfect radio");
        let states: Vec<DegreeExchange> = sim.into_nodes();

        // Phase 2: seeded threshold test per node. The draw is keyed by
        // node id, so the sweep runs over indices; output depends only
        // on (seed, node, exchange state) — byte-identical at every
        // thread count.
        let indices: Vec<NodeId> = (0..view.len()).collect();
        let verdicts: Vec<(bool, bool)> = par_map(self.parallelism, &indices, |&i| {
            let s = &states[i];
            if s.degree == 0 {
                // Degenerate: no neighborhood to estimate density from.
                return (true, true);
            }
            let mean = (s.degree + s.sum) as f64 / (1 + s.degree) as f64;
            let wobble = 1.0 + DEFAULT_JITTER * (2.0 * unit_draw(self.seed, i) - 1.0);
            ((s.degree as f64) < DEFAULT_THRESHOLD * mean * wobble, false)
        });
        let boundary: Vec<bool> = verdicts.iter().map(|v| v.0).collect();
        let degenerate_nodes: Vec<NodeId> =
            verdicts.iter().enumerate().filter(|(_, v)| v.1).map(|(i, _)| i).collect();
        trace.event(TraceEvent::Counter {
            name: "boundary",
            value: boundary.iter().filter(|&&b| b).count() as u64,
        });
        trace.close();

        // Phase 3: grouping flood, same runner as the reference
        // pipeline so group costs are comparable.
        let (_, grouping) = run_grouping_protocol(topo, &boundary, trace)
            .expect("grouping flood must quiesce on a perfect radio");
        let messages = stats.messages + grouping.messages;
        let bytes = stats.bytes + grouping.bytes;
        let rounds = stats.rounds + grouping.rounds;

        let groups = group_boundaries(topo, &boundary);
        let detection = BoundaryDetection {
            candidates: boundary.clone(),
            boundary,
            groups,
            balls_tested: 0,
            degenerate_nodes,
        };
        BackendDetection { detection, messages, bytes, rounds }
    }
}
