//! Synchronous round-based message-passing simulator.
//!
//! The paper's algorithms are stated as localized protocols: nodes exchange
//! messages with radio neighbors and act on local state. This engine
//! executes such protocols faithfully:
//!
//! * Every node runs an instance of a [`Protocol`] (its per-node state).
//! * Time advances in synchronous rounds; a message sent in round `r` is
//!   delivered at the start of round `r + 1`.
//! * Only radio neighbors can exchange messages — sending to a non-neighbor
//!   is rejected, which *enforces* the paper's locality claim in tests.
//! * Every message is counted, so message-complexity claims (IFF's `O(1)`
//!   scoped flooding, CDM's path probes) are measurable.
//!
//! Delivery order within a round is deterministic (sorted by destination,
//! then source, then send order), so protocol runs are reproducible. Both
//! engines reach that order with a stable counting pass on `(to, from)`,
//! O(n + m) for a round of m messages on n nodes. The fault engine keeps
//! pending deliveries grouped by due round, each group in send order, so
//! a round takes its group without scanning later ones; the groups live
//! in a map keyed by round, so their memory follows the messages in
//! flight, never `max_delay`.
//!
//! Every run can additionally emit a deterministic structured trace
//! ([`Simulator::run_traced`] / [`Simulator::run_with_faults_traced`]):
//! a `"round"` span per executed round with per-round message/byte and
//! fault-attribution accounting, recorded in logical time only. The
//! plain entry points are the [`Trace::disabled`] special case, so the
//! traced and untraced engines are literally the same code.

use std::collections::BTreeMap;

pub use ballfit_obs::MsgBytes;
use ballfit_obs::{Trace, TraceEvent};

use crate::faults::{FaultCounts, FaultPlan, Xoshiro256PlusPlus};
use crate::topology::{NodeId, Topology};

/// Per-node protocol behaviour. One instance exists per node; the engine
/// invokes the callbacks with a [`Ctx`] through which messages are sent.
pub trait Protocol {
    /// Message type exchanged between neighbors. The [`MsgBytes`] bound
    /// gives every transmission a deterministic wire size, so byte
    /// overhead is accounted alongside message counts.
    type Msg: Clone + MsgBytes;

    /// Called once for every node before round 0.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called once per delivered message.
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called at the end of each round (after all deliveries), e.g. to
    /// aggregate or to trigger the next phase. Default: no-op.
    fn on_round_end(&mut self, _round: usize, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Whether this node still needs rounds to advance even with no
    /// messages in flight (phase-synchronous protocols count rounds as a
    /// clock). The engine only declares quiescence when no messages are
    /// pending *and* no node wants a tick. Default: `false`.
    fn wants_tick(&self) -> bool {
        false
    }

    /// Sends this node made beyond the protocol's fault-free schedule
    /// (retransmissions, repair probes): the hardening overhead that
    /// protocol runners record as one retransmit event per node.
    /// Default: 0.
    fn resends(&self) -> u64 {
        0
    }
}

/// Send-side context handed to protocol callbacks.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    node: NodeId,
    neighbors: &'a [u32],
    outbox: &'a mut Vec<(NodeId, NodeId, M)>,
    sent: &'a mut u64,
    bytes: &'a mut u64,
}

impl<M: Clone + MsgBytes> Ctx<'_, M> {
    /// The node this context belongs to.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's radio neighbors (sorted), a contiguous slice of the
    /// topology's flat CSR arena.
    #[inline]
    pub fn neighbors(&self) -> &[u32] {
        self.neighbors
    }

    /// Sends `msg` to neighbor `to` (delivered next round).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a radio neighbor — localized protocols must
    /// not talk past one hop.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.binary_search(&(to as u32)).is_ok(),
            "node {} attempted to send to non-neighbor {} — protocol is not localized",
            self.node,
            to
        );
        *self.sent += 1;
        *self.bytes += msg.msg_bytes();
        self.outbox.push((self.node, to, msg));
    }

    /// Broadcasts `msg` to every neighbor (counted as one message per
    /// neighbor, the radio-agnostic upper bound). The last neighbor takes
    /// `msg` by move, so a degree-d broadcast clones d−1 times.
    pub fn broadcast(&mut self, msg: M) {
        let Some((&last, rest)) = self.neighbors.split_last() else {
            return;
        };
        let size = msg.msg_bytes();
        for &to in rest {
            *self.sent += 1;
            *self.bytes += size;
            self.outbox.push((self.node, to as NodeId, msg.clone()));
        }
        *self.sent += 1;
        *self.bytes += size;
        self.outbox.push((self.node, last as NodeId, msg));
    }
}

/// Statistics from a protocol run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RunStats {
    /// Number of rounds executed (message-delivery rounds).
    pub rounds: usize,
    /// Total messages sent across all nodes and rounds.
    pub messages: u64,
    /// Total payload bytes sent ([`MsgBytes`] wire sizes).
    pub bytes: u64,
    /// `true` if the run stopped because no messages were in flight.
    pub quiescent: bool,
    /// Injected-fault counters; all zero on the perfect-delivery path.
    pub faults: FaultCounts,
    /// Messages sent per round: index 0 is the start phase (`on_start`
    /// sends), index `r ≥ 1` the sends of executed round `r`. Length is
    /// always `rounds + 1`. A node revived at round `r` contributes its
    /// late `on_start` sends to bucket `r`.
    pub per_round_messages: Vec<u64>,
    /// Payload bytes sent per round; same bucket layout as
    /// [`RunStats::per_round_messages`].
    pub per_round_bytes: Vec<u64>,
}

/// Adds `delta` to `buckets[index]`, growing the vector with zeros on
/// demand.
fn bucket_add(buckets: &mut Vec<u64>, index: usize, delta: u64) {
    if buckets.len() <= index {
        buckets.resize(index + 1, 0);
    }
    buckets[index] += delta;
}

/// Normalizes the per-round vectors to `rounds + 1` buckets, emits the
/// end-of-run [`TraceEvent::Convergence`] record and assembles the
/// stats. Shared tail of both engines.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    trace: &mut Trace,
    rounds: usize,
    messages: u64,
    bytes: u64,
    quiescent: bool,
    faults: FaultCounts,
    mut per_round_messages: Vec<u64>,
    mut per_round_bytes: Vec<u64>,
) -> RunStats {
    per_round_messages.resize(rounds + 1, 0);
    per_round_bytes.resize(rounds + 1, 0);
    trace.event(TraceEvent::Convergence { rounds, messages, bytes, quiescent });
    RunStats { rounds, messages, bytes, quiescent, faults, per_round_messages, per_round_bytes }
}

/// One round's deliveries ordered by `(to, from)`, send order kept among
/// equal keys: two stable counting passes, by `from` and then by `to`
/// (least significant key first), over message indices. A round of m
/// messages on n nodes costs O(n + m); the buffers are reused across
/// rounds.
#[derive(Debug, Default)]
struct DeliveryOrder {
    /// Bucket cursors of the `from` pass, one per node plus one.
    from_at: Vec<usize>,
    /// Bucket cursors of the `to` pass, one per node plus one.
    to_at: Vec<usize>,
    /// Message indices ordered by `from`.
    by_from: Vec<usize>,
    /// Message indices ordered by `(to, from)`.
    order: Vec<usize>,
}

impl DeliveryOrder {
    /// Indices into `msgs` (`(from, to, msg)` in send order, every node
    /// below `n`) in delivery order.
    fn sort<M>(&mut self, n: usize, msgs: &[(NodeId, NodeId, M)]) -> &[usize] {
        self.order.clear();
        if msgs.is_empty() {
            return &self.order;
        }
        for cursor in [&mut self.from_at, &mut self.to_at] {
            cursor.clear();
            cursor.resize(n + 1, 0);
        }
        for &(from, to, _) in msgs {
            self.from_at[from + 1] += 1;
            self.to_at[to + 1] += 1;
        }
        for k in 1..=n {
            self.from_at[k] += self.from_at[k - 1];
            self.to_at[k] += self.to_at[k - 1];
        }
        self.by_from.clear();
        self.by_from.resize(msgs.len(), 0);
        for (i, &(from, _, _)) in msgs.iter().enumerate() {
            self.by_from[self.from_at[from]] = i;
            self.from_at[from] += 1;
        }
        self.order.resize(msgs.len(), 0);
        for &i in &self.by_from {
            let to = msgs[i].1;
            self.order[self.to_at[to]] = i;
            self.to_at[to] += 1;
        }
        &self.order
    }
}

/// A round's sends as `(from, to, msg)`, in send order.
type Batch<M> = Vec<(NodeId, NodeId, M)>;

/// The fault engine's pending deliveries, grouped by due round, each
/// group in send order. Only rounds with a message in flight have a
/// group, so memory follows the in-flight messages whatever the plan's
/// `max_delay`; drained groups keep their allocation for reuse.
#[derive(Debug)]
struct DueGroups<M> {
    groups: BTreeMap<usize, Batch<M>>,
    spare: Vec<Batch<M>>,
}

impl<M> DueGroups<M> {
    fn new() -> Self {
        DueGroups { groups: BTreeMap::new(), spare: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Appends a delivery due after round `due` (delivered in round
    /// `due + 1`).
    fn push(&mut self, due: usize, from: NodeId, to: NodeId, msg: M) {
        let spare = &mut self.spare;
        self.groups
            .entry(due)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push((from, to, msg));
    }

    /// Takes the deliveries of round `round` (those due at an earlier
    /// round), in send order. A send is never due before the round it was
    /// sent in and every round takes its group, so only the group due at
    /// `round − 1` can qualify.
    fn take_due(&mut self, round: usize) -> Option<Batch<M>> {
        match self.groups.first_key_value() {
            Some((&due, _)) if due < round => self.groups.pop_first().map(|(_, group)| group),
            _ => None,
        }
    }

    /// Returns a delivered group's allocation for reuse.
    fn recycle(&mut self, mut group: Batch<M>) {
        group.clear();
        self.spare.push(group);
    }
}

/// The simulation engine: a topology plus one protocol instance per node.
#[derive(Debug)]
pub struct Simulator<'t, P: Protocol> {
    topo: &'t Topology,
    nodes: Vec<P>,
}

impl<'t, P: Protocol> Simulator<'t, P> {
    /// Creates a simulator, constructing per-node state with `init`.
    pub fn new<F: FnMut(NodeId) -> P>(topo: &'t Topology, mut init: F) -> Self {
        let nodes = (0..topo.len()).map(&mut init).collect();
        Simulator { topo, nodes }
    }

    /// Runs the protocol until quiescence or `max_rounds`, whichever comes
    /// first. Returns run statistics; inspect per-node outcomes via
    /// [`Simulator::node`] / [`Simulator::into_nodes`].
    pub fn run(&mut self, max_rounds: usize) -> RunStats {
        self.run_traced(max_rounds, &mut Trace::disabled())
    }

    /// [`Simulator::run`] with structured tracing: emits the network
    /// size, one `"round"` span per executed round (round 0 is the
    /// start phase) with message/byte/delivery accounting, and an
    /// end-of-run convergence record. With [`Trace::disabled`] this *is*
    /// `run` — the plain entry point delegates here.
    pub fn run_traced(&mut self, max_rounds: usize, trace: &mut Trace) -> RunStats {
        let mut sent: u64 = 0;
        let mut bytes: u64 = 0;
        let mut per_round_messages: Vec<u64> = Vec::new();
        let mut per_round_bytes: Vec<u64> = Vec::new();
        let mut inflight: Batch<P::Msg> = Vec::new();
        let mut deliveries: Batch<P::Msg> = Vec::new();
        let mut order = DeliveryOrder::default();
        trace.event(TraceEvent::NetSize { nodes: self.nodes.len(), edges: self.topo.edge_count() });

        // Start phase ("round 0" of the accounting).
        for id in 0..self.nodes.len() {
            let mut ctx = Ctx {
                node: id,
                neighbors: self.topo.neighbors(id),
                outbox: &mut inflight,
                sent: &mut sent,
                bytes: &mut bytes,
            };
            self.nodes[id].on_start(&mut ctx);
        }
        bucket_add(&mut per_round_messages, 0, sent);
        bucket_add(&mut per_round_bytes, 0, bytes);
        trace.open("round");
        trace.event(TraceEvent::Round {
            round: 0,
            sent,
            bytes,
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            crash_lost: 0,
        });
        trace.close();
        let (mut prev_sent, mut prev_bytes) = (sent, bytes);

        let mut rounds = 0;
        while rounds < max_rounds {
            if inflight.is_empty() && !self.nodes.iter().any(Protocol::wants_tick) {
                return finish_run(
                    trace,
                    rounds,
                    sent,
                    bytes,
                    true,
                    FaultCounts::default(),
                    per_round_messages,
                    per_round_bytes,
                );
            }
            rounds += 1;
            // Last round's sends, in the deterministic delivery order.
            std::mem::swap(&mut inflight, &mut deliveries);
            let delivered = deliveries.len() as u64;
            for &i in order.sort(self.nodes.len(), &deliveries) {
                let (from, to, msg) = &deliveries[i];
                let mut ctx = Ctx {
                    node: *to,
                    neighbors: self.topo.neighbors(*to),
                    outbox: &mut inflight,
                    sent: &mut sent,
                    bytes: &mut bytes,
                };
                self.nodes[*to].on_message(*from, msg, &mut ctx);
            }
            deliveries.clear();
            for id in 0..self.nodes.len() {
                let mut ctx = Ctx {
                    node: id,
                    neighbors: self.topo.neighbors(id),
                    outbox: &mut inflight,
                    sent: &mut sent,
                    bytes: &mut bytes,
                };
                self.nodes[id].on_round_end(rounds - 1, &mut ctx);
            }
            bucket_add(&mut per_round_messages, rounds, sent - prev_sent);
            bucket_add(&mut per_round_bytes, rounds, bytes - prev_bytes);
            trace.open("round");
            trace.event(TraceEvent::Round {
                round: rounds,
                sent: sent - prev_sent,
                bytes: bytes - prev_bytes,
                delivered,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                crash_lost: 0,
            });
            trace.close();
            prev_sent = sent;
            prev_bytes = bytes;
        }
        let quiescent = inflight.is_empty() && !self.nodes.iter().any(Protocol::wants_tick);
        finish_run(
            trace,
            rounds,
            sent,
            bytes,
            quiescent,
            FaultCounts::default(),
            per_round_messages,
            per_round_bytes,
        )
    }

    /// Runs the protocol on an unreliable radio described by `plan`: the
    /// same synchronous rounds as [`Simulator::run`], but every
    /// transmission passes through the fault layer (per-link loss,
    /// duplication, bounded extra delay) and nodes crash and recover on
    /// the plan's schedule. See [`crate::faults`] for the exact
    /// semantics.
    ///
    /// With [`FaultPlan::none`] this is byte-identical to
    /// [`Simulator::run`] (regression-tested), so the perfect radio is
    /// just the zero-fault special case.
    ///
    /// Quiescence additionally requires that no crash event is still
    /// scheduled in the future: a recovery at round `r` can revive work,
    /// so the engine keeps ticking (up to `max_rounds`) until the
    /// schedule is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `plan` carries a NaN or out-of-range probability.
    pub fn run_with_faults(&mut self, max_rounds: usize, plan: &FaultPlan) -> RunStats {
        self.run_with_faults_traced(max_rounds, plan, &mut Trace::disabled())
    }

    /// [`Simulator::run_with_faults`] with structured tracing. Round
    /// records additionally attribute the fault layer's work: drops,
    /// duplications, delays and crash-lost deliveries per round, as
    /// deltas of the run's [`FaultCounts`]. Sends from a node revived
    /// mid-run fold into the next executed round's record.
    ///
    /// # Panics
    ///
    /// Panics if `plan` carries a NaN or out-of-range probability.
    pub fn run_with_faults_traced(
        &mut self,
        max_rounds: usize,
        plan: &FaultPlan,
        trace: &mut Trace,
    ) -> RunStats {
        plan.validate();
        let n = self.nodes.len();
        let mut sent: u64 = 0;
        let mut bytes: u64 = 0;
        let mut per_round_messages: Vec<u64> = Vec::new();
        let mut per_round_bytes: Vec<u64> = Vec::new();
        let mut counts = FaultCounts::default();
        trace.event(TraceEvent::NetSize { nodes: n, edges: self.topo.edge_count() });
        let mut rng = plan.stream();
        let events = plan.schedule();
        let mut next_event = 0usize;
        let mut alive = vec![true; n];
        let mut started = vec![false; n];
        // Pending deliveries by due round, each group in send order, which
        // the stable delivery order keeps among equal (to, from) keys,
        // matching the perfect-delivery engine.
        let mut pending: DueGroups<P::Msg> = DueGroups::new();
        let mut order = DeliveryOrder::default();
        let mut outbox: Batch<P::Msg> = Vec::new();

        // Crash events scheduled for round 0 precede `on_start`: a node
        // down from round 0 never starts (until it recovers).
        while next_event < events.len() && events[next_event].0 == 0 {
            let (_, node, up) = events[next_event];
            next_event += 1;
            if node < n {
                alive[node] = up;
            }
        }
        for id in 0..n {
            if !alive[id] {
                continue;
            }
            started[id] = true;
            let mut ctx = Ctx {
                node: id,
                neighbors: self.topo.neighbors(id),
                outbox: &mut outbox,
                sent: &mut sent,
                bytes: &mut bytes,
            };
            self.nodes[id].on_start(&mut ctx);
        }
        flush_outbox(&mut outbox, 0, plan, &mut rng, &mut pending, &mut counts);
        bucket_add(&mut per_round_messages, 0, sent);
        bucket_add(&mut per_round_bytes, 0, bytes);
        trace.open("round");
        trace.event(TraceEvent::Round {
            round: 0,
            sent,
            bytes,
            delivered: 0,
            dropped: counts.dropped,
            duplicated: counts.duplicated,
            delayed: counts.delayed,
            crash_lost: counts.crash_lost,
        });
        trace.close();
        // Bucket cursors (per-round vectors) and trace cursors (Round
        // records) advance independently: revive-time sends land in the
        // bucket of the round *before* the one whose record reports
        // them, so both views stay exact sums of the run totals.
        let (mut prev_sent, mut prev_bytes) = (sent, bytes);
        let (mut ev_sent, mut ev_bytes, mut ev_counts) = (sent, bytes, counts);

        let mut rounds = 0;
        loop {
            // Crash transitions at the start of the round about to run.
            // A node revived before it ever ran starts now; its sends are
            // delivered with this round's deliveries, mirroring how
            // `on_start` sends are delivered in round 0.
            while next_event < events.len() && events[next_event].0 == rounds {
                let (_, node, up) = events[next_event];
                next_event += 1;
                if node >= n {
                    continue;
                }
                alive[node] = up;
                if up && !started[node] {
                    started[node] = true;
                    let mut ctx = Ctx {
                        node,
                        neighbors: self.topo.neighbors(node),
                        outbox: &mut outbox,
                        sent: &mut sent,
                        bytes: &mut bytes,
                    };
                    self.nodes[node].on_start(&mut ctx);
                    flush_outbox(&mut outbox, rounds, plan, &mut rng, &mut pending, &mut counts);
                }
            }
            // Late `on_start` sends belong to the round that just
            // completed (they are due with the upcoming deliveries,
            // exactly like round-0 start sends).
            bucket_add(&mut per_round_messages, rounds, sent - prev_sent);
            bucket_add(&mut per_round_bytes, rounds, bytes - prev_bytes);
            (prev_sent, prev_bytes) = (sent, bytes);
            let wants_tick =
                self.nodes.iter().enumerate().any(|(id, node)| alive[id] && node.wants_tick());
            if pending.is_empty() && next_event >= events.len() && !wants_tick {
                return finish_run(
                    trace,
                    rounds,
                    sent,
                    bytes,
                    true,
                    counts,
                    per_round_messages,
                    per_round_bytes,
                );
            }
            if rounds >= max_rounds {
                return finish_run(
                    trace,
                    rounds,
                    sent,
                    bytes,
                    false,
                    counts,
                    per_round_messages,
                    per_round_bytes,
                );
            }
            rounds += 1;

            // Deliveries due this round, in the engine's deterministic
            // order (destination, source, send order).
            let mut delivered: u64 = 0;
            if let Some(due) = pending.take_due(rounds) {
                for &i in order.sort(n, &due) {
                    let (from, to, msg) = &due[i];
                    if !alive[*to] {
                        counts.crash_lost += 1;
                        continue;
                    }
                    delivered += 1;
                    let mut ctx = Ctx {
                        node: *to,
                        neighbors: self.topo.neighbors(*to),
                        outbox: &mut outbox,
                        sent: &mut sent,
                        bytes: &mut bytes,
                    };
                    self.nodes[*to].on_message(*from, msg, &mut ctx);
                }
                pending.recycle(due);
            }
            flush_outbox(&mut outbox, rounds, plan, &mut rng, &mut pending, &mut counts);
            for (id, node) in self.nodes.iter_mut().enumerate() {
                if !alive[id] {
                    continue;
                }
                let mut ctx = Ctx {
                    node: id,
                    neighbors: self.topo.neighbors(id),
                    outbox: &mut outbox,
                    sent: &mut sent,
                    bytes: &mut bytes,
                };
                node.on_round_end(rounds - 1, &mut ctx);
            }
            flush_outbox(&mut outbox, rounds, plan, &mut rng, &mut pending, &mut counts);
            bucket_add(&mut per_round_messages, rounds, sent - prev_sent);
            bucket_add(&mut per_round_bytes, rounds, bytes - prev_bytes);
            (prev_sent, prev_bytes) = (sent, bytes);
            trace.open("round");
            trace.event(TraceEvent::Round {
                round: rounds,
                sent: sent - ev_sent,
                bytes: bytes - ev_bytes,
                delivered,
                dropped: counts.dropped - ev_counts.dropped,
                duplicated: counts.duplicated - ev_counts.duplicated,
                delayed: counts.delayed - ev_counts.delayed,
                crash_lost: counts.crash_lost - ev_counts.crash_lost,
            });
            trace.close();
            (ev_sent, ev_bytes, ev_counts) = (sent, bytes, counts);
        }
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id]
    }

    /// Consumes the simulator, yielding all per-node states.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

/// Moves this round's sends through the fault layer, in send order (the
/// PRNG is consumed in a fixed order, so runs are reproducible): each
/// transmission is dropped with its link's loss probability, otherwise
/// scheduled at `due_base` plus a uniform `0..=max_delay` extra rounds,
/// and duplicated (with an independently drawn delay) with the plan's
/// duplication probability.
fn flush_outbox<M: Clone>(
    outbox: &mut Batch<M>,
    due_base: usize,
    plan: &FaultPlan,
    rng: &mut Xoshiro256PlusPlus,
    pending: &mut DueGroups<M>,
    counts: &mut FaultCounts,
) {
    for (from, to, msg) in outbox.drain(..) {
        let loss = plan.link_loss(from, to);
        if loss > 0.0 && rng.gen_bool(loss) {
            counts.dropped += 1;
            continue;
        }
        let delay =
            if plan.max_delay > 0 { rng.gen_inclusive(plan.max_delay as u64) as usize } else { 0 };
        if delay > 0 {
            counts.delayed += 1;
        }
        let duplicate = plan.duplication > 0.0 && rng.gen_bool(plan.duplication);
        if duplicate {
            counts.duplicated += 1;
            let extra = if plan.max_delay > 0 {
                rng.gen_inclusive(plan.max_delay as u64) as usize
            } else {
                0
            };
            pending.push(due_base + extra, from, to, msg.clone());
        }
        pending.push(due_base + delay, from, to, msg);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node learns the set of its 2-hop neighbors by re-broadcasting
    /// its own neighbor list once — a miniature localized protocol.
    #[derive(Debug, Default)]
    struct TwoHop {
        known: Vec<NodeId>,
    }

    impl Protocol for TwoHop {
        type Msg = Vec<NodeId>;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            // Widen back to NodeId so the message wire size (8 bytes per
            // entry) is unchanged by the u32 CSR storage.
            ctx.broadcast(ctx.neighbors().iter().map(|&v| v as NodeId).collect());
        }

        fn on_message(&mut self, _from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
            let me = ctx.node();
            for &n in msg {
                if n != me && !self.known.contains(&n) {
                    self.known.push(n);
                }
            }
        }
    }

    #[test]
    fn two_hop_discovery_on_a_path() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut sim = Simulator::new(&topo, |_| TwoHop::default());
        let stats = sim.run(10);
        assert!(stats.quiescent);
        assert_eq!(stats.rounds, 1);
        // 2·|E| messages: each node broadcasts its neighbor list once.
        assert_eq!(stats.messages, 6);
        // Node 0 receives node 1's neighbor list {0, 2} and filters itself.
        let mut known0 = sim.node(0).known.clone();
        known0.sort_unstable();
        assert_eq!(known0, vec![2]);
        // Node 1 receives {1} from node 0 (filtered) and {1, 3} from node 2.
        let mut known1 = sim.node(1).known.clone();
        known1.sort_unstable();
        assert_eq!(known1, vec![3]);
    }

    /// A protocol that relays a token down a chain, one hop per round.
    #[derive(Debug)]
    struct Relay {
        seen: bool,
    }

    impl Protocol for Relay {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.node() == 0 {
                self.seen = true;
                ctx.broadcast(());
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: &(), ctx: &mut Ctx<'_, Self::Msg>) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast(());
            }
        }
    }

    #[test]
    fn relay_takes_one_round_per_hop() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run(100);
        assert!(stats.quiescent);
        // 4 hops then one round where node 4's broadcast dies out: ≥ 5 rounds.
        assert!(stats.rounds >= 4, "rounds = {}", stats.rounds);
        for id in 0..5 {
            assert!(sim.node(id).seen, "node {id} never saw the token");
        }
    }

    #[test]
    fn max_rounds_truncates() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run(2);
        assert!(!stats.quiescent);
        assert_eq!(stats.rounds, 2);
        assert!(!sim.node(4).seen);
    }

    /// Sending to a non-neighbor must panic — locality enforcement.
    #[derive(Debug)]
    struct Cheater;

    impl Protocol for Cheater {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.node() == 0 {
                ctx.send(2, ()); // 2 is two hops away
            }
        }
        fn on_message(&mut self, _: NodeId, _: &(), _: &mut Ctx<'_, Self::Msg>) {}
    }

    #[test]
    #[should_panic(expected = "not localized")]
    fn non_neighbor_send_panics() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut sim = Simulator::new(&topo, |_| Cheater);
        sim.run(1);
    }

    #[test]
    fn empty_network_is_quiescent() {
        let topo = Topology::from_edges(0, &[]);
        let mut sim = Simulator::new(&topo, |_| Cheater);
        let stats = sim.run(5);
        assert!(stats.quiescent);
        assert_eq!(stats.messages, 0);
    }

    /// A silent protocol that drives the round clock for a fixed number
    /// of rounds via `wants_tick` — the phase-synchronous pattern.
    #[derive(Debug)]
    struct Ticker {
        remaining: usize,
    }

    impl Protocol for Ticker {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn on_message(&mut self, _: NodeId, _: &(), _: &mut Ctx<'_, ()>) {}
        fn on_round_end(&mut self, _round: usize, _ctx: &mut Ctx<'_, ()>) {
            self.remaining = self.remaining.saturating_sub(1);
        }
        fn wants_tick(&self) -> bool {
            self.remaining > 0
        }
    }

    #[test]
    fn wants_tick_drives_rounds_until_satisfied() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut sim = Simulator::new(&topo, |id| Ticker { remaining: if id == 1 { 5 } else { 0 } });
        let stats = sim.run(100);
        // One node wants 5 silent rounds; the engine grants exactly 5.
        assert!(stats.quiescent);
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn wants_tick_truncated_by_max_rounds_is_not_quiescent() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut sim = Simulator::new(&topo, |_| Ticker { remaining: 10 });
        let stats = sim.run(4);
        assert!(!stats.quiescent, "truncation must not report quiescence");
        assert_eq!(stats.rounds, 4);
        // The faulty engine agrees on the truncation semantics.
        let mut sim = Simulator::new(&topo, |_| Ticker { remaining: 10 });
        let faulty = sim.run_with_faults(4, &FaultPlan::none());
        assert!(!faulty.quiescent);
        assert_eq!(faulty.rounds, 4);
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_perfect_engine() {
        let topo = Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        // TwoHop exercises broadcasts + multi-round deliveries; Relay
        // exercises cascading forwards.
        let mut perfect = Simulator::new(&topo, |_| TwoHop::default());
        let mut faulty = Simulator::new(&topo, |_| TwoHop::default());
        let ps = perfect.run(10);
        let fs = faulty.run_with_faults(10, &FaultPlan::none());
        assert_eq!(ps, fs, "zero-fault RunStats must be byte-identical");
        for id in 0..topo.len() {
            assert_eq!(perfect.node(id).known, faulty.node(id).known, "node {id} state diverged");
        }

        let mut perfect = Simulator::new(&topo, |_| Relay { seen: false });
        let mut faulty = Simulator::new(&topo, |_| Relay { seen: false });
        let ps = perfect.run(100);
        let fs = faulty.run_with_faults(100, &FaultPlan::none());
        assert_eq!(ps, fs);
        assert_eq!(fs.faults, crate::faults::FaultCounts::default());
    }

    #[test]
    fn total_loss_stops_the_relay_at_the_source() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run_with_faults(50, &FaultPlan::lossy(3, 1.0));
        assert!(stats.quiescent);
        assert!(sim.node(0).seen);
        for id in 1..4 {
            assert!(!sim.node(id).seen, "node {id} saw the token through a fully lossy radio");
        }
        // Every transmission was counted as sent, then dropped.
        assert_eq!(stats.faults.dropped, stats.messages);
    }

    #[test]
    fn duplication_is_idempotent_for_the_relay() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let plan = FaultPlan::none().with_seed(7).with_duplication(1.0);
        let stats = sim.run_with_faults(50, &plan);
        assert!(stats.quiescent);
        assert!(stats.faults.duplicated > 0);
        for id in 0..5 {
            assert!(sim.node(id).seen, "node {id} missed the token");
        }
    }

    #[test]
    fn bounded_delay_slows_but_does_not_lose_the_relay() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut reference = Simulator::new(&topo, |_| Relay { seen: false });
        let base = reference.run(100).rounds;
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let plan = FaultPlan::none().with_seed(11).with_max_delay(3);
        let stats = sim.run_with_faults(100, &plan);
        assert!(stats.quiescent);
        for id in 0..5 {
            assert!(sim.node(id).seen, "node {id} missed the token");
        }
        // Per-hop extra delay is bounded by max_delay.
        assert!(stats.rounds >= base);
        assert!(stats.rounds <= base + 4 * (base + 1), "delay bound exceeded: {}", stats.rounds);
    }

    #[test]
    fn crashed_node_blocks_the_chain_and_recovery_unblocks_it() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Node 1 down for the whole run: the token dies at it.
        let dead = FaultPlan::none().with_crashes([Crash { node: 1, down_at: 0, up_at: None }]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run_with_faults(50, &dead);
        assert!(stats.quiescent);
        assert!(sim.node(0).seen);
        assert!(!sim.node(1).seen && !sim.node(2).seen && !sim.node(3).seen);
        assert!(stats.faults.crash_lost > 0, "the delivery to the dead node must be counted");

        // Node 1 down only before round 2: it never saw round-0
        // deliveries, but once it recovers it runs `on_start` (it never
        // started) — as the relay source it has nothing to send, so the
        // chain stays dark; a *re-transmitting* upstream would heal it.
        // Use node 0 crashing instead: down at 0, up at 3, so it starts
        // late and the token still floods the chain.
        let late = FaultPlan::none().with_crashes([Crash { node: 0, down_at: 0, up_at: Some(3) }]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run_with_faults(50, &late);
        assert!(stats.quiescent);
        for id in 0..4 {
            assert!(sim.node(id).seen, "node {id} missed the token after recovery");
        }
    }

    #[test]
    fn faulty_runs_are_reproducible_and_seed_sensitive() {
        let n = 12;
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let topo = Topology::from_edges(n, &edges);
        let run = |seed: u64| {
            let mut sim = Simulator::new(&topo, |_| TwoHop::default());
            let plan = FaultPlan::lossy(seed, 0.4).with_duplication(0.2).with_max_delay(2);
            let stats = sim.run_with_faults(60, &plan);
            let known: Vec<Vec<NodeId>> = (0..n).map(|i| sim.node(i).known.clone()).collect();
            (stats, known)
        };
        let (s1, k1) = run(5);
        let (s2, k2) = run(5);
        assert_eq!(s1, s2, "same plan must reproduce identical stats");
        assert_eq!(k1, k2, "same plan must reproduce identical node states");
        let (s3, k3) = run(6);
        assert!(s3 != s1 || k3 != k1, "different fault seeds should differ somewhere");
    }

    #[test]
    fn out_of_range_crash_node_is_ignored() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let plan = FaultPlan::none().with_crashes([Crash { node: 99, down_at: 1, up_at: None }]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run_with_faults(10, &plan);
        assert!(stats.quiescent);
        assert!(sim.node(1).seen);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn invalid_plan_is_rejected_at_engine_entry() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        sim.run_with_faults(10, &FaultPlan::lossy(0, -0.5));
    }

    #[test]
    fn per_round_accounting_sums_to_totals() {
        let topo = Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mut sim = Simulator::new(&topo, |_| TwoHop::default());
        let stats = sim.run(10);
        // Every node broadcasts its 2-entry neighbor list once, in the
        // start phase: bucket 0 carries all 12 messages, round 1 only
        // delivers them.
        assert_eq!(stats.per_round_messages, vec![12, 0]);
        assert_eq!(stats.per_round_messages.len(), stats.rounds + 1);
        // Vec<NodeId> wire size: 8-byte length prefix + 2 × 8 bytes.
        assert_eq!(stats.bytes, 12 * 24);
        assert_eq!(stats.per_round_bytes, vec![288, 0]);
        assert_eq!(stats.per_round_messages.iter().sum::<u64>(), stats.messages);
        assert_eq!(stats.per_round_bytes.iter().sum::<u64>(), stats.bytes);
        // RunStats carries a total order for result-set dedup.
        assert_eq!(stats.cmp(&stats.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn traced_run_is_inert_and_round_records_sum_to_totals() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut plain = Simulator::new(&topo, |_| Relay { seen: false });
        let plain_stats = plain.run(100);

        let mut trace = Trace::enabled();
        let mut traced = Simulator::new(&topo, |_| Relay { seen: false });
        let traced_stats = traced.run_traced(100, &mut trace);
        assert_eq!(plain_stats, traced_stats, "tracing must not perturb the run");

        let mut round_sent = 0;
        let mut round_bytes = 0;
        let mut rounds_seen = 0;
        let mut convergence = None;
        for rec in trace.records() {
            match rec.event {
                TraceEvent::Round { sent, bytes, .. } => {
                    rounds_seen += 1;
                    round_sent += sent;
                    round_bytes += bytes;
                }
                TraceEvent::Convergence { rounds, messages, bytes, quiescent } => {
                    convergence = Some((rounds, messages, bytes, quiescent));
                }
                _ => {}
            }
        }
        // One record per executed round plus the start phase.
        assert_eq!(rounds_seen, traced_stats.rounds + 1);
        assert_eq!(round_sent, traced_stats.messages);
        assert_eq!(round_bytes, traced_stats.bytes);
        assert_eq!(
            convergence,
            Some((traced_stats.rounds, traced_stats.messages, traced_stats.bytes, true))
        );

        // The zero-fault engine produces the byte-identical trace.
        let mut fault_trace = Trace::enabled();
        let mut faulty = Simulator::new(&topo, |_| Relay { seen: false });
        let faulty_stats = faulty.run_with_faults_traced(100, &FaultPlan::none(), &mut fault_trace);
        assert_eq!(traced_stats, faulty_stats);
        assert_eq!(trace.records(), fault_trace.records());
        assert_eq!(trace.to_jsonl(), fault_trace.to_jsonl());
    }

    #[test]
    fn faulty_round_records_attribute_drops_per_round() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut trace = Trace::enabled();
        let mut sim = Simulator::new(&topo, |_| Relay { seen: false });
        let stats = sim.run_with_faults_traced(50, &FaultPlan::lossy(3, 1.0), &mut trace);
        let dropped: u64 = trace
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Round { dropped, .. } => Some(dropped),
                _ => None,
            })
            .sum();
        assert_eq!(dropped, stats.faults.dropped);
        assert_eq!(dropped, stats.messages, "fully lossy radio drops every send");
    }

    use crate::faults::{Crash, FaultPlan};
    use ballfit_obs::{Trace, TraceEvent};
}
