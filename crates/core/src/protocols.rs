//! Message-passing executions of the pipeline's localized protocols.
//!
//! The centralized functions in this crate ([`crate::detector`],
//! [`crate::iff`], [`crate::grouping`], [`crate::landmarks`]) are
//! *centralized-equivalent* executions of distributed algorithms. This
//! module provides the genuine message-passing versions on the
//! [`ballfit_wsn::sim`] round engine, with full message accounting. The
//! test-suite (and the `protocol_audit` experiment binary) asserts that
//! both executions produce identical outputs — evidence that the paper's
//! "localized, one-hop information only" claim holds for this
//! implementation.
//!
//! Protocols provided:
//!
//! * [`UbfProtocol`] — one round of neighbor-table exchange, then local
//!   MDS + Unit Ball Fitting per node (Algorithm 1).
//! * [`ballfit_wsn::flood::FragmentFlood`] — IFF's scoped flooding
//!   (hosted in the substrate crate); each forward is sent `repeats`
//!   times, once for the paper's flood.
//! * [`GroupingProtocol`] — min-ID label flooding over the boundary
//!   subgraph (boundary grouping, Sec. II-B).
//! * [`LandmarkElection`] — iterated local-minimum MIS election in the
//!   (k−1)-power of the boundary subgraph, converging to the same
//!   lexicographically-first landmark set as the greedy reference.
//!
//! For unreliable radios ([`ballfit_wsn::faults::FaultPlan`]) the module
//! also provides hardened variants: [`HardenedUbf`] (ack/retransmit table
//! exchange) and [`HardenedGrouping`] (evidence-tracked label repair);
//! the flood hardens itself with more repeats. All retransmission
//! follows the exponential [`Backoff`] schedule with a bounded
//! per-neighbor budget — there is no fixed worst-case re-broadcast
//! horizon. On a perfect radio each hardened protocol produces exactly
//! the same outputs as its plain counterpart (and, for grouping, the same
//! round count).
//!
//! Every execution goes through [`exchange`]: it runs the simulator's
//! one round loop on the given plan ([`FaultPlan::none`] for a perfect
//! radio), wraps the run in the protocol's trace span and records each
//! node's [`Protocol::resends`] as a [`TraceEvent::Retransmits`]. One
//! runner per protocol sits on top —
//! [`run_ubf_protocol`], [`run_hardened_ubf`], [`run_iff_protocol`],
//! [`run_hardened_iff`], [`run_grouping_protocol`],
//! [`run_hardened_grouping`], [`run_landmark_protocol`] — each fixing
//! the span and round budget, and returning [`ConvergenceFailure`]
//! instead of asserting, so truncated runs are loud in release builds
//! too. Pass [`Trace::disabled`] for an untraced run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ballfit_mds::eigen::{lane_groups, LaneScratch};
use ballfit_mds::local::{embed_local, embed_local_many, LocalDistances, LocalFrame};
use ballfit_obs::{MsgBytes, Trace, TraceEvent};
use ballfit_wsn::faults::FaultPlan;
use ballfit_wsn::flood::FragmentFlood;
use ballfit_wsn::sim::{Ctx, Protocol, RunStats, Simulator};
use ballfit_wsn::{NodeId, Topology};

use crate::config::{CoordinateSource, UbfConfig};
use crate::ubf::ubf_test;
use crate::view::NetView;

/// A protocol run stopped at its round budget without reaching quiescence:
/// the reported outputs would be truncated, so runners return this error
/// instead of wrong flags. (The seed repo `debug_assert!`ed quiescence,
/// which vanishes in release builds — a silent-failure mode.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceFailure {
    /// Which protocol failed (`"ubf"`, `"iff"`, `"grouping"`,
    /// `"landmark"`).
    pub protocol: &'static str,
    /// Rounds executed before giving up.
    pub rounds: usize,
    /// Messages sent before giving up.
    pub messages: u64,
}

impl fmt::Display for ConvergenceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} protocol failed to converge within {} rounds ({} messages sent)",
            self.protocol, self.rounds, self.messages
        )
    }
}

impl std::error::Error for ConvergenceFailure {}

fn require_quiescent(
    stats: RunStats,
    protocol: &'static str,
) -> Result<RunStats, ConvergenceFailure> {
    if stats.quiescent {
        Ok(stats)
    } else {
        Err(ConvergenceFailure { protocol, rounds: stats.rounds, messages: stats.messages })
    }
}

/// Runs one protocol exchange on `topo`, with per-node state built by
/// `init`, for at most `max_rounds` rounds on `plan`'s radio
/// ([`FaultPlan::none`] is the perfect one). The run sits in a `span` of
/// `trace`, which also receives one [`TraceEvent::Retransmits`] per node
/// with non-zero [`Protocol::resends`], in node order. Returns the final
/// node states and the run's stats; judging convergence is the caller's
/// business.
///
/// # Panics
///
/// Panics if `plan` carries a NaN or out-of-range probability (the
/// engine checks at entry).
pub fn exchange<P: Protocol>(
    topo: &Topology,
    span: &'static str,
    max_rounds: usize,
    plan: &FaultPlan,
    trace: &mut Trace,
    init: impl FnMut(NodeId) -> P,
) -> (Vec<P>, RunStats) {
    let mut sim = Simulator::new(topo, init);
    trace.open(span);
    let stats = sim.run_with_faults_traced(max_rounds, plan, trace);
    let nodes = sim.into_nodes();
    for (node, state) in nodes.iter().enumerate() {
        let resends = state.resends();
        if resends > 0 {
            trace.event(TraceEvent::Retransmits { node, resends });
        }
    }
    trace.close();
    (nodes, stats)
}

/// Adaptive retransmission policy of the hardened protocols: after an
/// initial quiet period of `first` rounds a pending retransmission fires,
/// and the cooldown doubles on every subsequent attempt (capped at
/// `cap`), up to `attempts` fires total. The short first countdown keeps
/// repair latency low when something *was* lost, while the exponential
/// tail means a fault-free exchange quiesces as soon as the success
/// evidence arrives — nobody waits out a worst-case horizon — and a
/// genuinely dead link drains a bounded budget instead of re-sending
/// forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Quiet rounds before the first retransmission fires.
    pub first: usize,
    /// Ceiling for the doubling cooldown, in rounds.
    pub cap: usize,
    /// Maximum number of retransmissions (beyond the first send).
    pub attempts: u32,
}

impl Default for Backoff {
    /// Cooldowns 2, 4, 8, 16, 16, …: a schedule that survives ≥ 30% link
    /// loss with high probability (failure needs all `attempts + 1`
    /// copies dropped).
    fn default() -> Self {
        Backoff { first: 2, cap: 16, attempts: 8 }
    }
}

impl Backoff {
    /// Upper bound on the rounds a full retry schedule can span: the
    /// initial countdown plus every capped exponential cooldown. Runners
    /// size their hang-stop budgets from this.
    pub fn worst_case_span(&self) -> usize {
        self.first + (self.attempts as usize + 1) * (self.cap.max(1) + 1)
    }
}

/// Per-node state of the distributed UBF phase.
///
/// Round 0: every node broadcasts its measured-distance table (one entry
/// per radio neighbor). Round 1: tables arrive; each node now knows the
/// measured distance for every mutually-adjacent pair within its closed
/// neighborhood and runs step (I) local embedding + steps (II–III) ball
/// tests locally. No further communication — UBF is a 1-round protocol.
#[derive(Debug, Clone)]
pub struct UbfProtocol {
    id: NodeId,
    own_table: Vec<(NodeId, f64)>,
    received: BTreeMap<NodeId, Vec<(NodeId, f64)>>,
}

impl UbfProtocol {
    /// Builds the per-node state: `own_table` holds the node's measured
    /// distances to each radio neighbor.
    pub fn new(id: NodeId, own_table: Vec<(NodeId, f64)>) -> Self {
        UbfProtocol { id, own_table, received: BTreeMap::new() }
    }

    /// Constructs all per-node states over a borrowed [`NetView`] under
    /// a coordinate source (which fixes the measurement oracle). A view
    /// and its model measure identically (same oracle construction), so
    /// model callers pass [`NetView::from_model`]; views without a
    /// backing model (a churned topology) work the same way.
    pub fn for_view(view: &NetView<'_>, source: &CoordinateSource) -> Vec<UbfProtocol> {
        let topo = view.topology();
        let ranging = match source {
            CoordinateSource::GroundTruth => None,
            CoordinateSource::LocalMds { error, noise_seed, .. } => {
                Some(view.oracle(*error, *noise_seed))
            }
        };
        (0..view.len())
            .map(|i| {
                let table = topo
                    .neighbors(i)
                    .iter()
                    .map(|&j| {
                        let j = j as NodeId;
                        let d = view.true_distance(i, j);
                        (j, ranging.as_ref().map_or(d, |oracle| oracle.measure(i, j, d)))
                    })
                    .collect();
                UbfProtocol::new(i, table)
            })
            .collect()
    }

    /// After the run: decide boundary membership from the collected
    /// tables, exactly as the centralized detector does.
    ///
    /// For [`CoordinateSource::GroundTruth`] the centralized path uses true
    /// positions directly; the protocol only ever sees distances, so it
    /// embeds them — the frames are isometric and the outcome identical.
    pub fn decide(&self, radio_range: f64, cfg: &UbfConfig, source: &CoordinateSource) -> bool {
        let Some((self_index, table)) = self.local_table() else {
            return cfg.degenerate_is_boundary;
        };
        let frame = embed_local(&table, source.frame_config());
        decision(frame.as_ref().ok(), self_index, radio_range, cfg)
    }

    /// [`UbfProtocol::decide`] of every node in `nodes`, in order, with the
    /// same bits. Closed neighbourhoods of equal size are embedded in lane
    /// groups ([`embed_local_many`]), one group's tables alive at a time.
    pub fn decide_all<'a>(
        nodes: impl IntoIterator<Item = &'a UbfProtocol>,
        radio_range: f64,
        cfg: &UbfConfig,
        source: &CoordinateSource,
    ) -> Vec<bool> {
        let nodes: Vec<&UbfProtocol> = nodes.into_iter().collect();
        let config = source.frame_config();
        let mut flags = vec![cfg.degenerate_is_boundary; nodes.len()];
        let mut scratch = LaneScratch::default();
        let sizes: Vec<usize> = nodes.iter().map(|node| node.own_table.len() + 1).collect();
        for group in lane_groups(&sizes) {
            let (at, (self_index, tables)): (Vec<usize>, (Vec<usize>, Vec<LocalDistances>)) =
                group.iter().filter_map(|&at| Some((at, nodes[at].local_table()?))).unzip();
            let frames = embed_local_many(tables, config, &mut scratch);
            for ((at, self_index), frame) in at.into_iter().zip(self_index).zip(frames) {
                flags[at] = decision(frame.as_ref().ok(), self_index, radio_range, cfg);
            }
        }
        flags
    }

    /// The measured-distance table of the closed neighbourhood (ascending
    /// ID order: self and neighbours) from the collected tables, with the
    /// node's own index in it; `None` for a neighbourhood of one.
    fn local_table(&self) -> Option<(usize, LocalDistances)> {
        let id = self.id;
        let mut members: Vec<NodeId> = self.own_table.iter().map(|&(j, _)| j).collect();
        members.push(id);
        members.sort_unstable();
        if members.len() < 2 {
            return None;
        }
        let index: BTreeMap<NodeId, usize> =
            members.iter().enumerate().map(|(a, &m)| (m, a)).collect();
        let mut table = LocalDistances::new(members.len());
        let mut add = |a: NodeId, b: NodeId, d: f64| {
            table.set(index[&a], index[&b], d);
        };
        for &(j, d) in &self.own_table {
            add(id, j, d);
        }
        for (&j, jt) in &self.received {
            for &(k, d) in jt {
                if k != id && index.contains_key(&k) {
                    add(j, k, d);
                }
            }
        }
        Some((index[&id], table))
    }
}

/// The UBF verdict of a node whose local embedding is `frame` (`None`:
/// the embedding failed, a degenerate neighbourhood).
fn decision(
    frame: Option<&LocalFrame>,
    self_index: usize,
    radio_range: f64,
    cfg: &UbfConfig,
) -> bool {
    frame.map_or(cfg.degenerate_is_boundary, |frame| {
        ubf_test(&frame.coords, self_index, radio_range, cfg).is_boundary
    })
}

impl Protocol for UbfProtocol {
    type Msg = Vec<(NodeId, f64)>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.broadcast(self.own_table.clone());
    }

    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, _ctx: &mut Ctx<'_, Self::Msg>) {
        self.received.insert(from, msg.clone());
    }
}

/// Runs the distributed UBF table exchange on a perfect radio inside a
/// `"ubf"` span, returning every node's state and the run's stats; it
/// decides nothing. Callers that want the boundary-candidate flags pass
/// the states to [`UbfProtocol::decide_all`]. The span name is the
/// detector's, so [`ballfit_obs::summary::summarize`] lands the
/// exchange's message/byte accounting in the same row as the ball-test
/// counts.
///
/// # Errors
///
/// [`ConvergenceFailure`] if the exchange does not quiesce within 4
/// rounds (cannot happen on a perfect radio; returning the states anyway
/// would silently report truncated tables).
pub fn run_ubf_protocol(
    view: &NetView<'_>,
    source: &CoordinateSource,
    trace: &mut Trace,
) -> Result<(Vec<UbfProtocol>, RunStats), ConvergenceFailure> {
    let states = UbfProtocol::for_view(view, source);
    let (nodes, stats) =
        exchange(view.topology(), "ubf", 4, &FaultPlan::none(), trace, |id| states[id].clone());
    Ok((nodes, require_quiescent(stats, "ubf")?))
}

/// Messages of the hardened UBF exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum UbfMsg {
    /// A node's measured-distance table (possibly a retransmission).
    Table(Vec<(NodeId, f64)>),
    /// Acknowledges receipt of the sender's table.
    Ack,
}

impl MsgBytes for UbfMsg {
    /// One tag byte, plus the table payload for [`UbfMsg::Table`].
    fn msg_bytes(&self) -> u64 {
        match self {
            UbfMsg::Table(table) => 1 + table.msg_bytes(),
            UbfMsg::Ack => 1,
        }
    }
}

/// Loss-tolerant UBF table exchange: tables are acknowledged, and a node
/// retransmits (unicast) to every neighbor that has not acked, on the
/// exponential [`Backoff`] schedule. Duplicate tables are idempotent
/// (last write wins with identical content) and re-trigger the ack, so
/// lost acks also heal. On a perfect radio the schedule is: tables round
/// 0, acks round 1, done — no retransmission ever fires, and the
/// decision matches [`UbfProtocol`] exactly.
#[derive(Debug, Clone)]
pub struct HardenedUbf {
    inner: UbfProtocol,
    backoff: Backoff,
    acked: BTreeSet<NodeId>,
    attempts_left: u32,
    cooldown: usize,
    delay: usize,
}

impl HardenedUbf {
    /// Wraps a [`UbfProtocol`] state with the retransmission policy.
    pub fn new(inner: UbfProtocol, backoff: Backoff) -> Self {
        HardenedUbf {
            inner,
            backoff,
            acked: BTreeSet::new(),
            attempts_left: backoff.attempts,
            cooldown: backoff.first,
            delay: backoff.first,
        }
    }

    /// Hang-stop round budget of the exchange on `plan`'s radio: the
    /// table round and its acks, one full retry schedule, and the plan's
    /// crash and delay slack.
    pub fn round_budget(backoff: Backoff, plan: &FaultPlan) -> usize {
        4 + backoff.worst_case_span() + plan.round_slack()
    }

    /// The boundary decision from whatever tables were collected (see
    /// [`UbfProtocol::decide`]). A table lost to an exhausted retry budget
    /// degrades the decision locally rather than failing the run.
    pub fn decide(&self, radio_range: f64, cfg: &UbfConfig, source: &CoordinateSource) -> bool {
        self.inner.decide(radio_range, cfg, source)
    }

    /// [`HardenedUbf::decide`] of every node in `nodes`, in order, through
    /// [`UbfProtocol::decide_all`].
    pub fn decide_all(
        nodes: &[HardenedUbf],
        radio_range: f64,
        cfg: &UbfConfig,
        source: &CoordinateSource,
    ) -> Vec<bool> {
        UbfProtocol::decide_all(nodes.iter().map(|node| &node.inner), radio_range, cfg, source)
    }

    /// [`HardenedUbf::decide_all`] for a run whose fault-free verdicts
    /// `clean` are known (same nodes, same tables). A verdict is a pure
    /// function of the node's own table and the neighbour tables it holds,
    /// so a node holding every neighbour's table takes `clean[i]`; only
    /// the others are embedded and tested.
    pub(crate) fn decide_all_reusing(
        nodes: &[HardenedUbf],
        clean: &[bool],
        radio_range: f64,
        cfg: &UbfConfig,
        source: &CoordinateSource,
    ) -> Vec<bool> {
        let partial: Vec<usize> =
            (0..nodes.len()).filter(|&i| !nodes[i].has_all_tables()).collect();
        let decided = UbfProtocol::decide_all(
            partial.iter().map(|&i| &nodes[i].inner),
            radio_range,
            cfg,
            source,
        );
        let mut flags = clean.to_vec();
        for (i, flag) in partial.into_iter().zip(decided) {
            flags[i] = flag;
        }
        flags
    }

    /// `true` once the node holds a table from every neighbour: its
    /// decision inputs are then exactly those of a fault-free run.
    pub(crate) fn has_all_tables(&self) -> bool {
        self.inner.received.len() == self.inner.own_table.len()
    }

    /// True if the retry budget ran out with some neighbor still unacked:
    /// the node decided from a partial table set (degraded coverage).
    pub fn exhausted(&self) -> bool {
        self.attempts_left == 0 && !self.fully_acked()
    }

    fn fully_acked(&self) -> bool {
        self.acked.len() >= self.inner.own_table.len()
    }
}

impl Protocol for HardenedUbf {
    type Msg = UbfMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.broadcast(UbfMsg::Table(self.inner.own_table.clone()));
    }

    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        match msg {
            UbfMsg::Table(table) => {
                self.inner.received.insert(from, table.clone());
                // Ack every copy: if the previous ack was dropped, the
                // sender retransmits and this one answers it.
                ctx.send(from, UbfMsg::Ack);
            }
            UbfMsg::Ack => {
                self.acked.insert(from);
            }
        }
    }

    fn on_round_end(&mut self, _round: usize, ctx: &mut Ctx<'_, Self::Msg>) {
        if self.fully_acked() || self.attempts_left == 0 {
            return;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        self.delay = (self.delay * 2).min(self.backoff.cap.max(1));
        self.cooldown = self.delay;
        self.attempts_left -= 1;
        for &(j, _) in &self.inner.own_table {
            if !self.acked.contains(&j) {
                ctx.send(j, UbfMsg::Table(self.inner.own_table.clone()));
            }
        }
    }

    fn wants_tick(&self) -> bool {
        // Keep the clock running while retransmissions are still possible;
        // once the budget is spent the node accepts whatever it has.
        self.attempts_left > 0 && !self.fully_acked()
    }

    /// Retransmissions this node actually performed (spent retry budget).
    fn resends(&self) -> u64 {
        u64::from(self.backoff.attempts - self.attempts_left)
    }
}

/// Runs the hardened UBF phase on `plan`'s radio inside a
/// `"hardened-ubf"` span, with one [`TraceEvent::Retransmits`] record
/// per node that spent retry budget (silent nodes are omitted to keep
/// traces proportional to actual repair work). Nodes that are down when
/// the run ends (or whose neighbors exhausted their retry budget)
/// decide from partial tables.
///
/// # Errors
///
/// [`ConvergenceFailure`] if retransmissions still could not quiesce the
/// exchange within [`HardenedUbf::round_budget`].
pub fn run_hardened_ubf(
    view: &NetView<'_>,
    cfg: &UbfConfig,
    source: &CoordinateSource,
    backoff: Backoff,
    plan: &FaultPlan,
    trace: &mut Trace,
) -> Result<(Vec<bool>, RunStats), ConvergenceFailure> {
    let tables = UbfProtocol::for_view(view, source);
    let budget = HardenedUbf::round_budget(backoff, plan);
    let (nodes, stats) = exchange(view.topology(), "hardened-ubf", budget, plan, trace, |id| {
        HardenedUbf::new(tables[id].clone(), backoff)
    });
    let stats = require_quiescent(stats, "ubf")?;
    let flags = HardenedUbf::decide_all(&nodes, view.radio_range(), cfg, source);
    Ok((flags, stats))
}

/// Runs IFF's scoped fragment flood over `candidates` with TTL `ttl` on
/// a perfect radio inside an `"iff"` span, each forward sent once;
/// returns each node's fragment size (distinct candidates within `ttl`
/// hops, itself included; 0 for non-candidates) and the run's stats.
///
/// # Errors
///
/// [`ConvergenceFailure`] if the flood does not quiesce within
/// `ttl + 2` rounds (cannot happen on a perfect radio).
pub fn run_iff_protocol(
    topo: &Topology,
    candidates: &[bool],
    ttl: u32,
    trace: &mut Trace,
) -> Result<(Vec<usize>, RunStats), ConvergenceFailure> {
    let (nodes, stats) = exchange(topo, "iff", ttl as usize + 2, &FaultPlan::none(), trace, |id| {
        FragmentFlood::new(candidates[id], ttl, 1)
    });
    let stats = require_quiescent(stats, "iff")?;
    Ok((nodes.iter().map(FragmentFlood::fragment_size).collect(), stats))
}

/// Runs the fragment flood with every forward sent `repeats` times on
/// `plan`'s radio inside a `"hardened-iff"` span; outputs as for
/// [`run_iff_protocol`]. With `repeats = 1` on a perfect radio it sends
/// exactly [`run_iff_protocol`]'s messages.
///
/// # Errors
///
/// [`ConvergenceFailure`] if the flood does not quiesce within
/// [`FragmentFlood::round_budget`].
pub fn run_hardened_iff(
    topo: &Topology,
    candidates: &[bool],
    ttl: u32,
    repeats: u32,
    plan: &FaultPlan,
    trace: &mut Trace,
) -> Result<(Vec<usize>, RunStats), ConvergenceFailure> {
    let budget = FragmentFlood::round_budget(ttl, repeats, plan);
    let (nodes, stats) = exchange(topo, "hardened-iff", budget, plan, trace, |id| {
        FragmentFlood::new(candidates[id], ttl, repeats)
    });
    let stats = require_quiescent(stats, "iff")?;
    Ok((nodes.iter().map(FragmentFlood::fragment_size).collect(), stats))
}

/// Min-ID label flooding over the boundary subgraph: after quiescence,
/// every boundary node's label is the smallest node ID of its boundary
/// component — the distributed form of [`crate::grouping`].
#[derive(Debug, Clone)]
pub struct GroupingProtocol {
    member: bool,
    label: Option<NodeId>,
}

impl GroupingProtocol {
    /// Creates per-node state; `member` marks boundary nodes.
    pub fn new(id: NodeId, member: bool) -> Self {
        GroupingProtocol { member, label: member.then_some(id) }
    }

    /// The component label after the run (`None` for non-members).
    pub fn label(&self) -> Option<NodeId> {
        self.label
    }
}

impl Protocol for GroupingProtocol {
    type Msg = NodeId;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if let Some(l) = self.label {
            ctx.broadcast(l);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &NodeId, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member {
            return;
        }
        // Members are labeled in `new`; a (impossible) missing label just
        // adopts the incoming one — round handlers must not panic.
        if self.label.is_none_or(|current| *msg < current) {
            self.label = Some(*msg);
            ctx.broadcast(*msg);
        }
    }
}

/// Runs boundary grouping distributively on a perfect radio inside a
/// `"grouping"` span; returns per-node component labels (min member ID
/// per component) and the run's stats.
///
/// # Errors
///
/// [`ConvergenceFailure`] if label flooding does not quiesce within
/// `n + 2` rounds (cannot happen on a perfect radio).
pub fn run_grouping_protocol(
    topo: &Topology,
    boundary: &[bool],
    trace: &mut Trace,
) -> Result<(Vec<Option<NodeId>>, RunStats), ConvergenceFailure> {
    let (nodes, stats) =
        exchange(topo, "grouping", topo.len() + 2, &FaultPlan::none(), trace, |id| {
            GroupingProtocol::new(id, boundary[id])
        });
    let stats = require_quiescent(stats, "grouping")?;
    Ok((nodes.iter().map(GroupingProtocol::label).collect(), stats))
}

/// Messages of the hardened grouping exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMsg {
    /// The sender's current label state (`None` = non-member), broadcast
    /// at start and on every adoption.
    Announce(Option<NodeId>),
    /// Unicast repair probe carrying the sender's label; the receiver
    /// answers with [`GroupMsg::Echo`] whether or not it is a member.
    Repair(NodeId),
    /// Unicast reply to a [`GroupMsg::Repair`] probe.
    Echo(Option<NodeId>),
}

impl MsgBytes for GroupMsg {
    /// One tag byte plus the label payload.
    fn msg_bytes(&self) -> u64 {
        match self {
            GroupMsg::Announce(label) | GroupMsg::Echo(label) => 1 + label.msg_bytes(),
            GroupMsg::Repair(label) => 1 + label.msg_bytes(),
        }
    }
}

/// Per-neighbor repair schedule of [`HardenedGrouping`]: the last label
/// state heard from the neighbor and the backoff state toward it.
#[derive(Debug, Clone)]
struct PeerRepair {
    /// The neighbor's last announced label state, if anything was heard.
    heard: Option<Option<NodeId>>,
    /// Evidence says the neighbor agrees (same label, or a non-member).
    confirmed: bool,
    cooldown: usize,
    delay: usize,
    attempts_left: u32,
}

impl PeerRepair {
    fn armed(backoff: Backoff) -> Self {
        PeerRepair {
            heard: None,
            confirmed: false,
            cooldown: backoff.first,
            delay: backoff.first,
            attempts_left: backoff.attempts,
        }
    }

    /// Fresh evidence (or an adoption) invalidated the old schedule:
    /// restart it with a full budget.
    fn rearm(&mut self, backoff: Backoff) {
        self.confirmed = false;
        self.cooldown = backoff.first;
        self.delay = backoff.first;
        self.attempts_left = backoff.attempts;
    }

    fn pending(&self) -> bool {
        !self.confirmed && self.attempts_left > 0
    }

    fn exhausted(&self) -> bool {
        !self.confirmed && self.attempts_left == 0
    }
}

/// Loss-tolerant boundary grouping with quiescence-aware termination:
/// min-ID label flooding in which every member tracks, per neighbor, the
/// last label state it heard, and unicasts [`GroupMsg::Repair`] probes on
/// the exponential [`Backoff`] schedule to any neighbor not yet confirmed
/// to agree with it. A probe is answered with [`GroupMsg::Echo`] (by
/// non-members too), so one surviving round trip settles the pair in
/// either direction. On a perfect radio the confirming evidence always
/// arrives before the first countdown expires: fault-free runs send zero
/// repair probes and finish in exactly as many rounds as
/// [`GroupingProtocol`] — there is no fixed re-broadcast horizon to wait
/// out. Under loss the per-neighbor budgets bound the total repair
/// traffic; a neighbor whose budget runs out unconfirmed is surfaced via
/// [`HardenedGrouping::exhausted`] instead of being silently wrong.
#[derive(Debug, Clone)]
pub struct HardenedGrouping {
    member: bool,
    label: Option<NodeId>,
    backoff: Backoff,
    peers: BTreeMap<NodeId, PeerRepair>,
    repairs: u64,
    last_round: Option<usize>,
}

impl HardenedGrouping {
    /// Creates per-node state; `member` marks boundary nodes.
    pub fn new(id: NodeId, member: bool, backoff: Backoff) -> Self {
        HardenedGrouping {
            member,
            label: member.then_some(id),
            backoff,
            peers: BTreeMap::new(),
            repairs: 0,
            last_round: None,
        }
    }

    /// The component label after the run (`None` for non-members).
    pub fn label(&self) -> Option<NodeId> {
        self.label
    }

    /// Hang-stop round budget of an `n`-node run on `plan`'s radio:
    /// two label sweeps, two full retry schedules (a fully re-armed one
    /// can drain), the plan's crash and delay slack, and 8 rounds spare.
    pub fn round_budget(n: usize, backoff: Backoff, plan: &FaultPlan) -> usize {
        2 * n + 2 * backoff.worst_case_span() + plan.round_slack() + 8
    }

    /// Neighbors whose repair budget ran out without agreement: the
    /// labels across those edges may be stale (degraded coverage).
    pub fn exhausted(&self) -> u64 {
        self.peers.values().filter(|p| p.exhausted()).count() as u64
    }

    /// Records evidence of `from`'s label state and updates the repair
    /// schedule toward it (members only).
    fn note(&mut self, from: NodeId, their: Option<NodeId>, ctx: &mut Ctx<'_, GroupMsg>) {
        if !self.member {
            return;
        }
        let backoff = self.backoff;
        let mut adopt = None;
        let peer = self.peers.entry(from).or_insert_with(|| PeerRepair::armed(backoff));
        peer.heard = Some(their);
        match their {
            None => peer.confirmed = true,
            Some(l) => {
                if self.label.is_none_or(|current| l < current) {
                    adopt = Some(l);
                } else if self.label == Some(l) {
                    peer.confirmed = true;
                } else {
                    // The neighbor is behind: restart the schedule toward
                    // it with a full budget so our label reaches it.
                    peer.rearm(backoff);
                }
            }
        }
        if let Some(l) = adopt {
            self.adopt(l, ctx);
        }
    }

    /// Adopts a smaller label: broadcast it and re-evaluate every repair
    /// schedule against the new value.
    fn adopt(&mut self, label: NodeId, ctx: &mut Ctx<'_, GroupMsg>) {
        self.label = Some(label);
        ctx.broadcast(GroupMsg::Announce(Some(label)));
        let backoff = self.backoff;
        for peer in self.peers.values_mut() {
            let agrees = peer.heard == Some(None) || peer.heard == Some(Some(label));
            if agrees {
                peer.confirmed = true;
            } else {
                peer.rearm(backoff);
            }
        }
    }
}

impl Protocol for HardenedGrouping {
    type Msg = GroupMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        // Everyone announces its state — non-members included, so members
        // can confirm mixed edges without probing them.
        ctx.broadcast(GroupMsg::Announce(self.label));
        if self.member {
            let backoff = self.backoff;
            self.peers = ctx
                .neighbors()
                .iter()
                .map(|&v| (v as NodeId, PeerRepair::armed(backoff)))
                .collect();
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        match *msg {
            GroupMsg::Announce(their) | GroupMsg::Echo(their) => self.note(from, their, ctx),
            GroupMsg::Repair(l) => {
                self.note(from, Some(l), ctx);
                // Answer every probe — non-members too — so the prober
                // can confirm this edge and stand down.
                ctx.send(from, GroupMsg::Echo(self.label));
            }
        }
    }

    fn on_round_end(&mut self, round: usize, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member {
            return;
        }
        // A gap in observed rounds means this node was crashed in between:
        // neighbors may have moved on while it was dark. Re-announce and
        // restart every schedule with a fresh budget.
        let gap = match self.last_round {
            Some(prev) => round > prev + 1,
            None => round > 0,
        };
        if gap {
            ctx.broadcast(GroupMsg::Announce(self.label));
            let backoff = self.backoff;
            for peer in self.peers.values_mut() {
                peer.rearm(backoff);
            }
        }
        self.last_round = Some(round);
        let Some(label) = self.label else { return };
        let cap = self.backoff.cap.max(1);
        let mut fired = 0;
        for (&v, peer) in self.peers.iter_mut() {
            if !peer.pending() {
                continue;
            }
            if peer.cooldown > 0 {
                peer.cooldown -= 1;
                continue;
            }
            peer.delay = (peer.delay * 2).min(cap);
            peer.cooldown = peer.delay;
            peer.attempts_left -= 1;
            fired += 1;
            ctx.send(v, GroupMsg::Repair(label));
        }
        self.repairs += fired;
    }

    fn wants_tick(&self) -> bool {
        self.member && self.peers.values().any(PeerRepair::pending)
    }

    /// Repair probes this node sent (spent retry budget — the hardening
    /// overhead beyond plain min-label flooding).
    fn resends(&self) -> u64 {
        self.repairs
    }
}

/// Runs hardened boundary grouping on `plan`'s radio inside a
/// `"hardened-grouping"` span, with one [`TraceEvent::Retransmits`]
/// record per node that sent repair probes (the hardening overhead).
/// Termination is quiescence-aware — the run ends as soon as no
/// messages are in flight and every repair schedule is confirmed or
/// exhausted — so fault-free runs pay no horizon; the round budget is
/// only a hang-stop.
///
/// # Errors
///
/// [`ConvergenceFailure`] if the run does not quiesce within
/// [`HardenedGrouping::round_budget`].
pub fn run_hardened_grouping(
    topo: &Topology,
    boundary: &[bool],
    backoff: Backoff,
    plan: &FaultPlan,
    trace: &mut Trace,
) -> Result<(Vec<Option<NodeId>>, RunStats), ConvergenceFailure> {
    let budget = HardenedGrouping::round_budget(topo.len(), backoff, plan);
    let (nodes, stats) = exchange(topo, "hardened-grouping", budget, plan, trace, |id| {
        HardenedGrouping::new(id, boundary[id], backoff)
    });
    let stats = require_quiescent(stats, "grouping")?;
    Ok((nodes.iter().map(HardenedGrouping::label).collect(), stats))
}

/// Messages of the landmark election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkMsg {
    /// "I am undecided this iteration": flooded k−1 hops.
    Probe {
        /// Originating undecided node.
        origin: NodeId,
        /// Remaining forwarding budget.
        ttl: u32,
    },
    /// "I became a landmark": suppresses nodes within k−1 hops.
    Suppress {
        /// The new landmark.
        origin: NodeId,
        /// Remaining forwarding budget.
        ttl: u32,
    },
}

impl MsgBytes for LandmarkMsg {
    /// One tag byte plus the origin id and TTL, for either variant.
    fn msg_bytes(&self) -> u64 {
        match self {
            LandmarkMsg::Probe { origin, ttl } | LandmarkMsg::Suppress { origin, ttl } => {
                1 + origin.msg_bytes() + ttl.msg_bytes()
            }
        }
    }
}

/// Iterated local-minimum landmark election (distributed form of
/// [`crate::landmarks::elect_landmarks`]).
///
/// Each iteration spans `2·(k−1)` rounds: undecided members flood probes
/// for k−1 rounds; a member whose ID is smaller than every probe received
/// becomes a landmark and floods suppression for the next k−1 rounds,
/// deciding its (k−1)-ball to non-landmark. Iterations repeat until all
/// members are decided; the fixed point is the lexicographically-first
/// maximal independent set of the (k−1)-power graph — identical to the
/// greedy centralized election.
#[derive(Debug, Clone)]
pub struct LandmarkElection {
    member: bool,
    k: u32,
    decided: Option<bool>,
    probes_seen: BTreeSet<NodeId>,
    suppress_seen: BTreeSet<NodeId>,
}

impl LandmarkElection {
    /// Creates per-node state; `member` marks this group's boundary nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(member: bool, k: u32) -> Self {
        assert!(k >= 1, "landmark spacing k must be at least 1");
        LandmarkElection {
            member,
            k,
            decided: None,
            probes_seen: BTreeSet::new(),
            suppress_seen: BTreeSet::new(),
        }
    }

    /// `Some(true)` if elected landmark, `Some(false)` if suppressed,
    /// `None` if not a member (or the run was truncated).
    pub fn decision(&self) -> Option<bool> {
        if self.member {
            self.decided
        } else {
            None
        }
    }

    fn reach(&self) -> u32 {
        self.k - 1
    }

    fn iteration_len(&self) -> usize {
        2 * self.reach().max(1) as usize
    }

    fn start_iteration(&mut self, ctx: &mut Ctx<'_, LandmarkMsg>, me: NodeId) {
        // Probe dedup is per-iteration for *all* members: decided nodes
        // keep forwarding later iterations' probes.
        self.probes_seen.clear();
        if self.member && self.decided.is_none() && self.reach() > 0 {
            ctx.broadcast(LandmarkMsg::Probe { origin: me, ttl: self.reach() - 1 });
        }
    }
}

impl Protocol for LandmarkElection {
    type Msg = LandmarkMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let me = ctx.node();
        if self.member && self.reach() == 0 {
            // k = 1: everyone is a landmark immediately.
            self.decided = Some(true);
            return;
        }
        self.start_iteration(ctx, me);
    }

    fn on_message(&mut self, _from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member {
            return; // probes travel the boundary subgraph only
        }
        match *msg {
            LandmarkMsg::Probe { origin, ttl } => {
                if origin != ctx.node() && self.probes_seen.insert(origin) && ttl > 0 {
                    ctx.broadcast(LandmarkMsg::Probe { origin, ttl: ttl - 1 });
                }
            }
            LandmarkMsg::Suppress { origin, ttl } => {
                if self.suppress_seen.insert(origin) {
                    if self.decided.is_none() {
                        self.decided = Some(false);
                    }
                    if ttl > 0 {
                        ctx.broadcast(LandmarkMsg::Suppress { origin, ttl: ttl - 1 });
                    }
                }
            }
        }
    }

    fn on_round_end(&mut self, round: usize, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member || self.reach() == 0 {
            return;
        }
        let me = ctx.node();
        let len = self.iteration_len();
        let phase = (round + 1) % len;
        let half = self.reach().max(1) as usize;
        if phase == half {
            // Probe phase complete: local minima become landmarks.
            if self.decided.is_none() && self.probes_seen.iter().all(|&origin| origin > me) {
                self.decided = Some(true);
                ctx.broadcast(LandmarkMsg::Suppress { origin: me, ttl: self.reach() - 1 });
            }
        } else if phase == 0 {
            // Suppress phase complete: next iteration begins (every member
            // resets its probe dedup so it can forward again).
            self.start_iteration(ctx, me);
        }
    }

    fn wants_tick(&self) -> bool {
        // Undecided members drive the round clock even when the radio is
        // silent (e.g. the last undecided node waiting out its own probe
        // phase to self-elect).
        self.member && self.decided.is_none()
    }
}

fn member_mask(topo: &Topology, group: &[NodeId]) -> Vec<bool> {
    let mut m = vec![false; topo.len()];
    for &g in group {
        m[g] = true;
    }
    m
}

/// Runs the distributed landmark election on one boundary group on
/// `plan`'s radio inside a `"landmark"` span; returns the elected
/// landmark IDs (ascending) and the run's stats. The election's probe
/// dedup and `wants_tick` clock make it safe under duplication and
/// delay; under loss it still terminates (the smallest undecided member
/// always self-elects), but the elected set may drift from the greedy
/// reference — the `robustness_sweep` binary measures that drift.
///
/// # Errors
///
/// [`ConvergenceFailure`] if some member is still undecided after
/// `4 · (n + 1) · k` rounds plus the plan's slack (e.g. it was crashed
/// for the entire run) — cannot happen on a perfect radio, but pipeline
/// callers degrade gracefully instead of panicking.
pub fn run_landmark_protocol(
    topo: &Topology,
    group: &[NodeId],
    k: u32,
    plan: &FaultPlan,
    trace: &mut Trace,
) -> Result<(Vec<NodeId>, RunStats), ConvergenceFailure> {
    let member = member_mask(topo, group);
    let budget = 4 * (topo.len() + 1) * k as usize + plan.round_slack();
    let (nodes, stats) =
        exchange(topo, "landmark", budget, plan, trace, |id| LandmarkElection::new(member[id], k));
    let stats = require_quiescent(stats, "landmark")?;
    let landmarks = (0..nodes.len()).filter(|&i| nodes[i].decision() == Some(true)).collect();
    Ok((landmarks, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::detector::BoundaryDetector;
    use crate::grouping::group_boundaries;
    use crate::iff::apply_iff;
    use crate::landmarks::elect_landmarks;
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::model::NetworkModel;
    use ballfit_netgen::scenario::Scenario;
    use ballfit_wsn::flood::fragment_sizes;

    fn model() -> NetworkModel {
        NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(200)
            .interior_nodes(300)
            .target_degree(14.0)
            .seed(77)
            .build()
            .unwrap()
    }

    fn ring(n: usize) -> Topology {
        Topology::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn ubf_protocol_matches_centralized_detector() {
        let model = model();
        let cfg = DetectorConfig::paper(10, 3);
        let detector = BoundaryDetector::new(cfg);
        let central = detector.detect(&model);
        let view = NetView::from_model(&model);
        let (nodes, stats) = run_ubf_protocol(&view, &cfg.coordinates, &mut Trace::disabled())
            .expect("perfect radio quiesces");
        let distributed =
            UbfProtocol::decide_all(&nodes, view.radio_range(), &cfg.ubf, &cfg.coordinates);
        assert_eq!(distributed, central.candidates, "UBF protocol diverged");
        // One broadcast per node: 2·|E| point-to-point messages.
        assert_eq!(stats.messages, 2 * model.topology().edge_count() as u64);
    }

    #[test]
    fn iff_protocol_matches_centralized() {
        let model = model();
        let cfg = DetectorConfig::default();
        let central = BoundaryDetector::new(cfg).detect(&model);
        let candidates = central.candidates.clone();
        let (sizes, _) =
            run_iff_protocol(model.topology(), &candidates, cfg.iff.ttl, &mut Trace::disabled())
                .expect("perfect radio quiesces");
        assert_eq!(sizes, fragment_sizes(model.topology(), cfg.iff.ttl, |n| candidates[n]));
        let via_protocol: Vec<bool> =
            (0..model.len()).map(|i| candidates[i] && sizes[i] >= cfg.iff.theta).collect();
        assert_eq!(via_protocol, apply_iff(model.topology(), &candidates, &cfg.iff));
    }

    #[test]
    fn grouping_protocol_matches_components() {
        let model = model();
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let (labels, _) =
            run_grouping_protocol(model.topology(), &detection.boundary, &mut Trace::disabled())
                .expect("perfect radio quiesces");
        let groups = group_boundaries(model.topology(), &detection.boundary);
        for group in &groups {
            let expected = group[0]; // min ID of the component
            for &n in group {
                assert_eq!(labels[n], Some(expected), "node {n}");
            }
        }
        for (label, &boundary) in labels.iter().zip(&detection.boundary) {
            if !boundary {
                assert_eq!(*label, None);
            }
        }
    }

    /// The perfect-radio landmark election.
    fn elect(topo: &Topology, group: &[NodeId], k: u32) -> Vec<NodeId> {
        run_landmark_protocol(topo, group, k, &FaultPlan::none(), &mut Trace::disabled())
            .expect("election converges")
            .0
    }

    #[test]
    fn landmark_protocol_matches_greedy_on_rings() {
        for n in [8usize, 12, 20, 31] {
            let topo = ring(n);
            let group: Vec<usize> = (0..n).collect();
            for k in [1u32, 2, 3, 4] {
                let central = elect_landmarks(&topo, &group, k);
                assert_eq!(elect(&topo, &group, k), central, "ring n={n} k={k}");
            }
        }
    }

    #[test]
    fn landmark_protocol_matches_greedy_on_random_graphs() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..8 {
            let n = 40;
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.08) {
                        edges.push((a, b));
                    }
                }
            }
            let topo = Topology::from_edges(n, &edges);
            let group: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
            if group.is_empty() {
                continue;
            }
            for k in [2u32, 3] {
                let central = elect_landmarks(&topo, &group, k);
                assert_eq!(elect(&topo, &group, k), central, "trial={trial} k={k}");
            }
        }
    }

    #[test]
    fn landmark_protocol_on_detected_boundary() {
        let model = model();
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let group = &detection.groups[0];
        let central = elect_landmarks(model.topology(), group, 3);
        let (distributed, stats) = run_landmark_protocol(
            model.topology(),
            group,
            3,
            &FaultPlan::none(),
            &mut Trace::disabled(),
        )
        .expect("election converges");
        assert_eq!(distributed, central);
        assert!(stats.messages > 0);
    }

    #[test]
    fn hardened_ubf_with_zero_faults_matches_plain_exactly() {
        let model = model();
        let view = NetView::from_model(&model);
        let cfg = DetectorConfig::paper(10, 3);
        let (nodes, plain_stats) =
            run_ubf_protocol(&view, &cfg.coordinates, &mut Trace::disabled())
                .expect("plain quiesces");
        let plain = UbfProtocol::decide_all(&nodes, view.radio_range(), &cfg.ubf, &cfg.coordinates);
        let (hardened, hardened_stats) = run_hardened_ubf(
            &view,
            &cfg.ubf,
            &cfg.coordinates,
            Backoff::default(),
            &FaultPlan::none(),
            &mut Trace::disabled(),
        )
        .expect("hardened quiesces");
        assert_eq!(hardened, plain, "fault-free hardened UBF diverged from plain");
        // Tables (2·|E|) + one ack per table (2·|E|), no retransmissions.
        assert_eq!(hardened_stats.messages, 2 * plain_stats.messages);
    }

    #[test]
    fn hardened_grouping_with_zero_faults_matches_plain() {
        let model = model();
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let (plain, _) =
            run_grouping_protocol(model.topology(), &detection.boundary, &mut Trace::disabled())
                .expect("plain quiesces");
        let (hardened, _) = run_hardened_grouping(
            model.topology(),
            &detection.boundary,
            Backoff::default(),
            &FaultPlan::none(),
            &mut Trace::disabled(),
        )
        .expect("hardened quiesces");
        assert_eq!(hardened, plain, "fault-free hardened grouping diverged from plain");
    }

    #[test]
    fn fault_free_hardened_grouping_finishes_in_plain_round_count() {
        let model = model();
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let mut plain_trace = Trace::enabled();
        let (plain, _) =
            run_grouping_protocol(model.topology(), &detection.boundary, &mut plain_trace)
                .expect("plain quiesces");
        let mut hard_trace = Trace::enabled();
        let (hardened, _) = run_hardened_grouping(
            model.topology(),
            &detection.boundary,
            Backoff::default(),
            &FaultPlan::none(),
            &mut hard_trace,
        )
        .expect("hardened quiesces");
        assert_eq!(hardened, plain);
        let rounds = |trace: &Trace| {
            trace
                .records()
                .iter()
                .find_map(|r| match r.event {
                    TraceEvent::Convergence { rounds, .. } => Some(rounds),
                    _ => None,
                })
                .expect("engine records a convergence event")
        };
        assert_eq!(
            rounds(&hard_trace),
            rounds(&plain_trace),
            "quiescence-aware hardening must not pay a horizon on a perfect radio"
        );
        assert!(
            !hard_trace.records().iter().any(|r| matches!(r.event, TraceEvent::Retransmits { .. })),
            "a perfect radio must never fire a repair probe"
        );
    }

    #[test]
    fn hardened_grouping_survives_a_lossy_radio_on_a_ring() {
        let n = 24;
        let boundary = vec![true; n];
        let plan = FaultPlan::lossy(9, 0.3).with_duplication(0.1).with_max_delay(1);
        let (labels, _) = run_hardened_grouping(
            &ring(n),
            &boundary,
            Backoff::default(),
            &plan,
            &mut Trace::disabled(),
        )
        .expect("hardened grouping quiesces");
        assert_eq!(labels, vec![Some(0); n], "all ring members must learn label 0");
    }

    /// Runs `run` with tracing off and on: output and stats must agree,
    /// and the enabled trace's `span` row must roll up to the run totals.
    fn assert_inert<T: PartialEq + fmt::Debug>(
        span: &str,
        nodes: usize,
        run: impl Fn(&mut Trace) -> Result<(T, RunStats), ConvergenceFailure>,
    ) {
        let (plain, plain_stats) = run(&mut Trace::disabled()).expect("runner converges");
        let mut trace = Trace::enabled();
        let (traced, stats) = run(&mut trace).expect("runner converges");
        assert_eq!(traced, plain, "{span}: tracing must not change the output");
        assert_eq!(stats, plain_stats, "{span}: tracing must not change the run");
        let summary = ballfit_obs::summary::summarize(trace.records());
        let row = summary.get(span).unwrap_or_else(|| panic!("one {span} row"));
        assert_eq!(
            (row.messages, row.bytes),
            (stats.messages, stats.bytes),
            "{span}: summary must roll rounds up to the run totals"
        );
        assert_eq!(row.nodes, nodes as u64, "{span}");
        assert!(row.bytes > row.messages, "{span}: every message carries a payload");
    }

    #[test]
    fn traced_runners_are_inert_and_summarize_to_run_totals() {
        let model = model();
        let view = NetView::from_model(&model);
        let topo = model.topology();
        let n = model.len();
        let cfg = DetectorConfig::paper(10, 3);
        let central = BoundaryDetector::new(cfg).detect(&model);
        let (ubf, source, ttl) = (&cfg.ubf, &cfg.coordinates, cfg.iff.ttl);
        let backoff = Backoff::default();
        // The hardened runners and the election run on a faulty radio.
        let lossy = FaultPlan::lossy(5, 0.1).with_max_delay(1);
        assert_inert("ubf", n, |t| {
            let (nodes, stats) = run_ubf_protocol(&view, source, t)?;
            Ok((UbfProtocol::decide_all(&nodes, view.radio_range(), ubf, source), stats))
        });
        assert_inert("hardened-ubf", n, |t| {
            run_hardened_ubf(&view, ubf, source, backoff, &lossy, t)
        });
        assert_inert("iff", n, |t| run_iff_protocol(topo, &central.candidates, ttl, t));
        assert_inert("hardened-iff", n, |t| {
            run_hardened_iff(topo, &central.candidates, ttl, 3, &lossy, t)
        });
        assert_inert("grouping", n, |t| run_grouping_protocol(topo, &central.boundary, t));
        assert_inert("hardened-grouping", n, |t| {
            run_hardened_grouping(topo, &central.boundary, backoff, &lossy, t)
        });
        let dup = FaultPlan::none().with_seed(3).with_duplication(0.5);
        assert_inert("landmark", n, |t| {
            run_landmark_protocol(topo, &central.groups[0], 3, &dup, t)
        });
    }

    /// A negative loss draws nothing per message, as a perfect radio
    /// would; the engine must still reject the plan.
    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn exchange_rejects_an_invalid_plan() {
        let plan = FaultPlan::lossy(0, -0.5);
        exchange(&ring(4), "grouping", 8, &plan, &mut Trace::disabled(), |id| {
            GroupingProtocol::new(id, true)
        });
    }

    #[test]
    fn hardened_ubf_on_perfect_radio_reports_no_retransmissions() {
        let model = model();
        let cfg = DetectorConfig::paper(10, 3);
        let mut trace = Trace::enabled();
        let (_, _) = run_hardened_ubf(
            &NetView::from_model(&model),
            &cfg.ubf,
            &cfg.coordinates,
            Backoff::default(),
            &FaultPlan::none(),
            &mut trace,
        )
        .expect("hardened quiesces");
        assert!(
            !trace.records().iter().any(|r| matches!(r.event, TraceEvent::Retransmits { .. })),
            "a perfect radio must never spend retry budget"
        );
    }

    #[test]
    fn hardened_grouping_trace_attributes_repairs_to_members() {
        let n = 24;
        let boundary = vec![true; n];
        let plan = FaultPlan::lossy(9, 0.3);
        let mut trace = Trace::enabled();
        let (labels, _) =
            run_hardened_grouping(&ring(n), &boundary, Backoff::default(), &plan, &mut trace)
                .expect("hardened grouping quiesces");
        assert_eq!(labels, vec![Some(0); n]);
        // Repairs are evidence-triggered: only nodes that actually missed
        // a confirmation spend budget, each reported exactly once.
        let mut seen = BTreeSet::new();
        for rec in trace.records() {
            if let TraceEvent::Retransmits { node, resends } = rec.event {
                assert!(resends > 0, "zero-count nodes must be omitted");
                assert!(seen.insert(node), "node {node} reported twice");
            }
        }
        let summary = ballfit_obs::summary::summarize(trace.records());
        let row = summary.get("hardened-grouping").expect("row present");
        assert!(row.dropped > 0, "the lossy plan must have dropped messages");
        assert!(row.retransmits > 0, "a 30% lossy ring must trigger repair probes");
        assert_eq!(
            row.retransmits,
            trace
                .records()
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::Retransmits { resends, .. } => Some(resends),
                    _ => None,
                })
                .sum::<u64>(),
            "summary must roll per-node repair counts up to the run total"
        );
    }

    #[test]
    fn landmark_protocol_tolerates_duplication_and_delay() {
        // Duplication and delay never change the election's fixed point
        // on a ring (probe dedup absorbs copies); loss can, which is what
        // the robustness sweep quantifies.
        let n = 16;
        let topo = ring(n);
        let group: Vec<usize> = (0..n).collect();
        let central = elect_landmarks(&topo, &group, 2);
        let plan = FaultPlan::none().with_seed(3).with_duplication(0.5);
        let (distributed, _) =
            run_landmark_protocol(&topo, &group, 2, &plan, &mut Trace::disabled())
                .expect("election converges under duplication");
        assert_eq!(distributed, central);
    }
}
