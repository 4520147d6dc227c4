//! TTL-scoped flooding over a node subset.
//!
//! This is the communication primitive behind the paper's Isolated Fragment
//! Filtering (Sec. II-B): every boundary candidate initiates a flood with
//! TTL `T` that only other candidates forward; counting distinct received
//! origins tells each candidate the size of its boundary fragment.
//!
//! Two executions are provided:
//! * [`FragmentFlood`] — a genuine localized protocol for the round engine
//!   of [`crate::sim`], with full message accounting; at one repeat it is
//!   the paper's flood, and more repeats harden it for a lossy radio;
//! * [`fragment_sizes`] — the centralized equivalent (depth-limited BFS per
//!   member), used by large experiment sweeps.
//!
//! Integration tests in the `ballfit` crate assert the two agree.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::bfs::count_within;
use crate::faults::FaultPlan;
use crate::sim::{Ctx, Protocol};
use crate::topology::{NodeId, Topology};

/// Centralized-equivalent of the scoped flood: for every node `i` with
/// `member(i)`, the number of *distinct members within `ttl` hops in the
/// member-induced subgraph, counting `i` itself* — i.e. the fragment size
/// as observable by `i`. Non-members get 0.
///
/// Each member's flood is one depth-limited search on the per-thread BFS
/// scratch of [`crate::bfs`], which touches only the few dozen nodes a
/// TTL-scoped flood reaches.
pub fn fragment_sizes<F: Fn(NodeId) -> bool>(topo: &Topology, ttl: u32, member: F) -> Vec<usize> {
    (0..topo.len())
        .map(|i| if member(i) { count_within(topo, i, ttl, &member) } else { 0 })
        .collect()
}

/// Message of the fragment flood: `(origin, remaining_ttl)`.
pub type FloodMsg = (NodeId, u32);

/// Localized scoped-flooding protocol (one instance per node).
///
/// Members originate a token with the configured TTL; every member
/// forwards an origin with a decremented TTL when it first sees it, and
/// again if a copy with a larger TTL arrives later.
/// After quiescence, [`FragmentFlood::fragment_size`] returns the number
/// of distinct origins seen (including the node's own), matching
/// [`fragment_sizes`]. With `repeats = 1` on a perfect radio this is the
/// paper's IFF flood: synchronous flooding delivers each origin's best
/// TTL first, so every member forwards every origin it sees exactly once.
///
/// For unreliable radios ([`crate::faults::FaultPlan`]) it is hardened two
/// ways:
///
/// * **Re-broadcast** — every forward is repeated `repeats − 1` more
///   times on an exponentially spaced schedule (gaps of 1, 2, 4, …
///   rounds, capped at [`REPEAT_GAP_CAP`]), so a token crosses a link
///   unless all `repeats` copies are dropped — and a burst of correlated
///   loss cannot eat the whole budget in consecutive rounds.
/// * **Max-TTL tracking** — the node remembers the *best* (largest)
///   remaining TTL seen per origin and re-forwards when a better copy
///   arrives. On a lossy radio the first arrival may come via a longer
///   path with a smaller TTL; a plain `seen`-set would lock that in and
///   silently shrink the origin's reach. Tracking the max makes the
///   protocol monotone — it converges to exactly the shortest-path TTL
///   semantics of [`fragment_sizes`], like min-label flooding does for
///   grouping.
///
/// Duplicated deliveries are idempotent (max of a max).
#[derive(Debug, Clone)]
pub struct FragmentFlood {
    member: bool,
    ttl: u32,
    repeats: u32,
    /// Best remaining TTL seen per origin (own origin: the full TTL).
    best: BTreeMap<NodeId, u32>,
    /// Forwards still owed re-broadcasts, with their backoff state.
    pending: Vec<PendingRepeat>,
    /// Forwards triggered by a *better* copy of an already-seen origin —
    /// the work the max-TTL hardening does on top of the paper's flood.
    reforwards: u64,
}

/// Ceiling for the doubling gap between repeat broadcasts, in rounds.
pub const REPEAT_GAP_CAP: u32 = 8;

/// One forward still owed re-broadcasts: the token, how many repeats are
/// left, and the exponential-backoff cursor (`cooldown` quiet round-ends
/// before the next fire; `gap` doubles after each fire up to
/// [`REPEAT_GAP_CAP`]).
#[derive(Debug, Clone)]
struct PendingRepeat {
    origin: NodeId,
    fwd_ttl: u32,
    left: u32,
    cooldown: u32,
    gap: u32,
}

impl FragmentFlood {
    /// Creates the per-node state. `member` marks boundary candidates,
    /// `ttl` is the paper's `T`, and `repeats ≥ 1` is the number of times
    /// each forward is transmitted (1 = the paper's flood).
    pub fn new(member: bool, ttl: u32, repeats: u32) -> Self {
        FragmentFlood {
            member,
            ttl,
            repeats: repeats.max(1),
            best: BTreeMap::new(),
            pending: Vec::new(),
            reforwards: 0,
        }
    }

    /// Distinct origins seen, counting the node itself; 0 for non-members.
    pub fn fragment_size(&self) -> usize {
        if self.member {
            self.best.len()
        } else {
            0
        }
    }

    /// Forwards this node performed because a better copy of an
    /// already-seen origin arrived (0 on a perfect radio). Read from the
    /// node state only: no runner records it in a trace, so
    /// [`ballfit_obs::TraceEvent::Reforwards`] has no emitter.
    pub fn reforwards(&self) -> u64 {
        self.reforwards
    }

    /// Hang-stop round budget of a flood with `repeats` on `plan`'s radio:
    /// every repeat schedule at its capped gap, plus the TTL, plus the
    /// plan's crash and delay slack.
    pub fn round_budget(ttl: u32, repeats: u32, plan: &FaultPlan) -> usize {
        (repeats.max(1) as usize + 1) * (REPEAT_GAP_CAP as usize + 1)
            + ttl as usize
            + 4
            + plan.round_slack()
    }

    fn forward(&mut self, origin: NodeId, fwd_ttl: u32, ctx: &mut Ctx<'_, FloodMsg>) {
        ctx.broadcast((origin, fwd_ttl));
        if self.repeats > 1 {
            // First repeat on the very next round (cooldown 0), then the
            // gap doubles: 1, 2, 4, … rounds between copies.
            self.pending.push(PendingRepeat {
                origin,
                fwd_ttl,
                left: self.repeats - 1,
                cooldown: 0,
                gap: 1,
            });
        }
    }
}

impl Protocol for FragmentFlood {
    type Msg = FloodMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member {
            return;
        }
        let me = ctx.node();
        self.best.insert(me, self.ttl);
        if self.ttl > 0 {
            self.forward(me, self.ttl - 1, ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        if !self.member {
            return; // non-boundary nodes do not forward (paper, Sec. II-B)
        }
        let (origin, ttl) = *msg;
        let known = match self.best.entry(origin) {
            Entry::Vacant(slot) => {
                slot.insert(ttl);
                false
            }
            Entry::Occupied(mut slot) if ttl > *slot.get() => {
                slot.insert(ttl);
                true
            }
            Entry::Occupied(_) => return,
        };
        if ttl > 0 {
            if known {
                self.reforwards += 1;
            }
            self.forward(origin, ttl - 1, ctx);
        }
    }

    fn on_round_end(&mut self, _round: usize, ctx: &mut Ctx<'_, Self::Msg>) {
        if self.pending.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.pending);
        for mut rep in due.drain(..) {
            if rep.cooldown > 0 {
                rep.cooldown -= 1;
                self.pending.push(rep);
                continue;
            }
            ctx.broadcast((rep.origin, rep.fwd_ttl));
            rep.left -= 1;
            if rep.left > 0 {
                rep.gap = (rep.gap * 2).min(REPEAT_GAP_CAP);
                rep.cooldown = rep.gap - 1;
                self.pending.push(rep);
            }
        }
    }

    fn wants_tick(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::sim::Simulator;

    fn run_flood(topo: &Topology, members: &[bool], ttl: u32) -> (Vec<usize>, u64) {
        let mut sim = Simulator::new(topo, |id| FragmentFlood::new(members[id], ttl, 1));
        let stats = sim.run(ttl as usize + 2);
        assert!(stats.quiescent, "flood must terminate within TTL rounds");
        let sizes = (0..topo.len()).map(|i| sim.node(i).fragment_size()).collect();
        (sizes, stats.messages)
    }

    #[test]
    fn protocol_matches_centralized_on_chain() {
        // members: 0,1,2,4 — node 3 breaks the chain.
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let members = [true, true, true, false, true];
        for ttl in 0..4 {
            let (proto, _) = run_flood(&topo, &members, ttl);
            let central = fragment_sizes(&topo, ttl, |n| members[n]);
            assert_eq!(proto, central, "ttl={ttl}");
        }
        // Sanity: with ttl≥2 the {0,1,2} fragment is fully visible.
        let central = fragment_sizes(&topo, 2, |n| members[n]);
        assert_eq!(central, vec![3, 3, 3, 0, 1]);
    }

    #[test]
    fn ttl_zero_sees_only_self() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let (sizes, messages) = run_flood(&topo, &[true, true, true], 0);
        assert_eq!(sizes, vec![1, 1, 1]);
        assert_eq!(messages, 0);
    }

    #[test]
    fn non_members_do_not_forward_or_count() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let (sizes, _) = run_flood(&topo, &[true, false, true], 5);
        assert_eq!(sizes, vec![1, 0, 1]);
    }

    #[test]
    fn message_count_is_bounded_by_fragment_and_degree() {
        // Complete-ish member subgraph: each of m members forwards each of m
        // origins at most once → messages ≤ m² · max_degree.
        let topo = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let members = [true, true, true, true];
        let (sizes, messages) = run_flood(&topo, &members, 3);
        assert_eq!(sizes, vec![4, 4, 4, 4]);
        assert!(messages <= 16 * 3, "messages = {messages}");
    }

    /// The paper's IFF flood on a perfect radio, per TTL: fragment sizes
    /// and message counts on a chain whose node 3 is not a member.
    #[test]
    fn one_repeat_flood_pins_sizes_and_messages_per_ttl() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let members = [true, true, true, false, true];
        let pinned: [(u32, [usize; 5], u64); 4] = [
            (0, [1, 1, 1, 0, 1], 0),
            (1, [2, 3, 2, 0, 1], 6),
            (2, [3, 3, 3, 0, 1], 13),
            (3, [3, 3, 3, 0, 1], 16),
        ];
        for (ttl, sizes, messages) in pinned {
            let mut sim = Simulator::new(&topo, |id| FragmentFlood::new(members[id], ttl, 1));
            let stats = sim.run(ttl as usize + 2);
            assert!(stats.quiescent);
            let got: Vec<usize> = (0..topo.len()).map(|i| sim.node(i).fragment_size()).collect();
            assert_eq!((got, stats.messages), (sizes.to_vec(), messages), "ttl={ttl}");
            for i in 0..topo.len() {
                assert_eq!(sim.node(i).reforwards(), 0, "perfect radio never re-forwards");
            }
        }
    }

    #[test]
    fn hardened_flood_survives_a_lossy_radio() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let members = [true, true, true, false, true];
        let ttl = 3;
        let central = fragment_sizes(&topo, ttl, |n| members[n]);
        let plan = FaultPlan::lossy(42, 0.25).with_duplication(0.1).with_max_delay(1);

        // The paper's flood (one repeat) loses origins under this radio…
        let mut plain = Simulator::new(&topo, |id| FragmentFlood::new(members[id], ttl, 1));
        plain.run_with_faults(60, &plan);
        let plain_sizes: Vec<usize> =
            (0..topo.len()).map(|i| plain.node(i).fragment_size()).collect();
        assert_ne!(plain_sizes, central, "loss too mild to demonstrate hardening");

        // …while five repeats still match the centralized answer.
        let mut sim = Simulator::new(&topo, |id| FragmentFlood::new(members[id], ttl, 5));
        let stats = sim.run_with_faults(120, &plan);
        assert!(stats.quiescent);
        let sizes: Vec<usize> = (0..topo.len()).map(|i| sim.node(i).fragment_size()).collect();
        assert_eq!(sizes, central);
        assert!(stats.faults.dropped > 0, "the radio must actually have dropped something");
    }

    #[test]
    fn centralized_matches_protocol_on_random_graphs() {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = 30;
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.12) {
                        edges.push((a, b));
                    }
                }
            }
            let topo = Topology::from_edges(n, &edges);
            let members: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let ttl = rng.gen_range(0..4);
            let (proto, _) = run_flood(&topo, &members, ttl);
            let central = fragment_sizes(&topo, ttl, |i| members[i]);
            assert_eq!(proto, central);
        }
    }
}
