//! The reference fragment flood, used only by tests: [`FragmentFlood`]'s
//! protocol with the best TTL per origin kept in a `BTreeMap`. The test
//! below runs both through [`Simulator`] on a lossy, duplicating and
//! delaying radio with crashes, and requires every fragment size,
//! re-forward count and `RunStats` field to agree.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use super::*;
use crate::faults::Crash;
use crate::sim::Simulator;

/// [`FragmentFlood`] with a `BTreeMap` of best TTLs per origin.
struct ReferenceFlood {
    member: bool,
    ttl: u32,
    repeats: u32,
    best: BTreeMap<NodeId, u32>,
    pending: Vec<PendingRepeat>,
    reforwards: u64,
}

impl ReferenceFlood {
    fn new(member: bool, ttl: u32, repeats: u32) -> Self {
        ReferenceFlood {
            member,
            ttl,
            repeats: repeats.max(1),
            best: BTreeMap::new(),
            pending: Vec::new(),
            reforwards: 0,
        }
    }

    fn fragment_size(&self) -> usize {
        if self.member {
            self.best.len()
        } else {
            0
        }
    }

    fn forward(&mut self, origin: NodeId, fwd_ttl: u32, ctx: &mut Ctx<'_, FloodMsg>) {
        ctx.broadcast((origin, fwd_ttl));
        if self.repeats > 1 {
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

impl Protocol for ReferenceFlood {
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
            return;
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

/// Random graphs with 70% members under loss, duplication, delay and
/// three crashes (one before `on_start`, one recovering, one permanent):
/// the flood and the reference agree on every node's fragment size and
/// re-forwards and on the whole `RunStats`, at one repeat and at five.
#[test]
fn flood_matches_the_btreemap_reference_on_a_faulty_radio() {
    use ballfit_rng::{Rng, StdRng};
    let mut rng = StdRng::seed_from_u64(23);
    let mut reforwarded = 0;
    for case in 0..6u64 {
        let n = 40;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.15) {
                    edges.push((a, b));
                }
            }
        }
        let topo = Topology::from_edges(n, &edges);
        let members: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        let ttl = 3;
        let plan =
            FaultPlan::lossy(case, 0.3).with_duplication(0.1).with_max_delay(2).with_crashes([
                Crash { node: 1, down_at: 0, up_at: Some(3) },
                Crash { node: 5, down_at: 1, up_at: Some(4) },
                Crash { node: 9, down_at: 2, up_at: None },
            ]);
        for repeats in [1, 5] {
            let budget = FragmentFlood::round_budget(ttl, repeats, &plan);
            let mut flood =
                Simulator::new(&topo, |id| FragmentFlood::new(members[id], ttl, repeats));
            let mut reference =
                Simulator::new(&topo, |id| ReferenceFlood::new(members[id], ttl, repeats));
            let stats = flood.run_with_faults(budget, &plan);
            assert_eq!(stats, reference.run_with_faults(budget, &plan), "case {case}/{repeats}");
            assert!(stats.faults.dropped > 0 && stats.faults.duplicated > 0);
            for i in 0..n {
                let (got, want) = (flood.node(i), reference.node(i));
                let at = format!("case {case}, repeats {repeats}, node {i}");
                assert_eq!(got.fragment_size(), want.fragment_size(), "{at}");
                assert_eq!(got.reforwards(), want.reforwards, "{at}");
                reforwarded += want.reforwards;
            }
        }
    }
    assert!(reforwarded > 0, "no better copy ever arrived: the raise path went untested");
}
