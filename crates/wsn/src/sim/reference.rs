//! Reference engines for the delivery order, used only by tests: the
//! perfect engine sorts each round's deliveries by `(to, from)` with a
//! comparison sort, and the fault engine keeps one queue of all pending
//! deliveries, scans it every round, moves the due ones out with
//! `swap_remove` and sorts them by `(to, from, send sequence)`. The tests
//! below run a recording protocol through these engines and through
//! [`Simulator`]'s own, and require every delivery, `RunStats` and trace
//! byte to agree.

use super::*;

impl<P: Protocol> Simulator<'_, P> {
    /// [`Simulator::run_traced`] with a comparison sort per round.
    fn reference_run_traced(&mut self, max_rounds: usize, trace: &mut Trace) -> RunStats {
        let mut sent: u64 = 0;
        let mut bytes: u64 = 0;
        let mut per_round_messages: Vec<u64> = Vec::new();
        let mut per_round_bytes: Vec<u64> = Vec::new();
        let mut inflight: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
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
            // Deterministic delivery order.
            let mut deliveries = std::mem::take(&mut inflight);
            deliveries.sort_by_key(|&(from, to, _)| (to, from));
            let delivered = deliveries.len() as u64;
            for (from, to, msg) in &deliveries {
                let mut ctx = Ctx {
                    node: *to,
                    neighbors: self.topo.neighbors(*to),
                    outbox: &mut inflight,
                    sent: &mut sent,
                    bytes: &mut bytes,
                };
                self.nodes[*to].on_message(*from, msg, &mut ctx);
            }
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

    /// [`Simulator::run_with_faults_traced`] with one pending queue,
    /// scanned every round.
    fn reference_run_with_faults_traced(
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
        // Pending deliveries: (due_round, sequence, from, to, msg). The
        // sequence number preserves send order among equal (to, from)
        // keys, matching the stable sort of the perfect-delivery engine.
        let mut queue: Vec<(usize, u64, NodeId, NodeId, P::Msg)> = Vec::new();
        let mut seq: u64 = 0;
        let mut outbox: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();

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
        flush_to_queue(&mut outbox, 0, plan, &mut rng, &mut queue, &mut seq, &mut counts);
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
        let mut due: Vec<(usize, u64, NodeId, NodeId, P::Msg)> = Vec::new();
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
                    flush_to_queue(
                        &mut outbox,
                        rounds,
                        plan,
                        &mut rng,
                        &mut queue,
                        &mut seq,
                        &mut counts,
                    );
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
            if queue.is_empty() && next_event >= events.len() && !wants_tick {
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
            // order (destination, source, send sequence).
            due.clear();
            let mut i = 0;
            while i < queue.len() {
                if queue[i].0 < rounds {
                    due.push(queue.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            due.sort_by_key(|&(_, s, from, to, _)| (to, from, s));
            let mut delivered: u64 = 0;
            for (_, _, from, to, msg) in &due {
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
            flush_to_queue(&mut outbox, rounds, plan, &mut rng, &mut queue, &mut seq, &mut counts);
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
            flush_to_queue(&mut outbox, rounds, plan, &mut rng, &mut queue, &mut seq, &mut counts);
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
}

/// Moves this round's sends through the fault layer, in send order (the
/// PRNG is consumed in a fixed order, so runs are reproducible): each
/// transmission is dropped with its link's loss probability, otherwise
/// scheduled at `due_base` plus a uniform `0..=max_delay` extra rounds,
/// and duplicated (with an independently drawn delay) with the plan's
/// duplication probability.
fn flush_to_queue<M: Clone>(
    outbox: &mut Vec<(NodeId, NodeId, M)>,
    due_base: usize,
    plan: &FaultPlan,
    rng: &mut Xoshiro256PlusPlus,
    queue: &mut Vec<(usize, u64, NodeId, NodeId, M)>,
    seq: &mut u64,
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
            queue.push((due_base + extra, *seq, from, to, msg.clone()));
            *seq += 1;
        }
        queue.push((due_base + delay, *seq, from, to, msg));
        *seq += 1;
    }
}

mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use ballfit_rng::{Rng, StdRng};

    use super::*;
    use crate::faults::Crash;

    /// One delivery as the recorder saw it: `(round, to, from, payload)`,
    /// the payload being `(token, ttl)`.
    type Delivery = (usize, NodeId, NodeId, (usize, u32));

    /// Logs every delivery into a log shared by all nodes, and keeps
    /// traffic flowing: each start broadcast and each reply with TTL left
    /// is answered by two unicasts back to the sender (equal `(to, from)`
    /// keys, told apart only by send order) and one forward, and every
    /// node sends from `on_round_end` for its first few rounds.
    #[derive(Debug)]
    struct Recorder {
        log: Rc<RefCell<Vec<Delivery>>>,
        /// Rounds completed, as the last `on_round_end` reported.
        clock: Rc<Cell<usize>>,
        ttl: u32,
        /// Tokens this node minted.
        minted: usize,
        /// Deliveries this node still answers.
        replies: u32,
        /// Rounds in which `on_round_end` still sends.
        ticks: u32,
    }

    impl Recorder {
        fn token(&mut self, me: NodeId) -> usize {
            self.minted += 1;
            me * 1_000_000 + self.minted
        }
    }

    impl Protocol for Recorder {
        type Msg = (usize, u32);

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            let token = self.token(ctx.node());
            ctx.broadcast((token, self.ttl));
        }

        fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
            let me = ctx.node();
            self.log.borrow_mut().push((self.clock.get() + 1, me, from, *msg));
            let (token, ttl) = *msg;
            if ttl == 0 || self.replies == 0 {
                return;
            }
            self.replies -= 1;
            for _ in 0..2 {
                let reply = self.token(me);
                ctx.send(from, (reply, ttl - 1));
            }
            let neighbors = ctx.neighbors();
            if let Some(&to) = neighbors.get(token % neighbors.len()) {
                let forward = self.token(me);
                ctx.send(to as NodeId, (forward, ttl - 1));
            }
        }

        fn on_round_end(&mut self, round: usize, ctx: &mut Ctx<'_, Self::Msg>) {
            self.clock.set(round + 1);
            if self.ticks == 0 {
                return;
            }
            self.ticks -= 1;
            if let Some(&to) = ctx.neighbors().last() {
                let token = self.token(ctx.node());
                ctx.send(to as NodeId, (token, 1));
            }
        }

        fn wants_tick(&self) -> bool {
            self.ticks > 0
        }
    }

    /// What one engine did: its stats, its trace (`None` untraced) and
    /// every delivery in order.
    type Recording = (RunStats, Option<String>, Vec<Delivery>);

    /// Runs the recorder on `topo` through `engine`, which receives the
    /// simulator and a trace.
    fn record(
        topo: &Topology,
        ttl: u32,
        traced: bool,
        engine: impl FnOnce(&mut Simulator<'_, Recorder>, &mut Trace) -> RunStats,
    ) -> Recording {
        let log = Rc::new(RefCell::new(Vec::new()));
        let clock = Rc::new(Cell::new(0));
        let mut sim = Simulator::new(topo, |_| Recorder {
            log: Rc::clone(&log),
            clock: Rc::clone(&clock),
            ttl,
            minted: 0,
            replies: 3,
            ticks: 3,
        });
        let mut trace = if traced { Trace::enabled() } else { Trace::disabled() };
        let stats = engine(&mut sim, &mut trace);
        drop(sim);
        let deliveries = log.borrow().clone();
        (stats, traced.then(|| trace.to_jsonl()), deliveries)
    }

    /// Asserts that the fault engine and its reference agree on `plan`;
    /// returns the run's stats.
    fn assert_fault_engines_agree(
        topo: &Topology,
        plan: &FaultPlan,
        ttl: u32,
        traced: bool,
    ) -> RunStats {
        let max_rounds = 64 + plan.round_slack();
        let ours = record(topo, ttl, traced, |sim, trace| {
            sim.run_with_faults_traced(max_rounds, plan, trace)
        });
        let reference = record(topo, ttl, traced, |sim, trace| {
            sim.reference_run_with_faults_traced(max_rounds, plan, trace)
        });
        assert!(!ours.2.is_empty(), "{plan:?} delivered nothing");
        assert_eq!(ours.2, reference.2, "deliveries diverged under {plan:?}");
        assert_eq!(ours.0, reference.0, "RunStats diverged under {plan:?}");
        assert_eq!(ours.1, reference.1, "traces diverged under {plan:?}");
        ours.0
    }

    /// A seeded random connected graph on `n ≥ 2` nodes: a random tree
    /// plus extra edges.
    fn random_topology(rng: &mut StdRng, n: usize) -> Topology {
        let mut edges = Vec::new();
        for b in 1..n {
            let a = rng.gen_range(0..b);
            edges.push((a, b));
            for a in (0..b).filter(|&c| c != a) {
                if rng.gen_bool(0.2) {
                    edges.push((a, b));
                }
            }
        }
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn perfect_engine_matches_the_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(19);
        for case in 0..24 {
            let topo = random_topology(&mut rng, 2 + case);
            let ours = record(&topo, 2, true, |sim, trace| sim.run_traced(64, trace));
            let reference =
                record(&topo, 2, true, |sim, trace| sim.reference_run_traced(64, trace));
            assert_eq!(ours, reference, "case {case}");
            // The zero-fault plan takes the same order through the fault
            // engine.
            assert_fault_engines_agree(&topo, &FaultPlan::none(), 2, true);
        }
    }

    #[test]
    fn fault_engine_matches_the_queue_scan() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut faults = FaultCounts::default();
        let mut tally = |stats: RunStats| {
            faults.dropped += stats.faults.dropped;
            faults.duplicated += stats.faults.duplicated;
            faults.delayed += stats.faults.delayed;
            faults.crash_lost += stats.faults.crash_lost;
        };
        for case in 0..24 {
            let n = 2 + case;
            let topo = random_topology(&mut rng, n);
            let seed = rng.gen_range(0..u64::MAX);
            // Loss and duplication.
            let plan = FaultPlan::lossy(seed, 0.3).with_duplication(0.25);
            tally(assert_fault_engines_agree(&topo, &plan, 2, true));
            // Delays, so deliveries wait for later rounds.
            for max_delay in 0..=3 {
                let plan =
                    FaultPlan::lossy(seed, 0.1).with_duplication(0.2).with_max_delay(max_delay);
                tally(assert_fault_engines_agree(&topo, &plan, 2, true));
            }
            // Crash windows: down at round 0 and revived (a late
            // `on_start`), down mid-run and revived, down for good.
            let mut crashes = Vec::new();
            for node in 0..n {
                let up_at = rng.gen_range(2..6);
                match rng.gen_range(0..4) {
                    0 => crashes.push(Crash { node, down_at: 0, up_at: Some(up_at) }),
                    1 => crashes.push(Crash { node, down_at: 1, up_at: Some(up_at + 1) }),
                    2 => crashes.push(Crash { node, down_at: up_at, up_at: None }),
                    _ => {}
                }
            }
            let plan = FaultPlan::lossy(seed, 0.15)
                .with_duplication(0.1)
                .with_max_delay(2)
                .with_crashes(crashes);
            tally(assert_fault_engines_agree(&topo, &plan, 2, true));
        }
        // Every fault kind actually fired somewhere.
        assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
        assert!(faults.delayed > 0 && faults.crash_lost > 0, "{faults:?}");
    }

    /// A delay of up to 10⁶ rounds on a 2-node radio: due-round groups are
    /// sized by the messages in flight, and the order still matches.
    #[test]
    fn huge_delays_keep_the_order_of_the_queue_scan() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let plan = FaultPlan::lossy(3, 0.2).with_duplication(0.5).with_max_delay(1_000_000);
        let stats = assert_fault_engines_agree(&topo, &plan, 1, false);
        assert!(stats.quiescent && stats.rounds > 100_000, "{} rounds", stats.rounds);
    }
}
