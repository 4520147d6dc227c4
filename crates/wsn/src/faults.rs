//! Deterministic fault injection for the round engine.
//!
//! The paper's protocols are specified over an idealized radio: every
//! message is delivered exactly once, one round after it is sent, and no
//! node ever fails. Real deployments — and the related distributed
//! boundary-detection work this reproduction benchmarks against — see
//! lossy links, duplicated and delayed frames, and fail-stop node
//! crashes. A [`FaultPlan`] describes such an unreliable radio; the
//! engine applies it in [`crate::sim::Simulator::run_with_faults`].
//!
//! Determinism is non-negotiable (it is what makes the robustness sweeps
//! reproducible and the equivalence tests meaningful), so every random
//! decision is drawn from a hand-rolled seeded PRNG ([`SplitMix64`]
//! seeding [`Xoshiro256PlusPlus`]) in a fixed order: same plan + same
//! protocol ⇒ bit-identical run. No `thread_rng`, no wall clock — the
//! `clippy.toml` determinism bans hold for this module like any other.
//!
//! Fault semantics:
//!
//! * **Loss** — each transmission is dropped independently with a
//!   per-link probability: the plan's base [`FaultPlan::loss`] scaled by
//!   a deterministic per-`(from, to)` factor in `[0.5, 1.5)`, so some
//!   links are consistently worse than others (clamped to `[0, 1]`).
//! * **Duplication** — with probability [`FaultPlan::duplication`] a
//!   transmission is delivered twice (the copy is delayed
//!   independently).
//! * **Delay** — each delivery is postponed by a uniform extra
//!   `0..=max_delay` rounds beyond the usual next-round delivery.
//! * **Crashes** — fail-stop with state retention: a down node sends
//!   nothing, receives nothing (in-flight messages addressed to it are
//!   lost), and takes no round callbacks. On recovery it resumes with
//!   its pre-crash state; a node that was down before the run started is
//!   started (`on_start`) at its recovery round instead.
//!
//! [`FaultPlan::none`] injects nothing, and the engine's zero-fault path
//! is regression-tested to be byte-identical to the perfect-delivery
//! engine.

use crate::topology::NodeId;

/// The workspace's one SplitMix64 (from `ballfit-rng`, which also backs
/// network generation). Used directly for stateless per-link hashing and
/// to seed [`Xoshiro256PlusPlus`] (its intended role).
pub use ballfit_rng::SplitMix64;

/// Blackman–Vigna xoshiro256++: the fault stream's workhorse generator
/// (fast, tiny state, excellent statistical quality).
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the four state words from a [`SplitMix64`] stream, the
    /// seeding procedure recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256PlusPlus { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (`p ≤ 0` never fires,
    /// `p ≥ 1` always fires).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `0..=bound`. Uses a modulo reduction: the bias
    /// is ≤ `bound / 2⁶⁴`, irrelevant for the tiny bounds used here.
    pub fn gen_inclusive(&mut self, bound: u64) -> u64 {
        if bound == u64::MAX {
            self.next_u64()
        } else {
            self.next_u64() % (bound + 1)
        }
    }
}

/// One scheduled fail-stop event: `node` goes down at the start of round
/// `down_at` (0-based; `0` means "before `on_start`") and — if `up_at`
/// is set — comes back at the start of round `up_at` with its state
/// intact. `up_at: None` is a permanent crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The failing node.
    pub node: NodeId,
    /// First round (0-based) the node is down.
    pub down_at: usize,
    /// Round the node recovers, or `None` for a permanent crash.
    pub up_at: Option<usize>,
}

/// Counters of injected faults, reported in
/// [`crate::sim::RunStats::faults`]. All zero on the perfect-delivery
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FaultCounts {
    /// Transmissions dropped by link loss.
    pub dropped: u64,
    /// Extra deliveries injected by duplication.
    pub duplicated: u64,
    /// Deliveries postponed beyond the normal next-round latency.
    pub delayed: u64,
    /// Deliveries lost because the receiver was down at delivery time.
    pub crash_lost: u64,
}

/// A deterministic description of an unreliable radio: link loss,
/// duplication, bounded delivery delay, and scheduled node crashes, all
/// driven by `seed`. See the module docs for exact semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault decision stream (and of per-link loss factors).
    pub seed: u64,
    /// Base per-transmission drop probability in `[0, 1]`; scaled per
    /// link by a deterministic factor in `[0.5, 1.5)`.
    pub loss: f64,
    /// Per-transmission duplication probability in `[0, 1]`.
    pub duplication: f64,
    /// Maximum extra delivery delay in rounds (uniform `0..=max_delay`).
    pub max_delay: u32,
    /// Scheduled fail-stop crashes/recoveries.
    pub crashes: Vec<Crash>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The perfect radio: nothing is dropped, duplicated, delayed, or
    /// crashed. [`crate::sim::Simulator::run_with_faults`] with this plan
    /// is byte-identical to [`crate::sim::Simulator::run`].
    pub fn none() -> Self {
        FaultPlan { seed: 0, loss: 0.0, duplication: 0.0, max_delay: 0, crashes: Vec::new() }
    }

    /// A plan with only link loss, the most common single knob.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultPlan { seed, loss, ..FaultPlan::none() }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the base link-loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder: sets the duplication probability.
    pub fn with_duplication(mut self, duplication: f64) -> Self {
        self.duplication = duplication;
        self
    }

    /// Builder: sets the maximum extra delivery delay (rounds).
    pub fn with_max_delay(mut self, max_delay: u32) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Builder: adds explicit crash events.
    pub fn with_crashes(mut self, crashes: impl IntoIterator<Item = Crash>) -> Self {
        self.crashes.extend(crashes);
        self
    }

    /// Builder: crashes a deterministic pseudo-random `fraction` of the
    /// `n` nodes (rounded to the nearest count, chosen by partial
    /// Fisher–Yates from this plan's seed), all going down at `down_at`
    /// and recovering at `up_at` (or never, if `None`).
    pub fn with_random_crashes(
        mut self,
        n: usize,
        fraction: f64,
        down_at: usize,
        up_at: Option<usize>,
    ) -> Self {
        let count = ((fraction * n as f64).round() as usize).min(n);
        let mut pool: Vec<NodeId> = (0..n).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ 0xC2B2_AE3D_27D4_EB4F);
        for i in 0..count {
            let j = i + rng.gen_inclusive((n - 1 - i) as u64) as usize;
            pool.swap(i, j);
            self.crashes.push(Crash { node: pool[i], down_at, up_at });
        }
        self
    }

    /// `true` when the plan injects nothing at all (the engine's
    /// perfect-delivery special case).
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0
            && self.duplication <= 0.0
            && self.max_delay == 0
            && self.crashes.is_empty()
    }

    /// Panics (at engine entry, not inside any protocol handler) if a
    /// probability is NaN or outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.loss >= 0.0 && self.loss <= 1.0,
            "FaultPlan::loss must be in [0, 1], got {}",
            self.loss
        );
        assert!(
            self.duplication >= 0.0 && self.duplication <= 1.0,
            "FaultPlan::duplication must be in [0, 1], got {}",
            self.duplication
        );
    }

    /// The per-link drop probability for transmissions `from → to`: the
    /// base loss scaled by a deterministic factor in `[0.5, 1.5)`,
    /// clamped to `[0, 1]`. Zero iff the base loss is zero.
    pub fn link_loss(&self, from: NodeId, to: NodeId) -> f64 {
        if self.loss <= 0.0 {
            return 0.0;
        }
        let key = self
            .seed
            .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let u = (SplitMix64::new(key).next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (self.loss * (0.5 + u)).clamp(0.0, 1.0)
    }

    /// The fault decision stream consumed by the engine.
    pub fn stream(&self) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(self.seed)
    }

    /// All crash transitions as `(round, node, comes_up)` sorted by
    /// round (downs before ups within a round, then by node).
    pub fn schedule(&self) -> Vec<(usize, NodeId, bool)> {
        let mut events: Vec<(usize, NodeId, bool)> = Vec::new();
        for c in &self.crashes {
            events.push((c.down_at, c.node, false));
            if let Some(up) = c.up_at {
                events.push((up, c.node, true));
            }
        }
        events.sort_by_key(|&(round, node, up)| (round, up, node));
        events
    }

    /// The last round at which a crash transition occurs, if any. Runners
    /// add this to their round budgets so quiescence can account for
    /// every scheduled event.
    pub fn last_event_round(&self) -> Option<usize> {
        self.crashes.iter().map(|c| c.up_at.map_or(c.down_at, |u| u.max(c.down_at))).max()
    }

    /// Extra rounds a runner should grant beyond its fault-free budget:
    /// all scheduled events plus headroom for delayed deliveries and
    /// retransmission cycles.
    pub fn round_slack(&self) -> usize {
        self.last_event_round().map_or(0, |r| r + 1) + 4 * self.max_delay as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256PlusPlus::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256PlusPlus::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256PlusPlus::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        // SplitMix64 likewise.
        let mut s1 = SplitMix64::new(7);
        let mut s2 = SplitMix64::new(7);
        assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f), "f64 draw out of range: {f}");
            assert!(r.gen_inclusive(5) <= 5);
        }
        assert!(!r.gen_bool(0.0), "p=0 must never fire");
        assert!(r.gen_bool(1.0), "p=1 must always fire");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(99);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 over 10k draws: {hits}");
    }

    #[test]
    fn none_plan_is_none_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate();
        assert_eq!(plan.schedule(), vec![]);
        assert_eq!(plan.last_event_round(), None);
        assert_eq!(plan.round_slack(), 0);
        assert!(plan.link_loss(0, 1) <= 0.0);
        assert!(!FaultPlan::lossy(1, 0.1).is_none());
        assert!(!FaultPlan::none().with_max_delay(2).is_none());
        assert!(!FaultPlan::none().with_duplication(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn out_of_range_loss_is_rejected() {
        FaultPlan::lossy(0, 1.5).validate();
    }

    #[test]
    #[should_panic(expected = "duplication must be in [0, 1]")]
    fn nan_duplication_is_rejected() {
        FaultPlan::none().with_duplication(f64::NAN).validate();
    }

    #[test]
    fn link_loss_is_per_link_deterministic_and_bounded() {
        let plan = FaultPlan::lossy(5, 0.2);
        let l01 = plan.link_loss(0, 1);
        let l10 = plan.link_loss(1, 0);
        assert_eq!(l01.to_bits(), plan.link_loss(0, 1).to_bits(), "per-link loss must be stable");
        for from in 0..20 {
            for to in 0..20 {
                let l = plan.link_loss(from, to);
                assert!((0.2 * 0.5..0.2 * 1.5).contains(&l), "link loss out of band: {l}");
            }
        }
        // Directionality: the two directions of a link are independent
        // draws (equal only by coincidence).
        let distinct = (0..50)
            .filter(|&i| {
                let a = plan.link_loss(i, i + 1);
                let b = plan.link_loss(i + 1, i);
                (a - b).abs() > 1e-12
            })
            .count();
        assert!(distinct > 40, "per-link factors look constant");
        let _ = (l01, l10);
    }

    #[test]
    fn schedule_is_sorted_with_downs_before_ups() {
        let plan = FaultPlan::none().with_crashes([
            Crash { node: 3, down_at: 2, up_at: Some(5) },
            Crash { node: 1, down_at: 5, up_at: None },
            Crash { node: 2, down_at: 0, up_at: Some(2) },
        ]);
        assert_eq!(
            plan.schedule(),
            vec![(0, 2, false), (2, 3, false), (2, 2, true), (5, 1, false), (5, 3, true)]
        );
        assert_eq!(plan.last_event_round(), Some(5));
        assert!(plan.round_slack() >= 6);
    }

    #[test]
    fn random_crashes_are_distinct_and_deterministic() {
        let plan = FaultPlan::none().with_seed(11).with_random_crashes(100, 0.1, 1, Some(4));
        assert_eq!(plan.crashes.len(), 10);
        let mut nodes: Vec<NodeId> = plan.crashes.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 10, "crashed nodes must be distinct");
        let again = FaultPlan::none().with_seed(11).with_random_crashes(100, 0.1, 1, Some(4));
        assert_eq!(plan, again);
        let other = FaultPlan::none().with_seed(12).with_random_crashes(100, 0.1, 1, Some(4));
        assert_ne!(plan.crashes, other.crashes);
        // Fraction 1.0 crashes everyone; 0.0 crashes no one.
        assert_eq!(FaultPlan::none().with_random_crashes(5, 1.0, 0, None).crashes.len(), 5);
        assert!(FaultPlan::none().with_random_crashes(5, 0.0, 0, None).crashes.is_empty());
    }
}
