//! Chaos runtime: combined fault + churn execution with adaptive
//! recovery, graceful degradation, and a convergence watchdog.
//!
//! The robustness harness ([`crate::protocols`]) runs each hardened
//! protocol against a static topology, and the churn harness
//! ([`crate::incremental`]) mutates the topology under a perfect radio.
//! This module interleaves both stressors epoch by epoch: a
//! [`ballfit_wsn::churn::ChurnPlan`] mutates the network while a fresh
//! [`FaultPlan`] (derived deterministically from the epoch index) drops,
//! duplicates, delays, and crashes the epoch's protocol traffic. An
//! [`IncrementalDetector`] follows every topology event as the exactness
//! oracle, so each epoch's distributed detection can be judged node by
//! node.
//!
//! The result is never all-or-nothing: instead of
//! [`crate::protocols::ConvergenceFailure`], each epoch yields a typed
//! [`DetectionOutcome`] — [`DetectionOutcome::Exact`] when every live
//! node agrees with the oracle, or [`DetectionOutcome::Degraded`] with
//! the achieved coverage, the nodes left behind, and a [`DegradeCause`]
//! assigned by the convergence watchdog (partition, crash quorum, retry
//! budget exhaustion, or round-budget truncation, in that priority
//! order). The watchdog records its verdict as a
//! [`ballfit_obs::TraceEvent::Verdict`] inside a `"watchdog"` span, so
//! trace summaries count degraded epochs without re-deriving them.
//!
//! Each epoch runs the stack twice on the same distance tables: first
//! fault-free, to price the lag, then under the epoch's fault plan. A UBF
//! verdict is a pure function of the node's own table and the neighbour
//! tables it holds, so the faulted run takes the fault-free verdict of
//! every node that received all its neighbours' tables and embeds and
//! tests only the nodes left with a partial set.
//!
//! Everything is seeded: the same `(model, config, position_seed)`
//! triple replays to a byte-identical [`ChaosReport`] — including the
//! resolved [`TopologyEvent`] log, which is what the crash-recovery pin
//! replays after restoring a [`ballfit_wsn::churn::TopologySnapshot`] +
//! [`crate::incremental::DetectorCheckpoint`] pair mid-run.

use std::collections::VecDeque;

use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::GenError;
use ballfit_obs::{Trace, TraceEvent};
use ballfit_par::Parallelism;
use ballfit_wsn::churn::{ChurnPlan, DynamicTopology, TopologyEvent};
use ballfit_wsn::faults::{Crash, FaultPlan, SplitMix64, Xoshiro256PlusPlus};
use ballfit_wsn::flood::FragmentFlood;
use ballfit_wsn::sim::Protocol;
use ballfit_wsn::NodeId;

use crate::config::DetectorConfig;
use crate::detector::BoundaryDetection;
use crate::incremental::{BoundaryDiff, IncrementalDetector};
use crate::protocols::{exchange, Backoff, HardenedGrouping, HardenedUbf, UbfProtocol};
use crate::view::NetView;

/// Why a chaos epoch degraded, assigned by the convergence watchdog in
/// priority order (a partitioned epoch is reported as partitioned even
/// if retry budgets also ran out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// Churn or permanent crashes disconnected the live network: some
    /// nodes were unreachable by any protocol traffic.
    Partition,
    /// At least a quarter of the live population was permanently crashed
    /// for the whole epoch.
    CrashQuorum,
    /// Retry budgets ran out before every exchange was confirmed — the
    /// repair traffic the backoff schedule allows was not enough.
    RetryExhausted,
    /// A protocol run hit its hang-stop round budget without quiescing.
    Truncated,
}

impl DegradeCause {
    /// The stable string form used by [`TraceEvent::Verdict`] records.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeCause::Partition => "partition",
            DegradeCause::CrashQuorum => "crash-quorum",
            DegradeCause::RetryExhausted => "retry-exhausted",
            DegradeCause::Truncated => "truncated",
        }
    }
}

/// The graded result of one chaos epoch's distributed detection,
/// replacing the all-or-nothing convergence error: a degraded epoch
/// still reports the boundary it *did* establish, how much of the live
/// network it covers, and why the rest was missed.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectionOutcome {
    /// Every live node's boundary flag and group label match the oracle,
    /// and every protocol run quiesced.
    Exact {
        /// Live boundary nodes, ascending.
        boundary: Vec<NodeId>,
    },
    /// Some live nodes could not be brought into agreement with the
    /// oracle (or a run was truncated); the boundary below is what the
    /// distributed execution actually established.
    Degraded {
        /// Live nodes the distributed run flagged as boundary, ascending.
        boundary: Vec<NodeId>,
        /// Fraction of live nodes in full agreement with the oracle.
        coverage: f64,
        /// Live nodes whose boundary flag or group label disagrees with
        /// the oracle, ascending.
        unreached: Vec<NodeId>,
        /// The watchdog's verdict on why.
        cause: DegradeCause,
    },
}

impl DetectionOutcome {
    /// `true` for [`DetectionOutcome::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, DetectionOutcome::Exact { .. })
    }

    /// The boundary the distributed execution established (exact or not).
    pub fn boundary(&self) -> &[NodeId] {
        match self {
            DetectionOutcome::Exact { boundary } | DetectionOutcome::Degraded { boundary, .. } => {
                boundary
            }
        }
    }

    /// Fraction of live nodes in agreement with the oracle (1.0 if exact).
    pub fn coverage(&self) -> f64 {
        match self {
            DetectionOutcome::Exact { .. } => 1.0,
            DetectionOutcome::Degraded { coverage, .. } => *coverage,
        }
    }

    /// The degradation cause, if any.
    pub fn cause(&self) -> Option<DegradeCause> {
        match self {
            DetectionOutcome::Exact { .. } => None,
            DetectionOutcome::Degraded { cause, .. } => Some(*cause),
        }
    }
}

/// Configuration of a chaos run: the oracle's detector settings, the
/// churn plan mutating the topology, and the per-epoch fault intensity.
///
/// Fault seeds are derived per epoch from `fault_seed`, and crash
/// victims are drawn from the *currently live* population, so the same
/// configuration replays bit-identically regardless of thread count.
///
/// For an undisturbed epoch to be judged exact, the oracle and the
/// protocol stack must compute the same per-node frames: use a
/// [`LocalMds`](crate::config::CoordinateSource::LocalMds) source (both
/// sides embed measured distances — [`DetectorConfig::paper`] at 0%
/// error is the usual choice). Under
/// [`GroundTruth`](crate::config::CoordinateSource::GroundTruth) the centralized
/// oracle reads positions directly while protocols can only embed
/// distance tables, so a handful of near-threshold nodes may flip and
/// register as (honest) degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Oracle detector configuration (also decides protocol frames).
    pub detector: DetectorConfig,
    /// The churn schedule interleaved between detection epochs.
    pub churn: ChurnPlan,
    /// Base per-transmission loss probability for every epoch's radio.
    pub loss: f64,
    /// Per-transmission duplication probability.
    pub duplication: f64,
    /// Maximum extra delivery delay in rounds.
    pub max_delay: u32,
    /// Fraction of the live population crashed each epoch.
    pub crash_fraction: f64,
    /// Round (within each protocol run) the epoch's victims go down.
    pub crash_down: usize,
    /// Round the victims recover, or `None` for epoch-permanent crashes.
    pub crash_up: Option<usize>,
    /// Base seed of the per-epoch fault streams.
    pub fault_seed: u64,
    /// Retransmission policy of the hardened executors.
    pub backoff: Backoff,
    /// Repeat count of the hardened IFF flood.
    pub flood_repeats: u32,
}

impl ChaosConfig {
    /// A chaos configuration with a perfect radio: only churn stresses
    /// the run. Crash windows default to down-at-1 / up-at-6, inside the
    /// default [`Backoff`]'s second retransmission fire.
    pub fn new(detector: DetectorConfig, churn: ChurnPlan) -> Self {
        ChaosConfig {
            detector,
            churn,
            loss: 0.0,
            duplication: 0.0,
            max_delay: 0,
            crash_fraction: 0.0,
            crash_down: 1,
            crash_up: Some(6),
            fault_seed: 0,
            backoff: Backoff::default(),
            flood_repeats: 5,
        }
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

    /// Builder: crashes `fraction` of the live population each epoch.
    pub fn with_crash_fraction(mut self, fraction: f64) -> Self {
        self.crash_fraction = fraction;
        self
    }

    /// Builder: sets the crash window (`up` = `None` for permanent).
    pub fn with_crash_window(mut self, down: usize, up: Option<usize>) -> Self {
        self.crash_down = down;
        self.crash_up = up;
        self
    }

    /// Builder: sets the base fault seed.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }
}

/// One epoch's judged result plus its cost counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Churn events applied before this epoch's detection.
    pub events: usize,
    /// Live nodes when detection ran.
    pub live: usize,
    /// Crash victims scheduled this epoch.
    pub crashed: usize,
    /// The watchdog-judged detection outcome.
    pub outcome: DetectionOutcome,
    /// Jaccard index of the live distributed vs. oracle boundary sets.
    pub jaccard: f64,
    /// Rounds the faulty protocol stack ran (all three phases).
    pub rounds: usize,
    /// Rounds the same stack runs fault-free on this topology.
    pub clean_rounds: usize,
    /// Retry budget spent: UBF retransmissions + grouping repair probes.
    pub repairs: u64,
    /// Budget-exhaustion incidents (UBF nodes + grouping edges).
    pub exhausted: u64,
}

impl EpochOutcome {
    /// Detection lag: extra rounds the faults cost over the fault-free
    /// baseline on the identical topology.
    pub fn lag(&self) -> usize {
        self.rounds.saturating_sub(self.clean_rounds)
    }
}

/// Everything a chaos run produced: per-epoch outcomes, the resolved
/// (replayable) event log with the oracle's per-event diffs, and the
/// oracle's final detection state.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// One judged outcome per epoch.
    pub epochs: Vec<EpochOutcome>,
    /// Every resolved topology event, in application order. Replaying
    /// these against a fresh [`DynamicTopology`] of the model reproduces
    /// the run's topology trajectory exactly.
    pub events: Vec<TopologyEvent>,
    /// The oracle's boundary diff for each event, index-aligned with
    /// [`ChaosReport::events`].
    pub diffs: Vec<BoundaryDiff>,
    /// The oracle's detection state after the final epoch.
    pub detection: BoundaryDetection,
}

impl ChaosReport {
    /// Number of epochs judged exact.
    pub fn exact_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.outcome.is_exact()).count()
    }

    /// The worst per-epoch coverage (1.0 if every epoch was exact).
    pub fn min_coverage(&self) -> f64 {
        self.epochs.iter().map(|e| e.outcome.coverage()).fold(1.0, f64::min)
    }

    /// Mean per-epoch boundary Jaccard index (1.0 for an epoch-less run).
    pub fn mean_jaccard(&self) -> f64 {
        if self.epochs.is_empty() {
            return 1.0;
        }
        self.epochs.iter().map(|e| e.jaccard).sum::<f64>() / self.epochs.len() as f64
    }

    /// Total detection lag across all epochs.
    pub fn total_lag(&self) -> usize {
        self.epochs.iter().map(EpochOutcome::lag).sum()
    }
}

/// Decorrelates the per-epoch fault streams from the base seed.
fn epoch_seed(base: u64, epoch: usize) -> u64 {
    SplitMix64::new(base ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Builds the epoch's fault plan: the configured loss/duplication/delay
/// knobs plus `crash_fraction` of the *live* population (partial
/// Fisher–Yates over `live`, so dead churn slots are never "crashed").
///
/// Public so long-lived front ends (`ballfit-serve`'s `inject` request)
/// can derive the identical per-epoch fault stream a [`run_chaos`]
/// schedule would: the plan is a pure function of
/// `(config, epoch, live)`.
pub fn epoch_plan(config: &ChaosConfig, epoch: usize, live: &[NodeId]) -> FaultPlan {
    let seed = epoch_seed(config.fault_seed, epoch);
    let mut plan = FaultPlan::lossy(seed, config.loss)
        .with_duplication(config.duplication)
        .with_max_delay(config.max_delay);
    let count = ((config.crash_fraction * live.len() as f64).round() as usize).min(live.len());
    if count > 0 {
        let mut pool = live.to_vec();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x94D0_49BB_1331_11EB);
        let mut crashes = Vec::with_capacity(count);
        for i in 0..count {
            let j = i + rng.gen_inclusive((pool.len() - 1 - i) as u64) as usize;
            pool.swap(i, j);
            crashes.push(Crash {
                node: pool[i],
                down_at: config.crash_down,
                up_at: config.crash_up,
            });
        }
        plan = plan.with_crashes(crashes);
    }
    plan
}

/// What one pass of the distributed stack produced on a fixed topology.
struct StackRun {
    /// The UBF phase's verdicts (boundary candidates).
    candidates: Vec<bool>,
    boundary: Vec<bool>,
    labels: Vec<Option<NodeId>>,
    rounds: usize,
    repairs: u64,
    exhausted: u64,
    quiescent: bool,
}

/// Runs the full hardened stack (UBF → IFF flood → grouping) once on
/// the dynamic topology under `plan`, each phase through
/// [`exchange`] with its hardened runner's span and round budget.
/// `tables` are the nodes' measured-distance tables
/// ([`UbfProtocol::for_view`]), measured by the same oracle the
/// centralized frames use, so the oracle and the distributed stack
/// judge the same inputs (at zero ranging error: true distances; see
/// [`ChaosConfig`]). With `clean`, the fault-free run's UBF verdicts on
/// the same tables, nodes that end the exchange holding every
/// neighbour's table take their verdict from it
/// ([`HardenedUbf::decide_all_reusing`]). Each phase chains into the
/// next, so degradation compounds exactly as it would in a deployment.
/// Unlike the runners, a phase that hits its budget is not an error: the
/// epoch is graded from its partial output.
fn run_stack(
    dynamic: &DynamicTopology,
    config: &ChaosConfig,
    tables: &[UbfProtocol],
    clean: Option<&[bool]>,
    plan: &FaultPlan,
    trace: &mut Trace,
) -> StackRun {
    let topo = dynamic.topology();
    let n = topo.len();
    let backoff = config.backoff;
    let det = &config.detector;

    // Phase 1: hardened UBF table exchange over the churned topology.
    let budget = HardenedUbf::round_budget(backoff, plan);
    let (ubf, ubf_stats) = exchange(topo, "hardened-ubf", budget, plan, trace, |id| {
        HardenedUbf::new(tables[id].clone(), backoff)
    });
    let (range, cfg, source) = (dynamic.radio_range(), &det.ubf, &det.coordinates);
    let candidates = match clean {
        Some(clean) => HardenedUbf::decide_all_reusing(&ubf, clean, range, cfg, source),
        None => HardenedUbf::decide_all(&ubf, range, cfg, source),
    };

    // Phase 2: hardened IFF flood over the *distributed* candidate set.
    let (ttl, repeats) = (det.iff.ttl, config.flood_repeats);
    let budget = FragmentFlood::round_budget(ttl, repeats, plan);
    let (flood, flood_stats) = exchange(topo, "hardened-iff", budget, plan, trace, |id| {
        FragmentFlood::new(candidates[id], ttl, repeats)
    });
    let boundary: Vec<bool> =
        (0..n).map(|i| candidates[i] && flood[i].fragment_size() >= det.iff.theta).collect();

    // Phase 3: hardened grouping over the distributed boundary.
    let budget = HardenedGrouping::round_budget(n, backoff, plan);
    let (group, group_stats) = exchange(topo, "hardened-grouping", budget, plan, trace, |id| {
        HardenedGrouping::new(id, boundary[id], backoff)
    });

    StackRun {
        candidates,
        boundary,
        labels: group.iter().map(HardenedGrouping::label).collect(),
        rounds: ubf_stats.rounds + flood_stats.rounds + group_stats.rounds,
        repairs: ubf.iter().map(Protocol::resends).sum::<u64>()
            + group.iter().map(Protocol::resends).sum::<u64>(),
        exhausted: ubf.iter().filter(|node| node.exhausted()).count() as u64
            + group.iter().map(HardenedGrouping::exhausted).sum::<u64>(),
        quiescent: ubf_stats.quiescent && flood_stats.quiescent && group_stats.quiescent,
    }
}

/// `true` if the live population minus the epoch's permanent crash
/// victims is disconnected — protocol traffic could not have reached
/// everyone no matter how generous the retry budgets.
fn is_partitioned(dynamic: &DynamicTopology, perm_down: &[bool]) -> bool {
    let topo = dynamic.topology();
    let reachable: Vec<NodeId> =
        dynamic.live_nodes().into_iter().filter(|&v| !perm_down[v]).collect();
    let Some(&start) = reachable.first() else {
        return false;
    };
    let mut seen = vec![false; topo.len()];
    seen[start] = true;
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        for &v in topo.neighbors(u) {
            let v = v as NodeId;
            if !seen[v] && dynamic.is_live(v) && !perm_down[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    reachable.iter().any(|&v| !seen[v])
}

/// One epoch's watchdog-judged detection verdict, as produced by
/// [`run_epoch`]: the graded outcome plus the cost counters that price
/// it. [`EpochOutcome`] wraps this with the schedule-level context
/// (epoch index, applied events, population counts) that only the full
/// [`run_chaos`] loop knows.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochVerdict {
    /// The watchdog-judged detection outcome.
    pub outcome: DetectionOutcome,
    /// Jaccard index of the live distributed vs. oracle boundary sets.
    pub jaccard: f64,
    /// Rounds the faulty protocol stack ran (all three phases).
    pub rounds: usize,
    /// Rounds the same stack runs fault-free on this topology.
    pub clean_rounds: usize,
    /// Retry budget spent: UBF retransmissions + grouping repair probes.
    pub repairs: u64,
    /// Budget-exhaustion incidents (UBF nodes + grouping edges).
    pub exhausted: u64,
}

impl EpochVerdict {
    /// Detection lag: extra rounds the faults cost over the fault-free
    /// baseline on the identical topology.
    pub fn lag(&self) -> usize {
        self.rounds.saturating_sub(self.clean_rounds)
    }
}

/// Runs one chaos epoch's detection on a fixed topology: the fault-free
/// baseline that prices the lag, the hardened stack under `plan`, and
/// the convergence watchdog judging the distributed result against
/// `oracle` (which must be exact for the current state of `dynamic`).
/// The baseline runs first, and the faulted stack reuses its UBF verdict
/// for every node that received all its neighbours' tables: a verdict
/// is a pure function of the node's own table and the neighbour tables
/// it holds, so such a node's verdict is the baseline's.
/// Records the verdict as a [`TraceEvent::Verdict`] inside a
/// `"watchdog"` span, exactly as the [`run_chaos`] epoch loop does —
/// this *is* that loop's detection step, factored out so a long-lived
/// service can judge epochs one `inject` request at a time.
pub fn run_epoch(
    dynamic: &DynamicTopology,
    config: &ChaosConfig,
    plan: &FaultPlan,
    oracle: &IncrementalDetector,
    trace: &mut Trace,
) -> EpochVerdict {
    let live = dynamic.live_nodes();
    let view = NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range());
    let tables = UbfProtocol::for_view(&view, &config.detector.coordinates);
    let clean =
        run_stack(dynamic, config, &tables, None, &FaultPlan::none(), &mut Trace::disabled());
    let run = run_stack(dynamic, config, &tables, Some(&clean.candidates), plan, trace);

    let mut perm_down = vec![false; dynamic.len()];
    for c in &plan.crashes {
        if c.up_at.is_none() {
            perm_down[c.node] = true;
        }
    }
    let perm_crashed = perm_down.iter().filter(|d| **d).count();
    let oracle_boundary = oracle.boundary();
    let mut oracle_label: Vec<Option<NodeId>> = vec![None; dynamic.len()];
    for group in oracle.groups() {
        for &m in group {
            oracle_label[m] = Some(group[0]);
        }
    }
    let mut unreached = Vec::new();
    let (mut inter, mut union) = (0usize, 0usize);
    for &v in &live {
        let ours = run.boundary[v];
        let theirs = oracle_boundary[v];
        inter += usize::from(ours && theirs);
        union += usize::from(ours || theirs);
        if ours != theirs || (theirs && run.labels[v] != oracle_label[v]) {
            unreached.push(v);
        }
    }
    let coverage =
        if live.is_empty() { 1.0 } else { 1.0 - unreached.len() as f64 / live.len() as f64 };
    let jaccard = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
    let boundary: Vec<NodeId> = live.iter().copied().filter(|&v| run.boundary[v]).collect();
    let exact = unreached.is_empty() && run.quiescent;
    let outcome = if exact {
        DetectionOutcome::Exact { boundary }
    } else {
        let cause = if is_partitioned(dynamic, &perm_down) {
            DegradeCause::Partition
        } else if !live.is_empty() && 4 * perm_crashed >= live.len() {
            DegradeCause::CrashQuorum
        } else if run.exhausted > 0 {
            DegradeCause::RetryExhausted
        } else if !run.quiescent {
            DegradeCause::Truncated
        } else {
            // Residual disagreement with budgets intact: evidence was
            // lost in flight — charge it to the repair layer.
            DegradeCause::RetryExhausted
        };
        DetectionOutcome::Degraded { boundary, coverage, unreached, cause }
    };
    trace.open("watchdog");
    trace.event(TraceEvent::Verdict {
        exact,
        cause: outcome.cause().map_or("none", DegradeCause::as_str),
        unreached: match &outcome {
            DetectionOutcome::Exact { .. } => 0,
            DetectionOutcome::Degraded { unreached, .. } => unreached.len() as u64,
        },
        coverage_ppm: (outcome.coverage() * 1_000_000.0).round() as u64,
    });
    trace.close();

    EpochVerdict {
        outcome,
        jaccard,
        rounds: run.rounds,
        clean_rounds: clean.rounds,
        repairs: run.repairs,
        exhausted: run.exhausted,
    }
}

/// Runs the full chaos schedule: per epoch, the churn events are
/// applied (oracle kept exact event by event), then the hardened
/// detection stack runs under that epoch's derived fault plan and the
/// watchdog judges the result against the oracle. See the module docs.
///
/// # Errors
///
/// [`GenError`] if a churn join cannot sample a position inside the
/// deployment shape (rejection-sampler exhaustion).
pub fn run_chaos(
    model: &NetworkModel,
    config: &ChaosConfig,
    position_seed: u64,
    parallelism: Parallelism,
) -> Result<ChaosReport, GenError> {
    run_chaos_traced(model, config, position_seed, parallelism, &mut Trace::disabled())
}

/// [`run_chaos`] with structured tracing: the run opens a `"chaos"`
/// span holding one `"chaos-epoch"` span per epoch, which in turn holds
/// the oracle's `"churn-event"` spans, the hardened protocol spans, and
/// the `"watchdog"` span carrying the epoch's
/// [`TraceEvent::Verdict`]. With [`Trace::disabled`] this *is*
/// [`run_chaos`].
///
/// # Errors
///
/// [`GenError`] as for [`run_chaos`].
pub fn run_chaos_traced(
    model: &NetworkModel,
    config: &ChaosConfig,
    position_seed: u64,
    parallelism: Parallelism,
    trace: &mut Trace,
) -> Result<ChaosReport, GenError> {
    config.churn.validate();
    let schedule = config.churn.schedule(model.len());
    let mut driver = ChurnDriver::new(model, position_seed);
    let mut oracle =
        IncrementalDetector::new_with_parallelism(config.detector, driver.dynamic(), parallelism);

    let mut events = Vec::new();
    let mut diffs = Vec::new();
    let mut epochs = Vec::new();
    let mut cursor = 0usize;
    trace.open("chaos");
    for epoch in 0..config.churn.epochs {
        trace.open("chaos-epoch");

        // 1. Churn: apply this epoch's events, oracle tracking each one.
        let mut applied = 0usize;
        while cursor < schedule.len() && schedule[cursor].epoch == epoch {
            let (event, delta) = driver.step(&schedule[cursor])?;
            let diff = oracle.apply_traced(driver.dynamic(), &delta, trace);
            events.push(event);
            diffs.push(diff);
            applied += 1;
            cursor += 1;
        }

        // 2–3. Faults + watchdog: derive the epoch's radio, run the
        // fault-free baseline and the stack under that radio, and judge
        // the result against the oracle.
        let dynamic = driver.dynamic();
        let live = dynamic.live_nodes();
        let plan = epoch_plan(config, epoch, &live);
        plan.validate();
        let verdict = run_epoch(dynamic, config, &plan, &oracle, trace);

        epochs.push(EpochOutcome {
            epoch,
            events: applied,
            live: live.len(),
            crashed: plan.crashes.len(),
            outcome: verdict.outcome,
            jaccard: verdict.jaccard,
            rounds: verdict.rounds,
            clean_rounds: verdict.clean_rounds,
            repairs: verdict.repairs,
            exhausted: verdict.exhausted,
        });
        trace.close();
    }
    trace.close();
    Ok(ChaosReport { epochs, events, diffs, detection: oracle.detection() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::scenario::Scenario;

    fn model() -> NetworkModel {
        NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(120)
            .interior_nodes(180)
            .target_degree(12.0)
            .require_connected(false)
            .seed(11)
            .build()
            .unwrap()
    }

    /// The cause strings are a stable surface: traces and serve responses
    /// carry them verbatim.
    #[test]
    fn degrade_cause_strings_are_stable() {
        assert_eq!(DegradeCause::Partition.as_str(), "partition");
        assert_eq!(DegradeCause::CrashQuorum.as_str(), "crash-quorum");
        assert_eq!(DegradeCause::RetryExhausted.as_str(), "retry-exhausted");
        assert_eq!(DegradeCause::Truncated.as_str(), "truncated");
    }

    #[test]
    fn perfect_radio_static_epochs_are_exact_with_zero_lag() {
        let model = model();
        let churn = ChurnPlan::none().with_epochs(2);
        let config = ChaosConfig::new(DetectorConfig::paper(0, 0), churn);
        let report =
            run_chaos(&model, &config, 1, Parallelism::sequential()).expect("no joins to sample");
        assert_eq!(report.epochs.len(), 2);
        assert!(report.events.is_empty());
        for e in &report.epochs {
            assert!(e.outcome.is_exact(), "epoch {}: {:?}", e.epoch, e.outcome.cause());
            assert_eq!(e.jaccard, 1.0);
            assert_eq!(e.repairs, 0, "fault-free epochs must spend no retry budget");
            assert_eq!(e.lag(), 0, "fault-free epochs must match the clean baseline");
        }
        assert_eq!(report.exact_epochs(), 2);
        assert_eq!(report.min_coverage(), 1.0);
        assert!(!report.detection.groups.is_empty());
    }

    #[test]
    fn heavy_chaos_degrades_gracefully_and_replays_identically() {
        let model = model();
        let churn = ChurnPlan::none()
            .with_seed(9)
            .with_epochs(2)
            .with_join_rate(0.02)
            .with_leave_rate(0.02)
            .with_move_rate(0.05)
            .with_max_drift(model.radio_range());
        let config = ChaosConfig::new(DetectorConfig::paper(0, 0), churn)
            .with_loss(0.3)
            .with_duplication(0.05)
            .with_max_delay(1)
            .with_crash_fraction(0.2)
            .with_crash_window(1, None)
            .with_fault_seed(7);
        let a = run_chaos(&model, &config, 3, Parallelism::sequential()).unwrap();
        let b = run_chaos(&model, &config, 3, Parallelism::default()).unwrap();
        assert_eq!(a, b, "same seeds must replay bit-identically at any thread count");
        assert!(!a.events.is_empty(), "churn must have produced events");
        assert_eq!(a.events.len(), a.diffs.len());
        // Permanent crashes freeze a fifth of the network mid-exchange:
        // the watchdog must degrade (never panic or hang) with a cause.
        let degraded: Vec<_> = a.epochs.iter().filter(|e| !e.outcome.is_exact()).collect();
        assert!(!degraded.is_empty(), "20% permanent crashes cannot stay exact");
        for e in &degraded {
            assert!(e.outcome.cause().is_some());
            assert!(e.outcome.coverage() < 1.0);
            assert!(e.outcome.coverage() >= 0.0);
        }
        assert!(a.min_coverage() < 1.0);
    }

    /// Under 30% loss with epoch-permanent crashes some nodes never hear
    /// a neighbour: they take the recompute path, every other node the
    /// fault-free verdict, and together they equal a full recompute.
    #[test]
    fn reused_verdicts_equal_a_full_recompute() {
        let model = model();
        let config = ChaosConfig::new(DetectorConfig::paper(0, 0), ChurnPlan::none())
            .with_loss(0.3)
            .with_crash_fraction(0.2)
            .with_crash_window(1, None)
            .with_fault_seed(5);
        let driver = ChurnDriver::new(&model, 1);
        let dynamic = driver.dynamic();
        let topo = dynamic.topology();
        let det = &config.detector;
        let (range, cfg, source) = (dynamic.radio_range(), &det.ubf, &det.coordinates);
        let view = NetView::new(topo, dynamic.positions(), range);
        let tables = UbfProtocol::for_view(&view, source);
        let ubf_run = |plan: &FaultPlan| {
            let budget = HardenedUbf::round_budget(config.backoff, plan);
            exchange(topo, "hardened-ubf", budget, plan, &mut Trace::disabled(), |id| {
                HardenedUbf::new(tables[id].clone(), config.backoff)
            })
            .0
        };
        let clean = HardenedUbf::decide_all(&ubf_run(&FaultPlan::none()), range, cfg, source);
        let mut recomputed = 0;
        for epoch in 0..3 {
            let plan = epoch_plan(&config, epoch, &dynamic.live_nodes());
            let nodes = ubf_run(&plan);
            let reused = HardenedUbf::decide_all_reusing(&nodes, &clean, range, cfg, source);
            let full = HardenedUbf::decide_all(&nodes, range, cfg, source);
            for (i, (r, f)) in reused.iter().zip(&full).enumerate() {
                assert_eq!(r, f, "epoch {epoch}, node {i}");
            }
            recomputed += nodes.iter().filter(|node| !node.has_all_tables()).count();
        }
        assert!(recomputed > 0, "no node was left with a partial table set");
    }
}
