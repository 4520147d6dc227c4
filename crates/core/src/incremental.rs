//! Incremental boundary maintenance under churn.
//!
//! Re-running [`crate::detector::BoundaryDetector::detect`] after every
//! topology event costs `O(n)` neighborhood frames even though a single
//! join/leave/drift only perturbs a small region. [`IncrementalDetector`]
//! maintains the exact detection state by recomputing only the *dirty
//! halo* of each event and returns a [`BoundaryDiff`] describing what
//! changed.
//!
//! # Dirty-halo radius argument
//!
//! Let `w` be [`crate::config::UbfConfig::witness_hops`] (1 in the paper's
//! Algorithm 1) and `T` be [`crate::config::IffConfig::ttl`]. Every edge an
//! event changes is incident to the event node (see
//! [`TopologyDelta`]), so the *seeds* — event node plus gained/lost
//! neighbors — cover every changed-edge endpoint.
//!
//! * **UBF scope.** A node's candidacy depends only on its closed `w`-hop
//!   neighborhood (members and their positions). If that neighborhood
//!   changed, some changed edge lay within `w` hops of the node in the old
//!   or the new topology. Old-topology paths reduce to new-topology paths:
//!   truncate at the first changed edge — the prefix uses only unchanged
//!   edges and ends at a seed. Hence every candidacy change lies inside
//!   the closed `w`-hop ball of the seeds *in the new topology*, which is
//!   what [`IncrementalDetector::apply`] re-examines.
//! * **Frame scope.** Within that ball only a few frames can change. A
//!   node `v`'s UBF input is its closed `w`-ball, its members' positions,
//!   the measured pairs among them and their oracle draws (keyed by
//!   `(seed, lo, hi, d_true)`). Every changed edge is incident to the
//!   event node `e` and only `e`'s position changes, so if `e` lies in
//!   `v`'s ball neither before nor after the event, none of these inputs
//!   change and `v`'s frame and verdict are bit-identical. The old
//!   `w`-ball of `e` lies inside the new `w`-ball of `e` plus the new
//!   `(w − 1)`-ball of the removed neighbors (a shortest old path from
//!   `e` can cross a removed edge only as its first hop). `apply`
//!   therefore re-embeds only
//!   `closed_ball(e, w) ∪ closed_ball(removed, w − 1)` — `N[e] ∪ removed`
//!   at `w = 1` — and every other node of the seed ball keeps its stored
//!   candidate flag, degenerate flag and ball count.
//! * **IFF scope.** A fragment count at node `v` reads candidate flags
//!   and edges within `T` hops of `v` *on the candidate subgraph*, whose
//!   hop distances dominate full-graph ones. Its inputs therefore changed
//!   only if a *candidacy flip* lies within `T` full-graph hops of `v`,
//!   or a changed edge was usable by its flood. *Added* edges are only
//!   usable by new-topology floods, which must visit the event node to
//!   cross them (every changed edge is incident to it) — covered by the
//!   `T`-ball of the event node. *Removed* edges were usable by
//!   old-topology floods; truncating such a flood path at the removed
//!   edge leaves a new-topology path ending at the event node or a
//!   removed neighbor — covered by their `T`-balls. The implementation
//!   therefore recomputes exactly the closed `T`-ball of {candidacy
//!   flips} ∪ {event node} ∪ {removed neighbors} — a subset of the
//!   worst-case closed `(w + 1 + T)`-hop neighborhood of the seeds (the
//!   "(2+T)-hop" bound at `w = 1`), and usually far smaller, since most
//!   events flip no candidacies at all.
//! * **Grouping scope.** Boundary groups are connected components of the
//!   boundary subgraph; only components containing a flipped node or a
//!   changed-edge endpoint can split, merge, grow, or shrink. Those are
//!   re-flooded from scratch (a scoped flood seeded at their surviving
//!   members plus promotions); untouched components are kept verbatim.
//!
//! Exactness — state identical to a from-scratch
//! [`crate::detector::BoundaryDetector::detect_view`] after *every* event —
//! is the module invariant, regression-pinned by `tests/churn.rs`;
//! the speedup is the payoff, measured by the `churn_sweep` benchmark
//! (E16).

use std::collections::{BTreeSet, VecDeque};

use ballfit_obs::{Trace, TraceEvent};
use ballfit_par::Parallelism;
use ballfit_wsn::churn::{DynamicTopology, TopologyDelta};
use ballfit_wsn::{NodeId, Topology};

use crate::config::DetectorConfig;
use crate::detector::BoundaryDetection;
use crate::grouping::BoundaryGroup;
use crate::localizer::map_frames;
use crate::ubf::ubf_test;
use crate::view::NetView;

/// What one applied event changed, all lists sorted by node ID.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BoundaryDiff {
    /// Nodes that became boundary.
    pub promoted: Vec<NodeId>,
    /// Nodes that stopped being boundary.
    pub demoted: Vec<NodeId>,
    /// Nodes still on the boundary whose group membership changed
    /// (split, merge, or a gained/lost co-member).
    pub regrouped: Vec<NodeId>,
    /// The dirty halo: every node whose detection state was re-examined —
    /// the closed `w`-ball of the event's seeds (UBF) united with the
    /// closed `T`-ball of the candidacy flips and the event node (IFF).
    pub halo: Vec<NodeId>,
    /// The Theorem 1 cost of the seed ball: the unit balls its nodes'
    /// UBF tests examine, with nodes outside the frame scope (module docs)
    /// contributing their stored count — the event's UBF cost, as opposed
    /// to the cumulative per-slot totals
    /// [`crate::detector::BoundaryDetection`] reports.
    pub balls: u64,
}

impl BoundaryDiff {
    /// `true` if the event changed no node's boundary status or grouping.
    pub fn is_quiet(&self) -> bool {
        self.promoted.is_empty() && self.demoted.is_empty() && self.regrouped.is_empty()
    }
}

/// Boundary detection state maintained incrementally across
/// [`DynamicTopology`] events.
///
/// Construct with [`IncrementalDetector::new`] (one full detection pass),
/// then feed each event's [`TopologyDelta`] to
/// [`IncrementalDetector::apply`]. At any point
/// [`IncrementalDetector::detection`] yields a snapshot equal to what
/// [`crate::detector::BoundaryDetector::detect_view`] would produce from
/// scratch on the current topology.
#[derive(Debug, Clone)]
pub struct IncrementalDetector {
    config: DetectorConfig,
    parallelism: Parallelism,
    candidates: Vec<bool>,
    degenerate: Vec<bool>,
    balls: Vec<u64>,
    /// IFF fragment size per node (0 for non-candidates), as
    /// [`ballfit_wsn::flood::fragment_sizes`] defines it.
    fragments: Vec<usize>,
    boundary: Vec<bool>,
    groups: Vec<BoundaryGroup>,
    /// `label[n]` = index into `groups` of the group containing `n`.
    label: Vec<Option<usize>>,
}

/// A serializable point-in-time image of an [`IncrementalDetector`],
/// taken with [`IncrementalDetector::checkpoint`] and revived with
/// [`IncrementalDetector::restore`]. The node → group label map is not
/// stored — it is a pure function of `groups` and is rebuilt on restore —
/// and the worker-thread count is an execution parameter, re-supplied at
/// restore time. Restoring and replaying the remaining topology events is
/// byte-identical to the uninterrupted run (the crash-recovery pin in
/// `tests/robustness.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorCheckpoint {
    /// The configuration in force.
    pub config: DetectorConfig,
    /// Per-slot UBF candidate flags.
    pub candidates: Vec<bool>,
    /// Per-slot degenerate-neighborhood flags.
    pub degenerate: Vec<bool>,
    /// Per-slot candidate-ball counts (Theorem 1 accounting).
    pub balls: Vec<u64>,
    /// Per-slot IFF fragment sizes (0 for non-candidates).
    pub fragments: Vec<usize>,
    /// Per-slot boundary flags.
    pub boundary: Vec<bool>,
    /// Boundary groups in canonical order (size desc, min-ID asc).
    pub groups: Vec<BoundaryGroup>,
}

impl DetectorCheckpoint {
    /// Checks the checkpoint against the topology it was taken on (dead
    /// slots isolated, as the detector sees them): every per-slot vector
    /// has one entry per slot, every group member is a slot, and the
    /// state the candidate flags and the topology determine agrees with
    /// them — fragment sizes, boundary flags, groups, and each degenerate
    /// slot's zero ball count and policy candidate flag. The candidate
    /// flags themselves are trusted: checking them would embed every
    /// frame again. Costs one TTL-scoped flood per candidate.
    ///
    /// # Errors
    ///
    /// Describes the first field that disagrees.
    pub fn check(&self, topology: &Topology) -> Result<(), String> {
        let n = topology.len();
        for (what, len) in [
            ("candidates", self.candidates.len()),
            ("degenerate", self.degenerate.len()),
            ("balls", self.balls.len()),
            ("fragments", self.fragments.len()),
            ("boundary", self.boundary.len()),
        ] {
            if len != n {
                return Err(format!("detector {what} length {len} != snapshot length {n}"));
            }
        }
        if let Some(m) = self.groups.iter().flatten().find(|&&m| m >= n) {
            return Err(format!("group member {m} out of range for {n} slots"));
        }
        let (iff, candidates) = (&self.config.iff, &self.candidates);
        let fragments = ballfit_wsn::flood::fragment_sizes(topology, iff.ttl, |i| candidates[i]);
        let boundary: Vec<bool> =
            (0..n).map(|i| candidates[i] && fragments[i] >= iff.theta).collect();
        let first = |a: &[usize], b: &[usize]| (0..n).find(|&i| a[i] != b[i]);
        if let Some(i) = first(&fragments, &self.fragments) {
            return Err(format!(
                "detector fragments disagree with the candidate flags at slot {i}"
            ));
        }
        if let Some(i) = (0..n).find(|&i| boundary[i] != self.boundary[i]) {
            return Err(format!("detector boundary disagrees with the fragment sizes at slot {i}"));
        }
        if crate::grouping::group_boundaries(topology, &boundary) != self.groups {
            return Err("detector groups disagree with the boundary flags".to_string());
        }
        let degenerate_is_boundary = self.config.ubf.degenerate_is_boundary;
        if let Some(i) = (0..n).find(|&i| {
            self.degenerate[i] && (self.balls[i] != 0 || candidates[i] != degenerate_is_boundary)
        }) {
            return Err(format!(
                "detector degenerate slot {i} disagrees with its balls or the degenerate policy"
            ));
        }
        Ok(())
    }
}

/// The detector's read view of a dynamic topology: dead slots appear as
/// isolated nodes and take the degenerate-neighborhood path, exactly as
/// they would in a from-scratch run over the same slot space.
fn view_of(dynamic: &DynamicTopology) -> NetView<'_> {
    NetView::new(dynamic.topology(), dynamic.positions(), dynamic.radio_range())
}

/// Sorted closed ball: every node within `radius` hops of a seed.
fn closed_ball(topo: &Topology, seeds: &[NodeId], radius: u32) -> Vec<NodeId> {
    let mut dist: Vec<Option<u32>> = vec![None; topo.len()];
    let mut queue = VecDeque::new();
    for &s in seeds {
        if dist[s].is_none() {
            dist[s] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u].expect("queued nodes have distances");
        if d == radius {
            continue;
        }
        for &v in topo.neighbors(u) {
            let v = v as NodeId;
            if dist[v].is_none() {
                dist[v] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    (0..topo.len()).filter(|&i| dist[i].is_some()).collect()
}

/// Sorted frame scope of an event on the new topology `topo`: the nodes
/// whose closed `w`-ball holds the event node before or after the event,
/// i.e. `closed_ball(e, w) ∪ closed_ball(removed, w − 1)` (module docs,
/// "Frame scope"). Only these nodes' frames and UBF verdicts can change.
fn frame_scope(topo: &Topology, delta: &TopologyDelta, w: u32) -> Vec<NodeId> {
    let mut scope = closed_ball(topo, &[delta.node], w);
    if let Some(inner) = w.checked_sub(1) {
        scope.extend(closed_ball(topo, &delta.removed, inner));
        scope.sort_unstable();
        scope.dedup();
    }
    scope
}

impl IncrementalDetector {
    /// Bootstraps the state with one full detection pass over the dynamic
    /// topology's current state. The bootstrap's UBF sweep (and any other
    /// whole-network recompute) shards over [`Parallelism::default`]
    /// workers; per-event halo repairs stay sequential — they are small.
    pub fn new(config: DetectorConfig, dynamic: &DynamicTopology) -> Self {
        Self::new_with_parallelism(config, dynamic, Parallelism::default())
    }

    /// [`IncrementalDetector::new`] with an explicit worker-thread count
    /// for whole-network UBF sweeps. State is byte-identical at every
    /// thread count.
    pub fn new_with_parallelism(
        config: DetectorConfig,
        dynamic: &DynamicTopology,
        parallelism: Parallelism,
    ) -> Self {
        let mut det = IncrementalDetector {
            config,
            parallelism,
            candidates: Vec::new(),
            degenerate: Vec::new(),
            balls: Vec::new(),
            fragments: Vec::new(),
            boundary: Vec::new(),
            groups: Vec::new(),
            label: Vec::new(),
        };
        let view = view_of(dynamic);
        det.grow_to(view.len());
        let all: Vec<NodeId> = (0..view.len()).collect();
        det.recompute_ubf(&view, &all);
        det.recompute_iff(&view, &all);
        det.groups = crate::grouping::group_boundaries(view.topology(), &det.boundary);
        det.relabel();
        det
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Current boundary flags.
    pub fn boundary(&self) -> &[bool] {
        &self.boundary
    }

    /// Current UBF candidate flags.
    pub fn candidates(&self) -> &[bool] {
        &self.candidates
    }

    /// Current IFF fragment sizes (0 for non-candidates).
    pub fn fragments(&self) -> &[usize] {
        &self.fragments
    }

    /// Current boundary groups, largest first.
    pub fn groups(&self) -> &[BoundaryGroup] {
        &self.groups
    }

    /// A snapshot equal to a from-scratch
    /// [`crate::detector::BoundaryDetector::detect_view`] on the current
    /// topology.
    pub fn detection(&self) -> BoundaryDetection {
        BoundaryDetection {
            candidates: self.candidates.clone(),
            boundary: self.boundary.clone(),
            groups: self.groups.clone(),
            balls_tested: self.balls.iter().sum(),
            degenerate_nodes: (0..self.degenerate.len()).filter(|&i| self.degenerate[i]).collect(),
        }
    }

    /// Captures the full detection state as a serializable checkpoint.
    /// The label map is derivable from `groups` and is therefore omitted.
    pub fn checkpoint(&self) -> DetectorCheckpoint {
        DetectorCheckpoint {
            config: self.config,
            candidates: self.candidates.clone(),
            degenerate: self.degenerate.clone(),
            balls: self.balls.clone(),
            fragments: self.fragments.clone(),
            boundary: self.boundary.clone(),
            groups: self.groups.clone(),
        }
    }

    /// Revives a detector from a checkpoint without any recomputation:
    /// the per-slot state is adopted verbatim and the label map is
    /// rebuilt from the stored groups. `parallelism` only affects future
    /// whole-network sweeps; per-event repairs are sequential either way,
    /// so restored state evolves byte-identically at every thread count.
    pub fn restore(checkpoint: &DetectorCheckpoint, parallelism: Parallelism) -> Self {
        let mut det = IncrementalDetector {
            config: checkpoint.config,
            parallelism,
            candidates: checkpoint.candidates.clone(),
            degenerate: checkpoint.degenerate.clone(),
            balls: checkpoint.balls.clone(),
            fragments: checkpoint.fragments.clone(),
            boundary: checkpoint.boundary.clone(),
            groups: checkpoint.groups.clone(),
            label: vec![None; checkpoint.boundary.len()],
        };
        det.relabel();
        det
    }

    /// Repairs the detection state after `dynamic` applied the event that
    /// produced `delta`, recomputing only the dirty halo. Returns what
    /// changed.
    ///
    /// Call with the delta of *every* event, in order; skipping one leaves
    /// the state stale (the exactness invariant is per-event).
    pub fn apply(&mut self, dynamic: &DynamicTopology, delta: &TopologyDelta) -> BoundaryDiff {
        self.apply_traced(dynamic, delta, &mut Trace::disabled())
    }

    /// [`IncrementalDetector::apply`] with structured tracing: wraps the
    /// repair in a `"churn-event"` span carrying one
    /// [`TraceEvent::Halo`] record (dirty-halo size and the boundary
    /// diff). With [`Trace::disabled`] this *is* `apply`.
    pub fn apply_traced(
        &mut self,
        dynamic: &DynamicTopology,
        delta: &TopologyDelta,
        trace: &mut Trace,
    ) -> BoundaryDiff {
        trace.open("churn-event");
        let diff = self.apply_inner(dynamic, delta);
        trace.event(TraceEvent::Halo {
            size: diff.halo.len(),
            promoted: diff.promoted.len(),
            demoted: diff.demoted.len(),
            regrouped: diff.regrouped.len(),
        });
        trace.close();
        diff
    }

    fn apply_inner(&mut self, dynamic: &DynamicTopology, delta: &TopologyDelta) -> BoundaryDiff {
        let view = view_of(dynamic);
        let scope = frame_scope(view.topology(), delta, self.config.ubf.witness_hops);
        self.repair(&view, delta, &scope)
    }

    /// Repairs the state after one event, re-embedding exactly `reembed`
    /// (sorted) and reusing the stored UBF verdicts of every other node of
    /// the seed ball.
    fn repair(
        &mut self,
        view: &NetView<'_>,
        delta: &TopologyDelta,
        reembed: &[NodeId],
    ) -> BoundaryDiff {
        self.grow_to(view.len());
        let seeds = delta.touched();
        let w = self.config.ubf.witness_hops;
        let ttl = self.config.iff.ttl;

        // Phase 1 (UBF) on the w-ball of the seeds — of which only the
        // frame scope `reembed` can change — then phase 2 (IFF) on the
        // T-ball of the actual candidacy flips, the event node, and its
        // removed neighbors; see the module docs for why these radii are
        // sufficient (added neighbors are reachable through the event node
        // and need no seeding of their own).
        let ubf_set = closed_ball(view.topology(), &seeds, w);
        let mut flips = self.recompute_ubf(view, reembed);
        let balls = ubf_set.iter().map(|&n| self.balls[n]).sum();
        flips.push(delta.node);
        flips.extend_from_slice(&delta.removed);
        flips.sort_unstable();
        flips.dedup();
        let iff_set = closed_ball(view.topology(), &flips, ttl);
        let old_boundary: Vec<(NodeId, bool)> =
            iff_set.iter().map(|&n| (n, self.boundary[n])).collect();
        self.recompute_iff(view, &iff_set);
        let mut halo: Vec<NodeId> = ubf_set.iter().chain(&iff_set).copied().collect();
        halo.sort_unstable();
        halo.dedup();

        let mut promoted = Vec::new();
        let mut demoted = Vec::new();
        for (n, was) in old_boundary {
            match (was, self.boundary[n]) {
                (false, true) => promoted.push(n),
                (true, false) => demoted.push(n),
                _ => {}
            }
        }

        let regrouped = self.repair_groups(view.topology(), &seeds, &promoted, &demoted);
        BoundaryDiff { promoted, demoted, regrouped, halo, balls }
    }

    /// Extends all per-node state to `n` slots (new slots join as
    /// non-candidates; their real state is computed by the event that
    /// created them).
    fn grow_to(&mut self, n: usize) {
        self.candidates.resize(n, false);
        self.degenerate.resize(n, false);
        self.balls.resize(n, 0);
        self.fragments.resize(n, 0);
        self.boundary.resize(n, false);
        self.label.resize(n, None);
    }

    /// Recomputes UBF candidacy for exactly `nodes` — the same frame
    /// sweep as the from-scratch detector. Returns the nodes whose
    /// candidate flag actually flipped (ascending, since `nodes` is).
    fn recompute_ubf(&mut self, view: &NetView<'_>, nodes: &[NodeId]) -> Vec<NodeId> {
        // Per-node UBF tests are independent, so big batches — the
        // bootstrap and the from-scratch exactness baselines — shard over
        // workers; per-event halos stay on the caller (they are a handful
        // of nodes, not worth a thread spawn). Either way equal-size
        // local-MDS frames share lane groups, outcomes come back in
        // `nodes` order and the fold below applies them in that order, so
        // the resulting state is byte-identical.
        const PAR_FLOOR: usize = 64;
        let config = &self.config;
        let par =
            if nodes.len() >= PAR_FLOOR { self.parallelism } else { Parallelism::sequential() };
        let outcomes =
            map_frames(par, view, nodes, &config.coordinates, config.ubf.witness_hops, |frame| {
                ubf_test(&frame.coords, frame.self_index, view.radio_range(), &config.ubf)
            });

        let mut flips = Vec::new();
        for (&node, outcome) in nodes.iter().zip(outcomes) {
            let was = self.candidates[node];
            match outcome {
                Some(out) => {
                    self.candidates[node] = out.is_boundary;
                    self.degenerate[node] = false;
                    self.balls[node] = out.balls_tested as u64;
                }
                None => {
                    self.candidates[node] = self.config.ubf.degenerate_is_boundary;
                    self.degenerate[node] = true;
                    self.balls[node] = 0;
                }
            }
            if self.candidates[node] != was {
                flips.push(node);
            }
        }
        flips
    }

    /// Recomputes IFF fragment sizes and boundary flags for exactly
    /// `nodes`, against the *current* (already repaired) candidate flags —
    /// the per-node equivalent of [`crate::iff::apply_iff`].
    fn recompute_iff(&mut self, view: &NetView<'_>, nodes: &[NodeId]) {
        let topo = view.topology();
        for &node in nodes {
            if self.candidates[node] {
                let reached =
                    ballfit_wsn::bfs::nodes_within(topo, node, self.config.iff.ttl, |n| {
                        self.candidates[n]
                    });
                self.fragments[node] = reached.len() + 1;
            } else {
                self.fragments[node] = 0;
            }
            self.boundary[node] =
                self.candidates[node] && self.fragments[node] >= self.config.iff.theta;
        }
    }

    /// Repairs the group list after boundary flips: discards every group
    /// touched by a flip or a changed edge, re-floods replacement
    /// components, keeps the rest verbatim, and restores the canonical
    /// (size desc, min-ID asc) order. Returns the sorted list of
    /// still-boundary nodes whose group membership changed.
    fn repair_groups(
        &mut self,
        topo: &Topology,
        seeds: &[NodeId],
        promoted: &[NodeId],
        demoted: &[NodeId],
    ) -> Vec<NodeId> {
        // Old groups that can change: any containing a flipped node or a
        // changed-edge endpoint. (Demoted nodes still carry their old
        // label at this point.)
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for &n in seeds.iter().chain(promoted).chain(demoted) {
            if let Some(g) = self.label[n] {
                affected.insert(g);
            }
        }
        if affected.is_empty() && promoted.is_empty() {
            return Vec::new(); // grouping untouched
        }

        // Scoped flood: rebuild components reachable from the affected
        // groups' surviving members and the promotions. Traversal is
        // unrestricted over the current boundary subgraph, so a merge
        // absorbs even a previously-unaffected component (which is then
        // discarded below in favor of the recomputed one).
        let mut starts: BTreeSet<NodeId> = promoted.iter().copied().collect();
        for &g in &affected {
            starts.extend(self.groups[g].iter().copied().filter(|&m| self.boundary[m]));
        }
        let mut visited = vec![false; topo.len()];
        let mut rebuilt: Vec<BoundaryGroup> = Vec::new();
        for &start in &starts {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut comp = vec![start];
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in topo.neighbors(u) {
                    let v = v as NodeId;
                    if self.boundary[v] && !visited[v] {
                        visited[v] = true;
                        comp.push(v);
                        queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            rebuilt.push(comp);
        }

        // Drop affected groups plus any group a rebuilt component absorbed.
        let mut drop = vec![false; self.groups.len()];
        for &g in &affected {
            drop[g] = true;
        }
        for comp in &rebuilt {
            for &m in comp {
                if let Some(g) = self.label[m] {
                    drop[g] = true;
                }
            }
        }

        // Membership changes: a surviving node is regrouped when its new
        // component is not the same set as its old group.
        let mut regrouped = Vec::new();
        for comp in &rebuilt {
            for &m in comp {
                // Unlabelled members were promoted: reported separately.
                if let Some(g) = self.label[m] {
                    if self.groups[g] != *comp {
                        regrouped.push(m);
                    }
                }
            }
        }
        regrouped.sort_unstable();

        let kept =
            self.groups.iter().enumerate().filter(|&(g, _)| !drop[g]).map(|(_, c)| c.clone());
        let mut groups: Vec<BoundaryGroup> = kept.chain(rebuilt).collect();
        // Same canonical order as `group_boundaries`: min IDs are unique
        // across components, so the comparator is total and the result
        // matches a from-scratch grouping exactly.
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
        self.groups = groups;
        self.relabel();
        regrouped
    }

    /// Rebuilds the node → group-index map from `self.groups`.
    fn relabel(&mut self) {
        self.label.iter_mut().for_each(|l| *l = None);
        for (gi, group) in self.groups.iter().enumerate() {
            for &m in group {
                self.label[m] = Some(gi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::BoundaryDetector;
    use crate::localizer::neighborhood_frame_view;
    use crate::ubf::UbfOutcome;
    use ballfit_geom::Vec3;
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::churn::ChurnDriver;
    use ballfit_netgen::scenario::Scenario;
    use ballfit_rng::{Rng, StdRng};
    use ballfit_wsn::churn::{ChurnPlan, TopologyEvent};

    /// Deterministic jittered grid shell: a hollow box of points, dense
    /// enough that UBF finds a closed boundary.
    fn box_points(side: usize, spacing: f64) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    // Deterministic sub-cell jitter so frames are generic.
                    let j = |a: usize, b: usize, c: usize| {
                        let h = (a * 73_856_093) ^ (b * 19_349_663) ^ (c * 83_492_791);
                        ((h % 1000) as f64 / 1000.0 - 0.5) * 0.2 * spacing
                    };
                    pts.push(Vec3::new(
                        x as f64 * spacing + j(x, y, z),
                        y as f64 * spacing + j(y, z, x),
                        z as f64 * spacing + j(z, x, y),
                    ));
                }
            }
        }
        pts
    }

    fn assert_matches_scratch(inc: &IncrementalDetector, dynamic: &DynamicTopology) {
        let scratch = BoundaryDetector::new(inc.config).detect_view(&NetView::new(
            dynamic.topology(),
            dynamic.positions(),
            dynamic.radio_range(),
        ));
        assert_eq!(inc.candidates(), &scratch.candidates[..], "candidates diverged");
        assert_eq!(inc.boundary(), &scratch.boundary[..], "boundary diverged");
        assert_eq!(inc.groups(), &scratch.groups[..], "groups diverged");
        let snap = inc.detection();
        assert_eq!(snap.balls_tested, scratch.balls_tested, "balls_tested diverged");
        assert_eq!(snap.degenerate_nodes, scratch.degenerate_nodes, "degenerates diverged");
        // Fragment sizes against the flood primitive directly.
        let sizes =
            ballfit_wsn::flood::fragment_sizes(dynamic.topology(), inc.config.iff.ttl, |n| {
                scratch.candidates[n]
            });
        assert_eq!(inc.fragments(), &sizes[..], "fragment sizes diverged");
    }

    #[test]
    fn bootstrap_equals_scratch() {
        let pts = box_points(6, 0.8);
        let dynamic = DynamicTopology::new(&pts, 1.0);
        let inc = IncrementalDetector::new(DetectorConfig::default(), &dynamic);
        assert_matches_scratch(&inc, &dynamic);
        assert!(inc.detection().boundary_count() > 0, "box shell must have a boundary");
    }

    #[test]
    fn events_stay_exact_and_report_flips() {
        let pts = box_points(6, 0.8);
        let mut dynamic = DynamicTopology::new(&pts, 1.0);
        let mut inc = IncrementalDetector::new(DetectorConfig::default(), &dynamic);

        // Carve at the box center: leaves promote interior nodes.
        let center = Vec3::new(2.5 * 0.8, 2.5 * 0.8, 2.5 * 0.8);
        let mut order: Vec<NodeId> = dynamic.live_nodes();
        order.sort_by(|&a, &b| {
            dynamic.positions()[a]
                .distance(center)
                .partial_cmp(&dynamic.positions()[b].distance(center))
                .expect("finite distances")
        });
        let victims: Vec<NodeId> = order[..10].to_vec();
        let mut any_promotion = false;
        for &v in &victims {
            let delta = dynamic.apply(&TopologyEvent::Leave { node: v });
            let diff = inc.apply(&dynamic, &delta);
            assert_matches_scratch(&inc, &dynamic);
            for &p in &diff.promoted {
                assert!(inc.boundary()[p]);
                assert!(diff.halo.binary_search(&p).is_ok(), "flip outside reported halo");
            }
            for &d in &diff.demoted {
                assert!(!inc.boundary()[d]);
            }
            any_promotion |= !diff.promoted.is_empty();
        }
        assert!(any_promotion, "carving a cavity must promote hole-boundary nodes");

        // Heal: re-join at the carved positions (fresh slots).
        for &v in &victims {
            let delta = dynamic.apply(&TopologyEvent::Join { position: dynamic.positions()[v] });
            let diff = inc.apply(&dynamic, &delta);
            let _ = diff;
            assert_matches_scratch(&inc, &dynamic);
        }

        // Drift a surface node far away and back.
        let surface = order[order.len() - 1];
        let home = dynamic.positions()[surface];
        for to in [home + Vec3::new(3.0, 0.0, 0.0), home] {
            let delta = dynamic.apply(&TopologyEvent::Move { node: surface, to });
            inc.apply(&dynamic, &delta);
            assert_matches_scratch(&inc, &dynamic);
        }
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let pts = box_points(5, 0.8);
        let mut dynamic = DynamicTopology::new(&pts, 1.0);
        let mut inc = IncrementalDetector::new(DetectorConfig::default(), &dynamic);

        // Perturb, checkpoint mid-stream, then replay the tail on both
        // the original and the restored detector.
        let delta = dynamic.apply(&TopologyEvent::Leave { node: 31 });
        inc.apply(&dynamic, &delta);
        let checkpoint = inc.checkpoint();
        let mut revived =
            IncrementalDetector::restore(&checkpoint, ballfit_par::Parallelism::sequential());
        assert_eq!(revived.detection(), inc.detection(), "restore must be lossless");
        assert_eq!(revived.fragments(), inc.fragments());

        let tail = [
            TopologyEvent::Leave { node: 32 },
            TopologyEvent::Join { position: pts[31] },
            TopologyEvent::Move { node: 40, to: pts[40] + Vec3::new(0.4, 0.0, 0.0) },
        ];
        for ev in &tail {
            let delta = dynamic.apply(ev);
            let a = inc.apply(&dynamic, &delta);
            let b = revived.apply(&dynamic, &delta);
            assert_eq!(a, b, "replayed diffs diverged");
        }
        assert_eq!(revived.detection(), inc.detection());
        assert_matches_scratch(&revived, &dynamic);
    }

    /// A checkpoint the detector wrote passes [`DetectorCheckpoint::check`];
    /// each tampered field is named.
    #[test]
    fn checkpoint_check_names_the_first_contradiction() {
        let pts = box_points(5, 0.8);
        let mut dynamic = DynamicTopology::new(&pts, 1.0);
        let mut inc = IncrementalDetector::new(DetectorConfig::default(), &dynamic);
        let delta = dynamic.apply(&TopologyEvent::Leave { node: 31 });
        inc.apply(&dynamic, &delta);
        let good = inc.checkpoint();
        let topo = dynamic.topology();
        assert_eq!(good.check(topo), Ok(()));
        let n = pts.len();
        let outsider = (0..n).find(|&i| !good.candidates[i] && good.balls[i] > 0).unwrap();
        let member = (0..n).find(|&i| good.boundary[i]).unwrap();
        let policy = good.config.ubf.degenerate_is_boundary;
        let against = (0..n).find(|&i| good.candidates[i] != policy).unwrap();
        type Tamper<'a> = &'a dyn Fn(&mut DetectorCheckpoint);
        let tampered: [(&str, Tamper); 8] = [
            ("fragments disagree", &|c| c.candidates[outsider] = true),
            ("fragments disagree", &|c| c.fragments[member] += 1),
            ("boundary disagrees", &|c| c.boundary[member] = false),
            ("groups disagree", &|c| {
                c.groups[0].pop();
            }),
            // A degenerate slot with balls, and one whose candidate flag
            // is not the policy's.
            ("degenerate slot", &|c| c.degenerate[outsider] = true),
            ("degenerate slot", &|c| {
                c.degenerate[against] = true;
                c.balls[against] = 0;
            }),
            ("balls length", &|c| c.balls.truncate(10)),
            ("group member 9999", &|c| c.groups[0].push(9_999)),
        ];
        for (want, tamper) in tampered {
            let mut bad = good.clone();
            tamper(&mut bad);
            let err = bad.check(topo).expect_err(want);
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn quiet_diff_for_a_far_away_join() {
        let pts = box_points(5, 0.8);
        let mut dynamic = DynamicTopology::new(&pts, 1.0);
        let mut inc = IncrementalDetector::new(DetectorConfig::default(), &dynamic);
        // An isolated joiner far from the box: degenerate frame, candidate
        // by default, but a 1-node fragment never survives θ=20 — so no
        // boundary change, only the halo bookkeeping.
        let delta = dynamic.apply(&TopologyEvent::Join { position: Vec3::new(50.0, 50.0, 50.0) });
        let diff = inc.apply(&dynamic, &delta);
        assert!(diff.is_quiet(), "{diff:?}");
        assert_eq!(diff.halo, vec![dynamic.len() - 1]);
        assert_matches_scratch(&inc, &dynamic);
    }

    /// The unscoped repair, kept as the reference the scoped `apply` is
    /// pinned against: it re-embeds every node of the seed ball.
    fn apply_reference(
        inc: &mut IncrementalDetector,
        dynamic: &DynamicTopology,
        delta: &TopologyDelta,
    ) -> BoundaryDiff {
        let view = view_of(dynamic);
        let ubf_set = closed_ball(view.topology(), &delta.touched(), inc.config.ubf.witness_hops);
        inc.repair(&view, delta, &ubf_set)
    }

    /// `config` with `w` witness hops.
    fn with_hops(mut config: DetectorConfig, w: u32) -> DetectorConfig {
        config.ubf.witness_hops = w;
        config
    }

    /// One node's frame (members, coordinate bits, stress bits) and UBF
    /// outcome; `None` for a degenerate neighborhood.
    type FrameBits = Option<(Vec<NodeId>, Vec<u64>, u64, UbfOutcome)>;

    fn frame_bits(dynamic: &DynamicTopology, config: &DetectorConfig) -> Vec<FrameBits> {
        let view = view_of(dynamic);
        let w = config.ubf.witness_hops;
        (0..view.len())
            .map(|node| {
                let frame = neighborhood_frame_view(&view, node, &config.coordinates, w)?;
                let outcome =
                    ubf_test(&frame.coords, frame.self_index, view.radio_range(), &config.ubf);
                let coords =
                    frame.coords.iter().flat_map(|c| [c.x, c.y, c.z]).map(f64::to_bits).collect();
                Some((frame.members, coords, frame.stress.to_bits(), outcome))
            })
            .collect()
    }

    /// The `k`-th event of a seeded schedule cycling through four kinds:
    /// a leave (the first one takes the highest-degree node), a join, a
    /// move that keeps every neighbor, and a move that swaps neighbors.
    fn scope_event(dynamic: &DynamicTopology, k: usize, rng: &mut StdRng) -> TopologyEvent {
        let live = dynamic.live_nodes();
        let topo = dynamic.topology();
        let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
        let jitter = |rng: &mut StdRng, s: f64| {
            Vec3::new(rng.gen_range(-s..s), rng.gen_range(-s..s), rng.gen_range(-s..s))
        };
        // Moves retry seeded candidates until the delta has the wanted shape.
        let find_move = |rng: &mut StdRng, wanted: fn(&TopologyDelta) -> bool, far: bool| {
            for _ in 0..200 {
                let node = pick(rng);
                let to = if far {
                    dynamic.positions()[pick(rng)] + jitter(rng, 0.3)
                } else {
                    dynamic.positions()[node] + jitter(rng, 1e-4)
                };
                let event = TopologyEvent::Move { node, to };
                if wanted(&dynamic.clone().apply(&event)) {
                    return event;
                }
            }
            panic!("no move of the wanted shape found");
        };
        match k % 4 {
            0 if k == 0 => {
                let hub = live.iter().copied().max_by_key(|&n| (topo.degree(n), n));
                TopologyEvent::Leave { node: hub.expect("live nodes exist") }
            }
            0 => TopologyEvent::Leave { node: pick(rng) },
            1 => {
                TopologyEvent::Join { position: dynamic.positions()[pick(rng)] + jitter(rng, 0.4) }
            }
            2 => find_move(rng, |d| d.is_edgeless(), false),
            _ => find_move(rng, |d| !d.added.is_empty() && !d.removed.is_empty(), true),
        }
    }

    #[test]
    fn every_changed_frame_lies_in_the_frame_scope() {
        let pts = box_points(5, 0.8);
        let (mut changed_total, mut reused_total) = (0, 0);
        for (w, percent) in [(1, 0), (1, 30), (2, 0), (2, 30)] {
            let config = with_hops(DetectorConfig::paper(percent, 7), w);
            let mut dynamic = DynamicTopology::new(&pts, 1.0);
            let mut rng = StdRng::seed_from_u64(0x5C0E + u64::from(w) * 100 + u64::from(percent));
            let mut before = frame_bits(&dynamic, &config);
            for k in 0..12 {
                let event = scope_event(&dynamic, k, &mut rng);
                let delta = dynamic.apply(&event);
                let after = frame_bits(&dynamic, &config);
                let topo = dynamic.topology();
                let scope = frame_scope(topo, &delta, w);
                let seed_ball = closed_ball(topo, &delta.touched(), w);
                for n in &scope {
                    assert!(
                        seed_ball.binary_search(n).is_ok(),
                        "{event:?}: scope leaves the seed ball"
                    );
                }
                for (node, bits) in after.iter().enumerate() {
                    if before.get(node) != Some(bits) {
                        assert!(
                            scope.binary_search(&node).is_ok(),
                            "w={w}, {percent}%: {event:?} changed node {node} outside {scope:?}"
                        );
                        changed_total += 1;
                    }
                }
                reused_total += seed_ball.len() - scope.len();
                before = after;
            }
        }
        assert!(changed_total > 0, "the schedule must change some frames");
        assert!(reused_total > 0, "the scope must be narrower than the seed ball");
    }

    #[test]
    fn scoped_apply_equals_the_seed_ball_reference() {
        let model = NetworkBuilder::new(Scenario::SpaceOneHole)
            .surface_nodes(80)
            .interior_nodes(120)
            .target_degree(13.0)
            .require_connected(false)
            .seed(5)
            .build()
            .expect("seeded one-hole scenario builds");
        let plan = ChurnPlan::none()
            .with_seed(3)
            .with_epochs(8)
            .with_join_rate(0.02)
            .with_leave_rate(0.02)
            .with_move_rate(0.02)
            .with_max_drift(0.6 * model.radio_range());
        let schedule = plan.schedule(model.len());
        let two_hop = with_hops(DetectorConfig::default(), 2);
        for config in [DetectorConfig::default(), DetectorConfig::paper(30, 7), two_hop] {
            let mut driver = ChurnDriver::new(&model, 17);
            let seq = ballfit_par::Parallelism::sequential();
            let mut fast = IncrementalDetector::new_with_parallelism(config, driver.dynamic(), seq);
            let mut reference = fast.clone();
            for (i, ev) in schedule.iter().enumerate() {
                let (_, delta) = driver.step(ev).expect("in-shape sampling never exhausts");
                let a = fast.apply(driver.dynamic(), &delta);
                let b = apply_reference(&mut reference, driver.dynamic(), &delta);
                assert_eq!(a, b, "event {i}: diffs diverged");
                assert_eq!(fast.checkpoint(), reference.checkpoint(), "event {i}: state diverged");
            }
            assert_matches_scratch(&fast, driver.dynamic());
        }
    }
}
