//! Breadth-first search machinery: hop distances, subset-restricted
//! deterministic shortest paths, depth-limited reachability.
//!
//! The surface-construction steps of the paper repeatedly route packets
//! "through the shortest path based on the identified boundary nodes only";
//! all such paths here are computed by BFS *restricted to a node predicate*
//! with a deterministic minimum-ID parent rule so that distributed and
//! centralized executions pick identical paths.
//!
//! [`hop_distances`], [`shortest_path`] and [`nodes_within`] (and
//! [`crate::flood::fragment_sizes`]) search on one scratch per thread whose
//! per-node entries are marked with a search generation instead of being
//! cleared, so a search's own state costs O(nodes visited) rather than
//! n-entry arrays. The predicate `allowed` must be a pure function of the
//! node: a search evaluates it at most once per node, and a predicate that
//! itself searches runs on a scratch of its own.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::topology::{NodeId, Topology};

/// Hop distances from `source` to every node, visiting only nodes that
/// satisfy `allowed` (the source is always visited). `None` marks nodes
/// that are unreachable or excluded.
pub fn hop_distances<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    source: NodeId,
    allowed: F,
) -> Vec<Option<u32>> {
    with_scratch(topo.len(), |s| {
        s.search(topo, source, u32::MAX, None, allowed);
        let mut dist = vec![None; topo.len()];
        for &v in &s.queue {
            dist[v] = Some(s.dist[v]);
        }
        dist
    })
}

/// Multi-source hop distances: for every node, the distance to the nearest
/// source and the ID of that source, ties broken toward the smaller source
/// ID (the paper's landmark-association tiebreak). Only nodes satisfying
/// `allowed` are traversed; sources are always included.
///
/// Returns `(distance, owner)` per node, `None` if unreachable.
pub fn multi_source_hops<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    sources: &[NodeId],
    allowed: F,
) -> Vec<Option<(u32, NodeId)>> {
    let mut best: Vec<Option<(u32, NodeId)>> = vec![None; topo.len()];
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut queue = VecDeque::new();
    for &s in &sorted {
        if best[s].is_none() {
            best[s] = Some((0, s));
            queue.push_back(s);
        }
    }
    // BFS layer by layer; because sources are seeded in ascending ID order
    // and neighbor lists are sorted, the first label a node receives is the
    // (min distance, min owner-ID) pair.
    while let Some(u) = queue.pop_front() {
        let (du, owner) = best[u].expect("queued nodes are labeled");
        for &v in topo.neighbors(u) {
            let v = v as NodeId;
            if best[v].is_none() && allowed(v) {
                best[v] = Some((du + 1, owner));
                queue.push_back(v);
            }
        }
    }
    best
}

/// Deterministic shortest path from `from` to `to`, traversing only nodes
/// that satisfy `allowed` (endpoints are always allowed). Among equal-length
/// paths the minimum-ID parent is chosen at every step, making the result
/// unique and identical across executions. The search stops once it
/// reaches `to`.
///
/// Returns the node sequence including both endpoints, or `None` if `to` is
/// unreachable. For a `to` that `allowed` accepts, the path has
/// [`hop_distances`]`(topo, from, allowed)[to] + 1` nodes and is `None`
/// exactly where that entry is: because the endpoints are always allowed,
/// the two differ only for a refused `to`, which `hop_distances` never
/// enters.
pub fn shortest_path<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    allowed: F,
) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    assert!(to < topo.len(), "path target {to} out of range for {} nodes", topo.len());
    with_scratch(topo.len(), |s| {
        s.search(topo, from, u32::MAX, Some(to), allowed);
        if !s.reached(to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = s.parent[cur] as NodeId;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    })
}

/// All nodes within `max_hops` of `source` (excluding `source` itself),
/// traversing only nodes satisfying `allowed`. Result is sorted.
pub fn nodes_within<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    source: NodeId,
    max_hops: u32,
    allowed: F,
) -> Vec<NodeId> {
    with_scratch(topo.len(), |s| {
        s.search(topo, source, max_hops, None, allowed);
        let mut out = s.queue[1..].to_vec();
        out.sort_unstable();
        out
    })
}

/// The number of nodes [`nodes_within`] returns, plus one for `source`,
/// from the same search without collecting them.
pub(crate) fn count_within<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    source: NodeId,
    max_hops: u32,
    allowed: F,
) -> usize {
    with_scratch(topo.len(), |s| {
        s.search(topo, source, max_hops, None, allowed);
        s.queue.len()
    })
}

/// `dist` entry of a node that `allowed` refused in the current search.
const REFUSED: u32 = u32::MAX;

/// BFS state reused across searches. A node's `dist` and `parent` entries
/// belong to the current search only when its `stamp` equals `generation`;
/// starting a search advances `generation` instead of clearing the arrays.
#[derive(Default)]
struct Scratch {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    parent: Vec<u32>,
    /// The search's FIFO queue, never popped: it ends as the list of
    /// every node the search reached, in discovery order.
    queue: Vec<NodeId>,
    generation: u32,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's scratch, prepared for a new search over `n`
/// nodes. A search started while the scratch is in use further up the
/// stack (from inside an `allowed` predicate) gets a fresh local one.
fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            scratch.begin(n);
            f(&mut scratch)
        }
        Err(_) => {
            let mut scratch = Scratch::default();
            scratch.begin(n);
            f(&mut scratch)
        }
    })
}

/// Sets this thread's search generation, so a test can run searches
/// across the `u32::MAX` wrap.
#[cfg(test)]
fn set_generation(generation: u32) {
    SCRATCH.with(|cell| cell.borrow_mut().generation = generation);
}

impl Scratch {
    /// Grows the arrays to `n` nodes and starts a new generation.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent.resize(n, 0);
        }
        if self.generation == u32::MAX {
            // Stamps from before the wrap would read as current.
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.queue.clear();
    }

    /// `true` if the current search reached `v`.
    fn reached(&self, v: NodeId) -> bool {
        self.stamp[v] == self.generation && self.dist[v] != REFUSED
    }

    /// Breadth-first search from `source` that does not expand nodes at
    /// depth `max_hops` and stops once it dequeues `target`, which is
    /// always allowed. Sorted neighbor lists make the first node to
    /// discover another its min-ID parent in the previous layer.
    fn search<F: Fn(NodeId) -> bool>(
        &mut self,
        topo: &Topology,
        source: NodeId,
        max_hops: u32,
        target: Option<NodeId>,
        allowed: F,
    ) {
        let generation = self.generation;
        self.stamp[source] = generation;
        self.dist[source] = 0;
        self.queue.push(source);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            if target == Some(u) {
                break;
            }
            let du = self.dist[u];
            if du == max_hops {
                continue;
            }
            for &v in topo.neighbors(u) {
                let v = v as NodeId;
                if self.stamp[v] == generation {
                    continue;
                }
                self.stamp[v] = generation;
                if target == Some(v) || allowed(v) {
                    self.dist[v] = du + 1;
                    self.parent[v] = u as u32;
                    self.queue.push(v);
                } else {
                    self.dist[v] = REFUSED;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3 path plus a 0-4-3 shortcut through higher-ID nodes.
    fn diamond() -> Topology {
        Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
    }

    #[test]
    fn hop_distance_basics() {
        let t = diamond();
        let d = hop_distances(&t, 0, |_| true);
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[3], Some(2)); // via 4
        assert_eq!(d[2], Some(2));
    }

    #[test]
    fn restriction_blocks_paths() {
        let t = diamond();
        // Disallow node 4: distance to 3 becomes 3 via the chain.
        let d = hop_distances(&t, 0, |n| n != 4);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
        // Disallow 1 and 4: node 3 unreachable.
        let d = hop_distances(&t, 0, |n| n != 1 && n != 4);
        assert_eq!(d[3], None);
    }

    #[test]
    fn shortest_path_deterministic_min_id() {
        // Two equal-length paths 0-1-3 and 0-2-3: must take min-ID parent 1.
        let t = Topology::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = shortest_path(&t, 0, 3, |_| true).unwrap();
        assert_eq!(p, vec![0, 1, 3]);
        // And symmetric query likewise prefers the smaller intermediate.
        let q = shortest_path(&t, 3, 0, |_| true).unwrap();
        assert_eq!(q, vec![3, 1, 0]);
    }

    #[test]
    fn shortest_path_respects_restriction() {
        let t = Topology::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = shortest_path(&t, 0, 3, |n| n != 1).unwrap();
        assert_eq!(p, vec![0, 2, 3]);
        assert!(shortest_path(&t, 0, 3, |n| n != 1 && n != 2).is_none());
    }

    #[test]
    fn shortest_path_trivial_cases() {
        let t = diamond();
        assert_eq!(shortest_path(&t, 2, 2, |_| false).unwrap(), vec![2]);
        let p = shortest_path(&t, 0, 1, |_| false).unwrap();
        assert_eq!(p, vec![0, 1]); // endpoints always allowed
    }

    #[test]
    fn multi_source_ownership_tiebreak() {
        // Node 2 is equidistant from sources 0 and 4 → owner must be 0.
        let t = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let owners = multi_source_hops(&t, &[4, 0], |_| true);
        assert_eq!(owners[0], Some((0, 0)));
        assert_eq!(owners[4], Some((0, 4)));
        assert_eq!(owners[1], Some((1, 0)));
        assert_eq!(owners[3], Some((1, 4)));
        assert_eq!(owners[2], Some((2, 0)), "tie must go to the smaller source ID");
    }

    #[test]
    fn multi_source_respects_allowed() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let owners = multi_source_hops(&t, &[0], |n| n != 2);
        assert_eq!(owners[1], Some((1, 0)));
        assert_eq!(owners[2], None);
        assert_eq!(owners[3], None);
    }

    #[test]
    fn nodes_within_depth() {
        let t = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(nodes_within(&t, 0, 1, |_| true), vec![1]);
        assert_eq!(nodes_within(&t, 0, 2, |_| true), vec![1, 2]);
        assert_eq!(nodes_within(&t, 0, 10, |_| true), vec![1, 2, 3, 4]);
        assert_eq!(nodes_within(&t, 0, 0, |_| true), Vec::<usize>::new());
        // Restriction cuts the chain.
        assert_eq!(nodes_within(&t, 0, 10, |n| n != 2), vec![1]);
    }

    /// The fresh-array BFS the scratch searches must agree with: one
    /// n-entry array per search, `allowed` re-evaluated on every visit.
    mod reference {
        use super::super::{NodeId, Topology};
        use std::collections::VecDeque;

        pub fn hop_distances(
            topo: &Topology,
            source: NodeId,
            allowed: impl Fn(NodeId) -> bool,
        ) -> Vec<Option<u32>> {
            let mut dist = vec![None; topo.len()];
            let mut queue = VecDeque::from([source]);
            dist[source] = Some(0);
            while let Some(u) = queue.pop_front() {
                let du = dist[u].unwrap();
                for &v in topo.neighbors(u) {
                    let v = v as NodeId;
                    if dist[v].is_none() && allowed(v) {
                        dist[v] = Some(du + 1);
                        queue.push_back(v);
                    }
                }
            }
            dist
        }

        pub fn shortest_path(
            topo: &Topology,
            from: NodeId,
            to: NodeId,
            allowed: impl Fn(NodeId) -> bool,
        ) -> Option<Vec<NodeId>> {
            if from == to {
                return Some(vec![from]);
            }
            let mut parent: Vec<Option<NodeId>> = vec![None; topo.len()];
            let mut dist: Vec<Option<u32>> = vec![None; topo.len()];
            dist[from] = Some(0);
            let mut queue = VecDeque::from([from]);
            while let Some(u) = queue.pop_front() {
                if u == to {
                    break;
                }
                let du = dist[u].unwrap();
                for &v in topo.neighbors(u) {
                    let v = v as NodeId;
                    if dist[v].is_none() && (v == to || allowed(v)) {
                        dist[v] = Some(du + 1);
                        parent[v] = Some(u);
                        queue.push_back(v);
                    }
                }
            }
            dist[to]?;
            let mut path = vec![to];
            let mut cur = to;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            Some(path)
        }

        pub fn nodes_within(
            topo: &Topology,
            source: NodeId,
            max_hops: u32,
            allowed: impl Fn(NodeId) -> bool,
        ) -> Vec<NodeId> {
            let mut dist = vec![None; topo.len()];
            dist[source] = Some(0u32);
            let mut queue = VecDeque::from([source]);
            let mut out = Vec::new();
            while let Some(u) = queue.pop_front() {
                let du = dist[u].unwrap();
                if du == max_hops {
                    continue;
                }
                for &v in topo.neighbors(u) {
                    let v = v as NodeId;
                    if dist[v].is_none() && allowed(v) {
                        dist[v] = Some(du + 1);
                        out.push(v);
                        queue.push_back(v);
                    }
                }
            }
            out.sort_unstable();
            out
        }

        pub fn fragment_sizes(
            topo: &Topology,
            ttl: u32,
            member: impl Fn(NodeId) -> bool,
        ) -> Vec<usize> {
            (0..topo.len())
                .map(|i| if member(i) { 1 + nodes_within(topo, i, ttl, &member).len() } else { 0 })
                .collect()
        }
    }

    /// A seeded G(n, p) graph and an allowed-node mask of density `keep`.
    fn random_case(seed: u64, n: usize, p: f64, keep: f64) -> (Topology, Vec<bool>) {
        use ballfit_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((a, b));
                }
            }
        }
        let mask = (0..n).map(|_| rng.gen_bool(keep)).collect();
        (Topology::from_edges(n, &edges), mask)
    }

    /// Every scratch search, and `fragment_sizes`, against the reference
    /// from `sources` (targets and depths derived from them).
    fn assert_matches_reference(topo: &Topology, mask: &[bool], sources: &[NodeId]) {
        let n = topo.len();
        let allowed = |v: NodeId| mask[v];
        for &s in sources {
            let t = (s * 7 + 3) % n;
            assert_eq!(
                hop_distances(topo, s, allowed),
                reference::hop_distances(topo, s, allowed),
                "hop_distances from {s}"
            );
            assert_eq!(
                shortest_path(topo, s, t, allowed),
                reference::shortest_path(topo, s, t, allowed),
                "shortest_path {s} -> {t}"
            );
            // A target-bounded search measures every allowed target as the
            // whole-network search does (what step V's flip lengths use).
            let dist = hop_distances(topo, s, allowed);
            for t in (0..n).filter(|&t| allowed(t)) {
                let hops = shortest_path(topo, s, t, allowed).map(|path| path.len() as u32 - 1);
                assert_eq!(hops, dist[t], "shortest_path {s} -> {t} against hop_distances");
            }
            for max_hops in [0, 1, 2, 3, u32::MAX] {
                assert_eq!(
                    nodes_within(topo, s, max_hops, allowed),
                    reference::nodes_within(topo, s, max_hops, allowed),
                    "nodes_within {s}, {max_hops} hops"
                );
            }
        }
        for ttl in [0, 1, 3] {
            assert_eq!(
                crate::flood::fragment_sizes(topo, ttl, allowed),
                reference::fragment_sizes(topo, ttl, allowed),
                "fragment_sizes, ttl {ttl}"
            );
        }
    }

    #[test]
    fn scratch_matches_fresh_arrays_as_topologies_grow_and_shrink() {
        // One thread, so one scratch: it must grow to 400 nodes and then
        // serve smaller graphs whose node IDs it has stamped before.
        for (i, &n) in [12usize, 60, 5, 400, 30, 150, 1].iter().enumerate() {
            let (topo, mask) = random_case(100 + i as u64, n, (6.0 / n as f64).min(1.0), 0.7);
            let sources: Vec<NodeId> = (0..n).step_by(n.div_ceil(12)).collect();
            assert_matches_reference(&topo, &mask, &sources);
        }
    }

    #[test]
    fn allowed_that_searches_gets_its_own_scratch() {
        let (topo, mask) = random_case(7, 80, 0.06, 0.8);
        // The predicate runs a BFS while the outer search holds this
        // thread's scratch.
        let allowed = |v: NodeId| mask[v] && nodes_within(&topo, v, 1, |u| mask[u]).len() >= 2;
        let oracle =
            |v: NodeId| mask[v] && reference::nodes_within(&topo, v, 1, |u| mask[u]).len() >= 2;
        for s in [0, 17, 42, 79] {
            assert_eq!(
                hop_distances(&topo, s, allowed),
                reference::hop_distances(&topo, s, oracle)
            );
            assert_eq!(
                shortest_path(&topo, s, 79 - s, allowed),
                reference::shortest_path(&topo, s, 79 - s, oracle)
            );
            assert_eq!(
                nodes_within(&topo, s, 3, allowed),
                reference::nodes_within(&topo, s, 3, oracle)
            );
            assert_eq!(
                crate::flood::fragment_sizes(&topo, 2, allowed),
                reference::fragment_sizes(&topo, 2, oracle)
            );
        }
        // The thread's scratch is intact afterwards.
        assert_matches_reference(&topo, &mask, &[0, 5, 60]);
    }

    #[test]
    fn generation_wraps_past_u32_max() {
        let (topo, mask) = random_case(11, 120, 0.05, 0.5);
        // Generation 1 stamps every node, and the search after the wrap
        // runs as generation 1 again: a stamp kept across the wrap would
        // read as already visited.
        let _ = hop_distances(&topo, 0, |_| true);
        set_generation(u32::MAX);
        assert_eq!(hop_distances(&topo, 0, |_| true), reference::hop_distances(&topo, 0, |_| true));
        set_generation(u32::MAX - 3);
        for round in 0..3 {
            assert_matches_reference(&topo, &mask, &[round, 40 + round, 119 - round]);
        }
    }

    #[test]
    fn allowed_is_evaluated_at_most_once_per_node() {
        use std::cell::RefCell;
        let (topo, mask) = random_case(23, 200, 0.04, 0.6);
        let calls = RefCell::new(vec![0u32; topo.len()]);
        let counted = |v: NodeId| {
            calls.borrow_mut()[v] += 1;
            mask[v]
        };
        let check = |what: &str, source: NodeId| {
            let mut c = calls.borrow_mut();
            assert!(c.iter().all(|&k| k <= 1), "{what}: a node was evaluated twice");
            assert_eq!(c[source], 0, "{what}: the source was evaluated");
            c.iter_mut().for_each(|k| *k = 0);
        };
        for s in [0, 99, 150] {
            let _ = hop_distances(&topo, s, counted);
            check("hop_distances", s);
            let _ = shortest_path(&topo, s, 199 - s, counted);
            check("shortest_path", s);
            let _ = nodes_within(&topo, s, 4, counted);
            check("nodes_within", s);
            let _ = count_within(&topo, s, 4, counted);
            check("count_within", s);
        }
    }

    #[test]
    fn par_map_workers_match_the_reference() {
        use ballfit_par::{par_map, Parallelism};
        let (topo, mask) = random_case(31, 300, 0.02, 0.75);
        let allowed = |v: NodeId| mask[v];
        let sources: Vec<NodeId> = (0..topo.len()).step_by(7).collect();
        let search = |&s: &NodeId| {
            (
                hop_distances(&topo, s, allowed),
                shortest_path(&topo, s, 299 - s, allowed),
                nodes_within(&topo, s, 2, allowed),
            )
        };
        let expected: Vec<_> = sources
            .iter()
            .map(|&s| {
                (
                    reference::hop_distances(&topo, s, allowed),
                    reference::shortest_path(&topo, s, 299 - s, allowed),
                    reference::nodes_within(&topo, s, 2, allowed),
                )
            })
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(par_map(Parallelism::threads(threads), &sources, search), expected);
        }
    }
}
