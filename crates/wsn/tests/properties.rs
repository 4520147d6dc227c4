//! Property tests for the network substrate, over seeded random inputs.

use std::collections::BTreeSet;

use ballfit_geom::Vec3;
use ballfit_rng::{Rng, StdRng};
use ballfit_wsn::bfs::{hop_distances, multi_source_hops, nodes_within, shortest_path};
use ballfit_wsn::churn::{DynamicTopology, TopologyEvent};
use ballfit_wsn::components::components_of;
use ballfit_wsn::flood::{fragment_sizes, FragmentFlood};
use ballfit_wsn::sim::Simulator;
use ballfit_wsn::Topology;

/// Seeded cases per property; case `c` draws from `StdRng::seed_from_u64(c)`.
const CASES: u64 = 64;

/// Random sparse graph: up to `3n` node pairs over `n` nodes, self-loops
/// dropped.
fn graph(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let pairs = rng.gen_range(0..3 * n);
    (0..pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|&(a, b)| a != b)
        .collect()
}

/// `n` independent fair coin flips.
fn flags(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

/// A point with each coordinate uniform in `[-range, range)`.
fn vec3_in(rng: &mut StdRng, range: f64) -> Vec3 {
    Vec3::new(
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
    )
}

/// Hop distances satisfy the BFS triangle property along edges.
#[test]
fn hop_distance_edge_consistency() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 25);
        let src = rng.gen_range(0..25usize);
        let topo = Topology::from_edges(25, &edges);
        let d = hop_distances(&topo, src, |_| true);
        assert_eq!(d[src], Some(0), "case {case}");
        for a in 0..25 {
            if let Some(da) = d[a] {
                for &b in topo.neighbors(a) {
                    let db = d[b as usize].expect("neighbor of reachable node is reachable");
                    assert!(db <= da + 1 && da <= db + 1, "case {case}: edge ({a},{b})");
                }
            }
        }
    }
}

/// Shortest paths are consistent with hop distances, and every path
/// node (except endpoints) satisfies the predicate.
fn check_shortest_path(edges: &[(usize, usize)], src: usize, dst: usize, banned: &[bool]) {
    let topo = Topology::from_edges(banned.len(), edges);
    let allowed = |n: usize| !banned[n];
    let path = shortest_path(&topo, src, dst, allowed);
    let dist = {
        let mut d = hop_distances(&topo, src, |n| n == dst || allowed(n));
        if src == dst {
            d[src] = Some(0);
        }
        d[dst]
    };
    match (path, dist) {
        (Some(p), Some(d)) => {
            assert_eq!(p.len() as u32, d + 1, "path length vs distance");
            assert_eq!(p[0], src);
            assert_eq!(*p.last().unwrap(), dst);
            for w in p.windows(2) {
                assert!(topo.are_neighbors(w[0], w[1]));
            }
            if p.len() >= 2 {
                for &n in &p[1..p.len() - 1] {
                    assert!(allowed(n), "path visits banned node {n}");
                }
            }
        }
        (None, None) => {}
        (p, d) => panic!("path {p:?} vs dist {d:?} disagree"),
    }
}

#[test]
fn shortest_path_optimality() {
    // A case the suite once shrank to: no edges, src == dst.
    check_shortest_path(&[], 5, 5, &[false; 20]);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 20);
        let src = rng.gen_range(0..20usize);
        let dst = rng.gen_range(0..20usize);
        let banned = flags(&mut rng, 20);
        check_shortest_path(&edges, src, dst, &banned);
    }
}

/// Multi-source labels agree with per-source BFS minima.
#[test]
fn multi_source_is_min_of_singles() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 18);
        let size = rng.gen_range(1..5usize);
        let mut sources = BTreeSet::new();
        while sources.len() < size {
            sources.insert(rng.gen_range(0..18usize));
        }
        let topo = Topology::from_edges(18, &edges);
        let srcs: Vec<usize> = sources.into_iter().collect();
        let combined = multi_source_hops(&topo, &srcs, |_| true);
        let singles: Vec<Vec<Option<u32>>> =
            srcs.iter().map(|&s| hop_distances(&topo, s, |_| true)).collect();
        for n in 0..18 {
            let best: Option<(u32, usize)> =
                srcs.iter().enumerate().filter_map(|(si, &s)| singles[si][n].map(|d| (d, s))).min();
            assert_eq!(combined[n], best, "case {case}: node {n}");
        }
    }
}

/// `nodes_within` at max TTL equals the reachable set minus source.
#[test]
fn nodes_within_limits() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 20);
        let src = rng.gen_range(0..20usize);
        let ttl = rng.gen_range(0..5u32);
        let topo = Topology::from_edges(20, &edges);
        let within = nodes_within(&topo, src, ttl, |_| true);
        let d = hop_distances(&topo, src, |_| true);
        for (n, &dn) in d.iter().enumerate() {
            let expected = n != src && matches!(dn, Some(x) if x <= ttl);
            assert_eq!(within.binary_search(&n).is_ok(), expected, "case {case}: node {n}");
        }
    }
}

/// Components partition the member set and are pairwise non-adjacent.
#[test]
fn components_partition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 22);
        let members = flags(&mut rng, 22);
        let topo = Topology::from_edges(22, &edges);
        let comps = components_of(&topo, |n| members[n]);
        let mut label = vec![None; 22];
        for (ci, comp) in comps.iter().enumerate() {
            for &m in comp {
                assert!(members[m], "case {case}");
                assert!(label[m].is_none(), "case {case}");
                label[m] = Some(ci);
            }
        }
        for (a, b) in
            topo.neighbors(0).iter().map(|&b| (0usize, b as usize)).chain(edges.iter().copied())
        {
            if members[a] && members[b] {
                assert_eq!(label[a], label[b], "case {case}: adjacent members split");
            }
        }
    }
}

/// Incremental adjacency maintenance is byte-identical to a
/// from-scratch rebuild after arbitrary interleaved join/leave/move
/// sequences (the churn subsystem's core invariant).
#[test]
fn dynamic_topology_matches_scratch_rebuild() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(2..10usize);
        let init: Vec<Vec3> = (0..n).map(|_| vec3_in(&mut rng, 3.0)).collect();
        let ops = rng.gen_range(0..30usize);
        let range = rng.gen_range(1.0..3.0);
        let mut dt = DynamicTopology::new(&init, range);
        for _ in 0..ops {
            let (kind, pick, p) = (rng.gen_range(0..3u32), rng.next_u64(), vec3_in(&mut rng, 3.0));
            let live = dt.live_nodes();
            let ev = match kind {
                0 => TopologyEvent::Join { position: p },
                _ if live.is_empty() => continue,
                1 => TopologyEvent::Leave { node: live[(pick % live.len() as u64) as usize] },
                _ => TopologyEvent::Move { node: live[(pick % live.len() as u64) as usize], to: p },
            };
            dt.apply(&ev);
            assert_eq!(dt.topology(), &dt.rebuild_reference(), "case {case}: after {ev:?}");
        }
    }
}

/// The flooding protocol equals centralized fragment sizes on random
/// graphs and memberships.
#[test]
fn flood_protocol_equivalence() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let edges = graph(&mut rng, 16);
        let members = flags(&mut rng, 16);
        let ttl = rng.gen_range(0..4u32);
        let topo = Topology::from_edges(16, &edges);
        let mut sim = Simulator::new(&topo, |id| FragmentFlood::new(members[id], ttl, 1));
        let stats = sim.run(ttl as usize + 2);
        assert!(stats.quiescent, "case {case}");
        let central = fragment_sizes(&topo, ttl, |n| members[n]);
        for (i, &size) in central.iter().enumerate() {
            assert_eq!(sim.node(i).fragment_size(), size, "case {case}: node {i}");
        }
    }
}
