//! Step I of UBF: per-node neighborhood coordinates.
//!
//! Each node needs coordinates for its closed one-hop neighborhood `N(i)`.
//! Depending on [`CoordinateSource`] these are either the true positions
//! (coordinates known) or a local MDS frame built from noisy pairwise
//! distance measurements between mutually-adjacent neighborhood members
//! (the paper's default; Shang–Ruml-style localization from
//! `ballfit-mds`).

use ballfit_geom::Vec3;
use ballfit_mds::eigen::{lane_groups, LaneScratch};
use ballfit_mds::local::{embed_local, embed_local_many, LocalDistances};
use ballfit_netgen::measure::DistanceOracle;
use ballfit_netgen::model::NetworkModel;
use ballfit_par::{par_map, par_map_init, Parallelism};
use ballfit_wsn::NodeId;

use crate::config::CoordinateSource;
use crate::view::NetView;

/// Coordinates for one node's closed neighborhood.
#[derive(Debug, Clone)]
pub struct NeighborhoodFrame {
    /// Neighborhood members (sorted; includes the node itself).
    pub members: Vec<NodeId>,
    /// Index of the node itself within `members`.
    pub self_index: usize,
    /// Coordinates per member, in `members` order. Local frames are
    /// centered and arbitrarily oriented; ground-truth frames are global.
    pub coords: Vec<Vec3>,
    /// Residual stress of the embedding (0 for ground truth).
    pub stress: f64,
}

/// Computes the neighborhood frame of `node`.
///
/// Returns `None` when a local frame cannot be built (neighborhood smaller
/// than 2, or its measured-distance graph is disconnected) — the caller
/// treats such nodes per [`crate::config::UbfConfig::degenerate_is_boundary`].
pub fn neighborhood_frame(
    model: &NetworkModel,
    node: NodeId,
    source: &CoordinateSource,
) -> Option<NeighborhoodFrame> {
    neighborhood_frame_k(model, node, source, 1)
}

/// [`neighborhood_frame`] over the closed `k`-hop neighborhood (the 2-hop
/// variant realizes Lemma 1's full `2r` witness scope; see
/// [`crate::config::UbfConfig::witness_hops`]).
pub fn neighborhood_frame_k(
    model: &NetworkModel,
    node: NodeId,
    source: &CoordinateSource,
    k: u32,
) -> Option<NeighborhoodFrame> {
    neighborhood_frame_view(&NetView::from_model(model), node, source, k)
}

/// [`neighborhood_frame_k`] over a borrowed [`NetView`] — the shared
/// implementation both the static detector and the incremental
/// (churn-following) detector call, so their per-node results are
/// byte-identical by construction.
pub fn neighborhood_frame_view(
    view: &NetView<'_>,
    node: NodeId,
    source: &CoordinateSource,
    k: u32,
) -> Option<NeighborhoodFrame> {
    let topo = view.topology();
    let members = topo.closed_k_hop_neighborhood(node, k);
    let self_index = members.binary_search(&node).expect("node is in its own neighborhood");
    match source {
        CoordinateSource::GroundTruth => {
            let coords = members.iter().map(|&m| view.positions()[m]).collect();
            Some(NeighborhoodFrame { members, self_index, coords, stress: 0.0 })
        }
        CoordinateSource::LocalMds { error, noise_seed, .. } => {
            if members.len() < 2 {
                return None;
            }
            let table = measured_table(view, &view.oracle(*error, *noise_seed), &members);
            // Refinement fits the measured pairs only; unmeasured
            // (out-of-range) pairs get no distance floor. A floor trades a
            // little recall for precision at moderate noise but suppresses
            // detection at extreme noise (DESIGN.md §6b).
            let frame = embed_local(&table, source.frame_config()).ok()?;
            Some(NeighborhoodFrame {
                members,
                self_index,
                coords: frame.coords,
                stress: frame.stress,
            })
        }
    }
}

/// The frames of `nodes`, in `nodes` order, each bit-identical to
/// [`neighborhood_frame_view`] of that node.
///
/// Local-MDS frames of equal member count are embedded together in
/// [`lane_groups`] by [`embed_local_many`]: their eigendecompositions run
/// as lock-step lane passes. Every frame is alive at once in the result;
/// the detector's and the incremental detector's sweeps keep only one
/// lane group's frames alive per worker.
pub fn neighborhood_frames_view(
    view: &NetView<'_>,
    nodes: &[NodeId],
    source: &CoordinateSource,
    k: u32,
) -> Vec<Option<NeighborhoodFrame>> {
    map_frames(Parallelism::sequential(), view, nodes, source, k, |frame| frame)
}

/// `f` of every frame of `nodes` on `par` workers, in `nodes` order
/// (`None` where [`neighborhood_frame_view`] has no frame) — byte-identical
/// at every thread count.
///
/// Known coordinates have no eigensolve to share, so those nodes keep
/// their order. Local-MDS nodes are cut into [`lane_groups`] by
/// closed-neighbourhood size, which the topology gives before any
/// measurement (`degree + 1` at `k = 1`); largest first, so the sweep
/// ends on its cheapest groups. Workers take whole groups, each with its
/// own [`LaneScratch`], and drop a group's frames once `f` has read them.
pub(crate) fn map_frames<T, F>(
    par: Parallelism,
    view: &NetView<'_>,
    nodes: &[NodeId],
    source: &CoordinateSource,
    k: u32,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(NeighborhoodFrame) -> T + Sync,
{
    let CoordinateSource::LocalMds { error, noise_seed, .. } = source else {
        return par_map(par, nodes, |&node| neighborhood_frame_view(view, node, source, k).map(&f));
    };
    let topo = view.topology();
    let sizes: Vec<usize> = nodes
        .iter()
        .map(|&node| {
            if k == 1 {
                topo.degree(node) + 1
            } else {
                topo.closed_k_hop_neighborhood(node, k).len()
            }
        })
        .collect();
    let groups = lane_groups(&sizes);
    let config = source.frame_config();
    let per_group = par_map_init(par, &groups, LaneScratch::default, |scratch, _, group| {
        if sizes[group[0]] < 2 {
            // Lone nodes: no frame, and nothing to measure.
            return group.iter().map(|_| None).collect();
        }
        let oracle = view.oracle(*error, *noise_seed);
        let members: Vec<Vec<NodeId>> =
            group.iter().map(|&at| topo.closed_k_hop_neighborhood(nodes[at], k)).collect();
        let tables: Vec<LocalDistances> =
            members.iter().map(|members| measured_table(view, &oracle, members)).collect();
        let frames = embed_local_many(tables, config, scratch);
        group
            .iter()
            .zip(members)
            .zip(frames)
            .map(|((&at, members), frame)| {
                let frame = frame.ok()?;
                let self_index =
                    members.binary_search(&nodes[at]).expect("node is in its own neighborhood");
                Some(f(NeighborhoodFrame {
                    members,
                    self_index,
                    coords: frame.coords,
                    stress: frame.stress,
                }))
            })
            .collect::<Vec<_>>()
    });

    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(nodes.len()).collect();
    for (group, results) in groups.iter().zip(per_group) {
        for (&at, result) in group.iter().zip(results) {
            out[at] = result;
        }
    }
    out
}

/// The measurement table of `members`: every mutually-adjacent pair
/// (only those can range each other) measured through `oracle`.
fn measured_table(
    view: &NetView<'_>,
    oracle: &DistanceOracle,
    members: &[NodeId],
) -> LocalDistances {
    let topo = view.topology();
    let mut table = LocalDistances::new(members.len());
    for a in 0..members.len() {
        for b in (a + 1)..members.len() {
            let (i, j) = (members[a], members[b]);
            if topo.are_neighbors(i, j) {
                table.set(a, b, oracle.measure(i, j, view.true_distance(i, j)));
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::measure::ErrorModel;
    use ballfit_netgen::scenario::Scenario;

    fn small_model() -> NetworkModel {
        NetworkBuilder::new(Scenario::SolidBox)
            .surface_nodes(120)
            .interior_nodes(180)
            .target_degree(12.0)
            .require_connected(false)
            .seed(42)
            .build()
            .expect("seeded SolidBox scenario always builds")
    }

    #[test]
    fn ground_truth_frame_uses_true_positions() {
        let model = small_model();
        let f = neighborhood_frame(&model, 10, &CoordinateSource::GroundTruth)
            .expect("ground-truth frames exist for every node");
        assert_eq!(f.members[f.self_index], 10);
        assert_eq!(f.stress, 0.0);
        for (idx, &m) in f.members.iter().enumerate() {
            assert_eq!(f.coords[idx], model.positions()[m]);
        }
    }

    #[test]
    fn noiseless_mds_frame_preserves_measured_distances() {
        let model = small_model();
        let source =
            CoordinateSource::LocalMds { error: ErrorModel::None, noise_seed: 0, refine: true };
        // Pick a node with a decent neighborhood.
        let node = (0..model.len())
            .max_by_key(|&i| model.topology().degree(i))
            .expect("model is non-empty");
        let f = neighborhood_frame(&model, node, &source).expect("max-degree neighborhood embeds");
        let topo = model.topology();
        let mut checked = 0;
        for a in 0..f.members.len() {
            for b in (a + 1)..f.members.len() {
                let (i, j) = (f.members[a], f.members[b]);
                if topo.are_neighbors(i, j) {
                    let truth = model.true_distance(i, j);
                    let embedded = f.coords[a].distance(f.coords[b]);
                    assert!(
                        (truth - embedded).abs() < 0.15,
                        "pair ({i},{j}): true {truth}, embedded {embedded}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 5, "too few measured pairs exercised");
    }

    #[test]
    fn noisy_frames_have_higher_stress() {
        let model = small_model();
        let node = (0..model.len())
            .max_by_key(|&i| model.topology().degree(i))
            .expect("model is non-empty");
        let clean = neighborhood_frame(
            &model,
            node,
            &CoordinateSource::LocalMds { error: ErrorModel::None, noise_seed: 0, refine: true },
        )
        .expect("noiseless max-degree neighborhood embeds");
        let noisy = neighborhood_frame(
            &model,
            node,
            &CoordinateSource::LocalMds {
                error: ErrorModel::UniformRadius { fraction: 0.5 },
                noise_seed: 0,
                refine: true,
            },
        )
        .expect("noisy max-degree neighborhood still embeds");
        assert!(noisy.stress > clean.stress);
    }
}
