//! Steps I–V assembled: triangular boundary surface construction
//! (Sec. III of the paper).

use std::collections::BTreeMap;

use ballfit_geom::mesh::{MeshAudit, TriMesh};
use ballfit_netgen::model::NetworkModel;
use ballfit_wsn::bfs::shortest_path;
use ballfit_wsn::{NodeId, Topology};

use crate::cdg::{build_cdg, LandmarkEdge};
use crate::cdm::build_cdm;
use crate::cells::assign_cells;
use crate::config::SurfaceConfig;
use crate::detector::BoundaryDetection;
use crate::edgeflip::{faces_of, flip_to_manifold_empty_faces, FlipRecord};
use crate::landmarks::elect_landmarks;
use crate::triangulate::complete_triangulation;
use crate::view::NetView;

/// Per-stage counters for one boundary group — the numbers behind the
/// pipeline panels of Fig. 1(c–f).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SurfaceStats {
    /// Boundary nodes in the group.
    pub group_size: usize,
    /// Elected landmarks (step I).
    pub landmarks: usize,
    /// CDG edges (step II).
    pub cdg_edges: usize,
    /// CDM edges surviving the path conditions (step III).
    pub cdm_edges: usize,
    /// Edges added by triangulation completion (step IV).
    pub added_edges: usize,
    /// Connection attempts dropped to avoid crossings (step IV).
    pub dropped_edges: usize,
    /// Edge flips performed (step V).
    pub flips: usize,
    /// Whether flipping converged within the configured passes.
    pub flips_converged: bool,
    /// Final triangle count.
    pub faces: usize,
    /// Manifoldness audit of the final mesh.
    pub audit: MeshAudit,
    /// Euler characteristic of the final mesh.
    pub euler: i64,
}

/// A constructed boundary surface for one boundary group.
#[derive(Debug, Clone)]
pub struct BoundarySurface {
    /// The boundary nodes of this group.
    pub group: Vec<NodeId>,
    /// Elected landmark node IDs (ascending).
    pub landmarks: Vec<NodeId>,
    /// Final landmark-graph edges (network node IDs).
    pub edges: Vec<LandmarkEdge>,
    /// Record of edge flips.
    pub flip_records: Vec<FlipRecord>,
    /// The triangular mesh over the landmarks. Vertices are indexed
    /// 0..landmarks.len() in `landmarks` order, positioned at the true
    /// landmark locations (for visualization/metrics only — construction
    /// is connectivity-based).
    pub mesh: TriMesh,
    /// Per-stage statistics.
    pub stats: SurfaceStats,
}

impl BoundarySurface {
    /// The landmark mesh as a CSR [`Topology`] over mesh-vertex indices
    /// (positions in `landmarks`). Shared substrate for the graph-tool
    /// applications (routing, partitioning) so each does not rebuild its
    /// own ad-hoc adjacency lists.
    pub fn mesh_topology(&self) -> Topology {
        let index_of =
            |lm: NodeId| self.landmarks.binary_search(&lm).expect("edge endpoints are landmarks");
        let edges: Vec<(usize, usize)> =
            self.edges.iter().map(|&(a, b)| (index_of(a), index_of(b))).collect();
        Topology::from_edges(self.landmarks.len(), &edges)
    }
}

/// The surface builder.
///
/// # Example
///
/// ```
/// use ballfit::config::{DetectorConfig, SurfaceConfig};
/// use ballfit::detector::BoundaryDetector;
/// use ballfit::surface::SurfaceBuilder;
/// use ballfit_netgen::builder::NetworkBuilder;
/// use ballfit_netgen::scenario::Scenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = NetworkBuilder::new(Scenario::SolidSphere)
///     .surface_nodes(300)
///     .interior_nodes(500)
///     .target_degree(16.0)
///     .seed(2)
///     .build()?;
/// let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
/// let surfaces = SurfaceBuilder::new(SurfaceConfig::default()).build(&model, &detection);
/// assert!(!surfaces.is_empty());
/// assert!(surfaces[0].stats.faces > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SurfaceBuilder {
    config: SurfaceConfig,
}

impl SurfaceBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: SurfaceConfig) -> Self {
        SurfaceBuilder { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// Constructs a triangular mesh for every boundary group large enough
    /// to produce at least `min_landmarks` landmarks. Groups are processed
    /// in detection order (largest first).
    pub fn build(
        &self,
        model: &NetworkModel,
        detection: &BoundaryDetection,
    ) -> Vec<BoundarySurface> {
        detection.groups.iter().filter_map(|group| self.build_group(model, group)).collect()
    }

    /// Runs steps I–V on a single boundary group. Returns `None` when the
    /// group yields fewer than the configured minimum landmarks.
    pub fn build_group(&self, model: &NetworkModel, group: &[NodeId]) -> Option<BoundarySurface> {
        let view = NetView::new(model.topology(), model.positions(), model.radio_range());
        self.build_group_view(&view, group)
    }

    /// [`SurfaceBuilder::build_group`] over a bare [`NetView`] — the
    /// entry point for callers that hold a churned
    /// [`ballfit_wsn::churn::DynamicTopology`] rather than a generated
    /// [`NetworkModel`] (the serve layer's `mesh` query). Meshing only
    /// reads connectivity and positions, so the two paths are identical
    /// on the same inputs.
    pub fn build_group_view(
        &self,
        view: &NetView<'_>,
        group: &[NodeId],
    ) -> Option<BoundarySurface> {
        let topo = view.topology();
        let member = |n: NodeId| group.binary_search(&n).is_ok();

        // Step I: landmarks + cells.
        let landmarks = elect_landmarks(topo, group, self.config.k);
        if landmarks.len() < self.config.min_landmarks {
            return None;
        }
        let cells = assign_cells(topo, group, &landmarks);

        // Step II: CDG.
        let cdg = build_cdg(topo, group, &cells);

        // Step III: CDM.
        let cdm = build_cdm(topo, group, &cells, &cdg);

        // Step IV: triangulation completion.
        let tri = complete_triangulation(topo, group, &cdm, &cdg, self.config.route_around);

        // Step V: edge flips, with hop-distance lengths over the group
        // subgraph (connectivity-only, as the paper requires). A length is
        // the hop count of a search that stops at its target; both ends
        // are landmarks, hence group members, so it equals the
        // whole-group distance. The apex spanning tree asks for some
        // pairs more than once, so lengths are memoized per ordered pair.
        let mut hops: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        let mut length = |a: NodeId, b: NodeId| -> f64 {
            *hops.entry((a, b)).or_insert_with(|| match shortest_path(topo, a, b, member) {
                Some(path) => (path.len() - 1) as f64,
                None => f64::INFINITY,
            })
        };
        // Faces are *empty* landmark 3-cliques (no vertex adjacent to all
        // three corners): a clique subdivided by a further landmark is a
        // polygon hull, not a face. Flips count these faces per edge.
        let flip_budget = self.config.max_flip_passes * tri.edges.len().max(1);
        let flipped = flip_to_manifold_empty_faces(&tri.edges, flip_budget, &mut length);

        // Extract the mesh over landmark indices. Faces are empty cliques;
        // on very small landmark graphs (minimum holes: an octahedron-to-
        // icosahedron's worth of landmarks) the empty rule can reject
        // everything even though the raw cliques are exactly the faces —
        // fall back to the raw cliques there.
        let index_of: BTreeMap<NodeId, usize> =
            landmarks.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let mut faces_ids = faces_of(&flipped.edges);
        if faces_ids.is_empty() {
            faces_ids = crate::edgeflip::triangles_of(&flipped.edges);
        }
        let faces: Vec<[usize; 3]> =
            faces_ids.iter().map(|t| [index_of[&t[0]], index_of[&t[1]], index_of[&t[2]]]).collect();
        let vertices = landmarks.iter().map(|&l| view.positions()[l]).collect();
        let mesh = TriMesh::new(vertices, faces).expect("landmark faces index landmarks");
        let audit = mesh.audit();
        let euler = mesh.euler_characteristic();

        let stats = SurfaceStats {
            group_size: group.len(),
            landmarks: landmarks.len(),
            cdg_edges: cdg.len(),
            cdm_edges: cdm.edges.len(),
            added_edges: tri.added.len(),
            dropped_edges: tri.dropped.len(),
            flips: flipped.flips.len(),
            flips_converged: flipped.converged,
            faces: mesh.face_count(),
            audit,
            euler,
        };
        Some(BoundarySurface {
            group: group.to_vec(),
            landmarks,
            edges: flipped.edges,
            flip_records: flipped.flips,
            mesh,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::detector::BoundaryDetector;
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::scenario::Scenario;

    fn sphere_pipeline() -> (NetworkModel, BoundaryDetection) {
        let model = NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(350)
            .interior_nodes(600)
            .target_degree(16.0)
            .seed(41)
            .build()
            .unwrap();
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        (model, detection)
    }

    #[test]
    fn sphere_surface_is_meshed() {
        let (model, detection) = sphere_pipeline();
        let surfaces = SurfaceBuilder::new(SurfaceConfig::default()).build(&model, &detection);
        assert_eq!(surfaces.len(), 1, "a sphere has one boundary");
        let s = &surfaces[0];
        assert!(s.stats.landmarks >= 10, "landmarks: {}", s.stats.landmarks);
        assert!(s.stats.faces > 0, "no faces built");
        assert!(s.stats.flips_converged, "flips did not converge");
        // No edge may border 3+ triangles after flipping.
        assert_eq!(s.stats.audit.non_manifold_edges, 0, "{:?}", s.stats.audit);
        // The mesh hugs the true sphere surface (radius 4): mean |SDF|
        // deviation well under one radio range.
        let sdf = model.shape();
        let dev = s.mesh.mean_abs_distance_to(&*sdf);
        assert!(dev < 0.8, "mesh deviates {dev} from the true surface");
    }

    #[test]
    fn larger_k_gives_coarser_mesh() {
        let (model, detection) = sphere_pipeline();
        let fine = SurfaceBuilder::new(SurfaceConfig { k: 3, ..Default::default() })
            .build(&model, &detection);
        let coarse = SurfaceBuilder::new(SurfaceConfig { k: 5, ..Default::default() })
            .build(&model, &detection);
        assert!(!fine.is_empty() && !coarse.is_empty());
        assert!(
            coarse[0].stats.landmarks < fine[0].stats.landmarks,
            "k=5 must elect fewer landmarks than k=3"
        );
    }

    #[test]
    fn tiny_groups_are_skipped() {
        let (model, mut detection) = sphere_pipeline();
        // Fake a tiny extra group.
        detection.groups.push(vec![0]);
        let surfaces = SurfaceBuilder::new(SurfaceConfig::default()).build(&model, &detection);
        assert_eq!(surfaces.len(), 1, "the singleton group must be skipped");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (model, detection) = sphere_pipeline();
        let s = &SurfaceBuilder::new(SurfaceConfig::default()).build(&model, &detection)[0];
        assert_eq!(s.stats.group_size, s.group.len());
        assert_eq!(s.stats.landmarks, s.landmarks.len());
        assert_eq!(s.stats.faces, s.mesh.face_count());
        // Final edges ⊇ mesh edges (every mesh edge is a landmark edge).
        assert!(s.stats.cdm_edges <= s.stats.cdg_edges);
        assert_eq!(s.mesh.vertex_count(), s.landmarks.len());
    }
}
