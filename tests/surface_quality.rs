//! Integration: quality of the constructed boundary surfaces — the
//! paper's 2-manifold claims, checked end to end.

use std::collections::BTreeMap;

use ballfit::cdg::{build_cdg, LandmarkEdge};
use ballfit::cdm::build_cdm;
use ballfit::cells::assign_cells;
use ballfit::config::{DetectorConfig, SurfaceConfig};
use ballfit::detector::BoundaryDetector;
use ballfit::edgeflip::{faces_of, flip_to_manifold_empty_faces, triangles_of, FlipRecord};
use ballfit::landmarks::elect_landmarks;
use ballfit::surface::{SurfaceBuilder, SurfaceStats};
use ballfit::triangulate::complete_triangulation;
use ballfit_geom::mesh::TriMesh;
use ballfit_netgen::builder::{NetworkBuilder, Placement};
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_wsn::bfs::hop_distances;
use ballfit_wsn::NodeId;

fn sphere_detection() -> (ballfit_netgen::model::NetworkModel, ballfit::BoundaryDetection) {
    let model = NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(700)
        .interior_nodes(1200)
        .target_degree(18.5)
        .seed(77)
        .build()
        .unwrap();
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    (model, detection)
}

#[test]
fn sphere_mesh_at_coarse_k_is_a_closed_manifold() {
    let (model, detection) = sphere_detection();
    let surfaces =
        SurfaceBuilder::new(SurfaceConfig { k: 5, ..Default::default() }).build(&model, &detection);
    assert_eq!(surfaces.len(), 1);
    let s = &surfaces[0];
    // The paper's headline property: a locally planarized 2-manifold.
    assert_eq!(s.stats.audit.non_manifold_edges, 0, "{:?}", s.stats.audit);
    assert!(s.stats.audit.manifold_fraction() > 0.9, "too many border edges: {:?}", s.stats.audit);
    // Sphere topology when fully closed: Euler characteristic 2.
    if s.stats.audit.is_closed_manifold() {
        assert_eq!(s.stats.euler, 2);
        assert_eq!(s.mesh.genus(), Some(0));
    }
}

#[test]
fn finer_k_more_landmarks_lower_deviation() {
    let (model, detection) = sphere_detection();
    let shape = model.shape();
    let mut landmark_counts = Vec::new();
    for k in [3u32, 4, 5] {
        let surfaces = SurfaceBuilder::new(SurfaceConfig { k, ..Default::default() })
            .build(&model, &detection);
        let s = &surfaces[0];
        landmark_counts.push(s.stats.landmarks);
        // Mesh tracks the true sphere surface regardless of k.
        assert!(s.mesh.mean_abs_distance_to(&*shape) < 0.5, "k={k}: mesh deviates too far");
        // Every mesh face is a genuine empty clique: no face's edge may
        // border more than two faces.
        assert_eq!(s.stats.audit.non_manifold_edges, 0, "k={k}");
    }
    assert!(
        landmark_counts[0] > landmark_counts[1] && landmark_counts[1] > landmark_counts[2],
        "landmark counts must decrease with k: {landmark_counts:?}"
    );
}

#[test]
fn mesh_vertices_are_exactly_the_landmarks() {
    let (model, detection) = sphere_detection();
    let surfaces = SurfaceBuilder::default().build(&model, &detection);
    let s = &surfaces[0];
    assert_eq!(s.mesh.vertex_count(), s.landmarks.len());
    for (i, &lm) in s.landmarks.iter().enumerate() {
        assert_eq!(s.mesh.vertices()[i], model.positions()[lm]);
    }
    // All landmark-graph edges connect elected landmarks.
    for &(a, b) in &s.edges {
        assert!(s.landmarks.binary_search(&a).is_ok());
        assert!(s.landmarks.binary_search(&b).is_ok());
    }
}

#[test]
fn hole_boundary_also_meshes_when_large_enough() {
    let model = NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(1100)
        .interior_nodes(1700)
        .target_degree(18.5)
        .seed(5)
        .build()
        .unwrap();
    let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
    assert_eq!(detection.groups.len(), 2, "outer + hole");
    let surfaces = SurfaceBuilder::default().build(&model, &detection);
    assert_eq!(surfaces.len(), 2, "both boundaries must mesh");
    // The hole mesh hugs the hole sphere (radius 2 at the origin).
    let hole_mesh = &surfaces[1].mesh;
    for v in hole_mesh.vertices() {
        assert!((v.norm() - 2.0).abs() < 0.5, "hole landmark at {v} is far from the hole wall");
    }
}

/// What one meshed group yields: landmarks, final edges, flip records,
/// mesh faces and stats.
type Recomposed = (Vec<NodeId>, Vec<LandmarkEdge>, Vec<FlipRecord>, Vec<[usize; 3]>, SurfaceStats);

/// Steps I–V recomposed from the stage calls, with step V's lengths read
/// from one whole-network `hop_distances` array per apex source, cached
/// for the group: the formulation the surface builder's memoized
/// target-bounded pair searches replace, kept as their reference.
fn per_apex_reference(
    model: &NetworkModel,
    group: &[NodeId],
    cfg: &SurfaceConfig,
) -> Option<Recomposed> {
    let topo = model.topology();
    let member = |n: NodeId| group.binary_search(&n).is_ok();
    let landmarks = elect_landmarks(topo, group, cfg.k);
    if landmarks.len() < cfg.min_landmarks {
        return None;
    }
    let cells = assign_cells(topo, group, &landmarks);
    let cdg = build_cdg(topo, group, &cells);
    let cdm = build_cdm(topo, group, &cells, &cdg);
    let tri = complete_triangulation(topo, group, &cdm, &cdg, cfg.route_around);
    let mut hop_cache: BTreeMap<NodeId, Vec<Option<u32>>> = BTreeMap::new();
    let mut length = |a: NodeId, b: NodeId| -> f64 {
        let dists = hop_cache.entry(a).or_insert_with(|| hop_distances(topo, a, member));
        dists[b].map_or(f64::INFINITY, f64::from)
    };
    let flip_budget = cfg.max_flip_passes * tri.edges.len().max(1);
    let flipped = flip_to_manifold_empty_faces(&tri.edges, flip_budget, &mut length);
    let index_of: BTreeMap<NodeId, usize> =
        landmarks.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let mut face_ids = faces_of(&flipped.edges);
    if face_ids.is_empty() {
        face_ids = triangles_of(&flipped.edges);
    }
    let faces: Vec<[usize; 3]> =
        face_ids.iter().map(|f| [index_of[&f[0]], index_of[&f[1]], index_of[&f[2]]]).collect();
    let vertices = landmarks.iter().map(|&l| model.positions()[l]).collect();
    let mesh = TriMesh::new(vertices, faces.clone()).expect("landmark faces index landmarks");
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
        audit: mesh.audit(),
        euler: mesh.euler_characteristic(),
    };
    Some((landmarks, flipped.edges, flipped.flips, faces, stats))
}

/// Every group's surface from `SurfaceBuilder` against
/// [`per_apex_reference`], field by field. Returns the flips performed.
fn assert_matches_per_apex_reference(
    model: &NetworkModel,
    groups: &[Vec<NodeId>],
    k: u32,
) -> usize {
    let cfg = SurfaceConfig { k, ..Default::default() };
    let builder = SurfaceBuilder::new(cfg);
    let mut flips = 0;
    for (g, group) in groups.iter().enumerate() {
        let built = builder.build_group(model, group);
        let reference = per_apex_reference(model, group, &cfg);
        assert_eq!(built.is_some(), reference.is_some(), "k={k}, group {g}: meshed or not");
        let (Some(s), Some((landmarks, edges, flip_records, faces, stats))) = (built, reference)
        else {
            continue;
        };
        assert_eq!(s.landmarks, landmarks, "k={k}, group {g}: landmarks");
        assert_eq!(s.edges, edges, "k={k}, group {g}: edges");
        assert_eq!(s.flip_records, flip_records, "k={k}, group {g}: flip records");
        assert_eq!(s.mesh.faces(), &faces[..], "k={k}, group {g}: faces");
        assert_eq!(s.stats, stats, "k={k}, group {g}: stats");
        flips += s.stats.flips;
    }
    flips
}

#[test]
fn flip_lengths_match_the_per_apex_whole_network_reference() {
    // E21's 10⁴-node sphere (scale_ladder's rung: its range is the
    // calibrated one, and positions do not depend on the range), with
    // ground-truth coordinates.
    let e21 = NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(650)
        .interior_nodes(9_350)
        .target_degree(18.5)
        .placement(Placement::Uniform)
        .require_connected(false)
        .seed(911)
        .build()
        .unwrap();
    // The gallery's bended pipe (`gallery_network`, seed 42), with exact
    // coordinates (0% error).
    let pipe = NetworkBuilder::new(Scenario::BendedPipe)
        .surface_nodes(500)
        .interior_nodes(800)
        .target_degree(18.5)
        .seed(42)
        .build()
        .unwrap();
    let mut flips = Vec::new();
    for (model, ks) in [(&e21, &[3, 4, 5][..]), (&pipe, &[3, 5][..])] {
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(model);
        for &k in ks {
            flips.push(assert_matches_per_apex_reference(model, &detection.groups, k));
        }
    }
    // The comparison only says something where flips happen (8, 5, 2, 1
    // and 1 of them).
    assert!(flips.iter().sum::<usize>() >= 15, "too few flips to compare: {flips:?}");
}
