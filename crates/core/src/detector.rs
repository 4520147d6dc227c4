//! The end-to-end boundary-node detector (Sec. II of the paper).

use ballfit_netgen::model::NetworkModel;
use ballfit_obs::{Trace, TraceEvent};
use ballfit_par::Parallelism;
use ballfit_wsn::NodeId;

use crate::config::DetectorConfig;
use crate::grouping::{group_boundaries, BoundaryGroup};
use crate::iff::apply_iff;
use crate::localizer::map_frames;
use crate::ubf::ubf_test;
use crate::view::NetView;

/// Result of boundary-node detection on a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryDetection {
    /// Phase-1 (UBF) candidate flags per node.
    pub candidates: Vec<bool>,
    /// Final boundary flags after IFF.
    pub boundary: Vec<bool>,
    /// Boundary groups (outer boundary and hole boundaries), largest first.
    pub groups: Vec<BoundaryGroup>,
    /// Total unit balls tested across all nodes (Theorem 1 accounting).
    pub balls_tested: u64,
    /// Nodes whose local frame could not be built (degenerate
    /// neighborhoods); handled per configuration.
    pub degenerate_nodes: Vec<NodeId>,
}

impl BoundaryDetection {
    /// Indices of detected boundary nodes.
    pub fn boundary_indices(&self) -> Vec<NodeId> {
        (0..self.boundary.len()).filter(|&i| self.boundary[i]).collect()
    }

    /// Number of detected boundary nodes.
    pub fn boundary_count(&self) -> usize {
        self.boundary.iter().filter(|&&b| b).count()
    }
}

/// The detector: configuration plus the `detect` entry point.
///
/// # Example
///
/// ```
/// use ballfit::config::DetectorConfig;
/// use ballfit::detector::BoundaryDetector;
/// use ballfit_netgen::builder::NetworkBuilder;
/// use ballfit_netgen::scenario::Scenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = NetworkBuilder::new(Scenario::SolidSphere)
///     .surface_nodes(250)
///     .interior_nodes(450)
///     .target_degree(15.0)
///     .seed(1)
///     .build()?;
/// let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
/// assert!(detection.boundary_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BoundaryDetector {
    config: DetectorConfig,
    parallelism: Parallelism,
}

impl BoundaryDetector {
    /// Creates a detector with the given configuration. The UBF sweep is
    /// sharded over [`Parallelism::default`] worker threads; the output
    /// is byte-identical at every thread count.
    pub fn new(config: DetectorConfig) -> Self {
        BoundaryDetector { config, parallelism: Parallelism::default() }
    }

    /// Overrides the worker-thread count for the per-node UBF sweep.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The worker-thread configuration in force.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs phases 1 (UBF) and 2 (IFF) plus grouping on a network.
    ///
    /// This is the centralized-equivalent execution: per-node work is
    /// identical to the localized protocol (each node only consults its
    /// `witness_hops`-hop neighborhood — one hop in the paper's
    /// Algorithm 1) but runs in a simple loop; see [`crate::protocols`]
    /// for the message-passing execution.
    pub fn detect(&self, model: &NetworkModel) -> BoundaryDetection {
        self.detect_view(&NetView::from_model(model))
    }

    /// [`BoundaryDetector::detect`] over a borrowed [`NetView`] — the
    /// shared from-scratch implementation. The incremental detector
    /// ([`crate::incremental::IncrementalDetector`]) is pinned exact
    /// against this entry point after every churn event.
    pub fn detect_view(&self, view: &NetView<'_>) -> BoundaryDetection {
        self.detect_view_traced(view, &mut Trace::disabled())
    }

    /// [`BoundaryDetector::detect_view`] with structured tracing: a
    /// `"detect"` span wrapping per-phase `"ubf"` / `"iff"` /
    /// `"grouping"` spans, per-node [`TraceEvent::BallTests`] records
    /// (Theorem-1 candidate-ball accounting) and per-phase result
    /// counters. Events are emitted from the sequential fold over the
    /// (index-ordered) parallel sweep, so the trace is byte-identical
    /// at every thread count; with [`Trace::disabled`] this *is*
    /// `detect_view`.
    pub fn detect_view_traced(&self, view: &NetView<'_>, trace: &mut Trace) -> BoundaryDetection {
        let topo = view.topology();
        let range = view.radio_range();
        let mut candidates = vec![false; view.len()];
        let mut balls_tested = 0u64;
        let mut degenerate_nodes = Vec::new();
        trace.open("detect");
        trace.event(TraceEvent::NetSize { nodes: view.len(), edges: topo.edge_count() });

        // The UBF sweep is the pipeline's dominant cost and each node's
        // test reads only its own `witness_hops`-hop frame, so the sweep
        // shards over worker threads, local-MDS frames in lane groups of
        // equal size (`map_frames`). Per-node outcomes come back in node
        // order and the fold below is sequential, so the result is
        // byte-identical to the plain loop at every thread count. `None`
        // marks a degenerate neighborhood.
        trace.open("ubf");
        trace.event(TraceEvent::NetSize { nodes: view.len(), edges: topo.edge_count() });
        let nodes: Vec<NodeId> = (0..view.len()).collect();
        let outcomes = map_frames(
            self.parallelism,
            view,
            &nodes,
            &self.config.coordinates,
            self.config.ubf.witness_hops,
            |frame| ubf_test(&frame.coords, frame.self_index, range, &self.config.ubf),
        );
        for (node, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(out) => {
                    candidates[node] = out.is_boundary;
                    balls_tested += out.balls_tested as u64;
                    trace.event(TraceEvent::BallTests {
                        node,
                        tests: out.balls_tested as u64,
                        boundary: out.is_boundary,
                    });
                }
                None => {
                    degenerate_nodes.push(node);
                    candidates[node] = self.config.ubf.degenerate_is_boundary;
                    trace.event(TraceEvent::Degenerate { node });
                }
            }
        }
        let candidate_count = candidates.iter().filter(|&&c| c).count() as u64;
        trace.event(TraceEvent::Counter { name: "candidates", value: candidate_count });
        trace.close();

        trace.open("iff");
        let boundary = apply_iff(topo, &candidates, &self.config.iff);
        let boundary_count = boundary.iter().filter(|&&b| b).count() as u64;
        trace.event(TraceEvent::Counter { name: "boundary", value: boundary_count });
        trace.close();

        trace.open("grouping");
        let groups = group_boundaries(topo, &boundary);
        trace.event(TraceEvent::Counter { name: "groups", value: groups.len() as u64 });
        trace.close();

        trace.close();
        BoundaryDetection { candidates, boundary, groups, balls_tested, degenerate_nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoordinateSource, IffConfig};
    use ballfit_netgen::builder::NetworkBuilder;
    use ballfit_netgen::scenario::Scenario;

    fn sphere_model(seed: u64) -> NetworkModel {
        NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(300)
            .interior_nodes(500)
            .target_degree(16.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn ground_truth_detection_on_a_sphere_is_accurate() {
        let model = sphere_model(21);
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);

        let truth = model.is_surface();
        let mut correct = 0;
        let mut missing = 0;
        for (&t, &found) in truth.iter().zip(&detection.boundary) {
            if t && found {
                correct += 1;
            }
            if t && !found {
                missing += 1;
            }
        }
        let truth_count = model.surface_count();
        assert!(
            correct as f64 >= 0.9 * truth_count as f64,
            "only {correct}/{truth_count} true boundary nodes found ({missing} missing)"
        );
        // The sphere has a single boundary.
        assert_eq!(detection.groups.len(), 1, "sphere must yield one boundary group");
        assert!(detection.balls_tested > 0);
    }

    #[test]
    fn iff_reduces_or_keeps_candidates() {
        let model = sphere_model(22);
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        for i in 0..model.len() {
            if detection.boundary[i] {
                assert!(detection.candidates[i], "IFF must never promote node {i}");
            }
        }
        let candidates = detection.candidates.iter().filter(|&&b| b).count();
        assert!(detection.boundary_count() <= candidates);
    }

    #[test]
    fn huge_theta_wipes_all_boundaries() {
        let model = sphere_model(23);
        let cfg =
            DetectorConfig { iff: IffConfig { theta: usize::MAX, ttl: 3 }, ..Default::default() };
        let detection = BoundaryDetector::new(cfg).detect(&model);
        assert_eq!(detection.boundary_count(), 0);
        assert!(detection.groups.is_empty());
    }

    #[test]
    fn mds_coordinates_without_noise_track_ground_truth() {
        let model = sphere_model(24);
        let truth_run = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let mds_run = BoundaryDetector::new(DetectorConfig {
            coordinates: CoordinateSource::paper_error(0, 9),
            ..Default::default()
        })
        .detect(&model);
        // Noise-free MDS frames are near-isometric to the truth, so the two
        // runs must agree on the vast majority of nodes.
        let agree =
            (0..model.len()).filter(|&i| truth_run.boundary[i] == mds_run.boundary[i]).count();
        assert!(
            agree as f64 >= 0.9 * model.len() as f64,
            "only {agree}/{} nodes agree between truth and 0%-error MDS",
            model.len()
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let model = sphere_model(25);
        let det = BoundaryDetector::new(DetectorConfig::paper(20, 5));
        let a = det.detect(&model);
        let b = det.detect(&model);
        assert_eq!(a.boundary, b.boundary);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.balls_tested, b.balls_tested);
    }

    #[test]
    fn boundary_indices_match_flags() {
        let model = sphere_model(26);
        let detection = BoundaryDetector::new(DetectorConfig::default()).detect(&model);
        let idx = detection.boundary_indices();
        assert_eq!(idx.len(), detection.boundary_count());
        for &i in &idx {
            assert!(detection.boundary[i]);
        }
    }
}
