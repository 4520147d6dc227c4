//! The reference backend: the paper's UBF → IFF → grouping pipeline
//! behind the [`BoundaryBackend`] trait.
//!
//! Verdicts come straight from
//! [`BoundaryDetector::detect_view_traced`], so adapting through the
//! trait cannot drift from the pre-backend entry point — the two are
//! byte-identical by construction and pinned by `tests/backends.rs`.
//! Costs are measured, not modeled: the adapter replays the three
//! message exchanges the distributed pipeline performs (UBF distance
//! tables, IFF fragment flood, grouping label flood) through their
//! perfect-radio runners in [`ballfit::protocols`] and sums their
//! [`RunStats`](ballfit_wsn::sim::RunStats). Each runner's span
//! (`"ubf"`, `"iff"`, `"grouping"`) reuses the detector's phase name,
//! so one summary row carries computation and traffic together.

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::protocols::{run_grouping_protocol, run_iff_protocol, run_ubf_protocol};
use ballfit::view::NetView;
use ballfit_obs::Trace;
use ballfit_par::Parallelism;

use crate::{BackendDetection, BoundaryBackend};

/// The paper pipeline as a backend.
#[derive(Debug, Clone, Copy)]
pub struct UbfBackend {
    config: DetectorConfig,
    parallelism: Parallelism,
}

impl UbfBackend {
    /// A backend over the given pipeline configuration, sequential by
    /// default (matching [`BoundaryDetector::new`]).
    pub fn new(config: DetectorConfig) -> Self {
        Self { config, parallelism: Parallelism::default() }
    }

    /// Sets the worker-thread policy for the per-node UBF sweep.
    /// Verdicts are independent of this (thread-ladder pinned in
    /// `tests/backends.rs`).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The pipeline configuration this backend runs with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }
}

impl BoundaryBackend for UbfBackend {
    fn name(&self) -> &'static str {
        "ubf"
    }

    fn detect(&self, view: &NetView<'_>, trace: &mut Trace) -> BackendDetection {
        let detection = BoundaryDetector::new(self.config)
            .with_parallelism(self.parallelism)
            .detect_view_traced(view, trace);

        let cfg = &self.config;
        let topo = view.topology();
        let (_, ubf) = run_ubf_protocol(view, &cfg.coordinates, trace)
            .expect("ubf exchange must quiesce on a perfect radio");
        let (_, iff) = run_iff_protocol(topo, &detection.candidates, cfg.iff.ttl, trace)
            .expect("iff flood must quiesce on a perfect radio");
        let (_, grouping) = run_grouping_protocol(topo, &detection.boundary, trace)
            .expect("grouping flood must quiesce on a perfect radio");
        let runs = [ubf, iff, grouping];
        let messages = runs.iter().map(|s| s.messages).sum();
        let bytes = runs.iter().map(|s| s.bytes).sum();
        let rounds = runs.iter().map(|s| s.rounds).sum();
        BackendDetection { detection, messages, bytes, rounds }
    }
}
