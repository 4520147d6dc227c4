//! Integration: the observability layer is *inert* and *deterministic*.
//!
//! Tracing must never perturb detection (same output with the sink on or
//! off), and an enabled trace must serialize byte-identically across
//! repeated runs and across every worker-thread count of the E17 ladder —
//! logical time only (round numbers, monotonic sequence counters), never
//! wall clock. The final test pins the EXPERIMENTS.md E15 fault-free
//! baseline message counts to the values `obs::summary` regenerates, so
//! the prose can never drift from the code.

use ballfit::config::DetectorConfig;
use ballfit::detector::BoundaryDetector;
use ballfit::protocols::{run_grouping_protocol, run_iff_protocol, run_ubf_protocol};
use ballfit::view::NetView;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_obs::summary::summarize;
use ballfit_obs::Trace;
use ballfit_par::Parallelism;

/// The E17 thread ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn small_model() -> NetworkModel {
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(120)
        .interior_nodes(180)
        .target_degree(13.0)
        .seed(9)
        .build()
        .expect("model generates")
}

/// The E15 reference network (500-node SolidSphere).
fn reference_model() -> NetworkModel {
    NetworkBuilder::new(Scenario::SolidSphere)
        .surface_nodes(200)
        .interior_nodes(300)
        .target_degree(14.0)
        .seed(77)
        .build()
        .expect("reference model generates")
}

/// One full traced detection + protocol run, returning the JSONL export.
fn pipeline_trace(model: &NetworkModel, par: Parallelism) -> String {
    let cfg = DetectorConfig::default();
    let mut trace = Trace::enabled();
    let view = NetView::from_model(model);
    let detection =
        BoundaryDetector::new(cfg).with_parallelism(par).detect_view_traced(&view, &mut trace);
    run_ubf_protocol(&view, &cfg.coordinates, &mut trace).expect("perfect radio quiesces");
    run_grouping_protocol(model.topology(), &detection.boundary, &mut trace)
        .expect("perfect radio quiesces");
    trace.to_jsonl()
}

#[test]
fn traces_are_byte_identical_across_repeated_runs() {
    let model = small_model();
    let first = pipeline_trace(&model, Parallelism::sequential());
    let second = pipeline_trace(&model, Parallelism::sequential());
    assert!(!first.is_empty(), "an enabled trace records something");
    assert_eq!(first, second, "repeated runs must serialize byte-identically");
}

#[test]
fn traces_are_byte_identical_at_every_thread_count() {
    let model = small_model();
    let reference = pipeline_trace(&model, Parallelism::sequential());
    for threads in THREAD_LADDER {
        let traced = pipeline_trace(&model, Parallelism::threads(threads));
        assert_eq!(traced, reference, "trace diverged at {threads} threads");
    }
}

#[test]
fn detection_is_byte_identical_with_tracing_on_and_off() {
    let model = small_model();
    let cfg = DetectorConfig::default();
    let view = NetView::from_model(&model);
    let silent = BoundaryDetector::new(cfg).detect_view(&view);
    let mut trace = Trace::enabled();
    let traced = BoundaryDetector::new(cfg).detect_view_traced(&view, &mut trace);
    assert_eq!(silent.candidates, traced.candidates, "candidate flags perturbed by tracing");
    assert_eq!(silent.boundary, traced.boundary, "boundary set perturbed by tracing");
    assert_eq!(silent.groups, traced.groups, "grouping perturbed by tracing");
    assert_eq!(silent.balls_tested, traced.balls_tested, "ball-test tally perturbed by tracing");
    assert_eq!(silent.degenerate_nodes, traced.degenerate_nodes, "degenerates perturbed");
    assert!(trace.records().iter().count() > 0, "the enabled run did record");
}

/// Extracts the three comma-grouped counts from the EXPERIMENTS.md E15
/// sentence "UBF X messages, IFF flood Y, grouping Z."
fn documented_baselines(doc: &str) -> (u64, u64, u64) {
    let marker = "Fault-free plain-protocol baselines:";
    let at = doc.find(marker).expect("EXPERIMENTS.md keeps the E15 baseline sentence");
    let rest = &doc[at + marker.len()..];
    let number_after = |key: &str| -> u64 {
        let k = rest.find(key).unwrap_or_else(|| panic!("baseline sentence names {key}"));
        let digits: String = rest[k + key.len()..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == ',')
            .filter(char::is_ascii_digit)
            .collect();
        digits.parse().expect("baseline count parses")
    };
    (number_after("UBF"), number_after("IFF flood"), number_after("grouping"))
}

/// Satellite: the E15 baseline counts in EXPERIMENTS.md are regenerated
/// from `obs::summary`, not hand-maintained. If either side changes, this
/// test names the document values that must be updated.
#[test]
fn experiments_e15_baseline_counts_match_obs_summary() {
    let model = reference_model();
    let cfg = DetectorConfig::default();
    let mut trace = Trace::enabled();
    let view = NetView::from_model(&model);

    run_ubf_protocol(&view, &cfg.coordinates, &mut trace).expect("perfect radio quiesces");
    let central = BoundaryDetector::new(cfg).detect_view(&view);
    let (_, stats) =
        run_iff_protocol(model.topology(), &central.candidates, cfg.iff.ttl, &mut trace)
            .expect("perfect radio quiesces");
    let (_, grouping_run) = run_grouping_protocol(model.topology(), &central.boundary, &mut trace)
        .expect("perfect radio quiesces");

    let summary = summarize(trace.records());
    let ubf = summary.get("ubf").expect("ubf row").messages;
    let iff = summary.get("iff").expect("iff row").messages;
    let grouping = summary.get("grouping").expect("grouping row").messages;
    // The summary rows are genuine per-run totals, not double counts.
    assert_eq!(iff, stats.messages, "iff summary row must equal RunStats.messages");
    assert_eq!(
        grouping, grouping_run.messages,
        "grouping summary row must equal the runner's total"
    );

    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is readable");
    let (doc_ubf, doc_iff, doc_grouping) = documented_baselines(&doc);
    assert_eq!(
        (ubf, iff, grouping),
        (doc_ubf, doc_iff, doc_grouping),
        "EXPERIMENTS.md E15 baselines drifted from obs::summary; regenerate the sentence"
    );
}
