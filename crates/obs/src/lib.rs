//! Deterministic structured tracing for the ballfit stack.
//!
//! The paper's efficiency claims — Θ(ρ²) candidate balls per node
//! (Lemma 1 / Theorem 1) and low per-node message overhead for UBF, IFF
//! flooding and grouping — are statements about *counts*, not seconds.
//! This crate records exactly those counts as a structured trace:
//!
//! * **Hierarchical spans** (pipeline → protocol → round) opened and
//!   closed explicitly by the simulator and detectors.
//! * **Typed events** ([`TraceEvent`]): per-round message/byte totals
//!   with fault attribution, per-node candidate-ball counts, retransmit
//!   and re-forward counters, convergence summaries, churn halo sizes.
//! * **Logical time only.** Records carry round numbers and a monotonic
//!   sequence counter — never wall clock, thread ids, memory addresses
//!   or host state — so a trace is byte-identical across runs, machines
//!   and `BALLFIT_THREADS` settings. This is pinned by
//!   `tests/observability.rs`.
//! * **A zero-cost disabled path.** [`Trace::disabled`] carries no
//!   buffer; every emission short-circuits on one `Option` check, and
//!   instrumented code paths are regression-tested to produce
//!   byte-identical detection output with tracing on or off.
//!
//! Traces export as JSONL ([`Trace::to_jsonl`]): one flat RFC 8259
//! object per record, validated by the `ballfit-bench` JSON validator
//! and diffable with the `trace_diff` binary. [`summary::summarize`]
//! rolls a trace up into per-protocol msg/node, bytes/node and
//! ball-tests/node tables.
//!
//! The crate depends only on `ballfit-json` (itself dependency-free),
//! which `trace_diff` parses traces with: observability must never
//! perturb the determinism story it exists to certify.

mod bytes;
pub mod jsonl;
pub mod summary;

pub use bytes::MsgBytes;

/// Identifier of a span within one trace. Span 0 is the implicit root
/// (the trace itself); real spans start at 1 in open order.
pub type SpanId = u32;

/// One typed observation. Every variant is plain data with a total
/// equality — no wall clock, no floats — so whole traces compare with
/// `==` and serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEvent {
    /// A span opened; `parent` is the enclosing span.
    SpanOpen {
        /// Static span label (e.g. `"ubf"`, `"round"`).
        name: &'static str,
        /// Enclosing span at open time.
        parent: SpanId,
    },
    /// The matching close of the record's span.
    SpanClose {
        /// Label repeated from the open for self-describing JSONL.
        name: &'static str,
    },
    /// Network shape at the start of a simulator run or detection.
    NetSize {
        /// Node count.
        nodes: usize,
        /// Undirected edge count.
        edges: usize,
    },
    /// One executed simulator round: messages and payload bytes sent
    /// during the round, deliveries executed, and the fault layer's
    /// drop/duplication/delay/crash attribution for the round.
    Round {
        /// 1-based round number (matches `RunStats::rounds`).
        round: usize,
        /// Messages sent during this round.
        sent: u64,
        /// Payload bytes sent during this round.
        bytes: u64,
        /// Messages delivered to live nodes this round.
        delivered: u64,
        /// Transmissions dropped by the fault layer this round.
        dropped: u64,
        /// Transmissions duplicated by the fault layer this round.
        duplicated: u64,
        /// Transmissions delayed by the fault layer this round.
        delayed: u64,
        /// Deliveries lost to a crashed receiver this round.
        crash_lost: u64,
    },
    /// Per-node UBF outcome: candidate balls actually tested and the
    /// resulting candidacy (Theorem 1 accounting).
    BallTests {
        /// Node id.
        node: usize,
        /// Candidate balls tested for this node.
        tests: u64,
        /// Whether the node became a boundary candidate.
        boundary: bool,
    },
    /// A node whose neighborhood was too degenerate for the UBF test.
    Degenerate {
        /// Node id.
        node: usize,
    },
    /// Retransmissions performed by one node of a hardened protocol.
    Retransmits {
        /// Node id.
        node: usize,
        /// Number of retransmissions (0-resend nodes are not emitted).
        resends: u64,
    },
    /// Improved-distance re-forwards performed by one node of the
    /// hardened fragment flood.
    Reforwards {
        /// Node id.
        node: usize,
        /// Number of re-forwards (0-count nodes are not emitted).
        count: u64,
    },
    /// End-of-run summary mirroring `RunStats`.
    Convergence {
        /// Rounds executed.
        rounds: usize,
        /// Total messages sent.
        messages: u64,
        /// Total payload bytes sent.
        bytes: u64,
        /// Whether the run reached quiescence.
        quiescent: bool,
    },
    /// One incremental-maintenance event: dirty-halo size and the
    /// resulting boundary diff.
    Halo {
        /// Nodes in the recomputation halo.
        size: usize,
        /// Nodes promoted to the boundary.
        promoted: usize,
        /// Nodes demoted from the boundary.
        demoted: usize,
        /// Nodes whose group label changed.
        regrouped: usize,
    },
    /// A named scalar (phase outputs such as boundary/group counts).
    Counter {
        /// Static counter label.
        name: &'static str,
        /// Counter value.
        value: u64,
    },
    /// A convergence-watchdog verdict: how one detection epoch ended.
    /// Coverage travels as parts-per-million so the record stays
    /// float-free and totally ordered.
    Verdict {
        /// Whether the epoch converged to the exact centralized result.
        exact: bool,
        /// Static degradation cause (`"none"`, `"partition"`,
        /// `"crash-quorum"`, `"retry-exhausted"`, `"truncated"`).
        cause: &'static str,
        /// Live nodes whose distributed state disagreed with the oracle.
        unreached: u64,
        /// Fraction of live nodes covered, in parts per million.
        coverage_ppm: u64,
    },
}

/// One trace record: a monotonic sequence number, the span it belongs
/// to, and the event payload. For `SpanOpen` the record's `span` is the
/// *newly opened* span (its parent is in the event), so walking records
/// reconstructs the tree without extra state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRecord {
    /// Monotonic emission index, starting at 0.
    pub seq: u64,
    /// Span this record belongs to.
    pub span: SpanId,
    /// The observation.
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct TraceInner {
    records: Vec<TraceRecord>,
    stack: Vec<(SpanId, &'static str)>,
    next_span: SpanId,
}

/// A trace sink. Instrumented code takes `&mut Trace` and emits
/// unconditionally; the [`Trace::disabled`] variant makes every call a
/// no-op behind a single branch, so the instrumented and bare code
/// paths are literally the same code.
#[derive(Debug, Default)]
pub struct Trace {
    inner: Option<TraceInner>,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Trace { inner: Some(TraceInner { records: Vec::new(), stack: Vec::new(), next_span: 0 }) }
    }

    /// The no-op sink: every emission returns immediately, nothing is
    /// allocated, and no observable state changes.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span of the current span and returns its id
    /// (always 0 on the disabled path).
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let Some(inner) = &mut self.inner else {
            return 0;
        };
        let parent = inner.stack.last().map_or(0, |&(id, _)| id);
        inner.next_span += 1;
        let id = inner.next_span;
        let seq = inner.records.len() as u64;
        inner.records.push(TraceRecord {
            seq,
            span: id,
            event: TraceEvent::SpanOpen { name, parent },
        });
        inner.stack.push((id, name));
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open — unbalanced instrumentation is a bug
    /// worth failing loudly on.
    pub fn close(&mut self) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let (id, name) = inner.stack.pop().unwrap_or_else(|| {
            panic!("Trace::close with no open span — unbalanced instrumentation")
        });
        let seq = inner.records.len() as u64;
        inner.records.push(TraceRecord { seq, span: id, event: TraceEvent::SpanClose { name } });
    }

    /// Records `event` against the current span.
    #[inline]
    pub fn event(&mut self, event: TraceEvent) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let span = inner.stack.last().map_or(0, |&(id, _)| id);
        let seq = inner.records.len() as u64;
        inner.records.push(TraceRecord { seq, span, event });
    }

    /// The recorded events (empty on the disabled path).
    pub fn records(&self) -> &[TraceRecord] {
        self.inner.as_ref().map_or(&[], |inner| inner.records.as_slice())
    }

    /// Serializes the trace as JSONL: one flat RFC 8259 object per
    /// record, key order fixed, so equal traces produce equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            jsonl::write_record(&mut out, rec);
            out.push('\n');
        }
        out
    }

    /// Writes [`Trace::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::enabled();
        t.event(TraceEvent::NetSize { nodes: 4, edges: 3 });
        let ubf = t.open("ubf");
        assert_eq!(ubf, 1);
        let round = t.open("round");
        assert_eq!(round, 2);
        t.event(TraceEvent::Round {
            round: 1,
            sent: 6,
            bytes: 48,
            delivered: 6,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            crash_lost: 0,
        });
        t.close();
        t.event(TraceEvent::Convergence { rounds: 1, messages: 6, bytes: 48, quiescent: true });
        t.close();
        t
    }

    #[test]
    fn spans_nest_and_events_attach_to_the_innermost_span() {
        let t = sample();
        let recs = t.records();
        assert_eq!(recs.len(), 7);
        // Root-level event belongs to span 0.
        assert_eq!(recs[0].span, 0);
        // The open record carries the new span id and its parent.
        assert_eq!(recs[1].span, 1);
        assert_eq!(recs[1].event, TraceEvent::SpanOpen { name: "ubf", parent: 0 });
        assert_eq!(recs[2].event, TraceEvent::SpanOpen { name: "round", parent: 1 });
        // The round event is inside the round span; convergence is one
        // level up, inside the protocol span.
        assert_eq!(recs[3].span, 2);
        assert_eq!(recs[4].span, 2);
        assert!(matches!(recs[4].event, TraceEvent::SpanClose { name: "round" }));
        assert!(matches!(recs[5].event, TraceEvent::Convergence { .. }));
        assert_eq!(recs[5].span, 1);
        assert!(matches!(recs[6].event, TraceEvent::SpanClose { name: "ubf" }));
        assert_eq!(recs[6].span, 1);
        // Sequence numbers are the record indices.
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn disabled_trace_records_nothing_and_never_allocates_spans() {
        let mut t = Trace::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.open("ubf"), 0);
        t.event(TraceEvent::NetSize { nodes: 9, edges: 9 });
        t.close();
        t.close(); // extra closes are no-ops when disabled
        assert!(t.records().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    #[should_panic(expected = "unbalanced instrumentation")]
    fn unbalanced_close_panics_when_enabled() {
        Trace::enabled().close();
    }

    #[test]
    fn identical_emission_yields_identical_records_and_bytes() {
        let a = sample();
        let b = sample();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }
}
