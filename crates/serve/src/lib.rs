//! `ballfit-serve`: a multi-tenant boundary-detection service with a
//! deterministic wire protocol.
//!
//! The crate turns the one-shot detection pipeline into a long-lived
//! front end: a [`Service`] owns many concurrent network instances keyed
//! by instance id, each an incrementally-maintained
//! [`ballfit::incremental::IncrementalDetector`] over a
//! [`ballfit_wsn::churn::DynamicTopology`]. Requests arrive either as
//! typed [`ServeRequest`] values (the in-process API) or as JSONL over
//! stdin/stdout (the `ballfit-serve` binary — the container model has no
//! sockets, so a pipe *is* the transport).
//!
//! Operations:
//!
//! * `create` — instantiate from a netgen scene or explicit positions.
//! * `events` — apply a batch of topology events as one epoch through
//!   the incremental detector.
//! * `query` — read boundary / groups / fragments / mesh statistics /
//!   `obs::summary` protocol rows.
//! * `checkpoint` / `restore` — capture an instance (topology snapshot +
//!   detector checkpoint + epoch counters) and revive it, on the same or
//!   a different service, without disturbing replay identity.
//! * `inject` — run one fault epoch ([`ballfit::chaos::run_epoch`])
//!   against the instance's oracle and report the watchdog verdict.
//! * `shutdown` — stop serving; later requests get a typed error.
//!
//! # Determinism
//!
//! The response log is a pure function of the request log: byte-identical
//! across repeated runs and across worker-thread counts (instances shard
//! over the `ballfit-par` pool; each instance's work is sequential and in
//! log order). All reported quantities are logical — rounds, counters,
//! ppm fractions — never wall-clock. See `crates/serve/src/service.rs`
//! module docs for the three rules that make this hold.

pub mod service;
pub mod wire;

pub use service::{Instance, Service};
pub use wire::{
    encode_request, encode_response, parse_request, CreateSource, FaultKnobs, MeshRow, QueryKind,
    ServeError, ServeRequest, ServeResponse, WireBackend, WireCheckpoint, WireConfig, WireEvent,
    WireScene,
};

use ballfit_par::Parallelism;

/// Serves a complete JSONL transcript with a fresh [`Service`]: reads
/// `input` to the end, answers every line in order, returns the response
/// log. This batch shape (read-all, then serve) is the stdio transport's
/// semantics — it keeps the response log a pure function of the request
/// log even though instances are served concurrently.
pub fn serve_transcript(input: &str, parallelism: Parallelism) -> String {
    Service::new(parallelism).serve_jsonl(input)
}

/// The `ballfit-serve` binary's body: reads stdin to EOF, serves the
/// transcript over `parallelism` workers, writes one response line per
/// request line to stdout.
///
/// # Errors
///
/// Propagates stdin read / stdout write failures.
pub fn run_stdio(parallelism: Parallelism) -> std::io::Result<()> {
    use std::io::{Read, Write};
    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input)?;
    let output = serve_transcript(&input, parallelism);
    std::io::stdout().write_all(output.as_bytes())
}
