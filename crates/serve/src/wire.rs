//! Wire types of the serve protocol: one JSON object per line, requests
//! in, responses out.
//!
//! The canonical encoding is produced by [`encode_request`] /
//! [`encode_response`] with a **fixed key order** per message kind, so a
//! response log is comparable byte for byte. Requests are parsed
//! permissively (key order free, unknown keys ignored, optional knobs
//! defaulted) but validated strictly: every malformed input maps to a
//! typed [`ServeError`] — the service never panics on wire data.
//!
//! These types have exactly one encoding: the canonical JSONL codec
//! below, built on [`crate::json`]. `tests/serve.rs` pins that every
//! request in a corpus survives `encode_request → parse_request`
//! unchanged.

use std::fmt;

use crate::json::{self, JsonValue};

/// Which detection backend an instance runs: the wire spelling of the
/// `ballfit_backends` registry names (`ubf`, `stat`). An enum rather
/// than a free string so [`WireConfig`] stays `Copy` and an invalid
/// name can never reach an instance — the parser rejects it as a typed
/// bad-request. A wire test pins the variants against
/// [`ballfit_backends::NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireBackend {
    /// The reference UBF → IFF → grouping pipeline (incrementally
    /// maintained under churn).
    #[default]
    Ubf,
    /// Fekete-style statistical degree-threshold detection
    /// (recomputed from scratch after every epoch).
    Stat,
}

impl WireBackend {
    /// Every wire backend, registry order.
    pub const ALL: [WireBackend; 2] = [WireBackend::Ubf, WireBackend::Stat];

    /// The registry name this variant denotes.
    pub fn as_str(self) -> &'static str {
        match self {
            WireBackend::Ubf => "ubf",
            WireBackend::Stat => "stat",
        }
    }

    /// Inverse of [`WireBackend::as_str`].
    pub fn by_name(name: &str) -> Option<WireBackend> {
        WireBackend::ALL.into_iter().find(|b| b.as_str() == name)
    }
}

/// Detector settings expressible on the wire, composed onto
/// [`ballfit::config::DetectorConfig`] by [`WireConfig::to_detector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireConfig {
    /// Ranging-error percent for local-MDS coordinates; `None` selects
    /// ground-truth coordinates.
    pub error: Option<u32>,
    /// Seed of the per-pair measurement noise (with `error`).
    pub noise_seed: u64,
    /// IFF fragment threshold θ override.
    pub theta: Option<usize>,
    /// IFF flooding TTL override.
    pub ttl: Option<u32>,
    /// UBF witness-neighborhood radius override (hops).
    pub witness_hops: Option<u32>,
    /// Detection backend answering boundary/group queries.
    pub backend: WireBackend,
}

impl WireConfig {
    /// The [`ballfit::config::DetectorConfig`] this wire config denotes.
    pub fn to_detector(self) -> ballfit::config::DetectorConfig {
        let mut cfg = match self.error {
            Some(percent) => ballfit::config::DetectorConfig::paper(percent, self.noise_seed),
            None => ballfit::config::DetectorConfig::default(),
        };
        if let Some(theta) = self.theta {
            cfg.iff.theta = theta;
        }
        if let Some(ttl) = self.ttl {
            cfg.iff.ttl = ttl;
        }
        if let Some(hops) = self.witness_hops {
            cfg.ubf.witness_hops = hops;
        }
        cfg
    }
}

/// A netgen scene to sample an instance's network from.
#[derive(Debug, Clone, PartialEq)]
pub struct WireScene {
    /// Scenario name, as `Scenario::name` spells it.
    pub scenario: String,
    /// Surface node count.
    pub surface: usize,
    /// Interior node count.
    pub interior: usize,
    /// Target average degree.
    pub degree: f64,
    /// Sampling seed.
    pub seed: u64,
}

/// Where a `create` request's network comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateSource {
    /// Sample a scenario via `ballfit_netgen::builder::NetworkBuilder`.
    Scene(WireScene),
    /// Explicit node positions plus a radio range.
    Positions {
        /// Node positions, one `[x, y, z]` triple per node.
        positions: Vec<[f64; 3]>,
        /// Radio range (must be finite and positive).
        range: f64,
    },
}

/// One topology event on the wire (the serve-side spelling of
/// [`ballfit_wsn::churn::TopologyEvent`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
    /// A node joins at the given position (new highest slot).
    Join {
        /// Position of the new node.
        position: [f64; 3],
    },
    /// A live node leaves.
    Leave {
        /// Slot of the leaving node.
        node: usize,
    },
    /// A live node moves.
    Move {
        /// Slot of the moving node.
        node: usize,
        /// Its new position.
        to: [f64; 3],
    },
}

/// What a `query` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Live boundary node ids, ascending.
    Boundary,
    /// Boundary groups, canonical order.
    Groups,
    /// Per-candidate IFF fragment sizes.
    Fragments,
    /// `obs::summary` rows over the instance's trace.
    Stats,
    /// Per-group landmark-mesh statistics.
    Mesh,
}

impl QueryKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Boundary => "boundary",
            QueryKind::Groups => "groups",
            QueryKind::Fragments => "fragments",
            QueryKind::Stats => "stats",
            QueryKind::Mesh => "mesh",
        }
    }

    /// Inverse of [`QueryKind::as_str`].
    pub fn by_name(name: &str) -> Option<QueryKind> {
        [
            QueryKind::Boundary,
            QueryKind::Groups,
            QueryKind::Fragments,
            QueryKind::Stats,
            QueryKind::Mesh,
        ]
        .into_iter()
        .find(|k| k.as_str() == name)
    }
}

/// Fault intensity of one `inject` epoch — the wire projection of the
/// [`ballfit::chaos::ChaosConfig`] radio knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultKnobs {
    /// Per-transmission loss probability.
    pub loss: f64,
    /// Per-transmission duplication probability.
    pub duplication: f64,
    /// Maximum extra delivery delay in rounds.
    pub max_delay: u32,
    /// Fraction of the live population crashed.
    pub crash_fraction: f64,
    /// Round the victims go down.
    pub crash_down: usize,
    /// Round the victims recover (`None` = permanent).
    pub crash_up: Option<usize>,
    /// Base fault seed (per-epoch streams derive from it).
    pub seed: u64,
}

impl Default for FaultKnobs {
    fn default() -> Self {
        // Mirrors `ChaosConfig::new`: perfect radio, crash window 1..6.
        FaultKnobs {
            loss: 0.0,
            duplication: 0.0,
            max_delay: 0,
            crash_fraction: 0.0,
            crash_down: 1,
            crash_up: Some(6),
            seed: 0,
        }
    }
}

/// A point-in-time image of a serve instance's topology (the wire
/// spelling of [`ballfit_wsn::churn::TopologySnapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSnapshot {
    /// Radio range.
    pub range: f64,
    /// Per-slot positions (dead slots keep their last position).
    pub positions: Vec<[f64; 3]>,
    /// Per-slot liveness.
    pub alive: Vec<bool>,
}

/// A serve instance's detector state (the wire spelling of
/// [`ballfit::incremental::DetectorCheckpoint`], minus the config —
/// carried separately as a [`WireConfig`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireDetector {
    /// Per-slot UBF candidate flags.
    pub candidates: Vec<bool>,
    /// Per-slot degenerate-neighborhood flags.
    pub degenerate: Vec<bool>,
    /// Per-slot candidate-ball counts.
    pub balls: Vec<u64>,
    /// Per-slot IFF fragment sizes.
    pub fragments: Vec<usize>,
    /// Per-slot boundary flags.
    pub boundary: Vec<bool>,
    /// Boundary groups, canonical order.
    pub groups: Vec<Vec<usize>>,
}

/// Everything a `checkpoint` response carries and a `restore` request
/// needs: config, topology, detector state, and the per-instance
/// epoch/inject counters that keep replayed fault streams aligned.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCheckpoint {
    /// Events-batches applied so far.
    pub epoch: u64,
    /// Inject epochs run so far.
    pub injects: u64,
    /// The instance's wire config.
    pub config: WireConfig,
    /// The topology snapshot.
    pub snapshot: WireSnapshot,
    /// The detector state.
    pub detector: WireDetector,
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Create an instance from a scene or explicit positions.
    Create {
        /// Instance id.
        id: String,
        /// Network source.
        source: CreateSource,
        /// Detector settings.
        config: WireConfig,
    },
    /// Apply a batch of topology events as one epoch.
    Events {
        /// Instance id.
        id: String,
        /// The batch, applied in order.
        events: Vec<WireEvent>,
    },
    /// Read detection state.
    Query {
        /// Instance id.
        id: String,
        /// What to read.
        what: QueryKind,
    },
    /// Capture the instance's full state.
    Checkpoint {
        /// Instance id.
        id: String,
    },
    /// Revive an instance from a checkpoint under a (possibly new) id.
    Restore {
        /// Instance id to create.
        id: String,
        /// The checkpoint to revive.
        checkpoint: WireCheckpoint,
    },
    /// Run one fault epoch and judge it against the oracle.
    Inject {
        /// Instance id.
        id: String,
        /// Fault intensity.
        faults: FaultKnobs,
    },
    /// Stop serving: every later request is answered with an error.
    Shutdown,
}

impl ServeRequest {
    /// The target instance id, if the request addresses one.
    pub fn id(&self) -> Option<&str> {
        match self {
            ServeRequest::Create { id, .. }
            | ServeRequest::Events { id, .. }
            | ServeRequest::Query { id, .. }
            | ServeRequest::Checkpoint { id }
            | ServeRequest::Restore { id, .. }
            | ServeRequest::Inject { id, .. } => Some(id),
            ServeRequest::Shutdown => None,
        }
    }
}

/// Typed request failure. [`ServeError::code`] is the stable wire
/// spelling in the `"err"` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The line was not well-formed JSON.
    BadJson {
        /// Parser diagnostic.
        detail: String,
    },
    /// Well-formed JSON, but not a valid request of its op.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The `"op"` key named no known operation.
    UnknownOp {
        /// The offending op string.
        op: String,
    },
    /// `create`/`restore` targeted an id that already exists.
    DuplicateInstance {
        /// The offending id.
        id: String,
    },
    /// The request targeted an id with no instance.
    UnknownInstance {
        /// The offending id.
        id: String,
    },
    /// An event batch referenced a dead or out-of-range slot; the
    /// instance was left untouched.
    DeadNode {
        /// The instance.
        id: String,
        /// The offending slot.
        node: usize,
    },
    /// A scene could not be built (unknown scenario or sampling failure).
    BadScene {
        /// The instance.
        id: String,
        /// Builder diagnostic.
        detail: String,
    },
    /// The request arrived after `shutdown`.
    AfterShutdown,
}

impl ServeError {
    /// The stable wire code.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadJson { .. } => "bad-json",
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::UnknownOp { .. } => "unknown-op",
            ServeError::DuplicateInstance { .. } => "duplicate-instance",
            ServeError::UnknownInstance { .. } => "unknown-instance",
            ServeError::DeadNode { .. } => "dead-node",
            ServeError::BadScene { .. } => "bad-scene",
            ServeError::AfterShutdown => "after-shutdown",
        }
    }

    /// The human-readable detail string encoded next to the code.
    pub fn detail(&self) -> String {
        match self {
            ServeError::BadJson { detail } => detail.clone(),
            ServeError::BadRequest { detail } => detail.clone(),
            ServeError::UnknownOp { op } => format!("unknown op '{op}'"),
            ServeError::DuplicateInstance { id } => format!("instance '{id}' already exists"),
            ServeError::UnknownInstance { id } => format!("no instance '{id}'"),
            ServeError::DeadNode { id, node } => {
                format!("instance '{id}': event references dead or out-of-range node {node}")
            }
            ServeError::BadScene { id, detail } => format!("instance '{id}': {detail}"),
            ServeError::AfterShutdown => "service is shut down".to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

/// One `obs::summary` row on the wire (integer counters only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsRow {
    /// Span family name.
    pub span: String,
    /// Network size seen by the span.
    pub nodes: u64,
    /// Executed rounds.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Fault-layer drops.
    pub dropped: u64,
    /// Fault-layer duplications.
    pub duplicated: u64,
    /// Fault-layer delays.
    pub delayed: u64,
    /// Deliveries lost to crashed receivers.
    pub crash_lost: u64,
    /// Candidate balls tested.
    pub ball_tests: u64,
    /// Nodes that ran the UBF test.
    pub tested_nodes: u64,
    /// Hardened-protocol retransmissions.
    pub retransmits: u64,
    /// Hardened-flood re-forwards.
    pub reforwards: u64,
    /// Watchdog verdicts recorded.
    pub verdicts: u64,
    /// Verdicts that reported degradation.
    pub degraded: u64,
    /// Live nodes reported unreached across verdicts.
    pub unreached: u64,
}

/// Per-group mesh statistics on the wire (integers only; manifoldness
/// as parts per million).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshRow {
    /// Group index (canonical order).
    pub group: usize,
    /// Boundary nodes in the group.
    pub size: usize,
    /// Elected landmarks.
    pub landmarks: usize,
    /// Final triangle count.
    pub faces: usize,
    /// Euler characteristic.
    pub euler: i64,
    /// Manifold-edge fraction in parts per million.
    pub manifold_ppm: u64,
}

/// One response line. Every variant encodes with a fixed key order.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// `create` succeeded.
    Created {
        /// Instance id.
        id: String,
        /// Slot count.
        nodes: usize,
        /// Live nodes.
        live: usize,
        /// Boundary nodes.
        boundary: usize,
        /// Boundary groups.
        groups: usize,
        /// Cumulative unit balls tested (bootstrap detection).
        balls: u64,
    },
    /// `events` succeeded.
    Applied {
        /// Instance id.
        id: String,
        /// 0-based index of this events epoch.
        epoch: u64,
        /// Events applied.
        applied: usize,
        /// Nodes promoted to boundary.
        promoted: usize,
        /// Nodes demoted from boundary.
        demoted: usize,
        /// Nodes regrouped.
        regrouped: usize,
        /// Total dirty-halo size.
        halo: usize,
        /// Unit balls tested repairing this batch.
        balls: u64,
        /// Boundary nodes after the batch.
        boundary: usize,
        /// Boundary groups after the batch.
        groups: usize,
    },
    /// `query what=boundary`.
    BoundaryNodes {
        /// Instance id.
        id: String,
        /// Live boundary node ids, ascending.
        nodes: Vec<usize>,
    },
    /// `query what=groups`.
    GroupList {
        /// Instance id.
        id: String,
        /// Boundary groups, canonical order.
        groups: Vec<Vec<usize>>,
    },
    /// `query what=fragments`.
    FragmentList {
        /// Instance id.
        id: String,
        /// `[node, fragment_size]` per live candidate, ascending by node.
        fragments: Vec<(usize, usize)>,
    },
    /// `query what=stats`.
    StatsRows {
        /// Instance id.
        id: String,
        /// Summary rows, first-seen span order.
        rows: Vec<StatsRow>,
    },
    /// `query what=mesh`.
    MeshList {
        /// Instance id.
        id: String,
        /// One row per meshable group.
        meshes: Vec<MeshRow>,
    },
    /// `checkpoint` succeeded.
    CheckpointTaken {
        /// Instance id.
        id: String,
        /// The captured state.
        checkpoint: WireCheckpoint,
    },
    /// `restore` succeeded.
    Restored {
        /// Instance id.
        id: String,
        /// Slot count.
        nodes: usize,
        /// Live nodes.
        live: usize,
        /// Boundary nodes.
        boundary: usize,
        /// Boundary groups.
        groups: usize,
    },
    /// `inject` ran an epoch and the watchdog judged it.
    Injected {
        /// Instance id.
        id: String,
        /// 0-based inject epoch index.
        epoch: u64,
        /// Whether the epoch was judged exact.
        exact: bool,
        /// Degradation cause (`"none"` when exact).
        cause: String,
        /// Oracle-agreement coverage in parts per million.
        coverage_ppm: u64,
        /// Live nodes not brought into agreement.
        unreached: usize,
        /// Boundary size the distributed run established.
        boundary: usize,
        /// Rounds the faulty stack ran.
        rounds: usize,
        /// Rounds the fault-free baseline ran.
        clean_rounds: usize,
        /// Retry budget spent.
        repairs: u64,
        /// Budget-exhaustion incidents.
        exhausted: u64,
        /// Live population when the epoch ran.
        live: usize,
        /// Crash victims scheduled.
        crashed: usize,
    },
    /// `shutdown` acknowledged.
    ShutdownOk,
    /// The request failed.
    Error(ServeError),
}

// ---------------------------------------------------------------------------
// Request parsing.

type Parsed<T> = Result<T, ServeError>;

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::BadRequest { detail: detail.into() }
}

fn get_str(obj: &JsonValue, key: &str) -> Parsed<String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing or non-string '{key}'")))
}

fn get_u64_or(obj: &JsonValue, key: &str, default: u64) -> Parsed<u64> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn get_f64_or(obj: &JsonValue, key: &str, default: f64) -> Parsed<f64> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| bad(format!("'{key}' must be a finite number"))),
    }
}

fn get_unit_or(obj: &JsonValue, key: &str, default: f64) -> Parsed<f64> {
    let v = get_f64_or(obj, key, default)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(bad(format!("'{key}' must be within [0, 1]")));
    }
    Ok(v)
}

fn opt_u64(obj: &JsonValue, key: &str) -> Parsed<Option<u64>> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

/// [`opt_u64`] for a 32-bit field: a value past `u32::MAX` is refused,
/// not truncated.
fn opt_u32(obj: &JsonValue, key: &str) -> Parsed<Option<u32>> {
    opt_u64(obj, key)?
        .map(|v| u32::try_from(v).map_err(|_| bad(format!("'{key}' must fit in 32 bits"))))
        .transpose()
}

fn parse_vec3(v: &JsonValue, what: &str) -> Parsed<[f64; 3]> {
    let arr = v.as_arr().ok_or_else(|| bad(format!("{what} must be an [x, y, z] array")))?;
    if arr.len() != 3 {
        return Err(bad(format!("{what} must have exactly 3 coordinates")));
    }
    let mut out = [0.0f64; 3];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item
            .as_f64()
            .ok_or_else(|| bad(format!("{what} coordinates must be finite numbers")))?;
    }
    Ok(out)
}

fn parse_bool_vec(obj: &JsonValue, key: &str) -> Parsed<Vec<bool>> {
    let arr = obj
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad(format!("missing or non-array '{key}'")))?;
    arr.iter()
        .map(|v| v.as_bool().ok_or_else(|| bad(format!("'{key}' must contain booleans"))))
        .collect()
}

fn parse_u64_vec(obj: &JsonValue, key: &str) -> Parsed<Vec<u64>> {
    let arr = obj
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad(format!("missing or non-array '{key}'")))?;
    arr.iter()
        .map(|v| v.as_u64().ok_or_else(|| bad(format!("'{key}' must contain integers"))))
        .collect()
}

fn parse_config(obj: &JsonValue) -> Parsed<WireConfig> {
    let Some(cfg) = obj.get("config") else {
        return Ok(WireConfig::default());
    };
    if cfg.as_obj().is_none() {
        return Err(bad("'config' must be an object"));
    }
    let backend = match cfg.get("backend") {
        None | Some(JsonValue::Null) => WireBackend::default(),
        Some(v) => {
            let name = v.as_str().ok_or_else(|| bad("'backend' must be a string"))?;
            WireBackend::by_name(name).ok_or_else(|| {
                bad(format!(
                    "unknown backend '{name}' (known: {})",
                    WireBackend::ALL.map(WireBackend::as_str).join(", ")
                ))
            })?
        }
    };
    Ok(WireConfig {
        error: opt_u32(cfg, "error")?,
        noise_seed: get_u64_or(cfg, "noise_seed", 0)?,
        theta: opt_u64(cfg, "theta")?.map(|v| v as usize),
        ttl: opt_u32(cfg, "ttl")?,
        witness_hops: opt_u32(cfg, "witness_hops")?,
        backend,
    })
}

fn parse_create(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let config = parse_config(obj)?;
    let source = match (obj.get("scene"), obj.get("positions")) {
        (Some(scene), None) => {
            if scene.as_obj().is_none() {
                return Err(bad("'scene' must be an object"));
            }
            CreateSource::Scene(WireScene {
                scenario: get_str(scene, "scenario")?,
                surface: get_u64_or(scene, "surface", 150)? as usize,
                interior: get_u64_or(scene, "interior", 250)? as usize,
                degree: get_f64_or(scene, "degree", 13.0)?,
                seed: get_u64_or(scene, "seed", 0)?,
            })
        }
        (None, Some(pos)) => {
            let arr = pos.as_arr().ok_or_else(|| bad("'positions' must be an array"))?;
            let positions = arr
                .iter()
                .map(|p| parse_vec3(p, "each position"))
                .collect::<Parsed<Vec<[f64; 3]>>>()?;
            let range = get_f64_or(obj, "range", f64::NAN)?;
            if range.is_nan() || range <= 0.0 {
                return Err(bad("'range' must be a positive finite number"));
            }
            CreateSource::Positions { positions, range }
        }
        _ => return Err(bad("create needs exactly one of 'scene' or 'positions'")),
    };
    Ok(ServeRequest::Create { id, source, config })
}

fn parse_events(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let arr = obj
        .get("events")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("missing or non-array 'events'"))?;
    let mut events = Vec::with_capacity(arr.len());
    for ev in arr {
        let kind = get_str(ev, "kind")?;
        events.push(match kind.as_str() {
            "join" => WireEvent::Join {
                position: parse_vec3(
                    ev.get("position").ok_or_else(|| bad("join needs 'position'"))?,
                    "'position'",
                )?,
            },
            "leave" => WireEvent::Leave {
                node: get_u64_or(ev, "node", u64::MAX)
                    .ok()
                    .filter(|&n| n != u64::MAX)
                    .ok_or_else(|| bad("leave needs an integer 'node'"))?
                    as usize,
            },
            "move" => WireEvent::Move {
                node: get_u64_or(ev, "node", u64::MAX)
                    .ok()
                    .filter(|&n| n != u64::MAX)
                    .ok_or_else(|| bad("move needs an integer 'node'"))?
                    as usize,
                to: parse_vec3(ev.get("to").ok_or_else(|| bad("move needs 'to'"))?, "'to'")?,
            },
            other => return Err(bad(format!("unknown event kind '{other}'"))),
        });
    }
    Ok(ServeRequest::Events { id, events })
}

fn parse_snapshot(obj: &JsonValue) -> Parsed<WireSnapshot> {
    let snap = obj.get("snapshot").ok_or_else(|| bad("restore needs 'snapshot'"))?;
    if snap.as_obj().is_none() {
        return Err(bad("'snapshot' must be an object"));
    }
    let range = get_f64_or(snap, "range", f64::NAN)?;
    if range.is_nan() || range <= 0.0 {
        return Err(bad("snapshot 'range' must be a positive finite number"));
    }
    let positions = snap
        .get("positions")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("snapshot needs a 'positions' array"))?
        .iter()
        .map(|p| parse_vec3(p, "each snapshot position"))
        .collect::<Parsed<Vec<[f64; 3]>>>()?;
    let alive = parse_bool_vec(snap, "alive")?;
    Ok(WireSnapshot { range, positions, alive })
}

fn parse_detector(obj: &JsonValue) -> Parsed<WireDetector> {
    let det = obj.get("detector").ok_or_else(|| bad("restore needs 'detector'"))?;
    if det.as_obj().is_none() {
        return Err(bad("'detector' must be an object"));
    }
    let groups = det
        .get("groups")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("detector needs a 'groups' array"))?
        .iter()
        .map(|g| {
            g.as_arr()
                .ok_or_else(|| bad("each group must be an array"))?
                .iter()
                .map(|m| {
                    m.as_u64()
                        .map(|v| v as usize)
                        .ok_or_else(|| bad("group members must be integers"))
                })
                .collect::<Parsed<Vec<usize>>>()
        })
        .collect::<Parsed<Vec<Vec<usize>>>>()?;
    Ok(WireDetector {
        candidates: parse_bool_vec(det, "candidates")?,
        degenerate: parse_bool_vec(det, "degenerate")?,
        balls: parse_u64_vec(det, "balls")?,
        fragments: parse_u64_vec(det, "fragments")?.into_iter().map(|v| v as usize).collect(),
        boundary: parse_bool_vec(det, "boundary")?,
        groups,
    })
}

fn parse_restore(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let checkpoint = WireCheckpoint {
        epoch: get_u64_or(obj, "epoch", 0)?,
        injects: get_u64_or(obj, "injects", 0)?,
        config: parse_config(obj)?,
        snapshot: parse_snapshot(obj)?,
        detector: parse_detector(obj)?,
    };
    Ok(ServeRequest::Restore { id, checkpoint })
}

/// The largest `max_delay` an `inject` accepts. The fault engine's round
/// budget grows with the delay and every round walks the whole tenant, so
/// one inject holds its worker for time linear in `max_delay`.
const MAX_INJECT_DELAY: u32 = 64;

fn parse_inject(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let defaults = FaultKnobs::default();
    let faults = match obj.get("faults") {
        None => defaults,
        Some(f) => {
            if f.as_obj().is_none() {
                return Err(bad("'faults' must be an object"));
            }
            FaultKnobs {
                loss: get_unit_or(f, "loss", defaults.loss)?,
                duplication: get_unit_or(f, "duplication", defaults.duplication)?,
                max_delay: u32::try_from(get_u64_or(f, "max_delay", defaults.max_delay.into())?)
                    .ok()
                    .filter(|&d| d <= MAX_INJECT_DELAY)
                    .ok_or_else(|| {
                        bad(format!("'max_delay' must be at most {MAX_INJECT_DELAY}"))
                    })?,
                crash_fraction: get_unit_or(f, "crash_fraction", defaults.crash_fraction)?,
                crash_down: get_u64_or(f, "crash_down", defaults.crash_down as u64)? as usize,
                // Absent → the default recovery round; explicit null →
                // epoch-permanent crashes.
                crash_up: match f.get("crash_up") {
                    None => defaults.crash_up,
                    Some(JsonValue::Null) => None,
                    Some(v) => Some(
                        v.as_u64().ok_or_else(|| bad("'crash_up' must be an integer or null"))?
                            as usize,
                    ),
                },
                seed: get_u64_or(f, "seed", defaults.seed)?,
            }
        }
    };
    Ok(ServeRequest::Inject { id, faults })
}

/// Parses one request line into a [`ServeRequest`], mapping every
/// malformed input to a typed [`ServeError`].
pub fn parse_request(line: &str) -> Result<ServeRequest, ServeError> {
    let value = json::parse(line).map_err(|e| ServeError::BadJson { detail: e.to_string() })?;
    if value.as_obj().is_none() {
        return Err(bad("a request must be a JSON object"));
    }
    let op = get_str(&value, "op")?;
    match op.as_str() {
        "create" => parse_create(&value),
        "events" => parse_events(&value),
        "query" => {
            let id = get_str(&value, "id")?;
            let what = get_str(&value, "what")?;
            let what = QueryKind::by_name(&what)
                .ok_or_else(|| bad(format!("unknown query kind '{what}'")))?;
            Ok(ServeRequest::Query { id, what })
        }
        "checkpoint" => Ok(ServeRequest::Checkpoint { id: get_str(&value, "id")? }),
        "restore" => parse_restore(&value),
        "inject" => parse_inject(&value),
        "shutdown" => Ok(ServeRequest::Shutdown),
        _ => Err(ServeError::UnknownOp { op }),
    }
}

// ---------------------------------------------------------------------------
// Canonical encoding.

fn push_key(out: &mut String, key: &str) {
    json::push_str_literal(out, key);
    out.push(':');
}

fn push_usize_list(out: &mut String, xs: &[usize]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

fn push_u64_list(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

fn push_config(out: &mut String, cfg: &WireConfig) {
    out.push('{');
    push_key(out, "error");
    match cfg.error {
        Some(e) => out.push_str(&e.to_string()),
        None => out.push_str("null"),
    }
    out.push(',');
    push_key(out, "noise_seed");
    out.push_str(&cfg.noise_seed.to_string());
    for (key, v) in [
        ("theta", cfg.theta.map(|v| v as u64)),
        ("ttl", cfg.ttl.map(u64::from)),
        ("witness_hops", cfg.witness_hops.map(u64::from)),
    ] {
        out.push(',');
        push_key(out, key);
        match v {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push_str("null"),
        }
    }
    out.push(',');
    push_key(out, "backend");
    json::push_str_literal(out, cfg.backend.as_str());
    out.push('}');
}

fn push_checkpoint_body(out: &mut String, cp: &WireCheckpoint) {
    push_key(out, "epoch");
    out.push_str(&cp.epoch.to_string());
    out.push(',');
    push_key(out, "injects");
    out.push_str(&cp.injects.to_string());
    out.push(',');
    push_key(out, "config");
    push_config(out, &cp.config);
    out.push(',');
    push_key(out, "snapshot");
    out.push('{');
    push_key(out, "range");
    json::push_f64(out, cp.snapshot.range);
    out.push(',');
    push_key(out, "positions");
    out.push('[');
    for (i, p) in cp.snapshot.positions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_vec3(out, *p);
    }
    out.push(']');
    out.push(',');
    push_key(out, "alive");
    json::push_bool_list(out, &cp.snapshot.alive);
    out.push('}');
    out.push(',');
    push_key(out, "detector");
    out.push('{');
    push_key(out, "candidates");
    json::push_bool_list(out, &cp.detector.candidates);
    out.push(',');
    push_key(out, "degenerate");
    json::push_bool_list(out, &cp.detector.degenerate);
    out.push(',');
    push_key(out, "balls");
    push_u64_list(out, &cp.detector.balls);
    out.push(',');
    push_key(out, "fragments");
    push_usize_list(out, &cp.detector.fragments);
    out.push(',');
    push_key(out, "boundary");
    json::push_bool_list(out, &cp.detector.boundary);
    out.push(',');
    push_key(out, "groups");
    out.push('[');
    for (i, g) in cp.detector.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_usize_list(out, g);
    }
    out.push(']');
    out.push('}');
}

/// Encodes a request in canonical form (fixed key order, one line, no
/// trailing newline). `parse_request` inverts it.
pub fn encode_request(req: &ServeRequest) -> String {
    let mut out = String::new();
    out.push('{');
    push_key(&mut out, "op");
    match req {
        ServeRequest::Create { id, source, config } => {
            out.push_str("\"create\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            match source {
                CreateSource::Scene(scene) => {
                    push_key(&mut out, "scene");
                    out.push('{');
                    push_key(&mut out, "scenario");
                    json::push_str_literal(&mut out, &scene.scenario);
                    out.push(',');
                    push_key(&mut out, "surface");
                    out.push_str(&scene.surface.to_string());
                    out.push(',');
                    push_key(&mut out, "interior");
                    out.push_str(&scene.interior.to_string());
                    out.push(',');
                    push_key(&mut out, "degree");
                    json::push_f64(&mut out, scene.degree);
                    out.push(',');
                    push_key(&mut out, "seed");
                    out.push_str(&scene.seed.to_string());
                    out.push('}');
                }
                CreateSource::Positions { positions, range } => {
                    push_key(&mut out, "positions");
                    out.push('[');
                    for (i, p) in positions.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        json::push_vec3(&mut out, *p);
                    }
                    out.push(']');
                    out.push(',');
                    push_key(&mut out, "range");
                    json::push_f64(&mut out, *range);
                }
            }
            out.push(',');
            push_key(&mut out, "config");
            push_config(&mut out, config);
        }
        ServeRequest::Events { id, events } => {
            out.push_str("\"events\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_key(&mut out, "events");
            out.push('[');
            for (i, ev) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                push_key(&mut out, "kind");
                match ev {
                    WireEvent::Join { position } => {
                        out.push_str("\"join\",");
                        push_key(&mut out, "position");
                        json::push_vec3(&mut out, *position);
                    }
                    WireEvent::Leave { node } => {
                        out.push_str("\"leave\",");
                        push_key(&mut out, "node");
                        out.push_str(&node.to_string());
                    }
                    WireEvent::Move { node, to } => {
                        out.push_str("\"move\",");
                        push_key(&mut out, "node");
                        out.push_str(&node.to_string());
                        out.push(',');
                        push_key(&mut out, "to");
                        json::push_vec3(&mut out, *to);
                    }
                }
                out.push('}');
            }
            out.push(']');
        }
        ServeRequest::Query { id, what } => {
            out.push_str("\"query\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_key(&mut out, "what");
            json::push_str_literal(&mut out, what.as_str());
        }
        ServeRequest::Checkpoint { id } => {
            out.push_str("\"checkpoint\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
        }
        ServeRequest::Restore { id, checkpoint } => {
            out.push_str("\"restore\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_checkpoint_body(&mut out, checkpoint);
        }
        ServeRequest::Inject { id, faults } => {
            out.push_str("\"inject\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_key(&mut out, "faults");
            out.push('{');
            push_key(&mut out, "loss");
            json::push_f64(&mut out, faults.loss);
            out.push(',');
            push_key(&mut out, "duplication");
            json::push_f64(&mut out, faults.duplication);
            out.push(',');
            push_key(&mut out, "max_delay");
            out.push_str(&faults.max_delay.to_string());
            out.push(',');
            push_key(&mut out, "crash_fraction");
            json::push_f64(&mut out, faults.crash_fraction);
            out.push(',');
            push_key(&mut out, "crash_down");
            out.push_str(&faults.crash_down.to_string());
            out.push(',');
            push_key(&mut out, "crash_up");
            match faults.crash_up {
                Some(up) => out.push_str(&up.to_string()),
                None => out.push_str("null"),
            }
            out.push(',');
            push_key(&mut out, "seed");
            out.push_str(&faults.seed.to_string());
            out.push('}');
        }
        ServeRequest::Shutdown => {
            out.push_str("\"shutdown\"");
        }
    }
    out.push('}');
    out
}

/// Encodes a response in canonical form (fixed key order, one line, no
/// trailing newline).
pub fn encode_response(resp: &ServeResponse) -> String {
    let mut out = String::new();
    out.push('{');
    match resp {
        ServeResponse::Created { id, nodes, live, boundary, groups, balls } => {
            push_key(&mut out, "ok");
            out.push_str("\"create\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            for (key, v) in [
                ("nodes", *nodes as u64),
                ("live", *live as u64),
                ("boundary", *boundary as u64),
                ("groups", *groups as u64),
                ("balls", *balls),
            ] {
                out.push(',');
                push_key(&mut out, key);
                out.push_str(&v.to_string());
            }
        }
        ServeResponse::Applied {
            id,
            epoch,
            applied,
            promoted,
            demoted,
            regrouped,
            halo,
            balls,
            boundary,
            groups,
        } => {
            push_key(&mut out, "ok");
            out.push_str("\"events\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            for (key, v) in [
                ("epoch", *epoch),
                ("applied", *applied as u64),
                ("promoted", *promoted as u64),
                ("demoted", *demoted as u64),
                ("regrouped", *regrouped as u64),
                ("halo", *halo as u64),
                ("balls", *balls),
                ("boundary", *boundary as u64),
                ("groups", *groups as u64),
            ] {
                out.push(',');
                push_key(&mut out, key);
                out.push_str(&v.to_string());
            }
        }
        ServeResponse::BoundaryNodes { id, nodes } => {
            push_query_head(&mut out, id, QueryKind::Boundary);
            push_key(&mut out, "nodes");
            push_usize_list(&mut out, nodes);
        }
        ServeResponse::GroupList { id, groups } => {
            push_query_head(&mut out, id, QueryKind::Groups);
            push_key(&mut out, "groups");
            out.push('[');
            for (i, g) in groups.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_usize_list(&mut out, g);
            }
            out.push(']');
        }
        ServeResponse::FragmentList { id, fragments } => {
            push_query_head(&mut out, id, QueryKind::Fragments);
            push_key(&mut out, "fragments");
            out.push('[');
            for (i, (node, size)) in fragments.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&node.to_string());
                out.push(',');
                out.push_str(&size.to_string());
                out.push(']');
            }
            out.push(']');
        }
        ServeResponse::StatsRows { id, rows } => {
            push_query_head(&mut out, id, QueryKind::Stats);
            push_key(&mut out, "rows");
            out.push('[');
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                push_key(&mut out, "span");
                json::push_str_literal(&mut out, &r.span);
                for (key, v) in [
                    ("nodes", r.nodes),
                    ("rounds", r.rounds),
                    ("messages", r.messages),
                    ("bytes", r.bytes),
                    ("delivered", r.delivered),
                    ("dropped", r.dropped),
                    ("duplicated", r.duplicated),
                    ("delayed", r.delayed),
                    ("crash_lost", r.crash_lost),
                    ("ball_tests", r.ball_tests),
                    ("tested_nodes", r.tested_nodes),
                    ("retransmits", r.retransmits),
                    ("reforwards", r.reforwards),
                    ("verdicts", r.verdicts),
                    ("degraded", r.degraded),
                    ("unreached", r.unreached),
                ] {
                    out.push(',');
                    push_key(&mut out, key);
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
            out.push(']');
        }
        ServeResponse::MeshList { id, meshes } => {
            push_query_head(&mut out, id, QueryKind::Mesh);
            push_key(&mut out, "meshes");
            out.push('[');
            for (i, m) in meshes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                push_key(&mut out, "group");
                out.push_str(&m.group.to_string());
                for (key, v) in [
                    ("size", m.size as i64),
                    ("landmarks", m.landmarks as i64),
                    ("faces", m.faces as i64),
                    ("euler", m.euler),
                    ("manifold_ppm", m.manifold_ppm as i64),
                ] {
                    out.push(',');
                    push_key(&mut out, key);
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
            out.push(']');
        }
        ServeResponse::CheckpointTaken { id, checkpoint } => {
            push_key(&mut out, "ok");
            out.push_str("\"checkpoint\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_checkpoint_body(&mut out, checkpoint);
        }
        ServeResponse::Restored { id, nodes, live, boundary, groups } => {
            push_key(&mut out, "ok");
            out.push_str("\"restore\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            for (key, v) in
                [("nodes", *nodes), ("live", *live), ("boundary", *boundary), ("groups", *groups)]
            {
                out.push(',');
                push_key(&mut out, key);
                out.push_str(&v.to_string());
            }
        }
        ServeResponse::Injected {
            id,
            epoch,
            exact,
            cause,
            coverage_ppm,
            unreached,
            boundary,
            rounds,
            clean_rounds,
            repairs,
            exhausted,
            live,
            crashed,
        } => {
            push_key(&mut out, "ok");
            out.push_str("\"inject\",");
            push_key(&mut out, "id");
            json::push_str_literal(&mut out, id);
            out.push(',');
            push_key(&mut out, "epoch");
            out.push_str(&epoch.to_string());
            out.push(',');
            push_key(&mut out, "exact");
            out.push_str(if *exact { "true" } else { "false" });
            out.push(',');
            push_key(&mut out, "cause");
            json::push_str_literal(&mut out, cause);
            for (key, v) in [
                ("coverage_ppm", *coverage_ppm),
                ("unreached", *unreached as u64),
                ("boundary", *boundary as u64),
                ("rounds", *rounds as u64),
                ("clean_rounds", *clean_rounds as u64),
                ("repairs", *repairs),
                ("exhausted", *exhausted),
                ("live", *live as u64),
                ("crashed", *crashed as u64),
            ] {
                out.push(',');
                push_key(&mut out, key);
                out.push_str(&v.to_string());
            }
        }
        ServeResponse::ShutdownOk => {
            push_key(&mut out, "ok");
            out.push_str("\"shutdown\"");
        }
        ServeResponse::Error(err) => {
            push_key(&mut out, "err");
            json::push_str_literal(&mut out, err.code());
            out.push(',');
            push_key(&mut out, "detail");
            json::push_str_literal(&mut out, &err.detail());
        }
    }
    out.push('}');
    out
}

fn push_query_head(out: &mut String, id: &str, what: QueryKind) {
    push_key(out, "ok");
    out.push_str("\"query\",");
    push_key(out, "id");
    json::push_str_literal(out, id);
    out.push(',');
    push_key(out, "what");
    json::push_str_literal(out, what.as_str());
    out.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::Create {
                id: "a".to_string(),
                source: CreateSource::Scene(WireScene {
                    scenario: "box".to_string(),
                    surface: 40,
                    interior: 60,
                    degree: 12.5,
                    seed: 7,
                }),
                config: WireConfig { error: Some(0), ..WireConfig::default() },
            },
            ServeRequest::Create {
                id: "b".to_string(),
                source: CreateSource::Positions {
                    positions: vec![[0.0, 0.0, 0.0], [0.75, -0.25, 0.5]],
                    range: 1.0,
                },
                config: WireConfig { backend: WireBackend::Stat, ..WireConfig::default() },
            },
            ServeRequest::Events {
                id: "a".to_string(),
                events: vec![
                    WireEvent::Join { position: [1.0, 2.0, 3.0] },
                    WireEvent::Leave { node: 5 },
                    WireEvent::Move { node: 3, to: [-0.5, 0.25, 0.125] },
                ],
            },
            ServeRequest::Query { id: "a".to_string(), what: QueryKind::Boundary },
            ServeRequest::Checkpoint { id: "a".to_string() },
            ServeRequest::Restore {
                id: "c".to_string(),
                checkpoint: WireCheckpoint {
                    epoch: 2,
                    injects: 1,
                    config: WireConfig { theta: Some(12), ..WireConfig::default() },
                    snapshot: WireSnapshot {
                        range: 1.0,
                        positions: vec![[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
                        alive: vec![true, false],
                    },
                    detector: WireDetector {
                        candidates: vec![true, false],
                        degenerate: vec![false, false],
                        balls: vec![10, 0],
                        fragments: vec![2, 0],
                        boundary: vec![true, false],
                        groups: vec![vec![0]],
                    },
                },
            },
            ServeRequest::Inject {
                id: "a".to_string(),
                faults: FaultKnobs {
                    loss: 0.25,
                    crash_fraction: 0.1,
                    crash_up: None,
                    seed: 9,
                    ..FaultKnobs::default()
                },
            },
            ServeRequest::Shutdown,
        ]
    }

    #[test]
    fn canonical_encoding_round_trips_through_parse() {
        for req in sample_requests() {
            let line = encode_request(&req);
            let back = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
            // The canonical form is a fixed point.
            assert_eq!(encode_request(&back), line);
        }
    }

    #[test]
    fn permissive_parse_fills_defaults() {
        let req = parse_request(r#"{"op":"create","id":"x","scene":{"scenario":"sphere"}}"#)
            .expect("defaults fill in");
        match req {
            ServeRequest::Create { source: CreateSource::Scene(s), config, .. } => {
                assert_eq!(s.surface, 150);
                assert_eq!(s.interior, 250);
                assert_eq!(s.seed, 0);
                assert_eq!(config, WireConfig::default());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request(r#"{"op":"inject","id":"x"}"#).expect("fault defaults") {
            ServeRequest::Inject { faults, .. } => assert_eq!(faults, FaultKnobs::default()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_map_to_typed_errors() {
        let cases: Vec<(&str, &str)> = vec![
            ("{nope", "bad-json"),
            ("[1,2]", "bad-request"),
            (r#"{"op":"transmogrify"}"#, "unknown-op"),
            (r#"{"op":"create","id":"x"}"#, "bad-request"),
            (r#"{"op":"create","id":"x","positions":[[0,0]],"range":1}"#, "bad-request"),
            (r#"{"op":"create","id":"x","positions":[[0,0,0]],"range":-1}"#, "bad-request"),
            (r#"{"op":"create","id":"x","positions":[[0,0,1e999]],"range":1}"#, "bad-request"),
            (r#"{"op":"events","id":"x"}"#, "bad-request"),
            (r#"{"op":"events","id":"x","events":[{"kind":"warp","node":1}]}"#, "bad-request"),
            (r#"{"op":"query","id":"x","what":"entropy"}"#, "bad-request"),
            (r#"{"op":"inject","id":"x","faults":{"loss":1.5}}"#, "bad-request"),
            (r#"{"op":"restore","id":"x"}"#, "bad-request"),
            (
                r#"{"op":"create","id":"x","positions":[[0,0,0]],"range":1,"config":{"backend":"svw"}}"#,
                "bad-request",
            ),
            (
                r#"{"op":"create","id":"x","positions":[[0,0,0]],"range":1,"config":{"backend":7}}"#,
                "bad-request",
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code(), code, "{line} -> {err}");
        }
    }

    #[test]
    fn wire_backends_mirror_the_registry() {
        // One variant per registry name, same order, every name valid —
        // adding a backend to `ballfit_backends::NAMES` must extend
        // `WireBackend` too.
        let wire: Vec<&str> = WireBackend::ALL.iter().map(|b| b.as_str()).collect();
        assert_eq!(wire, ballfit_backends::NAMES.to_vec());
        for name in ballfit_backends::NAMES {
            let b = WireBackend::by_name(name).expect("registry name has a wire spelling");
            assert!(ballfit_backends::by_name(b.as_str()).is_some());
        }
        assert_eq!(WireBackend::default(), WireBackend::Ubf, "default backend is the reference");
    }

    #[test]
    fn backend_parses_permissively_and_encodes_canonically() {
        let req = parse_request(
            r#"{"op":"create","id":"x","positions":[[0,0,0]],"range":1,"config":{"backend":"stat"}}"#,
        )
        .expect("stat backend parses");
        match &req {
            ServeRequest::Create { config, .. } => assert_eq!(config.backend, WireBackend::Stat),
            other => panic!("unexpected {other:?}"),
        }
        let line = encode_request(&req);
        assert!(line.contains(r#""backend":"stat""#), "{line}");
        assert_eq!(parse_request(&line).expect("canonical form parses"), req);
    }

    #[test]
    fn error_responses_encode_code_and_detail() {
        let resp = ServeResponse::Error(ServeError::UnknownInstance { id: "q".to_string() });
        assert_eq!(
            encode_response(&resp),
            r#"{"err":"unknown-instance","detail":"no instance 'q'"}"#
        );
    }
}
