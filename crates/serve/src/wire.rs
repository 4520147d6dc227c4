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
//! below, which builds a [`ballfit_json`] value tree per message and
//! writes it once. A unit test pins one literal line per variant, and
//! `tests/serve.rs` pins that every request in a corpus survives
//! `encode_request → parse_request` unchanged.

use std::fmt;

use ballfit::config::DetectorConfig;
use ballfit::incremental::DetectorCheckpoint;
use ballfit_geom::Vec3;
use ballfit_json::{arr, obj, JsonValue};
use ballfit_obs::summary::ProtocolSummary;
use ballfit_wsn::churn::{TopologyEvent, TopologySnapshot};

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

impl From<TopologyEvent> for WireEvent {
    fn from(ev: TopologyEvent) -> Self {
        match ev {
            TopologyEvent::Join { position } => WireEvent::Join { position: position.into() },
            TopologyEvent::Leave { node } => WireEvent::Leave { node },
            TopologyEvent::Move { node, to } => WireEvent::Move { node, to: to.into() },
        }
    }
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
    pub snapshot: TopologySnapshot,
    /// The detector state, boxed because its config outweighs the rest
    /// of the checkpoint. The wire does not carry that config: it is
    /// always `config.to_detector()`, which the parser fills in.
    pub detector: Box<DetectorCheckpoint>,
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
        /// Summary rows, first-seen span order (a row's `name` is the
        /// wire's `"span"`).
        rows: Vec<ProtocolSummary>,
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
    Ok(opt_u64(obj, key)?.unwrap_or(default))
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

/// The array under `key`, each item read by `item`; `what` names the
/// item type in the error.
fn parse_list<T>(
    obj: &JsonValue,
    key: &str,
    item: fn(&JsonValue) -> Option<T>,
    what: &str,
) -> Parsed<Vec<T>> {
    let arr = obj
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad(format!("missing or non-array '{key}'")))?;
    arr.iter().map(|v| item(v).ok_or_else(|| bad(format!("'{key}' must contain {what}")))).collect()
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
            let scene = WireScene {
                scenario: get_str(scene, "scenario")?,
                surface: get_u64_or(scene, "surface", 150)? as usize,
                interior: get_u64_or(scene, "interior", 250)? as usize,
                degree: get_f64_or(scene, "degree", 13.0)?,
                seed: get_u64_or(scene, "seed", 0)?,
            };
            if scene.degree <= 0.0 {
                return Err(bad("'degree' must be a positive finite number"));
            }
            CreateSource::Scene(scene)
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
            "leave" => WireEvent::Leave { node: event_node(ev, "leave")? },
            "move" => WireEvent::Move {
                node: event_node(ev, "move")?,
                to: parse_vec3(ev.get("to").ok_or_else(|| bad("move needs 'to'"))?, "'to'")?,
            },
            other => return Err(bad(format!("unknown event kind '{other}'"))),
        });
    }
    Ok(ServeRequest::Events { id, events })
}

/// A `leave`/`move` event's slot (`u64::MAX` is refused, as if absent).
fn event_node(ev: &JsonValue, kind: &str) -> Parsed<usize> {
    ev.get("node")
        .and_then(JsonValue::as_u64)
        .filter(|&n| n != u64::MAX)
        .map(|n| n as usize)
        .ok_or_else(|| bad(format!("{kind} needs an integer 'node'")))
}

fn parse_snapshot(obj: &JsonValue) -> Parsed<TopologySnapshot> {
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
        .map(|p| parse_vec3(p, "each snapshot position").map(Vec3::from))
        .collect::<Parsed<Vec<Vec3>>>()?;
    let alive = parse_list(snap, "alive", JsonValue::as_bool, "booleans")?;
    Ok(TopologySnapshot { positions, alive, range })
}

fn parse_detector(obj: &JsonValue, config: DetectorConfig) -> Parsed<DetectorCheckpoint> {
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
    Ok(DetectorCheckpoint {
        config,
        candidates: parse_list(det, "candidates", JsonValue::as_bool, "booleans")?,
        degenerate: parse_list(det, "degenerate", JsonValue::as_bool, "booleans")?,
        balls: parse_list(det, "balls", JsonValue::as_u64, "integers")?,
        fragments: parse_list(det, "fragments", |v| v.as_u64().map(|v| v as usize), "integers")?,
        boundary: parse_list(det, "boundary", JsonValue::as_bool, "booleans")?,
        groups,
    })
}

fn parse_restore(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let epoch = get_u64_or(obj, "epoch", 0)?;
    let injects = get_u64_or(obj, "injects", 0)?;
    let config = parse_config(obj)?;
    let checkpoint = WireCheckpoint {
        epoch,
        injects,
        config,
        snapshot: parse_snapshot(obj)?,
        detector: Box::new(parse_detector(obj, config.to_detector())?),
    };
    Ok(ServeRequest::Restore { id, checkpoint })
}

/// The largest `max_delay`, `crash_down` and `crash_up` an `inject`
/// accepts. The simulator's round budget grows with the delay and with
/// the last crash round, and every round walks the whole tenant, so one
/// inject holds its worker for time linear in each of them.
const MAX_INJECT_ROUNDS: u64 = 64;

/// `key`'s round count, `default` when absent, refused past
/// [`MAX_INJECT_ROUNDS`].
fn get_rounds_or(obj: &JsonValue, key: &str, default: u64) -> Parsed<u64> {
    let rounds = get_u64_or(obj, key, default)?;
    if rounds > MAX_INJECT_ROUNDS {
        return Err(bad(format!("'{key}' must be at most {MAX_INJECT_ROUNDS}")));
    }
    Ok(rounds)
}

fn parse_inject(obj: &JsonValue) -> Parsed<ServeRequest> {
    let id = get_str(obj, "id")?;
    let defaults = FaultKnobs::default();
    let faults = match obj.get("faults") {
        None => defaults,
        Some(f) => {
            if f.as_obj().is_none() {
                return Err(bad("'faults' must be an object"));
            }
            let faults = FaultKnobs {
                loss: get_unit_or(f, "loss", defaults.loss)?,
                duplication: get_unit_or(f, "duplication", defaults.duplication)?,
                max_delay: get_rounds_or(f, "max_delay", defaults.max_delay.into())? as u32,
                crash_fraction: get_unit_or(f, "crash_fraction", defaults.crash_fraction)?,
                crash_down: get_rounds_or(f, "crash_down", defaults.crash_down as u64)? as usize,
                // Absent → the default recovery round; explicit null →
                // epoch-permanent crashes.
                crash_up: match f.get("crash_up") {
                    None => defaults.crash_up,
                    Some(JsonValue::Null) => None,
                    Some(_) => Some(get_rounds_or(f, "crash_up", 0)? as usize),
                },
                seed: get_u64_or(f, "seed", defaults.seed)?,
            };
            // A recovery before the crash recovers nobody, so the request
            // would silently run epoch-permanent crashes.
            if let Some(up) = faults.crash_up.filter(|&up| up < faults.crash_down) {
                let up = if f.get("crash_up").is_some() {
                    up.to_string()
                } else {
                    format!("default {up}")
                };
                return Err(bad(format!(
                    "'crash_up' ({up}) must not be below 'crash_down' ({})",
                    faults.crash_down
                )));
            }
            faults
        }
    };
    Ok(ServeRequest::Inject { id, faults })
}

/// Parses one request line into a [`ServeRequest`], mapping every
/// malformed input to a typed [`ServeError`].
pub fn parse_request(line: &str) -> Result<ServeRequest, ServeError> {
    let value =
        ballfit_json::parse(line).map_err(|e| ServeError::BadJson { detail: e.to_string() })?;
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
// Canonical encoding: one value tree per message, written once.

type Pairs<'a> = Vec<(&'a str, JsonValue)>;

fn config_json(cfg: &WireConfig) -> JsonValue {
    obj([
        ("error", cfg.error.into()),
        ("noise_seed", cfg.noise_seed.into()),
        ("theta", cfg.theta.into()),
        ("ttl", cfg.ttl.into()),
        ("witness_hops", cfg.witness_hops.into()),
        ("backend", cfg.backend.as_str().into()),
    ])
}

fn checkpoint_pairs(cp: &WireCheckpoint) -> [(&'static str, JsonValue); 5] {
    let (snap, det) = (&cp.snapshot, &cp.detector);
    [
        ("epoch", cp.epoch.into()),
        ("injects", cp.injects.into()),
        ("config", config_json(&cp.config)),
        (
            "snapshot",
            obj([
                ("range", snap.range.into()),
                ("positions", arr(snap.positions.iter().map(|p| p.to_array()))),
                ("alive", snap.alive.as_slice().into()),
            ]),
        ),
        (
            "detector",
            obj([
                ("candidates", det.candidates.as_slice().into()),
                ("degenerate", det.degenerate.as_slice().into()),
                ("balls", det.balls.as_slice().into()),
                ("fragments", det.fragments.as_slice().into()),
                ("boundary", det.boundary.as_slice().into()),
                ("groups", arr(det.groups.iter().map(Vec::as_slice))),
            ]),
        ),
    ]
}

fn event_json(ev: &WireEvent) -> JsonValue {
    match *ev {
        WireEvent::Join { position } => {
            obj([("kind", "join".into()), ("position", position.into())])
        }
        WireEvent::Leave { node } => obj([("kind", "leave".into()), ("node", node.into())]),
        WireEvent::Move { node, to } => {
            obj([("kind", "move".into()), ("node", node.into()), ("to", to.into())])
        }
    }
}

/// `key:op,"id":id` followed by `rest`: the head of every message that
/// names an instance (`key` is `"op"` in requests, `"ok"` in responses).
fn head<'a>(
    key: &'a str,
    op: &'a str,
    id: &str,
    rest: impl IntoIterator<Item = (&'a str, JsonValue)>,
) -> Pairs<'a> {
    let mut pairs = vec![(key, op.into()), ("id", id.into())];
    pairs.extend(rest);
    pairs
}

/// Encodes a request in canonical form (fixed key order, one line, no
/// trailing newline). `parse_request` inverts it.
pub fn encode_request(req: &ServeRequest) -> String {
    let pairs = match req {
        ServeRequest::Create { id, source, config } => {
            let source = match source {
                CreateSource::Scene(scene) => vec![(
                    "scene",
                    obj([
                        ("scenario", scene.scenario.as_str().into()),
                        ("surface", scene.surface.into()),
                        ("interior", scene.interior.into()),
                        ("degree", scene.degree.into()),
                        ("seed", scene.seed.into()),
                    ]),
                )],
                CreateSource::Positions { positions, range } => {
                    vec![("positions", arr(positions.iter().copied())), ("range", (*range).into())]
                }
            };
            head("op", "create", id, source.into_iter().chain([("config", config_json(config))]))
        }
        ServeRequest::Events { id, events } => {
            head("op", "events", id, [("events", arr(events.iter().map(event_json)))])
        }
        ServeRequest::Query { id, what } => {
            head("op", "query", id, [("what", what.as_str().into())])
        }
        ServeRequest::Checkpoint { id } => head("op", "checkpoint", id, []),
        ServeRequest::Restore { id, checkpoint } => {
            head("op", "restore", id, checkpoint_pairs(checkpoint))
        }
        ServeRequest::Inject { id, faults } => head(
            "op",
            "inject",
            id,
            [(
                "faults",
                obj([
                    ("loss", faults.loss.into()),
                    ("duplication", faults.duplication.into()),
                    ("max_delay", faults.max_delay.into()),
                    ("crash_fraction", faults.crash_fraction.into()),
                    ("crash_down", faults.crash_down.into()),
                    ("crash_up", faults.crash_up.into()),
                    ("seed", faults.seed.into()),
                ]),
            )],
        ),
        ServeRequest::Shutdown => vec![("op", "shutdown".into())],
    };
    obj(pairs).to_string()
}

/// A `query` answer: `"ok":"query","id":id,"what":what` and the payload.
fn answer<'a>(id: &str, what: QueryKind, key: &'a str, payload: JsonValue) -> Pairs<'a> {
    head("ok", "query", id, [("what", what.as_str().into()), (key, payload)])
}

fn stats_row_json(r: &ProtocolSummary) -> JsonValue {
    obj([
        ("span", r.name.as_str().into()),
        ("nodes", r.nodes.into()),
        ("rounds", r.rounds.into()),
        ("messages", r.messages.into()),
        ("bytes", r.bytes.into()),
        ("delivered", r.delivered.into()),
        ("dropped", r.dropped.into()),
        ("duplicated", r.duplicated.into()),
        ("delayed", r.delayed.into()),
        ("crash_lost", r.crash_lost.into()),
        ("ball_tests", r.ball_tests.into()),
        ("tested_nodes", r.tested_nodes.into()),
        ("retransmits", r.retransmits.into()),
        ("reforwards", r.reforwards.into()),
        ("verdicts", r.verdicts.into()),
        ("degraded", r.degraded.into()),
        ("unreached", r.unreached.into()),
    ])
}

fn mesh_row_json(m: &MeshRow) -> JsonValue {
    obj([
        ("group", m.group.into()),
        ("size", m.size.into()),
        ("landmarks", m.landmarks.into()),
        ("faces", m.faces.into()),
        ("euler", m.euler.into()),
        ("manifold_ppm", m.manifold_ppm.into()),
    ])
}

/// Encodes a response in canonical form (fixed key order, one line, no
/// trailing newline).
pub fn encode_response(resp: &ServeResponse) -> String {
    let pairs = match resp {
        ServeResponse::Created { id, nodes, live, boundary, groups, balls } => head(
            "ok",
            "create",
            id,
            [
                ("nodes", (*nodes).into()),
                ("live", (*live).into()),
                ("boundary", (*boundary).into()),
                ("groups", (*groups).into()),
                ("balls", (*balls).into()),
            ],
        ),
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
        } => head(
            "ok",
            "events",
            id,
            [
                ("epoch", (*epoch).into()),
                ("applied", (*applied).into()),
                ("promoted", (*promoted).into()),
                ("demoted", (*demoted).into()),
                ("regrouped", (*regrouped).into()),
                ("halo", (*halo).into()),
                ("balls", (*balls).into()),
                ("boundary", (*boundary).into()),
                ("groups", (*groups).into()),
            ],
        ),
        ServeResponse::BoundaryNodes { id, nodes } => {
            answer(id, QueryKind::Boundary, "nodes", nodes.as_slice().into())
        }
        ServeResponse::GroupList { id, groups } => {
            answer(id, QueryKind::Groups, "groups", arr(groups.iter().map(Vec::as_slice)))
        }
        ServeResponse::FragmentList { id, fragments } => answer(
            id,
            QueryKind::Fragments,
            "fragments",
            arr(fragments.iter().map(|&(node, size)| arr([node, size]))),
        ),
        ServeResponse::StatsRows { id, rows } => {
            answer(id, QueryKind::Stats, "rows", arr(rows.iter().map(stats_row_json)))
        }
        ServeResponse::MeshList { id, meshes } => {
            answer(id, QueryKind::Mesh, "meshes", arr(meshes.iter().map(mesh_row_json)))
        }
        ServeResponse::CheckpointTaken { id, checkpoint } => {
            head("ok", "checkpoint", id, checkpoint_pairs(checkpoint))
        }
        ServeResponse::Restored { id, nodes, live, boundary, groups } => head(
            "ok",
            "restore",
            id,
            [
                ("nodes", (*nodes).into()),
                ("live", (*live).into()),
                ("boundary", (*boundary).into()),
                ("groups", (*groups).into()),
            ],
        ),
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
        } => head(
            "ok",
            "inject",
            id,
            [
                ("epoch", (*epoch).into()),
                ("exact", (*exact).into()),
                ("cause", cause.as_str().into()),
                ("coverage_ppm", (*coverage_ppm).into()),
                ("unreached", (*unreached).into()),
                ("boundary", (*boundary).into()),
                ("rounds", (*rounds).into()),
                ("clean_rounds", (*clean_rounds).into()),
                ("repairs", (*repairs).into()),
                ("exhausted", (*exhausted).into()),
                ("live", (*live).into()),
                ("crashed", (*crashed).into()),
            ],
        ),
        ServeResponse::ShutdownOk => vec![("ok", "shutdown".into())],
        ServeResponse::Error(err) => {
            vec![("err", err.code().into()), ("detail", err.detail().into())]
        }
    };
    obj(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The canonical line of each value in
    /// `canonical_lines_are_pinned_byte_for_byte`, in order.
    const REQUEST_LINES: &str = r#"
        {"op":"create","id":"s\"1\\\n\u0001","scene":{"scenario":"two_holes","surface":90,"interior":140,"degree":12.5,"seed":18446744073709551615},"config":{"error":20,"noise_seed":5,"theta":16,"ttl":4,"witness_hops":2,"backend":"stat"}}
        {"op":"create","id":"p","positions":[[-0,0.1,1000000000000000000000],[0.30000000000000004,-2.5,0.0000001]],"range":1,"config":{"error":null,"noise_seed":0,"theta":null,"ttl":null,"witness_hops":null,"backend":"ubf"}}
        {"op":"events","id":"p","events":[{"kind":"join","position":[1,2,3]},{"kind":"leave","node":4},{"kind":"move","node":2,"to":[0.5,-0.25,0.125]}]}
        {"op":"query","id":"p","what":"fragments"}
        {"op":"checkpoint","id":"p"}
        {"op":"restore","id":"p","epoch":4,"injects":2,"config":{"error":0,"noise_seed":0,"theta":null,"ttl":3,"witness_hops":null,"backend":"ubf"},"snapshot":{"range":1.25,"positions":[[0,0,0],[1,-0.5,0.25]],"alive":[true,false]},"detector":{"candidates":[true,false],"degenerate":[false,true],"balls":[12,0],"fragments":[1,0],"boundary":[true,false],"groups":[[0],[]]}}
        {"op":"inject","id":"p","faults":{"loss":0.2,"duplication":0.01,"max_delay":2,"crash_fraction":0.1,"crash_down":2,"crash_up":null,"seed":77}}
        {"op":"shutdown"}
    "#;

    const RESPONSE_LINES: &str = r#"
        {"ok":"create","id":"p","nodes":200,"live":199,"boundary":80,"groups":1,"balls":18446744073709551615}
        {"ok":"events","id":"p","epoch":3,"applied":2,"promoted":1,"demoted":0,"regrouped":5,"halo":17,"balls":420,"boundary":81,"groups":2}
        {"ok":"query","id":"p","what":"boundary","nodes":[0,3,9]}
        {"ok":"query","id":"p","what":"groups","groups":[[0,3],[],[9]]}
        {"ok":"query","id":"p","what":"fragments","fragments":[[0,12],[3,1]]}
        {"ok":"query","id":"p","what":"stats","rows":[{"span":"ubf","nodes":1,"rounds":2,"messages":3,"bytes":4,"delivered":5,"dropped":6,"duplicated":7,"delayed":8,"crash_lost":9,"ball_tests":10,"tested_nodes":11,"retransmits":12,"reforwards":13,"verdicts":14,"degraded":15,"unreached":16}]}
        {"ok":"query","id":"p","what":"mesh","meshes":[{"group":1,"size":40,"landmarks":9,"faces":14,"euler":-2,"manifold_ppm":987654}]}
        {"ok":"checkpoint","id":"p","epoch":4,"injects":2,"config":{"error":0,"noise_seed":0,"theta":null,"ttl":3,"witness_hops":null,"backend":"ubf"},"snapshot":{"range":1.25,"positions":[[0,0,0],[1,-0.5,0.25]],"alive":[true,false]},"detector":{"candidates":[true,false],"degenerate":[false,true],"balls":[12,0],"fragments":[1,0],"boundary":[true,false],"groups":[[0],[]]}}
        {"ok":"restore","id":"p","nodes":2,"live":1,"boundary":1,"groups":1}
        {"ok":"inject","id":"p","epoch":1,"exact":false,"cause":"retry-exhausted","coverage_ppm":985000,"unreached":3,"boundary":78,"rounds":40,"clean_rounds":31,"repairs":6,"exhausted":1,"live":199,"crashed":10}
        {"ok":"shutdown"}
        {"err":"bad-json","detail":"eof"}
        {"err":"bad-request","detail":"no 'id'"}
        {"err":"unknown-op","detail":"unknown op 'w\"'"}
        {"err":"duplicate-instance","detail":"instance 'p' already exists"}
        {"err":"unknown-instance","detail":"no instance 'p'"}
        {"err":"dead-node","detail":"instance 'p': event references dead or out-of-range node 7"}
        {"err":"bad-scene","detail":"instance 'p': unknown scenario 'x'"}
        {"err":"after-shutdown","detail":"service is shut down"}
    "#;

    fn pinned_lines(lines: &'static str) -> Vec<&'static str> {
        lines.lines().map(str::trim).filter(|l| !l.is_empty()).collect()
    }

    /// Every variant's canonical line, byte for byte: scene and positions
    /// creates, all three event kinds, `crash_up: null`, every response
    /// and every error code. A round trip alone would not catch a
    /// reordered key, since `parse_request` accepts keys in any order.
    #[test]
    fn canonical_lines_are_pinned_byte_for_byte() {
        let p = || "p".to_string();
        let config = WireConfig { error: Some(0), ttl: Some(3), ..WireConfig::default() };
        let checkpoint = WireCheckpoint {
            epoch: 4,
            injects: 2,
            config,
            snapshot: TopologySnapshot {
                positions: vec![Vec3::ZERO, Vec3::new(1.0, -0.5, 0.25)],
                alive: vec![true, false],
                range: 1.25,
            },
            detector: Box::new(DetectorCheckpoint {
                config: config.to_detector(),
                candidates: vec![true, false],
                degenerate: vec![false, true],
                balls: vec![12, 0],
                fragments: vec![1, 0],
                boundary: vec![true, false],
                groups: vec![vec![0], vec![]],
            }),
        };
        let requests = [
            ServeRequest::Create {
                id: "s\"1\\\n\u{1}".to_string(),
                source: CreateSource::Scene(WireScene {
                    scenario: "two_holes".to_string(),
                    surface: 90,
                    interior: 140,
                    degree: 12.5,
                    seed: u64::MAX,
                }),
                config: WireConfig {
                    error: Some(20),
                    noise_seed: 5,
                    theta: Some(16),
                    ttl: Some(4),
                    witness_hops: Some(2),
                    backend: WireBackend::Stat,
                },
            },
            ServeRequest::Create {
                id: p(),
                source: CreateSource::Positions {
                    positions: vec![[-0.0, 0.1, 1e21], [0.30000000000000004, -2.5, 1e-7]],
                    range: 1.0,
                },
                config: WireConfig::default(),
            },
            ServeRequest::Events {
                id: p(),
                events: vec![
                    WireEvent::Join { position: [1.0, 2.0, 3.0] },
                    WireEvent::Leave { node: 4 },
                    WireEvent::Move { node: 2, to: [0.5, -0.25, 0.125] },
                ],
            },
            ServeRequest::Query { id: p(), what: QueryKind::Fragments },
            ServeRequest::Checkpoint { id: p() },
            ServeRequest::Restore { id: p(), checkpoint: checkpoint.clone() },
            ServeRequest::Inject {
                id: p(),
                faults: FaultKnobs {
                    loss: 0.2,
                    duplication: 0.01,
                    max_delay: 2,
                    crash_fraction: 0.1,
                    crash_down: 2,
                    crash_up: None,
                    seed: 77,
                },
            },
            ServeRequest::Shutdown,
        ];
        let lines = pinned_lines(REQUEST_LINES);
        assert_eq!(lines.len(), requests.len());
        for (req, line) in requests.iter().zip(lines) {
            assert_eq!(encode_request(req), line);
            assert_eq!(parse_request(line).as_ref(), Ok(req), "{line}");
        }

        let row = ProtocolSummary {
            name: "ubf".to_string(),
            nodes: 1,
            rounds: 2,
            messages: 3,
            bytes: 4,
            delivered: 5,
            dropped: 6,
            duplicated: 7,
            delayed: 8,
            crash_lost: 9,
            ball_tests: 10,
            tested_nodes: 11,
            retransmits: 12,
            reforwards: 13,
            verdicts: 14,
            degraded: 15,
            unreached: 16,
        };
        let mesh = MeshRow {
            group: 1,
            size: 40,
            landmarks: 9,
            faces: 14,
            euler: -2,
            manifold_ppm: 987_654,
        };
        let responses = [
            ServeResponse::Created {
                id: p(),
                nodes: 200,
                live: 199,
                boundary: 80,
                groups: 1,
                balls: u64::MAX,
            },
            ServeResponse::Applied {
                id: p(),
                epoch: 3,
                applied: 2,
                promoted: 1,
                demoted: 0,
                regrouped: 5,
                halo: 17,
                balls: 420,
                boundary: 81,
                groups: 2,
            },
            ServeResponse::BoundaryNodes { id: p(), nodes: vec![0, 3, 9] },
            ServeResponse::GroupList { id: p(), groups: vec![vec![0, 3], vec![], vec![9]] },
            ServeResponse::FragmentList { id: p(), fragments: vec![(0, 12), (3, 1)] },
            ServeResponse::StatsRows { id: p(), rows: vec![row] },
            ServeResponse::MeshList { id: p(), meshes: vec![mesh] },
            ServeResponse::CheckpointTaken { id: p(), checkpoint },
            ServeResponse::Restored { id: p(), nodes: 2, live: 1, boundary: 1, groups: 1 },
            ServeResponse::Injected {
                id: p(),
                epoch: 1,
                exact: false,
                cause: "retry-exhausted".to_string(),
                coverage_ppm: 985_000,
                unreached: 3,
                boundary: 78,
                rounds: 40,
                clean_rounds: 31,
                repairs: 6,
                exhausted: 1,
                live: 199,
                crashed: 10,
            },
            ServeResponse::ShutdownOk,
            ServeResponse::Error(ServeError::BadJson { detail: "eof".to_string() }),
            ServeResponse::Error(ServeError::BadRequest { detail: "no 'id'".to_string() }),
            ServeResponse::Error(ServeError::UnknownOp { op: "w\"".to_string() }),
            ServeResponse::Error(ServeError::DuplicateInstance { id: p() }),
            ServeResponse::Error(ServeError::UnknownInstance { id: p() }),
            ServeResponse::Error(ServeError::DeadNode { id: p(), node: 7 }),
            ServeResponse::Error(ServeError::BadScene {
                id: p(),
                detail: "unknown scenario 'x'".to_string(),
            }),
            ServeResponse::Error(ServeError::AfterShutdown),
        ];
        let lines = pinned_lines(RESPONSE_LINES);
        assert_eq!(lines.len(), responses.len());
        for (resp, line) in responses.iter().zip(lines) {
            assert_eq!(encode_response(resp), line);
        }
    }
}
