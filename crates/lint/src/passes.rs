//! The token-level passes, the scope tracker they share, and the
//! interprocedural passes built on [`crate::callgraph`].
//!
//! Scope recognition is purely structural: when a `{` opens, the tokens
//! between it and the previous `{` / `}` / `;` form its "header". A header
//! containing `mod` under a `#[cfg(test)]` attribute (or named `tests`)
//! opens a test scope; a header of the form `impl .. Protocol for .. `
//! opens a protocol-impl scope. Files under a `tests/` directory are test
//! code throughout.
//!
//! Token-level passes ([`analyze_source`]):
//!
//! * **locality** — inside protocol impls, naming a whole-network type or
//!   calling a global-state method.
//! * **panic-safety** — inside non-test protocol impls, an `unwrap`-family
//!   call, a `panic!`-family macro or direct indexing.
//! * **float-safety** — outside test code and `geom::predicates`, no
//!   `partial_cmp(..).unwrap()` and no `==`/`!=` against a float literal.
//! * **the scope table** — one [`ScopeRule`] per `*-scope` pass. A row's
//!   identifier is a finding inside any protocol impl, test code included,
//!   and outside the row's home paths in non-test code; a row without home
//!   paths checks protocol impls only.
//!
//! Interprocedural passes ([`analyze_files`]) follow the call graph from
//! each sink to the nearest fn carrying a source and report the chain:
//!
//! * **determinism-taint** — protocol fns and
//!   [`LintConfig::taint_entry_points`] must not reach `HashMap`,
//!   `HashSet`, `RandomState`, `thread_rng`, `from_entropy` or a
//!   wall-clock `now()`.
//! * **panic-reachability** and **transitive-locality** — protocol fns must
//!   not reach the panic-safety and locality sources through helpers; each
//!   invariant's sources are one matcher, shared with its direct pass. The
//!   `Ctx` API ([`LintConfig::trusted_owners`]) is terminal.
//! * **stale-allow** — every `// ballfit-lint: allow(pass)` directive must
//!   suppress a finding or excuse a transitive source.
//!
//! An `allow(<transitive pass>)` at a source site marks an audited
//! invariant and excuses that source for every chain through it.

use crate::callgraph::{CallGraph, FileUnit, FnNode};
use crate::lexer::{is_float_literal, lex, Lexed, Tok, TokKind};

/// The fourteen passes (ten token-level, four interprocedural).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// No global-state accessors inside `Protocol` trait impls.
    Locality,
    /// No `unwrap`/`expect`/`panic!`/indexing in protocol round handlers.
    PanicSafety,
    /// No NaN-unsafe `partial_cmp().unwrap()` and no `==` on floats
    /// outside `geom::predicates`.
    FloatSafety,
    /// Scope-table row: the fault-injection layer.
    FaultScope,
    /// Scope-table row: the dynamic-network (churn) layer.
    ChurnScope,
    /// Scope-table row: threading and the `ballfit-par` pool.
    ParScope,
    /// Scope-table row: the trace-emission API.
    ObsScope,
    /// Scope-table row: the checkpoint/restore API.
    RecoveryScope,
    /// Scope-table row: the multi-tenant service API.
    ServeScope,
    /// Scope-table row: the pluggable-backend API.
    BackendScope,
    /// Interprocedural: protocol fns and detector entry points must not
    /// transitively reach nondeterminism sources.
    DeterminismTaint,
    /// Interprocedural: protocol fns must not transitively reach
    /// `unwrap`/`expect`/`panic!`/indexing outside annotated invariants.
    PanicReachability,
    /// Interprocedural: protocol fns must not reach global-state
    /// accessors through helpers.
    TransitiveLocality,
    /// Workspace audit: every `allow(...)` directive must suppress a
    /// finding or annotate a transitive source.
    StaleAllow,
}

impl Pass {
    /// The name used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Locality => "locality",
            Pass::PanicSafety => "panic-safety",
            Pass::FloatSafety => "float-safety",
            Pass::FaultScope => "fault-scope",
            Pass::ChurnScope => "churn-scope",
            Pass::ParScope => "par-scope",
            Pass::ObsScope => "obs-scope",
            Pass::RecoveryScope => "recovery-scope",
            Pass::ServeScope => "serve-scope",
            Pass::BackendScope => "backend-scope",
            Pass::DeterminismTaint => "determinism-taint",
            Pass::PanicReachability => "panic-reachability",
            Pass::TransitiveLocality => "transitive-locality",
            Pass::StaleAllow => "stale-allow",
        }
    }

    /// All passes in report order.
    pub const ALL: [Pass; 14] = [
        Pass::Locality,
        Pass::PanicSafety,
        Pass::FloatSafety,
        Pass::FaultScope,
        Pass::ChurnScope,
        Pass::ParScope,
        Pass::ObsScope,
        Pass::RecoveryScope,
        Pass::ServeScope,
        Pass::BackendScope,
        Pass::DeterminismTaint,
        Pass::PanicReachability,
        Pass::TransitiveLocality,
        Pass::StaleAllow,
    ];
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which pass fired.
    pub pass: Pass,
    /// File the finding is in (as given to [`analyze_source`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with a suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}",
            self.pass.name(),
            self.message,
            self.file,
            self.line
        )
    }
}

/// One row of the scope table: identifiers that are a finding inside any
/// `Protocol` impl and, when the row has home paths, anywhere outside them
/// in non-test code.
#[derive(Debug, Clone)]
pub struct ScopeRule {
    /// The pass the row reports as; its name is the `allow(...)` spelling.
    pub pass: Pass,
    /// The banned identifiers. A trailing `::` (`thread::`) matches the
    /// identifier only as a path segment.
    pub idents: Vec<String>,
    /// Path fragments where the identifiers are at home in non-test code.
    /// Empty: the row checks `Protocol` impls only.
    pub home_paths: Vec<String>,
    /// Why the identifiers are banned; ends every finding's message.
    pub reason: String,
}

/// Analyzer configuration. [`LintConfig::default`] encodes the ballfit
/// workspace policy as plain data.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate directory names (under `crates/`) the analyzer scans.
    pub crates: Vec<String>,
    /// Trait names whose impls form protocol scopes.
    pub protocol_traits: Vec<String>,
    /// Method names that read global state and are therefore denied
    /// inside protocol impls (anything beyond `neighbors(id)`-style
    /// 1-hop queries).
    pub locality_denied_methods: Vec<String>,
    /// Type names that *are* global state; naming them inside a protocol
    /// impl is a locality violation regardless of what is called on them.
    pub locality_denied_types: Vec<String>,
    /// Path suffixes exempt from the float-safety `==` check.
    pub float_exempt_files: Vec<String>,
    /// The scope table, one row per `*-scope` pass.
    pub scope_rules: Vec<ScopeRule>,
    /// `(alias, crate-dir)` pairs mapping `use ballfit_wsn::..`-style
    /// crate names to the `crates/<dir>` layout, so cross-crate paths
    /// resolve in the call graph.
    pub crate_aliases: Vec<(String, String)>,
    /// Method names excluded from by-name fallback resolution in the
    /// call graph: they collide with std (`insert`, `len`, `iter`, ...)
    /// and an unknown receiver would otherwise connect every data
    /// structure user to every workspace type with that method.
    pub method_fallback_skip: Vec<String>,
    /// Owner types whose methods are a verified API boundary: the
    /// interprocedural passes stop traversal there (`Ctx` — its
    /// internals belong to the simulator, and its `send` assert *is*
    /// the locality guard).
    pub trusted_owners: Vec<String>,
    /// `Owner::name` labels of detector entry points that must be
    /// determinism-taint-free in addition to all protocol fns: these are
    /// the public seams the reproduction's same-seed ⇒ same-boundary
    /// claim is stated over.
    pub taint_entry_points: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let rule = |pass, idents: &[&str], home_paths: &[&str], reason: &str| ScopeRule {
            pass,
            idents: s(idents),
            home_paths: s(home_paths),
            reason: reason.to_string(),
        };
        LintConfig {
            crates: s(&[
                "core", "wsn", "geom", "mds", "netgen", "par", "obs", "serve", "backends", "json",
            ]),
            protocol_traits: s(&["Protocol"]),
            locality_denied_methods: s(&[
                // NetworkModel: ground truth a real node cannot observe.
                "positions",
                "true_distance",
                "oracle",
                "measure",
                "surface_indices",
                "is_surface",
                // Topology: whole-graph queries beyond the node's own
                // 1-hop view (`neighbors`, `degree`, `are_neighbors`,
                // `len` stay allowed).
                "edge_count",
                "closed_neighborhood",
                "closed_k_hop_neighborhood",
                "hop_distances",
                "is_connected",
                "isolated_nodes",
                "degree_stats",
            ]),
            locality_denied_types: s(&[
                "NetworkModel",
                "Topology",
                "Simulator",
                "BoundaryDetector",
            ]),
            float_exempt_files: s(&["geom/src/predicates.rs"]),
            // Fault and churn keep home paths: they are module-level
            // policies inside crates that already depend on `ballfit-wsn`,
            // which the Cargo graph cannot express. The other rows'
            // outside halves are the Cargo graph (serve, backends) or
            // `clippy.toml` (threading).
            scope_rules: vec![
                rule(
                    Pass::FaultScope,
                    &[
                        "FaultPlan",
                        "FaultCounts",
                        "Crash",
                        "run_with_faults",
                        "SplitMix64",
                        "Xoshiro256PlusPlus",
                    ],
                    &["crates/wsn/", "crates/core/src/protocols.rs", "crates/core/src/chaos.rs"],
                    "protocols stay fault-oblivious — fault injection belongs to the simulator and the runner layer, and hardening may only retransmit and acknowledge over `Ctx`",
                ),
                rule(
                    Pass::ChurnScope,
                    &[
                        "ChurnPlan",
                        "ChurnEvent",
                        "ChurnAction",
                        "TopologyEvent",
                        "TopologyDelta",
                        "DynamicTopology",
                        "IncrementalDetector",
                        "BoundaryDiff",
                        "ChurnDriver",
                    ],
                    &[
                        "crates/wsn/",
                        "crates/core/src/incremental.rs",
                        "crates/core/src/chaos.rs",
                        "crates/netgen/src/churn.rs",
                        "crates/serve/",
                    ],
                    "a node sees only its current neighbors through `Ctx`, and the static pipeline stays oblivious to topology change",
                ),
                rule(
                    Pass::ParScope,
                    &[
                        "thread::",
                        "JoinHandle",
                        "Mutex",
                        "RwLock",
                        "Condvar",
                        "Barrier",
                        "mpsc",
                        "available_parallelism",
                        "AtomicUsize",
                        "AtomicIsize",
                        "AtomicBool",
                        "AtomicU32",
                        "AtomicU64",
                        "AtomicI32",
                        "AtomicI64",
                        "Parallelism",
                        "par_map",
                        "par_map_init",
                        "par_map_owned",
                        "par_for_each_init",
                    ],
                    &[],
                    "a simulated node is a single-threaded message handler, and parallelism, even the deterministic pool, is an orchestration concern",
                ),
                // `MsgBytes` is deliberately absent: the `Protocol::Msg`
                // bound requires it.
                rule(
                    Pass::ObsScope,
                    &[
                        "Trace",
                        "TraceEvent",
                        "TraceRecord",
                        "TraceSummary",
                        "summarize",
                        "to_jsonl",
                        "write_jsonl",
                        "SpanId",
                    ],
                    &[],
                    "only the simulator, the detectors and the runners emit traces — message handlers stay observation-free",
                ),
                rule(
                    Pass::RecoveryScope,
                    &["TopologySnapshot", "DetectorCheckpoint", "checkpoint", "restore", "snapshot"],
                    &[],
                    "checkpoint/restore is an orchestration concern, and a handler snapshotting or restoring its own state would break replay byte-identity",
                ),
                rule(
                    Pass::ServeScope,
                    &[
                        "Service",
                        "ServeRequest",
                        "ServeResponse",
                        "ServeError",
                        "serve_log",
                        "serve_jsonl",
                        "serve_transcript",
                        "run_stdio",
                    ],
                    &[],
                    "the service layer sits above the simulator, and a message handler must not talk to the daemon",
                ),
                rule(
                    Pass::BackendScope,
                    &["BoundaryBackend", "BackendDetection", "UbfBackend", "StatisticalBackend"],
                    &[],
                    "backends adapt whole detection pipelines from above, and a message handler must not reach up into them",
                ),
            ],
            crate_aliases: [
                ("ballfit", "core"),
                ("ballfit_wsn", "wsn"),
                ("ballfit_geom", "geom"),
                ("ballfit_mds", "mds"),
                ("ballfit_netgen", "netgen"),
                ("ballfit_par", "par"),
                ("ballfit_obs", "obs"),
                ("ballfit_serve", "serve"),
                ("ballfit_backends", "backends"),
                ("ballfit_json", "json"),
            ]
            .iter()
            .map(|(a, k)| (a.to_string(), k.to_string()))
            .collect(),
            method_fallback_skip: s(&[
                // std collection / iterator / option / slice vocabulary:
                // by-name fallback on these would wire the graph into a
                // clique through BTreeMap and Vec call sites.
                "len",
                "is_empty",
                "get",
                "get_mut",
                "insert",
                "remove",
                "push",
                "pop",
                "clear",
                "contains",
                "contains_key",
                "iter",
                "iter_mut",
                "into_iter",
                "next",
                "clone",
                "cmp",
                "eq",
                "ne",
                "hash",
                "fmt",
                "map",
                "and_then",
                "or_else",
                "unwrap_or",
                "unwrap_or_else",
                "unwrap_or_default",
                "is_some",
                "is_none",
                "is_some_and",
                "is_none_or",
                "is_ok",
                "is_err",
                "ok",
                "err",
                "as_ref",
                "as_mut",
                "as_str",
                "as_slice",
                "as_bytes",
                "to_string",
                "to_vec",
                "to_owned",
                "into",
                "from",
                "extend",
                "entry",
                "or_default",
                "or_insert",
                "or_insert_with",
                "keys",
                "values",
                "sort",
                "sort_by",
                "sort_by_key",
                "sort_unstable",
                "sort_unstable_by",
                "dedup",
                "retain",
                "drain",
                "split_last",
                "split_first",
                "split_once",
                "binary_search",
                "binary_search_by",
                "windows",
                "chunks",
                "first",
                "last",
                "min",
                "max",
                "abs",
                "sqrt",
                "powi",
                "powf",
                "floor",
                "ceil",
                "round",
                "total_cmp",
                "partial_cmp",
                "max_by",
                "min_by",
                "max_by_key",
                "min_by_key",
                "count",
                "sum",
                "product",
                "fold",
                "filter",
                "filter_map",
                "flat_map",
                "flatten",
                "collect",
                "rev",
                "zip",
                "enumerate",
                "take",
                "skip",
                "chain",
                "any",
                "all",
                "find",
                "position",
                "copied",
                "cloned",
                "starts_with",
                "ends_with",
                "trim",
                "split",
                "join",
                "push_str",
                "saturating_sub",
                "saturating_add",
                "wrapping_sub",
                "wrapping_add",
                "checked_sub",
                "checked_add",
                "to_bits",
                "from_bits",
                "swap",
                "resize",
                "truncate",
                "reserve",
                "with_capacity",
                "new",
                "default",
                "range",
                "append",
                "peek",
                "min_element",
                "max_element",
                "mul_add",
                "hypot",
                "clamp",
                "rem_euclid",
                "div_euclid",
                "write",
                "read",
                "flush",
                "take_while",
                "skip_while",
                "step_by",
                "then",
                "then_some",
                "then_with",
                "replace",
                "take_mut",
                "get_or_insert_with",
                "expect",
                "unwrap",
            ]),
            trusted_owners: s(&["Ctx"]),
            taint_entry_points: s(&[
                "BoundaryDetector::detect",
                "BoundaryDetector::detect_view",
                "BoundaryDetector::detect_view_traced",
                "IncrementalDetector::apply",
                "IncrementalDetector::apply_traced",
                "UbfBackend::detect",
                "StatisticalBackend::detect",
            ]),
        }
    }
}

/// Per-token scope flags computed by one forward walk.
#[derive(Debug, Clone, Copy, Default)]
struct ScopeFlags {
    in_test: bool,
    in_protocol_impl: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    TestMod,
    ProtocolImpl,
}

/// Computes, for every token index, whether it sits inside a test module
/// and/or a `Protocol` trait impl.
fn scope_flags(toks: &[Tok], cfg: &LintConfig) -> Vec<ScopeFlags> {
    let mut flags = vec![ScopeFlags::default(); toks.len()];
    let mut stack: Vec<ScopeKind> = Vec::new();
    let mut current = ScopeFlags::default();
    for (i, t) in toks.iter().enumerate() {
        flags[i] = current;
        if t.is_punct("{") {
            let kind = classify_header(toks, i, cfg);
            stack.push(kind);
            match kind {
                ScopeKind::TestMod => current.in_test = true,
                ScopeKind::ProtocolImpl => current.in_protocol_impl = true,
                ScopeKind::Block => {}
            }
            flags[i] = current;
        } else if t.is_punct("}") {
            stack.pop();
            current = ScopeFlags {
                in_test: stack.contains(&ScopeKind::TestMod),
                in_protocol_impl: stack.contains(&ScopeKind::ProtocolImpl),
            };
            flags[i] = current;
        }
    }
    flags
}

/// Classifies the scope opened by the `{` at index `open`, by inspecting
/// the header tokens back to the previous `{`, `}`, or `;`.
fn classify_header(toks: &[Tok], open: usize, cfg: &LintConfig) -> ScopeKind {
    let mut start = open;
    while start > 0 {
        let p = &toks[start - 1];
        if p.is_punct("{") || p.is_punct("}") || p.is_punct(";") {
            break;
        }
        start -= 1;
    }
    let header = &toks[start..open];

    // `mod <name>` headers: test if `#[cfg(test)]`-attributed or named
    // `tests` (the workspace convention).
    if let Some(m) = header.iter().position(|t| t.is_ident("mod")) {
        let named_tests = header.get(m + 1).is_some_and(|t| t.is_ident("tests"));
        let cfg_test = header.windows(4).any(|w| {
            w[0].is_ident("cfg")
                && w[1].is_punct("(")
                && w[2].is_ident("test")
                && w[3].is_punct(")")
        });
        if named_tests || cfg_test {
            return ScopeKind::TestMod;
        }
    }

    // `impl .. <ProtocolTrait> for <Type>` headers.
    if header.first().is_some_and(|t| t.is_ident("impl")) {
        if let Some(f) = header.iter().position(|t| t.is_ident("for")) {
            if f > 0
                && header[f - 1].kind == TokKind::Ident
                && cfg.protocol_traits.contains(&header[f - 1].text)
            {
                return ScopeKind::ProtocolImpl;
            }
        }
    }
    ScopeKind::Block
}

/// Runs the token-level passes over one source file.
///
/// `file` is the label used in diagnostics *and* for path-based policy
/// (test files under a `tests/` directory are treated as test code; the
/// float-safety exemption list matches on path suffix). The
/// interprocedural passes need the whole workspace at once — use
/// [`analyze_files`] for those.
pub fn analyze_source(file: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mut allow_used = vec![false; lexed.allows.len()];
    direct_diagnostics(file, &lexed, cfg, &mut allow_used)
}

/// The token-level passes, with allow-directive usage tracked into
/// `allow_used` (parallel to `lexed.allows`) for the stale-allow audit.
fn direct_diagnostics(
    file: &str,
    lexed: &Lexed,
    cfg: &LintConfig,
    allow_used: &mut [bool],
) -> Vec<Diagnostic> {
    let toks = &lexed.toks;
    let flags = scope_flags(toks, cfg);
    let file_is_test = file.contains("/tests/") || file.ends_with("/build.rs");
    let float_exempt = cfg.float_exempt_files.iter().any(|s| file.ends_with(s.as_str()));
    // Rows whose outside half applies to this file.
    let away: Vec<bool> = cfg
        .scope_rules
        .iter()
        .map(|r| {
            !r.home_paths.is_empty() && !r.home_paths.iter().any(|h| file.contains(h.as_str()))
        })
        .collect();

    let mut out = Vec::new();
    let mut push = |pass: Pass, line: u32, message: String| {
        let mut suppressed = false;
        for (idx, (l, p)) in lexed.allows.iter().enumerate() {
            if (p == pass.name() || p == "all") && (*l == line || *l + 1 == line) {
                suppressed = true;
                allow_used[idx] = true;
            }
        }
        if !suppressed {
            out.push(Diagnostic { pass, file: file.to_string(), line, message });
        }
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        let in_test = file_is_test || flags[i].in_test;
        let in_proto = flags[i].in_protocol_impl;

        if in_proto {
            if let Some(desc) = locality_source(toks, i, cfg) {
                push(
                    Pass::Locality,
                    t.line,
                    format!("{desc} reads whole-network state inside a protocol impl; handlers may only use per-node state and `Ctx` (the paper's 1-hop contract)"),
                );
            }
            if let Some(desc) = panic_source(toks, i).filter(|_| !in_test) {
                push(
                    Pass::PanicSafety,
                    t.line,
                    format!("{desc} in a protocol round handler can take the whole simulated network down; handle the failure arm (`.get()`, early return)"),
                );
            }
        }

        for (rule, &away) in cfg.scope_rules.iter().zip(&away) {
            if (in_proto || (away && !in_test)) && rule.idents.iter().any(|id| names(id, toks, i)) {
                let place = if in_proto {
                    "inside a protocol impl".to_string()
                } else {
                    format!("outside {}", rule.home_paths.join(", "))
                };
                push(rule.pass, t.line, format!("`{}` {place}; {}", t.text, rule.reason));
            }
        }

        if !in_test && !float_exempt {
            if t.is_ident("partial_cmp") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                if let Some(j) = skip_balanced_parens(toks, i + 1) {
                    if toks.get(j).is_some_and(|n| n.is_punct("."))
                        && toks
                            .get(j + 1)
                            .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                    {
                        push(
                            Pass::FloatSafety,
                            t.line,
                            "`partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp` for a total order".to_string(),
                        );
                    }
                }
            }
            if t.is_punct("==") || t.is_punct("!=") {
                let float_beside = float_operand(toks, i.wrapping_sub(1), false)
                    || float_operand(toks, i + 1, true);
                if float_beside {
                    push(
                        Pass::FloatSafety,
                        t.line,
                        format!(
                            "`{}` against a float literal is exact-equality on f64; compare with a tolerance or justify with `// ballfit-lint: allow(float-safety)`",
                            t.text
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Workspace-level analysis result: all diagnostics (token-level +
/// interprocedural) plus the symbol-table sizes the report records.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by (file, line, pass, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files analyzed.
    pub files: usize,
    /// Number of functions in the workspace symbol table.
    pub functions: usize,
}

/// The three transitive sink→source passes share one driver; this names
/// the per-pass specifics.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Transitive {
    Determinism,
    Panic,
    Locality,
}

impl Transitive {
    fn pass(self) -> Pass {
        match self {
            Transitive::Determinism => Pass::DeterminismTaint,
            Transitive::Panic => Pass::PanicReachability,
            Transitive::Locality => Pass::TransitiveLocality,
        }
    }
}

/// Runs every pass over a set of in-memory files. This is the
/// primary entry point: [`crate::analyze_workspace`] reads the
/// workspace's sources and delegates here, and the splice tests feed it
/// doctored file sets directly.
pub fn analyze_files(files: &[(String, String)], cfg: &LintConfig) -> Analysis {
    let units: Vec<FileUnit> =
        files.iter().map(|(label, src)| FileUnit::new(label.clone(), src)).collect();
    let mut allow_used: Vec<Vec<bool>> =
        units.iter().map(|u| vec![false; u.lexed.allows.len()]).collect();

    let mut diags = Vec::new();
    for (u, used) in units.iter().zip(allow_used.iter_mut()) {
        diags.extend(direct_diagnostics(&u.label, &u.lexed, cfg, used));
    }

    let graph = CallGraph::build(&units, cfg);
    for kind in [Transitive::Determinism, Transitive::Panic, Transitive::Locality] {
        run_transitive(kind, &units, &graph, cfg, &mut allow_used, &mut diags);
    }

    // Stale-allow audit: every directive must have earned its keep above.
    let known: Vec<&str> = Pass::ALL.iter().map(|p| p.name()).collect();
    for (u, used) in units.iter().zip(allow_used.iter()) {
        for ((line, pass), used) in u.lexed.allows.iter().zip(used.iter()) {
            if *used {
                continue;
            }
            let message = if pass == "all" || known.contains(&pass.as_str()) {
                format!(
                    "`allow({pass})` suppresses no findings; stale escape hatches hide real regressions — delete the directive"
                )
            } else {
                format!("`allow({pass})` names no known pass; fix the typo or delete the directive")
            };
            diags.push(Diagnostic {
                pass: Pass::StaleAllow,
                file: u.label.clone(),
                line: *line,
                message,
            });
        }
    }

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.pass.name(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.pass.name(),
            b.message.as_str(),
        ))
    });
    diags.dedup();
    Analysis { diagnostics: diags, files: units.len(), functions: graph.fns.len() }
}

/// One sink→source pass: find every sink fn, BFS to the nearest
/// source-carrying fn, report the chain.
fn run_transitive(
    kind: Transitive,
    units: &[FileUnit],
    graph: &CallGraph,
    cfg: &LintConfig,
    allow_used: &mut [Vec<bool>],
    diags: &mut Vec<Diagnostic>,
) {
    let pass = kind.pass();
    // Source scan: first unexcused source token per fn. An
    // `allow(<pass>)` on the source line marks an audited invariant —
    // the source is excused and the directive counts as used.
    let sources: Vec<Option<(u32, String)>> = graph
        .fns
        .iter()
        .map(|f| {
            if f.is_test {
                return None;
            }
            let trusted = f.owner.as_ref().is_some_and(|o| cfg.trusted_owners.contains(o));
            if trusted {
                return None;
            }
            scan_sources(kind, &units[f.file_idx], f, cfg, &mut allow_used[f.file_idx])
        })
        .collect();

    for (i, f) in graph.fns.iter().enumerate() {
        if !is_sink(kind, f, cfg) {
            continue;
        }
        let Some(path) = graph.shortest_path(i, cfg, |j| sources[j].is_some()) else {
            continue;
        };
        let src_fn = *path.last().expect("path is non-empty");
        let (src_line, src_desc) = sources[src_fn].clone().expect("target carries a source");
        let chain = path.iter().map(|&k| format!("`{}`", graph.fns[k].label())).collect::<Vec<_>>();
        let src_file = &units[graph.fns[src_fn].file_idx].label;
        let detail =
            format!("{src_desc} at {src_file}:{src_line} via {}", chain.join(" \u{2192} "));
        let message = match kind {
            Transitive::Determinism => format!(
                "`{}` transitively reaches nondeterminism: {detail}; same-seed runs must stay byte-identical — make the helper deterministic or take the value as an input",
                f.label()
            ),
            Transitive::Panic => format!(
                "`{}` can transitively panic: {detail}; handle the failure arm in the helper, or annotate the checked invariant with `// ballfit-lint: allow(panic-reachability)` at the panic site",
                f.label()
            ),
            Transitive::Locality => format!(
                "`{}` reaches global network state through helpers: {detail}; the paper's 1-hop contract forbids handlers from consulting whole-network structures even indirectly",
                f.label()
            ),
        };
        // The sink's own line can carry an allow too (for deliberate
        // regression fixtures).
        let sink_unit = &units[f.file_idx];
        let mut suppressed = false;
        for (idx, (l, p)) in sink_unit.lexed.allows.iter().enumerate() {
            if (p == pass.name() || p == "all") && (*l == f.line || *l + 1 == f.line) {
                suppressed = true;
                allow_used[f.file_idx][idx] = true;
            }
        }
        if !suppressed {
            diags.push(Diagnostic { pass, file: sink_unit.label.clone(), line: f.line, message });
        }
    }
}

/// Is `f` a sink for this transitive pass?
fn is_sink(kind: Transitive, f: &FnNode, cfg: &LintConfig) -> bool {
    if f.is_test || f.body.is_none() {
        return false;
    }
    let protocol = f.trait_name.as_ref().is_some_and(|t| cfg.protocol_traits.contains(t));
    match kind {
        Transitive::Determinism => protocol || cfg.taint_entry_points.contains(&f.label()),
        Transitive::Panic | Transitive::Locality => protocol,
    }
}

/// Scans one fn for source tokens of the given transitive pass. Returns
/// the first unexcused source; excused sources mark their directive used.
fn scan_sources(
    kind: Transitive,
    unit: &FileUnit,
    f: &FnNode,
    cfg: &LintConfig,
    allow_used: &mut [bool],
) -> Option<(u32, String)> {
    let toks = &unit.lexed.toks;
    let (blo, bhi) = f.body?;
    let pass_name = kind.pass().name();
    let mut excuse = |line: u32| -> bool {
        let mut hit = false;
        for (idx, (l, p)) in unit.lexed.allows.iter().enumerate() {
            if p == pass_name && (*l == line || *l + 1 == line) {
                hit = true;
                allow_used[idx] = true;
            }
        }
        hit
    };
    // Locality also denies *naming* whole-network types, and a signature
    // mention (`model: &NetworkModel`) is as load-bearing as a body one.
    let lo = if kind == Transitive::Locality { f.sig.0 } else { blo };
    let hi = bhi.min(toks.len());
    for i in lo..hi {
        let t = &toks[i];
        let found = match kind {
            Transitive::Determinism => determinism_source(toks, i),
            Transitive::Panic => panic_source(toks, i),
            Transitive::Locality => locality_source(toks, i, cfg),
        };
        if let Some(desc) = found {
            if !excuse(t.line) {
                return Some((t.line, desc));
            }
        }
    }
    None
}

/// Does token `i` name `ident`? A trailing `::` in `ident` (`thread::`)
/// matches only a path segment.
fn names(ident: &str, toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokKind::Ident
        && match ident.strip_suffix("::") {
            Some(head) => t.text == head && toks.get(i + 1).is_some_and(|n| n.is_punct("::")),
            None => t.text == ident,
        }
}

/// Is the identifier at `i` called as a method (`.name(`)?
fn is_method_call(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct(".") && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
}

/// The locality source at token `i`, described: a whole-network type
/// named, or a global-state method called.
fn locality_source(toks: &[Tok], i: usize, cfg: &LintConfig) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        None
    } else if cfg.locality_denied_types.contains(&t.text) {
        Some(format!("`{}`", t.text))
    } else if is_method_call(toks, i) && cfg.locality_denied_methods.contains(&t.text) {
        Some(format!("`.{}()`", t.text))
    } else {
        None
    }
}

/// The panic source at token `i`, described: an `unwrap`-family call, a
/// `panic!`-family macro, or direct indexing.
fn panic_source(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind == TokKind::Ident
        && matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_err" | "expect_err")
        && is_method_call(toks, i)
    {
        Some(format!("`.{}()`", t.text))
    } else if t.kind == TokKind::Ident
        && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
    {
        Some(format!("`{}!`", t.text))
    } else if t.is_punct("[") && i > 0 {
        let p = &toks[i - 1];
        let indexes =
            p.kind == TokKind::Ident && !is_keyword(&p.text) || p.is_punct(")") || p.is_punct("]");
        indexes.then(|| "direct indexing".to_string())
    } else {
        None
    }
}

/// The nondeterminism source at token `i`, described: a randomly seeded
/// collection or RNG, or a wall-clock read.
fn determinism_source(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "HashMap" | "HashSet" | "RandomState" | "thread_rng" | "from_entropy" => {
            Some(format!("`{}`", t.text))
        }
        "SystemTime" | "Instant"
            if toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("now")) =>
        {
            Some(format!("`{}::now()`", t.text))
        }
        _ => None,
    }
}

/// Is the operand at `i` (looking `forward` or backward from a `==`) a
/// float literal or a well-known non-finite f64 constant?
fn float_operand(toks: &[Tok], i: usize, forward: bool) -> bool {
    let Some(mut t) = toks.get(i) else { return false };
    let mut i = i;
    // Unary minus on the right-hand side: `x == -1.0`.
    if forward && t.is_punct("-") {
        match toks.get(i + 1) {
            Some(next) => {
                t = next;
                i += 1;
            }
            None => return false,
        }
    }
    // Qualified consts on the right-hand side: `x == f64::INFINITY`.
    if forward
        && (t.is_ident("f64") || t.is_ident("f32"))
        && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
    {
        match toks.get(i + 2) {
            Some(next) => t = next,
            None => return false,
        }
    }
    if t.kind == TokKind::Number && is_float_literal(&t.text) {
        return true;
    }
    t.kind == TokKind::Ident
        && matches!(t.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON")
}

/// Given `open` pointing at `(`, returns the index just past its matching
/// `)`, or `None` if unbalanced.
fn skip_balanced_parens(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "in"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "continue"
            | "as"
            | "where"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(file: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(file, src, &LintConfig::default())
    }

    fn passes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.pass.name()).collect()
    }

    // ---- locality -------------------------------------------------------

    #[test]
    fn locality_flags_global_accessors_in_protocol_impl() {
        let src = r#"
            impl Protocol for Probe {
                type Msg = ();
                fn on_message(&mut self, from: NodeId, _m: &(), ctx: &mut Ctx<'_, ()>) {
                    let p = self.model.positions();
                    let n = self.topo.closed_k_hop_neighborhood(from, 2);
                }
            }
        "#;
        let diags = run("crates/core/src/protocols.rs", src);
        assert_eq!(passes(&diags), vec!["locality", "locality"], "{diags:?}");
    }

    #[test]
    fn locality_flags_global_types_in_protocol_impl() {
        let src = r#"
            impl Protocol for Probe {
                type Msg = ();
                fn on_start(&mut self, _ctx: &mut Ctx<'_, ()>) {
                    let m: &NetworkModel = todo();
                }
            }
        "#;
        let diags = run("crates/core/src/protocols.rs", src);
        assert_eq!(passes(&diags), vec!["locality"]);
    }

    #[test]
    fn locality_allows_one_hop_queries_and_setup_code() {
        let src = r#"
            impl UbfProtocol {
                // Inherent impl: setup/harvest code may read the model.
                pub fn for_model(model: &NetworkModel) { let _ = model.positions(); }
            }
            impl Protocol for UbfProtocol {
                type Msg = ();
                fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                    let n = ctx.neighbors();
                    ctx.broadcast(());
                }
            }
        "#;
        assert!(run("crates/core/src/protocols.rs", src).is_empty());
    }

    // ---- panic-safety ---------------------------------------------------

    #[test]
    fn panic_safety_flags_unwrap_expect_panic_indexing() {
        let src = r#"
            impl Protocol for P {
                type Msg = u32;
                fn on_message(&mut self, f: NodeId, m: &u32, _c: &mut Ctx<'_, u32>) {
                    let a = self.label.unwrap();
                    let b = self.label.expect("labeled");
                    if *m > 3 { panic!("bad message"); }
                    let c = self.table[f];
                }
            }
        "#;
        let diags = run("crates/core/src/protocols.rs", src);
        assert_eq!(
            passes(&diags),
            vec!["panic-safety", "panic-safety", "panic-safety", "panic-safety"],
            "{diags:?}"
        );
    }

    #[test]
    fn panic_safety_exempts_tests_and_non_protocol_code() {
        let src = r#"
            fn helper() { let x = maybe().unwrap(); }
            #[cfg(test)]
            mod tests {
                impl Protocol for P {
                    type Msg = ();
                    fn on_start(&mut self, _c: &mut Ctx<'_, ()>) { self.x.unwrap(); }
                }
            }
        "#;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_safety_does_not_flag_attributes_or_slice_types() {
        let src = r#"
            impl Protocol for P {
                type Msg = ();
                #[inline]
                fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                    let v: &[u32] = ctx.neighbors();
                    let a = [0u8; 4];
                    for x in v { let _ = x; }
                }
            }
        "#;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    // ---- float-safety ---------------------------------------------------

    #[test]
    fn float_safety_flags_nan_unsafe_sort_and_float_eq() {
        let src = r#"
            fn f(mut v: Vec<f64>, x: f64) -> bool {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                x == 0.0
            }
        "#;
        let diags = run("crates/core/src/x.rs", src);
        assert_eq!(passes(&diags), vec!["float-safety", "float-safety", "float-safety"]);
        assert!(diags[0].message.contains("total_cmp"));
    }

    #[test]
    fn float_safety_clean_on_total_cmp_and_int_eq() {
        let src = r#"
            fn f(mut v: Vec<f64>, n: usize) -> bool {
                v.sort_by(f64::total_cmp);
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                n == 0
            }
        "#;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_safety_exempts_predicates_and_tests() {
        let eq = "fn f(x: f64) -> bool { x == 1.0 }";
        assert!(run("crates/geom/src/predicates.rs", eq).is_empty());
        assert!(run("crates/geom/tests/properties.rs", eq).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests { fn f(x: f64) -> bool { x == 1.0 } }";
        assert!(run("crates/geom/src/x.rs", in_mod).is_empty());
    }

    // ---- scope table ----------------------------------------------------

    #[test]
    fn scope_rules_fire_in_protocol_impls_and_away_from_home() {
        // Every row fires inside a protocol impl, test module or not, and
        // outside one only when it has home paths and only in non-test
        // code. `tests/lint_clean.rs` splices every identifier into the
        // real sources and home paths.
        for rule in &LintConfig::default().scope_rules {
            for ident in &rule.idents {
                let path =
                    if ident.ends_with("::") { format!("{ident}spawn") } else { ident.clone() };
                let free = format!("fn f() {{ let _x = {path}; }}");
                let handler = format!("impl Protocol for P {{ type Msg = (); {free} }}");
                let expect = |src: &str, n: usize| {
                    let diags = run("crates/core/src/detector.rs", src);
                    assert_eq!(diags.len(), n, "{ident}: {diags:?}");
                    assert!(diags.iter().all(|d| d.pass == rule.pass), "{ident}: {diags:?}");
                };
                expect(&handler, 1);
                expect(&format!("#[cfg(test)]\nmod tests {{ {handler} }}"), 1);
                expect(&free, usize::from(!rule.home_paths.is_empty()));
                expect(&format!("#[cfg(test)]\nmod tests {{ {free} }}"), 0);
            }
        }
        // `MsgBytes` is required by the `Protocol::Msg` bound.
        let msg = "impl Protocol for P { type Msg = u32; fn f() { let _n = MsgBytes::msg_bytes(&0u32); } }";
        assert!(run("crates/core/src/protocols.rs", msg).is_empty());
    }

    // ---- escape hatch ---------------------------------------------------

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let same = "fn f(x: f64) -> bool { x == 0.0 } // ballfit-lint: allow(float-safety)";
        assert!(run("crates/core/src/x.rs", same).is_empty());
        let prev = "// ballfit-lint: allow(float-safety)\nfn f(x: f64) -> bool { x == 0.0 }";
        assert!(run("crates/core/src/x.rs", prev).is_empty());
    }

    #[test]
    fn allow_directive_is_pass_specific() {
        // A panic-safety allow does not silence float-safety on that line.
        let src = "fn f(x: f64) -> bool { x == 0.0 } // ballfit-lint: allow(panic-safety)";
        let diags = run("crates/core/src/x.rs", src);
        assert_eq!(passes(&diags), vec!["float-safety"]);
        // ...but allow(all) does.
        let all = "fn f(x: f64) -> bool { x == 0.0 } // ballfit-lint: allow(all)";
        assert!(run("crates/core/src/x.rs", all).is_empty());
    }
}
