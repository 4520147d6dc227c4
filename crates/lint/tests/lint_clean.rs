//! The workspace is lint-clean, and stays that way: this test runs the
//! analyzer over the real algorithm crates and pins zero findings, then
//! splices regressions into the *actual* `protocols.rs` source — a
//! global-state accessor, an `unwrap`, every scope-table identifier —
//! and checks that each would fail. The bans that moved to `clippy.toml`
//! are guarded here too, so dropping one fails the test suite.

use ballfit_lint::{
    analyze_files, analyze_source, analyze_workspace, ast, default_workspace_root, lexer, report,
    LintConfig, Pass,
};

#[test]
fn workspace_is_invariant_clean() {
    let root = default_workspace_root();
    let analysis =
        analyze_workspace(&root, &LintConfig::default()).expect("workspace sources are readable");
    assert!(
        analysis.diagnostics.is_empty(),
        "invariant violations in the workspace:\n{}",
        analysis.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// Reads the real protocol layer source so the regression fixtures below
/// exercise the exact code the invariants protect.
fn protocols_source() -> String {
    let path = default_workspace_root().join("crates/core/src/protocols.rs");
    std::fs::read_to_string(path).expect("protocols.rs exists")
}

#[test]
fn global_state_accessor_in_handler_would_fail() {
    // Splice a global-state read into an existing `Protocol` handler body:
    // `on_message` of `GroupingProtocol` suddenly consults the whole model.
    let needle =
        "fn on_message(&mut self, _from: NodeId, msg: &NodeId, ctx: &mut Ctx<'_, Self::Msg>) {";
    let src = protocols_source();
    assert!(src.contains(needle), "GroupingProtocol::on_message signature changed; update fixture");
    let poisoned =
        src.replace(needle, &format!("{needle}\n        let _cheat = self.model.positions();"));
    let diags = analyze_source("crates/core/src/protocols.rs", &poisoned, &LintConfig::default());
    assert!(
        diags.iter().any(|d| d.pass == Pass::Locality),
        "global accessor inside a Protocol impl must be caught: {diags:?}"
    );
}

#[test]
fn unwrap_in_handler_would_fail() {
    let needle =
        "fn on_message(&mut self, from: NodeId, msg: &Self::Msg, _ctx: &mut Ctx<'_, Self::Msg>) {";
    let src = protocols_source();
    assert!(src.contains(needle), "UbfProtocol::on_message signature changed; update fixture");
    let poisoned = src.replace(
        needle,
        &format!("{needle}\n        let _first = self.received.iter().next().unwrap();"),
    );
    let diags = analyze_source("crates/core/src/protocols.rs", &poisoned, &LintConfig::default());
    assert!(
        diags.iter().any(|d| d.pass == Pass::PanicSafety),
        "unwrap inside a Protocol handler must be caught: {diags:?}"
    );
}

#[test]
fn every_scope_identifier_would_fail() {
    // Every identifier of every row, spliced into a real handler, fires
    // its row. Rows with home paths also fire in non-test code away from
    // home (the static detector), and stay quiet at home and in tests.
    let cfg = LintConfig::default();
    let needle =
        "fn on_message(&mut self, _from: NodeId, msg: &NodeId, ctx: &mut Ctx<'_, Self::Msg>) {";
    let protocols = protocols_source();
    assert!(protocols.contains(needle), "GroupingProtocol::on_message changed; update fixture");
    let detector =
        std::fs::read_to_string(default_workspace_root().join("crates/core/src/detector.rs"))
            .expect("detector.rs exists");
    let fires = |label: &str, src: &str, pass: Pass| {
        analyze_source(label, src, &cfg).iter().any(|d| d.pass == pass)
    };
    for rule in &cfg.scope_rules {
        let pass = rule.pass;
        for ident in &rule.idents {
            let path = if ident.ends_with("::") { format!("{ident}spawn") } else { ident.clone() };
            let spliced =
                protocols.replace(needle, &format!("{needle}\n        let _cheat = {path};"));
            assert!(fires("crates/core/src/protocols.rs", &spliced, pass), "{ident} in a handler");
            if rule.home_paths.is_empty() {
                continue;
            }
            let probe = format!("\npub fn probe() {{\n    let _cheat = {path};\n}}\n");
            let away = format!("{detector}{probe}");
            assert!(fires("crates/core/src/detector.rs", &away, pass), "{ident} in detector.rs");
            assert!(!fires("crates/core/tests/probe.rs", &probe, pass), "{ident} in tests/");
            for home in &rule.home_paths {
                let label =
                    if home.ends_with('/') { format!("{home}src/probe.rs") } else { home.clone() };
                assert!(!fires(&label, &probe, pass), "{ident} at home in {label}");
            }
        }
    }
}

/// The bans `clippy.toml` enforces instead of the analyzer: determinism
/// types and clock reads, then raw threading (everywhere but `crates/par`
/// and `crates/bench`).
const DETERMINISM_TYPES: [&str; 3] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::collections::hash_map::RandomState",
];
const DETERMINISM_METHODS: [&str; 2] = ["std::time::Instant::now", "std::time::SystemTime::now"];
const THREADING_BANS: [&str; 22] = [
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
    "std::sync::Barrier",
    "std::sync::atomic::AtomicUsize",
    "std::sync::atomic::AtomicIsize",
    "std::sync::atomic::AtomicBool",
    "std::sync::atomic::AtomicU32",
    "std::sync::atomic::AtomicU64",
    "std::sync::atomic::AtomicI32",
    "std::sync::atomic::AtomicI64",
    "std::thread::JoinHandle",
    "std::sync::mpsc::Sender",
    "std::sync::mpsc::SyncSender",
    "std::sync::mpsc::Receiver",
    "std::thread::Builder",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::sleep",
    "std::thread::available_parallelism",
    "std::sync::mpsc::channel",
    "std::sync::mpsc::sync_channel",
];

#[test]
fn clippy_toml_keeps_the_moved_bans() {
    let root = default_workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let lists = |toml: &str, path: &str| {
        let entry = format!("path = \"{path}\"");
        toml.lines().any(|l| !l.trim_start().starts_with('#') && l.contains(&entry))
    };
    let root_toml = read("clippy.toml");
    for path in DETERMINISM_TYPES.iter().chain(&DETERMINISM_METHODS).chain(&THREADING_BANS) {
        assert!(lists(&root_toml, path), "clippy.toml must ban {path}");
    }
    for (rel, methods) in [("crates/par/clippy.toml", true), ("crates/bench/clippy.toml", false)] {
        let toml = read(rel);
        let wanted =
            DETERMINISM_TYPES.iter().chain(if methods { &DETERMINISM_METHODS[..] } else { &[] });
        for path in wanted {
            assert!(lists(&toml, path), "{rel} must ban {path}");
        }
    }
    // Clippy reads the config nearest a crate's manifest, so a stray file
    // in `crates/` or in another crate would shadow the root list.
    let mut dirs = vec![root.clone(), root.join("crates")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        dirs.push(entry.expect("crates/ entry").path());
    }
    let mut found: Vec<String> = Vec::new();
    for dir in &dirs {
        for name in ["clippy.toml", ".clippy.toml"] {
            let path = dir.join(name);
            if path.is_file() {
                found.push(path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/"));
            }
        }
    }
    found.sort();
    assert_eq!(found, ["clippy.toml", "crates/bench/clippy.toml", "crates/par/clippy.toml"]);
}

/// Splices one statement into `GroupingProtocol::on_message` and pairs
/// the poisoned runner module with a scratch helper file, returning the
/// file set the interprocedural passes see. The violation lives in the
/// scratch file, *two* calls away from the handler — invisible to every
/// token-level pass.
fn spliced_with_scratch(
    call: &str,
    scratch_label: &str,
    scratch_src: &str,
) -> Vec<(String, String)> {
    let needle =
        "fn on_message(&mut self, _from: NodeId, msg: &NodeId, ctx: &mut Ctx<'_, Self::Msg>) {";
    let src = protocols_source();
    assert!(src.contains(needle), "GroupingProtocol::on_message signature changed; update fixture");
    let poisoned = src.replace(needle, &format!("{needle}\n        {call}"));
    vec![
        ("crates/core/src/protocols.rs".to_string(), poisoned),
        (scratch_label.to_string(), scratch_src.to_string()),
    ]
}

#[test]
fn determinism_taint_two_calls_deep_is_caught() {
    // The handler reaches `thread_rng` through two helpers.
    let scratch = r#"
pub fn helper_a() -> u64 {
    helper_b()
}

fn helper_b() -> u64 {
    let _rng = thread_rng();
    0
}
"#;
    let files = spliced_with_scratch(
        "let _cheat = crate::scratch_taint::helper_a();",
        "crates/core/src/scratch_taint.rs",
        scratch,
    );
    let analysis = analyze_files(&files, &LintConfig::default());
    let hit =
        analysis.diagnostics.iter().find(|d| d.pass == Pass::DeterminismTaint).unwrap_or_else(
            || panic!("taint two calls deep must be caught: {:?}", analysis.diagnostics),
        );
    assert_eq!(hit.file, "crates/core/src/protocols.rs", "{hit}");
    assert!(hit.message.contains("thread_rng"), "{hit}");
    assert!(
        hit.message.contains("`helper_a`") && hit.message.contains("`helper_b`"),
        "chain must name both helpers: {hit}"
    );
    // Fingerprints are a pure function of the sources.
    let again = analyze_files(&files, &LintConfig::default());
    assert_eq!(
        report::entries(&analysis.diagnostics),
        report::entries(&again.diagnostics),
        "fingerprints must be byte-stable across runs"
    );
}

#[test]
fn panic_reachability_two_calls_deep_is_caught() {
    // `unwrap` in plain library code is legal (the direct pass only
    // polices handler bodies) — but a handler *reaching* it through
    // helpers is not.
    let scratch = r#"
pub fn helper_a(xs: &[u64]) -> u64 {
    helper_b(xs)
}

fn helper_b(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap()
}
"#;
    let files = spliced_with_scratch(
        "let _cheat = crate::scratch_panic::helper_a(&[]);",
        "crates/core/src/scratch_panic.rs",
        scratch,
    );
    let analysis = analyze_files(&files, &LintConfig::default());
    let hit =
        analysis.diagnostics.iter().find(|d| d.pass == Pass::PanicReachability).unwrap_or_else(
            || panic!("panic two calls deep must be caught: {:?}", analysis.diagnostics),
        );
    assert_eq!(hit.file, "crates/core/src/protocols.rs", "{hit}");
    assert!(hit.message.contains("`.unwrap()`"), "{hit}");
    assert!(hit.message.contains("`helper_b`"), "{hit}");
}

#[test]
fn panic_reachability_respects_source_site_allow() {
    // Annotating the checked invariant at the panic site excuses the
    // whole chain — and the directive counts as used (no stale-allow).
    let scratch = r#"
pub fn helper_a(xs: &[u64]) -> u64 {
    helper_b(xs)
}

fn helper_b(xs: &[u64]) -> u64 {
    // ballfit-lint: allow(panic-reachability)
    xs.first().copied().unwrap()
}
"#;
    let files = spliced_with_scratch(
        "let _cheat = crate::scratch_panic::helper_a(&[]);",
        "crates/core/src/scratch_panic.rs",
        scratch,
    );
    let analysis = analyze_files(&files, &LintConfig::default());
    assert!(
        !analysis.diagnostics.iter().any(|d| d.pass == Pass::PanicReachability),
        "{:?}",
        analysis.diagnostics
    );
    assert!(
        !analysis.diagnostics.iter().any(|d| d.pass == Pass::StaleAllow),
        "source-site allow must count as used: {:?}",
        analysis.diagnostics
    );
}

#[test]
fn transitive_locality_two_calls_deep_is_caught() {
    // Naming `NetworkModel` in a helper's signature is fine on its own;
    // a Protocol handler reaching that helper is the violation.
    let scratch = r#"
pub fn helper_a() -> usize {
    helper_b()
}

fn helper_b(model: &NetworkModel) -> usize {
    model.node_count()
}
"#;
    let files = spliced_with_scratch(
        "let _cheat = crate::scratch_local::helper_a();",
        "crates/core/src/scratch_local.rs",
        scratch,
    );
    let analysis = analyze_files(&files, &LintConfig::default());
    let hit =
        analysis.diagnostics.iter().find(|d| d.pass == Pass::TransitiveLocality).unwrap_or_else(
            || panic!("global state two calls deep must be caught: {:?}", analysis.diagnostics),
        );
    assert_eq!(hit.file, "crates/core/src/protocols.rs", "{hit}");
    assert!(hit.message.contains("`NetworkModel`"), "{hit}");
    assert!(hit.message.contains("`helper_b`"), "{hit}");
}

#[test]
fn stale_allow_directives_are_flagged() {
    let src = "\
// ballfit-lint: allow(float-safety)
pub fn quiet() -> u64 {
    7
}

// ballfit-lint: allow(flot-safety)
pub fn typo() -> u64 {
    8
}
";
    let files = vec![("crates/core/src/scratch_allow.rs".to_string(), src.to_string())];
    let analysis = analyze_files(&files, &LintConfig::default());
    let stale: Vec<_> =
        analysis.diagnostics.iter().filter(|d| d.pass == Pass::StaleAllow).collect();
    assert_eq!(stale.len(), 2, "{:?}", analysis.diagnostics);
    assert!(stale[0].message.contains("suppresses no findings"), "{}", stale[0]);
    assert!(stale[1].message.contains("names no known pass"), "{}", stale[1]);
}

#[test]
fn every_workspace_file_parses_into_items() {
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let mut entries: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(&default_workspace_root().join("crates"), &mut files);
    assert!(files.len() >= 60, "expected the whole workspace, got {} files", files.len());
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        let parsed = ast::parse(&lexer::lex(&src).toks);
        assert!(!parsed.items.is_empty(), "no items parsed from {}", path.display());
    }
}

#[test]
fn parser_pins_fixture_item_count() {
    let src = r#"
//! Fixture: one of each item shape the parser distinguishes.
use std::fmt::{self, Display};

mod inner {
    pub fn nested() {}
}

pub struct Widget {
    pub id: u64,
}

impl Display for Widget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

pub trait Renders {
    fn render(&self) -> String;
}

pub fn free_standing() -> u64 {
    42
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
"#;
    let parsed = ast::parse(&lexer::lex(src).toks);
    // use + mod inner (+ nested fn) + struct + impl + trait + free fn +
    // tests mod (+ its fn): 7 top-level items, 9 counting inline-mod fns.
    assert_eq!(parsed.items.len(), 7, "{:#?}", parsed.items);
    assert_eq!(ast::item_count(&parsed.items), 9, "{:#?}", parsed.items);
}

#[test]
fn workspace_report_is_reproducible_and_diff_clean() {
    let root = default_workspace_root();
    let cfg = LintConfig::default();
    let a = analyze_workspace(&root, &cfg).expect("workspace sources are readable");
    let b = analyze_workspace(&root, &cfg).expect("workspace sources are readable");
    let rendered_a = report::render(&a);
    let rendered_b = report::render(&b);
    assert_eq!(rendered_a, rendered_b, "report must be byte-identical across runs");
    // The report parses back and round-trips through the drift gate.
    let drift = report::diff(&a, &rendered_b).expect("rendered report is valid baseline input");
    assert!(drift.is_empty(), "{drift:?}");
    assert!(a.functions >= 900, "symbol table shrank suspiciously: {}", a.functions);
}

#[test]
fn nan_unsafe_sort_anywhere_would_fail() {
    let src = r#"
        pub fn order(mut xs: Vec<f64>) -> Vec<f64> {
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            xs
        }
    "#;
    let diags = analyze_source("crates/geom/src/sort.rs", src, &LintConfig::default());
    assert!(diags.iter().any(|d| d.pass == Pass::FloatSafety), "{diags:?}");
}
