//! `ballfit-lint` — static invariant analyzer for the ballfit workspace.
//!
//! The paper's correctness contract is not just "the tests pass": the
//! pipeline must be **localized** (protocol handlers see one hop of state
//! and nothing else), **deterministic** (same seed ⇒ same network ⇒ same
//! boundary, bit for bit) and **total** on well-formed inputs (no panics
//! in round handlers, no NaN-order traps in float sorts). Those properties
//! are easy to regress silently — a convenience `model.positions()` call
//! in a handler, a helper that reaches a `HashMap` — so this crate
//! enforces them mechanically over
//! `crates/{core,wsn,geom,mds,netgen,par,obs,serve,backends,json}`.
//!
//! The checks live where they are cheapest to state:
//!
//! * **`clippy.toml`** (root, with narrower copies in `crates/par` and
//!   `crates/bench`) bans `HashMap`/`HashSet`/`RandomState`, wall-clock
//!   `now()` and raw threading through `disallowed-types` and
//!   `disallowed-methods`, denied in `[workspace.lints.clippy]`.
//! * **The Cargo graph** keeps the service and backend APIs out of the
//!   algorithm crates: naming them there would need a dependency cycle.
//! * **This crate** keeps what needs `impl Protocol` scope or the call
//!   graph; [`passes`] describes each pass. The `*-scope` passes are one
//!   rule over a table ([`passes::ScopeRule`] rows in
//!   [`LintConfig::default`]): a row's identifier is a finding inside any
//!   `Protocol` impl, and outside the row's home paths in non-test code.
//!
//! Findings can be locally waived with a justification comment on the
//! same or preceding line: `// ballfit-lint: allow(float-safety)`. For
//! the transitive passes the directive goes at the *source* site (the
//! panic/nondeterminism token), marking an audited invariant.
//!
//! Run it with `cargo run -p ballfit-lint` from anywhere in the
//! workspace; it exits nonzero when violations exist. `--json PATH`
//! additionally emits a stable machine-readable report ([`report`]),
//! and `--diff BASELINE` gates on drift against a committed report
//! (`results/lint_baseline.json`). The `tests/lint_clean.rs`
//! integration test pins the workspace to zero findings and guards the
//! `clippy.toml` bans, and `scripts/check.sh` runs the analyzer, report
//! validation and drift gate.
//!
//! The crate depends only on `ballfit-json` (itself dependency-free),
//! which reads and escapes the report; there is no `syn`: builds must
//! work in offline/vendorless environments, and token-level matching
//! plus brace scoping (see [`lexer`]) is sufficient for every pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod passes;
pub mod report;

pub use passes::{analyze_files, analyze_source, Analysis, Diagnostic, LintConfig, Pass};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `target/` never nests under a crate's src/tests, but guard
            // anyway so ad-hoc invocations on odd roots stay fast.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every `.rs` file of the configured crates under
/// `workspace_root` with every pass (token-level + interprocedural). Returned diagnostics are sorted by file, line,
/// pass, message; file labels are workspace-relative.
pub fn analyze_workspace(workspace_root: &Path, cfg: &LintConfig) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for krate in &cfg.crates {
        let dir = workspace_root.join("crates").join(krate);
        if dir.is_dir() {
            rust_files(&dir, &mut files)?;
        }
    }
    // A wrong --root would otherwise scan nothing and report "clean",
    // silently passing the CI gate.
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .rs files under {} for crates {:?}", workspace_root.display(), cfg.crates),
        ));
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let src = fs::read_to_string(&path)?;
        let label =
            path.strip_prefix(workspace_root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        sources.push((label, src));
    }
    Ok(analyze_files(&sources, cfg))
}

/// The workspace root baked in at compile time (`crates/lint/../..`),
/// letting `cargo run -p ballfit-lint` work from any CWD.
pub fn default_workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}
