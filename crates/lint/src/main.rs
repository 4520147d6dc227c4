//! CLI for the ballfit workspace invariant analyzer.
//!
//! ```text
//! cargo run -p ballfit-lint                 # analyze the workspace, exit 1 on findings
//! cargo run -p ballfit-lint -- --root /path/to/workspace
//! cargo run -p ballfit-lint -- --json results/lint_baseline.json
//! cargo run -p ballfit-lint -- --diff results/lint_baseline.json
//! cargo run -p ballfit-lint -- crates/core/src/protocols.rs   # specific files (token-level only)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ballfit_lint::{
    analyze_source, analyze_workspace, default_workspace_root, report, Analysis, LintConfig, Pass,
};

fn main() -> ExitCode {
    let passes = Pass::ALL.map(Pass::name).join(", ");
    let mut root = default_workspace_root();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut diff_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --json requires an output path");
                    return ExitCode::from(2);
                }
            },
            "--diff" => match args.next() {
                Some(p) => diff_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --diff requires a baseline report path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "ballfit-lint: enforce the workspace invariants that need `impl Protocol`\n\
                     scope or the call graph.\n\
                     Passes: {passes}.\n\
                     \n\
                     USAGE: ballfit-lint [--root <workspace>] [--json <report.json>]\n\
                     \x20                   [--diff <baseline.json>] [FILE.rs ...]\n\
                     \n\
                     With no FILE arguments, analyzes every .rs file in the workspace's\n\
                     crates/{{core,wsn,geom,mds,netgen,par,obs,serve,backends,json}} with every\n\
                     pass. FILE arguments run the token-level passes on those files only (the\n\
                     interprocedural passes need the whole workspace).\n\
                     \n\
                     --json writes a stable machine-readable report (fixed key order,\n\
                     per-diagnostic fingerprints; byte-identical across runs on identical\n\
                     sources). --diff compares the current run's fingerprints and meta\n\
                     (passes, file and function counts) against a committed baseline and\n\
                     exits nonzero on any drift; regenerate the baseline with\n\
                     `--json results/lint_baseline.json` and commit it.\n\
                     \n\
                     Suppress a finding with a `// ballfit-lint: allow(<pass>)` comment on\n\
                     the same or previous line; for the transitive passes, annotate the\n\
                     source site (the panic/nondeterminism token). Every directive must\n\
                     suppress something — stale ones fail the stale-allow audit.\n\
                     \n\
                     The determinism and threading bans live in clippy.toml (cargo clippy)."
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag {arg} (see --help)");
                return ExitCode::from(2);
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }

    let cfg = LintConfig::default();
    if !files.is_empty() {
        if json_out.is_some() || diff_baseline.is_some() {
            eprintln!("error: --json/--diff need the whole workspace; drop the FILE arguments");
            return ExitCode::from(2);
        }
        let mut diags = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(src) => diags.extend(analyze_source(&f.to_string_lossy(), &src, &cfg)),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        for d in &diags {
            eprintln!("{d}");
        }
        return if diags.is_empty() {
            eprintln!("ballfit-lint: clean (token-level passes)");
            ExitCode::SUCCESS
        } else {
            eprintln!("ballfit-lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        };
    }

    let analysis: Analysis = match analyze_workspace(&root, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_out {
        let rendered = report::render(&analysis);
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("error: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("ballfit-lint: report written to {}", path.display());
    }

    if let Some(baseline_path) = &diff_baseline {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        let drift = match report::diff(&analysis, &baseline) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        for a in &drift.added {
            eprintln!("lint drift: new finding {a}");
        }
        for r in &drift.removed {
            eprintln!("lint drift: baseline finding gone {r} (regenerate the baseline)");
        }
        for m in &drift.meta {
            eprintln!("lint drift: meta {m} (regenerate the baseline)");
        }
        return if drift.is_empty() {
            eprintln!(
                "ballfit-lint: no drift against {} ({} finding(s))",
                baseline_path.display(),
                analysis.diagnostics.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "ballfit-lint: {} added / {} removed / {} meta field(s) vs {}",
                drift.added.len(),
                drift.removed.len(),
                drift.meta.len(),
                baseline_path.display()
            );
            ExitCode::FAILURE
        };
    }

    for d in &analysis.diagnostics {
        eprintln!("{d}");
    }
    if analysis.diagnostics.is_empty() {
        eprintln!(
            "ballfit-lint: clean ({} files, {} functions; passes: {passes})",
            analysis.files, analysis.functions
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("ballfit-lint: {} violation(s)", analysis.diagnostics.len());
        ExitCode::FAILURE
    }
}
