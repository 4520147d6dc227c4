//! # ballfit-bench
//!
//! Experiment harness for the `ballfit` reproduction of *"Localized
//! Algorithm for Precise Boundary Detection in 3D Wireless Networks"*
//! (ICDCS 2010).
//!
//! The binaries under `src/bin/` regenerate every figure of the paper's
//! evaluation (see `DESIGN.md`'s experiment index, E1–E12) plus ablations.
//! This library hosts what they share: standard network configurations,
//! the error-sweep driver, a deterministic parallel map (re-exported from
//! `ballfit-par`), the `--validate*` checks for the sweep outputs, CSV
//! emission and console tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use ballfit::metrics::DetectionStats;
use ballfit::Pipeline;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
pub use ballfit_par::Parallelism;

/// Error percentages swept in the paper's Figs. 1(g–i) and 11: 0–100% in
/// steps of 10.
pub const PAPER_ERROR_SWEEP: [u32; 11] = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// The large single-network workload of Fig. 1: the paper uses a 3D
/// network of 4210 nodes with an average nodal degree of 18.8 and one
/// interior hole. Surface/interior split chosen so the boundary population
/// matches the ~1800 boundary nodes visible in Fig. 1(g).
pub fn fig1_network(seed: u64) -> NetworkModel {
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(1800)
        .interior_nodes(2410)
        .target_degree(18.8)
        .seed(seed)
        .build()
        .expect("fig1 network generates")
}

/// A reduced Fig. 1-style network for quick runs (same shape, ~1/4 size).
pub fn fig1_network_small(seed: u64) -> NetworkModel {
    NetworkBuilder::new(Scenario::SpaceOneHole)
        .surface_nodes(500)
        .interior_nodes(650)
        .target_degree(16.0)
        .seed(seed)
        .build()
        .expect("small fig1 network generates")
}

/// One gallery network (Figs. 6–10 scale): ~700 surface + 1200 interior
/// nodes at the paper's density.
pub fn gallery_network(scenario: Scenario, seed: u64) -> NetworkModel {
    let (surface, interior) = match scenario {
        // The pipe is thin: fewer nodes keep the degree target reachable.
        Scenario::BendedPipe => (500, 800),
        _ => (700, 1200),
    };
    NetworkBuilder::new(scenario)
        .surface_nodes(surface)
        .interior_nodes(interior)
        .target_degree(18.5)
        .seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("gallery network {scenario} (seed {seed}) failed: {e}"))
}

/// Runs the paper pipeline over an error sweep, in parallel, returning
/// `(error_percent, stats)` pairs in sweep order.
pub fn error_sweep(
    model: &NetworkModel,
    percents: &[u32],
    noise_seed: u64,
) -> Vec<(u32, DetectionStats)> {
    parallel_map(percents.to_vec(), |&pct| {
        let result = Pipeline::paper(pct, noise_seed.wrapping_add(pct as u64)).run(model);
        (pct, result.stats)
    })
}

/// Index-preserving parallel map over `inputs` on
/// [`Parallelism::default`] workers (so `BALLFIT_THREADS` pins the
/// count). Delegates to [`ballfit_par::par_map`]: output is byte-identical
/// to `inputs.iter().map(f).collect()` at every thread count.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    ballfit_par::par_map(Parallelism::default(), &inputs, f)
}

/// Where experiment outputs land (`results/` at the workspace root, or
/// `$BALLFIT_RESULTS` when set).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("BALLFIT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// Where a sweep bin writes its JSON: the `--out` path when given,
/// else `name` inside [`results_dir`].
pub fn results_path(out: Option<PathBuf>, name: &str) -> PathBuf {
    out.unwrap_or_else(|| results_dir().join(name))
}

/// Writes a CSV file into the results directory.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries want loud failures) or when a
/// row's width differs from the header's.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut w = BufWriter::new(File::create(&path).expect("CSV file creatable"));
    writeln!(w, "{}", header.join(",")).expect("write CSV header");
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row width mismatch in {name}");
        writeln!(w, "{}", row.join(",")).expect("write CSV row");
    }
    path
}

/// Renders rows as an aligned console table (first row = header).
pub fn format_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let render = |row: &[String]| -> String {
        row.iter()
            .enumerate()
            .map(|(c, cell)| format!("{cell:>width$}", width = widths[c]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&render(&rows[0]));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(2)));
    out.push('\n');
    for row in &rows[1..] {
        out.push_str(&render(row));
        out.push('\n');
    }
    out
}

/// Formats a fraction as `xx.x%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a mesh OBJ file into the results directory and returns its path.
pub fn export_mesh(name: &str, mesh: &ballfit_geom::mesh::TriMesh) -> PathBuf {
    let path = results_dir().join(name);
    let w = BufWriter::new(File::create(&path).expect("OBJ file creatable"));
    ballfit_geom::io::write_obj(w, mesh).expect("OBJ export");
    path
}

/// Least-squares slope of `ln y` against `ln x`: the measured growth
/// exponent of `y ~ x^slope`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut mx, mut my) = (0.0, 0.0);
    for &(x, y) in points {
        mx += x.ln();
        my += y.ln();
    }
    mx /= n;
    my /= n;
    let (mut cov, mut var) = (0.0, 0.0);
    for &(x, y) in points {
        cov += (x.ln() - mx) * (y.ln() - my);
        var += (x.ln() - mx) * (x.ln() - mx);
    }
    cov / var
}

/// Checks that `src` is exactly one well-formed JSON value (RFC 8259,
/// plus whitespace) by parsing it with the workspace's JSON codec.
pub fn validate_json(src: &str) -> Result<(), String> {
    ballfit_json::parse(src).map(drop).map_err(|e| format!("invalid JSON: {e}"))
}

/// Checks JSONL — one well-formed JSON value per non-blank line, the
/// trace and serve-transcript format. Errors carry 1-based line numbers.
pub fn validate_jsonl(src: &str) -> Result<(), String> {
    for (i, line) in src.lines().enumerate() {
        if !line.trim().is_empty() {
            validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
    }
    Ok(())
}

/// Reads `path` and checks it with [`validate_jsonl`] (`jsonl = true`)
/// or [`validate_json`]; errors name the file.
pub fn validate_file(path: &Path, jsonl: bool) -> Result<(), String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let verdict = if jsonl { validate_jsonl(&src) } else { validate_json(&src) };
    verdict.map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs a bin's `--validate` (`jsonl = false`) or `--validate-log` /
/// `--validate-trace` (`jsonl = true`) flag on `path`: prints the verdict
/// and exits 0 when the file is valid, 1 otherwise.
pub fn validate_and_exit(path: &Path, jsonl: bool) -> ! {
    match validate_file(path, jsonl) {
        Ok(()) => {
            println!("{}: valid {}", path.display(), if jsonl { "JSONL" } else { "JSON" });
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_validation_is_line_by_line() {
        assert!(validate_jsonl("").is_ok());
        assert!(validate_jsonl("{\"seq\":0}\n{\"seq\":1}\n").is_ok());
        assert!(validate_jsonl("{\"seq\":0}\n\n{\"seq\":1}").is_ok(), "blank lines are skipped");
        let err = validate_jsonl("{\"seq\":0}\n{broken\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "error must carry the line number: {err}");
        let err = validate_jsonl("{\"a\":1}\n\n\n[1,]\n").unwrap_err();
        assert!(err.starts_with("line 4:"), "blank lines still count: {err}");
        assert!(validate_jsonl("{\"a\":1} {\"b\":2}\n").is_err(), "one value per line");
    }

    #[test]
    fn validates_files() {
        let dir = std::env::temp_dir().join("ballfit_json_validate");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, "{\"ok\": true}\n").unwrap();
        assert!(validate_file(&good, false).is_ok());
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"ok\": }\n").unwrap();
        assert!(validate_file(&bad, false).is_err());
        let log = dir.join("log.jsonl");
        std::fs::write(&log, "{\"seq\":0}\n{\"seq\":1}\n").unwrap();
        assert!(validate_file(&log, true).is_ok());
        assert!(validate_file(&log, false).is_err(), "two values are not one JSON document");
        assert!(validate_file(&dir.join("missing.json"), false).is_err());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<i64>>(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i64>>());
        assert!(parallel_map(Vec::<i64>::new(), |&x| x).is_empty());
    }

    #[test]
    fn table_and_pct() {
        let t = format_table(&[vec!["h".into()], vec!["row".into()]]);
        assert!(t.contains('h'));
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn small_fig1_network_has_a_hole() {
        let model = fig1_network_small(3);
        assert!(model.topology().is_connected());
        assert_eq!(model.scenario().expected_boundaries(), 2);
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var("BALLFIT_RESULTS", std::env::temp_dir().join("ballfit_test_results"));
        let path = write_csv("unit_test.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        std::env::remove_var("BALLFIT_RESULTS");
    }
}
