//! E1 — Fig. 1(g): boundary nodes found / correct / mistaken / missing vs
//! distance measurement error on the large one-hole network (paper: 4210
//! nodes, average degree 18.8).
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin fig1_efficiency [-- --small]
//! ```
//!
//! Emits `results/fig1g_efficiency.csv` plus the hop-distribution CSVs of
//! Figs. 1(h) and 1(i), which come from the same sweep.

use ballfit_bench::{
    error_sweep, fig1_network, fig1_network_small, format_table, pct, write_csv, Args,
    PAPER_ERROR_SWEEP,
};

fn main() {
    let small = Args::from_env("--small").has("--small");
    let model = if small { fig1_network_small(1) } else { fig1_network(1) };
    let stats = model.topology().degree_stats();
    println!(
        "Fig. 1 network: {} nodes ({} ground-truth boundary), avg degree {:.1} (paper: 4210 / 18.8)",
        model.len(),
        model.surface_count(),
        stats.mean
    );

    let sweep = error_sweep(&model, &PAPER_ERROR_SWEEP, 17);

    let mut table = vec![vec![
        "error".to_string(),
        "found".to_string(),
        "correct".to_string(),
        "mistaken".to_string(),
        "missing".to_string(),
    ]];
    let mut rows = Vec::new();
    let mut mistaken_rows = Vec::new();
    let mut missing_rows = Vec::new();
    for (pct_err, s) in &sweep {
        table.push(vec![
            format!("{pct_err}%"),
            s.found.to_string(),
            s.correct.to_string(),
            s.mistaken.to_string(),
            s.missing.to_string(),
        ]);
        rows.push(vec![
            pct_err.to_string(),
            s.truth.to_string(),
            s.found.to_string(),
            s.correct.to_string(),
            s.mistaken.to_string(),
            s.missing.to_string(),
        ]);
        let (m1, m2, m3, mb) = s.mistaken_hops.fractions();
        mistaken_rows.push(vec![
            pct_err.to_string(),
            format!("{m1:.4}"),
            format!("{m2:.4}"),
            format!("{m3:.4}"),
            format!("{mb:.4}"),
        ]);
        let (g1, g2, g3, gb) = s.missing_hops.fractions();
        missing_rows.push(vec![
            pct_err.to_string(),
            format!("{g1:.4}"),
            format!("{g2:.4}"),
            format!("{g3:.4}"),
            format!("{gb:.4}"),
        ]);
    }
    println!("\nFig. 1(g) — boundary node counts vs distance measurement error:");
    println!("{}", format_table(&table));

    let p = write_csv(
        "fig1g_efficiency.csv",
        &["error_pct", "truth", "found", "correct", "mistaken", "missing"],
        &rows,
    );
    println!("wrote {}", p.display());
    let p = write_csv(
        "fig1h_mistaken_distribution.csv",
        &["error_pct", "hop1", "hop2", "hop3", "beyond"],
        &mistaken_rows,
    );
    println!("wrote {}", p.display());
    let p = write_csv(
        "fig1i_missing_distribution.csv",
        &["error_pct", "hop1", "hop2", "hop3", "beyond"],
        &missing_rows,
    );
    println!("wrote {}", p.display());

    // Paper shape check, printed for EXPERIMENTS.md.
    if let Some((_, s0)) = sweep.first() {
        println!(
            "\nshape check @0%: recall {} precision {} (paper: near-perfect below 30% error)",
            pct(s0.recall()),
            pct(s0.precision())
        );
    }
    if let Some((_, s30)) = sweep.iter().find(|(e, _)| *e == 30) {
        println!(
            "shape check @30%: recall {} precision {}",
            pct(s30.recall()),
            pct(s30.precision())
        );
    }
}
