//! E3 — Fig. 1(i) / 11(c): hop-distance distribution of *missing*
//! boundary nodes (distance to the nearest correctly identified boundary
//! node) vs distance measurement error.
//!
//! The paper's claim: almost 100% of missing boundary nodes are within the
//! one-hop neighborhood of a correctly identified boundary node, so the
//! missing nodes are uniformly scattered and do not open "holes" in the
//! detected boundary.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin fig_missing_distribution
//! ```

use ballfit_bench::{error_sweep, fig1_network_small, format_table, pct, Args, PAPER_ERROR_SWEEP};

fn main() {
    Args::from_env("");
    let model = fig1_network_small(2);
    println!("network: {} nodes ({} boundary ground truth)", model.len(), model.surface_count());
    let sweep = error_sweep(&model, &PAPER_ERROR_SWEEP, 23);

    let mut table = vec![vec![
        "error".to_string(),
        "missing".to_string(),
        "1 hop".to_string(),
        "2 hop".to_string(),
        "3 hop".to_string(),
        ">3 hop".to_string(),
    ]];
    for (e, s) in &sweep {
        let (f1, f2, f3, fb) = s.missing_hops.fractions();
        table.push(vec![
            format!("{e}%"),
            s.missing.to_string(),
            pct(f1),
            pct(f2),
            pct(f3),
            pct(fb),
        ]);
    }
    println!("\nFig. 1(i) — distribution of missing boundary nodes:");
    println!("{}", format_table(&table));
}
