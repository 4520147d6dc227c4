//! E2 — Fig. 1(h) / 11(b): hop-distance distribution of *mistaken*
//! boundary nodes (distance to the nearest correctly identified boundary
//! node) vs distance measurement error.
//!
//! The paper's claim: mistaken nodes are always within 3 hops, >60% at one
//! hop and >30% at two.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin fig_mistaken_distribution
//! ```

use ballfit_bench::{error_sweep, fig1_network_small, format_table, pct, Args, PAPER_ERROR_SWEEP};

fn main() {
    Args::from_env("");
    let model = fig1_network_small(2);
    println!("network: {} nodes ({} boundary ground truth)", model.len(), model.surface_count());
    let sweep = error_sweep(&model, &PAPER_ERROR_SWEEP, 23);

    let mut table = vec![vec![
        "error".to_string(),
        "mistaken".to_string(),
        "1 hop".to_string(),
        "2 hop".to_string(),
        "3 hop".to_string(),
        ">3 hop".to_string(),
    ]];
    for (e, s) in &sweep {
        let (f1, f2, f3, fb) = s.mistaken_hops.fractions();
        table.push(vec![
            format!("{e}%"),
            s.mistaken.to_string(),
            pct(f1),
            pct(f2),
            pct(f3),
            pct(fb),
        ]);
    }
    println!("\nFig. 1(h) — distribution of mistaken boundary nodes:");
    println!("{}", format_table(&table));
}
