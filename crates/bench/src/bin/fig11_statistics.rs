//! E4 — Fig. 11(a–c): aggregate performance statistics over more than
//! 10,000 sample boundary nodes drawn from many networks (all five paper
//! scenarios × several seeds), as percentages of the boundary population.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin fig11_statistics [-- --seeds N]
//! ```
//!
//! Emits `results/fig11a_efficiency.csv`, `results/fig11b_mistaken.csv`,
//! `results/fig11c_missing.csv`.

use ballfit::metrics::HopHistogram;
use ballfit::Pipeline;
use ballfit_bench::{
    format_table, gallery_network, parallel_map, pct, write_csv, Args, PAPER_ERROR_SWEEP,
};
use ballfit_netgen::scenario::Scenario;

#[derive(Default, Clone)]
struct Aggregate {
    truth: usize,
    found: usize,
    correct: usize,
    mistaken: usize,
    missing: usize,
    mistaken_hops: HopHistogram,
    missing_hops: HopHistogram,
}

fn add_hist(into: &mut HopHistogram, from: &HopHistogram) {
    into.one += from.one;
    into.two += from.two;
    into.three += from.three;
    into.beyond += from.beyond;
}

fn main() {
    let seeds = Args::from_env("--seeds <n>").count("--seeds").unwrap_or(3) as u64;

    // Build every (scenario, seed) network once up front.
    let mut net_jobs = Vec::new();
    for &scenario in &Scenario::PAPER_GALLERY {
        for seed in 0..seeds {
            net_jobs.push((scenario, 1000 + seed));
        }
    }
    let models = parallel_map(net_jobs, |&(scenario, seed)| gallery_network(scenario, seed));
    let boundary_samples: usize = models.iter().map(|m| m.surface_count()).sum();
    println!(
        "{} networks, {} total ground-truth boundary samples (paper: >10,000)",
        models.len(),
        boundary_samples
    );

    // Sweep: aggregate the detection stats across all networks per error.
    let jobs: Vec<(usize, u32)> =
        (0..models.len()).flat_map(|m| PAPER_ERROR_SWEEP.iter().map(move |&e| (m, e))).collect();
    let per_run = parallel_map(jobs.clone(), |&(mi, e)| {
        let result = Pipeline::paper(e, 31 + mi as u64).run(&models[mi]);
        (e, result.stats)
    });

    let mut agg: std::collections::BTreeMap<u32, Aggregate> = Default::default();
    for (e, s) in per_run {
        let a = agg.entry(e).or_default();
        a.truth += s.truth;
        a.found += s.found;
        a.correct += s.correct;
        a.mistaken += s.mistaken;
        a.missing += s.missing;
        add_hist(&mut a.mistaken_hops, &s.mistaken_hops);
        add_hist(&mut a.missing_hops, &s.missing_hops);
    }

    let mut table = vec![vec![
        "error".into(),
        "found%".into(),
        "correct%".into(),
        "mistaken%".into(),
        "missing%".into(),
    ]];
    let (mut rows_a, mut rows_b, mut rows_c) = (Vec::new(), Vec::new(), Vec::new());
    for (e, a) in &agg {
        let t = a.truth.max(1) as f64;
        table.push(vec![
            format!("{e}%"),
            pct(a.found as f64 / t),
            pct(a.correct as f64 / t),
            pct(a.mistaken as f64 / t),
            pct(a.missing as f64 / t),
        ]);
        rows_a.push(vec![
            e.to_string(),
            format!("{:.4}", a.found as f64 / t),
            format!("{:.4}", a.correct as f64 / t),
            format!("{:.4}", a.mistaken as f64 / t),
            format!("{:.4}", a.missing as f64 / t),
        ]);
        let (m1, m2, m3, mb) = a.mistaken_hops.fractions();
        rows_b.push(vec![
            e.to_string(),
            format!("{m1:.4}"),
            format!("{m2:.4}"),
            format!("{m3:.4}"),
            format!("{mb:.4}"),
        ]);
        let (g1, g2, g3, gb) = a.missing_hops.fractions();
        rows_c.push(vec![
            e.to_string(),
            format!("{g1:.4}"),
            format!("{g2:.4}"),
            format!("{g3:.4}"),
            format!("{gb:.4}"),
        ]);
    }
    println!("\nFig. 11(a) — aggregate boundary statistics (% of ground truth):");
    println!("{}", format_table(&table));

    for (name, header, rows) in [
        (
            "fig11a_efficiency.csv",
            ["error_pct", "found_frac", "correct_frac", "mistaken_frac", "missing_frac"],
            &rows_a,
        ),
        ("fig11b_mistaken.csv", ["error_pct", "hop1", "hop2", "hop3", "beyond"], &rows_b),
        ("fig11c_missing.csv", ["error_pct", "hop1", "hop2", "hop3", "beyond"], &rows_c),
    ] {
        let p = write_csv(name, &header, rows);
        println!("wrote {}", p.display());
    }
}
