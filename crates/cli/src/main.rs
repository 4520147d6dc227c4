//! `ballfit-cli` — drive the boundary-detection pipeline from the shell.
//!
//! ```text
//! ballfit-cli generate --scenario sphere --surface 400 --interior 800 --seed 1 --out net.json
//! ballfit-cli detect   --net net.json --error 20 [--json]
//! ballfit-cli mesh     --net net.json --error 20 --k 3 --out-prefix mesh
//! ballfit-cli sweep    --scenario one_hole --surface 500 --interior 800 --seed 1
//! ballfit-cli serve    [--threads N]   # JSONL requests on stdin
//! ballfit-cli scenarios
//! ```

mod args;
mod netfile;

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use args::Args;
use ballfit::Pipeline;
use ballfit_geom::io::write_obj;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;

const USAGE: &str = "\
ballfit-cli — localized 3D boundary detection (ICDCS 2010 reproduction)

USAGE:
  ballfit-cli <command> [--option value]...

COMMANDS:
  scenarios                                List available scenarios
  generate   --scenario S --out FILE       Generate a network (JSON)
             [--surface N] [--interior N] [--degree D] [--seed X]
  detect     --net FILE [--error P]        Detect boundary nodes
             [--backend B] [--seed X] [--json] [--trace FILE]
             (backends: ubf, stat; default ubf)
  mesh       --net FILE --out-prefix P     Detect + build surface meshes (OBJ)
             [--error P] [--k K] [--seed X]
  sweep      --scenario S                  Error sweep 0..100% on a fresh network
             [--surface N] [--interior N] [--degree D] [--seed X]
  serve      [--threads N]                 Serve JSONL requests from stdin
                                           (multi-tenant; see ballfit-serve)
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    match args.command()? {
        "scenarios" => {
            for s in Scenario::ALL {
                println!("{:<12} ({} boundaries expected)", s.name(), s.expected_boundaries());
            }
            Ok(())
        }
        "generate" => generate(args),
        "detect" => detect(args),
        "mesh" => mesh(args),
        "sweep" => sweep(args),
        "serve" => serve(args),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn scenario_by_name(name: &str) -> Result<Scenario, String> {
    Scenario::by_name(name)
        .ok_or_else(|| format!("unknown scenario '{name}' (try `ballfit-cli scenarios`)"))
}

fn build_network(args: &Args) -> Result<NetworkModel, Box<dyn std::error::Error>> {
    let scenario = scenario_by_name(args.get("scenario").unwrap_or("sphere"))?;
    let degree: f64 = args.get_or("degree", 18.5)?;
    if degree.is_nan() || degree <= 0.0 {
        return Err(format!("--degree must be positive, got {degree}").into());
    }
    let model = NetworkBuilder::new(scenario)
        .surface_nodes(args.get_or("surface", 400usize)?)
        .interior_nodes(args.get_or("interior", 700usize)?)
        .target_degree(degree)
        .seed(args.get_or("seed", 0u64)?)
        .build()?;
    Ok(model)
}

fn load_network(args: &Args) -> Result<NetworkModel, Box<dyn std::error::Error>> {
    let path: String = args.require("net")?;
    let text = std::fs::read_to_string(&path)?;
    Ok(netfile::decode_network(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let model = build_network(args)?;
    let out: String = args.require("out")?;
    std::fs::write(&out, netfile::encode_network(&model))?;
    println!(
        "wrote {out}: {} nodes ({} boundary ground truth), range {:.3}, avg degree {:.1}",
        model.len(),
        model.surface_count(),
        model.radio_range(),
        model.topology().degree_stats().mean
    );
    Ok(())
}

fn detect(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let backend = args.get("backend").unwrap_or("ubf");
    if !ballfit_backends::NAMES.contains(&backend) {
        return Err(format!(
            "unknown backend '{backend}' (known: {})",
            ballfit_backends::NAMES.join(", ")
        )
        .into());
    }
    let model = load_network(args)?;
    let error: u32 = args.get_or("error", 0)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let trace_path = args.get("trace").map(String::from);
    let mut trace = if trace_path.is_some() {
        ballfit_obs::Trace::enabled()
    } else {
        ballfit_obs::Trace::disabled()
    };
    if backend == "ubf" {
        // Reference path: the full pipeline including surface meshing
        // stays byte-for-byte what it was before backends existed.
        let result = Pipeline::paper(error, seed).run_traced(&model, &mut trace);
        if let Some(path) = &trace_path {
            trace.write_jsonl(std::path::Path::new(path))?;
            eprintln!("wrote trace {path}");
        }
        if args.flag("json") {
            println!("{}", netfile::stats_json(&result.stats));
        } else {
            println!("{}", result.stats);
            println!("groups: {}", result.detection.groups.len());
            for (i, g) in result.detection.groups.iter().enumerate() {
                println!("  boundary {i}: {} nodes", g.len());
            }
        }
        return Ok(());
    }
    let view = ballfit::view::NetView::from_model(&model);
    let detector = ballfit_backends::configured(
        backend,
        ballfit::config::DetectorConfig::paper(error, seed),
        seed,
        ballfit_par::Parallelism::from_env(),
    )
    .expect("backend name validated against the registry");
    let result = detector.detect(&view, &mut trace);
    if let Some(path) = &trace_path {
        trace.write_jsonl(std::path::Path::new(path))?;
        eprintln!("wrote trace {path}");
    }
    let stats = ballfit::metrics::DetectionStats::evaluate(&model, &result.detection);
    if args.flag("json") {
        println!("{}", netfile::stats_json(&stats));
    } else {
        println!("{stats}");
        println!("groups: {}", result.detection.groups.len());
        for (i, g) in result.detection.groups.iter().enumerate() {
            println!("  boundary {i}: {} nodes", g.len());
        }
        println!(
            "cost: {} messages, {} bytes, {} rounds, {} ball tests",
            result.messages,
            result.bytes,
            result.rounds,
            result.ball_tests()
        );
    }
    Ok(())
}

fn mesh(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    // Landmarks are at least k hops apart, so k = 0 is a usage error:
    // refuse it before loading the network.
    let k: u32 = args.get_or("k", 3)?;
    if k == 0 {
        return Err("invalid value '0' for --k: landmark spacing must be at least 1 hop".into());
    }
    let model = load_network(args)?;
    let error: u32 = args.get_or("error", 0)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mut pipeline = Pipeline::paper(error, seed);
    pipeline.surface.k = k;
    let result = pipeline.run(&model);
    let prefix: String = args.require("out-prefix")?;
    for (i, surface) in result.surfaces.iter().enumerate() {
        let path = format!("{prefix}_{i}.obj");
        write_obj(BufWriter::new(File::create(&path)?), &surface.mesh)?;
        println!(
            "{path}: {} landmarks, {} faces, Euler {}, manifold {:.0}%",
            surface.stats.landmarks,
            surface.stats.faces,
            surface.stats.euler,
            100.0 * surface.stats.audit.manifold_fraction()
        );
    }
    if result.surfaces.is_empty() {
        println!("no boundary group produced enough landmarks to mesh");
    }
    Ok(())
}

fn sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let model = build_network(args)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "error,truth,found,correct,mistaken,missing")?;
    for error in [0u32, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let stats = Pipeline::paper(error, 1).run(&model).stats;
        writeln!(
            out,
            "{error},{},{},{},{},{}",
            stats.truth, stats.found, stats.correct, stats.mistaken, stats.missing
        )?;
    }
    Ok(())
}

fn serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let parallelism = match args.get_parsed::<usize>("threads")? {
        Some(n) => ballfit_par::Parallelism::threads(n),
        None => ballfit_par::Parallelism::from_env(),
    };
    ballfit_serve::run_stdio(parallelism)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn mesh_refuses_k_zero_before_loading_the_network() {
        // Without --net, loading would fail on the missing option: an error
        // naming --k shows the spacing is checked first, and no file is
        // opened either way.
        let err = mesh(&args("mesh --k 0 --out-prefix m")).unwrap_err().to_string();
        assert!(err.contains("--k") && err.contains("at least 1"), "{err}");
        for spacing in ["", "--k 1", "--k 5"] {
            let err =
                mesh(&args(&format!("mesh {spacing} --out-prefix m"))).unwrap_err().to_string();
            assert!(err.contains("--net"), "{spacing}: {err}");
        }
    }

    #[test]
    fn generate_refuses_empty_parts_and_non_positive_degrees() {
        for (flags, expected) in [
            ("--degree 0", "--degree must be positive, got 0"),
            ("--degree -2.5", "--degree must be positive, got -2.5"),
            ("--degree nan", "--degree must be positive, got NaN"),
            ("--surface 0", "surface node count must be positive"),
            ("--interior 0", "interior node count must be positive"),
        ] {
            let line = format!("generate --scenario sphere --out net.json {flags}");
            let err = build_network(&args(&line)).unwrap_err().to_string();
            assert_eq!(err, expected, "{flags}");
        }
    }
}
