//! Structural comparison of two JSONL traces.
//!
//! ```sh
//! cargo run -p ballfit-obs --bin trace_diff -- a.jsonl b.jsonl
//! ```
//!
//! Parses both files line-by-line with `ballfit_json::parse` into
//! `(key, value)` records and compares them structurally (a byte diff
//! would also flag formatting-only differences; this tool only flags
//! differences in recorded facts).
//! Exit status: 0 identical, 1 structurally different, 2 usage / IO /
//! parse error. On a difference the first diverging record is reported
//! with its differing keys.

use ballfit_json::JsonValue;

type Record = Vec<(String, JsonValue)>;

/// Every non-blank line as one object's pairs; errors name the 1-based line.
fn load(path: &str) -> Result<Vec<Record>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in src.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        match ballfit_json::parse(line) {
            Ok(JsonValue::Obj(pairs)) => records.push(pairs),
            Ok(_) => return Err(format!("{path}: line {}: not a JSON object", i + 1)),
            Err(e) => return Err(format!("{path}: line {}: {e}", i + 1)),
        }
    }
    Ok(records)
}

fn describe(pairs: &[(String, JsonValue)]) -> String {
    let parts: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(" ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a_path, b_path] = args.as_slice() else {
        eprintln!("usage: trace_diff <a.jsonl> <b.jsonl>");
        std::process::exit(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("trace_diff: {e}");
            std::process::exit(2);
        }
    };

    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        if ra == rb {
            continue;
        }
        println!("traces diverge at record {} (1-based line {}):", i, i + 1);
        println!("  {a_path}: {}", describe(ra));
        println!("  {b_path}: {}", describe(rb));
        for (k, va) in ra {
            match rb.iter().find(|(kb, _)| kb == k) {
                Some((_, vb)) if va == vb => {}
                Some((_, vb)) => println!("  key {k:?}: {va} != {vb}"),
                None => println!("  key {k:?} only in {a_path}"),
            }
        }
        for (k, _) in rb {
            if !ra.iter().any(|(ka, _)| ka == k) {
                println!("  key {k:?} only in {b_path}");
            }
        }
        std::process::exit(1);
    }
    if a.len() != b.len() {
        println!(
            "traces diverge in length: {a_path} has {} records, {b_path} has {} \
             (common prefix of {} records is identical)",
            a.len(),
            b.len(),
            a.len().min(b.len())
        );
        std::process::exit(1);
    }
    println!("traces are structurally identical: {} records", a.len());
}
