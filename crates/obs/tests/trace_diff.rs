//! The `trace_diff` binary's verdicts and exit codes (0 identical,
//! 1 different, 2 unreadable), run as built.

use std::path::PathBuf;
use std::process::Command;

const TRACE: &str = "{\"seq\":0,\"span\":1,\"ev\":\"span_open\",\"name\":\"ubf\",\"parent\":0}\n\
                     {\"seq\":1,\"span\":1,\"ev\":\"round\",\"round\":1,\"sent\":4}\n";

/// Diffs [`TRACE`] against `other`; returns the exit code and the output.
fn trace_diff(case: &str, other: &str) -> (i32, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (dir.join(format!("{case}_a.jsonl")), dir.join(format!("{case}_b.jsonl")));
    std::fs::write(&a, TRACE).expect("write trace a");
    std::fs::write(&b, other).expect("write trace b");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff")).arg(&a).arg(&b).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("exit code"), text.into_owned())
}

#[test]
fn identical_traces_exit_zero_even_when_formatted_differently() {
    let (code, out) = trace_diff("same", &TRACE.replace(',', ", "));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("structurally identical: 2 records"), "{out}");
}

#[test]
fn a_changed_value_exits_one_and_names_the_key() {
    let (code, out) = trace_diff("value", &TRACE.replace("\"sent\":4", "\"sent\":5"));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("record 1") && out.contains("key \"sent\": 4 != 5"), "{out}");
}

#[test]
fn an_extra_record_exits_one_and_names_the_lengths() {
    let extra = format!("{TRACE}{{\"seq\":2,\"span\":1,\"ev\":\"span_close\",\"name\":\"ubf\"}}\n");
    let (code, out) = trace_diff("extra", &extra);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("has 2 records") && out.contains("has 3"), "{out}");
}

#[test]
fn a_malformed_line_exits_two_and_names_it() {
    let (code, out) = trace_diff("malformed", &format!("{TRACE}{{\"seq\":2,\n"));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("line 3"), "{out}");
}
