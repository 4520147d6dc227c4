//! JSONL serialization of traces.
//!
//! Every record serializes as one flat RFC 8259 object per line with a
//! fixed key order, so equal traces produce equal bytes and the bench
//! JSON validator accepts every line. Values are only ever static
//! identifiers, integers and booleans, so the writer formats them
//! directly: each line is exactly what `ballfit_json`'s canonical
//! writer would produce, which a test pins. `trace_diff` reads traces
//! back with `ballfit_json::parse`.

use std::fmt::Write as _;

use crate::{TraceEvent, TraceRecord};

/// Appends `rec` as one flat JSON object (no trailing newline).
pub fn write_record(out: &mut String, rec: &TraceRecord) {
    let _ = write!(out, "{{\"seq\":{},\"span\":{}", rec.seq, rec.span);
    match &rec.event {
        TraceEvent::SpanOpen { name, parent } => {
            let _ = write!(out, ",\"ev\":\"span_open\",\"name\":\"{name}\",\"parent\":{parent}");
        }
        TraceEvent::SpanClose { name } => {
            let _ = write!(out, ",\"ev\":\"span_close\",\"name\":\"{name}\"");
        }
        TraceEvent::NetSize { nodes, edges } => {
            let _ = write!(out, ",\"ev\":\"net_size\",\"nodes\":{nodes},\"edges\":{edges}");
        }
        TraceEvent::Round {
            round,
            sent,
            bytes,
            delivered,
            dropped,
            duplicated,
            delayed,
            crash_lost,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"round\",\"round\":{round},\"sent\":{sent},\"bytes\":{bytes},\
                 \"delivered\":{delivered},\"dropped\":{dropped},\"duplicated\":{duplicated},\
                 \"delayed\":{delayed},\"crash_lost\":{crash_lost}"
            );
        }
        TraceEvent::BallTests { node, tests, boundary } => {
            let _ = write!(
                out,
                ",\"ev\":\"ball_tests\",\"node\":{node},\"tests\":{tests},\"boundary\":{boundary}"
            );
        }
        TraceEvent::Degenerate { node } => {
            let _ = write!(out, ",\"ev\":\"degenerate\",\"node\":{node}");
        }
        TraceEvent::Retransmits { node, resends } => {
            let _ = write!(out, ",\"ev\":\"retransmits\",\"node\":{node},\"resends\":{resends}");
        }
        TraceEvent::Reforwards { node, count } => {
            let _ = write!(out, ",\"ev\":\"reforwards\",\"node\":{node},\"count\":{count}");
        }
        TraceEvent::Convergence { rounds, messages, bytes, quiescent } => {
            let _ = write!(
                out,
                ",\"ev\":\"convergence\",\"rounds\":{rounds},\"messages\":{messages},\
                 \"bytes\":{bytes},\"quiescent\":{quiescent}"
            );
        }
        TraceEvent::Halo { size, promoted, demoted, regrouped } => {
            let _ = write!(
                out,
                ",\"ev\":\"halo\",\"size\":{size},\"promoted\":{promoted},\
                 \"demoted\":{demoted},\"regrouped\":{regrouped}"
            );
        }
        TraceEvent::Counter { name, value } => {
            let _ = write!(out, ",\"ev\":\"counter\",\"name\":\"{name}\",\"value\":{value}");
        }
        TraceEvent::Verdict { exact, cause, unreached, coverage_ppm } => {
            let _ = write!(
                out,
                ",\"ev\":\"verdict\",\"exact\":{exact},\"cause\":\"{cause}\",\
                 \"unreached\":{unreached},\"coverage_ppm\":{coverage_ppm}"
            );
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use ballfit_json::JsonValue;

    #[test]
    fn every_event_kind_writes_one_canonical_flat_object() {
        let mut t = Trace::enabled();
        t.event(TraceEvent::NetSize { nodes: 3, edges: 2 });
        t.open("ubf");
        t.open("round");
        t.event(TraceEvent::Round {
            round: 1,
            sent: 4,
            bytes: 32,
            delivered: 4,
            dropped: 1,
            duplicated: 0,
            delayed: 2,
            crash_lost: 0,
        });
        t.close();
        t.event(TraceEvent::BallTests { node: 0, tests: 17, boundary: true });
        t.event(TraceEvent::Degenerate { node: 1 });
        t.event(TraceEvent::Retransmits { node: 2, resends: 3 });
        t.event(TraceEvent::Reforwards { node: 2, count: 1 });
        t.event(TraceEvent::Convergence { rounds: 1, messages: 4, bytes: 32, quiescent: true });
        t.event(TraceEvent::Halo { size: 5, promoted: 1, demoted: 0, regrouped: 2 });
        t.event(TraceEvent::Counter { name: "boundary", value: 9 });
        t.event(TraceEvent::Verdict {
            exact: false,
            cause: "retry-exhausted",
            unreached: 3,
            coverage_ppm: 985_000,
        });
        t.close();
        let doc = t.to_jsonl();
        let lines: Vec<JsonValue> =
            doc.lines().map(|l| ballfit_json::parse(l).expect("trace line parses")).collect();
        assert_eq!(lines.len(), t.records().len());
        for (text, value) in doc.lines().zip(&lines) {
            assert_eq!(value.to_string(), text, "the canonical writer reproduces the line");
            let pairs = value.as_obj().expect("each line is an object");
            assert!(pairs.iter().all(|(_, v)| !matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_))));
        }
        // Spot-check lines: values survive under their keys.
        let find = |ev: &str| lines.iter().find(|l| l.get("ev") == Some(&ev.into())).expect(ev);
        let round = find("round");
        assert_eq!(round.get("sent").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(round.get("bytes").and_then(JsonValue::as_u64), Some(32));
        assert_eq!(round.get("dropped").and_then(JsonValue::as_u64), Some(1));
        let verdict = find("verdict");
        assert_eq!(verdict.get("cause").and_then(JsonValue::as_str), Some("retry-exhausted"));
        assert_eq!(verdict.get("coverage_ppm").and_then(JsonValue::as_u64), Some(985_000));
    }
}
