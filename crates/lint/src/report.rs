//! Machine-readable lint reports and baseline drift detection.
//!
//! The report is JSON with a **fixed key order** and no timestamps, so
//! two runs over identical sources produce byte-identical output — the
//! same discipline the trace subsystem uses (`trace_diff`), applied to
//! lint findings. Every diagnostic carries a **fingerprint**: an FNV-1a
//! hash over `(pass, file, message, occurrence-index)` — deliberately
//! *excluding* the line number, so unrelated edits that shift a finding
//! up or down do not read as lint drift. `diff` compares the fingerprint
//! multiset of a run against a committed baseline and reports exactly
//! what appeared and what vanished, plus every `meta` field that changed.
//!
//! The report is a `ballfit_json` tree written in the codec's artifact
//! layout, and baselines are parsed by the same codec.

use crate::passes::{Analysis, Diagnostic, Pass};
use ballfit_json::{arr, obj, JsonValue};
use std::collections::BTreeMap;

/// One report entry: a diagnostic plus its stable fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 16-hex-digit FNV-1a fingerprint.
    pub fingerprint: String,
    /// Pass name.
    pub pass: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (excluded from the fingerprint).
    pub line: u32,
    /// Diagnostic message.
    pub message: String,
}

impl Entry {
    fn human(&self) -> String {
        format!(
            "[{}] {}:{} {} ({})",
            self.pass, self.file, self.line, self.message, self.fingerprint
        )
    }
}

/// Computes fingerprinted entries for a diagnostic list. Diagnostics
/// must already be sorted (as [`crate::passes::analyze_files`] returns
/// them); the occurrence index disambiguates repeated identical
/// findings in one file.
pub fn entries(diags: &[Diagnostic]) -> Vec<Entry> {
    let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    diags
        .iter()
        .map(|d| {
            let key = (d.pass.name().to_string(), d.file.clone(), d.message.clone());
            let occurrence = seen.entry(key).or_insert(0);
            let fp = fingerprint(d.pass.name(), &d.file, &d.message, *occurrence);
            *occurrence += 1;
            Entry {
                fingerprint: fp,
                pass: d.pass.name().to_string(),
                file: d.file.clone(),
                line: d.line,
                message: d.message.clone(),
            }
        })
        .collect()
}

/// FNV-1a 64 over the identity fields, `\x1f`-separated.
fn fingerprint(pass: &str, file: &str, message: &str, occurrence: u32) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(pass.as_bytes());
    eat(&[0x1f]);
    eat(file.as_bytes());
    eat(&[0x1f]);
    eat(message.as_bytes());
    eat(&[0x1f]);
    eat(occurrence.to_string().as_bytes());
    format!("{h:016x}")
}

/// Renders the full report. Key order is fixed; diagnostics are one per
/// line so drift reviews read as line diffs.
pub fn render(analysis: &Analysis) -> String {
    let entries = entries(&analysis.diagnostics);
    let passes = || Pass::ALL.iter().map(|p| p.name());
    let diagnostics = entries.iter().map(|e| {
        obj([
            ("fingerprint", e.fingerprint.as_str().into()),
            ("pass", e.pass.as_str().into()),
            ("file", e.file.as_str().into()),
            ("line", e.line.into()),
            ("message", e.message.as_str().into()),
        ])
    });
    let by_pass = passes().map(|name| (name, entries.iter().filter(|e| e.pass == name).count()));
    obj([
        (
            "meta",
            obj([
                ("tool", "ballfit-lint".into()),
                ("schema", 1u32.into()),
                ("passes", arr(passes())),
                ("files", analysis.files.into()),
                ("functions", analysis.functions.into()),
            ]),
        ),
        ("diagnostics", arr(diagnostics)),
        (
            "summary",
            obj([
                ("total", entries.len().into()),
                ("by_pass", obj(by_pass.map(|(name, n)| (name, n.into())))),
            ]),
        ),
    ])
    .to_artifact()
}

/// Baseline drift: fingerprints present now but not in the baseline
/// (`added`), fingerprints the baseline has that vanished (`removed`),
/// and `meta` fields that differ (`meta`). Any of them is drift — a
/// *fixed* finding, or a crate that silently left the scan, must reach
/// the baseline deliberately.
#[derive(Debug, Default)]
pub struct Drift {
    /// New findings (not in the baseline).
    pub added: Vec<String>,
    /// Baseline findings that no longer occur.
    pub removed: Vec<String>,
    /// Changed `meta` fields, one `"<field>: baseline <old>, now <new>"` each.
    pub meta: Vec<String>,
}

impl Drift {
    /// No drift of any kind.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.meta.is_empty()
    }
}

/// Compares a run against a baseline report's JSON text; the run's `meta`
/// is read back from its own [`render`]ed report.
pub fn diff(analysis: &Analysis, baseline_json: &str) -> Result<Drift, String> {
    let top = ballfit_json::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let now = ballfit_json::parse(&render(analysis)).map_err(|e| format!("report: {e}"))?;
    let baseline = parse_entries(&top)?;
    let current = entries(&analysis.diagnostics);
    fn count(es: &[Entry]) -> BTreeMap<&str, (u32, String)> {
        let mut m: BTreeMap<&str, (u32, String)> = BTreeMap::new();
        for e in es {
            let slot = m.entry(e.fingerprint.as_str()).or_insert((0, e.human()));
            slot.0 += 1;
        }
        m
    }
    let cur = count(&current);
    let base = count(&baseline);
    let mut drift = Drift::default();
    let base_meta = top.get("meta");
    for (field, now) in now.get("meta").and_then(JsonValue::as_obj).unwrap_or_default() {
        let was = base_meta.and_then(|m| m.get(field));
        if was != Some(now) {
            let was = was.map_or("missing".to_string(), JsonValue::to_string);
            drift.meta.push(format!("{field}: baseline {was}, now {now}"));
        }
    }
    for (fp, (n, human)) in &cur {
        let b = base.get(fp).map_or(0, |(n, _)| *n);
        for _ in b..*n {
            drift.added.push(human.clone());
        }
    }
    for (fp, (n, human)) in &base {
        let c = cur.get(fp).map_or(0, |(n, _)| *n);
        for _ in c..*n {
            drift.removed.push(human.clone());
        }
    }
    Ok(drift)
}

/// Extracts the `diagnostics` array from a parsed report produced by
/// [`render`] (or hand-edited, as long as it stays valid JSON).
pub fn parse_entries(top: &JsonValue) -> Result<Vec<Entry>, String> {
    let diags = top
        .get("diagnostics")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline: missing `diagnostics` array")?;
    diags
        .iter()
        .map(|d| {
            let get_str = |name: &str| {
                d.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline: diagnostic missing string `{name}`"))
            };
            Ok(Entry {
                fingerprint: get_str("fingerprint")?,
                pass: get_str("pass")?,
                file: get_str("file")?,
                line: d.get("line").and_then(JsonValue::as_u64).map_or(0, |l| l as u32),
                message: get_str("message")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Diagnostic;

    fn diag(pass: Pass, file: &str, line: u32, msg: &str) -> Diagnostic {
        Diagnostic { pass, file: file.to_string(), line, message: msg.to_string() }
    }

    fn analysis(diags: Vec<Diagnostic>) -> Analysis {
        Analysis { diagnostics: diags, files: 3, functions: 17 }
    }

    #[test]
    fn fingerprints_ignore_lines_but_count_occurrences() {
        let a = entries(&[diag(Pass::Locality, "f.rs", 10, "m")]);
        let b = entries(&[diag(Pass::Locality, "f.rs", 99, "m")]);
        assert_eq!(a[0].fingerprint, b[0].fingerprint);
        let two = entries(&[
            diag(Pass::Locality, "f.rs", 10, "m"),
            diag(Pass::Locality, "f.rs", 11, "m"),
        ]);
        assert_ne!(two[0].fingerprint, two[1].fingerprint, "occurrence index disambiguates");
    }

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let an = analysis(vec![
            diag(Pass::FloatSafety, "crates/a.rs", 4, "msg \"quoted\" and \\ back"),
            diag(Pass::StaleAllow, "crates/b.rs", 9, "stale"),
        ]);
        let r1 = render(&an);
        let r2 = render(&an);
        assert_eq!(r1, r2);
        let parsed =
            parse_entries(&ballfit_json::parse(&r1).expect("parses")).expect("round-trips");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].message, "msg \"quoted\" and \\ back");
        assert_eq!(parsed[1].pass, "stale-allow");
        assert_eq!(parsed[1].line, 9);
    }

    #[test]
    fn diff_reports_drift_in_both_directions() {
        let base = render(&analysis(vec![diag(Pass::Locality, "f.rs", 1, "old")]));
        let cur = analysis(vec![diag(Pass::Locality, "f.rs", 1, "new")]);
        let drift = diff(&cur, &base).expect("baseline parses");
        assert_eq!(drift.added.len(), 1);
        assert_eq!(drift.removed.len(), 1);
        assert!(!drift.is_empty());
        // Identical sets (even at different lines) are no drift.
        let same = analysis(vec![diag(Pass::Locality, "f.rs", 77, "old")]);
        assert!(diff(&same, &base).expect("parses").is_empty());
    }

    #[test]
    fn meta_differences_are_drift_named_by_field() {
        let base = render(&analysis(Vec::new()));
        let mut grown = analysis(Vec::new());
        grown.functions += 1;
        let drift = diff(&grown, &base).expect("baseline parses");
        assert_eq!(drift.meta, ["functions: baseline 17, now 18"]);
        assert!(drift.added.is_empty() && drift.removed.is_empty() && !drift.is_empty());
        let dropped = base.replace("\"schema\": 1, ", "");
        let drift = diff(&analysis(Vec::new()), &dropped).expect("baseline parses");
        assert_eq!(drift.meta, ["schema: baseline missing, now 1"]);
    }

    #[test]
    fn empty_report_has_fixed_shape() {
        let r = render(&analysis(Vec::new()));
        assert!(r.contains("\"diagnostics\": []"));
        assert!(r.contains("\"total\": 0"));
        assert!(r.contains("\"determinism-taint\": 0"));
        assert!(parse_entries(&ballfit_json::parse(&r).expect("parses"))
            .expect("reads")
            .is_empty());
    }
}
