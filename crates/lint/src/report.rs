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
//! what appeared and what vanished.
//!
//! The parser half is a minimal recursive-descent JSON reader (objects,
//! arrays, strings with escapes, numbers, literals) — enough to load a
//! baseline without adding a dependency; full RFC 8259 validation of
//! emitted reports is done in `scripts/check.sh` by a bench bin's
//! `--validate`, which parses them with the serve JSON codec.

use crate::passes::{Analysis, Diagnostic, Pass};
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
    let mut out = String::new();
    out.push_str(
        "{\n  \"meta\": {\n    \"tool\": \"ballfit-lint\",\n    \"schema\": 1,\n    \"passes\": [",
    );
    for (i, p) in Pass::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(p.name()));
    }
    out.push_str("],\n");
    out.push_str(&format!("    \"files\": {},\n", analysis.files));
    out.push_str(&format!("    \"functions\": {}\n", analysis.functions));
    out.push_str("  },\n  \"diagnostics\": [");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"fingerprint\": {}, \"pass\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_string(&e.fingerprint),
            json_string(&e.pass),
            json_string(&e.file),
            e.line,
            json_string(&e.message)
        ));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {\n");
    out.push_str(&format!("    \"total\": {},\n", entries.len()));
    out.push_str("    \"by_pass\": {");
    for (i, p) in Pass::ALL.iter().enumerate() {
        let n = entries.iter().filter(|e| e.pass == p.name()).count();
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json_string(p.name()), n));
    }
    out.push_str("}\n  }\n}\n");
    out
}

/// JSON string escaping per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Baseline drift: fingerprints present now but not in the baseline
/// (`added`) and fingerprints the baseline has that vanished
/// (`removed`). Either direction is drift — a *fixed* finding must be
/// removed from the baseline deliberately, not silently.
#[derive(Debug, Default)]
pub struct Drift {
    /// New findings (not in the baseline).
    pub added: Vec<String>,
    /// Baseline findings that no longer occur.
    pub removed: Vec<String>,
}

impl Drift {
    /// No drift in either direction.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Compares current entries against a baseline report's JSON text.
pub fn diff(current: &[Entry], baseline_json: &str) -> Result<Drift, String> {
    let baseline = parse_entries(baseline_json)?;
    fn count(es: &[Entry]) -> BTreeMap<&str, (u32, String)> {
        let mut m: BTreeMap<&str, (u32, String)> = BTreeMap::new();
        for e in es {
            let slot = m.entry(e.fingerprint.as_str()).or_insert((0, e.human()));
            slot.0 += 1;
        }
        m
    }
    let cur = count(current);
    let base = count(&baseline);
    let mut drift = Drift::default();
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

/// Extracts the `diagnostics` array from a report produced by
/// [`render`] (or hand-edited, as long as it stays valid JSON).
pub fn parse_entries(json: &str) -> Result<Vec<Entry>, String> {
    let value = JsonParser { b: json.as_bytes(), i: 0 }.parse()?;
    let Json::Object(top) = value else {
        return Err("baseline: top level is not an object".to_string());
    };
    let Some(Json::Array(diags)) = top.iter().find(|(k, _)| k == "diagnostics").map(|(_, v)| v)
    else {
        return Err("baseline: missing `diagnostics` array".to_string());
    };
    let mut out = Vec::new();
    for d in diags {
        let Json::Object(fields) = d else {
            return Err("baseline: diagnostic is not an object".to_string());
        };
        let get_str = |name: &str| -> Result<String, String> {
            match fields.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
                Some(Json::String(s)) => Ok(s.clone()),
                _ => Err(format!("baseline: diagnostic missing string `{name}`")),
            }
        };
        let line = match fields.iter().find(|(k, _)| k == "line").map(|(_, v)| v) {
            Some(Json::Number(n)) => *n as u32,
            _ => 0,
        };
        out.push(Entry {
            fingerprint: get_str("fingerprint")?,
            pass: get_str("pass")?,
            file: get_str("file")?,
            line,
            message: get_str("message")?,
        });
    }
    Ok(out)
}

/// Minimal JSON value for baseline loading.
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    // Baseline loading only reads strings out of the `diagnostics`
    // array; bool/null payloads are validated, not consumed.
    Bool,
    Null,
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.b.len() {
            return Err(format!("baseline: trailing bytes at offset {}", self.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("baseline: expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("baseline: bad object at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("baseline: bad array at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.i;
                self.i += 1;
                while self.b.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("baseline: bad number at offset {start}"))
            }
            _ => Err(format!("baseline: unexpected byte at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("baseline: bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.ws();
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("baseline: expected string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out)
                        .map_err(|_| "baseline: invalid UTF-8 in string".to_string());
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("baseline: bad \\u escape at offset {}", self.i)
                                })?;
                            // Surrogate pairs don't occur in our reports;
                            // map lone surrogates to U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                            self.i += 4;
                        }
                        _ => return Err(format!("baseline: bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                _ => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
        Err("baseline: unterminated string".to_string())
    }
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
        let parsed = parse_entries(&r1).expect("round-trips");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].message, "msg \"quoted\" and \\ back");
        assert_eq!(parsed[1].pass, "stale-allow");
        assert_eq!(parsed[1].line, 9);
    }

    #[test]
    fn diff_reports_drift_in_both_directions() {
        let base = render(&analysis(vec![diag(Pass::Locality, "f.rs", 1, "old")]));
        let cur = entries(&[diag(Pass::Locality, "f.rs", 1, "new")]);
        let drift = diff(&cur, &base).expect("baseline parses");
        assert_eq!(drift.added.len(), 1);
        assert_eq!(drift.removed.len(), 1);
        assert!(!drift.is_empty());
        // Identical sets (even at different lines) are no drift.
        let same = entries(&[diag(Pass::Locality, "f.rs", 77, "old")]);
        assert!(diff(&same, &base).expect("parses").is_empty());
    }

    #[test]
    fn empty_report_has_fixed_shape() {
        let r = render(&analysis(Vec::new()));
        assert!(r.contains("\"diagnostics\": []"));
        assert!(r.contains("\"total\": 0"));
        assert!(r.contains("\"determinism-taint\": 0"));
        assert!(parse_entries(&r).expect("parses").is_empty());
    }
}
