//! Diagnostics: finding type, text/JSON rendering, and the baseline.
//!
//! JSON is rendered *and parsed* by hand, mirroring the
//! `dlp-bench/src/telemetry.rs` approach — the workspace has no JSON
//! dependency, and the two schemas involved
//! (`dlp-lint/diagnostics/v1`, `dlp-lint/baseline/v1`) are small and
//! flat enough that a ~100-line recursive-descent parser is the
//! simplest dependency-free option.

use crate::rules::rule_by_id;

/// Schema tag embedded in diagnostics JSON output. v2 adds the
/// per-finding `family` (rule-group tag) and `reachable_from`
/// (root-to-finding call chain, or null) fields.
pub const DIAG_SCHEMA: &str = "dlp-lint/diagnostics/v2";
/// Schema tag expected at the top of a baseline file.
pub const BASELINE_SCHEMA: &str = "dlp-lint/baseline/v1";

/// The placeholder reason older `--write-baseline` runs emitted. A
/// baseline is a ledger of *justified* debt, so entries still carrying
/// this marker are rejected at parse time — the writer now requires a
/// real `--reason`, and stale markers must be filled in, not shipped.
pub const TODO_REASON_MARKER: &str = "TODO: justify or fix";

/// One confirmed finding (post-suppression), ready for reporting.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule ID (`E201`, …).
    pub rule: &'static str,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Offending token, used for baseline matching.
    pub token: String,
    /// Human-readable message.
    pub message: String,
    /// For call-graph findings: the chain from a hot/probe/parallel
    /// root to the function containing the finding.
    pub reachable_from: Option<String>,
    /// True if an entry in the baseline file covers this finding.
    pub baselined: bool,
}

impl Finding {
    /// Rule name, hint, and family tag from the rule table.
    fn rule_meta(&self) -> (&'static str, &'static str, &'static str) {
        match rule_by_id(self.rule) {
            Some(r) => (r.name, r.hint, r.group.family()),
            None => ("unknown", "", "unknown"),
        }
    }
}

/// Escape a string for JSON output (same contract as telemetry.rs).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render findings as line-oriented human text.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let (name, hint, _) = f.rule_meta();
        let tag = if f.baselined { " [baselined]" } else { "" };
        out.push_str(&format!(
            "{}:{}:{}: {} {}: {}{}\n",
            f.file, f.line, f.col, f.rule, name, f.message, tag
        ));
        if let Some(chain) = &f.reachable_from {
            out.push_str(&format!("  reachable from: {chain}\n"));
        }
        if !f.baselined && !hint.is_empty() {
            out.push_str(&format!("  hint: {hint}\n"));
        }
    }
    let new = findings.iter().filter(|f| !f.baselined).count();
    let baselined = findings.len() - new;
    out.push_str(&format!(
        "dlp-lint: {files_scanned} files scanned, {} finding(s) ({baselined} baselined, {new} new)\n",
        findings.len()
    ));
    out
}

/// Render findings as machine-readable JSON (`dlp-lint/diagnostics/v2`).
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{DIAG_SCHEMA}\",\n"));
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    let new = findings.iter().filter(|f| !f.baselined).count();
    out.push_str(&format!("  \"new_findings\": {new},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let (name, hint, family) = f.rule_meta();
        if i > 0 {
            out.push(',');
        }
        let reachable = match &f.reachable_from {
            Some(chain) => format!("\"{}\"", esc(chain)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"family\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"token\": \"{}\", \"message\": \"{}\", \"hint\": \"{}\", \
             \"reachable_from\": {}, \"baselined\": {}}}",
            f.rule,
            name,
            family,
            esc(&f.file),
            f.line,
            f.col,
            esc(&f.token),
            esc(&f.message),
            esc(hint),
            reachable,
            f.baselined
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// One baseline entry: permits up to `count` findings matching
/// (rule, file, token), with a required human reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule ID the entry covers.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Offending token the entry covers.
    pub token: String,
    /// How many matching findings are accepted.
    pub count: usize,
    /// Why the findings are accepted.
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Accepted-finding entries.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parse a `dlp-lint/baseline/v1` JSON document.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let value = json::parse(src)?;
        let obj = value.as_object().ok_or("baseline root must be an object")?;
        let schema = obj
            .iter()
            .find(|(k, _)| k == "schema")
            .and_then(|(_, v)| v.as_str())
            .ok_or("baseline missing \"schema\" field")?;
        if schema != BASELINE_SCHEMA {
            return Err(format!("unsupported baseline schema `{schema}`"));
        }
        let findings = obj
            .iter()
            .find(|(k, _)| k == "findings")
            .and_then(|(_, v)| v.as_array())
            .ok_or("baseline missing \"findings\" array")?;
        let mut entries = Vec::new();
        for f in findings {
            let fo = f.as_object().ok_or("baseline finding must be an object")?;
            let get_str = |key: &str| {
                fo.iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_str())
                    .map(str::to_string)
                    .ok_or(format!("baseline finding missing \"{key}\""))
            };
            let count = fo
                .iter()
                .find(|(k, _)| k == "count")
                .and_then(|(_, v)| v.as_usize())
                .unwrap_or(1);
            let entry = BaselineEntry {
                rule: get_str("rule")?,
                file: get_str("file")?,
                token: get_str("token")?,
                count,
                reason: get_str("reason")?,
            };
            if rule_by_id(&entry.rule).is_none() {
                return Err(format!("baseline references unknown rule `{}`", entry.rule));
            }
            if entry.reason.trim().is_empty() {
                return Err(format!(
                    "baseline entry for {} in {} has an empty reason",
                    entry.rule, entry.file
                ));
            }
            if entry.reason.contains(TODO_REASON_MARKER) {
                return Err(format!(
                    "baseline entry for {} in {} still carries the \"{TODO_REASON_MARKER}\" \
                     placeholder — write a real justification",
                    entry.rule, entry.file
                ));
            }
            entries.push(entry);
        }
        Ok(Baseline { entries })
    }

    /// Render findings as a fresh baseline document (`--write-baseline`).
    /// Identical (rule, file, token) findings collapse into one entry
    /// with a count; every entry carries `reason` — the caller-supplied
    /// justification (`--reason` on the CLI), which replaced the old
    /// `TODO: justify or fix` placeholder that shipped unreviewed debt.
    /// Entries are sorted by (rule, file, token) so the output is
    /// deterministic regardless of scan order.
    pub fn render(findings: &[Finding], reason: &str) -> String {
        let mut groups: Vec<(&'static str, &str, &str, usize)> = Vec::new();
        for f in findings {
            if let Some(g) =
                groups.iter_mut().find(|g| g.0 == f.rule && g.1 == f.file && g.2 == f.token)
            {
                g.3 += 1;
            } else {
                groups.push((f.rule, &f.file, &f.token, 1));
            }
        }
        groups.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BASELINE_SCHEMA}\",\n"));
        out.push_str("  \"findings\": [");
        for (i, (rule, file, token, count)) in groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{rule}\", \"file\": \"{}\", \"token\": \"{}\", \
                 \"count\": {count}, \"reason\": \"{}\"}}",
                esc(file),
                esc(token),
                esc(reason)
            ));
        }
        if !groups.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Mark findings covered by this baseline. Findings arrive in
    /// walk/scan order (sorted file, then position), so within a
    /// (rule, file, token) group the first `count` instances are the
    /// accepted ones. Returns the number of *stale* baseline slots —
    /// accepted findings that no longer occur (worth pruning).
    pub fn apply(&self, findings: &mut [Finding]) -> usize {
        let mut remaining: Vec<usize> = self.entries.iter().map(|e| e.count).collect();
        for f in findings.iter_mut() {
            if let Some(idx) = self.entries.iter().position(|e| {
                e.rule == f.rule && e.file == f.file && e.token == f.token
            }) {
                if remaining[idx] > 0 {
                    remaining[idx] -= 1;
                    f.baselined = true;
                }
            }
        }
        remaining.iter().sum()
    }
}

/// Minimal recursive-descent JSON parser — just enough for the flat
/// baseline and diagnostics schemas (objects, arrays, strings,
/// non-negative integers, booleans, null). Public so the self-check
/// integration tests can consume `dlp-lint`'s own JSON output without
/// an external JSON dependency.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug)]
    pub enum Value {
        /// Object as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
        /// Array.
        Arr(Vec<Value>),
        /// String.
        Str(String),
        /// Number (stored as f64; baseline counts are small integers).
        Num(f64),
        /// Boolean.
        Bool(bool),
        /// Null.
        Null,
    }

    impl Value {
        /// Object key/value pairs, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
        /// Array elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        /// String content, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// Non-negative integral number, if this is one.
        pub fn as_usize(&self) -> Option<usize> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
                _ => None,
            }
        }
        /// Boolean, if this is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(src: &str) -> Result<Value, String> {
        let chars: Vec<char> = src.chars().collect();
        let mut pos = 0usize;
        let v = parse_value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(chars: &[char], pos: &mut usize) {
        while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
            *pos += 1;
        }
    }

    fn expect(chars: &[char], pos: &mut usize, c: char) -> Result<(), String> {
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {pos}", pos = *pos))
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        skip_ws(chars, pos);
        match chars.get(*pos) {
            Some('{') => parse_object(chars, pos),
            Some('[') => parse_array(chars, pos),
            Some('"') => Ok(Value::Str(parse_string(chars, pos)?)),
            Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars, pos),
            Some('t') => parse_lit(chars, pos, "true", Value::Bool(true)),
            Some('f') => parse_lit(chars, pos, "false", Value::Bool(false)),
            Some('n') => parse_lit(chars, pos, "null", Value::Null),
            _ => Err(format!("unexpected character at offset {pos}", pos = *pos)),
        }
    }

    fn parse_lit(
        chars: &[char],
        pos: &mut usize,
        lit: &str,
        value: Value,
    ) -> Result<Value, String> {
        for c in lit.chars() {
            if chars.get(*pos) != Some(&c) {
                return Err(format!("bad literal at offset {pos}", pos = *pos));
            }
            *pos += 1;
        }
        Ok(value)
    }

    fn parse_object(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        expect(chars, pos, '{')?;
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(chars, pos);
            let key = parse_string(chars, pos)?;
            expect(chars, pos, ':')?;
            let value = parse_value(chars, pos)?;
            out.push((key, value));
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
            }
        }
    }

    fn parse_array(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        expect(chars, pos, '[')?;
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(parse_value(chars, pos)?);
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
            }
        }
    }

    fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
        if chars.get(*pos) != Some(&'"') {
            return Err(format!("expected string at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = chars.get(*pos) {
            *pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.get(*pos).copied().ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = chars
                                    .get(*pos)
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                *pos += 1;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unsupported escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if chars.get(*pos) == Some(&'-') {
            *pos += 1;
        }
        while chars
            .get(*pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            *pos += 1;
        }
        let text: String = chars[start..*pos].iter().collect();
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, token: &str) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line: 1,
            col: 1,
            token: token.into(),
            message: "m".into(),
            reachable_from: None,
            baselined: false,
        }
    }

    #[test]
    fn baseline_render_is_sorted_by_rule_file_token() {
        let findings = [
            finding("P301", "crates/z.rs", "Box"),
            finding("D004", "crates/a.rs", "m"),
            finding("P301", "crates/a.rs", "Vec"),
        ];
        let rendered = Baseline::render(&findings, "accepted for the test");
        let parsed = Baseline::parse(&rendered).unwrap();
        let order: Vec<(String, String)> =
            parsed.entries.iter().map(|e| (e.rule.clone(), e.file.clone())).collect();
        assert_eq!(
            order,
            [
                ("D004".to_string(), "crates/a.rs".to_string()),
                ("P301".to_string(), "crates/a.rs".to_string()),
                ("P301".to_string(), "crates/z.rs".to_string()),
            ]
        );
    }

    #[test]
    fn v2_json_carries_family_and_reachable_from() {
        let mut f = finding("P301", "crates/gpu-sim/src/gpu.rs", "Box");
        f.reachable_from = Some("Gpu::step -> hang_report".into());
        let out = render_json(&[f, finding("D004", "a.rs", "m")], 2);
        let v = super::json::parse(&out).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj
            .iter()
            .any(|(k, v)| k == "schema" && v.as_str() == Some("dlp-lint/diagnostics/v2")));
        let findings = obj.iter().find(|(k, _)| k == "findings").unwrap().1.as_array().unwrap();
        let first = findings[0].as_object().unwrap();
        assert!(first.iter().any(|(k, v)| k == "family" && v.as_str() == Some("perf")));
        assert!(first.iter().any(
            |(k, v)| k == "reachable_from" && v.as_str() == Some("Gpu::step -> hang_report")
        ));
        let second = findings[1].as_object().unwrap();
        assert!(second
            .iter()
            .any(|(k, v)| k == "reachable_from" && matches!(v, super::json::Value::Null)));
    }

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let findings =
            [finding("E201", "crates/gpu-mem/src/l1d.rs", "unwrap"), finding("D004", "a.rs", "m")];
        let rendered = Baseline::render(&findings, "vendored code, upstream idiom");
        let parsed = Baseline::parse(&rendered).unwrap();
        assert_eq!(parsed.entries.len(), 2);
        // Render sorts by (rule, file, token), so D004 leads.
        assert_eq!(parsed.entries[0].rule, "D004");
        assert_eq!(parsed.entries[1].rule, "E201");
        assert_eq!(parsed.entries[1].count, 1);
        assert_eq!(parsed.entries[0].reason, "vendored code, upstream idiom");
    }

    #[test]
    fn baseline_rejects_the_todo_placeholder_reason() {
        let findings = [finding("E201", "f.rs", "unwrap")];
        let rendered = Baseline::render(&findings, TODO_REASON_MARKER);
        let err = Baseline::parse(&rendered).unwrap_err();
        assert!(err.contains("placeholder"), "{err}");
        // A reason that merely mentions real context still passes.
        let ok = Baseline::render(&findings, "unwrap is test-only scaffolding");
        assert!(Baseline::parse(&ok).is_ok());
    }

    #[test]
    fn baseline_apply_marks_counts_and_reports_stale() {
        let base = Baseline::parse(
            r#"{"schema": "dlp-lint/baseline/v1", "findings": [
                {"rule": "E201", "file": "f.rs", "token": "unwrap", "count": 2, "reason": "r"},
                {"rule": "D004", "file": "g.rs", "token": "m", "reason": "gone"}
            ]}"#,
        )
        .unwrap();
        let mut findings = vec![
            finding("E201", "f.rs", "unwrap"),
            finding("E201", "f.rs", "unwrap"),
            finding("E201", "f.rs", "unwrap"),
        ];
        let stale = base.apply(&mut findings);
        assert_eq!(findings.iter().filter(|f| f.baselined).count(), 2);
        assert!(!findings[2].baselined);
        assert_eq!(stale, 1); // the D004 entry no longer matches anything
    }

    #[test]
    fn baseline_rejects_unknown_rule_and_empty_reason() {
        let bad_rule = r#"{"schema": "dlp-lint/baseline/v1", "findings": [
            {"rule": "Z999", "file": "f.rs", "token": "x", "reason": "r"}]}"#;
        assert!(Baseline::parse(bad_rule).is_err());
        let bad_reason = r#"{"schema": "dlp-lint/baseline/v1", "findings": [
            {"rule": "E201", "file": "f.rs", "token": "x", "reason": "  "}]}"#;
        assert!(Baseline::parse(bad_reason).is_err());
    }

    #[test]
    fn json_output_is_parseable_by_own_parser_and_escapes() {
        let mut f = finding("E201", "weird\"path\\x.rs", "unwrap");
        f.message = "line1\nline2".into();
        let out = render_json(&[f], 3);
        // Self-consistency: the diagnostics JSON must parse with the
        // same minimal parser used for baselines.
        let v = super::json::parse(&out).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.iter().any(|(k, v)| k == "schema"
            && v.as_str() == Some(super::DIAG_SCHEMA)));
    }
}
