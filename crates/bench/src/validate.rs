//! Capture validation for `--telemetry` JSON-lines files — the library
//! behind the `validate_telemetry` CI gate.
//!
//! Split out of the binary so the flag parsing and the validation rules
//! are unit-testable. The binary maps [`parse_args`] + [`validate_capture`]
//! errors to a non-zero exit.

use serde_json::Value;
use std::collections::BTreeMap;

/// What to demand from a capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateSpec {
    /// Capture path (first positional argument; `telemetry.jsonl` default).
    pub path: String,
    /// Events that must each appear at least once (exact name match).
    pub require_events: Vec<String>,
    /// Span-path substrings that must each match at least one span.
    pub require_spans: Vec<String>,
}

/// Default span requirements: the instrumented subsystems every figure
/// binary exercises. Serve captures override with `--require-spans`.
pub const DEFAULT_REQUIRED_SPANS: &[&str] = &["decompose", "model.forward", "matching."];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Parse one `--flag v1,v2` list. An empty or malformed list is an error:
/// a CI grep that silently requires nothing is worse than a failing one.
fn parse_list(flag: &str, raw: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if names.is_empty() {
        return Err(format!("{flag} given but the list is empty"));
    }
    for n in &names {
        if !valid_name(n) {
            return Err(format!(
                "{flag}: malformed name {n:?} (expected [A-Za-z0-9._-]+)"
            ));
        }
    }
    Ok(names)
}

/// Parse the validator's command line (everything after the program name).
pub fn parse_args(args: &[String]) -> Result<ValidateSpec, String> {
    let mut spec = ValidateSpec {
        path: "telemetry.jsonl".to_string(),
        require_events: Vec::new(),
        require_spans: DEFAULT_REQUIRED_SPANS
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
    };
    let mut positional = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, value) = if let Some(v) = a.strip_prefix("--require-events=") {
            ("--require-events", Some(v.to_string()))
        } else if a == "--require-events" {
            ("--require-events", it.next().cloned())
        } else if let Some(v) = a.strip_prefix("--require-spans=") {
            ("--require-spans", Some(v.to_string()))
        } else if a == "--require-spans" {
            ("--require-spans", it.next().cloned())
        } else if a.starts_with("--") {
            // The harness-level --telemetry flag is consumed by
            // alss_telemetry::init; skip it and its value here.
            if a == "--telemetry" {
                it.next();
            }
            continue;
        } else {
            if positional.is_none() {
                positional = Some(a.clone());
            }
            continue;
        };
        let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
        let list = parse_list(flag, &value)?;
        match flag {
            "--require-events" => spec.require_events = list,
            _ => spec.require_spans = list,
        }
    }
    if let Some(p) = positional {
        spec.path = p;
    }
    Ok(spec)
}

/// Counts reported on success.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Non-empty JSON lines.
    pub lines: usize,
    /// Span records.
    pub spans: usize,
    /// Point events.
    pub events: usize,
    /// Non-zero counters in the final snapshot.
    pub nonzero_counters: usize,
}

/// Validate a capture's text against `spec`. Every line must parse as a
/// JSON object with a known `type` tag; each `spec.require_spans` entry
/// must match (substring) some span path; each `spec.require_events` entry
/// must equal some event name; and the capture must end with a metrics
/// snapshot carrying at least one non-zero counter and, for each span
/// name, a `span.<name>_us` histogram counting at least that span's lines.
pub fn validate_capture(text: &str, spec: &ValidateSpec) -> Result<CaptureSummary, String> {
    let mut spans: Vec<String> = Vec::new();
    let mut span_lines: BTreeMap<String, u64> = BTreeMap::new();
    let mut events: Vec<String> = Vec::new();
    let mut last: Option<Value> = None;
    let mut n_lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: invalid JSON ({e}): {line}", i + 1))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\" tag: {line}", i + 1))?;
        match ty {
            "span" => {
                let name = v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: span without name: {line}", i + 1))?;
                let path = v
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: span without path: {line}", i + 1))?;
                let us_ok = v
                    .get("us")
                    .and_then(Value::as_f64)
                    .is_some_and(|us| us >= 0.0);
                if !us_ok {
                    return Err(format!(
                        "line {}: span without non-negative \"us\": {line}",
                        i + 1
                    ));
                }
                *span_lines.entry(name.to_string()).or_default() += 1;
                spans.push(path.to_string());
            }
            "event" => {
                if let Some(name) = v.get("name").and_then(Value::as_str) {
                    events.push(name.to_string());
                }
            }
            "progress" | "snapshot" => {}
            other => return Err(format!("line {}: unknown type {other:?}: {line}", i + 1)),
        }
        n_lines += 1;
        last = Some(v);
    }
    let Some(last) = last else {
        return Err("empty capture".to_string());
    };

    for required in &spec.require_spans {
        if !spans.iter().any(|p| p.contains(required.as_str())) {
            return Err(format!(
                "no span matching {required:?} among {} spans",
                spans.len()
            ));
        }
    }
    for ev in &spec.require_events {
        if !events.iter().any(|e| e == ev) {
            return Err(format!(
                "required event {ev:?} never emitted ({} events captured)",
                events.len()
            ));
        }
    }

    if last.get("type").and_then(Value::as_str) != Some("snapshot") {
        return Err("capture must end with a metrics snapshot".to_string());
    }
    let counters = last
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("snapshot without counters object")?;
    let nonzero = counters
        .iter()
        .filter(|(_, v)| v.as_u64().unwrap_or(0) > 0)
        .count();
    if nonzero == 0 {
        return Err(format!(
            "snapshot has no non-zero counters ({} total)",
            counters.len()
        ));
    }
    for (name, &lines) in &span_lines {
        let key = format!("span.{name}_us");
        let count = last
            .get("histograms")
            .and_then(|h| h.get(&key))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .ok_or_else(|| {
                format!("span {name:?} has {lines} lines but the snapshot has no {key:?} histogram")
            })?;
        if count < lines {
            return Err(format!(
                "{key:?} counts {count} samples, fewer than span {name:?}'s {lines} lines"
            ));
        }
    }

    Ok(CaptureSummary {
        lines: n_lines,
        spans: spans.len(),
        events: events.len(),
        nonzero_counters: nonzero,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let spec = parse_args(&args(&["cap.jsonl"])).unwrap();
        assert_eq!(spec.path, "cap.jsonl");
        assert!(spec.require_events.is_empty());
        assert_eq!(spec.require_spans.len(), DEFAULT_REQUIRED_SPANS.len());
    }

    #[test]
    fn require_events_parses_both_forms() {
        let a = parse_args(&args(&["--require-events", "a.b,c_d", "cap"])).unwrap();
        let b = parse_args(&args(&["--require-events=a.b,c_d", "cap"])).unwrap();
        assert_eq!(a.require_events, vec!["a.b", "c_d"]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_require_events_is_an_error_not_absent() {
        // Regression: an empty list used to behave exactly like omitting
        // the flag, silently disabling the gate the CI job asked for.
        assert!(parse_args(&args(&["--require-events", "", "cap"])).is_err());
        assert!(parse_args(&args(&["--require-events=", "cap"])).is_err());
        assert!(parse_args(&args(&["--require-events", " , ,", "cap"])).is_err());
        assert!(parse_args(&args(&["--require-events"])).is_err());
    }

    #[test]
    fn malformed_event_names_are_rejected() {
        for bad in ["se rve.request", "ev!", "a,b c", "ok,b\tad"] {
            let res = parse_args(&args(&["--require-events", bad, "cap"]));
            assert!(res.is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn require_spans_overrides_defaults() {
        let spec = parse_args(&args(&[
            "--require-spans",
            "serve.request,model.forward",
            "cap",
        ]))
        .unwrap();
        assert_eq!(spec.require_spans, vec!["serve.request", "model.forward"]);
    }

    fn spec_for(text_events: &[&str], spans: &[&str]) -> ValidateSpec {
        ValidateSpec {
            path: String::new(),
            require_events: text_events.iter().map(|s| (*s).to_string()).collect(),
            require_spans: spans.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    const GOOD: &str = concat!(
        r#"{"type":"span","name":"serve.request","path":"serve.request","us":12.5}"#,
        "\n",
        r#"{"type":"event","name":"serve.cache_hit","fields":{}}"#,
        "\n",
        r#"{"type":"snapshot","counters":{"serve.request":3},"histograms":{"span.serve.request_us":{"count":1}}}"#,
        "\n"
    );

    #[test]
    fn good_capture_passes() {
        let spec = spec_for(&["serve.cache_hit"], &["serve.request"]);
        let sum = validate_capture(GOOD, &spec).unwrap();
        assert_eq!(sum.lines, 3);
        assert_eq!(sum.spans, 1);
        assert_eq!(sum.events, 1);
        assert_eq!(sum.nonzero_counters, 1);
    }

    #[test]
    fn missing_required_event_fails() {
        let spec = spec_for(&["serve.degraded"], &["serve.request"]);
        let err = validate_capture(GOOD, &spec).unwrap_err();
        assert!(err.contains("serve.degraded"), "{err}");
    }

    #[test]
    fn missing_required_span_fails() {
        let spec = spec_for(&[], &["matching."]);
        assert!(validate_capture(GOOD, &spec).is_err());
    }

    #[test]
    fn every_span_needs_its_histogram_in_the_snapshot() {
        let spec = spec_for(&[], &["serve."]);
        let span = r#"{"type":"span","name":"serve.request","path":"serve.request","us":1.0}"#;
        let missing = format!(
            "{span}\n{span}\n{}",
            r#"{"type":"snapshot","counters":{"serve.request":2},"histograms":{"span.other_us":{"count":2}}}"#
        );
        let err = validate_capture(&missing, &spec).unwrap_err();
        assert!(
            err.contains("no \"span.serve.request_us\" histogram"),
            "{err}"
        );
        let short = format!(
            "{span}\n{span}\n{}",
            r#"{"type":"snapshot","counters":{"serve.request":2},"histograms":{"span.serve.request_us":{"count":1}}}"#
        );
        let err = validate_capture(&short, &spec).unwrap_err();
        assert!(err.contains("counts 1 samples"), "{err}");
        let nameless = r#"{"type":"span","path":"serve.request","us":1.0}"#;
        let err = validate_capture(nameless, &spec).unwrap_err();
        assert!(err.contains("span without name"), "{err}");
    }

    #[test]
    fn capture_must_end_with_snapshot() {
        let spec = spec_for(&[], &["serve."]);
        let text = r#"{"type":"span","name":"serve.request","path":"serve.request","us":1.0}"#;
        let err = validate_capture(text, &spec).unwrap_err();
        assert!(err.contains("snapshot"), "{err}");
    }

    #[test]
    fn all_zero_counters_fail() {
        let spec = spec_for(&[], &["serve."]);
        let text = concat!(
            r#"{"type":"span","name":"serve.request","path":"serve.request","us":1.0}"#,
            "\n",
            r#"{"type":"snapshot","counters":{"serve.request":0}}"#
        );
        assert!(validate_capture(text, &spec).is_err());
    }

    #[test]
    fn garbage_line_is_reported_with_its_number() {
        let spec = spec_for(&[], &[]);
        let err = validate_capture("{nope\n", &spec).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }
}
