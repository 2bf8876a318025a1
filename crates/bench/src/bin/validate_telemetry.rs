//! CI validator for a `--telemetry` JSON-lines capture.
//!
//! Run: `cargo run -p alss-bench --bin validate_telemetry -- out.jsonl \
//!       [--require-events ev1,ev2] [--require-spans s1,s2]`
//!
//! Checks that every line parses as a JSON object with a known `type` tag,
//! that each `--require-spans` substring (default: the decompose / model
//! forward / matching subsystems) matches some recorded span, that every
//! event named in `--require-events` appears at least once, and that the
//! capture ends with a metrics snapshot carrying non-zero counters and a
//! `span.<name>_us` histogram for every span name, counting at least that
//! span's lines.
//!
//! `--require-events` / `--require-spans` given with an empty or malformed
//! list is a hard error — a gate that silently requires nothing is worse
//! than a failing one. Exits non-zero on any violation, printing the
//! offending line. The rules live in [`alss_bench::validate`].

use alss_bench::validate::{parse_args, validate_capture};
use std::process::ExitCode;

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = parse_args(&args)?;
    let text = std::fs::read_to_string(&spec.path)
        .map_err(|e| format!("cannot read {}: {e}", spec.path))?;
    let sum = validate_capture(&text, &spec).map_err(|e| format!("{}: {e}", spec.path))?;
    Ok(format!(
        "{}: OK — {} lines, {} spans, {} events, {} non-zero counters",
        spec.path, sum.lines, sum.spans, sum.events, sum.nonzero_counters
    ))
}

fn main() -> ExitCode {
    let _telemetry =
        alss_telemetry::init("validate_telemetry", alss_bench::telemetry_arg().as_deref());
    match run() {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}
