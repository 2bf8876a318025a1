//! Command-line `--telemetry` flag for the figure/table binaries.
//!
//! Every binary sets up telemetry first thing in `main` and keeps the
//! returned guard alive for the whole run:
//!
//! ```text
//! cargo run --bin fig4 -- --telemetry out.jsonl
//! ```
//!
//! `--telemetry <path>` (or `--telemetry=<path>`) is handed to
//! [`alss_telemetry::init`] as the capture path, which writes every
//! line; without the flag, an `ALSS_TELEMETRY` set to anything but
//! empty, `0`, `off` or `none` installs the pretty stderr sink instead.

/// Extract the `--telemetry <path>` / `--telemetry=<path>` flag from the
/// raw argument list, returning the path when present.
pub fn telemetry_path(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--telemetry" {
            return it.next().cloned();
        }
        if let Some(p) = a.strip_prefix("--telemetry=") {
            return Some(p.to_string());
        }
    }
    None
}

/// The `--telemetry` path on this process's command line, if any.
pub fn telemetry_arg() -> Option<String> {
    telemetry_path(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// Drop the `--telemetry <path>` flag from an argument list, so dataset
/// selection sees only dataset names.
pub fn strip_run_flags(args: Vec<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--telemetry" {
            it.next(); // its value
            continue;
        }
        if a.starts_with("--telemetry=") {
            continue;
        }
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn path_extraction() {
        assert_eq!(
            telemetry_path(&strs(&["aids", "--telemetry", "out.jsonl"])),
            Some("out.jsonl".to_string())
        );
        assert_eq!(
            telemetry_path(&strs(&["--telemetry=t.jsonl", "yeast"])),
            Some("t.jsonl".to_string())
        );
        assert_eq!(telemetry_path(&strs(&["aids", "yeast"])), None);
        assert_eq!(telemetry_path(&strs(&["--telemetry"])), None);
    }

    #[test]
    fn flag_stripping() {
        assert_eq!(
            strip_run_flags(strs(&["aids", "--telemetry", "out.jsonl", "yeast"])),
            strs(&["aids", "yeast"])
        );
        assert_eq!(
            strip_run_flags(strs(&["--telemetry=x", "aids"])),
            strs(&["aids"])
        );
        assert_eq!(strip_run_flags(strs(&["aids"])), strs(&["aids"]));
    }
}
