//! The one source rule clippy has no lint for: a count-carrying value is
//! never narrowed with `as`. `cast_possible_truncation` already catches
//! integer narrowing and `f64 as f32` by type, but an integer `as f32`
//! (24-bit mantissa) only falls under the pedantic `cast_precision_loss`.
//! Counts here follow a naming convention (`*count*`, `*total*`,
//! `*cardinal*`, `*freq*`), so the rule matches names: `count as u32` or
//! `total_count() as f32` fails; use `try_from` or keep 64-bit width.
#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};

const COUNT_HINTS: [&str; 4] = ["count", "total", "cardinal", "freq"];
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Identifiers plus single-character punctuation, whitespace dropped.
fn tokenize(code: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut ident_start = None;
    for (i, c) in code.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            ident_start.get_or_insert(i);
            continue;
        }
        if let Some(s) = ident_start.take() {
            tokens.push(&code[s..i]);
        }
        if !c.is_whitespace() {
            tokens.push(&code[i..i + c.len_utf8()]);
        }
    }
    tokens.extend(ident_start.map(|s| &code[s..]));
    tokens
}

/// The first `<count-named ident>[()] as <narrow type>` on a line of code.
fn count_cast(code: &str) -> Option<String> {
    let t = tokenize(code);
    (1..t.len().saturating_sub(1)).find_map(|i| {
        if t[i] != "as" || !NARROW_TARGETS.contains(&t[i + 1]) {
            return None;
        }
        let call = i >= 3 && t[i - 2..i] == ["(", ")"];
        let src = t[if call { i - 3 } else { i - 1 }];
        let lower = src.to_lowercase();
        COUNT_HINTS
            .iter()
            .any(|h| lower.contains(h))
            .then(|| format!("{src} as {}", t[i + 1]))
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_matcher_flags_count_casts_only() {
    assert!(count_cast("let c = count as u32;").is_some());
    assert!(count_cast("x(total_count() as f32)").is_some());
    assert!(count_cast("let f = self.freq as i16;").is_some());
    assert!(count_cast("let c = count as u64;").is_none());
    assert!(count_cast("let c = count as f64;").is_none());
    assert!(count_cast("let n = len as u32;").is_none());
}

#[test]
fn no_count_named_value_is_narrowed_with_as() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "only {} source files found", files.len());
    let mut found = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            if let Some(cast) = count_cast(code) {
                let rel = path.strip_prefix(root).unwrap().display();
                found.push(format!("{rel}:{}: `{cast}`", n + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "count-carrying values narrowed with `as` (use `try_from` or keep 64-bit width):\n{}",
        found.join("\n")
    );
}
