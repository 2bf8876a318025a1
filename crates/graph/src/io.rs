//! Graph (de)serialization: a line-oriented text format compatible in
//! spirit with the `SubgraphMatching` dataset format used by the paper's
//! query sets. It is the one stored form of a graph: data graph files,
//! query files, serve requests and the queries inside a workload's JSON
//! all hold this text, and `from_text(&to_text(&g))` gives back `g` for
//! every graph [`GraphBuilder`] makes.
//!
//! Text format:
//!
//! ```text
//! t <num_nodes> <num_edges>
//! v <id> <label> [extra_label ...]   # label -1 means wildcard
//! e <u> <v> [edge_label]
//! ```

use crate::{Graph, GraphBuilder, LabelId, NodeId, WILDCARD};
use std::fmt::Write as _;

/// Error for text-format parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Serialize a graph to the text format.
pub fn to_text(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "t {} {}", g.num_nodes(), g.num_edges());
    for v in g.nodes() {
        let _ = match g.label(v) {
            WILDCARD => write!(s, "v {v} -1"),
            l => write!(s, "v {v} {l}"),
        };
        for e in g.extra_labels(v) {
            let _ = write!(s, " {e}");
        }
        let _ = writeln!(s);
    }
    for e in g.edges() {
        if e.label == WILDCARD {
            let _ = writeln!(s, "e {} {}", e.u, e.v);
        } else {
            let _ = writeln!(s, "e {} {} {}", e.u, e.v, e.label);
        }
    }
    s
}

/// Parse a graph from the text format.
pub fn from_text(text: &str) -> Result<Graph, ParseError> {
    from_text_bounded(text, usize::MAX)
}

/// [`from_text`] for untrusted input: a `t` record declaring more than
/// `max_nodes` nodes is an error, raised before any node storage is
/// allocated (the builder sizes its per-node vectors from the header).
/// The header's edge count only sizes the edge storage, capped by the
/// number of edge records `text` could hold, so it can be wrong or absent.
///
/// The parser works on bytes. Lines end at `\n`; tokens are separated by
/// the ASCII characters `char::is_whitespace` accepts (space, `\t`, `\n`,
/// `\x0B`, `\x0C`, `\r`), so CRLF line ends are fine. Other Unicode
/// whitespace, such as U+00A0, is not a separator: it belongs to its
/// token, which then fails to parse. Integers are decimal digits after an
/// optional `+` (or `-`, for a node label), as `str::parse` reads them.
pub fn from_text_bounded(text: &str, max_nodes: usize) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    for (i, raw) in text.as_bytes().split(|&b| b == b'\n').enumerate() {
        let ln = i + 1;
        let mut it = raw
            .split(|&b| is_separator(b))
            .filter(|tok| !tok.is_empty());
        let Some(record) = it.next() else { continue };
        let mut next = |missing: &str| it.next().ok_or_else(|| err(ln, missing));
        match record {
            [b'#', ..] => continue,
            b"t" => {
                let n: usize = parse_unsigned(next("missing node count")?)
                    .ok_or_else(|| err(ln, "bad node count"))?;
                if n > max_nodes {
                    return Err(err(
                        ln,
                        format!("node count {n} exceeds the limit of {max_nodes}"),
                    ));
                }
                if builder.is_some() {
                    return Err(err(ln, "second t record (one graph per input)"));
                }
                let m = it.next().and_then(parse_unsigned::<usize>).unwrap_or(0);
                builder = Some(GraphBuilder::with_edge_capacity(
                    n,
                    edge_capacity(m, text.len()),
                ));
            }
            b"v" => {
                let b = builder.as_mut().ok_or_else(|| err(ln, "v before t"))?;
                let id: NodeId = parse_unsigned(next("missing node id")?)
                    .ok_or_else(|| err(ln, "bad node id"))?;
                let lab =
                    parse_signed(next("missing label")?).ok_or_else(|| err(ln, "bad label"))?;
                if (id as usize) >= b.num_nodes() {
                    return Err(err(ln, "node id out of range"));
                }
                let label = if lab < 0 {
                    WILDCARD
                } else {
                    LabelId::try_from(lab).map_err(|_| err(ln, "label out of range"))?
                };
                b.set_label(id, label);
                for tok in it {
                    let extra: LabelId =
                        parse_unsigned(tok).ok_or_else(|| err(ln, "bad extra label"))?;
                    if extra == WILDCARD {
                        return Err(err(ln, "extra label cannot be a wildcard"));
                    }
                    b.add_extra_label(id, extra);
                }
            }
            b"e" => {
                let b = builder.as_mut().ok_or_else(|| err(ln, "e before t"))?;
                let u: NodeId =
                    parse_unsigned(next("missing u")?).ok_or_else(|| err(ln, "bad u"))?;
                let v: NodeId =
                    parse_unsigned(next("missing v")?).ok_or_else(|| err(ln, "bad v"))?;
                if (u as usize) >= b.num_nodes() || (v as usize) >= b.num_nodes() {
                    return Err(err(ln, "edge endpoint out of range"));
                }
                match it.next() {
                    Some(tok) => {
                        let l: LabelId =
                            parse_unsigned(tok).ok_or_else(|| err(ln, "bad edge label"))?;
                        b.add_labeled_edge(u, v, l);
                    }
                    None => {
                        b.add_edge(u, v);
                    }
                }
            }
            tok => {
                let tok = String::from_utf8_lossy(tok);
                return Err(err(ln, format!("unknown record '{tok}'")));
            }
        }
    }
    Ok(builder.ok_or_else(|| err(0, "empty input"))?.build())
}

/// Shortest edge record, `e 0 1`, in bytes.
const MIN_EDGE_RECORD_BYTES: usize = 5;

/// Edges to reserve for a header declaring `declared` edges in an input of
/// `text_len` bytes: the header is untrusted, the input length is not.
fn edge_capacity(declared: usize, text_len: usize) -> usize {
    declared.min(text_len / MIN_EDGE_RECORD_BYTES)
}

/// A token separator: an ASCII character that `char::is_whitespace`
/// accepts.
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// A non-empty run of decimal digits, or `None` (also on `u64` overflow).
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// An unsigned integer with an optional leading `+`, range-checked into `T`.
fn parse_unsigned<T: TryFrom<u64>>(tok: &[u8]) -> Option<T> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    T::try_from(parse_digits(digits)?).ok()
}

/// An `i64` with an optional leading `+` or `-`.
fn parse_signed(tok: &[u8]) -> Option<i64> {
    match tok.strip_prefix(b"-") {
        Some(digits) => 0i64.checked_sub_unsigned(parse_digits(digits)?),
        None => parse_unsigned(tok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn text_roundtrip_node_labels() {
        let g = graph_from_edges(&[0, 1, WILDCARD], &[(0, 1), (1, 2)]);
        let g2 = from_text(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_roundtrip_edge_labels() {
        let mut b = GraphBuilder::new(3);
        b.set_label(0, 2).set_label(1, 2).set_label(2, 0);
        b.add_labeled_edge(0, 1, 4).add_labeled_edge(1, 2, 5);
        let g = b.build();
        let g2 = from_text(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = from_text("t 2 1\nv 0 0\nv 5 0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("out of range"));
        assert!(from_text("v 0 0").is_err());
        assert!(from_text("").is_err());
        assert!(from_text("t 1 0\nx 1").is_err());
        let e = from_text(&format!("t 1 0\nv 0 0 {WILDCARD}\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("wildcard"));
        // Every `t` record is checked against the bound, not only the first.
        let e = from_text_bounded("t 1 0\nv 0 0\nt 5000 0\n", 1024).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("limit of 1024"), "{}", e.message);
        // A second `t` record is an error, not a fresh graph that
        // silently replaces the first.
        let e = from_text("t 2 1\nv 0 0\nv 1 0\ne 0 1\nt 1 0\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("second t record"), "{}", e.message);
    }

    #[test]
    fn layout_variants_parse_like_the_plain_text() {
        let plain = "t 3 2\nv 0 1\nv 1 -1\nv 2 2 4 3\ne 0 1 7\ne 1 2\n";
        let want = from_text(plain).unwrap();
        let variants = [
            plain.replace('\n', "\r\n"),
            plain.replace(' ', "\t"),
            plain.replace(' ', " \t \x0B\x0C "),
            plain.replace('\n', "  \n\t"),
            format!("# a comment\n\n  # indented comment\n{plain}\n\n#end"),
            plain.trim_end().to_string(),
            plain.replace("v 0 1", "v +0 +1"),
        ];
        for text in &variants {
            assert_eq!(from_text(text).as_ref(), Ok(&want), "{text:?}");
        }
    }

    #[test]
    fn numbers_parse_as_str_parse_reads_them() {
        let g = from_text("t 6\nv +5 1\nv 0 -1\nv 1 -0\nv 2 -9223372036854775808").unwrap();
        assert_eq!(g.label(5), 1);
        assert_eq!(g.label(0), WILDCARD);
        assert_eq!(g.label(1), 0);
        assert_eq!(g.label(2), WILDCARD);
        let message = |text: &str| from_text(text).unwrap_err().message;
        assert_eq!(message("t 1 0\nv 4294967296 0"), "bad node id");
        assert_eq!(message("t 1 0\nv -0 0"), "bad node id");
        assert_eq!(message("t 1 0\nv 0 -9223372036854775809"), "bad label");
        assert_eq!(message("t 1 0\nv 0 9223372036854775808"), "bad label");
        assert_eq!(message("t 1 0\nv 0 5000000000"), "label out of range");
        assert_eq!(message("t 1 0\nv 0 -+1"), "bad label");
        assert_eq!(message("t 1 0\nv 0 +"), "bad label");
        assert_eq!(message("t 1 0\nv 0 1 -1"), "bad extra label");
        assert_eq!(message("t 2 0\ne 0 1 +-1"), "bad edge label");
        assert_eq!(message("t 18446744073709551616 0"), "bad node count");
        assert_eq!(message("t 1 0\nv 0"), "missing label");
        assert_eq!(message("t 1 0\nvv 0 0"), "unknown record 'vv'");
    }

    #[test]
    fn the_header_edge_count_is_a_hint() {
        // Absent, unparseable, too small or absurdly large: the graph is
        // the same, and a huge count reserves no more than the input holds.
        let edges = "v 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\n";
        let want = from_text(&format!("t 3 2\n{edges}")).unwrap();
        for header in ["t 3", "t 3 x", "t 3 0", "t 3 4000000000"] {
            let text = format!("{header}\n{edges}");
            assert_eq!(from_text(&text).as_ref(), Ok(&want), "{header}");
        }
        assert_eq!(edge_capacity(4_000_000_000, 35), 7);
        assert_eq!(edge_capacity(2, 35), 2);
    }

    #[test]
    fn non_ascii_whitespace_is_not_a_separator() {
        // U+00A0 stays inside its token, which then fails to parse.
        let e = from_text("t 2 0\nv 0\u{a0}1 0\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "bad node id"));
        let e = from_text("t 2 0\n\u{a0}\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "unknown record '\u{a0}'"));
        let e = from_text("t 2\u{2003}0\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "bad node count"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = from_text("# header\n\nt 2 1\nv 0 1\nv 1 1\ne 0 1\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
