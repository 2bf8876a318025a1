//! Graph (de)serialization: a line-oriented text format compatible in
//! spirit with the `SubgraphMatching` dataset format used by the paper's
//! query sets, plus serde-JSON helpers for whole workloads.
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
        let l = g.label(v);
        if l == WILDCARD {
            let _ = writeln!(s, "v {} -1", v);
        } else {
            let _ = write!(s, "v {} {}", v, l);
            for e in g.extra_labels(v) {
                let _ = write!(s, " {}", e);
            }
            let _ = writeln!(s);
        }
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
pub fn from_text_bounded(text: &str, max_nodes: usize) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("t") => {
                let n: usize = it
                    .next()
                    .ok_or_else(|| err(ln, "missing node count"))?
                    .parse()
                    .map_err(|_| err(ln, "bad node count"))?;
                if n > max_nodes {
                    return Err(err(
                        ln,
                        format!("node count {n} exceeds the limit of {max_nodes}"),
                    ));
                }
                builder = Some(GraphBuilder::new(n));
            }
            Some("v") => {
                let b = builder.as_mut().ok_or_else(|| err(ln, "v before t"))?;
                let id: NodeId = it
                    .next()
                    .ok_or_else(|| err(ln, "missing node id"))?
                    .parse()
                    .map_err(|_| err(ln, "bad node id"))?;
                let lab: i64 = it
                    .next()
                    .ok_or_else(|| err(ln, "missing label"))?
                    .parse()
                    .map_err(|_| err(ln, "bad label"))?;
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
                    let extra: LabelId = tok.parse().map_err(|_| err(ln, "bad extra label"))?;
                    if extra == WILDCARD {
                        return Err(err(ln, "extra label cannot be a wildcard"));
                    }
                    b.add_extra_label(id, extra);
                }
            }
            Some("e") => {
                let b = builder.as_mut().ok_or_else(|| err(ln, "e before t"))?;
                let u: NodeId = it
                    .next()
                    .ok_or_else(|| err(ln, "missing u"))?
                    .parse()
                    .map_err(|_| err(ln, "bad u"))?;
                let v: NodeId = it
                    .next()
                    .ok_or_else(|| err(ln, "missing v"))?
                    .parse()
                    .map_err(|_| err(ln, "bad v"))?;
                if (u as usize) >= b.num_nodes() || (v as usize) >= b.num_nodes() {
                    return Err(err(ln, "edge endpoint out of range"));
                }
                match it.next() {
                    Some(tok) => {
                        let l: LabelId = tok.parse().map_err(|_| err(ln, "bad edge label"))?;
                        b.add_labeled_edge(u, v, l);
                    }
                    None => {
                        b.add_edge(u, v);
                    }
                }
            }
            Some(tok) => return Err(err(ln, format!("unknown record '{tok}'"))),
            None => {}
        }
    }
    Ok(builder.ok_or_else(|| err(0, "empty input"))?.build())
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
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = from_text("# header\n\nt 2 1\nv 0 1\nv 1 1\ne 0 1\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
