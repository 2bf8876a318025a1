//! Minimal aligned-text table rendering for the figure/table binaries.

/// Accumulates rows and prints a left-aligned text table.
#[derive(Default)]
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        TableWriter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    #[expect(clippy::print_stdout, reason = "the figure binaries' table output")]
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float compactly (scientific for large magnitudes).
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a != 0.0 && !(1e-3..1e6).contains(&a) {
        format!("{x:.2e}")
    } else if a >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableWriter::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TableWriter::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456), "1.23");
        assert_eq!(fnum(12345678.0), "1.23e7");
        assert_eq!(fnum(250.0), "250");
    }
}
