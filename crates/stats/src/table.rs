//! ASCII table rendering and CSV output.
//!
//! Every figure/table in the harness renders two ways: a human-readable
//! ASCII table on stdout and a CSV file under `results/` that plotting
//! scripts can consume.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table builder.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: headers.iter().map(|_| Align::Right).collect(),
            rows: Vec::new(),
        }
    }

    /// Set column alignments (defaults to all right-aligned).
    pub fn with_aligns(mut self, aligns: &[Align]) -> Table {
        assert_eq!(aligns.len(), self.headers.len());
        self.aligns = aligns.to_vec();
        self
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table {:?}",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as an ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{:<width$}", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => {
                        let _ = write!(line, "{:<width$}", cell, width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(line, "{:>width$}", cell, width = widths[i]);
                    }
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Render as CSV (headers + rows, RFC-4180-style quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_row(&self.headers));
        for row in &self.rows {
            out.push_str(&csv_row(row));
        }
        out
    }
}

fn csv_row(cells: &[String]) -> String {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&csv_escape(cell));
    }
    line.push('\n');
    line
}

/// Quote a CSV field when needed.
pub fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parse a CSV document produced by [`Table::to_csv`] (quoted fields
/// supported). Returns rows of fields, including the header row.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {}
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

/// Format a float with sensible default precision for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Format a fraction as a percentage string.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

/// Format milliseconds.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.0}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_basic_table() {
        let mut t =
            Table::new("demo", &["name", "value"]).with_aligns(&[Align::Left, Align::Right]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        assert!(s.contains("22"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip_with_quotes() {
        let mut t = Table::new("q", &["k", "v"]);
        t.row(vec!["has,comma".into(), "has\"quote".into()]);
        t.row(vec!["plain".into(), "1".into()]);
        let csv = t.to_csv();
        let rows = parse_csv(&csv);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1][0], "has,comma");
        assert_eq!(rows[1][1], "has\"quote");
        assert_eq!(rows[2], vec!["plain".to_string(), "1".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(123.456), "123");
        assert_eq!(fmt_f(1.234), "1.23");
        assert_eq!(fmt_f(0.1234), "0.1234");
        assert_eq!(fmt_pct(0.1428), "14.28%");
        assert_eq!(fmt_ms(600.0), "600ms");
        assert_eq!(fmt_ms(1500.0), "1.50s");
    }

    #[test]
    fn parse_csv_handles_crlf_and_trailing() {
        let rows = parse_csv("a,b\r\n1,2\r\n");
        assert_eq!(
            rows,
            vec![
                vec!["a".to_string(), "b".into()],
                vec!["1".into(), "2".into()]
            ]
        );
        let rows2 = parse_csv("x,y");
        assert_eq!(rows2, vec![vec!["x".to_string(), "y".into()]]);
    }
}
