//! Report tables: the bridge from simulation output to readable text.
//!
//! A [`Table`] holds string cells and renders to aligned plain text,
//! GitHub-flavoured markdown, or CSV. Sweep results and the CLI's
//! summaries render through it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// use hpcqc_metrics::report::Table;
///
/// let mut t = Table::new(vec!["technology", "job p50"]);
/// t.row(vec!["superconducting".into(), "9.8 s".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| technology"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "Table: need at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "Table: row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// The header cells.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(w) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &w));
        out.push('\n');
        out.push('|');
        for width in &w {
            out.push_str(&format!("{:-<1$}|", "", width + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &w));
            out.push('\n');
        }
        out
    }

    /// Renders CSV (naïve quoting: cells containing commas get quotes).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    /// Plain-text aligned rendering (same layout as markdown, no pipes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        for (cell, width) in self.headers.iter().zip(&w) {
            write!(f, "{cell:<width$}  ")?;
        }
        writeln!(f)?;
        for width in &w {
            write!(f, "{:-<width$}  ", "")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (cell, width) in row.iter().zip(&w) {
                write!(f, "{cell:<width$}  ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats seconds with an auto-selected human unit, for table cells.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1} s")
    } else if secs < 7_200.0 {
        format!("{:.1} min", secs / 60.0)
    } else {
        format!("{:.1} h", secs / 3_600.0)
    }
}

/// Formats a `[0,1]` fraction as a percentage cell.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x".into(), "1234".into()]);
        t.row(vec!["longer".into(), "5".into()]);
        t
    }

    #[test]
    fn markdown_aligned() {
        let md = table().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| a"));
        assert!(lines[1].starts_with("|---"));
        assert_eq!(lines[2].len(), lines[0].len(), "rows must align");
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y".into()]);
        t.row(vec!["has \"q\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"has \"\"q\"\"\""));
    }

    #[test]
    fn display_plain() {
        let s = table().to_string();
        assert!(s.contains("longer"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(5e-6), "5.0 µs");
        assert_eq!(fmt_secs(0.25), "250.0 ms");
        assert_eq!(fmt_secs(12.0), "12.0 s");
        assert_eq!(fmt_secs(600.0), "10.0 min");
        assert_eq!(fmt_secs(10_800.0), "3.0 h");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.034), "3.4%");
        assert_eq!(fmt_pct(1.0), "100.0%");
    }
}
