//! Fixed-width table rendering for `tpbench`, `tpcli` and the examples.

use std::fmt::Write as _;

/// A simple fixed-width table: header row plus data rows, printed with
/// aligned columns.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", c, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total.min(160)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
