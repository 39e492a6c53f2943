//! Plain-text table rendering shared by the reproduction harness.

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Create a table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Set a caption printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as `0.123`.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format seconds adaptively: `870µs`, `12.0ms`, `1.23s`, `2.1min`.
pub fn duration(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.0}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1}ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}min", secs / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["Algo", "F1"]).with_title("Table X");
        t.row(vec!["UMC", "0.618"]);
        t.row(vec!["K", "0.619"]);
        let s = t.render();
        assert!(s.starts_with("Table X\n"));
        assert!(s.contains("Algo  F1"));
        assert!(s.contains("UMC   0.618"));
        assert!(s.contains("K     0.619"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        let s = t.render();
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.61834), "0.618");
        assert_eq!(duration(0.012), "12.0ms");
        assert_eq!(duration(0.00087), "870µs");
        assert_eq!(duration(1.5), "1.50s");
        assert_eq!(duration(150.0), "2.5min");
    }
}
