//! Fixed-width table rendering (stdout) and CSV export.

use std::fmt::Write as _;

/// A result table: the unit every experiment produces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row-major), for assertions in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders the fixed-width form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Renders CSV (headers + rows; notes as trailing comments).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }

    /// Prints the fixed-width form to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the table as a JSON object (title, headers, rows, notes).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::object([
            ("title", Json::from(self.title.clone())),
            ("headers", Json::from(self.headers.clone())),
            (
                "rows",
                Json::Array(self.rows.iter().cloned().map(Json::from).collect()),
            ),
            ("notes", Json::from(self.notes.clone())),
        ])
    }

    /// Rebuilds a table from its [`to_json`](Table::to_json) form; `None`
    /// if the document does not have that shape.
    pub fn from_json(doc: &crate::json::Json) -> Option<Table> {
        let strings = |v: &crate::json::Json| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect()
        };
        let headers = strings(&doc["headers"])?;
        let rows: Vec<Vec<String>> = doc["rows"]
            .as_array()?
            .iter()
            .map(strings)
            .collect::<Option<_>>()?;
        if rows.iter().any(|r| r.len() != headers.len()) {
            return None;
        }
        Some(Table {
            title: doc["title"].as_str()?.to_string(),
            headers,
            rows,
            notes: strings(&doc["notes"])?,
        })
    }
}

/// Every row of every table as one JSON object keyed by column name — the
/// `rows` array of the `BENCH_*.json` row sets. A cell that parses as a
/// finite `f64` becomes a JSON number; every other cell (`inf`, `NaN`, a
/// name, anything with a unit or `%` suffix) stays a string.
pub fn rows_json(tables: &[Table]) -> crate::json::Json {
    use crate::json::Json;
    let cell = |c: &str| match c.parse::<f64>() {
        Ok(x) if x.is_finite() => Json::Number(x),
        _ => Json::from(c),
    };
    let row = |t: &Table, r: &Vec<String>| {
        Json::Object(
            t.headers
                .iter()
                .zip(r)
                .map(|(h, c)| (h.clone(), cell(c)))
                .collect(),
        )
    };
    Json::Array(
        tables
            .iter()
            .flat_map(|t| t.rows.iter().map(move |r| row(t, r)))
            .collect(),
    )
}

/// Renders a set of tables as a markdown document (used by `exp report`).
pub fn tables_to_markdown(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        let _ = writeln!(
            out,
            "## {}
",
            t.title
        );
        let _ = writeln!(out, "| {} |", t.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            t.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &t.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        for note in &t.notes {
            let _ = writeln!(
                out,
                "
> {note}"
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns_and_notes() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["8".into(), "123".into()]);
        t.row(vec!["128".into(), "7".into()]);
        t.note("shape holds");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: shape holds"));
        assert_eq!(t.cell(1, 0), "128");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("a,b"));
        assert_eq!(csv.lines().nth(1), Some("1,2"));
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let md = tables_to_markdown(&[t]);
        assert!(md.contains("## demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("> hello"));
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        t.note("n");
        let j = t.to_json();
        assert_eq!(j["title"], "demo");
        assert_eq!(j["rows"][0][0], "1");
        assert_eq!(j["notes"][0], "n");
        assert_eq!(Table::from_json(&j), Some(t), "to_json round-trips");
        assert_eq!(Table::from_json(&j["rows"]), None);
        assert_eq!(
            rows_json(&[Table::from_json(&j).unwrap()])[0]["a"].as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn rows_json_types_finite_numbers_only() {
        let cells = [
            "7", "-0.25", "1e3", "inf", "NaN", "12%", "3.2 ms", "complete",
        ];
        let mut t = Table::new("demo", &cells);
        t.row(cells.iter().map(|c| c.to_string()).collect());
        let row = &rows_json(&[t])[0];
        for (c, x) in [("7", 7.0), ("-0.25", -0.25), ("1e3", 1000.0)] {
            assert_eq!(row[c].as_f64(), Some(x), "{c}");
        }
        for c in ["inf", "NaN", "12%", "3.2 ms", "complete"] {
            assert_eq!(row[c].as_str(), Some(c), "{c} stays a string");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
