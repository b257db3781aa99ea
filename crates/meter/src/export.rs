//! CSV and JSONL export for regenerated figures/tables and campaigns.
//!
//! Every benchmark harness writes its series to `results/*.csv` so the
//! paper's plots can be regenerated with any plotting tool. The
//! experiment-campaign engine (`ichannels-lab`) additionally streams one
//! JSON object per trial to `results/*.jsonl` via [`JsonlWriter`].

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;

use ichannels_obs::json::escape;

/// A rectangular table destined for CSV.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Appends a row of floats, formatted with 6 significant digits.
    pub fn push_floats<I: IntoIterator<Item = f64>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(|v| format!("{v:.6}")).collect();
        self.push_row(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the CSV text (RFC-4180-style quoting of fields containing
    /// commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let render =
            |cells: &[String]| cells.iter().map(|c| field(c)).collect::<Vec<_>>().join(",");
        let _ = writeln!(out, "{}", render(&self.header));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render(row));
        }
        out
    }

    /// Writes the CSV to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// One JSON object assembled field by field, preserving insertion order
/// (so identical runs produce byte-identical lines).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JsonlRow {
    fields: Vec<(String, String)>, // key → pre-rendered JSON value
}

impl JsonlRow {
    /// An empty row.
    pub fn new() -> Self {
        JsonlRow::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.push(key, rendered)
    }

    /// Appends a float field (`null` for non-finite values).
    pub fn num(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            // Shortest round-trip formatting keeps rows compact and
            // byte-stable across runs.
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.push(key, rendered)
    }

    /// Appends an integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Renders the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push('}');
        out
    }
}

/// Streams [`JsonlRow`]s to a file, one JSON object per line.
///
/// Rows are written (and flushed through a [`io::BufWriter`]) as they
/// arrive, so long campaigns expose partial results while running.
#[derive(Debug)]
pub struct JsonlWriter {
    out: io::BufWriter<fs::File>,
    rows: usize,
}

impl JsonlWriter {
    /// Creates (truncates) `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file open.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        Ok(JsonlWriter {
            out: io::BufWriter::new(fs::File::create(path)?),
            rows: 0,
        })
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_row(&mut self, row: &JsonlRow) -> io::Result<()> {
        writeln!(self.out, "{}", row.to_json())?;
        self.rows += 1;
        Ok(())
    }

    /// Flushes buffered rows to disk without closing the stream.
    ///
    /// Live campaign streams flush after every accepted trial so the
    /// file on disk is always a whole-line prefix of the run (at most
    /// the final line torn) — the invariant resume leans on after an
    /// interruption. Bulk rewrites (merge) skip per-row flushing.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and closes the stream.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(mut self) -> io::Result<usize> {
        self.out.flush()?;
        Ok(self.rows)
    }
}

/// Renders rows to one JSONL string (for in-memory comparisons).
pub fn jsonl_to_string<'a, I: IntoIterator<Item = &'a JsonlRow>>(rows: I) -> String {
    let mut out = String::new();
    for row in rows {
        let _ = writeln!(out, "{}", row.to_json());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_floats([0.5, 1.25]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "0.500000,1.250000");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn quotes_special_fields() {
        let mut t = CsvTable::new(["x"]);
        t.push_row(["hello, \"world\""]);
        assert_eq!(
            t.to_csv().lines().nth(1).unwrap(),
            "\"hello, \"\"world\"\"\""
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn writes_file() {
        let dir = std::env::temp_dir().join("ichannels_csv_test");
        let path = dir.join("t.csv");
        let mut t = CsvTable::new(["v"]);
        t.push_row(["42"]);
        t.write_to(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("42"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_row_renders_in_insertion_order() {
        let row = JsonlRow::new()
            .str("name", "IccSMTcovert")
            .num("ber", 0.25)
            .int("n", 40)
            .bool("ok", true);
        assert_eq!(
            row.to_json(),
            "{\"name\":\"IccSMTcovert\",\"ber\":0.25,\"n\":40,\"ok\":true}"
        );
    }

    #[test]
    fn jsonl_escapes_and_nulls() {
        let row = JsonlRow::new()
            .str("s", "a\"b\\c\nd")
            .num("bad", f64::NAN)
            .num("inf", f64::INFINITY);
        assert_eq!(
            row.to_json(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"bad\":null,\"inf\":null}"
        );
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let dir = std::env::temp_dir().join("ichannels_jsonl_test");
        let path = dir.join("t.jsonl");
        let mut w = JsonlWriter::create(&path).unwrap();
        for i in 0..3u64 {
            w.write_row(&JsonlRow::new().int("i", i)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 3);
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines, ["{\"i\":0}", "{\"i\":1}", "{\"i\":2}"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flushed_jsonl_rows_are_durable_before_finish() {
        // Resume leans on this: a flushed row reaches the file while
        // the stream is still open, so a killed campaign loses at most
        // a torn tail.
        let dir = std::env::temp_dir().join("ichannels_jsonl_flush_test");
        let path = dir.join("t.jsonl");
        let mut w = JsonlWriter::create(&path).unwrap();
        w.write_row(&JsonlRow::new().int("i", 7)).unwrap();
        w.flush().unwrap();
        // Read back while the writer is still open and unfinished.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"i\":7}\n");
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_to_string_matches_writer_output() {
        let rows = [JsonlRow::new().int("i", 0), JsonlRow::new().str("x", "y")];
        assert_eq!(jsonl_to_string(rows.iter()), "{\"i\":0}\n{\"x\":\"y\"}\n");
    }
}
