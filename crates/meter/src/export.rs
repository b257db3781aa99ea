//! CSV and JSONL export for regenerated figures/tables and campaigns.
//!
//! Every benchmark harness writes its series to `results/*.csv` so the
//! paper's plots can be regenerated with any plotting tool. The
//! experiment-campaign engine (`ichannels-lab`) additionally streams one
//! JSON object per trial to `results/*.jsonl` via [`JsonlWriter`].

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;

use ichannels_obs::json::escape_into;

/// A rectangular table destined for CSV.
///
/// Cells are quoted and rendered into one text as rows are pushed, so a
/// table holds its CSV bytes, not a string per cell.
#[derive(Debug, Clone)]
pub struct CsvTable {
    /// The header line and one line per row, each ending in `\n`.
    text: String,
    width: usize,
    rows: usize,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: AsRef<str>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let mut table = CsvTable {
            text: String::new(),
            width: 0,
            rows: 0,
        };
        table.width = table.push_line(header);
        table
    }

    /// Renders one line of cells and returns how many it had.
    fn push_line<S: AsRef<str>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> usize {
        let mut width = 0;
        for cell in cells {
            if width > 0 {
                self.text.push(',');
            }
            push_csv_field(&mut self.text, cell.as_ref());
            width += 1;
        }
        self.text.push('\n');
        width
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: AsRef<str>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let start = self.text.len();
        let width = self.push_line(row);
        if width != self.width {
            self.text.truncate(start);
        }
        assert_eq!(
            width, self.width,
            "row width {width} != header width {}",
            self.width
        );
        self.rows += 1;
    }

    /// Appends a row of floats, formatted with 6 significant digits.
    pub fn push_floats<I: IntoIterator<Item = f64>>(&mut self, row: I) {
        self.push_row(row.into_iter().map(|v| format!("{v:.6}")));
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Renders the CSV text (RFC-4180-style quoting of fields containing
    /// commas, quotes, carriage returns, or newlines).
    pub fn to_csv(&self) -> String {
        self.text.clone()
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
        fs::write(path, &self.text)
    }
}

impl Default for CsvTable {
    /// A table with no columns: its CSV is one empty header line.
    fn default() -> Self {
        CsvTable::new::<&str, _>([])
    }
}

/// Appends `format!("{v:.6}")` to `out` without the formatting
/// machinery for a finite `v` with `|v| <= 2^50` (every value the CSVs
/// hold); other values go through `std`. The integer path is exact:
/// it rounds the binary value times 10^6 half to even, as `std`'s exact
/// formatting does, and keeps the sign of `-0.0` and of negatives that
/// round to zero.
pub fn push_fixed6(out: &mut String, v: f64) {
    let Some(micros) = scaled_micros(v) else {
        let _ = write!(out, "{v:.6}");
        return;
    };
    // `micros / 10^6 <= 2^50`, so the integer part always fits a u64;
    // the u128 division runs only when the scaled value does not.
    let (int, frac) = match u64::try_from(micros) {
        Ok(m) => (m / 1_000_000, m % 1_000_000),
        Err(_) => ((micros / 1_000_000) as u64, (micros % 1_000_000) as u64),
    };
    // Sign, up to 16 integer digits, the point and 6 fraction digits.
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut frac = frac;
    for _ in 0..6 {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    let mut int = int;
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if v.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    // Every byte written above is an ASCII digit, point or sign.
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// `|v| × 10^6` rounded half to even, computed exactly, for a finite
/// `|v| <= 2^50`; `None` otherwise (NaN, infinities, huge values).
fn scaled_micros(v: f64) -> Option<u128> {
    let a = v.abs();
    if a.is_nan() || a > (1u64 << 50) as f64 {
        return None;
    }
    // a = m × 2^e exactly, with m < 2^53.
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1u64 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1u64 << 52), biased - 1075)
    };
    // m × 10^6 < 2^73, and shifted left (e >= 0 means m × 2^e <= 2^50)
    // stays below 2^70.
    let p = u128::from(m) * 1_000_000;
    if e >= 0 {
        return Some(p << e);
    }
    let shift = e.unsigned_abs();
    if shift >= 128 {
        // p < 2^73 sits far below half of 2^shift: rounds to 0.
        return Some(0);
    }
    let q = p >> shift;
    let r = p & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    Some(q + u128::from(r > half || (r == half && q & 1 == 1)))
}

/// Appends one CSV cell, quoted when it holds a `,`, `"`, `\r` or `\n`.
fn push_csv_field(out: &mut String, cell: &str) {
    if !cell.contains([',', '"', '\r', '\n']) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for (i, part) in cell.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Starting capacity of a [`JsonlRow`] body: campaign trial rows render
/// to 400–550 bytes, so most are built without growing the buffer.
const ROW_CAPACITY: usize = 512;

/// One JSON object assembled field by field, preserving insertion order
/// (so identical runs produce byte-identical lines).
///
/// Each field is rendered into one body string as it is appended; the
/// object's braces are added only when the row is written out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JsonlRow {
    /// The rendered `"key":value` fields, comma-separated.
    body: String,
    fields: usize,
}

impl JsonlRow {
    /// An empty row.
    pub fn new() -> Self {
        JsonlRow {
            body: String::with_capacity(ROW_CAPACITY),
            fields: 0,
        }
    }

    /// Renders the next field's `"key":` and returns the body to append
    /// its value to.
    fn key(&mut self, key: &str) -> &mut String {
        if self.fields > 0 {
            self.body.push(',');
        }
        self.fields += 1;
        self.body.push('"');
        escape_into(&mut self.body, key);
        self.body.push_str("\":");
        &mut self.body
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let body = self.key(key);
        body.push('"');
        escape_into(body, value);
        body.push('"');
        self
    }

    /// Appends a float field (`null` for non-finite values).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let body = self.key(key);
        if value.is_finite() {
            // Shortest round-trip formatting keeps rows compact and
            // byte-stable across runs.
            let _ = write!(body, "{value}");
        } else {
            body.push_str("null");
        }
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields
    }

    /// True if the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields == 0
    }

    /// Renders the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.body.len() + 2);
        out.push('{');
        out.push_str(&self.body);
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
        self.out.write_all(b"{")?;
        self.out.write_all(row.body.as_bytes())?;
        self.out.write_all(b"}\n")?;
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

/// Renders rows to one JSONL string (for in-memory comparisons). Rows
/// may be borrowed or rendered on the fly; the string is sized from the
/// first row, so rows of similar length are appended without regrowing.
pub fn jsonl_to_string<R: Borrow<JsonlRow>, I: IntoIterator<Item = R>>(rows: I) -> String {
    let push = |out: &mut String, row: R| {
        out.push('{');
        out.push_str(&row.borrow().body);
        out.push_str("}\n");
    };
    let mut rows = rows.into_iter();
    let mut out = String::new();
    if let Some(first) = rows.next() {
        push(&mut out, first);
        out.reserve(out.len() * rows.size_hint().0);
    }
    for row in rows {
        push(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_obs::json::escape;
    use proptest::prelude::*;

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

    /// `push_fixed6` against `format!("{v:.6}")`, byte for byte.
    fn assert_fixed6_matches_std(v: f64) {
        let mut out = String::from("x");
        push_fixed6(&mut out, v);
        assert_eq!(&out[1..], format!("{v:.6}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn fixed6_matches_std_formatting() {
        // SplitMix64: a fixed stream of bit patterns.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..50_000 {
            // Raw bit patterns: mostly huge, tiny or non-finite values.
            assert_fixed6_matches_std(f64::from_bits(next()));
            // Magnitudes the CSVs hold: 2^-40 ..= 2^55, either sign, so
            // both the u64 and u128 paths and the fallback run.
            let bits = next();
            let exponent = 1023 - 40 + (bits >> 53) % 96;
            let v =
                f64::from_bits((bits & (1 << 63)) | (exponent << 52) | (bits & ((1 << 52) - 1)));
            assert_fixed6_matches_std(v);
        }
        // Dyadic ties: odd multiples of 2^-7 sit exactly halfway between
        // two sixth decimals, and round to the even one.
        for k in (1..20_000u32).step_by(2) {
            let tie = f64::from(k) / 128.0;
            assert_fixed6_matches_std(tie);
            assert_fixed6_matches_std(-tie);
            assert_fixed6_matches_std(tie + (1u64 << 40) as f64);
        }
        assert_eq!(format!("{:.6}", 0.0078125), "0.007812");
        for v in [
            0.0,
            -0.0,
            -1e-9,
            5e-7,
            -5e-7,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            (1u64 << 50) as f64,
            -((1u64 << 50) as f64),
            ((1u64 << 50) as f64).next_up(),
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_fixed6_matches_std(v);
        }
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

    #[test]
    fn default_table_is_one_empty_header_line() {
        let mut t = CsvTable::default();
        assert_eq!(t.to_csv(), "\n");
        t.push_row(Vec::<String>::new());
        assert_eq!((t.len(), t.to_csv().as_str()), (1, "\n\n"));
    }

    #[test]
    fn carriage_returns_are_quoted() {
        let mut t = CsvTable::new(["x", "y"]);
        t.push_row(["a\rb", "plain"]);
        t.push_row(["\"\r\n", ""]);
        assert_eq!(t.to_csv(), "x,y\n\"a\rb\",plain\n\"\"\"\r\n\",\n");
    }

    /// The per-field renderer `JsonlRow` replaced, kept as the oracle
    /// the one-buffer renderer must match byte for byte.
    mod oracle {
        use std::fmt::Write as _;

        pub fn escape(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }

        #[derive(Default)]
        pub struct Row {
            fields: Vec<(String, String)>,
        }

        impl Row {
            pub fn str(&mut self, key: &str, value: &str) {
                let rendered = format!("\"{}\"", escape(value));
                self.fields.push((key.to_string(), rendered));
            }

            pub fn num(&mut self, key: &str, value: f64) {
                let rendered = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                self.fields.push((key.to_string(), rendered));
            }

            pub fn int(&mut self, key: &str, value: u64) {
                self.fields.push((key.to_string(), value.to_string()));
            }

            pub fn bool(&mut self, key: &str, value: bool) {
                self.fields.push((key.to_string(), value.to_string()));
            }

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
    }

    #[derive(Debug, Clone)]
    enum FieldValue {
        Str(String),
        Num(f64),
        Int(u64),
        Bool(bool),
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                0u32..0x20,
                0x20u32..0x80,
                0x80u32..0x11_0000,
                Just('"' as u32),
                Just('\\' as u32),
                Just(0x7f),
            ],
            0..12,
        )
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(f64::MIN_POSITIVE),
            Just(f64::from_bits(1)),
            (1u64..0x000f_ffff_ffff_ffff).prop_map(f64::from_bits),
            any::<u64>().prop_map(f64::from_bits),
            any::<f64>(),
            0.0f64..1.0,
        ]
    }

    fn field_value() -> impl Strategy<Value = FieldValue> {
        prop_oneof![
            text().prop_map(FieldValue::Str),
            float().prop_map(FieldValue::Num),
            prop_oneof![Just(u64::MAX), Just(0), any::<u64>()].prop_map(FieldValue::Int),
            any::<bool>().prop_map(FieldValue::Bool),
        ]
    }

    fn render(fields: &[(String, FieldValue)]) -> (JsonlRow, oracle::Row) {
        let mut row = JsonlRow::new();
        let mut expected = oracle::Row::default();
        for (key, value) in fields {
            row = match value {
                FieldValue::Str(v) => {
                    expected.str(key, v);
                    row.str(key, v)
                }
                FieldValue::Num(v) => {
                    expected.num(key, *v);
                    row.num(key, *v)
                }
                FieldValue::Int(v) => {
                    expected.int(key, *v);
                    row.int(key, *v)
                }
                FieldValue::Bool(v) => {
                    expected.bool(key, *v);
                    row.bool(key, *v)
                }
            };
        }
        (row, expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_buffer_rows_match_the_per_field_renderer(
            rows in proptest::collection::vec(
                proptest::collection::vec((text(), field_value()), 0..8),
                1..4,
            )
        ) {
            let rendered: Vec<(JsonlRow, oracle::Row)> =
                rows.iter().map(|fields| render(fields)).collect();
            let mut document = String::new();
            for ((row, expected), fields) in rendered.iter().zip(&rows) {
                prop_assert_eq!(row.to_json(), expected.to_json());
                prop_assert_eq!(row.len(), fields.len());
                document.push_str(&expected.to_json());
                document.push('\n');
            }
            prop_assert_eq!(jsonl_to_string(rendered.iter().map(|(row, _)| row)), document.clone());

            let dir = std::env::temp_dir().join("ichannels_jsonl_oracle_test");
            let path = dir.join("t.jsonl");
            let mut writer = JsonlWriter::create(&path).unwrap();
            for (row, _) in &rendered {
                writer.write_row(row).unwrap();
            }
            prop_assert_eq!(writer.finish().unwrap(), rendered.len());
            prop_assert_eq!(std::fs::read_to_string(&path).unwrap(), document);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn escape_into_matches_escape_for_every_ascii_char() {
        for code in 0u8..0x80 {
            let s = format!("a{}b", char::from(code));
            let mut out = String::from("prefix");
            escape_into(&mut out, &s);
            assert_eq!(out, format!("prefix{}", escape(&s)), "U+{code:04X}");
            assert_eq!(escape(&s), oracle::escape(&s), "U+{code:04X}");
        }
    }
}
