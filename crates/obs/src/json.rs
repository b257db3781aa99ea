//! The workspace's one JSON reader, and the string escaper all of its
//! JSON writers share.
//!
//! [`parse`] reads one RFC 8259 document into a [`Value`] tree; callers
//! impose their schema by walking the tree (trial rows in
//! `ichannels_meter::parse`, [`crate::MetricsSnapshot::parse`], the
//! lint baseline). The tree borrows from the input: a string or object
//! key without escapes is a [`Cow::Borrowed`] slice of the text, and
//! only one with escapes is decoded into an owned `String`, so reading
//! a trial row allocates the field vector and nothing per field. A
//! literal of plain digits that fits a `u64` parses to [`Value::Uint`]
//! (so `u64` seeds survive), any other number to [`Value::Num`], whose
//! shortest round-trip `Display` reproduces the original bytes.
//! [`escape`] inverts string parsing: `parse(&format!("\"{}\"",
//! escape(s)))` is `Value::Str(s)`. Since `escape` copies every
//! non-control character raw, no writer emits UTF-16 surrogate escapes,
//! and the reader rejects them.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts; deeper input is an
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing its unescaped strings from the text
/// it was parsed from. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A literal of plain digits (no sign, `.`, or exponent) that fits
    /// a `u64`.
    Uint(u64),
    /// Any other numeric literal.
    Num(f64),
    /// A string (escapes resolved): borrowed when the literal had no
    /// escapes, owned otherwise.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's `(key, value)` fields, in document order; keys
    /// borrow or own as strings do.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if a [`Value::Uint`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Uint(u) => Some(u),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric ([`Value::Uint`] widens).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Uint(u) => Some(u as f64),
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an `f64`, treating `null` as NaN (the trial-row
    /// writer renders non-finite floats as `null`).
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match *self {
            Value::Null => Some(f64::NAN),
            _ => self.as_f64(),
        }
    }

    /// The elements, if an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` fields in document order, if an object.
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Malformed JSON: what went wrong, and the byte offset where the
/// reader noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for Error {}

/// Parses one complete JSON document; only whitespace may surround it.
///
/// # Errors
///
/// Returns [`Error`] for anything that is not exactly one JSON value,
/// including truncated input and trailing content.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut parser = Parser {
        text,
        at: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at < text.len() {
        return Err(parser.unexpected("end of input"));
    }
    Ok(value)
}

/// Escapes `s` for use between the quotes of a JSON string: `"`, `\`
/// and every control character are escaped, everything else is copied.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends [`escape`]`(s)` to `out` without an intermediate string. A
/// string with nothing to escape is pushed whole.
pub fn escape_into(out: &mut String, s: &str) {
    // Every escaped character is ASCII, and ASCII bytes never occur
    // inside a multi-byte UTF-8 sequence, so the unescaped runs between
    // them are whole `str` slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escaped) => out.push_str(escaped),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// True for the bytes that end the unescaped part of a string: `"`,
/// `\` and control characters.
fn is_stop_byte(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// True if any byte of an 8-byte `word` is a stop byte, tested on all
/// eight at once: for each byte `x`, `(x - n) & !x & 0x80` has its high
/// bit set for the lowest byte below `n` (and no bit set when there is
/// none), so `x < 0x20` and `x ^ c < 1` (`x == c`) are checked with a
/// few word operations. Bytes of 0x80 and up never match, as in
/// [`is_stop_byte`].
fn has_stop_byte(word: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let x = u64::from_ne_bytes(word.try_into().unwrap_or_default());
    let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x & HIGHS;
    below(x ^ (ONES * u64::from(b'"')), 1)
        | below(x ^ (ONES * u64::from(b'\\')), 1)
        | below(x, 0x20)
        != 0
}

/// A byte cursor over the input. It slices `text` only at ASCII bytes,
/// so every slice starts and ends on a `char` boundary.
struct Parser<'a> {
    text: &'a str,
    at: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.at += usize::from(hit);
        hit
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
            at: self.at,
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        let found = match self
            .text
            .get(self.at..)
            .and_then(|rest| rest.chars().next())
        {
            Some(c) => format!("`{c}`"),
            None => "end of input".to_string(),
        };
        self.error(format!("expected {wanted}, found {found}"))
    }

    /// Skips whitespace, then requires `want`.
    fn require(&mut self, want: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{}`", want as char)))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .sequence(b'}', |r| {
                    let key = r.string()?;
                    r.require(b':')?;
                    Ok((key, r.value()?))
                })
                .map(Value::Object),
            Some(b'[') => self.sequence(b']', Self::value).map(Value::Array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected("a value")),
        }
    }

    /// Reads `open item (, item)* close` (or `open close`), the cursor
    /// sitting on `open`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.unexpected(&format!("`,` or `{}`", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.unexpected(&format!("`{word}`")))
        }
    }

    /// Reads a string literal. The unescaped prefix is found by one
    /// scan for the first `"`, `\` or control byte; a literal that ends
    /// there is borrowed, and one with escapes is decoded into an owned
    /// string run by run.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.require(b'"')?;
        let start = self.at;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.at += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.at - 1]));
        }
        let mut out = String::new();
        let mut run = start;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.at]);
                    self.at += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.at]);
                    self.at += 1;
                    out.push(self.escaped()?);
                    run = self.at;
                    self.skip_plain();
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Advances past string bytes that need no decoding: everything but
    /// `"`, `\` and control characters. Whole 8-byte words without
    /// such a byte are skipped at once; the word holding one is then
    /// scanned byte by byte.
    fn skip_plain(&mut self) {
        let rest = &self.text.as_bytes()[self.at..];
        let plain_words = rest
            .chunks_exact(8)
            .take_while(|word| !has_stop_byte(word))
            .count();
        let tail = &rest[8 * plain_words..];
        self.at += 8 * plain_words
            + tail
                .iter()
                .position(|&b| is_stop_byte(b))
                .unwrap_or(tail.len());
    }

    /// Decodes one escape; the cursor sits just past the backslash.
    fn escaped(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let start = self.at;
                // Surrogates are not `char`s; no writer here emits pairs.
                return char::from_u32(self.hex4()?).ok_or(Error {
                    message: "surrogate `\\u` escapes are not supported".to_string(),
                    at: start,
                });
            }
            _ => return Err(self.unexpected("an escape character")),
        };
        self.at += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign, no fewer).
    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("`\\u` needs exactly four hex digits"))?;
            code = code * 16 + digit;
            self.at += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> usize {
        let n = self.text.as_bytes()[self.at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.at += n;
        n
    }

    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.at;
        let signed = self.eat(b'-');
        let int_digits = self.digits();
        let mut ok = int_digits == 1
            || (int_digits > 1 && self.text.as_bytes()[start + usize::from(signed)] != b'0');
        let fraction = self.eat(b'.');
        if fraction {
            ok &= self.digits() > 0;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let literal = &self.text[start..self.at];
        let plain = !(signed || fraction || exponent);
        if ok && plain {
            if let Ok(u) = literal.parse() {
                return Ok(Value::Uint(u));
            }
        }
        match literal.parse() {
            Ok(n) if ok => Ok(Value::Num(n)),
            _ => Err(Error {
                message: format!("malformed number `{literal}`"),
                at: start,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn str_value(s: &str) -> Value<'_> {
        Value::Str(Cow::Borrowed(s))
    }

    #[test]
    fn parses_every_value_kind_in_document_order() {
        let doc =
            parse(r#"{"n":null,"b":[true,false],"u":7,"f":-0.5,"s":"x","o":{}}"#).expect("parses");
        let fields = doc.as_object().expect("object");
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["n", "b", "u", "f", "s", "o"]);
        assert_eq!(fields[0].1, Value::Null);
        assert_eq!(
            fields[1].1.as_array(),
            Some(&[Value::Bool(true), Value::Bool(false)][..])
        );
        assert_eq!(fields[2].1.as_u64(), Some(7));
        assert_eq!(fields[3].1.as_f64(), Some(-0.5));
        assert_eq!(fields[4].1.as_str(), Some("x"));
        assert_eq!(fields[5].1, Value::Object(Vec::new()));
        assert!(Value::Null.as_f64_or_nan().expect("null is NaN").is_nan());
    }

    #[test]
    fn plain_digits_are_uints_and_everything_else_is_a_float() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::Uint(u64::MAX)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Num(18446744073709551616.0))
        );
        assert_eq!(parse("0"), Ok(Value::Uint(0)));
        assert_eq!(parse("-0"), Ok(Value::Num(-0.0)));
        assert_eq!(parse("2e3"), Ok(Value::Num(2000.0)));
        assert_eq!(parse("1.0"), Ok(Value::Num(1.0)));
    }

    #[test]
    fn floats_round_trip_byte_exactly() {
        for v in [0.19047619047619047, 2918.0, 1e-7, -0.5, 123456789.25, 1e300] {
            let rendered = format!("{v}");
            let back = parse(&rendered).expect("parses").as_f64().expect("numeric");
            assert_eq!(format!("{back}"), rendered);
        }
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\te\/f\r\b\f""#),
            Ok(str_value("a\"b\\c\nd\te/f\r\u{8}\u{c}"))
        );
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(str_value("Aé")));
        assert_eq!(parse("\"héllo ☃\""), Ok(str_value("héllo ☃")));
    }

    #[test]
    fn unescaped_text_is_borrowed_and_escaped_text_is_owned() {
        let text = r#"{"plain":"cannon_lake/quiet","esc\naped":"a\"b","é":"☃"}"#;
        let doc = parse(text).expect("parses");
        let fields = doc.as_object().expect("object");
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        let kinds: Vec<(bool, bool)> = fields
            .iter()
            .map(|(k, v)| match v {
                Value::Str(s) => (borrowed(k), borrowed(s)),
                other => panic!("not a string: {other:?}"),
            })
            .collect();
        assert_eq!(kinds, [(true, true), (false, false), (true, true)]);
        assert_eq!(fields[1].0, "esc\naped");
        assert_eq!(fields[1].1.as_str(), Some("a\"b"));
        // A borrowed string is a slice of the input, not a copy.
        let Value::Str(Cow::Borrowed(plain)) = &fields[0].1 else {
            unreachable!("checked above")
        };
        assert!(text.as_bytes().as_ptr_range().contains(&plain.as_ptr()));
        // Error offsets after the scan are the byte-at-a-time ones.
        assert_eq!(parse("\"abc").unwrap_err().at, 4);
        assert_eq!(parse("\"ab\\nc\td\"").unwrap_err().at, 6);
        assert_eq!(parse("\"ab\tc\"").unwrap_err().at, 3);
    }

    #[test]
    fn word_scan_finds_the_first_stop_byte() {
        // Every stop byte (and the bytes around the thresholds) at every
        // offset of a 24-byte run, after plain ASCII and UTF-8 text.
        let naive = |text: &str| text.bytes().position(is_stop_byte).unwrap_or(text.len());
        let stops = ["\"", "\\", "\u{0}", "\u{1f}"];
        let plain = ["a", " ", "!", "#", "[", "]", "é", "☃", "\u{7f}"];
        for prefix in ["", "cannon_lake/", "héllo ☃ ", "x".repeat(17).as_str()] {
            for stop in stops.iter().chain(&plain) {
                for at in 0..24 {
                    let text = format!("{prefix}{}{stop}{}", "b".repeat(at), "c".repeat(9));
                    let mut parser = Parser {
                        text: &text,
                        at: 0,
                        depth: 0,
                    };
                    parser.skip_plain();
                    assert_eq!(parser.at, naive(&text), "{text:?}");
                }
            }
        }
        for b in 0..=255u8 {
            assert_eq!(has_stop_byte(&[b; 8]), is_stop_byte(b), "byte {b:#x}");
            let mut word = [b'a'; 8];
            word[7] = b;
            assert_eq!(has_stop_byte(&word), is_stop_byte(b), "last byte {b:#x}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u12""#,
            r#""\u12"x"#,
            r#""\uZZZZ""#,
            r#""\ud83d""#,
            r#""\ud83d\ude00""#,
            r#""\ude00""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse("{}"), Ok(Value::Object(Vec::new())));
        assert_eq!(parse("[ ]"), Ok(Value::Array(Vec::new())));
    }

    #[test]
    fn whitespace_between_tokens_is_accepted() {
        let doc = parse(" {\n\t\"a\" : [ 1 ,\r\n 2 ] } \n").expect("parses");
        assert_eq!(
            doc,
            Value::Object(vec![(
                "a".into(),
                Value::Array(vec![Value::Uint(1), Value::Uint(2)])
            )])
        );
    }

    #[test]
    fn truncated_and_malformed_input_is_rejected() {
        for bad in [
            "",
            " ",
            "{",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":\"unterminated",
            "{\"a\":1}garbage",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1 \"b\":2}",
            "{a:1}",
            "[1 2]",
            "[1,]",
            "tru",
            "nul",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            ".5",
            "\"a\tb\"",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let err = parse("[1,]").unwrap_err();
        assert_eq!(err.at, 3);
        assert_eq!(err.to_string(), "expected a value, found `]` at byte 3");
        assert_eq!(parse("[1] x").unwrap_err().at, 4);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().message.contains("nesting deeper"));
    }

    #[test]
    fn escape_output_matches_the_writers() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g"
        );
        assert_eq!(escape("é/☃"), "é/☃");
    }

    proptest! {
        #[test]
        fn escaped_strings_parse_back(
            codes in proptest::collection::vec(
                prop_oneof![
                    0u32..0x20,
                    0x20u32..0x80,
                    0x80u32..0x11_0000,
                    Just('"' as u32),
                    Just('\\' as u32),
                ],
                0..24,
            )
        ) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let quoted = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&quoted), Ok(Value::Str(s.into())));
        }
    }
}
