//! JSONL parsing — the read side of [`crate::export`].
//!
//! The campaign engine streams one flat JSON object per line through
//! [`crate::export::JsonlWriter`]; this module parses those lines back
//! so shard outputs can be reloaded, merged, and resumed. The JSON
//! grammar is the workspace's shared reader ([`ichannels_obs::json`]);
//! this module adds only the row rule the writer guarantees: one object
//! whose values are all scalars (strings, numbers, booleans, `null`) —
//! no nesting, no arrays.
//!
//! The fields borrow from the line: keys and unescaped string values
//! are slices of it (see [`ichannels_obs::json`]), so a reader that
//! copies out only what it keeps allocates nothing else per field.
//!
//! Values round-trip byte-exactly: a plain-digit integer literal parses
//! to [`Value::Uint`] (so `u64` seeds survive), any other numeric
//! literal to [`Value::Num`], and re-rendering a parsed float with
//! Rust's shortest round-trip `Display` reproduces the original bytes.

use std::borrow::Cow;

use ichannels_obs::json::{self, Error, Value};

/// Parses one JSONL line (a trailing `\n` / `\r` is ignored) into its
/// `(key, value)` pairs, in document order.
///
/// # Errors
///
/// Returns [`Error`] when the line is not a flat JSON object of scalar
/// values (including a line truncated mid-write). A line that is valid
/// JSON but breaks the row rule reports byte 0.
pub fn parse_jsonl_line(line: &str) -> Result<Vec<(Cow<'_, str>, Value<'_>)>, Error> {
    let row_error = |message: String| Error { message, at: 0 };
    let Value::Object(fields) = json::parse(line.trim_end_matches(['\n', '\r']))? else {
        return Err(row_error("a JSONL row must be an object".to_string()));
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)))
    {
        return Err(row_error(format!("row field `{key}` is not a scalar")));
    }
    Ok(fields)
}

/// Looks up a field by key in a parsed line; a repeated key reads its
/// first occurrence.
pub fn field<'f, 'a>(fields: &'f [(Cow<'a, str>, Value<'a>)], key: &str) -> Option<&'f Value<'a>> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::JsonlRow;

    #[test]
    fn parses_writer_output_back() {
        let row = JsonlRow::new()
            .str("cell", "cannon_lake/IccThreadCovert/quiet")
            .int("trial", 0)
            .int("seed", 0xCBF2_9CE4_8422_2325)
            .num("ber", 0.03125)
            .num("nan", f64::NAN)
            .bool("ok", true);
        let line = row.to_json() + "\r\n";
        let fields = parse_jsonl_line(&line).expect("parses");
        assert_eq!(fields.len(), 6);
        assert_eq!(
            field(&fields, "cell").and_then(Value::as_str),
            Some("cannon_lake/IccThreadCovert/quiet")
        );
        assert_eq!(
            field(&fields, "seed").and_then(Value::as_u64),
            Some(0xCBF2_9CE4_8422_2325)
        );
        assert_eq!(field(&fields, "ber").and_then(Value::as_f64), Some(0.03125));
        assert!(field(&fields, "nan")
            .and_then(Value::as_f64_or_nan)
            .expect("null maps to NaN")
            .is_nan());
        assert_eq!(field(&fields, "ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rows_with_special_strings_and_floats_round_trip() {
        let row = JsonlRow::new()
            .str("s", "a\"b\\c\nd\te")
            .num("v", 0.19047619047619047);
        let line = row.to_json();
        let fields = parse_jsonl_line(&line).expect("parses");
        let back = JsonlRow::new()
            .str("s", field(&fields, "s").and_then(Value::as_str).unwrap())
            .num("v", field(&fields, "v").and_then(Value::as_f64).unwrap());
        assert_eq!(back.to_json(), row.to_json());
    }

    #[test]
    fn truncated_lines_are_rejected() {
        for bad in [
            "",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":1}garbage",
            // Valid JSON, but not a flat row.
            "[1,2]",
            "\"a\"",
            "{\"a\":{}}",
            "{\"a\":[1]}",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
