//! Typed frame cells and the deterministic scalar writers shared by
//! every output format in the workspace. Every writer appends to a
//! caller's `String`; none allocates a string of its own per cell.

use std::fmt::Write;

/// One cell of a [`crate::Frame`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text (labels, policy names, file paths).
    Text(String),
    /// An exact integer (counts, ids, priorities).
    Int(i64),
    /// A measurement. Rendered with shortest-roundtrip precision in CSV,
    /// as a JSON number (or `null` for non-finite values), and compactly
    /// in aligned tables.
    Num(f64),
}

impl Value {
    /// Append as a CSV field: full-precision floats with explicit `NaN` /
    /// `inf` spellings, RFC-4180 quoting for text. `floats` remembers the
    /// last float's text, so a run of equal-bit floats is formatted once.
    pub(crate) fn write_csv(&self, out: &mut String, floats: &mut FloatText) {
        match self {
            Value::Text(s) => push_csv_field(out, s),
            Value::Int(i) => push_int(out, *i),
            Value::Num(v) if v.is_nan() => out.push_str("NaN"),
            Value::Num(v) if v.is_infinite() => out.push_str(if *v > 0.0 { "inf" } else { "-inf" }),
            Value::Num(v) => out.push_str(floats.display(*v)),
        }
    }

    /// Append as a JSON value: numbers stay numbers, NaN/inf become
    /// `null` (JSON has neither). `floats` as in [`Value::write_csv`].
    pub(crate) fn write_json(&self, out: &mut String, floats: &mut FloatText) {
        match self {
            Value::Text(s) => push_json_string(out, s),
            Value::Int(i) => push_int(out, *i),
            Value::Num(v) if !v.is_finite() => out.push_str("null"),
            Value::Num(v) => out.push_str(floats.display(*v)),
        }
    }

    /// Render for an aligned text table (compact float formatting).
    pub fn render_cell(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => compact_f64(*v),
        }
    }
}

/// The text of the last finite float a writer formatted, keyed by its
/// bits. A count-1 statistics row has `mean = p50 = p99 = min = max`;
/// with this memo it formats that float once and copies the text four
/// times. Equal bits always render equal text, so reuse never changes a
/// byte.
#[derive(Debug, Default)]
pub(crate) struct FloatText {
    bits: Option<u64>,
    text: String,
}

impl FloatText {
    /// `v` in Rust's shortest-roundtrip `Display` form, formatted only
    /// when its bits differ from the previous call's.
    pub(crate) fn display(&mut self, v: f64) -> &str {
        let bits = v.to_bits();
        if self.bits != Some(bits) {
            self.text.clear();
            write!(self.text, "{v}").expect("formatting into a String cannot fail");
            self.bits = Some(bits);
        }
        &self.text
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        // Values past i64::MAX (64-bit hashes, extreme seeds) must not
        // wrap negative; render them exactly as text instead.
        match i64::try_from(v) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Text(v.to_string()),
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}

/// Build a frame row from mixed cell types: `row!["ST", 42, 0.945]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::Value::from($v)),*]
    };
}

/// Append an integer in decimal.
fn push_int(out: &mut String, i: i64) {
    write!(out, "{i}").expect("formatting into a String cannot fail");
}

/// Append `s` as a CSV field with RFC-4180 quoting: a value containing
/// the delimiter, quotes, or line breaks (e.g. a path with a comma) is
/// wrapped and its quotes doubled instead of silently shifting columns.
pub(crate) fn push_csv_field(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Append `s` as a quoted JSON string. Quotes, backslashes and control
/// characters below U+0020 are escaped; everything else (non-ASCII
/// included) is copied through in runs between escapes.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Format a float compactly for aligned table cells.
pub fn compact_f64(v: f64) -> String {
    if v.is_nan() {
        return "-".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv(v: Value) -> String {
        let mut out = String::new();
        v.write_csv(&mut out, &mut FloatText::default());
        out
    }

    fn json(v: Value) -> String {
        let mut out = String::new();
        v.write_json(&mut out, &mut FloatText::default());
        out
    }

    #[test]
    fn csv_rendering_is_typed() {
        assert_eq!(csv(Value::from("a,b")), "\"a,b\"");
        assert_eq!(csv(Value::from("say \"hi\"")), "\"say \"\"hi\"\"\"");
        assert_eq!(csv(Value::from(3u32)), "3");
        assert_eq!(csv(Value::from(0.1)), "0.1");
        assert_eq!(csv(Value::Num(f64::NAN)), "NaN");
        assert_eq!(csv(Value::Num(f64::NEG_INFINITY)), "-inf");
    }

    #[test]
    fn json_rendering_is_typed() {
        assert_eq!(json(Value::from("say \"hi\"")), "\"say \\\"hi\\\"\"");
        assert_eq!(json(Value::from("a\u{1}\\é")), "\"a\\u0001\\\\é\"");
        assert_eq!(json(Value::from(3usize)), "3");
        assert_eq!(json(Value::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn float_text_reuses_only_equal_bits() {
        let mut floats = FloatText::default();
        assert_eq!(floats.display(0.5), "0.5");
        assert_eq!(floats.display(0.5), "0.5");
        assert_eq!(floats.display(-0.0), "-0");
        assert_eq!(floats.display(0.0), "0");
        assert_eq!(floats.display(1e21), "1000000000000000000000");
    }

    #[test]
    fn compact_formatting() {
        assert_eq!(compact_f64(0.0), "0");
        assert_eq!(compact_f64(1234.0), "1234");
        assert_eq!(compact_f64(12.345), "12.35");
        assert_eq!(compact_f64(0.6321), "0.632");
        assert_eq!(compact_f64(f64::INFINITY), "inf");
        assert_eq!(compact_f64(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn u64_past_i64_max_renders_exactly_as_text() {
        assert_eq!(Value::from(u64::MAX), Value::Text(u64::MAX.to_string()));
        assert_eq!(csv(Value::from(u64::MAX)), "18446744073709551615");
        assert_eq!(Value::from(3u64), Value::Int(3));
    }

    #[test]
    fn row_macro_mixes_types() {
        let r = row!["x", 1u64, 2.5];
        assert_eq!(
            r,
            vec![Value::Text("x".into()), Value::Int(1), Value::Num(2.5)]
        );
    }
}
