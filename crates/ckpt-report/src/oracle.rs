//! Differential test of the shared writer against a reference copy.
//!
//! The reference is the writer as it was before it appended into one
//! buffer: every cell rendered into a `String` of its own, rows joined,
//! JSON lines built with `format!`, every float formatted where it stands.
//! It is kept here, test-only, as the oracle the buffered writer must
//! match byte for byte on random frames.

use crate::frame::{ExpOutput, Frame};
use crate::sink::{Format, Sink};
use crate::value::Value;

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "inf".to_string()
        } else {
            "-inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_csv(v: &Value) -> String {
    match v {
        Value::Text(s) => csv_field(s),
        Value::Int(i) => i.to_string(),
        Value::Num(v) => fmt_f64(*v),
    }
}

fn render_json(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("\"{}\"", json_escape(s)),
        Value::Int(i) => i.to_string(),
        Value::Num(v) => json_num(*v),
    }
}

fn to_csv(f: &Frame) -> String {
    let mut out = String::new();
    let header: Vec<String> = f.columns.iter().map(|c| csv_field(c)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &f.rows {
        let cells: Vec<String> = row.iter().map(render_csv).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn write_json(f: &Frame, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&format!("{pad}{{\n"));
    out.push_str(&format!("{pad}  \"name\": \"{}\",\n", json_escape(&f.name)));
    out.push_str(&format!(
        "{pad}  \"title\": \"{}\",\n",
        json_escape(&f.title)
    ));
    let meta: Vec<String> = f
        .metadata
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    out.push_str(&format!("{pad}  \"metadata\": {{{}}},\n", meta.join(", ")));
    let cols: Vec<String> = f
        .columns
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    out.push_str(&format!("{pad}  \"columns\": [{}],\n", cols.join(", ")));
    if f.rows.is_empty() {
        out.push_str(&format!("{pad}  \"rows\": []\n"));
    } else {
        out.push_str(&format!("{pad}  \"rows\": [\n"));
        for (i, row) in f.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(render_json).collect();
            out.push_str(&format!(
                "{pad}    [{}]{}\n",
                cells.join(", "),
                if i + 1 < f.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{pad}  ]\n"));
    }
    out.push_str(&format!("{pad}}}"));
}

fn frame_json(f: &Frame) -> String {
    let mut out = String::new();
    write_json(f, &mut out, 0);
    out.push('\n');
    out
}

fn output_json(o: &ExpOutput) -> String {
    let mut out = String::from("{\n");
    if o.frames.is_empty() {
        out.push_str("  \"frames\": [],\n");
    } else {
        out.push_str("  \"frames\": [\n");
        for (i, f) in o.frames.iter().enumerate() {
            write_json(f, &mut out, 2);
            out.push_str(if i + 1 < o.frames.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
    }
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    out.push_str(&format!("  \"notes\": [{}]\n", notes.join(", ")));
    out.push_str("}\n");
    out
}

/// SplitMix64: a tiny seeded generator, so the cases are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Text from pieces that exercise every quoting and escaping rule: the
/// CSV delimiter, quotes and line breaks, backslashes, control bytes
/// below 0x20, DEL, and multi-byte UTF-8.
fn text(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "a", "Zq", "0.5", " ", ",", "\"", "\n", "\r", "\t", "\\", "\u{0}", "\u{1}", "\u{8}",
        "\u{b}", "\u{c}", "\u{1b}", "\u{1f}", "\u{7f}", "é", "日本", "😀", "\"\"", "\r\n",
        "\\u0041", "null",
    ];
    (0..rng.below(6)).map(|_| rng.pick(PIECES)).collect()
}

/// A float from the edge cases (NaN, ±inf, ±0, subnormals, extreme and
/// long-expansion magnitudes) or from raw random bits.
fn float(rng: &mut Rng) -> f64 {
    const EDGES: &[f64] = &[
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1e21,
        1e22,
        1e-7,
        0.1,
        1.0 / 3.0,
        123_456.789,
        -2.5,
        0.005,
    ];
    if rng.below(3) == 0 {
        f64::from_bits(rng.next())
    } else {
        rng.pick(EDGES)
    }
}

/// One cell. Floats often repeat the row's previous float or the one
/// before it (runs and alternations of equal bits), sometimes with an
/// integer or text cell between them.
fn cell(rng: &mut Rng, floats: &[f64]) -> Value {
    match rng.below(10) {
        0 | 1 => Value::Text(text(rng)),
        2 => Value::Int(rng.pick(&[0, -1, 1, i64::MIN, i64::MAX, 42])),
        3 => Value::Int(rng.next() as i64),
        4 => Value::from(rng.next() | 1 << 63),
        5 | 6 if !floats.is_empty() => {
            let back = 1 + rng.below(floats.len().min(2));
            Value::Num(floats[floats.len() - back])
        }
        _ => Value::Num(float(rng)),
    }
}

fn frame(rng: &mut Rng) -> Frame {
    let width = rng.below(7);
    let columns: Vec<String> = (0..width).map(|_| text(rng)).collect();
    let mut f = Frame::new(&text(rng), columns).with_title(text(rng));
    for _ in 0..rng.below(3) {
        f = f.with_meta(text(rng), text(rng));
    }
    for _ in 0..rng.below(6) {
        let mut floats = Vec::new();
        let row: Vec<Value> = (0..width)
            .map(|_| {
                let v = cell(rng, &floats);
                if let Value::Num(x) = v {
                    floats.push(x);
                }
                v
            })
            .collect();
        f.push_row(row);
    }
    f
}

fn stream(sink: &Sink, output: &ExpOutput) -> String {
    let mut buf = Vec::new();
    sink.emit_to(output, &mut buf).expect("in-memory sink");
    String::from_utf8(buf).expect("writer emits UTF-8")
}

#[test]
fn writer_matches_reference_on_random_frames() {
    let mut rng = Rng(0x5eed);
    for case in 0..3000 {
        let f = frame(&mut rng);
        assert_eq!(f.to_csv(), to_csv(&f), "case {case} CSV: {f:?}");
        assert_eq!(f.to_json(), frame_json(&f), "case {case} JSON: {f:?}");
    }
}

#[test]
fn nested_outputs_match_reference() {
    let mut rng = Rng(0xface);
    for case in 0..500 {
        let mut out = ExpOutput::new();
        for _ in 0..rng.below(4) {
            out.push(frame(&mut rng));
        }
        for _ in 0..rng.below(3) {
            out.note(text(&mut rng));
        }
        let json = output_json(&out);
        assert_eq!(out.to_json(), json, "case {case}: {out:?}");
        assert_eq!(stream(&Sink::new(Format::Json), &out), json);
        let csv: String = out
            .frames
            .iter()
            .map(|f| format!("# frame: {}\n{}", f.name, to_csv(f)))
            .collect();
        assert_eq!(stream(&Sink::new(Format::Csv), &out), csv, "case {case}");
    }
}

#[test]
fn fixed_edge_frames_match_reference() {
    // Empty frames with and without columns and metadata, and a row that
    // alternates equal-bit floats around integers, NaN and signed zeros.
    let mut rows = Frame::new("edges", vec!["a", "b", "c", "d", "e", "f", "g"]);
    for x in [0.005, -0.0, f64::NAN, 1e300, 5e-324] {
        rows.push_row(vec![
            Value::Num(x),
            Value::Int(7),
            Value::Num(x),
            Value::Num(0.0),
            Value::Num(x),
            Value::from(u64::MAX),
            Value::Num(x),
        ]);
    }
    let frames = [
        Frame::new("", Vec::<String>::new()),
        Frame::new("no_rows", vec!["x"]).with_meta("k", "v"),
        rows,
    ];
    for f in &frames {
        assert_eq!(f.to_csv(), to_csv(f));
        assert_eq!(f.to_json(), frame_json(f));
    }
    let out = ExpOutput {
        frames: frames.to_vec(),
        notes: Vec::new(),
    };
    assert_eq!(out.to_json(), output_json(&out));
    assert_eq!(ExpOutput::new().to_json(), output_json(&ExpOutput::new()));
}
