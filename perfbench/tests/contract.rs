//! The benchmark's result contract, checked against the built binary:
//! every metric `BENCHMARK.json` lists is emitted, with its unit, for
//! every workload in both modes; the result line has exactly the
//! contract's keys; bad arguments fail without a result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A parsed JSON value (just enough JSON for the benchmark's files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing key {key:?}"))
                    .1
            }
            _ => panic!("not an object looking up {key:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            self.i += 4;
                        }
                        b'n' => out.push('\n'),
                        other => out.push(other as char),
                    }
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing input");
    v
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"));
    let Json::Arr(items) = doc.get(list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs")
}

/// Run one workload at the test scale and return its parsed result line.
fn result(workload: &str, seed: &str, trace: &str) -> Json {
    let dir = scratch_dir(&format!("{workload}-{trace}"));
    let out = run(
        &dir,
        &[
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn check_result(r: &Json, list: &str, workload: &str) {
    assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), &Json::Bool(true));
    let Json::Num(attempted) = r.get("attempted") else {
        panic!("attempted is not a number");
    };
    assert!(*attempted >= 1.0);
    assert_eq!(r.get("failed"), &Json::Num(0.0));
    let metrics = r.get("metrics");
    let want = declared(list);
    let got: BTreeMap<String, String> = metrics
        .keys()
        .iter()
        .map(|k| {
            let m = metrics.get(k);
            assert_eq!(m.keys(), ["value", "unit"], "{workload} {k}");
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{workload} {k}"
            );
            (k.to_string(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        got, want,
        "{workload}: emitted {list} metrics differ from BENCHMARK.json"
    );
}

const WORKLOADS: [&str; 3] = ["replay_ckpt_heavy", "des_fleet", "grid_crash_resume"];

#[test]
fn declared_metric_names_are_well_formed_and_unique() {
    for list in ["end_to_end", "per_layer"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap());
        let Json::Arr(items) = doc.get(list) else {
            panic!("{list} is not a list");
        };
        let names: Vec<&str> = items.iter().map(|m| m.get("name").str()).collect();
        assert_eq!(declared(list).len(), names.len(), "{list} repeats a name");
        for n in names {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {n:?}"
            );
        }
    }
    assert!(declared("end_to_end").contains_key("setup_s"));
}

#[test]
fn every_end_to_end_metric_is_emitted_for_every_workload() {
    for w in WORKLOADS {
        check_result(&result(w, "1", "0"), "end_to_end", w);
    }
}

#[test]
fn every_per_layer_metric_is_emitted_for_every_workload() {
    for w in WORKLOADS {
        check_result(&result(w, "424242", "1"), "per_layer", w);
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let dir = scratch_dir("bad-args");
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "des_fleet", "--trace", "2"][..],
    ] {
        let out = run(&dir, args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
