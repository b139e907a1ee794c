//! Tiny-size self-test of the benchmark: every workload at 1% scale and
//! two rounds per flow, untraced and traced. It checks that every
//! end-to-end metric of `BENCHMARK.json` is printed with its unit, that
//! no call failed (`error_rate` 0), that the traced run's per-layer
//! names and units are exactly those of `BENCHMARK.json`, and that the
//! simulated hardware figures repeat exactly across two runs.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value: enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object when looking up {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
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

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Json::Arr(list) = Json::parse(&text).get(section).clone() else {
        panic!("{section} is not a list")
    };
    list.iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "0.01", "--rounds", "2"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Run {
        result: Json::parse(last),
        stdout,
    }
}

/// The `name = value unit` text line of `name`.
fn text_value(stdout: &str, name: &str) -> (String, String) {
    let prefix = format!("{name} = ");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("{name} not printed"));
    let mut words = line.split_whitespace();
    let value = words.next().expect("a value").to_string();
    let unit = words.next().expect("a unit").to_string();
    (value, unit)
}

fn check_metrics(result: &Json, declared: &[(String, String)], positive: bool) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect();
    let mut want = declared.to_vec();
    want.sort();
    assert_eq!(printed, want, "printed metrics differ from BENCHMARK.json");
    for (name, m) in metrics {
        let v = m.get("value").num();
        assert!(v.is_finite(), "{name} = {v}");
        assert!(!positive || v > 0.0, "{name} = {v} must be above 0");
    }
}

fn self_test(workload: &str) {
    let plain = run(workload, false);
    assert_eq!(plain.result.get("correct"), &Json::Bool(true));
    assert_eq!(plain.result.get("failed").num(), 0.0);
    assert!(plain.result.get("attempted").num() >= 1.0);
    assert_eq!(
        text_value(&plain.stdout, "error_rate"),
        ("0".into(), "ratio".into())
    );
    let end_to_end = declared("end_to_end");
    check_metrics(&plain.result, &end_to_end, true);
    for (name, unit) in &end_to_end {
        assert_eq!(&text_value(&plain.stdout, name).1, unit, "{name} text unit");
    }

    let traced = run(workload, true);
    assert_eq!(traced.result.get("correct"), &Json::Bool(true));
    assert_eq!(traced.result.get("failed").num(), 0.0);
    check_metrics(&traced.result, &declared("per_layer"), false);
    assert!(traced.stdout.contains("overhead throughput_mib_s = "));
    assert!(traced.stdout.contains("span core.service.push"));

    // Same seed, same inputs: the simulated figures repeat exactly.
    for name in ["hw_energy_nj_per_byte", "hw_area_mm2"] {
        assert_eq!(
            text_value(&plain.stdout, name),
            text_value(&traced.stdout, name),
            "{name} differs between two runs"
        );
    }
}

#[test]
fn snort_counting() {
    self_test("snort_counting");
}

#[test]
fn spam_benign() {
    self_test("spam_benign");
}

#[test]
fn spam_churn() {
    self_test("spam_churn");
}
