//! Smoke tests: every workload at tiny populations, in both modes, must
//! print every metric `BENCHMARK.json` names with its unit; and every
//! workload fed a deliberately wrong result must fail its run.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::metrics::{Spec, END_TO_END, PER_LAYER};
use perfbench::Workload;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
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
            Json::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&Json::Null)
            }
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
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
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), pos: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.pos, p.s.len(), "trailing characters in {text}");
        v
    }

    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.pos], c, "expected {} at {}", c as char, self.pos);
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.pos] == b'}' {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.pos += 1;
                    if self.s[self.pos - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.pos] == b']' {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.pos += 1;
                    if self.s[self.pos - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.pos += 1;
                let mut out = String::new();
                while self.s[self.pos] != b'"' {
                    if self.s[self.pos] == b'\\' {
                        self.pos += 1;
                    }
                    out.push(self.s[self.pos] as char);
                    self.pos += 1;
                }
                self.pos += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.pos)
            }
            _ => {
                let start = self.pos;
                while self.pos < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.pos]) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &Json) -> Vec<(String, String)> {
    list.arr().iter().map(|m| (m.get("name").str().into(), m.get("unit").str().into())).collect()
}

fn catalogue(specs: &[Spec]) -> Vec<(String, String)> {
    specs.iter().map(|s| (s.name.to_string(), s.unit.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    assert_eq!(declared(b.get("end_to_end")), catalogue(END_TO_END));
    assert_eq!(declared(b.get("per_layer")), catalogue(PER_LAYER));
    let workloads: Vec<&str> =
        b.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for m in b.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(["lower", "higher"].contains(&m.get("better").str()), "{m:?}");
    }
    let setup = b.get("end_to_end").arr().iter().find(|m| m.get("name").str() == "setup_s");
    assert_eq!(setup.expect("setup_s is declared").get("better").str(), "lower");
}

/// Runs the benchmark binary; returns its exit code and stdout lines.
fn run(workload: Workload, trace: bool, extra: &[&str]) -> (i32, Vec<String>) {
    // Tests run in parallel: every call gets a scratch directory of its own.
    let scratch: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{trace}{}",
        workload.name(),
        extra.concat()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", "5", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--scratch")
        .arg(&scratch)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout.lines().map(String::from).collect())
}

fn result(lines: &[String]) -> Json {
    Parser::parse(lines.last().expect("a result line"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let b = benchmark_json();
    for w in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, lines) = run(w, trace, &[]);
            assert_eq!(code, 0, "{} trace={trace}: {lines:?}", w.name());
            let r = result(&lines);
            assert_eq!(r.get("correct"), &Json::Bool(true), "{}", w.name());
            assert!(r.get("attempted").num() >= 1.0);
            assert_eq!(r.get("failed").num(), 0.0, "{} trace={trace}", w.name());
            let Json::Obj(metrics) = r.get("metrics") else { panic!("metrics object") };
            let printed: Vec<(String, String)> =
                metrics.iter().map(|(k, v)| (k.clone(), v.get("unit").str().into())).collect();
            assert_eq!(printed, declared(b.get(list)), "{} trace={trace}", w.name());
            for (k, v) in metrics {
                assert!(v.get("value").num().is_finite(), "{k}");
            }
            assert!(lines[0].starts_with("{\"env\": "), "environment block first");
        }
    }
}

#[test]
fn a_deliberately_wrong_result_fails_every_workload() {
    for w in Workload::ALL {
        let (code, lines) = run(w, false, &["--corrupt"]);
        assert_eq!(code, 1, "{}: {lines:?}", w.name());
        assert_eq!(result(&lines).get("correct"), &Json::Bool(false), "{}", w.name());
        assert!(lines.iter().any(|l| l.starts_with("{\"violation\": ")), "{}", w.name());
    }
}
