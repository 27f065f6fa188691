//! `BENCHMARK.json` and the binary's output agree with the spec: the file
//! at the repo root is `list --json`, and a `--quick` run of each workload
//! prints every metric the file names, with its unit.

use std::process::Command;

use sti_benchmark::json::{self, Value};
use sti_benchmark::spec;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert_eq!(text, spec::benchmark_json(), "regenerate with `sti-benchmark list --json`");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(file: &Value, section: &str) -> Vec<(String, String)> {
    file.get(section)
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_follows_the_driver_contract() {
    let file = benchmark_json();
    let keys: Vec<&str> = file.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let e2e = file.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    let setup =
        e2e.iter().find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")).unwrap();
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let bounds: Vec<f64> =
        e2e.iter().map(|m| m.get("bound").and_then(Value::as_f64).unwrap()).collect();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    assert_eq!(setup.get("bound").and_then(Value::as_f64), bounds.iter().copied().reduce(f64::max));
    assert!((1..=128).contains(&file.get("per_layer").and_then(Value::as_arr).unwrap().len()));
    let mut names: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| file.get(s).and_then(Value::as_arr).unwrap())
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ok_name = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "names are used once");
    for section in ["end_to_end", "per_layer"] {
        for (_, unit) in names_and_units(&file, section) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}

/// Runs the binary and returns (stdout lines, parsed last line).
fn run(args: &[&str]) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_sti-benchmark")).args(args).output().expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    (lines, last)
}

#[test]
fn a_quick_run_of_every_workload_prints_every_metric_with_its_unit() {
    let file = benchmark_json();
    let trace =
        std::env::temp_dir().join(format!("sti-benchmark-contract-{}.json", std::process::id()));
    for w in &spec::WORKLOADS {
        for (flag, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (lines, result) = run(&[
                "run",
                "--workload",
                w.name,
                "--seed",
                "3",
                "--seconds",
                "15",
                "--trace",
                flag,
                "--trace-out",
                trace.to_str().unwrap(),
                "--quick",
            ]);
            let keys: Vec<&str> =
                result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{} --trace {flag}",
                w.name
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let printed = result.get("metrics").and_then(Value::as_obj).unwrap();
            let expected = names_and_units(&file, section);
            assert_eq!(printed.len(), expected.len());
            for ((name, unit), (got, value)) in expected.iter().zip(printed) {
                assert_eq!(name, got);
                assert_eq!(value.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(value.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                assert!(
                    lines.iter().any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
                    "{name} is printed by name with its unit"
                );
            }
        }
        let text = std::fs::read_to_string(&trace).expect("the traced run wrote its trace");
        let events = json::parse(&text).expect("the trace is JSON");
        assert!(events.get("traceEvents").and_then(Value::as_arr).is_some_and(|e| e.len() > 10));
    }
    let _ = std::fs::remove_file(&trace);
}
