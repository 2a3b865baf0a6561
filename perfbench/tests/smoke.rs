//! Tiny-size runs of every workload through the benchmark binary — the
//! same parent/child code path as a measured run — and a check that
//! `BENCHMARK.json` names exactly the metrics the binary prints.

use std::path::Path;
use std::process::Command;

use perisec_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::value::Value;

/// Runs the binary at tiny size; returns its exit status and parsed
/// result line.
fn run(workload: &str, trace: &str) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    (out.status.success(), result)
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value.field(name).expect("field present")
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(x) => *x,
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// The metric names and units of a result line, in order.
fn metrics(result: &Value) -> Vec<(String, String)> {
    let Value::Object(entries) = field(result, "metrics") else {
        panic!("metrics is not an object");
    };
    entries
        .iter()
        .map(|(name, metric)| {
            number(field(metric, "value"));
            let unit = field(metric, "unit").as_str().expect("unit is a string");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn expected(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

fn check_workloads(trace: &str, table: &[(&str, &str)]) {
    for workload in WORKLOADS {
        let (ok, result) = run(workload.name(), trace);
        assert!(ok, "{} exited non-zero", workload.name());
        assert!(matches!(field(&result, "correct"), Value::Bool(true)));
        assert!(number(field(&result, "attempted")) >= 1.0);
        assert_eq!(number(field(&result, "failed")), 0.0);
        assert_eq!(metrics(&result), expected(table), "{}", workload.name());
    }
}

#[test]
fn every_workload_runs_untraced_and_prints_every_end_to_end_metric() {
    check_workloads("0", &END_TO_END);
}

#[test]
fn every_workload_runs_traced_and_prints_every_per_layer_metric() {
    check_workloads("1", &PER_LAYER);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        field(&spec, key)
            .as_array()
            .expect("an array")
            .iter()
            .map(|m| {
                let name = field(m, "name").as_str().expect("name").to_owned();
                let unit = m.field("unit").ok().and_then(Value::as_str).unwrap_or("");
                (name, unit.to_owned())
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(names("end_to_end"), expected(&END_TO_END));
    assert_eq!(names("per_layer"), expected(&PER_LAYER));
}
