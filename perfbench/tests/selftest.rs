//! Self-test of the benchmark: a short smoke run of every workload in both
//! modes, checked against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use press_telem::Json;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn spec() -> Json {
    let text = std::fs::read_to_string(SPEC).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("missing key {key}"))
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(spec: &Json, key: &str) -> BTreeMap<String, String> {
    field(spec, key)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its parsed last stdout line.
fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("spawn perfbench");
    assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let workloads = field(&spec, "workloads").as_array().expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = field(w, "name").as_str().expect("workload name");
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let r = run(name, 7, trace);
            assert!(
                matches!(field(&r, "correct"), Json::Bool(true)),
                "{name}: incorrect"
            );
            assert!(field(&r, "attempted").as_f64().expect("attempted") >= 1.0);
            assert_eq!(field(&r, "failed").as_f64(), Some(0.0), "{name}: failures");
            let metrics = field(&r, "metrics").as_object().expect("metrics");
            let expected = listed(&spec, key);
            let printed: Vec<&String> = metrics.keys().collect();
            let wanted: Vec<&String> = expected.keys().collect();
            assert_eq!(printed, wanted, "{name} trace {trace}: metric names");
            for (metric, unit) in &expected {
                let m = &metrics[metric];
                assert_eq!(field(m, "unit").as_str(), Some(unit.as_str()), "{metric}");
                let v = field(m, "value").as_f64().expect("numeric value");
                assert!(v.is_finite() && v >= 0.0, "{name}: {metric} = {v}");
            }
            if trace == 1 {
                assert_eq!(field(&metrics["fail_ratio"], "value").as_f64(), Some(0.0));
            } else {
                for metric in expected.keys() {
                    let v = field(&metrics[metric], "value").as_f64();
                    assert!(v > Some(0.0), "{name}: end-to-end {metric} must not be 0");
                }
            }
        }
    }
}

#[test]
fn simulator_message_counts_repeat_exactly() {
    let counts = |r: &Json| -> Vec<(String, f64)> {
        field(r, "metrics")
            .as_object()
            .expect("metrics")
            .iter()
            .filter(|(k, _)| k.starts_with("net."))
            .map(|(k, v)| (k.clone(), field(v, "value").as_f64().expect("value")))
            .collect()
    };
    let a = counts(&run("sim-paper", 3, 1));
    assert_eq!(a.len(), 7);
    assert!(a.iter().any(|(_, v)| *v > 0.0));
    assert_eq!(a, counts(&run("sim-paper", 3, 1)));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "sim-paper",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "sim-paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(BIN)
            .args(&args)
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
