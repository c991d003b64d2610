//! Runs the benchmark binary at its smoke size: every workload must print
//! every metric `BENCHMARK.json` names, with `success_rate` 1, and a wrong
//! reference must fail the run.

use fastsim_serve::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["cold_sweep", "warm_rerun", "served_jobs"];

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--size",
            "smoke",
            "--trace",
            trace,
        ])
        .args(extra)
        .current_dir(&dir)
        .output()
        .unwrap()
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// The metric names a section of `BENCHMARK.json` lists.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn check_all_metrics(workload: &str, trace: &str, section: &str) {
    let out = run(workload, trace, &[]);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").unwrap();
    let names = benchmark_names(section);
    assert!(!names.is_empty());
    for name in &names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{workload}: `{name}` has no value"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{workload}: `{name}` has no unit"
        );
    }
    let Json::Obj(pairs) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        pairs.len(),
        names.len(),
        "{workload}: exactly the listed metrics"
    );
    if trace == "0" {
        let rate = metrics
            .get("success_rate")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(rate, Some(1.0), "{workload}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_all_metrics(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check_all_metrics(w, "1", "per_layer");
    }
}

#[test]
fn a_wrong_reference_fails_the_run() {
    for w in ["cold_sweep", "served_jobs"] {
        let out = run(w, "0", &["--wrong-reference"]);
        assert_eq!(out.status.code(), Some(1), "{w} must exit 1");
        let result = result_line(&out);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap() >= 1);
        let rate = result
            .get("metrics")
            .and_then(|m| m.get("success_rate"))
            .and_then(|m| m.get("value"));
        assert!(rate.and_then(Json::as_f64).unwrap() < 1.0, "{w}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
