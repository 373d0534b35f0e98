//! Smoke mode of every workload, untraced and traced: a 2k-chip fleet and
//! a one-second budget, with every correctness check of the full run.
//! Each result line must be well formed, pass its checks with nothing
//! failed, and report exactly the metrics `BENCHMARK.json` declares for
//! its mode (`end_to_end` untraced, `per_layer` traced), in their declared
//! units.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use selfheal_telemetry::{json, Json};

const WORKLOADS: [&str; 3] = ["storm_mixed", "restart", "paper"];

/// Declared metric name → unit, for `end_to_end` or `per_layer`.
fn declared(spec: &Json, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "2014", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}:\n{stderr}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}:\n{stderr}"
    );
    assert!(result
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    result
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_declared_metric() {
    let spec_text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&spec_text).expect("BENCHMARK.json parses");
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let declared = declared(&spec, section);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: metrics is not an object");
            };
            for (name, metric) in metrics {
                let unit = metric.get("unit").and_then(Json::as_str);
                assert_eq!(
                    unit,
                    declared.get(name).map(String::as_str),
                    "{workload} reports {name}, not declared in {section} with that unit"
                );
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
            let missing: Vec<_> = declared
                .keys()
                .filter(|n| !metrics.contains_key(*n))
                .collect();
            assert!(
                missing.is_empty(),
                "{workload} trace={trace} does not report {missing:?} of {section}"
            );
        }
    }
}
