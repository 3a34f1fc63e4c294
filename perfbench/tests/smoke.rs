//! Smoke-sized runs of every workload, untraced and traced: each emits exactly the
//! metrics `BENCHMARK.json` declares, in order and with their units, and no chunk
//! fails or disagrees with the reference path.

use perfbench::workloads::{RunConfig, Workload};

/// Any JSON value, read through the vendored serde data model.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn declared(section: &str, key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let Json(spec) = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    spec.get_field(section)
        .and_then(serde::Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|entry| {
            entry
                .get_field(key)
                .and_then(serde::Value::as_str)
                .expect("entry has the key")
                .to_string()
        })
        .collect()
}

fn declared_metrics(section: &str) -> Vec<(String, String)> {
    declared(section, "name")
        .into_iter()
        .zip(declared(section, "unit"))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads", "name"), names);
    let end_to_end = declared_metrics("end_to_end");
    let per_layer = declared_metrics("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = RunConfig {
                trace,
                ..RunConfig::smoke(workload, 5)
            };
            let report = perfbench::run(&config).expect("the smoke run completes");
            let label = format!("{} trace={trace}", workload.name());
            assert!(report.attempted > 0, "{label}");
            assert_eq!(report.failed, 0, "{label}");
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                emitted,
                if trace { &per_layer } else { &end_to_end }.clone(),
                "{label}"
            );
            if !trace {
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{label}");
            }
            assert!(report.info.starts_with("{\"info\": {"), "{label}");
        }
    }
}
