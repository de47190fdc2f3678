//! Smoke test: every workload at a tiny size, untraced and traced. Each run
//! must pass its oracle and print every metric `BENCHMARK.json` names,
//! with its unit.

use std::process::Command;

/// Names listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = spec.find(&format!("\"{key}\"")).expect("section present");
    let section = &spec[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hsqbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env_remove("HSQ_SKETCH")
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, key: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    let names = declared(key);
    assert!(!names.is_empty());
    for name in names {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing in {line}"));
        let rest = &line[at + entry.len()..];
        let value: f64 = rest
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let unit = rest
            .split("\"unit\": \"")
            .nth(1)
            .map(|u| u.split('"').next().unwrap());
        assert!(
            unit.is_some_and(|u| !u.is_empty()),
            "{workload}: {name} has no unit"
        );
    }
}

#[test]
fn workloads_emit_every_metric_and_pass_the_oracle() {
    for w in ["ingest_archive", "dashboard_query", "served_fleet"] {
        check(w, false, "end_to_end");
        check(w, true, "per_layer");
    }
}

#[test]
fn refuses_hsq_environment() {
    let out = Command::new(env!("CARGO_BIN_EXE_hsqbench"))
        .args([
            "--workload",
            "ingest_archive",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--tiny",
        ])
        .env("HSQ_SKETCH", "kll")
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line when refusing");
}
