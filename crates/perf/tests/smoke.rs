//! Runs every workload at smoke size, untraced and traced, and checks that
//! each metric `BENCHMARK.json` names is printed with its unit and that
//! the result line is well formed — so the file and the binary cannot
//! drift apart. The live workload, which the binary runs but the file does
//! not gate, is held to the same metrics.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string value of `"key": "..."` in `text`.
fn field(text: &str, key: &str) -> String {
    let at = text
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    let rest = &text[at + key.len() + 3..];
    let open = rest.find('"').expect("string value") + 1;
    let close = rest[open..].find('"').expect("closing quote") + open;
    rest[open..close].to_string()
}

/// The objects of one top-level array of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} section"));
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end].split('{').skip(1).map(str::to_string).collect()
}

fn run(workload: &str, trace: &str) -> (String, bool) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_flowgnn-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--trace",
            trace,
        ])
        .arg("--raw")
        .arg(dir.join(format!("{workload}-{trace}.json")))
        .arg("--spans")
        .arg(dir.join(format!("{workload}-{trace}.spans.jsonl")))
        .output()
        .expect("benchmark binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 output"),
        out.status.success(),
    )
}

/// The workload the binary runs but `BENCHMARK.json` does not list.
const UNGATED: &str = "molpcba_gcn_live";

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let json = benchmark_json();
    let mut workloads: Vec<String> = section(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads.len(), 3);
    assert!(!workloads.iter().any(|w| w == UNGATED));
    workloads.push(UNGATED.to_string());
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = section(&json, key);
        assert!(!metrics.is_empty(), "{key} is empty");
        for workload in &workloads {
            let (stdout, ok) = run(workload, trace);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let lines: Vec<&str> = stdout.lines().collect();
            for m in &metrics {
                let (name, unit) = (field(m, "name"), field(m, "unit"));
                let printed = lines.iter().any(|l| {
                    let parts: Vec<&str> = l.split_whitespace().collect();
                    parts.len() == 3
                        && parts[0] == name
                        && parts[1].parse::<f64>().is_ok()
                        && parts[2] == unit
                });
                assert!(
                    printed,
                    "{workload} --trace {trace}: `{name} <value> {unit}` missing"
                );
            }
            let last = lines.last().expect("output");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": ") && last.contains("\"metrics\": {"));
            for m in &metrics {
                assert!(last.contains(&format!("\"{}\": {{\"value\": ", field(m, "name"))));
            }
            if workload != UNGATED {
                // A gated run's result holds exactly the listed metrics.
                let reported = last.matches("{\"value\": ").count();
                assert_eq!(
                    reported,
                    metrics.len(),
                    "{workload} --trace {trace}: {last}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "hep_gcn_timing"][..],
        &[
            "--workload",
            "hep_gcn_timing",
            "--seed",
            "1",
            "--trace",
            "yes",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_flowgnn-perf"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
