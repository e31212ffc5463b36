//! `flowgnn-perf`: one benchmark for FlowGNN-RS.
//!
//! ```text
//! flowgnn-perf --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!              [--spans <file>] [--raw <file>] [--smoke]
//! ```
//!
//! Runs one workload in this process, prints one `name value unit` line
//! per metric — the end-to-end metrics, or with `--trace 1` the per-layer
//! ones — and ends with a one-line JSON result. A benchmark harness passes
//! `--seconds` as the `run_seconds` of `BENCHMARK.json`: the timed passes
//! over fixed-size inputs repeat for that long. Raw per-pass values and
//! the host fingerprint go to a JSON file; a traced run also writes its
//! spans as JSON lines. The exit code is nonzero when an output check
//! fails. See `README.md` next to this crate.

mod host;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use host::{peak_rss_mb, Host};
use stats::TrialStats;
use workloads::{Opts, Report, MAX_REGIONS, WORKLOADS};

/// End-to-end metrics, printed by an untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("graphs_per_s", "graphs/s"),
    ("latency_p50_ms", "ms"),
    ("sim_latency_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run, with their units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| m.push((name.to_string(), unit));
    add("latency_p90_ms", "ms");
    add("latency_tail_ms", "ms");
    add("latency_tail_pct", "percentile");
    add("graph.generate_s", "s");
    add("graph.graphs", "count");
    add("prepare.calls", "count");
    add("prepare.self_s", "s");
    add("prepare.share", "fraction");
    add("engine.calls", "count");
    add("engine.self_s", "s");
    add("engine.share", "fraction");
    add("engine.ns_per_sim_cycle", "ns");
    for name in ["cycles", "load_cycles", "readout_cycles"] {
        add(&format!("sim.{name}"), "cycles");
    }
    for i in 0..MAX_REGIONS {
        add(&format!("sim.region_cycles.{i}"), "cycles");
    }
    for unit in ["nt", "mp"] {
        add(&format!("sim.{unit}_busy_cycles"), "cycles");
        add(&format!("sim.{unit}_stall_cycles"), "cycles");
    }
    add("sim.utilization", "fraction");
    add("sim.stall_fraction", "fraction");
    add("sim_p99_us", "us");
    add("sim_max_rate_rps", "req/s");
    add("kernels.self_s", "s");
    add("kernels.share", "fraction");
    for name in ["lookups", "hits", "misses", "evictions"] {
        add(&format!("cache.{name}"), "count");
    }
    add("cache.hit_ratio", "fraction");
    add("cache.fingerprint_s", "s");
    add("cache.self_s", "s");
    add("serve_sim.calls", "count");
    add("serve_sim.requests", "count");
    add("serve_sim.self_s", "s");
    add("serve_sim.ns_per_request", "ns");
    add("serve_sim.drops", "count");
    add("points_per_s", "points/s");
    add("replay_requests_per_s", "req/s");
    add("check.graphs", "count");
    add("check.output_mismatches", "count");
    add("check.max_rel_err", "fraction");
    add("check.cycle_mismatches", "count");
    add("failed_share", "fraction");
    add("trace.coverage", "fraction");
    add("trace.overhead", "fraction");
    m
}

/// Per-layer metrics of the live workload's serving phases, which a
/// traced run of that workload prints after [`per_layer`].
fn live_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    for phase in workloads::LIVE_PHASES {
        for name in [
            "sojourn_p50_ms",
            "sojourn_p99_ms",
            "gen_late_p50_ms",
            "gen_late_p99_ms",
            "wait_p50_ms",
            "wait_p99_ms",
            "wakeup_p50_ms",
            "service_p50_ms",
            "service_p99_ms",
        ] {
            add(format!("live.{name}.{phase}"), "ms");
        }
        add(format!("live.utilization.{phase}"), "fraction");
        add(format!("live.completed.{phase}"), "count");
        add(format!("live.dropped.{phase}"), "count");
    }
    m
}

struct Args {
    workload: String,
    opts: Opts,
    spans: Option<PathBuf>,
    raw: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30, false);
    let (mut spans, mut raw, mut smoke) = (None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds takes a whole number of at least 1")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--raw" => raw = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke,
        },
        spans,
        raw,
    })
}

/// Formats a metric value with every digit it has; a value that is not
/// finite is a bug in the benchmark, not a measurement.
fn number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

/// Where raw output goes by default: the cargo target directory.
fn default_path(args: &Args, suffix: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let trace = if args.opts.trace { "-trace" } else { "" };
    PathBuf::from(dir).join("flowgnn-perf").join(format!(
        "{}-seed{}{trace}.{suffix}",
        args.workload, args.opts.seed
    ))
}

fn write(path: &PathBuf, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn raw_json(args: &Args, host: &Host, report: &Report, printed: &[(String, f64, &str)]) -> String {
    let mut out = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"host\": {},\n  \"trials\": {{",
        args.workload,
        args.opts.seed,
        args.opts.seconds,
        args.opts.trace,
        args.opts.smoke,
        host.to_json()
    );
    for (i, (name, values)) in report.trials.iter().enumerate() {
        let s = TrialStats::of(values);
        let list: Vec<String> = values.iter().map(|v| number(name, *v)).collect();
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\"values\": [{}], \"median\": {}, \"p10\": {}, \"p90\": {}}}",
            if i == 0 { "" } else { "," },
            list.join(", "),
            number(name, s.median),
            number(name, s.p10),
            number(name, s.p90)
        );
    }
    out.push_str("\n  },\n  \"metrics\": {");
    // Metrics of the other kind, measured anyway, keep their catalogue unit.
    let catalogue: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(per_layer())
        .chain(live_layer())
        .collect();
    let unit = |name: &str| {
        catalogue
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u)
    };
    let extra = report
        .metrics
        .iter()
        .filter(|(k, _)| !printed.iter().any(|(n, _, _)| n == *k))
        .map(|(k, v)| (k.clone(), *v, unit(k)));
    for (i, (name, value, unit)) in printed.iter().cloned().chain(extra).enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { "," },
            number(&name, value)
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowgnn-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!(
        "# host nproc={} kernel_path={} target_cpu={} rustc=\"{}\"",
        host.nproc, host.kernel_path, host.target_cpu, host.rustc
    );
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.opts.seed, args.opts.seconds, args.opts.trace, args.opts.smoke
    );

    let mut report = workloads::run(&args.workload, &args.opts);
    report
        .metrics
        .insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0));
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.insert("failed_share".into(), failed_share);

    let catalogue: Vec<(String, &str)> = if args.opts.trace {
        let mut c = per_layer();
        if args.workload == workloads::LIVE {
            c.extend(live_layer());
        }
        c
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let printed: Vec<(String, f64, &str)> = catalogue
        .into_iter()
        .map(|(name, unit)| {
            // A per-layer metric a workload never exercises reads 0; an
            // end-to-end metric every workload must measure.
            let value = report.metrics.get(&name).copied();
            let value = if args.opts.trace {
                value.unwrap_or(0.0)
            } else {
                value.unwrap_or_else(|| panic!("{} did not measure {name}", args.workload))
            };
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &printed {
        println!("{name} {} {unit}", number(name, *value));
    }

    let raw = args
        .raw
        .clone()
        .unwrap_or_else(|| default_path(&args, "json"));
    if let Err(e) = write(&raw, &raw_json(&args, &host, &report, &printed)) {
        eprintln!("flowgnn-perf: writing {}: {e}", raw.display());
    }
    if args.opts.trace {
        let spans = args
            .spans
            .clone()
            .unwrap_or_else(|| default_path(&args, "spans.jsonl"));
        if let Err(e) = write(&spans, &report.tracer.to_jsonl()) {
            eprintln!("flowgnn-perf: writing {}: {e}", spans.display());
        }
    }

    let metrics: Vec<String> = printed
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(name, *value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.mismatches == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if report.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("flowgnn-perf: {} output check(s) failed", report.mismatches);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "hep_gcn_timing",
            "--seed",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.opts.seed, 7);
        assert!(a.opts.trace);
        assert_eq!(a.opts.seconds, 30);
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "hep_gcn_timing"]).is_err());
        assert!(parse(&[
            "--workload",
            "hep_gcn_timing",
            "--seed",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "hep_gcn_timing",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        names.extend(live_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 16 + 128);
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
