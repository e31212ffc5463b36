//! `repro` — regenerate every table and figure of the FlowGNN paper.
//!
//! Usage:
//!
//! ```text
//! repro [experiment ...] [--quick|--full] [--csv DIR] [--jobs N] [--filter S]
//!       [--list] [--metrics]
//!
//! experiments: see `repro --list` (default: all; `table2` is an alias of
//!              `table1`)
//! --quick      tiny samples (seconds, for smoke tests)
//! --full       paper-scale samples (all graphs; slow)
//! --csv DIR    additionally write each table as DIR/<name>.csv
//! --jobs N     worker threads for the parallel sweeps (default: all cores)
//! --filter S   run only experiments whose name contains the substring S
//! --list       print the experiment names, one per line, and exit
//! --metrics    attach a metrics registry to the live serving runs and
//!              print the Prometheus text exposition (serving and engine
//!              families) after the run (observation-only: tables and
//!              CSVs are unchanged)
//! ```
//!
//! An unknown flag or experiment name is a usage error: `repro` prints one
//! line to stderr and exits 2 before any experiment runs. A `--csv`
//! directory it cannot create or an artifact it cannot write there exits 1.

use std::path::{Path, PathBuf};

use flowgnn_core::{render_prometheus, Registry};

use flowgnn_bench::{experiments, throughput, SampleSize, TextTable};
use flowgnn_graph::datasets::DatasetKind;

const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table7",
    "table8",
    "queues",
    "utilization",
    "banking",
    "scorecard",
    "serve",
    "scale",
    "fleet",
    "live",
    "throughput",
];

/// Writes `contents` to `dir/file`, or reports the failure on stderr and
/// exits 1: a run that could not save an artifact did not produce it.
fn write_artifact(dir: &Path, file: &str, contents: String) {
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Reports a bad command line on one stderr line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg} (see --help)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sample = SampleSize::Standard;
    let mut full = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut filter: Option<String> = None;
    let mut metrics = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => sample = SampleSize::Quick,
            "--full" => {
                sample = SampleSize::Full;
                full = true;
            }
            "--csv" => match iter.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => usage_error("--csv needs a directory argument"),
            },
            "--jobs" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => flowgnn_bench::par::set_jobs(n),
                _ => usage_error("--jobs needs a positive integer argument"),
            },
            "--filter" => match iter.next() {
                Some(s) => filter = Some(s.clone()),
                None => usage_error("--filter needs a substring argument"),
            },
            "--metrics" => metrics = true,
            "--list" => {
                for name in ALL_EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [experiment|all ...] [--quick|--full] [--csv DIR] [--jobs N]\n\
                     \x20            [--filter S] [--list] [--metrics]\n\
                     \n\
                     experiments (default: all; table2 is an alias of table1):"
                );
                for chunk in ALL_EXPERIMENTS.chunks(7) {
                    eprintln!("  {}", chunk.join(" "));
                }
                eprintln!(
                    "\n\
                     --quick / --full        sample size: smoke-test vs paper-scale\n\
                     --csv DIR               also write each table as DIR/<name>.csv\n\
                     --jobs N                worker threads for the parallel sweeps\n\
                     --filter S              run only experiments containing the substring S\n\
                     --list                  print the experiment names, one per line, and exit\n\
                     --metrics               print Prometheus exposition after live serving"
                );
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            name => wanted.push(name.to_string()),
        }
    }
    if let Some(name) = wanted
        .iter()
        .find(|w| !matches!(w.as_str(), "all" | "table2") && !ALL_EXPERIMENTS.contains(&w.as_str()))
    {
        usage_error(&format!("unknown experiment {name}"));
    }
    // The registry outlives every experiment; the live serving runs
    // observe into it and the exposition prints once at the end.
    // Observation-only: no table or CSV byte depends on it.
    let registry = metrics.then(Registry::new);
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(f) = &filter {
        wanted.retain(|w| w.contains(f.as_str()));
        if wanted.is_empty() {
            usage_error(&format!("--filter {f} matches no experiments"));
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let emit = |name: &str, table: &TextTable, note: Option<String>| {
        println!("{table}");
        if let Some(note) = note {
            println!("{note}\n");
        }
        if let Some(dir) = &csv_dir {
            write_artifact(dir, &format!("{name}.csv"), table.to_csv());
        }
    };

    for w in &wanted {
        match w.as_str() {
            "table1" | "table2" => emit("table1_coverage", &experiments::coverage().table(), None),
            "table3" => emit("table3_resources", &experiments::table3().table(), None),
            "table4" => emit(
                "table4_datasets",
                &experiments::table4(sample).table(),
                None,
            ),
            "table5" => {
                let t = experiments::table5(sample);
                emit(
                    "table5_hep_latency",
                    &t.table(),
                    Some(format!("(averaged over {} HEP graphs)", t.graphs)),
                );
            }
            "table6" => emit("table6_energy", &experiments::table6(sample).table(), None),
            "fig6" => emit(
                "fig6_virtual_node",
                &experiments::fig6(sample).table(),
                None,
            ),
            "fig7" => {
                emit(
                    "fig7_molhiv",
                    &experiments::fig7(DatasetKind::MolHiv, sample).table(),
                    None,
                );
                emit(
                    "fig7_molpcba",
                    &experiments::fig7(DatasetKind::MolPcba, sample).table(),
                    None,
                );
            }
            "fig8" => {
                emit(
                    "fig8_cora",
                    &experiments::fig8(DatasetKind::Cora).table(),
                    None,
                );
                emit(
                    "fig8_citeseer",
                    &experiments::fig8(DatasetKind::CiteSeer).table(),
                    None,
                );
            }
            "fig9" => emit("fig9_ablation", &experiments::fig9(sample).table(), None),
            "fig10" => {
                let f = experiments::fig10(sample);
                let best = f.best();
                emit(
                    "fig10_dse",
                    &f.table(),
                    Some(format!(
                        "best: P_node={} P_edge={} P_apply={} P_scatter={} at {:.2}x",
                        best.p_node, best.p_edge, best.p_apply, best.p_scatter, best.speedup
                    )),
                );
            }
            "table7" => emit(
                "table7_imbalance",
                &experiments::table7(sample).table(),
                None,
            ),
            "table8" => {
                let t = experiments::table8(full);
                let note = (!t.full_scale).then(|| {
                    "(Reddit at default preset scale; pass --full for 114.6M edges)".into()
                });
                emit("table8_gcn_accelerators", &t.table(), note);
            }
            "queues" => {
                let sweep = experiments::queue_sweep(sample);
                let knee = sweep.knee();
                emit(
                    "ext_queue_sweep",
                    &sweep.table(),
                    Some(format!("(bursty-config knee at capacity {knee})")),
                );
            }
            "utilization" => emit(
                "ext_utilization",
                &experiments::utilization_ladder(sample).table(),
                None,
            ),
            "banking" => emit(
                "ext_gather_banking",
                &experiments::gather_banking(sample).table(),
                None,
            ),
            "scorecard" => emit("scorecard", &experiments::scorecard(sample).table(), None),
            "serve" => {
                let study = experiments::serve_tail_latency(sample);
                emit(
                    "serve_tail_latency",
                    &study.table(),
                    Some(study.sustainable_note()),
                );
                if let Some(dir) = &csv_dir {
                    write_artifact(dir, "BENCH_serve_tail_latency.json", study.to_json());
                }
            }
            "scale" => {
                let study = experiments::scale_out(sample);
                emit("scale_out", &study.table(), Some(study.sustainable_note()));
                if let Some(dir) = &csv_dir {
                    write_artifact(dir, "BENCH_scale_out.json", study.to_json());
                }
            }
            "fleet" => {
                let study = experiments::fleet_serving(sample);
                emit("fleet_serving", &study.table(), Some(study.summary_note()));
                if let Err(e) = study.validate() {
                    eprintln!("fleet serving semantic gate failed: {e}");
                    std::process::exit(1);
                }
                if let Some(dir) = &csv_dir {
                    write_artifact(dir, "BENCH_fleet_serving.json", study.to_json());
                }
            }
            "live" => {
                // Wall-clock rows vary run to run, so no CSV: the table
                // prints, the structural gate runs, and the JSON perf
                // artifact (never byte-compared) lands next to the other
                // BENCH files when --csv is given.
                let study = experiments::live_serving_with(sample, registry.as_ref());
                println!("{}", study.table());
                println!("{}\n", study.summary_note());
                if let Err(e) = study.validate() {
                    eprintln!("live serving sanity gate failed: {e}");
                    std::process::exit(1);
                }
                if let Some(dir) = &csv_dir {
                    write_artifact(dir, "BENCH_live_serving.json", study.to_json());
                }
            }
            "throughput" => {
                let report = throughput::measure(sample);
                print!("{}", report.table());
                println!();
                if let Err(e) = report.validate() {
                    eprintln!("sim throughput cycle gate failed: {e}");
                    std::process::exit(1);
                }
                if let Some(dir) = &csv_dir {
                    write_artifact(dir, "BENCH_sim_throughput.json", report.to_json());
                }
            }
            other => unreachable!("experiment {other} was checked before the runs"),
        }
    }

    if let Some(registry) = &registry {
        println!("# repro metrics (Prometheus text exposition)");
        print!("{}", render_prometheus(registry));
    }
}
