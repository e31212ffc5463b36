//! `repro` — regenerate every table and figure of the FlowGNN paper.
//!
//! Usage:
//!
//! ```text
//! repro [experiment ...] [--quick|--full] [--csv DIR] [--jobs N] [--filter S]
//!       [--no-trace-cache] [--scalar-kernels] [--list]
//!       [--resume] [--checkpoint-dir DIR] [--abort-after-points N] [--metrics]
//!
//! experiments: see `repro --list` (default: all)
//! --quick      tiny samples (seconds, for smoke tests)
//! --full       paper-scale samples (all graphs; slow)
//! --csv DIR    additionally write each table as DIR/<name>.csv
//! --jobs N     worker threads for the parallel sweeps (default: all cores)
//! --filter S   run only experiments whose name contains the substring S
//! --list       print the experiment names, one per line, and exit
//! --no-trace-cache   disable the service-trace cache in the serve/scale
//!                    sweeps (output is byte-identical either way; CI
//!                    `cmp`s the two to pin that)
//! --scalar-kernels   run `dot` left to right and `Linear` as a column
//!                    walk (the reference kernel bodies) instead of the
//!                    default ones (timing tables are byte-identical
//!                    either way; functional values agree within the
//!                    differential-test tolerance; `throughput` sets each
//!                    row's kernel path itself and ignores it)
//! --resume             read checkpoint sidecars back and skip grid points a
//!                      previous interrupted run already computed; resumed
//!                      output is byte-identical to an uninterrupted run
//! --checkpoint-dir DIR where sweeps journal completed grid points
//!                      (default: .flowgnn-checkpoints; implies checkpointing)
//! --abort-after-points N  exit with code 3 after N freshly computed grid
//!                      points (CI uses this to kill a sweep mid-flight and
//!                      exercise --resume deterministically)
//! --metrics            attach a metrics registry to the serving runs and
//!                      print the Prometheus text exposition after the run
//!                      (observation-only: tables and CSVs are unchanged)
//! ```

use std::path::PathBuf;

use flowgnn_core::{render_prometheus, Registry, ServeMetrics};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sample = SampleSize::Standard;
    let mut full = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut filter: Option<String> = None;
    let mut trace_cache = true;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut abort_after: Option<usize> = None;
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
                None => {
                    eprintln!("--csv needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--jobs" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => flowgnn_bench::par::set_jobs(n),
                _ => {
                    eprintln!("--jobs needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--filter" => match iter.next() {
                Some(s) => filter = Some(s.clone()),
                None => {
                    eprintln!("--filter needs a substring argument");
                    std::process::exit(2);
                }
            },
            "--no-trace-cache" => trace_cache = false,
            "--scalar-kernels" => flowgnn_tensor::simd::set_scalar_kernels(true),
            "--resume" => resume = true,
            "--checkpoint-dir" => match iter.next() {
                Some(dir) => checkpoint_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--checkpoint-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--abort-after-points" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => abort_after = Some(n),
                _ => {
                    eprintln!("--abort-after-points needs a positive integer argument");
                    std::process::exit(2);
                }
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
                     \x20            [--filter S] [--no-trace-cache] [--scalar-kernels] [--list]\n\
                     \x20            [--resume] [--checkpoint-dir DIR] [--abort-after-points N]\n\
                     \x20            [--metrics]\n\
                     \n\
                     experiments (default: all):"
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
                     --no-trace-cache        disable the service-trace cache (output identical)\n\
                     --scalar-kernels        reference dot and Linear loops (tables identical)\n\
                     --resume                skip grid points an interrupted run checkpointed\n\
                     --checkpoint-dir DIR    sidecar directory (default .flowgnn-checkpoints)\n\
                     --abort-after-points N  exit(3) after N fresh grid points (for CI)\n\
                     --metrics               print Prometheus exposition after serving runs"
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if resume || checkpoint_dir.is_some() || abort_after.is_some() {
        let dir = checkpoint_dir.unwrap_or_else(|| PathBuf::from(".flowgnn-checkpoints"));
        flowgnn_bench::checkpoint::configure(dir, resume);
        if let Some(n) = abort_after {
            flowgnn_bench::checkpoint::abort_after_points(n);
        }
    }
    // The registry outlives every experiment; serving runs observe into
    // it and the exposition prints once at the end. Observation-only: no
    // table or CSV byte depends on it.
    let registry = Registry::new();
    let serve_metrics = metrics.then(|| ServeMetrics::new(&registry));
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(f) = &filter {
        wanted.retain(|w| w.contains(f.as_str()));
        if wanted.is_empty() {
            eprintln!("--filter {f} matches no experiments (see --help)");
            std::process::exit(2);
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Run header: every table/CSV row below is produced on this kernel
    // path. Timing tables are value-independent, so the CSVs themselves
    // stay byte-identical across paths.
    println!(
        "repro: compute kernels = {}\n",
        flowgnn_tensor::simd::kernel_path()
    );
    let emit = |name: &str, table: &TextTable, note: Option<String>| {
        println!("{table}");
        if let Some(note) = note {
            println!("{note}\n");
        }
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
            }
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
                let study = experiments::serve_tail_latency_with(sample, trace_cache);
                emit(
                    "serve_tail_latency",
                    &study.table(),
                    Some(study.sustainable_note()),
                );
                if let Some(dir) = &csv_dir {
                    let path = dir.join("BENCH_serve_tail_latency.json");
                    if let Err(e) = std::fs::write(&path, study.to_json()) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
            }
            "scale" => {
                let study = experiments::scale_out_with(sample, trace_cache);
                emit("scale_out", &study.table(), Some(study.sustainable_note()));
                if let Some(dir) = &csv_dir {
                    let path = dir.join("BENCH_scale_out.json");
                    if let Err(e) = std::fs::write(&path, study.to_json()) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
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
                    let path = dir.join("BENCH_fleet_serving.json");
                    if let Err(e) = std::fs::write(&path, study.to_json()) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
            }
            "live" => {
                // Wall-clock rows vary run to run, so no CSV: the table
                // prints, the structural gate runs, and the JSON perf
                // artifact (never byte-compared) lands next to the other
                // BENCH files when --csv is given.
                let study = experiments::live_serving_with(sample, serve_metrics.as_ref());
                println!("{}", study.table());
                println!("{}\n", study.summary_note());
                if let Err(e) = study.validate() {
                    eprintln!("live serving sanity gate failed: {e}");
                    std::process::exit(1);
                }
                if let Some(dir) = &csv_dir {
                    let path = dir.join("BENCH_live_serving.json");
                    if let Err(e) = std::fs::write(&path, study.to_json()) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
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
                    let path = dir.join("BENCH_sim_throughput.json");
                    if let Err(e) = std::fs::write(&path, report.to_json()) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
            }
            other => eprintln!("unknown experiment: {other} (see --help)"),
        }
    }

    if metrics {
        println!("# repro metrics (Prometheus text exposition)");
        print!("{}", render_prometheus(&registry));
    }
}
