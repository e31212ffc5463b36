//! Runs the `repro` binary on command lines it must refuse. An unknown
//! flag or experiment name is a usage error: one line on stderr and exit
//! code 2, raised before any experiment runs, so nothing reaches stdout.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_flags_and_experiments_exit_2_before_any_run() {
    for args in [
        &["fig99"][..],
        &["--quik", "fig9"],
        &["--resume"],
        &["--checkpoint-dir", "x"],
        &["--scalar-kernels"],
        &["--no-trace-cache"],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "repro {args:?} wrote to stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert_eq!(stderr.lines().count(), 1, "repro {args:?}: {stderr}");
    }
}

#[test]
fn the_table2_alias_still_runs() {
    let out = repro(&["table2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
