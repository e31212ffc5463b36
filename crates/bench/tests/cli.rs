//! Runs the `repro` binary on command lines it must refuse. An unknown
//! flag or experiment name is a usage error: one line on stderr and exit
//! code 2, raised before any experiment runs, so nothing reaches stdout.
//! An artifact it cannot write is a failed run: exit code 1.

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

#[test]
fn an_artifact_it_cannot_write_fails_the_run() {
    // A directory where the CSV file should go makes the write fail.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_unwritable_csv");
    let blocker = dir.join("table3_resources.csv");
    std::fs::create_dir_all(&blocker).expect("create the blocking directory");
    let out = repro(&["table3", "--csv", dir.to_str().expect("UTF-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&blocker.display().to_string()),
        "stderr names the path: {stderr}"
    );
}
