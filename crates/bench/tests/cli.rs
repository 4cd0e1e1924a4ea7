//! Command-line contract tests for the `repro` binary: malformed flags
//! and arguments a command does not use must fail fast with a usage
//! error before any simulation starts, and the `pipetrace` subcommand
//! and the `--flight` recording must produce exports that their own
//! validator (`repro obs-validate`) accepts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(dir: &Path, args: &[&str]) -> Output {
    repro_with_env(dir, args, &[])
}

fn repro_with_env(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
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

/// Asserts that `repro <args>` fails and that its error names `culprit`;
/// returns the error output.
fn assert_rejected(dir: &Path, args: &[&str], culprit: &str) -> String {
    assert_rejected_with_env(dir, args, &[], culprit)
}

/// [`assert_rejected`] under extra environment variables.
fn assert_rejected_with_env(
    dir: &Path,
    args: &[&str],
    env: &[(&str, &str)],
    culprit: &str,
) -> String {
    let out = repro_with_env(dir, args, env);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "repro {args:?} {env:?} must exit 1: {stderr}");
    assert!(stderr.contains(&format!("`{culprit}`")), "repro {args:?} {env:?}: {stderr}");
    stderr
}

const VALID_BENCHMARKS: &str = "compress, doduc, gcc1, ora, su2cor, tomcatv";

#[test]
fn an_unknown_pipeline_benchmark_is_rejected() {
    let dir = temp_dir("pipeline-unknown");
    let stderr = assert_rejected(&dir, &["pipeline", "nosuch"], "nosuch");
    assert!(stderr.contains(VALID_BENCHMARKS), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_mcl_only_benchmark_is_rejected() {
    let dir = temp_dir("mcl-only-unknown");
    for cmd in ["table2", "explain", "profile", "pipetrace", "all"] {
        let stderr =
            assert_rejected_with_env(&dir, &[cmd, "64"], &[("MCL_ONLY", "nosuch")], "nosuch");
        assert!(stderr.contains("MCL_ONLY") && stderr.contains(VALID_BENCHMARKS), "{stderr}");
    }
    assert!(!dir.join("BENCH_repro.json").exists(), "rejected runs must not write a report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unparseable_store_capacity_is_rejected() {
    let dir = temp_dir("store-cap");
    let env = [("MCL_STORE_CAP_BYTES", "abc")];
    let stderr = assert_rejected_with_env(&dir, &["table1", "--store", "store"], &env, "abc");
    assert!(stderr.contains("MCL_STORE_CAP_BYTES"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
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

/// Divisor 0 would run at full scale while the report said 0.
#[test]
fn a_zero_divisor_is_rejected() {
    let dir = temp_dir("divisor-zero");
    assert_rejected(&dir, &["table2", "0"], "0");
    assert!(!dir.join("BENCH_repro.json").exists(), "rejected runs must not write a report");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget whose deadline does not fit the clock is a usage error,
/// not a panic.
#[test]
fn an_unrepresentable_watchdog_is_rejected() {
    let dir = temp_dir("watchdog");
    for bad in ["inf", "1e300"] {
        let stderr = assert_rejected(&dir, &["table1", "--watchdog", bad], bad);
        assert!(stderr.contains("invalid --watchdog value"), "{stderr}");
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

/// A command-specific flag on a command that would ignore it is a
/// usage error naming the flag, and nothing runs.
#[test]
fn a_flag_the_command_does_not_read_is_rejected() {
    let dir = temp_dir("unread-flag");
    let cases: [(&[&str], &str); 13] = [
        (&["explain", "64", "--out", "zz"], "--out"),
        (&["profile", "64", "--range", "0..5"], "--range"),
        (&["profile", "64", "--baseline", "single"], "--baseline"),
        (&["mix", "64", "--obs", "d"], "--obs"),
        (&["explain", "64", "--obs", "d", "--sample-interval", "64"], "--sample-interval"),
        (&["table2", "64", "--sample-interval", "64"], "--sample-interval"),
        (&["pipetrace", "64", "--obs", "d", "--out", "zz"], "--obs"),
        (&["table1", "--check", "retire"], "--check"),
        (&["fig6", "--check", "cycle"], "--check"),
        (&["mix", "64", "--check", "retire"], "--check"),
        (&["obs-validate", "d", "--check", "retire"], "--check"),
        (&["chaos", "--check", "cycle"], "--check"),
        (&["selftest", "64", "--check", "cycle"], "--check"),
    ];
    for (args, flag) in cases {
        assert_rejected_with_env(&dir, args, &[("MCL_ONLY", "ora")], flag);
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "rejected runs must write nothing: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The check level is a run option, not part of the machine: a
/// `--check retire` run over a store that a plain run filled prints the
/// same and is served entirely from disk.
#[test]
fn a_checked_run_is_served_from_a_plain_store() {
    let dir = temp_dir("checked-store");
    let run = |extra: &[&str]| {
        let args: Vec<&str> =
            ["table2", "8", "--store", "store"].iter().chain(extra).copied().collect();
        let out = repro_with_env(&dir, &args, &[("MCL_ONLY", "compress")]);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let report = std::fs::read_to_string(dir.join("BENCH_repro.json")).unwrap();
        (out.stdout, report)
    };
    let (plain, _) = run(&[]);
    let (checked, report) = run(&["--check", "retire"]);
    assert_eq!(
        String::from_utf8_lossy(&plain),
        String::from_utf8_lossy(&checked),
        "--check retire changed the output"
    );
    for counter in ["\"disk_misses\":0", "\"disk_stores\":0"] {
        assert!(report.contains(counter), "no {counter} in the checked run's report: {report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checked profile runs single-stepped under the checker, so its
/// header and its export both name the level.
#[test]
fn a_profile_names_its_check_level() {
    let dir = temp_dir("profile-check");
    let args = ["profile", "8", "--check", "cycle", "--obs", "p"];
    let out = repro_with_env(&dir, &args, &[("MCL_ONLY", "compress")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = "Engine phase-cost profile (dual-cluster, local scheduler, check cycle)";
    assert!(stdout.starts_with(header), "{stdout}");
    let export = std::fs::read_to_string(dir.join("p/compress.hostprof.json")).unwrap();
    assert!(export.contains("\"check\":\"cycle\""), "{export}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_repeated_value_flag_is_rejected() {
    let dir = temp_dir("repeated-flag");
    assert_rejected(&dir, &["table2", "64", "--obs", "a", "--obs", "b"], "--obs");
    assert_rejected(&dir, &["table2", "64", "--jobs", "1", "--jobs=2"], "--jobs");
    assert_rejected(&dir, &["pipetrace", "64", "--range=0..5", "--range", "5..9"], "--range");
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

/// Every layer of a cold `--store` run shows up in its `--flight`
/// recording, each simulation and trace pack inside the cell that did
/// it, and the recording passes `obs-validate`.
#[test]
fn flight_records_every_layer_inside_its_cell() {
    use mcl_bench::json::Json;

    let dir = temp_dir("flight-layers");
    std::fs::create_dir_all(dir.join("exports")).unwrap();
    let args = ["table2", "8", "--flight", "exports/run.flight.json", "--store", "store"];
    let out = repro_with_env(&dir, &args, &[("MCL_ONLY", "compress")]);
    assert!(out.status.success(), "table2: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(dir.join("exports/run.flight.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    // (cat, tid, start, end) of every completed span.
    let spans: Vec<(&str, u64, f64, f64)> = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            let cat = e.get("cat").and_then(Json::as_str).unwrap();
            (cat, e.get("tid").and_then(Json::as_u64).unwrap(), ts, ts + dur)
        })
        .collect();
    let layers = [
        "workloads.build",
        "sched.prepare",
        "sched.schedule",
        "trace.pack",
        "core.simulate",
        "persist.key",
        "persist.load",
        "persist.store",
    ];
    for layer in layers {
        assert!(spans.iter().any(|s| s.0 == layer), "no {layer} span");
    }
    let cells: Vec<_> = spans.iter().filter(|s| s.0 == "cell").collect();
    for &(cat, tid, start, end) in spans.iter().filter(|s| matches!(s.0, "core.simulate" | "trace.pack")) {
        assert!(
            cells.iter().any(|c| c.1 == tid && c.2 <= start && end <= c.3),
            "{cat} span at {start} on tid {tid} lies outside every cell"
        );
    }

    let validate = repro(&dir, &["obs-validate", "exports"]);
    let stderr = String::from_utf8_lossy(&validate.stderr);
    assert!(validate.status.success(), "obs-validate: {stderr}");
    let stdout = String::from_utf8_lossy(&validate.stdout);
    assert!(stdout.contains("1 flight recording(s)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
