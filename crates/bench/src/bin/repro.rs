//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1                 Table 1 (issue rules & latencies)
//! repro table2 [divisor]      Table 2 (speedups; optional scale divisor)
//! repro scenarios              Figures 2–5 (dual-execution timelines)
//! repro fig6                   Figure 6 (local-scheduler walkthrough)
//! repro crossover [divisor]   cycle-time crossover analysis (§4.2/§5)
//! repro ablate-buffers         A1: transfer-buffer sweep
//! repro ablate-threshold       A2: imbalance-threshold sweep
//! repro ablate-dq              A3: dispatch-queue sweep (compress anomaly)
//! repro ablate-globals         A4: global-register designation on/off
//! repro ablate-width           A5: 4-way configurations
//! repro ablate-unroll          A6: loop unrolling (§6 future work)
//! repro mix                    workload behavioural profiles
//! repro schedulers             B1: partitioning-strategy comparison
//! repro pipeline <bench>       per-instruction pipeline diagram
//! repro selftest [divisor]    differential + fault-injection self-checks
//! repro explain [divisor]     critical-path cycle-loss attribution
//! repro pipetrace [divisor]   per-instruction lifecycle trace (Konata + JSON)
//! repro profile [divisor]     engine phase-cost host profile (ns/cycle)
//! repro chaos                  fault-injection chaos campaign
//! repro all [divisor]         every table, figure and ablation above
//! repro obs-validate <dir>     validate a directory of exports
//! ```
//!
//! Every subcommand (except `pipeline`) expands into independent
//! experiment cells executed by the parallel runner; `--jobs N` (or
//! `--jobs=N`) sets the worker count, defaulting to the machine's
//! available parallelism. Results are collected in cell order before
//! anything is printed, so the output is byte-identical for every job
//! count. Each run also writes `BENCH_repro.json` with per-cell wall
//! time, simulated cycles, throughput, and completion status. The
//! per-cell wall clock and the run's total are the report's only host
//! timers; `--flight` splits host time into the benchmark's layers.
//!
//! Arguments a command does not use are errors: an unknown `--flag`, a
//! flag given twice, a second positional argument, a divisor that is
//! not a positive `u32`, or one of `--obs`, `--sample-interval`,
//! `--baseline`, `--range`, `--out` and `--check` on a command that
//! would ignore it. So is an unknown benchmark name, in `repro pipeline
//! NAME` or in `MCL_ONLY` (which restricts `table2`, `explain`, `profile`,
//! `pipetrace` and `all` to one benchmark).
//!
//! Robustness flags:
//!
//! - `--keep-going` — cells are already panic-isolated; additionally
//!   render every section whose cells all succeeded instead of rendering
//!   nothing when something failed. The exit code is still nonzero.
//! - `--check LEVEL` — run every simulation with the architectural
//!   invariant checker at `off`, `retire`, or `cycle` level
//!   (see `mcl_core::check`). Results served by `--store` are not
//!   re-checked. Commands it cannot reach reject it.
//! - `--watchdog SECS` — a positive budget whose deadline is
//!   representable (so not `inf`). Each cell's simulations run under a
//!   hard cooperative deadline: a cell whose simulation exceeds the
//!   budget is cancelled with a structured timeout error and the run
//!   exits nonzero. Cells that overrun the budget *outside* the simulator
//!   (trace building, rendering) still complete, are marked
//!   `watchdog_exceeded` in `BENCH_repro.json`, and also fail the run's
//!   exit code. For `repro chaos` the value overrides the per-attempt
//!   campaign budget (default 30 s).
//! - `--store DIR` — a crash-safe persistent result store: simulation
//!   results are cached on disk keyed by the packed trace's content
//!   digest and the configuration, so a warm rerun serves
//!   byte-identical statistics without simulating. Entries are written
//!   atomically, checksummed on read, and corrupt entries are
//!   quarantined and transparently recomputed; the store is bounded
//!   (LRU, `MCL_STORE_CAP_BYTES`, default 256 MiB) and safe for
//!   concurrent `repro` processes. A request tier keyed by the running
//!   binary maps each trace request to its trace's content digest, so
//!   a warm rerun by the same binary builds no trace either. Disk
//!   counters land in `BENCH_repro.json`.
//!
//! Observability flags (see `mcl_bench::obs`):
//!
//! - `--obs OUT_DIR` — for every Table 2, ablation, and scenario cell,
//!   run an instrumented companion simulation and export
//!   `<stem>.series.json` (interval time series + latency histograms)
//!   and `<stem>.trace.json` (Chrome trace events, Perfetto-loadable)
//!   into `OUT_DIR`. The cell's reported statistics still come from the
//!   uninstrumented run, and the two are cross-checked for byte
//!   identity. Ablation cells export their family-representative
//!   configuration under `ablate-<family>-<bench>`; scenario cells
//!   export under `scenario<N>`.
//! - `--sample-interval N` — sampling interval in cycles for `--obs`
//!   (default 1024); an error without `--obs`.
//!
//! Explain flags (see `mcl_bench::explain`):
//!
//! - `repro explain [divisor]` — for every benchmark, rerun the
//!   dual-cluster/local Table 2 cell with the critical-path attribution
//!   probe, write `<bench>.critpath.json` (into `--obs OUT_DIR`, or
//!   `critpath_out` by default), and print the per-cause cycle
//!   breakdown. The attribution identity (causes sum exactly to total
//!   cycles) is enforced on every cell.
//! - `--baseline single|dual-none` — differential mode: also attribute
//!   the named Table 2 reference cell and report the per-cause share of
//!   the slowdown against it.
//!
//! Pipetrace flags (see `mcl_bench::pipetrace`):
//!
//! - `repro pipetrace [divisor]` — for every benchmark (or just
//!   `MCL_ONLY`), rerun the dual-cluster/local Table 2 cell with the
//!   per-instruction lifecycle probe and write two artifacts into
//!   `--out DIR` (default `pipetrace_out`): `<bench>.konata`, a
//!   Konata/O3-pipeview-compatible text trace (fetch/dispatch/execute/
//!   complete stages, retire and flush records, inter-cluster
//!   dependency arrows), and `<bench>.pipetrace.json`, the
//!   machine-readable lifecycle list plus the inter-cluster dataflow
//!   edge list (producer → consumer, delivery cycle, crossed buffer,
//!   occupancy at send). The retire-exactness identity (every retired
//!   op exactly once, monotone lifecycle, well-formed edges, count
//!   equal to the simulator's retirements) is enforced on every cell.
//! - `--range A..B` — restrict the recorded ops to retired sequence
//!   numbers in `[A, B)`; `A..` and `..B` are accepted. Default: the
//!   full run.
//! - `--out DIR` — the export directory (`--obs OUT_DIR` is accepted
//!   instead, for symmetry with `explain` / `profile`; not both).
//! - `--baseline single|dual-none` — differential mode: also trace the
//!   named Table 2 reference cell and report per-op slip (the change in
//!   each aligned op's retire-to-retire gap), ranked by contribution;
//!   the slips telescope exactly to the total retire-cycle drift.
//!
//! Profiling flags (see `mcl_bench::profile` and `mcl_bench::flight`):
//!
//! - `repro profile [divisor]` — for every benchmark, rerun the
//!   dual-cluster/local Table 2 cell with the host phase profiler, write `<bench>.hostprof.json` (into `--obs
//!   OUT_DIR`, or `hostprof_out` by default), and print the ranked
//!   host-ns-per-live-cycle phase breakdown. The sum-to-elapsed
//!   identity (phase nanoseconds telescope to the sampled span, within
//!   a stated slop of the cell's wall time) is enforced on every cell.
//! - `--flight FILE` — record a whole-run host flight recording: one
//!   Chrome trace-event file written to `FILE` after the run, with a
//!   `cell` span per cell on the worker that ran it and, inside the
//!   cells, one span per unit of real work in a category named after
//!   the benchmark's layer: `workloads.build`, `sched.prepare`,
//!   `sched.schedule`, `trace.pack` (which takes each trace's content
//!   digest), `core.simulate`, `persist.key` (only the executable
//!   fingerprint), `persist.load` and `persist.store`. Store hits
//!   record no span.
//!   This is the only layer split of host time `repro` makes. Recording
//!   off is one relaxed atomic load per site, and the recording never
//!   alters results — `repro` output is byte-identical with the flag
//!   on or off.

use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcl_bench::explain::{self, Baseline};
use mcl_bench::obs::{self, ObsSettings, ObsTarget};
use mcl_bench::runner::{self, Cell, CellCost, CellStatus, RunInfo};
use mcl_bench::{
    ablate, crossover, figure6, pipetrace, profile, scenarios, selftest, table1, table2,
    Table2Row, TraceRequest, TraceStore,
};
use mcl_core::check::CheckLevel;
use mcl_core::ProcessorConfig;
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

/// Pins glibc's mmap threshold at its 128 KiB default. glibc otherwise
/// raises the threshold to the size of each mmapped block it frees, so
/// once the store has released a benchmark's traces, the next traces
/// (megabytes each at full scale) come from the heap, where the freed
/// ones linger as holes: a full-scale `repro all --jobs 2` then peaks
/// at 78–102 MB instead of 76–82 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator tunable, and no other
    // thread exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let cli = match parse_cli(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.options.flight.is_some() {
        // Turn the recorder on before any cell, trace build, or store
        // access so the recording covers the whole invocation.
        mcl_bench::flight::enable();
    }
    let Cli { cmd, arg, divisor, jobs, baseline, range, out_dir, store_dir, mut options, .. } =
        cli;

    if cmd == "pipeline" {
        let name = arg.as_deref().unwrap_or("compress");
        let run = benchmark_named(name, "pipeline")
            .and_then(|bench| run_pipeline(bench, options.check).map_err(|e| e.to_string()));
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "chaos" {
        let budget =
            options.watchdog_seconds.unwrap_or(mcl_bench::chaos::DEFAULT_WATCHDOG_SECONDS);
        let report = mcl_bench::chaos::run(jobs, budget);
        print!("{}", mcl_bench::chaos::render(&report));
        return if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if cmd == "obs-validate" {
        let Some(dir) = arg else {
            eprintln!("error: obs-validate requires a directory");
            return ExitCode::FAILURE;
        };
        return match obs::validate_dir(std::path::Path::new(&dir)) {
            Ok(summary) => {
                println!("obs-validate {dir}: {summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `MCL_ONLY` restricts the per-benchmark commands to one benchmark.
    let only = if matches!(cmd.as_str(), "table2" | "explain" | "profile" | "pipetrace" | "all") {
        match mcl_only() {
            Ok(only) => only,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // One trace store shared by every cell: distinct traces build once
    // and are reused across experiments (and across workers under
    // `--jobs N`). With `--store DIR`, simulation results are
    // additionally cached on disk across processes.
    let mut store = TraceStore::new().with_check(options.check);
    if let Some(dir) = store_dir {
        match mcl_bench::PersistStore::open(std::path::Path::new(&dir)) {
            Ok(persist) => store = store.with_persist(Arc::new(persist)),
            Err(e) => {
                eprintln!("error: --store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let store = Arc::new(store);
    // Where `explain`, `profile` and `pipetrace` export without `--out`.
    let obs_dir = options.obs.as_ref().map(|s| s.dir.clone());
    let mut plan = Plan::default();
    match cmd.as_str() {
        "table1" => plan_table1(&mut plan),
        "table2" => {
            plan_table2(&mut plan, &store, divisor, only, options.obs.as_ref());
        }
        "scenarios" => plan_scenarios(&mut plan, options.obs.as_ref(), store.check_level()),
        "fig6" => plan_fig6(&mut plan),
        "crossover" => {
            let rows = plan_table2_cells(&mut plan, &store, divisor, None, options.obs.as_ref());
            plan_crossover(&mut plan, rows);
        }
        "ablate-buffers" => plan_ablate_buffers(&mut plan, &store, divisor, options.obs.as_ref()),
        "ablate-threshold" => {
            plan_ablate_threshold(&mut plan, &store, divisor, options.obs.as_ref());
        }
        "ablate-dq" => plan_ablate_dq(&mut plan, &store, divisor, options.obs.as_ref()),
        "ablate-globals" => plan_ablate_globals(&mut plan, &store, divisor, options.obs.as_ref()),
        "ablate-width" => plan_ablate_width(&mut plan, &store, divisor, options.obs.as_ref()),
        "ablate-unroll" => plan_ablate_unroll(&mut plan, &store, divisor, options.obs.as_ref()),
        "mix" => plan_mix(&mut plan, &store, divisor),
        "schedulers" => plan_schedulers(&mut plan, &store, divisor),
        "selftest" => plan_selftest(&mut plan, divisor),
        "explain" => {
            let dir = obs_dir.unwrap_or_else(|| PathBuf::from("critpath_out"));
            options.explain =
                Some((dir.display().to_string(), baseline.map(|b| b.name().to_owned())));
            let header = "Critical-path cycle-loss attribution (dual-cluster, local scheduler)";
            plan_benchmarks(&mut plan, "explain", Some(header), &store, divisor, only, {
                move |store, bench, scale| {
                    explain::explain_cell(store, bench, scale, &dir, baseline)
                }
            });
        }
        "profile" => {
            let dir = obs_dir.unwrap_or_else(|| PathBuf::from("hostprof_out"));
            options.profile = Some(dir.display().to_string());
            let header = format!(
                "Engine phase-cost profile (dual-cluster, local scheduler, check {})",
                store.check_level().name()
            );
            plan_benchmarks(&mut plan, "profile", Some(&header), &store, divisor, only, {
                move |store, bench, scale| profile::profile_cell(store, bench, scale, &dir)
            });
        }
        "pipetrace" => {
            let dir = out_dir.map(PathBuf::from).or(obs_dir);
            let dir = dir.unwrap_or_else(|| PathBuf::from("pipetrace_out"));
            let (range_str, range) = match range {
                Some((s, r)) => (Some(s), r),
                None => (None, (0, u64::MAX)),
            };
            options.pipetrace = Some((
                dir.display().to_string(),
                range_str,
                baseline.map(|b| b.name().to_owned()),
            ));
            let header = "Per-instruction pipeline lifecycle trace (dual-cluster, local scheduler)";
            plan_benchmarks(&mut plan, "pipetrace", Some(header), &store, divisor, only, {
                move |store, bench, scale| {
                    pipetrace::pipetrace_cell(store, bench, scale, &dir, range, baseline)
                }
            });
        }
        "all" => plan_all(&mut plan, &store, divisor, only, options.obs.as_ref()),
        other => {
            eprintln!("unknown subcommand `{other}`; see the module docs for usage");
            return ExitCode::FAILURE;
        }
    }

    // Test hook: append one deliberately panicking cell, to exercise
    // the fault-isolated driver end to end (used by scripts/ci.sh).
    if std::env::var("MCL_PANIC_CELL").is_ok() {
        plan.section(
            vec![Cell::new("panic-probe", || {
                panic!("deliberate panic injected via MCL_PANIC_CELL")
            })],
            Box::new(|_| {}),
        );
    }

    match plan.execute(&cmd, divisor, jobs, options, &store) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Driver-level robustness and observability options.
#[derive(Clone, Default)]
struct RunOptions {
    keep_going: bool,
    /// `--check`: the invariant-check level of every simulation.
    check: CheckLevel,
    watchdog_seconds: Option<f64>,
    obs: Option<ObsSettings>,
    /// `(export dir, baseline name)` of a `repro explain` run, recorded
    /// in `BENCH_repro.json`.
    explain: Option<(String, Option<String>)>,
    /// Export dir of a `repro profile` run, recorded in
    /// `BENCH_repro.json`.
    profile: Option<String>,
    /// `(export dir, range string, baseline name)` of a
    /// `repro pipetrace` run, recorded in `BENCH_repro.json`.
    pipetrace: Option<(String, Option<String>, Option<String>)>,
    /// `--flight FILE` target, recorded in `BENCH_repro.json`; the
    /// recording is written there after every cell has finished.
    flight: Option<String>,
}

/// A parsed command line.
struct Cli {
    cmd: String,
    /// The positional after the command: a divisor, a benchmark name or
    /// a directory.
    arg: Option<String>,
    divisor: u32,
    jobs: usize,
    store_dir: Option<String>,
    baseline: Option<Baseline>,
    /// `--range` as given, and parsed.
    range: Option<(String, (u64, u64))>,
    out_dir: Option<String>,
    options: RunOptions,
}

/// Commands whose `--obs` runs an instrumented companion of their
/// cells (and so reads `--sample-interval`).
const COMPANION_COMMANDS: [&str; 10] = [
    "table2",
    "crossover",
    "scenarios",
    "ablate-buffers",
    "ablate-threshold",
    "ablate-dq",
    "ablate-globals",
    "ablate-width",
    "ablate-unroll",
    "all",
];

/// Parses the arguments after the program name. Every error is a usage
/// error: a malformed or repeated flag value, an unknown flag, a second
/// positional, a divisor that is not a `u32`, or a command-specific
/// flag the command would ignore.
fn parse_cli(mut args: Vec<String>) -> Result<Cli, String> {
    let jobs = take_value_flag(&mut args, "--jobs")?
        .map(|v| match v.parse::<usize>() {
            Ok(0) => Err("--jobs must be at least 1".to_owned()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("invalid --jobs value `{v}`")),
        })
        .transpose()?
        .unwrap_or_else(runner::default_jobs);
    let keep_going = take_switch(&mut args, "--keep-going");
    let check = take_value_flag(&mut args, "--check")?;
    let watchdog = take_value_flag(&mut args, "--watchdog")?;
    let check = check.map(|v| v.parse::<CheckLevel>()).transpose()?;
    let watchdog_seconds = watchdog
        .map(|v| match v.parse::<f64>() {
            // The deadline must be representable: no `inf`, no `1e300`.
            Ok(secs)
                if secs > 0.0
                    && Duration::try_from_secs_f64(secs)
                        .is_ok_and(|d| Instant::now().checked_add(d).is_some()) =>
            {
                Ok(secs)
            }
            _ => Err(format!("invalid --watchdog value `{v}`")),
        })
        .transpose()?;
    let store_dir = take_value_flag(&mut args, "--store")?;
    let obs_dir = take_value_flag(&mut args, "--obs")?;
    let sample_interval = take_value_flag(&mut args, "--sample-interval")?
        .map(|v| match v.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("invalid --sample-interval value `{v}`")),
        })
        .transpose()?;
    let baseline =
        take_value_flag(&mut args, "--baseline")?.map(|v| Baseline::parse(&v)).transpose()?;
    let range = take_value_flag(&mut args, "--range")?
        .map(|v| mcl_bench::pipetrace::parse_range(&v).map(|r| (v, r)))
        .transpose()?;
    let out_dir = take_value_flag(&mut args, "--out")?;
    let flight = take_value_flag(&mut args, "--flight")?;
    let cmd = args.first().cloned().unwrap_or_else(|| "all".to_owned());
    let divisor = check_leftover_args(&cmd, &args)?;

    // Each command-specific flag, whether it was given, and whether
    // `cmd` reads it.
    let companions = COMPANION_COMMANDS.contains(&cmd.as_str());
    let tool = matches!(cmd.as_str(), "explain" | "profile" | "pipetrace");
    let simulates =
        !matches!(cmd.as_str(), "table1" | "fig6" | "mix" | "obs-validate" | "chaos" | "selftest");
    let flags = [
        ("--obs", obs_dir.is_some(), companions || tool),
        ("--sample-interval", sample_interval.is_some(), companions),
        ("--baseline", baseline.is_some(), matches!(cmd.as_str(), "explain" | "pipetrace")),
        ("--range", range.is_some(), cmd == "pipetrace"),
        ("--out", out_dir.is_some(), cmd == "pipetrace"),
        ("--check", check.is_some(), simulates),
    ];
    if let Some((flag, ..)) = flags.iter().find(|&&(_, given, read)| given && !read) {
        return Err(format!("`{cmd}` does not read `{flag}`"));
    }
    if sample_interval.is_some() && obs_dir.is_none() {
        return Err("`--sample-interval` is read only with `--obs`".to_owned());
    }
    if out_dir.is_some() && obs_dir.is_some() {
        return Err("`--obs` is not read alongside `--out`".to_owned());
    }

    Ok(Cli {
        arg: args.get(1).cloned(),
        cmd,
        divisor,
        jobs,
        store_dir,
        baseline,
        range,
        out_dir,
        options: RunOptions {
            keep_going,
            check: check.unwrap_or_default(),
            watchdog_seconds,
            obs: obs_dir.map(|dir| ObsSettings {
                dir: PathBuf::from(dir),
                sample_interval: sample_interval.unwrap_or(1024),
            }),
            flight,
            ..RunOptions::default()
        },
    })
}

/// Extracts a boolean `--flag` switch; returns whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Extracts `--flag VALUE` / `--flag=VALUE` from the argument list; a
/// flag given twice is an error.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut value = None;
    let prefix = format!("{flag}=");
    let mut i = 0;
    while i < args.len() {
        let found = if args[i] == flag {
            if i + 1 >= args.len() {
                return Err(format!("{flag} requires a value"));
            }
            let v = args[i + 1].clone();
            args.drain(i..=i + 1);
            v
        } else if let Some(v) = args[i].strip_prefix(&prefix) {
            let v = v.to_owned();
            args.remove(i);
            v
        } else {
            i += 1;
            continue;
        };
        if value.replace(found).is_some() {
            return Err(format!("`{flag}` given more than once"));
        }
    }
    Ok(value)
}

/// Rejects what is left of the argument list once every known flag is
/// taken: an unknown `--flag`, or a second positional after the
/// command's one. Returns the scale divisor — the positional, which
/// must parse as a `u32`, or 1 without one. `pipeline` and
/// `obs-validate` take a name or path instead (their divisor is 1).
fn check_leftover_args(cmd: &str, args: &[String]) -> Result<u32, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{flag}`"));
    }
    if let Some(extra) = args.get(2) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if matches!(cmd, "pipeline" | "obs-validate") {
        return Ok(1);
    }
    args.get(1).map_or(Ok(1), |v| match v.parse() {
        Ok(0) | Err(_) => Err(format!("invalid divisor `{v}`")),
        Ok(divisor) => Ok(divisor),
    })
}

/// The benchmark `MCL_ONLY` names, if it is set.
fn mcl_only() -> Result<Option<Benchmark>, String> {
    std::env::var("MCL_ONLY").ok().map(|name| benchmark_named(&name, "MCL_ONLY")).transpose()
}

/// The benchmark called `name`, or an error naming `source` (where the
/// name came from), the name and the valid benchmarks.
fn benchmark_named(name: &str, source: &str) -> Result<Benchmark, String> {
    Benchmark::ALL.into_iter().find(|b| b.name() == name).ok_or_else(|| {
        let valid: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        format!("{source}: unknown benchmark `{name}`; expected one of {}", valid.join(", "))
    })
}

/// What one cell computed: either a pre-rendered text fragment or a
/// Table 2 row (kept structured so the crossover section can reuse it).
#[derive(Clone)]
enum Payload {
    Text(String),
    Row(Box<Table2Row>),
}

fn text(p: &Payload) -> &str {
    match p {
        Payload::Text(s) => s,
        Payload::Row(_) => unreachable!("section expected a text payload"),
    }
}

fn rows_of(ps: &[Payload]) -> Vec<Table2Row> {
    ps.iter()
        .map(|p| match p {
            Payload::Row(r) => (**r).clone(),
            Payload::Text(_) => unreachable!("section expected row payloads"),
        })
        .collect()
}

type Render = Box<dyn FnOnce(&[Payload])>;

/// An execution plan: a flat list of cells (executed once, possibly in
/// parallel) plus ordered sections that render slices of the results.
#[derive(Default)]
struct Plan {
    cells: Vec<Cell<Payload>>,
    sections: Vec<(Range<usize>, Render)>,
}

impl Plan {
    /// Appends cells and a renderer over exactly those cells.
    fn section(&mut self, cells: Vec<Cell<Payload>>, render: Render) -> Range<usize> {
        let start = self.cells.len();
        self.cells.extend(cells);
        let range = start..self.cells.len();
        self.sections.push((range.clone(), render));
        range
    }

    /// Appends a renderer over an existing cell range (no new work) —
    /// how the crossover section shares Table 2's rows.
    fn derived_section(&mut self, range: Range<usize>, render: Render) {
        self.sections.push((range, render));
    }

    /// Runs all cells on the worker pool (panic-isolated), renders the
    /// sections in order, and writes `BENCH_repro.json` — including the
    /// per-cell statuses of a failed run.
    ///
    /// When everything succeeds, every section renders and the output is
    /// byte-identical to the pre-isolation driver. On failure the report
    /// is still written and the run exits nonzero; with `keep_going` the
    /// sections whose cells all succeeded still render first.
    fn execute(
        self,
        command: &str,
        divisor: u32,
        jobs: usize,
        options: RunOptions,
        store: &TraceStore,
    ) -> Result<(), String> {
        let start = Instant::now();
        // A benchmark's traces are freed once its last cell is done.
        let (payloads, metrics) = runner::run_cells_isolated(
            jobs,
            self.cells,
            options.watchdog_seconds,
            &|bench| store.release(bench),
        );
        let failed: Vec<String> = metrics
            .iter()
            .filter(|m| m.status != CellStatus::Ok)
            .map(|m| {
                format!(
                    "cell `{}` {}: {}",
                    m.id,
                    m.status.name(),
                    m.status.message().unwrap_or("unknown failure")
                )
            })
            .collect();
        // Soft-watchdog overruns (cells that completed Ok but blew the
        // budget outside the simulator) still render — their payloads
        // are valid — but fail the exit code: a budget the caller set is
        // a contract, not a suggestion.
        let overran: Vec<String> = metrics
            .iter()
            .filter(|m| m.status == CellStatus::Ok && m.watchdog_exceeded)
            .map(|m| {
                format!(
                    "cell `{}` exceeded the soft watchdog budget ({:.3}s wall)",
                    m.id, m.wall_seconds
                )
            })
            .collect();

        if failed.is_empty() {
            let payloads: Vec<Payload> =
                payloads.into_iter().map(|p| p.expect("no cell failed")).collect();
            for (range, render) in self.sections {
                render(&payloads[range]);
            }
        } else if options.keep_going {
            for (range, render) in self.sections {
                if payloads[range.clone()].iter().all(Option::is_some) {
                    let complete: Vec<Payload> = payloads[range]
                        .iter()
                        .map(|p| p.clone().expect("checked complete"))
                        .collect();
                    render(&complete);
                } else {
                    eprintln!("warning: section with failed cells skipped");
                }
            }
        }

        // Write the flight recording once every cell has finished, so
        // it covers the full run; an unwritable recording is a warning
        // (like the report below), not a lost run.
        if let Some(flight) = &options.flight {
            match mcl_bench::flight::write(std::path::Path::new(flight)) {
                Ok(()) => eprintln!("flight recording written to {flight}"),
                Err(e) => eprintln!("warning: could not write flight recording {flight}: {e}"),
            }
        }

        let path = std::path::Path::new("BENCH_repro.json");
        let info = RunInfo {
            command: command.to_owned(),
            divisor,
            jobs,
            total_wall_seconds: start.elapsed().as_secs_f64(),
            keep_going: options.keep_going,
            watchdog_seconds: options.watchdog_seconds,
            obs_dir: options.obs.as_ref().map(|s| s.dir.display().to_string()),
            sample_interval: options.obs.as_ref().map_or(0, |s| s.sample_interval),
            explain_dir: options.explain.as_ref().map(|(dir, _)| dir.clone()),
            explain_baseline: options.explain.as_ref().and_then(|(_, b)| b.clone()),
            profile_dir: options.profile.clone(),
            pipetrace_dir: options.pipetrace.as_ref().map(|(dir, _, _)| dir.clone()),
            pipetrace_range: options.pipetrace.as_ref().and_then(|(_, r, _)| r.clone()),
            pipetrace_baseline: options.pipetrace.as_ref().and_then(|(_, _, b)| b.clone()),
            flight_path: options.flight.clone(),
        };
        if let Err(e) = runner::write_report(path, &info, &store.counters(), &metrics) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }

        if failed.is_empty() && overran.is_empty() {
            Ok(())
        } else {
            for f in failed.iter().chain(&overran) {
                eprintln!("error: {f}");
            }
            Err(format!(
                "{} of {} cells failed",
                failed.len() + overran.len(),
                metrics.len()
            ))
        }
    }
}

fn plan_table1(plan: &mut Plan) {
    plan.section(
        vec![Cell::new("table1", || Ok((Payload::Text(table1::render()), CellCost::default())))],
        Box::new(|ps| println!("{}", text(&ps[0]))),
    );
}

/// Adds one Table 2 cell per benchmark (no rendering); returns the cell
/// range so both the Table 2 and crossover sections can consume it.
///
/// With `obs` set, each cell additionally runs an instrumented companion
/// simulation and writes its exports ([`obs::observe_cell`]); the
/// companion's cycles are not charged to the cell cost, so the report's
/// aggregate statistics stay identical with `--obs` on or off.
fn plan_table2_cells(
    plan: &mut Plan,
    store: &Arc<TraceStore>,
    divisor: u32,
    only: Option<Benchmark>,
    obs: Option<&ObsSettings>,
) -> Range<usize> {
    let start = plan.cells.len();
    for &bench in Benchmark::ALL.iter().filter(|&&b| only.is_none_or(|only| b == only)) {
        let scale = bench.scaled(divisor);
        let store = Arc::clone(store);
        let obs = obs.cloned();
        let cell = Cell::new(format!("table2/{bench}"), move || {
            let (row, cost) = table2::table2_row_with(&store, bench, scale)?;
            if let Some(settings) = &obs {
                obs::observe_cell(&store, bench, scale, settings)?;
            }
            Ok((Payload::Row(Box::new(row)), cost))
        });
        plan.cells.push(cell.for_benchmark(bench));
    }
    start..plan.cells.len()
}

fn plan_table2(
    plan: &mut Plan,
    store: &Arc<TraceStore>,
    divisor: u32,
    only: Option<Benchmark>,
    obs: Option<&ObsSettings>,
) -> Range<usize> {
    let range = plan_table2_cells(plan, store, divisor, only, obs);
    plan.derived_section(
        range.clone(),
        Box::new(|ps| {
            let rows = rows_of(ps);
            println!("{}", table2::render(&rows));
            println!("{}", table2::render_details(&rows));
        }),
    );
    range
}

fn plan_crossover(plan: &mut Plan, table2_cells: Range<usize>) {
    plan.derived_section(
        table2_cells,
        Box::new(|ps| {
            let rows = rows_of(ps);
            let cross = crossover::from_table2(&rows);
            println!("{}", crossover::render(&cross));
        }),
    );
}

fn plan_scenarios(plan: &mut Plan, obs: Option<&ObsSettings>, check: CheckLevel) {
    let obs = obs.cloned();
    plan.section(
        vec![Cell::new("scenarios", move || {
            let timelines = scenarios::run_all(check)?;
            if let Some(settings) = &obs {
                for s in mcl_workloads::scenarios::all() {
                    obs::observe_scenario(&s, settings, check)?;
                }
            }
            Ok((Payload::Text(scenarios::render(&timelines)), CellCost::default()))
        })],
        Box::new(|ps| println!("{}", text(&ps[0]))),
    );
}

fn plan_fig6(plan: &mut Plan) {
    plan.section(
        vec![Cell::new("fig6", || Ok((Payload::Text(figure6::render()), CellCost::default())))],
        Box::new(|ps| println!("{}", text(&ps[0]))),
    );
}

/// Adds one cell per benchmark (just `only`, when set), each rendering
/// its own text, printed in benchmark order under `header` — the shape
/// of the sweep ablations (A1/A2/A3/A6) and of `explain`, `pipetrace`
/// and `profile`.
fn plan_benchmarks(
    plan: &mut Plan,
    id: &str,
    header: Option<&str>,
    store: &Arc<TraceStore>,
    divisor: u32,
    only: Option<Benchmark>,
    cell: impl Fn(&TraceStore, Benchmark, u32) -> Result<(String, CellCost), mcl_bench::Error>
        + Send
        + Clone
        + 'static,
) {
    let cells = Benchmark::ALL
        .iter()
        .filter(|&&b| only.is_none_or(|only| b == only))
        .map(|&bench| {
            let cell = cell.clone();
            let store = Arc::clone(store);
            Cell::new(format!("{id}/{bench}"), move || {
                let (rendered, cost) = cell(&store, bench, bench.scaled(divisor))?;
                Ok((Payload::Text(rendered), cost))
            })
            .for_benchmark(bench)
        })
        .collect();
    let header = header.map(str::to_owned);
    plan.section(
        cells,
        Box::new(move |ps| {
            if let Some(header) = &header {
                println!("{header}\n");
            }
            for p in ps {
                println!("{}", text(p));
            }
        }),
    );
}

/// Exports the family-representative instrumented companion of one
/// ablation cell (`--obs` on `repro ablate-*`): the sweep's statistics
/// come from the ordinary uninstrumented runs; the export covers one
/// canonical `(request, configuration)` of the family under the stem
/// `<family>-<bench>`.
fn observe_ablate(
    store: &TraceStore,
    family: &str,
    bench: Benchmark,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    (config_label, sched_label): (&'static str, &'static str),
    obs: Option<&ObsSettings>,
) -> Result<(), mcl_bench::Error> {
    if let Some(settings) = obs {
        let stem = format!("{family}-{bench}");
        obs::observe_request(
            store,
            req,
            cfg,
            ObsTarget { stem: &stem, config_label, sched_label },
            settings,
        )?;
    }
    Ok(())
}

fn plan_ablate_buffers(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let obs = obs.cloned();
    plan_benchmarks(plan, "ablate-buffers", None, store, divisor, None, move |store, bench, scale| {
        let (points, cost) = ablate::buffers(store, bench, scale, &[1, 2, 4, 8, 16, 32])?;
        observe_ablate(
            store,
            "ablate-buffers",
            bench,
            &TraceRequest::new(bench, scale, SchedulerKind::Local),
            &ProcessorConfig::dual_cluster_8way(),
            ("dual_cluster_8way", "local"),
            obs.as_ref(),
        )?;
        let rendered = ablate::render_sweep(
            &format!("A1: transfer-buffer entries per cluster — {bench}"),
            "entries",
            &points,
        );
        Ok((rendered, cost))
    });
}

fn plan_ablate_threshold(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let obs = obs.cloned();
    plan_benchmarks(plan, "ablate-threshold", None, store, divisor, None, move |store, bench, scale| {
        let (points, cost) =
            ablate::threshold(store, bench, scale, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0])?;
        observe_ablate(
            store,
            "ablate-threshold",
            bench,
            &TraceRequest::new(bench, scale, SchedulerKind::Local),
            &ProcessorConfig::dual_cluster_8way(),
            ("dual_cluster_8way", "local"),
            obs.as_ref(),
        )?;
        let rendered = ablate::render_sweep(
            &format!("A2: local-scheduler imbalance threshold — {bench}"),
            "threshold",
            &points,
        );
        Ok((rendered, cost))
    });
}

fn plan_ablate_dq(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let obs = obs.cloned();
    plan_benchmarks(plan, "ablate-dq", None, store, divisor, None, move |store, bench, scale| {
        let (points, cost) = ablate::dq_single(store, bench, scale, &[16, 32, 64, 128, 256])?;
        observe_ablate(
            store,
            "ablate-dq",
            bench,
            &TraceRequest::new(bench, scale, SchedulerKind::Naive),
            &ProcessorConfig::single_cluster_8way(),
            ("single_cluster_8way", "naive"),
            obs.as_ref(),
        )?;
        let rendered = ablate::render_sweep(
            &format!("A3: single-cluster dispatch-queue size — {bench}"),
            "entries",
            &points,
        );
        Ok((rendered, cost))
    });
}

fn plan_ablate_unroll(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let obs = obs.cloned();
    plan_benchmarks(plan, "ablate-unroll", None, store, divisor, None, move |store, bench, scale| {
        let (points, cost) = ablate::unroll(store, bench, scale, &[1, 2, 4])?;
        observe_ablate(
            store,
            "ablate-unroll",
            bench,
            &TraceRequest::new(bench, scale, SchedulerKind::Local).with_unroll(2),
            &ProcessorConfig::dual_cluster_8way(),
            ("dual_cluster_8way", "local"),
            obs.as_ref(),
        )?;
        let rendered = ablate::render_sweep(
            &format!("A6: loop unrolling (dual-cluster, local scheduler) — {bench}"),
            "factor",
            &points,
        );
        Ok((rendered, cost))
    });
}

fn plan_ablate_globals(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let cells = Benchmark::ALL
        .iter()
        .map(|&bench| {
            let store = Arc::clone(store);
            let obs = obs.cloned();
            Cell::new(format!("ablate-globals/{bench}"), move || {
                let ((with, without), cost) =
                    ablate::globals(&store, bench, bench.scaled(divisor))?;
                observe_ablate(
                    &store,
                    "ablate-globals",
                    bench,
                    &TraceRequest::new(bench, bench.scaled(divisor), SchedulerKind::LocalNoGlobals),
                    &ProcessorConfig::dual_cluster_8way(),
                    ("dual_cluster_8way", "local_no_globals"),
                    obs.as_ref(),
                )?;
                let line = format!(
                    "{:<10} {:>14} {:>14}",
                    bench.name(),
                    with.cycles,
                    without.cycles
                );
                Ok((Payload::Text(line), cost))
            })
            .for_benchmark(bench)
        })
        .collect();
    plan.section(
        cells,
        Box::new(|ps| {
            println!("A4: global-register designation (dual-cluster, local scheduler)\n");
            println!("{:<10} {:>14} {:>14}", "benchmark", "with globals", "all-local");
            for p in ps {
                println!("{}", text(p));
            }
            println!();
        }),
    );
}

fn plan_ablate_width(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32, obs: Option<&ObsSettings>) {
    let cells = Benchmark::ALL
        .iter()
        .map(|&bench| {
            let store = Arc::clone(store);
            let obs = obs.cloned();
            Cell::new(format!("ablate-width/{bench}"), move || {
                let ((single, none_pct, local_pct), cost) =
                    ablate::width4(&store, bench, bench.scaled(divisor))?;
                observe_ablate(
                    &store,
                    "ablate-width",
                    bench,
                    &TraceRequest::new(bench, bench.scaled(divisor), SchedulerKind::Local),
                    &ProcessorConfig::dual_cluster_4way(),
                    ("dual_cluster_4way", "local"),
                    obs.as_ref(),
                )?;
                let line = format!(
                    "{:<10} {:>12} {:>11.1}% {:>11.1}%",
                    bench.name(),
                    single,
                    none_pct,
                    local_pct
                );
                Ok((Payload::Text(line), cost))
            })
            .for_benchmark(bench)
        })
        .collect();
    plan.section(
        cells,
        Box::new(|ps| {
            println!("A5: four-way issue (single 4-way vs dual 2x2-way)\n");
            println!("{:<10} {:>12} {:>12} {:>12}", "benchmark", "C_single4", "none%", "local%");
            for p in ps {
                println!("{}", text(p));
            }
            println!();
        }),
    );
}

fn plan_schedulers(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32) {
    let cells = Benchmark::ALL
        .iter()
        .map(|&bench| {
            let store = Arc::clone(store);
            Cell::new(format!("schedulers/{bench}"), move || {
                let (rows, cost) = ablate::schedulers(&store, bench, bench.scaled(divisor))?;
                let lines: Vec<String> = rows
                    .into_iter()
                    .map(|(kind, cycles, dual)| {
                        format!(
                            "{:<10} {:>22} {:>10} {:>6.1}%",
                            bench.name(),
                            kind,
                            cycles,
                            dual
                        )
                    })
                    .collect();
                Ok((Payload::Text(lines.join("\n")), cost))
            })
            .for_benchmark(bench)
        })
        .collect();
    plan.section(
        cells,
        Box::new(|ps| {
            println!("B1: dual-cluster cycles by partitioning strategy\n");
            println!("{:<10} {:>22} {:>10} {:>7}", "benchmark", "scheduler", "cycles", "dual%");
            for p in ps {
                println!("{}", text(p));
            }
            println!();
        }),
    );
}

fn plan_mix(plan: &mut Plan, store: &Arc<TraceStore>, divisor: u32) {
    use mcl_trace::analysis::analyze;
    let cells = Benchmark::ALL
        .iter()
        .map(|&bench| {
            let store = Arc::clone(store);
            Cell::new(format!("mix/{bench}"), move || {
                let il = store.il(bench, bench.scaled(divisor));
                let report = analyze(&il).map_err(mcl_bench::Error::Vm)?;
                Ok((Payload::Text(report.render_row()), CellCost::default()))
            })
            .for_benchmark(bench)
        })
        .collect();
    plan.section(
        cells,
        Box::new(|ps| {
            use mcl_trace::analysis::MixReport;
            println!("Workload behavioural profiles (intermediate-language form)\n");
            println!("{}", MixReport::render_header());
            for p in ps {
                println!("{}", text(p));
            }
            println!();
        }),
    );
}

fn selftest_cell(
    name: &'static str,
    f: impl FnOnce() -> Result<(String, CellCost), mcl_bench::Error> + Send + 'static,
) -> Cell<Payload> {
    Cell::new(format!("selftest/{name}"), move || {
        let (detail, cost) = f()?;
        Ok((Payload::Text(format!("{name:<16} ok — {detail}")), cost))
    })
}

fn plan_selftest(plan: &mut Plan, divisor: u32) {
    let mut cells = vec![
        selftest_cell("store-vs-fresh", move || selftest::store_vs_fresh(divisor)),
        selftest_cell("jobs-agree", move || selftest::jobs_agree(divisor)),
    ];
    cells.extend(selftest::IDENTITY_SWEEPS.map(|sweep| {
        selftest_cell(sweep.name, move || selftest::identity_sweep(divisor, sweep))
    }));
    cells.extend([
        selftest_cell("fuzz-checker", || selftest::fuzz_checker(24)),
        selftest_cell("leak-fault", selftest::leak_fault_caught),
        selftest_cell("corrupt-packed", selftest::corrupt_packed_rejected),
        selftest_cell("store-recovery", move || selftest::store_recovery(divisor)),
    ]);
    plan.section(
        cells,
        Box::new(|ps| {
            println!("Self-checks (differential + fault injection)\n");
            for p in ps {
                println!("{}", text(p));
            }
            println!();
        }),
    );
}

fn plan_all(
    plan: &mut Plan,
    store: &Arc<TraceStore>,
    divisor: u32,
    only: Option<Benchmark>,
    obs: Option<&ObsSettings>,
) {
    plan_table1(plan);
    let table2_cells = plan_table2(plan, store, divisor, only, obs);
    plan_scenarios(plan, obs, store.check_level());
    plan_fig6(plan);
    // The crossover analysis derives from Table 2's rows; reuse them
    // instead of re-simulating — unless MCL_ONLY restricted Table 2, in
    // which case crossover still covers every benchmark (as the serial
    // driver always did). The extra rows never re-export observability
    // artifacts.
    if only.is_none() {
        plan_crossover(plan, table2_cells);
    } else {
        let full_rows = plan_table2_cells(plan, store, divisor, None, None);
        plan_crossover(plan, full_rows);
    }
    plan_ablate_buffers(plan, store, divisor, obs);
    plan_ablate_threshold(plan, store, divisor, obs);
    plan_ablate_dq(plan, store, divisor, obs);
    plan_ablate_globals(plan, store, divisor, obs);
    plan_ablate_width(plan, store, divisor, obs);
    plan_ablate_unroll(plan, store, divisor, obs);
    plan_schedulers(plan, store, divisor);
    plan_mix(plan, store, divisor);
}

fn run_pipeline(bench: Benchmark, check: CheckLevel) -> Result<(), mcl_bench::Error> {
    use mcl_core::{render_pipeline, EventLog, PipeViewOptions, Processor, ProcessorConfig};
    use mcl_isa::assign::RegisterAssignment;
    use mcl_sched::SchedulerKind;
    use mcl_trace::vm::trace_program_packed;

    let il = bench.build((bench.default_scale() / 100).max(1));
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let scheduled = mcl_sched::SchedulePipeline::new(SchedulerKind::Local, &assign)
        .run(&il)
        .map_err(mcl_bench::Error::Schedule)?;
    let (trace, _) = trace_program_packed(&scheduled.program, 0).map_err(mcl_bench::Error::Vm)?;
    let mut events = EventLog::new();
    Processor::new(ProcessorConfig::dual_cluster_8way())
        .checked(check)
        .run_packed_observed(&trace, &mut events)
        .map_err(mcl_bench::Error::Sim)?;
    // Show a steady-state window of 48 instructions.
    let mid = (trace.len() as u64 / 2).max(1);
    println!(
        "pipeline view of {bench} (dual-cluster, local scheduler), instructions #{mid}..#{}:
",
        mid + 47
    );
    println!(
        "{}",
        render_pipeline(
            &events,
            PipeViewOptions { first_seq: mid, last_seq: mid + 47, max_cycles: 110 }
        )
    );
    Ok(())
}
