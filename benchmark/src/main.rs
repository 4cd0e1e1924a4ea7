//! `benchmark` — the end-to-end and per-layer performance benchmark of
//! the multicluster reproduction. See `benchmark/README.md` for the
//! workloads, the metrics and their bounds.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark run   [--seed N] [--seconds S] [--out DIR]
//! benchmark trace [--seed N] [--seconds S] [--out DIR]
//! benchmark compare A.json B.json
//! ```
//!
//! Run it from the repository root through `benchmark/run.sh`, which
//! builds `repro` and this program first. One workload prints one JSON
//! line last on stdout; `run` and `trace` run every workload in a child
//! process of its own and collect the results in `DIR/results.json`.

mod compare;
mod golden;
mod host;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mcl_bench::json::Json;
use mcl_core::HostPhase;
use mcl_testutil::Rng;

use golden::{Golden, Tally};
use layers::{PassTotals, Spans};
use metrics::{Definition, MetricDef, END_TO_END, PER_LAYER};
use stats::Summary;
use workloads::{Ctx, Measured, Workload};

/// Files of a run in progress; removed when the run ends.
const WORK_DIR: &str = ".bench_work";
/// Where results go unless `--out` says otherwise.
const OUT_DIR: &str = ".bench_out";
/// A workload whose CPUs lose more than this share of the run to the
/// hypervisor measured a busy neighbour, not the code.
const STEAL_WARN_PCT: f64 = 5.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)).and_then(|no_worse| {
                no_worse
                    .then_some(())
                    .ok_or_else(|| "a metric got worse".to_owned())
            }),
            _ => Err("usage: benchmark compare A.json B.json".to_owned()),
        },
        Some(mode @ ("run" | "trace")) => Options::parse(&args[1..]).and_then(|mut opts| {
            opts.trace = mode == "trace";
            run_all(&opts)
        }),
        _ => Options::parse(&args)
            .and_then(|opts| run_workload(&opts))
            .map(|line| println!("{line}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            out: None,
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => opts.workload = Some(value.clone()),
                "--seed" => opts.seed = number()?,
                "--seconds" => opts.seconds = Some(number()?.max(1)),
                "--trace" => opts.trace = number()? != 0,
                "--out" => opts.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(opts)
    }

    fn seconds(&self) -> Result<u64, String> {
        self.seconds
            .map_or_else(|| Definition::load().map(|d| d.run_seconds), Ok)
    }

    fn out(&self) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| Path::new(OUT_DIR).join(if self.trace { "trace" } else { "run" }))
    }
}

/// A run's scratch directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
        let dir = cwd.join(WORK_DIR).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `repro`, built next to this program by `run.sh`.
fn repro_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let repro = exe.with_file_name("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!(
            "{} not found: build with benchmark/run.sh",
            repro.display()
        ))
    }
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// How a run reduces a metric's samples to the value it reports.
#[derive(Clone, Copy)]
enum Stat {
    Min,
    Median,
}

/// One metric of a run: the value it reports and its samples' summary.
struct Reported<'a> {
    def: &'a MetricDef,
    value: f64,
    summary: Summary,
}

fn reported<'a>(defs: &'a [MetricDef], values: &[(&str, Vec<f64>, Stat)]) -> Vec<Reported<'a>> {
    defs.iter()
        .map(|def| {
            let (_, samples, stat) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .expect("every metric is measured");
            let summary = Summary::of(samples);
            let value = match stat {
                Stat::Min => summary.min,
                Stat::Median => summary.median,
            };
            Reported {
                def,
                value,
                summary,
            }
        })
        .collect()
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, Vec<f64>, Stat)> {
    // A timed metric reports its fastest rep: on a shared host,
    // neighbours only ever slow a rep down, so the fastest rep tracks the
    // code best (README.md has the measured spreads).
    vec![
        ("wall_s", m.wall_s.clone(), Stat::Min),
        ("cpu_s", m.cpu_s.clone(), Stat::Min),
        ("peak_rss_mb", vec![m.peak_rss_mb], Stat::Median),
        ("setup_s", m.setup_s.clone(), Stat::Median),
        ("paper_error_pp", vec![m.paper_error_pp], Stat::Median),
    ]
}

fn per_layer(
    m: &Measured,
    layers: &std::collections::BTreeMap<String, (u64, f64)>,
    totals: &PassTotals,
    glue_pct: f64,
) -> Vec<(&'static str, f64)> {
    let self_s = |name: &str| layers.get(name).map_or(0.0, |&(_, s)| s);
    let simulate_s = self_s("core.simulate");
    let live = totals.cycles.saturating_sub(totals.skipped_cycles) as f64;
    let phase = |p: HostPhase| {
        totals.phase_ns[p.index()] as f64 / totals.profiled_live_cycles.max(1) as f64
    };
    let (traced_wall, traced_cpu) = m.traced.expect("a traced run has a traced rep");
    let untraced_wall = Summary::of(&m.wall_s).median;
    vec![
        ("workloads.build_s", self_s("workloads.build")),
        ("sched.prepare_s", self_s("sched.prepare")),
        ("sched.profiled_steps", totals.profiled_steps as f64),
        ("sched.schedule_s", self_s("sched.schedule")),
        ("trace.pack_s", self_s("trace.pack")),
        (
            "trace.bytes",
            (totals.trace_ops as usize * std::mem::size_of::<mcl_trace::PackedOp>()) as f64,
        ),
        ("core.simulate_s", simulate_s),
        ("core.sim_cps", totals.cycles as f64 / simulate_s),
        ("core.ns_per_live_cycle", simulate_s * 1e9 / live),
        (
            "core.phase.timeq_ns_per_live_cycle",
            phase(HostPhase::TimeQ),
        ),
        (
            "core.phase.retire_ns_per_live_cycle",
            phase(HostPhase::Retire),
        ),
        (
            "core.phase.wakeup_ns_per_live_cycle",
            phase(HostPhase::Wakeup),
        ),
        (
            "core.phase.issue_ns_per_live_cycle",
            phase(HostPhase::Issue),
        ),
        (
            "core.phase.dispatch_ns_per_live_cycle",
            phase(HostPhase::Dispatch),
        ),
        (
            "core.phase.checker_ns_per_live_cycle",
            phase(HostPhase::Checker),
        ),
        (
            "core.phase.fast_forward_ns_per_live_cycle",
            phase(HostPhase::FastForward),
        ),
        ("core.phase.loop_ns_per_live_cycle", phase(HostPhase::Loop)),
        ("core.live_cycles", live),
        ("core.skipped_cycles", totals.skipped_cycles as f64),
        ("core.ff_jumps", totals.ff_jumps as f64),
        (
            "core.ff_ratio",
            totals.skipped_cycles as f64 / totals.cycles as f64,
        ),
        ("persist.key_s", self_s("persist.key")),
        ("persist.store_s", self_s("persist.store")),
        ("persist.load_s", self_s("persist.load")),
        (
            "rep.parallel_eff",
            traced_cpu / (host::parallelism() as f64 * traced_wall),
        ),
        (
            "rep.trace_overhead_pct",
            100.0 * (traced_wall / untraced_wall - 1.0),
        ),
        ("pass.glue_pct", glue_pct),
    ]
}

fn metrics_json(metrics: &[Reported]) -> Json {
    let mut doc = Json::object();
    for m in metrics {
        let s = &m.summary;
        let mut entry = Json::object();
        entry
            .field("unit", m.def.unit.into())
            .field("better", m.def.better.name().into())
            .field("value", Json::F64(m.value))
            .field("min", Json::F64(s.min))
            .field("median", Json::F64(s.median))
            .field("q1", Json::F64(s.q1))
            .field("q3", Json::F64(s.q3))
            .field(
                "tail_percentile",
                s.tail.map_or(Json::Null, |(p, _)| Json::F64(p)),
            )
            .field("tail", s.tail.map_or(Json::Null, |(_, v)| Json::F64(v)))
            .field("n", (s.n as u64).into());
        doc.field(m.def.name, entry);
    }
    doc
}

fn layers_json(
    spans: &Spans,
    root: usize,
    layers: &std::collections::BTreeMap<String, (u64, f64)>,
) -> Json {
    let mut by_name = Json::object();
    for (name, &(calls, self_s)) in layers {
        let mut entry = Json::object();
        entry
            .field("calls", calls.into())
            .field("self_s", Json::F64(self_s));
        by_name.field(name, entry);
    }
    let mut doc = Json::object();
    doc.field("wall_s", Json::F64(spans.wall_s(root)))
        .field("layers", by_name);
    doc
}

/// Runs one workload and returns its result line.
fn run_workload(opts: &Options) -> Result<String, String> {
    let name = opts.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let seconds = opts.seconds()?;
    let golden = Golden::load()?;
    let work = WorkDir::create()?;
    let repro = match workload {
        Workload::LiveFp | Workload::LiveFf => PathBuf::new(),
        _ => repro_path()?,
    };
    let mut ctx = Ctx {
        repro,
        work: work.0.clone(),
        golden: &golden,
        rng: Rng::new(opts.seed),
        tally: Tally::default(),
    };

    let started = Instant::now();
    let steal_before = host::steal_seconds();
    let load_before = host::loadavg();
    let mut spans = Spans::new();
    let measured = workloads::measure(
        workload,
        &mut ctx,
        seconds as f64,
        opts.trace.then_some(&mut spans),
    )?;

    let out = opts.out().join(workload.name());
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut correct = true;
    let metrics = if opts.trace {
        let rep = 0; // the traced rep opened the first span
        let (pass, totals) = layers::layer_pass(
            workload.benches(),
            &golden,
            &mut ctx.tally,
            &mut spans,
            &work.0.join("pass-store"),
        )?;
        let pass_layers = spans.layers_under(pass);
        let glue_pct = layers::glue_pct(&pass_layers, spans.wall_s(pass));
        if glue_pct > layers::MAX_GLUE_PCT {
            eprintln!(
                "benchmark: layers leave {glue_pct:.2}% of the pass unaccounted (limit {}%)",
                layers::MAX_GLUE_PCT
            );
            correct = false;
        }
        let mut doc = Json::object();
        doc.field("workload", workload.name().into())
            .field("seed", opts.seed.into())
            .field("pass", layers_json(&spans, pass, &pass_layers))
            .field("rep", layers_json(&spans, rep, &spans.layers_under(rep)))
            .field("counts", {
                let mut counts = Json::object();
                counts
                    .field("profiled_steps", totals.profiled_steps.into())
                    .field("trace_ops", totals.trace_ops.into())
                    .field("cycles", totals.cycles.into())
                    .field("retired", totals.retired.into())
                    .field("skipped_cycles", totals.skipped_cycles.into())
                    .field("ff_jumps", totals.ff_jumps.into())
                    .field("profiled_live_cycles", totals.profiled_live_cycles.into());
                counts
            });
        write_json(&out.join("layers.json"), &doc)?;
        write_json(&out.join("trace.json"), &spans.chrome_trace())?;
        let values: Vec<_> = per_layer(&measured, &pass_layers, &totals, glue_pct)
            .into_iter()
            .map(|(name, value)| (name, vec![value], Stat::Median))
            .collect();
        reported(&PER_LAYER, &values)
    } else {
        reported(&END_TO_END, &end_to_end(&measured))
    };

    let wall_s = started.elapsed().as_secs_f64();
    let steal_s = match (steal_before, host::steal_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let steal_pct = 100.0 * steal_s / (wall_s * host::parallelism() as f64);
    if steal_pct > STEAL_WARN_PCT {
        eprintln!(
            "benchmark: warning: {steal_pct:.1}% of {name}'s CPU time was stolen by the host"
        );
    }
    let values: Vec<(&MetricDef, f64)> = metrics.iter().map(|m| (m.def, m.value)).collect();
    if let Some((def, _)) = values.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("benchmark: {} could not be measured", def.name);
        correct = false;
    }
    let tally = &ctx.tally;
    correct &= tally.failed == 0;

    let loads =
        |l: Option<[f64; 3]>| l.map_or(Json::Null, |l| Json::Array(l.map(Json::F64).to_vec()));
    let mut host_doc = Json::object();
    host_doc
        .field("available_parallelism", (host::parallelism() as u64).into())
        .field("loadavg_start", loads(load_before))
        .field("loadavg_end", loads(host::loadavg()))
        .field("wall_s", Json::F64(wall_s))
        .field("steal_s", Json::F64(steal_s))
        .field("steal_pct", Json::F64(steal_pct));
    let mut doc = Json::object();
    doc.field("workload", name.into())
        .field("seed", opts.seed.into())
        .field("seconds", seconds.into())
        .field("trace", opts.trace.into())
        .field("correct", correct.into())
        .field("attempted", tally.attempted.into())
        .field("failed", tally.failed.into())
        .field(
            "failures",
            Json::Array(tally.failures.iter().map(|f| f.as_str().into()).collect()),
        )
        .field("host", host_doc)
        .field("metrics", metrics_json(&metrics));
    write_json(&out.join("result.json"), &doc)?;

    let values: Vec<(&MetricDef, f64)> = values
        .into_iter()
        .map(|(d, v)| (d, if v.is_finite() { v } else { 0.0 }))
        .collect();
    Ok(metrics::result_line(
        correct,
        tally.attempted.max(1),
        tally.failed,
        &values,
    ))
}

/// Runs every workload in a child process of its own and collects their
/// results, with the host they ran on, in `results.json`.
fn run_all(opts: &Options) -> Result<(), String> {
    let trace = opts.trace;
    let seconds = opts.seconds()?;
    let (seconds_arg, seed) = (seconds.to_string(), opts.seed.to_string());
    let out = opts.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut results = Json::object();
    let mut failed = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        eprintln!("benchmark: {workload} ...");
        let child = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds_arg,
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        match stdout.lines().last() {
            Some(line) if child.status.success() => println!("{workload:<10} {line}"),
            _ => {
                failed.push(workload);
                continue;
            }
        }
        let path = out.join(workload).join("result.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        results.field(
            workload,
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let mut host_doc = Json::object();
    host_doc
        .field("available_parallelism", (host::parallelism() as u64).into())
        .field(
            "loadavg",
            host::loadavg().map_or(Json::Null, |l| Json::Array(l.map(Json::F64).to_vec())),
        )
        .field("rustc", Json::Str(host::rustc_version()))
        .field("git_head", Json::Str(host::git_head()));
    let mut doc = Json::object();
    doc.field("mode", if trace { "trace" } else { "run" }.into())
        .field("seed", opts.seed.into())
        .field("seconds", seconds.into())
        .field("host", host_doc)
        .field("workloads", results);
    let path = out.join("results.json");
    write_json(&path, &doc)?;
    eprintln!("benchmark: results in {}", path.display());
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("no result from {}", failed.join(", ")))
    }
}
