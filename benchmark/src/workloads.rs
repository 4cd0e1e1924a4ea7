//! The five workloads: how each sets up, what one rep does, and how its
//! outputs are checked.
//!
//! `reproduce`, `replay` and `observe` run the `repro` binary, one
//! child process per command, each in a fresh working directory with a
//! scrubbed environment and `--jobs 2`. `live-fp` and `live-ff` simulate
//! Table 2 cells in this process on one thread.

use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

use mcl_bench::json::Json;
use mcl_core::{speedup_percent, Processor};
use mcl_testutil::Rng;
use mcl_workloads::Benchmark;

use crate::golden::{Golden, Tally};
use crate::host::{self, Usage};
use crate::layers::{build_cells, Cell, PassTotals, Spans};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro all 4`: every table and figure of the paper, at quarter
    /// scale.
    Reproduce,
    /// `repro all` over a filled result store: no simulation at all.
    Replay,
    /// The fp-heavy Table 2 cells, which almost never fast-forward.
    LiveFp,
    /// The integer and ora cells, a third of whose cycles fast-forward.
    LiveFf,
    /// The three probe-driven exports of ora, each single-stepped.
    Observe,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Reproduce,
        Workload::Replay,
        Workload::LiveFp,
        Workload::LiveFf,
        Workload::Observe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Replay => "replay",
            Workload::LiveFp => "live-fp",
            Workload::LiveFf => "live-ff",
            Workload::Observe => "observe",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark programs the workload runs; the layer pass of a
    /// traced run times the same ones.
    pub fn benches(self) -> &'static [Benchmark] {
        use Benchmark::{Compress, Doduc, Gcc1, Ora, Su2cor, Tomcatv};
        match self {
            Workload::Reproduce | Workload::Replay => &Benchmark::ALL,
            Workload::LiveFp => &[Doduc, Su2cor, Tomcatv],
            Workload::LiveFf => &[Compress, Gcc1, Ora],
            Workload::Observe => &[Ora],
        }
    }

    /// Whether a run has set up often enough: three times and for a
    /// second at least, so the median setup time is steady. The cold
    /// store fill of `replay` takes seconds, so it is timed once.
    fn set_up_enough(self, setups: usize, elapsed_s: f64) -> bool {
        setups >= 3 && elapsed_s >= 1.0 || self == Workload::Replay && setups >= 1
    }
}

/// What a run needs from outside the workload.
pub struct Ctx<'a> {
    /// The `repro` binary.
    pub repro: PathBuf,
    /// An empty absolute directory for this run's files.
    pub work: PathBuf,
    pub golden: &'a Golden,
    /// Seeded from `--seed`: orders the operations of each rep.
    pub rng: Rng,
    pub tally: Tally,
}

/// What one run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub paper_error_pp: f64,
    /// Wall and CPU seconds of the traced rep, when there was one.
    pub traced: Option<(f64, f64)>,
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
}

trait Runner {
    fn setup(&mut self, ctx: &mut Ctx) -> Result<(), String>;
    fn rep(&mut self, ctx: &mut Ctx, spans: &mut Spans) -> Result<Rep, String>;
    /// Checks that run once, outside the timed region, after the reps.
    fn finish(&mut self, _ctx: &mut Ctx) -> Result<(), String> {
        Ok(())
    }
    fn peak_rss_kb(&self) -> u64;
    fn paper_error_pp(&self) -> Option<f64>;
}

/// Sets the workload up, runs reps until `seconds` have passed (at
/// least one), then one traced rep when `spans` is given.
pub fn measure(
    workload: Workload,
    ctx: &mut Ctx,
    seconds: f64,
    spans: Option<&mut Spans>,
) -> Result<Measured, String> {
    let mut runner: Box<dyn Runner> = match workload {
        Workload::LiveFp | Workload::LiveFf => Box::new(Live::new(workload.benches())),
        _ => Box::new(Cli::new(workload, ctx)),
    };
    let mut setup_s = Vec::new();
    let setting_up = Instant::now();
    while !workload.set_up_enough(setup_s.len(), setting_up.elapsed().as_secs_f64()) {
        let start = Instant::now();
        runner.setup(ctx)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    // Memory left over from repeated setups is not the workload's peak.
    host::reset_peak_rss();
    let mut untraced = Spans::disabled();
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while wall_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let rep = runner.rep(ctx, &mut untraced)?;
        wall_s.push(rep.wall_s);
        cpu_s.push(rep.cpu_s);
    }
    let traced = match spans {
        Some(spans) => runner
            .rep(ctx, spans)
            .map(|rep| Some((rep.wall_s, rep.cpu_s)))?,
        None => None,
    };
    runner.finish(ctx)?;
    Ok(Measured {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb: runner.peak_rss_kb() as f64 / 1024.0,
        paper_error_pp: runner.paper_error_pp().unwrap_or(f64::NAN),
        traced,
    })
}

/// Mean absolute distance, in percentage points, between measured and
/// published Table 2 entries: `(measured none, measured local, paper
/// none, paper local)` per benchmark.
fn paper_error_pp(rows: &[(f64, f64, f64, f64)]) -> Option<f64> {
    if rows.is_empty() {
        return None;
    }
    let sum: f64 = rows
        .iter()
        .map(|r| (r.0 - r.2).abs() + (r.1 - r.3).abs())
        .sum();
    Some(sum / (2 * rows.len()) as f64)
}

/// The Table 2 rows of a `repro` report, as printed.
fn table2_rows(stdout: &str) -> Vec<(f64, f64, f64, f64)> {
    let pct = |t: &str| t.trim_end_matches('%').parse::<f64>().ok();
    stdout
        .lines()
        .skip_while(|line| !(line.starts_with("benchmark") && line.contains("none (meas)")))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .filter_map(|line| {
            let t: Vec<&str> = line.split_whitespace().collect();
            Some((
                pct(t.get(1)?)?,
                pct(t.get(2)?)?,
                pct(t.get(4)?)?,
                pct(t.get(5)?)?,
            ))
        })
        .collect()
}

/// In-process simulation of Table 2 cells.
struct Live {
    benches: &'static [Benchmark],
    cells: Vec<Cell>,
    error_pp: Option<f64>,
}

impl Live {
    fn new(benches: &'static [Benchmark]) -> Live {
        Live {
            benches,
            cells: Vec::new(),
            error_pp: None,
        }
    }
}

impl Runner for Live {
    fn setup(&mut self, _ctx: &mut Ctx) -> Result<(), String> {
        self.cells.clear();
        for &bench in self.benches {
            let cells = build_cells(bench, &mut Spans::disabled(), &mut PassTotals::default())?;
            self.cells.extend(cells);
        }
        Ok(())
    }

    fn rep(&mut self, ctx: &mut Ctx, spans: &mut Spans) -> Result<Rep, String> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        shuffle(&mut order, &mut ctx.rng);
        let mut results = Vec::with_capacity(order.len());
        let rep = spans.open("rep", "");
        let before = host::self_usage();
        let start = Instant::now();
        for &i in &order {
            let cell = &self.cells[i];
            results.push(spans.scope("core.simulate", &cell.id, || {
                Processor::new(cell.config.clone()).run_packed(&cell.trace)
            }));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = host::self_usage().cpu_s - before.cpu_s;
        spans.close(rep);

        let mut cycles = vec![None; self.cells.len()];
        for (&i, result) in order.iter().zip(results) {
            let cell = &self.cells[i];
            ctx.tally.record(match result {
                Ok(r) => {
                    cycles[i] = Some(r.stats.cycles);
                    ctx.golden.check_cell(
                        &cell.id,
                        [r.stats.cycles, r.stats.retired, r.ff.skipped_cycles],
                    )
                }
                Err(e) => Err(format!("{}: {e}", cell.id)),
            });
        }
        if self.error_pp.is_none() {
            // Cells come in (single-native, dual-native, dual-local)
            // triples per benchmark.
            let rows: Option<Vec<_>> = self
                .cells
                .chunks(3)
                .zip(cycles.chunks(3))
                .map(|(cells, c)| {
                    let (single, none, local) = (c[0]?, c[1]?, c[2]?);
                    let paper = cells[0].bench.paper_table2();
                    Some((
                        speedup_percent(none, single),
                        speedup_percent(local, single),
                        f64::from(paper.0),
                        f64::from(paper.1),
                    ))
                })
                .collect();
            self.error_pp = rows.and_then(|rows| paper_error_pp(&rows));
        }
        Ok(Rep { wall_s, cpu_s })
    }

    fn peak_rss_kb(&self) -> u64 {
        host::peak_rss_kb()
    }

    fn paper_error_pp(&self) -> Option<f64> {
        self.error_pp
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i + 1));
    }
}

/// The pipetrace window of `observe`: `repro obs-validate` is quadratic
/// in the exported ops, and this keeps it near a second.
const PIPETRACE_RANGE: &str = "0..1024";

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|&a| a.to_owned()).collect()
}

/// One `repro` command of a rep.
struct Op {
    /// The key of its stdout golden.
    name: &'static str,
    args: Vec<String>,
}

/// What one `repro` child did.
struct Child {
    status: ExitStatus,
    stdout: Vec<u8>,
    usage: Usage,
}

/// `repro` subprocess workloads.
struct Cli {
    workload: Workload,
    /// The result store of `replay` and `observe`.
    store: PathBuf,
    dirs: usize,
    last_dir: Option<PathBuf>,
    peak_rss_kb: u64,
    error_pp: Option<f64>,
}

impl Cli {
    fn new(workload: Workload, ctx: &Ctx) -> Cli {
        Cli {
            workload,
            store: ctx.work.join("store"),
            dirs: 0,
            last_dir: None,
            peak_rss_kb: 0,
            error_pp: None,
        }
    }

    /// A fresh, empty working directory; the previous one is removed.
    fn fresh_dir(&mut self, ctx: &Ctx) -> Result<PathBuf, String> {
        if let Some(old) = self.last_dir.take() {
            let _ = fs::remove_dir_all(old);
        }
        self.dirs += 1;
        let dir = ctx.work.join(format!("cwd-{}", self.dirs));
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        self.last_dir = Some(dir.clone());
        Ok(dir)
    }

    fn only(&self) -> Option<&'static str> {
        (self.workload == Workload::Observe).then_some("ora")
    }

    fn ops(&self, cwd: &Path) -> Vec<Op> {
        let store = self.store.display().to_string();
        let obs = cwd.join("obs").display().to_string();
        let op = |name, args: &[&str]| Op {
            name,
            args: strings(args),
        };
        match self.workload {
            // Quarter scale: a full-scale rep takes five seconds, so only
            // two fit a run, and their fastest varied by a tenth between
            // runs.
            Workload::Reproduce => vec![op("all-4", &["all", "4", "--jobs", "2"])],
            Workload::Replay => vec![op("all", &["all", "--jobs", "2", "--store", &store])],
            Workload::Observe => vec![
                op(
                    "table2-ora",
                    &["table2", "--jobs", "2", "--obs", &obs, "--store", &store],
                ),
                op(
                    "explain-ora",
                    &["explain", "--jobs", "2", "--obs", &obs, "--store", &store],
                ),
                op(
                    "pipetrace-ora",
                    &[
                        "pipetrace",
                        "--jobs",
                        "2",
                        "--out",
                        &obs,
                        "--range",
                        PIPETRACE_RANGE,
                        "--store",
                        &store,
                    ],
                ),
            ],
            Workload::LiveFp | Workload::LiveFf => unreachable!("live workloads run in process"),
        }
    }

    fn run(&self, ctx: &Ctx, args: &[String], cwd: &Path) -> Result<Child, String> {
        let stderr = fs::File::create(cwd.join("stderr.txt"))
            .map_err(|e| format!("creating {}/stderr.txt: {e}", cwd.display()))?;
        let mut command = Command::new(&ctx.repro);
        command
            .args(args)
            .current_dir(cwd)
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if let Some(bench) = self.only() {
            command.env("MCL_ONLY", bench);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("starting {}: {e}", ctx.repro.display()))?;
        let mut stdout = Vec::new();
        let read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_end(&mut stdout);
        let (status, usage) = host::wait_with_usage(&child)
            .map_err(|e| format!("waiting for repro {}: {e}", args.join(" ")))?;
        read.map_err(|e| format!("reading repro {} stdout: {e}", args.join(" ")))?;
        Ok(Child {
            status,
            stdout,
            usage,
        })
    }

    /// The exit status and, for a command with a golden, its stdout.
    fn check(ctx: &Ctx, name: &str, golden: bool, child: &Child, cwd: &Path) -> Result<(), String> {
        if !child.status.success() {
            let stderr = fs::read_to_string(cwd.join("stderr.txt")).unwrap_or_default();
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!(
                "repro {name} exited with {}: {}",
                child.status,
                tail.join(" | ")
            ));
        }
        if golden {
            ctx.golden.check_stdout(name, &child.stdout)?;
        }
        Ok(())
    }

    /// Checks the store counters of the child's report: a cold fill
    /// must store results, and a replay must serve every simulation
    /// from disk.
    fn check_store(cwd: &Path, cold: bool) -> Result<(), String> {
        let path = cwd.join("BENCH_repro.json");
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let store = |key: &str| {
            report
                .get("store")
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
        };
        let fresh = report.get("total_simulated_cycles").and_then(Json::as_u64);
        let ok = if cold {
            store("disk_stores").is_some_and(|n| n > 0)
        } else {
            store("disk_misses") == Some(0)
                && store("disk_hits").is_some_and(|n| n > 0)
                && fresh == Some(0)
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: store counters {:?} do not match a {} run",
                path.display(),
                report.get("store").map(Json::render),
                if cold { "cold" } else { "replay" }
            ))
        }
    }
}

impl Runner for Cli {
    fn setup(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let cwd = self.fresh_dir(ctx)?;
        let _ = fs::remove_dir_all(&self.store);
        let store = self.store.display().to_string();
        let (name, golden, args) = match self.workload {
            // A whole reproduction at one-eighth scale: pages the binary
            // in and runs every section once before timing.
            Workload::Reproduce => ("all 8", false, strings(&["all", "8", "--jobs", "2"])),
            Workload::Replay => (
                "all",
                true,
                strings(&["all", "--jobs", "2", "--store", &store]),
            ),
            Workload::Observe => (
                "table2-ora",
                true,
                strings(&["table2", "--jobs", "2", "--store", &store]),
            ),
            Workload::LiveFp | Workload::LiveFf => unreachable!("live workloads run in process"),
        };
        let child = self.run(ctx, &args, &cwd)?;
        let mut outcome = Cli::check(ctx, name, golden, &child, &cwd);
        if outcome.is_ok() && self.workload == Workload::Replay {
            outcome = Cli::check_store(&cwd, true);
        }
        ctx.tally.record(outcome);
        Ok(())
    }

    fn rep(&mut self, ctx: &mut Ctx, spans: &mut Spans) -> Result<Rep, String> {
        let cwd = self.fresh_dir(ctx)?;
        let mut ops = self.ops(&cwd);
        shuffle(&mut ops, &mut ctx.rng);

        let mut children = Vec::with_capacity(ops.len());
        let rep = spans.open("rep", "");
        let start = Instant::now();
        for op in &ops {
            let span = format!("repro.{}", op.args[0]);
            children.push(spans.scope(&span, op.name, || self.run(ctx, &op.args, &cwd))?);
        }
        let wall_s = start.elapsed().as_secs_f64();
        spans.close(rep);

        let mut cpu_s = 0.0;
        for (op, child) in ops.iter().zip(&children) {
            cpu_s += child.usage.cpu_s;
            self.peak_rss_kb = self.peak_rss_kb.max(child.usage.maxrss_kb);
            let mut outcome = Cli::check(ctx, op.name, true, child, &cwd);
            if outcome.is_ok() && self.workload == Workload::Replay {
                outcome = Cli::check_store(&cwd, false);
            }
            ctx.tally.record(outcome);
            if self.error_pp.is_none() {
                self.error_pp =
                    paper_error_pp(&table2_rows(&String::from_utf8_lossy(&child.stdout)));
            }
        }
        Ok(Rep { wall_s, cpu_s })
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if self.workload != Workload::Observe {
            return Ok(());
        }
        let cwd = self.last_dir.clone().expect("a rep ran");
        let args = strings(&["obs-validate", &cwd.join("obs").display().to_string()]);
        let child = self.run(ctx, &args, &cwd)?;
        ctx.tally
            .record(Cli::check(ctx, "obs-validate", false, &child, &cwd));
        Ok(())
    }

    fn peak_rss_kb(&self) -> u64 {
        self.peak_rss_kb
    }

    fn paper_error_pp(&self) -> Option<f64> {
        self.error_pp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_parse_back_from_the_rendered_table() {
        let row = |name: &str, none: f64, local: f64, paper: (i32, i32)| mcl_bench::Table2Row {
            name: name.to_owned(),
            single_cycles: 100,
            dual_none_cycles: 110,
            dual_local_cycles: 105,
            none_pct: none,
            local_pct: local,
            paper,
            stats: Default::default(),
        };
        let text = mcl_bench::table2::render(&[
            row("ora", -12.34, 3.0, (-5, -22)),
            row("gcc1", 1.0, -2.0, (-15, -10)),
        ]);
        let rows = table2_rows(&format!("Table 1\n\n{text}\ntrailing 1 2 3 4 5 6\n"));
        assert_eq!(
            rows,
            vec![(-12.3, 3.0, -5.0, -22.0), (1.0, -2.0, -15.0, -10.0)]
        );
        let error = paper_error_pp(&rows).unwrap();
        assert!(
            (error - (7.3 + 25.0 + 16.0 + 8.0) / 4.0).abs() < 1e-9,
            "{error}"
        );
        assert_eq!(paper_error_pp(&table2_rows("no table here")), None);
    }

    #[test]
    fn the_shuffle_is_a_seeded_permutation() {
        let order = |seed| {
            let mut items: Vec<usize> = (0..9).collect();
            shuffle(&mut items, &mut Rng::new(seed));
            items
        };
        assert_eq!(order(7), order(7));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert!((1..20).any(|seed| order(seed) != order(0)));
    }
}
