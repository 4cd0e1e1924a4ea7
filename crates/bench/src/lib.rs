//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! - [`table1`] — prints the issue rules and latencies (Table 1) from
//!   the live configuration structs.
//! - [`table2`](mod@table2) — the headline experiment: percentage speedup/slowdown
//!   of the dual-cluster processor against the single-cluster processor
//!   for the native binary ("none") and the local-scheduler binary, six
//!   benchmarks (Table 2).
//! - [`scenarios`] — cycle-by-cycle timelines of the five dual-execution
//!   scenarios (Figures 2–5).
//! - [`figure6`] — the local scheduler's traversal and assignment order
//!   on the paper's example control-flow graph (Figure 6).
//! - [`crossover`] — the Palacharla cycle-time analysis (Sections 4.2
//!   and 5): net run time at 0.35 µm and 0.18 µm.
//! - [`ablate`] — parameter sweeps the paper discusses in prose:
//!   transfer-buffer sizing, the imbalance threshold, dispatch-queue
//!   size, global-register designation, and issue width.
//! - [`runner`] — the parallel experiment driver: expands experiments
//!   into independent cells, runs them on a scoped worker pool, and
//!   collects deterministically so `--jobs N` output is byte-identical
//!   to a serial run. Writes `BENCH_repro.json` (see [`json`]).
//! - [`obs`] — the `--obs` exports: per-cell interval-sampled time
//!   series, latency histograms, and Chrome trace-event files from an
//!   instrumented companion simulation, plus `repro obs-validate`.
//! - [`explain`] — `repro explain`: exact critical-path cycle-loss
//!   attribution of each Table 2 cell (`<bench>.critpath.json` plus a
//!   rendered per-cause report), optionally differential against the
//!   single-cluster or dual-native baseline.
//! - [`pipetrace`] — `repro pipetrace`: per-instruction pipeline
//!   lifecycle exports of each Table 2 cell (a Konata-compatible
//!   `<bench>.konata` text trace plus `<bench>.pipetrace.json` with the
//!   inter-cluster dataflow edge list), optionally differential with
//!   per-op retire slips against a baseline, under a retire-exactness
//!   identity.
//! - [`profile`] — `repro profile`: host-side phase-cost attribution of
//!   the live-cycle loop (`<bench>.hostprof.json` plus a ranked
//!   ns-per-live-cycle report), with a sum-to-elapsed identity check.
//! - [`flight`] — the `--flight FILE` whole-run host flight recorder:
//!   one Chrome trace of cell scheduling and, inside each cell, of the
//!   work done per benchmark layer, across the entire invocation.
//!
//! Everything here is a library so the `repro` binary and the criterion
//! benches share one implementation.

use std::fmt;

use mcl_core::{Processor, ProcessorConfig, SimError, SimStats};
use mcl_isa::assign::RegisterAssignment;
use mcl_sched::{ScheduleError, ScheduleOptions, SchedulePipeline, SchedulerKind};
use mcl_trace::{vm::trace_program, Program, TraceOp, VmError, Vreg};
use mcl_workloads::Benchmark;

pub mod ablate;
pub mod chaos;
pub mod explain;
pub mod figure6;
pub mod flight;
pub mod json;
pub mod obs;
pub mod persist;
pub mod pipetrace;
pub mod profile;
pub mod runner;
pub mod scenarios;
pub mod selftest;
pub mod store;
pub mod table1;
pub mod table2;

pub use persist::{PersistCounters, PersistStore};
pub use store::{SimProduct, TraceRequest, TraceStore};
pub use table2::{table2, table2_row, Table2Row};

/// Harness errors.
#[derive(Debug)]
pub enum Error {
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// Trace generation failed.
    Vm(VmError),
    /// Simulation failed.
    Sim(SimError),
    /// A memoized build in the shared [`TraceStore`] failed (the
    /// underlying error, rendered — cached failures are served to every
    /// waiter).
    Store(String),
    /// A cell panicked on its worker thread; the panic was caught by the
    /// [`runner`] so the remaining cells could finish.
    Panic {
        /// The id of the panicking cell.
        cell: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// A differential or fault-injection self-check found the harness
    /// disagreeing with itself (see [`selftest`]).
    SelfCheck(String),
    /// An observability export or validation failed (see [`obs`]).
    Obs(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schedule(e) => write!(f, "scheduling: {e}"),
            Error::Vm(e) => write!(f, "trace generation: {e}"),
            Error::Sim(e) => write!(f, "simulation: {e}"),
            Error::Store(e) => write!(f, "trace store: {e}"),
            Error::Panic { cell, message } => write!(f, "cell `{cell}` panicked: {message}"),
            Error::SelfCheck(e) => write!(f, "self-check: {e}"),
            Error::Obs(e) => write!(f, "observability: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ScheduleError> for Error {
    fn from(e: ScheduleError) -> Error {
        Error::Schedule(e)
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Error {
        Error::Vm(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Error {
        Error::Sim(e)
    }
}

/// Schedules an IL program with the given scheduler and register
/// assignment and returns the machine trace.
///
/// # Errors
///
/// Propagates scheduling and trace-generation failures.
pub fn schedule_and_trace(
    il: &Program<Vreg>,
    kind: SchedulerKind,
    assignment: &RegisterAssignment,
    options: Option<ScheduleOptions>,
) -> Result<Vec<TraceOp>, Error> {
    let mut pipeline = SchedulePipeline::new(kind, assignment);
    if let Some(options) = options {
        pipeline = pipeline.with_options(options);
    }
    let scheduled = pipeline.run(il)?;
    let (trace, _) = trace_program(&scheduled.program)?;
    Ok(trace)
}

/// Runs a trace on a processor configuration.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn simulate(config: &ProcessorConfig, trace: &[TraceOp]) -> Result<SimStats, Error> {
    Ok(Processor::new(config.clone()).run_trace(trace)?.stats)
}

/// The three runs behind one Table 2 row, served by `store`: the
/// native binary on the single-cluster machine, the native binary on
/// the dual-cluster machine, and the local-scheduler binary on the
/// dual-cluster machine. Also returns the cell cost (cycles of all
/// three runs plus the build/simulate wall-time split).
///
/// # Errors
///
/// Propagates scheduling/trace/simulation failures.
pub fn run_all_configs_with(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
) -> Result<((SimStats, SimStats, SimStats), runner::CellCost), Error> {
    // The paper compiles ONE native binary (no cluster knowledge) and
    // runs it on both machines; the rescheduled binary runs on the dual.
    let native = TraceRequest::new(bench, scale, SchedulerKind::Naive);
    let local = TraceRequest::new(bench, scale, SchedulerKind::Local);

    let mut cost = runner::CellCost::default();
    let single = store.sim(&native, &ProcessorConfig::single_cluster_8way())?;
    let dual_none = store.sim(&native, &ProcessorConfig::dual_cluster_8way())?;
    let dual_local = store.sim(&local, &ProcessorConfig::dual_cluster_8way())?;
    for product in [&single, &dual_none, &dual_local] {
        cost.charge_sim(product);
    }
    Ok(((single.stats, dual_none.stats, dual_local.stats), cost))
}

/// The cycle-time crossover analysis of Sections 4.2 and 5.
pub mod crossover {
    use mcl_core::delay::{breakeven_slowdown, net_runtime_ratio, FeatureSize};

    use crate::table2::Table2Row;

    /// One row of the crossover report.
    #[derive(Debug, Clone)]
    pub struct CrossoverRow {
        /// Benchmark name.
        pub name: String,
        /// Cycle ratio `C_dual(local) / C_single`.
        pub cycle_ratio: f64,
        /// Net run-time ratio at 0.35 µm (< 1 means the multicluster
        /// machine wins in wall time).
        pub runtime_035: f64,
        /// Net run-time ratio at 0.18 µm.
        pub runtime_018: f64,
    }

    /// Computes the crossover rows from measured Table 2 rows.
    #[must_use]
    pub fn from_table2(rows: &[Table2Row]) -> Vec<CrossoverRow> {
        rows.iter()
            .map(|r| CrossoverRow {
                name: r.name.clone(),
                cycle_ratio: r.dual_local_cycles as f64 / r.single_cycles as f64,
                runtime_035: net_runtime_ratio(
                    r.dual_local_cycles,
                    r.single_cycles,
                    FeatureSize::F0_35um,
                ),
                runtime_018: net_runtime_ratio(
                    r.dual_local_cycles,
                    r.single_cycles,
                    FeatureSize::F0_18um,
                ),
            })
            .collect()
    }

    /// Renders the report, including the break-even slowdowns.
    #[must_use]
    pub fn render(rows: &[CrossoverRow]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Cycle-time crossover (Palacharla delay model; runtime ratio < 1 means the\nmulticluster processor is faster in wall time despite more cycles)\n"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>16} {:>16}",
            "benchmark", "cycle ratio", "runtime @0.35um", "runtime @0.18um"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<10} {:>12.3} {:>16.3} {:>16.3}",
                r.name, r.cycle_ratio, r.runtime_035, r.runtime_018
            );
        }
        let _ = writeln!(
            out,
            "\nbreak-even cycle slowdown: {:.2}x at 0.35um, {:.2}x at 0.18um",
            breakeven_slowdown(FeatureSize::F0_35um),
            breakeven_slowdown(FeatureSize::F0_18um),
        );
        out
    }
}
