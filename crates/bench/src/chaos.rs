//! `repro chaos` — the fault-injection chaos campaign.
//!
//! PR 3 seeded fault injection with two transfer-buffer leak faults and
//! one self-test; this module grows it into a systematic campaign over
//! the full [`FaultInjection`] family. The contract under test is the
//! robustness layer's core promise: **an injected hardware fault must
//! always surface as a structured error** ([`SimError::Invariant`] or
//! [`SimError::Wedged`]) — never a silent completion, and never
//! statistics that differ from the clean run (a "leak into stats",
//! which would poison every downstream table).
//!
//! The campaign sweeps a matrix of
//! `fault × workload × engine × check level`:
//!
//! - **Workloads** are crafted so each fault is guaranteed to *trigger*
//!   (a dropped completion needs multi-cycle latencies in flight, a
//!   stuck branch resolution needs a mispredicted branch, buffer faults
//!   need cross-cluster traffic), plus one real benchmark workload
//!   (compress) for the accounting faults.
//! - **Check levels** start at the weakest level that guarantees
//!   *detection* for the fault: wedge-class faults are caught by the
//!   progress monitor at any level (including `off`); accounting faults
//!   need the invariant checker (`retire` or `cycle`); the dropped
//!   completion is only visible to the cycle-granular liveness rule.
//! - **Engines**: every case runs both single-stepped (`ticked`, see
//!   [`Processor::single_stepped`]) and with dead-cycle fast-forward
//!   (`event`) — fault handling must not depend on fast-forward
//!   behaviour.
//!
//! Each cell first runs its workload *clean* (same configuration, no
//! fault) to establish baseline statistics, then injected. A run
//! cancelled by the hard watchdog retries with a doubled budget and
//! backoff (bounded), so a loaded host cannot fail the campaign
//! spuriously. The report classifies every cell and the campaign
//! passes only when 100% of cells detect their fault and 0% leak into
//! statistics.

use std::fmt;
use std::time::Duration;

use mcl_core::check::{CheckLevel, FaultInjection};
use mcl_core::{Processor, ProcessorConfig, SimError, SimStats};
use mcl_isa::assign::RegisterAssignment;
use mcl_isa::ArchReg;
use mcl_sched::SchedulerKind;
use mcl_trace::vm::trace_program_packed;
use mcl_trace::{PackedTrace, ProgramBuilder};
use mcl_workloads::Benchmark;

use crate::runner::{self, Cell, CellCost, CellStatus};
use crate::Error;

/// Per-attempt hard-watchdog budget when the caller does not override
/// it (`repro chaos --watchdog SECS`).
pub const DEFAULT_WATCHDOG_SECONDS: f64 = 30.0;

/// Timed-out attempts are retried this many times, each with a doubled
/// budget and a short backoff.
const TIMEOUT_RETRIES: u32 = 2;

/// The wedge threshold every campaign configuration uses: low enough
/// that wedge-class faults are detected in tens of cycles, high enough
/// that no clean campaign workload stalls anywhere near it.
const WEDGE_THRESHOLD: u32 = 64;

/// The workloads the campaign crafts (each guaranteeing its faults can
/// trigger) plus one real benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// A dependent single-cluster add chain (retire pressure).
    Chain,
    /// Alternating even/odd destinations: every add dual-distributes
    /// and moves an operand or result through a transfer buffer.
    PingPong,
    /// A dependent multiply chain: multi-cycle latencies keep
    /// completion events strictly in the future at cycle boundaries.
    MulChain,
    /// A warm loop with trailing straightline work: the loop-exit
    /// branch guarantees a misprediction that blocks fetch with trace
    /// remaining.
    LoopTail,
    /// The compress benchmark (local-scheduled, dual-cluster): real
    /// cross-cluster traffic for the accounting faults.
    Compress,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::PingPong => "pingpong",
            Workload::MulChain => "mul-chain",
            Workload::LoopTail => "loop-tail",
            Workload::Compress => "compress",
        }
    }

    /// The machine trace of this workload.
    fn trace(self) -> Result<PackedTrace, Error> {
        let program = match self {
            Workload::Chain => {
                let mut b = ProgramBuilder::<ArchReg>::new("chain");
                let r = ArchReg::int(2);
                b.lda(r, 0);
                for _ in 0..30 {
                    b.addq_imm(r, r, 1);
                }
                b.finish().expect("valid chain")
            }
            Workload::PingPong => {
                let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
                let (e, o) = (ArchReg::int(2), ArchReg::int(3));
                b.lda(e, 0);
                for _ in 0..20 {
                    b.addq_imm(o, e, 1);
                    b.addq_imm(e, o, 1);
                }
                b.finish().expect("valid pingpong")
            }
            Workload::MulChain => {
                let mut b = ProgramBuilder::<ArchReg>::new("mul-chain");
                let r = ArchReg::int(2);
                b.lda(r, 3);
                for _ in 0..10 {
                    b.mulq(r, r, r);
                }
                b.finish().expect("valid mul chain")
            }
            Workload::LoopTail => {
                let mut b = ProgramBuilder::<ArchReg>::new("loop-tail");
                let r = ArchReg::int(2);
                let i = ArchReg::int(4);
                let body = b.new_block("body");
                b.lda(r, 0);
                b.lda(i, 8);
                b.switch_to(body);
                b.addq_imm(r, r, 1);
                b.subq_imm(i, i, 1);
                b.bne(i, body);
                let tail = b.new_block("tail");
                b.switch_to(tail);
                for _ in 0..10 {
                    b.addq_imm(r, r, 1);
                }
                b.finish().expect("valid loop")
            }
            Workload::Compress => {
                let il = Benchmark::Compress.build(20);
                let assignment = RegisterAssignment::even_odd_with_default_globals(2);
                return crate::schedule_and_trace(&il, SchedulerKind::Local, &assignment, None);
            }
        };
        let (trace, _) = trace_program_packed(&program, 0).map_err(Error::Vm)?;
        Ok(trace)
    }

    /// The machine this workload runs on (cross-cluster workloads need
    /// the dual-cluster configuration for their faults to apply).
    fn config(self) -> ProcessorConfig {
        match self {
            Workload::Chain | Workload::MulChain | Workload::LoopTail => {
                ProcessorConfig::single_cluster_8way()
            }
            Workload::PingPong | Workload::Compress => ProcessorConfig::dual_cluster_8way(),
        }
    }
}

/// How a case's fault is expected to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// An invariant-checker violation of this rule.
    Invariant(&'static str),
    /// A forward-progress wedge.
    Wedged,
}

/// One campaign cell: a fault injected into a workload, single-stepped
/// or fast-forwarded, at a check level, with its expected structured
/// detection.
#[derive(Debug, Clone)]
struct Case {
    fault: FaultInjection,
    workload: Workload,
    single_stepped: bool,
    level: CheckLevel,
    expect: Expect,
}

impl Case {
    fn id(&self) -> String {
        format!(
            "chaos/{}/{}/{}/{}",
            self.fault.name(),
            self.workload.name(),
            engine_name(self.single_stepped),
            self.level.name()
        )
    }

    fn processor(&self, with_fault: bool) -> Processor {
        let faults = if with_fault { vec![self.fault.clone()] } else { Vec::new() };
        let processor = Processor::new(self.workload.config())
            .checked(self.level)
            .with_wedge_threshold(WEDGE_THRESHOLD)
            .with_faults(faults);
        if self.single_stepped {
            processor.single_stepped()
        } else {
            processor
        }
    }
}

/// The report's engine label: `ticked` for a single-stepped run,
/// `event` for a fast-forwarded one.
fn engine_name(single_stepped: bool) -> &'static str {
    if single_stepped {
        "ticked"
    } else {
        "event"
    }
}

/// The full campaign matrix: each fault crossed with the workloads
/// that guarantee it triggers, the check levels that guarantee it is
/// detected, single-stepped and fast-forwarded.
fn matrix() -> Vec<Case> {
    use CheckLevel::{Cycle, Off, Retire};
    use FaultInjection as F;
    // (fault, workloads, levels, expected detection)
    let rows: Vec<(F, Vec<Workload>, Vec<CheckLevel>, Expect)> = vec![
        (
            F::LeakOperandBuffer { cycle: 0 },
            vec![Workload::PingPong, Workload::Compress],
            vec![Retire, Cycle],
            Expect::Invariant("otb-accounting"),
        ),
        (
            F::LeakResultBuffer { cycle: 0 },
            vec![Workload::PingPong, Workload::Compress],
            vec![Retire, Cycle],
            Expect::Invariant("rtb-accounting"),
        ),
        (
            F::DropCompletion { cycle: 0 },
            vec![Workload::MulChain],
            vec![Cycle],
            Expect::Invariant("completion-liveness"),
        ),
        (
            F::StickBranchResolution { cycle: 0 },
            vec![Workload::LoopTail],
            vec![Off, Retire, Cycle],
            Expect::Wedged,
        ),
        (
            F::CorruptTransferCredit { cycle: 0 },
            vec![Workload::PingPong],
            vec![Retire, Cycle],
            Expect::Invariant("otb-accounting"),
        ),
        (
            F::DelayOperandDelivery { cycle: 0, delay: 1 << 40 },
            vec![Workload::PingPong],
            vec![Off, Retire, Cycle],
            Expect::Wedged,
        ),
        (
            F::LeakPhysReg { cycle: 0 },
            vec![Workload::PingPong, Workload::Compress],
            vec![Retire, Cycle],
            Expect::Invariant("phys-reg-accounting"),
        ),
        (
            F::StallRetire { cycle: 0 },
            vec![Workload::Chain],
            vec![Off, Retire, Cycle],
            Expect::Wedged,
        ),
    ];
    let mut cases = Vec::new();
    for (fault, workloads, levels, expect) in rows {
        for &workload in &workloads {
            for &level in &levels {
                for single_stepped in [true, false] {
                    cases.push(Case {
                        fault: fault.clone(),
                        workload,
                        single_stepped,
                        level,
                        expect,
                    });
                }
            }
        }
    }
    cases
}

/// How one campaign cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The fault surfaced as the expected structured error.
    Detected {
        /// `invariant \`rule\`` or `wedged`.
        kind: String,
        /// The cycle the error reported.
        cycle: u64,
        /// Attempts taken (> 1 only after watchdog-timeout retries).
        attempts: u32,
    },
    /// The run completed with statistics differing from the clean
    /// baseline — the fault silently poisoned results. Campaign
    /// failure.
    LeakedStats {
        /// Clean-run cycles.
        baseline_cycles: u64,
        /// Faulted-run cycles.
        observed_cycles: u64,
    },
    /// The run completed with statistics identical to the baseline —
    /// the fault never took effect. Campaign failure (the matrix is
    /// built so every fault triggers).
    NotTriggered,
    /// A different structured error than expected (wrong rule, or a
    /// timeout that survived every retry). Campaign failure.
    Unexpected(String),
}

impl Outcome {
    /// Whether this outcome counts as a detected fault.
    #[must_use]
    pub fn detected(&self) -> bool {
        matches!(self, Outcome::Detected { .. })
    }

    /// Whether the fault leaked into statistics.
    #[must_use]
    pub fn leaked(&self) -> bool {
        matches!(self, Outcome::LeakedStats { .. })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Detected { kind, cycle, attempts } => {
                write!(f, "detected: {kind} @ cycle {cycle}")?;
                if *attempts > 1 {
                    write!(f, " (attempt {attempts})")?;
                }
                Ok(())
            }
            Outcome::LeakedStats { baseline_cycles, observed_cycles } => write!(
                f,
                "LEAKED INTO STATS: clean {baseline_cycles} cycles, faulted {observed_cycles}"
            ),
            Outcome::NotTriggered => write!(f, "NOT TRIGGERED: run matched the clean baseline"),
            Outcome::Unexpected(e) => write!(f, "UNEXPECTED: {e}"),
        }
    }
}

/// One classified campaign cell.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Fault name (`FaultInjection::name`).
    pub fault: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// `ticked` (single-stepped) or `event` (fast-forwarded).
    pub engine: &'static str,
    /// Check-level name.
    pub level: &'static str,
    /// The classified outcome.
    pub outcome: Outcome,
}

/// The campaign result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every cell, in matrix order.
    pub rows: Vec<ChaosRow>,
    /// Cells that failed at the infrastructure level (panic, trace
    /// build failure) before classification, rendered.
    pub broken_cells: Vec<String>,
}

impl ChaosReport {
    /// Cells whose fault was detected as a structured error.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.detected()).count()
    }

    /// Cells whose fault leaked into statistics.
    #[must_use]
    pub fn leaked(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.leaked()).count()
    }

    /// Whether the campaign passed: every cell ran, every fault was
    /// detected, nothing leaked.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.broken_cells.is_empty() && self.detected() == self.rows.len()
    }
}

/// Runs one faulted attempt with the hard watchdog armed; timeouts are
/// retried with a doubled budget and a short backoff.
fn run_with_watchdog(
    processor: &Processor,
    trace: &PackedTrace,
    watchdog_seconds: f64,
) -> (Result<SimStats, SimError>, u32) {
    let mut budget = watchdog_seconds;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let result = {
            let _armed = mcl_core::watchdog::arm_for(Duration::from_secs_f64(budget));
            processor.clone().run_packed(trace).map(|r| r.stats)
        };
        match result {
            Err(SimError::Timeout { .. }) if attempts <= TIMEOUT_RETRIES => {
                budget *= 2.0;
                std::thread::sleep(Duration::from_millis(10 * u64::from(attempts)));
            }
            other => return (other, attempts),
        }
    }
}

/// Runs and classifies one campaign cell.
fn run_case(case: &Case, watchdog_seconds: f64) -> Result<ChaosRow, Error> {
    let trace = case.workload.trace()?;
    // Clean baseline: same configuration, no fault. Must succeed.
    let (baseline, _) = run_with_watchdog(&case.processor(false), &trace, watchdog_seconds);
    let baseline = baseline.map_err(|e| {
        Error::SelfCheck(format!("{}: clean baseline failed: {e}", case.id()))
    })?;
    let (faulted, attempts) = run_with_watchdog(&case.processor(true), &trace, watchdog_seconds);
    let outcome = match (faulted, case.expect) {
        (Err(SimError::Invariant { cycle, rule, .. }), Expect::Invariant(want))
            if rule == want =>
        {
            Outcome::Detected { kind: format!("invariant `{rule}`"), cycle, attempts }
        }
        (Err(SimError::Wedged { cycle, .. }), Expect::Wedged) => {
            Outcome::Detected { kind: "wedged".to_owned(), cycle, attempts }
        }
        (Ok(stats), _) if stats == baseline => Outcome::NotTriggered,
        (Ok(stats), _) => Outcome::LeakedStats {
            baseline_cycles: baseline.cycles,
            observed_cycles: stats.cycles,
        },
        (Err(e), _) => Outcome::Unexpected(e.to_string()),
    };
    Ok(ChaosRow {
        fault: case.fault.name(),
        workload: case.workload.name(),
        engine: engine_name(case.single_stepped),
        level: case.level.name(),
        outcome,
    })
}

/// Runs the full campaign on the parallel cell runner.
///
/// Infrastructure failures (a panicking cell) land in
/// [`ChaosReport::broken_cells`]; classification failures land in the
/// row outcomes. Callers decide the exit code from
/// [`ChaosReport::passed`].
#[must_use]
pub fn run(jobs: usize, watchdog_seconds: f64) -> ChaosReport {
    let cases = matrix();
    let cells: Vec<Cell<ChaosRow>> = cases
        .into_iter()
        .map(|case| {
            Cell::new(case.id(), move || {
                let row = run_case(&case, watchdog_seconds)?;
                Ok((row, CellCost::default()))
            })
        })
        .collect();
    // The per-attempt hard watchdog is armed inside each cell (with
    // retries), so no runner-level budget here.
    let (rows, metrics) = runner::run_cells_isolated(jobs, cells, None, &|_| {});
    let broken_cells = metrics
        .iter()
        .filter(|m| m.status != CellStatus::Ok)
        .map(|m| {
            format!("{} {}: {}", m.id, m.status.name(), m.status.message().unwrap_or("unknown"))
        })
        .collect();
    ChaosReport { rows: rows.into_iter().flatten().collect(), broken_cells }
}

/// Renders the campaign report (deterministic: matrix order, and
/// detection cycles are simulation-deterministic).
#[must_use]
pub fn render(report: &ChaosReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos fault-injection campaign (fault x workload x engine x check level)\n"
    );
    let _ = writeln!(
        out,
        "{:<24} {:<9} {:<7} {:<7} outcome",
        "fault", "workload", "engine", "check"
    );
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<24} {:<9} {:<7} {:<7} {}",
            row.fault, row.workload, row.engine, row.level, row.outcome
        );
    }
    for broken in &report.broken_cells {
        let _ = writeln!(out, "BROKEN CELL: {broken}");
    }
    let _ = writeln!(
        out,
        "\ncampaign: {}/{} faults detected as structured errors; {} leaked into stats; {} broken cells",
        report.detected(),
        report.rows.len(),
        report.leaked(),
        report.broken_cells.len()
    );
    let _ = writeln!(
        out,
        "chaos: {}",
        if report.passed() { "PASS (100% detected, 0% leaked)" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_fault_both_engines() {
        let cases = matrix();
        let faults: std::collections::BTreeSet<&str> =
            cases.iter().map(|c| c.fault.name()).collect();
        assert_eq!(faults.len(), 8, "all eight faults campaign: {faults:?}");
        for single_stepped in [true, false] {
            for fault in &faults {
                assert!(
                    cases
                        .iter()
                        .any(|c| c.fault.name() == *fault && c.single_stepped == single_stepped),
                    "{fault} missing on {}",
                    engine_name(single_stepped)
                );
            }
        }
    }

    #[test]
    fn every_case_detects_its_fault() {
        // The full campaign, serially (cells are cheap): 100% detected,
        // 0% leaked is the contract `repro chaos` enforces in CI.
        let report = run(1, DEFAULT_WATCHDOG_SECONDS);
        for row in &report.rows {
            assert!(
                row.outcome.detected(),
                "{}/{}/{}/{}: {}",
                row.fault,
                row.workload,
                row.engine,
                row.level,
                row.outcome
            );
        }
        assert!(report.passed());
        assert_eq!(report.leaked(), 0);
        let rendered = render(&report);
        assert!(rendered.contains("PASS (100% detected, 0% leaked)"), "{rendered}");
    }

    #[test]
    fn a_leaking_outcome_is_classified_not_masked() {
        // An accounting fault with the checker OFF completes with
        // perturbed statistics — exactly the silent poisoning the
        // campaign exists to catch. Classify (don't run) such a case to
        // pin the LeakedStats path.
        let case = Case {
            fault: FaultInjection::LeakOperandBuffer { cycle: 0 },
            workload: Workload::PingPong,
            single_stepped: true,
            level: CheckLevel::Off,
            expect: Expect::Invariant("otb-accounting"),
        };
        let row = run_case(&case, DEFAULT_WATCHDOG_SECONDS).unwrap();
        assert!(
            matches!(row.outcome, Outcome::LeakedStats { .. } | Outcome::NotTriggered),
            "unchecked leak must classify as leaked/not-triggered, got {}",
            row.outcome
        );
    }
}
