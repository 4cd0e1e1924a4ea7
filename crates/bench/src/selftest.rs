//! Differential and fault-injection self-checks (`repro selftest`).
//!
//! Each check cross-validates two independent paths through the harness
//! that must agree, or injects a known fault and demands the safety net
//! catches it:
//!
//! - [`packed_vs_fat`] — simulating a [`PackedTrace`] must give exactly
//!   the statistics of simulating its unpacked [`mcl_trace::TraceOp`]
//!   form;
//! - [`store_vs_fresh`] — a memoized [`TraceStore`] simulation must
//!   equal a from-scratch schedule/trace/simulate of the same cell;
//! - [`jobs_agree`] — the worker pool at `--jobs N` must produce the
//!   payloads of a serial run;
//! - [`IDENTITY_SWEEPS`], run by [`identity_sweep`] — every benchmark ×
//!   scheduler × machine preset must satisfy the stall-accounting
//!   identity of [`mcl_core::stats::SimStats`] (every cycle lands in
//!   exactly one dispatch/drain/stall bucket), and, rerun as a companion
//!   of each probe tool, that tool's identity without perturbing the
//!   statistics: critical-path attribution (per-cause cycles sum exactly
//!   to total cycles), pipetrace retire exactness (every retired op
//!   recorded exactly once, monotone lifecycle stamps, well-formed
//!   dataflow edges, count equal to the simulator's retirements) and
//!   the host profile's sum-to-elapsed identity;
//! - [`fuzz_checker`] — randomized straightline programs (deterministic
//!   [`mcl_testutil::Rng`] seeds) run under the cycle-level invariant
//!   checker on both machine presets, and the checker must neither fire
//!   nor perturb the statistics;
//! - [`leak_fault_caught`] — an injected transfer-buffer leak
//!   ([`FaultInjection`]) must surface as `SimError::Invariant`;
//! - [`corrupt_packed_rejected`] — corrupted or truncated serialized
//!   traces must fail [`PackedTrace::from_bytes`] with the right typed
//!   error;
//! - [`store_recovery`] — an on-disk [`crate::PersistStore`] entry
//!   truncated mid-file (a simulated kill during a non-atomic write)
//!   must be quarantined and transparently recomputed with
//!   byte-identical statistics, and the recomputed entry must serve
//!   warm afterwards.
//!
//! Every check returns its success detail plus the [`CellCost`] it
//! incurred, so `repro selftest` runs them as ordinary cells of the
//! hardened driver.

use mcl_core::{CheckLevel, FaultInjection, Processor, ProcessorConfig, SimError};
use mcl_isa::ArchReg;
use mcl_sched::SchedulerKind;
use mcl_testutil::Rng;
use mcl_trace::{vm::trace_program, PackedDecodeError, PackedTrace, Program, ProgramBuilder};
use mcl_workloads::Benchmark;

use crate::obs::{obs_err, Reference};
use crate::runner::{run_cells, Cell, CellCost};
use crate::{explain, pipetrace, profile};
use crate::{schedule_and_trace, simulate, Error, TraceRequest, TraceStore};

fn quick_scale(bench: Benchmark, divisor: u32) -> u32 {
    (bench.default_scale() / divisor.max(1)).max(1)
}

fn mismatch(what: &str, detail: String) -> Error {
    Error::SelfCheck(format!("{what}: {detail}"))
}

/// Simulating the packed and the unpacked form of one trace must give
/// identical statistics.
///
/// # Errors
///
/// [`Error::SelfCheck`] on divergence; simulation errors propagate.
pub fn packed_vs_fat(divisor: u32) -> Result<(String, CellCost), Error> {
    let bench = Benchmark::Compress;
    let store = TraceStore::new();
    let req = TraceRequest::new(bench, quick_scale(bench, divisor), SchedulerKind::Naive);
    let packed = store.trace(&req)?;
    let cfg = ProcessorConfig::dual_cluster_8way();
    let from_packed = Processor::new(cfg.clone()).run_packed(&packed)?.stats;
    let fat = packed.to_ops();
    let from_fat = Processor::new(cfg).run_trace(&fat)?.stats;
    if from_packed != from_fat {
        return Err(mismatch(
            "packed-vs-fat",
            format!("packed {} cycles, fat {} cycles", from_packed.cycles, from_fat.cycles),
        ));
    }
    let cost = CellCost::cycles(from_packed.cycles + from_fat.cycles);
    Ok((format!("{} ops, {} cycles, stats identical", fat.len(), from_packed.cycles), cost))
}

/// A memoized [`TraceStore`] simulation must equal an independent
/// schedule → trace → simulate pipeline.
///
/// # Errors
///
/// [`Error::SelfCheck`] on divergence; pipeline errors propagate.
pub fn store_vs_fresh(divisor: u32) -> Result<(String, CellCost), Error> {
    let bench = Benchmark::Ora;
    let scale = quick_scale(bench, divisor);
    let store = TraceStore::new();
    let req = TraceRequest::new(bench, scale, SchedulerKind::Local);
    let cfg = ProcessorConfig::dual_cluster_8way();
    let memoized = store.sim(&req, &cfg)?;

    let il = store.il(bench, scale);
    let fresh_trace = schedule_and_trace(&il, SchedulerKind::Local, store.assignment(), None)?;
    let fresh = simulate(&cfg, &fresh_trace)?;
    if memoized.stats != fresh {
        return Err(mismatch(
            "store-vs-fresh",
            format!("store {} cycles, fresh {} cycles", memoized.stats.cycles, fresh.cycles),
        ));
    }
    let mut cost = CellCost::cycles(fresh.cycles);
    cost.charge_sim(&memoized);
    Ok((format!("{} cycles from both paths", fresh.cycles), cost))
}

/// The worker pool must return serial-run payloads at any job count.
///
/// # Errors
///
/// [`Error::SelfCheck`] on divergence; cell errors propagate.
pub fn jobs_agree(divisor: u32) -> Result<(String, CellCost), Error> {
    fn cycle_cells(divisor: u32) -> Vec<Cell<u64>> {
        let store = std::sync::Arc::new(TraceStore::new());
        [Benchmark::Compress, Benchmark::Ora, Benchmark::Tomcatv]
            .into_iter()
            .flat_map(|bench| {
                [ProcessorConfig::single_cluster_8way(), ProcessorConfig::dual_cluster_8way()]
                    .into_iter()
                    .enumerate()
                    .map({
                        let store = std::sync::Arc::clone(&store);
                        move |(i, cfg)| {
                            let store = std::sync::Arc::clone(&store);
                            Cell::new(format!("{}/{i}", bench.name()), move || {
                                let req = TraceRequest::new(
                                    bench,
                                    quick_scale(bench, divisor),
                                    SchedulerKind::Naive,
                                );
                                let product = store.sim(&req, &cfg)?;
                                let mut cost = CellCost::default();
                                cost.charge_sim(&product);
                                Ok((product.stats.cycles, cost))
                            })
                        }
                    })
            })
            .collect()
    }

    let (serial, serial_metrics) = run_cells(1, cycle_cells(divisor))?;
    let (parallel, _) = run_cells(4, cycle_cells(divisor))?;
    if serial != parallel {
        return Err(mismatch("jobs-agree", format!("serial {serial:?} vs parallel {parallel:?}")));
    }
    let cost = CellCost::cycles(serial_metrics.iter().map(|m| m.simulated_cycles).sum());
    Ok((format!("{} cells agree between --jobs 1 and --jobs 4", serial.len()), cost))
}

/// A check one cell of an identity sweep must pass: the cell's stem,
/// configuration, store and request, and the cost to charge.
type CellCheck =
    fn(&str, &ProcessorConfig, &TraceStore, &TraceRequest, &mut CellCost) -> Result<(), Error>;

/// One identity sweep of `repro selftest`: a check every benchmark ×
/// scheduler × machine preset cell must pass.
#[derive(Clone, Copy)]
pub struct IdentitySweep {
    /// The selftest cell name.
    pub name: &'static str,
    /// What the success detail says of the swept cells.
    outcome: &'static str,
    check: CellCheck,
}

/// The identity sweeps. The stall sweep checks the stall-accounting
/// identity of the store's run ([`mcl_core::SimStats::check_stall_identity`]);
/// the others rerun each cell as a companion of one probe tool, through
/// the same identity function that tool's `repro` cells use. The
/// tiny-buffer preset forces replay exceptions through every probe.
pub const IDENTITY_SWEEPS: [IdentitySweep; 4] = [
    IdentitySweep {
        name: "stall-identity",
        outcome: "cells balance",
        check: |stem, cfg, store, req, cost| {
            let product = store.sim(req, cfg)?;
            cost.charge_sim(&product);
            product.stats.check_stall_identity().map_err(|e| obs_err(stem, e))
        },
    },
    IdentitySweep {
        name: "critpath-identity",
        outcome: "attributions balance",
        check: |stem, cfg, store, req, cost| {
            explain::attribute(stem, cfg, Reference::Store(store, req, cost)).map(drop)
        },
    },
    IdentitySweep {
        name: "pipetrace-identity",
        outcome: "lifecycles exact",
        check: |stem, cfg, store, req, cost| {
            pipetrace::record(stem, cfg, Reference::Store(store, req, cost), (0, u64::MAX))
                .map(drop)
        },
    },
    IdentitySweep {
        name: "hostprof-identity",
        outcome: "profiles balance",
        check: |stem, cfg, store, req, cost| {
            profile::profile(stem, cfg, Reference::Store(store, req, cost)).map(drop)
        },
    },
];

/// Single-cluster, dual-cluster, and dual-cluster with one-entry
/// transfer buffers (which forces replay exceptions).
fn presets() -> [(&'static str, ProcessorConfig); 3] {
    let mut tiny = ProcessorConfig::dual_cluster_8way();
    tiny.operand_buffer = 1;
    tiny.result_buffer = 1;
    [
        ("single", ProcessorConfig::single_cluster_8way()),
        ("dual", ProcessorConfig::dual_cluster_8way()),
        ("dual-tiny-buffers", tiny),
    ]
}

/// Runs `sweep`'s check on every benchmark × scheduler × machine preset.
///
/// # Errors
///
/// [`Error::SelfCheck`] naming the sweep and the first failing cell;
/// harness errors propagate.
pub fn identity_sweep(divisor: u32, sweep: IdentitySweep) -> Result<(String, CellCost), Error> {
    let presets = presets();
    let store = TraceStore::new();
    let mut cost = CellCost::default();
    let mut cells = 0u32;
    for bench in Benchmark::ALL {
        for kind in [SchedulerKind::Naive, SchedulerKind::Local] {
            let req = TraceRequest::new(bench, quick_scale(bench, divisor), kind);
            for (preset, cfg) in &presets {
                let stem = format!("{}/{kind:?}/{preset}", bench.name());
                (sweep.check)(&stem, cfg, &store, &req, &mut cost).map_err(|e| match e {
                    Error::Obs(detail) => mismatch(sweep.name, detail),
                    e => e,
                })?;
                cells += 1;
            }
        }
    }
    Ok((format!("{cells} benchmark × scheduler × preset {}", sweep.outcome), cost))
}

/// A random but valid straightline program: integer and floating-point
/// ALU traffic over registers of both clusters, so dual distribution,
/// transfer buffers, suspended slaves, and (with tiny buffers) replays
/// all get exercised.
fn random_program(rng: &mut Rng) -> Program<ArchReg> {
    let mut b = ProgramBuilder::<ArchReg>::new("fuzz");
    // Avoid the architecturally special registers: GP/SP (29/30) and the
    // hardwired zeros (31).
    let int = |rng: &mut Rng| ArchReg::int(rng.range(0, 29) as u8);
    let fp = |rng: &mut Rng| ArchReg::fp(rng.range(0, 31) as u8);
    for i in 0..6 {
        b.lda(ArchReg::int(i), rng.range_i64(-1000, 1000));
    }
    for _ in 0..rng.range(4, 48) {
        match rng.below(6) {
            0 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.addq(d, a, s);
            }
            1 => {
                let (d, a) = (int(rng), int(rng));
                let imm = rng.range_i64(-128, 128);
                b.addq_imm(d, a, imm);
            }
            2 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.mulq(d, a, s);
            }
            3 | 4 => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.addt(d, a, s);
            }
            _ => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.mult(d, a, s);
            }
        }
    }
    b.finish().expect("generated programs are structurally valid")
}

/// Runs `cases` random programs under the cycle-level checker on both
/// machine presets (plus a tiny-buffer dual machine that forces replay
/// exceptions through the checker) and demands a clean, unperturbed run.
///
/// # Errors
///
/// [`Error::SelfCheck`] if the checker fires on, or perturbs, a valid
/// program.
pub fn fuzz_checker(cases: u64) -> Result<(String, CellCost), Error> {
    let presets = presets();
    let mut cost = CellCost::default();
    for seed in 0..cases {
        let mut rng = Rng::new(seed);
        let program = random_program(&mut rng);
        let (trace, _) = trace_program(&program).map_err(Error::Vm)?;
        for (_, cfg) in &presets {
            let baseline = Processor::new(cfg.clone())
                .run_trace(&trace)
                .map_err(|e| mismatch("fuzz-checker", format!("seed {seed} failed plain: {e}")))?
                .stats;
            let checked = Processor::new(cfg.clone())
                .checked(CheckLevel::Cycle)
                .run_trace(&trace)
                .map_err(|e| {
                    mismatch("fuzz-checker", format!("seed {seed} tripped the checker: {e}"))
                })?
                .stats;
            if checked != baseline {
                return Err(mismatch(
                    "fuzz-checker",
                    format!(
                        "seed {seed}: checker perturbed the run ({} vs {} cycles)",
                        checked.cycles, baseline.cycles
                    ),
                ));
            }
            cost.simulated_cycles += baseline.cycles + checked.cycles;
        }
    }
    Ok((format!("{cases} random programs validated on {} presets", presets.len()), cost))
}

/// Injects transfer-buffer leaks and demands the cycle-level checker
/// reports them as invariant violations.
///
/// # Errors
///
/// [`Error::SelfCheck`] if a leak goes unnoticed or is misattributed.
pub fn leak_fault_caught() -> Result<(String, CellCost), Error> {
    // Alternating even/odd destinations: every add crosses clusters.
    let mut b = ProgramBuilder::<ArchReg>::new("leak");
    let (e, o) = (ArchReg::int(2), ArchReg::int(3));
    b.lda(e, 0);
    for _ in 0..20 {
        b.addq_imm(o, e, 1);
        b.addq_imm(e, o, 1);
    }
    let program = b.finish().expect("valid");

    let faults = [
        (FaultInjection::LeakOperandBuffer { cycle: 0 }, "otb-accounting"),
        (FaultInjection::LeakResultBuffer { cycle: 0 }, "rtb-accounting"),
    ];
    for (fault, want_rule) in faults {
        let mut processor = Processor::new(ProcessorConfig::dual_cluster_8way())
            .checked(CheckLevel::Cycle)
            .with_faults(vec![fault.clone()]);
        match processor.run_program(&program) {
            Err(SimError::Invariant { rule, .. }) if rule == want_rule => {}
            Err(SimError::Invariant { rule, .. }) => {
                return Err(mismatch(
                    "leak-fault",
                    format!("{fault:?} reported as `{rule}`, expected `{want_rule}`"),
                ));
            }
            Err(e) => {
                return Err(mismatch("leak-fault", format!("{fault:?} surfaced as {e}")));
            }
            Ok(_) => {
                return Err(mismatch(
                    "leak-fault",
                    format!("checker missed the injected {fault:?}"),
                ));
            }
        }
    }
    Ok(("operand and result leaks both caught as invariant violations".to_owned(),
        CellCost::default()))
}

/// Corrupts a serialized trace and demands typed decode errors.
///
/// # Errors
///
/// [`Error::SelfCheck`] if corruption decodes successfully or fails with
/// the wrong error.
pub fn corrupt_packed_rejected() -> Result<(String, CellCost), Error> {
    let mut b = ProgramBuilder::<ArchReg>::new("wire");
    b.lda(ArchReg::int(2), 7);
    b.addq_imm(ArchReg::int(3), ArchReg::int(2), 1);
    b.mulq(ArchReg::int(4), ArchReg::int(3), ArchReg::int(2));
    let program = b.finish().expect("valid");
    let (trace, _) = trace_program(&program).map_err(Error::Vm)?;
    let packed = PackedTrace::from_ops(&trace);
    let good = packed.to_bytes();

    if PackedTrace::from_bytes(&good).as_ref() != Ok(&packed) {
        return Err(mismatch("corrupt-packed", "clean bytes failed to round-trip".to_owned()));
    }

    // No opcode has code 0xFF; record 1's opcode byte sits after the
    // 16 pc/aux bytes.
    let mut bad_op = good.clone();
    bad_op[PackedTrace::WIRE_BYTES_PER_OP + 16] = u8::MAX;
    match PackedTrace::from_bytes(&bad_op) {
        Err(PackedDecodeError::BadOpcode { index: 1, code: u8::MAX }) => {}
        other => {
            return Err(mismatch(
                "corrupt-packed",
                format!("opcode corruption decoded as {other:?}"),
            ));
        }
    }

    let truncated = &good[..good.len() - 3];
    match PackedTrace::from_bytes(truncated) {
        Err(PackedDecodeError::Truncated { .. }) => {}
        other => {
            return Err(mismatch("corrupt-packed", format!("truncation decoded as {other:?}")));
        }
    }
    Ok(("opcode corruption and truncation both rejected with typed errors".to_owned(),
        CellCost::default()))
}

/// Truncates a persisted store entry mid-file and demands quarantine,
/// transparent recomputation with identical statistics, and a warm
/// serve of the recomputed entry.
///
/// This is the crash-recovery drill for [`crate::PersistStore`]: the
/// store's own writes are atomic (temp file + rename), so a torn entry
/// can only come from outside interference — which is exactly what this
/// stage manufactures.
///
/// # Errors
///
/// [`Error::SelfCheck`] if the corruption is served, errors out, or the
/// recomputed statistics diverge.
pub fn store_recovery(divisor: u32) -> Result<(String, CellCost), Error> {
    use std::sync::Arc;

    use crate::PersistStore;

    let bench = Benchmark::Compress;
    let req = TraceRequest::new(bench, quick_scale(bench, divisor), SchedulerKind::Local);
    let cfg = ProcessorConfig::dual_cluster_8way();
    let dir = std::env::temp_dir()
        .join(format!("mcl-selftest-store-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fail = |detail: String| mismatch("store-recovery", detail);
    let open = |what: &str| -> Result<Arc<PersistStore>, Error> {
        PersistStore::open(&dir).map(Arc::new).map_err(|e| fail(format!("{what}: {e}")))
    };

    // "Process" 1 (cold): compute and persist the entry.
    let cold = TraceStore::new().with_persist(open("cold open")?).sim(&req, &cfg)?;
    let mut cost = CellCost::default();
    cost.charge_sim(&cold);

    // Kill-mid-write: truncate the entry in place. The store's own
    // writes are temp-file + rename, so this torn state models external
    // corruption (or a crashed copy), not a normal store.
    let entries = dir.join("entries");
    let entry = std::fs::read_dir(&entries)
        .map_err(|e| fail(format!("reading {}: {e}", entries.display())))?
        .filter_map(Result::ok)
        .map(|d| d.path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .ok_or_else(|| fail("no entry persisted by the cold run".to_owned()))?;
    let full_len = std::fs::metadata(&entry).map_err(|e| fail(e.to_string()))?.len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&entry)
        .and_then(|f| f.set_len(full_len / 2))
        .map_err(|e| fail(format!("truncating {}: {e}", entry.display())))?;

    // "Process" 2 (warm, corrupted): must quarantine, recompute
    // identical statistics, and re-persist.
    let persist = open("post-truncation open")?;
    let warm = TraceStore::new().with_persist(Arc::clone(&persist)).sim(&req, &cfg)?;
    cost.charge_sim(&warm);
    if warm.stats != cold.stats {
        return Err(fail(format!(
            "recomputed stats diverged ({} vs {} cycles)",
            warm.stats.cycles, cold.stats.cycles
        )));
    }
    let c = persist.counters();
    if c.quarantined != 1 || persist.quarantine_len() != 1 {
        return Err(fail(format!(
            "expected exactly one quarantined entry, counters say {} (dir has {})",
            c.quarantined,
            persist.quarantine_len()
        )));
    }
    if c.stores != 1 {
        return Err(fail(format!("recomputed result not re-persisted (stores = {})", c.stores)));
    }

    // "Process" 3: the recomputed entry now serves warm from disk.
    let persist = open("recovered open")?;
    let served = TraceStore::new().with_persist(Arc::clone(&persist)).sim(&req, &cfg)?;
    if served.stats != cold.stats {
        return Err(fail(format!(
            "recovered entry served different stats ({} vs {} cycles)",
            served.stats.cycles, cold.stats.cycles
        )));
    }
    if served.fresh || persist.counters().hits != 1 {
        return Err(fail("recovered entry was not served from disk".to_owned()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        "truncated entry quarantined, recomputed identically, and re-served warm".to_owned(),
        cost,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_injection_checks_pass() {
        leak_fault_caught().unwrap();
        corrupt_packed_rejected().unwrap();
    }

    #[test]
    fn fuzzing_a_few_seeds_is_clean() {
        let (detail, cost) = fuzz_checker(6).unwrap();
        assert!(detail.contains("6 random programs"));
        assert!(cost.simulated_cycles > 0);
    }

    #[test]
    fn differential_checks_pass_at_a_coarse_scale() {
        let divisor = 64;
        packed_vs_fat(divisor).unwrap();
        store_vs_fresh(divisor).unwrap();
        jobs_agree(divisor).unwrap();
    }

    fn sweep_holds_at_a_coarse_scale(name: &str) {
        let sweep = IDENTITY_SWEEPS.into_iter().find(|s| s.name == name).unwrap();
        let (detail, cost) = identity_sweep(64, sweep).unwrap();
        assert!(detail.contains("36 benchmark"), "{detail}");
        assert!(cost.simulated_cycles > 0);
    }

    #[test]
    fn stall_identity_holds_at_a_coarse_scale() {
        sweep_holds_at_a_coarse_scale("stall-identity");
    }

    #[test]
    fn critpath_identity_holds_at_a_coarse_scale() {
        sweep_holds_at_a_coarse_scale("critpath-identity");
    }

    #[test]
    fn pipetrace_identity_holds_at_a_coarse_scale() {
        sweep_holds_at_a_coarse_scale("pipetrace-identity");
    }

    #[test]
    fn hostprof_identity_holds_at_a_coarse_scale() {
        sweep_holds_at_a_coarse_scale("hostprof-identity");
    }

    #[test]
    fn store_recovery_quarantines_and_recomputes() {
        let (detail, cost) = store_recovery(64).unwrap();
        assert!(detail.contains("quarantined"), "{detail}");
        assert!(cost.simulated_cycles > 0);
    }
}
