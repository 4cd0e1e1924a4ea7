//! Observability-layer integration tests: probes observe without
//! perturbing, the hook streams are self-consistent, and every run
//! satisfies the stall-accounting identity documented in `stats.rs`.

use mcl_core::config::ReassignmentPoint;
use mcl_core::obs::{ObsConfig, ObsProbe, StallCause};
use mcl_core::{Processor, ProcessorConfig, SimResult};
use mcl_isa::assign::{RegAssignment, RegisterAssignment};
use mcl_isa::{ArchReg, ClusterId};
use mcl_trace::vm::trace_program_packed;
use mcl_trace::{Layout, Program, ProgramBuilder};

/// A loop mixing cross-cluster dependences (forwarded operands and
/// results), loads, and a data-dependent branch the predictor gets
/// wrong now and then.
fn busy_program(rounds: u32) -> Program<ArchReg> {
    let mut b = ProgramBuilder::<ArchReg>::new("busy");
    let e0 = ArchReg::int(2); // even -> cluster 0
    let e2 = ArchReg::int(6);
    let o1 = ArchReg::int(3); // odd -> cluster 1
    let i = ArchReg::int(8);
    let body = b.new_block("body");
    let inc = b.new_block("inc");
    let skip = b.new_block("skip");
    b.lda(e0, 1);
    b.lda(o1, 2);
    b.lda(i, i64::from(rounds));
    b.switch_to(body);
    b.addq(e2, e0, o1); // operand forward
    b.addq(o1, e0, e2); // result forward
    b.ldq(e0, e2, 0); // load
    b.mulq(e2, e2, e2);
    b.blt(e2, skip); // data-dependent branch
    b.switch_to(inc);
    b.addq_imm(e0, e0, 1);
    b.switch_to(skip);
    b.subq_imm(i, i, 1);
    b.bne(i, body);
    b.finish().expect("valid program")
}

/// The replay-provoking program from the replay tests: a one-entry
/// operand buffer deadlocks and only a replay exception breaks it.
fn deadlock_program() -> Program<ArchReg> {
    let mut b = ProgramBuilder::<ArchReg>::new("otb-deadlock");
    let r3 = ArchReg::int(3);
    let r5 = ArchReg::int(5);
    let r4 = ArchReg::int(4);
    let r2 = ArchReg::int(2);
    let r6 = ArchReg::int(6);
    b.lda(r3, 7);
    b.lda(r4, 9);
    b.lda(r5, 3);
    b.mulq(r5, r5, r5);
    b.mulq(r5, r5, r5);
    b.mulq(r5, r5, r5);
    b.addq(r2, r4, r5);
    b.addq(r6, r2, r3);
    b.finish().expect("valid program")
}

/// Runs `program` twice on `cfg` — bare and with an [`ObsProbe`] — and
/// asserts byte-identical statistics before returning both the result
/// and the finished probe.
fn run_observed(program: &Program<ArchReg>, cfg: ProcessorConfig) -> (SimResult, ObsProbe) {
    let (trace, _profile) = trace_program_packed(program, 0).expect("traces");
    let bare = Processor::new(cfg.clone()).run_packed(&trace).expect("bare run");
    let mut probe = ObsProbe::new(ObsConfig { sample_interval: 64, ring_capacity: 256 });
    let observed = Processor::new(cfg)
        .run_packed_observed(&trace, &mut probe)
        .expect("observed run");
    assert_eq!(bare.stats, observed.stats, "probes must observe, never perturb");
    probe.finish();
    (observed, probe)
}

fn check_probe_consistency(result: &SimResult, probe: &ObsProbe) {
    let stats = &result.stats;
    stats.check_stall_identity().expect("stall identity");

    // The sampler's deltas cover the whole run.
    let samples = probe.samples();
    assert_eq!(samples.iter().map(|s| s.cycles).sum::<u64>(), stats.cycles);
    assert_eq!(samples.iter().map(|s| s.retired).sum::<u64>(), stats.retired);
    assert_eq!(
        samples.iter().map(|s| s.dispatched).sum::<u64>(),
        stats.single_distributed + stats.dual_distributed,
    );
    assert_eq!(samples.iter().map(|s| s.replays).sum::<u64>(), stats.replays);
    assert_eq!(
        samples.iter().map(|s| s.stalls.iter().sum::<u64>()).sum::<u64>(),
        stats.stall_cycles(),
    );
    // Per cause, too: a cause swapped at a charge site would keep the
    // total and fail here.
    let sampled = |cause: StallCause| samples.iter().map(|s| s.stalls[cause.index()]).sum::<u64>();
    for cause in StallCause::ALL {
        let counter = match cause {
            StallCause::Icache => stats.stall_icache,
            StallCause::BranchWait | StallCause::BranchRedirect => stats.stall_branch,
            StallCause::DispatchQueue => stats.stall_dq,
            StallCause::Registers => stats.stall_regs,
            StallCause::Replay => stats.stall_replay,
            StallCause::Reassign => stats.stall_reassign,
        };
        let probed = match cause {
            StallCause::BranchWait | StallCause::BranchRedirect => {
                sampled(StallCause::BranchWait) + sampled(StallCause::BranchRedirect)
            }
            _ => sampled(cause),
        };
        assert_eq!(probed, counter, "sampled {cause:?} stalls vs their SimStats counter");
    }
    assert_eq!(probe.last_cycle() + 1, stats.cycles);

    // Latency histograms: one retire latency per retired instruction;
    // dispatch->issue counts master issues of surviving incarnations.
    assert_eq!(probe.complete_to_retire().count(), stats.retired);
    assert!(probe.dispatch_to_issue().count() >= stats.retired);
    assert_eq!(probe.dispatch_to_issue().count(), probe.issue_to_complete().count());

    // The ring is bounded and retains the youngest tail.
    assert!(probe.ring().len() <= probe.ring().capacity());
}

#[test]
fn observed_single_cluster_run_matches_and_balances() {
    let program = busy_program(300);
    let (result, probe) = run_observed(&program, ProcessorConfig::single_cluster_8way());
    check_probe_consistency(&result, &probe);
    assert!(result.stats.mispredicts > 0, "branchy loop mispredicts: {:?}", result.stats);
}

#[test]
fn observed_dual_cluster_run_measures_transfers() {
    let program = busy_program(300);
    let (result, probe) = run_observed(&program, ProcessorConfig::dual_cluster_8way());
    check_probe_consistency(&result, &probe);
    assert!(result.stats.operands_forwarded > 0);
    assert!(result.stats.results_forwarded > 0);
    // Each transfer-buffer entry allocated by a surviving instruction
    // pairs an alloc with a release; residency is at least one cycle.
    assert!(probe.otb_residency().count() > 0, "operand residency measured");
    assert!(probe.rtb_residency().count() > 0, "result residency measured");
    assert!(probe.otb_residency().min().unwrap_or(0) >= 1);
    assert!(probe.rtb_residency().min().unwrap_or(0) >= 1);
    // Occupancy snapshots stay within configured capacities.
    let cfg = ProcessorConfig::dual_cluster_8way();
    for s in probe.samples() {
        for c in 0..2 {
            assert!(s.dq_used[c] <= cfg.dq_entries);
            assert!(s.otb_used[c] <= cfg.operand_buffer);
            assert!(s.rtb_used[c] <= cfg.result_buffer);
        }
    }
}

#[test]
fn observed_replay_run_stays_identical_and_balances() {
    let mut cfg = ProcessorConfig::dual_cluster_8way();
    cfg.operand_buffer = 1;
    cfg.result_buffer = 1;
    let program = deadlock_program();
    let (result, probe) = run_observed(&program, cfg);
    check_probe_consistency(&result, &probe);
    assert!(result.stats.replays >= 1, "{:?}", result.stats);
    assert!(result.stats.stall_replay > 0, "{:?}", result.stats);
}

#[test]
fn observed_reassignment_run_stays_identical_and_balances() {
    let mut b = ProgramBuilder::<ArchReg>::new("two-phase");
    let r2 = ArchReg::int(2);
    let r3 = ArchReg::int(3);
    let i = ArchReg::int(4);
    let body = b.new_block("body");
    b.lda(r2, 0);
    b.lda(r3, 1);
    b.lda(i, 60);
    b.switch_to(body);
    for _ in 0..4 {
        b.addq(r2, r2, r3);
        b.addq(r3, r3, r2);
    }
    b.subq_imm(i, i, 1);
    b.bne(i, body);
    let program = b.finish().expect("valid");

    let pinned = RegisterAssignment::from_fn(2, |reg| {
        if reg == ArchReg::SP || reg == ArchReg::GP {
            RegAssignment::Global
        } else if reg == ArchReg::int(3) {
            RegAssignment::Local(ClusterId::C0)
        } else {
            RegAssignment::Local(ClusterId::new(reg.index() % 2))
        }
    });
    let mut cfg = ProcessorConfig::dual_cluster_8way();
    cfg.reassignments =
        vec![ReassignmentPoint { trigger_pc: Layout::CODE_BASE + 3 * 4, assignment: pinned }];
    let (result, probe) = run_observed(&program, cfg);
    check_probe_consistency(&result, &probe);
    assert_eq!(result.stats.reassignments, 1);
    assert!(result.stats.stall_reassign > 0, "{:?}", result.stats);
}

#[test]
fn ring_tail_renders_through_pipeview() {
    let program = busy_program(50);
    let (_, probe) = run_observed(&program, ProcessorConfig::dual_cluster_8way());
    let (lo, hi) = probe.ring().seq_range().expect("events retained");
    let log = probe.ring().to_log();
    let opts = mcl_core::PipeViewOptions { first_seq: lo, last_seq: hi, max_cycles: 160 };
    let rendered = mcl_core::render_pipeline(&log, opts);
    assert!(!rendered.is_empty());
}
