//! Microarchitectural timing checks: Table 1 latencies and issue limits
//! as observed end to end through the simulator.

use mcl_core::{EventKind, Processor, ProcessorConfig};
use mcl_isa::ArchReg;
use mcl_trace::vm::trace_program_packed;
use mcl_trace::ProgramBuilder;

fn events_of(
    program: &mcl_trace::Program<ArchReg>,
    cfg: ProcessorConfig,
) -> mcl_core::EventLog {
    let (trace, _) = trace_program_packed(program, 0).expect("traces");
    let mut log = mcl_core::EventLog::new();
    Processor::new(cfg).run_packed_observed(&trace, &mut log).expect("simulates");
    log
}

fn issue_cycle(events: &mcl_core::EventLog, seq: u64) -> u64 {
    events
        .for_seq(seq)
        .find(|e| e.kind == EventKind::MasterIssued)
        .map(|e| e.cycle)
        .unwrap_or_else(|| panic!("instruction #{seq} never issued"))
}

#[test]
fn dependent_alu_ops_issue_back_to_back() {
    let mut b = ProgramBuilder::<ArchReg>::new("alu-chain");
    let r = ArchReg::int(2);
    b.lda(r, 1);
    b.addq_imm(r, r, 1);
    b.addq_imm(r, r, 1);
    let p = b.finish().unwrap();
    let ev = events_of(&p, ProcessorConfig::single_cluster_8way());
    assert_eq!(issue_cycle(&ev, 1) + 1, issue_cycle(&ev, 2), "1-cycle ALU bypass");
}

#[test]
fn integer_multiply_takes_six_cycles() {
    let mut b = ProgramBuilder::<ArchReg>::new("mul");
    let r = ArchReg::int(2);
    let d = ArchReg::int(4);
    b.lda(r, 3);
    b.mulq(d, r, r);
    b.addq_imm(d, d, 1); // dependent on the multiply
    let p = b.finish().unwrap();
    let ev = events_of(&p, ProcessorConfig::single_cluster_8way());
    assert_eq!(issue_cycle(&ev, 1) + 6, issue_cycle(&ev, 2));
}

#[test]
fn load_delay_slot_costs_an_extra_cycle() {
    // A dependent use of a load issues two cycles after it (1-cycle unit
    // latency + the single load-delay slot), once the line is warm.
    let mut b = ProgramBuilder::<ArchReg>::new("load-use");
    let base = ArchReg::int(2);
    let v = ArchReg::int(4);
    let d = ArchReg::int(6);
    b.lda(base, 0x4000);
    b.lda(v, 9);
    b.stq(base, 0, v); // warm the line
    for _ in 0..10 {
        b.addq_imm(v, v, 0) // spacing so the fill completes
    }
    b.ldq(d, base, 0);
    b.addq_imm(d, d, 1);
    let p = b.finish().unwrap();
    let ev = events_of(&p, ProcessorConfig::single_cluster_8way());
    let load_seq = 13;
    let use_seq = 14;
    assert_eq!(issue_cycle(&ev, load_seq) + 2, issue_cycle(&ev, use_seq));
}

#[test]
fn fp_divide_serialises_on_one_divider() {
    // Two independent divides on a machine with a single divider: the
    // second cannot start until the first's 16 cycles elapse.
    let mut b = ProgramBuilder::<ArchReg>::new("div2");
    let f0 = ArchReg::fp(0);
    let f2 = ArchReg::fp(2);
    let f4 = ArchReg::fp(4);
    let f6 = ArchReg::fp(6);
    let ti = ArchReg::int(2);
    b.lda(ti, 3);
    b.cvtqt(f0, ti);
    b.cvtqt(f2, ti);
    b.divt(f4, f0, f2);
    b.divt(f6, f2, f0);
    let p = b.finish().unwrap();
    let mut cfg = ProcessorConfig::single_cluster_8way();
    cfg.fp_dividers = 1;
    let ev = events_of(&p, cfg);
    let first = issue_cycle(&ev, 3).min(issue_cycle(&ev, 4));
    let second = issue_cycle(&ev, 3).max(issue_cycle(&ev, 4));
    assert!(second >= first + 16, "divider is unpipelined: {first} vs {second}");

    // With two dividers they overlap.
    let mut cfg2 = ProcessorConfig::single_cluster_8way();
    cfg2.fp_dividers = 2;
    let ev2 = events_of(&p, cfg2);
    let a = issue_cycle(&ev2, 3);
    let b2 = issue_cycle(&ev2, 4);
    assert!(a.abs_diff(b2) < 16, "two dividers overlap: {a} vs {b2}");
}

#[test]
fn issue_width_limits_are_respected_cycle_by_cycle() {
    // 32 independent adds on one cluster cannot issue faster than the
    // per-cluster width.
    let mut b = ProgramBuilder::<ArchReg>::new("width");
    for i in 0..8u8 {
        b.lda(ArchReg::int(i * 2), i64::from(i));
    }
    for _ in 0..4 {
        for i in 0..8u8 {
            let r = ArchReg::int(i * 2);
            b.addq_imm(r, r, 1);
        }
    }
    let p = b.finish().unwrap();
    let ev = events_of(&p, ProcessorConfig::dual_cluster_8way());
    // Count issues per (cycle, cluster).
    use std::collections::HashMap;
    let mut per: HashMap<(u64, usize), u32> = HashMap::new();
    for e in ev.events() {
        if matches!(e.kind, EventKind::MasterIssued | EventKind::SlaveIssued) {
            let cluster = e.cluster.expect("issue has a cluster").index();
            *per.entry((e.cycle, cluster)).or_default() += 1;
        }
    }
    for ((cycle, cluster), count) in per {
        assert!(count <= 4, "cluster {cluster} issued {count} at cycle {cycle}");
    }
}

#[test]
fn retire_width_limits_are_respected() {
    let mut b = ProgramBuilder::<ArchReg>::new("retire");
    for i in 0..8u8 {
        b.lda(ArchReg::int(i * 2), 1);
    }
    for _ in 0..8 {
        for i in 0..8u8 {
            let r = ArchReg::int(i * 2);
            b.addq_imm(r, r, 1);
        }
    }
    let p = b.finish().unwrap();
    let ev = events_of(&p, ProcessorConfig::single_cluster_8way());
    use std::collections::HashMap;
    let mut per: HashMap<u64, u32> = HashMap::new();
    for e in ev.events() {
        if e.kind == EventKind::Retired {
            *per.entry(e.cycle).or_default() += 1;
        }
    }
    assert!(per.values().all(|&c| c <= 8), "retire width exceeded: {per:?}");
    assert_eq!(per.values().sum::<u32>(), 72);
}

#[test]
fn stores_do_not_block_retirement_on_misses() {
    // A store miss must not stall the pipeline behind it (non-blocking
    // stores, unlimited write bandwidth).
    let mut b = ProgramBuilder::<ArchReg>::new("store-miss");
    let base = ArchReg::int(2);
    let v = ArchReg::int(4);
    b.lda(base, 0x20_0000);
    b.lda(v, 5);
    b.stq(base, 0, v); // cold miss
    for _ in 0..20 {
        b.addq_imm(v, v, 1);
    }
    let p = b.finish().unwrap();
    let with_store = Processor::new(ProcessorConfig::single_cluster_8way())
        .run_program(&p)
        .unwrap();

    // The same program with the store replaced by an independent add.
    let mut b = ProgramBuilder::<ArchReg>::new("no-store");
    let scratch = ArchReg::int(6);
    b.lda(base, 0x20_0000);
    b.lda(v, 5);
    b.addq_imm(scratch, base, 0);
    for _ in 0..20 {
        b.addq_imm(v, v, 1);
    }
    let q = b.finish().unwrap();
    let without_store = Processor::new(ProcessorConfig::single_cluster_8way())
        .run_program(&q)
        .unwrap();

    // A non-blocking store's 16-cycle fill must not appear in the
    // critical path: the two runs differ by at most a couple of cycles.
    assert!(
        with_store.stats.cycles <= without_store.stats.cycles + 3,
        "store miss stalled the pipeline: {} vs {}",
        with_store.stats.cycles,
        without_store.stats.cycles
    );
}
