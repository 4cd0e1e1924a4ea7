//! Property-based tests over randomly generated programs: the
//! scheduling pipeline must preserve semantics, partitioning must be
//! total, and the simulator must retire exactly the trace.
//!
//! Cases are generated with the dependency-free [`mcl_testutil::Rng`]
//! (the build has no registry access, so `proptest` is unavailable);
//! seeds are fixed, so every run checks the same cases.

use multicluster::core::{Processor, ProcessorConfig};
use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{
    LocalScheduler, Partition, PartitionConfig, SchedulePipeline, SchedulerKind,
};
use multicluster::trace::{vm::trace_program_packed, Profile, Program, ProgramBuilder, Vm, Vreg};

use mcl_testutil::{check_cases, Rng};

/// One randomly chosen straight-line operation over a small register
/// pool.
#[derive(Debug, Clone)]
enum RandOp {
    Lda { dest: usize, imm: i64 },
    Add { dest: usize, a: usize, b: usize },
    Sub { dest: usize, a: usize, b: usize },
    Mul { dest: usize, a: usize, b: usize },
    Xor { dest: usize, a: usize, b: usize },
    Shift { dest: usize, a: usize, by: u8 },
    FCvt { dest: usize, a: usize },
    FAdd { dest: usize, a: usize, b: usize },
    FMul { dest: usize, a: usize, b: usize },
    Store { addr_slot: usize, val: usize },
    Load { dest: usize, addr_slot: usize },
}

const POOL: usize = 10;
const FPOOL: usize = 6;
const SLOTS: usize = 4;

fn rand_op(rng: &mut Rng) -> RandOp {
    match rng.range(0, 11) {
        0 => RandOp::Lda { dest: rng.range(0, POOL), imm: rng.range_i64(-1000, 1000) },
        1 => RandOp::Add { dest: rng.range(0, POOL), a: rng.range(0, POOL), b: rng.range(0, POOL) },
        2 => RandOp::Sub { dest: rng.range(0, POOL), a: rng.range(0, POOL), b: rng.range(0, POOL) },
        3 => RandOp::Mul { dest: rng.range(0, POOL), a: rng.range(0, POOL), b: rng.range(0, POOL) },
        4 => RandOp::Xor { dest: rng.range(0, POOL), a: rng.range(0, POOL), b: rng.range(0, POOL) },
        5 => RandOp::Shift {
            dest: rng.range(0, POOL),
            a: rng.range(0, POOL),
            by: rng.below(40) as u8,
        },
        6 => RandOp::FCvt { dest: rng.range(0, FPOOL), a: rng.range(0, POOL) },
        7 => RandOp::FAdd {
            dest: rng.range(0, FPOOL),
            a: rng.range(0, FPOOL),
            b: rng.range(0, FPOOL),
        },
        8 => RandOp::FMul {
            dest: rng.range(0, FPOOL),
            a: rng.range(0, FPOOL),
            b: rng.range(0, FPOOL),
        },
        9 => RandOp::Store { addr_slot: rng.range(0, SLOTS), val: rng.range(0, POOL) },
        _ => RandOp::Load { dest: rng.range(0, POOL), addr_slot: rng.range(0, SLOTS) },
    }
}

/// Builds a valid straight-line program from random operations and
/// returns it plus the observation addresses.
fn build_program(ops: &[RandOp]) -> (Program<Vreg>, Vec<u64>) {
    let mut b = ProgramBuilder::new("random");
    let ints: Vec<Vreg> = (0..POOL).map(|i| b.vreg_int(&format!("r{i}"))).collect();
    let fps: Vec<Vreg> = (0..FPOOL).map(|i| b.vreg_fp(&format!("f{i}"))).collect();
    // Give every register a defined initial value so reads are total.
    for (i, &v) in ints.iter().enumerate() {
        b.reg_init(v, i as u64 * 17 + 3);
    }
    for (i, &v) in fps.iter().enumerate() {
        b.reg_init(v, ((i + 1) as f64).to_bits());
    }
    let base = 0x5000u64;
    for op in ops {
        match *op {
            RandOp::Lda { dest, imm } => b.lda(ints[dest], imm),
            RandOp::Add { dest, a, b: c } => b.addq(ints[dest], ints[a], ints[c]),
            RandOp::Sub { dest, a, b: c } => b.subq(ints[dest], ints[a], ints[c]),
            RandOp::Mul { dest, a, b: c } => b.mulq(ints[dest], ints[a], ints[c]),
            RandOp::Xor { dest, a, b: c } => b.xor(ints[dest], ints[a], ints[c]),
            RandOp::Shift { dest, a, by } => b.sll_imm(ints[dest], ints[a], i64::from(by)),
            RandOp::FCvt { dest, a } => b.cvtqt(fps[dest], ints[a]),
            RandOp::FAdd { dest, a, b: c } => b.addt(fps[dest], fps[a], fps[c]),
            RandOp::FMul { dest, a, b: c } => b.mult(fps[dest], fps[a], fps[c]),
            RandOp::Store { addr_slot, val } => {
                let addr = b.vreg_int("addr");
                b.lda(addr, (base + addr_slot as u64 * 8) as i64);
                b.stq(addr, 0, ints[val]);
            }
            RandOp::Load { dest, addr_slot } => {
                let addr = b.vreg_int("addr");
                b.lda(addr, (base + addr_slot as u64 * 8) as i64);
                b.ldq(ints[dest], addr, 0);
            }
        }
    }
    // Publish every integer register so the whole state is observable.
    let out = b.vreg_int("out");
    b.lda(out, 0x7000);
    for (i, &v) in ints.iter().enumerate() {
        b.stq(out, (i as i64) * 8, v);
    }
    for (i, &v) in fps.iter().enumerate() {
        b.stt(out, ((POOL + i) as i64) * 8, v);
    }
    let observe: Vec<u64> = (0..POOL + FPOOL).map(|i| 0x7000 + i as u64 * 8).collect();
    (b.finish().expect("generated program is valid"), observe)
}

#[test]
fn scheduling_preserves_semantics() {
    check_cases(48, |rng| {
        let ops = rng.vec_in(1, 60, rand_op);
        let (il, observe) = build_program(&ops);
        let mut vm = Vm::new(&il);
        vm.run_to_end().unwrap();
        let golden: Vec<u64> = observe.iter().map(|&a| vm.memory().read(a)).collect();

        let assign = RegisterAssignment::even_odd_with_default_globals(2);
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::Local,
            SchedulerKind::RoundRobin,
            SchedulerKind::BankSplit,
        ] {
            let scheduled = SchedulePipeline::new(kind, &assign).run(&il).unwrap();
            let mut vm = Vm::new(&scheduled.program);
            vm.run_to_end().unwrap();
            for (&addr, &expect) in observe.iter().zip(&golden) {
                assert_eq!(vm.memory().read(addr), expect, "{kind:?} at {addr:#x}");
            }
        }
    });
}

#[test]
fn partitioning_is_total() {
    check_cases(48, |rng| {
        let ops = rng.vec_in(1, 60, rand_op);
        let (il, _) = build_program(&ops);
        let profile = Profile::from_counts(vec![1; il.blocks.len()]);
        let part = LocalScheduler::new(PartitionConfig::default()).partition(&il, &profile);
        for block in &il.blocks {
            for instr in &block.instrs {
                for r in instr.named_regs() {
                    assert!(part.is_global(r) || part.cluster_of(r).is_some(), "{r} unassigned");
                }
            }
        }
    });
}

#[test]
fn simulation_retires_the_whole_trace() {
    check_cases(48, |rng| {
        let ops = rng.vec_in(1, 40, rand_op);
        let (il, _) = build_program(&ops);
        let assign = RegisterAssignment::even_odd_with_default_globals(2);
        let scheduled = SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il).unwrap();
        let (trace, _) = trace_program_packed(&scheduled.program, 0).unwrap();
        for cfg in [ProcessorConfig::single_cluster_8way(), ProcessorConfig::dual_cluster_8way()] {
            let retire_width = cfg.retire_width;
            let result = Processor::new(cfg).run_packed(&trace).unwrap();
            assert_eq!(result.stats.retired, trace.len() as u64);
            // Retirement is bounded by width.
            assert!(result.stats.cycles >= trace.len() as u64 / u64::from(retire_width));
        }
    });
}

#[test]
fn round_robin_partition_counts_are_balanced() {
    check_cases(48, |rng| {
        let ops = rng.vec_in(1, 60, rand_op);
        let (il, _) = build_program(&ops);
        let part = Partition::round_robin(&il, 2);
        let counts = part.counts(2);
        assert!(counts[0].abs_diff(counts[1]) <= 1, "{counts:?}");
    });
}
