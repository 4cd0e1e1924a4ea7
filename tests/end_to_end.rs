//! End-to-end integration: IL authoring → scheduling → trace generation
//! → cycle-level simulation, across crates.

use multicluster::core::{Processor, ProcessorConfig};
use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{SchedulePipeline, SchedulerKind};
use multicluster::trace::{vm::trace_program_packed, Program, ProgramBuilder, Vm, Vreg};
use multicluster::workloads::{microkernels, Benchmark};

/// Schedules with every scheduler kind and checks the machine program
/// computes what the IL computes (memory-visible state).
fn check_all_schedulers(il: &Program<Vreg>, observe: &[u64]) {
    let mut vm = Vm::new(il);
    vm.run_to_end().expect("IL runs");
    let golden: Vec<u64> = observe.iter().map(|&a| vm.memory().read(a)).collect();

    for clusters in [1u8, 2] {
        let assign = if clusters == 1 {
            RegisterAssignment::single_cluster()
        } else {
            RegisterAssignment::even_odd_with_default_globals(2)
        };
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::Local,
            SchedulerKind::LocalNoGlobals,
            SchedulerKind::RoundRobin,
            SchedulerKind::BankSplit,
        ] {
            let scheduled = SchedulePipeline::new(kind, &assign)
                .run(il)
                .unwrap_or_else(|e| panic!("{kind:?}/{clusters} clusters: {e}"));
            let mut vm = Vm::new(&scheduled.program);
            vm.run_to_end().expect("machine program runs");
            for (&addr, &expect) in observe.iter().zip(&golden) {
                assert_eq!(
                    vm.memory().read(addr),
                    expect,
                    "{kind:?}/{clusters} clusters at {addr:#x}"
                );
            }
        }
    }
}

#[test]
fn microkernels_survive_every_scheduler() {
    check_all_schedulers(&microkernels::dependent_chain(40), &[0x4000]);
    check_all_schedulers(&microkernels::parallel_chains(6, 12), &[0x4000, 0x4008, 0x4028]);
    check_all_schedulers(&microkernels::pingpong(8), &[0x4000, 0x4008]);
    check_all_schedulers(&microkernels::divider_chain(10), &[0x4000]);
}

#[test]
fn benchmarks_schedule_and_simulate_on_both_machines() {
    for bench in Benchmark::ALL {
        let il = bench.build((bench.default_scale() / 100).max(1));
        let assign = RegisterAssignment::even_odd_with_default_globals(2);
        let native =
            SchedulePipeline::new(SchedulerKind::Naive, &assign).run(&il).expect("native");
        let local =
            SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il).expect("local");

        let (native_trace, _) = trace_program_packed(&native.program, 0).expect("trace");
        let (local_trace, _) = trace_program_packed(&local.program, 0).expect("trace");
        assert!(!native_trace.is_empty());

        let single = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_packed(&native_trace)
            .expect("single simulates");
        let dual = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed(&native_trace)
            .expect("dual/native simulates");
        let dual_local = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed(&local_trace)
            .expect("dual/local simulates");

        // Every instruction retires exactly once.
        assert_eq!(single.stats.retired, native_trace.len() as u64, "{bench}");
        assert_eq!(dual.stats.retired, native_trace.len() as u64, "{bench}");
        assert_eq!(dual_local.stats.retired, local_trace.len() as u64, "{bench}");

        // The single-cluster machine never dual-distributes; the dual
        // machine does for the native binary.
        assert_eq!(single.stats.dual_distributed, 0, "{bench}");
        assert!(dual.stats.dual_distributed > 0, "{bench}");

        // The local scheduler reduces dual distribution (the paper's
        // stated effect).
        assert!(
            dual_local.stats.dual_fraction() < dual.stats.dual_fraction(),
            "{bench}: local {} vs none {}",
            dual_local.stats.dual_fraction(),
            dual.stats.dual_fraction()
        );
    }
}

#[test]
fn spilled_programs_still_simulate_correctly() {
    // Force memory spills with extreme register pressure.
    let mut b = ProgramBuilder::new("pressure");
    let vs: Vec<Vreg> = (0..45).map(|i| b.vreg_int(&format!("v{i}"))).collect();
    for (i, &v) in vs.iter().enumerate() {
        b.lda(v, i as i64 * 3 + 1);
    }
    let out = b.vreg_int("out");
    b.lda(out, 0x6000);
    for (i, &v) in vs.iter().enumerate() {
        b.stq(out, (i as i64) * 8, v);
    }
    let il = b.finish().unwrap();
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    // Keep the authored order: the prepass list scheduler would otherwise
    // interleave definitions and stores and dissolve the pressure.
    let options = multicluster::sched::ScheduleOptions {
        prepass_schedule: false,
        ..Default::default()
    };
    let scheduled = SchedulePipeline::new(SchedulerKind::Local, &assign)
        .with_options(options)
        .run(&il)
        .unwrap();
    assert!(scheduled.stats.spill.memory_spills > 0, "expected spills");

    let mut vm = Vm::new(&scheduled.program);
    vm.run_to_end().unwrap();
    for (i, _) in vs.iter().enumerate() {
        assert_eq!(vm.memory().read(0x6000 + (i as u64) * 8), i as u64 * 3 + 1);
    }

    let result = Processor::new(ProcessorConfig::dual_cluster_8way())
        .run_program(&scheduled.program)
        .unwrap();
    assert!(result.stats.cycles > 0);
}

#[test]
fn four_way_configurations_run_the_suite() {
    let bench = Benchmark::Compress;
    let il = bench.build(200);
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let native = SchedulePipeline::new(SchedulerKind::Naive, &assign).run(&il).unwrap();
    let (trace, _) = trace_program_packed(&native.program, 0).unwrap();
    let single4 =
        Processor::new(ProcessorConfig::single_cluster_4way()).run_packed(&trace).unwrap();
    let dual2 =
        Processor::new(ProcessorConfig::dual_cluster_4way()).run_packed(&trace).unwrap();
    assert_eq!(single4.stats.retired, trace.len() as u64);
    assert_eq!(dual2.stats.retired, trace.len() as u64);
    // The narrower machines are slower than their 8-way counterparts.
    let single8 =
        Processor::new(ProcessorConfig::single_cluster_8way()).run_packed(&trace).unwrap();
    assert!(single4.stats.cycles >= single8.stats.cycles);
}
