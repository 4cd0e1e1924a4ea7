//! Everything in the reproduction is deterministic: building the same
//! workload, scheduling it, and simulating it twice must give identical
//! results, bit for bit.

use multicluster::core::{EventLog, Processor, ProcessorConfig};
use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{SchedulePipeline, SchedulerKind};
use multicluster::trace::vm::trace_program_packed;
use multicluster::workloads::Benchmark;

#[test]
fn workload_construction_is_deterministic() {
    for bench in Benchmark::ALL {
        let a = bench.build(50);
        let b = bench.build(50);
        assert_eq!(a, b, "{bench}");
    }
}

#[test]
fn scheduling_is_deterministic() {
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    for bench in Benchmark::ALL {
        let il = bench.build(30);
        for kind in [SchedulerKind::Naive, SchedulerKind::Local] {
            let a = SchedulePipeline::new(kind, &assign).run(&il).unwrap();
            let b = SchedulePipeline::new(kind, &assign).run(&il).unwrap();
            assert_eq!(a.program, b.program, "{bench}/{kind:?}");
        }
    }
}

#[test]
fn tracing_and_simulation_are_deterministic() {
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let il = Benchmark::Gcc1.build(100);
    let scheduled = SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il).unwrap();
    let (trace_a, profile_a) = trace_program_packed(&scheduled.program, 0).unwrap();
    let (trace_b, profile_b) = trace_program_packed(&scheduled.program, 0).unwrap();
    assert_eq!(trace_a, trace_b);
    assert_eq!(profile_a, profile_b);

    for cfg in [ProcessorConfig::single_cluster_8way(), ProcessorConfig::dual_cluster_8way()] {
        let a = Processor::new(cfg.clone()).run_packed(&trace_a).unwrap();
        let b = Processor::new(cfg).run_packed(&trace_a).unwrap();
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn event_logs_are_deterministic() {
    let il = Benchmark::Compress.build(50);
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let scheduled = SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il).unwrap();
    let (trace, _) = trace_program_packed(&scheduled.program, 0).unwrap();
    let cfg = ProcessorConfig::dual_cluster_8way();
    let (mut a, mut b) = (EventLog::new(), EventLog::new());
    Processor::new(cfg.clone()).run_packed_observed(&trace, &mut a).unwrap();
    Processor::new(cfg).run_packed_observed(&trace, &mut b).unwrap();
    assert_eq!(a, b);
}
