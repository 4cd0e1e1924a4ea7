//! The VM's packing path, which finds each step's static record through
//! its instruction site, builds the same trace as packing the fat
//! `TraceOp` stream op by op, for every benchmark and scheduler.

use std::collections::HashSet;

use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{SchedulePipeline, SchedulerKind};
use multicluster::trace::vm::{trace_program, trace_program_packed};
use multicluster::trace::PackedTrace;
use multicluster::workloads::Benchmark;

#[test]
fn site_hinted_packing_equals_op_by_op_packing() {
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    for bench in Benchmark::ALL {
        let il = bench.build((bench.default_scale() / 8).max(1));
        for kind in [SchedulerKind::Naive, SchedulerKind::Local] {
            let program = SchedulePipeline::new(kind, &assign).run(&il).unwrap().program;
            let (packed, _) = trace_program_packed(&program, 0).unwrap();
            let (ops, _) = trace_program(&program).unwrap();
            let reference = PackedTrace::from_ops(&ops);
            assert_eq!(packed, reference, "{bench}/{kind:?}");
            assert_eq!(packed.digest(), reference.digest(), "{bench}/{kind:?}");
            // A site yields at most two static records, one per branch
            // direction, while its addresses stay below 2^32.
            let pcs: HashSet<u64> = ops.iter().map(|op| op.pc).collect();
            assert!(
                packed.static_len() <= 2 * pcs.len(),
                "{bench}/{kind:?}: {} static records for {} pcs",
                packed.static_len(),
                pcs.len()
            );
        }
    }
}
