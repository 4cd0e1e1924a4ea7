//! A/B harness for the two trace representations: runs the same
//! benchmark trace through `Processor::run_trace` (the 72-byte
//! `TraceOp` slice) and `Processor::run_packed` (the packed form: 8
//! bytes per op over a table of static instructions), asserts the
//! statistics are identical, and prints the wall time of each.
//!
//! ```text
//! cargo run --release -p mcl-bench --example packed_timing
//! ```

use std::time::Instant;

use mcl_core::{Processor, ProcessorConfig};
use mcl_isa::assign::RegisterAssignment;
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

fn main() {
    let bench = Benchmark::Compress;
    let il = bench.build(bench.default_scale());
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let trace =
        mcl_bench::schedule_and_trace(&il, SchedulerKind::Naive, &assign, None).unwrap();
    let packed = mcl_trace::PackedTrace::from_ops(&trace);
    let cfg = ProcessorConfig::single_cluster_8way();

    for _ in 0..3 {
        let t = Instant::now();
        let a = Processor::new(cfg.clone()).run_trace(&trace).unwrap();
        let slice_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let b = Processor::new(cfg.clone()).run_packed(&packed).unwrap();
        let packed_s = t.elapsed().as_secs_f64();
        assert_eq!(a.stats, b.stats);
        println!("slice {slice_s:.4}s  packed {packed_s:.4}s  ratio {:.2}", packed_s / slice_s);
    }
}
