//! A reduced-scale run of the paper's Table 2: the six SPEC92-shaped
//! benchmarks on the single-cluster and dual-cluster machines, native
//! and rescheduled.
//!
//! For the full-scale reproduction use the bench harness:
//! `cargo run --release -p mcl-bench --bin repro -- table2`.
//!
//! ```sh
//! cargo run --release --example table2_mini
//! ```

use multicluster::core::{speedup_percent, Processor, ProcessorConfig};
use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{SchedulePipeline, SchedulerKind};
use multicluster::trace::vm::trace_program_packed;
use multicluster::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>12} {:>12} | {:>12} {:>12}",
        "benchmark", "none (meas)", "local (meas)", "none (paper)", "local (paper)"
    );
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    for bench in Benchmark::ALL {
        let scale = (bench.default_scale() / 20).max(1);
        let il = bench.build(scale);

        let native = SchedulePipeline::new(SchedulerKind::Naive, &assign).run(&il)?;
        let local = SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il)?;
        let (native_trace, _) = trace_program_packed(&native.program, 0)?;
        let (local_trace, _) = trace_program_packed(&local.program, 0)?;

        let single = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_packed(&native_trace)?
            .stats;
        let none = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed(&native_trace)?
            .stats;
        let loc = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed(&local_trace)?
            .stats;

        let (paper_none, paper_local) = bench.paper_table2();
        println!(
            "{:<10} {:>11.1}% {:>11.1}% | {:>11}% {:>11}%",
            bench.name(),
            speedup_percent(none.cycles, single.cycles),
            speedup_percent(loc.cycles, single.cycles),
            paper_none,
            paper_local,
        );
    }
    println!("\n(reduced scale: expect noisier numbers than `repro table2`)");
    Ok(())
}
