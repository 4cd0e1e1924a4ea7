//! The paper's bottom line (Sections 4.2 and 5): at 0.35 µm the
//! cycle-count overhead of partitioning roughly cancels the cycle-time
//! gain, while at 0.18 µm wire delay makes the 8-issue machine's clock
//! 82 % slower than the 4-issue clock and the multicluster organisation
//! wins outright.
//!
//! ```sh
//! cargo run --release --example cycle_time_crossover
//! ```

use multicluster::core::delay::{breakeven_slowdown, net_runtime_ratio, FeatureSize};
use multicluster::core::{Processor, ProcessorConfig};
use multicluster::isa::assign::RegisterAssignment;
use multicluster::sched::{SchedulePipeline, SchedulerKind};
use multicluster::trace::vm::trace_program_packed;
use multicluster::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("cycle-time model (Palacharla, Jouppi & Smith 1997):");
    for f in FeatureSize::ALL {
        println!(
            "  {}: T(4-issue) = {:.0}, T(8-issue) = {:.0}  (+{:.0}%)",
            f.label(),
            f.cycle_time(4),
            f.cycle_time(8),
            (f.wide_to_narrow_ratio() - 1.0) * 100.0
        );
    }
    println!(
        "\nbreak-even cycle slowdown: {:.2}x at 0.35um, {:.2}x at 0.18um\n",
        breakeven_slowdown(FeatureSize::F0_35um),
        breakeven_slowdown(FeatureSize::F0_18um)
    );

    println!(
        "{:<10} {:>12} {:>16} {:>16}",
        "benchmark", "cycle ratio", "runtime @0.35um", "runtime @0.18um"
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
            .stats
            .cycles;
        let dual = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed(&local_trace)?
            .stats
            .cycles;
        println!(
            "{:<10} {:>12.3} {:>16.3} {:>16.3}",
            bench.name(),
            dual as f64 / single as f64,
            net_runtime_ratio(dual, single, FeatureSize::F0_35um),
            net_runtime_ratio(dual, single, FeatureSize::F0_18um)
        );
    }
    println!("\nruntime ratio < 1: the dual-cluster machine is faster in wall time.");
    Ok(())
}
