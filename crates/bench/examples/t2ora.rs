//! Developer profiling harness: the `table2/ora` cell, looped, so a
//! sampling profiler sees enough of the exact acceptance workload.
//!
//! ```text
//! cargo run --release -p mcl-bench --example t2ora [reps]
//! ```

use std::time::Instant;

use mcl_bench::{run_all_configs_with, TraceRequest, TraceStore};
use mcl_core::{Processor, ProcessorConfig};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

fn main() {
    let reps: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(10);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // Fresh store each rep: the store caches whole sims, and the
        // point here is to re-run them (trace build rides along).
        let store = TraceStore::new();
        let start = Instant::now();
        let ((single, dual_none, dual_local), _) =
            run_all_configs_with(&store, Benchmark::Ora, Benchmark::Ora.scaled(1))
                .expect("cell runs");
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box((single.cycles, dual_none.cycles, dual_local.cycles));
    }
    println!("table2/ora cell: min {best:.4}s over {reps} reps");
    // Split: trace/schedule build vs each sim.
    let mut t_trace = f64::INFINITY;
    let mut t_sim = [f64::INFINITY; 3];
    for _ in 0..reps {
        let store = TraceStore::new();
        let native = TraceRequest::new(Benchmark::Ora, Benchmark::Ora.scaled(1), SchedulerKind::Naive);
        let local = TraceRequest::new(Benchmark::Ora, Benchmark::Ora.scaled(1), SchedulerKind::Local);
        let start = Instant::now();
        let nt = store.trace(&native).expect("trace");
        let lt = store.trace(&local).expect("trace");
        t_trace = t_trace.min(start.elapsed().as_secs_f64());
        let cfgs = [
            ProcessorConfig::single_cluster_8way(),
            ProcessorConfig::dual_cluster_8way(),
            ProcessorConfig::dual_cluster_8way(),
        ];
        for (i, cfg) in cfgs.into_iter().enumerate() {
            let trace = if i == 2 { &lt } else { &nt };
            let mut proc = Processor::new(cfg);
            let start = Instant::now();
            let r = proc.run_packed(trace).expect("runs");
            t_sim[i] = t_sim[i].min(start.elapsed().as_secs_f64());
            std::hint::black_box(r.stats.cycles);
        }
    }
    println!(
        "split: trace+sched {t_trace:.4}s single {:.4}s dual/none {:.4}s dual/local {:.4}s",
        t_sim[0], t_sim[1], t_sim[2]
    );
    let store = TraceStore::new();
    let ((single, dual_none, dual_local), _) =
        run_all_configs_with(&store, Benchmark::Ora, Benchmark::Ora.scaled(1)).expect("cell");
    for (name, s) in [("single", &single), ("dual/none", &dual_none), ("dual/local", &dual_local)] {
        println!(
            "{name:>10}: cycles {} retired {} dispatch_cycles {} drain {} stall_dq {} stall_regs {} stall_icache {} stall_branch {} stall_replay {}",
            s.cycles, s.retired, s.dispatch_cycles, s.drain_cycles, s.stall_dq, s.stall_regs,
            s.stall_icache, s.stall_branch, s.stall_replay
        );
    }
}
