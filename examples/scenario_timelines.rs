//! Reproduces the paper's Figures 2–5: cycle-by-cycle timelines of the
//! five dual-execution scenarios of Section 2.1.
//!
//! ```sh
//! cargo run --example scenario_timelines
//! ```

use multicluster::core::{render_pipeline, EventLog, PipeViewOptions, Processor, ProcessorConfig};
use multicluster::trace::vm::trace_program_packed;
use multicluster::workloads::scenarios;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for s in scenarios::all() {
        let figure = s.figure.map_or_else(|| "no figure".to_owned(), |f| format!("Figure {f}"));
        println!("── Scenario {} ({figure}) ─ {}", s.number, s.description);
        println!("{}", s.program.listing());

        let (trace, _) = trace_program_packed(&s.program, 0)?;
        let mut events = EventLog::new();
        let result = Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed_observed(&trace, &mut events)?;
        println!("timeline of the add (dynamic instruction #{}):", s.add_seq);
        println!("{}", events.timeline(s.add_seq));
        println!(
            "scenario classification counts: {:?} (one in slot {})",
            result.stats.scenario,
            s.number
        );
        println!(
            "pipeline view:\n{}",
            render_pipeline(&events, PipeViewOptions { first_seq: 0, last_seq: 3, max_cycles: 64 })
        );
    }
    Ok(())
}
