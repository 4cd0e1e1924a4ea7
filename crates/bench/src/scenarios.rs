//! Figures 2–5: cycle-by-cycle timelines of the dual-execution
//! scenarios.

use mcl_core::{CheckLevel, EventLog, Processor, ProcessorConfig};
use mcl_trace::vm::trace_program_packed;
use mcl_workloads::scenarios::{all, Scenario};

use crate::Error;

/// One rendered scenario timeline.
#[derive(Debug, Clone)]
pub struct ScenarioTimeline {
    /// The scenario.
    pub number: u8,
    /// The paper figure reproduced, if any.
    pub figure: Option<u8>,
    /// Description.
    pub description: String,
    /// The event timeline of the `add` under scrutiny.
    pub timeline: String,
    /// Simulated scenario classification counts (sanity check that the
    /// hardware classified the add as intended).
    pub scenario_counts: [u64; 5],
}

/// Runs every scenario program on the paper's dual-cluster machine,
/// with the invariant checker at `check`, recording its event log, and
/// extracts the add's timeline.
///
/// # Errors
///
/// Propagates trace/simulation failures.
pub fn run_all(check: CheckLevel) -> Result<Vec<ScenarioTimeline>, Error> {
    all().into_iter().map(|s| run_one(s, check)).collect()
}

fn run_one(s: Scenario, check: CheckLevel) -> Result<ScenarioTimeline, Error> {
    let (trace, _) = trace_program_packed(&s.program, 0)?;
    let mut events = EventLog::new();
    let result = Processor::new(ProcessorConfig::dual_cluster_8way())
        .checked(check)
        .run_packed_observed(&trace, &mut events)?;
    Ok(ScenarioTimeline {
        number: s.number,
        figure: s.figure,
        description: s.description.to_owned(),
        timeline: events.timeline(s.add_seq),
        scenario_counts: result.stats.scenario,
    })
}

/// Renders all timelines in figure order.
#[must_use]
pub fn render(timelines: &[ScenarioTimeline]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in timelines {
        let figure = t.figure.map_or_else(|| "no figure".to_owned(), |f| format!("Figure {f}"));
        let _ = writeln!(out, "Scenario {} ({figure}): {}", t.number, t.description);
        let _ = writeln!(out, "{}", t.timeline);
    }
    out
}
