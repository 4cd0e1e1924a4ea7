//! The metrics a run reports, and the definition file that fixes their
//! bounds.

use std::fmt::Write as _;

use mcl_bench::json::Json;

/// The benchmark's definition, relative to the repository root.
pub const DEFINITION_PATH: &str = "BENCHMARK.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of `repro` sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
    lower("paper_error_pp", "pp"),
];

/// Single layers, from the traced run: the layer pass over the
/// workload's programs, and the traced rep.
pub const PER_LAYER: [MetricDef; 27] = [
    lower("workloads.build_s", "s"),
    lower("sched.prepare_s", "s"),
    lower("sched.profiled_steps", "count"),
    lower("sched.schedule_s", "s"),
    lower("trace.pack_s", "s"),
    lower("trace.bytes", "B"),
    lower("core.simulate_s", "s"),
    higher("core.sim_cps", "cycles/s"),
    lower("core.ns_per_live_cycle", "ns"),
    lower("core.phase.timeq_ns_per_live_cycle", "ns"),
    lower("core.phase.retire_ns_per_live_cycle", "ns"),
    lower("core.phase.wakeup_ns_per_live_cycle", "ns"),
    lower("core.phase.issue_ns_per_live_cycle", "ns"),
    lower("core.phase.dispatch_ns_per_live_cycle", "ns"),
    lower("core.phase.checker_ns_per_live_cycle", "ns"),
    lower("core.phase.fast_forward_ns_per_live_cycle", "ns"),
    lower("core.phase.loop_ns_per_live_cycle", "ns"),
    lower("core.live_cycles", "count"),
    higher("core.skipped_cycles", "count"),
    lower("core.ff_jumps", "count"),
    higher("core.ff_ratio", "ratio"),
    lower("persist.key_s", "s"),
    lower("persist.store_s", "s"),
    lower("persist.load_s", "s"),
    higher("rep.parallel_eff", "ratio"),
    lower("rep.trace_overhead_pct", "%"),
    lower("pass.glue_pct", "%"),
];

/// The parts of `BENCHMARK.json` the program reads.
pub struct Definition {
    pub run_seconds: u64,
    /// `(name, better, bound)` of each end-to-end metric.
    pub end_to_end: Vec<(String, Better, f64)>,
}

impl Definition {
    pub fn load() -> Result<Definition, String> {
        let text = std::fs::read_to_string(DEFINITION_PATH)
            .map_err(|e| format!("reading {DEFINITION_PATH}: {e}"))?;
        Definition::parse(&text).map_err(|e| format!("{DEFINITION_PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Definition, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("run_seconds missing")?;
        let mut end_to_end = Vec::new();
        for metric in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or("end_to_end missing")?
        {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric has no name")?;
            let better = match metric.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: `better` is neither lower nor higher")),
            };
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            end_to_end.push((name.to_owned(), better, bound));
        }
        Ok(Definition {
            run_seconds,
            end_to_end,
        })
    }
}

/// The line a run ends with: `correct`, `attempted`, `failed`, and each
/// metric's value, written with every digit it has.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn definition_file() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.name().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn the_definition_file_lists_what_the_program_reports() {
        let doc = definition_file();
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        let definition = Definition::parse(&doc.render()).unwrap();
        assert!(definition
            .end_to_end
            .iter()
            .all(|(_, _, bound)| (0.0..=0.25).contains(bound)));
    }

    #[test]
    fn the_result_line_is_json_with_full_precision() {
        let line = result_line(
            true,
            3,
            0,
            &[(&END_TO_END[0], 1.234_567_890_123), (&END_TO_END[2], 285.0)],
        );
        let doc = Json::parse(&line).unwrap();
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value").and_then(Json::as_f64),
            Some(1.234_567_890_123)
        );
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert!(line.contains("1.234567890123"), "{line}");
    }
}
