//! Spans around the calls into each layer, and the in-process layer
//! pass that times every layer of one benchmark program in turn:
//! build → prepare → schedule ×2 → pack → simulate the three Table 2
//! cells → profiled simulate → persist key/store/load.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcl_bench::json::Json;
use mcl_bench::persist::{EntryKey, PersistStore, DEFAULT_CAP_BYTES};
use mcl_core::{HostPhase, Processor, ProcessorConfig};
use mcl_isa::RegisterAssignment;
use mcl_sched::{SchedulePipeline, SchedulerKind};
use mcl_trace::vm::{dynamic_len_estimate, trace_program_packed};
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::golden::{Golden, Tally};

/// Span names that only group other spans; their self time is glue,
/// not a layer.
const CONTAINERS: [&str; 2] = ["pass", "bench"];

/// The layer pass's glue may take at most this share of its wall time.
pub const MAX_GLUE_PCT: f64 = 2.0;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Shared by the spans of one benchmark × configuration.
    cell: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans kept in memory until the run ends. A disabled recorder (the
/// untraced reps) records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, cell: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_owned(),
            cell: cell.to_owned(),
            start: Duration::ZERO,
            end: Duration::ZERO,
            parent,
        });
        self.open.push(id);
        self.spans[id].start = self.epoch.elapsed();
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.epoch.elapsed();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans close in reverse order of opening"
        );
        self.spans[id].end = end;
    }

    pub fn scope<T>(&mut self, name: &str, cell: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    pub fn wall_s(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    /// Each span's duration minus the part of it its children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            self.spans[k].start.max(span.start),
                            self.spans[k].end.min(span.end),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                covered.sort();
                let mut total = Duration::ZERO;
                let mut run: Option<(Duration, Duration)> = None;
                for (a, b) in covered {
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            total += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    total += rb - ra;
                }
                (span.end - span.start).saturating_sub(total)
            })
            .collect()
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(parent) = self.spans[id].parent {
            id = parent;
        }
        id
    }

    /// Calls and self seconds per span name, over the tree under `root`.
    pub fn layers_under(&self, root: usize) -> BTreeMap<String, (u64, f64)> {
        let mut layers = BTreeMap::new();
        for (i, self_time) in self.self_times().into_iter().enumerate() {
            if self.root_of(i) == root {
                let entry = layers.entry(self.spans[i].name.clone()).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += self_time.as_secs_f64();
            }
        }
        layers
    }

    /// The spans as Chrome trace events (loadable in Perfetto), one
    /// thread track per root span.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        let mut tracks = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = self.root_of(i);
            let next = tracks.len() as u64 + 1;
            let tid = *tracks.entry(root).or_insert(next);
            let mut args = Json::object();
            args.field("cell", span.cell.as_str().into())
                .field("id", (i as u64).into())
                .field(
                    "parent",
                    span.parent.map_or(Json::Null, |p| (p as u64).into()),
                );
            let mut event = Json::object();
            event
                .field("name", span.name.as_str().into())
                .field("cat", span.name.split('.').next().unwrap_or("").into())
                .field("ph", "X".into())
                .field("ts", Json::F64(span.start.as_secs_f64() * 1e6))
                .field(
                    "dur",
                    Json::F64((span.end - span.start).as_secs_f64() * 1e6),
                )
                .field("pid", 1u64.into())
                .field("tid", tid.into())
                .field("args", args);
            events.push(event);
        }
        for (root, tid) in tracks {
            let mut args = Json::object();
            args.field("name", self.spans[root].name.as_str().into());
            let mut event = Json::object();
            event
                .field("name", "thread_name".into())
                .field("ph", "M".into())
                .field("pid", 1u64.into())
                .field("tid", tid.into())
                .field("args", args);
            events.push(event);
        }
        let mut doc = Json::object();
        doc.field("traceEvents", Json::Array(events))
            .field("displayTimeUnit", "ms".into());
        doc
    }
}

/// The share of a root span's wall time that no layer accounts for.
pub fn glue_pct(layers: &BTreeMap<String, (u64, f64)>, wall_s: f64) -> f64 {
    let layer_s: f64 = layers
        .iter()
        .filter(|(name, _)| !CONTAINERS.contains(&name.as_str()))
        .map(|(_, &(_, s))| s)
        .sum();
    100.0 * (wall_s - layer_s) / wall_s
}

/// One Table 2 simulation: a configuration and the trace it runs.
pub struct Cell {
    /// `<benchmark>/<configuration>`, the key of its golden outcome.
    pub id: String,
    pub bench: Benchmark,
    pub config: ProcessorConfig,
    pub trace: Arc<PackedTrace>,
}

/// Builds a benchmark's native and local-scheduler traces at full
/// scale, exactly as `repro`'s trace store does, and returns its three
/// Table 2 cells: the native binary on the single- and dual-cluster
/// machines, and the local-scheduler binary on the dual-cluster one.
pub fn build_cells(
    bench: Benchmark,
    spans: &mut Spans,
    totals: &mut PassTotals,
) -> Result<Vec<Cell>, String> {
    let name = bench.name();
    let assignment = RegisterAssignment::even_odd_with_default_globals(2);
    let il = spans.scope("workloads.build", name, || {
        bench.build(bench.default_scale())
    });
    let prepared = spans
        .scope("sched.prepare", name, || {
            SchedulePipeline::new(SchedulerKind::Naive, &assignment).prepare(&il)
        })
        .map_err(|e| format!("{name}: prepare: {e}"))?;
    totals.profiled_steps += prepared.profiled_steps();
    let mut traces = Vec::new();
    for (kind, label) in [
        (SchedulerKind::Naive, "native"),
        (SchedulerKind::Local, "local"),
    ] {
        let id = format!("{name}/{label}");
        let scheduled = spans
            .scope("sched.schedule", &id, || {
                SchedulePipeline::new(kind, &assignment).run_prepared(&prepared)
            })
            .map_err(|e| format!("{id}: schedule: {e}"))?;
        let (trace, _) = spans
            .scope("trace.pack", &id, || {
                let hint = dynamic_len_estimate(&scheduled.program, prepared.profile());
                trace_program_packed(&scheduled.program, hint)
            })
            .map_err(|e| format!("{id}: trace: {e}"))?;
        totals.trace_ops += trace.len() as u64;
        traces.push(Arc::new(trace));
    }
    let single = ProcessorConfig::single_cluster_8way();
    let dual = ProcessorConfig::dual_cluster_8way();
    Ok([
        ("single-native", single, 0),
        ("dual-native", dual.clone(), 0),
        ("dual-local", dual, 1),
    ]
    .into_iter()
    .map(|(label, config, trace)| Cell {
        id: format!("{name}/{label}"),
        bench,
        config,
        trace: Arc::clone(&traces[trace]),
    })
    .collect())
}

/// Work counts of the layer pass.
#[derive(Debug, Default)]
pub struct PassTotals {
    pub profiled_steps: u64,
    pub trace_ops: u64,
    pub cycles: u64,
    pub retired: u64,
    pub skipped_cycles: u64,
    pub ff_jumps: u64,
    /// Live cycles the phase profiler counted, and the host nanoseconds
    /// it charged to each phase over them.
    pub profiled_live_cycles: u64,
    pub phase_ns: [u64; HostPhase::COUNT],
}

/// Runs the layer pass over `benches` under one `pass` span, checking
/// every simulation against its golden outcome, the profiled run
/// against the plain one, and the persisted result against both.
pub fn layer_pass(
    benches: &[Benchmark],
    golden: &Golden,
    tally: &mut Tally,
    spans: &mut Spans,
    store_dir: &Path,
) -> Result<(usize, PassTotals), String> {
    let persist = PersistStore::open_with_cap(store_dir, DEFAULT_CAP_BYTES)?;
    let mut totals = PassTotals::default();
    let pass = spans.open("pass", "");
    for &bench in benches {
        let container = spans.open("bench", bench.name());
        for cell in build_cells(bench, spans, &mut totals)? {
            let result = spans.scope("core.simulate", &cell.id, || {
                Processor::new(cell.config.clone()).run_packed(&cell.trace)
            });
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    tally.record(Err(format!("{}: {e}", cell.id)));
                    continue;
                }
            };
            let (stats, ff) = (result.stats, result.ff);
            tally.record(
                golden.check_cell(&cell.id, [stats.cycles, stats.retired, ff.skipped_cycles]),
            );
            totals.cycles += stats.cycles;
            totals.retired += stats.retired;
            totals.skipped_cycles += ff.skipped_cycles;
            totals.ff_jumps += ff.jumps;

            let profiled = spans.scope("core.profile", &cell.id, || {
                Processor::new(cell.config.clone()).run_packed_profiled(&cell.trace)
            });
            tally.record(match profiled {
                Err(e) => Err(format!("{}: profiled: {e}", cell.id)),
                Ok((p, _)) if p.stats != stats => Err(format!(
                    "{}: the profiled run diverged from the plain run",
                    cell.id
                )),
                Ok((_, report)) => {
                    totals.profiled_live_cycles += report.live_cycles;
                    for (total, ns) in totals.phase_ns.iter_mut().zip(report.phase_ns) {
                        *total += ns;
                    }
                    report
                        .check_identity()
                        .map_err(|e| format!("{}: {e}", cell.id))
                }
            });

            let key = spans.scope("persist.key", &cell.id, || {
                EntryKey::of(&cell.trace, &format!("{:?}", cell.config))
            });
            spans.scope("persist.store", &cell.id, || {
                persist.store(&key, &stats, &ff)
            });
            let loaded = spans.scope("persist.load", &cell.id, || persist.load(&key));
            tally.record(match loaded {
                Some((s, f)) if s == stats && f == ff => Ok(()),
                Some(_) => Err(format!("{}: the persisted result differs", cell.id)),
                None => Err(format!("{}: the persisted result did not load", cell.id)),
            });
        }
        spans.close(container);
    }
    spans.close(pass);
    Ok((pass, totals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn recorded(spans: &[(&str, u64, u64, Option<usize>)]) -> Spans {
        let mut rec = Spans::new();
        rec.spans = spans
            .iter()
            .map(|&(name, start, end, parent)| Span {
                name: name.to_owned(),
                cell: String::new(),
                start: ms(start),
                end: ms(end),
                parent,
            })
            .collect();
        rec
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // pass [0,100): bench [10,90) holds build [10,30) and a simulate
        // [40,80) with a nested profile [50,60); a second bench [90,100).
        let rec = recorded(&[
            ("pass", 0, 100, None),
            ("bench", 10, 90, Some(0)),
            ("workloads.build", 10, 30, Some(1)),
            ("core.simulate", 40, 80, Some(1)),
            ("core.profile", 50, 60, Some(3)),
            ("bench", 90, 100, Some(0)),
        ]);
        let times = rec.self_times();
        assert_eq!(times, vec![ms(10), ms(20), ms(20), ms(30), ms(10), ms(10)]);
        let total: Duration = times.iter().sum();
        assert_eq!(total, ms(100), "self times partition the root");

        let layers = rec.layers_under(0);
        assert_eq!(layers["bench"].0, 2);
        assert!((layers["bench"].1 - 0.03).abs() < 1e-12);
        assert_eq!(layers["core.simulate"].0, 1);
        let glue = glue_pct(&layers, rec.wall_s(0));
        assert!((glue - 40.0).abs() < 1e-9, "{glue}");
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let rec = recorded(&[
            ("a", 0, 100, None),
            ("b", 10, 50, Some(0)),
            ("c", 30, 70, Some(0)),
        ]);
        assert_eq!(rec.self_times()[0], ms(40));
    }

    #[test]
    fn live_spans_nest_and_separate_roots() {
        let mut rec = Spans::new();
        let rep = rec.open("rep", "");
        rec.scope("core.simulate", "ora/dual-local", || ());
        rec.close(rep);
        let pass = rec.open("pass", "");
        rec.scope("workloads.build", "ora", || ());
        rec.close(pass);
        assert_eq!(
            rec.layers_under(rep).keys().collect::<Vec<_>>(),
            ["core.simulate", "rep"]
        );
        assert_eq!(
            rec.layers_under(pass).keys().collect::<Vec<_>>(),
            ["pass", "workloads.build"]
        );
        let trace = rec.chrome_trace().render();
        assert!(Json::parse(&trace).is_ok());
        assert!(
            trace.contains("\"tid\":2"),
            "the second root gets its own track"
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Spans::disabled();
        let id = rec.open("rep", "");
        assert_eq!(rec.scope("x", "", || 7), 7);
        rec.close(id);
        assert!(rec.spans.is_empty());
    }
}
