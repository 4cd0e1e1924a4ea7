//! Observability exports behind `repro --obs OUT_DIR`, and the two
//! pieces every probe tool shares.
//!
//! For each observed cell this module runs one *additional* instrumented
//! simulation — dual-cluster machine, local-scheduler trace served by
//! the shared [`TraceStore`] — with an [`ObsProbe`] attached, and writes
//! per-cell artifacts into the output directory:
//!
//! - `<bench>.series.json` — the interval-sampled time series (IPC,
//!   occupancy, free registers, stall-cause breakdown per interval) plus
//!   the log2-bucketed pipeline-latency histograms;
//! - `<bench>.trace.json` — the lifecycle event ring in Chrome
//!   trace-event format (an object with a `traceEvents` array), loadable
//!   in Perfetto / `chrome://tracing`;
//! - `<bench>.postmortem.txt` — only when the instrumented run dies with
//!   a [`SimError`]: the ring's surviving tail rendered through
//!   [`mcl_core::pipeview`].
//!
//! Every probe tool (`--obs`, `repro explain`, `repro pipetrace`,
//! `repro profile`) runs its instrumented simulation through
//! `companion`: the one place that looks up the reference run, charges
//! it, runs the instrumented processor, and demands bit-identical
//! [`SimStats`] — the "observe, never perturb" guarantee. The
//! companion's own cycles are deliberately *not* charged, so
//! `BENCH_repro.json` aggregates stay identical with a probe on or off.
//!
//! [`validate_dir`] re-reads a directory of exports (`repro
//! obs-validate`) through one table of export kinds (`EXPORTS`): the
//! file read, the [`Json::parse`] and the `schema_version` comparison
//! happen once here, and each kind contributes only its own checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcl_core::events::EventKind;
use mcl_core::obs::{EventRing, ObsConfig, ObsProbe, Probe, StallCause};
use mcl_core::CheckLevel;
use mcl_core::{HostProfReport, PipeViewOptions, Processor, ProcessorConfig, SimError, SimStats};
use mcl_sched::SchedulerKind;
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::json::Json;
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{explain, flight, pipetrace, profile, Error, TraceStore};

/// Schema version of the `*.series.json` exports.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// Event-ring capacity of `--obs` runs (last K lifecycle events).
pub const RING_CAPACITY: usize = 4096;

/// Where and how densely to export.
#[derive(Debug, Clone)]
pub struct ObsSettings {
    /// Output directory (created if missing).
    pub dir: PathBuf,
    /// Sampling interval in cycles (`--sample-interval`).
    pub sample_interval: u64,
}

/// The observability error every probe tool and validator reports.
pub(crate) fn obs_err(context: &str, detail: impl std::fmt::Display) -> Error {
    Error::Obs(format!("{context}: {detail}"))
}

/// Writes one export file into `dir`, creating the directory first.
pub(crate) fn write_export(dir: &Path, name: &str, contents: &str) -> Result<(), Error> {
    std::fs::create_dir_all(dir)
        .map_err(|e| obs_err(&format!("creating {}", dir.display()), e))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| obs_err(&format!("writing {}", path.display()), e))
}

/// The uninstrumented run a [`companion`] must reproduce.
pub(crate) enum Reference<'a> {
    /// A store-served cell: the store's simulation is the reference,
    /// and is charged to the cost. The companion runs at the store's
    /// check level.
    Store(&'a TraceStore, &'a TraceRequest, &'a mut CellCost),
    /// A trace, the statistics of its uninstrumented run, and the check
    /// level the companion runs at.
    Run(Arc<PackedTrace>, &'a SimStats, CheckLevel),
}

/// What a [`companion`] run attaches to the processor.
pub(crate) enum Instrument<'p, P> {
    /// A probe on the simulated machine (forces single-stepping).
    Probe(&'p mut P),
    /// The host phase profiler (keeps the fast-forward engine path).
    HostProf,
}

/// A companion run whose statistics equal its reference's.
pub(crate) struct Companion {
    pub(crate) stats: SimStats,
    /// The trace the companion ran.
    pub(crate) trace: Arc<PackedTrace>,
    /// The host profile of an [`Instrument::HostProf`] run.
    pub(crate) hostprof: Option<HostProfReport>,
}

/// Runs the instrumented companion of `reference` under `cfg` and
/// checks that it reproduced the reference's statistics bit for bit:
/// instruments observe, they never perturb.
///
/// # Errors
///
/// [`Error::Sim`] when the instrumented run fails (a probe keeps what it
/// saw until then); [`Error::Obs`] naming `stem` and both cycle counts
/// when the statistics diverge; store errors propagate.
pub(crate) fn companion<P: Probe>(
    stem: &str,
    cfg: &ProcessorConfig,
    reference: Reference<'_>,
    instrument: Instrument<'_, P>,
) -> Result<Companion, Error> {
    let product;
    let (trace, expected, check) = match reference {
        Reference::Store(store, req, cost) => {
            product = store.sim(req, cfg)?;
            cost.charge_sim(&product);
            (store.trace(req)?, &product.stats, store.check_level())
        }
        Reference::Run(trace, stats, check) => (trace, stats, check),
    };
    let mut processor = Processor::new(cfg.clone()).checked(check);
    let (result, hostprof) = match instrument {
        Instrument::Probe(probe) => (processor.run_packed_observed(&trace, probe)?, None),
        Instrument::HostProf => {
            let (result, report) = processor.run_packed_profiled(&trace)?;
            (result, Some(report))
        }
    };
    if result.stats != *expected {
        return Err(obs_err(
            stem,
            format!(
                "instrumented run diverged from the reference run ({} vs {} cycles) — \
                 instruments must not affect simulation",
                result.stats.cycles, expected.cycles
            ),
        ));
    }
    Ok(Companion { stats: result.stats, trace, hostprof })
}

/// Identity of one instrumented export: the file stem the artifacts
/// are written under plus the labels recorded inside the series export.
#[derive(Debug, Clone, Copy)]
pub struct ObsTarget<'a> {
    /// Export file stem (`<stem>.series.json`, `<stem>.trace.json`).
    pub stem: &'a str,
    /// Processor-configuration label recorded in the export.
    pub config_label: &'a str,
    /// Scheduler label recorded in the export.
    pub sched_label: &'a str,
}

/// Runs the instrumented companion simulation of one Table 2 cell and
/// writes its exports; returns the file names written.
///
/// # Errors
///
/// As `companion`, or [`Error::Obs`] when an export cannot be written.
/// On [`SimError`] the ring tail is written to `<bench>.postmortem.txt`
/// before the error propagates.
pub fn observe_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    observe_request(
        store,
        &TraceRequest::new(bench, scale, SchedulerKind::Local),
        &ProcessorConfig::dual_cluster_8way(),
        ObsTarget { stem: bench.name(), config_label: "dual_cluster_8way", sched_label: "local" },
        settings,
    )
}

/// Generalised form of [`observe_cell`]: runs the instrumented
/// companion of any store-served `(request, configuration)` pair and
/// writes its exports under `target.stem` — how `repro ablate` and
/// `repro scenarios` cells export observability artifacts for their
/// family-representative configuration.
///
/// # Errors
///
/// As [`observe_cell`].
pub fn observe_request(
    store: &TraceStore,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    target: ObsTarget<'_>,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    // Exports are not charged: the cell's report covers its own runs.
    observe(cfg, Reference::Store(store, req, &mut CellCost::default()), target, settings)
}

/// Instrumented companion of one prescheduled scenario program
/// (`repro scenarios --obs`): exports under the stem `scenario<N>`.
/// Both runs use the invariant checker at `check`.
///
/// # Errors
///
/// As [`observe_cell`]; the cross-check reference is a fresh
/// uninstrumented run of the same program.
pub fn observe_scenario(
    scenario: &mcl_workloads::scenarios::Scenario,
    settings: &ObsSettings,
    check: CheckLevel,
) -> Result<Vec<String>, Error> {
    let (trace, _) = mcl_trace::vm::trace_program_packed(&scenario.program, 0)?;
    let cfg = ProcessorConfig::dual_cluster_8way();
    let expected = Processor::new(cfg.clone()).checked(check).run_packed(&trace)?;
    let stem = format!("scenario{}", scenario.number);
    observe(
        &cfg,
        Reference::Run(Arc::new(trace), &expected.stats, check),
        ObsTarget {
            stem: &stem,
            config_label: "dual_cluster_8way",
            sched_label: "prescheduled",
        },
        settings,
    )
}

/// The `--obs` export path: an [`ObsProbe`] companion, then series +
/// Chrome trace written under the stem, or the postmortem when the
/// instrumented run fails.
fn observe(
    cfg: &ProcessorConfig,
    reference: Reference<'_>,
    target: ObsTarget<'_>,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    let mut probe = ObsProbe::new(ObsConfig {
        sample_interval: settings.sample_interval,
        ring_capacity: RING_CAPACITY,
    });
    let observed = companion(target.stem, cfg, reference, Instrument::Probe(&mut probe));
    probe.finish();
    let observed = match observed {
        Ok(observed) => observed,
        Err(Error::Sim(e)) => {
            let rendered = render_postmortem(target.stem, &e, probe.ring());
            write_export(&settings.dir, &format!("{}.postmortem.txt", target.stem), &rendered)?;
            return Err(Error::Sim(e));
        }
        Err(e) => return Err(e),
    };

    let series_name = format!("{}.series.json", target.stem);
    let trace_name = format!("{}.trace.json", target.stem);
    let series = series_json(target, observed.stats.cycles, &probe);
    let chrome = chrome_trace_json(probe.ring());
    for (name, json) in [(&series_name, series), (&trace_name, chrome)] {
        write_export(&settings.dir, name, &(json.render() + "\n"))?;
    }
    Ok(vec![series_name, trace_name])
}

fn render_postmortem(stem: &str, error: &SimError, ring: &EventRing) -> String {
    let mut out = format!(
        "instrumented run of {stem} failed: {error}\n\nlast {} lifecycle events \
         ({} older events dropped):\n\n",
        ring.len(),
        ring.dropped()
    );
    if let Some((lo, hi)) = ring.seq_range() {
        let log = ring.to_log();
        out.push_str(&mcl_core::render_pipeline(
            &log,
            PipeViewOptions { first_seq: lo, last_seq: hi, max_cycles: 200 },
        ));
    } else {
        out.push_str("(no events retained)\n");
    }
    out
}

fn histogram_json(h: &mcl_core::Histogram) -> Json {
    let mut obj = Json::object();
    obj.field("count", h.count().into())
        .field("sum", h.sum().into())
        .field("min", h.min().map_or(Json::Null, Json::U64))
        .field("max", h.max().map_or(Json::Null, Json::U64))
        .field("mean", h.mean().map_or(Json::Null, Json::F64))
        .field(
            "buckets",
            Json::Array(
                h.nonzero_buckets()
                    .map(|(_, lo, hi, count)| {
                        let mut b = Json::object();
                        b.field("lo", lo.into())
                            .field("hi", hi.map_or(Json::Null, Json::U64))
                            .field("count", count.into());
                        b
                    })
                    .collect(),
            ),
        );
    obj
}

fn u32_array(values: &[u32; 2]) -> Json {
    Json::Array(values.iter().map(|&v| Json::U64(u64::from(v))).collect())
}

fn i64_array(values: &[i64; 2]) -> Json {
    // The emitter has no integer-with-sign variant; free-list counts fit
    // f64 exactly (they are small) and render with a fixed fraction.
    Json::Array(values.iter().map(|&v| Json::F64(v as f64)).collect())
}

fn series_json(target: ObsTarget<'_>, cycles: u64, probe: &ObsProbe) -> Json {
    let samples: Vec<Json> = probe
        .samples()
        .iter()
        .map(|s| {
            let mut stalls = Json::object();
            for cause in StallCause::ALL {
                stalls.field(cause.name(), s.stalls[cause.index()].into());
            }
            let mut sample = Json::object();
            sample
                .field("cycle_end", s.cycle_end.into())
                .field("cycles", s.cycles.into())
                .field("ipc", s.ipc().into())
                .field("retired", s.retired.into())
                .field("dispatched", s.dispatched.into())
                .field("issued", s.issued.into())
                .field("replays", s.replays.into())
                .field("stalls", stalls)
                .field("window", u64::from(s.window).into())
                .field("dq_used", u32_array(&s.dq_used))
                .field("otb_used", u32_array(&s.otb_used))
                .field("rtb_used", u32_array(&s.rtb_used))
                .field("int_free", i64_array(&s.int_free))
                .field("fp_free", i64_array(&s.fp_free));
            sample
        })
        .collect();
    let mut histograms = Json::object();
    for (name, h) in probe.histograms() {
        histograms.field(name, histogram_json(h));
    }
    let ring = probe.ring();
    let mut ring_json = Json::object();
    ring_json
        .field("capacity", (ring.capacity() as u64).into())
        .field("len", (ring.len() as u64).into())
        .field("dropped", ring.dropped().into());
    let mut obj = Json::object();
    obj.field("schema_version", SERIES_SCHEMA_VERSION.into())
        .field("benchmark", target.stem.into())
        .field("config", target.config_label.into())
        .field("scheduler", target.sched_label.into())
        .field("sample_interval", probe.sample_interval().into())
        .field("cycles", cycles.into())
        .field("samples", Json::Array(samples))
        .field("histograms", histograms)
        .field("ring", ring_json);
    obj
}

/// Stable event names for the Chrome trace export.
fn kind_slug(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Distributed => "distributed",
        EventKind::MasterIssued => "master_issued",
        EventKind::SlaveIssued => "slave_issued",
        EventKind::ExecDone => "exec_done",
        EventKind::OperandWritten => "operand_written",
        EventKind::ResultWritten => "result_written",
        EventKind::RegWritten => "reg_written",
        EventKind::SlaveSuspended => "slave_suspended",
        EventKind::SlaveWoke => "slave_woke",
        EventKind::Retired => "retired",
        EventKind::Mispredicted => "mispredicted",
        EventKind::ReplaySquashed => "replay_squashed",
    }
}

/// Renders the ring as Chrome trace-event JSON: one `ph:"i"` instant per
/// lifecycle event (`ts` = cycle, `pid` = cluster, `tid` = instruction
/// sequence number) plus one `ph:"X"` span per instruction whose
/// dispatch *and* retire both survive in the ring.
fn chrome_trace_json(ring: &EventRing) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(ring.len());
    // seq -> (dispatch cycle, dispatch pid, retire cycle)
    let mut spans: Vec<(u64, u64, u64, Option<u64>)> = Vec::new();
    for e in ring.iter() {
        let pid = e.cluster.map_or(0, |c| c.index() as u64);
        let mut obj = Json::object();
        obj.field("name", kind_slug(e.kind).into())
            .field("cat", "lifecycle".into())
            .field("ph", "i".into())
            .field("ts", e.cycle.into())
            .field("pid", pid.into())
            .field("tid", e.seq.into())
            .field("s", "t".into());
        events.push(obj);
        match e.kind {
            EventKind::Distributed if !spans.iter().any(|(seq, ..)| *seq == e.seq) => {
                spans.push((e.seq, e.cycle, pid, None));
            }
            EventKind::Retired => {
                if let Some(span) = spans.iter_mut().find(|(seq, ..)| *seq == e.seq) {
                    span.3 = Some(e.cycle);
                }
            }
            _ => {}
        }
    }
    for (seq, dispatch, pid, retire) in spans {
        let Some(retire) = retire else { continue };
        let mut obj = Json::object();
        obj.field("name", format!("seq {seq}").as_str().into())
            .field("cat", "lifetime".into())
            .field("ph", "X".into())
            .field("ts", dispatch.into())
            .field("dur", retire.saturating_sub(dispatch).max(1).into())
            .field("pid", pid.into())
            .field("tid", seq.into());
        events.push(obj);
    }
    chrome_trace_document(events)
}

/// Wraps pre-built trace events in the Chrome trace document shape
/// every trace export in this crate shares (`--obs` per-cell traces and
/// the `--flight` whole-run recording).
pub(crate) fn chrome_trace_document(events: Vec<Json>) -> Json {
    let mut obj = Json::object();
    obj.field("traceEvents", Json::Array(events)).field("displayTimeUnit", "ns".into());
    obj
}

fn require(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// The five histogram keys every series export must carry.
const HISTOGRAM_KEYS: [&str; 5] = [
    "dispatch_to_issue",
    "issue_to_complete",
    "complete_to_retire",
    "otb_residency",
    "rtb_residency",
];

fn validate_series(doc: &Json) -> Result<usize, String> {
    let samples = doc.get("samples").and_then(Json::as_array).ok_or("samples is not an array")?;
    for s in samples {
        require(
            s.get("cycle_end").and_then(Json::as_u64).is_some()
                && s.get("ipc").and_then(Json::as_f64).is_some()
                && s.get("stalls").and_then(|v| v.get("replay")).is_some(),
            "sample missing cycle_end/ipc/stalls",
        )?;
    }
    for key in HISTOGRAM_KEYS {
        let h = doc
            .get("histograms")
            .and_then(|v| v.get(key))
            .ok_or_else(|| format!("histogram {key} missing"))?;
        require(
            h.get("count").and_then(Json::as_u64).is_some()
                && h.get("buckets").and_then(Json::as_array).is_some(),
            "histogram missing count/buckets",
        )?;
    }
    Ok(0)
}

/// Checks the Chrome trace shape every trace export shares; returns the
/// event count.
pub(crate) fn validate_trace(doc: &Json) -> Result<usize, String> {
    let events =
        doc.get("traceEvents").and_then(Json::as_array).ok_or("traceEvents is not an array")?;
    require(!events.is_empty(), "traceEvents is empty")?;
    for e in events {
        require(
            e.get("ph").and_then(Json::as_str).is_some()
                && e.get("ts").and_then(Json::as_f64).is_some()
                && e.get("pid").and_then(Json::as_f64).is_some(),
            "trace event missing ph/ts/pid",
        )?;
    }
    Ok(events.len())
}

/// How an export is read before its own checks see it. A check returns
/// the count its summary label reports (`{events}`), or what is wrong.
#[derive(Clone, Copy)]
enum Format {
    /// A JSON document that must carry this `schema_version`, if any.
    Json(Option<u64>, fn(&Json) -> Result<usize, String>),
    /// A text file.
    Text(fn(&str) -> Result<usize, String>),
}

/// One kind of export `validate_dir` recognises by file-name suffix.
struct Export {
    suffix: &'static str,
    /// Summary label after the file count; `{events}` is replaced by the
    /// sum of the kind's check counts.
    label: &'static str,
    format: Format,
}

/// Every export kind, in summary order.
const EXPORTS: [Export; 7] = [
    Export {
        suffix: ".series.json",
        label: "series file(s)",
        format: Format::Json(Some(SERIES_SCHEMA_VERSION), validate_series),
    },
    Export {
        suffix: ".trace.json",
        label: "Chrome trace file(s) ({events} events)",
        format: Format::Json(None, validate_trace),
    },
    Export {
        suffix: ".critpath.json",
        label: "critpath attribution file(s)",
        format: Format::Json(Some(explain::CRITPATH_SCHEMA_VERSION), explain::validate_critpath),
    },
    Export {
        suffix: ".hostprof.json",
        label: "hostprof profile(s)",
        format: Format::Json(Some(profile::HOSTPROF_SCHEMA_VERSION), profile::validate_hostprof),
    },
    Export {
        suffix: ".pipetrace.json",
        label: "pipetrace export(s)",
        format: Format::Json(
            Some(pipetrace::PIPETRACE_SCHEMA_VERSION),
            pipetrace::validate_pipetrace,
        ),
    },
    Export {
        suffix: ".konata",
        label: "Konata trace(s)",
        format: Format::Text(pipetrace::validate_konata),
    },
    Export {
        suffix: ".flight.json",
        label: "flight recording(s)",
        format: Format::Json(None, flight::validate_flight),
    },
];

/// Reads, parses and checks one export of the given kind; returns its
/// check's count.
fn validate_export(export: &Export, path: &Path) -> Result<usize, Error> {
    let fail = |detail: String| obs_err(&path.display().to_string(), detail);
    let text = std::fs::read_to_string(path).map_err(|e| fail(format!("reading: {e}")))?;
    match export.format {
        Format::Text(check) => check(&text),
        Format::Json(schema, check) => {
            let doc = Json::parse(&text).map_err(|e| fail(e.to_string()))?;
            if schema.is_some() && doc.get("schema_version").and_then(Json::as_u64) != schema {
                return Err(fail("schema_version missing or unsupported".to_owned()));
            }
            check(&doc)
        }
    }
    .map_err(fail)
}

/// Validates one export file by its kind.
///
/// # Panics
///
/// When the file name matches no export kind.
#[cfg(test)]
pub(crate) fn validate_file(path: &Path) -> Result<usize, Error> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    let export = EXPORTS.iter().find(|e| name.ends_with(e.suffix)).expect("an export file name");
    validate_export(export, path)
}

/// Validates a directory of exports: every file whose name ends in one
/// of the `EXPORTS` suffixes — `--obs` series and Chrome traces,
/// `repro explain` critpath attributions, `repro profile` host profiles,
/// `repro pipetrace` JSON and Konata traces, `--flight` recordings —
/// must parse and carry its kind's schema; for critpath, hostprof and
/// pipetrace exports that includes re-checking the identity guarantees
/// from the file. Returns a one-line summary.
///
/// An empty or missing directory is a hard failure, never a vacuous
/// pass: `repro obs-validate` exists to prove exports were produced.
/// Every file is checked even after the first failure, so one pass
/// reports ALL invalid exports, not just the lexicographically first.
///
/// # Errors
///
/// [`Error::Obs`] when the directory is unreadable or holds no exports,
/// or — listing every failing file — when any export fails validation.
pub fn validate_dir(dir: &Path) -> Result<String, Error> {
    let context = dir.display().to_string();
    let entries = std::fs::read_dir(dir).map_err(|e| obs_err(&format!("reading {context}"), e))?;
    let mut names: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    names.sort();
    let mut files = [0usize; EXPORTS.len()];
    let mut counts = [0usize; EXPORTS.len()];
    let mut failures: Vec<String> = Vec::new();
    for path in &names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(kind) = EXPORTS.iter().position(|e| name.ends_with(e.suffix)) else { continue };
        files[kind] += 1;
        match validate_export(&EXPORTS[kind], path) {
            Ok(n) => counts[kind] += n,
            Err(e) => failures.push(e.to_string()),
        }
    }
    if !failures.is_empty() {
        return Err(obs_err(
            &context,
            format!("{} invalid export(s):\n  {}", failures.len(), failures.join("\n  ")),
        ));
    }
    if files.iter().all(|&n| n == 0) {
        return Err(obs_err(
            &context,
            "no observability exports found (empty or missing exports are a failure, \
             not a vacuous pass)",
        ));
    }
    // `--obs` always writes series and trace files in pairs; a lone kind
    // means a partial or corrupted export run.
    let (series, traces) = (files[0], files[1]);
    if (series == 0) != (traces == 0) {
        return Err(obs_err(
            &context,
            format!("expected both export kinds, found {series} series and {traces} trace files"),
        ));
    }
    let parts: Vec<String> = EXPORTS
        .iter()
        .zip(files.iter().zip(counts))
        .map(|(e, (n, count))| format!("{n} {}", e.label.replace("{events}", &count.to_string())))
        .collect();
    let (last, rest) = parts.split_last().expect("the export table is not empty");
    Ok(format!("{}, and {last} valid", rest.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_isa::ClusterId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-obs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chrome_trace_events_carry_ph_ts_pid() {
        let mut ring = EventRing::new(16);
        ring.push(10, 3, Some(ClusterId::C0), EventKind::Distributed);
        ring.push(12, 3, Some(ClusterId::C1), EventKind::SlaveIssued);
        ring.push(13, 3, Some(ClusterId::C0), EventKind::MasterIssued);
        ring.push(20, 3, None, EventKind::Retired);
        let rendered = chrome_trace_json(&ring).render();
        // Parse what we just emitted and check the Chrome trace schema.
        let doc = Json::parse(&rendered).expect("export parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("array");
        // Four instants plus one lifetime span (dispatch + retire seen).
        assert_eq!(events.len(), 5);
        for e in events {
            assert!(e.get("ph").and_then(Json::as_str).is_some(), "ph present");
            assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts numeric");
            assert!(e.get("pid").and_then(Json::as_f64).is_some(), "pid numeric");
        }
        let span = events.last().unwrap();
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn observe_cell_exports_validate_and_stats_stay_identical() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let settings = ObsSettings { dir: dir.clone(), sample_interval: 256 };
        let written = observe_cell(&store, Benchmark::Compress, 40, &settings).unwrap();
        assert_eq!(written, ["compress.series.json", "compress.trace.json"]);
        let summary = validate_dir(&dir).unwrap();
        assert!(summary.contains("1 series"), "{summary}");
        // Spot-check the series export round-trips through the parser.
        let text = std::fs::read_to_string(dir.join("compress.series.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("compress"));
        assert_eq!(doc.get("sample_interval").and_then(Json::as_u64), Some(256));
        assert!(doc.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_dir_rejects_missing_or_malformed_exports() {
        let dir = temp_dir("bad");
        assert!(validate_dir(&dir).is_err(), "empty dir has no exports");
        std::fs::write(dir.join("x.series.json"), "{\"schema_version\":99}").unwrap();
        std::fs::write(dir.join("x.trace.json"), "{\"traceEvents\":[]}").unwrap();
        assert!(validate_dir(&dir).is_err(), "wrong schema_version must fail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_dir_reports_every_invalid_export_not_just_the_first() {
        let dir = temp_dir("multi");
        let broken = [
            ("a.konata", "not a konata file"),
            ("b.pipetrace.json", "{\"schema_version\":99}"),
            ("c.critpath.json", "{"),
            ("d.series.json", "{\"schema_version\":1}"),
            ("d.trace.json", "{\"traceEvents\":[]}"),
            ("e.hostprof.json", "{\"schema_version\":1,\"cycles\":1}"),
            ("f.flight.json", "{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1,\"pid\":1}]}"),
        ];
        assert_eq!(broken.len(), EXPORTS.len(), "one broken file per export kind");
        for (name, contents) in broken {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        let err = validate_dir(&dir).unwrap_err().to_string();
        assert!(err.contains("7 invalid export(s)"), "{err}");
        for (name, _) in broken {
            assert!(err.contains(name), "missing {name} in: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn companion_rejects_a_run_that_diverges_from_its_reference() {
        let (trace, _) = mcl_trace::vm::trace_program_packed(
            &mcl_workloads::scenarios::all()[0].program,
            0,
        )
        .unwrap();
        let cfg = ProcessorConfig::dual_cluster_8way();
        let mut expected = Processor::new(cfg.clone()).run_packed(&trace).unwrap().stats;
        expected.cycles += 1;
        let mut probe = mcl_core::CritPathProbe::new();
        let reference = Reference::Run(Arc::new(trace), &expected, CheckLevel::Off);
        let err = companion("perturbed", &cfg, reference, Instrument::Probe(&mut probe))
            .err()
            .expect("a diverging run is rejected");
        let Error::Obs(detail) = err else { panic!("expected Error::Obs, got {err}") };
        assert!(detail.starts_with("perturbed: "), "{detail}");
        let counts = format!("({} vs {} cycles)", expected.cycles - 1, expected.cycles);
        assert!(detail.contains(&counts), "{detail}");
    }
}
