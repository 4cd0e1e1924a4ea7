//! `repro profile` — host engine phase-cost attribution reports.
//!
//! For each benchmark this module reruns the dual-cluster /
//! local-scheduler Table 2 cell with a [`PhaseProf`](mcl_core::PhaseProf)
//! attached and turns the telescoped per-phase nanosecond buckets into
//! two artifacts:
//!
//! - `<bench>.hostprof.json` — the machine-readable breakdown (schema
//!   [`HOSTPROF_SCHEMA_VERSION`], validated by `repro obs-validate`),
//!   which names the check level the run simulated under: a
//!   `--check cycle` run is single-stepped and pays for the checker;
//! - a rendered ranked ns-per-live-cycle report, printed by the driver.
//!
//! Where `repro explain` attributes *simulated cycles* to machine
//! causes, `repro profile` attributes *host nanoseconds* to engine
//! phases: where the wall time of a live cycle actually goes inside the
//! simulator (dispatch, issue, wakeup, completion drains, retire,
//! checker, fast-forward bookkeeping). The profiled run is an
//! `obs::companion` run that deliberately takes the real engine path —
//! unlike probes, a [`HostProf`](mcl_core::HostProf) does not force
//! single-stepping — so profiling can never perturb what it measures.
//! Each report also carries the hard sum-to-elapsed identity
//! ([`HostProfReport::check_identity`]), which `repro obs-validate`
//! re-checks from the file, the deterministic work counts
//! ([`WorkCounter`]) and the calibrated cost of one phase mark, so a
//! reader can tell how much of each live cycle is the profiler's own
//! clock reads.

use std::path::Path;

use mcl_core::obs::hostprof::HOSTPROF_SLOP_NS;
use mcl_core::obs::NullProbe;
use mcl_core::{CheckLevel, HostPhase, HostProfReport, ProcessorConfig, WorkCounter};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

use crate::json::Json;
use crate::obs::{companion, obs_err, write_export, Instrument, Reference};
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{Error, TraceStore};

/// Schema version of the `*.hostprof.json` exports (2 added `marks`,
/// `clock_ns` and the `work` counts; 3 added `check`, the
/// invariant-check level the profiled run simulated under).
pub const HOSTPROF_SCHEMA_VERSION: u64 = 3;

/// Runs one profiled companion and enforces the host-profile identity:
/// phase nanoseconds sum to the sampled span, the profiler counted the
/// run's cycles, and no more live cycles than that. `repro profile`
/// cells and the `repro selftest` sweep both check through it.
///
/// # Errors
///
/// As [`companion`], or [`Error::Obs`] naming `stem` when the identity
/// fails.
pub(crate) fn profile(
    stem: &str,
    cfg: &ProcessorConfig,
    reference: Reference<'_>,
) -> Result<HostProfReport, Error> {
    let run = companion(stem, cfg, reference, Instrument::<NullProbe>::HostProf)?;
    let report = run.hostprof.expect("a profiled companion carries its report");
    report.check_identity().map_err(|e| obs_err(stem, e))?;
    if report.cycles != run.stats.cycles {
        return Err(obs_err(
            stem,
            format!(
                "profiler saw {} cycles, simulator reported {}",
                report.cycles, run.stats.cycles
            ),
        ));
    }
    if report.live_cycles > report.cycles {
        return Err(obs_err(
            stem,
            format!(
                "profiler counted {} live cycles in a {}-cycle run",
                report.live_cycles, report.cycles
            ),
        ));
    }
    Ok(report)
}

/// Runs the profile cell of one benchmark: profiles the dual-cluster
/// local-scheduler run, writes `<bench>.hostprof.json` into `dir`, and
/// returns the rendered ranked report plus the cell cost.
///
/// # Errors
///
/// [`Error::Obs`] when the sum-to-elapsed identity fails, the profiled
/// run diverges from the store run, or the export cannot be written;
/// harness errors propagate.
pub fn profile_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    dir: &Path,
) -> Result<(String, CellCost), Error> {
    let mut cost = CellCost::default();
    let report = profile(
        bench.name(),
        &ProcessorConfig::dual_cluster_8way(),
        Reference::Store(store, &TraceRequest::new(bench, scale, SchedulerKind::Local), &mut cost),
    )?;
    let doc = hostprof_json(bench, store.check_level(), &report);
    write_export(dir, &format!("{}.hostprof.json", bench.name()), &(doc.render() + "\n"))?;
    Ok((render_cell(bench, &report), cost))
}

fn hostprof_json(bench: Benchmark, check: CheckLevel, report: &HostProfReport) -> Json {
    let mut phases = Json::object();
    for phase in HostPhase::ALL {
        phases.field(phase.name(), report.phase_ns[phase.index()].into());
    }
    let mut work = Json::object();
    for counter in WorkCounter::ALL {
        work.field(counter.name(), report.work(counter).into());
    }
    let mut obj = Json::object();
    obj.field("schema_version", HOSTPROF_SCHEMA_VERSION.into())
        .field("benchmark", bench.name().into())
        .field("config", "dual_cluster_8way".into())
        .field("scheduler", "local".into())
        .field("check", check.name().into())
        .field("cycles", report.cycles.into())
        .field("live_cycles", report.live_cycles.into())
        .field("elapsed_ns", report.elapsed_ns.into())
        .field("slop_ns", HOSTPROF_SLOP_NS.into())
        .field("ns_per_live_cycle", report.ns_per_live_cycle().into())
        .field("marks", report.marks.into())
        .field("clock_ns", report.clock_ns.into())
        .field("phase_ns", phases)
        .field("work", work);
    obj
}

/// Phases ordered by descending charged time (stable on ties).
fn ranked(report: &HostProfReport) -> Vec<(HostPhase, u64)> {
    let mut phases: Vec<(HostPhase, u64)> =
        HostPhase::ALL.iter().map(|&p| (p, report.phase_ns[p.index()])).collect();
    phases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    phases
}

fn render_cell(bench: Benchmark, report: &HostProfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let skipped = report.cycles.saturating_sub(report.live_cycles);
    let _ = writeln!(
        out,
        "{}: {:.0} ns/live-cycle over {} live cycles ({} simulated, {} fast-forwarded)",
        bench.name(),
        report.ns_per_live_cycle(),
        report.live_cycles,
        report.cycles,
        skipped
    );
    let _ = writeln!(
        out,
        "  profiler: {:.1} clock reads per live cycle at {:.1} ns each ({:.0} ns/live-cycle \
         of the total is its own marks)",
        report.marks_per_live_cycle(),
        report.clock_ns,
        report.clock_ns_per_live_cycle()
    );
    let total = report.total_ns().max(1);
    for (phase, ns) in ranked(report) {
        if ns == 0 {
            continue;
        }
        let per_cycle = if report.live_cycles == 0 {
            0.0
        } else {
            ns as f64 / report.live_cycles as f64
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>5.1}%  {:>10.1} ns/cycle  {:>14} ns",
            phase.name(),
            ns as f64 / total as f64 * 100.0,
            per_cycle,
            ns
        );
    }
    let counts: Vec<String> = WorkCounter::ALL
        .iter()
        .map(|&c| format!("{} {}", c.name(), report.work(c)))
        .collect();
    let _ = writeln!(out, "  work: {}", counts.join(", "));
    out
}

/// Checks one parsed `*.hostprof.json` export (its schema version is
/// checked by [`crate::obs::validate_dir`]): a complete per-phase
/// breakdown, the mark count and clock cost, every work count, a known
/// check level, and —
/// re-checked from the file itself — the sum-to-elapsed identity (phase
/// buckets sum to no more than `elapsed_ns` and trail it by at most the
/// file's recorded `slop_ns`).
///
/// # Errors
///
/// The first violation.
pub(crate) fn validate_hostprof(doc: &Json) -> Result<usize, String> {
    let field =
        |key: &str| doc.get(key).and_then(Json::as_u64).ok_or_else(|| format!("{key} missing"));
    let (cycles, live) = (field("cycles")?, field("live_cycles")?);
    let (elapsed, slop) = (field("elapsed_ns")?, field("slop_ns")?);
    if live == 0 || live > cycles {
        return Err(format!("implausible live_cycles {live} of {cycles} cycles"));
    }
    let phases = doc.get("phase_ns").ok_or("phase_ns object missing")?;
    let mut sum = 0u64;
    for phase in HostPhase::ALL {
        sum += phases
            .get(phase.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("phase_ns.{} missing", phase.name()))?;
    }
    if sum > elapsed {
        return Err(format!("identity violated: phases sum to {sum} ns, elapsed is {elapsed} ns"));
    }
    if elapsed - sum > slop {
        return Err(format!(
            "identity violated: {} ns unattributed (slop {slop} ns)",
            elapsed - sum
        ));
    }
    if field("marks")? < live {
        return Err(format!("fewer marks than the {live} live cycles"));
    }
    match doc.get("clock_ns").and_then(Json::as_f64) {
        Some(ns) if ns.is_finite() && ns >= 0.0 => {}
        _ => return Err("clock_ns missing or not a duration".to_owned()),
    }
    let work = doc.get("work").ok_or("work object missing")?;
    for counter in WorkCounter::ALL {
        work.get(counter.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("work.{} missing", counter.name()))?;
    }
    doc.get("check").and_then(Json::as_str).ok_or("check missing")?.parse::<CheckLevel>()?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::validate_file;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-profile-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn profile_cell_exports_validate_and_report_ranks_phases() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let (rendered, cost) = profile_cell(&store, Benchmark::Compress, 40, &dir).unwrap();
        assert!(rendered.starts_with("compress: "), "{rendered}");
        assert!(rendered.contains("ns/live-cycle"), "{rendered}");
        assert!(cost.simulated_cycles > 0);

        let path = dir.join("compress.hostprof.json");
        validate_file(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("compress"));
        assert_eq!(doc.get("scheduler").and_then(Json::as_str), Some("local"));
        assert_eq!(doc.get("check").and_then(Json::as_str), Some("off"));
        let live = doc.get("live_cycles").and_then(Json::as_u64).unwrap();
        let cycles = doc.get("cycles").and_then(Json::as_u64).unwrap();
        assert!(live > 0 && live <= cycles);
        // Every phase key must be present, even when zero.
        for phase in HostPhase::ALL {
            assert!(
                doc.get("phase_ns").unwrap().get(phase.name()).and_then(Json::as_u64).is_some(),
                "phase {} exported",
                phase.name()
            );
        }
        // So must every work count; a run that issued something counted
        // what it dispatched, issued and examined.
        let work = |c: WorkCounter| doc.get("work").unwrap().get(c.name()).and_then(Json::as_u64);
        for counter in WorkCounter::ALL {
            assert!(work(counter).is_some(), "work count {} exported", counter.name());
        }
        let issued = work(WorkCounter::CopiesIssued).unwrap();
        assert!(issued > 0 && work(WorkCounter::OpsDispatched).unwrap() > 0);
        assert!(work(WorkCounter::ReadyExamined).unwrap() >= issued);
        assert!(doc.get("marks").and_then(Json::as_u64).unwrap() >= live);
        assert!(rendered.contains("clock reads per live cycle"), "{rendered}");
        assert!(rendered.contains("copies_issued"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_hostprof_rejects_broken_identity() {
        let dir = temp_dir("broken");
        let path = dir.join("x.hostprof.json");
        let mut phases = String::new();
        for (i, phase) in HostPhase::ALL.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!("\"{}\":1000", phase.name()));
        }
        // 8 phases × 1000 ns but the file claims 1 ns elapsed.
        let doc = format!(
            "{{\"schema_version\":3,\"benchmark\":\"x\",\"config\":\"c\",\"scheduler\":\"s\",\
             \"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":1,\"slop_ns\":0,\
             \"ns_per_live_cycle\":1.0,\"phase_ns\":{{{phases}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("identity violated"), "{err}");
        // An unattributed gap past the recorded slop also fails.
        let doc = format!(
            "{{\"schema_version\":3,\"benchmark\":\"x\",\"config\":\"c\",\"scheduler\":\"s\",\
             \"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":99000,\"slop_ns\":10,\
             \"ns_per_live_cycle\":1.0,\"phase_ns\":{{{phases}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("unattributed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_hostprof_rejects_missing_phase_or_schema() {
        let dir = temp_dir("missing");
        let path = dir.join("x.hostprof.json");
        std::fs::write(&path, "{\"schema_version\":99}").unwrap();
        assert!(validate_file(&path).is_err(), "wrong schema_version");
        std::fs::write(
            &path,
            "{\"schema_version\":3,\"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":10,\
             \"slop_ns\":10,\"phase_ns\":{\"dispatch\":1}}",
        )
        .unwrap();
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("phase_ns.timeq missing"), "{err}");
        // A complete breakdown without its work counts is rejected too.
        let doc =
            HostProfReport { live_cycles: 5, cycles: 10, marks: 40, ..HostProfReport::default() };
        let text = hostprof_json(Benchmark::Compress, CheckLevel::Cycle, &doc).render();
        let cut = text.find(",\"work\":").expect("work is exported last");
        std::fs::write(&path, format!("{},\"work\":{{}}}}", &text[..cut])).unwrap();
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("work.ops_dispatched missing"), "{err}");
        // The complete export validates, but not without a known check
        // level.
        std::fs::write(&path, &text).unwrap();
        validate_file(&path).unwrap();
        for (from, to, expected) in [
            ("\"check\":\"cycle\",", "", "check missing"),
            ("\"check\":\"cycle\"", "\"check\":\"full\"", "unknown check level `full`"),
        ] {
            std::fs::write(&path, text.replace(from, to)).unwrap();
            let err = validate_file(&path).unwrap_err().to_string();
            assert!(err.contains(expected), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
