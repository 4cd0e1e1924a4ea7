//! `repro explain` — critical-path cycle-loss attribution reports.
//!
//! For each benchmark this module reruns the dual-cluster /
//! local-scheduler Table 2 cell with a [`CritPathProbe`] attached and
//! turns the probe's exact per-cause cycle breakdown into two
//! artifacts:
//!
//! - `<bench>.critpath.json` — the machine-readable attribution
//!   (schema documented in `EXPERIMENTS.md`, validated by
//!   `repro obs-validate`);
//! - a rendered per-cell text report, printed by the driver.
//!
//! With `--baseline CONFIG` the report turns differential: the named
//! reference cell (the single-cluster run of Table 2, or the
//! dual-cluster native run) is attributed the same way and the two
//! breakdowns are diffed. Because each attribution sums *exactly* to
//! its run's cycle count, the per-cause deltas (as a percentage of
//! baseline cycles) sum exactly to the cell's slowdown — "compress
//! loses 14.2%: 9.1% inter-cluster forward, 3.8% spill code, 1.3% OTB
//! credit" is an identity, not an estimate.
//!
//! Like the `--obs` exports, the instrumented runs are
//! `obs::companion` runs: the reported statistics
//! come from the uninstrumented store simulation, and attribution can
//! never perturb what it explains.

use std::path::Path;

use mcl_core::{CritAttribution, CritCause, CritPathProbe, ProcessorConfig, SimStats};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

use crate::json::Json;
use crate::obs::{companion, obs_err, write_export, Instrument, Reference};
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{Error, TraceStore};

/// Schema version of the `*.critpath.json` exports.
pub const CRITPATH_SCHEMA_VERSION: u64 = 1;

/// The reference cell a differential explain report diffs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// The native binary on the single-cluster machine (Table 2's
    /// denominator).
    Single,
    /// The native (cluster-blind) binary on the dual-cluster machine
    /// (Table 2's "none" column).
    DualNone,
}

impl Baseline {
    /// Parses a `--baseline` value.
    ///
    /// # Errors
    ///
    /// A usage message listing the accepted names.
    pub fn parse(s: &str) -> Result<Baseline, String> {
        match s {
            "single" => Ok(Baseline::Single),
            "dual-none" => Ok(Baseline::DualNone),
            other => Err(format!(
                "invalid --baseline `{other}` (expected `single` or `dual-none`)"
            )),
        }
    }

    /// The stable name recorded in exports and `BENCH_repro.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Single => "single",
            Baseline::DualNone => "dual-none",
        }
    }

    pub(crate) fn request(self, bench: Benchmark, scale: u32) -> TraceRequest {
        // Both baselines run the native cluster-blind binary, exactly as
        // Table 2 does.
        let _ = self;
        TraceRequest::new(bench, scale, SchedulerKind::Naive)
    }

    pub(crate) fn config(self) -> ProcessorConfig {
        match self {
            Baseline::Single => ProcessorConfig::single_cluster_8way(),
            Baseline::DualNone => ProcessorConfig::dual_cluster_8way(),
        }
    }

    pub(crate) fn labels(self) -> (&'static str, &'static str) {
        match self {
            Baseline::Single => ("single_cluster_8way", "naive"),
            Baseline::DualNone => ("dual_cluster_8way", "naive"),
        }
    }
}

/// One attributed run: its labels, statistics, and the exact per-cause
/// breakdown.
#[derive(Debug, Clone)]
struct AttributedRun {
    labels: (&'static str, &'static str),
    stats: SimStats,
    attr: CritAttribution,
}

/// Runs one companion with a [`CritPathProbe`] and enforces the
/// critical-path identity: the per-cause breakdown sums exactly to the
/// run's cycles, and the probe saw every retirement. `repro explain`
/// cells and the `repro selftest` sweep both check through it.
///
/// # Errors
///
/// As [`companion`], or [`Error::Obs`] naming `stem` when the identity
/// fails.
pub(crate) fn attribute(
    stem: &str,
    cfg: &ProcessorConfig,
    reference: Reference<'_>,
) -> Result<(SimStats, CritAttribution), Error> {
    let mut probe = CritPathProbe::new();
    let run = companion(stem, cfg, reference, Instrument::Probe(&mut probe))?;
    let attr = probe.attribution(run.stats.cycles);
    attr.check_identity(run.stats.cycles).map_err(|e| obs_err(stem, e))?;
    if attr.retired != run.stats.retired {
        return Err(obs_err(
            stem,
            format!(
                "probe saw {} retirements, simulator reported {}",
                attr.retired, run.stats.retired
            ),
        ));
    }
    Ok((run.stats, attr))
}

/// Runs the explain cell of one benchmark: attributes the dual-cluster
/// local-scheduler run (and the baseline, when given), writes
/// `<bench>.critpath.json` into `dir`, and returns the rendered text
/// report plus the cell cost.
///
/// # Errors
///
/// [`Error::Obs`] when the attribution identity fails, the instrumented
/// run diverges from the store run, or the export cannot be written;
/// harness errors propagate.
pub fn explain_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    dir: &Path,
    baseline: Option<Baseline>,
) -> Result<(String, CellCost), Error> {
    let mut cost = CellCost::default();
    let mut run = |stem: &str, req: &TraceRequest, cfg: &ProcessorConfig, labels| {
        let (stats, attr) = attribute(stem, cfg, Reference::Store(store, req, &mut cost))?;
        Ok::<_, Error>(AttributedRun { labels, stats, attr })
    };
    let target = run(
        bench.name(),
        &TraceRequest::new(bench, scale, SchedulerKind::Local),
        &ProcessorConfig::dual_cluster_8way(),
        ("dual_cluster_8way", "local"),
    )?;
    let base = baseline
        .map(|b| {
            let stem = format!("{} baseline", bench.name());
            run(&stem, &b.request(bench, scale), &b.config(), b.labels())
        })
        .transpose()?;

    let doc = critpath_json(bench, &target, baseline, base.as_ref());
    write_export(dir, &format!("{}.critpath.json", bench.name()), &(doc.render() + "\n"))?;
    Ok((render_cell(bench, &target, baseline, base.as_ref()), cost))
}

fn attribution_json(attr: &CritAttribution) -> Json {
    let mut obj = Json::object();
    for (cause, cycles) in attr.iter() {
        obj.field(cause.name(), cycles.into());
    }
    obj
}

fn run_json(run: &AttributedRun) -> Json {
    let mut obj = Json::object();
    obj.field("config", run.labels.0.into())
        .field("scheduler", run.labels.1.into())
        .field("cycles", run.stats.cycles.into())
        .field("retired", run.stats.retired.into())
        .field("ipc", run.stats.ipc().into())
        .field("attribution", attribution_json(&run.attr));
    obj
}

fn critpath_json(
    bench: Benchmark,
    target: &AttributedRun,
    baseline: Option<Baseline>,
    base: Option<&AttributedRun>,
) -> Json {
    let mut obj = Json::object();
    obj.field("schema_version", CRITPATH_SCHEMA_VERSION.into())
        .field("benchmark", bench.name().into())
        .field("target", run_json(target));
    match (baseline, base) {
        (Some(b), Some(base)) => {
            let mut diff = run_json(base);
            diff.field("name", b.name().into())
                .field("slowdown_pct", slowdown_pct(target, base).into());
            let mut deltas = Json::object();
            for (cause, _) in target.attr.iter() {
                deltas.field(cause.name(), delta_pct(target, base, cause).into());
            }
            diff.field("delta_pct", deltas);
            obj.field("baseline", diff);
        }
        _ => {
            obj.field("baseline", Json::Null);
        }
    }
    obj
}

/// Cycle cost of the target relative to the baseline, as a percentage
/// of baseline cycles (positive = the target is slower).
fn slowdown_pct(target: &AttributedRun, base: &AttributedRun) -> f64 {
    (target.stats.cycles as f64 - base.stats.cycles as f64) / base.stats.cycles as f64 * 100.0
}

/// Per-cause share of the slowdown, as a percentage of baseline cycles.
/// Because each attribution sums to its run's cycles, these deltas sum
/// exactly to [`slowdown_pct`].
fn delta_pct(target: &AttributedRun, base: &AttributedRun, cause: CritCause) -> f64 {
    (target.attr.cycles(cause) as f64 - base.attr.cycles(cause) as f64)
        / base.stats.cycles as f64
        * 100.0
}

/// Causes ordered by descending cycle share (stable on ties).
fn ranked(attr: &CritAttribution) -> Vec<(CritCause, u64)> {
    let mut causes: Vec<(CritCause, u64)> = attr.iter().collect();
    causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    causes
}

fn render_cell(
    bench: Benchmark,
    target: &AttributedRun,
    baseline: Option<Baseline>,
    base: Option<&AttributedRun>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} cycles, IPC {:.2} (dual-cluster, local scheduler)",
        bench.name(),
        target.stats.cycles,
        target.stats.ipc()
    );
    for (cause, cycles) in ranked(&target.attr) {
        if cycles == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>5.1}%  {:>12} cycles",
            cause.name(),
            cycles as f64 / target.stats.cycles as f64 * 100.0,
            cycles
        );
    }
    if let (Some(b), Some(base)) = (baseline, base) {
        let slow = slowdown_pct(target, base);
        let verb = if slow >= 0.0 { "loses" } else { "gains" };
        let _ = writeln!(
            out,
            "  vs {} ({} cycles, IPC {:.2}): {verb} {:.1}% of baseline cycles",
            b.name(),
            base.stats.cycles,
            base.stats.ipc(),
            slow.abs()
        );
        let mut deltas: Vec<(CritCause, f64)> = target
            .attr
            .iter()
            .map(|(cause, _)| (cause, delta_pct(target, base, cause)))
            .filter(|&(_, d)| d.abs() >= 0.05)
            .collect();
        deltas.sort_by(|a, b| {
            b.1.abs().partial_cmp(&a.1.abs()).unwrap().then(a.0.index().cmp(&b.0.index()))
        });
        for (cause, d) in deltas {
            let _ = writeln!(out, "    {:<22} {:>+6.1}%", cause.name(), d);
        }
    }
    out
}

/// Checks one parsed `*.critpath.json` export (its schema version is
/// checked by [`crate::obs::validate_dir`]): a complete per-cause
/// attribution and — re-checked from the file itself — the attribution
/// identity (causes sum to the run's cycles), for both the target and
/// any baseline.
///
/// # Errors
///
/// The first violation.
pub(crate) fn validate_critpath(doc: &Json) -> Result<usize, String> {
    for key in ["target", "baseline"] {
        let Some(run) = doc.get(key) else {
            return Err(format!("{key} object missing"));
        };
        if matches!(run, Json::Null) {
            continue; // baseline-less export
        }
        let cycles = run
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{key}.cycles missing"))?;
        let attr = run.get("attribution").ok_or_else(|| format!("{key}.attribution missing"))?;
        let mut sum = 0u64;
        for cause in CritCause::ALL {
            sum += attr
                .get(cause.name())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{key}.attribution.{} missing", cause.name()))?;
        }
        if sum != cycles {
            return Err(format!(
                "{key} attribution identity violated: causes sum to {sum}, run has {cycles} cycles"
            ));
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::validate_file;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-explain-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn explain_cell_exports_validate_and_diff_decomposes_exactly() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let (rendered, cost) =
            explain_cell(&store, Benchmark::Compress, 40, &dir, Some(Baseline::Single)).unwrap();
        assert!(rendered.starts_with("compress: "), "{rendered}");
        assert!(rendered.contains("vs single ("), "{rendered}");
        assert!(cost.simulated_cycles > 0);

        let path = dir.join("compress.critpath.json");
        validate_file(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let target = doc.get("target").unwrap();
        let base = doc.get("baseline").unwrap();
        assert_eq!(base.get("name").and_then(Json::as_str), Some("single"));
        // The per-cause deltas must sum exactly (modulo float rendering)
        // to the reported slowdown — the differential identity.
        let slowdown = base.get("slowdown_pct").and_then(Json::as_f64).unwrap();
        let delta_sum: f64 = CritCause::ALL
            .iter()
            .map(|c| base.get("delta_pct").unwrap().get(c.name()).and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            (slowdown - delta_sum).abs() < 1e-3,
            "slowdown {slowdown} != delta sum {delta_sum}"
        );
        // Spill code the local scheduler inserted must surface in the
        // target attribution namespace (possibly zero, but present).
        assert!(target.get("attribution").unwrap().get("sched_spill").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_without_baseline_writes_null_baseline() {
        let dir = temp_dir("nobase");
        let store = TraceStore::new();
        let (rendered, _) =
            explain_cell(&store, Benchmark::Compress, 40, &dir, None).unwrap();
        assert!(!rendered.contains("vs "), "{rendered}");
        let path = dir.join("compress.critpath.json");
        validate_file(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(matches!(doc.get("baseline"), Some(Json::Null)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_critpath_rejects_broken_identity() {
        let dir = temp_dir("broken");
        let path = dir.join("x.critpath.json");
        let mut attr = String::new();
        for (i, cause) in CritCause::ALL.iter().enumerate() {
            if i > 0 {
                attr.push(',');
            }
            attr.push_str(&format!("\"{}\":1", cause.name()));
        }
        // 17 causes × 1 cycle but the run claims 100 cycles.
        let doc = format!(
            "{{\"schema_version\":1,\"benchmark\":\"x\",\"target\":{{\"cycles\":100,\
             \"attribution\":{{{attr}}}}},\"baseline\":null}}"
        );
        std::fs::write(&path, doc).unwrap();
        let err = validate_file(&path).unwrap_err().to_string();
        assert!(err.contains("identity violated"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_parse_accepts_known_names_only() {
        assert_eq!(Baseline::parse("single").unwrap(), Baseline::Single);
        assert_eq!(Baseline::parse("dual-none").unwrap(), Baseline::DualNone);
        assert!(Baseline::parse("fastest").is_err());
    }
}
