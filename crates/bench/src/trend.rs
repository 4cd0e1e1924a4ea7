//! `repro trend` — perf-trend analysis and regression gating over
//! `BENCH_repro.history.jsonl`.
//!
//! Every `scripts/ci.sh` run appends one schema-versioned JSON object
//! (see [`crate::microbench`]) to the history file. This module reads
//! the whole file back — tolerating the mixed schema versions a
//! long-lived history accumulates — groups runs by their benchmark
//! scale `divisor`, and compares the latest run of each group against
//! the noise band of all earlier runs:
//!
//! - throughput metrics (`ticked_cps`, `event_cps`, the engine ratio,
//!   `skip_pct`) regress when they *fall* below the band;
//! - the cost metric `profile_ns_per_cycle` regresses when it *rises*
//!   above it.
//!
//! The band is `max(2σ of the baseline, a metric-specific floor)` —
//! wall-clock throughput on shared CI hosts is noisy, so the floors
//! keep one slow run from crying wolf while a real 2× regression still
//! trips the gate.
//!
//! Older lines are **upgraded on read, never skipped**: schema 9
//! renamed `skipped_pct` to `skip_pct`, so the old key is aliased to
//! the new name for schema ≤ 8 lines (the schema-7 seed lines in the
//! repo's own history parse exactly this way), and metrics a version
//! simply did not record yet (`profile_ns_per_cycle` before 9) are
//! treated as absent rather than zero. Keys that schema 10 dropped
//! (the time-window split run's count, throughput, speedup, warmup and
//! divergence) are ignored, so those runs group with every other run of
//! their divisor. Only unparseable lines are skipped, each reported
//! with its 1-based line number.
//!
//! `repro trend --gate` exits non-zero when any group regressed — the
//! CI hook.

use crate::json::Json;
use crate::microbench::HISTORY_SCHEMA_VERSION;
use crate::Error;

/// Oldest history schema `repro trend` can upgrade on read.
pub const TREND_MIN_SCHEMA: u64 = 7;

/// Direction and noise floors of one tracked metric.
struct MetricSpec {
    name: &'static str,
    /// `true` when larger values are better (throughput); `false` when
    /// smaller values are better (cost).
    higher_better: bool,
    /// Noise floor as a fraction of the baseline mean.
    rel_floor: f64,
    /// Noise floor in the metric's own units.
    abs_floor: f64,
}

/// Every metric the trend report tracks. Deterministic metrics get
/// tight floors; wall-clock ones get generous floors (shared CI hosts
/// jitter by tens of percent).
const METRICS: &[MetricSpec] = &[
    MetricSpec { name: "ticked_cps", higher_better: true, rel_floor: 0.30, abs_floor: 0.0 },
    MetricSpec { name: "event_cps", higher_better: true, rel_floor: 0.30, abs_floor: 0.0 },
    MetricSpec { name: "event_over_ticked", higher_better: true, rel_floor: 0.25, abs_floor: 0.0 },
    // Deterministic: depends only on traces and fast-forward rules.
    MetricSpec { name: "skip_pct", higher_better: true, rel_floor: 0.02, abs_floor: 0.5 },
    MetricSpec {
        name: "profile_ns_per_cycle",
        higher_better: false,
        rel_floor: 0.40,
        abs_floor: 0.0,
    },
];

/// One parsed (and schema-upgraded) history line.
#[derive(Debug, Clone)]
struct Entry {
    divisor: u64,
    /// Metric values by [`METRICS`] index; `None` when the line's
    /// schema did not record the metric.
    values: Vec<Option<f64>>,
}

/// Reads one metric off a line, applying the cross-version aliases: a
/// schema ≤ 8 line's `skipped_pct` *is* `skip_pct` under its old name.
fn metric_value(line: &Json, schema: u64, name: &str) -> Option<f64> {
    if let Some(v) = line.get(name).and_then(Json::as_f64) {
        return Some(v);
    }
    if name == "skip_pct" && schema < 9 {
        return line.get("skipped_pct").and_then(Json::as_f64);
    }
    None
}

fn parse_entry(line: &str) -> Result<Entry, String> {
    let v = Json::parse(line)?;
    let schema = v
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| "`schema` is not an integer".to_owned())?;
    if !(TREND_MIN_SCHEMA..=HISTORY_SCHEMA_VERSION).contains(&schema) {
        return Err(format!(
            "schema {schema} outside supported range {TREND_MIN_SCHEMA}..={HISTORY_SCHEMA_VERSION}"
        ));
    }
    Ok(Entry {
        divisor: v
            .get("divisor")
            .and_then(Json::as_u64)
            .ok_or_else(|| "`divisor` is not an integer".to_owned())?,
        values: METRICS.iter().map(|m| metric_value(&v, schema, m.name)).collect(),
    })
}

/// The verdict for one metric of one group.
#[derive(Debug, Clone)]
pub struct MetricTrend {
    /// Metric name (a history JSON key).
    pub name: &'static str,
    /// Mean of the baseline runs.
    pub baseline_mean: f64,
    /// Standard deviation of the baseline runs.
    pub baseline_std: f64,
    /// Number of baseline runs that recorded this metric.
    pub baseline_runs: usize,
    /// The latest run's value.
    pub latest: f64,
    /// Signed change from the baseline mean in percent; positive is an
    /// improvement in the metric's own direction.
    pub delta_pct: f64,
    /// How far past the noise band the latest run is, in band units
    /// (≤ 0 inside the band; > 1 means regressed).
    pub severity: f64,
    /// Whether the latest run regressed past the noise band.
    pub regressed: bool,
}

/// The trend of one `divisor` group.
#[derive(Debug, Clone)]
pub struct GroupTrend {
    /// Benchmark scale divisor of every run in the group.
    pub divisor: u64,
    /// Total runs in the group (baseline + latest).
    pub runs: usize,
    /// Per-metric verdicts, regressions first, worst first.
    pub metrics: Vec<MetricTrend>,
}

impl GroupTrend {
    /// Number of regressed metrics in this group.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.metrics.iter().filter(|m| m.regressed).count()
    }
}

/// The whole trend analysis.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// Parsed history lines.
    pub lines: usize,
    /// Per-configuration trends, in first-seen order.
    pub groups: Vec<GroupTrend>,
    /// Unusable lines as `(1-based line number, why)` — parse failures
    /// only; old schemas are upgraded, not skipped.
    pub skipped: Vec<(usize, String)>,
}

impl TrendReport {
    /// Total regressed metrics across all groups.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.groups.iter().map(GroupTrend::regressions).sum()
    }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn judge(spec: &MetricSpec, baseline: &[f64], latest: f64) -> MetricTrend {
    let (mean, std) = mean_std(baseline);
    // Worse-ness in the metric's own direction: positive means the
    // latest run moved the wrong way.
    let worse = if spec.higher_better { mean - latest } else { latest - mean };
    let band = (2.0 * std).max(spec.rel_floor * mean.abs()).max(spec.abs_floor);
    let severity = if band > 0.0 { worse / band } else { 0.0 };
    let delta_pct = if mean.abs() > f64::EPSILON { -worse / mean.abs() * 100.0 } else { 0.0 };
    MetricTrend {
        name: spec.name,
        baseline_mean: mean,
        baseline_std: std,
        baseline_runs: baseline.len(),
        latest,
        delta_pct,
        severity,
        regressed: severity > 1.0,
    }
}

/// Analyzes a history file's content: parses and schema-upgrades every
/// line, groups runs by `divisor`, and judges each group's latest run
/// against the noise band of its earlier runs. Groups with fewer than
/// two runs, and metrics with no baseline value, produce no verdicts.
///
/// # Errors
///
/// [`Error::Obs`] when the content holds no parseable history line at
/// all — an empty trend is a broken pipeline, not a clean bill.
pub fn analyze(history: &str) -> Result<TrendReport, Error> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut skipped = Vec::new();
    for (i, line) in history.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_entry(line.trim()) {
            Ok(e) => entries.push(e),
            Err(why) => skipped.push((i + 1, why)),
        }
    }
    if entries.is_empty() {
        return Err(Error::Obs(format!(
            "trend: no parseable history lines ({} skipped)",
            skipped.len()
        )));
    }
    // Group by divisor, preserving first-seen order.
    let mut divisors: Vec<u64> = Vec::new();
    for e in &entries {
        if !divisors.contains(&e.divisor) {
            divisors.push(e.divisor);
        }
    }
    let mut groups = Vec::new();
    for divisor in divisors {
        let runs: Vec<&Entry> = entries.iter().filter(|e| e.divisor == divisor).collect();
        let mut metrics = Vec::new();
        if let Some((latest, baseline)) = runs.split_last() {
            if !baseline.is_empty() {
                for (mi, spec) in METRICS.iter().enumerate() {
                    let base: Vec<f64> =
                        baseline.iter().filter_map(|e| e.values[mi]).collect();
                    let Some(latest_v) = latest.values[mi] else { continue };
                    if base.is_empty() {
                        continue;
                    }
                    metrics.push(judge(spec, &base, latest_v));
                }
            }
        }
        metrics.sort_by(|a, b| {
            b.regressed
                .cmp(&a.regressed)
                .then(b.severity.total_cmp(&a.severity))
                .then(a.name.cmp(b.name))
        });
        groups.push(GroupTrend { divisor, runs: runs.len(), metrics });
    }
    Ok(TrendReport { lines: entries.len(), groups, skipped })
}

fn format_value(name: &str, v: f64) -> String {
    if name.ends_with("_cps") && v >= 1e3 {
        if v >= 1e6 {
            format!("{:.1}M", v / 1e6)
        } else {
            format!("{:.0}k", v / 1e3)
        }
    } else {
        format!("{v:.3}")
    }
}

/// Renders the trend report, ranked: groups keep file order, metrics
/// within a group list regressions first (worst first). Ends with the
/// machine-parseable `trend: N regression(s) ...` line CI greps.
#[must_use]
pub fn render(report: &TrendReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Perf trend over {} history line(s), {} configuration group(s)\n",
        report.lines,
        report.groups.len()
    );
    for g in &report.groups {
        let _ = writeln!(out, "divisor={} ({} run(s))", g.divisor, g.runs);
        if g.runs < 2 {
            let _ = writeln!(out, "  (single run — nothing to compare against yet)");
            continue;
        }
        for m in &g.metrics {
            let verdict = if m.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "  {verdict:<9} {:<20} latest {:>10}  baseline {:>10} ±{:<10} {:>+7.1}%",
                m.name,
                format_value(m.name, m.latest),
                format_value(m.name, m.baseline_mean),
                format_value(m.name, m.baseline_std),
                m.delta_pct,
            );
        }
    }
    for (line, why) in &report.skipped {
        let _ = writeln!(out, "warning: skipped history line {line}: {why}");
    }
    let _ = writeln!(
        out,
        "\ntrend: {} regression(s) across {} group(s) ({} line(s) skipped)",
        report.regressions(),
        report.groups.len(),
        report.skipped.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema-7/8 style line: `skipped_pct` under its old name, no
    /// `profile_ns_per_cycle`.
    fn old_line(schema: u64, unix: u64, event_cps: f64) -> String {
        format!(
            "{{\"schema\":{schema},\"unix_seconds\":{unix},\"divisor\":8,\
             \"cycles\":1000000,\"ticked_cps\":2000000,\"event_cps\":{event_cps:.0},\
             \"event_over_ticked\":4.0,\"skipped_pct\":61.0}}"
        )
    }

    fn new_line(unix: u64, event_cps: f64, prof: f64) -> String {
        format!(
            "{{\"schema\":10,\"unix_seconds\":{unix},\"divisor\":8,\
             \"cycles\":1000000,\"ticked_cps\":2000000,\"event_cps\":{event_cps:.0},\
             \"event_over_ticked\":4.0,\"skip_pct\":61.0,\
             \"profile_ns_per_cycle\":{prof:.1}}}"
        )
    }

    #[test]
    fn mixed_schema_history_upgrades_and_passes_when_stable() {
        let history = format!(
            "{}\n{}\n{}\n{}\n",
            old_line(7, 1, 8_000_000.0),
            old_line(8, 2, 8_100_000.0),
            new_line(3, 7_900_000.0, 120.0),
            new_line(4, 8_050_000.0, 118.0),
        );
        let report = analyze(&history).unwrap();
        assert_eq!(report.lines, 4, "schema 7 and 8 lines are parsed, not skipped");
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(report.groups.len(), 1);
        let g = &report.groups[0];
        assert_eq!((g.divisor, g.runs), (8, 4));
        assert_eq!(report.regressions(), 0, "{}", render(&report));
        // The aliased skip_pct metric must have a full 3-run baseline —
        // proof the old `skipped_pct` values were upgraded, not dropped.
        let skip = g.metrics.iter().find(|m| m.name == "skip_pct").expect("skip_pct tracked");
        assert_eq!(skip.baseline_runs, 3);
        // profile_ns_per_cycle only exists on schema-9+ lines; its
        // baseline is just the one earlier v10 run.
        let prof = g
            .metrics
            .iter()
            .find(|m| m.name == "profile_ns_per_cycle")
            .expect("profile metric tracked once two v10 lines exist");
        assert_eq!(prof.baseline_runs, 1);
        let rendered = render(&report);
        assert!(rendered.contains("trend: 0 regression(s)"), "{rendered}");
    }

    #[test]
    fn injected_regression_is_flagged_and_ranked_first() {
        // Stable baseline, then the latest run loses half its event
        // throughput and triples its per-cycle host cost.
        let history = format!(
            "{}\n{}\n{}\n{}\n",
            old_line(7, 1, 8_000_000.0),
            new_line(2, 8_100_000.0, 120.0),
            new_line(3, 7_950_000.0, 122.0),
            new_line(4, 4_000_000.0, 360.0),
        );
        let report = analyze(&history).unwrap();
        assert!(report.regressions() >= 2, "{}", render(&report));
        let g = &report.groups[0];
        assert!(g.metrics[0].regressed, "regressions rank first");
        let event = g.metrics.iter().find(|m| m.name == "event_cps").unwrap();
        assert!(event.regressed, "halved throughput trips the gate");
        assert!(event.delta_pct < -40.0, "delta is signed: {}", event.delta_pct);
        let prof = g.metrics.iter().find(|m| m.name == "profile_ns_per_cycle").unwrap();
        assert!(prof.regressed, "tripled host cost trips the gate");
        // Stable metrics stay green even next to regressions.
        let skip = g.metrics.iter().find(|m| m.name == "skip_pct").unwrap();
        assert!(!skip.regressed);
        let rendered = render(&report);
        assert!(rendered.contains("REGRESSED event_cps"), "{rendered}");
    }

    #[test]
    fn noise_band_tolerates_host_jitter() {
        // ±10% wall-clock jitter must not read as a regression.
        let history = format!(
            "{}\n{}\n{}\n",
            new_line(1, 8_000_000.0, 120.0),
            new_line(2, 8_800_000.0, 110.0),
            new_line(3, 7_400_000.0, 131.0),
        );
        let report = analyze(&history).unwrap();
        assert_eq!(report.regressions(), 0, "{}", render(&report));
    }

    #[test]
    fn unparseable_lines_are_skipped_with_numbers_but_analysis_continues() {
        let history = format!(
            "not json\n{}\n{{\"schema\":3,\"divisor\":8}}\n{}\n",
            new_line(1, 8_000_000.0, 120.0),
            new_line(2, 8_000_000.0, 120.0),
        );
        let report = analyze(&history).unwrap();
        assert_eq!(report.lines, 2);
        assert_eq!(report.skipped.len(), 2);
        assert_eq!(report.skipped[0].0, 1);
        assert_eq!(report.skipped[1].0, 3);
        assert!(report.skipped[1].1.contains("outside supported range"), "{:?}", report.skipped);
        let rendered = render(&report);
        assert!(rendered.contains("skipped history line 1"), "{rendered}");
    }

    #[test]
    fn empty_or_all_garbage_history_is_an_error() {
        assert!(analyze("").is_err());
        assert!(analyze("junk\nmore junk\n").is_err());
    }

    #[test]
    fn single_run_groups_produce_no_verdicts() {
        // One run in its group: nothing to compare.
        let solo = new_line(1, 8_000_000.0, 120.0);
        let other = "{\"schema\":10,\"unix_seconds\":2,\"divisor\":16,\
                     \"cycles\":1000,\"ticked_cps\":100,\"event_cps\":500,\
                     \"event_over_ticked\":5.0,\"skip_pct\":60.0,\
                     \"profile_ns_per_cycle\":100.0}";
        let history = format!("{solo}\n{other}\n{other}\n");
        let report = analyze(&history).unwrap();
        assert_eq!(report.groups.len(), 2);
        assert!(report.groups[0].metrics.is_empty(), "solo group has no verdicts");
        assert!(report.groups[1].metrics.iter().any(|m| m.name == "event_cps"));
        assert_eq!(report.regressions(), 0);
    }

    /// The committed history opens with schema 7 and 9 lines at
    /// divisor 8, half of them from time-window split runs. Every line
    /// must parse, and those four runs form one divisor group.
    #[test]
    fn committed_history_parses_into_divisor_groups() {
        let history = include_str!("../../../BENCH_repro.history.jsonl");
        let report = analyze(history).unwrap();
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(report.lines, history.lines().filter(|l| !l.trim().is_empty()).count());
        let runs: usize = report.groups.iter().map(|g| g.runs).sum();
        assert_eq!(runs, report.lines, "every run lands in exactly one group");
        assert_eq!(report.groups[0].divisor, 8);
        assert!(report.groups[0].runs >= 4, "{}", render(&report));
    }
}
