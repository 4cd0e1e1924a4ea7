//! `benchmark compare A.json B.json`: one verdict per workload and
//! end-to-end metric, against the bounds in `BENCHMARK.json`.

use std::path::Path;

use mcl_bench::json::Json;

use crate::metrics::{Better, Definition};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
    /// A side's interquartile range exceeds the bound, so a change of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reported value of a metric, and the quartiles of the
/// samples it came from.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The absolute change a metric may make whatever its relative bound:
/// below it, timer and allocator noise dominate.
fn floor_of(metric: &str) -> f64 {
    match metric {
        "wall_s" | "cpu_s" => 0.02,
        "setup_s" => 0.05,
        "peak_rss_mb" => 8.0,
        _ => 0.0,
    }
}

/// Judges B against A. The allowed change is the larger of `bound` × A's
/// value and `floor`.
pub fn verdict(a: Side, b: Side, bound: f64, floor: f64, better: Better) -> Verdict {
    let allowed = (bound * a.value.abs()).max(floor);
    if a.q3 - a.q1 > allowed || b.q3 - b.q1 > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let field = |k| m.get(k).and_then(Json::as_f64);
    Some(Side {
        value: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

fn fail_ratio(results: &Json, workload: &str) -> Option<f64> {
    let w = results.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted").and_then(Json::as_u64)?;
    Some(w.get("failed").and_then(Json::as_u64)? as f64 / attempted.max(1) as f64)
}

fn read(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the verdict table; returns whether no metric got worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let definition = Definition::load()?;
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<10} {:<15} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let mut worse = 0;
    for workload in Workload::ALL.map(Workload::name) {
        for (metric, better, bound) in &definition.end_to_end {
            let (Some(sa), Some(sb)) = (side(&a, workload, metric), side(&b, workload, metric))
            else {
                println!(
                    "{workload:<10} {metric:<15} {:>14} {:>14} {:>9}  missing",
                    "-", "-", "-"
                );
                continue;
            };
            let v = verdict(sa, sb, *bound, floor_of(metric), *better);
            worse += usize::from(v == Verdict::Worse);
            let change = 100.0 * (sb.value / sa.value - 1.0);
            println!(
                "{workload:<10} {metric:<15} {:>14.6} {:>14.6} {:>8.2}%  {}",
                sa.value,
                sb.value,
                change,
                v.name()
            );
        }
        // Any increase in the share of failed operations is a regression.
        if let (Some(fa), Some(fb)) = (fail_ratio(&a, workload), fail_ratio(&b, workload)) {
            let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<10} {:<15} {fa:>14.6} {fb:>14.6} {:>9}  {}",
                "fail_ratio",
                "-",
                v.name()
            );
        }
    }
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64, spread: f64) -> Side {
        Side {
            value,
            q1: value - spread / 2.0,
            q3: value + spread / 2.0,
        }
    }

    #[test]
    fn changes_within_the_bound_are_ok() {
        let v = verdict(at(10.0, 0.1), at(10.9, 0.1), 0.10, 0.02, Better::Lower);
        assert_eq!(v, Verdict::Ok);
        let v = verdict(at(10.0, 0.1), at(11.2, 0.1), 0.10, 0.02, Better::Lower);
        assert_eq!(v, Verdict::Worse);
        let v = verdict(at(10.0, 0.1), at(8.8, 0.1), 0.10, 0.02, Better::Lower);
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert_eq!(
            verdict(at(100.0, 1.0), at(85.0, 1.0), 0.10, 0.0, Better::Higher),
            Verdict::Worse
        );
        assert_eq!(
            verdict(at(100.0, 1.0), at(115.0, 1.0), 0.10, 0.0, Better::Higher),
            Verdict::Better
        );
    }

    #[test]
    fn the_absolute_floor_absorbs_small_changes_on_small_values() {
        // 0.10 → 0.115 s is 15 % worse, but within the 0.02 s floor.
        assert_eq!(
            verdict(at(0.10, 0.0), at(0.115, 0.0), 0.10, 0.02, Better::Lower),
            Verdict::Ok
        );
        assert_eq!(
            verdict(at(0.10, 0.0), at(0.125, 0.0), 0.10, 0.02, Better::Lower),
            Verdict::Worse
        );
        // Without a floor, any increase past the relative bound counts.
        assert_eq!(
            verdict(at(8.6, 0.0), at(8.7, 0.0), 0.001, 0.0, Better::Lower),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_spread_on_either_side_is_unresolved() {
        assert_eq!(
            verdict(at(10.0, 1.5), at(20.0, 0.1), 0.10, 0.02, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(at(10.0, 0.1), at(10.0, 1.5), 0.10, 0.02, Better::Lower),
            Verdict::Unresolved
        );
        // The floor widens what counts as a narrow spread too.
        assert_eq!(
            verdict(at(0.1, 0.015), at(0.1, 0.0), 0.10, 0.02, Better::Lower),
            Verdict::Ok
        );
    }

    #[test]
    fn sides_are_read_from_a_results_file() {
        let doc = Json::parse(
            r#"{"workloads": {"replay": {"attempted": 8, "failed": 2,
                "metrics": {"wall_s": {"value": 1.5, "q1": 1.4, "q3": 1.6}}}}}"#,
        )
        .unwrap();
        let s = side(&doc, "replay", "wall_s").unwrap();
        assert_eq!((s.value, s.q1, s.q3), (1.5, 1.4, 1.6));
        assert!(side(&doc, "replay", "cpu_s").is_none());
        assert_eq!(fail_ratio(&doc, "replay"), Some(0.25));
    }
}
