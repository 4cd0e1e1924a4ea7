//! The whole-run host flight recorder behind `repro --flight FILE`.
//!
//! `--obs` traces the *simulated machine* one cell at a time; this
//! module traces the *harness* across the whole invocation: when each
//! cell ran on which `--jobs` worker and, inside it, each unit of real
//! work in a category named after the benchmark's layer
//! (`workloads.build`, `sched.prepare`, `sched.schedule`, `trace.pack`,
//! `core.simulate`, `persist.key`, `persist.load`, `persist.store`),
//! persistent-store loads named by their hit/miss outcome. It is the
//! only place `repro` splits host time into layers.
//! The recording exports as one Chrome trace-event file
//! (`run.flight.json`, the same document shape as the `--obs`
//! `.trace.json` exports — load it in `chrome://tracing` or Perfetto)
//! where `pid` is the process (always 1) and `tid` is a small dense id
//! assigned to each host thread in first-span order.
//!
//! The recorder is process-global and **lock-cheap**: when disabled
//! (the default) every instrumentation site is one relaxed atomic load
//! and no allocation, so recording off cannot perturb the measured
//! run; when enabled, a span costs two `Instant` reads and one short
//! mutex push at drop. Spans never alter simulation — like the probe
//! layer, the flight recorder observes the host, it does not touch the
//! machine — so `repro` output is byte-identical with recording on or
//! off (CI-enforced).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::obs;
use crate::Error;

/// One completed span (a Chrome trace `X` event).
#[derive(Debug, Clone)]
struct Rec {
    name: String,
    cat: &'static str,
    /// Microseconds since the recorder's epoch (Chrome trace `ts`).
    ts_us: f64,
    /// Span duration in microseconds.
    dur_us: f64,
    tid: u64,
}

struct Recorder {
    epoch: Instant,
    recs: Mutex<Vec<Rec>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
/// The fast-path switch every instrumentation site loads.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread id, assigned on the thread's first span.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on for the rest of the process (idempotent). The
/// epoch is set on the first call; spans recorded before it are
/// impossible (the fast path was off).
pub fn enable() {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        recs: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::Release);
}

/// Whether the recorder is on — one relaxed load, the entire cost of a
/// disabled instrumentation site.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn recorder() -> Option<&'static Recorder> {
    if enabled() {
        RECORDER.get()
    } else {
        None
    }
}

/// An in-progress span; records itself on drop. Hold it across the
/// work being timed.
#[must_use = "a span records when dropped; binding it to _ discards the measurement"]
pub struct SpanGuard {
    name: String,
    cat: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Replaces the span's name before it records — for spans whose
    /// interesting label (a hit/miss outcome, say) is only known once
    /// the timed work finished.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(rec) = recorder() else { return };
        let end = Instant::now();
        let ts_us = self.start.duration_since(rec.epoch).as_secs_f64() * 1e6;
        let dur_us = end.duration_since(self.start).as_secs_f64() * 1e6;
        rec.recs.lock().unwrap().push(Rec {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ts_us,
            dur_us,
            tid: TID.with(|t| *t),
        });
    }
}

/// Opens a span named `name` in category `cat`, or `None` (no
/// allocation, no clock read) when recording is off. The closure
/// defers building the name so disabled sites pay nothing for it.
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    Some(SpanGuard { name: name(), cat, start: Instant::now() })
}

/// Renders the recording as a Chrome trace document, or `None` when
/// recording was never enabled. Events are sorted by timestamp so the
/// export is deterministic given the recorded set.
#[must_use]
pub fn export_json() -> Option<String> {
    let rec = RECORDER.get()?;
    let mut recs = rec.recs.lock().unwrap().clone();
    recs.sort_by(|a, b| {
        a.ts_us.total_cmp(&b.ts_us).then_with(|| a.tid.cmp(&b.tid)).then_with(|| a.name.cmp(&b.name))
    });
    let events = recs
        .iter()
        .map(|r| {
            let mut obj = Json::object();
            obj.field("name", r.name.as_str().into())
                .field("cat", r.cat.into())
                .field("ph", "X".into())
                .field("ts", r.ts_us.into())
                .field("dur", r.dur_us.into())
                .field("pid", 1u64.into())
                .field("tid", r.tid.into());
            obj
        })
        .collect();
    Some(obs::chrome_trace_document(events).render())
}

/// Writes the recording to `path` (the `--flight FILE` target).
///
/// # Errors
///
/// [`Error::Obs`] when recording was never enabled, nothing was
/// recorded, or the file cannot be written.
pub fn write(path: &Path) -> Result<(), Error> {
    let json = export_json()
        .ok_or_else(|| Error::Obs("flight: recording was never enabled".into()))?;
    if RECORDER.get().is_some_and(|r| r.recs.lock().unwrap().is_empty()) {
        return Err(Error::Obs("flight: nothing was recorded".into()));
    }
    std::fs::write(path, json)
        .map_err(|e| Error::Obs(format!("flight: writing {}: {e}", path.display())))
}

/// Checks a parsed flight recording: the shared Chrome trace shape
/// (non-empty `traceEvents`, each with `ph`/`ts`/`pid`) plus the
/// flight-specific contract — at least one completed `X` span with a
/// numeric `dur`, a `cat` on every event, and every `ts` finite and
/// non-negative (non-decreasing is not required: workers interleave).
/// Returns the event count.
///
/// # Errors
///
/// The first violation.
pub(crate) fn validate_flight(doc: &Json) -> Result<usize, String> {
    let count = obs::validate_trace(doc)?;
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap_or_default();
    let mut spans = 0usize;
    for e in events {
        let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(-1.0);
        if !ts.is_finite() || ts < 0.0 {
            return Err("event with non-finite or negative ts".into());
        }
        if e.get("cat").and_then(Json::as_str).is_none() {
            return Err("event missing cat".into());
        }
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            if e.get("dur").and_then(Json::as_f64).is_none() {
                return Err("X span missing numeric dur".into());
            }
            spans += 1;
        }
    }
    if spans == 0 {
        return Err("no completed spans recorded".into());
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global, so one test exercises the whole
    /// enable → record → export → validate → write path (parallel test
    /// threads may add their own spans; the assertions only require
    /// ours to be present).
    #[test]
    fn records_exports_and_validates() {
        assert!(span("test", || "before-enable".into()).is_none(), "disabled path is None");
        enable();
        assert!(enabled());
        {
            let _span = span("test", || "flight-test-span".into());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(span("test", || "flight-test-second-span".into()));
        let json = export_json().expect("enabled recorder exports");
        assert!(json.contains("\"flight-test-span\""));
        assert!(json.contains("\"flight-test-second-span\""));
        let doc = Json::parse(&json).expect("export parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("array");
        assert!(events.len() >= 2);
        let span_evt = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("flight-test-span"))
            .expect("span present");
        assert_eq!(span_evt.get("ph").and_then(Json::as_str), Some("X"));
        assert!(span_evt.get("dur").and_then(Json::as_f64).unwrap() >= 1000.0, "≥1 ms in µs");
        assert_eq!(span_evt.get("pid").and_then(Json::as_u64), Some(1));

        let dir = std::env::temp_dir()
            .join(format!("mcl-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.flight.json");
        write(&path).expect("writes");
        let n = obs::validate_file(&path).expect("validates");
        assert!(n >= 2);
        // A spanless document fails flight validation even though it is
        // a well-formed Chrome trace.
        let spanless = dir.join("spanless.flight.json");
        std::fs::write(
            &spanless,
            "{\"traceEvents\":[{\"name\":\"i\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1,\"s\":\"t\"}],\"displayTimeUnit\":\"ns\"}",
        )
        .unwrap();
        assert!(obs::validate_file(&spanless).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
