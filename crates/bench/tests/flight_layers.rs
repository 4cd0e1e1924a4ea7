//! The trace store's host time is recorded only as flight spans named
//! after the benchmark's layers, and only for work a call really did.
//!
//! The flight recorder is process-global, so this file holds a single
//! test: no other test in this binary records spans while it reads them.

use std::sync::Arc;

use mcl_bench::flight;
use mcl_bench::json::Json;
use mcl_bench::persist::PersistStore;
use mcl_bench::{TraceRequest, TraceStore};
use mcl_core::ProcessorConfig;
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

/// The front end's layers, in the order a trace build opens them.
const FRONT_END: [&str; 4] = ["workloads.build", "sched.prepare", "sched.schedule", "trace.pack"];

/// One completed span of the recording.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    cat: String,
    name: String,
    tid: u64,
    ts: f64,
}

/// Every completed span recorded so far, by start time.
fn recorded() -> Vec<Span> {
    let doc = Json::parse(&flight::export_json().expect("recording is on")).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| Span {
            cat: e.get("cat").and_then(Json::as_str).unwrap().to_owned(),
            name: e.get("name").and_then(Json::as_str).unwrap().to_owned(),
            tid: e.get("tid").and_then(Json::as_u64).unwrap(),
            ts: e.get("ts").and_then(Json::as_f64).unwrap(),
        })
        .collect()
}

/// The spans recorded while `work` ran.
fn during(work: impl FnOnce()) -> Vec<Span> {
    let mut before = recorded();
    work();
    recorded()
        .into_iter()
        .filter(|span| match before.iter().position(|old| old == span) {
            Some(i) => {
                before.swap_remove(i);
                false
            }
            None => true,
        })
        .collect()
}

/// The spans' categories, in recording order.
fn cats(spans: &[Span]) -> Vec<&str> {
    spans.iter().map(|s| s.cat.as_str()).collect()
}

/// The spans in front-end layer categories.
fn front_end(spans: &[Span]) -> Vec<&str> {
    cats(spans).into_iter().filter(|c| FRONT_END.contains(c)).collect()
}

#[test]
fn the_store_spans_each_layer_it_builds_and_nothing_it_serves() {
    flight::enable();
    let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
    let cfg = ProcessorConfig::dual_cluster_8way();
    let sim = |store: &TraceStore| {
        store.sim(&req, &cfg).unwrap();
    };

    // A building call records the four front-end layers, once each, on
    // the thread that made it.
    let store = TraceStore::new();
    let main_tid = during(|| drop(flight::span("test", || "main".to_owned())))[0].tid;
    let built = during(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                let _marker = flight::span("test", || "builder".to_owned());
                store.trace(&req).unwrap();
            });
        });
    });
    let builder_tid = built.iter().find(|s| s.name == "builder").unwrap().tid;
    assert_ne!(builder_tid, main_tid);
    assert_eq!(front_end(&built), FRONT_END, "{built:?}");
    assert!(built.iter().all(|s| s.tid == builder_tid), "{built:?}");
    let labels: Vec<&str> = built.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(labels, ["builder", "compress", "compress", "compress/Local", "compress/Local"]);

    // A trace hit records nothing; a simulation records only itself.
    assert_eq!(during(|| drop(store.trace(&req).unwrap())), []);
    let simulated = during(|| sim(&store));
    assert_eq!(cats(&simulated), ["core.simulate"], "{simulated:?}");
    assert_eq!(during(|| sim(&store)), [], "a memo hit");

    // A cold disk store spans every layer, persist ones included.
    let dir = std::env::temp_dir().join(format!("mcl-flight-layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Arc::new(PersistStore::open(&dir).unwrap());
    let cold = during(|| sim(&TraceStore::new().with_persist(open())));
    let persisted = ["core.simulate", "persist.key", "persist.load", "persist.store"];
    for layer in FRONT_END.iter().chain(&persisted) {
        assert!(cats(&cold).contains(layer), "cold run lacks {layer}: {cold:?}");
    }
    // The trace's digest is taken inside `trace.pack`; the only key
    // work left is the executable fingerprint.
    let keys: Vec<&str> =
        cold.iter().filter(|s| s.cat == "persist.key").map(|s| s.name.as_str()).collect();
    assert_eq!(keys, ["fingerprint"], "{cold:?}");

    // A warm request-tier hit builds and simulates nothing.
    let warm = TraceStore::new().with_persist(open());
    let served = during(|| sim(&warm));
    assert_eq!(warm.counters().disk_request_hits, 1);
    assert_eq!(front_end(&served), Vec::<&str>::new(), "{served:?}");
    assert!(!cats(&served).contains(&"core.simulate"), "{served:?}");
    assert!(cats(&served).contains(&"persist.load"), "{served:?}");

    // With its results evicted, the request entry falls back to a build,
    // which is recorded.
    for entry in std::fs::read_dir(dir.join("entries")).unwrap().filter_map(Result::ok) {
        if entry.path().extension().is_some_and(|x| x == "bin") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let fallback = TraceStore::new().with_persist(open());
    let rebuilt = during(|| sim(&fallback));
    assert_eq!(fallback.counters().disk_request_hits, 1);
    assert_eq!(front_end(&rebuilt), FRONT_END, "{rebuilt:?}");
    assert!(cats(&rebuilt).contains(&"core.simulate"), "{rebuilt:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
