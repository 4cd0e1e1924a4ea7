//! Determinism regression for the experiment driver: the same
//! (workload, configuration) cell must produce identical statistics
//! when run twice serially, when served from a warm trace store, and
//! when run through the parallel runner, regardless of the job count;
//! and the same trace request must build the same trace in any process.

use std::sync::Arc;

use mcl_bench::persist::TraceDigest;
use mcl_bench::runner::{run_cells, Cell};
use mcl_bench::{table2, Table2Row, TraceRequest, TraceStore};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

/// A scale small enough for tests but large enough to exercise
/// replays, mispredictions, and cross-cluster traffic.
fn small_scale(b: Benchmark) -> u32 {
    (b.default_scale() / 64).max(1)
}

fn assert_rows_equal(a: &Table2Row, b: &Table2Row, context: &str) {
    assert_eq!(a.name, b.name, "{context}");
    assert_eq!(a.single_cycles, b.single_cycles, "{context}: {}", a.name);
    assert_eq!(a.dual_none_cycles, b.dual_none_cycles, "{context}: {}", a.name);
    assert_eq!(a.dual_local_cycles, b.dual_local_cycles, "{context}: {}", a.name);
    assert_eq!(a.stats, b.stats, "{context}: full stats of {}", a.name);
}

#[test]
fn same_cell_twice_serially_is_identical() {
    let bench = Benchmark::ALL[0];
    let a = table2::table2_row(bench, small_scale(bench)).expect("runs");
    let b = table2::table2_row(bench, small_scale(bench)).expect("runs");
    assert_rows_equal(&a, &b, "two serial runs");
}

#[test]
fn store_cached_rows_match_fresh_rows() {
    // A warm store must serve bit-identical statistics: run every row
    // once against a fresh store each time (all misses), then again
    // against one shared store (first pass seeds it, second pass is all
    // hits).
    let shared = TraceStore::new();
    for bench in Benchmark::ALL {
        let scale = small_scale(bench);
        let fresh = table2::table2_row(bench, scale).expect("runs");
        let (seeded, _) = table2::table2_row_with(&shared, bench, scale).expect("runs");
        let (served, _) = table2::table2_row_with(&shared, bench, scale).expect("runs");
        assert_rows_equal(&seeded, &fresh, "store miss vs fresh store");
        assert_rows_equal(&served, &fresh, "store hit vs fresh store");
    }
    let counters = shared.counters();
    assert!(counters.sim_hits > 0, "second pass must hit the sim cache");
}

#[test]
fn parallel_runner_matches_serial_execution() {
    // Reference: every benchmark's row computed directly, in order.
    let reference: Vec<Table2Row> = Benchmark::ALL
        .iter()
        .map(|&b| table2::table2_row(b, small_scale(b)).expect("runs"))
        .collect();

    let make_cells = |store: &Arc<TraceStore>| -> Vec<Cell<Table2Row>> {
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let store = Arc::clone(store);
                Cell::new(format!("table2/{b}"), move || {
                    table2::table2_row_with(&store, b, small_scale(b))
                })
            })
            .collect()
    };

    for jobs in [1, 4] {
        // Each job count gets its own store, mirroring one `repro`
        // invocation; under 4 jobs the workers race to build and share
        // traces, which must not change any result.
        let store = Arc::new(TraceStore::new());
        let (rows, metrics) = run_cells(jobs, make_cells(&store)).expect("runs");
        assert_eq!(rows.len(), reference.len());
        for (got, want) in rows.iter().zip(&reference) {
            assert_rows_equal(got, want, &format!("runner with {jobs} jobs"));
        }
        // Metrics come back in submission order too.
        let ids: Vec<String> =
            metrics.iter().map(|m| m.id.clone()).collect();
        let want_ids: Vec<String> =
            Benchmark::ALL.iter().map(|b| format!("table2/{b}")).collect();
        assert_eq!(ids, want_ids);
    }
}

/// The persistent store's request tier maps a trace request straight to
/// the digest of the trace it builds, trusting that a build depends on
/// nothing but the request and the binary. Two fresh stores on two
/// threads — so every `HashMap` gets different `RandomState` keys —
/// must therefore digest every trace `repro all 8` requests identically
/// (an iteration-order dependence, like a past unroller bug, fails
/// here instead of serving silently wrong statistics).
#[test]
fn trace_builds_do_not_depend_on_process_state() {
    use SchedulerKind::{BankSplit, Local, LocalNoGlobals, Naive, RoundRobin};
    let requests: Vec<TraceRequest> = Benchmark::ALL
        .iter()
        .flat_map(|&bench| {
            let scale = bench.scaled(8);
            let local = TraceRequest::new(bench, scale, Local);
            let kinds = [Naive, Local, LocalNoGlobals, RoundRobin, BankSplit]
                .map(|kind| TraceRequest::new(bench, scale, kind));
            let sweeps = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0].map(|th| local.with_threshold(th));
            kinds.into_iter().chain(sweeps).chain([2, 4].map(|factor| local.with_unroll(factor)))
        })
        .collect();
    let digests = |requests: &[TraceRequest]| -> Vec<TraceDigest> {
        let store = TraceStore::new();
        requests
            .iter()
            .map(|req| TraceDigest::of(&store.trace(req).expect("trace builds")))
            .collect()
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| digests(&requests));
        let b = scope.spawn(|| digests(&requests));
        (a.join().unwrap(), b.join().unwrap())
    });
    for ((req, a), b) in requests.iter().zip(&a).zip(&b) {
        assert_eq!(a, b, "{req:?} built different traces in two stores");
    }
}
