//! The shared trace build/serve layer.
//!
//! The paper's methodology (Section 4.1) is classic ATOM-style
//! trace-driven simulation: the dynamic instruction stream is produced
//! once and then replayed under many machine configurations. The
//! experiment driver has the same shape — `repro all` expands into ~60
//! cells, and most of them want one of a handful of distinct traces
//! (Table 2 feeds the crossover; the ablation sweeps simulate one trace
//! under many [`ProcessorConfig`]s; several sweeps' extreme points
//! coincide with the defaults). [`TraceStore`] memoizes the whole
//! front end so the worker pool builds each distinct artifact exactly
//! once, at three levels:
//!
//! 1. **Intermediate language** — `Benchmark::build` (plus optional
//!    self-loop unrolling), keyed by `(benchmark, scale, unroll)`.
//! 2. **Prepared IL** — prepass list scheduling plus the profiling VM
//!    run ([`SchedulePipeline::prepare`]), keyed like the IL. This is
//!    the expensive, scheduler-kind-*independent* half of scheduling,
//!    shared by every scheduler kind and imbalance threshold.
//! 3. **Packed traces and simulation statistics** — the scheduled
//!    machine program interpreted into a [`PackedTrace`], keyed by
//!    `(IL key, scheduler kind, threshold)`; and [`SimStats`], keyed by
//!    the trace key plus the processor configuration. Simulation is
//!    deterministic, so serving a memoized result is observationally
//!    identical to re-simulating.
//!
//! All entries are [`Arc`]-shared and built under per-key
//! [`OnceLock`]s: concurrent workers that race on the same key block on
//! the lock (one builds, the rest wait) while the maps themselves are
//! only locked for lookups. Requests that normalize to the same key —
//! `imbalance_threshold` equal to the default, unroll factor ≤ 1,
//! threshold on a scheduler kind that ignores it — share one entry.
//!
//! Freshly built traces are additionally *canonicalized by content*:
//! distinct keys that happen to produce byte-identical traces (a
//! threshold past the point where the partition stops changing, an
//! unroll factor on a benchmark without self-loops) share one buffer,
//! one persistent-store key prefix ([`TraceDigest`], hashed only when
//! a disk store is attached) and — since simulation is deterministic —
//! one memoized simulation per configuration.
//!
//! The store serves *statistics only*; runs that need event logs
//! (`repro pipeline`, the scenario timelines) bypass it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mcl_core::{FastForward, Processor, ProcessorConfig, SimStats};
use mcl_isa::assign::RegisterAssignment;
use mcl_sched::{
    unroll_self_loops, PreparedIl, ScheduleOptions, SchedulePipeline, SchedulerKind,
};
use mcl_trace::vm::{dynamic_len_estimate, trace_program_packed};
use mcl_trace::{PackedTrace, Program, Vreg};
use mcl_workloads::Benchmark;

use crate::persist::{PersistStore, TraceDigest};
use crate::Error;

/// Identifies a (possibly unrolled) intermediate-language program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IlKey {
    bench: Benchmark,
    scale: u32,
    /// Self-loop unroll factor; normalized to 1 ("no unrolling").
    unroll: u32,
}

/// Identifies a scheduled machine trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TraceKey {
    il: IlKey,
    kind: SchedulerKind,
    /// The local scheduler's imbalance threshold, as bits (f64 is not
    /// `Hash`); normalized to the default for kinds that ignore it.
    threshold_bits: u64,
}

/// A request for one benchmark trace.
///
/// Defaults mirror the harness defaults: no unrolling, the
/// [`ScheduleOptions::default`] imbalance threshold.
#[derive(Debug, Clone, Copy)]
pub struct TraceRequest {
    /// The workload.
    pub bench: Benchmark,
    /// The workload scale.
    pub scale: u32,
    /// The scheduler producing the binary.
    pub kind: SchedulerKind,
    /// Self-loop unroll factor applied to the IL before scheduling
    /// (values ≤ 1 mean none).
    pub unroll: u32,
    /// Local-scheduler imbalance threshold; `None` means the default.
    pub imbalance_threshold: Option<f64>,
}

impl TraceRequest {
    /// A request with default unrolling and threshold.
    #[must_use]
    pub fn new(bench: Benchmark, scale: u32, kind: SchedulerKind) -> TraceRequest {
        TraceRequest { bench, scale, kind, unroll: 1, imbalance_threshold: None }
    }

    /// Sets the unroll factor.
    #[must_use]
    pub fn with_unroll(mut self, factor: u32) -> TraceRequest {
        self.unroll = factor;
        self
    }

    /// Sets the imbalance threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> TraceRequest {
        self.imbalance_threshold = Some(threshold);
        self
    }

    fn il_key(&self) -> IlKey {
        IlKey { bench: self.bench, scale: self.scale, unroll: self.unroll.max(1) }
    }

    fn key(&self) -> TraceKey {
        // Only the local schedulers consult the threshold; other kinds
        // normalize to the default so they share one entry.
        let threshold = match self.kind {
            SchedulerKind::Local | SchedulerKind::LocalNoGlobals => {
                self.imbalance_threshold.unwrap_or_else(default_threshold)
            }
            _ => default_threshold(),
        };
        TraceKey { il: self.il_key(), kind: self.kind, threshold_bits: threshold.to_bits() }
    }
}

fn default_threshold() -> f64 {
    ScheduleOptions::default().imbalance_threshold
}

/// Hit/miss counters of one store, for `BENCH_repro.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Trace requests served from cache.
    pub trace_hits: u64,
    /// Trace requests that built their trace.
    pub trace_misses: u64,
    /// Simulation requests served from cache.
    pub sim_hits: u64,
    /// Simulation requests that ran the simulator.
    pub sim_misses: u64,
    /// Simulations served from the persistent disk store (a subset of
    /// `sim_misses` — the in-process memo missed but the disk hit).
    pub disk_hits: u64,
    /// Disk-store lookups that found no usable entry.
    pub disk_misses: u64,
    /// Results written to the persistent disk store.
    pub disk_stores: u64,
    /// Disk entries evicted by the LRU capacity sweep.
    pub disk_evictions: u64,
    /// Corrupt disk entries quarantined (each also counts a disk miss).
    pub disk_quarantined: u64,
}

/// Host-side wall-clock breakdown of one call's trace acquisition.
///
/// Phase fields are nonzero only on the call that actually built the
/// stage (store hits and lock waits report ≈0 there);
/// [`TracePhases::total_seconds`] is always this call's full wall time
/// obtaining the trace, so `total ≥ il + prepass + schedule` and the
/// slack is memoization (or waiting on another worker's build).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TracePhases {
    /// Seconds building (or unrolling) the intermediate language.
    pub il_seconds: f64,
    /// Seconds in the scheduler-kind-independent prepass (list
    /// scheduling + profiling VM run).
    pub prepass_seconds: f64,
    /// Seconds scheduling for clusters and interpreting the scheduled
    /// program into a packed trace.
    pub schedule_seconds: f64,
    /// Total seconds this call spent obtaining the trace.
    pub total_seconds: f64,
}

impl TracePhases {
    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, other: &TracePhases) {
        self.il_seconds += other.il_seconds;
        self.prepass_seconds += other.prepass_seconds;
        self.schedule_seconds += other.schedule_seconds;
        self.total_seconds += other.total_seconds;
    }
}

/// One simulation served by the store, with its cost attribution.
#[derive(Debug, Clone)]
pub struct SimProduct {
    /// The simulation statistics.
    pub stats: SimStats,
    /// Whether this call actually ran the simulator (`false` when the
    /// statistics were served from the memoized cache). Throughput
    /// accounting must only credit simulated cycles to fresh runs —
    /// a cache hit simulates nothing.
    pub fresh: bool,
    /// Dead-cycle fast-forward counters of the run that produced the
    /// statistics. Cached serves
    /// report the counters of the original run.
    pub ff: FastForward,
    /// Seconds this call spent obtaining the trace (≈0 on a store hit);
    /// equals [`TracePhases::total_seconds`] of [`SimProduct::phases`].
    pub trace_build_seconds: f64,
    /// Seconds this call spent simulating (≈0 on a store hit).
    pub simulate_seconds: f64,
    /// Phase breakdown of the trace acquisition.
    pub phases: TracePhases,
}

/// A per-key build slot: the map lock is held only to fetch the slot;
/// the (possibly long) build runs under the slot's own `OnceLock`, so
/// two workers racing on the same key serialize while other keys
/// proceed. Failures are cached as rendered strings ([`Error`] is not
/// `Clone`) and resurface as [`Error::Store`].
type Slot<T> = Arc<OnceLock<Result<T, String>>>;

fn slot_of<K: Eq + Hash, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: K) -> Slot<T> {
    map.lock().unwrap().entry(key).or_default().clone()
}

/// A content-canonicalized trace, shared by every trace key whose built
/// trace came out byte-identical.
struct Canonical {
    /// Indexes the simulation cache.
    id: u64,
    trace: Arc<PackedTrace>,
    /// The persistent-store key prefix, hashed on the first disk lookup
    /// and reused by every configuration after it.
    digest: OnceLock<TraceDigest>,
}

type CanonTrace = Arc<Canonical>;

/// An IL build slot (infallible — `Benchmark::build` cannot fail).
type IlSlot = Arc<OnceLock<Arc<Program<Vreg>>>>;
/// Memoized simulation result: statistics and fast-forward counters,
/// keyed by (canonical trace id, rendered configuration).
type SimSlot = Slot<(SimStats, FastForward)>;

/// The thread-safe, `Arc`-sharing memoization layer described in the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use mcl_bench::store::{TraceRequest, TraceStore};
/// use mcl_core::ProcessorConfig;
/// use mcl_sched::SchedulerKind;
/// use mcl_workloads::Benchmark;
///
/// let store = TraceStore::new();
/// let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
/// let cfg = ProcessorConfig::dual_cluster_8way();
/// let first = store.sim(&req, &cfg)?;
/// let again = store.sim(&req, &cfg)?;
/// assert_eq!(first.stats, again.stats);
/// assert_eq!(store.counters().sim_misses, 1);
/// assert_eq!(store.counters().sim_hits, 1);
/// # Ok::<(), mcl_bench::Error>(())
/// ```
pub struct TraceStore {
    /// The register-to-cluster assignment every experiment uses (the
    /// paper's even/odd split with SP/GP global).
    assignment: RegisterAssignment,
    ils: Mutex<HashMap<IlKey, IlSlot>>,
    prepared: Mutex<HashMap<IlKey, Slot<Arc<PreparedIl>>>>,
    traces: Mutex<HashMap<TraceKey, Slot<CanonTrace>>>,
    /// Content hash → canonical traces with that hash (a bucket per
    /// hash; contents are compared on insert, so colliding hashes stay
    /// correct).
    canonical: Mutex<HashMap<u64, Vec<CanonTrace>>>,
    next_content_id: AtomicU64,
    sims: Mutex<HashMap<(u64, String), SimSlot>>,
    /// The optional crash-safe on-disk result cache consulted when the
    /// in-process memo misses (see [`TraceStore::with_persist`]).
    persist: Option<Arc<PersistStore>>,
    /// Persistent-store key prefixes hashed (at most one per canonical
    /// trace).
    trace_digests: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::new()
    }
}

impl TraceStore {
    /// An empty store targeting the paper's dual-cluster register
    /// assignment.
    #[must_use]
    pub fn new() -> TraceStore {
        TraceStore {
            assignment: RegisterAssignment::even_odd_with_default_globals(2),
            ils: Mutex::new(HashMap::new()),
            prepared: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            canonical: Mutex::new(HashMap::new()),
            next_content_id: AtomicU64::new(0),
            sims: Mutex::new(HashMap::new()),
            persist: None,
            trace_digests: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            sim_hits: AtomicU64::new(0),
            sim_misses: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent on-disk result store (`repro --store DIR`).
    /// When the in-process memo misses, the disk store is consulted
    /// before simulating, and fresh results are written back. Disk
    /// serves are not "fresh": they simulated nothing this run.
    #[must_use]
    pub fn with_persist(mut self, persist: Arc<PersistStore>) -> TraceStore {
        self.persist = Some(persist);
        self
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn persist(&self) -> Option<&Arc<PersistStore>> {
        self.persist.as_ref()
    }

    /// The register assignment the store schedules for.
    #[must_use]
    pub fn assignment(&self) -> &RegisterAssignment {
        &self.assignment
    }

    /// A snapshot of the hit/miss counters.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        let disk = self.persist.as_deref().map(PersistStore::counters).unwrap_or_default();
        StoreCounters {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            sim_hits: self.sim_hits.load(Ordering::Relaxed),
            sim_misses: self.sim_misses.load(Ordering::Relaxed),
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_stores: disk.stores,
            disk_evictions: disk.evictions,
            disk_quarantined: disk.quarantined,
        }
    }

    /// The shared intermediate-language program of a benchmark at a
    /// scale (no unrolling).
    #[must_use]
    pub fn il(&self, bench: Benchmark, scale: u32) -> Arc<Program<Vreg>> {
        self.il_at(IlKey { bench, scale, unroll: 1 })
    }

    fn il_at(&self, key: IlKey) -> Arc<Program<Vreg>> {
        let slot = {
            self.ils.lock().unwrap().entry(key).or_default().clone()
        };
        slot.get_or_init(|| {
            if key.unroll > 1 {
                let base = self.il_at(IlKey { unroll: 1, ..key });
                Arc::new(unroll_self_loops(&base, key.unroll))
            } else {
                Arc::new(key.bench.build(key.scale))
            }
        })
        .clone()
    }

    /// The shared prepared (prepass-scheduled + profiled) form of an IL
    /// program — the scheduler-kind-independent half of the pipeline.
    fn prepared_at(&self, key: IlKey) -> Result<Arc<PreparedIl>, Error> {
        let slot = slot_of(&self.prepared, key);
        slot.get_or_init(|| {
            let il = self.il_at(key);
            // The kind is irrelevant to `prepare`; options are defaults.
            SchedulePipeline::new(SchedulerKind::Naive, &self.assignment)
                .prepare(&il)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
        .clone()
        .map_err(Error::Store)
    }

    /// The shared packed trace for a request, plus the seconds this call
    /// spent (build time on a miss, ~0 on a hit, wait time when another
    /// worker is mid-build).
    ///
    /// # Errors
    ///
    /// Scheduling or trace-generation failures surface as
    /// [`Error::Store`] (identically on every call for the same key).
    pub fn trace(&self, req: &TraceRequest) -> Result<(Arc<PackedTrace>, f64), Error> {
        let (canon, phases) = self.canon_trace(req)?;
        Ok((Arc::clone(&canon.trace), phases.total_seconds))
    }

    /// Like [`TraceStore::trace`], but with the full phase breakdown.
    ///
    /// # Errors
    ///
    /// See [`TraceStore::trace`].
    pub fn trace_with_phases(
        &self,
        req: &TraceRequest,
    ) -> Result<(Arc<PackedTrace>, TracePhases), Error> {
        let (canon, phases) = self.canon_trace(req)?;
        Ok((Arc::clone(&canon.trace), phases))
    }

    fn canon_trace(&self, req: &TraceRequest) -> Result<(CanonTrace, TracePhases), Error> {
        let start = Instant::now();
        let key = req.key();
        let slot = slot_of(&self.traces, key);
        let mut built = false;
        let mut phases = TracePhases::default();
        let result = slot.get_or_init(|| {
            built = true;
            let _flight = crate::flight::span("store", || {
                format!("trace-build {}/{:?}", req.bench.name(), req.kind)
            });
            self.build_trace(key, &mut phases).map(|trace| self.canonicalize(trace))
        });
        if built {
            self.trace_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
        }
        let canon = result.clone().map_err(Error::Store)?;
        phases.total_seconds = start.elapsed().as_secs_f64();
        Ok((canon, phases))
    }

    /// Folds a freshly built trace into the content-addressed pool:
    /// byte-identical traces share one buffer and one content id.
    fn canonicalize(&self, trace: PackedTrace) -> CanonTrace {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        trace.hash(&mut hasher);
        let digest = hasher.finish();
        let mut pool = self.canonical.lock().unwrap();
        let bucket = pool.entry(digest).or_default();
        if let Some(existing) = bucket.iter().find(|c| *c.trace == trace) {
            return Arc::clone(existing);
        }
        let entry = Arc::new(Canonical {
            id: self.next_content_id.fetch_add(1, Ordering::Relaxed),
            trace: Arc::new(trace),
            digest: OnceLock::new(),
        });
        bucket.push(Arc::clone(&entry));
        entry
    }

    fn build_trace(&self, key: TraceKey, phases: &mut TracePhases) -> Result<PackedTrace, String> {
        // Force the stages one at a time so their costs separate; each
        // is memoized, so a phase another request already built (or is
        // building) reports only the lookup/wait time here.
        let t_il = Instant::now();
        let _ = self.il_at(key.il);
        phases.il_seconds = t_il.elapsed().as_secs_f64();
        let t_prepass = Instant::now();
        let prepared = self.prepared_at(key.il).map_err(|e| e.to_string())?;
        phases.prepass_seconds = t_prepass.elapsed().as_secs_f64();
        let t_schedule = Instant::now();
        let options = ScheduleOptions {
            imbalance_threshold: f64::from_bits(key.threshold_bits),
            ..ScheduleOptions::default()
        };
        let scheduled = SchedulePipeline::new(key.kind, &self.assignment)
            .with_options(options)
            .run_prepared(&prepared)
            .map_err(|e| e.to_string())?;
        let hint = dynamic_len_estimate(&scheduled.program, prepared.profile());
        let (trace, _) =
            trace_program_packed(&scheduled.program, hint).map_err(|e| e.to_string())?;
        phases.schedule_seconds = t_schedule.elapsed().as_secs_f64();
        Ok(trace)
    }

    /// Simulates a request's trace under `config`, serving memoized
    /// statistics when the identical (trace, configuration) pair already
    /// ran. Use only for statistics — the cached result has no event
    /// log.
    ///
    /// # Errors
    ///
    /// See [`TraceStore::trace`]; simulation failures also surface as
    /// [`Error::Store`].
    pub fn sim(&self, req: &TraceRequest, config: &ProcessorConfig) -> Result<SimProduct, Error> {
        let (canon, phases) = self.canon_trace(req)?;
        let trace = &canon.trace;
        let start = Instant::now();
        // `ProcessorConfig` is not `Hash`; its derived `Debug` rendering
        // covers every field and so is a faithful key. Keying on the
        // content id (not the trace key) lets distinct requests whose
        // traces came out identical share one simulation.
        let sim_key = format!("{config:?}");
        let slot = slot_of(&self.sims, (canon.id, sim_key.clone()));
        let mut built = false;
        let mut disk_served = false;
        let result = slot.get_or_init(|| {
            built = true;
            // Products are content-addressed on disk: consult the
            // persistent store before simulating, write back after a
            // fresh success. A corrupt or missing entry is a plain miss
            // (the store quarantines internally), never an error. The
            // trace's share of the key is hashed once per canonical
            // trace, on its first disk lookup.
            let persist_key = self.persist.as_deref().map(|p| {
                let digest = canon.digest.get_or_init(|| {
                    self.trace_digests.fetch_add(1, Ordering::Relaxed);
                    TraceDigest::of(trace)
                });
                (p, digest.key(&sim_key))
            });
            if let Some((p, ekey)) = &persist_key {
                if let Some(product) = p.load(ekey) {
                    disk_served = true;
                    return Ok(product);
                }
            }
            let _flight = crate::flight::span("sim", || {
                format!("simulate {}/{:?}", req.bench.name(), req.kind)
            });
            let result = Processor::new(config.clone())
                .run_packed(trace)
                .map(|r| (r.stats, r.ff))
                .map_err(|e| e.to_string());
            if let (Some((p, ekey)), Ok((stats, ff))) = (&persist_key, &result) {
                p.store(ekey, stats, ff);
            }
            result
        });
        if built {
            self.sim_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sim_hits.fetch_add(1, Ordering::Relaxed);
            crate::flight::instant("store", || {
                format!("sim-hit {}/{:?}", req.bench.name(), req.kind)
            });
        }
        let (stats, ff) = result.clone().map_err(Error::Store)?;
        Ok(SimProduct {
            stats,
            // A disk serve simulated nothing this run: throughput
            // accounting must not credit its cycles to this call.
            fresh: built && !disk_served,
            ff,
            trace_build_seconds: phases.total_seconds,
            simulate_seconds: start.elapsed().as_secs_f64(),
            phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_requests_share_one_trace() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let (a, _) = store.trace(&req).unwrap();
        let (b, _) = store.trace(&req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must be served the same buffer");
        let c = store.counters();
        assert_eq!((c.trace_hits, c.trace_misses), (1, 1));
    }

    #[test]
    fn default_threshold_and_explicit_default_share_a_key() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let (a, _) = store.trace(&req).unwrap();
        let (b, _) = store.trace(&req.with_threshold(default_threshold())).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Unroll factor 1 is "no unrolling" and also shares the entry.
        let (c, _) = store.trace(&req.with_unroll(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        // A genuinely different threshold does not.
        let (d, _) = store.trace(&req.with_threshold(32.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn threshold_is_ignored_for_threshold_blind_kinds() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Naive);
        let (a, _) = store.trace(&req).unwrap();
        let (b, _) = store.trace(&req.with_threshold(32.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn store_trace_matches_direct_pipeline() {
        let bench = Benchmark::Compress;
        let scale = 40;
        let store = TraceStore::new();
        let (packed, _) = store
            .trace(&TraceRequest::new(bench, scale, SchedulerKind::Local))
            .unwrap();
        let direct = crate::schedule_and_trace(
            &bench.build(scale),
            SchedulerKind::Local,
            store.assignment(),
            None,
        )
        .unwrap();
        assert_eq!(packed.to_ops(), direct);
    }

    #[test]
    fn identical_content_shares_buffer_and_simulation() {
        // Compress has no self-loops the unroller changes, so the
        // unrolled request builds under a different key but produces a
        // byte-identical trace — canonicalization must collapse them.
        let store = TraceStore::new();
        let base = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let cfg = ProcessorConfig::dual_cluster_8way();
        let first = store.sim(&base, &cfg).unwrap();
        let unrolled = store.sim(&base.with_unroll(2), &cfg).unwrap();
        assert_eq!(first.stats, unrolled.stats);
        let (a, _) = store.trace(&base).unwrap();
        let (b, _) = store.trace(&base.with_unroll(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical contents must share one buffer");
        let c = store.counters();
        // Both trace requests were misses (each built), but the second
        // simulation was served from the content-keyed cache.
        assert_eq!((c.sim_hits, c.sim_misses), (1, 1));
    }

    #[test]
    fn phase_breakdown_attributes_only_the_building_call() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let (_, built) = store.trace_with_phases(&req).unwrap();
        assert!(built.schedule_seconds > 0.0, "the building call times its phases");
        assert!(
            built.total_seconds
                >= built.il_seconds + built.prepass_seconds + built.schedule_seconds,
            "total covers the phases: {built:?}"
        );
        // A store hit reports no phase work, only (tiny) total wait.
        let (_, hit) = store.trace_with_phases(&req).unwrap();
        assert_eq!(hit.il_seconds, 0.0);
        assert_eq!(hit.prepass_seconds, 0.0);
        assert_eq!(hit.schedule_seconds, 0.0);
        // And the sim product carries the same breakdown.
        let product = store.sim(&req, &ProcessorConfig::dual_cluster_8way()).unwrap();
        assert_eq!(product.trace_build_seconds, product.phases.total_seconds);
    }

    #[test]
    fn persistent_store_serves_identical_stats_across_processes() {
        // Two TraceStores sharing one disk store model two `repro`
        // invocations: the first (cold) simulates and persists, the
        // second (warm) serves from disk without simulating.
        let dir = std::env::temp_dir()
            .join(format!("mcl-store-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = Arc::new(crate::persist::PersistStore::open(&dir).unwrap());
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let cfg = ProcessorConfig::dual_cluster_8way();

        let cold_store = TraceStore::new().with_persist(Arc::clone(&persist));
        let cold = cold_store.sim(&req, &cfg).unwrap();
        assert!(cold.fresh, "cold run simulates");
        let c = cold_store.counters();
        assert_eq!((c.disk_hits, c.disk_misses, c.disk_stores), (0, 1, 1));

        let warm_store = TraceStore::new().with_persist(Arc::clone(&persist));
        let warm = warm_store.sim(&req, &cfg).unwrap();
        assert_eq!(cold.stats, warm.stats, "disk serve is byte-identical");
        assert_eq!(cold.ff, warm.ff, "fast-forward counters persist too");
        assert!(!warm.fresh, "a disk serve simulated nothing this run");
        let w = warm_store.counters();
        assert_eq!((w.disk_hits, w.disk_misses, w.disk_stores), (1, 1, 1));
        // And the in-process memo still serves repeats without touching
        // the disk again.
        let again = warm_store.sim(&req, &cfg).unwrap();
        assert_eq!(again.stats, warm.stats);
        assert_eq!(warm_store.counters().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_digest_is_hashed_once_per_canonical_trace() {
        let dir = std::env::temp_dir()
            .join(format!("mcl-store-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = Arc::new(crate::persist::PersistStore::open(&dir).unwrap());
        let plain = TraceStore::new();
        let store = TraceStore::new().with_persist(Arc::clone(&persist));
        let base = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let configs = [
            ProcessorConfig::dual_cluster_8way(),
            ProcessorConfig::single_cluster_8way(),
            ProcessorConfig::dual_cluster_4way(),
        ];
        for cfg in &configs {
            store.sim(&base, cfg).unwrap();
            plain.sim(&base, cfg).unwrap();
        }
        // The unrolled request builds under its own key but canonicalizes
        // to the same content (see above), so it reuses the digest too.
        let unrolled = base.with_unroll(2);
        let cfg = ProcessorConfig::single_cluster_4way();
        store.sim(&unrolled, &cfg).unwrap();
        assert_eq!(store.trace_digests.load(Ordering::Relaxed), 1, "one hash for four keys");
        assert_eq!(plain.trace_digests.load(Ordering::Relaxed), 0, "no store, no hashing");
        let c = store.counters();
        assert_eq!((c.disk_misses, c.disk_stores), (4, 4));

        // And every key the cached digest produced is the one-shot key.
        let (trace, _) = store.trace(&unrolled).unwrap();
        for cfg in configs.iter().chain([&cfg]) {
            let key = crate::persist::EntryKey::of(&trace, &format!("{cfg:?}"));
            assert!(persist.entry_path(&key).is_file(), "entry for {cfg:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_sim_equals_fresh_sim() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let cfg = ProcessorConfig::dual_cluster_8way();
        let first = store.sim(&req, &cfg).unwrap();
        let cached = store.sim(&req, &cfg).unwrap();
        assert_eq!(first.stats, cached.stats);
        assert!(first.fresh, "the first serve runs the simulator");
        assert!(!cached.fresh, "the second serve is a cache hit");
        assert_eq!(first.ff, cached.ff, "cached serves report the original run's counters");
        let fresh = crate::simulate(
            &cfg,
            &store.trace(&req).unwrap().0.to_ops(),
        )
        .unwrap();
        assert_eq!(first.stats, fresh);
        let c = store.counters();
        assert_eq!((c.sim_hits, c.sim_misses), (1, 1));
    }
}
