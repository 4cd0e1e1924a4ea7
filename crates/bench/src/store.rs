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
//! Every freshly built trace is digested once, right after it is
//! packed: its [`TraceDigest`] ([`PackedTrace::digest`]) is its one
//! identity, for the content pool, the simulation memo and the disk
//! store alike. Distinct keys that happen to produce byte-identical
//! traces (a threshold past the point where the partition stops
//! changing, an unroll factor on a benchmark without self-loops) share
//! one buffer, one digest and — since simulation is deterministic — one
//! memoized simulation per configuration. The content pool holds one
//! entry per digest and compares contents on a match: two different
//! traces with one digest are an error, never a merge, because no
//! cache could tell them apart.
//!
//! The store does not hold a benchmark's artifacts for the whole run.
//! The plan knows when a benchmark's last cell has finished (see
//! [`runner`](crate::runner)), and then [`TraceStore::release`] drops
//! that benchmark's IL, prepared IL and trace slots; the content pool
//! only holds weak references, so the memory goes once the last cell
//! drops its handles. What stays is small: the simulation memo and the
//! request-tier state. A request after a release
//! builds its trace again (and counts a trace miss).
//!
//! With a disk store attached, [`TraceStore::sim`] first asks its
//! *request tier* ([`PersistStore::load_request`]) for the digest of the
//! trace a request builds. On a hit it addresses the persisted result
//! directly and builds no trace at all; only a result that is missing
//! there (evicted, corrupt) builds the trace after all. On a miss the
//! trace is built and simulated as above, and the request entry is
//! written for the next run.
//!
//! The store serves *statistics only*; runs that attach a probe (the
//! event log behind `repro pipeline` and the scenario timelines, the
//! probe tools' companions) bypass it.
//!
//! The store keeps no clock of its own. Each stage that does real work
//! records a [`flight`] span inside its build slot, in a
//! category named after the benchmark layer it belongs to:
//! `workloads.build` (IL), `sched.prepare`, `sched.schedule`,
//! `trace.pack` (the digest included) and `core.simulate`, plus the
//! disk store's own `persist.key` (the executable fingerprint),
//! `persist.load` and `persist.store`. A hit
//! records nothing, so a warm run's recording shows only the work it
//! did.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use mcl_core::{CheckLevel, FastForward, Processor, ProcessorConfig, SimStats};
use mcl_isa::assign::RegisterAssignment;
use mcl_sched::{
    unroll_self_loops, PreparedIl, ScheduleOptions, SchedulePipeline, SchedulerKind,
};
use mcl_trace::vm::{dynamic_len_estimate, trace_program_packed};
use mcl_trace::{PackedTrace, Program, Vreg};
use mcl_workloads::Benchmark;

use crate::flight;
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

impl IlKey {
    /// The flight-span label: the benchmark, and the unroll factor when
    /// there is one.
    fn label(self) -> String {
        match self.unroll {
            1 => self.bench.name().to_owned(),
            n => format!("{}/unroll{n}", self.bench.name()),
        }
    }
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

impl TraceKey {
    /// The flight-span label: `bench/kind`.
    fn label(self) -> String {
        format!("{}/{:?}", self.il.label(), self.kind)
    }

    /// The key's canonical byte rendering, hashed into its request-tier
    /// key. The tier's code fingerprint covers the renderings used.
    fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        for text in [self.il.bench.name(), &format!("{:?}", self.kind)] {
            out.extend_from_slice(text.as_bytes());
            out.push(0);
        }
        out.extend_from_slice(&self.il.scale.to_le_bytes());
        out.extend_from_slice(&self.il.unroll.to_le_bytes());
        out.extend_from_slice(&self.threshold_bits.to_le_bytes());
        out
    }
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
    /// Corrupt disk entries quarantined (each also counts a miss of its
    /// tier: `disk_misses` or `disk_request_misses`).
    pub disk_quarantined: u64,
    /// Request-tier lookups that named a trace digest, so the request
    /// skipped building its trace.
    pub disk_request_hits: u64,
    /// Request-tier lookups that found no usable entry.
    pub disk_request_misses: u64,
}

/// One simulation served by the store.
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

/// A content-canonicalized trace and its digest, shared by every trace
/// key whose built trace came out byte-identical.
#[derive(Clone)]
struct Canonical {
    digest: TraceDigest,
    trace: Arc<PackedTrace>,
}

/// An IL build slot (infallible — `Benchmark::build` cannot fail).
type IlSlot = Arc<OnceLock<Arc<Program<Vreg>>>>;
/// Memoized simulation result: statistics and fast-forward counters,
/// keyed by (trace digest, rendered configuration).
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
    traces: Mutex<HashMap<TraceKey, Slot<Canonical>>>,
    /// Trace digest → the canonical trace with that digest. Weak: the
    /// trace slots own the traces, and [`TraceStore::release`] prunes
    /// the entries it orphans.
    canonical: Mutex<HashMap<TraceDigest, Weak<PackedTrace>>>,
    /// Trace key → the digest its request-tier entry named (`None`: no
    /// usable entry), loaded at most once per process.
    requested: Mutex<HashMap<TraceKey, Option<TraceDigest>>>,
    /// Trace keys whose request-tier entry this process wrote.
    written: Mutex<HashSet<TraceKey>>,
    sims: Mutex<HashMap<(TraceDigest, String), SimSlot>>,
    /// The optional crash-safe on-disk result cache consulted when the
    /// in-process memo misses (see [`TraceStore::with_persist`]).
    persist: Option<Arc<PersistStore>>,
    /// See [`TraceStore::with_check`].
    check: CheckLevel,
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
            requested: Mutex::new(HashMap::new()),
            written: Mutex::new(HashSet::new()),
            sims: Mutex::new(HashMap::new()),
            persist: None,
            check: CheckLevel::Off,
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

    /// Runs the store's simulations under the invariant checker at
    /// `level` (`repro --check`). The level is in no key, so a checked
    /// store serves what a plain one stored, without re-checking it.
    #[must_use]
    pub fn with_check(mut self, level: CheckLevel) -> TraceStore {
        self.check = level;
        self
    }

    /// The invariant-check level of the store's simulations.
    #[must_use]
    pub fn check_level(&self) -> CheckLevel {
        self.check
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
            disk_request_hits: disk.request_hits,
            disk_request_misses: disk.request_misses,
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
            // An unrolled IL unrolls the shared plain one, built (and
            // spanned) on its own.
            let base = (key.unroll > 1).then(|| self.il_at(IlKey { unroll: 1, ..key }));
            let _flight = flight::span("workloads.build", || key.label());
            Arc::new(match base {
                Some(base) => unroll_self_loops(&base, key.unroll),
                None => key.bench.build(key.scale),
            })
        })
        .clone()
    }

    /// The shared prepared (prepass-scheduled + profiled) form of an IL
    /// program — the scheduler-kind-independent half of the pipeline.
    fn prepared_at(&self, key: IlKey) -> Result<Arc<PreparedIl>, Error> {
        let slot = slot_of(&self.prepared, key);
        slot.get_or_init(|| {
            let il = self.il_at(key);
            let _flight = flight::span("sched.prepare", || key.label());
            // The kind is irrelevant to `prepare`; options are defaults.
            SchedulePipeline::new(SchedulerKind::Naive, &self.assignment)
                .prepare(&il)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
        .clone()
        .map_err(Error::Store)
    }

    /// The shared packed trace for a request.
    ///
    /// # Errors
    ///
    /// Scheduling or trace-generation failures surface as
    /// [`Error::Store`] (identically on every call for the same key).
    pub fn trace(&self, req: &TraceRequest) -> Result<Arc<PackedTrace>, Error> {
        let canon = self.canon_trace(req.key()).map_err(Error::Store)?;
        Ok(Arc::clone(&canon.trace))
    }

    /// The canonical trace of a trace key; a failure is the build's
    /// cached reason.
    fn canon_trace(&self, key: TraceKey) -> Result<Canonical, String> {
        let slot = slot_of(&self.traces, key);
        let mut built = false;
        let result = slot.get_or_init(|| {
            built = true;
            self.build_trace(key)
        });
        if built {
            self.trace_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Digests a freshly built trace and folds it into the content
    /// pool: byte-identical traces share one buffer. A digest already
    /// held by a different trace is an error, since no cache keyed on
    /// the digest could tell the two apart.
    fn canonicalize(&self, trace: PackedTrace) -> Result<Canonical, String> {
        let digest = TraceDigest::of(&trace);
        let mut pool = self.canonical.lock().unwrap();
        if let Some(existing) = pool.get(&digest).and_then(Weak::upgrade) {
            if *existing != trace {
                return Err(format!("two different traces share the content digest {digest:?}"));
            }
            return Ok(Canonical { digest, trace: existing });
        }
        let trace = Arc::new(trace);
        pool.insert(digest, Arc::downgrade(&trace));
        Ok(Canonical { digest, trace })
    }

    /// Drops `bench`'s IL, prepared IL and trace slots, at every scale
    /// and unroll factor, once the plan has run its last cell. Handles
    /// a caller still holds stay valid; a later request builds again.
    pub fn release(&self, bench: Benchmark) {
        self.ils.lock().unwrap().retain(|k, _| k.bench != bench);
        self.prepared.lock().unwrap().retain(|k, _| k.bench != bench);
        self.traces.lock().unwrap().retain(|k, _| k.il.bench != bench);
        self.canonical.lock().unwrap().retain(|_, trace| trace.strong_count() > 0);
    }

    /// Builds, packs, digests and canonicalizes the trace of `key`.
    fn build_trace(&self, key: TraceKey) -> Result<Canonical, String> {
        // The IL and prepared IL are memoized and span their own builds.
        let prepared = self.prepared_at(key.il).map_err(|e| e.to_string())?;
        let options = ScheduleOptions {
            imbalance_threshold: f64::from_bits(key.threshold_bits),
            ..ScheduleOptions::default()
        };
        let scheduled = {
            let _flight = flight::span("sched.schedule", || key.label());
            SchedulePipeline::new(key.kind, &self.assignment)
                .with_options(options)
                .run_prepared(&prepared)
                .map_err(|e| e.to_string())?
        };
        let _flight = flight::span("trace.pack", || key.label());
        let hint = dynamic_len_estimate(&scheduled.program, prepared.profile());
        let (trace, _) =
            trace_program_packed(&scheduled.program, hint).map_err(|e| e.to_string())?;
        self.canonicalize(trace)
    }

    /// The canonical trace of `key`, remembered in the request tier.
    fn built(&self, key: TraceKey) -> Result<Canonical, String> {
        let canon = self.canon_trace(key)?;
        self.remember_request(key, canon.digest);
        Ok(canon)
    }

    /// The digest the request tier names for `key`, loaded from disk at
    /// most once per process; `None` without a disk store, without a
    /// code fingerprint, or without a usable entry.
    fn requested_digest(&self, key: TraceKey) -> Option<TraceDigest> {
        let persist = self.persist.as_deref()?;
        *self.requested.lock().unwrap().entry(key).or_insert_with(|| {
            let request_key = persist.request_key(&key.to_bytes())?;
            persist.load_request(&request_key)
        })
    }

    /// Records in the request tier that `key` builds the trace with
    /// `digest`, unless its entry already says so; once per process.
    fn remember_request(&self, key: TraceKey, digest: TraceDigest) {
        let Some(persist) = self.persist.as_deref() else { return };
        let loaded = self.requested.lock().unwrap().get(&key).copied().flatten();
        if loaded != Some(digest) && self.written.lock().unwrap().insert(key) {
            if let Some(request_key) = persist.request_key(&key.to_bytes()) {
                persist.store_request(&request_key, &digest);
            }
        }
    }

    /// Simulates a request's trace under `config`, serving memoized
    /// statistics when the identical (trace, configuration) pair already
    /// ran. The key is the trace and the machine: the store's check
    /// level is not part of it.
    ///
    /// With a disk store attached, a request-tier hit serves the
    /// persisted result without building the trace (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// See [`TraceStore::trace`]; simulation failures also surface as
    /// [`Error::Store`].
    pub fn sim(&self, req: &TraceRequest, config: &ProcessorConfig) -> Result<SimProduct, Error> {
        let key = req.key();
        // The digest first: named by the request tier, or taken from the
        // built trace.
        let mut canon = None;
        let digest = match self.requested_digest(key) {
            Some(digest) => digest,
            None => canon.insert(self.built(key).map_err(Error::Store)?).digest,
        };
        // `ProcessorConfig` is not `Hash`; its derived `Debug` rendering
        // covers every field and so is a faithful key. Keying on the
        // digest (not the trace key) lets distinct requests whose traces
        // came out identical share one simulation.
        let sim_key = format!("{config:?}");
        let slot = slot_of(&self.sims, (digest, sim_key.clone()));
        let mut built = false;
        let mut disk_served = false;
        let result = slot.get_or_init(|| {
            built = true;
            // Products are content-addressed on disk: consult the
            // persistent store before simulating, write back after a
            // fresh success. A corrupt or missing entry is a plain miss
            // (the store quarantines internally), never an error.
            let persist = self.persist.as_deref();
            if let Some(product) = persist.and_then(|p| p.load(&digest.key(&sim_key))) {
                disk_served = true;
                return Ok(product);
            }
            // The trace only if needed: when the request tier named a
            // result the store no longer holds, build it after all.
            let canon = match canon {
                Some(canon) => canon,
                None => self.built(key)?,
            };
            let result = {
                let _flight = flight::span("core.simulate", || key.label());
                Processor::new(config.clone())
                    .checked(self.check)
                    .run_packed(&canon.trace)
                    .map(|r| (r.stats, r.ff))
                    .map_err(|e| e.to_string())
            };
            if let (Some(p), Ok((stats, ff))) = (persist, &result) {
                p.store(&canon.digest.key(&sim_key), stats, ff);
            }
            result
        });
        if built {
            self.sim_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sim_hits.fetch_add(1, Ordering::Relaxed);
        }
        let (stats, ff) = result.clone().map_err(Error::Store)?;
        Ok(SimProduct {
            stats,
            // A disk serve simulated nothing this run: throughput
            // accounting must not credit its cycles to this call.
            fresh: built && !disk_served,
            ff,
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
        let a = store.trace(&req).unwrap();
        let b = store.trace(&req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must be served the same buffer");
        let c = store.counters();
        assert_eq!((c.trace_hits, c.trace_misses), (1, 1));
    }

    #[test]
    fn default_threshold_and_explicit_default_share_a_key() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local);
        let a = store.trace(&req).unwrap();
        let b = store.trace(&req.with_threshold(default_threshold())).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Unroll factor 1 is "no unrolling" and also shares the entry.
        let c = store.trace(&req.with_unroll(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        // A genuinely different threshold does not.
        let d = store.trace(&req.with_threshold(32.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn threshold_is_ignored_for_threshold_blind_kinds() {
        let store = TraceStore::new();
        let req = TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Naive);
        let a = store.trace(&req).unwrap();
        let b = store.trace(&req.with_threshold(32.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn store_trace_matches_direct_pipeline() {
        let bench = Benchmark::Compress;
        let scale = 40;
        let store = TraceStore::new();
        let packed = store.trace(&TraceRequest::new(bench, scale, SchedulerKind::Local))
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
        let a = store.trace(&base).unwrap();
        let b = store.trace(&base.with_unroll(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical contents must share one buffer");
        let c = store.counters();
        // Both trace requests were misses (each built), but the second
        // simulation was served from the content-keyed cache.
        assert_eq!((c.sim_hits, c.sim_misses), (1, 1));
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

        assert_eq!((c.disk_request_hits, c.disk_request_misses, c.trace_misses), (0, 1, 1));

        let warm_store = TraceStore::new().with_persist(Arc::clone(&persist));
        let warm = warm_store.sim(&req, &cfg).unwrap();
        assert_eq!(cold.stats, warm.stats, "disk serve is byte-identical");
        assert_eq!(cold.ff, warm.ff, "fast-forward counters persist too");
        assert!(!warm.fresh, "a disk serve simulated nothing this run");
        let w = warm_store.counters();
        assert_eq!((w.disk_hits, w.disk_misses, w.disk_stores), (1, 1, 1));
        // The request tier named the digest: no trace was built.
        assert_eq!((w.disk_request_hits, w.trace_misses, w.trace_hits), (1, 0, 0));
        // And the in-process memo still serves repeats without touching
        // the disk again.
        let again = warm_store.sim(&req, &cfg).unwrap();
        assert_eq!(again.stats, warm.stats);
        assert_eq!(warm_store.counters().disk_hits, 1);

        // A checked run (`--check retire`) keys by the machine alone, so
        // it too is served entirely from disk.
        let checked_store = TraceStore::new()
            .with_persist(Arc::clone(&persist))
            .with_check(CheckLevel::Retire);
        let checked = checked_store.sim(&req, &cfg).unwrap();
        assert_eq!(cold.stats, checked.stats, "a checked store serves the plain result");
        assert!(!checked.fresh, "a disk serve simulated nothing this run");
        let k = checked_store.counters();
        assert_eq!((k.disk_hits, k.disk_misses, k.disk_stores), (2, 1, 1));
        assert_eq!(k.trace_misses, 0, "the request tier named the digest");
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
        // The unrolled request builds under its own key but canonicalizes
        // to the same content (see above), so it shares the digest too.
        let unrolled = base.with_unroll(2);
        let cfg = ProcessorConfig::single_cluster_4way();
        for (req, cfg) in configs.iter().map(|cfg| (&base, cfg)).chain([(&unrolled, &cfg)]) {
            store.sim(req, cfg).unwrap();
            plain.sim(req, cfg).unwrap();
        }
        let (c, p) = (store.counters(), plain.counters());
        assert_eq!((c.disk_misses, c.disk_stores), (4, 4));
        assert_eq!((c.sim_hits, c.sim_misses), (p.sim_hits, p.sim_misses), "one memo key");

        // And every key the stored digest produced is the one-shot key.
        let trace = store.trace(&unrolled).unwrap();
        for cfg in configs.iter().chain([&cfg]) {
            let key = crate::persist::EntryKey::of(&trace, &format!("{cfg:?}"));
            assert!(persist.entry_path(&key).is_file(), "entry for {cfg:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two different traces with one digest cannot share a cache entry,
    /// so the second to be built is refused.
    #[test]
    fn a_digest_shared_by_different_traces_is_an_error() {
        use mcl_isa::Opcode;
        use mcl_trace::TraceOp;
        let op = |seq: u64, pc: u64| TraceOp {
            seq,
            pc,
            op: Opcode::Addq,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            branch: None,
            sched_inserted: false,
        };
        // The digest's `pc` chain, spelled out: each step maps state `h`
        // and word `w` to `(h.rotate_left(5) ^ w) * K`, from state 0. A
        // second `pc` word chosen to cancel the first's difference brings
        // the chain back to the same state.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let state = |pc: u64| pc.wrapping_mul(K).rotate_left(5);
        let (a0, a1, b0) = (0x1000, 0x1004, 0x2000);
        let b1 = a1 ^ state(a0) ^ state(b0);
        let a = PackedTrace::from_ops(&[op(0, a0), op(1, a1)]);
        let b = PackedTrace::from_ops(&[op(0, b0), op(1, b1)]);
        assert_ne!(a, b);
        assert_eq!(a.digest(), b.digest(), "the two traces collide");

        let store = TraceStore::new();
        let held = store.canonicalize(a.clone()).unwrap();
        assert!(Arc::ptr_eq(&store.canonicalize(a).unwrap().trace, &held.trace));
        let err = store.canonicalize(b).err().expect("a collision is refused");
        assert!(err.contains("share the content digest"), "{err}");
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
            &store.trace(&req).unwrap().to_ops(),
        )
        .unwrap();
        assert_eq!(first.stats, fresh);
        let c = store.counters();
        assert_eq!((c.sim_hits, c.sim_misses), (1, 1));
    }

    #[test]
    fn release_frees_a_benchmarks_traces_and_a_later_request_rebuilds_them() {
        let (req, cfg) = compress_local();
        let store = TraceStore::new();
        let before = store.sim(&req, &cfg).unwrap();
        let trace = store.trace(&req).unwrap();
        let bytes = trace.to_bytes();
        let weak = Arc::downgrade(&trace);
        // Another benchmark's trace survives the release.
        let other = TraceRequest::new(Benchmark::Ora, 2, SchedulerKind::Local);
        let kept = Arc::downgrade(&store.trace(&other).unwrap());

        store.release(Benchmark::Compress);
        assert!(weak.upgrade().is_some(), "a caller's handle stays valid");
        drop(trace);
        assert!(weak.upgrade().is_none(), "nothing in the store pins a released trace");
        assert!(kept.upgrade().is_some(), "release drops only its benchmark");

        let misses = store.counters().trace_misses;
        let rebuilt = store.trace(&req).unwrap();
        assert_eq!(rebuilt.to_bytes(), bytes, "the rebuild is byte-identical");
        assert_eq!(store.counters().trace_misses, misses + 1, "the rebuild counts a miss");
        let after = store.sim(&req, &cfg).unwrap();
        assert_eq!((after.stats, after.ff), (before.stats, before.ff));
    }

    #[test]
    fn a_benchmarks_cells_share_its_trace_until_the_group_is_released() {
        use crate::runner::{run_cells_isolated, Cell, CellCost};
        let (req, cfg) = compress_local();
        let store = Arc::new(TraceStore::new());
        let cells: Vec<Cell<u64>> = (0..3)
            .map(|i| {
                let (store, cfg) = (Arc::clone(&store), cfg.clone());
                Cell::new(format!("compress/{i}"), move || {
                    let product = store.sim(&req, &cfg)?;
                    let mut cost = CellCost::default();
                    cost.charge_sim(&product);
                    Ok((product.stats.cycles, cost))
                })
                .for_benchmark(Benchmark::Compress)
            })
            .collect();
        let (payloads, _) = run_cells_isolated(2, cells, None, &|bench| store.release(bench));
        assert!(payloads.iter().all(Option::is_some));
        let c = store.counters();
        assert_eq!((c.trace_misses, c.trace_hits), (1, 2), "the trace is built once");
        assert_eq!((c.sim_misses, c.sim_hits), (1, 2));
        assert!(store.traces.lock().unwrap().is_empty(), "the group's release ran");
        assert!(store.canonical.lock().unwrap().is_empty(), "and pruned the content pool");
    }

    /// A fresh disk store under `tag` whose request keys cover
    /// `fingerprint` in place of the running executable's.
    fn temp_persist(tag: &str, fingerprint: u128) -> Arc<PersistStore> {
        let dir = std::env::temp_dir().join(format!("mcl-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        reopen(&dir, fingerprint)
    }

    /// The same disk store opened again, as by a later process.
    fn reopen(dir: &std::path::Path, fingerprint: u128) -> Arc<PersistStore> {
        Arc::new(PersistStore::open(dir).unwrap().with_fingerprint(fingerprint))
    }

    fn compress_local() -> (TraceRequest, ProcessorConfig) {
        (
            TraceRequest::new(Benchmark::Compress, 40, SchedulerKind::Local),
            ProcessorConfig::dual_cluster_8way(),
        )
    }

    #[test]
    fn request_entry_pointing_at_evicted_results_falls_back_and_simulates() {
        let (req, cfg) = compress_local();
        let cold_persist = temp_persist("evicted", 1);
        let cold_store = TraceStore::new().with_persist(Arc::clone(&cold_persist));
        let cold = cold_store.sim(&req, &cfg).unwrap();
        // Evict every result; the request entry stays.
        let entries = cold_persist.root().join("entries");
        for entry in std::fs::read_dir(&entries).unwrap().filter_map(Result::ok) {
            if entry.path().extension().is_some_and(|x| x == "bin") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }

        let persist = reopen(cold_persist.root(), 1);
        let store = TraceStore::new().with_persist(Arc::clone(&persist));
        let warm = store.sim(&req, &cfg).unwrap();
        assert_eq!(warm.stats, cold.stats, "the fallback simulates identical stats");
        assert!(warm.fresh, "an evicted result is simulated again");
        let c = store.counters();
        assert_eq!((c.disk_request_hits, c.disk_request_misses), (1, 0));
        assert_eq!((c.disk_hits, c.disk_misses, c.disk_stores), (0, 1, 1));
        assert_eq!(c.trace_misses, 1, "the trace was built after all");

        // The restored result serves the next process without a build.
        let store = TraceStore::new().with_persist(reopen(cold_persist.root(), 1));
        let served = store.sim(&req, &cfg).unwrap();
        assert_eq!(served.stats, cold.stats);
        let c = store.counters();
        assert_eq!((c.disk_request_hits, c.disk_hits, c.trace_misses), (1, 1, 0));
        let _ = std::fs::remove_dir_all(cold_persist.root());
    }

    #[test]
    fn a_store_filled_by_another_binary_is_served_through_the_content_path() {
        let (req, cfg) = compress_local();
        let other = temp_persist("other-binary", 1);
        let cold = TraceStore::new().with_persist(Arc::clone(&other)).sim(&req, &cfg).unwrap();

        let store = TraceStore::new().with_persist(reopen(other.root(), 2));
        let warm = store.sim(&req, &cfg).unwrap();
        assert_eq!((warm.stats, warm.ff), (cold.stats, cold.ff));
        assert!(!warm.fresh, "the result is served from disk");
        let c = store.counters();
        assert_eq!((c.disk_request_hits, c.disk_request_misses), (0, 1));
        assert_eq!((c.disk_hits, c.disk_misses, c.disk_stores), (1, 0, 0));
        assert_eq!(c.trace_misses, 1, "the content path builds the trace to key it");
        let _ = std::fs::remove_dir_all(other.root());
    }

    /// Every flip of a request entry quarantines it; the next process
    /// rebuilds the trace, serves identical stats from the content path
    /// and writes the entry back intact.
    #[test]
    fn a_corrupt_request_entry_rebuilds_the_trace() {
        let (req, cfg) = compress_local();
        let persist = temp_persist("request-flip", 1);
        let cold = TraceStore::new().with_persist(Arc::clone(&persist)).sim(&req, &cfg).unwrap();
        let request_key = persist.request_key(&req.key().to_bytes()).unwrap();
        let path = persist.request_path(&request_key);
        let pristine = std::fs::read(&path).unwrap();
        // One flip per byte (the exhaustive per-bit sweep of the format
        // is `persist::any_single_bit_flip_quarantines_and_recomputes`).
        for byte in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &corrupt).unwrap();
            let store = TraceStore::new().with_persist(reopen(persist.root(), 1));
            let warm = store.sim(&req, &cfg).unwrap();
            assert_eq!(warm.stats, cold.stats, "flip of byte {byte}");
            let c = store.counters();
            assert_eq!((c.disk_quarantined, c.disk_request_misses, c.trace_misses), (1, 1, 1));
            assert_eq!((c.disk_hits, c.disk_misses), (1, 0), "flip of byte {byte}");
            assert_eq!(std::fs::read(&path).unwrap(), pristine, "entry rewritten intact");
        }
        let _ = std::fs::remove_dir_all(persist.root());
    }

    #[test]
    fn request_hits_share_simulations_like_built_traces() {
        // The unrolled request builds a byte-identical trace (see
        // `identical_content_shares_buffer_and_simulation`): cold and
        // warm must count the same memo hits and misses.
        let (base, cfg) = compress_local();
        let persist = temp_persist("request-memo", 1);
        let run = |persist: Arc<PersistStore>| {
            let store = TraceStore::new().with_persist(persist);
            store.sim(&base, &cfg).unwrap();
            store.sim(&base.with_unroll(2), &cfg).unwrap();
            store.counters()
        };
        let cold = run(Arc::clone(&persist));
        let warm = run(reopen(persist.root(), 1));
        assert_eq!((cold.sim_hits, cold.sim_misses), (1, 1));
        assert_eq!((warm.sim_hits, warm.sim_misses), (1, 1));
        assert_eq!((warm.disk_request_hits, warm.trace_misses), (2, 0));
        let _ = std::fs::remove_dir_all(persist.root());
    }
}
