//! Crash-safe persistent simulation-result store.
//!
//! The in-process [`TraceStore`](crate::TraceStore) memoizes simulation
//! statistics for the lifetime of one `repro` invocation; this module
//! extends the memo across invocations with an on-disk,
//! content-addressed cache of `(packed trace, configuration) →`
//! ([`SimStats`], [`FastForward`]) results. Simulation is
//! deterministic, so serving a persisted result is observationally
//! identical to re-simulating — provided the entry genuinely is the
//! bytes that were written. Everything here is built around that
//! proviso:
//!
//! - **Content addressing.** Entries are keyed by a 128-bit FNV-1a
//!   digest over the store format version, the statistics wire version,
//!   the trace's validated 21-byte-per-record wire form
//!   ([`PackedTrace::to_bytes`]), and the configuration's canonical
//!   rendering. Any change to the trace, the configuration, or either
//!   serialization format changes the key; stale entries are simply
//!   never addressed again. Everything before the configuration is
//!   hashed once per trace ([`TraceDigest`]) and reused for every
//!   configuration it is simulated under.
//! - **Atomic writes.** An entry is written to a temporary file in the
//!   store root and `rename`d into place, so a concurrent reader (or a
//!   crash mid-write) can never observe a half-written entry under its
//!   final name.
//! - **Checksummed, versioned entries.** Each entry carries a magic
//!   tag, a format version, an echo of its own key, the payload length,
//!   and an FNV-64 checksum of the payload. Loads re-derive all five.
//! - **Quarantine, never trust.** *Any* load failure — truncation, a
//!   flipped bit, a stale version, a hash-collision key mismatch — is
//!   treated as corruption: the entry is moved to `quarantine/` (for
//!   post-mortems) and the caller transparently recomputes. Corruption
//!   is never an error and can never alter reported statistics.
//! - **Bounded size.** When the store grows past its capacity
//!   (`MCL_STORE_CAP_BYTES`, default 256 MiB), least-recently-used
//!   entries (by modification time, refreshed on every hit) are evicted
//!   under an advisory lock file so concurrent `repro` processes do not
//!   race the sweep.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use mcl_core::{FastForward, SimStats, STATS_WIRE_VERSION};
use mcl_trace::PackedTrace;

/// Version of the on-disk entry format. Bump on any layout change, and
/// whenever the `Debug` rendering of `ProcessorConfig` changes (it is
/// the configuration half of every key) — the version participates in
/// both the content key (old entries are not addressed) and the header
/// check (old entries quarantine if a key collides anyway). Version 2:
/// the configuration lost its `engine` field.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Magic tag opening every entry file.
const MAGIC: &[u8; 8] = b"MCLSTOR1";

/// Entry header: magic, format version, key echo, payload length,
/// payload checksum.
const HEADER_LEN: usize = 8 + 4 + 16 + 8 + 8;

/// Default store capacity when `MCL_STORE_CAP_BYTES` is unset.
pub const DEFAULT_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// An advisory eviction lock older than this is considered leaked by a
/// crashed process and is stolen.
const STALE_LOCK: Duration = Duration::from_secs(60);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Basis of the key's low half: a perturbed offset, so the two halves
/// are independent hashes of the same stream.
const FNV_OFFSET_LO: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over a sequence of chunks, from an arbitrary basis.
fn fnv1a(basis: u64, chunks: &[&[u8]]) -> u64 {
    let mut hash = basis;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// The configuration-independent prefix of every [`EntryKey`] of one
/// trace: both FNV-1a states after the store format version, the
/// statistics wire version and the trace's wire bytes.
///
/// FNV-1a is a streaming hash, so [`TraceDigest::key`] continuing
/// these states over a configuration's bytes yields exactly the key a
/// single pass over the whole stream would — a trace replayed under
/// many configurations is hashed once, not once per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    hi: u64,
    lo: u64,
}

impl TraceDigest {
    /// Hashes `trace`'s key prefix, feeding both halves in one pass
    /// (two independent multiply chains per byte).
    #[must_use]
    pub fn of(trace: &PackedTrace) -> TraceDigest {
        let mut digest = TraceDigest { hi: FNV_OFFSET, lo: FNV_OFFSET_LO };
        digest.absorb(&STORE_FORMAT_VERSION.to_le_bytes());
        digest.absorb(&STATS_WIRE_VERSION.to_le_bytes());
        trace.for_each_wire_record(|rec| digest.absorb(rec));
        digest
    }

    /// The key for simulating the digested trace under the
    /// configuration whose canonical rendering is `sim_key`.
    #[must_use]
    pub fn key(mut self, sim_key: &str) -> EntryKey {
        self.absorb(sim_key.as_bytes());
        EntryKey { hi: self.hi, lo: self.lo }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        let (mut hi, mut lo) = (self.hi, self.lo);
        for &byte in bytes {
            hi = (hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            lo = (lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        (self.hi, self.lo) = (hi, lo);
    }
}

/// The 128-bit content address of one simulation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryKey {
    hi: u64,
    lo: u64,
}

impl EntryKey {
    /// Derives the key for simulating `trace` under the configuration
    /// whose canonical rendering is `sim_key` (the same `Debug` string
    /// the in-process store keys on). Callers keying one trace under
    /// many configurations should hold its [`TraceDigest`] instead.
    #[must_use]
    pub fn of(trace: &PackedTrace, sim_key: &str) -> EntryKey {
        TraceDigest::of(trace).key(sim_key)
    }

    /// The key as the 32-hex-digit entry file stem.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Counter snapshot of one [`PersistStore`], for `BENCH_repro.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounters {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries evicted by the LRU capacity sweep.
    pub evictions: u64,
    /// Corrupt entries moved to quarantine (each also counts a miss).
    pub quarantined: u64,
}

/// The on-disk result store. See the [module docs](self) for the
/// format and guarantees; all methods are safe to call from many
/// threads and many processes at once.
pub struct PersistStore {
    root: PathBuf,
    entries: PathBuf,
    quarantine: PathBuf,
    cap_bytes: u64,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
}

impl PersistStore {
    /// Opens (creating if needed) a store rooted at `dir`. Capacity
    /// comes from `MCL_STORE_CAP_BYTES` when set and parseable,
    /// otherwise [`DEFAULT_CAP_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns the rendered I/O error when the directories cannot be
    /// created.
    pub fn open(dir: &Path) -> Result<PersistStore, String> {
        let cap_bytes = std::env::var("MCL_STORE_CAP_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_CAP_BYTES);
        PersistStore::open_with_cap(dir, cap_bytes)
    }

    /// [`PersistStore::open`] with an explicit capacity in bytes.
    ///
    /// # Errors
    ///
    /// See [`PersistStore::open`].
    pub fn open_with_cap(dir: &Path, cap_bytes: u64) -> Result<PersistStore, String> {
        let root = dir.to_path_buf();
        let entries = root.join("entries");
        let quarantine = root.join("quarantine");
        for d in [&root, &entries, &quarantine] {
            fs::create_dir_all(d)
                .map_err(|e| format!("persistent store: create {}: {e}", d.display()))?;
        }
        Ok(PersistStore {
            root,
            entries,
            quarantine,
            cap_bytes,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path an entry for `key` lives at.
    #[must_use]
    pub fn entry_path(&self, key: &EntryKey) -> PathBuf {
        self.entries.join(format!("{}.bin", key.hex()))
    }

    /// A snapshot of the hit/miss/store/eviction/quarantine counters.
    #[must_use]
    pub fn counters(&self) -> PersistCounters {
        PersistCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of entry files quarantined on disk (scanned, for
    /// self-tests and reports).
    #[must_use]
    pub fn quarantine_len(&self) -> usize {
        fs::read_dir(&self.quarantine).map_or(0, |d| d.filter_map(Result::ok).count())
    }

    /// Loads the result stored under `key`, or `None` when absent or
    /// unusable. A corrupt entry is moved to `quarantine/` and reported
    /// as a miss — corruption is never an error and the caller always
    /// recomputes. A hit refreshes the entry's modification time, which
    /// is the LRU clock.
    #[must_use]
    pub fn load(&self, key: &EntryKey) -> Option<(SimStats, FastForward)> {
        // Disk I/O latency and the hit/miss outcome both land in the
        // flight recording; the span is renamed once the outcome is
        // known and records at drop.
        let mut flight = crate::flight::span("persist", || "load miss".to_owned());
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key) {
            Ok(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = flight.as_mut() {
                    s.rename("load hit");
                }
                // Best-effort LRU touch; a read-only store still serves.
                if let Ok(f) = fs::File::options().append(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(result)
            }
            Err(_) => {
                self.quarantine_entry(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists a result under `key`: encode, write to a temporary
    /// file, fsync, rename into place, then sweep the LRU capacity.
    /// Failures are swallowed — the store is a cache, and a full disk
    /// must not fail the simulation that just succeeded.
    pub fn store(&self, key: &EntryKey, stats: &SimStats, ff: &FastForward) {
        let _flight = crate::flight::span("persist", || "store".to_owned());
        let bytes = encode_entry(key, stats, ff);
        let tmp = self.root.join(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.entry_path(key)));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.evict_to_cap();
    }

    /// Moves a corrupt entry aside for post-mortems (removing it if
    /// even the move fails — it must not be served again either way).
    fn quarantine_entry(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().map_or_else(
            || "entry.bin".into(),
            |n| n.to_string_lossy().into_owned(),
        );
        let mut dest = self.quarantine.join(&name);
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = self.quarantine.join(format!("{name}.{n}"));
        }
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        }
    }

    /// Evicts least-recently-used entries until the store fits its
    /// capacity, under the advisory lock (if another process holds a
    /// fresh lock, the sweep is skipped — it will run on a later
    /// store).
    fn evict_to_cap(&self) {
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total = 0u64;
        let Ok(dir) = fs::read_dir(&self.entries) else { return };
        for entry in dir.filter_map(Result::ok) {
            let Ok(meta) = entry.metadata() else { continue };
            let len = meta.len();
            total += len;
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((entry.path(), len, mtime));
        }
        if total <= self.cap_bytes {
            return;
        }
        let Some(_lock) = EvictionLock::acquire(&self.root) else { return };
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in entries {
            if total <= self.cap_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// RAII advisory lock around the eviction sweep: `create_new` on a
/// lock file serializes cooperating processes, and a lock file older
/// than [`STALE_LOCK`] (a crashed holder) is stolen.
struct EvictionLock {
    path: PathBuf,
}

impl EvictionLock {
    fn acquire(root: &Path) -> Option<EvictionLock> {
        let path = root.join("evict.lock");
        for _ in 0..2 {
            match fs::File::options().write(true).create_new(true).open(&path) {
                Ok(_) => return Some(EvictionLock { path }),
                Err(_) => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                        .is_some_and(|age| age > STALE_LOCK);
                    if !stale {
                        return None;
                    }
                    let _ = fs::remove_file(&path);
                }
            }
        }
        None
    }
}

impl Drop for EvictionLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Encodes one entry: header (magic, version, key echo, payload
/// length, FNV-64 payload checksum) followed by the payload (the
/// statistics wire form, length-prefixed, plus the fast-forward
/// counters).
fn encode_entry(key: &EntryKey, stats: &SimStats, ff: &FastForward) -> Vec<u8> {
    // Exhaustive destructure: adding a `FastForward` field refuses to
    // compile until the entry format (and its version) are updated.
    let FastForward { skipped_cycles, jumps } = *ff;
    let wire = stats.to_wire_bytes();
    let mut payload = Vec::with_capacity(4 + wire.len() + 16);
    payload.extend_from_slice(&u32::try_from(wire.len()).expect("stats wire fits").to_le_bytes());
    payload.extend_from_slice(&wire);
    payload.extend_from_slice(&skipped_cycles.to_le_bytes());
    payload.extend_from_slice(&jumps.to_le_bytes());
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &[&payload]).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes and fully validates one entry read for `key`. Every failure
/// is a quarantine, so the error is just a reason string.
fn decode_entry(bytes: &[u8], key: &EntryKey) -> Result<(SimStats, FastForward), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    if &header[0..8] != MAGIC {
        return Err("bad magic".into());
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != STORE_FORMAT_VERSION {
        return Err(format!("format version {version}, expected {STORE_FORMAT_VERSION}"));
    }
    if (word(12), word(20)) != (key.hi, key.lo) {
        return Err("key echo mismatch".into());
    }
    if word(28) != payload.len() as u64 {
        return Err(format!("payload length {} recorded, {} present", word(28), payload.len()));
    }
    if word(36) != fnv1a(FNV_OFFSET, &[payload]) {
        return Err("payload checksum mismatch".into());
    }
    if payload.len() < 4 {
        return Err("payload too short for stats length".into());
    }
    let stats_len = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let rest = &payload[4..];
    if rest.len() != stats_len + 16 {
        return Err("payload length inconsistent with stats length".into());
    }
    let stats = SimStats::from_wire_bytes(&rest[..stats_len])?;
    let ff = FastForward {
        skipped_cycles: u64::from_le_bytes(rest[stats_len..stats_len + 8].try_into().unwrap()),
        jumps: u64::from_le_bytes(rest[stats_len + 8..].try_into().unwrap()),
    };
    Ok((stats, ff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_core::{Processor, ProcessorConfig};
    use mcl_sched::SchedulerKind;
    use mcl_workloads::Benchmark;

    fn fixture() -> (PackedTrace, SimStats, FastForward, String) {
        let store = crate::TraceStore::new();
        let req = crate::TraceRequest::new(Benchmark::Compress, 20, SchedulerKind::Local);
        let (trace, _) = store.trace(&req).unwrap();
        let config = ProcessorConfig::dual_cluster_8way();
        let result = Processor::new(config.clone()).run_packed(&trace).unwrap();
        ((*trace).clone(), result.stats, result.ff, format!("{config:?}"))
    }

    fn temp_store(tag: &str, cap: u64) -> PersistStore {
        let dir = std::env::temp_dir()
            .join(format!("mcl-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PersistStore::open_with_cap(&dir, cap).unwrap()
    }

    #[test]
    fn round_trips_and_counts() {
        let (trace, stats, ff, sim_key) = fixture();
        let store = temp_store("roundtrip", DEFAULT_CAP_BYTES);
        let key = EntryKey::of(&trace, &sim_key);
        assert_eq!(store.load(&key), None, "cold store misses");
        store.store(&key, &stats, &ff);
        assert_eq!(store.load(&key), Some((stats.clone(), ff)), "warm store serves the result");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores, c.quarantined), (1, 1, 1, 0));
        let _ = fs::remove_dir_all(store.root());
    }

    /// The key derivation as first written: one FNV-1a pass per half
    /// over the fully serialized stream.
    fn reference_key(trace: &PackedTrace, sim_key: &str) -> EntryKey {
        let trace_bytes = trace.to_bytes();
        let chunks: [&[u8]; 4] = [
            &STORE_FORMAT_VERSION.to_le_bytes(),
            &STATS_WIRE_VERSION.to_le_bytes(),
            &trace_bytes,
            sim_key.as_bytes(),
        ];
        EntryKey { hi: fnv1a(FNV_OFFSET, &chunks), lo: fnv1a(FNV_OFFSET_LO, &chunks) }
    }

    fn random_reg(rng: &mut mcl_testutil::Rng) -> Option<mcl_isa::ArchReg> {
        rng.flip().then(|| mcl_isa::ArchReg::from_dense_index(rng.range(0, 64)))
    }

    fn random_trace(rng: &mut mcl_testutil::Rng) -> PackedTrace {
        let len = rng.range(0, 48);
        let ops: Vec<mcl_trace::TraceOp> = (0..len as u64)
            .map(|seq| {
                let mem_addr = rng.flip().then(|| rng.next_u64());
                let branch = (mem_addr.is_none() && rng.flip()).then(|| mcl_trace::BranchInfo {
                    taken: rng.flip(),
                    target_pc: rng.next_u64(),
                    conditional: rng.flip(),
                });
                mcl_trace::TraceOp {
                    seq,
                    pc: rng.next_u64(),
                    op: *rng.pick(mcl_isa::Opcode::all()),
                    dest: random_reg(rng),
                    srcs: [random_reg(rng), random_reg(rng)],
                    mem_addr,
                    branch,
                    sched_inserted: rng.flip(),
                }
            })
            .collect();
        PackedTrace::from_ops(&ops)
    }

    /// Any change to key derivation orphans every existing store, so
    /// the key of a fixed trace and configuration string is pinned to
    /// the value the derivation produces at the current
    /// [`STORE_FORMAT_VERSION`].
    #[test]
    fn key_derivation_is_pinned_to_golden_hex() {
        use mcl_isa::{ArchReg, Opcode};
        use mcl_trace::{BranchInfo, TraceOp};
        let ops = [
            TraceOp {
                seq: 0,
                pc: 0x1000,
                op: Opcode::Ldt,
                dest: Some(ArchReg::fp(7)),
                srcs: [Some(ArchReg::int(30)), None],
                mem_addr: Some(0x9008),
                branch: None,
                sched_inserted: true,
            },
            TraceOp {
                seq: 1,
                pc: 0x1004,
                op: Opcode::Bne,
                dest: None,
                srcs: [Some(ArchReg::int(5)), None],
                mem_addr: None,
                branch: Some(BranchInfo { taken: true, target_pc: 0x1000, conditional: true }),
                sched_inserted: false,
            },
        ];
        let trace = PackedTrace::from_ops(&ops);
        let key = EntryKey::of(&trace, "ProcessorConfig { clusters: 2, width: 8 }");
        assert_eq!(key.hex(), "3cb5b379389086ff9c42b3791945e978");
        assert_eq!(EntryKey::of(&PackedTrace::new(), "").hex(), "46c2da3be7c311767cd968bcbddc7603");
    }

    /// The one-pass, reusable digest derives exactly the reference key,
    /// for random traces (the empty one included) and configurations.
    #[test]
    fn digest_keys_equal_the_reference_derivation() {
        mcl_testutil::check_cases(128, |rng| {
            let trace = if rng.below(8) == 0 { PackedTrace::new() } else { random_trace(rng) };
            let digest = TraceDigest::of(&trace);
            for _ in 0..3 {
                let sim_key: String =
                    rng.vec_in(0, 40, |r| char::from(b' ' + r.below(95) as u8)).into_iter().collect();
                assert_eq!(digest.key(&sim_key), reference_key(&trace, &sim_key));
                assert_eq!(EntryKey::of(&trace, &sim_key), reference_key(&trace, &sim_key));
            }
        });
    }

    #[test]
    fn distinct_configs_and_traces_get_distinct_keys() {
        let (trace, _, _, sim_key) = fixture();
        let single = format!("{:?}", ProcessorConfig::single_cluster_8way());
        assert_ne!(EntryKey::of(&trace, &sim_key), EntryKey::of(&trace, &single));
        let store = crate::TraceStore::new();
        let other = crate::TraceRequest::new(Benchmark::Compress, 30, SchedulerKind::Local);
        let (other_trace, _) = store.trace(&other).unwrap();
        assert_ne!(EntryKey::of(&trace, &sim_key), EntryKey::of(&other_trace, &sim_key));
    }

    /// The bit-flip property: flipping ANY single bit of a stored entry
    /// must read back as a quarantined miss — never a different result,
    /// never a panic — and a recompute-and-restore must serve the
    /// original statistics again.
    #[test]
    fn any_single_bit_flip_quarantines_and_recomputes() {
        let (trace, stats, ff, sim_key) = fixture();
        let store = temp_store("bitflip", DEFAULT_CAP_BYTES);
        let key = EntryKey::of(&trace, &sim_key);
        store.store(&key, &stats, &ff);
        let path = store.entry_path(&key);
        let pristine = fs::read(&path).unwrap();
        let mut flipped = 0u64;
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[byte] ^= 1 << bit;
                fs::write(&path, &corrupt).unwrap();
                assert_eq!(
                    store.load(&key),
                    None,
                    "flip of byte {byte} bit {bit} must not be served"
                );
                assert!(!path.exists(), "corrupt entry must leave the entries directory");
                flipped += 1;
                // The caller's contract: recompute and restore.
                store.store(&key, &stats, &ff);
                assert_eq!(store.load(&key), Some((stats.clone(), ff)));
            }
        }
        let c = store.counters();
        assert_eq!(c.quarantined, flipped, "every flip quarantined");
        assert_eq!(c.misses, flipped, "every flip recomputed");
        assert_eq!(store.quarantine_len(), flipped as usize);
        let _ = fs::remove_dir_all(store.root());
    }

    /// Random multi-fault corruption (truncations, random tail garbage,
    /// random byte stomps) on top of the exhaustive single-bit sweep.
    #[test]
    fn random_corruption_quarantines() {
        let (trace, stats, ff, sim_key) = fixture();
        let store = temp_store("fuzz", DEFAULT_CAP_BYTES);
        let key = EntryKey::of(&trace, &sim_key);
        store.store(&key, &stats, &ff);
        let path = store.entry_path(&key);
        let pristine = fs::read(&path).unwrap();
        mcl_testutil::check_cases(64, |rng| {
            let mut corrupt = pristine.clone();
            match rng.range(0, 3) {
                0 => corrupt.truncate(rng.range(0, corrupt.len())),
                1 => corrupt.extend((0..rng.range(1, 64)).map(|_| rng.next_u64() as u8)),
                _ => {
                    for _ in 0..rng.range(1, 16) {
                        let at = rng.range(0, corrupt.len());
                        corrupt[at] = rng.next_u64() as u8;
                    }
                }
            }
            if corrupt == pristine {
                return; // a stomp can rewrite a byte to itself
            }
            fs::write(&path, &corrupt).unwrap();
            assert_eq!(store.load(&key), None);
            store.store(&key, &stats, &ff);
            assert_eq!(store.load(&key), Some((stats.clone(), ff)));
        });
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn lru_eviction_keeps_the_store_bounded_and_prefers_recent_entries() {
        let (trace, stats, ff, sim_key) = fixture();
        // Entries are ~350 bytes; cap at ~3 entries' worth.
        let store = temp_store("evict", 1100);
        let keys: Vec<EntryKey> = (0..8)
            .map(|i| EntryKey::of(&trace, &format!("{sim_key}|v{i}")))
            .collect();
        for key in &keys {
            store.store(key, &stats, &ff);
            // Distinct mtimes so LRU order is well defined.
            std::thread::sleep(Duration::from_millis(20));
        }
        let on_disk: Vec<bool> = keys.iter().map(|k| store.entry_path(k).exists()).collect();
        assert!(store.counters().evictions > 0, "the sweep ran");
        assert!(
            *on_disk.last().unwrap(),
            "the most recently stored entry survives"
        );
        assert!(!on_disk[0], "the oldest entry is evicted first");
        let total: u64 = fs::read_dir(store.entry_path(&keys[0]).parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok().map(|m| m.len()))
            .sum();
        assert!(total <= 1100, "store stays within its capacity, got {total}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_eviction_lock_is_stolen() {
        let store = temp_store("lock", DEFAULT_CAP_BYTES);
        let lock = store.root().join("evict.lock");
        fs::write(&lock, b"").unwrap();
        let old = SystemTime::now() - Duration::from_secs(600);
        fs::File::options().append(true).open(&lock).unwrap().set_modified(old).unwrap();
        assert!(EvictionLock::acquire(store.root()).is_some(), "stale lock must be stolen");
        let fresh = EvictionLock::acquire(store.root()).unwrap();
        assert!(EvictionLock::acquire(store.root()).is_none(), "held lock blocks");
        drop(fresh);
        assert!(EvictionLock::acquire(store.root()).is_some(), "dropped lock frees");
        let _ = fs::remove_dir_all(store.root());
    }
}
