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
//!   hash over the store format version, the statistics wire version,
//!   the trace's 16-byte content digest ([`PackedTrace::digest`], taken
//!   once when the trace is packed; [`TraceDigest`]) and the
//!   configuration's canonical rendering. Any change to the trace, the
//!   configuration, or either serialization format changes the key;
//!   stale entries are simply never addressed again.
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
//! - **A request tier in front.** A second, tiny kind of entry maps a
//!   normalized trace *request* to the [`TraceDigest`] of the trace it
//!   builds, so a warm run can address results without building any
//!   trace. Its key covers a fingerprint of the running executable
//!   ([`PersistStore::request_key`]): any other binary misses the tier
//!   and falls back to the content-addressed path, which stays the
//!   source of truth. Request entries share the header, checksum,
//!   quarantine and LRU rules above, and count in their own counters.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime};

use mcl_core::{FastForward, SimStats, STATS_WIRE_VERSION};
use mcl_trace::PackedTrace;

use crate::flight::SpanGuard;

/// Version of the on-disk entry format. Bump on any layout change, and
/// whenever the `Debug` rendering of `ProcessorConfig` changes (it is
/// the configuration half of every key) — the version participates in
/// both the content key (old entries are not addressed) and the header
/// check (old entries quarantine if a key collides anyway). Version 2:
/// the configuration lost its `engine` field. Version 3: it lost its
/// run options (`max_cycles`, `record_events`, `check_level`,
/// `wedge_threshold`, `faults`), so it renders the machine only.
/// Version 4: keys hash the trace's content digest, not its wire bytes.
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Magic tag opening every result entry file.
const MAGIC: &[u8; 8] = b"MCLSTOR1";

/// Magic tag opening every request entry file.
const REQUEST_MAGIC: &[u8; 8] = b"MCLREQS1";

/// Domain tag opening every request key's hash stream, so a request
/// key never collides with a result key by construction.
const REQUEST_TAG: &[u8] = b"mcl-request-tier\0";

/// Entry header (both kinds): magic, format version, key echo, payload
/// length, payload checksum.
const HEADER_LEN: usize = 8 + 4 + 16 + 8 + 8;

/// Default store capacity when `MCL_STORE_CAP_BYTES` is unset.
pub const DEFAULT_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// The environment variable overriding the store capacity (bytes).
const CAP_VAR: &str = "MCL_STORE_CAP_BYTES";

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

/// Two FNV-1a-64 chains over one byte stream, from independent bases:
/// the 128-bit hash behind every key of the store.
struct Fnv128 {
    hi: u64,
    lo: u64,
}

impl Fnv128 {
    const fn new() -> Fnv128 {
        Fnv128 { hi: FNV_OFFSET, lo: FNV_OFFSET_LO }
    }

    /// Feeds both halves in one pass (two independent multiply chains
    /// per byte).
    fn absorb(&mut self, bytes: &[u8]) {
        let (mut hi, mut lo) = (self.hi, self.lo);
        for &byte in bytes {
            hi = (hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            lo = (lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        (self.hi, self.lo) = (hi, lo);
    }

    fn key(self) -> EntryKey {
        EntryKey { hi: self.hi, lo: self.lo }
    }
}

/// A trace's identity: its 128-bit content digest
/// ([`PackedTrace::digest`]). The trace store takes it once, when it
/// packs the trace, and keys its simulation memo, its content pool and
/// every [`EntryKey`] of the trace on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceDigest(u128);

impl TraceDigest {
    /// Digests `trace` (one pass over its records).
    #[must_use]
    pub fn of(trace: &PackedTrace) -> TraceDigest {
        TraceDigest(trace.digest())
    }

    /// The key for simulating the digested trace under the
    /// configuration whose canonical rendering is `sim_key`.
    #[must_use]
    pub fn key(self, sim_key: &str) -> EntryKey {
        let mut hash = Fnv128::new();
        hash.absorb(&STORE_FORMAT_VERSION.to_le_bytes());
        hash.absorb(&STATS_WIRE_VERSION.to_le_bytes());
        hash.absorb(&self.0.to_le_bytes());
        hash.absorb(sim_key.as_bytes());
        hash.key()
    }
}

/// The FNV-128 of the running executable's bytes, read and hashed once
/// per process on first use; `None` when the executable cannot be read
/// (that process simply has no request tier).
fn exe_fingerprint() -> Option<u128> {
    static FINGERPRINT: OnceLock<Option<u128>> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| std::env::current_exe().and_then(file_fingerprint).ok())
}

/// The FNV-128 of a file's bytes, streamed through a fixed buffer so
/// hashing a multi-megabyte executable never holds it in memory. FNV is
/// sequential, so the hash equals one [`Fnv128::absorb`] of the whole
/// file.
fn file_fingerprint(path: impl AsRef<Path>) -> std::io::Result<u128> {
    let mut file = fs::File::open(path)?;
    let mut buf = [0u8; 64 << 10];
    let mut hash = Fnv128::new();
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(u128::from(hash.hi) << 64 | u128::from(hash.lo)),
            Ok(n) => hash.absorb(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The store capacity `MCL_STORE_CAP_BYTES` asks for: the default when
/// unset, an error naming the variable when it is not a byte count.
fn cap_from_env(value: Result<String, std::env::VarError>) -> Result<u64, String> {
    match value {
        Err(std::env::VarError::NotPresent) => Ok(DEFAULT_CAP_BYTES),
        Ok(v) => v.parse().map_err(|_| format!("invalid {CAP_VAR} value `{v}`")),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("invalid {CAP_VAR} value `{}`", v.to_string_lossy()))
        }
    }
}

/// The 128-bit address of one entry: a simulation result's content
/// key, or a request key ([`PersistStore::request_key`]).
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
    /// Corrupt entries moved to quarantine (each also counts a miss of
    /// its tier).
    pub quarantined: u64,
    /// Request-tier loads that named a trace digest.
    pub request_hits: u64,
    /// Request-tier loads that found no (usable) entry.
    pub request_misses: u64,
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
    request_hits: AtomicU64,
    request_misses: AtomicU64,
    /// The code fingerprint request keys cover; set on first use.
    fingerprint: OnceLock<Option<u128>>,
}

impl PersistStore {
    /// Opens (creating if needed) a store rooted at `dir`. Capacity
    /// comes from `MCL_STORE_CAP_BYTES` when set, otherwise
    /// [`DEFAULT_CAP_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns the rendered I/O error when the directories cannot be
    /// created, and an error naming `MCL_STORE_CAP_BYTES` when it is
    /// set but not a byte count.
    pub fn open(dir: &Path) -> Result<PersistStore, String> {
        let cap_bytes = cap_from_env(std::env::var(CAP_VAR))?;
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
            request_hits: AtomicU64::new(0),
            request_misses: AtomicU64::new(0),
            fingerprint: OnceLock::new(),
        })
    }

    /// Pins the code fingerprint request keys cover, instead of the
    /// running executable's — a store "filled by another binary".
    #[cfg(test)]
    pub(crate) fn with_fingerprint(self, fingerprint: u128) -> PersistStore {
        let _ = self.fingerprint.set(Some(fingerprint));
        self
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

    /// The on-disk path a request entry for `key` lives at (in the same
    /// directory, so the LRU capacity covers both kinds).
    #[must_use]
    pub fn request_path(&self, key: &EntryKey) -> PathBuf {
        self.entries.join(format!("{}.req", key.hex()))
    }

    /// The request-tier key of a normalized trace request, `request`
    /// being its canonical byte rendering: a domain-separated FNV-128
    /// over a tag, [`STORE_FORMAT_VERSION`], the running executable's
    /// fingerprint and `request`. `None` when the executable cannot be
    /// read — the tier is then off for this process.
    #[must_use]
    pub fn request_key(&self, request: &[u8]) -> Option<EntryKey> {
        let fingerprint = (*self.fingerprint.get_or_init(|| {
            let _flight = crate::flight::span("persist.key", || "fingerprint".to_owned());
            exe_fingerprint()
        }))?;
        let mut hash = Fnv128::new();
        hash.absorb(REQUEST_TAG);
        hash.absorb(&STORE_FORMAT_VERSION.to_le_bytes());
        hash.absorb(&fingerprint.to_le_bytes());
        hash.absorb(request);
        Some(hash.key())
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
            request_hits: self.request_hits.load(Ordering::Relaxed),
            request_misses: self.request_misses.load(Ordering::Relaxed),
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
        let mut flight = crate::flight::span("persist.load", || "load miss".to_owned());
        let result = self.read_entry(&self.entry_path(key), |bytes| decode_entry(bytes, key));
        count_load(result.is_some(), [&self.hits, &self.misses], &mut flight, "load hit");
        result
    }

    /// Loads the trace digest a request entry names, under the same
    /// rules as [`PersistStore::load`], counted as a request hit or
    /// miss.
    #[must_use]
    pub fn load_request(&self, key: &EntryKey) -> Option<TraceDigest> {
        let mut flight = crate::flight::span("persist.load", || "request miss".to_owned());
        let result =
            self.read_entry(&self.request_path(key), |bytes| decode_request(bytes, key));
        let counters = [&self.request_hits, &self.request_misses];
        count_load(result.is_some(), counters, &mut flight, "request hit");
        result
    }

    /// Reads and decodes the entry at `path`: `None` when absent, and
    /// also when corrupt, after quarantining it. A decoded entry gets
    /// its modification time refreshed.
    fn read_entry<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Option<T> {
        let bytes = fs::read(path).ok()?;
        match decode(&bytes) {
            Ok(result) => {
                // Best-effort LRU touch; a read-only store still serves.
                if let Ok(f) = fs::File::options().append(true).open(path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(result)
            }
            Err(_) => {
                self.quarantine_entry(path);
                None
            }
        }
    }

    /// Persists a result under `key`: encode, write to a temporary
    /// file, fsync, rename into place, then sweep the LRU capacity.
    /// Failures are swallowed — the store is a cache, and a full disk
    /// must not fail the simulation that just succeeded.
    pub fn store(&self, key: &EntryKey, stats: &SimStats, ff: &FastForward) {
        let _flight = crate::flight::span("persist.store", || "store".to_owned());
        if self.write_entry(&self.entry_path(key), &encode_entry(key, stats, ff)) {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Persists a request entry naming `digest` under `key`, like
    /// [`PersistStore::store`] (but not counted among its stores).
    pub fn store_request(&self, key: &EntryKey, digest: &TraceDigest) {
        let _flight = crate::flight::span("persist.store", || "store request".to_owned());
        self.write_entry(&self.request_path(key), &encode_request(key, digest));
    }

    /// Writes `bytes` to `path` atomically and sweeps the capacity;
    /// returns whether the entry landed.
    fn write_entry(&self, path: &Path, bytes: &[u8]) -> bool {
        let tmp = self.root.join(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        self.evict_to_cap();
        true
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

/// Counts one load as a hit or a miss (`[hits, misses]`), renaming its
/// flight span on a hit.
fn count_load(
    hit: bool,
    [hits, misses]: [&AtomicU64; 2],
    flight: &mut Option<SpanGuard>,
    hit_name: &str,
) {
    if hit {
        hits.fetch_add(1, Ordering::Relaxed);
        if let Some(span) = flight.as_mut() {
            span.rename(hit_name);
        }
    } else {
        misses.fetch_add(1, Ordering::Relaxed);
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

/// Frames one entry: header (magic, version, key echo, payload length,
/// FNV-64 payload checksum) followed by the payload.
fn encode_frame(magic: &[u8; 8], key: &EntryKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &[payload]).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates one entry's frame as read for `key` and returns its
/// payload. Every failure is a quarantine, so the error is just a
/// reason string.
fn decode_frame<'a>(
    magic: &[u8; 8],
    bytes: &'a [u8],
    key: &EntryKey,
) -> Result<&'a [u8], String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    if &header[0..8] != magic {
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
    Ok(payload)
}

/// Encodes one result entry: the statistics wire form, length-prefixed,
/// plus the fast-forward counters, framed.
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
    encode_frame(MAGIC, key, &payload)
}

/// Decodes and fully validates one result entry read for `key`.
fn decode_entry(bytes: &[u8], key: &EntryKey) -> Result<(SimStats, FastForward), String> {
    let payload = decode_frame(MAGIC, bytes, key)?;
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

/// Encodes one request entry: the named digest, framed.
fn encode_request(key: &EntryKey, digest: &TraceDigest) -> Vec<u8> {
    encode_frame(REQUEST_MAGIC, key, &digest.0.to_le_bytes())
}

/// Decodes and fully validates one request entry read for `key`.
fn decode_request(bytes: &[u8], key: &EntryKey) -> Result<TraceDigest, String> {
    let payload = decode_frame(REQUEST_MAGIC, bytes, key)?;
    let payload: [u8; 16] = payload
        .try_into()
        .map_err(|_| format!("request payload is {} bytes, expected 16", payload.len()))?;
    Ok(TraceDigest(u128::from_le_bytes(payload)))
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
        let trace = store.trace(&req).unwrap();
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
    fn streamed_file_fingerprint_equals_the_one_shot_hash() {
        // Two and a half buffers and a few bytes: full reads, a partial
        // one, then end of file.
        let mut rng = mcl_testutil::Rng::new(7);
        let bytes: Vec<u8> = (0..(5 << 15) + 13).map(|_| rng.next_u64() as u8).collect();
        let path = std::env::temp_dir()
            .join(format!("mcl-persist-fingerprint-{}", std::process::id()));
        fs::write(&path, &bytes).unwrap();
        let mut one_shot = Fnv128::new();
        one_shot.absorb(&fs::read(&path).unwrap());
        let want = u128::from(one_shot.hi) << 64 | u128::from(one_shot.lo);
        assert_eq!(file_fingerprint(&path).unwrap(), want);
        let _ = fs::remove_file(&path);
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

    /// The key derivation spelled out: one FNV-1a pass per half over
    /// the versions, the trace's digest and the configuration.
    fn reference_key(trace: &PackedTrace, sim_key: &str) -> EntryKey {
        let chunks: [&[u8]; 4] = [
            &STORE_FORMAT_VERSION.to_le_bytes(),
            &STATS_WIRE_VERSION.to_le_bytes(),
            &trace.digest().to_le_bytes(),
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
        assert_eq!(key.hex(), "7ebbb743111d231baf8f1b067fc83ad8");
        assert_eq!(EntryKey::of(&PackedTrace::new(), "").hex(), "0506df05e25d00b066cbfd60421d1385");
    }

    /// The reusable digest derives exactly the reference key, for random
    /// traces (the empty one included) and configurations.
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
        let other_trace = store.trace(&other).unwrap();
        assert_ne!(EntryKey::of(&trace, &sim_key), EntryKey::of(&other_trace, &sim_key));
    }

    /// One stored entry of either kind — a result, or a request naming
    /// the fixture trace's digest — with the load and restore a caller
    /// runs on it.
    struct Stored {
        store: PersistStore,
        key: EntryKey,
        request: Option<TraceDigest>,
        result: (SimStats, FastForward),
    }

    impl Stored {
        fn new(tag: &str, request: bool) -> Stored {
            let (trace, stats, ff, sim_key) = fixture();
            let store = temp_store(tag, DEFAULT_CAP_BYTES).with_fingerprint(7);
            let (key, request) = if request {
                (store.request_key(b"compress").unwrap(), Some(TraceDigest::of(&trace)))
            } else {
                (EntryKey::of(&trace, &sim_key), None)
            };
            let stored = Stored { store, key, request, result: (stats, ff) };
            stored.restore();
            stored
        }

        fn path(&self) -> PathBuf {
            match self.request {
                Some(_) => self.store.request_path(&self.key),
                None => self.store.entry_path(&self.key),
            }
        }

        /// Whether the entry loaded back intact; `None` on a miss.
        fn load(&self) -> Option<bool> {
            match self.request {
                Some(digest) => self.store.load_request(&self.key).map(|d| d == digest),
                None => self.store.load(&self.key).map(|r| r == self.result),
            }
        }

        /// The caller's contract after a miss: recompute and restore.
        fn restore(&self) {
            match &self.request {
                Some(digest) => self.store.store_request(&self.key, digest),
                None => self.store.store(&self.key, &self.result.0, &self.result.1),
            }
        }

        /// Misses of this entry's tier; the other tier must see none.
        fn misses(&self) -> u64 {
            let c = self.store.counters();
            match self.request {
                Some(_) => {
                    assert_eq!((c.hits, c.misses), (0, 0), "request loads are not result loads");
                    c.request_misses
                }
                None => {
                    assert_eq!((c.request_hits, c.request_misses), (0, 0));
                    c.misses
                }
            }
        }
    }

    /// The bit-flip property: flipping ANY single bit of a stored entry
    /// of either kind must read back as a quarantined miss — never a
    /// different result or digest, never a panic — and a
    /// recompute-and-restore must serve the original again.
    #[test]
    fn any_single_bit_flip_quarantines_and_recomputes() {
        for (tag, request) in [("bitflip", false), ("bitflip-request", true)] {
            let entry = Stored::new(tag, request);
            let path = entry.path();
            let pristine = fs::read(&path).unwrap();
            let mut flipped = 0u64;
            for byte in 0..pristine.len() {
                for bit in 0..8 {
                    let mut corrupt = pristine.clone();
                    corrupt[byte] ^= 1 << bit;
                    fs::write(&path, &corrupt).unwrap();
                    assert_eq!(entry.load(), None, "{tag}: flip of byte {byte} bit {bit} served");
                    assert!(!path.exists(), "corrupt entry must leave the entries directory");
                    flipped += 1;
                    entry.restore();
                    assert_eq!(entry.load(), Some(true));
                }
            }
            let quarantined = entry.store.counters().quarantined;
            assert_eq!(quarantined, flipped, "{tag}: every flip quarantined");
            assert_eq!(entry.misses(), flipped, "{tag}: every flip recomputed");
            assert_eq!(entry.store.quarantine_len(), flipped as usize);
            let _ = fs::remove_dir_all(entry.store.root());
        }
    }

    /// Random multi-fault corruption (truncations, random tail garbage,
    /// random byte stomps) of either kind of entry, on top of the
    /// exhaustive single-bit sweep.
    #[test]
    fn random_corruption_quarantines() {
        for (tag, request) in [("fuzz", false), ("fuzz-request", true)] {
            let entry = Stored::new(tag, request);
            let path = entry.path();
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
                assert_eq!(entry.load(), None, "{tag}");
                entry.restore();
                assert_eq!(entry.load(), Some(true), "{tag}");
            });
            let _ = fs::remove_dir_all(entry.store.root());
        }
    }

    #[test]
    fn request_keys_cover_the_fingerprint_and_the_request() {
        let store = temp_store("request-key", DEFAULT_CAP_BYTES);
        let key = |fingerprint: u128, request: &[u8]| {
            let store = PersistStore::open_with_cap(store.root(), DEFAULT_CAP_BYTES)
                .unwrap()
                .with_fingerprint(fingerprint);
            store.request_key(request).unwrap()
        };
        assert_eq!(key(1, b"compress"), key(1, b"compress"));
        assert_ne!(key(1, b"compress"), key(2, b"compress"), "another binary, another key");
        assert_ne!(key(1, b"compress"), key(1, b"doduc"));
        // The running executable is readable here, so the tier is on.
        assert!(store.request_key(b"compress").is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_capacity_variable_must_be_a_byte_count() {
        use std::env::VarError;
        assert_eq!(cap_from_env(Err(VarError::NotPresent)), Ok(DEFAULT_CAP_BYTES));
        assert_eq!(cap_from_env(Ok("4096".into())), Ok(4096));
        for bad in ["abc", "", "-1", "1.5", "64MiB"] {
            let err = cap_from_env(Ok(bad.into())).unwrap_err();
            assert!(err.contains(&format!("MCL_STORE_CAP_BYTES value `{bad}`")), "{err}");
        }
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
