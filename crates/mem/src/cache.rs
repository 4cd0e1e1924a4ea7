//! Set-associative caches with timing.


use crate::mshr::{InvertedMshr, MshrStats};

/// Geometry and timing of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (a power of two).
    pub line_bytes: usize,
    /// Fill latency from the next memory level, in cycles (the paper's
    /// memory interface: 16 cycles, unlimited bandwidth).
    pub miss_latency: u64,
}

impl CacheConfig {
    /// The paper's level-one cache: 64 KB, two-way set associative, with
    /// the 16-cycle memory interface. Line size is 32 bytes (the paper
    /// does not state one; 32 bytes matches the 21064/21164 era on-chip
    /// caches of the authors' testbed machines).
    #[must_use]
    pub fn paper_l1() -> CacheConfig {
        CacheConfig { size_bytes: 64 * 1024, assoc: 2, line_bytes: 32, miss_latency: 16 }
    }

    /// The number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, a non-power-of-
    /// two line size, or a capacity not divisible by `assoc × line`).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes > 0, "bad line size");
        assert!(self.assoc > 0, "associativity must be positive");
        let way_bytes = self.assoc * self.line_bytes;
        assert!(
            self.size_bytes > 0 && self.size_bytes.is_multiple_of(way_bytes),
            "capacity must be a multiple of assoc × line"
        );
        let sets = self.size_bytes / way_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line is present and filled: data available at the cache's hit
    /// latency (accounted by the caller).
    Hit,
    /// The line is absent or still being filled.
    Miss {
        /// The cycle the line's data becomes available.
        ready_at: u64,
        /// Whether this miss merged into an already-outstanding fill for
        /// the same line (a *secondary* miss in MSHR terms).
        merged: bool,
    },
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit a filled line.
    pub hits: u64,
    /// Primary misses (fills initiated).
    pub misses: u64,
    /// Secondary misses (merged into an outstanding fill).
    pub merged_misses: u64,
    /// Valid lines evicted to make room for fills.
    pub evictions: u64,
}

impl CacheStats {
    /// The miss rate counting both primary and merged misses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.misses + self.merged_misses) as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// Cycle at which the fill completes (0 for long-filled lines).
    ready_at: u64,
    /// LRU stamp: larger = more recently used.
    lru: u64,
}

/// A non-blocking, set-associative cache with LRU replacement and an
/// [`InvertedMshr`] tracking outstanding fills.
///
/// The cache is a *timing* model, not a data store: the program's values
/// live in the VM's memory; the cache answers "when is this access's data
/// available?". Writes allocate on miss (write-allocate) and, per the
/// paper's unlimited-bandwidth memory interface, write-backs of dirty
/// victims cost no modelled time.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`, `log2(sets)` and `sets - 1`: the geometry is
    /// all powers of two, so indexing is shifts and masks.
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    sets: Vec<Vec<Line>>,
    mshr: InvertedMshr,
    stats: CacheStats,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; see [`CacheConfig::sets`].
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let line = Line { tag: 0, valid: false, ready_at: 0, lru: 0 };
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            sets: vec![vec![line; config.assoc]; sets],
            mshr: InvertedMshr::new(),
            stats: CacheStats::default(),
            stamp: 0,
        }
    }

    /// Accesses `addr` at cycle `now`. `is_write` is used only for
    /// statistics symmetry (write-allocate makes reads and writes behave
    /// identically for timing).
    pub fn access(&mut self, addr: u64, now: u64, is_write: bool) -> Access {
        let _ = is_write;
        self.stats.accesses += 1;
        self.stamp += 1;
        let (set_idx, tag) = self.index(addr);
        let line_addr = addr & !(self.config.line_bytes as u64 - 1);
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[way].lru = self.stamp;
            if set[way].ready_at <= now {
                self.stats.hits += 1;
                return Access::Hit;
            }
            // Line allocated but still filling: secondary miss merges
            // into the outstanding fill (same completion time).
            let (ready_at, merged) = self.mshr.miss(line_addr, now, self.config.miss_latency);
            debug_assert!(merged, "a filling line must have an outstanding MSHR fill");
            debug_assert_eq!(ready_at, set[way].ready_at);
            self.stats.merged_misses += 1;
            return Access::Miss { ready_at, merged: true };
        }

        // Primary miss: allocate the LRU way. If the line was evicted
        // while its previous fill was still in flight, the inverted MSHR
        // still tracks that fill and the new request merges with it.
        let victim = (0..set.len()).min_by_key(|&w| set[w].lru).expect("assoc > 0");
        if set[victim].valid {
            self.stats.evictions += 1;
        }
        let (ready_at, merged) = self.mshr.miss(line_addr, now, self.config.miss_latency);
        set[victim] = Line { tag, valid: true, ready_at, lru: self.stamp };
        if merged {
            self.stats.merged_misses += 1;
        } else {
            self.stats.misses += 1;
        }
        Access::Miss { ready_at, merged }
    }

    /// Records `n` repeated hit accesses to `addr` in one step, leaving
    /// the cache in exactly the state `n` sequential [`Cache::access`]
    /// hits would: `n` accesses, `n` hits, and the line's LRU stamp at
    /// the final access. The event-driven engine uses this to replicate
    /// the per-cycle fetch probe of a span of dispatch-stalled cycles
    /// it fast-forwards over.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s line is not resident — the caller must have
    /// established the hit (e.g. via [`Cache::probe`]) first.
    pub fn record_repeat_hits(&mut self, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (set_idx, tag) = self.index(addr);
        self.stats.accesses += n;
        self.stats.hits += n;
        self.stamp += n;
        let stamp = self.stamp;
        let set = &mut self.sets[set_idx];
        let way = set
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .expect("record_repeat_hits requires a resident line");
        set[way].lru = stamp;
    }

    /// Whether `addr`'s line is present and filled at cycle `now`,
    /// without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64, now: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag && l.ready_at <= now)
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Statistics of the underlying MSHR.
    #[must_use]
    pub fn mshr_stats(&self) -> MshrStats {
        self.mshr.stats()
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Invalidates every line and clears statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for line in set {
                line.valid = false;
                line.ready_at = 0;
                line.lru = 0;
            }
        }
        self.mshr = InvertedMshr::new();
        self.stats = CacheStats::default();
        self.stamp = 0;
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 32-byte lines = 256 bytes.
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 32, miss_latency: 16 })
    }

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper_l1();
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.miss_latency, 16);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(matches!(c.access(0x100, 0, false), Access::Miss { ready_at: 16, merged: false }));
        assert!(matches!(c.access(0x100, 20, false), Access::Hit));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn access_during_fill_is_a_merged_miss() {
        let mut c = small_cache();
        c.access(0x100, 0, false);
        match c.access(0x108, 5, false) {
            Access::Miss { ready_at, merged } => {
                assert_eq!(ready_at, 16);
                assert!(merged);
            }
            Access::Hit => panic!("line is still filling"),
        }
        assert_eq!(c.stats().merged_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines × 32B = 128B).
        let (a, b, d) = (0x000, 0x080, 0x100);
        c.access(a, 0, false);
        c.access(b, 20, false);
        // Touch `a` so `b` becomes LRU.
        c.access(a, 40, false);
        c.access(d, 60, false); // evicts b
        assert!(c.probe(a, 100));
        assert!(!c.probe(b, 100));
        assert!(c.probe(d, 100));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache();
        for i in 0..4u64 {
            c.access(i * 32, 0, false);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 32, 100), "line {i} should still be resident");
        }
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn writes_allocate() {
        let mut c = small_cache();
        assert!(matches!(c.access(0x40, 0, true), Access::Miss { .. }));
        assert!(matches!(c.access(0x40, 20, false), Access::Hit));
    }

    #[test]
    fn miss_rate_counts_all_misses() {
        let mut c = small_cache();
        c.access(0x000, 0, false);
        c.access(0x008, 0, false); // merged
        c.access(0x000, 100, false); // hit
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = small_cache();
        c.access(0x100, 0, false);
        c.reset();
        assert!(!c.probe(0x100, 100));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small_cache();
        let (a, b, d) = (0x000, 0x080, 0x100);
        c.access(a, 0, false);
        c.access(b, 20, false);
        // Probing `a` must NOT refresh it; `a` stays LRU and is evicted.
        assert!(c.probe(a, 40));
        c.access(d, 60, false);
        assert!(!c.probe(a, 100));
        assert!(c.probe(b, 100));
    }

    #[test]
    fn repeat_hits_match_sequential_accesses() {
        let mut a = small_cache();
        let mut b = small_cache();
        a.access(0x100, 0, false);
        b.access(0x100, 0, false);
        for now in 20..25 {
            a.access(0x100, now, false);
        }
        b.record_repeat_hits(0x100, 5);
        assert_eq!(a.stats(), b.stats());
        // The LRU stamps must agree too: a conflicting fill evicts the
        // same victim in both.
        a.access(0x180, 30, false);
        b.access(0x180, 30, false);
        a.access(0x200, 40, false);
        b.access(0x200, 40, false);
        for addr in [0x100u64, 0x180, 0x200] {
            assert_eq!(a.probe(addr, 100), b.probe(addr, 100), "addr {addr:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be a multiple")]
    fn inconsistent_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            assoc: 2,
            line_bytes: 32,
            miss_latency: 16,
        });
    }
}
