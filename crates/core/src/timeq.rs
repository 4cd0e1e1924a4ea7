//! The simulation engine's event queues.
//!
//! The simulator schedules everything it knows about the future —
//! completion events, transfer-buffer credit returns, branch
//! resolutions, wake checks, ready-queue entries — at absolute cycles.
//! Three queues hold them:
//!
//! - [`TimeQ`], the general ordered queue (branch resolutions, wake
//!   checks);
//! - [`LaneQ`], a [`TimeQ`] whose entries due by the next drain skip
//!   the wheel, for consumers indifferent to drain order (ready-queue
//!   entries, transfer-buffer credits);
//! - [`CompletionQ`], completion events bucketed by cycle, read only
//!   for the earliest live one.
//!
//! [`TimeQ`] stores its events in a 1024-slot time wheel indexed by
//! `cycle % 1024`, with a two-level occupancy bitmap (16 slot words
//! under one summary word) so the earliest occupied slot is found with
//! a handful of `trailing_zeros` instructions, in O(1). Events beyond
//! the wheel horizon wait in a small overflow heap and are re-folded
//! into the wheel as the base advances.
//!
//! # Ordering
//!
//! [`TimeQ::pop_due`] yields due entries sorted by `(cycle, key, tick)`
//! where `tick` is a per-queue insertion counter: same-cycle entries
//! drain in key order, and exact duplicates in insertion order. This
//! reproduces the pop order of the `BinaryHeap<Reverse<(cycle, key)>>`
//! formulation the engine used before, which is what keeps
//! fast-forwarded and single-stepped runs byte-identical (branch resolutions,
//! for example, must update the predictor in `(cycle, seq)` order).
//!
//! # Late scheduling
//!
//! An entry scheduled for a cycle the queue has already drained past
//! (the engine does this: operand-availability times can lie at or
//! before the cycle that computes them) is clamped into the current
//! base slot and pops on the next `pop_due` call — exactly when the
//! heap formulation would have delivered it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wheel size in slots (cycles). Power of two, `WORDS * 64`.
const WHEEL_SLOTS: usize = 1024;
/// Occupancy-bitmap words under the summary word.
const WORDS: usize = WHEEL_SLOTS / 64;

/// One scheduled event: fires at `cycle`, ordered within the cycle by
/// `key`, carrying one word of `data` the producer packs as it likes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Absolute cycle the event fires at.
    pub cycle: u64,
    /// Same-cycle drain order, typically an instruction sequence number.
    pub key: u64,
    /// Insertion counter: makes `(cycle, key, tick)` a total order, so
    /// duplicate `(cycle, key)` schedules drain in insertion order.
    tick: u64,
    /// Producer-packed payload.
    pub data: u64,
}

/// The time-wheel event queue. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TimeQ {
    /// Earliest cycle the wheel can hold; every wheel entry's effective
    /// cycle lies in `[base, base + WHEEL_SLOTS)`.
    base: u64,
    len: usize,
    tick: u64,
    /// Bit `w` set iff `words[w] != 0`.
    summary: u64,
    /// Bit `s % 64` of `words[s / 64]` set iff slot `s` is occupied.
    words: [u64; WORDS],
    slots: Vec<Vec<Entry>>,
    /// Entries at or beyond `base + WHEEL_SLOTS`, folded back into the
    /// wheel as the base advances.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Cached delivery cycle of the earliest scheduled entry
    /// (`u64::MAX` when empty). Lets [`TimeQ::pop_due`] answer the
    /// overwhelmingly common nothing-due-yet case — the simulator polls
    /// its queues every live cycle — with one compare instead of a
    /// bitmap walk, and makes [`TimeQ::next_cycle`] O(1).
    next_due: u64,
}

impl Default for TimeQ {
    fn default() -> TimeQ {
        TimeQ::new()
    }
}

impl TimeQ {
    /// Creates an empty queue anchored at cycle 0.
    #[must_use]
    pub fn new() -> TimeQ {
        TimeQ {
            base: 0,
            len: 0,
            tick: 0,
            summary: 0,
            words: [0; WORDS],
            slots: vec![Vec::new(); WHEEL_SLOTS],
            overflow: BinaryHeap::new(),
            next_due: u64::MAX,
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event. Cycles already drained past clamp into the
    /// base slot (see the module docs); cycles beyond the wheel horizon
    /// go to the overflow heap.
    pub fn schedule(&mut self, cycle: u64, key: u64, data: u64) {
        self.tick += 1;
        let entry = Entry { cycle, key, tick: self.tick, data };
        self.len += 1;
        if cycle >= self.base + WHEEL_SLOTS as u64 {
            if cycle < self.next_due {
                self.next_due = cycle;
            }
            self.overflow.push(Reverse(entry));
            return;
        }
        // A cycle already drained past clamps into the base slot, so
        // its delivery cycle (what the cache tracks) is the base.
        let effective = cycle.max(self.base);
        if effective < self.next_due {
            self.next_due = effective;
        }
        let slot = (effective % WHEEL_SLOTS as u64) as usize;
        self.set_bit(slot);
        self.slots[slot].push(entry);
    }

    /// Appends every entry due at or before `now` to `out`, sorted by
    /// `(cycle, key, tick)`, and advances the base past the drained
    /// span (so the base never trails `now`).
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<Entry>) {
        if now < self.next_due {
            // Nothing due: the cache proves no occupied slot lies in
            // `[base, now]`, so the base can jump without a scan. Slot
            // assignments stay valid — every live entry's delivery
            // cycle is `>= next_due > now`, within the new window.
            self.base = self.base.max(now);
            return;
        }
        self.pop_due_slow(now, out);
        self.next_due = self.earliest_delivery();
    }

    fn pop_due_slow(&mut self, now: u64, out: &mut Vec<Entry>) {
        loop {
            if self.summary == 0 {
                match self.overflow.peek() {
                    // Jump the empty wheel straight to the next
                    // overflow entry so refilling lands it in range.
                    Some(&Reverse(e)) if e.cycle <= now => self.base = e.cycle,
                    _ => {
                        self.base = self.base.max(now);
                        return;
                    }
                }
            }
            while let Some(&Reverse(e)) = self.overflow.peek() {
                if e.cycle >= self.base + WHEEL_SLOTS as u64 {
                    break;
                }
                self.overflow.pop();
                let slot = (e.cycle % WHEEL_SLOTS as u64) as usize;
                self.set_bit(slot);
                self.slots[slot].push(e);
            }
            if now < self.base {
                return;
            }
            let horizon = now.min(self.base + (WHEEL_SLOTS as u64 - 1));
            self.drain_window(horizon, out);
            if horizon == now {
                self.base = now;
                return;
            }
            self.base = horizon + 1;
        }
    }

    /// The cycle of the next `pop_due` delivery, if anything is
    /// scheduled. Late-clamped entries report their delivery cycle (the
    /// base slot), not their original one. O(1) — served from the
    /// cache `pop_due` and `schedule` maintain.
    #[must_use]
    pub fn next_cycle(&self) -> Option<u64> {
        (self.len != 0).then_some(self.next_due)
    }

    /// Recomputes the earliest delivery cycle from the wheel bitmap and
    /// the overflow heap (`u64::MAX` when empty) — the slow form of
    /// [`TimeQ::next_cycle`], run after anything is removed.
    fn earliest_delivery(&self) -> u64 {
        let wheel = self.first_occupied().map(|slot| {
            let start = (self.base % WHEEL_SLOTS as u64) as usize;
            self.base + ((slot + WHEEL_SLOTS - start) % WHEEL_SLOTS) as u64
        });
        let over = self.overflow.peek().map(|&Reverse(e)| e.cycle);
        match (wheel, over) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap_or(u64::MAX),
        }
    }

    /// The entry `pop_earliest` would return, without removing it.
    #[must_use]
    pub fn peek_earliest(&self) -> Option<Entry> {
        let wheel = self
            .first_occupied()
            .map(|slot| *self.slots[slot].iter().min().expect("occupied slot"));
        let over = self.overflow.peek().map(|&Reverse(e)| e);
        match (wheel, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the earliest entry by `(cycle, key, tick)`.
    pub fn pop_earliest(&mut self) -> Option<Entry> {
        if let Some(slot) = self.first_occupied() {
            let v = &mut self.slots[slot];
            let i = (0..v.len()).min_by_key(|&i| v[i]).expect("occupied slot");
            let e = v.remove(i);
            if v.is_empty() {
                self.clear_bit(slot);
            }
            self.len -= 1;
            self.next_due = self.earliest_delivery();
            return Some(e);
        }
        self.overflow.pop().map(|Reverse(e)| {
            self.len -= 1;
            self.next_due = self.earliest_delivery();
            e
        })
    }

    /// Keeps only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        for slot in 0..WHEEL_SLOTS {
            if self.slots[slot].is_empty() {
                continue;
            }
            let before = self.slots[slot].len();
            self.slots[slot].retain(|e| keep(e));
            self.len -= before - self.slots[slot].len();
            if self.slots[slot].is_empty() {
                self.clear_bit(slot);
            }
        }
        let before = self.overflow.len();
        let kept: Vec<Reverse<Entry>> =
            self.overflow.drain().filter(|Reverse(e)| keep(e)).collect();
        self.len -= before - kept.len();
        self.overflow = kept.into_iter().collect();
        self.next_due = self.earliest_delivery();
    }

    /// Removes every entry and re-anchors at cycle 0, leaving the queue
    /// as `new()` would (minus the allocations).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.words = [0; WORDS];
        self.summary = 0;
        self.overflow.clear();
        self.len = 0;
        self.base = 0;
        self.tick = 0;
        self.next_due = u64::MAX;
    }

    /// Visits every scheduled entry in no particular order. Walks the
    /// occupancy bitmap rather than all `WHEEL_SLOTS` slot headers,
    /// so a sparse queue (the common case — the invariant checker
    /// calls this every validated cycle) costs O(occupied slots).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        (0..WORDS)
            .filter(|&w| self.summary & (1 << w) != 0)
            .flat_map(move |w| {
                let mut bits = self.words[w];
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(slot)
                })
            })
            .flat_map(|slot| self.slots[slot].iter())
            .chain(self.overflow.iter().map(|Reverse(e)| e))
    }

    fn set_bit(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        if self.words[slot / 64] == 0 {
            self.summary &= !(1 << (slot / 64));
        }
    }

    /// First occupied slot in circular order from the base slot.
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.base % WHEEL_SLOTS as u64) as usize;
        self.scan_range(start, WHEEL_SLOTS).or_else(|| self.scan_range(0, start))
    }

    /// First occupied slot in `[from, to)`, linear.
    fn scan_range(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first_w = from / 64;
        let last_w = (to - 1) / 64;
        for w in first_w..=last_w {
            if self.summary & (1 << w) == 0 {
                continue;
            }
            let mut bits = self.words[w];
            if w == first_w {
                bits &= !0u64 << (from % 64);
            }
            if w == last_w && !to.is_multiple_of(64) {
                bits &= (1u64 << (to % 64)) - 1;
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Drains occupied slots with effective cycles in `[base, horizon]`
    /// into `out`, each slot sorted, in cycle order.
    fn drain_window(&mut self, horizon: u64, out: &mut Vec<Entry>) {
        let start = (self.base % WHEEL_SLOTS as u64) as usize;
        let span = (horizon - self.base + 1) as usize;
        let first = span.min(WHEEL_SLOTS - start);
        self.drain_range(start, start + first, out);
        if span > first {
            self.drain_range(0, span - first, out);
        }
    }

    /// Drains occupied slots in `[from, to)`, linear, position order.
    fn drain_range(&mut self, from: usize, to: usize, out: &mut Vec<Entry>) {
        let first_w = from / 64;
        let last_w = (to - 1) / 64;
        for w in first_w..=last_w {
            if self.summary & (1 << w) == 0 {
                continue;
            }
            let mut bits = self.words[w];
            if w == first_w {
                bits &= !0u64 << (from % 64);
            }
            if w == last_w && !to.is_multiple_of(64) {
                bits &= (1u64 << (to % 64)) - 1;
            }
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = &mut self.slots[slot];
                if let [e] = v[..] {
                    out.push(e);
                } else {
                    v.sort_unstable();
                    out.extend_from_slice(v);
                }
                self.len -= v.len();
                v.clear();
                self.clear_bit(slot);
            }
        }
    }
}

/// An event queue for consumers that do not care in which order one
/// drain hands out its entries: a [`TimeQ`] with a direct lane for
/// entries due by the next drain.
///
/// The engine's future-ready copies and transfer-buffer credit returns
/// are such consumers (a ready-set insert is sorted, a credit is an
/// increment), and most of their entries are due within a cycle: a
/// copy whose last operand comes from a one-cycle producer, a forward,
/// a slave register write or is known at dispatch; every credit. On a
/// plain wheel those land in the base slot or the one after it, only
/// to be drained on the very next call. Here they skip the wheel: an
/// entry scheduled for a cycle at or before `lane_until` — the cycle
/// after the last drain, so never later than the next one — is pushed
/// on a plain vector and handed out by the next [`LaneQ::drain`],
/// exactly the call in which the wheel would have delivered it. Later
/// entries take the wheel as before.
///
/// Lane entries draw their insertion ticks from the wheel's counter,
/// so [`LaneQ::pop_earliest`] still picks the `(cycle, key, tick)`
/// minimum over both.
#[derive(Debug, Clone, Default)]
pub struct LaneQ {
    wheel: TimeQ,
    lane: Vec<Entry>,
    /// Entries at or before this cycle go on the lane.
    lane_until: u64,
}

impl LaneQ {
    /// Creates an empty queue anchored at cycle 0.
    #[must_use]
    pub fn new() -> LaneQ {
        LaneQ::default()
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.wheel.is_empty()
    }

    /// Schedules an event, returning whether it took the direct lane.
    pub fn schedule(&mut self, cycle: u64, key: u64, data: u64) -> bool {
        if cycle > self.lane_until {
            self.wheel.schedule(cycle, key, data);
            return false;
        }
        self.wheel.tick += 1;
        self.lane.push(Entry { cycle, key, tick: self.wheel.tick, data });
        true
    }

    /// Appends every entry due at or before `now` to `out`, in no
    /// particular order. Drains must come at increasing cycles, and the
    /// lane only works for a consumer that drains every cycle it steps.
    pub fn drain(&mut self, now: u64, out: &mut Vec<Entry>) {
        debug_assert!(now >= self.lane_until, "drains move forward");
        if out.is_empty() {
            // Hand the lane over whole and keep the caller's buffer.
            std::mem::swap(out, &mut self.lane);
        } else {
            out.append(&mut self.lane);
        }
        self.wheel.pop_due(now, out);
        self.lane_until = now + 1;
    }

    /// Visits every scheduled entry in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.lane.iter().chain(self.wheel.iter())
    }

    /// The earliest cycle an entry is scheduled for, if any: a lane
    /// entry reports its own cycle, never later than the next drain.
    #[must_use]
    pub fn next_cycle(&self) -> Option<u64> {
        let lane = self.lane.iter().map(|e| e.cycle).min();
        match (lane, self.wheel.next_cycle()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the earliest entry by `(cycle, key, tick)`.
    pub fn pop_earliest(&mut self) -> Option<Entry> {
        let lane = (0..self.lane.len()).min_by_key(|&i| self.lane[i]);
        match (lane, self.wheel.peek_earliest()) {
            (Some(i), Some(w)) if w < self.lane[i] => self.wheel.pop_earliest(),
            (Some(i), _) => Some(self.lane.swap_remove(i)),
            (None, _) => self.wheel.pop_earliest(),
        }
    }
}

/// Ring size of [`CompletionQ`] in cycles: one occupancy word.
const RING: u64 = 64;

/// Scheduled completion events (a master's result, a slave's register
/// write), bucketed by cycle, for the engine's progress check.
///
/// The engine records an event for every completion it schedules, but
/// only reads them on actionless cycles — to ask for the earliest live
/// one — and the invariant checker audits them. So recording must be
/// cheap and answering may walk: an event is one `u64` key pushed on
/// the bucket of its cycle in a `RING`-cycle ring with an occupancy
/// word, fired buckets are cleared as the clock passes them, and the
/// earliest-event question walks the occupied buckets in cycle order.
/// The rare event past the ring's horizon waits in a side list.
#[derive(Debug, Clone)]
pub struct CompletionQ {
    /// Bucket `c % RING` holds the keys of events at cycle `c`, for `c`
    /// in `(trimmed, trimmed + RING]`.
    buckets: Vec<Vec<u64>>,
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Events beyond the ring's horizon, as `(cycle, key)`.
    far: Vec<(u64, u64)>,
    /// Every event at or before this cycle has been dropped.
    trimmed: u64,
    len: usize,
}

impl Default for CompletionQ {
    fn default() -> CompletionQ {
        CompletionQ::new()
    }
}

impl CompletionQ {
    /// Creates an empty queue at cycle 0.
    #[must_use]
    pub fn new() -> CompletionQ {
        CompletionQ {
            buckets: vec![Vec::new(); RING as usize],
            occupied: 0,
            far: Vec::new(),
            trimmed: 0,
            len: 0,
        }
    }

    /// Number of recorded events not yet trimmed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records an event at `cycle`, which must lie after the last trim.
    pub fn push(&mut self, cycle: u64, key: u64) {
        debug_assert!(cycle > self.trimmed, "an event in the trimmed past");
        self.len += 1;
        if cycle - self.trimmed > RING {
            self.far.push((cycle, key));
            return;
        }
        let b = (cycle % RING) as usize;
        self.buckets[b].push(key);
        self.occupied |= 1 << b;
    }

    /// Drops every event at or before `now`.
    pub fn trim(&mut self, now: u64) {
        if now <= self.trimmed {
            return;
        }
        if self.occupied != 0 {
            if now - self.trimmed >= RING {
                for b in 0..RING as usize {
                    self.clear_bucket(b);
                }
            } else {
                for cycle in self.trimmed + 1..=now {
                    self.clear_bucket((cycle % RING) as usize);
                }
            }
        }
        self.trimmed = now;
        if !self.far.is_empty() {
            let before = self.far.len();
            self.far.retain(|&(cycle, _)| cycle > now);
            self.len -= before - self.far.len();
            // Pull events now inside the horizon into their buckets.
            let trimmed = self.trimmed;
            let mut i = 0;
            while i < self.far.len() {
                let (cycle, key) = self.far[i];
                if cycle - trimmed <= RING {
                    self.far.swap_remove(i);
                    let b = (cycle % RING) as usize;
                    self.buckets[b].push(key);
                    self.occupied |= 1 << b;
                } else {
                    i += 1;
                }
            }
        }
    }

    fn clear_bucket(&mut self, b: usize) {
        if self.occupied & (1 << b) != 0 {
            self.len -= self.buckets[b].len();
            self.buckets[b].clear();
            self.occupied &= !(1 << b);
        }
    }

    /// Removes every event.
    pub fn clear(&mut self) {
        for b in 0..RING as usize {
            self.clear_bucket(b);
        }
        self.far.clear();
        self.len = 0;
    }

    /// The earliest event strictly after `now` that `live` accepts, as
    /// `(cycle, key)` — the smallest key among that cycle's live ones.
    /// Events `live` rejects are stale for good and are dropped along
    /// the way.
    pub fn earliest_live(
        &mut self,
        now: u64,
        mut live: impl FnMut(u64, u64) -> bool,
    ) -> Option<(u64, u64)> {
        let first = now.max(self.trimmed) + 1;
        let span = self.trimmed + RING + 1 - first;
        let start = first % RING;
        let mut bits = self.occupied.rotate_right(start as u32);
        if span < RING {
            bits &= (1 << span) - 1;
        }
        while bits != 0 {
            let offset = u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            let cycle = first + offset;
            let b = (cycle % RING) as usize;
            let bucket = &mut self.buckets[b];
            let before = bucket.len();
            bucket.retain(|&key| live(cycle, key));
            self.len -= before - bucket.len();
            if let Some(&key) = bucket.iter().min() {
                return Some((cycle, key));
            }
            self.occupied &= !(1 << b);
        }
        let before = self.far.len();
        self.far.retain(|&(cycle, key)| cycle <= now || live(cycle, key));
        self.len -= before - self.far.len();
        self.far.iter().copied().filter(|&(cycle, _)| cycle > now).min()
    }

    /// Removes one recorded `(cycle, key)` event, if present.
    pub fn remove(&mut self, cycle: u64, key: u64) {
        if cycle > self.trimmed && cycle - self.trimmed <= RING {
            let b = (cycle % RING) as usize;
            if let Some(i) = self.buckets[b].iter().position(|&k| k == key) {
                self.buckets[b].swap_remove(i);
                self.len -= 1;
                if self.buckets[b].is_empty() {
                    self.occupied &= !(1 << b);
                }
            }
        } else if let Some(i) = self.far.iter().position(|&e| e == (cycle, key)) {
            self.far.swap_remove(i);
            self.len -= 1;
        }
    }

    /// Visits every recorded event as `(cycle, key)`, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let trimmed = self.trimmed;
        (0..RING)
            .filter(move |&b| self.occupied & (1 << b) != 0)
            .flat_map(move |b| {
                // The one cycle in `(trimmed, trimmed + RING]` on bucket `b`.
                let cycle = trimmed + 1 + (b + RING - (trimmed + 1) % RING) % RING;
                self.buckets[b as usize].iter().map(move |&key| (cycle, key))
            })
            .chain(self.far.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut TimeQ, now: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        q.pop_due(now, &mut out);
        out.into_iter().map(|e| (e.cycle, e.key, e.data)).collect()
    }

    #[test]
    fn pops_in_cycle_then_key_order() {
        let mut q = TimeQ::new();
        q.schedule(7, 2, 20);
        q.schedule(3, 9, 90);
        q.schedule(7, 1, 10);
        q.schedule(5, 4, 40);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q, 6), vec![(3, 9, 90), (5, 4, 40)]);
        assert_eq!(drain(&mut q, 6), vec![], "nothing due twice");
        assert_eq!(drain(&mut q, 7), vec![(7, 1, 10), (7, 2, 20)]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_same_key_pops_fifo() {
        let mut q = TimeQ::new();
        q.schedule(4, 8, 1);
        q.schedule(4, 8, 2);
        q.schedule(4, 8, 3);
        assert_eq!(drain(&mut q, 4), vec![(4, 8, 1), (4, 8, 2), (4, 8, 3)]);
    }

    #[test]
    fn late_schedules_clamp_to_the_next_drain() {
        let mut q = TimeQ::new();
        q.schedule(10, 1, 0);
        assert_eq!(drain(&mut q, 10), vec![(10, 1, 0)]);
        // Cycle 3 is already drained past; the entry must still come
        // out on the very next pop, ahead of same-pop later cycles.
        q.schedule(3, 7, 0);
        q.schedule(11, 2, 0);
        assert_eq!(drain(&mut q, 11), vec![(3, 7, 0), (11, 2, 0)]);
    }

    #[test]
    fn far_future_entries_ride_the_overflow_ring() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(100_000, 2, 0); // far beyond the 1024-slot horizon
        q.schedule(2_000_000, 3, 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_cycle(), Some(5));
        assert_eq!(drain(&mut q, 50), vec![(5, 1, 0)]);
        assert_eq!(q.next_cycle(), Some(100_000));
        assert_eq!(drain(&mut q, 99_999), vec![]);
        assert_eq!(drain(&mut q, 100_000), vec![(100_000, 2, 0)]);
        assert_eq!(drain(&mut q, 3_000_000), vec![(2_000_000, 3, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraps_around_without_mixing_cycles() {
        let mut q = TimeQ::new();
        // Walk the base across several wheel lengths with entries that
        // straddle each wrap point.
        let mut expected = Vec::new();
        for lap in 0..5u64 {
            let c = lap * 1000 + 1020; // crosses the 1024 boundary repeatedly
            q.schedule(c, lap, 0);
            expected.push((c, lap, 0));
        }
        let mut got = Vec::new();
        for now in (0..8000).step_by(97) {
            got.extend(drain(&mut q, now));
        }
        got.extend(drain(&mut q, 8000));
        assert_eq!(got, expected);
    }

    #[test]
    fn overflow_refills_preserve_ordering_across_a_big_jump() {
        let mut q = TimeQ::new();
        q.schedule(5000, 2, 0);
        q.schedule(4096, 1, 0);
        q.schedule(9000, 3, 0);
        // One pop far past everything: all three, still in order.
        assert_eq!(drain(&mut q, 10_000), vec![(4096, 1, 0), (5000, 2, 0), (9000, 3, 0)]);
    }

    #[test]
    fn next_cycle_reports_the_earliest_pending_entry() {
        let mut q = TimeQ::new();
        assert_eq!(q.next_cycle(), None);
        q.schedule(2000, 1, 0);
        assert_eq!(q.next_cycle(), Some(2000));
        q.schedule(12, 2, 0);
        assert_eq!(q.next_cycle(), Some(12));
        let _ = drain(&mut q, 500);
        assert_eq!(q.next_cycle(), Some(2000));
    }

    #[test]
    fn peek_and_pop_earliest_agree_with_pop_due_order() {
        let mut q = TimeQ::new();
        q.schedule(9, 5, 50);
        q.schedule(9, 3, 30);
        q.schedule(2000, 1, 10);
        let e = q.peek_earliest().unwrap();
        assert_eq!((e.cycle, e.key), (9, 3));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((9, 3)));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((9, 5)));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((2000, 1)));
        assert_eq!(q.pop_earliest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn retain_filters_wheel_and_overflow() {
        let mut q = TimeQ::new();
        for k in 0..10 {
            q.schedule(10 + k, k, 0);
            q.schedule(100_000 + k, k, 0);
        }
        q.retain(|e| e.key % 2 == 0);
        assert_eq!(q.len(), 10);
        let keys: Vec<u64> = {
            let mut out = Vec::new();
            q.pop_due(200_000, &mut out);
            out.iter().map(|e| e.key).collect()
        };
        assert_eq!(keys, vec![0, 2, 4, 6, 8, 0, 2, 4, 6, 8]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(100_000, 2, 0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_cycle(), None);
        // Still usable after a clear (re-anchored at cycle 0).
        q.schedule(7, 3, 0);
        assert_eq!(drain(&mut q, 7), vec![(7, 3, 0)]);
        assert_eq!(drain(&mut q, 200_000), vec![]);
    }

    #[test]
    fn iter_visits_wheel_and_overflow_entries() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(6, 2, 0);
        q.schedule(500_000, 3, 0);
        let mut keys: Vec<u64> = q.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn entries_at_exactly_the_wheel_horizon_ride_overflow_and_hand_back() {
        let mut q = TimeQ::new();
        // `base + WHEEL_SLOTS` is the first cycle the wheel cannot
        // hold: it must go to the overflow heap, not wrap into slot 0
        // (which currently means "cycle base").
        q.schedule(WHEEL_SLOTS as u64, 1, 10);
        assert_eq!(q.next_cycle(), Some(WHEEL_SLOTS as u64));
        assert_eq!(drain(&mut q, WHEEL_SLOTS as u64 - 1), vec![]);
        // Draining advances the base, so the horizon entry folds back
        // into the wheel and pops at its exact cycle.
        assert_eq!(drain(&mut q, WHEEL_SLOTS as u64), vec![(WHEEL_SLOTS as u64, 1, 10)]);
        assert!(q.is_empty());

        // Same handoff with a non-zero base: advance the base first,
        // then park an entry exactly one wheel length ahead of it.
        let mut q = TimeQ::new();
        q.schedule(500, 1, 0);
        assert_eq!(drain(&mut q, 500), vec![(500, 1, 0)]);
        let horizon = 500 + WHEEL_SLOTS as u64;
        q.schedule(horizon, 2, 20); // exactly base + WHEEL_SLOTS
        q.schedule(horizon - 1, 3, 30); // last in-wheel slot
        assert_eq!(q.next_cycle(), Some(horizon - 1));
        assert_eq!(
            drain(&mut q, horizon),
            vec![(horizon - 1, 3, 30), (horizon, 2, 20)],
            "horizon entry hands back from overflow in cycle order"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn reinsertion_during_a_pop_cycle_pops_in_the_same_cycle() {
        // The engine's pattern: pop the events due at `now`, process
        // them, and processing schedules follow-up events at `now`
        // itself (late clamp) or `now + 1`. A same-cycle re-insertion
        // must come out of the very next pop at the same `now`, not be
        // deferred a cycle or dropped by the drained-past logic.
        let mut q = TimeQ::new();
        q.schedule(10, 1, 0);
        assert_eq!(drain(&mut q, 10), vec![(10, 1, 0)]);
        // Re-insert at the already-drained cycle 10 (and one behind
        // it): both clamp into the base slot and pop immediately.
        q.schedule(10, 2, 0);
        q.schedule(9, 3, 0);
        assert_eq!(drain(&mut q, 10), vec![(9, 3, 0), (10, 2, 0)]);
        // A chain of same-cycle re-insertions keeps popping at `now`,
        // in insertion order for duplicate keys.
        for i in 0..4 {
            q.schedule(10, 7, i);
            assert_eq!(drain(&mut q, 10), vec![(10, 7, i)]);
        }
        assert!(q.is_empty());
        // And the base never trailed: a next-cycle entry still pops on
        // time.
        q.schedule(11, 1, 0);
        assert_eq!(q.next_cycle(), Some(11));
        assert_eq!(drain(&mut q, 11), vec![(11, 1, 0)]);
    }

    #[test]
    fn heap_equivalence_at_the_wheel_boundary() {
        // Seeded property test against the BinaryHeap oracle with
        // offsets concentrated at `now + WHEEL_SLOTS ± 2`, so every
        // drain exercises the wheel/overflow handoff both ways.
        let mut seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = TimeQ::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut tick = 0u64;
        for round in 0..3000u64 {
            for _ in 0..(rng() % 3) {
                let w = WHEEL_SLOTS as u64;
                let cycle = match rng() % 8 {
                    0 => now + w - 2,
                    1 => now + w - 1,
                    2 => now + w, // exactly the horizon
                    3 => now + w + 1,
                    4 => now + w + 2,
                    5 => now + rng() % 4, // near term, same slots soon
                    _ => now + 1 + rng() % (w / 2),
                };
                let key = rng() % 8;
                tick += 1;
                q.schedule(cycle, key, tick);
                heap.push(Reverse((cycle, key, tick)));
            }
            // Mostly small steps; occasionally a jump of about one
            // wheel length so the base crosses the wrap point.
            now += if round % 17 == 0 { WHEEL_SLOTS as u64 - 3 + rng() % 6 } else { rng() % 4 };
            let mut got = Vec::new();
            q.pop_due(now, &mut got);
            let mut want = Vec::new();
            while let Some(&Reverse((c, ..))) = heap.peek() {
                if c > now {
                    break;
                }
                let Reverse((_, key, t)) = heap.pop().unwrap();
                want.push((key, t));
            }
            let got: Vec<(u64, u64)> = got.iter().map(|e| (e.key, e.data)).collect();
            assert_eq!(got, want, "divergence at now={now}");
            assert_eq!(q.len(), heap.len(), "length divergence at now={now}");
        }
    }

    #[test]
    fn heap_equivalence_under_random_traffic() {
        // Differential test against the BinaryHeap formulation the
        // engine used before: identical pop sequences under a stream of
        // interleaved schedules and drains (deterministic xorshift).
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = TimeQ::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut tick = 0u64;
        for _ in 0..2000 {
            for _ in 0..(rng() % 4) {
                // Mostly near-future, occasionally far-future, rarely
                // in the past (clamped).
                let r = rng();
                let cycle = match r % 10 {
                    0 => now.saturating_sub(rng() % 8),
                    1..=7 => now + rng() % 40,
                    _ => now + 1000 + rng() % 5000,
                };
                let key = rng() % 16;
                tick += 1;
                q.schedule(cycle, key, tick);
                // The heap keeps the original cycle even for entries in
                // the past: they sort to the front and pop on the next
                // drain, exactly like the wheel's base-slot clamp.
                heap.push(Reverse((cycle, key, tick)));
            }
            now += rng() % 6;
            let mut got = Vec::new();
            q.pop_due(now, &mut got);
            let mut want = Vec::new();
            while let Some(&Reverse((c, ..))) = heap.peek() {
                if c > now {
                    break;
                }
                let Reverse((_, key, t)) = heap.pop().unwrap();
                want.push((key, t));
            }
            let got: Vec<(u64, u64)> = got.iter().map(|e| (e.key, e.data)).collect();
            assert_eq!(got, want, "divergence at now={now}");
        }
    }

    /// Deterministic xorshift for the differential tests below.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    #[test]
    fn lane_delivers_in_the_drain_the_wheel_would() {
        // Same schedules into a plain wheel and a lane queue, drained
        // every cycle as the engine does (with a few mid-cycle
        // schedules landing before the drain): each drain must hand out
        // the same entries, and the earliest entry must agree.
        let mut rng = xorshift(0x5EED_1A2E_0000_0001);
        let (mut wheel, mut lane) = (TimeQ::new(), LaneQ::new());
        let mut direct = 0;
        for now in 0..3000u64 {
            let schedule = |rng: &mut dyn FnMut() -> u64, wheel: &mut TimeQ, lane: &mut LaneQ| {
                let cycle = match rng() % 6 {
                    0 => now.saturating_sub(rng() % 5),
                    1 | 2 => now + 1,
                    3 => now,
                    _ => now + 2 + rng() % 40,
                };
                let key = rng() % 64;
                wheel.schedule(cycle, key, key);
                u32::from(lane.schedule(cycle, key, key))
            };
            if rng().is_multiple_of(4) {
                direct += schedule(&mut rng, &mut wheel, &mut lane);
            }
            if now.is_multiple_of(10) {
                // The delay-operand-delivery fault's pick.
                let picks = (wheel.clone().pop_earliest(), lane.clone().pop_earliest());
                assert_eq!(picks.0, picks.1, "earliest at {now}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            wheel.pop_due(now, &mut a);
            lane.drain(now, &mut b);
            b.sort_unstable();
            assert_eq!(a, b, "drain at {now}");
            for _ in 0..rng() % 4 {
                direct += schedule(&mut rng, &mut wheel, &mut lane);
            }
            assert_eq!(lane.is_empty(), wheel.is_empty());
            let mut all: Vec<Entry> = lane.iter().copied().collect();
            all.sort_unstable();
            let mut want: Vec<Entry> = wheel.iter().copied().collect();
            want.sort_unstable();
            assert_eq!(all, want, "contents at {now}");
            let next = |c: Option<u64>| c.unwrap_or(u64::MAX);
            assert!(next(lane.next_cycle()) <= next(wheel.next_cycle()));
        }
        assert!(direct > 1000, "the lane took {direct} entries");
        let (a, b) = (wheel.pop_earliest(), lane.pop_earliest());
        assert_eq!(a, b);
    }

    #[test]
    fn completion_queue_finds_the_earliest_live_event() {
        // Against a plain list: events near and far (past the ring),
        // trims as the clock moves, and a liveness rule that retires
        // events for good (odd keys die once the clock passes a mark).
        let mut rng = xorshift(0xC0DE_C0DE_0000_0002);
        let mut q = CompletionQ::new();
        let mut oracle: Vec<(u64, u64)> = Vec::new();
        let mut dead_below = 0u64;
        for now in 0..5000u64 {
            q.trim(now);
            oracle.retain(|&(c, _)| c > now);
            for _ in 0..rng() % 3 {
                let ahead = if rng().is_multiple_of(10) { 60 + rng() % 100 } else { rng() % 20 };
                let cycle = now + 1 + ahead;
                let key = rng() % 1000;
                q.push(cycle, key);
                oracle.push((cycle, key));
            }
            if rng().is_multiple_of(50) {
                dead_below = now;
            }
            // An odd key recorded before `dead_below` is stale.
            let live = |c: u64, k: u64| k.is_multiple_of(2) || c > dead_below + 40;
            let want = oracle.iter().copied().filter(|&(c, k)| c > now && live(c, k)).min();
            assert_eq!(q.earliest_live(now, live), want, "at {now}");
            oracle.retain(|&(c, k)| live(c, k) || c <= now);
            let mut got: Vec<(u64, u64)> = q.iter().filter(|&(c, k)| live(c, k)).collect();
            got.sort_unstable();
            let mut all = oracle.clone();
            all.retain(|&(c, k)| live(c, k));
            all.sort_unstable();
            assert_eq!(got, all, "contents at {now}");
            if let Some((c, k)) = want {
                if rng().is_multiple_of(7) {
                    q.remove(c, k);
                    let i = oracle.iter().position(|&e| e == (c, k)).unwrap();
                    oracle.swap_remove(i);
                }
            }
        }
    }
}
