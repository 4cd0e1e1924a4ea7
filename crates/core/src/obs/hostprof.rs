//! Host-side engine phase profiling: where a microsecond of wall time
//! goes *inside the simulator* on each live cycle.
//!
//! The [`Probe`](super::Probe) layer observes the *simulated machine*;
//! this module observes the *simulator itself*. A [`HostProf`] is a
//! second simulator type parameter in the same zero-cost style —
//! [`NullHostProf`] sets [`HostProf::ENABLED`] to `false` and every
//! call site is guarded by `if H::ENABLED`, a monomorphization-time
//! constant, so the unprofiled engine compiles to exactly the code it
//! had before this module existed. Unlike probes, a [`HostProf`] does
//! **not** force single-stepping: the profiled run takes the real
//! engine path, fast-forward jumps included, because the whole
//! point is to time that path.
//!
//! [`PhaseProf`] charges host nanoseconds to [`HostPhase`]s by
//! *telescoping* monotonic-clock samples: one `Instant::now()` read
//! ends one phase and starts the next, so a cycle with N phase marks
//! costs N clock reads (not 2N) and — by construction — the per-phase
//! buckets sum *exactly* to the span between the first and last sample.
//! That is the hard identity [`HostProfReport::check_identity`]
//! enforces: `sum(phase_ns) == total_ns`, with only the profiler's own
//! entry/exit clock reads (bounded by [`HOSTPROF_SLOP_NS`]) between
//! `total_ns` and the independently measured `elapsed_ns`.
//!
//! Wall clocks on a shared host are noisy, so the report also carries
//! deterministic [`WorkCounter`] counts — ops dispatched, copies issued,
//! ready entries examined, … — that repeat exactly run to run and show
//! an algorithmic change as an exact delta next to the noisy one. And
//! because every mark is itself a clock read, [`HostProf::begin`]
//! calibrates the cost of one read, so the report can say how much of
//! each live cycle is the profiler timing itself.

use std::time::Instant;

/// The engine phases host time is charged to, in per-cycle execution
/// order (the [`Loop`](HostPhase::Loop) bucket absorbs everything
/// between a cycle's last mark and the next cycle's first: progress
/// checking, watchdog polling, and loop overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Event drains at the top of the cycle: fault hooks, fired
    /// completion events, buffer-free credits and branch-resolution
    /// pops.
    TimeQ,
    /// In-order retirement.
    Retire,
    /// Suspended-slave wakeup and future-ready drains (operand
    /// delivery).
    Wakeup,
    /// The per-cluster issue passes.
    Issue,
    /// Fetch, rename, and in-order distribution.
    Dispatch,
    /// The architectural invariant checker. With `--check` off the
    /// phase is one enum compare, so what the bucket then shows is the
    /// cost of its own closing mark: one clock read (see
    /// [`HostProfReport::clock_ns`]).
    Checker,
    /// Dead-cycle fast-forward bookkeeping (jump-target computation and
    /// span charging; zero when single-stepped).
    FastForward,
    /// Everything else: progress check, watchdog poll, loop overhead,
    /// and the run's entry/exit tails.
    Loop,
}

impl HostPhase {
    /// Number of phases (array dimension for breakdowns).
    pub const COUNT: usize = 8;

    /// Every phase, in [`HostPhase::index`] order.
    pub const ALL: [HostPhase; HostPhase::COUNT] = [
        HostPhase::TimeQ,
        HostPhase::Retire,
        HostPhase::Wakeup,
        HostPhase::Issue,
        HostPhase::Dispatch,
        HostPhase::Checker,
        HostPhase::FastForward,
        HostPhase::Loop,
    ];

    /// Dense index for per-phase arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            HostPhase::TimeQ => 0,
            HostPhase::Retire => 1,
            HostPhase::Wakeup => 2,
            HostPhase::Issue => 3,
            HostPhase::Dispatch => 4,
            HostPhase::Checker => 5,
            HostPhase::FastForward => 6,
            HostPhase::Loop => 7,
        }
    }

    /// Stable machine-readable name (used as a JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::TimeQ => "timeq",
            HostPhase::Retire => "retire",
            HostPhase::Wakeup => "wakeup",
            HostPhase::Issue => "issue",
            HostPhase::Dispatch => "dispatch",
            HostPhase::Checker => "checker",
            HostPhase::FastForward => "fast_forward",
            HostPhase::Loop => "loop",
        }
    }
}

/// Deterministic work counts of a profiled run: how many times the
/// engine did each unit of per-op work. They depend only on the trace
/// and the configuration, never on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkCounter {
    /// Ops dispatched into the window.
    OpsDispatched,
    /// Copies (masters and slaves) issued.
    CopiesIssued,
    /// Ready-set entries the issue passes evaluated against a budget.
    ReadyExamined,
    /// Ready copies parked on a busy divider or a full transfer buffer
    /// (each then skips the walk until the resource frees).
    CopiesParked,
    /// Copies whose ready cycle became known and was scheduled on the
    /// general time wheel.
    ReadyWheel,
    /// Copies due by the next cycle, which skip the wheel.
    ReadyDirect,
    /// Completion events (master done, slave register write) recorded
    /// for the progress check.
    CompletionEvents,
}

impl WorkCounter {
    /// Number of counters (array dimension for the counts).
    pub const COUNT: usize = 7;

    /// Every counter, in [`WorkCounter::index`] order.
    pub const ALL: [WorkCounter; WorkCounter::COUNT] = [
        WorkCounter::OpsDispatched,
        WorkCounter::CopiesIssued,
        WorkCounter::ReadyExamined,
        WorkCounter::CopiesParked,
        WorkCounter::ReadyWheel,
        WorkCounter::ReadyDirect,
        WorkCounter::CompletionEvents,
    ];

    /// Dense index for per-counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name (used as a JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkCounter::OpsDispatched => "ops_dispatched",
            WorkCounter::CopiesIssued => "copies_issued",
            WorkCounter::ReadyExamined => "ready_examined",
            WorkCounter::CopiesParked => "copies_parked",
            WorkCounter::ReadyWheel => "ready_wheel",
            WorkCounter::ReadyDirect => "ready_direct",
            WorkCounter::CompletionEvents => "completion_events",
        }
    }
}

/// Host-phase profiling hook points. Every method has an empty default
/// body; call sites are gated on [`HostProf::ENABLED`] so the default
/// [`NullHostProf`] build carries no profiling code at all.
#[allow(unused_variables)]
pub trait HostProf {
    /// Monomorphization-time switch: when `false` (the
    /// [`NullHostProf`]), every hook site compiles out entirely.
    const ENABLED: bool = true;

    /// The run loop is about to start; resets the telescoping clock.
    fn begin(&mut self) {}

    /// The current phase ended *now*: charge the span since the last
    /// sample to `phase` and restart the clock.
    fn mark(&mut self, phase: HostPhase) {}

    /// One live (actually stepped) cycle finished.
    fn live_cycle(&mut self) {}

    /// The engine did `n` more units of `counter`'s work.
    fn count(&mut self, counter: WorkCounter, n: u64) {}

    /// The run loop exited; charges the tail to
    /// [`HostPhase::Loop`] and freezes the elapsed total.
    fn finish(&mut self) {}
}

/// The disabled profiler: all hook sites compile out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHostProf;

impl HostProf for NullHostProf {
    const ENABLED: bool = false;
}

/// Forwarding implementation so a profiled run can keep ownership of
/// its profiler (`sim.run()` borrows `&mut H`).
impl<H: HostProf + ?Sized> HostProf for &mut H {
    const ENABLED: bool = H::ENABLED;

    fn begin(&mut self) {
        (**self).begin();
    }

    fn mark(&mut self, phase: HostPhase) {
        (**self).mark(phase);
    }

    fn live_cycle(&mut self) {
        (**self).live_cycle();
    }

    fn count(&mut self, counter: WorkCounter, n: u64) {
        (**self).count(counter, n);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Permitted slack between the telescoped phase total and the
/// independently measured elapsed wall time. The gap is exactly the
/// profiler's own entry/exit clock reads — nanoseconds on a quiet host
/// — but the final read can land after an OS preemption, so the stated
/// bound is generous: 5 ms.
pub const HOSTPROF_SLOP_NS: u64 = 5_000_000;

/// Clock reads timed back to back by [`HostProf::begin`] to calibrate
/// the cost of one mark.
const CALIBRATION_READS: u32 = 256;

/// The batteries-included [`HostProf`]: telescoping per-phase
/// nanosecond buckets, a live-cycle counter and the work counts.
#[derive(Debug, Clone)]
pub struct PhaseProf {
    /// End of the previous phase (start of the current one).
    last: Instant,
    /// When [`HostProf::begin`] ran.
    start: Instant,
    phase_ns: [u64; HostPhase::COUNT],
    live_cycles: u64,
    marks: u64,
    clock_ns: f64,
    work: [u64; WorkCounter::COUNT],
    elapsed_ns: u64,
}

impl Default for PhaseProf {
    fn default() -> PhaseProf {
        PhaseProf::new()
    }
}

impl PhaseProf {
    /// A fresh profiler (the clock restarts at [`HostProf::begin`]).
    #[must_use]
    pub fn new() -> PhaseProf {
        let now = Instant::now();
        PhaseProf {
            last: now,
            start: now,
            phase_ns: [0; HostPhase::COUNT],
            live_cycles: 0,
            marks: 0,
            clock_ns: 0.0,
            work: [0; WorkCounter::COUNT],
            elapsed_ns: 0,
        }
    }

    /// The finished report.
    #[must_use]
    pub fn report(&self, cycles: u64) -> HostProfReport {
        HostProfReport {
            phase_ns: self.phase_ns,
            live_cycles: self.live_cycles,
            cycles,
            elapsed_ns: self.elapsed_ns,
            marks: self.marks,
            clock_ns: self.clock_ns,
            work: self.work,
        }
    }
}

impl HostProf for PhaseProf {
    fn begin(&mut self) {
        // Every mark is one clock read; time a burst of them so the
        // report can state what the marks themselves cost.
        let first = Instant::now();
        let mut last = first;
        for _ in 0..CALIBRATION_READS {
            last = std::hint::black_box(Instant::now());
        }
        self.clock_ns =
            last.duration_since(first).as_nanos() as f64 / f64::from(CALIBRATION_READS);
        let now = Instant::now();
        self.start = now;
        self.last = now;
    }

    #[inline]
    fn mark(&mut self, phase: HostPhase) {
        let now = Instant::now();
        self.phase_ns[phase.index()] +=
            now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.marks += 1;
    }

    #[inline]
    fn live_cycle(&mut self) {
        self.live_cycles += 1;
    }

    #[inline]
    fn count(&mut self, counter: WorkCounter, n: u64) {
        self.work[counter.index()] += n;
    }

    fn finish(&mut self) {
        self.mark(HostPhase::Loop);
        self.elapsed_ns = self.start.elapsed().as_nanos() as u64;
    }
}

/// Per-phase host-time breakdown of one profiled run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfReport {
    /// Nanoseconds charged to each phase, indexed by
    /// [`HostPhase::index`].
    pub phase_ns: [u64; HostPhase::COUNT],
    /// Cycles the engine actually stepped (simulated cycles minus
    /// fast-forwarded ones).
    pub live_cycles: u64,
    /// Total simulated cycles of the run.
    pub cycles: u64,
    /// Independently measured wall time from [`HostProf::begin`] to
    /// [`HostProf::finish`] (one clock read past the last mark).
    pub elapsed_ns: u64,
    /// Phase marks taken, the final one included: each is one clock
    /// read inside the timed span.
    pub marks: u64,
    /// Host nanoseconds one clock read took, calibrated at
    /// [`HostProf::begin`]. `marks * clock_ns` estimates how much of
    /// the phase total is the profiler timing itself.
    pub clock_ns: f64,
    /// Deterministic work counts, indexed by [`WorkCounter::index`].
    pub work: [u64; WorkCounter::COUNT],
}

impl HostProfReport {
    /// Sum of the per-phase buckets. By the telescoping construction
    /// this equals the span between the first and last clock sample
    /// exactly.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Mean host nanoseconds per live cycle.
    #[must_use]
    pub fn ns_per_live_cycle(&self) -> f64 {
        if self.live_cycles == 0 {
            0.0
        } else {
            self.total_ns() as f64 / self.live_cycles as f64
        }
    }

    /// Clock reads per live cycle.
    #[must_use]
    pub fn marks_per_live_cycle(&self) -> f64 {
        if self.live_cycles == 0 {
            0.0
        } else {
            self.marks as f64 / self.live_cycles as f64
        }
    }

    /// The share of [`HostProfReport::ns_per_live_cycle`] that is the
    /// profiler's own clock reads.
    #[must_use]
    pub fn clock_ns_per_live_cycle(&self) -> f64 {
        self.marks_per_live_cycle() * self.clock_ns
    }

    /// The count of `counter`.
    #[must_use]
    pub fn work(&self, counter: WorkCounter) -> u64 {
        self.work[counter.index()]
    }

    /// The sum-to-elapsed identity: the telescoped phase total can
    /// never exceed the independently measured elapsed time, and can
    /// trail it only by the profiler's own entry/exit clock reads
    /// ([`HOSTPROF_SLOP_NS`]).
    ///
    /// # Errors
    ///
    /// A rendered description of the violated bound.
    pub fn check_identity(&self) -> Result<(), String> {
        let total = self.total_ns();
        if total > self.elapsed_ns {
            return Err(format!(
                "hostprof identity: phase total {total} ns exceeds elapsed {} ns",
                self.elapsed_ns
            ));
        }
        let gap = self.elapsed_ns - total;
        if gap > HOSTPROF_SLOP_NS {
            return Err(format!(
                "hostprof identity: elapsed {} ns minus phase total {total} ns \
                 leaves {gap} ns unattributed (slop {HOSTPROF_SLOP_NS} ns)",
                self.elapsed_ns
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        for (i, phase) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        let mut names: Vec<&str> = HostPhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HostPhase::COUNT, "names are unique");
    }

    #[test]
    fn null_hostprof_is_disabled() {
        const { assert!(!NullHostProf::ENABLED) };
        const { assert!(!<&mut NullHostProf as HostProf>::ENABLED) };
        const { assert!(<&mut PhaseProf as HostProf>::ENABLED) };
    }

    #[test]
    fn telescoped_marks_satisfy_the_identity() {
        let mut prof = PhaseProf::new();
        prof.begin();
        for _ in 0..1000 {
            prof.mark(HostPhase::TimeQ);
            prof.mark(HostPhase::Retire);
            prof.mark(HostPhase::Issue);
            prof.mark(HostPhase::Dispatch);
            prof.live_cycle();
        }
        prof.finish();
        let report = prof.report(1000);
        assert_eq!(report.live_cycles, 1000);
        assert_eq!(report.marks, 4001, "four marks a cycle plus the final one");
        assert!(report.clock_ns > 0.0, "begin calibrated the clock");
        report.check_identity().expect("identity holds");
        assert!(report.total_ns() > 0, "marks charged time");
        assert!(report.total_ns() <= report.elapsed_ns);
        assert!(report.ns_per_live_cycle() > 0.0);
    }

    #[test]
    fn work_counters_are_dense_named_and_summed() {
        for (i, counter) in WorkCounter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
        }
        let mut names: Vec<&str> = WorkCounter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WorkCounter::COUNT, "names are unique");
        let mut prof = PhaseProf::new();
        prof.count(WorkCounter::CopiesIssued, 3);
        prof.count(WorkCounter::CopiesIssued, 4);
        assert_eq!(prof.report(0).work(WorkCounter::CopiesIssued), 7);
        assert_eq!(prof.report(0).work(WorkCounter::ReadyExamined), 0);
    }

    #[test]
    fn identity_rejects_overrun_and_unattributed_gaps() {
        let mut over = HostProfReport { elapsed_ns: 10, ..HostProfReport::default() };
        over.phase_ns[0] = 20;
        assert!(over.check_identity().unwrap_err().contains("exceeds elapsed"));
        let mut gap = HostProfReport {
            elapsed_ns: HOSTPROF_SLOP_NS + 100,
            ..HostProfReport::default()
        };
        gap.phase_ns[0] = 50;
        assert!(gap.check_identity().unwrap_err().contains("unattributed"));
    }
}
