//! Cycle-sampled observability: probe hook points, interval sampling,
//! latency histograms, and a bounded lifecycle event ring.
//!
//! The simulator is generic over a [`Probe`] that it calls at fixed hook
//! points (dispatch, issue, forward, complete, retire, replay,
//! per-cycle stall attribution, and the timeline events the
//! [`EventLog`](crate::EventLog) records). The default [`NullProbe`] sets
//! [`Probe::ENABLED`] to `false`; every hook site is guarded by
//! `if P::ENABLED`, a monomorphization-time constant, so the
//! uninstrumented simulator compiles to exactly the code it had before
//! this module existed — zero overhead when off, and byte-identical
//! statistics when on (probes observe, never perturb).
//!
//! [`ObsProbe`] is the batteries-included implementation behind the
//! `repro --obs` flag: an [`IntervalSampler`] time series, log2-bucketed
//! [`Histogram`]s of pipeline latencies, and an [`EventRing`] holding
//! the last K lifecycle events for post-mortem rendering through
//! [`crate::pipeview`].

pub mod critpath;
mod histogram;
pub mod hostprof;
pub mod pipetrace;
mod probe;
mod ring;
mod sampler;

pub use critpath::{CritAttribution, CritCause, CritPathProbe};
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use hostprof::{HostPhase, HostProf, HostProfReport, NullHostProf, PhaseProf, WorkCounter};
pub use pipetrace::{DataflowEdge, FlushedOp, OpLifecycle, PipeTrace, PipeTraceProbe};
pub use probe::{ObsConfig, ObsProbe};
pub use ring::EventRing;
pub use sampler::{IntervalSampler, Sample};

use mcl_isa::ClusterId;

use crate::events::EventKind;

/// Which copy of a dual-distributed instruction issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// The master copy (computes the result).
    Master,
    /// The slave copy (forwards an operand or receives the result).
    Slave,
}

/// Which transfer buffer a forwarding hook refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Operand transfer buffer (slave forwards an operand to the master).
    Operand,
    /// Result transfer buffer (master forwards its result to the slave).
    Result,
}

/// Whether a transfer-buffer hook marks entry allocation or release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPhase {
    /// An entry was allocated at the hook cycle.
    Alloc,
    /// The entry becomes reusable at the hook cycle.
    Release,
}

/// The cause a whole cycle was charged to when nothing dispatched.
///
/// Mirrors the [`crate::stats::SimStats`] stall counters one-to-one,
/// except that `stall_branch` splits into [`StallCause::BranchWait`]
/// (fetch blocked behind an unresolved mispredicted branch) and
/// [`StallCause::BranchRedirect`] (the post-resolution redirect cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Instruction-cache miss.
    Icache,
    /// Unresolved mispredicted branch blocks fetch.
    BranchWait,
    /// Redirect cycle after a mispredicted branch resolved.
    BranchRedirect,
    /// No dispatch-queue entry in some required cluster.
    DispatchQueue,
    /// No physical register in some required cluster.
    Registers,
    /// Replay-exception recovery penalty.
    Replay,
    /// Dynamic-reassignment drain or state-movement penalty.
    Reassign,
}

impl StallCause {
    /// Number of stall causes (array dimension for breakdowns).
    pub const COUNT: usize = 7;

    /// Every cause, in [`StallCause::index`] order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::Icache,
        StallCause::BranchWait,
        StallCause::BranchRedirect,
        StallCause::DispatchQueue,
        StallCause::Registers,
        StallCause::Replay,
        StallCause::Reassign,
    ];

    /// Dense index for per-cause arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StallCause::Icache => 0,
            StallCause::BranchWait => 1,
            StallCause::BranchRedirect => 2,
            StallCause::DispatchQueue => 3,
            StallCause::Registers => 4,
            StallCause::Replay => 5,
            StallCause::Reassign => 6,
        }
    }

    /// Stable machine-readable name (used as a JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Icache => "icache",
            StallCause::BranchWait => "branch_wait",
            StallCause::BranchRedirect => "branch_redirect",
            StallCause::DispatchQueue => "dispatch_queue",
            StallCause::Registers => "registers",
            StallCause::Replay => "replay",
            StallCause::Reassign => "reassign",
        }
    }
}

/// Where a delivered master-copy operand came from (passed to
/// [`Probe::operand_delivered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverySource {
    /// The producer's master copy completed in a cluster the consumer
    /// reads from directly (no inter-cluster transfer).
    Completion,
    /// The producer's slave copy wrote its register copy — the value
    /// crossed clusters through the result transfer buffer.
    SlaveWrite,
    /// The consumer's own slave copy forwarded the operand through the
    /// operand transfer buffer (Section 2.1 scenario two).
    OperandForward,
}

/// Why an otherwise-ready instruction could not issue this cycle
/// (passed to [`Probe::issue_blocked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueBlock {
    /// Issue-slot budget for the op's class was exhausted (including a
    /// busy unpipelined divider).
    Width,
    /// A dual-distributed slave could not forward an operand: the
    /// master cluster's operand transfer buffer is full.
    OtbFull,
    /// A dual-distributed master could not issue: the slave cluster's
    /// result transfer buffer is full.
    RtbFull,
}

/// End-of-cycle occupancy snapshot passed to [`Probe::cycle_end`].
///
/// `*_used` counts are capacity minus the free count at the end of the
/// cycle; register free counts are signed because the free lists are
/// (they may transiently owe entries under fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleSnapshot {
    /// The cycle that just finished.
    pub cycle: u64,
    /// In-flight instructions in the window.
    pub window: u32,
    /// Occupied dispatch-queue entries, per cluster.
    pub dq_used: [u32; 2],
    /// Occupied operand-transfer-buffer entries, per cluster.
    pub otb_used: [u32; 2],
    /// Occupied result-transfer-buffer entries, per cluster.
    pub rtb_used: [u32; 2],
    /// Free integer physical registers, per cluster.
    pub int_free: [i64; 2],
    /// Free floating-point physical registers, per cluster.
    pub fp_free: [i64; 2],
}

/// Simulator hook points.
///
/// Every method has an empty default body; implement only what you
/// need. All hooks are called *after* the simulator has updated its own
/// state for the event, and never influence simulation — a probe sees,
/// it does not touch. Cycles passed to hooks may lie in the future
/// relative to the current cycle ([`Probe::completed`] reports the
/// completion cycle at issue time, the way the event log does).
#[allow(unused_variables)]
pub trait Probe {
    /// Monomorphization-time switch: when `false` (the [`NullProbe`]),
    /// every hook site compiles out entirely.
    const ENABLED: bool = true;

    /// The instruction cache delivered the line holding `seq` this
    /// cycle; the op is in the fetch group but may still stall at
    /// dispatch (queue or register pressure). Fires again on every
    /// retry cycle of a stalled group — a lifecycle recorder keeps the
    /// first firing per incarnation as the fetch cycle.
    fn fetched(&mut self, cycle: u64, seq: u64) {}

    /// An instruction entered the window (master and optional slave).
    fn dispatched(&mut self, cycle: u64, seq: u64, master: ClusterId, slave: Option<ClusterId>) {}

    /// Dispatch-time metadata for the op that just [`Probe::dispatched`]:
    /// scheduler provenance, whether the master's result must cross to a
    /// slave cluster, the earliest cycle its already-known operands
    /// allow issue (`ready_floor`), and whether *all* operands were
    /// known at dispatch (no outstanding producers).
    fn op_dispatch_meta(
        &mut self,
        seq: u64,
        sched_inserted: bool,
        slave_receives: bool,
        ready_floor: u64,
        ready_known: bool,
    ) {
    }

    /// Rename resolved a forwarded operand of `seq` (dispatch time):
    /// the slave copy will read the value `producer` wrote. Fires once
    /// per forwarded source with an in-flight producer, before
    /// [`Probe::dispatched`] for `seq`; [`Probe::operand_delivered`]
    /// with [`DeliverySource::OperandForward`] carries no producer, so
    /// edge builders resolve it from this hook.
    fn forwarded_operand_source(&mut self, seq: u64, producer: u64) {}

    /// An outstanding master-copy operand of `seq` was delivered; the
    /// value becomes usable at cycle `avail`. `source` says how the
    /// value reached the master's cluster and `producer` names the
    /// in-flight op whose completion or register write triggered the
    /// delivery (`None` for [`DeliverySource::OperandForward`] — see
    /// [`Probe::forwarded_operand_source`]).
    fn operand_delivered(
        &mut self,
        seq: u64,
        avail: u64,
        source: DeliverySource,
        producer: Option<u64>,
    ) {
    }

    /// A ready instruction was scanned by the issue logic this cycle
    /// but could not issue, for `cause`.
    fn issue_blocked(&mut self, cycle: u64, seq: u64, cause: IssueBlock) {}

    /// The load at `seq` missed in the D-cache (reported at issue time).
    fn load_missed(&mut self, seq: u64) {}

    /// A copy issued in `cluster`; `done` is the cycle its effect
    /// becomes visible (master completion, operand/result write).
    fn issued(&mut self, cycle: u64, seq: u64, cluster: ClusterId, copy: CopyKind, done: u64) {}

    /// A transfer-buffer entry was allocated or released in `cluster`.
    fn forwarded(
        &mut self,
        cycle: u64,
        seq: u64,
        kind: TransferKind,
        phase: TransferPhase,
        cluster: ClusterId,
    ) {
    }

    /// The master copy's completion cycle became known (reported at
    /// issue time; `cycle` is the completion cycle itself).
    fn completed(&mut self, cycle: u64, seq: u64, cluster: ClusterId) {}

    /// An instruction retired.
    fn retired(&mut self, cycle: u64, seq: u64) {}

    /// A replay exception squashed `squashed` instructions, restarting
    /// dispatch from `from_seq`.
    fn replayed(&mut self, cycle: u64, from_seq: u64, squashed: u64) {}

    /// A whole cycle passed with no dispatch, charged to `cause`.
    fn stalled(&mut self, cycle: u64, cause: StallCause) {}

    /// A simulated cycle finished; `snap` is the end-of-cycle occupancy.
    fn cycle_end(&mut self, snap: &CycleSnapshot) {}

    /// One entry of the Figures 2–5 timelines ([`crate::EventLog`]):
    /// `kind` happened to `seq` (in `cluster`, if any) at `cycle`, which
    /// may lie in the future.
    fn event(&mut self, cycle: u64, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {}
}

/// The disabled probe: all hook sites compile out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// Forwarding implementation so an observed run can keep ownership of
/// its probe (`sim.run()` borrows `&mut P`).
impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    fn fetched(&mut self, cycle: u64, seq: u64) {
        (**self).fetched(cycle, seq);
    }

    fn dispatched(&mut self, cycle: u64, seq: u64, master: ClusterId, slave: Option<ClusterId>) {
        (**self).dispatched(cycle, seq, master, slave);
    }

    fn op_dispatch_meta(
        &mut self,
        seq: u64,
        sched_inserted: bool,
        slave_receives: bool,
        ready_floor: u64,
        ready_known: bool,
    ) {
        (**self).op_dispatch_meta(seq, sched_inserted, slave_receives, ready_floor, ready_known);
    }

    fn forwarded_operand_source(&mut self, seq: u64, producer: u64) {
        (**self).forwarded_operand_source(seq, producer);
    }

    fn operand_delivered(
        &mut self,
        seq: u64,
        avail: u64,
        source: DeliverySource,
        producer: Option<u64>,
    ) {
        (**self).operand_delivered(seq, avail, source, producer);
    }

    fn issue_blocked(&mut self, cycle: u64, seq: u64, cause: IssueBlock) {
        (**self).issue_blocked(cycle, seq, cause);
    }

    fn load_missed(&mut self, seq: u64) {
        (**self).load_missed(seq);
    }

    fn issued(&mut self, cycle: u64, seq: u64, cluster: ClusterId, copy: CopyKind, done: u64) {
        (**self).issued(cycle, seq, cluster, copy, done);
    }

    fn forwarded(
        &mut self,
        cycle: u64,
        seq: u64,
        kind: TransferKind,
        phase: TransferPhase,
        cluster: ClusterId,
    ) {
        (**self).forwarded(cycle, seq, kind, phase, cluster);
    }

    fn completed(&mut self, cycle: u64, seq: u64, cluster: ClusterId) {
        (**self).completed(cycle, seq, cluster);
    }

    fn retired(&mut self, cycle: u64, seq: u64) {
        (**self).retired(cycle, seq);
    }

    fn replayed(&mut self, cycle: u64, from_seq: u64, squashed: u64) {
        (**self).replayed(cycle, from_seq, squashed);
    }

    fn stalled(&mut self, cycle: u64, cause: StallCause) {
        (**self).stalled(cycle, cause);
    }

    fn cycle_end(&mut self, snap: &CycleSnapshot) {
        (**self).cycle_end(snap);
    }

    fn event(&mut self, cycle: u64, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {
        (**self).event(cycle, seq, cluster, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cause_indices_are_dense_and_stable() {
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        let mut names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallCause::COUNT, "names are unique");
    }

    #[test]
    fn null_probe_is_disabled() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(!<&mut NullProbe as Probe>::ENABLED) };
        const { assert!(<&mut ObsProbe as Probe>::ENABLED) };
    }
}
