//! Per-instruction pipeline lifecycle tracing.
//!
//! [`PipeTraceProbe`] records, for every dynamic op inside a selectable
//! `[start, end)` sequence window, the full lifecycle — fetch,
//! dispatch, master issue, completion, retire — plus the assigned
//! clusters, replay count, stall annotations, and the inter-cluster
//! operand-delivery edges (producer → consumer through a transfer
//! buffer, with the buffer occupancy at the delivery). Squashed
//! incarnations are kept separately so viewers can render flushed work;
//! they never enter the retired identity set.
//!
//! Memory is bounded: live records track the in-flight window (plus at
//! most one stalled fetch group), and only retired ops, flushed
//! incarnations, and edges inside the selected range are retained.
//!
//! The probe hangs off the same zero-cost [`Probe`] hooks as the rest
//! of the observability stack — with [`super::NullProbe`] every hook
//! site compiles out, and an enabled probe observes without perturbing,
//! so uninstrumented output stays byte-identical.

use std::collections::VecDeque;

use mcl_isa::ClusterId;

use super::{CopyKind, DeliverySource, IssueBlock, Probe, StallCause, TransferKind, TransferPhase};

/// Lifecycle of one retired dynamic op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLifecycle {
    /// Dynamic sequence number (the trace index).
    pub seq: u64,
    /// Cycle the instruction cache delivered the op's line.
    pub fetch: u64,
    /// Cycle the op entered the window.
    pub dispatch: u64,
    /// Cycle the master copy issued.
    pub issue: u64,
    /// Cycle the master copy's result became visible.
    pub complete: u64,
    /// Cycle the op retired.
    pub retire: u64,
    /// Cluster the master copy executed in.
    pub master: ClusterId,
    /// Slave cluster for dual-distributed ops.
    pub slave: Option<ClusterId>,
    /// Cycle the slave copy issued, if it did.
    pub slave_issue: Option<u64>,
    /// Squashed-and-redispatched incarnations that preceded this one.
    pub replays: u32,
    /// The op was inserted by the trace scheduler (not architectural).
    pub sched_inserted: bool,
    /// The master's result crossed to the slave cluster.
    pub slave_receives: bool,
    /// The op is a load that missed in the D-cache.
    pub load_miss: bool,
    /// Cause of the last whole-cycle dispatch stall between fetch and
    /// dispatch, when the op did not dispatch the cycle it was fetched.
    pub dispatch_stall: Option<StallCause>,
    /// Cycles a ready copy was scanned but lost the issue-width race.
    pub blocked_width: u32,
    /// Cycles the slave copy stalled on a full operand transfer buffer.
    pub blocked_otb: u32,
    /// Cycles the master stalled on a full result transfer buffer.
    pub blocked_rtb: u32,
}

/// A squashed incarnation of an op (replay recovery flushed it before
/// retirement; the op re-dispatched afterwards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushedOp {
    /// Dynamic sequence number the incarnation would have retired as.
    pub seq: u64,
    /// Fetch cycle of this incarnation.
    pub fetch: u64,
    /// Dispatch cycle, when the incarnation reached the window.
    pub dispatch: Option<u64>,
    /// Master issue cycle, when the incarnation got that far.
    pub issue: Option<u64>,
    /// Cycle the replay squash flushed it.
    pub squash: u64,
    /// Master cluster, when dispatched.
    pub master: Option<ClusterId>,
}

/// One inter-cluster operand delivery: `consumer`'s master copy became
/// able to read the value `producer` computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowEdge {
    /// Op that produced the value.
    pub producer: u64,
    /// Op whose master copy received it.
    pub consumer: u64,
    /// Cycle the value became readable in the consuming cluster.
    pub deliver: u64,
    /// Buffer the value crossed through: [`TransferKind::Operand`] when
    /// the consumer's slave forwarded it, [`TransferKind::Result`] when
    /// the producer's slave write carried it across.
    pub kind: TransferKind,
    /// Occupied entries in the crossed buffer when the delivery fired.
    pub occupancy: u32,
}

/// In-flight record: one live incarnation, keyed `base + index`.
#[derive(Debug, Clone, Default)]
struct LiveRec {
    fetch: u64,
    dispatch: Option<u64>,
    issue: Option<u64>,
    complete: Option<u64>,
    master: Option<ClusterId>,
    slave: Option<ClusterId>,
    slave_issue: Option<u64>,
    sched_inserted: bool,
    slave_receives: bool,
    load_miss: bool,
    dispatch_stall: Option<StallCause>,
    blocked_width: u32,
    blocked_otb: u32,
    blocked_rtb: u32,
    /// Producers of forwarded operands, resolved at dispatch; popped in
    /// order as the slave's forwards deliver.
    fwd_producers: VecDeque<u64>,
    otb_held: bool,
    rtb_held: bool,
}

/// Finished snapshot of a traced run (see [`PipeTraceProbe::finish`]).
#[derive(Debug, Clone, Default)]
pub struct PipeTrace {
    /// Start of the recorded sequence range (inclusive).
    pub range_start: u64,
    /// End of the recorded sequence range (exclusive).
    pub range_end: u64,
    /// Retired ops inside the range, in retirement (= sequence) order.
    pub ops: Vec<OpLifecycle>,
    /// Squashed incarnations inside the range, in squash order.
    pub flushed: Vec<FlushedOp>,
    /// Inter-cluster deliveries between in-range retired ops.
    pub edges: Vec<DataflowEdge>,
    /// Every retirement the probe saw, range or not.
    pub retired_total: u64,
}

impl PipeTrace {
    /// Retired ops the range should hold for a run that retired
    /// `stats_retired` ops: sequence numbers are dense from zero, so
    /// the range clips against the retirement count on both ends.
    #[must_use]
    pub fn expected_ops(&self, stats_retired: u64) -> u64 {
        self.range_end.min(stats_retired) - self.range_start.min(stats_retired)
    }

    /// The retire-exactness identity: every retired op in range appears
    /// exactly once with monotone lifecycle stamps (fetch ≤ dispatch ≤
    /// issue ≤ complete ≤ retire), every edge endpoint references a
    /// recorded retired op with a delivery no later than the consumer's
    /// issue, and the totals agree with [`crate::stats::SimStats`].
    ///
    /// # Errors
    /// A description of the first violated clause, naming both sides.
    pub fn check_identity(&self, stats_retired: u64) -> Result<(), String> {
        if self.retired_total != stats_retired {
            return Err(format!(
                "pipetrace saw {} retirements != {} SimStats retirements",
                self.retired_total, stats_retired
            ));
        }
        let expected = self.expected_ops(stats_retired);
        if self.ops.len() as u64 != expected {
            return Err(format!(
                "pipetrace recorded {} op(s) != {} expected in range {}..{} of {} retired",
                self.ops.len(),
                expected,
                self.range_start,
                self.range_end,
                stats_retired
            ));
        }
        for (i, op) in self.ops.iter().enumerate() {
            let want = self.range_start.min(stats_retired) + i as u64;
            if op.seq != want {
                return Err(format!(
                    "op {i} has seq {} != {want}: retired ops must appear exactly once, in order",
                    op.seq
                ));
            }
            let stages = [
                ("fetch", op.fetch),
                ("dispatch", op.dispatch),
                ("issue", op.issue),
                ("complete", op.complete),
                ("retire", op.retire),
            ];
            for pair in stages.windows(2) {
                let ((a, at), (b, bt)) = (pair[0], pair[1]);
                if at > bt {
                    return Err(format!(
                        "op {} lifecycle not monotone: {a} {at} > {b} {bt}",
                        op.seq
                    ));
                }
            }
        }
        let in_range =
            |seq: u64| seq >= self.range_start.min(stats_retired) && seq < self.range_end.min(stats_retired);
        for (i, e) in self.edges.iter().enumerate() {
            if !in_range(e.producer) {
                return Err(format!(
                    "edge {i} producer {} is not a recorded retired op (range {}..{})",
                    e.producer, self.range_start, self.range_end
                ));
            }
            if !in_range(e.consumer) {
                return Err(format!(
                    "edge {i} consumer {} is not a recorded retired op (range {}..{})",
                    e.consumer, self.range_start, self.range_end
                ));
            }
            let base = self.range_start.min(stats_retired);
            let consumer = &self.ops[(e.consumer - base) as usize];
            if e.deliver > consumer.issue {
                return Err(format!(
                    "edge {i} delivered at {} after consumer {} issued at {}",
                    e.deliver, e.consumer, consumer.issue
                ));
            }
        }
        for f in &self.flushed {
            if self.ops.binary_search_by_key(&f.seq, |o| o.seq).is_err() && in_range(f.seq) {
                return Err(format!(
                    "flushed incarnation of {} has no retired record in range",
                    f.seq
                ));
            }
        }
        Ok(())
    }
}

/// The lifecycle recorder. Construct with a range, run an observed
/// simulation, then [`PipeTraceProbe::finish`].
#[derive(Debug, Clone)]
pub struct PipeTraceProbe {
    range_start: u64,
    range_end: u64,
    base: u64,
    recs: VecDeque<LiveRec>,
    out: PipeTrace,
    last_stall: Option<(u64, StallCause)>,
    otb_used: [u32; 2],
    rtb_used: [u32; 2],
}

impl PipeTraceProbe {
    /// Records ops with `start <= seq < end`. Pass `0..u64::MAX` for
    /// the whole run.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        PipeTraceProbe {
            range_start: start,
            range_end: end.max(start),
            base: 0,
            recs: VecDeque::new(),
            out: PipeTrace {
                range_start: start,
                range_end: end.max(start),
                ..PipeTrace::default()
            },
            last_stall: None,
            otb_used: [0; 2],
            rtb_used: [0; 2],
        }
    }

    fn in_range(&self, seq: u64) -> bool {
        seq >= self.range_start && seq < self.range_end
    }

    fn rec_mut(&mut self, seq: u64) -> Option<&mut LiveRec> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.recs.get_mut(idx)
    }

    /// Consumes the probe, counting each retired op's flushed
    /// incarnations into its replay count.
    #[must_use]
    pub fn finish(mut self) -> PipeTrace {
        for f in &self.out.flushed {
            if f.dispatch.is_none() {
                continue; // front-end retry, not a pipeline incarnation
            }
            let base = self.range_start;
            if let Some(op) = self
                .out
                .ops
                .get_mut(usize::try_from(f.seq - base).unwrap_or(usize::MAX))
            {
                debug_assert_eq!(op.seq, f.seq);
                op.replays += 1;
            }
        }
        self.out
    }
}

impl Probe for PipeTraceProbe {
    fn fetched(&mut self, cycle: u64, seq: u64) {
        // Stalled fetch groups retry: keep the first firing as the
        // fetch cycle of this incarnation.
        if seq < self.base + self.recs.len() as u64 {
            return;
        }
        if self.recs.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(seq, self.base + self.recs.len() as u64, "fetch order is dense");
        self.recs.push_back(LiveRec { fetch: cycle, ..LiveRec::default() });
    }

    fn dispatched(&mut self, cycle: u64, seq: u64, master: ClusterId, slave: Option<ClusterId>) {
        let stall = self
            .last_stall
            .filter(|&(c, _)| c <= cycle)
            .map(|(_, cause)| cause);
        if let Some(rec) = self.rec_mut(seq) {
            rec.dispatch = Some(cycle);
            rec.master = Some(master);
            rec.slave = slave;
            // Annotate the stall that delayed this op past its fetch
            // cycle, when one did.
            if let Some(cause) = stall {
                if rec.fetch < cycle {
                    rec.dispatch_stall = Some(cause);
                }
            }
        } else {
            debug_assert!(false, "dispatch without a fetch record for {seq}");
        }
    }

    fn op_dispatch_meta(
        &mut self,
        seq: u64,
        sched_inserted: bool,
        slave_receives: bool,
        _ready_floor: u64,
        _ready_known: bool,
    ) {
        if let Some(rec) = self.rec_mut(seq) {
            rec.sched_inserted = sched_inserted;
            rec.slave_receives = slave_receives;
        }
    }

    fn forwarded_operand_source(&mut self, seq: u64, producer: u64) {
        // Fires while `seq` is the op being dispatched; its record
        // exists (fetch precedes dispatch in the same pass).
        if let Some(rec) = self.rec_mut(seq) {
            rec.fwd_producers.push_back(producer);
        }
    }

    fn operand_delivered(
        &mut self,
        seq: u64,
        avail: u64,
        source: DeliverySource,
        producer: Option<u64>,
    ) {
        if !self.in_range(seq) {
            return;
        }
        let (producer, kind, occupancy) = match source {
            // Local: the producer completed in the consumer's cluster.
            DeliverySource::Completion => return,
            DeliverySource::SlaveWrite => {
                let Some(p) = producer else { return };
                // The write landed in the producer's slave cluster (=
                // the consumer's read cluster); the producer is still
                // live — its write list just fired.
                let Some(cluster) = self
                    .rec_mut(p)
                    .and_then(|r| r.slave)
                    .map(ClusterId::index)
                else {
                    return;
                };
                (p, TransferKind::Result, self.rtb_used[cluster])
            }
            DeliverySource::OperandForward => {
                let Some(rec) = self.rec_mut(seq) else { return };
                let Some(p) = rec.fwd_producers.pop_front() else {
                    return; // architectural source: no producer op
                };
                let Some(cluster) = rec.master.map(ClusterId::index) else { return };
                (p, TransferKind::Operand, self.otb_used[cluster])
            }
        };
        if producer < self.range_start {
            return; // endpoint outside the recorded window
        }
        self.out.edges.push(DataflowEdge {
            producer,
            consumer: seq,
            deliver: avail,
            kind,
            occupancy,
        });
    }

    fn issue_blocked(&mut self, _cycle: u64, seq: u64, cause: IssueBlock) {
        if let Some(rec) = self.rec_mut(seq) {
            match cause {
                IssueBlock::Width => rec.blocked_width += 1,
                IssueBlock::OtbFull => rec.blocked_otb += 1,
                IssueBlock::RtbFull => rec.blocked_rtb += 1,
            }
        }
    }

    fn load_missed(&mut self, seq: u64) {
        if let Some(rec) = self.rec_mut(seq) {
            rec.load_miss = true;
        }
    }

    fn issued(&mut self, cycle: u64, seq: u64, _cluster: ClusterId, copy: CopyKind, done: u64) {
        if let Some(rec) = self.rec_mut(seq) {
            match copy {
                CopyKind::Master => {
                    rec.issue = Some(cycle);
                    rec.complete = Some(done);
                }
                CopyKind::Slave => rec.slave_issue = Some(cycle),
            }
        }
    }

    fn forwarded(
        &mut self,
        _cycle: u64,
        seq: u64,
        kind: TransferKind,
        phase: TransferPhase,
        cluster: ClusterId,
    ) {
        let c = cluster.index();
        let used = match kind {
            TransferKind::Operand => &mut self.otb_used[c],
            TransferKind::Result => &mut self.rtb_used[c],
        };
        match phase {
            TransferPhase::Alloc => *used += 1,
            TransferPhase::Release => *used = used.saturating_sub(1),
        }
        if let Some(rec) = self.rec_mut(seq) {
            let held = match kind {
                TransferKind::Operand => &mut rec.otb_held,
                TransferKind::Result => &mut rec.rtb_held,
            };
            *held = phase == TransferPhase::Alloc;
        }
    }

    fn completed(&mut self, cycle: u64, seq: u64, _cluster: ClusterId) {
        if let Some(rec) = self.rec_mut(seq) {
            rec.complete = Some(cycle);
        }
    }

    fn retired(&mut self, cycle: u64, seq: u64) {
        self.out.retired_total += 1;
        debug_assert_eq!(seq, self.base, "retire is in order");
        let Some(rec) = self.recs.pop_front() else { return };
        self.base = seq + 1;
        if !self.in_range(seq) {
            return;
        }
        self.out.ops.push(OpLifecycle {
            seq,
            fetch: rec.fetch,
            dispatch: rec.dispatch.unwrap_or(rec.fetch),
            issue: rec.issue.unwrap_or(cycle),
            complete: rec.complete.unwrap_or(cycle),
            retire: cycle,
            master: rec.master.unwrap_or(ClusterId::C0),
            slave: rec.slave,
            slave_issue: rec.slave_issue,
            replays: 0, // counted from flushed incarnations in finish()
            sched_inserted: rec.sched_inserted,
            slave_receives: rec.slave_receives,
            load_miss: rec.load_miss,
            dispatch_stall: rec.dispatch_stall,
            blocked_width: rec.blocked_width,
            blocked_otb: rec.blocked_otb,
            blocked_rtb: rec.blocked_rtb,
        });
    }

    fn replayed(&mut self, cycle: u64, from_seq: u64, _squashed: u64) {
        // Flush every incarnation at or past the squash point; the
        // front-end re-dispatches them with fresh records. Held
        // transfer-buffer entries were restored by the squash without
        // release hooks, so the occupancy counters adjust here.
        let keep = usize::try_from(from_seq.saturating_sub(self.base)).unwrap_or(usize::MAX);
        let keep = keep.min(self.recs.len());
        let (start, end, base) = (self.range_start, self.range_end, self.base);
        for (i, rec) in self.recs.drain(keep..).enumerate() {
            let seq = base + (keep + i) as u64;
            if rec.otb_held {
                if let Some(c) = rec.master.map(ClusterId::index) {
                    self.otb_used[c] = self.otb_used[c].saturating_sub(1);
                }
            }
            if rec.rtb_held {
                if let Some(c) = rec.slave.map(ClusterId::index) {
                    self.rtb_used[c] = self.rtb_used[c].saturating_sub(1);
                }
            }
            if seq >= start && seq < end {
                self.out.flushed.push(FlushedOp {
                    seq,
                    fetch: rec.fetch,
                    dispatch: rec.dispatch,
                    issue: rec.issue,
                    squash: cycle,
                    master: rec.master,
                });
            }
        }
        if from_seq <= self.base {
            self.base = from_seq;
        }
        // Deliveries into squashed consumers are stale; the surviving
        // producers will re-fire their lists for the new incarnations.
        self.out.edges.retain(|e| e.consumer < from_seq);
    }

    fn stalled(&mut self, cycle: u64, cause: StallCause) {
        self.last_stall = Some((cycle, cause));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Processor, ProcessorConfig};
    use mcl_isa::ArchReg;
    use mcl_trace::ProgramBuilder;

    fn cross_cluster_program() -> mcl_trace::Program<ArchReg> {
        // Alternating even/odd destinations: every add crosses
        // clusters, exercising forwards, transfer buffers, and dual
        // distribution.
        let mut b = ProgramBuilder::<ArchReg>::new("pipetrace");
        let (e, o) = (ArchReg::int(2), ArchReg::int(3));
        b.lda(e, 0);
        for _ in 0..24 {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        b.ret(ArchReg::ZERO);
        b.finish().expect("valid program")
    }

    /// Deadlocks a one-entry operand transfer buffer so a replay
    /// exception must break the cycle (the shape of tests/replay.rs).
    fn deadlock_program() -> mcl_trace::Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("pipetrace-replay");
        let (r2, r3, r4, r5, r6) =
            (ArchReg::int(2), ArchReg::int(3), ArchReg::int(4), ArchReg::int(5), ArchReg::int(6));
        b.lda(r3, 7);
        b.lda(r4, 9);
        b.lda(r5, 3);
        b.mulq(r5, r5, r5);
        b.mulq(r5, r5, r5);
        b.mulq(r5, r5, r5);
        b.addq(r2, r4, r5);
        b.addq(r6, r2, r3);
        b.finish().expect("valid program")
    }

    fn run_traced(
        program: &mcl_trace::Program<ArchReg>,
        cfg: ProcessorConfig,
        start: u64,
        end: u64,
    ) -> (PipeTrace, crate::stats::SimStats) {
        let plain = Processor::new(cfg.clone()).run_program(program).unwrap().stats;
        let (trace, _) = mcl_trace::vm::trace_program_packed(program, 0).unwrap();
        let mut probe = PipeTraceProbe::new(start, end);
        let observed = Processor::new(cfg).run_packed_observed(&trace, &mut probe).unwrap().stats;
        assert_eq!(observed, plain, "probe perturbed the simulation");
        (probe.finish(), observed)
    }

    fn traced(cfg: ProcessorConfig, start: u64, end: u64) -> (PipeTrace, crate::stats::SimStats) {
        run_traced(&cross_cluster_program(), cfg, start, end)
    }

    #[test]
    fn identity_holds_across_presets_and_probe_does_not_perturb() {
        for cfg in [
            ProcessorConfig::single_cluster_8way(),
            ProcessorConfig::dual_cluster_8way(),
            {
                // Tiny transfer buffers force replays and credit stalls
                // through the flush path.
                let mut tiny = ProcessorConfig::dual_cluster_8way();
                tiny.operand_buffer = 1;
                tiny.result_buffer = 1;
                tiny
            },
        ] {
            let (trace, stats) = traced(cfg, 0, u64::MAX);
            trace.check_identity(stats.retired).unwrap();
            assert_eq!(trace.ops.len() as u64, stats.retired);
        }
    }

    #[test]
    fn dual_cluster_run_records_inter_cluster_edges() {
        let (trace, stats) = traced(ProcessorConfig::dual_cluster_8way(), 0, u64::MAX);
        trace.check_identity(stats.retired).unwrap();
        assert!(
            !trace.edges.is_empty(),
            "alternating-cluster adds must cross clusters"
        );
        for e in &trace.edges {
            assert!(e.producer < e.consumer, "values flow forward in the trace");
        }
        let single = traced(ProcessorConfig::single_cluster_8way(), 0, u64::MAX).0;
        assert!(single.edges.is_empty(), "one cluster has no inter-cluster traffic");
    }

    #[test]
    fn range_clips_both_ends() {
        let (trace, stats) = traced(ProcessorConfig::dual_cluster_8way(), 3, 9);
        trace.check_identity(stats.retired).unwrap();
        assert_eq!(trace.ops.len(), 6);
        assert_eq!(trace.ops[0].seq, 3);
        // A range past the end of the run holds nothing.
        let (empty, stats) = traced(ProcessorConfig::dual_cluster_8way(), stats.retired + 5, u64::MAX);
        empty.check_identity(stats.retired).unwrap();
        assert!(empty.ops.is_empty() && empty.edges.is_empty());
    }

    #[test]
    fn replayed_incarnations_flush_and_count() {
        let mut tiny = ProcessorConfig::dual_cluster_8way();
        tiny.operand_buffer = 1;
        tiny.result_buffer = 1;
        let (trace, stats) = run_traced(&deadlock_program(), tiny, 0, u64::MAX);
        trace.check_identity(stats.retired).unwrap();
        assert!(stats.replays > 0, "tiny buffers must force replays");
        assert!(!trace.flushed.is_empty(), "replays must leave flushed incarnations");
        let replayed: u32 = trace.ops.iter().map(|o| o.replays).sum();
        let dispatched_flushes =
            trace.flushed.iter().filter(|f| f.dispatch.is_some()).count() as u32;
        assert_eq!(replayed, dispatched_flushes, "each dispatched flush is one replay");
        assert!(replayed > 0, "a squashed incarnation re-issued and retired once");
        // A flushed incarnation never enters the retired identity set:
        // ops hold exactly the retired stream, once each.
        assert_eq!(trace.ops.len() as u64, stats.retired);
    }

    #[test]
    fn identity_reports_violations_by_name() {
        let mut trace = PipeTrace {
            range_start: 0,
            range_end: u64::MAX,
            retired_total: 1,
            ..PipeTrace::default()
        };
        let err = trace.check_identity(2).unwrap_err();
        assert!(err.contains("1 retirements != 2"), "{err}");
        trace.retired_total = 2;
        let err = trace.check_identity(2).unwrap_err();
        assert!(err.contains("0 op(s) != 2 expected"), "{err}");
        let op = OpLifecycle {
            seq: 0,
            fetch: 5,
            dispatch: 4,
            issue: 4,
            complete: 4,
            retire: 4,
            master: ClusterId::C0,
            slave: None,
            slave_issue: None,
            replays: 0,
            sched_inserted: false,
            slave_receives: false,
            load_miss: false,
            dispatch_stall: None,
            blocked_width: 0,
            blocked_otb: 0,
            blocked_rtb: 0,
        };
        trace.ops = vec![op.clone(), OpLifecycle { seq: 1, fetch: 0, dispatch: 0, ..op }];
        let err = trace.check_identity(2).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
        trace.ops[0].fetch = 4;
        trace.edges.push(DataflowEdge {
            producer: 7,
            consumer: 0,
            deliver: 0,
            kind: TransferKind::Operand,
            occupancy: 0,
        });
        let err = trace.check_identity(2).unwrap_err();
        assert!(err.contains("producer 7 is not a recorded"), "{err}");
    }

    #[test]
    fn zero_op_trace_is_valid_and_empty() {
        let trace = PipeTraceProbe::new(0, u64::MAX).finish();
        trace.check_identity(0).unwrap();
        assert!(trace.ops.is_empty() && trace.edges.is_empty() && trace.flushed.is_empty());
    }
}
