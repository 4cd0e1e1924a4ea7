//! Critical-path cycle-loss attribution.
//!
//! [`CritPathProbe`] maintains a last-arrival dependence record per
//! in-flight instruction: which edge determined the cycle each op could
//! finally issue — operand data dependence, an inter-cluster operand
//! forward, transfer-buffer credit, issue-width contention — plus its
//! dispatch, completion, and D-cache behaviour. At every retire the
//! probe walks the record of the instruction *gating* retirement (the
//! oldest op of the cycle's retire batch) and charges each cycle of the
//! retire gap to exactly one [`CritCause`].
//!
//! The attribution is **exact by construction**: retire cycles are
//! monotone, every gap `(previous retire, this retire]` is charged
//! once, and the post-trace drain tail is charged to
//! [`CritCause::Drain`] — so the per-cause cycles sum to the run's
//! total cycle count. [`CritAttribution::check_identity`] enforces this
//! the way [`crate::stats::SimStats::check_stall_identity`] enforces
//! the coarse stall identity, and `repro selftest` demands it for every
//! Table 2 cell.
//!
//! Cycles *before* the gating op dispatched are charged per-cycle to
//! the front-end cause the simulator recorded through
//! [`Probe::stalled`] (or [`CritCause::FrontBandwidth`] when dispatch
//! was active but had not reached the op yet). Cycles where the gating
//! op was scheduler-inserted spill code are charged wholesale to
//! [`CritCause::SchedSpill`], attributing the cost of cross-cluster
//! live-range splits to the scheduling pass that created them.

use std::collections::VecDeque;

use mcl_isa::ClusterId;

use super::{CopyKind, DeliverySource, IssueBlock, Probe, StallCause};

/// Where a cycle of execution time went, at retire-gap resolution.
///
/// The first group is resolved from the gating op's own dependence
/// record; the `Front*` causes mirror the simulator's front-end stall
/// attribution for cycles before the gating op entered the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CritCause {
    /// The gating op was spill code inserted by the scheduler for a
    /// cross-cluster live-range split.
    SchedSpill,
    /// Waiting on a same-cluster operand (true data dependence).
    DataDep,
    /// Waiting on an operand forwarded across clusters, or (for a
    /// result-forwarding op) on the inter-cluster result transfer
    /// between completion and retirement.
    InterClusterForward,
    /// The forwarding slave copy stalled on operand-transfer-buffer
    /// credit before the operand could cross.
    OtbCredit,
    /// The master copy stalled on result-transfer-buffer credit in the
    /// slave's cluster.
    RtbCredit,
    /// Ready, but issue-slot budget (or the unpipelined divider) was
    /// exhausted.
    IssueWidth,
    /// Execution latency of a load that missed in the D-cache.
    DcacheMiss,
    /// Ordinary execution latency (issue to completion, D-cache hits
    /// included).
    Execution,
    /// Complete but waiting for older instructions or retire bandwidth.
    RetireWait,
    /// Front end stalled on an instruction-cache miss.
    FrontIcache,
    /// Front end stalled behind a mispredicted branch (wait or
    /// redirect).
    FrontBranch,
    /// Front end stalled on dispatch-queue space.
    FrontDq,
    /// Front end stalled on physical registers.
    FrontRegs,
    /// Front end stalled in replay-exception recovery.
    FrontReplay,
    /// Front end stalled draining for a dynamic reassignment.
    FrontReassign,
    /// Front end was dispatching, but had not reached the gating op yet
    /// (fetch/dispatch bandwidth).
    FrontBandwidth,
    /// Post-trace drain tail after the last retirement.
    Drain,
}

impl CritCause {
    /// Number of causes (array dimension for breakdowns).
    pub const COUNT: usize = 17;

    /// Every cause, in [`CritCause::index`] order.
    pub const ALL: [CritCause; CritCause::COUNT] = [
        CritCause::SchedSpill,
        CritCause::DataDep,
        CritCause::InterClusterForward,
        CritCause::OtbCredit,
        CritCause::RtbCredit,
        CritCause::IssueWidth,
        CritCause::DcacheMiss,
        CritCause::Execution,
        CritCause::RetireWait,
        CritCause::FrontIcache,
        CritCause::FrontBranch,
        CritCause::FrontDq,
        CritCause::FrontRegs,
        CritCause::FrontReplay,
        CritCause::FrontReassign,
        CritCause::FrontBandwidth,
        CritCause::Drain,
    ];

    /// Dense index for per-cause arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CritCause::SchedSpill => 0,
            CritCause::DataDep => 1,
            CritCause::InterClusterForward => 2,
            CritCause::OtbCredit => 3,
            CritCause::RtbCredit => 4,
            CritCause::IssueWidth => 5,
            CritCause::DcacheMiss => 6,
            CritCause::Execution => 7,
            CritCause::RetireWait => 8,
            CritCause::FrontIcache => 9,
            CritCause::FrontBranch => 10,
            CritCause::FrontDq => 11,
            CritCause::FrontRegs => 12,
            CritCause::FrontReplay => 13,
            CritCause::FrontReassign => 14,
            CritCause::FrontBandwidth => 15,
            CritCause::Drain => 16,
        }
    }

    /// Stable machine-readable name (used as a JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CritCause::SchedSpill => "sched_spill",
            CritCause::DataDep => "data_dep",
            CritCause::InterClusterForward => "inter_cluster_forward",
            CritCause::OtbCredit => "otb_credit",
            CritCause::RtbCredit => "rtb_credit",
            CritCause::IssueWidth => "issue_width",
            CritCause::DcacheMiss => "dcache_miss",
            CritCause::Execution => "execution",
            CritCause::RetireWait => "retire_wait",
            CritCause::FrontIcache => "front_icache",
            CritCause::FrontBranch => "front_branch",
            CritCause::FrontDq => "front_dispatch_queue",
            CritCause::FrontRegs => "front_registers",
            CritCause::FrontReplay => "front_replay",
            CritCause::FrontReassign => "front_reassign",
            CritCause::FrontBandwidth => "front_bandwidth",
            CritCause::Drain => "drain",
        }
    }

    fn from_stall(cause: StallCause) -> CritCause {
        match cause {
            StallCause::Icache => CritCause::FrontIcache,
            StallCause::BranchWait | StallCause::BranchRedirect => CritCause::FrontBranch,
            StallCause::DispatchQueue => CritCause::FrontDq,
            StallCause::Registers => CritCause::FrontRegs,
            StallCause::Replay => CritCause::FrontReplay,
            StallCause::Reassign => CritCause::FrontReassign,
        }
    }
}

/// The exact per-cause cycle breakdown of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritAttribution {
    /// Cycles charged to each cause, indexed by [`CritCause::index`].
    pub by_cause: [u64; CritCause::COUNT],
    /// Instructions retired (the walk's gating events).
    pub retired: u64,
}

impl CritAttribution {
    /// Cycles charged to `cause`.
    #[must_use]
    pub fn cycles(&self, cause: CritCause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Total cycles attributed, across all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    /// Iterates `(cause, cycles)` in stable [`CritCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CritCause, u64)> + '_ {
        CritCause::ALL.iter().map(|&c| (c, self.by_cause[c.index()]))
    }

    /// Verifies the attribution identity: the per-cause cycles must sum
    /// *exactly* to the run's total cycle count — every simulated cycle
    /// was charged to exactly one cause.
    ///
    /// # Errors
    ///
    /// A description of the imbalance, naming both sides and every
    /// nonzero bucket.
    pub fn check_identity(&self, total_cycles: u64) -> Result<(), String> {
        let attributed = self.total();
        if attributed == total_cycles {
            return Ok(());
        }
        let buckets: Vec<String> = self
            .iter()
            .filter(|&(_, v)| v > 0)
            .map(|(c, v)| format!("{} {v}", c.name()))
            .collect();
        Err(format!(
            "critical-path attribution identity violated: {attributed} attributed != \
             {total_cycles} total cycles ({})",
            buckets.join(" + "),
        ))
    }
}

/// Last-arrival dependence record for one in-flight instruction.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    /// Dispatch cycle.
    dispatch: u64,
    /// Latest known operand-availability cycle for the master copy.
    ready: u64,
    /// The latest-arriving operand crossed clusters through the OTB.
    via_forward: bool,
    /// Some copy of this op stalled on operand-transfer-buffer credit.
    otb_blocked: bool,
    /// The master copy stalled on result-transfer-buffer credit.
    rtb_blocked: bool,
    /// Scheduler-inserted spill code.
    sched_inserted: bool,
    /// The result must cross to a slave cluster before retirement.
    slave_receives: bool,
    /// The op is a load that missed in the D-cache.
    dcache_miss: bool,
    /// Master issue cycle (valid once `issued`).
    issue: u64,
    /// Master completion cycle (valid once `issued`).
    done: u64,
    /// The master copy has issued.
    issued: bool,
}

impl OpRec {
    fn new(dispatch: u64) -> OpRec {
        OpRec {
            dispatch,
            ready: 0,
            via_forward: false,
            otb_blocked: false,
            rtb_blocked: false,
            sched_inserted: false,
            slave_receives: false,
            dcache_miss: false,
            issue: 0,
            done: 0,
            issued: false,
        }
    }
}

/// The attribution probe: implements [`Probe`], so it rides the same
/// zero-overhead hook points as [`super::ObsProbe`] — attach it with
/// [`crate::Processor::run_packed_observed`] and read the result with
/// [`CritPathProbe::attribution`].
#[derive(Debug, Default)]
pub struct CritPathProbe {
    /// Dependence records for in-flight (dispatched, unretired) ops;
    /// `recs[0]` is the op at `base`.
    recs: VecDeque<OpRec>,
    /// Sequence number of `recs[0]`.
    base: u64,
    /// Per-cycle front-end stall cause (`0` = dispatch was active,
    /// otherwise `StallCause::index() + 1`), indexed by cycle.
    stall_by_cycle: Vec<u8>,
    /// First cycle index not yet charged to a cause.
    next_cycle: u64,
    /// Running per-cause totals.
    by_cause: [u64; CritCause::COUNT],
    /// Instructions retired.
    retired: u64,
}

impl CritPathProbe {
    /// A fresh probe.
    #[must_use]
    pub fn new() -> CritPathProbe {
        CritPathProbe::default()
    }

    /// The finished breakdown for a run of `total_cycles` cycles: the
    /// retire-gap charges, plus the post-trace drain tail. The result
    /// satisfies [`CritAttribution::check_identity`] for the same
    /// `total_cycles`.
    #[must_use]
    pub fn attribution(&self, total_cycles: u64) -> CritAttribution {
        let mut by_cause = self.by_cause;
        if total_cycles > self.next_cycle {
            by_cause[CritCause::Drain.index()] += total_cycles - self.next_cycle;
        }
        CritAttribution { by_cause, retired: self.retired }
    }

    fn rec_mut(&mut self, seq: u64) -> Option<&mut OpRec> {
        let idx = seq.checked_sub(self.base)?;
        self.recs.get_mut(usize::try_from(idx).ok()?)
    }

    /// The front-end cause of cycle `c` (dispatch-active cycles read as
    /// bandwidth: the op simply had not been reached yet).
    fn front_cause(&self, c: u64) -> CritCause {
        let raw = usize::try_from(c)
            .ok()
            .and_then(|i| self.stall_by_cycle.get(i).copied())
            .unwrap_or(0);
        match raw.checked_sub(1) {
            Some(i) => CritCause::from_stall(StallCause::ALL[usize::from(i)]),
            None => CritCause::FrontBandwidth,
        }
    }

    /// Charges the retire gap `[lo, hi]` (inclusive cycle indices) by
    /// walking the gating op's timeline segments.
    fn charge_gap(&mut self, lo: u64, hi: u64, rec: Option<OpRec>) {
        let Some(rec) = rec else {
            // No record (e.g. attached mid-run): fall back to the
            // front-end per-cycle causes for the whole gap.
            for c in lo..=hi {
                self.by_cause[self.front_cause(c).index()] += 1;
            }
            return;
        };
        if rec.sched_inserted {
            // The op exists only because the scheduler spilled a
            // cross-cluster live range: its whole critical-path
            // contribution is scheduling overhead.
            self.by_cause[CritCause::SchedSpill.index()] += hi - lo + 1;
            return;
        }
        let mut cur = lo;
        // Front end: up to and including the dispatch cycle.
        let front_end = rec.dispatch.min(hi);
        while cur <= front_end {
            self.by_cause[self.front_cause(cur).index()] += 1;
            cur += 1;
        }
        // One clamped boundary per pipeline segment; each charge is the
        // clipped span (cur, bound].
        let mut charge_upto = |probe: &mut Self, bound: u64, cause: CritCause| {
            let end = bound.min(hi);
            if end >= cur {
                probe.by_cause[cause.index()] += end - cur + 1;
                cur = end + 1;
            }
        };
        let (issue, done) = if rec.issued { (rec.issue, rec.done) } else { (hi, hi) };
        // Operand wait: dispatch to last operand arrival.
        let ready_cause = if rec.via_forward && rec.otb_blocked {
            CritCause::OtbCredit
        } else if rec.via_forward {
            CritCause::InterClusterForward
        } else {
            CritCause::DataDep
        };
        charge_upto(self, rec.ready.min(issue), ready_cause);
        // Issue wait: ready but not selected.
        let issue_cause =
            if rec.rtb_blocked { CritCause::RtbCredit } else { CritCause::IssueWidth };
        charge_upto(self, issue, issue_cause);
        // Execution: issue to master completion.
        let exec_cause =
            if rec.dcache_miss { CritCause::DcacheMiss } else { CritCause::Execution };
        charge_upto(self, done, exec_cause);
        // Completion to retirement: the inter-cluster result transfer
        // for forwarding ops, in-order retire otherwise.
        let tail_cause = if rec.slave_receives {
            CritCause::InterClusterForward
        } else {
            CritCause::RetireWait
        };
        charge_upto(self, hi, tail_cause);
    }
}

impl Probe for CritPathProbe {
    fn dispatched(&mut self, cycle: u64, seq: u64, _master: ClusterId, _slave: Option<ClusterId>) {
        if self.recs.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(seq, self.base + self.recs.len() as u64);
        self.recs.push_back(OpRec::new(cycle));
    }

    fn op_dispatch_meta(
        &mut self,
        seq: u64,
        sched_inserted: bool,
        slave_receives: bool,
        ready_floor: u64,
        _ready_known: bool,
    ) {
        if let Some(rec) = self.rec_mut(seq) {
            rec.sched_inserted = sched_inserted;
            rec.slave_receives = slave_receives;
            rec.ready = rec.ready.max(ready_floor);
        }
    }

    fn operand_delivered(
        &mut self,
        seq: u64,
        avail: u64,
        source: DeliverySource,
        _producer: Option<u64>,
    ) {
        let via_forward = source == DeliverySource::OperandForward;
        if let Some(rec) = self.rec_mut(seq) {
            if avail > rec.ready {
                rec.ready = avail;
                rec.via_forward = via_forward;
            } else if avail == rec.ready {
                rec.via_forward |= via_forward;
            }
        }
    }

    fn issue_blocked(&mut self, _cycle: u64, seq: u64, cause: IssueBlock) {
        if let Some(rec) = self.rec_mut(seq) {
            match cause {
                IssueBlock::OtbFull => rec.otb_blocked = true,
                IssueBlock::RtbFull => rec.rtb_blocked = true,
                IssueBlock::Width => {}
            }
        }
    }

    fn load_missed(&mut self, seq: u64) {
        if let Some(rec) = self.rec_mut(seq) {
            rec.dcache_miss = true;
        }
    }

    fn issued(&mut self, cycle: u64, seq: u64, _cluster: ClusterId, copy: CopyKind, done: u64) {
        if copy == CopyKind::Master {
            if let Some(rec) = self.rec_mut(seq) {
                rec.issue = cycle;
                rec.done = done;
                rec.issued = true;
            }
        }
    }

    fn retired(&mut self, cycle: u64, seq: u64) {
        self.retired += 1;
        debug_assert_eq!(seq, self.base);
        let rec = if seq == self.base {
            let r = self.recs.pop_front();
            self.base += 1;
            r
        } else {
            None
        };
        if cycle < self.next_cycle {
            // Later op of a same-cycle retire batch: the gap is already
            // charged to the batch's gating (oldest) op.
            return;
        }
        let lo = self.next_cycle;
        self.next_cycle = cycle + 1;
        self.charge_gap(lo, cycle, rec);
    }

    fn replayed(&mut self, _cycle: u64, from_seq: u64, _squashed: u64) {
        // Squashed ops re-dispatch with fresh records; drop the stale
        // ones (they would otherwise shadow the re-dispatch).
        if from_seq <= self.base {
            self.recs.clear();
            self.base = from_seq;
        } else {
            let keep = usize::try_from(from_seq - self.base).unwrap_or(usize::MAX);
            self.recs.truncate(keep);
        }
    }

    fn stalled(&mut self, cycle: u64, cause: StallCause) {
        if let Ok(i) = usize::try_from(cycle) {
            if self.stall_by_cycle.len() <= i {
                self.stall_by_cycle.resize(i + 1, 0);
            }
            self.stall_by_cycle[i] = cause.index() as u8 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Processor, ProcessorConfig};
    use mcl_isa::ArchReg;
    use mcl_trace::ProgramBuilder;

    fn cross_cluster_program() -> mcl_trace::Program<ArchReg> {
        // Alternating even/odd destinations: every add crosses clusters,
        // exercising forwards, transfer buffers, and dual distribution.
        let mut b = ProgramBuilder::<ArchReg>::new("critpath");
        let (e, o) = (ArchReg::int(2), ArchReg::int(3));
        b.lda(e, 0);
        for _ in 0..24 {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        b.ret(ArchReg::ZERO);
        b.finish().expect("valid program")
    }

    #[test]
    fn cause_indices_are_dense_and_names_unique() {
        for (i, cause) in CritCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        let mut names: Vec<&str> = CritCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CritCause::COUNT);
    }

    #[test]
    fn attribution_identity_holds_and_probe_does_not_perturb() {
        for cfg in [
            ProcessorConfig::single_cluster_8way(),
            ProcessorConfig::dual_cluster_8way(),
            {
                // Tiny transfer buffers force replays and credit stalls
                // through the attribution path.
                let mut tiny = ProcessorConfig::dual_cluster_8way();
                tiny.operand_buffer = 1;
                tiny.result_buffer = 1;
                tiny
            },
        ] {
            let program = cross_cluster_program();
            let plain = Processor::new(cfg.clone()).run_program(&program).unwrap().stats;
            let (trace, _) = mcl_trace::vm::trace_program_packed(&program, 0).unwrap();
            let mut probe = CritPathProbe::new();
            let observed =
                Processor::new(cfg).run_packed_observed(&trace, &mut probe).unwrap().stats;
            assert_eq!(observed, plain, "probe perturbed the simulation");
            let attr = probe.attribution(observed.cycles);
            attr.check_identity(observed.cycles).unwrap();
            assert_eq!(attr.retired, observed.retired);
            assert!(attr.total() == observed.cycles);
        }
    }

    #[test]
    fn identity_check_reports_imbalance() {
        let mut attr = CritAttribution::default();
        attr.by_cause[CritCause::Execution.index()] = 5;
        assert!(attr.check_identity(5).is_ok());
        let err = attr.check_identity(7).unwrap_err();
        assert!(err.contains("5 attributed != 7 total"), "{err}");
        assert!(err.contains("execution 5"), "{err}");
    }

    #[test]
    fn drain_tail_lands_in_the_drain_bucket() {
        let mut probe = CritPathProbe::new();
        probe.next_cycle = 10;
        let attr = probe.attribution(25);
        assert_eq!(attr.cycles(CritCause::Drain), 15);
    }
}
