//! The cycle-level simulation engine.
//!
//! [`Processor`] simulates the execution of a dynamic instruction stream
//! (a trace) on a single-cluster or dual-cluster dynamically-scheduled
//! processor, implementing the execution model of Section 2.1:
//! distribution by named registers, per-cluster register renaming and
//! dispatch queues, greedy oldest-first issue under the Table 1 rules,
//! operand/result transfer buffers with the paper's timing, suspended
//! slave copies, and instruction-replay exceptions for transfer-buffer
//! deadlock.

use std::collections::VecDeque;
use std::fmt;

use mcl_bpred::BranchPredictor;
use mcl_isa::issue::IssueBudget;
use mcl_isa::{ArchReg, ClusterId, InstrClass, RegBank};
use mcl_mem::{Access, Cache};
use mcl_trace::{vm::trace_program_packed, PackedTrace, Program, TraceOp, VmError};

use crate::check::{self, CheckLevel, FaultInjection};
use crate::config::ProcessorConfig;
use crate::dist::{distribute, distribute_fixed, Distribution, PhysRegs};
use crate::events::EventKind;
use crate::obs::{
    CopyKind, CycleSnapshot, DeliverySource, HostPhase, HostProf, HostProfReport, IssueBlock,
    NullHostProf, NullProbe, PhaseProf, Probe, StallCause, TransferKind, TransferPhase,
    WorkCounter,
};
use crate::pipeview::{render_window, WindowRow};
use crate::stats::{FastForward, SimStats};
use crate::timeq::{CompletionQ, Entry, LaneQ, TimeQ};

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Accumulated statistics ([`SimStats::cycles`] is the paper's
    /// metric).
    pub stats: SimStats,
    /// Dead-cycle-skip counters (all zero in a
    /// [`single_stepped`](Processor::single_stepped) run).
    pub ff: FastForward,
}

/// Simulation errors.
#[derive(Debug)]
pub enum SimError {
    /// Trace generation (the functional VM) failed.
    Trace(VmError),
    /// The cycle limit ([`MAX_CYCLES`]) was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// The simulator detected a hard stall it could not attribute to a
    /// transfer-buffer deadlock — a bug, reported rather than hidden.
    /// The tolerated stall length is set by
    /// [`Processor::with_wedge_threshold`].
    Wedged {
        /// The cycle at which progress stopped.
        cycle: u64,
        /// The oldest unretired instruction.
        oldest_seq: u64,
    },
    /// The invariant checker (see [`crate::check`]) found the
    /// architectural state inconsistent — a simulator bug or injected
    /// fault, reported with the failing rule and a window snapshot.
    Invariant {
        /// The cycle at which the violation was detected.
        cycle: u64,
        /// The violated rule (e.g. `otb-accounting`).
        rule: &'static str,
        /// Human-readable specifics of the imbalance.
        detail: String,
        /// A [`render_window`] view of the in-flight instructions.
        snapshot: String,
    },
    /// The cooperative hard watchdog (see [`crate::watchdog`]) found
    /// its wall-clock deadline exceeded and cancelled the run — a
    /// structured timeout instead of a runaway cell.
    Timeout {
        /// The cycle the simulation had reached when it was cancelled.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trace(e) => write!(f, "trace generation failed: {e}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::Wedged { cycle, oldest_seq } => {
                write!(f, "simulator wedged at cycle {cycle} (oldest instruction #{oldest_seq})")
            }
            SimError::Invariant { cycle, rule, detail, snapshot } => {
                write!(f, "invariant `{rule}` violated at cycle {cycle}: {detail}\n{snapshot}")
            }
            SimError::Timeout { cycle } => {
                write!(f, "hard watchdog deadline exceeded at cycle {cycle}; run cancelled")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for SimError {
    fn from(e: VmError) -> SimError {
        SimError::Trace(e)
    }
}

/// A simulated processor.
///
/// # Example
///
/// ```
/// use mcl_core::{Processor, ProcessorConfig};
/// use mcl_trace::ProgramBuilder;
/// use mcl_isa::ArchReg;
///
/// let mut b = ProgramBuilder::<ArchReg>::new("tiny");
/// let r2 = ArchReg::int(2);
/// b.lda(r2, 40);
/// b.addq_imm(r2, r2, 2);
/// let program = b.finish()?;
///
/// let result = Processor::new(ProcessorConfig::single_cluster_8way())
///     .run_program(&program)?;
/// assert_eq!(result.stats.retired, 2);
/// assert!(result.stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The [`ProcessorConfig`] is the machine; how one run executes is set
/// by the methods below, so it never reaches a result-cache key.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
    single_stepped: bool,
    check: CheckLevel,
    faults: Vec<FaultInjection>,
    wedge_threshold: u32,
}

/// Hard cap on simulated cycles (guards against simulator bugs).
pub const MAX_CYCLES: u64 = 2_000_000_000;

impl Processor {
    /// Creates a processor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`ProcessorConfig::check`]).
    #[must_use]
    pub fn new(config: ProcessorConfig) -> Processor {
        config.check();
        Processor {
            config,
            single_stepped: false,
            check: CheckLevel::Off,
            faults: Vec::new(),
            wedge_threshold: 1000,
        }
    }

    /// Returns the processor with dead-cycle fast-forward turned off:
    /// every simulated cycle is stepped, none is jumped over. Results
    /// are byte-identical either way, so this exists only as the
    /// reference oracle the fast-forward path is checked against.
    #[must_use]
    pub fn single_stepped(mut self) -> Processor {
        self.single_stepped = true;
        self
    }

    /// Returns the processor with the invariant checker at `level` (see
    /// [`crate::check`]); [`CheckLevel::Cycle`] turns fast-forward off.
    #[must_use]
    pub fn checked(mut self, level: CheckLevel) -> Processor {
        self.check = level;
        self
    }

    /// Returns the processor with `faults` injected, to prove that the
    /// checker catches real corruption (`repro selftest`, `repro chaos`).
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultInjection>) -> Processor {
        self.faults = faults;
        self
    }

    /// Returns the processor tolerating `cycles` (default 1000)
    /// consecutive zero-progress cycles (with nothing scheduled and no
    /// attributable transfer-buffer deadlock) before it gives up with
    /// [`SimError::Wedged`].
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    #[must_use]
    pub fn with_wedge_threshold(mut self, cycles: u32) -> Processor {
        assert!(cycles >= 1, "wedge threshold must allow at least one stall cycle");
        self.wedge_threshold = cycles;
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Generates the dynamic trace of `program` with the functional VM,
    /// then simulates it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the program does not execute, or
    /// any error of [`Processor::run_packed`].
    pub fn run_program(&mut self, program: &Program<ArchReg>) -> Result<SimResult, SimError> {
        let (trace, _profile) = trace_program_packed(program, 0)?;
        self.run_packed(&trace)
    }

    /// Simulates a dynamic instruction stream.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed(&mut self, trace: &PackedTrace) -> Result<SimResult, SimError> {
        Sim::new(self, trace, NullProbe, NullHostProf).run()
    }

    /// Like [`Processor::run_packed`], with an observability [`Probe`]
    /// attached. The probe observes and never perturbs: statistics and
    /// results are identical to the unobserved run.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed_observed<P: Probe>(
        &mut self,
        trace: &PackedTrace,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        Sim::new(self, trace, probe, NullHostProf).run()
    }

    /// Like [`Processor::run_packed`], with the host phase profiler
    /// attached: charges host nanoseconds to engine phases per live
    /// cycle (see [`crate::obs::hostprof`]). The profiler observes the
    /// *host*, never the simulated machine — statistics are identical
    /// to the unprofiled run, and unlike a probe it does not force
    /// single-stepping, so the fast-forward path is profiled as it
    /// really runs.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed_profiled(
        &mut self,
        trace: &PackedTrace,
    ) -> Result<(SimResult, HostProfReport), SimError> {
        let mut prof = PhaseProf::new();
        let result = Sim::new(self, trace, NullProbe, &mut prof).run()?;
        let cycles = result.stats.cycles;
        Ok((result, prof.report(cycles)))
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

const OTB: u8 = 0;
const RTB: u8 = 1;

/// Action discriminants for the per-cluster ready/wakeup machinery.
const ACT_MASTER: u8 = 0;
const ACT_SLAVE: u8 = 1;

/// Completion-event discriminants (master done / slave register write).
const DONE_EVT: u8 = 0;
const WRITE_EVT: u8 = 1;

/// Upper bound on configurable divider units (the presets use 1 or 2).
const MAX_DIVIDERS: usize = 8;

/// Null link in the waiter arena.
const NIL: u32 = u32::MAX;

/// Packs a pending branch resolution into a [`TimeQ`] data word:
/// `pc << 2 | taken << 1 | mispredicted`.
fn pack_branch(pc: u64, taken: bool, mispredicted: bool) -> u64 {
    debug_assert!(pc < 1 << 62, "branch pc fits the packed data word");
    (pc << 2) | (u64::from(taken) << 1) | u64::from(mispredicted)
}

/// The bucket a cycle that dispatches nothing is charged to (see
/// [`Sim::charge_idle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Idle {
    /// The trace is exhausted and the window drains: not a stall.
    Drain,
    Stall(StallCause),
}

/// Dispatch-time operand availability (see [`Sim::avail_for`]).
enum Avail {
    /// Readable from the given cycle.
    Known(u64),
    /// Known when this producer completes.
    WaitDone(u64),
    /// Known when this producer writes its slave register copy.
    WaitWrite(u64),
}

/// Issue-readiness bookkeeping for one copy (master or slave) of an
/// instruction: how many operand-availability times are still unknown,
/// and the earliest issue cycle once all are known.
#[derive(Debug, Clone, Copy, Default)]
struct WaitState {
    /// Operands whose availability cycle is not yet known (producer has
    /// not issued). The copy joins the ready queue when this hits zero.
    unknown: u8,
    /// Max over the known operand-availability cycles.
    ready_at: u64,
    /// Currently enqueued in the per-cluster ready set.
    in_ready: bool,
}

/// One copy in a per-cluster ready set, carrying the immutable
/// per-incarnation facts the issue pass needs to classify it.
///
/// The issue pass re-scans every ready copy every live cycle, and in a
/// width- or register-limited stretch most of those scans end in
/// "blocked" — the paper's machine spends whole phases re-evaluating
/// the same handful of copies against a fresh budget. Classification
/// only needs the copy's issue-slot class, its transfer-buffer
/// relationships, and its cluster indices; all of those are fixed from
/// dispatch to squash. Caching them here keeps the (much larger)
/// window entry — and its cache lines — out of the blocked path
/// entirely: the window is only touched when a copy actually issues.
///
/// Sorted by `(seq, act)`, exactly as the former `(u64, u8)` pairs
/// were, so the age-ordered walk and the binary searches are
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyEntry {
    /// Instruction sequence number (age order, the primary sort key).
    seq: u64,
    /// `ACT_MASTER` or `ACT_SLAVE` (the sort tiebreak).
    act: u8,
    /// Issue-slot class charged against the width budget.
    slot_class: InstrClass,
    /// `dist.slave_receives` of the incarnation.
    slave_receives: bool,
    /// Whether the slave copy forwards an operand (scenario two/five).
    forwards: bool,
    /// Master cluster index.
    master: u8,
    /// Slave cluster index (meaningful only when the copy has a slave).
    slave: u8,
}

impl ReadyEntry {
    /// The sort/search key: age order, master before slave.
    fn key(&self) -> (u64, u8) {
        (self.seq, self.act)
    }

    /// Builds the cached view of (`d`, `act`); `slot_class` mirrors the
    /// classification the issue pass used to derive in-line. Inlined so
    /// the entry is assembled in registers, not read back from memory.
    #[inline(always)]
    fn of(d: &DynInstr, act: u8) -> ReadyEntry {
        let slot_class = if act == ACT_MASTER {
            d.op.class()
        } else if d.forwards() {
            let bank = (0..2)
                .find(|&i| d.dist.forwarded_src[i])
                .and_then(|i| d.op.srcs[i])
                .map_or(RegBank::Int, ArchReg::bank);
            InstrClass::for_operand_bank(bank)
        } else {
            InstrClass::for_operand_bank(d.op.dest.map_or(RegBank::Int, ArchReg::bank))
        };
        ReadyEntry {
            seq: d.op.seq,
            act,
            slot_class,
            slave_receives: d.dist.slave_receives,
            forwards: d.forwards(),
            master: d.dist.master.index() as u8,
            slave: d.dist.slave.map_or(u8::MAX, |s| s.index() as u8),
        }
    }
}

/// Parked-copy groups per issuing cluster, one per resource that only a
/// scheduled event can free: the cluster's dividers, then each
/// cluster's result and operand transfer buffer.
const PARK_GROUPS: usize = 5;
const PARK_DIVIDER: usize = 0;
/// `PARK_RTB + c`: waiting for cluster `c`'s result transfer buffer.
const PARK_RTB: usize = 1;
/// `PARK_OTB + c`: waiting for cluster `c`'s operand transfer buffer.
const PARK_OTB: usize = 3;

/// The issue-width class group of `class` (the budget's column).
fn class_group(class: InstrClass) -> u8 {
    match class {
        InstrClass::IntMul | InstrClass::IntAlu => 0,
        InstrClass::FpDiv | InstrClass::FpOther => 1,
        InstrClass::Load | InstrClass::Store => 2,
        InstrClass::ControlFlow => 3,
    }
}

/// One class of each group, in [`class_group`] order.
const GROUP_CLASS: [InstrClass; 4] =
    [InstrClass::IntAlu, InstrClass::FpOther, InstrClass::Load, InstrClass::ControlFlow];

/// Ready copies of one cluster that are parked off the issue walk.
///
/// A ready copy blocked on a busy divider or a full transfer buffer
/// stays blocked until an event frees that resource: issue only ever
/// takes resources, and only the cycle-start drains and a replay give
/// them back. So instead of re-examining it every cycle, the issue
/// pass parks it in its resource's group. Each pass merges the groups
/// into its age-ordered walk ([`Sim::issue_cluster`]): a group whose
/// resource is free is pulled back copy by copy, one whose resource is
/// taken is passed over whole, and the per-cycle effects of the
/// skipped examinations are charged in bulk ([`Sim::charge_parked`]).
///
/// Nothing is parked with a probe attached: a probe hears every block,
/// per copy and in age order, which is the examination parking skips.
///
/// A divide that is also waiting for a result buffer is never parked
/// on the buffer: a busy divider blocks it first, so its buffer stall
/// depends on the divider, not on the buffer alone.
#[derive(Debug, Default)]
struct Parked {
    /// Per group, sorted by [`ReadyEntry::key`].
    groups: [Vec<ReadyEntry>; PARK_GROUPS],
    /// Per group, bit [`class_group`] set for each class it holds.
    classes: [u8; PARK_GROUPS],
}

impl Parked {
    fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty)
    }

    /// The oldest copy the walk has yet to reach, as `(seq, group)`:
    /// copies before `pulled[g]` are behind it, and a group the walk
    /// passed over is done.
    fn next(
        &self,
        pulled: &[usize; PARK_GROUPS],
        passed: &[bool; PARK_GROUPS],
    ) -> Option<(u64, usize)> {
        (0..PARK_GROUPS)
            .filter(|&g| !passed[g])
            .filter_map(|g| self.groups[g].get(pulled[g]).map(|e| (e.seq, g)))
            .min()
    }

    /// Recomputes the class bits of group `g`.
    fn reclass(&mut self, g: usize) {
        self.classes[g] =
            self.groups[g].iter().fold(0, |bits, e| bits | 1 << class_group(e.slot_class));
    }

    fn push(&mut self, group: usize, entry: ReadyEntry) {
        let g = &mut self.groups[group];
        let sorted = g.last().is_none_or(|last| last.key() < entry.key());
        g.push(entry);
        if !sorted {
            g.sort_unstable_by_key(ReadyEntry::key);
        }
        self.classes[group] |= 1 << class_group(entry.slot_class);
    }

    /// Drops every copy from `from_seq` on (a replay squash).
    fn truncate_from(&mut self, from_seq: u64) {
        for g in 0..PARK_GROUPS {
            let group = &mut self.groups[g];
            group.truncate(group.partition_point(|e| e.seq < from_seq));
            self.reclass(g);
        }
    }
}

/// What examining one ready copy decided.
enum Verdict {
    /// Blocked by the width rules (or a divide by its result buffer):
    /// stays in the ready set.
    Keep,
    Issued,
    /// Blocked by the resource of this parked group.
    Park(usize),
}

/// The running state of one cluster's issue pass.
struct IssuePass {
    budget: IssueBudget,
    issued: u32,
    /// Ready copies blocked earlier in the pass, walked or parked:
    /// any makes a later issue out of order.
    blocked: u64,
    examined: u64,
    /// The oldest copy still waiting on operands, looked up at the
    /// first issue: no copy goes ready during a pass, so it holds for
    /// the whole pass.
    oldest_waiting: Option<Option<u64>>,
}

/// An op's distribution, physical-register demand and resource needs.
type FrontEnd = (Distribution, PhysRegs, Needs);

/// Memoized front-end work for the op at a stalled dispatch cursor.
///
/// When dispatch blocks on a structural resource (dispatch-queue slots
/// or physical registers), the simulator retries the same trace index
/// every live cycle until the resource frees. [`Sim::dist_table`]
/// already serves the distribution of every op whose vote does not
/// depend on the load balance; the memo saves what is left of each
/// retry: the `trace.get` unpack, the instruction-cache lookup (the
/// line hit when the memo was recorded and nothing else touches the
/// icache, so a retry records a repeat hit), and the distribution of a
/// balance-dependent op. None of these inputs can change while the
/// cursor holds still: `balance` and the assignment only move when
/// something dispatches or reassigns, and both advance or clear the
/// memo. Register-starved workloads spend most of their cycles here
/// (`stall_regs` in Table 2's `ora` row covers ~9 in 10 cycles).
///
/// It stays because it pays: without it `live-ff` (the benchmark's
/// fast-forward workload) ran slower in 6 of 8 interleaved pairs on a
/// 2-vCPU host, median 0.262 → 0.274 s.
///
/// Only a stall builds the memo: an op that dispatches on its first try
/// never pays for one.
#[derive(Debug, Clone, Copy)]
struct DispatchMemo {
    /// Trace index the memo describes; a mismatch invalidates it.
    cursor: usize,
    op: TraceOp,
    front: FrontEnd,
}

/// The dispatch-queue entries and physical registers one op takes from
/// each cluster.
#[derive(Debug, Clone, Copy, Default)]
struct Needs {
    dq: [u8; 2],
    int: [u8; 2],
    fp: [u8; 2],
}

impl Needs {
    fn of(dist: &Distribution, phys: &PhysRegs) -> Needs {
        let mut needs = Needs::default();
        needs.dq[dist.master.index()] += 1;
        if let Some(s) = dist.slave {
            needs.dq[s.index()] += 1;
        }
        for (c, bank) in phys.iter() {
            match bank {
                RegBank::Int => needs.int[c.index()] += 1,
                RegBank::Fp => needs.fp[c.index()] += 1,
            }
        }
        needs
    }
}

/// One registration on a producer's wakeup list.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    consumer: u64,
    action: u8,
    next: u32,
}

/// A free-list arena of wakeup-list nodes: zero allocations once the
/// steady-state high-water mark is reached.
#[derive(Debug, Default)]
struct WaiterArena {
    nodes: Vec<Waiter>,
    free: u32,
    /// Number of nodes on the free list. Maintained so the invariant
    /// checker can audit `reachable + free == nodes` every validated
    /// cycle without walking the free list.
    free_len: u32,
}

impl WaiterArena {
    fn new() -> WaiterArena {
        WaiterArena { nodes: Vec::new(), free: NIL, free_len: 0 }
    }

    /// Links a new waiter in front of `head`, returning the new head.
    fn push(&mut self, head: u32, consumer: u64, action: u8) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            self.free_len -= 1;
            *node = Waiter { consumer, action, next: head };
            idx
        } else {
            self.nodes.push(Waiter { consumer, action, next: head });
            u32::try_from(self.nodes.len() - 1).expect("waiter arena fits u32")
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.free_len += 1;
    }

    /// Releases a whole list.
    fn release_list(&mut self, head: u32) {
        let mut idx = head;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.release(idx);
            idx = next;
        }
    }

    /// Drops every waiter with `consumer >= from_seq` (squashed by a
    /// replay), returning the new head. Order is not preserved; delivery
    /// order does not matter (availability folds through `max`).
    fn purge_squashed(&mut self, head: u32, from_seq: u64) -> u32 {
        let mut new_head = NIL;
        let mut idx = head;
        while idx != NIL {
            let node = self.nodes[idx as usize];
            if node.consumer < from_seq {
                self.nodes[idx as usize].next = new_head;
                new_head = idx;
            } else {
                self.release(idx);
            }
            idx = node.next;
        }
        new_head
    }
}

#[derive(Debug, Clone)]
struct DynInstr {
    op: TraceOp,
    dist: Distribution,
    /// Physical registers allocated at dispatch, freed at retire/squash.
    phys: crate::dist::PhysRegs,

    /// Readiness bookkeeping for the master copy.
    m_wait: WaitState,
    /// Readiness bookkeeping for the slave copy (unused when single).
    s_wait: WaitState,
    /// Wakeup list notified when `master_done` becomes known.
    w_done: u32,
    /// Wakeup list notified when `slave_write` becomes known.
    w_write: u32,

    master_issued: Option<u64>,
    /// Cycle from which consumers in the master's cluster may issue.
    master_done: Option<u64>,
    slave_issued: Option<u64>,
    /// Cycle from which consumers in the slave's cluster may issue.
    slave_write: Option<u64>,
    /// Scenario-five wake already performed.
    woke: bool,
    mispredicted: bool,

    dq_master_freed: bool,
    dq_slave_freed: bool,
    /// Operand-transfer-buffer entry allocated and not yet scheduled to
    /// free (lives in the *master's* cluster).
    otb_held: bool,
    /// Result-transfer-buffer entry allocated and not yet scheduled to
    /// free (lives in the *slave's* cluster).
    rtb_held: bool,
}

impl DynInstr {
    fn forwards(&self) -> bool {
        self.dist.forwarded_src.iter().any(|&f| f)
    }

    /// Whether everything the instruction must do has happened by `now`.
    fn complete(&self, now: u64) -> bool {
        if !matches!(self.master_done, Some(d) if d <= now) {
            return false;
        }
        if self.dist.slave_receives && !matches!(self.slave_write, Some(w) if w <= now) {
            return false;
        }
        true
    }

    /// The contents of a window slot no instruction occupies.
    fn vacant() -> DynInstr {
        DynInstr {
            op: TraceOp {
                seq: 0,
                pc: 0,
                op: mcl_isa::Opcode::Addq,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                branch: None,
                sched_inserted: false,
            },
            dist: no_distribution(),
            phys: PhysRegs::none(),
            m_wait: WaitState::default(),
            s_wait: WaitState::default(),
            w_done: NIL,
            w_write: NIL,
            master_issued: None,
            master_done: None,
            slave_issued: None,
            slave_write: None,
            woke: false,
            mispredicted: false,
            dq_master_freed: false,
            dq_slave_freed: false,
            otb_held: false,
            rtb_held: false,
        }
    }
}

/// The distribution placeholder of an empty slot.
fn no_distribution() -> Distribution {
    Distribution {
        clusters: mcl_isa::ClusterSet::only(ClusterId::C0),
        master: ClusterId::C0,
        slave: None,
        forwarded_src: [false; 2],
        slave_receives: false,
        scenario: 1,
    }
}

/// The in-flight instructions, oldest first: a power-of-two ring whose
/// slot for sequence number `seq` is `seq & mask`, so finding an
/// instruction by its sequence number is one mask — no offset from the
/// head, no wrap test. Grows by doubling when full; vacant slots hold
/// [`DynInstr::vacant`].
#[derive(Debug)]
struct Window {
    slots: Vec<DynInstr>,
    /// `slots.len() - 1`.
    mask: u64,
    /// Sequence number of the oldest in-flight instruction (the next
    /// one to dispatch, when empty).
    base: u64,
    len: usize,
}

impl Window {
    fn new() -> Window {
        Window { slots: vec![DynInstr::vacant(); 64], mask: 63, base: 0, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Whether `seq` is in flight.
    fn contains(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.base) < self.len as u64
    }

    fn get(&self, seq: u64) -> Option<&DynInstr> {
        self.contains(seq).then(|| &self.slots[self.slot(seq)])
    }

    fn front(&self) -> Option<&DynInstr> {
        self.get(self.base)
    }

    /// Retires the oldest instruction, returning it; its slot stays
    /// intact until a dispatch reuses it.
    fn pop_front(&mut self) -> Option<&DynInstr> {
        if self.len == 0 {
            return None;
        }
        let slot = self.slot(self.base);
        self.base += 1;
        self.len -= 1;
        Some(&self.slots[slot])
    }

    #[inline]
    fn push_back(&mut self, d: DynInstr) {
        debug_assert_eq!(d.op.seq, self.base + self.len as u64, "dispatch is in order");
        if self.len == self.slots.len() {
            self.grow();
        }
        let slot = self.slot(d.op.seq);
        self.slots[slot] = d;
        self.len += 1;
    }

    /// Doubles the ring, moving every instruction to its new slot.
    #[cold]
    fn grow(&mut self) {
        let mut slots = vec![DynInstr::vacant(); 2 * self.slots.len()];
        let mask = slots.len() as u64 - 1;
        for seq in self.seqs() {
            let from = self.slot(seq);
            let d = std::mem::replace(&mut self.slots[from], DynInstr::vacant());
            slots[(seq & mask) as usize] = d;
        }
        self.slots = slots;
        self.mask = mask;
    }

    /// Squashes `from_seq` and everything younger.
    fn truncate_from(&mut self, from_seq: u64) {
        self.len = (from_seq - self.base) as usize;
    }

    /// The sequence numbers in flight, oldest first.
    fn seqs(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.len as u64
    }

    /// The in-flight instructions, oldest first.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &DynInstr> + '_ {
        self.seqs().map(|seq| &self.slots[self.slot(seq)])
    }
}

impl std::ops::Index<u64> for Window {
    type Output = DynInstr;

    fn index(&self, seq: u64) -> &DynInstr {
        debug_assert!(self.contains(seq), "#{seq} is not in flight");
        &self.slots[self.slot(seq)]
    }
}

impl std::ops::IndexMut<u64> for Window {
    fn index_mut(&mut self, seq: u64) -> &mut DynInstr {
        debug_assert!(self.contains(seq), "#{seq} is not in flight");
        let slot = self.slot(seq);
        &mut self.slots[slot]
    }
}

struct Sim<'a, P: Probe = NullProbe, H: HostProf = NullHostProf> {
    cfg: &'a ProcessorConfig,
    assign: mcl_isa::assign::RegisterAssignment,
    trace: &'a PackedTrace,
    cursor: usize,
    now: u64,

    window: Window,

    dq_free: [u32; 2],
    int_free: [i64; 2],
    fp_free: [i64; 2],
    otb_free: [u32; 2],
    rtb_free: [u32; 2],
    /// Busy-until cycle of each unpipelined divider unit, per cluster
    /// (fixed storage; `dividers` are in use).
    div_busy_until: [[u64; MAX_DIVIDERS]; 2],
    dividers: usize,
    /// Per cluster, per dense register index: youngest in-flight writer.
    producers: [[Option<u64>; 64]; 2],

    /// Wakeup-list node storage.
    waiters: WaiterArena,
    /// Per cluster: copies whose operands are all available, kept
    /// sorted by age — the issue pass walks these, merged with the
    /// parked ones. A sorted `Vec` beats a `BTreeSet` here: the set is
    /// small (a handful of copies), is rebuilt by every issue pass, and
    /// age-ordered iteration is the hot operation.
    ready: [Vec<ReadyEntry>; 2],
    /// Per cluster: ready copies parked on a busy divider or a full
    /// transfer buffer (see [`Parked`]); still ready, off the walk.
    parked: [Parked; 2],
    /// Reusable output buffer of the issue walk.
    scratch_ready: Vec<ReadyEntry>,
    /// Reusable per-pass list of the copies issued, for charging
    /// parked copies exactly when the budget ran short.
    scratch_issued: Vec<(u64, InstrClass)>,
    /// Reusable per-pass list of the copies parked, as (group, entry).
    scratch_parked: Vec<(usize, ReadyEntry)>,
    /// Per cluster: every dispatched copy as `(seq, action)`, in
    /// dispatch order, for issue-disorder accounting. Dispatch pushes
    /// each cluster's copies in strictly increasing seq (a master and
    /// its slave always go to different clusters) and replay pops the
    /// squashed tail, so the queue stays sorted and its first live
    /// entry is the oldest copy still waiting for operands. Entries
    /// that issued or went ready are discarded lazily from the front.
    waiting: [VecDeque<(u64, u8)>; 2],
    /// Copies whose last operand time became known, to enter the ready
    /// set at the scheduled cycle. Key `seq << 1 | action`, data the
    /// cluster index. Copies due by the next cycle skip its wheel.
    future_ready: LaneQ,
    /// Scheduled scenario-five wake checks, keyed by seq.
    wake_events: TimeQ,
    /// Scheduled completions for the progress check, keyed
    /// `seq << 1 | DONE/WRITE`. Only actionless cycles ask for the
    /// earliest live one, so recording is a bucket push and the
    /// question walks the buckets. Fired events are trimmed at the top
    /// of every cycle, so the queue holds only future events: at most
    /// two per in-flight instruction, plus events of squashed
    /// incarnations, which are discarded lazily against the window.
    completions: CompletionQ,
    /// Reusable drain buffer for [`TimeQ::pop_due`] consumers.
    scratch_events: Vec<Entry>,
    /// Reusable per-window-slot tallies for the invariant checker
    /// (wakeup registrations per copy, scheduled-completion marks).
    scratch_regs: Vec<[u32; 2]>,
    scratch_sched: Vec<[bool; 2]>,
    /// Physical-register capacities under the current assignment
    /// (recomputed on reassignment), so the per-cycle checker does not
    /// re-derive them from the architectural register map.
    reg_caps: ([i64; 2], [i64; 2]),

    fetch_resume_at: u64,
    /// What fetch waits for until `fetch_resume_at`: an icache miss, a
    /// replay, a branch redirect or a reassignment penalty.
    fetch_stall: StallCause,
    /// Sequence number of the unresolved mispredicted branch blocking
    /// fetch, if any.
    fetch_blocked_by: Option<u64>,

    /// Pending predictor updates, keyed by seq so same-cycle
    /// resolutions update the predictor in age order; data packed by
    /// [`pack_branch`].
    pending_bpred: TimeQ,
    /// Scheduled transfer-buffer credit returns. Key
    /// `cluster << 1 | OTB/RTB`. All are due the next cycle, so they
    /// take the lane.
    buffer_frees: LaneQ,

    predictor: Box<dyn BranchPredictor + Send>,
    icache: Cache,
    dcache: Cache,

    balance: [u64; 2],
    /// See [`DispatchMemo`]: valid only while the cursor it names is
    /// the next op to dispatch and no dispatch, replay, or
    /// reassignment has run since it was recorded.
    dispatch_memo: Option<DispatchMemo>,
    /// Distribution decisions per static record of the trace, indexed
    /// by [`PackedTrace::sidx`]. An op's distribution, physical-register
    /// demand and resource needs depend only on its registers and the
    /// register assignment, except when the load balance breaks a tie
    /// ([`distribute_fixed`]), and a static record fixes the registers.
    /// So every dynamic instance of a static record shares one entry; a
    /// reassignment clears the table.
    dist_table: Vec<Option<FrontEnd>>,
    stats: SimStats,

    /// Set during the issue pass when a ready copy was blocked *only* by
    /// a full transfer buffer.
    blocked_on_buffer: bool,
    no_progress_cycles: u32,
    /// Zero-progress cycles tolerated before [`SimError::Wedged`].
    wedge_threshold: u32,
    /// Disables dead-cycle fast-forward.
    single_stepped: bool,
    /// Invariant-checking level.
    check: CheckLevel,
    /// Replay exceptions taken since the last retirement; the checker's
    /// replay-forward-progress rule bounds this.
    replays_since_retire: u32,
    /// Injected resource-accounting faults not yet applied.
    pending_faults: Vec<FaultInjection>,
    /// Set by [`FaultInjection::StallRetire`]: the retirement stage is
    /// latched off for the rest of the run.
    retire_stalled: bool,
    /// The window base at the last replay; a second deadlock without any
    /// intervening retirement escalates to a full squash (guaranteed
    /// forward progress — the replayed youngest holder would otherwise
    /// re-acquire the freed entry and recreate the deadlock).
    last_replay_base: Option<u64>,
    /// Untriggered dynamic-reassignment points, in configuration order.
    pending_reassign: Vec<crate::config::ReassignmentPoint>,
    /// A reassignment is waiting for the pipeline to drain.
    reassign_draining: bool,
    /// Dead-cycle-skip counters (stay zero when single-stepped).
    ff: FastForward,
    /// The observability probe; every call site is gated on the
    /// monomorphization-time constant `P::ENABLED`, so the default
    /// [`NullProbe`] build carries no probe code at all.
    probe: P,
    /// The host phase profiler; gated on `H::ENABLED` the same way.
    /// Unlike probes it never forces single-stepping — a profiled run
    /// takes the real engine path, fast-forward included.
    hostprof: H,
}

impl<'a, P: Probe, H: HostProf> Sim<'a, P, H> {
    fn new(
        processor: &'a Processor,
        trace: &'a PackedTrace,
        probe: P,
        hostprof: H,
    ) -> Sim<'a, P, H> {
        let cfg = &processor.config;
        let assign = cfg.register_assignment();
        let (int_free, fp_free) = free_lists_for(cfg, &assign);
        assert!(cfg.fp_dividers as usize <= MAX_DIVIDERS, "too many divider units");

        Sim {
            cfg,
            assign,
            trace,
            cursor: 0,
            now: 0,
            window: Window::new(),
            dq_free: [cfg.dq_entries; 2],
            int_free,
            fp_free,
            otb_free: [cfg.operand_buffer; 2],
            rtb_free: [cfg.result_buffer; 2],
            div_busy_until: [[0; MAX_DIVIDERS]; 2],
            dividers: cfg.fp_dividers as usize,
            producers: [[None; 64]; 2],
            waiters: WaiterArena::new(),
            ready: [Vec::new(), Vec::new()],
            parked: [Parked::default(), Parked::default()],
            scratch_ready: Vec::new(),
            scratch_issued: Vec::new(),
            scratch_parked: Vec::new(),
            waiting: [VecDeque::new(), VecDeque::new()],
            future_ready: LaneQ::new(),
            wake_events: TimeQ::new(),
            completions: CompletionQ::new(),
            scratch_events: Vec::new(),
            scratch_regs: Vec::new(),
            scratch_sched: Vec::new(),
            reg_caps: (int_free, fp_free),
            fetch_resume_at: 0,
            fetch_stall: StallCause::Icache,
            fetch_blocked_by: None,
            pending_bpred: TimeQ::new(),
            buffer_frees: LaneQ::new(),
            predictor: cfg.predictor.build(),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            balance: [0; 2],
            dispatch_memo: None,
            dist_table: vec![None; trace.static_len()],
            stats: SimStats::default(),
            blocked_on_buffer: false,
            no_progress_cycles: 0,
            wedge_threshold: processor.wedge_threshold,
            single_stepped: processor.single_stepped,
            check: processor.check,
            replays_since_retire: 0,
            pending_faults: processor.faults.clone(),
            retire_stalled: false,
            last_replay_base: None,
            pending_reassign: cfg.reassignments.clone(),
            reassign_draining: false,
            ff: FastForward::default(),
            probe,
            hostprof,
        }
    }

    /// Adds `n` to a host-profile work counter (compiled out unless a
    /// profiler is attached).
    #[inline]
    fn count(&mut self, counter: WorkCounter, n: u64) {
        if H::ENABLED {
            self.hostprof.count(counter, n);
        }
    }

    /// Runs the trace to completion.
    fn run(&mut self) -> Result<SimResult, SimError> {
        // Fast-forward only when nothing needs to see individual dead
        // cycles: probes sample per cycle, and cycle-level checking
        // validates per cycle, so both force single-stepping (their
        // observations are of dead cycles that log nothing and change
        // no stats, which is why on/off stays byte-identical).
        let fast_forward = !self.single_stepped && !P::ENABLED && self.check != CheckLevel::Cycle;
        // Cooperative hard watchdog: the deadline is a thread-local
        // token (not part of the configuration — configurations key
        // result caches), polled every `WATCHDOG_STRIDE` steps so the
        // wall-clock read stays off the per-cycle path. Steps, not
        // cycles: fast-forward jumps cycle counts arbitrarily.
        const WATCHDOG_STRIDE: u32 = 4096;
        let deadline = crate::watchdog::deadline();
        let mut until_poll = WATCHDOG_STRIDE;
        if H::ENABLED {
            self.hostprof.begin();
        }
        while self.cursor < self.trace.len() || !self.window.is_empty() {
            if self.now >= MAX_CYCLES {
                return Err(SimError::CycleLimit { limit: MAX_CYCLES });
            }
            if let Some(deadline) = deadline {
                until_poll -= 1;
                if until_poll == 0 {
                    until_poll = WATCHDOG_STRIDE;
                    if std::time::Instant::now() >= deadline {
                        return Err(SimError::Timeout { cycle: self.now });
                    }
                }
            }
            let activity = self.step()?;
            // Anything dispatched, issued, retired, or woken this cycle
            // can cascade into the next one, so the next cycle is never
            // provably dead — don't even pay for the attempt.
            if fast_forward && activity == 0 {
                if H::ENABLED {
                    // Close the inter-phase span first so the progress
                    // check and loop overhead stay charged to Loop, not
                    // to the fast-forward bookkeeping.
                    self.hostprof.mark(HostPhase::Loop);
                }
                self.try_fast_forward();
                if H::ENABLED {
                    self.hostprof.mark(HostPhase::FastForward);
                }
            }
        }
        if H::ENABLED {
            self.hostprof.finish();
        }
        self.stats.cycles = self.now;
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        Ok(SimResult { stats: self.stats.clone(), ff: self.ff })
    }

    /// Simulates one cycle, returning how many retire/wake/issue/
    /// dispatch actions it performed (the same count the progress
    /// check sees; the engine only attempts a fast-forward after
    /// an actionless cycle).
    fn step(&mut self) -> Result<u32, SimError> {
        if H::ENABLED {
            // Telescoping sample: everything since the previous cycle's
            // last mark (progress check, watchdog poll, loop overhead)
            // lands in the Loop bucket.
            self.hostprof.mark(HostPhase::Loop);
        }
        self.blocked_on_buffer = false;
        self.inject_faults();

        self.completions.trim(self.now);
        self.process_buffer_frees();
        self.process_branch_resolutions();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::TimeQ);
        }
        let retired = self.retire();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Retire);
        }
        let woke = self.wake_suspended_slaves();
        self.drain_future_ready();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Wakeup);
        }
        let mut issued = 0;
        let mut issued_per = [0u32; 2];
        for c in 0..self.cfg.clusters {
            let n = self.issue_cluster(ClusterId::new(c));
            issued_per[usize::from(c)] = n;
            issued += n;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Issue);
        }
        let dispatched = self.dispatch();
        if dispatched > 0 {
            self.stats.dispatch_cycles += 1;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Dispatch);
            self.hostprof.count(WorkCounter::OpsDispatched, u64::from(dispatched));
            self.hostprof.count(WorkCounter::CopiesIssued, u64::from(issued));
        }

        let validate = match self.check {
            CheckLevel::Off => false,
            CheckLevel::Retire => retired > 0,
            CheckLevel::Cycle => true,
        };
        if validate {
            self.validate_invariants(&issued_per)?;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Checker);
            self.hostprof.live_cycle();
        }
        let activity = retired + woke + issued + dispatched;
        self.check_progress(activity)?;
        if P::ENABLED {
            let snap = self.cycle_snapshot();
            self.probe.cycle_end(&snap);
        }
        self.now += 1;
        Ok(activity)
    }

    /// End-of-cycle occupancy for [`Probe::cycle_end`].
    fn cycle_snapshot(&self) -> CycleSnapshot {
        let mut snap = CycleSnapshot {
            cycle: self.now,
            window: self.window.len() as u32,
            ..CycleSnapshot::default()
        };
        for c in 0..usize::from(self.cfg.clusters) {
            snap.dq_used[c] = self.cfg.dq_entries.saturating_sub(self.dq_free[c]);
            snap.otb_used[c] = self.cfg.operand_buffer.saturating_sub(self.otb_free[c]);
            snap.rtb_used[c] = self.cfg.result_buffer.saturating_sub(self.rtb_free[c]);
            snap.int_free[c] = self.int_free[c];
            snap.fp_free[c] = self.fp_free[c];
        }
        snap
    }

    /// Applies due fault-injection hooks (testing only; see
    /// [`Processor::with_faults`]). A leak decrements a free count with
    /// no matching holder, which a correct checker must report; the
    /// event-targeting faults wait in the pending list until their
    /// target structure (a live completion, a blocking branch, an
    /// in-flight operand delivery) exists, then corrupt it.
    fn inject_faults(&mut self) {
        if self.pending_faults.is_empty() {
            return;
        }
        let now = self.now;
        let n = usize::from(self.cfg.clusters);
        let mut i = 0;
        while i < self.pending_faults.len() {
            let fault = self.pending_faults[i].clone();
            let armed = fault.cycle() <= now;
            let due = armed
                && match &fault {
                    FaultInjection::LeakOperandBuffer { .. }
                    | FaultInjection::LeakResultBuffer { .. }
                    | FaultInjection::CorruptTransferCredit { .. }
                    | FaultInjection::LeakPhysReg { .. }
                    | FaultInjection::StallRetire { .. } => true,
                    FaultInjection::DropCompletion { .. } => {
                        self.next_live_completion(now).is_some()
                    }
                    FaultInjection::StickBranchResolution { .. } => {
                        self.blocking_branch_resolution().is_some()
                    }
                    FaultInjection::DelayOperandDelivery { .. } => {
                        !self.future_ready.is_empty()
                    }
                };
            if !due {
                i += 1;
                continue;
            }
            self.pending_faults.remove(i);
            match fault {
                FaultInjection::LeakOperandBuffer { .. } => {
                    for c in 0..n {
                        self.otb_free[c] = self.otb_free[c].saturating_sub(1);
                    }
                }
                FaultInjection::LeakResultBuffer { .. } => {
                    for c in 0..n {
                        self.rtb_free[c] = self.rtb_free[c].saturating_sub(1);
                    }
                }
                FaultInjection::DropCompletion { .. } => {
                    self.drop_next_live_completion(now);
                }
                FaultInjection::StickBranchResolution { .. } => {
                    let seq = self.blocking_branch_resolution().expect("checked due");
                    self.pending_bpred.retain(|e| e.key != seq);
                }
                FaultInjection::CorruptTransferCredit { .. } => {
                    for c in 0..n {
                        self.otb_free[c] += 1;
                        self.rtb_free[c] += 1;
                    }
                }
                FaultInjection::DelayOperandDelivery { delay, .. } => {
                    let e = self.future_ready.pop_earliest().expect("checked due");
                    self.future_ready.schedule(
                        e.cycle.saturating_add(delay),
                        e.key,
                        e.data,
                    );
                }
                FaultInjection::LeakPhysReg { .. } => {
                    for c in 0..n {
                        self.int_free[c] -= 1;
                    }
                }
                FaultInjection::StallRetire { .. } => {
                    self.retire_stalled = true;
                }
            }
        }
    }

    /// The sequence number of the mispredicted branch currently blocking
    /// fetch, provided its resolution event is still scheduled (the
    /// stick-branch-resolution fault's target).
    fn blocking_branch_resolution(&self) -> Option<u64> {
        let seq = self.fetch_blocked_by?;
        self.pending_bpred.iter().any(|e| e.key == seq).then_some(seq)
    }

    /// Removes the earliest live completion event strictly after `now`
    /// from the queue (the drop-completion fault). Stale entries
    /// discarded along the way would have been discarded lazily anyway,
    /// so only the live event's loss is observable.
    fn drop_next_live_completion(&mut self, now: u64) {
        if let Some((cycle, key)) = self.earliest_live_completion(now) {
            self.completions.remove(cycle, key);
        }
    }

    // -- dead-cycle fast-forward -------------------------------------------

    /// Fast-forward core: after a stepped cycle that performed no
    /// action, jump `now` straight to the next scheduled event if the
    /// span in between is provably dead — no cluster could dispatch,
    /// issue, or retire on any skipped cycle. The span is decided and
    /// charged by the code that decides and charges a stepped cycle:
    /// [`Sim::dead_dispatch_cause`] asks dispatch's own checks, each
    /// ready or parked copy is classified by [`Sim::copy_block`] (via
    /// [`Sim::park_resource_free`] for a group) as the issue pass
    /// classifies it, and [`Sim::charge_idle`] charges all `n` cycles
    /// to the bucket dispatch charges each one to. Conservative: any
    /// doubt aborts the jump and the engine single-steps, so the result
    /// is byte-identical to a [single-stepped](Processor::single_stepped)
    /// run by construction. Several checks below lean on the actionless
    /// precondition (the caller gates on it): ready copies were all
    /// evaluated against a fresh issue budget this cycle, and no
    /// in-pass state (budget, buffers, dividers) was consumed.
    fn try_fast_forward(&mut self) {
        let now = self.now;
        // Run finished, or activity that could cascade this cycle:
        // single-step. A non-zero no-progress count must keep ticking so
        // the replay/wedge escalation sees the same cycle numbers.
        if self.cursor >= self.trace.len() && self.window.is_empty() {
            return;
        }
        if self.no_progress_cycles > 0 {
            return;
        }
        // Issue: a ready copy is only compatible with a dead span when
        // it is provably unissuable, side-effect free, on every skipped
        // cycle. Because this cycle issued nothing, every ready copy
        // was just evaluated against a fresh budget and blocked, for
        // one of exactly two reasons:
        //
        // - the width rules — a fresh budget that cannot accept the
        //   class never will, so the copy never issues (no stats);
        // - a resource ([`Sim::copy_block`], as the issue pass asks
        //   it). A busy divider frees at a known cycle that joins the
        //   jump targets (no stats) — it is NOT always announced by a
        //   completion event, because a squashed divide keeps its unit
        //   busy after its event is discarded as stale. A full
        //   transfer buffer only refills through a scheduled
        //   buffer-free event (already a jump target); the stepped
        //   loop charges `rtb_full_stalls`/`otb_full_stalls` once per
        //   blocked copy per cycle, so the span charges the per-cycle
        //   count times the span length below.
        //
        // Anything else would issue: abort.
        let rules = &self.cfg.issue_rules;
        let mut div_wake = None;
        let (mut rtb_stalls, mut otb_stalls) = (0u64, 0u64);
        for ci in 0..2 {
            if rules.total == 0 {
                // Budget exhausted before the first copy: the issue
                // pass breaks immediately and evaluates nothing.
                continue;
            }
            let mut divider_blocked = false;
            let mut tally = |group: usize, copies: u64| match group {
                PARK_DIVIDER => divider_blocked = true,
                g if g < PARK_OTB => rtb_stalls += copies,
                _ => otb_stalls += copies,
            };
            for e in &self.ready[ci] {
                if !self.window.contains(e.seq) {
                    return;
                }
                if rules.class_limit(e.slot_class) == 0 {
                    continue; // permanently width-blocked
                }
                let Some(group) = self.copy_block(ci, e) else { return };
                tally(group, 1);
            }
            // Parked copies are blocked the same ways, a whole group
            // at a time: each stays unissuable while its resource is
            // taken, which every skipped cycle re-checks.
            for (g, group) in self.parked[ci].groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                if self.park_resource_free(ci, g) {
                    return;
                }
                tally(g, group.len() as u64);
            }
            if divider_blocked {
                // No dividers configured: unissuable, but the stepped
                // loop's wedge detection must see it.
                let Some(free) = self.divider_free_at(ci) else { return };
                div_wake = Some(div_wake.map_or(free, |w: u64| w.min(free)));
            }
        }
        // Retire: the front might retire next cycle (retirement is
        // in-order, so checking the front suffices).
        if self.window.front().is_some_and(|d| d.complete(now)) {
            return;
        }
        // Dispatch: the stall at the cursor must be one that only a
        // scheduled event can lift.
        let Some(cause) = self.dead_dispatch_cause() else { return };
        // Earliest live completion (also discards stale events, exactly
        // as the single-stepped progress check does when it consults the queue).
        let live_completion = self.next_live_completion(now);
        // The skipped cycles never run the wedge/replay escalation, so
        // fast-forwarding is only sound if the single-stepped loop's progress
        // check would also have seen future work on every one of them.
        // Every term below is constant across the dead span. Applied
        // with the window empty too: an empty window with trace left
        // and no future work is exactly the span the progress check
        // counts toward `Wedged`, so it must tick cycle by cycle.
        let span_future_work = self.fetch_resume_at > now
            || !self.pending_bpred.is_empty()
            || !self.buffer_frees.is_empty()
            || live_completion.is_some();
        if !span_future_work {
            return;
        }
        // The jump target: the earliest cycle anything is scheduled to
        // happen. Everything the engine does originates from one of
        // these queues (or fetch resuming, or a fault firing).
        let mut target = u64::MAX;
        for cycle in [
            self.future_ready.next_cycle(),
            self.wake_events.next_cycle(),
            self.buffer_frees.next_cycle(),
            self.pending_bpred.next_cycle(),
            live_completion,
            div_wake,
        ]
        .into_iter()
        .flatten()
        {
            target = target.min(cycle);
        }
        if self.fetch_resume_at > now {
            target = target.min(self.fetch_resume_at);
        }
        for fault in &self.pending_faults {
            let cycle = fault.cycle();
            if cycle <= now {
                // An armed fault waiting for its target structure to
                // exist must observe every cycle.
                return;
            }
            target = target.min(cycle);
        }
        if target == u64::MAX {
            return;
        }
        // The single-stepped loop errors out upon reaching the cycle limit;
        // jumping past it would skip that check.
        target = target.min(MAX_CYCLES);
        if target <= now {
            return;
        }

        let n = target - now;
        self.charge_idle(cause, n);
        if matches!(cause, Idle::Stall(StallCause::DispatchQueue | StallCause::Registers)) {
            // Each skipped cycle re-probes the fetch line and hits.
            self.icache.record_repeat_hits(self.cursor_op().0.pc, n);
        }
        // Each skipped cycle re-runs the same issue pass against the
        // same full buffers: charge the per-cycle stall counts once per
        // skipped cycle, exactly as the single-stepped loop would.
        self.stats.rtb_full_stalls += rtb_stalls * n;
        self.stats.otb_full_stalls += otb_stalls * n;
        self.ff.skipped_cycles += n;
        self.ff.jumps += 1;
        self.now = target;
    }

    /// Where this cycle goes if dispatch makes no progress on it and,
    /// provably, on every cycle up to the next scheduled event: the
    /// checks [`Sim::dispatch`] makes, without mutating anything. Every
    /// input read is constant while nothing dispatches, issues,
    /// retires, or pops an event. Returns `None` when dispatch could
    /// make progress (or take an icache miss, which mutates cache state
    /// and so must be stepped).
    fn dead_dispatch_cause(&self) -> Option<Idle> {
        if let Some(idle) = self.idle_before_fetch() {
            return Some(idle);
        }
        // An actionless cycle ran dispatch before this check, so a
        // stall at the cursor left a memo behind; reuse it instead of
        // re-deriving the distribution (the inputs match for the same
        // reason the dispatch retry may reuse it).
        let (op, memo) = self.cursor_op();
        if self.reassign_due(op.pc) {
            // With an empty window the switch itself would run: step it.
            return (!self.window.is_empty()).then_some(Idle::Stall(StallCause::Reassign));
        }
        let needs = match memo {
            Some((_, _, needs)) => needs,
            None if self.icache.probe(op.pc, self.now) => self.front_end(&op, self.cursor).2,
            None => return None,
        };
        self.short_of(&needs).map(Idle::Stall)
    }

    /// The idle cycle dispatch takes before it looks at the op at the
    /// cursor: the trace is exhausted, fetch waits on an unresolved
    /// mispredicted branch, or fetch waits out `fetch_resume_at`.
    fn idle_before_fetch(&self) -> Option<Idle> {
        if self.cursor >= self.trace.len() {
            Some(Idle::Drain)
        } else if self.fetch_blocked_by.is_some() {
            Some(Idle::Stall(StallCause::BranchWait))
        } else if self.now < self.fetch_resume_at {
            Some(Idle::Stall(self.fetch_stall))
        } else {
            None
        }
    }

    /// The op at the dispatch cursor, with its front-end work when the
    /// [`DispatchMemo`] holds it.
    fn cursor_op(&self) -> (TraceOp, Option<FrontEnd>) {
        match &self.dispatch_memo {
            Some(m) if m.cursor == self.cursor => (m.op, Some(m.front)),
            _ => (self.trace.get(self.cursor), None),
        }
    }

    /// Whether a register reassignment holds dispatch at an op at `pc`:
    /// one is draining, or `pc` triggers the next one.
    fn reassign_due(&self, pc: u64) -> bool {
        self.reassign_draining || self.pending_reassign.first().is_some_and(|r| r.trigger_pc == pc)
    }

    /// The resource an op needing `needs` cannot get: dispatch-queue
    /// entries, then physical registers.
    fn short_of(&self, needs: &Needs) -> Option<StallCause> {
        if (0..2).any(|c| self.dq_free[c] < u32::from(needs.dq[c])) {
            Some(StallCause::DispatchQueue)
        } else if (0..2).any(|c| {
            self.int_free[c] < i64::from(needs.int[c]) || self.fp_free[c] < i64::from(needs.fp[c])
        }) {
            Some(StallCause::Registers)
        } else {
            None
        }
    }

    /// Charges `cycles` cycles that dispatch nothing to their
    /// [`SimStats`] bucket: the one place a drain or stall cycle is
    /// counted, for stepped cycles and fast-forwarded spans alike. A
    /// stall is reported to the probe too; a probe forces
    /// single-stepping, so it hears one cycle at a time.
    #[inline]
    fn charge_idle(&mut self, idle: Idle, cycles: u64) {
        let s = &mut self.stats;
        let Idle::Stall(cause) = idle else {
            s.drain_cycles += cycles;
            return;
        };
        *match cause {
            StallCause::Icache => &mut s.stall_icache,
            StallCause::BranchWait | StallCause::BranchRedirect => &mut s.stall_branch,
            StallCause::DispatchQueue => &mut s.stall_dq,
            StallCause::Registers => &mut s.stall_regs,
            StallCause::Replay => &mut s.stall_replay,
            StallCause::Reassign => &mut s.stall_reassign,
        } += cycles;
        if P::ENABLED {
            debug_assert_eq!(cycles, 1, "a probe is only attached to single-stepped runs");
            self.probe.stalled(self.now, cause);
        }
    }

    /// The distribution of `op` (the op at trace index `index`), its
    /// physical-register demand and its resource needs: from the
    /// per-static table when the decision does not depend on the load
    /// balance (see [`Sim::dist_table`]).
    fn front_end(&self, op: &TraceOp, index: usize) -> FrontEnd {
        if let Some(hit) = self.dist_table[self.trace.sidx(index)] {
            return hit;
        }
        let dist = distribute(op, &self.assign, &self.balance);
        let phys = dist.phys_needed(op, &self.assign);
        (dist, phys, Needs::of(&dist, &phys))
    }

    /// [`Sim::front_end`], filling the table on a miss.
    fn front_end_cached(&mut self, op: &TraceOp, index: usize) -> FrontEnd {
        let sidx = self.trace.sidx(index);
        if let Some(hit) = self.dist_table[sidx] {
            return hit;
        }
        let Some(dist) = distribute_fixed(op, &self.assign) else {
            return self.front_end(op, index);
        };
        let phys = dist.phys_needed(op, &self.assign);
        let needs = Needs::of(&dist, &phys);
        self.dist_table[sidx] = Some((dist, phys, needs));
        (dist, phys, needs)
    }

    // -- cycle-start event processing --------------------------------------

    fn process_buffer_frees(&mut self) {
        let mut due = std::mem::take(&mut self.scratch_events);
        self.buffer_frees.drain(self.now, &mut due);
        for e in &due {
            let cluster = (e.key >> 1) as usize;
            if e.key & 1 == u64::from(OTB) {
                self.otb_free[cluster] += 1;
            } else {
                self.rtb_free[cluster] += 1;
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    fn process_branch_resolutions(&mut self) {
        if self.pending_bpred.is_empty() {
            return;
        }
        // Keyed by seq: same-cycle resolutions update the predictor in
        // age order, as the heap formulation did.
        let mut due = std::mem::take(&mut self.scratch_events);
        self.pending_bpred.pop_due(self.now, &mut due);
        for e in &due {
            let pc = e.data >> 2;
            let taken = e.data & 0b10 != 0;
            let mispredicted = e.data & 0b1 != 0;
            self.predictor.update(pc, taken);
            if mispredicted && self.fetch_blocked_by == Some(e.key) {
                self.fetch_blocked_by = None;
                // Redirect costs one further cycle after resolution;
                // `dispatch` charges it to `stall_branch` when it hits
                // the waiting period (no eager increment here — the
                // blocked cycles themselves are counted as they pass).
                self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
                self.fetch_stall = StallCause::BranchRedirect;
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    // -- retire -------------------------------------------------------------

    fn retire(&mut self) -> u32 {
        if self.retire_stalled {
            return 0;
        }
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(front) = self.window.front() else { break };
            if !front.complete(self.now) {
                break;
            }
            let d = self.window.pop_front().expect("front exists");
            let seq = d.op.seq;
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => self.int_free[c.index()] += 1,
                    RegBank::Fp => self.fp_free[c.index()] += 1,
                }
            }
            debug_assert!(d.w_done == NIL && d.w_write == NIL, "waiters notified before retire");
            if P::ENABLED {
                self.probe.event(self.now, seq, None, EventKind::Retired);
                self.probe.retired(self.now, seq);
            }
            self.last_replay_base = None; // retirement = forward progress
            self.replays_since_retire = 0;
            self.stats.retired += 1;
            retired += 1;
        }
        retired
    }

    // -- scenario-five wake -------------------------------------------------

    fn wake_suspended_slaves(&mut self) -> u32 {
        let mut woke = 0;
        let now = self.now;
        if self.wake_events.is_empty() {
            return 0;
        }
        // Wake checks are scheduled at master completion; (cycle, seq)
        // order reproduces the window-order scan of the paper's
        // per-cycle wake pass.
        let mut due = std::mem::take(&mut self.scratch_events);
        self.wake_events.pop_due(now, &mut due);
        for e in &due {
            let seq = e.key;
            let Some(d) = self.window.get(seq) else { continue };
            let eligible = {
                d.dist.slave_receives
                    && d.forwards()
                    && !d.woke
                    && d.slave_issued.is_some()
                    && matches!(d.master_done, Some(done) if done <= now)
            };
            if !eligible {
                continue; // stale event from a squashed incarnation
            }
            let slave = {
                let d = &mut self.window[seq];
                let slave = d.dist.slave.expect("scenario five has a slave");
                d.woke = true;
                d.slave_write = Some(now + 1);
                if d.rtb_held {
                    d.rtb_held = false;
                } else {
                    unreachable!("scenario-five master allocated the result entry");
                }
                if !d.dq_slave_freed {
                    d.dq_slave_freed = true;
                    self.dq_free[slave.index()] += 1;
                }
                slave
            };
            let head = std::mem::replace(&mut self.window[seq].w_write, NIL);
            self.notify_waiters(head, now + 1, DeliverySource::SlaveWrite, seq);
            self.record_completion(now + 1, seq, WRITE_EVT);
            self.buffer_frees.schedule(now + 1, (slave.index() as u64) << 1 | u64::from(RTB), 0);
            if P::ENABLED {
                self.probe.forwarded(now + 1, seq, TransferKind::Result, TransferPhase::Release, slave);
                self.probe.event(now, seq, Some(slave), EventKind::SlaveWoke);
                self.probe.event(now + 1, seq, Some(slave), EventKind::RegWritten);
            }
            woke += 1;
        }
        due.clear();
        self.scratch_events = due;
        woke
    }

    // -- issue ----------------------------------------------------------------

    /// Operand availability as seen from `cluster` at dispatch time:
    /// the cycle is either already known, or becomes known when the
    /// producer's completion (`master_done`) or slave register write
    /// (`slave_write`) is scheduled — the returned producer says which
    /// wakeup list to register on.
    fn avail_for(&self, dep: Option<u64>, cluster: ClusterId) -> Avail {
        let Some(p) = dep else { return Avail::Known(0) };
        let Some(d) = self.window.get(p) else { return Avail::Known(0) };
        if Some(cluster) == d.dist.slave && d.dist.slave_receives {
            match d.slave_write {
                Some(t) => Avail::Known(t),
                None => Avail::WaitWrite(p),
            }
        } else {
            match d.master_done {
                Some(t) => Avail::Known(t),
                None => Avail::WaitDone(p),
            }
        }
    }

    /// Records that operand availability for (`consumer`, `action`)
    /// became known (`avail`), enqueueing the copy once its last
    /// operand time is in. `source` and `producer` describe how the
    /// value arrived (probe metadata only — they never affect timing).
    fn deliver(
        &mut self,
        consumer: u64,
        action: u8,
        avail: u64,
        source: DeliverySource,
        producer: Option<u64>,
    ) {
        if !self.window.contains(consumer) {
            return;
        }
        let d = &mut self.window[consumer];
        let st = if action == ACT_MASTER { &mut d.m_wait } else { &mut d.s_wait };
        debug_assert!(st.unknown > 0, "delivery without a registration");
        if st.unknown == 0 {
            return;
        }
        st.unknown -= 1;
        if avail > st.ready_at {
            st.ready_at = avail;
        }
        let all_known = st.unknown == 0;
        let ready_at = st.ready_at;
        let cluster_byte = if all_known {
            let cluster = if action == ACT_MASTER {
                d.dist.master
            } else {
                d.dist.slave.expect("slave action implies a slave")
            };
            cluster.index() as u8
        } else {
            0
        };
        if P::ENABLED && action == ACT_MASTER {
            self.probe.operand_delivered(consumer, avail, source, producer);
        }
        if all_known {
            self.schedule_ready(ready_at, consumer, action, cluster_byte);
        }
    }

    /// Schedules copy (`seq`, `action`) of `cluster` to enter its ready
    /// set at `cycle`.
    fn schedule_ready(&mut self, cycle: u64, seq: u64, action: u8, cluster: u8) {
        let direct =
            self.future_ready.schedule(cycle, seq << 1 | u64::from(action), u64::from(cluster));
        self.count(if direct { WorkCounter::ReadyDirect } else { WorkCounter::ReadyWheel }, 1);
    }

    /// Records that (`seq`, `kind`) completes at `cycle`, for the
    /// progress check.
    fn record_completion(&mut self, cycle: u64, seq: u64, kind: u8) {
        self.count(WorkCounter::CompletionEvents, 1);
        self.completions.push(cycle, seq << 1 | u64::from(kind));
    }

    /// Delivers `avail` to every waiter on a wakeup list. `source` and
    /// `producer` identify the completion or register write that fired
    /// the list (probe metadata only).
    fn notify_waiters(&mut self, head: u32, avail: u64, source: DeliverySource, producer: u64) {
        let mut idx = head;
        while idx != NIL {
            let node = self.waiters.nodes[idx as usize];
            self.waiters.release(idx);
            self.deliver(node.consumer, node.action, avail, source, Some(producer));
            idx = node.next;
        }
    }

    /// Moves copies whose ready cycle has arrived into the per-cluster
    /// ready sets. Runs once per cycle, before the issue passes.
    fn drain_future_ready(&mut self) {
        let now = self.now;
        let mut due = std::mem::take(&mut self.scratch_events);
        self.future_ready.drain(now, &mut due);
        for e in &due {
            let seq = e.key >> 1;
            let action = (e.key & 1) as u8;
            let cl = e.data as usize;
            if !self.window.contains(seq) {
                continue;
            }
            let d = &mut self.window[seq];
            // Validate against the *current* incarnation: a squash and
            // re-dispatch may have left a stale event behind.
            let (cluster_ok, issued, st) = if action == ACT_MASTER {
                (d.dist.master.index() == cl, d.master_issued.is_some(), &mut d.m_wait)
            } else {
                (
                    d.dist.slave.is_some_and(|s| s.index() == cl),
                    d.slave_issued.is_some(),
                    &mut d.s_wait,
                )
            };
            if !cluster_ok || issued || st.in_ready || st.unknown != 0 || st.ready_at > now {
                continue;
            }
            st.in_ready = true;
            let entry = ReadyEntry::of(&self.window[seq], action);
            let ready = &mut self.ready[cl];
            // Copies mostly go ready in age order: append when youngest.
            if ready.last().is_none_or(|last| last.key() < entry.key()) {
                ready.push(entry);
            } else if let Err(pos) = ready.binary_search_by_key(&entry.key(), ReadyEntry::key) {
                ready.insert(pos, entry);
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    /// The oldest copy for `cluster` still waiting on operands, if any
    /// (lazily discarding entries that issued or went ready).
    fn min_waiting(&mut self, cluster: usize) -> Option<u64> {
        while let Some(&(seq, action)) = self.waiting[cluster].front() {
            let live = match self.window.get(seq) {
                None => false,
                Some(d) => {
                    if action == ACT_MASTER {
                        d.dist.master.index() == cluster
                            && d.master_issued.is_none()
                            && !d.m_wait.in_ready
                    } else {
                        d.dist.slave.is_some_and(|s| s.index() == cluster)
                            && d.slave_issued.is_none()
                            && !d.s_wait.in_ready
                    }
                }
            };
            if live {
                return Some(seq);
            }
            self.waiting[cluster].pop_front();
        }
        None
    }

    /// Whether the resource parked group `group` of cluster `ci` waits
    /// for is free now.
    fn park_resource_free(&self, ci: usize, group: usize) -> bool {
        match group {
            PARK_DIVIDER => self.divider_free_at(ci).is_some_and(|free| free <= self.now),
            g if g < PARK_OTB => self.rtb_free[g - PARK_RTB] > 0,
            g => self.otb_free[g - PARK_OTB] > 0,
        }
    }

    /// The cycle cluster `ci`'s first divider unit frees, or `None`
    /// when it has none.
    fn divider_free_at(&self, ci: usize) -> Option<u64> {
        self.div_busy_until[ci][..self.dividers].iter().copied().min()
    }

    /// The park group of the resource that blocks ready copy `e` of
    /// cluster `ci` now, in the issue pass's order: a busy divider for
    /// a divide, then a full result buffer in the slave's cluster for a
    /// master whose slave receives, or a full operand buffer in the
    /// master's cluster for a forwarding slave. `None` if no resource
    /// blocks it. Inlined: the issue pass asks it for every copy it
    /// examines, and as a call it made `live-fp` ~2 % slower.
    #[inline(always)]
    fn copy_block(&self, ci: usize, e: &ReadyEntry) -> Option<usize> {
        if e.act != ACT_MASTER {
            let g = PARK_OTB + usize::from(e.master);
            return (e.forwards && !self.park_resource_free(ci, g)).then_some(g);
        }
        if e.slot_class == InstrClass::FpDiv && !self.park_resource_free(ci, PARK_DIVIDER) {
            return Some(PARK_DIVIDER);
        }
        let g = PARK_RTB + usize::from(e.slave);
        (e.slave_receives && !self.park_resource_free(ci, g)).then_some(g)
    }

    /// One cluster's issue pass: walks the ready copies in age order
    /// against a fresh budget, merging in the parked ones if there are
    /// any ([`Sim::walk_with_parked`]).
    ///
    /// A parked group whose resource is free when the walk reaches its
    /// oldest copy is pulled back copy by copy and examined like any
    /// ready copy. One whose resource is taken blocks that copy and —
    /// resources only run out during a pass — every younger copy in the
    /// group, so the walk passes the rest of the group over without
    /// looking at it and [`Sim::charge_parked`] charges what examining
    /// them would have.
    fn issue_cluster(&mut self, cluster: ClusterId) -> u32 {
        let ci = cluster.index();
        if self.ready[ci].is_empty() && self.parked[ci].is_empty() {
            return 0;
        }
        let mut pass = IssuePass {
            budget: self.cfg.issue_rules.budget(),
            issued: 0,
            blocked: 0,
            examined: 0,
            oldest_waiting: None,
        };
        let mut newly_parked = std::mem::take(&mut self.scratch_parked);
        if self.parked[ci].is_empty() {
            // Nothing parked: compact the ready set in place.
            let mut ready = std::mem::take(&mut self.ready[ci]);
            ready.retain(|&e| {
                if pass.budget.is_exhausted() {
                    return true;
                }
                match self.examine(&mut pass, e, cluster) {
                    Verdict::Keep => true,
                    Verdict::Issued => false,
                    Verdict::Park(_) if P::ENABLED => true,
                    Verdict::Park(g) => {
                        newly_parked.push((g, e));
                        false
                    }
                }
            });
            self.ready[ci] = ready;
        } else {
            self.walk_with_parked(ci, &mut pass, &mut newly_parked, cluster);
        }
        self.count(WorkCounter::ReadyExamined, pass.examined);
        self.count(WorkCounter::CopiesParked, newly_parked.len() as u64);
        for &(g, e) in &newly_parked {
            self.parked[ci].push(g, e);
        }
        newly_parked.clear();
        self.scratch_parked = newly_parked;
        pass.issued
    }

    /// The walk of [`Sim::issue_cluster`] when copies are parked: the
    /// ready set merged with the parked groups in age order, into a
    /// fresh ready set, then the bulk charge for the copies passed over.
    fn walk_with_parked(
        &mut self,
        ci: usize,
        pass: &mut IssuePass,
        newly_parked: &mut Vec<(usize, ReadyEntry)>,
        cluster: ClusterId,
    ) {
        let active = std::mem::take(&mut self.ready[ci]);
        let mut kept = std::mem::take(&mut self.scratch_ready);
        let mut issued_log = std::mem::take(&mut self.scratch_issued);
        // Per group: copies before `pulled` were pulled into the walk;
        // if `passed`, the walk found the resource taken at `pulled`.
        let mut pulled = [0usize; PARK_GROUPS];
        let mut passed = [false; PARK_GROUPS];
        let mut next_parked = self.parked[ci].next(&pulled, &passed);
        let mut i = 0;
        loop {
            let e = match next_parked {
                Some((seq, g)) if active.get(i).is_none_or(|a| seq < a.seq) => {
                    if pass.budget.is_exhausted() {
                        break;
                    }
                    let free = self.park_resource_free(ci, g);
                    if free {
                        pulled[g] += 1;
                    } else {
                        pass.blocked += 1;
                        passed[g] = true;
                    }
                    next_parked = self.parked[ci].next(&pulled, &passed);
                    if !free {
                        continue;
                    }
                    self.parked[ci].groups[g][pulled[g] - 1]
                }
                _ => {
                    let Some(&e) = active.get(i) else { break };
                    if pass.budget.is_exhausted() {
                        break;
                    }
                    i += 1;
                    e
                }
            };
            match self.examine(pass, e, cluster) {
                Verdict::Keep => kept.push(e),
                Verdict::Issued => issued_log.push((e.seq, e.slot_class)),
                Verdict::Park(g) => newly_parked.push((g, e)),
            }
        }
        // Copies the budget never reached stay ready, untouched.
        kept.extend_from_slice(&active[i..]);
        self.ready[ci] = kept;
        self.scratch_ready = active;
        self.scratch_ready.clear();
        let parked = &mut self.parked[ci];
        for (g, &n) in pulled.iter().enumerate() {
            if n > 0 {
                parked.groups[g].drain(..n);
                parked.reclass(g);
            }
        }
        self.charge_parked(ci, &pass.budget, &issued_log);
        issued_log.clear();
        self.scratch_issued = issued_log;
    }

    /// Examines ready copy `e` of `cluster` against the pass's budget
    /// and resources, issuing it if it can.
    fn examine(&mut self, pass: &mut IssuePass, e: ReadyEntry, cluster: ClusterId) -> Verdict {
        enum Action {
            Master,
            SlaveForward,
            SlaveReceive,
        }
        let ci = cluster.index();
        let now = self.now;
        if H::ENABLED {
            pass.examined += 1;
        }
        let (seq, act) = (e.seq, e.act);
        // Classification runs entirely off the cached entry — the
        // window is only dereferenced when the copy issues.
        let action = if act == ACT_MASTER {
            Action::Master
        } else if e.forwards {
            Action::SlaveForward
        } else {
            Action::SlaveReceive
        };

        // ---- structural resources ----
        let slot_class = e.slot_class;
        if !pass.budget.can_take(slot_class) {
            if P::ENABLED && act == ACT_MASTER {
                self.probe.issue_blocked(now, seq, IssueBlock::Width);
            }
            pass.blocked += 1;
            return Verdict::Keep;
        }
        if let Some(g) = self.copy_block(ci, &e) {
            let block = if g == PARK_DIVIDER {
                IssueBlock::Width
            } else {
                self.blocked_on_buffer = true;
                if g < PARK_OTB {
                    self.stats.rtb_full_stalls += 1;
                    IssueBlock::RtbFull
                } else {
                    self.stats.otb_full_stalls += 1;
                    IssueBlock::OtbFull
                }
            };
            if P::ENABLED {
                self.probe.issue_blocked(now, seq, block);
            }
            pass.blocked += 1;
            // A divide's buffer stall depends on its divider too, so
            // only the divider parks it (see `Parked`).
            let parks = g == PARK_DIVIDER || slot_class != InstrClass::FpDiv;
            return if parks { Verdict::Park(g) } else { Verdict::Keep };
        }

        // ---- issue ----
        debug_assert!(self.window.contains(seq), "ready copies are in flight");
        debug_assert!(
            act != ACT_MASTER
                || (self.window[seq].dist.master == cluster
                    && self.window[seq].master_issued.is_none())
        );
        assert!(pass.budget.try_take(slot_class));
        // Out-of-order issue: an older copy for this cluster was
        // passed over, either blocked earlier in this pass (walked or
        // parked) or still waiting on operands.
        if pass.blocked > 0
            || pass
                .oldest_waiting
                .get_or_insert_with(|| self.min_waiting(ci))
                .is_some_and(|w| w < seq)
        {
            self.stats.issue_disorder += 1;
        }
        pass.issued += 1;
        self.stats.per_cluster_issued[ci] += 1;
        {
            let d = &mut self.window[seq];
            let st = if act == ACT_MASTER { &mut d.m_wait } else { &mut d.s_wait };
            st.in_ready = false;
        }
        match action {
            Action::Master => self.issue_master(seq, cluster),
            Action::SlaveForward => self.issue_slave_forward(seq, cluster),
            Action::SlaveReceive => self.issue_slave_receive(seq, cluster),
        }
        Verdict::Issued
    }

    /// Charges the parked copies a pass of cluster `ci` passed over
    /// (those still parked) exactly
    /// as examining each of them in age order would have: each one the
    /// walk reached (budget not exhausted) that fits the width rules is
    /// a transfer-buffer stall if it waits for a buffer. `budget` is the
    /// pass's final budget and `issued` the copies it issued, in age
    /// order. When the final budget still fits every parked class,
    /// every parked copy fitted at its own, earlier and roomier, point
    /// of the walk, so the charge is a count; otherwise the budget is
    /// replayed up to each copy.
    fn charge_parked(&mut self, ci: usize, budget: &IssueBudget, issued: &[(u64, InstrClass)]) {
        let parked = &self.parked[ci];
        let (mut rtb, mut otb) = (0, 0);
        for g in PARK_RTB..PARK_GROUPS {
            let group = &parked.groups[g];
            if group.is_empty() {
                continue;
            }
            let classes = parked.classes[g];
            let fits = (0..4)
                .filter(|&b| classes & (1 << b) != 0)
                .all(|b| budget.can_take(GROUP_CLASS[b]));
            let charged = if fits {
                group.len() as u64
            } else {
                let (mut replay, mut k, mut n) = (self.cfg.issue_rules.budget(), 0, 0);
                for e in group {
                    while k < issued.len() && issued[k].0 < e.seq {
                        replay.try_take(issued[k].1);
                        k += 1;
                    }
                    if replay.is_exhausted() {
                        break;
                    }
                    n += u64::from(replay.can_take(e.slot_class));
                }
                n
            };
            if g < PARK_OTB {
                rtb += charged;
            } else {
                otb += charged;
            }
        }
        self.stats.rtb_full_stalls += rtb;
        self.stats.otb_full_stalls += otb;
        if rtb + otb > 0 {
            self.blocked_on_buffer = true;
        }
    }

    fn issue_master(&mut self, seq: u64, cluster: ClusterId) {
        let now = self.now;
        // Memory access timing (outside the window borrow).
        let (op, class, mem_addr) = {
            let d = &self.window[seq];
            (d.op.op, d.op.class(), d.op.mem_addr)
        };
        let latency = self.cfg.latencies.of(op);
        let mut load_miss = false;
        let done = match class {
            InstrClass::Load => {
                let addr = mem_addr.expect("loads carry an address");
                match self.dcache.access(addr, now, false) {
                    Access::Hit => now + u64::from(latency),
                    Access::Miss { ready_at, .. } => {
                        load_miss = true;
                        ready_at + 1
                    }
                }
            }
            InstrClass::Store => {
                let addr = mem_addr.expect("stores carry an address");
                let _ = self.dcache.access(addr, now, true);
                now + u64::from(latency)
            }
            InstrClass::FpDiv => {
                let unit = self.div_busy_until[cluster.index()][..self.dividers]
                    .iter_mut()
                    .find(|b| **b <= now)
                    .expect("issue checked for a free divider");
                *unit = now + u64::from(latency);
                now + u64::from(latency)
            }
            _ => now + u64::from(latency),
        };

        let (slave_info, fwd, is_cond, pc, taken, mispredicted) = {
            let d = &mut self.window[seq];
            d.master_issued = Some(now);
            d.master_done = Some(done);
            (
                d.dist.slave_receives.then(|| d.dist.slave.expect("slave")),
                d.forwards(),
                d.op.is_conditional_branch(),
                d.op.pc,
                d.op.branch.map(|b| b.taken).unwrap_or(false),
                d.mispredicted,
            )
        };

        // The completion time is now known: wake consumers in this
        // cluster, schedule the slave copy (receive-only slaves may
        // issue from (issue+1).max(done-1); scenario-five slaves are
        // woken at completion), and record the completion event.
        let head = std::mem::replace(&mut self.window[seq].w_done, NIL);
        self.notify_waiters(head, done, DeliverySource::Completion, seq);
        if slave_info.is_some() {
            if fwd {
                self.wake_events.schedule(done, seq, 0);
            } else {
                self.deliver(
                    seq,
                    ACT_SLAVE,
                    (now + 1).max(done.saturating_sub(1)),
                    DeliverySource::Completion,
                    Some(seq),
                );
            }
        }
        self.record_completion(done, seq, DONE_EVT);

        // Free the master's dispatch-queue entry.
        {
            let d = &mut self.window[seq];
            if !d.dq_master_freed {
                d.dq_master_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        }

        // The master obtains forwarded operands at operand read; the
        // operand-buffer entry frees for use the next cycle.
        if fwd {
            let d = &mut self.window[seq];
            if d.otb_held {
                d.otb_held = false;
                self.buffer_frees.schedule(now + 1, (cluster.index() as u64) << 1 | u64::from(OTB), 0);
                if P::ENABLED {
                    self.probe.forwarded(
                        now + 1,
                        seq,
                        TransferKind::Operand,
                        TransferPhase::Release,
                        cluster,
                    );
                }
            }
        }

        // Allocate the result-transfer-buffer entry in the slave's
        // cluster for forwarded results.
        if let Some(slave) = slave_info {
            self.rtb_free[slave.index()] -= 1;
            self.window[seq].rtb_held = true;
            self.stats.results_forwarded += 1;
            if P::ENABLED {
                self.probe.event(done, seq, Some(slave), EventKind::ResultWritten);
                self.probe.forwarded(now, seq, TransferKind::Result, TransferPhase::Alloc, slave);
            }
        }

        // Branch resolution.
        if is_cond {
            self.pending_bpred.schedule(done, seq, pack_branch(pc, taken, mispredicted));
            if P::ENABLED && mispredicted {
                self.probe.event(done, seq, Some(cluster), EventKind::Mispredicted);
            }
        }

        if P::ENABLED {
            self.probe.event(now, seq, Some(cluster), EventKind::MasterIssued);
            self.probe.event(done, seq, Some(cluster), EventKind::ExecDone);
            self.probe.issued(now, seq, cluster, CopyKind::Master, done);
            self.probe.completed(done, seq, cluster);
            if load_miss {
                self.probe.load_missed(seq);
            }
        }
        // The master writes a register copy only when its own cluster
        // holds the destination (always, except scenario three).
        if P::ENABLED {
            let d = &self.window[seq];
            if d.op.dest.is_some_and(|dest| self.assign.clusters_of(dest).contains(cluster)) {
                self.probe.event(done, seq, Some(cluster), EventKind::RegWritten);
            }
        }
    }

    fn issue_slave_forward(&mut self, seq: u64, cluster: ClusterId) {
        let now = self.now;
        let (master, receives, n_forwarded) = {
            let d = &mut self.window[seq];
            d.slave_issued = Some(now);
            (
                d.dist.master,
                d.dist.slave_receives,
                d.dist.forwarded_src.iter().filter(|&&f| f).count(),
            )
        };
        // Allocate the operand-buffer entry in the master's cluster.
        self.otb_free[master.index()] -= 1;
        self.window[seq].otb_held = true;
        self.stats.operands_forwarded += 1;
        if P::ENABLED {
            // The forwarded operand is readable from `now + 1`.
            self.probe.issued(now, seq, cluster, CopyKind::Slave, now + 1);
            self.probe.forwarded(now, seq, TransferKind::Operand, TransferPhase::Alloc, master);
        }

        // The inter-copy dependence lifts: the master reads the
        // forwarded operand(s) from the next cycle on.
        for _ in 0..n_forwarded {
            self.deliver(seq, ACT_MASTER, now + 1, DeliverySource::OperandForward, None);
        }

        // Non-receiving slaves are finished once the operand is written;
        // scenario-five slaves stay suspended in the queue.
        if !receives {
            let d = &mut self.window[seq];
            if !d.dq_slave_freed {
                d.dq_slave_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        } else if P::ENABLED {
            self.probe.event(now + 1, seq, Some(cluster), EventKind::SlaveSuspended);
        }
        if P::ENABLED {
            self.probe.event(now, seq, Some(cluster), EventKind::SlaveIssued);
            self.probe.event(now + 1, seq, Some(master), EventKind::OperandWritten);
        }
    }

    fn issue_slave_receive(&mut self, seq: u64, cluster: ClusterId) {
        let now = self.now;
        {
            let d = &mut self.window[seq];
            d.slave_issued = Some(now);
            d.slave_write = Some(now + 1);
            if d.rtb_held {
                d.rtb_held = false;
            }
        }
        // The write time is now known: wake consumers in this cluster
        // and record the completion event.
        let head = std::mem::replace(&mut self.window[seq].w_write, NIL);
        self.notify_waiters(head, now + 1, DeliverySource::SlaveWrite, seq);
        self.record_completion(now + 1, seq, WRITE_EVT);
        // The slave reads the entry, then writes its register.
        self.buffer_frees.schedule(now + 1, (cluster.index() as u64) << 1 | u64::from(RTB), 0);
        if P::ENABLED {
            self.probe.issued(now, seq, cluster, CopyKind::Slave, now + 1);
            self.probe.forwarded(now + 1, seq, TransferKind::Result, TransferPhase::Release, cluster);
        }
        {
            let d = &mut self.window[seq];
            if !d.dq_slave_freed {
                d.dq_slave_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        }
        if P::ENABLED {
            self.probe.event(now, seq, Some(cluster), EventKind::SlaveIssued);
            self.probe.event(now + 1, seq, Some(cluster), EventKind::RegWritten);
        }
    }

    // -- dispatch (fetch + rename + queue insert) ----------------------------

    fn dispatch(&mut self) -> u32 {
        if let Some(idle) = self.idle_before_fetch() {
            self.charge_idle(idle, 1);
            return 0;
        }
        let now = self.now;
        let mut dispatched = 0;
        let mut last_line: Option<u64> = None;
        // Line sizes are powers of two (`CacheConfig::sets` checks).
        let line_shift = self.cfg.icache.line_bytes.trailing_zeros();

        // Each op either dispatches or ends the group with the stall
        // that holds it, charged below if nothing dispatched.
        let stall = loop {
            if dispatched >= self.cfg.fetch_width || self.cursor >= self.trace.len() {
                return dispatched;
            }
            // A valid memo replays the front-end work recorded the
            // cycle this cursor first stalled; see [`DispatchMemo`].
            let (op, memo) = self.cursor_op();

            // Dynamic register reassignment (Section 6): the first
            // dispatch of a trigger PC drains the pipeline, pays the
            // state-movement penalty, and switches the assignment.
            if self.reassign_due(op.pc) {
                self.reassign_draining = true;
                if self.window.is_empty() {
                    let point = self.pending_reassign.remove(0);
                    self.assign = point.assignment;
                    // Distribution votes depend on the assignment.
                    self.dispatch_memo = None;
                    self.dist_table.fill(None);
                    let (int_free, fp_free) = free_lists_for(self.cfg, &self.assign);
                    self.int_free = int_free;
                    self.fp_free = fp_free;
                    self.reg_caps = (int_free, fp_free);
                    self.reassign_draining = false;
                    self.stats.reassignments += 1;
                    // The switch consumes this cycle, a reassignment
                    // stall (the window is empty, so nothing has
                    // dispatched); `idle_before_fetch` charges the
                    // remaining `reassignment_penalty - 1` wait cycles.
                    self.fetch_resume_at = now + self.cfg.reassignment_penalty;
                    self.fetch_stall = StallCause::Reassign;
                    // Rename state restarts under the new assignment
                    // (every mapping is architectural).
                    for table in &mut self.producers {
                        table.iter_mut().for_each(|e| *e = None);
                    }
                }
                break StallCause::Reassign;
            }

            // Instruction cache (one access per line per group). The
            // memo guarantees the line hit when it was recorded and
            // nothing has touched the instruction cache since (fetch
            // is its only client and the cursor has not moved), so a
            // memoized retry records the repeat hit without the lookup.
            let line = op.pc >> line_shift;
            if last_line != Some(line) {
                if memo.is_some() {
                    self.icache.record_repeat_hits(op.pc, 1);
                } else if let Access::Miss { ready_at, .. } = self.icache.access(op.pc, now, false) {
                    self.fetch_resume_at = ready_at;
                    self.fetch_stall = StallCause::Icache;
                    break StallCause::Icache;
                }
                last_line = Some(line);
            }
            if P::ENABLED {
                self.probe.fetched(now, op.seq);
            }

            // Distribution and resource checks.
            let front = memo.unwrap_or_else(|| self.front_end_cached(&op, self.cursor));
            let (dist, phys, needs) = front;
            if let Some(cause) = self.short_of(&needs) {
                self.dispatch_memo = Some(DispatchMemo { cursor: self.cursor, op, front });
                break cause;
            }
            self.dispatch_memo = None;

            // Commit the dispatch.
            for c in 0..2 {
                self.dq_free[c] -= u32::from(needs.dq[c]);
                self.int_free[c] -= i64::from(needs.int[c]);
                self.fp_free[c] -= i64::from(needs.fp[c]);
            }
            self.balance[dist.master.index()] += 1;
            self.stats.per_cluster_dispatched[dist.master.index()] += 1;
            if let Some(s) = dist.slave {
                self.balance[s.index()] += 1;
                self.stats.per_cluster_dispatched[s.index()] += 1;
                self.stats.dual_distributed += 1;
            } else {
                self.stats.single_distributed += 1;
            }
            self.stats.scenario[usize::from(dist.scenario - 1)] += 1;

            // Resolve source dependences against the rename state.
            let mut src_dep = [None, None];
            let mut src_read_cluster = [dist.master; 2];
            for i in 0..2 {
                let Some(reg) = op.srcs[i] else { continue };
                let rc = if dist.forwarded_src[i] {
                    dist.slave.expect("forwarded operand implies a slave")
                } else {
                    dist.master
                };
                src_read_cluster[i] = rc;
                src_dep[i] = self.producers[rc.index()][reg.dense_index()];
                if P::ENABLED && dist.forwarded_src[i] {
                    if let Some(p) = src_dep[i] {
                        self.probe.forwarded_operand_source(op.seq, p);
                    }
                }
            }
            // Rename the destination in every cluster holding it.
            if let Some(dest) = op.dest {
                for c in self.assign.clusters_of(dest).iter() {
                    if c.index() < usize::from(self.cfg.clusters) {
                        self.producers[c.index()][dest.dense_index()] = Some(op.seq);
                    }
                }
            }

            // Ready-queue bookkeeping: resolve each copy's operand
            // times now, or register on the producer's wakeup list so
            // the copy enters the ready set the moment its last operand
            // time becomes known.
            let seq = op.seq;
            let mut m_wait = WaitState::default();
            let mut s_wait = WaitState::default();
            for i in 0..2 {
                if op.srcs[i].is_none() {
                    continue;
                }
                if dist.forwarded_src[i] {
                    // Inter-copy dependence: lifted when the slave copy
                    // forwards the operand (Section 2.1 scenario two).
                    m_wait.unknown += 1;
                } else {
                    match self.avail_for(src_dep[i], src_read_cluster[i]) {
                        Avail::Known(t) => m_wait.ready_at = m_wait.ready_at.max(t),
                        Avail::WaitDone(pi) => {
                            m_wait.unknown += 1;
                            let head = self.window[pi].w_done;
                            self.window[pi].w_done = self.waiters.push(head, seq, ACT_MASTER);
                        }
                        Avail::WaitWrite(pi) => {
                            m_wait.unknown += 1;
                            let head = self.window[pi].w_write;
                            self.window[pi].w_write = self.waiters.push(head, seq, ACT_MASTER);
                        }
                    }
                }
            }
            if let Some(s) = dist.slave {
                if dist.forwarded_src.iter().any(|&f| f) {
                    for i in 0..2 {
                        if !dist.forwarded_src[i] {
                            continue;
                        }
                        match self.avail_for(src_dep[i], src_read_cluster[i]) {
                            Avail::Known(t) => s_wait.ready_at = s_wait.ready_at.max(t),
                            Avail::WaitDone(pi) => {
                                s_wait.unknown += 1;
                                let head = self.window[pi].w_done;
                                self.window[pi].w_done = self.waiters.push(head, seq, ACT_SLAVE);
                            }
                            Avail::WaitWrite(pi) => {
                                s_wait.unknown += 1;
                                let head = self.window[pi].w_write;
                                self.window[pi].w_write = self.waiters.push(head, seq, ACT_SLAVE);
                            }
                        }
                    }
                } else {
                    // Receive-only slave: schedulable once its master
                    // issues (scenarios three and four).
                    s_wait.unknown = 1;
                }
                if s_wait.unknown == 0 {
                    self.schedule_ready(s_wait.ready_at, seq, ACT_SLAVE, s.index() as u8);
                }
                self.waiting[s.index()].push_back((seq, ACT_SLAVE));
            }
            if m_wait.unknown == 0 {
                self.schedule_ready(m_wait.ready_at, seq, ACT_MASTER, dist.master.index() as u8);
            }
            self.waiting[dist.master.index()].push_back((seq, ACT_MASTER));

            // Branch prediction at queue-insert time (Section 4.2,
            // footnote 2).
            let mut mispredicted = false;
            if op.is_conditional_branch() {
                self.stats.branches += 1;
                let predicted = self.predictor.predict(op.pc);
                let actual = op.branch.expect("conditional has branch info").taken;
                if predicted != actual {
                    mispredicted = true;
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_by = Some(op.seq);
                }
            }

            let master = dist.master;
            let slave = dist.slave;
            let taken = op.branch.is_some_and(|b| b.taken);
            let sched_inserted = op.sched_inserted;
            let slave_receives = dist.slave_receives;
            let ready_floor = m_wait.ready_at;
            let ready_known = m_wait.unknown == 0;
            self.window.push_back(DynInstr {
                op,
                dist,
                phys,
                m_wait,
                s_wait,
                w_done: NIL,
                w_write: NIL,
                master_issued: None,
                master_done: None,
                slave_issued: None,
                slave_write: None,
                woke: false,
                mispredicted,
                dq_master_freed: false,
                dq_slave_freed: false,
                otb_held: false,
                rtb_held: false,
            });
            if P::ENABLED {
                self.probe.event(now, seq, Some(master), EventKind::Distributed);
                if let Some(s) = slave {
                    self.probe.event(now, seq, Some(s), EventKind::Distributed);
                }
                self.probe.dispatched(now, seq, master, slave);
                self.probe.op_dispatch_meta(
                    seq,
                    sched_inserted,
                    slave_receives,
                    ready_floor,
                    ready_known,
                );
            }

            self.cursor += 1;
            dispatched += 1;

            if mispredicted {
                return dispatched; // wrong-path fetch until the branch resolves
            }
            if taken && self.cfg.fetch_stops_at_taken {
                return dispatched; // a taken branch ends the fetch group
            }
        };
        if dispatched == 0 {
            self.charge_idle(Idle::Stall(stall), 1);
        }
        dispatched
    }

    // -- deadlock handling -----------------------------------------------------

    fn check_progress(&mut self, work_done: u32) -> Result<(), SimError> {
        // An empty window only counts as progress when the run is over:
        // with trace left to dispatch, a drained machine must still show
        // future work (fetch resuming, a pending branch resolution, ...)
        // or it is wedged — e.g. fetch blocked on a branch whose
        // resolution was lost — and must be reported, not spun to the
        // cycle limit.
        if work_done > 0 || (self.window.is_empty() && self.cursor >= self.trace.len()) {
            self.no_progress_cycles = 0;
            return Ok(());
        }
        let now = self.now;
        let future_work = self.fetch_resume_at > now
            || !self.pending_bpred.is_empty()
            || !self.buffer_frees.is_empty()
            || self.has_future_completion(now);
        if future_work {
            self.no_progress_cycles = 0;
            return Ok(());
        }
        self.no_progress_cycles += 1;
        if self.no_progress_cycles < 2 {
            return Ok(());
        }
        if self.blocked_on_buffer {
            // Transfer-buffer deadlock (Section 2.1): replay from the
            // youngest instruction holding a buffer entry. If the same
            // deadlock recurs before anything retires, escalate to a
            // full squash (everything but the oldest instruction), which
            // guarantees progress: the oldest instruction's dependences
            // are all retired and every buffer entry is freed.
            let base = self.window.base;
            let escalate = self.last_replay_base == Some(base) && self.window.len() > 1;
            let victim = if escalate {
                Some(base + 1)
            } else {
                self.window.iter().rev().find(|d| d.otb_held || d.rtb_held).map(|d| d.op.seq)
            };
            if let Some(seq) = victim {
                if escalate {
                    self.stats.replay_escalations += 1;
                }
                self.last_replay_base = Some(base);
                self.replay_from(seq);
                self.no_progress_cycles = 0;
                self.replays_since_retire += 1;
                // Replay forward progress: the escalation ladder
                // guarantees at most two replays (one ordinary, one
                // escalated) before the oldest instruction retires.
                if self.check != CheckLevel::Off && self.replays_since_retire > 2 {
                    return Err(SimError::Invariant {
                        cycle: now,
                        rule: "replay-progress",
                        detail: format!(
                            "{} replay exceptions without an intervening retirement \
                             (window base #{})",
                            self.replays_since_retire, self.window.base
                        ),
                        snapshot: self.window_snapshot(),
                    });
                }
                return Ok(());
            }
        }
        if self.no_progress_cycles > self.wedge_threshold {
            return Err(SimError::Wedged { cycle: now, oldest_seq: self.window.base });
        }
        Ok(())
    }

    /// Whether some in-flight instruction completes (master done or
    /// slave register write) strictly after `now`. Exact: every such
    /// time pushes a completion event when scheduled; events from
    /// squashed incarnations are discarded against the live window.
    fn has_future_completion(&mut self, now: u64) -> bool {
        self.next_live_completion(now).is_some()
    }

    /// The earliest cycle strictly after `now` at which a live,
    /// in-flight instruction completes, discarding already-fired and
    /// stale (squashed-incarnation) events along the way.
    fn next_live_completion(&mut self, now: u64) -> Option<u64> {
        self.earliest_live_completion(now).map(|(cycle, _)| cycle)
    }

    /// The earliest live completion event strictly after `now`, as
    /// `(cycle, key)`, dropping stale events along the way.
    fn earliest_live_completion(&mut self, now: u64) -> Option<(u64, u64)> {
        let window = &self.window;
        self.completions.earliest_live(now, |cycle, key| {
            window.get(key >> 1).is_some_and(|d| {
                if key & 1 == u64::from(DONE_EVT) {
                    d.master_done == Some(cycle)
                } else {
                    d.slave_write == Some(cycle)
                }
            })
        })
    }

    // -- invariant checking --------------------------------------------------

    /// A [`render_window`] view of the live window (capped), for
    /// attaching to violation reports.
    fn window_snapshot(&self) -> String {
        use std::fmt::Write as _;
        const MAX_ROWS: usize = 48;
        let rows: Vec<WindowRow> = self
            .window
            .iter()
            .take(MAX_ROWS)
            .map(|d| WindowRow {
                seq: d.op.seq,
                scenario: d.dist.scenario,
                master: d.dist.master.index() as u8,
                slave: d.dist.slave.map(|s| s.index() as u8),
                master_issued: d.master_issued,
                master_done: d.master_done,
                slave_issued: d.slave_issued,
                slave_write: d.slave_write,
                otb_held: d.otb_held,
                rtb_held: d.rtb_held,
            })
            .collect();
        let mut snapshot = render_window(self.now, self.window.base, &rows);
        if self.window.len() > MAX_ROWS {
            let _ = writeln!(snapshot, "  ... {} more", self.window.len() - MAX_ROWS);
        }
        snapshot
    }

    /// Runs every invariant check against the end-of-cycle state,
    /// converting the first violation into [`SimError::Invariant`].
    fn validate_invariants(&mut self, issued_per: &[u32; 2]) -> Result<(), SimError> {
        if let Err(v) = self.find_violation(issued_per) {
            return Err(SimError::Invariant {
                cycle: self.now,
                rule: v.rule,
                detail: v.detail,
                snapshot: self.window_snapshot(),
            });
        }
        Ok(())
    }

    fn find_violation(&mut self, issued_per: &[u32; 2]) -> Result<(), check::Violation> {
        self.check_window_order()?;
        self.check_resource_accounting(issued_per)?;
        self.check_waiter_liveness()?;
        self.check_completion_liveness()?;
        Ok(())
    }

    /// In-order retirement: the window is contiguous in sequence
    /// numbers starting at the retirement base.
    fn check_window_order(&self) -> Result<(), check::Violation> {
        for (i, d) in self.window.iter().enumerate() {
            let expect = self.window.base + i as u64;
            if d.op.seq != expect {
                return Err(check::Violation::new(
                    "window-order",
                    format!("window slot {i} holds #{}, expected #{expect}", d.op.seq),
                ));
            }
        }
        Ok(())
    }

    /// Re-derives every cluster's resource holdings from the window and
    /// checks free + held (+ pending frees) against the configured
    /// capacities, plus the cycle's issue counts against the per-cluster
    /// width.
    fn check_resource_accounting(&self, issued_per: &[u32; 2]) -> Result<(), check::Violation> {
        let n = usize::from(self.cfg.clusters);
        let mut t = [check::ClusterTally::default(); 2];
        let (int_cap, fp_cap) = self.reg_caps;
        for c in 0..n {
            t[c].dq_free = u64::from(self.dq_free[c]);
            t[c].dq_capacity = u64::from(self.cfg.dq_entries);
            t[c].otb_free = u64::from(self.otb_free[c]);
            t[c].otb_capacity = u64::from(self.cfg.operand_buffer);
            t[c].rtb_free = u64::from(self.rtb_free[c]);
            t[c].rtb_capacity = u64::from(self.cfg.result_buffer);
            t[c].int_free = self.int_free[c];
            t[c].int_capacity = int_cap[c];
            t[c].fp_free = self.fp_free[c];
            t[c].fp_capacity = fp_cap[c];
            t[c].issued = issued_per[c];
            t[c].issue_limit = self.cfg.issue_rules.total;
        }
        for d in self.window.iter() {
            let m = d.dist.master.index();
            if !d.dq_master_freed {
                t[m].dq_held += 1;
            }
            if d.otb_held {
                t[m].otb_held += 1;
            }
            if let Some(s) = d.dist.slave {
                if !d.dq_slave_freed {
                    t[s.index()].dq_held += 1;
                }
                if d.rtb_held {
                    t[s.index()].rtb_held += 1;
                }
            }
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => t[c.index()].int_held += 1,
                    RegBank::Fp => t[c.index()].fp_held += 1,
                }
            }
        }
        // Scheduled frees all lie strictly in the future here (due ones
        // were drained at cycle start), so they are exactly the entries
        // that are neither free nor held.
        for e in self.buffer_frees.iter() {
            let c = (e.key >> 1) as usize;
            if e.key & 1 == u64::from(OTB) {
                t[c].otb_pending += 1;
            } else {
                t[c].rtb_pending += 1;
            }
        }
        for (c, tally) in t.iter().enumerate().take(n) {
            check::verify_cluster(c, tally)?;
        }
        Ok(())
    }

    /// Every wakeup-list registration names a live, younger consumer
    /// that still has unknown operands, and every arena node is either
    /// reachable from a window list or on the free list (no leaks, no
    /// cycles).
    fn check_waiter_liveness(&mut self) -> Result<(), check::Violation> {
        let nodes = self.waiters.nodes.len();
        let mut registrations = std::mem::take(&mut self.scratch_regs);
        registrations.clear();
        registrations.resize(self.window.len(), [0; 2]);
        let result = self.waiter_liveness_with(&mut registrations);
        self.scratch_regs = registrations;
        let reachable = result?;
        let free = self.waiters.free_len as usize;
        if reachable + free != nodes {
            return Err(check::Violation::new(
                "waiter-liveness",
                format!("{reachable} reachable + {free} free != {nodes} waiter nodes (leak)"),
            ));
        }
        Ok(())
    }

    /// The traversal half of [`Self::check_waiter_liveness`], split out
    /// so the scratch tally buffer can be restored on either exit path.
    /// Returns the number of reachable arena nodes.
    fn waiter_liveness_with(
        &self,
        registrations: &mut [[u32; 2]],
    ) -> Result<usize, check::Violation> {
        let nodes = self.waiters.nodes.len();
        let mut reachable = 0usize;
        for d in self.window.iter() {
            for (head, list) in [(d.w_done, "done"), (d.w_write, "write")] {
                let mut idx = head;
                while idx != NIL {
                    reachable += 1;
                    if reachable > nodes {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!("cycle in the {list} wakeup list of #{}", d.op.seq),
                        ));
                    }
                    let node = self.waiters.nodes[idx as usize];
                    if !self.window.contains(node.consumer) {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!(
                                "the {list} list of #{} names consumer #{}, which is \
                                 retired or squashed",
                                d.op.seq, node.consumer
                            ),
                        ));
                    }
                    if node.consumer <= d.op.seq {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!(
                                "consumer #{} is not younger than its producer #{}",
                                node.consumer, d.op.seq
                            ),
                        ));
                    }
                    let ci = (node.consumer - self.window.base) as usize;
                    registrations[ci][usize::from(node.action)] += 1;
                    idx = node.next;
                }
            }
        }
        for (d, regs) in self.window.iter().zip(registrations.iter()) {
            for (action, &count) in regs.iter().enumerate() {
                let st = if action == usize::from(ACT_MASTER) { &d.m_wait } else { &d.s_wait };
                if count > u32::from(st.unknown) {
                    return Err(check::Violation::new(
                        "waiter-liveness",
                        format!(
                            "#{} holds {count} wakeup registrations for {} unknown \
                             operands",
                            d.op.seq, st.unknown
                        ),
                    ));
                }
            }
        }
        Ok(reachable)
    }

    /// Every future completion time recorded in the window has a
    /// matching event in the completions queue — otherwise the progress
    /// check could miss pending work and misdiagnose a deadlock.
    fn check_completion_liveness(&mut self) -> Result<(), check::Violation> {
        let mut scheduled = std::mem::take(&mut self.scratch_sched);
        scheduled.clear();
        scheduled.resize(self.window.len(), [false; 2]);
        let result = self.completion_liveness_with(&mut scheduled);
        self.scratch_sched = scheduled;
        result
    }

    /// The marking half of [`Self::check_completion_liveness`], split
    /// out so the scratch mark buffer can be restored on either exit
    /// path.
    fn completion_liveness_with(
        &self,
        scheduled: &mut [[bool; 2]],
    ) -> Result<(), check::Violation> {
        // One pass over the queue marks which window entries have a
        // matching event; stale events for squashed or retired
        // instructions (lazy deletion) simply mark nothing.
        for (cycle, key) in self.completions.iter() {
            let Some(d) = self.window.get(key >> 1) else { continue };
            let wi = (d.op.seq - self.window.base) as usize;
            let (expect, slot) = if key & 1 == u64::from(DONE_EVT) {
                (d.master_done, 0)
            } else {
                (d.slave_write, 1)
            };
            if expect == Some(cycle) {
                scheduled[wi][slot] = true;
            }
        }
        let now = self.now;
        for (wi, d) in self.window.iter().enumerate() {
            if let Some(done) = d.master_done {
                if done > now && !scheduled[wi][0] {
                    return Err(check::Violation::new(
                        "completion-liveness",
                        format!(
                            "#{} completes at cycle {done} with no scheduled completion \
                             event",
                            d.op.seq
                        ),
                    ));
                }
            }
            if let Some(write) = d.slave_write {
                if write > now && !scheduled[wi][1] {
                    return Err(check::Violation::new(
                        "completion-liveness",
                        format!(
                            "#{} writes its slave register copy at cycle {write} with no \
                             scheduled completion event",
                            d.op.seq
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Squashes instruction `from_seq` and everything younger, then
    /// restarts dispatch from it after the replay penalty.
    fn replay_from(&mut self, from_seq: u64) {
        let now = self.now;
        self.stats.replays += 1;
        let end = self.window.base + self.window.len() as u64;
        for seq in from_seq..end {
            let d = &self.window[seq];
            self.stats.replay_squashed += 1;
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => self.int_free[c.index()] += 1,
                    RegBank::Fp => self.fp_free[c.index()] += 1,
                }
            }
            if !d.dq_master_freed {
                self.dq_free[d.dist.master.index()] += 1;
            }
            if let Some(s) = d.dist.slave {
                if !d.dq_slave_freed {
                    self.dq_free[s.index()] += 1;
                }
                if d.rtb_held {
                    self.rtb_free[s.index()] += 1;
                }
            }
            if d.otb_held {
                self.otb_free[d.dist.master.index()] += 1;
            }
            let (w_done, w_write) = (d.w_done, d.w_write);
            self.waiters.release_list(w_done);
            self.waiters.release_list(w_write);
            if P::ENABLED {
                self.probe.event(now, seq, None, EventKind::ReplaySquashed);
            }
        }
        self.window.truncate_from(from_seq);
        let squash_count = end - from_seq;
        if P::ENABLED {
            self.probe.replayed(now, from_seq, squash_count);
        }
        // Squashed copies leave the ready sets and the waiting queues —
        // the latter so re-dispatched incarnations queue in seq order,
        // not behind stale younger entries. Registrations *by* squashed
        // consumers on surviving producers are dropped so a
        // re-dispatched incarnation cannot see a double delivery. The
        // future-ready/wake queues and the completions queue validate
        // lazily against the live window instead.
        for c in 0..2 {
            let keep = self.ready[c].partition_point(|e| e.seq < from_seq);
            self.ready[c].truncate(keep);
            self.parked[c].truncate_from(from_seq);
            while self.waiting[c].back().is_some_and(|&(seq, _)| seq >= from_seq) {
                self.waiting[c].pop_back();
            }
        }
        for seq in self.window.seqs() {
            let head = self.window[seq].w_done;
            self.window[seq].w_done = self.waiters.purge_squashed(head, from_seq);
            let head = self.window[seq].w_write;
            self.window[seq].w_write = self.waiters.purge_squashed(head, from_seq);
        }
        // Drop pending predictor updates for squashed branches.
        self.pending_bpred.retain(|e| e.key < from_seq);
        // Rebuild the rename state from the surviving window.
        for table in &mut self.producers {
            table.iter_mut().for_each(|e| *e = None);
        }
        let n = usize::from(self.cfg.clusters);
        for seq in self.window.seqs() {
            if let Some(dest) = self.window[seq].op.dest {
                for c in self.assign.clusters_of(dest).iter() {
                    if c.index() < n {
                        self.producers[c.index()][dest.dense_index()] = Some(seq);
                    }
                }
            }
        }
        // An unresolved mispredicted branch that was squashed no longer
        // blocks fetch.
        if self.fetch_blocked_by.is_some_and(|b| b >= from_seq) {
            self.fetch_blocked_by = None;
        }
        self.cursor = usize::try_from(from_seq).expect("trace indices fit usize");
        // The rewind restored balance and free lists; any memoized
        // front-end work is stale.
        self.dispatch_memo = None;
        self.fetch_resume_at = now + self.cfg.replay_penalty;
        self.fetch_stall = StallCause::Replay;
    }
}

/// Physical-register free-list sizes for an empty pipeline under
/// `assign`: capacity minus the committed architectural mappings each
/// cluster must hold.
fn free_lists_for(
    cfg: &ProcessorConfig,
    assign: &mcl_isa::assign::RegisterAssignment,
) -> ([i64; 2], [i64; 2]) {
    let n = usize::from(cfg.clusters);
    let mut int_committed = [0i64; 2];
    let mut fp_committed = [0i64; 2];
    for reg in ArchReg::all() {
        if reg.is_zero() {
            continue;
        }
        for c in assign.clusters_of(reg).iter() {
            if c.index() >= n {
                continue;
            }
            match reg.bank() {
                RegBank::Int => int_committed[c.index()] += 1,
                RegBank::Fp => fp_committed[c.index()] += 1,
            }
        }
    }
    let mut int_free = [0i64; 2];
    let mut fp_free = [0i64; 2];
    for c in 0..n {
        int_free[c] = i64::from(cfg.int_regs) - int_committed[c];
        fp_free[c] = i64::from(cfg.fp_regs) - fp_committed[c];
        assert!(int_free[c] > 0 && fp_free[c] > 0, "physical registers too few");
    }
    (int_free, fp_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use mcl_trace::ProgramBuilder;

    fn run(cfg: ProcessorConfig, program: &Program<ArchReg>) -> SimResult {
        Processor::new(cfg).run_program(program).expect("simulates")
    }

    /// A chain of dependent adds on even registers (single cluster use).
    fn chain_program(len: usize) -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("chain");
        let r = ArchReg::int(2);
        b.lda(r, 0);
        for _ in 0..len {
            b.addq_imm(r, r, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn retires_every_instruction() {
        let p = chain_program(50);
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(res.stats.retired, 51);
        assert!(res.stats.cycles >= 51, "a dependent chain runs at one IPC at best");
    }

    #[test]
    fn dependent_chain_runs_at_one_ipc_steady_state() {
        // A loop (warm icache, predictable branch) whose body is a
        // 16-deep dependent add chain: the chain limits throughput to
        // about one add per cycle.
        let mut b = ProgramBuilder::<ArchReg>::new("chain-loop");
        let r = ArchReg::int(2);
        let i = ArchReg::int(4);
        let body = b.new_block("body");
        b.lda(r, 0);
        b.lda(i, 200);
        b.switch_to(body);
        for _ in 0..16 {
            b.addq_imm(r, r, 1);
        }
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        let cycles = res.stats.cycles;
        // 200 iterations x 16-cycle chain = 3200 cycles of pure chain.
        assert!((3200..4200).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn independent_instructions_issue_in_parallel() {
        // 8 independent chains inside a loop: issue-width bound, not
        // dependence bound.
        let mut b = ProgramBuilder::<ArchReg>::new("wide-loop");
        let i = ArchReg::int(20);
        let body = b.new_block("body");
        for c in 0..8u8 {
            b.lda(ArchReg::int(c * 2), i64::from(c));
        }
        b.lda(i, 100);
        b.switch_to(body);
        for _ in 0..5 {
            for c in 0..8u8 {
                let r = ArchReg::int(c * 2);
                b.addq_imm(r, r, 1);
            }
        }
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.ipc() > 4.0, "ipc = {}", res.stats.ipc());
    }

    #[test]
    fn single_cluster_never_dual_distributes() {
        let p = chain_program(20);
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(res.stats.dual_distributed, 0);
        assert_eq!(res.stats.scenario[1..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn cross_cluster_chain_dual_distributes() {
        // Alternating even/odd destinations force inter-cluster traffic.
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..20 {
            b.addq_imm(o, e, 1); // reads C0, writes C1 -> dual
            b.addq_imm(e, o, 1); // reads C1, writes C0 -> dual
        }
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::dual_cluster_8way(), &p);
        assert!(res.stats.dual_distributed >= 40, "stats: {:?}", res.stats);
        assert!(res.stats.results_forwarded > 0 || res.stats.operands_forwarded > 0);
    }

    #[test]
    fn dual_costs_cycles_versus_single_on_pingpong() {
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..50 {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        let p = b.finish().unwrap();
        let dual = run(ProcessorConfig::dual_cluster_8way(), &p);
        let single = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(
            dual.stats.cycles > single.stats.cycles,
            "dual {} vs single {}",
            dual.stats.cycles,
            single.stats.cycles
        );
    }

    #[test]
    fn global_register_writes_update_both_clusters() {
        let mut b = ProgramBuilder::<ArchReg>::new("global");
        let sp = ArchReg::SP;
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(sp, 0x8000);
        b.addq_imm(e, sp, 8); // C0 reads sp locally
        b.addq_imm(o, sp, 16); // C1 reads sp locally
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::dual_cluster_8way(), &p);
        // lda sp is scenario 4 (global destination).
        assert_eq!(res.stats.scenario[3], 1, "stats: {:?}", res.stats.scenario);
        // The two adds are single-distributed (global sources are free).
        assert_eq!(res.stats.scenario[0], 2);
        assert_eq!(res.stats.retired, 3);
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // A data-dependent branch pattern the predictor cannot learn:
        // use an LCG-driven condition.
        let mut b = ProgramBuilder::<ArchReg>::new("branchy");
        let x = ArchReg::int(2);
        let bit = ArchReg::int(4);
        let i = ArchReg::int(6);
        let body = b.new_block("body");
        let skip = b.new_block("skip");
        let join = b.new_block("join");
        b.lda(x, 12345);
        b.lda(i, 200);
        b.switch_to(body);
        b.mulq_imm(x, x, 1103515245);
        b.addq_imm(x, x, 12345);
        b.srl_imm(bit, x, 16);
        b.and_imm(bit, bit, 1);
        b.bne(bit, join);
        b.switch_to(skip);
        b.addq_imm(x, x, 7);
        b.switch_to(join);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.branches >= 400);
        assert!(
            res.stats.mispredicts > res.stats.branches / 10,
            "unpredictable branch should mispredict: {:?}",
            (res.stats.mispredicts, res.stats.branches)
        );
        assert!(res.stats.stall_branch > 0);
    }

    #[test]
    fn dcache_misses_cost_cycles() {
        // Stride through 256 KB (beyond the 64 KB cache) twice.
        let mut b = ProgramBuilder::<ArchReg>::new("stride");
        let base = ArchReg::int(2);
        let x = ArchReg::int(4);
        let i = ArchReg::int(6);
        let body = b.new_block("body");
        b.lda(i, 8192);
        b.lda(base, 0x10_0000);
        b.switch_to(body);
        b.ldq(x, base, 0);
        b.addq_imm(base, base, 32);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.dcache.misses > 8000, "dcache: {:?}", res.stats.dcache);
    }

    #[test]
    fn event_log_is_recorded_when_enabled() {
        let (trace, _) = trace_program_packed(&chain_program(3), 0).unwrap();
        let mut events = EventLog::new();
        Processor::new(ProcessorConfig::single_cluster_8way())
            .run_packed_observed(&trace, &mut events)
            .expect("simulates");
        assert!(events.events().iter().any(|e| e.kind == EventKind::Retired));
        assert!(events.events().iter().any(|e| e.kind == EventKind::MasterIssued));
    }

    #[test]
    fn empty_trace_simulates_to_zero_cycles() {
        let res = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_packed(&PackedTrace::new())
            .unwrap();
        assert_eq!(res.stats.cycles, 0);
        assert_eq!(res.stats.retired, 0);
    }

    #[test]
    fn determinism() {
        let p = chain_program(100);
        let a = run(ProcessorConfig::dual_cluster_8way(), &p);
        let b = run(ProcessorConfig::dual_cluster_8way(), &p);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn waiter_arena_purge_drops_squashed_consumers_and_recycles_nodes() {
        let mut arena = WaiterArena::new();
        let mut head = NIL;
        head = arena.push(head, 1, ACT_MASTER);
        head = arena.push(head, 5, ACT_SLAVE);
        head = arena.push(head, 3, ACT_MASTER);

        // Consumers 3 and 5 are squashed; only consumer 1 survives.
        let head = arena.purge_squashed(head, 3);
        let mut survivors = Vec::new();
        let mut cur = head;
        while cur != NIL {
            let w = &arena.nodes[cur as usize];
            survivors.push((w.consumer, w.action));
            cur = w.next;
        }
        assert_eq!(survivors, vec![(1, ACT_MASTER)]);

        // The two purged nodes went back to the free list: further
        // pushes must reuse them rather than grow the arena.
        let len_before = arena.nodes.len();
        let mut head2 = arena.push(NIL, 7, ACT_MASTER);
        head2 = arena.push(head2, 9, ACT_SLAVE);
        let _ = head2;
        assert_eq!(arena.nodes.len(), len_before, "freed nodes are recycled");
    }

    /// Alternating even/odd destinations: every add dual-distributes
    /// and moves an operand or result through a transfer buffer.
    fn pingpong_program(len: usize) -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..len {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn wedge_threshold_is_a_knob_and_wedging_is_reported() {
        // Leaking every transfer-buffer entry of a 1-entry-buffer
        // machine makes forwarding impossible forever, with no entry
        // *held* by anyone — exactly the unattributable hard stall the
        // wedge detector exists for.
        let p = pingpong_program(20);
        let mut wedge_cycles = Vec::new();
        for threshold in [8u32, 200] {
            let mut cfg = ProcessorConfig::dual_cluster_8way();
            cfg.operand_buffer = 1;
            cfg.result_buffer = 1;
            let err = Processor::new(cfg)
                .with_wedge_threshold(threshold)
                .with_faults(vec![
                    FaultInjection::LeakOperandBuffer { cycle: 0 },
                    FaultInjection::LeakResultBuffer { cycle: 0 },
                ])
                .run_program(&p)
                .unwrap_err();
            match err {
                SimError::Wedged { cycle, oldest_seq } => {
                    assert!(oldest_seq > 0, "the lda retires before the machine wedges");
                    wedge_cycles.push(cycle);
                }
                other => panic!("expected Wedged, got {other}"),
            }
        }
        assert!(
            wedge_cycles[0] + 100 < wedge_cycles[1],
            "a larger threshold must tolerate a longer stall: {wedge_cycles:?}"
        );
    }

    #[test]
    fn cycle_checker_catches_injected_buffer_leak_immediately() {
        let p = pingpong_program(20);
        let err = Processor::new(ProcessorConfig::dual_cluster_8way())
            .checked(CheckLevel::Cycle)
            .with_faults(vec![FaultInjection::LeakOperandBuffer { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, .. } => {
                assert_eq!(rule, "otb-accounting");
                assert_eq!(cycle, 0, "cycle-level checking detects the leak at once");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn retire_checker_catches_injected_buffer_leak_by_first_retirement() {
        let p = pingpong_program(20);
        let err = Processor::new(ProcessorConfig::dual_cluster_8way())
            .checked(CheckLevel::Retire)
            .with_faults(vec![FaultInjection::LeakResultBuffer { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, snapshot, .. } => {
                assert_eq!(rule, "rtb-accounting");
                assert!(cycle > 0, "retire-level checking waits for a retiring cycle");
                assert!(snapshot.contains("window at cycle"), "snapshot: {snapshot}");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    /// A warm loop with trailing straightline work: the loop-exit
    /// branch (taken while iterating, finally not taken) guarantees at
    /// least one misprediction that blocks fetch with trace remaining.
    fn loop_with_tail_program() -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("loop-tail");
        let r = ArchReg::int(2);
        let i = ArchReg::int(4);
        let body = b.new_block("body");
        b.lda(r, 0);
        b.lda(i, 8);
        b.switch_to(body);
        b.addq_imm(r, r, 1);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let tail = b.new_block("tail");
        b.switch_to(tail);
        for _ in 0..10 {
            b.addq_imm(r, r, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn dropped_completion_event_trips_the_liveness_checker() {
        // Multi-cycle multiplies: the drop fault targets a completion
        // strictly in the future, which single-cycle adds never leave
        // visible at a cycle boundary.
        let mut b = ProgramBuilder::<ArchReg>::new("mul-chain");
        let r = ArchReg::int(2);
        b.lda(r, 3);
        for _ in 0..10 {
            b.mulq(r, r, r);
        }
        let p = b.finish().unwrap();
        let err = Processor::new(ProcessorConfig::single_cluster_8way())
            .checked(CheckLevel::Cycle)
            .with_faults(vec![FaultInjection::DropCompletion { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "completion-liveness"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn stuck_branch_resolution_wedges_instead_of_spinning() {
        // Losing the blocking branch's resolution leaves fetch blocked
        // forever while the window drains empty — the tightened
        // progress check must report Wedged (with trace left to run),
        // not spin two billion cycles to the limit.
        let p = loop_with_tail_program();
        let err = Processor::new(ProcessorConfig::single_cluster_8way())
            .with_wedge_threshold(64)
            .with_faults(vec![FaultInjection::StickBranchResolution { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn stuck_branch_wedge_is_engine_identical() {
        // The empty-window wedge span must tick cycle by cycle with and
        // without fast-forward: the fast-forward path may not jump
        // across cycles the single-stepped progress check counts toward
        // the threshold.
        let p = loop_with_tail_program();
        let mut errs = Vec::new();
        for single_stepped in [true, false] {
            let mut processor = Processor::new(ProcessorConfig::single_cluster_8way())
                .with_wedge_threshold(64)
                .with_faults(vec![FaultInjection::StickBranchResolution { cycle: 0 }]);
            if single_stepped {
                processor = processor.single_stepped();
            }
            match processor.run_program(&p).unwrap_err() {
                SimError::Wedged { cycle, oldest_seq } => errs.push((cycle, oldest_seq)),
                other => panic!("expected Wedged, got {other}"),
            }
        }
        assert_eq!(errs[0], errs[1], "single-stepped and fast-forwarded runs disagree on the wedge report");
    }

    #[test]
    fn corrupted_transfer_credit_trips_the_accounting_checker() {
        let p = pingpong_program(20);
        let err = Processor::new(ProcessorConfig::dual_cluster_8way())
            .checked(CheckLevel::Cycle)
            .with_faults(vec![FaultInjection::CorruptTransferCredit { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, .. } => {
                assert_eq!(rule, "otb-accounting");
                assert_eq!(cycle, 0, "phantom credits are visible immediately");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn delayed_operand_delivery_wedges_the_consumer() {
        // Pushing an in-flight operand delivery past the wedge
        // threshold starves its consumer forever; in-order retirement
        // then blocks the whole machine on it.
        let p = pingpong_program(20);
        let err = Processor::new(ProcessorConfig::dual_cluster_8way())
            .with_wedge_threshold(64)
            .with_faults(vec![FaultInjection::DelayOperandDelivery { cycle: 0, delay: 1 << 40 }])
            .run_program(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn leaked_phys_reg_trips_the_accounting_checker() {
        let p = pingpong_program(20);
        let err = Processor::new(ProcessorConfig::dual_cluster_8way())
            .checked(CheckLevel::Cycle)
            .with_faults(vec![FaultInjection::LeakPhysReg { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "phys-reg-accounting"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn stalled_retirement_wedges() {
        let p = chain_program(30);
        let err = Processor::new(ProcessorConfig::single_cluster_8way())
            .with_wedge_threshold(64)
            .with_faults(vec![FaultInjection::StallRetire { cycle: 0 }])
            .run_program(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn hard_watchdog_cancels_with_a_structured_timeout() {
        // A deadline of "now" is already exceeded by the first poll
        // (every 4096 steps), so a long dependent chain must cancel.
        let p = chain_program(6000);
        let _armed = crate::watchdog::arm(Some(std::time::Instant::now()));
        let err = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_program(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "got {err}");
    }

    #[test]
    fn hard_watchdog_with_headroom_does_not_fire() {
        let p = chain_program(6000);
        let baseline = run(ProcessorConfig::single_cluster_8way(), &p);
        let _armed = crate::watchdog::arm_for(std::time::Duration::from_secs(3600));
        let timed = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(timed.stats, baseline.stats, "an unhit deadline must not perturb the run");
    }

    #[test]
    fn checker_does_not_perturb_clean_runs() {
        // Buffers of one entry force replay exceptions through the
        // checker; the stats must match the unchecked run exactly.
        let p = pingpong_program(50);
        for cfg in [ProcessorConfig::dual_cluster_8way(), {
            let mut tiny = ProcessorConfig::dual_cluster_8way();
            tiny.operand_buffer = 1;
            tiny.result_buffer = 1;
            tiny
        }] {
            let baseline = run(cfg.clone(), &p);
            for level in [CheckLevel::Retire, CheckLevel::Cycle] {
                let checked =
                    Processor::new(cfg.clone()).checked(level).run_program(&p).expect("simulates");
                assert_eq!(checked.stats, baseline.stats, "level {level:?} diverged");
            }
        }
    }

    #[test]
    fn recurring_deadlock_at_same_base_escalates_and_still_retires() {
        // Four independent instructions; fake a second transfer-buffer
        // deadlock at an unchanged window base (the first replay's base
        // is recorded in `last_replay_base`). The recovery must take the
        // escalated full squash — keeping only the oldest instruction —
        // and the run must still retire everything.
        let mut b = ProgramBuilder::<ArchReg>::new("escalate");
        for i in 0..4i64 {
            b.lda(ArchReg::int(2 + 2 * u8::try_from(i).unwrap()), i);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program_packed(&p, 0).unwrap();
        let processor = Processor::new(ProcessorConfig::dual_cluster_8way());
        let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
        let mut dispatched = 0;
        for _ in 0..100 {
            dispatched += sim.dispatch();
            if dispatched == 4 {
                break;
            }
            sim.now += 1;
        }
        assert_eq!(dispatched, 4);

        // A younger instruction holds a buffer entry, and the previous
        // replay happened at this very base: the non-escalated victim
        // choice (youngest holder) would deadlock again.
        sim.otb_free[0] -= 1;
        let third = sim.window.base + 2;
        sim.window[third].otb_held = true;
        sim.last_replay_base = Some(sim.window.base);
        sim.blocked_on_buffer = true;
        sim.no_progress_cycles = 1;
        sim.check_progress(0).unwrap();

        assert_eq!(sim.stats.replays, 1);
        assert_eq!(sim.stats.replay_escalations, 1, "same-base recurrence escalates");
        assert_eq!(sim.window.len(), 1, "full squash keeps only the oldest instruction");
        assert_eq!(
            sim.otb_free[0],
            processor.config().operand_buffer,
            "squash returned the held entry"
        );

        let result = sim.run().expect("escalated recovery completes the run");
        assert_eq!(result.stats.retired, 4, "everything retires after re-dispatch");
        assert_eq!(result.stats.replay_escalations, 1);
    }

    #[test]
    fn completion_liveness_detects_a_cleared_event_heap() {
        // Multiplies take several cycles, so a scheduled completion is
        // observably in the future at end-of-cycle.
        let mut b = ProgramBuilder::<ArchReg>::new("mul-chain");
        let r = ArchReg::int(2);
        b.lda(r, 3);
        for _ in 0..10 {
            b.mulq_imm(r, r, 3);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program_packed(&p, 0).unwrap();
        let processor = Processor::new(ProcessorConfig::single_cluster_8way());
        let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
        for _ in 0..200 {
            sim.step().unwrap();
            if sim.window.iter().any(|d| matches!(d.master_done, Some(t) if t > sim.now)) {
                break;
            }
        }
        assert!(
            sim.window.iter().any(|d| matches!(d.master_done, Some(t) if t > sim.now)),
            "an in-flight completion exists"
        );
        assert!(sim.validate_invariants(&[0, 0]).is_ok(), "live state validates");

        sim.completions.clear();
        let err = sim.validate_invariants(&[0, 0]).unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "completion-liveness"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn replay_drains_window_and_filters_pending_predictor_updates() {
        // Four independent instructions on cluster 0, all dispatched in
        // one group; squashing from seq 2 must drain exactly the two
        // younger entries and drop their pending predictor updates.
        let mut b = ProgramBuilder::<ArchReg>::new("squash");
        for i in 0..4i64 {
            b.lda(ArchReg::int(2 + 2 * u8::try_from(i).unwrap()), i);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program_packed(&p, 0).unwrap();
        let processor = Processor::new(ProcessorConfig::dual_cluster_8way());
        let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
        // The first fetch group takes a cold icache miss; step cycles
        // until the whole group has dispatched.
        let mut dispatched = 0;
        for _ in 0..100 {
            dispatched += sim.dispatch();
            if dispatched == 4 {
                break;
            }
            sim.now += 1;
        }
        assert_eq!(dispatched, 4);
        assert_eq!(sim.window.len(), 4);

        // Synthetic in-flight predictor updates for seqs 1 and 3 (the
        // real path enqueues these at master issue of a conditional).
        sim.pending_bpred.schedule(9, 1, pack_branch(0x40, true, false));
        sim.pending_bpred.schedule(9, 3, pack_branch(0x44, true, true));

        sim.replay_from(2);
        assert_eq!(sim.window.len(), 2, "seqs 2 and 3 are drained");
        assert_eq!(sim.stats.replay_squashed, 2);
        assert_eq!(sim.cursor, 2, "fetch restarts at the squash point");
        let pending: Vec<u64> = sim.pending_bpred.iter().map(|e| e.key).collect();
        assert_eq!(pending, vec![1], "squashed branch updates are dropped");
    }

    #[test]
    fn completions_heap_stays_bounded_by_in_flight_work() {
        // A warm loop whose 16-deep dependent chain issues, completes
        // and retires on every cycle, and never replays: no events of
        // squashed incarnations linger, so after every cycle the
        // completions queue holds at most two events per in-flight
        // instruction plus those due on the coming cycle. A queue
        // trimmed only on actionless cycles grows with the length of
        // the run instead.
        let mut b = ProgramBuilder::<ArchReg>::new("chain-loop");
        let r = ArchReg::int(2);
        let i = ArchReg::int(4);
        let body = b.new_block("body");
        b.lda(r, 0);
        b.lda(i, 400);
        b.switch_to(body);
        for _ in 0..16 {
            b.addq_imm(r, r, 1);
        }
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let (trace, _) = trace_program_packed(&p, 0).unwrap();
        let processor = Processor::new(ProcessorConfig::single_cluster_8way());
        let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
        while sim.cursor < trace.len() || !sim.window.is_empty() {
            sim.step().unwrap();
            let now = sim.now;
            let due = sim.completions.iter().filter(|&(cycle, _)| cycle == now).count();
            assert!(
                sim.completions.len() <= 2 * sim.window.len() + due,
                "cycle {now}: {} completion events for {} in-flight instructions",
                sim.completions.len(),
                sim.window.len()
            );
        }
        assert_eq!(sim.stats.replays, 0);
        assert!(sim.now > 6400, "the run is long enough to outgrow any fixed slack");
    }

    #[test]
    fn waiting_queue_front_matches_a_window_scan_under_replays() {
        // Random cross-cluster programs on one-entry transfer buffers
        // take replay exceptions and escalations. After every cycle,
        // the lazily cleaned FIFO must name the same oldest waiting
        // copy per cluster as a scan of the live window.
        let regs: Vec<ArchReg> = (2..10).map(ArchReg::int).collect();
        let mut cfg = ProcessorConfig::dual_cluster_8way();
        cfg.operand_buffer = 1;
        cfg.result_buffer = 1;
        let processor = Processor::new(cfg);
        let mut replays = 0;
        for seed in 0..24 {
            let mut rng = mcl_testutil::Rng::new(seed);
            let mut b = ProgramBuilder::<ArchReg>::new("random-dual");
            for &r in &regs {
                b.lda(r, rng.range_i64(1, 100));
            }
            for _ in 0..rng.range(40, 160) {
                let (d, x, y) = (*rng.pick(&regs), *rng.pick(&regs), *rng.pick(&regs));
                match rng.below(3) {
                    0 => b.addq(d, x, y),
                    1 => b.mulq(d, x, y),
                    _ => b.addq_imm(d, x, 1),
                }
            }
            let p = b.finish().unwrap();
            let (trace, _) = trace_program_packed(&p, 0).unwrap();
            let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
            while sim.cursor < trace.len() || !sim.window.is_empty() {
                sim.step().unwrap();
                for c in 0..2 {
                    let scan = sim
                        .window
                        .iter()
                        .find(|d| {
                            (d.dist.master.index() == c
                                && d.master_issued.is_none()
                                && !d.m_wait.in_ready)
                                || (d.dist.slave.is_some_and(|s| s.index() == c)
                                    && d.slave_issued.is_none()
                                    && !d.s_wait.in_ready)
                        })
                        .map(|d| d.op.seq);
                    // Query a copy, so the check's lazy pops do not
                    // clean the queue more often than the issue pass.
                    let queue = sim.waiting[c].clone();
                    let front = sim.min_waiting(c);
                    sim.waiting[c] = queue;
                    assert_eq!(front, scan, "seed {seed}, cycle {}, cluster {c}", sim.now);
                }
            }
            replays += sim.stats.replays;
        }
        assert!(replays > 0, "one-entry transfer buffers must force replays");
    }

    #[test]
    fn replay_requeues_squashed_waiting_copies_in_seq_order() {
        // Once seqs 0-2 have issued, the lazy front moves past them to
        // the add (seq 3), which waits on the multiply. Squashing from
        // seq 2 must drop the add's queued entry too: left in place, it
        // would sit ahead of the re-dispatched multiply and be reported
        // as the oldest waiting copy once the add is re-dispatched.
        let mut b = ProgramBuilder::<ArchReg>::new("requeue");
        let (x, y, p, q) = (ArchReg::int(2), ArchReg::int(4), ArchReg::int(6), ArchReg::int(8));
        b.lda(x, 3);
        b.lda(y, 5);
        b.mulq(p, x, y);
        b.addq_imm(q, p, 1);
        let prog = b.finish().unwrap();
        let (trace, _) = trace_program_packed(&prog, 0).unwrap();
        let processor = Processor::new(ProcessorConfig::dual_cluster_8way());
        let mut sim = Sim::new(&processor, &trace, NullProbe, NullHostProf);
        let mul_issued = |sim: &Sim<'_>| {
            sim.window.get(2).is_some_and(|d| d.master_issued.is_some())
        };
        while !mul_issued(&sim) {
            assert!(sim.now < 100, "the multiply issues");
            sim.step().unwrap();
        }
        assert_eq!(sim.min_waiting(0), Some(3), "only the add still waits");

        sim.replay_from(2);
        while sim.cursor < trace.len() {
            assert!(sim.now < 200, "the squashed ops re-dispatch");
            sim.step().unwrap();
        }
        assert!(!mul_issued(&sim), "the multiply still waits when the add re-dispatches");
        assert_eq!(sim.min_waiting(0), Some(2), "the re-dispatched multiply waits first");
    }
}
