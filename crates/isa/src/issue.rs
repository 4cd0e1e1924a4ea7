//! Issue rules and functional-unit latencies (Table 1 of the paper).
//!
//! Table 1 gives, for the single-cluster (8-way) processor and for each
//! cluster of the dual-cluster processor (4-way per cluster):
//!
//! | | all | int (all) | fp (all) | loads & stores | control flow |
//! |---|---|---|---|---|---|
//! | single | 8 | 8 | 4 | 4 | 4 |
//! | dual, per cluster | 4 | 4 | 2 | 2 | 2 |
//!
//! and the functional-unit latencies: integer multiply 6, integer other 1,
//! fp divide 8/16 (not pipelined), fp other 3, loads & stores 1 (with a
//! single load-delay slot), control flow 1. All units except the divider
//! are fully pipelined.


use crate::class::InstrClass;
use crate::op::Opcode;

/// Per-cycle instruction-issue limits for one cluster (or for the whole
/// single-cluster processor), as in the first two rows of Table 1.
///
/// # Example
///
/// ```
/// use mcl_isa::{IssueRules, InstrClass};
///
/// let single = IssueRules::single_cluster_8way();
/// assert_eq!(single.total, 8);
/// assert_eq!(single.class_limit(InstrClass::FpDiv), 4);
///
/// let dual = IssueRules::dual_cluster_4way();
/// assert_eq!(dual.total, 4);
/// assert_eq!(dual.class_limit(InstrClass::Load), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRules {
    /// Maximum instructions issued per cycle, all classes combined.
    pub total: u32,
    /// Maximum integer instructions (multiply + other) per cycle.
    pub int_all: u32,
    /// Maximum floating-point instructions (divide + other) per cycle.
    pub fp_all: u32,
    /// Maximum loads-plus-stores per cycle.
    pub mem: u32,
    /// Maximum control-flow instructions per cycle.
    pub control: u32,
}

impl IssueRules {
    /// The single-cluster, eight-way issue processor of Table 1 row 1.
    #[must_use]
    pub fn single_cluster_8way() -> IssueRules {
        IssueRules { total: 8, int_all: 8, fp_all: 4, mem: 4, control: 4 }
    }

    /// One cluster of the dual-cluster processor of Table 1 row 2.
    #[must_use]
    pub fn dual_cluster_4way() -> IssueRules {
        IssueRules { total: 4, int_all: 4, fp_all: 2, mem: 2, control: 2 }
    }

    /// The four-way single-cluster processor (the paper also evaluated
    /// four-way issue; limits are the eight-way limits halved).
    #[must_use]
    pub fn single_cluster_4way() -> IssueRules {
        IssueRules { total: 4, int_all: 4, fp_all: 2, mem: 2, control: 2 }
    }

    /// One cluster of a dual-cluster processor built from the four-way
    /// configuration (two-way issue per cluster).
    #[must_use]
    pub fn dual_cluster_2way() -> IssueRules {
        IssueRules { total: 2, int_all: 2, fp_all: 1, mem: 1, control: 1 }
    }

    /// The per-cycle limit that applies to `class` (the class's column
    /// group in Table 1), not counting the overall `total` limit.
    #[must_use]
    #[inline]
    pub fn class_limit(&self, class: InstrClass) -> u32 {
        match class {
            InstrClass::IntMul | InstrClass::IntAlu => self.int_all,
            InstrClass::FpDiv | InstrClass::FpOther => self.fp_all,
            InstrClass::Load | InstrClass::Store => self.mem,
            InstrClass::ControlFlow => self.control,
        }
    }

    /// Starts a fresh per-cycle issue budget governed by these rules.
    #[must_use]
    #[inline]
    pub fn budget(&self) -> IssueBudget {
        IssueBudget { rules: *self, total: 0, int_all: 0, fp_all: 0, mem: 0, control: 0 }
    }
}

/// Tracks how many issue slots of each kind have been consumed this cycle.
///
/// Obtain one per cluster per cycle from [`IssueRules::budget`], then call
/// [`IssueBudget::try_take`] for each candidate instruction in age order.
///
/// # Example
///
/// ```
/// use mcl_isa::{IssueRules, InstrClass};
///
/// let rules = IssueRules::dual_cluster_4way();
/// let mut budget = rules.budget();
/// assert!(budget.try_take(InstrClass::FpOther));
/// assert!(budget.try_take(InstrClass::FpDiv));
/// // fp_all = 2 in the dual configuration, so a third fp op must wait.
/// assert!(!budget.try_take(InstrClass::FpOther));
/// assert!(budget.try_take(InstrClass::IntAlu));
/// ```
#[derive(Debug, Clone)]
pub struct IssueBudget {
    rules: IssueRules,
    total: u32,
    int_all: u32,
    fp_all: u32,
    mem: u32,
    control: u32,
}

impl IssueBudget {
    /// Whether an instruction of `class` could issue without exceeding any
    /// limit, without consuming the slot.
    #[must_use]
    #[inline]
    pub fn can_take(&self, class: InstrClass) -> bool {
        if self.total >= self.rules.total {
            return false;
        }
        let (used, limit) = self.class_usage(class);
        used < limit
    }

    /// Consumes an issue slot for `class`; returns whether the slot was
    /// available.
    #[inline]
    pub fn try_take(&mut self, class: InstrClass) -> bool {
        if !self.can_take(class) {
            return false;
        }
        self.total += 1;
        match class {
            InstrClass::IntMul | InstrClass::IntAlu => self.int_all += 1,
            InstrClass::FpDiv | InstrClass::FpOther => self.fp_all += 1,
            InstrClass::Load | InstrClass::Store => self.mem += 1,
            InstrClass::ControlFlow => self.control += 1,
        }
        true
    }

    /// Whether the all-classes total has been exhausted.
    #[must_use]
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.total >= self.rules.total
    }

    /// Instructions issued so far this cycle.
    #[must_use]
    pub fn taken(&self) -> u32 {
        self.total
    }

    #[inline]
    fn class_usage(&self, class: InstrClass) -> (u32, u32) {
        match class {
            InstrClass::IntMul | InstrClass::IntAlu => (self.int_all, self.rules.int_all),
            InstrClass::FpDiv | InstrClass::FpOther => (self.fp_all, self.rules.fp_all),
            InstrClass::Load | InstrClass::Store => (self.mem, self.rules.mem),
            InstrClass::ControlFlow => (self.control, self.rules.control),
        }
    }
}

/// Functional-unit latencies (Table 1 row 3), in cycles.
///
/// All units are fully pipelined except the floating-point divider, whose
/// occupancy the simulator models separately. The load latency given here
/// is the cache-hit latency *including* the single load-delay slot, i.e.
/// a dependent instruction can issue two cycles after the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Integer multiply (Table 1: 6).
    pub int_mul: u32,
    /// Other integer operations (Table 1: 1).
    pub int_alu: u32,
    /// Other floating-point operations (Table 1: 3).
    pub fp_other: u32,
    /// Load-to-use latency on a cache hit: 1-cycle unit latency plus the
    /// single load-delay slot of Table 1.
    pub load_hit: u32,
    /// Store occupancy (no register result is produced).
    pub store: u32,
    /// Control flow (Table 1: 1).
    pub control: u32,
}

impl Latencies {
    /// The Table 1 latencies.
    #[must_use]
    pub fn table1() -> Latencies {
        Latencies { int_mul: 6, int_alu: 1, fp_other: 3, load_hit: 2, store: 1, control: 1 }
    }

    /// The execution latency of `op`, excluding memory-system time beyond
    /// a cache hit (the simulator adds miss time from the memory model).
    ///
    /// Divide-class latencies come from the opcode's [`crate::DivWidth`].
    #[must_use]
    #[inline]
    pub fn of(&self, op: Opcode) -> u32 {
        match op.class() {
            InstrClass::IntMul => self.int_mul,
            InstrClass::IntAlu => self.int_alu,
            InstrClass::FpDiv => op.div_width().expect("divide-class opcode has a width").latency(),
            InstrClass::FpOther => self.fp_other,
            InstrClass::Load => self.load_hit,
            InstrClass::Store => self.store,
            InstrClass::ControlFlow => self.control,
        }
    }
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_single_cluster_limits() {
        let r = IssueRules::single_cluster_8way();
        assert_eq!((r.total, r.int_all, r.fp_all, r.mem, r.control), (8, 8, 4, 4, 4));
    }

    #[test]
    fn table1_dual_cluster_limits_are_halved() {
        let single = IssueRules::single_cluster_8way();
        let dual = IssueRules::dual_cluster_4way();
        assert_eq!(dual.total * 2, single.total);
        assert_eq!(dual.int_all * 2, single.int_all);
        assert_eq!(dual.fp_all * 2, single.fp_all);
        assert_eq!(dual.mem * 2, single.mem);
        assert_eq!(dual.control * 2, single.control);
    }

    #[test]
    fn budget_enforces_total_limit() {
        let rules = IssueRules::single_cluster_8way();
        let mut b = rules.budget();
        for _ in 0..8 {
            assert!(b.try_take(InstrClass::IntAlu));
        }
        assert!(b.is_exhausted());
        assert!(!b.try_take(InstrClass::IntAlu));
        assert!(!b.try_take(InstrClass::ControlFlow));
        assert_eq!(b.taken(), 8);
    }

    #[test]
    fn budget_enforces_class_limits_independently() {
        let rules = IssueRules::single_cluster_8way();
        let mut b = rules.budget();
        // 4 memory ops exhaust the mem group but not the total.
        for _ in 0..4 {
            assert!(b.try_take(InstrClass::Load));
        }
        assert!(!b.try_take(InstrClass::Store));
        assert!(b.try_take(InstrClass::IntAlu));
    }

    #[test]
    fn loads_and_stores_share_a_limit() {
        let rules = IssueRules::dual_cluster_4way();
        let mut b = rules.budget();
        assert!(b.try_take(InstrClass::Load));
        assert!(b.try_take(InstrClass::Store));
        assert!(!b.try_take(InstrClass::Load));
    }

    #[test]
    fn mul_and_alu_share_the_integer_limit() {
        let rules = IssueRules::dual_cluster_4way();
        let mut b = rules.budget();
        assert!(b.try_take(InstrClass::IntMul));
        assert!(b.try_take(InstrClass::IntAlu));
        assert!(b.try_take(InstrClass::IntMul));
        assert!(b.try_take(InstrClass::IntAlu));
        assert!(!b.try_take(InstrClass::IntMul));
    }

    #[test]
    fn table1_latencies() {
        let lat = Latencies::table1();
        assert_eq!(lat.of(Opcode::Mulq), 6);
        assert_eq!(lat.of(Opcode::Addq), 1);
        assert_eq!(lat.of(Opcode::Divs), 8);
        assert_eq!(lat.of(Opcode::Divt), 16);
        assert_eq!(lat.of(Opcode::Sqrtt), 16);
        assert_eq!(lat.of(Opcode::Addt), 3);
        assert_eq!(lat.of(Opcode::Ldq), 2, "hit latency includes the load-delay slot");
        assert_eq!(lat.of(Opcode::Br), 1);
    }
}
