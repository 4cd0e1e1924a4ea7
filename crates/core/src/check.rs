//! Architectural invariant checking.
//!
//! The execution model of Section 2.1 rests on exact resource
//! accounting: every dispatch-queue slot, physical register, and
//! operand/result transfer-buffer entry that is allocated must be held
//! by exactly one in-flight instruction or be scheduled to free at a
//! known cycle. A bookkeeping bug anywhere in that machinery silently
//! corrupts cycle counts — the paper's metric — long before it crashes.
//!
//! [`CheckLevel`] selects how aggressively the simulator re-derives and
//! cross-checks that state from the window. It is a run option
//! ([`Processor::checked`](crate::Processor::checked)), not part of the
//! [`ProcessorConfig`](crate::ProcessorConfig), so a checked run and a
//! plain one share every result-cache key:
//!
//! - [`CheckLevel::Off`] — no checking (the default; zero cost);
//! - [`CheckLevel::Retire`] — validate on every cycle that retires at
//!   least one instruction (bounds the lag between a corruption and its
//!   detection by one retirement, at a few percent overhead);
//! - [`CheckLevel::Cycle`] — validate every cycle (immediate detection;
//!   the full window walk makes long runs several times slower).
//!
//! Violations surface as [`SimError::Invariant`](crate::SimError) with
//! the failing rule, a detail string, and a pipeview-style window
//! snapshot, instead of a debug-only assert or silent divergence.
//!
//! The checker never mutates simulation state, so enabling it cannot
//! change any statistic of a correct run — `repro` output is
//! byte-identical with the checker on or off.

use std::str::FromStr;

/// How much architectural-invariant validation the simulator performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckLevel {
    /// No validation.
    #[default]
    Off,
    /// Validate at every retiring cycle.
    Retire,
    /// Validate every cycle.
    Cycle,
}

impl CheckLevel {
    /// The level's command-line name (`off` / `retire` / `cycle`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckLevel::Off => "off",
            CheckLevel::Retire => "retire",
            CheckLevel::Cycle => "cycle",
        }
    }
}

impl FromStr for CheckLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<CheckLevel, String> {
        match s {
            "off" => Ok(CheckLevel::Off),
            "retire" => Ok(CheckLevel::Retire),
            "cycle" => Ok(CheckLevel::Cycle),
            other => Err(format!("unknown check level `{other}` (use off, retire, or cycle)")),
        }
    }
}

/// A deliberate fault injected into the simulator's resource
/// accounting, for proving the checker catches real corruption (used by
/// `repro selftest` and the `repro chaos` campaign). Faults are applied
/// at the start of the given cycle (some wait in a pending state until
/// their target structure exists) and are *not* visible to the
/// checker's expected values — every fault must therefore surface as a
/// structured [`SimError`](crate::SimError): an accounting/liveness
/// `Invariant` or a `Wedged` progress failure, never as silently wrong
/// statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultInjection {
    /// Decrement every cluster's operand-transfer-buffer free count by
    /// one without any holder.
    LeakOperandBuffer {
        /// The cycle at which the leak is applied.
        cycle: u64,
    },
    /// Decrement every cluster's result-transfer-buffer free count by
    /// one without any holder.
    LeakResultBuffer {
        /// The cycle at which the leak is applied.
        cycle: u64,
    },
    /// Remove the earliest still-live future completion event from the
    /// completion queue (as if the functional unit never signalled).
    /// The fault stays pending until such an event exists. Detected by
    /// the `completion-liveness` rule at [`CheckLevel::Cycle`].
    DropCompletion {
        /// The first cycle at which a live event may be dropped.
        cycle: u64,
    },
    /// Remove the pending resolution event of the branch currently
    /// blocking fetch (as if the resolution bus lost the update), so
    /// fetch stays blocked forever. The fault waits until fetch is
    /// blocked on a branch. Surfaces as `Wedged` once the window drains.
    StickBranchResolution {
        /// The first cycle at which a blocking branch may be stuck.
        cycle: u64,
    },
    /// Increment every cluster's operand- and result-transfer-buffer
    /// free counts by one (phantom credits above capacity). Detected by
    /// the `otb-accounting`/`rtb-accounting` rules.
    CorruptTransferCredit {
        /// The cycle at which the credits are corrupted.
        cycle: u64,
    },
    /// Delay the earliest scheduled cross-cluster operand delivery by
    /// `delay` cycles (as if the transfer network stalled the packet).
    /// The fault stays pending until a delivery is in flight. With a
    /// delay far beyond `wedge_threshold` the consumer never issues and
    /// the run surfaces as `Wedged`.
    DelayOperandDelivery {
        /// The first cycle at which a delivery may be delayed.
        cycle: u64,
        /// How many cycles the delivery is pushed back.
        delay: u64,
    },
    /// Decrement every cluster's integer physical-register free count
    /// by one without any holder. Detected by `phys-reg-accounting`.
    LeakPhysReg {
        /// The cycle at which the leak is applied.
        cycle: u64,
    },
    /// Permanently stop the retirement stage from the given cycle (as
    /// if the commit port latched up). The window fills and drains into
    /// a `Wedged` report (or `replay-progress` when the machine loops
    /// through buffer-blocked replays instead).
    StallRetire {
        /// The first cycle at which retirement is suppressed.
        cycle: u64,
    },
}

impl FaultInjection {
    /// The cycle at which the fault first becomes applicable.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            FaultInjection::LeakOperandBuffer { cycle }
            | FaultInjection::LeakResultBuffer { cycle }
            | FaultInjection::DropCompletion { cycle }
            | FaultInjection::StickBranchResolution { cycle }
            | FaultInjection::CorruptTransferCredit { cycle }
            | FaultInjection::DelayOperandDelivery { cycle, .. }
            | FaultInjection::LeakPhysReg { cycle }
            | FaultInjection::StallRetire { cycle } => *cycle,
        }
    }

    /// A short stable name for reports and campaign matrices.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultInjection::LeakOperandBuffer { .. } => "leak-operand-buffer",
            FaultInjection::LeakResultBuffer { .. } => "leak-result-buffer",
            FaultInjection::DropCompletion { .. } => "drop-completion",
            FaultInjection::StickBranchResolution { .. } => "stick-branch-resolution",
            FaultInjection::CorruptTransferCredit { .. } => "corrupt-transfer-credit",
            FaultInjection::DelayOperandDelivery { .. } => "delay-operand-delivery",
            FaultInjection::LeakPhysReg { .. } => "leak-phys-reg",
            FaultInjection::StallRetire { .. } => "stall-retire",
        }
    }
}

/// One detected invariant violation (converted by the simulator into
/// [`SimError::Invariant`](crate::SimError) with cycle and snapshot
/// attached).
#[derive(Debug, Clone)]
pub(crate) struct Violation {
    pub(crate) rule: &'static str,
    pub(crate) detail: String,
}

impl Violation {
    pub(crate) fn new(rule: &'static str, detail: impl Into<String>) -> Violation {
        Violation { rule, detail: detail.into() }
    }
}

/// Per-cluster resource accounting collected from the live window, to
/// be checked against configured capacities.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClusterTally {
    pub(crate) dq_free: u64,
    pub(crate) dq_held: u64,
    pub(crate) dq_capacity: u64,
    pub(crate) otb_free: u64,
    pub(crate) otb_held: u64,
    pub(crate) otb_pending: u64,
    pub(crate) otb_capacity: u64,
    pub(crate) rtb_free: u64,
    pub(crate) rtb_held: u64,
    pub(crate) rtb_pending: u64,
    pub(crate) rtb_capacity: u64,
    pub(crate) int_free: i64,
    pub(crate) int_held: i64,
    pub(crate) int_capacity: i64,
    pub(crate) fp_free: i64,
    pub(crate) fp_held: i64,
    pub(crate) fp_capacity: i64,
    pub(crate) issued: u32,
    pub(crate) issue_limit: u32,
}

/// Checks one cluster's tally: every resource's free + held (+ pending,
/// for the transfer buffers, whose frees are scheduled a cycle ahead)
/// must equal its capacity, and the cycle's issue count must respect
/// the per-cluster width.
pub(crate) fn verify_cluster(cluster: usize, t: &ClusterTally) -> Result<(), Violation> {
    if t.dq_free + t.dq_held != t.dq_capacity {
        return Err(Violation::new(
            "dq-accounting",
            format!(
                "cluster {cluster}: {} free + {} held != {} dispatch-queue entries",
                t.dq_free, t.dq_held, t.dq_capacity
            ),
        ));
    }
    if t.otb_free + t.otb_held + t.otb_pending != t.otb_capacity {
        return Err(Violation::new(
            "otb-accounting",
            format!(
                "cluster {cluster}: {} free + {} held + {} pending != {} operand-buffer entries",
                t.otb_free, t.otb_held, t.otb_pending, t.otb_capacity
            ),
        ));
    }
    if t.rtb_free + t.rtb_held + t.rtb_pending != t.rtb_capacity {
        return Err(Violation::new(
            "rtb-accounting",
            format!(
                "cluster {cluster}: {} free + {} held + {} pending != {} result-buffer entries",
                t.rtb_free, t.rtb_held, t.rtb_pending, t.rtb_capacity
            ),
        ));
    }
    if t.int_free < 0 || t.int_free + t.int_held != t.int_capacity {
        return Err(Violation::new(
            "phys-reg-accounting",
            format!(
                "cluster {cluster}: {} free + {} held != {} available integer registers",
                t.int_free, t.int_held, t.int_capacity
            ),
        ));
    }
    if t.fp_free < 0 || t.fp_free + t.fp_held != t.fp_capacity {
        return Err(Violation::new(
            "phys-reg-accounting",
            format!(
                "cluster {cluster}: {} free + {} held != {} available floating-point registers",
                t.fp_free, t.fp_held, t.fp_capacity
            ),
        ));
    }
    if t.issued > t.issue_limit {
        return Err(Violation::new(
            "issue-width",
            format!(
                "cluster {cluster}: issued {} copies in one cycle, width is {}",
                t.issued, t.issue_limit
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_names_round_trip() {
        for level in [CheckLevel::Off, CheckLevel::Retire, CheckLevel::Cycle] {
            assert_eq!(level.name().parse::<CheckLevel>().unwrap(), level);
        }
        assert!("paranoid".parse::<CheckLevel>().is_err());
    }

    #[test]
    fn balanced_tally_verifies() {
        let t = ClusterTally {
            dq_free: 60,
            dq_held: 4,
            dq_capacity: 64,
            otb_free: 6,
            otb_held: 1,
            otb_pending: 1,
            otb_capacity: 8,
            rtb_free: 8,
            rtb_capacity: 8,
            int_free: 30,
            int_held: 2,
            int_capacity: 32,
            fp_free: 32,
            fp_capacity: 32,
            issued: 4,
            issue_limit: 4,
            ..ClusterTally::default()
        };
        assert!(verify_cluster(0, &t).is_ok());
    }

    #[test]
    fn each_imbalance_names_its_rule() {
        let ok = ClusterTally {
            dq_capacity: 8,
            dq_free: 8,
            otb_capacity: 2,
            otb_free: 2,
            rtb_capacity: 2,
            rtb_free: 2,
            int_capacity: 32,
            int_free: 32,
            fp_capacity: 32,
            fp_free: 32,
            issue_limit: 4,
            ..ClusterTally::default()
        };
        let mut t = ok;
        t.dq_free = 7;
        assert_eq!(verify_cluster(0, &t).unwrap_err().rule, "dq-accounting");
        let mut t = ok;
        t.otb_free = 1;
        assert_eq!(verify_cluster(0, &t).unwrap_err().rule, "otb-accounting");
        let mut t = ok;
        t.rtb_pending = 1;
        assert_eq!(verify_cluster(0, &t).unwrap_err().rule, "rtb-accounting");
        let mut t = ok;
        t.int_held = 1;
        assert_eq!(verify_cluster(0, &t).unwrap_err().rule, "phys-reg-accounting");
        let mut t = ok;
        t.fp_free = -1;
        assert_eq!(verify_cluster(1, &t).unwrap_err().rule, "phys-reg-accounting");
        let mut t = ok;
        t.issued = 5;
        assert_eq!(verify_cluster(0, &t).unwrap_err().rule, "issue-width");
    }
}
