//! Instruction distribution: deciding, from the architectural registers
//! an instruction names, which cluster(s) execute it (Section 2.1).

use mcl_isa::{assign::RegisterAssignment, ArchReg, ClusterId, ClusterSet, RegBank};
use mcl_trace::TraceOp;

/// The distribution decision for one dynamic instruction.
///
/// Covers the five execution scenarios of Section 2.1:
///
/// 1. single-cluster execution;
/// 2. dual execution, slave forwards a source operand to the master;
/// 3. dual execution, master forwards the result to the slave's cluster
///    (the destination is local to the slave's cluster);
/// 4. dual execution for a global destination (sources all readable by
///    the master);
/// 5. dual execution with both an operand forward and a global result.
///
/// The physical-register allocations of one instruction, as
/// (cluster, bank) pairs — at most one per cluster, held inline so the
/// dispatch hot path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysRegs {
    len: u8,
    regs: [(ClusterId, RegBank); 2],
}

impl PhysRegs {
    /// No allocations (instructions without a destination).
    #[must_use]
    pub fn none() -> PhysRegs {
        PhysRegs { len: 0, regs: [(ClusterId::C0, RegBank::Int); 2] }
    }

    fn push(&mut self, cluster: ClusterId, bank: RegBank) {
        self.regs[usize::from(self.len)] = (cluster, bank);
        self.len += 1;
    }

    /// Number of allocations (0–2).
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no physical register is needed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The (cluster, bank) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, RegBank)> + '_ {
        self.regs[..usize::from(self.len)].iter().copied()
    }
}

impl Default for PhysRegs {
    fn default() -> PhysRegs {
        PhysRegs::none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distribution {
    /// The clusters the instruction is distributed to.
    pub clusters: ClusterSet,
    /// The cluster executing the master copy (the computation).
    pub master: ClusterId,
    /// The cluster executing the slave copy, for dual distribution.
    pub slave: Option<ClusterId>,
    /// Which source slots the slave copy reads and forwards through the
    /// operand transfer buffer.
    pub forwarded_src: [bool; 2],
    /// Whether the slave copy receives the result (destination local to
    /// the slave's cluster, or global).
    pub slave_receives: bool,
    /// The Section 2.1 scenario number (1–5).
    pub scenario: u8,
}

impl Distribution {
    /// Whether the instruction is distributed to more than one cluster.
    #[must_use]
    pub fn is_dual(&self) -> bool {
        self.slave.is_some()
    }

    /// The physical-register allocations this instruction requires, as
    /// (cluster, bank) pairs: one in the destination's cluster for a
    /// local destination, one per cluster for a global destination.
    #[must_use]
    pub fn phys_needed(&self, op: &TraceOp, assign: &RegisterAssignment) -> PhysRegs {
        let Some(dest) = op.dest else { return PhysRegs::none() };
        let bank = dest.bank();
        let mut regs = PhysRegs::none();
        for c in assign.clusters_of(dest).iter() {
            if c.index() < usize::from(assign.clusters()) {
                regs.push(c, bank);
            }
        }
        regs
    }
}

/// Decides the distribution of `op` under `assign`.
///
/// Master-copy selection follows the paper: "the master copy is executed
/// by cluster *c* because the majority of the local registers named by
/// the instruction are assigned to cluster *c*". Ties prefer the
/// destination's cluster (avoiding a result forward), then the cluster
/// with the lighter dynamic load (`balance` counts instructions
/// distributed so far).
#[must_use]
pub fn distribute(op: &TraceOp, assign: &RegisterAssignment, balance: &[u64; 2]) -> Distribution {
    decide(op, assign, Some(balance)).expect("a load balance settles every tie")
}

/// The distribution of `op` under `assign` when it does not depend on
/// the dynamic load balance — that is, unless no local register
/// constrains it, or a dual distribution's vote ties with no local
/// destination to break it. A decision this returns is therefore the
/// same for every dynamic instance of the instruction, until the
/// register assignment changes.
#[must_use]
pub fn distribute_fixed(op: &TraceOp, assign: &RegisterAssignment) -> Option<Distribution> {
    decide(op, assign, None)
}

/// [`distribute`], or `None` when the decision needs the load balance
/// and none is given.
fn decide(
    op: &TraceOp,
    assign: &RegisterAssignment,
    balance: Option<&[u64; 2]>,
) -> Option<Distribution> {
    // The lighter-loaded cluster, when the balance is known.
    let lighter = || balance.map(|b| if b[0] <= b[1] { ClusterId::C0 } else { ClusterId::C1 });
    let n = assign.clusters();
    if n <= 1 {
        return Some(Distribution {
            clusters: ClusterSet::only(ClusterId::C0),
            master: ClusterId::C0,
            slave: None,
            forwarded_src: [false, false],
            slave_receives: false,
            scenario: 1,
        });
    }
    debug_assert_eq!(n, 2, "distribution implemented for two clusters");

    let dest_global = op.dest.is_some_and(|d| assign.assignment_of(d).is_global());

    // Majority vote over the named *local* registers.
    let mut votes = [0u32; 2];
    let mut needed = ClusterSet::empty();
    let local_cluster = |r: ArchReg| assign.assignment_of(r).local_cluster();
    for src in op.reads() {
        if let Some(c) = local_cluster(src) {
            votes[c.index()] += 1;
            needed.insert(c);
        }
    }
    let dest_cluster = op.dest.and_then(local_cluster);
    if let Some(c) = dest_cluster {
        votes[c.index()] += 1;
        needed.insert(c);
    }
    if dest_global {
        needed = ClusterSet::first_n(n);
    }

    // Single distribution when one cluster (or none) suffices.
    if !dest_global && needed.len() <= 1 {
        // No register constraints at all: balance the load.
        let master = match needed.single() {
            Some(c) => c,
            None => lighter()?,
        };
        return Some(Distribution {
            clusters: ClusterSet::only(master),
            master,
            slave: None,
            forwarded_src: [false, false],
            slave_receives: false,
            scenario: 1,
        });
    }

    // Dual distribution: pick the master.
    let master = if votes[0] > votes[1] {
        ClusterId::C0
    } else if votes[1] > votes[0] {
        ClusterId::C1
    } else if let Some(c) = dest_cluster {
        c // prefer keeping the result local to the master
    } else {
        lighter()?
    };
    let slave = master.other();

    let mut forwarded_src = [false, false];
    for (i, src) in op.srcs.iter().enumerate() {
        if let Some(r) = *src {
            if local_cluster(r) == Some(slave) {
                forwarded_src[i] = true;
            }
        }
    }
    let slave_receives = dest_global || dest_cluster == Some(slave);
    let forwards = forwarded_src.iter().any(|&f| f);

    debug_assert!(
        forwards || slave_receives,
        "a slave copy must forward an operand or receive a result"
    );

    let scenario = match (forwards, slave_receives, dest_global) {
        (true, false, _) => 2,
        (false, true, false) => 3,
        (false, true, true) => 4,
        (true, true, _) => 5,
        (false, false, _) => unreachable!("checked above"),
    };

    Some(Distribution {
        clusters: ClusterSet::first_n(n),
        master,
        slave: Some(slave),
        forwarded_src,
        slave_receives,
        scenario,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_isa::Opcode;

    fn assign2() -> RegisterAssignment {
        RegisterAssignment::even_odd_with_default_globals(2)
    }

    fn add(dest: ArchReg, a: ArchReg, b: ArchReg) -> TraceOp {
        TraceOp {
            seq: 0,
            pc: 0x1000,
            op: Opcode::Addq,
            dest: Some(dest),
            srcs: [Some(a), Some(b)],
            mem_addr: None,
            branch: None,
            sched_inserted: false,
        }
    }

    // Register parity: even -> C0, odd -> C1; SP(r30)/GP(r29) global.
    fn even(i: u8) -> ArchReg {
        ArchReg::int(i * 2)
    }
    fn odd(i: u8) -> ArchReg {
        ArchReg::int(i * 2 + 1)
    }

    #[test]
    fn scenario1_all_registers_one_cluster() {
        let d = distribute(&add(even(1), even(2), even(3)), &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 1);
        assert!(!d.is_dual());
        assert_eq!(d.master, ClusterId::C0);
    }

    #[test]
    fn scenario2_operand_forwarded() {
        // Paper's scenario two: r1 (slave cluster) forwarded; dest and
        // other source on the master cluster.
        let d = distribute(&add(even(1), odd(0), even(2)), &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 2);
        assert_eq!(d.master, ClusterId::C0);
        assert_eq!(d.slave, Some(ClusterId::C1));
        assert_eq!(d.forwarded_src, [true, false]);
        assert!(!d.slave_receives);
    }

    #[test]
    fn scenario3_result_forwarded() {
        // Both sources on C0, destination on C1.
        let d = distribute(&add(odd(1), even(0), even(1)), &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 3);
        assert_eq!(d.master, ClusterId::C0);
        assert_eq!(d.slave, Some(ClusterId::C1));
        assert_eq!(d.forwarded_src, [false, false]);
        assert!(d.slave_receives);
    }

    #[test]
    fn scenario4_global_destination() {
        let d = distribute(&add(ArchReg::SP, even(0), even(1)), &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 4);
        assert_eq!(d.master, ClusterId::C0, "sources vote for cluster 0");
        assert!(d.slave_receives);
        assert_eq!(d.forwarded_src, [false, false]);
    }

    #[test]
    fn scenario5_operand_and_global_result() {
        // Sources split across clusters, global destination.
        let d = distribute(&add(ArchReg::SP, even(0), odd(0)), &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 5);
        assert!(d.slave_receives);
        assert!(d.forwarded_src.iter().any(|&f| f));
    }

    #[test]
    fn majority_rule_selects_master() {
        // Two registers on C1, one on C0: master must be C1.
        let d = distribute(&add(odd(2), odd(3), even(1)), &assign2(), &[0, 0]);
        assert_eq!(d.master, ClusterId::C1);
        assert_eq!(d.forwarded_src, [false, true]);
    }

    #[test]
    fn no_register_instruction_balances_load() {
        let br = TraceOp {
            seq: 0,
            pc: 0x1000,
            op: Opcode::Br,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            branch: None,
            sched_inserted: false,
        };
        let d0 = distribute(&br, &assign2(), &[5, 9]);
        assert_eq!(d0.master, ClusterId::C0);
        let d1 = distribute(&br, &assign2(), &[9, 5]);
        assert_eq!(d1.master, ClusterId::C1);
        assert_eq!(d0.scenario, 1);
    }

    #[test]
    fn global_sources_do_not_force_dual() {
        // Loads off the (global) stack pointer into a local register
        // stay single-cluster: SP is readable everywhere.
        let ld = TraceOp {
            seq: 0,
            pc: 0x1000,
            op: Opcode::Ldq,
            dest: Some(even(2)),
            srcs: [Some(ArchReg::SP), None],
            mem_addr: Some(0x8000),
            branch: None,
            sched_inserted: false,
        };
        let d = distribute(&ld, &assign2(), &[0, 0]);
        assert_eq!(d.scenario, 1);
        assert_eq!(d.master, ClusterId::C0);
    }

    #[test]
    fn single_cluster_configuration_never_duals() {
        let assign = RegisterAssignment::single_cluster();
        let d = distribute(&add(ArchReg::int(1), ArchReg::int(2), ArchReg::int(3)), &assign, &[0, 0]);
        assert_eq!(d.scenario, 1);
        assert!(!d.is_dual());
    }

    #[test]
    fn phys_needed_counts_clusters_holding_the_destination() {
        let a = assign2();
        let local = distribute(&add(even(1), even(2), even(3)), &a, &[0, 0]);
        let op_local = add(even(1), even(2), even(3));
        assert_eq!(local.phys_needed(&op_local, &a).len(), 1);

        let op_global = add(ArchReg::SP, even(0), even(1));
        let global = distribute(&op_global, &a, &[0, 0]);
        assert_eq!(global.phys_needed(&op_global, &a).len(), 2);

        let store = TraceOp {
            seq: 0,
            pc: 0x1000,
            op: Opcode::Stq,
            dest: None,
            srcs: [Some(even(0)), Some(even(1))],
            mem_addr: Some(0x4000),
            branch: None,
            sched_inserted: false,
        };
        let d = distribute(&store, &a, &[0, 0]);
        assert!(d.phys_needed(&store, &a).is_empty());
    }

    #[test]
    fn fixed_distributions_hold_under_every_balance() {
        let assign = assign2();
        let regs: Vec<Option<ArchReg>> = [None, Some(ArchReg::SP)]
            .into_iter()
            .chain((2..6).map(|i| Some(ArchReg::int(i))))
            .chain([Some(ArchReg::fp(3))])
            .collect();
        let balances = [[0, 0], [0, 7], [7, 0]];
        let mut fixed = 0;
        for &dest in &regs {
            for &a in &regs {
                for &b in &regs {
                    let sp = ArchReg::SP;
                    let op = TraceOp { dest, srcs: [a, b], ..add(sp, sp, sp) };
                    let each: Vec<Distribution> =
                        balances.iter().map(|bal| distribute(&op, &assign, bal)).collect();
                    match distribute_fixed(&op, &assign) {
                        Some(d) => {
                            fixed += 1;
                            assert!(each.iter().all(|&e| e == d), "{op:?}");
                        }
                        None => assert!(each.iter().any(|&e| e != each[0]), "{op:?}"),
                    }
                }
            }
        }
        assert!(fixed > 0);
    }

    #[test]
    fn tie_break_prefers_destination_cluster() {
        // One source on C0, dest on C1 (1 vote each): master should be
        // the destination's cluster, making it an operand forward.
        let op = TraceOp {
            seq: 0,
            pc: 0x1000,
            op: Opcode::Addq,
            dest: Some(odd(1)),
            srcs: [Some(even(1)), None],
            mem_addr: None,
            branch: None,
            sched_inserted: false,
        };
        let d = distribute(&op, &assign2(), &[0, 0]);
        assert_eq!(d.master, ClusterId::C1);
        assert_eq!(d.scenario, 2);
    }
}
