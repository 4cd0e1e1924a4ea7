//! Architectural-register-to-cluster assignment.
//!
//! In the multicluster architecture "each cluster is assigned a subset of
//! the architectural registers" (Section 1). A *local* register is
//! assigned to exactly one cluster; a *global* register is assigned to
//! every cluster, with one physical register per cluster maintaining its
//! value. The assignment drives instruction distribution: an instruction
//! executes on the cluster(s) owning the registers it names.
//!
//! The paper's evaluation uses a static even/odd assignment ("the
//! even-numbered architectural registers were assigned to cluster 0 and
//! the odd-numbered registers to cluster 1", Section 4) with the stack
//! and global pointers designated global.

use std::fmt;


use crate::cluster::ClusterId;
use crate::reg::ArchReg;

/// A small set of clusters, e.g. the clusters an instruction is
/// distributed to.
///
/// # Example
///
/// ```
/// use mcl_isa::{ClusterSet, ClusterId};
///
/// let mut set = ClusterSet::empty();
/// set.insert(ClusterId::C0);
/// assert_eq!(set.single(), Some(ClusterId::C0));
/// set.insert(ClusterId::C1);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.single(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClusterSet(u8);

impl ClusterSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> ClusterSet {
        ClusterSet(0)
    }

    /// The set containing only `cluster`.
    #[must_use]
    pub fn only(cluster: ClusterId) -> ClusterSet {
        let mut set = ClusterSet::empty();
        set.insert(cluster);
        set
    }

    /// The set containing the first `n` clusters.
    #[must_use]
    pub fn first_n(n: u8) -> ClusterSet {
        assert!(n <= 8, "at most 8 clusters supported");
        ClusterSet(if n == 8 { u8::MAX } else { (1u8 << n) - 1 })
    }

    /// Adds `cluster` to the set.
    pub fn insert(&mut self, cluster: ClusterId) {
        assert!(cluster.index() < 8, "at most 8 clusters supported");
        self.0 |= 1 << cluster.index();
    }

    /// Whether `cluster` is in the set.
    #[must_use]
    pub fn contains(self, cluster: ClusterId) -> bool {
        cluster.index() < 8 && self.0 & (1 << cluster.index()) != 0
    }

    /// The number of clusters in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// If the set holds exactly one cluster, that cluster.
    #[must_use]
    pub fn single(self) -> Option<ClusterId> {
        if self.0.count_ones() == 1 {
            Some(ClusterId::new(self.0.trailing_zeros() as u8))
        } else {
            None
        }
    }

    /// The union of two sets.
    #[must_use]
    pub fn union(self, other: ClusterSet) -> ClusterSet {
        ClusterSet(self.0 | other.0)
    }

    /// Iterates over the clusters in the set, in index order.
    pub fn iter(self) -> impl Iterator<Item = ClusterId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let i = bits.trailing_zeros();
            (bits != 0).then(|| {
                bits &= bits - 1;
                ClusterId::new(i as u8)
            })
        })
    }
}

impl fmt::Display for ClusterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ClusterId> for ClusterSet {
    fn from_iter<I: IntoIterator<Item = ClusterId>>(iter: I) -> ClusterSet {
        let mut set = ClusterSet::empty();
        for c in iter {
            set.insert(c);
        }
        set
    }
}

/// The assignment of one architectural register: local to a cluster, or
/// global (assigned to every cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegAssignment {
    /// Assigned to exactly one cluster; one physical register maintains
    /// its value.
    Local(ClusterId),
    /// Assigned to every cluster; each cluster maintains a copy in its own
    /// physical register file (writes update all copies).
    Global,
}

impl RegAssignment {
    /// Whether the register is global.
    #[must_use]
    pub fn is_global(self) -> bool {
        matches!(self, RegAssignment::Global)
    }

    /// The owning cluster of a local register.
    #[must_use]
    pub fn local_cluster(self) -> Option<ClusterId> {
        match self {
            RegAssignment::Local(c) => Some(c),
            RegAssignment::Global => None,
        }
    }
}

/// The full architectural-register-to-cluster assignment of a processor
/// configuration.
///
/// The hardwired zero registers (`r31`/`f31`) are always treated as
/// global: their constant value is available in every cluster for free,
/// so they never force dual distribution and never consume a physical
/// register.
///
/// # Example
///
/// ```
/// use mcl_isa::{ArchReg, ClusterId, assign::RegisterAssignment};
///
/// let a = RegisterAssignment::even_odd_with_default_globals(2);
/// assert_eq!(a.assignment_of(ArchReg::int(4)).local_cluster(), Some(ClusterId::C0));
/// assert_eq!(a.assignment_of(ArchReg::int(5)).local_cluster(), Some(ClusterId::C1));
/// assert!(a.assignment_of(ArchReg::SP).is_global());
/// assert!(a.assignment_of(ArchReg::ZERO).is_global());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterAssignment {
    clusters: u8,
    table: Vec<RegAssignment>,
}

impl RegisterAssignment {
    /// Every register local to the sole cluster of a single-cluster
    /// (non-partitioned) processor.
    #[must_use]
    pub fn single_cluster() -> RegisterAssignment {
        let table = ArchReg::all()
            .map(|reg| {
                if reg.is_zero() {
                    RegAssignment::Global
                } else {
                    RegAssignment::Local(ClusterId::C0)
                }
            })
            .collect();
        RegisterAssignment { clusters: 1, table }
    }

    /// The paper's evaluated assignment: even-numbered registers to
    /// cluster 0, odd-numbered to cluster 1 (generalised to `clusters`
    /// clusters by `index % clusters`), with the stack pointer (`r30`) and
    /// global pointer (`r29`) designated global.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or greater than 8.
    #[must_use]
    pub fn even_odd_with_default_globals(clusters: u8) -> RegisterAssignment {
        RegisterAssignment::even_odd_with_globals(clusters, &[ArchReg::SP, ArchReg::GP])
    }

    /// Like [`RegisterAssignment::even_odd_with_default_globals`] but with
    /// an explicit set of global registers.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or greater than 8.
    #[must_use]
    pub fn even_odd_with_globals(clusters: u8, globals: &[ArchReg]) -> RegisterAssignment {
        assert!((1..=8).contains(&clusters), "cluster count must be in 1..=8");
        let table = ArchReg::all()
            .map(|reg| {
                if reg.is_zero() || globals.contains(&reg) {
                    RegAssignment::Global
                } else {
                    RegAssignment::Local(ClusterId::new(reg.index() % clusters))
                }
            })
            .collect();
        RegisterAssignment { clusters, table }
    }

    /// Builds an assignment from an explicit per-register table.
    ///
    /// The zero registers are forced global regardless of the provided
    /// function's answer.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or greater than 8, or if the function
    /// maps a register to a cluster outside `0..clusters`.
    #[must_use]
    pub fn from_fn(
        clusters: u8,
        mut assignment: impl FnMut(ArchReg) -> RegAssignment,
    ) -> RegisterAssignment {
        assert!((1..=8).contains(&clusters), "cluster count must be in 1..=8");
        let table = ArchReg::all()
            .map(|reg| {
                if reg.is_zero() {
                    return RegAssignment::Global;
                }
                let a = assignment(reg);
                if let RegAssignment::Local(c) = a {
                    assert!(
                        c.index() < usize::from(clusters),
                        "register {reg} assigned to nonexistent {c}"
                    );
                }
                a
            })
            .collect();
        RegisterAssignment { clusters, table }
    }

    /// The number of clusters this assignment targets.
    #[must_use]
    pub fn clusters(&self) -> u8 {
        self.clusters
    }

    /// The assignment of `reg`.
    #[must_use]
    #[inline]
    pub fn assignment_of(&self, reg: ArchReg) -> RegAssignment {
        self.table[reg.dense_index()]
    }

    /// The set of clusters that hold a copy of `reg`.
    #[must_use]
    #[inline]
    pub fn clusters_of(&self, reg: ArchReg) -> ClusterSet {
        match self.assignment_of(reg) {
            RegAssignment::Local(c) => ClusterSet::only(c),
            RegAssignment::Global => ClusterSet::first_n(self.clusters),
        }
    }

    /// The local (non-global, non-zero) registers assigned to `cluster`,
    /// in index order. These are the colours available to the register
    /// allocator for live ranges partitioned onto `cluster`.
    pub fn local_registers_of(&self, cluster: ClusterId) -> impl Iterator<Item = ArchReg> + '_ {
        ArchReg::all()
            .filter(move |&reg| self.assignment_of(reg) == RegAssignment::Local(cluster))
    }

    /// The global registers (excluding the hardwired zeros), in index
    /// order.
    pub fn global_registers(&self) -> impl Iterator<Item = ArchReg> + '_ {
        ArchReg::all().filter(|&reg| !reg.is_zero() && self.assignment_of(reg).is_global())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegBank;

    #[test]
    fn single_cluster_everything_is_cluster0() {
        let a = RegisterAssignment::single_cluster();
        assert_eq!(a.clusters(), 1);
        for reg in ArchReg::all() {
            if reg.is_zero() {
                assert!(a.assignment_of(reg).is_global());
            } else {
                assert_eq!(a.assignment_of(reg).local_cluster(), Some(ClusterId::C0));
            }
        }
    }

    #[test]
    fn even_odd_splits_by_parity() {
        let a = RegisterAssignment::even_odd_with_default_globals(2);
        for reg in ArchReg::all() {
            if reg.is_zero() || reg == ArchReg::SP || reg == ArchReg::GP {
                assert!(a.assignment_of(reg).is_global(), "{reg} should be global");
            } else {
                let expect = ClusterId::new(reg.index() % 2);
                assert_eq!(a.assignment_of(reg).local_cluster(), Some(expect), "{reg}");
            }
        }
    }

    #[test]
    fn local_registers_partition_the_file() {
        let a = RegisterAssignment::even_odd_with_default_globals(2);
        let c0: Vec<_> = a.local_registers_of(ClusterId::C0).collect();
        let c1: Vec<_> = a.local_registers_of(ClusterId::C1).collect();
        let globals: Vec<_> = a.global_registers().collect();
        // 64 registers total, 2 hardwired zeros, SP and GP global.
        assert_eq!(c0.len() + c1.len() + globals.len(), 62);
        assert_eq!(globals, vec![ArchReg::GP, ArchReg::SP]);
        for reg in &c0 {
            assert!(!c1.contains(reg));
        }
    }

    #[test]
    fn clusters_of_global_register_is_all_clusters() {
        let a = RegisterAssignment::even_odd_with_default_globals(2);
        let set = a.clusters_of(ArchReg::SP);
        assert_eq!(set.len(), 2);
        assert!(set.contains(ClusterId::C0) && set.contains(ClusterId::C1));
    }

    #[test]
    fn from_fn_respects_custom_table_but_forces_zero_global() {
        let a = RegisterAssignment::from_fn(2, |reg| {
            if reg.bank() == RegBank::Fp {
                RegAssignment::Local(ClusterId::C1)
            } else {
                RegAssignment::Local(ClusterId::C0)
            }
        });
        assert_eq!(a.assignment_of(ArchReg::int(3)).local_cluster(), Some(ClusterId::C0));
        assert_eq!(a.assignment_of(ArchReg::fp(3)).local_cluster(), Some(ClusterId::C1));
        assert!(a.assignment_of(ArchReg::ZERO).is_global());
        assert!(a.assignment_of(ArchReg::FZERO).is_global());
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn from_fn_rejects_out_of_range_cluster() {
        let _ = RegisterAssignment::from_fn(2, |_| RegAssignment::Local(ClusterId::new(5)));
    }

    #[test]
    fn cluster_set_operations() {
        let set = ClusterSet::first_n(2);
        assert_eq!(set.len(), 2);
        assert!(!ClusterSet::empty().contains(ClusterId::C0));
        assert!(ClusterSet::only(ClusterId::C1).contains(ClusterId::C1));
        let union = ClusterSet::only(ClusterId::C0).union(ClusterSet::only(ClusterId::C1));
        assert_eq!(union, set);
        let collected: ClusterSet = [ClusterId::C0, ClusterId::C1].into_iter().collect();
        assert_eq!(collected, set);
    }
}
