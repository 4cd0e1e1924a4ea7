//! Architectural registers.
//!
//! The simulated instruction set follows the DEC Alpha register
//! conventions that the paper's evaluation assumes: 32 integer registers
//! (`r0`–`r31`) and 32 floating-point registers (`f0`–`f31`), with
//! `r31` and `f31` hardwired to zero, `r30` serving as the stack pointer
//! and `r29` as the global pointer.

use std::fmt;


/// Number of architectural registers per bank.
pub const REGS_PER_BANK: u8 = 32;

/// A register bank: integer or floating point.
///
/// The multicluster architecture gives each cluster one register file per
/// bank (Figure 1 of the paper), and issue rules are expressed per bank
/// (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegBank {
    /// The integer register file (`r0`–`r31`).
    Int,
    /// The floating-point register file (`f0`–`f31`).
    Fp,
}

impl RegBank {
    /// Both banks, in a fixed order — convenient for iterating over
    /// per-bank resources.
    pub const ALL: [RegBank; 2] = [RegBank::Int, RegBank::Fp];

    /// The single-letter prefix used in assembly notation (`r` or `f`).
    #[must_use]
    pub fn prefix(self) -> char {
        match self {
            RegBank::Int => 'r',
            RegBank::Fp => 'f',
        }
    }
}

impl fmt::Display for RegBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegBank::Int => f.write_str("int"),
            RegBank::Fp => f.write_str("fp"),
        }
    }
}

/// An architectural register: a bank plus an index in `0..32`.
///
/// `ArchReg` is the name space instructions use; the simulator renames
/// these to per-cluster physical registers at distribution time
/// (Section 2.1 of the paper).
///
/// # Example
///
/// ```
/// use mcl_isa::{ArchReg, RegBank};
///
/// let r4 = ArchReg::int(4);
/// assert_eq!(r4.bank(), RegBank::Int);
/// assert_eq!(r4.index(), 4);
/// assert_eq!(r4.to_string(), "r4");
/// assert!(ArchReg::ZERO.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    bank: RegBank,
    index: u8,
}

impl ArchReg {
    /// The integer zero register `r31`: reads as zero, writes are discarded.
    pub const ZERO: ArchReg = ArchReg { bank: RegBank::Int, index: 31 };
    /// The floating-point zero register `f31`.
    pub const FZERO: ArchReg = ArchReg { bank: RegBank::Fp, index: 31 };
    /// The stack pointer `r30` (a global-register candidate in the paper).
    pub const SP: ArchReg = ArchReg { bank: RegBank::Int, index: 30 };
    /// The global pointer `r29` (a global-register candidate in the paper).
    pub const GP: ArchReg = ArchReg { bank: RegBank::Int, index: 29 };

    /// Creates an integer register `r<index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn int(index: u8) -> ArchReg {
        ArchReg::new(RegBank::Int, index)
    }

    /// Creates a floating-point register `f<index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn fp(index: u8) -> ArchReg {
        ArchReg::new(RegBank::Fp, index)
    }

    /// Creates a register in the given bank.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(bank: RegBank, index: u8) -> ArchReg {
        assert!(index < REGS_PER_BANK, "register index {index} out of range");
        ArchReg { bank, index }
    }

    /// The bank this register belongs to.
    #[must_use]
    #[inline]
    pub fn bank(self) -> RegBank {
        self.bank
    }

    /// The index within the bank, in `0..32`.
    #[must_use]
    pub fn index(self) -> u8 {
        self.index
    }

    /// Whether this is one of the hardwired zero registers (`r31`/`f31`).
    ///
    /// Zero registers never participate in renaming, dependence tracking,
    /// or cluster assignment: they are readable from every cluster for
    /// free and writes to them are discarded.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.index == 31
    }

    /// A dense index in `0..64` over both banks, useful for table lookups.
    #[must_use]
    #[inline]
    pub fn dense_index(self) -> usize {
        match self.bank {
            RegBank::Int => usize::from(self.index),
            RegBank::Fp => usize::from(self.index) + usize::from(REGS_PER_BANK),
        }
    }

    /// The inverse of [`ArchReg::dense_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    #[inline]
    pub fn from_dense_index(index: usize) -> ArchReg {
        let per_bank = usize::from(REGS_PER_BANK);
        if index < per_bank {
            ArchReg { bank: RegBank::Int, index: index as u8 }
        } else {
            assert!(index < 2 * per_bank, "dense index {index} out of range");
            ArchReg { bank: RegBank::Fp, index: (index - per_bank) as u8 }
        }
    }

    /// Iterates over every architectural register in both banks.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        RegBank::ALL
            .into_iter()
            .flat_map(|bank| (0..REGS_PER_BANK).map(move |index| ArchReg { bank, index }))
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.bank.prefix(), self.index)
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArchReg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventions_match_alpha() {
        assert_eq!(ArchReg::ZERO, ArchReg::int(31));
        assert_eq!(ArchReg::FZERO, ArchReg::fp(31));
        assert_eq!(ArchReg::SP, ArchReg::int(30));
        assert_eq!(ArchReg::GP, ArchReg::int(29));
        assert!(ArchReg::ZERO.is_zero());
        assert!(ArchReg::FZERO.is_zero());
        assert!(!ArchReg::SP.is_zero());
    }

    #[test]
    fn display_uses_bank_prefix() {
        assert_eq!(ArchReg::int(0).to_string(), "r0");
        assert_eq!(ArchReg::fp(17).to_string(), "f17");
    }

    #[test]
    fn dense_index_is_a_bijection() {
        let mut seen = [false; 64];
        for reg in ArchReg::all() {
            let idx = reg.dense_index();
            assert!(!seen[idx], "dense index {idx} repeated");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_index_round_trips() {
        for reg in ArchReg::all() {
            assert_eq!(ArchReg::from_dense_index(reg.dense_index()), reg);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_dense_index_rejects_out_of_range() {
        let _ = ArchReg::from_dense_index(64);
    }

    #[test]
    fn all_yields_64_registers() {
        assert_eq!(ArchReg::all().count(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn ordering_groups_by_bank() {
        assert!(ArchReg::int(31) < ArchReg::fp(0));
        assert!(ArchReg::int(3) < ArchReg::int(4));
    }
}
