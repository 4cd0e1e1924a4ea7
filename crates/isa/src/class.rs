//! Instruction classes — the columns of Table 1.

use std::fmt;


use crate::reg::RegBank;

/// The instruction classes over which Table 1 of the paper expresses
/// per-cycle issue limits and functional-unit latencies.
///
/// Loads and stores are distinct classes here (they have different
/// destination behaviour) but share the combined "loads & stores" issue
/// limit of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer multiply (6-cycle latency, fully pipelined).
    IntMul,
    /// All other integer operations (1-cycle latency).
    IntAlu,
    /// Floating-point divide and square root (8/16-cycle latency,
    /// **not** pipelined).
    FpDiv,
    /// All other floating-point operations (3-cycle latency).
    FpOther,
    /// Loads (1-cycle latency plus a single load-delay slot).
    Load,
    /// Stores (no register result).
    Store,
    /// Control flow (1-cycle latency).
    ControlFlow,
}

impl InstrClass {
    /// Every class, in Table 1 column order.
    pub const ALL: [InstrClass; 7] = [
        InstrClass::IntMul,
        InstrClass::IntAlu,
        InstrClass::FpDiv,
        InstrClass::FpOther,
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::ControlFlow,
    ];

    /// Whether the class executes on integer datapath resources.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(self, InstrClass::IntMul | InstrClass::IntAlu)
    }

    /// Whether the class executes on floating-point datapath resources.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, InstrClass::FpDiv | InstrClass::FpOther)
    }

    /// Whether the class accesses the data cache.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, InstrClass::Load | InstrClass::Store)
    }

    /// The issue-slot bank a *slave copy* forwarding an operand of this
    /// bank occupies: the paper notes a slave copy "must read the value
    /// ... from the integer register file, and to do so requires access to
    /// a read port", i.e. forwarding an integer operand consumes an
    /// integer issue slot (and an fp operand an fp slot).
    #[must_use]
    #[inline]
    pub fn for_operand_bank(bank: RegBank) -> InstrClass {
        match bank {
            RegBank::Int => InstrClass::IntAlu,
            RegBank::Fp => InstrClass::FpOther,
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InstrClass::IntMul => "int-mul",
            InstrClass::IntAlu => "int-alu",
            InstrClass::FpDiv => "fp-div",
            InstrClass::FpOther => "fp-other",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::ControlFlow => "control-flow",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_disjoint() {
        for class in InstrClass::ALL {
            let kinds =
                [class.is_integer(), class.is_fp(), class.is_mem(), class == InstrClass::ControlFlow];
            assert_eq!(kinds.iter().filter(|&&k| k).count(), 1, "{class} in several groups");
        }
    }

    #[test]
    fn operand_bank_slot_mapping() {
        assert_eq!(InstrClass::for_operand_bank(RegBank::Int), InstrClass::IntAlu);
        assert_eq!(InstrClass::for_operand_bank(RegBank::Fp), InstrClass::FpOther);
    }
}
