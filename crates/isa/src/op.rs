//! The opcode set.
//!
//! The paper's simulator modelled "a RISC, superscalar processor whose
//! instruction set is based on the DEC Alpha instruction set". This module
//! defines the Alpha-flavoured subset used by the reproduction. It is
//! large enough to express the synthetic SPEC92-shaped workloads with real
//! data and control dependences, yet small enough to keep the
//! trace-generation virtual machine simple.
//!
//! Every opcode knows its [`InstrClass`] (the Table 1 column it issues
//! under) and the register banks of its operands; the functional
//! *semantics* are implemented by the VM in `mcl-trace`.

use std::fmt;


use crate::class::InstrClass;
use crate::reg::RegBank;

/// Operand width of a floating-point divide or square root.
///
/// Table 1: the divider "is not pipelined and has an eight-cycle latency
/// for 32-bit divides, and a 16-cycle latency for 64-bit divides".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivWidth {
    /// 32-bit (single-precision): 8-cycle divider occupancy.
    W32,
    /// 64-bit (double-precision): 16-cycle divider occupancy.
    W64,
}

impl DivWidth {
    /// The divider latency in cycles for this width (Table 1).
    #[must_use]
    pub fn latency(self) -> u32 {
        match self {
            DivWidth::W32 => 8,
            DivWidth::W64 => 16,
        }
    }
}

/// An operation of the simulated instruction set.
///
/// Grouped by Table 1 instruction class:
///
/// - integer multiply: [`Opcode::Mulq`]
/// - integer other: arithmetic, logic, shifts, compares, immediates
/// - floating-point divide: [`Opcode::Divs`], [`Opcode::Divt`],
///   [`Opcode::Sqrts`], [`Opcode::Sqrtt`] (square root shares the
///   unpipelined divider)
/// - floating-point other: add/sub/mul/compares/converts
/// - loads & stores: [`Opcode::Ldq`], [`Opcode::Stq`], [`Opcode::Ldt`],
///   [`Opcode::Stt`]
/// - control flow: branches, jumps, call/return
///
/// # Example
///
/// ```
/// use mcl_isa::{Opcode, InstrClass, RegBank};
///
/// assert_eq!(Opcode::Addq.class(), InstrClass::IntAlu);
/// assert_eq!(Opcode::Divt.class(), InstrClass::FpDiv);
/// assert_eq!(Opcode::Ldt.dest_bank(), Some(RegBank::Fp));
/// assert!(Opcode::Bne.is_conditional_branch());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // --- integer multiply ---
    /// Integer multiply: `dest = src0 * src1`.
    Mulq,

    // --- integer other ---
    /// Integer add: `dest = src0 + src1 (+ imm)`.
    Addq,
    /// Integer subtract: `dest = src0 - src1 (- imm)`.
    Subq,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Shift left logical by `src1 (+ imm)` bits.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Signed compare equal: `dest = (src0 == src1) as u64`.
    Cmpeq,
    /// Signed compare less-than.
    Cmplt,
    /// Signed compare less-or-equal.
    Cmple,
    /// Unsigned compare less-than.
    Cmpult,
    /// Load address / load immediate: `dest = src0 + imm`
    /// (with `src0 = r31` this is a plain load-immediate).
    Lda,

    // --- floating-point divide class (unpipelined divider) ---
    /// Single-precision divide.
    Divs,
    /// Double-precision divide.
    Divt,
    /// Single-precision square root (occupies the divider).
    Sqrts,
    /// Double-precision square root (occupies the divider).
    Sqrtt,

    // --- floating-point other ---
    /// Floating-point add.
    Addt,
    /// Floating-point subtract.
    Subt,
    /// Floating-point multiply.
    Mult,
    /// Floating-point compare equal, producing an *integer* predicate.
    Cmpteq,
    /// Floating-point compare less-than, producing an *integer* predicate.
    Cmptlt,
    /// Convert integer (in an integer register) to floating point.
    Cvtqt,
    /// Convert floating point to integer (truncating).
    Cvttq,
    /// Floating-point register move / copy.
    Fmov,

    // --- loads & stores ---
    /// Load 64-bit integer: `dest = mem[src0 + imm]`.
    Ldq,
    /// Store 64-bit integer: `mem[src0 + imm] = src1`.
    Stq,
    /// Load floating point: `dest(fp) = mem[src0 + imm]`.
    Ldt,
    /// Store floating point: `mem[src0 + imm] = src1(fp)`.
    Stt,

    // --- control flow ---
    /// Unconditional branch.
    Br,
    /// Branch if `src0 == 0`.
    Beq,
    /// Branch if `src0 != 0`.
    Bne,
    /// Branch if `src0 < 0` (signed).
    Blt,
    /// Branch if `src0 >= 0` (signed).
    Bge,
    /// Indirect jump through `src0` (assumed 100 % predictable, like all
    /// non-conditional control flow in the paper's model).
    Jmp,
    /// Subroutine call (writes the return address to `dest`).
    Jsr,
    /// Subroutine return (jump through `src0`).
    Ret,
}

impl Opcode {
    /// The Table 1 instruction class this opcode issues under.
    #[must_use]
    #[inline]
    pub fn class(self) -> InstrClass {
        use Opcode::*;
        match self {
            Mulq => InstrClass::IntMul,
            Addq | Subq | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple | Cmpult
            | Lda => InstrClass::IntAlu,
            Divs | Divt | Sqrts | Sqrtt => InstrClass::FpDiv,
            Addt | Subt | Mult | Cmpteq | Cmptlt | Cvtqt | Cvttq | Fmov => InstrClass::FpOther,
            Ldq | Ldt => InstrClass::Load,
            Stq | Stt => InstrClass::Store,
            Br | Beq | Bne | Blt | Bge | Jmp | Jsr | Ret => InstrClass::ControlFlow,
        }
    }

    /// The register bank of the destination, if the opcode writes one.
    ///
    /// Stores, branches and jumps produce no register result. Note that
    /// floating-point compares and [`Opcode::Cvttq`] write *integer*
    /// predicates/results.
    #[must_use]
    pub fn dest_bank(self) -> Option<RegBank> {
        use Opcode::*;
        match self {
            Mulq | Addq | Subq | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
            | Cmpult | Lda | Ldq | Cmpteq | Cmptlt | Cvttq | Jsr => Some(RegBank::Int),
            Divs | Divt | Sqrts | Sqrtt | Addt | Subt | Mult | Cvtqt | Fmov | Ldt => {
                Some(RegBank::Fp)
            }
            Stq | Stt | Br | Beq | Bne | Blt | Bge | Jmp | Ret => None,
        }
    }

    /// The register banks of the (up to two) register sources.
    ///
    /// `None` entries mean the slot is unused. The address operand of a
    /// load/store is always source 0 (integer); the stored value of a
    /// store is source 1.
    #[must_use]
    pub fn src_banks(self) -> [Option<RegBank>; 2] {
        use Opcode::*;
        let int = Some(RegBank::Int);
        let fp = Some(RegBank::Fp);
        match self {
            Mulq | Addq | Subq | And | Or | Xor | Sll | Srl | Sra | Cmpeq | Cmplt | Cmple
            | Cmpult => [int, int],
            Lda => [int, None],
            Divs | Divt | Addt | Subt | Mult | Cmpteq | Cmptlt => [fp, fp],
            Sqrts | Sqrtt | Fmov | Cvttq => [fp, None],
            Cvtqt => [int, None],
            Ldq | Ldt => [int, None],
            Stq => [int, int],
            Stt => [int, fp],
            Br => [None, None],
            Beq | Bne | Blt | Bge => [int, None],
            Jmp | Ret => [int, None],
            Jsr => [None, None],
        }
    }

    /// Whether this is a conditional branch — the only control flow the
    /// branch predictor must predict (the paper assumes "all other control
    /// flow instructions ... 100% predictable").
    #[must_use]
    pub fn is_conditional_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// Whether this opcode transfers control (ends a basic block).
    #[must_use]
    pub fn is_control_flow(self) -> bool {
        self.class() == InstrClass::ControlFlow
    }

    /// Whether this opcode reads or writes memory.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self.class(), InstrClass::Load | InstrClass::Store)
    }

    /// For divide-class opcodes, the operand width (which selects the
    /// divider latency); `None` otherwise.
    #[must_use]
    pub fn div_width(self) -> Option<DivWidth> {
        match self {
            Opcode::Divs | Opcode::Sqrts => Some(DivWidth::W32),
            Opcode::Divt | Opcode::Sqrtt => Some(DivWidth::W64),
            _ => None,
        }
    }

    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Mulq => "mulq",
            Addq => "addq",
            Subq => "subq",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Cmpeq => "cmpeq",
            Cmplt => "cmplt",
            Cmple => "cmple",
            Cmpult => "cmpult",
            Lda => "lda",
            Divs => "divs",
            Divt => "divt",
            Sqrts => "sqrts",
            Sqrtt => "sqrtt",
            Addt => "addt",
            Subt => "subt",
            Mult => "mult",
            Cmpteq => "cmpteq",
            Cmptlt => "cmptlt",
            Cvtqt => "cvtqt",
            Cvttq => "cvttq",
            Fmov => "fmov",
            Ldq => "ldq",
            Stq => "stq",
            Ldt => "ldt",
            Stt => "stt",
            Br => "br",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Jmp => "jmp",
            Jsr => "jsr",
            Ret => "ret",
        }
    }

    /// Every opcode, for exhaustive tests and fuzzing.
    #[must_use]
    pub fn all() -> &'static [Opcode] {
        use Opcode::*;
        &[
            Mulq, Addq, Subq, And, Or, Xor, Sll, Srl, Sra, Cmpeq, Cmplt, Cmple, Cmpult, Lda,
            Divs, Divt, Sqrts, Sqrtt, Addt, Subt, Mult, Cmpteq, Cmptlt, Cvtqt, Cvttq, Fmov, Ldq,
            Stq, Ldt, Stt, Br, Beq, Bne, Blt, Bge, Jmp, Jsr, Ret,
        ]
    }

    /// A compact byte encoding of the opcode (its declaration index),
    /// used by packed trace records. Inverse of [`Opcode::from_code`].
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an opcode byte produced by [`Opcode::code`]; `None` for
    /// out-of-range bytes.
    #[must_use]
    #[inline]
    pub fn from_code(code: u8) -> Option<Opcode> {
        Opcode::all().get(usize::from(code)).copied()
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_has_a_consistent_class() {
        for &op in Opcode::all() {
            // Memory opcodes are exactly the Load/Store classes.
            assert_eq!(op.is_mem(), matches!(op.class(), InstrClass::Load | InstrClass::Store));
            // Control-flow opcodes never write memory.
            if op.is_control_flow() {
                assert!(!op.is_mem());
            }
        }
    }

    #[test]
    fn divide_class_and_width_agree() {
        for &op in Opcode::all() {
            assert_eq!(op.div_width().is_some(), op.class() == InstrClass::FpDiv);
        }
        assert_eq!(Opcode::Divs.div_width().unwrap().latency(), 8);
        assert_eq!(Opcode::Divt.div_width().unwrap().latency(), 16);
    }

    #[test]
    fn conditional_branches_are_control_flow() {
        for &op in Opcode::all() {
            if op.is_conditional_branch() {
                assert!(op.is_control_flow());
            }
        }
        assert!(!Opcode::Br.is_conditional_branch());
        assert!(!Opcode::Jmp.is_conditional_branch());
    }

    #[test]
    fn stores_have_no_destination() {
        assert_eq!(Opcode::Stq.dest_bank(), None);
        assert_eq!(Opcode::Stt.dest_bank(), None);
        assert_eq!(Opcode::Ldq.dest_bank(), Some(RegBank::Int));
        assert_eq!(Opcode::Ldt.dest_bank(), Some(RegBank::Fp));
    }

    #[test]
    fn fp_compares_produce_integer_predicates() {
        assert_eq!(Opcode::Cmpteq.dest_bank(), Some(RegBank::Int));
        assert_eq!(Opcode::Cmptlt.dest_bank(), Some(RegBank::Int));
        assert_eq!(Opcode::Cmpteq.src_banks(), [Some(RegBank::Fp), Some(RegBank::Fp)]);
    }

    #[test]
    fn byte_codes_round_trip() {
        for (i, &op) in Opcode::all().iter().enumerate() {
            assert_eq!(usize::from(op.code()), i);
            assert_eq!(Opcode::from_code(op.code()), Some(op));
        }
        assert_eq!(Opcode::from_code(Opcode::all().len() as u8), None);
        assert_eq!(Opcode::from_code(u8::MAX), None);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<_> = Opcode::all().iter().map(|op| op.mnemonic()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
