//! Compact trace records for the simulator's fetch/dispatch loop.
//!
//! A [`TraceOp`] is the lossless, ergonomic view of one dynamic
//! instruction (~72 bytes: `seq`, three `Option<ArchReg>`, an
//! `Option<u64>` address, an `Option<BranchInfo>`). The cycle-level
//! simulator streams millions of them, so `mcl-bench` stores traces as
//! [`PackedTrace`]s instead. The paper's own methodology (Section 4.1,
//! ATOM trace-driven simulation) generates each trace once and replays
//! it under many machine configurations, so the resident traces are
//! most of the harness's memory.
//!
//! A packed trace is a table of *static records* plus one 8-byte
//! [`PackedOp`] per dynamic instruction. A static record holds what
//! repeats across executions of one instruction: its pc, opcode,
//! registers, flags (the branch direction among them) and the high 32
//! bits of its auxiliary word (the memory address or branch target),
//! with the [`TraceOp`] it decodes to kept ready. A [`PackedOp`] names
//! its static record and carries the auxiliary word's low 32 bits; its
//! sequence number is its index. The workloads run 34–50 distinct
//! static instructions per trace, with every address below 2^32, so
//! the table stays tiny. Any `TraceOp` still encodes losslessly: an
//! instruction whose high address bits vary just gets more records.
//!
//! Each dynamic instruction is also a *logical record*: pc, auxiliary
//! word, and the opcode, register and flag bytes. Equality, the wire
//! form ([`PackedTrace::to_bytes`], 21 bytes a record) and the content
//! [digest](PackedTrace::digest) are defined over the logical records,
//! so neither depends on the order of the static table.
//!
//! [`TraceSource`] abstracts over the two storages so the simulator's
//! dispatch loop monomorphizes over either without an intermediate copy.
//!
//! # Invariant
//!
//! A record has one 64-bit auxiliary word shared by the memory address
//! and the branch target, so an op may carry `mem_addr` *or* `branch`,
//! not both. The VM guarantees this (loads/stores are not control
//! flow); [`PackedTrace::push`] panics otherwise.

use std::collections::HashMap;
use std::fmt;

use mcl_isa::{reg::REGS_PER_BANK, ArchReg, Opcode};

use crate::traceop::{BranchInfo, TraceOp};

/// Register-byte sentinel meaning "no register".
const NO_REG: u8 = 0xFF;

/// Dense register indices run `0..2 * REGS_PER_BANK`.
const DENSE_REGS: u8 = 2 * REGS_PER_BANK;

/// Flag bit: the auxiliary word holds a memory address.
const HAS_MEM: u8 = 1 << 0;
/// Flag bit: the auxiliary word holds a branch target.
const HAS_BRANCH: u8 = 1 << 1;
/// Flag bit: the branch was taken.
const TAKEN: u8 = 1 << 2;
/// Flag bit: the branch is conditional (predictor-visible).
const CONDITIONAL: u8 = 1 << 3;
/// Flag bit: the instruction was inserted by the scheduling pass
/// (spill code), not the workload — see
/// [`crate::TraceOp::sched_inserted`].
const SCHED_INSERTED: u8 = 1 << 4;

/// The auxiliary word's bits a [`PackedOp`] carries; the rest belong to
/// its static record.
const AUX_LO: u64 = 0xFFFF_FFFF;

/// One packed dynamic instruction: 8 bytes instead of [`TraceOp`]'s ~72.
///
/// The index of the instruction's static record in its
/// [`PackedTrace`], and the low 32 bits of its memory address or branch
/// target. The sequence number is implicit (the record's index in the
/// trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp {
    sidx: u32,
    aux_lo: u32,
}

/// The logical record of one dynamic instruction: what the wire form
/// stores and the digest folds. Registers are [`ArchReg::dense_index`]
/// bytes with `0xFF` for "none"; the memory address and branch target
/// share one auxiliary word discriminated by flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    pc: u64,
    /// Memory address (`HAS_MEM`), branch target (`HAS_BRANCH`), or 0.
    aux: u64,
    op: u8,
    dest: u8,
    src0: u8,
    src1: u8,
    flags: u8,
}

impl Record {
    /// Packs a [`TraceOp`], discarding its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the op carries both a memory address and a branch
    /// outcome (see the [module invariant](self)).
    fn pack(op: &TraceOp) -> Record {
        let mut flags = 0;
        let aux = match (op.mem_addr, op.branch) {
            (Some(addr), None) => {
                flags |= HAS_MEM;
                addr
            }
            (None, Some(b)) => {
                flags |= HAS_BRANCH;
                if b.taken {
                    flags |= TAKEN;
                }
                if b.conditional {
                    flags |= CONDITIONAL;
                }
                b.target_pc
            }
            (None, None) => 0,
            (Some(_), Some(_)) => {
                panic!("trace op at pc {:#x} has both a memory address and a branch", op.pc)
            }
        };
        if op.sched_inserted {
            flags |= SCHED_INSERTED;
        }
        Record {
            pc: op.pc,
            aux,
            op: op.op.code(),
            dest: pack_reg(op.dest),
            src0: pack_reg(op.srcs[0]),
            src1: pack_reg(op.srcs[1]),
            flags,
        }
    }

    /// Unpacks into a [`TraceOp`] with the given sequence number.
    fn unpack(&self, seq: u64) -> TraceOp {
        let (mem_addr, branch) = if self.flags & HAS_MEM != 0 {
            (Some(self.aux), None)
        } else if self.flags & HAS_BRANCH != 0 {
            let info = BranchInfo {
                taken: self.flags & TAKEN != 0,
                target_pc: self.aux,
                conditional: self.flags & CONDITIONAL != 0,
            };
            (None, Some(info))
        } else {
            (None, None)
        };
        TraceOp {
            seq,
            pc: self.pc,
            op: Opcode::from_code(self.op).expect("records hold valid opcode bytes"),
            dest: unpack_reg(self.dest),
            srcs: [unpack_reg(self.src0), unpack_reg(self.src1)],
            mem_addr,
            branch,
            sched_inserted: self.flags & SCHED_INSERTED != 0,
        }
    }

    /// The record's byte fields as one little-endian word.
    fn fields(&self) -> u64 {
        u64::from_le_bytes([self.op, self.dest, self.src0, self.src1, self.flags, 0, 0, 0])
    }

    /// The three words the digest folds.
    fn words(&self) -> [u64; 3] {
        [self.pc, self.aux, self.fields()]
    }

    /// Splits the record into its static key and the auxiliary word's
    /// low half.
    fn split(&self) -> (StaticKey, u32) {
        let key = StaticKey { pc: self.pc, aux_hi: self.aux & !AUX_LO, fields: self.fields() };
        (key, (self.aux & AUX_LO) as u32)
    }
}

/// Why a serialized trace failed to decode (see
/// [`PackedTrace::from_bytes`]).
///
/// Every field of a wire record is validated before the record is
/// stored, so a corrupt input surfaces as one of these instead of a
/// panic deep inside the simulator's fetch loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedDecodeError {
    /// The byte stream is not a whole number of
    /// [`PackedTrace::WIRE_BYTES_PER_OP`]-byte records.
    Truncated {
        /// Total input length in bytes.
        len: usize,
    },
    /// A record's opcode byte names no [`Opcode`].
    BadOpcode {
        /// Record index.
        index: usize,
        /// The offending byte.
        code: u8,
    },
    /// A register byte is neither the "no register" sentinel nor a
    /// dense register index.
    BadRegister {
        /// Record index.
        index: usize,
        /// Which register slot (`"dest"`, `"src0"`, or `"src1"`).
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The flag byte uses undefined bits or an impossible combination
    /// (memory and branch together, or branch-outcome bits without a
    /// branch).
    BadFlags {
        /// Record index.
        index: usize,
        /// The offending byte.
        flags: u8,
    },
    /// The auxiliary word is nonzero although the flags claim neither a
    /// memory address nor a branch target.
    BadAux {
        /// Record index.
        index: usize,
    },
}

impl fmt::Display for PackedDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedDecodeError::Truncated { len } => write!(
                f,
                "trace of {len} bytes is not a whole number of {}-byte records",
                PackedTrace::WIRE_BYTES_PER_OP
            ),
            PackedDecodeError::BadOpcode { index, code } => {
                write!(f, "record {index}: opcode byte {code:#04x} names no opcode")
            }
            PackedDecodeError::BadRegister { index, field, value } => {
                write!(f, "record {index}: {field} register byte {value:#04x} is out of range")
            }
            PackedDecodeError::BadFlags { index, flags } => {
                write!(f, "record {index}: flag byte {flags:#04x} is inconsistent")
            }
            PackedDecodeError::BadAux { index } => {
                write!(f, "record {index}: auxiliary word set without a memory or branch flag")
            }
        }
    }
}

impl std::error::Error for PackedDecodeError {}

fn check_reg_byte(
    index: usize,
    field: &'static str,
    value: u8,
) -> Result<(), PackedDecodeError> {
    if value == NO_REG || value < DENSE_REGS {
        Ok(())
    } else {
        Err(PackedDecodeError::BadRegister { index, field, value })
    }
}

fn pack_reg(reg: Option<ArchReg>) -> u8 {
    match reg {
        Some(r) => r.dense_index() as u8,
        None => NO_REG,
    }
}

#[inline]
fn unpack_reg(byte: u8) -> Option<ArchReg> {
    if byte == NO_REG {
        None
    } else {
        Some(ArchReg::from_dense_index(usize::from(byte)))
    }
}

/// What a static record stands for: the three words the digest folds,
/// with the auxiliary word's low half cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StaticKey {
    pc: u64,
    aux_hi: u64,
    fields: u64,
}

impl StaticKey {
    /// The logical record of a dynamic instruction of this key.
    fn record(&self, aux_lo: u32) -> Record {
        let [op, dest, src0, src1, flags, ..] = self.fields.to_le_bytes();
        Record { pc: self.pc, aux: self.aux_hi | u64::from(aux_lo), op, dest, src0, src1, flags }
    }
}

/// One entry of a trace's static table.
#[derive(Debug, Clone)]
struct Static {
    key: StaticKey,
    /// The op this record decodes to, with `seq` 0 and the auxiliary
    /// word's low half cleared.
    template: TraceOp,
}

/// The static records one instruction site last resolved to, so that
/// packing a VM's steps consults the trace's map only when a site
/// yields a record it has not yet seen. Two suffice: a site's records
/// differ only in the branch direction and the high address bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteHint([u32; 2]);

impl Default for SiteHint {
    fn default() -> SiteHint {
        SiteHint([u32::MAX; 2])
    }
}

/// MurmurHash3's 64-bit finalizer: a bijection that spreads every input
/// bit over the whole word.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// The content digest of `len` logical records given as their `(pc,
/// aux, fields)` words; see [`PackedTrace::digest`].
fn digest_words(len: usize, words: impl Iterator<Item = [u64; 3]>) -> u128 {
    // FxHash's multiplier: odd, with well-spread bits.
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let (pc, aux, fields) = words.fold((0, 0, 0), |(pc, aux, fields), [p, a, f]| {
        (mix(pc, p), mix(aux, a), mix(fields, f))
    });
    let fields = fmix64(fields ^ len as u64);
    let hi = fmix64(pc) ^ fields;
    let lo = fmix64(aux) ^ fields.rotate_left(32);
    u128::from(hi) << 64 | u128::from(lo)
}

/// An immutable-after-build dynamic instruction stream in packed form.
///
/// Two traces are equal when their logical records are, whatever the
/// order of their static tables.
///
/// # Example
///
/// ```
/// use mcl_isa::{ArchReg, Opcode};
/// use mcl_trace::{PackedTrace, TraceOp, TraceSource};
///
/// let op = TraceOp {
///     seq: 0,
///     pc: 0x1000,
///     op: Opcode::Addq,
///     dest: Some(ArchReg::int(3)),
///     srcs: [Some(ArchReg::int(1)), Some(ArchReg::int(2))],
///     mem_addr: None,
///     branch: None,
///     sched_inserted: false,
/// };
/// let trace = PackedTrace::from_ops(&[op]);
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.get(0), op);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedTrace {
    ops: Vec<PackedOp>,
    statics: Vec<Static>,
    /// Each static key's index in `statics`.
    index: HashMap<StaticKey, u32>,
}

impl PackedTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> PackedTrace {
        PackedTrace::default()
    }

    /// An empty trace with room for `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> PackedTrace {
        PackedTrace { ops: Vec::with_capacity(capacity), ..PackedTrace::default() }
    }

    /// Packs a whole slice (sequence numbers must equal indices, as VM
    /// traces guarantee).
    #[must_use]
    pub fn from_ops(ops: &[TraceOp]) -> PackedTrace {
        let mut trace = PackedTrace::with_capacity(ops.len());
        for op in ops {
            trace.push(op);
        }
        trace
    }

    /// Appends one op (its `seq` becomes implicit and must equal
    /// [`PackedTrace::len`] at the time of the push).
    ///
    /// # Panics
    ///
    /// Panics if the op violates the [module invariant](self).
    pub fn push(&mut self, op: &TraceOp) {
        self.push_at(op, &mut SiteHint::default());
    }

    /// [`PackedTrace::push`] for an op executed at the instruction site
    /// `site` remembers.
    #[inline]
    pub(crate) fn push_at(&mut self, op: &TraceOp, site: &mut SiteHint) {
        debug_assert_eq!(op.seq, self.ops.len() as u64, "trace seq must equal its index");
        self.push_record(&Record::pack(op), site);
    }

    fn push_record(&mut self, record: &Record, site: &mut SiteHint) {
        let (key, aux_lo) = record.split();
        let is = |sidx: u32| self.statics.get(sidx as usize).is_some_and(|s| s.key == key);
        let [last, other] = site.0;
        let sidx = if is(last) {
            last
        } else if is(other) {
            site.0 = [other, last];
            other
        } else {
            let sidx = self.intern(key);
            site.0 = [sidx, last];
            sidx
        };
        self.ops.push(PackedOp { sidx, aux_lo });
    }

    /// The index of `key`'s static record, added if new.
    fn intern(&mut self, key: StaticKey) -> u32 {
        let next = u32::try_from(self.statics.len()).expect("fewer than 2^32 static records");
        *self.index.entry(key).or_insert_with(|| {
            self.statics.push(Static { key, template: key.record(0).unpack(0) });
            next
        })
    }

    /// The number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The number of static records: distinct instructions, counted
    /// once per branch direction and per high half of the auxiliary
    /// word they execute with.
    #[must_use]
    pub fn static_len(&self) -> usize {
        self.statics.len()
    }

    /// The op at `index`, unpacked (with `seq == index`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    #[inline(always)]
    pub fn get(&self, index: usize) -> TraceOp {
        let PackedOp { sidx, aux_lo } = self.ops[index];
        let mut op = self.statics[sidx as usize].template;
        op.seq = index as u64;
        if let Some(addr) = &mut op.mem_addr {
            *addr |= u64::from(aux_lo);
        } else if let Some(branch) = &mut op.branch {
            branch.target_pc |= u64::from(aux_lo);
        }
        op
    }

    /// Iterates over the unpacked ops in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Unpacks the whole trace (for tests and tools wanting the fat
    /// form).
    #[must_use]
    pub fn to_ops(&self) -> Vec<TraceOp> {
        self.iter().collect()
    }

    /// The logical records in sequence order.
    fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.ops.iter().map(|op| self.statics[op.sidx as usize].key.record(op.aux_lo))
    }

    /// The trace's 128-bit content digest: its identity in every cache
    /// keyed on "which trace is this".
    ///
    /// Three independent multiply-rotate chains (so they overlap in the
    /// pipeline) run over the logical records' `pc` words, their `aux`
    /// words and their byte fields; each chain gets a 64-bit finalizer,
    /// and the three are folded with the length into two 64-bit halves.
    ///
    /// Every chain step is a bijection in the state and in the word, and
    /// the fold changes with any one or two of the finalized chains while
    /// the rest hold. So two traces of equal length that differ in one
    /// record always get different digests, unless the record differs in
    /// all three words at once (168 bits of record cannot all map to 128
    /// bits of digest). Anything else is only unlikely to collide, so
    /// compare contents before treating two traces with one digest as one.
    #[must_use]
    pub fn digest(&self) -> u128 {
        digest_words(self.len(), self.records().map(|r| r.words()))
    }

    /// Bytes per dynamic record (8, vs [`TraceOp`]'s ~72); the static
    /// table adds a fixed few kilobytes per trace.
    #[must_use]
    pub fn bytes_per_op() -> usize {
        std::mem::size_of::<PackedOp>()
    }

    /// Bytes per serialized logical record.
    pub const WIRE_BYTES_PER_OP: usize = 21;

    /// Serializes the trace's logical records as fixed-width
    /// little-endian records (`pc:8, aux:8, op:1, dest:1, src0:1,
    /// src1:1, flags:1`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.ops.len() * PackedTrace::WIRE_BYTES_PER_OP);
        for r in self.records() {
            out.extend_from_slice(&r.pc.to_le_bytes());
            out.extend_from_slice(&r.aux.to_le_bytes());
            out.extend_from_slice(&[r.op, r.dest, r.src0, r.src1, r.flags]);
        }
        out
    }

    /// Deserializes a [`PackedTrace::to_bytes`] stream, validating every
    /// record.
    ///
    /// Validation is what lets [`PackedTrace::get`] assume well-formed
    /// records: an opcode byte that names a real [`Opcode`], register
    /// bytes that are the sentinel or a dense index, flag bits from the
    /// defined set in a possible combination, and a zero auxiliary word
    /// when no flag claims it.
    ///
    /// # Errors
    ///
    /// Returns a [`PackedDecodeError`] naming the first corrupt record
    /// and field.
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTrace, PackedDecodeError> {
        const W: usize = PackedTrace::WIRE_BYTES_PER_OP;
        if !bytes.len().is_multiple_of(W) {
            return Err(PackedDecodeError::Truncated { len: bytes.len() });
        }
        let mut trace = PackedTrace::with_capacity(bytes.len() / W);
        let mut site = SiteHint::default();
        for (index, rec) in bytes.chunks_exact(W).enumerate() {
            let pc = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let aux = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            let [op, dest, src0, src1, flags] = [rec[16], rec[17], rec[18], rec[19], rec[20]];
            if Opcode::from_code(op).is_none() {
                return Err(PackedDecodeError::BadOpcode { index, code: op });
            }
            check_reg_byte(index, "dest", dest)?;
            check_reg_byte(index, "src0", src0)?;
            check_reg_byte(index, "src1", src1)?;
            let defined = HAS_MEM | HAS_BRANCH | TAKEN | CONDITIONAL | SCHED_INSERTED;
            let impossible = flags & !defined != 0
                || flags & HAS_MEM != 0 && flags & HAS_BRANCH != 0
                || flags & (TAKEN | CONDITIONAL) != 0 && flags & HAS_BRANCH == 0;
            if impossible {
                return Err(PackedDecodeError::BadFlags { index, flags });
            }
            if aux != 0 && flags & (HAS_MEM | HAS_BRANCH) == 0 {
                return Err(PackedDecodeError::BadAux { index });
            }
            trace.push_record(&Record { pc, aux, op, dest, src0, src1, flags }, &mut site);
        }
        Ok(trace)
    }
}

impl PartialEq for PackedTrace {
    fn eq(&self, other: &PackedTrace) -> bool {
        self.len() == other.len() && self.records().eq(other.records())
    }
}

impl Eq for PackedTrace {}

/// A random-access dynamic instruction stream the simulator can fetch
/// from: a fat [`TraceOp`] slice or a [`PackedTrace`].
pub trait TraceSource {
    /// The number of dynamic instructions.
    fn len(&self) -> usize;

    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The op at `index` (with its sequence number materialized).
    fn get(&self, index: usize) -> TraceOp;
}

impl TraceSource for [TraceOp] {
    fn len(&self) -> usize {
        <[TraceOp]>::len(self)
    }

    #[inline]
    fn get(&self, index: usize) -> TraceOp {
        self[index]
    }
}

impl TraceSource for PackedTrace {
    fn len(&self) -> usize {
        PackedTrace::len(self)
    }

    #[inline(always)]
    fn get(&self, index: usize) -> TraceOp {
        PackedTrace::get(self, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_records_are_8_bytes() {
        assert_eq!(PackedTrace::bytes_per_op(), 8);
    }

    fn branch_op(seq: u64) -> TraceOp {
        TraceOp {
            seq,
            pc: 0x2000,
            op: Opcode::Bne,
            dest: None,
            srcs: [Some(ArchReg::int(5)), None],
            mem_addr: None,
            branch: Some(BranchInfo { taken: true, target_pc: 0x1000, conditional: true }),
            sched_inserted: false,
        }
    }

    #[test]
    fn branch_and_memory_ops_round_trip() {
        let ops = [
            TraceOp {
                seq: 0,
                pc: 0x1000,
                op: Opcode::Ldt,
                dest: Some(ArchReg::fp(7)),
                srcs: [Some(ArchReg::int(30)), None],
                mem_addr: Some(0x9008),
                branch: None,
                sched_inserted: true,
            },
            branch_op(1),
        ];
        let trace = PackedTrace::from_ops(&ops);
        assert_eq!(trace.to_ops(), ops);
    }

    #[test]
    fn sentinel_registers_survive() {
        // r0 and f31-adjacent dense indices must not collide with the
        // sentinel; None must come back as None.
        let op = TraceOp {
            seq: 0,
            pc: 0,
            op: Opcode::Br,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            branch: Some(BranchInfo { taken: true, target_pc: 0, conditional: false }),
            sched_inserted: false,
        };
        assert_eq!(PackedTrace::from_ops(&[op]).get(0), op);
    }

    #[test]
    #[should_panic(expected = "both a memory address and a branch")]
    fn mem_plus_branch_is_rejected() {
        let mut op = branch_op(0);
        op.mem_addr = Some(0x10);
        PackedTrace::new().push(&op);
    }

    #[test]
    fn wire_round_trip_preserves_every_record() {
        let ops = [
            TraceOp {
                seq: 0,
                pc: 0x1000,
                op: Opcode::Ldt,
                dest: Some(ArchReg::fp(7)),
                srcs: [Some(ArchReg::int(30)), None],
                mem_addr: Some(0x9008),
                branch: None,
                sched_inserted: true,
            },
            branch_op(1),
            TraceOp {
                seq: 2,
                pc: 0x1010,
                op: Opcode::Addq,
                dest: Some(ArchReg::int(3)),
                srcs: [Some(ArchReg::int(1)), Some(ArchReg::int(2))],
                mem_addr: None,
                branch: None,
                sched_inserted: false,
            },
        ];
        let trace = PackedTrace::from_ops(&ops);
        let bytes = trace.to_bytes();
        assert_eq!(bytes.len(), ops.len() * PackedTrace::WIRE_BYTES_PER_OP);
        assert_eq!(PackedTrace::from_bytes(&bytes).unwrap(), trace);
        assert_eq!(PackedTrace::from_bytes(&[]).unwrap(), PackedTrace::new());
    }

    #[test]
    fn decode_rejects_each_kind_of_corruption() {
        let trace = PackedTrace::from_ops(&[branch_op(0)]);
        let good = trace.to_bytes();

        let truncated = &good[..good.len() - 1];
        assert_eq!(
            PackedTrace::from_bytes(truncated),
            Err(PackedDecodeError::Truncated { len: 20 })
        );

        let mut bad_op = good.clone();
        bad_op[16] = u8::MAX; // no opcode has code 0xFF
        assert_eq!(
            PackedTrace::from_bytes(&bad_op),
            Err(PackedDecodeError::BadOpcode { index: 0, code: u8::MAX })
        );

        let mut bad_reg = good.clone();
        bad_reg[18] = DENSE_REGS; // first invalid dense index
        assert_eq!(
            PackedTrace::from_bytes(&bad_reg),
            Err(PackedDecodeError::BadRegister { index: 0, field: "src0", value: DENSE_REGS })
        );

        let mut bad_flags = good.clone();
        bad_flags[20] = HAS_MEM | HAS_BRANCH;
        assert_eq!(
            PackedTrace::from_bytes(&bad_flags),
            Err(PackedDecodeError::BadFlags { index: 0, flags: HAS_MEM | HAS_BRANCH })
        );

        let mut orphan_bits = good.clone();
        orphan_bits[20] = TAKEN; // branch-outcome bit without HAS_BRANCH
        assert_eq!(
            PackedTrace::from_bytes(&orphan_bits),
            Err(PackedDecodeError::BadFlags { index: 0, flags: TAKEN })
        );

        let mut bad_aux = good;
        bad_aux[20] = 0; // drop HAS_BRANCH but leave the target word
        assert_eq!(PackedTrace::from_bytes(&bad_aux), Err(PackedDecodeError::BadAux { index: 0 }));
    }

    fn random_reg(rng: &mut mcl_testutil::Rng) -> Option<ArchReg> {
        rng.flip().then(|| ArchReg::from_dense_index(rng.range(0, usize::from(DENSE_REGS))))
    }

    fn random_op(rng: &mut mcl_testutil::Rng, seq: u64) -> TraceOp {
        let mem_addr = rng.flip().then(|| rng.next_u64());
        let branch = (mem_addr.is_none() && rng.flip()).then(|| BranchInfo {
            taken: rng.flip(),
            target_pc: rng.next_u64(),
            conditional: rng.flip(),
        });
        TraceOp {
            seq,
            pc: rng.next_u64(),
            op: *rng.pick(Opcode::all()),
            dest: random_reg(rng),
            srcs: [random_reg(rng), random_reg(rng)],
            mem_addr,
            branch,
            sched_inserted: rng.flip(),
        }
    }

    /// Flips a nonzero set of bits in field `field` (0..7, in wire
    /// order) of `record`.
    fn perturb(record: &mut Record, field: usize, rng: &mut mcl_testutil::Rng) {
        let word = rng.next_u64().max(1);
        let byte = rng.below(255) as u8 + 1;
        match field {
            0 => record.pc ^= word,
            1 => record.aux ^= word,
            2 => record.op ^= byte,
            3 => record.dest ^= byte,
            4 => record.src0 ^= byte,
            5 => record.src1 ^= byte,
            _ => record.flags ^= byte,
        }
    }

    fn digest_records(records: &[Record]) -> u128 {
        digest_words(records.len(), records.iter().map(Record::words))
    }

    /// The digest survives the wire form, and changes when any single
    /// field of any single logical record changes, or a record is
    /// dropped or appended — for random traces, the empty one included.
    #[test]
    fn digest_is_kept_by_the_wire_and_changed_by_any_one_edit() {
        mcl_testutil::check_cases(256, |rng| {
            let len = if rng.below(8) == 0 { 0 } else { rng.range(1, 24) };
            let ops: Vec<TraceOp> = (0..len as u64).map(|seq| random_op(rng, seq)).collect();
            let trace = PackedTrace::from_ops(&ops);
            let digest = trace.digest();
            assert_eq!(PackedTrace::from_bytes(&trace.to_bytes()).unwrap().digest(), digest);
            let records: Vec<Record> = trace.records().collect();
            assert_eq!(digest_records(&records), digest);
            for index in 0..len {
                for field in 0..7 {
                    let mut edited = records.clone();
                    perturb(&mut edited[index], field, rng);
                    assert_ne!(digest_records(&edited), digest, "field {field} of record {index}");
                }
            }
            let mut longer = trace.clone();
            longer.push(&random_op(rng, len as u64));
            assert_ne!(longer.digest(), digest, "appended record");
            if len > 0 {
                let mut shorter = records.clone();
                shorter.remove(rng.range(0, len));
                assert_ne!(digest_records(&shorter), digest, "dropped record");
            }
        });
    }

    /// Every flag byte a well-formed record may carry.
    const LEGAL_FLAGS: [u8; 12] = [
        0,
        HAS_MEM,
        HAS_BRANCH,
        HAS_BRANCH | TAKEN,
        HAS_BRANCH | CONDITIONAL,
        HAS_BRANCH | TAKEN | CONDITIONAL,
        SCHED_INSERTED,
        HAS_MEM | SCHED_INSERTED,
        HAS_BRANCH | SCHED_INSERTED,
        HAS_BRANCH | TAKEN | SCHED_INSERTED,
        HAS_BRANCH | CONDITIONAL | SCHED_INSERTED,
        HAS_BRANCH | TAKEN | CONDITIONAL | SCHED_INSERTED,
    ];

    /// An op with any opcode, pc and registers, a legal flag byte, and
    /// any auxiliary word where the flags claim one.
    fn any_op(rng: &mut mcl_testutil::Rng, seq: u64) -> TraceOp {
        let flags = *rng.pick(&LEGAL_FLAGS);
        let mut op = TraceOp {
            seq,
            pc: any_word(rng),
            op: *rng.pick(Opcode::all()),
            dest: random_reg(rng),
            srcs: [random_reg(rng), random_reg(rng)],
            mem_addr: (flags & HAS_MEM != 0).then_some(0),
            branch: (flags & HAS_BRANCH != 0).then_some(BranchInfo {
                taken: flags & TAKEN != 0,
                target_pc: 0,
                conditional: flags & CONDITIONAL != 0,
            }),
            sched_inserted: flags & SCHED_INSERTED != 0,
        };
        redraw_aux(rng, &mut op);
        op
    }

    /// A word at a pool value or anywhere below or above 2^32.
    fn any_word(rng: &mut mcl_testutil::Rng) -> u64 {
        const POOL: [u64; 4] = [0, 0x1_0000, 0xFFFF_FFFF, 0x1234_5678_0000_0010];
        match rng.below(3) {
            0 => *rng.pick(&POOL),
            1 => rng.next_u64() & AUX_LO,
            _ => rng.next_u64(),
        }
    }

    /// Draws a new memory address or branch target, whichever `op` has.
    fn redraw_aux(rng: &mut mcl_testutil::Rng, op: &mut TraceOp) {
        if let Some(addr) = &mut op.mem_addr {
            *addr = any_word(rng);
        } else if let Some(branch) = &mut op.branch {
            branch.target_pc = any_word(rng);
        }
    }

    /// Ops drawn from a few static shapes, each executed with fresh
    /// auxiliary words, so static records repeat.
    fn any_trace_ops(rng: &mut mcl_testutil::Rng, len: usize) -> Vec<TraceOp> {
        let shapes = rng.vec_in(1, 8, |rng| any_op(rng, 0));
        (0..len as u64)
            .map(|seq| {
                let mut op = TraceOp { seq, ..*rng.pick(&shapes) };
                if rng.flip() {
                    redraw_aux(rng, &mut op);
                }
                op
            })
            .collect()
    }

    /// The content digest as first defined: the three chains spelled
    /// out over the 21-byte wire records.
    fn reference_digest(wire: &[u8]) -> u128 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chains = [0u64; 3];
        let records = wire.chunks_exact(PackedTrace::WIRE_BYTES_PER_OP);
        let len = records.len() as u64;
        for rec in records {
            let mut fields = [0u8; 8];
            fields[..5].copy_from_slice(&rec[16..21]);
            let words = [
                u64::from_le_bytes(rec[0..8].try_into().unwrap()),
                u64::from_le_bytes(rec[8..16].try_into().unwrap()),
                u64::from_le_bytes(fields),
            ];
            for (chain, word) in chains.iter_mut().zip(words) {
                *chain = (chain.rotate_left(5) ^ word).wrapping_mul(K);
            }
        }
        let fields = fmix64(chains[2] ^ len);
        let hi = fmix64(chains[0]) ^ fields;
        let lo = fmix64(chains[1]) ^ fields.rotate_left(32);
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// Packing is lossless for any pc and auxiliary word and every
    /// legal flag byte; the wire form round-trips; the digest is the
    /// wire-record fold; and the static table holds one record per
    /// distinct (pc, high aux, fields) key.
    #[test]
    fn encoding_is_lossless_and_digest_is_the_wire_fold() {
        mcl_testutil::check_cases(256, |rng| {
            let len = if rng.below(8) == 0 { 0 } else { rng.range(1, 64) };
            let ops = any_trace_ops(rng, len);
            let trace = PackedTrace::from_ops(&ops);
            assert_eq!(trace.len(), len);
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(trace.get(i), *op, "op #{i}");
            }
            let wire = trace.to_bytes();
            assert_eq!(PackedTrace::from_bytes(&wire).unwrap(), trace);
            assert_eq!(trace.digest(), reference_digest(&wire));
            let keys: std::collections::HashSet<StaticKey> =
                ops.iter().map(|op| Record::pack(op).split().0).collect();
            assert_eq!(trace.static_len(), keys.len());
        });
    }

    /// Equality, the digest and the wire form see only the logical
    /// records, not the order of the static table.
    #[test]
    fn static_table_order_is_invisible() {
        mcl_testutil::check_cases(64, |rng| {
            let len = rng.range(1, 64);
            let trace = PackedTrace::from_ops(&any_trace_ops(rng, len));
            let mut reversed = trace.clone();
            let last = trace.static_len() as u32 - 1;
            reversed.statics.reverse();
            for op in &mut reversed.ops {
                op.sidx = last - op.sidx;
            }
            for sidx in reversed.index.values_mut() {
                *sidx = last - *sidx;
            }
            assert_eq!(reversed, trace);
            assert_eq!(reversed.to_ops(), trace.to_ops());
            assert_eq!(reversed.digest(), trace.digest());
            assert_eq!(reversed.to_bytes(), trace.to_bytes());
        });
    }

    #[test]
    fn trace_source_views_agree() {
        let ops = vec![branch_op(0), branch_op(1)];
        let packed = PackedTrace::from_ops(&ops);
        assert_eq!(TraceSource::len(&packed), TraceSource::len(ops.as_slice()));
        for i in 0..ops.len() {
            assert_eq!(TraceSource::get(&packed, i), TraceSource::get(ops.as_slice(), i));
        }
    }
}
