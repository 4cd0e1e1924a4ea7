//! Compact trace records for the simulator's fetch/dispatch loop.
//!
//! A [`TraceOp`] is the lossless, ergonomic view of one dynamic
//! instruction (~72 bytes: `seq`, three `Option<ArchReg>`, an
//! `Option<u64>` address, an `Option<BranchInfo>`). The cycle-level
//! simulator streams millions of them, so `mcl-bench` stores traces as
//! [`PackedTrace`]s instead: 24-byte [`PackedOp`] records that drop the
//! sequence number (it equals the record's index), encode registers as
//! dense-index bytes with a sentinel, and fold the memory-address /
//! branch-outcome presence into flag bits. The paper's own methodology
//! (Section 4.1, ATOM trace-driven simulation) generates each trace once
//! and replays it under many machine configurations — the packed form is
//! what makes holding those shared traces cheap.
//!
//! [`TraceSource`] abstracts over the two storages so the simulator's
//! dispatch loop monomorphizes over either without an intermediate copy.
//!
//! # Invariant
//!
//! A packed record has one 64-bit auxiliary slot shared by the memory
//! address and the branch target, so an op may carry `mem_addr` *or*
//! `branch`, not both. The VM guarantees this (loads/stores are not
//! control flow); [`PackedTrace::push`] panics otherwise.

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

/// One packed dynamic instruction: 24 bytes instead of [`TraceOp`]'s ~72.
///
/// The sequence number is implicit (the record's index in its
/// [`PackedTrace`]); registers are [`ArchReg::dense_index`] bytes with
/// `0xFF` for "none"; the memory address and branch target share one
/// auxiliary word discriminated by flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp {
    pc: u64,
    /// Memory address (`HAS_MEM`), branch target (`HAS_BRANCH`), or 0.
    aux: u64,
    op: u8,
    dest: u8,
    src0: u8,
    src1: u8,
    flags: u8,
}

impl PackedOp {
    /// Packs a [`TraceOp`], discarding its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the op carries both a memory address and a branch
    /// outcome (see the [module invariant](self)).
    #[must_use]
    pub fn pack(op: &TraceOp) -> PackedOp {
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
        PackedOp {
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
    #[must_use]
    #[inline(always)]
    pub fn unpack(&self, seq: u64) -> TraceOp {
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
            op: Opcode::from_code(self.op).expect("packed records hold valid opcode bytes"),
            dest: unpack_reg(self.dest),
            srcs: [unpack_reg(self.src0), unpack_reg(self.src1)],
            mem_addr,
            branch,
            sched_inserted: self.flags & SCHED_INSERTED != 0,
        }
    }
}

/// Why a serialized trace failed to decode (see
/// [`PackedTrace::from_bytes`]).
///
/// Every field of a wire record is validated before a [`PackedOp`] is
/// built, so a corrupt input surfaces as one of these instead of a
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

/// MurmurHash3's 64-bit finalizer: a bijection that spreads every input
/// bit over the whole word.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// An immutable-after-build dynamic instruction stream in packed form.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTrace {
    ops: Vec<PackedOp>,
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
        PackedTrace { ops: Vec::with_capacity(capacity) }
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
        debug_assert_eq!(op.seq, self.ops.len() as u64, "trace seq must equal its index");
        self.ops.push(PackedOp::pack(op));
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

    /// The op at `index`, unpacked (with `seq == index`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    #[inline(always)]
    pub fn get(&self, index: usize) -> TraceOp {
        self.ops[index].unpack(index as u64)
    }

    /// Iterates over the unpacked ops in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        self.ops.iter().enumerate().map(|(i, op)| op.unpack(i as u64))
    }

    /// Unpacks the whole trace (for tests and tools wanting the fat
    /// form).
    #[must_use]
    pub fn to_ops(&self) -> Vec<TraceOp> {
        self.iter().collect()
    }

    /// The trace's 128-bit content digest: its identity in every cache
    /// keyed on "which trace is this".
    ///
    /// Three independent multiply-rotate chains (so they overlap in the
    /// pipeline) run over the records' `pc` words, their `aux` words and
    /// their packed byte fields; each chain gets a 64-bit finalizer, and
    /// the three are folded with the length into two 64-bit halves.
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
        // FxHash's multiplier: odd, with well-spread bits.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
        let (pc, aux, fields) = self.ops.iter().fold((0, 0, 0), |(pc, aux, fields), op| {
            let bytes = [op.op, op.dest, op.src0, op.src1, op.flags, 0, 0, 0];
            (mix(pc, op.pc), mix(aux, op.aux), mix(fields, u64::from_le_bytes(bytes)))
        });
        let fields = fmix64(fields ^ self.ops.len() as u64);
        let hi = fmix64(pc) ^ fields;
        let lo = fmix64(aux) ^ fields.rotate_left(32);
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// Bytes per stored record (24, vs [`TraceOp`]'s ~72).
    #[must_use]
    pub fn bytes_per_op() -> usize {
        std::mem::size_of::<PackedOp>()
    }

    /// Bytes per serialized record: the 21 payload bytes of a
    /// [`PackedOp`] without its alignment padding.
    pub const WIRE_BYTES_PER_OP: usize = 21;

    /// Serializes the trace as fixed-width little-endian records
    /// (`pc:8, aux:8, op:1, dest:1, src0:1, src1:1, flags:1`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.ops.len() * PackedTrace::WIRE_BYTES_PER_OP);
        for op in &self.ops {
            out.extend_from_slice(&op.pc.to_le_bytes());
            out.extend_from_slice(&op.aux.to_le_bytes());
            out.extend_from_slice(&[op.op, op.dest, op.src0, op.src1, op.flags]);
        }
        out
    }

    /// Deserializes a [`PackedTrace::to_bytes`] stream, validating every
    /// record.
    ///
    /// Validation is what lets [`PackedOp::unpack`] assume well-formed
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
        let mut ops = Vec::with_capacity(bytes.len() / W);
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
            ops.push(PackedOp { pc, aux, op, dest, src0, src1, flags });
        }
        Ok(PackedTrace { ops })
    }
}

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
    fn packed_records_are_24_bytes() {
        assert_eq!(PackedTrace::bytes_per_op(), 24);
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
        let _ = PackedOp::pack(&op);
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
    /// order) of `op`.
    fn perturb(op: &mut PackedOp, field: usize, rng: &mut mcl_testutil::Rng) {
        let word = rng.next_u64().max(1);
        let byte = rng.below(255) as u8 + 1;
        match field {
            0 => op.pc ^= word,
            1 => op.aux ^= word,
            2 => op.op ^= byte,
            3 => op.dest ^= byte,
            4 => op.src0 ^= byte,
            5 => op.src1 ^= byte,
            _ => op.flags ^= byte,
        }
    }

    /// The digest survives the wire form, and changes when any single
    /// field of any single record changes, or a record is dropped or
    /// appended — for random traces, the empty one included.
    #[test]
    fn digest_is_kept_by_the_wire_and_changed_by_any_one_edit() {
        mcl_testutil::check_cases(256, |rng| {
            let len = if rng.below(8) == 0 { 0 } else { rng.range(1, 24) };
            let ops: Vec<TraceOp> = (0..len as u64).map(|seq| random_op(rng, seq)).collect();
            let trace = PackedTrace::from_ops(&ops);
            let digest = trace.digest();
            assert_eq!(PackedTrace::from_bytes(&trace.to_bytes()).unwrap().digest(), digest);
            for index in 0..len {
                for field in 0..7 {
                    let mut edited = trace.clone();
                    perturb(&mut edited.ops[index], field, rng);
                    assert_ne!(edited.digest(), digest, "field {field} of record {index}");
                }
            }
            let mut longer = trace.clone();
            longer.push(&random_op(rng, len as u64));
            assert_ne!(longer.digest(), digest, "appended record");
            if len > 0 {
                let mut shorter = trace.clone();
                shorter.ops.remove(rng.range(0, len));
                assert_ne!(shorter.digest(), digest, "dropped record");
            }
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
