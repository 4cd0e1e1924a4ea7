//! Property test: packing a [`TraceOp`] sequence into the compact
//! [`PackedTrace`] representation and unpacking it again is lossless,
//! for arbitrary (valid) operand/memory/branch shapes.

use mcl_isa::op::Opcode;
use mcl_isa::reg::ArchReg;
use mcl_testutil::{check_cases, Rng};
use mcl_trace::{BranchInfo, PackedDecodeError, PackedTrace, TraceOp};

fn random_reg(rng: &mut Rng) -> Option<ArchReg> {
    if rng.flip() {
        None
    } else {
        Some(ArchReg::from_dense_index(rng.range(0, 64)))
    }
}

/// A random but *valid* trace op: sequential `seq`, and never both a
/// memory address and a branch record (the VM never produces both, and
/// the packed form rejects it).
fn random_op(rng: &mut Rng, seq: u64) -> TraceOp {
    let op = *rng.pick(Opcode::all());
    let mem_addr = if rng.flip() { Some(rng.next_u64()) } else { None };
    let branch = if mem_addr.is_none() && rng.flip() {
        Some(BranchInfo {
            taken: rng.flip(),
            target_pc: rng.next_u64(),
            conditional: rng.flip(),
        })
    } else {
        None
    };
    TraceOp {
        seq,
        pc: rng.next_u64(),
        op,
        dest: random_reg(rng),
        srcs: [random_reg(rng), random_reg(rng)],
        mem_addr,
        branch,
        sched_inserted: rng.flip(),
    }
}

#[test]
fn packed_trace_round_trips_random_sequences() {
    check_cases(200, |rng| {
        let len = rng.range(0, 64);
        let ops: Vec<TraceOp> =
            (0..len as u64).map(|seq| random_op(rng, seq)).collect();

        let packed = PackedTrace::from_ops(&ops);
        assert_eq!(packed.len(), ops.len());

        // Element-wise through the packed accessor, plus the bulk
        // conversion.
        for (i, want) in ops.iter().enumerate() {
            assert_eq!(&packed.get(i), want, "op #{i}");
        }
        assert_eq!(packed.to_ops(), ops);
    });
}

#[test]
fn wire_encoding_round_trips_random_sequences() {
    check_cases(200, |rng| {
        let len = rng.range(0, 64);
        let ops: Vec<TraceOp> = (0..len as u64).map(|seq| random_op(rng, seq)).collect();
        let packed = PackedTrace::from_ops(&ops);
        let bytes = packed.to_bytes();
        assert_eq!(bytes.len(), ops.len() * PackedTrace::WIRE_BYTES_PER_OP);
        let decoded = PackedTrace::from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, packed);
        assert_eq!(decoded.to_ops(), ops);
    });
}

/// Mutation property: flipping any single byte of a serialized trace
/// (or truncating it) either still decodes to a *valid* trace — every
/// record unpackable without panicking — or fails with a typed
/// [`PackedDecodeError`]. Decoding must never panic on corrupt input.
#[test]
fn decode_survives_arbitrary_single_byte_corruption() {
    check_cases(300, |rng| {
        let len = rng.range(1, 32);
        let ops: Vec<TraceOp> = (0..len as u64).map(|seq| random_op(rng, seq)).collect();
        let mut bytes = PackedTrace::from_ops(&ops).to_bytes();

        if rng.flip() {
            // Flip one byte to an arbitrary new value.
            let pos = rng.range(0, bytes.len());
            let flip = 1 + rng.below(255) as u8;
            bytes[pos] ^= flip;
        } else {
            // Truncate to an arbitrary prefix.
            let keep = rng.range(0, bytes.len());
            bytes.truncate(keep);
            if keep % PackedTrace::WIRE_BYTES_PER_OP != 0 {
                assert_eq!(
                    PackedTrace::from_bytes(&bytes),
                    Err(PackedDecodeError::Truncated { len: keep })
                );
                return;
            }
        }

        match PackedTrace::from_bytes(&bytes) {
            // Validation accepted the mutation: every record must
            // actually be usable (this is the guarantee the simulator's
            // fetch loop relies on).
            Ok(trace) => {
                let _ = trace.to_ops();
            }
            Err(e) => {
                // Typed, displayable, and pointing at a real record.
                let msg = e.to_string();
                assert!(!msg.is_empty());
            }
        }
    });
}
