//! Intermediate-language program model and trace-generating virtual
//! machine.
//!
//! The paper's toolchain analysed ATOM-instrumented Alpha binaries "to
//! discover the data and control dependences between instructions, and
//! the live ranges these instructions read and write", then re-ran the
//! (rescheduled) binary under a trace-driven simulator. This crate plays
//! both roles for the reproduction:
//!
//! - [`program`] — programs as control-flow graphs of basic blocks whose
//!   instructions name either *live ranges* ([`Vreg`], the
//!   intermediate-language form consumed by the schedulers in
//!   `mcl-sched`) or *architectural registers*
//!   ([`mcl_isa::ArchReg`], the machine form consumed by the simulator).
//!   The two forms share one generic representation, [`Instr<R>`].
//! - [`builder`] — an ergonomic [`ProgramBuilder`] for authoring programs
//!   (used by the synthetic workloads and by tests).
//! - [`vm`] — a functional interpreter, [`Vm`], that executes a program
//!   with real data values, producing the dynamic instruction stream
//!   (the *trace*), an execution [`Profile`] (the per-block estimates the
//!   paper's local scheduler derives "from profiling the execution"), and
//!   the final architectural state (the golden model for testing).
//! - [`traceop`] — the per-dynamic-instruction record ([`TraceOp`])
//!   consumed by the cycle-level simulator in `mcl-core`.
//!
//! # Example
//!
//! ```
//! use mcl_isa::ArchReg;
//! use mcl_trace::{ProgramBuilder, Vm};
//!
//! // sum = 1 + 2, computed in architectural registers.
//! let mut b = ProgramBuilder::<ArchReg>::new("sum");
//! let entry = b.current_block();
//! let (r1, r2, r3) = (ArchReg::int(2), ArchReg::int(4), ArchReg::int(6));
//! b.lda(r1, 1);
//! b.lda(r2, 2);
//! b.addq(r3, r1, r2);
//! let program = b.finish().expect("valid program");
//! assert_eq!(program.blocks[entry.index()].instrs.len(), 3);
//!
//! let mut vm = Vm::new(&program);
//! let trace: Vec<_> = vm.by_ref().collect::<Result<_, _>>()?;
//! assert_eq!(trace.len(), 3);
//! assert_eq!(vm.reg(r3), 3);
//! # Ok::<(), mcl_trace::VmError>(())
//! ```

pub mod analysis;
pub mod asm;
pub mod builder;
pub mod instr;
pub mod packed;
pub mod profile;
pub mod program;
pub mod traceop;
pub mod vm;
pub mod vreg;

pub use asm::ParseError;
pub use builder::ProgramBuilder;
pub use instr::Instr;
pub use packed::{PackedDecodeError, PackedOp, PackedTrace};
pub use profile::Profile;
pub use program::{Block, BlockId, Layout, Program, ValidateError};
pub use traceop::{BranchInfo, TraceOp};
pub use vm::{Memory, Step, Vm, VmError};
pub use vreg::{RegName, Vreg};
