//! The trace-generating virtual machine.
//!
//! [`Vm`] executes a [`Program`] functionally — real register values,
//! real memory, real branch outcomes — and yields one [`Step`] per
//! dynamic instruction. This plays the role ATOM instrumentation played
//! in the paper: it produces the dynamic instruction stream (with
//! effective addresses and branch outcomes) that drives the cycle-level
//! simulator, the per-block execution [`Profile`] the local scheduler
//! consumes, and the final architectural state used as a golden model in
//! tests.

use std::collections::HashMap;
use std::fmt;

use mcl_isa::{ArchReg, Opcode};

use crate::instr::Instr;
use crate::packed::SiteHint;
use crate::profile::Profile;
use crate::program::{BlockId, Layout, Program};
use crate::traceop::{BranchInfo, TraceOp};
use crate::vreg::RegName;

/// Default cap on executed instructions, guarding against authoring bugs
/// that produce unintended infinite loops.
pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

/// Sparse 64-bit-word memory.
///
/// Addresses are truncated to 8-byte alignment (the synthetic workloads
/// only use aligned accesses; sub-word addressing is out of scope).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    words: HashMap<u64, u64>,
}

impl Memory {
    /// An empty memory (all words read as zero).
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Reads the word containing `addr`.
    #[must_use]
    pub fn read(&self, addr: u64) -> u64 {
        self.words.get(&(addr & !7)).copied().unwrap_or(0)
    }

    /// Writes the word containing `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        self.words.insert(addr & !7, value);
    }

    /// The number of distinct words written.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.words.len()
    }
}

/// An execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The step cap was exceeded (see [`Vm::with_max_steps`]).
    MaxStepsExceeded {
        /// The cap that was hit.
        limit: u64,
    },
    /// An indirect jump targeted an address outside the code segment.
    BadJump {
        /// The dynamic target address.
        pc: u64,
        /// The sequence number of the jumping instruction.
        seq: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MaxStepsExceeded { limit } => {
                write!(f, "execution exceeded {limit} instructions")
            }
            VmError::BadJump { pc, seq } => {
                write!(f, "instruction #{seq} jumped to invalid address {pc:#x}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// One executed dynamic instruction, in the program's register name
/// space.
///
/// For machine programs (`R = ArchReg`) a `Step` converts losslessly
/// [`into`](From) a [`TraceOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step<R> {
    /// Position in the dynamic stream (0-based).
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The static location executed.
    pub block: BlockId,
    /// Index within the block.
    pub index: usize,
    /// The operation.
    pub op: Opcode,
    /// Destination register (zero registers reported as `None`).
    pub dest: Option<R>,
    /// Source registers (zero registers reported as `None`).
    pub srcs: [Option<R>; 2],
    /// Effective address, for loads and stores.
    pub mem_addr: Option<u64>,
    /// Control-flow outcome, for control-flow instructions.
    pub branch: Option<BranchInfo>,
    /// Whether the executed instruction was inserted by the scheduler
    /// (see [`crate::Instr::sched_inserted`]).
    pub sched_inserted: bool,
}

impl From<Step<ArchReg>> for TraceOp {
    fn from(step: Step<ArchReg>) -> TraceOp {
        TraceOp {
            seq: step.seq,
            pc: step.pc,
            op: step.op,
            dest: step.dest,
            srcs: step.srcs,
            mem_addr: step.mem_addr,
            branch: step.branch,
            sched_inserted: step.sched_inserted,
        }
    }
}

/// The virtual machine.
///
/// `Vm` is an [`Iterator`] over `Result<Step<R>, VmError>`; it can also
/// be driven to completion with [`Vm::run_to_end`]. After execution the
/// final register values ([`Vm::reg`]), memory ([`Vm::memory`]), and
/// block profile ([`Vm::profile`]) are available for inspection.
///
/// # Example
///
/// ```
/// use mcl_trace::{ProgramBuilder, Vm, Vreg};
///
/// let mut b = ProgramBuilder::new("square");
/// let x = b.vreg_int("x");
/// b.lda(x, 9);
/// b.mulq(x, x, x);
/// let program = b.finish()?;
///
/// let mut vm = Vm::new(&program);
/// let steps = vm.run_to_end()?;
/// assert_eq!(steps, 2);
/// assert_eq!(vm.reg(x), 81);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Vm<'p, R> {
    program: &'p Program<R>,
    layout: Layout,
    regs: Vec<u64>,
    mem: Memory,
    /// Current location; `None` once halted.
    loc: Option<(usize, usize)>,
    seq: u64,
    max_steps: u64,
    profile: Profile,
}

impl<'p, R: RegName> Vm<'p, R> {
    /// Creates a VM positioned at the program entry, with
    /// [`Program::reg_init`] and [`Program::mem_init`] applied.
    #[must_use]
    pub fn new(program: &'p Program<R>) -> Vm<'p, R> {
        let layout = program.layout();
        let mut regs = Vec::new();
        let mut mem = Memory::new();
        for &(reg, value) in &program.reg_init {
            write_slot(&mut regs, reg, value);
        }
        for &(addr, value) in &program.mem_init {
            mem.write(addr, value);
        }
        let loc = first_loc_from(program, 0);
        let profile = Profile::new(program.blocks.len());
        Vm { program, layout, regs, mem, loc, seq: 0, max_steps: DEFAULT_MAX_STEPS, profile }
    }

    /// Replaces the step cap (default [`DEFAULT_MAX_STEPS`]).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Vm<'p, R> {
        self.max_steps = max_steps;
        self
    }

    /// Runs until the program halts, discarding steps.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError`] encountered.
    pub fn run_to_end(&mut self) -> Result<u64, VmError> {
        let mut steps = 0;
        for step in self.by_ref() {
            step?;
            steps += 1;
        }
        Ok(steps)
    }

    /// Runs until the program halts, collecting every step.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError`] encountered.
    pub fn run_collect(&mut self) -> Result<Vec<Step<R>>, VmError> {
        let mut steps = Vec::with_capacity(self.static_len());
        for step in self.by_ref() {
            steps.push(step?);
        }
        Ok(steps)
    }

    /// The program's static instruction count — the trace length of a
    /// straight-line execution and a lower bound for looping ones, used
    /// to seed trace-vector capacity instead of growing from empty.
    #[must_use]
    pub fn static_len(&self) -> usize {
        self.program.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// The current value of `reg` (zero registers always read zero).
    #[must_use]
    pub fn reg(&self, reg: R) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs.get(reg.storage_index()).copied().unwrap_or(0)
        }
    }

    /// The current value of `reg` interpreted as a float.
    #[must_use]
    pub fn reg_f64(&self, reg: R) -> f64 {
        f64::from_bits(self.reg(reg))
    }

    /// The memory image.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The per-block execution profile accumulated so far.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The number of instructions executed so far.
    #[must_use]
    pub fn steps_executed(&self) -> u64 {
        self.seq
    }

    /// Whether execution has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.loc.is_none()
    }

    /// The code layout used for PC computation.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    fn read(&self, reg: Option<R>) -> u64 {
        match reg {
            Some(r) => self.reg(r),
            None => 0,
        }
    }

    fn write(&mut self, reg: R, value: u64) {
        if !reg.is_zero() {
            write_slot(&mut self.regs, reg, value);
        }
    }

    /// The second operand of a binary operation: register if present,
    /// otherwise the immediate (operate-with-literal form).
    fn operand_b(&self, instr: &Instr<R>) -> u64 {
        match instr.srcs[1] {
            Some(r) => self.reg(r),
            None => instr.imm as u64,
        }
    }

    fn fallthrough_pc(&self, block: usize, index: usize) -> u64 {
        // Address of the next instruction in layout order; 0 if the
        // program ends here.
        match next_loc(self.program, block, index) {
            Some((b, i)) => self.layout.pc_of(BlockId::new(b), i),
            None => 0,
        }
    }

    fn block_pc(&self, target: BlockId) -> u64 {
        match first_loc_from(self.program, target.index()) {
            Some((b, i)) => self.layout.pc_of(BlockId::new(b), i),
            None => 0,
        }
    }

    fn execute_one(&mut self) -> Option<Result<Step<R>, VmError>> {
        let (bi, ii) = self.loc?;
        if self.seq >= self.max_steps {
            self.loc = None;
            return Some(Err(VmError::MaxStepsExceeded { limit: self.max_steps }));
        }
        if ii == 0 {
            self.profile.record(BlockId::new(bi));
        }
        let instr = self.program.blocks[bi].instrs[ii].clone();
        let pc = self.layout.pc_of(BlockId::new(bi), ii);
        let seq = self.seq;
        self.seq += 1;

        let mut mem_addr = None;
        let mut branch = None;
        // Where control goes next: None = fall through.
        let mut jump: Option<Option<(usize, usize)>> = None;

        use Opcode::*;
        match instr.op {
            // Integer operate.
            Mulq => self.bin_int(&instr, |a, b| a.wrapping_mul(b)),
            Addq => self.bin_int(&instr, |a, b| a.wrapping_add(b)),
            Subq => self.bin_int(&instr, |a, b| a.wrapping_sub(b)),
            And => self.bin_int(&instr, |a, b| a & b),
            Or => self.bin_int(&instr, |a, b| a | b),
            Xor => self.bin_int(&instr, |a, b| a ^ b),
            Sll => self.bin_int(&instr, |a, b| a.wrapping_shl(b as u32 & 63)),
            Srl => self.bin_int(&instr, |a, b| a.wrapping_shr(b as u32 & 63)),
            Sra => self.bin_int(&instr, |a, b| ((a as i64).wrapping_shr(b as u32 & 63)) as u64),
            Cmpeq => self.bin_int(&instr, |a, b| u64::from(a == b)),
            Cmplt => self.bin_int(&instr, |a, b| u64::from((a as i64) < (b as i64))),
            Cmple => self.bin_int(&instr, |a, b| u64::from((a as i64) <= (b as i64))),
            Cmpult => self.bin_int(&instr, |a, b| u64::from(a < b)),
            Lda => {
                let base = self.read(instr.srcs[0]);
                let value = base.wrapping_add(instr.imm as u64);
                self.write(instr.dest.expect("validated"), value);
            }

            // Floating point.
            Divs | Divt => self.bin_fp(&instr, |a, b| a / b),
            Sqrts | Sqrtt => self.un_fp(&instr, f64::sqrt),
            Addt => self.bin_fp(&instr, |a, b| a + b),
            Subt => self.bin_fp(&instr, |a, b| a - b),
            Mult => self.bin_fp(&instr, |a, b| a * b),
            Cmpteq => {
                let (a, b) = self.fp_operands(&instr);
                self.write(instr.dest.expect("validated"), u64::from(a == b));
            }
            Cmptlt => {
                let (a, b) = self.fp_operands(&instr);
                self.write(instr.dest.expect("validated"), u64::from(a < b));
            }
            Cvtqt => {
                let a = self.read(instr.srcs[0]) as i64;
                self.write(instr.dest.expect("validated"), (a as f64).to_bits());
            }
            Cvttq => {
                let a = f64::from_bits(self.read(instr.srcs[0]));
                self.write(instr.dest.expect("validated"), (a as i64) as u64);
            }
            Fmov => {
                let a = self.read(instr.srcs[0]);
                self.write(instr.dest.expect("validated"), a);
            }

            // Memory.
            Ldq | Ldt => {
                let addr = self.read(instr.srcs[0]).wrapping_add(instr.imm as u64);
                mem_addr = Some(addr & !7);
                let value = self.mem.read(addr);
                self.write(instr.dest.expect("validated"), value);
            }
            Stq | Stt => {
                let addr = self.read(instr.srcs[0]).wrapping_add(instr.imm as u64);
                mem_addr = Some(addr & !7);
                let value = self.read(instr.srcs[1]);
                self.mem.write(addr, value);
            }

            // Control flow.
            Br => {
                let target = instr.target.expect("validated");
                branch = Some(BranchInfo {
                    taken: true,
                    target_pc: self.block_pc(target),
                    conditional: false,
                });
                jump = Some(first_loc_from(self.program, target.index()));
            }
            Beq | Bne | Blt | Bge => {
                let cond = self.read(instr.srcs[0]);
                let taken = match instr.op {
                    Beq => cond == 0,
                    Bne => cond != 0,
                    Blt => (cond as i64) < 0,
                    Bge => (cond as i64) >= 0,
                    _ => unreachable!(),
                };
                let target = instr.target.expect("validated");
                let target_pc = if taken {
                    self.block_pc(target)
                } else {
                    self.fallthrough_pc(bi, ii)
                };
                branch = Some(BranchInfo { taken, target_pc, conditional: true });
                if taken {
                    jump = Some(first_loc_from(self.program, target.index()));
                }
            }
            Jsr => {
                let target = instr.target.expect("validated");
                let return_pc = self.fallthrough_pc(bi, ii);
                self.write(instr.dest.expect("validated"), return_pc);
                branch = Some(BranchInfo {
                    taken: true,
                    target_pc: self.block_pc(target),
                    conditional: false,
                });
                jump = Some(first_loc_from(self.program, target.index()));
            }
            Jmp | Ret => {
                let target_pc = self.read(instr.srcs[0]);
                branch = Some(BranchInfo { taken: true, target_pc, conditional: false });
                if target_pc == 0 {
                    jump = Some(None); // clean halt
                } else {
                    match self.layout.loc_of(target_pc) {
                        Some((b, i)) => jump = Some(Some((b.index(), i))),
                        None => {
                            self.loc = None;
                            return Some(Err(VmError::BadJump { pc: target_pc, seq }));
                        }
                    }
                }
            }
        }

        self.loc = match jump {
            Some(next) => next,
            None => next_loc(self.program, bi, ii),
        };

        Some(Ok(Step {
            seq,
            pc,
            block: BlockId::new(bi),
            index: ii,
            op: instr.op,
            dest: instr.dest.filter(|r| !r.is_zero()),
            srcs: [
                instr.srcs[0].filter(|r| !r.is_zero()),
                instr.srcs[1].filter(|r| !r.is_zero()),
            ],
            mem_addr,
            branch,
            sched_inserted: instr.sched_inserted,
        }))
    }

    fn bin_int(&mut self, instr: &Instr<R>, f: impl FnOnce(u64, u64) -> u64) {
        let a = self.read(instr.srcs[0]);
        let b = self.operand_b(instr);
        self.write(instr.dest.expect("validated"), f(a, b));
    }

    fn fp_operands(&self, instr: &Instr<R>) -> (f64, f64) {
        (
            f64::from_bits(self.read(instr.srcs[0])),
            f64::from_bits(self.read(instr.srcs[1])),
        )
    }

    fn bin_fp(&mut self, instr: &Instr<R>, f: impl FnOnce(f64, f64) -> f64) {
        let (a, b) = self.fp_operands(instr);
        self.write(instr.dest.expect("validated"), f(a, b).to_bits());
    }

    fn un_fp(&mut self, instr: &Instr<R>, f: impl FnOnce(f64) -> f64) {
        let a = f64::from_bits(self.read(instr.srcs[0]));
        self.write(instr.dest.expect("validated"), f(a).to_bits());
    }
}

impl<R: RegName> Iterator for Vm<'_, R> {
    type Item = Result<Step<R>, VmError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.execute_one()
    }
}

/// Convenience: executes a machine program to completion, returning the
/// trace as [`TraceOp`]s and the execution profile.
///
/// # Errors
///
/// Returns the first [`VmError`] encountered.
pub fn trace_program(program: &Program<ArchReg>) -> Result<(Vec<TraceOp>, Profile), VmError> {
    let mut vm = Vm::new(program);
    let mut ops = Vec::with_capacity(vm.static_len());
    for step in vm.by_ref() {
        ops.push(TraceOp::from(step?));
    }
    Ok((ops, vm.profile().clone()))
}

/// Like [`trace_program`], but collects directly into a
/// [`PackedTrace`](crate::PackedTrace) preallocated to `capacity_hint`
/// records (pass [`dynamic_len_estimate`] when a profile of the program
/// is available, or 0 to fall back to the static instruction count).
///
/// # Errors
///
/// Returns the first [`VmError`] encountered.
pub fn trace_program_packed(
    program: &Program<ArchReg>,
    capacity_hint: usize,
) -> Result<(crate::PackedTrace, Profile), VmError> {
    let mut vm = Vm::new(program);
    let capacity = capacity_hint.max(vm.static_len());
    let mut ops = crate::PackedTrace::with_capacity(capacity);
    // One hint per static instruction, at its block's offset plus its
    // index, so a step finds its static record without hashing.
    let block_base: Vec<usize> = program
        .blocks
        .iter()
        .scan(0, |next, b| {
            let base = *next;
            *next += b.instrs.len();
            Some(base)
        })
        .collect();
    let mut sites = vec![SiteHint::default(); vm.static_len()];
    for step in vm.by_ref() {
        let step = step?;
        let site = &mut sites[block_base[step.block.index()] + step.index];
        ops.push_at(&TraceOp::from(step), site);
    }
    Ok((ops, vm.profile().clone()))
}

/// Estimates a program's dynamic trace length from a per-block execution
/// profile: the profile-weighted sum of block sizes. Exact when the
/// profile came from an execution of a program with the same control
/// flow (e.g. its pre-allocation intermediate-language form).
#[must_use]
pub fn dynamic_len_estimate<R>(program: &Program<R>, profile: &Profile) -> usize {
    program
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| profile.count(BlockId::new(i)) as usize * b.instrs.len())
        .sum()
}

fn write_slot<R: RegName>(regs: &mut Vec<u64>, reg: R, value: u64) {
    let idx = reg.storage_index();
    if idx >= regs.len() {
        regs.resize(idx + 1, 0);
    }
    regs[idx] = value;
}

/// The first instruction location at or after block `from`, skipping
/// empty blocks; `None` if the program ends first.
fn first_loc_from<R>(program: &Program<R>, from: usize) -> Option<(usize, usize)> {
    (from..program.blocks.len()).find(|&b| !program.blocks[b].instrs.is_empty()).map(|b| (b, 0))
}

/// The location following (block, index), falling through to subsequent
/// blocks; `None` if the program ends.
fn next_loc<R>(program: &Program<R>, block: usize, index: usize) -> Option<(usize, usize)> {
    if index + 1 < program.blocks[block].instrs.len() {
        Some((block, index + 1))
    } else {
        first_loc_from(program, block + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::vreg::Vreg;

    #[test]
    fn arithmetic_semantics() {
        let mut b = ProgramBuilder::new("arith");
        let x = b.vreg_int("x");
        let y = b.vreg_int("y");
        let z = b.vreg_int("z");
        b.lda(x, 10);
        b.lda(y, -3);
        b.addq(z, x, y); // 7
        b.mulq(z, z, z); // 49
        b.subq_imm(z, z, 7); // 42
        b.sll_imm(z, z, 1); // 84
        b.sra_imm(z, z, 2); // 21
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert_eq!(vm.reg(z), 21);
    }

    #[test]
    fn signed_and_unsigned_compares_differ() {
        let mut b = ProgramBuilder::new("cmp");
        let neg = b.vreg_int("neg");
        let one = b.vreg_int("one");
        let s = b.vreg_int("s");
        let u = b.vreg_int("u");
        b.lda(neg, -1);
        b.lda(one, 1);
        b.cmplt(s, neg, one); // signed: -1 < 1 → 1
        b.cmpult(u, neg, one); // unsigned: u64::MAX < 1 → 0
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert_eq!(vm.reg(s), 1);
        assert_eq!(vm.reg(u), 0);
    }

    #[test]
    fn floating_point_semantics() {
        let mut b = ProgramBuilder::new("fp");
        let i = b.vreg_int("i");
        let f = b.vreg_fp("f");
        let g = b.vreg_fp("g");
        let h = b.vreg_fp("h");
        b.lda(i, 9);
        b.cvtqt(f, i); // 9.0
        b.sqrtt(g, f); // 3.0
        b.divt(h, f, g); // 3.0
        b.addt(h, h, g); // 6.0
        b.mult(h, h, h); // 36.0
        let back = b.vreg_int("back");
        b.cvttq(back, h);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert_eq!(vm.reg_f64(h), 36.0);
        assert_eq!(vm.reg(back), 36);
    }

    #[test]
    fn memory_roundtrip_and_effective_addresses() {
        let mut b = ProgramBuilder::new("mem");
        let base = b.vreg_int("base");
        let v = b.vreg_int("v");
        let out = b.vreg_int("out");
        b.lda(base, 0x2000);
        b.lda(v, 77);
        b.stq(base, 16, v);
        b.ldq(out, base, 16);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        let steps = vm.run_collect().unwrap();
        assert_eq!(vm.reg(out), 77);
        assert_eq!(steps[2].mem_addr, Some(0x2010));
        assert_eq!(steps[3].mem_addr, Some(0x2010));
        assert_eq!(vm.memory().read(0x2010), 77);
    }

    #[test]
    fn loop_profile_and_branch_outcomes() {
        let mut b = ProgramBuilder::new("loop");
        let i = b.vreg_int("i");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.lda(i, 3);
        b.switch_to(body);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        b.switch_to(exit);
        b.lda(i, 99);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        let steps = vm.run_collect().unwrap();
        // entry once, body 3 times, exit once.
        assert_eq!(vm.profile().count(BlockId::new(0)), 1);
        assert_eq!(vm.profile().count(BlockId::new(1)), 3);
        assert_eq!(vm.profile().count(BlockId::new(2)), 1);
        // The bne is taken twice, then falls through.
        let branches: Vec<bool> = steps
            .iter()
            .filter_map(|s| s.branch.map(|b| b.taken))
            .collect();
        assert_eq!(branches, vec![true, true, false]);
        assert_eq!(vm.reg(i), 99);
    }

    #[test]
    fn branch_target_pcs_match_layout() {
        let mut b = ProgramBuilder::new("t");
        let i = b.vreg_int("i");
        let body = b.new_block("body");
        b.lda(i, 1);
        b.switch_to(body);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let layout = p.layout();
        let mut vm = Vm::new(&p);
        let steps = vm.run_collect().unwrap();
        let br = steps.last().unwrap().branch.unwrap();
        assert!(!br.taken);
        // Not taken and the program ends: fall-through pc is 0.
        assert_eq!(br.target_pc, 0);
        // The body block's first instruction follows the entry block.
        assert_eq!(layout.pc_of(BlockId::new(1), 0), Layout::CODE_BASE + 4);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        let link = b.vreg_int("link");
        let halt = b.vreg_int("halt");
        let x = b.vreg_int("x");
        let after = b.new_block("after");
        let callee = b.new_block("callee");
        // Layout: entry (ends in jsr), after (the return point, halts),
        // callee (last, so the subroutine never runs by fallthrough).
        b.lda(x, 1);
        b.lda(halt, 0);
        b.jsr(link, callee);
        b.switch_to(after);
        b.addq_imm(x, x, 100);
        b.ret(halt); // ret to address 0 halts
        b.switch_to(callee);
        b.addq_imm(x, x, 10);
        b.ret(link);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        // jsr's return address is its fall-through (the `after` block),
        // so x = 1 + 10 (callee) + 100 (after).
        assert_eq!(vm.reg(x), 111);
    }

    #[test]
    fn ret_to_zero_halts() {
        let mut b = ProgramBuilder::new("halt");
        let link = b.vreg_int("link");
        let x = b.vreg_int("x");
        b.lda(link, 0);
        b.lda(x, 5);
        b.ret(link);
        // Unreachable tail block.
        let tail = b.new_block("tail");
        b.switch_to(tail);
        b.lda(x, 9);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert!(vm.is_halted());
        assert_eq!(vm.reg(x), 5);
    }

    #[test]
    fn bad_jump_is_reported() {
        let mut b = ProgramBuilder::new("bad");
        let link = b.vreg_int("link");
        b.lda(link, 0x3); // unaligned, not a code address
        b.ret(link);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        let err = vm.run_to_end().unwrap_err();
        assert_eq!(err, VmError::BadJump { pc: 3, seq: 1 });
    }

    #[test]
    fn max_steps_guard_trips() {
        let mut b = ProgramBuilder::<Vreg>::new("inf");
        let loop_ = b.new_block("loop");
        b.br(loop_);
        b.switch_to(loop_);
        b.br(loop_);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p).with_max_steps(100);
        let err = vm.run_to_end().unwrap_err();
        assert_eq!(err, VmError::MaxStepsExceeded { limit: 100 });
    }

    #[test]
    fn zero_register_semantics_in_machine_programs() {
        use mcl_isa::ArchReg;
        let mut b = ProgramBuilder::<ArchReg>::new("zero");
        let r2 = ArchReg::int(2);
        b.lda(r2, 5);
        b.mov(ArchReg::ZERO, r2); // discarded
        b.addq(r2, ArchReg::ZERO, r2); // 0 + 5
        let p = b.finish().unwrap();
        let (trace, _) = trace_program(&p).unwrap();
        assert_eq!(trace.len(), 3);
        // The zero-register write is reported as no destination.
        assert_eq!(trace[1].dest, None);
        // The zero-register read carries no dependence.
        assert_eq!(trace[2].srcs[0], None);
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert_eq!(vm.reg(r2), 5);
        assert_eq!(vm.reg(ArchReg::ZERO), 0);
    }

    #[test]
    fn empty_blocks_are_skipped() {
        let mut b = ProgramBuilder::new("skip");
        let x = b.vreg_int("x");
        let empty = b.new_block("empty");
        let tail = b.new_block("tail");
        b.lda(x, 1);
        b.br(empty); // lands on tail via the empty block
        b.switch_to(tail);
        b.addq_imm(x, x, 1);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run_to_end().unwrap();
        assert_eq!(vm.reg(x), 2);
        assert_eq!(vm.profile().count(empty), 0);
        assert_eq!(vm.profile().count(tail), 1);
    }

    #[test]
    fn steps_convert_to_trace_ops() {
        use mcl_isa::ArchReg;
        let mut b = ProgramBuilder::<ArchReg>::new("conv");
        b.lda(ArchReg::int(2), 1);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p);
        let step = vm.next().unwrap().unwrap();
        let op = TraceOp::from(step);
        assert_eq!(op.pc, Layout::CODE_BASE);
        assert_eq!(op.seq, 0);
        assert_eq!(op.dest, Some(ArchReg::int(2)));
    }

    #[test]
    fn vreg_and_archreg_programs_compute_identically() {
        // The same computation in both name spaces gives the same result
        // (golden-model property used heavily by mcl-sched tests).
        let mut bi = ProgramBuilder::<Vreg>::new("il");
        let a = bi.vreg_int("a");
        bi.lda(a, 6);
        bi.mulq_imm(a, a, 7);
        let il = bi.finish().unwrap();
        let mut vm_il = Vm::new(&il);
        vm_il.run_to_end().unwrap();

        use mcl_isa::ArchReg;
        let mut bm = ProgramBuilder::<ArchReg>::new("mach");
        let r = ArchReg::int(4);
        bm.lda(r, 6);
        bm.mulq_imm(r, r, 7);
        let mach = bm.finish().unwrap();
        let mut vm_m = Vm::new(&mach);
        vm_m.run_to_end().unwrap();

        assert_eq!(vm_il.reg(a), vm_m.reg(r));
        assert_eq!(vm_il.reg(a), 42);
    }
}
