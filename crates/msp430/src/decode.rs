//! Pre-decoded instruction representation and basic-block lowering.
//!
//! The interpreter ([`crate::cpu::Cpu::step`]) re-reads and re-decodes
//! every instruction from raw memory on every execution. This module
//! lowers a run of instructions starting at a program counter into a
//! [`Block`] of [`DecodedInstr`]s once, precomputing everything that is a
//! pure function of the instruction bytes and their address:
//!
//! * the decoded [`Instr`] itself (operand modes are position-dependent
//!   but static — `isa.rs` resolves symbolic operands at decode time),
//! * the cycle-table cost ([`crate::cpu`]'s tables are pure functions of
//!   addressing modes),
//! * the attribution [`Category`] (a pure function of the fetch region),
//! * and a dispatch [`Plan`] describing how much of the per-fetch bus
//!   accounting can be batched without changing any observable statistic.
//!
//! The dispatch engine that caches and invalidates these blocks lives in
//! [`crate::blocks`].

use crate::cpu::{ext_count_raw, instr_cycles};
use crate::isa::{Instr, Opcode, Operand, Reg, Size};
use crate::mem::{Bus, Region};
use crate::trace::Category;

/// Upper bound on instructions per block, so a pathological decode (e.g.
/// a long run of data bytes that happen to decode) cannot build an
/// unbounded block.
pub const MAX_BLOCK_INSTRS: usize = 64;

/// How a cached instruction is dispatched. Every plan reproduces the
/// interpreter's observable behaviour (statistics, hardware-cache state,
/// sanitizer latching, faults) exactly; the plans differ only in how much
/// of the per-word fetch ceremony is provably redundant and elided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// SRAM text, sanitizer fetch checks provably no-ops, and execution
    /// touches no bus location: fetch accounting is a bare counter bump
    /// and contention bookkeeping is skipped (no FRAM line can be
    /// touched).
    SramPure,
    /// SRAM text with elided sanitizer checks, but execution may access
    /// memory, so contention bookkeeping runs.
    SramFast,
    /// FRAM text with elided sanitizer checks: each word still charges
    /// the stateful hardware-cache/wait/contention model per access.
    FramFast,
    /// Full per-word replay through `Bus::account_ifetch` — used when
    /// the sanitizer must observe each fetch (e.g. tracked SRAM bytes not
    /// yet proven filled).
    Replay,
}

/// Pre-matched source operand of a lowered Format-I instruction (see
/// [`ExecPlan::Alu`]). Mirrors [`Operand`] with the decode-time folding
/// already applied (symbolic and absolute collapse to an address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcPlan {
    /// Immediate (including constant-generator values).
    Imm(u16),
    /// Register direct.
    Reg(Reg),
    /// Memory at `reg + offset` (indexed).
    Idx(Reg, u16),
    /// Memory at a fixed address (symbolic/absolute).
    Abs(u16),
    /// Memory at `reg` (indirect).
    Ind(Reg),
    /// Memory at `reg`, then increment `reg` (`@Rn+`; +2 for SP, else
    /// operand size).
    IndInc(Reg),
}

/// Pre-matched destination operand of a lowered Format-I instruction.
/// Format-I destinations only encode register, indexed, symbolic and
/// absolute modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DstPlan {
    /// Register direct.
    Reg(Reg),
    /// Memory at `reg + offset` (indexed).
    Idx(Reg, u16),
    /// Memory at a fixed address (symbolic/absolute).
    Abs(u16),
}

/// Pre-lowered execution dispatch: the operand-shape matching that the
/// generic path (`Cpu::exec_decoded`) performs per execution is done
/// once at decode time, and dispatch goes straight to a flattened
/// executor. Every lowered path shares the interpreter's ALU/flag cores
/// ([`crate::cpu::Cpu`]'s `alu_format_i`, `rotate_core`, `sxt_core`,
/// `jump_taken`), so the semantics cannot diverge; only operand-location
/// plumbing is flattened away.
#[derive(Debug, Clone, Copy)]
pub enum ExecPlan {
    /// Format-I `op.size #imm, Rd` — bus-free, batchable.
    AluImm { op: Opcode, size: Size, v: u16, dst: Reg },
    /// Format-I `op.size Rs, Rd` — bus-free, batchable.
    AluReg { op: Opcode, size: Size, src: Reg, dst: Reg },
    /// Any other Format-I instruction (at least one memory operand).
    Alu { op: Opcode, size: Size, src: SrcPlan, dst: DstPlan },
    /// Format-II RRA/RRC/SWPB/SXT on a register.
    Fmt2Reg { op: Opcode, size: Size, dst: Reg },
    /// PUSH of any operand.
    Push { size: Size, src: SrcPlan },
    /// CALL through any operand.
    Call { src: SrcPlan },
    /// RETI.
    Reti,
    /// Conditional/unconditional jump; `offset` is the pre-scaled byte
    /// displacement applied to the post-fetch PC when taken.
    Jmp { op: Opcode, offset: u16 },
    /// Generic interpretation of the decoded instruction
    /// (memory-destination Format-II shifts and malformed shapes).
    Generic,
}

/// One pre-decoded instruction, pinned to its fetch address.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInstr {
    /// Address the instruction was decoded from.
    pub pc: u16,
    /// PC after the fetch (before any control-flow effect of execution).
    pub next_pc: u16,
    /// Number of 16-bit words occupied (1–3).
    pub words: u8,
    /// Attribution category of the fetch region.
    pub cat: Category,
    /// Precomputed cycle-table cost.
    pub cycles: u32,
    /// Dispatch plan (see [`Plan`]).
    pub plan: Plan,
    /// Execution dispatch (see [`ExecPlan`]).
    pub exec: ExecPlan,
    /// Whether the batched engine must run the full per-instruction poll
    /// set after executing this instruction (see `needs_poll`; every
    /// [`Plan::Replay`] fetch polls too): false for instructions that
    /// provably cannot store, halt, move SP, or latch a violation — those
    /// only need the cycle-budget check.
    pub poll: bool,
    /// Batch aggregate of the maximal run of consecutive batchable
    /// instructions starting here (`len == 0` when this instruction is
    /// not batchable); filled by [`build_block`].
    pub run: RunPlan,
    /// Safe upper bound on the cycles executing this instruction and the
    /// rest of its block can add to the statistics (see `worst_cycles`);
    /// filled by [`build_block`]. When the cycles left before the batch's
    /// limit (budget, next fault event, next timer fire) exceed this
    /// bound, the batched engine can execute to the end of the block
    /// without any per-instruction cycle check.
    pub worst_suffix: u32,
    /// The decoded instruction.
    pub instr: Instr,
}

/// A decoded basic block: a maximal straight-line run of instructions
/// starting at `start`, ending at the first control-flow terminator (or
/// the decode horizon).
#[derive(Debug, Clone)]
pub struct Block {
    /// First byte of the block.
    pub start: u16,
    /// One past the last byte (`u32` so a block may end at `0x1_0000`).
    pub end: u32,
    /// The instructions, in address order, each carrying its batch run
    /// aggregate and worst-case suffix bound (one contiguous array keeps
    /// the dispatch loop on a single cache-line stream).
    pub instrs: Vec<DecodedInstr>,
}

/// Static accounting aggregate for a run of consecutive *batchable*
/// instructions: provably pure execution (register/immediate operands
/// only, no stack-pointer writes) under a fetch plan with no per-word
/// sanitizer replay. Everything the run charges to the statistics except
/// the hardware cache's hit/miss split is a pure function of the
/// instruction bytes, so it is summed here once at decode time; see
/// [`crate::blocks::BlockEngine::step`] for how the cache
/// split itself collapses to one probe per distinct line.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPlan {
    /// Instructions in the run (0 = no batched fast path at this index).
    pub len: u8,
    /// Total fetch words over the run (contiguous from the first PC).
    pub words: u16,
    /// Summed cycle-table cost.
    pub unstalled: u32,
    /// Summed same-instruction FRAM line-contention cycles: each
    /// instruction's fetch words span `lines` hardware-cache lines and
    /// cost `lines - 1` stall cycles — static because a pure instruction
    /// performs no other access (0 for SRAM runs).
    pub contention: u32,
}

/// Whether executing `instr` cannot touch the bus: all operands are
/// registers or immediates and the opcode has no implicit memory traffic.
/// (PUSH/CALL/RETI write or read the stack; any memory operand reads or
/// writes through the bus.)
fn exec_is_pure(instr: &Instr) -> bool {
    match *instr {
        Instr::FormatI { src, dst, .. } => {
            matches!(src, Operand::Reg(_) | Operand::Imm(_)) && matches!(dst, Operand::Reg(_))
        }
        Instr::FormatII { op, dst, .. } => {
            matches!(op, Opcode::Rra | Opcode::Rrc | Opcode::Swpb | Opcode::Sxt)
                && matches!(dst, Operand::Reg(_))
        }
        Instr::Jump { .. } => true,
    }
}

/// Whether `instr` writes the stack pointer as its destination. Such an
/// instruction is excluded from batched runs: the run loop's per-step
/// stack check must observe the new SP immediately.
fn writes_sp(instr: &Instr) -> bool {
    match *instr {
        Instr::FormatI { dst, .. } | Instr::FormatII { dst, .. } => dst == Operand::Reg(Reg::SP),
        Instr::Jump { .. } => false,
    }
}

/// Whether executing `instr` can trip the batched engine's per-instruction
/// poll set (stack check, violation, halt port, invalidation generation).
/// `false` only when the instruction provably cannot store (register
/// destination), cannot move SP (destination is not SP and the source is
/// not an `@SP+` auto-increment, which pops), and is not PUSH/CALL/RETI
/// (implicit stack traffic). Such instructions — loads and pure ALU ops —
/// can still stall on data-read misses, so the cycle-budget check remains;
/// their execution cannot latch anything else: stores need a memory
/// destination, the halt port and sanitizer store checks only trigger on
/// writes, and data reads are never checked. The fetch is a separate
/// matter: a [`Plan::Replay`] fetch runs the sanitizer's ifetch check,
/// which can latch a wild jump or stale fetch, so [`decode_at`] also polls
/// every replayed instruction.
fn needs_poll(instr: &Instr) -> bool {
    match *instr {
        Instr::FormatI { src, dst, .. } => {
            !matches!(dst, Operand::Reg(_))
                || dst == Operand::Reg(Reg::SP)
                || matches!(src, Operand::IndirectInc(Reg::SP))
        }
        Instr::FormatII { op, dst, .. } => {
            matches!(op, Opcode::Push | Opcode::Call | Opcode::Reti)
                || !matches!(dst, Operand::Reg(_))
                || dst == Operand::Reg(Reg::SP)
        }
        Instr::Jump { .. } => false,
    }
}

/// Whether a decoded instruction may join a batched run: pure execution
/// (no bus traffic, so no store, halt port, sanitizer violation or code
/// invalidation is possible), no SP write, and a fetch plan that needs no
/// per-word sanitizer replay. A PC-writing pure instruction qualifies —
/// terminators are always last in their block, hence last in any run.
fn is_batchable(di: &DecodedInstr) -> bool {
    matches!(di.plan, Plan::SramPure | Plan::FramFast)
        && exec_is_pure(&di.instr)
        && !writes_sp(&di.instr)
}

/// Lowers an instruction's operand shape into its [`ExecPlan`] (see
/// there). Falls back to [`ExecPlan::Generic`] for shapes with implicit
/// stack traffic or that Format-I destinations cannot encode.
fn exec_plan(instr: &Instr) -> ExecPlan {
    match *instr {
        Instr::FormatI { op, size, src: Operand::Imm(v), dst: Operand::Reg(d) } => {
            ExecPlan::AluImm { op, size, v, dst: d }
        }
        Instr::FormatI { op, size, src: Operand::Reg(s), dst: Operand::Reg(d) } => {
            ExecPlan::AluReg { op, size, src: s, dst: d }
        }
        Instr::FormatI { op, size, src, dst } => {
            let d = match dst {
                Operand::Reg(r) => DstPlan::Reg(r),
                Operand::Indexed(x, r) => DstPlan::Idx(r, x),
                Operand::Symbolic(a) | Operand::Absolute(a) => DstPlan::Abs(a),
                // Not encodable as a Format-I destination; interpret.
                Operand::Indirect(_) | Operand::IndirectInc(_) | Operand::Imm(_) => {
                    return ExecPlan::Generic;
                }
            };
            ExecPlan::Alu { op, size, src: to_src_plan(src), dst: d }
        }
        Instr::FormatII {
            op: op @ (Opcode::Rra | Opcode::Rrc | Opcode::Swpb | Opcode::Sxt),
            size,
            dst: Operand::Reg(d),
        } => ExecPlan::Fmt2Reg { op, size, dst: d },
        Instr::FormatII { op: Opcode::Push, size, dst } => {
            ExecPlan::Push { size, src: to_src_plan(dst) }
        }
        Instr::FormatII { op: Opcode::Call, dst, .. } => ExecPlan::Call { src: to_src_plan(dst) },
        Instr::FormatII { op: Opcode::Reti, .. } => ExecPlan::Reti,
        Instr::Jump { op, offset_words } => {
            ExecPlan::Jmp { op, offset: (offset_words as u16).wrapping_mul(2) }
        }
        _ => ExecPlan::Generic,
    }
}

/// Maps an operand to its pre-matched [`SrcPlan`] (the source-position
/// lowering; Format-II destinations read through the same shapes).
pub(crate) fn to_src_plan(op: Operand) -> SrcPlan {
    match op {
        Operand::Imm(v) => SrcPlan::Imm(v),
        Operand::Reg(r) => SrcPlan::Reg(r),
        Operand::Indexed(x, r) => SrcPlan::Idx(r, x),
        Operand::Symbolic(a) | Operand::Absolute(a) => SrcPlan::Abs(a),
        Operand::Indirect(r) => SrcPlan::Ind(r),
        Operand::IndirectInc(r) => SrcPlan::IndInc(r),
    }
}

/// Whether `instr` (potentially) redirects control flow, ending a block.
/// Conservative: anything whose destination register is the PC counts.
fn is_terminator(instr: &Instr) -> bool {
    match *instr {
        Instr::Jump { .. } => true,
        Instr::FormatI { dst, .. } => dst == Operand::Reg(Reg::PC),
        Instr::FormatII { op, dst, .. } => {
            matches!(op, Opcode::Call | Opcode::Reti) || dst == Operand::Reg(Reg::PC)
        }
    }
}

/// Decodes the instruction at `pc` from current memory, or `None` when it
/// cannot be represented in a cached block (odd PC, non-memory region, a
/// fetch that would straddle regions or the top of the address space, or
/// an undecodable encoding). Callers fall back to the interpreter, which
/// reproduces the exact fault or MMIO behaviour.
fn decode_at(bus: &Bus, pc: u16) -> Option<DecodedInstr> {
    if pc & 1 != 0 {
        return None;
    }
    let region = bus.map().region_of(pc);
    if !matches!(region, Region::Sram | Region::Fram) {
        return None;
    }
    let w0 = bus.peek_word(pc);
    let ext = ext_count_raw(w0);
    let mut words = [w0, 0, 0];
    for (i, w) in words.iter_mut().enumerate().take(ext + 1).skip(1) {
        let a = u32::from(pc) + 2 * i as u32;
        if a >= 0x1_0000 {
            return None;
        }
        if bus.map().region_of(a as u16) != region {
            return None;
        }
        *w = bus.peek_word(a as u16);
    }
    let instr = Instr::decode(&words[..1 + ext], pc).ok()?;
    let n = 1 + ext;
    let cat = if region == Region::Sram { Category::AppSram } else { Category::AppFram };
    let skip = match bus.sanitizer() {
        None => true,
        Some(s) => (0..n).all(|i| s.can_skip_ifetch(pc.wrapping_add(2 * i as u16), 2)),
    };
    let plan = match (region, skip) {
        (Region::Sram, true) if exec_is_pure(&instr) => Plan::SramPure,
        (Region::Sram, true) => Plan::SramFast,
        (Region::Fram, true) => Plan::FramFast,
        _ => Plan::Replay,
    };
    let exec = exec_plan(&instr);
    Some(DecodedInstr {
        pc,
        next_pc: pc.wrapping_add(2 * n as u16),
        words: n as u8,
        cat,
        cycles: instr_cycles(&instr),
        plan,
        exec,
        poll: needs_poll(&instr) || plan == Plan::Replay,
        run: RunPlan::default(),
        worst_suffix: 0,
        instr,
    })
}

/// Builds the basic block starting at `start` from current memory, or
/// `None` if not even the first instruction is representable.
pub fn build_block(bus: &Bus, start: u16) -> Option<Block> {
    let mut instrs: Vec<DecodedInstr> = Vec::new();
    let mut pc = start;
    while let Some(di) = decode_at(bus, pc) {
        let next = di.next_pc;
        let term = is_terminator(&di.instr);
        instrs.push(di);
        // `next <= pc` means the fetch wrapped the 16-bit space.
        if term || instrs.len() >= MAX_BLOCK_INSTRS || next <= pc {
            break;
        }
        pc = next;
    }
    let last = instrs.last()?;
    let end = u32::from(last.pc) + 2 * u32::from(last.words);
    fill_runs(bus, &mut instrs);
    fill_worst_suffix(&mut instrs, bus.freq().fram_wait_cycles);
    Some(Block { start, end, instrs })
}

/// A safe upper bound on the cycles one execution of `di` can add to the
/// statistics: its unstalled table cost, plus a worst-case wait and
/// contention cycle for every fetch word and every data access it could
/// make (Format-I: source read, destination read, destination write;
/// Format-II: RETI pops two words, PUSH/CALL read one and write one, a
/// memory shift reads and writes — bounded at four).
fn worst_cycles(di: &DecodedInstr, fram_wait: u32) -> u32 {
    let data: u32 = match di.instr {
        Instr::FormatI { .. } => 3,
        Instr::FormatII { .. } => 4,
        Instr::Jump { .. } => 0,
    };
    di.cycles + (u32::from(di.words) + data) * (fram_wait + 1)
}

/// Fills the suffix sums of [`worst_cycles`] (see
/// [`DecodedInstr::worst_suffix`]).
fn fill_worst_suffix(instrs: &mut [DecodedInstr], fram_wait: u32) {
    let mut acc = 0u32;
    for di in instrs.iter_mut().rev() {
        acc = acc.saturating_add(worst_cycles(di, fram_wait));
        di.worst_suffix = acc;
    }
}

/// Suffix-scans the block for maximal batchable runs (see [`RunPlan`]).
fn fill_runs(bus: &Bus, instrs: &mut [DecodedInstr]) {
    for i in (0..instrs.len()).rev() {
        let di = &instrs[i];
        if !is_batchable(di) {
            continue;
        }
        let next = if i + 1 < instrs.len() { instrs[i + 1].run } else { RunPlan::default() };
        let contention = if di.cat == Category::AppFram {
            // Word fetches are contiguous and word-aligned, so the lines
            // spanned are exactly first..=last.
            let first = bus.hw_cache().line_of(di.pc);
            let last = bus.hw_cache().line_of(di.pc.wrapping_add(2 * (u16::from(di.words) - 1)));
            last - first
        } else {
            0
        };
        instrs[i].run = RunPlan {
            len: next.len.saturating_add(1),
            words: next.words + u16::from(di.words),
            unstalled: next.unstalled + di.cycles,
            contention: next.contention + contention,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::Frequency;
    use crate::hwcache::HwCache;
    use crate::isa::Size;
    use crate::mem::MemoryMap;

    fn bus_with(instrs: &[Instr], base: u16) -> Bus {
        let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_8);
        let mut at = base;
        for i in instrs {
            for w in i.encode(at).unwrap() {
                bus.poke_word(at, w);
                at = at.wrapping_add(2);
            }
        }
        bus
    }

    fn mov_imm(v: u16, r: Reg) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(v),
            dst: Operand::Reg(r),
        }
    }

    #[test]
    fn block_ends_at_jump() {
        let bus = bus_with(
            &[
                mov_imm(0x1234, Reg::R12),
                mov_imm(5, Reg::R13),
                Instr::Jump { op: Opcode::Jmp, offset_words: -5 },
                mov_imm(7, Reg::R14),
            ],
            0x4000,
        );
        let b = build_block(&bus, 0x4000).unwrap();
        assert_eq!(b.instrs.len(), 3, "block stops after the jump");
        assert_eq!(b.start, 0x4000);
        // 2-word MOV + 1-word MOV (CG constant 5... actually #5 is not a CG
        // constant, so 2 words) + 1-word JMP.
        let total: u32 = b.instrs.iter().map(|d| 2 * u32::from(d.words)).sum();
        assert_eq!(b.end, u32::from(b.start) + total);
    }

    #[test]
    fn block_ends_at_pc_write() {
        let br = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(0x4100),
            dst: Operand::Reg(Reg::PC),
        };
        let bus = bus_with(&[mov_imm(1, Reg::R12), br, mov_imm(2, Reg::R13)], 0x4000);
        let b = build_block(&bus, 0x4000).unwrap();
        assert_eq!(b.instrs.len(), 2);
    }

    #[test]
    fn fram_block_plans_are_fram_fast_without_sanitizer() {
        let bus = bus_with(&[mov_imm(1, Reg::R12), Instr::Jump { op: Opcode::Jmp, offset_words: 0 }], 0x4000);
        let b = build_block(&bus, 0x4000).unwrap();
        assert!(b.instrs.iter().all(|d| d.plan == Plan::FramFast));
        assert!(b.instrs.iter().all(|d| d.cat == Category::AppFram));
    }

    #[test]
    fn sram_block_distinguishes_pure_and_fast() {
        let store = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Reg(Reg::R12),
            dst: Operand::Absolute(0x2800),
        };
        let bus = bus_with(&[mov_imm(1, Reg::R12), store], 0x2000);
        let b = build_block(&bus, 0x2000).unwrap();
        assert_eq!(b.instrs[0].plan, Plan::SramPure);
        assert_eq!(b.instrs[1].plan, Plan::SramFast);
        assert!(b.instrs.iter().all(|d| d.cat == Category::AppSram));
    }

    #[test]
    fn tracked_unfilled_sram_forces_replay() {
        use crate::mem::AddrRange;
        use crate::sanitize::SanitizerConfig;
        let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_8);
        bus.attach_sanitizer(SanitizerConfig {
            exec: vec![AddrRange::new(0x2800, 0x3000)],
            tracked: Some(AddrRange::new(0x2800, 0x3000)),
            ..SanitizerConfig::default()
        });
        // Write the instruction with poke (which marks bytes filled), then
        // check an adjacent unfilled address still decodes as Replay while
        // the filled one is eligible for the fast plan.
        let i = mov_imm(1, Reg::R12);
        let mut at = 0x2800u16;
        for w in i.encode(at).unwrap() {
            bus.poke_word(at, w);
            at = at.wrapping_add(2);
        }
        let b = build_block(&bus, 0x2800).unwrap();
        assert_eq!(b.instrs[0].plan, Plan::SramPure, "filled + exec range → skip");
        // 0x2900 was never written: every fetch must replay (and in fact
        // the bytes there are zero, which decode to a valid instruction).
        if let Some(b2) = build_block(&bus, 0x2900) {
            assert!(b2.instrs.iter().all(|d| d.plan == Plan::Replay));
        }
    }

    #[test]
    fn non_code_regions_do_not_build() {
        let bus = bus_with(&[], 0x4000);
        assert!(build_block(&bus, 0x0100).is_none(), "MMIO");
        assert!(build_block(&bus, 0x0F00).is_none(), "trap window");
        assert!(build_block(&bus, 0x0000).is_none(), "unmapped");
        assert!(build_block(&bus, 0x4001).is_none(), "odd PC");
    }
}
