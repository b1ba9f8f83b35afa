//! Pre-decoded basic-block dispatch engine.
//!
//! [`BlockEngine`] caches [`crate::decode::Block`]s keyed by physical
//! address and executes one instruction per [`BlockEngine::step`] call —
//! the same granularity as the interpreter, so [`crate::machine::Machine`]
//! keeps polling faults, sanitizer violations and the cycle budget at
//! identical points — while eliminating the per-step fetch/decode work and
//! dispatching precomputed cycle/category/accounting plans instead.
//! [`BlockEngine::step_batched`] executes whole blocks per call and chains
//! from each block into the next along the executed control flow, with the
//! run loop's checks replicated inline, eliminating the per-instruction
//! dispatch overhead too. A batch returns to the run loop only where the
//! loop has work to do: an inline poll trips, the PC reaches the trap
//! window, a `reti` retires, no block can be built, or the next block could
//! reach the budget, the next fault event or the next timer fire. The
//! machine single-steps only with a profiler or a latched interrupt.
//!
//! # Invalidation contract
//!
//! Cached blocks are snapshots of code bytes, and SwapRAM rewrites code at
//! runtime (redirection words, relocation words, function bodies copied
//! into SRAM), so staleness is the central hazard. The engine leans on the
//! [`crate::mem::Bus`] code write barrier:
//!
//! * Every cached block registers its byte range with the barrier
//!   (64-byte granule counts).
//! * Every store into a watched granule — CPU stores, host-side pokes,
//!   image loads, injected bit flips, and the SRAM clear of a power cycle
//!   — is recorded with its address range and bumps a generation counter.
//! * At the top of every `step`, a changed generation triggers a drain:
//!   exactly the blocks whose `[start, end)` overlaps a recorded write are
//!   dropped. An unchanged generation (the overwhelmingly common case) is
//!   one integer compare.
//!
//! Two events invalidate wholesale rather than precisely: a machine
//! [`crate::machine::Machine::power_cycle`] (volatile state is gone and
//! sanitizer fill tracking reset, so SRAM-resident blocks and their skip
//! analysis are void) and sanitizer reattachment (detected via the bus's
//! sanitizer epoch), since blocks bake in a skip analysis proved against
//! the previous sanitizer's state.
//!
//! A PC with no buildable block (trap window, MMIO, undecodable bytes)
//! delegates to the interpreter for that one instruction, reproducing its
//! exact fault/stat behaviour.

use crate::cpu::Cpu;
use crate::decode::{build_block, Block, ExecPlan, Plan};
use crate::error::SimResult;
use crate::mem::Bus;

/// The `starts` table stores `slot + 1` so that 0 means "no block starts
/// at this address" — an all-zero table lets construction use the
/// allocator's zero pages instead of a 256 KiB memset per engine.
const NO_BLOCK: u32 = 0;
/// Granule shift of the invalidation index (matches the bus barrier's
/// 64-byte granules).
const GRANULE_SHIFT: u32 = 6;
/// Number of granules covering the address space.
const GRANULES: usize = 0x1_0000 >> GRANULE_SHIFT;

/// The block cache and dispatcher. One engine is owned per
/// [`crate::machine::Machine`] (see [`crate::machine::Engine`]).
#[derive(Debug)]
pub struct BlockEngine {
    /// `pc → arena slot` of the block starting exactly at `pc`.
    starts: Vec<u32>,
    /// Block storage; freed slots are recycled via `free`.
    arena: Vec<Option<Block>>,
    free: Vec<u32>,
    /// `granule → arena slots` of blocks overlapping the granule, for
    /// precise invalidation.
    granule_blocks: Vec<Vec<u32>>,
    /// Straight-line fast path: the block slot and instruction index the
    /// previous step predicted for this one.
    cursor: Option<(u32, usize)>,
    /// Last drained write-barrier generation.
    seen_gen: u64,
    /// Last observed sanitizer epoch.
    seen_epoch: u64,
    /// Reused drain buffers.
    scratch: Vec<(u16, u32)>,
    candidates: Vec<u32>,
    blocks_built: u64,
    blocks_invalidated: u64,
    delegated: u64,
}

impl BlockEngine {
    /// Creates an empty engine. Call [`BlockEngine::reset`] against the
    /// owning bus before stepping so barrier state is in sync.
    pub fn new() -> BlockEngine {
        BlockEngine {
            starts: vec![NO_BLOCK; 0x1_0000],
            arena: Vec::new(),
            free: Vec::new(),
            granule_blocks: vec![Vec::new(); GRANULES],
            cursor: None,
            seen_gen: 0,
            seen_epoch: 0,
            scratch: Vec::new(),
            candidates: Vec::new(),
            blocks_built: 0,
            blocks_invalidated: 0,
            delegated: 0,
        }
    }

    /// Total blocks decoded since creation.
    pub fn blocks_built(&self) -> u64 {
        self.blocks_built
    }

    /// Total blocks dropped by precise (write-overlap) invalidation.
    pub fn blocks_invalidated(&self) -> u64 {
        self.blocks_invalidated
    }

    /// Steps delegated to the interpreter (no block representable).
    pub fn delegated(&self) -> u64 {
        self.delegated
    }

    /// Drops every cached block and resynchronises with the bus barrier.
    pub fn reset(&mut self, bus: &mut Bus) {
        for slot in 0..self.arena.len() as u32 {
            self.remove_block(bus, slot);
        }
        self.arena.clear();
        self.free.clear();
        self.cursor = None;
        bus.clear_code_watch();
        self.scratch.clear();
        bus.drain_code_dirty(&mut self.scratch);
        self.scratch.clear();
        self.seen_gen = bus.code_watch_gen();
        self.seen_epoch = bus.sanitizer_epoch();
    }

    /// Executes one instruction at the CPU's current PC, byte-identical in
    /// observable behaviour to [`Cpu::step`].
    ///
    /// # Errors
    ///
    /// Exactly the conditions under which the interpreter errors, with the
    /// same partial state (PC advanced past the fetch, fetch accounting
    /// charged, instruction/cycle counts not).
    pub fn step(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<()> {
        if bus.sanitizer_epoch() != self.seen_epoch {
            self.reset(bus);
        }
        if bus.code_watch_gen() != self.seen_gen {
            self.drain(bus);
        }
        let pc = cpu.pc();
        let (slot, idx) = match self.cursor {
            Some((slot, idx))
                if self.arena[slot as usize]
                    .as_ref()
                    .is_some_and(|b| idx < b.instrs.len() && b.instrs[idx].pc == pc) =>
            {
                (slot, idx)
            }
            _ => {
                let s = self.starts[usize::from(pc)];
                if s != NO_BLOCK {
                    (s - 1, 0)
                } else if let Some(slot) = self.build_at(bus, pc) {
                    (slot, 0)
                } else {
                    self.cursor = None;
                    self.delegated += 1;
                    cpu.step(bus)?;
                    return Ok(());
                }
            }
        };
        let block = self.arena[slot as usize].as_ref().expect("validated slot");
        let di = &block.instrs[idx];
        let len = block.instrs.len();
        match exec_one(cpu, bus, di) {
            Ok(()) => {
                self.cursor = if cpu.pc() == di.next_pc && idx + 1 < len {
                    Some((slot, idx + 1))
                } else {
                    None
                };
                Ok(())
            }
            Err(e) => {
                self.cursor = None;
                Err(e)
            }
        }
    }

    /// Executes instructions from the current PC for as long as
    /// [`crate::machine::Machine::run`]'s polling permits, following
    /// control flow from block to block, then returns.
    ///
    /// `limit` is the smallest of the cycle budget, the next fault event
    /// and the next timer fire, so no scheduled event can become due
    /// before the batch reaches it; with no profiler attached and no
    /// interrupt latched, nothing else outside the loop's own checks can
    /// observe instruction boundaries. Those checks are replicated inline
    /// after every instruction that can trip them — stack floor, latched
    /// violation, halt port, code-write barrier, `limit` — and the batch
    /// stops at the first instruction after which any of them would make
    /// the run loop act, leaving the machine in exactly the state
    /// per-instruction stepping would have. The barrier check additionally
    /// stops the batch when an instruction stores into watched code, so a
    /// self-modified block never executes stale successors (the next call
    /// drains it, same as [`BlockEngine::step`]).
    ///
    /// When a block runs to its end, the batch chains into the block at the
    /// new PC, looked up or built as on entry, unless
    ///
    /// * the block ended in `reti`, whose interrupt boundary the run loop
    ///   reports;
    /// * the new PC is in the trap window, which the runtime hook services;
    /// * no block can be built there (the next call delegates to the
    ///   interpreter);
    /// * the next block's worst-case cost could reach `limit` (the next
    ///   call steps it exactly, instruction by instruction).
    ///
    /// Chaining is exact because every check the run loop makes between
    /// two blocks is a no-op there: faults and timer fires lie at or past
    /// `limit` and the chain stays below it, nothing inside a batch can
    /// latch an interrupt, and every instruction that can move SP, store,
    /// halt or latch a violation was already polled inline.
    ///
    /// # Errors
    ///
    /// As [`BlockEngine::step`]: identical conditions and partial state to
    /// the interpreter, with every fully-executed prior instruction's
    /// effects committed.
    pub fn step_batched(&mut self, cpu: &mut Cpu, bus: &mut Bus, limit: u64) -> SimResult<()> {
        if bus.sanitizer_epoch() != self.seen_epoch {
            self.reset(bus);
        }
        if bus.code_watch_gen() != self.seen_gen {
            self.drain(bus);
        }
        let pc = cpu.pc();
        let (mut slot, mut idx) = match self.cursor {
            Some((slot, idx))
                if self.arena[slot as usize]
                    .as_ref()
                    .is_some_and(|b| idx < b.instrs.len() && b.instrs[idx].pc == pc) =>
            {
                (slot, idx)
            }
            _ => {
                let s = self.starts[usize::from(pc)];
                if s != NO_BLOCK {
                    (s - 1, 0)
                } else if let Some(slot) = self.build_at(bus, pc) {
                    (slot, 0)
                } else {
                    self.cursor = None;
                    self.delegated += 1;
                    cpu.step(bus)?;
                    return Ok(());
                }
            }
        };
        let mut block = self.arena[slot as usize].as_ref().expect("validated slot");
        let mut len = block.instrs.len();
        // When the cycles left before `limit` exceed the block suffix's
        // worst-case cost, no per-instruction cycle check can fire before
        // the block ends, and — since every non-terminator instruction in
        // a block provably falls through (only terminators can write the
        // PC, and they are always last) — no fall-through check is needed
        // either. The hot path below therefore polls only what each
        // instruction can actually trip: nothing for no-poll instructions
        // (loads and pure ALU ops — see `DecodedInstr::poll`), the
        // stack/violation/halt/barrier set for the rest. The suffix bound
        // is monotonically decreasing, so once covered, always covered;
        // each chained block is checked again from its start.
        if bus.stats().total_cycles() + u64::from(block.instrs[idx].worst_suffix) < limit {
            loop {
                while idx < len {
                    let first = &block.instrs[idx];
                    // A precomputed run of pure instructions: accounting is
                    // applied from the static aggregate (plus one cache probe
                    // per distinct fetch line); only the executions themselves
                    // remain per-instruction.
                    let rp = first.run;
                    if rp.len >= 2 {
                        let n = usize::from(rp.len);
                        match first.plan {
                            Plan::SramPure => bus.add_sram_ifetch(u64::from(rp.words)),
                            _ => bus.account_fram_ifetch_run(first.pc, rp.words),
                        }
                        bus.stats_mut().contention_cycles += u64::from(rp.contention);
                        bus.charge_batch(first.cat, n as u64, u64::from(rp.unstalled));
                        for di in &block.instrs[idx..idx + n] {
                            cpu.set_pc(di.next_pc);
                            // Pure instructions cannot fault (register and
                            // immediate operands only); propagate defensively.
                            if let Err(e) = exec_lowered(cpu, bus, di) {
                                self.cursor = None;
                                return Err(e);
                            }
                        }
                        idx += n;
                        continue;
                    }
                    let di = first;
                    if let Err(e) = exec_one(cpu, bus, di) {
                        self.cursor = None;
                        return Err(e);
                    }
                    if di.poll {
                        bus.check_stack(cpu.sp());
                        if bus.violation_pending()
                            || bus.ports().halt_code().is_some()
                            || bus.code_watch_gen() != self.seen_gen
                        {
                            let fell_through = cpu.pc() == di.next_pc && idx + 1 < len;
                            self.cursor = if fell_through && bus.code_watch_gen() == self.seen_gen {
                                Some((slot, idx + 1))
                            } else {
                                None
                            };
                            return Ok(());
                        }
                    }
                    idx += 1;
                }
                // Block exhausted: the last instruction was either a
                // terminator or the decode horizon; chain by block lookup.
                self.cursor = None;
                if matches!(block.instrs[len - 1].exec, ExecPlan::Reti) {
                    return Ok(());
                }
                let pc = cpu.pc();
                if bus.map().trap.contains(pc) {
                    return Ok(());
                }
                let s = self.starts[usize::from(pc)];
                slot = if s != NO_BLOCK {
                    s - 1
                } else if let Some(slot) = self.build_at(bus, pc) {
                    slot
                } else {
                    return Ok(());
                };
                block = self.arena[slot as usize].as_ref().expect("validated slot");
                if bus.stats().total_cycles() + u64::from(block.instrs[0].worst_suffix) >= limit {
                    return Ok(());
                }
                len = block.instrs.len();
                idx = 0;
            }
        }
        // Near `limit`: exact per-instruction stepping with the
        // full poll set, so the batch stops on precisely the same
        // instruction boundary as the interpreter's run loop.
        loop {
            let di = &block.instrs[idx];
            if let Err(e) = exec_one(cpu, bus, di) {
                self.cursor = None;
                return Err(e);
            }
            let fell_through = cpu.pc() == di.next_pc && idx + 1 < len;
            bus.check_stack(cpu.sp());
            if !fell_through
                || bus.violation_pending()
                || bus.ports().halt_code().is_some()
                || bus.code_watch_gen() != self.seen_gen
                || bus.stats().total_cycles() >= limit
            {
                self.cursor = if fell_through && bus.code_watch_gen() == self.seen_gen {
                    Some((slot, idx + 1))
                } else {
                    None
                };
                return Ok(());
            }
            idx += 1;
        }
    }

    fn build_at(&mut self, bus: &mut Bus, pc: u16) -> Option<u32> {
        let block = build_block(bus, pc)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.arena.push(None);
            (self.arena.len() - 1) as u32
        });
        bus.code_watch_add(block.start, block.end);
        for g in granules(block.start, block.end) {
            let list = &mut self.granule_blocks[g];
            if !list.contains(&slot) {
                list.push(slot);
            }
        }
        self.starts[usize::from(pc)] = slot + 1;
        if slot as usize >= self.arena.len() {
            self.arena.resize_with(slot as usize + 1, || None);
        }
        self.arena[slot as usize] = Some(block);
        self.blocks_built += 1;
        Some(slot)
    }

    /// Precisely drops every block overlapping a write recorded since the
    /// last drain.
    fn drain(&mut self, bus: &mut Bus) {
        self.scratch.clear();
        bus.drain_code_dirty(&mut self.scratch);
        let writes = std::mem::take(&mut self.scratch);
        for &(addr, len) in &writes {
            let wstart = u32::from(addr);
            let wend = (wstart + len.max(1)).min(0x1_0000);
            self.candidates.clear();
            for g in granules(addr, wend) {
                for &slot in &self.granule_blocks[g] {
                    if !self.candidates.contains(&slot) {
                        self.candidates.push(slot);
                    }
                }
            }
            let candidates = std::mem::take(&mut self.candidates);
            for &slot in &candidates {
                let overlaps = self.arena[slot as usize]
                    .as_ref()
                    .is_some_and(|b| u32::from(b.start) < wend && b.end > wstart);
                if overlaps {
                    self.remove_block(bus, slot);
                    self.blocks_invalidated += 1;
                }
            }
            self.candidates = candidates;
        }
        self.scratch = writes;
        self.scratch.clear();
        self.cursor = None;
        self.seen_gen = bus.code_watch_gen();
    }

    fn remove_block(&mut self, bus: &mut Bus, slot: u32) {
        if let Some(b) = self.arena[slot as usize].take() {
            self.starts[usize::from(b.start)] = NO_BLOCK;
            bus.code_watch_remove(b.start, b.end);
            for g in granules(b.start, b.end) {
                self.granule_blocks[g].retain(|&s| s != slot);
            }
            self.free.push(slot);
        }
    }
}

impl Default for BlockEngine {
    fn default() -> Self {
        BlockEngine::new()
    }
}

/// Granule index range covering `[start, end)`.
fn granules(start: u16, end: u32) -> std::ops::RangeInclusive<usize> {
    let g0 = usize::from(start) >> GRANULE_SHIFT;
    let g1 = ((end.max(u32::from(start) + 1) - 1) >> GRANULE_SHIFT) as usize;
    g0..=g1
}

/// Executes a decoded instruction through its pre-lowered dispatch (see
/// [`ExecPlan`]); the caller must have advanced the PC past the fetch.
#[inline]
fn exec_lowered(cpu: &mut Cpu, bus: &mut Bus, di: &crate::decode::DecodedInstr) -> SimResult<()> {
    match di.exec {
        ExecPlan::AluImm { op, size, v, dst } => cpu.exec_alu_reg(op, size, v, dst),
        ExecPlan::AluReg { op, size, src, dst } => {
            let v = cpu.reg(src);
            cpu.exec_alu_reg(op, size, v, dst)
        }
        ExecPlan::Alu { op, size, src, dst } => cpu.exec_alu(bus, op, size, src, dst),
        ExecPlan::Fmt2Reg { op, size, dst } => cpu.exec_fmt2_reg(op, size, dst),
        ExecPlan::Push { size, src } => cpu.exec_push(bus, size, src),
        ExecPlan::Call { src } => cpu.exec_call(bus, src),
        ExecPlan::Reti => cpu.exec_reti(bus),
        ExecPlan::Jmp { op, offset } => {
            cpu.exec_jump(op, offset);
            Ok(())
        }
        ExecPlan::Generic => cpu.exec_decoded(bus, &di.instr),
    }
}

/// Dispatches one decoded instruction per its plan. Mirrors the accounting
/// sequence of [`Cpu::step`]: fetch accounting first, PC advanced past the
/// fetch, execution, then instruction/cycle attribution — so an execution
/// fault leaves identical partial state.
#[inline]
fn exec_one(cpu: &mut Cpu, bus: &mut Bus, di: &crate::decode::DecodedInstr) -> SimResult<()> {
    match di.plan {
        Plan::SramPure => {
            // No bus access is possible during execution and SRAM fetches
            // touch no FRAM line, so contention bookkeeping is skipped
            // entirely (begin/end would observe an empty line set).
            bus.add_sram_ifetch(u64::from(di.words));
            cpu.set_pc(di.next_pc);
            exec_lowered(cpu, bus, di)?;
            bus.charge_instr(di.cat, di.cycles);
            Ok(())
        }
        Plan::SramFast => {
            bus.begin_instruction();
            bus.add_sram_ifetch(u64::from(di.words));
            cpu.set_pc(di.next_pc);
            exec_lowered(cpu, bus, di)?;
            bus.charge_instr(di.cat, di.cycles);
            bus.end_instruction();
            Ok(())
        }
        Plan::FramFast => {
            bus.begin_instruction();
            bus.account_fram_ifetch_words(di.pc, di.words);
            cpu.set_pc(di.next_pc);
            exec_lowered(cpu, bus, di)?;
            bus.charge_instr(di.cat, di.cycles);
            bus.end_instruction();
            Ok(())
        }
        Plan::Replay => {
            bus.begin_instruction();
            for i in 0..di.words {
                bus.account_ifetch(di.pc.wrapping_add(2 * u16::from(i)))?;
            }
            cpu.set_pc(di.next_pc);
            exec_lowered(cpu, bus, di)?;
            bus.charge_instr(di.cat, di.cycles);
            bus.end_instruction();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::Frequency;
    use crate::hwcache::HwCache;
    use crate::isa::{Instr, Opcode, Operand, Reg, Size};
    use crate::mem::{Bus, MemoryMap};

    fn setup(instrs: &[Instr], base: u16) -> (Cpu, Bus, BlockEngine) {
        load(MemoryMap::fr2355(), &[(base, instrs.to_vec())])
    }

    /// Loads each `(base, code)` segment; the PC starts at the first.
    fn load(map: MemoryMap, segments: &[(u16, Vec<Instr>)]) -> (Cpu, Bus, BlockEngine) {
        let mut bus = Bus::new(map, HwCache::fr2355(), Frequency::MHZ_8);
        bus.enable_code_watch();
        for (base, instrs) in segments {
            let mut at = *base;
            for i in instrs {
                for w in i.encode(at).unwrap() {
                    bus.poke_word(at, w);
                    at = at.wrapping_add(2);
                }
            }
        }
        let mut cpu = Cpu::new();
        cpu.set_pc(segments[0].0);
        cpu.set_sp(0x3000);
        let mut eng = BlockEngine::new();
        eng.reset(&mut bus);
        (cpu, bus, eng)
    }

    fn mov_imm(v: u16, r: Reg) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(v),
            dst: Operand::Reg(r),
        }
    }

    /// Interpreter and engine agree on a simple straight-line program,
    /// including every statistic.
    #[test]
    fn engine_matches_interpreter_stats() {
        let prog = [
            mov_imm(0x1234, Reg::R12),
            mov_imm(5, Reg::R13),
            Instr::FormatI {
                op: Opcode::Add,
                size: Size::Word,
                src: Operand::Reg(Reg::R12),
                dst: Operand::Reg(Reg::R13),
            },
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Reg(Reg::R13),
                dst: Operand::Absolute(0x2100),
            },
        ];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        let (mut c2, mut b2, _) = setup(&prog, 0x4000);
        for _ in 0..prog.len() {
            eng.step(&mut c1, &mut b1).unwrap();
            c2.step(&mut b2).unwrap();
        }
        assert_eq!(b1.stats(), b2.stats());
        assert_eq!(c1.pc(), c2.pc());
        assert_eq!(c1.reg(Reg::R13), c2.reg(Reg::R13));
        assert_eq!(b1.peek_word(0x2100), b2.peek_word(0x2100));
    }

    /// A store into the currently-executing block invalidates it, and the
    /// rewritten bytes are executed on the next pass — same as re-fetching.
    #[test]
    fn self_modifying_store_invalidates() {
        // MOV #<encoding of MOV #8,R14>, &0x4006 ; then the word at 0x4006
        // executes. First pass stores, so the second instruction executed
        // must be the *new* bytes. (#8 is a constant-generator immediate,
        // so the patched instruction is a single word.)
        let patch = mov_imm(8, Reg::R14).encode(0x4006).unwrap();
        assert_eq!(patch.len(), 1);
        let patch_word = patch[0];
        let prog = [
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(patch_word),
                dst: Operand::Absolute(0x4006),
            },
            // Placeholder at 0x4006 (1 word): MOV R12, R12 (a no-op).
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Reg(Reg::R12),
                dst: Operand::Reg(Reg::R12),
            },
        ];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        // Warm the cache over both instructions, then rewind and re-run.
        let entry_invalidated = eng.blocks_invalidated();
        eng.step(&mut c1, &mut b1).unwrap(); // performs the store
        eng.step(&mut c1, &mut b1).unwrap(); // must execute the NEW word
        assert_eq!(c1.reg(Reg::R14), 8, "rewritten instruction must execute");
        assert!(eng.blocks_invalidated() > entry_invalidated);
    }

    /// Delegation: stepping at an undecodable PC behaves exactly like the
    /// interpreter (same error).
    #[test]
    fn undecodable_pc_delegates_with_identical_error() {
        let (mut c1, mut b1, mut eng) = setup(&[], 0x0000); // unmapped
        let (mut c2, mut b2, _) = setup(&[], 0x0000);
        let e1 = eng.step(&mut c1, &mut b1).unwrap_err();
        let e2 = c2.step(&mut b2).unwrap_err();
        assert_eq!(e1, e2);
        assert!(eng.delegated() >= 1);
    }

    /// Bit flips in cached code take effect (fault-injection path).
    #[test]
    fn flip_bit_in_cached_block_invalidates() {
        let prog = [mov_imm(1, Reg::R12), mov_imm(2, Reg::R13)];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        eng.step(&mut c1, &mut b1).unwrap();
        assert!(eng.blocks_built() >= 1);
        // Flip a bit inside the block's second instruction (both MOVs use
        // constant-generator immediates, so they are one word each).
        b1.flip_bit(0x4002, 0);
        let inv = eng.blocks_invalidated();
        c1.set_pc(0x4000);
        eng.step(&mut c1, &mut b1).unwrap();
        assert!(eng.blocks_invalidated() > inv, "flip must invalidate the block");
    }

    /// Batch limit of the chaining tests: far beyond what their programs
    /// need, so a chain that fails to stop ends here instead of spinning.
    const LIMIT: u64 = 10_000;

    fn reg_op(op: Opcode, src: Reg, dst: Reg) -> Instr {
        Instr::FormatI {
            op,
            size: Size::Word,
            src: Operand::Reg(src),
            dst: Operand::Reg(dst),
        }
    }

    /// `op` at `from` jumping to `to`.
    fn jump(op: Opcode, from: u16, to: u16) -> Instr {
        Instr::Jump {
            op,
            offset_words: (to.wrapping_sub(from + 2) as i16) / 2,
        }
    }

    /// `BR #to`.
    fn branch(to: u16) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(to),
            dst: Operand::Reg(Reg::PC),
        }
    }

    fn retired(bus: &Bus) -> u64 {
        bus.stats().instructions.iter().sum()
    }

    /// Steps the interpreter (`c2`, `b2`, loaded like the engine's machine)
    /// one instruction at a time until it has retired as many
    /// instructions as the engine, then asserts identical statistics and
    /// register files.
    fn assert_interp_agrees(c1: &Cpu, b1: &Bus, c2: &mut Cpu, b2: &mut Bus) {
        while retired(b2) < retired(b1) {
            c2.step(b2).unwrap();
        }
        assert_eq!(b1.stats(), b2.stats());
        let regs = |c: &Cpu| (0..16).map(|n| c.reg(Reg::r(n))).collect::<Vec<_>>();
        assert_eq!(regs(c1), regs(c2));
    }

    /// One batch follows a taken jump into the next block.
    #[test]
    fn batch_chains_across_a_taken_jump() {
        // Block A jumps over one word into block B, which leaves for the
        // trap window.
        let prog = vec![
            (
                0x4000,
                vec![
                    mov_imm(1, Reg::R12),
                    jump(Opcode::Jmp, 0x4002, 0x4006),
                    mov_imm(2, Reg::R13),
                ],
            ),
            (0x4006, vec![mov_imm(4, Reg::R14), branch(0x0F00)]),
        ];
        let (mut c1, mut b1, mut eng) = load(MemoryMap::fr2355(), &prog);
        eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
        assert_eq!(c1.reg(Reg::R14), 4, "the second block ran in the same call");
        assert_eq!(c1.reg(Reg::R13), 0, "the jumped-over word did not");
        assert_eq!(eng.blocks_built(), 2);
        let (mut c2, mut b2, _) = load(MemoryMap::fr2355(), &prog);
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
    }

    /// The chain stops with the PC on a trap-window address, even when
    /// the window lies over decodable FRAM code (so a block could be
    /// built there): the runtime hook, not the engine, runs next.
    #[test]
    fn batch_stops_on_the_trap_window() {
        let map = MemoryMap {
            trap: crate::mem::AddrRange::new(0x4100, 0x4200),
            ..MemoryMap::fr2355()
        };
        let prog = vec![
            (0x4000, vec![mov_imm(1, Reg::R12), branch(0x4100)]),
            (
                0x4100,
                vec![mov_imm(8, Reg::R15), jump(Opcode::Jmp, 0x4102, 0x4102)],
            ),
        ];
        let (mut c1, mut b1, mut eng) = load(map, &prog);
        eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
        assert_eq!(c1.pc(), 0x4100);
        assert_eq!(c1.reg(Reg::R15), 0, "nothing in the trap window executed");
        assert_eq!((eng.blocks_built(), eng.delegated()), (1, 0));
        let (mut c2, mut b2, _) = load(map, &prog);
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
    }

    /// The chain stops right after a `reti`, so the run loop reports the
    /// interrupt-return boundary before the resumed code runs.
    #[test]
    fn batch_stops_after_reti() {
        let reti = Instr::FormatII {
            op: Opcode::Reti,
            size: Size::Word,
            dst: Operand::Reg(Reg::CG),
        };
        let prog = vec![
            (0x4000, vec![mov_imm(1, Reg::R12), reti]),
            (0x4010, vec![mov_imm(2, Reg::R13), branch(0x0F00)]),
        ];
        // An interrupt frame on the stack: SR below the return address.
        let frame = |c: &mut Cpu, b: &mut Bus| {
            c.set_sp(0x2FFC);
            b.poke_word(0x2FFC, 0);
            b.poke_word(0x2FFE, 0x4010);
        };
        let (mut c1, mut b1, mut eng) = load(MemoryMap::fr2355(), &prog);
        let (mut c2, mut b2, _) = load(MemoryMap::fr2355(), &prog);
        frame(&mut c1, &mut b1);
        frame(&mut c2, &mut b2);
        eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
        assert_eq!((c1.pc(), c1.sp(), c1.reg(Reg::R13)), (0x4010, 0x3000, 0));
        assert!(b1.take_reti());
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
        eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
        assert_eq!((c1.pc(), c1.reg(Reg::R13)), (0x0F00, 2));
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
    }

    /// The chain stops before a block whose worst case could reach the
    /// limit, and the next call steps that block exactly to the first
    /// instruction boundary at or past the limit.
    #[test]
    fn batch_stops_before_a_block_that_could_reach_the_limit() {
        let mut b = vec![reg_op(Opcode::Add, Reg::R12, Reg::R13); 16];
        b.push(branch(0x0F00));
        let prog = vec![
            (
                0x4000,
                vec![mov_imm(1, Reg::R12), jump(Opcode::Jmp, 0x4002, 0x4010)],
            ),
            (0x4010, b),
        ];
        let (mut c1, mut b1, mut eng) = load(MemoryMap::fr2355(), &prog);
        let (mut c2, mut b2, _) = load(MemoryMap::fr2355(), &prog);
        // Cycles of block A, and the worst-case bounds of both blocks.
        c2.step(&mut b2).unwrap();
        c2.step(&mut b2).unwrap();
        let cycles_a = b2.stats().total_cycles();
        let worst_a = build_block(&b1, 0x4000).unwrap().instrs[0].worst_suffix;
        let worst_b = build_block(&b1, 0x4010).unwrap().instrs[0].worst_suffix;
        let limit = cycles_a + 8;
        assert!(u64::from(worst_a) < limit, "block A runs on the fast path");
        assert!(
            cycles_a + u64::from(worst_b) >= limit,
            "block B could reach the limit"
        );

        eng.step_batched(&mut c1, &mut b1, limit).unwrap();
        assert_eq!(c1.pc(), 0x4010, "stopped at block B's start");
        assert_eq!(b1.stats().total_cycles(), cycles_a);
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);

        eng.step_batched(&mut c1, &mut b1, limit).unwrap();
        while b2.stats().total_cycles() < limit {
            c2.step(&mut b2).unwrap();
        }
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
        assert_eq!(
            retired(&b1),
            retired(&b2),
            "first boundary at or past the limit"
        );
    }

    /// A store in a later block of the chain rewrites an earlier block;
    /// the chain stops at the store, and when it loops back the new bytes
    /// execute.
    #[test]
    fn chained_store_into_an_earlier_block_executes_the_new_bytes() {
        let patch = mov_imm(8, Reg::R14).encode(0x4000).unwrap();
        assert_eq!(patch.len(), 1);
        let store = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(patch[0]),
            dst: Operand::Absolute(0x4000),
        };
        let prog = vec![
            // A: placeholder no-op (patched to `MOV #8, R14`), then to B.
            (
                0x4000,
                vec![
                    reg_op(Opcode::Mov, Reg::R12, Reg::R12),
                    jump(Opcode::Jmp, 0x4002, 0x4010),
                ],
            ),
            // B: count passes; the second pass leaves, the first patches A
            // (3-word store at 0x4016) and loops back to it.
            (
                0x4010,
                vec![
                    mov_imm(1, Reg::R12),
                    reg_op(Opcode::Add, Reg::R12, Reg::R15),
                    jump(Opcode::Jz, 0x4014, 0x4040),
                    store,
                    jump(Opcode::Jmp, 0x401C, 0x4000),
                ],
            ),
            (0x4040, vec![branch(0x0F00)]),
        ];
        // R15 = -2: the second pass's ADD reaches zero.
        let (mut c1, mut b1, mut eng) = load(MemoryMap::fr2355(), &prog);
        let (mut c2, mut b2, _) = load(MemoryMap::fr2355(), &prog);
        c1.set_reg(Reg::R15, 0xFFFE);
        c2.set_reg(Reg::R15, 0xFFFE);
        eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
        assert_eq!(
            c1.pc(),
            0x401C,
            "the barrier stops the chain right after the store"
        );
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
        let mut calls = 0;
        while c1.pc() != 0x0F00 {
            eng.step_batched(&mut c1, &mut b1, LIMIT).unwrap();
            calls += 1;
            assert!(calls < 8, "runaway");
        }
        assert_eq!(c1.reg(Reg::R14), 8, "rewritten instruction must execute");
        assert!(eng.blocks_invalidated() >= 1);
        assert_interp_agrees(&c1, &b1, &mut c2, &mut b2);
    }
}
