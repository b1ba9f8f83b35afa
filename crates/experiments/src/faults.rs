//! Fault suites: SwapRAM's crash consistency (paper §3.3), metadata
//! integrity and reentrancy under injected faults, all run by one
//! episode executor (`Episode::run`).
//!
//! A power loss clears SRAM (the software cache) and registers; FRAM
//! persists. The episode restores the application's FRAM image, so that
//! it tests the caching runtime's crash consistency and nothing else. The
//! `srtab` metadata and the `srres` resume area keep whatever torn state
//! the loss left, which [`SwapRuntime::recover`] (or
//! [`SwapRuntime::recover_resume`] under persistent stack) must repair.
//!
//! Each suite is a matrix, a seed derivation, a classifier, a contract
//! and a render table:
//!
//! * **resilience**: seeded power losses; every episode survives correct.
//! * **corruption**: seeded bit flips in metadata, cached code and app
//!   data; no metadata flip is silently wrong.
//! * **concurrency**: seeded timer interrupts, plus one inside the first
//!   open miss's funcId publish window, and preemptive tasks under both
//!   ISR protocols, with composed losses and flips; Masked episodes
//!   are correct or detectably rejected, and Unprotected ones surface a
//!   detected hazard.
//! * **intermittent**: harvested-energy traces on four density tiers;
//!   nothing is silently wrong, and persistent stack completes the
//!   flip-free single-task dense tier that replay cannot.
//!
//! Rows hold no wall-clock, so identical seeds give byte-identical report
//! sections for any `SWAPRAM_JOBS`. Campaign cells with a fault schedule
//! also run through the executor (`power_loss_episode`).

use crate::harness::Harness;
use crate::json::Json;
use crate::measure::{MeasureError, SEED};
use crate::report::Table;
use mibench::builder::{sanitizer_for, Built, MemoryProfile, Program, SwapHandle, System};
use mibench::{input_for, Benchmark};
use msp430_sim::cpu::{Cpu, FLAG_GIE};
use msp430_sim::error::SimResult;
use msp430_sim::fault::{
    EnergyShape, EnergyTrace, FaultEvent, FaultKind, FaultPlan, RECORDED_PROFILE,
};
use msp430_sim::freq::Frequency;
use msp430_sim::irq::{IrqSchedule, IrqTimer};
use msp430_sim::machine::{ExitReason, Fr2355, Hook, IrqBoundary, Machine, TrapAction};
use msp430_sim::mem::Bus;
use msp430_sim::rng::SplitMix64;
use std::cell::Cell;
use std::rc::Rc;
use swapram::tables::TABLES_SECTION;
use swapram::{Instrumented, IsrProtocol, RecoveryMode, SwapConfig, SwapRuntime, SwapStats};

// --- Seeds and names -------------------------------------------------------

/// Environment variable overriding the base fault seed.
pub const FAULT_SEED_ENV: &str = "SWAPRAM_FAULT_SEED";

/// Default base seed when [`FAULT_SEED_ENV`] is unset.
pub const DEFAULT_FAULT_SEED: u64 = 0xF00D;

/// Parses a `SWAPRAM_FAULT_SEED` value. Garbage is a hard error: a
/// silently defaulted seed would run another fault matrix than asked for.
///
/// # Errors
///
/// A human-readable description of the rejected value.
pub fn parse_fault_seed(raw: &str) -> Result<u64, String> {
    let t = raw.trim();
    t.parse::<u64>()
        .map_err(|_| format!("{FAULT_SEED_ENV} must be an unsigned 64-bit integer, got {t:?}"))
}

/// Base fault seed: [`parse_fault_seed`] of `SWAPRAM_FAULT_SEED` if set,
/// else [`DEFAULT_FAULT_SEED`].
///
/// # Errors
///
/// See [`parse_fault_seed`]; an unset variable is not an error, a
/// non-Unicode one is.
pub fn base_seed() -> Result<u64, String> {
    match std::env::var(FAULT_SEED_ENV) {
        Ok(v) => parse_fault_seed(&v),
        Err(std::env::VarError::NotPresent) => Ok(DEFAULT_FAULT_SEED),
        Err(e) => Err(format!("{FAULT_SEED_ENV}: {e}")),
    }
}

/// The deterministic JSON/report name of a recovery protocol.
pub fn recovery_name(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::FullScan => "full-scan",
        RecoveryMode::DirtyLog => "dirty-log",
        RecoveryMode::PersistentStack => "persistent-stack",
    }
}

fn protocol_name(protocol: IsrProtocol) -> &'static str {
    match protocol {
        IsrProtocol::Masked => "masked",
        IsrProtocol::Unprotected => "unprotected",
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds name bytes into a seed tag (`tag * 31 + byte`).
fn name_tag(names: &[&str]) -> u64 {
    let fold = |t: u64, b: u8| t.wrapping_mul(31).wrapping_add(u64::from(b));
    names.iter().flat_map(|n| n.bytes()).fold(0, fold)
}

// --- Rows and outcomes -----------------------------------------------------

/// How an episode ended. One label table serves every suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Clean halt, wrong checksum, no detection channel fired — the one
    /// outcome the defense stack exists to prevent.
    SilentWrong,
    /// The interrupt-boundary invariant oracle rejected runtime state.
    InvariantViolation,
    /// A typed error (sanitizer trap, degradation error, failed recovery)
    /// stopped the episode — detected, not executed through.
    DetectedError,
    /// The cycle budget or boot cap ran out (starvation or livelock).
    CycleLimit,
    /// Correct halt after the guards repaired a clobbered metadata word.
    GuardRepaired,
    /// Correct halt with nothing to repair.
    Clean,
    /// Corruption: the flip never influenced the run.
    Masked,
    /// Corruption: detected, repaired from FRAM, oracle checksum.
    Repaired,
    /// Corruption: detected, and the run visibly failed or degraded.
    Degraded,
}

impl Outcome {
    /// Stable row/report label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::SilentWrong => "silent-wrong",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::DetectedError => "detected-error",
            Outcome::CycleLimit => "cycle-limit",
            Outcome::GuardRepaired => "guard-repaired",
            Outcome::Clean => "clean",
            Outcome::Masked => "masked",
            Outcome::Repaired => "detected-repaired",
            Outcome::Degraded => "detected-degraded",
        }
    }
}

/// Which memory region a corruption flip targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipRegion {
    /// The `srtab` metadata tables in FRAM.
    Metadata,
    /// The SRAM cache window.
    CachedCode,
    /// The benchmark's data section.
    AppData,
}

impl FlipRegion {
    /// All regions, in reporting order.
    pub const ALL: [FlipRegion; 3] =
        [FlipRegion::Metadata, FlipRegion::CachedCode, FlipRegion::AppData];

    /// Stable row/report label.
    pub fn name(self) -> &'static str {
        match self {
            FlipRegion::Metadata => "metadata",
            FlipRegion::CachedCode => "cached-code",
            FlipRegion::AppData => "app-data",
        }
    }
}

/// Intermittent loss-density tier: how much energy each boot harvests
/// relative to the uninterrupted run, and which supply shape delivers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Solar, mean budget 3x the clean run: every protocol completes.
    Sparse,
    /// RC-charged capacitor, a quarter of the clean run per boot: replay
    /// is below its completion threshold, checkpointing accumulates.
    Dense,
    /// Ambient RF, a sixteenth of the clean run: still below replay's
    /// threshold.
    Storm,
    /// A recorded bursty indoor-light trace with a ~600-cycle budget,
    /// barely past the cost of recovery. Nothing completes; where the
    /// dying gasp cannot checkpoint (multitask stacks) the watchdog must
    /// flag the livelock.
    Famine,
}

impl Tier {
    /// Every tier, gentlest first.
    pub const ALL: [Tier; 4] = [Tier::Sparse, Tier::Dense, Tier::Storm, Tier::Famine];

    /// The fast (CI) subset: drops the slow storm tier.
    pub const FAST: [Tier; 3] = [Tier::Sparse, Tier::Dense, Tier::Famine];

    /// The densest tier on which persistent-stack checkpointing must
    /// still complete (and replay must not).
    pub const DENSEST_COMPLETABLE: Tier = Tier::Storm;

    /// Short label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Sparse => "sparse",
            Tier::Dense => "dense",
            Tier::Storm => "storm",
            Tier::Famine => "famine",
        }
    }

    /// How the tier harvests for a benchmark whose clean run takes `clean`
    /// cycles: the supply shape, the mean per-boot energy budget, the
    /// cumulative-cycle horizon the trace schedules losses over (a protocol
    /// unfinished by then was starved, not unlucky), and the boot cap that
    /// ends reboot livelocks deterministically.
    pub fn harvest(self, clean: u64) -> (EnergyShape, u64, u64, u32) {
        let long = clean.saturating_mul(20) + 2_000_000;
        match self {
            Tier::Sparse => (
                EnergyShape::Solar,
                clean.saturating_mul(3),
                clean.saturating_mul(8) + 1_000_000,
                64,
            ),
            Tier::Dense => (EnergyShape::RcCharge, (clean / 4).max(2_000), long, 256),
            Tier::Storm => (EnergyShape::Rf, (clean / 16).max(1_000), long, 384),
            Tier::Famine => (EnergyShape::Recorded(RECORDED_PROFILE.to_vec()), 600, 120_000, 48),
        }
    }
}

/// One episode of any suite. The suite sets the identity columns, the
/// executor fills in how the episode went, and each suite publishes its
/// own columns (see [`section_json`]).
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Recovery protocol of the runtime.
    pub recovery: RecoveryMode,
    /// Critical-section protocol of the runtime.
    pub protocol: IsrProtocol,
    /// Corruption: the flipped region.
    pub region: Option<FlipRegion>,
    /// Intermittent: the loss-density tier.
    pub tier: Option<Tier>,
    /// Episode seed.
    pub seed: u64,
    /// Corruption: flipped byte address, bit index and firing cycle.
    pub flip: (u16, u8, u64),
    /// A metadata bit flip was composed into the episode.
    pub bit_flip: bool,
    /// Power losses the schedule injects.
    pub losses: u32,
    /// Boots taken (1 + reboots).
    pub boots: u32,
    /// Interrupts delivered across all boots.
    pub irq_delivered: u64,
    /// Interrupts coalesced while one was already pending.
    pub irq_coalesced: u64,
    /// Runtime counters summed over every boot.
    pub swap: SwapStats,
    /// The episode halted cleanly within its caps.
    pub survived: bool,
    /// Final checksum matched the benchmark oracle.
    pub correct: bool,
    /// Cycles of the uninterrupted reference run (same build).
    pub clean_cycles: u64,
    /// Cumulative cycles across all boots, including replayed work.
    pub total_cycles: u64,
    /// Episode classification.
    pub outcome: Outcome,
    /// Typed error, non-halt exit, cap or audit finding, if any.
    pub error: Option<String>,
}

impl FaultRow {
    /// A row template with every executor-filled column at its start value.
    pub fn new(bench: Benchmark, seed: u64, clean_cycles: u64) -> FaultRow {
        FaultRow {
            bench,
            recovery: RecoveryMode::FullScan,
            protocol: IsrProtocol::Masked,
            region: None,
            tier: None,
            seed,
            flip: (0, 0, 0),
            bit_flip: false,
            losses: 0,
            boots: 1,
            irq_delivered: 0,
            irq_coalesced: 0,
            swap: SwapStats::default(),
            survived: false,
            correct: false,
            clean_cycles,
            total_cycles: 0,
            outcome: Outcome::DetectedError,
            error: None,
        }
    }

    /// Replay + recovery overhead relative to the uninterrupted run.
    pub fn overhead_pct(&self) -> f64 {
        if self.clean_cycles == 0 {
            return 0.0;
        }
        (self.total_cycles as f64 / self.clean_cycles as f64 - 1.0) * 100.0
    }

    /// Useful cycles per boot: oracle-checked completed work divided by
    /// the boots it took — zero when the episode never completed.
    pub fn useful_cycles_per_boot(&self) -> f64 {
        if self.survived && self.correct && self.boots > 0 {
            self.clean_cycles as f64 / f64::from(self.boots)
        } else {
            0.0
        }
    }

    /// The Masked reentrancy contract: halt with the oracle checksum or,
    /// when a metadata flip was composed in, be *detectably* rejected —
    /// never silently wrong and never off the cycle budget.
    pub fn masked_ok(&self) -> bool {
        (self.survived && self.correct)
            || (self.bit_flip
                && matches!(self.outcome, Outcome::InvariantViolation | Outcome::DetectedError))
    }

    /// Whether the defense stack surfaced a hazard on this episode (any
    /// non-clean classification except guard bookkeeping from a composed
    /// bit flip).
    pub fn hazard_detected(&self) -> bool {
        self.swap.fid_repairs > 0
            || matches!(
                self.outcome,
                Outcome::InvariantViolation | Outcome::DetectedError | Outcome::CycleLimit
            )
            || (self.swap.guard_repairs > 0 && !self.bit_flip)
    }

    fn fail(&mut self, msg: String) {
        self.outcome = if msg.contains("invariant violation") {
            Outcome::InvariantViolation
        } else {
            Outcome::DetectedError
        };
        self.error = Some(msg);
    }

    fn label(&self) -> String {
        format!("{} seed {:#x} ({})", self.bench.name(), self.seed, recovery_name(self.recovery))
    }
}

// --- The episode executor --------------------------------------------------

/// Everything one episode runs under: where the suites differ, they set
/// a field here.
pub(crate) struct Episode<'a> {
    /// The SwapRAM build.
    pub built: &'a Built,
    /// The runtime configuration (recovery and ISR protocol included).
    pub cfg: &'a SwapConfig,
    /// Operating point.
    pub freq: Frequency,
    /// Power losses and bit flips.
    pub faults: FaultPlan,
    /// Cumulative-cycle budget.
    pub cycle_budget: u64,
    /// Timer-interrupt schedule on the build's ISR vector, if any.
    pub irq: Option<IrqSchedule>,
    /// Attach the execution sanitizer on every boot.
    pub sanitize: bool,
    /// A power loss after this many boots ends the episode.
    pub boot_cap: u32,
    /// Cross-validate the metadata against the FRAM image after a clean
    /// halt ([`swapram::invariants::audit_final`]).
    pub audit_final: bool,
}

impl<'a> Episode<'a> {
    /// An episode with no interrupts, no sanitizer, no boot cap and no
    /// final audit.
    pub(crate) fn new(
        built: &'a Built,
        cfg: &'a SwapConfig,
        freq: Frequency,
        faults: FaultPlan,
        cycle_budget: u64,
    ) -> Self {
        let (irq, sanitize, boot_cap, audit_final) = (None, false, u32::MAX, false);
        Episode { built, cfg, freq, faults, cycle_budget, irq, sanitize, boot_cap, audit_final }
    }

    /// Runs the episode: boot, run until halt or power loss, reboot
    /// (recover, or resume under persistent stack), repeat until the
    /// program halts or a cap is hit. Fills the outcome columns of `row`;
    /// a halted row is [`Outcome::Clean`] or [`Outcome::SilentWrong`]
    /// until the suite's classifier refines it.
    pub(crate) fn run(&self, mut row: FaultRow) -> FaultRow {
        row.recovery = self.cfg.recovery;
        row.protocol = self.cfg.isr_protocol;
        let Program::Swap(inst, _) = &self.built.program else {
            row.error = Some("fault episodes require a SwapRAM build".into());
            return row;
        };
        let input = input_for(row.bench, SEED);
        let mut machine = self.power_on(&input);
        let mut handles = Vec::new();
        self.attach(&mut machine, inst, SwapRuntime::new(inst, self.cfg.clone()), &mut handles);

        loop {
            let out = match machine.run(self.cycle_budget) {
                Ok(out) => out,
                Err(e) => {
                    row.fail(e.to_string());
                    break;
                }
            };
            row.total_cycles = out.stats.total_cycles();
            row.irq_delivered = out.stats.irq_delivered;
            row.irq_coalesced = out.stats.irq_coalesced;
            match out.exit {
                ExitReason::Halted(0) => {
                    row.survived = true;
                    row.correct = out.checksum.0 == row.bench.oracle_checksum(&input);
                    row.outcome = if row.correct { Outcome::Clean } else { Outcome::SilentWrong };
                    if self.audit_final {
                        row.error = final_audit(&mut machine).err();
                    }
                    break;
                }
                ExitReason::PowerLoss if row.boots >= self.boot_cap => {
                    row.outcome = Outcome::CycleLimit;
                    row.error = Some(format!("boot cap {} reached", self.boot_cap));
                    break;
                }
                ExitReason::PowerLoss => {
                    row.boots += 1;
                    machine.power_cycle();
                    self.arm_sanitizer(&mut machine);
                    let mut rt = SwapRuntime::new(inst, self.cfg.clone());
                    let resumed = if self.cfg.recovery == RecoveryMode::PersistentStack {
                        let (cpu, bus) = machine.cpu_bus_mut();
                        rt.recover_resume(cpu, bus).map(|o| o.resumed)
                    } else {
                        rt.recover(machine.bus_mut()).map(|_| false)
                    };
                    match resumed {
                        // Nothing resumed: replay from the entry point on
                        // a re-initialized application image.
                        Ok(false) => poke_app_state(&mut machine, self.built, &input, true),
                        Ok(true) => {}
                        Err(e) => {
                            row.fail(format!("recovery failed: {e}"));
                            break;
                        }
                    }
                    self.attach(&mut machine, inst, rt, &mut handles);
                }
                ExitReason::CycleLimit => {
                    row.outcome = Outcome::CycleLimit;
                    row.error = Some(MeasureError::CycleLimit(row.total_cycles).to_string());
                    break;
                }
                other => {
                    row.outcome = Outcome::DetectedError;
                    row.error = Some(format!("{other:?}"));
                    break;
                }
            }
        }
        for handle in handles {
            row.swap += &*handle.borrow();
        }
        row
    }

    /// The cycle at which the first boot's first cache miss traps with
    /// interrupts enabled, or `None` if the boot ends without one. An
    /// interrupt fired then is pending as the miss handler starts: it
    /// runs inside that call's funcId publish window.
    pub(crate) fn first_open_miss(&self, bench: Benchmark) -> Option<u64> {
        let Program::Swap(inst, _) = &self.built.program else { return None };
        let mut machine = self.power_on(&input_for(bench, SEED));
        let rt = SwapRuntime::new(inst, self.cfg.clone());
        self.attach(&mut machine, inst, rt, &mut Vec::new());
        let at = Rc::new(Cell::new(None));
        let inner = machine.take_hook()?;
        machine.attach_hook(Box::new(OpenMissProbe { inner, at: Rc::clone(&at) }));
        machine.run(self.cycle_budget).ok()?;
        at.get()
    }

    /// A machine at power-on: image, application state, timer, fault
    /// plan and sanitizer. The caller attaches the runtime.
    fn power_on(&self, input: &[u8]) -> Machine {
        let mut machine = Fr2355::machine(self.freq);
        machine.load(self.built.image());
        poke_app_state(&mut machine, self.built, input, false);
        if let Some(schedule) = &self.irq {
            let irq = self.built.irq.expect("interrupt episodes need a build with an ISR vector");
            machine.bus_mut().attach_timer(IrqTimer::new(schedule.clone(), irq.vector));
        }
        machine.attach_fault_plan(self.faults.clone());
        self.arm_sanitizer(&mut machine);
        machine
    }

    fn arm_sanitizer(&self, machine: &mut Machine) {
        if self.sanitize {
            if let Some(cfg) = sanitizer_for(self.built) {
                machine.bus_mut().attach_sanitizer(cfg);
            }
        }
    }

    /// Attaches a runtime, registering the scheduler's task table under
    /// the Masked protocol when the benchmark has one.
    fn attach(
        &self,
        machine: &mut Machine,
        inst: &Instrumented,
        mut rt: SwapRuntime,
        handles: &mut Vec<SwapHandle>,
    ) {
        if self.cfg.isr_protocol == IsrProtocol::Masked {
            if let Some(tcb0) = inst.assembly.symbol("__tcb0") {
                rt.set_task_table(tcb0, 2);
            }
        }
        handles.push(rt.stats_handle());
        machine.attach_hook(Box::new(rt));
    }
}

/// Wraps the runtime for [`Episode::first_open_miss`]: records the cycle
/// of the first trap taken with `GIE` set and halts there.
struct OpenMissProbe {
    inner: Box<dyn Hook>,
    at: Rc<Cell<Option<u64>>>,
}

impl Hook for OpenMissProbe {
    fn on_trap(&mut self, cpu: &mut Cpu, bus: &mut Bus, pc: u16) -> SimResult<TrapAction> {
        if cpu.sr() & FLAG_GIE == 0 {
            return self.inner.on_trap(cpu, bus, pc);
        }
        self.at.set(Some(bus.stats().total_cycles()));
        Ok(TrapAction::Halt(0))
    }

    fn on_interrupt_boundary(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        boundary: IrqBoundary,
    ) -> SimResult<()> {
        self.inner.on_interrupt_boundary(cpu, bus, boundary)
    }

    fn on_power_failing(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<()> {
        self.inner.on_power_failing(cpu, bus)
    }
}

/// (Re)initializes application state: the input and corpus buffers and,
/// on reboot (`skip_metadata`), every image segment except the `srtab`
/// tables and the `srres` resume area, which keep what the loss left.
fn poke_app_state(machine: &mut Machine, built: &Built, input: &[u8], skip_metadata: bool) {
    let (tables_base, resume_base) = match &built.program {
        Program::Swap(_, cfg) => (cfg.tables_base, cfg.resume_base),
        _ => (0, 0),
    };
    let mut poke = |base: u16, bytes: &[u8]| {
        for (i, b) in bytes.iter().enumerate() {
            machine.bus_mut().poke_byte(base.wrapping_add(i as u16), *b);
        }
    };
    if skip_metadata {
        for seg in &built.image().segments {
            if seg.addr != tables_base && seg.addr != resume_base {
                poke(seg.addr, &seg.bytes);
            }
        }
    }
    poke(built.input_addr, input);
    if let Some(base) = built.corpus_addr {
        poke(base, mibench::corpus::text());
    }
}

/// End-of-run metadata audit: recovers the [`SwapRuntime`] from the
/// machine hook and cross-validates every metadata word, active counter
/// and live SRAM copy against the immutable FRAM image.
fn final_audit(machine: &mut Machine) -> Result<(), String> {
    let hook = machine.take_hook().ok_or_else(|| "no runtime hook attached".to_string())?;
    let rt = hook
        .as_any()
        .and_then(|a| a.downcast_ref::<SwapRuntime>())
        .ok_or_else(|| "hook is not a SwapRuntime".to_string())?;
    swapram::invariants::audit_final(rt, machine.bus())
}

/// `[lo, hi)` of a named non-empty section of a SwapRAM build.
fn section_range(built: &Built, name: &str) -> (u16, u32) {
    let Program::Swap(inst, _) = &built.program else { unreachable!("fault suites build SwapRAM") };
    inst.assembly
        .sections
        .iter()
        .find(|(n, _, size)| n == name && *size > 0)
        .map(|(_, base, size)| (*base, u32::from(*base) + u32::from(*size)))
        .unwrap_or_else(|| panic!("build lacks a non-empty `{name}` section"))
}

/// A seeded byte address in `[lo, hi)` and bit index to flip.
fn flip_target(rng: &mut SplitMix64, (lo, hi): (u16, u32)) -> (u16, u8) {
    let addr = lo.wrapping_add(rng.below(u64::from(hi - u32::from(lo))) as u16);
    (addr, rng.below(8) as u8)
}

fn bit_flip(cycle: u64, (addr, bit): (u16, u8)) -> FaultEvent {
    FaultEvent { cycle, kind: FaultKind::BitFlip { addr, bit } }
}

/// The clean reference run of `system` (tagged `tag` in the report's
/// `runs`), which must match its oracle. Returns its cycles.
fn clean_cycles(h: &Harness, tag: &'static str, bench: Benchmark, system: &System) -> u64 {
    let clean = h
        .measure(tag, bench, system, &MemoryProfile::unified(), Frequency::MHZ_24)
        .unwrap_or_else(|e| panic!("{} clean run failed: {e}", bench.name()));
    assert!(clean.correct, "{} clean run must match its oracle", bench.name());
    clean.total_cycles()
}

/// Runs `episode` over a suite's matrix on the harness worker pool and
/// registers the rows as the report section `name`.
fn run_matrix(
    h: &Harness,
    name: &'static str,
    columns: &[&'static str],
    items: Vec<(System, FaultRow)>,
    episode: impl Fn(&Built, &SwapConfig, FaultRow) -> FaultRow + Sync,
) -> Vec<FaultRow> {
    let profile = MemoryProfile::unified();
    let rows = h.parallel_map(items, |(system, row)| {
        let built = h.build(row.bench, &system, &profile);
        let built = built.as_ref().as_ref().expect("SwapRAM build fits");
        let Program::Swap(_, cfg) = &built.program else { unreachable!("SwapRAM build") };
        episode(built, cfg, row)
    });
    h.add_section(name, section_json(&rows, columns));
    rows
}

// --- The section serializer and the render table ---------------------------

/// Serializes rows as a report section with the given columns, in order.
/// `error` / `detail` are written only when the row has one.
pub fn section_json(rows: &[FaultRow], columns: &[&'static str]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::obj(columns.iter().filter_map(|&c| Some((c, field(r, c)?))).collect()))
            .collect(),
    )
}

fn field(r: &FaultRow, column: &str) -> Option<Json> {
    let s = &r.swap;
    Some(match column {
        "bench" => Json::str(r.bench.name()),
        "recovery" => Json::str(recovery_name(r.recovery)),
        "protocol" => Json::str(protocol_name(r.protocol)),
        "region" => Json::str(r.region.map_or("", FlipRegion::name)),
        "tier" => Json::str(r.tier.map_or("", Tier::name)),
        "outcome" => Json::str(r.outcome.name()),
        "error" | "detail" => return r.error.clone().map(Json::str),
        "power_loss" => Json::Bool(r.losses > 0),
        "bit_flip" => Json::Bool(r.bit_flip),
        "survived" => Json::Bool(r.survived),
        "correct" => Json::Bool(r.correct),
        "overhead_pct" => Json::F64(r.overhead_pct()),
        "useful_cycles_per_boot" => Json::F64(r.useful_cycles_per_boot()),
        _ => Json::U64(match column {
            "seed" => r.seed,
            "budget" => r.tier.map_or(0, |t| t.harvest(r.clean_cycles).1),
            "addr" => u64::from(r.flip.0),
            "bit" => u64::from(r.flip.1),
            "cycle" => r.flip.2,
            "losses" => u64::from(r.losses),
            "boots" => u64::from(r.boots),
            "irq_delivered" => r.irq_delivered,
            "irq_coalesced" => r.irq_coalesced,
            "clean_cycles" => r.clean_cycles,
            "total_cycles" => r.total_cycles,
            "recovered_functions" => s.recovered_functions,
            "degraded" => s.degraded,
            "journal_appends" => s.journal_appends,
            "journal_fallbacks" => s.journal_fallbacks,
            "guard_repairs" => s.guard_repairs,
            "guard_degraded" => s.guard_degraded,
            "isr_yields" => s.isr_yields,
            "boundary_checks" => s.boundary_checks,
            "fid_repairs" => s.fid_repairs,
            "resumes" => s.resumes,
            "checkpoint_commits" => s.checkpoint_commits,
            "checkpoint_skips" => s.checkpoint_skips,
            "torn_checkpoints" => s.torn_checkpoints,
            "watchdog_degradations" => s.watchdog_degradations,
            "watchdog_fallbacks" => s.watchdog_fallbacks,
            _ => unreachable!("unknown fault-row column {column:?}"),
        }),
    })
}

/// Renders one report table: a row per non-empty group (first cell the
/// group's label, the rest from `cells`), then `note`.
fn table<'r>(
    title: &str,
    headers: &[&str],
    groups: impl IntoIterator<Item = Group<'r>>,
    cells: impl Fn(&[&FaultRow]) -> Vec<String>,
    note: &str,
) -> String {
    let mut t = Table::new(title, headers);
    for (label, rows) in groups.into_iter().filter(|(_, rows)| !rows.is_empty()) {
        t.row(std::iter::once(label.to_string()).chain(cells(&rows)).collect());
    }
    t.note(note);
    t.render() + "\n"
}

/// A labelled group of rows: one line of a render table.
type Group<'r> = (&'static str, Vec<&'r FaultRow>);

/// `rows` grouped per benchmark, labelled by short name.
fn per_bench<'r>(rows: &[&'r FaultRow], benches: Vec<Benchmark>) -> Vec<Group<'r>> {
    let of = |b: Benchmark| rows.iter().copied().filter(|r| r.bench == b).collect();
    benches.into_iter().map(|b| (b.short_name(), of(b))).collect()
}

fn total(rows: &[&FaultRow], f: impl Fn(&FaultRow) -> u64) -> String {
    rows.iter().map(|r| f(r)).sum::<u64>().to_string()
}

fn mean(rows: &[&FaultRow], f: impl Fn(&FaultRow) -> f64) -> f64 {
    rows.iter().map(|r| f(r)).sum::<f64>() / rows.len() as f64
}

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.into()
}

fn silent(rows: &[FaultRow]) -> impl Iterator<Item = &FaultRow> {
    rows.iter().filter(|r| r.outcome == Outcome::SilentWrong)
}

// --- Resilience: seeded power-loss schedules -------------------------------

/// Resilience schedules per benchmark (the acceptance floor: every
/// benchmark must survive at least this many).
pub const RESILIENCE_SCHEDULES: usize = 8;
/// Resilience schedules per benchmark in fast (CI) mode.
pub const RESILIENCE_FAST_SCHEDULES: usize = 3;

/// The columns of the report's `resilience` section.
#[rustfmt::skip]
pub const RESILIENCE_COLUMNS: &[&str] = &[
    "bench", "recovery", "seed", "losses", "boots", "survived", "correct", "clean_cycles",
    "total_cycles", "overhead_pct", "recovered_functions", "degraded", "journal_appends",
    "journal_fallbacks", "error",
];

/// Every MiBench benchmark × both replay recovery protocols ×
/// `schedules` seeded power-loss schedules.
pub fn resilience(h: &Harness, schedules: usize, base_seed: u64) -> Vec<FaultRow> {
    let mut items = Vec::new();
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        let system = System::SwapRam(SwapConfig::unified_fr2355().with_recovery(recovery));
        for bench in Benchmark::MIBENCH {
            let clean = clean_cycles(h, "resilience", bench, &system);
            for i in 0..schedules {
                let seed = schedule_seed(base_seed, bench, false, recovery, i);
                items.push((system.clone(), FaultRow::new(bench, seed, clean)));
            }
        }
    }
    run_matrix(h, "resilience", RESILIENCE_COLUMNS, items, |built, cfg, row| {
        power_loss_episode(built, cfg, row, Frequency::MHZ_24)
    })
}

/// Seed of a resilience or concurrency schedule: folds the benchmark
/// name, ISR protocol and recovery mode in, so the published seed stays
/// reproducible from `(base, bench, cell, i)`.
fn schedule_seed(
    base: u64,
    bench: Benchmark,
    unprotected: bool,
    recovery: RecoveryMode,
    i: usize,
) -> u64 {
    let mut tag = name_tag(&[bench.name()]);
    if unprotected {
        tag = tag.wrapping_add(0x1517);
    }
    if recovery == RecoveryMode::DirtyLog {
        tag = tag.wrapping_add(0x5eed);
    }
    SplitMix64::new(base).next_u64().wrapping_add(tag).wrapping_add((i as u64).wrapping_mul(GOLDEN))
}

/// One to three seeded power losses inside the middle 80% of the clean
/// run. Also the campaign engine's faulted-cell executor: `cfg` carries
/// the swept geometry/policy and `freq` the swept operating point.
pub(crate) fn power_loss_episode(
    built: &Built,
    cfg: &SwapConfig,
    row: FaultRow,
    freq: Frequency,
) -> FaultRow {
    let clean = row.clean_cycles;
    let mut rng = SplitMix64::new(row.seed);
    let losses = 1 + rng.below(3) as usize;
    let window = (clean / 10).max(1)..(clean * 9 / 10).max(2);
    let plan = FaultPlan::power_losses(rng.next_u64(), losses, window);
    // Deduplication may drop losses; every reboot replays a prefix and
    // pays recovery.
    let losses = plan.events().len() as u32;
    let budget = clean * (u64::from(losses) + 2) + 1_000_000;
    Episode::new(built, cfg, freq, plan, budget).run(FaultRow { losses, ..row })
}

/// Resilience contract: every episode survives with the oracle checksum.
pub fn resilience_violations(rows: &[FaultRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !(r.survived && r.correct))
        .map(|r| {
            let (survived, correct) = (r.survived, r.correct);
            format!(
                "resilience {}: survived={survived} correct={correct} error={:?}",
                r.label(),
                r.error
            )
        })
        .collect()
}

/// Per-benchmark survival tables, one per recovery protocol.
pub fn render_resilience(rows: &[FaultRow]) -> String {
    let ok = |rows: &[&FaultRow]| rows.iter().all(|r| r.survived && r.correct);
    let mut out = String::new();
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        let rows: Vec<&FaultRow> = rows.iter().filter(|r| r.recovery == recovery).collect();
        let mode = recovery_name(recovery);
        out += &table(
            &format!("Resilience — power-loss survival under {mode} recovery"),
            &["benchmark", "schedules", "losses", "recovered", "avg overhead", "ok"],
            per_bench(&rows, Benchmark::MIBENCH.to_vec()),
            |bs| {
                vec![
                    bs.len().to_string(),
                    total(bs, |r| u64::from(r.losses)),
                    total(bs, |r| r.swap.recovered_functions),
                    format!("{:+.1}%", mean(bs, FaultRow::overhead_pct)),
                    yes_no(ok(bs)),
                ]
            },
            if ok(&rows) {
                "every schedule recovered and matched its oracle checksum"
            } else {
                "SOME SCHEDULES FAILED"
            },
        );
    }
    out
}

// --- Corruption: seeded single-bit flips -----------------------------------

/// Flips per (benchmark, region).
pub const CORRUPTION_FLIPS: usize = 5;
/// Flips per (benchmark, region) in fast (CI) mode.
pub const CORRUPTION_FAST_FLIPS: usize = 2;

/// The columns of the report's `corruption` section.
#[rustfmt::skip]
pub const CORRUPTION_COLUMNS: &[&str] = &[
    "bench", "region", "seed", "addr", "bit", "cycle", "outcome", "survived", "correct",
    "guard_repairs", "guard_degraded", "degraded", "detail",
];

/// Every MiBench benchmark × every region × `flips` seeded flips.
pub fn corruption(h: &Harness, flips: usize, base_seed: u64) -> Vec<FaultRow> {
    let system = System::SwapRam(SwapConfig::unified_fr2355());
    let mut items = Vec::new();
    for bench in Benchmark::MIBENCH {
        let clean = clean_cycles(h, "corruption", bench, &system);
        for region in FlipRegion::ALL {
            for i in 0..flips {
                let seed = SplitMix64::new(base_seed ^ 0xB17F_11B5)
                    .next_u64()
                    .wrapping_add(name_tag(&[bench.name(), region.name()]))
                    .wrapping_add((i as u64).wrapping_mul(GOLDEN));
                let row = FaultRow { region: Some(region), ..FaultRow::new(bench, seed, clean) };
                items.push((system.clone(), row));
            }
        }
    }
    run_matrix(h, "corruption", CORRUPTION_COLUMNS, items, |built, cfg, mut row| {
        let clean = row.clean_cycles;
        let mut rng = SplitMix64::new(row.seed);
        let range = match row.region.expect("corruption rows name their region") {
            FlipRegion::Metadata => section_range(built, TABLES_SECTION),
            FlipRegion::CachedCode => {
                (cfg.cache_base, u32::from(cfg.cache_base) + u32::from(cfg.cache_size))
            }
            FlipRegion::AppData => section_range(built, "data"),
        };
        // Strike inside the middle 80% of the clean run, where cache
        // state is live.
        let (addr, bit) = flip_target(&mut rng, range);
        let win_lo = (clean / 10).max(1);
        let cycle = win_lo + rng.below((clean * 9 / 10).max(win_lo + 1) - win_lo);
        row.flip = (addr, bit, cycle);
        // Degraded FRAM execution and repairs lengthen the run.
        let budget = clean * 3 + 1_000_000;
        let plan = FaultPlan::new(vec![bit_flip(cycle, (addr, bit))]);
        let episode = Episode::new(built, cfg, Frequency::MHZ_24, plan, budget);
        classify_flip(Episode { sanitize: true, audit_final: true, ..episode }.run(row))
    })
}

/// Corruption classifier: combines the run outcome with every detection
/// channel (guard counters, sanitizer, typed errors, the final audit).
fn classify_flip(mut row: FaultRow) -> FaultRow {
    let s = &row.swap;
    let detected = s.guard_repairs + s.guard_degraded + s.degraded > 0 || row.error.is_some();
    row.outcome = match (row.survived, row.correct, detected) {
        (false, _, _) | (true, false, true) => Outcome::Degraded,
        (true, true, false) => Outcome::Masked,
        (true, true, true) => Outcome::Repaired,
        (true, false, false) => Outcome::SilentWrong,
    };
    row
}

/// Corruption contract: no metadata flip yields silent wrong output.
pub fn corruption_violations(rows: &[FaultRow]) -> Vec<String> {
    silent(rows)
        .filter(|r| r.region == Some(FlipRegion::Metadata))
        .map(|r| {
            let (addr, bit, cycle) = r.flip;
            let at = format!("{addr:#06x} bit {bit} cycle {cycle}");
            format!("corruption {}: silent-wrong metadata flip at {at}", r.label())
        })
        .collect()
}

/// Per-region classification tables.
pub fn render_corruption(rows: &[FaultRow]) -> String {
    let mut out = String::new();
    for region in FlipRegion::ALL {
        let rows: Vec<&FaultRow> = rows.iter().filter(|r| r.region == Some(region)).collect();
        let count = |bs: &[&FaultRow], o: Outcome| bs.iter().filter(|r| r.outcome == o).count();
        let outcomes =
            [Outcome::Masked, Outcome::Repaired, Outcome::Degraded, Outcome::SilentWrong];
        out += &table(
            &format!("Corruption — seeded bit flips in {}", region.name()),
            &["benchmark", "flips", "masked", "repaired", "degraded", "SILENT"],
            per_bench(&rows, Benchmark::MIBENCH.to_vec()),
            |bs| {
                let counts = outcomes.map(|o| count(bs, o));
                std::iter::once(bs.len()).chain(counts).map(|n| n.to_string()).collect()
            },
            match (region, count(&rows, Outcome::SilentWrong)) {
                (FlipRegion::Metadata, 0) => "no metadata flip produced silent wrong output",
                (FlipRegion::Metadata, _) => "METADATA FLIPS PRODUCED SILENT WRONG OUTPUT",
                _ => {
                    "silent wrong output is expected here: \
                     these bytes are outside the runtime's trust boundary"
                }
            },
        );
    }
    out
}

// --- Concurrency: seeded interrupt schedules -------------------------------

/// Interrupt schedules per (benchmark, protocol, recovery) cell.
pub const CONCURRENCY_SCHEDULES: usize = 4;
/// Interrupt schedules per cell in fast (CI) mode.
pub const CONCURRENCY_FAST_SCHEDULES: usize = 2;

/// The columns of the report's `concurrency` section.
#[rustfmt::skip]
pub const CONCURRENCY_COLUMNS: &[&str] = &[
    "bench", "protocol", "recovery", "seed", "power_loss", "bit_flip", "boots", "irq_delivered",
    "irq_coalesced", "isr_yields", "boundary_checks", "guard_repairs", "fid_repairs",
    "recovered_functions", "outcome", "survived", "correct", "clean_cycles", "total_cycles",
    "error",
];

/// The interrupt-driven benchmarks: the nine single-task MiBench programs
/// (run with the timer-ISR harness) plus the two preemptive multitask
/// benchmarks.
pub fn irq_benchmarks() -> Vec<Benchmark> {
    Benchmark::MIBENCH.iter().chain(Benchmark::MULTITASK.iter()).copied().collect()
}

/// The system for an interrupt-driven cell: single-task benchmarks get
/// the timer-ISR harness, multitask ones carry their own ISR, and every
/// interrupt boundary runs the metadata invariant oracle.
fn irq_system(bench: Benchmark, cfg: SwapConfig) -> System {
    let cfg = cfg.with_invariant_checks(true);
    System::SwapRam(if bench.is_multitask() { cfg } else { cfg.with_irq_harness(true) })
}

/// The interrupt-driven benchmarks × both ISR protocols × both replay
/// recovery modes × `schedules` seeded schedules. Odd episodes compose a
/// mid-run power loss, every third a metadata bit flip.
pub fn concurrency(h: &Harness, schedules: usize, base_seed: u64) -> Vec<FaultRow> {
    let mut items = Vec::new();
    for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
        for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
            for bench in irq_benchmarks() {
                let cfg = SwapConfig::unified_fr2355().with_recovery(recovery);
                let system = irq_system(bench, cfg.with_isr_protocol(protocol));
                let clean = clean_cycles(h, "concurrency", bench, &system);
                for i in 0..schedules {
                    let unprotected = protocol == IsrProtocol::Unprotected;
                    let seed = schedule_seed(base_seed, bench, unprotected, recovery, i);
                    let (losses, bit_flip) = (u32::from(i % 2 == 1), i % 3 == 2);
                    let row = FaultRow::new(bench, seed, clean);
                    items.push((system.clone(), FaultRow { losses, bit_flip, ..row }));
                }
            }
        }
    }
    run_matrix(h, "concurrency", CONCURRENCY_COLUMNS, items, |built, cfg, row| {
        let clean = row.clean_cycles;
        let mut rng = SplitMix64::new(row.seed);
        // Single-task benchmarks progress without ticks: a finite burst
        // of 8–64 interrupts keeps the Unprotected yield protocol from
        // starving the main thread by construction. Multitask ones only
        // progress while ticks arrive: a periodic schedule well above the
        // worst-case ISR duration.
        let irq = if row.bench.is_multitask() {
            let period = 1499 + rng.below(8000);
            IrqSchedule::periodic(period, 1 + rng.below(997))
        } else {
            let lo = (clean / 20).max(1);
            let count = 8 + rng.below(57) as usize;
            IrqSchedule::seeded(rng.next_u64(), count, lo..(clean * 19 / 20).max(lo + 2))
        };
        let win_lo = (clean / 10).max(1);
        let win_hi = (clean * 9 / 10).max(win_lo + 2);
        let mut faults = Vec::new();
        if row.losses > 0 {
            let cycle = win_lo + rng.below(win_hi - win_lo);
            faults.push(FaultEvent { cycle, kind: FaultKind::PowerLoss });
        }
        if row.bit_flip {
            let cycle = win_lo + rng.below(win_hi - win_lo);
            let target = flip_target(&mut rng, section_range(built, TABLES_SECTION));
            faults.push(bit_flip(cycle, target));
        }
        // Replay, denser interrupts and Unprotected re-traps all lengthen
        // the episode.
        let budget = clean * (u64::from(row.losses) + 3) + 2_000_000;
        let episode = Episode::new(built, cfg, Frequency::MHZ_24, FaultPlan::new(faults), budget);
        let mut episode = Episode { irq: Some(irq), sanitize: true, ..episode };
        // One more interrupt at the first miss taken with interrupts
        // enabled puts every episode's ISR inside a funcId publish window,
        // the race Unprotected is exposed to, by construction.
        if let Some(cycle) = episode.first_open_miss(row.bench) {
            episode.irq = episode.irq.map(|s| s.with_event(cycle));
        }
        let mut row = episode.run(row);
        // Classifier: a correct halt after guard or funcId repairs.
        let repaired = row.swap.guard_repairs > 0 || row.swap.fid_repairs > 0;
        if row.outcome == Outcome::Clean && repaired {
            row.outcome = Outcome::GuardRepaired;
        }
        row
    })
}

/// Concurrency contract: every Masked row passes [`FaultRow::masked_ok`],
/// no row is silently wrong, and at least one Unprotected row surfaces a
/// detected hazard.
pub fn concurrency_violations(rows: &[FaultRow]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .filter(|r| r.protocol == IsrProtocol::Masked && !r.masked_ok())
        .map(|r| {
            let outcome = r.outcome.name();
            format!("concurrency masked {}: outcome={outcome} error={:?}", r.label(), r.error)
        })
        .collect();
    out.extend(
        silent(rows).map(|r| {
            format!("concurrency {} {}: silent-wrong", protocol_name(r.protocol), r.label())
        }),
    );
    if !unprotected_hazard(rows) {
        out.push("concurrency: no hazard detected across the Unprotected matrix".into());
    }
    out
}

fn unprotected_hazard(rows: &[FaultRow]) -> bool {
    rows.iter().any(|r| r.protocol == IsrProtocol::Unprotected && r.hazard_detected())
}

/// Per-benchmark tables, one per ISR protocol.
pub fn render_concurrency(rows: &[FaultRow]) -> String {
    let mut out = String::new();
    for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
        // Masked rows must be correct or detectably rejected; Unprotected
        // rows pass as long as nothing was silently wrong.
        let ok = |bs: &[&FaultRow]| match protocol {
            IsrProtocol::Masked => bs.iter().all(|r| r.masked_ok()),
            IsrProtocol::Unprotected => bs.iter().all(|r| r.outcome != Outcome::SilentWrong),
        };
        let mine: Vec<&FaultRow> = rows.iter().filter(|r| r.protocol == protocol).collect();
        let mode = protocol_name(protocol);
        out += &table(
            &format!("Concurrency — seeded interrupt schedules, {mode} protocol"),
            &["benchmark", "episodes", "irqs", "yields", "fid repairs", "boundary checks", "ok"],
            per_bench(&mine, irq_benchmarks()),
            |bs| {
                vec![
                    bs.len().to_string(),
                    total(bs, |r| r.irq_delivered),
                    total(bs, |r| r.swap.isr_yields),
                    total(bs, |r| r.swap.fid_repairs),
                    total(bs, |r| r.swap.boundary_checks),
                    yes_no(ok(bs)),
                ]
            },
            match (protocol, ok(&mine)) {
                (IsrProtocol::Masked, true) => {
                    "every masked episode correct, or detectably rejected under injected flips"
                }
                (IsrProtocol::Masked, false) => "SOME MASKED EPISODES FAILED",
                (IsrProtocol::Unprotected, false) => "SILENT WRONG OUTPUT UNDER UNPROTECTED ISRs",
                (IsrProtocol::Unprotected, true) if unprotected_hazard(rows) => {
                    "hazards detected and contained; none silent"
                }
                (IsrProtocol::Unprotected, true) => "no hazards surfaced (weak schedules?)",
            },
        );
    }
    out
}

// --- Intermittent: seeded harvested-energy traces --------------------------

/// The recovery protocols the intermittent suite compares.
pub const INTERMITTENT_RECOVERIES: [RecoveryMode; 3] =
    [RecoveryMode::FullScan, RecoveryMode::DirtyLog, RecoveryMode::PersistentStack];

/// The columns of the report's `intermittent` section.
#[rustfmt::skip]
pub const INTERMITTENT_COLUMNS: &[&str] = &[
    "bench", "recovery", "tier", "seed", "budget", "losses", "bit_flip", "boots", "resumes",
    "checkpoint_commits", "checkpoint_skips", "torn_checkpoints", "watchdog_degradations",
    "watchdog_fallbacks", "recovered_functions", "irq_delivered", "survived", "correct",
    "useful_cycles_per_boot", "clean_cycles", "total_cycles", "outcome", "error",
];

/// The interrupt-driven benchmarks × the three recovery protocols × the
/// given tiers, one seeded energy trace per cell; every third episode
/// composes a metadata bit flip.
pub fn intermittent(h: &Harness, tiers: &[Tier], base_seed: u64) -> Vec<FaultRow> {
    let mut items = Vec::new();
    for recovery in INTERMITTENT_RECOVERIES {
        for bench in irq_benchmarks() {
            let system = irq_system(bench, SwapConfig::unified_fr2355().with_recovery(recovery));
            let clean = clean_cycles(h, "intermittent", bench, &system);
            for &tier in tiers {
                let tag = name_tag(&[bench.name(), recovery_name(recovery), tier.name()]);
                let seed =
                    SplitMix64::new(base_seed).next_u64().wrapping_add(tag.wrapping_mul(GOLDEN));
                let (tier, bit_flip) = (Some(tier), items.len() % 3 == 2);
                let row = FaultRow::new(bench, seed, clean);
                items.push((system.clone(), FaultRow { tier, bit_flip, ..row }));
            }
        }
    }
    run_matrix(h, "intermittent", INTERMITTENT_COLUMNS, items, |built, cfg, mut row| {
        let clean = row.clean_cycles;
        let tier = row.tier.expect("intermittent rows name their tier");
        let mut rng = SplitMix64::new(row.seed);
        let (shape, budget, horizon, boot_cap) = tier.harvest(clean);
        let plan = EnergyTrace::new(shape, budget, rng.next_u64()).plan_until(horizon);
        row.losses = plan.events().len() as u32;
        // A periodic tick: multitask benchmarks need it to progress, and
        // the harness ISR's entry doubles as a commit point.
        let period =
            if row.bench.is_multitask() { 1499 + rng.below(8000) } else { 1999 + rng.below(6000) };
        let irq = IrqSchedule::periodic(period, 1 + rng.below(997));
        let mut faults = plan.events().to_vec();
        if row.bit_flip {
            // Early in the horizon, while losses are still arriving.
            let cycle = 1 + rng.below(horizon.min(clean.max(2)));
            let target = flip_target(&mut rng, section_range(built, TABLES_SECTION));
            faults.push(bit_flip(cycle, target));
        }
        let episode = Episode::new(built, cfg, Frequency::MHZ_24, FaultPlan::new(faults), horizon);
        Episode { irq: Some(irq), sanitize: true, boot_cap, ..episode }.run(row)
    })
}

/// Intermittent contract: no row is silently wrong, and persistent-stack
/// completes every flip-free single-task episode of the dense tier.
pub fn intermittent_violations(rows: &[FaultRow]) -> Vec<String> {
    let mut out: Vec<String> =
        silent(rows).map(|r| format!("intermittent {}: silent-wrong", r.label())).collect();
    let dense: Vec<&FaultRow> = rows
        .iter()
        .filter(|r| r.recovery == RecoveryMode::PersistentStack && r.tier == Some(Tier::Dense))
        .filter(|r| !r.bit_flip && !r.bench.is_multitask())
        .collect();
    if dense.is_empty() {
        out.push("intermittent: no flip-free single-task dense-tier persistent-stack row".into());
    }
    out.extend(
        dense.iter().filter(|r| !(r.survived && r.correct)).map(|r| {
            format!("intermittent {}: dense tier not completed: {:?}", r.label(), r.error)
        }),
    );
    out
}

/// Per-tier forward-progress tables, one per recovery protocol.
pub fn render_intermittent(rows: &[FaultRow]) -> String {
    let mut out = String::new();
    for recovery in INTERMITTENT_RECOVERIES {
        let mine: Vec<&FaultRow> = rows.iter().filter(|r| r.recovery == recovery).collect();
        let mode = recovery_name(recovery);
        let of = |t: Tier| mine.iter().copied().filter(|r| r.tier == Some(t)).collect();
        out += &table(
            &format!("Intermittent — forward progress under {mode} recovery"),
            &["tier", "episodes", "completed", "boots", "resumes", "wd-degraded", "avg ucpb"],
            Tier::ALL.map(|t| (t.name(), of(t))),
            |bs| {
                vec![
                    bs.len().to_string(),
                    format!(
                        "{}/{}",
                        bs.iter().filter(|r| r.survived && r.correct).count(),
                        bs.len()
                    ),
                    total(bs, |r| u64::from(r.boots)),
                    total(bs, |r| r.swap.resumes),
                    total(bs, |r| r.swap.watchdog_degradations),
                    format!("{:.0}", mean(bs, FaultRow::useful_cycles_per_boot)),
                ]
            },
            if mine.iter().any(|r| r.outcome == Outcome::SilentWrong) {
                "SILENT WRONG OUTPUT UNDER HARVESTED-ENERGY TRACES"
            } else {
                "no silent-wrong episodes on any tier"
            },
        );
    }
    out
}

// --- The report's fault sections -------------------------------------------

/// A suite's contract: one message per violation.
pub type Violations = fn(&[FaultRow]) -> Vec<String>;

/// Runs the four suites at their report sizes (`fast`: the CI sizes) and
/// returns the rendered tables plus every contract violation.
pub fn run_suites(h: &Harness, fast: bool, base_seed: u64) -> (String, Vec<String>) {
    let size = |fast_size, full_size| if fast { fast_size } else { full_size };
    let mut violations = Vec::new();
    let mut suite =
        |rows: Vec<FaultRow>, render: fn(&[FaultRow]) -> String, contract: Violations| {
            violations.extend(contract(&rows));
            render(&rows)
        };
    let text = [
        suite(
            resilience(h, size(RESILIENCE_FAST_SCHEDULES, RESILIENCE_SCHEDULES), base_seed),
            render_resilience,
            resilience_violations,
        ),
        suite(
            corruption(h, size(CORRUPTION_FAST_FLIPS, CORRUPTION_FLIPS), base_seed),
            render_corruption,
            corruption_violations,
        ),
        suite(
            concurrency(h, size(CONCURRENCY_FAST_SCHEDULES, CONCURRENCY_SCHEDULES), base_seed),
            render_concurrency,
            concurrency_violations,
        ),
        suite(
            intermittent(h, if fast { &Tier::FAST } else { &Tier::ALL }, base_seed),
            render_intermittent,
            intermittent_violations,
        ),
    ]
    .join("\n");
    (text, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_seed_parsing_rejects_garbage() {
        assert_eq!(parse_fault_seed("51966"), Ok(51966));
        assert_eq!(parse_fault_seed(" 42 "), Ok(42));
        assert_eq!(parse_fault_seed("0"), Ok(0));
        for bad in ["", "0xF00D", "-1", "1.5", "banana", "18446744073709551616"] {
            assert!(
                parse_fault_seed(bad).unwrap_err().contains(FAULT_SEED_ENV),
                "{bad:?} accepted"
            );
        }
    }
}
