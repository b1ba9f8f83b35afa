//! Differential gate for the pre-decoded execution engine.
//!
//! The pre-decoded engine ([`msp430_sim::blocks`]) must be
//! observationally indistinguishable from the reference interpreter: same
//! [`Stats`](msp430_sim::Stats) to the cycle, same checksums, same
//! [`ExitReason`](msp430_sim::ExitReason), same runtime counters — across
//! every benchmark, instruction-supply system, and operating frequency.
//! This suite is the gate that lets `predecoded` ship as the default
//! engine.
//!
//! Two modes:
//!
//! - **End-to-end matrix**: all 9 MiBench benchmarks × {baseline,
//!   block-based, SwapRAM} × {8 MHz, 24 MHz}, run to completion under both
//!   engines and compared wholesale ([`RunResult`] is `PartialEq`).
//! - **Lockstep**: for three benchmarks, both engines advance one
//!   instruction at a time with the full register file compared after
//!   every step and the cycle-accurate [`Stats`] compared every
//!   `STATS_EVERY` steps, so any future divergence is localised to the
//!   instruction that introduced it instead of surfacing as a checksum
//!   mismatch millions of cycles later.
//! - **Profiled runs**: an attached [`Profiler`] makes `Machine::run`
//!   single-step (the pre-decoded engine with limit 0), the route of the
//!   profile-guided ablation; for three benchmark × system pairs both
//!   engines must agree on the [`RunResult`] and on the profile itself.
//! - **Schedule boundaries**: the pre-decoded engine batches straight-line
//!   runs up to the next fault event or timer fire, so one scheduled
//!   event — a power loss, a bit flip into cached code, a one-shot timer
//!   fire — is placed at every cycle of a run's first
//!   `DENSE_CYCLES` cycles (first miss, memcpy into SRAM, first decoded
//!   blocks) and at `SEEDED_EVENTS` seeded cycles across the rest, and
//!   both engines must agree on where it landed and what followed.

use mibench::{build, input_for, prepare, run_on, Benchmark, Built, MemoryProfile, RunResult, System};
use msp430_sim::cpu::FLAG_GIE;
use msp430_sim::machine::Fr2355;
use msp430_sim::profile::Profiler;
use msp430_sim::rng::SplitMix64;
use msp430_sim::{
    Engine, ExitReason, FaultEvent, FaultKind, FaultPlan, Frequency, IrqSchedule, IrqTimer,
    Machine, Reg, SimResult,
};

/// Generous cycle budget: every benchmark halts well below this.
const MAX_CYCLES: u64 = 4_000_000_000;
/// Input seed shared with the experiment harness.
const SEED: u64 = 1;
/// Lockstep mode compares the cycle-accurate stats this often.
const STATS_EVERY: u64 = 64;
/// Hard ceiling on lockstep instruction count (divergence guard).
const STEP_CAP: u64 = 500_000_000;

fn run_with(built: &Built, freq: Frequency, input: &[u8], engine: Engine) -> RunResult {
    let mut machine = Fr2355::machine(freq);
    machine.set_engine(engine);
    run_on(&mut machine, built, input, MAX_CYCLES).unwrap_or_else(|e| {
        panic!("{} under {engine:?} died: {e:?}", built.bench.name());
    })
}

/// Runs every benchmark under `system` at `freq` with both engines and
/// asserts the two runs are indistinguishable.
fn diff_matrix(system: &System, freq: Frequency) {
    for bench in Benchmark::MIBENCH {
        let built = build(bench, system, &MemoryProfile::unified())
            .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
        let input = input_for(bench, SEED);
        let interp = run_with(&built, freq, &input, Engine::Interp);
        let pre = run_with(&built, freq, &input, Engine::Predecoded);
        assert_eq!(
            interp,
            pre,
            "{} under {} at {} MHz: engines diverged",
            bench.name(),
            system.label(),
            freq.mhz
        );
        // The diff alone proves equivalence; also pin both runs to the
        // ground truth so "identically wrong" cannot slip through.
        assert!(
            interp.outcome.success(),
            "{} under {} did not halt cleanly: {:?}",
            bench.name(),
            system.label(),
            interp.outcome.exit
        );
        assert_eq!(
            interp.outcome.checksum.0,
            bench.oracle_checksum(&input),
            "{} under {}: checksum does not match the oracle",
            bench.name(),
            system.label()
        );
    }
}

#[test]
fn matrix_baseline_8mhz() {
    diff_matrix(&System::Baseline, Frequency::MHZ_8);
}

#[test]
fn matrix_baseline_24mhz() {
    diff_matrix(&System::Baseline, Frequency::MHZ_24);
}

#[test]
fn matrix_blockcache_8mhz() {
    diff_matrix(&System::BlockCache(blockcache::BlockConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn matrix_blockcache_24mhz() {
    diff_matrix(&System::BlockCache(blockcache::BlockConfig::unified_fr2355()), Frequency::MHZ_24);
}

#[test]
fn matrix_swapram_8mhz() {
    diff_matrix(&System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn matrix_swapram_24mhz() {
    diff_matrix(&System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_24);
}

/// Asserts both machines hold identical architectural state.
fn compare_regs(a: &Machine, b: &Machine, bench: Benchmark, steps: u64) {
    for n in 0..16 {
        let r = Reg::r(n);
        assert_eq!(
            a.cpu().reg(r),
            b.cpu().reg(r),
            "{}: R{n} diverged after {steps} instructions (pc={:#06x})",
            bench.name(),
            a.cpu().pc()
        );
    }
}

/// Steps an interpreter machine and a pre-decoded machine in lockstep over
/// one benchmark, comparing per-step results, registers, latched sanitizer
/// violations, and (periodically) the full cycle-accurate stats.
fn lockstep(bench: Benchmark, system: &System, freq: Frequency) {
    let built = build(bench, system, &MemoryProfile::unified())
        .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
    let input = input_for(bench, SEED);
    let mut a = Fr2355::machine(freq);
    a.set_engine(Engine::Interp);
    let mut b = Fr2355::machine(freq);
    b.set_engine(Engine::Predecoded);
    let _ha = prepare(&mut a, &built, &input).expect("interp prepare");
    let _hb = prepare(&mut b, &built, &input).expect("predecoded prepare");

    let mut steps: u64 = 0;
    let halt = loop {
        let ra = a.step();
        let rb = b.step();
        assert_eq!(ra, rb, "{}: step {steps} results diverged", bench.name());
        // Mirror Machine::run's per-instruction polling so a latched
        // sanitizer violation surfaces at the same step in both machines.
        let (sp_a, sp_b) = (a.cpu().sp(), b.cpu().sp());
        a.bus_mut().check_stack(sp_a);
        b.bus_mut().check_stack(sp_b);
        let (va, vb) = (a.bus_mut().take_violation(), b.bus_mut().take_violation());
        assert_eq!(va, vb, "{}: violation diverged at step {steps}", bench.name());
        steps += 1;
        compare_regs(&a, &b, bench, steps);
        if steps.is_multiple_of(STATS_EVERY) {
            assert_eq!(
                a.bus().stats(),
                b.bus().stats(),
                "{}: stats diverged within {STATS_EVERY} instructions of step {steps}",
                bench.name()
            );
        }
        assert!(va.is_none(), "{}: unexpected sanitizer violation {va:?}", bench.name());
        match ra {
            Ok(Some(code)) => break code,
            Ok(None) => {}
            Err(e) => panic!("{}: simulation error at step {steps}: {e:?}", bench.name()),
        }
        assert!(steps < STEP_CAP, "{}: lockstep exceeded {STEP_CAP} instructions", bench.name());
    };
    assert_eq!(halt, 0, "{}: nonzero halt code", bench.name());
    assert_eq!(a.bus().stats(), b.bus().stats(), "{}: final stats diverged", bench.name());
    assert_eq!(
        a.bus().ports().checksum(),
        b.bus().ports().checksum(),
        "{}: final checksum diverged",
        bench.name()
    );
}

#[test]
fn lockstep_crc_swapram() {
    lockstep(Benchmark::Crc, &System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn lockstep_bitcount_blockcache() {
    lockstep(
        Benchmark::Bitcount,
        &System::BlockCache(blockcache::BlockConfig::unified_fr2355()),
        Frequency::MHZ_24,
    );
}

#[test]
fn lockstep_stringsearch_swapram() {
    lockstep(
        Benchmark::Stringsearch,
        &System::SwapRam(swapram::SwapConfig::unified_fr2355()),
        Frequency::MHZ_24,
    );
}

/// Runs `bench` under `system` at 24 MHz under both engines with a
/// profiler over every function span plus the SRAM cache window, and
/// asserts identical results and profiles.
fn profiled(bench: Benchmark, system: &System) {
    let built = build(bench, system, &MemoryProfile::unified())
        .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
    let assembly = match &built.program {
        mibench::Program::Base(a) => a,
        mibench::Program::Swap(i, _) => &i.assembly,
        mibench::Program::Block(p, _) => &p.assembly,
    };
    let mut spans: Vec<(String, u16, u16)> =
        assembly.functions.iter().map(|f| (f.name.clone(), f.start, f.end)).collect();
    spans.push(("<sram>".to_string(), 0x2000, 0x3000));
    let input = input_for(bench, SEED);
    let run = |engine: Engine| {
        let mut m = Fr2355::machine(Frequency::MHZ_24);
        m.set_engine(engine);
        m.attach_profiler(Profiler::new(spans.clone()));
        let result = run_on(&mut m, &built, &input, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{} under {engine:?} died: {e:?}", bench.name()));
        (result, m.profiler().expect("profiler attached").report())
    };
    let (interp, interp_profile) = run(Engine::Interp);
    let (pre, pre_profile) = run(Engine::Predecoded);
    let what = format!("{} under {}", bench.name(), system.label());
    assert!(interp.outcome.success(), "{what}: {:?}", interp.outcome.exit);
    assert_eq!(interp, pre, "{what}: profiled runs diverged");
    assert_eq!(interp_profile, pre_profile, "{what}: profiles diverged");
    let retired: u64 = interp.outcome.stats.instructions.iter().sum();
    let profiled: u64 = interp_profile.iter().map(|r| r.counts.total()).sum();
    assert!(profiled > 0 && profiled <= retired, "{what}: {profiled} of {retired} profiled");
}

#[test]
fn profiled_runs_are_identical() {
    profiled(Benchmark::Crc, &System::SwapRam(swapram::SwapConfig::unified_fr2355()));
    profiled(Benchmark::Bitcount, &System::BlockCache(blockcache::BlockConfig::unified_fr2355()));
    profiled(Benchmark::Rsa, &System::Baseline);
}

/// Schedule boundaries: an event lands at every cycle in `0..=DENSE_CYCLES`.
const DENSE_CYCLES: u64 = 2000;
/// Schedule boundaries: seeded event cycles across the rest of the run.
const SEEDED_EVENTS: usize = 200;
/// FRAM wait states make instruction costs uneven at 24 MHz, which is
/// what the batch bound must get exactly right.
const SCHEDULE_FREQ: Frequency = Frequency::MHZ_24;

/// crc under SwapRAM (unified 4 KiB cache), with or without the timer
/// harness that adds an ISR vector and enables interrupts around `main`.
fn swap_crc(irq_harness: bool) -> (Built, Vec<u8>) {
    let cfg = swapram::SwapConfig::unified_fr2355().with_irq_harness(irq_harness);
    let built = build(Benchmark::Crc, &System::SwapRam(cfg), &MemoryProfile::unified())
        .expect("crc builds under SwapRAM");
    (built, input_for(Benchmark::Crc, SEED))
}

/// Every cycle of the dense prefix, then `SEEDED_EVENTS` seeded cycles in
/// `(DENSE_CYCLES, total)`.
fn event_cycles(total: u64) -> Vec<u64> {
    assert!(total > 2 * DENSE_CYCLES, "run too short for the seeded tail: {total}");
    let mut rng = SplitMix64::new(SEED);
    let mut cycles: Vec<u64> = (0..=DENSE_CYCLES).collect();
    let tail = total - DENSE_CYCLES - 1;
    cycles.extend((0..SEEDED_EVENTS).map(|_| DENSE_CYCLES + 1 + rng.below(tail)));
    cycles
}

/// What one scheduled run leaves behind; both engines must agree on all of it.
#[derive(Debug, PartialEq)]
struct Landing {
    result: SimResult<RunResult>,
    regs: Vec<u16>,
    fired: Option<usize>,
}

/// Prepares a fresh machine under `engine`, lets `arm` attach the
/// schedule, and runs it with `budget`.
fn land(
    built: &Built,
    input: &[u8],
    engine: Engine,
    budget: u64,
    arm: &dyn Fn(&mut Machine),
) -> Landing {
    let mut m = Fr2355::machine(SCHEDULE_FREQ);
    m.set_engine(engine);
    let (swap, block) = prepare(&mut m, built, input).expect("prepare");
    arm(&mut m);
    let result = m.run(budget).map(|outcome| RunResult {
        outcome,
        swap: swap.map(|h| h.borrow().clone()),
        block: block.map(|h| h.borrow().clone()),
    });
    Landing {
        result,
        regs: (0..16).map(|n| m.cpu().reg(Reg::r(n))).collect(),
        fired: m.fault_plan().map(FaultPlan::fired),
    }
}

/// Runs one event per cycle in `cycles` under both engines and asserts
/// identical landings; returns the interpreter's, in `cycles` order.
fn diff_schedule(
    what: &str,
    built: &Built,
    input: &[u8],
    budget: u64,
    cycles: &[u64],
    arm: impl Fn(&mut Machine, u64),
) -> Vec<Landing> {
    cycles
        .iter()
        .map(|&c| {
            let interp = land(built, input, Engine::Interp, budget, &|m| arm(m, c));
            let pre = land(built, input, Engine::Predecoded, budget, &|m| arm(m, c));
            assert_eq!(interp, pre, "{what} at cycle {c}: engines diverged");
            interp
        })
        .collect()
}

/// Cycles of a clean run of `built`.
fn clean_cycles(built: &Built, input: &[u8]) -> u64 {
    let clean = run_with(built, SCHEDULE_FREQ, input, Engine::Predecoded);
    assert!(clean.outcome.success(), "clean run failed: {:?}", clean.outcome.exit);
    clean.outcome.stats.total_cycles()
}

#[test]
fn schedule_power_loss_lands_identically() {
    let (built, input) = swap_crc(false);
    let total = clean_cycles(&built, &input);
    let cycles = event_cycles(total);
    let landings = diff_schedule("power loss", &built, &input, MAX_CYCLES, &cycles, |m, c| {
        let kind = FaultKind::PowerLoss;
        m.attach_fault_plan(FaultPlan::new(vec![FaultEvent { cycle: c, kind }]));
    });
    for (c, l) in cycles.iter().zip(&landings) {
        let outcome = &l.result.as_ref().expect("a power loss is not a simulation error").outcome;
        assert_eq!(outcome.exit, ExitReason::PowerLoss, "loss at cycle {c}");
        assert_eq!(l.fired, Some(1), "loss at cycle {c}");
        assert!(outcome.stats.total_cycles() >= *c, "loss at cycle {c} fired early");
    }
}

#[test]
fn schedule_bit_flip_into_cached_code_lands_identically() {
    let (built, input) = swap_crc(false);
    let mibench::Program::Swap(inst, _) = &built.program else { unreachable!("SwapRAM build") };
    let func = inst.func_by_name("crc32_buf").expect("crc32_buf is cacheable");
    // Where the clean run cached crc32_buf: its redirection word ends up
    // pointing at the SRAM copy (the 4 KiB cache never evicts it).
    let mut probe = Fr2355::machine(SCHEDULE_FREQ);
    let clean = run_on(&mut probe, &built, &input, MAX_CYCLES).expect("clean run");
    assert!(clean.outcome.success());
    let copy = probe.bus().peek_word(func.redir_addr);
    assert!((0x2000..0x3000).contains(&copy), "crc32_buf not cached in SRAM: {copy:#06x}");
    let total = clean.outcome.stats.total_cycles();
    let cycles = event_cycles(total);
    // A flip may send the program into a loop: twice the clean run ends it.
    let landings = diff_schedule("bit flip", &built, &input, 2 * total, &cycles, |m, c| {
        let mut rng = SplitMix64::new(c);
        let addr = copy + rng.below(u64::from(func.size)) as u16;
        let bit = rng.below(8) as u8;
        let kind = FaultKind::BitFlip { addr, bit };
        m.attach_fault_plan(FaultPlan::new(vec![FaultEvent { cycle: c, kind }]));
    });
    let fired = landings.iter().filter(|l| l.fired == Some(1)).count();
    let diverted = landings
        .iter()
        .filter(|l| l.result.as_ref().map_or(true, |r| r.outcome != clean.outcome))
        .count();
    assert!(fired > cycles.len() / 2, "only {fired} flips fired");
    assert!(diverted > 0, "no flip changed the program's behaviour");
}

#[test]
fn schedule_timer_fire_lands_identically() {
    let (built, input) = swap_crc(true);
    let vector = built.irq.expect("the harness build carries an ISR").vector;
    let total = clean_cycles(&built, &input);
    let cycles = event_cycles(total);
    let landings = diff_schedule("timer fire", &built, &input, MAX_CYCLES, &cycles, |m, c| {
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::at(vec![c]), vector));
    });
    // Where GIE was clear at a fire's landing boundary, the interrupt was
    // latched and delivered later: `run(c)` stops on that boundary.
    let mut masked = 0;
    for (&c, l) in cycles.iter().zip(&landings) {
        let outcome = &l.result.as_ref().expect("a timer fire is not a simulation error").outcome;
        assert!(outcome.success(), "fire at cycle {c}: {:?}", outcome.exit);
        if c > DENSE_CYCLES {
            continue;
        }
        assert_eq!(outcome.stats.irq_delivered, 1, "fire at cycle {c}");
        let mut probe = Fr2355::machine(SCHEDULE_FREQ);
        prepare(&mut probe, &built, &input).expect("prepare");
        probe.bus_mut().detach_timer();
        probe.run(c).expect("probe run");
        if probe.cpu().sr() & FLAG_GIE == 0 {
            masked += 1;
        }
    }
    assert!(masked > 0, "no fire landed while GIE was clear");
}
