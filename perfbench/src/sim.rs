//! Calls into the simulator layers shared by every workload: one cold run
//! on a fresh machine, and a build decomposed into its layer steps.

use crate::trace::Tracer;
use blockcache::BlockStats;
use experiments::measure::MAX_CYCLES;
use mibench::builder::{parse_benchmark_with, prepare, Built, MemoryProfile, System};
use mibench::Benchmark;
use msp430_asm::LayoutConfig;
use msp430_sim::machine::{Engine, ExitReason, Fr2355};
use msp430_sim::{EnergyModel, Frequency, Stats};
use std::hint::black_box;
use swapram::SwapStats;

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub stats: Stats,
    pub swap: Option<SwapStats>,
    pub block: Option<BlockStats>,
    pub checksum: u32,
    pub exit: ExitReason,
    /// Halted cleanly with the oracle's checksum.
    pub ok: bool,
    /// Pre-decoded engine `(blocks_built, blocks_invalidated, delegated)`.
    pub diag: (u64, u64, u64),
}

impl RunOut {
    /// Canonical text of every simulated counter and the checksum (engine
    /// diagnostics are host-side and excluded).
    pub fn digest_line(&self, label: &str) -> String {
        format!(
            "{label}|{:08x}|{:?}|{:?}|{:?}|{:?}",
            self.checksum, self.exit, self.stats, self.swap, self.block
        )
    }

    pub fn energy_uj(&self, freq: Frequency) -> f64 {
        EnergyModel::fr2355().energy_uj(&self.stats, freq)
    }
}

/// Runs `built` once, cold, on a fresh FR2355 with the pre-decoded
/// engine: machine set-up and image load, then `Machine::run`.
pub fn run_one(
    built: &Built,
    input: &[u8],
    oracle: u32,
    freq: Frequency,
    tr: &Tracer,
    op: u64,
) -> Result<RunOut, String> {
    let (mut machine, handles) = tr.span("msp430.setup", op, || {
        let mut m = Fr2355::machine(freq);
        m.set_engine(Engine::Predecoded);
        let handles = prepare(&mut m, built, input);
        (m, handles)
    });
    let (swap, block) = handles.map_err(|e| format!("prepare: {e}"))?;
    let outcome = tr
        .span("msp430.run", op, || machine.run(MAX_CYCLES))
        .map_err(|e| format!("run: {e}"))?;
    let checksum = outcome.checksum.0;
    Ok(RunOut {
        ok: outcome.success() && checksum == oracle,
        exit: outcome.exit,
        checksum,
        stats: outcome.stats,
        swap: swap.map(|h| h.borrow().clone()),
        block: block.map(|h| h.borrow().clone()),
        diag: machine.engine_diagnostics().unwrap_or_default(),
    })
}

/// Repeats the steps of `mibench::build` one layer at a time (parse, then
/// assemble or the system's pass) so each layer gets its own span. The
/// results are discarded; only the timing is wanted.
pub fn probe_build(
    bench: Benchmark,
    system: &System,
    profile: &MemoryProfile,
    tr: &Tracer,
    op: u64,
) {
    tr.span("probe.build", op, || {
        let irq = matches!(system, System::SwapRam(c) if c.irq_harness) && !bench.is_multitask();
        let Ok(module) = tr.span("asm.parse", op, || {
            parse_benchmark_with(bench, profile, irq)
        }) else {
            return;
        };
        let layout = LayoutConfig::new(profile.text_base, profile.data_base);
        match system {
            System::Baseline => {
                let _ = black_box(tr.span("asm.assemble", op, || {
                    msp430_asm::assemble(&module, &layout)
                }));
            }
            System::SwapRam(cfg) => {
                let _ = black_box(tr.span("swapram.pass", op, || {
                    swapram::pass::instrument(&module, cfg, &layout)
                }));
            }
            System::BlockCache(cfg) => {
                let _ = black_box(tr.span("blockcache.bbpass", op, || {
                    blockcache::bbpass::transform(&module, cfg, &layout)
                }));
            }
        }
    });
}

/// Simulated counters summed over a set of runs, reported as the
/// per-layer counts of the traced run.
#[derive(Debug, Default)]
pub struct Counters {
    instructions: u64,
    diag: (u64, u64, u64),
    wait: u64,
    contention: u64,
    hw_hits: u64,
    hw_misses: u64,
    /// Figure-8 instruction categories of the SwapRAM runs.
    swap_instr: [u64; 4],
    swap: SwapStats,
    block: BlockStats,
}

impl Counters {
    /// Adds one run's `Stats`, runtime counters and engine diagnostics.
    pub fn add(&mut self, out: &RunOut) {
        let stats = &out.stats;
        self.diag.0 += out.diag.0;
        self.diag.1 += out.diag.1;
        self.diag.2 += out.diag.2;
        self.instructions += stats.total_instructions();
        self.wait += stats.wait_cycles;
        self.contention += stats.contention_cycles;
        self.hw_hits += stats.hw_cache_hits;
        self.hw_misses += stats.hw_cache_misses;
        if let Some(s) = &out.swap {
            for (acc, n) in self.swap_instr.iter_mut().zip(stats.instructions) {
                *acc += n;
            }
            let t = &mut self.swap;
            t.misses += s.misses;
            t.fills += s.fills;
            t.evictions += s.evictions;
            t.active_fallbacks += s.active_fallbacks;
            t.frozen_fallbacks += s.frozen_fallbacks;
            t.too_large += s.too_large;
            t.bytes_copied += s.bytes_copied;
            t.guard_checks += s.guard_checks;
        }
        if let Some(b) = &out.block {
            self.block.traps += b.traps;
            self.block.flushes += b.flushes;
            self.block.bytes_copied += b.bytes_copied;
        }
    }

    /// Instructions retired over every added run.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    pub fn put(&self, m: &mut crate::util::Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.put("msp430.blocks_built", self.diag.0 as f64, "count");
        m.put("msp430.blocks_invalidated", self.diag.1 as f64, "count");
        m.put("msp430.delegated", self.diag.2 as f64, "count");
        m.put(
            "msp430.instrs_per_block",
            ratio(self.instructions, self.diag.0),
            "instr",
        );
        m.put("msp430.wait_cycles", self.wait as f64, "cycles");
        m.put("msp430.contention_cycles", self.contention as f64, "cycles");
        m.put(
            "msp430.hwcache_hit_ratio",
            ratio(self.hw_hits, self.hw_hits + self.hw_misses),
            "ratio",
        );
        let total: u64 = self.swap_instr.iter().sum();
        for (name, n) in ["app_fram", "app_sram", "runtime", "memcpy"]
            .iter()
            .zip(self.swap_instr)
        {
            m.put(&format!("dev.instr_{name}"), ratio(n, total), "share");
        }
        let s = &self.swap;
        m.put("swapram.misses", s.misses as f64, "count");
        m.put("swapram.evictions", s.evictions as f64, "count");
        m.put("swapram.bytes_copied", s.bytes_copied as f64, "B");
        m.put("swapram.fill_ratio", ratio(s.fills, s.misses), "ratio");
        let fallbacks = s.active_fallbacks + s.frozen_fallbacks + s.too_large;
        m.put("swapram.fram_fallbacks", fallbacks as f64, "count");
        m.put("swapram.guard_checks", s.guard_checks as f64, "count");
        m.put("blockcache.traps", self.block.traps as f64, "count");
        m.put("blockcache.flushes", self.block.flushes as f64, "count");
        m.put(
            "blockcache.bytes_copied",
            self.block.bytes_copied as f64,
            "B",
        );
    }
}
