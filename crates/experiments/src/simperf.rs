//! Simulator-performance section: interpreter vs pre-decoded wall clock.
//!
//! Times the fault-free benchmark matrix (9 MiBench benchmarks × 3
//! instruction-supply systems × operating frequencies) under both
//! execution engines and reports the wall-clock speedup of the
//! pre-decoded engine. Every timed pair is also checked for observable
//! equivalence, so a row that got faster by *computing something else*
//! is reported as non-identical rather than as a win.
//!
//! Wall-clock numbers are inherently machine-dependent, so this section
//! is **not** part of the memoized experiment report (`bin/all`), whose
//! stdout must be byte-identical across worker counts; it has its own
//! binary (`bin/simperf`) and its own JSON artifact.

use crate::json::Json;
use crate::measure::{geomean, systems, MAX_CYCLES, SEED};
use crate::report::Table;
use mibench::{build, input_for, run_on, Benchmark, Built, MemoryProfile, RunResult};
use msp430_sim::machine::Fr2355;
use msp430_sim::{Engine, Frequency};
use std::time::Instant;

/// One timed benchmark × system × frequency cell.
#[derive(Debug, Clone)]
pub struct SimPerfRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// System label (`baseline` / `block-based` / `SwapRAM`).
    pub system: &'static str,
    /// CPU frequency in MHz.
    pub freq_mhz: u32,
    /// Simulated instructions per run (identical under both engines).
    pub instructions: u64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// Best-of-N interpreter wall clock, milliseconds.
    pub interp_ms: f64,
    /// Best-of-N pre-decoded wall clock, milliseconds.
    pub predecoded_ms: f64,
    /// `interp_ms / predecoded_ms`.
    pub speedup: f64,
    /// Whether the two engines produced identical observable results.
    pub identical: bool,
}

/// Runs `built` once under `engine` and returns (wall ms, result).
fn run_once(built: &Built, freq: Frequency, input: &[u8], engine: Engine) -> (f64, RunResult) {
    let mut machine = Fr2355::machine(freq);
    machine.set_engine(engine);
    let t0 = Instant::now();
    let result = run_on(&mut machine, built, input, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} under {engine:?} died: {e:?}", built.bench.name()));
    (t0.elapsed().as_secs_f64() * 1e3, result)
}

/// Best-of-N wall clock (minimum is the standard estimator for timing
/// noise — the true cost plus the least interference). A fixed rep
/// count leaves sub-millisecond cells at the mercy of scheduler blips
/// that barely dent a 10 ms cell, so each cell repeats until
/// `budget_ms` of measurement has accumulated (criterion-style), with
/// at least `min_reps` and at most `MAX_REPS` runs.
fn time_engine(
    built: &Built,
    freq: Frequency,
    input: &[u8],
    engine: Engine,
    min_reps: u32,
    budget_ms: f64,
) -> (f64, RunResult) {
    /// Rep ceiling so a pathologically fast cell still terminates.
    const MAX_REPS: u32 = 24;
    let (mut best, result) = run_once(built, freq, input, engine);
    let mut total = best;
    let mut n = 1;
    while n < min_reps || (total < budget_ms && n < MAX_REPS) {
        let (ms, _) = run_once(built, freq, input, engine);
        best = best.min(ms);
        total += ms;
        n += 1;
    }
    (best, result)
}

/// Times the full fault-free matrix. `fast` trims to one frequency and
/// a smaller per-cell time budget (the CI configuration).
pub fn run(fast: bool) -> Vec<SimPerfRow> {
    let freqs: &[Frequency] =
        if fast { &[Frequency::MHZ_24] } else { &[Frequency::MHZ_8, Frequency::MHZ_24] };
    let (min_reps, budget_ms) = if fast { (2, 8.0) } else { (3, 16.0) };
    let mut rows = Vec::new();
    for (label, system) in systems() {
        for bench in Benchmark::MIBENCH {
            let built = build(bench, &system, &MemoryProfile::unified())
                .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
            let input = input_for(bench, SEED);
            for &freq in freqs {
                let (interp_ms, ri) =
                    time_engine(&built, freq, &input, Engine::Interp, min_reps, budget_ms);
                let (predecoded_ms, rp) =
                    time_engine(&built, freq, &input, Engine::Predecoded, min_reps, budget_ms);
                let stats = &ri.outcome.stats;
                rows.push(SimPerfRow {
                    bench,
                    system: label,
                    freq_mhz: freq.mhz,
                    instructions: stats.instructions.iter().sum(),
                    cycles: stats.total_cycles(),
                    interp_ms,
                    predecoded_ms,
                    speedup: interp_ms / predecoded_ms,
                    identical: ri == rp,
                });
            }
        }
    }
    rows
}

/// Geometric-mean speedup across all rows.
pub fn geomean_speedup(rows: &[SimPerfRow]) -> f64 {
    let xs: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    geomean(&xs)
}

/// JSON document for the `simperf` artifact.
pub fn rows_json(rows: &[SimPerfRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("bench", Json::str(r.bench.name())),
                    ("system", Json::str(r.system)),
                    ("freq_mhz", Json::U64(u64::from(r.freq_mhz))),
                    ("instructions", Json::U64(r.instructions)),
                    ("cycles", Json::U64(r.cycles)),
                    ("interp_ms", Json::F64(r.interp_ms)),
                    ("predecoded_ms", Json::F64(r.predecoded_ms)),
                    ("speedup", Json::F64(r.speedup)),
                    ("identical", Json::Bool(r.identical)),
                ])
            })
            .collect(),
    )
}

/// Human-readable table.
pub fn render(rows: &[SimPerfRow]) -> String {
    let mut t = Table::new(
        "Simulator performance — interpreter vs pre-decoded engine",
        &["benchmark", "system", "MHz", "instrs", "interp ms", "predecoded ms", "speedup", "identical"],
    );
    for r in rows {
        t.row(vec![
            r.bench.short_name().into(),
            r.system.into(),
            r.freq_mhz.to_string(),
            r.instructions.to_string(),
            format!("{:.2}", r.interp_ms),
            format!("{:.2}", r.predecoded_ms),
            format!("{:.2}x", r.speedup),
            if r.identical { "yes".into() } else { "NO".into() },
        ]);
    }
    t.note(format!("geomean speedup: {:.2}x over {} cells", geomean_speedup(rows), rows.len()));
    t.render()
}
