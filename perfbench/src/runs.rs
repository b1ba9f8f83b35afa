//! The `steady` and `thrash` workloads: a fixed set of (benchmark, system)
//! cases, all built during set-up, then run back to back, one fresh
//! machine per run, with inputs drawn from the seed.

use crate::sim::{probe_build, run_one, Counters, RunOut};
use crate::trace::{layers, Tracer};
use crate::util::{median, peak_rss_mib, tail, Digest, Kernel, Setups, Yardstick};
use crate::Outcome;
use blockcache::BlockConfig;
use experiments::json::Json;
use experiments::measure::geomean;
use mibench::builder::{build, Built, MemoryProfile, System};
use mibench::{input_for, Benchmark};
use msp430_sim::Frequency;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use swapram::{PolicyKind, SwapConfig};

const FREQ: Frequency = Frequency::MHZ_24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The FRAM baseline every ratio is taken against.
    Baseline,
    /// SwapRAM: the system the `dev_*` metrics describe.
    Swap,
    /// The block-based comparison system.
    Block,
}

#[derive(Debug, Clone)]
struct Case {
    bench: Benchmark,
    label: &'static str,
    role: Role,
    system: System,
    /// Run in the timed loop; untimed cases run once, as a reference.
    timed: bool,
}

fn cases(workload: &str) -> Vec<Case> {
    let mut out = Vec::new();
    for bench in Benchmark::MIBENCH {
        let base = |timed| Case {
            bench,
            label: "baseline",
            role: Role::Baseline,
            system: System::Baseline,
            timed,
        };
        if workload == "steady" {
            out.push(base(true));
            out.push(Case {
                bench,
                label: "block-based",
                role: Role::Block,
                system: System::BlockCache(BlockConfig::unified_fr2355()),
                timed: true,
            });
            out.push(Case {
                bench,
                label: "SwapRAM",
                role: Role::Swap,
                system: System::SwapRam(SwapConfig::unified_fr2355()),
                timed: true,
            });
        } else {
            out.push(base(false));
            for (label, policy) in [
                ("SwapRAM-512/priority-cost", PolicyKind::PriorityCost),
                ("SwapRAM-512/stack", PolicyKind::Stack),
            ] {
                let cfg = SwapConfig {
                    cache_size: 0x200,
                    ..SwapConfig::unified_fr2355()
                }
                .with_policy(policy);
                out.push(Case {
                    bench,
                    label,
                    role: Role::Swap,
                    system: System::SwapRam(cfg),
                    timed: true,
                });
            }
        }
    }
    out
}

/// Inputs drawn per benchmark from the workload seed. Every (case, input)
/// pair is one operation of a pass.
const INPUTS: u64 = 6;

/// One operation: a built case and one of its benchmark's inputs.
struct Ready {
    case: Case,
    built: Rc<Built>,
    /// Which of the benchmark's inputs.
    input_idx: u64,
    input: Rc<Vec<u8>>,
    oracle: u32,
    label: String,
}

/// Builds every case once and draws each benchmark's inputs and oracle
/// checksums.
fn setup(cases: &[Case], seed: u64, tr: &Tracer) -> Result<Vec<Ready>, String> {
    let profile = MemoryProfile::unified();
    // (benchmark, input index) -> (input, oracle checksum)
    type Inputs = BTreeMap<(&'static str, u64), (Rc<Vec<u8>>, u32)>;
    let mut inputs = Inputs::new();
    let mut out = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let op = i as u64;
        if tr.enabled() {
            probe_build(case.bench, &case.system, &profile, tr, op);
        }
        let built = tr
            .span("mibench.build", op, || {
                build(case.bench, &case.system, &profile)
            })
            .map_err(|e| format!("{} {}: build failed: {e}", case.bench.name(), case.label))?;
        let built = Rc::new(built);
        for j in 0..INPUTS {
            let (input, oracle) = inputs
                .entry((case.bench.name(), j))
                .or_insert_with(|| {
                    let input = input_for(case.bench, seed.wrapping_mul(INPUTS).wrapping_add(j));
                    let oracle =
                        tr.span("mibench.oracle", op, || case.bench.oracle_checksum(&input));
                    (Rc::new(input), oracle)
                })
                .clone();
            let label = format!("{} {} input {j}", case.bench.name(), case.label);
            out.push(Ready {
                case: case.clone(),
                built: Rc::clone(&built),
                input_idx: j,
                input,
                oracle,
                label,
            });
        }
    }
    Ok(out)
}

/// Timed passes over every timed operation, repeated for a time budget.
struct Passes {
    /// Results of the first pass over every operation, untimed ones
    /// included.
    first: Vec<RunOut>,
    digest: String,
    /// Second-fastest time of each timed operation over the passes, at
    /// the reference speed (see `best`).
    best_ms: Vec<f64>,
    /// Sum of every timed operation's time, and the loop's wall time.
    busy_ms: f64,
    wall_s: f64,
    passes: u64,
    problems: Vec<String>,
}

impl Passes {
    /// Operations per second of a pass made of every operation's
    /// `best_ms`.
    fn ops_per_s(&self) -> f64 {
        self.best_ms.len() as f64 / (self.best_ms.iter().sum::<f64>() / 1e3)
    }
}

/// `between` runs before each pass, with the calibration kernel; its time
/// is left out of every figure.
fn passes(
    ready: &[Ready],
    seconds: f64,
    tr: &Tracer,
    yard: &mut Yardstick,
    between: &mut dyn FnMut(&mut Yardstick) -> Result<(), String>,
) -> Result<Passes, String> {
    let timed: Vec<(usize, &Ready)> = ready
        .iter()
        .enumerate()
        .filter(|(_, r)| r.case.timed)
        .collect();
    // Per pass, each timed operation's (yardstick clock, time).
    let mut raw: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut busy_ms = 0.0;
    let mut between_s = 0.0;
    let mut first: Option<(Vec<RunOut>, String)> = None;
    let mut problems = Vec::new();
    let mut n = 0u64;
    let t0 = Instant::now();
    loop {
        let mut digest = Digest::default();
        let mut outs = Vec::with_capacity(timed.len());
        let t = Instant::now();
        yard.sample();
        between(yard)?;
        between_s += t.elapsed().as_secs_f64();
        let pass_start = Instant::now();
        let mut raw_ms = Vec::with_capacity(timed.len());
        for (i, r) in &timed {
            let op = n * ready.len() as u64 + *i as u64;
            let (t, start) = (Instant::now(), yard.now());
            let out = tr.span("perfbench.op", op, || {
                run_one(&r.built, &r.input, r.oracle, FREQ, tr, op)
            })?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            raw_ms.push((start, ms));
            busy_ms += ms;
            digest.add(&out.digest_line(&r.label));
            outs.push(out);
        }
        raw.push(raw_ms);
        n += 1;
        let digest = digest.hex();
        match &first {
            None => first = Some((outs, digest)),
            Some((_, d)) if *d != digest => {
                problems.push(format!(
                    "pass {n} digest {digest} differs from the first pass {d}"
                ));
            }
            Some(_) => {}
        }
        if t0.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64() - between_s;
    yard.sample();
    let mut scaled: Vec<Vec<f64>> = vec![Vec::with_capacity(raw.len()); timed.len()];
    for pass in &raw {
        for (v, &(t, ms)) in scaled.iter_mut().zip(pass) {
            v.push(ms * yard.scale_at(t));
        }
    }
    let best_ms = scaled.iter_mut().map(|v| best(v)).collect();
    let (timed_outs, _) = first.expect("at least one pass ran");
    // Untimed reference operations run once, after the clock stopped.
    let mut timed_outs = timed_outs.into_iter();
    let mut all = Vec::with_capacity(ready.len());
    let mut digest = Digest::default();
    for r in ready {
        let out = if r.case.timed {
            timed_outs.next().expect("one result per timed operation")
        } else {
            run_one(&r.built, &r.input, r.oracle, FREQ, &Tracer::off(), 0)?
        };
        digest.add(&out.digest_line(&r.label));
        all.push(out);
    }
    Ok(Passes {
        first: all,
        digest: digest.hex(),
        best_ms,
        busy_ms,
        wall_s,
        passes: n,
        problems,
    })
}

/// An operation's steady time from its scaled times over the passes. The
/// box's noise only ever adds time, so the fastest times are the steady
/// estimate. The second-fastest is taken: a pass scaled too fast, when
/// the calibration kernel was slowed around it and the operations were
/// not, then cannot decide it. With the fastest, one `steady` run in ten
/// read 30% high. Over eight runs, the spread of `op_ms_p50` went from
/// 5.0% to 2.2% and that of `ops_per_s` from 1.4% to 2.5%. With a single
/// pass its only time is taken.
fn best(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[1.min(times.len() - 1)]
}

/// Instructions retired by one pass of the timed operations.
fn pass_instructions(ready: &[Ready], outs: &[RunOut]) -> u64 {
    ready
        .iter()
        .zip(outs)
        .filter(|(r, _)| r.case.timed)
        .map(|(_, out)| out.stats.total_instructions())
        .sum()
}

/// Runs `steady` or `thrash`.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let cases = cases(workload);
    let mut o = Outcome::default();
    if !trace {
        let mut yard = Yardstick::new(Kernel::Compute);
        // Set-up is builds and heap work, which `Alloc` follows better
        // than `Compute` (NOTES.md).
        let mut setup_yard = Yardstick::new(Kernel::Alloc);
        let mut setups = Setups::default();
        let ready = setups.first(&mut setup_yard, |_| setup(&cases, seed, &Tracer::off()))?;
        let p = passes(&ready, seconds, &Tracer::off(), &mut yard, &mut |_| {
            setups.due(&mut setup_yard, |_| setup(&cases, seed, &Tracer::off()))
        })?;
        let setup_s = setups.seconds(&setup_yard);
        let best_pass_s = p.best_ms.iter().sum::<f64>() / 1e3;
        let t = tail(&p.best_ms);
        let m = &mut o.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("ops_per_s", p.ops_per_s(), "1/s");
        m.put(
            "guest_mips",
            pass_instructions(&ready, &p.first) as f64 / (best_pass_s * 1e6),
            "instr/us",
        );
        m.put("op_ms_p50", median(&p.best_ms), "ms");
        m.put("op_ms_tail", t.value, "ms");
        m.put("peak_rss_mb", peak_rss_mib(), "MiB");
        o.info.push(("tail", crate::tail_json(&t, p.best_ms.len())));
        o.info.push(("passes", Json::U64(p.passes)));
        o.info.push(("setup_groups", Json::U64(setups.groups() as u64)));
        o.info.push(("yardstick", yard.json()));
        o.info.push(("setup_yardstick", setup_yard.json()));
        o.info.push((
            "raw_ops_per_s",
            Json::F64(p.best_ms.len() as f64 * p.passes as f64 / p.wall_s),
        ));
        o.attempted = p.passes * p.best_ms.len() as u64;
        device_metrics(&ready, &p.first, p.passes, &mut o);
        o.digest = p.digest;
        o.problems.extend(p.problems);
    } else {
        let mut yard = Yardstick::new(Kernel::Compute);
        let ready = setup(&cases, seed, &Tracer::off())?;
        let plain = passes(&ready, seconds / 2.0, &Tracer::off(), &mut yard, &mut |_| Ok(()))?;
        let tr = Tracer::on();
        let ready = setup(&cases, seed, &tr)?;
        let traced = passes(&ready, seconds / 2.0, &tr, &mut yard, &mut |_| Ok(()))?;
        if traced.digest != plain.digest {
            o.problems.push(format!(
                "stats digest of the traced run {} differs from the untraced run {}",
                traced.digest, plain.digest
            ));
        }
        o.attempted = (plain.passes + traced.passes) * plain.best_ms.len() as u64;
        let spans = tr.spans();
        let table = layers(&spans);
        let m = &mut o.metrics;
        crate::put_layer_times(
            m,
            &table,
            traced.passes * pass_instructions(&ready, &traced.first),
        );
        let mut c = Counters::default();
        for (_, out) in ready
            .iter()
            .zip(&traced.first)
            .filter(|(r, _)| r.case.timed)
        {
            c.add(out);
        }
        c.put(m);
        m.put("swapram.recovered_functions", 0.0, "count");
        m.put("swapram.boots_per_cell", 1.0, "boots");
        m.put("mibench.dnf_rate", 0.0, "ratio");
        m.put(
            "experiments.idle_frac",
            1.0 - plain.busy_ms / (plain.wall_s * 1e3),
            "ratio",
        );
        m.put(
            "trace.ops_per_s_ratio",
            traced.ops_per_s() / plain.ops_per_s(),
            "ratio",
        );
        o.info.push(("layers", crate::layers_json(&table)));
        o.spans = spans;
        o.digest = traced.digest;
        o.problems.extend(plain.problems);
        o.problems.extend(traced.problems);
        let timed_wrong = device_checks(&ready, &traced.first, &mut o);
        o.failed = timed_wrong * (plain.passes + traced.passes);
    }
    Ok(o)
}

/// Counts wrong outputs into `failed` and records them as problems.
/// Returns how many timed operations of one pass were wrong.
fn device_checks(ready: &[Ready], outs: &[RunOut], o: &mut Outcome) -> u64 {
    let mut timed_wrong = 0u64;
    for (r, out) in ready.iter().zip(outs) {
        if !out.ok {
            timed_wrong += u64::from(r.case.timed);
            o.problems.push(format!(
                "{}: exit {:?}, checksum {:08x}, oracle {:08x}",
                r.label, out.exit, out.checksum, r.oracle
            ));
        }
    }
    timed_wrong
}

/// The modeled-device metrics: SwapRAM against the baseline of the same
/// benchmark and input.
fn device_metrics(ready: &[Ready], outs: &[RunOut], passes: u64, o: &mut Outcome) {
    // Every pass repeats the first exactly (the digest check), so the
    // error rate of one pass is the error rate of the run.
    let timed_wrong = device_checks(ready, outs, o);
    let timed = ready.iter().filter(|r| r.case.timed).count() as f64;
    let error_rate = timed_wrong as f64 / timed;
    o.failed = timed_wrong * passes;
    let mut base: BTreeMap<(&str, u64), &RunOut> = BTreeMap::new();
    for (r, out) in ready.iter().zip(outs) {
        if r.case.role == Role::Baseline {
            base.insert((r.case.bench.name(), r.input_idx), out);
        }
    }
    let (mut speedup, mut fram, mut energy, mut ucpb) = (vec![], vec![], vec![], vec![]);
    for (r, out) in ready
        .iter()
        .zip(outs)
        .filter(|(r, _)| r.case.role == Role::Swap)
    {
        let b = base[&(r.case.bench.name(), r.input_idx)];
        speedup.push(b.stats.total_cycles() as f64 / out.stats.total_cycles() as f64);
        fram.push(out.stats.fram_accesses() as f64 / b.stats.fram_accesses() as f64);
        energy.push(out.energy_uj(FREQ) / b.energy_uj(FREQ));
        ucpb.push(useful_cycles_per_boot(
            b.stats.total_cycles(),
            out.stats.total_cycles(),
        ));
    }
    let m = &mut o.metrics;
    m.put("error_rate", error_rate, "ratio");
    m.put("correct_rate", 1.0 - error_rate, "ratio");
    m.put("dev_speedup_geo", geomean(&speedup), "x");
    m.put("dev_fram_ratio_geo", geomean(&fram), "ratio");
    m.put("dev_energy_ratio_geo", geomean(&energy), "ratio");
    m.put("dev_ucpb_p50", median(&ucpb), "cycles");
}

/// Length of the boot that `useful_cycles_per_boot` charges, in device
/// cycles.
const BOOT_CYCLES: f64 = 1_000_000.0;

/// Useful cycles per boot of a fault-free run: the work, in baseline
/// cycles, that the system completes in a boot of `BOOT_CYCLES` device
/// cycles. A fault-free run never loses power, so a boot of fixed length
/// stands in for the sweep's seeded schedules. It rises as the system's
/// cycle count falls.
fn useful_cycles_per_boot(base_cycles: u64, sys_cycles: u64) -> f64 {
    BOOT_CYCLES * base_cycles as f64 / sys_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::useful_cycles_per_boot;

    #[test]
    fn fewer_system_cycles_give_more_useful_cycles_per_boot() {
        let slow = useful_cycles_per_boot(100_000, 120_000);
        let fast = useful_cycles_per_boot(100_000, 80_000);
        assert!(fast > slow);
        assert_eq!(useful_cycles_per_boot(100_000, 100_000), 1_000_000.0);
    }
}
