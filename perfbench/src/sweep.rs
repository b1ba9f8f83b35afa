//! The `sweep` workload: the campaign's `full` spec, driven in-process
//! through `experiments::campaign` with a one-job harness and its state in
//! a scratch directory. The steps are those of a single campaign worker
//! (`prepare_dir`, then `worker_run`'s loop: claim each chunk, run its
//! cells through the harness pool, one shard line per row, then `merge`),
//! with each cell's batch timed.

use crate::sim::{probe_build, run_one, Counters};
use crate::trace::{layers, Tracer};
use crate::util::{median, peak_rss_mib, tail, Digest, Kernel, Metrics, Setups, Yardstick};
use crate::Outcome;
use experiments::campaign::{self, CampaignSpec, Cell, MergeOutcome};
use experiments::harness::{Harness, RunRecord};
use experiments::json::Json;
use experiments::measure::{geomean, SEED};
use mibench::builder::System;
use mibench::input_for;
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cells of ROADMAP item 1: stringsearch's data overlaps the stack and
/// the cache window under the 1024-byte split, so its outputs are wrong.
/// They are counted in `failed` and `error_rate`, never filtered out.
fn known_defect(row: &Json) -> bool {
    row.get("bench").and_then(Json::as_str) == Some("stringsearch")
        && row.get("split").and_then(Json::as_u64) == Some(0x400)
}

fn status(row: &Json) -> &str {
    row.get("status").and_then(Json::as_str).unwrap_or("?")
}

fn is_clean(row: &Json) -> bool {
    row.get("fault_seed") == Some(&Json::Null)
}

/// Status `ok` with the oracle's checksum.
fn is_ok(row: &Json) -> bool {
    status(row) == "ok" && row.get("correct").and_then(Json::as_bool) == Some(true)
}

/// One complete sweep.
struct Rep {
    h: Harness,
    rows: Vec<Json>,
    times: Times,
    digest: String,
}

/// A sweep's host times.
struct Times {
    /// Each `run_cell` call: (cell hash, ms, yardstick clock when it ran).
    lat_ms: Vec<(u64, f64, f64)>,
    wall_s: f64,
    /// Sweep time outside the `run_cell` calls (shard writes, merge), and
    /// the yardstick clock at its end.
    rest: (f64, f64),
}

impl Times {
    fn busy_ms(&self) -> f64 {
        self.lat_ms.iter().map(|(_, ms, _)| ms).sum()
    }

    /// Each cell's time and the rest-of-sweep time, in s, at the
    /// reference speed.
    fn at_ref_speed(&self, yard: &Yardstick) -> (Vec<(u64, f64)>, f64) {
        let cells = self
            .lat_ms
            .iter()
            .map(|&(h, ms, t)| (h, ms * yard.scale_at(t) / 1e3));
        (cells.collect(), self.rest.0 * yard.scale_at(self.rest.1))
    }

    /// Cells per second at the reference speed.
    fn ops_per_s(&self, yard: &Yardstick) -> f64 {
        let (cells, rest) = self.at_ref_speed(yard);
        cells.len() as f64 / (cells.iter().map(|(_, s)| s).sum::<f64>() + rest)
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The sweep's worker token, as `worker_run` names worker 0.
const TOKEN: &str = "w0";

/// Claims chunk `idx` the way `worker_run` does: creating its claim file.
/// Returns `false` when the chunk is already claimed.
fn claim(dir: &Path, idx: usize) -> std::io::Result<bool> {
    let path = dir
        .join(campaign::CLAIM_DIR)
        .join(format!("chunk-{idx}.claim"));
    match fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(TOKEN.as_bytes());
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// One sweep. `between` runs before each chunk, with the calibration
/// kernel; its time is left out of every figure.
fn rep(
    spec: &CampaignSpec,
    dir: &Path,
    tr: &Tracer,
    yard: &mut Yardstick,
    between: &mut dyn FnMut(&mut Yardstick) -> Result<(), String>,
) -> Result<Rep, String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(io_err("clearing the campaign directory"))?;
    }
    let h = Harness::with_jobs(1);
    tr.span("experiments.prepare_dir", 0, || {
        campaign::prepare_dir(dir, spec, 1)
    })
    .map_err(io_err("prepare_dir"))?;

    let cells = spec.cells();
    let by_hash: BTreeMap<u64, &Cell> = cells.iter().map(|c| (c.hash(), c)).collect();
    let chunks =
        campaign::read_manifest(dir, spec, cells.len()).map_err(io_err("read_manifest"))?;
    let shard_path = dir.join(campaign::SHARD_DIR).join(format!("{TOKEN}.jsonl"));
    let file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&shard_path)
        .map_err(io_err("opening the shard"))?;
    let mut shard = BufWriter::new(file);
    let mut lat_ms = Vec::with_capacity(cells.len());
    let mut between_s = 0.0;
    let t0 = Instant::now();
    // The steps of `campaign::worker_run(dir, spec, &h, 0, 1, None)`, kept
    // in step with it so that its figures are the worker's: claim each
    // chunk in turn, run its cells in batches of `h.jobs()` (one cell) on
    // the harness pool, append one shard line per cell and flush per
    // batch. NOTES.md lists what differs.
    for (idx, chunk) in chunks.iter().enumerate() {
        let t = Instant::now();
        yard.sample();
        between(yard)?;
        between_s += t.elapsed().as_secs_f64();
        if !claim(dir, idx).map_err(io_err("claiming a chunk"))? {
            continue;
        }
        for hash in chunk {
            let cell = by_hash[hash];
            let op = lat_ms.len() as u64;
            let (t, start) = (Instant::now(), yard.now());
            let row = tr.span("experiments.run_cell", op, || {
                if tr.enabled() {
                    // The cell's builds, made here so their time is seen;
                    // run_cell then finds them in the harness.
                    tr.span("mibench.build", op, || {
                        black_box(h.build(cell.bench, &System::Baseline, &cell.profile()));
                        black_box(h.build(cell.bench, &cell.system(), &cell.profile()));
                    });
                }
                let mut rows = h.parallel_map(vec![cell], |c| campaign::run_cell(&h, c));
                rows.pop().expect("one row per cell")
            });
            lat_ms.push((
                *hash,
                t.elapsed().as_secs_f64() * 1e3,
                (start + yard.now()) / 2.0,
            ));
            write!(shard, "{hash:016x}\t").map_err(io_err("writing the shard"))?;
            row.write_compact(&mut shard)
                .map_err(io_err("writing the shard"))?;
            shard
                .write_all(b"\n")
                .map_err(io_err("writing the shard"))?;
            shard.flush().map_err(io_err("flushing the shard"))?;
        }
    }
    shard.flush().map_err(io_err("flushing the shard"))?;
    let merged = tr.span("experiments.merge", 0, || campaign::merge(dir, spec));
    let wall_s = t0.elapsed().as_secs_f64() - between_s;
    let busy_s = lat_ms.iter().map(|(_, ms, _)| ms).sum::<f64>() / 1e3;
    let rest = (wall_s - busy_s, yard.now());
    yard.sample();
    let doc = match merged.map_err(io_err("merge"))? {
        MergeOutcome::Complete(doc) => doc,
        MergeOutcome::Incomplete { done, total } => {
            return Err(format!("merge found {done} of {total} cells"));
        }
    };
    let rows = doc
        .get("cells")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    let _ = fs::remove_dir_all(dir);

    let mut digest = Digest::default();
    for row in &rows {
        digest.add(&row.render());
    }
    for (rec, _) in h.records() {
        digest.add(&record_line(&rec));
    }
    Ok(Rep {
        h,
        rows,
        times: Times {
            lat_ms,
            wall_s,
            rest,
        },
        digest: digest.hex(),
    })
}

/// A memoized run's simulated outcome, without its wall-clock field.
fn record_line(r: &RunRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{:?}",
        r.bench.name(),
        r.config,
        r.profile,
        r.variant,
        r.freq_mhz,
        r.result
    )
}

/// Runs the sweep workload.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let spec = CampaignSpec::full(seed);
    let dir = work.join("campaign");
    let mut o = Outcome::default();
    if !trace {
        let mut yard = Yardstick::new(Kernel::Alloc);
        // Set-up: a fresh harness and campaign directory. Each set-up
        // gets a directory of its own; they are removed after each group.
        let setup_root = work.join("setup");
        let setup = |i: usize| {
            black_box(Harness::with_jobs(1));
            campaign::prepare_dir(&setup_root.join(i.to_string()), &spec, 1)
                .map_err(io_err("prepare_dir"))
        };
        let mut setups = Setups::default();
        setups.first(&mut yard, setup)?;
        let _ = fs::remove_dir_all(&setup_root);
        let mut between = |yard: &mut Yardstick| {
            setups.due(yard, setup)?;
            let _ = fs::remove_dir_all(&setup_root);
            Ok(())
        };
        let t0 = Instant::now();
        let first = rep(&spec, &dir, &Tracer::off(), &mut yard, &mut between)?;
        let mut dev = Metrics::default();
        device_metrics(&first, &mut dev);
        let instructions = record_instructions(&first.h);
        // Only the timings of later sweeps are kept, so memory does not
        // grow with the number of sweeps.
        let Rep {
            rows,
            times: first_times,
            digest,
            ..
        } = first;
        let mut times = vec![first_times];
        while t0.elapsed().as_secs_f64() + times[0].wall_s <= seconds {
            let r = rep(&spec, &dir, &Tracer::off(), &mut yard, &mut between)?;
            if r.digest != digest {
                o.problems.push(format!(
                    "sweep {} digest {} differs from the first sweep {digest}",
                    times.len() + 1,
                    r.digest,
                ));
            }
            times.push(r.times);
        }
        // The box's noise only ever adds time, so each cell's fastest time
        // over the sweeps, and the fastest rest-of-sweep (shard writes and
        // merge), are the steady estimates; all at the reference speed.
        let mut min_ms: BTreeMap<u64, f64> = BTreeMap::new();
        let mut min_rest_s = f64::INFINITY;
        for t in &times {
            let (cells, rest) = t.at_ref_speed(&yard);
            for (hash, s) in cells {
                let m = min_ms.entry(hash).or_insert(f64::INFINITY);
                *m = m.min(s * 1e3);
            }
            min_rest_s = min_rest_s.min(rest);
        }
        let reps = times.len() as u64;
        let raw_cells: usize = times.iter().map(|t| t.lat_ms.len()).sum();
        let raw_wall_s: f64 = times.iter().map(|t| t.wall_s).sum();
        let best_sweep_s = min_ms.values().sum::<f64>() / 1e3 + min_rest_s;
        // Latency is per configuration point: a point's fault-free cell
        // and its power-loss sibling. Whichever of the two runs first pays
        // for the shared fault-free measurement and the other finds it in
        // the harness, so per-cell times are bimodal and their median
        // would sit on the boundary between the modes.
        let mut point_ms: BTreeMap<String, f64> = BTreeMap::new();
        for cell in spec.cells() {
            *point_ms.entry(cell.point_key()).or_default() += min_ms[&cell.hash()];
        }
        let point_ms: Vec<f64> = point_ms.into_values().collect();
        let t = tail(&point_ms);
        let m = &mut o.metrics;
        m.put("setup_s", setups.seconds(&yard), "s");
        m.put("ops_per_s", min_ms.len() as f64 / best_sweep_s, "1/s");
        m.put(
            "guest_mips",
            instructions as f64 / (best_sweep_s * 1e6),
            "instr/us",
        );
        m.put("op_ms_p50", median(&point_ms), "ms");
        m.put("op_ms_tail", t.value, "ms");
        m.put("peak_rss_mb", peak_rss_mib(), "MiB");
        o.info.push(("tail", crate::tail_json(&t, point_ms.len())));
        o.info.push(("sweeps", Json::U64(reps)));
        o.info.push(("setup_groups", Json::U64(setups.groups() as u64)));
        o.info.push(("yardstick", yard.json()));
        o.info
            .push(("raw_ops_per_s", Json::F64(raw_cells as f64 / raw_wall_s)));
        outcomes(&rows, reps, &mut o);
        o.metrics.0.extend(dev.0);
        o.digest = digest;
    } else {
        let mut yard = Yardstick::new(Kernel::Alloc);
        let plain = rep(&spec, &dir, &Tracer::off(), &mut yard, &mut |_| Ok(()))?;
        let tr = Tracer::on();
        let traced = rep(&spec, &dir, &tr, &mut yard, &mut |_| Ok(()))?;
        if traced.digest != plain.digest {
            o.problems.push(format!(
                "stats digest of the traced sweep {} differs from the untraced sweep {}",
                traced.digest, plain.digest
            ));
        }
        tr.span("experiments.summary", 0, || {
            black_box(campaign::summary_json(&traced.rows))
        });
        let counters = probe(&spec, &traced, &tr, &mut o);
        outcomes(&traced.rows, 2, &mut o);
        let spans = tr.spans();
        let table = layers(&spans);
        let m = &mut o.metrics;
        crate::put_layer_times(m, &table, counters.instructions());
        counters.put(m);
        let faulted: Vec<&Json> = traced.rows.iter().filter(|r| !is_clean(r)).collect();
        let sum = |rows: &[&Json], f: &str| -> f64 {
            rows.iter()
                .filter_map(|r| r.get(f).and_then(Json::as_u64))
                .sum::<u64>() as f64
        };
        m.put(
            "swapram.recovered_functions",
            sum(&faulted, "recovered_functions"),
            "count",
        );
        m.put(
            "swapram.boots_per_cell",
            sum(&faulted, "boots") / faulted.len().max(1) as f64,
            "boots",
        );
        let dnf = traced.rows.iter().filter(|r| status(r) == "dnf").count();
        m.put(
            "mibench.dnf_rate",
            dnf as f64 / traced.rows.len() as f64,
            "ratio",
        );
        let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
        // The untraced sweep's harness: the traced one also served the
        // span-visible builds and the probes.
        let h = &plain.h;
        m.put(
            "experiments.build_hit_ratio",
            ratio(h.build_hits(), h.build_misses()),
            "ratio",
        );
        m.put(
            "experiments.run_hit_ratio",
            ratio(h.run_hits(), h.run_misses()),
            "ratio",
        );
        let threads = plain.h.jobs() as f64;
        let busy_ms = plain.times.busy_ms();
        m.put(
            "experiments.idle_frac",
            1.0 - busy_ms / (threads * plain.times.wall_s * 1e3),
            "ratio",
        );
        let ratio = traced.times.ops_per_s(&yard) / plain.times.ops_per_s(&yard);
        m.put("trace.ops_per_s_ratio", ratio, "ratio");
        o.info.push(("layers", crate::layers_json(&table)));
        o.spans = spans;
        o.digest = traced.digest;
    }
    Ok(o)
}

/// Instructions retired by the harness's memoized fault-free runs. The
/// power-loss episodes do not report their instruction counts, so they
/// are left out.
fn record_instructions(h: &Harness) -> u64 {
    h.records()
        .iter()
        .filter_map(|(r, _)| r.result.as_ref().ok())
        .map(|m| m.stats.total_instructions())
        .sum()
}

/// Counts the sweep's wrong and failed cells. Unknown ones are problems;
/// the known-defect cells are counted and reported, not excused.
fn outcomes(rows: &[Json], reps: u64, o: &mut Outcome) {
    let (mut wrong, mut failed, mut dnf, mut known) = (0u64, 0u64, 0u64, 0u64);
    for row in rows {
        let bad = match status(row) {
            "dnf" => {
                dnf += 1;
                false
            }
            "ok" if is_ok(row) => false,
            "ok" => {
                wrong += 1;
                true
            }
            _ => {
                failed += 1;
                true
            }
        };
        if bad {
            if known_defect(row) {
                known += 1;
            } else {
                let key = row.get("key").and_then(Json::as_str).unwrap_or("?");
                o.problems
                    .push(format!("cell {key}: status {}, wrong output", status(row)));
            }
        }
    }
    let n = rows.len() as u64;
    o.attempted = n * reps;
    o.failed = (wrong + failed) * reps;
    o.metrics
        .put("error_rate", (wrong + failed) as f64 / n as f64, "ratio");
    o.metrics.put(
        "correct_rate",
        1.0 - (wrong + failed) as f64 / n as f64,
        "ratio",
    );
    o.info.push((
        "cells",
        Json::obj(vec![
            ("attempted", Json::U64(n)),
            ("wrong", Json::U64(wrong)),
            ("failed", Json::U64(failed)),
            ("dnf", Json::U64(dnf)),
            ("known_defect", Json::U64(known)),
        ]),
    ));
}

/// The modeled-device metrics over the fault-free cells whose output is
/// correct: SwapRAM against the baseline at the same profile and clock.
fn device_metrics(rep: &Rep, m: &mut Metrics) {
    let speedup: Vec<f64> = rep
        .rows
        .iter()
        .filter(|r| is_clean(r) && is_ok(r))
        .filter_map(|r| {
            let base = r.get("base_cycles").and_then(Json::as_f64)?;
            let sys = r.get("clean_cycles").and_then(Json::as_f64)?;
            Some(base / sys)
        })
        .collect();
    let records: Vec<Arc<RunRecord>> = rep.h.records().into_iter().map(|(r, _)| r).collect();
    let baseline: BTreeMap<(&str, &str, u32), _> = records
        .iter()
        .filter(|r| r.system == "baseline")
        .filter_map(|r| {
            Some((
                (r.bench.name(), r.profile, r.freq_mhz),
                r.result.as_ref().ok()?,
            ))
        })
        .collect();
    let (mut fram, mut energy) = (vec![], vec![]);
    for r in records.iter().filter(|r| r.system == "SwapRAM") {
        let Ok(m) = &r.result else { continue };
        let Some(b) = baseline.get(&(r.bench.name(), r.profile, r.freq_mhz)) else {
            continue;
        };
        if m.correct {
            fram.push(m.fram_accesses() as f64 / b.fram_accesses() as f64);
            energy.push(m.energy_ratio_vs(b));
        }
    }
    let ucpb: Vec<f64> = rep
        .rows
        .iter()
        .filter(|r| !is_clean(r) && is_ok(r))
        .filter_map(|r| r.get("ucpb").and_then(Json::as_f64))
        .collect();
    m.put("dev_speedup_geo", geomean(&speedup), "x");
    m.put("dev_fram_ratio_geo", geomean(&fram), "ratio");
    m.put("dev_energy_ratio_geo", geomean(&energy), "ratio");
    m.put("dev_ucpb_p50", median(&ucpb), "cycles");
}

/// Repeats, one layer at a time, the builds and fault-free runs the
/// sweep's harness made, so the build and machine layers get spans of
/// their own. Each probe run must match the harness's record exactly.
fn probe(spec: &CampaignSpec, rep: &Rep, tr: &Tracer, o: &mut Outcome) -> Counters {
    let records: BTreeMap<String, Arc<RunRecord>> = rep
        .h
        .records()
        .into_iter()
        .map(|(r, _)| {
            (
                format!(
                    "{}|{}|{}|{}",
                    r.bench.name(),
                    r.config,
                    r.profile,
                    r.freq_mhz
                ),
                r,
            )
        })
        .filter(|(_, r)| r.variant.is_empty())
        .collect();
    let mut builds_seen = std::collections::BTreeSet::new();
    let mut runs_seen = std::collections::BTreeSet::new();
    let mut counters = Counters::default();
    let mut op = 0u64;
    for cell in spec.cells().iter().filter(|c| c.fault_seed.is_none()) {
        let profile = cell.profile();
        for system in [System::Baseline, cell.system()] {
            let build_key = format!("{}|{system:?}|{}", cell.bench.name(), profile.name);
            if builds_seen.insert(build_key.clone()) {
                probe_build(cell.bench, &system, &profile, tr, op);
            }
            let run_key = format!(
                "{}|{system:?}|{}|{}",
                cell.bench.name(),
                profile.name,
                cell.freq.mhz
            );
            if !runs_seen.insert(run_key.clone()) {
                continue;
            }
            let built = rep.h.build(cell.bench, &system, &profile);
            let Ok(built) = built.as_ref() else { continue };
            let input = input_for(cell.bench, SEED);
            let oracle = tr.span("mibench.oracle", op, || cell.bench.oracle_checksum(&input));
            match run_one(built, &input, oracle, cell.freq, tr, op) {
                Ok(out) => {
                    let rec = records.get(&run_key).and_then(|r| r.result.as_ref().ok());
                    if rec.map(|m| (&m.stats, m.correct)) != Some((&out.stats, out.ok)) {
                        o.problems
                            .push(format!("probe run {run_key} disagrees with the harness"));
                    }
                    counters.add(&out);
                }
                Err(e) => o.problems.push(format!("probe run {run_key}: {e}")),
            }
            op += 1;
        }
    }
    counters
}
