//! # Fleet-scale campaign engine
//!
//! The paper evaluates SwapRAM on 9 benchmarks × a handful of memory
//! profiles; a deployed fleet is millions of devices with heterogeneous
//! memories, clocks and duty cycles. This module sweeps *thousands* of
//! configurations — cache geometry (SRAM split + cache size), clock
//! frequency, eviction policy, metadata guards, ISR protocol, recovery
//! mode, and seeded power-loss schedules — and scales the evaluation with
//! cores × processes instead of one process:
//!
//! * A [`CampaignSpec`] enumerates the cross-product as [`Cell`]s, each
//!   keyed by a canonical config string and a stable FNV-1a hash.
//! * Execution fans out over **multi-process work-stealing workers**
//!   (`campaign --worker` children): the coordinator chunks the pending
//!   cell hashes into a shared *manifest* of hash-ranges, and workers
//!   claim chunks with atomic `create_new` claim files, running the cells
//!   of each claimed chunk on their own `SWAPRAM_JOBS`-way
//!   [`Harness::parallel_map`] pool.
//! * Workers append finished rows to **sharded, streamed result files**
//!   (`shards/<token>.jsonl`, one `hash\tcompact-json` line per cell,
//!   flushed per batch). The merge step orders rows **by config key,
//!   never completion order**, so a `SWAPRAM_JOBS=1` single-process run
//!   and an N-process run produce byte-identical `BENCH_campaign.json`.
//! * Campaigns are **resumable**: completed config hashes found in the
//!   shards are skipped when the manifest is rebuilt, so a killed
//!   campaign loses at most the cells that were in flight.
//! * The summary reporter emits per-axis percentiles (p50/p90/p99
//!   miss-cycle overhead, useful-cycles-per-boot) and pareto frontiers
//!   (SRAM bytes vs cycles, overhead vs forward progress) — the
//!   `BENCHMARKS.md` tables.
//!
//! Everything layers on the existing [`Harness`] memoization: a cell's
//! baseline and clean reference runs ride [`Harness::measure`] (shared
//! across cells of one process), and faulted cells run through the fault
//! suites' episode executor (`faults::power_loss_episode`).

use crate::harness::Harness;
use crate::json::{self, Json};
use crate::report::Table;
use crate::faults::{self, recovery_name, FaultRow};
use mibench::builder::{MemoryProfile, System};
use mibench::Benchmark;
use msp430_sim::freq::Frequency;
use msp430_sim::rng::SplitMix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use swapram::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};

/// Subdirectory holding the sharded result files.
pub const SHARD_DIR: &str = "shards";
/// Subdirectory holding the chunk claim files.
pub const CLAIM_DIR: &str = "claims";
/// The shared manifest of pending hash-ranges.
pub const MANIFEST: &str = "manifest.txt";

/// FNV-1a 64-bit hash — the stable config hash keying every cell across
/// processes, restarts and platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interrupt configuration of a cell: off, or the periodic LFSR ISR
/// harness under one of the two critical-section protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsrMode {
    /// No interrupt harness (the paper's single-threaded figures).
    Off,
    /// Harness armed, reentrancy-hardened runtime.
    Masked,
    /// Harness armed, the paper's unprotected trust model.
    Unprotected,
}

impl IsrMode {
    /// Deterministic report name.
    pub fn name(self) -> &'static str {
        match self {
            IsrMode::Off => "off",
            IsrMode::Masked => "masked",
            IsrMode::Unprotected => "unprotected",
        }
    }
}

/// Deterministic report name of an eviction policy.
pub fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::CircularQueue => "circular-queue",
        PolicyKind::Stack => "stack",
        PolicyKind::PriorityCost => "priority-cost",
        PolicyKind::FreezeOnThrash => "freeze-on-thrash",
    }
}

/// One configuration cell of the sweep — everything needed to rebuild and
/// rerun it deterministically in any process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Which benchmark.
    pub bench: Benchmark,
    /// SRAM bytes reserved for program data/stack (0 = unified profile:
    /// data and stack in FRAM, whole SRAM available to the cache).
    pub split: u16,
    /// Software-cache size in bytes (from the cache base).
    pub cache_size: u16,
    /// Operating point.
    pub freq: Frequency,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Metadata CRC guards on/off.
    pub guards: bool,
    /// Crash-recovery protocol.
    pub recovery: RecoveryMode,
    /// Interrupt harness mode.
    pub isr: IsrMode,
    /// Seeded power-loss schedule, or `None` for the fault-free cell.
    pub fault_seed: Option<u64>,
}

impl Cell {
    /// Canonical config key: the merge order and the hash preimage.
    pub fn key(&self) -> String {
        let mut k = self.point_key();
        match self.fault_seed {
            None => k.push_str("|fault=none"),
            Some(s) => {
                let _ = write!(k, "|fault={s:016x}");
            }
        }
        k
    }

    /// The key without the fault axis — identifies the configuration
    /// *point* a fault schedule is drawn for.
    pub fn point_key(&self) -> String {
        format!(
            "{}|split={:04x}|cache={:04x}|{}MHz|{}|guards={}|{}|isr={}",
            self.bench.name(),
            self.split,
            self.cache_size,
            self.freq.mhz,
            policy_name(self.policy),
            if self.guards { "on" } else { "off" },
            recovery_name(self.recovery),
            self.isr.name(),
        )
    }

    /// Stable config hash (FNV-1a of [`Cell::key`]).
    pub fn hash(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// Deterministic profile name for reports.
    pub fn profile_name(&self) -> String {
        if self.split == 0 { "unified".to_string() } else { format!("split-{}", self.split) }
    }

    /// The memory profile this cell builds against.
    pub fn profile(&self) -> MemoryProfile {
        if self.split == 0 {
            MemoryProfile::unified()
        } else {
            MemoryProfile::split_sram(self.split)
        }
    }

    /// The SwapRAM configuration this cell runs.
    pub fn config(&self) -> SwapConfig {
        let base = SwapConfig::unified_fr2355();
        let cache_base = 0x2000 + self.split;
        let mut cfg = SwapConfig {
            cache_base,
            cache_size: self.cache_size,
            ..base
        }
        .with_policy(self.policy)
        .with_guards(self.guards)
        .with_recovery(self.recovery);
        match self.isr {
            IsrMode::Off => {}
            IsrMode::Masked => {
                cfg = cfg.with_irq_harness(true).with_isr_protocol(IsrProtocol::Masked);
            }
            IsrMode::Unprotected => {
                cfg = cfg.with_irq_harness(true).with_isr_protocol(IsrProtocol::Unprotected);
            }
        }
        cfg
    }

    /// The system under test.
    pub fn system(&self) -> System {
        System::SwapRam(self.config())
    }
}

/// A campaign sweep specification: the axes whose cross-product is the
/// cell set. Presets keep each axis wide in exactly one tier so the total
/// stays tractable: `full` sweeps geometry × frequency × policy wide,
/// `fast` (CI) sweeps guards × recovery × ISR wide, `tiny` is the test
/// fixture.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Preset name (`tiny` / `fast` / `full`).
    pub name: &'static str,
    /// Base seed for the fault-schedule axis.
    pub base_seed: u64,
    /// Benchmarks swept.
    pub benches: Vec<Benchmark>,
    /// SRAM data splits swept (0 = unified).
    pub splits: Vec<u16>,
    /// Cache sizes swept (cells whose size exceeds the SRAM left by the
    /// split are skipped).
    pub cache_sizes: Vec<u16>,
    /// Operating points swept.
    pub freqs: Vec<Frequency>,
    /// Eviction policies swept.
    pub policies: Vec<PolicyKind>,
    /// Guard modes swept.
    pub guard_modes: Vec<bool>,
    /// Recovery protocols swept.
    pub recoveries: Vec<RecoveryMode>,
    /// ISR modes swept (non-`Off` modes only apply to unified cells — the
    /// interrupt harness assumes the unified layout).
    pub isr_modes: Vec<IsrMode>,
    /// Seeded power-loss schedules per configuration point, in addition
    /// to the fault-free cell.
    pub fault_schedules: u32,
}

impl CampaignSpec {
    /// Looks up a preset by name.
    pub fn preset(name: &str, base_seed: u64) -> Option<CampaignSpec> {
        match name {
            "tiny" => Some(CampaignSpec::tiny(base_seed)),
            "fast" => Some(CampaignSpec::fast(base_seed)),
            "full" => Some(CampaignSpec::full(base_seed)),
            _ => None,
        }
    }

    /// Test-tier sweep (~24 cells): two benchmarks × three cache sizes ×
    /// two policies, fault-free + one schedule each.
    pub fn tiny(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "tiny",
            base_seed,
            benches: vec![Benchmark::Crc, Benchmark::Bitcount],
            splits: vec![0],
            cache_sizes: vec![0x1000, 0x600, 0x300],
            freqs: vec![Frequency::MHZ_24],
            policies: vec![PolicyKind::CircularQueue, PolicyKind::Stack],
            guard_modes: vec![true],
            recoveries: vec![RecoveryMode::FullScan],
            isr_modes: vec![IsrMode::Off],
            fault_schedules: 1,
        }
    }

    /// CI-tier sweep (192 cells): guards × recovery × ISR wide on three
    /// benchmarks and two cache sizes.
    pub fn fast(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "fast",
            base_seed,
            benches: vec![Benchmark::Crc, Benchmark::Rc4, Benchmark::Bitcount],
            splits: vec![0],
            cache_sizes: vec![0x400, 0x1000],
            freqs: vec![Frequency::MHZ_24],
            policies: vec![PolicyKind::CircularQueue, PolicyKind::PriorityCost],
            guard_modes: vec![true, false],
            recoveries: vec![RecoveryMode::FullScan, RecoveryMode::DirtyLog],
            isr_modes: vec![IsrMode::Off, IsrMode::Masked],
            fault_schedules: 1,
        }
    }

    /// Fleet-tier sweep (1296 cells): all nine benchmarks × cache
    /// geometry × frequency × all four policies, fault-free + one
    /// schedule each.
    pub fn full(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "full",
            base_seed,
            benches: Benchmark::MIBENCH.to_vec(),
            splits: vec![0, 0x400],
            cache_sizes: vec![0x200, 0x400, 0x800, 0xC00, 0x1000],
            freqs: vec![Frequency::MHZ_8, Frequency::MHZ_24],
            policies: vec![
                PolicyKind::CircularQueue,
                PolicyKind::Stack,
                PolicyKind::PriorityCost,
                PolicyKind::FreezeOnThrash,
            ],
            guard_modes: vec![true],
            recoveries: vec![RecoveryMode::FullScan],
            isr_modes: vec![IsrMode::Off],
            fault_schedules: 1,
        }
    }

    /// Enumerates every cell of the sweep, sorted by config key. The
    /// enumeration is a pure function of the spec, so every worker
    /// process derives the identical cell set from the spec arguments.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &bench in &self.benches {
            for &split in &self.splits {
                let avail = 0x1000 - split;
                for &cache_size in &self.cache_sizes {
                    if cache_size > avail {
                        continue;
                    }
                    for &freq in &self.freqs {
                        for &policy in &self.policies {
                            for &guards in &self.guard_modes {
                                for &recovery in &self.recoveries {
                                    for &isr in &self.isr_modes {
                                        if isr != IsrMode::Off && split != 0 {
                                            continue;
                                        }
                                        self.push_point(&mut out, Cell {
                                            bench,
                                            split,
                                            cache_size,
                                            freq,
                                            policy,
                                            guards,
                                            recovery,
                                            isr,
                                            fault_seed: None,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out.sort_by_key(Cell::key);
        out
    }

    /// Pushes the fault-free cell plus its seeded fault-schedule siblings.
    fn push_point(&self, out: &mut Vec<Cell>, point: Cell) {
        let point_hash = fnv1a64(point.point_key().as_bytes());
        out.push(point.clone());
        for i in 0..self.fault_schedules {
            let stream = self
                .base_seed
                ^ point_hash
                ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let seed = SplitMix64::new(stream).next_u64();
            out.push(Cell { fault_seed: Some(seed), ..point.clone() });
        }
    }

    /// The manifest/shard spec line used to cross-check coordinator and
    /// workers: preset name, base seed and total cell count.
    pub fn spec_line(&self, total: usize) -> String {
        format!("spec {} {:016x} {total}", self.name, self.base_seed)
    }
}

// ---------------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------------

/// Executes one cell through the shared harness and returns its
/// deterministic report row. Baseline and clean-reference measurements
/// are memoized per (bench, profile, freq[, system]) so cells sharing a
/// reference never recompute it.
pub fn run_cell(h: &Harness, cell: &Cell) -> Json {
    let profile = cell.profile();
    let system = cell.system();
    let base = h.measure("campaign", cell.bench, &System::Baseline, &profile, cell.freq);
    let base_cycles = base.as_ref().ok().map(|m| m.total_cycles());
    let clean = match h.measure("campaign", cell.bench, &system, &profile, cell.freq) {
        Ok(m) => m,
        Err(e) => {
            let mut fields = identity_fields(cell);
            fields.push(("status", Json::str(e.status())));
            fields.push(("result", e.json()));
            return Json::obj(fields);
        }
    };
    let clean_cycles = clean.total_cycles();
    let overhead_pct = base_cycles
        .filter(|&b| b > 0)
        .map(|b| (clean_cycles as f64 / b as f64 - 1.0) * 100.0);
    let swap = clean.swap.as_ref();

    let mut fields = identity_fields(cell);
    match cell.fault_seed {
        None => {
            fields.push(("status", Json::str("ok")));
            fields.push(("correct", Json::Bool(clean.correct)));
            fields.push(("base_cycles", opt_u64(base_cycles)));
            fields.push(("clean_cycles", Json::U64(clean_cycles)));
            fields.push(("total_cycles", Json::U64(clean_cycles)));
            fields.push(("overhead_pct", opt_f64(overhead_pct)));
            fields.push(("boots", Json::U64(1)));
            fields.push(("losses", Json::U64(0)));
            fields.push(("ucpb", Json::F64(clean_cycles as f64)));
            fields.push(("misses", opt_u64(swap.map(|s| s.misses))));
            fields.push(("evictions", opt_u64(swap.map(|s| s.evictions))));
            fields.push(("bytes_copied", opt_u64(swap.map(|s| s.bytes_copied))));
            fields.push(("degraded", opt_u64(swap.map(|s| s.degraded))));
            fields.push(("recovered_functions", Json::U64(0)));
        }
        Some(seed) => {
            let built = h.build(cell.bench, &system, &profile);
            let built = match built.as_ref().as_ref() {
                Ok(b) => b,
                Err(e) => {
                    // Unreachable when the clean run succeeded, but keep
                    // the row well-formed rather than panicking a worker.
                    fields.push(("status", Json::str("failed")));
                    fields.push(("result", Json::obj(vec![("message", Json::str(e.to_string()))])));
                    return Json::obj(fields);
                }
            };
            let cfg = cell.config();
            let row = faults::power_loss_episode(
                built,
                &cfg,
                FaultRow::new(cell.bench, seed, clean_cycles),
                cell.freq,
            );
            let ok = row.survived && row.correct;
            fields.push(("status", Json::str(if ok { "ok" } else { "failed" })));
            fields.push(("correct", Json::Bool(row.correct)));
            fields.push(("base_cycles", opt_u64(base_cycles)));
            fields.push(("clean_cycles", Json::U64(clean_cycles)));
            fields.push(("total_cycles", Json::U64(row.total_cycles)));
            fields.push(("overhead_pct", opt_f64(overhead_pct)));
            fields.push(("replay_overhead_pct", Json::F64(row.overhead_pct())));
            fields.push(("boots", Json::U64(u64::from(row.boots))));
            fields.push(("losses", Json::U64(u64::from(row.losses))));
            fields.push(("ucpb", Json::F64(clean_cycles as f64 / f64::from(row.boots.max(1)))));
            fields.push(("misses", opt_u64(swap.map(|s| s.misses))));
            fields.push(("evictions", opt_u64(swap.map(|s| s.evictions))));
            fields.push(("bytes_copied", opt_u64(swap.map(|s| s.bytes_copied))));
            fields.push(("degraded", Json::U64(row.swap.degraded)));
            fields.push(("recovered_functions", Json::U64(row.swap.recovered_functions)));
            if let Some(e) = &row.error {
                fields.push(("error", Json::str(e.clone())));
            }
        }
    }
    Json::obj(fields)
}

fn identity_fields(cell: &Cell) -> Vec<(&'static str, Json)> {
    vec![
        ("key", Json::str(cell.key())),
        ("hash", Json::str(format!("{:016x}", cell.hash()))),
        ("bench", Json::str(cell.bench.name())),
        ("profile", Json::str(cell.profile_name())),
        ("split", Json::U64(u64::from(cell.split))),
        ("cache_bytes", Json::U64(u64::from(cell.cache_size))),
        ("freq_mhz", Json::U64(u64::from(cell.freq.mhz))),
        ("policy", Json::str(policy_name(cell.policy))),
        ("guards", Json::Bool(cell.guards)),
        ("recovery", Json::str(recovery_name(cell.recovery))),
        ("isr", Json::str(cell.isr.name())),
        (
            "fault_seed",
            match cell.fault_seed {
                None => Json::Null,
                Some(s) => Json::str(format!("{s:016x}")),
            },
        ),
    ]
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F64)
}

// ---------------------------------------------------------------------------
// Shared-manifest work-stealing protocol
// ---------------------------------------------------------------------------

/// What the coordinator found when preparing (or resuming) a campaign
/// directory.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Total cells in the spec.
    pub total: usize,
    /// Cells already completed in the shards (skipped on this run).
    pub done: usize,
    /// Cells written into the manifest for workers to claim.
    pub pending: usize,
    /// Number of claimable chunks.
    pub chunks: usize,
}

/// Prepares `dir` for a (possibly resumed) campaign run: scans the shards
/// for completed config hashes, clears stale claims, and writes a fresh
/// manifest chunking the still-pending hashes into claimable hash-ranges.
///
/// # Errors
///
/// I/O errors, or corrupt shards (same hash, different row bytes).
pub fn prepare_dir(dir: &Path, spec: &CampaignSpec, procs: usize) -> io::Result<Prepared> {
    fs::create_dir_all(dir.join(SHARD_DIR))?;
    // Claims only coordinate live workers; on (re)start any leftover
    // claim is stale by construction, so the claim set is rebuilt.
    let claims = dir.join(CLAIM_DIR);
    if claims.exists() {
        fs::remove_dir_all(&claims)?;
    }
    fs::create_dir_all(&claims)?;

    let cells = spec.cells();
    let done = read_done(dir)?;
    let pending: Vec<u64> =
        cells.iter().map(Cell::hash).filter(|h| !done.contains_key(h)).collect();

    let chunk_size = (pending.len() / (procs.max(1) * 8)).clamp(1, 32);
    let chunks: Vec<&[u64]> = pending.chunks(chunk_size).collect();
    let mut w = BufWriter::new(fs::File::create(dir.join(MANIFEST))?);
    writeln!(w, "{}", spec.spec_line(cells.len()))?;
    for (i, chunk) in chunks.iter().enumerate() {
        write!(w, "chunk {i}")?;
        for h in *chunk {
            write!(w, " {h:016x}")?;
        }
        writeln!(w)?;
    }
    w.flush()?;

    Ok(Prepared {
        total: cells.len(),
        done: cells.len() - pending.len(),
        pending: pending.len(),
        chunks: chunks.len(),
    })
}

/// Reads every completed row from the shard files: config hash → the
/// row's compact JSON line. Rows are deterministic functions of their
/// cell, so a duplicated hash must carry identical bytes; a torn trailing
/// line (from a killed worker) is ignored — that cell simply reruns.
///
/// # Errors
///
/// I/O errors, or two shards disagreeing about a hash.
pub fn read_done(dir: &Path) -> io::Result<BTreeMap<u64, String>> {
    let mut done = BTreeMap::new();
    let shard_dir = dir.join(SHARD_DIR);
    if !shard_dir.exists() {
        return Ok(done);
    }
    let mut paths: Vec<PathBuf> =
        fs::read_dir(&shard_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path)?;
        for line in text.split_inclusive('\n') {
            // A line without its newline is a torn tail write.
            let Some(line) = line.strip_suffix('\n') else { continue };
            let Some((hash_hex, row)) = line.split_once('\t') else { continue };
            let Ok(hash) = u64::from_str_radix(hash_hex, 16) else { continue };
            if json::parse(row).is_err() {
                continue;
            }
            if let Some(prev) = done.get(&hash) {
                if prev != row {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "shard {path:?} disagrees with an earlier shard about cell {hash_hex}; \
                             the campaign directory is corrupt — rerun with --fresh"
                        ),
                    ));
                }
            } else {
                done.insert(hash, row.to_string());
            }
        }
    }
    Ok(done)
}

/// Reads the manifest: the spec cross-check line plus the chunked pending
/// hash-ranges.
///
/// # Errors
///
/// I/O errors or a malformed/mismatched manifest.
pub fn read_manifest(dir: &Path, spec: &CampaignSpec, total: usize) -> io::Result<Vec<Vec<u64>>> {
    let text = fs::read_to_string(dir.join(MANIFEST))?;
    let mut lines = text.lines();
    let spec_line = lines.next().unwrap_or_default();
    if spec_line != spec.spec_line(total) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "manifest spec line {spec_line:?} does not match this worker's spec \
                 {:?} — coordinator and worker must agree on --spec and --base-seed",
                spec.spec_line(total)
            ),
        ));
    }
    let mut chunks = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("chunk") {
            continue;
        }
        let _idx = parts.next();
        let hashes: Vec<u64> =
            parts.filter_map(|h| u64::from_str_radix(h, 16).ok()).collect();
        chunks.push(hashes);
    }
    Ok(chunks)
}

/// Atomically claims chunk `idx` for `token`. Returns `false` when
/// another worker already holds it.
fn claim(dir: &Path, idx: usize, token: &str) -> io::Result<bool> {
    let path = dir.join(CLAIM_DIR).join(format!("chunk-{idx}.claim"));
    match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(mut f) => {
            let _ = f.write_all(token.as_bytes());
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// The work-stealing worker loop: scan the manifest's chunks (starting at
/// this worker's offset so workers spread out), claim each unclaimed
/// chunk, run its cells in `SWAPRAM_JOBS`-sized batches on the harness
/// pool, and append one `hash\tjson` line per finished cell to this
/// worker's shard, flushing per batch. `max_cells` (the kill-test knob)
/// stops the worker after writing that many rows, leaving its current
/// claim stale — exactly what a killed process would leave behind.
///
/// Returns the number of rows written.
///
/// # Errors
///
/// I/O errors; cell execution itself never fails the worker (failures are
/// recorded in the row).
pub fn worker_run(
    dir: &Path,
    spec: &CampaignSpec,
    h: &Harness,
    worker_id: usize,
    procs: usize,
    max_cells: Option<usize>,
) -> io::Result<usize> {
    let cells = spec.cells();
    let by_hash: BTreeMap<u64, &Cell> = cells.iter().map(|c| (c.hash(), c)).collect();
    let chunks = read_manifest(dir, spec, cells.len())?;
    let token = format!("w{worker_id}");
    let shard_path = dir.join(SHARD_DIR).join(format!("{token}.jsonl"));
    // A worker killed mid-write leaves a torn, newline-less tail; sew it
    // shut before appending so the next row does not glue onto it (the
    // terminated torn line then parses as malformed and its cell reruns).
    let torn_tail = fs::File::open(&shard_path).ok().is_some_and(|mut f| {
        use std::io::{Read, Seek, SeekFrom};
        let mut b = [0u8; 1];
        f.seek(SeekFrom::End(-1)).is_ok() && f.read_exact(&mut b).is_ok() && b[0] != b'\n'
    });
    let mut shard = BufWriter::new(
        fs::OpenOptions::new().create(true).append(true).open(&shard_path)?,
    );
    if torn_tail {
        shard.write_all(b"\n")?;
        shard.flush()?;
    }

    let mut written = 0usize;
    let offset = if chunks.is_empty() { 0 } else { worker_id * chunks.len() / procs.max(1) };
    'steal: for i in 0..chunks.len() {
        let idx = (offset + i) % chunks.len();
        if !claim(dir, idx, &token)? {
            continue;
        }
        let chunk: Vec<&Cell> =
            chunks[idx].iter().filter_map(|h| by_hash.get(h).copied()).collect();
        for batch in chunk.chunks(h.jobs().max(1)) {
            let mut batch: Vec<&Cell> = batch.to_vec();
            if let Some(budget) = max_cells {
                let left = budget.saturating_sub(written);
                if left == 0 {
                    break 'steal;
                }
                batch.truncate(left);
            }
            let rows = h.parallel_map(batch.clone(), |cell| run_cell(h, cell));
            for (cell, row) in batch.iter().zip(rows) {
                write!(shard, "{:016x}\t", cell.hash())?;
                row.write_compact(&mut shard)?;
                shard.write_all(b"\n")?;
                written += 1;
            }
            shard.flush()?;
        }
    }
    shard.flush()?;
    Ok(written)
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

/// Result of a merge attempt.
#[derive(Debug)]
pub enum MergeOutcome {
    /// Every cell is accounted for; the merged, summary-annotated
    /// campaign document.
    Complete(Box<Json>),
    /// Some cells are still pending (killed or truncated run).
    Incomplete {
        /// Completed cells found in the shards.
        done: usize,
        /// Total cells in the spec.
        total: usize,
    },
}

/// Merges the shard rows into the final campaign document, ordering cells
/// **by config key — never completion order** — so the bytes are
/// independent of worker count, thread count and scheduling.
///
/// # Errors
///
/// I/O errors, corrupt shards, or rows that fail to parse.
pub fn merge(dir: &Path, spec: &CampaignSpec) -> io::Result<MergeOutcome> {
    let cells = spec.cells();
    let done = read_done(dir)?;
    if done.len() < cells.len() || cells.iter().any(|c| !done.contains_key(&c.hash())) {
        let known = cells.iter().filter(|c| done.contains_key(&c.hash())).count();
        return Ok(MergeOutcome::Incomplete { done: known, total: cells.len() });
    }
    // `cells` is already sorted by config key; assemble rows in that order.
    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            json::parse(&done[&c.hash()]).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard row for {} failed to parse: {e}", c.key()),
                )
            })
        })
        .collect::<io::Result<_>>()?;
    let summary = summary_json(&rows);
    let doc = Json::obj(vec![
        ("schema", Json::U64(1)),
        ("generator", Json::str("swapram campaign engine")),
        ("spec", spec_json(spec, cells.len())),
        ("cells", Json::Arr(rows)),
        ("summary", summary),
    ]);
    Ok(MergeOutcome::Complete(Box::new(doc)))
}

/// Serializes the spec echo embedded in the campaign document.
fn spec_json(spec: &CampaignSpec, total: usize) -> Json {
    Json::obj(vec![
        ("name", Json::str(spec.name)),
        ("base_seed", Json::str(format!("{:016x}", spec.base_seed))),
        ("cells", Json::U64(total as u64)),
        (
            "benches",
            Json::Arr(spec.benches.iter().map(|b| Json::str(b.name())).collect()),
        ),
        ("splits", Json::Arr(spec.splits.iter().map(|&s| Json::U64(u64::from(s))).collect())),
        (
            "cache_sizes",
            Json::Arr(spec.cache_sizes.iter().map(|&s| Json::U64(u64::from(s))).collect()),
        ),
        (
            "freqs_mhz",
            Json::Arr(spec.freqs.iter().map(|f| Json::U64(u64::from(f.mhz))).collect()),
        ),
        (
            "policies",
            Json::Arr(spec.policies.iter().map(|&p| Json::str(policy_name(p))).collect()),
        ),
        (
            "guard_modes",
            Json::Arr(spec.guard_modes.iter().map(|&g| Json::Bool(g)).collect()),
        ),
        (
            "recoveries",
            Json::Arr(
                spec.recoveries.iter().map(|&r| Json::str(recovery_name(r))).collect(),
            ),
        ),
        (
            "isr_modes",
            Json::Arr(spec.isr_modes.iter().map(|&m| Json::str(m.name())).collect()),
        ),
        ("fault_schedules", Json::U64(u64::from(spec.fault_schedules))),
    ])
}

/// Streams a campaign document (pretty, trailing newline) to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_doc(path: &Path, doc: &Json) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    doc.write_pretty(&mut w, 2)?;
    w.write_all(b"\n")?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Percentile / pareto summary
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted, non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Indices of the pareto-optimal points when minimizing both coordinates,
/// in input order.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let (xi, yi) = points[i];
            !points.iter().enumerate().any(|(j, &(xj, yj))| {
                j != i && xj <= xi && yj <= yi && (xj < xi || yj < yi)
            })
        })
        .collect()
}

/// The axes the summary groups by: report field, display name, and
/// whether the value is numeric (sorted numerically).
const SUMMARY_AXES: [(&str, &str); 8] = [
    ("policy", "eviction policy"),
    ("cache_bytes", "cache size"),
    ("freq_mhz", "clock"),
    ("recovery", "recovery"),
    ("guards", "guards"),
    ("isr", "isr"),
    ("profile", "profile"),
    ("bench", "benchmark"),
];

fn axis_value(row: &Json, field: &str) -> Option<(String, Json)> {
    let v = row.get(field)?;
    let sort_key = match v {
        Json::U64(n) => format!("{n:020}"),
        Json::Bool(b) => format!("{b}"),
        Json::Str(s) => s.clone(),
        _ => return None,
    };
    Some((sort_key, v.clone()))
}

fn is_clean(row: &Json) -> bool {
    row.get("fault_seed") == Some(&Json::Null)
}

fn is_ok(row: &Json) -> bool {
    row.get("status").and_then(Json::as_str) == Some("ok")
        && row.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Computes the deterministic summary section: status counts, per-axis
/// p50/p90/p99 of miss-cycle overhead (fault-free cells, vs. the baseline
/// system at the same profile and clock) and useful-cycles-per-boot
/// (faulted cells), and the two pareto frontiers.
pub fn summary_json(rows: &[Json]) -> Json {
    let mut ok = 0u64;
    let mut dnf = 0u64;
    let mut failed = 0u64;
    for r in rows {
        match r.get("status").and_then(Json::as_str) {
            Some("ok") if is_ok(r) => ok += 1,
            Some("dnf") => dnf += 1,
            _ => failed += 1,
        }
    }

    // Per-axis percentile groups.
    let mut axes = Vec::new();
    for (field, _) in SUMMARY_AXES {
        let mut groups: BTreeMap<String, (Json, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for r in rows.iter().filter(|r| is_ok(r)) {
            let Some((sort_key, value)) = axis_value(r, field) else { continue };
            let entry =
                groups.entry(sort_key).or_insert_with(|| (value, Vec::new(), Vec::new()));
            if is_clean(r) {
                if let Some(x) = r.get("overhead_pct").and_then(Json::as_f64) {
                    entry.1.push(x);
                }
            } else if let Some(x) = r.get("ucpb").and_then(Json::as_f64) {
                entry.2.push(x);
            }
        }
        let entries: Vec<Json> = groups
            .into_values()
            .map(|(value, overheads, ucpbs)| {
                let mut fields = vec![("value", value)];
                fields.push(("clean_n", Json::U64(overheads.len() as u64)));
                for (name, q) in [("overhead_p50", 50.0), ("overhead_p90", 90.0), ("overhead_p99", 99.0)]
                {
                    fields.push((
                        name,
                        if overheads.is_empty() {
                            Json::Null
                        } else {
                            Json::F64(percentile(&overheads, q))
                        },
                    ));
                }
                fields.push(("fault_n", Json::U64(ucpbs.len() as u64)));
                for (name, q) in [("ucpb_p50", 50.0), ("ucpb_p90", 90.0), ("ucpb_p99", 99.0)] {
                    fields.push((
                        name,
                        if ucpbs.is_empty() { Json::Null } else { Json::F64(percentile(&ucpbs, q)) },
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        axes.push((field, Json::Arr(entries)));
    }

    // Pareto 1: SRAM footprint (split + cache bytes) vs median cycles.
    let mut by_geometry: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| is_ok(r) && is_clean(r)) {
        let (Some(split), Some(cache)) = (
            r.get("split").and_then(Json::as_u64),
            r.get("cache_bytes").and_then(Json::as_u64),
        ) else {
            continue;
        };
        if let Some(c) = r.get("total_cycles").and_then(Json::as_f64) {
            by_geometry.entry(split + cache).or_default().push(c);
        }
    }
    let geo_points: Vec<(u64, f64)> = by_geometry
        .into_iter()
        .map(|(bytes, cycles)| (bytes, percentile(&cycles, 50.0)))
        .collect();
    let front =
        pareto_front(&geo_points.iter().map(|&(b, c)| (b as f64, c)).collect::<Vec<_>>());
    let sram_vs_cycles: Vec<Json> = geo_points
        .iter()
        .enumerate()
        .map(|(i, &(bytes, cycles))| {
            Json::obj(vec![
                ("sram_bytes", Json::U64(bytes)),
                ("median_cycles", Json::F64(cycles)),
                ("on_front", Json::Bool(front.contains(&i))),
            ])
        })
        .collect();

    // Pareto 2: miss-cycle overhead (minimize) vs forward progress
    // (maximize ucpb) per (policy, recovery).
    let mut by_policy: BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for r in rows.iter().filter(|r| is_ok(r)) {
        let (Some(policy), Some(recovery)) = (
            r.get("policy").and_then(Json::as_str),
            r.get("recovery").and_then(Json::as_str),
        ) else {
            continue;
        };
        let entry = by_policy.entry((policy.to_string(), recovery.to_string())).or_default();
        if is_clean(r) {
            if let Some(x) = r.get("overhead_pct").and_then(Json::as_f64) {
                entry.0.push(x);
            }
        } else if let Some(x) = r.get("ucpb").and_then(Json::as_f64) {
            entry.1.push(x);
        }
    }
    let policy_points: Vec<((String, String), f64, f64)> = by_policy
        .into_iter()
        .filter(|(_, (ov, uc))| !ov.is_empty() && !uc.is_empty())
        .map(|((p, r), (ov, uc))| ((p, r), percentile(&ov, 50.0), percentile(&uc, 50.0)))
        .collect();
    let front2 = pareto_front(
        &policy_points.iter().map(|&(_, ov, uc)| (ov, -uc)).collect::<Vec<_>>(),
    );
    let overhead_vs_progress: Vec<Json> = policy_points
        .iter()
        .enumerate()
        .map(|(i, ((policy, recovery), ov, uc))| {
            Json::obj(vec![
                ("policy", Json::str(policy.clone())),
                ("recovery", Json::str(recovery.clone())),
                ("median_overhead_pct", Json::F64(*ov)),
                ("median_ucpb", Json::F64(*uc)),
                ("on_front", Json::Bool(front2.contains(&i))),
            ])
        })
        .collect();

    Json::obj(vec![
        (
            "counts",
            Json::obj(vec![
                ("ok", Json::U64(ok)),
                ("dnf", Json::U64(dnf)),
                ("failed", Json::U64(failed)),
            ]),
        ),
        (
            "axes",
            Json::Obj(axes.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
        (
            "pareto",
            Json::obj(vec![
                ("sram_vs_cycles", Json::Arr(sram_vs_cycles)),
                ("overhead_vs_progress", Json::Arr(overhead_vs_progress)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn fmt_pct(v: &Json) -> String {
    v.as_f64().map_or_else(|| "-".into(), |x| format!("{x:+.1}%"))
}

fn fmt_cycles(v: &Json) -> String {
    v.as_f64().map_or_else(|| "-".into(), |x| format!("{x:.0}"))
}

fn axis_tables(doc: &Json) -> Vec<Table> {
    let mut out = Vec::new();
    let Some(axes) = doc.get("summary").and_then(|s| s.get("axes")) else { return out };
    for (field, title) in SUMMARY_AXES {
        let Some(entries) = axes.get(field).and_then(Json::as_arr) else { continue };
        // Single-valued axes carry no comparative information.
        if entries.len() < 2 {
            continue;
        }
        let mut t = Table::new(
            &format!("Campaign — miss-cycle overhead and forward progress by {title}"),
            &["value", "n", "overhead p50", "p90", "p99", "fault n", "ucpb p50", "p90", "p99"],
        );
        for e in entries {
            let value = match e.get("value") {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::U64(n)) => n.to_string(),
                Some(Json::Bool(b)) => b.to_string(),
                _ => "-".into(),
            };
            t.row(vec![
                value,
                e.get("clean_n").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_pct(e.get("overhead_p50").unwrap_or(&Json::Null)),
                fmt_pct(e.get("overhead_p90").unwrap_or(&Json::Null)),
                fmt_pct(e.get("overhead_p99").unwrap_or(&Json::Null)),
                e.get("fault_n").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_cycles(e.get("ucpb_p50").unwrap_or(&Json::Null)),
                fmt_cycles(e.get("ucpb_p90").unwrap_or(&Json::Null)),
                fmt_cycles(e.get("ucpb_p99").unwrap_or(&Json::Null)),
            ]);
        }
        out.push(t);
    }
    out
}

fn pareto_tables(doc: &Json) -> Vec<Table> {
    let mut out = Vec::new();
    let Some(pareto) = doc.get("summary").and_then(|s| s.get("pareto")) else { return out };
    if let Some(points) = pareto.get("sram_vs_cycles").and_then(Json::as_arr) {
        let mut t = Table::new(
            "Campaign — pareto: SRAM footprint vs median cycles",
            &["SRAM bytes", "median cycles", "pareto"],
        );
        for p in points {
            t.row(vec![
                p.get("sram_bytes").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_cycles(p.get("median_cycles").unwrap_or(&Json::Null)),
                if p.get("on_front").and_then(Json::as_bool) == Some(true) {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
        }
        out.push(t);
    }
    if let Some(points) = pareto.get("overhead_vs_progress").and_then(Json::as_arr) {
        let mut t = Table::new(
            "Campaign — pareto: miss overhead vs forward progress",
            &["policy", "recovery", "median overhead", "median ucpb", "pareto"],
        );
        for p in points {
            t.row(vec![
                p.get("policy").and_then(Json::as_str).unwrap_or("-").to_string(),
                p.get("recovery").and_then(Json::as_str).unwrap_or("-").to_string(),
                fmt_pct(p.get("median_overhead_pct").unwrap_or(&Json::Null)),
                fmt_cycles(p.get("median_ucpb").unwrap_or(&Json::Null)),
                if p.get("on_front").and_then(Json::as_bool) == Some(true) {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
        }
        out.push(t);
    }
    out
}

fn doc_header(doc: &Json) -> (String, u64, u64, u64, u64) {
    let spec = doc.get("spec");
    let name = spec
        .and_then(|s| s.get("name"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let cells = spec.and_then(|s| s.get("cells")).and_then(Json::as_u64).unwrap_or(0);
    let counts = doc.get("summary").and_then(|s| s.get("counts"));
    let get = |k: &str| counts.and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
    (name, cells, get("ok"), get("dnf"), get("failed"))
}

/// Cells the merged document's summary counts as failed: a run that
/// errored or did not survive, or one whose output was wrong.
pub fn failed_cells(doc: &Json) -> u64 {
    doc_header(doc).4
}

/// Renders the merged campaign document as the stdout report: status
/// counts plus the per-axis percentile and pareto tables.
pub fn render(doc: &Json) -> String {
    let (name, cells, ok, dnf, failed) = doc_header(doc);
    let mut out = format!(
        "== Campaign ({name}) ==\ncells: {cells}  ok: {ok}  dnf: {dnf}  failed: {failed}\n\n"
    );
    for t in axis_tables(doc).iter().chain(pareto_tables(doc).iter()) {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Renders the merged campaign document as `BENCHMARKS.md`.
pub fn render_markdown(doc: &Json) -> String {
    let (name, cells, ok, dnf, failed) = doc_header(doc);
    let seed = doc
        .get("spec")
        .and_then(|s| s.get("base_seed"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let mut out = String::new();
    out.push_str("# Campaign benchmarks\n\n");
    out.push_str(
        "Generated by `cargo run --release -p experiments --bin campaign -- --summary` \
         from `BENCH_campaign.json`. Do not edit by hand.\n\n",
    );
    let _ = writeln!(
        out,
        "Spec `{name}` (base seed `{seed}`): **{cells} cells** — {ok} ok, {dnf} DNF, \
         {failed} failed. Overhead percentiles are miss-cycle overhead of fault-free cells \
         vs. the baseline system at the same profile and clock; `ucpb` is useful cycles \
         per boot of the power-loss cells (clean-run cycles / boots).\n"
    );
    for t in axis_tables(doc).iter().chain(pareto_tables(doc).iter()) {
        out.push_str(&t.render_markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cell_keys_are_unique_and_sorted() {
        let spec = CampaignSpec::tiny(0xF00D);
        let cells = spec.cells();
        assert_eq!(cells.len(), 24, "tiny = 2 benches x 3 sizes x 2 policies x (1+1 fault)");
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells enumerate in key order");
        sorted.dedup();
        assert_eq!(sorted.len(), cells.len(), "keys are unique");
    }

    #[test]
    fn preset_sizes_hit_their_tiers() {
        assert_eq!(CampaignSpec::fast(1).cells().len(), 192);
        let full = CampaignSpec::full(1).cells();
        assert!(full.len() >= 1000, "full tier must exceed 1000 cells, got {}", full.len());
        assert_eq!(full.len(), 1296);
    }

    #[test]
    fn cell_hash_is_stable_across_sessions() {
        let cell = Cell {
            bench: Benchmark::Crc,
            split: 0,
            cache_size: 0x1000,
            freq: Frequency::MHZ_24,
            policy: PolicyKind::CircularQueue,
            guards: true,
            recovery: RecoveryMode::FullScan,
            isr: IsrMode::Off,
            fault_seed: None,
        };
        assert_eq!(
            cell.key(),
            "crc|split=0000|cache=1000|24MHz|circular-queue|guards=on|full-scan|isr=off|fault=none"
        );
        // Pinned: a silent change to the key format would orphan every
        // shard of every in-flight campaign.
        assert_eq!(cell.hash(), fnv1a64(cell.key().as_bytes()));
        assert_eq!(cell.hash(), 0x2d3e_8d79_9aa0_4e8e, "key format changed — bump with care");
    }

    #[test]
    fn fault_seeds_differ_between_points_but_not_runs() {
        let a = CampaignSpec::tiny(0xF00D).cells();
        let b = CampaignSpec::tiny(0xF00D).cells();
        assert_eq!(a, b, "enumeration is deterministic");
        let seeds: Vec<u64> = a.iter().filter_map(|c| c.fault_seed).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "every point draws a distinct schedule");
        let c = CampaignSpec::tiny(0xBEEF).cells();
        assert_ne!(
            a.iter().filter_map(|x| x.fault_seed).collect::<Vec<_>>(),
            c.iter().filter_map(|x| x.fault_seed).collect::<Vec<_>>(),
            "base seed feeds the schedule derivation"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn pareto_front_minimizes_both() {
        let points = [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (4.0, 1.0), (4.0, 1.0)];
        // (3,3) is dominated by (2,2); the duplicated (4,1) points do not
        // dominate each other.
        assert_eq!(pareto_front(&points), vec![0, 1, 3, 4]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn summary_groups_axes_and_counts() {
        let rows = vec![
            json::parse(
                r#"{"status":"ok","correct":true,"fault_seed":null,"policy":"stack","recovery":"full-scan","cache_bytes":1024,"split":0,"freq_mhz":24,"overhead_pct":10.0,"total_cycles":1000}"#,
            )
            .unwrap(),
            json::parse(
                r#"{"status":"ok","correct":true,"fault_seed":"00000000000000aa","policy":"stack","recovery":"full-scan","cache_bytes":1024,"split":0,"freq_mhz":24,"ucpb":500.0}"#,
            )
            .unwrap(),
            json::parse(r#"{"status":"dnf"}"#).unwrap(),
        ];
        let s = summary_json(&rows);
        let counts = s.get("counts").unwrap();
        assert_eq!(counts.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(counts.get("dnf").and_then(Json::as_u64), Some(1));
        let policy = s.get("axes").unwrap().get("policy").and_then(Json::as_arr).unwrap();
        assert_eq!(policy.len(), 1);
        assert_eq!(policy[0].get("clean_n").and_then(Json::as_u64), Some(1));
        assert_eq!(policy[0].get("overhead_p50"), Some(&Json::F64(10.0)));
        assert_eq!(policy[0].get("ucpb_p50"), Some(&Json::F64(500.0)));
        let front = s.get("pareto").unwrap().get("overhead_vs_progress").and_then(Json::as_arr).unwrap();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].get("on_front"), Some(&Json::Bool(true)));
    }

    /// The campaign's failure exit counts wrong output as well as failed
    /// runs, and never a DNF.
    #[test]
    fn failed_cells_counts_wrong_and_failed_rows() {
        let rows: Vec<Json> = [
            r#"{"status":"ok","correct":true,"fault_seed":null}"#,
            r#"{"status":"ok","correct":false,"fault_seed":null}"#,
            r#"{"status":"failed","correct":true,"fault_seed":"00000000000000aa"}"#,
            r#"{"status":"dnf"}"#,
        ]
        .iter()
        .map(|r| json::parse(r).unwrap())
        .collect();
        let doc = Json::obj(vec![("summary", summary_json(&rows))]);
        assert_eq!(failed_cells(&doc), 2);
        assert_eq!(failed_cells(&Json::obj(vec![("summary", summary_json(&rows[..1]))])), 0);
    }
}
