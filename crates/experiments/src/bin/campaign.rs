//! Fleet-scale configuration-sweep campaign driver.
//!
//! Coordinator mode (the default) prepares the campaign directory,
//! fans the pending cells out over `--procs` worker *processes* (each
//! running `SWAPRAM_JOBS` worker threads), merges the shards into the
//! deterministic `BENCH_campaign.json`, and prints the percentile/pareto
//! report. Killed or truncated campaigns resume where they left off:
//! completed cells are never rerun.
//!
//! ```text
//! campaign [--spec tiny|fast|full] [--procs N] [--dir DIR] [--json PATH]
//!          [--base-seed N] [--max-cells N] [--fresh]
//! campaign --summary [--json PATH] [--out BENCHMARKS.md]
//! campaign --worker --worker-id I --procs N --spec S --dir D --base-seed N
//! ```
//!
//! Flags / environment:
//! - `--spec`: sweep preset (default `fast`; `full` is the ≥1000-cell
//!   fleet tier).
//! - `--procs`: worker processes (default 1 = run cells in-process).
//! - `--dir`: campaign state directory (default `campaign-<spec>`):
//!   manifest, claim files and result shards live here.
//! - `--json`: merged output path (default `BENCH_campaign.json`). A
//!   `<path>.exec.json` sidecar carries the *non-deterministic* execution
//!   stats (wall-clock, process/thread counts) so the main document stays
//!   byte-identical across worker counts.
//! - `--base-seed`: fault-schedule base seed (default `SWAPRAM_FAULT_SEED`
//!   or 0xF00D). Coordinator and workers must agree; the manifest's spec
//!   line enforces it.
//! - `--max-cells N`: stop each worker after N cells (the kill/resume
//!   test knob). The campaign exits 3 (incomplete) and resumes on rerun.
//! - `--fresh`: discard the campaign directory first.
//! - `--summary`: skip execution; re-render `BENCHMARKS.md` and the
//!   stdout report from an existing merged JSON.
//! - `SWAPRAM_JOBS`: worker threads per process (default: all cores;
//!   rejected with a clear error when 0 or malformed).
//!
//! Exit codes: 0 complete, 1 I/O failure, 2 usage/environment error,
//! 3 campaign incomplete (some cells still pending), 4 complete but the
//! merged summary counts failed or wrong cells (the merged JSON and the
//! report are still written).

use experiments::campaign::{self, CampaignSpec, MergeOutcome};
use experiments::{faults, harness, json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn usage(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    eprintln!("usage: campaign [--spec tiny|fast|full] [--procs N] [--dir DIR] [--json PATH]");
    eprintln!("                [--base-seed N] [--max-cells N] [--fresh]");
    eprintln!("       campaign --summary [--json PATH] [--out PATH]");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag_value(args, name).map(|v| {
        v.trim().parse::<T>().unwrap_or_else(|_| usage(&format!("bad {name} value {v:?}")))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec_name = flag_value(&args, "--spec").unwrap_or_else(|| "fast".to_string());
    let base_seed = parse_num::<u64>(&args, "--base-seed")
        .unwrap_or_else(|| faults::base_seed().unwrap_or_else(|e| usage(&e)));
    let Some(spec) = CampaignSpec::preset(&spec_name, base_seed) else {
        usage(&format!("unknown spec {spec_name:?} (expected tiny, fast or full)"));
    };
    let dir = PathBuf::from(
        flag_value(&args, "--dir").unwrap_or_else(|| format!("campaign-{spec_name}")),
    );
    let json_path =
        PathBuf::from(flag_value(&args, "--json").unwrap_or_else(|| "BENCH_campaign.json".into()));
    let max_cells = parse_num::<usize>(&args, "--max-cells");
    let procs = parse_num::<usize>(&args, "--procs").unwrap_or(1).max(1);

    if args.iter().any(|a| a == "--summary") {
        summarize(&json_path, &flag_value(&args, "--out").unwrap_or_else(|| "BENCHMARKS.md".into()));
        return;
    }
    if args.iter().any(|a| a == "--worker") {
        let id = parse_num::<usize>(&args, "--worker-id")
            .unwrap_or_else(|| usage("--worker requires --worker-id"));
        worker(&dir, &spec, id, procs, max_cells);
        return;
    }
    coordinate(&dir, &spec, procs, max_cells, &json_path, args.iter().any(|a| a == "--fresh"));
}

/// Worker-process entry point: claim chunks from the shared manifest and
/// append finished rows to this worker's shard.
fn worker(dir: &Path, spec: &CampaignSpec, id: usize, procs: usize, max_cells: Option<usize>) {
    let label = format!("campaign[w{id}]");
    let h = harness::announce(&label, &format!("spec {}", spec.name));
    match campaign::worker_run(dir, spec, &h, id, procs, max_cells) {
        Ok(written) => {
            eprintln!("{label}: {written} cell(s) written");
            harness::finish(&label, &h);
        }
        Err(e) => {
            eprintln!("{label}: {e}");
            std::process::exit(1);
        }
    }
}

/// Coordinator: prepare (or resume) the directory, run or spawn workers,
/// merge, report.
fn coordinate(
    dir: &Path,
    spec: &CampaignSpec,
    procs: usize,
    max_cells: Option<usize>,
    json_path: &Path,
    fresh: bool,
) {
    let t0 = Instant::now();
    if fresh && dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("campaign: failed to clear {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let h = harness::announce(
        "campaign",
        &format!("spec {}, {procs} process(es), dir {}", spec.name, dir.display()),
    );
    let prepared = match campaign::prepare_dir(dir, spec, procs) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("campaign: prepare failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "campaign: {} cells total, {} done, {} pending in {} chunk(s)",
        prepared.total, prepared.done, prepared.pending, prepared.chunks
    );

    if prepared.pending > 0 {
        if procs == 1 {
            match campaign::worker_run(dir, spec, &h, 0, 1, max_cells) {
                Ok(written) => eprintln!("campaign: {written} cell(s) written"),
                Err(e) => {
                    eprintln!("campaign: worker failed: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            spawn_workers(dir, spec, procs, max_cells);
        }
    }

    match campaign::merge(dir, spec) {
        Ok(MergeOutcome::Complete(doc)) => {
            if let Err(e) = campaign::write_doc(json_path, &doc) {
                eprintln!("campaign: failed to write {}: {e}", json_path.display());
                std::process::exit(1);
            }
            print!("{}", campaign::render(&doc));
            harness::finish("campaign", &h);
            write_exec_sidecar(json_path, &h, procs, &prepared, t0);
            eprintln!("campaign: JSON -> {}", json_path.display());
            let failed = campaign::failed_cells(&doc);
            if failed > 0 {
                eprintln!("campaign: {failed} cell(s) failed or produced wrong output");
                std::process::exit(4);
            }
        }
        Ok(MergeOutcome::Incomplete { done, total }) => {
            eprintln!(
                "campaign: incomplete — {done}/{total} cells done; rerun to resume \
                 (completed cells are kept)"
            );
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("campaign: merge failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Spawns `procs` copies of this binary in `--worker` mode and waits for
/// all of them. Workers inherit stdio (their banners go to stderr) and
/// the environment (`SWAPRAM_JOBS`, `SWAPRAM_FAULT_SEED`).
fn spawn_workers(dir: &Path, spec: &CampaignSpec, procs: usize, max_cells: Option<usize>) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("campaign: cannot locate own executable: {e}");
        std::process::exit(1);
    });
    let mut children = Vec::new();
    for id in 0..procs {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .arg("--worker-id")
            .arg(id.to_string())
            .arg("--procs")
            .arg(procs.to_string())
            .arg("--spec")
            .arg(spec.name)
            .arg("--base-seed")
            .arg(spec.base_seed.to_string())
            .arg("--dir")
            .arg(dir);
        if let Some(n) = max_cells {
            cmd.arg("--max-cells").arg(n.to_string());
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("campaign: failed to spawn worker {id}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut failed = false;
    for (id, child) in children.into_iter().enumerate() {
        match child.wait_with_output() {
            Ok(out) if out.status.success() => {}
            Ok(out) => {
                eprintln!("campaign: worker {id} exited with {}", out.status);
                failed = true;
            }
            Err(e) => {
                eprintln!("campaign: worker {id} wait failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Writes the non-deterministic execution stats next to the merged JSON.
/// Wall-clock, process/thread counts and cache counters deliberately live
/// here (and in the stderr banners) — never in `BENCH_campaign.json`,
/// which must be byte-identical across worker counts.
fn write_exec_sidecar(
    json_path: &Path,
    h: &experiments::Harness,
    procs: usize,
    prepared: &campaign::Prepared,
    t0: Instant,
) {
    use json::Json;
    let sidecar = json_path.with_extension("exec.json");
    let doc = Json::obj(vec![
        ("procs", Json::U64(procs as u64)),
        ("jobs_per_proc", Json::U64(h.jobs() as u64)),
        ("cells_total", Json::U64(prepared.total as u64)),
        ("cells_resumed", Json::U64(prepared.done as u64)),
        ("cells_run", Json::U64(prepared.pending as u64)),
        (
            "coordinator_cache",
            Json::obj(vec![
                ("builds_unique", Json::U64(h.unique_builds() as u64)),
                ("build_hits", Json::U64(h.build_hits())),
                ("runs_unique", Json::U64(h.run_misses())),
                ("run_hits", Json::U64(h.run_hits())),
            ]),
        ),
        ("wall_ms", Json::F64(t0.elapsed().as_secs_f64() * 1e3)),
    ]);
    if let Err(e) = campaign::write_doc(&sidecar, &doc) {
        eprintln!("campaign: failed to write {}: {e}", sidecar.display());
    }
}

/// `--summary`: regenerate `BENCHMARKS.md` and the stdout report from an
/// existing merged campaign JSON.
fn summarize(json_path: &Path, out_path: &str) {
    let text = match std::fs::read_to_string(json_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e} (run a campaign first)", json_path.display());
            std::process::exit(1);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("campaign: {} is not valid JSON: {e}", json_path.display());
            std::process::exit(1);
        }
    };
    let md = campaign::render_markdown(&doc);
    if let Err(e) = std::fs::write(out_path, md) {
        eprintln!("campaign: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{}", campaign::render(&doc));
    eprintln!("campaign: markdown -> {out_path}");
}
