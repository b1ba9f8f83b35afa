//! Regenerates every table and figure of the paper's evaluation and the
//! four fault suites, plus the machine-readable `BENCH_experiments.json`,
//! through one shared harness.
//!
//! Flags / environment:
//! - `--fast`: skip the ablation studies and the 8 MHz Figure 9 variant,
//!   and run the fault suites at their smaller sizes (the CI
//!   configuration).
//! - `SWAPRAM_JOBS=<n>`: worker-thread count (default: available cores).
//! - `--json <path>`: where to write the JSON report (default
//!   `BENCH_experiments.json` in the current directory).
//! - `SWAPRAM_FAULT_SEED=<n>`: base seed of the fault suites (default
//!   0xF00D; a malformed value exits 2). Identical seeds yield
//!   byte-identical fault sections regardless of `SWAPRAM_JOBS`.
//!
//! Exits 1 when a fault-suite contract fails: a resilience episode that
//! does not survive correctly, a silently wrong metadata flip, a Masked
//! concurrency episode outside its contract or an Unprotected matrix with
//! no detected hazard, a silently wrong intermittent episode, or a
//! flip-free single-task dense-tier episode that persistent-stack does
//! not complete.
use std::time::Instant;

use experiments::{faults, harness};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_experiments.json".to_string());

    let fault_seed = faults::base_seed().unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let mode = if fast { "fast mode, " } else { "" };
    let h = harness::announce("experiments", &format!("{mode}fault seed {fault_seed:#x}"));
    let started = Instant::now();
    let report = experiments::run_report(&h, fast, fault_seed);
    let wall = started.elapsed();
    println!("{}", report.text);

    // Every unique (benchmark, system, profile) key must have been built
    // exactly once: re-requests land as cache hits on the memoized cell.
    assert_eq!(
        h.build_misses(),
        h.unique_builds() as u64,
        "each unique configuration must be built exactly once"
    );

    if let Err(e) = h.write_json(std::path::Path::new(&json_path)) {
        eprintln!("experiments: failed to write {json_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "experiments: wall-clock {:.1}s on {} thread(s); builds {} unique ({} cache hits); runs {} unique ({} cache hits); JSON -> {json_path}",
        wall.as_secs_f64(),
        h.jobs(),
        h.unique_builds(),
        h.build_hits(),
        h.run_misses(),
        h.run_hits(),
    );
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("FAIL {v}");
        }
        std::process::exit(1);
    }
}
