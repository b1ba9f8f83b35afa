//! Acceptance tests for the fault suites: every contract flags a
//! silently wrong row, every resilience schedule survives with the
//! oracle checksum, metadata flips are never silent, the concurrency
//! contract holds and Unprotected episodes race the funcId publish
//! window at any seed, the intermittent suite is sound and persistent
//! stack wins at density, and every suite's rows are byte-identical
//! regardless of the worker count.

use experiments::faults::{self, FaultRow, FlipRegion, Outcome, Tier, Violations};
use experiments::Harness;
use mibench::Benchmark;
use swapram::{IsrProtocol, RecoveryMode};

/// A clean-halted row with a wrong checksum, as the executor leaves it.
fn silent_wrong(region: Option<FlipRegion>, tier: Option<Tier>) -> FaultRow {
    let row = FaultRow::new(Benchmark::Crc, 7, 1000);
    FaultRow { region, tier, survived: true, outcome: Outcome::SilentWrong, ..row }
}

#[test]
fn every_contract_flags_a_silent_wrong_row() {
    // The resilience section has no outcome column: its contract and its
    // columns flag the row through `survived` / `correct`.
    let row = silent_wrong(None, None);
    assert_eq!(faults::resilience_violations(std::slice::from_ref(&row)).len(), 1);
    let json = faults::section_json(&[row], faults::RESILIENCE_COLUMNS).render();
    assert!(json.contains("\"survived\":true,\"correct\":false"), "{json}");

    let suites: [(&[&'static str], Violations, FaultRow); 3] = [
        (
            faults::CORRUPTION_COLUMNS,
            faults::corruption_violations,
            silent_wrong(Some(FlipRegion::Metadata), None),
        ),
        (faults::CONCURRENCY_COLUMNS, faults::concurrency_violations, silent_wrong(None, None)),
        (
            faults::INTERMITTENT_COLUMNS,
            faults::intermittent_violations,
            silent_wrong(None, Some(Tier::Dense)),
        ),
    ];
    for (columns, contract, row) in suites {
        let violations = contract(std::slice::from_ref(&row));
        assert!(violations.iter().any(|v| v.contains("silent-wrong")), "{violations:?}");
        let json = faults::section_json(&[row], columns).render();
        assert!(json.contains("\"outcome\":\"silent-wrong\""), "{json}");
    }
}

#[test]
fn malformed_fault_seed_is_a_usage_error() {
    // Both binaries read the seed before doing any work.
    let all = (env!("CARGO_BIN_EXE_all"), ["--json", "/dev/null"]);
    let campaign = (env!("CARGO_BIN_EXE_campaign"), ["--spec", "bogus"]);
    for (bin, args) in [all, campaign] {
        let out = std::process::Command::new(bin)
            .args(args)
            .env(faults::FAULT_SEED_ENV, "0xcafe")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("SWAPRAM_FAULT_SEED must be an unsigned 64-bit integer"),
            "{bin}: {stderr}"
        );
    }
}

#[test]
fn outcome_labels_are_distinct() {
    use Outcome::*;
    let all = [SilentWrong, InvariantViolation, DetectedError, CycleLimit, GuardRepaired, Clean];
    let all = all.into_iter().chain([Masked, Repaired, Degraded]);
    let names: std::collections::BTreeSet<&str> = all.clone().map(Outcome::name).collect();
    assert_eq!(names.len(), all.count());
}

#[test]
fn every_benchmark_survives_the_full_schedule_set() {
    let h = Harness::new();
    let rows = faults::resilience(&h, faults::RESILIENCE_SCHEDULES, faults::DEFAULT_FAULT_SEED);
    assert_eq!(
        rows.len(),
        Benchmark::MIBENCH.len() * faults::RESILIENCE_SCHEDULES * 2,
        "9 benchmarks x 8 schedules x 2 recovery modes"
    );
    assert!(
        faults::resilience_violations(&rows).is_empty(),
        "{:?}",
        faults::resilience_violations(&rows)
    );
    for r in &rows {
        assert!(
            r.survived && r.correct,
            "{} seed {:#x} under {:?}: survived={} correct={} error={:?}",
            r.bench.name(),
            r.seed,
            r.recovery,
            r.survived,
            r.correct,
            r.error
        );
        // Every scheduled loss lies inside (10%, 90%) of the clean run's
        // cumulative cycle window, so each one fires before completion.
        assert_eq!(
            r.boots,
            r.losses + 1,
            "{} seed {:#x}: one reboot per loss",
            r.bench.name(),
            r.seed
        );
        assert!(r.losses >= 1, "every schedule injects at least one loss");
        assert!(
            r.total_cycles > r.clean_cycles,
            "{} seed {:#x}: replay and recovery must cost cycles",
            r.bench.name(),
            r.seed
        );
        assert!(
            r.swap.recovered_functions > 0,
            "{} seed {:#x}: recovery rewound nothing",
            r.bench.name(),
            r.seed
        );
    }
    // The dirty log was actually exercised (not silently absent).
    let appends: u64 = rows
        .iter()
        .filter(|r| r.recovery == RecoveryMode::DirtyLog)
        .map(|r| r.swap.journal_appends)
        .sum();
    assert!(appends > 0, "dirty-log episodes must append to the journal");
}

#[test]
fn metadata_flips_are_never_silent() {
    let h = Harness::new();
    let rows = faults::corruption(&h, faults::CORRUPTION_FAST_FLIPS, faults::DEFAULT_FAULT_SEED);
    assert!(!rows.is_empty());
    let silent = faults::corruption_violations(&rows);
    assert!(silent.is_empty(), "metadata flips produced silent wrong output: {silent:?}");
    // Every metadata episode lands in a defined bucket and every
    // wrong-output or abnormal episode carries detection evidence.
    for r in rows.iter().filter(|r| r.region == Some(FlipRegion::Metadata)) {
        if r.outcome == Outcome::Repaired {
            assert!(
                r.swap.guard_repairs + r.swap.guard_degraded + r.swap.degraded > 0
                    || r.error.is_some(),
                "{} seed {:#x}: repaired without evidence",
                r.bench.name(),
                r.seed
            );
        }
        if !r.correct {
            assert_ne!(r.outcome, Outcome::Masked, "wrong output cannot be masked");
        }
    }
}

#[test]
fn concurrency_contract_holds() {
    // The interrupt each episode fires at its first open miss makes the
    // publish-window race independent of the seed: every flip-free
    // single-task Unprotected episode repairs a clobbered funcId, at the
    // default seed (full matrix) and at the CI seed (fast matrix).
    let cases = [
        (faults::CONCURRENCY_SCHEDULES, faults::DEFAULT_FAULT_SEED),
        (faults::CONCURRENCY_FAST_SCHEDULES, 51966),
    ];
    for (schedules, seed) in cases {
        let rows = faults::concurrency(&Harness::new(), schedules, seed);
        assert_eq!(rows.len(), faults::irq_benchmarks().len() * 2 * 2 * schedules);
        let violations = faults::concurrency_violations(&rows);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let racing = rows.iter().filter(|r| {
            r.protocol == IsrProtocol::Unprotected && !r.bench.is_multitask() && !r.bit_flip
        });
        for r in racing {
            assert!(r.swap.fid_repairs > 0, "seed {seed}: {} raced no funcId", r.bench.name());
        }
    }
}

fn completed(r: &FaultRow) -> bool {
    r.survived && r.correct
}

#[test]
fn intermittent_is_sound_and_persistent_stack_wins_at_density() {
    let h = Harness::new();
    let rows = faults::intermittent(&h, &Tier::ALL, faults::DEFAULT_FAULT_SEED);
    let nbench = Benchmark::MIBENCH.len() + Benchmark::MULTITASK.len();
    assert_eq!(
        rows.len(),
        nbench * faults::INTERMITTENT_RECOVERIES.len() * Tier::ALL.len(),
        "(9+2) benchmarks x 3 protocols x 4 tiers"
    );
    let tier = |r: &FaultRow| r.tier.expect("intermittent rows carry a tier");

    // Soundness: no episode may end in a silently wrong answer (the
    // contract also demands the persistent-stack dense-tier completion
    // checked in detail below), and every detected rejection must trace
    // back to a seeded bit flip — power loss alone never trips the oracle.
    let violations = faults::intermittent_violations(&rows);
    assert!(violations.is_empty(), "{violations:?}");
    for r in &rows {
        assert_ne!(
            r.outcome,
            Outcome::SilentWrong,
            "{} {:?} tier {}: silent wrong answer (error={:?})",
            r.bench.name(),
            r.recovery,
            tier(r).name(),
            r.error
        );
        if matches!(r.outcome, Outcome::InvariantViolation | Outcome::DetectedError) {
            assert!(
                r.bit_flip,
                "{} {:?} tier {}: detected rejection without an injected flip: {:?}",
                r.bench.name(),
                r.recovery,
                tier(r).name(),
                r.error
            );
        }
    }

    // The matrix really composes the hazards it claims to.
    assert!(rows.iter().any(|r| r.irq_delivered > 0), "timer interrupts were delivered");
    assert!(rows.iter().filter(|r| r.bit_flip).count() >= nbench, "flip episodes are seeded in");
    assert!(rows.iter().all(|r| tier(r) == Tier::Sparse || r.losses > 1));

    let find = |bench: Benchmark, recovery: RecoveryMode, t: Tier| {
        rows.iter()
            .find(|r| r.bench == bench && r.recovery == recovery && tier(r) == t)
            .expect("matrix cell missing")
    };

    // Forward-progress separation at the dense tiers: every flip-free
    // persistent-stack episode completes with strictly more useful
    // cycles per boot than both replay protocols, whose on-windows are
    // structurally too short to ever replay a whole benchmark.
    let mut ps_completions_per_bench = vec![0u32; Benchmark::MIBENCH.len()];
    for t in [Tier::Dense, Tier::DENSEST_COMPLETABLE] {
        for (i, &bench) in Benchmark::MIBENCH.iter().enumerate() {
            let ps = find(bench, RecoveryMode::PersistentStack, t);
            for replay in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
                let r = find(bench, replay, t);
                assert!(
                    !completed(r),
                    "{} {:?} tier {}: replay cannot finish inside one on-window",
                    bench.name(),
                    replay,
                    t.name()
                );
            }
            if ps.bit_flip {
                continue; // flip episodes may legitimately detect-and-halt
            }
            assert!(
                completed(ps),
                "{} tier {}: persistent stack must complete: {:?}",
                bench.name(),
                t.name(),
                ps.error
            );
            ps_completions_per_bench[i] += 1;
            assert!(
                ps.swap.resumes > 0,
                "{} tier {}: completion requires mid-run resume",
                bench.name(),
                t.name()
            );
            let ucpb = ps.useful_cycles_per_boot();
            for replay in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
                let r = find(bench, replay, t);
                assert!(
                    ucpb > r.useful_cycles_per_boot(),
                    "{} tier {}: PS ucpb {ucpb} must beat {:?}",
                    bench.name(),
                    t.name(),
                    replay
                );
            }
        }
    }
    // Across the two dense tiers, every single-task benchmark gets at
    // least one flip-free persistent-stack completion.
    for (i, &bench) in Benchmark::MIBENCH.iter().enumerate() {
        assert!(
            ps_completions_per_bench[i] > 0,
            "{}: no flip-free dense-tier completion under persistent stack",
            bench.name()
        );
    }

    // Famine: energy never suffices to finish, and persistent stack
    // either makes real (resumed, fingerprint-advancing) progress or
    // the Sisyphus watchdog reports the livelock — multitask programs,
    // whose stacks cannot be checkpointed, must always be flagged.
    for r in rows.iter().filter(|r| tier(r) == Tier::Famine) {
        assert!(!completed(r), "{} {:?}: famine must starve", r.bench.name(), r.recovery);
        if r.recovery == RecoveryMode::PersistentStack {
            assert!(
                r.swap.resumes > 0 || r.swap.watchdog_degradations >= 1,
                "{}: famine boot loop neither resumed nor detected",
                r.bench.name()
            );
            if r.bench.is_multitask() {
                assert!(
                    r.swap.watchdog_degradations >= 1,
                    "{}: uncheckpointable famine loop must degrade",
                    r.bench.name()
                );
            }
        }
    }
}

/// Renders one suite's section from a sequential and a parallel harness.
fn sections(
    run: impl Fn(&Harness) -> Vec<FaultRow>,
    columns: &[&'static str],
    jobs: usize,
) -> (String, String) {
    let seq = faults::section_json(&run(&Harness::with_jobs(1)), columns).render();
    let par = faults::section_json(&run(&Harness::with_jobs(jobs)), columns).render();
    (seq, par)
}

#[test]
fn rows_are_byte_identical_across_job_counts() {
    // Subsets of each matrix are enough to cross-check the sequential and
    // parallel paths; rows carry no wall-clock.
    let (a, b) = sections(|h| faults::resilience(h, 2, 42), faults::RESILIENCE_COLUMNS, 4);
    assert_eq!(a, b, "identical seeds must yield byte-identical resilience rows");
    let (a, b) = sections(
        |h| faults::corruption(h, faults::CORRUPTION_FAST_FLIPS, faults::DEFAULT_FAULT_SEED),
        faults::CORRUPTION_COLUMNS,
        8,
    );
    assert_eq!(a, b, "corruption rows must not depend on SWAPRAM_JOBS");
    let (a, b) = sections(|h| faults::concurrency(h, 1, 42), faults::CONCURRENCY_COLUMNS, 4);
    assert_eq!(a, b, "identical seeds must yield byte-identical concurrency rows");
    // The famine tier is the cheapest full sweep of the intermittent matrix.
    let (a, b) =
        sections(|h| faults::intermittent(h, &[Tier::Famine], 42), faults::INTERMITTENT_COLUMNS, 4);
    assert_eq!(a, b, "identical seeds must yield byte-identical intermittent rows");
}
