//! Engine-differential gate for the fault suites: every suite must
//! publish byte-identical rows whether the simulator runs the reference
//! interpreter or the pre-decoded engine.
//!
//! * Resilience: power cycles discard SRAM and rewind SwapRAM's
//!   redirections, so this proves decoded-block invalidation is correct
//!   across reboot and recovery, not just across ordinary code writes.
//! * Corruption: flips land in metadata, cached code and app data; the
//!   cached-code flips hit decoded blocks directly, so a stale block that
//!   survives `flip_bit` shows up as a changed outcome row.
//! * Concurrency: seeded timer schedules (plus a fire inside a funcId
//!   publish window) on every interrupt-driven benchmark under both ISR
//!   protocols, so interrupt latching, masked delivery and `reti`
//!   boundaries land on the same instruction while the pre-decoded
//!   engine batches up to each timer fire.
//! * Intermittent: the dense tier exercises dying-gasp checkpoints,
//!   mid-computation resume and watchdog accounting on every benchmark.
//!
//! The engine override is process-global, so everything runs in one test,
//! one suite and one engine at a time, each on a fresh `Harness` whose
//! run memoization cannot serve one engine's rows to the other.

use experiments::faults::{self, FaultRow, Tier};
use experiments::Harness;
use mibench::Benchmark;
use msp430_sim::{set_default_engine, Engine};

/// Runs `suite` under the interpreter, then the pre-decoded engine, and
/// asserts the two row sets are identical, field for field and as
/// published JSON.
fn both_engines(
    name: &str,
    columns: &[&'static str],
    suite: impl Fn(&Harness) -> Vec<FaultRow>,
) -> Vec<FaultRow> {
    set_default_engine(Some(Engine::Interp));
    let interp = suite(&Harness::new());
    set_default_engine(Some(Engine::Predecoded));
    let pre = suite(&Harness::new());
    set_default_engine(None);

    assert!(!interp.is_empty(), "{name} produced no rows");
    assert_eq!(interp.len(), pre.len(), "{name} row count differs between engines");
    for (i, p) in interp.iter().zip(&pre) {
        assert_eq!(format!("{i:?}"), format!("{p:?}"), "{name} row diverged between engines");
    }
    assert_eq!(
        faults::section_json(&interp, columns).render(),
        faults::section_json(&pre, columns).render(),
        "published {name} rows differ between engines"
    );
    interp
}

#[test]
fn fault_rows_identical_across_engines() {
    let seed = faults::DEFAULT_FAULT_SEED;

    let rows = both_engines("resilience", faults::RESILIENCE_COLUMNS, |h| {
        faults::resilience(h, faults::RESILIENCE_FAST_SCHEDULES, seed)
    });
    assert_eq!(
        rows.len(),
        Benchmark::MIBENCH.len() * faults::RESILIENCE_FAST_SCHEDULES * 2,
        "resilience did not cover the fast matrix"
    );
    // Rows must also still be *correct*, not merely identical.
    for r in &rows {
        assert!(
            r.survived && r.correct,
            "{} seed {:#x}: survived={} correct={}",
            r.bench.name(),
            r.seed,
            r.survived,
            r.correct
        );
    }

    both_engines("corruption", faults::CORRUPTION_COLUMNS, |h| {
        faults::corruption(h, faults::CORRUPTION_FAST_FLIPS, seed)
    });

    let rows = both_engines("concurrency", faults::CONCURRENCY_COLUMNS, |h| {
        faults::concurrency(h, faults::CONCURRENCY_FAST_SCHEDULES, seed)
    });
    assert_eq!(
        rows.len(),
        faults::irq_benchmarks().len() * 2 * 2 * faults::CONCURRENCY_FAST_SCHEDULES,
        "concurrency did not cover the fast matrix"
    );
    assert!(
        rows.iter().all(|r| r.irq_delivered > 0),
        "every concurrency episode must deliver timer interrupts"
    );

    let rows = both_engines("intermittent", faults::INTERMITTENT_COLUMNS, |h| {
        faults::intermittent(h, &[Tier::Dense], seed)
    });
    assert_eq!(
        rows.len(),
        (Benchmark::MIBENCH.len() + Benchmark::MULTITASK.len())
            * faults::INTERMITTENT_RECOVERIES.len(),
        "intermittent did not cover the dense tier"
    );
    assert!(
        rows.iter().any(|r| r.swap.resumes > 0),
        "the dense tier must exercise mid-computation resume"
    );
}
