//! Deterministic fault injection: power-loss and bit-flip schedules.
//!
//! NVRAM systems must survive arbitrary interruption — after a power loss
//! the FRAM survives but SRAM and the register file do not, so any
//! FRAM-resident state that points into SRAM (like SwapRAM's redirection
//! words) becomes a wild-jump hazard on the next boot. This module models
//! the adversary: a [`FaultPlan`] is a cycle-ordered schedule of
//! [`FaultEvent`]s, either generated explicitly or drawn from the seeded
//! [`SplitMix64`] generator so every fault run is
//! reproducible by construction.
//!
//! The plan attaches to a [`Machine`](crate::machine::Machine); events
//! whose cycle has been reached fire between instructions. A
//! [`FaultKind::PowerLoss`] ends the run with
//! [`ExitReason::PowerLoss`](crate::machine::ExitReason::PowerLoss) — the
//! driver then calls
//! [`Machine::power_cycle`](crate::machine::Machine::power_cycle) (SRAM
//! and registers cleared, FRAM persistent) and resumes. A
//! [`FaultKind::BitFlip`] silently corrupts one bit of backing memory, the
//! way a marginal write or a particle strike would; flips in FRAM also
//! invalidate the hardware read-cache line so the corruption is visible.
//!
//! Cycle counts are *cumulative* across power cycles (the machine's
//! statistics survive a reboot — they model the experimenter's bench
//! clock, not on-chip state), so a schedule of increasing cycle numbers
//! interrupts successive boots.

use crate::rng::SplitMix64;

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Supply failure: volatile state (SRAM, registers, hardware cache,
    /// I/O ports) is lost; FRAM persists.
    PowerLoss,
    /// A single-bit corruption of backing memory at `addr`, bit `bit`
    /// (0–7).
    BitFlip {
        /// Byte address of the corruption.
        addr: u16,
        /// Bit index within the byte.
        bit: u8,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cumulative machine cycle at (or after) which the fault fires.
    pub cycle: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A cycle-ordered schedule of faults with a firing cursor.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultPlan {
    /// Creates a plan from explicit events (sorted by cycle internally;
    /// ties fire in the given order).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events, next: 0 }
    }

    /// A schedule of `count` power losses drawn uniformly from
    /// `window.clone()` (cumulative cycles) using the seeded generator.
    /// The draws are deduplicated and sorted, so the plan may hold fewer
    /// than `count` events for tiny windows.
    pub fn power_losses(seed: u64, count: usize, window: std::ops::Range<u64>) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let span = (window.end - window.start).max(1);
        let mut cycles: Vec<u64> =
            (0..count).map(|_| window.start + rng.below(span)).collect();
        cycles.sort_unstable();
        cycles.dedup();
        FaultPlan::new(
            cycles.into_iter().map(|cycle| FaultEvent { cycle, kind: FaultKind::PowerLoss }).collect(),
        )
    }

    /// A schedule of `count` single-bit flips at cycles in `window`,
    /// targeting byte addresses in `addrs` (seeded, reproducible).
    pub fn bit_flips(
        seed: u64,
        count: usize,
        window: std::ops::Range<u64>,
        addrs: std::ops::Range<u16>,
    ) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let span = (window.end - window.start).max(1);
        let aspan = u64::from(addrs.end - addrs.start).max(1);
        FaultPlan::new(
            (0..count)
                .map(|_| FaultEvent {
                    cycle: window.start + rng.below(span),
                    kind: FaultKind::BitFlip {
                        addr: addrs.start + rng.below(aspan) as u16,
                        bit: (rng.below(8)) as u8,
                    },
                })
                .collect(),
        )
    }

    /// All events, fired or not, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events that have not fired yet.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Events already fired.
    pub fn fired(&self) -> usize {
        self.next
    }

    /// Cycle of the next event still to fire, `None` once the plan is
    /// exhausted. Nothing fires before it, so it bounds a batch of
    /// chained-block execution (see [`crate::machine::Machine::run`]).
    pub fn next_cycle(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.cycle)
    }

    /// Takes the next event due at or before `cycle`, advancing the
    /// cursor. Returns `None` when nothing is due.
    pub fn take_due(&mut self, cycle: u64) -> Option<FaultEvent> {
        let ev = *self.events.get(self.next)?;
        if ev.cycle <= cycle {
            self.next += 1;
            Some(ev)
        } else {
            None
        }
    }
}

/// The qualitative shape of a harvested-energy supply.
///
/// Each shape maps a mean per-boot energy budget (expressed in machine
/// cycles the stored charge can power) to a sequence of *on-durations*:
/// how long each boot lasts before the supply browns out again. All
/// arithmetic is integer-only so traces are bit-identical across hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnergyShape {
    /// Capacitor charged through a resistor from a steady source: the
    /// device wakes at a fixed threshold, so on-durations cluster around
    /// the budget — uniform in `[budget/2, 3*budget/2)`.
    RcCharge,
    /// Photovoltaic harvesting under a diurnal envelope: on-durations
    /// sweep from near-dark to full sun and back over a 16-boot period,
    /// with small per-boot jitter.
    Solar,
    /// Ambient-RF harvesting: mostly starvation-length bursts with an
    /// occasional long window when a transmitter keys up nearby.
    Rf,
    /// Playback of a recorded profile: each entry is an on-duration in
    /// permille of the budget, cycled for as long as the trace runs.
    Recorded(Vec<u16>),
}

/// Diurnal envelope for [`EnergyShape::Solar`], in permille of the
/// budget, one entry per boot over a 16-boot "day".
const SOLAR_ENVELOPE: [u64; 16] =
    [20, 80, 220, 450, 700, 900, 980, 1000, 950, 820, 620, 400, 220, 100, 40, 10];

/// A recorded harvested-energy profile (permille of budget per boot),
/// shaped after a bursty indoor-light logger trace: long stable stretches
/// punctuated by occlusions and brief strong spikes.
pub const RECORDED_PROFILE: [u16; 24] = [
    940, 980, 900, 120, 60, 40, 850, 910, 990, 1010, 300, 80, //
    70, 620, 880, 1040, 950, 200, 50, 40, 760, 890, 970, 1000,
];

/// A seeded harvested-energy trace: turns an energy budget into a dense
/// [`FaultPlan`] of power losses, one per brown-out.
///
/// Unlike [`FaultPlan::power_losses`], which scatters a fixed number of
/// losses over a window, an `EnergyTrace` models the *supply*: boot `k`
/// gets [`on_duration(k)`](EnergyTrace::on_duration) cycles of charge and
/// then the power fails, for as long as the schedule horizon lasts. The
/// per-boot durations are derived from `(seed, k)` independently, so the
/// trace is random-access and two generators with the same parameters
/// agree on every boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyTrace {
    shape: EnergyShape,
    budget: u64,
    seed: u64,
}

impl EnergyTrace {
    /// Minimum on-duration in cycles: real regulators hold the rail for
    /// at least a few instructions past the wake threshold, and a zero
    /// duration would stall the cumulative schedule.
    pub const MIN_ON_CYCLES: u64 = 32;

    /// Creates a trace with a mean per-boot budget of `budget` cycles.
    pub fn new(shape: EnergyShape, budget: u64, seed: u64) -> EnergyTrace {
        EnergyTrace { shape, budget: budget.max(Self::MIN_ON_CYCLES), seed }
    }

    /// The shape this trace draws from.
    pub fn shape(&self) -> &EnergyShape {
        &self.shape
    }

    /// Mean per-boot energy budget, in cycles.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// On-duration of boot `k`, in cycles (deterministic in `(seed, k)`).
    pub fn on_duration(&self, k: u64) -> u64 {
        // Each boot gets its own generator stream so durations are
        // random-access (the golden-ratio multiplier decorrelates
        // neighbouring boot indices before seeding).
        let mut rng = SplitMix64::new(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = self.budget;
        let d = match &self.shape {
            EnergyShape::RcCharge => b / 2 + rng.below(b.max(1)),
            EnergyShape::Solar => {
                let env = SOLAR_ENVELOPE[(k % 16) as usize];
                let jitter = rng.below((b / 8).max(1));
                b * env / 1000 + jitter
            }
            EnergyShape::Rf => {
                if rng.below(4) == 0 {
                    // Transmitter nearby: a long harvesting window.
                    b * 2 + rng.below((b * 3).max(1))
                } else {
                    b / 8 + rng.below((b / 3).max(1))
                }
            }
            EnergyShape::Recorded(profile) => {
                if profile.is_empty() {
                    b
                } else {
                    let permille = u64::from(profile[(k % profile.len() as u64) as usize]);
                    b * permille / 1000
                }
            }
        };
        d.max(Self::MIN_ON_CYCLES)
    }

    /// The first `n` on-durations, in boot order.
    pub fn durations(&self, n: u64) -> Vec<u64> {
        (0..n).map(|k| self.on_duration(k)).collect()
    }

    /// Builds the power-loss schedule covering cumulative machine cycles
    /// `[0, horizon)`: a loss at the end of every boot's on-duration, for
    /// as long as the prefix sum stays below the horizon. The supply
    /// never relents within the horizon — there is no trailing
    /// free-power window, unlike a fixed-count schedule.
    pub fn plan_until(&self, horizon: u64) -> FaultPlan {
        let mut events = Vec::new();
        let mut t = 0u64;
        for k in 0.. {
            t = t.saturating_add(self.on_duration(k));
            if t >= horizon {
                break;
            }
            events.push(FaultEvent { cycle: t, kind: FaultKind::PowerLoss });
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_cycle_order() {
        let mut p = FaultPlan::new(vec![
            FaultEvent { cycle: 50, kind: FaultKind::PowerLoss },
            FaultEvent { cycle: 10, kind: FaultKind::BitFlip { addr: 0x2000, bit: 3 } },
        ]);
        assert_eq!(p.remaining(), 2);
        assert_eq!(p.take_due(5), None);
        let first = p.take_due(20).unwrap();
        assert_eq!(first.cycle, 10);
        assert_eq!(p.take_due(20), None, "second event not due yet");
        assert_eq!(p.take_due(50).unwrap().kind, FaultKind::PowerLoss);
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn next_cycle_tracks_the_firing_cursor() {
        assert_eq!(FaultPlan::default().next_cycle(), None, "empty plan");
        let mut p = FaultPlan::new(vec![
            FaultEvent { cycle: 50, kind: FaultKind::PowerLoss },
            FaultEvent { cycle: 10, kind: FaultKind::BitFlip { addr: 0x2000, bit: 3 } },
        ]);
        assert_eq!(p.next_cycle(), Some(10));
        assert_eq!(p.take_due(9), None);
        assert_eq!(p.next_cycle(), Some(10), "a miss does not advance");
        p.take_due(10).unwrap();
        assert_eq!(p.next_cycle(), Some(50));
        p.take_due(50).unwrap();
        assert_eq!(p.next_cycle(), None, "fully fired plan");
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultPlan::power_losses(9, 4, 100..10_000);
        let b = FaultPlan::power_losses(9, 4, 100..10_000);
        let c = FaultPlan::power_losses(10, 4, 100..10_000);
        assert_eq!(a.events(), b.events());
        assert_ne!(a.events(), c.events());
        assert!(a.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(a.events().iter().all(|e| (100..10_000).contains(&e.cycle)));
    }

    #[test]
    fn energy_traces_are_deterministic_and_random_access() {
        for shape in [
            EnergyShape::RcCharge,
            EnergyShape::Solar,
            EnergyShape::Rf,
            EnergyShape::Recorded(RECORDED_PROFILE.to_vec()),
        ] {
            let a = EnergyTrace::new(shape.clone(), 10_000, 7);
            let b = EnergyTrace::new(shape.clone(), 10_000, 7);
            let c = EnergyTrace::new(shape.clone(), 10_000, 8);
            assert_eq!(a.durations(64), b.durations(64), "{shape:?}");
            if !matches!(shape, EnergyShape::Recorded(_) | EnergyShape::Solar) {
                // Jitter-free playback shapes may coincide across seeds.
                assert_ne!(a.durations(64), c.durations(64), "{shape:?}");
            }
            // Random access agrees with sequential enumeration.
            assert_eq!(a.on_duration(17), a.durations(18)[17], "{shape:?}");
            assert!(a.durations(64).iter().all(|&d| d >= EnergyTrace::MIN_ON_CYCLES));
        }
    }

    #[test]
    fn energy_plans_cover_the_horizon_densely() {
        let trace = EnergyTrace::new(EnergyShape::RcCharge, 5_000, 3);
        let plan = trace.plan_until(200_000);
        assert!(!plan.events().is_empty());
        // Every event is a power loss, strictly inside the horizon, with
        // strictly increasing cumulative cycles.
        let mut prev = 0;
        for e in plan.events() {
            assert_eq!(e.kind, FaultKind::PowerLoss);
            assert!(e.cycle < 200_000);
            assert!(e.cycle > prev);
            prev = e.cycle;
        }
        // Mean spacing tracks the budget: ~40 losses over 200k cycles.
        assert!(plan.events().len() >= 25 && plan.events().len() <= 55, "{}", plan.events().len());
        // No trailing free-power window: the last loss lies within one
        // maximum on-duration of the horizon.
        assert!(plan.events().last().unwrap().cycle >= 200_000 - 3 * 5_000 / 2 - 1);
    }

    #[test]
    fn solar_trace_follows_the_diurnal_envelope() {
        let trace = EnergyTrace::new(EnergyShape::Solar, 8_000, 11);
        let d = trace.durations(16);
        // Noon (index 7) must dwarf midnight (index 15).
        assert!(d[7] > 4 * d[15], "noon {} vs midnight {}", d[7], d[15]);
    }

    #[test]
    fn bit_flip_schedules_target_requested_range() {
        let p = FaultPlan::bit_flips(3, 16, 0..1000, 0x4000..0x4100);
        assert_eq!(p.events().len(), 16);
        for e in p.events() {
            match e.kind {
                FaultKind::BitFlip { addr, bit } => {
                    assert!((0x4000..0x4100).contains(&addr));
                    assert!(bit < 8);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
