//! Shared helpers: metric lists, order statistics, digests, memory.

use experiments::campaign::{fnv1a64, percentile};
use experiments::json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj(vec![("value", Json::F64(*v)), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        )
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it (nearest rank).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub beyond: usize,
    pub value: f64,
}

pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let at = |p: f64| Tail {
        value: percentile(xs, p),
        percentile: p,
        // The nearest rank `percentile` reads.
        beyond: n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n),
    };
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .map(at)
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

/// Accumulates the canonical text of every simulated counter; the digest
/// is FNV-1a 64 of that text.
#[derive(Debug, Default)]
pub struct Digest(String);

impl Digest {
    pub fn add(&mut self, part: &str) {
        self.0.push_str(part);
        self.0.push('\n');
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", fnv1a64(self.0.as_bytes()))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed calibration kernel, independent of the repository's code.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Integer arithmetic and random access to a 512 KiB table, like the
    /// simulator's inner loop. Takes about 0.5 ms at the reference speed.
    Compute,
    /// Formatting, hashing, sorting and freeing a few thousand small heap
    /// objects, like builds, harness maps and report rows. Takes about
    /// 1.6 ms at the reference speed.
    Alloc,
}

impl Kernel {
    fn reference_ms(self) -> f64 {
        match self {
            Kernel::Compute => 0.5,
            Kernel::Alloc => 1.6,
        }
    }

    /// Half-width of the time window whose fastest calibration run scales
    /// a measurement, in seconds: wide enough to hold a few samples, so
    /// that a burst of noise on the box does not decide it, and narrow
    /// next to the drift it corrects. `steady` and `thrash` sample
    /// `Compute` once per pass (0.4-1 s). `sweep` samples `Alloc`
    /// once per manifest chunk (about 0.2 s), and a narrower window
    /// tracked its drift better: over eight 30-second sweeps, throughput
    /// spread 7.4% with 1.5 s and 3.9% with 0.5 s.
    fn window_s(self) -> f64 {
        match self {
            Kernel::Compute => 1.5,
            Kernel::Alloc => 0.5,
        }
    }
}

/// A calibration kernel run between measurements. The shared host drifts
/// in speed over tens of seconds, and a workload drifts with the kernel
/// that resembles its host work while their ratio stays nearly constant.
/// A time measured at `t` is scaled by the kernel's reference time over
/// its fastest run within `Kernel::window_s` of `t`, which reports it at one
/// reference speed. See NOTES.md.
pub struct Yardstick {
    kernel: Kernel,
    buf: Vec<u64>,
    t0: Instant,
    /// (seconds since creation, fastest of the runs then) per sample.
    seen: Vec<(f64, f64)>,
}

impl Yardstick {
    pub fn new(kernel: Kernel) -> Yardstick {
        let buf = match kernel {
            Kernel::Compute => vec![0; 1 << 16],
            Kernel::Alloc => Vec::new(),
        };
        Yardstick {
            kernel,
            buf,
            t0: Instant::now(),
            seen: Vec::new(),
        }
    }

    /// Seconds since the yardstick was created: the clock of `scale_at`.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn once_ms(&mut self) -> f64 {
        let t = Instant::now();
        match self.kernel {
            Kernel::Compute => {
                let mask = self.buf.len() - 1;
                let (mut x, mut s) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
                for _ in 0..200_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = x as usize & mask;
                    self.buf[i] = self.buf[i].wrapping_add(x);
                    s = s.wrapping_add(self.buf[i.wrapping_mul(7) & mask]);
                }
                std::hint::black_box(s);
            }
            Kernel::Alloc => {
                let mut m: HashMap<String, Vec<u64>> = HashMap::new();
                for i in 0..3000u64 {
                    m.insert(
                        format!("cell|{i:08x}|{}", i.wrapping_mul(0x9E37_79B9)),
                        vec![i; 96],
                    );
                }
                let mut keys: Vec<&String> = m.keys().collect();
                keys.sort();
                std::hint::black_box(keys.iter().map(|k| k.len()).sum::<usize>());
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel three times and records the fastest.
    pub fn sample(&mut self) {
        let ms = (0..3).map(|_| self.once_ms()).fold(f64::INFINITY, f64::min);
        let t = self.now();
        self.seen.push((t, ms));
    }

    /// The factor that scales a time measured at `t` to the reference
    /// speed.
    pub fn scale_at(&self, t: f64) -> f64 {
        let near = self
            .seen
            .iter()
            .filter(|(ts, _)| (ts - t).abs() <= self.kernel.window_s());
        let fastest = near.map(|&(_, ms)| ms).fold(f64::INFINITY, f64::min);
        let fastest = if fastest.is_finite() {
            fastest
        } else {
            self.seen
                .iter()
                .map(|&(_, ms)| ms)
                .fold(f64::INFINITY, f64::min)
        };
        self.kernel.reference_ms() / fastest
    }

    /// Quartiles of the calibration samples, for the report.
    pub fn json(&self) -> Json {
        let mut s: Vec<f64> = self.seen.iter().map(|&(_, ms)| ms).collect();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            s.get(((s.len() as f64 - 1.0) * p).round() as usize)
                .copied()
                .unwrap_or(0.0)
        };
        Json::obj(vec![
            ("kernel", Json::str(format!("{:?}", self.kernel))),
            ("ref_ms", Json::F64(self.kernel.reference_ms())),
            ("samples", Json::U64(s.len() as u64)),
            ("min_ms", Json::F64(q(0.0))),
            ("q1_ms", Json::F64(q(0.25))),
            ("median_ms", Json::F64(q(0.5))),
            ("q3_ms", Json::F64(q(0.75))),
            ("max_ms", Json::F64(q(1.0))),
        ])
    }
}

/// Consecutive set-ups whose fastest stands for their group.
const SETUP_GROUP: usize = 3;

/// Groups of set-ups made before the measured loop starts.
const SETUP_FIRST_GROUPS: usize = 3;

/// Seconds between the groups made during the measured loop.
const SETUP_EVERY_S: f64 = 1.0;

/// Set-up times, taken in groups of `SETUP_GROUP` spread over the run:
/// the host's speed drifts over seconds, and the calibration kernels
/// follow that drift only in part for set-up work, so groups made at
/// different moments are needed for a steady median. Noise only adds time,
/// so each group keeps its fastest set-up, and `setup_s` is the median
/// over the groups, at the reference speed.
#[derive(Debug, Default)]
pub struct Setups {
    /// Per group: (yardstick clock at the start, seconds) of each set-up.
    groups: Vec<Vec<(f64, f64)>>,
    /// Yardstick clock at the end of the last group.
    last: f64,
}

impl Setups {
    /// Makes the first `SETUP_FIRST_GROUPS` groups and returns the last
    /// set-up's result. `setup` gets a number no other set-up of the run
    /// gets.
    pub fn first<T>(
        &mut self,
        yard: &mut Yardstick,
        mut setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_FIRST_GROUPS {
            last = Some(self.group(yard, &mut setup)?);
        }
        Ok(last.expect("at least one group"))
    }

    /// Makes one more group when `SETUP_EVERY_S` have passed since the
    /// last, dropping its results.
    pub fn due<T>(
        &mut self,
        yard: &mut Yardstick,
        mut setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<(), String> {
        if yard.now() - self.last >= SETUP_EVERY_S {
            self.group(yard, &mut setup)?;
        }
        Ok(())
    }

    fn group<T>(
        &mut self,
        yard: &mut Yardstick,
        setup: &mut impl FnMut(usize) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut times = Vec::with_capacity(SETUP_GROUP);
        let mut last = None;
        for _ in 0..SETUP_GROUP {
            yard.sample();
            let i = self.groups.len() * SETUP_GROUP + times.len();
            let (start, t) = (yard.now(), Instant::now());
            let out = setup(i)?;
            times.push((start, t.elapsed().as_secs_f64()));
            // Dropped outside the timed span.
            last = Some(out);
        }
        yard.sample();
        self.groups.push(times);
        self.last = yard.now();
        Ok(last.expect("a group makes at least one set-up"))
    }

    /// Number of groups made.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// The median over the groups of each group's fastest set-up, in
    /// seconds at the reference speed.
    pub fn seconds(&self, yard: &Yardstick) -> f64 {
        let fastest: Vec<f64> = self
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&(t, s)| s * yard.scale_at(t))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        median(&fastest)
    }
}
