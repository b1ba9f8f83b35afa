//! The repository benchmark: one workload per invocation, end-to-end
//! metrics from an untraced run (`--trace 0`) or per-layer metrics from a
//! traced run (`--trace 1`). `run.py` builds this binary, checks the
//! result against `BENCHMARK.json` and prints it; see `NOTES.md`.
//!
//! ```text
//! perfbench --workload sweep|steady|thrash --seed N --seconds S --trace 0|1
//!           --out RESULT.json --work DIR
//! ```

mod runs;
mod sim;
mod sweep;
mod trace;
mod util;

use experiments::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::{Layer, Span};
use util::{Metrics, Tail};

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Anything that makes the run incorrect: an unexpected wrong output,
    /// a digest mismatch, a probe disagreeing with the harness.
    pub problems: Vec<String>,
    /// Digest over every simulated counter and checksum.
    pub digest: String,
    pub metrics: Metrics,
    pub info: Vec<(&'static str, Json)>,
    pub spans: Vec<Span>,
}

/// Per-layer span names and the metric each one's mean self time is
/// reported as.
const LAYER_TIMES: [(&str, &str); 11] = [
    ("asm.parse", "asm.parse_ms"),
    ("asm.assemble", "asm.assemble_ms"),
    ("swapram.pass", "swapram.pass_ms"),
    ("blockcache.bbpass", "blockcache.bbpass_ms"),
    ("mibench.build", "mibench.build_ms"),
    ("mibench.oracle", "mibench.oracle_ms"),
    ("msp430.setup", "msp430.setup_ms"),
    ("msp430.run", "msp430.run_ms"),
    ("experiments.run_cell", "experiments.run_cell_ms"),
    ("experiments.merge", "experiments.merge_ms"),
    ("experiments.summary", "experiments.summary_ms"),
];

/// Puts the mean self time per call of every layer that was called, and
/// `msp430.ns_per_instr` from the `msp430.run` spans and the instructions
/// those runs retired.
pub fn put_layer_times(m: &mut Metrics, table: &BTreeMap<&'static str, Layer>, instructions: u64) {
    for (span, metric) in LAYER_TIMES {
        if let Some(l) = table.get(span) {
            m.put(metric, l.self_ns as f64 / l.calls as f64 / 1e6, "ms");
        }
    }
    if let Some(l) = table.get("msp430.run") {
        m.put(
            "msp430.ns_per_instr",
            l.total_ns as f64 / instructions.max(1) as f64,
            "ns",
        );
    }
}

pub fn layers_json(table: &BTreeMap<&'static str, Layer>) -> Json {
    Json::Arr(
        table
            .iter()
            .map(|(name, l)| {
                Json::obj(vec![
                    ("name", Json::str(*name)),
                    ("calls", Json::U64(l.calls)),
                    ("total_ms", Json::F64(l.total_ns as f64 / 1e6)),
                    ("self_ms", Json::F64(l.self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

pub fn tail_json(t: &Tail, samples: usize) -> Json {
    Json::obj(vec![
        ("percentile", Json::F64(t.percentile)),
        ("beyond", Json::U64(t.beyond as u64)),
        ("samples", Json::U64(samples as u64)),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload sweep|steady|thrash --seed N --seconds S --trace 0|1 \
         --out PATH --work DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| usage(&format!("missing {name}")))
    };
    let num = |name: &str| -> f64 {
        get(name)
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad {name} value")))
    };
    let seconds = num("--seconds");
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        workload: get("--workload"),
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("bad --seed value")),
        seconds,
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace takes 0 or 1"),
        },
        out: PathBuf::from(get("--out")),
        work: PathBuf::from(get("--work")),
    }
}

fn main() {
    let a = parse_args();
    let result = match a.workload.as_str() {
        "sweep" => sweep::run(a.seed, a.seconds, a.trace, &a.work),
        "steady" | "thrash" => runs::run(&a.workload, a.seed, a.seconds, a.trace),
        w => usage(&format!("unknown workload {w:?}")),
    };
    let o = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {} failed: {e}", a.workload);
        std::process::exit(1);
    });
    let mut fields = vec![
        ("workload", Json::str(a.workload.clone())),
        ("seed", Json::U64(a.seed)),
        ("trace", Json::Bool(a.trace)),
        ("correct", Json::Bool(o.problems.is_empty())),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("digest", Json::str(o.digest.clone())),
        (
            "problems",
            Json::Arr(o.problems.iter().map(Json::str).collect()),
        ),
        ("metrics", o.metrics.json()),
    ];
    fields.extend(o.info);
    let write = || -> std::io::Result<()> {
        std::fs::write(&a.out, Json::obj(fields).pretty(2))?;
        if a.trace {
            trace::write_spans(
                &a.work.join(format!("spans-{}.jsonl", a.workload)),
                &o.spans,
            )?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: writing results: {e}");
        std::process::exit(1);
    }
}
