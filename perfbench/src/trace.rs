//! In-memory span recorder for the traced pass.
//!
//! A span is (name, start, end, parent, op id). Spans are kept in memory
//! and written out when the benchmark ends. A disabled tracer runs the
//! wrapped closure and records nothing, so the untraced pass pays one
//! branch per call site.
//!
//! The recorder keeps one stack of open spans, so it must be driven from
//! one thread. Every pass of the benchmark is sequential (the sweep uses a
//! one-job harness), which keeps parent links exact.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    t0: Instant,
    state: Option<Mutex<State>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: Some(Mutex::new(State::default())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, attributed to operation `op`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else { return f() };
        let idx = {
            let mut s = state.lock().expect("tracer lock poisoned");
            let idx = s.spans.len();
            let parent = s.open.last().copied();
            let start_ns = self.now_ns();
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            s.open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut s = state.lock().expect("tracer lock poisoned");
        s.spans[idx].end_ns = end;
        s.open.pop();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.lock().expect("tracer lock poisoned").spans.clone())
            .unwrap_or_default()
    }
}

/// Per-name totals: calls, inclusive time and self time (inclusive minus
/// the time its direct children cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(cov);
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        )?;
    }
    w.flush()
}
