//! The benchmark's span recorder. Spans are recorded *outside* the
//! program, around the benchmark's calls into each layer's public API, and
//! kept in memory until the run ends. A span may also be synthesized from
//! a duration the program already reports (the per-pass times of a
//! build), laid end to end inside the span of the call that returned it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::{number, quote};

/// Identifies a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the trace's epoch.
    pub start: u64,
    /// Nanoseconds since the trace's epoch (equal to `start` while open).
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Small per-thread index, in order of each thread's first span.
    pub thread: u32,
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log shared by the worker threads.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn thread_index() -> u32 {
    THREAD.with(|t| match t.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        }
    })
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Trace::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
            thread: thread_index(),
            counters: Vec::new(),
        })
    }

    /// Closes span `id` now, attaching `counters`.
    pub fn end(&self, id: SpanId, counters: &[(&str, u64)]) {
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("a span writer panicked");
        let span = &mut spans[id];
        span.end = now;
        span.counters
            .extend(counters.iter().map(|&(k, v)| (k.to_string(), v)));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, &[]);
        out
    }

    /// Records a span of length `dur` starting at `start` (a duration the
    /// program reported rather than one the benchmark timed).
    pub fn record(&self, name: &str, parent: Option<SpanId>, start: Instant, dur: Duration) {
        let start = self.ns(start);
        self.push(Span {
            name: name.to_string(),
            start,
            end: start + u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            parent,
            thread: thread_index(),
            counters: Vec::new(),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span writer panicked")
    }
}

/// Per-name totals over a span log: total time and self time (duration
/// minus the direct children's durations).
#[derive(Debug, Default)]
pub struct Summary {
    pub total_ns: BTreeMap<String, u64>,
    pub self_ns: BTreeMap<String, u64>,
    /// Summed duration of the spans named `cell` (the busy time).
    pub busy_ns: u64,
    /// Summed duration of the cells' direct children.
    pub covered_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children_ns[p] += span.dur();
            }
        }
        let mut s = Summary::default();
        for (i, span) in spans.iter().enumerate() {
            *s.total_ns.entry(span.name.clone()).or_default() += span.dur();
            *s.self_ns.entry(span.name.clone()).or_default() +=
                span.dur().saturating_sub(children_ns[i]);
            if span.name == "cell" {
                s.busy_ns += span.dur();
                s.covered_ns += children_ns[i].min(span.dur());
            }
        }
        s
    }

    /// Total seconds in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Share of the cells' busy time covered by named child spans.
    pub fn coverage(&self) -> f64 {
        if self.busy_ns == 0 {
            return 0.0;
        }
        self.covered_ns as f64 / self.busy_ns as f64
    }
}

/// Writes the span log and its per-name summary as one JSON document.
pub fn write_json(path: &std::path::Path, meta: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let summary = Summary::of(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"meta\":{meta},\"layers\":[")?;
    for (i, (name, total)) in summary.total_ns.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(
            out,
            "{comma}{{\"name\":{},\"total_s\":{},\"self_s\":{}}}",
            quote(name),
            number(*total as f64 / 1e9),
            number(summary.self_ns[name] as f64 / 1e9)
        )?;
    }
    write!(out, "],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        write!(
            out,
            "{comma}{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"thread\":{},\"counters\":{{{}}}}}",
            quote(&s.name),
            s.start,
            s.end,
            s.thread,
            counters.join(",")
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let trace = Trace::new();
        let cell = trace.begin("cell", None);
        let t0 = Instant::now();
        trace.record("a", Some(cell), t0, Duration::from_millis(3));
        trace.record("b", Some(cell), t0, Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(6));
        trace.end(cell, &[("ops", 4)]);
        let spans = trace.into_spans();
        assert_eq!(spans[0].counters, vec![("ops".to_string(), 4)]);
        let s = Summary::of(&spans);
        assert_eq!(s.total_ns["a"], 3_000_000);
        assert_eq!(s.covered_ns, 5_000_000);
        assert!(s.self_ns["cell"] >= 1_000_000);
        assert!(s.coverage() > 0.0 && s.coverage() < 1.0);
    }
}
