//! What a workload run produces, the statistics over it, and the timed
//! phase every workload shares: rounds of cells over two worker threads,
//! each cell timed from outside and checked, alternating traced and
//! untraced rounds when tracing.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use safe_tinyos::BuildService;

use crate::trace::{Span, SpanId, Summary, Trace};

/// Worker threads of the load generator: one process drives two workers.
pub const WORKERS: usize = 2;

/// The share of each workload's traced busy time named spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// Failure messages kept for the summary (every failure is counted).
const MAX_MESSAGES: usize = 40;

/// Work counters by name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Operations attempted and failed, with a message naming each failing
/// cell.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts a cell of `ops` operations, failing all of them if `check`
    /// is an error.
    pub fn cell(&mut self, label: &str, ops: u64, check: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = check {
            self.fail(label, ops, &e);
        }
    }

    /// Fails `ops` already-attempted operations of cell `label`.
    pub fn fail(&mut self, label: &str, ops: u64, problem: &str) {
        self.failed = (self.failed + ops).min(self.attempted.max(ops));
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(format!("{label}: {problem}"));
        }
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host latency of every timed cell, in milliseconds.
    pub cells_ms: Vec<f64>,
    /// Operations the timed cells completed.
    pub ops: u64,
    /// Wall seconds of the timed rounds.
    pub measured_s: f64,
    pub rounds: usize,
    /// Operations per second of each timed round.
    pub round_ops_per_s: Vec<f64>,
    pub tally: Tally,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Problems with the traced run itself (coverage, a breakdown that
    /// does not reproduce the untraced result).
    pub trace_problems: Vec<String>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
    /// The traced rounds' spans, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Runs one set-up repetition, recording its time.
    pub fn time_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(setup());
        self.setup_s.push(start.elapsed().as_secs_f64());
        out
    }
}

/// How a workload's timed phase is shaped.
pub struct Phase<'a> {
    /// Seconds of timed rounds to run (at least one round; two when traced).
    pub seconds: f64,
    /// Alternate traced and untraced rounds.
    pub traced: bool,
    /// One label per cell, naming it in failures.
    pub labels: &'a [String],
    pub ops_per_cell: u64,
    /// Set-up repetitions, spread evenly over the timed phase so the
    /// median `setup_s` sees the same host conditions as the rounds.
    pub setup_reps: usize,
}

/// What a cell sees: the round's fresh build service and, in a traced
/// round, the trace with the cell's own span.
pub struct Round<'a> {
    pub service: &'a BuildService,
    pub trace: Option<(&'a Trace, SpanId)>,
}

/// What `check` kept of each cell in the first untraced and the first
/// traced round (`None` for a failed cell), and the traced rounds' work
/// counters.
pub struct Timed<K> {
    pub untraced: Vec<Option<K>>,
    pub traced: Vec<Option<K>>,
    pub counters: Counters,
    pub traced_rounds: usize,
}

impl<K> Timed<K> {
    /// The first untraced round's results (the traced round's if none).
    pub fn results(&self) -> &[Option<K>] {
        if self.untraced.is_empty() {
            &self.traced
        } else {
            &self.untraced
        }
    }
}

/// Runs rounds of every cell across the worker pool until `phase.seconds`
/// of rounds have been timed. Each cell is timed from outside, a panic is
/// caught, and every result goes through `check`, which returns what to
/// keep of it; a failing cell is counted without aborting the run.
/// `setup` is one more set-up repetition; `service_counts` reads a
/// round's counters off its service.
pub fn timed_phase<R: Send, K, S>(
    out: &mut Outcome,
    phase: &Phase,
    setup: impl Fn() -> S,
    cell: impl Fn(&Round, usize) -> Result<(R, Counts), String> + Sync,
    service_counts: impl Fn(&BuildService) -> Counts,
    mut check: impl FnMut(usize, R) -> Result<K, String>,
) -> Timed<K> {
    let n = phase.labels.len();
    let min_rounds = if phase.traced { 2 } else { 1 };
    let trace_log = Trace::new();
    let mut timed = Timed {
        untraced: Vec::new(),
        traced: Vec::new(),
        counters: Counters::default(),
        traced_rounds: 0,
    };
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let (mut busy_s, mut idle_s) = (0.0, 0.0);
    while out.measured_s < phase.seconds || out.rounds < min_rounds {
        while out.setup_s.len() < phase.setup_reps
            && out.measured_s >= phase.seconds * out.setup_s.len() as f64 / phase.setup_reps as f64
        {
            out.time_setup(&setup);
        }
        // Traced runs alternate traced and untraced rounds, so the tracing
        // overhead shows as the difference of their wall times.
        let trace = (phase.traced && out.rounds.is_multiple_of(2)).then_some(&trace_log);
        let service = BuildService::with_threads(WORKERS);
        let start = Instant::now();
        let results = service.run_jobs(n, |i| {
            let t = Instant::now();
            let r = catch(|| match trace {
                None => cell(
                    &Round {
                        service: &service,
                        trace: None,
                    },
                    i,
                ),
                Some(trace) => {
                    let id = trace.begin("cell", None);
                    let round = Round {
                        service: &service,
                        trace: Some((trace, id)),
                    };
                    let r = cell(&round, i);
                    let counts: Vec<(&str, u64)> = r
                        .as_ref()
                        .map(|(_, c)| c.iter().map(|(k, v)| (*k, *v)).collect())
                        .unwrap_or_default();
                    trace.end(id, &counts);
                    r
                }
            });
            (r, t.elapsed().as_secs_f64() * 1e3)
        });
        let wall = start.elapsed().as_secs_f64();
        out.measured_s += wall;
        out.rounds += 1;
        out.ops += n as u64 * phase.ops_per_cell;
        out.round_ops_per_s
            .push(n as f64 * phase.ops_per_cell as f64 / wall);

        let cells_s: f64 = results.iter().map(|(_, ms)| ms / 1e3).sum();
        let mut counts = service_counts(&service);
        let mut kept = Vec::with_capacity(n);
        for (i, (result, ms)) in results.into_iter().enumerate() {
            out.cells_ms.push(ms);
            let checked = result.and_then(|(r, c)| {
                for (k, v) in c {
                    *counts.entry(k).or_insert(0) += v;
                }
                check(i, r)
            });
            let label = &phase.labels[i];
            kept.push(match checked {
                Ok(k) => {
                    out.tally.cell(label, phase.ops_per_cell, Ok(()));
                    Some(k)
                }
                Err(e) => {
                    out.tally.cell(label, phase.ops_per_cell, Err(e));
                    None
                }
            });
        }
        if trace.is_some() {
            traced_walls.push(wall);
            busy_s += cells_s;
            idle_s += WORKERS as f64 * wall - cells_s;
            timed.counters.observe(counts, &mut out.tally);
            if timed.traced.is_empty() {
                timed.traced = kept;
            }
        } else {
            untraced_walls.push(wall);
            if timed.untraced.is_empty() {
                timed.untraced = kept;
            }
        }
    }
    while out.setup_s.len() < phase.setup_reps {
        out.time_setup(&setup);
    }

    if phase.traced {
        let spans = trace_log.into_spans();
        let coverage = Summary::of(&spans).coverage();
        if coverage < MIN_COVERAGE {
            out.trace_problems.push(format!(
                "named spans cover {:.1}% of the busy time (< {:.0}%)",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        let rounds = traced_walls.len() as f64;
        let (traced, untraced) = (median(&traced_walls), median(&untraced_walls));
        let l = &mut out.layers;
        l.insert("core.service.busy_s", busy_s / rounds);
        l.insert("core.service.idle_s", idle_s / rounds);
        l.insert("trace.coverage", coverage);
        l.insert("trace.traced_round_s", traced);
        l.insert("trace.untraced_round_s", untraced);
        l.insert("trace.overhead_ratio", traced / untraced);
        out.spans = spans;
        timed.traced_rounds = traced_walls.len();
    }
    timed
}

/// Runs `body`, turning a panic into an error carrying its message.
fn catch<R>(body: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<&str>()
            .map(|s| format!("panicked: {s}"))
            .or_else(|| {
                payload
                    .downcast_ref::<String>()
                    .map(|s| format!("panicked: {s}"))
            })
            .unwrap_or_else(|| "panicked".to_string()))
    })
}

/// Per-layer values of a traced run: span totals and counters per traced
/// round.
pub struct Layers<'a> {
    summary: Summary,
    counters: &'a Counters,
    rounds: f64,
}

impl<'a> Layers<'a> {
    pub fn new<K>(out: &Outcome, timed: &'a Timed<K>) -> Layers<'a> {
        Layers {
            summary: Summary::of(&out.spans),
            counters: &timed.counters,
            rounds: timed.traced_rounds.max(1) as f64,
        }
    }

    /// Seconds per round in spans named `span`.
    pub fn secs(&self, span: &str) -> f64 {
        self.summary.secs(span) / self.rounds
    }

    /// A per-round work counter.
    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name) as f64
    }
}

/// Linear-interpolation quantile of sorted `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-round work counters of a traced run: the first round's values,
/// with any later round that differs reported as a failure.
#[derive(Debug, Default)]
pub struct Counters {
    first: Option<Counts>,
}

impl Counters {
    pub fn observe(&mut self, round: Counts, tally: &mut Tally) {
        match &self.first {
            None => self.first = Some(round),
            Some(first) if *first != round => {
                let drift: Vec<String> = first
                    .iter()
                    .filter(|(k, v)| round.get(*k) != Some(v))
                    .map(|(k, v)| format!("{k} {v} -> {:?}", round.get(k)))
                    .collect();
                tally.fail("work counters", 1, &drift.join(", "));
            }
            Some(_) => {}
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.first
            .as_ref()
            .and_then(|c| c.get(name).copied())
            .unwrap_or(0)
    }
}

/// A deterministic sample of `k` distinct indices below `n`, drawn from
/// `seed`.
pub fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = mcu::faults::SplitMix64::new(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    while out.len() < k.min(n) {
        let j = rng.below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(j));
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_are_seeded_and_distinct() {
        let a = sample(77, 4, 9);
        assert_eq!(a, sample(77, 4, 9));
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample(3, 5, 1), vec![0, 1, 2]);
    }

    #[test]
    fn failures_never_exceed_attempts() {
        let mut t = Tally::default();
        t.cell("a", 4, Err("bad".into()));
        t.fail("a", 4, "interp differs");
        assert_eq!((t.attempted, t.failed), (4, 4));
        assert_eq!(t.failures.len(), 2);
    }

    #[test]
    fn a_panicking_or_failing_cell_is_counted_and_the_run_goes_on() {
        let labels: Vec<String> = (0..4).map(|i| format!("cell {i}")).collect();
        let phase = Phase {
            seconds: 1e-9,
            traced: true,
            labels: &labels,
            ops_per_cell: 3,
            setup_reps: 2,
        };
        let mut out = Outcome::default();
        let timed = timed_phase(
            &mut out,
            &phase,
            || (),
            |round, i| {
                if let Some((trace, id)) = round.trace {
                    trace.span("work", Some(id), || ());
                }
                match i {
                    1 => panic!("boom"),
                    2 => Err("no image".into()),
                    _ => Ok((i, Counts::from([("work", 1)]))),
                }
            },
            |_| Counts::new(),
            |i, r| {
                if i == 3 {
                    Err("differs".into())
                } else {
                    Ok(r * 10)
                }
            },
        );
        assert_eq!(out.rounds, 2);
        assert_eq!(out.setup_s.len(), 2);
        assert_eq!((out.tally.attempted, out.tally.failed), (24, 18));
        assert!(out.tally.failures[0].starts_with("cell 1: panicked: boom"));
        assert_eq!(timed.results()[0], Some(0));
        assert_eq!(timed.untraced[3], None);
        assert_eq!(timed.traced[1], None);
        assert_eq!(timed.counters.get("work"), 2);
        assert!(out.layers.contains_key("trace.coverage"));
    }
}
