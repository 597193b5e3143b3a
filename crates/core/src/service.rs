//! [`BuildService`]: the batch build facade.
//!
//! A [`crate::BuildSession`] answers one question — "build this app
//! under this pipeline, reusing the frontend and pass caches". The
//! service layers the *batch* shape every evaluation harness actually
//! has on top of it: submit a vector of [`BuildRequest`]s, get the
//! vector of results back in request order, with the work fanned out
//! across worker threads that share both caches and with jobs ordered
//! so siblings that share a pipeline prefix run near each other (the
//! first one warms the entries the rest hit).
//!
//! ```
//! use safe_tinyos::{BuildRequest, BuildService, Pipeline};
//!
//! let service = BuildService::new();
//! let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
//! let requests: Vec<_> = Pipeline::fig2_stacks()
//!     .into_iter()
//!     .map(|pipeline| BuildRequest::new(spec.clone(), pipeline))
//!     .collect();
//! let results = service.submit(requests);
//! assert!(results.iter().all(|r| r.is_ok()));
//! // One frontend compile, and the shared `cure(flid)` prefix of the
//! // last three stacks ran once (two hits).
//! assert_eq!(service.session().frontend_compiles(), 1);
//! assert_eq!(service.cache_stats().get("cure").hits, 2);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tcil::CompileError;
use tosapps::AppSpec;

use crate::{Build, BuildSession, CacheStats, Pipeline};

/// One unit of batch work: an app built under a pipeline.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// The app to build.
    pub spec: AppSpec,
    /// The pipeline to build it under.
    pub pipeline: Pipeline,
}

impl BuildRequest {
    /// A request to build `spec` under `pipeline`.
    pub fn new(spec: AppSpec, pipeline: Pipeline) -> BuildRequest {
        BuildRequest { spec, pipeline }
    }
}

/// The outcome of one [`BuildRequest`].
pub type BuildResult = Result<Build, CompileError>;

/// A batch build service: a [`BuildSession`] (frontend + pass caches)
/// plus a worker pool. The one blessed entry point for anything that
/// builds more than one configuration; one-off callers can use
/// [`BuildService::build`] or a bare session.
///
/// The service keeps its own books: how many jobs its batches ran and
/// how long they took ([`BuildService::jobs`], [`BuildService::wall`]);
/// the session sums every build's pass times.
pub struct BuildService {
    session: BuildSession,
    threads: usize,
    jobs: AtomicUsize,
    wall_nanos: AtomicU64,
}

impl BuildService {
    /// A service over a fresh cached session, with one worker per
    /// available core.
    pub fn new() -> BuildService {
        Self::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// A service with an explicit worker count (1 = fully serial; the
    /// results are byte-identical either way).
    pub fn with_threads(threads: usize) -> BuildService {
        BuildService {
            session: BuildSession::new(),
            threads: threads.max(1),
            jobs: AtomicUsize::new(0),
            wall_nanos: AtomicU64::new(0),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &BuildSession {
        &self.session
    }

    /// The worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs run by every batch so far ([`BuildService::submit`],
    /// [`BuildService::run_jobs`] and [`BuildService::run_jobs_labeled`]
    /// alike). A pure function of the batches, whatever the worker count.
    pub fn jobs(&self) -> usize {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Wall time spent inside batches so far — simulation and any other
    /// work the jobs did included, not just compiles.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed))
    }

    /// A snapshot of the session's pass-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.session.cache_stats()
    }

    /// Builds one request inline (no worker fan-out), through the shared
    /// caches.
    ///
    /// # Errors
    ///
    /// Propagates compile errors from the frontend or any pass.
    pub fn build(&self, spec: &AppSpec, pipeline: &Pipeline) -> BuildResult {
        self.session.build(spec, pipeline)
    }

    /// Builds a batch, returning results in request order.
    ///
    /// Jobs are *executed* in cache-aware order — grouped by app, then
    /// by canonical pipeline spec — so requests sharing a pipeline
    /// prefix run adjacently and the first warms the pass-cache entries
    /// its siblings hit. Because cache entries compute exactly once
    /// (concurrent requesters of a key block on one computation), the
    /// results and the cache's miss counts are identical for any worker
    /// count, including 1.
    pub fn submit(&self, requests: Vec<BuildRequest>) -> Vec<BuildResult> {
        // Sort job indices, not jobs: results scatter back by index so
        // callers see request order.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        let keys: Vec<(&str, String)> = requests
            .iter()
            .map(|r| (r.spec.config, r.pipeline.spec()))
            .collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));

        let mut scattered: Vec<Option<BuildResult>> = self
            .run_jobs_labeled(
                order.len(),
                |slot| {
                    let request = &requests[order[slot]];
                    self.session.build(&request.spec, &request.pipeline)
                },
                |slot| {
                    let request = &requests[order[slot]];
                    format!("{} / {}", request.spec.config, request.pipeline.spec())
                },
            )
            .into_iter()
            .map(Some)
            .collect();
        let mut results: Vec<Option<BuildResult>> = (0..requests.len()).map(|_| None).collect();
        for (slot, &index) in order.iter().enumerate() {
            results[index] = scattered[slot].take();
        }
        results
            .into_iter()
            .map(|r| r.expect("every request produced a result"))
            .collect()
    }

    /// Runs `f(0..n)` across the worker pool, returning the results in
    /// index order. Workers claim indices from a shared counter
    /// (work-stealing by atomic increment), so long jobs don't leave a
    /// statically-assigned worker idle. The generic engine under
    /// [`BuildService::submit`], exposed for harnesses that fan out
    /// non-build work (simulation cells, fault campaigns) over the same
    /// pool.
    pub fn run_jobs<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_jobs_labeled(n, f, |i| format!("job {i}"))
    }

    /// [`BuildService::run_jobs`] with a caller-supplied job label. If a
    /// job panics, the pool re-raises the *first* panic (by job index)
    /// on the caller's thread with the label prepended — `label(i):
    /// original message` — so a grid failure names the app × spec that
    /// died instead of surfacing as a bare worker-thread panic. The batch
    /// counts toward [`BuildService::jobs`] and [`BuildService::wall`].
    pub fn run_jobs_labeled<R, F, L>(&self, n: usize, f: F, label: L) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let start = Instant::now();
        let out = self.fan_out(n, f, label);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.jobs.fetch_add(n, Ordering::Relaxed);
        out
    }

    fn fan_out<R, F, L>(&self, n: usize, f: F, label: L) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            return (0..n)
                .map(|i| {
                    run_labeled(&label, i, || f(i)).unwrap_or_else(|msg| std::panic::panic_any(msg))
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // The first panic by *job index* (not arrival order), so the
        // error a caller sees is deterministic across worker counts.
        let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match run_labeled(&label, i, || f(i)) {
                        Ok(r) => *slots[i].lock().unwrap() = Some(r),
                        Err(msg) => {
                            let mut failure = failure.lock().unwrap();
                            if failure.as_ref().is_none_or(|(j, _)| i < *j) {
                                *failure = Some((i, msg));
                            }
                        }
                    }
                });
            }
        });
        if let Some((_, msg)) = failure.into_inner().unwrap() {
            std::panic::panic_any(msg);
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
            .collect()
    }
}

impl Default for BuildService {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `body`, converting a panic into `Err("label: message")` with
/// the payload stringified the way the default hook renders it
/// (`&str`/`String` payloads verbatim, anything else opaque).
fn run_labeled<R>(
    label: &(impl Fn(usize) -> String + Sync),
    i: usize,
    body: impl FnOnce() -> R,
) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("{}: {msg}", label(i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_returns_results_in_request_order() {
        let service = BuildService::with_threads(2);
        let blink = tosapps::spec("BlinkTask_Mica2").unwrap();
        let requests = vec![
            BuildRequest::new(blink.clone(), Pipeline::safe_flid()),
            BuildRequest::new(blink.clone(), Pipeline::unsafe_baseline()),
            BuildRequest::new(blink.clone(), Pipeline::safe_flid()),
        ];
        let results = service.submit(requests);
        let sizes: Vec<u32> = results
            .iter()
            .map(|r| r.as_ref().unwrap().metrics.code_bytes)
            .collect();
        // Safe builds are bigger than the unsafe baseline, and the two
        // identical requests match: order survived the cache-aware
        // permutation.
        assert_eq!(sizes[0], sizes[2]);
        assert!(sizes[0] > sizes[1]);
    }

    #[test]
    fn shared_prefixes_miss_once_across_a_batch() {
        let service = BuildService::with_threads(4);
        let blink = tosapps::spec("BlinkTask_Mica2").unwrap();
        // Four stacks sharing the default-cure prefix.
        let requests: Vec<_> = [
            "cure(flid)",
            "cure(flid)|cxprop",
            "cure(flid)|cxprop|prune",
            "cure(flid)|inline|cxprop|prune",
        ]
        .iter()
        .map(|s| BuildRequest::new(blink.clone(), Pipeline::parse(s).unwrap()))
        .collect();
        let results = service.submit(requests);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = service.cache_stats();
        let cure = stats.get("cure");
        assert_eq!(cure.misses, 1, "shared cure prefix computed once");
        assert_eq!(cure.hits, 3);
        // cxprop forks: same input after cure in stacks 2–4? Stack 4
        // inlines first, so cxprop sees two distinct inputs.
        assert_eq!(stats.get("cxprop").misses, 2);
    }

    #[test]
    fn session_total_is_the_sum_of_every_build_for_any_worker_count() {
        let spec = |app| tosapps::spec(app).unwrap();
        let requests: Vec<_> = ["BlinkTask_Mica2", "Surge_Mica2"]
            .into_iter()
            .flat_map(|app| {
                ["unsafe", "safe-flid", "safe-flid-inline-cxprop"]
                    .map(|p| BuildRequest::new(spec(app), Pipeline::preset(p).unwrap()))
            })
            .collect();
        let mut jobs = Vec::new();
        for threads in [1, 8] {
            let service = BuildService::with_threads(threads);
            let mut sum = crate::PassTimes::default();
            let mut frontends = 0;
            for result in service.submit(requests.clone()) {
                let times = &result.unwrap().metrics.pass_times;
                frontends += usize::from(times.iter().any(|(pass, _)| pass == "frontend"));
                sum.add(times);
            }
            // Each app's frontend is charged to exactly one build.
            assert_eq!(frontends, 2, "{threads} workers");
            // Bucket order follows completion order; the sums may not.
            let sorted = |t: &crate::PassTimes| {
                let mut v: Vec<_> = t.iter().map(|(p, d)| (p.to_string(), d)).collect();
                v.sort();
                v
            };
            let total = service.session().pass_times();
            assert_eq!(sorted(&total), sorted(&sum), "{threads} workers");
            assert!(total.get("frontend") > Duration::ZERO);
            assert!(service.wall() > Duration::ZERO);
            jobs.push(service.jobs());
        }
        assert_eq!(jobs, [6, 6]);
    }

    #[test]
    fn worker_panics_carry_the_job_label() {
        // Jobs 5..8 panic; the pool must re-raise the lowest-index
        // failure with its label prepended, for any worker count.
        for threads in [1, 4] {
            let service = BuildService::with_threads(threads);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.run_jobs_labeled(
                    8,
                    |i| {
                        if i >= 5 {
                            panic!("boom {i}");
                        }
                        i
                    },
                    |i| format!("App{i}_Mica2 / cure(flid)"),
                )
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, "App5_Mica2 / cure(flid): boom 5");
        }
    }
}
