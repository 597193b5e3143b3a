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

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// The service counts the jobs its batches ran ([`BuildService::jobs`]);
/// the session counts frontend compiles and pass-cache hits and misses.
pub struct BuildService {
    session: BuildSession,
    threads: usize,
    jobs: AtomicUsize,
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
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &BuildSession {
        &self.session
    }

    /// Jobs run by every batch so far ([`BuildService::submit`],
    /// [`BuildService::run_jobs`] and [`BuildService::run_jobs_labeled`]
    /// alike). A pure function of the batches, whatever the worker count.
    pub fn jobs(&self) -> usize {
        self.jobs.load(Ordering::Relaxed)
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
    /// index order. Each worker starts on its own contiguous run of
    /// indices and steals from the back of the longest remaining run
    /// once its own is done (see `fan_out`). The generic engine under
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
    /// counts toward [`BuildService::jobs`].
    pub fn run_jobs_labeled<R, F, L>(&self, n: usize, f: F, label: L) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let out = self.fan_out(n, f, label);
        self.jobs.fetch_add(n, Ordering::Relaxed);
        out
    }

    /// Worker `w` of `t` owns the contiguous run `w·n/t .. (w+1)·n/t`,
    /// starts on its first index and takes the rest from the front.
    /// A worker whose run is done steals one index at a time from the
    /// back of the longest remaining run, until none is left.
    ///
    /// Batches are ordered so neighbouring jobs share work (`submit`'s
    /// app-then-spec order, `bench::grid`'s app-major grid). Two workers
    /// on adjacent indices would build the same app at once, each
    /// waiting on the other's in-flight frontend and pass-cache
    /// entries; contiguous runs keep each worker on its own apps, and
    /// stealing from the back keeps a thief away from the app the
    /// run's owner is on.
    fn fan_out<R, F, L>(&self, n: usize, f: F, label: L) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let threads = self.threads.min(n.max(1));
        let run = |i| run_labeled(&label, i, || f(i));
        // Collecting into one `Result` yields the first panic by *job
        // index* (not arrival order), so the error a caller sees is
        // deterministic across worker counts.
        let outcomes: Result<Vec<R>, String> = if threads <= 1 {
            (0..n).map(run).collect()
        } else {
            let bound = |w: usize| w * n / threads;
            // Each run's first index is its owner's, so only the rest
            // can be stolen.
            let runs: Vec<Mutex<Range<usize>>> = (0..threads)
                .map(|w| Mutex::new(bound(w) + 1..bound(w + 1)))
                .collect();
            let lock_run = |w: usize| runs[w].lock().expect("no claim panics holding a run");
            let claim = |w: usize| -> Option<usize> {
                if let Some(i) = lock_run(w).next() {
                    return Some(i);
                }
                loop {
                    let (victim, len) = (0..threads)
                        .map(|v| (v, lock_run(v).len()))
                        .max_by_key(|&(_, len)| len)?;
                    if len == 0 {
                        return None;
                    }
                    // The victim may have emptied since it was measured.
                    if let Some(i) = lock_run(victim).next_back() {
                        return Some(i);
                    }
                }
            };
            // Each worker is joined, not merely waited for: a scope
            // returns once its closures finish, while the threads may
            // still be exiting and holding their allocator arenas. The
            // next batch's workers would then each open a fresh arena,
            // so how much memory a run pins would depend on thread
            // scheduling.
            let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|w| {
                        let (run, claim, start) = (&run, &claim, bound(w));
                        scope.spawn(move || {
                            // Lazily: the next index is claimed only once
                            // the previous job has finished.
                            std::iter::once(start)
                                .chain(std::iter::from_fn(|| claim(w)))
                                .map(|i| (i, run(i)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for worker in workers {
                    for (i, outcome) in worker.join().expect("jobs' panics are caught") {
                        slots[i] = Some(outcome);
                    }
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every index ran"))
                .collect()
        };
        outcomes.unwrap_or_else(|msg| std::panic::panic_any(msg))
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
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
            let frontends = service
                .submit(requests.clone())
                .into_iter()
                .filter(|result| {
                    let times = &result.as_ref().unwrap().metrics.pass_times;
                    times.iter().any(|(pass, _)| pass == "frontend")
                })
                .count();
            // Each app's frontend is charged to exactly one build, and the
            // session's compile count is the sum over the builds.
            assert_eq!(frontends, 2, "{threads} workers");
            assert_eq!(service.session().frontend_compiles(), frontends);
            jobs.push(service.jobs());
        }
        assert_eq!(jobs, [6, 6]);
    }

    #[test]
    fn frontend_slots_compile_each_app_once_under_contention() {
        let service = BuildService::with_threads(8);
        let session = service.session();
        let apps = tosapps::APP_NAMES;
        let pipelines = ["unsafe", "safe-flid"].map(|p| Pipeline::preset(p).unwrap());
        let results = service.run_jobs(apps.len() * pipelines.len(), |j| {
            let spec = tosapps::spec(apps[j / pipelines.len()]).unwrap();
            let build = session.build(&spec, &pipelines[j % pipelines.len()]);
            let artifact = session.frontend(&spec).unwrap();
            (build.unwrap(), Arc::clone(artifact.shared_program()))
        });
        assert_eq!(session.frontend_compiles(), apps.len());
        for (app, builds) in apps.iter().zip(results.chunks(pipelines.len())) {
            let fresh = builds
                .iter()
                .filter(|(build, _)| {
                    build
                        .metrics
                        .pass_times
                        .iter()
                        .any(|(p, _)| p == "frontend")
                })
                .count();
            assert_eq!(fresh, 1, "{app}: builds charged with its frontend");
            assert!(
                builds.iter().all(|(_, p)| Arc::ptr_eq(p, &builds[0].1)),
                "{app}: artifacts hold different programs"
            );
        }
    }

    #[test]
    fn workers_start_on_their_own_runs_and_steal_from_the_back() {
        use std::collections::HashMap;
        use std::thread::ThreadId;
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 5, 144] {
                let service = BuildService::with_threads(threads);
                let workers = threads.min(n.max(1));
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let finished = AtomicUsize::new(0);
                let claims: Mutex<Vec<(ThreadId, usize)>> = Mutex::default();
                let out = service.run_jobs(n, |i| {
                    claims
                        .lock()
                        .unwrap()
                        .push((std::thread::current().id(), i));
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    // Job 0 holds its worker until every other job has
                    // finished, so the rest of its run can only be
                    // taken by thieves.
                    if i == 0 && workers > 1 {
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while finished.load(Ordering::SeqCst) < n - 1 {
                            assert!(Instant::now() < deadline, "run 0 was never stolen");
                            std::thread::yield_now();
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i * 10
                });
                let case = format!("{threads} workers, {n} jobs");
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>(), "{case}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{case}"
                );

                // Each thread's claims, in the order it made them.
                let mut by_thread: HashMap<ThreadId, Vec<usize>> = HashMap::new();
                for (thread, i) in claims.into_inner().unwrap() {
                    by_thread.entry(thread).or_default().push(i);
                }
                let bounds: Vec<usize> = (0..=workers).map(|w| w * n / workers).collect();
                let mut firsts: Vec<usize> = by_thread.values().map(|c| c[0]).collect();
                firsts.sort_unstable();
                let starts = if n == 0 { &[][..] } else { &bounds[..workers] };
                assert_eq!(firsts, starts, "{case}: first claims");
                if workers > 1 {
                    let held = by_thread.values().find(|c| c[0] == 0).unwrap();
                    assert_eq!(held, &[0], "{case}: thieves finished run 0");
                }
                let run_of = |i: usize| bounds.partition_point(|&b| b <= i) - 1;
                for claimed in by_thread.values() {
                    let own = run_of(claimed[0]);
                    // The owner takes its run from the front: a prefix,
                    // in order. Thieves take each run from the back.
                    let prefix: Vec<usize> = claimed
                        .iter()
                        .copied()
                        .take_while(|&i| run_of(i) == own)
                        .collect();
                    assert_eq!(
                        prefix,
                        (bounds[own]..bounds[own] + prefix.len()).collect::<Vec<_>>(),
                        "{case}"
                    );
                    let stolen = &claimed[prefix.len()..];
                    assert!(stolen.iter().all(|&i| run_of(i) != own), "{case}");
                    for run in 0..workers {
                        let from: Vec<usize> = stolen
                            .iter()
                            .copied()
                            .filter(|&i| run_of(i) == run)
                            .collect();
                        assert!(from.windows(2).all(|p| p[0] > p[1]), "{case}: steals");
                    }
                }
            }
        }
    }

    #[test]
    fn workers_have_exited_when_a_batch_returns() {
        // A thread-local's destructor runs as its thread exits, so every
        // worker that ran a job has counted itself by the time the batch
        // returns only if the pool joined it.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: OnExit = const { OnExit };
        }
        let service = BuildService::with_threads(4);
        for round in 1..=50 {
            let ran: Mutex<std::collections::HashSet<std::thread::ThreadId>> = Mutex::default();
            service.run_jobs(16, |_| {
                ON_EXIT.with(|_| {});
                ran.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(Duration::from_micros(50));
            });
            let workers = ran.into_inner().unwrap().len();
            assert_eq!(EXITED.swap(0, Ordering::SeqCst), workers, "round {round}");
        }
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
