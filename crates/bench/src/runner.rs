//! The parallel experiment runner.
//!
//! Every figure harness evaluates an app × configuration grid. The
//! runner expands the grid into jobs, fans them out across scoped worker
//! threads sharing one [`BuildSession`] (so the frontend compiles each
//! app exactly once), and returns results in deterministic grid order —
//! `result[app_index][item_index]` — regardless of which worker finished
//! which job first.
//!
//! Thread count comes from `STOS_THREADS` (`1` = run serially on the
//! calling thread) and defaults to the machine's available parallelism.
//!
//! The runner also aggregates per-stage wall times across every build it
//! performs; [`ExperimentRunner::emit_speed`] writes them to
//! `BENCH_toolchain_speed.json` so the toolchain's own performance is
//! tracked alongside the paper's figures.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use safe_tinyos::{Build, BuildService, BuildSession, CacheStats, Pipeline, Stage, StageTimes};
use tcil::{CompileError, Program};
use tosapps::AppSpec;

use crate::{emit_json, json};

/// Worker-thread count: `STOS_THREADS` if set (minimum 1), otherwise the
/// machine's available parallelism.
pub fn threads_from_env() -> usize {
    match std::env::var("STOS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

#[derive(Debug, Default)]
struct SpeedAgg {
    stages: StageTimes,
    wall: Duration,
    jobs: usize,
}

/// Expands app × config grids into jobs and runs them in parallel over a
/// shared [`BuildService`] (frontend *and* pass caches shared across
/// every cell).
pub struct ExperimentRunner {
    service: BuildService,
    agg: Mutex<SpeedAgg>,
}

/// One cell of an experiment grid, handed to the job closure.
pub struct GridJob<'a, C> {
    /// The app under test.
    pub spec: AppSpec,
    /// The grid item (usually a [`Pipeline`]).
    pub item: &'a C,
    /// Row index into the `apps` slice.
    pub app_index: usize,
    /// Column index into the `items` slice.
    pub item_index: usize,
    runner: &'a ExperimentRunner,
}

impl<C> GridJob<'_, C> {
    /// Builds this job's app under `pipeline` through the shared session,
    /// panicking with context on failure (experiment harnesses want loud
    /// failures). Stage times are folded into the runner's speed report.
    pub fn build(&self, pipeline: &Pipeline) -> Build {
        self.try_build(pipeline)
            .unwrap_or_else(|e| panic!("{} / {}: {e}", self.spec.name, pipeline.name()))
    }

    /// [`GridJob::build`] returning the error instead of panicking (for
    /// pipelines that are *expected* to fail, e.g. the naive runtime
    /// overflowing flash).
    ///
    /// # Errors
    ///
    /// Propagates compile errors from any pass.
    pub fn try_build(&self, pipeline: &Pipeline) -> Result<Build, CompileError> {
        let build = self.runner.service.build(&self.spec, pipeline)?;
        self.record(&build.metrics.stage_times);
        Ok(build)
    }

    /// A fresh copy of this app's cached frontend output, for jobs that
    /// drive the stage crates directly instead of a [`Pipeline`].
    /// If this call is the one that compiled the artifact, its frontend
    /// time is folded into the speed report (exactly once, like
    /// [`GridJob::try_build`]).
    pub fn frontend(&self) -> Program {
        let (artifact, fresh) = self
            .runner
            .service
            .session()
            .frontend_entry(&self.spec)
            .unwrap_or_else(|e| panic!("{}: frontend: {e}", self.spec.name));
        if fresh {
            let mut times = StageTimes::default();
            times.record(Stage::Frontend, artifact.elapsed);
            self.record(&times);
        }
        artifact.program()
    }

    /// Folds externally measured stage times into the speed report
    /// (custom pipelines record their own).
    pub fn record(&self, times: &StageTimes) {
        self.runner.agg.lock().unwrap().stages.add(times);
    }

    /// Builds this job's app under `pipeline` (stage times folded into
    /// the speed report, like [`GridJob::build`]) and runs a
    /// fault-injection campaign against the result. Campaigns are pure
    /// functions of the build, workload, and config, so grid output is
    /// byte-identical across worker-thread counts.
    pub fn campaign(
        &self,
        pipeline: &Pipeline,
        config: &safe_tinyos::CampaignConfig,
    ) -> safe_tinyos::CampaignReport {
        let build = self.build(pipeline);
        safe_tinyos::run_campaign(&build, &self.spec, config)
    }
}

impl ExperimentRunner {
    /// A runner with `STOS_THREADS`-controlled parallelism over the
    /// stock source set.
    pub fn from_env() -> ExperimentRunner {
        Self::with_threads(threads_from_env())
    }

    /// A runner with an explicit worker count (`1` = serial).
    pub fn with_threads(threads: usize) -> ExperimentRunner {
        ExperimentRunner {
            service: BuildService::with_threads(threads),
            agg: Mutex::new(SpeedAgg::default()),
        }
    }

    /// The underlying batch build service (worker pool + both caches).
    pub fn service(&self) -> &BuildService {
        &self.service
    }

    /// The shared build session (frontend cache and compile counter).
    pub fn session(&self) -> &BuildSession {
        self.service.session()
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.service.threads()
    }

    /// Runs `f` over every cell of the `apps` × `items` grid and returns
    /// the results as `result[app_index][item_index]`.
    ///
    /// Jobs are claimed from a shared counter in app-major order (all of
    /// one app's configurations first, so its frontend artifact is hot),
    /// but each result lands in its grid slot: the output is
    /// byte-for-byte independent of scheduling. A panicking job panics
    /// the whole run when the scope joins, with the failing cell's
    /// app × item label prepended to the panic message.
    pub fn run_grid<C, R, F>(&self, apps: &[&'static str], items: &[C], f: F) -> Vec<Vec<R>>
    where
        C: Sync,
        R: Send,
        F: Fn(&GridJob<'_, C>) -> R + Sync,
    {
        let flat = self.run_indexed(
            apps.len() * items.len(),
            |j| {
                let (app_index, item_index) = (j / items.len(), j % items.len());
                let job = GridJob {
                    spec: tosapps::spec(apps[app_index])
                        .unwrap_or_else(|| panic!("unknown app {}", apps[app_index])),
                    item: &items[item_index],
                    app_index,
                    item_index,
                    runner: self,
                };
                f(&job)
            },
            |j| format!("{} / item {}", apps[j / items.len()], j % items.len()),
        );
        let mut flat = flat.into_iter();
        (0..apps.len())
            .map(|_| {
                (0..items.len())
                    .map(|_| flat.next().expect("result per job"))
                    .collect()
            })
            .collect()
    }

    /// Runs `f` over every item of a flat (app-less) work list and
    /// returns the results in item order — the one-dimensional sibling
    /// of [`ExperimentRunner::run_grid`], for harnesses whose subjects
    /// are not benchmark apps (the differential oracle's generated
    /// seeds).
    pub fn run_items<C, R, F>(&self, items: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(usize, &C) -> R + Sync,
    {
        self.run_indexed(items.len(), |j| f(j, &items[j]), |j| format!("item {j}"))
    }

    /// The timing wrapper behind [`ExperimentRunner::run_grid`] and
    /// [`ExperimentRunner::run_items`]: runs `f(0..n)` across the
    /// service's worker pool ([`BuildService::run_jobs_labeled`]) and
    /// folds the batch's wall time and job count into the speed report.
    /// A panicking job panics the whole run when the scope joins, with
    /// `label(i)` prepended so the failing cell is nameable.
    fn run_indexed<R, F, L>(&self, n: usize, f: F, label: L) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let start = Instant::now();
        let out = self.service.run_jobs_labeled(n, f, label);
        let mut agg = self.agg.lock().unwrap();
        agg.wall += start.elapsed();
        agg.jobs += n;
        out
    }

    /// [`ExperimentRunner::run_grid`] specialized to building each cell's
    /// [`Pipeline`] and returning its metrics.
    pub fn metrics_grid(
        &self,
        apps: &[&'static str],
        pipelines: &[Pipeline],
    ) -> Vec<Vec<safe_tinyos::Metrics>> {
        self.run_grid(apps, pipelines, |job| job.build(job.item).metrics)
    }

    /// The toolchain-speed summary accumulated so far.
    pub fn speed_report(&self, harness: &str) -> SpeedReport {
        let agg = self.agg.lock().unwrap();
        SpeedReport {
            harness: harness.to_string(),
            threads: self.threads(),
            jobs: agg.jobs,
            frontend_compiles: self.session().frontend_compiles(),
            wall: agg.wall,
            stages: agg.stages,
            cache: self.service.cache_stats(),
            warm: None,
        }
    }

    /// [`ExperimentRunner::speed_report`], additionally resetting the
    /// wall/stage/job accumulators so a follow-up window (e.g. a warm
    /// re-run of the same grid) can be measured on its own. The frontend
    /// and pass caches are *not* reset — that is the point of the second
    /// window.
    pub fn take_speed(&self, harness: &str) -> SpeedReport {
        let report = self.speed_report(harness);
        *self.agg.lock().unwrap() = SpeedAgg::default();
        report
    }

    /// Writes `BENCH_toolchain_speed_<harness>.json` for this runner's
    /// work, so each harness's perf trajectory is tracked across PRs
    /// without the six harnesses clobbering one shared file.
    pub fn emit_speed(&self, harness: &str) {
        let report = self.speed_report(harness);
        emit_json(&format!("toolchain_speed_{harness}"), &report.to_json())
            .expect("write BENCH_toolchain_speed_*.json");
    }
}

/// Aggregate toolchain timing for one harness run.
#[derive(Debug, Clone)]
pub struct SpeedReport {
    /// Which harness produced this report.
    pub harness: String,
    /// Worker threads used.
    pub threads: usize,
    /// Grid cells executed.
    pub jobs: usize,
    /// Frontend compiles actually performed (≤ apps in the grid).
    pub frontend_compiles: usize,
    /// Wall time across all `run_grid` calls.
    pub wall: Duration,
    /// Per-stage compile time summed over all builds.
    pub stages: StageTimes,
    /// Pass-cache counters at snapshot time (hits/misses/bytes per pass
    /// name).
    pub cache: CacheStats,
    /// The warm re-run window, when the harness measured one (the
    /// canonical fig3 grid does).
    pub warm: Option<WarmCache>,
}

/// Measurements from re-running a grid against already-warm caches,
/// plus the cache-effectiveness census the gate pins.
#[derive(Debug, Clone, Copy)]
pub struct WarmCache {
    /// Wall time of the warm re-run.
    pub wall: Duration,
    /// Stage (compile) time of the warm re-run.
    pub compile: Duration,
    /// How many times the `cure` pass actually executed (cache misses).
    pub cure_runs: u64,
    /// How many times it *had* to: one per distinct (app, cure spec)
    /// pair in the grid. `cure_runs == cure_unique` is the gate's
    /// cache-effectiveness invariant.
    pub cure_unique: u64,
}

impl SpeedReport {
    /// Total compile time actually spent across all stages, with the
    /// frontend artifact cache in effect (frontend paid once per app).
    pub fn compile_time(&self) -> Duration {
        self.stages.total()
    }

    /// Serializes the report (times in milliseconds). `wall_ms` covers
    /// everything the grid ran, including simulation; `compile_ms`
    /// isolates the toolchain cost; the `cache` object carries the
    /// pass-cache counters (and, for the canonical fig3 grid, the
    /// warm-window numbers the `toolchain_speed` contract in
    /// [`crate::gate`] enforces).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut stage_obj = json::Obj::new();
        for (stage, t) in self.stages.iter() {
            stage_obj = stage_obj.num(stage.name(), ms(t));
        }
        let mut cache_obj = json::Obj::new();
        if let Some(w) = &self.warm {
            cache_obj = cache_obj
                .num("warm_wall_ms", ms(w.wall))
                .num("warm_compile_ms", ms(w.compile))
                .int("cure_runs", w.cure_runs as i64)
                .int("cure_unique", w.cure_unique as i64);
        }
        let mut passes_obj = json::Obj::new();
        for (name, c) in &self.cache.passes {
            let counters = json::Obj::new()
                .int("hits", c.hits as i64)
                .int("misses", c.misses as i64)
                .int("bytes", c.bytes as i64)
                .build();
            passes_obj = passes_obj.raw(name, &counters);
        }
        cache_obj = cache_obj.raw("passes", &passes_obj.build());
        json::Obj::new()
            .str("figure", "toolchain_speed")
            .str("harness", &self.harness)
            .int("threads", self.threads as i64)
            .int("jobs", self.jobs as i64)
            .int("frontend_compiles", self.frontend_compiles as i64)
            .num("wall_ms", ms(self.wall))
            .num("compile_ms", ms(self.compile_time()))
            .raw("stage_ms", &stage_obj.build())
            .raw("cache", &cache_obj.build())
            .build()
    }
}
