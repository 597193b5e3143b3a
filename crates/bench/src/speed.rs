//! `BENCH_toolchain_speed_<harness>.json`: what a harness's
//! [`BuildService`] did and what it cost.
//!
//! Everything is read off the service: its batches' job count and wall
//! time, the session's frontend compiles and summed pass times, and the
//! pass-cache counters. A [`Snapshot`] freezes them at one moment, so two
//! snapshots bracket a window — fig3a's warm re-run of its grid is the
//! difference between the snapshot after it and the one before.

use std::time::Duration;

use safe_tinyos::{BuildService, CacheStats, PassTimes};

use crate::{emit_json, json};

/// The report's `stage_ms` keys, in pipeline order. `frontend`, `cure`,
/// `backend` and `link` are pass names; every other pass rolls into
/// `opt`.
pub(crate) const STAGES: [&str; 5] = ["frontend", "cure", "opt", "backend", "link"];

const OPT: usize = 2;

/// Sums `passes` into the [`STAGES`] buckets.
pub(crate) fn stages(passes: &PassTimes) -> [Duration; 5] {
    let mut out = [Duration::ZERO; 5];
    for (pass, t) in passes.iter() {
        out[STAGES.iter().position(|s| *s == pass).unwrap_or(OPT)] += t;
    }
    out
}

/// A service's counters and timings at one moment.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Worker threads.
    pub threads: usize,
    /// Jobs run by the service's batches.
    pub jobs: usize,
    /// Frontend compiles actually performed (≤ apps built).
    pub frontend_compiles: usize,
    /// Wall time inside the service's batches, simulation included.
    pub wall: Duration,
    /// Every successful build's pass times, summed.
    pub passes: PassTimes,
    /// Pass-cache counters.
    pub cache: CacheStats,
}

impl Snapshot {
    /// What `service` has done so far.
    pub fn of(service: &BuildService) -> Snapshot {
        let session = service.session();
        Snapshot {
            threads: service.threads(),
            jobs: service.jobs(),
            frontend_compiles: session.frontend_compiles(),
            wall: service.wall(),
            passes: session.pass_times(),
            cache: service.cache_stats(),
        }
    }

    /// Renders the report for `harness` (times in milliseconds).
    /// `wall_ms` covers everything the batches ran, simulation included;
    /// `compile_ms` is the toolchain's share, the sum of `stage_ms`.
    ///
    /// `warm` is the fig3 grid's re-run against warm caches: the snapshot
    /// taken after it, and how many distinct (app, cure spec) inputs the
    /// grid has. The `cache` object then carries the window's wall and
    /// compile time and the cure census the `toolchain_speed` contract in
    /// [`crate::gate`] checks.
    pub fn to_json(&self, harness: &str, warm: Option<(&Snapshot, u64)>) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut stage_obj = json::Obj::new();
        for (name, t) in STAGES.iter().zip(stages(&self.passes)) {
            stage_obj = stage_obj.num(name, ms(t));
        }
        let mut cache_obj = json::Obj::new();
        if let Some((after, cure_unique)) = warm {
            let compile = after.passes.total().saturating_sub(self.passes.total());
            cache_obj = cache_obj
                .num("warm_wall_ms", ms(after.wall.saturating_sub(self.wall)))
                .num("warm_compile_ms", ms(compile))
                .int("cure_runs", self.cache.get("cure").misses as i64)
                .int("cure_unique", cure_unique as i64);
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
            .str("harness", harness)
            .int("threads", self.threads as i64)
            .int("jobs", self.jobs as i64)
            .int("frontend_compiles", self.frontend_compiles as i64)
            .num("wall_ms", ms(self.wall))
            .num("compile_ms", ms(self.passes.total()))
            .raw("stage_ms", &stage_obj.build())
            .raw("cache", &cache_obj.build())
            .build()
    }
}

/// Writes `BENCH_toolchain_speed_<harness>.json` for everything
/// `service` has done, so each harness's perf trajectory is tracked
/// without the harnesses clobbering one shared file.
pub fn emit_speed(service: &BuildService, harness: &str) {
    let body = Snapshot::of(service).to_json(harness, None);
    emit_json(&format!("toolchain_speed_{harness}"), &body)
        .expect("write BENCH_toolchain_speed_*.json");
}
