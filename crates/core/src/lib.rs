//! Safe TinyOS: the toolchain driver.
//!
//! This crate wires the stages of the paper's Figure 1 into composable
//! pass [`Pipeline`]s — with one preset per bar of Figures 2 and 3 — and
//! collects the metrics the evaluation reports: code size, static data
//! size, checks inserted/surviving, and duty cycle.
//!
//! ```text
//! nesC-lite ──▶ [CCured + error mode] ──▶ [inliner] ──▶ [cXprop] ──▶ backend ──▶ M16 image
//! ```
//!
//! # Example
//!
//! ```
//! use safe_tinyos::{BuildSession, Pipeline};
//!
//! let session = BuildSession::new();
//! let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
//! let unsafe_build = session.build(&spec, &Pipeline::unsafe_baseline()).unwrap();
//! let safe_build = session.build(&spec, &Pipeline::safe_flid_inline_cxprop()).unwrap();
//! assert!(safe_build.metrics.checks_inserted > 0);
//! assert!(safe_build.metrics.checks_surviving < safe_build.metrics.checks_inserted);
//! // Optimized safe code lands near the unsafe baseline (Figure 3a).
//! let ratio = safe_build.metrics.code_bytes as f64 / unsafe_build.metrics.code_bytes as f64;
//! assert!(ratio < 1.6, "ratio {ratio}");
//! ```
//!
//! Arbitrary stacks come from the pipeline-spec language (see
//! [`spec`]):
//!
//! ```
//! use safe_tinyos::Pipeline;
//!
//! let custom = Pipeline::parse("cure(terse)|cxprop(domain=constants,rounds=1)|prune").unwrap();
//! let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
//! let build = safe_tinyos::BuildSession::new().build(&spec, &custom).unwrap();
//! assert!(build.metrics.checks_inserted > 0);
//! ```

pub mod cache;
pub mod campaign;
pub mod diag;
pub mod difftest;
pub mod fleet;
pub mod pipeline;
pub mod service;
pub mod spec;
pub mod stackbound;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ccured::CureStats;
use cxprop::CxpropStats;
use mcu::{Image, Machine, RunState};
use tcil::{CompileError, Program};
use tosapps::AppSpec;

pub use cache::{ir_digest, CacheKey, CacheStats, PassCache, PassCounters};
pub use campaign::{
    run_campaign, run_torn_campaign, torn_plans, torn_target_names, CampaignConfig, CampaignReport,
    SiteResult,
};
pub use diag::{Diagnostic, Severity};
pub use difftest::{DiffCase, DiffConfig, DiffCounts, DiffVerdict, SubjectReport};
pub use fleet::{
    build_fleet, lockstep_matches_event_driven, run_fleet_campaign, sink_report,
    FleetCampaignConfig, FleetCampaignReport, FleetSpec, FleetVerdict, FleetVerdictCounts,
    SinkReport,
};
pub use pipeline::{
    BackendPass, CurePass, CxpropPass, InlinePass, Pass, PassCx, PassTimes, Pipeline,
    PipelineBuilder, PruneErrmsgPass, RacesPass, StackboundPass, PRESET_NAMES,
};
pub use service::{BuildRequest, BuildResult, BuildService};
pub use spec::{parse_pipeline_list, pipelines_from_env_or, SpecError};
pub use stackbound::{StackReport, StackStats};

/// Concurrency-analysis rollup for one build: what the race analyses
/// found and what the atomic-section transforms did. Filled by the
/// `cxprop` pass (refinement + atomic optimization counts) and the
/// `races` pass (per-site analysis + auto-hardening counts); `None` when
/// neither ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Globals confirmed racy by the most recent refinement.
    pub racy_globals: usize,
    /// Globals a coarser earlier analysis flagged that the most recent
    /// refinement cleared.
    pub cleared_globals: usize,
    /// Atomic sections removed (nested or async-only), accumulated
    /// across the stack.
    pub atomics_removed: usize,
    /// Atomic sections demoted from save/restore to disable/enable,
    /// accumulated across the stack.
    pub atomics_demoted: usize,
    /// Minimal atomic sections `races(fix)` wrapped around flagged
    /// sites, accumulated across the stack.
    pub sections_added: usize,
    /// Iterations `races(fix)` needed to reach its fixpoint (from the
    /// most recent run).
    pub fix_iterations: usize,
}

/// Metrics collected from one build.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Code (text) bytes.
    pub code_bytes: u32,
    /// Total flash bytes (code + rodata + data initializers + vectors).
    pub flash_bytes: u32,
    /// Static SRAM bytes (the paper's "static data size").
    pub sram_bytes: u32,
    /// Checks inserted by CCured (zero for unsafe builds).
    pub checks_inserted: usize,
    /// Distinct check sites surviving in the final machine code — the
    /// Figure 2 survivor census.
    pub checks_surviving: usize,
    /// Locks inserted around racy checks.
    pub locks_inserted: usize,
    /// Cure-stage statistics, if the build was safe.
    pub cure: Option<CureStats>,
    /// cXprop statistics, if it ran.
    pub cxprop: Option<CxpropStats>,
    /// Concurrency-analysis rollup, if a race-aware pass ran.
    pub races: Option<RaceStats>,
    /// Stack-bound analysis rollup, if the `stackbound` pass ran.
    pub stack: Option<StackStats>,
    /// Structured diagnostics emitted by analysis passes, in emission
    /// order (see [`diag`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pass wall times, keyed by pass name. A `frontend` entry
    /// appears only on the build that actually ran the frontend — a
    /// cache hit in a [`BuildSession`] costs (and records) nothing.
    pub pass_times: PassTimes,
}

/// A finished build.
#[derive(Debug, Clone)]
pub struct Build {
    /// The linked image.
    pub image: Image,
    /// Collected metrics.
    pub metrics: Metrics,
    /// The final middle-end IR (for inspection; the backend prepares and
    /// links from a copy).
    pub program: Program,
    /// Lazily-built basic-block cache for the translating execution
    /// engine, shared across every machine spun up from this build
    /// (clones share it too — the image is identical, so the decode is).
    block_cache: OnceLock<Arc<mcu::BlockCache>>,
}

impl Build {
    /// A build over `image` with `metrics` and final IR `program`.
    pub fn new(image: Image, metrics: Metrics, program: Program) -> Build {
        Build {
            image,
            metrics,
            program,
            block_cache: OnceLock::new(),
        }
    }

    /// The build's shared basic-block cache, decoding the image on first
    /// use. Machines handed this cache skip their own per-machine decode
    /// when running under [`mcu::Engine::Bt`].
    pub fn block_cache(&self) -> Arc<mcu::BlockCache> {
        self.block_cache
            .get_or_init(|| Arc::new(mcu::BlockCache::build(&self.image)))
            .clone()
    }
}

/// The frontend's output for one app, cached by a [`BuildSession`] and
/// cheaply cloned per configuration.
///
/// The lowered program sits behind an [`Arc`]; [`FrontendArtifact::program`]
/// clones it out for the mutating middle-end passes.
#[derive(Debug, Clone)]
pub struct FrontendArtifact {
    out: Arc<nesc::CompileOutput>,
    /// Wall time of the frontend compile that produced this artifact.
    pub elapsed: Duration,
}

impl FrontendArtifact {
    /// A fresh mutable copy of the lowered program.
    pub fn program(&self) -> Program {
        self.out.program.clone()
    }

    /// The full frontend output (program, concurrency report, component
    /// instantiation order).
    pub fn output(&self) -> &nesc::CompileOutput {
        &self.out
    }
}

/// A toolchain session: owns the shared nesC-lite source set, the parsed
/// frontend, and a per-app [`FrontendArtifact`] cache.
///
/// An evaluation grid builds each app under many pipelines; the
/// frontend's work (parse, wiring, lowering) is identical across
/// pipelines, so a session compiles it once per app and hands every
/// build a cheap clone. Sessions are `Sync`: a [`BuildService`] shares
/// one across its worker threads.
///
/// ```
/// use safe_tinyos::{BuildSession, Pipeline};
///
/// let session = BuildSession::new();
/// let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
/// let a = session.build(&spec, &Pipeline::unsafe_baseline()).unwrap();
/// let b = session.build(&spec, &Pipeline::safe_flid()).unwrap();
/// assert_eq!(session.frontend_compiles(), 1); // frontend ran once
/// assert!(b.metrics.code_bytes > a.metrics.code_bytes);
/// ```
pub struct BuildSession {
    sources: nesc::SourceSet,
    state: Mutex<SessionState>,
    frontend_compiles: AtomicUsize,
    /// The shared pass-output cache (`None` for [`BuildSession::uncached`]
    /// sessions). Builds through this session consult it before every
    /// cacheable pass, so pipeline prefixes shared across the session's
    /// builds are computed once.
    pass_cache: Option<Arc<PassCache>>,
    /// Every successful build's [`Metrics::pass_times`], summed.
    pass_times: Mutex<PassTimes>,
}

/// The lazily-parsed frontend and the per-app artifact cache, under one
/// lock so a miss can parse and compile atomically.
#[derive(Default)]
struct SessionState {
    frontend: Option<nesc::Frontend>,
    cache: HashMap<String, FrontendArtifact>,
}

impl BuildSession {
    /// A session over the stock TinyOS-lite source set, with the pass
    /// cache enabled.
    pub fn new() -> BuildSession {
        BuildSession {
            sources: tosapps::source_set(),
            state: Mutex::new(SessionState::default()),
            frontend_compiles: AtomicUsize::new(0),
            pass_cache: Some(Arc::new(PassCache::new())),
            pass_times: Mutex::default(),
        }
    }

    /// A session with no pass cache: every build runs every pass. The
    /// comparison baseline for the cache-correctness tests; everything
    /// else wants [`BuildSession::new`].
    pub fn uncached() -> BuildSession {
        BuildSession {
            pass_cache: None,
            ..Self::new()
        }
    }

    /// The session's shared pass cache, if caching is enabled.
    pub fn pass_cache(&self) -> Option<&Arc<PassCache>> {
        self.pass_cache.as_ref()
    }

    /// A snapshot of the pass cache's per-pass hit/miss/size counters
    /// (empty for uncached sessions). Misses count actual pass
    /// executions — on a warm grid, `cure` misses once per distinct
    /// (app, cure-spec) pair, however many presets share it.
    pub fn cache_stats(&self) -> CacheStats {
        self.pass_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// How many times the frontend actually compiled an app (cache
    /// misses). A grid over N apps costs exactly N, however many
    /// pipelines it spans.
    pub fn frontend_compiles(&self) -> usize {
        self.frontend_compiles.load(Ordering::Relaxed)
    }

    /// The pass times of every successful [`BuildSession::build`] so
    /// far, summed per pass — `frontend` included, counted on the build
    /// that compiled each app.
    pub fn pass_times(&self) -> PassTimes {
        self.pass_times
            .lock()
            .expect("no build panics while adding to the total")
            .clone()
    }

    /// The cached frontend artifact for `spec`, compiling it on first
    /// use. The cache lock is held across the compile, so the frontend
    /// runs at most once per app even under concurrent callers. (This
    /// serializes first-touch frontend compiles of *different* apps
    /// too — an accepted tradeoff: grids claim jobs app-major so
    /// contention is mostly same-app, and the frontend is a few percent
    /// of grid compile time.)
    ///
    /// # Errors
    ///
    /// Propagates frontend compile errors.
    pub fn frontend(&self, spec: &AppSpec) -> Result<FrontendArtifact, CompileError> {
        self.frontend_entry(spec).map(|(a, _)| a)
    }

    /// Like [`BuildSession::frontend`], also reporting whether this call
    /// was the one that compiled the artifact (callers attributing the
    /// frontend's wall time need to count it exactly once).
    ///
    /// # Errors
    ///
    /// Propagates frontend compile errors.
    pub fn frontend_entry(&self, spec: &AppSpec) -> Result<(FrontendArtifact, bool), CompileError> {
        let mut state = self.state.lock().unwrap();
        if let Some(a) = state.cache.get(spec.config) {
            return Ok((a.clone(), false));
        }
        let start = Instant::now();
        if state.frontend.is_none() {
            state.frontend = Some(nesc::Frontend::new(&self.sources)?);
        }
        let out = state
            .frontend
            .as_ref()
            .expect("parsed above")
            .compile(spec.config)?;
        let artifact = FrontendArtifact {
            out: Arc::new(out),
            elapsed: start.elapsed(),
        };
        self.frontend_compiles.fetch_add(1, Ordering::Relaxed);
        state
            .cache
            .insert(spec.config.to_string(), artifact.clone());
        Ok((artifact, true))
    }

    /// Builds `spec` under `pipeline`, reusing the cached frontend
    /// artifact. The frontend's wall time lands in the metrics of the
    /// one build that compiled it, and the build's pass times are added
    /// to the session total ([`BuildSession::pass_times`]).
    ///
    /// # Errors
    ///
    /// Propagates compile errors from any pass.
    pub fn build(&self, spec: &AppSpec, pipeline: &Pipeline) -> Result<Build, CompileError> {
        let (artifact, fresh) = self.frontend_entry(spec)?;
        let mut build = pipeline.build_with_cache(
            artifact.program(),
            spec.platform.clone(),
            self.pass_cache.as_deref(),
        )?;
        if fresh {
            build
                .metrics
                .pass_times
                .record("frontend", artifact.elapsed);
        }
        self.pass_times
            .lock()
            .expect("no build panics while adding to the total")
            .add(&build.metrics.pass_times);
        Ok(build)
    }
}

impl Default for BuildSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a duty-cycle simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Awake / total cycles, in percent.
    pub duty_cycle_percent: f64,
    /// Final machine state.
    pub state: RunState,
    /// Fault message, if the node trapped.
    pub fault: Option<String>,
    /// LED register transitions observed.
    pub led_transitions: u64,
    /// Radio bytes transmitted.
    pub radio_tx_bytes: usize,
    /// UART bytes emitted.
    pub uart_bytes: usize,
    /// Instructions executed.
    pub instructions: u64,
    /// Deepest call-stack extent observed, in bytes below the top of
    /// SRAM — the dynamic ground truth the `stackbound` analyzer's
    /// certified bound must dominate.
    pub stack_watermark: u16,
}

/// Creates a machine for `build` with `spec`'s workload context applied
/// (waveform set, radio traffic scheduled) for `seconds` of simulated
/// time, returning the machine and the run horizon in cycles. Shared by
/// [`simulate`] and the fault-injection campaigns in [`campaign`], which
/// must set machines up identically for golden and injected runs.
pub fn prepare_machine(build: &Build, spec: &AppSpec, seconds: u64) -> (Machine, u64) {
    let mut ctx = spec.context.clone();
    ctx.seconds = seconds;
    let mut m = Machine::new(&build.image);
    if m.engine() == mcu::Engine::Bt {
        m.set_block_cache(build.block_cache());
    }
    // Rebuild periodic injections for the overridden duration.
    let hz = build.image.profile.clock_hz;
    let until = ctx.duration_cycles(hz);
    m.set_waveform(ctx.waveform.clone());
    for inj in &ctx.injections {
        if inj.at < until {
            m.inject_rx_bytes(inj.at, &inj.packet.frame_bytes());
        }
    }
    // Extend periodic patterns beyond the stock context if needed.
    extend_injections(&spec.context, &mut m, hz, until);
    (m, until)
}

/// Runs `build` in `spec`'s context for `seconds` of simulated time
/// (overriding the context default).
pub fn simulate(build: &Build, spec: &AppSpec, seconds: u64) -> SimResult {
    let (mut m, until) = prepare_machine(build, spec, seconds);
    m.run(until);
    SimResult {
        duty_cycle_percent: m.duty_cycle_percent(),
        state: m.state,
        fault: m.fault_message(),
        led_transitions: m.devices.leds.transitions,
        radio_tx_bytes: m.radio_out.len(),
        uart_bytes: m.uart_out.len(),
        instructions: m.instr_count,
        stack_watermark: m.stack_watermark(),
    }
}

/// If the stock context's injections form a periodic pattern shorter than
/// the requested duration, repeat the pattern to cover it.
fn extend_injections(stock: &tosapps::Context, m: &mut Machine, hz: u64, until: u64) {
    let stock_dur = stock.duration_cycles(hz);
    if stock.injections.is_empty() || until <= stock_dur {
        return;
    }
    let mut t = stock_dur;
    while t < until {
        for inj in &stock.injections {
            let at = inj.at + t;
            if at < until {
                m.inject_rx_bytes(at, &inj.packet.frame_bytes());
            }
        }
        t += stock_dur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blink_runs_unsafe_and_safe() {
        let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
        let session = BuildSession::new();
        for pipeline in [
            Pipeline::unsafe_baseline(),
            Pipeline::safe_flid_inline_cxprop(),
        ] {
            let b = session.build(&spec, &pipeline).unwrap();
            let r = simulate(&b, &spec, 3);
            assert_eq!(
                r.state,
                RunState::Sleeping,
                "{}: fault {:?}",
                pipeline.name(),
                r.fault
            );
            assert!(
                r.led_transitions >= 4,
                "{}: LEDs toggled {}",
                pipeline.name(),
                r.led_transitions
            );
            assert!(
                r.duty_cycle_percent < 50.0,
                "{}: duty {}",
                pipeline.name(),
                r.duty_cycle_percent
            );
        }
    }

    #[test]
    fn fig3_bar_order_is_paper_order() {
        let bars = Pipeline::fig3_bars();
        assert_eq!(bars.len(), 7);
        assert_eq!(bars[0].name(), "safe-verbose-ram");
        assert_eq!(bars[6].name(), "unsafe+cxprop");
    }

    #[test]
    fn every_preset_resolves_and_is_named_consistently() {
        for name in PRESET_NAMES {
            let p = Pipeline::preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            assert_eq!(p.name(), name);
        }
        assert!(Pipeline::preset("no-such-preset").is_none());
    }
}
