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
    run_campaign, run_campaign_with_work, run_torn_campaign, torn_plans, torn_target_names,
    CampaignConfig, CampaignReport, CampaignWork, SiteResult,
};
pub use diag::{Diagnostic, Severity};
pub use difftest::{DiffCase, DiffConfig, DiffCounts, DiffVerdict, SubjectReport};
pub use fleet::{
    build_fleet, lockstep_matches_event_driven, sink_report, FleetCampaignConfig, FleetSpec,
    FleetVerdict, FleetVerdictCounts, SinkReport,
};
pub use pipeline::{Pass, PassTimes, Pipeline, PRESET_NAMES};
pub use service::{BuildRequest, BuildResult, BuildService};
pub use spec::{parse_pipeline_list, SpecError};
pub use stackbound::{StackReport, StackStats};

/// Concurrency-analysis rollup for one build: what the race analyses
/// found and what the atomic-section transforms did. Filled by the
/// `cxprop` pass (refinement + atomic optimization counts) and the
/// `races` pass (per-site analysis + auto-hardening counts); `None` when
/// neither ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Globals cXprop's verdict confirms racy, from the most recent
    /// refinement.
    pub racy_globals: usize,
    /// Globals nesC's verdict flags that cXprop's clears (read-only
    /// sharing), over the most recent refinement's census: the count
    /// does not depend on which earlier pass set the `racy` flags.
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
    /// links from a copy). Shared, not copied: with the pass cache it is
    /// the cache entry of the last pass, and a build whose passes all
    /// hit holds the same `Arc` as every sibling build that did.
    pub program: Arc<Program>,
}

/// The frontend's output for one app, cached by a [`BuildSession`] and
/// cheaply cloned per configuration.
///
/// The lowered program sits behind an [`Arc`] that every build of the
/// app starts from: a pipeline copies it only when a pass writes to it
/// outside the pass cache ([`Pipeline::build_with_cache`]).
/// [`FrontendArtifact::program`] hands out an owned copy for callers
/// that mutate it themselves.
#[derive(Debug, Clone)]
pub struct FrontendArtifact {
    program: Arc<Program>,
    components: Arc<[String]>,
    /// Wall time of the frontend compile that produced this artifact.
    pub elapsed: Duration,
}

impl FrontendArtifact {
    fn new(out: nesc::CompileOutput, elapsed: Duration) -> FrontendArtifact {
        FrontendArtifact {
            program: Arc::new(out.program),
            components: out.components.into(),
            elapsed,
        }
    }

    /// A fresh mutable copy of the lowered program.
    pub fn program(&self) -> Program {
        (*self.program).clone()
    }

    /// The lowered program every build of this app shares.
    pub fn shared_program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Component instantiation order.
    pub fn components(&self) -> &[String] {
        &self.components
    }
}

/// A toolchain session: owns the shared nesC-lite source set, the parsed
/// frontend, and a per-app [`FrontendArtifact`] cache.
///
/// An evaluation grid builds each app under many pipelines; the
/// frontend's work (parse, wiring, lowering) is identical across
/// pipelines, so a session compiles it once per app and starts every
/// build from that one shared program. Sessions are `Sync`: a [`BuildService`] shares
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
    /// The source set, parsed on first use (errors cached like any
    /// other frontend outcome).
    frontend: OnceLock<Result<nesc::Frontend, CompileError>>,
    /// One slot per app. The lock guards only the map: each app's
    /// compile runs inside its own slot, so different apps compile in
    /// parallel while callers of one app wait for its single compile.
    artifacts: Mutex<HashMap<String, ArtifactSlot>>,
    frontend_compiles: AtomicUsize,
    /// The shared pass-output cache (`None` for [`BuildSession::uncached`]
    /// sessions). Builds through this session consult it before every
    /// pass, so pipeline prefixes shared across the session's
    /// builds are computed once.
    pass_cache: Option<Arc<PassCache>>,
}

/// One app's frontend outcome, computed once by its first caller.
type ArtifactSlot = Arc<OnceLock<Result<FrontendArtifact, CompileError>>>;

impl BuildSession {
    /// A session over the stock TinyOS-lite source set, with the pass
    /// cache enabled.
    pub fn new() -> BuildSession {
        BuildSession {
            sources: tosapps::source_set(),
            frontend: OnceLock::new(),
            artifacts: Mutex::default(),
            frontend_compiles: AtomicUsize::new(0),
            pass_cache: Some(Arc::new(PassCache::new())),
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

    /// The cached frontend artifact for `spec`, compiling it on first
    /// use. The frontend runs at most once per app even under
    /// concurrent callers, and a failed compile is cached too: every
    /// later caller gets the same error.
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
        let slot = Arc::clone(
            self.artifacts
                .lock()
                .expect("no caller panics while holding the map")
                .entry(spec.config.to_string())
                .or_default(),
        );
        let mut fresh = false;
        let artifact = slot.get_or_init(|| {
            fresh = true;
            // The parse is charged to the app that ran it; an app that
            // waited for another's parse starts its clock afterwards.
            let start = Instant::now();
            let mut parse = Duration::ZERO;
            let frontend = self.frontend.get_or_init(|| {
                let frontend = nesc::Frontend::new(&self.sources);
                parse = start.elapsed();
                frontend
            });
            let start = Instant::now();
            let out = frontend
                .as_ref()
                .map_err(Clone::clone)?
                .compile(spec.config)?;
            self.frontend_compiles.fetch_add(1, Ordering::Relaxed);
            Ok(FrontendArtifact::new(out, parse + start.elapsed()))
        });
        artifact.clone().map(|a| (a, fresh))
    }

    /// Builds `spec` under `pipeline`, reusing the cached frontend
    /// artifact. The frontend's wall time lands in the metrics of the
    /// one build that compiled it.
    ///
    /// # Errors
    ///
    /// Propagates compile errors from any pass.
    pub fn build(&self, spec: &AppSpec, pipeline: &Pipeline) -> Result<Build, CompileError> {
        let (artifact, fresh) = self.frontend_entry(spec)?;
        let mut build = pipeline.build_with_cache(
            Arc::clone(artifact.shared_program()),
            spec.platform.clone(),
            self.pass_cache.as_deref(),
        )?;
        if fresh {
            build
                .metrics
                .pass_times
                .record("frontend", artifact.elapsed);
        }
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
///
/// Callers that need many runs of one build fork the returned machine:
/// forks share its block decode, filled by the first run of any of them.
pub fn prepare_machine(build: &Build, spec: &AppSpec, seconds: u64) -> (Machine, u64) {
    let mut ctx = spec.context.clone();
    ctx.seconds = seconds;
    let mut m = Machine::new(&build.image);
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
    fn every_pass_of_a_build_is_timed() {
        // stosbench's compile breakdown reads these entries.
        let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
        let pipeline = Pipeline::parse("cure(flid)|races|inline|cxprop|prune|stackbound").unwrap();
        let build = BuildSession::new().build(&spec, &pipeline).unwrap();
        let times = &build.metrics.pass_times;
        for pass in [
            "frontend",
            "cure",
            "races",
            "inline",
            "cxprop",
            "prune",
            "stackbound",
            "backend",
            "link",
        ] {
            assert!(times.get(pass) > Duration::ZERO, "pass {pass} untimed");
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
