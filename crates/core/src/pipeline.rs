//! The composable pass manager: [`Pass`], [`Pipeline`], and the preset
//! registry.
//!
//! The paper's evaluation is a study of *optimizer-stack compositions* —
//! Figure 2 compares four pass stacks, Figure 3 seven — so the driver's
//! unit of configuration is an ordered, named list of passes rather than
//! a closed struct of booleans. Each pass mutates the lowered
//! [`tcil::Program`] in place and deposits its statistics into a
//! [`PassCx`]; the pipeline times every pass individually, into
//! [`PassTimes`] buckets keyed by pass name — the one per-build timing
//! record ([`Metrics::pass_times`]).
//!
//! Pipelines come from three places:
//!
//! * the preset registry ([`Pipeline::preset`], one preset per bar of the
//!   paper's figures),
//! * the fluent [`PipelineBuilder`] (`Pipeline::builder("x").cure()...`),
//! * the textual spec language of [`crate::spec`]
//!   (`Pipeline::parse("cure(flid)|inline|cxprop(rounds=3)")`), also
//!   the format of the harnesses' `STOS_PIPELINE` stack lists.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backend::BackendOptions;
use ccured::{CureOptions, CureStats};
use cxprop::{CxpropOptions, CxpropStats, InlineOptions};
use tcil::{CompileError, Program};

use crate::cache::{ir_digest, CacheKey, PassCache, PassOutput};
use crate::diag::{Diagnostic, Severity};
use crate::{Build, Metrics};

/// Mutable context threaded through a pipeline run: the metrics being
/// collected, the target platform, and the backend's prepared program
/// (set by the `backend` pass, consumed by the final link).
pub struct PassCx {
    platform: mcu::Profile,
    /// Metrics accumulated so far; passes deposit their statistics here.
    pub metrics: Metrics,
    prepared: Option<Program>,
    /// The most recent backend pass's options. Unlike the prepared
    /// program itself, these survive invalidation: if later passes force
    /// a re-prepare at link time, it honors what the spec asked for.
    backend_options: Option<BackendOptions>,
}

impl PassCx {
    /// The platform the pipeline is building for.
    pub fn platform(&self) -> &mcu::Profile {
        &self.platform
    }

    /// Stores the backend-prepared program for the final link. Any later
    /// pass invalidates it (the pipeline discards the stale preparation
    /// and re-prepares at link time, reusing the most recent backend
    /// pass's options).
    pub fn set_prepared(&mut self, prepared: Program) {
        self.prepared = Some(prepared);
    }

    /// Emits a structured diagnostic into the build's metrics. Any pass
    /// can report findings this way; they accumulate in emission order
    /// in [`Metrics::diagnostics`].
    pub fn emit(&mut self, diagnostic: Diagnostic) {
        self.metrics.diagnostics.push(diagnostic);
    }
}

/// One stage of a [`Pipeline`]: a named, individually timed transform of
/// the lowered program.
///
/// Implementations must be `Send + Sync` (pipelines are shared across
/// [`crate::BuildService`] worker threads) and are held behind an [`Arc`], so
/// a pass carries its options but no per-run state — per-run results go
/// through the [`PassCx`].
pub trait Pass: Send + Sync {
    /// The pass's name: its spec-language keyword and its bucket in
    /// [`PassTimes`].
    fn name(&self) -> &str;

    /// The pass's canonical spec-language rendering, including any
    /// non-default options (e.g. `cxprop(domain=constants,rounds=1)`).
    /// Doubles as the pass half of a [`crate::cache::CacheKey`]: two
    /// pass instances with equal specs must transform programs
    /// identically.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// Whether this pass's output may be served from a shared
    /// [`crate::cache::PassCache`]. Only passes that are pure functions
    /// of `(input program, spec)` may opt in; the default is `false`, so
    /// a user-defined pass with hidden state is never cached by
    /// accident. Cacheable passes with metrics must also implement
    /// [`Pass::absorb`].
    fn cacheable(&self) -> bool {
        false
    }

    /// Replays this pass's metrics deposit from a cached run. `effect`
    /// is what [`Pass::run`] wrote into a *fresh* [`Metrics`] when the
    /// entry was computed; implementations must merge it into `into`
    /// exactly as a direct run would have (diagnostics are replayed by
    /// the pipeline itself). The default does nothing — correct for
    /// passes that deposit no metrics.
    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        let _ = (into, effect);
    }

    /// If this pass requests the post-link stack-bound analysis,
    /// returns the budget override it was configured with
    /// (`Some(None)` = analyze with the platform's default budget).
    /// Post-link analyses cannot run inside [`Pass::run`] — the linked
    /// image does not exist yet — so the pipeline collects these
    /// requests and runs [`crate::stackbound::analyze`] after the link.
    /// The default requests nothing.
    fn stackbound_request(&self) -> Option<Option<u32>> {
        None
    }

    /// Transforms `program` in place.
    ///
    /// # Errors
    ///
    /// Propagates the pass's compile errors.
    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError>;
}

/// Per-pass wall times: dynamic buckets keyed by pass name, in first-run
/// order. A pipeline can contain any number of passes, including the
/// same pass twice (times accumulate into one bucket).
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    entries: Vec<(String, Duration)>,
}

impl PassTimes {
    /// Adds `elapsed` to `pass`'s bucket, creating it on first use.
    pub fn record(&mut self, pass: &str, elapsed: Duration) {
        match self.entries.iter_mut().find(|(name, _)| name == pass) {
            Some((_, t)) => *t += elapsed,
            None => self.entries.push((pass.to_string(), elapsed)),
        }
    }

    /// Accumulated time in `pass` (zero if it never ran).
    pub fn get(&self, pass: &str) -> Duration {
        self.entries
            .iter()
            .find(|(name, _)| name == pass)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Sum over all passes.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, t)| *t).sum()
    }

    /// Accumulates another set of pass times into this one.
    pub fn add(&mut self, other: &PassTimes) {
        for (name, t) in &other.entries {
            self.record(name, *t);
        }
    }

    /// Iterates `(pass name, accumulated time)` in first-run order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> + '_ {
        self.entries.iter().map(|(name, t)| (name.as_str(), *t))
    }
}

// ---------------------------------------------------------------------
// The built-in passes.
// ---------------------------------------------------------------------

/// The CCured stage: pointer-kind inference, check insertion, error
/// messages, and (optionally) the local check optimizer.
#[derive(Debug, Clone, Default)]
pub struct CurePass {
    /// Options forwarded to [`ccured::cure`].
    pub options: CureOptions,
}

impl CurePass {
    /// Deposits one cure run's `stats` into `metrics` — shared by the
    /// direct path ([`Pass::run`]) and the cached replay
    /// ([`Pass::absorb`]) so the two are identical by construction.
    fn deposit(metrics: &mut Metrics, mut stats: CureStats) {
        if let Some(prior) = metrics.cure.take() {
            // Accumulate counters across repeated cure passes (each run
            // really does insert its own checks); the pointer-kind and
            // runtime censuses are point-in-time, so latest wins.
            stats.checks_inserted += prior.checks_inserted;
            stats.checks_removed_locally += prior.checks_removed_locally;
            stats.locks_inserted += prior.locks_inserted;
            stats.message_bytes.0 += prior.message_bytes.0;
            stats.message_bytes.1 += prior.message_bytes.1;
        }
        metrics.checks_inserted = stats.checks_inserted;
        metrics.locks_inserted = stats.locks_inserted;
        metrics.cure = Some(stats);
    }
}

impl Pass for CurePass {
    fn name(&self) -> &str {
        "cure"
    }

    fn spec(&self) -> String {
        crate::spec::render_cure(&self.options)
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        if let Some(stats) = effect.cure.clone() {
            Self::deposit(into, stats);
        }
    }

    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        let stats = ccured::cure(program, &self.options)?;
        Self::deposit(&mut cx.metrics, stats);
        Ok(())
    }
}

/// The standalone source-level inliner (runs [`cxprop::inline`] outside
/// the cXprop fixpoint; the composite `cxprop(inline)` runs it inside,
/// after race refinement, as the paper's tool did).
#[derive(Debug, Clone, Default)]
pub struct InlinePass {
    /// Inliner thresholds.
    pub options: InlineOptions,
}

impl Pass for InlinePass {
    fn name(&self) -> &str {
        "inline"
    }

    fn spec(&self) -> String {
        crate::spec::render_inline(&self.options)
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        let inlined = effect.cxprop.as_ref().map_or(0, |c| c.inlined);
        into.cxprop.get_or_insert_with(Default::default).inlined += inlined;
    }

    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        let inlined = cxprop::inline::run(program, &self.options);
        cx.metrics
            .cxprop
            .get_or_insert_with(Default::default)
            .inlined += inlined;
        Ok(())
    }
}

/// The cXprop whole-program optimizer. Inlined-call-site counts from an
/// earlier [`InlinePass`] are folded into this pass's statistics so
/// `Metrics::cxprop` reports the stack's total either way.
#[derive(Debug, Clone)]
pub struct CxpropPass {
    /// Options forwarded to [`cxprop::optimize`].
    pub options: CxpropOptions,
}

impl Default for CxpropPass {
    /// Unlike [`CxpropOptions::default`], the standalone pass defaults to
    /// *not* inlining — `inline` is its own pass in the spec language.
    fn default() -> Self {
        CxpropPass {
            options: CxpropOptions {
                inline: false,
                ..CxpropOptions::default()
            },
        }
    }
}

impl CxpropPass {
    /// Deposits one cXprop run's `stats` into `metrics` — shared by the
    /// direct path and the cached replay so the two are identical by
    /// construction.
    fn deposit(&self, metrics: &mut Metrics, mut stats: CxpropStats) {
        {
            // Surface the concurrency counts in the build-level rollup:
            // refinement censuses are point-in-time (latest wins, and
            // only when refinement actually ran), atomic-section work
            // accumulates across the stack.
            let races = metrics.races.get_or_insert_with(Default::default);
            if self.options.refine_races {
                races.racy_globals = stats.races.racy.len();
                races.cleared_globals = stats.races.cleared.len();
            }
            races.atomics_removed += stats.atomics.removed;
            races.atomics_demoted += stats.atomics.demoted;
        }
        if let Some(prior) = metrics.cxprop.take() {
            // Accumulate across repeated cxprop/inline passes so the
            // metrics report what the whole stack did, not just the last
            // run. The race report is point-in-time, so latest wins.
            stats.inlined += prior.inlined;
            stats.engine.checks_removed += prior.engine.checks_removed;
            stats.engine.branches_folded += prior.engine.branches_folded;
            stats.engine.consts_folded += prior.engine.consts_folded;
            stats.copies_propagated += prior.copies_propagated;
            stats.dce.functions_removed += prior.dce.functions_removed;
            stats.dce.globals_removed += prior.dce.globals_removed;
            stats.dce.stores_removed += prior.dce.stores_removed;
            stats.atomics.removed += prior.atomics.removed;
            stats.atomics.demoted += prior.atomics.demoted;
        }
        metrics.cxprop = Some(stats);
    }
}

impl Pass for CxpropPass {
    fn name(&self) -> &str {
        "cxprop"
    }

    fn spec(&self) -> String {
        crate::spec::render_cxprop(&self.options)
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        if let Some(stats) = effect.cxprop.clone() {
            self.deposit(into, stats);
        }
    }

    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        let stats = cxprop::optimize(program, &self.options);
        self.deposit(&mut cx.metrics, stats);
        Ok(())
    }
}

/// Sweeps error-message globals whose checks were optimized away
/// (Figure 2 methodology: strings of eliminated checks become
/// unreferenced and must not be charged to the image).
#[derive(Debug, Clone, Copy, Default)]
pub struct PruneErrmsgPass;

impl Pass for PruneErrmsgPass {
    fn name(&self) -> &str {
        "prune"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn run(&self, program: &mut Program, _cx: &mut PassCx) -> Result<(), CompileError> {
        ccured::errmsg::prune_unused_messages(program);
        Ok(())
    }
}

/// The whole-program race & atomicity analysis pass (`races`), with an
/// optional auto-hardening transform (`races(fix)`).
///
/// The analysis runs [`cxprop::race_sites::classify`]: it refines the
/// racy-global set on the pointer-following concurrency lattice, walks
/// every racy global's actual access sites in synchronous code, and
/// emits one [`Diagnostic`] per unprotected site — `R001`
/// (unprotected-sync-write), `R002` (torn-16bit-access), or `R003`
/// (async-rmw) — with a FLID-style `func:site` location.
///
/// With `fix`, the pass first runs [`cxprop::race_sites::harden`]:
/// every flagged statement is wrapped in a minimal atomic section and
/// the analysis is re-run to a zero-diagnostic fixpoint, then
/// [`cxprop::atomic_opt`] cleans up the nesting the wrapping introduced.
/// The diagnostics the pass emits are the *post-fix* findings — an empty
/// set is the fixpoint certificate.
#[derive(Debug, Clone, Copy, Default)]
pub struct RacesPass {
    /// Auto-harden flagged sites instead of only reporting them.
    pub fix: bool,
}

impl Pass for RacesPass {
    fn name(&self) -> &str {
        "races"
    }

    fn spec(&self) -> String {
        crate::spec::render_races(self.fix)
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        // Replay the same merge `run` performs: cleanup and hardening
        // counters accumulate, the site censuses are point-in-time
        // (cleared keeps its high-water mark), and the fixpoint
        // iteration count only exists under `fix`.
        let er = effect.races.unwrap_or_default();
        let races = into.races.get_or_insert_with(Default::default);
        races.atomics_removed += er.atomics_removed;
        races.atomics_demoted += er.atomics_demoted;
        races.racy_globals = er.racy_globals;
        races.cleared_globals = races.cleared_globals.max(er.cleared_globals);
        races.sections_added += er.sections_added;
        if self.fix {
            races.fix_iterations = er.fix_iterations;
        }
    }

    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        let fix_stats = if self.fix {
            let stats = cxprop::race_sites::harden(program);
            let cleanup = cxprop::atomic_opt::run(program);
            let races = cx.metrics.races.get_or_insert_with(Default::default);
            races.atomics_removed += cleanup.removed;
            races.atomics_demoted += cleanup.demoted;
            Some(stats)
        } else {
            None
        };
        let findings = cxprop::race_sites::classify(program);
        for site in &findings.sites {
            let kind = site.kind;
            cx.emit(Diagnostic::new(
                Severity::Warning,
                kind.code(),
                site.label(),
                format!(
                    "{} of racy global `{}` ({} bytes)",
                    kind.name(),
                    site.global,
                    site.width
                ),
            ));
        }
        let races = cx.metrics.races.get_or_insert_with(Default::default);
        races.racy_globals = findings.report.racy.len();
        races.cleared_globals = races.cleared_globals.max(findings.report.cleared.len());
        if let Some(stats) = fix_stats {
            races.sections_added += stats.sections_added;
            races.fix_iterations = stats.iterations;
        }
        Ok(())
    }
}

/// The whole-program interrupt-aware stack-bound analysis pass
/// (`stackbound`, optionally `stackbound(budget=N)`).
///
/// The IR-level [`Pass::run`] is a no-op: stack frames only exist after
/// the backend has laid them out, so the real work —
/// [`crate::stackbound::analyze`] over the linked [`mcu::Image`] — runs
/// post-link, requested through [`Pass::stackbound_request`]. It emits
/// `S001`/`S002`/`S003` [`Diagnostic`]s and deposits [`crate::StackStats`]
/// into [`Metrics::stack`]. Because the analyzer is a pure function of
/// the image (and the link is never cached), its results are
/// byte-identical with or without a pass cache, across worker counts,
/// and across execution engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackboundPass {
    /// SRAM stack budget override in bytes (`None` = the space between
    /// the image's static data and the top of SRAM).
    pub budget: Option<u32>,
}

impl Pass for StackboundPass {
    fn name(&self) -> &str {
        "stackbound"
    }

    fn spec(&self) -> String {
        crate::spec::render_stackbound(self.budget)
    }

    fn cacheable(&self) -> bool {
        // The IR transform is the identity and the effect is empty, so
        // caching is trivially correct; the post-link analysis is
        // outside the cache entirely.
        true
    }

    fn stackbound_request(&self) -> Option<Option<u32>> {
        Some(self.budget)
    }

    fn run(&self, _program: &mut Program, _cx: &mut PassCx) -> Result<(), CompileError> {
        Ok(())
    }
}

/// The backend-prepare stage: the weak GCC-class optimizer over a copy of
/// the program, staged for the final link. If other passes run after it,
/// the pipeline re-prepares at link time with this pass's options; a
/// pipeline with no backend pass at all prepares with the defaults.
#[derive(Debug, Clone, Default)]
pub struct BackendPass {
    /// Options forwarded to [`backend::prepare`].
    pub options: BackendOptions,
}

impl Pass for BackendPass {
    fn name(&self) -> &str {
        "backend"
    }

    fn spec(&self) -> String {
        crate::spec::render_backend(&self.options)
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        cx.backend_options = Some(self.options.clone());
        cx.set_prepared(backend::prepare(program, &self.options));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Pipeline.
// ---------------------------------------------------------------------

/// An ordered, named list of passes — one optimizer-stack composition.
///
/// The name is an owned `String` so generated sweep configurations are
/// nameable, not just the static presets. `Display` renders the
/// canonical spec string, which [`Pipeline::parse`] round-trips.
///
/// ```
/// use safe_tinyos::Pipeline;
///
/// let p = Pipeline::parse("cure(flid) | inline | cxprop(rounds=3)").unwrap();
/// assert_eq!(p.to_string(), "cure(flid)|inline|cxprop");
/// assert_eq!(Pipeline::parse(&p.to_string()).unwrap().to_string(), p.to_string());
/// ```
#[derive(Clone)]
pub struct Pipeline {
    name: String,
    passes: Vec<Arc<dyn Pass>>,
}

impl Pipeline {
    /// Starts a fluent builder for a pipeline called `name`.
    pub fn builder(name: impl Into<String>) -> PipelineBuilder {
        PipelineBuilder {
            name: name.into(),
            passes: Vec::new(),
        }
    }

    /// Parses a pipeline-spec string (see [`crate::spec`] for the
    /// grammar). The pipeline's name is the canonical spec rendering.
    ///
    /// # Errors
    ///
    /// Rejects empty specs, unknown passes, and unknown or malformed
    /// options.
    pub fn parse(spec: &str) -> Result<Pipeline, crate::spec::SpecError> {
        crate::spec::parse(spec)
    }

    /// The pipeline's display name (experiment-output label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same pipeline under a different name.
    pub fn with_name(mut self, name: impl Into<String>) -> Pipeline {
        self.name = name.into();
        self
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[Arc<dyn Pass>] {
        &self.passes
    }

    /// The canonical spec string (what `Display` renders).
    pub fn spec(&self) -> String {
        self.passes
            .iter()
            .map(|p| p.spec())
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Runs the pipeline over an already-lowered program: every pass in
    /// order (each individually timed), then the final link. If no
    /// backend pass prepared the program — or passes ran after it did —
    /// the backend re-runs at link time with the most recent backend
    /// pass's options (defaults if there was none), so every composition
    /// yields a linkable image.
    ///
    /// Equivalent to [`Pipeline::build_with_cache`] with no cache.
    ///
    /// # Errors
    ///
    /// Propagates compile errors from any pass or from the link.
    pub fn build(
        &self,
        program: impl Into<Arc<Program>>,
        platform: mcu::Profile,
    ) -> Result<Build, CompileError> {
        self.build_with_cache(program, platform, None)
    }

    /// Runs the pipeline, consulting `cache` before each
    /// [cacheable](Pass::cacheable) pass and populating it after. A hit
    /// replays the stored output program and metric deposit (via
    /// [`Pass::absorb`]) instead of re-running the pass; the result is
    /// byte-identical to an uncached build. The final link is never
    /// cached (it is cheap and produces the per-build image), but the
    /// implicit link-time backend prepare is — under the same key a
    /// spelled-out `backend` pass would use, so `…|cxprop` and
    /// `…|cxprop|backend` share one entry.
    ///
    /// The input program is shared, never written in place: a pass that
    /// runs outside the cache copies it on its first write
    /// ([`Arc::make_mut`]), and a cached pass runs on a copy inside the
    /// cache entry. A [`crate::BuildSession`] hands every build of an app
    /// the same frontend `Arc`, so builds whose passes all hit the cache
    /// copy nothing, and [`Build::program`] is the last pass's entry.
    ///
    /// Timing buckets record what *this* build spent: a hit charges its
    /// (cheap) lookup to the pass's bucket, so every pass that ran has a
    /// bucket with or without a cache while warm wall times collapse.
    ///
    /// # Errors
    ///
    /// Propagates compile errors from any pass or from the link. Errors
    /// are cached too — every build of a failing key reports the same
    /// error without re-running the pass.
    pub fn build_with_cache(
        &self,
        program: impl Into<Arc<Program>>,
        platform: mcu::Profile,
        cache: Option<&PassCache>,
    ) -> Result<Build, CompileError> {
        let mut cx = PassCx {
            platform,
            metrics: Metrics::default(),
            prepared: None,
            backend_options: None,
        };
        let mut state: Arc<Program> = program.into();
        // The digest of `state`, when known: computed lazily on the
        // first cached lookup, chained from entry to entry on hits, and
        // invalidated whenever an uncacheable pass mutates `state`
        // directly.
        let mut digest: Option<(u64, usize)> = None;
        let mut prepared: Option<Arc<Program>> = None;
        let mut backend_options: Option<BackendOptions> = None;
        for pass in &self.passes {
            // Both arms below overwrite `prepared`, so a later pass
            // invalidates any staged preparation: the backend's output is
            // only reusable when nothing ran after it, whatever order a
            // generated sweep put the passes in.
            cx.prepared = None;
            let start = Instant::now();
            match cache.filter(|_| pass.cacheable()) {
                Some(cache) => {
                    let (d, _) = *digest.get_or_insert_with(|| ir_digest(&state));
                    let slot = cache.slot(&CacheKey::new(d, pass.spec()));
                    let mut computed = false;
                    let out = slot.get_or_init(|| {
                        computed = true;
                        // Run against a scratch context so the entry
                        // records the pass's *own* deposit, replayable
                        // into any build's accumulated metrics.
                        let mut scratch = PassCx {
                            platform: cx.platform.clone(),
                            metrics: Metrics::default(),
                            prepared: None,
                            backend_options: None,
                        };
                        let mut program = (*state).clone();
                        pass.run(&mut program, &mut scratch).map(|()| {
                            let (digest, bytes) = ir_digest(&program);
                            PassOutput {
                                program: Arc::new(program),
                                digest,
                                bytes,
                                effect: scratch.metrics,
                                prepared: scratch.prepared.take().map(Arc::new),
                                backend_options: scratch.backend_options.take(),
                            }
                        })
                    });
                    cache.note(
                        pass.name(),
                        computed,
                        out.as_ref().map(|o| o.bytes).unwrap_or(0),
                    );
                    let out = out.as_ref().map_err(Clone::clone)?;
                    state = out.program.clone();
                    digest = Some((out.digest, out.bytes));
                    prepared = out.prepared.clone();
                    if let Some(options) = &out.backend_options {
                        backend_options = Some(options.clone());
                    }
                    cx.metrics
                        .diagnostics
                        .extend(out.effect.diagnostics.iter().cloned());
                    pass.absorb(&mut cx.metrics, &out.effect);
                }
                None => {
                    pass.run(Arc::make_mut(&mut state), &mut cx)?;
                    digest = None;
                    prepared = cx.prepared.take().map(Arc::new);
                    if let Some(options) = cx.backend_options.take() {
                        backend_options = Some(options);
                    }
                }
            }
            cx.metrics.pass_times.record(pass.name(), start.elapsed());
        }
        let prepared = match prepared {
            Some(prepared) => prepared,
            None => {
                // No usable preparation staged: re-prepare with the most
                // recent backend pass's options (default if none ran).
                // An invalidated prepare's time stays on the books — the
                // work really happened — so a backend-mid-pipeline stack
                // honestly shows two prepares in its timing.
                let options = backend_options.unwrap_or_default();
                let start = Instant::now();
                let prepared = match cache {
                    Some(cache) => {
                        // Same keyspace as a spelled-out `backend` pass:
                        // whichever computes first, the other hits, and
                        // the entries are identical (the backend never
                        // mutates the program, so output digest == input
                        // digest).
                        let (d, b) = *digest.get_or_insert_with(|| ir_digest(&state));
                        let spec = crate::spec::render_backend(&options);
                        let slot = cache.slot(&CacheKey::new(d, spec));
                        let mut computed = false;
                        let out = slot.get_or_init(|| {
                            computed = true;
                            Ok(PassOutput {
                                program: state.clone(),
                                digest: d,
                                bytes: b,
                                effect: Metrics::default(),
                                prepared: Some(Arc::new(backend::prepare(&state, &options))),
                                backend_options: Some(options.clone()),
                            })
                        });
                        cache.note("backend", computed, b);
                        let out = out.as_ref().map_err(Clone::clone)?;
                        out.prepared
                            .clone()
                            .expect("backend entries stage a prepared program")
                    }
                    None => Arc::new(backend::prepare(&state, &options)),
                };
                cx.metrics.pass_times.record("backend", start.elapsed());
                prepared
            }
        };
        let start = Instant::now();
        let image = backend::link(&prepared, cx.platform)?;
        let mut metrics = cx.metrics;
        metrics.pass_times.record("link", start.elapsed());
        metrics.code_bytes = image.code_bytes();
        metrics.flash_bytes = image.flash_bytes();
        metrics.sram_bytes = image.sram_bytes();
        metrics.checks_surviving = image.surviving_checks();
        // Post-link analyses: passes that certify properties of the
        // linked image (today `stackbound`) run here, after the link
        // stamped the image but before the build is sealed. The link is
        // never cached and the analyzer is a pure function of the
        // image, so the results — diagnostics included — are identical
        // with or without the pass cache and for any worker count. The
        // time lands in the requesting pass's own bucket.
        for pass in &self.passes {
            if let Some(budget) = pass.stackbound_request() {
                let start = Instant::now();
                let report = crate::stackbound::analyze(&image, budget);
                metrics.diagnostics.extend(report.diagnostics);
                metrics.stack = Some(report.stats);
                metrics.pass_times.record(pass.name(), start.elapsed());
            }
        }
        Ok(Build {
            image,
            metrics,
            program: state,
        })
    }
}

impl Pipeline {
    pub(crate) fn from_parts(name: String, passes: Vec<Arc<dyn Pass>>) -> Pipeline {
        Pipeline { name, passes }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("spec", &self.spec())
            .finish()
    }
}

/// Fluent construction of a [`Pipeline`]: chain pass methods in
/// execution order, then [`PipelineBuilder::build`].
///
/// ```
/// use safe_tinyos::Pipeline;
///
/// let p = Pipeline::builder("my-stack").cure().inline().cxprop().prune().build();
/// assert_eq!(p.to_string(), "cure(flid)|inline|cxprop|prune");
/// ```
pub struct PipelineBuilder {
    name: String,
    passes: Vec<Arc<dyn Pass>>,
}

impl PipelineBuilder {
    /// Appends an arbitrary (possibly user-defined) pass.
    pub fn pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Arc::new(pass));
        self
    }

    /// Appends the CCured pass with default options (FLIDs, local
    /// optimizer on).
    pub fn cure(self) -> Self {
        self.pass(CurePass::default())
    }

    /// Appends the CCured pass with explicit options.
    pub fn cure_with(self, options: CureOptions) -> Self {
        self.pass(CurePass { options })
    }

    /// Appends the standalone inliner with default thresholds.
    pub fn inline(self) -> Self {
        self.pass(InlinePass::default())
    }

    /// Appends the standalone inliner with explicit thresholds.
    pub fn inline_with(self, options: InlineOptions) -> Self {
        self.pass(InlinePass { options })
    }

    /// Appends cXprop with the standalone-pass defaults (no inlining).
    pub fn cxprop(self) -> Self {
        self.pass(CxpropPass::default())
    }

    /// Appends cXprop with explicit options (set `inline: true` to run
    /// the inliner inside the fixpoint, as the paper's composite did).
    pub fn cxprop_with(self, options: CxpropOptions) -> Self {
        self.pass(CxpropPass { options })
    }

    /// Appends the error-message pruner.
    pub fn prune(self) -> Self {
        self.pass(PruneErrmsgPass)
    }

    /// Appends the race & atomicity analysis pass (report only).
    pub fn races(self) -> Self {
        self.pass(RacesPass { fix: false })
    }

    /// Appends the race & atomicity pass with auto-hardening
    /// (`races(fix)`).
    pub fn races_fix(self) -> Self {
        self.pass(RacesPass { fix: true })
    }

    /// Appends the stack-bound analysis pass with the platform's
    /// default SRAM budget.
    pub fn stackbound(self) -> Self {
        self.pass(StackboundPass { budget: None })
    }

    /// Appends the stack-bound analysis pass with an explicit budget in
    /// bytes (`stackbound(budget=N)`).
    pub fn stackbound_budget(self, budget: u32) -> Self {
        self.pass(StackboundPass {
            budget: Some(budget),
        })
    }

    /// Appends the backend-prepare pass (weak optimizer on).
    pub fn backend(self) -> Self {
        self.pass(BackendPass::default())
    }

    /// Appends the backend-prepare pass with explicit options.
    pub fn backend_with(self, options: BackendOptions) -> Self {
        self.pass(BackendPass { options })
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            name: self.name,
            passes: self.passes,
        }
    }
}

// ---------------------------------------------------------------------
// Presets: one pipeline per bar of the paper's figures.
// ---------------------------------------------------------------------

/// Every preset name, in registry order (Figure 3's seven bars, the
/// unsafe baseline, then Figure 2's four stacks).
pub const PRESET_NAMES: [&str; 12] = [
    "unsafe",
    "unsafe+cxprop",
    "safe-verbose-ram",
    "safe-verbose-rom",
    "safe-terse",
    "safe-flid",
    "safe-flid-cxprop",
    "safe-flid-inline-cxprop",
    "gcc",
    "ccured+gcc",
    "ccured+cxprop+gcc",
    "ccured+inline+cxprop+gcc",
];

impl Pipeline {
    /// Looks up a preset pipeline by name (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<Pipeline> {
        Some(match name {
            "unsafe" => Self::unsafe_baseline(),
            "unsafe+cxprop" => Self::unsafe_optimized(),
            "safe-verbose-ram" => Self::safe_verbose_ram(),
            "safe-verbose-rom" => Self::safe_verbose_rom(),
            "safe-terse" => Self::safe_terse(),
            "safe-flid" => Self::safe_flid(),
            "safe-flid-cxprop" => Self::safe_flid_cxprop(),
            "safe-flid-inline-cxprop" => Self::safe_flid_inline_cxprop(),
            "gcc" => Self::fig2_gcc_only(),
            "ccured+gcc" => Self::fig2_ccured_gcc(),
            "ccured+cxprop+gcc" => Self::fig2_ccured_cxprop_gcc(),
            "ccured+inline+cxprop+gcc" => Self::fig2_full(),
            _ => return None,
        })
    }

    /// The paper's baseline: unsafe, unoptimized (plain nesC + gcc —
    /// just the backend).
    pub fn unsafe_baseline() -> Pipeline {
        Self::builder("unsafe").backend().build()
    }

    /// Figure 3 bar 7: unsafe, inlined and optimized by cXprop (the
    /// "new baseline").
    pub fn unsafe_optimized() -> Pipeline {
        Self::builder("unsafe+cxprop")
            .inline()
            .cxprop()
            .prune()
            .build()
    }

    fn safe_with(name: &str, error_mode: ccured::ErrorMode) -> Pipeline {
        Self::builder(name)
            .cure_with(CureOptions {
                error_mode,
                ..CureOptions::default()
            })
            .build()
    }

    /// Figure 3 bar 1: safe, verbose error messages in SRAM.
    pub fn safe_verbose_ram() -> Pipeline {
        Self::safe_with("safe-verbose-ram", ccured::ErrorMode::VerboseRam)
    }

    /// Figure 3 bar 2: safe, verbose error messages in ROM.
    pub fn safe_verbose_rom() -> Pipeline {
        Self::safe_with("safe-verbose-rom", ccured::ErrorMode::VerboseRom)
    }

    /// Figure 3 bar 3: safe, terse error messages.
    pub fn safe_terse() -> Pipeline {
        Self::safe_with("safe-terse", ccured::ErrorMode::Terse)
    }

    /// Figure 3 bar 4: safe, FLID-compressed error messages.
    pub fn safe_flid() -> Pipeline {
        Self::safe_with("safe-flid", ccured::ErrorMode::Flid)
    }

    /// Figure 3 bar 5: safe + FLIDs + cXprop (no inliner).
    pub fn safe_flid_cxprop() -> Pipeline {
        Self::builder("safe-flid-cxprop")
            .cure()
            .cxprop()
            .prune()
            .build()
    }

    /// Figure 3 bar 6: safe + FLIDs + inliner + cXprop (the full stack).
    pub fn safe_flid_inline_cxprop() -> Pipeline {
        Self::builder("safe-flid-inline-cxprop")
            .cure()
            .inline()
            .cxprop()
            .prune()
            .build()
    }

    /// Figure 2 config 1: gcc alone (checks inserted, nothing else —
    /// CCured's local optimizer off).
    pub fn fig2_gcc_only() -> Pipeline {
        Self::builder("gcc")
            .cure_with(CureOptions {
                local_optimize: false,
                ..CureOptions::default()
            })
            .build()
    }

    /// Figure 2 config 2: CCured optimizer + gcc.
    pub fn fig2_ccured_gcc() -> Pipeline {
        Self::builder("ccured+gcc").cure().build()
    }

    /// Figure 2 config 3: CCured optimizer + cXprop (no inliner) + gcc.
    pub fn fig2_ccured_cxprop_gcc() -> Pipeline {
        Self::builder("ccured+cxprop+gcc")
            .cure()
            .cxprop()
            .prune()
            .build()
    }

    /// Figure 2 config 4: CCured optimizer + inliner + cXprop + gcc.
    pub fn fig2_full() -> Pipeline {
        Self::builder("ccured+inline+cxprop+gcc")
            .cure()
            .inline()
            .cxprop()
            .prune()
            .build()
    }

    /// The seven Figure 3 bars, in the paper's order.
    pub fn fig3_bars() -> Vec<Pipeline> {
        vec![
            Self::safe_verbose_ram(),
            Self::safe_verbose_rom(),
            Self::safe_terse(),
            Self::safe_flid(),
            Self::safe_flid_cxprop(),
            Self::safe_flid_inline_cxprop(),
            Self::unsafe_optimized(),
        ]
    }

    /// The four Figure 2 optimizer stacks, in the paper's order.
    pub fn fig2_stacks() -> Vec<Pipeline> {
        vec![
            Self::fig2_gcc_only(),
            Self::fig2_ccured_gcc(),
            Self::fig2_ccured_cxprop_gcc(),
            Self::fig2_full(),
        ]
    }
}
