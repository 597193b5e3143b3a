//! The composable pass manager: [`Pass`], [`Pipeline`], and the preset
//! registry.
//!
//! The paper's evaluation is a study of *optimizer-stack compositions* —
//! Figure 2 compares four pass stacks, Figure 3 seven — so the driver's
//! unit of configuration is an ordered, named list of passes rather than
//! a closed struct of booleans. Each pass mutates the lowered
//! [`tcil::Program`] in place and deposits its statistics into the
//! build's [`Metrics`]; the pipeline times every pass individually, into
//! [`PassTimes`] buckets keyed by pass name — the one per-build timing
//! record ([`Metrics::pass_times`]).
//!
//! Every pipeline is parsed from the textual spec language of
//! [`crate::spec`] (`Pipeline::parse("cure(flid)|inline|cxprop(rounds=3)")`,
//! also the format of the harnesses' `STOS_PIPELINE` stack lists). The
//! preset registry ([`Pipeline::preset`], one preset per bar of the
//! paper's figures) is a table of named spec strings, parsed once per
//! process.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use backend::BackendOptions;
use ccured::{CureOptions, CureStats};
use cxprop::{CxpropOptions, CxpropStats, InlineOptions};
use tcil::{CompileError, Program};

use crate::cache::{ir_digest, CacheKey, PassCache, PassOutput};
use crate::diag::{Diagnostic, Severity};
use crate::{Build, Metrics};

/// What a pass run writes besides the program: the metrics being
/// collected and, from the `backend` pass, the prepared program and the
/// options it was prepared with.
#[derive(Default)]
pub(crate) struct PassCx {
    metrics: Metrics,
    prepared: Option<Program>,
    /// The most recent backend pass's options. Unlike the prepared
    /// program itself, these survive invalidation: if later passes force
    /// a re-prepare at link time, it honors what the spec asked for.
    backend_options: Option<BackendOptions>,
}

/// One stage of a [`Pipeline`]: a spec-language pass keyword with its
/// options. Every pass is a pure function of `(input program, options)`,
/// so every pass's output may be served from a shared
/// [`crate::cache::PassCache`].
#[derive(Debug, Clone)]
pub enum Pass {
    /// `cure`: CCured's pointer-kind inference, check insertion, error
    /// messages, and (optionally) the local check optimizer.
    Cure(CureOptions),
    /// `inline`: the standalone source-level inliner (runs
    /// [`cxprop::inline`] outside the cXprop fixpoint; the composite
    /// `cxprop(inline)` runs it inside, after race refinement, as the
    /// paper's tool did).
    Inline(InlineOptions),
    /// `cxprop`: the whole-program optimizer. Inlined-call-site counts
    /// from an earlier `inline` pass are folded into its statistics so
    /// `Metrics::cxprop` reports the stack's total either way.
    Cxprop(CxpropOptions),
    /// `prune`: sweeps error-message globals whose checks were optimized
    /// away (Figure 2 methodology: strings of eliminated checks become
    /// unreferenced and must not be charged to the image).
    Prune,
    /// `races`: the whole-program race & atomicity analysis.
    ///
    /// It runs [`cxprop::race_sites::classify`]: one
    /// [`tcil::concurrency::Census`] of the program refines the
    /// racy-global set and lists every racy global's unprotected access
    /// sites, and the pass emits one [`Diagnostic`] per site — `R001`
    /// (unprotected-sync-write), `R002` (torn-16bit-access), or `R003`
    /// (async-rmw) — with a FLID-style `func:site` location.
    ///
    /// With `fix` (`races(fix)`), the pass runs
    /// [`cxprop::race_sites::harden`] instead: every flagged statement is
    /// wrapped in a minimal atomic section and the analysis is re-run to
    /// a zero-diagnostic fixpoint, then [`cxprop::atomic_opt`] cleans up
    /// the nesting the wrapping introduced. The diagnostics the pass
    /// emits are the fixpoint's findings — an empty set is the fixpoint
    /// certificate.
    Races {
        /// Auto-harden flagged sites instead of only reporting them.
        fix: bool,
    },
    /// `stackbound`: the whole-program interrupt-aware stack-bound
    /// analysis.
    ///
    /// Its IR-level run is the identity: stack frames only exist after
    /// the backend has laid them out, so the real work —
    /// [`crate::stackbound::analyze`] over the linked [`mcu::Image`] —
    /// runs post-link. It emits `S001`/`S002`/`S003` [`Diagnostic`]s and
    /// deposits [`crate::StackStats`] into [`Metrics::stack`]. Because
    /// the analyzer is a pure function of the image (and the link is
    /// never cached), its results are byte-identical with or without a
    /// pass cache, across worker counts, and across execution engines.
    Stackbound {
        /// SRAM stack budget override in bytes (`None` = the space
        /// between the image's static data and the top of SRAM).
        budget: Option<u32>,
    },
    /// `backend`: the weak GCC-class optimizer over a copy of the
    /// program, staged for the final link. If other passes run after it,
    /// the pipeline re-prepares at link time with this pass's options; a
    /// pipeline with no backend pass at all prepares with the defaults.
    Backend(BackendOptions),
}

impl Pass {
    /// The pass's name: its spec-language keyword and its bucket in
    /// [`PassTimes`].
    pub fn name(&self) -> &'static str {
        match self {
            Pass::Cure(_) => "cure",
            Pass::Inline(_) => "inline",
            Pass::Cxprop(_) => "cxprop",
            Pass::Prune => "prune",
            Pass::Races { .. } => "races",
            Pass::Stackbound { .. } => "stackbound",
            Pass::Backend(_) => "backend",
        }
    }

    /// Transforms `program` in place, depositing statistics into `cx`.
    fn run(&self, program: &mut Program, cx: &mut PassCx) -> Result<(), CompileError> {
        match self {
            Pass::Cure(options) => deposit_cure(&mut cx.metrics, ccured::cure(program, options)?),
            Pass::Inline(options) => {
                let inlined = cxprop::inline::run(program, options);
                cx.metrics
                    .cxprop
                    .get_or_insert_with(Default::default)
                    .inlined += inlined;
            }
            Pass::Cxprop(options) => {
                deposit_cxprop(&mut cx.metrics, cxprop::optimize(program, options));
            }
            Pass::Prune => {
                ccured::errmsg::prune_unused_messages(program);
            }
            Pass::Races { fix } => run_races(program, *fix, &mut cx.metrics),
            Pass::Stackbound { .. } => {}
            Pass::Backend(options) => {
                cx.backend_options = Some(options.clone());
                cx.prepared = Some(backend::prepare(program, options));
            }
        }
        Ok(())
    }

    /// Replays this pass's metrics deposit from a cached run. `effect`
    /// is what [`Pass::run`] wrote into a *fresh* [`Metrics`] when the
    /// entry was computed; it is merged into `into` exactly as a direct
    /// run would have (diagnostics are replayed by the pipeline itself).
    fn absorb(&self, into: &mut Metrics, effect: &Metrics) {
        match self {
            Pass::Cure(_) => {
                if let Some(stats) = effect.cure.clone() {
                    deposit_cure(into, stats);
                }
            }
            Pass::Inline(_) => {
                let inlined = effect.cxprop.as_ref().map_or(0, |c| c.inlined);
                into.cxprop.get_or_insert_with(Default::default).inlined += inlined;
            }
            Pass::Cxprop(_) => {
                if let Some(stats) = effect.cxprop.clone() {
                    deposit_cxprop(into, stats);
                }
            }
            Pass::Races { fix } => {
                // Replay the same merge `run_races` performs: cleanup and
                // hardening counters accumulate, the verdict counts are
                // point-in-time, and the fixpoint iteration count only
                // exists under `fix`.
                let er = effect.races.unwrap_or_default();
                let races = into.races.get_or_insert_with(Default::default);
                races.atomics_removed += er.atomics_removed;
                races.atomics_demoted += er.atomics_demoted;
                races.racy_globals = er.racy_globals;
                races.cleared_globals = er.cleared_globals;
                races.sections_added += er.sections_added;
                if *fix {
                    races.fix_iterations = er.fix_iterations;
                }
            }
            Pass::Prune | Pass::Stackbound { .. } | Pass::Backend(_) => {}
        }
    }
}

/// Deposits one cure run's `stats` into `metrics` — shared by the direct
/// path and the cached replay so the two are identical by construction.
fn deposit_cure(metrics: &mut Metrics, mut stats: CureStats) {
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

/// Deposits one cXprop run's `stats` into `metrics` — shared by the
/// direct path and the cached replay so the two are identical by
/// construction.
fn deposit_cxprop(metrics: &mut Metrics, mut stats: CxpropStats) {
    {
        // Surface the concurrency counts in the build-level rollup: the
        // verdict counts are point-in-time, atomic-section work
        // accumulates across the stack.
        let races = metrics.races.get_or_insert_with(Default::default);
        races.racy_globals = stats.races.racy.len();
        races.cleared_globals = stats.races.cleared.len();
        races.atomics_removed += stats.atomics.removed;
        races.atomics_demoted += stats.atomics.demoted;
    }
    if let Some(prior) = metrics.cxprop.take() {
        // Accumulate across repeated cxprop/inline passes so the metrics
        // report what the whole stack did, not just the last run. The
        // race report is point-in-time, so latest wins.
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

/// The `races` pass: the per-site analysis, or hardening to its
/// fixpoint, whose findings it reports.
fn run_races(program: &mut Program, fix: bool, metrics: &mut Metrics) {
    let races = metrics.races.get_or_insert_with(Default::default);
    let findings = if fix {
        let (stats, findings) = cxprop::race_sites::harden(program);
        let cleanup = cxprop::atomic_opt::run(program);
        races.atomics_removed += cleanup.removed;
        races.atomics_demoted += cleanup.demoted;
        races.sections_added += stats.sections_added;
        races.fix_iterations = stats.iterations;
        findings
    } else {
        cxprop::race_sites::classify(program)
    };
    races.racy_globals = findings.report.racy.len();
    races.cleared_globals = findings.report.cleared.len();
    for site in &findings.sites {
        let kind = site.kind;
        metrics.diagnostics.push(Diagnostic::new(
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

    /// Iterates `(pass name, accumulated time)` in first-run order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> + '_ {
        self.entries.iter().map(|(name, t)| (name.as_str(), *t))
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
    passes: Vec<Pass>,
}

impl Pipeline {
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

    pub(crate) fn from_parts(name: String, passes: Vec<Pass>) -> Pipeline {
        Pipeline { name, passes }
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
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// The canonical spec string (what `Display` renders).
    pub fn spec(&self) -> String {
        self.passes
            .iter()
            .map(Pass::spec)
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

    /// Runs the pipeline, consulting `cache` before each pass and
    /// populating it after. A hit replays the stored output program and
    /// metric deposit instead of re-running the pass; the result is
    /// byte-identical to an uncached build. The final link is never
    /// cached (it is cheap and produces the per-build image), but the
    /// implicit link-time backend prepare is — under the same key a
    /// spelled-out `backend` pass would use, so `…|cxprop` and
    /// `…|cxprop|backend` share one entry.
    ///
    /// The input program is shared, never written in place: without a
    /// cache a pass copies it on its first write ([`Arc::make_mut`]),
    /// and a cached pass runs on a copy inside the cache entry. A
    /// [`crate::BuildSession`] hands every build of an app the same
    /// frontend `Arc`, so builds whose passes all hit the cache copy
    /// nothing, and [`Build::program`] is the last pass's entry.
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
        let mut cx = PassCx::default();
        let mut state: Arc<Program> = program.into();
        // The digest of `state`, when known: computed lazily on the
        // first cached lookup and chained from entry to entry.
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
            match cache {
                Some(cache) => {
                    let (d, _) = *digest.get_or_insert_with(|| ir_digest(&state));
                    let slot = cache.slot(&CacheKey::new(d, pass.spec()));
                    let mut computed = false;
                    let out = slot.get_or_init(|| {
                        computed = true;
                        // Run against a scratch context so the entry
                        // records the pass's *own* deposit, replayable
                        // into any build's accumulated metrics.
                        let mut scratch = PassCx::default();
                        let mut program = (*state).clone();
                        pass.run(&mut program, &mut scratch).map(|()| {
                            let (digest, bytes) = ir_digest(&program);
                            PassOutput {
                                program: Arc::new(program),
                                digest,
                                bytes,
                                effect: scratch.metrics,
                                prepared: scratch.prepared.map(Arc::new),
                                backend_options: scratch.backend_options,
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
                        let spec = Pass::Backend(options.clone()).spec();
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
        let image = backend::link(&prepared, platform)?;
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
            if let Pass::Stackbound { budget } = pass {
                let start = Instant::now();
                let report = crate::stackbound::analyze(&image, *budget);
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

// ---------------------------------------------------------------------
// Presets: one pipeline per bar of the paper's figures.
// ---------------------------------------------------------------------

/// The preset registry: `(name, spec)` in registry order (the unsafe
/// baseline and Figure 3's seven bars, then Figure 2's four stacks).
const PRESETS: [(&str, &str); 12] = [
    ("unsafe", "backend"),
    ("unsafe+cxprop", "inline|cxprop|prune"),
    ("safe-verbose-ram", "cure(verbose-ram)"),
    ("safe-verbose-rom", "cure(verbose-rom)"),
    ("safe-terse", "cure(terse)"),
    ("safe-flid", "cure(flid)"),
    ("safe-flid-cxprop", "cure(flid)|cxprop|prune"),
    ("safe-flid-inline-cxprop", "cure(flid)|inline|cxprop|prune"),
    ("gcc", "cure(flid,noopt)"),
    ("ccured+gcc", "cure(flid)"),
    ("ccured+cxprop+gcc", "cure(flid)|cxprop|prune"),
    ("ccured+inline+cxprop+gcc", "cure(flid)|inline|cxprop|prune"),
];

/// Every preset name, in registry order.
pub const PRESET_NAMES: [&str; 12] = {
    let mut names = [""; 12];
    let mut i = 0;
    while i < names.len() {
        names[i] = PRESETS[i].0;
        i += 1;
    }
    names
};

impl Pipeline {
    /// Looks up a preset pipeline by name (see [`PRESET_NAMES`]). The
    /// registry's specs are parsed once per process; a lookup clones.
    pub fn preset(name: &str) -> Option<Pipeline> {
        static PARSED: OnceLock<Vec<Pipeline>> = OnceLock::new();
        let presets = PARSED.get_or_init(|| {
            PRESETS
                .iter()
                .map(|(name, spec)| {
                    Pipeline::parse(spec)
                        .unwrap_or_else(|e| panic!("preset {name}: {e}"))
                        .with_name(*name)
                })
                .collect()
        });
        presets.iter().find(|p| p.name == name).cloned()
    }

    fn stock(name: &str) -> Pipeline {
        Self::preset(name).expect("a registry preset")
    }

    /// The paper's baseline: unsafe, unoptimized (plain nesC + gcc —
    /// just the backend).
    pub fn unsafe_baseline() -> Pipeline {
        Self::stock("unsafe")
    }

    /// Figure 3 bar 7: unsafe, inlined and optimized by cXprop (the
    /// "new baseline").
    pub fn unsafe_optimized() -> Pipeline {
        Self::stock("unsafe+cxprop")
    }

    /// Figure 3 bar 1: safe, verbose error messages in SRAM.
    pub fn safe_verbose_ram() -> Pipeline {
        Self::stock("safe-verbose-ram")
    }

    /// Figure 3 bar 2: safe, verbose error messages in ROM.
    pub fn safe_verbose_rom() -> Pipeline {
        Self::stock("safe-verbose-rom")
    }

    /// Figure 3 bar 3: safe, terse error messages.
    pub fn safe_terse() -> Pipeline {
        Self::stock("safe-terse")
    }

    /// Figure 3 bar 4: safe, FLID-compressed error messages.
    pub fn safe_flid() -> Pipeline {
        Self::stock("safe-flid")
    }

    /// Figure 3 bar 5: safe + FLIDs + cXprop (no inliner).
    pub fn safe_flid_cxprop() -> Pipeline {
        Self::stock("safe-flid-cxprop")
    }

    /// Figure 3 bar 6: safe + FLIDs + inliner + cXprop (the full stack).
    pub fn safe_flid_inline_cxprop() -> Pipeline {
        Self::stock("safe-flid-inline-cxprop")
    }

    /// Figure 2 config 1: gcc alone (checks inserted, nothing else —
    /// CCured's local optimizer off).
    pub fn fig2_gcc_only() -> Pipeline {
        Self::stock("gcc")
    }

    /// Figure 2 config 2: CCured optimizer + gcc.
    pub fn fig2_ccured_gcc() -> Pipeline {
        Self::stock("ccured+gcc")
    }

    /// Figure 2 config 3: CCured optimizer + cXprop (no inliner) + gcc.
    pub fn fig2_ccured_cxprop_gcc() -> Pipeline {
        Self::stock("ccured+cxprop+gcc")
    }

    /// Figure 2 config 4: CCured optimizer + inliner + cXprop + gcc.
    pub fn fig2_full() -> Pipeline {
        Self::stock("ccured+inline+cxprop+gcc")
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
