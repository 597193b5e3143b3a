//! The differential-execution oracle: does an optimizer stack preserve
//! what the reference pipeline means?
//!
//! Every figure in the evaluation assumes the pass stacks are
//! *semantics-preserving* refinements of the cure-only build. This
//! module is the instrument that earns that assumption instead of
//! stating it, in the tradition of differential tool validation: run
//! the same program through the full preset registry and through the
//! reference `cure`-only pipeline, observe everything observable, and
//! classify every divergence.
//!
//! Two subject populations feed the oracle:
//!
//! * **Generated programs** — a seeded, deterministic TCL program
//!   generator ([`generate_source`], SplitMix64-driven with the same
//!   seeding discipline as `mcu::faults`) produces closed computations:
//!   bounded loops, helper calls, array traffic with both provably-safe
//!   and deliberately out-of-range indices, optional (never-firing)
//!   interrupt handlers to exercise the concurrency-aware analysis, and
//!   an epilogue that streams every global over the UART so RAM state
//!   becomes trace-observable. Every generated program type-checks by
//!   construction (it goes through the ordinary frontend) and
//!   terminates structurally (literal-bound `for` loops over dedicated
//!   counters, acyclic helpers).
//! * **The benchmark apps** — the eleven Mica2 applications, compared
//!   on their stock workloads.
//!
//! For each subject × preset, the oracle compares a *golden* run
//! (observable trace, fault category, and a by-name RAM snapshot of
//! integer globals) and, when the golden reference run is clean, a set
//! of *fault-injected* replays: the same logical corruption — a high
//! bit flipped in a named index global, **at boot**, so both builds
//! face the identical invariant-violating initial state with no
//! cross-build timing skew — applied to both builds, each triaged
//! against its own golden run ([`ccured::triage`]), so
//! check-elimination decisions are audited against the fault model they
//! must answer to.
//!
//! Each divergence lands in one of three classes:
//!
//! * [`DiffVerdict::Miscompile`] — observable behavior diverged on an
//!   uncorrupted run (or the preset introduced a trap the reference
//!   does not have). Always a bug; CI gates on zero.
//! * [`DiffVerdict::CheckStrengthReduction`] — the reference detected a
//!   violation (safety trap / FLID) that the preset ran straight
//!   through: the optimizer deleted the check that would have caught
//!   it. Expected for uncured presets (they have no checks); a bug for
//!   cured ones — this is the class that pinned the interval-domain
//!   check-elimination unsoundness the hardened policy fixes.
//! * [`DiffVerdict::Benign`] — a divergence with no semantic loss:
//!   RAM-only differences on cells no trace depends on, or a preset
//!   detecting *more* than the reference.
//!
//! Identical observations are [`DiffVerdict::Match`]. Everything here
//! is a pure function of `(seed, presets, config)` — no wall clock, no
//! global RNG — so a parallel experiment grid emits byte-identical
//! reports in any schedule.
//!
//! # Example
//!
//! ```
//! use safe_tinyos::difftest::{self, DiffConfig, DiffVerdict};
//! use safe_tinyos::Pipeline;
//!
//! let presets = vec![Pipeline::safe_flid_inline_cxprop()];
//! let report = difftest::diff_seed(7, &presets, &DiffConfig::default()).unwrap();
//! assert!(report
//!     .cases
//!     .iter()
//!     .all(|c| c.verdict != DiffVerdict::Miscompile));
//! ```

use std::collections::BTreeMap;

use ccured::triage::Verdict;
use mcu::faults::{FaultKind, FaultPlan, SplitMix64};
use mcu::{Fault, Machine, RunState};
use tcil::types::{size_of, Type};
use tcil::{CompileError, Program};
use tosapps::AppSpec;

use crate::{campaign, prepare_machine, Build, Pipeline};

/// Configuration of one differential comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffConfig {
    /// Cycle budget for generated-program runs (apps use their workload
    /// horizon instead). A subject still running at the budget is
    /// observed as such — a preset that diverges in termination is a
    /// miscompile like any other.
    pub budget_cycles: u64,
    /// Fault-injected replays per subject × preset (0 disables the
    /// fault-outcome comparison).
    pub fault_sites: usize,
    /// Seed for the injected-replay site stream (mixed with the
    /// subject's identity, so every subject sees distinct sites but the
    /// same subject always sees the same ones).
    pub seed: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            budget_cycles: 2_000_000,
            fault_sites: 4,
            seed: 0xD1FF,
        }
    }
}

/// The reference pipeline every preset is compared against: `cure`
/// alone (FLID error mode), the unoptimized-but-safe semantics of the
/// paper's §2.
pub fn reference_pipeline() -> Pipeline {
    Pipeline::safe_flid().with_name("reference")
}

/// Coarse fault category for cross-build comparison. Two builds of one
/// program lay memory out differently, so fault *payloads* (FLID
/// numbers, fault addresses) legitimately differ; the category and the
/// output trace up to the fault do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTag {
    /// A Safe TinyOS check trapped.
    Safety,
    /// A raw hardware fault (unmapped access, stack overflow, …).
    Hardware,
}

/// Everything the oracle observes about one finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffObservation {
    /// Final run state.
    pub state: RunState,
    /// Coarse fault category, if the run stopped on one.
    pub fault: Option<FaultTag>,
    /// Human-readable fault rendering (FLID-decoded when possible) —
    /// report detail only, never compared across builds.
    pub fault_detail: String,
    /// UART byte stream.
    pub uart: Vec<u8>,
    /// Radio byte stream, timestamps stripped: optimization legally
    /// changes *when* a byte goes out, never *what* or in what order.
    pub radio: Vec<u8>,
    /// LED register transitions.
    pub led_transitions: u64,
    /// Final values of integer globals, by name — the by-name snapshot
    /// makes RAM comparable across builds with different layouts.
    /// Compared over the intersection of names (dead-data elimination
    /// legitimately drops cells).
    pub ram: BTreeMap<String, Vec<u8>>,
}

impl DiffObservation {
    /// Captures `m` after a run of `build`.
    pub fn capture(build: &Build, m: &Machine) -> DiffObservation {
        let (fault, fault_detail) = match &m.fault {
            Some(Fault::SafetyTrap(flid)) => (
                Some(FaultTag::Safety),
                match build.image.flid_table.get(flid) {
                    Some(msg) => format!("flid {flid}: {msg}"),
                    None => format!("flid {flid}: <no table entry>"),
                },
            ),
            Some(other) => (Some(FaultTag::Hardware), format!("{other:?}")),
            None => (None, String::new()),
        };
        DiffObservation {
            state: m.state,
            fault,
            fault_detail,
            uart: m.uart_out.clone(),
            radio: m.radio_out.iter().map(|&(_, b)| b).collect(),
            led_transitions: m.devices.leds.transitions,
            ram: ram_snapshot(build, m),
        }
    }

    /// Whether the cross-build-comparable trace (state, fault category,
    /// UART, radio, LEDs) matches `other`'s.
    fn trace_matches(&self, other: &DiffObservation) -> bool {
        self.state == other.state
            && self.fault == other.fault
            && self.uart == other.uart
            && self.radio == other.radio
            && self.led_transitions == other.led_transitions
    }
}

/// Reads the final bytes of every integer-typed, non-runtime global.
/// Pointer-typed and struct globals hold layout-dependent values
/// (addresses) and are excluded by construction.
fn ram_snapshot(build: &Build, m: &Machine) -> BTreeMap<String, Vec<u8>> {
    let mut snap = BTreeMap::new();
    for g in &build.program.globals {
        if g.name.starts_with("__") {
            continue;
        }
        let comparable = matches!(&g.ty, Type::Int(_))
            || matches!(&g.ty, Type::Array(elem, _) if matches!(**elem, Type::Int(_)));
        if !comparable {
            continue;
        }
        let Some(addr) = build.image.find_global_addr(&g.name) else {
            continue;
        };
        let size = size_of(&g.ty, &build.program.structs) as u16;
        let bytes = (0..size)
            .map(|i| m.ram_peek(addr.wrapping_add(i)))
            .collect();
        snap.insert(g.name.clone(), bytes);
    }
    snap
}

/// How one comparison point turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Observably identical (fault-outcome points: same triage class).
    Match,
    /// Divergent, but without semantic loss — RAM-only differences on
    /// untraced cells, or strictly stronger fault detection.
    Benign,
    /// The reference detected a violation the preset ran through: the
    /// stack deleted the check that would have caught it.
    CheckStrengthReduction,
    /// Observable behavior diverged on an uncorrupted run. A bug.
    Miscompile,
}

impl DiffVerdict {
    /// Stable report key.
    pub fn key(self) -> &'static str {
        match self {
            DiffVerdict::Match => "match",
            DiffVerdict::Benign => "benign",
            DiffVerdict::CheckStrengthReduction => "check_strength_reduction",
            DiffVerdict::Miscompile => "miscompile",
        }
    }
}

/// Which comparison produced a [`DiffCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffPhase {
    /// Golden (uninjected) run comparison.
    Golden,
    /// Fault-injected replay comparison.
    Injected,
}

/// One comparison point: subject × preset × phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffCase {
    /// Subject label (`seed:N` or an app name).
    pub subject: String,
    /// Preset pipeline name.
    pub preset: String,
    /// Golden or injected comparison.
    pub phase: DiffPhase,
    /// Site label for injected comparisons (`bitflip@<global>^<mask>`),
    /// empty for golden ones.
    pub site: String,
    /// The classification.
    pub verdict: DiffVerdict,
    /// Human-readable explanation of any divergence.
    pub detail: String,
}

/// Verdict tally over any set of cases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffCounts {
    /// Identical observations.
    pub matched: usize,
    /// Harmless divergences.
    pub benign: usize,
    /// Lost fault coverage.
    pub check_strength_reduction: usize,
    /// Real miscompilations.
    pub miscompile: usize,
}

impl DiffCounts {
    /// Adds one verdict.
    pub fn record(&mut self, v: DiffVerdict) {
        match v {
            DiffVerdict::Match => self.matched += 1,
            DiffVerdict::Benign => self.benign += 1,
            DiffVerdict::CheckStrengthReduction => self.check_strength_reduction += 1,
            DiffVerdict::Miscompile => self.miscompile += 1,
        }
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, o: &DiffCounts) {
        self.matched += o.matched;
        self.benign += o.benign;
        self.check_strength_reduction += o.check_strength_reduction;
        self.miscompile += o.miscompile;
    }

    /// Total comparison points tallied.
    pub fn total(&self) -> usize {
        self.matched + self.benign + self.check_strength_reduction + self.miscompile
    }
}

/// All comparison points for one subject across a preset list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectReport {
    /// Subject label.
    pub subject: String,
    /// Every comparison point, in preset order then phase order.
    pub cases: Vec<DiffCase>,
}

impl SubjectReport {
    /// The subject's verdict tally.
    pub fn counts(&self) -> DiffCounts {
        let mut c = DiffCounts::default();
        for case in &self.cases {
            c.record(case.verdict);
        }
        c
    }
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// How a subject is executed.
enum Workload<'a> {
    /// Bare machine run to a cycle budget (generated programs).
    Raw {
        /// Cycle budget.
        budget: u64,
    },
    /// App workload context (waveform, radio traffic) for a horizon.
    App {
        /// The app under test.
        spec: &'a AppSpec,
        /// Simulated seconds.
        seconds: u64,
        /// The app's radio payload *encodes time* (e.g. it echoes a
        /// captured tick counter): builds of different speeds legally
        /// transmit different bytes, so only the transmission count is
        /// comparable across builds.
        timing_encoded_radio: bool,
    },
}

impl Workload<'_> {
    /// A reset machine set up for `build` and the run horizon in cycles.
    fn machine(&self, build: &Build) -> (Machine, u64) {
        match self {
            Workload::Raw { budget } => (Machine::new(&build.image), *budget),
            Workload::App { spec, seconds, .. } => prepare_machine(build, spec, *seconds),
        }
    }

    /// Reduces an observation to what this workload makes comparable
    /// across builds.
    fn comparable(&self, mut obs: DiffObservation) -> DiffObservation {
        if let Workload::App {
            timing_encoded_radio: true,
            ..
        } = self
        {
            // Keep the count, drop the time-encoding payload bytes.
            obs.radio = (obs.radio.len() as u64).to_le_bytes().to_vec();
        }
        obs
    }
}

/// `a` is a prefix of `b`.
fn is_prefix<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() <= b.len() && b[..a.len()] == *a
}

/// Classifies the golden (uninjected) comparison.
fn classify_golden(reference: &DiffObservation, preset: &DiffObservation) -> (DiffVerdict, String) {
    if reference.trace_matches(preset) {
        // Traces agree; audit the by-name RAM intersection.
        for (name, bytes) in &reference.ram {
            if let Some(other) = preset.ram.get(name) {
                if other != bytes {
                    return (
                        DiffVerdict::Benign,
                        format!("RAM-only divergence at `{name}`: {bytes:?} vs {other:?}"),
                    );
                }
            }
        }
        return (DiffVerdict::Match, String::new());
    }
    // The reference trapped a safety violation and the preset sailed
    // past it (its trace extends the reference's): the guilty check was
    // optimized away. For uncured presets that is the expected cost of
    // having no checks; for cured ones the harness gates it separately.
    if reference.fault == Some(FaultTag::Safety)
        && preset.fault != Some(FaultTag::Safety)
        && is_prefix(&reference.uart, &preset.uart)
        && is_prefix(&reference.radio, &preset.radio)
        && preset.led_transitions >= reference.led_transitions
    {
        return (
            DiffVerdict::CheckStrengthReduction,
            format!(
                "reference trapped ({}) but preset ran on (state {:?})",
                reference.fault_detail, preset.state
            ),
        );
    }
    (
        DiffVerdict::Miscompile,
        format!(
            "trace diverged: ref(state {:?}, fault {:?} {}, uart {}B, radio {}B, leds {}) vs \
             preset(state {:?}, fault {:?} {}, uart {}B, radio {}B, leds {})",
            reference.state,
            reference.fault,
            reference.fault_detail,
            reference.uart.len(),
            reference.radio.len(),
            reference.led_transitions,
            preset.state,
            preset.fault,
            preset.fault_detail,
            preset.uart.len(),
            preset.radio.len(),
            preset.led_transitions,
        ),
    )
}

/// Classifies one fault-injected comparison from the two builds' triage
/// verdicts (each against its own golden run).
fn classify_injected(reference: &Verdict, preset: &Verdict) -> (DiffVerdict, String) {
    let (r, p) = (reference.key(), preset.key());
    if r == p {
        return (DiffVerdict::Match, String::new());
    }
    if r == "detected" {
        let detail = match reference {
            Verdict::Detected { flid, message } => {
                format!("reference detected (flid {flid}: {message}); preset outcome: {p}")
            }
            _ => unreachable!("key said detected"),
        };
        return (DiffVerdict::CheckStrengthReduction, detail);
    }
    if p == "detected" {
        return (
            DiffVerdict::Benign,
            format!("preset detects where reference is {r} — strictly stronger"),
        );
    }
    (
        DiffVerdict::Benign,
        format!("divergent corruption response ({r} vs {p}), detection-neutral"),
    )
}

/// FNV-1a, for mixing subject labels into the site-stream seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// High-bit masks for targeted index-cell flips (the same mix the
/// campaign enumerator uses: far out of range, plausible upset).
const HIGH_MASKS: [u8; 4] = [0x80, 0xC0, 0xA0, 0xE0];

/// Compares one preset build against the reference build over a
/// workload: the golden comparison plus (when the reference's golden
/// run is clean) `cfg.fault_sites` injected-replay comparisons.
///
/// Each build runs through [`campaign::fork_replay`] once: one golden
/// run of one reset machine, and one injected fork per site.
fn diff_builds(
    subject: &str,
    reference: &Build,
    preset_build: &Build,
    preset_name: &str,
    workload: &Workload<'_>,
    cfg: &DiffConfig,
) -> Vec<DiffCase> {
    // Injections land at *boot* — the corrupted cell holds its upset
    // value before either build executes an instruction. Mid-run
    // injection cannot be compared fairly across builds: the same cycle
    // point (or even the same fraction of each build's run) falls into
    // different statement windows — e.g. between one build's load and
    // store of the very cell, where the in-flight store erases the
    // corruption — so detection asymmetry would measure instruction
    // scheduling, not check strength. A corrupted *initial state* is
    // the skew-free version of the question check elimination must
    // answer: both builds face the identical logical state, one that
    // violates the invariants the analysis proved, and detection
    // parity becomes a pure function of which checks survived.
    // (Mid-run upsets are the fault_injection campaign's axis, which
    // triages each build against its own golden run and never compares
    // timing across builds.)
    let targets = match cfg.fault_sites {
        0 => Vec::new(),
        _ => campaign::target_names(reference),
    };
    let bitflip = |addr, mask| FaultPlan {
        at_cycle: 0,
        kind: FaultKind::BitFlip { addr, mask },
    };
    let (mut sites, mut ref_plans, mut preset_plans) = (Vec::new(), Vec::new(), Vec::new());
    if !targets.is_empty() {
        let mut rng = SplitMix64::new(cfg.seed ^ fnv1a(subject));
        for _ in 0..cfg.fault_sites {
            let name = &targets[rng.below(targets.len() as u64) as usize];
            let mask = HIGH_MASKS[rng.below(HIGH_MASKS.len() as u64) as usize];
            // The same logical fault lands in both builds by name; a
            // build whose optimizer removed the cell outright cannot
            // receive it (the site's draws are consumed all the same).
            if let (Some(ref_addr), Some(preset_addr)) = (
                reference.image.find_global_addr(name),
                preset_build.image.find_global_addr(name),
            ) {
                sites.push(format!("bitflip@{name}^{mask:02x}@boot"));
                ref_plans.push(bitflip(ref_addr, mask));
                preset_plans.push(bitflip(preset_addr, mask));
            }
        }
    }

    let campaign::Replay {
        golden: ref_machine,
        verdicts: ref_verdicts,
        ..
    } = campaign::fork_replay(workload.machine(reference), &ref_plans);
    let ref_obs = workload.comparable(DiffObservation::capture(reference, &ref_machine));
    // Fault-outcome comparison only makes sense against a clean golden
    // reference: a subject that already traps exercises the check paths
    // in the golden comparison itself.
    if ref_obs.fault.is_some() {
        sites.clear();
        preset_plans.clear();
    }
    let campaign::Replay {
        golden: preset_machine,
        verdicts: preset_verdicts,
        ..
    } = campaign::fork_replay(workload.machine(preset_build), &preset_plans);
    let preset_obs = workload.comparable(DiffObservation::capture(preset_build, &preset_machine));

    let case = |phase, site, (verdict, detail)| DiffCase {
        subject: subject.to_string(),
        preset: preset_name.to_string(),
        phase,
        site,
        verdict,
        detail,
    };
    let mut cases = vec![case(
        DiffPhase::Golden,
        String::new(),
        classify_golden(&ref_obs, &preset_obs),
    )];
    for (site, (r, p)) in sites
        .into_iter()
        .zip(ref_verdicts.iter().zip(&preset_verdicts))
    {
        cases.push(case(DiffPhase::Injected, site, classify_injected(r, p)));
    }
    cases
}

/// Differential comparison of one already-lowered program across
/// `presets`, against the cure-only reference.
///
/// # Errors
///
/// Propagates compile errors from any pipeline.
pub fn diff_program(
    subject: &str,
    program: &Program,
    presets: &[Pipeline],
    cfg: &DiffConfig,
) -> Result<SubjectReport, CompileError> {
    let platform = mcu::Profile::mica2();
    let reference = reference_pipeline().build(program.clone(), platform.clone())?;
    let workload = Workload::Raw {
        budget: cfg.budget_cycles,
    };
    let mut cases = Vec::new();
    for preset in presets {
        let build = preset.build(program.clone(), platform.clone())?;
        cases.extend(diff_builds(
            subject,
            &reference,
            &build,
            preset.name(),
            &workload,
            cfg,
        ));
    }
    Ok(SubjectReport {
        subject: subject.to_string(),
        cases,
    })
}

/// [`diff_program`] over the generated program for `seed` (subject
/// label `seed:N`).
///
/// # Errors
///
/// Propagates compile errors — a generator-validity bug if the frontend
/// rejects its output, a pipeline bug otherwise.
pub fn diff_seed(
    seed: u64,
    presets: &[Pipeline],
    cfg: &DiffConfig,
) -> Result<SubjectReport, CompileError> {
    let program = generate_program(seed)?;
    diff_program(&format!("seed:{seed}"), &program, presets, cfg)
}

/// Apps whose radio payload encodes captured time by specification —
/// `TestTimeStamping` answers each request with the hardware tick
/// counter at reception, so builds of different speeds legally transmit
/// different bytes. For these, the oracle compares transmission counts
/// instead of payload contents (everything else — UART, LEDs, state,
/// fault category, RAM — stays byte-compared).
pub const TIMING_ENCODED_RADIO_APPS: [&str; 1] = ["TestTimeStamping_Mica2"];

/// Differential comparison of one benchmark app under one preset,
/// through `session`'s frontend cache.
///
/// # Errors
///
/// Propagates compile errors from either pipeline.
pub fn diff_app(
    session: &crate::BuildSession,
    spec: &AppSpec,
    preset: &Pipeline,
    seconds: u64,
    cfg: &DiffConfig,
) -> Result<Vec<DiffCase>, CompileError> {
    let reference = session.build(spec, &reference_pipeline())?;
    let build = session.build(spec, preset)?;
    let workload = Workload::App {
        spec,
        seconds,
        timing_encoded_radio: TIMING_ENCODED_RADIO_APPS.contains(&spec.name),
    };
    Ok(diff_builds(
        spec.name,
        &reference,
        &build,
        preset.name(),
        &workload,
        cfg,
    ))
}

// ---------------------------------------------------------------------
// The seeded program generator.
// ---------------------------------------------------------------------

/// An integer kind the generator deals in.
#[derive(Clone, Copy)]
struct GKind {
    name: &'static str,
    max_literal: u64,
}

const KINDS: [GKind; 4] = [
    GKind {
        name: "uint8_t",
        max_literal: 255,
    },
    GKind {
        name: "uint8_t",
        max_literal: 255,
    },
    GKind {
        name: "uint16_t",
        max_literal: 1023,
    },
    GKind {
        name: "int16_t",
        max_literal: 511,
    },
];

struct ScalarVar {
    name: String,
    kind: GKind,
}

struct ArrayVar {
    name: String,
    len: usize,
}

/// The seeded source generator. Expressions are fully parenthesized and
/// cast at every composite node, so the frontend's coercion rules can
/// never reject a composition; divisors and shift counts are literal
/// constants, so no generated program divides by zero or shifts wide.
struct Gen {
    rng: SplitMix64,
    scalars: Vec<ScalarVar>,
    arrays: Vec<ArrayVar>,
    locals: Vec<ScalarVar>,
    loop_vars: usize,
    has_isr: bool,
    helpers: usize,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n.max(1) as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn literal(&mut self, kind: &GKind) -> String {
        format!("{}", self.rng.below(kind.max_literal + 1))
    }

    /// A leaf operand rendered as a cast to `kind`.
    fn leaf(&mut self, kind: &GKind, in_helper: bool) -> String {
        // Helpers see only their own params (handled by the caller via
        // `locals`); main sees globals, locals, and loop counters.
        let mut pool: Vec<String> = Vec::new();
        if !in_helper {
            pool.extend(self.scalars.iter().map(|s| s.name.clone()));
        }
        pool.extend(self.locals.iter().map(|l| l.name.clone()));
        for i in 0..self.loop_vars {
            pool.push(format!("i{i}"));
        }
        if pool.is_empty() || self.chance(30) {
            return self.literal(kind);
        }
        let pick = pool[self.below(pool.len())].clone();
        format!("({})({pick})", kind.name)
    }

    /// A depth-bounded expression of `kind`.
    fn expr(&mut self, kind: &GKind, depth: usize, in_helper: bool) -> String {
        if depth == 0 || self.chance(35) {
            return self.leaf(kind, in_helper);
        }
        let a = self.expr(kind, depth - 1, in_helper);
        let b = self.expr(kind, depth - 1, in_helper);
        let cast = kind.name;
        match self.below(10) {
            0 => format!("({cast})({a} + {b})"),
            1 => format!("({cast})({a} - {b})"),
            2 => format!("({cast})({a} * {b})"),
            3 => format!("({cast})({a} & {b})"),
            4 => format!("({cast})({a} | {b})"),
            5 => format!("({cast})({a} ^ {b})"),
            6 => {
                let d = 2 + self.below(8); // literal, never zero
                format!("({cast})({a} % {d})")
            }
            7 => {
                let d = 2 + self.below(8);
                format!("({cast})({a} / {d})")
            }
            8 => {
                let s = self.below(4);
                format!("({cast})({a} << {s})")
            }
            _ => {
                let s = self.below(4);
                format!("({cast})({a} >> {s})")
            }
        }
    }

    /// An index expression for an array of `len` elements. Mostly
    /// provably safe (literal, masked, mod-reduced, or a loop counter
    /// with a fitting bound); sometimes deliberately unconstrained, so
    /// generated subjects exercise *firing* checks too.
    fn index(&mut self, len: usize, bound_loop: Option<usize>) -> String {
        let u8k = &KINDS[0];
        match self.below(10) {
            0..=2 => format!("{}", self.below(len)),
            3..=4 => {
                let e = self.expr(u8k, 1, false);
                format!("(uint8_t)({e} % {len})")
            }
            5..=6 if len.is_power_of_two() => {
                let e = self.expr(u8k, 1, false);
                format!("(uint8_t)({e} & {})", len - 1)
            }
            7 if bound_loop.is_some() => format!("i{}", bound_loop.expect("checked")),
            _ => {
                // Unconstrained: whatever a global holds right now.
                self.expr(u8k, 1, false)
            }
        }
    }

    fn stmt(&mut self, out: &mut String, indent: usize, depth: usize, loop_ctx: Option<usize>) {
        let pad = "    ".repeat(indent);
        match self.below(12) {
            0..=2 => {
                // Scalar global assignment.
                let gi = self.below(self.scalars.len());
                let (name, kind) = {
                    let s = &self.scalars[gi];
                    (s.name.clone(), s.kind)
                };
                let e = self.expr(&kind, 2, false);
                out.push_str(&format!("{pad}{name} = ({})({e});\n", kind.name));
            }
            3..=4 => {
                // Local assignment.
                let li = self.below(self.locals.len());
                let (name, kind) = {
                    let l = &self.locals[li];
                    (l.name.clone(), l.kind)
                };
                let e = self.expr(&kind, 2, false);
                out.push_str(&format!("{pad}{name} = ({})({e});\n", kind.name));
            }
            5..=6 => {
                // Array write.
                let ai = self.below(self.arrays.len());
                let (name, len) = {
                    let a = &self.arrays[ai];
                    (a.name.clone(), a.len)
                };
                let idx = self.index(len, loop_ctx);
                let e = self.expr(&KINDS[0], 2, false);
                out.push_str(&format!("{pad}{name}[{idx}] = (uint8_t)({e});\n"));
            }
            7 => {
                // Array read folded into a scalar.
                let ai = self.below(self.arrays.len());
                let (aname, len) = {
                    let a = &self.arrays[ai];
                    (a.name.clone(), a.len)
                };
                let gi = self.below(self.scalars.len());
                let (gname, gkind) = {
                    let s = &self.scalars[gi];
                    (s.name.clone(), s.kind)
                };
                let idx = self.index(len, loop_ctx);
                out.push_str(&format!(
                    "{pad}{gname} = ({})({gname} + {aname}[{idx}]);\n",
                    gkind.name
                ));
            }
            8 if self.helpers > 0 => {
                // Helper call.
                let h = self.below(self.helpers);
                let gi = self.below(self.scalars.len());
                let (gname, gkind) = {
                    let s = &self.scalars[gi];
                    (s.name.clone(), s.kind)
                };
                if h.is_multiple_of(2) {
                    let ai = self.below(self.arrays.len());
                    let aname = self.arrays[ai].name.clone();
                    let idx = self.expr(&KINDS[0], 1, false);
                    out.push_str(&format!(
                        "{pad}{gname} = ({})(h{h}({aname}, (uint8_t)({idx})));\n",
                        gkind.name
                    ));
                } else {
                    let a = self.expr(&KINDS[2], 1, false);
                    let b = self.expr(&KINDS[2], 1, false);
                    out.push_str(&format!(
                        "{pad}{gname} = ({})(h{h}((uint16_t)({a}), (uint16_t)({b})));\n",
                        gkind.name
                    ));
                }
            }
            9 if depth > 0 => {
                // Conditional.
                let kind = KINDS[self.below(KINDS.len())];
                let a = self.expr(&kind, 1, false);
                let b = self.expr(&kind, 1, false);
                let op = ["<", "<=", "==", "!="][self.below(4)];
                out.push_str(&format!("{pad}if ({a} {op} {b}) {{\n"));
                for _ in 0..1 + self.below(2) {
                    self.stmt(out, indent + 1, depth - 1, loop_ctx);
                }
                if self.chance(50) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for _ in 0..1 + self.below(2) {
                        self.stmt(out, indent + 1, depth - 1, loop_ctx);
                    }
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            10 if depth > 0 => {
                // Bounded loop over a dedicated counter (never otherwise
                // assigned — structural termination).
                let lv = self.loop_vars;
                self.loop_vars += 1;
                let bound = 2 + self.below(10);
                out.push_str(&format!(
                    "{pad}for (i{lv} = 0; i{lv} < {bound}; i{lv}++) {{\n"
                ));
                for _ in 0..1 + self.below(3) {
                    self.stmt(out, indent + 1, depth - 1, Some(lv));
                }
                out.push_str(&format!("{pad}}}\n"));
                self.loop_vars -= 1;
            }
            11 if self.has_isr => {
                // Atomic section touching the ISR-shared global.
                let e = self.expr(&KINDS[0], 1, false);
                out.push_str(&format!(
                    "{pad}atomic {{ shared = (uint8_t)(shared + {e}); }}\n"
                ));
            }
            _ => {
                // Fallback: scalar bump.
                let gi = self.below(self.scalars.len());
                let (name, kind) = {
                    let s = &self.scalars[gi];
                    (s.name.clone(), s.kind)
                };
                out.push_str(&format!("{pad}{name} = ({})({name} + 1);\n", kind.name));
            }
        }
    }
}

/// Generates the TCL source for `seed`. Same seed, same source, forever
/// — the regression corpus depends on it.
pub fn generate_source(seed: u64) -> String {
    let mut g = Gen {
        rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1FF_7E57),
        scalars: Vec::new(),
        arrays: Vec::new(),
        locals: Vec::new(),
        loop_vars: 0,
        has_isr: false,
        helpers: 0,
    };
    let mut src = String::new();
    src.push_str(&format!("/* difftest subject, seed {seed} */\n"));

    // Globals.
    let n_scalars = 3 + g.below(3);
    for i in 0..n_scalars {
        let kind = KINDS[g.below(KINDS.len())];
        let name = format!("g{i}");
        src.push_str(&format!("{} {name};\n", kind.name));
        g.scalars.push(ScalarVar { name, kind });
    }
    let n_arrays = 1 + g.below(2);
    for i in 0..n_arrays {
        let len = [4usize, 6, 8, 12, 16, 24, 32][g.below(7)];
        let name = format!("a{i}");
        src.push_str(&format!("uint8_t {name}[{len}];\n"));
        g.arrays.push(ArrayVar { name, len });
    }

    // Optional never-firing interrupt handler: no timer is enabled, so
    // runtime behavior stays deterministic, but the analysis must treat
    // everything it touches as asynchronously accessed. Besides its own
    // `shared` global, the handler read-modify-writes one named task
    // global and plain-writes another (possibly 16-bit) — so generated
    // programs exercise every per-site race code (`R001`–`R003`), not
    // just the dedicated `shared` byte.
    g.has_isr = g.chance(50);
    if g.has_isr {
        src.push_str("uint8_t shared;\n");
        let rmw = g.below(n_scalars);
        let wr = g.below(n_scalars);
        let (rmw_name, rmw_kind) = (g.scalars[rmw].name.clone(), g.scalars[rmw].kind);
        let (wr_name, wr_kind) = (g.scalars[wr].name.clone(), g.scalars[wr].kind);
        let wr_val = g.literal(&wr_kind);
        src.push_str(&format!(
            "interrupt(TIMER0) void isr() {{ shared = (uint8_t)(shared + 1); \
             {rmw_name} = ({})({rmw_name} + 1); {wr_name} = ({})({wr_val}); }}\n",
            rmw_kind.name, wr_kind.name
        ));
        g.scalars.push(ScalarVar {
            name: "shared".to_string(),
            kind: KINDS[0],
        });
    }

    // Helpers (acyclic: bodies reference no other helpers).
    g.helpers = 1 + g.below(3);
    for h in 0..g.helpers {
        if h.is_multiple_of(2) {
            // Pointer helper: exercises fat-pointer checks and the
            // inliner's context-sensitivity story.
            g.locals = vec![ScalarVar {
                name: "i".to_string(),
                kind: KINDS[0],
            }];
            let idx = match g.below(3) {
                0 => "i".to_string(),
                1 => {
                    let m = [3usize, 7, 15][g.below(3)];
                    format!("(uint8_t)(i & {m})")
                }
                _ => {
                    let m = 2 + g.below(6);
                    format!("(uint8_t)(i % {m})")
                }
            };
            src.push_str(&format!(
                "uint8_t h{h}(uint8_t * p, uint8_t i) {{ return p[{idx}]; }}\n"
            ));
        } else {
            g.locals = vec![
                ScalarVar {
                    name: "a".to_string(),
                    kind: KINDS[2],
                },
                ScalarVar {
                    name: "b".to_string(),
                    kind: KINDS[2],
                },
            ];
            let e = g.expr(&KINDS[2], 2, true);
            src.push_str(&format!(
                "uint16_t h{h}(uint16_t a, uint16_t b) {{ return (uint16_t)({e}); }}\n"
            ));
        }
    }
    g.locals.clear();

    // main: locals, body, observability epilogue.
    src.push_str("void main() {\n");
    let n_locals = 2 + g.below(3);
    for i in 0..n_locals {
        let kind = KINDS[g.below(KINDS.len())];
        let name = format!("t{i}");
        src.push_str(&format!("    {} {name};\n", kind.name));
        g.locals.push(ScalarVar { name, kind });
    }
    for i in 0..8 {
        src.push_str(&format!("    uint8_t i{i};\n"));
    }
    for l in 0..n_locals {
        src.push_str(&format!("    t{l} = 0;\n"));
    }
    let n_stmts = 6 + g.below(10);
    for _ in 0..n_stmts {
        g.stmt(&mut src, 1, 2, None);
    }
    // Epilogue: stream every integer global over the UART so the final
    // RAM state is part of the observable trace (and no store to it is
    // dead). The modeled UART drops writes while a byte is shifting
    // (~416 cycles), so every write is preceded by a delay loop long
    // enough in even the fastest build — otherwise *which* bytes
    // survive would depend on optimization level and the comparison
    // would drown in timing artifacts. The loop body does real work
    // (`i7` feeds the final write) so no pass can fold it away. 0xA5
    // delimits body output from the dump.
    src.push_str("    i7 = 0;\n");
    let uart_write = |src: &mut String, value: &str| {
        src.push_str("    for (i6 = 0; i6 < 200; i6++) { i7 = (uint8_t)(i7 + 1); }\n");
        src.push_str(&format!("    __hw_write8(0xF040, (uint8_t)({value}));\n"));
    };
    uart_write(&mut src, "165");
    let scalar_names: Vec<String> = g.scalars.iter().map(|s| s.name.clone()).collect();
    for name in scalar_names {
        uart_write(&mut src, &name);
    }
    let arrays: Vec<(String, usize)> = g.arrays.iter().map(|a| (a.name.clone(), a.len)).collect();
    for (name, len) in arrays {
        src.push_str(&format!("    for (i0 = 0; i0 < {len}; i0++) {{\n"));
        src.push_str("        for (i6 = 0; i6 < 200; i6++) { i7 = (uint8_t)(i7 + 1); }\n");
        src.push_str(&format!("        __hw_write8(0xF040, {name}[i0]);\n"));
        src.push_str("    }\n");
    }
    uart_write(&mut src, "i7");
    src.push_str("}\n");
    src
}

/// Parses and lowers the generated source for `seed` — the frontend is
/// the generator's type-checking witness.
///
/// # Errors
///
/// A [`CompileError`] here is a generator-validity bug by definition.
pub fn generate_program(seed: u64) -> Result<Program, CompileError> {
    tcil::parse_and_lower(&generate_source(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    #[test]
    fn generator_is_deterministic_and_valid() {
        for seed in 0..20 {
            assert_eq!(generate_source(seed), generate_source(seed));
            generate_program(seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", generate_source(seed)));
        }
    }

    #[test]
    fn generated_programs_terminate_under_budget() {
        let cfg = DiffConfig::default();
        for seed in 0..10 {
            let program = generate_program(seed).unwrap();
            let build = reference_pipeline()
                .build(program, mcu::Profile::mica2())
                .unwrap();
            let mut m = Machine::new(&build.image);
            m.run(cfg.budget_cycles);
            assert_ne!(
                m.state,
                RunState::Running,
                "seed {seed} still running at the budget"
            );
        }
    }

    #[test]
    fn reference_is_identical_to_itself() {
        let report = diff_program(
            "self",
            &generate_program(3).unwrap(),
            &[reference_pipeline().with_name("self")],
            &DiffConfig::default(),
        )
        .unwrap();
        for case in &report.cases {
            assert_eq!(case.verdict, DiffVerdict::Match, "{case:?}");
        }
    }

    #[test]
    fn uncured_presets_lose_detection_not_semantics() {
        // On a clean-running seed, the unsafe baseline must match the
        // reference trace; under injected faults it can only lose
        // detection (CheckStrengthReduction), never miscompile.
        let presets = [Pipeline::unsafe_baseline()];
        let cfg = DiffConfig::default();
        let mut saw_injected = false;
        for seed in 0..12 {
            let report = diff_seed(seed, &presets, &cfg).unwrap();
            for case in &report.cases {
                assert_ne!(case.verdict, DiffVerdict::Miscompile, "{case:?}");
                if case.phase == DiffPhase::Injected {
                    saw_injected = true;
                }
            }
        }
        assert!(saw_injected, "no clean seed produced injected comparisons");
    }

    #[test]
    fn cured_interval_stack_keeps_detection_parity() {
        // The hardened elimination policy: on injected replays the
        // interval-domain cured stack must never lose a detection the
        // reference makes.
        let presets = [Pipeline::safe_flid_cxprop()];
        let cfg = DiffConfig::default();
        for seed in 0..12 {
            let report = diff_seed(seed, &presets, &cfg).unwrap();
            for case in &report.cases {
                assert_ne!(case.verdict, DiffVerdict::Miscompile, "{case:?}");
                if case.phase == DiffPhase::Injected {
                    assert_ne!(
                        case.verdict,
                        DiffVerdict::CheckStrengthReduction,
                        "hardened stack lost coverage: {case:?}"
                    );
                }
            }
        }
    }
}
