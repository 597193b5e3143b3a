//! The pipeline-spec language: a textual notation for optimizer-stack
//! compositions, parsed into a [`Pipeline`] and round-tripped by its
//! `Display`.
//!
//! # Grammar
//!
//! ```text
//! pipeline := pass ( "|" pass )*
//! pass     := name [ "(" opt ( "," opt )* ")" ]
//! opt      := flag | key "=" value
//! ```
//!
//! Whitespace (spaces, tabs, newlines) around tokens — pass names,
//! options, `|`, and `;` in pipeline lists — is ignored; the canonical
//! `Display` rendering uses none. Within one pass, each option key may
//! appear at most once: `cxprop(rounds=2,rounds=3)` and contradictory
//! flag pairs like `cure(opt,noopt)` are rejected rather than silently
//! last-wins (a flag and its negation share a key, as do the four cure
//! error modes). The passes and their options:
//!
//! | Pass | Options |
//! |------|---------|
//! | `cure` | mode `flid` / `terse` / `verbose-ram` / `verbose-rom`; flags `opt`/`noopt` (local check optimizer), `lock`/`nolock` (racy-check locking), `naive` (§2.3 naive runtime) |
//! | `inline` | `max-size=N`, `single-site=N`, `rounds=N` |
//! | `cxprop` | flag `inline` (run the inliner inside the fixpoint, after race refinement — the paper's composite); `domain=constants`/`intervals`; `rounds=N`; flags `dce`/`nodce`, `copyprop`/`nocopyprop`, `atomic`/`noatomic`, `harden`/`noharden` (fault-hardened check elimination; `noharden` restores the classical policy) |
//! | `prune` | (none) |
//! | `races` | flag `fix` (auto-harden flagged access sites in minimal atomic sections and re-analyze to a zero-diagnostic fixpoint; without it the pass only reports `R001`–`R003` diagnostics) |
//! | `stackbound` | `budget=N` (override the SRAM stack budget in bytes; must be positive — the default budget is the space between the image's static data and the top of SRAM). Certifies a worst-case stack bound on the linked image and reports `S001`–`S003` diagnostics |
//! | `backend` | `opt`/`noopt` (weak GCC-class optimizer) |
//!
//! Examples: `cure(flid)|inline|cxprop(rounds=3)`,
//! `cure(terse,noopt)|cxprop(domain=constants)|prune`, `backend(noopt)`.
//!
//! A pipeline parsed from a spec is *named* by its canonical rendering
//! (an owned `String`, so sweep-generated stacks label experiment output
//! correctly); prefix `name:` inside `STOS_PIPELINE` entries to label it
//! explicitly.
//!
//! # `STOS_PIPELINE`
//!
//! [`parse_pipeline_list`] reads the list format of the harnesses'
//! `STOS_PIPELINE` knob: a `;`-separated list of entries, each one of
//!
//! * a preset name (`safe-flid-inline-cxprop`, see
//!   [`crate::pipeline::PRESET_NAMES`]),
//! * a spec string (`cure(flid)|cxprop`),
//! * `name:spec` to parse a spec but keep an explicit label
//!   (`gcc:cure(flid,noopt)`).
//!
//! This crate reads no environment variable for it: the harnesses parse
//! the knob once (`bench::Knobs`) and replace their default stack list
//! with the parsed one.

use std::fmt;

use backend::BackendOptions;
use ccured::{CureOptions, ErrorMode};
use cxprop::{CxpropOptions, DomainKind, InlineOptions};

use crate::pipeline::{Pass, Pipeline};

/// A pipeline-spec parse error, with the offending fragment named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> SpecError {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The spec-language pass keywords, for error messages.
pub const PASS_NAMES: [&str; 7] = [
    "cure",
    "inline",
    "cxprop",
    "prune",
    "races",
    "stackbound",
    "backend",
];

/// Parses a spec string into a [`Pipeline`] named by its canonical
/// rendering.
///
/// # Errors
///
/// Rejects empty specs, unknown passes, and unknown or malformed
/// options.
pub fn parse(spec: &str) -> Result<Pipeline, SpecError> {
    let trimmed = spec.trim();
    if trimmed.is_empty() {
        return Err(SpecError::new(
            "empty spec (for a bare-backend build, use \"backend\")",
        ));
    }
    let passes = trimmed
        .split('|')
        .map(|segment| parse_pass(segment.trim()))
        .collect::<Result<_, _>>()?;
    let pipeline = Pipeline::from_parts(String::new(), passes);
    let name = pipeline.spec();
    Ok(pipeline.with_name(name))
}

/// The `cxprop` pass's defaults. Unlike [`CxpropOptions::default`], the
/// standalone pass does *not* inline — `inline` is its own pass in the
/// spec language.
fn cxprop_defaults() -> CxpropOptions {
    CxpropOptions {
        inline: false,
        ..CxpropOptions::default()
    }
}

/// Splits one segment into `(name, options)`. Options are normalized
/// for whitespace — around commas and around a `key=value`'s `=` — so
/// hand-typed spellings land on the same canonical spec (and therefore
/// the same cache key) as `Display` output.
fn split_segment(segment: &str) -> Result<(&str, Vec<String>), SpecError> {
    if segment.is_empty() {
        return Err(SpecError::new("empty pass segment"));
    }
    let Some(open) = segment.find('(') else {
        return Ok((segment, Vec::new()));
    };
    let rest = &segment[open + 1..];
    let Some(close) = rest.rfind(')') else {
        return Err(SpecError::new(format!("`{segment}`: missing `)`")));
    };
    if !rest[close + 1..].trim().is_empty() {
        return Err(SpecError::new(format!(
            "`{segment}`: trailing input after `)`"
        )));
    }
    let name = segment[..open].trim();
    let opts = rest[..close]
        .split(',')
        .map(str::trim)
        .filter(|o| !o.is_empty())
        .map(|o| match o.split_once('=') {
            Some((key, value)) => format!("{}={}", key.trim_end(), value.trim_start()),
            None => o.to_string(),
        })
        .collect();
    Ok((name, opts))
}

/// Parses `key=value`'s value as a count.
fn parse_count(pass: &str, opt: &str) -> Result<usize, SpecError> {
    let (key, value) = opt.split_once('=').expect("caller checked");
    value
        .trim()
        .parse()
        .map_err(|_| SpecError::new(format!("{pass}: `{}` needs a number, got `{value}`", key)))
}

fn unknown_option(pass: &str, opt: &str, known: &str) -> SpecError {
    SpecError::new(format!("{pass}: unknown option `{opt}` (known: {known})"))
}

/// Duplicate-option tracking for one pass segment. Every option maps to
/// a canonical *key* (a flag and its negation share one, e.g.
/// `dce`/`nodce`; the four cure error modes share `error mode`); a key
/// claimed twice is rejected rather than silently last-wins — the
/// `Display` canonicalization renders each key at most once, so a spec
/// that sets one twice cannot round-trip and is a user error by
/// construction.
struct SeenOpts {
    pass: &'static str,
    seen: Vec<(&'static str, String)>,
}

impl SeenOpts {
    fn new(pass: &'static str) -> SeenOpts {
        SeenOpts {
            pass,
            seen: Vec::new(),
        }
    }

    fn claim(&mut self, key: &'static str, opt: &str) -> Result<(), SpecError> {
        if let Some((_, first)) = self.seen.iter().find(|(k, _)| *k == key) {
            return Err(SpecError::new(format!(
                "{}: duplicate option `{opt}` ({key} already set by `{first}`)",
                self.pass
            )));
        }
        self.seen.push((key, opt.to_string()));
        Ok(())
    }

    /// Claims `key` for `opt` and stores `value` — one call per match
    /// arm, so the duplicate check can never drift from the assignment.
    fn set<T>(
        &mut self,
        key: &'static str,
        opt: &str,
        slot: &mut T,
        value: T,
    ) -> Result<(), SpecError> {
        self.claim(key, opt)?;
        *slot = value;
        Ok(())
    }
}

fn parse_pass(segment: &str) -> Result<Pass, SpecError> {
    let (name, opts) = split_segment(segment)?;
    match name {
        "cure" => {
            let mut options = CureOptions::default();
            let mut seen = SeenOpts::new("cure");
            for opt in &opts {
                let opt = opt.as_str();
                // Each arm claims its canonical key before acting, so a
                // flag and its negation (or two error modes) collide.
                match opt {
                    "flid" => seen.set("error mode", opt, &mut options.error_mode, ErrorMode::Flid),
                    "terse" => {
                        seen.set("error mode", opt, &mut options.error_mode, ErrorMode::Terse)
                    }
                    "verbose-ram" => seen.set(
                        "error mode",
                        opt,
                        &mut options.error_mode,
                        ErrorMode::VerboseRam,
                    ),
                    "verbose-rom" => seen.set(
                        "error mode",
                        opt,
                        &mut options.error_mode,
                        ErrorMode::VerboseRom,
                    ),
                    "opt" => seen.set("local optimizer", opt, &mut options.local_optimize, true),
                    "noopt" => seen.set("local optimizer", opt, &mut options.local_optimize, false),
                    "lock" => seen.set(
                        "racy-check locking",
                        opt,
                        &mut options.lock_racy_checks,
                        true,
                    ),
                    "nolock" => seen.set(
                        "racy-check locking",
                        opt,
                        &mut options.lock_racy_checks,
                        false,
                    ),
                    "naive" => seen.set("runtime", opt, &mut options.naive_runtime, true),
                    _ => Err(unknown_option(
                        "cure",
                        opt,
                        "flid, terse, verbose-ram, verbose-rom, opt, noopt, lock, nolock, naive",
                    )),
                }?;
            }
            Ok(Pass::Cure(options))
        }
        "inline" => {
            let mut options = InlineOptions::default();
            let mut seen = SeenOpts::new("inline");
            for opt in &opts {
                let opt = opt.as_str();
                if opt.starts_with("max-size=") {
                    let v = parse_count("inline", opt)?;
                    seen.set("max-size", opt, &mut options.max_size, v)?;
                } else if opt.starts_with("single-site=") {
                    let v = parse_count("inline", opt)?;
                    seen.set("single-site", opt, &mut options.max_single_site, v)?;
                } else if opt.starts_with("rounds=") {
                    let v = parse_count("inline", opt)?;
                    seen.set("rounds", opt, &mut options.rounds, v)?;
                } else {
                    return Err(unknown_option(
                        "inline",
                        opt,
                        "max-size=N, single-site=N, rounds=N",
                    ));
                }
            }
            Ok(Pass::Inline(options))
        }
        "cxprop" => {
            let mut options = cxprop_defaults();
            let mut seen = SeenOpts::new("cxprop");
            for opt in &opts {
                let opt = opt.as_str();
                match opt {
                    "inline" => seen.set("inline", opt, &mut options.inline, true),
                    "dce" => seen.set("dce", opt, &mut options.dce, true),
                    "nodce" => seen.set("dce", opt, &mut options.dce, false),
                    "copyprop" => seen.set("copyprop", opt, &mut options.copyprop, true),
                    "nocopyprop" => seen.set("copyprop", opt, &mut options.copyprop, false),
                    "atomic" => seen.set("atomic", opt, &mut options.atomic_opt, true),
                    "noatomic" => seen.set("atomic", opt, &mut options.atomic_opt, false),
                    "harden" => seen.set("hardening", opt, &mut options.fault_harden, true),
                    "noharden" => seen.set("hardening", opt, &mut options.fault_harden, false),
                    "domain=constants" => {
                        seen.set("domain", opt, &mut options.domain, DomainKind::Constants)
                    }
                    "domain=intervals" => {
                        seen.set("domain", opt, &mut options.domain, DomainKind::Intervals)
                    }
                    _ if opt.starts_with("rounds=") => {
                        let rounds = parse_count("cxprop", opt)?;
                        seen.set("rounds", opt, &mut options.max_rounds, rounds)
                    }
                    _ => Err(unknown_option(
                        "cxprop",
                        opt,
                        "inline, domain=constants|intervals, rounds=N, dce, nodce, \
                         copyprop, nocopyprop, atomic, noatomic, harden, noharden",
                    )),
                }?;
            }
            Ok(Pass::Cxprop(options))
        }
        "prune" => {
            if let Some(opt) = opts.first() {
                return Err(SpecError::new(format!(
                    "prune: takes no options, got `{opt}`"
                )));
            }
            Ok(Pass::Prune)
        }
        "races" => {
            let mut fix = false;
            let mut seen = SeenOpts::new("races");
            for opt in &opts {
                let opt = opt.as_str();
                match opt {
                    "fix" => seen.set("fix", opt, &mut fix, true),
                    _ => Err(unknown_option("races", opt, "fix")),
                }?;
            }
            Ok(Pass::Races { fix })
        }
        "stackbound" => {
            let mut budget = None;
            let mut seen = SeenOpts::new("stackbound");
            for opt in &opts {
                let opt = opt.as_str();
                if opt.starts_with("budget=") {
                    let v = parse_count("stackbound", opt)?;
                    if v == 0 {
                        return Err(SpecError::new(
                            "stackbound: `budget` must be positive, got `0` \
                             (omit the option for the profile's default budget)",
                        ));
                    }
                    let v = u32::try_from(v).map_err(|_| {
                        SpecError::new(format!("stackbound: `budget={v}` out of range"))
                    })?;
                    seen.set("budget", opt, &mut budget, Some(v))?;
                } else {
                    return Err(unknown_option("stackbound", opt, "budget=N"));
                }
            }
            Ok(Pass::Stackbound { budget })
        }
        "backend" => {
            let mut options = BackendOptions::default();
            let mut seen = SeenOpts::new("backend");
            for opt in &opts {
                let opt = opt.as_str();
                match opt {
                    "opt" => seen.set("optimizer", opt, &mut options.optimize, true),
                    "noopt" => seen.set("optimizer", opt, &mut options.optimize, false),
                    _ => Err(unknown_option("backend", opt, "opt, noopt")),
                }?;
            }
            Ok(Pass::Backend(options))
        }
        _ => Err(SpecError::new(format!(
            "unknown pass `{name}` (known: {})",
            PASS_NAMES.join(", ")
        ))),
    }
}

// ---------------------------------------------------------------------
// Canonical renderings. Only non-default options are shown, in a fixed
// order, so parse → Display → parse is stable after one
// canonicalization.
// ---------------------------------------------------------------------

impl Pass {
    /// The pass's canonical spec-language rendering, including any
    /// non-default options (e.g. `cxprop(domain=constants,rounds=1)`).
    /// Doubles as the pass half of a [`crate::cache::CacheKey`]: two
    /// passes with equal specs transform programs identically.
    pub fn spec(&self) -> String {
        let mut opts: Vec<String> = Vec::new();
        match self {
            Pass::Cure(options) => {
                // The error mode is always rendered: it is the pass's
                // headline configuration (Figure 3 bars 1–4).
                opts.push(
                    match options.error_mode {
                        ErrorMode::Flid => "flid",
                        ErrorMode::Terse => "terse",
                        ErrorMode::VerboseRam => "verbose-ram",
                        ErrorMode::VerboseRom => "verbose-rom",
                    }
                    .into(),
                );
                if !options.local_optimize {
                    opts.push("noopt".into());
                }
                if !options.lock_racy_checks {
                    opts.push("nolock".into());
                }
                if options.naive_runtime {
                    opts.push("naive".into());
                }
            }
            Pass::Inline(options) => {
                let default = InlineOptions::default();
                if options.max_size != default.max_size {
                    opts.push(format!("max-size={}", options.max_size));
                }
                if options.max_single_site != default.max_single_site {
                    opts.push(format!("single-site={}", options.max_single_site));
                }
                if options.rounds != default.rounds {
                    opts.push(format!("rounds={}", options.rounds));
                }
            }
            Pass::Cxprop(options) => {
                let default = cxprop_defaults();
                if options.inline {
                    opts.push("inline".into());
                }
                if options.domain != default.domain {
                    opts.push(match options.domain {
                        DomainKind::Constants => "domain=constants".into(),
                        DomainKind::Intervals => "domain=intervals".into(),
                    });
                }
                if options.max_rounds != default.max_rounds {
                    opts.push(format!("rounds={}", options.max_rounds));
                }
                for (on, flag) in [
                    (options.dce, "nodce"),
                    (options.copyprop, "nocopyprop"),
                    (options.atomic_opt, "noatomic"),
                    (options.fault_harden, "noharden"),
                ] {
                    if !on {
                        opts.push(flag.into());
                    }
                }
            }
            Pass::Prune => {}
            Pass::Races { fix } => {
                if *fix {
                    opts.push("fix".into());
                }
            }
            Pass::Stackbound { budget } => {
                if let Some(n) = budget {
                    opts.push(format!("budget={n}"));
                }
            }
            Pass::Backend(options) => {
                if !options.optimize {
                    opts.push("noopt".into());
                }
            }
        }
        if opts.is_empty() {
            self.name().to_string()
        } else {
            format!("{}({})", self.name(), opts.join(","))
        }
    }
}

// ---------------------------------------------------------------------
// STOS_PIPELINE.
// ---------------------------------------------------------------------

/// Parses a `;`-separated pipeline list (the `STOS_PIPELINE` format):
/// each entry a preset name, a spec string, or `name:spec`.
///
/// # Errors
///
/// Propagates the first entry's parse error; an empty list is an error.
pub fn parse_pipeline_list(list: &str) -> Result<Vec<Pipeline>, SpecError> {
    let mut pipelines = Vec::new();
    for entry in list.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        if let Some((name, spec)) = entry.split_once(':') {
            // The labeled form relabels a preset or a parsed spec alike.
            let pipeline = match Pipeline::preset(spec.trim()) {
                Some(preset) => preset,
                None => parse(spec)?,
            };
            pipelines.push(pipeline.with_name(name.trim()));
        } else if let Some(preset) = Pipeline::preset(entry) {
            pipelines.push(preset);
        } else {
            pipelines.push(parse(entry)?);
        }
    }
    if pipelines.is_empty() {
        return Err(SpecError::new("empty pipeline list"));
    }
    Ok(pipelines)
}
