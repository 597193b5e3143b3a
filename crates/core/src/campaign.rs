//! Fault-injection campaigns: does a pipeline's output *detect*
//! corruption, or merely suffer it?
//!
//! The figure harnesses measure what safety costs (checks, bytes, duty
//! cycle); a campaign measures what safety *buys*. For one build it runs
//! a golden (uninjected) simulation, enumerates a seeded, deterministic
//! list of corruption plans over the image's static data
//! ([`mcu::faults::enumerate_sites`]), replays the workload once per
//! plan with the corruption applied mid-run, and triages every replay
//! against the golden observation ([`ccured::triage`]). The resulting
//! [`CampaignReport`] is the paper's missing evaluation axis: cured
//! pipelines convert silent corruption into FLID-diagnosable traps,
//! uncured ones cannot (an image with zero checks can never produce a
//! [`ccured::Verdict::Detected`]).
//!
//! Campaigns are pure functions of `(build, workload, config)` — no
//! wall-clock, no global RNG — so an experiment grid over worker threads
//! emits byte-identical reports in any schedule.
//!
//! # Example
//!
//! ```
//! use safe_tinyos::{run_campaign, BuildSession, CampaignConfig, Pipeline};
//!
//! let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
//! let build = BuildSession::new().build(&spec, &Pipeline::unsafe_baseline()).unwrap();
//! let cfg = CampaignConfig { seconds: 2, sites: 8, seed: 1 };
//! let unsafe_report = run_campaign(&build, &spec, &cfg);
//! // An uncured image has no checks: it can crash or corrupt, never detect.
//! assert_eq!(unsafe_report.counts.detected, 0);
//! assert_eq!(unsafe_report.results.len(), 8);
//! ```

use std::collections::BTreeSet;

use ccured::triage::{self, RunObservation, Verdict, VerdictCounts};
use mcu::faults::{self, FaultKind, FaultPlan};
use mcu::RunState;
use tcil::ir::{CheckKind, Expr, ExprKind, Place, PlaceBase, PlaceElem, Stmt};
use tcil::visit;
use tosapps::AppSpec;

use crate::{prepare_machine, Build};

/// Configuration of one fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Simulated seconds per run (golden and injected alike).
    pub seconds: u64,
    /// Number of injection sites to enumerate.
    pub sites: usize,
    /// Site-enumerator seed: same seed, same plans, same report.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// A moderate default: 16 sites over the standard short workload.
    fn default() -> Self {
        CampaignConfig {
            seconds: 4,
            sites: 16,
            seed: 0xC0DE,
        }
    }
}

/// One injected run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// Stable site label (see [`FaultPlan::label`]).
    pub site: String,
    /// Cycle point of the injection.
    pub at_cycle: u64,
    /// What the corruption did.
    pub verdict: Verdict,
}

/// The outcome of one campaign (one build × workload).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Final state of the golden (uninjected) run — campaigns over
    /// healthy apps expect `Sleeping`.
    pub golden_state: RunState,
    /// Per-site outcomes, in enumeration order.
    pub results: Vec<SiteResult>,
    /// The verdict tally.
    pub counts: VerdictCounts,
}

impl CampaignReport {
    /// The detected sites, with their FLIDs and decoded messages.
    pub fn detections(&self) -> impl Iterator<Item = (&SiteResult, u16, &str)> + '_ {
        self.results.iter().filter_map(|r| match &r.verdict {
            Verdict::Detected { flid, message } => Some((r, *flid, message.as_str())),
            _ => None,
        })
    }
}

/// The RAM cells whose corruption probes *checked* accesses: scalar
/// globals used as an array index anywhere in the final program —
/// receive-buffer positions, task-queue heads, sample counters. These
/// cells exist identically in cured and uncured builds (curing adds
/// checks before the accesses; it does not change which globals index
/// arrays), so targeting them is the logically comparable fault model:
/// push a buffer position or queue head out of range, and a cured image
/// traps an `IndexBound` check where an uncured one reads or writes
/// past the array.
///
/// Addresses come from the image's symbol table and are returned sorted
/// and deduplicated — plan enumeration must not depend on traversal
/// order.
pub fn target_cells(build: &Build) -> Vec<u16> {
    target_names(build)
        .iter()
        .filter_map(|name| build.image.find_global_addr(name))
        .collect::<BTreeSet<u16>>()
        .into_iter()
        .collect()
}

/// The *names* of the index globals [`target_cells`] resolves — the
/// layout-independent half of the fault model. The differential oracle
/// ([`crate::difftest`]) targets cells by name so the same logical fault
/// can be injected into two differently-laid-out builds of one program.
/// Sorted and deduplicated for enumeration-order independence.
pub fn target_names(build: &Build) -> Vec<String> {
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    let mark_index_expr = |ie: &Expr, ids: &mut BTreeSet<u32>| {
        visit::walk_expr(ie, &mut |e| {
            if let ExprKind::Load(p) = &e.kind {
                if p.elems.is_empty() && p.ty.as_int().is_some() {
                    if let PlaceBase::Global(gid) = &p.base {
                        ids.insert(gid.0);
                    }
                }
            }
        });
    };
    // Every place projection with an `Index` element marks the globals
    // its index expression reads; `IndexBound` checks mark theirs too
    // (the same set in cured builds, present only there).
    let scan_place = |p: &Place, ids: &mut BTreeSet<u32>| {
        for el in &p.elems {
            if let PlaceElem::Index(ie) = el {
                mark_index_expr(ie, ids);
            }
        }
    };
    for f in &build.program.functions {
        visit::walk_stmts(&f.body, &mut |s: &Stmt| {
            if let Stmt::Check(c) = s {
                if let CheckKind::IndexBound { idx, .. } = &c.kind {
                    mark_index_expr(idx, &mut ids);
                }
            }
            visit::stmt_exprs(s, &mut |top| {
                visit::walk_expr(top, &mut |e| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &e.kind {
                        scan_place(p, &mut ids);
                    }
                });
            });
            // `stmt_exprs` hands out assignment/call *target* index
            // expressions directly (not wrapped in a Load), so scan the
            // statement's places explicitly too.
            match s {
                Stmt::Assign(p, _) => scan_place(p, &mut ids),
                Stmt::Call { dst: Some(p), .. } | Stmt::BuiltinCall { dst: Some(p), .. } => {
                    scan_place(p, &mut ids)
                }
                _ => {}
            }
        });
    }
    ids.iter()
        .map(|gid| build.program.globals[*gid as usize].name.clone())
        .collect::<BTreeSet<String>>()
        .into_iter()
        .collect()
}

/// Runs a fault-injection campaign against one finished build.
///
/// The golden run and every injected run share identical machine setup
/// (via [`prepare_machine`]); an injected run executes to the plan's
/// cycle point, applies the corruption, and resumes to the horizon.
/// Plans are enumerated from the build's own image, with the
/// [`target_cells`] as priority targets — fat pointers move globals
/// around, so *logical* comparability across pipelines comes from the
/// shared seed, site mix, and target roles, not from identical
/// addresses.
pub fn run_campaign(build: &Build, spec: &AppSpec, config: &CampaignConfig) -> CampaignReport {
    let (mut golden_machine, until) = prepare_machine(build, spec, config.seconds);
    golden_machine.run(until);
    let golden = RunObservation::capture(&golden_machine);

    let targets = target_cells(build);
    let plans = faults::enumerate_sites(&build.image, &targets, config.seed, config.sites, until);
    let mut results = Vec::with_capacity(plans.len());
    let mut counts = VerdictCounts::default();
    for plan in &plans {
        let verdict = run_injected(build, spec, config.seconds, plan, &golden);
        counts.record(&verdict);
        results.push(SiteResult {
            site: plan.label(),
            at_cycle: plan.at_cycle,
            verdict,
        });
    }
    CampaignReport {
        golden_state: golden_machine.state,
        results,
        counts,
    }
}

// ---------------------------------------------------------------------
// The torn-update atomicity campaign.
// ---------------------------------------------------------------------

/// XOR masks for torn corruption, cycled per injection so one campaign
/// probes several bit positions of each half.
const TORN_MASKS: [u8; 4] = [0x80, 0x01, 0x40, 0x08];

/// The names of the multi-byte globals with *flagged torn access sites*
/// (reads or writes) in `build`'s final program — the torn-update fault
/// model's target pool (classification runs on a clone; the build is not
/// mutated). Sorted and deduplicated for enumeration-order independence.
///
/// For a `races(fix)` build this is empty by construction: the point of
/// the campaign is to enumerate targets from the *unhardened* build and
/// inject the same logical faults (by name) into both.
pub fn torn_target_names(build: &Build) -> Vec<String> {
    let mut program = build.program.clone();
    let findings = cxprop::race_sites::classify(&mut program);
    findings
        .sites
        .iter()
        .filter(|s| s.width > 1)
        .map(|s| s.global.clone())
        .collect::<BTreeSet<String>>()
        .into_iter()
        .collect()
}

/// Enumerates torn-update plans for `build`: for each named 16-bit
/// target present in the image's symbol table (a name optimized away by
/// DCE is skipped), `per_target` watchpoints — the 1st, 2nd, … Nth
/// IRQ-enabled 16-bit access to the global — alternating low/high byte,
/// with a mask cycled from `TORN_MASKS`. Plans apply at boot (cycle 0,
/// the skew-free injection point): arming a watchpoint costs no
/// execution, so golden and injected runs never drift apart before the
/// fault lands.
pub fn torn_plans(build: &Build, names: &[String], per_target: usize) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for name in names {
        let Some(addr) = build.image.find_global_addr(name) else {
            continue;
        };
        for i in 0..per_target {
            plans.push(FaultPlan {
                at_cycle: 0,
                kind: FaultKind::TornUpdate16 {
                    addr,
                    nth: (i / 2 + 1) as u32,
                    mask: TORN_MASKS[i % TORN_MASKS.len()],
                    hi: i % 2 == 1,
                },
            });
        }
    }
    plans
}

/// Runs a torn-update atomicity campaign against one build: one golden
/// run, then one replay per plan from [`torn_plans`] over `names`
/// (enumerate them from the unhardened build via [`torn_target_names`]
/// so hardened and unhardened builds face the same logical faults).
///
/// A build whose flagged accesses all sit inside atomic sections is
/// mechanically immune — the watchpoint only fires on accesses executed
/// with interrupts enabled — so every replay matches golden and tallies
/// [`Verdict::Benign`]. The interesting measure is therefore
/// [`VerdictCounts::divergences`] compared across builds.
pub fn run_torn_campaign(
    build: &Build,
    spec: &AppSpec,
    names: &[String],
    per_target: usize,
    seconds: u64,
) -> CampaignReport {
    let (mut golden_machine, until) = prepare_machine(build, spec, seconds);
    golden_machine.run(until);
    let golden = RunObservation::capture(&golden_machine);

    let plans = torn_plans(build, names, per_target);
    let mut results = Vec::with_capacity(plans.len());
    let mut counts = VerdictCounts::default();
    for plan in &plans {
        let verdict = run_injected(build, spec, seconds, plan, &golden);
        counts.record(&verdict);
        results.push(SiteResult {
            site: plan.label(),
            at_cycle: plan.at_cycle,
            verdict,
        });
    }
    CampaignReport {
        golden_state: golden_machine.state,
        results,
        counts,
    }
}

/// One injected replay: run to the fault point, corrupt, resume, triage.
fn run_injected(
    build: &Build,
    spec: &AppSpec,
    seconds: u64,
    plan: &FaultPlan,
    golden: &RunObservation,
) -> Verdict {
    let (mut m, until) = prepare_machine(build, spec, seconds);
    m.run(plan.at_cycle.min(until));
    faults::apply(&mut m, plan);
    m.run(until);
    let observed = RunObservation::capture(&m);
    triage::triage(golden, &observed, &build.image.flid_table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildSession, Pipeline};

    fn campaign(pipeline: &Pipeline, cfg: &CampaignConfig) -> CampaignReport {
        let spec = tosapps::spec("SenseToRfm_Mica2").unwrap();
        let build = BuildSession::new().build(&spec, pipeline).unwrap();
        run_campaign(&build, &spec, cfg)
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = CampaignConfig {
            seconds: 2,
            sites: 8,
            seed: 99,
        };
        let a = campaign(&Pipeline::safe_flid(), &cfg);
        let b = campaign(&Pipeline::safe_flid(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn torn_campaign_separates_hardened_from_unhardened() {
        // HighFrequencySampling's flush() task reads its racy uint16_t
        // sample buffer with interrupts enabled — a runtime-reachable
        // torn-read hazard (most apps only touch their 16-bit globals
        // from handler context or in pre-IrqEnable init code, where the
        // watchpoint can never fire).
        let session = crate::BuildSession::new();
        let spec = tosapps::spec("HighFrequencySampling_Mica2").unwrap();
        let unhardened = session
            .build(&spec, &Pipeline::parse("cure(flid)|cxprop|prune").unwrap())
            .unwrap();
        let hardened = session
            .build(
                &spec,
                &Pipeline::parse("cure(flid)|races(fix)|cxprop|prune").unwrap(),
            )
            .unwrap();
        // Targets come from the unhardened build; the hardened build has
        // no flagged torn accesses left, by construction.
        let names = torn_target_names(&unhardened);
        assert!(!names.is_empty(), "no torn-access targets flagged");
        assert!(torn_target_names(&hardened).is_empty());

        let torn = |build: &crate::Build| run_torn_campaign(build, &spec, &names, 4, 2);
        let hardened_report = torn(&hardened);
        assert_eq!(
            hardened_report.counts.divergences(),
            0,
            "hardened build not immune: {:?}",
            hardened_report.results
        );
        let unhardened_report = torn(&unhardened);
        assert!(
            unhardened_report.counts.divergences() > 0,
            "no torn injection diverged on the unhardened build: {:?}",
            unhardened_report.results
        );
        // Determinism: same build, same plans, same report.
        assert_eq!(torn(&unhardened), unhardened_report);
    }

    #[test]
    fn uncured_builds_never_detect_and_every_detection_decodes() {
        let cfg = CampaignConfig {
            seconds: 2,
            sites: 12,
            seed: 7,
        };
        let uncured = campaign(&Pipeline::unsafe_baseline(), &cfg);
        assert_eq!(uncured.counts.detected, 0, "no checks, no detections");
        assert_eq!(uncured.counts.total(), 12);

        let cured = campaign(&Pipeline::safe_flid(), &cfg);
        assert_eq!(cured.counts.total(), 12);
        for (result, flid, message) in cured.detections() {
            assert!(
                !message.is_empty(),
                "{}: FLID {flid} undecodable",
                result.site
            );
        }
    }
}
