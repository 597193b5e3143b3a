//! The race-analysis harness's data model: per-app static analysis
//! results, hardening costs, and the torn-update atomicity campaign
//! (the `race_analysis` binary drives it, the `race_analysis` contract
//! in [`crate::gate`] checks the published artifact).
//!
//! The emitted `BENCH_races.json` has two top-level objects with
//! different CI contracts:
//!
//! * `"analysis"` — diagnostic censuses, hardening counts, and code-size
//!   deltas. Pure functions of the toolchain and the app sources, so CI
//!   compares the published object against the committed baseline.
//! * `"dynamics"` — duty-cycle deltas, torn-campaign divergence tallies,
//!   and the differential-oracle spot check. These depend on run-length
//!   knobs (`STOS_SECONDS`, `STOS_TORN`), so the contract checks
//!   invariants on them (hardened builds immune, unhardened builds
//!   strictly worse, zero miscompiles) instead of pinning them.

use safe_tinyos::{
    run_torn_campaign, simulate, torn_target_names, BuildService, Diagnostic, Pipeline,
};

use crate::diff::{tally, total_miscompiles};
use crate::{grid, json, pct_change};

/// The three stacks every app is built under, in grid-column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `cure(flid)|cxprop|prune` — no per-site analysis, the cost
    /// baseline and the torn campaign's unhardened subject.
    Baseline,
    /// `cure(flid)|races|cxprop|prune` — analysis only, diagnostics
    /// reported but nothing rewritten.
    Analysis,
    /// `cure(flid)|races(fix)|cxprop|prune` — auto-hardened to the
    /// zero-diagnostic fixpoint, the torn campaign's immune subject.
    Fix,
}

impl Stack {
    /// Grid-column order (matches [`stacks`]).
    pub const ALL: [Stack; 3] = [Stack::Baseline, Stack::Analysis, Stack::Fix];

    /// The stack's pipeline spec.
    pub fn spec(self) -> &'static str {
        match self {
            Stack::Baseline => "cure(flid)|cxprop|prune",
            Stack::Analysis => "cure(flid)|races|cxprop|prune",
            Stack::Fix => "cure(flid)|races(fix)|cxprop|prune",
        }
    }
}

/// The three parsed stack pipelines, in [`Stack::ALL`] order.
pub fn stacks() -> Vec<Pipeline> {
    Stack::ALL
        .iter()
        .map(|s| Pipeline::parse(s.spec()).expect("stack spec"))
        .collect()
}

/// Counts of one app's diagnostics by stable code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeCounts {
    /// `R001 unprotected-sync-write` sites.
    pub r001: usize,
    /// `R002 torn-16bit-access` sites.
    pub r002: usize,
    /// `R003 async-rmw` sites.
    pub r003: usize,
}

impl CodeCounts {
    /// Tallies a diagnostic list by code (unknown codes count toward the
    /// total only).
    pub fn of(diagnostics: &[Diagnostic]) -> CodeCounts {
        let mut c = CodeCounts::default();
        for d in diagnostics {
            match d.code.as_str() {
                "R001" => c.r001 += 1,
                "R002" => c.r002 += 1,
                "R003" => c.r003 += 1,
                _ => {}
            }
        }
        c
    }

    /// Folds another tally in.
    pub fn add(&mut self, o: CodeCounts) {
        self.r001 += o.r001;
        self.r002 += o.r002;
        self.r003 += o.r003;
    }
}

/// One app's row of the race-analysis grid: the static census plus the
/// dynamic costs and campaign outcomes.
#[derive(Debug, Clone)]
pub struct AppRaceRow {
    /// App name.
    pub app: String,
    /// Diagnostic count by code from the analysis (no-fix) build.
    pub codes: CodeCounts,
    /// Total diagnostics from the analysis build.
    pub diagnostics: usize,
    /// Globals the refinement confirmed racy (analysis build).
    pub racy_globals: usize,
    /// Globals the refinement cleared (analysis build).
    pub cleared_globals: usize,
    /// Atomic sections `races(fix)` added across its fixpoint loop.
    pub sections_added: usize,
    /// Iterations `races(fix)` needed.
    pub fix_iterations: usize,
    /// Diagnostics remaining after `races(fix)` — zero at fixpoint.
    pub fix_residual: usize,
    /// Code-size change of the fix stack relative to the baseline stack.
    pub code_delta_pct: f64,
    /// Duty cycle of the baseline build (percent awake).
    pub baseline_duty_pct: f64,
    /// Duty cycle of the fix build.
    pub fix_duty_pct: f64,
    /// Torn targets flagged in the baseline build.
    pub torn_targets: usize,
    /// Torn plans actually armed (targets surviving in the image).
    pub torn_plans: usize,
    /// Divergences (detected + crashed + silent) of the baseline build
    /// under the torn campaign.
    pub unhardened_divergences: usize,
    /// Divergences of the fix build under the same plans — zero when the
    /// hardening is airtight.
    pub hardened_divergences: usize,
}

/// Builds all three stacks for every app and measures the full row set:
/// analysis censuses, hardening cost, and the torn campaign (targets
/// enumerated by name from each app's *baseline* build, so hardened and
/// unhardened builds face the same logical faults).
pub fn measure(
    service: &BuildService,
    apps: &[&'static str],
    seconds: u64,
    per_target: usize,
) -> Vec<AppRaceRow> {
    let builds = grid(service, apps, &stacks(), |spec, pipeline| {
        service
            .build(spec, pipeline)
            .unwrap_or_else(|e| panic!("{}: {e}", pipeline.name()))
    });
    service.run_jobs(apps.len(), |i| {
        let [baseline, analysis, fix] = &builds[i][..] else {
            unreachable!("three stacks per app");
        };
        let app = apps[i];
        let spec = tosapps::spec(app).expect("known app");
        let names = torn_target_names(baseline);
        let plans = safe_tinyos::torn_plans(baseline, &names, per_target).len();
        let unhardened = run_torn_campaign(baseline, &spec, &names, per_target, seconds);
        let hardened = run_torn_campaign(fix, &spec, &names, per_target, seconds);
        let a_races = analysis.metrics.races.unwrap_or_default();
        let f_races = fix.metrics.races.unwrap_or_default();
        AppRaceRow {
            app: app.to_string(),
            codes: CodeCounts::of(&analysis.metrics.diagnostics),
            diagnostics: analysis.metrics.diagnostics.len(),
            racy_globals: a_races.racy_globals,
            cleared_globals: a_races.cleared_globals,
            sections_added: f_races.sections_added,
            fix_iterations: f_races.fix_iterations,
            fix_residual: fix.metrics.diagnostics.len(),
            code_delta_pct: pct_change(
                baseline.metrics.code_bytes as u64,
                fix.metrics.code_bytes as u64,
            ),
            baseline_duty_pct: simulate(baseline, &spec, seconds).duty_cycle_percent,
            fix_duty_pct: simulate(fix, &spec, seconds).duty_cycle_percent,
            torn_targets: names.len(),
            torn_plans: plans,
            unhardened_divergences: unhardened.counts.divergences(),
            hardened_divergences: hardened.counts.divergences(),
        }
    })
}

/// The differential-oracle spot check over `races(fix)` stacks: generated
/// seeds plus every app, all compared against the cure-only reference.
/// Returns `(miscompiles, cases)`.
pub fn oracle_check(
    service: &BuildService,
    seeds: &[u64],
    apps: &[&'static str],
    seconds: u64,
) -> (usize, usize) {
    let presets = vec![Pipeline::parse(Stack::Fix.spec()).expect("fix spec")];
    let cfg = safe_tinyos::DiffConfig::default();
    let mut reports = crate::diff::seed_reports(service, seeds, &presets, &cfg);
    reports.extend(crate::diff::app_reports(
        service, apps, &presets, seconds, &cfg,
    ));
    let tallies = tally(&presets, &reports);
    let cases = reports.iter().map(|r| r.cases.len()).sum();
    (total_miscompiles(&tallies), cases)
}

/// Serializes the byte-pinned `"analysis"` object (everything in it is a
/// pure function of toolchain + sources — no run-length knobs).
pub fn analysis_json(rows: &[AppRaceRow]) -> String {
    let mut totals = CodeCounts::default();
    let mut diagnostics = 0;
    let mut sections = 0;
    let apps = rows
        .iter()
        .map(|r| {
            totals.add(r.codes);
            diagnostics += r.diagnostics;
            sections += r.sections_added;
            json::Obj::new()
                .str("app", &r.app)
                .int("r001", r.codes.r001 as i64)
                .int("r002", r.codes.r002 as i64)
                .int("r003", r.codes.r003 as i64)
                .int("diagnostics", r.diagnostics as i64)
                .int("racy_globals", r.racy_globals as i64)
                .int("cleared_globals", r.cleared_globals as i64)
                .int("sections_added", r.sections_added as i64)
                .int("fix_iterations", r.fix_iterations as i64)
                .int("fix_residual", r.fix_residual as i64)
                .num("code_delta_pct", r.code_delta_pct)
                .build()
        })
        .collect::<Vec<_>>();
    json::Obj::new()
        .raw("apps", &json::arr(apps))
        .raw(
            "totals",
            &json::Obj::new()
                .int("r001", totals.r001 as i64)
                .int("r002", totals.r002 as i64)
                .int("r003", totals.r003 as i64)
                .int("diagnostics", diagnostics as i64)
                .int("sections_added", sections as i64)
                .build(),
        )
        .build()
}

/// Serializes the self-gated `"dynamics"` object.
pub fn dynamics_json(
    rows: &[AppRaceRow],
    seconds: u64,
    per_target: usize,
    oracle: (usize, usize),
    oracle_seeds: usize,
) -> String {
    let unhardened: usize = rows.iter().map(|r| r.unhardened_divergences).sum();
    let hardened: usize = rows.iter().map(|r| r.hardened_divergences).sum();
    let apps = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("app", &r.app)
                .int("torn_targets", r.torn_targets as i64)
                .int("torn_plans", r.torn_plans as i64)
                .int("unhardened_divergences", r.unhardened_divergences as i64)
                .int("hardened_divergences", r.hardened_divergences as i64)
                .num("baseline_duty_pct", r.baseline_duty_pct)
                .num("fix_duty_pct", r.fix_duty_pct)
                .num("duty_delta_pct", r.fix_duty_pct - r.baseline_duty_pct)
                .build()
        })
        .collect::<Vec<_>>();
    json::Obj::new()
        .int("seconds", seconds as i64)
        .int("torn_per_target", per_target as i64)
        .int("unhardened_divergences", unhardened as i64)
        .int("hardened_divergences", hardened as i64)
        .int("oracle_miscompiles", oracle.0 as i64)
        .int("oracle_cases", oracle.1 as i64)
        .int("oracle_seeds", oracle_seeds as i64)
        .raw("apps", &json::arr(apps))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_tinyos::Severity;

    #[test]
    fn code_counts_tally_by_code() {
        let diags = vec![
            Diagnostic::new(Severity::Warning, "R001", "f:0", "w"),
            Diagnostic::new(Severity::Warning, "R002", "f:1", "t"),
            Diagnostic::new(Severity::Warning, "R001", "g:0", "w"),
            Diagnostic::new(Severity::Note, "X999", "g:1", "?"),
        ];
        let c = CodeCounts::of(&diags);
        assert_eq!((c.r001, c.r002, c.r003), (2, 1, 0));
    }

    #[test]
    fn stacks_parse_and_keep_order() {
        let p = stacks();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].spec(), Stack::Baseline.spec());
        assert_eq!(p[2].spec(), Stack::Fix.spec());
    }
}
