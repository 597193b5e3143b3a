//! The whole-program race analyzer, end to end: the frontend's
//! concurrency report and cXprop's reachability refinement must agree
//! (refinement only clears racy globals, never invents them), the
//! `races` pass must report per-site diagnostics on every benchmark app,
//! and the `races(fix)` auto-hardener must reach its zero-diagnostic
//! fixpoint on arbitrary generated programs, not just the app suite.

use std::collections::HashSet;

use proptest::prelude::*;
use safe_tinyos::{difftest, BuildSession, Pipeline};
use safe_tinyos_suite as _;

#[test]
fn refinement_only_clears_racy_globals_never_adds() {
    // The frontend's conservative non-atomic variable report is the
    // contract CCured locks against; cXprop's per-access refinement may
    // prove some of those globals safe (read-only sharing) but must
    // never flag a global the frontend considered clean.
    let session = BuildSession::new();
    for app in tosapps::mica2_apps() {
        let spec = tosapps::spec(app).unwrap();
        let artifact = session.frontend(&spec).unwrap();
        let coarse: HashSet<String> = artifact.report().racy.iter().cloned().collect();
        let mut program = artifact.program();
        let refined = cxprop::races::refine(&mut program);
        for name in &refined.racy {
            assert!(
                coarse.contains(name),
                "{app}: refinement flagged `{name}`, which the frontend report cleared"
            );
        }
        for name in &refined.cleared {
            assert!(
                coarse.contains(name),
                "{app}: refinement claims to clear `{name}`, which was never flagged"
            );
        }
    }
}

#[test]
fn races_pass_reports_per_site_diagnostics_on_every_app() {
    let session = BuildSession::new();
    let analyzer = Pipeline::parse("cure(flid)|races|cxprop|prune").unwrap();
    for app in tosapps::mica2_apps() {
        let spec = tosapps::spec(app).unwrap();
        let build = session.build(&spec, &analyzer).unwrap();
        let diags = &build.metrics.diagnostics;
        assert!(!diags.is_empty(), "{app}: no per-site diagnostics");
        for d in diags {
            assert!(
                matches!(d.code.as_str(), "R001" | "R002" | "R003"),
                "{app}: unknown code {}",
                d.code
            );
            // FLID-style site labels: `function:site-index`.
            let (func, site) = d
                .site
                .rsplit_once(':')
                .unwrap_or_else(|| panic!("{app}: malformed site label `{}`", d.site));
            assert!(!func.is_empty(), "{app}: empty function in `{}`", d.site);
            assert!(
                site.parse::<u32>().is_ok(),
                "{app}: non-numeric site in `{}`",
                d.site
            );
        }
        let stats = build.metrics.races.expect("races pass ran");
        assert_eq!(
            stats.sections_added, 0,
            "{app}: analysis-only pass rewrote code"
        );
    }
}

#[test]
fn generated_isr_programs_exercise_the_fault_codes() {
    // The difftest generator shares named globals between ISR bodies and
    // task code precisely so generated programs have real race sites —
    // a healthy sample must classify some.
    let mut with_sites = 0;
    for seed in 1..=20 {
        let mut program = difftest::generate_program(seed).unwrap();
        if !cxprop::race_sites::classify(&mut program).sites.is_empty() {
            with_sites += 1;
        }
    }
    assert!(
        with_sites >= 5,
        "only {with_sites}/20 generated programs had classifiable race sites"
    );
}

proptest! {
    #[test]
    fn races_fix_reaches_zero_diagnostic_fixpoint(seed in 1u64..5000) {
        let mut program = difftest::generate_program(seed).unwrap();
        let stats = cxprop::race_sites::harden(&mut program);
        prop_assert!(
            stats.residual_sites == 0,
            "seed {}: hardening left {} site(s) standing", seed, stats.residual_sites
        );
        let findings = cxprop::race_sites::classify(&mut program);
        prop_assert!(
            findings.sites.is_empty(),
            "seed {}: post-fix classification found {:?}", seed, findings.sites
        );
    }
}
