//! The whole-program race analyzer, end to end: nesC's and cXprop's
//! verdicts over the concurrency census must agree (refinement only
//! clears racy globals, never invents them), the `races` pass must
//! report per-site diagnostics on every benchmark app, a handler that
//! re-enables interrupts must count as preemptible, and the `races(fix)`
//! auto-hardener must reach its zero-diagnostic fixpoint on arbitrary
//! generated programs, not just the app suite.

use std::collections::HashSet;

use proptest::prelude::*;
use safe_tinyos::{difftest, BuildSession, Pipeline};
use safe_tinyos_suite as _;
use tcil::concurrency::Census;
use tcil::ir::{Block, Stmt};
use tcil::visit;

#[test]
fn refinement_only_clears_racy_globals_never_adds() {
    // The frontend's conservative non-atomic variable report (its
    // `racy` flags) is the contract CCured locks against; cXprop's per-access refinement may
    // prove some of those globals safe (read-only sharing) but must
    // never flag a global the frontend considered clean.
    let session = BuildSession::new();
    for app in tosapps::mica2_apps() {
        let spec = tosapps::spec(app).unwrap();
        let mut program = session.frontend(&spec).unwrap().program();
        let coarse: HashSet<String> = program
            .globals
            .iter()
            .filter(|g| g.racy)
            .map(|g| g.name.clone())
            .collect();
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

#[test]
fn analysis_stack_reports_the_races_pass_cleared_count() {
    // The count is nesC's verdict minus cXprop's over one census, so the
    // cXprop pass that follows `races` re-derives it instead of comparing
    // against flags `races` already narrowed.
    let session = BuildSession::new();
    let races = Pipeline::parse("cure(flid)|races").unwrap();
    let analysis = Pipeline::parse("cure(flid)|races|cxprop|prune").unwrap();
    for app in tosapps::APP_NAMES {
        let spec = tosapps::spec(app).unwrap();
        let cleared = |p: &Pipeline| {
            let build = session.build(&spec, p).unwrap();
            build.metrics.races.expect("races pass ran").cleared_globals
        };
        assert_eq!(cleared(&analysis), cleared(&races), "{app}");
    }
}

#[test]
fn a_handler_that_reenables_interrupts_is_preemptible() {
    // `a` turns interrupts back on, so `b` can preempt its write to `g`:
    // `g` races although no task touches it.
    let mut program = tcil::parse_and_lower(
        "uint8_t g;
         uint8_t t;
         interrupt(TIMER0) void a() { __irq_enable(); g = 1; atomic { t = 1; } }
         interrupt(TIMER1) void b() { g = 2; t = 2; }
         void main() { }",
    )
    .unwrap();
    let findings = cxprop::race_sites::classify(&mut program);
    assert_eq!(findings.report.racy, ["g"]);
    let site = findings.sites.iter().find(|s| s.global == "g");
    assert!(
        site.is_some_and(|s| s.func_name == "a" && s.write),
        "{:?}",
        findings.sites
    );
    cxprop::atomic_opt::run(&mut program);
    let mut atomics = 0;
    visit::walk_stmts(&program.functions[0].body, &mut |s| {
        atomics += usize::from(matches!(s, Stmt::Atomic { .. }))
    });
    assert_eq!(
        atomics, 1,
        "atomic_opt unwrapped a preemptible handler's section"
    );
}

/// The site indices of `body` that lie inside an `atomic` section.
fn atomic_sites(body: &Block) -> HashSet<u32> {
    let mut inside = HashSet::new();
    visit::walk_stmts_sited(body, &mut |i, s| {
        if let Stmt::Atomic { body, .. } = s {
            let mut n = 0;
            visit::walk_stmts(body, &mut |_| n += 1);
            inside.extend(i + 1..=i + n);
        }
    });
    inside
}

proptest! {
    #[test]
    fn races_fix_reaches_zero_diagnostic_fixpoint(seed in 1u64..5000) {
        let mut program = difftest::generate_program(seed).unwrap();
        let census = Census::of(&program);
        for (g, (nesc, cxprop)) in program
            .globals
            .iter()
            .zip(census.nesc_racy().into_iter().zip(census.cxprop_racy()))
        {
            prop_assert!(nesc || !cxprop, "seed {}: only cXprop flags `{}`", seed, g.name);
        }
        let cx = &census.contexts;
        for site in cxprop::race_sites::classify(&mut program).sites {
            let f = site.func.0 as usize;
            prop_assert!(
                cx.is_sync[f] || cx.preemptible[f],
                "seed {}: {} is in uninterruptible code", seed, site.label()
            );
            prop_assert!(
                !atomic_sites(&program.functions[f].body).contains(&site.site),
                "seed {}: {} is inside an atomic", seed, site.label()
            );
        }
        let (stats, findings) = cxprop::race_sites::harden(&mut program);
        prop_assert!(
            stats.residual_sites == 0,
            "seed {}: hardening left {} site(s) standing", seed, stats.residual_sites
        );
        prop_assert!(
            findings.sites.is_empty(),
            "seed {}: hardening's last findings are {:?}", seed, findings.sites
        );
        let findings = cxprop::race_sites::classify(&mut program);
        prop_assert!(
            findings.sites.is_empty(),
            "seed {}: post-fix classification found {:?}", seed, findings.sites
        );
    }
}
