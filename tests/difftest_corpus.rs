//! The differential oracle's regression suite: replays the committed
//! seed corpus across the full preset registry (zero Miscompile
//! verdicts, full cured detection parity), and property-tests the
//! generator itself — every seed must yield a program that type-checks
//! through the ordinary frontend and terminates within the step budget
//! under both the reference and the most aggressive preset.

use proptest::prelude::*;
use safe_tinyos::difftest::{self, DiffConfig, DiffPhase, DiffVerdict};
use safe_tinyos_suite as _;

/// The committed corpus: seed per line, `#` comments.
fn corpus_seeds() -> Vec<u64> {
    let body = include_str!("difftest_corpus.txt");
    body.lines()
        .filter_map(|line| {
            let data = line.split('#').next().unwrap_or("").trim();
            if data.is_empty() {
                None
            } else {
                Some(data.parse().unwrap_or_else(|_| panic!("bad seed `{data}`")))
            }
        })
        .collect()
}

#[test]
fn corpus_replays_clean_across_all_presets() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10, "corpus shrank to {}", seeds.len());
    let presets = bench::diff::default_presets();
    let cfg = DiffConfig::default();
    let service = safe_tinyos::BuildService::new();
    let reports = bench::diff::seed_reports(&service, &seeds, &presets, &cfg);
    for report in &reports {
        for case in &report.cases {
            assert_ne!(
                case.verdict,
                DiffVerdict::Miscompile,
                "corpus regression: {case:?}"
            );
            // Cured presets owe the reference full detection parity
            // (the hardened check-elimination invariant).
            if case.phase == DiffPhase::Injected {
                let cured = presets
                    .iter()
                    .any(|p| p.name() == case.preset && bench::diff::is_cured(p));
                if cured {
                    assert_ne!(
                        case.verdict,
                        DiffVerdict::CheckStrengthReduction,
                        "cured preset lost coverage: {case:?}"
                    );
                }
            }
        }
    }
    // The corpus is not vacuous: it must exercise both comparison
    // phases and at least one trapping reference (uncured presets show
    // those as golden-phase CheckStrengthReduction).
    let all: Vec<_> = reports.iter().flat_map(|r| &r.cases).collect();
    assert!(all.iter().any(|c| c.phase == DiffPhase::Injected));
    assert!(all.iter().any(|c| c.phase == DiffPhase::Golden
        && c.verdict == DiffVerdict::CheckStrengthReduction
        && c.preset == "unsafe"));
}

proptest! {
    /// Generator validity: every seed's program passes the frontend
    /// (parse + type-check) — the generator may never emit source the
    /// toolchain rejects.
    #[test]
    fn every_seed_type_checks(seed in any::<u64>()) {
        difftest::generate_program(seed).unwrap_or_else(|e| {
            panic!("seed {seed}: {e}\n{}", difftest::generate_source(seed))
        });
    }

    /// Termination: under the reference pipeline and under the most
    /// aggressive optimizing preset alike, a generated program halts or
    /// traps within the step budget — never spins.
    #[test]
    fn every_seed_terminates_under_budget(seed in any::<u64>()) {
        let cfg = DiffConfig::default();
        let program = difftest::generate_program(seed).unwrap();
        for pipeline in [
            difftest::reference_pipeline(),
            safe_tinyos::Pipeline::safe_flid_inline_cxprop(),
        ] {
            let build = pipeline
                .build(program.clone(), mcu::Profile::mica2())
                .unwrap();
            let mut m = mcu::Machine::new(&build.image);
            m.run(cfg.budget_cycles);
            prop_assert!(
                m.state != mcu::RunState::Running,
                "seed {} still running after {} cycles under {}",
                seed,
                cfg.budget_cycles,
                pipeline.name()
            );
        }
    }
}
