//! The differential-oracle harness: generated seeds + benchmark apps ×
//! the full preset registry, compared against the cure-only reference
//! pipeline and rendered as `BENCH_difftest.json`.
//!
//! Thin driver over [`safe_tinyos::difftest`]: this module owns the
//! grid shape (seeds through [`BuildService::run_jobs`], apps
//! through [`crate::grid`]), the verdict roll-ups, and
//! the JSON/table rendering. Everything downstream of the seeds is a
//! pure function, so serial and parallel runs emit identical bytes.

use safe_tinyos::difftest::{self, DiffCase, DiffConfig, DiffPhase, DiffVerdict, SubjectReport};
use safe_tinyos::{BuildService, Pipeline, PRESET_NAMES};

use crate::{grid, json, row};

/// The default comparison set: every registry preset. The reference
/// (`cure` alone) rides along under its own name as a self-check — it
/// must match itself exactly.
pub fn default_presets() -> Vec<Pipeline> {
    PRESET_NAMES
        .iter()
        .map(|n| Pipeline::preset(n).expect("registry name"))
        .collect()
}

/// Whether a preset owes the reference full detection parity under
/// injected faults: it cures, and it did not explicitly waive the
/// hardened check-elimination policy. A `cxprop(noharden)` stack exists
/// precisely to demonstrate lost coverage, so its CheckStrengthReduction
/// verdicts are the experiment, not a regression — excluding it here
/// keeps it out of the `total_cured_strength_reductions` the `difftest`
/// contract in [`crate::gate`] requires to be zero.
pub fn is_cured(p: &Pipeline) -> bool {
    let spec = p.spec();
    spec.contains("cure(") && !spec.contains("noharden")
}

/// Runs the generated-program population: one [`SubjectReport`] per
/// seed, in seed order.
pub fn seed_reports(
    service: &BuildService,
    seeds: &[u64],
    presets: &[Pipeline],
    cfg: &DiffConfig,
) -> Vec<SubjectReport> {
    service.run_jobs(seeds.len(), |i| {
        let seed = seeds[i];
        difftest::diff_seed(seed, presets, cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", difftest::generate_source(seed)))
    })
}

/// Runs the benchmark-app population: one [`SubjectReport`] per app,
/// in app order, workloads `seconds` long.
pub fn app_reports(
    service: &BuildService,
    apps: &[&'static str],
    presets: &[Pipeline],
    seconds: u64,
    cfg: &DiffConfig,
) -> Vec<SubjectReport> {
    let rows = grid(service, apps, presets, |spec, preset| {
        difftest::diff_app(service.session(), spec, preset, seconds, cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", preset.name()))
    });
    apps.iter()
        .zip(rows)
        .map(|(app, rows)| SubjectReport {
            subject: app.to_string(),
            cases: rows.into_iter().flatten().collect(),
        })
        .collect()
}

/// Per-preset verdict tallies split by comparison phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PresetTally {
    /// Preset name.
    pub preset: String,
    /// Golden-run tally.
    pub golden: safe_tinyos::DiffCounts,
    /// Injected-replay tally.
    pub injected: safe_tinyos::DiffCounts,
    /// Every non-Match case, in subject order.
    pub divergences: Vec<DiffCase>,
}

/// Rolls the reports up by preset (presets in `presets` order).
pub fn tally(presets: &[Pipeline], reports: &[SubjectReport]) -> Vec<PresetTally> {
    let mut out: Vec<PresetTally> = presets
        .iter()
        .map(|p| PresetTally {
            preset: p.name().to_string(),
            ..PresetTally::default()
        })
        .collect();
    for report in reports {
        for case in &report.cases {
            let Some(t) = out.iter_mut().find(|t| t.preset == case.preset) else {
                continue;
            };
            match case.phase {
                DiffPhase::Golden => t.golden.record(case.verdict),
                DiffPhase::Injected => t.injected.record(case.verdict),
            }
            if case.verdict != DiffVerdict::Match {
                t.divergences.push(case.clone());
            }
        }
    }
    out
}

/// Total miscompile verdicts across a tally set.
pub fn total_miscompiles(tallies: &[PresetTally]) -> usize {
    tallies
        .iter()
        .map(|t| t.golden.miscompile + t.injected.miscompile)
        .sum()
}

/// Total check-strength-reduction verdicts across the *cured* presets
/// of a tally set (uncured ones lose detection by design).
pub fn cured_strength_reductions(presets: &[Pipeline], tallies: &[PresetTally]) -> usize {
    tallies
        .iter()
        .filter(|t| presets.iter().any(|p| p.name() == t.preset && is_cured(p)))
        .map(|t| t.golden.check_strength_reduction + t.injected.check_strength_reduction)
        .sum()
}

fn counts_obj(c: &safe_tinyos::DiffCounts) -> String {
    json::Obj::new()
        .int("match", c.matched as i64)
        .int("benign", c.benign as i64)
        .int(
            "check_strength_reduction",
            c.check_strength_reduction as i64,
        )
        .int("miscompile", c.miscompile as i64)
        .build()
}

/// Renders the `BENCH_difftest.json` body.
pub fn render_json(
    seeds: &[u64],
    apps: &[&'static str],
    presets: &[Pipeline],
    cfg: &DiffConfig,
    seconds: u64,
    tallies: &[PresetTally],
) -> String {
    let preset_rows = tallies.iter().map(|t| {
        let divergences = t.divergences.iter().map(|d| {
            json::Obj::new()
                .str("subject", &d.subject)
                .str(
                    "phase",
                    match d.phase {
                        DiffPhase::Golden => "golden",
                        DiffPhase::Injected => "injected",
                    },
                )
                .str("site", &d.site)
                .str("verdict", d.verdict.key())
                .str("detail", &d.detail)
                .build()
        });
        json::Obj::new()
            .str("preset", &t.preset)
            .raw("golden", &counts_obj(&t.golden))
            .raw("injected", &counts_obj(&t.injected))
            .raw("divergences", &json::arr(divergences))
            .build()
    });
    json::Obj::new()
        .str("figure", "difftest")
        .int("seeds", seeds.len() as i64)
        .int("seed_base", seeds.first().copied().unwrap_or(0) as i64)
        .int("apps", apps.len() as i64)
        .int("budget_cycles", cfg.budget_cycles as i64)
        .int("fault_sites", cfg.fault_sites as i64)
        .int("site_seed", cfg.seed as i64)
        .int("seconds", seconds as i64)
        .int("total_miscompiles", total_miscompiles(tallies) as i64)
        .int(
            "total_cured_strength_reductions",
            cured_strength_reductions(presets, tallies) as i64,
        )
        .raw("presets", &json::arr(preset_rows))
        .build()
}

/// Prints the per-preset summary table
/// (`match/benign/CSR/miscompile`, golden + injected folded).
pub fn print_table(tallies: &[PresetTally]) {
    println!(
        "{}",
        row(
            "preset",
            &[
                "match".to_string(),
                "benign".to_string(),
                "csr".to_string(),
                "miscompile".to_string(),
            ],
        )
    );
    for t in tallies {
        let mut all = t.golden;
        all.add(&t.injected);
        println!(
            "{}",
            row(
                &t.preset,
                &[
                    all.matched.to_string(),
                    all.benign.to_string(),
                    all.check_strength_reduction.to_string(),
                    all.miscompile.to_string(),
                ],
            )
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_routes_phases_and_collects_divergences() {
        let presets = vec![Pipeline::unsafe_baseline()];
        let reports = vec![SubjectReport {
            subject: "s".into(),
            cases: vec![
                DiffCase {
                    subject: "s".into(),
                    preset: "unsafe".into(),
                    phase: DiffPhase::Golden,
                    site: String::new(),
                    verdict: DiffVerdict::Match,
                    detail: String::new(),
                },
                DiffCase {
                    subject: "s".into(),
                    preset: "unsafe".into(),
                    phase: DiffPhase::Injected,
                    site: "bitflip@g0^80@100".into(),
                    verdict: DiffVerdict::CheckStrengthReduction,
                    detail: "ref detected".into(),
                },
            ],
        }];
        let tallies = tally(&presets, &reports);
        assert_eq!(tallies[0].golden.matched, 1);
        assert_eq!(tallies[0].injected.check_strength_reduction, 1);
        assert_eq!(tallies[0].divergences.len(), 1);
        assert_eq!(total_miscompiles(&tallies), 0);
        // `unsafe` is not cured: its CSR does not count against the gate.
        assert_eq!(cured_strength_reductions(&presets, &tallies), 0);
    }

    #[test]
    fn noharden_stacks_waive_detection_parity() {
        // The classical-policy collapse exhibit loses detections by
        // design: it must not count against the `difftest` contract's
        // parity invariant, whatever grid produced the report.
        let noharden = Pipeline::parse("cure(flid)|cxprop(noharden)|prune").unwrap();
        assert!(!is_cured(&noharden));
        assert!(is_cured(&Pipeline::safe_flid_cxprop()));
        assert!(!is_cured(&Pipeline::unsafe_baseline()));
    }

    #[test]
    fn cured_detection_loss_counts() {
        let presets = vec![Pipeline::safe_flid_cxprop()];
        let tallies = vec![PresetTally {
            preset: "safe-flid-cxprop".into(),
            injected: {
                let mut c = safe_tinyos::DiffCounts::default();
                c.record(DiffVerdict::CheckStrengthReduction);
                c
            },
            ..PresetTally::default()
        }];
        assert_eq!(cured_strength_reductions(&presets, &tallies), 1);
    }
}
