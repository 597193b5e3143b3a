//! The differential-execution miscompilation hunter.
//!
//! Subjects: `STOS_DIFF_SEEDS` generated TCL programs (seeds
//! `STOS_DIFF_BASE..+N`, SplitMix64-deterministic) plus every Mica2
//! benchmark app. Each subject runs through the full preset registry
//! (or `STOS_PIPELINE`) and through the reference `cure`-only pipeline;
//! observable behavior — UART/radio/LED traces, fault category, by-name
//! RAM snapshots, and fault-injected FLID outcomes — is compared and
//! every divergence classified as Miscompile / CheckStrengthReduction /
//! Benign. Emits `BENCH_difftest.json`.
//!
//! Self-gated by the `difftest` contract (`bench::gate`): **zero
//! Miscompile verdicts**, unconditionally — an optimizer stack that
//! changes a clean run's observable behavior is broken no matter what
//! was being swept — and, on the default preset grid, **zero
//! CheckStrengthReduction for cured presets**: with fault-hardened check
//! elimination, an optimized cured build detects every injected fault
//! the reference detects. (Uncured presets lose detection by design;
//! `cxprop(noharden)` sweeps lose it measurably — that collapse is the
//! experiment.)

use bench::diff::{app_reports, default_presets, print_table, render_json, seed_reports, tally};
use bench::{emit_json, emit_speed, gate, Knobs};
use safe_tinyos::{pipelines_from_env_or, BuildService, DiffConfig};

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let presets = pipelines_from_env_or(default_presets);
    let cfg = DiffConfig::default();
    let seconds = knobs.sim_seconds;
    let seeds: Vec<u64> = (0..knobs.diff_seeds).map(|i| knobs.diff_base + i).collect();
    let apps = tosapps::mica2_apps();

    println!(
        "Differential oracle — {} seeds (base {}), {} apps, {} presets vs cure-only reference",
        seeds.len(),
        knobs.diff_base,
        apps.len(),
        presets.len()
    );

    let mut reports = seed_reports(&service, &seeds, &presets, &cfg);
    reports.extend(app_reports(&service, &apps, &presets, seconds, &cfg));
    let tallies = tally(&presets, &reports);

    print_table(&tallies);
    let body = render_json(&seeds, &apps, &presets, &cfg, seconds, &tallies);
    emit_json("difftest", &body).expect("write BENCH_difftest.json");
    emit_speed(&service, "difftest");

    for t in &tallies {
        for d in &t.divergences {
            let phase = match d.phase {
                safe_tinyos::difftest::DiffPhase::Golden => "golden".to_string(),
                safe_tinyos::difftest::DiffPhase::Injected => format!("site {}", d.site),
            };
            println!(
                "  [{}] {} / {} {}: {}",
                d.verdict.key(),
                d.subject,
                t.preset,
                phase,
                d.detail
            );
        }
    }
    gate::self_gate(&body);
    println!();
    println!("Zero miscompiles: every preset is observably equivalent to the");
    println!("cure-only reference on clean runs, and cured presets keep full");
    println!("detection parity under injected faults (hardened elimination).");
}
