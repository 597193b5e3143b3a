//! The whole-program race & atomicity harness.
//!
//! Builds every Mica2 app under three stacks — the cost baseline
//! (`cure(flid)|cxprop|prune`), the analyzer (`…|races|…`), and the
//! auto-hardener (`…|races(fix)|…`) — and reports:
//!
//! * the per-app diagnostic census by stable code (R001
//!   unprotected-sync-write, R002 torn-16bit-access, R003 async-rmw);
//! * what `races(fix)` cost: atomic sections added, fixpoint
//!   iterations, code-size and duty-cycle deltas vs the baseline;
//! * the torn-update atomicity campaign: targets enumerated from each
//!   app's unhardened build, the same logical faults injected into both
//!   builds, divergences compared;
//! * a differential-oracle spot check of the `races(fix)` stack
//!   (generated seeds + every app vs the cure-only reference).
//!
//! Emits `BENCH_races.json`, gated by the `race_analysis` contract
//! (`bench::gate`): CI pins the `"analysis"` object against the
//! committed baseline, and this harness self-gates the invariants every
//! run must meet — every app yields diagnostics, every fix build reaches
//! the zero-diagnostic fixpoint, hardened builds are torn-update immune
//! while unhardened builds measurably diverge, and the oracle sees zero
//! miscompiles.

use bench::races::{analysis_json, dynamics_json, measure, oracle_check};
use bench::{emit_json, gate, json, row, Knobs};
use safe_tinyos::BuildService;

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let seconds = knobs.sim_seconds;
    let apps = tosapps::mica2_apps();
    // The oracle spot check is a sanity pass, not the difftest sweep:
    // cap the seed population so the harness stays quick even with
    // default knobs.
    let seeds: Vec<u64> = (0..knobs.diff_seeds.min(12))
        .map(|i| knobs.diff_base + i)
        .collect();

    println!(
        "Race & atomicity analysis — {} apps, {} torn injections/target, {seconds}s workloads",
        apps.len(),
        knobs.torn_sites
    );
    let rows = measure(&service, &apps, seconds, knobs.torn_sites);
    let oracle = oracle_check(&service, &seeds, &apps, seconds);

    println!(
        "{}",
        row(
            "app",
            &["R001", "R002", "R003", "sections", "Δcode", "torn", "fixed"].map(String::from)
        )
    );
    for r in &rows {
        println!(
            "{}",
            row(
                &r.app,
                &[
                    r.codes.r001.to_string(),
                    r.codes.r002.to_string(),
                    r.codes.r003.to_string(),
                    r.sections_added.to_string(),
                    format!("{:+.1}%", r.code_delta_pct),
                    format!("{}→{}", r.unhardened_divergences, r.hardened_divergences),
                    (r.fix_residual == 0).to_string(),
                ]
            )
        );
    }

    let body = json::Obj::new()
        .str("figure", "race_analysis")
        .raw("analysis", &analysis_json(&rows))
        .raw(
            "dynamics",
            &dynamics_json(&rows, seconds, knobs.torn_sites, oracle, seeds.len()),
        )
        .build();
    emit_json("races", &body).expect("write BENCH_races.json");
    gate::self_gate(&body);

    let unhardened: usize = rows.iter().map(|r| r.unhardened_divergences).sum();
    println!();
    println!(
        "races(fix) reached the zero-diagnostic fixpoint on all {} apps;",
        rows.len()
    );
    println!(
        "torn-update campaign: {unhardened} divergence(s) unhardened vs 0 hardened; \
         oracle: {} case(s), zero miscompiles.",
        oracle.1
    );
}
