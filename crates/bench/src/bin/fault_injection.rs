//! The fault-injection campaign: injected-corruption detection rates per
//! pipeline — the paper's §2 claim ("cured programs trap where uncured
//! ones silently corrupt") measured the way runtime-integrity surveys
//! evaluate, as a campaign over deterministic corruption sites.
//!
//! Grid: every Mica2 app × {uncured gcc, the interval- and
//! constants-domain cured stacks, the `noharden` collapse exhibit} ×
//! `STOS_FAULTS` injection sites, each site a seeded corruption (index
//! cells, RAM bit flips, wild pointer words, frame-pointer upsets)
//! applied mid-run and triaged against a golden run. Emits
//! `BENCH_fault_injection.json` and self-gates it with the
//! `fault_injection` contract (`bench::gate`): on the default grid,
//! every cured pipeline with hardened check elimination detects strictly
//! more injected faults than uncured `gcc` (the interval-domain stacks
//! included — the check-elimination fix this grid once pinned as
//! missing), and the classical-policy `noharden` stack detects exactly
//! zero.

use bench::fault::{campaign_grid, default_pipelines, print_table, render_json};
use bench::{emit_json, gate, Knobs};
use safe_tinyos::{BuildService, CampaignConfig};

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let pipelines = knobs.pipelines.clone().unwrap_or_else(default_pipelines);
    let config = CampaignConfig {
        seconds: knobs.sim_seconds,
        sites: knobs.fault_sites,
        ..CampaignConfig::default()
    };
    let apps = tosapps::mica2_apps();
    let grid = campaign_grid(&service, &apps, &pipelines, &config);

    println!(
        "Fault injection — detection rates over {} sites/cell, {}s simulated",
        config.sites, config.seconds
    );
    print_table(&apps, &pipelines, &grid);
    let body = render_json(&apps, &pipelines, &config, &grid);
    emit_json("fault_injection", &body).expect("write BENCH_fault_injection.json");
    gate::self_gate(&body);
    println!();
    println!("Expected shape (paper §2): the uncured gcc build never detects —");
    println!("corruption is silent or a raw crash. Cured stacks trap the same");
    println!("injections with FLIDs the host decodes to file:line diagnoses.");
    println!("The noharden stack shows what classical check elimination costs.");
}
