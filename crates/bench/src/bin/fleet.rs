//! The fleet-scale network-simulation harness.
//!
//! Builds Surge under the full safe stack once, then:
//!
//! * sweeps the event-driven fleet simulator over `STOS_MOTES` ×
//!   `STOS_FLEET_SEEDS` cells — lossy unit-disk grids with one mote
//!   power-cycling mid-run — and reports duty cycle, sink delivery
//!   rate, and windows granted per cell;
//! * checks the event-driven engine against the lockstep `Network`
//!   reference on a 3-mote lossless full mesh (byte-identical per-mote
//!   observations);
//! * runs the network-level fault campaign: a fixed 9-mote grid whose
//!   center mote gets its RAM corrupted at enumerated sites, with
//!   fleet-level verdicts (FLID detection at the victim vs. silent
//!   route poisoning observed at the sink).
//!
//! Emits `BENCH_fleet.json`, gated by the `fleet` contract
//! (`bench::gate`): CI pins the `"pinned"` object against the committed
//! baseline (rows matched by `(motes, seed)`, so CI can sweep fewer
//! cells than the committed artifact) and the `"counters"` object (each
//! cell's windows granted) the same way, and this harness self-gates
//! the invariants every run must meet. Cell wall times are printed in
//! the table only: the report is a pure function of the build and the
//! seeds.

use bench::fleet::{counters_json, measure, pinned_json, run_campaign, sweep_cells, SWEEP_QUALITY};
use bench::{emit_json, gate, grid, json, row, Knobs};
use safe_tinyos::fleet::{lockstep_matches_event_driven, FleetSpec};
use safe_tinyos::{BuildService, Pipeline};

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let seconds = knobs.fleet_seconds;
    let motes = &knobs.fleet_motes;
    let cells = sweep_cells(motes, knobs.fleet_seeds);
    println!(
        "Fleet simulator — {} cells ({motes:?} motes × {} seeds), {seconds}s each, \
         loss {} ppm",
        cells.len(),
        knobs.fleet_seeds,
        SWEEP_QUALITY.loss_ppm
    );

    let pipelines = [Pipeline::safe_flid_inline_cxprop()];
    let builds = grid(&service, &["Surge_Mica2"], &pipelines, |spec, p| {
        service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
    });
    let build = &builds[0][0];

    let rows = measure(&service, build, &cells, seconds);
    println!(
        "{}",
        row(
            "motes/seed",
            &["duty%", "heard", "offered", "deliv%", "drop", "reboot", "wall ms"].map(String::from)
        )
    );
    for r in &rows {
        println!(
            "{}",
            row(
                &format!("{}/{}", r.motes, r.seed),
                &[
                    format!("{:.2}", r.duty_pct),
                    r.report.heard.to_string(),
                    r.report.offered.to_string(),
                    format!("{:.1}", r.report.delivery_rate_pct),
                    r.stats.dropped.to_string(),
                    r.stats.reboots.to_string(),
                    format!("{:.0}", r.wall_ms),
                ]
            )
        );
    }

    let equivalence_ok =
        lockstep_matches_event_driven(build, &FleetSpec::lossless_mesh(3, 2, 0x5EED));
    let campaign = run_campaign(&service, build);
    let (counts, sites) = campaign;
    println!(
        "campaign: {sites} sites on the 9-mote grid — {} detected, {} crashed, \
         {} poisoned, {} contained, {} benign",
        counts.detected, counts.crashed, counts.poisoned, counts.contained, counts.benign
    );

    let body = json::Obj::new()
        .str("figure", "fleet")
        .raw(
            "pinned",
            &pinned_json(&rows, seconds, campaign, equivalence_ok),
        )
        .raw("counters", &counters_json(&rows))
        .build();
    emit_json("fleet", &body).expect("write BENCH_fleet.json");
    gate::self_gate(&body);

    println!();
    println!(
        "event-driven engine matched lockstep byte-for-byte; \
         {} sweep cells delivered data to the sink.",
        rows.len()
    );
}
