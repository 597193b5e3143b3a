//! The fault-injection campaign harness: app × pipeline × injection-site
//! grids on a [`BuildService`], rendered as the
//! `BENCH_fault_injection.json` detection-rate report.
//!
//! This is the evaluation axis the paper claims but never plots: cured
//! images convert silent memory corruption into trapped,
//! FLID-diagnosable failures. The default grid compares the uncured
//! `gcc` baseline against three cured stacks; every fault plan, run, and
//! verdict is deterministic, so the rendered JSON is byte-identical
//! across worker-thread counts and across machines.
//!
//! The grid carries its own history lesson: through PR 4, the
//! interval-domain cured stacks detected *nothing* — classical check
//! elimination proves most index checks redundant under uncorrupted
//! program semantics and deletes them, fault coverage and all. The
//! engine's fault-hardened elimination policy (see `cxprop::engine`)
//! fixed that: a check is now removed only when its proof covers every
//! value a corrupted cell can take, so the interval stacks detect at
//! full parity with the constants-domain ones. The
//! `ccured+cxprop[ival,noharden]+gcc` stack keeps the classical policy
//! on the grid as a pinned experiment — its detection rate is asserted
//! to be exactly zero, so the collapse stays measurable instead of
//! becoming folklore.

use safe_tinyos::{run_campaign, BuildService, CampaignConfig, CampaignReport, Pipeline};

use crate::{grid, json, row};

/// The pinned-collapse stack: interval-domain cXprop with the classical
/// (pre-fix) check-elimination policy. The `fault_injection` contract
/// exempts it from detecting more than gcc and requires exactly zero.
pub const NOHARDEN_STACK: &str = "ccured+cxprop[ival,noharden]+gcc";

/// The default campaign pipelines: the uncured baseline the paper calls
/// `gcc` (plain nesC + backend, zero checks), the interval-domain
/// Figure 2 stacks (hardened elimination — nonzero detection), the
/// constants-domain contrast stacks, and the [`NOHARDEN_STACK`]
/// collapse exhibit.
pub fn default_pipelines() -> Vec<Pipeline> {
    vec![
        // In this campaign "gcc" is the *uncured* compiler, per the
        // paper's terminology — not the Figure 2 preset of the same
        // name (cure with the local optimizer off).
        Pipeline::unsafe_baseline().with_name("gcc"),
        Pipeline::fig2_ccured_gcc(),
        Pipeline::fig2_ccured_cxprop_gcc(),
        Pipeline::fig2_full(),
        Pipeline::parse("cure(flid)|cxprop(domain=constants)|prune")
            .expect("static spec")
            .with_name("ccured+cxprop[const]+gcc"),
        Pipeline::parse("cure(flid)|inline|cxprop(domain=constants)|prune")
            .expect("static spec")
            .with_name("ccured+inline+cxprop[const]+gcc"),
        Pipeline::parse("cure(flid)|cxprop(noharden)|prune")
            .expect("static spec")
            .with_name(NOHARDEN_STACK),
    ]
}

/// Runs the campaign grid: one [`CampaignReport`] per app × pipeline
/// cell, in deterministic grid order.
pub fn campaign_grid(
    service: &BuildService,
    apps: &[&'static str],
    pipelines: &[Pipeline],
    config: &CampaignConfig,
) -> Vec<Vec<CampaignReport>> {
    grid(service, apps, pipelines, |spec, pipeline| {
        let build = service
            .build(spec, pipeline)
            .unwrap_or_else(|e| panic!("{}: {e}", pipeline.name()));
        run_campaign(&build, spec, config)
    })
}

/// Renders the campaign grid as the `BENCH_fault_injection.json` body:
/// per-pipeline rollups (injection counts, verdict tally, detection
/// rate) with per-app breakdowns, every detection carrying its site,
/// cycle point, FLID, and decoded message.
pub fn render_json(
    apps: &[&'static str],
    pipelines: &[Pipeline],
    config: &CampaignConfig,
    grid: &[Vec<CampaignReport>],
) -> String {
    let mut pipeline_rows = Vec::new();
    for (ci, pipeline) in pipelines.iter().enumerate() {
        let mut totals = ccured::VerdictCounts::default();
        let mut app_rows = Vec::new();
        for (ai, app) in apps.iter().enumerate() {
            let report = &grid[ai][ci];
            totals.add(&report.counts);
            let detections = report.detections().map(|(site, flid, message)| {
                json::Obj::new()
                    .str("site", &site.site)
                    .int("at_cycle", site.at_cycle as i64)
                    .int("flid", flid as i64)
                    .str("message", message)
                    .build()
            });
            app_rows.push(
                json::Obj::new()
                    .str("app", app)
                    .int("detected", report.counts.detected as i64)
                    .int("crash", report.counts.crashed as i64)
                    .int("silent", report.counts.silent as i64)
                    .int("benign", report.counts.benign as i64)
                    .raw("detections", &json::arr(detections))
                    .build(),
            );
        }
        pipeline_rows.push(
            json::Obj::new()
                .str("pipeline", pipeline.name())
                .int("injected", totals.total() as i64)
                .int("detected", totals.detected as i64)
                .int("crash", totals.crashed as i64)
                .int("silent", totals.silent as i64)
                .int("benign", totals.benign as i64)
                .num("detection_rate_pct", totals.detection_rate_pct())
                .raw("apps", &json::arr(app_rows))
                .build(),
        );
    }
    json::Obj::new()
        .str("figure", "fault_injection")
        .int("seconds", config.seconds as i64)
        .int("sites", config.sites as i64)
        .int("seed", config.seed as i64)
        .raw("pipelines", &json::arr(pipeline_rows))
        .build()
}

/// Prints the campaign's summary table (apps down, pipelines across,
/// `detected/silent` per cell, rollup row at the bottom).
pub fn print_table(apps: &[&'static str], pipelines: &[Pipeline], grid: &[Vec<CampaignReport>]) {
    let labels: Vec<String> = pipelines.iter().map(|p| p.name().to_string()).collect();
    println!("{}", row("app (det/silent)", &labels));
    let mut totals = vec![ccured::VerdictCounts::default(); pipelines.len()];
    for (ai, app) in apps.iter().enumerate() {
        let cells: Vec<String> = grid[ai]
            .iter()
            .enumerate()
            .map(|(ci, r)| {
                totals[ci].add(&r.counts);
                format!("{}/{}", r.counts.detected, r.counts.silent)
            })
            .collect();
        println!("{}", row(app, &cells));
    }
    let rollup: Vec<String> = totals
        .iter()
        .map(|t| format!("{:.1}%", t.detection_rate_pct()))
        .collect();
    println!("{}", row("detection rate", &rollup));
}
