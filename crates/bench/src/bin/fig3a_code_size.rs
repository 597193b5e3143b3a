//! Figure 3(a): change in code size relative to the unsafe, unoptimized
//! baseline, across the seven configurations.
//!
//! The fig3 grid is also the canonical toolchain-speed benchmark: after
//! the cold grid is measured and emitted, the same grid runs a second
//! time against the warm frontend and pass caches. The speed report is
//! the cold window's service snapshot, and its `cache` section gains
//! the warm window (the difference between the snapshots after and
//! before the re-run) plus the cure-run census, which the
//! `toolchain_speed` contract (`bench::gate`) checks here and, from the
//! published bytes, in CI.

use std::collections::BTreeSet;

use bench::speed::Snapshot;
use bench::{emit_json, gate, grid, json, pct_change, row, Knobs};
use safe_tinyos::{BuildService, Metrics, Pipeline};

/// Renders the figure from a measured grid: the printable table rows
/// and the machine-readable body. Pure, so the warm re-run can be
/// byte-compared against the cold one.
fn render(bars: &[Pipeline], grid: &[Vec<Metrics>]) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    let mut app_rows = Vec::new();
    for (name, builds) in tosapps::APP_NAMES.iter().zip(grid) {
        let base_bytes = builds[0].flash_bytes as u64;
        let mut cells = Vec::new();
        let mut bar_obj = json::Obj::new();
        for (config, metrics) in bars.iter().zip(&builds[1..]) {
            let pct = pct_change(base_bytes, metrics.flash_bytes as u64);
            cells.push(format!("{pct:+.0}%"));
            bar_obj = bar_obj.num(config.name(), pct);
        }
        cells.push(format!("{base_bytes}"));
        lines.push(row(name, &cells));
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .int("baseline_flash_bytes", base_bytes as i64)
                .raw("delta_pct", &bar_obj.build())
                .build(),
        );
    }
    let body = json::Obj::new()
        .str("figure", "fig3a_code_size")
        .raw("apps", &json::arr(app_rows))
        .build();
    (lines, body)
}

/// Builds every app under every configuration and returns the metrics.
fn measure(service: &BuildService, configs: &[Pipeline]) -> Vec<Vec<Metrics>> {
    grid(service, tosapps::APP_NAMES, configs, |spec, p| {
        service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
            .metrics
    })
}

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let bars = knobs.pipelines.clone().unwrap_or_else(Pipeline::fig3_bars);
    // Column 0 of the grid is the baseline every bar is compared to.
    let mut configs = vec![Pipeline::unsafe_baseline()];
    configs.extend(bars.iter().cloned());
    let grid = measure(&service, &configs);
    let labels: Vec<String> = bars.iter().map(|c| c.name().to_string()).collect();
    println!("Figure 3(a) — Δ code size vs. unsafe baseline (flash bytes)");
    println!(
        "{}",
        row("app", &[labels, vec!["baseline".into()]].concat())
    );
    let (lines, body) = render(&bars, &grid);
    for line in &lines {
        println!("{line}");
    }
    emit_json("fig3a_code_size", &body).expect("write BENCH_fig3a_code_size.json");
    let cold = Snapshot::of(&service);

    // Cache-effectiveness census on the cold window: the contract
    // requires the cure pass to have executed once per distinct
    // (app, cure spec) pair, not once per grid cell.
    let cure_specs: BTreeSet<String> = configs
        .iter()
        .filter_map(|p| {
            p.spec()
                .split('|')
                .find(|seg| seg.starts_with("cure"))
                .map(str::to_string)
        })
        .collect();
    let cure_unique = (tosapps::APP_NAMES.len() * cure_specs.len()) as u64;

    // Warm window: the same grid against the now-warm caches must
    // reproduce the figure byte-for-byte without re-running any pass.
    let (_, warm_body) = render(&bars, &measure(&service, &configs));
    assert_eq!(warm_body, body, "warm-cache grid drifted from the cold one");
    let warm = Snapshot::of(&service);
    assert_eq!(
        warm.cache.get("cure").misses,
        cold.cache.get("cure").misses,
        "the warm grid re-executed the cure pass"
    );

    // The fig3 grid is the canonical toolchain-speed benchmark.
    let speed = cold.to_json("fig3a_code_size", Some((&warm, cure_unique)));
    emit_json("toolchain_speed_fig3a_code_size", &speed)
        .expect("write BENCH_toolchain_speed_fig3a_code_size.json");
    emit_json("toolchain_speed", &speed).expect("write BENCH_toolchain_speed.json");
    gate::self_gate(&speed);
    println!();
    println!("Expected shape (paper): naive safety costs 20–90% code; verbose-in-ROM");
    println!("is higher still; terse/FLID recover much of it; cXprop (esp. with");
    println!("inlining) brings safe code near the unsafe baseline; cXprop applied to");
    println!("the *unsafe* app shrinks it 10–25% (the 'new baseline').");
}
