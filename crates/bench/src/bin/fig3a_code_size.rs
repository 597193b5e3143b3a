//! Figure 3(a): change in code size relative to the unsafe, unoptimized
//! baseline, across the seven configurations.
//!
//! The fig3 grid also carries the pass cache's census. After the cold
//! grid is measured, the same grid runs a second time against the warm
//! frontend and pass caches and must reproduce the figure without
//! running any pass. The report's `counters` hold the cold grid's jobs,
//! frontend compiles and per-pass cache counters, the number of
//! distinct (app, cure spec) inputs, and the warm re-run's misses; the
//! `fig3a_code_size` contract (`bench::gate`) pins them and checks them
//! here and, from the published bytes, in CI. All of them are work
//! counts, the same for any worker count.

use std::collections::BTreeSet;

use bench::{emit_json, gate, grid, json, pct_change, row, Knobs};
use safe_tinyos::{BuildService, CacheStats, Metrics, Pipeline};

/// Renders the figure from a measured grid: the printable table rows
/// and the `apps` array. Pure, so the warm re-run can be byte-compared
/// against the cold one.
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
    (lines, json::arr(app_rows))
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

/// Per pass: hits, misses and retained bytes.
fn passes_json(stats: &CacheStats) -> String {
    let mut passes = json::Obj::new();
    for (name, c) in &stats.passes {
        let counters = json::Obj::new()
            .int("hits", c.hits as i64)
            .int("misses", c.misses as i64)
            .int("bytes", c.bytes as i64)
            .build();
        passes = passes.raw(name, &counters);
    }
    passes.build()
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
    let (lines, apps) = render(&bars, &grid);
    for line in &lines {
        println!("{line}");
    }
    let jobs = service.jobs();
    let compiles = service.session().frontend_compiles();
    let cold = service.cache_stats();

    // The contract requires the cure pass to have executed once per
    // distinct (app, cure spec) pair, not once per grid cell.
    let cure_specs: BTreeSet<String> = configs
        .iter()
        .filter_map(|p| {
            p.spec()
                .split('|')
                .find(|seg| seg.starts_with("cure"))
                .map(str::to_string)
        })
        .collect();
    let cure_unique = tosapps::APP_NAMES.len() * cure_specs.len();

    // Warm window: the same grid against the now-warm caches must
    // reproduce the figure byte-for-byte without re-running any pass.
    let (_, warm_apps) = render(&bars, &measure(&service, &configs));
    assert_eq!(warm_apps, apps, "warm-cache grid drifted from the cold one");
    let warm_misses: u64 = service
        .cache_stats()
        .passes
        .iter()
        .map(|(name, c)| c.misses - cold.get(name).misses)
        .sum();

    let counters = json::Obj::new()
        .int("jobs", jobs as i64)
        .int("frontend_compiles", compiles as i64)
        .int("cure_unique", cure_unique as i64)
        .raw("passes", &passes_json(&cold))
        .int("warm_misses", warm_misses as i64)
        .build();
    let body = json::Obj::new()
        .str("figure", "fig3a_code_size")
        .raw("apps", &apps)
        .raw("counters", &counters)
        .build();
    emit_json("fig3a_code_size", &body).expect("write BENCH_fig3a_code_size.json");
    gate::self_gate(&body);
    println!();
    println!("Expected shape (paper): naive safety costs 20–90% code; verbose-in-ROM");
    println!("is higher still; terse/FLID recover much of it; cXprop (esp. with");
    println!("inlining) brings safe code near the unsafe baseline; cXprop applied to");
    println!("the *unsafe* app shrinks it 10–25% (the 'new baseline').");
}
