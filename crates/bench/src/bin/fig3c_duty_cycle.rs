//! Figure 3(c): change in duty cycle (CPU awake time) relative to the
//! unsafe baseline, for the eleven Mica2 applications, each run in its
//! workload context.

use bench::{emit_json, grid, json, row, Knobs};
use safe_tinyos::{simulate, BuildService, Pipeline};

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let seconds = knobs.sim_seconds;
    // The four duty-cycle-relevant configurations: safe unoptimized,
    // safe fully optimized, unsafe optimized — compared to the baseline
    // in grid column 0.
    let bars = knobs.pipelines.clone().unwrap_or_else(|| {
        vec![
            Pipeline::safe_flid(),
            Pipeline::safe_flid_cxprop(),
            Pipeline::safe_flid_inline_cxprop(),
            Pipeline::unsafe_optimized(),
        ]
    });
    let mut configs = vec![Pipeline::unsafe_baseline()];
    configs.extend(bars.iter().cloned());
    let apps = tosapps::mica2_apps();
    // Each job builds and simulates one cell, returning its duty cycle.
    let grid = grid(&service, &apps, &configs, |spec, p| {
        let build = service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        simulate(&build, spec, seconds).duty_cycle_percent
    });
    let labels: Vec<String> = bars.iter().map(|c| c.name().to_string()).collect();
    println!("Figure 3(c) — Δ duty cycle vs. unsafe baseline ({seconds}s simulated)");
    println!(
        "{}",
        row("app", &[labels, vec!["baseline".into()]].concat())
    );
    let mut app_rows = Vec::new();
    for (name, duties) in apps.iter().zip(&grid) {
        let base_duty = duties[0];
        let mut cells = Vec::new();
        let mut cfg_obj = json::Obj::new();
        for (config, duty) in bars.iter().zip(&duties[1..]) {
            let delta = duty - base_duty;
            let rel = if base_duty > 0.0 {
                delta * 100.0 / base_duty
            } else {
                0.0
            };
            cells.push(format!("{rel:+.1}%"));
            cfg_obj = cfg_obj.num(config.name(), rel);
        }
        cells.push(format!("{base_duty:.2}%"));
        println!("{}", row(name, &cells));
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .num("baseline_duty_pct", base_duty)
                .raw("rel_delta_pct", &cfg_obj.build())
                .build(),
        );
    }
    let body = json::Obj::new()
        .str("figure", "fig3c_duty_cycle")
        .int("seconds", seconds as i64)
        .raw("apps", &json::arr(app_rows))
        .build();
    emit_json("fig3c_duty_cycle", &body).expect("write BENCH_fig3c_duty_cycle.json");
    println!();
    println!("Expected shape (paper): CCured alone slows apps by a few percent;");
    println!("cXprop alone speeds the unsafe apps by 3–10%; safe + cXprop lands");
    println!("about at the unsafe original — safety's CPU cost is optimized away.");
}
