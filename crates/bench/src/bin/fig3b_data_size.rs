//! Figure 3(b): change in static data (SRAM) size relative to the unsafe
//! baseline. The paper clips this graph at +100% because the verbose
//! configurations are "outrageously high — thousands of percent".

use bench::{emit_json, emit_speed, grid, json, pct_change, row, Knobs};
use safe_tinyos::{pipelines_from_env_or, BuildService, Pipeline};

fn main() {
    let service = BuildService::with_threads(Knobs::from_env().threads);
    let bars = pipelines_from_env_or(Pipeline::fig3_bars);
    // Column 0 of the grid is the baseline every bar is compared to.
    let mut configs = vec![Pipeline::unsafe_baseline()];
    configs.extend(bars.iter().cloned());
    let grid = grid(&service, tosapps::APP_NAMES, &configs, |spec, p| {
        service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
            .metrics
    });
    let labels: Vec<String> = bars.iter().map(|c| c.name().to_string()).collect();
    println!("Figure 3(b) — Δ static data size vs. unsafe baseline (SRAM bytes)");
    println!(
        "{}",
        row("app", &[labels, vec!["baseline".into()]].concat())
    );
    let mut app_rows = Vec::new();
    for (name, builds) in tosapps::APP_NAMES.iter().zip(&grid) {
        let base_bytes = builds[0].sram_bytes as u64;
        let mut cells = Vec::new();
        let mut bar_obj = json::Obj::new();
        for (config, metrics) in bars.iter().zip(&builds[1..]) {
            let pct = pct_change(base_bytes, metrics.sram_bytes as u64);
            // The paper clips at +100%.
            if pct > 100.0 {
                cells.push(format!(">100% ({pct:.0}%)"));
            } else {
                cells.push(format!("{pct:+.0}%"));
            }
            bar_obj = bar_obj.num(config.name(), pct);
        }
        cells.push(format!("{base_bytes}"));
        println!("{}", row(name, &cells));
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .int("baseline_sram_bytes", base_bytes as i64)
                .raw("delta_pct", &bar_obj.build())
                .build(),
        );
    }
    let body = json::Obj::new()
        .str("figure", "fig3b_data_size")
        .raw("apps", &json::arr(app_rows))
        .build();
    emit_json("fig3b_data_size", &body).expect("write BENCH_fig3b_data_size.json");
    emit_speed(&service, "fig3b_data_size");
    println!();
    println!("Expected shape (paper): verbose error strings make RAM overhead");
    println!("catastrophic (clipped at 100%); FLIDs reduce it substantially; cXprop");
    println!("reduces it further via dead-variable elimination; cXprop also trims");
    println!("the unsafe apps slightly.");
}
