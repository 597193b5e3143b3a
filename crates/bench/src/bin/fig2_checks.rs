//! Figure 2: percentage of CCured-inserted checks eliminated by four
//! optimizer stacks, per application, plus the original check counts.

use bench::{emit_json, emit_speed, grid, json, row, Knobs};
use safe_tinyos::{pipelines_from_env_or, BuildService, Pipeline};

fn main() {
    let service = BuildService::with_threads(Knobs::from_env().threads);
    // The four paper stacks by default; STOS_PIPELINE sweeps any other
    // composition through the same harness.
    let stacks = pipelines_from_env_or(Pipeline::fig2_stacks);
    let grid = grid(&service, tosapps::APP_NAMES, &stacks, |spec, p| {
        service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
            .metrics
    });
    let labels: Vec<String> = stacks.iter().map(|c| c.name().to_string()).collect();
    println!("Figure 2 — checks removed by optimizer stack (higher is better)");
    println!(
        "{}",
        row("app", &[labels, vec!["inserted".into()]].concat())
    );
    let mut totals = vec![0usize; stacks.len()];
    let mut total_inserted = 0usize;
    let mut app_rows = Vec::new();
    for (name, builds) in tosapps::APP_NAMES.iter().zip(&grid) {
        let mut cells = Vec::new();
        let mut inserted = 0;
        let mut stack_obj = json::Obj::new();
        for (i, (config, metrics)) in stacks.iter().zip(builds).enumerate() {
            inserted = metrics.checks_inserted;
            let removed = inserted.saturating_sub(metrics.checks_surviving);
            totals[i] += removed;
            let pct = removed as f64 * 100.0 / inserted.max(1) as f64;
            cells.push(format!("{pct:.0}%"));
            stack_obj = stack_obj.num(config.name(), pct);
        }
        total_inserted += inserted;
        cells.push(format!("{inserted}"));
        println!("{}", row(name, &cells));
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .int("checks_inserted", inserted as i64)
                .raw("removed_pct", &stack_obj.build())
                .build(),
        );
    }
    let mut cells: Vec<String> = totals
        .iter()
        .map(|t| format!("{:.0}%", *t as f64 * 100.0 / total_inserted.max(1) as f64))
        .collect();
    cells.push(format!("{total_inserted}"));
    println!("{}", row("TOTAL", &cells));
    let mut total_obj = json::Obj::new().int("checks_inserted", total_inserted as i64);
    for (i, config) in stacks.iter().enumerate() {
        total_obj = total_obj.num(
            config.name(),
            totals[i] as f64 * 100.0 / total_inserted.max(1) as f64,
        );
    }
    let body = json::Obj::new()
        .str("figure", "fig2_checks")
        .raw("apps", &json::arr(app_rows))
        .raw("total", &total_obj.build())
        .build();
    emit_json("fig2_checks", &body).expect("write BENCH_fig2_checks.json");
    emit_speed(&service, "fig2_checks");
    println!();
    println!("Expected shape (paper): gcc alone removes a surprising share of easy");
    println!("checks; the CCured optimizer adds little beyond it; cXprop without");
    println!("inlining is similar; cXprop WITH inlining is best by a significant");
    println!("margin and the only stack that removes most checks everywhere.");
}
