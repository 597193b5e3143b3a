//! The whole-program stack-bound harness.
//!
//! Builds every Mica2 app under all 12 presets with a `stackbound` pass
//! appended, runs each build in the simulator, and reports:
//!
//! * the certified worst-case stack bound per cell, decomposed into
//!   task depth + interrupt overhead, with the S00x diagnostic census
//!   (S001 unbounded-recursion, S002 unresolved-call-target, S003
//!   stack-budget-exceeded);
//! * the simulator-observed stack watermark per cell, and the
//!   bound-vs-watermark tightness under the full safe stack.
//!
//! Emits `BENCH_stack.json`, gated by the `stack_analysis` contract
//! (`bench::gate`): CI pins the `"analysis"` object against the
//! committed baseline (identical for any worker count and either
//! engine), and this harness self-gates the invariants every run must
//! meet — every cell's bound is finite, dominates the observed
//! watermark, and stays inside the SRAM budget with zero S00x findings,
//! and every app wires at least one interrupt vector somewhere in the
//! grid.

use bench::stack::{analysis_json, dynamics_json, measure, FULL_STACK};
use bench::{emit_json, gate, json, row, Knobs};
use safe_tinyos::BuildService;

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let seconds = knobs.sim_seconds;
    let apps = tosapps::mica2_apps();

    println!(
        "Stack-bound analysis — {} apps × 12 presets, {seconds}s workloads",
        apps.len()
    );
    let rows = measure(&service, &apps, seconds);

    println!(
        "{}",
        row(
            "app",
            &["bound", "task+isr", "watermark", "tight", "budget"].map(String::from)
        )
    );
    for r in &rows {
        let full = &r.cells[FULL_STACK];
        // An unbounded cell fails the contract once the report is out.
        let Some(bound) = full.stats.bound_bytes else {
            continue;
        };
        println!(
            "{}",
            row(
                &r.app,
                &[
                    format!("{bound}B"),
                    format!(
                        "{}+{}",
                        full.stats.task_bytes.unwrap_or(0),
                        full.stats.isr_bytes.unwrap_or(0)
                    ),
                    format!("{}B", full.watermark),
                    format!(
                        "{:.0}%",
                        f64::from(full.watermark) * 100.0 / f64::from(bound)
                    ),
                    format!("{}B", full.stats.budget_bytes),
                ]
            )
        );
    }

    let body = json::Obj::new()
        .str("figure", "stack_analysis")
        .raw("analysis", &analysis_json(&rows))
        .raw("dynamics", &dynamics_json(&rows, seconds))
        .build();
    emit_json("stack", &body).expect("write BENCH_stack.json");
    gate::self_gate(&body);

    let cells = rows.iter().map(|r| r.cells.len()).sum::<usize>();
    println!();
    println!(
        "all {cells} app × preset cells certified: static bound ≥ observed watermark, \
         within the SRAM budget, zero S00x findings."
    );
}
