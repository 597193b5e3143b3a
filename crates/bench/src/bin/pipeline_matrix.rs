//! The pass-stack composition matrix: the figure the paper *couldn't*
//! afford to run.
//!
//! Figure 2 compares four hand-picked optimizer stacks and Figure 3
//! seven; this harness sweeps a 15-stack matrix of pass subsets, orders,
//! options, and error modes — every stack a one-line pipeline spec —
//! over three representative applications, through one shared
//! [`BuildService`]. Per cell it records the full size/check census,
//! the per-pass wall-time breakdown, and a short simulation health
//! check, and emits everything to `BENCH_pipeline_matrix.json`.
//!
//! `STOS_PIPELINE` (a `;`-separated list of specs or preset names)
//! replaces the default stack list, so any composition question is a
//! shell variable away.

use bench::{emit_json, emit_speed, grid, json, Knobs};
use safe_tinyos::{pipelines_from_env_or, simulate, BuildService, Pipeline};

/// Three apps spanning the size range: the smallest, a mid-size sensing
/// app, and the largest (multihop routing).
const APPS: [&str; 3] = ["BlinkTask_Mica2", "Oscilloscope_Mica2", "Surge_Mica2"];

/// The default matrix: subsets (which passes run), orders (inline
/// before/after cXprop, composite vs. staged), options (domains, round
/// counts, thresholds), error modes, and backend strength.
fn default_stacks() -> Vec<Pipeline> {
    [
        // -- subsets: one pass at a time onto the bare backend --
        "backend",
        "cure(flid)",
        "cure(flid)|inline",
        "cure(flid)|cxprop|prune",
        "cure(flid)|inline|cxprop|prune",
        // -- orders: staged vs. composite vs. inliner-last --
        "cure(flid)|cxprop(inline)|prune",
        "cure(flid)|cxprop|inline|prune",
        // -- error modes under the full stack --
        "cure(terse)|inline|cxprop|prune",
        "cure(verbose-ram)|inline|cxprop|prune",
        // -- pass options --
        "cure(flid,noopt)|inline|cxprop|prune",
        "cure(flid)|inline|cxprop(domain=constants)|prune",
        "cure(flid)|inline|cxprop(rounds=1)|prune",
        "cure(flid)|inline(max-size=48)|cxprop|prune",
        // -- backend strength and the unsafe-optimized reference --
        "cure(flid)|inline|cxprop|prune|backend(noopt)",
        "inline|cxprop|prune",
    ]
    .iter()
    .map(|s| Pipeline::parse(s).expect("default matrix specs are valid"))
    .collect()
}

/// What one matrix cell measured.
struct Cell {
    metrics: safe_tinyos::Metrics,
    duty_pct: f64,
    state: mcu::RunState,
    fault: Option<String>,
}

fn main() {
    let knobs = Knobs::from_env();
    let service = BuildService::with_threads(knobs.threads);
    let seconds = knobs.sim_seconds;
    let stacks = pipelines_from_env_or(default_stacks);
    let grid = grid(&service, &APPS, &stacks, |spec, p| {
        let build = service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        let run = simulate(&build, spec, seconds);
        Cell {
            metrics: build.metrics,
            duty_pct: run.duty_cycle_percent,
            state: run.state,
            fault: run.fault,
        }
    });

    println!(
        "Pipeline matrix — {} stacks x {} apps ({seconds}s simulated per cell)\n",
        stacks.len(),
        APPS.len()
    );
    println!(
        "{:<52}{:>16}{:>16}{:>16}",
        "stack (code B / surviving checks)", "BlinkTask", "Oscilloscope", "Surge"
    );
    let mut cells = Vec::new();
    for (si, stack) in stacks.iter().enumerate() {
        let mut line = format!("{:<52}", stack.name());
        for (ai, app) in APPS.iter().enumerate() {
            let cell = &grid[ai][si];
            let m = &cell.metrics;
            line.push_str(&format!(
                "{:>16}",
                format!("{}/{}", m.code_bytes, m.checks_surviving)
            ));
            if !matches!(cell.state, mcu::RunState::Sleeping | mcu::RunState::Running) {
                println!(
                    "  !! {app} under {}: {:?} ({:?})",
                    stack.name(),
                    cell.state,
                    cell.fault
                );
            }
            let mut pass_obj = json::Obj::new();
            for (pass, t) in m.pass_times.iter() {
                pass_obj = pass_obj.num(pass, t.as_secs_f64() * 1e3);
            }
            let mut obj = json::Obj::new()
                .str("app", app)
                .str("stack", stack.name())
                .int("code_bytes", m.code_bytes as i64)
                .int("flash_bytes", m.flash_bytes as i64)
                .int("sram_bytes", m.sram_bytes as i64)
                .int("checks_inserted", m.checks_inserted as i64)
                .int("checks_surviving", m.checks_surviving as i64)
                .int("locks_inserted", m.locks_inserted as i64)
                .num("duty_pct", cell.duty_pct)
                .str("state", &format!("{:?}", cell.state));
            if let Some(fault) = &cell.fault {
                obj = obj.str("fault", fault);
            }
            cells.push(obj.raw("pass_ms", &pass_obj.build()).build());
        }
        println!("{line}");
    }

    let stack_rows = stacks.iter().map(|s| {
        json::Obj::new()
            .str("name", s.name())
            .str("spec", &s.spec())
            .build()
    });
    let body = json::Obj::new()
        .str("figure", "pipeline_matrix")
        .int("seconds", seconds as i64)
        .raw(
            "apps",
            &json::arr(APPS.iter().map(|a| format!("\"{}\"", json::esc(a)))),
        )
        .raw("stacks", &json::arr(stack_rows))
        .raw("cells", &json::arr(cells))
        .build();
    emit_json("pipeline_matrix", &body).expect("write BENCH_pipeline_matrix.json");
    emit_speed(&service, "pipeline_matrix");
    println!();
    println!("Expected shape: safety alone adds 20-90% code; each optimizer pass");
    println!("claws some back; inline-then-cxprop beats cxprop-then-inline (context");
    println!("sensitivity needs the inlined bodies *before* the fixpoint); the");
    println!("composite cxprop(inline) ties the staged form; a weak backend leaves");
    println!("easy checks on the table.");
}
