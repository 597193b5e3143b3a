//! The stack-bound harness's data model: per-app × per-preset certified
//! bounds, diagnostic censuses, and simulator-observed watermarks (the
//! `stack_analysis` binary drives it, the `stack_analysis` contract in
//! [`crate::gate`] checks the published artifact).
//!
//! The emitted `BENCH_stack.json` has two top-level objects with
//! different CI contracts:
//!
//! * `"analysis"` — the certified bound, its task/ISR decomposition,
//!   the SRAM budget, and the S00x census for every app × preset cell.
//!   Pure functions of the toolchain and the app sources, so CI
//!   compares the published object against the committed baseline —
//!   and because the analyzer runs
//!   over the linked image, the bytes are identical for any worker
//!   count and either execution engine.
//! * `"dynamics"` — the simulator's stack watermarks and
//!   bound-vs-watermark tightness. These depend on the run length
//!   (`STOS_SECONDS`), so they are not pinned against the committed
//!   baseline; instead the contract requires soundness (`watermark ≤
//!   bound` in every cell, surfaced as the `watermark_violations`
//!   field), and when two runs share a horizon the gate compares their
//!   `"watermarks"` object — that is how CI proves
//!   the interpreter and the translating engine observe identical
//!   watermarks.

use safe_tinyos::{simulate, BuildService, Pipeline, StackStats, PRESET_NAMES};

use crate::{grid, json};

/// Index of the paper's full safe stack in [`PRESET_NAMES`] — the
/// headline preset for per-app tightness reporting.
pub const FULL_STACK: usize = 7;

/// The 12 preset pipelines, each with a default-budget `stackbound`
/// pass appended (the preset's display name is preserved).
pub fn stack_presets() -> Vec<Pipeline> {
    PRESET_NAMES
        .iter()
        .map(|name| {
            let preset = Pipeline::preset(name).expect("known preset");
            Pipeline::parse(&format!("{}|stackbound", preset.spec()))
                .expect("preset spec + stackbound parses")
                .with_name(*name)
        })
        .collect()
}

/// One app × preset cell: the certified bound and the observed truth.
#[derive(Debug, Clone)]
pub struct StackCell {
    /// Preset name (grid-column label).
    pub preset: String,
    /// The analyzer's rollup for this build.
    pub stats: StackStats,
    /// `S001 unbounded-recursion` diagnostics.
    pub s001: usize,
    /// `S002 unresolved-call-target` diagnostics.
    pub s002: usize,
    /// `S003 stack-budget-exceeded` diagnostics.
    pub s003: usize,
    /// Deepest stack extent the simulator observed, in bytes.
    pub watermark: u16,
}

impl StackCell {
    /// Whether the certified bound is finite and dominates the observed
    /// watermark — the soundness contract, per cell.
    pub fn sound(&self) -> bool {
        self.stats
            .bound_bytes
            .is_some_and(|b| u32::from(self.watermark) <= b)
    }
}

/// One app's row of the stack grid: a cell per preset, in
/// [`PRESET_NAMES`] order.
#[derive(Debug, Clone)]
pub struct AppStackRow {
    /// App name.
    pub app: String,
    /// Per-preset cells.
    pub cells: Vec<StackCell>,
}

impl AppStackRow {
    /// The deepest watermark across every preset.
    pub fn max_watermark(&self) -> u16 {
        self.cells.iter().map(|c| c.watermark).max().unwrap_or(0)
    }
}

/// Builds every app under every preset (each with `stackbound`
/// appended), simulates each build for `seconds`, and returns the grid
/// rows in app order.
pub fn measure(service: &BuildService, apps: &[&'static str], seconds: u64) -> Vec<AppStackRow> {
    let rows = grid(service, apps, &stack_presets(), |spec, preset| {
        let build = service
            .build(spec, preset)
            .unwrap_or_else(|e| panic!("{}: {e}", preset.name()));
        let stats = build
            .metrics
            .stack
            .expect("the stackbound pass deposits stats");
        let (mut s001, mut s002, mut s003) = (0, 0, 0);
        for d in &build.metrics.diagnostics {
            match d.code.as_str() {
                "S001" => s001 += 1,
                "S002" => s002 += 1,
                "S003" => s003 += 1,
                _ => {}
            }
        }
        let sim = simulate(&build, spec, seconds);
        StackCell {
            preset: preset.name().to_string(),
            stats,
            s001,
            s002,
            s003,
            watermark: sim.stack_watermark,
        }
    });
    apps.iter()
        .zip(rows)
        .map(|(app, cells)| AppStackRow {
            app: app.to_string(),
            cells,
        })
        .collect()
}

fn opt_u32(v: Option<u32>) -> i64 {
    v.map_or(-1, i64::from)
}

/// Serializes the byte-pinned `"analysis"` object (everything in it is
/// a pure function of toolchain + sources: certified bounds, their
/// task/ISR split, budgets, and the S00x census — no run-length knobs,
/// no simulator state). Unbounded cells encode their bound as `-1`.
pub fn analysis_json(rows: &[AppStackRow]) -> String {
    let (mut t001, mut t002, mut t003, mut bounded) = (0, 0, 0, 0);
    let apps = rows
        .iter()
        .map(|r| {
            let presets = r
                .cells
                .iter()
                .map(|c| {
                    t001 += c.s001;
                    t002 += c.s002;
                    t003 += c.s003;
                    bounded += usize::from(c.stats.bound_bytes.is_some());
                    json::Obj::new()
                        .str("preset", &c.preset)
                        .int("bound", opt_u32(c.stats.bound_bytes))
                        .int("task", opt_u32(c.stats.task_bytes))
                        .int("isr", opt_u32(c.stats.isr_bytes))
                        .int("budget", i64::from(c.stats.budget_bytes))
                        .int("vectors", c.stats.wired_vectors as i64)
                        .int("nested_irqs", i64::from(c.stats.nested_irqs))
                        .int("s001", c.s001 as i64)
                        .int("s002", c.s002 as i64)
                        .int("s003", c.s003 as i64)
                        .build()
                })
                .collect::<Vec<_>>();
            json::Obj::new()
                .str("app", &r.app)
                .raw("presets", &json::arr(presets))
                .build()
        })
        .collect::<Vec<_>>();
    json::Obj::new()
        .raw("apps", &json::arr(apps))
        .raw(
            "totals",
            &json::Obj::new()
                .int("s001", t001 as i64)
                .int("s002", t002 as i64)
                .int("s003", t003 as i64)
                .int("bounded_cells", bounded as i64)
                .build(),
        )
        .build()
}

/// Serializes the `"dynamics"` object: watermarks and tightness, which
/// depend on the simulated horizon. `watermark_violations` counts cells
/// whose observed watermark is not dominated by a finite certified
/// bound — the soundness field the [`crate::gate`] contract requires to
/// be zero — and the `"watermarks"` object (app → per-preset watermark
/// array) is what the gate compares across same-horizon runs to prove
/// engine invariance.
pub fn dynamics_json(rows: &[AppStackRow], seconds: u64) -> String {
    let violations: usize = rows
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| !c.sound())
        .count();
    let mut watermarks = json::Obj::new();
    for r in rows {
        let per_preset = r
            .cells
            .iter()
            .map(|c| c.watermark.to_string())
            .collect::<Vec<_>>();
        watermarks = watermarks.raw(&r.app, &json::arr(per_preset));
    }
    let apps = rows
        .iter()
        .map(|r| {
            let full = &r.cells[FULL_STACK];
            let tightness = match full.stats.bound_bytes {
                Some(b) if b > 0 => f64::from(full.watermark) * 100.0 / f64::from(b),
                _ => 0.0,
            };
            json::Obj::new()
                .str("app", &r.app)
                .int("bound", opt_u32(full.stats.bound_bytes))
                .int("watermark", i64::from(full.watermark))
                .num("tightness_pct", tightness)
                .int("max_watermark", i64::from(r.max_watermark()))
                .build()
        })
        .collect::<Vec<_>>();
    json::Obj::new()
        .int("seconds", seconds as i64)
        .int("watermark_violations", violations as i64)
        .raw("watermarks", &watermarks.build())
        .raw("apps", &json::arr(apps))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_keep_names_and_gain_stackbound() {
        let presets = stack_presets();
        assert_eq!(presets.len(), PRESET_NAMES.len());
        assert_eq!(presets[FULL_STACK].name(), "safe-flid-inline-cxprop");
        for p in &presets {
            assert!(p.spec().ends_with("|stackbound"), "{}", p.spec());
        }
    }

    #[test]
    fn soundness_predicate_and_violation_count() {
        let cell = |bound: Option<u32>, watermark: u16| StackCell {
            preset: "p".into(),
            stats: StackStats {
                bound_bytes: bound,
                ..StackStats::default()
            },
            s001: 0,
            s002: 0,
            s003: 0,
            watermark,
        };
        assert!(cell(Some(100), 100).sound());
        assert!(!cell(Some(100), 101).sound());
        assert!(!cell(None, 0).sound(), "unbounded certifies nothing");
        let rows = vec![AppStackRow {
            app: "A".into(),
            cells: vec![cell(Some(64), 40); PRESET_NAMES.len()],
        }];
        let body = dynamics_json(&rows, 3);
        assert!(body.contains("\"watermark_violations\":0"), "{body}");
        assert!(body.contains("\"tightness_pct\":62.5"), "{body}");
    }

    #[test]
    fn analysis_json_is_knob_free() {
        let rows = vec![AppStackRow {
            app: "A".into(),
            cells: vec![
                StackCell {
                    preset: "unsafe".into(),
                    stats: StackStats {
                        bound_bytes: Some(56),
                        task_bytes: Some(40),
                        isr_bytes: Some(16),
                        budget_bytes: 4096,
                        wired_vectors: 2,
                        nested_irqs: false,
                    },
                    s001: 0,
                    s002: 0,
                    s003: 0,
                    watermark: 44,
                };
                1
            ],
        }];
        let body = analysis_json(&rows);
        assert!(body.contains("\"bound\":56"), "{body}");
        assert!(body.contains("\"bounded_cells\":1"), "{body}");
        // No watermark, no seconds: nothing run-length-dependent.
        assert!(!body.contains("watermark"), "{body}");
        assert!(!body.contains("seconds"), "{body}");
    }
}
