//! §2.1 ablations: the paper's specific claims about individual passes.
//!
//! * source-level inlining before the backend beats backend-only builds,
//! * strong DCE is worth a few percent of code size,
//! * copy propagation feeds precision,
//! * atomic-section optimization removes/demotes sections.
//!
//! Each ablation arm is just a [`Pipeline`] — the composite
//! `cxprop(inline,...)` pass with one knob turned — so the whole grid
//! goes through [`bench::grid`] like every other figure.

use bench::{emit_json, emit_speed, grid, json, pct_change, Knobs};
use cxprop::CxpropOptions;
use safe_tinyos::{BuildService, Metrics, Pipeline};

/// An ablation arm: the full safe stack with `options` swapped into the
/// composite cXprop pass (which runs the inliner inside the fixpoint,
/// like the paper's tool).
fn ablated(name: &str, options: CxpropOptions) -> Pipeline {
    Pipeline::builder(name)
        .cure()
        .cxprop_with(options)
        .prune()
        .build()
}

fn main() {
    let service = BuildService::with_threads(Knobs::from_env().threads);
    let variants = [
        Pipeline::safe_flid_inline_cxprop(),
        Pipeline::safe_flid_cxprop(),
        ablated(
            "no-dce",
            CxpropOptions {
                dce: false,
                ..CxpropOptions::default()
            },
        ),
        ablated(
            "domain-constants",
            CxpropOptions {
                domain: cxprop::DomainKind::Constants,
                ..CxpropOptions::default()
            },
        ),
        ablated(
            "domain-intervals",
            CxpropOptions {
                domain: cxprop::DomainKind::Intervals,
                ..CxpropOptions::default()
            },
        ),
    ];
    let grid: Vec<Vec<Metrics>> = grid(&service, tosapps::APP_NAMES, &variants, |spec, p| {
        service
            .build(spec, p)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
            .metrics
    });

    println!("§2.1 ablations (totals over all twelve applications)\n");

    // --- inlining before the backend (≈5% smaller, per the paper) ---
    let mut with_inline = 0u64;
    let mut without_inline = 0u64;
    // --- strong DCE worth 3–5% ---
    let mut with_dce = 0u64;
    let mut without_dce = 0u64;
    let mut atomics_removed = 0usize;
    let mut atomics_demoted = 0usize;
    let mut copies = 0usize;
    for row in &grid {
        let full = &row[0];
        with_inline += full.code_bytes as u64;
        with_dce += full.code_bytes as u64;
        if let Some(cx) = &full.cxprop {
            atomics_removed += cx.atomics.removed;
            atomics_demoted += cx.atomics.demoted;
            copies += cx.copies_propagated;
        }
        without_inline += row[1].code_bytes as u64;
        without_dce += row[2].code_bytes as u64;
    }

    println!(
        "inlining before the backend:   {:+.1}% code vs. cXprop-without-inliner (paper: ≈-5%)",
        pct_change(without_inline, with_inline)
    );
    println!(
        "strong whole-program DCE:      {:+.1}% code vs. cXprop-without-DCE (paper: -3..-5%)",
        pct_change(without_dce, with_dce)
    );
    println!("atomic sections removed:       {atomics_removed}");
    println!("atomic sections demoted:       {atomics_demoted} (no IRQ-bit save needed)");
    println!("copies propagated:             {copies}");

    // Domain ablation: pluggable abstract domains.
    println!("\npluggable-domain ablation (surviving checks, all apps):");
    let mut domain_obj = json::Obj::new();
    let mut domain_inserted = 0usize;
    for (label, column) in [("constants", 3usize), ("intervals", 4usize)] {
        let mut surviving = 0usize;
        let mut inserted = 0usize;
        for row in &grid {
            inserted += row[column].checks_inserted;
            surviving += row[column].checks_surviving;
        }
        println!("  {label:<12} {surviving:>5} of {inserted} survive");
        domain_obj = domain_obj.int(label, surviving as i64);
        domain_inserted = inserted;
    }

    let body = json::Obj::new()
        .str("figure", "ablations")
        .num(
            "inline_code_delta_pct",
            pct_change(without_inline, with_inline),
        )
        .num("dce_code_delta_pct", pct_change(without_dce, with_dce))
        .int("atomics_removed", atomics_removed as i64)
        .int("atomics_demoted", atomics_demoted as i64)
        .int("copies_propagated", copies as i64)
        .int("checks_inserted", domain_inserted as i64)
        .raw("domain_surviving_checks", &domain_obj.build())
        .build();
    emit_json("ablations", &body).expect("write BENCH_ablations.json");
    emit_speed(&service, "ablations");
}
