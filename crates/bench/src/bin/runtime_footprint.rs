//! §2.3: the CCured runtime-library footprint reduction, from the naive
//! 1.6 KB RAM / 33 KB ROM port down to 2 B / 314 B, staged as the paper
//! describes, plus the measured effect on a minimal application.

use bench::{emit_json, emit_speed, grid, json, Knobs};
use ccured::runtime::{footprint_at, RuntimeStage, NAIVE_COMPONENTS};
use ccured::CureOptions;
use safe_tinyos::{BuildService, Pipeline};

fn main() {
    println!("§2.3 — CCured runtime library footprint (modeled components)");
    println!("{:<26}{:>10}{:>10}  note", "component", "RAM", "ROM");
    for c in NAIVE_COMPONENTS {
        println!("{:<26}{:>10}{:>10}  {}", c.name, c.ram, c.rom, c.note);
    }
    println!();
    println!("{:<34}{:>10}{:>10}", "reduction stage", "RAM", "ROM");
    for (label, stage) in [
        ("naive port (everything)", RuntimeStage::NaivePort),
        ("- OS and x86 dependencies", RuntimeStage::OsX86Removed),
        ("- garbage collection", RuntimeStage::GcDropped),
        ("- improved DCE over remainder", RuntimeStage::AfterDce),
    ] {
        let (ram, rom) = footprint_at(stage);
        println!("{label:<34}{ram:>10}{rom:>10}");
    }
    println!();
    println!("Paper endpoints: 1638 B RAM / 33 KB ROM naive; 2 B RAM / 314 B ROM tuned.");
    println!();

    // Measured effect on the minimal app (BlinkTask-class). The tuned
    // and naive configurations share one cached frontend artifact; the
    // naive build is *expected* to fail to link, so the job returns a
    // Result instead of panicking.
    let service = BuildService::with_threads(Knobs::from_env().threads);
    let configs = [
        Pipeline::safe_flid_inline_cxprop(),
        Pipeline::builder("safe-flid-inline-cxprop-naive")
            .cure_with(CureOptions {
                naive_runtime: true,
                ..CureOptions::default()
            })
            .inline()
            .cxprop()
            .prune()
            .build(),
    ];
    let grid = grid(&service, &["BlinkTask_Mica2"], &configs, |spec, p| {
        service
            .build(spec, p)
            .map(|b| b.metrics)
            .map_err(|e| e.to_string())
    });
    let [tuned, naive] = &grid[0][..] else {
        unreachable!("two-config grid");
    };
    let tuned = tuned.as_ref().expect("tuned build succeeds");
    let mica2_ram = 4 * 1024;
    println!("Measured on BlinkTask (safe, optimized):");
    println!(
        "  tuned runtime: {:>6} B SRAM {:>7} B flash",
        tuned.sram_bytes, tuned.flash_bytes
    );
    let mut measured = json::Obj::new()
        .int("tuned_sram_bytes", tuned.sram_bytes as i64)
        .int("tuned_flash_bytes", tuned.flash_bytes as i64);
    match naive {
        Ok(naive) => {
            println!(
                "  naive runtime: {:>6} B SRAM {:>7} B flash",
                naive.sram_bytes, naive.flash_bytes
            );
            println!(
                "  naive runtime RAM share of a Mica2: {:.0}% (paper: 40%)",
                (naive.sram_bytes - tuned.sram_bytes) as f64 * 100.0 / mica2_ram as f64
            );
            measured = measured
                .int("naive_sram_bytes", naive.sram_bytes as i64)
                .int("naive_flash_bytes", naive.flash_bytes as i64);
        }
        Err(e) => {
            // The 33 KB naive ROM blob exceeds the M16's 28 KB const-data
            // window, so the naive build does not even link — a stronger
            // version of the paper's "ruinously large" observation. The
            // modeled totals above carry the §2.3 story.
            let (naive_ram, naive_rom) = footprint_at(RuntimeStage::NaivePort);
            println!("  naive runtime: does not link — {e}");
            println!(
                "  (modeled: {naive_ram} B RAM = {:.0}% of a Mica2's SRAM, {naive_rom} B ROM)",
                naive_ram as f64 * 100.0 / mica2_ram as f64
            );
            measured = measured.str("naive_build_error", e);
        }
    }
    let mut stage_obj = json::Obj::new();
    for (label, stage) in [
        ("naive_port", RuntimeStage::NaivePort),
        ("os_x86_removed", RuntimeStage::OsX86Removed),
        ("gc_dropped", RuntimeStage::GcDropped),
        ("after_dce", RuntimeStage::AfterDce),
    ] {
        let (ram, rom) = footprint_at(stage);
        stage_obj = stage_obj.raw(
            label,
            &json::Obj::new()
                .int("ram", ram as i64)
                .int("rom", rom as i64)
                .build(),
        );
    }
    let body = json::Obj::new()
        .str("figure", "runtime_footprint")
        .raw("stages", &stage_obj.build())
        .raw("measured_blinktask", &measured.build())
        .build();
    emit_json("runtime_footprint", &body).expect("write BENCH_runtime_footprint.json");
    emit_speed(&service, "runtime_footprint");
}
