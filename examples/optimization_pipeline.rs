//! Stage-by-stage walk of the toolchain on one application: how each
//! pass of Figure 1 changes the check population and the footprint.
//!
//! Run with: `cargo run --release --example optimization_pipeline`

use backend::{compile, BackendOptions};
use ccured::{cure, CureOptions};
use cxprop::{CxpropOptions, InlineOptions};
use mcu::Profile;

fn measure(program: &tcil::Program, label: &str) {
    let image = compile(program, Profile::mica2(), &BackendOptions::default()).expect("compile");
    println!(
        "{label:<34} {:>6} B code {:>5} B sram {:>4} checks in IR {:>4} in binary",
        image.code_bytes(),
        image.sram_bytes(),
        program.count_checks(),
        image.surviving_checks()
    );
}

fn main() {
    let spec = tosapps::spec("Oscilloscope_Mica2").expect("known app");
    // The session's cached frontend artifact: this walk mutates its own
    // copy of the lowered program; grid builds share the artifact's and
    // copy it only when a pass writes outside the pass cache.
    let session = safe_tinyos::BuildSession::new();
    let artifact = session.frontend(&spec).expect("nesc");
    let mut program = artifact.program();
    println!(
        "racy variables (nesC report): {:?}\n",
        program.globals.iter().filter(|g| g.racy).count()
    );
    measure(&program, "after nesC (unsafe)");

    let stats = cure(
        &mut program,
        &CureOptions {
            local_optimize: false,
            ..Default::default()
        },
    )
    .expect("cure");
    measure(&program, "after CCured (no local opt)");
    println!(
        "  pointer kinds: {:?}; locks inserted: {}",
        stats.kinds, stats.locks_inserted
    );

    tcil::checkopt::remove_local_checks(&mut program);
    measure(&program, "after CCured local optimizer");

    let inlined = cxprop::inline::run(&mut program, &InlineOptions::default());
    measure(&program, "after source-level inlining");
    println!("  {inlined} call sites expanded");

    let cx = cxprop::optimize(
        &mut program,
        &CxpropOptions {
            inline: false,
            ..Default::default()
        },
    );
    ccured::errmsg::prune_unused_messages(&mut program);
    measure(&program, "after cXprop");
    println!(
        "  {} checks removed, {} branches folded, {} dead functions, {} dead globals, {} atomics demoted",
        cx.engine.checks_removed,
        cx.engine.branches_folded,
        cx.dce.functions_removed,
        cx.dce.globals_removed,
        cx.atomics.demoted
    );

    // The same walk as one pass-manager pipeline, from a spec string,
    // with every pass individually timed.
    let pipeline = safe_tinyos::Pipeline::parse("cure|inline|cxprop|prune").expect("valid spec");
    let build = pipeline
        .build(artifact.program(), spec.platform.clone())
        .expect("build");
    println!("\nas one pipeline  {pipeline}:");
    for (pass, t) in build.metrics.pass_times.iter() {
        println!("  {pass:<8} {:>7.2} ms", t.as_secs_f64() * 1e3);
    }
    println!(
        "  => {} B code, {} of {} checks survive",
        build.metrics.code_bytes, build.metrics.checks_surviving, build.metrics.checks_inserted
    );
}
