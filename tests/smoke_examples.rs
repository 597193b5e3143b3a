//! Workspace smoke test: exercises the core path of each of the four
//! `examples/` binaries in-process and asserts it completes without
//! faulting, so a regression in any example's flow fails `cargo test`
//! rather than only `cargo run --example`.

use backend::BackendOptions;
use ccured::{cure, CureOptions};
use cxprop::{CxpropOptions, InlineOptions};
use mcu::{Machine, Profile, RunState};
use safe_tinyos::fleet::{build_fleet, horizon_cycles, FleetSpec};
use safe_tinyos::{simulate, BuildSession, Pipeline};
use safe_tinyos_suite as _;

/// `examples/quickstart.rs`: Blink through three configurations, with
/// metrics and a FLID table on the safe builds.
#[test]
fn quickstart_core_path() {
    let spec = tosapps::spec("BlinkTask_Mica2").expect("known app");
    let session = BuildSession::new();
    for config in [
        Pipeline::unsafe_baseline(),
        Pipeline::safe_flid(),
        Pipeline::safe_flid_inline_cxprop(),
    ] {
        let build = session.build(&spec, &config).expect("build");
        let run = simulate(&build, &spec, 5);
        assert_eq!(
            run.state,
            RunState::Sleeping,
            "{}: fault {:?}",
            config.name(),
            run.fault
        );
        assert!(
            run.led_transitions >= 4,
            "{}: leds {}",
            config.name(),
            run.led_transitions
        );
    }
    let build = session.build(&spec, &Pipeline::safe_flid()).expect("build");
    assert!(
        !build.image.flid_table.is_empty(),
        "safe build carries a FLID table"
    );
    assert_eq!(
        session.frontend_compiles(),
        1,
        "four builds share one frontend artifact"
    );
}

/// `examples/safety_violation.rs`: the same buggy program silently
/// corrupts memory unsafely and traps with a FLID safely.
#[test]
fn safety_violation_core_path() {
    const BUGGY: &str = "
        uint8_t samples[8];
        uint8_t radio_power = 3;
        void record(uint8_t * buf, uint8_t n) {
            uint8_t i;
            for (i = 0; i < n; i++) { buf[i] = (uint8_t)(i + 0xA0); }
        }
        void main() { record(samples, 40); }
    ";
    let program = tcil::parse_and_lower(BUGGY).expect("parse");
    let image =
        backend::compile(&program, Profile::mica2(), &BackendOptions::default()).expect("compile");
    let mut m = Machine::new(&image);
    m.run(1_000_000);
    assert_eq!(m.state, RunState::Halted, "unsafe build runs to completion");
    let power = image.find_global_addr("radio_power").expect("symbol");
    assert_ne!(
        m.ram_peek(power),
        3,
        "unsafe build silently corrupts the neighbour"
    );

    let mut program = tcil::parse_and_lower(BUGGY).expect("parse");
    cure(&mut program, &CureOptions::default()).expect("cure");
    let image =
        backend::compile(&program, Profile::mica2(), &BackendOptions::default()).expect("compile");
    let mut m = Machine::new(&image);
    m.run(1_000_000);
    assert_eq!(m.state, RunState::Faulted, "safe build traps");
    assert!(m.fault_message().expect("fault message").contains("FLID"));
    let power = image.find_global_addr("radio_power").expect("symbol");
    assert_eq!(m.ram_peek(power), 3, "safe build prevents the corruption");
}

/// `examples/surge_fleet.rs`: a Surge fleet forms a routing tree from
/// injected beacons and carries traffic (three motes on a lossless mesh
/// here, to keep the test quick).
#[test]
fn surge_fleet_core_path() {
    let spec = tosapps::spec("Surge_Mica2").expect("known app");
    let build = BuildSession::new()
        .build(&spec, &Pipeline::safe_flid_inline_cxprop())
        .expect("build");
    let fs = FleetSpec::lossless_mesh(3, 5, 0x1000);
    let mut fleet = build_fleet(&build, &fs);
    fleet.run(horizon_cycles(&build, &fs));
    for m in 0..fs.motes {
        let mote = fleet.machine(m);
        assert!(
            matches!(mote.state, RunState::Sleeping | RunState::Running),
            "mote {m}: {:?} (fault {:?})",
            mote.state,
            mote.fault_message()
        );
    }
    assert!(fleet.stats().tx_bytes > 0, "the fleet carries traffic");
}

/// `examples/optimization_pipeline.rs`: the stage-by-stage walk keeps
/// the program compilable at every stage and ends with fewer checks
/// than CCured inserted.
#[test]
fn optimization_pipeline_core_path() {
    let spec = tosapps::spec("Oscilloscope_Mica2").expect("known app");
    let session = BuildSession::new();
    let mut program = session.frontend(&spec).expect("nesc").program();
    let compiles = |p: &tcil::Program| {
        backend::compile(p, Profile::mica2(), &BackendOptions::default()).expect("compile")
    };
    compiles(&program);

    cure(
        &mut program,
        &CureOptions {
            local_optimize: false,
            ..Default::default()
        },
    )
    .expect("cure");
    let inserted = program.count_checks();
    assert!(inserted > 0, "CCured inserts checks");
    compiles(&program);

    tcil::checkopt::remove_local_checks(&mut program);
    compiles(&program);

    let inlined = cxprop::inline::run(&mut program, &InlineOptions::default());
    assert!(inlined > 0, "inliner expands call sites");
    compiles(&program);

    cxprop::optimize(
        &mut program,
        &CxpropOptions {
            inline: false,
            ..Default::default()
        },
    );
    ccured::errmsg::prune_unused_messages(&mut program);
    let image = compiles(&program);
    assert!(
        image.surviving_checks() < inserted,
        "cXprop removes checks: {} -> {}",
        inserted,
        image.surviving_checks()
    );
}
