//! Whole-toolchain integration: every benchmark app must build and run
//! under the key pipeline configurations without faulting, and the
//! paper's qualitative relationships must hold per app. The app ×
//! config sweeps run on one shared [`BuildService`] so the frontend
//! compiles each app once and the grid parallelizes.

use bench::grid;
use safe_tinyos::{simulate, BuildService, BuildSession, Pipeline, SimResult};
use safe_tinyos_suite as _;

/// Builds and simulates every app × config cell for `seconds`.
fn simulate_grid(apps: &[&str], configs: &[Pipeline], seconds: u64) -> Vec<Vec<SimResult>> {
    let service = BuildService::new();
    grid(&service, apps, configs, |spec, p| {
        simulate(&service.build(spec, p).unwrap(), spec, seconds)
    })
}

#[test]
fn all_apps_build_under_all_fig3_bars() {
    let service = BuildService::new();
    let bars = Pipeline::fig3_bars();
    let grid = grid(&service, tosapps::APP_NAMES, &bars, |spec, p| {
        service.build(spec, p).unwrap().metrics
    });
    for (name, row) in tosapps::APP_NAMES.iter().zip(&grid) {
        for (config, metrics) in bars.iter().zip(row) {
            assert!(metrics.code_bytes > 0, "{name} / {}", config.name());
        }
    }
    assert_eq!(
        service.session().frontend_compiles(),
        tosapps::APP_NAMES.len(),
        "one frontend compile per app, reused across all bars"
    );
}

#[test]
fn all_apps_run_unsafe_without_faulting() {
    let grid = simulate_grid(tosapps::APP_NAMES, &[Pipeline::unsafe_baseline()], 2);
    for (name, row) in tosapps::APP_NAMES.iter().zip(&grid) {
        let r = &row[0];
        // Sleeping or mid-burst Running are both healthy end states;
        // Faulted/Halted are not.
        assert!(
            matches!(r.state, mcu::RunState::Sleeping | mcu::RunState::Running),
            "{name}: {:?} (fault {:?})",
            r.state,
            r.fault
        );
    }
}

#[test]
fn all_apps_run_fully_safe_without_traps() {
    // The core soundness claim: correct programs keep working after the
    // full safe pipeline — no false-positive traps.
    let grid = simulate_grid(
        tosapps::APP_NAMES,
        &[Pipeline::safe_flid_inline_cxprop()],
        2,
    );
    for (name, row) in tosapps::APP_NAMES.iter().zip(&grid) {
        let r = &row[0];
        assert!(
            matches!(r.state, mcu::RunState::Sleeping | mcu::RunState::Running),
            "{name}: {:?} (fault {:?})",
            r.state,
            r.fault
        );
    }
}

#[test]
fn safe_and_unsafe_builds_behave_equivalently() {
    // Device-level observable behaviour must match between the unsafe
    // baseline and the fully optimized safe build.
    let configs = [
        Pipeline::unsafe_baseline(),
        Pipeline::safe_flid_inline_cxprop(),
    ];
    let apps = [
        "BlinkTask_Mica2",
        "CntToLedsAndRfm_Mica2",
        "RfmToLeds_Mica2",
    ];
    let grid = simulate_grid(&apps, &configs, 3);
    for (name, row) in apps.iter().zip(&grid) {
        let (ru, rs) = (&row[0], &row[1]);
        assert_eq!(
            ru.led_transitions, rs.led_transitions,
            "{name} LED behaviour diverged"
        );
        assert_eq!(
            ru.radio_tx_bytes, rs.radio_tx_bytes,
            "{name} radio behaviour diverged"
        );
        assert_eq!(
            ru.uart_bytes, rs.uart_bytes,
            "{name} uart behaviour diverged"
        );
    }
}

#[test]
fn apps_do_observable_work() {
    type Check = fn(&safe_tinyos::SimResult) -> bool;
    let cases: &[(&str, Check, &str)] = &[
        ("BlinkTask_Mica2", |r| r.led_transitions >= 4, "LED toggles"),
        (
            "CntToLedsAndRfm_Mica2",
            |r| r.radio_tx_bytes > 10,
            "radio traffic",
        ),
        ("GenericBase_Mica2", |r| r.uart_bytes > 5, "uart forwarding"),
        ("RfmToLeds_Mica2", |r| r.led_transitions >= 1, "LED display"),
        (
            "Oscilloscope_Mica2",
            |r| r.radio_tx_bytes > 10,
            "sample messages",
        ),
        (
            "SenseToRfm_Mica2",
            |r| r.radio_tx_bytes > 10,
            "sense messages",
        ),
        ("Ident_Mica2", |r| r.radio_tx_bytes > 10, "ident replies"),
        ("TestTimeStamping_Mica2", |r| r.radio_tx_bytes > 5, "echoes"),
        (
            "Surge_Mica2",
            |r| r.radio_tx_bytes > 10,
            "forwarded readings",
        ),
        (
            "HighFrequencySampling_Mica2",
            |r| r.radio_tx_bytes > 20,
            "bulk data",
        ),
        (
            "MicaHWVerify_Mica2",
            |r| r.uart_bytes >= 4,
            "self-test report",
        ),
        (
            "RadioCountToLeds_TelosB",
            |r| r.radio_tx_bytes > 10 && r.led_transitions > 0,
            "count exchange",
        ),
    ];
    let session = BuildSession::new();
    for (name, check, what) in cases {
        let spec = tosapps::spec(name).unwrap();
        let b = session.build(&spec, &Pipeline::unsafe_baseline()).unwrap();
        let r = simulate(&b, &spec, 5);
        assert!(
            check(&r),
            "{name}: expected {what}; leds={} radio={} uart={} state={:?} fault={:?}",
            r.led_transitions,
            r.radio_tx_bytes,
            r.uart_bytes,
            r.state,
            r.fault
        );
    }
}
