//! The cXprop engine's work on every stock app, pinned: how many
//! fixpoint rounds the analysis of the app's cured and inlined program
//! runs, whether its last round was quiet, how many function walks it
//! makes, the environment work of those walks ([`Engine::env_work`]),
//! and a digest of the fixpoint it reaches (every global's whole-program
//! value, every entry and return summary, both worlds). A rewrite of the
//! engine that claims to compute the same fixpoint with less work must
//! leave the rounds, quiet, walks and digest columns as they are; the
//! environment work is the figure such a rewrite moves.

use std::sync::Arc;

use cxprop::engine::{DomainKind, Engine, MAX_ROUNDS};
use safe_tinyos::{BuildSession, Pipeline};
use safe_tinyos_suite as _;

/// `(app, rounds, quiet, walks, env work, fixpoint digest)`. Every
/// analysis runs into the round cap: whole-program summaries such as a
/// timer's elapsed-time counter grow by one per round and are never
/// widened (see `cxprop::engine`'s module docs).
#[rustfmt::skip]
const EXPECTED: &[(&str, usize, bool, usize, u64, u64)] = &[
    ("BlinkTask_Mica2", 12, false, 35, 2769, 0x5400c64d4f274998),
    ("Oscilloscope_Mica2", 12, false, 87, 9255, 0x4d44b8a8fcc1d6c9),
    ("GenericBase_Mica2", 12, false, 52, 20657, 0x2a5cd259e7220ad3),
    ("RfmToLeds_Mica2", 12, false, 35, 5865, 0x74b5d31beead800d),
    ("CntToLedsAndRfm_Mica2", 12, false, 74, 9717, 0x84ce850ee9ee1bd6),
    ("MicaHWVerify_Mica2", 12, false, 60, 3746, 0x3e90fe5978361b19),
    ("SenseToRfm_Mica2", 12, false, 71, 8391, 0x37d7da178a8f5bc0),
    ("TestTimeStamping_Mica2", 12, false, 41, 8180, 0x017dd5c035c7ca59),
    ("Surge_Mica2", 12, false, 96, 11979, 0x07380a6ac0067cac),
    ("Ident_Mica2", 12, false, 51, 14118, 0x138bf14f75ecd782),
    ("HighFrequencySampling_Mica2", 12, false, 87, 8980, 0x5fb4dc715325a51d),
    ("RadioCountToLeds_TelosB", 12, false, 74, 9783, 0xc898a92a26531822),
];

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn engine_work_and_fixpoint_per_stock_app() {
    let session = BuildSession::new();
    let pipeline = Pipeline::parse("cure|inline").unwrap();
    let mut rows = Vec::new();
    for &app in tosapps::APP_NAMES {
        let spec = tosapps::spec(app).unwrap();
        let mut program = Arc::unwrap_or_clone(session.build(&spec, &pipeline).unwrap().program);
        // What `cxprop::optimize` does before its first analysis.
        cxprop::races::refine(&mut program);
        let before = program.clone();
        let eng = Engine::analyze(&mut program, DomainKind::Intervals);
        assert_eq!(program, before, "{app}: the analysis changed the program");
        assert!(eng.rounds <= MAX_ROUNDS, "{app}");
        let fixpoint = format!(
            "{:?}",
            (
                &eng.wpv,
                &eng.entry,
                &eng.entry_hard,
                &eng.retv,
                &eng.retv_hard
            )
        );
        rows.push((
            app,
            eng.rounds,
            eng.quiet,
            eng.walks,
            eng.env_work,
            fnv(fixpoint.as_bytes()),
        ));
    }
    let rendered: String = rows
        .iter()
        .map(|r| {
            format!(
                "    (\"{}\", {}, {}, {}, {}, {:#018x}),\n",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    assert_eq!(rows, EXPECTED, "actual rows:\n{rendered}");
}

/// A callee first reached in the last walk of an analysis round must
/// still be analysed: `tick` is called only from `main`'s loop, so the
/// round that discovers it ends with nothing else changed. Before the
/// fix, cXprop never walked `tick`, folded its body to `c = 1;` and the
/// last UART byte came out 1 under the non-inlining cXprop presets.
#[test]
fn a_callee_discovered_in_the_last_walk_is_analysed() {
    const PROBE: &str = "
uint8_t c;
void tick() { c = (uint8_t)(c + 1); }
void main() {
    uint8_t i0;
    uint8_t i6;
    uint8_t i7;
    for (i0 = 0; i0 < 100; i0++) { tick(); }
    if (c > 50) { __hw_write8(0xF040, (uint8_t)(1)); }
    else { __hw_write8(0xF040, (uint8_t)(2)); }
    i7 = 0;
    for (i6 = 0; i6 < 200; i6++) { i7 = (uint8_t)(i7 + 1); }
    __hw_write8(0xF040, (uint8_t)(c));
}
";
    let program = Arc::new(tcil::parse_and_lower(PROBE).unwrap());
    let last_byte = |preset: &str| {
        let build = Pipeline::preset(preset)
            .unwrap()
            .build(Arc::clone(&program), mcu::Profile::mica2())
            .unwrap();
        let mut m = mcu::Machine::new(&build.image);
        m.run(2_000_000);
        *m.uart_out
            .last()
            .unwrap_or_else(|| panic!("{preset}: no UART output"))
    };
    let reference = last_byte("safe-flid");
    assert_eq!(reference, 100);
    // The first byte (the `c > 50` branch) is not asserted: cXprop still
    // stops at its round cap with `c`'s summary growing, folds the
    // branch from that under-approximation and prints 2 where the
    // reference prints 1 — that takes widening, not discovery.
    for preset in safe_tinyos::PRESET_NAMES {
        assert_eq!(last_byte(preset), reference, "{preset}");
    }
}
