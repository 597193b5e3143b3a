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
