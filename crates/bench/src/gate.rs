//! The gate over published `BENCH_*.json` reports: one [`Contract`] per
//! `"figure"` value, evaluated on parsed [`Value`]s. A contract has:
//!
//! * **pinned** paths: pure functions of the toolchain and the sources
//!   (censuses, certified bounds, fleet rows, work counters), compared
//!   with the committed baseline as parsed values. A drift is a behaviour
//!   change someone must sign off on by regenerating the baseline. A path
//!   neither report has is no drift; a contract that needs it says so
//!   with an invariant.
//! * **invariants**: named rules over one report (zero miscompiles, zero
//!   watermark violations, kernel speedup ≥ floor, …), checked on the
//!   committed and the fresh report alike.
//!
//! No contract compares a wall time with the committed one: the
//! compiler's speed is judged by the repository benchmark (`stosbench`),
//! over medians of repeated runs.
//!
//! The `gate <committed> <fresh>` binary runs [`gate`], and every
//! self-gating harness runs [`self_gate`] on the report it just emitted,
//! so each check is written once.

use safe_tinyos::PRESET_NAMES;

use crate::fault::{default_pipelines, NOHARDEN_STACK};
use crate::json::{self, Value};

/// Floor for the `sim_speed` gated-kernel aggregate speedup (Σ interp
/// wall / Σ bt wall).
pub const SPEEDUP_MIN: f64 = 10.0;

type Check = Result<(), String>;

/// A comparison with the committed baseline.
#[derive(Debug)]
enum Pin {
    /// The value at this path.
    Whole(&'static str),
    /// The value at this path, with the arrays of rows inside it matched
    /// by these key members instead of position; the fresh run may hold
    /// a subset of the committed rows.
    Keyed(&'static str, &'static [&'static str]),
    /// The value at the path, when the values at the listed paths (the
    /// simulated horizon, the workload's size) are present and equal in
    /// both reports.
    When(&'static str, &'static [&'static str]),
}

/// What an invariant requires of a report (or of one row of it).
#[derive(Debug)]
enum Rule {
    /// The number at the path is 0.
    Zero(&'static str),
    /// The number at the path is at least the bound.
    AtLeast(&'static str, f64),
    /// The number at the first path is at most the one at the second.
    NotAbove(&'static str, &'static str),
    /// The value at the path is `true`.
    True(&'static str),
    /// Every row of the array at the path satisfies the rule.
    Each(&'static str, &'static Rule),
    /// Some row of the array at the path satisfies the rule.
    Any(&'static str, &'static Rule),
    /// A predicate the rules above cannot state.
    Custom(fn(&Value) -> Check),
}

use Rule::{Any, AtLeast, Custom, Each, NotAbove, True, Zero};

/// What one report figure promises: pinned values and named invariants.
#[derive(Debug)]
pub struct Contract {
    /// The `"figure"` value the contract applies to.
    pub figure: &'static str,
    pinned: &'static [Pin],
    invariants: &'static [(&'static str, Rule)],
}

const APPS: &str = "analysis.apps";
const ROWS: &str = "pinned.rows";

#[rustfmt::skip]
const CONTRACTS: &[Contract] = &[
    Contract {
        figure: "difftest",
        pinned: &[],
        invariants: &[
            ("zero-miscompiles", Zero("total_miscompiles")),
            ("cured-detection-parity", Custom(cured_parity)),
        ],
    },
    Contract {
        figure: "fault_injection",
        // Work counters, at one horizon, site count and site seed.
        pinned: &[Pin::When("counters", &["seconds", "sites", "seed"])],
        invariants: &[("detection-on-default-grid", Custom(fault_detection))],
    },
    Contract {
        figure: "race_analysis",
        pinned: &[Pin::Whole("analysis")],
        invariants: &[
            ("every-app-diagnosed", Each(APPS, &AtLeast("diagnostics", 1.0))),
            ("fix-reaches-fixpoint", Each(APPS, &Zero("fix_residual"))),
            ("hardened-torn-immune", Zero("dynamics.hardened_divergences")),
            ("hardened-torn-immune", Each("dynamics.apps", &Zero("hardened_divergences"))),
            ("unhardened-torn-diverge", AtLeast("dynamics.unhardened_divergences", 1.0)),
            ("oracle-zero-miscompiles", Zero("dynamics.oracle_miscompiles")),
        ],
    },
    Contract {
        figure: "stack_analysis",
        pinned: &[Pin::Whole("analysis"), Pin::When("dynamics.watermarks", &["dynamics.seconds"])],
        invariants: &[
            ("zero-watermark-violations", Zero("dynamics.watermark_violations")),
            ("every-cell-bounded", Each(APPS, &Each("presets", &AtLeast("bound", 0.0)))),
            ("bound-within-budget", Each(APPS, &Each("presets", &NotAbove("bound", "budget")))),
            ("zero-s001", Each(APPS, &Each("presets", &Zero("s001")))),
            ("zero-s002", Each(APPS, &Each("presets", &Zero("s002")))),
            ("zero-s003", Each(APPS, &Each("presets", &Zero("s003")))),
            ("every-app-wires-a-vector", Each(APPS, &Any("presets", &AtLeast("vectors", 1.0)))),
            ("every-app-observed-a-frame", Each("dynamics.apps", &AtLeast("max_watermark", 1.0))),
        ],
    },
    Contract {
        figure: "sim_speed",
        // Work counters: the kernels' at one `kernel_cycles`, the apps'
        // (decode included) at one simulated `seconds`.
        pinned: &[
            Pin::When("counters.kernels", &["kernel_cycles"]),
            Pin::When("counters.apps", &["seconds"]),
        ],
        invariants: &[
            ("engines-identical", True("engines_identical")),
            ("kernel-speedup-floor", AtLeast("kernel_speedup", SPEEDUP_MIN)),
        ],
    },
    Contract {
        figure: "fleet",
        // Cell outcomes and grants per cell, both keyed by cell.
        pinned: &[
            Pin::Keyed("pinned", &["motes", "seed"]),
            Pin::Keyed("counters", &["motes", "seed"]),
        ],
        invariants: &[
            ("lockstep-equivalence", True("pinned.equivalence_ok")),
            ("sweep-rows-present", Any(ROWS, &AtLeast("motes", 1.0))),
            ("traffic-offered", Each(ROWS, &AtLeast("offered", 1.0))),
            ("sink-heard-readings", Each(ROWS, &AtLeast("heard", 1.0))),
            ("lossy-links-drop", Each(ROWS, &AtLeast("dropped", 1.0))),
            ("churned-mote-reboots", Custom(churned_mote_reboots)),
            ("campaign-verdicts-complete", Custom(campaign_verdicts_complete)),
        ],
    },
    // The paper's central numbers, all of them cXprop's work: the
    // per-app check-removal table and code/data size deltas. These
    // reports carry no timing fields. fig3a also carries its grid's
    // pass-cache census: jobs, frontend compiles and per-pass counters
    // of the cold grid, and the misses of a warm re-run of it.
    Contract {
        figure: "fig2_checks",
        pinned: &[Pin::Whole("apps"), Pin::Whole("total")],
        invariants: &[],
    },
    Contract {
        figure: "fig3a_code_size",
        pinned: &[Pin::Whole("apps"), Pin::Whole("counters")],
        invariants: &[
            ("warm-grid-runs-no-pass", Zero("counters.warm_misses")),
            ("cure-runs-once-per-input", Custom(cure_once_per_input)),
        ],
    },
    Contract {
        figure: "fig3b_data_size",
        pinned: &[Pin::Whole("apps")],
        invariants: &[],
    },
    // The §2.1 ablation and §2.3 runtime-footprint reports: no timing
    // fields, so every member is pinned.
    Contract {
        figure: "ablations",
        pinned: &[
            Pin::Whole("inline_code_delta_pct"),
            Pin::Whole("dce_code_delta_pct"),
            Pin::Whole("atomics_removed"),
            Pin::Whole("atomics_demoted"),
            Pin::Whole("copies_propagated"),
            Pin::Whole("checks_inserted"),
            Pin::Whole("domain_surviving_checks"),
        ],
        invariants: &[],
    },
    Contract {
        figure: "runtime_footprint",
        pinned: &[Pin::Whole("stages"), Pin::Whole("measured_blinktask")],
        invariants: &[],
    },
];

/// The contract for a `"figure"` value.
fn contract(figure: &str) -> Option<&'static Contract> {
    CONTRACTS.iter().find(|c| c.figure == figure)
}

impl Contract {
    /// Every invariant `report` violates, as `name: why`.
    fn violations(&self, report: &Value) -> Vec<String> {
        self.invariants
            .iter()
            .filter_map(|(name, rule)| rule.check(report).err().map(|why| format!("{name}: {why}")))
            .collect()
    }
}

impl Pin {
    /// How `fresh` drifted from `committed` at this pin, if it did.
    fn drift(&self, committed: &Value, fresh: &Value) -> Option<String> {
        let (path, key) = match *self {
            Pin::Whole(path) => (path, &[][..]),
            Pin::Keyed(path, key) => (path, key),
            Pin::When(path, when) => {
                let comparable = when.iter().all(|w| {
                    let want = committed.path(w);
                    want.is_some() && want == fresh.path(w)
                });
                if !comparable {
                    return None;
                }
                (path, &[][..])
            }
        };
        match (committed.path(path), fresh.path(path)) {
            (Some(want), Some(got)) => first_diff(path, want, got, key)
                .map(|d| format!("pinned `{path}` drifted from the committed baseline: {d}")),
            (None, None) => None,
            (want, _) => Some(format!(
                "{} report has no pinned `{path}`",
                if want.is_none() { "committed" } else { "fresh" }
            )),
        }
    }
}

impl Rule {
    fn check(&self, v: &Value) -> Check {
        let fail =
            |path: &str, n: f64, want: String| Err(format!("`{path}` is {n}, expected {want}"));
        match *self {
            Zero(path) => match num(v, path)? {
                0.0 => Ok(()),
                n => fail(path, n, "0".into()),
            },
            AtLeast(path, min) => match num(v, path)? {
                n if n >= min => Ok(()),
                n => fail(path, n, format!("at least {min}")),
            },
            NotAbove(path, max) => match (num(v, path)?, num(v, max)?) {
                (n, m) if n <= m => Ok(()),
                (n, m) => fail(path, n, format!("at most `{max}` ({m})")),
            },
            True(path) => match at(v, path)? {
                Value::Bool(true) => Ok(()),
                other => Err(format!("`{path}` is {}, expected true", show(other))),
            },
            Each(path, rule) => rows(v, path)?.iter().enumerate().try_for_each(|(i, row)| {
                // Rows lead with their name (app, preset) where they have one.
                let name = match row {
                    Value::Obj(members) => members.first().and_then(|(_, n)| n.as_str()),
                    _ => None,
                };
                let at = format!(
                    "{path}[{i}]{}",
                    name.map(|n| format!(" ({n})")).unwrap_or_default()
                );
                rule.check(row).map_err(|e| format!("{at} / {e}"))
            }),
            Any(path, rule) if rows(v, path)?.iter().any(|row| rule.check(row).is_ok()) => Ok(()),
            Any(path, rule) => Err(format!("no row of `{path}` satisfies {rule:?}")),
            Custom(check) => check(v),
        }
    }
}

/// Why [`gate`] refused a pair of reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// Nothing was checked: malformed JSON, no `"figure"`, two different
    /// figures, or a figure without a contract.
    Input(String),
    /// The contract does not hold: one message per violation or drift.
    Violations(Vec<String>),
}

/// Checks a fresh report against its committed baseline under the
/// contract their `"figure"` field names: the invariants on both
/// reports, then the pinned paths. Returns the contract that held.
///
/// # Errors
///
/// [`GateError::Input`] when either text is not a report with a
/// contract, [`GateError::Violations`] when the contract does not hold.
pub fn gate(committed: &str, fresh: &str) -> Result<&'static Contract, GateError> {
    let (want, contract) = parse_report(committed, "committed")?;
    let (got, fresh_contract) = parse_report(fresh, "fresh")?;
    if contract.figure != fresh_contract.figure {
        return Err(GateError::Input(format!(
            "committed figure {:?} vs fresh figure {:?}",
            contract.figure, fresh_contract.figure
        )));
    }
    let mut violations: Vec<String> = [("committed", &want), ("fresh", &got)]
        .into_iter()
        .flat_map(|(label, report)| {
            contract
                .violations(report)
                .into_iter()
                .map(move |m| format!("{label} report: {m}"))
        })
        .collect();
    violations.extend(
        contract
            .pinned
            .iter()
            .filter_map(|pin| pin.drift(&want, &got)),
    );
    if violations.is_empty() {
        Ok(contract)
    } else {
        Err(GateError::Violations(violations))
    }
}

/// A harness's self-gate: the contract's invariants on the report it just
/// emitted.
///
/// # Panics
///
/// When `report` is not a report with a contract, or violates any of its
/// invariants (every violation is listed).
pub fn self_gate(report: &str) {
    let (value, contract) = parse_report(report, "emitted").unwrap_or_else(|e| panic!("{e:?}"));
    let violations = contract.violations(&value);
    assert!(
        violations.is_empty(),
        "the {} contract does not hold:\n  {}",
        contract.figure,
        violations.join("\n  ")
    );
}

fn parse_report(text: &str, label: &str) -> Result<(Value, &'static Contract), GateError> {
    let value = json::parse(text)
        .map_err(|e| GateError::Input(format!("{label} report is not JSON: {e}")))?;
    let figure = value
        .get("figure")
        .and_then(Value::as_str)
        .ok_or_else(|| GateError::Input(format!("{label} report has no \"figure\" string")))?;
    let contract = contract(figure)
        .ok_or_else(|| GateError::Input(format!("no contract for figure {figure:?}")))?;
    Ok((value, contract))
}

/// The first place `got` differs from `want`, naming its path.
fn first_diff(path: &str, want: &Value, got: &Value, key: &[&str]) -> Option<String> {
    match (want, got) {
        (Value::Obj(members), Value::Obj(fresh)) => members
            .iter()
            .find_map(|(k, w)| match got.get(k) {
                Some(g) => first_diff(&format!("{path}.{k}"), w, g, key),
                None => Some(format!("`{path}.{k}` is missing from the fresh report")),
            })
            .or_else(|| {
                let (k, _) = fresh.iter().find(|(k, _)| want.get(k).is_none())?;
                Some(format!("`{path}.{k}` is not in the committed report"))
            }),
        (Value::Arr(base), Value::Arr(rows))
            if !key.is_empty() && base.iter().chain(rows).all(|r| row_key(r, key).is_some()) =>
        {
            rows.iter().find_map(|row| {
                let k = row_key(row, key);
                let at = format!("{path}[{}]", k.as_deref().unwrap_or_default());
                match base.iter().find(|b| row_key(b, key) == k) {
                    Some(b) => first_diff(&at, b, row, key),
                    None => Some(format!("fresh row `{at}` has no committed counterpart")),
                }
            })
        }
        (Value::Arr(base), Value::Arr(rows)) => base
            .iter()
            .zip(rows)
            .enumerate()
            .find_map(|(i, (b, r))| first_diff(&format!("{path}[{i}]"), b, r, key))
            .or_else(|| {
                let (w, g) = (base.len(), rows.len());
                (w != g).then(|| format!("`{path}` has {w} elements committed, {g} fresh"))
            }),
        _ => (want != got)
            .then(|| format!("`{path}` is {} committed, {} fresh", show(want), show(got))),
    }
}

/// A row's key as `motes=10,seed=1`, if it has every key member.
fn row_key(row: &Value, key: &[&str]) -> Option<String> {
    let parts: Option<Vec<String>> = key
        .iter()
        .map(|k| row.get(k).map(|v| format!("{k}={}", show(v))))
        .collect();
    parts.map(|p| p.join(","))
}

fn show(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Arr(items) => format!("an array of {}", items.len()),
        Value::Obj(_) => "an object".into(),
    }
}

fn at<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    v.path(path).ok_or_else(|| format!("no `{path}`"))
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    let n = at(v, path)?.as_f64();
    n.ok_or_else(|| format!("`{path}` is not a number"))
}

fn rows<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    let rows = at(v, path)?.as_arr();
    rows.ok_or_else(|| format!("`{path}` is not an array"))
}

/// Whether the rows under `path` are named exactly `want` (member `key`),
/// in order. The fault and difftest harnesses gate some properties on
/// their default grid only, and this is how a report says which grid
/// produced it.
fn lists<S: AsRef<str>>(v: &Value, path: &str, key: &str, want: &[S]) -> Result<bool, String> {
    let rows = rows(v, path)?;
    Ok(rows.len() == want.len()
        && rows
            .iter()
            .zip(want)
            .all(|(r, w)| r.get(key).and_then(Value::as_str) == Some(w.as_ref())))
}

/// The pass cache runs cure once per distinct (app, cure spec) input of
/// the fig3 grid, not once per grid cell.
fn cure_once_per_input(v: &Value) -> Check {
    let unique = num(v, "counters.cure_unique")?;
    // A swept grid without a cured stack never consults the cure cache.
    let runs = match v.path("counters.passes.cure") {
        Some(_) => num(v, "counters.passes.cure.misses")?,
        None => 0.0,
    };
    if runs == unique {
        return Ok(());
    }
    Err(format!(
        "cure ran {runs} times for {unique} distinct inputs — the pass cache is not \
         deduplicating shared prefixes"
    ))
}

/// Cured presets detect every fault the reference detects — owed by the
/// default preset grid only, since sweeps may include stacks that lose
/// coverage by design.
fn cured_parity(v: &Value) -> Check {
    if !lists(v, "presets", "preset", &PRESET_NAMES)? {
        return Ok(());
    }
    Zero("total_cured_strength_reductions").check(v)
}

/// On the default grid (sweeps may include stacks with no coverage): the
/// uncured `gcc` build and the classical-policy collapse exhibit detect
/// nothing, and every hardened cured stack detects something — strictly
/// more than `gcc`.
fn fault_detection(v: &Value) -> Check {
    let names: Vec<String> = default_pipelines()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    if !lists(v, "pipelines", "pipeline", &names)? {
        return Ok(());
    }
    for (row, name) in rows(v, "pipelines")?.iter().zip(&names) {
        let rule = match name.as_str() {
            "gcc" | NOHARDEN_STACK => Zero("detected"),
            _ => AtLeast("detected", 1.0),
        };
        rule.check(row).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// Fleets of at least 4 motes power-cycle one mote mid-run.
fn churned_mote_reboots(v: &Value) -> Check {
    for row in rows(v, "pinned.rows")? {
        if num(row, "motes")? >= 4.0 {
            AtLeast("reboots", 1.0).check(row)?;
        }
    }
    Ok(())
}

fn campaign_verdicts_complete(v: &Value) -> Check {
    let sites = num(v, "pinned.campaign.sites")?;
    let mut verdicts = 0.0;
    for key in ["detected", "crashed", "poisoned", "contained", "benign"] {
        verdicts += num(v, &format!("pinned.campaign.{key}"))?;
    }
    if sites > 0.0 && verdicts == sites {
        return Ok(());
    }
    Err(format!("{verdicts} verdicts for {sites} corruption sites"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fails(committed: &str, fresh: &str) -> String {
        match gate(committed, fresh) {
            Err(GateError::Violations(v)) => v.join("\n"),
            other => panic!("expected violations, got {other:?}"),
        }
    }

    fn input_error(committed: &str, fresh: &str) -> String {
        match gate(committed, fresh) {
            Err(GateError::Input(msg)) => msg,
            other => panic!("expected an input error, got {other:?}"),
        }
    }

    const SIM: &str = r#"{"figure":"sim_speed","kernel_speedup":11.7959,"speedup_min":10.0000,"engines_identical":true}"#;

    const FIG3A: &str = r#"{"figure":"fig3a_code_size","apps":[{"app":"A","baseline_flash_bytes":1000,"delta_pct":{"safe-flid":9.5238}}],"counters":{"jobs":96,"frontend_compiles":12,"cure_unique":48,"passes":{"backend":{"hits":12,"misses":84,"bytes":200},"cure":{"hits":24,"misses":48,"bytes":100}},"warm_misses":0}}"#;

    #[test]
    fn extracts_top_level_numbers() {
        let v = json::parse(SIM).unwrap();
        assert_eq!(
            v.path("kernel_speedup").and_then(Value::as_f64),
            Some(11.7959)
        );
        assert_eq!(v.path("missing"), None);
        assert_eq!(v.path("kernel_speedup.deeper"), None);
        let v = json::parse(FIG3A).unwrap();
        assert_eq!(
            v.path("counters.passes.cure.misses")
                .and_then(Value::as_f64),
            Some(48.0)
        );
    }

    #[test]
    fn missing_fields_fail() {
        let gutted = SIM.replace(r#""kernel_speedup":11.7959,"#, "");
        assert!(fails(&gutted, SIM).contains("no `kernel_speedup`"));
        assert!(fails(SIM, &gutted).contains("no `kernel_speedup`"));
    }

    fn difftest(presets: &[&str], miscompiles: u32, csr: u32) -> String {
        let rows: Vec<String> = presets
            .iter()
            .map(|p| format!(r#"{{"preset":"{p}"}}"#))
            .collect();
        format!(
            r#"{{"figure":"difftest","total_miscompiles":{miscompiles},"total_cured_strength_reductions":{csr},"presets":[{}]}}"#,
            rows.join(",")
        )
    }

    #[test]
    fn difftest_gate_passes_clean_reports() {
        let clean = difftest(&PRESET_NAMES, 0, 0);
        assert!(gate(&clean, &clean).is_ok());
    }

    #[test]
    fn difftest_gate_fails_on_miscompiles_and_cured_csr() {
        let clean = difftest(&PRESET_NAMES, 0, 0);
        let bad = fails(&clean, &difftest(&PRESET_NAMES, 2, 0));
        assert!(bad.contains("`total_miscompiles` is 2"), "{bad}");
        let lost = fails(&clean, &difftest(&PRESET_NAMES, 0, 3));
        assert!(lost.contains("cured-detection-parity"), "{lost}");
        // Parity is owed by the default grid only; miscompiles never pass.
        let sweep = difftest(&PRESET_NAMES[1..], 0, 3);
        assert!(gate(&clean, &sweep).is_ok());
        assert!(fails(&clean, &difftest(&PRESET_NAMES[1..], 1, 0)).contains("zero-miscompiles"));
        assert!(fails(&clean, r#"{"figure":"difftest"}"#).contains("no `total_miscompiles`"));
    }

    #[test]
    fn cache_gate_passes_effective_cache() {
        assert!(gate(FIG3A, FIG3A).is_ok());
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed = std::fs::read_to_string(root.join("BENCH_fig3a_code_size.json")).unwrap();
        let census = json::parse(&committed).unwrap();
        assert!(census.path("counters.passes.cure").is_some(), "{committed}");
        assert!(gate(&committed, &committed).is_ok());
        // A swept grid without a cured stack has no cure census to owe.
        let uncured = FIG3A
            .replace(r#""cure_unique":48"#, r#""cure_unique":0"#)
            .replace(r#","cure":{"hits":24,"misses":48,"bytes":100}"#, "");
        assert!(gate(&uncured, &uncured).is_ok());
    }

    #[test]
    fn cache_gate_fails_on_duplicate_cure_runs() {
        let dup = FIG3A.replace(r#""misses":48"#, r#""misses":72"#);
        let err = fails(FIG3A, &dup);
        assert!(err.contains("not deduplicating"), "{err}");
    }

    #[test]
    fn cache_gate_fails_on_slow_warm_window() {
        // A warm re-run that executes any pass is the slow one.
        let slow = FIG3A.replace(r#""warm_misses":0"#, r#""warm_misses":5"#);
        let err = fails(FIG3A, &slow);
        assert!(
            err.contains("warm-grid-runs-no-pass: `counters.warm_misses` is 5, expected 0"),
            "{err}"
        );
    }

    #[test]
    fn cache_gate_pins_work_counters() {
        let jobs = FIG3A.replace(r#""jobs":96"#, r#""jobs":97"#);
        let err = fails(FIG3A, &jobs);
        assert!(
            err.contains("`counters.jobs` is 96 committed, 97 fresh"),
            "{err}"
        );
        let misses = FIG3A.replace(r#""misses":84"#, r#""misses":85"#);
        let err = fails(FIG3A, &misses);
        assert!(
            err.contains("`counters.passes.backend.misses` is 84 committed, 85 fresh"),
            "{err}"
        );
        assert!(!err.contains("cure-runs-once-per-input"), "{err}");
        let compiles = FIG3A.replace(r#""frontend_compiles":12"#, r#""frontend_compiles":11"#);
        assert!(fails(FIG3A, &compiles).contains("`counters.frontend_compiles`"));
    }

    #[test]
    fn cache_gate_requires_the_cache_section() {
        let bare = &FIG3A[..FIG3A.find(r#","counters""#).unwrap()];
        let bare = format!("{bare}}}");
        let err = fails(FIG3A, &bare);
        assert!(
            err.contains("fresh report has no pinned `counters`"),
            "{err}"
        );
        assert!(err.contains("no `counters.warm_misses`"), "{err}");
        assert!(fails(&bare, FIG3A).contains("committed report has no pinned `counters`"));
    }

    const FOOTPRINT: &str = r#"{"figure":"runtime_footprint","stages":{"after_dce":{"ram":2,"rom":314}},"measured_blinktask":{"tuned_sram_bytes":19}}"#;
    const ABLATIONS: &str = r#"{"figure":"ablations","dce_code_delta_pct":-38.1265,"domain_surviving_checks":{"constants":121}}"#;

    #[test]
    fn ablation_and_footprint_bodies_are_pinned() {
        assert!(gate(FOOTPRINT, FOOTPRINT).is_ok());
        let err = fails(FOOTPRINT, &FOOTPRINT.replace("314", "315"));
        assert!(
            err.contains("`stages.after_dce.rom` is 314 committed, 315 fresh"),
            "{err}"
        );
        assert!(gate(ABLATIONS, ABLATIONS).is_ok());
        let err = fails(ABLATIONS, &ABLATIONS.replace("121", "120"));
        assert!(err.contains("`domain_surviving_checks.constants`"), "{err}");
        let err = fails(ABLATIONS, &ABLATIONS.replace("-38.1265", "-38.1266"));
        assert!(err.contains("`dce_code_delta_pct`"), "{err}");
    }

    const RACES: &str = r#"{"figure":"race_analysis","analysis":{"apps":[{"app":"A","r001":2,"diagnostics":2,"fix_residual":0}],"totals":{"r001":2}},"dynamics":{"hardened_divergences":0,"unhardened_divergences":5,"oracle_miscompiles":0,"apps":[{"app":"A","hardened_divergences":0}]}}"#;

    #[test]
    fn path_lookup_returns_nested_objects() {
        let v = json::parse(RACES).unwrap();
        let totals = v.path("analysis.totals").unwrap();
        assert_eq!(totals, &Value::Obj(vec![("r001".into(), Value::Num(2.0))]));
        assert_eq!(v.path("analysis.missing"), None);
        assert!(json::parse(r#"{"analysis":{"#).is_err());
    }

    #[test]
    fn race_gate_passes_identical_analysis() {
        assert!(gate(RACES, RACES).is_ok());
    }

    #[test]
    fn race_gate_fails_on_analysis_drift() {
        let fresh = RACES.replace(r#""r001":2"#, r#""r001":3"#);
        let err = fails(RACES, &fresh);
        assert!(
            err.contains("`analysis.apps[0].r001` is 2 committed, 3 fresh"),
            "{err}"
        );
    }

    #[test]
    fn race_gate_fails_on_hardened_divergences() {
        let fresh = RACES.replace(r#""hardened_divergences":0"#, r#""hardened_divergences":1"#);
        let err = fails(RACES, &fresh);
        assert!(err.contains("hardened-torn-immune"), "{err}");
    }

    #[test]
    fn race_gate_requires_both_objects() {
        let bare = r#"{"figure":"race_analysis"}"#;
        assert!(fails(bare, RACES).contains("committed report has no pinned `analysis`"));
        assert!(fails(RACES, bare).contains("fresh report has no pinned `analysis`"));
    }

    const STACK: &str = r#"{"figure":"stack_analysis","analysis":{"apps":[{"app":"A","presets":[{"preset":"unsafe","bound":56,"budget":4000,"vectors":1,"s001":0,"s002":0,"s003":0}]}],"totals":{"s001":0,"bounded_cells":1}},"dynamics":{"seconds":10,"watermark_violations":0,"watermarks":{"A":[44]},"apps":[{"app":"A","bound":56,"watermark":44,"max_watermark":44}]}}"#;

    #[test]
    fn stack_gate_passes_identical_bodies() {
        assert!(gate(STACK, STACK).is_ok());
    }

    #[test]
    fn stack_gate_fails_on_analysis_drift() {
        let fresh = STACK.replace(r#""bound":56,"budget""#, r#""bound":64,"budget""#);
        let err = fails(STACK, &fresh);
        assert!(err.contains("`analysis.apps[0].presets[0].bound`"), "{err}");
    }

    #[test]
    fn stack_gate_fails_on_watermark_violations() {
        let fresh = STACK.replace(r#""watermark_violations":0"#, r#""watermark_violations":2"#);
        let err = fails(STACK, &fresh);
        assert!(err.contains("zero-watermark-violations"), "{err}");
    }

    #[test]
    fn stack_gate_compares_watermarks_only_on_matching_horizons() {
        // Same horizon, different watermarks: the engines disagreed.
        let diverged = STACK.replace(r#""watermarks":{"A":[44]}"#, r#""watermarks":{"A":[45]}"#);
        let err = fails(STACK, &diverged);
        assert!(err.contains("`dynamics.watermarks.A[0]`"), "{err}");
        // Different horizon: watermarks legitimately differ — only the
        // pinned analysis and the invariants are checked.
        let short = diverged.replace(r#""seconds":10"#, r#""seconds":2"#);
        assert!(gate(STACK, &short).is_ok());
    }

    #[test]
    fn stack_gate_requires_both_objects() {
        let bare = r#"{"figure":"stack_analysis"}"#;
        assert!(fails(bare, STACK).contains("committed report has no pinned `analysis`"));
        assert!(fails(STACK, bare).contains("fresh report has no pinned `analysis`"));
        let gutted = STACK.replace(r#""watermark_violations":0,"#, "");
        assert!(fails(STACK, &gutted).contains("no `dynamics.watermark_violations`"));
        let unbounded = STACK.replace(r#""bound":56,"budget""#, r#""bound":-1,"budget""#);
        assert!(fails(&unbounded, &unbounded).contains("every-cell-bounded"));
    }

    const FLEET: &str = r#"{"figure":"fleet","pinned":{"fleet_seconds":4,"quality":{"loss_ppm":30000},"rows":[{"motes":10,"seed":1,"heard":5,"offered":9,"dropped":2,"reboots":1},{"motes":10,"seed":2,"heard":6,"offered":9,"dropped":3,"reboots":1},{"motes":100,"seed":1,"heard":50,"offered":90,"dropped":30,"reboots":1}],"campaign":{"motes":9,"victim":4,"sites":6,"detected":3,"crashed":1,"poisoned":1,"contained":0,"benign":1},"equivalence_ok":true},"counters":{"rows":[{"motes":10,"seed":1,"pops":20107},{"motes":10,"seed":2,"pops":19674},{"motes":100,"seed":1,"pops":418506}]},"dynamics":{"rows":[{"motes":10,"seed":1,"wall_ms":48.3,"pops_per_sec":416205.5}]}}"#;

    fn fleet_subset() -> String {
        FLEET
            .replace(
                r#"{"motes":10,"seed":2,"heard":6,"offered":9,"dropped":3,"reboots":1},"#,
                "",
            )
            .replace(
                r#",{"motes":100,"seed":1,"heard":50,"offered":90,"dropped":30,"reboots":1}"#,
                "",
            )
            .replace(r#",{"motes":10,"seed":2,"pops":19674}"#, "")
            .replace(r#",{"motes":100,"seed":1,"pops":418506}"#, "")
    }

    #[test]
    fn path_lookup_returns_row_arrays() {
        let v = json::parse(FLEET).unwrap();
        let rows = v.path("pinned.rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].path("motes").and_then(Value::as_f64), Some(10.0));
        assert_eq!(v.path("pinned.missing"), None);
        assert_eq!(json::parse("[]").unwrap().as_arr(), Some(&[][..]));
    }

    #[test]
    fn fleet_gate_passes_identical_and_subset_runs() {
        assert!(gate(FLEET, FLEET).is_ok());
        // CI runs a smaller sweep: only the surviving row is compared.
        assert!(gate(FLEET, &fleet_subset()).is_ok());
    }

    #[test]
    fn fleet_gate_fails_on_row_drift_and_unknown_rows() {
        let drift = FLEET.replace(r#""seed":1,"heard":5"#, r#""seed":1,"heard":4"#);
        let err = fails(FLEET, &drift);
        assert!(
            err.contains("`pinned.rows[motes=10,seed=1].heard`"),
            "{err}"
        );
        let unknown = FLEET.replace(r#""motes":100,"seed":1"#, r#""motes":200,"seed":1"#);
        assert!(fails(FLEET, &unknown).contains("no committed counterpart"));
        let empty = fleet_subset().replace(
            r#"{"motes":10,"seed":1,"heard":5,"offered":9,"dropped":2,"reboots":1}"#,
            "",
        );
        assert!(fails(FLEET, &empty).contains("sweep-rows-present"));
    }

    #[test]
    fn fleet_gate_pins_grant_counters() {
        let drift = FLEET.replace(r#""seed":2,"pops":19674"#, r#""seed":2,"pops":19675"#);
        let err = fails(FLEET, &drift);
        assert!(
            err.contains("`counters.rows[motes=10,seed=2].pops` is 19674 committed, 19675 fresh"),
            "{err}"
        );
        // A smaller sweep compares only the cells it ran.
        let subset = fleet_subset();
        assert!(
            !subset.contains("19674") && subset.contains("20107"),
            "{subset}"
        );
        assert!(gate(FLEET, &subset).is_ok());
        // Wall time and rate are dynamics, never pinned.
        let slower = FLEET.replace(
            r#""wall_ms":48.3,"pops_per_sec":416205.5"#,
            r#""wall_ms":96.6,"pops_per_sec":208102.7"#,
        );
        assert!(gate(FLEET, &slower).is_ok());
        let uncounted = FLEET.replace(r#""counters":"#, r#""uncounted":"#);
        assert!(fails(FLEET, &uncounted).contains("fresh report has no pinned `counters`"));
    }

    #[test]
    fn fleet_gate_fails_on_campaign_drift() {
        let drift = FLEET
            .replace(r#""detected":3"#, r#""detected":2"#)
            .replace(r#""benign":1"#, r#""benign":2"#);
        let err = fails(FLEET, &drift);
        assert!(err.contains("`pinned.campaign.detected`"), "{err}");
        assert!(!err.contains("campaign-verdicts-complete"), "{err}");
    }

    #[test]
    fn fleet_gate_fails_on_broken_equivalence_or_horizon() {
        let diverged = FLEET.replace(r#""equivalence_ok":true"#, r#""equivalence_ok":false"#);
        assert!(fails(FLEET, &diverged).contains("lockstep"));
        let horizon = FLEET.replace(r#""fleet_seconds":4"#, r#""fleet_seconds":2"#);
        assert!(fails(FLEET, &horizon).contains("`pinned.fleet_seconds` is 4 committed, 2 fresh"));
        let bare = r#"{"figure":"fleet"}"#;
        assert!(fails(bare, FLEET).contains("committed report has no pinned `pinned`"));
        assert!(fails(FLEET, bare).contains("fresh report has no pinned `pinned`"));
    }

    #[test]
    fn fleet_gate_pins_link_quality() {
        let lossier = FLEET.replace(r#""loss_ppm":30000"#, r#""loss_ppm":20000"#);
        let err = fails(FLEET, &lossier);
        assert!(
            err.contains("`pinned.quality.loss_ppm` is 30000 committed, 20000 fresh"),
            "{err}"
        );
    }

    #[test]
    fn sim_speed_gate_fails_below_the_floor_and_on_divergence() {
        assert!(gate(SIM, SIM).is_ok());
        let slow = SIM.replace("11.7959", "9.5000");
        assert!(fails(SIM, &slow).contains("`kernel_speedup` is 9.5, expected at least 10"));
        // The floor is the contract's: a report declaring a lower one
        // does not lower it.
        let lowered = slow.replace(r#""speedup_min":10.0000"#, r#""speedup_min":0.1000"#);
        assert!(fails(SIM, &lowered).contains("kernel-speedup-floor"));
        let diverged = SIM.replace("true", "false");
        assert!(fails(SIM, &diverged).contains("engines-identical"));
    }

    const SIM_COUNTERS: &str = r#"{"figure":"sim_speed","kernel_cycles":2000,"seconds":10,"kernel_speedup":11.0,"engines_identical":true,"counters":{"kernels":[{"kernel":"count_loop","cycles":2000,"instructions":1333}],"apps":[{"app":"Blink","cycles":40000000,"awake_cycles":20919,"instructions":11274,"blocks":24,"fused_superinstructions":19}]}}"#;

    #[test]
    fn sim_speed_gate_pins_work_counters_at_equal_horizons() {
        assert!(gate(SIM_COUNTERS, SIM_COUNTERS).is_ok());
        let more_work = SIM_COUNTERS.replace(r#""instructions":1333"#, r#""instructions":1334"#);
        let err = fails(SIM_COUNTERS, &more_work);
        assert!(
            err.contains("`counters.kernels[0].instructions` is 1333 committed, 1334 fresh"),
            "{err}"
        );
        let refused = SIM_COUNTERS.replace(
            r#""fused_superinstructions":19"#,
            r#""fused_superinstructions":18"#,
        );
        assert!(fails(SIM_COUNTERS, &refused).contains("pinned `counters.apps` drifted"));
        // Another horizon is another workload: its counters are not
        // comparable, so they are not pinned.
        let longer = more_work.replace(r#""kernel_cycles":2000"#, r#""kernel_cycles":4000"#);
        assert!(gate(SIM_COUNTERS, &longer).is_ok());
        let shorter = refused.replace(r#""seconds":10"#, r#""seconds":2"#);
        assert!(gate(SIM_COUNTERS, &shorter).is_ok());
    }

    fn fault_report(detected: &[u32]) -> String {
        let rows: Vec<String> = default_pipelines()
            .iter()
            .zip(detected)
            .map(|(p, d)| format!(r#"{{"pipeline":"{}","detected":{d}}}"#, p.name()))
            .collect();
        format!(
            r#"{{"figure":"fault_injection","pipelines":[{}]}}"#,
            rows.join(",")
        )
    }

    #[test]
    fn fault_gate_checks_detection_on_the_default_grid_only() {
        let good = fault_report(&[0, 40, 40, 40, 40, 40, 0]);
        assert!(gate(&good, &good).is_ok());
        let gcc = fails(&good, &fault_report(&[1, 40, 40, 40, 40, 40, 0]));
        assert!(gcc.contains("gcc: `detected` is 1, expected 0"), "{gcc}");
        let blind = fails(&good, &fault_report(&[0, 40, 0, 40, 40, 40, 0]));
        assert!(
            blind.contains("`detected` is 0, expected at least 1"),
            "{blind}"
        );
        let noharden = fails(&good, &fault_report(&[0, 40, 40, 40, 40, 40, 3]));
        assert!(noharden.contains(NOHARDEN_STACK), "{noharden}");
        // A swept subset (STOS_PIPELINE) may hold zero-coverage stacks.
        assert!(gate(&good, &fault_report(&[0, 0, 0])).is_ok());
    }

    const FAULT_COUNTERS: &str = r#"{"figure":"fault_injection","seconds":10,"sites":16,"seed":49374,"pipelines":[],"counters":[{"pipeline":"gcc","golden_instructions":1147586,"fork_instructions":2364963,"fork_ends":{"converged":97,"dead_bytes":40,"rejoined":14,"horizon":25}}]}"#;

    #[test]
    fn fault_gate_pins_work_counters_of_one_workload() {
        assert!(gate(FAULT_COUNTERS, FAULT_COUNTERS).is_ok());
        let more_work = FAULT_COUNTERS.replace("2364963", "2364964");
        let err = fails(FAULT_COUNTERS, &more_work);
        assert!(
            err.contains("`counters[0].fork_instructions` is 2364963 committed, 2364964 fresh"),
            "{err}"
        );
        let rejoined = FAULT_COUNTERS.replace(r#""rejoined":14"#, r#""rejoined":15"#);
        assert!(fails(FAULT_COUNTERS, &rejoined).contains("pinned `counters` drifted"));
        // Another horizon, site count or seed is another workload.
        for (from, to) in [
            ("\"seconds\":10", "\"seconds\":2"),
            ("\"sites\":16", "\"sites\":4"),
            ("\"seed\":49374", "\"seed\":7"),
        ] {
            assert!(
                gate(FAULT_COUNTERS, &more_work.replace(from, to)).is_ok(),
                "{to}"
            );
        }
    }

    const FIG2: &str = r#"{"figure":"fig2_checks","apps":[{"app":"A","checks_inserted":4,"removed_pct":{"gcc":0.0000,"ccured+cxprop+gcc":50.0000}}],"total":{"checks_inserted":4,"gcc":0.0000,"ccured+cxprop+gcc":50.0000}}"#;

    #[test]
    fn cxprop_figures_pin_their_tables() {
        assert!(gate(FIG2, FIG2).is_ok());
        let removed = fails(FIG2, &FIG2.replacen("50.0000", "75.0000", 1));
        assert!(removed.contains("apps"), "{removed}");
        let total = fails(FIG2, &FIG2.replace(r#"4,"gcc""#, r#"5,"gcc""#));
        assert!(total.contains("total"), "{total}");
        let fig3b = FIG3A.replace("fig3a_code_size", "fig3b_data_size");
        for report in [FIG3A, &fig3b] {
            assert!(gate(report, report).is_ok());
            let drift = fails(report, &report.replace("9.5238", "-9.5238"));
            assert!(drift.contains("`apps[0].delta_pct.safe-flid`"), "{drift}");
        }
    }

    #[test]
    fn malformed_or_truncated_input_is_an_input_error() {
        assert!(input_error("{", FLEET).contains("committed report is not JSON"));
        for cut in 0..FLEET.len() {
            let msg = input_error(FLEET, &FLEET[..cut]);
            assert!(msg.contains("fresh report is not JSON"), "{cut}: {msg}");
        }
        assert!(input_error(FLEET, r#"{"figure":"fig3c_duty_cycle"}"#).contains("no contract"));
        assert!(input_error(FLEET, RACES).contains("committed figure \"fleet\""));
        assert!(input_error(FLEET, "[1]").contains("no \"figure\""));
    }

    #[test]
    fn committed_reports_pass_their_own_contracts() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut gated = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            let body = std::fs::read_to_string(&path).unwrap();
            match gate(&body, &body) {
                Ok(_) => gated.push(file),
                Err(GateError::Input(msg)) if msg.contains("no contract") => {}
                Err(e) => panic!("{file}: {e:?}"),
            }
        }
        // races, stack, fleet, sim_speed, difftest, fault_injection,
        // fig2, fig3a, fig3b, ablations and runtime_footprint.
        assert_eq!(gated.len(), 11, "{gated:?}");
    }
}
