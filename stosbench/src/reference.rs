//! The output check: every cell the benchmark runs is compared with the
//! committed figure it reproduces, and every image with the digest
//! recorded for it in `stosbench/digests.txt`. A mismatch is reported as
//! a failure naming the cell; it never aborts the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bench::fleet::{pinned_row_json, FleetRow};
use safe_tinyos::{Build, CampaignConfig, CampaignReport};

use crate::json::{self, Value};

/// Where the recorded image digests live, relative to the repository root.
pub const DIGESTS: &str = "stosbench/digests.txt";

/// The committed figures and image digests a run is checked against.
pub struct References {
    fig2: Value,
    fig3a: Value,
    fig3b: Value,
    faults: Value,
    fleet: Value,
    /// `(app, canonical pipeline spec)` → image digest.
    digests: BTreeMap<(String, String), String>,
}

fn load_json(root: &Path, name: &str) -> Result<Value, String> {
    let path = root.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

impl References {
    /// Loads every reference from the repository checkout at `root`.
    pub fn load(root: &Path) -> Result<References, String> {
        let path = root.join(DIGESTS);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut digests = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let fields: Vec<&str> = line.split('\t').collect();
            let [app, spec, digest] = fields[..] else {
                return Err(format!("{}: malformed line {line:?}", path.display()));
            };
            digests.insert((app.to_string(), spec.to_string()), digest.to_string());
        }
        Ok(References {
            fig2: load_json(root, "BENCH_fig2_checks.json")?,
            fig3a: load_json(root, "BENCH_fig3a_code_size.json")?,
            fig3b: load_json(root, "BENCH_fig3b_data_size.json")?,
            faults: load_json(root, "BENCH_fault_injection.json")?,
            fleet: load_json(root, "BENCH_fleet.json")?,
            digests,
        })
    }

    /// Checks an image against the digest recorded for `(app, spec)`.
    pub fn check_digest(&self, app: &str, spec: &str, build: &Build) -> Result<(), String> {
        let got = image_digest(build);
        match self.digests.get(&(app.to_string(), spec.to_string())) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("image digest {got}, recorded {want}")),
            None => Err(format!("no digest recorded for pipeline `{spec}`")),
        }
    }

    /// Checks one `compile_cold` cell (app × preset) against Figures 2,
    /// 3(a) and 3(b): every preset appears in at least one of them.
    pub fn check_compile(&self, app: &str, preset: &str, build: &Build) -> Result<(), String> {
        let m = &build.metrics;
        let mut checked = false;
        for (fig, field, got) in [
            (&self.fig3a, "baseline_flash_bytes", m.flash_bytes),
            (&self.fig3b, "baseline_sram_bytes", m.sram_bytes),
        ] {
            let row = fig
                .get("apps")
                .and_then(|a| a.find("app", app))
                .ok_or_else(|| format!("no row for {app} in {}", figure_name(fig)))?;
            let base = row
                .get(field)
                .and_then(Value::as_u64)
                .ok_or("no baseline")?;
            if preset == "unsafe" {
                checked = true;
                if u64::from(got) != base {
                    return Err(format!(
                        "{}: {field} {got}, committed {base}",
                        figure_name(fig)
                    ));
                }
            } else if let Some(want) = row.get("delta_pct").and_then(|d| d.get(preset)) {
                checked = true;
                let pct = bench::pct_change(base, u64::from(got));
                compare(figure_name(fig), preset, &format!("{pct:.4}"), want)?;
            }
        }
        if let Some(want) = self
            .fig2
            .get("apps")
            .and_then(|a| a.find("app", app))
            .and_then(|row| Some((row, row.get("removed_pct")?.get(preset)?)))
        {
            checked = true;
            let (row, want_pct) = want;
            let inserted = row.get("checks_inserted").and_then(Value::as_u64);
            if inserted != Some(m.checks_inserted as u64) {
                return Err(format!(
                    "fig2_checks: {} checks inserted, committed {inserted:?}",
                    m.checks_inserted
                ));
            }
            let removed = m.checks_inserted.saturating_sub(m.checks_surviving);
            let pct = removed as f64 * 100.0 / m.checks_inserted.max(1) as f64;
            compare("fig2_checks", preset, &format!("{pct:.4}"), want_pct)?;
        }
        if checked {
            Ok(())
        } else {
            Err(format!("no committed figure covers preset `{preset}`"))
        }
    }

    /// Whether the committed campaign figure was made with `config`.
    pub fn campaign_matches_config(&self, config: &CampaignConfig) -> bool {
        let field = |k: &str| self.faults.get(k).and_then(Value::as_u64);
        field("seconds") == Some(config.seconds)
            && field("sites") == Some(config.sites as u64)
            && field("seed") == Some(config.seed)
    }

    /// Checks one campaign cell's tallies and detections against
    /// `BENCH_fault_injection.json`.
    pub fn check_campaign(
        &self,
        app: &str,
        pipeline: &str,
        report: &CampaignReport,
    ) -> Result<(), String> {
        let row = self
            .faults
            .get("pipelines")
            .and_then(|p| p.find("pipeline", pipeline))
            .and_then(|p| p.get("apps")?.find("app", app))
            .ok_or_else(|| "no committed campaign row".to_string())?;
        let c = &report.counts;
        for (field, got) in [
            ("detected", c.detected),
            ("crash", c.crashed),
            ("silent", c.silent),
            ("benign", c.benign),
        ] {
            let want = row.get(field).and_then(Value::as_u64);
            if want != Some(got as u64) {
                return Err(format!("{field} {got}, committed {want:?}"));
            }
        }
        let want = row.get("detections").map(Value::items).unwrap_or(&[]);
        let got: Vec<_> = report.detections().collect();
        if want.len() != got.len() {
            return Err(format!(
                "{} detections, committed {}",
                got.len(),
                want.len()
            ));
        }
        for (w, (site, flid, message)) in want.iter().zip(got) {
            let same = w.get("site").and_then(Value::as_str) == Some(site.site.as_str())
                && w.get("at_cycle").and_then(Value::as_u64) == Some(site.at_cycle)
                && w.get("flid").and_then(Value::as_u64) == Some(u64::from(flid))
                && w.get("message").and_then(Value::as_str) == Some(message);
            if !same {
                return Err(format!(
                    "detection {}@{} FLID {flid} differs from the committed one",
                    site.site, site.at_cycle
                ));
            }
        }
        Ok(())
    }

    /// Checks a fleet cell against the pinned row with the same
    /// `(motes, seed)` in `BENCH_fleet.json`; `None` if no row is pinned
    /// for that seed (a held-out seed).
    pub fn check_fleet(&self, row: &FleetRow) -> Option<Result<(), String>> {
        let pinned = self
            .fleet
            .get("pinned")?
            .get("rows")?
            .items()
            .iter()
            .find(|r| {
                r.get("motes").and_then(Value::as_u64) == Some(row.motes as u64)
                    && r.get("seed").and_then(Value::as_u64) == Some(row.seed)
            })?;
        let fresh = json::parse(&pinned_row_json(row)).expect("the harness renders valid JSON");
        Some(if fresh == *pinned {
            Ok(())
        } else {
            Err(format!("pinned row differs: {}", pinned_row_json(row)))
        })
    }
}

fn figure_name(fig: &Value) -> &str {
    fig.get("figure").and_then(Value::as_str).unwrap_or("?")
}

fn compare(figure: &str, preset: &str, got: &str, want: &Value) -> Result<(), String> {
    match want.num() {
        Some(w) if w == got => Ok(()),
        w => Err(format!("{figure}: {preset} {got}, committed {w:?}")),
    }
}

/// A 64-bit FNV-1a digest of everything the image holds (code, data,
/// vectors, symbol and FLID tables), rendered in hex.
pub fn image_digest(build: &Build) -> String {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{:?}", build.image).expect("hashing cannot fail");
    format!("{:016x}", h.0)
}

/// Renders a digest file for `entries` (`(app, spec, digest)`).
pub fn render_digests(entries: &BTreeMap<(String, String), String>) -> String {
    let mut out = String::from(
        "# Image digests (FNV-1a over the image's full contents) of every build\n\
         # the benchmark makes, keyed by app and canonical pipeline spec.\n\
         # Regenerate: cargo run --release --manifest-path stosbench/Cargo.toml -- --record-digests\n",
    );
    for ((app, spec), digest) in entries {
        writeln!(out, "{app}\t{spec}\t{digest}").expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_tinyos::{BuildSession, Pipeline};

    fn blink(preset: &str) -> (Build, String) {
        let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
        let pipeline = Pipeline::preset(preset).unwrap();
        let build = BuildSession::new().build(&spec, &pipeline).unwrap();
        (build, pipeline.spec())
    }

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn committed_references_accept_a_fresh_build() {
        let refs = References::load(&repo_root()).unwrap();
        for preset in ["unsafe", "safe-flid", "ccured+gcc"] {
            let (build, spec) = blink(preset);
            refs.check_compile("BlinkTask_Mica2", preset, &build)
                .unwrap();
            refs.check_digest("BlinkTask_Mica2", &spec, &build).unwrap();
        }
    }

    #[test]
    fn a_perturbed_reference_fails_the_cell_and_names_it() {
        let mut refs = References::load(&repo_root()).unwrap();
        // Perturb the committed Figure 3(a) row: Blink's safe-flid delta.
        let Value::Obj(members) = &mut refs.fig3a else {
            panic!("fig3a is an object")
        };
        let apps = &mut members.iter_mut().find(|(k, _)| k == "apps").unwrap().1;
        let Value::Arr(rows) = apps else { panic!() };
        let Value::Obj(row) = &mut rows[0] else {
            panic!()
        };
        let Value::Obj(deltas) = &mut row.iter_mut().find(|(k, _)| k == "delta_pct").unwrap().1
        else {
            panic!()
        };
        deltas.iter_mut().find(|(k, _)| k == "safe-flid").unwrap().1 = Value::Num("56.3519".into());

        let (build, _) = blink("safe-flid");
        let mut tally = crate::report::Tally::default();
        tally.cell(
            "BlinkTask_Mica2 / safe-flid",
            1,
            refs.check_compile("BlinkTask_Mica2", "safe-flid", &build),
        );
        let (unsafe_build, _) = blink("unsafe");
        tally.cell(
            "BlinkTask_Mica2 / unsafe",
            1,
            refs.check_compile("BlinkTask_Mica2", "unsafe", &unsafe_build),
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.fail_rate() > 0.0);
        assert!(
            tally.failures[0].starts_with("BlinkTask_Mica2 / safe-flid:"),
            "{:?}",
            tally.failures
        );
        assert!(
            tally.failures[0].contains("56.3519"),
            "{:?}",
            tally.failures
        );
    }

    #[test]
    fn a_wrong_digest_fails() {
        let mut refs = References::load(&repo_root()).unwrap();
        let (build, spec) = blink("unsafe");
        refs.digests
            .insert(("BlinkTask_Mica2".into(), spec.clone()), "0".repeat(16));
        let err = refs
            .check_digest("BlinkTask_Mica2", &spec, &build)
            .unwrap_err();
        assert!(err.contains("recorded 0000000000000000"), "{err}");
    }
}
