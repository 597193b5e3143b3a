//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§3). Each binary prints one figure:
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `fig2_checks` | Figure 2: % of inserted checks removed by 4 optimizer stacks |
//! | `fig3a_code_size` | Figure 3(a): Δ code size under 7 configurations |
//! | `fig3b_data_size` | Figure 3(b): Δ static data size |
//! | `fig3c_duty_cycle` | Figure 3(c): Δ duty cycle over simulated minutes |
//! | `runtime_footprint` | §2.3: the runtime-library reduction story |
//! | `ablations` | §2.1 claims: early inlining, strong DCE, copy-prop, atomic optimization |
//! | `pipeline_matrix` | pass subsets/orders/options × 3 apps — the composition sweep the paper couldn't afford |
//! | `fault_injection` | §2's detection claim: injected-corruption campaigns per pipeline, detection rates and FLID triage |
//!
//! All of them drive their app × configuration grids through
//! [`runner::ExperimentRunner`], which shares one frontend artifact
//! cache per session and fans jobs out across `STOS_THREADS` workers,
//! and each emits `BENCH_toolchain_speed.json` describing what the
//! toolchain itself cost.

pub mod diff;
pub mod fault;
pub mod fleet;
pub mod gate;
pub mod json;
pub mod kernels;
pub mod races;
pub mod runner;
pub mod stack;

use std::path::{Path, PathBuf};

pub use knobs::Knobs;
pub use runner::{ExperimentRunner, GridJob, SpeedReport, WarmCache};

/// Percent change of `new` relative to `base`.
pub fn pct_change(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) * 100.0 / base as f64
}

/// Formats a row of right-aligned cells after a left-aligned label.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Run-shortening environment knobs, shared by every harness and parsed
/// exactly once per process (CI shortens runs by exporting these; the
/// harnesses must all agree on what they saw, even if the environment
/// mutates mid-run). Harness mains call [`Knobs::from_env`] once and
/// pass the values they need down explicitly — library code takes plain
/// parameters and never reads the environment itself.
pub mod knobs {
    use std::sync::OnceLock;

    fn parse_u64(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// The typed view of every `STOS_*` run-shaping variable.
    #[derive(Debug, Clone)]
    pub struct Knobs {
        /// Simulated seconds for duty-cycle and fault-campaign runs:
        /// the paper uses 3 minutes; a smaller default keeps the
        /// harnesses quick. `STOS_SECONDS`, default 10.
        pub sim_seconds: u64,
        /// Injection sites per app × pipeline cell of a fault campaign.
        /// `STOS_FAULTS`, default 16.
        pub fault_sites: usize,
        /// Generated-program subjects for the differential oracle.
        /// `STOS_DIFF_SEEDS`, default 50.
        pub diff_seeds: u64,
        /// First seed of the differential oracle's range (the subjects
        /// are `diff_base .. diff_base + diff_seeds`) — set
        /// `STOS_DIFF_SEEDS=1 STOS_DIFF_BASE=N` to replay one
        /// divergence-triggering seed. `STOS_DIFF_BASE`, default 1.
        pub diff_base: u64,
        /// Torn-update injections per flagged target in the
        /// race-analysis campaign. `STOS_TORN`, default 4.
        pub torn_sites: usize,
        /// Simulated cycles each `sim_speed` compute kernel runs per
        /// engine. `STOS_KERNEL_CYCLES`, default 200M.
        pub kernel_cycles: u64,
        /// Fleet sizes the `fleet` harness sweeps. The committed
        /// `BENCH_fleet.json` carries the full `10,100,1000` sweep; CI
        /// overrides with a smaller population via `STOS_MOTES`
        /// (comma-separated) and the gate compares only the rows the
        /// fresh run produced.
        pub fleet_motes: Vec<usize>,
        /// Seeds per fleet size in the `fleet` harness's sweep.
        /// `STOS_FLEET_SEEDS`, default 2 (CI uses 1).
        pub fleet_seeds: u64,
        /// Simulated seconds per fleet run. Deliberately independent of
        /// [`Knobs::sim_seconds`]: CI shortens `STOS_SECONDS` for the
        /// single-mote harnesses, but the fleet rows are byte-pinned
        /// against the committed baseline, so their horizon must not
        /// move with it. `STOS_FLEET_SECONDS`, default 4.
        pub fleet_seconds: u64,
    }

    impl Knobs {
        /// The process-wide knob set, parsed from the environment on
        /// first use and frozen thereafter.
        pub fn from_env() -> &'static Knobs {
            static CELL: OnceLock<Knobs> = OnceLock::new();
            CELL.get_or_init(Knobs::parse)
        }

        fn parse() -> Knobs {
            let fleet_motes = {
                let parsed: Option<Vec<usize>> = std::env::var("STOS_MOTES").ok().map(|s| {
                    s.split(',')
                        .filter(|t| !t.trim().is_empty())
                        .filter_map(|t| t.trim().parse().ok())
                        .collect()
                });
                match parsed {
                    Some(v) if !v.is_empty() => v,
                    _ => vec![10, 100, 1000],
                }
            };
            Knobs {
                sim_seconds: parse_u64("STOS_SECONDS", 10),
                fault_sites: parse_u64("STOS_FAULTS", 16) as usize,
                diff_seeds: parse_u64("STOS_DIFF_SEEDS", 50),
                diff_base: parse_u64("STOS_DIFF_BASE", 1),
                torn_sites: parse_u64("STOS_TORN", 4) as usize,
                kernel_cycles: parse_u64("STOS_KERNEL_CYCLES", 200_000_000),
                fleet_motes,
                fleet_seeds: parse_u64("STOS_FLEET_SEEDS", 2),
                fleet_seconds: parse_u64("STOS_FLEET_SECONDS", 4),
            }
        }
    }
}

/// Writes `body` to `BENCH_<name>.json` in `STOS_BENCH_DIR` (default:
/// the current directory, created if missing) so each figure leaves a
/// machine-readable trace alongside its printed table. Returns the path
/// written.
///
/// # Errors
///
/// Propagates the I/O error if the directory cannot be created or the
/// file cannot be written.
pub fn emit_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    let dir = std::env::var("STOS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    write_report(Path::new(&dir), name, body)
}

fn write_report(dir: &Path, name: &str, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, body)?;
    println!("[wrote {}]", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reports_land_in_a_directory_that_did_not_exist() {
        let root = std::env::temp_dir().join(format!("bench-emit-{}", std::process::id()));
        let dir = root.join("nested").join("bench-json");
        assert!(!dir.exists());
        let path = super::write_report(&dir, "probe", "{}").unwrap();
        assert_eq!(path, dir.join("BENCH_probe.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
