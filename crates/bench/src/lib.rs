//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§3), plus the campaigns, oracles and analyses
//! built on the same toolchain. Each binary writes one report:
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `fig2_checks` | Figure 2: % of inserted checks removed by 4 optimizer stacks |
//! | `fig3a_code_size` | Figure 3(a): Δ code size under 7 configurations, plus the grid's pass-cache census |
//! | `fig3b_data_size` | Figure 3(b): Δ static data size |
//! | `fig3c_duty_cycle` | Figure 3(c): Δ duty cycle over simulated minutes |
//! | `runtime_footprint` | §2.3: the runtime-library reduction story |
//! | `ablations` | §2.1 claims: early inlining, strong DCE, copy-prop, atomic optimization |
//! | `pipeline_matrix` | pass subsets/orders/options × 3 apps — the composition sweep the paper couldn't afford |
//! | `fault_injection` | §2's detection claim: injected-corruption campaigns per pipeline, detection rates and FLID triage |
//! | `difftest` | differential oracle: generated programs and stock apps under every preset vs. the reference |
//! | `race_analysis` | the static race census, its fixes, and a torn-update campaign |
//! | `stack_analysis` | certified stack bounds against simulated watermarks |
//! | `sim_speed` | interpreter vs. block-translation throughput, with their identity |
//! | `fleet` | multi-mote Surge fleets on a lossy radio grid, with churn and a fleet campaign |
//! | `gate` | checks a report against its committed baseline ([`gate`]) |
//!
//! Each harness holds one [`BuildService`] with `STOS_THREADS` workers
//! (one frontend compile per app, shared pass cache) and expands its
//! app × configuration grid with [`grid`]. Reports carry no compile
//! times: they are byte-identical for any worker count.

pub mod diff;
pub mod fault;
pub mod fleet;
pub mod gate;
pub mod json;
pub mod kernels;
pub mod races;
pub mod stack;

use std::path::{Path, PathBuf};

use safe_tinyos::BuildService;
use tosapps::AppSpec;

pub use knobs::Knobs;

/// Runs `f` over every cell of the `apps` × `items` grid on `service`'s
/// worker pool and returns the results as `result[app_index][item_index]`.
///
/// Jobs are numbered app-major, and each worker takes a contiguous run
/// of them, so within a worker's run all of one app's items go first
/// (its frontend artifact and pass-cache entries stay hot) while the
/// other workers are on other apps. Each result lands in its grid
/// slot: the output
/// is byte-for-byte independent of scheduling. A panicking cell panics
/// the whole grid, with its app × item label prepended to the message.
pub fn grid<C, R, F>(service: &BuildService, apps: &[&str], items: &[C], f: F) -> Vec<Vec<R>>
where
    C: Sync,
    R: Send,
    F: Fn(&AppSpec, &C) -> R + Sync,
{
    let n = items.len();
    let mut flat = service
        .run_jobs_labeled(
            apps.len() * n,
            |j| {
                let app = apps[j / n];
                let spec = tosapps::spec(app).unwrap_or_else(|| panic!("unknown app {app}"));
                f(&spec, &items[j % n])
            },
            |j| format!("{} / item {}", apps[j / n], j % n),
        )
        .into_iter();
    apps.iter()
        .map(|_| flat.by_ref().take(n).collect())
        .collect()
}

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

    use safe_tinyos::{parse_pipeline_list, Pipeline};

    /// The typed view of every `STOS_*` run-shaping variable.
    #[derive(Debug, Clone)]
    pub struct Knobs {
        /// Worker threads of each harness's `BuildService` (`1` = serial
        /// on the calling thread; `0` counts as 1). Figure tables and
        /// reports are byte-identical for every value, apart from the
        /// wall times of `sim_speed` and the `fleet` dynamics.
        /// `STOS_THREADS`, default the available parallelism.
        pub threads: usize,
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
        /// The stack list that replaces a harness's default one:
        /// `STOS_PIPELINE`, a `;`-separated list in
        /// [`parse_pipeline_list`]'s format. Default unset.
        pub pipelines: Option<Vec<Pipeline>>,
    }

    impl Knobs {
        /// The process-wide knob set, parsed from the environment on
        /// first use and frozen thereafter.
        ///
        /// # Panics
        ///
        /// On a set variable that does not parse, naming it and its
        /// value (`STOS_FAULTS=abc`).
        pub fn from_env() -> &'static Knobs {
            static CELL: OnceLock<Knobs> = OnceLock::new();
            CELL.get_or_init(|| Knobs::parse(|name| std::env::var(name).ok()))
        }

        /// Parses the knobs from `var` (variable name → value, `None`
        /// when unset).
        fn parse(var: impl Fn(&str) -> Option<String>) -> Knobs {
            let num = |name: &str, default: u64| match var(name) {
                Some(s) => s
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}={s} is not a number")),
                None => default,
            };
            let fleet_motes = var("STOS_MOTES")
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(|t| {
                            t.parse().unwrap_or_else(|_| {
                                panic!("STOS_MOTES={s} is not a comma-separated list of numbers")
                            })
                        })
                        .collect::<Vec<usize>>()
                })
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| vec![10, 100, 1000]);
            let pipelines = var("STOS_PIPELINE").map(|s| {
                parse_pipeline_list(&s).unwrap_or_else(|e| panic!("STOS_PIPELINE={s}: {e}"))
            });
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Knobs {
                threads: (num("STOS_THREADS", cores as u64) as usize).max(1),
                sim_seconds: num("STOS_SECONDS", 10),
                fault_sites: num("STOS_FAULTS", 16) as usize,
                diff_seeds: num("STOS_DIFF_SEEDS", 50),
                diff_base: num("STOS_DIFF_BASE", 1),
                torn_sites: num("STOS_TORN", 4) as usize,
                kernel_cycles: num("STOS_KERNEL_CYCLES", 200_000_000),
                fleet_motes,
                fleet_seeds: num("STOS_FLEET_SEEDS", 2),
                fleet_seconds: num("STOS_FLEET_SECONDS", 4),
                pipelines,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Knobs;

        fn with(vars: &[(&str, &str)]) -> Knobs {
            Knobs::parse(|name| {
                vars.iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| v.to_string())
            })
        }

        #[test]
        fn unset_knobs_take_their_defaults() {
            let k = with(&[]);
            assert_eq!((k.sim_seconds, k.fault_sites, k.diff_seeds), (10, 16, 50));
            assert_eq!(k.fleet_motes, [10, 100, 1000]);
            assert!(k.threads >= 1);
            let k = with(&[("STOS_THREADS", "0"), ("STOS_MOTES", "10, 100,")]);
            assert_eq!((k.threads, k.fleet_motes), (1, vec![10, 100]));
        }

        #[test]
        fn unparsable_knobs_are_rejected_by_name() {
            for (vars, want) in [
                (&[("STOS_FAULTS", "abc")][..], "STOS_FAULTS=abc"),
                (&[("STOS_THREADS", "four")][..], "STOS_THREADS=four"),
                (&[("STOS_MOTES", "10,x")][..], "STOS_MOTES=10,x"),
                (
                    &[("STOS_PIPELINE", "cure(nope)")][..],
                    "STOS_PIPELINE=cure(nope): ",
                ),
            ] {
                let err = std::panic::catch_unwind(|| with(vars)).unwrap_err();
                let msg = err.downcast_ref::<String>().expect("formatted message");
                assert!(msg.starts_with(want), "{msg}");
            }
        }

        #[test]
        fn pipeline_list_replaces_the_default_stacks() {
            let names = |k: &Knobs| -> Vec<String> {
                let stacks = k.pipelines.as_deref().unwrap_or_default();
                stacks.iter().map(|p| p.name().to_string()).collect()
            };
            assert!(with(&[]).pipelines.is_none());
            let k = with(&[(
                "STOS_PIPELINE",
                "gcc:cure(flid,noopt); safe:cure(flid)|prune",
            )]);
            assert_eq!(names(&k), ["gcc", "safe"]);
            assert_eq!(k.pipelines.unwrap()[1].to_string(), "cure(flid)|prune");
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
