//! The repository benchmark: one command runs a named workload against the
//! toolchain and the M16 simulator, checks every output against the
//! committed figures, and prints every metric by name and unit. The last
//! line of standard output is one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"ops_per_s":{"value":…,"unit":"1/s"},…}}
//! ```
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path stosbench/Cargo.toml -- \
//!     --workload compile_cold|campaign|fleet --seed N --seconds S --trace 0|1 \
//!     [--site-seed N] [--fleet-seeds A,B,…]
//! ```
//!
//! All measurement comes from outside the program: the benchmark times its
//! own calls into the public API of `safe_tinyos`, `mcu`, `ccured` and
//! `bench`, and reads the counters those calls return. Load comes from
//! one process with two worker threads. With `--trace 1` the per-layer
//! metrics are printed instead of the end-to-end ones, and the span log
//! is written to `stosbench/out/`. `--record-digests` rewrites
//! `stosbench/digests.txt` from fresh builds.
//!
//! `--seed` picks the cells re-checked by the independent references
//! (the interpreter for the simulator workloads, an uncached session for
//! `compile_cold`); the cells themselves are the committed ones.
//! `--site-seed` and `--fleet-seeds` move the campaign's injection sites
//! and the fleet's cell seeds off the committed ones, for re-checking a
//! claim on held-out inputs.

mod campaign;
mod compile;
mod fleet;
mod json;
mod reference;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use mcu::Engine;
use safe_tinyos::{BuildRequest, BuildService};

use crate::json::{number, quote};
use crate::reference::{image_digest, render_digests, References, DIGESTS};
use crate::report::{median, peak_rss_mb, quantile, Outcome, WORKERS};

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("fail_rate", "ratio"),
    ("nesc.frontend_s", "s"),
    ("nesc.frontend_compiles", "count"),
    ("ccured.cure_s", "s"),
    ("ccured.prune_s", "s"),
    ("ccured.triage_s", "s"),
    ("cxprop.inline_s", "s"),
    ("cxprop.cxprop_s", "s"),
    ("backend.prepare_s", "s"),
    ("backend.link_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.bytes", "bytes"),
    ("core.service.busy_s", "s"),
    ("core.service.idle_s", "s"),
    ("mcu.prepare_s", "s"),
    ("mcu.block_decode_s", "s"),
    ("mcu.run_s", "s"),
    ("mcu.cycles", "count"),
    ("mcu.awake_cycles", "count"),
    ("mcu.instructions", "count"),
    ("mcu.minstr_per_s", "Minstr/s"),
    ("mcu.awake_share", "ratio"),
    ("core.campaign.golden_s", "s"),
    ("core.campaign.golden_cycles", "count"),
    ("core.campaign.prefix_s", "s"),
    ("core.campaign.prefix_cycles", "count"),
    ("core.campaign.suffix_s", "s"),
    ("core.campaign.suffix_cycles", "count"),
    ("core.campaign.prefix_share", "ratio"),
    ("mcu.faults.enumerate_s", "s"),
    ("mcu.faults.sites", "count"),
    ("core.fleet.build_s", "s"),
    ("mcu.fleet.run_s", "s"),
    ("core.fleet.sink_s", "s"),
    ("mcu.fleet.pops", "count"),
    ("mcu.fleet.pops_per_s", "1/s"),
    ("mcu.fleet.ns_per_pop", "ns"),
    ("mcu.fleet.tx_bytes", "bytes"),
    ("mcu.fleet.delivered", "count"),
    ("mcu.fleet.dropped", "count"),
    ("mcu.fleet.reboots", "count"),
    ("trace.coverage", "ratio"),
    ("trace.traced_round_s", "s"),
    ("trace.untraced_round_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("run.rounds", "count"),
    ("run.cells", "count"),
    ("run.cells_beyond_p90", "count"),
];

/// The environment variables that would make the benchmark measure a
/// different program.
const REFUSED_ENV: [&str; 3] = ["STOS_ENGINE", "STOS_PIPELINE", "STOS_THREADS"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The campaign's injection-site seed.
    pub site_seed: u64,
    /// The fleet's cell seeds.
    pub fleet_seeds: Vec<u64>,
    pub record_digests: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("{s:?}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        site_seed: safe_tinyos::CampaignConfig::default().seed,
        fleet_seeds: fleet::SEEDS.to_vec(),
        record_digests: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_u64(value)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            "--site-seed" => args.site_seed = parse_u64(value)?,
            "--fleet-seeds" => {
                args.fleet_seeds = value.split(',').map(parse_u64).collect::<Result<_, _>>()?;
                if args.fleet_seeds.is_empty() {
                    return Err("--fleet-seeds: no seeds".into());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !args.record_digests
        && !["compile_cold", "campaign", "fleet"].contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload {:?}: expected compile_cold, campaign or fleet",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stosbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "stosbench: refusing to run with {var} set: it would measure a different program"
        );
        return ExitCode::from(2);
    }
    if args.record_digests {
        return record_digests();
    }
    let refs = match References::load(Path::new(".")) {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("stosbench: cannot load the references (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "compile_cold" => compile::run(&args, &refs),
        "campaign" => campaign::run(&args, &refs),
        _ => fleet::run(&args, &refs),
    };
    report(&args, out);
    ExitCode::SUCCESS
}

/// The commit of a git checkout at the working directory, if it is one.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
}

/// An FNV-1a digest of the sources the benchmark measures (the commit
/// stand-in when the checkout is not a git repository).
fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == "out")
            {
                return;
            }
            if let Ok(entries) = std::fs::read_dir(path) {
                for e in entries.flatten() {
                    walk(&e.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "src", "stosbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn report(args: &Args, mut out: Outcome) {
    let engine = Engine::from_env();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit().unwrap_or_else(|| "unknown".into());
    let source = source_digest();
    let mut cells = out.cells_ms.clone();
    cells.sort_by(f64::total_cmp);
    let (p50, p90) = (quantile(&cells, 0.5), quantile(&cells, 0.9));
    let beyond_p90 = cells.iter().filter(|&&c| c > p90).count();
    let rss = peak_rss_mb();
    let end_to_end = BTreeMap::from([
        ("setup_s", median(&out.setup_s)),
        ("ops_per_s", median(&out.round_ops_per_s)),
        ("cell_p50_ms", p50),
        ("cell_p90_ms", p90),
        ("peak_rss_mb", rss),
    ]);
    let tally = &out.tally;
    let correct = tally.failed == 0 && out.trace_problems.is_empty();

    println!(
        "# stosbench workload={} seed={} seconds={} trace={} engine={} workers={WORKERS} \
         nproc={nproc} commit={commit} source={source}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        engine.name()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# {} rounds, {} cells, {} ops in {:.3} s measured",
        out.rounds,
        cells.len(),
        out.ops,
        out.measured_s
    );
    let rounds: Vec<String> = out
        .round_ops_per_s
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("# ops/s per round: {}", rounds.join(" "));
    let setups: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("# setup_s per repetition: {}", setups.join(" "));
    for (name, unit) in END_TO_END {
        println!("# {name:<14} {:>14.6} {unit}", end_to_end[name]);
    }
    if beyond_p90 < 10 {
        println!("# cell_p90_ms rests on {beyond_p90} cells beyond p90 (< 10): indicative only");
    }
    println!(
        "# fail_rate      {:>14.6} ({} of {} ops failed)",
        tally.fail_rate(),
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        println!("# FAILED {f}");
    }
    for p in &out.trace_problems {
        println!("# TRACE INVALID {p}");
    }

    let metrics: Vec<String> = if args.trace {
        let l = &mut out.layers;
        l.insert("fail_rate", tally.fail_rate());
        l.insert("run.rounds", out.rounds as f64);
        l.insert("run.cells", cells.len() as f64);
        l.insert("run.cells_beyond_p90", beyond_p90 as f64);
        for name in l.keys() {
            debug_assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted {name}");
        }
        for (name, unit) in PER_LAYER {
            println!(
                "# {name:<32} {:>18.6} {unit}",
                l.get(name).copied().unwrap_or(0.0)
            );
        }
        write_trace(args, &out.spans, engine, nproc, &commit, &source);
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, l.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| metric(name, end_to_end[name], unit))
            .collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(name),
        number(value),
        quote(unit)
    )
}

fn write_trace(
    args: &Args,
    spans: &[trace::Span],
    engine: Engine,
    nproc: usize,
    commit: &str,
    source: &str,
) {
    let dir = Path::new("stosbench/out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let meta = format!(
        "{{\"workload\":{},\"seed\":{},\"engine\":{},\"workers\":{WORKERS},\"nproc\":{nproc},\
         \"commit\":{},\"source\":{}}}",
        quote(&args.workload),
        args.seed,
        quote(engine.name()),
        quote(commit),
        quote(source)
    );
    let written =
        std::fs::create_dir_all(dir).and_then(|()| trace::write_json(&path, &meta, spans));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

/// Rebuilds every image the workloads use and rewrites the digest file.
fn record_digests() -> ExitCode {
    let mut requests = compile::requests();
    requests.extend(
        campaign::cells()
            .into_iter()
            .map(|c| BuildRequest::new(c.spec, c.pipeline)),
    );
    requests.push(fleet::request());
    let keys: Vec<(String, String)> = requests
        .iter()
        .map(|r| (r.spec.name.to_string(), r.pipeline.spec()))
        .collect();
    let mut digests = BTreeMap::new();
    for (key, result) in keys
        .into_iter()
        .zip(BuildService::with_threads(WORKERS).submit(requests))
    {
        match result {
            Ok(build) => {
                digests.insert(key, image_digest(&build));
            }
            Err(e) => {
                eprintln!("stosbench: {} / {}: {e}", key.0, key.1);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(DIGESTS, render_digests(&digests)) {
        eprintln!("stosbench: {DIGESTS}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} digests to {DIGESTS}", digests.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_default_to_the_committed_seeds() {
        let a = parse_args(&argv("--workload fleet --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert_eq!(a.site_seed, 0xC0DE);
        assert_eq!(a.fleet_seeds, fleet::SEEDS.to_vec());
        let b = parse_args(&argv(
            "--workload campaign --site-seed 0x10 --fleet-seeds 1,2",
        ))
        .unwrap();
        assert_eq!((b.site_seed, b.fleet_seeds), (16, vec![1, 2]));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fleet --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fleet --bogus 1")).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let doc = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
