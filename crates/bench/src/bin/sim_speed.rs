//! Simulator throughput under both execution engines (`interp` vs
//! `bt`): compute kernels carry the speedup gate, full Mica2 apps
//! carry the byte-identity gate.
//!
//! The harness runs two sections:
//!
//! * **kernels** — always-awake instruction streams from
//!   [`bench::kernels`]. Each runs for `STOS_KERNEL_CYCLES` simulated
//!   cycles, [`SAMPLES`] times per engine with the engines alternating,
//!   and a kernel's wall time per engine is the median of its runs;
//!   the aggregate awake-throughput speedup over the *gated* kernels
//!   (Σ interp wall / Σ bt wall) must reach `bench::gate::SPEEDUP_MIN`
//!   (10×). Non-gated kernels are published for honesty but excluded
//!   from the gate.
//! * **apps** — every Mica2 app built under the paper's full stack and
//!   simulated for `STOS_SECONDS`, [`SAMPLES`] times per engine with
//!   the engines alternating, timed by the median run like a kernel.
//!   Apps sleep most of the time, and the sleep pump is
//!   engine-independent, so app speedups are reported but not
//!   speedup-gated.
//!
//! Both sections enforce identity: the engines must agree on `cycles`,
//! `awake_cycles`, `instr_count`, final state, and fault message for
//! every subject and run (the translation is only legal if it is
//! invisible). The work counters go to the report's `counters` object,
//! which the contract pins: kernels' cycles and instructions, apps'
//! cycles, awake cycles, instructions, blocks and fused
//! superinstructions, and the block engine's op dispatches and
//! single-step fallbacks.
//!
//! Emits `BENCH_sim_speed.json` and self-gates it with the `sim_speed`
//! contract, which the `gate` binary re-checks from the published bytes
//! in CI.

use std::time::Instant;

use bench::gate::{self, SPEEDUP_MIN};
use bench::{emit_json, json, kernels, row, Knobs};
use safe_tinyos::{prepare_machine, BuildSession, Pipeline};

/// Timed runs per engine of each kernel and app. A constant, not a
/// knob: the median of three keeps one descheduled run on a loaded host
/// from moving the gated speedup (or an app's sub-millisecond bt run
/// from moving the reported one).
const SAMPLES: usize = 3;

/// One engine's measurement for one subject.
struct Sample {
    wall_s: f64,
    cycles: u64,
    awake: u64,
    instrs: u64,
    state: String,
    fault: Option<String>,
    /// The block engine's work (zero under the interpreter).
    work: mcu::EngineWork,
}

impl Sample {
    fn matches(&self, other: &Sample) -> bool {
        self.cycles == other.cycles
            && self.awake == other.awake
            && self.instrs == other.instrs
            && self.state == other.state
            && self.fault == other.fault
    }
}

fn sample(m: &mcu::Machine, wall_s: f64) -> Sample {
    Sample {
        wall_s,
        cycles: m.cycles,
        awake: m.awake_cycles,
        instrs: m.instr_count,
        state: format!("{:?}", m.state),
        fault: m.fault_message(),
        work: m.engine_work(),
    }
}

/// Times one run of a fork of `reset` to `until` under `engine`. Forks
/// share `reset`'s block decode, so only the first bt run decodes.
fn measure(reset: &mcu::Machine, until: u64, engine: mcu::Engine) -> Sample {
    let mut m = reset.clone();
    m.set_engine(engine);
    let start = Instant::now();
    m.run(until);
    sample(&m, start.elapsed().as_secs_f64())
}

/// The median-wall run of one engine's `runs` on one subject.
fn median(mut runs: Vec<Sample>) -> Sample {
    runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    runs.swap_remove(runs.len() / 2)
}

/// [`SAMPLES`] runs of `reset` to `until` per engine, interp and bt
/// alternating: each engine's median-wall run, and whether every run
/// agreed with the first (a divergence is reported under `name`).
fn alternating(name: &str, reset: &mcu::Machine, until: u64) -> (Sample, Sample, bool) {
    let (mut interp, mut bt) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        interp.push(measure(reset, until, mcu::Engine::Interp));
        bt.push(measure(reset, until, mcu::Engine::Bt));
    }
    let off = interp.iter().chain(&bt).find(|s| !s.matches(&interp[0]));
    if let Some(off) = off {
        report_divergence(name, &interp[0], off);
    }
    let same = off.is_none();
    (median(interp), median(bt), same)
}

fn report_divergence(name: &str, a: &Sample, b: &Sample) {
    eprintln!(
        "ENGINE DIVERGENCE on {name}: interp (cycles {}, awake {}, instrs {}, {} {:?}) \
         vs bt (cycles {}, awake {}, instrs {}, {} {:?})",
        a.cycles,
        a.awake,
        a.instrs,
        a.state,
        a.fault,
        b.cycles,
        b.awake,
        b.instrs,
        b.state,
        b.fault
    );
}

fn main() {
    let knobs = Knobs::from_env();
    let seconds = knobs.sim_seconds;
    let kernel_cycles = knobs.kernel_cycles;
    let mut identical = true;

    // ── Kernel section: the speedup gate ────────────────────────────
    println!(
        "Compute kernels — {kernel_cycles} simulated cycles, median of {SAMPLES} runs per engine"
    );
    println!(
        "{}",
        row(
            "kernel",
            &[
                "Mcyc/s interp".into(),
                "Mcyc/s bt".into(),
                "Minstr/s bt".into(),
                "speedup".into(),
                "gated".into(),
            ],
        )
    );
    let mut kernel_rows = Vec::new();
    let mut kernel_counters = Vec::new();
    let mut gated_interp = 0.0f64;
    let mut gated_bt = 0.0f64;
    for k in kernels::suite() {
        // Warm both engines (page in code, build the block cache),
        // then measure.
        let reset = mcu::Machine::new(&k.image);
        measure(&reset, kernel_cycles / 50, mcu::Engine::Interp);
        measure(&reset, kernel_cycles / 50, mcu::Engine::Bt);
        let (a, b, same) = alternating(k.name, &reset, kernel_cycles);
        identical &= same;
        if k.gated {
            gated_interp += a.wall_s;
            gated_bt += b.wall_s;
        }
        let speedup = a.wall_s / b.wall_s.max(1e-12);
        println!(
            "{}",
            row(
                k.name,
                &[
                    format!("{:.1}", a.cycles as f64 / a.wall_s / 1e6),
                    format!("{:.1}", b.cycles as f64 / b.wall_s / 1e6),
                    format!("{:.1}", b.instrs as f64 / b.wall_s / 1e6),
                    format!("{speedup:.1}x"),
                    if k.gated { "yes" } else { "no" }.into(),
                ],
            )
        );
        kernel_counters.push(
            json::Obj::new()
                .str("kernel", k.name)
                .int("cycles", a.cycles as i64)
                .int("instructions", a.instrs as i64)
                .build(),
        );
        kernel_rows.push(
            json::Obj::new()
                .str("kernel", k.name)
                .int("samples", SAMPLES as i64)
                .num("interp_wall_s", a.wall_s)
                .num("bt_wall_s", b.wall_s)
                .num("interp_cycles_per_sec", a.cycles as f64 / a.wall_s)
                .num("bt_cycles_per_sec", b.cycles as f64 / b.wall_s)
                .num("interp_instr_per_sec", a.instrs as f64 / a.wall_s)
                .num("bt_instr_per_sec", b.instrs as f64 / b.wall_s)
                .num("speedup", speedup)
                .raw("gated", if k.gated { "true" } else { "false" })
                .raw("identical", if same { "true" } else { "false" })
                .build(),
        );
    }
    let kernel_speedup = gated_interp / gated_bt.max(1e-12);
    println!(
        "kernels: interp {gated_interp:.3}s, bt {gated_bt:.3}s over gated set — \
         aggregate speedup {kernel_speedup:.1}x (gate: >= {SPEEDUP_MIN:.1}x)"
    );
    println!();

    // ── App section: the identity gate ──────────────────────────────
    let session = BuildSession::new();
    let pipeline = Pipeline::safe_flid_inline_cxprop();
    let apps = tosapps::mica2_apps();
    println!(
        "Mica2 apps — {} apps, {seconds}s simulated, pipeline {}, median of {SAMPLES} runs per engine",
        apps.len(),
        pipeline.name()
    );
    println!(
        "{}",
        row(
            "app",
            &[
                "Mcyc/s interp".into(),
                "Mcyc/s bt".into(),
                "Minstr/s interp".into(),
                "Minstr/s bt".into(),
                "speedup".into(),
            ],
        )
    );

    let mut app_rows = Vec::new();
    let mut app_counters = Vec::new();
    let mut wall_interp = 0.0f64;
    let mut wall_bt = 0.0f64;
    for name in &apps {
        let spec = tosapps::spec(name).expect("known app");
        let build = session
            .build(&spec, &pipeline)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Warm both engines on the first second. The bt warm-up decodes
        // outside the timed region: the decode is a per-image one-time
        // cost every fork of `prepared` shares.
        let (prepared, until) = prepare_machine(&build, &spec, seconds);
        let warm = until.min(build.image.profile.clock_hz);
        measure(&prepared, warm, mcu::Engine::Interp);
        measure(&prepared, warm, mcu::Engine::Bt);
        let (a, b, same) = alternating(name, &prepared, until);
        identical &= same;
        let stats = prepared.block_stats().expect("the bt warm-up decoded");
        wall_interp += a.wall_s;
        wall_bt += b.wall_s;
        let speedup = a.wall_s / b.wall_s.max(1e-12);
        println!(
            "{}",
            row(
                name,
                &[
                    format!("{:.1}", a.cycles as f64 / a.wall_s / 1e6),
                    format!("{:.1}", b.cycles as f64 / b.wall_s / 1e6),
                    format!("{:.1}", a.instrs as f64 / a.wall_s / 1e6),
                    format!("{:.1}", b.instrs as f64 / b.wall_s / 1e6),
                    format!("{speedup:.1}x"),
                ],
            )
        );
        app_counters.push(
            json::Obj::new()
                .str("app", name)
                .int("cycles", a.cycles as i64)
                .int("awake_cycles", a.awake as i64)
                .int("instructions", a.instrs as i64)
                .int("blocks", stats.blocks as i64)
                .int("fused_superinstructions", stats.fused as i64)
                .int("dispatches", b.work.dispatches as i64)
                .int("single_steps", b.work.single_steps() as i64)
                .build(),
        );
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .num("interp_wall_s", a.wall_s)
                .num("bt_wall_s", b.wall_s)
                .num("interp_cycles_per_sec", a.cycles as f64 / a.wall_s)
                .num("bt_cycles_per_sec", b.cycles as f64 / b.wall_s)
                .num("interp_instr_per_sec", a.instrs as f64 / a.wall_s)
                .num("bt_instr_per_sec", b.instrs as f64 / b.wall_s)
                .num("speedup", speedup)
                .raw("identical", if same { "true" } else { "false" })
                .build(),
        );
    }

    let app_speedup = wall_interp / wall_bt.max(1e-12);
    println!();
    println!(
        "apps: interp {wall_interp:.3}s, bt {wall_bt:.3}s — speedup {app_speedup:.1}x \
         (reported only; sleep-dominated)"
    );

    let body = json::Obj::new()
        .str("figure", "sim_speed")
        .int("kernel_cycles", kernel_cycles as i64)
        .int("seconds", seconds as i64)
        .str("pipeline", pipeline.name())
        .num("kernel_speedup", kernel_speedup)
        .num("app_speedup", app_speedup)
        .num("speedup_min", SPEEDUP_MIN)
        .raw(
            "engines_identical",
            if identical { "true" } else { "false" },
        )
        .raw(
            "counters",
            &json::Obj::new()
                .raw("kernels", &json::arr(kernel_counters))
                .raw("apps", &json::arr(app_counters))
                .build(),
        )
        .raw("kernels", &json::arr(kernel_rows))
        .raw("apps", &json::arr(app_rows))
        .build();
    emit_json("sim_speed", &body).expect("write BENCH_sim_speed.json");
    gate::self_gate(&body);
    println!(
        "sim_speed: engines byte-identical on all kernels and {} apps; \
         speedup gate passed",
        apps.len()
    );
}
