//! Simulator throughput under both execution engines (`interp` vs
//! `bt`): compute kernels carry the speedup gate, full Mica2 apps
//! carry the byte-identity gate.
//!
//! The harness runs two sections:
//!
//! * **kernels** — always-awake instruction streams from
//!   [`bench::kernels`]. Each runs for `STOS_KERNEL_CYCLES` simulated
//!   cycles per engine; the aggregate awake-throughput speedup over
//!   the *gated* kernels (Σ interp wall / Σ bt wall) must reach
//!   `bench::gate::SPEEDUP_MIN` (10×). Non-gated kernels are published
//!   for honesty but excluded from the gate.
//! * **apps** — every Mica2 app built under the paper's full stack and
//!   simulated for `STOS_SECONDS` per engine. Apps sleep most of the
//!   time, and the sleep pump is engine-independent, so app speedups
//!   are reported but not speedup-gated.
//!
//! Both sections enforce identity: the engines must agree on `cycles`,
//! `awake_cycles`, `instr_count`, final state, and fault message for
//! every subject (the translation is only legal if it is invisible).
//!
//! Emits `BENCH_sim_speed.json` and self-gates it with the `sim_speed`
//! contract, which the `gate` binary re-checks from the published bytes
//! in CI.

use std::time::Instant;

use bench::gate::{self, SPEEDUP_MIN};
use bench::{emit_json, json, kernels, row, Knobs};
use safe_tinyos::{prepare_machine, BuildSession, Pipeline};

/// One engine's measurement for one subject.
struct Sample {
    wall_s: f64,
    cycles: u64,
    awake: u64,
    instrs: u64,
    state: String,
    fault: Option<String>,
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
    }
}

fn measure_kernel(image: &mcu::Image, cycles: u64, engine: mcu::Engine) -> Sample {
    let mut m = mcu::Machine::new(image);
    m.set_engine(engine);
    let start = Instant::now();
    m.run(cycles);
    sample(&m, start.elapsed().as_secs_f64())
}

fn measure_app(
    build: &safe_tinyos::Build,
    spec: &tosapps::AppSpec,
    seconds: u64,
    engine: mcu::Engine,
) -> Sample {
    let (mut m, until) = prepare_machine(build, spec, seconds);
    m.set_engine(engine);
    if engine == mcu::Engine::Bt {
        m.set_block_cache(build.block_cache());
    }
    let start = Instant::now();
    m.run(until);
    sample(&m, start.elapsed().as_secs_f64())
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
    println!("Compute kernels — {kernel_cycles} simulated cycles per engine");
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
    let mut gated_interp = 0.0f64;
    let mut gated_bt = 0.0f64;
    for k in kernels::suite() {
        // Warm both engines (page in code, build the block cache),
        // then measure.
        measure_kernel(&k.image, kernel_cycles / 50, mcu::Engine::Interp);
        measure_kernel(&k.image, kernel_cycles / 50, mcu::Engine::Bt);
        let a = measure_kernel(&k.image, kernel_cycles, mcu::Engine::Interp);
        let b = measure_kernel(&k.image, kernel_cycles, mcu::Engine::Bt);
        let same = a.matches(&b);
        if !same {
            identical = false;
            report_divergence(k.name, &a, &b);
        }
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
        kernel_rows.push(
            json::Obj::new()
                .str("kernel", k.name)
                .int("cycles", a.cycles as i64)
                .int("instructions", a.instrs as i64)
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
        "Mica2 apps — {} apps, {seconds}s simulated, pipeline {}",
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
    let mut wall_interp = 0.0f64;
    let mut wall_bt = 0.0f64;
    for name in &apps {
        let spec = tosapps::spec(name).expect("known app");
        let build = session
            .build(&spec, &pipeline)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Decode once, outside the timed region: the cache is a
        // per-image one-time cost every bt machine shares.
        let cache = build.block_cache();
        let stats = cache.stats();
        measure_app(&build, &spec, seconds.min(1), mcu::Engine::Interp);
        measure_app(&build, &spec, seconds.min(1), mcu::Engine::Bt);
        let a = measure_app(&build, &spec, seconds, mcu::Engine::Interp);
        let b = measure_app(&build, &spec, seconds, mcu::Engine::Bt);
        let same = a.matches(&b);
        if !same {
            identical = false;
            report_divergence(name, &a, &b);
        }
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
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .int("cycles", a.cycles as i64)
                .int("awake_cycles", a.awake as i64)
                .int("instructions", a.instrs as i64)
                .num("interp_wall_s", a.wall_s)
                .num("bt_wall_s", b.wall_s)
                .num("interp_cycles_per_sec", a.cycles as f64 / a.wall_s)
                .num("bt_cycles_per_sec", b.cycles as f64 / b.wall_s)
                .num("interp_instr_per_sec", a.instrs as f64 / a.wall_s)
                .num("bt_instr_per_sec", b.instrs as f64 / b.wall_s)
                .num("speedup", speedup)
                .int("blocks", stats.blocks as i64)
                .int("fused_superinstructions", stats.fused as i64)
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
