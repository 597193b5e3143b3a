//! The simulator's two execution engines (`interp` vs `bt`) on the same
//! subjects: their identity, and the work each subject costs.
//!
//! The harness runs two sections:
//!
//! * **kernels** — always-awake instruction streams from
//!   [`bench::kernels`], each run once per engine for
//!   [`kernels::CYCLES`] simulated cycles;
//! * **apps** — every Mica2 app built under the paper's full stack and
//!   run once per engine for `STOS_SECONDS` simulated seconds.
//!
//! Both sections enforce identity: the engines must agree on `cycles`,
//! `awake_cycles`, `instr_count`, final state, and fault message for
//! every subject (the translation is only legal if it is invisible).
//! The work counters go to the report's `counters` object, which the
//! contract pins: kernels' cycles, instructions, and the block engine's
//! op dispatches and single-step fallbacks; apps' cycles, awake cycles,
//! instructions, blocks, fused superinstructions, dispatches and single
//! steps. Dispatches per instruction is the engine's layout-free speed
//! signal; the report carries no wall time (the simulator's speed is
//! timed by the repository benchmark, `stosbench`).
//!
//! Emits `BENCH_sim_speed.json` and self-gates it with the `sim_speed`
//! contract, which the `gate` binary re-checks from the published bytes
//! in CI.

use bench::{emit_json, gate, json, kernels, row, Knobs};
use safe_tinyos::{prepare_machine, BuildSession, Pipeline};

/// One engine's run of one subject.
struct Sample {
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

/// Runs a fork of `reset` to `until` under `engine`. Forks share
/// `reset`'s block decode, so the bt run fills it for `reset` too.
fn run(reset: &mcu::Machine, until: u64, engine: mcu::Engine) -> Sample {
    let mut m = reset.clone();
    m.set_engine(engine);
    m.run(until);
    Sample {
        cycles: m.cycles,
        awake: m.awake_cycles,
        instrs: m.instr_count,
        state: format!("{:?}", m.state),
        fault: m.fault_message(),
        work: m.engine_work(),
    }
}

/// One run of `reset` to `until` per engine: the interp and bt samples,
/// and whether they agree (a divergence is reported under `name`).
fn both(name: &str, reset: &mcu::Machine, until: u64) -> (Sample, Sample, bool) {
    let a = run(reset, until, mcu::Engine::Interp);
    let b = run(reset, until, mcu::Engine::Bt);
    let same = a.matches(&b);
    if !same {
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
    (a, b, same)
}

fn main() {
    let seconds = Knobs::from_env().sim_seconds;
    let mut identical = true;

    // ── Kernel section ──────────────────────────────────────────────
    println!("Compute kernels — {} simulated cycles", kernels::CYCLES);
    println!(
        "{}",
        row(
            "kernel",
            &["instrs", "dispatches", "single"].map(String::from)
        )
    );
    let suite = kernels::suite();
    let mut kernel_counters = Vec::new();
    for k in &suite {
        let reset = mcu::Machine::new(&k.image);
        let (a, b, same) = both(k.name, &reset, kernels::CYCLES);
        identical &= same;
        println!(
            "{}",
            row(
                k.name,
                &[
                    a.instrs.to_string(),
                    b.work.dispatches.to_string(),
                    b.work.single_steps().to_string(),
                ],
            )
        );
        kernel_counters.push(
            json::Obj::new()
                .str("kernel", k.name)
                .int("cycles", a.cycles as i64)
                .int("instructions", a.instrs as i64)
                .int("dispatches", b.work.dispatches as i64)
                .int("single_steps", b.work.single_steps() as i64)
                .build(),
        );
    }
    println!();

    // ── App section ─────────────────────────────────────────────────
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
                "awake cyc",
                "instrs",
                "blocks",
                "fused",
                "dispatches",
                "single"
            ]
            .map(String::from),
        )
    );
    let mut app_counters = Vec::new();
    for name in &apps {
        let spec = tosapps::spec(name).expect("known app");
        let build = session
            .build(&spec, &pipeline)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (prepared, until) = prepare_machine(&build, &spec, seconds);
        let (a, b, same) = both(name, &prepared, until);
        identical &= same;
        let stats = prepared.block_stats().expect("the bt run decoded");
        println!(
            "{}",
            row(
                name,
                &[
                    a.awake.to_string(),
                    a.instrs.to_string(),
                    stats.blocks.to_string(),
                    stats.fused.to_string(),
                    b.work.dispatches.to_string(),
                    b.work.single_steps().to_string(),
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
    }

    let body = json::Obj::new()
        .str("figure", "sim_speed")
        .int("kernel_cycles", kernels::CYCLES as i64)
        .int("seconds", seconds as i64)
        .str("pipeline", pipeline.name())
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
        .build();
    emit_json("sim_speed", &body).expect("write BENCH_sim_speed.json");
    gate::self_gate(&body);
    println!();
    println!(
        "sim_speed: engines identical on {} kernels and {} apps",
        suite.len(),
        apps.len()
    );
}
