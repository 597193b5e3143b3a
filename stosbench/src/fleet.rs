//! `fleet`: Surge under `safe-flid-inline-cxprop` on the fleet harness's
//! lossy unit-disk grid, 100 motes for 4 simulated seconds per cell, with
//! its mid-run power cycle. Many machines, mostly asleep, advanced in
//! short grants; heap pops and link delivery, no replays.

use std::time::Instant;

use bench::fleet::{measure_cell, pinned_row_json, sweep_spec, FleetRow};
use mcu::Engine;
use safe_tinyos::fleet::{build_fleet, horizon_cycles, sink_report};
use safe_tinyos::{Build, BuildRequest, BuildService, Pipeline};

use crate::reference::References;
use crate::report::{sample, timed_phase, Counts, Layers, Outcome, Phase, WORKERS};
use crate::trace::{SpanId, Trace};
use crate::Args;

pub const MOTES: usize = 100;
pub const SECONDS: u64 = 4;

/// Set-up repetitions: one Surge build takes about 15 ms, so it repeats
/// often enough for a steady median.
const SETUP_REPS: usize = 50;

/// The seeds of the committed 100-mote rows of `BENCH_fleet.json`.
pub const SEEDS: [u64; 2] = [990_951, 990_952];

/// `bench::fleet::measure_cell`, driven through the public pieces it is
/// made of, with a span around each and the fleet's counters collected
/// (machine counters summed over the motes' current boots).
pub fn breakdown(build: &Build, seed: u64, trace: &Trace, cell: SpanId) -> (FleetRow, Counts) {
    let parent = Some(cell);
    let start = Instant::now();
    let spec = sweep_spec(MOTES, SECONDS, seed);
    let horizon = horizon_cycles(build, &spec);
    let mut fleet = trace.span("core.fleet.build", parent, || {
        let mut fleet = build_fleet(build, &spec);
        fleet.schedule_power_cycle(MOTES / 2, horizon / 3, Some(horizon / 2));
        fleet
    });
    trace.span("mcu.fleet.run", parent, || fleet.run(horizon));
    let (report, duty_pct) = trace.span("core.fleet.sink", parent, || {
        (sink_report(&fleet), fleet.mean_duty_cycle_percent())
    });
    let stats = fleet.stats();
    let mut c = Counts::from([
        ("mcu.fleet.pops", stats.pops),
        ("mcu.fleet.tx_bytes", stats.tx_bytes),
        ("mcu.fleet.delivered", stats.delivered),
        ("mcu.fleet.dropped", stats.dropped),
        ("mcu.fleet.reboots", stats.reboots),
    ]);
    for m in 0..fleet.node_count() {
        let machine = fleet.machine(m);
        *c.entry("mcu.cycles").or_insert(0) += machine.cycles;
        *c.entry("mcu.awake_cycles").or_insert(0) += machine.awake_cycles;
        *c.entry("mcu.instructions").or_insert(0) += machine.instr_count;
    }
    let row = FleetRow {
        motes: MOTES,
        seed,
        duty_pct,
        report,
        stats,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    (row, c)
}

/// The fleet's image: Surge under the full safe stack.
pub fn request() -> BuildRequest {
    BuildRequest::new(
        tosapps::spec("Surge_Mica2").expect("Surge app"),
        Pipeline::safe_flid_inline_cxprop(),
    )
}

pub fn run(args: &Args, refs: &References) -> Outcome {
    let mut out = Outcome::default();
    let seeds = &args.fleet_seeds;
    let ops_per_cell = (MOTES as u64) * SECONDS;
    let BuildRequest { spec, pipeline } = request();
    let labels: Vec<String> = seeds
        .iter()
        .map(|s| format!("Surge_Mica2 / {MOTES} motes / seed {s}"))
        .collect();

    let setup = || BuildService::with_threads(WORKERS).build(&spec, &pipeline);
    let build = match out.time_setup(setup) {
        Ok(build) => build,
        Err(e) => {
            out.tally.cell("Surge_Mica2 image", 1, Err(e.to_string()));
            return out;
        }
    };
    if let Err(e) = refs.check_digest(spec.name, &pipeline.spec(), &build) {
        out.tally.cell("Surge_Mica2 image", 1, Err(e));
    }

    let phase = Phase {
        seconds: args.seconds,
        traced: args.trace,
        labels: &labels,
        ops_per_cell,
        setup_reps: SETUP_REPS,
    };
    let timed = timed_phase(
        &mut out,
        &phase,
        setup,
        |round, i| {
            Ok(match round.trace {
                None => (
                    measure_cell(&build, MOTES, seeds[i], SECONDS),
                    Counts::new(),
                ),
                Some((trace, cell)) => breakdown(&build, seeds[i], trace, cell),
            })
        },
        |_| Counts::new(),
        |_, row| {
            refs.check_fleet(&row).unwrap_or(Ok(()))?;
            Ok(pinned_row_json(&row))
        },
    );

    // Independent reference: one seeded cell re-run under the interpreter
    // must give the very same pinned row.
    let i = sample(seeds.len(), 1, args.seed)[0];
    Engine::set_global_override(Some(Engine::Interp));
    let reference = pinned_row_json(&measure_cell(&build, MOTES, seeds[i], SECONDS));
    Engine::set_global_override(None);
    if timed.results()[i].as_deref() != Some(reference.as_str()) {
        out.tally.fail(
            &labels[i],
            ops_per_cell,
            "interpreter reference gives another row",
        );
    }
    let held_out: Vec<u64> = seeds
        .iter()
        .filter(|s| !SEEDS.contains(s))
        .copied()
        .collect();
    if !held_out.is_empty() {
        out.notes.push(format!(
            "seeds {held_out:?} are held out: no pinned row, the interpreter reference checks"
        ));
    }
    out.notes.push(format!(
        "{} cells of {MOTES} motes x {SECONDS} s per round; interpreter reference re-ran seed {}",
        seeds.len(),
        seeds[i]
    ));

    if args.trace {
        if timed.traced != timed.untraced {
            out.trace_problems
                .push("breakdown invalid: rows differ from measure_cell".into());
        }
        let layers = Layers::new(&out, &timed);
        let c = |name| layers.count(name);
        let run_s = layers.secs("mcu.fleet.run");
        let values = [
            ("mcu.run_s", run_s),
            ("mcu.cycles", c("mcu.cycles")),
            ("mcu.awake_cycles", c("mcu.awake_cycles")),
            ("mcu.instructions", c("mcu.instructions")),
            ("mcu.minstr_per_s", c("mcu.instructions") / run_s / 1e6),
            ("mcu.awake_share", c("mcu.awake_cycles") / c("mcu.cycles")),
            ("core.fleet.build_s", layers.secs("core.fleet.build")),
            ("mcu.fleet.run_s", run_s),
            ("core.fleet.sink_s", layers.secs("core.fleet.sink")),
            ("mcu.fleet.pops", c("mcu.fleet.pops")),
            ("mcu.fleet.pops_per_s", c("mcu.fleet.pops") / run_s),
            ("mcu.fleet.ns_per_pop", run_s * 1e9 / c("mcu.fleet.pops")),
            ("mcu.fleet.tx_bytes", c("mcu.fleet.tx_bytes")),
            ("mcu.fleet.delivered", c("mcu.fleet.delivered")),
            ("mcu.fleet.dropped", c("mcu.fleet.dropped")),
            ("mcu.fleet.reboots", c("mcu.fleet.reboots")),
        ];
        out.layers.extend(values);
    }
    out
}
