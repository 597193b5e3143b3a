//! `campaign`: the `fault_injection` campaign at its defaults — the Mica2
//! apps × `bench::fault::default_pipelines()`, 16 sites, 10 simulated
//! seconds. Images are built in set-up; each cell is one `run_campaign`
//! call. Replaying every site from boot dominates.

use ccured::triage::{self, RunObservation};
use mcu::faults;
use mcu::Engine;
use safe_tinyos::campaign::target_cells;
use safe_tinyos::{
    prepare_machine, run_campaign, Build, BuildRequest, BuildService, CampaignConfig,
    CampaignReport, Pipeline, SiteResult,
};
use tosapps::AppSpec;

use crate::reference::References;
use crate::report::{sample, timed_phase, Counts, Layers, Outcome, Phase, WORKERS};
use crate::trace::{SpanId, Trace};
use crate::Args;

/// Set-up repetitions (each builds every image).
const SETUP_REPS: usize = 5;

/// Cells re-run under the interpreter after the timed phase.
const INTERP_SAMPLE: usize = 4;

/// `run_campaign`, driven through the public pieces it is made of, with a
/// span around each and the machines' work counters collected. Must give
/// the very same report as `run_campaign`.
pub fn breakdown(
    build: &Build,
    spec: &AppSpec,
    config: &CampaignConfig,
    trace: &Trace,
    cell: SpanId,
) -> (CampaignReport, Counts) {
    let mut c = Counts::new();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    let parent = Some(cell);
    let (mut golden_m, until) = trace.span("mcu.prepare", parent, || {
        prepare_machine(build, spec, config.seconds)
    });
    trace.span("core.campaign.golden", parent, || golden_m.run(until));
    let golden = trace.span("ccured.triage", parent, || {
        RunObservation::capture(&golden_m)
    });
    add("core.campaign.golden_cycles", golden_m.cycles);
    add("mcu.cycles", golden_m.cycles);
    add("mcu.awake_cycles", golden_m.awake_cycles);
    add("mcu.instructions", golden_m.instr_count);

    let targets = trace.span("core.campaign.targets", parent, || target_cells(build));
    let plans = trace.span("mcu.faults.enumerate", parent, || {
        faults::enumerate_sites(&build.image, &targets, config.seed, config.sites, until)
    });
    add("mcu.faults.sites", plans.len() as u64);
    let mut results = Vec::with_capacity(plans.len());
    let mut counts = ccured::VerdictCounts::default();
    for plan in &plans {
        let site = trace.begin("core.campaign.site", parent);
        let inside = Some(site);
        let (mut m, until) = trace.span("mcu.prepare", inside, || {
            prepare_machine(build, spec, config.seconds)
        });
        trace.span("core.campaign.prefix", inside, || {
            m.run(plan.at_cycle.min(until))
        });
        let prefix = m.cycles;
        trace.span("mcu.faults.apply", inside, || faults::apply(&mut m, plan));
        trace.span("core.campaign.suffix", inside, || m.run(until));
        let verdict = trace.span("ccured.triage", inside, || {
            let observed = RunObservation::capture(&m);
            triage::triage(&golden, &observed, &build.image.flid_table)
        });
        trace.end(site, &[]);
        add("core.campaign.prefix_cycles", prefix);
        add("core.campaign.suffix_cycles", m.cycles - prefix);
        add("mcu.cycles", m.cycles);
        add("mcu.awake_cycles", m.awake_cycles);
        add("mcu.instructions", m.instr_count);
        counts.record(&verdict);
        results.push(SiteResult {
            site: plan.label(),
            at_cycle: plan.at_cycle,
            verdict,
        });
    }
    let report = CampaignReport {
        golden_state: golden_m.state,
        results,
        counts,
    };
    (report, c)
}

/// One campaign cell: an app under one of the campaign's pipelines.
pub struct Cell {
    pub app: &'static str,
    pub pipeline: Pipeline,
    pub spec: AppSpec,
}

/// The Mica2 apps × `bench::fault::default_pipelines()`, app-major.
pub fn cells() -> Vec<Cell> {
    let pipelines = bench::fault::default_pipelines();
    tosapps::mica2_apps()
        .into_iter()
        .flat_map(|app| {
            let spec = tosapps::spec(app).expect("stock app");
            pipelines.iter().map(move |p| Cell {
                app,
                pipeline: p.clone(),
                spec: spec.clone(),
            })
        })
        .collect()
}

pub fn run(args: &Args, refs: &References) -> Outcome {
    let mut out = Outcome::default();
    let config = CampaignConfig {
        seconds: 10,
        sites: 16,
        seed: args.site_seed,
    };
    let ops_per_cell = config.sites as u64;
    let cells = cells();
    let labels: Vec<String> = cells
        .iter()
        .map(|c| format!("{} / {}", c.app, c.pipeline.name()))
        .collect();

    // Set-up: build every image as one batch through a fresh service.
    let setup = || {
        BuildService::with_threads(WORKERS).submit(
            cells
                .iter()
                .map(|c| BuildRequest::new(c.spec.clone(), c.pipeline.clone()))
                .collect(),
        )
    };
    let builds = out.time_setup(setup);
    let builds: Vec<Option<Build>> = builds
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let c = &cells[i];
            let checked = b.map_err(|e| e.to_string()).and_then(|b| {
                refs.check_digest(c.app, &c.pipeline.spec(), &b)?;
                Ok(b)
            });
            match checked {
                Ok(b) => Some(b),
                Err(e) => {
                    out.tally.fail(&labels[i], ops_per_cell, &e);
                    None
                }
            }
        })
        .collect();
    let figure = refs.campaign_matches_config(&config);
    if !figure {
        out.notes.push(format!(
            "site seed {:#x} is held out: no committed figure, the interpreter reference checks",
            config.seed
        ));
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
            let build = builds[i]
                .as_ref()
                .ok_or_else(|| "the image did not build".to_string())?;
            let spec = &cells[i].spec;
            Ok(match round.trace {
                None => (run_campaign(build, spec, &config), Counts::new()),
                Some((trace, cell)) => breakdown(build, spec, &config, trace, cell),
            })
        },
        |_| Counts::new(),
        |i, report| {
            if figure {
                refs.check_campaign(cells[i].app, cells[i].pipeline.name(), &report)?;
            }
            Ok(report)
        },
    );

    // Independent reference: a seeded sample of cells re-run under the
    // interpreter must give the very same verdict lists.
    let picks = sample(cells.len(), INTERP_SAMPLE, args.seed);
    Engine::set_global_override(Some(Engine::Interp));
    let interp = BuildService::with_threads(WORKERS).run_jobs(picks.len(), |k| {
        let i = picks[k];
        builds[i]
            .as_ref()
            .map(|b| run_campaign(b, &cells[i].spec, &config))
    });
    Engine::set_global_override(None);
    for (&i, reference) in picks.iter().zip(interp) {
        if reference.is_none() || reference.as_ref() != timed.results()[i].as_ref() {
            out.tally.fail(
                &labels[i],
                ops_per_cell,
                "interpreter reference gives other verdicts",
            );
        }
    }
    out.notes.push(format!(
        "{} cells of {} sites per round; interpreter reference re-ran cells {picks:?}",
        cells.len(),
        config.sites
    ));

    if args.trace {
        // The breakdown must reproduce run_campaign's verdict lists exactly.
        let bad: Vec<&str> = (0..cells.len())
            .filter(|&i| timed.traced[i] != timed.untraced[i])
            .map(|i| labels[i].as_str())
            .collect();
        if !bad.is_empty() {
            out.trace_problems.push(format!(
                "breakdown invalid: verdicts differ from run_campaign in {bad:?}"
            ));
        }
        let layers = Layers::new(&out, &timed);
        let (golden, prefix, suffix) = (
            layers.secs("core.campaign.golden"),
            layers.secs("core.campaign.prefix"),
            layers.secs("core.campaign.suffix"),
        );
        let run_s = golden + prefix + suffix;
        let c = |name| layers.count(name);
        let values = [
            ("ccured.triage_s", layers.secs("ccured.triage")),
            ("mcu.prepare_s", layers.secs("mcu.prepare")),
            ("mcu.run_s", run_s),
            ("mcu.cycles", c("mcu.cycles")),
            ("mcu.awake_cycles", c("mcu.awake_cycles")),
            ("mcu.instructions", c("mcu.instructions")),
            ("mcu.minstr_per_s", c("mcu.instructions") / run_s / 1e6),
            ("mcu.awake_share", c("mcu.awake_cycles") / c("mcu.cycles")),
            ("core.campaign.golden_s", golden),
            (
                "core.campaign.golden_cycles",
                c("core.campaign.golden_cycles"),
            ),
            ("core.campaign.prefix_s", prefix),
            (
                "core.campaign.prefix_cycles",
                c("core.campaign.prefix_cycles"),
            ),
            ("core.campaign.suffix_s", suffix),
            (
                "core.campaign.suffix_cycles",
                c("core.campaign.suffix_cycles"),
            ),
            (
                "core.campaign.prefix_share",
                c("core.campaign.prefix_cycles")
                    / (c("core.campaign.prefix_cycles") + c("core.campaign.suffix_cycles")),
            ),
            (
                "mcu.faults.enumerate_s",
                layers.secs("mcu.faults.enumerate"),
            ),
            ("mcu.faults.sites", c("mcu.faults.sites")),
        ];
        out.layers.extend(values);
    }
    out
}
