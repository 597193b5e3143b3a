//! `compile_cold`: every app × every preset, one batch per round through a
//! fresh `BuildService`. The frontend, every pass, the pass cache (with
//! its real within-grid prefix sharing) and the link do all the work; the
//! simulator does none.

use std::time::Instant;

use mcu::Image;
use safe_tinyos::{Build, BuildRequest, BuildService, BuildSession, Pipeline, PRESET_NAMES};
use tcil::CompileError;

use crate::reference::References;
use crate::report::{sample, timed_phase, Counts, Layers, Outcome, Phase, Timed};
use crate::trace::{SpanId, Trace};
use crate::Args;

/// Set-up repetitions: assembling the requests takes about a millisecond,
/// so it repeats often enough for a steady median.
const SETUP_REPS: usize = 25;

/// Cells rebuilt without the pass cache after the timed phase, as an
/// independent reference.
const UNCACHED_SAMPLE: usize = 6;

/// The per-layer span a pass's reported time is attributed to.
fn layer_of(pass: &str) -> String {
    match pass {
        "cure" => "ccured.cure".into(),
        "prune" => "ccured.prune".into(),
        "inline" => "cxprop.inline".into(),
        "cxprop" => "cxprop.cxprop".into(),
        "backend" => "backend.prepare".into(),
        "link" => "backend.link".into(),
        other => format!("core.pipeline.{other}"),
    }
}

/// `BuildSession::build`, driven through the public pieces it is made of
/// — frontend lookup (or compile), a fresh copy of the lowered program,
/// the cached pipeline — with a span around each and the pipeline's
/// reported per-pass times laid end to end inside its span. Gives the
/// same image as `BuildSession::build`.
fn traced_build(
    service: &BuildService,
    request: &BuildRequest,
    trace: &Trace,
    cell: SpanId,
) -> Result<Build, CompileError> {
    let session = service.session();
    let start = Instant::now();
    let entry = session.frontend_entry(&request.spec);
    let name = match entry {
        Ok((_, true)) => "nesc.frontend",
        _ => "core.session.lookup",
    };
    trace.record(name, Some(cell), start, start.elapsed());
    let (artifact, _) = entry?;
    let program = trace.span("core.session.program", Some(cell), || artifact.program());
    let start = Instant::now();
    let pipeline = trace.begin("core.pipeline", Some(cell));
    let build = request.pipeline.build_with_cache(
        program,
        request.spec.platform.clone(),
        session.pass_cache().map(|c| &**c),
    );
    if let Ok(build) = &build {
        let mut at = start;
        for (pass, dur) in build.metrics.pass_times.iter() {
            trace.record(&layer_of(pass), Some(pipeline), at, dur);
            at += dur;
        }
    }
    trace.end(pipeline, &[]);
    build
}

/// Every app × preset, in the order `BuildService::submit` executes a
/// batch (app, then canonical pipeline spec), so siblings sharing a
/// pipeline prefix run adjacently.
pub fn requests() -> Vec<BuildRequest> {
    let mut requests: Vec<BuildRequest> = tosapps::APP_NAMES
        .iter()
        .flat_map(|app| {
            let spec = tosapps::spec(app).expect("stock app");
            PRESET_NAMES.iter().map(move |preset| {
                BuildRequest::new(
                    spec.clone(),
                    Pipeline::preset(preset).expect("stock preset"),
                )
            })
        })
        .collect();
    requests.sort_by_cached_key(|r| (r.spec.config, r.pipeline.spec()));
    requests
}

pub fn run(args: &Args, refs: &References) -> Outcome {
    let mut out = Outcome::default();
    let requests = out.time_setup(requests);
    let labels: Vec<String> = requests
        .iter()
        .map(|r| format!("{} / {}", r.spec.name, r.pipeline.name()))
        .collect();
    let phase = Phase {
        seconds: args.seconds,
        traced: args.trace,
        labels: &labels,
        ops_per_cell: 1,
        setup_reps: SETUP_REPS,
    };
    // Each cell's image from the first round that built it; later rounds
    // must reproduce it exactly.
    let mut first: Vec<Option<Image>> = vec![None; requests.len()];
    let timed: Timed<()> = timed_phase(
        &mut out,
        &phase,
        self::requests,
        |round, i| {
            let r = &requests[i];
            let build = match round.trace {
                None => round.service.build(&r.spec, &r.pipeline),
                Some((trace, cell)) => traced_build(round.service, r, trace, cell),
            };
            build.map(|b| (b, Counts::new())).map_err(|e| e.to_string())
        },
        |service| {
            let stats = service.cache_stats();
            Counts::from([
                ("core.cache.hits", stats.hits()),
                ("core.cache.misses", stats.misses()),
                ("core.cache.bytes", stats.bytes()),
                (
                    "nesc.frontend_compiles",
                    service.session().frontend_compiles() as u64,
                ),
            ])
        },
        |i, build| {
            let r = &requests[i];
            refs.check_compile(r.spec.name, r.pipeline.name(), &build)?;
            match &first[i] {
                None => {
                    refs.check_digest(r.spec.name, &r.pipeline.spec(), &build)?;
                    first[i] = Some(build.image);
                }
                Some(image) if *image != build.image => {
                    return Err("image differs from an earlier round's".into());
                }
                Some(_) => {}
            }
            Ok(())
        },
    );

    // Independent reference: a seeded sample of cells rebuilt without the
    // pass cache must give the very same images.
    let uncached = BuildSession::uncached();
    let picks = sample(requests.len(), UNCACHED_SAMPLE, args.seed);
    for &i in &picks {
        let r = &requests[i];
        let same = match (uncached.build(&r.spec, &r.pipeline), &first[i]) {
            (Ok(fresh), Some(image)) => fresh.image == *image,
            _ => false,
        };
        if !same {
            out.tally.fail(
                &labels[i],
                1,
                "uncached rebuild differs from the cached build",
            );
        }
    }
    out.notes.push(format!(
        "{} cells per round; uncached reference rebuilt cells {picks:?}",
        requests.len()
    ));

    if args.trace {
        let layers = Layers::new(&out, &timed);
        let (hits, misses) = (
            layers.count("core.cache.hits"),
            layers.count("core.cache.misses"),
        );
        let mut values = vec![
            ("nesc.frontend_s", layers.secs("nesc.frontend")),
            (
                "nesc.frontend_compiles",
                layers.count("nesc.frontend_compiles"),
            ),
            ("core.cache.hits", hits),
            ("core.cache.misses", misses),
            ("core.cache.hit_ratio", hits / (hits + misses).max(1.0)),
            ("core.cache.bytes", layers.count("core.cache.bytes")),
        ];
        for (metric, span) in [
            ("ccured.cure_s", "ccured.cure"),
            ("ccured.prune_s", "ccured.prune"),
            ("cxprop.inline_s", "cxprop.inline"),
            ("cxprop.cxprop_s", "cxprop.cxprop"),
            ("backend.prepare_s", "backend.prepare"),
            ("backend.link_s", "backend.link"),
        ] {
            values.push((metric, layers.secs(span)));
        }
        out.layers.extend(values);
    }
    out
}
