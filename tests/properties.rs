//! Property-based tests on the toolchain's core invariants.

use std::sync::OnceLock;

use ccured::triage::{self, RunObservation, VerdictCounts};
use mcu::faults::{self, FaultPlan};
use mcu::Engine;
use proptest::prelude::*;
use safe_tinyos::campaign::{target_cells, torn_plans, torn_target_names};
use safe_tinyos::{
    prepare_machine, run_campaign, run_torn_campaign, Build, BuildService, CampaignConfig,
    CampaignReport, Pipeline, SiteResult,
};
use safe_tinyos_suite as _;
use tcil::ir::BinOp;
use tcil::types::IntKind;
use tosapps::AppSpec;

// ---- interval-domain soundness: any concrete pair inside the operand
// intervals produces a result inside the abstract result interval ----

fn ival_strategy(kind: IntKind) -> impl Strategy<Value = (i64, i64)> {
    let (lo, hi) = (kind.min_value(), kind.max_value());
    (lo..=hi, lo..=hi).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
}

// ---- campaign checkpoints: forked, early-stopped campaigns against
// the replay-from-boot loop they replace ----

/// The campaign loop before checkpointing, kept here as the reference:
/// the golden run and every injected run replay from boot (prepare →
/// run to the site → apply → run to the horizon → triage).
fn full_replay(
    build: &Build,
    spec: &AppSpec,
    seconds: u64,
    plans: impl FnOnce(u64) -> Vec<FaultPlan>,
) -> CampaignReport {
    let (mut golden_machine, until) = prepare_machine(build, spec, seconds);
    golden_machine.run(until);
    let golden = RunObservation::capture(&golden_machine);
    let mut counts = VerdictCounts::default();
    let results = plans(until)
        .iter()
        .map(|plan| {
            let (mut m, until) = prepare_machine(build, spec, seconds);
            m.run(plan.at_cycle.min(until));
            faults::apply(&mut m, plan);
            m.run(until);
            let observed = RunObservation::capture(&m);
            let verdict = triage::triage(&golden, &observed, &build.image.flid_table);
            counts.record(&verdict);
            SiteResult {
                site: plan.label(),
                at_cycle: plan.at_cycle,
                verdict,
            }
        })
        .collect();
    CampaignReport {
        golden_state: golden_machine.state,
        results,
        counts,
    }
}

/// Apps the campaign property draws from: HighFrequencySampling and
/// Surge offer runtime-reachable torn targets, the others cover timers,
/// radio receive and sensing.
const CAMPAIGN_APPS: [&str; 5] = [
    "HighFrequencySampling_Mica2",
    "Surge_Mica2",
    "SenseToRfm_Mica2",
    "RfmToLeds_Mica2",
    "BlinkTask_Mica2",
];

/// A Surge node one simulated second into its workload, shared by the
/// SRAM-comparison property.
fn running_machine() -> &'static mcu::Machine {
    static MACHINE: OnceLock<mcu::Machine> = OnceLock::new();
    MACHINE.get_or_init(|| {
        let spec = tosapps::spec("Surge_Mica2").unwrap();
        let build = campaign_build(&spec, &Pipeline::safe_flid());
        let (mut m, _) = prepare_machine(&build, &spec, 1);
        m.run(build.image.profile.clock_hz);
        m
    })
}

fn campaign_build(spec: &AppSpec, pipeline: &Pipeline) -> Build {
    static SERVICE: OnceLock<BuildService> = OnceLock::new();
    SERVICE
        .get_or_init(BuildService::new)
        .build(spec, pipeline)
        .expect("campaign build")
}

/// Selects the engine campaigns run under for one property case and
/// restores the environment default when dropped.
struct EngineOverride;

impl EngineOverride {
    fn set(engine: Engine) -> EngineOverride {
        Engine::set_global_override(Some(engine));
        EngineOverride
    }
}

impl Drop for EngineOverride {
    fn drop(&mut self) {
        Engine::set_global_override(None);
    }
}

proptest! {
    #[test]
    fn interval_binop_is_sound(
        a in ival_strategy(IntKind::U8),
        b in ival_strategy(IntKind::U8),
        x_frac in 0.0f64..1.0,
        y_frac in 0.0f64..1.0,
        op_idx in 0usize..8,
    ) {
        use cxprop::ival::Ival;
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                   BinOp::Mod, BinOp::And, BinOp::Or, BinOp::Xor];
        let op = ops[op_idx];
        let kind = IntKind::U8;
        let ia = Ival::Range(a.0, a.1);
        let ib = Ival::Range(b.0, b.1);
        // Pick concrete values inside each interval.
        let x = a.0 + ((a.1 - a.0) as f64 * x_frac) as i64;
        let y = b.0 + ((b.1 - b.0) as f64 * y_frac) as i64;
        if let Some(concrete) = tcil::fold::eval_binop(op, x, y, kind) {
            let abst = Ival::binop(op, ia, ib, kind);
            let (lo, hi) = abst.bounds().expect("non-bottom");
            prop_assert!(
                (lo..=hi).contains(&concrete),
                "{op:?}: {x} op {y} = {concrete} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn constant_folding_matches_machine(v1 in 0u8..=255, v2 in 1u8..=255, op_idx in 0usize..8) {
        // Differential test: fold::eval_binop must equal what the M16
        // actually computes for the same source expression.
        let ops = ["+", "-", "*", "/", "%", "&", "|", "^"];
        let op = ops[op_idx];
        let src = format!(
            "uint8_t out;
             uint8_t a = {v1};
             uint8_t b = {v2};
             void main() {{ out = (uint8_t)(a {op} b); }}"
        );
        let program = tcil::parse_and_lower(&src).unwrap();
        let image = backend::compile(&program, mcu::Profile::mica2(),
            &backend::BackendOptions { optimize: false }).unwrap();
        let mut m = mcu::Machine::new(&image);
        m.run(100_000);
        prop_assert_eq!(m.state, mcu::RunState::Halted);
        let got = m.ram_peek(image.find_global_addr("out").unwrap());
        let ir_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                      BinOp::Mod, BinOp::And, BinOp::Or, BinOp::Xor];
        // Lowering promotes to 16-bit then truncates on store, like C.
        let folded = tcil::fold::eval_binop(ir_ops[op_idx], v1 as i64, v2 as i64, IntKind::U16)
            .map(|v| IntKind::U8.wrap(v));
        prop_assert_eq!(Some(got as i64), folded);
    }

    #[test]
    fn curing_never_changes_halting_results(
        vals in prop::collection::vec(0u8..=255, 4),
        idx in 0usize..4,
    ) {
        // A small family of pointer-using programs: cured and uncured
        // builds must compute identical results.
        let src = format!(
            "uint8_t buf[4] = {{{}, {}, {}, {}}};
             uint16_t out;
             uint16_t pick(uint8_t * p, uint8_t i) {{ return p[i]; }}
             void main() {{ out = pick(buf, {idx}); }}",
            vals[0], vals[1], vals[2], vals[3]
        );
        let run = |cure: bool| {
            let mut p = tcil::parse_and_lower(&src).unwrap();
            if cure {
                ccured::cure(&mut p, &ccured::CureOptions::default()).unwrap();
            }
            let img = backend::compile(&p, mcu::Profile::mica2(),
                &backend::BackendOptions::default()).unwrap();
            let mut m = mcu::Machine::new(&img);
            m.run(1_000_000);
            assert_eq!(m.state, mcu::RunState::Halted, "fault: {:?}", m.fault_message());
            m.ram_peek16(img.find_global_addr("out").unwrap())
        };
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn cxprop_preserves_observable_behaviour(
        n in 1u8..=16,
        stride in 1u8..=3,
    ) {
        // Loops with variable trip counts: optimization must not change
        // the LED output.
        let src = format!(
            "uint8_t acc;
             void main() {{
                 uint8_t i;
                 for (i = 0; i < {n}; i++) {{ acc = (uint8_t)(acc + {stride}); }}
                 __hw_write8(0xF000, (uint8_t)(acc & 7));
             }}"
        );
        let run = |optimize: bool| {
            let mut p = tcil::parse_and_lower(&src).unwrap();
            ccured::cure(&mut p, &ccured::CureOptions::default()).unwrap();
            if optimize {
                cxprop::optimize(&mut p, &cxprop::CxpropOptions::default());
            }
            let img = backend::compile(&p, mcu::Profile::mica2(),
                &backend::BackendOptions::default()).unwrap();
            let mut m = mcu::Machine::new(&img);
            m.run(1_000_000);
            assert_eq!(m.state, mcu::RunState::Halted);
            m.devices.leds.value
        };
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn generated_programs_identical_under_both_engines(seed in 1u64..5000) {
        // Engine identity over the difftest generator's program space:
        // for any generated program, the block-translation engine must
        // produce the same DiffObservation (state, fault category,
        // UART/radio streams, LED transitions, final RAM by name) AND
        // the same cycle/instruction accounting as the interpreter —
        // on the same build, so any mismatch is an engine bug, not a
        // pipeline difference.
        let program = safe_tinyos::difftest::generate_program(seed).unwrap();
        let preset = safe_tinyos::Pipeline::safe_flid_inline_cxprop();
        let build = preset.build(program, mcu::Profile::mica2()).unwrap();
        let run = |engine: mcu::Engine| {
            let mut m = mcu::Machine::new(&build.image);
            m.set_engine(engine);
            m.run(200_000);
            let obs = safe_tinyos::difftest::DiffObservation::capture(&build, &m);
            (obs, m.cycles, m.awake_cycles, m.instr_count)
        };
        prop_assert_eq!(run(mcu::Engine::Interp), run(mcu::Engine::Bt));
    }

    #[test]
    fn stack_bound_dominates_observed_watermark(seed in 1u64..5000) {
        // Soundness of the static stack analyzer over the difftest
        // generator's program space: whatever call tree and interrupt
        // wiring the generated program ends up with, the certified
        // worst-case bound must dominate the deepest stack extent the
        // simulator ever observes. (The converse — tightness — is a
        // quality metric, reported by the `stack_analysis` harness, not
        // an invariant.)
        let program = safe_tinyos::difftest::generate_program(seed).unwrap();
        let pipeline = safe_tinyos::Pipeline::parse(
            "cure(flid)|inline|cxprop|prune|stackbound",
        ).unwrap();
        let build = pipeline.build(program, mcu::Profile::mica2()).unwrap();
        let stack = build.metrics.stack.expect("stackbound ran");
        let bound = stack.bound_bytes.expect("generated programs never recurse");
        let mut m = mcu::Machine::new(&build.image);
        m.run(200_000);
        prop_assert!(
            u32::from(m.stack_watermark()) <= bound,
            "seed {}: watermark {}B exceeds certified bound {}B (task {:?} + isr {:?})",
            seed, m.stack_watermark(), bound, stack.task_bytes, stack.isr_bytes
        );
    }

    #[test]
    fn frame_round_trips_through_radio_framing(payload in prop::collection::vec(any::<u8>(), 0..20)) {
        // The Rust frame builder and the in-language CRC must agree: a
        // packet injected into RfmToLeds-style parsing is never dropped.
        let pkt = tosapps::AmPacket::broadcast(4, payload.clone());
        let frame = pkt.frame_bytes();
        prop_assert_eq!(frame.len(), payload.len() + 8);
        // Recompute the CRC over header+payload and compare the trailer.
        let mut c = 0u16;
        for &b in &frame[1..frame.len() - 2] {
            c = tosapps::context::crc_byte(c, b);
        }
        prop_assert_eq!(frame[frame.len() - 2], c as u8);
        prop_assert_eq!(frame[frame.len() - 1], (c >> 8) as u8);
    }

    #[test]
    fn link_loss_seeds_are_skew_free(
        seed in any::<u64>(),
        src in 0u32..1024,
        dst in 0u32..1024,
        index in 0u64..100_000,
        loss_ppm in 0u32..=1_000_000,
        dup_a in 0u32..=1_000_000,
        dup_b in 0u32..=1_000_000,
        reorder_a in 0u32..=1_000_000,
        reorder_b in 0u32..=1_000_000,
    ) {
        // The fleet's per-link RNG is a pure function of its key, and
        // the loss decision for a given (seed, src, dst, index) must not
        // move when the duplication or reordering knobs change — loss
        // patterns stay comparable across experiments that vary the
        // other quality dimensions.
        let qa = mcu::LinkQuality { loss_ppm, dup_ppm: dup_a, reorder_ppm: reorder_a };
        let qb = mcu::LinkQuality { loss_ppm, dup_ppm: dup_b, reorder_ppm: reorder_b };
        let a = mcu::fleet::link_decision(seed, src, dst, index, &qa);
        let b = mcu::fleet::link_decision(seed, src, dst, index, &qb);
        // Loss bit must not skew when dup/reorder knobs change.
        prop_assert_eq!(a.drop, b.drop);
        // Pure: same key, same quality, same outcome.
        prop_assert_eq!(a, mcu::fleet::link_decision(seed, src, dst, index, &qa));
        // Directionality: the link is directed, so the reverse link
        // draws from an independent stream (equal outcomes are allowed,
        // but the decision must again be deterministic).
        let r = mcu::fleet::link_decision(seed, dst, src, index, &qb);
        prop_assert_eq!(r, mcu::fleet::link_decision(seed, dst, src, index, &qb));
        // Degenerate knobs behave: certain loss always drops, zero
        // never does.
        prop_assert!(mcu::fleet::link_decision(seed, src, dst, index,
            &mcu::LinkQuality { loss_ppm: 1_000_000, dup_ppm: dup_a, reorder_ppm: reorder_a }).drop);
        prop_assert!(!mcu::fleet::link_decision(seed, src, dst, index,
            &mcu::LinkQuality::LOSSLESS).drop);
    }

    #[test]
    fn runs_compose_at_any_cut(seed in 1u64..5000, a in 0u64..200_000, b in 0u64..200_000) {
        // The segmentation property campaign checkpoints rest on: for
        // a <= b, `run(a); run(b)` leaves the very state `run(b)` does,
        // under either engine, on any generated program — and both
        // engines leave the same state at every cut.
        let (a, b) = (a.min(b), a.max(b));
        let program = safe_tinyos::difftest::generate_program(seed).unwrap();
        let build = Pipeline::safe_flid_inline_cxprop()
            .build(program, mcu::Profile::mica2())
            .unwrap();
        let reset = mcu::Machine::new(&build.image);
        let mut cuts = Vec::new();
        for engine in [Engine::Interp, Engine::Bt] {
            let mut fresh = reset.clone();
            fresh.set_engine(engine);
            let mut cut = fresh.clone();
            cut.run(a);
            let at_a = cut.clone();
            cut.run(b);
            let mut whole = fresh;
            whole.run(b);
            prop_assert!(
                cut.same_state(&whole),
                "seed {} under {:?}: run({}); run({}) differs from run({})",
                seed, engine, a, b, b
            );
            cuts.push((at_a, cut));
        }
        let ((interp_a, interp_b), (bt_a, bt_b)) = (&cuts[0], &cuts[1]);
        prop_assert!(interp_a.same_state(bt_a), "seed {}: engines differ at run({})", seed, a);
        prop_assert!(interp_b.same_state(bt_b), "seed {}: engines differ at run({})", seed, b);
    }

    #[test]
    fn same_state_sees_every_sram_byte(
        addr in 0u16..mcu::Profile::mica2().sram_end(),
        flip in 1u8..=255,
    ) {
        // A machine owns its whole SRAM window, null page included: a
        // one-byte difference anywhere in it is another state, which
        // only an excuse for that very byte forgives.
        let base = running_machine();
        let mut m = base.clone();
        m.ram_poke(addr, m.ram_peek(addr) ^ flip);
        prop_assert!(!m.same_state(base) && !base.same_state(&m));
        prop_assert!(m.same_state_except(base, |a| a == addr as usize));
        prop_assert!(!m.same_state_except(base, |a| a != addr as usize));
    }

    #[test]
    fn forked_campaigns_match_full_replay(
        app in 0usize..CAMPAIGN_APPS.len(),
        pipeline in 0usize..7,
        site_seed in any::<u64>(),
        per_target in 1usize..4,
        bt in any::<bool>(),
    ) {
        // Forking injected runs from golden checkpoints and stopping
        // them once they converge must give exactly the verdicts,
        // trigger cycles and FLIDs of replaying every site from boot.
        let _engine = EngineOverride::set(if bt { Engine::Bt } else { Engine::Interp });
        let spec = tosapps::spec(CAMPAIGN_APPS[app]).unwrap();
        let build = campaign_build(&spec, &bench::fault::default_pipelines()[pipeline]);
        let config = CampaignConfig { seconds: 1, sites: 6, seed: site_seed };
        let reference = full_replay(&build, &spec, config.seconds, |until| {
            faults::enumerate_sites(&build.image, &target_cells(&build), site_seed, config.sites, until)
        });
        prop_assert_eq!(run_campaign(&build, &spec, &config), reference);

        // Torn campaigns: targets from the unhardened build, injected
        // into each race stack (the hardened one converges early once
        // its watches fire harmlessly, or never fires them at all).
        let stacks = bench::races::stacks();
        let names = torn_target_names(&campaign_build(&spec, &stacks[0]));
        for stack in &stacks {
            let build = campaign_build(&spec, stack);
            let reference = full_replay(&build, &spec, 1, |_| torn_plans(&build, &names, per_target));
            prop_assert_eq!(run_torn_campaign(&build, &spec, &names, per_target, 1), reference);
        }
    }
}
