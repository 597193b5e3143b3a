//! Fault-injection campaigns: does a pipeline's output *detect*
//! corruption, or merely suffer it?
//!
//! The figure harnesses measure what safety costs (checks, bytes, duty
//! cycle); a campaign measures what safety *buys*. For one build it runs
//! a golden (uninjected) simulation, enumerates a seeded, deterministic
//! list of corruption plans over the image's static data
//! ([`mcu::faults::enumerate_sites`]), forks one injected run per plan
//! from a golden checkpoint with the corruption applied mid-run, and
//! triages every injected run against the golden observation
//! ([`ccured::triage`]). The resulting
//! [`CampaignReport`] is the paper's missing evaluation axis: cured
//! pipelines convert silent corruption into FLID-diagnosable traps,
//! uncured ones cannot (an image with zero checks can never produce a
//! [`ccured::Verdict::Detected`]).
//!
//! Campaigns are pure functions of `(build, workload, config)` — no
//! wall-clock, no global RNG — so an experiment grid over worker threads
//! emits byte-identical reports in any schedule.
//!
//! # Fork and converge
//!
//! The golden run is the only run that starts at boot. It stops at
//! every checkpoint cycle — each distinct site cycle plus an even grid
//! over the horizon — and keeps a [`Machine`] snapshot there. An
//! injected run clones its site's snapshot, applies the fault, and at
//! each later checkpoint compares itself with the golden snapshot
//! ([`Machine::same_future_except`]). The simulator is deterministic,
//! so a run that equals the golden run in everything the program can
//! read has the golden future: it stops there, [`Verdict::Benign`] if
//! its output so far is the golden output, and otherwise triaged on its
//! output spliced onto the golden run's remainder. Runs compose
//! (`run(a); run(b)` ≡ `run(b)`), so every fork reproduces exactly the
//! boot-to-horizon replay it stands for.
//!
//! # Example
//!
//! ```
//! use safe_tinyos::{run_campaign, BuildSession, CampaignConfig, Pipeline};
//!
//! let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
//! let build = BuildSession::new().build(&spec, &Pipeline::unsafe_baseline()).unwrap();
//! let cfg = CampaignConfig { seconds: 2, sites: 8, seed: 1 };
//! let unsafe_report = run_campaign(&build, &spec, &cfg);
//! // An uncured image has no checks: it can crash or corrupt, never detect.
//! assert_eq!(unsafe_report.counts.detected, 0);
//! assert_eq!(unsafe_report.results.len(), 8);
//! ```

use std::collections::BTreeSet;

use ccured::triage::{self, RunObservation, Verdict, VerdictCounts};
use mcu::faults::{self, FaultKind, FaultPlan};
use mcu::{Machine, RunState};
use tcil::ir::{CheckKind, Expr, ExprKind, Place, PlaceBase, PlaceElem, Stmt};
use tcil::visit;
use tosapps::AppSpec;

use crate::{prepare_machine, Build};

/// Configuration of one fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Simulated seconds per run (golden and injected alike).
    pub seconds: u64,
    /// Number of injection sites to enumerate.
    pub sites: usize,
    /// Site-enumerator seed: same seed, same plans, same report.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// A moderate default: 16 sites over the standard short workload.
    fn default() -> Self {
        CampaignConfig {
            seconds: 4,
            sites: 16,
            seed: 0xC0DE,
        }
    }
}

/// One injected run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// Stable site label (see [`FaultPlan::label`]).
    pub site: String,
    /// Cycle point of the injection.
    pub at_cycle: u64,
    /// What the corruption did.
    pub verdict: Verdict,
}

/// The outcome of one campaign (one build × workload).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Final state of the golden (uninjected) run — campaigns over
    /// healthy apps expect `Sleeping`.
    pub golden_state: RunState,
    /// Per-site outcomes, in enumeration order.
    pub results: Vec<SiteResult>,
    /// The verdict tally.
    pub counts: VerdictCounts,
}

impl CampaignReport {
    /// The detected sites, with their FLIDs and decoded messages.
    pub fn detections(&self) -> impl Iterator<Item = (&SiteResult, u16, &str)> + '_ {
        self.results.iter().filter_map(|r| match &r.verdict {
            Verdict::Detected { flid, message } => Some((r, *flid, message.as_str())),
            _ => None,
        })
    }
}

/// The RAM cells whose corruption probes *checked* accesses: scalar
/// globals used as an array index anywhere in the final program —
/// receive-buffer positions, task-queue heads, sample counters. These
/// cells exist identically in cured and uncured builds (curing adds
/// checks before the accesses; it does not change which globals index
/// arrays), so targeting them is the logically comparable fault model:
/// push a buffer position or queue head out of range, and a cured image
/// traps an `IndexBound` check where an uncured one reads or writes
/// past the array.
///
/// Addresses come from the image's symbol table and are returned sorted
/// and deduplicated — plan enumeration must not depend on traversal
/// order.
pub fn target_cells(build: &Build) -> Vec<u16> {
    target_names(build)
        .iter()
        .filter_map(|name| build.image.find_global_addr(name))
        .collect::<BTreeSet<u16>>()
        .into_iter()
        .collect()
}

/// The *names* of the index globals [`target_cells`] resolves — the
/// layout-independent half of the fault model. The differential oracle
/// ([`crate::difftest`]) targets cells by name so the same logical fault
/// can be injected into two differently-laid-out builds of one program.
/// Sorted and deduplicated for enumeration-order independence.
pub fn target_names(build: &Build) -> Vec<String> {
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    let mark_index_expr = |ie: &Expr, ids: &mut BTreeSet<u32>| {
        visit::walk_expr(ie, &mut |e| {
            if let ExprKind::Load(p) = &e.kind {
                if p.elems.is_empty() && p.ty.as_int().is_some() {
                    if let PlaceBase::Global(gid) = &p.base {
                        ids.insert(gid.0);
                    }
                }
            }
        });
    };
    // Every place projection with an `Index` element marks the globals
    // its index expression reads; `IndexBound` checks mark theirs too
    // (the same set in cured builds, present only there).
    let scan_place = |p: &Place, ids: &mut BTreeSet<u32>| {
        for el in &p.elems {
            if let PlaceElem::Index(ie) = el {
                mark_index_expr(ie, ids);
            }
        }
    };
    for f in &build.program.functions {
        visit::walk_stmts(&f.body, &mut |s: &Stmt| {
            if let Stmt::Check(c) = s {
                if let CheckKind::IndexBound { idx, .. } = &c.kind {
                    mark_index_expr(idx, &mut ids);
                }
            }
            visit::stmt_exprs(s, &mut |top| {
                visit::walk_expr(top, &mut |e| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &e.kind {
                        scan_place(p, &mut ids);
                    }
                });
            });
            // `stmt_exprs` hands out assignment/call *target* index
            // expressions directly (not wrapped in a Load), so scan the
            // statement's places explicitly too.
            match s {
                Stmt::Assign(p, _) => scan_place(p, &mut ids),
                Stmt::Call { dst: Some(p), .. } | Stmt::BuiltinCall { dst: Some(p), .. } => {
                    scan_place(p, &mut ids)
                }
                _ => {}
            }
        });
    }
    ids.iter()
        .map(|gid| build.program.globals[*gid as usize].name.clone())
        .collect::<BTreeSet<String>>()
        .into_iter()
        .collect()
}

/// Runs a fault-injection campaign against one finished build.
///
/// The golden run and every injected run share one machine setup (via
/// [`prepare_machine`]); an injected run forks from the golden run at
/// the plan's cycle point, applies the corruption, and resumes to the
/// horizon or until it converges (see the module docs). Plans are
/// enumerated from the build's own image, with the [`target_cells`] as
/// priority targets — fat pointers move globals around, so *logical*
/// comparability across pipelines comes from the shared seed, site
/// mix, and target roles, not from identical addresses.
pub fn run_campaign(build: &Build, spec: &AppSpec, config: &CampaignConfig) -> CampaignReport {
    run_campaign_with_work(build, spec, config).0
}

/// [`run_campaign`], also returning the campaign's work counters.
pub fn run_campaign_with_work(
    build: &Build,
    spec: &AppSpec,
    config: &CampaignConfig,
) -> (CampaignReport, CampaignWork) {
    let (machine, until) = prepare_machine(build, spec, config.seconds);
    let targets = target_cells(build);
    let plans = faults::enumerate_sites(&build.image, &targets, config.seed, config.sites, until);
    let replay = fork_replay((machine, until), &plans);
    let work = replay.work();
    (report(&plans, replay), work)
}

/// Tallies [`fork_replay`]'s verdicts into a report, one row per plan.
fn report(plans: &[FaultPlan], replay: Replay) -> CampaignReport {
    let mut counts = VerdictCounts::default();
    let results = plans
        .iter()
        .zip(replay.verdicts)
        .map(|(plan, verdict)| {
            counts.record(&verdict);
            SiteResult {
                site: plan.label(),
                at_cycle: plan.at_cycle,
                verdict,
            }
        })
        .collect();
    CampaignReport {
        golden_state: replay.golden.state,
        results,
        counts,
    }
}

/// Evenly spaced golden checkpoints on top of the site cycles, so runs
/// injected late — or all at boot, like torn plans — still meet later
/// checkpoints to stop at (every 0.31 s of a 10 s run).
const GRID_CHECKPOINTS: u64 = 32;

/// How one injected run of [`fork_replay`] ended. Each index is a
/// checkpoint: an index into the sorted checkpoint cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkEnd {
    /// At this checkpoint it had the golden snapshot's future
    /// ([`Machine::same_future_except`]) with every SRAM byte and all
    /// output so far equal: [`Verdict::Benign`].
    Converged(usize),
    /// At this checkpoint it had the golden snapshot's future and
    /// output, differing only in SRAM bytes the golden run never reads
    /// again: [`Verdict::Benign`].
    DeadBytes(usize),
    /// At this checkpoint it had the golden snapshot's future but had
    /// already sent different output; it was triaged on its output so
    /// far followed by the golden run's output after the checkpoint.
    Rejoined(usize),
    /// It ran to the horizon and was triaged.
    Horizon,
}

/// One injected run's work: how it ended and how many instructions it
/// executed after its fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fork {
    /// Where it stopped.
    pub end: ForkEnd,
    /// Instructions executed from the checkpoint it forked.
    pub instructions: u64,
}

/// What [`fork_replay`] returns.
#[derive(Debug)]
pub struct Replay {
    /// The golden machine, run to the horizon.
    pub golden: Machine,
    /// One verdict per plan.
    pub verdicts: Vec<Verdict>,
    /// One work record per plan — counters that are pure functions of
    /// the inputs, identical under both engines.
    pub forks: Vec<Fork>,
}

impl Replay {
    /// The replay's work, summed over its golden run and forks.
    pub fn work(&self) -> CampaignWork {
        let mut work = CampaignWork {
            golden_instructions: self.golden.instr_count,
            ..CampaignWork::default()
        };
        for fork in &self.forks {
            work.fork_instructions += fork.instructions;
            *match fork.end {
                ForkEnd::Converged(_) => &mut work.converged,
                ForkEnd::DeadBytes(_) => &mut work.dead_bytes,
                ForkEnd::Rejoined(_) => &mut work.rejoined,
                ForkEnd::Horizon => &mut work.horizon,
            } += 1;
        }
        work
    }
}

/// The work of one or more campaigns: instructions simulated and how
/// the forks ended. Pure functions of the inputs, identical under both
/// engines and any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignWork {
    /// Instructions of the golden runs, boot to horizon.
    pub golden_instructions: u64,
    /// Instructions of the injected runs, fork to stop.
    pub fork_instructions: u64,
    /// Forks that ended [`ForkEnd::Converged`].
    pub converged: usize,
    /// Forks that ended [`ForkEnd::DeadBytes`].
    pub dead_bytes: usize,
    /// Forks that ended [`ForkEnd::Rejoined`].
    pub rejoined: usize,
    /// Forks that ran to the horizon.
    pub horizon: usize,
}

impl CampaignWork {
    /// Folds another campaign's work into this one.
    pub fn add(&mut self, other: &CampaignWork) {
        self.golden_instructions += other.golden_instructions;
        self.fork_instructions += other.fork_instructions;
        self.converged += other.converged;
        self.dead_bytes += other.dead_bytes;
        self.rejoined += other.rejoined;
        self.horizon += other.horizon;
    }
}

/// The one replay engine, shared by the campaigns and the differential
/// oracle: a golden run of the prepared machine to the horizon `until`
/// that keeps a snapshot at every checkpoint, then one injected run per
/// plan forked from its site's snapshot and stopped at the first later
/// checkpoint where it has the golden snapshot's future
/// ([`Machine::same_future_except`]): it differs in nothing the program
/// can read but dead SRAM bytes — none at all, or only bytes the golden
/// run never reads after that checkpoint. A fork that stops with the
/// golden output so far is [`Verdict::Benign`]; one that stops having
/// sent different output is triaged on a splice, its own output up to
/// the checkpoint followed by the golden run's after it, with the golden
/// run's final state, fault and LED count. A fork that never stops is
/// triaged at the horizon.
///
/// The golden run stamps every SRAM byte it reads with the index of the
/// checkpoint it is heading for ([`Machine::stamp_reads`]; the tail
/// after the last checkpoint gets one more), so a byte stamped at most
/// `k` is dead at checkpoint `k`. A fork that differs only in dead bytes
/// and write-only counters executes the golden run's instructions until
/// it reads one, and the golden run never does: from the checkpoint on,
/// it emits the golden run's output at the golden run's cycles, so the
/// splice is exactly the observation a run to the horizon would make,
/// and triage never looks at raw RAM.
pub fn fork_replay((mut golden_machine, until): (Machine, u64), plans: &[FaultPlan]) -> Replay {
    let mut stops: Vec<u64> = plans
        .iter()
        .map(|p| p.at_cycle.min(until))
        .chain((1..GRID_CHECKPOINTS).map(|k| until * k / GRID_CHECKPOINTS))
        .collect();
    stops.sort_unstable();
    stops.dedup();
    let epoch = |k: usize| u16::try_from(k).expect("fewer than 65536 checkpoints");
    let checkpoints: Vec<Machine> = stops
        .iter()
        .enumerate()
        .map(|(k, &at)| {
            golden_machine.stamp_reads(epoch(k));
            golden_machine.run(at);
            golden_machine.clone()
        })
        .collect();
    golden_machine.stamp_reads(epoch(stops.len()));
    golden_machine.run(until);
    let last_read = golden_machine
        .take_read_stamps()
        .expect("the golden run records its reads");
    let golden = RunObservation::capture(&golden_machine);
    let flids = &golden_machine.image().flid_table;

    let (verdicts, forks) = plans
        .iter()
        .map(|plan| {
            let first = stops.partition_point(|&at| at < plan.at_cycle.min(until));
            let mut m = checkpoints[first].clone();
            let start = m.instr_count;
            faults::apply(&mut m, plan);
            let stop = (first..stops.len()).find(|&k| {
                m.run(stops[k]);
                let dead = epoch(k);
                m.same_future_except(&checkpoints[k], |addr| last_read[addr] <= dead)
            });
            let (verdict, end) = match stop {
                Some(k) => {
                    let at = &checkpoints[k];
                    if m.uart_out != at.uart_out || m.radio_out != at.radio_out {
                        let spliced = RunObservation {
                            uart: [&m.uart_out, &golden.uart[at.uart_out.len()..]].concat(),
                            radio: [&m.radio_out, &golden.radio[at.radio_out.len()..]].concat(),
                            fault: golden.fault.clone(),
                            ..golden
                        };
                        (
                            triage::triage(&golden, &spliced, flids),
                            ForkEnd::Rejoined(k),
                        )
                    } else if m.ram_bytes() == at.ram_bytes() {
                        (Verdict::Benign, ForkEnd::Converged(k))
                    } else {
                        (Verdict::Benign, ForkEnd::DeadBytes(k))
                    }
                }
                None => {
                    m.run(until);
                    let observed = RunObservation::capture(&m);
                    (triage::triage(&golden, &observed, flids), ForkEnd::Horizon)
                }
            };
            let instructions = m.instr_count - start;
            (verdict, Fork { end, instructions })
        })
        .unzip();
    Replay {
        golden: golden_machine,
        verdicts,
        forks,
    }
}

// ---------------------------------------------------------------------
// The torn-update atomicity campaign.
// ---------------------------------------------------------------------

/// XOR masks for torn corruption, cycled per injection so one campaign
/// probes several bit positions of each half.
const TORN_MASKS: [u8; 4] = [0x80, 0x01, 0x40, 0x08];

/// The names of the multi-byte globals with *flagged torn access sites*
/// (reads or writes) in `build`'s final program — the torn-update fault
/// model's target pool (classification runs on a clone; the build is not
/// mutated). Sorted and deduplicated for enumeration-order independence.
///
/// For a `races(fix)` build this is empty by construction: the point of
/// the campaign is to enumerate targets from the *unhardened* build and
/// inject the same logical faults (by name) into both.
pub fn torn_target_names(build: &Build) -> Vec<String> {
    let mut program = (*build.program).clone();
    let findings = cxprop::race_sites::classify(&mut program);
    findings
        .sites
        .iter()
        .filter(|s| s.width > 1)
        .map(|s| s.global.clone())
        .collect::<BTreeSet<String>>()
        .into_iter()
        .collect()
}

/// Enumerates torn-update plans for `build`: for each named 16-bit
/// target present in the image's symbol table (a name optimized away by
/// DCE is skipped), `per_target` watchpoints — the 1st, 2nd, … Nth
/// IRQ-enabled 16-bit access to the global — alternating low/high byte,
/// with a mask cycled from `TORN_MASKS`. Plans apply at boot (cycle 0,
/// the skew-free injection point): arming a watchpoint costs no
/// execution, so golden and injected runs never drift apart before the
/// fault lands.
pub fn torn_plans(build: &Build, names: &[String], per_target: usize) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for name in names {
        let Some(addr) = build.image.find_global_addr(name) else {
            continue;
        };
        for i in 0..per_target {
            plans.push(FaultPlan {
                at_cycle: 0,
                kind: FaultKind::TornUpdate16 {
                    addr,
                    nth: (i / 2 + 1) as u32,
                    mask: TORN_MASKS[i % TORN_MASKS.len()],
                    hi: i % 2 == 1,
                },
            });
        }
    }
    plans
}

/// Runs a torn-update atomicity campaign against one build: one golden
/// run, then one injected run per plan from [`torn_plans`] over `names`
/// (enumerate them from the unhardened build via [`torn_target_names`]
/// so hardened and unhardened builds face the same logical faults).
///
/// A build whose flagged accesses all sit inside atomic sections is
/// mechanically immune — the watchpoint only fires on accesses executed
/// with interrupts enabled — so every injected run matches golden and
/// tallies [`Verdict::Benign`]. The interesting measure is therefore
/// [`VerdictCounts::divergences`] compared across builds.
pub fn run_torn_campaign(
    build: &Build,
    spec: &AppSpec,
    names: &[String],
    per_target: usize,
    seconds: u64,
) -> CampaignReport {
    let plans = torn_plans(build, names, per_target);
    report(
        &plans,
        fork_replay(prepare_machine(build, spec, seconds), &plans),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildSession, Pipeline};
    use mcu::isa::{AluOp, Instr, Width};

    fn campaign(pipeline: &Pipeline, cfg: &CampaignConfig) -> CampaignReport {
        let spec = tosapps::spec("SenseToRfm_Mica2").unwrap();
        let build = BuildSession::new().build(&spec, pipeline).unwrap();
        run_campaign(&build, &spec, cfg)
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = CampaignConfig {
            seconds: 2,
            sites: 8,
            seed: 99,
        };
        let a = campaign(&Pipeline::safe_flid(), &cfg);
        let b = campaign(&Pipeline::safe_flid(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn torn_campaign_separates_hardened_from_unhardened() {
        // HighFrequencySampling's flush() task reads its racy uint16_t
        // sample buffer with interrupts enabled — a runtime-reachable
        // torn-read hazard (most apps only touch their 16-bit globals
        // from handler context or in pre-IrqEnable init code, where the
        // watchpoint can never fire).
        let session = crate::BuildSession::new();
        let spec = tosapps::spec("HighFrequencySampling_Mica2").unwrap();
        let unhardened = session
            .build(&spec, &Pipeline::parse("cure(flid)|cxprop|prune").unwrap())
            .unwrap();
        let hardened = session
            .build(
                &spec,
                &Pipeline::parse("cure(flid)|races(fix)|cxprop|prune").unwrap(),
            )
            .unwrap();
        // Targets come from the unhardened build; the hardened build has
        // no flagged torn accesses left, by construction.
        let names = torn_target_names(&unhardened);
        assert!(!names.is_empty(), "no torn-access targets flagged");
        assert!(torn_target_names(&hardened).is_empty());

        let torn = |build: &crate::Build| run_torn_campaign(build, &spec, &names, 4, 2);
        let hardened_report = torn(&hardened);
        assert_eq!(
            hardened_report.counts.divergences(),
            0,
            "hardened build not immune: {:?}",
            hardened_report.results
        );
        let unhardened_report = torn(&unhardened);
        assert!(
            unhardened_report.counts.divergences() > 0,
            "no torn injection diverged on the unhardened build: {:?}",
            unhardened_report.results
        );
        // Determinism: same build, same plans, same report.
        assert_eq!(torn(&unhardened), unhardened_report);
    }

    /// A timer-driven node: `main` sets the byte at `0x0200` to 7, arms
    /// timer 0 (a tick every 1 600 cycles) and sleeps; each tick runs
    /// `tick`, which ends in `Reti`.
    fn ticker(tick: Vec<Instr>) -> Machine {
        use mcu::devices::{TIMER0_COMPARE, TIMER0_CTRL};
        let mut img = mcu::Image::new(mcu::Profile::mica2());
        let mut handler = mcu::CodeFunction::new("tick");
        handler.interrupt = Some(mcu::vectors::TIMER0);
        handler.code = tick;
        img.add_function(handler);
        let mut main = mcu::CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(7),
            st(0x0200),
            Instr::PushI(50),
            Instr::PushI(TIMER0_COMPARE as i64),
            Instr::St { width: Width::W16 },
            Instr::PushI(1),
            Instr::PushI(TIMER0_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 9 },
        ];
        img.entry = Some(img.add_function(main));
        Machine::new(&img)
    }

    fn ld(addr: u16) -> Instr {
        Instr::LdGlobal {
            addr,
            width: Width::W8,
            signed: false,
        }
    }

    fn st(addr: u16) -> Instr {
        Instr::StGlobal {
            addr,
            width: Width::W8,
        }
    }

    fn add() -> Instr {
        Instr::Bin {
            op: AluOp::Add,
            width: Width::W8,
            signed: false,
        }
    }

    /// A tick that bumps a counter at `0x0210` and transmits a byte over
    /// the radio — the counter, or, when `sends_0x0200`, the byte `main`
    /// set, which it then sets back to 7 when `restores`.
    fn sender(sends_0x0200: bool, restores: bool) -> Vec<Instr> {
        let mut code = vec![
            ld(0x0210),
            Instr::PushI(1),
            add(),
            st(0x0210),
            ld(if sends_0x0200 { 0x0200 } else { 0x0210 }),
            Instr::PushI(mcu::devices::RADIO_TX as i64),
            Instr::St { width: Width::W8 },
        ];
        if restores {
            code.extend([Instr::PushI(7), st(0x0200)]);
        }
        code.push(Instr::Reti);
        code
    }

    /// A flip of the byte `main` set, injected at cycle 20 000 — the
    /// seventh checkpoint of a 100 000-cycle run (the grid's are every
    /// 3 125 cycles), 800 cycles before a tick.
    const FLIP: FaultPlan = FaultPlan {
        at_cycle: 20_000,
        kind: FaultKind::BitFlip {
            addr: 0x0200,
            mask: 0x80,
        },
    };

    /// What a replay of `plan` from boot says, triaged against a golden
    /// run from boot.
    fn replay_from_boot(reset: &Machine, plan: &FaultPlan, until: u64) -> Verdict {
        let mut golden = reset.clone();
        golden.run(until);
        let mut injected = reset.clone();
        injected.run(plan.at_cycle);
        faults::apply(&mut injected, plan);
        injected.run(until);
        triage::triage(
            &RunObservation::capture(&golden),
            &RunObservation::capture(&injected),
            &golden.image().flid_table,
        )
    }

    #[test]
    fn a_fork_whose_corruption_is_never_read_stops_at_its_first_checkpoint() {
        let replay = fork_replay((ticker(sender(false, false)), 100_000), &[FLIP]);
        assert_eq!(replay.verdicts, [Verdict::Benign]);
        assert_eq!(
            replay.forks,
            [Fork {
                end: ForkEnd::DeadBytes(6),
                instructions: 0,
            }]
        );
    }

    #[test]
    fn a_fork_whose_corruption_is_read_later_runs_to_the_horizon() {
        let reset = ticker(sender(true, false));
        let replay = fork_replay((reset.clone(), 100_000), &[FLIP]);
        assert_eq!(replay.forks[0].end, ForkEnd::Horizon);
        assert_eq!(replay.verdicts, [Verdict::SilentCorruption]);
        assert_eq!(replay.verdicts, [replay_from_boot(&reset, &FLIP, 100_000)]);
    }

    #[test]
    fn a_fork_that_sends_one_corrupted_byte_rejoins_with_the_boot_verdict() {
        // The tick after the flip transmits the corrupted byte and
        // restores it: by the next checkpoint the fork has the golden
        // future, and only its radio history differs.
        let reset = ticker(sender(true, true));
        let replay = fork_replay((reset.clone(), 100_000), &[FLIP]);
        assert_eq!(replay.forks[0].end, ForkEnd::Rejoined(7));
        assert_eq!(replay.verdicts, [Verdict::SilentCorruption]);
        assert_eq!(replay.verdicts, [replay_from_boot(&reset, &FLIP, 100_000)]);
        // The splice is what a run to the horizon observes: the fork's
        // radio bytes up to the checkpoint (cycle 21 875), then the
        // golden run's.
        let (mut golden, mut injected) = (reset.clone(), reset);
        golden.run(FLIP.at_cycle);
        injected.run(FLIP.at_cycle);
        faults::apply(&mut injected, &FLIP);
        golden.run(21_875);
        injected.run(21_875);
        let (golden_sent, fork_sent) = (golden.radio_out.len(), injected.radio_out.clone());
        golden.run(100_000);
        injected.run(100_000);
        assert_ne!(fork_sent, golden.radio_out[..golden_sent]);
        assert_eq!(
            injected.radio_out,
            [&fork_sent[..], &golden.radio_out[golden_sent..]].concat()
        );
        // The horizon twin (no restore) runs every tick to 100 000.
        let horizon = fork_replay((ticker(sender(true, false)), 100_000), &[FLIP]);
        assert!(replay.forks[0].instructions * 10 < horizon.forks[0].instructions);
    }

    #[test]
    fn a_fork_that_differs_only_in_counters_stops_at_its_next_checkpoint() {
        // Each tick counts the byte at 0x0220 down to zero. The golden
        // run finds it zero; a flip to 1 costs the next tick one extra
        // loop pass, after which only the instruction and awake-cycle
        // counters tell the fork from the golden run.
        let reset = ticker(vec![
            ld(0x0220),
            Instr::Jz { target: 7 },
            ld(0x0220),
            Instr::PushI(-1),
            add(),
            st(0x0220),
            Instr::Jmp { target: 0 },
            Instr::Reti,
        ]);
        let plan = FaultPlan {
            at_cycle: 20_000,
            kind: FaultKind::BitFlip {
                addr: 0x0220,
                mask: 0x01,
            },
        };
        let replay = fork_replay((reset.clone(), 100_000), &[plan]);
        assert_eq!(replay.verdicts, [Verdict::Benign]);
        assert_eq!(replay.forks[0].end, ForkEnd::Converged(7));
        // At that checkpoint (cycle 21 875) the exact oracle still sees
        // the extra pass; the future predicate does not.
        let (mut golden, mut injected) = (reset.clone(), reset);
        golden.run(20_000);
        injected.run(20_000);
        faults::apply(&mut injected, &plan);
        golden.run(21_875);
        injected.run(21_875);
        assert_eq!(
            injected.instr_count - golden.instr_count,
            7,
            "one loop pass"
        );
        assert!(injected.awake_cycles > golden.awake_cycles);
        assert!(!injected.same_state(&golden));
        assert!(injected.same_future_except(&golden, |_| false));
    }

    #[test]
    fn forks_of_a_stock_app_stop_on_dead_bytes_under_both_engines() {
        let spec = tosapps::spec("SenseToRfm_Mica2").unwrap();
        let build = BuildSession::new()
            .build(&spec, &Pipeline::safe_flid())
            .unwrap();
        let replay = |engine| {
            let (mut machine, until) = prepare_machine(&build, &spec, 2);
            machine.set_engine(engine);
            let plans =
                faults::enumerate_sites(&build.image, &target_cells(&build), 0xC0DE, 16, until);
            fork_replay((machine, until), &plans)
        };
        let (interp, bt) = (replay(mcu::Engine::Interp), replay(mcu::Engine::Bt));
        assert_eq!(interp.verdicts, bt.verdicts);
        assert_eq!(interp.forks, bt.forks, "work counters are engine-invariant");
        let ends = |end: fn(&ForkEnd) -> bool| bt.forks.iter().filter(|f| end(&f.end)).count();
        let dead = ends(|e| matches!(e, ForkEnd::DeadBytes(_)));
        let converged = ends(|e| matches!(e, ForkEnd::Converged(_)));
        assert_eq!((dead, converged), (6, 6), "pinned");
        for (fork, verdict) in bt.forks.iter().zip(&bt.verdicts) {
            if fork.end != ForkEnd::Horizon {
                assert_eq!(*verdict, Verdict::Benign);
            }
        }
    }

    #[test]
    fn uncured_builds_never_detect_and_every_detection_decodes() {
        let cfg = CampaignConfig {
            seconds: 2,
            sites: 12,
            seed: 7,
        };
        let uncured = campaign(&Pipeline::unsafe_baseline(), &cfg);
        assert_eq!(uncured.counts.detected, 0, "no checks, no detections");
        assert_eq!(uncured.counts.total(), 12);

        let cured = campaign(&Pipeline::safe_flid(), &cfg);
        assert_eq!(cured.counts.total(), 12);
        for (result, flid, message) in cured.detections() {
            assert!(
                !message.is_empty(),
                "{}: FLID {flid} undecodable",
                result.site
            );
        }
    }
}
