//! Fault triage: classifying what an injected corruption did to a run.
//!
//! A fault-injection campaign runs each plan against a *golden*
//! (uninjected) run of the same build and asks the question the paper's
//! §2 poses: did the node **trap with a diagnosable FLID**, **crash** on
//! a hardware fault, **silently corrupt** its observable behavior, or
//! shrug the upset off entirely? The four-way [`Verdict`] is the
//! campaign's unit of measurement; the detection rate per pipeline is
//! the fraction of injections landing in [`Verdict::Detected`].
//!
//! Silent corruption is judged on *observable behavior only* — UART
//! bytes, timestamped radio transmissions, LED transitions, and the
//! final run state — not on raw RAM contents (the injected bits
//! themselves would otherwise make every run "corrupt").

use std::collections::BTreeMap;

use mcu::{Fault, Machine, RunState};

/// Everything observable about one finished run, captured for
/// golden-vs-injected comparison: two runs are behaviorally
/// indistinguishable exactly when they are `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunObservation {
    /// Final run state.
    pub state: RunState,
    /// The fault that stopped the machine, if any.
    pub fault: Option<Fault>,
    /// Bytes the node wrote to the UART.
    pub uart: Vec<u8>,
    /// Timestamped bytes the node transmitted over the radio.
    pub radio: Vec<(u64, u8)>,
    /// LED register transitions.
    pub led_transitions: u64,
}

impl RunObservation {
    /// Captures the observable outcome of `m`'s run so far.
    pub fn capture(m: &Machine) -> RunObservation {
        RunObservation {
            state: m.state,
            fault: m.fault.clone(),
            uart: m.uart_out.clone(),
            radio: m.radio_out.clone(),
            led_transitions: m.devices.leds.transitions,
        }
    }
}

/// What one injected fault did to the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A Safe TinyOS check caught the corruption: the node trapped with
    /// a FLID the host-side table decodes — the paper's success case.
    Detected {
        /// The failure-location id the trap carried.
        flid: u16,
        /// The decoded host-side message.
        message: String,
    },
    /// The node stopped on a hardware fault (unmapped access, illegal
    /// write, stack overflow, …) — fail-stop, but undiagnosable.
    Crash {
        /// Debug rendering of the fault.
        fault: String,
    },
    /// No trap, but observable behavior diverged from the golden run —
    /// the silent corruption cured builds exist to eliminate.
    SilentCorruption,
    /// Observable behavior identical to the golden run: the upset hit
    /// dead state.
    Benign,
}

impl Verdict {
    /// The verdict's stable report key
    /// (`detected` / `crash` / `silent` / `benign`).
    pub fn key(&self) -> &'static str {
        match self {
            Verdict::Detected { .. } => "detected",
            Verdict::Crash { .. } => "crash",
            Verdict::SilentCorruption => "silent",
            Verdict::Benign => "benign",
        }
    }
}

/// Classifies an injected run against its golden twin.
///
/// A safety trap whose FLID decodes through `flid_table` is
/// [`Verdict::Detected`]; a safety trap with no table entry cannot be
/// diagnosed on the host and is demoted to [`Verdict::Crash`] (cured
/// images always populate the table, so this is a backend-bug canary,
/// not an expected path). A golden run that itself trapped the same way
/// is *not* a detection — the injection changed nothing.
pub fn triage(
    golden: &RunObservation,
    injected: &RunObservation,
    flid_table: &BTreeMap<u16, String>,
) -> Verdict {
    if injected == golden {
        return Verdict::Benign;
    }
    match &injected.fault {
        Some(Fault::SafetyTrap(flid)) => match flid_table.get(flid) {
            Some(message) => Verdict::Detected {
                flid: *flid,
                message: message.clone(),
            },
            None => Verdict::Crash {
                fault: format!("SafetyTrap({flid}) with no FLID table entry"),
            },
        },
        Some(other) => Verdict::Crash {
            fault: format!("{other:?}"),
        },
        None => Verdict::SilentCorruption,
    }
}

/// Verdict counts for one campaign (one app × pipeline cell, or a
/// rollup across apps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Injections trapped with a decodable FLID.
    pub detected: usize,
    /// Injections that crashed on a hardware fault.
    pub crashed: usize,
    /// Injections that silently corrupted observable behavior.
    pub silent: usize,
    /// Injections with no observable effect.
    pub benign: usize,
}

impl VerdictCounts {
    /// Adds one verdict to the tally.
    pub fn record(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Detected { .. } => self.detected += 1,
            Verdict::Crash { .. } => self.crashed += 1,
            Verdict::SilentCorruption => self.silent += 1,
            Verdict::Benign => self.benign += 1,
        }
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, other: &VerdictCounts) {
        self.detected += other.detected;
        self.crashed += other.crashed;
        self.silent += other.silent;
        self.benign += other.benign;
    }

    /// Total injections tallied.
    pub fn total(&self) -> usize {
        self.detected + self.crashed + self.silent + self.benign
    }

    /// Detections as a percentage of all injections (0 when empty).
    pub fn detection_rate_pct(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.detected as f64 * 100.0 / self.total() as f64
    }

    /// Injections whose run diverged from golden at all — everything but
    /// [`Verdict::Benign`]. The atomicity-fault campaigns compare this
    /// across builds: a build mechanically immune to a fault class (e.g.
    /// torn 16-bit updates after `races(fix)`) tallies every injection
    /// benign, so its divergence count is the hardening's residue.
    pub fn divergences(&self) -> usize {
        self.detected + self.crashed + self.silent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> RunObservation {
        RunObservation {
            state: RunState::Sleeping,
            fault: None,
            uart: vec![1, 2],
            radio: vec![(100, 0x7E)],
            led_transitions: 6,
        }
    }

    fn table() -> BTreeMap<u16, String> {
        let mut t = BTreeMap::new();
        t.insert(7, "RadioM.nc:41 bounds".to_string());
        t
    }

    #[test]
    fn identical_runs_are_benign() {
        assert_eq!(triage(&quiet(), &quiet(), &table()), Verdict::Benign);
    }

    #[test]
    fn decodable_trap_is_detected() {
        let mut run = quiet();
        run.state = RunState::Faulted;
        run.fault = Some(Fault::SafetyTrap(7));
        match triage(&quiet(), &run, &table()) {
            Verdict::Detected { flid, message } => {
                assert_eq!(flid, 7);
                assert!(message.contains("RadioM.nc:41"));
            }
            v => panic!("expected detection, got {v:?}"),
        }
    }

    #[test]
    fn undecodable_trap_is_demoted_to_crash() {
        let mut run = quiet();
        run.state = RunState::Faulted;
        run.fault = Some(Fault::SafetyTrap(999));
        assert!(matches!(
            triage(&quiet(), &run, &table()),
            Verdict::Crash { .. }
        ));
    }

    #[test]
    fn hardware_fault_is_a_crash() {
        let mut run = quiet();
        run.state = RunState::Faulted;
        run.fault = Some(Fault::MemFault(0));
        match triage(&quiet(), &run, &table()) {
            Verdict::Crash { fault } => assert!(fault.contains("MemFault")),
            v => panic!("expected crash, got {v:?}"),
        }
    }

    #[test]
    fn diverging_output_without_fault_is_silent_corruption() {
        let mut run = quiet();
        run.uart.push(0xFF);
        assert_eq!(triage(&quiet(), &run, &table()), Verdict::SilentCorruption);
        let mut run = quiet();
        run.led_transitions += 1;
        assert_eq!(triage(&quiet(), &run, &table()), Verdict::SilentCorruption);
    }

    #[test]
    fn golden_trap_reproduced_is_benign() {
        // If the golden run itself trapped identically, the injection
        // changed nothing and must not count as a detection.
        let mut golden = quiet();
        golden.state = RunState::Faulted;
        golden.fault = Some(Fault::SafetyTrap(7));
        let run = golden.clone();
        assert_eq!(triage(&golden, &run, &table()), Verdict::Benign);
    }

    #[test]
    fn counts_tally_and_rate() {
        let mut c = VerdictCounts::default();
        c.record(&Verdict::Detected {
            flid: 7,
            message: String::new(),
        });
        c.record(&Verdict::Benign);
        c.record(&Verdict::SilentCorruption);
        c.record(&Verdict::Crash {
            fault: String::new(),
        });
        assert_eq!(c.total(), 4);
        assert_eq!(c.detection_rate_pct(), 25.0);
        let mut d = VerdictCounts::default();
        d.add(&c);
        d.add(&c);
        assert_eq!(d.detected, 2);
        assert_eq!(d.total(), 8);
    }
}
