//! Fleet-scale event-driven network simulation.
//!
//! [`crate::net::Network`] advances every node in lock-step half-byte
//! quanta and broadcasts every byte to every other node, which caps it at
//! a handful of motes. This module replaces the quanta with a *global
//! event queue*: a binary heap of per-mote next-wake times (the contract
//! is [`Machine::next_wake`] — next radio edge, timer event, or sleep
//! horizon). Idle motes cost nothing, so fleets of hundreds to thousands
//! of motes are feasible.
//!
//! # Conservative scheduling
//!
//! The scheduler is a conservative discrete-event loop whose lookahead is
//! the radio byte time: a byte put on the air at `t` reaches a receiver
//! at `t + RADIO_BYTE_CYCLES`, never earlier. Each iteration pops the
//! globally least-awake mote and grants it a window bounded by
//!
//! * `second + RADIO_BYTE_CYCLES` — no *other* mote can execute (and
//!   hence transmit) before `second`, the least wake of any other mote,
//!   so nothing can arrive here earlier than one byte-time later;
//! * `wake + 2 * RADIO_BYTE_CYCLES` — anything this mote's *own*
//!   transmissions provoke needs one byte-time to reach a neighbour and
//!   one more for the earliest reply to come back.
//!
//! An arrival landing exactly on a window boundary is still processed
//! before the receiver's next instruction (machine event delivery uses
//! `t <= cycles`), which is the same instruction boundary the lockstep
//! reference delivers at — the two engines are byte-identical on lossless
//! full-mesh topologies, and `tests` below holds the reference to that.
//!
//! # One live entry per mote
//!
//! The fleet keeps each mote's queued wake: the key of its one live heap
//! entry. An advance queues the mote's new wake; a delivery queues one
//! only when it pulls the receiver's wake earlier, which supersedes the
//! old entry. A popped entry that is not its mote's queued wake is
//! dropped, never re-pushed (re-pushing let duplicates pile up and cost
//! O(traffic) per pop), and superseded entries on top of the heap are
//! dropped before `second` is read, so a stale key never shortens a
//! window. [`FleetStats::stale`] counts the dropped entries.
//!
//! # Topology, loss, and churn
//!
//! Links are directed edges with per-link loss/duplication/reordering
//! probabilities. Every per-byte decision is drawn from a fresh
//! [`SplitMix64`] keyed on `(fleet seed, src, dst, byte index on the
//! link)` — never on timestamps — so two builds of the same app with
//! different instruction timing see identical drop patterns (the seeds
//! are *skew-free*), and runs shard across threads with serial≡parallel
//! byte-identity. A churn schedule powers motes off and on at fixed
//! cycles; a reboot replays the mote's [`MoteSetup`] for the new boot
//! epoch on a fresh [`Machine`].
//!
//! # One reset machine per image
//!
//! The fleet calls [`Machine::new`] once per distinct image — the fleet
//! image plus each distinct [`Fleet::set_image`] override — and keeps
//! that reset machine. Every boot, initial or churn reboot, forks it
//! ([`MoteSetup::boot`]), so all motes of one image share its image and
//! its block decode, and a reboot copies no code.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::devices::{Waveform, RADIO_BYTE_CYCLES};
use crate::faults::{self, FaultPlan, SplitMix64};
use crate::image::Image;
use crate::machine::{Machine, RunState};

/// Per-link delivery quality, in parts per million per byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkQuality {
    /// Probability (ppm) that a byte is dropped.
    pub loss_ppm: u32,
    /// Probability (ppm) that a byte is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a byte is delayed by 1–3 extra byte-times
    /// (which reorders it behind bytes sent after it).
    pub reorder_ppm: u32,
}

impl LinkQuality {
    /// A perfect link: every byte arrives exactly once, in order.
    pub const LOSSLESS: LinkQuality = LinkQuality {
        loss_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
    };

    /// A link that only loses bytes (no duplication or reordering).
    pub fn lossy(loss_ppm: u32) -> LinkQuality {
        LinkQuality {
            loss_ppm,
            ..LinkQuality::LOSSLESS
        }
    }
}

/// The per-byte outcome drawn for one (link, byte index) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDecision {
    /// The byte is dropped entirely.
    pub drop: bool,
    /// Extra delay in cycles past the nominal one byte-time (a multiple
    /// of [`RADIO_BYTE_CYCLES`], so delays preserve the one-byte-time
    /// lower bound the conservative scheduler relies on).
    pub extra_delay: u64,
    /// The byte is delivered a second time one byte-time later.
    pub duplicate: bool,
}

/// Draws the delivery decision for byte number `index` on the directed
/// link `src → dst`. Pure: the outcome depends only on the arguments —
/// in particular *not* on transmission timestamps or any draw history —
/// which is what makes loss patterns identical across differently
/// optimized builds of the same application (skew-free seeds).
pub fn link_decision(
    seed: u64,
    src: u32,
    dst: u32,
    index: u64,
    quality: &LinkQuality,
) -> LinkDecision {
    let mut h = seed;
    for v in [
        src as u64 ^ 0xD6E8_FEB8_6659_FD93,
        dst as u64 ^ 0xA076_1D64_78BD_642F,
        index,
    ] {
        h = SplitMix64::new(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    let mut rng = SplitMix64::new(h);
    // Fixed draw order, every draw unconditional: the loss decision is
    // always the first draw, so it cannot skew when other knobs change.
    let drop = rng.below(1_000_000) < quality.loss_ppm as u64;
    let reorder = rng.below(1_000_000) < quality.reorder_ppm as u64;
    let delay_slots = 1 + rng.below(3);
    let duplicate = rng.below(1_000_000) < quality.dup_ppm as u64;
    LinkDecision {
        drop,
        extra_delay: if reorder {
            delay_slots * RADIO_BYTE_CYCLES
        } else {
            0
        },
        duplicate,
    }
}

/// One directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Receiving mote.
    pub dst: u32,
    /// Delivery quality of this link.
    pub quality: LinkQuality,
}

/// A directed radio topology over `n` motes.
#[derive(Debug, Clone)]
pub struct Topology {
    out: Vec<Vec<Link>>,
}

impl Topology {
    /// Every mote hears every other mote (the lockstep
    /// [`crate::net::Network`] model).
    pub fn full_mesh(n: usize, quality: LinkQuality) -> Topology {
        let out = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| Link {
                        dst: j as u32,
                        quality,
                    })
                    .collect()
            })
            .collect();
        Topology { out }
    }

    /// Unit-disk connectivity on a square grid: mote `i` sits at
    /// `(i % side, i / side)` with `side = ceil(sqrt(n))`, and hears
    /// every mote within squared distance `range2` (`range2 = 2` gives
    /// the 8-neighbour Moore radius, `range2 = 1` the 4-neighbour one).
    pub fn unit_disk_grid(n: usize, range2: u64, quality: LinkQuality) -> Topology {
        let side = (n as f64).sqrt().ceil() as u64;
        let pos = |i: usize| ((i as u64 % side) as i64, (i as u64 / side) as i64);
        let out = (0..n)
            .map(|i| {
                let (xi, yi) = pos(i);
                (0..n)
                    .filter(|&j| {
                        if j == i {
                            return false;
                        }
                        let (xj, yj) = pos(j);
                        let d2 = (xi - xj).pow(2) + (yi - yj).pow(2);
                        d2 as u64 <= range2
                    })
                    .map(|j| Link {
                        dst: j as u32,
                        quality,
                    })
                    .collect()
            })
            .collect();
        Topology { out }
    }

    /// An explicit directed edge list. Edges are sorted per source by
    /// destination; listing the same edge twice delivers every byte
    /// twice.
    pub fn from_edges(n: usize, edges: &[(u32, u32, LinkQuality)]) -> Topology {
        let mut out = vec![Vec::new(); n];
        for &(src, dst, quality) in edges {
            assert!(
                (src as usize) < n && (dst as usize) < n,
                "edge out of range"
            );
            out[src as usize].push(Link { dst, quality });
        }
        for links in &mut out {
            links.sort_by_key(|l| l.dst);
        }
        Topology { out }
    }

    /// Number of motes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Outgoing links of `src`.
    pub fn neighbors(&self, src: usize) -> &[Link] {
        &self.out[src]
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

/// Per-mote boot configuration, replayed on every (re)boot: the churn
/// schedule may power a mote off and on, and each boot starts from a
/// fresh [`Machine`] configured from this ([`MoteSetup::boot`]).
#[derive(Debug, Clone, Default)]
pub struct MoteSetup {
    /// Sensor waveform driving the ADC.
    pub waveform: Option<Waveform>,
    /// Radio byte streams arriving from outside the fleet (e.g. base
    /// station beacons), as `(global cycle, bytes)`; bytes arrive one per
    /// [`RADIO_BYTE_CYCLES`] starting at the given cycle. Streams that
    /// start while the mote is powered off are lost.
    pub injections: Vec<(u64, Vec<u8>)>,
}

impl MoteSetup {
    /// The machine of the boot that starts at global cycle `epoch` and
    /// ends at `off`: a fork of `reset` (a machine in reset state) with
    /// the waveform set and every injection stream that starts inside
    /// `epoch..off` scheduled at its boot-local cycle.
    pub fn boot(&self, reset: &Machine, epoch: u64, off: u64) -> Machine {
        let mut machine = reset.clone();
        if let Some(w) = &self.waveform {
            machine.set_waveform(w.clone());
        }
        for (at, bytes) in &self.injections {
            if (epoch..off).contains(at) {
                machine.inject_rx_bytes(at - epoch, bytes);
            }
        }
        machine
    }
}

/// Aggregate fleet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Scheduler heap pops that granted a mote an execution window.
    pub pops: u64,
    /// Superseded heap entries dropped unread: a mote's entry goes stale
    /// when a delivery pulls its wake earlier and a new one is queued.
    pub stale: u64,
    /// Churn reboots (initial boots are not counted).
    pub reboots: u64,
    /// Bytes offered to the air by all motes.
    pub tx_bytes: u64,
    /// Byte deliveries scheduled into receivers (counting duplicates).
    pub delivered: u64,
    /// Bytes dropped by lossy links.
    pub dropped: u64,
    /// Extra deliveries from link duplication.
    pub duplicated: u64,
    /// Bytes delayed past their nominal arrival by link reordering.
    pub reordered: u64,
    /// Bytes that arrived while the receiver was powered off.
    pub dropped_offline: u64,
}

/// What one mote did, for equivalence checks and fleet campaigns. For a
/// churned mote this reflects the *most recent* boot (plus the full
/// cross-boot transmission log).
#[derive(Debug, Clone, PartialEq)]
pub struct MoteObservation {
    /// Final run state.
    pub state: RunState,
    /// Final fault, if any.
    pub fault: Option<crate::machine::Fault>,
    /// UART output of the current boot.
    pub uart: Vec<u8>,
    /// All transmitted bytes across boots, globally timestamped.
    pub radio: Vec<(u64, u8)>,
    /// LED transitions of the current boot.
    pub led_transitions: u64,
    /// Machine-local cycles of the current boot.
    pub cycles: u64,
    /// Awake cycles of the current boot.
    pub awake_cycles: u64,
    /// Instructions executed in the current boot.
    pub instr_count: u64,
}

struct Mote {
    machine: Machine,
    setup: MoteSetup,
    /// Index of this mote's image in [`Fleet::resets`]; its boots fork
    /// that reset machine.
    reset: usize,
    /// Global cycle at which the current boot started.
    epoch: u64,
    powered: bool,
    /// Next unconsumed entry of the mote's churn toggle list.
    toggle_idx: usize,
    /// `machine.radio_out` entries already collected by the scheduler.
    drained: usize,
    /// Cumulative bytes this mote has offered to the air (the per-link
    /// decision index).
    tx_index: u64,
    /// Deliveries addressed to a *future* boot, as `(global cycle, byte)`.
    inbox: BinaryHeap<Reverse<(u64, u8)>>,
    /// Cross-boot transmission log, globally timestamped.
    tx_log: Vec<(u64, u8)>,
    /// Awake/powered cycles accumulated over completed boots.
    awake_acc: u64,
    powered_acc: u64,
}

/// An event-driven network of M16 motes (see the module docs).
pub struct Fleet {
    topology: Topology,
    seed: u64,
    motes: Vec<Mote>,
    /// Per-mote sorted power toggle cycles: off, on, off, on, …
    /// (every mote starts powered).
    churn: Vec<Vec<u64>>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per mote, the wake of its one live heap entry (`u64::MAX`: none);
    /// any other entry of the mote is stale.
    queued: Vec<u64>,
    /// One reset machine per distinct image: the fleet image first,
    /// then each distinct [`Fleet::set_image`] override.
    resets: Vec<Machine>,
    fault: Option<(usize, FaultPlan)>,
    fault_applied: bool,
    stats: FleetStats,
}

impl Fleet {
    /// Creates a fleet of identical motes running `image` over
    /// `topology`. `seed` drives every per-link delivery decision.
    pub fn new(image: &Image, topology: Topology, seed: u64) -> Fleet {
        let n = topology.node_count();
        let reset = Machine::new(image);
        let motes = (0..n)
            .map(|_| Mote {
                machine: reset.clone(),
                setup: MoteSetup::default(),
                reset: 0,
                epoch: 0,
                powered: true,
                toggle_idx: 0,
                drained: 0,
                tx_index: 0,
                inbox: BinaryHeap::new(),
                tx_log: Vec::new(),
                awake_acc: 0,
                powered_acc: 0,
            })
            .collect();
        Fleet {
            topology,
            seed,
            motes,
            churn: vec![Vec::new(); n],
            heap: BinaryHeap::new(),
            queued: vec![u64::MAX; n],
            resets: vec![reset],
            fault: None,
            fault_applied: false,
            stats: FleetStats::default(),
        }
    }

    /// Number of motes.
    pub fn node_count(&self) -> usize {
        self.motes.len()
    }

    /// Gives one mote a different image (heterogeneous fleets): its
    /// boots fork the reset machine of that image, made on the first
    /// override with it. Must be called before the first `run`.
    pub fn set_image(&mut self, mote: usize, image: &Image) {
        assert_eq!(
            self.motes[mote].machine.cycles, 0,
            "set_image must precede run"
        );
        let reset = match self.resets.iter().position(|m| m.image() == image) {
            Some(i) => i,
            None => {
                self.resets.push(Machine::new(image));
                self.resets.len() - 1
            }
        };
        self.motes[mote].reset = reset;
        self.reboot_unrun(mote);
    }

    /// Installs a mote's boot configuration. Must be called before the
    /// first `run`.
    pub fn set_setup(&mut self, mote: usize, setup: MoteSetup) {
        assert_eq!(
            self.motes[mote].machine.cycles, 0,
            "set_setup must precede run"
        );
        self.motes[mote].setup = setup;
        self.reboot_unrun(mote);
    }

    /// Replaces a not-yet-run mote's initial boot with one of its current
    /// image and setup.
    fn reboot_unrun(&mut self, id: usize) {
        let mote = &mut self.motes[id];
        mote.machine = mote.setup.boot(&self.resets[mote.reset], 0, u64::MAX);
    }

    /// Schedules a power cycle: the mote dies at `off_at` and, if
    /// `on_at` is given, reboots from scratch at that cycle. Cycles must
    /// be scheduled in increasing order, before the first `run`, and a
    /// mote powered off forever accepts no further cycles.
    pub fn schedule_power_cycle(&mut self, mote: usize, off_at: u64, on_at: Option<u64>) {
        let toggles = &mut self.churn[mote];
        assert_eq!(toggles.len() % 2, 0, "mote is already powered off forever");
        assert!(
            toggles.last().is_none_or(|&last| off_at > last),
            "power cycles must be scheduled in increasing order"
        );
        toggles.push(off_at);
        if let Some(on_at) = on_at {
            assert!(on_at > off_at, "power-on must follow power-off");
            toggles.push(on_at);
        }
    }

    /// Arms a network-level fault campaign: `plan` corrupts the victim
    /// mote's state when it reaches `plan.at_cycle` (global time), while
    /// every other mote runs untouched.
    pub fn set_fault(&mut self, victim: usize, plan: FaultPlan) {
        assert!(victim < self.motes.len());
        self.fault = Some((victim, plan));
        self.fault_applied = false;
    }

    /// The victim's fault plan, if armed.
    pub fn fault(&self) -> Option<(usize, FaultPlan)> {
        self.fault
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The machine behind mote `m` (its most recent boot).
    pub fn machine(&self, m: usize) -> &Machine {
        &self.motes[m].machine
    }

    /// Everything mote `m` ever transmitted, globally timestamped.
    pub fn tx_log(&self, m: usize) -> &[(u64, u8)] {
        &self.motes[m].tx_log
    }

    /// Mote `m`'s observable behavior (see [`MoteObservation`]).
    pub fn observation(&self, m: usize) -> MoteObservation {
        let mote = &self.motes[m];
        MoteObservation {
            state: mote.machine.state,
            fault: mote.machine.fault.clone(),
            uart: mote.machine.uart_out.clone(),
            radio: mote.tx_log.clone(),
            led_transitions: mote.machine.devices.leds.transitions,
            cycles: mote.machine.cycles,
            awake_cycles: mote.machine.awake_cycles,
            instr_count: mote.machine.instr_count,
        }
    }

    /// Duty cycle of mote `m` across all boots, in percent.
    pub fn duty_cycle_percent(&self, m: usize) -> f64 {
        let mote = &self.motes[m];
        let (awake, total) = if mote.powered {
            (
                mote.awake_acc + mote.machine.awake_cycles,
                mote.powered_acc + mote.machine.cycles,
            )
        } else {
            (mote.awake_acc, mote.powered_acc)
        };
        if total == 0 {
            0.0
        } else {
            awake as f64 * 100.0 / total as f64
        }
    }

    /// Mean duty cycle across motes, in percent.
    pub fn mean_duty_cycle_percent(&self) -> f64 {
        if self.motes.is_empty() {
            return 0.0;
        }
        (0..self.motes.len())
            .map(|m| self.duty_cycle_percent(m))
            .sum::<f64>()
            / self.motes.len() as f64
    }

    /// Runs the fleet to `until` cycles of global time.
    pub fn run(&mut self, until: u64) {
        self.heap.clear();
        self.queued.fill(u64::MAX);
        for id in 0..self.motes.len() {
            if let Some(w) = self.wake_of(id) {
                if w < until {
                    self.queue_wake(id, w);
                }
            }
        }
        while let Some(Reverse((wake, id))) = self.heap.pop() {
            if wake >= until {
                break;
            }
            let id = id as usize;
            // One live entry per mote: every change to a mote's wake
            // (its own advance, a delivery into it) queues the new wake
            // unless the live entry already holds it, so an entry that
            // is not the mote's queued wake is superseded.
            if self.queued[id] != wake {
                self.stats.stale += 1;
                continue;
            }
            self.queued[id] = u64::MAX;
            self.stats.pops += 1;
            // `second` is the least wake of any other mote: superseded
            // entries on top would shorten the window.
            let second = loop {
                match self.heap.peek() {
                    Some(&Reverse((w, m))) if self.queued[m as usize] != w => {
                        self.heap.pop();
                        self.stats.stale += 1;
                    }
                    Some(&Reverse((w, _))) => break w,
                    None => break u64::MAX,
                }
            };
            #[cfg(test)]
            self.assert_least_other_wake(id, second, until);
            // The conservative window (see the module docs).
            let grant = until
                .min(second.saturating_add(RADIO_BYTE_CYCLES))
                .min(wake.saturating_add(2 * RADIO_BYTE_CYCLES));
            self.advance(id, grant);
            if let Some(w) = self.wake_of(id) {
                if w < until {
                    self.queue_wake(id, w);
                }
            }
        }
        self.heap.clear();
        // Final drain: every remaining wake is >= until, so no mote
        // executes an instruction (or transmits) before the horizon. In
        // mote order, fast-forward sleepers to `until` and settle any
        // churn toggle or pending fault cycle the mote slept past, so
        // final machine states match the lockstep reference exactly.
        for id in 0..self.motes.len() {
            for _ in 0..self.churn[id].len() + 3 {
                self.advance(id, until);
            }
        }
    }

    /// Makes `w` mote `id`'s live heap entry unless it already is; the
    /// entry it replaces goes stale.
    fn queue_wake(&mut self, id: usize, w: u64) {
        if self.queued[id] != w {
            self.queued[id] = w;
            self.heap.push(Reverse((w, id as u32)));
        }
    }

    /// Checks the scheduler's `second` against every other mote's true
    /// wake: the window the module docs describe, not a shorter one.
    #[cfg(test)]
    fn assert_least_other_wake(&self, id: usize, second: u64, until: u64) {
        let least = (0..self.motes.len())
            .filter(|&m| m != id)
            .filter_map(|m| self.wake_of(m))
            .min()
            .unwrap_or(u64::MAX);
        assert_eq!(second.min(until), least.min(until), "mote {id}'s window");
    }

    /// The mote's next wake in global time: the machine's own wake
    /// ([`Machine::next_wake`]) or its next power toggle, whichever is
    /// first; a powered-off mote wakes at its next power-on. `None`
    /// means nothing short of a radio delivery will ever wake it.
    fn wake_of(&self, id: usize) -> Option<u64> {
        let mote = &self.motes[id];
        let next_toggle = self.churn[id].get(mote.toggle_idx).copied();
        if !mote.powered {
            return next_toggle;
        }
        let machine = mote.machine.next_wake().map(|w| mote.epoch + w);
        match (machine, next_toggle) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances mote `id` through one segment toward `grant`: a power-on
    /// boot, or an execution window capped at the next power-off /
    /// pending-fault cycle (the caps make the remaining segments new
    /// calls). Collects and schedules any bytes transmitted.
    fn advance(&mut self, id: usize, grant: u64) {
        if !self.motes[id].powered {
            let Some(&on_at) = self.churn[id].get(self.motes[id].toggle_idx) else {
                return;
            };
            if on_at >= grant {
                return;
            }
            self.motes[id].toggle_idx += 1;
            self.boot(id, on_at);
            return; // freshly booted: the scheduler re-derives its wake
        }
        let epoch = self.motes[id].epoch;
        let next_off = self.churn[id]
            .get(self.motes[id].toggle_idx)
            .copied()
            .unwrap_or(u64::MAX);
        let fault_at = match &self.fault {
            Some((victim, plan)) if *victim == id && !self.fault_applied => plan.at_cycle,
            _ => u64::MAX,
        };
        let cap = grant.min(next_off).min(fault_at);
        let local = cap.saturating_sub(epoch);
        let mote = &mut self.motes[id];
        if matches!(mote.machine.state, RunState::Running | RunState::Sleeping)
            && mote.machine.cycles < local
        {
            mote.machine.run(local);
        }
        let fresh: Vec<(u64, u8)> = mote.machine.radio_out[mote.drained..]
            .iter()
            .map(|&(t, b)| (epoch + t, b))
            .collect();
        mote.drained = mote.machine.radio_out.len();
        for (t, b) in fresh {
            self.schedule_tx(id, t, b);
        }
        let mote = &self.motes[id];
        // A halted or faulted machine idles to the cap; a live one may
        // overshoot it by the tail of its last instruction.
        let pos = if matches!(mote.machine.state, RunState::Halted | RunState::Faulted) {
            cap
        } else {
            epoch + mote.machine.cycles
        };
        if fault_at != u64::MAX && pos >= fault_at {
            let plan = self.fault.as_ref().expect("fault is armed").1;
            faults::apply(&mut self.motes[id].machine, &plan);
            self.fault_applied = true;
        }
        if next_off != u64::MAX && cap == next_off && pos >= next_off {
            self.power_off(id);
        }
    }

    /// Reboots mote `id` from scratch at global cycle `epoch`, replaying
    /// its setup and delivering any mail that arrived for this boot.
    fn boot(&mut self, id: usize, epoch: u64) {
        let next_off = self.churn[id]
            .get(self.motes[id].toggle_idx)
            .copied()
            .unwrap_or(u64::MAX);
        let mote = &mut self.motes[id];
        mote.machine = mote.setup.boot(&self.resets[mote.reset], epoch, next_off);
        mote.epoch = epoch;
        mote.powered = true;
        mote.drained = 0;
        self.stats.reboots += 1;
        while let Some(&Reverse((at, byte))) = mote.inbox.peek() {
            if at < epoch {
                mote.inbox.pop(); // lost while powered off
                continue;
            }
            if at >= next_off {
                break; // a later boot's mail
            }
            mote.inbox.pop();
            mote.machine.inject_rx_bytes(at - epoch, &[byte]);
        }
    }

    /// Retires the current boot: accumulates its awake/powered cycles
    /// and marks the mote off. The stale machine stays readable until
    /// the next boot replaces it.
    fn power_off(&mut self, id: usize) {
        let mote = &mut self.motes[id];
        mote.awake_acc += mote.machine.awake_cycles;
        mote.powered_acc += mote.machine.cycles;
        mote.powered = false;
        mote.toggle_idx += 1;
    }

    /// Offers one transmitted byte to every outgoing link of `src`.
    fn schedule_tx(&mut self, src: usize, t: u64, byte: u8) {
        self.motes[src].tx_log.push((t, byte));
        self.stats.tx_bytes += 1;
        let index = self.motes[src].tx_index;
        self.motes[src].tx_index += 1;
        for k in 0..self.topology.neighbors(src).len() {
            let link = self.topology.neighbors(src)[k];
            let d = link_decision(self.seed, src as u32, link.dst, index, &link.quality);
            if d.drop {
                self.stats.dropped += 1;
                continue;
            }
            if d.extra_delay > 0 {
                self.stats.reordered += 1;
            }
            let at = t + RADIO_BYTE_CYCLES + d.extra_delay;
            self.deliver_byte(link.dst as usize, at, byte);
            if d.duplicate {
                self.stats.duplicated += 1;
                self.deliver_byte(link.dst as usize, at + RADIO_BYTE_CYCLES, byte);
            }
        }
    }

    /// Schedules one byte into a receiver at global cycle `at`: straight
    /// into the current machine when the arrival falls inside its boot,
    /// into the mote's inbox when it falls inside a future boot, and on
    /// the floor when the mote is powered off at that moment.
    fn deliver_byte(&mut self, dst: usize, at: u64, byte: u8) {
        let Some(boot_epoch) = self.boot_epoch_at(dst, at) else {
            self.stats.dropped_offline += 1;
            return;
        };
        let mote = &mut self.motes[dst];
        if mote.powered && mote.epoch == boot_epoch {
            mote.machine.inject_rx_bytes(at - mote.epoch, &[byte]);
            self.stats.delivered += 1;
            // The delivery may have pulled the receiver's wake earlier.
            if let Some(w) = self.wake_of(dst) {
                if w < self.queued[dst] {
                    self.queue_wake(dst, w);
                }
            }
        } else {
            mote.inbox.push(Reverse((at, byte)));
            self.stats.delivered += 1;
        }
    }

    /// The boot epoch covering global cycle `at` under the mote's static
    /// churn schedule, or `None` if the mote is powered off then. Boot
    /// intervals are half-open: `[power-on, power-off)`.
    fn boot_epoch_at(&self, id: usize, at: u64) -> Option<u64> {
        let mut on = true;
        let mut epoch = 0u64;
        for &t in &self.churn[id] {
            if at < t {
                break;
            }
            on = !on;
            if on {
                epoch = t;
            }
        }
        if on {
            Some(epoch)
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("motes", &self.motes.len())
            .field("edges", &self.topology.edge_count())
            .field("seed", &self.seed)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::devices::{RADIO_CTRL, RADIO_RX, RADIO_TX};
    use crate::image::{CodeFunction, Image, Profile};
    use crate::isa::{Instr, Width};
    use crate::net::Network;

    /// An image that transmits `count` bytes back-to-back (the radio
    /// ignores stores while busy, so a tight poll of RADIO_STATUS paces
    /// one byte per byte-time), then halts.
    fn tx_burst_image(count: usize, padding_nops: usize) -> Image {
        use crate::devices::RADIO_STATUS;
        use crate::isa::AluOp;
        let mut img = Image::new(Profile::mica2());
        let mut main = CodeFunction::new("main");
        let mut code = Vec::new();
        for i in 0..count {
            // while (RADIO_STATUS & 1) {}
            let poll = code.len();
            code.push(Instr::PushI(RADIO_STATUS as i64));
            code.push(Instr::Ld {
                width: Width::W8,
                signed: false,
            });
            code.push(Instr::PushI(1));
            code.push(Instr::Bin {
                op: AluOp::And,
                width: Width::W8,
                signed: false,
            });
            code.push(Instr::Jnz {
                target: poll as u32,
            });
            // Differently "compiled" builds pad between poll and store.
            for _ in 0..padding_nops {
                code.push(Instr::Nop);
            }
            code.push(Instr::PushI(0x40 + i as i64));
            code.push(Instr::PushI(RADIO_TX as i64));
            code.push(Instr::St { width: Width::W8 });
        }
        code.push(Instr::Halt);
        main.code = code;
        let e = img.add_function(main);
        img.entry = Some(e);
        img
    }

    /// An image whose RADIO_RX interrupt stores each received byte into
    /// a ring at 0x0200 and bumps a counter at 0x0300.
    fn rx_recorder_image() -> Image {
        use crate::isa::AluOp;
        let mut img = Image::new(Profile::mica2());
        let mut rx = CodeFunction::new("rx");
        rx.interrupt = Some(crate::vectors::RADIO_RX);
        rx.code = vec![
            // ram[0x200 + (count & 0x7f)] = RADIO_RX
            Instr::PushI(RADIO_RX as i64),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::PushI(0x0300),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::PushI(0x7F),
            Instr::Bin {
                op: AluOp::And,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(0x0200),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::St { width: Width::W8 },
            // count += 1
            Instr::PushI(0x0300),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W8,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0300,
                width: Width::W8,
            },
            Instr::Reti,
        ];
        img.add_function(rx);
        let mut main = CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(1),
            Instr::PushI(RADIO_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 4 },
        ];
        let e = img.add_function(main);
        img.entry = Some(e);
        img
    }

    fn heterogeneous_fleet(images: &[&Image], topology: Topology, seed: u64) -> Fleet {
        let mut fleet = Fleet::new(images[0], topology, seed);
        for (i, img) in images.iter().enumerate().skip(1) {
            fleet.set_image(i, img);
        }
        fleet
    }

    /// Satellite: the existing 2-node lockstep scenario and the
    /// event-driven engine produce byte-identical machines on a lossless
    /// full mesh.
    #[test]
    fn matches_lockstep_on_byte_channel_scenario() {
        let (img_a, img_b) = crate::net::byte_channel_images();

        let mut net = Network::new(vec![Machine::new(&img_a), Machine::new(&img_b)]);
        net.run(10_000);

        let mut fleet = heterogeneous_fleet(
            &[&img_a, &img_b],
            Topology::full_mesh(2, LinkQuality::LOSSLESS),
            7,
        );
        fleet.run(10_000);

        assert_eq!(fleet.machine(1).ram_peek(0x0200), 0x5A);
        for i in 0..2 {
            let m_net = &net.nodes[i];
            let m_fleet = fleet.machine(i);
            assert_eq!(m_net.state, m_fleet.state, "mote {i} state");
            assert_eq!(m_net.cycles, m_fleet.cycles, "mote {i} cycles");
            assert_eq!(
                m_net.awake_cycles, m_fleet.awake_cycles,
                "mote {i} awake cycles"
            );
            assert_eq!(
                m_net.instr_count, m_fleet.instr_count,
                "mote {i} instructions"
            );
            assert_eq!(m_net.radio_out, m_fleet.radio_out, "mote {i} tx");
            assert_eq!(
                m_net.ram_bytes(),
                m_fleet.ram_bytes(),
                "mote {i} RAM diverged"
            );
        }
    }

    /// A delivery that pulls a receiver's wake earlier supersedes its
    /// heap entry: under heavy reordering a delayed byte queues the
    /// receiver's wake late and the next byte pulls it earlier. The
    /// superseded entries are dropped before the scheduler reads
    /// `second`, so every window is the documented one (`run` checks
    /// `second` against every other mote's true wake under `cfg(test)`)
    /// and every byte still arrives.
    #[test]
    fn superseded_wakes_do_not_shorten_windows() {
        let img_tx = tx_burst_image(16, 0);
        let img_rx = rx_recorder_image();
        let quality = LinkQuality {
            reorder_ppm: 500_000,
            ..LinkQuality::LOSSLESS
        };
        let mut fleet = heterogeneous_fleet(
            &[&img_tx, &img_rx, &img_rx, &img_rx],
            Topology::full_mesh(4, quality),
            0x5EED,
        );
        fleet.run(60_000);
        let stats = fleet.stats();
        assert!(stats.stale > 0, "{stats:?}");
        assert!(stats.reordered > 0, "{stats:?}");
        assert_eq!(stats.delivered, 3 * 16, "{stats:?}");
        for m in 1..4 {
            assert_eq!(fleet.machine(m).ram_peek(0x0300), 16, "mote {m}");
        }
    }

    /// A lossless 3-mote burst fleet delivers every byte to every
    /// neighbour, twice under duplication, and not at all at 100% loss.
    #[test]
    fn link_quality_shapes_delivery() {
        let img_tx = tx_burst_image(8, 0);
        let img_rx = rx_recorder_image();
        let horizon = 60_000;

        let run = |quality: LinkQuality| {
            let mut fleet = heterogeneous_fleet(
                &[&img_tx, &img_rx, &img_rx],
                Topology::full_mesh(3, quality),
                0xFEED,
            );
            fleet.run(horizon);
            let stats = fleet.stats();
            let rx_counts = [
                fleet.machine(1).ram_peek(0x0300),
                fleet.machine(2).ram_peek(0x0300),
            ];
            (stats, rx_counts)
        };

        let (s, rx) = run(LinkQuality::LOSSLESS);
        assert_eq!(s.tx_bytes, 8);
        assert_eq!(rx, [8, 8]);
        assert_eq!((s.dropped, s.duplicated, s.reordered), (0, 0, 0));

        let (s, rx) = run(LinkQuality::lossy(1_000_000));
        assert_eq!(s.dropped, 16, "every byte dropped on both links");
        assert_eq!(rx, [0, 0]);

        let (s, rx) = run(LinkQuality {
            dup_ppm: 1_000_000,
            ..LinkQuality::LOSSLESS
        });
        assert_eq!(s.duplicated, 16);
        assert_eq!(rx, [16, 16]);
    }

    /// Skew-freedom: two "builds" of the same transmitter with different
    /// instruction timing see the identical per-link drop pattern, so
    /// the surviving byte sequence is the same.
    #[test]
    fn loss_pattern_is_independent_of_build_timing() {
        let received = |padding: usize| {
            let img_tx = tx_burst_image(24, padding);
            let img_rx = rx_recorder_image();
            let mut fleet = heterogeneous_fleet(
                &[&img_tx, &img_rx],
                Topology::full_mesh(2, LinkQuality::lossy(400_000)),
                0xA5A5,
            );
            fleet.run(120_000);
            let n = fleet.machine(1).ram_peek(0x0300) as usize;
            (0..n)
                .map(|i| fleet.machine(1).ram_peek(0x0200 + i as u16))
                .collect::<Vec<u8>>()
        };
        let fast = received(0);
        let slow = received(9);
        assert!(!fast.is_empty() && fast.len() < 24, "loss should bite");
        assert_eq!(fast, slow, "drop decisions skewed with build timing");
    }

    /// Churn: a receiver that powers off mid-transfer neither wedges the
    /// event queue nor hears bytes sent while it was dark; after its
    /// reboot it hears traffic again from a fresh machine.
    #[test]
    fn power_cycle_mid_transfer_does_not_wedge() {
        let img_tx = tx_burst_image(40, 0);
        let img_rx = rx_recorder_image();
        let mut fleet = heterogeneous_fleet(
            &[&img_tx, &img_rx],
            Topology::full_mesh(2, LinkQuality::LOSSLESS),
            1,
        );
        // The burst spans ~40 byte-times; kill the receiver inside it.
        fleet.schedule_power_cycle(1, 5_000, Some(20_000));
        fleet.run(120_000);

        let stats = fleet.stats();
        assert_eq!(stats.tx_bytes, 40, "transmitter unaffected by churn");
        assert_eq!(stats.reboots, 1);
        assert!(
            stats.dropped_offline > 0,
            "bytes sent into the dark window must be dropped"
        );
        let heard = fleet.machine(1).ram_peek(0x0300);
        assert!(
            heard > 0 && (heard as u64) < 40,
            "the rebooted receiver hears the tail of the burst, got {heard}"
        );
        // The reboot really was from scratch: the fresh machine's cycle
        // counter restarted at its boot epoch.
        assert_eq!(fleet.machine(1).cycles, 100_000);
        assert!(fleet.duty_cycle_percent(1) > 0.0);
    }

    /// Every boot forks one reset machine per distinct image: after
    /// churn reboots, each mote still shares its image and block decode
    /// with the reset machine of its image, overridden motes with their
    /// override's, and setting the fleet image again makes no new one.
    #[test]
    fn boots_fork_one_reset_machine_per_image() {
        let img_tx = tx_burst_image(10, 0);
        let img_rx = rx_recorder_image();
        let mut fleet = heterogeneous_fleet(
            &[&img_tx, &img_tx, &img_rx, &img_rx],
            Topology::full_mesh(4, LinkQuality::LOSSLESS),
            1,
        );
        fleet.schedule_power_cycle(0, 2_000, Some(4_000));
        fleet.schedule_power_cycle(3, 2_000, Some(4_000));
        fleet.run(50_000);
        assert_eq!(fleet.stats().reboots, 2);
        assert_eq!(fleet.resets.len(), 2, "one Machine::new per image");
        for (mote, reset) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            let (m, r) = (fleet.machine(mote), &fleet.resets[reset]);
            assert!(Arc::ptr_eq(&m.img, &r.img), "mote {mote} image");
            assert!(Arc::ptr_eq(&m.bbcache, &r.bbcache), "mote {mote} decode");
        }
    }

    /// A mote powered off forever goes quiet without stalling the rest.
    #[test]
    fn permanent_power_off_goes_quiet() {
        let img_tx = tx_burst_image(10, 0);
        let img_rx = rx_recorder_image();
        let mut fleet = heterogeneous_fleet(
            &[&img_tx, &img_rx],
            Topology::full_mesh(2, LinkQuality::LOSSLESS),
            1,
        );
        fleet.schedule_power_cycle(1, 2_000, None);
        fleet.run(50_000);
        assert_eq!(fleet.stats().tx_bytes, 10);
        assert_eq!(fleet.stats().reboots, 0);
        assert!(fleet.stats().dropped_offline > 0);
    }

    /// The same fleet run twice is byte-identical (determinism), and a
    /// different seed changes the loss pattern.
    #[test]
    fn runs_are_deterministic_and_seeded() {
        let img_tx = tx_burst_image(24, 0);
        let img_rx = rx_recorder_image();
        let run = |seed: u64| {
            let mut fleet = heterogeneous_fleet(
                &[&img_tx, &img_rx, &img_rx],
                Topology::unit_disk_grid(3, 2, LinkQuality::lossy(300_000)),
                seed,
            );
            fleet.run(120_000);
            let heard = |m: usize| {
                let n = fleet.machine(m).ram_peek(0x0300) as usize;
                (0..n)
                    .map(|i| fleet.machine(m).ram_peek(0x0200 + i as u16))
                    .collect::<Vec<u8>>()
            };
            (
                fleet.stats(),
                fleet.observation(0),
                fleet.observation(1),
                fleet.observation(2),
                heard(1),
                heard(2),
            )
        };
        assert_eq!(run(42), run(42));
        let (a, b) = (run(42), run(43));
        assert!(
            (a.4, a.5) != (b.4, b.5),
            "seed must steer which bytes survive the lossy links"
        );
    }

    /// Topology constructors produce the expected edge sets.
    #[test]
    fn topology_shapes() {
        let mesh = Topology::full_mesh(4, LinkQuality::LOSSLESS);
        assert_eq!(mesh.edge_count(), 12);

        // 3×3 grid, 4-neighbour: corner motes have 2 out-links, the
        // centre has 4.
        let grid = Topology::unit_disk_grid(9, 1, LinkQuality::LOSSLESS);
        assert_eq!(grid.neighbors(0).len(), 2);
        assert_eq!(grid.neighbors(4).len(), 4);
        // 8-neighbour radius.
        let moore = Topology::unit_disk_grid(9, 2, LinkQuality::LOSSLESS);
        assert_eq!(moore.neighbors(4).len(), 8);

        let ring = Topology::from_edges(
            3,
            &[
                (0, 1, LinkQuality::LOSSLESS),
                (1, 2, LinkQuality::LOSSLESS),
                (2, 0, LinkQuality::LOSSLESS),
            ],
        );
        assert_eq!(ring.edge_count(), 3);
        assert_eq!(
            ring.neighbors(0),
            &[Link {
                dst: 1,
                quality: LinkQuality::LOSSLESS
            }]
        );
    }

    /// `link_decision` is pure in its key and its loss bit ignores the
    /// other quality knobs (no draw-order skew).
    #[test]
    fn link_decision_is_pure_and_unskewed() {
        let q1 = LinkQuality {
            loss_ppm: 250_000,
            dup_ppm: 0,
            reorder_ppm: 0,
        };
        let q2 = LinkQuality {
            loss_ppm: 250_000,
            dup_ppm: 900_000,
            reorder_ppm: 900_000,
        };
        for index in 0..500 {
            let a = link_decision(99, 3, 7, index, &q1);
            let b = link_decision(99, 3, 7, index, &q1);
            assert_eq!(a, b);
            let c = link_decision(99, 3, 7, index, &q2);
            assert_eq!(a.drop, c.drop, "loss decision skewed by dup/reorder knobs");
        }
    }
}
