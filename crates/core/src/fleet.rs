//! Fleet-level simulation and network-level fault campaigns.
//!
//! [`mcu::fleet`] provides the event-driven mote scheduler; this module
//! wires it to the toolchain: it builds Surge-style data-collection
//! fleets from a [`Build`] (per-mote sensor seeds, base-station beacons
//! into mote 0, unit-disk or full-mesh topologies), decodes the active
//! message stream a base station would hear from the sink mote, checks
//! the event-driven engine against the lockstep [`mcu::net::Network`]
//! reference, and runs *network-level* fault-injection campaigns: corrupt
//! one mote's RAM mid-run and classify what the fleet observes — a FLID
//! safety trap at the victim, a crash, silent route poisoning visible in
//! the sink's delivered readings, or corruption contained to the victim.

use std::collections::BTreeSet;

use mcu::devices::Waveform;
use mcu::faults::{enumerate_sites, FaultPlan, SplitMix64};
use mcu::fleet::{Fleet, LinkQuality, MoteObservation, MoteSetup, Topology};
use mcu::net::Network;
use mcu::{Fault, Machine};

use crate::campaign::target_cells;
use crate::Build;

/// Salt mixed into the fleet seed to derive per-mote waveform seeds (so
/// the waveform stream and the link-decision stream never alias).
const WAVEFORM_SALT: u64 = 0x51ED_5EED_0F1E_E750;

/// First base-station beacon arrival at the sink mote, in cycles.
const BEACON_START: u64 = 500_000;
/// Beacon period, in cycles (2 s at 4 MHz — matches the single-mote
/// Surge context in `tosapps`).
const BEACON_PERIOD: u64 = 8_000_000;

/// The Surge active-message type carrying sensor readings.
pub const AM_SURGE_MSG: u8 = 17;
/// The Surge beacon/command message type.
pub const AM_SURGE_CMD: u8 = 18;

/// One fleet scenario: how many motes, for how long, over what links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of motes; mote 0 is the sink (it hears the base-station
    /// beacons, so the routing gradient descends toward it).
    pub motes: usize,
    /// Simulated seconds.
    pub seconds: u64,
    /// Master seed: drives per-link delivery decisions and per-mote
    /// sensor waveforms.
    pub seed: u64,
    /// Link quality of every edge.
    pub quality: LinkQuality,
    /// Unit-disk squared radius on the mote grid (`2` = 8-neighbour);
    /// `0` means a full mesh instead.
    pub range2: u64,
    /// Boot-time desynchronization window in cycles: mote `m ≥ 1` boots
    /// at `(m · 99991) mod stagger` instead of cycle 0 (the sink always
    /// boots at 0). `0` boots the whole fleet in lock phase — which
    /// synchronizes every sampling timer, so reading transmissions
    /// collide almost everywhere; real deployments never power on
    /// cycle-simultaneously. Must be `0` for lockstep-equivalence specs
    /// (the lockstep reference cannot express boot offsets).
    pub stagger: u64,
}

/// Default boot-desynchronization window of realistic fleets: 100 ms at
/// the Mica2 clock.
pub const SURGE_STAGGER: u64 = 400_000;

impl FleetSpec {
    /// A lossless full-mesh fleet — the configuration the lockstep
    /// reference can also simulate, used for equivalence checks.
    pub fn lossless_mesh(motes: usize, seconds: u64, seed: u64) -> FleetSpec {
        FleetSpec {
            motes,
            seconds,
            seed,
            quality: LinkQuality::LOSSLESS,
            range2: 0,
            stagger: 0,
        }
    }

    /// A unit-disk grid with the given per-link quality — the realistic
    /// multihop configuration the bench harness sweeps.
    pub fn grid(motes: usize, seconds: u64, seed: u64, quality: LinkQuality) -> FleetSpec {
        FleetSpec {
            motes,
            seconds,
            seed,
            quality,
            range2: 2,
            stagger: SURGE_STAGGER,
        }
    }
}

/// The simulation horizon of `spec` in cycles of `build`'s clock.
pub fn horizon_cycles(build: &Build, spec: &FleetSpec) -> u64 {
    spec.seconds * build.image.profile.clock_hz
}

/// The per-mote boot configurations of `spec`: every mote gets its own
/// seeded noise waveform, and mote 0 additionally hears base-station
/// beacons (hops = 0) so the routing tree forms around it. Shared by
/// [`build_fleet`] and the lockstep reference in
/// [`lockstep_matches_event_driven`] so both engines see the same world.
pub fn mote_setups(spec: &FleetSpec, horizon: u64) -> Vec<MoteSetup> {
    let mut seeds = SplitMix64::new(spec.seed ^ WAVEFORM_SALT);
    let beacon = tosapps::AmPacket::broadcast(AM_SURGE_CMD, vec![0, 0, 0]).frame_bytes();
    (0..spec.motes)
        .map(|m| {
            let mut setup = MoteSetup {
                waveform: Some(Waveform::Noise {
                    seed: seeds.next_u64() as u32,
                    min: 200,
                    max: 900,
                }),
                injections: Vec::new(),
            };
            if m == 0 {
                let mut at = BEACON_START;
                while at < horizon {
                    setup.injections.push((at, beacon.clone()));
                    at += BEACON_PERIOD;
                }
            }
            setup
        })
        .collect()
}

/// Builds (but does not run) the fleet described by `spec`, with every
/// mote running `build`'s image.
pub fn build_fleet(build: &Build, spec: &FleetSpec) -> Fleet {
    let topology = if spec.range2 == 0 {
        Topology::full_mesh(spec.motes, spec.quality)
    } else {
        Topology::unit_disk_grid(spec.motes, spec.range2, spec.quality)
    };
    let mut fleet = Fleet::new(&build.image, topology, spec.seed);
    for (m, setup) in mote_setups(spec, horizon_cycles(build, spec))
        .into_iter()
        .enumerate()
    {
        fleet.set_setup(m, setup);
    }
    if spec.stagger > 0 {
        for m in 1..spec.motes {
            let offset = (m as u64).wrapping_mul(99_991) % spec.stagger;
            if offset > 0 {
                fleet.schedule_power_cycle(m, 0, Some(offset));
            }
        }
    }
    fleet
}

// ---------------------------------------------------------------------
// Sink-side active-message decoding
// ---------------------------------------------------------------------

/// One decoded active-message frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmFrame {
    /// Destination address.
    pub addr: u16,
    /// Active-message type.
    pub am_type: u8,
    /// Group id.
    pub group: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Decodes a raw radio byte stream into CRC-valid active-message frames
/// (sync byte, header, payload, CRC-CCITT — the `RadioM` wire format).
/// Returns the frames and the number of sync candidates rejected by a
/// bad or truncated CRC; decoding resyncs one byte after a bad frame.
pub fn decode_am_frames(bytes: &[u8]) -> (Vec<AmFrame>, u64) {
    let mut frames = Vec::new();
    let mut rejects = 0u64;
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != 0x7E {
            i += 1;
            continue;
        }
        if i + 6 > bytes.len() {
            rejects += 1;
            break;
        }
        let len = bytes[i + 5] as usize;
        let end = i + 6 + len + 2;
        if end > bytes.len() {
            rejects += 1;
            i += 1;
            continue;
        }
        let mut crc = 0u16;
        for &b in &bytes[i + 1..i + 6 + len] {
            crc = tosapps::context::crc_byte(crc, b);
        }
        if crc.to_le_bytes() != [bytes[end - 2], bytes[end - 1]] {
            rejects += 1;
            i += 1;
            continue;
        }
        frames.push(AmFrame {
            addr: u16::from_le_bytes([bytes[i + 1], bytes[i + 2]]),
            am_type: bytes[i + 3],
            group: bytes[i + 4],
            payload: bytes[i + 6..i + 6 + len].to_vec(),
        });
        i = end;
    }
    (frames, rejects)
}

/// The distinct Surge readings among `frames`, keyed by the `(seq,
/// reading)` payload words. `TOS_LOCAL_ADDRESS` is a compile-time
/// constant, so the on-air source field cannot distinguish motes; the
/// per-mote sensor seeds make the key collision-resistant enough to
/// serve as a delivery metric.
pub fn surge_reading_keys(frames: &[AmFrame]) -> BTreeSet<u32> {
    frames
        .iter()
        .filter(|f| f.am_type == AM_SURGE_MSG && f.payload.len() >= 7)
        .map(|f| u32::from_le_bytes([f.payload[2], f.payload[3], f.payload[4], f.payload[5]]))
        .collect()
}

fn mote_frames(fleet: &Fleet, m: usize) -> (Vec<AmFrame>, u64) {
    let bytes: Vec<u8> = fleet.tx_log(m).iter().map(|&(_, b)| b).collect();
    decode_am_frames(&bytes)
}

/// The readings a base station wired to the sink mote would have
/// received: everything mote 0 put on the air, CRC-decoded.
pub fn sink_reading_keys(fleet: &Fleet) -> BTreeSet<u32> {
    surge_reading_keys(&mote_frames(fleet, 0).0)
}

/// What the sink delivered versus what the fleet offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkReport {
    /// CRC-valid frames heard at the sink (all message types).
    pub frames: u64,
    /// Sync candidates at the sink rejected by CRC.
    pub crc_rejects: u64,
    /// Distinct readings heard at the sink.
    pub heard: usize,
    /// Distinct readings that ever hit the air anywhere in the fleet.
    pub offered: usize,
    /// `heard / offered`, in percent (0 when nothing was offered).
    pub delivery_rate_pct: f64,
}

/// Decodes every mote's transmission log and scores end-to-end delivery
/// at the sink.
pub fn sink_report(fleet: &Fleet) -> SinkReport {
    let (sink_frames, crc_rejects) = mote_frames(fleet, 0);
    let heard = surge_reading_keys(&sink_frames);
    let mut offered = BTreeSet::new();
    for m in 0..fleet.node_count() {
        offered.extend(surge_reading_keys(&mote_frames(fleet, m).0));
    }
    let delivery_rate_pct = if offered.is_empty() {
        0.0
    } else {
        heard.len() as f64 * 100.0 / offered.len() as f64
    };
    SinkReport {
        frames: sink_frames.len() as u64,
        crc_rejects,
        heard: heard.len(),
        offered: offered.len(),
        delivery_rate_pct,
    }
}

// ---------------------------------------------------------------------
// Lockstep equivalence
// ---------------------------------------------------------------------

/// Runs the same scenario under the lockstep [`Network`] reference and
/// the event-driven [`Fleet`] engine and reports whether every mote's
/// observable state — run state, fault, cycle and instruction counts,
/// UART and radio logs, LED transitions, and full RAM — is
/// byte-identical. Only meaningful for lossless full-mesh specs (the
/// only topology the lockstep model can express).
pub fn lockstep_matches_event_driven(build: &Build, spec: &FleetSpec) -> bool {
    assert_eq!(spec.range2, 0, "the lockstep reference is a full mesh");
    assert_eq!(
        spec.quality,
        LinkQuality::LOSSLESS,
        "the lockstep reference has perfect links"
    );
    assert_eq!(
        spec.stagger, 0,
        "the lockstep reference cannot express boot offsets"
    );
    let horizon = horizon_cycles(build, spec);

    let reset = Machine::new(&build.image);
    let nodes: Vec<Machine> = mote_setups(spec, horizon)
        .iter()
        .map(|setup| setup.boot(&reset, 0, u64::MAX))
        .collect();
    let mut net = Network::new(nodes);
    net.run(horizon);

    let mut fleet = build_fleet(build, spec);
    fleet.run(horizon);

    (0..spec.motes).all(|m| {
        let a = &net.nodes[m];
        let b = fleet.machine(m);
        a.state == b.state
            && a.fault == b.fault
            && a.cycles == b.cycles
            && a.awake_cycles == b.awake_cycles
            && a.instr_count == b.instr_count
            && a.uart_out == b.uart_out
            && a.radio_out == b.radio_out
            && a.devices.leds.transitions == b.devices.leds.transitions
            && a.ram_bytes() == b.ram_bytes()
    })
}

// ---------------------------------------------------------------------
// Network-level fault campaigns
// ---------------------------------------------------------------------

/// A network-level fault campaign: one victim mote, many corruption
/// sites, fleet-level outcome classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCampaignConfig {
    /// The fleet to corrupt.
    pub spec: FleetSpec,
    /// Which mote gets its RAM corrupted.
    pub victim: usize,
    /// Number of corruption sites to enumerate.
    pub sites: usize,
    /// Seed for site enumeration (independent of the fleet seed).
    pub site_seed: u64,
}

/// What the fleet observed after corrupting the victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetVerdict {
    /// A Safe TinyOS check caught the corruption at the victim: the
    /// fleet-level analogue of the paper's detection outcome.
    DetectedAtVictim {
        /// The failure-location id the trap carried.
        flid: u16,
        /// The decoded host-side message.
        message: String,
    },
    /// The victim crashed without a safety trap.
    CrashedAtVictim {
        /// The fault it crashed with.
        fault: String,
    },
    /// The victim kept running, but the set of readings delivered at the
    /// sink changed: the corruption silently poisoned the routing or the
    /// data stream, visible fleet-wide.
    RoutePoisoning,
    /// The victim's own observable behavior diverged, but the sink
    /// delivered exactly the golden readings: the corruption stayed
    /// contained.
    Contained,
    /// No observable difference anywhere.
    Benign,
}

impl FleetVerdict {
    /// Stable short key for counters and JSON.
    pub fn key(&self) -> &'static str {
        match self {
            FleetVerdict::DetectedAtVictim { .. } => "detected",
            FleetVerdict::CrashedAtVictim { .. } => "crashed",
            FleetVerdict::RoutePoisoning => "poisoned",
            FleetVerdict::Contained => "contained",
            FleetVerdict::Benign => "benign",
        }
    }
}

/// Outcome histogram of a fleet campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetVerdictCounts {
    /// Safety traps at the victim.
    pub detected: usize,
    /// Non-trap crashes at the victim.
    pub crashed: usize,
    /// Sink-visible silent corruption.
    pub poisoned: usize,
    /// Victim-local divergence only.
    pub contained: usize,
    /// No divergence.
    pub benign: usize,
}

impl FleetVerdictCounts {
    /// Adds one verdict.
    pub fn record(&mut self, v: &FleetVerdict) {
        match v {
            FleetVerdict::DetectedAtVictim { .. } => self.detected += 1,
            FleetVerdict::CrashedAtVictim { .. } => self.crashed += 1,
            FleetVerdict::RoutePoisoning => self.poisoned += 1,
            FleetVerdict::Contained => self.contained += 1,
            FleetVerdict::Benign => self.benign += 1,
        }
    }

    /// Total verdicts recorded.
    pub fn total(&self) -> usize {
        self.detected + self.crashed + self.poisoned + self.contained + self.benign
    }
}

/// One corruption site's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSiteResult {
    /// Human-readable site label.
    pub site: String,
    /// Injection cycle (global fleet time).
    pub at_cycle: u64,
    /// The fleet-level outcome.
    pub verdict: FleetVerdict,
}

/// The uncorrupted run's observables, compared against by every site.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetGolden {
    /// The victim's golden observation.
    pub victim: MoteObservation,
    /// The golden set of readings delivered at the sink.
    pub sink: BTreeSet<u32>,
}

/// Enumerates the campaign's corruption plans: the same seeded site
/// model as the single-mote campaigns ([`crate::run_campaign`]), aimed
/// at the victim's checked index globals.
pub fn fleet_campaign_plans(build: &Build, cfg: &FleetCampaignConfig) -> Vec<FaultPlan> {
    enumerate_sites(
        &build.image,
        &target_cells(build),
        cfg.site_seed,
        cfg.sites,
        horizon_cycles(build, &cfg.spec),
    )
}

/// Runs the uncorrupted fleet once and captures the golden observables.
pub fn fleet_golden(build: &Build, cfg: &FleetCampaignConfig) -> FleetGolden {
    let mut fleet = build_fleet(build, &cfg.spec);
    fleet.run(horizon_cycles(build, &cfg.spec));
    FleetGolden {
        victim: fleet.observation(cfg.victim),
        sink: sink_reading_keys(&fleet),
    }
}

/// Runs one corruption site to completion and classifies the outcome
/// (see [`FleetVerdict`]). Pure in its inputs, so campaigns shard across
/// threads site-by-site.
pub fn run_fleet_site(
    build: &Build,
    cfg: &FleetCampaignConfig,
    plan: &FaultPlan,
    golden: &FleetGolden,
) -> FleetSiteResult {
    let mut fleet = build_fleet(build, &cfg.spec);
    fleet.set_fault(cfg.victim, *plan);
    fleet.run(horizon_cycles(build, &cfg.spec));
    let obs = fleet.observation(cfg.victim);
    let verdict = match &obs.fault {
        Some(Fault::SafetyTrap(flid)) => FleetVerdict::DetectedAtVictim {
            flid: *flid,
            message: fleet
                .machine(cfg.victim)
                .fault_message()
                .unwrap_or_default(),
        },
        Some(fault) => FleetVerdict::CrashedAtVictim {
            fault: format!("{fault:?}"),
        },
        None => {
            if sink_reading_keys(&fleet) != golden.sink {
                FleetVerdict::RoutePoisoning
            } else if obs != golden.victim {
                FleetVerdict::Contained
            } else {
                FleetVerdict::Benign
            }
        }
    };
    FleetSiteResult {
        site: plan.label(),
        at_cycle: plan.at_cycle,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn am_decoder_round_trips_and_rejects_corruption() {
        let p1 = tosapps::AmPacket::broadcast(AM_SURGE_MSG, vec![1, 0, 2, 0, 44, 1, 1]);
        let p2 = tosapps::AmPacket::broadcast(AM_SURGE_CMD, vec![0, 0, 0]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&[0x00, 0x13]); // leading noise
        stream.extend(p1.frame_bytes());
        stream.extend_from_slice(&[0x7E]); // stray sync byte
        stream.extend(p2.frame_bytes());
        let (frames, rejects) = decode_am_frames(&stream);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].am_type, AM_SURGE_MSG);
        assert_eq!(frames[0].payload, vec![1, 0, 2, 0, 44, 1, 1]);
        assert_eq!(frames[1].am_type, AM_SURGE_CMD);
        assert!(rejects >= 1, "the stray sync byte must be rejected");

        // Flip a payload bit: the frame must fail its CRC.
        let mut bad = p1.frame_bytes();
        bad[7] ^= 0x20;
        let (frames, rejects) = decode_am_frames(&bad);
        assert!(frames.is_empty());
        assert!(rejects >= 1);

        let keys = surge_reading_keys(&decode_am_frames(&p1.frame_bytes()).0);
        assert_eq!(keys.len(), 1);
    }
}
