//! M16: a cycle-counting 16-bit microcontroller simulator.
//!
//! This crate is the reproduction's substitute for the Atmel AVR (Mica2) /
//! TI MSP430 (TelosB) hardware and the Avrora simulator the paper measures
//! on. It provides:
//!
//! * [`isa`] — a compact stack-machine instruction set with a documented
//!   byte-size and cycle cost per instruction (code-size and duty-cycle
//!   metrics come straight from these tables),
//! * [`image`] — linked program images: code, initialized data, read-only
//!   data in the flash window, interrupt vectors, and the host-side FLID
//!   error-message table,
//! * [`machine`] — the machine model: evaluation stack, RAM call frames,
//!   interrupts, sleep/wake accounting, and safety-trap handling,
//! * [`engine`] + [`bbcache`] — the two execution engines behind
//!   [`Machine::run`]: the faithful per-instruction interpreter and a
//!   basic-block translation engine (decode once, superinstruction
//!   fusion, faithful fallback at every observable boundary, the
//!   default) selected via `STOS_ENGINE=interp|bt` — byte-identical
//!   observables, ≥10× the cycles/sec. The decode belongs to the
//!   machine: [`Machine::new`] makes an empty decode slot, every clone
//!   shares it, and the first block-engine run of any of them fills it,
//!   so code that runs one image many times forks one reset machine,
//! * [`devices`] — memory-mapped timer, ADC, byte radio, UART, and LEDs,
//! * [`net`] — a lockstep shared broadcast radio channel for a few motes
//!   (the Avrora "network of motes" role), kept as the byte-exact
//!   reference the fleet is checked against,
//! * [`fleet`] — the fleet-scale event-driven network simulator: a global
//!   event queue over per-mote wake times, directed lossy topologies,
//!   node churn, and network-level fault injection (hundreds to
//!   thousands of motes; the lockstep [`net`] stays as the byte-exact
//!   reference model),
//! * [`faults`] — deterministic fault injection: seeded corruption plans
//!   (RAM bit flips, wild pointer words, register upsets) applied to a
//!   live machine, the substrate of the detection-rate campaigns.
//!
//! # Memory map
//!
//! | Range             | Meaning                                      |
//! |-------------------|----------------------------------------------|
//! | `0x0000..0x0100`  | reserved (null page — access faults)         |
//! | `0x0100..SRAM_END`| SRAM: globals grow up, call stack grows down |
//! | `0x8000..0xF000`  | flash window (read-only data)                |
//! | `0xF000..0xF100`  | memory-mapped device registers               |
//!
//! # Example
//!
//! ```
//! use mcu::{Image, Machine, Profile};
//! use mcu::isa::{AluOp, Instr, Width};
//! use mcu::image::CodeFunction;
//!
//! // A program that computes 2 + 3 into the LED register and halts.
//! let mut f = CodeFunction::new("main");
//! f.code = vec![
//!     Instr::PushI(2),
//!     Instr::PushI(3),
//!     Instr::Bin { op: AluOp::Add, width: Width::W8, signed: false },
//!     Instr::PushI(mcu::devices::LED_REG as i64),
//!     Instr::St { width: Width::W8 },
//!     Instr::Halt,
//! ];
//! let mut image = Image::new(Profile::mica2());
//! let main = image.add_function(f);
//! image.entry = Some(main);
//! let mut m = Machine::new(&image);
//! m.run(1_000);
//! assert_eq!(m.devices.leds.value, 5);
//! ```

pub mod bbcache;
pub mod devices;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod image;
pub mod isa;
pub mod machine;
pub mod net;

pub use bbcache::{BlockCache, CacheStats};
pub use engine::{Engine, EngineWork};
pub use faults::{FaultKind, FaultPlan};
pub use fleet::{Fleet, FleetStats, LinkQuality, MoteObservation, MoteSetup, Topology};
pub use image::{CodeFunction, Image, Profile};
pub use machine::{Fault, Machine, RunState, TornWatch};

/// Number of interrupt vectors on the M16.
pub const NUM_VECTORS: usize = 8;

/// Vector numbers (must stay in sync with `tcil::VECTORS`).
pub mod vectors {
    /// Timer 0 compare match.
    pub const TIMER0: u8 = 0;
    /// ADC conversion complete.
    pub const ADC: u8 = 1;
    /// Radio byte received.
    pub const RADIO_RX: u8 = 2;
    /// Radio byte transmitted.
    pub const RADIO_TX: u8 = 3;
    /// UART byte transmitted.
    pub const UART: u8 = 4;
    /// Timer 1 compare match.
    pub const TIMER1: u8 = 5;
}
