//! The M16 interpreter: instruction execution, interrupts, sleep/wake
//! accounting, and device event scheduling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use crate::bbcache::BlockCache;
use crate::devices::*;
use crate::engine::EngineWork;
use crate::image::Image;
use crate::isa::{AluOp, Instr, UnAluOp, Width};

/// Why a machine stopped (or misbehaved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A Safe TinyOS dynamic check failed; carries the FLID.
    SafetyTrap(u16),
    /// Access to an unmapped or reserved address (includes null-page
    /// dereferences).
    MemFault(u16),
    /// Write to the read-only flash window.
    IllegalWrite(u16),
    /// Integer division by zero.
    DivZero,
    /// The call stack collided with static data.
    StackOverflow,
    /// `__sleep()` executed with interrupts disabled and none pending —
    /// the node can never wake.
    DeadSleep,
    /// Malformed code (backend bug): evaluation stack underflow, bad
    /// function index, or fall off the end of a function. Carries a
    /// message naming the offending site.
    BadCode(String),
}

/// Execution state of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing instructions.
    Running,
    /// In sleep mode, waiting for an interrupt.
    Sleeping,
    /// `main` returned or `Halt` executed.
    Halted,
    /// Stopped by a [`Fault`].
    Faulted,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    caller_func: u32,
    caller_pc: u32,
    caller_fp: u16,
    callee_frame_size: u16,
    is_irq: bool,
}

/// First address of the read-only flash window (`.rodata`).
pub(crate) const FLASH_BASE: u16 = 0x8000;

/// Writes `b` at flash-window address `addr` into `window` (which
/// starts at `FLASH_BASE`), growing it with zeros as needed.
fn put_flash(window: &mut Vec<u8>, addr: u16, b: u8) {
    let i = (addr - FLASH_BASE) as usize;
    if window.len() <= i {
        window.resize(i + 1, 0);
    }
    window[i] = b;
}

/// Maximum number of `Call` arguments popped without a heap allocation.
const INLINE_ARGS: usize = 8;

/// Cycles charged for interrupt entry (vectoring + register save).
const IRQ_ENTRY_CYCLES: u64 = 8;

/// An armed torn-16-bit-update watchpoint (see
/// [`crate::faults::FaultKind::TornUpdate16`]).
///
/// The M16 ISA moves a 16-bit word in one instruction, but the hardware
/// it models (the Mica2's AVR) crosses an 8-bit bus twice per access —
/// an interrupt arriving between the two transfers leaves a store
/// half-written, or hands a load a half-updated value. The watchpoint
/// reproduces exactly that hazard window: it counts 16-bit accesses
/// (loads and stores in one event stream) to `addr` executed **while
/// interrupts are enabled** — accesses inside an `atomic` section run
/// with the IRQ flag clear and are mechanically immune — and on the
/// `nth` such access XORs `mask` into one byte of the word: into RAM for
/// a store (persistent, as if a handler clobbered the variable
/// mid-update), into the in-flight value for a load (transient, as if
/// the variable changed between the two read transfers). Keyed on the
/// logical access-event count, not a cycle number, so the same plan is
/// comparable across differently optimized builds of one program (the
/// skew-free technique the differential oracle uses for boot-state
/// flips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWatch {
    /// Watched word address (a 16-bit global's placement).
    pub addr: u16,
    /// Which IRQ-enabled 16-bit store to tear (1-based).
    pub nth: u32,
    /// XOR mask applied to the chosen byte.
    pub mask: u8,
    /// Corrupt the high byte (`addr + 1`) instead of the low byte.
    pub hi: bool,
    /// IRQ-enabled 16-bit stores to `addr` seen so far.
    pub seen: u32,
    /// Whether the tear has been applied.
    pub fired: bool,
}

/// Per-byte SRAM read stamps of a recording machine (see
/// [`Machine::stamp_reads`]). Recording is not machine state: a clone
/// never records, and [`Machine::same_state`] ignores it.
#[derive(Debug, Default)]
pub(crate) struct ReadLog(Option<ReadStamps>);

#[derive(Debug)]
struct ReadStamps {
    /// The stamp the next read leaves.
    epoch: u16,
    /// Per SRAM address, the epoch of its last read (0: none).
    last: Box<[u16]>,
}

impl Clone for ReadLog {
    fn clone(&self) -> ReadLog {
        ReadLog(None)
    }
}

impl ReadLog {
    /// Whether the machine is recording.
    #[inline(always)]
    pub(crate) fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Stamps the `len` SRAM bytes at `addr` as read now, if recording.
    #[inline(always)]
    pub(crate) fn note(&mut self, addr: u16, len: u32) {
        if let Some(s) = &mut self.0 {
            s.last[addr as usize..][..len as usize].fill(s.epoch);
        }
    }
}

/// Whether `a` and `b` are equal but for bytes at indexes `dead`
/// excuses. Only 64-byte chunks that differ are visited byte by byte.
fn same_bytes_except(a: &[u8], b: &[u8], dead: impl Fn(usize) -> bool) -> bool {
    const CHUNK: usize = 64;
    a.len() == b.len()
        && (a == b
            || a.chunks(CHUNK)
                .zip(b.chunks(CHUNK))
                .enumerate()
                .all(|(k, (x, y))| {
                    x == y
                        || x.iter()
                            .zip(y)
                            .enumerate()
                            .all(|(i, (p, q))| p == q || dead(k * CHUNK + i))
                }))
}

/// A simulated M16 node.
///
/// Cloning is a cheap fork: SRAM (4.25 KiB on a Mica2), registers and
/// device state are copied, while the image (code, FLID table), its
/// block decode and the flash window stay shared. Code that needs many
/// fresh machines of one image forks one reset machine instead of
/// calling [`Machine::new`] again, so every run of that image shares one
/// decode and one flash window.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) img: Arc<Image>,
    /// The writable window `0..sram_end`, null page included so an
    /// address indexes it directly. Every fork owns a copy.
    pub(crate) sram: Box<[u8]>,
    /// The flash window from `FLASH_BASE` (`.rodata`, read-only to
    /// programs) up to its last placed byte; the rest of the window reads
    /// as zero. Built by [`Machine::new`], shared by every fork, and
    /// copied by each [`Machine::ram_poke`] that writes it.
    pub(crate) flash: Arc<[u8]>,
    pub(crate) cur_func: u32,
    pub(crate) pc: u32,
    pub(crate) fp: u16,
    pub(crate) sp: u16,
    pub(crate) eval: Vec<i64>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) irq_enabled: bool,
    pub(crate) pending: u8,
    pub(crate) events: BinaryHeap<Reverse<(u64, Event)>>,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Cycles spent awake (executing, not sleeping) — the duty-cycle
    /// numerator.
    pub awake_cycles: u64,
    /// Current run state.
    pub state: RunState,
    /// The fault that stopped the machine, if any.
    pub fault: Option<Fault>,
    /// Devices.
    pub devices: Devices,
    /// Bytes written to the UART.
    pub uart_out: Vec<u8>,
    /// Timestamped bytes transmitted by the radio (drained by the network
    /// layer or inspected by tests).
    pub radio_out: Vec<(u64, u8)>,
    /// Number of instructions executed (profiling aid).
    pub instr_count: u64,
    /// Deepest call-stack extent observed so far, in bytes below the top
    /// of SRAM (`sram_end - sp` at its maximum). Updated in `do_call`,
    /// which both engines share, so the watermark is engine-invariant by
    /// construction. Ground truth for the `stackbound` static analyzer.
    pub(crate) stack_peak: u16,
    pub(crate) torn_watch: Option<TornWatch>,
    /// Cached `img.profile.sram_base()` (memory-map hot path).
    pub(crate) sram_base: u16,
    /// Cached `img.profile.sram_end()` (memory-map hot path).
    pub(crate) sram_end: u16,
    /// Set by `store_mem` whenever a store lands in MMIO space: the
    /// block engine bails out of its fast loop so device events and
    /// interrupt windows are handled with per-instruction fidelity.
    pub(crate) mmio_sync: bool,
    /// Which execution engine `run` uses.
    engine: crate::engine::Engine,
    /// Predecoded basic blocks for `img`: one slot per [`Machine::new`],
    /// shared by every clone, filled by the first block-engine run of
    /// any of them.
    pub(crate) bbcache: Arc<OnceLock<BlockCache>>,
    /// SRAM read stamps while recording (see [`Machine::stamp_reads`]).
    pub(crate) reads: ReadLog,
    /// The block engine's work counters.
    pub(crate) work: EngineWork,
}

impl Machine {
    /// Creates a machine loaded with `image`, with reset state applied
    /// (`.data` copied, `.rodata` mapped, PC at `main`).
    ///
    /// # Panics
    ///
    /// Panics if the image has no entry point.
    pub fn new(image: &Image) -> Machine {
        let img = Arc::new(image.clone());
        let entry = img.entry.expect("image has no entry function");
        let sram_base = img.profile.sram_base();
        let sram_end = img.profile.sram_end();
        let frame = img.functions[entry as usize].frame_size;
        // Bytes placed outside SRAM and the flash window can never be
        // read, so placing drops them.
        let mut sram = vec![0u8; sram_end as usize].into_boxed_slice();
        let mut flash = Vec::new();
        for (addr, bytes) in img.rodata.iter().chain(&img.data_init) {
            for (i, &b) in bytes.iter().enumerate() {
                let a = addr.wrapping_add(i as u16);
                if let Some(cell) = sram.get_mut(a as usize) {
                    *cell = b;
                } else if (FLASH_BASE..MMIO_BASE).contains(&a) {
                    put_flash(&mut flash, a, b);
                }
            }
        }
        let mut m = Machine {
            img,
            sram,
            flash: flash.into(),
            cur_func: entry,
            pc: 0,
            fp: sram_end - frame,
            sp: sram_end - frame,
            eval: Vec::with_capacity(32),
            frames: Vec::with_capacity(16),
            irq_enabled: false,
            pending: 0,
            events: BinaryHeap::new(),
            cycles: 0,
            awake_cycles: 0,
            state: RunState::Running,
            fault: None,
            devices: Devices::default(),
            uart_out: Vec::new(),
            radio_out: Vec::new(),
            instr_count: 0,
            stack_peak: frame,
            torn_watch: None,
            sram_base,
            sram_end,
            mmio_sync: false,
            engine: crate::engine::Engine::from_env(),
            bbcache: Arc::default(),
            reads: ReadLog::default(),
            work: EngineWork::default(),
        };
        m.devices.adc.waveform = Waveform::default();
        m
    }

    /// The execution engine this machine runs under (defaults to
    /// [`crate::Engine::from_env`]: block translation unless
    /// `STOS_ENGINE` says otherwise).
    pub fn engine(&self) -> crate::engine::Engine {
        self.engine
    }

    /// Selects the execution engine explicitly, overriding the
    /// `STOS_ENGINE` default (the `sim_speed` harness measures both
    /// engines in one process this way).
    pub fn set_engine(&mut self, engine: crate::engine::Engine) {
        self.engine = engine;
    }

    /// What the block engine did on this machine so far (forks start
    /// from their parent's counts).
    pub fn engine_work(&self) -> EngineWork {
        self.work
    }

    /// The image this machine runs.
    pub fn image(&self) -> &Image {
        &self.img
    }

    /// Statistics of the block decode this machine and its clones share,
    /// once a block-engine run has filled it.
    pub fn block_stats(&self) -> Option<crate::bbcache::CacheStats> {
        self.bbcache.get().map(BlockCache::stats)
    }

    /// The SRAM window `0..sram_end`, indexed by address (the null page
    /// below `sram_base` reads as zeros unless poked) — everything a
    /// program can write (test/inspection helper: RAM snapshot
    /// comparisons between engines).
    pub fn ram_bytes(&self) -> &[u8] {
        &self.sram
    }

    /// Sets the ADC sensor waveform (workload context).
    pub fn set_waveform(&mut self, w: Waveform) {
        self.devices.adc.waveform = w;
    }

    /// Schedules radio bytes to arrive starting at cycle `at`, one byte
    /// every [`RADIO_BYTE_CYCLES`] (workload context / network layer).
    pub fn inject_rx_bytes(&mut self, at: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.events.push(Reverse((
                at + i as u64 * RADIO_BYTE_CYCLES,
                Event::RadioRxByte(*b),
            )));
        }
    }

    /// The duty cycle so far: awake cycles / total cycles, in percent.
    pub fn duty_cycle_percent(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.awake_cycles as f64 * 100.0 / self.cycles as f64
    }

    /// Human-readable message for the current fault, decoding safety traps
    /// through the image's FLID table.
    pub fn fault_message(&self) -> Option<String> {
        let fault = self.fault.as_ref()?;
        Some(match fault {
            Fault::SafetyTrap(flid) => match self.img.flid_table.get(flid) {
                Some(msg) => format!("safety check failed: {msg} (FLID {flid})"),
                None => format!("safety check failed (FLID {flid})"),
            },
            other => format!("{other:?}"),
        })
    }

    /// Reads one byte of memory without side effects: SRAM or the flash
    /// window; unmapped gaps and MMIO read as zero (test/inspection
    /// helper).
    pub fn ram_peek(&self, addr: u16) -> u8 {
        if addr >= FLASH_BASE {
            let i = (addr - FLASH_BASE) as usize;
            self.flash.get(i).copied().unwrap_or(0)
        } else {
            self.sram.get(addr as usize).copied().unwrap_or(0)
        }
    }

    /// Reads a little-endian 16-bit word without side effects (see
    /// [`Machine::ram_peek`]).
    pub fn ram_peek16(&self, addr: u16) -> u16 {
        self.peek_le(addr, Width::W16) as u16
    }

    /// Physically overwrites one byte of memory, bypassing the memory map
    /// and write protection — this is corruption (see [`crate::faults`]),
    /// not a store the program performed. A poke into the flash window
    /// first copies this machine's window, so its forks and parent keep
    /// theirs; a poke into an unmapped gap or MMIO is dropped, since no
    /// program could read it back.
    pub fn ram_poke(&mut self, addr: u16, value: u8) {
        if let Some(b) = self.sram.get_mut(addr as usize) {
            *b = value;
        } else if (FLASH_BASE..MMIO_BASE).contains(&addr) {
            let mut window = self.flash.to_vec();
            put_flash(&mut window, addr, value);
            self.flash = window.into();
        }
    }

    /// The little-endian `width` value at `addr`, read byte by byte
    /// through [`Machine::ram_peek`] (the caller checked the range is
    /// mapped).
    pub(crate) fn peek_le(&self, addr: u16, width: Width) -> u64 {
        (0..width.bytes() as u16).rev().fold(0, |v, i| {
            v << 8 | self.ram_peek(addr.wrapping_add(i)) as u64
        })
    }

    /// Physically overwrites a little-endian 16-bit word (see
    /// [`Machine::ram_poke`]).
    pub fn ram_poke16(&mut self, addr: u16, value: u16) {
        let [lo, hi] = value.to_le_bytes();
        self.ram_poke(addr, lo);
        self.ram_poke(addr.wrapping_add(1), hi);
    }

    /// Flips bits in the frame-pointer register — corrupted register
    /// state for fault-injection campaigns (see [`crate::faults`]).
    pub fn corrupt_fp(&mut self, mask: u16) {
        self.fp ^= mask;
    }

    /// The deepest call-stack extent observed so far, in bytes measured
    /// down from the top of SRAM (the entry frame counts). The dynamic
    /// ground truth that the `stackbound` static analyzer's certified
    /// bound must dominate; identical under both execution engines
    /// because the one `do_call` they share maintains it.
    pub fn stack_watermark(&self) -> u16 {
        self.stack_peak
    }

    /// The earliest cycle at which the machine's device-event queue has
    /// work, clamped to the current cycle count so wake times never move
    /// backwards. `None` when the queue is empty.
    pub fn next_event_at(&self) -> Option<u64> {
        self.events
            .peek()
            .map(|Reverse((t, _))| (*t).max(self.cycles))
    }

    /// The wake-time contract with event-driven schedulers (see
    /// [`crate::fleet`]): the earliest cycle at which this machine can
    /// execute another instruction (or fault), or `None` if it never
    /// will absent outside input such as a radio delivery.
    ///
    /// - `Running` → now (`cycles`): the machine is mid-execution.
    /// - `Sleeping` with a pending enabled interrupt → now (the next
    ///   `run` wakes immediately), and likewise with interrupts globally
    ///   disabled (the next `run` faults with a dead sleep).
    /// - `Sleeping` otherwise → the next queued device event (timer
    ///   compare, ADC completion, radio edge), or `None` when the queue
    ///   is empty.
    /// - `Halted` / `Faulted` → `None`.
    pub fn next_wake(&self) -> Option<u64> {
        match self.state {
            RunState::Running => Some(self.cycles),
            RunState::Sleeping => {
                // Deliverable pending interrupt, or interrupts globally
                // disabled (a dead sleep the next `run` must fault).
                if self.pending != 0 || !self.irq_enabled {
                    Some(self.cycles)
                } else {
                    self.next_event_at()
                }
            }
            RunState::Halted | RunState::Faulted => None,
        }
    }

    /// Arms a torn-16-bit-update watchpoint (see [`TornWatch`]). At most
    /// one watch is armed at a time; arming replaces any previous one.
    pub fn arm_torn_watch(&mut self, addr: u16, nth: u32, mask: u8, hi: bool) {
        self.torn_watch = Some(TornWatch {
            addr,
            nth,
            mask,
            hi,
            seen: 0,
            fired: false,
        });
    }

    /// The armed torn-update watchpoint, if any (inspection helper: a
    /// campaign uses `fired` to tell "hazard window never opened" from
    /// "tear applied but absorbed").
    pub fn torn_watch(&self) -> Option<&TornWatch> {
        self.torn_watch.as_ref()
    }

    /// The watchpoint that can still fire. A fired watch is inert — it
    /// never counts or corrupts again — so it behaves exactly like no
    /// watch.
    #[inline(always)]
    pub(crate) fn live_watch(&self) -> Option<&TornWatch> {
        self.torn_watch.as_ref().filter(|w| !w.fired)
    }

    /// Whether `self` and `other` are in the same whole-machine state: a
    /// deterministic simulator then runs both to the same future, every
    /// observable included — the engine-identity oracle.
    ///
    /// [`Machine::same_future_except`] with no dead bytes, plus equal
    /// write-only counters (instructions, awake cycles, stack watermark)
    /// and equal UART and radio output histories. The engine, block
    /// cache and read stamps are not state: both engines are
    /// byte-identical.
    pub fn same_state(&self, other: &Machine) -> bool {
        self.same_state_except(other, |_| false)
    }

    /// [`Machine::same_state`], except that an SRAM byte at an address
    /// for which `dead` holds may differ (see
    /// [`Machine::same_future_except`]).
    pub fn same_state_except(&self, other: &Machine, dead: impl Fn(usize) -> bool) -> bool {
        self.instr_count == other.instr_count
            && self.awake_cycles == other.awake_cycles
            && self.stack_peak == other.stack_peak
            && self.uart_out == other.uart_out
            && self.radio_out == other.radio_out
            && self.same_future_except(other, dead)
    }

    /// Whether `self` and `other` have the same future: from here a
    /// deterministic simulator runs both through the same instructions,
    /// device events and output bytes. Campaigns use this to stop an
    /// injected run once it has rejoined the golden run.
    ///
    /// Compares everything a program can read or that decides its next
    /// step: the image (by identity: forks share it), the cycle counter,
    /// registers (`pc`, function, `fp`, `sp`), evaluation stack and call
    /// frames, interrupt enable and pending bits, `mmio_sync`, the live
    /// torn watch (a fired watch counts as none), devices, the
    /// device-event heap, run state, fault, the flash window, and SRAM
    /// but for the bytes at addresses for which `dead` holds — until a
    /// program reads such a byte, it cannot steer execution. Campaigns
    /// pass the bytes the golden run never reads again.
    ///
    /// It leaves out what the machine only ever writes: the instruction,
    /// awake-cycle and stack-watermark counters and the UART and radio
    /// histories (the outputs' *future* bytes and timestamps coincide,
    /// since `cycles` and the devices are compared).
    ///
    /// The check is conservative, never optimistic: the heap is compared
    /// by its backing slice, so two heaps holding the same events in a
    /// different internal order count as different — a false "differs"
    /// only costs an early stop.
    pub fn same_future_except(&self, other: &Machine, dead: impl Fn(usize) -> bool) -> bool {
        Arc::ptr_eq(&self.img, &other.img)
            && self.cycles == other.cycles
            && self.state == other.state
            && self.cur_func == other.cur_func
            && self.pc == other.pc
            && self.fp == other.fp
            && self.sp == other.sp
            && self.irq_enabled == other.irq_enabled
            && self.pending == other.pending
            && self.mmio_sync == other.mmio_sync
            && self.fault == other.fault
            && self.live_watch() == other.live_watch()
            && self.eval == other.eval
            && self.frames == other.frames
            && self.devices == other.devices
            && self.events.as_slice() == other.events.as_slice()
            && (Arc::ptr_eq(&self.flash, &other.flash) || *self.flash == *other.flash)
            && same_bytes_except(&self.sram, &other.sram, dead)
    }

    /// Starts recording program reads of SRAM, or moves a recording
    /// machine to a new epoch: from now on every SRAM byte a program
    /// load reads — in either engine, fat pointers and `MemCpy`
    /// included — is stamped `epoch`, replacing its older stamp.
    /// Campaigns record the golden run, one epoch per checkpoint
    /// segment. Clones do not record.
    pub fn stamp_reads(&mut self, epoch: u16) {
        match &mut self.reads.0 {
            Some(s) => s.epoch = epoch,
            None => {
                self.reads.0 = Some(ReadStamps {
                    epoch,
                    last: vec![0; self.sram.len()].into_boxed_slice(),
                })
            }
        }
    }

    /// Stops recording and returns, per SRAM address (the index), the
    /// epoch of its last read while recording — 0 when it was never
    /// read. `None` when the machine was not recording.
    pub fn take_read_stamps(&mut self) -> Option<Box<[u16]>> {
        self.reads.0.take().map(|s| s.last)
    }

    /// The faithful per-instruction interpreter loop.
    pub(crate) fn run_interp(&mut self, until: u64) {
        while self.cycles < until {
            match self.state {
                RunState::Running => {
                    self.deliver_due_events();
                    if self.maybe_dispatch_irq() {
                        continue;
                    }
                    self.step();
                }
                RunState::Sleeping => self.sleep_pump(until),
                RunState::Halted | RunState::Faulted => break,
            }
        }
    }

    /// One iteration of the sleep state: wake on a pending enabled
    /// interrupt, fault on a dead sleep, otherwise fast-forward `cycles`
    /// (not counted awake) to the next event strictly before `until` —
    /// or to `until` itself when none is due. Shared verbatim by both
    /// engines so sleep accounting cannot diverge.
    pub(crate) fn sleep_pump(&mut self, until: u64) {
        debug_assert_eq!(self.state, RunState::Sleeping);
        if self.pending != 0 && self.irq_enabled {
            self.state = RunState::Running;
            return;
        }
        if !self.irq_enabled {
            self.fail(Fault::DeadSleep);
            return;
        }
        match self.events.peek() {
            Some(Reverse((t, _))) if *t < until => {
                let t = *t;
                if t > self.cycles {
                    self.cycles = t; // asleep: not counted awake
                }
                self.deliver_due_events();
            }
            _ => {
                self.cycles = until;
            }
        }
    }

    /// Executes exactly one instruction if running (test helper, and the
    /// faithful single-step both engines bottom out in).
    pub fn step(&mut self) {
        debug_assert_eq!(self.state, RunState::Running);
        let func = &self.img.functions[self.cur_func as usize];
        let Some(&instr) = func.code.get(self.pc as usize) else {
            let msg = format!(
                "pc {} past end of function #{} ({})",
                self.pc, self.cur_func, func.name
            );
            self.fail(Fault::BadCode(msg));
            return;
        };
        let cost = instr.cycles();
        self.cycles += cost;
        self.awake_cycles += cost;
        self.instr_count += 1;
        self.pc += 1;
        self.exec(&instr);
    }

    pub(crate) fn fail(&mut self, fault: Fault) {
        self.fault = Some(fault);
        self.state = RunState::Faulted;
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> i64 {
        match self.eval.pop() {
            Some(v) => v,
            None => {
                self.fail(Fault::BadCode("evaluation stack underflow".into()));
                0
            }
        }
    }

    pub(crate) fn exec(&mut self, instr: &Instr) {
        match *instr {
            Instr::PushI(v) => self.eval.push(v),
            Instr::LdLocal { off, width, signed } => {
                let addr = self.fp.wrapping_add(off);
                if let Some(v) = self.load_mem(addr, width, signed) {
                    self.eval.push(v);
                }
            }
            Instr::StLocal { off, width } => {
                let v = self.pop();
                let addr = self.fp.wrapping_add(off);
                self.store_mem(addr, v, width);
            }
            Instr::AddrLocal { off } => self.eval.push(self.fp.wrapping_add(off) as i64),
            Instr::LdGlobal {
                addr,
                width,
                signed,
            } => {
                if let Some(v) = self.load_mem(addr, width, signed) {
                    self.eval.push(v);
                }
            }
            Instr::StGlobal { addr, width } => {
                let v = self.pop();
                self.store_mem(addr, v, width);
            }
            Instr::Ld { width, signed } => {
                let addr = self.pop() as u16;
                if let Some(v) = self.load_mem(addr, width, signed) {
                    self.eval.push(v);
                }
            }
            Instr::St { width } => {
                let addr = self.pop() as u16;
                let v = self.pop();
                self.store_mem(addr, v, width);
            }
            Instr::Bin { op, width, signed } => {
                let b = self.pop();
                let a = self.pop();
                match self.alu(op, a, b, width, signed) {
                    Some(v) => self.eval.push(v),
                    None => self.fail(Fault::DivZero),
                }
            }
            Instr::Un { op, width } => {
                let a = self.pop();
                let v = match op {
                    UnAluOp::Neg => width.wrap(a.wrapping_neg(), false),
                    UnAluOp::BitNot => width.wrap(!a, false),
                    UnAluOp::Not => (width.wrap(a, false) == 0) as i64,
                };
                self.eval.push(v);
            }
            Instr::Wrap { width, signed } => {
                let a = self.pop();
                self.eval.push(width.wrap(a, signed));
            }
            Instr::Jmp { target } => self.pc = target,
            Instr::Jz { target } => {
                if self.pop() == 0 {
                    self.pc = target;
                }
            }
            Instr::Jnz { target } => {
                if self.pop() != 0 {
                    self.pc = target;
                }
            }
            Instr::Call { func } => self.do_call(func, false),
            Instr::Ret | Instr::Reti => {
                let was_irq = matches!(instr, Instr::Reti);
                self.do_ret(was_irq);
            }
            Instr::Trap { flid } => self.fail(Fault::SafetyTrap(flid)),
            Instr::Halt => self.state = RunState::Halted,
            Instr::Sleep => self.state = RunState::Sleeping,
            Instr::IrqSave => {
                self.eval.push(self.irq_enabled as i64);
                self.irq_enabled = false;
            }
            Instr::IrqRestore => {
                let v = self.pop();
                self.irq_enabled = v != 0;
            }
            Instr::IrqEnable => self.irq_enabled = true,
            Instr::IrqDisable => self.irq_enabled = false,
            Instr::MemCpy { bytes } => {
                let dst = self.pop() as u16;
                let src = self.pop() as u16;
                for i in 0..bytes {
                    match self.load_mem(src.wrapping_add(i), Width::W8, false) {
                        Some(v) => self.store_mem(dst.wrapping_add(i), v, Width::W8),
                        None => return,
                    }
                    if self.state == RunState::Faulted {
                        return;
                    }
                }
            }
            Instr::Pop => {
                self.pop();
            }
            Instr::Dup => {
                let v = self.pop();
                self.eval.push(v);
                self.eval.push(v);
            }
            Instr::Nop => {}
            Instr::LdFat { seq } => {
                let addr = self.pop() as u16;
                self.fat_load(addr, seq);
            }
            Instr::StFat { seq } => {
                let addr = self.pop() as u16;
                let cell = self.pop();
                self.fat_store(addr, cell, seq);
            }
            Instr::LdLocalFat { off, seq } => {
                let addr = self.fp.wrapping_add(off);
                self.fat_load(addr, seq);
            }
            Instr::StLocalFat { off, seq } => {
                let addr = self.fp.wrapping_add(off);
                let cell = self.pop();
                self.fat_store(addr, cell, seq);
            }
            Instr::LdGlobalFat { addr, seq } => self.fat_load(addr, seq),
            Instr::StGlobalFat { addr, seq } => {
                let cell = self.pop();
                self.fat_store(addr, cell, seq);
            }
            Instr::MkFat { seq } => {
                let end = self.pop() as u16;
                let base = if seq { self.pop() as u16 } else { 0 };
                let val = self.pop() as u16;
                self.eval.push(crate::isa::fat_pack(val, base, end));
            }
            Instr::FatVal => {
                let (v, _, _) = crate::isa::fat_unpack(self.pop());
                self.eval.push(v as i64);
            }
            Instr::FatEnd => {
                let (_, _, e) = crate::isa::fat_unpack(self.pop());
                self.eval.push(e as i64);
            }
            Instr::FatBase => {
                let (_, b, _) = crate::isa::fat_unpack(self.pop());
                self.eval.push(b as i64);
            }
            Instr::FatAdd => {
                let delta = self.pop();
                let (v, b, e) = crate::isa::fat_unpack(self.pop());
                let nv = (v as i64).wrapping_add(delta) as u16;
                self.eval.push(crate::isa::fat_pack(nv, b, e));
            }
        }
    }

    /// Pops the current frame: `Ret`/`Reti` semantics, shared by both
    /// engines. Returning from an interrupt frame re-enables interrupts.
    pub(crate) fn do_ret(&mut self, was_irq: bool) {
        match self.frames.pop() {
            Some(fr) => {
                self.sp = self.sp.wrapping_add(fr.callee_frame_size);
                self.cur_func = fr.caller_func;
                self.pc = fr.caller_pc;
                self.fp = fr.caller_fp;
                if was_irq || fr.is_irq {
                    self.irq_enabled = true;
                }
            }
            None => self.state = RunState::Halted,
        }
    }

    /// Loads a fat pointer from memory onto the eval stack: layout is
    /// `val, end[, base]` as little-endian words.
    pub(crate) fn fat_load(&mut self, addr: u16, seq: bool) {
        let Some(val) = self.load_mem(addr, Width::W16, false) else {
            return;
        };
        let Some(end) = self.load_mem(addr.wrapping_add(2), Width::W16, false) else {
            return;
        };
        let base = if seq {
            match self.load_mem(addr.wrapping_add(4), Width::W16, false) {
                Some(b) => b,
                None => return,
            }
        } else {
            0
        };
        self.eval
            .push(crate::isa::fat_pack(val as u16, base as u16, end as u16));
    }

    pub(crate) fn fat_store(&mut self, addr: u16, cell: i64, seq: bool) {
        let (v, b, e) = crate::isa::fat_unpack(cell);
        self.store_mem(addr, v as i64, Width::W16);
        self.store_mem(addr.wrapping_add(2), e as i64, Width::W16);
        if seq {
            self.store_mem(addr.wrapping_add(4), b as i64, Width::W16);
        }
    }

    #[inline]
    pub(crate) fn alu(&self, op: AluOp, a: i64, b: i64, width: Width, signed: bool) -> Option<i64> {
        let wa = width.wrap(a, signed);
        let wb = width.wrap(b, signed);
        let ua = width.wrap(a, false) as u64;
        let ub = width.wrap(b, false) as u64;
        Some(match op {
            AluOp::Add => width.wrap(wa.wrapping_add(wb), signed),
            AluOp::Sub => width.wrap(wa.wrapping_sub(wb), signed),
            AluOp::Mul => width.wrap(wa.wrapping_mul(wb), signed),
            AluOp::Div => {
                if wb == 0 {
                    return None;
                }
                if signed {
                    width.wrap(wa.wrapping_div(wb), true)
                } else {
                    width.wrap((ua / ub) as i64, false)
                }
            }
            AluOp::Mod => {
                if wb == 0 {
                    return None;
                }
                if signed {
                    width.wrap(wa.wrapping_rem(wb), true)
                } else {
                    width.wrap((ua % ub) as i64, false)
                }
            }
            AluOp::And => width.wrap(wa & wb, signed),
            AluOp::Or => width.wrap(wa | wb, signed),
            AluOp::Xor => width.wrap(wa ^ wb, signed),
            AluOp::Shl => width.wrap(wa.wrapping_shl((ub & 31) as u32), signed),
            AluOp::Shr => {
                if signed {
                    width.wrap(wa.wrapping_shr((ub & 31) as u32), true)
                } else {
                    width.wrap((ua >> (ub & 31)) as i64, false)
                }
            }
            AluOp::Eq => (wa == wb) as i64,
            AluOp::Ne => (wa != wb) as i64,
            AluOp::Lt => {
                if signed {
                    (wa < wb) as i64
                } else {
                    (ua < ub) as i64
                }
            }
            AluOp::Le => {
                if signed {
                    (wa <= wb) as i64
                } else {
                    (ua <= ub) as i64
                }
            }
        })
    }

    pub(crate) fn do_call(&mut self, func: u32, is_irq: bool) {
        let Some(callee) = self.img.functions.get(func as usize) else {
            self.fail(Fault::BadCode(format!("bad function index {func}")));
            return;
        };
        let frame_size = callee.frame_size;
        let nparams = callee.params.len();
        let new_sp = self.sp.wrapping_sub(frame_size);
        if new_sp < self.img.static_top || new_sp > self.sp {
            self.fail(Fault::StackOverflow);
            return;
        }
        let depth = self.sram_end.wrapping_sub(new_sp);
        if depth > self.stack_peak {
            self.stack_peak = depth;
        }
        // Pop arguments (last argument on top) into the callee frame.
        // A fixed buffer keeps the common case allocation-free.
        let mut inline_args = [0i64; INLINE_ARGS];
        let mut heap_args;
        let args: &mut [i64] = if nparams <= INLINE_ARGS {
            &mut inline_args[..nparams]
        } else {
            heap_args = vec![0i64; nparams];
            &mut heap_args[..]
        };
        for a in args.iter_mut().rev() {
            *a = self.pop();
        }
        self.frames.push(Frame {
            caller_func: self.cur_func,
            caller_pc: self.pc,
            caller_fp: self.fp,
            callee_frame_size: frame_size,
            is_irq,
        });
        self.sp = new_sp;
        self.fp = new_sp;
        self.cur_func = func;
        self.pc = 0;
        for (i, &v) in args.iter().enumerate().take(nparams) {
            let slot = self.img.functions[func as usize].params[i];
            let addr = self.fp.wrapping_add(slot.off);
            match slot.kind {
                crate::image::SlotKind::Scalar(w) => self.store_mem(addr, v, w),
                crate::image::SlotKind::Fat { seq } => self.fat_store(addr, v, seq),
            }
        }
    }

    pub(crate) fn maybe_dispatch_irq(&mut self) -> bool {
        if !self.irq_enabled || self.pending == 0 || self.state != RunState::Running {
            return false;
        }
        for v in 0..crate::NUM_VECTORS {
            if self.pending & (1 << v) != 0 {
                self.pending &= !(1 << v);
                let Some(handler) = self.img.vectors[v] else {
                    // Unwired vector: drop the interrupt (documented).
                    continue;
                };
                self.irq_enabled = false;
                self.cycles += IRQ_ENTRY_CYCLES;
                self.awake_cycles += IRQ_ENTRY_CYCLES;
                self.do_call(handler, true);
                return true;
            }
        }
        false
    }

    // ----- memory -----

    pub(crate) fn load_mem(&mut self, addr: u16, width: Width, signed: bool) -> Option<i64> {
        if addr >= MMIO_BASE {
            let v = self.mmio_read(addr);
            return Some(width.wrap(v as i64, signed));
        }
        if !self.mapped(addr, width.bytes() as u16) {
            self.fail(Fault::MemFault(addr));
            return None;
        }
        if addr < FLASH_BASE {
            self.reads.note(addr, width.bytes());
        }
        let mut v = self.peek_le(addr, width);
        // Torn-read watchpoint: the symmetric hazard — an interrupt
        // between the two bus reads of a 16-bit load hands the reader a
        // half-updated value. Firing corrupts the in-flight value only;
        // memory is untouched (the corruption a racing writer would have
        // made visible is transient to this one read).
        if width == Width::W16 && self.irq_enabled {
            if let Some(w) = &mut self.torn_watch {
                if w.addr == addr && !w.fired {
                    w.seen += 1;
                    if w.seen == w.nth {
                        w.fired = true;
                        v ^= (w.mask as u64) << (8 * w.hi as usize);
                    }
                }
            }
        }
        Some(width.wrap(v as i64, signed))
    }

    pub(crate) fn store_mem(&mut self, addr: u16, v: i64, width: Width) {
        if addr >= MMIO_BASE {
            self.mmio_write(addr, width.wrap(v, false) as u16);
            // Device registers may schedule events or change interrupt
            // sources: tell the block engine to resynchronize.
            self.mmio_sync = true;
            return;
        }
        if addr >= FLASH_BASE {
            self.fail(Fault::IllegalWrite(addr));
            return;
        }
        if !self.mapped(addr, width.bytes() as u16) {
            self.fail(Fault::MemFault(addr));
            return;
        }
        let uv = width.wrap(v, false) as u64;
        for i in 0..width.bytes() as usize {
            self.sram[addr as usize + i] = (uv >> (8 * i)) as u8;
        }
        // Torn-update watchpoint: a 16-bit store with interrupts enabled
        // is exactly the two-bus-write hazard window the watch models.
        if width == Width::W16 && self.irq_enabled {
            if let Some(w) = &mut self.torn_watch {
                if w.addr == addr && !w.fired {
                    w.seen += 1;
                    if w.seen == w.nth {
                        w.fired = true;
                        let byte = addr.wrapping_add(w.hi as u16);
                        let mask = w.mask;
                        self.sram[byte as usize] ^= mask;
                    }
                }
            }
        }
    }

    /// Whether `[addr, addr+len)` is mapped readable memory: SRAM or the
    /// flash window. The null page and the gap above SRAM fault.
    fn mapped(&self, addr: u16, len: u16) -> bool {
        let base = self.sram_base;
        let end = self.sram_end;
        let last = addr.checked_add(len - 1);
        let Some(last) = last else { return false };
        (addr >= base && last < end) || (FLASH_BASE..MMIO_BASE).contains(&addr) && last < MMIO_BASE
    }

    // ----- devices -----

    fn mmio_read(&mut self, addr: u16) -> u16 {
        match addr {
            LED_REG => self.devices.leds.value as u16,
            TIMER0_CTRL => self.devices.timer0.enabled as u16,
            TIMER0_COMPARE => self.devices.timer0.compare,
            TIMER0_COUNT => ((self.cycles / TIMER_TICK_CYCLES) & 0xFFFF) as u16,
            TIMER1_CTRL => self.devices.timer1.enabled as u16,
            TIMER1_COMPARE => self.devices.timer1.compare,
            ADC_CTRL => self.devices.adc.busy as u16,
            ADC_DATA => self.devices.adc.data,
            RADIO_CTRL => self.devices.radio.rx_enabled as u16,
            RADIO_RX => self.devices.radio.rx_data as u16,
            RADIO_STATUS => self.devices.radio.tx_busy as u16,
            UART_DATA => 0,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, addr: u16, v: u16) {
        match addr {
            LED_REG => {
                let nv = (v & 0x07) as u8;
                if nv != self.devices.leds.value {
                    self.devices.leds.transitions += 1;
                }
                self.devices.leds.value = nv;
            }
            TIMER0_CTRL => {
                let enable = v & 1 != 0;
                if enable && !self.devices.timer0.enabled {
                    let period = (self.devices.timer0.compare.max(1) as u64) * TIMER_TICK_CYCLES;
                    self.events
                        .push(Reverse((self.cycles + period, Event::Timer0Fire)));
                }
                self.devices.timer0.enabled = enable;
            }
            TIMER0_COMPARE => self.devices.timer0.compare = v,
            TIMER1_CTRL => {
                let enable = v & 1 != 0;
                if enable && !self.devices.timer1.enabled {
                    let period = (self.devices.timer1.compare.max(1) as u64) * TIMER_TICK_CYCLES;
                    self.events
                        .push(Reverse((self.cycles + period, Event::Timer1Fire)));
                }
                self.devices.timer1.enabled = enable;
            }
            TIMER1_COMPARE => self.devices.timer1.compare = v,
            ADC_CTRL if v & 1 != 0 && !self.devices.adc.busy => {
                self.devices.adc.busy = true;
                self.events.push(Reverse((
                    self.cycles + ADC_CONVERSION_CYCLES,
                    Event::AdcDone,
                )));
            }
            RADIO_CTRL => self.devices.radio.rx_enabled = v & 1 != 0,
            RADIO_TX if !self.devices.radio.tx_busy => {
                self.devices.radio.tx_busy = true;
                self.radio_out.push((self.cycles, (v & 0xFF) as u8));
                self.events.push(Reverse((
                    self.cycles + RADIO_BYTE_CYCLES,
                    Event::RadioTxDone,
                )));
            }
            UART_DATA if !self.devices.uart.tx_busy => {
                self.devices.uart.tx_busy = true;
                self.uart_out.push((v & 0xFF) as u8);
                self.events
                    .push(Reverse((self.cycles + UART_BYTE_CYCLES, Event::UartTxDone)));
            }
            _ => {}
        }
    }

    pub(crate) fn deliver_due_events(&mut self) {
        while let Some(Reverse((t, _))) = self.events.peek() {
            if *t > self.cycles {
                break;
            }
            let Reverse((_, ev)) = self.events.pop().expect("peeked");
            match ev {
                Event::Timer0Fire => {
                    if self.devices.timer0.enabled {
                        self.pending |= 1 << crate::vectors::TIMER0;
                        let period =
                            (self.devices.timer0.compare.max(1) as u64) * TIMER_TICK_CYCLES;
                        self.events
                            .push(Reverse((self.cycles + period, Event::Timer0Fire)));
                    }
                }
                Event::Timer1Fire => {
                    if self.devices.timer1.enabled {
                        self.pending |= 1 << crate::vectors::TIMER1;
                        let period =
                            (self.devices.timer1.compare.max(1) as u64) * TIMER_TICK_CYCLES;
                        self.events
                            .push(Reverse((self.cycles + period, Event::Timer1Fire)));
                    }
                }
                Event::AdcDone => {
                    let n = self.devices.adc.samples;
                    self.devices.adc.data = self.devices.adc.waveform.sample(n);
                    self.devices.adc.samples = n + 1;
                    self.devices.adc.busy = false;
                    self.pending |= 1 << crate::vectors::ADC;
                }
                Event::RadioTxDone => {
                    self.devices.radio.tx_busy = false;
                    self.pending |= 1 << crate::vectors::RADIO_TX;
                }
                Event::RadioRxByte(b) => {
                    if self.devices.radio.rx_enabled {
                        self.devices.radio.rx_data = b;
                        self.devices.radio.rx_count += 1;
                        self.pending |= 1 << crate::vectors::RADIO_RX;
                    }
                }
                Event::UartTxDone => {
                    self.devices.uart.tx_busy = false;
                    self.pending |= 1 << crate::vectors::UART;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{CodeFunction, Profile};

    fn image_with(code: Vec<Instr>) -> Image {
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("main");
        f.code = code;
        f.frame_size = 16;
        let e = img.add_function(f);
        img.entry = Some(e);
        img
    }

    #[test]
    fn arithmetic_and_halt() {
        let img = image_with(vec![
            Instr::PushI(7),
            Instr::PushI(5),
            Instr::Bin {
                op: AluOp::Mul,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.run(1000);
        assert_eq!(m.state, RunState::Halted);
        assert_eq!(m.load_mem(0x0200, Width::W16, false), Some(35));
    }

    #[test]
    fn null_page_faults() {
        let img = image_with(vec![
            Instr::PushI(0),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
        ]);
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.state, RunState::Faulted);
        assert_eq!(m.fault, Some(Fault::MemFault(0)));
    }

    #[test]
    fn flash_window_is_read_only() {
        let mut img = image_with(vec![
            Instr::PushI(1),
            Instr::PushI(0x8000),
            Instr::St { width: Width::W8 },
        ]);
        img.rodata.push((0x8000, vec![42]));
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.fault, Some(Fault::IllegalWrite(0x8000)));
    }

    #[test]
    fn rodata_readable() {
        let mut img = image_with(vec![
            Instr::PushI(0x8000),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Halt,
        ]);
        img.rodata.push((0x8000, vec![42]));
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.load_mem(0x0200, Width::W8, false), Some(42));
    }

    #[test]
    fn trap_records_flid() {
        let mut img = image_with(vec![Instr::Trap { flid: 77 }]);
        img.flid_table.insert(77, "BlinkM.nc:12 null deref".into());
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.fault, Some(Fault::SafetyTrap(77)));
        assert!(m.fault_message().unwrap().contains("BlinkM.nc:12"));
    }

    #[test]
    fn call_passes_args_and_returns_value() {
        // add(a, b) { return a + b; } ; main stores add(3, 4) to 0x0200.
        let mut img = Image::new(Profile::mica2());
        let mut add = CodeFunction::new("add");
        add.frame_size = 4;
        add.params = vec![
            crate::image::ParamSlot::scalar(0, Width::W16),
            crate::image::ParamSlot::scalar(2, Width::W16),
        ];
        add.code = vec![
            Instr::LdLocal {
                off: 0,
                width: Width::W16,
                signed: false,
            },
            Instr::LdLocal {
                off: 2,
                width: Width::W16,
                signed: false,
            },
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Ret,
        ];
        let add_idx = img.add_function(add);
        let mut main = CodeFunction::new("main");
        main.frame_size = 0;
        main.code = vec![
            Instr::PushI(3),
            Instr::PushI(4),
            Instr::Call { func: add_idx },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ];
        let e = img.add_function(main);
        img.entry = Some(e);
        let mut m = Machine::new(&img);
        m.run(1000);
        assert_eq!(m.state, RunState::Halted);
        assert_eq!(m.load_mem(0x0200, Width::W16, false), Some(7));
    }

    #[test]
    fn timer_interrupt_fires_handler() {
        // Handler increments 0x0200; main enables timer + irq then sleeps forever.
        let mut img = Image::new(Profile::mica2());
        let mut h = CodeFunction::new("tick");
        h.interrupt = Some(crate::vectors::TIMER0);
        h.code = vec![
            Instr::LdGlobal {
                addr: 0x0200,
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
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Reti,
        ];
        img.add_function(h);
        let mut main = CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(10), // compare = 10 ticks = 320 cycles
            Instr::PushI(TIMER0_COMPARE as i64),
            Instr::St { width: Width::W16 },
            Instr::PushI(1),
            Instr::PushI(TIMER0_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 7 },
        ];
        let e = img.add_function(main);
        img.entry = Some(e);
        let mut m = Machine::new(&img);
        m.run(10_000);
        let count = m.load_mem(0x0200, Width::W8, false).unwrap();
        assert!(count >= 25, "expected ~31 timer fires, got {count}");
        // Mostly asleep: duty cycle well under 50%.
        assert!(m.duty_cycle_percent() < 50.0);
    }

    #[test]
    fn dead_sleep_faults() {
        let img = image_with(vec![Instr::Sleep]);
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.fault, Some(Fault::DeadSleep));
    }

    #[test]
    fn uart_collects_output() {
        let img = image_with(vec![
            Instr::PushI('h' as i64),
            Instr::PushI(UART_DATA as i64),
            Instr::St { width: Width::W8 },
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.run(1000);
        assert_eq!(m.uart_out, b"h");
    }

    #[test]
    fn adc_conversion_uses_waveform() {
        let img = image_with(vec![
            Instr::PushI(1),
            Instr::PushI(ADC_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::PushI(ADC_DATA as i64),
            Instr::Ld {
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.set_waveform(Waveform::Const(321));
        m.run(10_000);
        assert_eq!(m.state, RunState::Halted);
        assert_eq!(m.load_mem(0x0200, Width::W16, false), Some(321));
    }

    #[test]
    fn stack_overflow_detected() {
        // Recursive function with a big frame.
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("rec");
        f.frame_size = 512;
        f.code = vec![Instr::Call { func: 0 }, Instr::Ret];
        img.add_function(f);
        let mut main = CodeFunction::new("main");
        main.code = vec![Instr::Call { func: 0 }, Instr::Halt];
        let e = img.add_function(main);
        img.entry = Some(e);
        let mut m = Machine::new(&img);
        m.run(100_000);
        assert_eq!(m.fault, Some(Fault::StackOverflow));
    }

    #[test]
    fn stack_watermark_tracks_deepest_chain() {
        // main (16) calls leaf (40) twice: the watermark records the
        // deepest extent, not the current one, and survives the returns.
        let mut img = Image::new(Profile::mica2());
        let mut leaf = CodeFunction::new("leaf");
        leaf.frame_size = 40;
        leaf.code = vec![Instr::Ret];
        let leaf_idx = img.add_function(leaf);
        let mut main = CodeFunction::new("main");
        main.frame_size = 16;
        main.code = vec![
            Instr::Call { func: leaf_idx },
            Instr::Call { func: leaf_idx },
            Instr::Halt,
        ];
        let e = img.add_function(main);
        img.entry = Some(e);
        let mut m = Machine::new(&img);
        assert_eq!(m.stack_watermark(), 16, "entry frame counts");
        m.run(1000);
        assert_eq!(m.state, RunState::Halted);
        assert_eq!(m.stack_watermark(), 16 + 40);
    }

    #[test]
    fn radio_rx_injection_pends_interrupt() {
        let mut img = Image::new(Profile::mica2());
        let mut h = CodeFunction::new("rx");
        h.interrupt = Some(crate::vectors::RADIO_RX);
        h.code = vec![
            Instr::PushI(RADIO_RX as i64),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Reti,
        ];
        img.add_function(h);
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
        let mut m = Machine::new(&img);
        m.inject_rx_bytes(500, &[0xAB]);
        m.run(5_000);
        assert_eq!(m.load_mem(0x0200, Width::W8, false), Some(0xAB));
    }

    #[test]
    fn irq_save_restore_round_trip() {
        let img = image_with(vec![
            Instr::IrqEnable,
            Instr::IrqSave,
            Instr::IrqRestore,
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.run(100);
        assert!(m.irq_enabled);
    }

    #[test]
    fn torn_watch_tears_nth_store_but_not_irq_disabled_ones() {
        // Store 0x1234 to 0x0200 three times: once with IRQs disabled
        // (boot-style init — invisible to the watch), twice enabled.
        // A watch on the 2nd IRQ-enabled access tears the final store.
        let img = image_with(vec![
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::IrqEnable,
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.arm_torn_watch(0x0200, 2, 0x80, true);
        m.run(1000);
        assert_eq!(m.state, RunState::Halted);
        assert!(m.torn_watch().unwrap().fired);
        // High byte 0x12 ^ 0x80 = 0x92 → word 0x9234.
        assert_eq!(m.load_mem(0x0200, Width::W16, false), Some(0x9234));
    }

    #[test]
    fn torn_watch_tears_loads_transiently() {
        // Load a 16-bit word with IRQs enabled and store the result
        // elsewhere: the watch corrupts the in-flight value (what the
        // reader saw) while the watched word itself stays intact.
        let img = image_with(vec![
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::IrqEnable,
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0210,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut m = Machine::new(&img);
        m.arm_torn_watch(0x0200, 1, 0x01, false);
        m.run(1000);
        assert_eq!(m.state, RunState::Halted);
        assert!(m.torn_watch().unwrap().fired);
        // The reader observed 0x1234 ^ 0x0001 = 0x1235...
        assert_eq!(m.load_mem(0x0210, Width::W16, false), Some(0x1235));
        // ...but memory was never touched (this load runs after Halt, so
        // the already-fired watch stays quiet).
        assert_eq!(m.load_mem(0x0200, Width::W16, false), Some(0x1234));
    }

    /// A machine asleep with the timer armed: a pending heap event, RAM
    /// and registers worth comparing.
    fn sleeping_machine() -> Machine {
        let img = image_with(vec![
            Instr::PushI(10),
            Instr::PushI(TIMER0_COMPARE as i64),
            Instr::St { width: Width::W16 },
            Instr::PushI(1),
            Instr::PushI(TIMER0_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 7 },
        ]);
        let mut m = Machine::new(&img);
        m.run(100);
        assert_eq!(m.state, RunState::Sleeping);
        m
    }

    #[test]
    fn forks_share_the_image_and_start_in_the_same_state() {
        let m = sleeping_machine();
        let fork = m.clone();
        assert!(Arc::ptr_eq(&m.img, &fork.img));
        assert!(m.same_state(&fork));
        // A separately loaded machine is conservatively "different":
        // equality of images is decided by identity only.
        assert!(!Machine::new(&m.img).same_state(&Machine::new(&m.img)));
    }

    /// A machine whose program copies the flash byte at `0x8000` into
    /// `0x0200` and halts; its image places 42 there.
    fn flash_reader() -> Machine {
        let mut img = image_with(vec![
            Instr::PushI(0x8000),
            Instr::Ld {
                width: Width::W8,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Halt,
        ]);
        img.rodata.push((0x8000, vec![42]));
        Machine::new(&img)
    }

    #[test]
    fn a_machine_owns_its_sram_and_shares_its_flash() {
        let parent = flash_reader();
        assert_eq!(parent.ram_bytes().len(), parent.sram_end as usize);
        let mut fork = parent.clone();
        assert!(Arc::ptr_eq(&parent.flash, &fork.flash));
        fork.ram_poke(0x0300, 9);
        fork.run(100);
        assert_eq!((fork.ram_peek(0x0200), fork.ram_peek(0x0300)), (42, 9));
        assert_eq!((parent.ram_peek(0x0200), parent.ram_peek(0x0300)), (0, 0));
        assert!(
            Arc::ptr_eq(&parent.flash, &fork.flash),
            "runs never copy flash"
        );
    }

    #[test]
    fn a_flash_poke_is_seen_only_by_the_machine_that_made_it() {
        let parent = flash_reader();
        let mut poked = parent.clone();
        poked.ram_poke(0x8000, 7);
        assert!(!Arc::ptr_eq(&parent.flash, &poked.flash));
        assert!(!poked.same_state(&parent));
        let (mut a, mut b) = (parent.clone(), poked.clone());
        a.run(100);
        b.run(100);
        assert_eq!((parent.ram_peek(0x8000), a.ram_peek(0x0200)), (42, 42));
        assert_eq!((poked.ram_peek(0x8000), b.ram_peek(0x0200)), (7, 7));
        // A poke past the placed bytes grows only the poker's window.
        poked.ram_poke(0x9000, 5);
        assert_eq!((poked.ram_peek(0x9000), parent.ram_peek(0x9000)), (5, 0));
    }

    #[test]
    fn pokes_nothing_could_read_are_dropped() {
        let parent = flash_reader();
        let mut m = parent.clone();
        for addr in [parent.sram_end, 0x7FFF, MMIO_BASE, LED_REG, 0xFFFF] {
            m.ram_poke(addr, 0xAA);
            assert_eq!(m.ram_peek(addr), 0, "{addr:#06x}");
        }
        assert!(m.same_state(&parent));
    }

    #[test]
    fn same_state_except_excuses_only_the_dead_bytes() {
        let base = sleeping_machine();
        let mut m = base.clone();
        m.ram_poke(0x0200, 1);
        m.ram_poke(0x0A41, 2);
        let dead = |addrs: &'static [usize]| move |a: usize| addrs.contains(&a);
        assert!(m.same_state_except(&base, dead(&[0x0200, 0x0A41])));
        assert!(!m.same_state_except(&base, dead(&[0x0200])));
        assert!(!m.same_state_except(&base, dead(&[0x0A41])));
        // Only SRAM is excusable: a register difference still counts.
        m.corrupt_fp(1);
        assert!(!m.same_state_except(&base, |_| true));
    }

    #[test]
    fn recording_stamps_reads_and_never_forks() {
        // A timer handler increments the byte at 0x0200 on every tick:
        // the only SRAM the program ever reads.
        let mut img = Image::new(Profile::mica2());
        let mut h = CodeFunction::new("tick");
        h.interrupt = Some(crate::vectors::TIMER0);
        h.code = vec![
            Instr::LdGlobal {
                addr: 0x0200,
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
                addr: 0x0200,
                width: Width::W8,
            },
            Instr::Reti,
        ];
        img.add_function(h);
        let mut main = CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(10),
            Instr::PushI(TIMER0_COMPARE as i64),
            Instr::St { width: Width::W16 },
            Instr::PushI(1),
            Instr::PushI(TIMER0_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 7 },
        ];
        img.entry = Some(img.add_function(main));
        let mut m = Machine::new(&img);
        m.stamp_reads(3);
        let fork = m.clone();
        assert!(!fork.reads.on(), "a clone does not record");
        assert!(m.same_state(&fork), "recording is not state");
        for engine in [crate::engine::Engine::Interp, crate::engine::Engine::Bt] {
            let mut m = m.clone();
            m.set_engine(engine);
            m.stamp_reads(3);
            m.run(1_000);
            m.stamp_reads(4);
            m.run(5_000);
            let stamps = m.take_read_stamps().expect("recording");
            assert!(m.take_read_stamps().is_none(), "taking stops recording");
            let read: Vec<(usize, u16)> = (0..stamps.len())
                .filter(|&a| stamps[a] != 0)
                .map(|a| (a, stamps[a]))
                .collect();
            assert_eq!(read, [(0x0200, 4)], "{engine:?}");
        }
    }

    #[test]
    fn clones_share_one_decode_and_new_machines_get_their_own() {
        let img = image_with(vec![Instr::PushI(1), Instr::Halt]);
        let reset = Machine::new(&img);
        // Both forks are taken before any run.
        let (mut a, mut b) = (reset.clone(), reset.clone());
        for m in [&mut a, &mut b] {
            m.set_engine(crate::engine::Engine::Bt);
            m.run(100);
        }
        assert!(Arc::ptr_eq(&a.bbcache, &b.bbcache));
        assert!(Arc::ptr_eq(&a.bbcache, &reset.bbcache));
        assert!(reset.block_stats().is_some(), "the first run filled it");
        let mut other = Machine::new(&img);
        assert!(!Arc::ptr_eq(&other.bbcache, &a.bbcache));
        assert!(other.block_stats().is_none());
        other.set_engine(crate::engine::Engine::Bt);
        other.run(100);
        assert!(!std::ptr::eq(
            other.bbcache.get().unwrap(),
            a.bbcache.get().unwrap()
        ));
    }

    #[test]
    fn same_state_rejects_each_single_difference() {
        let base = sleeping_machine();
        // A difference in state the program can read breaks both
        // predicates, both ways.
        let differs = |change: &dyn Fn(&mut Machine)| {
            let mut m = base.clone();
            change(&mut m);
            !m.same_state(&base)
                && !base.same_state(&m)
                && !m.same_future_except(&base, |_| false)
                && !base.same_future_except(&m, |_| false)
        };
        assert!(differs(&|m| m.ram_poke(0x0200, 1)), "one RAM byte");
        assert!(differs(&|m| m.cycles += 1), "the cycle counter");
        assert!(
            differs(&|m| m.inject_rx_bytes(5_000, &[0xAB])),
            "one heap event"
        );
        assert!(differs(&|m| m.eval.push(0)), "one eval-stack entry");
        assert!(
            differs(&|m| m.arm_torn_watch(0x0200, 1, 0x80, false)),
            "an armed watch"
        );
    }

    #[test]
    fn same_future_ignores_only_write_only_counters_and_outputs() {
        let base = sleeping_machine();
        let excused = |what: &str, change: fn(&mut Machine)| {
            let mut m = base.clone();
            change(&mut m);
            assert!(!m.same_state(&base) && !base.same_state(&m), "{what}");
            assert!(m.same_future_except(&base, |_| false), "{what}");
            assert!(base.same_future_except(&m, |_| false), "{what}");
        };
        excused("instructions", |m| m.instr_count += 1);
        excused("awake cycles", |m| m.awake_cycles += 1);
        excused("stack watermark", |m| m.stack_peak += 2);
        excused("uart output", |m| m.uart_out.push(b'x'));
        excused("radio output", |m| m.radio_out.push((1, 0xAB)));
        // The counters do not decide the future: one run of each to a
        // later cycle stays in step.
        let (mut a, mut b) = (base.clone(), base.clone());
        b.instr_count += 5;
        b.awake_cycles += 7;
        a.run(50_000);
        b.run(50_000);
        assert!(a.same_future_except(&b, |_| false));
        assert_eq!(b.instr_count - a.instr_count, 5);
    }

    #[test]
    fn fired_watch_compares_like_no_watch() {
        // A zero-mask tear fires without changing anything, after which
        // the watched machine is indistinguishable from an unwatched one.
        let img = image_with(vec![
            Instr::IrqEnable,
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let fresh = Machine::new(&img);
        let mut watched = fresh.clone();
        watched.arm_torn_watch(0x0200, 1, 0x00, false);
        let mut plain = fresh.clone();
        assert!(!watched.same_state(&plain), "armed, not yet fired");
        watched.run(100);
        plain.run(100);
        assert!(watched.torn_watch().unwrap().fired);
        assert!(watched.same_state(&plain));
    }
}
