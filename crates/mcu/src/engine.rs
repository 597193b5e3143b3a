//! Execution-engine selection and the block translation engine.
//!
//! The machine has two engines producing **byte-identical** observables
//! (`cycles`, `awake_cycles`, `instr_count`, RAM, UART/radio traces,
//! faults, torn-watch counters):
//!
//! * [`Engine::Interp`] — the faithful per-instruction interpreter
//!   (`deliver events → maybe dispatch IRQ → step`, one instruction at a
//!   time);
//! * [`Engine::Bt`] — the block translation engine: executes predecoded
//!   basic blocks (see [`crate::bbcache`]) in a chained fast loop, and
//!   re-enters the faithful path at every observable boundary.
//!
//! # Why the fast loop is safe
//!
//! The interpreter's per-instruction prologue (deliver due events, maybe
//! dispatch an interrupt) is provably a no-op for every instruction of a
//! block the engine enters, because entry requires:
//!
//! * `cycles + block.reach < min(until, next event time)`, where `reach`
//!   is the offset at which the block's last instruction starts — so
//!   every instruction of the block starts before any device event is
//!   due and before the `run` horizon, exactly as the interpreter would
//!   start them (events are only scheduled by MMIO writes, which abort
//!   the fast loop via `mmio_sync`, re-deriving the horizon);
//! * no pending enabled interrupt — and nothing inside a block can open
//!   an interrupt window: every instruction that can *enable* interrupts
//!   (`IrqEnable`, `IrqRestore`, `Ret`/`Reti`) terminates its block;
//! * evaluation-stack depth ≥ `block.stack_in` — so no mid-block
//!   underflow fault can occur.
//!
//! **Every op boundary is an entry point.** The decode gives each one
//! the facts of its block's suffix (cost, reach, entry depth, purity,
//! frame span), so a pc left inside a block — by a `run` cut, an MMIO
//! store's resync, or a `Reti` into the instruction an interrupt caught
//! — re-enters the fast path at once. The suffix is straight-line code
//! ending where its block ends, so the three conditions above say the
//! same for it as for the whole block. A block whose last instruction
//! would start at or past the horizon runs op by op in the checked
//! loop, up to the first op whose last instruction would. Only a pc
//! inside a fused op (or past the end of its function), a horizon that
//! falls inside an op, or a shallow stack falls back to the
//! interpreter's own [`Machine::step`], one instruction at a time;
//! [`Machine::engine_work`] counts those steps by reason, and the ops
//! dispatched. Torn-update watchpoints (armed via
//! [`Machine::arm_torn_watch`]) force every 16-bit and fat-pointer
//! access through the interpreter's counting `load_mem`/`store_mem`
//! path until they fire, so watch counters advance identically under
//! both engines; a fired watch is inert and the fast paths return.
//!
//! **Pure blocks chain.** After a pure block the pure loop goes straight
//! into the next one when it is pure, fits the horizon and the stack,
//! and its frame slots lie in the `fp` window already proven SRAM (or
//! one proven on the spot). It skips the pending-interrupt, torn-watch
//! and admission checks, because no pure block can change what they
//! test: nothing in one delivers an event or schedules one (no MMIO),
//! enables interrupts (it may only disable them), touches a watch (its
//! accesses are direct) or moves `fp` (calls and returns are impure).

//! # One executor, two loops
//!
//! An admitted block runs in one of two loops. The *pure* loop takes
//! blocks whose ops can neither fault nor reach a device, while no torn
//! watch is live, the block's frame window is proven SRAM and the whole
//! block fits the horizon: it
//! charges the whole block at once and dispatches with no per-op
//! bookkeeping. The *checked* loop charges op by op and flushes its
//! counters before every op that can fault, reach a device or leave the
//! block. Both hand every op that cannot fail to one executor,
//! `Machine::exec_pure`, so each op's semantics is written once; a
//! const parameter selects its instance — direct SRAM access for the
//! pure loop (its proven frame slots included), torn-watch-aware access
//! for the checked loop. The checked loop keeps only what the executor
//! hands back: the frame-slot and dynamic-address accesses (one body
//! per access kind, whatever its address source), the fused frame-slot
//! ops (direct when their bytes are SRAM and no watch is live, else
//! their constituents single-step), `Slow`, `Call` and `Term`.
//!
//! [`Machine::step`] (with its `exec` and `alu`) stays a separate copy
//! on purpose: it is the reference the interp≡bt identity checks, and
//! this module's per-op property, compare the block engine against.
//! Deriving it from the same executor would make the identity hold by
//! construction and blind those oracles.

use std::cmp::Reverse;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::bbcache::{BlockCache, LCmpBr, LRmw, OpKind};
use crate::devices::MMIO_BASE;
use crate::isa::{fat_bytes, fat_pack, fat_unpack, AluOp, UnAluOp, Width};
use crate::machine::{Fault, Machine, RunState, FLASH_BASE};

/// Which execution engine [`Machine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The faithful per-instruction interpreter (`STOS_ENGINE=interp`):
    /// the reference the engine-identity checks rerun against.
    Interp,
    /// The basic-block translation engine (the default).
    Bt,
}

/// Process-global engine override: `u8::MAX` = unset (use the
/// environment), otherwise an [`Engine`] discriminant. Lets in-process
/// cross-engine tests and harnesses flip the default engine without
/// re-execing, which `STOS_ENGINE`'s once-per-process read cannot.
static OVERRIDE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(u8::MAX);

impl Engine {
    /// The engine selected by [`Engine::set_global_override`] if one is
    /// set, else by the `STOS_ENGINE` environment variable, read once
    /// per process. Unset selects [`Engine::Bt`].
    ///
    /// # Panics
    ///
    /// Panics, naming the value, when `STOS_ENGINE` is set to anything
    /// but `interp` or `bt` (`STOS_ENGINE=interpreter is not an engine`).
    pub fn from_env() -> Engine {
        match OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
            0 => return Engine::Interp,
            1 => return Engine::Bt,
            _ => {}
        }
        static ENGINE: OnceLock<Engine> = OnceLock::new();
        *ENGINE.get_or_init(|| {
            let knob = std::env::var_os("STOS_ENGINE");
            Engine::from_knob(knob.as_ref().map(|v| v.to_string_lossy()).as_deref())
        })
    }

    /// The engine a `STOS_ENGINE` value selects: unset is [`Engine::Bt`],
    /// otherwise exactly `interp` or `bt`; anything else panics.
    fn from_knob(value: Option<&str>) -> Engine {
        let Some(v) = value else {
            return Engine::Bt;
        };
        [Engine::Interp, Engine::Bt]
            .into_iter()
            .find(|e| e.name() == v)
            .unwrap_or_else(|| panic!("STOS_ENGINE={v} is not an engine"))
    }

    /// Sets (or, with `None`, clears) the process-global engine
    /// override consulted by [`Engine::from_env`]. Intended for tests
    /// that compare whole campaign runs across engines in one process.
    pub fn set_global_override(engine: Option<Engine>) {
        let v = match engine {
            None => u8::MAX,
            Some(Engine::Interp) => 0,
            Some(Engine::Bt) => 1,
        };
        OVERRIDE.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// The knob spelling of this engine (`"interp"` / `"bt"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Bt => "bt",
        }
    }
}

/// The block engine's work counters: the ops it dispatched, and the
/// faithful single steps it fell back to, by the reason no block could
/// be entered. They count what one engine does, not machine state, so
/// [`Machine::same_state`] leaves them out; the interpreter counts
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Ops dispatched; the pure loop counts a block's ops at once.
    pub dispatches: u64,
    /// Single steps at a pc that is no op boundary: inside a fused op,
    /// or past the end of its function.
    pub no_entry: u64,
    /// Single steps where the block would reach the next device event or
    /// the `run` horizon.
    pub horizon: u64,
    /// Single steps where the evaluation stack was shallower than the
    /// block needs.
    pub stack: u64,
    /// Single steps with an enabled interrupt pending.
    pub irq: u64,
}

impl EngineWork {
    /// All single-step fallbacks.
    pub fn single_steps(&self) -> u64 {
        self.no_entry + self.horizon + self.stack + self.irq
    }

    fn count(&mut self, miss: Miss) {
        *match miss {
            Miss::NoEntry => &mut self.no_entry,
            Miss::Horizon => &mut self.horizon,
            Miss::Stack => &mut self.stack,
            Miss::Irq => &mut self.irq,
        } += 1;
    }
}

/// Why [`Machine::run_blocks`] could not enter a block (see
/// [`EngineWork`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    NoEntry,
    Horizon,
    Stack,
    Irq,
}

/// Where control goes after [`Machine::exec_pure`] saw an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// The op ran; on to the next one (or the fallthrough leader).
    Next,
    /// A terminator ran and branched to this pc.
    Branch(u32),
    /// The op can fault, reach a device or leave the block: the checked
    /// loop runs it.
    Fallible,
}

impl Flow {
    #[inline(always)]
    fn branch_if(taken: bool, target: u32) -> Flow {
        if taken {
            Flow::Branch(target)
        } else {
            Flow::Next
        }
    }
}

/// ALU for translated/fused ops. Decode routes `Div`/`Mod` (the only
/// faulting ALU ops) to the slow path, so this mirrors [`Machine::alu`]
/// with the fault plumbing compiled out — and, unlike the full-width
/// `alu`, is forced inline into the dispatch loop (LLVM refuses the
/// `#[inline]` hint there, costing a call per fused op).
#[inline(always)]
fn alu_nodiv(op: AluOp, a: i64, b: i64, width: Width, signed: bool) -> i64 {
    let wa = width.wrap(a, signed);
    let wb = width.wrap(b, signed);
    let ua = width.wrap(a, false) as u64;
    let ub = width.wrap(b, false) as u64;
    match op {
        AluOp::Add => width.wrap(wa.wrapping_add(wb), signed),
        AluOp::Sub => width.wrap(wa.wrapping_sub(wb), signed),
        AluOp::Mul => width.wrap(wa.wrapping_mul(wb), signed),
        // Unreachable: decode never translates Div/Mod into fast ops.
        AluOp::Div | AluOp::Mod => 0,
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
    }
}

impl Machine {
    /// Runs until `until` total cycles have elapsed (or the machine halts
    /// or faults). Returns the final state.
    ///
    /// Dispatches to the engine selected by [`Machine::set_engine`] /
    /// `STOS_ENGINE`; both engines produce byte-identical observables
    /// (cycles, instruction counts, RAM, device traces, faults).
    ///
    /// Runs compose: `run(a); run(b)` leaves the machine in the same
    /// state as `run(b)` for any `a <= b` ([`Machine::same_state`]) —
    /// the property campaign checkpoints rely on — and a run under one
    /// engine leaves the same state as under the other.
    pub fn run(&mut self, until: u64) -> RunState {
        match self.engine() {
            Engine::Interp => self.run_interp(until),
            // Only a recording machine (see `Machine::stamp_reads`)
            // runs the stamping instance of the block loop.
            Engine::Bt if self.reads.on() => self.run_bt::<true>(until),
            Engine::Bt => self.run_bt::<false>(until),
        };
        // A resync request never outlives the run: every fast-loop entry
        // derives its horizon afresh, and a flag left set by an MMIO
        // store would make the state depend on the engine and on where
        // runs were cut (see `Machine::same_state`).
        self.mmio_sync = false;
        self.state
    }

    /// The block-translation run loop: identical outer structure to the
    /// interpreter loop, with a chained block executor where the
    /// interpreter single-steps. `R` stamps the SRAM bytes the fast
    /// paths read (see [`Machine::stamp_reads`]); the interpreter's
    /// `load_mem` stamps on its own.
    fn run_bt<const R: bool>(&mut self, until: u64) {
        let slot = Arc::clone(&self.bbcache);
        let cache = slot.get_or_init(|| BlockCache::build(&self.img));
        while self.cycles < until {
            match self.state {
                RunState::Running => {
                    self.deliver_due_events();
                    if self.maybe_dispatch_irq() {
                        continue;
                    }
                    if let Some(miss) = self.run_blocks::<R>(cache, until) {
                        // No block was provably safe: take one faithful
                        // step.
                        self.work.count(miss);
                        self.step();
                    }
                }
                RunState::Sleeping => self.sleep_pump(until),
                RunState::Halted | RunState::Faulted => break,
            }
        }
    }

    /// Executes blocks back-to-back while each next block provably
    /// contains no observable boundary. Returns why no block could be
    /// entered, or `None` when at least one ran.
    ///
    /// The counters (`cycles`, `awake_cycles`, `instr_count`, `pc`,
    /// `cur_func`) accumulate in locals that survive *across* chained
    /// blocks — branch terminators never touch the machine — and flush
    /// only around ops that can observe them or exit the fast path
    /// (fault, MMIO, call/return, interpreter fallback). Every flush
    /// happens *before* the op body runs, so fault sites and device
    /// accesses always see exact interpreter-identical counters.
    fn run_blocks<const R: bool>(&mut self, cache: &BlockCache, until: u64) -> Option<Miss> {
        let mut horizon = self.next_horizon(until);
        let mut progressed = false;
        let mut cycles = self.cycles;
        let mut awake = self.awake_cycles;
        let mut instrs = self.instr_count;
        let mut pc = self.pc;
        let mut cur_func = self.cur_func;
        let mut dispatches = 0u64;
        // Locals -> machine (before any op that can fault, reach a
        // device, or leave the fast path).
        macro_rules! sync_out {
            () => {
                self.cycles = cycles;
                self.awake_cycles = awake;
                self.instr_count = instrs;
                self.pc = pc;
            };
        }
        // Machine -> locals (after an op that legitimately moved
        // control: call, return, interpreter-executed terminator).
        macro_rules! sync_in {
            () => {
                cycles = self.cycles;
                awake = self.awake_cycles;
                instrs = self.instr_count;
                pc = self.pc;
                cur_func = self.cur_func;
            };
        }
        // After a faithful op: leave the fast path if it faulted,
        // halted or slept the machine.
        macro_rules! exit_if_stopped {
            () => {
                if self.state != RunState::Running {
                    self.work.dispatches += dispatches;
                    return None;
                }
            };
        }
        // After a faithful op that may have stored to MMIO: the device
        // may have scheduled an event, so re-derive the horizon and
        // re-admit from the current pc (labels are hygienic, so the
        // caller names the chain loop).
        macro_rules! resync_after_mmio {
            ($chain:lifetime) => {
                if self.mmio_sync {
                    self.mmio_sync = false;
                    horizon = self.next_horizon(until);
                    continue $chain;
                }
            };
        }
        let miss = 'chain: loop {
            // An enabled pending interrupt must be dispatched by the
            // faithful outer loop before the next instruction.
            if self.pending != 0 && self.irq_enabled {
                break Miss::Irq;
            }
            let Some(mut block) = cache.lookup(cur_func, pc) else {
                break Miss::NoEntry;
            };
            // A block whose last instruction would start at or past the
            // horizon runs op by op in the checked loop, up to the first
            // op that would.
            let whole = cycles + block.reach < horizon;
            if !whole && cycles + block.ops[0].reach as u64 >= horizon {
                break Miss::Horizon;
            }
            if (self.eval.len() as u32) < block.stack_in {
                break Miss::Stack;
            }
            progressed = true;
            // Pure blocks (statically infallible, device-free, no torn
            // watchpoint left to fire, frame window proven writable) take the
            // lean path: whole-block counter accounting and a dispatch
            // loop with no per-op flush/exit machinery — nothing inside
            // can fault, reach a device, or observe the counters.
            if whole
                && block.pure
                && self.live_watch().is_none()
                && (block.local_span == 0 || self.dyn_writable(self.fp, block.local_span))
            {
                let mut span = block.local_span;
                loop {
                    cycles += block.cost;
                    awake += block.cost;
                    instrs += block.n_instrs as u64;
                    dispatches += block.ops.len() as u64;
                    let mut next = pc + block.n_instrs;
                    for op in block.ops.iter() {
                        match self.exec_pure::<R, false>(&op.kind) {
                            Flow::Next => {}
                            Flow::Branch(target) => next = target,
                            Flow::Fallible => unreachable!("impure op in a pure block"),
                        }
                    }
                    // Chain straight into the next pure block: no pure
                    // block can raise an interrupt, enable one, touch the
                    // torn watch, schedule an event or move `fp`, so only
                    // the horizon, the stack depth and the frame window
                    // need re-checking. A self-loop (the dominant tight
                    // loop) skips even the lookup.
                    if next != pc {
                        pc = next;
                        match cache.lookup(cur_func, pc) {
                            Some(b)
                                if b.pure
                                    && (b.local_span <= span
                                        || self.dyn_writable(self.fp, b.local_span)) =>
                            {
                                span = span.max(b.local_span);
                                block = b;
                            }
                            _ => continue 'chain,
                        }
                    }
                    if cycles + block.reach >= horizon || (self.eval.len() as u32) < block.stack_in
                    {
                        continue 'chain;
                    }
                }
            }
            for op in block.ops.iter() {
                if cycles + op.reach as u64 >= horizon {
                    break 'chain Miss::Horizon;
                }
                cycles += op.cost as u64;
                awake += op.cost as u64;
                instrs += op.n as u64;
                pc += op.n as u32;
                dispatches += 1;
                let flow = self.exec_pure::<R, true>(&op.kind);
                if let Flow::Branch(target) = flow {
                    pc = target;
                }
                if flow != Flow::Fallible {
                    continue;
                }
                // Memory ops compute their address (`fp + off`, or
                // popped), then take the direct path when the access is
                // plain SRAM (or flash, for a scalar load) and no torn
                // watch can count it; otherwise flush and go faithful.
                match op.kind {
                    OpKind::LdL { width, signed, .. } | OpKind::LdDyn { width, signed } => {
                        let addr = match op.kind {
                            OpKind::LdL { off, .. } => self.fp.wrapping_add(off),
                            _ => self.bpop() as u16,
                        };
                        if let Some(v) = self.dyn_load::<R>(addr, width, signed) {
                            self.eval.push(v);
                        } else {
                            sync_out!();
                            if let Some(v) = self.load_mem(addr, width, signed) {
                                self.eval.push(v);
                            }
                            exit_if_stopped!();
                        }
                    }
                    OpKind::StL { width, .. } | OpKind::StDyn { width } => {
                        let (addr, v) = match op.kind {
                            OpKind::StL { off, .. } => (self.fp.wrapping_add(off), self.bpop()),
                            _ => (self.bpop() as u16, self.bpop()),
                        };
                        if self.dyn_writable(addr, width.bytes()) && !self.torn_guard(width) {
                            self.sram_write(addr, v, width);
                        } else {
                            sync_out!();
                            self.store_mem(addr, v, width);
                            exit_if_stopped!();
                            resync_after_mmio!('chain);
                        }
                    }
                    OpKind::LdLF { seq, .. } | OpKind::LdFDyn { seq } => {
                        let addr = match op.kind {
                            OpKind::LdLF { off, .. } => self.fp.wrapping_add(off),
                            _ => self.bpop() as u16,
                        };
                        if self.fat_direct(addr, seq) {
                            self.fat_read_direct::<R>(addr, seq);
                        } else {
                            sync_out!();
                            self.fat_load(addr, seq);
                            exit_if_stopped!();
                        }
                    }
                    OpKind::StLF { seq, .. } | OpKind::StFDyn { seq } => {
                        let (addr, cell) = match op.kind {
                            OpKind::StLF { off, .. } => (self.fp.wrapping_add(off), self.bpop()),
                            _ => (self.bpop() as u16, self.bpop()),
                        };
                        if self.fat_direct(addr, seq) {
                            self.fat_write_direct(addr, cell, seq);
                        } else {
                            sync_out!();
                            self.fat_store(addr, cell, seq);
                            exit_if_stopped!();
                            resync_after_mmio!('chain);
                        }
                    }
                    // A fused frame-slot op runs directly when its bytes
                    // are SRAM and no watch is live; otherwise its charge
                    // is taken back and its constituents single-step, so
                    // a fault or a counted access lands exactly where the
                    // interpreter's does.
                    OpKind::RmwLK(rmw) if self.local_direct(rmw.span()) => {
                        self.rmw_local::<R>(&rmw)
                    }
                    OpKind::CmpLKBr(cmp) if self.local_direct(cmp.span()) => {
                        if let Flow::Branch(target) = self.cmp_local_br::<R>(&cmp) {
                            pc = target;
                        }
                    }
                    OpKind::RmwLK(_) | OpKind::CmpLKBr(_) => {
                        cycles -= op.cost as u64;
                        awake -= op.cost as u64;
                        instrs -= op.n as u64;
                        pc -= op.n as u32;
                        sync_out!();
                        for _ in 0..op.n {
                            self.step();
                            exit_if_stopped!();
                        }
                        sync_in!();
                        resync_after_mmio!('chain);
                    }
                    // `exec` charges nothing, so re-reading the counters
                    // after a `Slow` op is a no-op; a `Term` is the last
                    // op, so the chain continues at its new pc.
                    OpKind::Slow(ins) | OpKind::Term(ins) => {
                        sync_out!();
                        self.exec(&ins);
                        exit_if_stopped!();
                        sync_in!();
                        resync_after_mmio!('chain);
                    }
                    OpKind::Call(func) => {
                        sync_out!();
                        self.do_call(func, false);
                        exit_if_stopped!();
                        sync_in!();
                    }
                    _ => unreachable!("the executor runs every infallible op"),
                }
            }
            // The terminator's target, or the fallthrough into the next
            // block: `pc` already advanced.
        };
        sync_out!();
        self.work.dispatches += dispatches;
        (!progressed).then_some(miss)
    }

    /// The one executor of the infallible ops both loops of
    /// [`Machine::run_blocks`] share: everything but the frame-slot and
    /// dynamic-address accesses, `Slow`, `Call` and `Term`, which it
    /// hands back to the checked loop as [`Flow::Fallible`]. A taken
    /// terminator returns its target.
    ///
    /// `C` selects the checked loop's instance: its static accesses go
    /// through the torn-watch-aware [`Machine::g_load`] family, so an
    /// armed watch counts them as the interpreter's `load_mem` does. The
    /// pure loop's instance (`!C`) runs only while no watch is live and
    /// reads and writes SRAM directly. It also runs the pure loop's
    /// frame slots, which `Block::local_span` proved SRAM, so that loop
    /// dispatches every op with one `match`: a second `match` in front
    /// of the executor cost the global-memory compute kernels
    /// (`bench::kernels`) about 14% more wall time.
    #[inline(always)]
    fn exec_pure<const R: bool, const C: bool>(&mut self, kind: &OpKind) -> Flow {
        match *kind {
            OpKind::PushI(v) => self.eval.push(v),
            OpKind::LdG {
                addr,
                width,
                signed,
            } => {
                let v = self.g_load::<R, C>(addr, width, signed);
                self.eval.push(v);
            }
            OpKind::StG { addr, width } => {
                let v = self.bpop();
                self.g_store::<C>(addr, v, width);
            }
            OpKind::AddrL { off } => self.eval.push(self.fp.wrapping_add(off) as i64),
            OpKind::Bin { op, width, signed } => {
                let b = self.bpop();
                let a = self.bpop();
                self.eval.push(alu_nodiv(op, a, b, width, signed));
            }
            OpKind::Un { op, width } => {
                let a = self.bpop();
                let v = match op {
                    UnAluOp::Neg => width.wrap(a.wrapping_neg(), false),
                    UnAluOp::BitNot => width.wrap(!a, false),
                    UnAluOp::Not => (width.wrap(a, false) == 0) as i64,
                };
                self.eval.push(v);
            }
            OpKind::Wrap { width, signed } => {
                let a = self.bpop();
                self.eval.push(width.wrap(a, signed));
            }
            OpKind::Pop => {
                self.bpop();
            }
            OpKind::Dup => {
                let v = self.bpop();
                self.eval.push(v);
                self.eval.push(v);
            }
            OpKind::Nop => {}
            OpKind::IrqSave => {
                self.eval.push(self.irq_enabled as i64);
                self.irq_enabled = false;
            }
            OpKind::IrqDisable => self.irq_enabled = false,
            OpKind::MkFat { seq } => {
                let end = self.bpop() as u16;
                let base = if seq { self.bpop() as u16 } else { 0 };
                let val = self.bpop() as u16;
                self.eval.push(fat_pack(val, base, end));
            }
            OpKind::FatVal => {
                let (v, _, _) = fat_unpack(self.bpop());
                self.eval.push(v as i64);
            }
            OpKind::FatEnd => {
                let (_, _, e) = fat_unpack(self.bpop());
                self.eval.push(e as i64);
            }
            OpKind::FatBase => {
                let (_, b, _) = fat_unpack(self.bpop());
                self.eval.push(b as i64);
            }
            OpKind::FatAdd => {
                let delta = self.bpop();
                let (v, b, e) = fat_unpack(self.bpop());
                let nv = (v as i64).wrapping_add(delta) as u16;
                self.eval.push(fat_pack(nv, b, e));
            }
            OpKind::LdGF { addr, seq } => {
                if C && self.live_watch().is_some() {
                    self.fat_load(addr, seq);
                } else {
                    self.fat_read_direct::<R>(addr, seq);
                }
            }
            OpKind::StGF { addr, seq } => {
                let cell = self.bpop();
                if C && self.live_watch().is_some() {
                    self.fat_store(addr, cell, seq);
                } else {
                    self.fat_write_direct(addr, cell, seq);
                }
            }
            OpKind::StGK { addr, width, k } => self.g_store::<C>(addr, k, width),
            OpKind::BinK {
                op,
                width,
                signed,
                k,
            } => {
                let a = self.bpop();
                self.eval.push(alu_nodiv(op, a, k, width, signed));
            }
            OpKind::RmwGK {
                ld_addr,
                ld_width,
                ld_signed,
                k,
                op,
                width,
                signed,
                st_addr,
                st_width,
            } => {
                let a = self.g_load::<R, C>(ld_addr, ld_width, ld_signed);
                let v = alu_nodiv(op, a, k, width, signed);
                self.g_store::<C>(st_addr, v, st_width);
            }
            OpKind::CpGG {
                ld_addr,
                ld_width,
                ld_signed,
                st_addr,
                st_width,
            } => {
                let v = self.g_load::<R, C>(ld_addr, ld_width, ld_signed);
                self.g_store::<C>(st_addr, v, st_width);
            }
            // -- terminators (always the last op of the block) --
            OpKind::Jmp(target) => return Flow::Branch(target),
            OpKind::Jz(target) => return Flow::branch_if(self.bpop() == 0, target),
            OpKind::Jnz(target) => return Flow::branch_if(self.bpop() != 0, target),
            OpKind::CmpGKBr {
                addr,
                ld_width,
                ld_signed,
                k,
                op,
                width,
                signed,
                br_if_zero,
                target,
            } => {
                let a = self.g_load::<R, C>(addr, ld_width, ld_signed);
                let v = alu_nodiv(op, a, k, width, signed);
                return Flow::branch_if((v == 0) == br_if_zero, target);
            }
            OpKind::CmpTopKBr {
                k,
                op,
                width,
                signed,
                br_if_zero,
                target,
            } => {
                // `Dup; PushI; Bin; Jz/Jnz` keeps the original top of
                // stack (the copy got consumed); entry depth >= stack_in
                // guarantees it exists.
                let a = *self.eval.last().expect("stack_in covers CmpTopKBr");
                let v = alu_nodiv(op, a, k, width, signed);
                return Flow::branch_if((v == 0) == br_if_zero, target);
            }
            OpKind::CmpKBr {
                k,
                op,
                width,
                signed,
                br_if_zero,
                target,
            } => {
                let a = self.bpop();
                let v = alu_nodiv(op, a, k, width, signed);
                return Flow::branch_if((v == 0) == br_if_zero, target);
            }
            OpKind::RmwGKBr { rmw, cmp, reload } => {
                // A live watch may count (and tear) the store and must
                // count the reload, so it forces the reload.
                let watched = C && self.live_watch().is_some();
                let a = self.g_load::<R, C>(rmw.ld_addr, rmw.ld_width, rmw.ld_signed);
                let v = alu_nodiv(rmw.op, a, rmw.k, rmw.width, rmw.signed);
                self.g_store::<C>(rmw.st_addr, v, rmw.st_width);
                // When the compare reloads exactly the bytes the store
                // just wrote, the reload is a pure re-materialisation of
                // `v` — direct reads are uncounted, so eliding it is
                // unobservable. A recording run still stamps those
                // bytes, as the interpreter's reload does.
                let b = if reload || watched {
                    self.g_load::<R, C>(cmp.addr, cmp.ld_width, cmp.ld_signed)
                } else {
                    if R {
                        self.reads.note(cmp.addr, cmp.ld_width.bytes());
                    }
                    cmp.ld_width.wrap(v, cmp.ld_signed)
                };
                let f = alu_nodiv(cmp.op, b, cmp.k, cmp.width, cmp.signed);
                return Flow::branch_if((f == 0) == cmp.br_if_zero, cmp.target);
            }
            OpKind::LdL { off, width, signed } if !C => {
                let v = self.sram_read::<R>(self.fp.wrapping_add(off), width, signed);
                self.eval.push(v);
            }
            OpKind::StL { off, width } if !C => {
                let v = self.bpop();
                self.sram_write(self.fp.wrapping_add(off), v, width);
            }
            OpKind::LdLF { off, seq } if !C => {
                self.fat_read_direct::<R>(self.fp.wrapping_add(off), seq)
            }
            OpKind::StLF { off, seq } if !C => {
                let cell = self.bpop();
                self.fat_write_direct(self.fp.wrapping_add(off), cell, seq);
            }
            OpKind::RmwLK(rmw) if !C => self.rmw_local::<R>(&rmw),
            OpKind::CmpLKBr(cmp) if !C => return self.cmp_local_br::<R>(&cmp),
            OpKind::LdL { .. }
            | OpKind::StL { .. }
            | OpKind::RmwLK(_)
            | OpKind::CmpLKBr(_)
            | OpKind::LdLF { .. }
            | OpKind::StLF { .. }
            | OpKind::LdDyn { .. }
            | OpKind::StDyn { .. }
            | OpKind::LdFDyn { .. }
            | OpKind::StFDyn { .. }
            | OpKind::Slow(_)
            | OpKind::Call(_)
            | OpKind::Term(_) => return Flow::Fallible,
        }
        Flow::Next
    }

    /// Whether a fused frame-slot op spanning `[fp, fp+span)` may run
    /// directly: the bytes are SRAM and no torn watch is live.
    #[inline(always)]
    fn local_direct(&self, span: u32) -> bool {
        self.live_watch().is_none() && self.dyn_writable(self.fp, span)
    }

    /// [`OpKind::RmwLK`] on frame bytes proven SRAM with no live watch.
    #[inline(always)]
    fn rmw_local<const R: bool>(&mut self, rmw: &LRmw) {
        let a = self.sram_read::<R>(
            self.fp.wrapping_add(rmw.ld_off),
            rmw.ld_width,
            rmw.ld_signed,
        );
        let mut v = alu_nodiv(rmw.op, a, rmw.k, rmw.width, rmw.signed);
        if let Some((width, signed)) = rmw.wrap {
            v = width.wrap(v, signed);
        }
        self.sram_write(self.fp.wrapping_add(rmw.st_off), v, rmw.st_width);
    }

    /// [`OpKind::CmpLKBr`] on a frame slot proven SRAM with no live
    /// watch.
    #[inline(always)]
    fn cmp_local_br<const R: bool>(&mut self, cmp: &LCmpBr) -> Flow {
        let a = self.sram_read::<R>(self.fp.wrapping_add(cmp.off), cmp.ld_width, cmp.ld_signed);
        let v = alu_nodiv(cmp.op, a, cmp.k, cmp.width, cmp.signed);
        Flow::branch_if((v == 0) == cmp.br_if_zero, cmp.target)
    }

    /// `min(until, next scheduled event time)`: the fast loop must stop
    /// strictly before this so event delivery stays per-instruction
    /// faithful.
    fn next_horizon(&self, until: u64) -> u64 {
        match self.events.peek() {
            Some(Reverse((t, _))) => (*t).min(until),
            None => until,
        }
    }

    /// Pop inside the block dispatch loop. Semantically identical to
    /// [`Machine::pop`], but the underflow arm is split out cold so
    /// LLVM actually inlines the hot path (block admission via
    /// `stack_in` proves it can never underflow mid-block; the fault
    /// arm stays for defense in depth).
    #[inline(always)]
    fn bpop(&mut self) -> i64 {
        match self.eval.pop() {
            Some(v) => v,
            None => self.bpop_underflow(),
        }
    }

    #[cold]
    #[inline(never)]
    fn bpop_underflow(&mut self) -> i64 {
        self.fail(Fault::BadCode("evaluation stack underflow".into()));
        0
    }

    /// Whether a `width` access must detour through the counting
    /// `load_mem`/`store_mem` path because a torn watchpoint is armed
    /// and has not fired (the watch counts every IRQ-enabled 16-bit
    /// access).
    #[inline(always)]
    fn torn_guard(&self, width: Width) -> bool {
        width == Width::W16 && self.live_watch().is_some()
    }

    /// Whether `[addr, addr+len)` is writable SRAM.
    #[inline(always)]
    fn dyn_writable(&self, addr: u16, len: u32) -> bool {
        addr >= self.sram_base && addr as u32 + len <= self.sram_end as u32
    }

    /// A dynamic-address load the fast paths serve: SRAM, or the flash
    /// window, and no torn watch to count it. `None` sends the caller
    /// down the faithful `load_mem` path (MMIO, faults, watches).
    #[inline(always)]
    fn dyn_load<const R: bool>(&mut self, addr: u16, width: Width, signed: bool) -> Option<i64> {
        let len = width.bytes();
        if self.torn_guard(width) {
            None
        } else if self.dyn_writable(addr, len) {
            Some(self.sram_read::<R>(addr, width, signed))
        } else if addr >= FLASH_BASE && addr as u32 + len <= MMIO_BASE as u32 {
            Some(width.wrap(self.peek_le(addr, width) as i64, signed))
        } else {
            None
        }
    }

    /// The `N` SRAM bytes at `addr`, a range the caller proved SRAM.
    #[inline(always)]
    fn sram_get<const N: usize>(&self, addr: u16) -> [u8; N] {
        let a = addr as usize;
        debug_assert!(a + N <= self.sram.len(), "{a:#06x}+{N} outside SRAM");
        // SAFETY: see `sram_put`.
        let bytes = unsafe { self.sram.get_unchecked(a..a + N) };
        bytes.try_into().expect("an N-byte range")
    }

    /// Writes `bytes` to SRAM at `addr`, a range the caller proved SRAM.
    ///
    /// The fast paths access SRAM unchecked: a bounds check against the
    /// window's run-time length costs the block engine about 15% on its
    /// memory-bound kernels.
    #[inline(always)]
    fn sram_put<const N: usize>(&mut self, addr: u16, bytes: [u8; N]) {
        let a = addr as usize;
        debug_assert!(a + N <= self.sram.len(), "{a:#06x}+{N} outside SRAM");
        // SAFETY: every caller proved `[addr, addr + N)` inside
        // `sram_base..sram_end` — at decode, against the profile of the
        // image this machine was built from (`bbcache::static_sram`;
        // the decode belongs to that image), or at run time with
        // `dyn_writable` — and `sram` holds exactly `sram_end` bytes
        // for the machine's whole life (`Machine::new`).
        unsafe { self.sram.get_unchecked_mut(a..a + N) }.copy_from_slice(&bytes);
    }

    /// Raw little-endian SRAM read (caller proved the range SRAM and
    /// torn-free). Under `R` it stamps the bytes read.
    #[inline(always)]
    fn sram_read<const R: bool>(&mut self, addr: u16, width: Width, signed: bool) -> i64 {
        if R {
            self.reads.note(addr, width.bytes());
        }
        let v = match width {
            Width::W8 => self.sram_get::<1>(addr)[0] as u64,
            Width::W16 => u16::from_le_bytes(self.sram_get(addr)) as u64,
            Width::W32 => u32::from_le_bytes(self.sram_get(addr)) as u64,
        };
        width.wrap(v as i64, signed)
    }

    /// Raw little-endian SRAM write (caller proved the range SRAM and
    /// torn-free).
    #[inline(always)]
    fn sram_write(&mut self, addr: u16, v: i64, width: Width) {
        let uv = width.wrap(v, false) as u64;
        match width {
            Width::W8 => self.sram_put(addr, [uv as u8]),
            Width::W16 => self.sram_put(addr, (uv as u16).to_le_bytes()),
            Width::W32 => self.sram_put(addr, (uv as u32).to_le_bytes()),
        }
    }

    /// Static SRAM global load. The checked instance (`C`) detours a
    /// 16-bit access through the counting `load_mem` while a torn watch
    /// is live; the pure instance runs only when none is.
    #[inline(always)]
    fn g_load<const R: bool, const C: bool>(
        &mut self,
        addr: u16,
        width: Width,
        signed: bool,
    ) -> i64 {
        if C && self.torn_guard(width) {
            // Statically mapped: never None.
            self.load_mem(addr, width, signed).unwrap_or(0)
        } else {
            self.sram_read::<R>(addr, width, signed)
        }
    }

    /// Static SRAM global store (see [`Machine::g_load`]).
    #[inline(always)]
    fn g_store<const C: bool>(&mut self, addr: u16, v: i64, width: Width) {
        if C && self.torn_guard(width) {
            self.store_mem(addr, v, width);
        } else {
            self.sram_write(addr, v, width);
        }
    }

    /// Whether a fat access at `addr` may take the direct path: its
    /// cells are SRAM and no torn watch is live to count them.
    #[inline(always)]
    fn fat_direct(&self, addr: u16, seq: bool) -> bool {
        self.live_watch().is_none() && self.dyn_writable(addr, fat_bytes(seq) as u32)
    }

    /// Direct fat-pointer read (range proved SRAM, no torn watch):
    /// mirrors `fat_load` without per-word map checks.
    #[inline(always)]
    fn fat_read_direct<const R: bool>(&mut self, addr: u16, seq: bool) {
        let val = self.sram_read::<R>(addr, Width::W16, false) as u16;
        let end = self.sram_read::<R>(addr.wrapping_add(2), Width::W16, false) as u16;
        let base = if seq {
            self.sram_read::<R>(addr.wrapping_add(4), Width::W16, false) as u16
        } else {
            0
        };
        self.eval.push(fat_pack(val, base, end));
    }

    /// Direct fat-pointer write (see [`Machine::fat_read_direct`]).
    #[inline(always)]
    fn fat_write_direct(&mut self, addr: u16, cell: i64, seq: bool) {
        let (v, b, e) = fat_unpack(cell);
        self.sram_write(addr, v as i64, Width::W16);
        self.sram_write(addr.wrapping_add(2), e as i64, Width::W16);
        if seq {
            self.sram_write(addr.wrapping_add(4), b as i64, Width::W16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{TIMER0_COMPARE, TIMER0_CTRL, UART_DATA};
    use crate::image::{CodeFunction, Image, Profile};
    use crate::isa::{AluOp, Instr};

    fn image_with(code: Vec<Instr>) -> Image {
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("main");
        f.code = code;
        f.frame_size = 16;
        let e = img.add_function(f);
        img.entry = Some(e);
        img
    }

    /// Every observable the repo's harnesses read.
    #[allow(clippy::type_complexity)]
    fn observe(
        m: &Machine,
    ) -> (
        u64,
        u64,
        u64,
        RunState,
        Option<String>,
        Vec<u8>,
        Vec<(u64, u8)>,
        u64,
        Vec<u8>,
    ) {
        (
            m.cycles,
            m.awake_cycles,
            m.instr_count,
            m.state,
            m.fault_message(),
            m.uart_out.clone(),
            m.radio_out.clone(),
            m.devices.leds.transitions,
            m.ram_bytes().to_vec(),
        )
    }

    fn assert_identical(img: &Image, until: u64) {
        let mut a = Machine::new(img);
        a.set_engine(Engine::Interp);
        a.run(until);
        let mut b = Machine::new(img);
        b.set_engine(Engine::Bt);
        b.run(until);
        assert_eq!(observe(&a), observe(&b));
    }

    #[test]
    fn engines_agree_on_timer_interrupt_program() {
        // The machine.rs timer test program: ISR increments a counter,
        // main sleeps in a loop — exercises IRQ dispatch, sleep
        // fast-forward, MMIO stores, fused RMW in the handler.
        let mut img = Image::new(Profile::mica2());
        let mut h = CodeFunction::new("tick");
        h.interrupt = Some(crate::vectors::TIMER0);
        h.code = vec![
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Reti,
        ];
        img.add_function(h);
        let mut main = CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(3),
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
        assert_identical(&img, 50_000);
    }

    #[test]
    fn engines_agree_on_uart_busy_loop() {
        // Tight compute loop interleaved with MMIO stores (mid-block
        // resync path) and a division (Slow op).
        let img = image_with(vec![
            Instr::PushI(0), // i = 0 on stack
            // loop:
            Instr::Dup,
            Instr::PushI(48),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W8,
                signed: false,
            },
            Instr::PushI(UART_DATA as i64),
            Instr::St { width: Width::W8 },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(7),
            Instr::Bin {
                op: AluOp::Div,
                width: Width::W16,
                signed: false,
            },
            Instr::Pop,
            Instr::Dup,
            Instr::PushI(200),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 1 },
            Instr::Halt,
        ]);
        assert_identical(&img, 1_000_000);
    }

    #[test]
    fn engines_agree_on_faulting_program() {
        // Wild store -> MemFault; cycles at the fault must match.
        let img = image_with(vec![
            Instr::PushI(5),
            Instr::PushI(0x0040), // null page
            Instr::St { width: Width::W8 },
            Instr::Halt,
        ]);
        assert_identical(&img, 1_000);
    }

    #[test]
    fn engines_agree_on_torn_watch_counts() {
        let code = vec![
            Instr::IrqEnable,
            Instr::PushI(0),
            // loop: StGlobal W16 to 0x0200, increment, compare, loop
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(10),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 2 },
            Instr::Halt,
        ];
        let img = image_with(code);
        let mut a = Machine::new(&img);
        a.set_engine(Engine::Interp);
        a.arm_torn_watch(0x0200, 4, 0x80, true);
        a.run(10_000);
        let mut b = Machine::new(&img);
        b.set_engine(Engine::Bt);
        b.arm_torn_watch(0x0200, 4, 0x80, true);
        b.run(10_000);
        assert_eq!(observe(&a), observe(&b));
        assert_eq!(a.torn_watch(), b.torn_watch());
        assert!(a.torn_watch().unwrap().fired);
    }

    #[test]
    fn engines_agree_under_run_until_boundaries() {
        // Chopping the run into tiny slices must not change anything:
        // the block engine falls back to single-stepping at every
        // horizon crossing.
        let img = image_with(vec![
            Instr::PushI(0),
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(500),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 1 },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut a = Machine::new(&img);
        a.set_engine(Engine::Interp);
        let mut b = Machine::new(&img);
        b.set_engine(Engine::Bt);
        let mut t = 0;
        while t < 20_000 {
            t += 37;
            a.run(t);
            b.run(t);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.instr_count, b.instr_count);
        }
        assert_eq!(observe(&a), observe(&b));
    }

    /// Draws operands and machine states for the per-op property.
    struct Gen(crate::faults::SplitMix64);

    /// The words every drawn value, constant and SRAM state favours.
    const EDGES: [i64; 5] = [0, -1, 0x7fff, 0x8000, 0xffff];

    /// A branch target that is a block leader already: the function's
    /// entry, or past its end.
    const TARGETS: [u32; 2] = [0, 1000];

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n)
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }

        /// An edge value, a small signed number, or any word.
        fn word(&mut self) -> i64 {
            match self.below(3) {
                0 => self.pick(&EDGES),
                1 => self.below(256) as i64 - 128,
                _ => self.0.next_u64() as i64,
            }
        }

        fn width(&mut self) -> Width {
            self.pick(&[Width::W8, Width::W16, Width::W32])
        }

        /// An ALU op decode keeps in the block (never `Div`/`Mod`).
        fn alu(&mut self) -> AluOp {
            use AluOp::*;
            self.pick(&[Add, Sub, Mul, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le])
        }

        fn un(&mut self) -> UnAluOp {
            self.pick(&[UnAluOp::Neg, UnAluOp::BitNot, UnAluOp::Not])
        }

        /// A static SRAM address for `len` bytes: mostly a few low cells,
        /// so ops in one span (and the torn watch) collide, else the top.
        fn sram(&mut self, len: u32) -> u16 {
            let (base, end) = (Profile::mica2().sram_base(), Profile::mica2().sram_end());
            if self.below(4) == 0 {
                end - len as u16
            } else {
                base + self.below(8) as u16
            }
        }

        /// A dynamic address: SRAM, the flash window, MMIO, the null
        /// page, or an edge value (straddling and unmapped included).
        fn addr(&mut self, len: u32) -> u16 {
            match self.below(6) {
                0 | 1 => self.sram(len),
                2 => FLASH_BASE + self.below(12) as u16,
                3 => MMIO_BASE + self.below(0x48) as u16,
                4 => self.below(0x100) as u16,
                _ => self.pick(&EDGES) as u16,
            }
        }

        /// A frame offset within the test function's 16-byte frame.
        fn off(&mut self) -> u16 {
            self.below(10) as u16
        }

        /// `(branch-if-zero, Jz/Jnz)` with a leader target.
        fn branch(&mut self) -> (bool, Instr) {
            let target = self.pick(&TARGETS);
            if self.coin() {
                (true, Instr::Jz { target })
            } else {
                (false, Instr::Jnz { target })
            }
        }
    }

    /// Every block-engine op kind, numbered `0..KINDS`. The match is
    /// exhaustive, so a new variant does not compile until it gets the
    /// next number, `KINDS` counts it and [`template`] decodes to it.
    fn kind_index(kind: &OpKind) -> usize {
        match kind {
            OpKind::PushI(_) => 0,
            OpKind::LdG { .. } => 1,
            OpKind::StG { .. } => 2,
            OpKind::LdL { .. } => 3,
            OpKind::StL { .. } => 4,
            OpKind::AddrL { .. } => 5,
            OpKind::LdDyn { .. } => 6,
            OpKind::StDyn { .. } => 7,
            OpKind::Bin { .. } => 8,
            OpKind::Un { .. } => 9,
            OpKind::Wrap { .. } => 10,
            OpKind::Pop => 11,
            OpKind::Dup => 12,
            OpKind::Nop => 13,
            OpKind::IrqSave => 14,
            OpKind::IrqDisable => 15,
            OpKind::MkFat { .. } => 16,
            OpKind::FatVal => 17,
            OpKind::FatEnd => 18,
            OpKind::FatBase => 19,
            OpKind::FatAdd => 20,
            OpKind::LdGF { .. } => 21,
            OpKind::StGF { .. } => 22,
            OpKind::LdLF { .. } => 23,
            OpKind::StLF { .. } => 24,
            OpKind::LdFDyn { .. } => 25,
            OpKind::StFDyn { .. } => 26,
            OpKind::StGK { .. } => 27,
            OpKind::BinK { .. } => 28,
            OpKind::RmwGK { .. } => 29,
            OpKind::CpGG { .. } => 30,
            OpKind::Slow(_) => 31,
            OpKind::Jmp(_) => 32,
            OpKind::Jz(_) => 33,
            OpKind::Jnz(_) => 34,
            OpKind::CmpGKBr { .. } => 35,
            OpKind::CmpTopKBr { .. } => 36,
            OpKind::RmwGKBr { .. } => 37,
            OpKind::Call(_) => 38,
            OpKind::Term(_) => 39,
            OpKind::RmwLK(_) => 40,
            OpKind::CmpKBr { .. } => 41,
            OpKind::CmpLKBr(_) => 42,
        }
    }

    const KINDS: usize = 43;

    /// An instruction span that decodes to op kind `i` (see
    /// [`kind_index`]), with random operands, and the address the op
    /// touches, if any (where the torn watch goes).
    fn template(i: usize, g: &mut Gen, fp: u16) -> (Vec<Instr>, Option<u16>) {
        use Instr::*;
        let w = g.width();
        let s = g.coin();
        let seq = g.coin();
        let fat = fat_bytes(seq) as u32;
        let a = g.sram(4);
        let off = g.off();
        let local = Some(fp.wrapping_add(off));
        let ld = |addr| LdGlobal {
            addr,
            width: w,
            signed: s,
        };
        let bin = |g: &mut Gen| Bin {
            op: g.alu(),
            width: g.width(),
            signed: g.coin(),
        };
        match i {
            0 => (vec![PushI(g.word())], None),
            1 => (vec![ld(a)], Some(a)),
            2 => (vec![StGlobal { addr: a, width: w }], Some(a)),
            3 => (
                vec![LdLocal {
                    off,
                    width: w,
                    signed: s,
                }],
                local,
            ),
            4 => (vec![StLocal { off, width: w }], local),
            5 => (vec![AddrLocal { off }], None),
            6 | 7 | 25 | 26 => {
                let d = g.addr(if i > 7 { fat } else { w.bytes() });
                let access = match i {
                    6 => Ld {
                        width: w,
                        signed: s,
                    },
                    7 => St { width: w },
                    25 => LdFat { seq },
                    _ => StFat { seq },
                };
                (vec![PushI(d as i64), access], Some(d))
            }
            8 => (vec![bin(g)], None),
            9 => (
                vec![Un {
                    op: g.un(),
                    width: w,
                }],
                None,
            ),
            10 => (
                vec![Wrap {
                    width: w,
                    signed: s,
                }],
                None,
            ),
            11 => (vec![Pop], None),
            12 => (vec![Dup], None),
            13 => (vec![Nop], None),
            14 => (vec![IrqSave], None),
            15 => (vec![IrqDisable], None),
            16 => (vec![MkFat { seq }], None),
            17 => (vec![FatVal], None),
            18 => (vec![FatEnd], None),
            19 => (vec![FatBase], None),
            20 => (vec![FatAdd], None),
            21 | 22 => {
                let f = g.sram(fat);
                let op = if i == 21 {
                    LdGlobalFat { addr: f, seq }
                } else {
                    StGlobalFat { addr: f, seq }
                };
                (vec![op], Some(f))
            }
            23 => (vec![LdLocalFat { off, seq }], local),
            24 => (vec![StLocalFat { off, seq }], local),
            27 => (
                vec![PushI(g.word()), StGlobal { addr: a, width: w }],
                Some(a),
            ),
            28 => (vec![PushI(g.word()), bin(g)], None),
            29 | 30 => {
                let st_width = g.width();
                let st = StGlobal {
                    addr: if g.coin() {
                        a
                    } else {
                        g.sram(st_width.bytes())
                    },
                    width: st_width,
                };
                if i == 29 {
                    (vec![ld(a), PushI(g.word()), bin(g), st], Some(a))
                } else {
                    (vec![ld(a), st], Some(a))
                }
            }
            31 => match g.below(3) {
                0 => (
                    vec![Bin {
                        op: g.pick(&[AluOp::Div, AluOp::Mod]),
                        width: w,
                        signed: s,
                    }],
                    None,
                ),
                1 => {
                    let (src, dst) = (g.addr(4), g.addr(4));
                    let copy = MemCpy {
                        bytes: 1 + g.below(4) as u16,
                    };
                    (vec![PushI(src as i64), PushI(dst as i64), copy], Some(dst))
                }
                _ => {
                    let d = g.pick(&[FLASH_BASE, crate::devices::LED_REG, UART_DATA, 0x0040]);
                    (vec![StGlobal { addr: d, width: w }], Some(d))
                }
            },
            32 => (
                vec![Jmp {
                    target: g.pick(&TARGETS),
                }],
                None,
            ),
            33 => (
                vec![Jz {
                    target: g.pick(&TARGETS),
                }],
                None,
            ),
            34 => (
                vec![Jnz {
                    target: g.pick(&TARGETS),
                }],
                None,
            ),
            35 => (vec![ld(a), PushI(g.word()), bin(g), g.branch().1], Some(a)),
            36 => (vec![Dup, PushI(g.word()), bin(g), g.branch().1], None),
            37 => {
                // Half the spans compare exactly the stored bytes (the
                // reload is elided), the rest any cell and width.
                let (st, cmp) = if g.coin() {
                    (StGlobal { addr: a, width: w }, ld(a))
                } else {
                    let width = g.width();
                    let st = StGlobal {
                        addr: g.sram(4),
                        width,
                    };
                    (st, ld(g.sram(4)))
                };
                let span = vec![
                    ld(a),
                    PushI(g.word()),
                    bin(g),
                    st,
                    cmp,
                    PushI(g.word()),
                    bin(g),
                    g.branch().1,
                ];
                (span, Some(a))
            }
            38 => (vec![Call { func: 1 }], None),
            39 => (
                vec![g.pick(&[
                    Ret,
                    Reti,
                    Trap { flid: 7 },
                    Halt,
                    Sleep,
                    IrqEnable,
                    IrqRestore,
                ])],
                None,
            ),
            40 => {
                // Half the spans cast before the store, as narrow
                // counters do; the store may hit another slot and width.
                let mut span = vec![
                    LdLocal {
                        off,
                        width: w,
                        signed: s,
                    },
                    PushI(g.word()),
                    bin(g),
                ];
                if g.coin() {
                    span.push(Wrap {
                        width: g.width(),
                        signed: g.coin(),
                    });
                }
                let st_off = if g.coin() { off } else { g.off() };
                span.push(StLocal {
                    off: st_off,
                    width: g.width(),
                });
                (span, local)
            }
            41 => (vec![PushI(g.word()), bin(g), g.branch().1], None),
            42 => (
                vec![
                    LdLocal {
                        off,
                        width: w,
                        signed: s,
                    },
                    PushI(g.word()),
                    bin(g),
                    g.branch().1,
                ],
                local,
            ),
            _ => unreachable!("{i} is not an op kind"),
        }
    }

    /// How a property case enters the block engine.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Way {
        /// The span alone: a pure kind runs in the pure loop whenever
        /// its frame window is SRAM.
        Pure,
        /// Behind a dynamic load, which sends the block down the
        /// checked loop.
        Checked,
        /// With a torn watch armed on the op's address (interrupts on),
        /// which also forces the checked loop.
        Torn,
    }

    /// One case: a random span of kind `i` entered `way`, run once
    /// through `run_blocks` and once by `step` over the same
    /// instructions; the two machines must end in the same state, with
    /// the same torn watch and, when `record`, the same read stamps.
    fn check_op(i: usize, way: Way, record: bool, g: &mut Gen) {
        let (base, end) = (Profile::mica2().sram_base(), Profile::mica2().sram_end());
        let fp = if g.below(6) == 0 {
            g.pick(&[0, 0xffff, 0x7fff, 0x8000, end - 4])
        } else {
            base + 8 + g.below((end - base - 40) as u64) as u16
        };
        let mut code = Vec::new();
        if way == Way::Checked {
            code.extend([
                Instr::PushI(g.sram(1) as i64),
                Instr::Ld {
                    width: Width::W8,
                    signed: false,
                },
                Instr::Pop,
            ]);
        }
        let (span, touched) = template(i, g, fp);
        code.extend(span);

        let mut img = image_with(code.clone());
        let mut callee = CodeFunction::new("callee");
        callee.code = vec![Instr::Ret];
        callee.frame_size = 12;
        callee.params = (0..g.below(3) as u16)
            .map(|k| crate::image::ParamSlot {
                off: 6 * k,
                kind: if g.coin() {
                    crate::image::SlotKind::Scalar(g.width())
                } else {
                    crate::image::SlotKind::Fat { seq: g.coin() }
                },
            })
            .collect();
        img.add_function(callee);
        img.rodata
            .push((FLASH_BASE, (0..16).map(|_| g.below(256) as u8).collect()));
        let cache = BlockCache::build(&img);
        let block = cache.lookup(0, 0).expect("pc 0 leads a block");
        assert_eq!(block.n_instrs as usize, code.len(), "one block: {code:?}");
        assert!(
            block.ops.iter().any(|o| kind_index(&o.kind) == i),
            "kind {i}: {code:?} decoded to {:?}",
            block.ops
        );
        // A `Pure` case of a pure kind takes the pure loop whenever its
        // frame window is SRAM; the dynamic load makes a `Checked` case
        // impure. (Dynamic accesses, `Slow`, `Call` and `Term` are the
        // impure kinds.)
        let impure_kind = matches!(i, 6 | 7 | 25 | 26 | 31 | 38 | 39);
        assert_eq!(block.pure, way != Way::Checked && !impure_kind, "{code:?}");

        let mut m = Machine::new(&img);
        for a in base..end {
            m.sram[a as usize] = g.below(256) as u8;
        }
        for _ in 0..4 {
            let a = g.sram(2);
            m.sram[a as usize..][..2].copy_from_slice(&(g.pick(&EDGES) as u16).to_le_bytes());
        }
        m.fp = fp;
        m.eval = (0..block.stack_in + g.below(3) as u32)
            .map(|_| g.word())
            .collect();
        m.irq_enabled = g.coin();
        if way == Way::Torn {
            m.irq_enabled = true;
            let at = touched.unwrap_or_else(|| g.sram(2));
            m.arm_torn_watch(at, 1 + g.below(2) as u32, 1 + g.below(255) as u8, g.coin());
        }
        // Cut inside the span: the block engine runs the ops whose
        // instructions all start before the cut and single-steps the
        // rest, as the interpreter would.
        let cut = m.cycles + 1 + g.below(block.cost);
        let [a, b] = [Engine::Interp, Engine::Bt].map(|engine| {
            let mut run = m.clone();
            run.set_engine(engine);
            run.run(cut);
            run
        });
        let case = format!("kind {i} {way:?} cut at {cut}: {code:?}");
        assert!(b.same_state(&a), "{case}\nbt {b:?}\ninterp {a:?}");
        assert_eq!(b.torn_watch(), a.torn_watch(), "{case}");
        let mut want = m.clone();
        let mut got = m;
        if record {
            want.stamp_reads(1);
            got.stamp_reads(1);
        }
        for _ in 0..block.n_instrs {
            if want.state != RunState::Running {
                break;
            }
            want.step();
        }
        // The span's last instruction starts just before the horizon, so
        // nothing after it is admitted.
        let until = got.cycles + block.reach + 1;
        let ran = if record {
            got.run_blocks::<true>(&cache, until)
        } else {
            got.run_blocks::<false>(&cache, until)
        };
        assert_eq!(ran, None, "kind {i} {way:?}: block not admitted");
        // `run` clears the resync request after either engine's run.
        want.mmio_sync = false;
        got.mmio_sync = false;
        let case = format!("kind {i} {way:?} record={record}: {code:?}");
        assert!(got.same_state(&want), "{case}\nbt {got:?}\nstep {want:?}");
        assert_eq!(got.torn_watch(), want.torn_watch(), "{case}");
        assert_eq!(got.take_read_stamps(), want.take_read_stamps(), "{case}");
    }

    #[test]
    fn every_op_kind_matches_single_stepping() {
        let mut g = Gen(crate::faults::SplitMix64::new(0x0b5e_55ed));
        for i in 0..KINDS {
            for way in [Way::Pure, Way::Checked, Way::Torn] {
                for case in 0..256 {
                    check_op(i, way, case % 2 == 1, &mut g);
                }
            }
        }
    }

    /// A frame-slot loop under a fast periodic timer: the handler bumps
    /// a global, writes the LEDs and returns with `Reti` wherever the
    /// interrupt caught `main` — mostly inside a block.
    fn interrupted_loop(period: u16) -> Image {
        use Instr::*;
        let w16 = |op| Bin {
            op,
            width: Width::W16,
            signed: false,
        };
        let mut img = image_with(vec![
            PushI(period as i64),
            PushI(TIMER0_COMPARE as i64),
            St { width: Width::W16 },
            PushI(1),
            PushI(TIMER0_CTRL as i64),
            St { width: Width::W16 },
            IrqEnable,
            // 7: i = 0
            PushI(0),
            StLocal {
                off: 0,
                width: Width::W8,
            },
            // 9: crc = crc * 3 ^ 0x55
            LdLocal {
                off: 2,
                width: Width::W16,
                signed: false,
            },
            PushI(3),
            w16(AluOp::Mul),
            PushI(0x55),
            w16(AluOp::Xor),
            StLocal {
                off: 2,
                width: Width::W16,
            },
            // 15: if crc & 1 == 0 skip the double
            LdLocal {
                off: 2,
                width: Width::W16,
                signed: false,
            },
            Dup,
            w16(AluOp::And),
            PushI(1),
            w16(AluOp::And),
            Jz { target: 25 },
            LdLocal {
                off: 2,
                width: Width::W16,
                signed: false,
            },
            PushI(1),
            w16(AluOp::Shl),
            StLocal {
                off: 2,
                width: Width::W16,
            },
            // 25: i = (u8)(i + 1); if i < 40 goto 9
            LdLocal {
                off: 0,
                width: Width::W8,
                signed: false,
            },
            PushI(1),
            w16(AluOp::Add),
            Wrap {
                width: Width::W8,
                signed: false,
            },
            StLocal {
                off: 0,
                width: Width::W8,
            },
            LdLocal {
                off: 0,
                width: Width::W8,
                signed: false,
            },
            PushI(40),
            w16(AluOp::Lt),
            Jnz { target: 9 },
            Jmp { target: 7 },
        ]);
        let mut isr = CodeFunction::new("tick");
        isr.interrupt = Some(crate::vectors::TIMER0);
        isr.code = vec![
            LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            PushI(1),
            w16(AluOp::Add),
            StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            LdGlobal {
                addr: 0x0200,
                width: Width::W8,
                signed: false,
            },
            PushI(crate::devices::LED_REG as i64),
            St { width: Width::W8 },
            Reti,
        ];
        img.add_function(isr);
        img
    }

    #[test]
    fn runs_cut_inside_blocks_and_interrupted_mid_block_compose() {
        let mut g = Gen(crate::faults::SplitMix64::new(0x00c0_ffee));
        let end = 40_000;
        for case in 0..48 {
            let img = interrupted_loop(1 + g.below(6) as u16);
            let mut cuts = Vec::new();
            let mut t = 0;
            while t < end {
                t = (t + 1 + g.below(400)).min(end);
                cuts.push(t);
            }
            // Forks of one reset machine share its image, as
            // `same_state` requires.
            let reset = Machine::new(&img);
            let mut uncut = reset.clone();
            uncut.set_engine(Engine::Bt);
            uncut.run(end);
            let cut = |engine: Engine| {
                let mut m = reset.clone();
                m.set_engine(engine);
                for &t in &cuts {
                    m.run(t);
                }
                m
            };
            let (bt, interp) = (cut(Engine::Bt), cut(Engine::Interp));
            assert!(bt.same_state(&uncut), "case {case}: cut bt vs uncut");
            assert!(
                interp.same_state(&uncut),
                "case {case}: cut interp vs uncut"
            );
            // Not vacuous: the handler ran many times, and cuts and
            // returns left the block engine inside blocks it re-entered
            // without single-stepping to the next leader.
            assert!(uncut.ram_peek16(0x0200) > 40, "case {case}");
            let work = bt.engine_work();
            assert!(
                work.horizon > 0 && work.dispatches > 0,
                "case {case}: {work:?}"
            );
        }
    }

    #[test]
    fn engine_knob_accepts_exactly_interp_and_bt() {
        assert_eq!(Engine::from_knob(None), Engine::Bt);
        assert_eq!(Engine::from_knob(Some("interp")), Engine::Interp);
        assert_eq!(Engine::from_knob(Some("bt")), Engine::Bt);
    }

    #[test]
    #[should_panic(expected = "STOS_ENGINE=interpreter is not an engine")]
    fn engine_knob_rejects_other_values() {
        Engine::from_knob(Some("interpreter"));
    }

    #[test]
    fn fired_torn_watch_reopens_the_fast_paths() {
        // Once the watch fires it is inert: the rest of the run must be
        // byte-identical to the interpreter while bt takes its direct
        // (uncounted) paths again.
        let code = vec![
            Instr::IrqEnable,
            Instr::PushI(0),
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(400),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 2 },
            Instr::Halt,
        ];
        let img = image_with(code);
        let run = |engine: Engine| {
            let mut m = Machine::new(&img);
            m.set_engine(engine);
            m.arm_torn_watch(0x0200, 1, 0x80, true);
            m.run(100_000);
            assert!(m.torn_watch().unwrap().fired);
            assert!(m.live_watch().is_none());
            (observe(&m), *m.torn_watch().unwrap())
        };
        assert_eq!(run(Engine::Interp), run(Engine::Bt));
    }

    #[test]
    fn runs_compose_across_a_single_stepped_mmio_store() {
        // Cut right after an MMIO store that the cut forces through the
        // single-step path; an uncut run executes it inside a block.
        // Both must end in the same state — the MMIO resync flag
        // included — or campaign checkpoints would never converge.
        let code = vec![
            Instr::PushI(1),
            Instr::PushI(crate::devices::LED_REG as i64),
            Instr::St { width: Width::W8 },
            Instr::PushI(0),
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(300),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 4 },
            Instr::Halt,
        ];
        let cut: u64 = code[..3].iter().map(|i| i.cycles()).sum();
        let img = image_with(code);
        for engine in [Engine::Interp, Engine::Bt] {
            let mut fresh = Machine::new(&img);
            fresh.set_engine(engine);
            let mut whole = fresh.clone();
            whole.run(100_000);
            let mut segmented = fresh;
            segmented.run(cut);
            assert_eq!(segmented.devices.leds.value, 1, "cut after the store");
            segmented.run(100_000);
            assert!(segmented.same_state(&whole), "{engine:?}");
        }
    }

    #[test]
    fn bad_code_fault_names_function() {
        // Falling off the end of a function reports the function
        // index/name under both engines.
        let img = image_with(vec![Instr::Nop]);
        for engine in [Engine::Interp, Engine::Bt] {
            let mut m = Machine::new(&img);
            m.set_engine(engine);
            m.run(100);
            let msg = m.fault_message().unwrap();
            assert!(
                msg.contains("#0") && msg.contains("main"),
                "{engine:?}: {msg}"
            );
        }
    }
}
