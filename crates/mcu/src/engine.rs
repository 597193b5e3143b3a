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
//! * `cycles + block.cost < min(until, next event time)` — so no device
//!   event becomes due anywhere inside the block (events are only
//!   scheduled by MMIO writes, which abort the fast loop via
//!   `mmio_sync`, re-deriving the horizon);
//! * no pending enabled interrupt — and nothing inside a block can open
//!   an interrupt window: every instruction that can *enable* interrupts
//!   (`IrqEnable`, `IrqRestore`, `Ret`/`Reti`) terminates its block;
//! * evaluation-stack depth ≥ `block.stack_in` — so no mid-block
//!   underflow fault can occur.
//!
//! Anything the fast loop cannot prove safe (mid-block entry pcs after a
//! resync, blocks crossing the horizon, shallow stacks, `pc` past the
//! end of a function) falls back to the interpreter's own
//! [`Machine::step`], one instruction at a time, until a block boundary
//! is reached again. Torn-update watchpoints (armed via
//! [`Machine::arm_torn_watch`]) force every 16-bit and fat-pointer
//! access through the interpreter's counting `load_mem`/`store_mem`
//! path until they fire, so watch counters advance identically under
//! both engines; a fired watch is inert and the fast paths return.

use std::cmp::Reverse;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::bbcache::{BlockCache, OpKind};
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
                    if !self.run_blocks::<R>(cache, until) {
                        // No block was provably safe (mid-block pc,
                        // horizon too close, shallow stack, pc past
                        // end): take one faithful step.
                        self.step();
                    }
                }
                RunState::Sleeping => self.sleep_pump(until),
                RunState::Halted | RunState::Faulted => break,
            }
        }
    }

    /// Executes whole basic blocks back-to-back while each next block
    /// provably contains no observable boundary. Returns whether at
    /// least one block ran.
    ///
    /// The counters (`cycles`, `awake_cycles`, `instr_count`, `pc`,
    /// `cur_func`) accumulate in locals that survive *across* chained
    /// blocks — branch terminators never touch the machine — and flush
    /// only around ops that can observe them or exit the fast path
    /// (fault, MMIO, call/return, interpreter fallback). Every flush
    /// happens *before* the op body runs, so fault sites and device
    /// accesses always see exact interpreter-identical counters.
    fn run_blocks<const R: bool>(&mut self, cache: &BlockCache, until: u64) -> bool {
        let mut horizon = self.next_horizon(until);
        let mut progressed = false;
        let mut cycles = self.cycles;
        let mut awake = self.awake_cycles;
        let mut instrs = self.instr_count;
        let mut pc = self.pc;
        let mut cur_func = self.cur_func;
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
        'chain: loop {
            // An enabled pending interrupt must be dispatched by the
            // faithful outer loop before the next instruction.
            if self.pending != 0 && self.irq_enabled {
                break;
            }
            let Some(block) = cache.lookup(cur_func, pc) else {
                break;
            };
            if cycles + block.cost >= horizon || (self.eval.len() as u32) < block.stack_in {
                break;
            }
            progressed = true;
            // Pure blocks (statically infallible, device-free, no torn
            // watchpoint left to fire, frame window proven writable) take the
            // lean path: whole-block counter accounting and a dispatch
            // loop with no per-op flush/exit machinery — nothing inside
            // can fault, reach a device, or observe the counters.
            if block.pure
                && self.live_watch().is_none()
                && (block.local_span == 0 || self.dyn_writable(self.fp, block.local_span))
            {
                'pure: loop {
                    cycles += block.cost;
                    awake += block.cost;
                    instrs += block.n_instrs as u64;
                    let mut next = pc + block.n_instrs;
                    for op in block.ops.iter() {
                        match op.kind {
                            OpKind::PushI(v) => self.eval.push(v),
                            OpKind::LdG {
                                addr,
                                width,
                                signed,
                            } => {
                                let v = self.sram_read::<R>(addr, width, signed);
                                self.eval.push(v);
                            }
                            OpKind::StG { addr, width } => {
                                let v = self.bpop();
                                self.sram_write(addr, v, width);
                            }
                            OpKind::LdL { off, width, signed } => {
                                let v =
                                    self.sram_read::<R>(self.fp.wrapping_add(off), width, signed);
                                self.eval.push(v);
                            }
                            OpKind::StL { off, width } => {
                                let v = self.bpop();
                                self.sram_write(self.fp.wrapping_add(off), v, width);
                            }
                            OpKind::AddrL { off } => {
                                self.eval.push(self.fp.wrapping_add(off) as i64)
                            }
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
                            OpKind::LdGF { addr, seq } => self.fat_read_direct::<R>(addr, seq),
                            OpKind::StGF { addr, seq } => {
                                let cell = self.bpop();
                                self.fat_write_direct(addr, cell, seq);
                            }
                            OpKind::LdLF { off, seq } => {
                                self.fat_read_direct::<R>(self.fp.wrapping_add(off), seq)
                            }
                            OpKind::StLF { off, seq } => {
                                let cell = self.bpop();
                                self.fat_write_direct(self.fp.wrapping_add(off), cell, seq);
                            }
                            OpKind::StGK { addr, width, k } => self.sram_write(addr, k, width),
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
                                let a = self.sram_read::<R>(ld_addr, ld_width, ld_signed);
                                let v = alu_nodiv(op, a, k, width, signed);
                                self.sram_write(st_addr, v, st_width);
                            }
                            OpKind::CpGG {
                                ld_addr,
                                ld_width,
                                ld_signed,
                                st_addr,
                                st_width,
                            } => {
                                let v = self.sram_read::<R>(ld_addr, ld_width, ld_signed);
                                self.sram_write(st_addr, v, st_width);
                            }
                            OpKind::Jmp(target) => next = target,
                            OpKind::Jz(target) => {
                                if self.bpop() == 0 {
                                    next = target;
                                }
                            }
                            OpKind::Jnz(target) => {
                                if self.bpop() != 0 {
                                    next = target;
                                }
                            }
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
                                let a = self.sram_read::<R>(addr, ld_width, ld_signed);
                                let v = alu_nodiv(op, a, k, width, signed);
                                if (v == 0) == br_if_zero {
                                    next = target;
                                }
                            }
                            OpKind::CmpTopKBr {
                                k,
                                op,
                                width,
                                signed,
                                br_if_zero,
                                target,
                            } => {
                                let a = *self.eval.last().expect("stack_in covers CmpTopKBr");
                                let v = alu_nodiv(op, a, k, width, signed);
                                if (v == 0) == br_if_zero {
                                    next = target;
                                }
                            }
                            OpKind::RmwGKBr { rmw, cmp, reload } => {
                                let a =
                                    self.sram_read::<R>(rmw.ld_addr, rmw.ld_width, rmw.ld_signed);
                                let v = alu_nodiv(rmw.op, a, rmw.k, rmw.width, rmw.signed);
                                self.sram_write(rmw.st_addr, v, rmw.st_width);
                                // When the compare reloads exactly the bytes the
                                // store just wrote, the reload is a pure
                                // re-materialisation of `v` — direct reads are
                                // uncounted, so eliding it is unobservable.
                                // A recording run still stamps those bytes, as
                                // the interpreter's reload does.
                                let b = if reload {
                                    self.sram_read::<R>(cmp.addr, cmp.ld_width, cmp.ld_signed)
                                } else {
                                    if R {
                                        self.reads.note(cmp.addr, cmp.ld_width.bytes());
                                    }
                                    cmp.ld_width.wrap(v, cmp.ld_signed)
                                };
                                let f = alu_nodiv(cmp.op, b, cmp.k, cmp.width, cmp.signed);
                                if (f == 0) == cmp.br_if_zero {
                                    next = cmp.target;
                                }
                            }
                            OpKind::LdDyn { .. }
                            | OpKind::StDyn { .. }
                            | OpKind::LdFDyn { .. }
                            | OpKind::StFDyn { .. }
                            | OpKind::Slow(_)
                            | OpKind::Call(_)
                            | OpKind::Term(_) => {
                                unreachable!("impure op in a pure block (decode invariant)")
                            }
                        }
                    }
                    // Self-loop — the dominant tight-loop shape: the
                    // terminator re-enters this very block, so skip the
                    // lookup/pureness pointer chase and re-run the
                    // already-resolved ops, re-checking only what can
                    // have changed (IRQ window, horizon, stack depth;
                    // `fp`, the torn watch, and the block itself
                    // cannot change inside a pure block).
                    if next == pc
                        && !(self.pending != 0 && self.irq_enabled)
                        && cycles + block.cost < horizon
                        && (self.eval.len() as u32) >= block.stack_in
                    {
                        continue 'pure;
                    }
                    pc = next;
                    continue 'chain;
                }
            }
            for op in block.ops.iter() {
                cycles += op.cost as u64;
                awake += op.cost as u64;
                instrs += op.n as u64;
                pc += op.n as u32;
                match op.kind {
                    // -- infallible ops: locals stay hot, no exit test --
                    OpKind::PushI(v) => self.eval.push(v),
                    OpKind::LdG {
                        addr,
                        width,
                        signed,
                    } => {
                        let v = self.g_load::<R>(addr, width, signed);
                        self.eval.push(v);
                    }
                    OpKind::StG { addr, width } => {
                        let v = self.bpop();
                        self.g_store(addr, v, width);
                    }
                    OpKind::AddrL { off } => self.eval.push(self.fp.wrapping_add(off) as i64),
                    OpKind::Bin { op, width, signed } => {
                        let b = self.bpop();
                        let a = self.bpop();
                        // Never Div/Mod (decode guarantee): cannot fault.
                        let v = alu_nodiv(op, a, b, width, signed);
                        self.eval.push(v);
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
                        if self.live_watch().is_some() {
                            self.fat_load(addr, seq);
                        } else {
                            self.fat_read_direct::<R>(addr, seq);
                        }
                    }
                    OpKind::StGF { addr, seq } => {
                        let cell = self.bpop();
                        if self.live_watch().is_some() {
                            self.fat_store(addr, cell, seq);
                        } else {
                            self.fat_write_direct(addr, cell, seq);
                        }
                    }
                    OpKind::StGK { addr, width, k } => self.g_store(addr, k, width),
                    OpKind::BinK {
                        op,
                        width,
                        signed,
                        k,
                    } => {
                        let a = self.bpop();
                        let v = alu_nodiv(op, a, k, width, signed);
                        self.eval.push(v);
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
                        let a = self.g_load::<R>(ld_addr, ld_width, ld_signed);
                        let v = alu_nodiv(op, a, k, width, signed);
                        self.g_store(st_addr, v, st_width);
                    }
                    OpKind::CpGG {
                        ld_addr,
                        ld_width,
                        ld_signed,
                        st_addr,
                        st_width,
                    } => {
                        let v = self.g_load::<R>(ld_addr, ld_width, ld_signed);
                        self.g_store(st_addr, v, st_width);
                    }
                    // -- fallible / observing ops: flush, run, test --
                    OpKind::LdL { off, width, signed } => {
                        let addr = self.fp.wrapping_add(off);
                        if let Some(v) = self.dyn_load::<R>(addr, width, signed) {
                            self.eval.push(v);
                        } else {
                            sync_out!();
                            if let Some(v) = self.load_mem(addr, width, signed) {
                                self.eval.push(v);
                            }
                            if self.state != RunState::Running {
                                return progressed;
                            }
                        }
                    }
                    OpKind::StL { off, width } => {
                        let v = self.bpop();
                        let addr = self.fp.wrapping_add(off);
                        if self.dyn_writable(addr, width.bytes()) && !self.torn_guard(width) {
                            self.sram_write(addr, v, width);
                        } else {
                            sync_out!();
                            self.store_mem(addr, v, width);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                            if self.mmio_sync {
                                self.mmio_sync = false;
                                horizon = self.next_horizon(until);
                                continue 'chain;
                            }
                        }
                    }
                    OpKind::LdDyn { width, signed } => {
                        let addr = self.bpop() as u16;
                        if let Some(v) = self.dyn_load::<R>(addr, width, signed) {
                            self.eval.push(v);
                        } else {
                            sync_out!();
                            if let Some(v) = self.load_mem(addr, width, signed) {
                                self.eval.push(v);
                            }
                            if self.state != RunState::Running {
                                return progressed;
                            }
                        }
                    }
                    OpKind::StDyn { width } => {
                        let addr = self.bpop() as u16;
                        let v = self.bpop();
                        if self.dyn_writable(addr, width.bytes()) && !self.torn_guard(width) {
                            self.sram_write(addr, v, width);
                        } else {
                            sync_out!();
                            self.store_mem(addr, v, width);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                            if self.mmio_sync {
                                self.mmio_sync = false;
                                horizon = self.next_horizon(until);
                                continue 'chain;
                            }
                        }
                    }
                    OpKind::LdLF { off, seq } => {
                        let addr = self.fp.wrapping_add(off);
                        if self.live_watch().is_none()
                            && self.dyn_writable(addr, fat_bytes(seq) as u32)
                        {
                            self.fat_read_direct::<R>(addr, seq);
                        } else {
                            sync_out!();
                            self.fat_load(addr, seq);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                        }
                    }
                    OpKind::StLF { off, seq } => {
                        let addr = self.fp.wrapping_add(off);
                        let cell = self.bpop();
                        if self.live_watch().is_none()
                            && self.dyn_writable(addr, fat_bytes(seq) as u32)
                        {
                            self.fat_write_direct(addr, cell, seq);
                        } else {
                            sync_out!();
                            self.fat_store(addr, cell, seq);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                            if self.mmio_sync {
                                self.mmio_sync = false;
                                horizon = self.next_horizon(until);
                                continue 'chain;
                            }
                        }
                    }
                    OpKind::LdFDyn { seq } => {
                        let addr = self.bpop() as u16;
                        if self.live_watch().is_none()
                            && self.dyn_writable(addr, fat_bytes(seq) as u32)
                        {
                            self.fat_read_direct::<R>(addr, seq);
                        } else {
                            sync_out!();
                            self.fat_load(addr, seq);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                        }
                    }
                    OpKind::StFDyn { seq } => {
                        let addr = self.bpop() as u16;
                        let cell = self.bpop();
                        if self.live_watch().is_none()
                            && self.dyn_writable(addr, fat_bytes(seq) as u32)
                        {
                            self.fat_write_direct(addr, cell, seq);
                        } else {
                            sync_out!();
                            self.fat_store(addr, cell, seq);
                            if self.state != RunState::Running {
                                return progressed;
                            }
                            if self.mmio_sync {
                                self.mmio_sync = false;
                                horizon = self.next_horizon(until);
                                continue 'chain;
                            }
                        }
                    }
                    OpKind::Slow(ins) => {
                        sync_out!();
                        self.exec(&ins);
                        if self.state != RunState::Running {
                            return progressed;
                        }
                        if self.mmio_sync {
                            self.mmio_sync = false;
                            horizon = self.next_horizon(until);
                            continue 'chain;
                        }
                        // No Slow instruction moves control, but staying
                        // synced with the machine is free here.
                        pc = self.pc;
                    }
                    // -- terminators (always the last op of the block) --
                    OpKind::Jmp(target) => {
                        pc = target;
                        continue 'chain;
                    }
                    OpKind::Jz(target) => {
                        if self.bpop() == 0 {
                            pc = target;
                        }
                        continue 'chain;
                    }
                    OpKind::Jnz(target) => {
                        if self.bpop() != 0 {
                            pc = target;
                        }
                        continue 'chain;
                    }
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
                        let a = self.g_load::<R>(addr, ld_width, ld_signed);
                        let v = alu_nodiv(op, a, k, width, signed);
                        if (v == 0) == br_if_zero {
                            pc = target;
                        }
                        continue 'chain;
                    }
                    OpKind::CmpTopKBr {
                        k,
                        op,
                        width,
                        signed,
                        br_if_zero,
                        target,
                    } => {
                        // `Dup; PushI; Bin; Jz/Jnz` keeps the original
                        // top of stack (the copy got consumed); entry
                        // depth >= stack_in guarantees it exists.
                        let a = *self.eval.last().expect("stack_in covers CmpTopKBr");
                        let v = alu_nodiv(op, a, k, width, signed);
                        if (v == 0) == br_if_zero {
                            pc = target;
                        }
                        continue 'chain;
                    }
                    OpKind::RmwGKBr {
                        rmw,
                        cmp,
                        reload: _,
                    } => {
                        let a = self.g_load::<R>(rmw.ld_addr, rmw.ld_width, rmw.ld_signed);
                        let v = alu_nodiv(rmw.op, a, rmw.k, rmw.width, rmw.signed);
                        self.g_store(rmw.st_addr, v, rmw.st_width);
                        let b = self.g_load::<R>(cmp.addr, cmp.ld_width, cmp.ld_signed);
                        let f = alu_nodiv(cmp.op, b, cmp.k, cmp.width, cmp.signed);
                        if (f == 0) == cmp.br_if_zero {
                            pc = cmp.target;
                        }
                        continue 'chain;
                    }
                    OpKind::Call(func) => {
                        sync_out!();
                        self.do_call(func, false);
                        if self.state != RunState::Running {
                            return progressed;
                        }
                        sync_in!();
                        continue 'chain;
                    }
                    OpKind::Term(ins) => {
                        sync_out!();
                        self.exec(&ins);
                        if self.state != RunState::Running {
                            return progressed;
                        }
                        if self.mmio_sync {
                            self.mmio_sync = false;
                            horizon = self.next_horizon(until);
                        }
                        sync_in!();
                        continue 'chain;
                    }
                }
            }
            // Fallthrough into the next leader: `pc` already advanced.
        }
        sync_out!();
        progressed
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

    /// Static SRAM global load: direct unless a torn watchpoint forces
    /// the counting path for 16-bit accesses.
    #[inline(always)]
    fn g_load<const R: bool>(&mut self, addr: u16, width: Width, signed: bool) -> i64 {
        if self.torn_guard(width) {
            // Statically mapped: never None.
            self.load_mem(addr, width, signed).unwrap_or(0)
        } else {
            self.sram_read::<R>(addr, width, signed)
        }
    }

    /// Static SRAM global store, torn-aware (see [`Machine::g_load`]).
    #[inline(always)]
    fn g_store(&mut self, addr: u16, v: i64, width: Width) {
        if self.torn_guard(width) {
            self.store_mem(addr, v, width);
        } else {
            self.sram_write(addr, v, width);
        }
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
