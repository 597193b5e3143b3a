//! The whole-program dataflow engine.
//!
//! Flow-sensitive within functions, context-insensitive across them (the
//! paper's §3.1 explains that this context insensitivity is exactly why
//! the source-level inliner matters: inlining a check gives its operands
//! call-site-specific values). Globals are handled with the TinyOS
//! concurrency model in mind:
//!
//! * a global never touched by interrupt-reachable code is refined
//!   flow-sensitively,
//! * a global touched by interrupt code is only refined *inside an
//!   `atomic` section* (handlers cannot interleave there) — this is the
//!   concurrency awareness §2.1 describes,
//! * address-taken globals are never refined (stores through pointers).
//!
//! The engine runs in two phases: a fixpoint **analysis** that stabilizes
//! per-function entry values, return summaries, and whole-program global
//! values; then a **transform** pass that folds constant expressions and
//! branches and deletes checks the analysis proves redundant.
//!
//! # Fault-hardened check elimination
//!
//! Check *removal* answers to a stricter standard than ordinary dataflow
//! soundness. An interval proof that an index global stays in `0..N`
//! holds for every uncorrupted execution — but the checks exist to catch
//! *corrupted* ones: a bit flip in a RAM cell produces any value the
//! cell's type can represent, invariants be damned. Deleting a check on
//! the strength of such an invariant silently deletes the program's
//! fault coverage (the fault-injection campaign measures exactly this
//! collapse).
//!
//! The engine therefore keeps a second, *hardened* value for every
//! local: the value the expression would have if every load from a
//! RAM-resident mutable global returned the global's full type range
//! (ROM-resident `const` globals are immune and keep their precise
//! value; locals live in the stack region outside the static-data fault
//! window and stay precise, including refinements earned from checks
//! and branches that the running code actually executed). A check is
//! removed only when it passes in **both** worlds — i.e. when the
//! interval proof covers the entire fault-reachable value set, such as
//! a `u8` index into a 256-element array or an index reduced by
//! `% N` between the load and the access. Constant and branch folding
//! keep using the ordinary (uncorrupted-semantics) values: folding can
//! mask a fault but never removes a trap.
//!
//! `harden: false` (the spec language's `cxprop(noharden)`) restores the
//! classical policy, which is how the campaign harness demonstrates the
//! coverage collapse on demand.
//!
//! # Write-tracked environments
//!
//! A flow environment holds one abstract value per local, per hardened
//! twin and per global. A function walk has exactly one, changed in
//! place, and every write appends the slot and its old value to an undo
//! trail. A fork (the two arms of an `if`, a loop iteration or the final
//! pass against the loop head, a `break` against the loop's exit) is a
//! trail mark, not a copy: an arm's result is kept as the slots it wrote
//! since the mark, and the environment rolls back to the mark for the
//! next arm. When the sides meet again only slots either side wrote can
//! differ, so the `if` join, the loop's break-exit join and the loop-head
//! convergence test visit just those slots: the rest hold the same value
//! on both sides and `join(x, x) == x`, so skipping them is exact. Fork,
//! join and rollback cost time in the writes since the fork, not in the
//! size of the environment. A join counts a slot as written exactly when a
//! per-slot write stamp in a copy per fork would be newer than the fork,
//! so every `join` and `widen` sees the operands, in the orientation, that
//! copying environments give them (a unit test drives both through random
//! forks and compares). Loop fixpoints walk the body in place with
//! transforms off (analysis never writes to the program).
//! [`Engine::env_work`] counts this work.
//!
//! # Rounds and convergence
//!
//! The analysis repeats whole-program rounds while any summary grows or
//! a call site reaches a callee for the first time (the new callee needs
//! a walk), up to [`MAX_ROUNDS`]. On the stock applications it never goes quiet
//! before the cap: whole-program values of counters such as a timer's
//! elapsed time (`TimerM__elapsed0`) or the radio's receive position
//! (`RadioM__rx_pos`) grow by one per round (each round joins one more
//! increment into the global's summary) and summaries are not widened,
//! so every analysis stops at the cap with its last round still
//! changing. The transform phase then works from that last
//! approximation, which all the figures are computed from.
//! [`Engine::rounds`], [`Engine::quiet`] and [`Engine::walks`] expose
//! this work.

use tcil::ir::*;
use tcil::types::{size_of, IntKind, Type};
use tcil::visit;
use tcil::Program;

use crate::aval::{addr_of_value, APtr, AVal, Tri};
use crate::ival::Ival;

/// The analysis's round cap: it stops after this many rounds even when
/// the last one still changed a summary.
pub const MAX_ROUNDS: usize = 12;

/// Which abstract integer domain the engine plugs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DomainKind {
    /// Flat constant lattice (cXprop's cheapest domain).
    Constants,
    /// Full interval domain.
    #[default]
    Intervals,
}

/// What the transform phase changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Checks proven redundant and removed.
    pub checks_removed: usize,
    /// Branches with decided conditions folded.
    pub branches_folded: usize,
    /// Expressions replaced by constants.
    pub consts_folded: usize,
}

/// Pre-computed program facts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summaries {
    /// `writes[f]`: the globals function `f` (transitively) writes, in
    /// ascending order — the ones a call to `f` havocs.
    pub writes: Vec<Vec<u32>>,
    /// Global has its address taken somewhere.
    pub addr_taken: Vec<bool>,
    /// Global is accessed by interrupt-reachable code.
    pub async_touched: Vec<bool>,
    /// The async-touched globals in ascending order — the ones an atomic
    /// section observes afresh.
    pub async_globals: Vec<u32>,
    /// Function reachable from any root.
    pub reachable: Vec<bool>,
    /// `mentions[f][g]`: function `f`'s body mentions global `g` directly
    /// (load, store, or address-of — anywhere, including check operands
    /// and place subscripts). The sparse engine's dependency edges: only
    /// mentioning functions can observe a change to the global's
    /// whole-program value.
    pub mentions: Vec<Vec<bool>>,
    /// Direct callees per function, in call-site order (duplicates kept).
    pub callees: Vec<Vec<u32>>,
}

/// Computes [`Summaries`] for `program`.
pub(crate) fn summarize(program: &Program) -> Summaries {
    let nf = program.functions.len();
    let ng = program.globals.len();
    let mut s = Summaries {
        writes: Vec::new(),
        addr_taken: vec![false; ng],
        async_touched: vec![false; ng],
        async_globals: Vec::new(),
        reachable: vec![false; nf],
        mentions: vec![vec![false; ng]; nf],
        callees: vec![Vec::new(); nf],
    };
    // `writes[f][g]`, closed over the call graph below.
    let mut writes = vec![vec![false; ng]; nf];
    for (fi, f) in program.functions.iter().enumerate() {
        visit::walk_stmts(&f.body, &mut |st| {
            let mut dest = |p: &Place| {
                if let PlaceBase::Global(g) = &p.base {
                    writes[fi][g.0 as usize] = true;
                    s.mentions[fi][g.0 as usize] = true;
                }
            };
            match st {
                Stmt::Assign(p, _) => dest(p),
                Stmt::Call { dst, func, .. } => {
                    s.callees[fi].push(func.0);
                    if let Some(p) = dst {
                        dest(p);
                    }
                }
                Stmt::BuiltinCall { dst: Some(p), .. } => dest(p),
                _ => {}
            }
            visit::stmt_exprs(st, &mut |e| {
                visit::walk_expr(e, &mut |x| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &x.kind {
                        if let PlaceBase::Global(g) = &p.base {
                            s.mentions[fi][g.0 as usize] = true;
                            if matches!(x.kind, ExprKind::AddrOf(_)) {
                                s.addr_taken[g.0 as usize] = true;
                            }
                        }
                    }
                });
            });
        });
    }
    // Take the callee lists out so the closure below can mutate the
    // other summary fields; restored before returning.
    let callees = std::mem::take(&mut s.callees);
    // Transitive closure of writes.
    loop {
        let mut changed = false;
        for (fi, fi_callees) in callees.iter().enumerate() {
            // Taken out while the callees' rows are read (a recursive
            // call then reads an empty row: it adds nothing anyway).
            let mut row = std::mem::take(&mut writes[fi]);
            for &c in fi_callees {
                for (w, &cw) in row.iter_mut().zip(&writes[c as usize]) {
                    if cw && !*w {
                        *w = true;
                        changed = true;
                    }
                }
            }
            writes[fi] = row;
        }
        if !changed {
            break;
        }
    }
    let set_bits = |row: &[bool]| -> Vec<u32> {
        row.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect()
    };
    s.writes = writes.iter().map(|row| set_bits(row)).collect();
    // Reachability and async context.
    let mut async_fn = vec![false; nf];
    let roots: Vec<u32> = program
        .entry
        .iter()
        .map(|f| f.0)
        .chain(
            program
                .functions
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.interrupt.map(|_| i as u32)),
        )
        .collect();
    let mut work = roots.clone();
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut s.reachable[f as usize], true) {
            continue;
        }
        work.extend(callees[f as usize].iter().copied());
    }
    let mut work: Vec<u32> = program
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.interrupt.is_some())
        .map(|(i, _)| i as u32)
        .collect();
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut async_fn[f as usize], true) {
            continue;
        }
        work.extend(callees[f as usize].iter().copied());
    }
    // Globals touched by async code.
    for (fi, f) in program.functions.iter().enumerate() {
        if !async_fn[fi] {
            continue;
        }
        visit::walk_stmts(&f.body, &mut |st| {
            let mut touch = |p: &Place| {
                if let PlaceBase::Global(g) = &p.base {
                    s.async_touched[g.0 as usize] = true;
                }
            };
            match st {
                Stmt::Assign(p, _) => touch(p),
                Stmt::Call { dst: Some(p), .. } | Stmt::BuiltinCall { dst: Some(p), .. } => {
                    touch(p)
                }
                _ => {}
            }
            visit::stmt_exprs(st, &mut |e| {
                visit::walk_expr(e, &mut |x| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &x.kind {
                        if let PlaceBase::Global(g) = &p.base {
                            s.async_touched[g.0 as usize] = true;
                        }
                    }
                });
            });
        });
    }
    s.async_globals = set_bits(&s.async_touched);
    s.callees = callees;
    s
}

/// The flow environment at a program point: one abstract value per
/// slot — each local, then each local's fault-hardened twin, then each
/// global.
///
/// The twin of a local is its value if every global it was computed
/// from had been corrupted to an arbitrary value of its type (see the
/// module docs). Globals need no twin — their hardened value is always
/// their type's top, by definition of the fault model.
///
/// A walk has one environment, changed in place. Every write appends
/// the slot and its previous value to an undo trail, so a fork is just
/// a trail mark ([`Env::mark`]): the slots with trail entries past the
/// mark are the ones written since the fork, and [`Env::rollback`]
/// restores the state at the fork. An arm's result is kept as the slots
/// it wrote ([`Env::written_since`]). Forks are only taken in reachable
/// code.
struct Env {
    slots: Vec<AVal>,
    /// `(slot, value before the write)` per write, oldest first.
    trail: Vec<(u32, AVal)>,
    /// `seen[s] == tag`: the current trail walk already met slot `s`.
    seen: Vec<u32>,
    tag: u32,
    /// Number of locals: local `i`'s twin is slot `nl + i`, global `g`
    /// is slot `2 * nl + g`.
    nl: usize,
    reachable: bool,
    /// Slots written by copies and rollbacks plus slots visited by
    /// joins (see [`Engine::env_work`]).
    work: u64,
}

/// The slots an arm wrote since a fork, each once, with their values at
/// the arm's end.
type Writes = Vec<(u32, AVal)>;

impl Env {
    fn new(slots: Vec<AVal>, nl: usize) -> Env {
        Env {
            seen: vec![0; slots.len()],
            slots,
            trail: Vec::new(),
            tag: 0,
            nl,
            reachable: true,
            work: 0,
        }
    }

    fn hard_slot(&self, local: usize) -> usize {
        self.nl + local
    }

    fn global_slot(&self, global: usize) -> usize {
        2 * self.nl + global
    }

    fn global(&self, global: usize) -> AVal {
        self.slots[self.global_slot(global)]
    }

    /// Writes `v` to `slot` if that changes the slot.
    fn set(&mut self, slot: usize, v: AVal) {
        if self.slots[slot] != v {
            self.write(slot, v);
        }
    }

    /// Writes `v` to `slot` and counts the slot as written even when its
    /// value stays the same (a replayed arm's or a join's slots).
    fn write(&mut self, slot: usize, v: AVal) {
        self.trail.push((slot as u32, self.slots[slot]));
        self.slots[slot] = v;
    }

    /// Marks a fork: the writes from here on are the fork's.
    fn mark(&self) -> usize {
        self.trail.len()
    }

    /// A tag no slot carries yet, for one walk over the trail.
    fn next_tag(&mut self) -> u32 {
        if self.tag == u32::MAX {
            self.seen.fill(0);
            self.tag = 0;
        }
        self.tag += 1;
        self.tag
    }

    /// The slots written since `mark`, each once, with their values now.
    fn written_since(&mut self, mark: usize) -> Writes {
        let tag = self.next_tag();
        let Env {
            slots, trail, seen, ..
        } = self;
        let mut out = Vec::new();
        for &(s, _) in &trail[mark..] {
            if seen[s as usize] != tag {
                seen[s as usize] = tag;
                out.push((s, slots[s as usize]));
            }
        }
        self.work += out.len() as u64;
        out
    }

    /// Undoes every write since `mark`: the environment is as it was at
    /// the fork, reachable.
    fn rollback(&mut self, mark: usize) {
        self.work += (self.trail.len() - mark) as u64;
        for (s, old) in self.trail.drain(mark..).rev() {
            self.slots[s as usize] = old;
        }
        self.reachable = true;
    }

    /// Writes each of `writes`.
    fn replay(&mut self, writes: &[(u32, AVal)]) {
        self.work += writes.len() as u64;
        for &(s, v) in writes {
            self.write(s as usize, v);
        }
    }

    /// Ends the first arm of the fork at `mark`: returns its writes if
    /// it reaches the join and rolls back to the fork.
    fn end_arm(&mut self, mark: usize) -> Option<Writes> {
        let first = self.reachable.then(|| self.written_since(mark));
        self.rollback(mark);
        first
    }

    /// Joins the first arm (`first`, from [`Env::end_arm`]) with the
    /// second, which the environment holds, as `first ⊔ second`.
    fn join_arms(&mut self, mark: usize, first: Option<Writes>) {
        let Some(first) = first else {
            return; // only the second arm reaches the join
        };
        if self.reachable {
            self.join_since(mark, &first, None);
        } else {
            self.rollback(mark);
            self.replay(&first);
        }
    }

    /// Joins one loop iteration, which the environment holds, into the
    /// loop head it forked from at `mark`, widening with `widen`.
    /// Returns whether the head grew; either way the environment is the
    /// new head.
    fn join_iteration(&mut self, mark: usize, widen: Option<&dyn Fn(usize) -> IntKind>) -> bool {
        if !self.reachable {
            self.rollback(mark);
            return false;
        }
        self.join_since(mark, &[], widen)
    }

    /// Replaces the writes since `mark` by the join `left ⊔ current`,
    /// where `left` is the state at the fork overlaid with `left`'s
    /// writes. Visits only `left`'s slots and the slots written since
    /// the fork. Each of `left`'s slots stays written; another slot is
    /// written only if it grows. With `widen`, a slot that grows is
    /// widened against the integer kind `widen` gives for it (loop
    /// heads). Returns whether any slot grew.
    fn join_since(
        &mut self,
        mark: usize,
        left: &[(u32, AVal)],
        widen: Option<&dyn Fn(usize) -> IntKind>,
    ) -> bool {
        let tag = self.next_tag();
        let mut grew = false;
        let mut join = |a: AVal, b: AVal, s: usize| {
            let j = a.join(b);
            if j == a {
                return None;
            }
            grew = true;
            Some(match widen {
                Some(kind) => a.widen(j, kind(s)),
                None => j,
            })
        };
        let mut result = Vec::with_capacity(left.len());
        for &(s, a) in left {
            self.seen[s as usize] = tag;
            let v = join(a, self.slots[s as usize], s as usize).unwrap_or(a);
            result.push((s, v));
        }
        let mut visited = left.len();
        for i in mark..self.trail.len() {
            // The first entry of a slot holds its value at the fork.
            let (s, at_fork) = self.trail[i];
            if self.seen[s as usize] == tag {
                continue;
            }
            self.seen[s as usize] = tag;
            visited += 1;
            if let Some(v) = join(at_fork, self.slots[s as usize], s as usize) {
                result.push((s, v));
            }
        }
        self.work += visited as u64;
        self.rollback(mark);
        self.replay(&result);
        grew
    }

    /// Joins `other` — the state at the fork `mark` overlaid with
    /// `other`'s writes — into the environment in place, as
    /// `current ⊔ other`, visiting only the slots either side wrote since
    /// the fork.
    fn join_in(&mut self, mark: usize, other: &[(u32, AVal)]) {
        let tag = self.next_tag();
        let end = self.trail.len();
        for &(s, b) in other {
            self.seen[s as usize] = tag;
            let j = self.slots[s as usize].join(b);
            self.set(s as usize, j);
        }
        let mut visited = other.len();
        for i in mark..end {
            let (s, at_fork) = self.trail[i];
            if self.seen[s as usize] == tag {
                continue;
            }
            self.seen[s as usize] = tag;
            visited += 1;
            let j = self.slots[s as usize].join(at_fork);
            self.set(s as usize, j);
        }
        self.work += visited as u64;
    }
}

/// Joins `v` into `slot`; returns whether the slot grew.
fn join_into(slot: &mut AVal, v: AVal) -> bool {
    let j = slot.join(v);
    if j == *slot {
        return false;
    }
    *slot = j;
    true
}

/// The analysis engine.
pub struct Engine {
    /// Chosen integer domain.
    pub domain: DomainKind,
    /// Fault-hardened check elimination (see the module docs). When
    /// false, checks are removed on uncorrupted-semantics proofs alone —
    /// the classical (pre-fix) policy.
    pub harden: bool,
    /// Program facts.
    pub(crate) sums: Summaries,
    /// Whole-program abstract value of each global.
    pub wpv: Vec<AVal>,
    /// Join of argument values at every call site, per function.
    pub entry: Vec<Option<Vec<AVal>>>,
    /// Fault-hardened twin of [`Engine::entry`].
    pub entry_hard: Vec<Option<Vec<AVal>>>,
    /// Return-value summaries.
    pub retv: Vec<AVal>,
    /// Fault-hardened twin of [`Engine::retv`].
    pub retv_hard: Vec<AVal>,
    /// Fixpoint rounds the analysis ran (at most [`MAX_ROUNDS`]).
    pub rounds: usize,
    /// Whether the analysis's last round changed no summary; `false`
    /// means it stopped at [`MAX_ROUNDS`] short of a fixpoint.
    pub quiet: bool,
    /// Function walks the analysis made across all its rounds.
    pub walks: usize,
    /// Environment work of every walk so far (analysis and transform):
    /// slots written by copying an arm's writes out, by rollbacks and by
    /// replays, plus slots visited by joins. Building a walk's entry
    /// environment is not counted.
    pub env_work: u64,
    changed: bool,
    /// `gdeps[g]`: functions whose walk reads global `g` — the ones a
    /// change to `wpv[g]` can re-derive facts in.
    gdeps: Vec<Vec<u32>>,
    /// Call-graph inverse: `callers[f]` = functions with a call to `f`
    /// (deduplicated), dirtied when `f`'s return summary grows.
    callers: Vec<Vec<u32>>,
    /// The sparse worklist: functions whose analysis inputs (entry
    /// values, mentioned globals, callee return summaries) changed since
    /// their last walk. A function whose inputs are unchanged re-derives
    /// exactly the same joins (the walk is idempotent), so clean
    /// functions are skipped without changing any result.
    dirty: Vec<bool>,
}

impl Engine {
    /// Runs the fixpoint analysis over `program` with fault-hardened
    /// check elimination (the default policy).
    ///
    /// Takes `&mut` only to borrow the function bodies in place (they
    /// are moved out and restored, never cloned); the program is
    /// unchanged when this returns.
    pub fn analyze(program: &mut Program, domain: DomainKind) -> Engine {
        Self::analyze_opts(program, domain, true)
    }

    /// [`Engine::analyze`] with the hardening policy explicit.
    pub fn analyze_opts(program: &mut Program, domain: DomainKind, harden: bool) -> Engine {
        let sums = summarize(program);
        let ng = program.globals.len();
        let nf = program.functions.len();
        let mut wpv = Vec::with_capacity(ng);
        for (gi, g) in program.globals.iter().enumerate() {
            let v = if sums.addr_taken[gi] {
                AVal::top_for(&g.ty)
            } else {
                match (&g.ty, &g.init) {
                    (Type::Int(k), Init::Zero) => AVal::Int(Ival::const_(0)).normed(domain, *k),
                    (Type::Int(k), Init::Int(v)) => {
                        AVal::Int(Ival::const_(k.wrap(*v))).normed(domain, *k)
                    }
                    (Type::Ptr(..), Init::Zero | Init::Int(_)) => AVal::Ptr(APtr::null()),
                    _ => AVal::top_for(&g.ty),
                }
            };
            wpv.push(v);
        }
        // Dependency edges for the sparse worklist: which functions a
        // changed global summary or return summary can affect.
        let mut gdeps: Vec<Vec<u32>> = vec![Vec::new(); ng];
        for (fi, row) in sums.mentions.iter().enumerate() {
            for (gi, &m) in row.iter().enumerate() {
                if m {
                    gdeps[gi].push(fi as u32);
                }
            }
        }
        let mut callers: Vec<Vec<u32>> = vec![Vec::new(); nf];
        for (fi, callees) in sums.callees.iter().enumerate() {
            for &c in callees {
                let row = &mut callers[c as usize];
                if row.last() != Some(&(fi as u32)) && !row.contains(&(fi as u32)) {
                    row.push(fi as u32);
                }
            }
        }
        let mut eng = Engine {
            domain,
            harden,
            sums,
            wpv,
            entry: vec![None; nf],
            entry_hard: vec![None; nf],
            retv: vec![AVal::Bot; nf],
            retv_hard: vec![AVal::Bot; nf],
            rounds: 0,
            quiet: false,
            walks: 0,
            env_work: 0,
            changed: true,
            gdeps,
            callers,
            // Everyone starts dirty: round 1 walks every live function,
            // exactly like the dense engine did.
            dirty: vec![true; nf],
        };
        // Roots have no parameters.
        for (i, f) in program.functions.iter().enumerate() {
            if program.entry == Some(FuncId(i as u32)) || f.interrupt.is_some() {
                eng.entry[i] = Some(vec![]);
                eng.entry_hard[i] = Some(vec![]);
            }
        }
        // Move the bodies out of the program so the walker can borrow
        // the rest of it as context — no per-round (or any) body clones.
        let mut bodies: Vec<Block> = program
            .functions
            .iter_mut()
            .map(|f| std::mem::take(&mut f.body))
            .collect();
        // The loop condition (and therefore the fixpoint reached) is the
        // same as the dense engine's; `dirty` only filters *within* a
        // round. A clean function's inputs — its entry values, the
        // globals it mentions, its callees' return summaries — are
        // unchanged since its last walk, and a walk over unchanged
        // inputs re-derives exactly the joins it already published
        // (joins are monotone and idempotent), so skipping it cannot
        // alter any summary or the round count.
        while eng.changed && eng.rounds < MAX_ROUNDS {
            eng.changed = false;
            eng.rounds += 1;
            for (fi, body) in bodies.iter_mut().enumerate() {
                if !eng.dirty[fi] {
                    continue;
                }
                eng.dirty[fi] = false;
                if !eng.sums.reachable[fi] || eng.entry[fi].is_none() {
                    continue;
                }
                let mut stats = EngineStats::default();
                eng.walks += 1;
                eng.walk_function(program, fi, body, false, &mut stats);
            }
        }
        eng.quiet = !eng.changed;
        for (f, body) in program.functions.iter_mut().zip(bodies) {
            f.body = body;
        }
        eng
    }

    /// Re-queues every function that mentions global `gi` (its walk can
    /// derive different facts once `wpv[gi]` widens).
    fn mark_global_deps(&mut self, gi: usize) {
        for i in 0..self.gdeps[gi].len() {
            let f = self.gdeps[gi][i] as usize;
            self.dirty[f] = true;
        }
    }

    /// Re-queues every caller of `fi` (their call sites read its return
    /// summary).
    fn mark_callers(&mut self, fi: usize) {
        for i in 0..self.callers[fi].len() {
            let f = self.callers[fi][i] as usize;
            self.dirty[f] = true;
        }
    }

    /// Applies the analysis results: folds constants and branches, deletes
    /// proven checks. Returns what changed.
    pub fn transform(&mut self, program: &mut Program) -> EngineStats {
        let mut stats = EngineStats::default();
        // The walker reads only body-independent context (locals, globals,
        // structs, strings) from the program, so moving every body out at
        // once avoids the whole-program snapshot clone.
        let mut bodies: Vec<Block> = program
            .functions
            .iter_mut()
            .map(|f| std::mem::take(&mut f.body))
            .collect();
        for (fi, body) in bodies.iter_mut().enumerate() {
            if !self.sums.reachable[fi] || self.entry[fi].is_none() {
                continue;
            }
            self.walk_function(program, fi, body, true, &mut stats);
        }
        for (f, body) in program.functions.iter_mut().zip(bodies) {
            f.body = body;
        }
        for f in &mut program.functions {
            visit::sweep_nops(&mut f.body);
        }
        stats
    }

    fn entry_env(&self, program: &Program, fi: usize) -> Env {
        let f = &program.functions[fi];
        let nl = f.locals.len();
        let mut slots = Vec::with_capacity(2 * nl + self.wpv.len());
        slots.extend(f.locals.iter().map(|l| AVal::top_for(&l.ty)));
        slots.extend_from_within(..nl);
        slots.extend_from_slice(&self.wpv);
        for (i, v) in self.entry[fi].iter().flatten().take(nl).enumerate() {
            slots[i] = *v;
        }
        for (i, v) in self.entry_hard[fi].iter().flatten().take(nl).enumerate() {
            slots[nl + i] = *v;
        }
        Env::new(slots, nl)
    }

    fn walk_function(
        &mut self,
        program: &Program,
        fi: usize,
        body: &mut Block,
        transform: bool,
        stats: &mut EngineStats,
    ) {
        let mut env = self.entry_env(program, fi);
        let mut w = Walker {
            eng: self,
            prog: program,
            fidx: fi,
            atomic: 0,
            transform,
            loop_breaks: Vec::new(),
        };
        w.walk_block(body, &mut env, stats);
        self.env_work += env.work;
    }
}

trait Normed {
    fn normed(self, domain: DomainKind, kind: IntKind) -> Self;
}

impl Normed for AVal {
    /// In the constants domain, non-singleton intervals collapse to top.
    fn normed(self, domain: DomainKind, kind: IntKind) -> AVal {
        match (domain, self) {
            (DomainKind::Constants, AVal::Int(i)) => {
                if i.as_const().is_some() {
                    self
                } else {
                    AVal::Int(Ival::top(kind))
                }
            }
            _ => self,
        }
    }
}

struct Walker<'a> {
    eng: &'a mut Engine,
    prog: &'a Program,
    fidx: usize,
    atomic: u32,
    transform: bool,
    /// The break states of each enclosing loop; `None` while a loop's
    /// fixpoint iterates (only its final pass needs them).
    loop_breaks: Vec<Option<Breaks>>,
}

/// The break states of a loop's final pass over its body.
struct Breaks {
    /// The trail mark of the pass's fork from the loop head.
    mark: usize,
    /// Per `break`, the slots written since the fork.
    states: Vec<Writes>,
}

impl Walker<'_> {
    fn func(&self) -> &Function {
        &self.prog.functions[self.fidx]
    }

    /// Whether loads of global `g` may use the flow-sensitive value.
    fn refinable(&self, g: usize) -> bool {
        if self.eng.sums.addr_taken[g] {
            return false;
        }
        if !self.eng.sums.async_touched[g] {
            return true;
        }
        // Async-touched globals: only inside atomic sections, and always
        // within interrupt handlers themselves (nothing preempts them).
        self.atomic > 0 || self.func().interrupt.is_some()
    }

    // ----- evaluation -----

    /// Evaluates `e` under uncorrupted program semantics.
    fn eval(&self, e: &Expr, env: &Env) -> AVal {
        self.eval_in(e, env, false)
    }

    /// Evaluates `e`; with `hard` set, under the fault model — loads of
    /// RAM-resident mutable globals return the global's full type range
    /// and locals read their hardened shadow values. With `hard` unset
    /// (or hardening disabled engine-wide) this is the ordinary
    /// evaluation.
    fn eval_in(&self, e: &Expr, env: &Env, hard: bool) -> AVal {
        let hard = hard && self.eng.harden;
        let v = match &e.kind {
            ExprKind::Const(c) => match &e.ty {
                Type::Ptr(..) if *c == 0 => AVal::Ptr(APtr::null()),
                Type::Int(_) => AVal::Int(Ival::const_(*c)),
                _ => AVal::Top,
            },
            ExprKind::Str(id) => {
                let len = self.prog.strings.get(*id).len() as i64;
                AVal::Ptr(APtr::object(Ival::const_(len + 1), Ival::const_(0)))
            }
            ExprKind::SizeOf(t) => AVal::Int(Ival::const_(size_of(t, &self.prog.structs) as i64)),
            ExprKind::Load(p) => self.eval_place(p, env, hard),
            ExprKind::AddrOf(p) => AVal::Ptr(addr_of_value(
                p,
                |pl| self.place_ty(pl),
                &self.prog.structs,
                |i| match self.eval_in(i, env, hard) {
                    AVal::Int(iv) => iv,
                    _ => Ival::any(),
                },
            )),
            ExprKind::MakeFat { val, .. } => self.eval_in(val, env, hard),
            ExprKind::Unary(op, a) => match self.eval_in(a, env, hard) {
                AVal::Int(i) => {
                    let k = a.ty.as_int().unwrap_or(IntKind::U16);
                    AVal::Int(Ival::unop(*op, i, k))
                }
                AVal::Ptr(p) if *op == UnOp::Not => match p.null {
                    Tri::Yes => AVal::Int(Ival::const_(1)),
                    Tri::No => AVal::Int(Ival::const_(0)),
                    Tri::Maybe => AVal::Int(Ival::Range(0, 1)),
                },
                _ => AVal::top_for(&e.ty),
            },
            ExprKind::Binary(op, a, b) => self.eval_binary(*op, a, b, env, &e.ty, hard),
            ExprKind::Cast(a) => match (self.eval_in(a, env, hard), e.ty.as_int()) {
                (AVal::Int(i), Some(k)) => AVal::Int(i.cast(k)),
                (v @ AVal::Ptr(_), None) if e.ty.is_ptr() => v,
                _ => AVal::top_for(&e.ty),
            },
        };
        match e.ty.as_int() {
            Some(k) => v.normed(self.eng.domain, k),
            None => v,
        }
    }

    fn eval_binary(&self, op: BinOp, a: &Expr, b: &Expr, env: &Env, ty: &Type, hard: bool) -> AVal {
        let va = self.eval_in(a, env, hard);
        let vb = self.eval_in(b, env, hard);
        match op {
            BinOp::PtrAdd | BinOp::PtrSub => {
                let elem = match &a.ty {
                    Type::Ptr(t, _) => size_of(t, &self.prog.structs) as i64,
                    _ => 1,
                };
                let (AVal::Ptr(p), AVal::Int(i)) = (va, vb) else {
                    return AVal::Ptr(APtr::top());
                };
                let mut delta = Ival::binop(BinOp::Mul, i, Ival::const_(elem), IntKind::I32);
                if op == BinOp::PtrSub {
                    delta = Ival::unop(UnOp::Neg, delta, IntKind::I32);
                }
                AVal::Ptr(p.advance(delta))
            }
            BinOp::Eq | BinOp::Ne if a.ty.is_ptr() || b.ty.is_ptr() => {
                let decided = match (va.as_ptr().map(|p| p.null), vb.as_ptr().map(|p| p.null)) {
                    (Some(Tri::Yes), Some(Tri::Yes)) => Some(true),
                    (Some(Tri::Yes), Some(Tri::No)) | (Some(Tri::No), Some(Tri::Yes)) => {
                        Some(false)
                    }
                    _ => None,
                };
                match decided {
                    Some(eq) => {
                        let t = if op == BinOp::Eq { eq } else { !eq };
                        AVal::Int(Ival::const_(t as i64))
                    }
                    None => AVal::Int(Ival::Range(0, 1)),
                }
            }
            _ => {
                let (AVal::Int(ia), AVal::Int(ib)) = (va, vb) else {
                    return AVal::top_for(ty);
                };
                let k =
                    a.ty.as_int()
                        .or_else(|| b.ty.as_int())
                        .unwrap_or(IntKind::U16);
                AVal::Int(Ival::binop(op, ia, ib, k))
            }
        }
    }

    fn eval_place(&self, p: &Place, env: &Env, hard: bool) -> AVal {
        if !p.elems.is_empty() {
            return AVal::top_for(&p.ty);
        }
        match &p.base {
            PlaceBase::Local(id) => {
                let i = id.0 as usize;
                env.slots[if hard { env.hard_slot(i) } else { i }]
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                if hard && !self.prog.globals[gi].is_const {
                    // A RAM cell under the fault model: any value of its
                    // type (`const` globals live in ROM and are immune).
                    return AVal::top_for(&p.ty);
                }
                if self.refinable(gi) {
                    env.global(gi)
                } else {
                    self.eng.wpv[gi]
                }
            }
            PlaceBase::Deref(_) => AVal::top_for(&p.ty),
        }
    }

    fn place_ty(&self, p: &Place) -> Type {
        let mut ty = match &p.base {
            PlaceBase::Local(id) => self.func().locals[id.0 as usize].ty.clone(),
            PlaceBase::Global(g) => self.prog.globals[g.0 as usize].ty.clone(),
            PlaceBase::Deref(e) => match &e.ty {
                Type::Ptr(t, _) => (**t).clone(),
                _ => Type::u8(),
            },
        };
        for el in &p.elems {
            match el {
                PlaceElem::Field { sid, idx } => {
                    ty = self.prog.structs[sid.0 as usize].fields[*idx as usize]
                        .ty
                        .clone();
                }
                PlaceElem::Index(_) => {
                    if let Type::Array(t, _) = ty {
                        ty = *t;
                    }
                }
            }
        }
        ty
    }

    // ----- assignment effects -----

    fn assign_place(&mut self, p: &Place, v: AVal, v_hard: AVal, env: &mut Env) {
        if !p.elems.is_empty() {
            // Field/array stores: field-insensitive; nothing tracked, but a
            // store through a pointer may hit address-taken globals (their
            // wpv is already Top).
            return;
        }
        match &p.base {
            PlaceBase::Local(id) => {
                let i = id.0 as usize;
                env.set(i, v);
                env.set(env.hard_slot(i), v_hard);
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                env.set(env.global_slot(gi), v);
                // Every store contributes to the whole-program value.
                if join_into(&mut self.eng.wpv[gi], v) {
                    self.eng.changed = true;
                    // A wider summary can re-derive facts in any function
                    // that mentions this global.
                    self.eng.mark_global_deps(gi);
                }
            }
            PlaceBase::Deref(_) => {}
        }
    }

    // ----- statements -----

    /// In transform mode, replaces `e`, whose value is `v`, by the
    /// constant `v` decides.
    fn fold_to_const(&self, e: &mut Expr, v: AVal, stats: &mut EngineStats) {
        if !self.transform {
            return;
        }
        if e.as_const().is_some() || !e.ty.is_int() {
            return;
        }
        // Loads of named variables are usually cheaper than wide constants;
        // still fold (the backend folds sizes anyway and DCE benefits).
        if let Some(c) = v.as_const() {
            let k = e.ty.as_int().unwrap_or(IntKind::U16);
            *e = Expr::const_int(c, k);
            stats.consts_folded += 1;
        }
    }

    fn walk_block(&mut self, b: &mut Block, env: &mut Env, stats: &mut EngineStats) {
        for s in b.iter_mut() {
            if !env.reachable {
                if self.transform {
                    *s = Stmt::Nop;
                }
                continue;
            }
            self.walk_stmt(s, env, stats);
        }
    }

    fn walk_stmt(&mut self, s: &mut Stmt, env: &mut Env, stats: &mut EngineStats) {
        match s {
            Stmt::Assign(place, e) => {
                let v = self.eval(e, env);
                self.fold_to_const(e, v, stats);
                // Hardened value after folding: a folded constant no
                // longer reads RAM, so it is fault-immune by construction.
                // (With hardening off the twin equals `v`; skip the
                // second evaluation.)
                let vh = if self.eng.harden {
                    self.eval_in(e, env, true)
                } else {
                    v
                };
                self.assign_place(place, v, vh, env);
            }
            Stmt::Call { dst, func, args } => {
                let callee = func.0 as usize;
                let params = self.prog.functions[callee].params as usize;
                // First call site discovered for this callee: it needs a
                // walk even if every slot join below is a no-op (a
                // 0-param callee has no slots at all), and the round
                // loop must run again to give it one — a callee first
                // reached in a round's last walk would otherwise never
                // be analysed, and its transform would fold from the
                // initial values of the globals it writes.
                let created = self.eng.entry[callee].is_none();
                if created {
                    self.eng.entry[callee] = Some(vec![AVal::Bot; params]);
                    self.eng.entry_hard[callee] = Some(vec![AVal::Bot; params]);
                }
                // Join each argument into the callee's entry summaries
                // (both worlds).
                let mut changed = false;
                for (i, a) in args.iter_mut().enumerate() {
                    let v = self.eval(a, env);
                    self.fold_to_const(a, v, stats);
                    let vh = if self.eng.harden {
                        self.eval_in(a, env, true)
                    } else {
                        v
                    };
                    let eng = &mut *self.eng;
                    if let Some(slot) = eng.entry[callee].as_mut().and_then(|e| e.get_mut(i)) {
                        changed |= join_into(slot, v);
                    }
                    if let Some(slot) = eng.entry_hard[callee].as_mut().and_then(|e| e.get_mut(i)) {
                        changed |= join_into(slot, vh);
                    }
                }
                if created || changed {
                    self.eng.changed = true;
                    self.eng.dirty[callee] = true;
                }
                // Havoc the globals the callee writes.
                for &g in &self.eng.sums.writes[callee] {
                    env.set(env.global_slot(g as usize), self.eng.wpv[g as usize]);
                }
                if let Some(d) = dst {
                    let rv = self.eng.retv[callee];
                    let rvh = self.eng.retv_hard[callee];
                    self.assign_place(d, rv, rvh, env);
                }
            }
            Stmt::BuiltinCall { dst, args, .. } => {
                if self.transform {
                    for a in args.iter_mut() {
                        let v = self.eval(a, env);
                        self.fold_to_const(a, v, stats);
                    }
                }
                if let Some(d) = dst {
                    let top = AVal::top_for(&d.ty);
                    self.assign_place(d, top, top, env);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let cv = self.eval(cond, env).truth();
                if let Some(t) = cv {
                    if self.transform {
                        let taken = if t {
                            std::mem::take(then_)
                        } else {
                            std::mem::take(else_)
                        };
                        stats.branches_folded += 1;
                        *s = Stmt::Block(taken);
                        // Re-walk the surviving branch.
                        self.walk_stmt(s, env, stats);
                        return;
                    }
                    // Analysis: only the taken branch contributes.
                    let b = if t { then_ } else { else_ };
                    self.walk_block(b, env, stats);
                    return;
                }
                // Both arms walk `env` in place from one fork. The `else`
                // refinement is taken first: it reads the state at the
                // fork, before the `then` arm can widen a global summary
                // it evaluates.
                let at = env.mark();
                self.refine_cond(cond, false, env);
                let refined_else = env.end_arm(at).unwrap_or_default();
                self.refine_cond(cond, true, env);
                self.walk_block(then_, env, stats);
                let then_state = env.end_arm(at);
                env.replay(&refined_else);
                self.walk_block(else_, env, stats);
                env.join_arms(at, then_state);
            }
            Stmt::While { cond, body } => {
                self.walk_while(cond, body, env, stats);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(e, env);
                    self.fold_to_const(e, v, stats);
                    let vh = if self.eng.harden {
                        self.eval_in(e, env, true)
                    } else {
                        v
                    };
                    let f = self.fidx;
                    if join_into(&mut self.eng.retv[f], v)
                        | join_into(&mut self.eng.retv_hard[f], vh)
                    {
                        self.eng.changed = true;
                        // A wider return summary feeds back into every
                        // call site.
                        self.eng.mark_callers(f);
                    }
                }
                env.reachable = false;
            }
            Stmt::Break => {
                if let Some(Some(breaks)) = self.loop_breaks.last_mut() {
                    breaks.states.push(env.written_since(breaks.mark));
                }
                env.reachable = false;
            }
            // Conservatively handled by the loop fixpoint (the loop head
            // env already joins every iteration state).
            Stmt::Continue => env.reachable = false,
            Stmt::Atomic { body, .. } => {
                self.atomic += 1;
                // Fresh observation point for async-touched globals.
                self.observe_async(env);
                self.walk_block(body, env, stats);
                self.atomic -= 1;
                self.observe_async(env);
            }
            Stmt::Block(b) => self.walk_block(b, env, stats),
            Stmt::Check(c) => {
                // Removal demands the proof in both worlds: the ordinary
                // one *and* the fault-hardened one, where every mutable
                // RAM global holds an arbitrary value of its type. A
                // check provable only from uncorrupted-run invariants is
                // exactly the fault coverage the cured build exists for.
                let passes = self.check_passes(c, env, false);
                if passes && (!self.eng.harden || self.check_passes(c, env, true)) {
                    if self.transform {
                        stats.checks_removed += 1;
                        *s = Stmt::Nop;
                    }
                } else {
                    // Execution continues only if the check passed:
                    // refine (the hardened shadow too — the running code
                    // really did pass this check).
                    self.refine_check(c, env);
                }
            }
            Stmt::Nop => {}
        }
    }

    /// Resets every async-touched global to its whole-program value.
    fn observe_async(&self, env: &mut Env) {
        for &g in &self.eng.sums.async_globals {
            env.set(env.global_slot(g as usize), self.eng.wpv[g as usize]);
        }
    }

    /// The integer kind a loop head widens slot `slot` against.
    fn slot_kind(&self, slot: usize) -> IntKind {
        let locals = &self.func().locals;
        let nl = locals.len();
        let ty = if slot < 2 * nl {
            &locals[slot % nl].ty
        } else {
            &self.prog.globals[slot - 2 * nl].ty
        };
        ty.as_int().unwrap_or(IntKind::I32)
    }

    fn walk_while(
        &mut self,
        cond: &mut Expr,
        body: &mut Block,
        env: &mut Env,
        stats: &mut EngineStats,
    ) {
        // Fixpoint over the loop head with analysis semantics: transforms
        // are off, so the body is walked in place and left unchanged.
        // Each iteration forks from the head in `env` and is joined back
        // into it.
        let transform = std::mem::replace(&mut self.transform, false);
        let entry = env.mark();
        let mut sink = EngineStats::default();
        for round in 0..4 {
            let at = env.mark();
            self.refine_cond(cond, true, env);
            self.loop_breaks.push(None);
            self.walk_block(body, env, &mut sink);
            self.loop_breaks.pop();
            let changed = if round >= 1 {
                // Widen to guarantee termination.
                env.join_iteration(at, Some(&|slot| self.slot_kind(slot)))
            } else {
                env.join_iteration(at, None)
            };
            if !changed {
                break;
            }
        }
        self.transform = transform;
        // Decided loop condition, at the head and before the loop?
        if self.transform && self.eval(cond, env).truth() == Some(false) {
            let head = env.written_since(entry);
            env.rollback(entry);
            if self.eval(cond, env).truth() == Some(false) {
                // Loop never runs at all.
                stats.branches_folded += 1;
                self.refine_cond(cond, false, env);
                cond.kind = ExprKind::Const(0);
                body.clear();
                return;
            }
            env.replay(&head);
        }
        // Final pass over the body with the stable invariant (transforming
        // if enabled).
        let at = env.mark();
        self.refine_cond(cond, true, env);
        self.loop_breaks.push(Some(Breaks {
            mark: at,
            states: Vec::new(),
        }));
        self.walk_block(body, env, stats);
        let breaks = self
            .loop_breaks
            .pop()
            .flatten()
            .map_or(Vec::new(), |b| b.states);
        // Exit env: head refined by !cond, joined with break states.
        env.rollback(at);
        self.refine_cond(cond, false, env);
        let cond_can_be_false = self.eval(cond, env).truth() != Some(true);
        if !cond_can_be_false && breaks.is_empty() {
            // while(1) with no breaks: nothing after the loop runs.
            env.reachable = false;
        }
        for b in &breaks {
            env.join_in(at, b);
        }
    }

    // ----- refinement -----

    fn refine_cond(&self, cond: &Expr, taken: bool, env: &mut Env) {
        match &cond.kind {
            ExprKind::Unary(UnOp::Not, inner) => self.refine_cond(inner, !taken, env),
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le), a, b) => {
                // Pointer null tests.
                if a.ty.is_ptr() || b.ty.is_ptr() {
                    let (ptr_e, other) = if a.ty.is_ptr() { (a, b) } else { (b, a) };
                    if self.eval(other, env).as_const() == Some(0)
                        || matches!(self.eval(other, env), AVal::Ptr(p) if p.null == Tri::Yes)
                    {
                        let nonnull = match (op, taken) {
                            (BinOp::Ne, true) | (BinOp::Eq, false) => Some(true),
                            (BinOp::Eq, true) | (BinOp::Ne, false) => Some(false),
                            _ => None,
                        };
                        if let Some(nn) = nonnull {
                            self.refine_ptr_null(ptr_e, nn, env);
                        }
                    }
                    return;
                }
                // Integer refinement on direct loads. The hardened
                // shadow refines too — the branch really executed on the
                // loaded value — but against the *hardened* bound: a
                // bound read from a corruptible global constrains
                // nothing in the fault world.
                let vb = match self.eval(b, env) {
                    AVal::Int(i) => i,
                    _ => return,
                };
                if let Some((target, AVal::Int(ia))) = self.refinable_load(a, env) {
                    let refined = ia.refine(*op, vb, taken);
                    self.set_refined(target, AVal::Int(refined), env);
                    if let (Some(AVal::Int(ha)), AVal::Int(hb)) =
                        (self.hard_of(target, env), self.eval_in(b, env, true))
                    {
                        self.set_refined_hard(target, AVal::Int(ha.refine(*op, hb, taken)), env);
                    }
                }
                // Symmetric case: const op load — flip the comparison.
                let va = match self.eval(a, env) {
                    AVal::Int(i) => i,
                    _ => return,
                };
                if let Some((target, AVal::Int(ib))) = self.refinable_load(b, env) {
                    let flipped = match op {
                        BinOp::Lt => BinOp::Le, // a < b  ≡  b >= a+1... approximate with >=
                        BinOp::Le => BinOp::Lt,
                        o => *o,
                    };
                    // a OP b refines b via the flipped relation with
                    // inverted taken-ness for orderings.
                    let refine_with = |ib: Ival, va: Ival| match op {
                        BinOp::Eq | BinOp::Ne => ib.refine(*op, va, taken),
                        _ => ib.refine(flipped, va, !taken),
                    };
                    self.set_refined(target, AVal::Int(refine_with(ib, va)), env);
                    if let (Some(AVal::Int(hb)), AVal::Int(ha)) =
                        (self.hard_of(target, env), self.eval_in(a, env, true))
                    {
                        self.set_refined_hard(target, AVal::Int(refine_with(hb, ha)), env);
                    }
                }
            }
            ExprKind::Load(_) => {
                if let Some((target, cur)) = self.refinable_load(cond, env) {
                    match cur {
                        AVal::Int(i) => {
                            let refined = if taken {
                                i // non-zero: can't express holes; keep
                            } else {
                                i.meet(Ival::const_(0))
                            };
                            self.set_refined(target, AVal::Int(refined), env);
                            if !taken {
                                if let Some(AVal::Int(h)) = self.hard_of(target, env) {
                                    self.set_refined_hard(
                                        target,
                                        AVal::Int(h.meet(Ival::const_(0))),
                                        env,
                                    );
                                }
                            }
                        }
                        AVal::Ptr(_) => self.refine_ptr_null(cond, taken, env),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    /// A load of a refinable location: returns the target and its current
    /// value.
    fn refinable_load(&self, e: &Expr, env: &Env) -> Option<(RefTarget, AVal)> {
        let inner = match &e.kind {
            ExprKind::Cast(a) => a,
            _ => e,
        };
        let ExprKind::Load(p) = &inner.kind else {
            return None;
        };
        if !p.elems.is_empty() {
            return None;
        }
        match &p.base {
            PlaceBase::Local(id) => {
                Some((RefTarget::Local(id.0 as usize), env.slots[id.0 as usize]))
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                if self.refinable(gi) {
                    Some((RefTarget::Global(gi), env.global(gi)))
                } else {
                    None
                }
            }
            PlaceBase::Deref(_) => None,
        }
    }

    fn set_refined(&self, target: RefTarget, v: AVal, env: &mut Env) {
        match target {
            RefTarget::Local(i) => env.set(i, v),
            RefTarget::Global(i) => env.set(env.global_slot(i), v),
        }
    }

    /// The fault-hardened shadow of a refinement target, if it has one
    /// (locals only — globals are unconditionally top in the fault
    /// world, so refining them there would be unsound).
    fn hard_of(&self, target: RefTarget, env: &Env) -> Option<AVal> {
        match target {
            RefTarget::Local(i) => Some(env.slots[env.hard_slot(i)]),
            RefTarget::Global(_) => None,
        }
    }

    fn set_refined_hard(&self, target: RefTarget, v: AVal, env: &mut Env) {
        if let RefTarget::Local(i) = target {
            env.set(env.hard_slot(i), v);
        }
    }

    fn refine_ptr_null(&self, e: &Expr, nonnull: bool, env: &mut Env) {
        if let Some((target, AVal::Ptr(mut p))) = self.refinable_load(e, env) {
            p.null = if nonnull { Tri::No } else { Tri::Yes };
            self.set_refined(target, AVal::Ptr(p), env);
            if let Some(AVal::Ptr(mut h)) = self.hard_of(target, env) {
                h.null = if nonnull { Tri::No } else { Tri::Yes };
                self.set_refined_hard(target, AVal::Ptr(h), env);
            }
        }
    }

    // ----- checks -----

    /// Whether `c` provably passes; with `hard`, under the fault model
    /// (see [`Walker::eval_in`]).
    fn check_passes(&self, c: &Check, env: &Env, hard: bool) -> bool {
        match &c.kind {
            CheckKind::NonNull(e) => {
                matches!(self.eval_in(e, env, hard), AVal::Ptr(p) if p.null == Tri::No)
            }
            CheckKind::Upper { ptr, len } => match self.eval_in(ptr, env, hard) {
                AVal::Ptr(p) => {
                    p.null == Tri::No
                        && matches!(p.room.bounds(), Some((lo, _)) if lo >= *len as i64)
                }
                _ => false,
            },
            CheckKind::Bounds { ptr, len } => match self.eval_in(ptr, env, hard) {
                AVal::Ptr(p) => {
                    p.null == Tri::No
                        && matches!(p.room.bounds(), Some((lo, _)) if lo >= *len as i64)
                        && matches!(p.back.bounds(), Some((lo, _)) if lo >= 0)
                }
                _ => false,
            },
            CheckKind::IndexBound { idx, n } => match self.eval_in(idx, env, hard) {
                AVal::Int(i) => {
                    matches!(i.bounds(), Some((lo, hi)) if lo >= 0 && hi < *n as i64)
                }
                _ => false,
            },
        }
    }

    /// After a passing check, execution is conditioned on its truth —
    /// in both worlds: whatever may have been corrupted beforehand, the
    /// value the surviving check just tested satisfied it.
    fn refine_check(&self, c: &Check, env: &mut Env) {
        let (ptr_expr, need_room, need_back) = match &c.kind {
            CheckKind::NonNull(e) => (e, None, false),
            CheckKind::Upper { ptr, len } => (ptr, Some(*len), false),
            CheckKind::Bounds { ptr, len } => (ptr, Some(*len), true),
            CheckKind::IndexBound { idx, n } => {
                if let Some((target, AVal::Int(i))) = self.refinable_load(idx, env) {
                    let range = Ival::Range(0, *n as i64 - 1);
                    self.set_refined(target, AVal::Int(i.meet(range)), env);
                    if let Some(AVal::Int(h)) = self.hard_of(target, env) {
                        self.set_refined_hard(target, AVal::Int(h.meet(range)), env);
                    }
                }
                return;
            }
        };
        if let Some((target, AVal::Ptr(mut p))) = self.refinable_load(ptr_expr, env) {
            let strengthen = |p: &mut APtr| {
                p.null = Tri::No;
                if let Some(len) = need_room {
                    p.room = p.room.meet(Ival::Range(len as i64, i64::MAX / 4));
                }
                if need_back {
                    p.back = p.back.meet(Ival::Range(0, i64::MAX / 4));
                }
            };
            strengthen(&mut p);
            self.set_refined(target, AVal::Ptr(p), env);
            if let Some(AVal::Ptr(mut h)) = self.hard_of(target, env) {
                strengthen(&mut h);
                self.set_refined_hard(target, AVal::Ptr(h), env);
            }
        }
    }
}

#[derive(Clone, Copy)]
enum RefTarget {
    Local(usize),
    Global(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cured(src: &str) -> Program {
        let mut p = tcil::parse_and_lower(src).unwrap();
        ccured::cure(&mut p, &ccured::CureOptions::default()).unwrap();
        p
    }

    fn global(p: &Program, name: &str) -> usize {
        p.find_global(name).unwrap().0 as usize
    }

    fn func(p: &Program, name: &str) -> usize {
        p.find_function(name).unwrap().0 as usize
    }

    fn range(lo: i64, hi: i64) -> AVal {
        AVal::Int(Ival::Range(lo, hi))
    }

    /// Branches, loops with `break` and `continue`, nested loops, calls,
    /// returns inside loops, atomic sections, and checks.
    const MIXED: &str = "
        uint8_t buf[12];
        uint8_t g;
        uint16_t sum;
        uint8_t find(uint8_t * p, uint8_t n, uint8_t v) {
            uint8_t i;
            i = 0;
            while (i < n) {
                i = i + 1;
                if (p[i - 1] == v) { return i; }
                if (p[i - 1] == 0) { continue; }
                g = i;
            }
            return n;
        }
        void main() {
            uint8_t i; uint8_t j; uint8_t c;
            c = __hw_read8(0xF000);
            for (i = 0; i < 4; i++) {
                for (j = 0; j < 3; j++) {
                    if (c > j) { sum += buf[i * 3 + j]; } else { break; }
                }
                atomic { g = (uint8_t)(g + find(buf, 12, c)); }
            }
        }";

    #[test]
    fn analysis_leaves_the_program_unchanged() {
        // The loop fixpoint walks bodies in place with transforms off;
        // nothing in analysis mode may write to the program.
        let mut p = cured(MIXED);
        let before = p.clone();
        Engine::analyze(&mut p, DomainKind::Intervals);
        assert_eq!(p, before);
        Engine::analyze_opts(&mut p, DomainKind::Constants, false);
        assert_eq!(p, before);
    }

    #[test]
    fn if_else_join_is_exact() {
        let mut p = cured(
            "uint8_t g;
             uint8_t pick(uint8_t c) {
                 uint8_t y;
                 if (c < 10) { g = 1; y = 5; } else { g = 3; y = 7; }
                 return y;
             }
             uint8_t seen(uint8_t c) {
                 if (c < 10) { g = 2; } else { return 0; }
                 return c;
             }
             void main() { uint8_t c; c = __hw_read8(0xF000); pick(c); seen(c); }",
        );
        let eng = Engine::analyze(&mut p, DomainKind::Intervals);
        assert_eq!(eng.wpv[global(&p, "g")], range(0, 3));
        let pick = func(&p, "pick");
        assert_eq!(
            (eng.retv[pick], eng.retv_hard[pick]),
            (range(5, 7), range(5, 7))
        );
        // Only the `then` side reaches the join: its refinement survives.
        let seen = func(&p, "seen");
        assert_eq!(eng.retv[seen], range(0, 9));
    }

    #[test]
    fn loop_with_break_is_exact() {
        let mut p = cured(
            "uint8_t last;
             uint8_t count(uint8_t n) {
                 uint8_t i;
                 i = 0;
                 while (i < 10) {
                     if (i == n) { break; }
                     last = i;
                     i = i + 1;
                 }
                 return i;
             }
             void main() { count(__hw_read8(0xF000)); }",
        );
        let eng = Engine::analyze(&mut p, DomainKind::Intervals);
        let count = func(&p, "count");
        assert_eq!(eng.wpv[global(&p, "last")], range(0, 9));
        assert_eq!(eng.retv[count], range(0, 255));
    }

    #[test]
    fn nested_loop_under_transform_is_exact() {
        let src = "
            uint8_t buf[12];
            uint16_t sum;
            uint8_t last;
            void main() {
                uint8_t i; uint8_t j;
                for (i = 0; i < 4; i++) {
                    for (j = 0; j < 3; j++) {
                        last = j;
                        sum += buf[i * 3 + j];
                    }
                }
            }";
        let mut p = cured(src);
        assert!(p.count_checks() > 0);
        let mut eng = Engine::analyze(&mut p, DomainKind::Intervals);
        let last = global(&p, "last");
        assert_eq!(eng.wpv[last], range(0, 2));
        let stats = eng.transform(&mut p);
        assert_eq!(eng.wpv[last], range(0, 2));
        assert_eq!(p.count_checks(), 0, "{stats:?}");
        assert_eq!(
            stats,
            EngineStats {
                checks_removed: 1,
                branches_folded: 0,
                consts_folded: 2,
            }
        );
    }

    /// The copy-per-fork environment the trail replaced, kept as the
    /// reference: a fork copies every slot, each slot carries the epoch
    /// of the last write that changed it, and a join visits the slots
    /// either copy stamped after the fork.
    #[derive(Clone)]
    struct CopyEnv {
        slots: Vec<AVal>,
        stamps: Vec<u32>,
        epoch: u32,
        reachable: bool,
    }

    impl CopyEnv {
        fn set(&mut self, slot: usize, v: AVal) {
            if self.slots[slot] != v {
                self.slots[slot] = v;
                self.stamps[slot] = self.epoch;
            }
        }

        fn fork_point(&mut self) -> u32 {
            self.epoch += 1;
            self.epoch - 1
        }

        fn join_since(
            &mut self,
            other: &CopyEnv,
            at: u32,
            widen: Option<&dyn Fn(usize) -> IntKind>,
        ) -> bool {
            if !other.reachable {
                return false;
            }
            if !self.reachable {
                *self = other.clone();
                return true;
            }
            let mut changed = false;
            for i in 0..self.slots.len() {
                let stamp = self.stamps[i].max(other.stamps[i]);
                if stamp <= at {
                    continue;
                }
                let a = self.slots[i];
                let j = a.join(other.slots[i]);
                if j != a {
                    self.slots[i] = match widen {
                        Some(kind) => a.widen(j, kind(i)),
                        None => j,
                    };
                    self.stamps[i] = stamp;
                    changed = true;
                }
            }
            self.epoch = self.epoch.max(other.epoch);
            changed
        }
    }

    /// A random walk over the statements the walker forks at. `Set`s
    /// stand for assignments and refinements alike.
    enum Op {
        Set(usize, AVal),
        /// `return` or `continue`: the rest of the block is unreachable.
        Leave,
        Break,
        If {
            refine_then: Vec<(usize, AVal)>,
            refine_else: Vec<(usize, AVal)>,
            then_: Vec<Op>,
            else_: Vec<Op>,
        },
        While {
            refine_in: Vec<(usize, AVal)>,
            refine_out: Vec<(usize, AVal)>,
            /// The condition can be false (else only breaks leave).
            exits: bool,
            body: Vec<Op>,
        },
    }

    const SLOTS: usize = 9;

    fn slot_kind(slot: usize) -> IntKind {
        [IntKind::U8, IntKind::I16, IntKind::U16][slot % 3]
    }

    fn value(rng: &mut mcu::faults::SplitMix64) -> AVal {
        let k = rng.below(6) as i64;
        match rng.below(6) {
            0 => AVal::Bot,
            1 => AVal::Top,
            2 => AVal::Int(Ival::const_(k)),
            3 => range(k - 3, k),
            4 => AVal::Ptr(APtr::null()),
            _ => AVal::Ptr(APtr::object(Ival::Range(k, 8), Ival::const_(0))),
        }
    }

    fn sets(rng: &mut mcu::faults::SplitMix64) -> Vec<(usize, AVal)> {
        (0..rng.below(3))
            .map(|_| (rng.below(SLOTS as u64) as usize, value(rng)))
            .collect()
    }

    fn ops(rng: &mut mcu::faults::SplitMix64, depth: u32, in_loop: bool) -> Vec<Op> {
        (0..1 + rng.below(5))
            .map(|_| match rng.below(if depth == 0 { 8 } else { 12 }) {
                0 => Op::Leave,
                1 if in_loop => Op::Break,
                8 | 9 => Op::If {
                    refine_then: sets(rng),
                    refine_else: sets(rng),
                    then_: ops(rng, depth - 1, in_loop),
                    else_: ops(rng, depth - 1, in_loop),
                },
                10 | 11 => Op::While {
                    refine_in: sets(rng),
                    refine_out: sets(rng),
                    exits: rng.below(4) != 0,
                    body: ops(rng, depth - 1, true),
                },
                _ => Op::Set(rng.below(SLOTS as u64) as usize, value(rng)),
            })
            .collect()
    }

    /// The reference and the trail environment in lockstep, each through
    /// the protocol its walker uses.
    struct Lockstep {
        /// Open forks: the reference's fork epoch and the trail's mark.
        forks: Vec<(u32, usize)>,
        /// Per enclosing loop, its final pass's fork and break states.
        breaks: Vec<Option<BreakStates>>,
    }

    /// A loop's final-pass fork mark and its break states, both ways.
    type BreakStates = (usize, Vec<CopyEnv>, Vec<Writes>);

    impl Lockstep {
        /// Both environments hold the same slots and reachability, and
        /// for every open fork the reference's slots stamped after it are
        /// exactly the trail's slots written since its mark.
        fn check(&self, r: &CopyEnv, t: &Env) {
            assert_eq!(r.slots, t.slots);
            assert_eq!(r.reachable, t.reachable);
            for &(at, mark) in &self.forks {
                let stamped: Vec<bool> = r.stamps.iter().map(|&s| s > at).collect();
                let mut written = vec![false; SLOTS];
                for &(s, _) in &t.trail[mark..] {
                    written[s as usize] = true;
                }
                assert_eq!(stamped, written, "slots written since fork {at}");
            }
        }

        fn walk(&mut self, ops: &[Op], r: &mut CopyEnv, t: &mut Env) {
            for op in ops {
                if !r.reachable {
                    break;
                }
                self.walk_op(op, r, t);
                self.check(r, t);
            }
        }

        fn walk_op(&mut self, op: &Op, r: &mut CopyEnv, t: &mut Env) {
            let apply = |sets: &[(usize, AVal)], r: &mut CopyEnv, t: &mut Env| {
                for &(s, v) in sets {
                    r.set(s, v);
                    t.set(s, v);
                }
            };
            match op {
                Op::Set(s, v) => apply(&[(*s, *v)], r, t),
                Op::Leave => {
                    r.reachable = false;
                    t.reachable = false;
                }
                Op::Break => {
                    if let Some(Some((mark, copies, writes))) = self.breaks.last_mut() {
                        copies.push(r.clone());
                        writes.push(t.written_since(*mark));
                    }
                    r.reachable = false;
                    t.reachable = false;
                }
                Op::If {
                    refine_then,
                    refine_else,
                    then_,
                    else_,
                } => {
                    let at = r.fork_point();
                    let mut r_else = r.clone();
                    let mark = t.mark();
                    self.forks.push((at, mark));
                    apply(refine_else, &mut r_else, t);
                    let refined_else = t.end_arm(mark).unwrap_or_default();
                    apply(refine_then, r, t);
                    self.walk(then_, r, t);
                    let then_state = t.end_arm(mark);
                    t.replay(&refined_else);
                    self.check(&r_else, t);
                    self.walk(else_, &mut r_else, t);
                    self.forks.pop();
                    if r.reachable {
                        r.join_since(&r_else, at, None);
                    } else {
                        *r = r_else;
                    }
                    t.join_arms(mark, then_state);
                }
                Op::While {
                    refine_in,
                    refine_out,
                    exits,
                    body,
                } => {
                    let kind: &dyn Fn(usize) -> IntKind = &slot_kind;
                    let mut head = r.clone();
                    for round in 0..4 {
                        let at = head.fork_point();
                        let mut iter = head.clone();
                        let mark = t.mark();
                        self.forks.push((at, mark));
                        apply(refine_in, &mut iter, t);
                        self.breaks.push(None);
                        self.walk(body, &mut iter, t);
                        self.breaks.pop();
                        self.forks.pop();
                        let widen = (round >= 1).then_some(kind);
                        let changed = head.join_since(&iter, at, widen);
                        assert_eq!(changed, t.join_iteration(mark, widen));
                        self.check(&head, t);
                        if !changed {
                            break;
                        }
                    }
                    let at = head.fork_point();
                    let mut pass = head.clone();
                    let mark = t.mark();
                    self.forks.push((at, mark));
                    apply(refine_in, &mut pass, t);
                    self.breaks.push(Some((mark, Vec::new(), Vec::new())));
                    self.walk(body, &mut pass, t);
                    let (_, copies, writes) = self.breaks.pop().flatten().unwrap();
                    let mut exit = head;
                    t.rollback(mark);
                    apply(refine_out, &mut exit, t);
                    if !exits && copies.is_empty() {
                        exit.reachable = false;
                        t.reachable = false;
                    }
                    for (copy, w) in copies.iter().zip(&writes) {
                        exit.join_since(copy, at, None);
                        t.join_in(mark, w);
                        self.check(&exit, t);
                    }
                    self.forks.pop();
                    *r = exit;
                }
            }
        }
    }

    #[test]
    fn trail_environment_matches_the_copying_one() {
        for seed in 0..400 {
            let mut rng = mcu::faults::SplitMix64::new(seed);
            let program = ops(&mut rng, 3, false);
            let slots: Vec<AVal> = (0..SLOTS).map(|_| value(&mut rng)).collect();
            let mut r = CopyEnv {
                slots: slots.clone(),
                stamps: vec![0; SLOTS],
                epoch: 0,
                reachable: true,
            };
            let mut t = Env::new(slots, 3);
            let mut lockstep = Lockstep {
                forks: Vec::new(),
                breaks: Vec::new(),
            };
            lockstep.walk(&program, &mut r, &mut t);
            lockstep.check(&r, &t);
        }
    }

    #[test]
    fn hardened_twin_stays_separate_across_a_join() {
        let mut p = cured(
            "uint8_t g;
             uint8_t src(uint8_t c) {
                 uint8_t x;
                 if (c < 10) { x = g; } else { x = 3; }
                 return x;
             }
             void main() { uint8_t c; g = 5; c = __hw_read8(0xF000); src(c); }",
        );
        let eng = Engine::analyze(&mut p, DomainKind::Intervals);
        let f = func(&p, "src");
        assert_eq!(eng.wpv[global(&p, "g")], range(0, 5));
        assert_eq!(eng.retv[f], range(0, 5));
        assert_eq!(eng.retv_hard[f], range(0, 255));
        let eng = Engine::analyze_opts(&mut p, DomainKind::Intervals, false);
        assert_eq!(eng.retv_hard[f], range(0, 5));
    }
}
