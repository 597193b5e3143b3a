//! The concurrency census: one walk per program that every race analysis
//! of the toolchain reads.
//!
//! The model is nesC's two-level concurrency: *synchronous* code (tasks
//! and `main`) is non-preemptive; *asynchronous* code (interrupt handlers
//! and everything they call) can preempt it. A handler enters with
//! interrupts disabled, so code only handlers run is protected — unless
//! the handler's call subtree re-enables them (`__irq_enable()`, or a
//! disable/enable `atomic` whose exit turns them back on). Such a handler
//! is *preemptible*: its code outside `atomic` can be interrupted exactly
//! like synchronous code, and every verdict counts it that way.
//!
//! [`Census::of`] records, in one walk over the live functions:
//!
//! * the [`Contexts`] each function runs in;
//! * per global, its asynchronous and unprotected reads and writes and
//!   whether its address is taken — the Eraser-style
//!   per-variable lockset view with the interrupt flag as the one lock;
//! * per context, whether any statement dereferences a pointer and
//!   whether one writes through it;
//! * every direct access of a statement to a global ([`Site`]), numbered
//!   as [`visit::walk_stmts_sited`] numbers statements.
//!
//! The toolchain's race analyses are verdicts over it:
//!
//! * [`Census::nesc_racy`] — the nesC compiler's non-atomic variable
//!   report, which the frontend stores in [`Global::racy`] for CCured's
//!   lock insertion (§2.2): a global is racy when both an asynchronous
//!   and an unprotected access exist; an address-taken global counts as
//!   accessed by every dereference. `norace` is deliberately ignored, as
//!   the Safe TinyOS toolchain does;
//! * [`Census::cxprop_racy`] — cXprop's detector (§2.1), "slightly more
//!   precise": one of those accesses must be a write, and only
//!   dereferencing *writes* reach address-taken globals. It implies the
//!   nesC verdict, so refinement only ever clears globals;
//! * the per-site `R001`–`R003` filter of `cxprop::race_sites`, over
//!   [`Census::sites`].

use std::collections::BTreeMap;

use crate::ir::*;
use crate::types::size_of;
use crate::visit;

/// Which contexts each function runs in, indexed by [`FuncId`]. A
/// function can be both synchronous and asynchronous (mixed) or neither
/// (dead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contexts {
    /// Reachable from an interrupt handler.
    pub is_async: Vec<bool>,
    /// Reachable from `main` or a task.
    pub is_sync: Vec<bool>,
    /// Reachable from a handler whose call subtree re-enables interrupts.
    pub preemptible: Vec<bool>,
}

impl Contexts {
    /// Computes the contexts over `program`'s call graph.
    pub fn of(program: &Program) -> Contexts {
        let nf = program.functions.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); nf];
        let mut enables = vec![false; nf];
        for (fi, f) in program.functions.iter().enumerate() {
            visit::walk_stmts(&f.body, &mut |s| match s {
                Stmt::Call { func, .. } => callees[fi].push(func.0 as usize),
                Stmt::BuiltinCall {
                    which: Builtin::IrqEnable,
                    ..
                }
                | Stmt::Atomic {
                    style: AtomicStyle::DisableEnable,
                    ..
                } => enables[fi] = true,
                _ => {}
            });
        }
        let reach = |roots: Vec<usize>| {
            let mut seen = vec![false; nf];
            let mut work = roots;
            while let Some(f) = work.pop() {
                if !std::mem::replace(&mut seen[f], true) {
                    work.extend(callees[f].iter().copied());
                }
            }
            seen
        };
        let mut is_async = vec![false; nf];
        let mut preemptible = vec![false; nf];
        for (h, _) in program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.interrupt.is_some())
        {
            let subtree = reach(vec![h]);
            let reenables = subtree.iter().zip(&enables).any(|(&s, &e)| s && e);
            for (f, _) in subtree.iter().enumerate().filter(|(_, &s)| s) {
                is_async[f] = true;
                preemptible[f] |= reenables;
            }
        }
        let is_sync = reach(
            program
                .entry
                .iter()
                .chain(&program.tasks)
                .map(|f| f.0 as usize)
                .collect(),
        );
        Contexts {
            is_async,
            is_sync,
            preemptible,
        }
    }

    /// Whether function `f` runs at all.
    fn live(&self, f: usize) -> bool {
        self.is_async[f] || self.is_sync[f]
    }

    /// Whether code of function `f` outside any `atomic` can be
    /// interrupted: it is synchronous, or a preemptible handler runs it.
    fn interruptible(&self, f: usize) -> bool {
        self.is_sync[f] || self.preemptible[f]
    }
}

/// How one global is accessed directly by the live code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Access {
    /// Read by asynchronous code (protected or not).
    async_read: bool,
    /// Written by asynchronous code (protected or not).
    async_write: bool,
    /// Read by interruptible code outside any `atomic`.
    unprot_read: bool,
    /// Written by interruptible code outside any `atomic`.
    unprot_write: bool,
    /// Its address is taken somewhere.
    addr_taken: bool,
}

/// The pointer dereferences one context performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Derefs {
    /// Some statement reads or writes through a pointer.
    any: bool,
    /// Some statement writes through a pointer.
    write: bool,
}

/// One statement's direct accesses to one global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The function containing the statement.
    pub func: FuncId,
    /// The statement's [`visit::walk_stmts_sited`] index in `func`.
    pub site: u32,
    /// The global accessed.
    pub global: GlobalId,
    /// The statement reads the global.
    pub read: bool,
    /// The statement writes the global.
    pub write: bool,
    /// The widest access in bytes (at least 1).
    pub width: u32,
    /// Interrupts are off here: the statement is inside an `atomic`, or
    /// only non-preemptible handlers run its function.
    pub protected: bool,
}

/// The concurrency census of one program. See the module docs.
#[derive(Debug, Clone)]
pub struct Census {
    /// The contexts of every function.
    pub contexts: Contexts,
    /// Every direct access site, in (function, site, global) order.
    pub sites: Vec<Site>,
    /// Per-global access flags, indexed by [`GlobalId`].
    globals: Vec<Access>,
    /// Dereferences in asynchronous code.
    deref_async: Derefs,
    /// Dereferences in interruptible code outside any `atomic`.
    deref_unprot: Derefs,
    /// Per-global `const` flags: flash data never races.
    constant: Vec<bool>,
}

impl Census {
    /// Takes the census of `program` in one walk.
    pub fn of(program: &Program) -> Census {
        let mut census = Census {
            contexts: Contexts::of(program),
            globals: vec![Access::default(); program.globals.len()],
            deref_async: Derefs::default(),
            deref_unprot: Derefs::default(),
            sites: Vec::new(),
            constant: program.globals.iter().map(|g| g.is_const).collect(),
        };
        for (fi, f) in program.functions.iter().enumerate() {
            if !census.contexts.live(fi) {
                continue;
            }
            let mut walk = Walk {
                is_async: census.contexts.is_async[fi],
                interruptible: census.contexts.interruptible(fi),
                func: FuncId(fi as u32),
                next: 0,
                program,
                census: &mut census,
            };
            walk.block(&f.body, false);
        }
        census
    }

    /// nesC's verdict, indexed by [`GlobalId`]: some asynchronous and
    /// some unprotected access, with every dereference reaching every
    /// address-taken global.
    pub fn nesc_racy(&self) -> Vec<bool> {
        self.verdict(|a| {
            let via_ptr = |d: Derefs| a.addr_taken && d.any;
            (a.async_read || a.async_write || via_ptr(self.deref_async))
                && (a.unprot_read || a.unprot_write || via_ptr(self.deref_unprot))
        })
    }

    /// cXprop's verdict, indexed by [`GlobalId`]: as nesC's, but one of
    /// the accesses must be a write, and only dereferencing writes reach
    /// address-taken globals.
    pub fn cxprop_racy(&self) -> Vec<bool> {
        self.verdict(|a| {
            let async_write = a.async_write || (a.addr_taken && self.deref_async.write);
            let unprot_write = a.unprot_write || (a.addr_taken && self.deref_unprot.write);
            (a.async_read || async_write)
                && (a.unprot_read || unprot_write)
                && (async_write || unprot_write)
        })
    }

    fn verdict(&self, racy: impl Fn(&Access) -> bool) -> Vec<bool> {
        self.globals
            .iter()
            .zip(&self.constant)
            .map(|(a, &constant)| !constant && racy(a))
            .collect()
    }
}

/// The census walk over one function body.
struct Walk<'a> {
    is_async: bool,
    interruptible: bool,
    func: FuncId,
    next: u32,
    program: &'a Program,
    census: &'a mut Census,
}

impl Walk<'_> {
    fn block(&mut self, block: &Block, in_atomic: bool) {
        for s in block {
            let site = self.next;
            self.next += 1;
            self.stmt(s, site, in_atomic || !self.interruptible);
            match s {
                Stmt::Atomic { body, .. } => self.block(body, true),
                Stmt::If { then_, else_, .. } => {
                    self.block(then_, in_atomic);
                    self.block(else_, in_atomic);
                }
                Stmt::While { body, .. } | Stmt::Block(body) => self.block(body, in_atomic),
                _ => {}
            }
        }
    }

    /// Records the accesses of `s`'s own expressions and destination
    /// (nested statements are their own sites).
    fn stmt(&mut self, s: &Stmt, site: u32, protected: bool) {
        let structs = &self.program.structs;
        let mut direct: BTreeMap<GlobalId, Site> = BTreeMap::new();
        let mut note = |g: GlobalId, p: &Place, write: bool| {
            let a = direct.entry(g).or_insert(Site {
                func: self.func,
                site,
                global: g,
                read: false,
                write: false,
                width: 1,
                protected,
            });
            a.read |= !write;
            a.write |= write;
            a.width = a.width.max(size_of(&p.ty, structs));
        };
        let mut deref = Derefs::default();
        let globals = &mut self.census.globals;
        visit::stmt_exprs(s, &mut |e| {
            visit::walk_expr(e, &mut |x| match &x.kind {
                ExprKind::Load(p) => match &p.base {
                    PlaceBase::Global(g) => note(*g, p, false),
                    PlaceBase::Deref(_) => deref.any = true,
                    _ => {}
                },
                ExprKind::AddrOf(p) => match &p.base {
                    PlaceBase::Global(g) => globals[g.0 as usize].addr_taken = true,
                    PlaceBase::Deref(_) => deref.any = true,
                    _ => {}
                },
                _ => {}
            });
        });
        let dst = match s {
            Stmt::Assign(p, _) => Some(p),
            Stmt::Call { dst, .. } | Stmt::BuiltinCall { dst, .. } => dst.as_ref(),
            _ => None,
        };
        if let Some(p) = dst {
            match &p.base {
                PlaceBase::Global(g) => note(*g, p, true),
                PlaceBase::Deref(_) => (deref.any, deref.write) = (true, true),
                _ => {}
            }
        }
        let census = &mut *self.census;
        let merge = |ctx: &mut Derefs| {
            ctx.any |= deref.any;
            ctx.write |= deref.write;
        };
        if self.is_async {
            merge(&mut census.deref_async);
        }
        if !protected {
            merge(&mut census.deref_unprot);
        }
        for site in direct.into_values() {
            let a = &mut census.globals[site.global.0 as usize];
            if self.is_async {
                a.async_read |= site.read;
                a.async_write |= site.write;
            }
            if !protected {
                a.unprot_read |= site.read;
                a.unprot_write |= site.write;
            }
            census.sites.push(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_lower;

    fn nesc_racy(src: &str) -> Vec<String> {
        let p = parse_and_lower(src).unwrap();
        let racy = Census::of(&p).nesc_racy();
        p.globals
            .iter()
            .zip(racy)
            .filter(|(_, r)| *r)
            .map(|(g, _)| g.name.clone())
            .collect()
    }

    #[test]
    fn unprotected_cross_context_global_is_racy() {
        let racy = nesc_racy(
            "uint8_t shared;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { shared = 2; }",
        );
        assert_eq!(racy, vec!["shared"]);
    }

    #[test]
    fn atomic_protection_clears_race() {
        let racy = nesc_racy(
            "uint8_t shared;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { atomic { shared = 2; } }",
        );
        assert!(racy.is_empty());
    }

    #[test]
    fn sync_only_global_is_not_racy() {
        let racy = nesc_racy(
            "uint8_t x;
             task void t() { x = 1; }
             void main() { x = 2; }",
        );
        assert!(racy.is_empty());
    }

    #[test]
    fn norace_is_suppressed() {
        let p = parse_and_lower(
            "norace uint8_t shared;
             interrupt(TIMER0) void h() { shared = 1; }
             void main() { shared = 2; }",
        )
        .unwrap();
        assert!(p.globals[0].norace);
        assert_eq!(Census::of(&p).nesc_racy(), vec![true]);
    }

    #[test]
    fn reachability_through_calls() {
        let src = "uint8_t shared;
             void helper() { shared = 1; }
             interrupt(TIMER0) void h() { helper(); }
             void main() { shared = 2; }";
        assert_eq!(nesc_racy(src), vec!["shared"]);
        let p = parse_and_lower(src).unwrap();
        let helper = p.functions.iter().position(|f| f.name == "helper").unwrap();
        assert!(Contexts::of(&p).is_async[helper]);
    }

    #[test]
    fn pointer_conservatism() {
        // g's address is taken and a deref write happens in the handler:
        // conservatively racy even though no direct async access exists.
        let racy = nesc_racy(
            "uint8_t g;
             uint8_t * p;
             void main() { p = &g; g = 1; }
             interrupt(TIMER0) void h() { *p = 3; }",
        );
        assert!(racy.contains(&"g".to_string()));
    }

    #[test]
    fn sites_follow_the_sited_walk_numbering() {
        let p = parse_and_lower(
            "uint8_t a;
             uint16_t b;
             interrupt(TIMER0) void h() { a = 1; }
             void main() { if (a) { b = (uint16_t)(b + 1); } atomic { a = 2; } }",
        )
        .unwrap();
        let census = Census::of(&p);
        let main = p.entry.unwrap();
        let mut numbered = Vec::new();
        visit::walk_stmts_sited(&p.functions[main.0 as usize].body, &mut |i, s| {
            numbered.push((i, s.clone()))
        });
        let main_sites: Vec<_> = census.sites.iter().filter(|s| s.func == main).collect();
        // `if (a)`, `b = b + 1`, and `a = 2` inside the atomic.
        assert_eq!(main_sites.len(), 3, "{main_sites:?}");
        assert!(matches!(
            numbered[main_sites[0].site as usize].1,
            Stmt::If { .. }
        ));
        assert!(main_sites[1].read && main_sites[1].write && main_sites[1].width == 2);
        assert!(main_sites[2].protected && !main_sites[0].protected);
        // The handler's write is a protected site.
        assert!(census
            .sites
            .iter()
            .any(|s| s.func != main && s.protected && s.write));
    }

    #[test]
    fn a_handler_that_reenables_interrupts_is_preemptible() {
        let p = parse_and_lower(
            "uint8_t g;
             interrupt(TIMER0) void a() { __irq_enable(); g = 1; }
             interrupt(TIMER1) void b() { g = 2; }
             void main() { }",
        )
        .unwrap();
        let census = Census::of(&p);
        let cx = &census.contexts;
        assert_eq!(cx.preemptible, vec![true, false, false]);
        assert!(cx.interruptible(0) && !cx.interruptible(1));
        assert_eq!(census.nesc_racy(), vec![true]);
        assert_eq!(census.cxprop_racy(), vec![true]);
        let unprotected: Vec<_> = census.sites.iter().filter(|s| !s.protected).collect();
        assert_eq!(unprotected.len(), 1);
        assert_eq!(unprotected[0].func, FuncId(0));
    }
}
