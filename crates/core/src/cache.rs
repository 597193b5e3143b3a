//! The content-addressed pass-output cache.
//!
//! Every pass in this toolchain is a pure function of its input program
//! and its options: the same lowered IR under the same spec produces the
//! same output IR and the same statistics. A 12-preset × 12-app grid
//! therefore recomputes enormous shared prefixes — `cure(flid)` alone
//! runs once per *preset* instead of once per *app* — and
//! `BENCH_toolchain_speed.json` shows the middle end is ~78% of compile
//! wall. This module keys each pass output by
//! `(digest of the input IR, canonical pass spec)` so shared prefixes
//! are computed exactly once per session and forked only where specs
//! diverge.
//!
//! Three properties carry the design:
//!
//! * **The digest is stable and total.** [`ir_digest`] walks every
//!   semantic field of a [`Program`] in a fixed order (enum tags,
//!   length-prefixed sequences) through a SplitMix64-style word mixer.
//!   Two programs hash equal iff a pass could not tell them apart; the
//!   digest covers the fields optimizers consult but rarely touch
//!   (`norace`, `trusted`, atomic styles, FLID tables).
//! * **Specs are canonical.** A [`CacheKey`] stores [`crate::Pass::spec`]
//!   — the renderer emits options in one fixed order, so a hand-typed
//!   `cure(flid , noopt)` and the `Display` round-trip key identically,
//!   while semantically different orders (pipeline-level pass order)
//!   key apart.
//! * **Entries compute exactly once.** Each map slot holds an
//!   `Arc<OnceLock<…>>`: concurrent requesters of the same key block on
//!   one computation instead of racing, which makes the miss count a
//!   schedule-independent function of the job set (misses ≡ distinct
//!   keys) — the property the determinism suite pins.
//!
//! Entries also carry the *output* program's digest, so a warm chain of
//! lookups never rehashes between passes: only the root program of each
//! build is hashed, lazily.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use backend::BackendOptions;
use tcil::ir::{Block, CheckKind, Expr, ExprKind, Init, Place, PlaceBase, PlaceElem, Stmt};
use tcil::types::Type;
use tcil::Program;

use crate::Metrics;

// ---------------------------------------------------------------------
// The IR hasher.
// ---------------------------------------------------------------------

/// A SplitMix64-style streaming word mixer. Not cryptographic — it only
/// needs to make accidental collisions between real intermediate
/// programs vanishingly unlikely and be deterministic across runs,
/// threads, and platforms.
struct Hasher {
    state: u64,
    words: u64,
}

impl Hasher {
    fn new() -> Hasher {
        Hasher {
            state: 0x243F_6A88_85A3_08D3, // pi, for want of nothing up the sleeve
            words: 0,
        }
    }

    fn word(&mut self, w: u64) {
        self.words += 1;
        // Mix the position in so transposed sequences differ, then
        // avalanche (the splitmix64/murmur finalizer constants).
        let mut z = self.state ^ w.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.words));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt(&mut self, o: Option<u64>) {
        match o {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.state ^ self.words;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    }
}

/// Digests `program` into a stable 64-bit content hash, also returning
/// an approximate serialized size in bytes (what the cache charges an
/// entry for). Deterministic across runs and threads; sensitive to every
/// semantic IR field, including the ones only some passes consult
/// (`norace`, `racy`, `trusted`, `inline_hint`, atomic styles, FLIDs).
pub fn ir_digest(program: &Program) -> (u64, usize) {
    let mut h = Hasher::new();
    hash_program(&mut h, program);
    let bytes = (h.words as usize) * 8;
    (h.finish(), bytes)
}

fn hash_program(h: &mut Hasher, p: &Program) {
    h.word(p.structs.len() as u64);
    for s in &p.structs {
        h.str(&s.name);
        h.word(s.fields.len() as u64);
        for f in &s.fields {
            h.str(&f.name);
            hash_type(h, &f.ty);
        }
    }
    h.word(p.globals.len() as u64);
    for g in &p.globals {
        h.str(&g.name);
        hash_type(h, &g.ty);
        hash_init(h, &g.init);
        h.word(g.norace as u64);
        h.word(g.is_const as u64);
        h.word(g.racy as u64);
    }
    h.word(p.functions.len() as u64);
    for f in &p.functions {
        h.str(&f.name);
        hash_type(h, &f.ret);
        h.word(f.params as u64);
        h.word(f.locals.len() as u64);
        for l in &f.locals {
            h.str(&l.name);
            hash_type(h, &l.ty);
            h.word(l.is_temp as u64);
        }
        hash_block(h, &f.body);
        h.word(f.is_task as u64);
        h.opt(f.interrupt.map(u64::from));
        h.word(f.inline_hint as u64);
        h.word(f.trusted as u64);
    }
    h.word(p.strings.len() as u64);
    for (_, s) in p.strings.iter() {
        h.bytes(s);
    }
    h.word(p.tasks.len() as u64);
    for t in &p.tasks {
        h.word(t.0 as u64);
    }
    h.opt(p.entry.map(|f| f.0 as u64));
    h.word(p.flid_messages.len() as u64);
    for (flid, msg) in &p.flid_messages {
        h.word(*flid as u64);
        h.str(msg);
    }
}

fn hash_type(h: &mut Hasher, ty: &Type) {
    match ty {
        Type::Void => h.word(0),
        Type::Int(k) => {
            h.word(1);
            h.word(*k as u64);
        }
        Type::Ptr(t, pk) => {
            h.word(2);
            h.word(*pk as u64);
            hash_type(h, t);
        }
        Type::Array(t, n) => {
            h.word(3);
            h.word(*n as u64);
            hash_type(h, t);
        }
        Type::Struct(sid) => {
            h.word(4);
            h.word(sid.0 as u64);
        }
    }
}

fn hash_init(h: &mut Hasher, init: &Init) {
    match init {
        Init::Zero => h.word(0),
        Init::Int(v) => {
            h.word(1);
            h.word(*v as u64);
        }
        Init::List(items) => {
            h.word(2);
            h.word(items.len() as u64);
            for i in items {
                hash_init(h, i);
            }
        }
        Init::Str(id) => {
            h.word(3);
            h.word(id.0 as u64);
        }
    }
}

fn hash_block(h: &mut Hasher, block: &Block) {
    h.word(block.len() as u64);
    for s in block {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Hasher, s: &Stmt) {
    match s {
        Stmt::Assign(place, e) => {
            h.word(0);
            hash_place(h, place);
            hash_expr(h, e);
        }
        Stmt::Call { dst, func, args } => {
            h.word(1);
            hash_opt_place(h, dst);
            h.word(func.0 as u64);
            h.word(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        Stmt::BuiltinCall { dst, which, args } => {
            h.word(2);
            hash_opt_place(h, dst);
            h.word(*which as u64);
            h.word(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        Stmt::If { cond, then_, else_ } => {
            h.word(3);
            hash_expr(h, cond);
            hash_block(h, then_);
            hash_block(h, else_);
        }
        Stmt::While { cond, body } => {
            h.word(4);
            hash_expr(h, cond);
            hash_block(h, body);
        }
        Stmt::Return(e) => {
            h.word(5);
            match e {
                None => h.word(0),
                Some(e) => {
                    h.word(1);
                    hash_expr(h, e);
                }
            }
        }
        Stmt::Break => h.word(6),
        Stmt::Continue => h.word(7),
        Stmt::Atomic { body, style } => {
            h.word(8);
            h.word(*style as u64);
            hash_block(h, body);
        }
        Stmt::Block(b) => {
            h.word(9);
            hash_block(h, b);
        }
        Stmt::Check(c) => {
            h.word(10);
            match &c.kind {
                CheckKind::NonNull(e) => {
                    h.word(0);
                    hash_expr(h, e);
                }
                CheckKind::Upper { ptr, len } => {
                    h.word(1);
                    hash_expr(h, ptr);
                    h.word(*len as u64);
                }
                CheckKind::Bounds { ptr, len } => {
                    h.word(2);
                    hash_expr(h, ptr);
                    h.word(*len as u64);
                }
                CheckKind::IndexBound { idx, n } => {
                    h.word(3);
                    hash_expr(h, idx);
                    h.word(*n as u64);
                }
            }
            h.word(c.flid.0 as u64);
        }
        Stmt::Nop => h.word(11),
    }
}

fn hash_expr(h: &mut Hasher, e: &Expr) {
    hash_type(h, &e.ty);
    match &e.kind {
        ExprKind::Const(v) => {
            h.word(0);
            h.word(*v as u64);
        }
        ExprKind::Str(id) => {
            h.word(1);
            h.word(id.0 as u64);
        }
        ExprKind::Load(p) => {
            h.word(2);
            hash_place(h, p);
        }
        ExprKind::AddrOf(p) => {
            h.word(3);
            hash_place(h, p);
        }
        ExprKind::Unary(op, a) => {
            h.word(4);
            h.word(*op as u64);
            hash_expr(h, a);
        }
        ExprKind::Binary(op, a, b) => {
            h.word(5);
            h.word(*op as u64);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        ExprKind::Cast(a) => {
            h.word(6);
            hash_expr(h, a);
        }
        ExprKind::SizeOf(t) => {
            h.word(7);
            hash_type(h, t);
        }
        ExprKind::MakeFat { val, base, end } => {
            h.word(8);
            hash_expr(h, val);
            match base {
                None => h.word(0),
                Some(b) => {
                    h.word(1);
                    hash_expr(h, b);
                }
            }
            hash_expr(h, end);
        }
    }
}

fn hash_place(h: &mut Hasher, p: &Place) {
    match &p.base {
        PlaceBase::Local(id) => {
            h.word(0);
            h.word(id.0 as u64);
        }
        PlaceBase::Global(id) => {
            h.word(1);
            h.word(id.0 as u64);
        }
        PlaceBase::Deref(e) => {
            h.word(2);
            hash_expr(h, e);
        }
    }
    h.word(p.elems.len() as u64);
    for el in &p.elems {
        match el {
            PlaceElem::Field { sid, idx } => {
                h.word(0);
                h.word(sid.0 as u64);
                h.word(*idx as u64);
            }
            PlaceElem::Index(e) => {
                h.word(1);
                hash_expr(h, e);
            }
        }
    }
    hash_type(h, &p.ty);
}

fn hash_opt_place(h: &mut Hasher, p: &Option<Place>) {
    match p {
        None => h.word(0),
        Some(p) => {
            h.word(1);
            hash_place(h, p);
        }
    }
}

// ---------------------------------------------------------------------
// Keys, entries, and the cache.
// ---------------------------------------------------------------------

/// A cache key: the content digest of the input program plus the
/// canonical spec of the pass applied to it. Spec strings come from
/// [`crate::Pass::spec`], whose renderers emit options in one fixed
/// order — so every equivalent spelling of a pass normalizes to the same
/// key, and two passes with the same name but different options key
/// apart.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`ir_digest`] of the input program.
    pub digest: u64,
    /// Canonical pass spec (e.g. `cxprop(domain=constants,rounds=1)`).
    pub spec: String,
}

impl CacheKey {
    /// A key for applying the pass spelled `spec` to a program with
    /// content digest `digest`.
    pub fn new(digest: u64, spec: impl Into<String>) -> CacheKey {
        CacheKey {
            digest,
            spec: spec.into(),
        }
    }
}

/// One cached pass application: the output program (shared, never
/// mutated), its digest (so chained lookups skip rehashing), the metrics
/// the pass deposited when it ran against an empty scratch context, and
/// — for backend passes — the prepared program and options for the final
/// link.
#[derive(Debug, Clone)]
pub(crate) struct PassOutput {
    pub program: Arc<Program>,
    /// [`ir_digest`] of `program`.
    pub digest: u64,
    /// Approximate serialized size of `program` in bytes.
    pub bytes: usize,
    /// What the pass deposited into a fresh [`Metrics`] (zero times; the
    /// consuming build replays the merge via [`crate::Pass::absorb`]).
    pub effect: Metrics,
    /// The backend-prepared program, when this entry is a backend pass.
    pub prepared: Option<Arc<Program>>,
    /// The backend options in force, when this entry is a backend pass.
    pub backend_options: Option<BackendOptions>,
}

type Slot = Arc<OnceLock<Result<PassOutput, tcil::CompileError>>>;

const SHARDS: usize = 16;

/// Hit/miss/size counters for one pass name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Lookups served from an already-computed entry.
    pub hits: u64,
    /// Lookups that computed the entry (≡ distinct keys touched, however
    /// the jobs were scheduled).
    pub misses: u64,
    /// Approximate bytes of output IR the computed entries retain.
    pub bytes: u64,
}

impl PassCounters {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Aggregated cache statistics, keyed by pass name (sorted, so reports
/// are deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counters per pass name.
    pub passes: BTreeMap<String, PassCounters>,
}

impl CacheStats {
    /// Counters for `pass` (zeros if it never consulted the cache).
    pub fn get(&self, pass: &str) -> PassCounters {
        self.passes.get(pass).copied().unwrap_or_default()
    }

    /// Total hits across all passes.
    pub fn hits(&self) -> u64 {
        self.passes.values().map(|c| c.hits).sum()
    }

    /// Total misses (computations) across all passes.
    pub fn misses(&self) -> u64 {
        self.passes.values().map(|c| c.misses).sum()
    }

    /// Total retained output bytes across all passes.
    pub fn bytes(&self) -> u64 {
        self.passes.values().map(|c| c.bytes).sum()
    }
}

/// The sharded, `Arc`-shared pass-output cache.
///
/// Sixteen `RwLock` shards keyed by digest bits keep contention low
/// across `BuildService` workers; each entry is an
/// `Arc<OnceLock<…>>` slot, so the shard lock is held only to find the
/// slot and the (possibly expensive) pass computation runs outside it,
/// exactly once per key.
#[derive(Default)]
pub struct PassCache {
    shards: [RwLock<HashMap<CacheKey, Slot>>; SHARDS],
    stats: Mutex<BTreeMap<String, PassCounters>>,
}

impl PassCache {
    /// An empty cache.
    pub fn new() -> PassCache {
        PassCache::default()
    }

    /// The slot for `key`, inserting an empty one if absent. The caller
    /// runs (or waits for) the computation via the slot's `OnceLock`.
    pub(crate) fn slot(&self, key: &CacheKey) -> Slot {
        let shard = &self.shards[(key.digest as usize) & (SHARDS - 1)];
        if let Some(s) = shard.read().unwrap().get(key) {
            return s.clone();
        }
        let mut w = shard.write().unwrap();
        w.entry(key.clone()).or_default().clone()
    }

    /// Records one lookup of `pass`: a miss (this caller computed the
    /// entry, retaining `bytes` of output IR) or a hit.
    pub(crate) fn note(&self, pass: &str, computed: bool, bytes: usize) {
        let mut stats = self.stats.lock().unwrap();
        let c = stats.entry(pass.to_string()).or_default();
        if computed {
            c.misses += 1;
            c.bytes += bytes as u64;
        } else {
            c.hits += 1;
        }
    }

    /// A snapshot of the per-pass counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            passes: self.stats.lock().unwrap().clone(),
        }
    }

    /// Number of entries currently cached.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}

impl std::fmt::Debug for PassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassCache")
            .field("entries", &self.entries())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcil::ir::{AtomicStyle, Check, Flid, FuncId, Function, Global};
    use tcil::types::IntKind;

    fn tiny_program() -> Program {
        let mut p = Program::default();
        p.globals.push(Global {
            name: "counter".into(),
            ty: Type::u16(),
            init: Init::Int(7),
            norace: false,
            is_const: false,
            racy: false,
        });
        let mut f = Function::new("main", Type::Void);
        f.body.push(Stmt::Check(Check {
            kind: CheckKind::IndexBound {
                idx: Expr::const_int(3, IntKind::U8),
                n: 4,
            },
            flid: Flid(9),
        }));
        f.body.push(Stmt::Return(None));
        p.functions.push(f);
        p.entry = Some(FuncId(0));
        p
    }

    #[test]
    fn digest_is_deterministic_and_clone_stable() {
        let p = tiny_program();
        let q = p.clone();
        assert_eq!(ir_digest(&p), ir_digest(&q));
        assert_eq!(ir_digest(&p), ir_digest(&p));
    }

    #[test]
    fn digest_sees_obscure_semantic_fields() {
        let base = tiny_program();
        let (d0, _) = ir_digest(&base);

        // Fields a sloppy hasher would skip: each must change the digest.
        let mut p = base.clone();
        p.globals[0].norace = true;
        assert_ne!(ir_digest(&p).0, d0, "norace flag invisible");

        let mut p = base.clone();
        p.globals[0].racy = true;
        assert_ne!(ir_digest(&p).0, d0, "racy flag invisible");

        let mut p = base.clone();
        p.functions[0].trusted = true;
        assert_ne!(ir_digest(&p).0, d0, "trusted flag invisible");

        let mut p = base.clone();
        p.functions[0].inline_hint = true;
        assert_ne!(ir_digest(&p).0, d0, "inline hint invisible");

        let mut p = base.clone();
        p.functions[0].interrupt = Some(0);
        assert_ne!(ir_digest(&p).0, d0, "interrupt vector invisible");

        let mut p = base.clone();
        let Stmt::Check(c) = &mut p.functions[0].body[0] else {
            unreachable!()
        };
        c.flid = Flid(10);
        assert_ne!(ir_digest(&p).0, d0, "FLID invisible");

        let mut p = base.clone();
        p.flid_messages.push((9, "m.nc:1: bounds".into()));
        assert_ne!(ir_digest(&p).0, d0, "FLID table invisible");
    }

    #[test]
    fn digest_distinguishes_atomic_styles_and_order() {
        let mut a = tiny_program();
        a.functions[0].body.insert(
            0,
            Stmt::Atomic {
                body: vec![Stmt::Nop],
                style: AtomicStyle::SaveRestore,
            },
        );
        let mut b = a.clone();
        let Stmt::Atomic { style, .. } = &mut b.functions[0].body[0] else {
            unreachable!()
        };
        *style = AtomicStyle::DisableEnable;
        assert_ne!(ir_digest(&a).0, ir_digest(&b).0);

        // Transposed statements must differ even though the multiset of
        // words is identical (position-mixed hashing).
        let mut c = tiny_program();
        c.functions[0].body.push(Stmt::Break);
        let mut d = tiny_program();
        d.functions[0].body.insert(0, Stmt::Break);
        assert_ne!(ir_digest(&c).0, ir_digest(&d).0);
    }

    #[test]
    fn cache_slots_compute_once_and_count_deterministically() {
        let cache = PassCache::new();
        let key = CacheKey::new(42, "cure(flid)");
        let computed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let slot = cache.slot(&key);
                    let mut mine = false;
                    slot.get_or_init(|| {
                        mine = true;
                        computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        Ok(PassOutput {
                            program: Arc::new(Program::default()),
                            digest: 7,
                            bytes: 64,
                            effect: Metrics::default(),
                            prepared: None,
                            backend_options: None,
                        })
                    });
                    cache.note("cure", mine, 64);
                });
            }
        });
        assert_eq!(computed.load(std::sync::atomic::Ordering::Relaxed), 1);
        let stats = cache.stats();
        let c = stats.get("cure");
        // However the eight threads raced, exactly one miss: the miss
        // count is the number of distinct keys, not a schedule artifact.
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 7);
        assert_eq!(c.bytes, 64);
        assert_eq!(cache.entries(), 1);
    }
}
