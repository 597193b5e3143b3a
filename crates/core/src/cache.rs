//! The content-addressed pass-output cache.
//!
//! Every pass in this toolchain is a pure function of its input program
//! and its options: the same lowered IR under the same spec produces the
//! same output IR and the same statistics. A 12-preset × 12-app grid
//! therefore recomputes enormous shared prefixes — `cure(flid)` alone
//! runs once per *preset* instead of once per *app* — and the middle end
//! (cure and the optimizers) is about four fifths of the fig3 grid's
//! summed pass times. This module keys each pass output by
//! `(digest of the input IR, canonical pass spec)` so shared prefixes
//! are computed exactly once per session and forked only where specs
//! diverge.
//!
//! Three properties carry the design:
//!
//! * **The digest is derived, so it is total.** [`ir_digest`] feeds a
//!   [`Program`] through the IR's derived `Hash` into a position-mixed
//!   SplitMix64 word mixer (enum tags and integers one word each,
//!   sequences length-prefixed, byte runs in 8-byte words). `Hash` is
//!   derived beside `PartialEq` on every IR type, so the digest reads
//!   exactly the fields equality compares — the ones optimizers consult
//!   but rarely touch (`norace`, `trusted`, atomic styles, FLID tables)
//!   and any field added later, with no walk to keep in step. Equal
//!   programs digest equal; unequal ones collide only by 64-bit chance.
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
use std::hash::{Hash, Hasher as _};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use backend::BackendOptions;
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
}

/// Each integer write is one word; byte runs are 8-byte little-endian words.
impl std::hash::Hasher for Hasher {
    /// Pads the last word with `0xff`. Byte vectors arrive length-prefixed
    /// and strings arrive followed by a `0xff` word; UTF-8 holds no `0xff`
    /// byte, so neither the padding nor the terminator can pass for
    /// string content (`"ab"` and `"ab\0"` differ).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0xff; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.word(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
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
/// entry for: eight per mixed word). Deterministic across runs and
/// threads; the walk is the IR's derived `Hash`, so it reads every field
/// the derived `PartialEq` compares, including the ones only some passes
/// consult (`norace`, `racy`, `trusted`, `inline_hint`, atomic styles,
/// FLIDs).
pub fn ir_digest(program: &Program) -> (u64, usize) {
    let mut h = Hasher::new();
    program.hash(&mut h);
    (h.finish(), (h.words as usize) * 8)
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
    /// consuming build replays the merge through the pass's `absorb`).
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
    use tcil::ir::{
        AtomicStyle, Check, CheckKind, Expr, Flid, FuncId, Function, Global, Init, Stmt,
    };
    use tcil::types::{IntKind, Type};

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
    fn digest_charges_eight_bytes_per_mixed_word() {
        // 37 words: the struct, global, function, string, task and FLID
        // table lengths, `counter` (name 2, type 2, init 2, three flags),
        // `main` (name 2, return type, params, locals, body length, the
        // check 8, the return 2, four flags) and the entry 2. The fig3a
        // pass-cache `bytes` census sums these charges.
        assert_eq!(ir_digest(&tiny_program()).1, 37 * 8);
    }

    #[test]
    fn digest_tells_names_with_trailing_nul_apart() {
        // A short last word is padded with `0xff`, which no string holds.
        let mut a = tiny_program();
        a.globals[0].name = "ab".into();
        let mut b = a.clone();
        b.globals[0].name = "ab\0".into();
        assert_ne!(ir_digest(&a).0, ir_digest(&b).0);
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
