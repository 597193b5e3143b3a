//! The content-addressed pass cache: correctness and key-normalization
//! invariants. Caching must be purely a speedup — every cached build is
//! byte-identical to an uncached one across the full preset matrix —
//! and the cache key must be canonical: equivalent spec spellings land
//! on one key, non-commutative pass orders land on different keys, and
//! a shared pass-stack prefix is computed exactly once however many
//! pipelines extend it.

use proptest::prelude::*;
use safe_tinyos::{ir_digest, BuildService, BuildSession, CacheKey, Pipeline, PRESET_NAMES};
use safe_tinyos_suite as _;

/// Every deterministic field of a build (stage wall times excluded).
fn fingerprint(m: &safe_tinyos::Metrics) -> String {
    format!(
        "code={} flash={} sram={} inserted={} surviving={} locks={} cure={:?} cxprop={:?}",
        m.code_bytes,
        m.flash_bytes,
        m.sram_bytes,
        m.checks_inserted,
        m.checks_surviving,
        m.locks_inserted,
        m.cure,
        m.cxprop,
    )
}

#[test]
fn cached_builds_match_uncached_across_every_preset_and_app() {
    // The headline soundness claim: with the pass cache on (the
    // default), every preset × app build — image bytes and deposited
    // metrics — is identical to a cache-off build. The cached session
    // is shared across the whole sweep so later cells replay earlier
    // cells' entries, which is exactly the path under test.
    let cached = BuildSession::new();
    let uncached = BuildSession::uncached();
    for app in tosapps::APP_NAMES {
        let spec = tosapps::spec(app).expect("known app");
        for name in PRESET_NAMES {
            let config = Pipeline::preset(name).expect("known preset");
            let hot = cached.build(&spec, &config).expect("cached build");
            let cold = uncached.build(&spec, &config).expect("uncached build");
            assert_eq!(
                hot.image, cold.image,
                "{app}/{name}: cached image diverged from uncached"
            );
            assert_eq!(
                fingerprint(&hot.metrics),
                fingerprint(&cold.metrics),
                "{app}/{name}: cached metrics diverged from uncached"
            );
        }
    }
    // The sweep actually exercised the cache: shared prefixes hit.
    assert!(cached.cache_stats().hits() > 0, "sweep never hit the cache");
}

#[test]
fn digests_are_equal_exactly_when_programs_are() {
    // The digest is the IR's derived `Hash`, so over every program the
    // preset grid holds — the 12 frontend programs and every preset ×
    // app build's final program — two digests agree exactly when the
    // derived `PartialEq` does, in both directions.
    let session = BuildSession::new();
    let mut programs = Vec::new();
    for app in tosapps::APP_NAMES {
        let spec = tosapps::spec(app).expect("known app");
        let frontend = session.frontend(&spec).expect("frontend");
        programs.push(frontend.shared_program().clone());
        for name in PRESET_NAMES {
            let config = Pipeline::preset(name).expect("known preset");
            programs.push(session.build(&spec, &config).expect("build").program);
        }
    }
    let digests: Vec<u64> = programs.iter().map(|p| ir_digest(p).0).collect();
    let (mut equal, mut unequal) = (0, 0);
    for (i, a) in programs.iter().enumerate() {
        for (j, b) in programs.iter().enumerate().skip(i + 1) {
            let same = a == b;
            assert_eq!(digests[i] == digests[j], same, "programs {i} and {j}");
            if same {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
    }
    // Both directions were exercised.
    assert!(equal > 0 && unequal > 0, "{equal} equal, {unequal} unequal");
}

#[test]
fn equivalent_spec_spellings_normalize_to_one_cache_key() {
    // CacheKey's spec component comes from `Pass::spec()`, which
    // renders options in one fixed order — so a Display-round-tripped
    // spec and a hand-typed equivalent (shuffled option order, extra
    // whitespace) must hash to the very same keys.
    let spec = tosapps::spec("Surge_Mica2").expect("known app");
    let session = BuildSession::new();
    let program = session.frontend(&spec).expect("frontend").program();
    let (digest, _) = ir_digest(&program);

    let canonical =
        Pipeline::parse("cure(flid,noopt)|inline(max-size=24)|cxprop(domain=intervals)|prune")
            .expect("canonical spec");
    // Display round-trip: parse(spec()) is a fixed point.
    let round = Pipeline::parse(&canonical.spec()).expect("round-trip");
    assert_eq!(canonical.spec(), round.spec());
    // Hand-typed equivalent: whitespace and commutative option order.
    let hand = Pipeline::parse(
        " cure( noopt , flid ) | inline(max-size = 24) | cxprop( domain=intervals ) | prune ",
    )
    .expect("hand-typed spec");
    assert_eq!(canonical.spec(), hand.spec());
    for (a, b) in canonical.passes().iter().zip(hand.passes()) {
        assert_eq!(
            CacheKey::new(digest, a.spec()),
            CacheKey::new(digest, b.spec()),
            "equivalent spellings keyed apart"
        );
    }
    // And every committed preset round-trips through its own spec.
    for name in PRESET_NAMES {
        let preset = Pipeline::preset(name).expect("known preset");
        let reparsed = Pipeline::parse(&preset.spec()).expect("preset spec parses");
        assert_eq!(preset.spec(), reparsed.spec(), "{name} spec not canonical");
    }
}

#[test]
fn non_commutative_pass_order_keys_differently() {
    // Pass order is load-bearing (inline-then-cxprop ≠ cxprop-then-
    // inline), so reordered stacks must NOT share downstream cache
    // entries: only the common cure prefix may hit.
    let a = Pipeline::parse("cure(flid)|inline|cxprop|prune").expect("spec a");
    let b = Pipeline::parse("cure(flid)|cxprop|inline|prune").expect("spec b");
    assert_ne!(a.spec(), b.spec(), "reordering collapsed the specs");

    let spec = tosapps::spec("Surge_Mica2").expect("known app");
    let service = BuildService::new();
    service.build(&spec, &a).expect("build a");
    service.build(&spec, &b).expect("build b");
    let stats = service.cache_stats();
    // Shared prefix: cure computed once, replayed once.
    assert_eq!(stats.get("cure").misses, 1, "cure prefix recomputed");
    assert_eq!(stats.get("cure").hits, 1, "cure prefix never replayed");
    // Divergent tails: same pass names, different input digests — each
    // must compute its own entry rather than alias the other order's.
    for pass in ["inline", "cxprop", "prune"] {
        let c = stats.get(pass);
        assert_eq!(
            c.misses, 2,
            "{pass}: reordered stacks aliased one cache entry"
        );
        assert_eq!(c.hits, 0, "{pass}: unexpected hit across orders");
    }
}

proptest! {
    /// Any shared pass-stack prefix yields exactly one cache miss per
    /// prefix pass: a full stack and a random prefix of it, built
    /// through one shared service in random order, compute each stack
    /// pass once — the prefix passes then hit, the tail passes run only
    /// for the full stack.
    #[test]
    fn shared_prefix_misses_exactly_once(
        split in 1usize..=4,
        app_idx in 0usize..3,
        prefix_first in any::<bool>(),
    ) {
        let apps = ["BlinkTask_Mica2", "RfmToLeds_Mica2", "Surge_Mica2"];
        let stack = ["cure(flid)", "inline", "cxprop", "prune"];
        let full = Pipeline::parse(&stack.join("|")).expect("full spec");
        let prefix = Pipeline::parse(&stack[..split].join("|")).expect("prefix spec");
        let spec = tosapps::spec(apps[app_idx]).expect("known app");

        let service = BuildService::new();
        let (first, second) = if prefix_first { (&prefix, &full) } else { (&full, &prefix) };
        service.build(&spec, first).expect("first build");
        service.build(&spec, second).expect("second build");

        let stats = service.cache_stats();
        for (i, segment) in stack.iter().enumerate() {
            let pass = segment.split('(').next().expect("pass name");
            let c = stats.get(pass);
            prop_assert!(c.misses == 1, "{}: shared prefix recomputed", pass);
            let expected_hits = u64::from(i < split);
            prop_assert!(
                c.hits == expected_hits,
                "{}: expected {} replay(s), saw {}",
                pass,
                expected_hits,
                c.hits
            );
        }
    }
}
