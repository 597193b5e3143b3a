//! The pipeline-spec language: parse/Display round-trips, rejection of
//! malformed specs, preset coverage, and the composition property that
//! motivates the pass manager — *every* legal pass permutation builds a
//! Blink image that runs to `Sleeping` without faulting.

use std::sync::OnceLock;

use proptest::prelude::*;
use safe_tinyos::{simulate, BuildSession, Pipeline, PRESET_NAMES};
use safe_tinyos_suite as _;

#[test]
fn parse_display_round_trips() {
    // Left: accepted input. Right: its canonical rendering — which must
    // itself parse back to the same canonical form (idempotence).
    let cases = [
        ("cure", "cure(flid)"),
        ("cure(flid)", "cure(flid)"),
        (
            " cure ( terse , noopt ) | prune ",
            "cure(terse,noopt)|prune",
        ),
        (
            "cure(flid)|inline|cxprop(rounds=3)",
            "cure(flid)|inline|cxprop",
        ),
        (
            "cxprop(rounds=1,domain=constants)",
            "cxprop(domain=constants,rounds=1)",
        ),
        (
            "cxprop(inline,nodce,nocopyprop)",
            "cxprop(inline,nodce,nocopyprop)",
        ),
        ("cxprop(noharden)", "cxprop(noharden)"),
        ("cxprop(harden)", "cxprop"),
        ("races", "races"),
        ("races(fix)", "races(fix)"),
        ("stackbound", "stackbound"),
        ("stackbound(budget=2048)", "stackbound(budget=2048)"),
        (
            " cure ( flid ) | prune | stackbound ( budget = 512 ) ",
            "cure(flid)|prune|stackbound(budget=512)",
        ),
        (
            " cure ( flid ) | races ( fix ) | cxprop ( noatomic ) ",
            "cure(flid)|races(fix)|cxprop(noatomic)",
        ),
        // Stray whitespace of any flavor around tokens and `|` is
        // normalized away by the canonical rendering.
        ("\t cure ( flid )\n |\n\tprune ", "cure(flid)|prune"),
        ("inline(max-size=48)", "inline(max-size=48)"),
        ("inline(max-size=16)", "inline"),
        ("backend(opt)", "backend"),
        ("backend(noopt)", "backend(noopt)"),
        (
            "cure(verbose-rom,nolock,naive)",
            "cure(verbose-rom,nolock,naive)",
        ),
    ];
    for (input, canonical) in cases {
        let p = Pipeline::parse(input).unwrap_or_else(|e| panic!("{input}: {e}"));
        assert_eq!(p.to_string(), canonical, "canonicalizing `{input}`");
        assert_eq!(
            p.name(),
            canonical,
            "a parsed pipeline is named by its spec"
        );
        let again = Pipeline::parse(canonical).unwrap();
        assert_eq!(again.to_string(), canonical, "`{canonical}` must be stable");
    }
}

#[test]
fn malformed_specs_are_rejected_with_context() {
    let cases = [
        ("", "empty"),
        ("   ", "empty"),
        ("cure|", "empty pass"),
        ("frobnicate", "unknown pass"),
        ("cure(flid", "missing `)`"),
        ("cure(flid)x", "trailing input"),
        ("cure(shiny)", "unknown option"),
        ("inline(max-size=lots)", "needs a number"),
        ("cxprop(domain=octagons)", "unknown option"),
        ("prune(hard)", "takes no options"),
        ("backend(fast)", "unknown option"),
        // One option key per pass segment: repeats and contradictory
        // flag pairs are rejected, never silently last-wins.
        ("cxprop(rounds=2,rounds=3)", "duplicate option"),
        ("cxprop(dce,nodce)", "duplicate option"),
        (
            "cxprop(domain=constants,domain=intervals)",
            "duplicate option",
        ),
        ("cure(flid,terse)", "duplicate option"),
        ("cure(opt,noopt)", "duplicate option"),
        ("cure(flid,flid)", "duplicate option"),
        ("inline(max-size=4,max-size=8)", "duplicate option"),
        ("backend(opt,noopt)", "duplicate option"),
        ("races(hard)", "unknown option"),
        ("races(fix,fix)", "duplicate option"),
        ("stackbound(hard)", "unknown option"),
        ("stackbound(budget=lots)", "needs a number"),
        // A zero budget would certify nothing; the profile default is
        // spelled by omitting the option, never by `budget=0`.
        ("stackbound(budget=0)", "must be positive"),
        ("stackbound(budget=1,budget=2)", "duplicate option"),
    ];
    for (input, expect) in cases {
        let err = Pipeline::parse(input).expect_err(input).to_string();
        assert!(
            err.contains(expect),
            "`{input}` -> `{err}` (wanted `{expect}`)"
        );
    }
}

/// Every preset's canonical spec, pinned literally. The spec is the pass
/// half of every cache key, so a registry edit that moves a preset's
/// spec fails here before any figure is rebuilt.
const PINNED_PRESETS: [(&str, &str); 12] = [
    ("unsafe", "backend"),
    ("unsafe+cxprop", "inline|cxprop|prune"),
    ("safe-verbose-ram", "cure(verbose-ram)"),
    ("safe-verbose-rom", "cure(verbose-rom)"),
    ("safe-terse", "cure(terse)"),
    ("safe-flid", "cure(flid)"),
    ("safe-flid-cxprop", "cure(flid)|cxprop|prune"),
    ("safe-flid-inline-cxprop", "cure(flid)|inline|cxprop|prune"),
    ("gcc", "cure(flid,noopt)"),
    ("ccured+gcc", "cure(flid)"),
    ("ccured+cxprop+gcc", "cure(flid)|cxprop|prune"),
    ("ccured+inline+cxprop+gcc", "cure(flid)|inline|cxprop|prune"),
];

#[test]
fn every_preset_spec_round_trips() {
    assert_eq!(PRESET_NAMES, PINNED_PRESETS.map(|(name, _)| name));
    for (name, pinned) in PINNED_PRESETS {
        let preset = Pipeline::preset(name).unwrap();
        let spec = preset.spec();
        assert_eq!(spec, pinned, "{name}: canonical spec moved");
        let reparsed = Pipeline::parse(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed.spec(), spec, "{name}");
        // A reparsed spec is named by the spec; the preset keeps its
        // figure label.
        assert_eq!(preset.name(), name);
    }
}

#[test]
fn pipeline_lists_accept_presets_specs_and_labels() {
    let list = safe_tinyos::parse_pipeline_list(
        "safe-flid; cure(terse)|prune ; mystack:cure(flid)|cxprop|prune",
    )
    .unwrap();
    assert_eq!(list.len(), 3);
    assert_eq!(list[0].name(), "safe-flid");
    assert_eq!(list[1].name(), "cure(terse)|prune");
    assert_eq!(list[2].name(), "mystack");
    assert_eq!(list[2].spec(), "cure(flid)|cxprop|prune");

    // The labeled form also relabels presets.
    let relabeled = safe_tinyos::parse_pipeline_list("baseline:safe-flid").unwrap();
    assert_eq!(relabeled[0].name(), "baseline");
    assert_eq!(relabeled[0].spec(), Pipeline::safe_flid().spec());

    assert!(safe_tinyos::parse_pipeline_list("").is_err());
    assert!(safe_tinyos::parse_pipeline_list("safe-flid;bogus").is_err());
}

#[test]
fn pipeline_lists_normalize_stray_whitespace() {
    // Tabs/newlines/spaces around `;`, `:`, and `|` parse to the same
    // canonical pipelines as the tight spelling — consistent with each
    // pipeline's Display round-trip. Empty entries are skipped.
    let tight = safe_tinyos::parse_pipeline_list("safe-flid;lbl:cure(flid)|prune").unwrap();
    let loose =
        safe_tinyos::parse_pipeline_list("\n safe-flid \t; ; lbl :\tcure( flid ) \n| prune ;")
            .unwrap();
    assert_eq!(tight.len(), loose.len());
    for (t, l) in tight.iter().zip(&loose) {
        assert_eq!(t.name(), l.name());
        assert_eq!(t.spec(), l.spec());
    }
}

// ---------------------------------------------------------------------
// The permutation property.
// ---------------------------------------------------------------------

/// One shared session: Blink's frontend compiles once for the whole
/// property run.
fn session() -> &'static BuildSession {
    static SESSION: OnceLock<BuildSession> = OnceLock::new();
    SESSION.get_or_init(BuildSession::new)
}

/// Decodes `mask` (subset of the four middle-end passes) and `perm`
/// (Lehmer code) into a pass order.
fn permuted_passes(mask: usize, perm: usize) -> Vec<&'static str> {
    let mut chosen: Vec<&'static str> = ["cure", "inline", "cxprop", "prune"]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, p)| p)
        .collect();
    let mut order = Vec::with_capacity(chosen.len());
    let mut code = perm;
    while !chosen.is_empty() {
        let n = chosen.len();
        order.push(chosen.remove(code % n));
        code /= n;
    }
    order
}

#[test]
fn mid_pipeline_backend_options_are_honored() {
    // A backend pass that is not last is invalidated (later passes
    // mutate the program), but the link-time re-prepare must still use
    // its options, not the defaults.
    let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
    let mid = Pipeline::parse("cure(flid)|backend(noopt)|prune").unwrap();
    let last = Pipeline::parse("cure(flid)|prune|backend(noopt)").unwrap();
    let service = safe_tinyos::BuildService::new();
    let a = service.build(&spec, &mid).unwrap();
    let b = service.build(&spec, &last).unwrap();
    assert_eq!(a.image, b.image);
}

#[test]
fn permutation_decoder_is_exhaustive() {
    // All 24 orders of the full four-pass set must be reachable (the
    // mixed-radix decode must not skip any).
    let orders: std::collections::HashSet<Vec<&str>> =
        (0..24).map(|perm| permuted_passes(15, perm)).collect();
    assert_eq!(orders.len(), 24);
}

proptest! {
    /// Any subset of the middle-end passes, in any order, must yield a
    /// Blink image that runs to `Sleeping` without faulting — the pass
    /// manager admits no composition that breaks a correct program.
    #[test]
    fn any_pass_permutation_yields_a_working_blink(mask in 1usize..16, perm in 0usize..24) {
        let order = permuted_passes(mask, perm);
        let spec_string = order.join("|");
        let pipeline = Pipeline::parse(&spec_string).unwrap();
        let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
        let build = session()
            .build(&spec, &pipeline)
            .unwrap_or_else(|e| panic!("{spec_string}: {e}"));
        let r = simulate(&build, &spec, 3);
        prop_assert!(
            r.state == mcu::RunState::Sleeping,
            "{}: state {:?}, fault {:?}", spec_string, r.state, r.fault
        );
        prop_assert!(r.led_transitions >= 4, "{}: leds {}", spec_string, r.led_transitions);
    }
}

// ---------------------------------------------------------------------
// Spec fuzzing: every input parses or is a `SpecError`, never a panic.
// ---------------------------------------------------------------------

/// The bytes spec strings are made of: pass and option words, the
/// punctuation of specs and pipeline lists, and whitespace.
const SPEC_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789()|,=;:- \t\n";

/// `input` must parse or be rejected with a `SpecError`, both as one
/// spec and as a pipeline list; every pipeline it yields must render to
/// a spec that parses back to itself.
fn parses_or_errors(input: &str) -> Result<(), TestCaseError> {
    let outcome = std::panic::catch_unwind(|| {
        (
            Pipeline::parse(input),
            safe_tinyos::parse_pipeline_list(input),
        )
    });
    let Ok((one, list)) = outcome else {
        return Err(TestCaseError::fail(format!("{input:?}: parsing panicked")));
    };
    let parsed: Vec<Pipeline> = one.into_iter().chain(list.into_iter().flatten()).collect();
    for pipeline in parsed {
        let spec = pipeline.spec();
        let again = Pipeline::parse(&spec)
            .map_err(|e| TestCaseError::fail(format!("{input:?} -> {spec:?}: {e}")))?;
        prop_assert_eq!(again.spec(), spec);
    }
    Ok(())
}

/// Splits `s` into tokens: runs of word bytes, or one other byte.
fn tokens(s: &[u8]) -> Vec<&[u8]> {
    let word = |b: &u8| b.is_ascii_alphanumeric() || *b == b'-';
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(first) = rest.first() {
        let len = if word(first) {
            rest.iter().take_while(|b| word(b)).count()
        } else {
            1
        };
        out.push(&rest[..len]);
        rest = &rest[len..];
    }
    out
}

/// Applies one edit to `s`: a bit flip, a token drop, a token
/// duplication, or a truncation, at a position drawn from `at`.
fn mutate(s: &[u8], kind: u8, at: u16, bit: u8) -> Vec<u8> {
    if s.is_empty() {
        return Vec::new();
    }
    let toks = tokens(s);
    let byte = usize::from(at) % s.len();
    let tok = usize::from(at) % toks.len();
    match kind {
        0 => {
            let mut out = s.to_vec();
            out[byte] ^= 1 << (bit % 8);
            out
        }
        1 => [&toks[..tok], &toks[tok + 1..]].concat().concat(),
        2 => [&toks[..=tok], &toks[tok..]].concat().concat(),
        _ => s[..byte].to_vec(),
    }
}

proptest! {
    /// Byte flips, token drops and duplicates, and truncations of every
    /// preset spec (alone, and as a labeled pipeline list), checked
    /// after every edit.
    #[test]
    fn mutated_preset_specs_parse_or_error(
        edits in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        for (name, spec) in PINNED_PRESETS {
            for seed in [spec.to_string(), format!("{name}; label:{spec}")] {
                let mut input = seed.into_bytes();
                for &(kind, at, bit) in &edits {
                    input = mutate(&input, kind, at, bit);
                    parses_or_errors(&String::from_utf8_lossy(&input))?;
                }
            }
        }
    }

    /// Random strings over the spec alphabet, and every prefix of them.
    #[test]
    fn random_spec_strings_parse_or_error(
        picks in prop::collection::vec(0usize..SPEC_ALPHABET.len(), 0..48),
    ) {
        let input: String = picks.iter().map(|&i| char::from(SPEC_ALPHABET[i])).collect();
        for end in 0..=input.len() {
            parses_or_errors(&input[..end])?;
        }
    }
}
