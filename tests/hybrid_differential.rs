//! Differential testing of the hybrid lazy-DFA overlay: on random
//! rulesets mixing pure and counting patterns, random inputs, and random
//! chunk boundaries, a [`ScanMode::Hybrid`] engine must report exactly
//! what the exact [`ScanMode::Nca`] engine reports — which in turn must
//! equal the union of per-[`Pattern`] `find_ends` results. The property
//! runs include pathological state budgets (as small as 1 cached DFA
//! state, so the subset cache thrashes through flushes) and
//! counter-heavy rulesets that force the fallback/re-entry path on
//! nearly every byte.
//!
//! The merged automaton folds every unanchored rule's `Σ*` search loop
//! into one shared state; a pinned ruleset mixes rules on both sides of
//! that fold's eligibility test and checks them across chunkings,
//! prefilter modes (the prefilter's `restart_at` wake-ups) and shard
//! policies.

use proptest::prelude::*;
use recama::hw::ShardPolicy;
use recama::{Engine, Pattern, PrefilterMode, RuleMatch, ScanMode, ServeConfig, SetMatch};

/// Pattern pool the properties sample rulesets from: the left column is
/// pure (counter-free after compilation, so the overlay can stay in DFA
/// mode), the right column counts (forcing fallback and re-entry).
const POOL: &[&str] = &[
    // pure
    "abc",
    "x[yz]w",
    ".*ba",
    "q(r|s)t",
    "[0-9][0-9]k",
    // counting
    "ab{2,5}c",
    ".*a.{3}b",
    "k[0-9]{2,4}z",
    "(xy){2,3}",
    "m{3}",
];

/// Input bytes biased toward the pool's literals so matches and partial
/// matches actually occur.
const INPUT_BYTES: &[u8] = b"abcxyzwqrstkm0123459_";

fn union_of_per_pattern_matches(patterns: &[&str], input: &[u8]) -> Vec<SetMatch> {
    let mut expected = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let pattern = Pattern::compile(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        for end in pattern.find_ends(input) {
            expected.push(SetMatch { pattern: pi, end });
        }
    }
    expected.sort();
    expected
}

fn engine(patterns: &[&str], mode: ScanMode) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .scan_mode(mode)
        .build()
        .unwrap()
}

/// Feeds `input` to a fresh stream of `engine` in chunks of `chunk_len`
/// and collects the reports.
fn chunked_reports(engine: &Engine, input: &[u8], chunk_len: usize) -> Vec<SetMatch> {
    let mut stream = engine.stream();
    let mut out = Vec::new();
    for chunk in input.chunks(chunk_len.max(1)) {
        out.extend(stream.feed(chunk));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn hybrid_agrees_with_nca_and_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        input in prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 0..200),
        budget in prop_oneof![Just(1usize), Just(2), Just(7), Just(4096)],
        chunk_len in 1usize..40,
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();

        let exact = engine(&patterns, ScanMode::Nca);
        let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: budget });

        // Block scans agree with each other and with the per-pattern union.
        let mut exact_scan = exact.scan(&input);
        let mut hybrid_scan = hybrid.scan(&input);
        exact_scan.sort();
        hybrid_scan.sort();
        prop_assert_eq!(&hybrid_scan, &exact_scan, "hybrid vs exact, budget {}", budget);
        prop_assert_eq!(
            &hybrid_scan,
            &union_of_per_pattern_matches(&patterns, &input),
            "hybrid vs per-pattern union"
        );

        // Chunked streaming agrees across modes and with a one-shot feed,
        // whatever the chunk boundaries.
        let oneshot = chunked_reports(&hybrid, &input, input.len().max(1));
        let chunked_hybrid = chunked_reports(&hybrid, &input, chunk_len);
        let chunked_exact = chunked_reports(&exact, &input, chunk_len);
        prop_assert_eq!(&chunked_hybrid, &oneshot, "chunk length {} changes reports", chunk_len);
        prop_assert_eq!(&chunked_hybrid, &chunked_exact, "streamed hybrid vs exact");
    }
}

#[test]
fn counter_fallback_survives_every_chunk_boundary() {
    // Counting patterns keep counters live across most of the input, so
    // the overlay exits and re-enters DFA mode repeatedly; every cut
    // point must leave the reports identical to the exact engine's.
    let patterns = ["ab{2,5}c", ".*a.{3}b", "m{3}", "abc"];
    let input = b"aabbbc.mmma...b.abbbbbc.mmmm.abcab";
    let exact = engine(&patterns, ScanMode::Nca);
    let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: 64 });
    let oneshot = chunked_reports(&exact, input, input.len());
    assert!(!oneshot.is_empty(), "test input must contain matches");
    for cut in 1..input.len() {
        let mut stream = hybrid.stream();
        let mut got: Vec<SetMatch> = stream.feed(&input[..cut]).collect();
        got.extend(stream.feed(&input[cut..]));
        assert_eq!(got, oneshot, "cut at {cut}");
    }
}

#[test]
fn tiny_budgets_flush_but_stay_exact() {
    // A one-state cache cannot hold even the start state's successor:
    // every byte flushes and re-interns. Correctness must not depend on
    // the cache ever being warm.
    let patterns = ["abc", "x[yz]w", ".*ba", "q(r|s)t"];
    let input = b"xabcyxzwbaqrtqstxywabcba";
    let exact = engine(&patterns, ScanMode::Nca).scan(input);
    for budget in [1usize, 2, 3] {
        let hybrid = engine(
            &patterns,
            ScanMode::Hybrid {
                state_budget: budget,
            },
        );
        assert_eq!(hybrid.scan(input), exact, "budget {budget}");
    }
}

#[test]
fn scan_mode_is_exposed_and_defaults_to_hybrid() {
    let default_mode = Engine::builder()
        .patterns(["abc"])
        .build()
        .unwrap()
        .scan_mode();
    assert_eq!(
        default_mode,
        ScanMode::Hybrid {
            state_budget: recama::DEFAULT_STATE_BUDGET
        }
    );
    let forced = engine(&["abc"], ScanMode::Nca);
    assert_eq!(forced.scan_mode(), ScanMode::Nca);
}

#[test]
fn scheduler_reports_hybrid_stats_only_in_hybrid_mode() {
    let patterns = ["abc", "ab{2,3}c"];
    let input = b"zabcz.abbc.abbbc.abc";

    let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: 128 });
    let svc = hybrid.serve();
    let flow = svc.open_flow();
    svc.push(flow, input);
    svc.barrier();
    let stats = svc.metrics().hybrid.expect("hybrid mode exposes stats");
    assert_eq!(
        stats.dfa_bytes + stats.fallback_bytes,
        input.len() as u64,
        "every byte is attributed to exactly one path"
    );
    assert!(stats.dfa_states > 0, "the overlay cached at least q0");

    let exact = engine(&patterns, ScanMode::Nca);
    let svc = exact.serve();
    let flow = svc.open_flow();
    svc.push(flow, input);
    svc.barrier();
    assert_eq!(svc.metrics().hybrid, None, "Nca mode has no overlay");
}

/// Rules on both sides of the shared search state's eligibility test:
/// plain unanchored literals (their loops fold), `^`-anchored rules (no
/// search loop), an anchored loop that is a search loop in all but name
/// (`^.*wor`, folds) and one that is not (`^[abx]*y`: not a full class),
/// a second `Σ` position (`.*abc`), counter-first bodies (the search
/// loop's edges carry counter actions), a body that starts with a full
/// class, and trailing `$` anchors.
const SEARCH_EDGE_RULES: &[&str] = &[
    "hello",
    "^ab",
    "^abx{2}y",
    "^[abx]*y",
    "^.*wor",
    "wor[a-z]d$",
    "[cd]$",
    ".*abc",
    ".{3}x",
    "[^\\n]{10}",
    "a{2,5}",
    "[\\x00-\\xff]b",
];

/// A fixed pseudo-random input over the rules' bytes (newlines and the
/// byte extremes included) with planted matches, long enough that
/// 512-byte chunks split it.
fn search_edge_input() -> Vec<u8> {
    const BYTES: &[u8] = b"abcdxyhelowr\n. \x00\xff";
    let mut state = 0x2545_f491_u32;
    let mut input = b"abxxyhello".to_vec();
    while input.len() < 1500 {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        match state >> 28 {
            0 => input.extend_from_slice(b"hello world abc"),
            1 => input.extend_from_slice(b"\naaaaab.cd"),
            _ => input.push(BYTES[(state >> 8) as usize % BYTES.len()]),
        }
    }
    input.extend_from_slice(b"world");
    input
}

/// A stream's reports (every `$` candidate included, in stream order)
/// and its `$` finishing set.
type Streamed = (Vec<SetMatch>, Vec<SetMatch>);

fn streamed(engine: &Engine, input: &[u8], chunk_len: usize) -> Streamed {
    let mut stream = engine.stream();
    let mut reports = Vec::new();
    for chunk in input.chunks(chunk_len) {
        reports.extend(stream.feed(chunk));
    }
    (reports, stream.finish())
}

/// The same pair from one closed served flow (polls, like `feed`,
/// carry every `$` candidate). Rule ids default to pattern indices.
fn served(engine: &Engine, input: &[u8], chunk_len: usize) -> Streamed {
    let svc = engine.serve_with(2, ServeConfig::default());
    let flow = svc.open_flow();
    for chunk in input.chunks(chunk_len) {
        svc.push(flow, chunk);
    }
    svc.close(flow);
    svc.barrier();
    let as_set = |hits: Vec<RuleMatch>| -> Vec<SetMatch> {
        hits.into_iter()
            .map(|m| SetMatch {
                pattern: m.rule as usize,
                end: m.end as usize,
            })
            .collect()
    };
    (as_set(svc.poll(flow)), as_set(svc.finishing(flow)))
}

#[test]
fn shared_search_state_eligibility_edges_match_the_oracle() {
    let input = search_edge_input();
    let expected = union_of_per_pattern_matches(SEARCH_EDGE_RULES, &input);
    for (pi, _) in SEARCH_EDGE_RULES.iter().enumerate() {
        assert!(
            expected.iter().any(|m| m.pattern == pi),
            "rule {} must match the input",
            SEARCH_EDGE_RULES[pi]
        );
    }
    for policy in [ShardPolicy::Single, ShardPolicy::Fixed(3)] {
        for prefilter in [PrefilterMode::On, PrefilterMode::Off] {
            let build = |mode| {
                Engine::builder()
                    .patterns(SEARCH_EDGE_RULES)
                    .shard_policy(policy)
                    .prefilter(prefilter)
                    .scan_mode(mode)
                    .build()
                    .unwrap()
            };
            let exact = build(ScanMode::Nca);
            let hybrid = build(ScanMode::default());
            let ctx = format!("{policy:?}, prefilter {prefilter:?}");
            let mut scanned = hybrid.scan(&input);
            scanned.sort();
            assert_eq!(scanned, expected, "{ctx}: block scan vs oracle");
            for chunk_len in [1usize, 7, 512] {
                let ctx = format!("{ctx}, chunk {chunk_len}");
                let reference = streamed(&exact, &input, chunk_len);
                let (reports, finishing) = &reference;
                let mut resolved: Vec<SetMatch> = reports
                    .iter()
                    .filter(|m| !SEARCH_EDGE_RULES[m.pattern].ends_with('$'))
                    .chain(finishing)
                    .copied()
                    .collect();
                resolved.sort();
                assert_eq!(resolved, expected, "{ctx}: Nca stream vs oracle");
                assert_eq!(
                    streamed(&hybrid, &input, chunk_len),
                    reference,
                    "{ctx}: hybrid stream vs Nca stream"
                );
                for engine in [&exact, &hybrid] {
                    assert_eq!(
                        served(engine, &input, chunk_len),
                        reference,
                        "{ctx}: {:?} service vs Nca stream",
                        engine.scan_mode()
                    );
                }
            }
        }
    }
}
