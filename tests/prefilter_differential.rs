//! Differential testing of the literal-prefilter (MPM) subsystem: a
//! prefiltered engine must be **byte-identical** (same reports, same
//! order) to the same engine built with [`PrefilterMode::Off`] — which
//! in turn must equal the union of per-[`Pattern`] results — on random
//! rulesets mixing literal-bearing and always-on rules, random inputs,
//! and random chunk boundaries. Dedicated pins cover the pathological
//! cases the filter's streaming design exists for: required literals
//! split across chunk boundaries (the Aho–Corasick state and the
//! replay tail both carry over), rulesets where every rule is
//! always-on (the filter must never skip and never miss), a hot reload
//! that changes the literal set mid-flow, and — under
//! `--features fault-inject` — a quarantined flow leaving every other
//! flow's filter state intact.

use proptest::prelude::*;
use recama::{Engine, Pattern, PrefilterMode, RuleMatch, ServeConfig, ServiceHandle, SetMatch};

/// Pattern pool the properties sample rulesets from: the left column
/// carries a usable required literal (contiguous singleton-byte run at
/// a bounded lead), the right column defeats extraction — unbounded
/// lead (`.*`), class-only bytes, or nullability — and must compile to
/// always-on rules that every chunk scans.
const POOL: &[&str] = &[
    // literal-bearing
    "abc",
    "x[yz]w",
    "hdr[0-9]{2}end",
    "nn[ab]{2,4}mm",
    "magic",
    "(xy){2,3}",
    // always-on
    ".*ba",
    "[xy]{2,5}",
    "[0-9][0-9][xy]",
];

/// Input bytes biased toward the pool's literals so hits, near-misses,
/// and partial literals at chunk boundaries all occur.
const INPUT_BYTES: &[u8] = b"abcxyzwhdrendmagicn0123459_";

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

fn engine(patterns: &[&str], mode: PrefilterMode) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .prefilter(mode)
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

/// Stream reports as the service reports them (default rule ids).
fn rule_matches(hits: &[SetMatch]) -> Vec<RuleMatch> {
    hits.iter()
        .map(|m| RuleMatch {
            rule: m.pattern as u64,
            end: m.end as u64,
        })
        .collect()
}

/// A two-worker service over `engine` with the default budgets.
fn serve(engine: &Engine) -> ServiceHandle {
    engine.serve_with(2, ServeConfig::default())
}

/// Pushes `input` through one served flow in `chunk_len` chunks — the
/// checkout-skipping path, as opposed to the in-stream gate.
fn served_reports(engine: &Engine, input: &[u8], chunk_len: usize) -> Vec<RuleMatch> {
    let svc = serve(engine);
    let flow = svc.open_flow();
    for chunk in input.chunks(chunk_len.max(1)) {
        svc.push(flow, chunk);
    }
    svc.barrier();
    svc.poll(flow)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn prefiltered_agrees_with_unfiltered_and_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        input in prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 0..200),
        chunk_len in 1usize..40,
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();

        let on = engine(&patterns, PrefilterMode::On);
        let off = engine(&patterns, PrefilterMode::Off);
        prop_assert_eq!(on.prefilter(), PrefilterMode::On);
        prop_assert_eq!(off.prefilter(), PrefilterMode::Off);

        // The oracle in stream order (ascending end, then pattern). A
        // block scan is one stream feed, so every path is held to it.
        let mut oracle = union_of_per_pattern_matches(&patterns, &input);
        oracle.sort_by_key(|m| (m.end, m.pattern));

        // Block scans: byte-identical, and both equal the oracle.
        let got_on = on.scan(&input);
        prop_assert_eq!(&got_on, &off.scan(&input), "block scan diverges");
        prop_assert_eq!(&got_on, &oracle, "block scan diverges from the oracle");

        // Chunked streams: the filter's resumable state must make every
        // boundary invisible.
        let streamed_on = chunked_reports(&on, &input, chunk_len);
        let streamed_off = chunked_reports(&off, &input, chunk_len);
        prop_assert_eq!(&streamed_on, &streamed_off, "stream diverges");
        prop_assert_eq!(&streamed_on, &oracle, "stream diverges from the oracle");

        // Service checkout skipping: same contract once more.
        prop_assert_eq!(
            served_reports(&on, &input, chunk_len),
            rule_matches(&streamed_on),
            "service diverges"
        );
    }
}

#[test]
fn literals_split_across_every_chunk_boundary() {
    // Boundaries placed inside every required literal: the AC state and
    // the replay tail must reassemble matches the skipped chunks began.
    let patterns = ["hdr[0-9]{2}end", "magic", "nn[ab]{2,4}mm"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    let input = b"..hdr42end..magic..nnababmm..hdr9";
    let mut oneshot = union_of_per_pattern_matches(&patterns, input);
    oneshot.sort_by_key(|m| (m.end, m.pattern));
    assert_eq!(off.scan(input), oneshot);
    assert!(!oneshot.is_empty(), "test input must contain matches");
    for cut in 1..input.len() {
        for eng in [&on, &off] {
            let mut stream = eng.stream();
            let mut got: Vec<SetMatch> = stream.feed(&input[..cut]).collect();
            got.extend(stream.feed(&input[cut..]));
            assert_eq!(got, oneshot, "cut at {cut}");
        }
        // And through the service, where the cold-unit skip rewinds
        // the parked engine rather than feeding it.
        let svc = serve(&on);
        let flow = svc.open_flow();
        svc.push(flow, &input[..cut]);
        svc.push(flow, &input[cut..]);
        svc.barrier();
        assert_eq!(
            svc.poll(flow),
            rule_matches(&oneshot),
            "service cut at {cut}"
        );
    }
}

#[test]
fn always_on_only_rulesets_never_skip_and_never_miss() {
    // No rule yields a usable literal, so the filter compiles to
    // nothing: every chunk scans, nothing is skipped, and the output
    // still matches the unfiltered engine.
    let patterns = [".*ba", "[xy]{2,5}", "[0-9][0-9][xy]"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    assert_eq!(on.prefilter(), PrefilterMode::On);

    let input = b"..ba..xyxy..42x..ba";
    assert_eq!(on.scan(input), off.scan(input));

    let svc = serve(&on);
    let flow = svc.open_flow();
    for chunk in input.chunks(3) {
        svc.push(flow, chunk);
    }
    svc.barrier();
    assert_eq!(svc.poll(flow), rule_matches(&off.scan(input)));

    let stats = svc
        .metrics()
        .prefilter
        .expect("prefilter is on, so stats exist");
    assert_eq!(stats.always_on_rules, patterns.len());
    assert_eq!(
        stats.total_skipped_units(),
        0,
        "always-on shards never skip"
    );
    assert_eq!(stats.total_skipped_bytes(), 0);
    assert_eq!(stats.candidate_hits, 0, "no filter, no candidates");
}

#[test]
fn benign_traffic_skips_while_reports_stay_empty_and_identical() {
    // Purely benign bytes on a literal-only ruleset: every (flow, shard)
    // unit stays cold, every chunk is skipped, and the output is empty —
    // exactly what the unfiltered engine says.
    let patterns = ["magic", "hdr[0-9]{2}end"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    let input = vec![b'.'; 4096];
    assert_eq!(on.scan(&input), off.scan(&input));
    assert!(on.scan(&input).is_empty());

    let svc = serve(&on);
    let (one, two) = (svc.open_flow(), svc.open_flow());
    for chunk in input.chunks(256) {
        svc.push(one, chunk);
        svc.push(two, chunk);
    }
    svc.barrier();
    assert!(svc.poll(one).is_empty());
    assert!(svc.poll(two).is_empty());

    let stats = svc.metrics().prefilter.expect("prefilter is on");
    assert_eq!(stats.always_on_rules, 0);
    assert!(
        stats.total_skipped_units() > 0,
        "benign chunks on cold units must be skipped, got {stats:?}"
    );
    assert_eq!(
        stats.total_skipped_bytes(),
        2 * input.len() as u64 * on.shard_count() as u64,
        "every chunk of both flows must be skipped on every shard"
    );
    assert_eq!(stats.candidate_hits, 0);
}

mod service {
    //! The owned-service half of the contract: hot reload with a changed
    //! literal set, and the metrics block.

    use recama::{Engine, FlowId, PrefilterMode, RuleMatch, ServeConfig, ServiceHandle};

    /// Stable-rule-id oracle: one fresh stream of an **unfiltered**
    /// build over `data`, ends offset by `base`.
    fn scan_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
        let mut stream = engine.stream();
        let hits: Vec<_> = stream.feed(data).collect();
        hits.into_iter()
            .map(|m| RuleMatch {
                rule: engine.rule_id(m.pattern),
                end: m.end as u64 + base,
            })
            .collect()
    }

    /// Splits `data` into uneven deterministic chunks and pushes them.
    fn push_chunked(svc: &ServiceHandle, flow: FlowId, data: &[u8], seed: u64) {
        let mut offset = 0usize;
        let mut state = seed | 1;
        while offset < data.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = 1 + (state >> 33) as usize % 5;
            let end = (offset + len).min(data.len());
            svc.push(flow, &data[offset..end]);
            offset = end;
        }
    }

    fn build(rules: &[(u64, &str)], mode: PrefilterMode) -> Engine {
        let mut b = Engine::builder().prefilter(mode);
        for (id, p) in rules {
            b = b.rule(*id, *p);
        }
        b.build().unwrap()
    }

    #[test]
    fn reload_with_a_changed_literal_set_recompiles_the_filter() {
        // Engine A requires "alpha"; engine B requires "delta". A flow
        // that migrates across the reload must be cut at the boundary:
        // old literals stop mattering, new literals start mattering, and
        // a literal straddling the cut ("del" | "ta9") must neither
        // match nor confuse the fresh filter state.
        let a_rules: &[(u64, &str)] = &[(10, "alpha[0-9]"), (20, "omega$")];
        let b_rules: &[(u64, &str)] = &[(20, "omega$"), (30, "delta[0-9]")];
        let a = build(a_rules, PrefilterMode::On);
        let b = build(b_rules, PrefilterMode::On);
        let a_oracle = build(a_rules, PrefilterMode::Off);
        let b_oracle = build(b_rules, PrefilterMode::Off);

        let pre: &[u8] = b"..alpha7..omega..del";
        let post: &[u8] = b"ta9..delta5..omega";

        let svc = a.serve_with(2, ServeConfig::default());
        let flow = svc.open_flow();
        push_chunked(&svc, flow, pre, 0x9e37);
        svc.barrier(); // drained: the cut lands at the pre/post boundary
        assert_eq!(svc.reload(&b), 1);
        push_chunked(&svc, flow, post, 0x5bd1);
        svc.close(flow);
        svc.barrier();

        let boundary = pre.len() as u64;
        let mut expected = scan_oracle(&a_oracle, pre, 0);
        expected.extend(scan_oracle(&b_oracle, post, boundary));
        assert_eq!(
            svc.poll(flow),
            expected,
            "reports must equal old-filter(pre) ++ fresh-new-filter(post)"
        );

        let m = svc.metrics();
        let pf = m.prefilter.expect("both epochs were built with the filter");
        assert_eq!(
            pf.always_on_rules, 0,
            "every rule carries a usable literal (omega$ is anchored, not empty)"
        );
        assert!(
            pf.candidate_hits > 0,
            "alpha/delta hits must wake their shards: {pf:?}"
        );
        svc.shutdown();
    }

    #[test]
    fn metrics_block_absent_when_the_filter_is_off() {
        let eng = build(&[(1, "magic")], PrefilterMode::Off);
        let svc = eng.serve_with(2, ServeConfig::default());
        let flow = svc.open_flow();
        svc.push(flow, b"..magic..");
        svc.close(flow);
        svc.barrier();
        assert_eq!(svc.poll(flow).len(), 1);
        assert!(svc.metrics().prefilter.is_none());
        svc.shutdown();
    }
}

#[cfg(feature = "fault-inject")]
mod quarantine {
    //! A faulted flow's quarantine must leave every *other* flow's
    //! filter state intact — including an Aho–Corasick automaton parked
    //! mid-literal across the fault.

    use recama::{Engine, FaultPlan, FlowId, PrefilterMode, RuleMatch, ServeConfig, ServeError};

    fn rules() -> [(u64, &'static str); 2] {
        [(1, "needle[0-9]z"), (2, "magicword")]
    }

    fn scan_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
        let mut stream = engine.stream();
        let hits: Vec<_> = stream.feed(data).collect();
        hits.into_iter()
            .map(|m| RuleMatch {
                rule: engine.rule_id(m.pattern),
                end: m.end as u64 + base,
            })
            .collect()
    }

    #[test]
    fn quarantined_flow_leaves_sibling_filter_state_intact() {
        // Flow 1 wakes its shard with a full literal and the injected
        // panic kills that very scan. Flows 0 and 2 meanwhile carry a
        // literal split across three chunks — all skipped until the
        // final fragment completes it — so their AC state and replay
        // tails must survive the quarantine and the worker restart.
        let plan = FaultPlan::new().panic_at(1, 0, 1, "injected: flow 1 dies");
        let engine = {
            let [(ra, pa), (rb, pb)] = rules();
            Engine::builder()
                .rule(ra, pa)
                .rule(rb, pb)
                .prefilter(PrefilterMode::On)
                .fault_plan(plan)
                .build()
                .unwrap()
        };
        let oracle = {
            let [(ra, pa), (rb, pb)] = rules();
            Engine::builder()
                .rule(ra, pa)
                .rule(rb, pb)
                .prefilter(PrefilterMode::Off)
                .build()
                .unwrap()
        };

        let svc = engine.serve_with(2, ServeConfig::default());
        let flows: Vec<FlowId> = (0..3).map(|_| svc.open_flow()).collect();

        // Sibling rounds: benign, then a literal cut mid-word twice.
        let sibling_chunks: &[&[u8]] = &[b"........", b"....need", b"le7z...."];

        // Round 1: siblings skip; flow 1 wakes and dies mid-scan.
        for (i, flow) in flows.iter().enumerate() {
            let chunk: &[u8] = if i == 1 {
                b".needle5z."
            } else {
                sibling_chunks[0]
            };
            match svc.push_checked(*flow, chunk) {
                Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        svc.barrier();
        assert!(svc.is_quarantined(flows[1]));
        assert!(!svc.is_poisoned());

        // Rounds 2–3: only the siblings; their parked mid-literal state
        // must complete the straddled match.
        for chunk in &sibling_chunks[1..] {
            for &fi in &[0usize, 2] {
                svc.push(flows[fi], chunk);
            }
            svc.barrier();
        }

        let full: Vec<u8> = sibling_chunks.concat();
        for &fi in &[0usize, 2] {
            svc.close(flows[fi]);
            assert_eq!(
                svc.poll(flows[fi]),
                scan_oracle(&oracle, &full, 0),
                "sibling flow {fi} must not notice the fault"
            );
        }

        let m = svc.metrics();
        assert_eq!(m.faults.quarantined_flows, 1);
        let pf = m.prefilter.expect("filter is on by default");
        assert!(
            pf.total_skipped_units() > 0,
            "benign sibling chunks must be skipped: {pf:?}"
        );
        assert!(pf.candidate_hits > 0, "wakes must be counted: {pf:?}");
        svc.shutdown();
    }
}
