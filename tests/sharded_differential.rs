//! Differential testing of the sharding layer: for any shard plan —
//! bank-budget next-fit, fixed shard counts, and the trivial `N = 1`
//! partition — a sharded [`Engine`] must report **byte-for-byte** what
//! the unsharded ([`ShardPolicy::Single`]) engine reports on Snort/Suricata-profile
//! rulesets across seeds (same reports, same order), sharded chunked
//! streaming must agree with one-shot scanning at every chunk boundary,
//! per-shard machine images must validate and respect the bank budget,
//! and set-level spans must equal the per-pattern reversed-automaton
//! results.

use recama::hw::{RuleCost, ShardBudget, ShardPolicy};
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, Pattern, SetMatch};

/// The engine over `patterns` under a shard `policy`.
fn engine(patterns: &[String], policy: ShardPolicy) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(policy)
        .build()
        .unwrap()
}

/// The parseable patterns of a scaled synthetic ruleset, bounded to keep
/// compile times test-friendly.
fn sample_patterns(id: BenchmarkId, scale: f64, seed: u64, max_mu: u32) -> Vec<String> {
    let ruleset = generate(id, scale, seed);
    ruleset
        .patterns
        .iter()
        .filter(|(_, class)| *class != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| {
            recama::syntax::parse(p)
                .map(|parsed| parsed.regex.mu() <= max_mu)
                .unwrap_or(false)
        })
        .collect()
}

/// A budget small enough to force several shards on tiny test rulesets.
fn tiny_budget() -> ShardPolicy {
    ShardPolicy::Banked(ShardBudget {
        columns: 24,
        counters: 8,
        bitvector_bits: 4000,
    })
}

#[test]
fn sharded_reports_equal_unsharded_across_policies_and_seeds() {
    for id in [BenchmarkId::Snort, BenchmarkId::Suricata] {
        for seed in [1u64, 7, 2022] {
            let patterns = sample_patterns(id, 0.004, seed, 400);
            assert!(patterns.len() >= 10, "{id:?}/{seed}: degenerate sample");
            let single = engine(&patterns, ShardPolicy::Single);
            let ruleset = generate(id, 0.004, seed);
            let input = traffic(&ruleset, 4096, 0.002, seed);
            let expected = single.scan(&input);

            for policy in [
                ShardPolicy::Single,
                ShardPolicy::Fixed(1),
                ShardPolicy::Fixed(3),
                ShardPolicy::Fixed(7),
                tiny_budget(),
            ] {
                let sharded = engine(&patterns, policy);
                // Byte-identical: same reports in the same order, no sort.
                assert_eq!(
                    sharded.scan(&input),
                    expected,
                    "{id:?} seed {seed} policy {policy:?}: sharded scan diverges"
                );
            }
        }
    }
}

#[test]
fn bank_budget_produces_contiguous_shards_within_budget() {
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 2022, 400);
    let budget = ShardBudget {
        columns: 24,
        counters: 8,
        bitvector_bits: 4000,
    };
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Banked(budget))
        .lossy(true)
        .build()
        .unwrap();
    assert!(engine.skipped().is_empty());
    assert!(
        engine.shard_count() > 1,
        "tiny budget must force several shards"
    );
    let mut next = 0usize;
    for si in 0..engine.shard_count() {
        // Contiguous, ordered members (the invariant the ordered report
        // merge relies on).
        for &m in engine.plan().members(si) {
            assert_eq!(m, next, "shard members must be contiguous");
            next += 1;
        }
        // Each shard's merged image validates, and — since merging is a
        // disjoint union — its footprint respects the budget unless a
        // single oversize rule got its own shard.
        let network = engine.network(si);
        assert!(network.validate().is_empty(), "{:?}", network.validate());
        let cost = RuleCost::of_network(network);
        assert!(
            cost.fits(&budget) || engine.plan().members(si).len() == 1,
            "shard {si} overflows the budget with multiple rules: {cost:?}"
        );
    }
    assert_eq!(next, engine.len(), "every pattern must land in some shard");

    // The shared alphabet really is shared: every shard indexes the same
    // number of byte classes.
    let multi = engine.set().multi();
    let class_count = multi.alphabet().len();
    for shard in multi.shards() {
        assert_eq!(shard.alphabet().len(), class_count);
    }
}

#[test]
fn sharded_chunked_streaming_agrees_with_oneshot_at_every_boundary() {
    for (id, seed) in [(BenchmarkId::Snort, 3u64), (BenchmarkId::Suricata, 11)] {
        let patterns = sample_patterns(id, 0.003, seed, 300);
        let set = engine(&patterns, ShardPolicy::Fixed(4));
        let ruleset = generate(id, 0.003, seed);
        let input = traffic(&ruleset, 2048, 0.003, seed);

        let mut oneshot_stream = set.stream();
        let oneshot: Vec<SetMatch> = oneshot_stream.feed(&input).collect();

        for chunk_len in [1usize, 2, 13, 64, 1000, input.len()] {
            let mut stream = set.stream();
            let mut chunked = Vec::new();
            for chunk in input.chunks(chunk_len) {
                chunked.extend(stream.feed(chunk));
            }
            assert_eq!(
                chunked, oneshot,
                "{id:?} seed {seed}: chunk length {chunk_len} changes the reports"
            );
            assert_eq!(stream.position(), input.len() as u64);
        }
    }
}

#[test]
fn sharded_stream_agrees_with_unsharded_stream_on_large_chunks() {
    // Chunks above the parallel-feed threshold exercise the scoped-thread
    // fan-out path; the reports must match the single-engine stream.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 5, 400);
    let single = engine(&patterns, ShardPolicy::Single);
    let sharded = engine(&patterns, ShardPolicy::Fixed(3));
    let ruleset = generate(BenchmarkId::Snort, 0.004, 5);
    let input = traffic(&ruleset, 3 * 8192, 0.002, 5);

    let mut single_stream = single.stream();
    let mut sharded_stream = sharded.stream();
    for chunk in input.chunks(8192) {
        let expected: Vec<SetMatch> = single_stream.feed(chunk).collect();
        let got: Vec<SetMatch> = sharded_stream.feed(chunk).collect();
        assert_eq!(got, expected, "parallel feed diverges");
    }
    assert_eq!(sharded_stream.position(), input.len() as u64);
}

#[test]
fn streaming_matches_survive_pathological_boundaries_under_sharding() {
    // Boundaries placed inside every match: each pattern's planted match
    // is split across two feeds, on a multi-shard set.
    let patterns: Vec<String> = vec![
        "header[0-9]{4}end".into(),
        "k[ab]{3,9}z".into(),
        "exact{2}".into(),
    ];
    let set = engine(&patterns, ShardPolicy::Fixed(3));
    assert_eq!(set.shard_count(), 3);
    let input = b"..header1234end..kabababz..exactexact..";
    let mut oneshot_stream = set.stream();
    let oneshot: Vec<SetMatch> = oneshot_stream.feed(input).collect();
    assert!(!oneshot.is_empty(), "test input must contain matches");
    for cut in 1..input.len() {
        let mut stream = set.stream();
        let mut got: Vec<SetMatch> = stream.feed(&input[..cut]).collect();
        got.extend(stream.feed(&input[cut..]));
        assert_eq!(got, oneshot, "cut at {cut}");
    }
}

#[test]
fn set_spans_equal_per_pattern_spans() {
    let patterns = sample_patterns(BenchmarkId::Suricata, 0.002, 13, 120);
    let sharded = engine(&patterns, ShardPolicy::Fixed(4));
    let ruleset = generate(BenchmarkId::Suricata, 0.002, 13);
    let input = traffic(&ruleset, 2048, 0.004, 13);

    let mut expected: Vec<(usize, usize, usize)> = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let pattern = Pattern::compile(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        for span in pattern.find_spans(&input) {
            expected.push((pi, span.start, span.end));
        }
    }
    expected.sort();
    let mut got: Vec<(usize, usize, usize)> = sharded
        .scan_spans(&input)
        .into_iter()
        .map(|s| (s.pattern, s.start, s.end))
        .collect();
    got.sort();
    assert_eq!(got, expected, "sharded spans diverge from per-pattern");

    // The unsharded set agrees too (same code path, N = 1).
    let single = engine(&patterns, ShardPolicy::Single);
    let mut got_single: Vec<(usize, usize, usize)> = single
        .scan_spans(&input)
        .into_iter()
        .map(|s| (s.pattern, s.start, s.end))
        .collect();
    got_single.sort();
    assert_eq!(got_single, expected);
}

#[test]
fn sharded_hardware_images_agree_with_software() {
    let patterns = sample_patterns(BenchmarkId::Suricata, 0.002, 13, 120);
    let set = engine(&patterns, ShardPolicy::Fixed(3));
    let ruleset = generate(BenchmarkId::Suricata, 0.002, 13);
    let input = traffic(&ruleset, 1024, 0.004, 13);

    let mut hw_reports: Vec<SetMatch> = Vec::new();
    for si in 0..set.shard_count() {
        let mut hw = set.hardware(si);
        hw_reports.extend(
            hw.match_ends_by_rule(&input)
                .into_iter()
                .map(|(rule, end)| SetMatch {
                    pattern: rule as usize,
                    end,
                }),
        );
    }
    hw_reports.sort();
    let mut sw_reports = set.scan(&input);
    sw_reports.sort();
    assert_eq!(
        hw_reports, sw_reports,
        "per-shard hardware images diverge from the parallel software scan"
    );
}

#[test]
fn sharded_streams_move_across_threads() {
    // One resumable engine state per shard per flow, with flows owned by
    // worker threads — the multi-stream scheduler shape.
    let patterns: Vec<String> = vec!["flow[0-9]{2}end".into(), "k[ab]{2,5}z".into()];
    let set = engine(&patterns, ShardPolicy::Fixed(2));
    let flows: [&[u8]; 2] = [b"..flow42end..", b"..kabz..flow07end"];
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = flows
            .iter()
            .map(|flow| {
                let mut stream = set.stream();
                scope.spawn(move || stream.feed(flow).count())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counts, vec![1, 2]);
}
