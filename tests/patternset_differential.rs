//! Differential testing of the multi-pattern subsystem: on synthetic
//! Snort- and Suricata-profile rulesets (several seeds, small scale), the
//! single-shard ([`ShardPolicy::Single`]) [`Engine`] — one merged
//! network, one shared automaton — must report exactly the union of
//! per-[`Pattern`] results tagged by pattern id, chunked streaming must
//! agree with one-shot scanning at every chunk boundary, and the merged
//! MNRL network must validate, place, and carry per-pattern report ids.

use recama::compiler::CompileOptions;
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, Pattern, SetMatch};

/// The single-shard set over `patterns`, through the builder.
fn pattern_set(patterns: &[String]) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(ShardPolicy::Single)
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

fn union_of_per_pattern_matches(patterns: &[String], input: &[u8]) -> Vec<SetMatch> {
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

#[test]
fn snort_and_suricata_sets_match_per_pattern_union() {
    for id in [BenchmarkId::Snort, BenchmarkId::Suricata] {
        for seed in [1u64, 7, 2022] {
            let patterns = sample_patterns(id, 0.004, seed, 400);
            assert!(patterns.len() >= 10, "{id:?}/{seed}: degenerate sample");
            let set = pattern_set(&patterns);
            let ruleset = generate(id, 0.004, seed);
            let input = traffic(&ruleset, 4096, 0.002, seed);

            let mut got = set.scan(&input);
            got.sort();
            assert_eq!(
                got,
                union_of_per_pattern_matches(&patterns, &input),
                "{id:?} seed {seed}: shared engine diverges from per-pattern union"
            );
        }
    }
}

#[test]
fn one_percent_snort_acceptance() {
    // The acceptance-criteria configuration: 1%-scale Snort, one merged
    // network with per-pattern report ids, reports equal to the
    // per-pattern union on generated traffic.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.01, 2022, 600);
    let set = pattern_set(&patterns);

    // One merged network, valid, every pattern represented by report id.
    assert!(
        set.network(0).validate().is_empty(),
        "{:?}",
        set.network(0).validate()
    );
    let expected_ids: Vec<u32> = (0..patterns.len() as u32).collect();
    assert_eq!(set.network(0).report_ids(), expected_ids);

    // Placement covers the merged image.
    let placement = recama::hw::place(set.network(0));
    assert_eq!(placement.per_node.len(), set.network(0).node_count());

    let ruleset = generate(BenchmarkId::Snort, 0.01, 2022);
    let input = traffic(&ruleset, 4096, 0.001, 2022);
    let mut got = set.scan(&input);
    got.sort();
    assert_eq!(got, union_of_per_pattern_matches(&patterns, &input));
}

#[test]
fn chunked_streaming_agrees_with_oneshot_at_every_boundary() {
    for (id, seed) in [(BenchmarkId::Snort, 3u64), (BenchmarkId::Suricata, 11)] {
        let patterns = sample_patterns(id, 0.003, seed, 300);
        let set = pattern_set(&patterns);
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
fn streaming_matches_survive_pathological_boundaries() {
    // Boundaries placed inside every match: each pattern's planted match
    // is split across two feeds.
    let patterns: Vec<String> = vec![
        "header[0-9]{4}end".into(),
        "k[ab]{3,9}z".into(),
        "exact{2}".into(),
    ];
    let set = pattern_set(&patterns);
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
fn module_decisions_are_preserved_per_pattern() {
    // Merging must not change what the compiler decided per pattern:
    // compile the same patterns alone and as a set and compare modules.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 5, 400);
    let set = pattern_set(&patterns);
    for (i, p) in patterns.iter().enumerate() {
        let alone = recama::compiler::compile(
            &recama::syntax::parse(p).unwrap().for_stream(),
            &CompileOptions::default(),
        );
        assert_eq!(
            alone.modules,
            set.outputs()[i].modules,
            "pattern {p}: module decisions changed under merging"
        );
    }
}

#[test]
fn hardware_reports_agree_with_software_on_the_merged_image() {
    let patterns = sample_patterns(BenchmarkId::Suricata, 0.002, 13, 120);
    let set = pattern_set(&patterns);
    let ruleset = generate(BenchmarkId::Suricata, 0.002, 13);
    let input = traffic(&ruleset, 1024, 0.004, 13);

    let mut hw = set.hardware(0);
    let mut hw_reports: Vec<SetMatch> = hw
        .match_ends_by_rule(&input)
        .into_iter()
        .map(|(rule, end)| SetMatch {
            pattern: rule as usize,
            end,
        })
        .collect();
    hw_reports.sort();
    let mut sw_reports = set.scan(&input);
    sw_reports.sort();
    assert_eq!(
        hw_reports, sw_reports,
        "hardware image diverges from shared software engine"
    );
}
