//! Differential testing of the many-flow serving layer: for ANY
//! interleaving of chunks across flows, any worker-pool size, and any
//! shard plan, a [`ServiceHandle`] must deliver per-flow reports
//! **byte-identical** (same reports, same order) to feeding each flow's
//! chunks through its own independent [`ShardedSetStream`] — plus the
//! edge cases a serving layer meets: zero-length chunks, one flow
//! spread over many workers, many flows on one worker, and flows closed
//! and replaced by fresh ones.
//!
//! Every engine here uses default rule ids, so a served
//! [`RuleMatch::rule`] is the stream's pattern index.
//!
//! [`ServiceHandle`]: recama::ServiceHandle
//! [`ShardedSetStream`]: recama::ShardedSetStream

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, FlowId, RuleMatch, ServeConfig, ServiceHandle, SetMatch};
use std::collections::HashMap;

/// The parseable patterns of a scaled synthetic ruleset, bounded to keep
/// compile times test-friendly (same sampling as the sharded suite).
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

/// Splits `input` into randomized chunks (including occasional empty
/// ones), so chunk boundaries land everywhere matches can straddle.
fn random_chunks<'i>(input: &'i [u8], rng: &mut StdRng) -> Vec<&'i [u8]> {
    let mut chunks = Vec::new();
    let mut at = 0usize;
    while at < input.len() {
        if rng.gen_bool(0.1) {
            chunks.push(&input[at..at]); // zero-length chunk
        }
        let len = rng.gen_range(1..=64.min(input.len() - at));
        chunks.push(&input[at..at + len]);
        at += len;
    }
    chunks
}

/// The engine over `patterns` under a shard `policy`.
fn build<S: AsRef<str>>(patterns: &[S], policy: ShardPolicy) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(policy)
        .build()
        .unwrap()
}

/// A service over `engine` with `workers` workers and the default
/// budgets.
fn serve(engine: &Engine, workers: usize) -> ServiceHandle {
    engine.serve_with(workers, ServeConfig::default())
}

/// A stream report as the service reports it (default rule ids).
fn rule_match(m: SetMatch) -> RuleMatch {
    RuleMatch {
        rule: m.pattern as u64,
        end: m.end as u64,
    }
}

/// What an independent per-flow stream reports for this chunk sequence.
fn expected_for(engine: &Engine, chunks: &[&[u8]]) -> Vec<RuleMatch> {
    let mut stream = engine.stream();
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend(stream.feed(chunk).map(rule_match));
    }
    out
}

#[test]
fn randomized_interleavings_match_independent_streams() {
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 2022, 400);
    assert!(
        patterns.len() >= 10,
        "degenerate sample: {}",
        patterns.len()
    );
    let engine = build(&patterns, ShardPolicy::Fixed(3));
    let ruleset = generate(BenchmarkId::Snort, 0.004, 2022);

    for seed in [1u64, 7, 2022] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-flow byte streams with planted matches, different per flow.
        let flows: Vec<Vec<u8>> = (0..5)
            .map(|fi| traffic(&ruleset, 2048, 0.002, seed * 31 + fi))
            .collect();
        let chunked: Vec<Vec<&[u8]>> = flows.iter().map(|f| random_chunks(f, &mut rng)).collect();

        // One interleaved event list: (flow, chunk index), shuffled while
        // preserving each flow's own chunk order.
        let mut cursors = vec![0usize; flows.len()];
        let mut events: Vec<usize> = Vec::new();
        loop {
            let live: Vec<usize> = (0..flows.len())
                .filter(|&fi| cursors[fi] < chunked[fi].len())
                .collect();
            if live.is_empty() {
                break;
            }
            let fi = live[rng.gen_range(0..live.len())];
            events.push(fi);
            cursors[fi] += 1;
        }

        for workers in [1usize, 4] {
            let svc = serve(&engine, workers);
            let ids: Vec<FlowId> = flows.iter().map(|_| svc.open_flow()).collect();
            let mut cursors = vec![0usize; flows.len()];
            for (ei, &fi) in events.iter().enumerate() {
                svc.push(ids[fi], chunked[fi][cursors[fi]]);
                cursors[fi] += 1;
                // Flush at arbitrary points mid-stream, not just at the end.
                if ei % 17 == 0 {
                    svc.barrier();
                }
            }
            svc.barrier();

            let global = svc.drain_global();
            for (fi, chunks) in chunked.iter().enumerate() {
                let expected = expected_for(&engine, chunks);
                assert_eq!(
                    svc.poll(ids[fi]),
                    expected,
                    "seed {seed}, {workers} worker(s), flow {fi}: \
                     served output diverges from an independent stream"
                );
                // The global sink holds the same matches, flow-attributed.
                let mut from_sink: Vec<RuleMatch> = global
                    .iter()
                    .filter(|ev| ev.flow == ids[fi])
                    .map(|ev| RuleMatch {
                        rule: ev.rule,
                        end: ev.end,
                    })
                    .collect();
                from_sink.sort();
                let mut expected_sorted = expected;
                expected_sorted.sort();
                assert_eq!(from_sink, expected_sorted, "global sink, flow {fi}");
            }
            assert_eq!(svc.pending_bytes(), 0);
        }
    }
}

#[test]
fn single_flow_spreads_over_many_workers() {
    // One flow, eight workers: only shard-level parallelism is available,
    // and the merged output must still be in stream order.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 7, 400);
    let engine = build(&patterns, ShardPolicy::Fixed(4));
    let ruleset = generate(BenchmarkId::Snort, 0.004, 7);
    let input = traffic(&ruleset, 8 * 1024, 0.002, 7);

    let svc = serve(&engine, 8);
    let flow = svc.open_flow();
    let mut expected = Vec::new();
    let mut stream = engine.stream();
    for chunk in input.chunks(512) {
        svc.push(flow, chunk);
        expected.extend(stream.feed(chunk).map(rule_match));
    }
    svc.barrier();
    assert_eq!(svc.poll(flow), expected);
}

#[test]
fn many_flows_on_one_worker() {
    let patterns = sample_patterns(BenchmarkId::Suricata, 0.004, 1, 400);
    let engine = build(&patterns, ShardPolicy::Fixed(2));
    let ruleset = generate(BenchmarkId::Suricata, 0.004, 1);

    let svc = serve(&engine, 1);
    let flows: Vec<Vec<u8>> = (0..32)
        .map(|fi| traffic(&ruleset, 512, 0.002, 100 + fi))
        .collect();
    let ids: Vec<FlowId> = flows.iter().map(|_| svc.open_flow()).collect();
    // Round-robin pushes, single flush.
    for chunk_round in 0..4 {
        for (fi, bytes) in flows.iter().enumerate() {
            let quarter = bytes.len() / 4;
            svc.push(
                ids[fi],
                &bytes[chunk_round * quarter..(chunk_round + 1) * quarter],
            );
        }
    }
    svc.barrier();
    for (fi, bytes) in flows.iter().enumerate() {
        let quarter = bytes.len() / 4;
        let chunks: Vec<&[u8]> = (0..4)
            .map(|r| &bytes[r * quarter..(r + 1) * quarter])
            .collect();
        assert_eq!(
            svc.poll(ids[fi]),
            expected_for(&engine, &chunks),
            "flow {fi}"
        );
    }
}

#[test]
fn close_and_reopen_cycles_keep_flows_independent() {
    let engine = build(&["ab{2}c", "xyz"], ShardPolicy::Fixed(2));
    let svc = serve(&engine, 2);

    // Three flows in turn reuse one recycled slot, each a fresh stream:
    // the match must be found at the *flow-local* offset every time,
    // proving no engine state leaks across close and reuse.
    let mut previous: Option<FlowId> = None;
    for incarnation in 0..3u64 {
        let flow = svc.open_flow();
        if let Some(previous) = previous {
            assert_eq!(flow.index(), previous.index(), "the slot is recycled");
            assert!(!svc.is_live(previous), "the old id went stale");
        }
        svc.push(flow, b"..ab");
        svc.push(flow, b"bc");
        svc.close(flow);
        svc.barrier();
        assert_eq!(
            svc.poll(flow),
            vec![RuleMatch { rule: 0, end: 6 }],
            "incarnation {incarnation}"
        );
        assert_eq!(svc.flow_count(), 0, "drained flows are forgotten");
        previous = Some(flow);
    }

    // A flow closed while another stays open: the survivor is unaffected.
    let (one, two) = (svc.open_flow(), svc.open_flow());
    svc.push(one, b"xy");
    svc.push(two, b"..a");
    svc.close(one);
    svc.barrier();
    svc.push(two, b"bbc");
    svc.barrier();
    assert!(svc.poll(one).is_empty());
    assert_eq!(svc.poll(two), vec![RuleMatch { rule: 0, end: 6 }]);
}

#[test]
fn closed_flows_finish_like_their_streams() {
    // Patterns 0 and 2 are $-anchored; 1 and 3 are not.
    let patterns = ["ab$", "ab", "a{2,3}$", "cd"];
    let engine = build(&patterns, ShardPolicy::Fixed(2));
    let dollar = [true, false, true, false];

    let inputs: [&[u8]; 4] = [b"xx.ab", b"cd.aaa", b"ab.cd.ab", b""];
    let svc = serve(&engine, 2);
    let ids: Vec<FlowId> = inputs.iter().map(|_| svc.open_flow()).collect();
    for (fi, bytes) in inputs.iter().enumerate() {
        for chunk in bytes.chunks(2) {
            svc.push(ids[fi], chunk);
        }
        svc.close(ids[fi]);
    }
    svc.barrier();
    for (fi, bytes) in inputs.iter().enumerate() {
        // Non-$ polled reports + the finishing set == the one-shot
        // $-filtered scan of the whole flow.
        let mut got: Vec<RuleMatch> = svc
            .poll(ids[fi])
            .into_iter()
            .filter(|m| !dollar[m.rule as usize])
            .collect();
        got.extend(svc.finishing(ids[fi]));
        got.sort_by_key(|m| (m.end, m.rule)); // scan's stream order
        let expected: Vec<RuleMatch> = engine.scan(bytes).into_iter().map(rule_match).collect();
        assert_eq!(got, expected, "flow {fi}");
    }
}

#[test]
fn reports_group_by_flow_consistently_between_queue_and_sink() {
    let engine = build(&["kk"], ShardPolicy::Single);
    let svc = serve(&engine, 3);
    let ids: Vec<FlowId> = (0..10).map(|_| svc.open_flow()).collect();
    for &flow in &ids {
        svc.push(flow, b"..kk..kk");
    }
    svc.barrier();
    let mut by_flow: HashMap<FlowId, Vec<RuleMatch>> = HashMap::new();
    for ev in svc.drain_global() {
        by_flow.entry(ev.flow).or_default().push(RuleMatch {
            rule: ev.rule,
            end: ev.end,
        });
    }
    for &flow in &ids {
        let polled = svc.poll(flow);
        assert_eq!(polled.len(), 2);
        assert_eq!(by_flow.remove(&flow).unwrap(), polled, "flow {flow}");
    }
    assert!(by_flow.is_empty());
}
