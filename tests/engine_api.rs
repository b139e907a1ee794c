//! The `Engine` facade, end to end: builder → scan / spans / stream /
//! service, structured compile errors, lossy builds,
//! backpressure (blocking pushes through a small per-flow budget),
//! idle-flow eviction, and the stream `reset()` regression (reset +
//! rescan must equal a fresh scan, `finish()` included). The exact
//! budget math (`Poll::Pending` at the budget) is pinned without
//! workers by the unit tests in `crates/core/src/service.rs`.

use recama::hw::ShardPolicy;
use recama::{
    CompilePhase, Engine, Pattern, RuleMatch, ServeConfig, ServeError, ServiceHandle, SetMatch,
};
use std::task::Poll;
use std::time::Duration;

const PATTERNS: [&str; 4] = ["ab{2,3}c", "a{3}", "x[yz]{2}", "k\\d{2}$"];
const HAYSTACK: &[u8] = b"abbc.aaa.xyz.abbbc_k42";

/// Per-pattern loop baseline for the expected (pattern, end) reports.
fn baseline(patterns: &[&str], haystack: &[u8]) -> Vec<SetMatch> {
    let mut expected = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        for end in Pattern::compile(p).unwrap().find_ends(haystack) {
            expected.push(SetMatch { pattern: pi, end });
        }
    }
    expected.sort();
    expected
}

#[test]
fn builder_scan_matches_per_pattern_baseline() {
    for policy in [
        ShardPolicy::Single,
        ShardPolicy::Fixed(2),
        ShardPolicy::default(),
    ] {
        let engine = Engine::builder()
            .patterns(PATTERNS)
            .shard_policy(policy)
            .build()
            .unwrap();
        let mut got = engine.scan(HAYSTACK);
        got.sort();
        assert_eq!(got, baseline(&PATTERNS, HAYSTACK), "policy {policy:?}");
    }
}

#[test]
fn scan_spans_agree_with_per_pattern_spans() {
    let engine = Engine::new(["ab{2,3}c", "xyz"]).unwrap();
    let spans = engine.scan_spans(b"zzabbc..xyz..abbbc");
    for (pi, p) in ["ab{2,3}c", "xyz"].iter().enumerate() {
        let pattern = recama::Pattern::compile(p).unwrap();
        let expected: Vec<_> = pattern.find_spans(b"zzabbc..xyz..abbbc");
        let got: Vec<_> = spans
            .iter()
            .filter(|s| s.pattern == pi)
            .map(|s| s.span())
            .collect();
        assert_eq!(got, expected, "pattern {p}");
    }
}

#[test]
fn rules_carry_explicit_ids() {
    let engine = Engine::builder()
        .rule(2009, "ab")
        .rule(404, "cd")
        .pattern("ef") // id defaults to the add-order index
        .build()
        .unwrap();
    assert_eq!(engine.len(), 3);
    assert_eq!(engine.rule_id(0), 2009);
    assert_eq!(engine.rule_id(1), 404);
    assert_eq!(engine.rule_id(2), 2);
    assert_eq!(engine.pattern(1), "cd");
    // Matches report the rule index; ids translate.
    let hits = engine.scan(b"cd");
    assert_eq!(hits, vec![SetMatch { pattern: 1, end: 2 }]);
    assert_eq!(engine.rule_id(hits[0].pattern), 404);
}

#[test]
fn strict_build_reports_index_pattern_and_phase() {
    let err = Engine::builder()
        .patterns(["ok", "bad(", "ok2"])
        .build()
        .unwrap_err();
    assert_eq!(err.index, 1);
    assert_eq!(err.pattern, "bad(");
    assert_eq!(err.phase, CompilePhase::Parse);
    let msg = err.to_string();
    assert!(msg.contains("#1") && msg.contains("bad("), "{msg}");
    // The underlying ParseError chains as the source.
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn lossy_build_records_skipped_rules_queryably() {
    let engine = Engine::builder()
        .rule(10, "a{2}")
        .rule(11, r"(x)\1") // out of fragment: skipped
        .rule(12, "b{3}")
        .lossy(true)
        .build()
        .unwrap();
    assert_eq!(engine.len(), 2);
    let skipped = engine.skipped();
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].index, 1);
    assert_eq!(skipped[0].id, 11);
    assert_eq!(skipped[0].pattern, r"(x)\1");
    assert!(skipped[0].error.is_unsupported());
    // Compiled indices remap onto the original add order and ids.
    assert_eq!(engine.source_index(0), 0);
    assert_eq!(engine.source_index(1), 2);
    assert_eq!(engine.rule_id(1), 12);
    assert!(engine.is_match(b"bbb"));
}

#[test]
fn strict_build_is_lossless_or_fails() {
    // A lossy build of only-good rules skips nothing.
    let engine = Engine::builder()
        .patterns(PATTERNS)
        .lossy(true)
        .build()
        .unwrap();
    assert!(engine.skipped().is_empty());
    assert_eq!(engine.len(), PATTERNS.len());
}

#[test]
fn stream_agrees_with_scan_across_chunkings() {
    let engine = Engine::builder()
        .patterns(["ab{2,4}c", "x{3}", "q[rs]{2}t"])
        .shard_policy(ShardPolicy::Fixed(3))
        .build()
        .unwrap();
    let input = b"zabbbc_xxx_qrst_abbc_xxxx";
    let oneshot = engine.scan(input);
    for chunk_len in [1usize, 3, 9, input.len()] {
        let mut stream = engine.stream();
        let mut got = Vec::new();
        for chunk in input.chunks(chunk_len) {
            got.extend(stream.feed(chunk));
        }
        assert_eq!(got, oneshot, "chunk length {chunk_len}");
    }
}

/// Regression pin (reset bug): a reset stream must behave exactly like
/// a fresh one — `feed` reports AND the `$`-anchor `finish()` set. A
/// stale `DollarTracker` would resurrect the pre-reset candidates or
/// report them at stale offsets.
#[test]
fn reset_stream_equals_fresh_stream_including_finish() {
    let patterns = ["ab$", "ab", "cd$"];
    for policy in [ShardPolicy::Single, ShardPolicy::Fixed(2)] {
        let engine = Engine::builder()
            .patterns(patterns)
            .shard_policy(policy)
            .build()
            .unwrap();

        // Fresh stream over the second input: the reference behavior.
        let second: &[&[u8]] = &[b"zz", b"a", b"b"];
        let mut fresh = engine.stream();
        let mut fresh_feed = Vec::new();
        for chunk in second {
            fresh_feed.extend(fresh.feed(chunk));
        }
        let fresh_finish = fresh.finish();
        assert_eq!(
            fresh_finish,
            vec![SetMatch { pattern: 0, end: 4 }],
            "ab$ ends on the final byte of the second input"
        );

        // Same stream object: first input (with its own $ candidates,
        // ending on a DIFFERENT offset), then reset, then the second
        // input. Everything after the reset must match the fresh run.
        let mut reused = engine.stream();
        for chunk in [&b"ab.c"[..], b"d"] {
            reused.feed(chunk).count(); // ab$ candidate at 2, cd$ at 5
        }
        reused.reset();
        assert_eq!(reused.position(), 0, "reset rewinds to position 0");
        let mut reused_feed = Vec::new();
        for chunk in second {
            reused_feed.extend(reused.feed(chunk));
        }
        assert_eq!(reused_feed, fresh_feed, "policy {policy:?}");
        assert_eq!(reused.finish(), fresh_finish, "policy {policy:?}");
    }
}

#[test]
fn scheduler_from_engine_serves_flows() {
    let engine = Engine::builder()
        .patterns(["ab{2}c", "xyz"])
        .shard_policy(ShardPolicy::Fixed(2))
        .workers(2)
        .build()
        .unwrap();
    assert_eq!(engine.workers(), 2);
    let svc = engine.serve();
    assert_eq!(svc.workers(), 2);
    let (seven, nine) = (svc.open_flow(), svc.open_flow());
    svc.push(seven, b"..ab");
    svc.push(nine, b"xy");
    svc.barrier();
    svc.push(nine, b"z");
    svc.push(seven, b"bc!");
    svc.barrier();
    assert_eq!(svc.poll(seven), vec![RuleMatch { rule: 0, end: 6 }]);
    assert_eq!(svc.poll(nine), vec![RuleMatch { rule: 1, end: 3 }]);
}

#[test]
fn service_reports_match_independent_streams() {
    let engine = Engine::builder()
        .patterns(["ab{2,4}c", "x{3}", "q[rs]{2}t"])
        .shard_policy(ShardPolicy::Fixed(3))
        .workers(3)
        .build()
        .unwrap();
    let flow_a: Vec<&[u8]> = vec![b"zab", b"bbc_x", b"xx"];
    let flow_b: Vec<&[u8]> = vec![b"qrst", b"", b"_abbc"];
    let svc = engine.serve();
    let (a, b) = (svc.open_flow(), svc.open_flow());
    svc.push(a, flow_a[0]);
    svc.push(b, flow_b[0]);
    svc.push(b, flow_b[1]);
    svc.push(a, flow_a[1]);
    svc.push(b, flow_b[2]);
    svc.push(a, flow_a[2]);
    svc.barrier();
    let (got_a, got_b, global) = (svc.poll(a), svc.poll(b), svc.drain_global());
    // Default rule ids are the add-order indices, so a stream's
    // pattern-indexed reports translate one to one.
    let expected = |chunks: &[&[u8]]| {
        let mut stream = engine.stream();
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(stream.feed(chunk).map(|m| RuleMatch {
                rule: m.pattern as u64,
                end: m.end as u64,
            }));
        }
        out
    };
    assert_eq!(got_a, expected(&flow_a));
    assert_eq!(got_b, expected(&flow_b));
    assert_eq!(global.len(), got_a.len() + got_b.len());
}

/// A service with a tiny per-flow budget over `patterns`.
fn budgeted(patterns: &[&str], workers: usize, flow_budget: usize) -> (Engine, ServiceHandle) {
    let engine = Engine::builder()
        .patterns(patterns)
        .workers(workers)
        .serve_config(ServeConfig {
            flow_budget,
            ..ServeConfig::default()
        })
        .build()
        .unwrap();
    let svc = engine.serve();
    (engine, svc)
}

#[test]
fn try_push_applies_backpressure_at_the_budget() {
    // Live workers consume concurrently, so only the drained-state
    // outcomes are deterministic here.
    let (_engine, svc) = budgeted(&["ab"], 1, 8);
    assert_eq!(svc.config().flow_budget, 8);
    let (one, two) = (svc.open_flow(), svc.open_flow());
    assert_eq!(svc.push(one, b"12345678"), 8);
    // Another flow has its own budget.
    assert_eq!(svc.try_push(two, b"ab"), Poll::Ready(2));

    // The workers drain the backlog, space frees, pushes resume.
    svc.barrier();
    assert_eq!(svc.pending_bytes(), 0);
    // A drained flow buffers nothing, so any chunk is accepted.
    assert_eq!(svc.try_push(one, b"9ab"), Poll::Ready(11));
    // Blocking push: waits for the workers instead of returning
    // Pending, even when the chunk exceeds the whole budget.
    assert_eq!(svc.push(one, &[b'a'; 64]), 75);
    svc.barrier();
    // Flow 2's "ab" was scanned.
    assert_eq!(svc.poll(two), vec![RuleMatch { rule: 0, end: 2 }]);
    assert_eq!(svc.poll(one), vec![RuleMatch { rule: 0, end: 11 }]);
}

#[test]
fn blocking_push_streams_a_large_flow_through_a_small_budget() {
    let (_engine, svc) = budgeted(&["kk"], 2, 64);
    // 100 chunks of 48 bytes through a 64-byte budget: producers must
    // repeatedly block on the space condvar and be woken by check-ins.
    let chunk = {
        let mut c = vec![b'.'; 48];
        c[20] = b'k';
        c[21] = b'k';
        c
    };
    let flow = svc.open_flow();
    for _ in 0..100 {
        svc.push(flow, &chunk);
    }
    svc.close(flow);
    svc.barrier();
    let hits = svc.poll(flow);
    assert_eq!(hits.len(), 100);
    assert_eq!(hits[0], RuleMatch { rule: 0, end: 22 });
}

/// Waits (generously, for slow CI machines) until the service reports
/// an eviction, returning every evicted id seen.
fn await_evictions(svc: &ServiceHandle, mut keep_busy: impl FnMut()) -> Vec<recama::FlowId> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut evicted = svc.evictions();
    while evicted.is_empty() && std::time::Instant::now() < deadline {
        keep_busy();
        evicted = svc.evictions();
    }
    evicted
}

fn idle_evicting(patterns: &[&str]) -> (Engine, ServiceHandle) {
    let engine = Engine::builder()
        .patterns(patterns)
        .workers(1)
        .serve_config(ServeConfig {
            idle_timeout: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        })
        .build()
        .unwrap();
    let svc = engine.serve();
    (engine, svc)
}

#[test]
fn service_evicts_idle_flows() {
    let (_engine, svc) = idle_evicting(&["ab$", "ab"]);
    let flow = svc.open_flow();
    assert_eq!(svc.try_push(flow, b"..ab"), Poll::Ready(4));
    svc.barrier();
    // Go quiet: the parked worker's periodic sweep must close the flow.
    let evicted = await_evictions(&svc, || std::thread::sleep(Duration::from_millis(10)));
    assert_eq!(evicted, vec![flow]);
    // Eviction behaves exactly like close(): reports stay pollable and
    // the $-anchored finishing set resolves at the flow's final byte.
    assert_eq!(
        svc.poll(flow),
        vec![RuleMatch { rule: 0, end: 4 }, RuleMatch { rule: 1, end: 4 }]
    );
    assert_eq!(svc.finishing(flow), vec![RuleMatch { rule: 0, end: 4 }]);
    // Fully drained: the flow entry is gone and its slot is recycled
    // under a new generation.
    assert_eq!(svc.flow_count(), 0);
    assert!(!svc.is_live(flow));
    let next = svc.open_flow();
    assert_eq!(next.index(), flow.index());
    assert_ne!(next.generation(), flow.generation());
    assert_eq!(svc.try_push(next, b"ab"), Poll::Ready(2));
}

/// Regression pin: the idle sweep is due-gated inside the worker loop,
/// not only on the park branch — a worker kept busy by one hot flow
/// must still evict a quiet one.
#[test]
fn service_evicts_idle_flows_under_sustained_load() {
    let (_engine, svc) = idle_evicting(&["ab"]);
    let (hot, quiet) = (svc.open_flow(), svc.open_flow());
    assert_eq!(svc.try_push(quiet, b"..ab"), Poll::Ready(4)); // then silent
                                                              // Keep the single worker continuously busy with the hot flow while
                                                              // the quiet one sits idle past the timeout.
    let evicted = await_evictions(&svc, || {
        svc.push(hot, &[b'a'; 4096]);
    });
    svc.close(hot);
    svc.barrier();
    // On a starved 1-core box the producer itself can stall past the
    // timeout, legitimately evicting the hot flow too — only the quiet
    // one is pinned.
    assert!(evicted.contains(&quiet), "the busy worker must still sweep");
    assert_eq!(
        svc.poll(quiet),
        vec![RuleMatch { rule: 0, end: 4 }],
        "the evicted flow's reports stay pollable"
    );
}

#[test]
fn service_state_persists_across_runs() {
    let engine = Engine::builder().patterns(["abc"]).build().unwrap();
    let svc = engine.serve();
    let flow = svc.open_flow();
    svc.push(flow, b"a");
    svc.barrier();
    // Between flushes: state intact.
    assert_eq!(svc.flow_len(flow), Some(1));
    svc.push(flow, b"b");
    assert_eq!(svc.flow_len(flow), Some(2));
    svc.push(flow, b"c");
    svc.barrier();
    assert_eq!(svc.poll(flow), vec![RuleMatch { rule: 0, end: 3 }]);
}

#[test]
fn closed_flows_reject_pushes_and_keep_reports_until_drained() {
    // The rejection of a push to a closed, undrained flow is pinned
    // deterministically (no workers) by the unit tests in
    // `crates/core/src/service.rs`; here the flow has drained.
    let engine = Engine::builder().patterns(["ab"]).build().unwrap();
    let svc = engine.serve();
    let first = svc.open_flow();
    svc.push(first, b"ab");
    svc.close(first);
    svc.barrier();
    // Closed: the id takes no more bytes, but its report stays queued.
    assert_eq!(svc.try_push(first, b"ab"), Poll::Pending);
    assert_eq!(svc.push_checked(first, b"ab"), Err(ServeError::Closed));
    assert_eq!(svc.flow_len(first), Some(2));
    // A new flow starts fresh at position 0.
    let second = svc.open_flow();
    svc.push(second, b"ab");
    assert_eq!(svc.flow_len(second), Some(2));
    svc.barrier();
    assert_eq!(svc.poll(first), vec![RuleMatch { rule: 0, end: 2 }]);
    assert_eq!(svc.poll(second), vec![RuleMatch { rule: 0, end: 2 }]);
    // Drained: the first id went stale.
    assert!(!svc.is_live(first));
}

#[test]
fn empty_engine_is_well_formed() {
    let engine = Engine::new(Vec::<String>::new()).unwrap();
    assert!(engine.is_empty());
    assert_eq!(engine.shard_count(), 1);
    assert!(engine.scan(b"anything").is_empty());
    assert!(engine.network(0).validate().is_empty());
    let svc = engine.serve();
    let flow = svc.open_flow();
    svc.push(flow, b"anything");
    svc.barrier();
    assert!(svc.poll(flow).is_empty());
}

#[test]
fn engine_and_service_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<ServiceHandle>();
    assert_send_sync::<ServeConfig>();

    // Producers really can fan out over one handle.
    let engine = Engine::builder()
        .patterns(["kk"])
        .workers(2)
        .build()
        .unwrap();
    let svc = engine.serve();
    let flows: Vec<_> = (0..4).map(|_| svc.open_flow()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = flows
            .iter()
            .map(|&flow| {
                let svc = &svc;
                scope.spawn(move || svc.push(flow, b"..kk.."))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    svc.barrier();
    let total: usize = flows.iter().map(|&flow| svc.poll(flow).len()).sum();
    assert_eq!(total, 4);
}
