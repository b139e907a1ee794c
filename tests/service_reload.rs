//! Differential pins for the owned [`ServiceHandle`]: hot reload,
//! epoch retirement, generational flow-table safety, and the
//! `drain_global` ordering contract.
//!
//! The reload contract under test: a flow that migrates across
//! [`ServiceHandle::reload`] is **cut at the migration boundary** —
//! bytes before the boundary are scanned by the old engine, bytes after
//! it by the new engine starting fresh. So the service's reports must
//! be byte-identical to two independent per-flow streams: the old
//! engine's [`ShardedSetStream`] over the pre-boundary bytes, then a
//! fresh stream of the new engine over the post-boundary suffix (ends
//! offset by the boundary). Counter rules (`ab{2,3}c`) pin that
//! counting state does NOT leak across the cut; `$`-anchored rules pin
//! that the finishing set resolves against the new engine only.

use recama::{Engine, FlowId, RuleMatch, ServeConfig, ServiceHandle};
use std::task::Poll;

/// The old engine's reports over `data`, as stable rule ids with ends
/// offset by `base` — the per-flow oracle for one side of the cut.
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

/// The `$`-anchored finishing set of a fresh stream over `data`.
fn finish_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
    let mut stream = engine.stream();
    stream.feed(data).for_each(drop);
    stream
        .finish()
        .into_iter()
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
        let len = 1 + (state >> 33) as usize % 7;
        let end = (offset + len).min(data.len());
        svc.push(flow, &data[offset..end]);
        offset = end;
    }
}

fn v1() -> Engine {
    Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(30, "k[0-9]{2,4}m")
        .build()
        .unwrap()
}

fn v2() -> Engine {
    // Rule 20 survives the reload (same stable id, different compiled
    // index); 10 and 30 are dropped; 40 and 50 are new.
    Engine::builder()
        .rule(40, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(50, "q{2,4}w")
        .build()
        .unwrap()
}

#[test]
fn reload_at_flow_boundary_is_byte_identical_to_fresh_engine_scans() {
    let a = v1();
    let b = v2();
    let svc = a.serve_with(2, ServeConfig::default());

    // Per-flow (pre, post) halves. The first flow parks a counter rule
    // mid-count at the cut: "..abb" + "bc." concatenated would match
    // ab{2,3}c at the seam, but the cut must prevent exactly that.
    let halves: &[(&[u8], &[u8])] = &[
        (b"..abb", b"bc.abbc.qqw"),
        (b"k12m.xyz", b"xyz.abbbc"),
        (b"abbc.k1234m", b"qqqw..xyz"),
        (b"xyz", b"xyz"),
    ];

    let flows: Vec<FlowId> = halves.iter().map(|_| svc.open_flow()).collect();
    for (flow, (pre, _)) in flows.iter().zip(halves) {
        push_chunked(&svc, *flow, pre, 0x9e37 + flow.index() as u64);
    }
    svc.barrier(); // every flow drained: the cut lands at the pre/post boundary
    assert_eq!(svc.reload(&b), 1);
    assert_eq!(svc.epoch(), 1);
    for (flow, (_, post)) in flows.iter().zip(halves) {
        // The first accepted non-empty push migrates the drained flow.
        push_chunked(&svc, *flow, post, 0x5bd1 + flow.index() as u64);
        svc.close(*flow);
    }
    svc.barrier();

    for (flow, (pre, post)) in flows.iter().zip(halves) {
        let boundary = pre.len() as u64;
        let mut expected = scan_oracle(&a, pre, 0);
        expected.extend(scan_oracle(&b, post, boundary));
        assert_eq!(
            svc.poll(*flow),
            expected,
            "flow {flow}: reports must equal old-engine(pre) ++ fresh-new-engine(post)"
        );
        assert_eq!(
            svc.finishing(*flow),
            finish_oracle(&b, post, boundary),
            "flow {flow}: finishing must resolve against the new engine only"
        );
    }
    svc.shutdown();
}

#[test]
fn reports_keep_stable_rule_ids_across_the_swap() {
    let a = v1();
    let b = v2();
    let svc = a.serve_with(2, ServeConfig::default());
    let flow = svc.open_flow();

    svc.push(flow, b".xyz"); // rule 20 under engine A (pattern index 1)
    svc.barrier();
    svc.reload(&b);
    svc.push(flow, b".xyz"); // rule 20 under engine B (pattern index 1 of a different set)
    svc.close(flow);
    svc.barrier();

    let rules: Vec<(u64, u64)> = svc.poll(flow).iter().map(|m| (m.rule, m.end)).collect();
    assert_eq!(rules, vec![(20, 4), (20, 8)]);
    assert_eq!(
        svc.finishing(flow)
            .iter()
            .map(|m| (m.rule, m.end))
            .collect::<Vec<_>>(),
        vec![(20, 8)]
    );
    svc.shutdown();
}

#[test]
fn retired_epochs_free_when_their_last_flow_lets_go() {
    let a = v1();
    let b = v2();
    let svc = a.serve_with(2, ServeConfig::default());

    let migrator = svc.open_flow();
    let holdout = svc.open_flow();
    svc.push(migrator, b"abbc.");
    svc.push(holdout, b"k12m.");
    svc.barrier();

    svc.reload(&b);
    let m = svc.metrics();
    assert_eq!(m.epoch, 1);
    assert_eq!(m.reloads, 1);
    // Both flows still pin epoch 0; the new epoch serves no flow yet.
    assert_eq!(m.epoch_flows, vec![(0, 2), (1, 0)]);

    // The migrator's next push moves it onto epoch 1.
    svc.push(migrator, b"qqw");
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(0, 1), (1, 1)]);

    // Closing (and draining) the holdout releases the last pin on the
    // retired epoch: its machine image is freed.
    svc.close(holdout);
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 1)]);

    // New flows open on the current epoch.
    let fresh = svc.open_flow();
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 2)]);

    // Drain everything; the service ends on the new epoch alone.
    for flow in [migrator, fresh] {
        svc.close(flow);
    }
    svc.barrier();
    for flow in [migrator, holdout, fresh] {
        svc.poll(flow);
        svc.finishing(flow);
    }
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 0)]);
    assert_eq!(svc.flow_count(), 0);
    svc.shutdown();
}

/// The generational ABA guard: a recycled slot must never deliver the
/// previous tenant's matches to the new tenant, and a stale id must
/// observe nothing — across many reuse cycles, with matches left
/// deliberately undrained at close time so they are pending exactly
/// when the slot is reused.
#[test]
fn slot_reuse_never_leaks_a_stale_flows_matches() {
    let engine = Engine::builder()
        .rule(1, "ab{2,3}c")
        .rule(2, "xyz$")
        .build()
        .unwrap();
    let svc = engine.serve_with(2, ServeConfig::default());

    let mut stale: Vec<FlowId> = Vec::new();
    for round in 0u64..50 {
        let flow = svc.open_flow();
        // Every prior incarnation's id must be dead and silent, even
        // though some share this flow's slot index.
        for old in &stale {
            assert!(!svc.is_live(*old), "stale id {old} resurrected");
            assert!(
                svc.poll(*old).is_empty(),
                "stale id {old} delivered matches"
            );
            assert!(svc.finishing(*old).is_empty());
            assert_eq!(svc.flow_len(*old), None);
            assert!(matches!(svc.try_push(*old, b"abbc"), Poll::Pending));
        }
        // Alternate payloads so a leak is visible as a wrong-rule or
        // wrong-end report, not a harmless duplicate.
        let data: &[u8] = if round % 2 == 0 { b".abbc." } else { b"..xyz" };
        push_chunked(&svc, flow, data, round + 1);
        svc.close(flow);
        svc.barrier();
        let expected = scan_oracle(&engine, data, 0);
        assert_eq!(svc.poll(flow), expected, "round {round}");
        assert_eq!(svc.finishing(flow), finish_oracle(&engine, data, 0));
        // Fully drained: the slot recycles and this id goes stale.
        assert!(!svc.is_live(flow));
        stale.push(flow);
    }
    // 50 incarnations fit in a handful of recycled slots.
    assert!(stale.iter().map(|id| id.index()).max().unwrap() < 4);
    svc.shutdown();
}

/// Pins the documented `drain_global` ordering contract: per flow, the
/// sink's events form exactly that flow's stream-order report sequence
/// (each match exactly once); the cross-flow interleaving is free.
#[test]
fn drain_global_yields_each_flow_in_stream_order_exactly_once() {
    let engine = Engine::builder()
        .rule(7, "ab{2,3}c")
        .rule(8, "k[0-9]{2,4}m")
        .build()
        .unwrap();
    let svc = engine.serve_with(3, ServeConfig::default());

    let payloads: &[&[u8]] = &[
        b".abbc.k12m.abbbc",
        b"k1234m..abbc",
        b"no matches here",
        b"abbcabbc.k99m",
    ];
    let flows: Vec<FlowId> = payloads.iter().map(|_| svc.open_flow()).collect();
    for (flow, data) in flows.iter().zip(payloads) {
        push_chunked(&svc, *flow, data, 0xfeed + flow.index() as u64);
        svc.close(*flow);
    }
    svc.barrier();

    let events = svc.drain_global();
    let mut total = 0;
    for (flow, data) in flows.iter().zip(payloads) {
        let expected = scan_oracle(&engine, data, 0);
        let seen: Vec<RuleMatch> = events
            .iter()
            .filter(|ev| ev.flow == *flow)
            .map(|ev| RuleMatch {
                rule: ev.rule,
                end: ev.end,
            })
            .collect();
        assert_eq!(seen, expected, "flow {flow}: per-flow sink subsequence");
        total += expected.len();
    }
    assert_eq!(events.len(), total, "every merged match exactly once");
    assert!(svc.drain_global().is_empty(), "the sink drains");
    svc.shutdown();
}

/// Reload while bytes are still in flight: the service may only migrate
/// a flow at a drained chunk boundary, so every report still lands on
/// exactly one side of the cut and nothing is lost — pinned by count
/// and by per-epoch rule identity.
#[test]
fn mid_traffic_reload_loses_no_matches() {
    let a = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let b = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let svc = a.serve_with(
        2,
        ServeConfig {
            flow_budget: 1 << 20,
            ..ServeConfig::default()
        },
    );

    let flows: Vec<FlowId> = (0..8).map(|_| svc.open_flow()).collect();
    let unit = b".abbc."; // one match per repetition, never straddling
    let mut pushed = 0u64;
    for round in 0..40 {
        for flow in &flows {
            svc.push(*flow, unit);
            pushed += 1;
        }
        if round == 20 {
            // No barrier: flows migrate (or not) wherever their next
            // accepted push finds them drained.
            svc.reload(&b);
        }
    }
    for flow in &flows {
        svc.close(*flow);
    }
    svc.barrier();

    let mut matches = 0u64;
    for flow in &flows {
        for m in svc.poll(*flow) {
            assert_eq!(m.rule, 1);
            assert_eq!(m.end % unit.len() as u64, 5, "match ends stay on the grid");
            matches += 1;
        }
    }
    assert_eq!(matches, pushed, "one match per pushed unit, none lost");
    assert_eq!(svc.metrics().reloads, 1);
    svc.shutdown();
}

/// Regression (folded in from the PR-8 review probe): closing an
/// already-finished flow a second time — after a reload retired its
/// epoch — must neither panic nor disturb its undrained reports.
#[test]
fn double_close_after_reload() {
    let v1 = Engine::builder().rule(7, "abc").build().unwrap();
    let v2 = Engine::builder()
        .rule(7, "abc")
        .rule(9, "xyz")
        .build()
        .unwrap();
    let svc = v1.serve();
    let flow = svc.open_flow();
    svc.push(flow, b".abc.");
    svc.close(flow);
    svc.barrier();
    // flow is finished (engines freed, epoch pin released) but its
    // reports are still undrained, so the slot stays occupied.
    let _ = svc.reload(&v2); // epoch 0 now has zero pins -> retired
    svc.close(flow); // second close on a live-but-finished id
    let hits = svc.poll(flow);
    assert_eq!(hits.len(), 1);
}

/// A [`ServiceHandle::metrics`] snapshot taken while reloads race
/// pushes must still be internally coherent: the epoch counter is
/// monotone, the reported current epoch always appears in
/// `epoch_flows`, no listed epoch exceeds the current one, and the
/// per-epoch flow counts never sum past the tracked-flow gauge.
#[test]
fn metrics_snapshot_stays_coherent_while_reload_races_pushes() {
    let a = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let svc = a.serve_with(2, ServeConfig::default());

    std::thread::scope(|scope| {
        // Producer: steady traffic over a rotating set of flows.
        scope.spawn(|| {
            for round in 0u64..30 {
                let flows: Vec<FlowId> = (0..4).map(|_| svc.open_flow()).collect();
                for flow in &flows {
                    push_chunked(&svc, *flow, b".abbc.abbc.", round + 1);
                }
                for flow in &flows {
                    svc.close(*flow);
                    svc.poll(*flow);
                }
            }
        });
        // Reloader: installs a new epoch as fast as it can compile one.
        scope.spawn(|| {
            for _ in 0..10 {
                let b = Engine::builder().rule(1, "ab{2}c").build().unwrap();
                svc.reload(&b);
            }
        });
        // Sampler: every snapshot must be coherent mid-race.
        let mut last_epoch = 0u64;
        for _ in 0..200 {
            let m = svc.metrics();
            assert!(m.epoch >= last_epoch, "epoch counter is monotone");
            last_epoch = m.epoch;
            assert!(
                m.epoch_flows.iter().any(|&(e, _)| e == m.epoch),
                "current epoch {} missing from epoch_flows {:?}",
                m.epoch,
                m.epoch_flows
            );
            assert!(
                m.epoch_flows.iter().all(|&(e, _)| e <= m.epoch),
                "epoch_flows lists a future epoch: {:?}",
                m.epoch_flows
            );
            assert!(
                m.epoch_flows.windows(2).all(|w| w[0].0 < w[1].0),
                "epoch_flows is ascending and duplicate-free: {:?}",
                m.epoch_flows
            );
            let pinned: usize = m.epoch_flows.iter().map(|&(_, n)| n).sum();
            assert!(
                pinned <= m.flows,
                "{pinned} pinned flows exceed {} tracked",
                m.flows
            );
        }
    });
    svc.barrier();
    assert_eq!(svc.metrics().reloads, 10);
    svc.shutdown();
}
