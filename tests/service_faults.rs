//! Chaos suite for the fault-tolerance layer (`--features
//! fault-inject`): deterministic panics and delays injected into
//! chosen `(flow, shard, k-th scan)` positions via [`FaultPlan`],
//! differentially pinning the isolation contract:
//!
//! * every **non-faulted** flow's output is byte-identical to a
//!   fault-free run — across randomized fault placements, a hot
//!   reload, and worker counts;
//! * the service never globally poisons while the restart budget
//!   lasts, and fail-stops exactly when it is exhausted;
//! * [`ServiceMetrics::faults`] counts exactly the injected faults.
//!
//! Determinism lever: with a `barrier()` between rounds, every
//! non-empty push triggers exactly one scan per `(flow, shard)` unit,
//! so the 1-based scan number a fault addresses equals the round
//! number the chunk was pushed in.

use recama::{
    Engine, FaultPlan, FlowId, OverloadPolicy, RuleMatch, ServeConfig, ServeError, ServiceHandle,
    ServiceMetrics,
};
use std::time::Duration;

fn engine_with(plan: FaultPlan, workers: usize) -> Engine {
    Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(30, "k[0-9]{2,4}m")
        .workers(workers)
        .fault_plan(plan)
        .build()
        .unwrap()
}

/// Stable-rule-id oracle: one fresh stream over `data`.
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

/// The round-robin driver: pushes `chunks[round]` to every flow per
/// round (quarantined flows skipped via `push_checked`), with a
/// barrier between rounds so scan numbers equal round numbers.
fn drive(svc: &ServiceHandle, flows: &[FlowId], chunks: &[&[u8]]) {
    for chunk in chunks {
        for flow in flows {
            match svc.push_checked(*flow, chunk) {
                Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        svc.barrier();
    }
}

fn assert_clean(m: &ServiceMetrics) {
    assert_eq!(m.faults.quarantined_flows, 0);
    assert_eq!(m.faults.worker_restarts, 0);
    assert_eq!(m.faults.shed_opens, 0);
    assert_eq!(m.faults.fail_stops, 0);
}

/// One injected panic quarantines exactly its flow: siblings stay
/// byte-identical to the oracle, the worker respawns, the service
/// never poisons, and the faulted flow's error carries the payload.
#[test]
fn one_panic_quarantines_one_flow_and_the_rest_keep_flowing() {
    let chunks: &[&[u8]] = &[b".abbc.", b"k12m..", b"xyz.ab", b"bc.xyz"];
    let plan = FaultPlan::new().panic_at(1, 0, 2, "injected: flow 1 dies at scan 2");
    let engine = engine_with(plan, 2);
    let svc = engine.serve();

    let flows: Vec<FlowId> = (0..4).map(|_| svc.open_flow()).collect();
    drive(&svc, &flows, chunks);

    // The faulted flow (open order 1) is quarantined; nothing else is.
    assert!(svc.is_quarantined(flows[1]));
    assert!(!svc.is_poisoned());
    assert_eq!(svc.panic_message(), None, "quarantine is not a fail-stop");

    let m = svc.metrics();
    assert_eq!(m.faults.quarantined_flows, 1);
    assert_eq!(m.faults.worker_restarts, 1);
    assert_eq!(m.faults.fail_stops, 0);

    // Every non-faulted flow: byte-identical to a fault-free stream.
    let full: Vec<u8> = chunks.concat();
    for (i, flow) in flows.iter().enumerate() {
        if i == 1 {
            continue;
        }
        svc.close(*flow);
        assert_eq!(
            svc.poll(*flow),
            scan_oracle(&engine, &full, 0),
            "non-faulted flow {i} must not notice the fault"
        );
    }

    // The faulted flow: reports merged before the fault (scan 1 = chunk
    // 1) stay pollable, then the checked calls surface the payload.
    let pre = svc.poll(flows[1]);
    assert_eq!(pre, scan_oracle(&engine, chunks[0], 0));
    match svc.poll_checked(flows[1]) {
        Err(ServeError::Quarantined { message }) => {
            assert!(
                message.contains("injected: flow 1 dies at scan 2"),
                "{message}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    match svc.push_checked(flows[1], b"more") {
        Err(ServeError::Quarantined { .. }) => {}
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // The legacy blocking push panics with the payload in the message.
    let blocked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.push(flows[1], b"more")));
    let panic_text = match blocked {
        Err(payload) => *payload.downcast::<String>().expect("formatted panic"),
        Ok(_) => panic!("push to a quarantined flow must panic"),
    };
    assert!(
        panic_text.contains("injected: flow 1 dies at scan 2"),
        "{panic_text}"
    );

    // Close acknowledges the quarantine and reclaims the slot.
    svc.close(flows[1]);
    assert!(!svc.is_live(flows[1]));

    // The respawned pool still serves fresh traffic.
    let fresh = svc.open_flow();
    svc.push(fresh, b".abbc.");
    svc.close(fresh);
    svc.barrier();
    assert_eq!(svc.poll(fresh), scan_oracle(&engine, b".abbc.", 0));
    svc.shutdown();
}

/// The chaos differential: randomized fault placements × worker counts
/// × a mid-schedule reload. Each configuration runs twice — fault-free
/// and faulted — and every non-faulted flow must be byte-identical
/// between the runs, while the fault counters equal exactly what was
/// injected.
#[test]
fn randomized_faults_never_leak_into_sibling_flows() {
    const FLOWS: usize = 6;
    const PRE_ROUNDS: u64 = 3; // rounds before the reload (= faultable scans)
    const POST_ROUNDS: u64 = 3;

    // Deterministic per-(flow, round) payloads.
    fn chunk(flow: usize, round: u64) -> Vec<u8> {
        let menu: [&[u8]; 5] = [b".abbc.", b"k12m", b"xyz.", b"abbbc", b"qq.ab"];
        menu[(flow as u64 * 7 + round * 3) as usize % menu.len()].to_vec()
    }

    /// Runs the fixed schedule and returns each flow's full drained
    /// output, or `None` for a quarantined flow.
    fn run(workers: usize, plan: FaultPlan, reload_to: &Engine) -> Vec<Option<Vec<RuleMatch>>> {
        let engine = engine_with(plan, workers);
        let svc = engine.serve_with(
            workers,
            ServeConfig {
                restart_budget: 64,
                restart_backoff: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let flows: Vec<FlowId> = (0..FLOWS).map(|_| svc.open_flow()).collect();
        let mut out: Vec<Vec<RuleMatch>> = vec![Vec::new(); FLOWS];
        for round in 1..=(PRE_ROUNDS + POST_ROUNDS) {
            if round == PRE_ROUNDS + 1 {
                svc.reload(reload_to);
            }
            for (i, flow) in flows.iter().enumerate() {
                match svc.push_checked(*flow, &chunk(i, round)) {
                    Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                    Err(e) => panic!("unexpected push error: {e}"),
                }
            }
            svc.barrier();
            for (i, flow) in flows.iter().enumerate() {
                out[i].extend(svc.poll(*flow));
            }
        }
        let quarantined: Vec<bool> = flows.iter().map(|f| svc.is_quarantined(*f)).collect();
        for (i, flow) in flows.iter().enumerate() {
            svc.close(*flow);
            svc.barrier();
            out[i].extend(svc.poll(*flow));
            out[i].extend(svc.finishing(*flow));
        }
        assert!(
            !svc.is_poisoned(),
            "the budget lasts: never globally poisoned"
        );
        svc.shutdown();
        out.into_iter()
            .zip(quarantined)
            .map(|(o, q)| if q { None } else { Some(o) })
            .collect()
    }

    let mut lcg = 0x243f6a8885a308d3u64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };

    for workers in [1, 2, 4] {
        for _trial in 0..2 {
            // 1–2 distinct faulted flows, each panicking once at a
            // pre-reload scan (post-migration scan counters reset, so
            // pre-reload addresses are the deterministic ones).
            let mut faulted: Vec<(u64, u64)> = Vec::new();
            let count = 1 + (next() as usize % 2);
            while faulted.len() < count {
                let flow = next() % FLOWS as u64;
                let scan = 1 + next() % PRE_ROUNDS;
                if !faulted.iter().any(|&(f, _)| f == flow) {
                    faulted.push((flow, scan));
                }
            }
            let mut plan = FaultPlan::new();
            for &(flow, scan) in &faulted {
                plan = plan.panic_at(flow, 0, scan, format!("chaos f{flow}s{scan}"));
            }

            let reload_to = engine_with(FaultPlan::new(), workers);
            let baseline = run(workers, FaultPlan::new(), &reload_to);
            let chaotic = run(workers, plan, &reload_to);

            for i in 0..FLOWS {
                let was_faulted = faulted.iter().any(|&(f, _)| f == i as u64);
                if was_faulted {
                    assert!(
                        chaotic[i].is_none(),
                        "workers={workers} faults={faulted:?}: flow {i} must quarantine"
                    );
                } else {
                    assert_eq!(
                        chaotic[i], baseline[i],
                        "workers={workers} faults={faulted:?}: non-faulted flow {i} \
                         must be byte-identical to the fault-free run"
                    );
                }
            }
        }
    }
}

/// Fault-counter exactness: N injected panics ⇒ exactly N quarantines
/// and N−(budget excess) restarts — and once the budget is exhausted,
/// the service fail-stops with the panic payload surfaced.
#[test]
fn exhausted_restart_budget_falls_back_to_fail_stop() {
    let plan = FaultPlan::new()
        .panic_at(0, 0, 1, "boom-0")
        .panic_at(1, 0, 1, "boom-1")
        .panic_at(2, 0, 1, "boom-2");
    let engine = engine_with(plan, 2);
    let svc = engine.serve_with(
        2,
        ServeConfig {
            restart_budget: 2,
            restart_backoff: Duration::from_micros(100),
            ..ServeConfig::default()
        },
    );

    let flows: Vec<FlowId> = (0..4).map(|_| svc.open_flow()).collect();
    for flow in &flows {
        // A plain push: budgets are clear, so this never blocks; the
        // poisoning races behind it are irrelevant to admission.
        match svc.push_checked(*flow, b".abbc.") {
            Ok(_) | Err(ServeError::Quarantined { .. }) | Err(ServeError::Poisoned { .. }) => {}
            Err(e) => panic!("unexpected push error: {e}"),
        }
    }

    // Three panics: the first two consume the budget (restart), the
    // third fail-stops. No barrier — it would panic mid-drain — so
    // spin on the metrics instead.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !svc.is_poisoned() {
        assert!(
            std::time::Instant::now() < deadline,
            "service never fail-stopped; metrics: {:?}",
            svc.metrics()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let m = svc.metrics();
    assert_eq!(
        m.faults.quarantined_flows, 3,
        "every injected panic quarantined its flow"
    );
    assert_eq!(m.faults.worker_restarts, 2, "budget of 2 consumed");
    assert_eq!(m.faults.fail_stops, 1, "the third panic fail-stopped");

    let message = svc.panic_message().expect("fail-stop records the payload");
    assert!(message.starts_with("boom-"), "{message}");
    match svc.push_checked(flows[3], b"more") {
        Err(ServeError::Poisoned { message }) => {
            assert!(message.starts_with("boom-"), "{message}")
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    match svc.try_open_flow() {
        Err(ServeError::Poisoned { .. }) => {}
        other => panic!("expected Poisoned, got {other:?}"),
    }
    svc.shutdown();
}

/// Injected delays perturb timing only: output stays byte-identical
/// and the fault counters stay zero (a slow scan is not a fault).
#[test]
fn injected_delays_change_timing_but_not_output() {
    let chunks: &[&[u8]] = &[b".abbc.", b"k12m.xyz", b"abbbc..."];
    let plan = FaultPlan::new()
        .delay_at(0, 0, 1, Duration::from_millis(30))
        .delay_at(2, 0, 2, Duration::from_millis(30));
    assert!(!plan.is_empty());
    let engine = engine_with(plan, 2);
    let svc = engine.serve();

    let flows: Vec<FlowId> = (0..3).map(|_| svc.open_flow()).collect();
    drive(&svc, &flows, chunks);

    let full: Vec<u8> = chunks.concat();
    for flow in &flows {
        svc.close(*flow);
        assert_eq!(svc.poll(*flow), scan_oracle(&engine, &full, 0));
    }
    assert_clean(&svc.metrics());
    assert!(!svc.is_poisoned());
    svc.shutdown();
}

/// Overload shedding: while a (delay-pinned) backlog keeps
/// `pending_bytes` above the high watermark, `try_open_flow` sheds —
/// and with `evict_on_shed`, each shed open evicts the LRU drained
/// flow. Once the backlog drains, opens are admitted again.
#[test]
fn overload_high_watermark_sheds_opens_and_evicts_per_policy() {
    let plan = FaultPlan::new().delay_at(1, 0, 1, Duration::from_millis(300));
    let engine = engine_with(plan, 2);
    let svc = engine.serve_with(
        2,
        ServeConfig {
            overload: OverloadPolicy {
                max_pending_bytes: Some(1),
                evict_on_shed: true,
                ..OverloadPolicy::default()
            },
            ..ServeConfig::default()
        },
    );

    let idle = svc.open_flow(); // seq 0: drained, the LRU eviction victim
    let busy = svc.open_flow(); // seq 1: its first scan stalls 300ms
    svc.push(busy, b".abbc.");

    // The delayed scan holds pending_bytes > 0 well past these calls.
    match svc.try_open_flow() {
        Err(ServeError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.faults.shed_opens, 1);
    assert_eq!(
        m.budget_evictions, 1,
        "evict_on_shed reclaims the LRU drained flow"
    );
    let evicted = svc.evictions();
    assert_eq!(evicted, vec![idle], "the idle drained flow was the victim");

    svc.barrier(); // the delayed scan completes; backlog drains
    let admitted = svc.try_open_flow().expect("under the watermark again");
    assert!(svc.is_live(admitted));
    let m = svc.metrics();
    assert_eq!(m.faults.shed_opens, 1, "no further sheds");
    assert_eq!(m.faults.quarantined_flows, 0);
    svc.close(busy);
    svc.barrier();
    assert_eq!(
        svc.poll(busy).len(),
        1,
        "the delayed flow still scanned correctly"
    );
    svc.shutdown();
}
