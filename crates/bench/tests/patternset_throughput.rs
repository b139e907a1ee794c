//! Guards the acceptance claim of the multi-pattern subsystem: on the
//! 1%-scale synthetic Snort workload, one scan of the shared
//! single-shard [`Engine`] is faster than running every [`Pattern`] engine
//! over the input separately. The margin is enormous (the loop pays
//! per-pattern full-automaton sweeps per byte; the shared engine visits
//! only the live frontier once), so a plain faster-than assertion is
//! stable even on noisy CI machines.

use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, Pattern};
use std::time::Instant;

#[test]
fn shared_engine_beats_pattern_loop_on_snort() {
    let ruleset = generate(BenchmarkId::Snort, 0.01, 2022);
    let patterns: Vec<String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| recama::syntax::parse(p).is_ok())
        .collect();
    assert!(
        patterns.len() >= 40,
        "degenerate workload: {}",
        patterns.len()
    );
    let input = traffic(&ruleset, 8 * 1024, 0.001, 2022);

    let set = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Single)
        .build()
        .expect("set compiles");
    let baseline: Vec<Pattern> = patterns
        .iter()
        .map(|p| Pattern::compile(p).expect("baseline compiles"))
        .collect();

    // Warm-up + correctness cross-check in the same pass.
    let shared_hits = set.scan(&input).len();
    let loop_hits: usize = baseline.iter().map(|p| p.find_ends(&input).len()).sum();
    assert_eq!(
        shared_hits, loop_hits,
        "engines disagree; timing is meaningless"
    );

    let start = Instant::now();
    let n = set.scan(&input).len();
    let shared_time = start.elapsed();

    let start = Instant::now();
    let m: usize = baseline.iter().map(|p| p.find_ends(&input).len()).sum();
    let loop_time = start.elapsed();

    assert_eq!(n, m);
    assert!(
        shared_time < loop_time,
        "shared engine must beat the loop-over-patterns baseline: \
         shared {shared_time:?} vs loop {loop_time:?}"
    );
    println!(
        "snort 1%: shared {shared_time:?} vs loop {loop_time:?} ({:.1}x)",
        loop_time.as_secs_f64() / shared_time.as_secs_f64().max(1e-9)
    );
}
