//! Guards the sharding acceptance claims on a synthetic Snort workload:
//! the sharded parallel scan must be **byte-identical** to the unsharded
//! ([`ShardPolicy::Single`]) scan (reports *and* order), and — on machines with at
//! least four cores — the parallel multi-engine must beat the single
//! shared engine. The timing half is skipped on smaller machines (a
//! 1-core CI box cannot demonstrate parallel speedup); use
//! `RECAMA_SCALE=0.1 RECAMA_SHARDS=8 cargo run --release -p recama-bench
//! --bin scale_eval` for the full 10%-scale measurement.

use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::Engine;
use std::time::Instant;

#[test]
fn sharded_scan_is_byte_identical_and_scales_with_cores() {
    let ruleset = generate(BenchmarkId::Snort, 0.02, 2022);
    let patterns: Vec<String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| recama::syntax::parse(p).is_ok())
        .collect();
    assert!(
        patterns.len() >= 80,
        "degenerate workload: {}",
        patterns.len()
    );
    let input = traffic(&ruleset, 16 * 1024, 0.001, 2022);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = cores.clamp(2, 8);
    let single = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Single)
        .build()
        .expect("single set compiles");
    let sharded = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Fixed(shards))
        .build()
        .expect("sharded set compiles");
    assert_eq!(sharded.shard_count(), shards);

    // Acceptance: byte-identical reports, same order, no sort. This also
    // serves as the warm-up pass for the timing below.
    let expected = single.scan(&input);
    assert_eq!(
        sharded.scan(&input),
        expected,
        "sharded parallel scan diverges from the single shared engine"
    );

    // Best of three per engine: one sample per side would let a single
    // scheduler stall on a shared CI machine flip the comparison.
    let best = |f: &dyn Fn() -> usize| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let hits = f();
                (start.elapsed(), hits)
            })
            .min()
            .expect("three samples")
    };
    let (single_time, n) = best(&|| single.scan(&input).len());
    let (sharded_time, m) = best(&|| sharded.scan(&input).len());
    assert_eq!(n, m);

    println!(
        "snort 2%, {shards} shards on {cores} cores: single {single_time:?} vs \
         sharded {sharded_time:?} ({:.2}x)",
        single_time.as_secs_f64() / sharded_time.as_secs_f64().max(1e-9)
    );
    // Expected margin on >= 4 cores is ~2x or better, so best-of-3 leaves
    // plenty of headroom against CI noise; RECAMA_SKIP_TIMING_ASSERTS=1
    // keeps the byte-identical half while muting the race on very noisy
    // machines.
    let muted = std::env::var_os("RECAMA_SKIP_TIMING_ASSERTS").is_some();
    if cores >= 4 && !muted {
        assert!(
            sharded_time < single_time,
            "with {cores} cores the parallel scan must beat the single engine: \
             sharded {sharded_time:?} vs single {single_time:?}"
        );
    } else {
        println!("(timing assertion skipped: {cores} core(s), muted = {muted})");
    }
}
