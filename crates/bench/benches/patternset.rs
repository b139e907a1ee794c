//! Multi-pattern matching throughput: the shared single-shard
//! [`Engine`] against the loop-over-[`Pattern`] baseline on the synthetic Snort and
//! Suricata workloads — the software-side payoff of compiling the whole
//! ruleset into one machine image.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion, Throughput};
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, Pattern};
use recama_bench::{scale, seed, traffic_len};

/// The unsharded (single-image) engine the benches compare against.
fn single_shard(patterns: &[String]) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(ShardPolicy::Single)
        .build()
        .expect("set compiles")
}

fn workload(id: BenchmarkId) -> (Vec<String>, Vec<u8>) {
    let ruleset = generate(id, scale(), seed());
    let patterns: Vec<String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| recama::syntax::parse(p).is_ok())
        .collect();
    let input = traffic(&ruleset, traffic_len(), 0.001, seed());
    (patterns, input)
}

fn bench_shared_vs_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("patternset_scan");
    group.sample_size(10);
    for id in [BenchmarkId::Snort, BenchmarkId::Suricata] {
        let (patterns, input) = workload(id);
        group.throughput(Throughput::Bytes(input.len() as u64));

        let set = single_shard(&patterns);
        group.bench_with_input(
            CritId::new("shared_engine", id.name()),
            &input,
            |b, input| b.iter(|| set.scan(input).len()),
        );

        let baseline: Vec<Pattern> = patterns
            .iter()
            .map(|p| Pattern::compile(p).expect("baseline compiles"))
            .collect();
        group.bench_with_input(
            CritId::new("pattern_loop", id.name()),
            &input,
            |b, input| {
                b.iter(|| {
                    baseline
                        .iter()
                        .map(|p: &Pattern| p.find_ends(input).len())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

fn bench_streaming_chunks(c: &mut Criterion) {
    let mut group = c.benchmark_group("patternset_stream");
    group.sample_size(10);
    let (patterns, input) = workload(BenchmarkId::Snort);
    let set = single_shard(&patterns);
    group.throughput(Throughput::Bytes(input.len() as u64));
    for chunk in [1500usize, 64 * 1024] {
        group.bench_with_input(CritId::new("chunked_feed", chunk), &input, |b, input| {
            b.iter(|| {
                let mut stream = set.stream();
                let mut hits = 0usize;
                for chunk in input.chunks(chunk) {
                    hits += stream.feed(chunk).count();
                }
                hits
            })
        });
    }
    group.finish();
}

fn bench_set_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("patternset_compile");
    group.sample_size(10);
    let (patterns, _) = workload(BenchmarkId::Snort);
    group.bench_with_input(
        CritId::new("engine_build", patterns.len()),
        &patterns,
        |b, patterns| b.iter(|| single_shard(patterns).len()),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_shared_vs_loop,
    bench_streaming_chunks,
    bench_set_compile
);
criterion_main!(benches);
