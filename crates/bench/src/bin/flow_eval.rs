//! flow-eval: the many-flow serving benchmark. Compiles a Snort-profile
//! ruleset with [`Engine::builder`], then drives a
//! [`ServiceHandle`] (`engine.serve_with(workers, ..)`) with `flows`
//! concurrent byte streams delivered in `chunk`-sized pieces over
//! `rounds` rounds (one chunk per flow per round — the IDS-tap arrival
//! pattern, with a [`barrier`](ServiceHandle::barrier) after each
//! round), for each requested worker-pool size. Reported per worker
//! count: aggregate throughput (MiB/s, measured on batched rounds) and
//! p50/p99 per-chunk scheduling latency (measured in a second pass that
//! times every chunk's push-to-merged individually, so the p99 reflects
//! real tail chunks).
//!
//! ```sh
//! # Defaults: 2%-scale Snort, 32 flows x 8 rounds of 2 KiB chunks,
//! # worker sweep 1,2,4:
//! cargo run --release -p recama-bench --bin flow_eval
//! # CI smoke with a machine-readable record on stdout:
//! cargo run --release -p recama-bench --bin flow_eval -- \
//!     --scale 0.01 --flows 8 --rounds 4 --chunk 512 --workers 1,2 --json
//! ```
//!
//! After the worker sweep, a third pass drives one more handle with the
//! same arrival pattern, optionally hot-reloading an identical engine
//! mid-run (`--reload ROUND`): the `service_metrics` record then
//! carries the handle's [`ServiceMetrics`](recama::ServiceMetrics)
//! snapshot, the reload wall-clock, and whether the mid-run swap lost
//! any matches against the first worker-sweep pass.
//!
//! A final **prefilter pass** measures the literal-prefilter (MPM)
//! subsystem on the workload it targets: a SpamAssassin-profile ruleset
//! (every rule carries a required literal — the Snort profile's
//! Σ*-family "expensive" rules are always-on in every shard, so
//! shard-level skipping cannot engage there) driven with a **benign**
//! corpus (background bytes, no planted matches) and a **hit-heavy**
//! corpus, each under `PrefilterMode::On` and `::Off`. The `prefilter`
//! JSON record carries the benign skip rate, the four MiB/s numbers,
//! and the on-vs-off speedups.
//!
//! Flags: `--flows N`, `--rounds N`, `--chunk BYTES`, `--workers CSV`,
//! `--shards N`, `--scale F`, `--seed S`, `--reload ROUND` (hot-reload
//! before that 0-based round in the service pass), `--benign` (deliver
//! benign background bytes instead of planted-match traffic in the
//! worker-sweep and service passes), `--json` (print ONLY the JSON
//! document to stdout; the human-readable report moves to stderr).

use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, FlowId, HybridStats, PrefilterMode, ServiceHandle};
use recama_bench::{ms, seed};
use std::time::{Duration, Instant};

struct Config {
    flows: usize,
    rounds: usize,
    chunk: usize,
    workers: Vec<usize>,
    shards: usize,
    scale: f64,
    seed: u64,
    reload: Option<usize>,
    benign: bool,
    json: bool,
}

fn parse_args() -> Config {
    let mut config = Config {
        flows: 32,
        rounds: 8,
        chunk: 2048,
        workers: vec![1, 2, 4],
        shards: 4,
        scale: 0.02,
        seed: seed(),
        reload: None,
        benign: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--flows" => config.flows = value("--flows").parse().expect("--flows"),
            "--rounds" => config.rounds = value("--rounds").parse().expect("--rounds"),
            "--chunk" => config.chunk = value("--chunk").parse().expect("--chunk"),
            "--shards" => config.shards = value("--shards").parse().expect("--shards"),
            "--scale" => config.scale = value("--scale").parse().expect("--scale"),
            "--seed" => config.seed = value("--seed").parse().expect("--seed"),
            "--reload" => config.reload = Some(value("--reload").parse().expect("--reload")),
            "--workers" => {
                config.workers = value("--workers")
                    .split(',')
                    .map(|w| w.trim().parse().expect("--workers takes a CSV of counts"))
                    .collect()
            }
            "--benign" => config.benign = true,
            "--json" => config.json = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    assert!(config.flows > 0 && config.rounds > 0 && config.chunk > 0);
    assert!(!config.workers.is_empty());
    config
}

struct WorkerResult {
    workers: usize,
    mib_per_s: f64,
    p50: Duration,
    p99: Duration,
    hits: usize,
    /// Hybrid-overlay counters aggregated over every flow's shard
    /// engines after the throughput pass (`None` in `ScanMode::Nca`).
    overlay: Option<HybridStats>,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank]
}

/// A handle over `engine` with `workers` workers and `flows` open flows.
fn serve_flows(engine: &Engine, workers: usize, flows: usize) -> (ServiceHandle, Vec<FlowId>) {
    let svc = engine.serve_with(workers, engine.serve_config());
    let ids = (0..flows).map(|_| svc.open_flow()).collect();
    (svc, ids)
}

/// Pushes round `round` (one `chunk`-byte slice per flow), then waits
/// until every pushed byte is scanned.
fn push_round(
    svc: &ServiceHandle,
    ids: &[FlowId],
    streams: &[Vec<u8>],
    round: usize,
    chunk: usize,
) {
    let at = round * chunk;
    for (id, bytes) in ids.iter().zip(streams) {
        svc.push(*id, &bytes[at..at + chunk]);
    }
    svc.barrier();
}

/// Drains every flow's reports and counts them.
fn poll_hits(svc: &ServiceHandle, ids: &[FlowId]) -> usize {
    ids.iter().map(|id| svc.poll(*id).len()).sum()
}

fn main() {
    let config = parse_args();
    let say = |line: String| {
        if config.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    say(format!(
        "flow-eval: Snort at scale {}, {} flows x {} rounds x {} B chunks, {} shard(s)",
        config.scale, config.flows, config.rounds, config.chunk, config.shards
    ));

    let ruleset = generate(BenchmarkId::Snort, config.scale, config.seed);
    let patterns = ruleset.pattern_strings();
    let start = Instant::now();
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Fixed(config.shards))
        .lossy(true)
        .build()
        .expect("lossy builds are infallible");
    say(format!(
        "compiled {} patterns ({} rejected) into {} shard(s) in {:.0} ms",
        engine.len(),
        engine.skipped().len(),
        engine.shard_count(),
        ms(start.elapsed())
    ));

    // Per-flow traffic, distinct per flow: planted matches by default,
    // background-only bytes under --benign (the production common case
    // the prefilter exists for).
    let per_flow = config.rounds * config.chunk;
    let plant_rate = if config.benign { 0.0 } else { 0.0005 };
    let streams: Vec<Vec<u8>> = (0..config.flows)
        .map(|fi| traffic(&ruleset, per_flow, plant_rate, config.seed * 31 + fi as u64))
        .collect();
    let total_bytes = (config.flows * per_flow) as f64;
    let mib = total_bytes / (1024.0 * 1024.0);

    let mut results: Vec<WorkerResult> = Vec::new();
    for &workers in &config.workers {
        // Throughput pass: one chunk per flow per round, a barrier per
        // round — the arrival pattern an IDS tap sees.
        let (svc, ids) = serve_flows(&engine, workers, config.flows);
        let run = Instant::now();
        for round in 0..config.rounds {
            push_round(&svc, &ids, &streams, round, config.chunk);
        }
        let elapsed = run.elapsed();
        // Sample the overlay counters before polling: flows stay open
        // (never closed), so every shard engine is still live.
        let overlay = svc.metrics().hybrid;
        let hits = poll_hits(&svc, &ids);
        svc.shutdown();

        // Latency pass: one chunk scheduled at a time, each timed
        // push-to-merged individually, so the percentiles are a real
        // per-chunk distribution (flows x rounds samples) and a single
        // slow chunk is not averaged away into a round mean.
        let (svc, ids) = serve_flows(&engine, workers, config.flows);
        let mut per_chunk: Vec<Duration> = Vec::with_capacity(config.flows * config.rounds);
        for round in 0..config.rounds {
            let at = round * config.chunk;
            for (id, bytes) in ids.iter().zip(&streams) {
                let t = Instant::now();
                svc.push(*id, &bytes[at..at + config.chunk]);
                svc.barrier();
                per_chunk.push(t.elapsed());
            }
        }
        svc.shutdown();
        per_chunk.sort();
        results.push(WorkerResult {
            workers,
            mib_per_s: mib / elapsed.as_secs_f64(),
            p50: percentile(&per_chunk, 0.50),
            p99: percentile(&per_chunk, 0.99),
            hits,
            overlay,
        });
    }

    say(format!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>8} {:>10} {:>9}",
        "workers", "MiB/s", "p50/chunk", "p99/chunk", "hits", "dfa-states", "dfa-bytes"
    ));
    for r in &results {
        let (states, hit_rate) = match &r.overlay {
            Some(s) => (
                s.dfa_states.to_string(),
                format!("{:.1}%", s.dfa_hit_rate() * 100.0),
            ),
            None => ("-".into(), "-".into()),
        };
        say(format!(
            "{:<8} {:>10.3} {:>9.1} us {:>9.1} us {:>8} {:>10} {:>9}",
            r.workers,
            r.mib_per_s,
            r.p50.as_secs_f64() * 1e6,
            r.p99.as_secs_f64() * 1e6,
            r.hits,
            states,
            hit_rate,
        ));
    }
    for r in &results {
        assert_eq!(
            r.hits, results[0].hits,
            "per-flow reports must not depend on the worker count"
        );
    }
    if let (Some(first), Some(last)) = (results.first(), results.last()) {
        if last.workers > first.workers {
            say(format!(
                "\nscaling {} -> {} workers: {:.2}x on {} core(s)",
                first.workers,
                last.workers,
                last.mib_per_s / first.mib_per_s.max(1e-9),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ));
        }
    }

    // ---- reload pass ------------------------------------------------
    // The same arrival pattern through one more handle, optionally
    // hot-reloading an identical engine mid-run. With no reload the
    // pass must report exactly the first worker-sweep pass's matches;
    // with one, the only tolerated difference is a match straddling the
    // migration cut (checked warn-only in CI).
    let service_workers = *config.workers.last().expect("workers is non-empty");
    let reload_engine = config.reload.map(|_| {
        Engine::builder()
            .patterns(&patterns)
            .shard_policy(ShardPolicy::Fixed(config.shards))
            .lossy(true)
            .build()
            .expect("lossy builds are infallible")
    });
    let (svc, ids) = serve_flows(&engine, service_workers, config.flows);
    let run = Instant::now();
    let mut reload_wall = Duration::ZERO;
    for round in 0..config.rounds {
        if config.reload == Some(round) {
            // Drain first so every flow migrates exactly at this round
            // boundary — the cut the zero-loss check reasons about.
            svc.barrier();
            let t = Instant::now();
            svc.reload(reload_engine.as_ref().expect("built when --reload is set"));
            reload_wall = t.elapsed();
        }
        push_round(&svc, &ids, &streams, round, config.chunk);
    }
    let service_elapsed = run.elapsed();
    let service_hits = poll_hits(&svc, &ids);
    let metrics = svc.metrics();
    svc.shutdown();

    let baseline_hits = results[0].hits;
    let reload_lossless = service_hits == baseline_hits;
    match config.reload {
        None => assert!(
            reload_lossless,
            "without a reload the service must report exactly the worker sweep's matches \
             (service {service_hits} vs sweep {baseline_hits})"
        ),
        Some(round) => say(format!(
            "\nhot reload before round {round}: {:.2} ms wall, {} (service {service_hits} vs \
             sweep {baseline_hits})",
            ms(reload_wall),
            if reload_lossless {
                "zero loss"
            } else {
                "LOSS at the migration cut"
            },
        )),
    }
    say(format!(
        "owned service ({service_workers} workers): {:.3} MiB/s, {service_hits} hits, \
         queue peak {}, epoch {}",
        mib / service_elapsed.as_secs_f64(),
        metrics.queue_depth_peak,
        metrics.epoch,
    ));

    // ---- prefilter pass ---------------------------------------------
    // The literal-prefilter (MPM) measurement: a SpamAssassin-profile
    // ruleset (every rule carries a required literal; the Snort set
    // above keeps its always-on Σ*-family rules in every shard, so
    // skipping never engages there) scanned over a benign and a
    // hit-heavy corpus, with the filter on and off. Same arrival
    // pattern as the worker sweep.
    let spam_rules = generate(BenchmarkId::SpamAssassin, config.scale, config.seed);
    let spam_patterns = spam_rules.pattern_strings();
    let spam_engine = |mode: PrefilterMode| {
        Engine::builder()
            .patterns(&spam_patterns)
            .shard_policy(ShardPolicy::Fixed(config.shards))
            .prefilter(mode)
            .lossy(true)
            .build()
            .expect("lossy builds are infallible")
    };
    let pf_on = spam_engine(PrefilterMode::On);
    let pf_off = spam_engine(PrefilterMode::Off);
    let corpus = |rate: f64, salt: u64| -> Vec<Vec<u8>> {
        (0..config.flows)
            .map(|fi| {
                traffic(
                    &spam_rules,
                    per_flow,
                    rate,
                    config.seed * 131 + salt + fi as u64,
                )
            })
            .collect()
    };
    let benign_streams = corpus(0.0, 0);
    let hit_streams = corpus(0.002, 7919);
    // Best of three timed runs per configuration: the smoke corpora are
    // tiny, so a single timing is all scheduling noise.
    let drive = |engine: &Engine, streams: &[Vec<u8>]| {
        let mut best = 0.0f64;
        let mut stats = None;
        let mut hits = 0usize;
        for _ in 0..3 {
            let (svc, ids) = serve_flows(engine, service_workers, config.flows);
            let run = Instant::now();
            for round in 0..config.rounds {
                push_round(&svc, &ids, streams, round, config.chunk);
            }
            let elapsed = run.elapsed();
            best = best.max(mib / elapsed.as_secs_f64());
            // Counters are deterministic, so any run's snapshot serves.
            stats = svc.metrics().prefilter;
            hits = poll_hits(&svc, &ids);
            svc.shutdown();
        }
        (best, stats, hits)
    };
    let (benign_on_mib, benign_stats, _) = drive(&pf_on, &benign_streams);
    let (benign_off_mib, _, _) = drive(&pf_off, &benign_streams);
    let (hit_on_mib, hit_stats, hit_on_hits) = drive(&pf_on, &hit_streams);
    let (hit_off_mib, _, hit_off_hits) = drive(&pf_off, &hit_streams);
    assert_eq!(
        hit_on_hits, hit_off_hits,
        "prefiltered output must be byte-identical to unfiltered"
    );
    let benign_stats = benign_stats.expect("pf_on was built with the filter");
    let hit_stats = hit_stats.expect("pf_on was built with the filter");
    let filterable = (config.flows * per_flow * pf_on.shard_count()) as f64;
    let skip_rate = benign_stats.total_skipped_bytes() as f64 / filterable.max(1.0);
    let benign_speedup = benign_on_mib / benign_off_mib.max(1e-9);
    let hit_speedup = hit_on_mib / hit_off_mib.max(1e-9);
    say(format!(
        "\nprefilter (SpamAssassin profile, {} rules, {} always-on, {} shard(s)):",
        pf_on.len(),
        benign_stats.always_on_rules,
        pf_on.shard_count(),
    ));
    say(format!(
        "  benign:    {benign_on_mib:>8.3} MiB/s on {benign_off_mib:>8.3} off \
         ({benign_speedup:.2}x), skip rate {:.1}%",
        skip_rate * 100.0,
    ));
    say(format!(
        "  hit-heavy: {hit_on_mib:>8.3} MiB/s on {hit_off_mib:>8.3} off \
         ({hit_speedup:.2}x), {} candidate wakes, {hit_on_hits} hits",
        hit_stats.candidate_hits,
    ));

    if config.json {
        // Machine-readable record for the CI perf-tracking artifact.
        let rows: Vec<String> = results
            .iter()
            .map(|r| {
                let overlay = match &r.overlay {
                    Some(s) => format!(
                        ",\"dfa_states\":{},\"dfa_hit_rate\":{:.4},\"fallback_bytes\":{}",
                        s.dfa_states,
                        s.dfa_hit_rate(),
                        s.fallback_bytes
                    ),
                    None => String::new(),
                };
                format!(
                    "{{\"workers\":{},\"mib_per_s\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1},\"hits\":{}{}}}",
                    r.workers,
                    r.mib_per_s,
                    r.p50.as_secs_f64() * 1e6,
                    r.p99.as_secs_f64() * 1e6,
                    r.hits,
                    overlay
                )
            })
            .collect();
        let scan_mode = if results.iter().any(|r| r.overlay.is_some()) {
            "hybrid"
        } else {
            "nca"
        };
        let service_record = format!(
            "{{\"workers\":{service_workers},\"mib_per_s\":{:.3},\"hits\":{service_hits},\
             \"reload_round\":{},\"reload_wall_ms\":{:.3},\"reload_lossless\":{reload_lossless},\
             \"epoch\":{},\"reloads\":{},\"queue_depth_peak\":{},\"idle_evictions\":{},\
             \"budget_evictions\":{},\"backpressure\":{},\"scan_bytes\":{},\"scan_ns\":{},\
             \"faults\":{{\"quarantined_flows\":{},\"worker_restarts\":{},\
             \"shed_opens\":{},\"fail_stops\":{}}}{}{}}}",
            mib / service_elapsed.as_secs_f64(),
            config
                .reload
                .map_or("null".into(), |round| round.to_string()),
            ms(reload_wall),
            metrics.epoch,
            metrics.reloads,
            metrics.queue_depth_peak,
            metrics.idle_evictions,
            metrics.budget_evictions,
            metrics.backpressure,
            metrics.shard_scan_bytes.iter().sum::<u64>(),
            metrics.shard_scan_ns.iter().sum::<u64>(),
            metrics.faults.quarantined_flows,
            metrics.faults.worker_restarts,
            metrics.faults.shed_opens,
            metrics.faults.fail_stops,
            match &metrics.hybrid {
                Some(s) => format!(",\"dfa_hit_rate\":{:.4}", s.dfa_hit_rate()),
                None => String::new(),
            },
            match &metrics.prefilter {
                Some(p) => format!(
                    ",\"prefilter\":{{\"skipped_units\":{},\"skipped_bytes\":{},\
                     \"candidate_hits\":{},\"always_on_rules\":{}}}",
                    p.total_skipped_units(),
                    p.total_skipped_bytes(),
                    p.candidate_hits,
                    p.always_on_rules,
                ),
                None => String::new(),
            },
        );
        // The prefilter-pass record: the benign skip rate plus the
        // measured on-vs-off throughput deltas on both corpora.
        let prefilter_record = format!(
            "{{\"ruleset\":\"spamassassin\",\"patterns\":{},\"shards\":{},\
             \"always_on_rules\":{},\"benign_skip_rate\":{:.4},\
             \"benign_mib_per_s_on\":{:.3},\"benign_mib_per_s_off\":{:.3},\
             \"benign_speedup\":{:.3},\"hit_mib_per_s_on\":{:.3},\
             \"hit_mib_per_s_off\":{:.3},\"hit_speedup\":{:.3},\
             \"candidate_hits\":{},\"hits\":{}}}",
            pf_on.len(),
            pf_on.shard_count(),
            benign_stats.always_on_rules,
            skip_rate,
            benign_on_mib,
            benign_off_mib,
            benign_speedup,
            hit_on_mib,
            hit_off_mib,
            hit_speedup,
            hit_stats.candidate_hits,
            hit_on_hits,
        );
        println!(
            "{{\"bench\":\"flow_eval\",\"scale\":{},\"flows\":{},\"rounds\":{},\"chunk_bytes\":{},\
             \"shards\":{},\"patterns\":{},\"scan_mode\":\"{}\",\"benign\":{},\"results\":[{}],\
             \"service_metrics\":{},\"prefilter\":{}}}",
            config.scale,
            config.flows,
            config.rounds,
            config.chunk,
            engine.shard_count(),
            engine.len(),
            scan_mode,
            config.benign,
            rows.join(","),
            service_record,
            prefilter_record
        );
    }
}
