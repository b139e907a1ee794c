//! Figures computed from the served passes, and the printed report:
//! `name = value unit` lines, then one JSON result line.

use crate::layers::{CompileCounters, ScanLayers, SetupLayers};
use crate::serve::Pass;
use crate::trace::Recorder;
use recama::ServiceMetrics;

const MIB: f64 = 1024.0 * 1024.0;

/// Metric name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `samples` and how many samples lie
/// beyond it.
pub fn percentile(samples: &[u64], pct: f64) -> (u64, usize) {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return (0, 0);
    }
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

pub fn pass_rate(p: &Pass) -> f64 {
    p.bytes as f64 / MIB / (p.wall_ns.max(1) as f64 / 1e9)
}

/// The serve-side end-to-end figures of one set of passes.
pub struct ServeFigures {
    pub throughput_mib_s: f64,
    pub p50_ms: f64,
    /// Median over passes of each pass's tail percentile.
    pub tail_ms: f64,
    /// Samples per pass, and how many of them lie beyond its tail.
    pub pass_samples: usize,
    pub pass_beyond: usize,
    pub samples: usize,
    pub reload_ms: f64,
}

pub fn serve_figures(passes: &[&Pass], tail_pct: f64) -> ServeFigures {
    let rates: Vec<f64> = passes.iter().map(|p| pass_rate(p)).collect();
    let lat: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.latencies_ns.iter().copied())
        .collect();
    // A pooled tail is set by the few worst host hiccups of the whole
    // run; a typical pass's tail is steady from run to run.
    let tails: Vec<f64> = passes
        .iter()
        .map(|p| percentile(&p.latencies_ns, tail_pct).0 as f64 / 1e6)
        .collect();
    let first = passes.first().map_or(&[][..], |p| &p.latencies_ns[..]);
    let reloads: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.reload_ns)
        .map(|n| n as f64 / 1e6)
        .collect();
    ServeFigures {
        throughput_mib_s: median(&rates),
        p50_ms: percentile(&lat, 50.0).0 as f64 / 1e6,
        tail_ms: median(&tails),
        pass_samples: first.len(),
        pass_beyond: percentile(first, tail_pct).1,
        samples: lat.len(),
        reload_ms: median(&reloads),
    }
}

/// Prints `name = value unit` lines, with a note where one applies.
pub fn print(metrics: &[Metric], note: impl Fn(&str) -> String) {
    for &(name, value, unit) in metrics {
        println!("{name} = {value} {unit}{}", note(name));
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// Everything the traced run gathers beyond the served passes.
pub struct Layers {
    pub setup: SetupLayers,
    pub counters: CompileCounters,
    pub scan: ScanLayers,
    /// Simulated (cycles, STE activations) of the hardware sample.
    pub activity: (u64, u64),
    pub banks: u64,
    pub shards: usize,
    pub workers: usize,
    /// Service metrics when serving ended.
    pub last: ServiceMetrics,
}

fn delta(p: &Pass, f: impl Fn(&ServiceMetrics) -> u64) -> f64 {
    p.metrics
        .as_ref()
        .map_or(0.0, |(a, b)| f(b).saturating_sub(f(a)) as f64)
}

/// The per-layer metrics, in `BENCHMARK.json` order. Serve-side
/// figures are per traced pass, median across passes.
pub fn per_layer(rec: &Recorder, traced: &[&Pass], l: &Layers) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let span_ms =
        |name: &'static str| per_pass(&|p: &Pass| rec.total_ns(name, p.span) as f64 / 1e6);
    let total =
        |f: &dyn Fn(&ServiceMetrics) -> u64| traced.iter().map(|p| delta(p, f)).sum::<f64>();
    let scan_ns = |m: &ServiceMetrics| m.shard_scan_ns.iter().sum::<u64>();
    let skipped = |m: &ServiceMetrics| {
        m.prefilter
            .as_ref()
            .map_or(0, |pf| pf.total_skipped_bytes())
    };
    let candidates = |m: &ServiceMetrics| m.prefilter.as_ref().map_or(0, |pf| pf.candidate_hits);
    let open_close: Vec<f64> = rec
        .durations_ns("core.service.open")
        .into_iter()
        .chain(rec.durations_ns("core.service.close"))
        .map(|n| n as f64 / 1e6)
        .collect();
    let reload: Vec<f64> = traced
        .iter()
        .filter_map(|p| p.reload_ns)
        .map(|n| n as f64 / 1e6)
        .collect();
    let (s, c, h) = (&l.setup, &l.counters, &l.scan.hybrid);
    let shard_bytes = |p: &Pass| (p.bytes * l.shards as u64).max(1) as f64;
    vec![
        ("syntax.parse_ms", s.parse_ms, "ms"),
        ("compiler.compile_ms", s.compile_ms, "ms"),
        ("compiler.compile_max_rule_ms", s.compile_max_rule_ms, "ms"),
        ("analysis.exact_ms", c.exact_ms, "ms"),
        ("analysis.pairs_created", c.pairs_created as f64, "count"),
        (
            "compiler.unfolded_occurrences",
            c.unfolded_occurrences as f64,
            "count",
        ),
        (
            "compiler.counter_modules",
            c.counter_modules as f64,
            "count",
        ),
        (
            "compiler.bitvector_modules",
            c.bitvector_modules as f64,
            "count",
        ),
        ("hw.shard_plan_ms", s.shard_plan_ms, "ms"),
        ("mnrl.merge_ms", s.merge_ms, "ms"),
        ("mnrl.nodes", c.mnrl_nodes as f64, "count"),
        ("nca.merge_ms", s.nca_merge_ms, "ms"),
        ("core.build_other_ms", s.build_other_ms, "ms"),
        ("hw.shards", l.shards as f64, "count"),
        ("hw.banks", l.banks as f64, "count"),
        ("hw.sim_cycles", l.activity.0 as f64, "count"),
        ("hw.ste_activations", l.activity.1 as f64, "count"),
        ("nca.feed_ms", l.scan.feed_ms, "ms"),
        ("nca.feed_max_shard_ms", l.scan.feed_max_shard_ms, "ms"),
        ("nca.dfa_bytes", h.dfa_bytes as f64, "B"),
        ("nca.fallback_bytes", h.fallback_bytes as f64, "B"),
        ("nca.dfa_hit_rate", h.dfa_hit_rate(), "ratio"),
        ("nca.dfa_states", h.dfa_states as f64, "count"),
        ("nca.dfa_flushes", h.flushes as f64, "count"),
        (
            "core.prefilter.skipped_bytes",
            per_pass(&|p| delta(p, skipped)),
            "B",
        ),
        (
            "core.prefilter.skip_rate",
            per_pass(&|p| delta(p, skipped) / shard_bytes(p)),
            "ratio",
        ),
        (
            "core.prefilter.candidate_hits",
            per_pass(&|p| delta(p, candidates)),
            "count",
        ),
        (
            "core.prefilter.always_on_rules",
            l.last.prefilter.as_ref().map_or(0, |pf| pf.always_on_rules) as f64,
            "count",
        ),
        ("core.service.push_ms", span_ms("core.service.push"), "ms"),
        (
            "core.service.barrier_ms",
            span_ms("core.service.barrier"),
            "ms",
        ),
        ("core.service.poll_ms", span_ms("core.service.poll"), "ms"),
        (
            "core.service.scan_busy_ms",
            per_pass(&|p| delta(p, scan_ns) / 1e6),
            "ms",
        ),
        (
            "core.service.busy_share",
            per_pass(&|p| delta(p, scan_ns) / (l.workers as f64 * p.wall_ns.max(1) as f64)),
            "ratio",
        ),
        (
            "core.service.queue_depth_peak",
            l.last.queue_depth_peak as f64,
            "count",
        ),
        (
            "core.service.backpressure",
            per_pass(&|p| delta(p, |m| m.backpressure)),
            "count",
        ),
        (
            "core.service.reports",
            per_pass(&|p| p.reports as f64),
            "count",
        ),
        (
            "core.service.global_sink_len",
            per_pass(&|p| p.sink_len as f64),
            "count",
        ),
        ("core.service.open_close_ms", median(&open_close), "ms"),
        ("core.service.reload_ms", median(&reload), "ms"),
        (
            "core.service.evictions",
            total(&|m| m.total_evictions()),
            "count",
        ),
        (
            "core.service.faults.quarantined_flows",
            total(&|m| m.faults.quarantined_flows),
            "count",
        ),
        (
            "core.service.faults.worker_restarts",
            total(&|m| m.faults.worker_restarts),
            "count",
        ),
        (
            "core.service.faults.shed_opens",
            total(&|m| m.faults.shed_opens),
            "count",
        ),
        (
            "core.service.faults.fail_stops",
            total(&|m| m.faults.fail_stops),
            "count",
        ),
    ]
}
