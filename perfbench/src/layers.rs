//! Per-layer figures: the traced replays of set-up and scanning through
//! each layer's public functions, the counters the program exposes at
//! those boundaries, and the simulated hardware model.

use crate::trace::Recorder;
use recama::compiler::{compile, merge_rule_networks, CompileOptions, CompileOutput, ModuleKind};
use recama::hw::cost::{self, AreaGranularity};
use recama::hw::{RuleCost, ShardPlan, ShardPolicy};
use recama::nca::{CompilePlan, HybridStats, MultiReport, Nca, ShardedMulti, StateId};
use recama::Engine;
use std::time::Instant;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Set-up replayed layer by layer, beside one timed `Engine::build`.
pub struct SetupLayers {
    pub parse_ms: f64,
    pub compile_ms: f64,
    pub compile_max_rule_ms: f64,
    pub shard_plan_ms: f64,
    pub merge_ms: f64,
    pub nca_merge_ms: f64,
    /// Timed `Engine::build` minus the replayed layers: prefilter build
    /// and bookkeeping.
    pub build_other_ms: f64,
}

/// Replays `ShardedPatternSet::build`'s sequence through public
/// functions (default options and shard policy, as the engine uses),
/// then times one real build of the same rules.
pub fn setup(rules: &[String], rec: &mut Recorder) -> SetupLayers {
    let root = rec.begin("setup.replay", None, None);
    let parsed: Vec<_> = rules
        .iter()
        .filter_map(|r| {
            rec.time("syntax.parse", root, None, || recama::syntax::parse(r))
                .ok()
        })
        .collect();
    let options = CompileOptions::default();
    let mut max_rule_ns = 0;
    let outputs: Vec<CompileOutput> = parsed
        .iter()
        .map(|p| {
            let t = Instant::now();
            let out = rec.time("compiler.compile", root, None, || {
                compile(&p.for_stream(), &options)
            });
            max_rule_ns = max_rule_ns.max(t.elapsed().as_nanos() as u64);
            out
        })
        .collect();
    let plan = rec.time("hw.shard_plan", root, None, || {
        let costs: Vec<RuleCost> = outputs
            .iter()
            .map(|o| RuleCost::of_network(&o.network))
            .collect();
        ShardPlan::plan(&costs, ShardPolicy::default())
    });
    let networks = rec.time("mnrl.merge", root, None, || {
        plan.shards()
            .iter()
            .enumerate()
            .map(|(si, members)| {
                merge_rule_networks(
                    &format!("shard{si}"),
                    members.iter().map(|&g| (g, g as u32, &outputs[g].network)),
                )
            })
            .collect::<Vec<_>>()
    });
    let multi = rec.time("nca.merge", root, None, || {
        let parts: Vec<(&Nca, CompilePlan)> = outputs
            .iter()
            .map(|o| {
                let plan =
                    CompilePlan::optimized(&o.nca, |q: StateId| o.analysis.state_unambiguous(q));
                (&o.nca, plan)
            })
            .collect();
        ShardedMulti::merge(&parts, plan.shards())
    });
    rec.end(root);
    drop((multi, networks, outputs, parsed));

    let engine = rec.time("core.engine_build", None, None, || {
        Engine::builder().patterns(rules).lossy(true).build()
    });
    drop(engine);

    let total = |name| rec.total_ns(name, None);
    let replayed = [
        "syntax.parse",
        "compiler.compile",
        "hw.shard_plan",
        "mnrl.merge",
        "nca.merge",
    ]
    .iter()
    .map(|n| total(n))
    .sum::<u64>();
    SetupLayers {
        parse_ms: ms(total("syntax.parse")),
        compile_ms: ms(total("compiler.compile")),
        compile_max_rule_ms: ms(max_rule_ns),
        shard_plan_ms: ms(total("hw.shard_plan")),
        merge_ms: ms(total("mnrl.merge")),
        nca_merge_ms: ms(total("nca.merge")),
        build_other_ms: ms(total("core.engine_build").saturating_sub(replayed)),
    }
}

/// Compiler counters of the serving engine, read from each rule's
/// `CompileOutput`.
pub struct CompileCounters {
    pub exact_ms: f64,
    pub pairs_created: u64,
    pub unfolded_occurrences: u64,
    pub counter_modules: u64,
    pub bitvector_modules: u64,
    pub mnrl_nodes: u64,
}

pub fn compile_counters(engine: &Engine) -> CompileCounters {
    let mut c = CompileCounters {
        exact_ms: 0.0,
        pairs_created: 0,
        unfolded_occurrences: 0,
        counter_modules: 0,
        bitvector_modules: 0,
        mnrl_nodes: engine
            .networks()
            .iter()
            .map(|n| n.node_count() as u64)
            .sum(),
    };
    for out in engine.outputs() {
        let stats = &out.report.analysis_stats;
        c.exact_ms += stats.duration.as_secs_f64() * 1e3;
        c.pairs_created += stats.pairs_created;
        c.unfolded_occurrences += u64::from(out.report.unfolded_occurrences);
        for m in &out.modules {
            match m {
                ModuleKind::Counter => c.counter_modules += 1,
                ModuleKind::BitVector => c.bitvector_modules += 1,
            }
        }
    }
    c
}

/// Every stream's chunks replayed through one `ShardStream` per shard,
/// one span per `feed_into` call.
pub struct ScanLayers {
    pub feed_ms: f64,
    pub feed_max_shard_ms: f64,
    pub hybrid: HybridStats,
}

pub fn scan(engine: &Engine, streams: &[Vec<u8>], chunk: usize, rec: &mut Recorder) -> ScanLayers {
    let multi = engine.set().multi();
    let shards = multi.shard_count();
    let mut shard_ns = vec![0u64; shards];
    let mut hybrid = HybridStats::default();
    let mut out: Vec<MultiReport> = Vec::new();
    let root = rec.begin("nca.replay", None, None);
    for (f, stream) in streams.iter().enumerate() {
        let mut units: Vec<_> = (0..shards)
            .map(|i| multi.shard_stream_with(i, engine.scan_mode()))
            .collect();
        for (seq, piece) in stream.chunks(chunk).enumerate() {
            for (i, unit) in units.iter_mut().enumerate() {
                let t = Instant::now();
                rec.time("nca.feed", root, Some((f as u32, seq as u32)), || {
                    unit.feed_into(piece, &mut out)
                });
                shard_ns[i] += t.elapsed().as_nanos() as u64;
                out.clear();
            }
        }
        for unit in &units {
            if let Some(stats) = unit.hybrid_stats() {
                hybrid.merge(&stats);
            }
        }
    }
    rec.end(root);
    ScanLayers {
        feed_ms: ms(shard_ns.iter().sum()),
        feed_max_shard_ms: ms(shard_ns.iter().copied().max().unwrap_or(0)),
        hybrid,
    }
}

/// The paper's energy/area model over every shard's machine image.
/// Simulated figures: deterministic, and unvalidated against silicon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwFigures {
    pub energy_nj_per_byte: f64,
    pub area_mm2: f64,
    pub banks: u64,
}

pub fn hardware(engine: &Engine, sample: &[u8]) -> HwFigures {
    let mut fj = 0.0;
    let mut area_mm2 = 0.0;
    let mut banks = 0;
    for network in engine.networks() {
        let run = cost::run(network, sample, AreaGranularity::WholeModule);
        fj += run.energy.total_fj();
        area_mm2 += run.area.total_mm2();
        banks += run.placement.bank_count as u64;
    }
    HwFigures {
        energy_nj_per_byte: fj / sample.len().max(1) as f64 / 1e6,
        area_mm2,
        banks,
    }
}

/// Simulated activity of the sample: (cycles, STE activations), summed
/// over shards.
pub fn activity(engine: &Engine, sample: &[u8]) -> (u64, u64) {
    (0..engine.shard_count())
        .map(|i| {
            let mut sim = engine.hardware(i);
            sim.match_ends(sample);
            let a = sim.activity();
            (a.cycles, a.ste_activations)
        })
        .fold((0, 0), |acc, a| (acc.0 + a.0, acc.1 + a.1))
}
