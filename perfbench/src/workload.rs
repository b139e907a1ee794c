//! The three named workloads and the inputs they are made from.
//!
//! A workload is a ruleset plus a pool of `flows` distinct byte
//! streams, each `rounds` chunks long. A *pass* opens one flow per
//! stream and serves the pool once in closed-loop rounds; a run repeats
//! passes for its measuring time, so the reference check (which costs
//! far more host time per byte than serving) runs once per stream, not
//! once per pass.

use recama::workloads::{generate, traffic, BenchmarkId};

/// Bytes of flow 0 fed to the simulated hardware cost model.
pub const HW_SAMPLE: usize = 16 * 1024;

/// The shape of one named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub profile: BenchmarkId,
    pub scale: f64,
    pub plant_rate: f64,
    /// Concurrent flows in a pass (one per distinct stream).
    pub flows: usize,
    /// Bytes per chunk; one chunk per flow per round.
    pub chunk: usize,
    /// Chunks per flow in a pass.
    pub rounds: usize,
    /// Short flows: every pass opens, serves, closes and drains its
    /// flows and then hot-reloads the alternate rule set, all timed.
    pub churn: bool,
    /// `build()` + `serve_with` repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// The latency tail percentile taken within each pass: the highest
    /// with at least ten of a pass's samples beyond it.
    pub tail_pct: f64,
    /// Serve a fixed corpus (made at [`RULESET_SEED`]), with `--seed`
    /// choosing which flow carries which stream. For benign traffic,
    /// where prefilter wake-ups are rare events (a few per 512 KiB), a
    /// seed-made corpus moves throughput by more than 2x from seed to
    /// seed at any size the reference can check.
    pub fixed_corpus: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "snort_counting",
        profile: BenchmarkId::Snort,
        scale: 0.1,
        plant_rate: 0.0005,
        flows: 16,
        chunk: 2048,
        rounds: 8,
        churn: false,
        setup_reps: 3,
        tail_pct: 92.0,
        fixed_corpus: false,
    },
    Spec {
        name: "spam_benign",
        profile: BenchmarkId::SpamAssassin,
        scale: 0.1,
        plant_rate: 0.0,
        flows: 64,
        chunk: 512,
        rounds: 16,
        churn: false,
        setup_reps: 21,
        tail_pct: 99.0,
        fixed_corpus: true,
    },
    Spec {
        name: "spam_churn",
        profile: BenchmarkId::SpamAssassin,
        scale: 0.1,
        plant_rate: 0.002,
        flows: 32,
        chunk: 2048,
        rounds: 8,
        churn: true,
        setup_reps: 21,
        tail_pct: 96.0,
        fixed_corpus: false,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn stream_len(&self) -> usize {
        self.chunk * self.rounds
    }
}

/// Fewest passes a run (or each half of a traced run) serves, so that
/// every figure taken per pass has a median.
pub const MIN_PASSES: usize = 3;

/// Everything a run feeds the program, made from the seed alone.
pub struct Inputs {
    /// Rule sets served in turn: one for long-lived workloads, the base
    /// set and its variant for churn.
    pub sets: Vec<Vec<String>>,
    /// The distinct byte streams of a pass.
    pub streams: Vec<Vec<u8>>,
    /// `order[i]`: the stream flow `i` of a pass carries.
    pub order: Vec<usize>,
    /// The hardware-model sample: flow 0's stream, extended.
    pub hw_sample: Vec<u8>,
}

/// Per-stream traffic seed: distinct streams, all derived from `seed`.
fn stream_seed(seed: u64, flow: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (flow as u64 + 1)
}

/// The rulesets are fixed, as a deployment's are: `--seed` varies the
/// traffic. (A seed-dependent ruleset moves throughput by up to 2x from
/// seed to seed, which would swamp any change the benchmark looks for.)
pub const RULESET_SEED: u64 = 2022;

pub fn make_inputs(spec: &Spec, scale: f64, seed: u64) -> Inputs {
    let ruleset = generate(spec.profile, scale, RULESET_SEED);
    let base = ruleset.pattern_strings();
    let mut sets = vec![base.clone()];
    if spec.churn {
        // Every 20th rule replaced by the same index of the next seed's
        // ruleset: a realistic small rule update.
        let next = generate(spec.profile, scale, RULESET_SEED + 1).pattern_strings();
        let variant = base
            .iter()
            .enumerate()
            .map(|(i, rule)| match next.get(i) {
                Some(other) if (i + 1) % 20 == 0 => other.clone(),
                _ => rule.clone(),
            })
            .collect();
        sets.push(variant);
    }
    let corpus_seed = if spec.fixed_corpus {
        RULESET_SEED
    } else {
        seed
    };
    let len = spec.stream_len();
    let streams = (0..spec.flows)
        .map(|f| traffic(&ruleset, len, spec.plant_rate, stream_seed(corpus_seed, f)))
        .collect();
    let mut order: Vec<usize> = (0..spec.flows).collect();
    if spec.fixed_corpus {
        shuffle(&mut order, seed);
    }
    // Traffic generation is sequential, so this sample's first `len`
    // bytes are exactly flow 0's stream.
    let hw_sample = traffic(
        &ruleset,
        HW_SAMPLE,
        spec.plant_rate,
        stream_seed(corpus_seed, order[0]),
    );
    Inputs {
        sets,
        streams,
        order,
        hw_sample,
    }
}

/// Fisher-Yates with a SplitMix64 stream.
fn shuffle(v: &mut [usize], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}
