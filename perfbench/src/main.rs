//! perfbench: the repository's layered serving benchmark.
//!
//! One run takes a named workload's rule strings and byte streams (made
//! by `recama::workloads`), builds them with
//! `Engine::builder().lossy(true).build()`, serves them through
//! `Engine::serve_with` in a closed loop (`push_checked` / `barrier` /
//! `poll_checked` / `finishing`), checks every flow against an
//! independent per-rule reference, and prints every end-to-end metric
//! by name and unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload snort_counting --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 1` instead serves half the time untraced and half with the
//! span recorder on, replays set-up and scanning layer by layer, prints
//! the per-layer metrics with span self times and the tracing overhead,
//! and writes the spans to `perfbench/out/`. `--scale F` and
//! `--rounds N` shrink a workload (the self-test uses them).

mod layers;
mod mem;
mod oracle;
mod report;
mod serve;
mod trace;
mod workload;

use recama::{Engine, ServeConfig, ServiceHandle};
use report::{median, pass_rate, serve_figures, Metric};
use serve::{FlowOutcome, Pass};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Inputs, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
    rounds: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2022,
        seconds: 20.0,
        trace: false,
        scale: None,
        rounds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = Some(value.parse().map_err(|_| bad())?),
            "--rounds" => args.rounds = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Labels an I/O error with what was being done.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// Where reference digests and span files go: inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Set-up repeated `spec.setup_reps` times: rule strings to a ready
/// `ServiceHandle`. Returns the last engine and handle, with per-rep
/// (set-up s, build s, VmHWM MiB).
fn set_up(
    spec: &Spec,
    rules: &[String],
    workers: usize,
) -> Result<(Engine, ServiceHandle, Vec<[f64; 3]>), String> {
    let mut reps = Vec::new();
    let mut serving = None;
    for _ in 0..spec.setup_reps {
        drop(serving.take());
        mem::reset_peak().map_err(io("resetting VmHWM"))?;
        let t = Instant::now();
        let engine = Engine::builder()
            .patterns(rules)
            .lossy(true)
            .build()
            .map_err(|e| format!("lossy build failed: {e}"))?;
        let build_s = t.elapsed().as_secs_f64();
        let svc = engine.serve_with(workers, ServeConfig::default());
        let setup_s = t.elapsed().as_secs_f64();
        reps.push([
            setup_s,
            build_s,
            mem::peak_rss_mib().map_err(io("reading VmHWM"))?,
        ]);
        serving = Some((engine, svc));
    }
    let (engine, svc) = serving.ok_or("no set-up repetitions")?;
    Ok((engine, svc, reps))
}

/// What the serve phases produced.
struct Served {
    passes: Vec<Pass>,
    /// Every flow of every pass, for the reference check.
    outcomes: Vec<FlowOutcome>,
    /// VmHWM (MiB) of each phase, reset at its start.
    peaks: Vec<f64>,
}

/// Serves passes for `seconds` (at least `MIN_PASSES`) per phase: one
/// untraced phase, then a traced one when tracing.
fn serve_phases(
    svc: &ServiceHandle,
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Served, String> {
    let phases: &[bool] = if rec.enabled() {
        &[false, true]
    } else {
        &[false]
    };
    let per_phase = Duration::from_secs_f64(seconds / phases.len() as f64);
    let (mut passes, mut outcomes, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut quiet = Recorder::new(false);
    let mut set = 0;
    for &traced in phases {
        mem::reset_peak().map_err(io("resetting VmHWM"))?;
        let t = Instant::now();
        let mut n = 0;
        while n < workload::MIN_PASSES || t.elapsed() < per_phase {
            let next = if spec.churn { 1 - set } else { set };
            let r = if traced { &mut *rec } else { &mut quiet };
            passes.push(serve::pass(svc, spec, inputs, set, next, r, &mut outcomes));
            set = next;
            n += 1;
        }
        peaks.push(mem::peak_rss_mib().map_err(io("reading VmHWM"))?);
    }
    Ok(Served {
        passes,
        outcomes,
        peaks,
    })
}

/// Calls attempted and failed: a call fails if it returned an error or
/// belongs to a flow whose reports differ from the reference.
fn tally(
    outcomes: &[FlowOutcome],
    passes: &[Pass],
    expected: &[Vec<oracle::Digest>],
) -> (u64, u64, usize) {
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0usize);
    for o in outcomes {
        attempted += o.calls;
        let want = expected[o.set][o.stream];
        if o.digest == want {
            failed += o.errors;
            continue;
        }
        failed += o.calls;
        mismatched += 1;
        if mismatched <= 10 {
            println!(
                "MISMATCH set {} stream {}: served {} reports (digest {:016x}), reference {} (digest {:016x})",
                o.set, o.stream, o.digest.count, o.digest.hash, want.count, want.hash
            );
        }
    }
    if mismatched > 0 {
        println!(
            "{mismatched} of {} served flows differ from the reference",
            outcomes.len()
        );
    }
    for p in passes.iter().filter(|p| p.reload_ns.is_some()) {
        attempted += 1;
        failed += u64::from(p.reload_failed);
    }
    (attempted, failed, mismatched)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut spec = Spec::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {names:?}")
    })?;
    if let Some(rounds) = args.rounds {
        spec.rounds = rounds.max(1);
    }
    let scale = args.scale.unwrap_or(spec.scale);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Fail before any work if the memory probes are unavailable.
    mem::peak_rss_mib().map_err(io("reading VmHWM"))?;
    mem::reset_peak().map_err(io("resetting VmHWM via /proc/self/clear_refs"))?;

    let inputs = workload::make_inputs(&spec, scale, args.seed);
    println!(
        "workload {} seed {} scale {} rules {}, passes of {} flows x {} x {} B, workers {} (available_parallelism)",
        spec.name,
        args.seed,
        scale,
        inputs.sets[0].len(),
        spec.flows,
        spec.rounds,
        spec.chunk,
        workers
    );

    let (engine, svc, reps) = set_up(&spec, &inputs.sets[0], workers)?;
    let column = |i: usize| reps.iter().map(|r| r[i]).collect::<Vec<_>>();
    println!(
        "rules accepted {} of {}, shards {}, set-ups {}",
        engine.len(),
        inputs.sets[0].len(),
        engine.shard_count(),
        reps.len()
    );

    let mut rec = Recorder::new(args.trace);
    let setup_layers = args.trace.then(|| layers::setup(&inputs.sets[0], &mut rec));
    let Served {
        passes,
        outcomes,
        peaks: serve_peak,
    } = serve_phases(&svc, &spec, &inputs, args.seconds, &mut rec)?;
    let last_metrics = svc.metrics();
    svc.shutdown();

    // Simulated hardware, twice: the model must repeat exactly.
    let hw = layers::hardware(&engine, &inputs.hw_sample);
    let hw_repeats = layers::hardware(&engine, &inputs.hw_sample) == hw;
    if !hw_repeats {
        println!("MISMATCH simulated hardware figures differ between two evaluations");
    }
    let layers = setup_layers.map(|setup| report::Layers {
        setup,
        counters: layers::compile_counters(&engine),
        scan: layers::scan(&engine, &inputs.streams, spec.chunk, &mut rec),
        activity: layers::activity(&engine, &inputs.hw_sample),
        banks: hw.banks,
        shards: engine.shard_count(),
        workers,
        last: last_metrics,
    });
    drop(engine);

    // The reference check of every flow of every pass, untimed.
    let t = Instant::now();
    let expected = oracle::expected_cached(
        &out_dir().join("oracle"),
        &inputs.sets,
        &inputs.streams,
        workers,
    )
    .map_err(io("computing the reference"))?;
    println!("reference ready in {:.2} s", t.elapsed().as_secs_f64());
    let (attempted, failed, mismatched) = tally(&outcomes, &passes, &expected);
    let correct = failed == 0 && mismatched == 0 && hw_repeats;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let e2e = serve_figures(&untraced, spec.tail_pct);
    let end_to_end: Vec<Metric> = vec![
        ("throughput_mib_s", e2e.throughput_mib_s, "MiB/s"),
        ("push_poll_p50_ms", e2e.p50_ms, "ms"),
        ("push_poll_tail_ms", e2e.tail_ms, "ms"),
        ("setup_s", median(&column(0)), "s"),
        ("setup_peak_rss_mib", median(&column(2)), "MiB"),
        ("peak_rss_mib", serve_peak[0], "MiB"),
        ("hw_energy_nj_per_byte", hw.energy_nj_per_byte, "nJ/B"),
        ("hw_area_mm2", hw.area_mm2, "mm2"),
    ];
    let mut rates: Vec<f64> = untraced.iter().map(|p| pass_rate(p)).collect();
    rates.sort_by(f64::total_cmp);
    println!(
        "-- end to end: {} untraced passes of {} B; pass MiB/s min {:.4} median {:.4} max {:.4} --",
        untraced.len(),
        untraced[0].bytes,
        rates[0],
        median(&rates),
        rates[rates.len() - 1]
    );
    report::print(&end_to_end, |name| match name {
        "push_poll_p50_ms" => format!("  (of {} samples)", e2e.samples),
        "push_poll_tail_ms" => format!(
            "  (median over passes of each pass's p{} of {} samples, {} beyond)",
            spec.tail_pct, e2e.pass_samples, e2e.pass_beyond
        ),
        "setup_s" | "setup_peak_rss_mib" => format!("  (median of {} set-ups)", reps.len()),
        "hw_energy_nj_per_byte" | "hw_area_mm2" => {
            "  (simulated; cost model unvalidated against silicon)".to_string()
        }
        _ => String::new(),
    });
    println!(
        "error_rate = {} ratio  ({failed} failed of {attempted} calls)",
        failed as f64 / attempted.max(1) as f64
    );
    if spec.churn {
        println!(
            "reload_ms = {} ms  (median reload_rules call)",
            e2e.reload_ms
        );
    }

    let Some(layers) = layers else {
        println!(
            "{}",
            report::json_line(correct, attempted, failed, &end_to_end)?
        );
        return Ok(correct);
    };
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let per_layer = report::per_layer(&rec, &traced, &layers);
    println!("-- per layer: {} traced passes --", traced.len());
    report::print(&per_layer, |_| String::new());
    println!("-- spans: name, count, total ms, self ms --");
    for (name, (count, total, own)) in rec.summary() {
        println!("span {name:<24} {count:>8} {total:>12.3} {own:>12.3}");
    }
    let t = serve_figures(&traced, spec.tail_pct);
    let build_span_s = rec.total_ns("core.engine_build", None) as f64 / 1e9;
    println!("-- tracing overhead: traced - untraced --");
    for (name, traced_v, untraced_v, unit) in [
        (
            "throughput_mib_s",
            t.throughput_mib_s,
            e2e.throughput_mib_s,
            "MiB/s",
        ),
        ("push_poll_p50_ms", t.p50_ms, e2e.p50_ms, "ms"),
        ("push_poll_tail_ms", t.tail_ms, e2e.tail_ms, "ms"),
        ("peak_rss_mib", serve_peak[1], serve_peak[0], "MiB"),
        ("build_s", build_span_s, median(&column(1)), "s"),
    ] {
        println!(
            "overhead {name} = {} {unit}  (traced {traced_v}, untraced {untraced_v})",
            traced_v - untraced_v
        );
    }
    let file = out_dir().join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, rec.to_jsonl()))
        .map_err(io("writing spans"))?;
    println!("spans written to {}", file.display());
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &per_layer)?
    );
    Ok(correct)
}
