//! Spam filtering: SpamAssassin-like patterns over email-ish text, showing
//! the per-occurrence module decisions the analysis-driven compiler makes
//! (counter vs bit vector vs unfolding).
//!
//! ```sh
//! cargo run --release --example spam_filter
//! ```

use recama::analysis::Verdict;
use recama::compiler::{compile, CompileOptions, ModuleKind};
use recama::workloads::{generate, BenchmarkId, PatternClass};
use recama::Pattern;

fn main() {
    let ruleset = generate(BenchmarkId::SpamAssassin, 0.02, 3786);
    println!(
        "SpamAssassin-like ruleset at 2% scale: {} patterns\n",
        ruleset.patterns.len()
    );

    // Show the compiler's decision for a handful of counting rules.
    let mut shown = 0;
    for (pattern, class) in &ruleset.patterns {
        if !matches!(
            class,
            PatternClass::CountingAmbiguous | PatternClass::CountingUnambiguous
        ) {
            continue;
        }
        let parsed = match recama::syntax::parse(pattern) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let out = compile(&parsed.for_stream(), &CompileOptions::default());
        let decision = if out.modules.contains(&ModuleKind::Counter) {
            "counter module"
        } else if out.modules.contains(&ModuleKind::BitVector) {
            "bit-vector module"
        } else {
            "unfolded"
        };
        let verdict = match out.analysis.nca_ambiguous() {
            Some(true) => Verdict::Ambiguous,
            Some(false) => Verdict::Unambiguous,
            None => Verdict::Unknown,
        };
        println!("  {pattern:42} -> {verdict:?}, realized as {decision}");
        shown += 1;
        if shown >= 10 {
            break;
        }
    }

    // End-to-end: the whole (parseable) ruleset in ONE engine, plus a
    // crafted demo rule, scanned against an email body. `lossy(true)`
    // skips the out-of-fragment rules and records them queryably.
    let demo = "prize[a-z ]{4,30}claim";
    let engine = match recama::Engine::builder()
        .patterns(ruleset.patterns.iter().map(|(p, _)| p.as_str()))
        .pattern(demo)
        .lossy(true)
        .build()
    {
        Ok(engine) => engine,
        // Lossy builds record unsupported rules instead of failing, but
        // a gateway still wants the failure path handled, not unwrapped.
        Err(e) => {
            eprintln!("ruleset failed to compile: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "\nwhole ruleset in one engine: {} rules compiled, {} skipped as unsupported",
        engine.len(),
        engine.skipped().len()
    );
    let email = b"Subject: you won!\n\nYour prize is waiting to claim today. prize now claim.";
    let demo_index = engine.len() - 1; // the demo rule was added last
    let ends: Vec<usize> = engine
        .scan(email)
        .into_iter()
        .filter(|m| m.pattern == demo_index)
        .map(|m| m.end)
        .collect();
    println!("demo-rule match ends in the email: {ends:?}");
    assert!(!ends.is_empty());

    // The single-pattern pipeline agrees, in software and simulated
    // hardware alike.
    let pattern = match Pattern::compile(demo) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("demo rule failed to compile: {e}");
            std::process::exit(1);
        }
    };
    assert_eq!(pattern.find_ends(email), ends, "engine agrees with Pattern");
    let mut hw = pattern.hardware();
    assert_eq!(hw.match_ends(email), ends, "hardware agrees with software");
    println!("hardware simulation agrees ({} reports)", ends.len());

    // A mail gateway filters many messages concurrently, and the owned
    // service handle is the production shape: `push_checked` /
    // `poll_checked` surface quarantine (a scan over the flow's bytes
    // panicked), overload shedding, and fail-stop as values, so one
    // hostile message can be dropped without unwinding the gateway.
    let svc = engine.serve();
    let inbox: &[&[u8]] = &[
        email,
        b"Meeting moved to 3pm, agenda attached.",
        b"Final notice: your prize will soon expire so claim it now!",
    ];
    let mut flagged = Vec::new();
    for mail in inbox {
        let flow = match svc.try_open_flow() {
            Ok(flow) => flow,
            Err(e) => {
                // Overloaded / poisoned: shed this message, keep serving.
                eprintln!("message shed: {e}");
                flagged.push(false);
                continue;
            }
        };
        let verdict = match svc.push_checked(flow, mail) {
            Ok(_) => {
                svc.close(flow);
                svc.barrier();
                svc.poll(flow)
                    .iter()
                    .any(|m| m.rule == engine.rule_id(demo_index))
            }
            Err(e) => {
                eprintln!("message dropped ({e})");
                svc.close(flow); // acknowledges a quarantine, if any
                false
            }
        };
        flagged.push(verdict);
    }

    // The literal prefilter (on by default) is what keeps ham cheap: a
    // (flow, shard) unit is only checked out for scanning once its
    // Aho-Corasick filter sees a required literal, so clean messages
    // skip the pattern engines entirely. The metrics block counts what
    // that saved across the inbox.
    if let Some(pf) = svc.metrics().prefilter {
        println!(
            "prefilter: {} unit-chunks skipped ({} B), {} candidate wakes, {} always-on rules",
            pf.total_skipped_units(),
            pf.total_skipped_bytes(),
            pf.candidate_hits,
            pf.always_on_rules
        );
    }
    svc.shutdown();
    println!("inbox scan (owned handle): demo rule flags {flagged:?}");
    assert_eq!(flagged, vec![true, false, true]);
}
