//! # recama
//!
//! **RE**gexes with **C**ounters on an in-memory **A**utomata **MA**chine —
//! a full-system Rust reproduction of *Software-Hardware Codesign for
//! Efficient In-Memory Regular Pattern Matching* (PLDI 2022).
//!
//! The paper's pipeline, end to end:
//!
//! 1. parse a POSIX/PCRE-style pattern with counting (`r{m,n}`)
//!    — [`syntax`];
//! 2. build a nondeterministic counter automaton via the Glushkov
//!    construction with counters — [`nca`];
//! 3. statically analyze **counter-(un)ambiguity** (exact, approximate,
//!    hybrid) — [`analysis`];
//! 4. compile to an extended-MNRL network, choosing **counter modules**
//!    for unambiguous occurrences, **bit-vector modules** for ambiguous
//!    `σ{m,n}`, and partial unfolding otherwise — [`compiler`] / [`mnrl`];
//! 5. place and simulate on the augmented CAMA in-memory accelerator and
//!    price the run with the TSMC 28 nm SPICE scalars — [`hw`];
//! 6. reproduce the paper's ruleset statistics with synthetic workloads
//!    — [`workloads`].
//!
//! ## Quick start
//!
//! ```
//! use recama::Pattern;
//!
//! let pattern = Pattern::compile(r"ab{10,20}c").unwrap();
//! assert!(pattern.is_match(b"....abbbbbbbbbbbc..."));
//! assert_eq!(pattern.find_ends(b"xxabbbbbbbbbbc"), vec![14]);
//! // One counter module instead of 20 unfolded STEs:
//! assert_eq!(pattern.network().counts_by_type().1, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use recama_analysis as analysis;
pub use recama_compiler as compiler;
pub use recama_hw as hw;
pub use recama_mnrl as mnrl;
pub use recama_nca as nca;
pub use recama_syntax as syntax;
pub use recama_workloads as workloads;

mod engine;
mod prefilter;
mod service;
mod set;

pub use engine::{
    CompileError, CompilePhase, Engine, EngineBuilder, FaultPolicy, OverloadPolicy, ServeConfig,
    SkippedRule,
};
pub use prefilter::{PrefilterMetrics, PrefilterMode};
pub use recama_nca::{HybridStats, ScanMode, DEFAULT_STATE_BUDGET};
#[cfg(feature = "fault-inject")]
pub use service::FaultPlan;
pub use service::{
    FaultMetrics, FlowId, RuleMatch, ServeError, ServiceEvent, ServiceHandle, ServiceMetrics,
};
pub use set::{SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream};

use recama_compiler::{compile, CompileOptions, CompileOutput};
// The nca `Engine` trait is imported anonymously: only its methods are
// needed, and the bare name belongs to the crate-level `Engine` facade.
use recama_nca::Engine as _;
use recama_nca::{CompilePlan, CompiledEngine, Nca, StateId};
use recama_syntax::{ParseError, Parsed};
use std::sync::OnceLock;

/// A compiled pattern: the full software–hardware pipeline applied to one
/// regex, ready for matching (software twin) and for hardware simulation.
///
/// Matching uses *search* semantics like the in-memory accelerators: the
/// pattern is compiled in its streaming form `Σ*·r` (unless `^`-anchored)
/// and a match is reported at every byte position where a match of `r`
/// ends.
#[derive(Debug)]
pub struct Pattern {
    parsed: Parsed,
    compiled: CompileOutput,
    /// Reversed automaton for span location, built on first use (repeated
    /// `find_spans` calls must not re-run the Glushkov construction).
    reversed: OnceLock<Nca>,
}

impl Pattern {
    /// Compiles `pattern` with default options.
    ///
    /// # Errors
    ///
    /// Returns the parser's [`ParseError`] for malformed patterns or
    /// constructs outside the supported regular fragment (backreferences,
    /// lookaround, …).
    pub fn compile(pattern: &str) -> Result<Pattern, ParseError> {
        Pattern::compile_with(pattern, &CompileOptions::default())
    }

    /// Compiles with explicit [`CompileOptions`] (unfolding threshold,
    /// bit-vector capacity, analysis budget).
    ///
    /// # Errors
    ///
    /// Same as [`Pattern::compile`].
    pub fn compile_with(pattern: &str, options: &CompileOptions) -> Result<Pattern, ParseError> {
        let parsed = recama_syntax::parse(pattern)?;
        let compiled = compile(&parsed.for_stream(), options);
        Ok(Pattern {
            parsed,
            compiled,
            reversed: OnceLock::new(),
        })
    }

    /// The parse result (AST + anchors).
    pub fn parsed(&self) -> &Parsed {
        &self.parsed
    }

    /// The compiled MNRL network.
    pub fn network(&self) -> &recama_mnrl::MnrlNetwork {
        &self.compiled.network
    }

    /// The full compiler output (final NCA, module decisions, analysis).
    pub fn compiled(&self) -> &CompileOutput {
        &self.compiled
    }

    /// End positions (1-based byte offsets) of matches in `haystack`,
    /// using the analysis-informed software engine. A trailing `$` anchor
    /// keeps only matches ending at the end of the haystack.
    pub fn find_ends(&self, haystack: &[u8]) -> Vec<usize> {
        let mut engine = self.engine();
        engine
            .match_ends(haystack)
            .into_iter()
            .filter(|&e| e > 0 && (!self.parsed.anchored_end || e == haystack.len()))
            .collect()
    }

    /// Whether `haystack` contains a match.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        !self.find_ends(haystack).is_empty()
    }

    /// The software twin engine (counter registers + bit vectors, §3.2.1),
    /// with storage modes chosen from the static analysis.
    pub fn engine(&self) -> CompiledEngine<'_> {
        let analysis = &self.compiled.analysis;
        let plan = CompilePlan::with_unambiguous_states(&self.compiled.nca, |q: StateId| {
            analysis.state_unambiguous(q)
        });
        CompiledEngine::new(&self.compiled.nca, plan)
    }

    /// A hardware simulator for this pattern's network.
    pub fn hardware(&self) -> recama_hw::HwSimulator<'_> {
        recama_hw::HwSimulator::new(&self.compiled.network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_end_to_end() {
        let p = Pattern::compile("a{3,5}b").unwrap();
        assert!(p.is_match(b"xxaaaabyy"));
        assert!(!p.is_match(b"aab"));
        assert_eq!(p.find_ends(b"aaab.aaaaab"), vec![4, 11]);
    }

    #[test]
    fn anchored_patterns_respect_anchor() {
        let p = Pattern::compile("^ab{2}").unwrap();
        assert!(p.is_match(b"abb..."));
        assert!(!p.is_match(b"xabb"));
    }

    #[test]
    fn software_engine_matches_hardware() {
        let p = Pattern::compile("x[ab]{2,6}y").unwrap();
        let input = b"zzxabababyzz_xay_xaby";
        let mut hw = p.hardware();
        assert_eq!(p.find_ends(input), hw.match_ends(input));
    }

    #[test]
    fn unsupported_patterns_error() {
        let err = Pattern::compile(r"(a)\1").unwrap_err();
        assert!(err.is_unsupported());
    }

    #[test]
    fn module_choice_is_visible() {
        use recama_compiler::ModuleKind;
        let unambiguous = Pattern::compile("^head[0-9]{500}tail").unwrap();
        assert_eq!(unambiguous.compiled().modules, vec![ModuleKind::Counter]);
        let ambiguous = Pattern::compile("k.{500}").unwrap();
        assert_eq!(ambiguous.compiled().modules, vec![ModuleKind::BitVector]);
    }
}

/// A located match: byte span `[start, end)` in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchSpan {
    /// Start offset (inclusive).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl Pattern {
    /// Locates full match spans: for every reported match end, the reversed
    /// automaton runs backward from the end to find the *earliest* start
    /// (leftmost-longest flavor). Automata processors natively report only
    /// ends; this is the software post-processing step deployments use.
    pub fn find_spans(&self, haystack: &[u8]) -> Vec<MatchSpan> {
        let ends = self.find_ends(haystack);
        if ends.is_empty() {
            return Vec::new();
        }
        let reversed = self.reversed_nca();
        let mut engine = recama_nca::TokenSetEngine::new(reversed);
        ends.into_iter()
            .map(|end| MatchSpan {
                start: earliest_start(&mut engine, haystack, end),
                end,
            })
            .collect()
    }

    /// The reversed automaton, constructed lazily on first span query and
    /// cached for the pattern's lifetime.
    fn reversed_nca(&self) -> &Nca {
        self.reversed
            .get_or_init(|| Nca::from_regex(&self.parsed.regex.reverse()))
    }
}

/// Runs `engine` — an engine over a *reversed* automaton — backward over
/// `haystack[..end]` and returns the earliest start of a match ending at
/// `end` (leftmost-longest flavor): accepting after `k` reversed bytes
/// means a match starts at `end - k`, and the largest `k` wins. Shared by
/// [`Pattern::find_spans`] and [`ShardedPatternSet::find_spans`].
pub(crate) fn earliest_start(
    engine: &mut recama_nca::TokenSetEngine<'_>,
    haystack: &[u8],
    end: usize,
) -> usize {
    engine.reset();
    let mut start = end; // empty-match fallback
    for (steps, &b) in haystack[..end].iter().rev().enumerate() {
        engine.step(b);
        if engine.is_accepting() {
            start = end - (steps + 1);
        }
    }
    start
}

#[cfg(test)]
mod span_tests {
    use super::*;

    #[test]
    fn spans_locate_starts() {
        let p = Pattern::compile("ab{2,3}c").unwrap();
        let spans = p.find_spans(b"zzabbc..abbbc");
        assert_eq!(
            spans,
            vec![
                MatchSpan { start: 2, end: 6 },
                MatchSpan { start: 8, end: 13 }
            ]
        );
    }

    #[test]
    fn spans_prefer_earliest_start() {
        // aa{1,3}: the longest extent backward from the end is taken.
        let p = Pattern::compile("a{2,4}").unwrap();
        let spans = p.find_spans(b"xaaax");
        assert_eq!(spans.len(), 2); // ends at 3 (aa) and 4 (aaa)
        assert_eq!(spans[0], MatchSpan { start: 1, end: 3 });
        assert_eq!(spans[1], MatchSpan { start: 1, end: 4 });
    }

    #[test]
    fn span_contents_rematch() {
        let p = Pattern::compile("k[ab]{2,5}z").unwrap();
        let hay = b"..kabz..kababz..";
        for span in p.find_spans(hay) {
            let slice = &hay[span.start..span.end];
            assert!(
                recama_syntax::naive::matches(&p.parsed().regex, slice),
                "span {:?} does not rematch: {:?}",
                span,
                String::from_utf8_lossy(slice)
            );
        }
    }
}
