//! [`ShardedPatternSet`]: the compiled ruleset an
//! [`Engine`](crate::Engine) wraps, and [`ShardedSetStream`], the one
//! scan path over it.
//!
//! The paper's evaluation operates on rulesets (Snort, Suricata,
//! Protomata, SpamAssassin, ClamAV — Table 1), and deployments of this
//! class of matcher always compile the full set into shared automata
//! scanned once per input stream. The set is banked: a
//! [`ShardPlan`](recama_hw::ShardPlan) partitions the rules into shards
//! whose sub-networks each fit one CAMA bank
//! ([`ShardPolicy`](recama_hw::ShardPolicy), default = one bank's
//! capacity), and one [`MultiNca`](recama_nca::MultiNca) per shard
//! shares a single byte-class alphabet computed once over the whole
//! set. [`ShardedSetStream::feed`] advances the shards (on scoped
//! threads for large chunks) and recombines their reports with an
//! ordered merge that keeps the output **byte-identical** to the
//! unsharded scan; a block scan ([`Engine::scan`](crate::Engine::scan))
//! is one feed of a fresh stream.
//!
//! The unsharded machine image — ONE merged network + ONE batched
//! engine — is the single-shard (`N = 1`) case,
//! [`ShardPolicy::Single`](recama_hw::ShardPolicy::Single): same compile
//! front-end, same per-pattern pipeline (parse → analysis → module
//! selection), same report semantics.

use crate::prefilter::{ChunkAction, PrefilterMode, PrefilterState, SetPrefilter};
use crate::MatchSpan;
use recama_compiler::{compile, CompileOptions, CompileOutput};
use recama_hw::{RuleCost, ShardPlan, ShardPolicy};
use recama_mnrl::MnrlNetwork;
use recama_nca::{CompilePlan, MultiReport, Nca, ScanMode, ShardStream, ShardedMulti, StateId};
use recama_syntax::Parsed;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A match reported by a pattern set: pattern `pattern` (index into the
/// compiled set) matched ending at 1-based byte offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetMatch {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// 1-based end offset of the match.
    pub end: usize,
}

/// A located match of a pattern set: pattern `pattern` matched the byte
/// span `[start, end)` — the set-level analogue of [`MatchSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetSpan {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// Start offset (inclusive), earliest-start (leftmost-longest flavor).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl SetSpan {
    /// The span as a [`MatchSpan`].
    pub fn span(&self) -> MatchSpan {
        MatchSpan {
            start: self.start,
            end: self.end,
        }
    }
}

/// A compiled ruleset partitioned into bank-sized shards: one merged
/// extended-MNRL network and one shared software automaton **per shard**,
/// with a single byte-class alphabet shared by every shard.
///
/// This is the image an [`Engine`](crate::Engine) wraps and a
/// [`ServiceHandle`](crate::ServiceHandle) pins per serving epoch. Every
/// query goes through the `Engine`; reach the set with
/// [`Engine::set`](crate::Engine::set) for its sharded automata
/// ([`multi`](ShardedPatternSet::multi)).
///
/// ```
/// use recama::hw::ShardPolicy;
/// use recama::Engine;
///
/// let engine = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .shard_policy(ShardPolicy::Fixed(2))
///     .build()
///     .unwrap();
/// let multi = engine.set().multi();
/// assert_eq!(multi.shard_count(), 2);
/// // Every shard indexes the one byte-class alphabet of the whole set.
/// assert!(multi.shards().iter().all(|s| s.alphabet().len() == multi.alphabet().len()));
/// ```
#[derive(Debug)]
pub struct ShardedPatternSet {
    pub(crate) sources: Vec<String>,
    /// Stable rule id per compiled pattern (explicit from
    /// [`EngineBuilder::rule`](crate::EngineBuilder::rule), or the
    /// builder add-order index); served reports carry these.
    pub(crate) ids: Vec<u64>,
    parsed: Vec<Parsed>,
    pub(crate) outputs: Vec<CompileOutput>,
    /// Whether pattern `i` carries a trailing-`$` anchor (one-shot scans
    /// keep only its matches ending at the end of the haystack).
    pub(crate) anchored_end: Vec<bool>,
    pub(crate) plan: ShardPlan,
    /// One merged machine image per shard (reporting nodes carry global
    /// pattern ids).
    pub(crate) networks: Vec<MnrlNetwork>,
    pub(crate) multi: ShardedMulti,
    /// How scans and streams walk input bytes (exact NCA vs. hybrid
    /// lazy-DFA overlay).
    pub(crate) scan_mode: ScanMode,
    /// The literal prefilter (`None` under [`PrefilterMode::Off`]):
    /// per-shard Aho-Corasick filters over the shared alphabet that
    /// streams and the service consult before running the automata.
    pub(crate) prefilter: Option<SetPrefilter>,
    /// Reversed automata for span location, built per pattern on first
    /// use (repeated span queries must not re-run Glushkov).
    reversed: Vec<OnceLock<Nca>>,
}

impl ShardedPatternSet {
    /// Compiles `accepted` `(rule id, source, parse)` triples.
    pub(crate) fn build(
        accepted: Vec<(u64, String, Parsed)>,
        options: &CompileOptions,
        policy: ShardPolicy,
        scan_mode: ScanMode,
        prefilter_mode: PrefilterMode,
    ) -> ShardedPatternSet {
        let mut sources = Vec::with_capacity(accepted.len());
        let mut ids = Vec::with_capacity(accepted.len());
        let mut parsed_list = Vec::with_capacity(accepted.len());
        let mut outputs = Vec::with_capacity(accepted.len());
        let mut anchored_end = Vec::with_capacity(accepted.len());
        for (id, source, parsed) in accepted {
            let out = compile(&parsed.for_stream(), options);
            sources.push(source);
            ids.push(id);
            anchored_end.push(parsed.anchored_end);
            parsed_list.push(parsed);
            outputs.push(out);
        }
        // Bank-aware partition, costed with the mapper's own estimates.
        // The trivial policy never looks at costs, so skip the per-rule
        // placements there (single-shard builds route through it).
        let plan = if policy == ShardPolicy::Single {
            ShardPlan::single(outputs.len())
        } else {
            let costs: Vec<RuleCost> = outputs
                .iter()
                .map(|out| RuleCost::of_network(&out.network))
                .collect();
            ShardPlan::plan(&costs, policy)
        };

        // One machine image per shard; reporting nodes carry the *global*
        // pattern index, so hardware reports attribute without remapping.
        let networks: Vec<MnrlNetwork> = plan
            .shards()
            .iter()
            .enumerate()
            .map(|(si, members)| {
                let name = if plan.shard_count() == 1 {
                    "pattern-set".to_string()
                } else {
                    format!("pattern-set-shard{si}")
                };
                recama_compiler::merge_rule_networks(
                    &name,
                    members.iter().map(|&g| (g, g as u32, &outputs[g].network)),
                )
            })
            .collect();

        // One shared automaton per shard over a single union alphabet.
        // The optimized plan keeps the analysis-informed SingleValue
        // selection and adds counting-set queues for eligible ambiguous
        // bounded repeats (O(1) increments + O(1) quiescence for the
        // hybrid overlay).
        let parts: Vec<(&Nca, CompilePlan)> = outputs
            .iter()
            .map(|out| {
                let analysis = &out.analysis;
                let plan =
                    CompilePlan::optimized(&out.nca, |q: StateId| analysis.state_unambiguous(q));
                (&out.nca, plan)
            })
            .collect();
        let multi = ShardedMulti::merge(&parts, plan.shards());

        // Required-literal extraction over the raw rule ASTs, one AC
        // filter per shard, over the same alphabet the engines index
        // with (singleton predicates get singleton classes, so the
        // class-indexed filter is exact on extracted literals).
        let prefilter = match prefilter_mode {
            PrefilterMode::On => Some(SetPrefilter::build(
                &parsed_list,
                plan.shards(),
                multi.alphabet().clone(),
            )),
            PrefilterMode::Off => None,
        };

        let reversed = (0..sources.len()).map(|_| OnceLock::new()).collect();
        ShardedPatternSet {
            sources,
            ids,
            parsed: parsed_list,
            outputs,
            anchored_end,
            plan,
            networks,
            multi,
            scan_mode,
            prefilter,
            reversed,
        }
    }

    /// The sharded automata (one merged `MultiNca` per shard, shared
    /// byte-class alphabet).
    pub fn multi(&self) -> &ShardedMulti {
        &self.multi
    }

    /// One [`ShardStream`] per shard in this set's [`ScanMode`] — the
    /// unit the flow service checks out.
    pub(crate) fn shard_streams(&self) -> Vec<ShardStream<'_>> {
        self.multi.shard_streams_with(self.scan_mode)
    }

    /// One detached [`ShardStreamState`](recama_nca::ShardStreamState)
    /// per shard — the owned form a `'static` flow table parks between
    /// scans (see [`ServiceHandle`](crate::ServiceHandle)).
    pub(crate) fn shard_stream_states(&self) -> Vec<recama_nca::ShardStreamState> {
        self.shard_streams()
            .into_iter()
            .map(ShardStream::into_state)
            .collect()
    }

    /// Reattaches a detached per-shard scan state to this set's automata
    /// (the inverse of [`ShardStream::into_state`]).
    pub(crate) fn resume_shard_stream(
        &self,
        state: recama_nca::ShardStreamState,
    ) -> ShardStream<'_> {
        self.multi.resume_shard_stream(state)
    }

    /// The reversed automaton of pattern `i`, built on first use.
    pub(crate) fn reversed_nca(&self, i: usize) -> &Nca {
        self.reversed[i].get_or_init(|| Nca::from_regex(&self.parsed[i].regex.reverse()))
    }
}

/// Merges per-shard report lists into one list sorted by `(end,
/// pattern)` — the order the unsharded engine emits. Each list must
/// arrive sorted by `(end, pattern)` with global pattern ids
/// (guaranteed by [`MultiEngine`](recama_nca::MultiEngine)'s within-step
/// ordering contract plus ascending shard members).
fn merge_ordered(per_shard: &[Vec<MultiReport>], out: &mut Vec<SetMatch>) {
    let key = |r: &MultiReport| (r.end, r.pattern);
    debug_assert!(
        per_shard
            .iter()
            .all(|reports| reports.windows(2).all(|w| key(&w[0]) < key(&w[1]))),
        "per-shard reports must arrive sorted by (end, pattern) — \
         see MultiEngine::step_into's ordering contract"
    );
    let total: usize = per_shard.iter().map(|v| v.len()).sum();
    let mut cursors = vec![0usize; per_shard.len()];
    for _ in 0..total {
        let mut best: Option<(usize, MultiReport)> = None;
        for (si, reports) in per_shard.iter().enumerate() {
            if let Some(r) = reports.get(cursors[si]) {
                if best.is_none_or(|(_, b)| key(r) < key(&b)) {
                    best = Some((si, *r));
                }
            }
        }
        let (si, r) = best.expect("total counted a remaining report");
        out.push(SetMatch {
            pattern: r.pattern as usize,
            end: r.end as usize,
        });
        cursors[si] += 1;
    }
}

/// The last candidate end per trailing-`$` pattern. Streams and served
/// flows report every candidate end of a `$`-anchored pattern because
/// mid-stream the end is unknown; this records the most recent one so
/// declaring end-of-stream can resolve which candidates actually land
/// on the final byte. Callers record `$`-anchored patterns only. State
/// lives across feeds — including zero-byte ones — so a candidate two
/// chunks old still finishes correctly when the stream ends on an empty
/// chunk.
#[derive(Debug, Default)]
pub(crate) struct DollarTracker {
    last: HashMap<usize, u64>,
}

impl DollarTracker {
    /// Records a candidate end of `$`-anchored pattern `pattern`.
    pub(crate) fn observe(&mut self, pattern: usize, end: u64) {
        self.last.insert(pattern, end);
    }

    /// The finishing set for a stream ending at `position`: `$`-anchored
    /// matches whose last candidate ends exactly there, sorted by
    /// pattern — what a one-shot scan would have kept of them.
    pub(crate) fn finish(&self, position: u64) -> Vec<SetMatch> {
        let mut out: Vec<SetMatch> = self
            .last
            .iter()
            .filter(|&(_, &end)| end == position)
            .map(|(&pattern, &end)| SetMatch {
                pattern,
                end: end as usize,
            })
            .collect();
        out.sort();
        out
    }

    pub(crate) fn clear(&mut self) {
        self.last.clear();
    }
}

/// A resumable chunk-at-a-time matcher over a [`ShardedPatternSet`] (one
/// [`ShardStream`] per shard); create one with
/// [`Engine::stream`](crate::Engine::stream). The stream is `Send`, so
/// per-flow states can move onto worker threads — and its per-shard
/// states are individually detachable
/// ([`ShardedMulti::shard_stream_with`]), which is what
/// [`ServiceHandle`](crate::ServiceHandle) builds on to let two workers
/// advance different shards of the same flow.
pub struct ShardedSetStream<'a> {
    set: &'a ShardedPatternSet,
    shards: Vec<ShardStream<'a>>,
    bufs: Vec<Vec<MultiReport>>,
    merged: Vec<SetMatch>,
    dollar: DollarTracker,
    /// Per-shard streaming filter state (AC node + sticky hot flag);
    /// cold shards skip the engines entirely until a literal candidate
    /// appears.
    pre: Vec<PrefilterState>,
    /// Last `window` bytes fed, for cold→hot wake-up replay.
    tail: Vec<u8>,
}

/// Inputs at least this large are fanned out to shard engines on scoped
/// threads; smaller ones are processed sequentially (thread spawn would
/// cost more than the scan).
const PARALLEL_MIN_BYTES: usize = 4096;

impl<'a> ShardedSetStream<'a> {
    /// A fresh stream at position 0 over `set`.
    pub(crate) fn new(set: &'a ShardedPatternSet) -> ShardedSetStream<'a> {
        let n = set.multi.shard_count();
        ShardedSetStream {
            set,
            shards: set.shard_streams(),
            bufs: vec![Vec::new(); n],
            merged: Vec::new(),
            dollar: DollarTracker::default(),
            pre: vec![PrefilterState::default(); n],
            tail: Vec::new(),
        }
    }

    /// Consumes `chunk` and returns the matches it completed, in stream
    /// order. End offsets are 1-based and *absolute* (counted from the
    /// start of the stream, across all chunks fed so far).
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = SetMatch> + '_ {
        let set = self.set;
        let chunk_start = self.position();
        // Consult the prefilter per shard before any engine runs. Cold
        // shards skip the scan (their engines stay fresh and teleport
        // via restart_at); a first candidate wakes the shard with a
        // bounded tail replay. Empty chunks scan (a no-op) so the
        // filter state never advances past bytes that were never fed.
        let actions: Vec<ChunkAction> = match &set.prefilter {
            Some(pf) if !chunk.is_empty() => self
                .pre
                .iter_mut()
                .enumerate()
                .map(|(si, st)| pf.chunk_action(si, st, chunk, chunk_start, 0))
                .collect(),
            _ => vec![ChunkAction::Scan; self.shards.len()],
        };
        let tail = &self.tail;
        let run = |shard: &mut ShardStream<'_>, buf: &mut Vec<MultiReport>, action: ChunkAction| {
            buf.clear();
            match action {
                ChunkAction::Scan => shard.feed_into(chunk, buf),
                ChunkAction::Skip => shard.restart_at(chunk_start + chunk.len() as u64),
                ChunkAction::Wake { replay_start } => {
                    shard.restart_at(replay_start);
                    let need = (chunk_start - replay_start) as usize;
                    if need > 0 {
                        shard.feed_into(&tail[tail.len() - need..], buf);
                    }
                    shard.feed_into(chunk, buf);
                }
            }
        };
        if self.shards.len() > 1 && chunk.len() >= PARALLEL_MIN_BYTES {
            std::thread::scope(|scope| {
                let run = &run;
                for ((shard, buf), action) in self
                    .shards
                    .iter_mut()
                    .zip(self.bufs.iter_mut())
                    .zip(actions.iter().copied())
                {
                    scope.spawn(move || run(shard, buf, action));
                }
            });
        } else {
            for ((shard, buf), action) in self
                .shards
                .iter_mut()
                .zip(self.bufs.iter_mut())
                .zip(actions.iter().copied())
            {
                run(shard, buf, action);
            }
        }
        if let Some(pf) = &set.prefilter {
            pf.extend_tail(&mut self.tail, chunk);
        }
        self.merged.clear();
        merge_ordered(&self.bufs, &mut self.merged);
        for m in &self.merged {
            if set.anchored_end[m.pattern] {
                self.dollar.observe(m.pattern, m.end as u64);
            }
        }
        self.merged.iter().copied()
    }

    /// Declares end-of-stream and returns, sorted by pattern, the
    /// `$`-anchored matches that end **exactly at the final byte** — the
    /// ones a one-shot [`Engine::scan`](crate::Engine::scan) over the
    /// whole stream would keep. (`feed` reports every candidate end of a
    /// `$`-anchored pattern, because mid-stream the end is unknown; the
    /// non-`$` reports of `feed` plus this finishing set are together
    /// byte-identical to the one-shot scan.)
    ///
    /// The finishing set survives trailing empty chunks: a candidate end
    /// on the final byte is reported even if the last `feed` before
    /// `finish` consumed zero bytes.
    pub fn finish(self) -> Vec<SetMatch> {
        self.dollar.finish(self.position())
    }

    /// Number of shard engines this stream advances in lockstep.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total bytes consumed since creation (or the last reset).
    pub fn position(&self) -> u64 {
        self.shards.first().map(|s| s.position()).unwrap_or(0)
    }

    /// Restarts the stream at position 0.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.pre.fill(PrefilterState::default());
        self.tail.clear();
        self.dollar.clear();
    }
}

impl fmt::Debug for ShardedSetStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedSetStream({} shards, position = {})",
            self.shard_count(),
            self.position()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Pattern};
    use recama_hw::ShardBudget;

    fn engine(patterns: &[&str], policy: ShardPolicy) -> Engine {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(policy)
            .build()
            .unwrap()
    }

    /// The unsharded (single-bank) engine.
    fn single(patterns: &[&str]) -> Engine {
        engine(patterns, ShardPolicy::Single)
    }

    /// The oracle: the union of per-pattern [`Pattern::find_ends`]
    /// results, in stream order (ascending end, then pattern).
    fn oracle(patterns: &[&str], haystack: &[u8]) -> Vec<SetMatch> {
        let mut expected: Vec<SetMatch> = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            for end in Pattern::compile(p).unwrap().find_ends(haystack) {
                expected.push(SetMatch { pattern: pi, end });
            }
        }
        expected.sort_by_key(|m| (m.end, m.pattern));
        expected
    }

    #[test]
    fn mirrors_per_pattern_find_ends() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        assert_eq!(
            single(&patterns).scan(haystack),
            oracle(&patterns, haystack)
        );
    }

    #[test]
    fn compile_many_reports_offending_index() {
        let err = Engine::builder()
            .patterns(["ok", "bad(", "ok2"])
            .shard_policy(ShardPolicy::Single)
            .build()
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("#1"));
    }

    #[test]
    fn compile_filtered_skips_bad_patterns() {
        let set = Engine::builder()
            .patterns(["a{2}", r"(x)\1", "b{3}"])
            .shard_policy(ShardPolicy::Single)
            .lossy(true)
            .build()
            .unwrap();
        let rejected = set.skipped();
        assert_eq!(set.len(), 2);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].index, 1);
        assert!(set.is_match(b"bbb"));
    }

    #[test]
    fn network_is_merged_and_valid_with_report_ids() {
        let set = single(&["^a{30}", "[xy]{5}z"]);
        assert_eq!(set.shard_count(), 1);
        let network = set.network(0);
        assert!(network.validate().is_empty(), "{:?}", network.validate());
        assert_eq!(network.report_ids(), vec![0, 1]);
        // Module decisions surface per pattern.
        assert_eq!(set.outputs().len(), 2);
        // One merged automaton holds both patterns.
        assert_eq!(set.set().multi().shard(0).pattern_count(), 2);
    }

    #[test]
    fn dollar_anchor_filters_set_matches() {
        let set = single(&["ab$", "ab"]);
        let got = set.scan(b"ab.ab");
        // "ab$" only at the final position; "ab" at both.
        assert_eq!(
            got,
            vec![
                SetMatch { pattern: 1, end: 2 },
                SetMatch { pattern: 0, end: 5 },
                SetMatch { pattern: 1, end: 5 },
            ]
        );
    }

    #[test]
    fn stream_positions_are_absolute() {
        let set = single(&["kk"]);
        let mut stream = set.stream();
        assert_eq!(stream.feed(b"....").count(), 0);
        let hits: Vec<SetMatch> = stream.feed(b"kk").collect();
        assert_eq!(hits, vec![SetMatch { pattern: 0, end: 6 }]);
        assert_eq!(stream.position(), 6);
        stream.reset();
        let hits: Vec<SetMatch> = stream.feed(b"kk").collect();
        assert_eq!(hits, vec![SetMatch { pattern: 0, end: 2 }]);
    }

    /// Regression pin: the finishing set must come from state that lives
    /// across `feed` calls, not from the last chunk's report buffer — an
    /// empty final chunk clears that buffer, and a match ending exactly
    /// on the final byte must still be reported by `finish()`.
    #[test]
    fn stream_finish_survives_empty_final_chunk() {
        let patterns = ["ab$", "ab", "cd$"];
        let input: &[u8] = b"ab.cd";
        let single = single(&patterns);
        let expected = oracle(&patterns, input);

        // Unsharded stream: non-$ feed reports + finish == the oracle.
        let mut stream = single.stream();
        let mut got = Vec::new();
        for chunk in [&b"ab"[..], b".c", b"d", b""] {
            got.extend(
                stream
                    .feed(chunk)
                    .filter(|m| !["ab$", "cd$"].contains(&patterns[m.pattern])),
            );
        }
        let finishing = stream.finish();
        assert_eq!(
            finishing,
            vec![SetMatch { pattern: 2, end: 5 }],
            "the cd$ candidate arrived two feeds before the empty final chunk"
        );
        got.extend(finishing);
        got.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(got, expected);

        // Sharded stream, same chunking, same contract.
        let sharded = engine(&patterns, ShardPolicy::Fixed(2));
        let mut stream = sharded.stream();
        let mut got = Vec::new();
        for chunk in [&b"ab"[..], b".c", b"d", b""] {
            got.extend(
                stream
                    .feed(chunk)
                    .filter(|m| !["ab$", "cd$"].contains(&patterns[m.pattern])),
            );
        }
        got.extend(stream.finish());
        got.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(got, expected);
    }

    #[test]
    fn stream_finish_is_empty_when_no_dollar_match_ends_the_stream() {
        let set = single(&["ab$", "xy"]);
        // Candidate at 2, but the stream continues past it.
        let mut stream = set.stream();
        assert_eq!(stream.feed(b"ab").count(), 1);
        assert_eq!(stream.feed(b"xy").count(), 1);
        assert!(stream.finish().is_empty());
        // A never-fed stream finishes empty too.
        assert!(set.stream().finish().is_empty());
        let sharded = engine(&["ab$", "xy"], ShardPolicy::Fixed(2));
        assert!(sharded.stream().finish().is_empty());
    }

    #[test]
    fn hardware_simulator_attributes_reports() {
        let set = single(&["^ab{2}c", "xyz"]);
        let mut hw = set.hardware(0);
        let ends = hw.match_ends(b"abbc..xyz");
        assert_eq!(ends, vec![4, 9]);
    }

    #[test]
    fn empty_set_is_well_formed() {
        let set = single(&[]);
        assert!(set.is_empty());
        assert!(set.scan(b"anything").is_empty());
        assert!(set.network(0).validate().is_empty());
        // The empty set compiles to one empty shard under any policy.
        assert_eq!(set.shard_count(), 1);
        let sharded = engine(&[], ShardPolicy::default());
        assert_eq!(sharded.shard_count(), 1);
        assert!(sharded.scan(b"anything").is_empty());
        assert_eq!(sharded.stream().feed(b"xy").count(), 0);
    }

    #[test]
    fn sharded_reports_are_byte_identical_to_unsharded() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}", "k\\d{2}"];
        let haystack = b"abbc.aaa.cab.xyz.k42.abbbc";
        let expected = oracle(&patterns, haystack);
        for policy in [
            ShardPolicy::Single,
            ShardPolicy::Fixed(2),
            ShardPolicy::Fixed(3),
            ShardPolicy::Fixed(5),
            ShardPolicy::Banked(ShardBudget {
                columns: 4,
                counters: 8,
                bitvector_bits: 2000,
            }),
        ] {
            let sharded = engine(&patterns, policy);
            // No sort: the order must match too.
            assert_eq!(sharded.scan(haystack), expected, "policy {policy:?}");
        }
    }

    #[test]
    fn sharded_networks_carry_global_report_ids() {
        let patterns = ["^a{30}", "[xy]{5}z", "k\\d{2}"];
        let set = engine(&patterns, ShardPolicy::Fixed(2));
        assert_eq!(set.shard_count(), 2);
        let mut all_ids = Vec::new();
        for si in 0..set.shard_count() {
            assert!(set.network(si).validate().is_empty());
            all_ids.extend(set.network(si).report_ids());
        }
        all_ids.sort();
        assert_eq!(all_ids, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_stream_agrees_with_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let set = engine(&patterns, ShardPolicy::Fixed(3));
        let input = b"zabbbc_xxx_qrst_abbc_xxxx";
        let oneshot = oracle(&patterns, input);
        assert_eq!(set.scan(input), oneshot);
        for chunk_len in [1usize, 2, 7, input.len()] {
            let mut stream = set.stream();
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                got.extend(stream.feed(chunk));
            }
            assert_eq!(got, oneshot, "chunk length {chunk_len}");
            assert_eq!(stream.position(), input.len() as u64);
        }
    }

    #[test]
    fn find_spans_locates_starts_per_pattern() {
        let patterns = ["ab{2,3}c", "xyz"];
        let set = single(&patterns);
        let spans = set.scan_spans(b"zzabbc..xyz..abbbc");
        assert_eq!(
            spans,
            vec![
                SetSpan {
                    pattern: 0,
                    start: 2,
                    end: 6
                },
                SetSpan {
                    pattern: 1,
                    start: 8,
                    end: 11
                },
                SetSpan {
                    pattern: 0,
                    start: 13,
                    end: 18
                },
            ]
        );
        // Agreement with the per-pattern API.
        for (pi, p) in patterns.iter().enumerate() {
            let pattern = Pattern::compile(p).unwrap();
            let expected: Vec<MatchSpan> = pattern.find_spans(b"zzabbc..xyz..abbbc");
            let got: Vec<MatchSpan> = spans
                .iter()
                .filter(|s| s.pattern == pi)
                .map(|s| s.span())
                .collect();
            assert_eq!(got, expected, "pattern {p}");
        }
    }

    #[test]
    fn streams_are_send_and_debug() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedSetStream<'static>>();
        assert_send::<SetMatch>();
        assert_send::<SetSpan>();
        assert_send::<ShardedPatternSet>();

        // Engines really do move onto worker threads.
        let set = single(&["kk"]);
        let mut stream = set.stream();
        let hits = std::thread::scope(|scope| {
            scope
                .spawn(move || stream.feed(b"..kk").count())
                .join()
                .unwrap()
        });
        assert_eq!(hits, 1);
        assert!(format!("{:?}", set.stream()).contains("position = 0"));
        assert!(format!("{:?}", set.stream()).contains("1 shards"));
    }
}
