//! [`ShardedPatternSet`]: whole rulesets compiled into shared machine
//! images and software engines.
//!
//! The paper's evaluation operates on rulesets (Snort, Suricata,
//! Protomata, SpamAssassin, ClamAV — Table 1), and deployments of this
//! class of matcher always compile the full set into shared automata
//! scanned once per input stream. The set is banked: a
//! [`ShardPlan`](recama_hw::ShardPlan) partitions the rules into shards
//! whose sub-networks each fit one CAMA bank
//! ([`ShardPolicy`](recama_hw::ShardPolicy), default = one bank's
//! capacity), one [`MultiNca`](recama_nca::MultiNca) per shard shares a
//! single byte-class alphabet computed once over the whole set, and
//! [`ShardedPatternSet::find_ends`] scans the shards in parallel with
//! scoped threads, recombining reports with an ordered merge that keeps
//! the output **byte-identical** to the unsharded scan.
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
use recama_nca::{
    CompilePlan, MultiReport, Nca, ScanMode, ShardStream, ShardedMulti, StateId, TokenSetEngine,
};
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
/// Mirrors [`Pattern`](crate::Pattern)'s API at set granularity —
/// [`find_ends`] / [`find_spans`] / [`stream`] / [`hardware`] — and for
/// any shard plan [`find_ends`] returns the same reports in the same
/// order as the single-shard plan.
///
/// [`find_ends`]: ShardedPatternSet::find_ends
/// [`find_spans`]: ShardedPatternSet::find_spans
/// [`stream`]: ShardedPatternSet::stream
/// [`hardware`]: ShardedPatternSet::hardware
///
/// Build one with [`Engine::builder`](crate::Engine::builder) (every
/// compile knob lives there) and reach it through
/// [`Engine::set`](crate::Engine::set).
///
/// # Examples
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
/// let set = engine.set();
/// assert_eq!(set.shard_count(), 2);
/// // Reports are identical to the unsharded set, in the same order.
/// let matches = set.find_ends(b"zabbc..xyz..k1234");
/// let hits: Vec<(usize, usize)> = matches.iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(0, 5), (1, 10), (2, 17)]);
/// // Each shard is its own machine image with global report ids.
/// assert_eq!(set.network(0).report_ids(), vec![0, 1]);
/// assert_eq!(set.network(1).report_ids(), vec![2]);
/// ```
#[derive(Debug)]
pub struct ShardedPatternSet {
    sources: Vec<String>,
    parsed: Vec<Parsed>,
    outputs: Vec<CompileOutput>,
    anchored_end: Vec<bool>,
    plan: ShardPlan,
    /// One merged machine image per shard (reporting nodes carry global
    /// pattern ids).
    networks: Vec<MnrlNetwork>,
    multi: ShardedMulti,
    /// How scans and streams walk input bytes (exact NCA vs. hybrid
    /// lazy-DFA overlay).
    scan_mode: ScanMode,
    /// The literal prefilter (`None` under [`PrefilterMode::Off`]):
    /// per-shard Aho-Corasick filters over the shared alphabet that
    /// scans, streams, and the serving layers consult before running
    /// the automata.
    prefilter: Option<SetPrefilter>,
    /// Reversed automata for span location, built per pattern on first
    /// use (repeated `find_spans` calls must not re-run Glushkov).
    reversed: Vec<OnceLock<Nca>>,
}

impl ShardedPatternSet {
    pub(crate) fn build(
        accepted: Vec<(String, Parsed)>,
        options: &CompileOptions,
        policy: ShardPolicy,
        scan_mode: ScanMode,
        prefilter_mode: PrefilterMode,
    ) -> ShardedPatternSet {
        let mut sources = Vec::with_capacity(accepted.len());
        let mut parsed_list = Vec::with_capacity(accepted.len());
        let mut outputs = Vec::with_capacity(accepted.len());
        let mut anchored_end = Vec::with_capacity(accepted.len());
        for (source, parsed) in accepted {
            let out = compile(&parsed.for_stream(), options);
            sources.push(source);
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

    /// Number of compiled patterns.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source text of pattern `i`.
    pub fn pattern(&self, i: usize) -> &str {
        &self.sources[i]
    }

    /// Per-pattern compiler outputs (module decisions, analyses, NCAs),
    /// indexed like the patterns.
    pub fn outputs(&self) -> &[CompileOutput] {
        &self.outputs
    }

    /// Number of shards (≥ 1; the empty set compiles to one empty shard).
    pub fn shard_count(&self) -> usize {
        self.networks.len()
    }

    /// The shard plan (which pattern lives in which shard).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Global pattern indices of shard `shard`, ascending.
    pub fn shard_members(&self, shard: usize) -> &[usize] {
        self.plan.members(shard)
    }

    /// The merged extended-MNRL network of shard `shard`. Reporting nodes
    /// of pattern `i` carry `report_id = i` (global numbering).
    pub fn network(&self, shard: usize) -> &MnrlNetwork {
        &self.networks[shard]
    }

    /// All per-shard machine images.
    pub fn networks(&self) -> &[MnrlNetwork] {
        &self.networks
    }

    /// The sharded automata (one merged `MultiNca` per shard, shared
    /// byte-class alphabet).
    pub fn multi(&self) -> &ShardedMulti {
        &self.multi
    }

    /// How this set's scans and streams walk input bytes (set at build
    /// time via [`EngineBuilder::scan_mode`](crate::EngineBuilder)).
    pub fn scan_mode(&self) -> ScanMode {
        self.scan_mode
    }

    /// Whether this set consults the literal prefilter (set at build
    /// time via [`EngineBuilder::prefilter`](crate::EngineBuilder)).
    pub fn prefilter_mode(&self) -> PrefilterMode {
        if self.prefilter.is_some() {
            PrefilterMode::On
        } else {
            PrefilterMode::Off
        }
    }

    /// Number of rules with no usable required literal (their shards
    /// scan every byte). 0 under [`PrefilterMode::Off`].
    pub fn always_on_rules(&self) -> usize {
        self.prefilter
            .as_ref()
            .map_or(0, SetPrefilter::always_on_rules)
    }

    /// The compiled literal prefilter, if the set was built with one.
    pub(crate) fn prefilter(&self) -> Option<&SetPrefilter> {
        self.prefilter.as_ref()
    }

    /// One [`ShardStream`] per shard in this set's [`ScanMode`] — the
    /// unit the flow service checks out.
    pub(crate) fn shard_streams(&self) -> Vec<ShardStream<'_>> {
        self.multi.shard_streams_with(self.scan_mode)
    }

    /// One detached [`ShardStreamState`] per shard — the owned form a
    /// `'static` flow table parks between scans (see
    /// [`ServiceHandle`](crate::ServiceHandle)).
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

    /// All matches in `haystack`, in stream order (ascending end offset,
    /// ascending pattern within one offset) — byte-identical across
    /// shard plans. Large haystacks are scanned one scoped thread per shard;
    /// small ones sequentially (thread spawn would cost more than the
    /// scan).
    ///
    /// Semantics per pattern match
    /// [`Pattern::find_ends`](crate::Pattern::find_ends): search form
    /// `Σ*·r` unless `^`-anchored, one report per (pattern, end), and a
    /// trailing `$` keeps only that pattern's matches ending at the end
    /// of the haystack.
    pub fn find_ends(&self, haystack: &[u8]) -> Vec<SetMatch> {
        let n = self.multi.shard_count();
        if n <= 1 {
            return self.scan_shard(0, haystack);
        }
        let per_shard: Vec<Vec<SetMatch>> = if haystack.len() >= PARALLEL_MIN_BYTES {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|si| scope.spawn(move || self.scan_shard(si, haystack)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            })
        } else {
            (0..n).map(|si| self.scan_shard(si, haystack)).collect()
        };
        let mut out = Vec::with_capacity(per_shard.iter().map(|v| v.len()).sum());
        merge_ordered_by(&per_shard, |_, m| m, &mut out);
        out
    }

    /// Scans one shard sequentially, translating local pattern indices to
    /// global ones and applying the `$`-anchor filter. The per-shard
    /// engine emits reports sorted by `(end, local pattern)`; ascending
    /// members make that `(end, global pattern)` order.
    fn scan_shard(&self, shard: usize, haystack: &[u8]) -> Vec<SetMatch> {
        // Block-mode prefilter gate: a match is contained in the
        // haystack, so a haystack without any required literal cannot
        // contain one.
        if let Some(filter) = self.prefilter.as_ref().and_then(|p| p.shard(shard)) {
            let alphabet = self.prefilter.as_ref().expect("checked above").alphabet();
            if !filter.contains(alphabet, haystack) {
                return Vec::new();
            }
        }
        let reports = match self.scan_mode {
            ScanMode::Nca => self.multi.shard(shard).engine().match_reports(haystack),
            ScanMode::Hybrid { state_budget } => self
                .multi
                .shard(shard)
                .hybrid_engine(state_budget)
                .match_reports(haystack),
        };
        reports
            .into_iter()
            .map(|r| SetMatch {
                pattern: self.multi.global_pattern(shard, r.pattern) as usize,
                end: r.end as usize,
            })
            .filter(|m| !self.anchored_end[m.pattern] || m.end == haystack.len())
            .collect()
    }

    /// Whether any pattern matches in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        !self.find_ends(haystack).is_empty()
    }

    /// Locates full match spans per pattern: for every reported match
    /// end, the matching pattern's *reversed* automaton runs backward
    /// from the end to the earliest start (leftmost-longest flavor), as
    /// in [`Pattern::find_spans`](crate::Pattern::find_spans). Reversed
    /// automata are built lazily per pattern and cached for the set's
    /// lifetime.
    ///
    /// # Examples
    ///
    /// ```
    /// use recama::{Engine, SetSpan};
    ///
    /// let engine = Engine::new(["ab{2,3}c", "xyz"]).unwrap();
    /// let spans = engine.set().find_spans(b"zzabbc.xyz");
    /// assert_eq!(
    ///     spans,
    ///     vec![
    ///         SetSpan { pattern: 0, start: 2, end: 6 },
    ///         SetSpan { pattern: 1, start: 7, end: 10 },
    ///     ]
    /// );
    /// ```
    pub fn find_spans(&self, haystack: &[u8]) -> Vec<SetSpan> {
        let matches = self.find_ends(haystack);
        if matches.is_empty() {
            return Vec::new();
        }
        // One backward engine per distinct pattern, reused across ends.
        let mut engines: HashMap<usize, TokenSetEngine<'_>> = HashMap::new();
        matches
            .into_iter()
            .map(|m| {
                let engine = engines
                    .entry(m.pattern)
                    .or_insert_with(|| TokenSetEngine::new(self.reversed_nca(m.pattern)));
                SetSpan {
                    pattern: m.pattern,
                    start: crate::earliest_start(engine, haystack, m.end),
                    end: m.end,
                }
            })
            .collect()
    }

    /// The reversed automaton of pattern `i`, built on first use.
    fn reversed_nca(&self, i: usize) -> &Nca {
        self.reversed[i].get_or_init(|| Nca::from_regex(&self.parsed[i].regex.reverse()))
    }

    /// A resumable streaming matcher holding one engine state per shard:
    /// feed traffic in chunks and drain reports incrementally, without
    /// re-scanning previous chunks. Large chunks are fanned out to the
    /// shard engines on scoped threads.
    ///
    /// Note that a stream has no "end" until [`finish`] declares one, so
    /// trailing-`$` anchors are not applied during [`feed`]: `$`-anchored
    /// patterns report every candidate end offset. Call [`finish`] at
    /// end-of-stream to learn which `$`-anchored matches actually end on
    /// the final byte.
    ///
    /// [`feed`]: ShardedSetStream::feed
    /// [`finish`]: ShardedSetStream::finish
    ///
    /// # Examples
    ///
    /// ```
    /// use recama::Engine;
    ///
    /// let engine = Engine::new(["ab{2}c"]).unwrap();
    /// let mut stream = engine.set().stream();
    /// // The match straddles the chunk boundary.
    /// assert!(stream.feed(b"..ab").next().is_none());
    /// let hits: Vec<_> = stream.feed(b"bc..").collect();
    /// assert_eq!(hits.len(), 1);
    /// assert_eq!((hits[0].pattern, hits[0].end), (0, 6));
    /// ```
    pub fn stream(&self) -> ShardedSetStream<'_> {
        ShardedSetStream {
            shards: self.shard_streams(),
            bufs: vec![Vec::new(); self.multi.shard_count()],
            merged: Vec::new(),
            dollar: DollarTracker::new(&self.anchored_end),
            prefilter: self.prefilter.as_ref(),
            pre: vec![PrefilterState::default(); self.multi.shard_count()],
            tail: Vec::new(),
        }
    }

    /// Whether pattern `i` carries a trailing-`$` anchor (one-shot scans
    /// keep only its matches ending at the end of the haystack).
    pub(crate) fn anchored_end(&self) -> &[bool] {
        &self.anchored_end
    }

    /// A hardware simulator for shard `shard`'s machine image; its report
    /// vector attributes events to patterns via the stamped (global)
    /// report ids.
    pub fn hardware(&self, shard: usize) -> recama_hw::HwSimulator<'_> {
        recama_hw::HwSimulator::new(&self.networks[shard])
    }
}

/// Merges per-shard report lists into one list sorted by `(end,
/// pattern)` — the order the unsharded engine emits. `translate` maps a
/// shard-local entry to its global report; translated lists must arrive
/// already sorted by `(end, pattern)` (guaranteed by
/// [`MultiEngine`](recama_nca::MultiEngine)'s within-step ordering
/// contract plus ascending shard members).
fn merge_ordered_by<T: Copy>(
    per_shard: &[Vec<T>],
    translate: impl Fn(usize, T) -> SetMatch,
    out: &mut Vec<SetMatch>,
) {
    debug_assert!(
        per_shard.iter().enumerate().all(|(si, reports)| {
            reports.windows(2).all(|w| {
                let (a, b) = (translate(si, w[0]), translate(si, w[1]));
                (a.end, a.pattern) < (b.end, b.pattern)
            })
        }),
        "per-shard reports must arrive sorted by (end, pattern) — \
         see MultiEngine::step_into's ordering contract"
    );
    let total: usize = per_shard.iter().map(|v| v.len()).sum();
    let mut cursors = vec![0usize; per_shard.len()];
    for _ in 0..total {
        let mut best: Option<(usize, SetMatch)> = None;
        for (si, reports) in per_shard.iter().enumerate() {
            if let Some(&r) = reports.get(cursors[si]) {
                let m = translate(si, r);
                if best.is_none_or(|(_, b)| (m.end, m.pattern) < (b.end, b.pattern)) {
                    best = Some((si, m));
                }
            }
        }
        let (si, m) = best.expect("total counted a remaining report");
        out.push(m);
        cursors[si] += 1;
    }
}

/// Tracks the last candidate end per trailing-`$` pattern. Streams (and
/// the flow service) report every candidate end of a `$`-anchored
/// pattern because mid-stream the end is unknown; this records the most
/// recent one so declaring end-of-stream can resolve which candidates
/// actually land on the final byte. State lives across feeds —
/// including zero-byte ones — so a candidate two chunks old still
/// finishes correctly when the stream ends on an empty chunk.
#[derive(Debug)]
pub(crate) struct DollarTracker<'a> {
    /// Trailing-`$` flags per (global) pattern.
    anchored_end: &'a [bool],
    last: HashMap<usize, u64>,
}

impl<'a> DollarTracker<'a> {
    pub(crate) fn new(anchored_end: &'a [bool]) -> DollarTracker<'a> {
        DollarTracker {
            anchored_end,
            last: HashMap::new(),
        }
    }

    /// Records a reported candidate `(pattern, end)`; non-`$` patterns
    /// are ignored.
    pub(crate) fn observe(&mut self, pattern: usize, end: u64) {
        if self.anchored_end[pattern] {
            self.last.insert(pattern, end);
        }
    }

    /// The finishing set for a stream ending at `position`: `$`-anchored
    /// matches whose last candidate ends exactly there, sorted by
    /// pattern — what a one-shot `find_ends` would have kept of them.
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
/// [`ShardedPatternSet::stream`] or [`Engine::stream`](crate::Engine::stream).
/// The stream is `Send`, so per-flow states can move onto worker
/// threads — and its per-shard states are individually detachable
/// ([`ShardedMulti::shard_stream_with`]), which is what
/// [`ServiceHandle`](crate::ServiceHandle) builds on to let two workers
/// advance different shards of the same flow.
pub struct ShardedSetStream<'a> {
    shards: Vec<ShardStream<'a>>,
    bufs: Vec<Vec<MultiReport>>,
    merged: Vec<SetMatch>,
    dollar: DollarTracker<'a>,
    /// The set's literal prefilter (`None` under
    /// [`PrefilterMode`](crate::PrefilterMode)`::Off`): cold shards
    /// skip the engines entirely until a literal candidate appears.
    prefilter: Option<&'a SetPrefilter>,
    /// Per-shard streaming filter state (AC node + sticky hot flag).
    pre: Vec<PrefilterState>,
    /// Last `window` bytes fed, for cold→hot wake-up replay.
    tail: Vec<u8>,
}

/// Inputs at least this large are fanned out to shard engines on scoped
/// threads; smaller ones are processed sequentially (thread spawn would
/// cost more than the scan).
const PARALLEL_MIN_BYTES: usize = 4096;

impl ShardedSetStream<'_> {
    /// Consumes `chunk` and returns the matches it completed, in stream
    /// order. End offsets are 1-based and *absolute* (counted from the
    /// start of the stream, across all chunks fed so far).
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = SetMatch> + '_ {
        let chunk_start = self.position();
        // Consult the prefilter per shard before any engine runs. Cold
        // shards skip the scan (their engines stay fresh and teleport
        // via restart_at); a first candidate wakes the shard with a
        // bounded tail replay. Empty chunks scan (a no-op) so the
        // filter state never advances past bytes that were never fed.
        let actions: Vec<ChunkAction> = match self.prefilter {
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
        if let Some(pf) = self.prefilter {
            pf.extend_tail(&mut self.tail, chunk);
        }
        self.merged.clear();
        merge_ordered_by(
            &self.bufs,
            |_, r: MultiReport| SetMatch {
                pattern: r.pattern as usize,
                end: r.end as usize,
            },
            &mut self.merged,
        );
        for m in &self.merged {
            self.dollar.observe(m.pattern, m.end as u64);
        }
        self.merged.iter().copied()
    }

    /// Declares end-of-stream and returns, sorted by pattern, the
    /// `$`-anchored matches that end **exactly at the final byte** — the
    /// ones a one-shot [`ShardedPatternSet::find_ends`] over the whole
    /// stream would keep. (`feed` reports every candidate end of a
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
        for st in &mut self.pre {
            st.reset();
        }
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

    #[test]
    fn mirrors_per_pattern_find_ends() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let set = single(&patterns);
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        let mut expected: Vec<SetMatch> = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            for end in Pattern::compile(p).unwrap().find_ends(haystack) {
                expected.push(SetMatch { pattern: pi, end });
            }
        }
        expected.sort();
        let mut got = set.scan(haystack);
        got.sort();
        assert_eq!(got, expected);
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
        let expected = single.scan(input); // the $-filtered one-shot scan

        // Unsharded stream: non-$ feed reports + finish == scan.
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
        got.sort();
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
        got.sort();
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
        let single = single(&patterns);
        let haystack = b"abbc.aaa.cab.xyz.k42.abbbc";
        let expected = single.scan(haystack);
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
        let oneshot = set.scan(input);
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
