//! Hybrid lazy-DFA overlay over the batched multi-pattern engine.
//!
//! The exact [`MultiEngine`] walks outgoing edges over an activity bitset
//! — faithful to the paper's hardware step, but tens of instructions per
//! input byte in software. A classical DFA costs **one table row per
//! byte**, yet determinizing a counting automaton can blow up
//! exponentially ([`crate::full_dfa_size`]). This module splits the
//! difference:
//!
//! * **pure frontiers are determinized lazily** — whenever the live
//!   configuration holds only counter-free states, it is interned as a
//!   DFA state with a dense `byte_class → next_state` row filled on
//!   demand, so the benign-traffic hot path is a single indexed load;
//! * **counter activity is the escape hatch** — a transition that would
//!   wake a counter-carrying state is marked [`FALLBACK`]; the overlay
//!   rehydrates the exact engine with the current frontier, steps it
//!   byte-by-byte, and re-enters the DFA cache as soon as counting
//!   *quiesces* (no counted state live — an O(words) mask test per
//!   step);
//! * **the cache is bounded** — at most `state_budget` determinized
//!   states exist at once; on overflow the cache is flushed and rebuilt
//!   from the traffic that is actually hot, so adversarial state blowup
//!   degrades throughput instead of memory.
//!
//! Determinizing pure frontiers is *sound* because every transition
//! guard and acceptance condition resolves against **source-state
//! counters only** ([`crate::nca`] invariant): edges leaving pure states
//! are unguarded and pure accepting states accept unconditionally, so
//! the successor of a pure frontier — and its report set — depends on
//! nothing but the frontier itself.

use crate::multi::{MultiEngine, MultiEngineState, MultiNca, MultiReport};
use crate::nca::StateId;
use std::collections::HashMap;

/// Default bound on cached determinized states per hybrid engine.
pub const DEFAULT_STATE_BUDGET: usize = 4096;

/// How a pattern-set engine walks input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Exact batched NCA stepping: per-byte edge walks over the activity
    /// frontier — the software twin of the paper's hardware step.
    Nca,
    /// Lazy-DFA overlay over the exact engine (see [`HybridEngine`]):
    /// one dense table row per byte on pure frontiers, exact stepping
    /// while counters are active.
    Hybrid {
        /// Maximum number of cached determinized states per engine;
        /// the cache flushes and rebuilds when exceeded. Tiny budgets
        /// stay correct but thrash.
        state_budget: usize,
    },
}

impl Default for ScanMode {
    /// [`ScanMode::Hybrid`] with [`DEFAULT_STATE_BUDGET`].
    fn default() -> Self {
        ScanMode::Hybrid {
            state_budget: DEFAULT_STATE_BUDGET,
        }
    }
}

/// Row entry: transition not yet computed.
pub(crate) const UNKNOWN: u32 = u32::MAX;
/// Row entry: the successor wakes a counter-carrying state — the byte
/// must be stepped by the exact engine.
pub(crate) const FALLBACK: u32 = u32::MAX - 1;

/// Shared dense-row subset interner: maps sorted NCA state sets to dense
/// DFA ids and stores one flat `byte_class → next` row per id. Used by
/// both [`HybridEngine`] and [`crate::DfaEngine`].
#[derive(Debug)]
pub(crate) struct SubsetCache {
    stride: usize,
    ids: HashMap<Box<[u32]>, u32>,
    subsets: Vec<Box<[u32]>>,
    /// `rows[id * stride + class]`; [`UNKNOWN`] / [`FALLBACK`] sentinels.
    rows: Vec<u32>,
}

impl SubsetCache {
    pub(crate) fn new(stride: usize) -> SubsetCache {
        SubsetCache {
            stride,
            ids: HashMap::new(),
            subsets: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of interned subsets (= discovered DFA states).
    pub(crate) fn len(&self) -> usize {
        self.subsets.len()
    }

    /// The sorted NCA state set behind DFA state `id`.
    pub(crate) fn subset(&self, id: u32) -> &[u32] {
        &self.subsets[id as usize]
    }

    /// The cached transition of `(id, class)` ([`UNKNOWN`] if unfilled).
    #[inline]
    pub(crate) fn get(&self, id: u32, class: usize) -> u32 {
        self.rows[id as usize * self.stride + class]
    }

    /// Fills the transition of `(id, class)`.
    pub(crate) fn set(&mut self, id: u32, class: usize, next: u32) {
        self.rows[id as usize * self.stride + class] = next;
    }

    /// Interns `subset` (must be sorted, deduplicated); returns its id
    /// and whether it is new.
    pub(crate) fn intern(&mut self, subset: &[u32]) -> (u32, bool) {
        if let Some(&id) = self.ids.get(subset) {
            return (id, false);
        }
        let id = self.subsets.len() as u32;
        let boxed: Box<[u32]> = subset.into();
        self.ids.insert(boxed.clone(), id);
        self.subsets.push(boxed);
        let filled = self.rows.len() + self.stride;
        self.rows.resize(filled, UNKNOWN);
        (id, true)
    }

    /// Drops every interned subset and row (the overflow flush).
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.subsets.clear();
        self.rows.clear();
    }
}

/// Cumulative counters of one [`HybridEngine`] (or an aggregate over
/// several — see [`HybridStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Bytes consumed on the determinized fast path.
    pub dfa_bytes: u64,
    /// Bytes stepped by the exact engine (counter fallback).
    pub fallback_bytes: u64,
    /// Determinized states currently cached (discovered since the last
    /// flush).
    pub dfa_states: usize,
    /// Cache flushes forced by the state budget.
    pub flushes: u64,
}

impl HybridStats {
    /// Fraction of bytes served by the DFA fast path (1.0 on an empty
    /// stream).
    pub fn dfa_hit_rate(&self) -> f64 {
        let total = self.dfa_bytes + self.fallback_bytes;
        if total == 0 {
            1.0
        } else {
            self.dfa_bytes as f64 / total as f64
        }
    }

    /// Accumulates another engine's counters (summing states).
    pub fn merge(&mut self, other: &HybridStats) {
        self.dfa_bytes += other.dfa_bytes;
        self.fallback_bytes += other.fallback_bytes;
        self.dfa_states += other.dfa_states;
        self.flushes += other.flushes;
    }
}

/// The hybrid lazy-DFA engine. See the module docs.
///
/// Report-for-report identical to [`MultiEngine`] on the same merged
/// automaton — same `(pattern, end)` pairs in the same order, across any
/// chunking — which the differential suites pin.
///
/// # Examples
///
/// ```
/// use recama_nca::{CompilePlan, MultiNca, Nca};
/// let a = Nca::from_regex(&recama_syntax::parse("ab").unwrap().for_stream());
/// let parts = [(&a, CompilePlan::conservative(&a))];
/// let multi = MultiNca::merge(&parts);
/// let reports = multi.hybrid_engine(64).match_reports(b"xabab");
/// assert_eq!(reports.len(), 2);
/// assert!(multi.hybrid_engine(64).stats().dfa_hit_rate() >= 0.0);
/// ```
pub struct HybridEngine<'a> {
    multi: &'a MultiNca,
    /// The exact engine, rehydrated on fallback; owns the stream
    /// position while falling back.
    exact: MultiEngine<'a>,
    cache: SubsetCache,
    /// Patterns accepted in each DFA state (ascending, deduplicated) —
    /// parallel to the cache's subsets.
    accepts: Vec<Box<[u32]>>,
    /// Flat byte → class table (u16 so an 8-byte lane of lookups
    /// vectorizes without widening).
    class_map: Box<[u16; 256]>,
    state_budget: usize,
    /// Current DFA state (valid only in DFA mode).
    cur: u32,
    /// DFA mode vs. exact-fallback mode.
    in_dfa: bool,
    /// Stream position in DFA mode (the exact engine's while falling
    /// back).
    position: u64,
    stats: HybridStats,
    frontier_scratch: Vec<u32>,
    succ_scratch: Vec<u32>,
}

/// The owned mutable half of a [`HybridEngine`]: the exact engine's
/// detached state plus the overlay's interned DFA cache, accept sets,
/// byte-class table, mode flags, and counters — everything but the
/// `&MultiNca` borrow. Detaching preserves the warm cache, so a flow
/// parked between chunks resumes on hot rows.
pub(crate) struct HybridEngineState {
    exact: MultiEngineState,
    cache: SubsetCache,
    accepts: Vec<Box<[u32]>>,
    class_map: Box<[u16; 256]>,
    state_budget: usize,
    cur: u32,
    in_dfa: bool,
    position: u64,
    stats: HybridStats,
    frontier_scratch: Vec<u32>,
    succ_scratch: Vec<u32>,
}

impl HybridEngineState {
    /// Bytes consumed when the state was detached.
    pub(crate) fn position(&self) -> u64 {
        if self.in_dfa {
            self.position
        } else {
            self.exact.position
        }
    }

    /// Cumulative overlay counters as of the detach.
    pub(crate) fn stats(&self) -> HybridStats {
        HybridStats {
            dfa_states: self.cache.len(),
            ..self.stats
        }
    }
}

impl<'a> HybridEngine<'a> {
    /// Builds an overlay engine over `multi` caching at most
    /// `state_budget` determinized states.
    pub fn new(multi: &'a MultiNca, state_budget: usize) -> HybridEngine<'a> {
        let alphabet = multi.alphabet();
        let mut class_map = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            class_map[b as usize] = alphabet.class_of(b) as u16;
        }
        let mut e = HybridEngine {
            multi,
            exact: multi.engine(),
            cache: SubsetCache::new(alphabet.len()),
            accepts: Vec::new(),
            class_map,
            state_budget: state_budget.max(1),
            cur: 0,
            in_dfa: true,
            position: 0,
            stats: HybridStats::default(),
            frontier_scratch: Vec::new(),
            succ_scratch: Vec::new(),
        };
        e.reset();
        e
    }

    /// Detaches the overlay's mutable state (including the warm DFA
    /// cache) from the automaton borrow. The inverse of
    /// [`HybridEngine::resume`].
    pub(crate) fn into_state(self) -> HybridEngineState {
        HybridEngineState {
            exact: self.exact.into_state(),
            cache: self.cache,
            accepts: self.accepts,
            class_map: self.class_map,
            state_budget: self.state_budget,
            cur: self.cur,
            in_dfa: self.in_dfa,
            position: self.position,
            stats: self.stats,
            frontier_scratch: self.frontier_scratch,
            succ_scratch: self.succ_scratch,
        }
    }

    /// Reattaches a state detached by [`HybridEngine::into_state`] to
    /// `multi`, resuming mid-stream with the cache intact.
    ///
    /// # Panics
    ///
    /// Panics under the [`MultiEngine::resume`] shape checks if `multi`
    /// does not match the automaton the state was detached from.
    pub(crate) fn resume(multi: &'a MultiNca, state: HybridEngineState) -> HybridEngine<'a> {
        HybridEngine {
            multi,
            exact: MultiEngine::resume(multi, state.exact),
            cache: state.cache,
            accepts: state.accepts,
            class_map: state.class_map,
            state_budget: state.state_budget,
            cur: state.cur,
            in_dfa: state.in_dfa,
            position: state.position,
            stats: state.stats,
            frontier_scratch: state.frontier_scratch,
            succ_scratch: state.succ_scratch,
        }
    }

    /// Returns to the initial configuration (stream position 0). The
    /// state cache and cumulative [`HybridEngine::stats`] persist across
    /// resets — a reused engine keeps its hot rows.
    pub fn reset(&mut self) {
        self.exact.reset();
        self.position = 0;
        self.in_dfa = true;
        self.cur = self.intern_subset_at(0);
    }

    /// Bytes consumed since the last reset.
    pub fn position(&self) -> u64 {
        if self.in_dfa {
            self.position
        } else {
            self.exact.position()
        }
    }

    /// Returns to the initial configuration but continues the byte count
    /// from absolute offset `position` (see
    /// [`MultiEngine::restart_at`](crate::MultiEngine::restart_at)). The
    /// cache and cumulative stats persist, exactly as with
    /// [`reset`](HybridEngine::reset); a later fallback to the exact
    /// engine inherits the teleported position via the frontier hand-off.
    pub fn restart_at(&mut self, position: u64) {
        self.reset();
        self.position = position;
    }

    /// Number of live NCA states behind the current configuration.
    pub fn active_states(&self) -> usize {
        if self.in_dfa {
            self.cache.subset(self.cur).len()
        } else {
            self.exact.active_states()
        }
    }

    /// Determinized states discovered since the last flush.
    pub fn discovered_states(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative overlay counters ([`HybridStats::dfa_states`] reflects
    /// the cache as of this call).
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            dfa_states: self.cache.len(),
            ..self.stats
        }
    }

    /// Interns the singleton subset `{q}` (used for the start state).
    fn intern_subset_at(&mut self, q: u32) -> u32 {
        let mut scratch = std::mem::take(&mut self.succ_scratch);
        scratch.clear();
        scratch.push(q);
        let id = self.intern_subset(&scratch);
        self.succ_scratch = scratch;
        id
    }

    /// Interns `subset`, flushing the cache first if the budget is
    /// exhausted. Any previously returned id is invalid after a flush;
    /// only the returned id is guaranteed current.
    fn intern_subset(&mut self, subset: &[u32]) -> u32 {
        if let Some(&id) = self.cache.ids.get(subset) {
            return id;
        }
        if self.cache.len() >= self.state_budget {
            self.cache.clear();
            self.accepts.clear();
            self.stats.flushes += 1;
        }
        let (id, is_new) = self.cache.intern(subset);
        if is_new {
            self.accepts.push(self.accept_patterns(subset));
        }
        id
    }

    /// Patterns accepted by a pure frontier, ascending and deduplicated.
    /// Pure accepting states accept unconditionally, and the merge lays
    /// patterns out in ascending contiguous state ranges (the unowned
    /// `q0` and shared search state never accept), so a sorted subset
    /// yields ascending patterns — preserving the per-step report order
    /// contract of [`MultiEngine::step_into`].
    fn accept_patterns(&self, subset: &[u32]) -> Box<[u32]> {
        let tables = self.multi.tables();
        let mut out: Vec<u32> = Vec::new();
        for &q in subset {
            if tables.accepts[q as usize].is_empty() {
                continue;
            }
            let p = self
                .multi
                .pattern_of(StateId(q))
                .expect("the unowned q0 and search state never accept");
            if out.last() != Some(&p) {
                out.push(p);
            }
        }
        out.into_boxed_slice()
    }

    /// Computes (and caches) the successor of DFA state `state` on
    /// `class`. Returns [`FALLBACK`] if the successor frontier wakes a
    /// counter-carrying state.
    fn successor(&mut self, state: u32, class: usize) -> u32 {
        let multi: &'a MultiNca = self.multi;
        let tables = multi.tables();
        let member_row = &tables.class_member[class];
        let src: Box<[u32]> = self.cache.subset(state).into();
        let mut next = std::mem::take(&mut self.succ_scratch);
        next.clear();
        let mut falls_back = false;
        for &p in src.iter() {
            for edge in &tables.out_edges[p as usize] {
                let q = edge.to as usize;
                if member_row[q / 64] & (1 << (q % 64)) == 0 {
                    continue;
                }
                debug_assert!(
                    edge.guard.is_empty(),
                    "edges out of pure states are unguarded"
                );
                if tables.counted_mask[q / 64] & (1 << (q % 64)) != 0 {
                    falls_back = true;
                    break;
                }
                next.push(q as u32);
            }
            if falls_back {
                break;
            }
        }
        if falls_back {
            self.succ_scratch = next;
            self.cache.set(state, class, FALLBACK);
            return FALLBACK;
        }
        next.sort_unstable();
        next.dedup();
        let flushes = self.stats.flushes;
        let id = self.intern_subset(&next);
        self.succ_scratch = next;
        // A flush invalidated `state`; only then is the row write wrong.
        if self.stats.flushes == flushes {
            self.cache.set(state, class, id);
        }
        id
    }

    /// Leaves DFA mode: rehydrates the exact engine with the current
    /// frontier and steps `byte` exactly.
    fn enter_fallback(&mut self, byte: u8, out: &mut Vec<MultiReport>) {
        let mut frontier = std::mem::take(&mut self.frontier_scratch);
        frontier.clear();
        frontier.extend_from_slice(self.cache.subset(self.cur));
        self.exact.load_pure_frontier(&frontier, self.position);
        self.frontier_scratch = frontier;
        self.in_dfa = false;
        self.exact.step_into(byte, out);
        self.stats.fallback_bytes += 1;
        self.maybe_reenter();
    }

    /// Returns to DFA mode if counting has quiesced (the live frontier
    /// is pure again).
    fn maybe_reenter(&mut self) {
        if self.exact.counting_active() {
            return;
        }
        let mut frontier = std::mem::take(&mut self.frontier_scratch);
        self.exact.pure_frontier_into(&mut frontier);
        self.position = self.exact.position();
        self.cur = self.intern_subset(&frontier);
        self.frontier_scratch = frontier;
        self.in_dfa = true;
    }

    /// Consumes one byte, appending `(pattern, end)` reports to `out`
    /// with the same dedup and ordering contract as
    /// [`MultiEngine::step_into`].
    pub fn step_into(&mut self, byte: u8, out: &mut Vec<MultiReport>) {
        if !self.in_dfa {
            self.exact.step_into(byte, out);
            self.stats.fallback_bytes += 1;
            self.maybe_reenter();
            return;
        }
        let class = self.class_map[byte as usize] as usize;
        let mut next = self.cache.get(self.cur, class);
        if next == UNKNOWN {
            next = self.successor(self.cur, class);
        }
        if next == FALLBACK {
            self.enter_fallback(byte, out);
            return;
        }
        self.advance_dfa(next, out);
    }

    /// One DFA-mode transition: move to `next`, report its accepts.
    #[inline]
    fn advance_dfa(&mut self, next: u32, out: &mut Vec<MultiReport>) {
        self.cur = next;
        self.position += 1;
        self.stats.dfa_bytes += 1;
        let acc = &self.accepts[next as usize];
        if !acc.is_empty() {
            for &pattern in acc.iter() {
                out.push(MultiReport {
                    pattern,
                    end: self.position,
                });
            }
        }
    }

    /// Feeds a whole chunk, appending reports to `out`. Stream position
    /// persists across calls, so chunked feeding is equivalent to one
    /// contiguous scan.
    ///
    /// While in DFA mode, bytes are classified in 8-byte lanes through
    /// the flat `u16` class table (a vectorizable gather) before the
    /// row-walk consumes the lane.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        let mut i = 0;
        'outer: while i < chunk.len() {
            if !self.in_dfa {
                self.step_into(chunk[i], out);
                i += 1;
                continue;
            }
            let lane = &chunk[i..chunk.len().min(i + 8)];
            let mut classes = [0u16; 8];
            for (slot, &b) in classes.iter_mut().zip(lane) {
                *slot = self.class_map[b as usize];
            }
            for k in 0..lane.len() {
                let next = self.cache.get(self.cur, classes[k] as usize);
                if next >= FALLBACK {
                    // Uncached or fallback: take the slow per-byte path
                    // for this byte, then restart the lane loop.
                    self.step_into(lane[k], out);
                    i += k + 1;
                    continue 'outer;
                }
                self.advance_dfa(next, out);
            }
            i += lane.len();
        }
    }

    /// One-shot scan: resets, consumes `input`, returns all reports in
    /// stream order.
    pub fn match_reports(&mut self, input: &[u8]) -> Vec<MultiReport> {
        self.reset();
        let mut out = Vec::new();
        self.feed_into(input, &mut out);
        out
    }
}

impl std::fmt::Debug for HybridEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridEngine(dfa_states = {}, in_dfa = {}, position = {})",
            self.cache.len(),
            self.in_dfa,
            self.position()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompilePlan;
    use crate::dfa::full_dfa_size;
    use crate::nca::Nca;
    use recama_syntax::parse;

    fn merged(patterns: &[&str]) -> MultiNca {
        let ncas: Vec<Nca> = patterns
            .iter()
            .map(|p| Nca::from_regex(&parse(p).unwrap().for_stream()))
            .collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::optimized(n, |_| false)))
            .collect();
        MultiNca::merge(&parts)
    }

    fn assert_hybrid_matches_exact(patterns: &[&str], input: &[u8], budget: usize) {
        let m = merged(patterns);
        let expected = m.engine().match_reports(input);
        let mut hybrid = m.hybrid_engine(budget);
        assert_eq!(
            hybrid.match_reports(input),
            expected,
            "{patterns:?} (budget {budget}) on {:?}",
            String::from_utf8_lossy(input)
        );
        // Chunked feeding agrees too, including mid-fallback boundaries.
        for chunk_len in [1usize, 3, 7] {
            let mut engine = m.hybrid_engine(budget);
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                engine.feed_into(chunk, &mut got);
            }
            assert_eq!(got, expected, "chunk length {chunk_len}");
            assert_eq!(engine.position(), input.len() as u64);
        }
    }

    #[test]
    fn pure_patterns_stay_in_dfa_mode() {
        let m = merged(&["abc", "x[yz]", "q"]);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let reports = hybrid.match_reports(b"abcxzqq abc");
        assert_eq!(reports, m.engine().match_reports(b"abcxzqq abc"));
        let stats = hybrid.stats();
        assert_eq!(stats.fallback_bytes, 0, "no counters, no fallback");
        assert_eq!(stats.dfa_bytes, 11);
        assert!((stats.dfa_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_fall_back_and_reenter() {
        let patterns = ["ka{2,3}b", "xyz"];
        let input = b"kaab..xyz..kaaab..kab.kaaaab";
        assert_hybrid_matches_exact(&patterns, input, DEFAULT_STATE_BUDGET);
        let m = merged(&patterns);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid.match_reports(input);
        let stats = hybrid.stats();
        assert!(stats.fallback_bytes > 0, "counting must trigger fallback");
        assert!(stats.dfa_bytes > 0, "benign bytes must re-enter the DFA");
    }

    #[test]
    fn mixed_rulesets_agree_with_exact_engine() {
        let sets: [&[&str]; 3] = [
            &["ab{2,3}c", "a{3}", "x[yz]{2}", "cab"],
            &[".*a{3}", "k.{2,5}z"],
            &["^a{2}b", "b{2}", "^x", "needle"],
        ];
        for patterns in sets {
            for input in [
                &b"abbc.aaa.xyz.cab.k42z"[..],
                b"aaaaaa kxxz kxxxxxz",
                b"aab bb x needle",
                b"",
                b"completely benign traffic, nothing matches",
            ] {
                assert_hybrid_matches_exact(patterns, input, DEFAULT_STATE_BUDGET);
            }
        }
    }

    #[test]
    fn tiny_budgets_thrash_but_stay_exact() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}"];
        let input = b"abbc.aaa.xyz.abbbc.xyy.aaaa";
        for budget in [1usize, 2, 3] {
            assert_hybrid_matches_exact(&patterns, input, budget);
            let m = merged(&patterns);
            let mut hybrid = m.hybrid_engine(budget);
            hybrid.match_reports(input);
            let stats = hybrid.stats();
            assert!(stats.flushes > 0, "budget {budget} must overflow");
            assert!(stats.dfa_states <= budget);
        }
    }

    #[test]
    fn cache_persists_across_resets() {
        let m = merged(&["abc", "xy"]);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid.match_reports(b"abcxyabc");
        let discovered = hybrid.discovered_states();
        assert!(discovered > 1);
        hybrid.match_reports(b"abcxyabc");
        assert_eq!(
            hybrid.discovered_states(),
            discovered,
            "second scan rides the warm cache"
        );
    }

    /// Regression (satellite of the DfaEngine rewrite): driving the
    /// hybrid cache to saturation discovers exactly the reachable DFA
    /// states [`full_dfa_size`] counts on the same merged automaton.
    #[test]
    fn saturated_cache_agrees_with_full_dfa_size() {
        let m = merged(&["abc", "x[yz]x", ".*ba"]);
        assert!(
            m.nca().counters().is_empty(),
            "saturation comparison needs a counter-free merge"
        );
        let expected = full_dfa_size(m.nca(), 1 << 12).expect("small DFA");
        let mut hybrid = m.hybrid_engine(1 << 12);
        // Fixpoint: expand every (state, class) row until no new state
        // appears.
        let mut done = 0;
        while done < hybrid.cache.len() {
            let state = done as u32;
            for class in 0..m.alphabet().len() {
                let next = hybrid.successor(state, class);
                assert_ne!(next, FALLBACK, "counter-free sets never fall back");
            }
            done += 1;
        }
        assert_eq!(hybrid.discovered_states(), expected);
    }
}
