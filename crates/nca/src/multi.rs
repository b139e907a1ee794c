//! Multi-pattern execution: many per-pattern NCAs merged into **one**
//! shared automaton, stepped by a batched engine over dense state
//! frontiers.
//!
//! This is the software twin of a whole machine image: production
//! deployments of automata accelerators compile the entire ruleset into
//! one network and stream traffic through it once, instead of running one
//! engine per rule. The merge keeps each pattern's states and counters
//! disjoint (they only share the input stream and the initial state), so
//! per-pattern semantics — including the storage plans chosen by the
//! static analysis — carry over unchanged, and every accepting state
//! remembers which pattern it reports for.
//!
//! Two batching effects make [`MultiEngine`] faster than a loop over
//! single-pattern engines:
//!
//! * **shared byte-class alphabet** — the union of all patterns'
//!   predicates partitions Σ into equivalence classes
//!   ([`recama_syntax::ByteClassSet`]); each input byte is classified
//!   once, and destination-class tests become one bit probe instead of a
//!   256-bit membership test per state;
//! * **dense activity frontiers** — one bitset marks the live states of
//!   the whole set, so per-byte work scales with the number of *active*
//!   states (typically a few per pattern on benign traffic), not with the
//!   total automaton size the way `N × CompiledEngine` does.

use crate::compiled::{counting_set_eligible, CompilePlan, Storage, StorageMode};
use crate::hybrid::{HybridEngine, HybridEngineState, HybridStats, ScanMode};
use crate::nca::{ActionOp, GuardAtom, Nca, State, StateId, Transition};
use crate::token::{resolve_guard, resolve_transition, SlotSrc, SlotTest};
use recama_syntax::{ByteAlphabet, ByteClass, ByteClassSet};
use std::collections::HashSet;

/// A report of the multi-pattern engine: pattern `pattern` matched with
/// its last byte at 1-based offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MultiReport {
    /// Index of the pattern in the merged set.
    pub pattern: u32,
    /// 1-based end offset (stream position after the matching byte).
    pub end: u64,
}

/// Id of the shared `Σ*` search state in a [`MultiNca`] that has one.
const SEARCH_STATE: StateId = StateId(1);

/// Several per-pattern NCAs merged into one shared automaton.
///
/// State 0 is the single merged `q0`. If any part has a `Σ*` search loop
/// (the unanchored search form `Σ*·r`), state 1 is the **shared search
/// state**: every such part's loop collapses into it, so the live frontier
/// holds one search state instead of one per rule. The remaining states
/// and counters of pattern `i` occupy contiguous id ranges in ascending
/// pattern order, recorded so reports can be attributed; `q0` and the
/// shared search state are the only unowned states, and neither accepts.
/// Like the hardware (which cannot report "before the first symbol"),
/// the multi-pattern machinery only reports matches ending at offset ≥ 1.
#[derive(Debug)]
pub struct MultiNca {
    nca: Nca,
    plan: CompilePlan,
    alphabet: ByteAlphabet,
    /// Pattern owning each state; `u32::MAX` for the merged `q0` and the
    /// shared search state.
    pattern_of_state: Vec<u32>,
    pattern_count: usize,
    /// Immutable engine tables, built once here so every
    /// [`MultiNca::engine`] call only allocates mutable state.
    tables: EngineTables,
}

impl MultiNca {
    /// Merges per-pattern automata (with their storage plans) into one,
    /// computing the shared byte-class alphabet from the union of the
    /// parts' predicates.
    ///
    /// Per-pattern storage modes — including
    /// [`StorageMode::CountingSet`] queues — carry over unchanged: apart
    /// from the shared search state, the merge maps states and transitions
    /// 1:1 into disjoint id ranges, and an edge leaving a part's search
    /// loop keeps its guard and actions when it leaves the shared state,
    /// so counting-set eligibility of a state is preserved.
    ///
    /// # Panics
    ///
    /// Panics if a plan's length does not match its automaton.
    pub fn merge(parts: &[(&Nca, CompilePlan)]) -> MultiNca {
        MultiNca::merge_with_alphabet(parts, union_alphabet(parts))
    }

    /// Like [`MultiNca::merge`], but with an externally supplied
    /// byte-class alphabet — the sharded configuration, where one
    /// alphabet is computed once over the *whole* pattern set and shared
    /// by every per-shard automaton, so the input decoder classifies
    /// each byte once for all shards.
    ///
    /// `alphabet` must *refine* every state predicate of `parts`: each
    /// equivalence class is either fully inside or disjoint from every
    /// state's class. Any alphabet built from a [`ByteClassSet`] that saw
    /// (at least) all the parts' predicates satisfies this.
    ///
    /// # Panics
    ///
    /// Same as [`MultiNca::merge`].
    pub fn merge_with_alphabet(parts: &[(&Nca, CompilePlan)], alphabet: ByteAlphabet) -> MultiNca {
        let mut states: Vec<State> = vec![State {
            class: ByteClass::EMPTY,
            counters: Vec::new(),
            accepts: Vec::new(),
        }];
        let mut counters = Vec::new();
        let mut transitions: Vec<Transition> = Vec::new();
        let mut modes: Vec<StorageMode> = vec![StorageMode::PureBit];
        let mut pattern_of_state: Vec<u32> = vec![u32::MAX];

        let loops: Vec<Option<StateId>> = parts.iter().map(|(nca, _)| search_loop(nca)).collect();
        if loops.iter().any(Option::is_some) {
            states.push(State {
                class: ByteClass::ANY,
                counters: Vec::new(),
                accepts: Vec::new(),
            });
            modes.push(StorageMode::PureBit);
            pattern_of_state.push(u32::MAX);
            for from in [StateId::INIT, SEARCH_STATE] {
                transitions.push(Transition {
                    from,
                    to: SEARCH_STATE,
                    guard: Vec::new(),
                    actions: Vec::new(),
                });
            }
        }

        for (pi, ((nca, plan), &search)) in parts.iter().zip(&loops).enumerate() {
            assert_eq!(plan.len(), nca.state_count(), "plan/automaton mismatch");
            // Local state ids map through a table: `q0` to `q0`, the
            // search loop (if shared) to `SEARCH_STATE`, every other state
            // to the next free id, so the pattern's owned states stay one
            // contiguous ascending range. Local counter k lands at
            // counter_base + k.
            let counter_base = counters.len() as u32;
            let mut state_map = vec![StateId::INIT; nca.state_count()];
            let map_counter = |c: crate::nca::CounterId| crate::nca::CounterId(counter_base + c.0);
            let map_guard = |g: &GuardAtom| match *g {
                GuardAtom::Lt(c, n) => GuardAtom::Lt(map_counter(c), n),
                GuardAtom::Range(c, lo, hi) => GuardAtom::Range(map_counter(c), lo, hi),
                GuardAtom::Ge(c, m) => GuardAtom::Ge(map_counter(c), m),
                GuardAtom::Eq(c, n) => GuardAtom::Eq(map_counter(c), n),
            };
            for (qi, s) in nca.states().iter().enumerate().skip(1) {
                if search == Some(StateId(qi as u32)) {
                    state_map[qi] = SEARCH_STATE;
                    continue;
                }
                state_map[qi] = StateId(states.len() as u32);
                debug_assert!(
                    (0..=255u8).all(|b| s.class.contains(b)
                        == s.class
                            .contains(alphabet.representative(alphabet.class_of(b)))),
                    "alphabet does not refine a state predicate of pattern {pi}"
                );
                states.push(State {
                    class: s.class,
                    counters: s.counters.iter().map(|&c| map_counter(c)).collect(),
                    accepts: s
                        .accepts
                        .iter()
                        .map(|conj| conj.iter().map(map_guard).collect())
                        .collect(),
                });
                modes.push(plan.mode(StateId(qi as u32)));
                pattern_of_state.push(pi as u32);
            }
            counters.extend_from_slice(nca.counters());
            for t in nca.transitions() {
                if search == Some(t.to) {
                    continue; // `q0→S` and `S→S` exist once, shared
                }
                transitions.push(Transition {
                    from: state_map[t.from.index()],
                    to: state_map[t.to.index()],
                    guard: t.guard.iter().map(map_guard).collect(),
                    actions: t
                        .actions
                        .iter()
                        .map(|op| match *op {
                            ActionOp::Set(c, v) => ActionOp::Set(map_counter(c), v),
                            ActionOp::Inc(c) => ActionOp::Inc(map_counter(c)),
                            ActionOp::IncSat(c, cap) => ActionOp::IncSat(map_counter(c), cap),
                        })
                        .collect(),
                });
            }
        }

        let nca = Nca::new(states, counters, transitions);
        // Counted states keep their in-edges' guards and actions (the
        // shared search state only renames a pure source), so the
        // `σ{m,n}` shape that justifies a queue survives the merge.
        debug_assert!(
            modes
                .iter()
                .enumerate()
                .all(|(qi, &m)| m != StorageMode::CountingSet
                    || counting_set_eligible(&nca, StateId(qi as u32))),
            "merge must preserve counting-set eligibility"
        );
        let plan = CompilePlan::from_modes(modes);
        let tables = EngineTables::build(&nca, &plan, &alphabet);
        MultiNca {
            nca,
            plan,
            alphabet,
            pattern_of_state,
            pattern_count: parts.len(),
            tables,
        }
    }

    /// The merged automaton.
    pub fn nca(&self) -> &Nca {
        &self.nca
    }

    /// The merged storage plan.
    pub fn plan(&self) -> &CompilePlan {
        &self.plan
    }

    /// The shared byte-class alphabet of the whole set.
    pub fn alphabet(&self) -> &ByteAlphabet {
        &self.alphabet
    }

    /// Number of merged patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The pattern owning state `q` (`None` for the merged `q0` and the
    /// shared `Σ*` search state, which every unanchored pattern shares).
    pub fn pattern_of(&self, q: StateId) -> Option<u32> {
        match self.pattern_of_state[q.index()] {
            u32::MAX => None,
            p => Some(p),
        }
    }

    /// Creates a batched engine over the merged automaton.
    pub fn engine(&self) -> MultiEngine<'_> {
        MultiEngine::new(self)
    }

    /// Creates a hybrid lazy-DFA overlay engine (see
    /// [`crate::HybridEngine`]): determinized byte-class rows for pure
    /// frontiers, exact [`MultiEngine`] stepping while counters are
    /// active, at most `state_budget` cached DFA states.
    pub fn hybrid_engine(&self, state_budget: usize) -> HybridEngine<'_> {
        HybridEngine::new(self, state_budget)
    }

    /// The immutable engine tables (shared by every engine instance).
    pub(crate) fn tables(&self) -> &EngineTables {
        &self.tables
    }
}

/// A pattern set partitioned into shards: one [`MultiNca`] per shard,
/// all sharing a single [`ByteAlphabet`] computed once over the union of
/// every pattern's predicates.
///
/// Sharding is the banked deployment shape: each shard's automaton fits
/// one accelerator bank, and the software twin runs one engine per shard
/// (typically on its own thread). Because the alphabet is shared, every
/// shard classifies an input byte identically, mirroring the single
/// input decoder that feeds all banks.
///
/// Per-shard reports carry *local* pattern indices; translate them with
/// [`ShardedMulti::global_pattern`].
#[derive(Debug)]
pub struct ShardedMulti {
    shards: Vec<MultiNca>,
    /// Global pattern index per (shard, local pattern index).
    members: Vec<Vec<u32>>,
    alphabet: ByteAlphabet,
    pattern_count: usize,
}

impl ShardedMulti {
    /// Merges `parts` (indexed globally) into one automaton per shard.
    /// `shards` must partition `0..parts.len()` with strictly ascending
    /// members per shard, so that per-shard report order (ascending local
    /// index within a step) translates to ascending global order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not such a partition, or under the
    /// [`MultiNca::merge`] conditions.
    pub fn merge(parts: &[(&Nca, CompilePlan)], shards: &[Vec<usize>]) -> ShardedMulti {
        let mut seen = vec![false; parts.len()];
        for members in shards {
            for window in members.windows(2) {
                assert!(window[0] < window[1], "shard members must be ascending");
            }
            for &i in members {
                assert!(
                    i < parts.len() && !std::mem::replace(&mut seen[i], true),
                    "shards must partition the pattern indices (bad index {i})"
                );
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "shards must cover every pattern exactly once"
        );

        let alphabet = union_alphabet(parts);
        let built: Vec<MultiNca> = shards
            .iter()
            .map(|members| {
                let sub: Vec<(&Nca, CompilePlan)> = members
                    .iter()
                    .map(|&i| (parts[i].0, parts[i].1.clone()))
                    .collect();
                MultiNca::merge_with_alphabet(&sub, alphabet.clone())
            })
            .collect();
        ShardedMulti {
            shards: built,
            members: shards
                .iter()
                .map(|m| m.iter().map(|&i| i as u32).collect())
                .collect(),
            alphabet,
            pattern_count: parts.len(),
        }
    }

    /// Number of shards (≥ 1 whenever built from a `ShardPlan`-style
    /// partition; 0 only if `shards` was empty).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard merged automata.
    pub fn shards(&self) -> &[MultiNca] {
        &self.shards
    }

    /// The merged automaton of shard `i`.
    pub fn shard(&self, i: usize) -> &MultiNca {
        &self.shards[i]
    }

    /// The alphabet shared by every shard.
    pub fn alphabet(&self) -> &ByteAlphabet {
        &self.alphabet
    }

    /// Total number of patterns across all shards.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Global pattern indices of shard `i` (ascending), indexed by the
    /// shard's local pattern index.
    pub fn shard_members(&self, i: usize) -> &[u32] {
        &self.members[i]
    }

    /// Translates a shard-local pattern index to the global index.
    pub fn global_pattern(&self, shard: usize, local: u32) -> u32 {
        self.members[shard][local as usize]
    }

    /// One engine per shard, ready for parallel stepping.
    pub fn engines(&self) -> Vec<MultiEngine<'_>> {
        self.shards.iter().map(|m| m.engine()).collect()
    }

    /// A resumable scanning state for shard `i` in the given
    /// [`ScanMode`], reporting **global** pattern indices — the unit a
    /// many-flow scheduler checks out. [`ScanMode::Nca`] steps the exact
    /// NCA engine; [`ScanMode::Hybrid`] overlays a lazy-DFA cache on it
    /// (see [`crate::HybridEngine`]).
    pub fn shard_stream_with(&self, i: usize, mode: ScanMode) -> ShardStream<'_> {
        let engine = match mode {
            ScanMode::Nca => StreamEngine::Nca(Box::new(self.shards[i].engine())),
            ScanMode::Hybrid { state_budget } => {
                StreamEngine::Hybrid(Box::new(self.shards[i].hybrid_engine(state_budget)))
            }
        };
        ShardStream {
            members: &self.members[i],
            shard: i,
            engine,
        }
    }

    /// One detachable [`ShardStream`] per shard, each scanning with the
    /// given [`ScanMode`] — together they scan one logical byte stream
    /// (every shard must be fed the same bytes).
    pub fn shard_streams_with(&self, mode: ScanMode) -> Vec<ShardStream<'_>> {
        (0..self.shards.len())
            .map(|i| self.shard_stream_with(i, mode))
            .collect()
    }

    /// Reattaches a detached [`ShardStreamState`] to this set, resuming
    /// the stream exactly where [`ShardStream::into_state`] left it —
    /// position, token configuration, and (in hybrid mode) the warm
    /// lazy-DFA cache all carry over. The inverse of `into_state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` did not come from a stream of an identically
    /// shaped set (same shard count, same per-shard automaton shape) —
    /// the cheap structural check that catches resuming against the
    /// wrong [`ShardedMulti`].
    pub fn resume_shard_stream(&self, state: ShardStreamState) -> ShardStream<'_> {
        let shard = state.shard;
        assert!(
            shard < self.shards.len(),
            "ShardStreamState for shard {shard} resumed on a set with {} shard(s)",
            self.shards.len()
        );
        let engine = match state.engine {
            StreamEngineState::Nca(s) => {
                StreamEngine::Nca(Box::new(MultiEngine::resume(&self.shards[shard], *s)))
            }
            StreamEngineState::Hybrid(s) => {
                StreamEngine::Hybrid(Box::new(HybridEngine::resume(&self.shards[shard], *s)))
            }
        };
        ShardStream {
            members: &self.members[shard],
            shard,
            engine,
        }
    }
}

/// A resumable per-shard scanning state: ONE shard's batched engine plus
/// the shard-local → global report translation, detached from its sibling
/// shards so each can be advanced independently.
///
/// All shards of a [`ShardedMulti`] scan the *same* logical byte stream;
/// a `ShardStream` tracks its own position in that stream, so a scheduler
/// can hand different shards of one flow to different workers and let
/// them progress at different rates. The stream is `Send` (it owns its
/// mutable engine state and only borrows the immutable automaton), and
/// reports already carry global pattern indices, so no per-shard
/// translation table travels with it.
pub struct ShardStream<'a> {
    members: &'a [u32],
    shard: usize,
    engine: StreamEngine<'a>,
}

/// The execution strategy behind one [`ShardStream`]: the exact batched
/// NCA engine, or the lazy-DFA hybrid overlay. Both variants are boxed:
/// streams move between workers at every checkout/check-in, and the
/// engines are hundreds of bytes of inline state.
enum StreamEngine<'a> {
    Nca(Box<MultiEngine<'a>>),
    Hybrid(Box<HybridEngine<'a>>),
}

impl ShardStream<'_> {
    /// The shard index this stream advances.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Bytes of the logical stream this shard has consumed.
    pub fn position(&self) -> u64 {
        match &self.engine {
            StreamEngine::Nca(e) => e.position(),
            StreamEngine::Hybrid(e) => e.position(),
        }
    }

    /// Number of live states in this shard's frontier.
    pub fn active_states(&self) -> usize {
        match &self.engine {
            StreamEngine::Nca(e) => e.active_states(),
            StreamEngine::Hybrid(e) => e.active_states(),
        }
    }

    /// Hybrid-overlay counters of this stream, if it scans in
    /// [`ScanMode::Hybrid`] (`None` under [`ScanMode::Nca`]).
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        match &self.engine {
            StreamEngine::Nca(_) => None,
            StreamEngine::Hybrid(e) => Some(e.stats()),
        }
    }

    /// Returns this shard to the start of the stream.
    pub fn reset(&mut self) {
        match &mut self.engine {
            StreamEngine::Nca(e) => e.reset(),
            StreamEngine::Hybrid(e) => e.reset(),
        }
    }

    /// Resets this shard's frontier and resumes counting bytes from
    /// absolute offset `position` — the literal-prefilter wake-up
    /// primitive (a cold shard's engine skips ahead without scanning the
    /// skipped bytes).
    pub fn restart_at(&mut self, position: u64) {
        match &mut self.engine {
            StreamEngine::Nca(e) => e.restart_at(position),
            StreamEngine::Hybrid(e) => e.restart_at(position),
        }
    }

    /// Consumes `chunk`, appending reports with **global** pattern
    /// indices and absolute 1-based end offsets to `out`. Appended
    /// reports are sorted by `(end, pattern)`: ends ascend with the
    /// stream position, and within one step the engine emits ascending
    /// local indices, which ascending shard members keep ascending
    /// globally.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        let start = out.len();
        match &mut self.engine {
            StreamEngine::Nca(e) => e.feed_into(chunk, out),
            StreamEngine::Hybrid(e) => e.feed_into(chunk, out),
        }
        for r in &mut out[start..] {
            r.pattern = self.members[r.pattern as usize];
        }
    }

    /// Detaches this stream's mutable state from the borrowed automaton,
    /// producing an owned, `'static` [`ShardStreamState`] that can be
    /// parked in long-lived flow tables and later reattached with
    /// [`ShardedMulti::resume_shard_stream`]. Nothing is recomputed on
    /// either side of the round trip: token storage, stream position,
    /// and the hybrid overlay's interned DFA cache move as-is.
    pub fn into_state(self) -> ShardStreamState {
        ShardStreamState {
            shard: self.shard,
            engine: match self.engine {
                StreamEngine::Nca(e) => StreamEngineState::Nca(Box::new(e.into_state())),
                StreamEngine::Hybrid(e) => StreamEngineState::Hybrid(Box::new(e.into_state())),
            },
        }
    }
}

/// The owned, automaton-free state of one [`ShardStream`]: everything a
/// stream mutates while scanning, detached from the [`ShardedMulti`] it
/// borrows. `'static` and `Send`, so a serving layer can park per-flow
/// scan progress in a flow table that outlives any particular borrow of
/// the pattern set, and reattach it with
/// [`ShardedMulti::resume_shard_stream`] only for the duration of each
/// scan. In hybrid mode the detached state keeps its warm lazy-DFA cache.
pub struct ShardStreamState {
    shard: usize,
    engine: StreamEngineState,
}

/// Owned counterpart of [`StreamEngine`].
enum StreamEngineState {
    Nca(Box<MultiEngineState>),
    Hybrid(Box<HybridEngineState>),
}

impl ShardStreamState {
    /// The shard index this state belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Bytes of the logical stream consumed when the state was detached.
    pub fn position(&self) -> u64 {
        match &self.engine {
            StreamEngineState::Nca(s) => s.position,
            StreamEngineState::Hybrid(s) => s.position(),
        }
    }

    /// Hybrid-overlay counters carried by this state (`None` if it was
    /// detached from a [`ScanMode::Nca`] stream).
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        match &self.engine {
            StreamEngineState::Nca(_) => None,
            StreamEngineState::Hybrid(s) => Some(s.stats()),
        }
    }
}

impl std::fmt::Debug for ShardStreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardStreamState(shard = {}, position = {})",
            self.shard,
            self.position()
        )
    }
}

impl std::fmt::Debug for ShardStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardStream(shard = {}, position = {})",
            self.shard,
            self.position()
        )
    }
}

/// The part's `Σ*` search loop, if the merge may fold it into the shared
/// search state: a pure, non-accepting, full-class state with a self-loop,
/// entered only from `q0` and itself over unguarded, action-free edges,
/// whose other out-edges equal `q0`'s other out-edges as a set. Such a
/// state is live exactly from step 1 on (also after a reset or restart)
/// with `q0`'s successors, so folding every part's loop into one state
/// changes no configuration. A part has at most one: a second candidate
/// is one of `q0`'s successors, hence entered from the first candidate,
/// which the in-edge condition forbids.
fn search_loop(nca: &Nca) -> Option<StateId> {
    let out_edges = |p: StateId, skip: StateId| -> HashSet<(StateId, &[GuardAtom], &[ActionOp])> {
        nca.transitions_from(p)
            .filter(|t| t.to != skip)
            .map(|t| (t.to, &t.guard[..], &t.actions[..]))
            .collect()
    };
    (1..nca.state_count() as u32).map(StateId).find(|&s| {
        let state = nca.state(s);
        if !state.class.is_full() || !state.is_pure() || state.is_final() {
            return false;
        }
        let (mut from_init, mut self_loop) = (false, false);
        for t in nca.transitions_into(s) {
            if !t.guard.is_empty() || !t.actions.is_empty() {
                return false;
            }
            match t.from {
                StateId::INIT => from_init = true,
                p if p == s => self_loop = true,
                _ => return false,
            }
        }
        from_init && self_loop && out_edges(StateId::INIT, s) == out_edges(s, s)
    })
}

/// The byte-class alphabet induced by the union of all parts' state
/// predicates — the partition every merged engine (single or sharded)
/// classifies input bytes with.
fn union_alphabet(parts: &[(&Nca, CompilePlan)]) -> ByteAlphabet {
    let mut class_set = ByteClassSet::new();
    for (nca, _) in parts {
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
    }
    class_set.freeze()
}

/// One outgoing transition, slot-resolved and class-indexed.
#[derive(Debug)]
pub(crate) struct OutEdge {
    pub(crate) to: u32,
    pub(crate) guard: Vec<SlotTest>,
    pub(crate) dst: Vec<SlotSrc>,
}

/// The immutable, shareable part of the batched engine: edge programs,
/// finalization predicates, and class-membership bitsets. Built once per
/// [`MultiNca`]; every engine instance borrows it.
#[derive(Debug)]
pub(crate) struct EngineTables {
    /// Outgoing edge programs per state.
    pub(crate) out_edges: Vec<Vec<OutEdge>>,
    /// Slot-resolved finalization DNF per state.
    pub(crate) accepts: Vec<Vec<Vec<SlotTest>>>,
    /// `class_member[c]` is a bitset over states: bit `q` set iff the
    /// equivalence class `c` is inside `class(q)`.
    pub(crate) class_member: Vec<Vec<u64>>,
    /// Bitset over states: bit `q` set iff state `q` carries a counter —
    /// the O(words) quiescence mask of the hybrid overlay.
    pub(crate) counted_mask: Vec<u64>,
    /// Whether each state uses the counting-set queue representation.
    is_queue: Vec<bool>,
    /// For queue states: whether the state has the self-loop increment
    /// edge (its tokens survive a matching byte).
    queue_self_loop: Vec<bool>,
}

impl EngineTables {
    fn build(nca: &Nca, plan: &CompilePlan, alphabet: &ByteAlphabet) -> EngineTables {
        let n = nca.state_count();
        let words = n.div_ceil(64);
        let out_edges = (0..n)
            .map(|qi| {
                nca.transitions_from(StateId(qi as u32))
                    .map(|t| {
                        let (guard, dst) = resolve_transition(nca, t);
                        OutEdge {
                            to: t.to.0,
                            guard,
                            dst,
                        }
                    })
                    .collect()
            })
            .collect();
        let accepts = nca
            .states()
            .iter()
            .enumerate()
            .map(|(qi, s)| {
                s.accepts
                    .iter()
                    .map(|conj| resolve_guard(nca, StateId(qi as u32), conj))
                    .collect()
            })
            .collect();
        let class_member = alphabet
            .classes()
            .map(|(_, rep)| {
                let mut row = vec![0u64; words];
                for (qi, s) in nca.states().iter().enumerate().skip(1) {
                    if s.class.contains(rep) {
                        row[qi / 64] |= 1 << (qi % 64);
                    }
                }
                row
            })
            .collect();
        let mut counted_mask = vec![0u64; words];
        for (qi, s) in nca.states().iter().enumerate() {
            if !s.counters.is_empty() {
                counted_mask[qi / 64] |= 1 << (qi % 64);
            }
        }
        let is_queue: Vec<bool> = (0..n)
            .map(|qi| plan.mode(StateId(qi as u32)) == StorageMode::CountingSet)
            .collect();
        let queue_self_loop = (0..n)
            .map(|qi| {
                is_queue[qi]
                    && nca
                        .transitions_into(StateId(qi as u32))
                        .any(|t| t.from.index() == qi)
            })
            .collect();
        EngineTables {
            out_edges,
            accepts,
            class_member,
            counted_mask,
            is_queue,
            queue_self_loop,
        }
    }
}

/// The batched multi-pattern engine. See the module docs.
pub struct MultiEngine<'a> {
    multi: &'a MultiNca,
    /// Shared immutable tables (owned by the [`MultiNca`]).
    tables: &'a EngineTables,
    /// Per-state token storage for the current / next configuration.
    cur: Vec<Storage>,
    nxt: Vec<Storage>,
    /// Bitset over states: `cur[q]` holds at least one token.
    active: Vec<u64>,
    next_active: Vec<u64>,
    /// Generation stamps for lazy clearing of `nxt`.
    stamp: Vec<u64>,
    generation: u64,
    /// Reusable destination-valuation buffer.
    value_scratch: Vec<u32>,
    /// Per-pattern stamp deduplicating reports within one step.
    report_stamp: Vec<u64>,
    /// Counting-set scratch: queue states reached by this step's frontier.
    touched_queues: Vec<u32>,
    /// Generation stamp marking queue states already in `touched_queues`.
    queue_touch_stamp: Vec<u64>,
    /// Whether a guarded entry edge fired into each touched queue state.
    queue_entry_hit: Vec<bool>,
    /// Stream position (bytes consumed since reset).
    position: u64,
    conflicts: u64,
}

/// The owned mutable half of a [`MultiEngine`]: every field the engine
/// mutates while scanning, with the `&MultiNca` / `&EngineTables` borrows
/// stripped. Produced by [`MultiEngine::into_state`], consumed by
/// [`MultiEngine::resume`]; the detach/reattach round trip copies and
/// recomputes nothing.
pub(crate) struct MultiEngineState {
    pub(crate) cur: Vec<Storage>,
    pub(crate) nxt: Vec<Storage>,
    pub(crate) active: Vec<u64>,
    pub(crate) next_active: Vec<u64>,
    pub(crate) stamp: Vec<u64>,
    pub(crate) generation: u64,
    pub(crate) value_scratch: Vec<u32>,
    pub(crate) report_stamp: Vec<u64>,
    pub(crate) touched_queues: Vec<u32>,
    pub(crate) queue_touch_stamp: Vec<u64>,
    pub(crate) queue_entry_hit: Vec<bool>,
    pub(crate) position: u64,
    pub(crate) conflicts: u64,
}

impl<'a> MultiEngine<'a> {
    /// Builds an engine over `multi`'s shared tables; only the mutable
    /// per-engine state (token storage, frontiers, stamps) is allocated.
    pub fn new(multi: &'a MultiNca) -> MultiEngine<'a> {
        let nca = &multi.nca;
        let n = nca.state_count();
        let words = n.div_ceil(64);
        let storage_for = |qi: usize| {
            let s = &nca.states()[qi];
            let bound = s
                .counters
                .first()
                .map(|&c| nca.counter(c).bound())
                .unwrap_or(0);
            Storage::new(multi.plan.mode(StateId(qi as u32)), bound)
        };
        let mut e = MultiEngine {
            multi,
            tables: &multi.tables,
            cur: (0..n).map(storage_for).collect(),
            nxt: (0..n).map(storage_for).collect(),
            active: vec![0; words],
            next_active: vec![0; words],
            stamp: vec![0; n],
            generation: 0,
            value_scratch: Vec::new(),
            report_stamp: vec![0; multi.pattern_count],
            touched_queues: Vec::new(),
            queue_touch_stamp: vec![0; n],
            queue_entry_hit: vec![false; n],
            position: 0,
            conflicts: 0,
        };
        e.reset();
        e
    }

    /// Detaches the engine's mutable state from the automaton borrow.
    /// The inverse of [`MultiEngine::resume`].
    pub(crate) fn into_state(self) -> MultiEngineState {
        MultiEngineState {
            cur: self.cur,
            nxt: self.nxt,
            active: self.active,
            next_active: self.next_active,
            stamp: self.stamp,
            generation: self.generation,
            value_scratch: self.value_scratch,
            report_stamp: self.report_stamp,
            touched_queues: self.touched_queues,
            queue_touch_stamp: self.queue_touch_stamp,
            queue_entry_hit: self.queue_entry_hit,
            position: self.position,
            conflicts: self.conflicts,
        }
    }

    /// Reattaches a state detached by [`MultiEngine::into_state`] to
    /// `multi`, resuming mid-stream with no recomputation.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape (state count, pattern count) does not
    /// match `multi` — the structural check against resuming on the
    /// wrong automaton.
    pub(crate) fn resume(multi: &'a MultiNca, state: MultiEngineState) -> MultiEngine<'a> {
        assert_eq!(
            state.cur.len(),
            multi.nca.state_count(),
            "engine state resumed on an automaton with a different state count"
        );
        assert_eq!(
            state.report_stamp.len(),
            multi.pattern_count,
            "engine state resumed on an automaton with a different pattern count"
        );
        MultiEngine {
            multi,
            tables: &multi.tables,
            cur: state.cur,
            nxt: state.nxt,
            active: state.active,
            next_active: state.next_active,
            stamp: state.stamp,
            generation: state.generation,
            value_scratch: state.value_scratch,
            report_stamp: state.report_stamp,
            touched_queues: state.touched_queues,
            queue_touch_stamp: state.queue_touch_stamp,
            queue_entry_hit: state.queue_entry_hit,
            position: state.position,
            conflicts: state.conflicts,
        }
    }

    /// Returns to the initial configuration (stream position 0).
    pub fn reset(&mut self) {
        for w in &mut self.active {
            *w = 0;
        }
        for s in &mut self.cur {
            s.clear();
        }
        self.cur[0] = Storage::PureBit(true);
        self.active[0] = 1;
        self.stamp.iter_mut().for_each(|s| *s = 0);
        self.report_stamp.iter_mut().for_each(|s| *s = 0);
        self.queue_touch_stamp.iter_mut().for_each(|s| *s = 0);
        self.generation = 0;
        self.position = 0;
        self.conflicts = 0;
    }

    /// Bytes consumed since the last reset.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Returns to the initial configuration but reports subsequent
    /// matches as if the stream started at absolute offset `position` —
    /// the primitive behind prefilter wake-up, where a cold shard's
    /// engine teleports past skipped bytes and resumes with a fresh
    /// `Σ*` frontier (sound because a fresh frontier at any offset is a
    /// subset of the true frontier there, and over-approximates nothing
    /// the search form `Σ*·r` would not restart anyway).
    pub fn restart_at(&mut self, position: u64) {
        self.reset();
        self.position = position;
    }

    /// Number of `SingleValue` collisions observed (must stay 0 when the
    /// plans came from a sound analysis; see [`crate::CompiledEngine`]).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of live (token-holding) states — the frontier size the
    /// per-byte work scales with.
    pub fn active_states(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any counter-carrying state is live. O(state words): one
    /// AND against the precomputed counted-state mask — the quiescence
    /// test the hybrid overlay runs after every exact step.
    pub fn counting_active(&self) -> bool {
        self.active
            .iter()
            .zip(&self.tables.counted_mask)
            .any(|(a, m)| a & m != 0)
    }

    /// Collects the live frontier (ascending state ids) into `out`.
    /// Intended for pure frontiers (see
    /// [`MultiEngine::load_pure_frontier`]); ascending order makes the
    /// subset directly internable by the hybrid cache.
    pub(crate) fn pure_frontier_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (wi, &word) in self.active.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                out.push((wi * 64 + bit) as u32);
            }
        }
    }

    /// Replaces the live configuration with a frontier of **pure**
    /// states (each holding one anonymous token) at stream offset
    /// `position` — how the hybrid overlay rehydrates the exact engine
    /// when a cached DFA state must fall back to exact stepping.
    pub(crate) fn load_pure_frontier(&mut self, states: &[u32], position: u64) {
        for (wi, word) in self.active.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                self.cur[wi * 64 + bit].clear();
            }
        }
        for &q in states {
            let qi = q as usize;
            debug_assert!(
                self.tables.counted_mask[qi / 64] & (1 << (qi % 64)) == 0,
                "hybrid frontiers contain only pure states"
            );
            self.cur[qi] = Storage::PureBit(true);
            self.active[qi / 64] |= 1 << (qi % 64);
        }
        self.position = position;
    }

    /// Consumes one byte, appending `(pattern, end)` reports to `out`.
    ///
    /// Reports are deduplicated per pattern and appended in merged state
    /// order. Because [`MultiNca::merge`] lays out each pattern's states
    /// contiguously in pattern order and the frontier is walked in state
    /// order, this is **ascending pattern order within one step** — a
    /// guaranteed contract: the sharded ordered merge
    /// (`ShardedPatternSet` in `recama`) relies on it to recombine
    /// per-shard reports byte-identically. `end` is the current 1-based
    /// stream offset.
    pub fn step_into(&mut self, byte: u8, out: &mut Vec<MultiReport>) {
        self.position += 1;
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        let class = self.multi.alphabet.class_of(byte);
        let member_row = &self.tables.class_member[class];
        for w in &mut self.next_active {
            *w = 0;
        }
        let cur = &self.cur;
        let nxt = &mut self.nxt;
        let stamp = &mut self.stamp;
        let next_active = &mut self.next_active;
        let value_scratch = &mut self.value_scratch;
        let touched_queues = &mut self.touched_queues;
        let queue_touch_stamp = &mut self.queue_touch_stamp;
        let queue_entry_hit = &mut self.queue_entry_hit;
        let is_queue = &self.tables.is_queue;
        touched_queues.clear();
        let mut conflicts = 0u64;
        for (wi, &word) in self.active.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let p = wi * 64 + bit;
                let src = &cur[p];
                for edge in &self.tables.out_edges[p] {
                    let q = edge.to as usize;
                    if member_row[q / 64] & (1 << (q % 64)) == 0 {
                        continue;
                    }
                    if is_queue[q] {
                        // Counting-set destinations are advanced by the
                        // specialized pass below; here only record that
                        // the state was reached and whether a (guarded)
                        // entry edge fired against the *current*
                        // configuration — queues must not mutate before
                        // every entry guard has been read (queue states
                        // may feed each other).
                        if queue_touch_stamp[q] != generation {
                            queue_touch_stamp[q] = generation;
                            queue_entry_hit[q] = false;
                            touched_queues.push(q as u32);
                        }
                        if p != q && !queue_entry_hit[q] {
                            let mut hit = false;
                            src.for_each(|values| {
                                hit = hit || edge.guard.iter().all(|g| g.eval(values));
                            });
                            queue_entry_hit[q] = hit;
                        }
                        continue;
                    }
                    if stamp[q] != generation {
                        stamp[q] = generation;
                        nxt[q].clear();
                    }
                    let nxt_q = &mut nxt[q];
                    src.for_each(|values| {
                        if edge.guard.iter().all(|g| g.eval(values)) {
                            value_scratch.clear();
                            value_scratch.extend(edge.dst.iter().map(|s| s.eval(values)));
                            if nxt_q.insert(value_scratch) {
                                conflicts += 1;
                            }
                        }
                    });
                    if !nxt_q.is_empty() {
                        next_active[q / 64] |= 1 << (q % 64);
                    }
                }
            }
        }
        // Counting-set pass: each touched queue advances with one clock
        // bump (`shift`) and at most one fresh value-1 token instead of an
        // O(bound) bit-vector walk. Untouched queues (their class did not
        // match the byte, or no live predecessor reached them) simply stay
        // inactive; their stale storage is stamp-cleared on next touch.
        let cur = &mut self.cur;
        let queue_self_loop = &self.tables.queue_self_loop;
        for &q in touched_queues.iter() {
            let qi = q as usize;
            if stamp[qi] != generation {
                stamp[qi] = generation;
                nxt[qi].clear();
            }
            let live = self.active[qi / 64] & (1 << (qi % 64)) != 0;
            let survives = live && queue_self_loop[qi];
            if survives {
                // Move the live queue into the next buffer; the cleared
                // one swaps back and is reused on a later step.
                std::mem::swap(&mut cur[qi], &mut nxt[qi]);
            }
            match &mut nxt[qi] {
                Storage::Queue { queue, bound } => {
                    if survives {
                        queue.shift(*bound);
                    }
                    if queue_entry_hit[qi] {
                        queue.set_first();
                    }
                }
                _ => unreachable!("counting-set states use Queue storage"),
            }
            if !nxt[qi].is_empty() {
                next_active[qi / 64] |= 1 << (qi % 64);
            }
        }
        self.conflicts += conflicts;
        std::mem::swap(&mut self.cur, &mut self.nxt);
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.collect_reports(out);
    }

    fn collect_reports(&mut self, out: &mut Vec<MultiReport>) {
        let generation = self.generation;
        for (wi, &word) in self.active.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let q = wi * 64 + bit;
                let disjuncts = &self.tables.accepts[q];
                if disjuncts.is_empty() {
                    continue;
                }
                let pattern = self.multi.pattern_of_state[q];
                debug_assert_ne!(pattern, u32::MAX, "unowned states never accept");
                if self.report_stamp[pattern as usize] == generation {
                    continue; // this pattern already reported at this offset
                }
                let mut hit = false;
                self.cur[q].for_each(|values| {
                    if !hit {
                        hit = disjuncts
                            .iter()
                            .any(|conj| conj.iter().all(|g| g.eval(values)));
                    }
                });
                if hit {
                    self.report_stamp[pattern as usize] = generation;
                    out.push(MultiReport {
                        pattern,
                        end: self.position,
                    });
                }
            }
        }
    }

    /// Feeds a whole chunk, appending reports to `out`. Stream position
    /// persists across calls, so chunked feeding is equivalent to one
    /// contiguous scan.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        for &b in chunk {
            self.step_into(b, out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::CompiledEngine;
    use recama_syntax::parse;

    fn stream_nca(pattern: &str) -> Nca {
        Nca::from_regex(&parse(pattern).unwrap().for_stream())
    }

    fn multi(patterns: &[&str]) -> MultiNca {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::conservative(n)))
            .collect();
        let m = MultiNca::merge(&parts);
        // `parts` borrows ncas, which drop here; MultiNca owns its copy.
        m
    }

    fn per_pattern_reports(patterns: &[&str], input: &[u8]) -> Vec<MultiReport> {
        let mut expected = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            let nca = stream_nca(p);
            let mut engine = CompiledEngine::conservative(&nca);
            for end in engine.match_ends(input) {
                if end > 0 {
                    expected.push(MultiReport {
                        pattern: pi as u32,
                        end: end as u64,
                    });
                }
            }
        }
        expected.sort();
        expected
    }

    fn assert_agrees(patterns: &[&str], input: &[u8]) {
        let m = multi(patterns);
        let mut got = m.engine().match_reports(input);
        got.sort();
        assert_eq!(
            got,
            per_pattern_reports(patterns, input),
            "{patterns:?} on {:?}",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn merged_reports_equal_per_pattern_union() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab"];
        for input in [
            &b"abbc.aaa.xyz.cab"[..],
            b"abbbcabbc",
            b"aaaaaa",
            b"xzy xyy xzz",
            b"",
            b"no matches here",
        ] {
            assert_agrees(&patterns, input);
        }
    }

    #[test]
    fn overlapping_patterns_report_independently() {
        // Same trigger, different tails; plus a pattern equal to another's
        // prefix.
        let patterns = ["ka{2}", "ka{2}b", "k"];
        assert_agrees(&patterns, b"kaab kaa");
    }

    #[test]
    fn anchored_and_counting_mix() {
        let patterns = ["^a{2}b", "b{2}", "^x"];
        assert_agrees(&patterns, b"aab bb x");
        assert_agrees(&patterns, b"xaabbb");
    }

    #[test]
    fn shared_alphabet_is_smaller_than_sigma() {
        let m = multi(&["a{3}", "[ab]{2}x", "\\d{4}"]);
        // Classes: {a}, {b}, {x}, digits, rest — far fewer than 256.
        assert_eq!(m.alphabet().len(), 5);
    }

    #[test]
    fn state_attribution_covers_all_patterns() {
        let patterns = ["ab", "cd{2}", "^ef", ".*gh"];
        let m = multi(&patterns);
        assert_eq!(m.pattern_count(), patterns.len());
        assert_eq!(m.pattern_of(StateId::INIT), None);
        let owners: Vec<Option<u32>> = (0..m.nca().state_count())
            .map(|qi| m.pattern_of(StateId(qi as u32)))
            .collect();
        // The only unowned states are `q0` and the shared search state.
        let unowned: Vec<usize> = (0..owners.len()).filter(|&q| owners[q].is_none()).collect();
        assert_eq!(unowned, [0, SEARCH_STATE.index()]);
        let search = m.nca().state(SEARCH_STATE);
        assert!(search.class.is_full() && search.is_pure() && !search.is_final());
        // Every pattern owns at least one state, and owned ranges are
        // contiguous and ascending: the owner sequence never decreases
        // and never skips a pattern.
        let owned: Vec<u32> = owners.iter().flatten().copied().collect();
        assert_eq!(owned.first(), Some(&0));
        assert_eq!(owned.last(), Some(&(patterns.len() as u32 - 1)));
        for w in owned.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1, "owners {owned:?}");
        }
    }

    fn unowned_non_init(m: &MultiNca) -> usize {
        (1..m.nca().state_count())
            .filter(|&qi| m.pattern_of(StateId(qi as u32)).is_none())
            .count()
    }

    /// Structural pin of the shared search state: 200 unanchored rules
    /// fold into one `Σ*` state, so the idle frontier no longer scales
    /// with the rule count.
    #[test]
    fn unanchored_rules_share_one_search_state() {
        let owned_rules: Vec<String> = (0..200).map(|i| format!("k{i:03}z")).collect();
        let mut patterns: Vec<&str> = owned_rules.iter().map(String::as_str).collect();
        patterns.extend(["^anchored", "^k{2}"]);
        let m = multi(&patterns);
        assert_eq!(unowned_non_init(&m), 1, "exactly one shared search state");
        // Bytes that start no rule: neither `k` nor `a`.
        let idle: Vec<u8> = b"the quick brown fox jumps over lzy dog. "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let mut out = Vec::new();
        let mut exact = m.engine();
        exact.feed_into(&idle, &mut out);
        assert!(exact.active_states() <= 2, "{}", exact.active_states());
        let mut hybrid = m.hybrid_engine(64);
        hybrid.feed_into(&idle, &mut out);
        assert!(hybrid.active_states() <= 2, "{}", hybrid.active_states());
        assert!(out.is_empty());

        // Anchored-only sets have no search loop to share: no extra state,
        // and the merged size is the sum of the parts.
        let anchored = ["^abc", "^x{2,4}y", "^[^\\n]{3}"];
        let m = multi(&anchored);
        assert_eq!(unowned_non_init(&m), 0);
        let parts: usize = anchored.iter().map(|p| stream_nca(p).ste_count()).sum();
        assert_eq!(m.nca().state_count(), 1 + parts);
    }

    #[test]
    fn chunked_feeding_matches_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let m = multi(&patterns);
        let input = b"zabbbc_xxx_qrst_abbc_xxxx".to_vec();
        let mut engine = m.engine();
        let oneshot = engine.match_reports(&input);
        for chunk_len in [1usize, 2, 3, 7, input.len()] {
            let mut engine = m.engine();
            let mut chunked = Vec::new();
            for chunk in input.chunks(chunk_len) {
                engine.feed_into(chunk, &mut chunked);
            }
            assert_eq!(chunked, oneshot, "chunk length {chunk_len}");
            assert_eq!(engine.position(), input.len() as u64);
        }
    }

    #[test]
    fn frontier_stays_sparse_on_benign_input() {
        let patterns = ["needle{2}x", "spike[ab]{3}", "^anchored{2}"];
        let m = multi(&patterns);
        let mut engine = m.engine();
        let mut out = Vec::new();
        for &b in b"purely unrelated traffic ........." {
            engine.step_into(b, &mut out);
        }
        // Only the shared Σ* search state and occasional literal heads
        // stay live.
        assert!(engine.active_states() <= 8, "{}", engine.active_states());
        assert!(out.is_empty());
    }

    #[test]
    fn empty_set_matches_nothing() {
        let m = MultiNca::merge(&[]);
        let mut engine = m.engine();
        assert!(engine.match_reports(b"anything").is_empty());
        assert_eq!(m.pattern_count(), 0);
    }

    fn sharded(patterns: &[&str], shards: &[Vec<usize>]) -> ShardedMulti {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::conservative(n)))
            .collect();
        ShardedMulti::merge(&parts, shards)
    }

    #[test]
    fn sharded_union_equals_single_merge() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab", "k\\d{2}"];
        let input = b"abbc.aaa.xyz.cab.k42.abbbc";
        let single = multi(&patterns);
        let mut expected = single.engine().match_reports(input);
        expected.sort();
        for shards in [
            vec![vec![0, 1, 2, 3, 4]],
            vec![vec![0, 1], vec![2, 3], vec![4]],
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
            vec![vec![0, 1, 2], vec![3, 4]],
        ] {
            let sm = sharded(&patterns, &shards);
            let mut got = Vec::new();
            for (si, mut engine) in sm.engines().into_iter().enumerate() {
                for r in engine.match_reports(input) {
                    got.push(MultiReport {
                        pattern: sm.global_pattern(si, r.pattern),
                        end: r.end,
                    });
                }
            }
            got.sort();
            assert_eq!(got, expected, "shards {shards:?}");
        }
    }

    #[test]
    fn shards_share_the_union_alphabet() {
        let sm = sharded(&["a{3}", "[ab]{2}x", "\\d{4}"], &[vec![0, 1], vec![2]]);
        // Union classes: {a}, {b}, {x}, digits, rest — even though shard 1
        // alone would only need {digits, rest}.
        assert_eq!(sm.alphabet().len(), 5);
        for shard in sm.shards() {
            assert_eq!(shard.alphabet().len(), 5, "every shard sees the union");
        }
        assert_eq!(sm.pattern_count(), 3);
        assert_eq!(sm.shard_members(1), &[2]);
    }

    #[test]
    fn merge_with_alphabet_accepts_finer_partitions() {
        // An alphabet refined by predicates the pattern never uses is fine.
        let nca = stream_nca("a{2}b");
        let mut class_set = ByteClassSet::new();
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
        class_set.add(&recama_syntax::ByteClass::digit()); // extra refinement
        let parts = [(&nca, CompilePlan::conservative(&nca))];
        let m = MultiNca::merge_with_alphabet(&parts, class_set.freeze());
        let reports = m.engine().match_reports(b"xaab aab");
        assert_eq!(reports.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every pattern")]
    fn sharded_merge_rejects_incomplete_partitions() {
        sharded(&["ab", "cd"], &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "partition the pattern indices")]
    fn sharded_merge_rejects_duplicates() {
        sharded(&["ab", "cd"], &[vec![0, 1], vec![1]]);
    }

    #[test]
    fn shard_streams_translate_and_resume_independently() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab", "k\\d{2}"];
        let input = b"abbc.aaa.xyz.cab.k42.abbbc";
        let mut expected = multi(&patterns).engine().match_reports(input);
        expected.sort();

        let sm = sharded(&patterns, &[vec![0, 1], vec![2, 3], vec![4]]);
        let mut streams = sm.shard_streams_with(ScanMode::Nca);
        let mut got = Vec::new();
        // Advance shards at *different* rates and in arbitrary order —
        // each keeps its own position in the logical stream.
        for (si, stream) in streams.iter_mut().enumerate() {
            assert_eq!(stream.shard(), si);
            for chunk in input.chunks(si + 1) {
                stream.feed_into(chunk, &mut got);
            }
            assert_eq!(stream.position(), input.len() as u64);
        }
        got.sort();
        assert_eq!(got, expected, "reports carry global pattern ids");
    }

    #[test]
    fn conflicts_stay_zero_with_sound_plans() {
        let patterns = [".*a{3}", "k.{2,5}z"];
        let m = multi(&patterns);
        let mut engine = m.engine();
        engine.match_reports(b"aaaa k..z aaa kzzzzz");
        assert_eq!(engine.conflicts(), 0);
    }

    /// Differential: the ported counting-set queue pass must be
    /// byte-identical to the bit-vector plan on bounded-repeat rulesets,
    /// across chunk boundaries.
    #[test]
    fn counting_set_multi_engine_matches_bitvector_plan() {
        let rulesets: [&[&str]; 3] = [
            &[".*a{3}", "k.{2,5}z", "ab{2,3}c"],
            &["x[ab]{2,5}y", "a{2,3}c{2,3}", "plain"],
            &[".*[ab][^a]{3}", "b{4}", "^q{2,4}t"],
        ];
        for patterns in rulesets {
            let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
            let queue_parts: Vec<(&Nca, CompilePlan)> = ncas
                .iter()
                .map(|n| (n, CompilePlan::counting_sets(n)))
                .collect();
            let bits_parts: Vec<(&Nca, CompilePlan)> = ncas
                .iter()
                .map(|n| (n, CompilePlan::conservative(n)))
                .collect();
            let queues = MultiNca::merge(&queue_parts);
            assert!(
                queues
                    .plan()
                    .iter()
                    .any(|(_, m)| m == StorageMode::CountingSet),
                "{patterns:?}: ruleset must exercise the queue pass"
            );
            let bits = MultiNca::merge(&bits_parts);
            for input in [
                &b"aaaa k..z abbc kzzzzz"[..],
                b"xaby xabababy aacc aaccc plain",
                b"bbbb qqt abxxx kaaz",
                b"",
            ] {
                let expected = bits.engine().match_reports(input);
                assert_eq!(
                    queues.engine().match_reports(input),
                    expected,
                    "{patterns:?} on {:?}",
                    String::from_utf8_lossy(input)
                );
                // Chunked feeding hits the stamp-based lazy clears too.
                for chunk_len in [1usize, 2, 5] {
                    let mut engine = queues.engine();
                    let mut got = Vec::new();
                    for chunk in input.chunks(chunk_len) {
                        engine.feed_into(chunk, &mut got);
                    }
                    assert_eq!(got, expected, "chunk length {chunk_len}");
                }
            }
        }
    }

    /// The optimized plan (analysis + counting sets) stays exact on the
    /// merged engine.
    #[test]
    fn optimized_plan_agrees_with_conservative() {
        let patterns = [".*a{3}", "ab{2,3}c", "x[yz]{2}", "k.{2,5}z"];
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let opt_parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::optimized(n, |_| false)))
            .collect();
        let opt = MultiNca::merge(&opt_parts);
        let baseline = multi(&patterns);
        for input in [&b"aaaa abbc xyz kxxz"[..], b"abbbc k....z aaa"] {
            assert_eq!(
                opt.engine().match_reports(input),
                baseline.engine().match_reports(input)
            );
        }
    }
}
