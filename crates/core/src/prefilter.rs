//! Literal prefiltering (multi-pattern matching): compile-time required-
//! literal extraction plus per-shard Aho-Corasick filters that let the
//! serving layers skip scanning cold `(flow, shard)` units entirely.
//!
//! Production IDS engines never run the full automaton over benign
//! bytes: Suricata routes every rule through a prefilter/MPM stage, and
//! the hardware literature (Wu-Manber, Aho-Corasick codesign) scales
//! literal filtering to malware-grade rulesets. This module is that
//! stage for recama:
//!
//! * **Extraction** ([`extract`]) is a conservative analysis over the
//!   parsed [`Regex`]: a rule contributes a literal only if *every*
//!   match must contain it, with a bounded **lead** — an upper bound on
//!   the number of bytes from the start of a match to the end of the
//!   literal occurrence. Rules with no usable literal (alternations,
//!   classes, unbounded repetition before every literal, nullable
//!   rules) are marked **always-on**.
//! * **Filtering** ([`ShardPrefilter`]) builds one flat goto-table
//!   Aho-Corasick automaton per shard over the set's shared byte-class
//!   alphabet, streaming-resumable (a [`PrefilterState`] node survives
//!   chunk boundaries, so a literal split across chunks is still
//!   found). A shard containing any always-on rule gets no filter.
//! * **Skipping** is *sticky-cold → sticky-hot*: a `(flow, shard)` unit
//!   is **cold** until the filter sees any literal end in the flow's
//!   bytes. While cold, no match of the shard's rules can end anywhere
//!   (every match needs a literal that has not occurred), so the chunk
//!   is skipped — it still advances the filter state and the flow
//!   offsets. On the first candidate the unit turns hot **forever** and
//!   the engine teleports to `chunk_start + 1 − lead_window` via
//!   [`ShardStream::restart_at`](recama_nca::ShardStream::restart_at),
//!   replaying at most `lead_window` tail bytes: any true match ending
//!   at or after the candidate chunk starts inside the replayed window
//!   (its literal ends after the chunk start, and the lead bound caps
//!   how far back it begins), and a fresh `Σ*` frontier finds all such
//!   matches identically — so filtered output is **byte-identical** to
//!   unfiltered, pinned by `tests/prefilter_differential.rs`.

use recama_syntax::{ByteAlphabet, Parsed, Regex};

/// Whether compiled sets consult the literal prefilter; set at build
/// time via [`EngineBuilder::prefilter`](crate::EngineBuilder::prefilter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterMode {
    /// Extract literals and skip cold `(flow, shard)` units (the
    /// default). Output is byte-identical to [`PrefilterMode::Off`].
    #[default]
    On,
    /// Never consult the filter: every unit scans every byte. The
    /// escape hatch for measuring the filter's effect (and the mode CI
    /// exercises to pin the identity).
    Off,
}

/// Prefilter counters, reported beside
/// [`HybridStats`](crate::HybridStats) by
/// [`ServiceMetrics`](crate::ServiceMetrics) (`None` under
/// [`PrefilterMode::Off`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefilterMetrics {
    /// Per shard: `(flow, shard)` chunk scans skipped because the unit
    /// was cold.
    pub skipped_units: Vec<u64>,
    /// Per shard: bytes those skipped scans would have walked.
    pub skipped_bytes: Vec<u64>,
    /// Cold units woken by a literal candidate (each wake is the unit's
    /// single cold→hot transition; hot units scan everything).
    pub candidate_hits: u64,
    /// Rules with no usable required literal; a shard containing one
    /// always scans.
    pub always_on_rules: usize,
}

impl PrefilterMetrics {
    /// Sum of [`skipped_units`](PrefilterMetrics::skipped_units) across
    /// shards.
    pub fn total_skipped_units(&self) -> u64 {
        self.skipped_units.iter().sum()
    }

    /// Sum of [`skipped_bytes`](PrefilterMetrics::skipped_bytes) across
    /// shards.
    pub fn total_skipped_bytes(&self) -> u64 {
        self.skipped_bytes.iter().sum()
    }
}

/// Auto-resizing per-shard counter vector — the accumulation primitive
/// of the service's metrics (scan counts, scan bytes, and both
/// prefilter counters all use it).
#[derive(Debug, Default, Clone)]
pub(crate) struct PerShard(Vec<u64>);

impl PerShard {
    pub(crate) fn add(&mut self, shard: usize, n: u64) {
        if self.0.len() <= shard {
            self.0.resize(shard + 1, 0);
        }
        self.0[shard] += n;
    }

    /// The counters, padded with zeros to at least `shards` entries.
    pub(crate) fn snapshot(&self, shards: usize) -> Vec<u64> {
        let mut v = self.0.clone();
        if v.len() < shards {
            v.resize(shards, 0);
        }
        v
    }
}

/// Mutable prefilter counters of one service; snapshotted into
/// [`PrefilterMetrics`].
#[derive(Debug, Default)]
pub(crate) struct PrefilterCounters {
    pub(crate) skipped_units: PerShard,
    pub(crate) skipped_bytes: PerShard,
    pub(crate) candidate_hits: u64,
}

impl PrefilterCounters {
    pub(crate) fn snapshot(&self, shards: usize, always_on_rules: usize) -> PrefilterMetrics {
        PrefilterMetrics {
            skipped_units: self.skipped_units.snapshot(shards),
            skipped_bytes: self.skipped_bytes.snapshot(shards),
            candidate_hits: self.candidate_hits,
            always_on_rules,
        }
    }
}

/// A required literal extracted from one rule: every match of the rule
/// contains `lit` as a contiguous substring, and the literal's last
/// byte is at most `lead` bytes after the start of the match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Extraction {
    pub(crate) lit: Vec<u8>,
    pub(crate) lead: u64,
}

/// Leads beyond this make a literal unusable (the wake-up replay window
/// — and the per-flow tail buffer — would grow without bound).
const MAX_LEAD: u64 = 256;

/// Bounded singleton repeats up to this count are expanded into the
/// literal run (`ab{2,3}c` contributes `abb`).
const REPEAT_EXPAND_CAP: u32 = 64;

/// Extracts a required literal with bounded lead from a parsed rule, or
/// `None` if the rule must be always-on. Conservative in both
/// directions that matter: a returned literal really is contained in
/// every match (so skipping cold units loses nothing), and its lead
/// really bounds the match start (so the wake-up replay window
/// suffices).
pub(crate) fn extract(parsed: &Parsed) -> Option<Extraction> {
    let r = &parsed.regex;
    // A nullable rule matches the empty string at every position: no
    // literal is required. A void rule never matches; always-on is a
    // harmless (and simplest) classification.
    if r.nullable() || r.is_void() {
        return None;
    }
    let mut w = Walk {
        prefix: Some(0), // a match starts 0 bytes before its own start
        ..Walk::default()
    };
    w.walk(r);
    w.flush();
    w.best
}

/// Upper bound on the number of bytes a match of `r` can span (`None`
/// if unbounded).
fn max_len(r: &Regex) -> Option<u64> {
    match r {
        Regex::Empty | Regex::Void => Some(0),
        Regex::Class(_) => Some(1),
        Regex::Concat(parts) => parts.iter().try_fold(0u64, |a, p| Some(a + max_len(p)?)),
        Regex::Alt(parts) => parts.iter().try_fold(0u64, |a, p| Some(a.max(max_len(p)?))),
        Regex::Star(inner) => match max_len(inner) {
            Some(0) => Some(0),
            _ => None,
        },
        Regex::Repeat { inner, max, .. } => match (max, max_len(inner)) {
            (_, Some(0)) => Some(0),
            (Some(m), Some(l)) => Some(u64::from(*m) * l),
            _ => None,
        },
    }
}

/// The left-to-right extraction walk: accumulates the current literal
/// run of contiguous single-byte atoms while tracking `prefix`, an
/// upper bound on the bytes from the match start to the current point
/// (`None` once unbounded — a later literal's lead cannot be bounded).
#[derive(Default)]
struct Walk {
    prefix: Option<u64>,
    run: Vec<u8>,
    /// `prefix` when the current run began.
    run_start: Option<u64>,
    best: Option<Extraction>,
}

impl Walk {
    fn walk(&mut self, r: &Regex) {
        match r {
            Regex::Empty | Regex::Void => {}
            Regex::Class(c) => {
                if c.len() == 1 {
                    self.push_byte(c.min_byte().expect("nonempty class"));
                } else {
                    self.flush();
                    self.advance(Some(1));
                }
            }
            Regex::Concat(parts) => {
                for p in parts {
                    self.walk(p);
                }
            }
            // Alternations are opaque: no arm's literal is required by
            // the others, and intersecting arm literals is not worth the
            // complexity for the rulesets at hand.
            Regex::Alt(parts) => {
                self.flush();
                self.advance(parts.iter().try_fold(0u64, |a, p| Some(a.max(max_len(p)?))));
            }
            Regex::Star(inner) => {
                self.flush();
                self.advance(match max_len(inner) {
                    Some(0) => Some(0),
                    _ => None,
                });
            }
            Regex::Repeat { inner, min, max } => self.repeat(inner, *min, *max),
        }
    }

    fn repeat(&mut self, inner: &Regex, min: u32, max: Option<u32>) {
        let singleton = match inner {
            Regex::Class(c) if c.len() == 1 => c.min_byte(),
            _ => None,
        };
        match singleton {
            // σ{m,n} with a single byte: the first m copies are
            // contiguous with whatever literal run precedes them.
            Some(b) if (1..=REPEAT_EXPAND_CAP).contains(&min) => {
                for _ in 0..min {
                    self.push_byte(b);
                }
                if max != Some(min) {
                    // The boundary after the m-th copy is variable.
                    self.flush();
                    self.advance(max.map(|mx| u64::from(mx - min)));
                }
            }
            // A non-singleton body occurring at least once: its first
            // iteration is required and contiguous, so recurse into it;
            // further iterations only stretch the prefix.
            None if min >= 1 => {
                self.walk(inner);
                if max != Some(1) {
                    self.flush();
                    self.advance(max.and_then(|mx| Some(u64::from(mx - 1) * max_len(inner)?)));
                }
            }
            // min == 0 (nothing required) or an over-cap singleton run.
            _ => {
                self.flush();
                self.advance(max.and_then(|mx| Some(u64::from(mx) * max_len(inner)?)));
            }
        }
    }

    fn push_byte(&mut self, b: u8) {
        if self.run.is_empty() {
            self.run_start = self.prefix;
        }
        self.run.push(b);
        self.prefix = self.prefix.map(|p| p + 1);
    }

    /// Adds `bytes` (an upper bound, `None` = unbounded) to the prefix.
    fn advance(&mut self, bytes: Option<u64>) {
        self.prefix = match (self.prefix, bytes) {
            (Some(p), Some(b)) => Some(p + b),
            _ => None,
        };
    }

    /// Ends the current literal run and keeps it if it beats the best
    /// candidate so far (longer wins; shorter lead breaks ties).
    fn flush(&mut self) {
        if !self.run.is_empty() {
            if let Some(start) = self.run_start {
                let lead = start + self.run.len() as u64;
                if lead <= MAX_LEAD {
                    let better = match &self.best {
                        None => true,
                        Some(best) => {
                            self.run.len() > best.lit.len()
                                || (self.run.len() == best.lit.len() && lead < best.lead)
                        }
                    };
                    if better {
                        self.best = Some(Extraction {
                            lit: std::mem::take(&mut self.run),
                            lead,
                        });
                    }
                }
            }
            self.run.clear();
        }
        self.run_start = None;
    }
}

/// A flat goto-table Aho-Corasick automaton over the set's shared
/// byte-class alphabet (`goto[node × stride + class]`), fully
/// determinized at build time (failure links are folded into the table,
/// so advancing is one lookup per byte). Matching over classes instead
/// of raw bytes can only *over*-report (two bytes sharing a class are
/// indistinguishable), which wakes a unit early but never skips a real
/// candidate — and singleton predicates get singleton classes from the
/// set's alphabet anyway, so in practice the filter is exact.
#[derive(Debug)]
pub(crate) struct ShardPrefilter {
    table: Vec<u32>,
    out: Vec<bool>,
    stride: usize,
    /// Max lead among this shard's literals: the wake-up replay window.
    window: u64,
}

impl ShardPrefilter {
    fn build(lits: &[&Extraction], alphabet: &ByteAlphabet) -> ShardPrefilter {
        const NONE: u32 = u32::MAX;
        let stride = alphabet.len().max(1);
        let mut table: Vec<u32> = vec![NONE; stride];
        let mut out = vec![false];
        let mut window = 0u64;
        for ex in lits {
            window = window.max(ex.lead);
            let mut node = 0usize;
            for &b in &ex.lit {
                let c = alphabet.class_of(b);
                let next = table[node * stride + c];
                node = if next == NONE {
                    let fresh = out.len();
                    table[node * stride + c] = fresh as u32;
                    table.extend(std::iter::repeat_n(NONE, stride));
                    out.push(false);
                    fresh
                } else {
                    next as usize
                };
            }
            out[node] = true;
        }
        // BFS determinization: missing root edges self-loop, missing
        // deeper edges inherit the failure node's (already determinized)
        // edge, and outputs propagate along failure links.
        let mut fail = vec![0u32; out.len()];
        let mut queue = std::collections::VecDeque::new();
        for slot in table.iter_mut().take(stride) {
            if *slot == NONE {
                *slot = 0;
            } else {
                queue.push_back(*slot as usize);
            }
        }
        while let Some(u) = queue.pop_front() {
            let f = fail[u] as usize;
            out[u] = out[u] || out[f];
            for c in 0..stride {
                let v = table[u * stride + c];
                if v == NONE {
                    table[u * stride + c] = table[f * stride + c];
                } else {
                    fail[v as usize] = table[f * stride + c];
                    queue.push_back(v as usize);
                }
            }
        }
        ShardPrefilter {
            table,
            out,
            stride,
            window,
        }
    }

    /// The wake-up replay window: no match ending at or after a cold
    /// unit's first candidate starts more than this many bytes before
    /// the candidate chunk's first literal end.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Advances `node` over `chunk`, returning `true` as soon as any
    /// literal ends. On a hit the node is **not** advanced further —
    /// the unit turns hot and never consults the filter again.
    pub(crate) fn advance(&self, node: &mut u32, alphabet: &ByteAlphabet, chunk: &[u8]) -> bool {
        let mut n = *node as usize;
        for &b in chunk {
            n = self.table[n * self.stride + alphabet.class_of(b)] as usize;
            if self.out[n] {
                *node = n as u32;
                return true;
            }
        }
        *node = n as u32;
        false
    }

    /// Whether any literal occurs in `haystack` (block-mode gate: a
    /// one-shot scan of a haystack with no candidate cannot match).
    pub(crate) fn contains(&self, alphabet: &ByteAlphabet, haystack: &[u8]) -> bool {
        let mut node = 0u32;
        self.advance(&mut node, alphabet, haystack)
    }
}

/// The compiled prefilter of a whole set: one optional
/// [`ShardPrefilter`] per shard (`None` ⇒ the shard contains an
/// always-on rule and must scan everything), sharing the set's
/// byte-class alphabet.
#[derive(Debug)]
pub(crate) struct SetPrefilter {
    alphabet: ByteAlphabet,
    shards: Vec<Option<ShardPrefilter>>,
    always_on_rules: usize,
    /// Max window over all shard filters: how many trailing bytes a
    /// flow's tail buffer must retain for wake-up replay.
    max_window: u64,
}

impl SetPrefilter {
    /// Builds the per-shard filters from the rules' parse trees and the
    /// shard plan. `alphabet` is the set's shared byte-class alphabet.
    pub(crate) fn build(
        parsed: &[Parsed],
        shards: &[Vec<usize>],
        alphabet: ByteAlphabet,
    ) -> SetPrefilter {
        let extractions: Vec<Option<Extraction>> = parsed.iter().map(extract).collect();
        let always_on_rules = extractions.iter().filter(|e| e.is_none()).count();
        let shard_filters: Vec<Option<ShardPrefilter>> = shards
            .iter()
            .map(|members| {
                let lits: Option<Vec<&Extraction>> =
                    members.iter().map(|&g| extractions[g].as_ref()).collect();
                lits.map(|lits| ShardPrefilter::build(&lits, &alphabet))
            })
            .collect();
        let max_window = shard_filters
            .iter()
            .flatten()
            .map(ShardPrefilter::window)
            .max()
            .unwrap_or(0);
        SetPrefilter {
            alphabet,
            shards: shard_filters,
            always_on_rules,
            max_window,
        }
    }

    /// Shard `i`'s filter (`None` ⇒ always-on).
    pub(crate) fn shard(&self, i: usize) -> Option<&ShardPrefilter> {
        self.shards.get(i).and_then(Option::as_ref)
    }

    /// The shared byte-class alphabet the filters index with.
    pub(crate) fn alphabet(&self) -> &ByteAlphabet {
        &self.alphabet
    }

    /// Rules with no usable literal.
    pub(crate) fn always_on_rules(&self) -> usize {
        self.always_on_rules
    }

    /// Decides what a cold-capable `(flow, shard)` unit does with a
    /// chunk starting at absolute offset `chunk_start` (≥ `base`, the
    /// position the unit's engine counts from — 0 for streams, the
    /// epoch base for the service). Hot units and
    /// filterless shards always scan.
    pub(crate) fn chunk_action(
        &self,
        shard: usize,
        state: &mut PrefilterState,
        chunk: &[u8],
        chunk_start: u64,
        base: u64,
    ) -> ChunkAction {
        if state.hot {
            return ChunkAction::Scan;
        }
        let Some(filter) = self.shard(shard) else {
            state.hot = true;
            return ChunkAction::Scan;
        };
        if filter.advance(&mut state.node, &self.alphabet, chunk) {
            state.hot = true;
            // The first literal end in the flow is at or after
            // chunk_start + 1, so every match ending from here on
            // starts at or after chunk_start + 1 − window.
            let replay_start = (chunk_start + 1).saturating_sub(filter.window()).max(base);
            ChunkAction::Wake { replay_start }
        } else {
            ChunkAction::Skip
        }
    }

    /// Appends `chunk` to a flow's tail buffer, keeping only the last
    /// `max_window` bytes (all any wake-up can replay).
    pub(crate) fn extend_tail(&self, tail: &mut Vec<u8>, chunk: &[u8]) {
        let w = self.max_window as usize;
        if w == 0 {
            return;
        }
        if chunk.len() >= w {
            tail.clear();
            tail.extend_from_slice(&chunk[chunk.len() - w..]);
        } else {
            let keep = (w - chunk.len()).min(tail.len());
            tail.drain(..tail.len() - keep);
            tail.extend_from_slice(chunk);
        }
    }
}

/// The streaming filter state of one `(flow, shard)` unit: the AC node
/// (literals straddling chunk boundaries resume here) and the sticky
/// hot flag.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PrefilterState {
    pub(crate) node: u32,
    pub(crate) hot: bool,
}

impl PrefilterState {
    /// Back to cold at the start of a (new) stream — used when a flow
    /// opens, reopens, or migrates to a new engine epoch.
    pub(crate) fn reset(&mut self) {
        *self = PrefilterState::default();
    }
}

/// What a unit does with one buffered chunk (see
/// [`SetPrefilter::chunk_action`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkAction {
    /// Scan normally (hot unit, filterless shard, or prefilter off).
    Scan,
    /// Cold and no candidate: advance the unit's position past the
    /// chunk without scanning (the engine stays fresh).
    Skip,
    /// Cold unit saw its first candidate: restart the engine at
    /// `replay_start`, replay the tail bytes `[replay_start,
    /// chunk_start)`, then scan the chunk. The unit is hot from now on.
    Wake {
        /// Absolute offset the engine restarts at.
        replay_start: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::parse;

    fn ex(pattern: &str) -> Option<Extraction> {
        extract(&parse(pattern).unwrap())
    }

    #[test]
    fn extraction_finds_required_literals() {
        let e = ex("ab{2,3}c").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abb"[..], 3));
        let e = ex("xyz").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"xyz"[..], 3));
        let e = ex("k[0-9]{2,4}m").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"k"[..], 1));
        let e = ex("foo\\d+bar").unwrap();
        assert_eq!(e.lit, b"foo", "literal after \\d+ has unbounded lead");
        let e = ex("ab{3}cd").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abbbcd"[..], 6));
        let e = ex("(abc){2,4}").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abc"[..], 3));
    }

    #[test]
    fn extraction_marks_always_on() {
        assert_eq!(ex("[ab]{3}"), None, "classes defeat extraction");
        assert_eq!(ex("a*"), None, "nullable");
        assert_eq!(ex("(ab|cd)"), None, "alternation is opaque");
        assert_eq!(ex(".*"), None);
        // A literal *after* unbounded repetition is required but its
        // lead is unbounded; with nothing before, the rule is always-on.
        assert_eq!(ex(".*xyz"), None);
        // ... but a bounded-lead literal before it is still usable.
        let e = ex("ab.*xyz").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"ab"[..], 2));
    }

    #[test]
    fn anchors_do_not_change_extraction() {
        let e = ex("^xyz$").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"xyz"[..], 3));
    }

    #[test]
    fn ac_filter_finds_literals_across_chunks() {
        let a = parse("abbc").unwrap();
        let b = parse("xyz").unwrap();
        let parsed = vec![a, b];
        let mut classes = recama_syntax::ByteClassSet::new();
        for p in &parsed {
            // Singleton predicates, as the NCA alphabet would see them.
            for byte in p.regex.to_string().bytes() {
                classes.add(&recama_syntax::ByteClass::singleton(byte));
            }
        }
        let pf = SetPrefilter::build(&parsed, &[vec![0, 1]], classes.freeze());
        let f = pf.shard(0).expect("both rules have literals");
        let al = pf.alphabet();
        assert!(f.contains(al, b"..abbc.."));
        assert!(f.contains(al, b"xyz"));
        assert!(!f.contains(al, b"ab bc xy z"));
        // Streaming: "xy|z" split across an advance boundary.
        let mut node = 0u32;
        assert!(!f.advance(&mut node, al, b"..xy"));
        assert!(f.advance(&mut node, al, b"z.."));
    }

    #[test]
    fn chunk_action_wakes_with_bounded_replay() {
        let parsed = vec![parse("ab{2,3}c").unwrap()];
        let mut classes = recama_syntax::ByteClassSet::new();
        for byte in [b'a', b'b', b'c'] {
            classes.add(&recama_syntax::ByteClass::singleton(byte));
        }
        let pf = SetPrefilter::build(&parsed, &[vec![0]], classes.freeze());
        let mut st = PrefilterState::default();
        assert_eq!(
            pf.chunk_action(0, &mut st, b"....", 0, 0),
            ChunkAction::Skip
        );
        assert!(!st.hot);
        // "ab" then "b" across the boundary: the literal "abb" ends in
        // the second chunk, with lead 3 ⇒ replay from 6 + 1 − 3 = 4.
        assert_eq!(
            pf.chunk_action(0, &mut st, b"..ab", 4, 0),
            ChunkAction::Skip
        );
        assert_eq!(
            pf.chunk_action(0, &mut st, b"bc", 8, 0),
            ChunkAction::Wake { replay_start: 6 }
        );
        assert!(st.hot);
        // Hot units scan unconditionally.
        assert_eq!(
            pf.chunk_action(0, &mut st, b"....", 10, 0),
            ChunkAction::Scan
        );
    }

    #[test]
    fn tail_buffer_keeps_the_window() {
        let parsed = vec![parse("ab{2,3}c").unwrap()]; // window 3
        let mut classes = recama_syntax::ByteClassSet::new();
        classes.add(&recama_syntax::ByteClass::singleton(b'a'));
        let pf = SetPrefilter::build(&parsed, &[vec![0]], classes.freeze());
        let mut tail = Vec::new();
        pf.extend_tail(&mut tail, b"xy");
        assert_eq!(tail, b"xy");
        pf.extend_tail(&mut tail, b"z");
        assert_eq!(tail, b"xyz");
        pf.extend_tail(&mut tail, b"w");
        assert_eq!(tail, b"yzw");
        pf.extend_tail(&mut tail, b"longchunk");
        assert_eq!(tail, b"unk");
    }
}
