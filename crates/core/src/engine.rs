//! [`Engine`]: the one builder-based facade over compile, scan, stream,
//! and flow serving.
//!
//! The paper's pipeline is a single conceptual object — regexes in, a
//! CAMA-mapped multi-pattern machine out — and this module gives it a
//! single API shape, mirroring the design that scaled for software
//! matchers (Hyperscan's `hs_compile_multi` + scratch/stream handles):
//! one compile-time builder, one compiled artifact, cheap per-use
//! handles.
//!
//! * [`Engine::builder`] collects rules (with optional per-rule ids), a
//!   [`ShardPolicy`], [`CompileOptions`], a worker count, and a
//!   [`ServeConfig`];
//! * [`EngineBuilder::build`] compiles everything into an [`Engine`] —
//!   or a structured [`CompileError`] naming the failing rule's index,
//!   source text, and pipeline phase;
//! * the `Engine` then hands out the per-use handles:
//!   [`scan`](Engine::scan) / [`scan_spans`](Engine::scan_spans) for
//!   block mode, [`stream`](Engine::stream) for one resumable flow, and
//!   [`serve`](Engine::serve) for many flows: the owned, long-lived
//!   [`ServiceHandle`] with backpressure, idle-flow eviction, and hot
//!   reload.
//!
//! The builder is the only way to compile a ruleset. A single-bank
//! (unsharded) machine image is the same builder with
//! [`ShardPolicy::Single`].

use crate::prefilter::PrefilterMode;
#[cfg(feature = "fault-inject")]
use crate::service::FaultPlan;
use crate::service::ServiceHandle;
use crate::set::{SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream};
use recama_compiler::{CompileOptions, CompileOutput};
use recama_hw::{ShardPlan, ShardPolicy};
use recama_mnrl::MnrlNetwork;
use recama_nca::ScanMode;
use recama_syntax::ParseError;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The pipeline phase in which compiling a rule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilePhase {
    /// Parsing / fragment support (`syntax`): the only phase that can
    /// fail — mapping and sharding are total.
    Parse,
}

impl fmt::Display for CompilePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompilePhase::Parse => "parse",
        })
    }
}

/// A structured ruleset-compile failure: which rule (by input index),
/// its source text, the pipeline [`CompilePhase`] that rejected it, and
/// the underlying error.
///
/// ```
/// use recama::{CompilePhase, Engine};
///
/// let err = Engine::builder()
///     .patterns(["ok", "bad(", "ok2"])
///     .build()
///     .unwrap_err();
/// assert_eq!(err.index, 1);
/// assert_eq!(err.pattern, "bad(");
/// assert_eq!(err.phase, CompilePhase::Parse);
/// ```
#[derive(Debug, Clone)]
pub struct CompileError {
    /// Index of the offending rule in the order it was added.
    pub index: usize,
    /// The rule's source text.
    pub pattern: String,
    /// The pipeline phase that rejected it.
    pub phase: CompilePhase,
    /// The underlying parse/support error.
    pub error: ParseError,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern #{} (`{}`) failed in {} phase: {}",
            self.index, self.pattern, self.phase, self.error
        )
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A rule a lossy ([`EngineBuilder::lossy`]) build skipped, queryable
/// via [`Engine::skipped`]: real rulesets always contain
/// out-of-fragment rules (Table 1's unsupported rows), and deployments
/// need to report *which* rules are not being enforced.
#[derive(Debug, Clone)]
pub struct SkippedRule {
    /// Index of the rule in the order it was added to the builder.
    pub index: usize,
    /// The rule's id (explicit from [`EngineBuilder::rule`], or the
    /// add-order index).
    pub id: u64,
    /// The rule's source text.
    pub pattern: String,
    /// Why it was skipped.
    pub error: ParseError,
}

/// What the service does when a worker panics mid-scan — the fault
/// policy of [`ServeConfig::fault_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPolicy {
    /// Isolate the fault: the panic **quarantines only the offending
    /// flow** (its engines are freed, its epoch pin released, its
    /// already-merged reports stay pollable, and
    /// [`push_checked`](ServiceHandle::push_checked) /
    /// [`poll_checked`](ServiceHandle::poll_checked) on it return a
    /// [`ServeError::Quarantined`](crate::ServeError::Quarantined)
    /// carrying the panic message), while every other flow keeps
    /// flowing. The panicked worker is respawned under
    /// [`restart_budget`](ServeConfig::restart_budget) with exponential
    /// [`restart_backoff`](ServeConfig::restart_backoff); only when the
    /// budget is exhausted does the service fall back to fail-stop
    /// poisoning. The default.
    #[default]
    Isolate,
    /// Fail-stop, for callers that prefer to die loudly: the first
    /// worker panic poisons the whole service — every blocking call on
    /// every flow then panics with the payload summary (also available
    /// as [`panic_message`](ServiceHandle::panic_message)), and the
    /// checked calls return
    /// [`ServeError::Poisoned`](crate::ServeError::Poisoned).
    FailStop,
}

/// High-watermark overload shedding for an owned [`ServiceHandle`] —
/// the policy behind [`ServeConfig::overload`].
///
/// When either watermark is reached the service is *overloaded*:
/// [`try_open_flow`](ServiceHandle::try_open_flow) sheds new opens
/// (returning [`ServeError::Overloaded`](crate::ServeError::Overloaded)
/// and counting
/// [`shed_opens`](crate::FaultMetrics::shed_opens)) instead of
/// admitting more traffic into an already-drowning queue. The default
/// policy disables both watermarks — nothing sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OverloadPolicy {
    /// Readiness-queue depth (pending `(flow, shard)` scan units) at or
    /// above which new opens are shed. `None` (default) disables the
    /// watermark.
    pub max_queue_depth: Option<usize>,
    /// Buffered-but-unscanned bytes (the service-wide
    /// [`pending_bytes`](crate::ServiceMetrics::pending_bytes)) at or
    /// above which new opens are shed. `None` (default) disables the
    /// watermark.
    pub max_pending_bytes: Option<u64>,
    /// Evict the least-recently-pushed drained open flow whenever an
    /// open is shed, so sustained overload reclaims capacity instead of
    /// only refusing work. Evictions are counted in
    /// [`budget_evictions`](crate::ServiceMetrics::budget_evictions).
    /// Default `false`.
    pub evict_on_shed: bool,
}

/// Configuration of an owned [`ServiceHandle`] (see [`Engine::serve`]):
/// the per-flow and global byte budgets, idle eviction, the
/// bounded-flow-table, sweep-cadence, fault-tolerance, and
/// overload-shedding controls of the long-lived serving shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-flow input budget in bytes — the admission rule of
    /// [`ServiceHandle::try_push`]: a chunk is accepted if the flow
    /// currently buffers **nothing** (so chunks larger than the whole
    /// budget still make progress), or if `buffered + chunk.len()`
    /// stays within this budget; otherwise `Poll::Pending`.
    pub flow_budget: usize,
    /// Evict (close) flows that have seen no push *attempt* for this
    /// long — a backpressured producer whose `try_push` keeps returning
    /// `Pending` still counts as activity. `None` disables idle
    /// eviction. Eviction still scans every buffered byte and resolves
    /// `$`-anchored finishing matches, exactly like an explicit close.
    pub idle_timeout: Option<Duration>,
    /// Cadence of the idle-eviction sweep. `None` (the default) follows
    /// `idle_timeout`; set it explicitly to sweep more or less often
    /// than flows time out.
    pub sweep_interval: Option<Duration>,
    /// Flow-table budget: opening a flow beyond this many live flows
    /// first evicts the least-recently-pushed *drained* open flow
    /// (recorded in [`ServiceMetrics::budget_evictions`]). Sized toward
    /// the ~10⁶-concurrent-flow serving target by default. If nothing
    /// is evictable the table overshoots and the overshoot is counted
    /// in [`ServiceMetrics::backpressure`].
    ///
    /// [`ServiceMetrics::budget_evictions`]: crate::ServiceMetrics::budget_evictions
    /// [`ServiceMetrics::backpressure`]: crate::ServiceMetrics::backpressure
    pub max_flows: usize,
    /// Global buffered-byte budget across all flows: `try_push` returns
    /// `Poll::Pending` (and counts backpressure) once accepting the
    /// chunk would push the service's total buffered bytes past this.
    pub max_buffered_bytes: u64,
    /// What a worker panic mid-scan does to the service: quarantine the
    /// offending flow and respawn the worker
    /// ([`FaultPolicy::Isolate`], the default), or poison the whole
    /// service ([`FaultPolicy::FailStop`]).
    pub fault_policy: FaultPolicy,
    /// Under [`FaultPolicy::Isolate`], how many worker respawns the
    /// service tolerates in total before it stops trusting itself and
    /// falls back to fail-stop poisoning (counted in
    /// [`fail_stops`](crate::FaultMetrics::fail_stops)). Default `8`.
    /// `0` means the first panic fail-stops (quarantining its flow
    /// first).
    pub restart_budget: u32,
    /// Base delay before a panicked worker is respawned; it doubles on
    /// every consecutive restart of the same worker seat (capped at
    /// 2¹⁶×), so a crash-looping workload degrades into a slow trickle
    /// instead of a hot spin. Default `1ms`; `Duration::ZERO` respawns
    /// immediately.
    pub restart_backoff: Duration,
    /// High-watermark overload shedding (see [`OverloadPolicy`]).
    /// Default: both watermarks disabled — nothing sheds.
    pub overload: OverloadPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            flow_budget: 1 << 20, // 1 MiB per flow
            idle_timeout: None,
            sweep_interval: None,
            max_flows: 1 << 20, // ~10^6 concurrent flows
            max_buffered_bytes: 1 << 30,
            fault_policy: FaultPolicy::Isolate,
            restart_budget: 8,
            restart_backoff: Duration::from_millis(1),
            overload: OverloadPolicy::default(),
        }
    }
}

/// Builder for an [`Engine`] — the single place every compile-time knob
/// lives. Created by [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    rules: Vec<(u64, String)>,
    options: CompileOptions,
    policy: ShardPolicy,
    workers: usize,
    serve: ServeConfig,
    lossy: bool,
    scan_mode: ScanMode,
    prefilter: Option<PrefilterMode>,
    #[cfg(feature = "fault-inject")]
    faults: FaultPlan,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            rules: Vec::new(),
            options: CompileOptions::default(),
            policy: ShardPolicy::default(),
            workers: 1,
            serve: ServeConfig::default(),
            lossy: false,
            scan_mode: ScanMode::default(),
            prefilter: None,
            #[cfg(feature = "fault-inject")]
            faults: FaultPlan::default(),
        }
    }
}

/// The prefilter default when [`EngineBuilder::prefilter`] was never
/// called: [`PrefilterMode::On`] unless `RECAMA_PREFILTER` disables it.
fn env_prefilter_mode() -> PrefilterMode {
    match std::env::var("RECAMA_PREFILTER") {
        Ok(v) if matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false") => {
            PrefilterMode::Off
        }
        _ => PrefilterMode::On,
    }
}

impl EngineBuilder {
    /// Adds one pattern; its rule id defaults to its add-order index.
    pub fn pattern(mut self, pattern: impl AsRef<str>) -> EngineBuilder {
        let id = self.rules.len() as u64;
        self.rules.push((id, pattern.as_ref().to_string()));
        self
    }

    /// Adds one pattern with an explicit rule id (e.g. a Snort SID).
    /// Ids are opaque to the engine — matches report the rule *index*,
    /// and [`Engine::rule_id`] translates.
    pub fn rule(mut self, id: u64, pattern: impl AsRef<str>) -> EngineBuilder {
        self.rules.push((id, pattern.as_ref().to_string()));
        self
    }

    /// Adds many patterns, ids defaulting to their add-order indices.
    pub fn patterns<I>(mut self, patterns: I) -> EngineBuilder
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        for p in patterns {
            self = self.pattern(p);
        }
        self
    }

    /// Sets the [`CompileOptions`] (unfolding threshold, bit-vector
    /// capacity, analysis budget).
    pub fn options(mut self, options: CompileOptions) -> EngineBuilder {
        self.options = options;
        self
    }

    /// Sets the [`ShardPolicy`] partitioning rules into bank-sized
    /// shards. Default: one CAMA bank per shard.
    /// [`ShardPolicy::Single`] collapses to the unsharded (`N = 1`)
    /// machine image.
    pub fn shard_policy(mut self, policy: ShardPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Sets the worker-thread count [`Engine::serve`] spawns (at least
    /// one).
    pub fn workers(mut self, workers: usize) -> EngineBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Sets the [`ServeConfig`] handles from [`Engine::serve`] start
    /// with. Default: [`ServeConfig::default`].
    pub fn serve_config(mut self, config: ServeConfig) -> EngineBuilder {
        self.serve = config;
        self
    }

    /// Sets the [`ScanMode`] every scan, stream, and service handle of
    /// the built engine walks bytes with. The default,
    /// [`ScanMode::Hybrid`] with
    /// [`DEFAULT_STATE_BUDGET`](recama_nca::DEFAULT_STATE_BUDGET)
    /// cached DFA states per engine, overlays a lazy DFA on the pure
    /// (counter-free) part of the frontier and falls back to exact NCA
    /// stepping only while counters are live. [`ScanMode::Nca`] forces
    /// the exact per-byte engine everywhere — the paper-faithful
    /// baseline and the reference the hybrid is differentially tested
    /// against.
    pub fn scan_mode(mut self, mode: ScanMode) -> EngineBuilder {
        self.scan_mode = mode;
        self
    }

    /// Sets the [`PrefilterMode`]. The default, [`PrefilterMode::On`],
    /// extracts a required literal per rule at compile time and builds
    /// one Aho-Corasick filter per shard; scans, streams, and service
    /// handles then skip any `(flow, shard)` unit whose
    /// filter has seen no candidate — with output byte-identical to
    /// [`PrefilterMode::Off`], which disables the filter entirely (the
    /// escape hatch, and the measuring stick for the filter's effect).
    ///
    /// When this knob is never called, the default also honors the
    /// `RECAMA_PREFILTER` environment variable (`off`/`0`/`false`
    /// disable the filter) — the no-recompile operational escape hatch,
    /// which CI uses to run the whole suite with the filter disabled.
    /// An explicit call always wins over the environment.
    pub fn prefilter(mut self, mode: PrefilterMode) -> EngineBuilder {
        self.prefilter = Some(mode);
        self
    }

    /// Sets the deterministic [`FaultPlan`] every [`ServiceHandle`]
    /// served from the built engine injects into its scan loop —
    /// panics and artificial delays at the k-th scan of a chosen
    /// `(flow, shard)`, for chaos-testing the fault-tolerance layer.
    /// Only compiled in under the `fault-inject` cargo feature; release
    /// builds carry no injection hook at all.
    #[cfg(feature = "fault-inject")]
    pub fn fault_plan(mut self, plan: FaultPlan) -> EngineBuilder {
        self.faults = plan;
        self
    }

    /// Makes the build lossy: rules that fail to compile are skipped
    /// (recorded queryably in [`Engine::skipped`]) instead of failing
    /// the build — the tolerant mode real rulesets need.
    pub fn lossy(mut self, lossy: bool) -> EngineBuilder {
        self.lossy = lossy;
        self
    }

    /// Compiles every added rule into an [`Engine`].
    ///
    /// # Errors
    ///
    /// On a strict (default) build, the first failing rule aborts the
    /// build with a [`CompileError`] carrying its index, source text,
    /// and phase. A [`lossy`](EngineBuilder::lossy) build never fails:
    /// failing rules land in [`Engine::skipped`].
    pub fn build(self) -> Result<Engine, CompileError> {
        // Retained (rules cleared) so ServiceHandle::reload_rules can
        // recompile replacement rules with the same knobs.
        let mut template = self.clone();
        template.rules.clear();
        let mut accepted = Vec::with_capacity(self.rules.len());
        let mut ids = Vec::with_capacity(self.rules.len());
        let mut indices = Vec::with_capacity(self.rules.len());
        let mut skipped = Vec::new();
        for (index, (id, source)) in self.rules.into_iter().enumerate() {
            match recama_syntax::parse(&source) {
                Ok(parsed) => {
                    accepted.push((source, parsed));
                    ids.push(id);
                    indices.push(index);
                }
                Err(error) if self.lossy => skipped.push(SkippedRule {
                    index,
                    id,
                    pattern: source,
                    error,
                }),
                Err(error) => {
                    return Err(CompileError {
                        index,
                        pattern: source,
                        phase: CompilePhase::Parse,
                        error,
                    })
                }
            }
        }
        let set = ShardedPatternSet::build(
            accepted,
            &self.options,
            self.policy,
            self.scan_mode,
            self.prefilter.unwrap_or_else(env_prefilter_mode),
        );
        Ok(Engine {
            set: Arc::new(set),
            ids: ids.into(),
            indices,
            skipped,
            workers: self.workers,
            serve: self.serve,
            #[cfg(feature = "fault-inject")]
            faults: self.faults,
            template,
        })
    }
}

/// A compiled ruleset behind one facade: block scans, span location,
/// resumable streams, and long-lived many-flow serving — all from a single [`builder`](Engine::builder)-built
/// artifact.
///
/// ```
/// use recama::Engine;
///
/// let engine = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .build()
///     .unwrap();
///
/// // Block mode: (rule index, end offset) reports, stream order.
/// let hits: Vec<_> = engine
///     .scan(b"zabbc..xyz..k1234")
///     .iter()
///     .map(|m| (m.pattern, m.end))
///     .collect();
/// assert_eq!(hits, vec![(0, 5), (1, 10), (2, 17)]);
///
/// // Streaming: matches may straddle chunk boundaries.
/// let mut stream = engine.stream();
/// assert!(stream.feed(b"..ab").next().is_none());
/// assert_eq!(stream.feed(b"bc").next().unwrap().end, 6);
/// ```
#[derive(Debug)]
pub struct Engine {
    /// Shared so owned [`ServiceHandle`]s can keep the machine image
    /// alive past the `Engine` (the epoch unit of hot reload).
    set: Arc<ShardedPatternSet>,
    /// Rule ids by compiled index (shared with serving epochs, which
    /// translate match reports to stable rule ids).
    ids: Arc<[u64]>,
    /// Builder add-order index by compiled index (they differ when a
    /// lossy build skipped rules).
    indices: Vec<usize>,
    skipped: Vec<SkippedRule>,
    workers: usize,
    serve: ServeConfig,
    /// The deterministic fault-injection plan every served handle
    /// inherits (chaos testing only — absent from normal builds).
    #[cfg(feature = "fault-inject")]
    faults: FaultPlan,
    /// The builder (rules cleared) this engine came from, retained for
    /// [`ServiceHandle::reload_rules`].
    template: EngineBuilder,
}

impl Engine {
    /// Starts a builder with default options (default [`ShardPolicy`]
    /// — one CAMA bank per shard, one worker, strict compile).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Compiles `patterns` with every default — the one-liner for the
    /// common case.
    ///
    /// # Errors
    ///
    /// Same as [`EngineBuilder::build`].
    pub fn new<I>(patterns: I) -> Result<Engine, CompileError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        Engine::builder().patterns(patterns).build()
    }

    // ---- compiled artifact ------------------------------------------

    /// Number of compiled rules (skipped rules not counted).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the engine has no compiled rules.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The source text of compiled rule `i` (the index reported in
    /// [`SetMatch::pattern`]).
    pub fn pattern(&self, i: usize) -> &str {
        self.set.pattern(i)
    }

    /// The id of compiled rule `i` (explicit via
    /// [`EngineBuilder::rule`], or its builder add-order index).
    pub fn rule_id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// The builder add-order index of compiled rule `i`. Differs from
    /// `i` only when a lossy build skipped earlier rules.
    pub fn source_index(&self, i: usize) -> usize {
        self.indices[i]
    }

    /// Rules a [`lossy`](EngineBuilder::lossy) build skipped, in add
    /// order. Empty on strict builds.
    pub fn skipped(&self) -> &[SkippedRule] {
        &self.skipped
    }

    /// Per-rule compiler outputs (module decisions, analyses, NCAs),
    /// indexed like the compiled rules.
    pub fn outputs(&self) -> &[CompileOutput] {
        self.set.outputs()
    }

    /// Number of bank-sized shards the ruleset compiled into (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.set.shard_count()
    }

    /// The shard plan (which rule lives in which shard).
    pub fn plan(&self) -> &ShardPlan {
        self.set.plan()
    }

    /// The merged extended-MNRL machine image of shard `shard`;
    /// reporting nodes carry global rule indices.
    pub fn network(&self, shard: usize) -> &MnrlNetwork {
        self.set.network(shard)
    }

    /// All per-shard machine images.
    pub fn networks(&self) -> &[MnrlNetwork] {
        self.set.networks()
    }

    /// A hardware simulator for shard `shard`'s machine image.
    pub fn hardware(&self, shard: usize) -> recama_hw::HwSimulator<'_> {
        self.set.hardware(shard)
    }

    /// The worker-thread count [`serve`](Engine::serve) spawns.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The [`ScanMode`] this engine's scans and streams walk bytes with
    /// (set via [`EngineBuilder::scan_mode`]; defaults to the hybrid
    /// lazy-DFA overlay).
    pub fn scan_mode(&self) -> ScanMode {
        self.set.scan_mode()
    }

    /// The [`PrefilterMode`] this engine was built with (set via
    /// [`EngineBuilder::prefilter`]; defaults to
    /// [`PrefilterMode::On`]).
    pub fn prefilter(&self) -> PrefilterMode {
        self.set.prefilter_mode()
    }

    /// The underlying sharded set — the escape hatch to every lower
    /// layer (per-shard automata, spans, per-shard hardware).
    pub fn set(&self) -> &ShardedPatternSet {
        &self.set
    }

    // ---- block mode -------------------------------------------------

    /// All matches in `haystack`, in stream order (ascending end,
    /// ascending rule index within one end). Shards scan in parallel on
    /// scoped threads for large inputs; reports are byte-identical for
    /// any shard plan.
    pub fn scan(&self, haystack: &[u8]) -> Vec<SetMatch> {
        self.set.find_ends(haystack)
    }

    /// Located match spans (`[start, end)` per rule): for every match
    /// end, the rule's reversed automaton runs backward to the earliest
    /// start (leftmost-longest flavor).
    pub fn scan_spans(&self, haystack: &[u8]) -> Vec<SetSpan> {
        self.set.find_spans(haystack)
    }

    /// Whether any rule matches in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.set.is_match(haystack)
    }

    // ---- per-use handles --------------------------------------------

    /// A resumable streaming matcher for ONE flow: feed chunks, drain
    /// reports, [`finish`](ShardedSetStream::finish) to resolve
    /// trailing-`$` anchors at end-of-stream.
    pub fn stream(&self) -> ShardedSetStream<'_> {
        self.set.stream()
    }

    /// Spawns an owned, `'static` flow-serving handle over this engine,
    /// configured from the builder ([`EngineBuilder::workers`],
    /// [`EngineBuilder::serve_config`]): worker threads start (condvar-parked) immediately, live for the
    /// handle's whole life, and are joined on
    /// [`shutdown`](ServiceHandle::shutdown) / `Drop` — no enclosing
    /// scope required, so the service embeds directly in a server's
    /// state. The engine stays usable (and reusable) afterwards; the
    /// handle shares its machine image as serving epoch 0 and swaps in
    /// later engines via [`reload`](ServiceHandle::reload).
    pub fn serve(&self) -> ServiceHandle {
        self.serve_with(self.workers, self.serve_config())
    }

    /// Like [`serve`](Engine::serve) with an explicit worker count and
    /// [`ServeConfig`].
    pub fn serve_with(&self, workers: usize, config: ServeConfig) -> ServiceHandle {
        ServiceHandle::spawn(self, workers.max(1), config)
    }

    /// The [`ServeConfig`] new owned handles start with (set via
    /// [`EngineBuilder::serve_config`]).
    pub fn serve_config(&self) -> ServeConfig {
        self.serve
    }

    /// The shared machine image (the epoch unit of hot reload).
    pub(crate) fn set_arc(&self) -> Arc<ShardedPatternSet> {
        Arc::clone(&self.set)
    }

    /// The shared rule-id table (compiled index → stable rule id).
    pub(crate) fn ids_arc(&self) -> Arc<[u64]> {
        Arc::clone(&self.ids)
    }

    /// The retained builder (rules cleared) for
    /// [`ServiceHandle::reload_rules`].
    pub(crate) fn template(&self) -> &EngineBuilder {
        &self.template
    }

    /// The fault-injection plan served handles inherit (chaos testing).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_plan_clone(&self) -> FaultPlan {
        self.faults.clone()
    }
}
