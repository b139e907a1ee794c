//! [`ServiceHandle`]: the owned, long-lived, backpressured many-flow
//! serving loop over an [`Engine`](crate::Engine) — with epoch-based
//! hot rule reload, a generational flow table, and a metrics snapshot.
//!
//! The paper evaluates CAMA as an IDS-class engine (Snort/Suricata
//! rulesets), and the workload such an engine serves is not one byte
//! stream but thousands of concurrent flows delivering interleaved
//! chunks. This module is the crate's one scheduling core for that
//! workload: the readiness queue, the `(flow, shard)` checkout and
//! check-in around an unlocked scan (two workers can advance different
//! shards of the same flow), the watermark-ordered report merge, `$`
//! finishing, and prefilter skip/replay all live here.
//!
//! The serving lifecycle: workers stay parked on the readiness condvar
//! between bursts, producers are pushed back when a flow buffers faster
//! than it scans, and flows that go quiet are evicted instead of
//! leaking engine state. This module provides that lifecycle as an
//! **owned** handle:
//!
//! * [`Engine::serve`](crate::Engine::serve) returns a `'static`
//!   [`ServiceHandle`] that owns its worker threads: they spawn on
//!   construction, park on the readiness condvar while idle, and are
//!   joined on [`shutdown`](ServiceHandle::shutdown) / `Drop` — no
//!   enclosing scope required, so the service embeds directly in a
//!   server's state;
//! * flows are addressed by generational [`FlowId`]s from
//!   [`open_flow`](ServiceHandle::open_flow): slot reuse bumps the
//!   generation, so a stale id held after its flow drained can never
//!   observe (or pollute) the slot's next tenant;
//! * [`reload`](ServiceHandle::reload) /
//!   [`reload_rules`](ServiceHandle::reload_rules) install a new
//!   compiled engine behind an **epoch** counter, without restarting
//!   the service: new flows start on the new epoch, existing flows
//!   migrate at their next chunk boundary once drained, in-flight
//!   scans drain against the engine they started on, and an old
//!   epoch's machine image is freed when its last flow lets go of it.
//!   Reports carry **stable rule ids** ([`RuleMatch::rule`]) so
//!   consumers are insulated from the reshuffled pattern indices of a
//!   reloaded set;
//! * the flow table is bounded: idle flows are evicted on a
//!   configurable sweep cadence, and opening a flow past
//!   [`max_flows`](crate::ServeConfig::max_flows) evicts the
//!   least-recently-pushed drained flow first;
//! * [`metrics`](ServiceHandle::metrics) snapshots the service
//!   ([`ServiceMetrics`]): per-shard scan time and volume, queue
//!   depth, eviction / backpressure / reload counters, per-epoch flow
//!   counts, the hybrid lazy-DFA hit-rate roll-up, and the
//!   literal-prefilter block (per-shard skipped units/bytes, candidate
//!   wake-ups, always-on rule count).
//!
//! Per-flow reports are byte-identical to one independent
//! [`ShardedSetStream`](crate::ShardedSetStream) per flow: shard report
//! buffers merge by `(end, pattern)` up to the flow's *watermark* (the
//! least position any shard has consumed), so ordering never depends on
//! which worker ran first. Across a reload, a migrated flow's stream is
//! **cut at the migration boundary**: bytes before the boundary were
//! scanned by the old engine, bytes after it by the new engine starting
//! fresh — exactly a fresh per-flow stream over the post-boundary
//! suffix, which `tests/service_reload.rs` pins differentially.

use crate::engine::{CompileError, Engine, EngineBuilder, FaultPolicy, ServeConfig};
use crate::prefilter::{
    ChunkAction, PerShard, PrefilterCounters, PrefilterMetrics, PrefilterState,
};
use crate::set::DollarTracker;
use crate::ShardedPatternSet;
use recama_nca::{HybridStats, MultiReport, ScanMode, ShardStreamState};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::Poll;
use std::thread::JoinHandle;
use std::time::Instant;

// ---- public value types ---------------------------------------------

/// A generational flow handle from [`ServiceHandle::open_flow`].
///
/// The service stores flows in a slab; a `FlowId` is the slot index
/// plus the slot's **generation** at open time. Freeing a flow bumps
/// the generation, so a stale id held after its flow fully drained can
/// never read (or write) the slot's next tenant — lookups with a stale
/// id simply miss (ABA-safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

impl FlowId {
    /// The slab slot index (recycled across flows).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The slot generation this id was opened at.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}v{}", self.index, self.generation)
    }
}

/// One match from the owned service: the **stable rule id** (explicit
/// from [`EngineBuilder::rule`](crate::EngineBuilder::rule), or the
/// add-order index) and the absolute end offset in the flow.
///
/// Rule ids — not compiled pattern indices — survive
/// [`ServiceHandle::reload`]: a rule kept across a reload reports the
/// same id even though the recompiled set may place it at a different
/// index (or shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleMatch {
    /// Stable rule id.
    pub rule: u64,
    /// End offset (1-based byte position in the flow).
    pub end: u64,
}

/// A [`RuleMatch`] attributed to its flow, from the global sink
/// ([`ServiceHandle::drain_global`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceEvent {
    /// The flow the match belongs to.
    pub flow: FlowId,
    /// Stable rule id.
    pub rule: u64,
    /// End offset (1-based byte position in the flow).
    pub end: u64,
}

/// A point-in-time snapshot of the service, from
/// [`ServiceHandle::metrics`]. Counters are cumulative since the
/// handle spawned; gauges reflect the moment of the snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    /// The current serving epoch (0 until the first reload).
    pub epoch: u64,
    /// Number of [`reload`](ServiceHandle::reload)s installed.
    pub reloads: u64,
    /// Flows currently tracked (open, or closed with undrained
    /// reports).
    pub flows: usize,
    /// Tracked flows per live epoch, ascending by epoch — old epochs
    /// disappear from this list when their last flow releases the
    /// retired machine image.
    pub epoch_flows: Vec<(u64, usize)>,
    /// Bytes buffered but not yet consumed by every shard.
    pub pending_bytes: u64,
    /// Current readiness-queue depth (`(flow, shard)` units awaiting a
    /// worker).
    pub queue_depth: usize,
    /// High-water mark of the readiness queue since spawn.
    pub queue_depth_peak: usize,
    /// Units currently checked out by workers.
    pub in_flight: usize,
    /// Cumulative unlocked scan time per shard, in nanoseconds.
    pub shard_scan_ns: Vec<u64>,
    /// Cumulative bytes scanned per shard.
    pub shard_scan_bytes: Vec<u64>,
    /// Flows closed by the idle sweep.
    pub idle_evictions: u64,
    /// Flows closed to stay under
    /// [`max_flows`](crate::ServeConfig::max_flows).
    pub budget_evictions: u64,
    /// Pushes rejected (`Poll::Pending`) by the per-flow or global byte
    /// budget, plus flow-table overshoots with nothing evictable.
    pub backpressure: u64,
    /// Aggregate hybrid lazy-DFA counters (retired engines plus the
    /// live flow table), when the current epoch scans in
    /// [`ScanMode::Hybrid`]; `None` in pure-NCA mode. The interesting
    /// roll-up is [`HybridStats::dfa_hit_rate`].
    pub hybrid: Option<HybridStats>,
    /// Literal-prefilter counters — per-shard skipped `(flow, shard)`
    /// chunk scans and bytes, cold→hot wake-ups, always-on rules — when
    /// the current epoch was built with
    /// [`PrefilterMode::On`](crate::PrefilterMode::On); `None` under
    /// [`PrefilterMode::Off`](crate::PrefilterMode::Off). The
    /// interesting roll-ups are
    /// [`PrefilterMetrics::total_skipped_bytes`] against
    /// [`shard_scan_bytes`](ServiceMetrics::shard_scan_bytes).
    pub prefilter: Option<PrefilterMetrics>,
    /// Fault-tolerance counters: quarantined flows, worker restarts,
    /// shed opens, fail-stop transitions. All zero on clean traffic.
    pub faults: FaultMetrics,
}

impl ServiceMetrics {
    /// Total evicted flows (idle + budget).
    pub fn total_evictions(&self) -> u64 {
        self.idle_evictions + self.budget_evictions
    }
}

/// Cumulative fault-tolerance counters, in [`ServiceMetrics::faults`].
/// On clean traffic every field stays 0 — CI's perf-smoke summary
/// warns otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Flows quarantined after a panic inside one of their scans
    /// (under [`FaultPolicy::Isolate`](crate::FaultPolicy::Isolate)).
    pub quarantined_flows: u64,
    /// Worker threads respawned after a panic, within
    /// [`restart_budget`](crate::ServeConfig::restart_budget).
    pub worker_restarts: u64,
    /// [`try_open_flow`](ServiceHandle::try_open_flow) calls shed by
    /// the [`overload`](crate::ServeConfig::overload) policy.
    pub shed_opens: u64,
    /// Transitions into fail-stop poisoning: every panic under
    /// explicit [`FaultPolicy::FailStop`](crate::FaultPolicy::FailStop)
    /// (first counted), or an exhausted restart budget.
    pub fail_stops: u64,
}

/// Why a checked [`ServiceHandle`] call could not proceed.
///
/// The original calls ([`push`](ServiceHandle::push),
/// [`poll`](ServiceHandle::poll), [`open_flow`](ServiceHandle::open_flow))
/// keep their panicking/silent signatures for compatibility; the
/// `_checked` variants surface the same conditions as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The flow is quarantined: a scan over its bytes panicked, its
    /// engines were freed, and it accepts no more input. Carries a
    /// summary of the panic payload. Reports merged before the fault
    /// stay available via [`poll`](ServiceHandle::poll) /
    /// [`poll_checked`](ServiceHandle::poll_checked);
    /// [`close`](ServiceHandle::close) acknowledges the quarantine and
    /// reclaims the slot.
    Quarantined {
        /// Summary of the panic payload that quarantined the flow.
        message: String,
    },
    /// The whole service fail-stopped (explicit
    /// [`FaultPolicy::FailStop`](crate::FaultPolicy::FailStop), or the
    /// restart budget ran out). Carries the first panic's payload
    /// summary — also available as
    /// [`panic_message`](ServiceHandle::panic_message).
    Poisoned {
        /// Summary of the first worker panic payload.
        message: String,
    },
    /// The [`overload`](crate::ServeConfig::overload) high-watermark
    /// policy shed this open.
    Overloaded,
    /// The flow id is closed, stale, or unknown.
    Closed,
    /// The service has no consuming workers (shut down).
    Stopped,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Quarantined { message } => {
                write!(f, "flow quarantined after a scan panic: {message}")
            }
            ServeError::Poisoned { message } => {
                write!(f, "service poisoned by a worker panic: {message}")
            }
            ServeError::Overloaded => write!(f, "open shed by the overload policy"),
            ServeError::Closed => write!(f, "flow is closed, stale, or unknown"),
            ServeError::Stopped => write!(f, "service has no consuming workers"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A deterministic fault-injection plan for chaos testing, compiled in
/// under the `fault-inject` cargo feature and installed with
/// [`EngineBuilder::fault_plan`](crate::EngineBuilder::fault_plan)
/// before the engine is served.
///
/// Faults address the **k-th scan** (1-based) of a given shard of a
/// given flow, flows numbered in open order (0-based; every
/// [`open_flow`](ServiceHandle::open_flow) is a new flow).
/// With a [`barrier`](ServiceHandle::barrier) between pushes, every
/// non-empty push triggers exactly one scan per shard, so the scan
/// number equals the chunk number — `tests/service_faults.rs` leans on
/// that to place faults deterministically.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone)]
struct InjectedFault {
    flow_seq: u64,
    shard: usize,
    scan: u64,
    action: FaultAction,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone)]
enum FaultAction {
    Panic(String),
    Delay(std::time::Duration),
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Panics with `message` at the `scan`-th scan (1-based) of
    /// `shard` of the `flow_seq`-th opened flow (0-based).
    pub fn panic_at(
        mut self,
        flow_seq: u64,
        shard: usize,
        scan: u64,
        message: impl Into<String>,
    ) -> FaultPlan {
        self.faults.push(InjectedFault {
            flow_seq,
            shard,
            scan,
            action: FaultAction::Panic(message.into()),
        });
        self
    }

    /// Sleeps for `delay` before the `scan`-th scan (1-based) of
    /// `shard` of the `flow_seq`-th opened flow (0-based), then scans
    /// normally — for racing slow scans against reloads and closes.
    pub fn delay_at(
        mut self,
        flow_seq: u64,
        shard: usize,
        scan: u64,
        delay: std::time::Duration,
    ) -> FaultPlan {
        self.faults.push(InjectedFault {
            flow_seq,
            shard,
            scan,
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// Fires the matching fault, if any: sleeps through delays, panics
    /// with the configured message. Runs on the worker thread, outside
    /// the service lock, inside its panic protection.
    pub(crate) fn trigger(&self, flow_seq: u64, shard: usize, scan: u64) {
        for fault in &self.faults {
            if fault.flow_seq == flow_seq && fault.shard == shard && fault.scan == scan {
                match &fault.action {
                    FaultAction::Delay(delay) => std::thread::sleep(*delay),
                    FaultAction::Panic(message) => panic!("{message}"),
                }
            }
        }
    }
}

// ---- internal state -------------------------------------------------

/// A buffered input chunk: `bytes` starts at absolute stream offset
/// `start` within its flow. Chunks are `Arc`-shared so workers can scan
/// them outside the service lock while slower shards still reference
/// them.
#[derive(Clone)]
struct Segment {
    start: u64,
    bytes: Arc<[u8]>,
}

impl Segment {
    fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }
}

/// One engine installed behind the epoch counter. The `Arc`ed machine
/// image is shared with the [`Engine`] that was reloaded (and any other
/// handle serving it); the *service's* share is dropped when the entry
/// leaves `ServeState::epochs`.
struct EpochEngine {
    epoch: u64,
    set: Arc<ShardedPatternSet>,
    /// Flows still pinned to this epoch (their shard engines came from
    /// this set). A non-current epoch with zero flows is retired.
    flows: usize,
}

/// One checkout-able (flow, shard) engine unit, holding a detached
/// [`ShardStreamState`] so the engine can leave the lock for a scan.
struct OwnedShardSlot {
    /// `None` while a worker holds the engine.
    state: Option<ShardStreamState>,
    /// Reports not yet merged: epoch-local pattern ids, **absolute**
    /// ends, sorted by `(end, pattern)`.
    pending: VecDeque<MultiReport>,
    /// Absolute bytes of the flow this shard has consumed (as of last
    /// check-in). Starts at the flow's migration `base` after a reload.
    pos: u64,
    /// Whether the unit is in the ready queue *or* checked out.
    busy: bool,
    /// Literal-prefilter state: the unit is skipped while cold (see
    /// [`crate::PrefilterMode`]). Cold units are never queued, so their
    /// engine is always parked. Resets at epoch migration.
    pre: PrefilterState,
    /// Scans checked out for this unit so far — the fault-injection
    /// address. Resets when the flow migrates to a new epoch.
    #[cfg(feature = "fault-inject")]
    scans: u64,
}

/// Per-flow state in the slab: buffered input, one [`OwnedShardSlot`]
/// per shard of the flow's epoch, and the merged in-order report queue.
struct OwnedFlow {
    /// The epoch whose engines this flow's shard slots hold.
    epoch: u64,
    /// Set once the flow's engines were freed and its epoch pin
    /// released (so slot-free does not release twice).
    epoch_released: bool,
    /// Absolute offset where the current epoch's engines started: 0
    /// for a flow that never migrated, the flow length at migration
    /// otherwise. Engine-relative positions + `base` = absolute.
    base: u64,
    segments: VecDeque<Segment>,
    /// Total bytes pushed (absolute length of the flow so far).
    total: u64,
    closed: bool,
    /// Empty once a closed flow has fully drained (engines freed).
    shards: Vec<OwnedShardSlot>,
    reports: VecDeque<RuleMatch>,
    /// Last `$`-anchored candidate per (epoch-local) pattern, so
    /// closing the flow can resolve which land on the final byte.
    /// Cleared at migration: old candidates cannot end at the final
    /// byte once more bytes arrive.
    dollar: DollarTracker,
    /// The resolved finishing set of a finished flow, until drained.
    finishing: Vec<RuleMatch>,
    /// Last `window` bytes of the flow since the epoch base, kept while
    /// any shard is cold so a prefilter wake-up can replay the bytes a
    /// match may have started in. Cleared at migration (fresh engines
    /// start cold at the new base).
    tail: Vec<u8>,
    /// The panic payload summary that quarantined this flow, when a
    /// scan over its bytes panicked under
    /// [`FaultPolicy::Isolate`](crate::FaultPolicy::Isolate). A
    /// quarantined flow is closed, engine-free, and kept addressable
    /// (so pushes/polls can report the condition) until explicitly
    /// closed.
    quarantined: Option<String>,
    /// Open-order sequence number — the fault-injection address.
    #[cfg(feature = "fault-inject")]
    seq: u64,
    /// Last push attempt (or scan progress), for idle eviction.
    last_activity: Instant,
    /// Monotone LRU stamp, for flow-table budget eviction.
    last_touch: u64,
}

impl OwnedFlow {
    /// Bytes pushed but not yet consumed by every shard.
    fn buffered(&self) -> u64 {
        self.total - self.watermark()
    }

    /// The least absolute position any shard has consumed — reports
    /// with ends at or below it are final and safe to merge in order.
    fn watermark(&self) -> u64 {
        self.shards
            .iter()
            .map(|slot| slot.pos)
            .min()
            .unwrap_or(self.total)
    }

    /// Whether every shard engine is parked and caught up — the only
    /// state in which the flow can migrate to a new epoch or finish.
    fn drained(&self) -> bool {
        self.shards
            .iter()
            .all(|slot| slot.state.is_some() && !slot.busy && slot.pos == self.total)
    }

    /// Whether the flow is closed and its engines have been freed.
    fn finished(&self) -> bool {
        self.closed && self.shards.is_empty()
    }
}

/// One slab slot: the generation counts how many tenants the slot has
/// had, making recycled [`FlowId`]s detectably stale.
struct Slot {
    generation: u32,
    flow: Option<Box<OwnedFlow>>,
}

/// Cumulative service counters (the mutable half of
/// [`ServiceMetrics`]).
#[derive(Default)]
struct MetricsAcc {
    reloads: u64,
    idle_evictions: u64,
    budget_evictions: u64,
    backpressure: u64,
    queue_peak: usize,
    shard_scan_ns: PerShard,
    shard_scan_bytes: PerShard,
    prefilter: PrefilterCounters,
    quarantined: u64,
    worker_restarts: u64,
    shed_opens: u64,
    fail_stops: u64,
}

/// Everything the service lock protects.
struct ServeState {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Open (not yet closed/evicted) flows — the quantity
    /// [`ServeConfig::max_flows`](crate::ServeConfig::max_flows)
    /// bounds.
    open_count: usize,
    /// Installed engines, ascending by epoch; the last entry is the
    /// current one. Non-current entries retire when `flows` hits 0.
    epochs: Vec<EpochEngine>,
    current_epoch: u64,
    /// Readiness queue of `(flow, shard)` units with unconsumed bytes.
    ready: VecDeque<(FlowId, usize)>,
    /// Units currently checked out by workers.
    in_flight: usize,
    /// Maintained sum of every flow's `buffered()` — O(1)
    /// `pending_bytes` under a million-flow table.
    buffered_total: u64,
    /// Global sink: every merged match, attributed to its flow.
    sink: Vec<ServiceEvent>,
    /// Workers drain and exit instead of parking.
    shutdown: bool,
    /// Set when a worker panicked mid-scan: its `(flow, shard)` engine
    /// unit is lost, so that flow can never drain — blocking producers
    /// must panic out instead of waiting forever.
    poisoned: bool,
    /// Human-readable summary of the first fail-stop panic payload.
    panic_message: Option<String>,
    /// Worker restarts consumed from
    /// [`ServeConfig::restart_budget`](crate::ServeConfig::restart_budget),
    /// shared across the pool.
    restarts: u32,
    /// Flows opened so far — assigns `OwnedFlow::seq` fault-injection
    /// addresses.
    #[cfg(feature = "fault-inject")]
    opened: u64,
    /// When the next idle sweep is due.
    next_sweep: Option<Instant>,
    /// Evicted flows until drained by [`ServiceHandle::evictions`].
    evicted: Vec<FlowId>,
    /// Monotone counter behind `OwnedFlow::last_touch`.
    touch: u64,
    metrics: MetricsAcc,
    /// Hybrid counters of engines that no longer exist (finished or
    /// migrated flows), so the roll-up survives flow churn.
    hybrid_retired: HybridStats,
}

impl ServeState {
    fn new(engine: &Engine) -> ServeState {
        ServeState {
            slots: Vec::new(),
            free: Vec::new(),
            open_count: 0,
            epochs: vec![EpochEngine {
                epoch: 0,
                set: engine.set_arc(),
                flows: 0,
            }],
            current_epoch: 0,
            ready: VecDeque::new(),
            in_flight: 0,
            buffered_total: 0,
            sink: Vec::new(),
            shutdown: false,
            poisoned: false,
            panic_message: None,
            restarts: 0,
            #[cfg(feature = "fault-inject")]
            opened: 0,
            next_sweep: None,
            evicted: Vec::new(),
            touch: 0,
            metrics: MetricsAcc::default(),
            hybrid_retired: HybridStats::default(),
        }
    }

    // ---- epoch bookkeeping ------------------------------------------

    fn current(&self) -> &EpochEngine {
        self.epochs.last().expect("the current epoch is installed")
    }

    fn epoch_entry(&self, epoch: u64) -> &EpochEngine {
        self.epochs
            .iter()
            .find(|e| e.epoch == epoch)
            .expect("pinned epochs stay installed")
    }

    fn bind_epoch(&mut self, epoch: u64) {
        self.epochs
            .iter_mut()
            .find(|e| e.epoch == epoch)
            .expect("pinned epochs stay installed")
            .flows += 1;
    }

    /// Drops a flow's pin on `epoch`; a retired (non-current) epoch
    /// with no remaining flows is removed, freeing its machine image —
    /// the last step of a hot reload.
    fn release_epoch(&mut self, epoch: u64) {
        let e = self
            .epochs
            .iter_mut()
            .find(|e| e.epoch == epoch)
            .expect("pinned epochs stay installed");
        e.flows -= 1;
        let current = self.current_epoch;
        self.epochs.retain(|e| e.epoch == current || e.flows > 0);
    }

    // ---- slab -------------------------------------------------------

    fn flow(&self, id: FlowId) -> Option<&OwnedFlow> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.flow.as_deref()
    }

    fn flow_mut(&mut self, id: FlowId) -> Option<&mut OwnedFlow> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.flow.as_deref_mut()
    }

    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Opens a fresh flow on the current epoch, evicting the LRU
    /// drained flow first when the table is at its budget.
    fn open(&mut self, cfg: &ServeConfig) -> FlowId {
        if self.open_count >= cfg.max_flows && !self.evict_lru() {
            // Nothing evictable: the table overshoots, visibly.
            self.metrics.backpressure += 1;
        }
        let epoch = self.current_epoch;
        let states = self.current().set.shard_stream_states();
        self.bind_epoch(epoch);
        self.touch += 1;
        #[cfg(feature = "fault-inject")]
        let seq = {
            let seq = self.opened;
            self.opened += 1;
            seq
        };
        let flow = Box::new(OwnedFlow {
            epoch,
            epoch_released: false,
            base: 0,
            segments: VecDeque::new(),
            total: 0,
            closed: false,
            shards: states
                .into_iter()
                .map(|state| OwnedShardSlot {
                    state: Some(state),
                    pending: VecDeque::new(),
                    pos: 0,
                    busy: false,
                    pre: PrefilterState::default(),
                    #[cfg(feature = "fault-inject")]
                    scans: 0,
                })
                .collect(),
            reports: VecDeque::new(),
            dollar: DollarTracker::default(),
            finishing: Vec::new(),
            tail: Vec::new(),
            quarantined: None,
            #[cfg(feature = "fault-inject")]
            seq,
            last_activity: Instant::now(),
            last_touch: self.touch,
        });
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize].flow = Some(flow);
                index
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    flow: Some(flow),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let id = FlowId {
            index,
            generation: self.slots[index as usize].generation,
        };
        self.open_count += 1;
        id
    }

    /// Frees a fully-drained finished flow's slot, bumping the
    /// generation so outstanding [`FlowId`]s go stale.
    fn free_slot(&mut self, id: FlowId) {
        let slot = &mut self.slots[id.index as usize];
        debug_assert_eq!(slot.generation, id.generation);
        let flow = slot.flow.take().expect("freeing an occupied slot");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        if !flow.closed {
            self.open_count -= 1;
        }
        if !flow.epoch_released {
            // Flows whose `try_finish` never ran (zero-shard sets)
            // release their epoch pin here.
            self.release_epoch(flow.epoch);
        }
    }

    /// Frees the slot once the flow is finished with both report
    /// queues drained.
    /// Quarantined flows are exempt: they stay addressable (so pushes
    /// and polls keep reporting the condition) until explicitly
    /// closed.
    fn free_if_drained(&mut self, id: FlowId) {
        if self.flow(id).is_some_and(|f| {
            f.quarantined.is_none()
                && f.finished()
                && f.reports.is_empty()
                && f.finishing.is_empty()
        }) {
            self.free_slot(id);
        }
    }

    // ---- fault handling ---------------------------------------------

    /// Poisons the whole service — the fail-stop path (explicit
    /// [`FaultPolicy::FailStop`], or an exhausted restart budget):
    /// every blocking call panics from now on. Records the transition
    /// and the first panic's payload summary.
    fn fail_stop(&mut self, payload: &(dyn Any + Send)) {
        if !self.poisoned {
            self.metrics.fail_stops += 1;
        }
        self.poisoned = true;
        if self.panic_message.is_none() {
            self.panic_message = Some(payload_summary(payload));
        }
    }

    /// Quarantines `id` after a panic inside one of its scans (the
    /// [`FaultPolicy::Isolate`] path): its queued units leave the
    /// readiness queue, its remaining engines are freed (hybrid
    /// counters retired), its buffered bytes leave the global gauge,
    /// and its epoch pin is released — so every *other* flow keeps
    /// flowing and a blocked `barrier` still drains. Reports merged
    /// before the fault stay pollable.
    fn quarantine(&mut self, id: FlowId, summary: &str) {
        let Some(f) = self.flow(id) else { return };
        if f.quarantined.is_some() {
            return; // a sibling shard already quarantined this flow
        }
        self.metrics.quarantined += 1;
        self.ready.retain(|&(rid, _)| rid != id);
        let f = self.flow_mut(id).expect("quarantining a live flow");
        let before = f.buffered();
        let was_open = !f.closed;
        f.closed = true;
        f.quarantined = Some(summary.to_string());
        let mut retired = HybridStats::default();
        for slot in &f.shards {
            if let Some(stats) = slot.state.as_ref().and_then(ShardStreamState::hybrid_stats) {
                retired.merge(&stats);
            }
        }
        f.shards.clear();
        f.segments.clear();
        f.dollar.clear();
        f.tail = Vec::new();
        let epoch = f.epoch;
        let release = !f.epoch_released;
        f.epoch_released = true;
        self.buffered_total -= before;
        if was_open {
            self.open_count -= 1;
        }
        self.hybrid_retired.merge(&retired);
        if release {
            self.release_epoch(epoch);
        }
    }

    /// Whether the [`overload`](crate::ServeConfig::overload)
    /// high-watermark policy sheds new opens right now.
    fn overloaded(&self, cfg: &ServeConfig) -> bool {
        let o = &cfg.overload;
        o.max_queue_depth.is_some_and(|hw| self.ready.len() >= hw)
            || o.max_pending_bytes
                .is_some_and(|hw| self.buffered_total >= hw)
    }

    /// The panic summary for poisoned-path messages.
    fn panic_summary(&self) -> &str {
        self.panic_message
            .as_deref()
            .unwrap_or("payload unavailable")
    }

    // ---- the scheduling moves ---------------------------------------

    /// Admission + buffering for an already-resolved open flow.
    /// Returns `Pending` for dead/closed ids and over-budget pushes.
    fn try_push_at(&mut self, id: FlowId, chunk: &[u8], cfg: &ServeConfig) -> Poll<u64> {
        self.touch += 1;
        let touch = self.touch;
        let buffered_total = self.buffered_total;
        let refresh_activity = cfg.idle_timeout.is_some();
        let Some(f) = self.flow_mut(id) else {
            return Poll::Pending; // stale id
        };
        if f.closed {
            return Poll::Pending;
        }
        // A rejected attempt still proves the producer is alive:
        // refresh activity either way, so a flow pinned at its budget
        // by slow consumers is not mistaken for an idle one and evicted
        // mid-stream. (The LRU stamp refreshes for the same reason.)
        if refresh_activity {
            f.last_activity = Instant::now();
        }
        f.last_touch = touch;
        let buffered = f.buffered();
        // Empty chunks buffer nothing and are accepted unconditionally;
        // a chunk is otherwise accepted when the flow buffers nothing
        // (so chunks larger than the whole budget still make progress)
        // or fits in the per-flow and global byte budgets.
        if !chunk.is_empty()
            && buffered > 0
            && (buffered as usize).saturating_add(chunk.len()) > cfg.flow_budget
        {
            self.metrics.backpressure += 1;
            return Poll::Pending;
        }
        if !chunk.is_empty()
            && buffered_total > 0
            && buffered_total.saturating_add(chunk.len() as u64) > cfg.max_buffered_bytes
        {
            self.metrics.backpressure += 1;
            return Poll::Pending;
        }
        if !chunk.is_empty() {
            self.maybe_migrate(id);
        }
        Poll::Ready(self.buffer_chunk(id, chunk))
    }

    /// Migrates a drained flow onto the current epoch at this chunk
    /// boundary: fresh engines starting at `base = total`, old engines
    /// (and their epoch pin) released. Called only for a non-empty
    /// accepted push, so clearing the `$` candidates is safe — more
    /// bytes are coming, and the old candidates cannot end at the
    /// final byte.
    fn maybe_migrate(&mut self, id: FlowId) {
        let current = self.current_epoch;
        {
            let Some(f) = self.flow(id) else { return };
            if f.epoch == current || f.closed || !f.drained() {
                return;
            }
        }
        let states = self.current().set.shard_stream_states();
        let f = self.slots[id.index as usize]
            .flow
            .as_deref_mut()
            .expect("migrating a live flow");
        let mut retired = HybridStats::default();
        for slot in &f.shards {
            if let Some(stats) = slot.state.as_ref().and_then(ShardStreamState::hybrid_stats) {
                retired.merge(&stats);
            }
        }
        let old_epoch = f.epoch;
        let base = f.total;
        f.base = base;
        f.segments.clear(); // drained ⇒ already empty
        f.dollar.clear();
        // Fresh engines start cold at the new base: a literal
        // straddling the migration boundary is cut like any match
        // there, so the filter state restarts with the engines.
        f.tail.clear();
        f.shards = states
            .into_iter()
            .map(|state| OwnedShardSlot {
                state: Some(state),
                pending: VecDeque::new(),
                pos: base,
                busy: false,
                pre: PrefilterState::default(),
                #[cfg(feature = "fault-inject")]
                scans: 0,
            })
            .collect();
        f.epoch = current;
        f.epoch_released = false;
        self.hybrid_retired.merge(&retired);
        self.release_epoch(old_epoch);
        self.bind_epoch(current);
    }

    /// Buffers `chunk` for an open flow and marks its idle shard units
    /// ready — except units the literal prefilter proves cold, whose
    /// position advances past the chunk without a scan. Returns the
    /// flow's new total length.
    fn buffer_chunk(&mut self, id: FlowId, chunk: &[u8]) -> u64 {
        let epoch = self.slots[id.index as usize]
            .flow
            .as_deref()
            .expect("buffer_chunk: open flow")
            .epoch;
        let set = Arc::clone(&self.epoch_entry(epoch).set);
        let f = self.slots[id.index as usize]
            .flow
            .as_deref_mut()
            .expect("buffer_chunk: open flow");
        if chunk.is_empty() {
            return f.total;
        }
        let before = f.buffered();
        let chunk_start = f.total;
        f.segments.push_back(Segment {
            start: chunk_start,
            bytes: Arc::from(chunk),
        });
        f.total += chunk.len() as u64;
        let mut skipped = false;
        match &set.prefilter {
            None => {
                for (si, slot) in f.shards.iter_mut().enumerate() {
                    if !slot.busy {
                        slot.busy = true;
                        self.ready.push_back((id, si));
                    }
                }
            }
            Some(pf) => {
                let base = f.base;
                // Filter verdict per shard; the filter state advances
                // over the chunk even when the scan is skipped.
                let actions: Vec<ChunkAction> = f
                    .shards
                    .iter_mut()
                    .enumerate()
                    .map(|(si, slot)| pf.chunk_action(si, &mut slot.pre, chunk, chunk_start, base))
                    .collect();
                // Each cold idle unit's engine is teleported somewhere
                // this push decides (`None` ⇒ leave it alone): past the
                // chunk when it holds no candidate (the skip — its whole
                // point), or back to the wake's replay point on the
                // first candidate. Busy units are left alone: cold
                // units are never queued, so a busy unit was already
                // hot and scans the window natively. Rewinding a cold
                // engine is always sound: it has no report ending in —
                // and, being report-free, no match state worth more
                // than — the region it re-scans.
                let targets: Vec<Option<u64>> = actions
                    .iter()
                    .zip(&f.shards)
                    .map(|(action, slot)| match action {
                        _ if slot.busy => None,
                        ChunkAction::Scan => None,
                        ChunkAction::Skip => Some(f.total),
                        ChunkAction::Wake { replay_start } => Some(*replay_start),
                    })
                    .collect();
                // A teleport below the oldest buffered segment re-covers
                // the gap with a synthetic segment sliced from the tail
                // buffer, keeping the queue contiguous for
                // `ServeUnit::scan`'s skip math.
                if let Some(min_target) = targets.iter().flatten().min().copied() {
                    let front_start = f.segments.front().map_or(f.total, |s| s.start);
                    if min_target < front_start {
                        let tail_start = chunk_start - f.tail.len() as u64;
                        debug_assert!(min_target >= tail_start, "tail covers the replay window");
                        let a = (min_target - tail_start) as usize;
                        let b = (front_start - tail_start) as usize;
                        f.segments.push_front(Segment {
                            start: min_target,
                            bytes: Arc::from(&f.tail[a..b]),
                        });
                    }
                }
                for (si, ((slot, action), target)) in
                    f.shards.iter_mut().zip(&actions).zip(&targets).enumerate()
                {
                    if let Some(target) = *target {
                        slot.pos = target;
                        let state = slot.state.take().expect("idle slots hold their engine");
                        let mut stream = set.resume_shard_stream(state);
                        stream.restart_at(target - base);
                        slot.state = Some(stream.into_state());
                    }
                    match action {
                        ChunkAction::Skip if target == &Some(f.total) => {
                            self.metrics.prefilter.skipped_units.add(si, 1);
                            self.metrics
                                .prefilter
                                .skipped_bytes
                                .add(si, chunk.len() as u64);
                            skipped = true;
                        }
                        ChunkAction::Wake { .. } => {
                            self.metrics.prefilter.candidate_hits += 1;
                            if !slot.busy {
                                slot.busy = true;
                                self.ready.push_back((id, si));
                            }
                        }
                        _ => {
                            if !slot.busy {
                                slot.busy = true;
                                self.ready.push_back((id, si));
                            }
                        }
                    }
                }
                pf.extend_tail(&mut f.tail, chunk);
            }
        }
        let after = f.buffered();
        let total = f.total;
        self.buffered_total += after - before;
        self.metrics.queue_peak = self.metrics.queue_peak.max(self.ready.len());
        if skipped {
            // Skips advance the watermark without a check-in: merge
            // (and drop fully-consumed segments) promptly.
            self.merge_ready(id);
        }
        total
    }

    /// Pops a ready `(flow, shard)` unit and checks its engine out,
    /// along with the segments it has yet to consume and the `Arc`ed
    /// machine image of the flow's epoch (so the scan runs unlocked
    /// and survives a concurrent reload).
    fn checkout(&mut self) -> Option<ServeUnit> {
        let (id, si) = self.ready.pop_front()?;
        let (epoch, base) = {
            let f = self.flow(id).expect("ready unit belongs to a live flow");
            (f.epoch, f.base)
        };
        let set = Arc::clone(&self.epoch_entry(epoch).set);
        let f = self.slots[id.index as usize]
            .flow
            .as_deref_mut()
            .expect("ready unit belongs to a live flow");
        #[cfg(feature = "fault-inject")]
        let seq = f.seq;
        let slot = &mut f.shards[si];
        debug_assert!(slot.busy, "queued units are marked busy");
        #[cfg(feature = "fault-inject")]
        let scan_no = {
            slot.scans += 1;
            slot.scans
        };
        let state = slot.state.take().expect("ready slot holds its engine");
        let from = slot.pos;
        let segments: Vec<Segment> = f
            .segments
            .iter()
            .filter(|seg| seg.end() > from)
            .cloned()
            .collect();
        self.in_flight += 1;
        Some(ServeUnit {
            id,
            shard: si,
            base,
            set,
            state,
            segments,
            #[cfg(feature = "fault-inject")]
            seq,
            #[cfg(feature = "fault-inject")]
            scan_no,
        })
    }

    /// Checks a scanned unit back in: publishes its reports (already
    /// absolute), requeues it if more bytes arrived while it was out,
    /// merges what became final, and settles `in_flight`.
    fn check_in(
        &mut self,
        id: FlowId,
        si: usize,
        state: ShardStreamState,
        reports: Vec<MultiReport>,
    ) {
        // A sibling shard's panic may have quarantined the flow — and
        // an acknowledging `close` may even have freed its slot —
        // while this unit was out scanning. Retire the late engine's
        // hybrid counters, drop its now-unmergeable reports, settle.
        if self.flow(id).is_none_or(|f| f.shards.is_empty()) {
            if let Some(stats) = state.hybrid_stats() {
                self.hybrid_retired.merge(&stats);
            }
            self.in_flight -= 1;
            return;
        }
        let f = self.slots[id.index as usize]
            .flow
            .as_deref_mut()
            .expect("flows persist while checked out");
        let before = f.buffered();
        let base = f.base;
        let total = f.total;
        let slot = &mut f.shards[si];
        slot.pos = base + state.position();
        slot.state = Some(state);
        slot.pending.extend(reports);
        if slot.pos < total {
            self.ready.push_back((id, si)); // more bytes arrived meanwhile
        } else {
            slot.busy = false;
        }
        // Scan progress counts as activity: a flow whose backlog is
        // still draining is not idle.
        f.last_activity = Instant::now();
        let after = f.buffered();
        self.buffered_total -= before - after;
        self.merge_ready(id);
        self.try_finish(id);
        self.in_flight -= 1;
    }

    /// Merges shard-pending reports up to the watermark into the flow
    /// queue (ordered by `(end, pattern)`, the stream order) and the
    /// global sink, then drops input segments every shard has consumed.
    fn merge_ready(&mut self, id: FlowId) {
        let Some(f) = self.flow(id) else { return };
        if f.shards.is_empty() {
            // Already finished (engines freed, epoch pin released —
            // the epoch may since have been retired by a reload) or a
            // zero-shard set: nothing pending to merge. A second
            // `close` on a finished flow lands here.
            return;
        }
        let set = Arc::clone(&self.epoch_entry(f.epoch).set);
        let mut events: Vec<ServiceEvent> = Vec::new();
        let f = self
            .flow_mut(id)
            .expect("merge_ready: flow is still live here");
        let watermark = f.watermark();
        loop {
            let mut best: Option<(usize, (u64, u32))> = None;
            for (si, slot) in f.shards.iter().enumerate() {
                if let Some(r) = slot.pending.front() {
                    if r.end <= watermark && best.is_none_or(|(_, key)| (r.end, r.pattern) < key) {
                        best = Some((si, (r.end, r.pattern)));
                    }
                }
            }
            let Some((si, _)) = best else { break };
            let r = f.shards[si].pending.pop_front().expect("best exists");
            let pattern = r.pattern as usize;
            if set.anchored_end[pattern] {
                f.dollar.observe(pattern, r.end);
            }
            let rule = set.ids[pattern];
            f.reports.push_back(RuleMatch { rule, end: r.end });
            events.push(ServiceEvent {
                flow: id,
                rule,
                end: r.end,
            });
        }
        while f.segments.front().is_some_and(|seg| seg.end() <= watermark) {
            f.segments.pop_front();
        }
        self.sink.extend(events);
    }

    /// Frees the engines of a closed, fully-consumed flow, resolves its
    /// `$`-anchored finishing set (as stable rule ids), retires its
    /// hybrid counters, and releases its epoch pin.
    fn try_finish(&mut self, id: FlowId) {
        let Some(f) = self.flow(id) else { return };
        if f.shards.is_empty() {
            return; // already finished, or a zero-shard set
        }
        if !(f.closed && f.drained()) {
            return;
        }
        let epoch = f.epoch;
        let set = Arc::clone(&self.epoch_entry(epoch).set);
        let f = self
            .flow_mut(id)
            .expect("try_finish: flow is still live here");
        debug_assert!(f.shards.iter().all(|slot| slot.pending.is_empty()));
        let mut retired = HybridStats::default();
        for slot in &f.shards {
            if let Some(stats) = slot.state.as_ref().and_then(ShardStreamState::hybrid_stats) {
                retired.merge(&stats);
            }
        }
        f.shards.clear();
        f.segments.clear();
        let total = f.total;
        f.finishing
            .extend(f.dollar.finish(total).into_iter().map(|m| RuleMatch {
                rule: set.ids[m.pattern],
                end: total,
            }));
        f.epoch_released = true;
        self.hybrid_retired.merge(&retired);
        self.release_epoch(epoch);
    }

    /// Marks a flow closed and finishes it if already drained. Closing
    /// a quarantined flow acknowledges the quarantine: the slot is
    /// reclaimed (undrained reports included).
    fn close_flow(&mut self, id: FlowId) {
        let Some(f) = self.flow_mut(id) else { return };
        if f.quarantined.is_some() {
            self.free_slot(id);
            return;
        }
        if !f.closed {
            f.closed = true;
            self.open_count -= 1;
        }
        self.merge_ready(id);
        self.try_finish(id);
    }

    // ---- eviction ---------------------------------------------------

    /// Closes every open, drained flow whose last push attempt is older
    /// than the idle timeout. Due-gated at the sweep cadence. Returns
    /// whether any flow was evicted (the caller frees space).
    fn evict_idle(&mut self, cfg: &ServeConfig) -> bool {
        let Some(timeout) = cfg.idle_timeout else {
            return false;
        };
        let now = Instant::now();
        match self.next_sweep {
            Some(due) if now < due => return false,
            _ => self.next_sweep = Some(now + cfg.sweep_interval.unwrap_or(timeout)),
        }
        // Only fully-drained open flows are idle: a flow with buffered
        // bytes is still being scanned (and check-in refreshes its
        // activity anyway), and a backpressured producer refreshes
        // activity on every rejected attempt — so eviction never splits
        // a live stream in two.
        let expired: Vec<FlowId> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let f = slot.flow.as_deref()?;
                (!f.closed && f.buffered() == 0 && now.duration_since(f.last_activity) >= timeout)
                    .then_some(FlowId {
                        index: i as u32,
                        generation: slot.generation,
                    })
            })
            .collect();
        let any = !expired.is_empty();
        for id in expired {
            self.close_flow(id);
            self.evicted.push(id);
            self.metrics.idle_evictions += 1;
        }
        any
    }

    /// Evicts the least-recently-pushed open drained flow to make room
    /// in the flow table. Returns `false` when nothing is evictable.
    fn evict_lru(&mut self) -> bool {
        let mut lru: Option<(u64, FlowId)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(f) = slot.flow.as_deref() else {
                continue;
            };
            if f.closed || f.buffered() != 0 {
                continue;
            }
            if lru.is_none_or(|(touch, _)| f.last_touch < touch) {
                lru = Some((
                    f.last_touch,
                    FlowId {
                        index: i as u32,
                        generation: slot.generation,
                    },
                ));
            }
        }
        let Some((_, id)) = lru else { return false };
        self.close_flow(id);
        self.evicted.push(id);
        self.metrics.budget_evictions += 1;
        true
    }

    // ---- metrics ----------------------------------------------------

    fn record_scan(&mut self, shard: usize, ns: u64, bytes: u64) {
        self.metrics.shard_scan_ns.add(shard, ns);
        self.metrics.shard_scan_bytes.add(shard, bytes);
    }

    fn snapshot(&self) -> ServiceMetrics {
        let mut hybrid = self.hybrid_retired;
        for slot in &self.slots {
            let Some(f) = slot.flow.as_deref() else {
                continue;
            };
            for shard in &f.shards {
                if let Some(stats) = shard
                    .state
                    .as_ref()
                    .and_then(ShardStreamState::hybrid_stats)
                {
                    hybrid.merge(&stats);
                }
            }
        }
        let hybrid = match self.current().set.scan_mode {
            ScanMode::Hybrid { .. } => Some(hybrid),
            ScanMode::Nca => None,
        };
        let shards = self.current().set.multi.shard_count();
        let prefilter = self.current().set.prefilter.as_ref().map(|pf| {
            self.metrics
                .prefilter
                .snapshot(shards, pf.always_on_rules())
        });
        ServiceMetrics {
            epoch: self.current_epoch,
            reloads: self.metrics.reloads,
            flows: self.occupied(),
            epoch_flows: self.epochs.iter().map(|e| (e.epoch, e.flows)).collect(),
            pending_bytes: self.buffered_total,
            queue_depth: self.ready.len(),
            queue_depth_peak: self.metrics.queue_peak,
            in_flight: self.in_flight,
            shard_scan_ns: self.metrics.shard_scan_ns.snapshot(shards),
            shard_scan_bytes: self.metrics.shard_scan_bytes.snapshot(shards),
            idle_evictions: self.metrics.idle_evictions,
            budget_evictions: self.metrics.budget_evictions,
            backpressure: self.metrics.backpressure,
            hybrid,
            prefilter,
            faults: FaultMetrics {
                quarantined_flows: self.metrics.quarantined,
                worker_restarts: self.metrics.worker_restarts,
                shed_opens: self.metrics.shed_opens,
                fail_stops: self.metrics.fail_stops,
            },
        }
    }
}

/// A human-readable summary of a panic payload: `&str` and `String`
/// payloads verbatim, anything else opaquely.
fn payload_summary(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A `(flow, shard)` unit checked out of the readiness queue: the
/// shard's detached engine state, the `Arc`ed machine image of the
/// flow's epoch, and the input segments it still has to consume —
/// fully owned, so the scan runs unlocked and survives a concurrent
/// reload (in-flight units always drain against the engine they
/// started on).
struct ServeUnit {
    id: FlowId,
    shard: usize,
    /// Absolute offset where this epoch's engines started in the flow.
    base: u64,
    set: Arc<ShardedPatternSet>,
    state: ShardStreamState,
    segments: Vec<Segment>,
    /// The flow's open-order sequence number (fault-injection address).
    #[cfg(feature = "fault-inject")]
    seq: u64,
    /// Which scan of this `(flow, shard)` unit this checkout is
    /// (1-based; fault-injection address).
    #[cfg(feature = "fault-inject")]
    scan_no: u64,
}

impl ServeUnit {
    /// Scans every unconsumed byte of the checked-out segments,
    /// returning the shard's parked state and its reports rebased to
    /// **absolute** flow offsets. Runs WITHOUT the lock held.
    fn scan(self) -> (ShardStreamState, Vec<MultiReport>, u64) {
        let ServeUnit {
            base,
            set,
            state,
            segments,
            ..
        } = self;
        let mut stream = set.resume_shard_stream(state);
        let mut reports = Vec::new();
        let mut bytes = 0u64;
        for seg in &segments {
            let skip = ((base + stream.position()) - seg.start) as usize;
            bytes += (seg.bytes.len() - skip) as u64;
            stream.feed_into(&seg.bytes[skip..], &mut reports);
        }
        let state = stream.into_state();
        for r in &mut reports {
            r.end += base;
        }
        (state, reports, bytes)
    }
}

/// The shared synchronization core: the state mutex plus the two
/// condvars. `Arc`ed between the handle and its worker threads.
struct ServiceCore {
    config: ServeConfig,
    state: Mutex<ServeState>,
    /// Parked workers wait here; signalled on push, close, reload,
    /// shutdown, and check-in.
    wake: Condvar,
    /// Producers blocked in `push` (and `barrier`) wait here; signalled
    /// when a worker checks a unit in (bytes were consumed — space
    /// freed) or evicts.
    space: Condvar,
    /// Deterministic fault-injection plan, from
    /// [`EngineBuilder::fault_plan`](crate::EngineBuilder::fault_plan).
    #[cfg(feature = "fault-inject")]
    fault_plan: FaultPlan,
}

impl ServiceCore {
    /// Locks the state, recovering from mutex poisoning: every mutation
    /// sequence under the lock is panic-free (producer-side asserts
    /// fire before any mutation, worker panics are caught outside the
    /// lock), so a poisoned mutex still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, ServeState> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn wait_space<'g>(&self, guard: MutexGuard<'g, ServeState>) -> MutexGuard<'g, ServeState> {
        self.space
            .wait(guard)
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// One supervised pass of the worker loop: sweep, check out, scan
/// unlocked, check in; park when idle, return on shutdown. A panic
/// inside a scan is caught here: under [`FaultPolicy::Isolate`] the
/// offending flow is quarantined and the panic rethrown into
/// [`supervised_worker`] (which respawns the loop under the restart
/// budget); under [`FaultPolicy::FailStop`] the service is poisoned
/// and the loop keeps running.
fn worker_loop(core: &ServiceCore) {
    let cfg = core.config;
    let mut st = core.lock();
    loop {
        // Idle sweeps are due-gated at the sweep cadence and run on
        // EVERY loop iteration, so sustained load (workers that always
        // find ready work) cannot starve eviction.
        if st.evict_idle(&cfg) {
            core.space.notify_all();
        }
        if let Some(unit) = st.checkout() {
            let (id, shard) = (unit.id, unit.shard);
            drop(st);
            let started = Instant::now();
            // Panic protection: the unlocked scan runs caught, so
            // a panic loses only the unit's engine — never the
            // lock's consistency. What happens next is the fault
            // policy's call: Isolate quarantines the one flow and
            // lets the supervisor respawn this worker; FailStop
            // poisons the whole service (blocked producers panic
            // out of their waits instead of re-blocking on a
            // backlog that will never clear).
            #[cfg(feature = "fault-inject")]
            let probe = (unit.seq, unit.shard, unit.scan_no);
            let scanned = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                core.fault_plan.trigger(probe.0, probe.1, probe.2);
                unit.scan()
            }));
            let ns = started.elapsed().as_nanos() as u64;
            let mut relocked = core.lock();
            match scanned {
                Ok((state, reports, bytes)) => {
                    relocked.record_scan(shard, ns, bytes);
                    relocked.check_in(id, shard, state, reports);
                }
                Err(payload) => {
                    relocked.in_flight -= 1;
                    match cfg.fault_policy {
                        FaultPolicy::Isolate => {
                            let summary = payload_summary(payload.as_ref());
                            relocked.quarantine(id, &summary);
                            drop(relocked);
                            core.wake.notify_all();
                            core.space.notify_all();
                            // Rethrow into the supervisor, which
                            // respawns the loop under the restart
                            // budget (or fail-stops past it).
                            std::panic::resume_unwind(payload);
                        }
                        FaultPolicy::FailStop => relocked.fail_stop(payload.as_ref()),
                    }
                }
            }
            core.wake.notify_all();
            core.space.notify_all();
            st = relocked;
            continue;
        }
        if st.shutdown && st.in_flight == 0 && st.ready.is_empty() {
            return;
        }
        st = match cfg.idle_timeout {
            // Periodic wake so the due-gated sweep keeps running while
            // the service sits fully idle.
            Some(timeout) => {
                let cadence = cfg.sweep_interval.unwrap_or(timeout);
                match core.wake.wait_timeout(st, cadence) {
                    Ok((guard, _)) => guard,
                    Err(poison) => poison.into_inner().0,
                }
            }
            None => core
                .wake
                .wait(st)
                .unwrap_or_else(|poison| poison.into_inner()),
        };
    }
}

/// The worker thread body: reruns [`worker_loop`] across panics.
///
/// Under [`FaultPolicy::Isolate`], a panicked pass (which already
/// quarantined the offending flow before rethrowing) respawns the loop
/// while the pool-wide [`restart_budget`](ServeConfig::restart_budget)
/// lasts, sleeping an exponential backoff first — starting at
/// [`restart_backoff`](ServeConfig::restart_backoff) and doubling per
/// restart this thread has absorbed (saturating; exponent capped).
/// Once the budget is spent — or under [`FaultPolicy::FailStop`],
/// where `worker_loop` only rethrows non-scan panics — the payload
/// fail-stops the whole service and the thread exits.
fn supervised_worker(core: &ServiceCore) {
    let cfg = core.config;
    let mut consecutive: u32 = 0;
    loop {
        let payload = match catch_unwind(AssertUnwindSafe(|| worker_loop(core))) {
            Ok(()) => return, // clean shutdown
            Err(payload) => payload,
        };
        let backoff = {
            let mut st = core.lock();
            if cfg.fault_policy == FaultPolicy::FailStop
                || st.restarts >= cfg.restart_budget
                || st.shutdown
            {
                st.fail_stop(payload.as_ref());
                drop(st);
                core.wake.notify_all();
                core.space.notify_all();
                return;
            }
            st.restarts += 1;
            st.metrics.worker_restarts += 1;
            consecutive += 1;
            cfg.restart_backoff
                .saturating_mul(1u32 << (consecutive - 1).min(16))
        };
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
}

// ---- the owned handle -----------------------------------------------

/// An owned, `'static` many-flow scanning service; create one with
/// [`Engine::serve`](crate::Engine::serve). See the module docs for the
/// lifecycle.
///
/// The handle owns its worker threads: they spawn on construction,
/// park on the readiness condvar while idle, and are joined on
/// [`shutdown`](ServiceHandle::shutdown) / `Drop`. It is `Send + Sync`,
/// so one handle embeds in a server's shared state and takes pushes
/// from many producer threads.
///
/// ```
/// use recama::{Engine, ServeConfig};
///
/// let engine = Engine::new(["ab{2}c", "xyz"]).unwrap();
/// let svc = engine.serve_with(2, ServeConfig::default()); // workers spawn now, parked
/// let flow = svc.open_flow();
/// svc.push(flow, b"..ab"); // blocking push (waits if over budget)
/// svc.push(flow, b"bc!"); // match straddles the chunks
/// svc.barrier(); // every pushed byte scanned
/// let hits = svc.poll(flow);
/// assert_eq!(hits.len(), 1);
/// assert_eq!((hits[0].rule, hits[0].end), (0, 6));
/// svc.close(flow);
/// svc.shutdown(); // joins the workers (Drop would too)
/// ```
pub struct ServiceHandle {
    core: Arc<ServiceCore>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
    /// The engine's builder (rules cleared), so
    /// [`reload_rules`](ServiceHandle::reload_rules) recompiles with
    /// the same knobs.
    template: EngineBuilder,
}

impl ServiceHandle {
    pub(crate) fn spawn(engine: &Engine, workers: usize, config: ServeConfig) -> ServiceHandle {
        let workers = workers.max(1);
        let core = Arc::new(ServiceCore {
            config,
            state: Mutex::new(ServeState::new(engine)),
            wake: Condvar::new(),
            space: Condvar::new(),
            #[cfg(feature = "fault-inject")]
            fault_plan: engine.fault_plan_clone(),
        });
        let threads = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("recama-serve-{i}"))
                    .spawn(move || supervised_worker(&core))
                    .expect("spawn service worker thread")
            })
            .collect();
        ServiceHandle {
            core,
            threads,
            workers,
            template: engine.template().clone(),
        }
    }

    // ---- lifecycle --------------------------------------------------

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The backpressure/eviction configuration.
    pub fn config(&self) -> ServeConfig {
        self.core.config
    }

    /// The current serving epoch (0 until the first
    /// [`reload`](ServiceHandle::reload)).
    pub fn epoch(&self) -> u64 {
        self.core.lock().current_epoch
    }

    /// Whether the service fail-stopped: a worker panic was not (or
    /// could not be) absorbed — explicit
    /// [`FaultPolicy::FailStop`](crate::FaultPolicy::FailStop), or an
    /// exhausted [`restart_budget`](crate::ServeConfig::restart_budget)
    /// — so the service can no longer drain and every blocking call
    /// panics.
    pub fn is_poisoned(&self) -> bool {
        self.core.lock().poisoned
    }

    /// A summary of the first worker panic payload, once the service
    /// fail-stopped; `None` while healthy. (A quarantined flow's panic
    /// message travels on [`ServeError::Quarantined`] instead — see
    /// [`push_checked`](ServiceHandle::push_checked) /
    /// [`poll_checked`](ServiceHandle::poll_checked).)
    pub fn panic_message(&self) -> Option<String> {
        self.core.lock().panic_message.clone()
    }

    /// Whether `flow` is quarantined: a scan over its bytes panicked
    /// under [`FaultPolicy::Isolate`](crate::FaultPolicy::Isolate), so
    /// its engines were freed and it accepts no more input. Reports
    /// merged before the fault stay pollable;
    /// [`close`](ServiceHandle::close) acknowledges the quarantine and
    /// reclaims the slot.
    pub fn is_quarantined(&self, flow: FlowId) -> bool {
        self.core
            .lock()
            .flow(flow)
            .is_some_and(|f| f.quarantined.is_some())
    }

    /// Shuts the service down: parked workers exit (after draining the
    /// readiness queue) and are joined. Equivalent to dropping the
    /// handle, but explicit about where the join happens.
    pub fn shutdown(mut self) {
        self.shutdown_join();
    }

    fn shutdown_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        {
            let mut st = self.core.lock();
            st.shutdown = true;
        }
        self.core.wake.notify_all();
        self.core.space.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    // ---- hot reload -------------------------------------------------

    /// Installs `engine` as the new serving epoch, **without**
    /// restarting the service, and returns the new epoch number.
    ///
    /// Semantics of the swap:
    ///
    /// * flows opened after the reload start on the new engine;
    /// * an existing flow migrates at its **next accepted non-empty
    ///   push** once drained: bytes before that chunk boundary were
    ///   scanned by the old engine, bytes after it by the new engine
    ///   starting fresh (the stream is *cut* at the boundary — exactly
    ///   a fresh stream over the post-boundary suffix);
    /// * `(flow, shard)` units already checked out keep scanning
    ///   against the engine they started on — the reload never blocks
    ///   on them, and they never see a half-installed set;
    /// * a retired epoch's machine image is freed when its last
    ///   pinned flow finishes or migrates;
    /// * reports carry stable rule ids ([`RuleMatch::rule`]), so a
    ///   rule kept across the reload keeps its identity even though
    ///   the recompiled set reshuffles pattern indices.
    ///
    /// ```
    /// use recama::Engine;
    ///
    /// let v1 = Engine::builder().rule(7, "ab{2}c").build().unwrap();
    /// let v2 = Engine::builder().rule(7, "ab{2}c").rule(9, "xyz").build().unwrap();
    ///
    /// let svc = v1.serve();
    /// let flow = svc.open_flow();
    /// svc.push(flow, b".abbc"); // scanned by v1
    /// svc.barrier(); // drain the flow: migration needs a drained boundary
    /// assert_eq!(svc.reload(&v2), 1);
    /// svc.push(flow, b".xyz"); // flow migrates here; scanned by v2
    /// svc.close(flow);
    /// svc.barrier();
    /// let rules: Vec<u64> = svc.poll(flow).iter().map(|m| m.rule).collect();
    /// assert_eq!(rules, vec![7, 9]);
    /// ```
    pub fn reload(&self, engine: &Engine) -> u64 {
        let mut st = self.core.lock();
        let epoch = st.current_epoch + 1;
        st.epochs.push(EpochEngine {
            epoch,
            set: engine.set_arc(),
            flows: 0,
        });
        st.current_epoch = epoch;
        st.metrics.reloads += 1;
        st.epochs.retain(|e| e.epoch == epoch || e.flows > 0);
        drop(st);
        self.core.wake.notify_all();
        epoch
    }

    /// Compiles `rules` with the original engine's builder knobs
    /// (options, shard policy, scan mode — rules replaced) and installs
    /// the result via [`reload`](ServiceHandle::reload). Ids default to
    /// add-order indices; to reload with explicit stable ids, build the
    /// [`Engine`] yourself (with
    /// [`EngineBuilder::rule`](crate::EngineBuilder::rule)) and call
    /// [`reload`](ServiceHandle::reload).
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] of the first failing rule; the
    /// running service is untouched on error.
    pub fn reload_rules<I>(&self, rules: I) -> Result<u64, CompileError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let engine = self.template.clone().patterns(rules).build()?;
        Ok(self.reload(&engine))
    }

    // ---- producing --------------------------------------------------

    /// Opens a fresh flow on the current epoch and returns its
    /// generational [`FlowId`]. When the flow table is at
    /// [`max_flows`](crate::ServeConfig::max_flows), the
    /// least-recently-pushed drained flow is evicted first.
    pub fn open_flow(&self) -> FlowId {
        let mut st = self.core.lock();
        let id = st.open(&self.core.config);
        drop(st);
        self.core.space.notify_all(); // a budget eviction may have freed a blocked producer's flow
        id
    }

    /// Like [`open_flow`](ServiceHandle::open_flow), but sheds the
    /// open — [`ServeError::Overloaded`] — while the service is past
    /// the [`overload`](crate::ServeConfig::overload) high watermark
    /// (queue depth or pending bytes), instead of admitting a flow the
    /// backlog cannot serve. With
    /// [`evict_on_shed`](crate::OverloadPolicy::evict_on_shed) set, a
    /// shed open also evicts the least-recently-pushed drained flow,
    /// so the table self-heals under sustained overload. Poisoning
    /// surfaces as [`ServeError::Poisoned`].
    pub fn try_open_flow(&self) -> Result<FlowId, ServeError> {
        let mut st = self.core.lock();
        if st.poisoned {
            return Err(ServeError::Poisoned {
                message: st.panic_summary().to_string(),
            });
        }
        if st.overloaded(&self.core.config) {
            st.metrics.shed_opens += 1;
            let evicted = self.core.config.overload.evict_on_shed && st.evict_lru();
            drop(st);
            if evicted {
                self.core.space.notify_all();
            }
            return Err(ServeError::Overloaded);
        }
        let id = st.open(&self.core.config);
        drop(st);
        self.core.space.notify_all();
        Ok(id)
    }

    /// Attempts to buffer `chunk` for `flow`. Returns
    /// `Poll::Ready(total)` — the flow's new byte length — on
    /// acceptance, or `Poll::Pending` when accepting the chunk would
    /// break the per-flow or global byte budget, or when the id is
    /// closed or stale (a [`FlowId`] is never reopened; open a new
    /// flow). On `Pending`, retry after the workers have consumed — or
    /// use the blocking [`push`](ServiceHandle::push).
    ///
    /// A chunk is always accepted when the flow buffers nothing, so a
    /// chunk larger than the whole budget still makes progress.
    ///
    /// # Panics
    ///
    /// Panics if the service is poisoned (a worker panicked mid-scan).
    pub fn try_push(&self, flow: FlowId, chunk: &[u8]) -> Poll<u64> {
        let mut st = self.core.lock();
        if st.poisoned {
            panic!(
                "ServiceHandle is poisoned: a worker panicked mid-scan ({}), \
                 so pending flows can never drain",
                st.panic_summary()
            );
        }
        let result = st.try_push_at(flow, chunk, &self.core.config);
        drop(st);
        if result.is_ready() {
            self.core.wake.notify_all();
        }
        result
    }

    /// Buffers `chunk` for `flow`, blocking while the budgets are
    /// exceeded until the workers free space. Returns the flow's new
    /// byte length.
    ///
    /// # Panics
    ///
    /// Panics if the service is poisoned, if `flow` is quarantined,
    /// closed, or stale (it would block forever — open a new flow
    /// instead), or if the service is shutting down. Prefer
    /// [`push_checked`](ServiceHandle::push_checked) to handle those
    /// conditions as values.
    pub fn push(&self, flow: FlowId, chunk: &[u8]) -> u64 {
        let mut st = self.core.lock();
        loop {
            if let Poll::Ready(total) = st.try_push_at(flow, chunk, &self.core.config) {
                drop(st);
                self.core.wake.notify_all();
                return total;
            }
            if st.poisoned {
                panic!(
                    "ServiceHandle is poisoned: a worker panicked mid-scan ({}), \
                     so this flow can never drain",
                    st.panic_summary()
                );
            }
            if let Some(message) = st.flow(flow).and_then(|f| f.quarantined.clone()) {
                panic!(
                    "ServiceHandle::push to a quarantined flow (a scan over its bytes \
                     panicked: {message}): it accepts no more input — \
                     use push_checked to handle this as a value"
                );
            }
            assert!(
                st.flow(flow).is_some_and(|f| !f.closed),
                "ServiceHandle::push to a closed or stale FlowId would block forever: \
                 FlowIds are never reopened — open a new flow with open_flow()"
            );
            assert!(
                !st.shutdown,
                "ServiceHandle::push would block forever with no workers consuming"
            );
            st = self.core.wait_space(st);
        }
    }

    /// Like [`push`](ServiceHandle::push), but surfaces every
    /// cannot-proceed condition as a [`ServeError`] instead of
    /// panicking: [`Quarantined`](ServeError::Quarantined) (with the
    /// panic summary) for a quarantined flow,
    /// [`Poisoned`](ServeError::Poisoned) for a fail-stopped service,
    /// [`Closed`](ServeError::Closed) for a closed/stale id, and
    /// [`Stopped`](ServeError::Stopped) when no workers are consuming.
    /// Still blocks, like `push`, while the byte budgets are the only
    /// obstacle.
    pub fn push_checked(&self, flow: FlowId, chunk: &[u8]) -> Result<u64, ServeError> {
        let mut st = self.core.lock();
        loop {
            if let Some(message) = st.flow(flow).and_then(|f| f.quarantined.clone()) {
                return Err(ServeError::Quarantined { message });
            }
            if st.poisoned {
                return Err(ServeError::Poisoned {
                    message: st.panic_summary().to_string(),
                });
            }
            if let Poll::Ready(total) = st.try_push_at(flow, chunk, &self.core.config) {
                drop(st);
                self.core.wake.notify_all();
                return Ok(total);
            }
            if st.flow(flow).is_none_or(|f| f.closed) {
                return Err(ServeError::Closed);
            }
            if st.shutdown {
                return Err(ServeError::Stopped);
            }
            st = self.core.wait_space(st);
        }
    }

    /// Marks `flow` closed: buffered bytes are still scanned, after
    /// which the flow's engines are freed and its `$`-anchored
    /// [`finishing`](ServiceHandle::finishing) set resolves. Reports
    /// stay pollable until drained; the slot is then recycled (the id
    /// goes stale). Closing an unknown or stale id is a no-op.
    pub fn close(&self, flow: FlowId) {
        let mut st = self.core.lock();
        st.close_flow(flow);
        drop(st);
        self.core.wake.notify_all();
    }

    /// Blocks until every pushed byte has been consumed by every shard
    /// — a producer-side flush point before polling for a batch of
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the service is poisoned, or if it has no consuming
    /// workers (shut down) while work is pending.
    pub fn barrier(&self) {
        let mut st = self.core.lock();
        while st.buffered_total > 0 || st.in_flight > 0 {
            if st.poisoned {
                panic!(
                    "ServiceHandle is poisoned: a worker panicked mid-scan ({}), \
                     so the backlog can never drain",
                    st.panic_summary()
                );
            }
            assert!(
                !st.shutdown,
                "ServiceHandle::barrier would block forever with no workers consuming"
            );
            st = self.core.wait_space(st);
        }
    }

    // ---- consuming --------------------------------------------------

    /// Drains `flow`'s ordered report queue (stream order: ascending
    /// end; within one end, the compiled pattern order of the flow's
    /// epoch) — whatever has been merged so far; see
    /// [`barrier`](ServiceHandle::barrier) for a flush point. Stale ids
    /// return nothing. Once a finished flow is fully drained its slot
    /// is recycled and the id goes stale.
    pub fn poll(&self, flow: FlowId) -> Vec<RuleMatch> {
        let mut st = self.core.lock();
        let Some(f) = st.flow_mut(flow) else {
            return Vec::new();
        };
        let out = f.reports.drain(..).collect();
        st.free_if_drained(flow);
        out
    }

    /// Like [`poll`](ServiceHandle::poll), but distinguishes the empty
    /// cases: a stale/unknown id returns
    /// [`Closed`](ServeError::Closed), and a quarantined flow with
    /// nothing left to drain returns
    /// [`Quarantined`](ServeError::Quarantined) with the panic summary
    /// — instead of an indistinguishable empty vec.
    pub fn poll_checked(&self, flow: FlowId) -> Result<Vec<RuleMatch>, ServeError> {
        let mut st = self.core.lock();
        let Some(f) = st.flow_mut(flow) else {
            return Err(ServeError::Closed);
        };
        if f.reports.is_empty() {
            if let Some(message) = f.quarantined.clone() {
                return Err(ServeError::Quarantined { message });
            }
        }
        let out = f.reports.drain(..).collect();
        st.free_if_drained(flow);
        Ok(out)
    }

    /// Drains `flow`'s finishing set: the `$`-anchored matches ending
    /// exactly at the flow's final byte, resolved when the closed (or
    /// evicted) flow finished draining.
    pub fn finishing(&self, flow: FlowId) -> Vec<RuleMatch> {
        let mut st = self.core.lock();
        let Some(f) = st.flow_mut(flow) else {
            return Vec::new();
        };
        let out = std::mem::take(&mut f.finishing);
        st.free_if_drained(flow);
        out
    }

    /// Drains the global sink: every merged match of every flow, in
    /// merge-completion order.
    ///
    /// # Ordering contract
    ///
    /// Within one flow, events appear in stream order (ascending end;
    /// within one end, the epoch's compiled pattern order) — the same
    /// order [`poll`](ServiceHandle::poll) yields. **Across** flows the
    /// interleaving follows merge completion and is nondeterministic
    /// under concurrency. Every merged match appears exactly once. The
    /// contract is pinned by `tests/service_reload.rs`.
    ///
    /// ```
    /// use recama::Engine;
    ///
    /// let engine = Engine::builder().patterns(["ab{2}c", "xyz"]).build().unwrap();
    /// let svc = engine.serve();
    /// let (a, b) = (svc.open_flow(), svc.open_flow());
    ///
    /// // Interleaved chunks from two flows; matches straddle the chunks.
    /// svc.push(a, b"..ab");
    /// svc.push(b, b"xy");
    /// svc.barrier();
    /// svc.push(b, b"z");
    /// svc.push(a, b"bc!");
    /// svc.barrier();
    ///
    /// let hits: Vec<_> = svc.poll(a).iter().map(|m| (m.rule, m.end)).collect();
    /// assert_eq!(hits, vec![(0, 6)]); // "abbc" ends at offset 6 of flow a
    /// let hits: Vec<_> = svc.poll(b).iter().map(|m| (m.rule, m.end)).collect();
    /// assert_eq!(hits, vec![(1, 3)]); // "xyz" ends at offset 3 of flow b
    /// // The global sink saw both, attributed to their flows.
    /// let mut flows: Vec<_> = svc.drain_global().iter().map(|ev| ev.flow).collect();
    /// flows.sort();
    /// assert_eq!(flows, vec![a, b]);
    /// assert!(svc.drain_global().is_empty(), "the sink drains once");
    /// ```
    pub fn drain_global(&self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.core.lock().sink)
    }

    /// Drains the ids of flows evicted (idle sweep or flow-table
    /// budget) since the last call. Evicted flows behave exactly like
    /// explicitly [`close`](ServiceHandle::close)d ones.
    pub fn evictions(&self) -> Vec<FlowId> {
        std::mem::take(&mut self.core.lock().evicted)
    }

    // ---- observability ----------------------------------------------

    /// A point-in-time [`ServiceMetrics`] snapshot.
    ///
    /// ```
    /// use recama::{Engine, PrefilterMode};
    ///
    /// let engine = Engine::builder()
    ///     .patterns(["needle[0-9]z"])
    ///     .prefilter(PrefilterMode::On) // the default
    ///     .build()
    ///     .unwrap();
    /// let svc = engine.serve();
    /// let flow = svc.open_flow();
    /// svc.push(flow, b"......."); // no literal: skipped, not scanned
    /// svc.push(flow, b"needle7z"); // literal: wakes the shard
    /// svc.barrier();
    ///
    /// let m = svc.metrics();
    /// let pf = m.prefilter.expect("built with the filter on");
    /// assert_eq!(pf.total_skipped_units(), 1);
    /// assert_eq!(pf.total_skipped_bytes(), 7);
    /// assert_eq!(pf.candidate_hits, 1);
    /// assert_eq!(pf.always_on_rules, 0);
    /// assert_eq!(svc.poll(flow).len(), 1);
    /// svc.shutdown();
    /// ```
    pub fn metrics(&self) -> ServiceMetrics {
        self.core.lock().snapshot()
    }

    /// Number of flows currently tracked (open, or closed with
    /// undrained reports).
    pub fn flow_count(&self) -> usize {
        self.core.lock().occupied()
    }

    /// Bytes pushed to `flow` so far (`None` for stale/unknown ids).
    pub fn flow_len(&self, flow: FlowId) -> Option<u64> {
        self.core.lock().flow(flow).map(|f| f.total)
    }

    /// Total bytes buffered but not yet consumed by every shard. O(1).
    pub fn pending_bytes(&self) -> u64 {
        self.core.lock().buffered_total
    }

    /// Whether `flow` still addresses a live (tracked) flow — `false`
    /// once the slot was recycled (the ABA guard).
    pub fn is_live(&self, flow: FlowId) -> bool {
        self.core.lock().flow(flow).is_some()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown_join();
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.lock();
        write!(
            f,
            "ServiceHandle(epoch {}, {} flows, {} shards, {} workers, budget = {} B)",
            st.current_epoch,
            st.occupied(),
            st.current().set.multi.shard_count(),
            self.workers,
            self.core.config.flow_budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetMatch;
    use recama_hw::ShardPolicy;

    fn sharded(patterns: &[&str], shards: usize) -> Engine {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(ShardPolicy::Fixed(shards))
            .build()
            .unwrap()
    }

    /// A stream report as the service reports it: with default ids, the
    /// rule id is the pattern index.
    fn rule_match(m: SetMatch) -> RuleMatch {
        RuleMatch {
            rule: m.pattern as u64,
            end: m.end as u64,
        }
    }

    /// Per-flow service output must equal an independent stream fed the
    /// same chunks.
    fn expected_stream(engine: &Engine, chunks: &[&[u8]]) -> Vec<RuleMatch> {
        let mut stream = engine.stream();
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(stream.feed(chunk).map(rule_match));
        }
        out
    }

    #[test]
    fn interleaved_flows_match_independent_streams() {
        let engine = sharded(&["ab{2,4}c", "x{3}", "q[rs]{2}t"], 3);
        let flow_a: Vec<&[u8]> = vec![b"zab", b"bbc_x", b"xx"];
        let flow_b: Vec<&[u8]> = vec![b"qrst", b"", b"_abbc"];
        for workers in [1, 2, 5] {
            let svc = engine.serve_with(workers, ServeConfig::default());
            let (a, b) = (svc.open_flow(), svc.open_flow());
            // Interleave pushes; flush mid-way and at the end.
            svc.push(a, flow_a[0]);
            svc.push(b, flow_b[0]);
            svc.barrier();
            svc.push(b, flow_b[1]);
            svc.push(a, flow_a[1]);
            svc.push(b, flow_b[2]);
            svc.push(a, flow_a[2]);
            svc.barrier();
            assert_eq!(svc.poll(a), expected_stream(&engine, &flow_a));
            assert_eq!(svc.poll(b), expected_stream(&engine, &flow_b));
            assert_eq!(svc.pending_bytes(), 0);
        }
    }

    #[test]
    fn global_sink_attributes_every_match() {
        let engine = sharded(&["kk", "zz"], 2);
        let svc = engine.serve_with(2, ServeConfig::default());
        let (ten, twenty) = (svc.open_flow(), svc.open_flow());
        svc.push(ten, b"akka");
        svc.push(twenty, b"zz");
        svc.barrier();
        let mut global = svc.drain_global();
        global.sort_by_key(|ev| ev.flow);
        assert_eq!(
            global,
            vec![
                ServiceEvent {
                    flow: ten,
                    rule: 0,
                    end: 3
                },
                ServiceEvent {
                    flow: twenty,
                    rule: 1,
                    end: 2
                },
            ]
        );
        // The sink drains once.
        assert!(svc.drain_global().is_empty());
        // Per-flow queues are independent of the sink.
        assert_eq!(svc.poll(ten).len(), 1);
        assert_eq!(svc.poll(twenty).len(), 1);
    }

    #[test]
    fn close_frees_engines_and_id_reuse_starts_fresh() {
        let engine = sharded(&["ab"], 1);
        let svc = engine.serve_with(1, ServeConfig::default());
        let first = svc.open_flow();
        svc.push(first, b"..ab");
        svc.close(first); // close with bytes still pending
        svc.barrier();
        assert_eq!(svc.poll(first), vec![RuleMatch { rule: 0, end: 4 }]);
        // Finished + drained: the flow entry is gone, the id is stale.
        assert_eq!(svc.flow_count(), 0);
        assert!(!svc.is_live(first));
        // The recycled slot: a fresh stream, positions restart at 1.
        let second = svc.open_flow();
        assert_eq!(second.index(), first.index());
        assert_ne!(second, first);
        svc.push(second, b"ab");
        svc.barrier();
        assert_eq!(svc.poll(second), vec![RuleMatch { rule: 0, end: 2 }]);
        assert_eq!(svc.flow_len(second), Some(2));
        assert_eq!(svc.flow_len(first), None);
    }

    #[test]
    fn finishing_resolves_dollar_anchors_at_flow_end() {
        let engine = sharded(&["ab$", "ab", "cd$"], 2);
        let svc = engine.serve_with(2, ServeConfig::default());
        let one = svc.open_flow();
        svc.push(one, b"ab.c");
        svc.push(one, b"d");
        svc.close(one);
        svc.barrier();
        // Mid-flow, every candidate end is reported (stream contract)...
        assert_eq!(
            svc.poll(one),
            vec![
                RuleMatch { rule: 0, end: 2 },
                RuleMatch { rule: 1, end: 2 },
                RuleMatch { rule: 2, end: 5 },
            ]
        );
        // ...and the finishing set keeps only the $-match on the final
        // byte — exactly what the flow's own stream would finish with.
        let mut stream = engine.stream();
        stream.feed(b"ab.c").count();
        stream.feed(b"d").count();
        let finished: Vec<RuleMatch> = stream.finish().into_iter().map(rule_match).collect();
        assert_eq!(svc.finishing(one), finished);
        assert_eq!(svc.finishing(one), vec![], "finishing drains once");
        assert_eq!(svc.flow_count(), 0, "fully drained flows are forgotten");

        // A flow whose $-candidate is NOT on the final byte finishes empty.
        let two = svc.open_flow();
        svc.push(two, b"ab.");
        svc.close(two);
        svc.barrier();
        assert_eq!(svc.poll(two).len(), 2);
        assert!(svc.finishing(two).is_empty());
    }

    #[test]
    fn zero_length_chunks_open_flows_but_schedule_nothing() {
        let engine = sharded(&["ab"], 1);
        let svc = engine.serve_with(2, ServeConfig::default());
        let one = svc.open_flow();
        assert_eq!(svc.push(one, b""), 0);
        assert_eq!(svc.flow_count(), 1);
        assert_eq!(svc.pending_bytes(), 0);
        svc.barrier(); // no ready units: returns immediately
        assert!(svc.poll(one).is_empty());
        // Empty chunks interleaved with real ones change nothing.
        svc.push(one, b"a");
        svc.push(one, b"");
        svc.push(one, b"b");
        svc.barrier();
        assert_eq!(svc.poll(one), vec![RuleMatch { rule: 0, end: 2 }]);
    }

    #[test]
    fn empty_set_and_unknown_flows_are_harmless() {
        let engine = Engine::new(Vec::<String>::new()).unwrap();
        let svc = engine.serve_with(2, ServeConfig::default());
        let one = svc.open_flow();
        svc.push(one, b"anything");
        svc.barrier();
        assert!(svc.poll(one).is_empty());
        // A never-opened id (another service's slot) is stale here.
        let unknown = FlowId {
            index: 999,
            generation: 0,
        };
        assert!(svc.poll(unknown).is_empty());
        svc.close(unknown); // no-op
        assert!(svc.drain_global().is_empty());
        assert!(format!("{svc:?}").contains("2 workers"));
    }

    /// The admission rule, driven on a bare [`ServeState`] with no
    /// workers, so nothing consumes and the budget math is exact. The
    /// prefilter is off: it would skip the literal-free chunks, and
    /// skipped bytes are consumed, not buffered.
    #[test]
    fn try_push_at_applies_the_flow_budget_without_workers() {
        let engine = Engine::builder()
            .pattern("ab")
            .prefilter(crate::PrefilterMode::Off)
            .build()
            .unwrap();
        let cfg = ServeConfig {
            flow_budget: 8,
            ..ServeConfig::default()
        };
        let mut st = ServeState::new(&engine);
        let one = st.open(&cfg);
        // First chunk: empty buffer, always accepted.
        assert_eq!(st.try_push_at(one, b"123456", &cfg), Poll::Ready(6));
        // 6 buffered + 6 > 8: pushed back.
        assert_eq!(st.try_push_at(one, b"abcdef", &cfg), Poll::Pending);
        // A small chunk still fits under the budget.
        assert_eq!(st.try_push_at(one, b"78", &cfg), Poll::Ready(8));
        // Exactly at budget: the next byte is pushed back.
        assert_eq!(st.try_push_at(one, b"9", &cfg), Poll::Pending);
        // An empty chunk buffers nothing: accepted even at budget.
        assert_eq!(st.try_push_at(one, b"", &cfg), Poll::Ready(8));
        // Another flow has its own budget.
        let two = st.open(&cfg);
        assert_ne!(two, one);
        assert_eq!(st.try_push_at(two, b"ab", &cfg), Poll::Ready(2));
        assert_eq!(st.buffered_total, 10);
        assert_eq!(st.metrics.backpressure, 2);
        // Closed and not yet drained: pushes are rejected.
        st.close_flow(one);
        assert_eq!(st.try_push_at(one, b"cd", &cfg), Poll::Pending);
        assert_eq!(st.flow(one).map(|f| f.total), Some(8));
    }
}
