//! [`FlowScheduler`]: batch many-flow scanning over a sharded pattern
//! set.
//!
//! The paper evaluates CAMA as an IDS-class engine (Snort/Suricata
//! rulesets), and the workload such an engine serves is not one byte
//! stream but **thousands of concurrent flows**, each delivering bytes in
//! interleaved chunks — the shape of Suricata's flow-worker pipeline.
//! What matters at deployment scale is aggregate multi-flow throughput,
//! so the scheduling layer must keep every core busy with whatever flow
//! has bytes pending instead of binding workers to flows.
//!
//! The scheduler is a thin batch layer over the crate's one scheduling
//! core, the owned [`ServiceHandle`]: it addresses flows by
//! caller-chosen `u64` ids and reports pattern-indexed [`SetMatch`]es,
//! through three moves:
//!
//! * [`push`](FlowScheduler::push) buffers a `(flow, chunk)` pair and
//!   marks the flow's `(flow, shard)` units ready; the handle's live
//!   workers start scanning right away. The work unit is a
//!   `(flow, shard)` pair, so two workers can advance *different shards
//!   of the same flow* concurrently;
//! * [`run`](FlowScheduler::run) is the handle's
//!   [`barrier`](ServiceHandle::barrier): it returns once every pushed
//!   byte has been scanned;
//! * [`poll`](FlowScheduler::poll) drains a flow's ordered report queue;
//!   [`drain_global`](FlowScheduler::drain_global) drains the global
//!   sink of `(flow, match)` events.
//!
//! Per-flow reports are **byte-identical** (same reports, same order) to
//! feeding that flow's chunks through its own independent
//! [`ShardedSetStream`](crate::ShardedSetStream). Like the streams, the
//! scheduler applies no trailing-`$` filter mid-flow (a flow has no end
//! until it is [`close`](FlowScheduler::close)d); once a closed flow
//! drains, [`finishing`](FlowScheduler::finishing) resolves which
//! `$`-anchored candidates actually landed on the final byte, mirroring
//! [`ShardedSetStream::finish`](crate::ShardedSetStream::finish).

use crate::{Engine, PrefilterMetrics, ServeConfig, ServiceHandle, SetMatch};
use recama_nca::HybridStats;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// A match attributed to a flow — the global-sink event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowMatch {
    /// The flow the match occurred on.
    pub flow: u64,
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// 1-based end offset, absolute within the flow's byte stream.
    pub end: usize,
}

impl FlowMatch {
    /// The match without its flow attribution.
    pub fn set_match(&self) -> SetMatch {
        SetMatch {
            pattern: self.pattern,
            end: self.end,
        }
    }
}

/// A buffered input chunk: `bytes` starts at absolute stream offset
/// `start` within its flow. Chunks are `Arc`-shared so workers can scan
/// them outside the service lock while slower shards still reference
/// them.
#[derive(Clone)]
pub(crate) struct Segment {
    pub(crate) start: u64,
    pub(crate) bytes: Arc<[u8]>,
}

impl Segment {
    pub(crate) fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }
}

/// A batch scanning service over an [`Engine`] for many concurrent
/// flows; create one with [`Engine::scheduler`] or
/// [`Engine::scheduler_with`]. See the [module docs](self) for the
/// architecture.
///
/// The scheduler owns a [`ServiceHandle`] with the default
/// [`ServeConfig`], so:
///
/// * its workers scan as bytes arrive, not only inside
///   [`run`](FlowScheduler::run);
/// * a flow buffering more than the 1 MiB per-flow budget makes
///   [`push`](FlowScheduler::push) block until the workers catch up;
/// * a panic inside a scan quarantines only that flow
///   ([`FaultPolicy::Isolate`](crate::FaultPolicy::Isolate)) and does
///   not propagate out of `run`: the flow's reports merged before the
///   fault stay pollable, and a later push reopens the id as a fresh
///   flow.
///
/// # Examples
///
/// ```
/// use recama::Engine;
///
/// let engine = Engine::builder().patterns(["ab{2}c", "xyz"]).build().unwrap();
/// let sched = engine.scheduler_with(2);
///
/// // Interleaved chunks from two flows; matches straddle the chunks.
/// sched.push(7, b"..ab");
/// sched.push(9, b"xy");
/// sched.run();
/// sched.push(9, b"z");
/// sched.push(7, b"bc!");
/// sched.run();
///
/// let hits: Vec<_> = sched.poll(7).iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(0, 6)]); // "abbc" ends at flow-7 offset 6
/// let hits: Vec<_> = sched.poll(9).iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(1, 3)]); // "xyz" ends at flow-9 offset 3
/// // The global sink saw both, attributed to their flows.
/// assert_eq!(sched.drain_global().len(), 2);
/// ```
pub struct FlowScheduler<'a> {
    handle: ServiceHandle,
    /// Schedulers are handed out by an [`Engine`] and keep its borrow
    /// shape, though the handle shares the machine image itself.
    _engine: PhantomData<&'a Engine>,
}

impl<'a> FlowScheduler<'a> {
    /// A scheduler over `engine` with `workers` live worker threads (at
    /// least one). The engine's fault-injection plan, if any, is
    /// inherited.
    pub(crate) fn new(engine: &'a Engine, workers: usize) -> FlowScheduler<'a> {
        FlowScheduler {
            handle: ServiceHandle::spawn(engine, workers, ServeConfig::default()),
            _engine: PhantomData,
        }
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.handle.workers()
    }

    /// Buffers `chunk` for `flow`, opening the flow on first use. A
    /// zero-length chunk opens the flow but schedules no work. Pushing to
    /// a [`close`](FlowScheduler::close)d-and-drained id reopens it as a
    /// **fresh** flow (new engine states, positions restarting at 0);
    /// undrained reports of the previous incarnation stay pollable.
    ///
    /// Blocks while the flow is over its 1 MiB input budget, until the
    /// workers catch up.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is closed and not yet drained — see
    /// [`close`](FlowScheduler::close).
    pub fn push(&self, flow: u64, chunk: &[u8]) {
        if self.handle.push_raw(flow, chunk).is_none() {
            panic!("push to closed flow {flow}: run() + poll() it first, or use a new id");
        }
    }

    /// Marks `flow` closed: already-buffered bytes are still scanned,
    /// after which the flow's engine states are freed. Its reports stay
    /// pollable; the id can be reused once it has drained (see
    /// [`push`](FlowScheduler::push)). Closing an unknown id is a no-op.
    ///
    /// # Panics
    ///
    /// [`push`](FlowScheduler::push)ing to a closed flow that has not
    /// drained yet panics — close is a promise that no more bytes come.
    /// [`run`](FlowScheduler::run) drains every closed flow.
    pub fn close(&self, flow: u64) {
        self.handle.close_raw(flow);
    }

    /// Returns once every flow's shards have consumed every pushed byte.
    /// Engine states persist across calls — `push`/`run`/`poll` cycles
    /// can repeat forever, which is the serving loop.
    pub fn run(&self) {
        self.handle.barrier();
    }

    /// Drains `flow`'s ordered report queue (stream order: ascending end,
    /// ascending pattern within an end). A finished flow whose reports
    /// and finishing set have all been drained is forgotten, freeing its
    /// table entry.
    pub fn poll(&self, flow: u64) -> Vec<SetMatch> {
        self.handle.poll_raw(flow)
    }

    /// Drains `flow`'s **finishing set**: the `$`-anchored matches that
    /// end exactly at the flow's final byte, resolved when the
    /// [`close`](FlowScheduler::close)d flow finished draining — the
    /// per-flow analogue of [`ShardedSetStream::finish`]. Empty for
    /// open or still-draining flows ([`poll`](FlowScheduler::poll)
    /// reports every `$` candidate mid-flow, because the end is unknown
    /// until close; the non-`$` polled reports plus this set are
    /// together what a one-shot `find_ends` over the whole flow
    /// returns). Finishing matches do not appear in the global sink.
    ///
    /// [`ShardedSetStream::finish`]: crate::ShardedSetStream::finish
    pub fn finishing(&self, flow: u64) -> Vec<SetMatch> {
        self.handle.finishing_raw(flow)
    }

    /// Drains the global sink: every merged match of every flow, in
    /// the order the scheduler finalized them.
    ///
    /// # Ordering contract
    ///
    /// The contract of [`ServiceHandle::drain_global`], pinned by
    /// `tests/service_reload.rs`:
    ///
    /// * **within one flow**, events appear in stream order — ascending
    ///   end offset, ascending pattern index within one end — exactly
    ///   the order [`poll`](FlowScheduler::poll) returns them;
    /// * **across flows**, events interleave in merge-completion order,
    ///   which follows worker scheduling and is *not* deterministic;
    /// * each event is delivered **exactly once**: the sink is emptied
    ///   by the call, and an event is never in both an earlier and a
    ///   later drain.
    pub fn drain_global(&self) -> Vec<FlowMatch> {
        self.handle.drain_global_raw()
    }

    /// Number of flows currently tracked (open, or closed with undrained
    /// reports).
    pub fn flow_count(&self) -> usize {
        self.handle.flow_count()
    }

    /// Bytes pushed to `flow` so far (`None` for unknown flows). After a
    /// close + reopen this restarts from the new incarnation's bytes.
    pub fn flow_len(&self, flow: u64) -> Option<u64> {
        self.handle.flow_len_raw(flow)
    }

    /// Total bytes buffered but not yet consumed by every shard. The
    /// workers scan as bytes arrive, so between a
    /// [`push`](FlowScheduler::push) and [`run`](FlowScheduler::run)
    /// this is a moving snapshot; after `run` it is 0.
    pub fn pending_bytes(&self) -> u64 {
        self.handle.pending_bytes()
    }

    /// Aggregated hybrid-overlay statistics across every shard engine
    /// the scheduler has run — those of finished flows included — or
    /// `None` when the set scans in [`ScanMode::Nca`]. Engines
    /// currently checked out by workers are not counted; sample after
    /// [`run`](FlowScheduler::run) for complete numbers.
    ///
    /// [`ScanMode::Nca`]: crate::ScanMode::Nca
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        self.handle.metrics().hybrid
    }

    /// Aggregated literal-prefilter counters — skipped `(flow, shard)`
    /// chunk scans per shard, skipped bytes, cold→hot wake-ups — or
    /// `None` when the set was built with
    /// [`PrefilterMode::Off`](crate::PrefilterMode::Off). Counters
    /// accumulate across [`push`](FlowScheduler::push)es for the
    /// scheduler's lifetime.
    pub fn prefilter_stats(&self) -> Option<PrefilterMetrics> {
        self.handle.metrics().prefilter
    }
}

impl fmt::Debug for FlowScheduler<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowScheduler({:?})", self.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_hw::ShardPolicy;

    fn sharded(patterns: &[&str], shards: usize) -> Engine {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(ShardPolicy::Fixed(shards))
            .build()
            .unwrap()
    }

    /// Per-flow scheduler output must equal an independent stream fed the
    /// same chunks.
    fn expected_stream(engine: &Engine, chunks: &[&[u8]]) -> Vec<SetMatch> {
        let mut stream = engine.stream();
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(stream.feed(chunk));
        }
        out
    }

    #[test]
    fn interleaved_flows_match_independent_streams() {
        let engine = sharded(&["ab{2,4}c", "x{3}", "q[rs]{2}t"], 3);
        let flow_a: Vec<&[u8]> = vec![b"zab", b"bbc_x", b"xx"];
        let flow_b: Vec<&[u8]> = vec![b"qrst", b"", b"_abbc"];
        for workers in [1, 2, 5] {
            let sched = engine.scheduler_with(workers);
            // Interleave pushes; run mid-way and at the end.
            sched.push(1, flow_a[0]);
            sched.push(2, flow_b[0]);
            sched.run();
            sched.push(2, flow_b[1]);
            sched.push(1, flow_a[1]);
            sched.push(2, flow_b[2]);
            sched.push(1, flow_a[2]);
            sched.run();
            assert_eq!(sched.poll(1), expected_stream(&engine, &flow_a));
            assert_eq!(sched.poll(2), expected_stream(&engine, &flow_b));
            assert_eq!(sched.pending_bytes(), 0);
        }
    }

    #[test]
    fn global_sink_attributes_every_match() {
        let engine = sharded(&["kk", "zz"], 2);
        let sched = engine.scheduler_with(2);
        sched.push(10, b"akka");
        sched.push(20, b"zz");
        sched.run();
        let mut global = sched.drain_global();
        global.sort();
        assert_eq!(
            global,
            vec![
                FlowMatch {
                    flow: 10,
                    pattern: 0,
                    end: 3
                },
                FlowMatch {
                    flow: 20,
                    pattern: 1,
                    end: 2
                },
            ]
        );
        assert_eq!(global[0].set_match(), SetMatch { pattern: 0, end: 3 });
        // The sink drains once.
        assert!(sched.drain_global().is_empty());
        // Per-flow queues are independent of the sink.
        assert_eq!(sched.poll(10).len(), 1);
        assert_eq!(sched.poll(20).len(), 1);
    }

    #[test]
    fn close_frees_engines_and_id_reuse_starts_fresh() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(1);
        sched.push(5, b"..ab");
        sched.close(5); // close with bytes still pending
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 4 }]);
        // Finished + drained: the flow entry is gone.
        assert_eq!(sched.flow_count(), 0);
        // Same id again: a fresh stream, positions restart at 1.
        sched.push(5, b"ab");
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 2 }]);
        assert_eq!(sched.flow_len(5), Some(2));
    }

    #[test]
    fn close_then_reopen_before_poll_keeps_old_reports() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(1);
        sched.push(5, b"ab");
        sched.close(5);
        sched.run();
        // Reopen before polling: the undrained report survives, and the
        // new incarnation's reports queue up behind it.
        sched.push(5, b"xab");
        sched.run();
        assert_eq!(
            sched.poll(5),
            vec![
                SetMatch { pattern: 0, end: 2 },
                SetMatch { pattern: 0, end: 3 },
            ]
        );
    }

    #[test]
    fn finishing_resolves_dollar_anchors_at_flow_end() {
        let engine = sharded(&["ab$", "ab", "cd$"], 2);
        let sched = engine.scheduler_with(2);
        sched.push(1, b"ab.c");
        sched.push(1, b"d");
        sched.close(1);
        sched.run();
        // Mid-flow, every candidate end is reported (stream contract)...
        assert_eq!(
            sched.poll(1),
            vec![
                SetMatch { pattern: 0, end: 2 },
                SetMatch { pattern: 1, end: 2 },
                SetMatch { pattern: 2, end: 5 },
            ]
        );
        // ...and the finishing set keeps only the $-match on the final
        // byte — exactly what the flow's own stream would finish with.
        let mut stream = engine.stream();
        stream.feed(b"ab.c").count();
        stream.feed(b"d").count();
        assert_eq!(sched.finishing(1), stream.finish());
        assert_eq!(sched.finishing(1), vec![], "finishing drains once");
        assert_eq!(sched.flow_count(), 0, "fully drained flows are forgotten");

        // A flow whose $-candidate is NOT on the final byte finishes empty.
        sched.push(2, b"ab.");
        sched.close(2);
        sched.run();
        assert_eq!(sched.poll(2).len(), 2);
        assert!(sched.finishing(2).is_empty());
    }

    #[test]
    fn zero_length_chunks_open_flows_but_schedule_nothing() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(2);
        sched.push(1, b"");
        assert_eq!(sched.flow_count(), 1);
        assert_eq!(sched.pending_bytes(), 0);
        sched.run(); // no ready units: returns immediately
        assert!(sched.poll(1).is_empty());
        // Empty chunks interleaved with real ones change nothing.
        sched.push(1, b"a");
        sched.push(1, b"");
        sched.push(1, b"b");
        sched.run();
        assert_eq!(sched.poll(1), vec![SetMatch { pattern: 0, end: 2 }]);
    }

    #[test]
    fn empty_set_and_unknown_flows_are_harmless() {
        let engine = Engine::new(Vec::<String>::new()).unwrap();
        let sched = engine.scheduler_with(2);
        sched.push(1, b"anything");
        sched.run();
        assert!(sched.poll(1).is_empty());
        assert!(sched.poll(999).is_empty()); // never-opened flow
        sched.close(999); // no-op
        assert!(sched.drain_global().is_empty());
        assert!(format!("{sched:?}").contains("2 workers"));
    }

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowScheduler<'static>>();
        assert_send_sync::<FlowMatch>();
    }
}
