//! The closed-loop load generator: one producer thread keeps a pass's
//! flows open; each round pushes one chunk per flow, calls `barrier()`
//! (the service's only completion signal) and polls every flow.

use crate::oracle::Digest;
use crate::trace::{Recorder, SpanId};
use crate::workload::{Inputs, Spec};
use recama::{FlowId, RuleMatch, ServeError, ServiceHandle, ServiceMetrics};
use std::time::Instant;

/// What one flow of one pass delivered, for the reference check.
#[derive(Debug, Clone, Copy)]
pub struct FlowOutcome {
    /// Rule set the flow was served under (index into `Inputs::sets`).
    pub set: usize,
    pub stream: usize,
    pub digest: Digest,
    /// Calls made for this flow: open, push, poll (and finishing), close.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    pub bytes: u64,
    /// First push to last poll (long-lived), or open to reload return
    /// (churn: open, serve, close, drain and reload are all timed).
    pub wall_ns: u64,
    /// Per chunk: just before its push to the return of the poll that
    /// delivers its round's reports.
    pub latencies_ns: Vec<u64>,
    pub reload_ns: Option<u64>,
    pub reload_failed: bool,
    pub reports: u64,
    /// Global-sink events retained when the pass ended (then drained,
    /// untimed).
    pub sink_len: usize,
    /// The pass's root span (traced passes).
    pub span: Option<SpanId>,
    /// Service metrics around a traced pass.
    pub metrics: Option<(ServiceMetrics, ServiceMetrics)>,
}

struct Flow {
    id: Option<FlowId>,
    out: FlowOutcome,
}

impl Flow {
    fn record<T>(&mut self, result: Result<T, ServeError>) -> Option<T> {
        self.out.calls += 1;
        match result {
            Ok(v) => Some(v),
            Err(_) => {
                self.out.errors += 1;
                None
            }
        }
    }

    fn absorb(&mut self, reports: &[RuleMatch]) -> u64 {
        for m in reports {
            self.out.digest.push(m.rule, m.end);
        }
        reports.len() as u64
    }
}

/// Serves the stream pool once under rule set `set`; for churn, then
/// hot-reloads `sets[next_set]`.
pub fn pass(
    svc: &ServiceHandle,
    spec: &Spec,
    inputs: &Inputs,
    set: usize,
    next_set: usize,
    rec: &mut Recorder,
    outcomes: &mut Vec<FlowOutcome>,
) -> Pass {
    let traced = rec.enabled();
    let before = traced.then(|| svc.metrics());
    let root = rec.begin("serve.pass", None, None);
    let mut flows: Vec<Flow> = inputs
        .order
        .iter()
        .copied()
        .map(|stream| Flow {
            id: None,
            out: FlowOutcome {
                set,
                stream,
                digest: Digest::default(),
                calls: 0,
                errors: 0,
            },
        })
        .collect();
    let mut latencies_ns = Vec::with_capacity(flows.len() * spec.rounds);
    let mut reports = 0;
    let mut pushed_at = vec![Instant::now(); flows.len()];

    let opened_at = Instant::now();
    for f in flows.iter_mut() {
        let id = rec.time("core.service.open", root, None, || svc.try_open_flow());
        f.id = f.record(id);
    }
    let start = if spec.churn {
        opened_at
    } else {
        Instant::now()
    };

    let chunk = spec.chunk;
    let mut bytes = 0u64;
    for round in 0..spec.rounds {
        for (i, f) in flows.iter_mut().enumerate() {
            let Some(id) = f.id else { continue };
            let data = &inputs.streams[f.out.stream][round * chunk..(round + 1) * chunk];
            pushed_at[i] = Instant::now();
            let req = Some((i as u32, round as u32));
            let r = rec.time("core.service.push", root, req, || {
                svc.push_checked(id, data)
            });
            if f.record(r).is_some() {
                bytes += data.len() as u64;
            }
        }
        rec.time("core.service.barrier", root, None, || svc.barrier());
        for (i, f) in flows.iter_mut().enumerate() {
            let Some(id) = f.id else { continue };
            let req = Some((i as u32, round as u32));
            let r = rec.time("core.service.poll", root, req, || svc.poll_checked(id));
            if let Some(v) = f.record(r) {
                reports += f.absorb(&v);
            }
            latencies_ns.push(pushed_at[i].elapsed().as_nanos() as u64);
        }
    }
    let mut wall_ns = start.elapsed().as_nanos() as u64;

    // Close and drain: the flows' final reports and `$` finishing set.
    for f in flows.iter_mut() {
        let Some(id) = f.id else { continue };
        rec.time("core.service.close", root, None, || svc.close(id));
        f.out.calls += 1;
    }
    rec.time("core.service.barrier", root, None, || svc.barrier());
    for f in flows.iter_mut() {
        let Some(id) = f.id else { continue };
        // A closed flow that drained nothing may already be recycled:
        // `Closed` is the documented answer then, not a failure.
        f.out.calls += 1;
        match rec.time("core.service.poll", root, None, || svc.poll_checked(id)) {
            Ok(v) => reports += f.absorb(&v),
            Err(ServeError::Closed) => {}
            Err(_) => f.out.errors += 1,
        }
        f.out.calls += 1;
        let fin = rec.time("core.service.poll", root, None, || svc.finishing(id));
        reports += f.absorb(&fin);
    }

    let (mut reload_ns, mut reload_failed) = (None, false);
    if spec.churn {
        let t = Instant::now();
        let r = rec.time("core.service.reload", root, None, || {
            svc.reload_rules(&inputs.sets[next_set])
        });
        reload_ns = Some(t.elapsed().as_nanos() as u64);
        reload_failed = r.is_err();
        wall_ns = start.elapsed().as_nanos() as u64;
    }
    rec.end(root);

    let sink_len = svc.drain_global().len();
    let metrics = before.map(|b| (b, svc.metrics()));
    outcomes.extend(flows.into_iter().map(|f| f.out));
    Pass {
        traced,
        bytes,
        wall_ns,
        latencies_ns,
        reload_ns,
        reload_failed,
        reports,
        sink_len,
        span: root,
        metrics,
    }
}
