//! The blocking-communication baseline controller ("Original MPI").
//!
//! The paper compares BabelFlow's MPI backend against the hand-tuned
//! implementation of Landge et al. and attributes the difference to
//! communication style: "the original implementation used blocking
//! communication while our MPI backend uses asynchronous calls and
//! independent threads. Since the computation is naturally load imbalanced
//! […] an asynchronous execution is likely more tolerant of delays."
//!
//! This controller reproduces the baseline's mechanism: each rank executes
//! its tasks in a *fixed static order* (a global topological order of the
//! graph), blocking on each missing input in turn, with no worker threads.
//! Everything else — task graph, callbacks, payloads, transport — is
//! identical to the asynchronous controller (including the [`ShardPlan`]
//! fast path and batched sends), so benchmark deltas between the two
//! isolate exactly the scheduling difference.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::RecvTimeoutError;
use babelflow_core::exec::{route, run_task, Buffers, FirstError, Hop};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    Controller, ControllerError, InitialInputs, Payload, Registry, Result, RunReport, RunStats,
    ShardId, ShardPlan, TaskGraph, TaskId,
};

use crate::comm::{FaultPlan, World};
use crate::controller::{finish_rank, inputs_by_rank, merge_ranks, RankOutcome, DEFAULT_TIMEOUT};
use crate::reliable::ReliableEndpoint;
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// Blocking, statically ordered MPI-style controller (the "Original MPI"
/// baseline of Fig. 6).
#[derive(Clone, Debug)]
pub struct BlockingMpiController {
    /// Stall-detection timeout per blocking receive.
    pub timeout: Duration,
    /// Fault injection for tests.
    pub faults: FaultPlan,
}

impl Default for BlockingMpiController {
    fn default() -> Self {
        BlockingMpiController { timeout: DEFAULT_TIMEOUT, faults: FaultPlan::none() }
    }
}

impl BlockingMpiController {
    /// Controller with the default timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Inject transport faults (tests only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Global topological order of the graph (Kahn's algorithm, id-tiebroken):
/// the static schedule every rank follows. Any topological order is a valid
/// blocking schedule; id tie-breaking makes it deterministic.
///
/// Legacy (procedural) form, querying `graph.task()` per id; the
/// controller itself uses the query-free [`ShardPlan::static_schedule`],
/// which produces the identical order. Kept public for benchmarks
/// measuring the legacy call pattern.
pub fn static_schedule(graph: &dyn TaskGraph) -> HashMap<TaskId, usize> {
    let ids = graph.ids();
    let tasks: HashMap<TaskId, babelflow_core::Task> =
        ids.iter().filter_map(|&id| graph.task(id).map(|t| (id, t))).collect();
    let mut indegree: HashMap<TaskId, usize> = tasks
        .values()
        .map(|t| (t.id, t.incoming.iter().filter(|s| !s.is_external()).count()))
        .collect();
    let mut frontier: Vec<TaskId> =
        indegree.iter().filter(|(_, &d)| d == 0).map(|(&id, _)| id).collect();
    frontier.sort();
    let mut queue: VecDeque<TaskId> = frontier.into();
    let mut order = HashMap::with_capacity(tasks.len());
    while let Some(id) = queue.pop_front() {
        let pos = order.len();
        order.insert(id, pos);
        let mut next = Vec::new();
        for dsts in &tasks[&id].outgoing {
            for &dst in dsts {
                if dst.is_external() {
                    continue;
                }
                let d = indegree.get_mut(&dst).expect("edge target exists");
                *d -= 1;
                if *d == 0 {
                    next.push(dst);
                }
            }
        }
        next.sort();
        queue.extend(next);
    }
    order
}

impl Controller for BlockingMpiController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        plan.preflight(registry, &initial)?;
        let schedule = &plan.static_schedule();
        let mut world = World::with_faults(plan.num_shards() as usize, self.faults.clone());
        let timeout = self.timeout;
        let errors = FirstError::default();

        let outcomes: Vec<RankOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = world
                .endpoints()
                .into_iter()
                .zip(inputs_by_rank(plan, initial))
                .map(|(ep, inputs)| {
                    let (sink, errors) = (sink.clone(), &errors);
                    s.spawn(move || {
                        let mut rel = ReliableEndpoint::new(ep);
                        let outcome = blocking_rank(
                            &mut rel, plan, registry, inputs, schedule, timeout, sink, errors,
                        );
                        finish_rank(rel, outcome, timeout, errors)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        });
        merge_ranks(&errors, outcomes)
    }

    fn name(&self) -> &'static str {
        "mpi-blocking"
    }
}

#[allow(clippy::too_many_arguments)]
fn blocking_rank(
    rel: &mut ReliableEndpoint,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    schedule: &HashMap<TaskId, usize>,
    timeout: Duration,
    sink: Arc<dyn TraceSink>,
    errors: &FirstError,
) -> RankOutcome {
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let my_shard = ShardId(rel.rank() as u32);
    // The static schedule: strictly follow the global topological order.
    let mut local: Vec<u32> = plan.local(my_shard).to_vec();
    local.sort_by_key(|&ix| schedule[&plan.task(ix).id()]);
    let mut buffers = Buffers::new(plan, local.iter().copied(), initial)?;

    let mut outputs: BTreeMap<TaskId, Vec<Payload>> = BTreeMap::new();
    let mut stats = RunStats::default();

    for &task_ix in &local {
        let pt = plan.task(task_ix);
        let task_id = pt.id();
        // Blocking phase: wait until this specific task is complete,
        // ignoring whether later tasks could already run (the baseline's
        // weakness under load imbalance).
        let wait_start = if tracing { now_ns() } else { 0 };
        let tick = Duration::from_millis(10).min(timeout);
        let mut last_progress = Instant::now();
        while !buffers.is_ready(task_id) {
            if let Some(err) = errors.get() {
                return Err(err);
            }
            // Drain whatever the reliable layer has restored to order.
            let mut progressed = false;
            while let Some((src_rank, _tag, body)) = rel.pop_ready() {
                let recv_start = if tracing { now_ns() } else { 0 };
                let wire_bytes = body.len() as u64;
                let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                    ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
                })?;
                buffers.deliver(msg.src_task, msg.dst_task, Payload::Buffer(msg.payload))?;
                if tracing {
                    let dst_cb = plan.task_by_id(msg.dst_task).expect("delivered").callback();
                    sink.record(
                        TraceEvent::span(
                            SpanKind::MsgRecv,
                            recv_start,
                            now_ns(),
                            my_rank,
                            CONTROL_THREAD,
                        )
                        .with_task(msg.dst_task, dst_cb)
                        .with_message(msg.src_task, wire_bytes),
                    );
                }
                progressed = true;
            }
            if progressed {
                last_progress = Instant::now();
                continue;
            }
            match rel.inbox().recv_timeout(tick) {
                Ok(env) => rel.handle(env),
                Err(RecvTimeoutError::Timeout) => {
                    rel.tick();
                    if last_progress.elapsed() >= timeout {
                        return Err(ControllerError::Deadlock { pending: buffers.pending() });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ControllerError::Runtime("world torn down".into()));
                }
            }
        }

        let (_, inputs) = buffers.take(task_id).expect("scheduled task buffered");
        if tracing {
            // For the blocking baseline, "queue wait" is the blocking-recv
            // phase: time the static schedule stalled on this task's inputs.
            sink.record(
                TraceEvent::span(SpanKind::QueueWait, wait_start, now_ns(), my_rank, 0)
                    .with_task(task_id, pt.callback()),
            );
        }
        let cb = registry.get(pt.callback()).expect("preflight checked bindings");
        let ran = run_task(pt, cb, &inputs, &*sink, my_rank, 0)?;
        stats.tasks_executed += 1;
        stats.recovery.retries += ran.retries;
        stats.perf.payload_clones += ran.clones;
        let clones = route(pt, ran.outputs, Some(my_shard), |hop| {
            match hop {
                Hop::External(p) => outputs.entry(task_id).or_default().push(p),
                Hop::Local(dst, p) => {
                    buffers.deliver(task_id, dst, p)?;
                    stats.local_messages += 1;
                    if tracing {
                        let t = now_ns();
                        // In-memory move: no serialization, bytes = 0.
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, t, t, my_rank, 0)
                                .with_task(task_id, pt.callback())
                                .with_message(dst, 0),
                        );
                    }
                }
                Hop::Remote(r, p) => {
                    let send_start = if tracing { now_ns() } else { 0 };
                    let body = DataflowMsg::from_payload(r.dst, task_id, p).encode();
                    let wire_bytes = body.len() as u64;
                    stats.remote_messages += 1;
                    stats.remote_bytes += wire_bytes;
                    rel.send(r.shard.0 as usize, TAG_DATAFLOW, body);
                    if tracing {
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), my_rank, 0)
                                .with_task(task_id, pt.callback())
                                .with_message(r.dst, wire_bytes),
                        );
                    }
                }
            }
            Ok::<(), ControllerError>(())
        })?;
        stats.perf.payload_clones += clones;
        // One envelope per destination for this task's whole fan-out.
        rel.flush_sends();
        // Between tasks, read queued acks and ack queued data, so neither
        // side's messages outlive the retransmit timeout while this rank
        // computes.
        rel.poll();
    }

    Ok((outputs, stats))
}
