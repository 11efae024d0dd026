//! The asynchronous MPI controller — §IV-A of the paper.
//!
//! "The MPI controller uses a static allocation of the tasks and
//! asynchronous point-to-point messages for communication. […] Each time
//! new information arrives, the controller checks whether all input
//! requirements for some tasks are met. When a task is ready to execute, it
//! spawns a new thread that is executed in the background. […] Tasks are
//! scheduled greedily, i.e., each task is started as soon as all its input
//! data has been received, in the order in which this data arrived."
//!
//! Fidelity notes:
//! * static task→rank allocation via the user's [`TaskMap`], precompiled
//!   into a [`ShardPlan`] so the steady state never re-queries the
//!   procedural graph (see `crate::plan` in `babelflow-core`);
//! * per-rank controller thread + a pool of worker threads executing ready
//!   tasks in arrival order. The pool is a work-stealing
//!   [`WorkPool`](babelflow_core::sync::WorkPool): an idle worker steals
//!   queued tasks from a busy sibling's deque, so one slow callback cannot
//!   strand the backlog behind it;
//! * the in-memory fast path: intra-rank messages move the `Payload` by
//!   reference, skipping de/serialization; inter-rank messages serialize
//!   and are *batched* — every destination gets at most one envelope per
//!   completed task's fan-out ([`ReliableEndpoint::flush_sends`]);
//! * each task owns its inputs and relinquishes its outputs, so payloads
//!   are never mutated in place (enforced by `Payload`'s shared-`Arc`
//!   design).
//!
//! Recovery (DESIGN.md §11): all inter-rank traffic flows through the
//! [`ReliableEndpoint`] ack/retransmit layer, so transport drop/duplicate/
//! reorder faults converge to exactly-once in-order delivery. Execution
//! faults are survived by exploiting task idempotence: a dispatched task's
//! inputs are *retained* until its completion is observed, a panicking
//! callback is retried in place by the worker, and a task whose completion
//! is overdue (its worker died) is re-fired from the retained inputs onto
//! another pool thread. Stall detection is decoupled from the retransmit
//! tick: the run only deadlocks when nothing has progressed for the full
//! `timeout`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::{select2, unbounded, Select2};
use babelflow_core::exec::{route, run_task, Buffers, Executed, FirstError, Hop};
use babelflow_core::fault::MAX_TASK_RETRIES;
use babelflow_core::sync::WorkPool;
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    Controller, ControllerError, InitialInputs, Payload, Registry, Result, RunReport, RunStats,
    ShardId, ShardPlan, TaskId,
};

use crate::comm::{FaultPlan, RankComm, World};
use crate::reliable::ReliableEndpoint;
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// Default per-rank stall timeout before declaring the dataflow dead.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Asynchronous MPI-style controller.
#[derive(Clone, Debug)]
pub struct MpiController {
    /// Worker threads per rank executing ready tasks ("spawns a new thread
    /// that is executed in the background" — bounded here by a pool).
    pub workers_per_rank: usize,
    /// Stall-detection timeout per rank: how long a rank tolerates zero
    /// progress (no completion, no delivery) before giving up.
    pub timeout: Duration,
    /// Fault injection for tests: transport faults feed the [`World`],
    /// `kill_worker` entries kill this controller's pool threads.
    pub faults: FaultPlan,
}

impl Default for MpiController {
    fn default() -> Self {
        MpiController { workers_per_rank: 2, timeout: DEFAULT_TIMEOUT, faults: FaultPlan::none() }
    }
}

impl MpiController {
    /// Controller with default worker pool and timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-rank worker pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker per rank");
        self.workers_per_rank = workers;
        self
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Inject faults (tests only). A `kill_worker` entry must leave the
    /// rank at least one live pool thread (see `workers_per_rank`).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// What one rank produced.
pub(crate) type RankOutcome = Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)>;

/// Split `initial` by owning rank: "each rank creates only the portion of
/// the tasks assigned to it" and receives only the initial inputs local to
/// it.
pub(crate) fn inputs_by_rank(plan: &ShardPlan, initial: InitialInputs) -> Vec<InitialInputs> {
    let mut by_rank: Vec<InitialInputs> =
        (0..plan.num_shards()).map(|_| HashMap::new()).collect();
    for (task, payloads) in initial {
        let shard = plan.task_by_id(task).expect("preflight checked inputs").shard;
        by_rank[shard.0 as usize].insert(task, payloads);
    }
    by_rank
}

/// Fold the ranks' outcomes into one report. The first error any rank hit
/// wins over the rank order: a rank that stopped because a peer failed
/// reports that peer's error, never a stall of its own.
pub(crate) fn merge_ranks(errors: &FirstError, outcomes: Vec<RankOutcome>) -> Result<RunReport> {
    if let Some(err) = errors.get() {
        return Err(err);
    }
    let mut report = RunReport::default();
    for outcome in outcomes {
        let (outputs, stats) = outcome?;
        report.outputs.extend(outputs);
        report.stats.merge(&stats);
    }
    Ok(report)
}

impl Controller for MpiController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        plan.preflight(registry, &initial)?;
        let mut world = World::with_faults(plan.num_shards() as usize, self.faults.clone());
        let (timeout, workers, faults) = (self.timeout, self.workers_per_rank, &self.faults);
        let errors = FirstError::default();

        let outcomes: Vec<RankOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = world
                .endpoints()
                .into_iter()
                .zip(inputs_by_rank(plan, initial))
                .map(|(ep, inputs)| {
                    let (sink, errors) = (sink.clone(), &errors);
                    s.spawn(move || {
                        rank_main(
                            ep, plan, registry, inputs, workers, timeout, faults, sink, errors,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        });
        merge_ranks(&errors, outcomes)
    }

    fn name(&self) -> &'static str {
        "mpi-async"
    }
}

/// Work item handed to a worker thread: a plan index plus the task's
/// inputs. The `Task` itself stays interned in the shared plan — nothing
/// is cloned per dispatch beyond the input payload handles.
struct WorkItem {
    ix: u32,
    inputs: Vec<Payload>,
    /// When the task's inputs completed (0 when tracing is off); the
    /// worker turns the gap until pickup into a queue-wait span.
    ready_ns: u64,
}

/// Result returned by a worker.
struct DoneItem {
    ix: u32,
    ran: Result<Executed>,
}

/// A dispatched-but-not-completed task with its inputs retained so it can
/// be re-fired if its worker dies (idempotent re-execution).
struct Inflight {
    ix: u32,
    inputs: Vec<Payload>,
    dispatched_at: Instant,
    refires: u32,
}

/// Move ready buffers to the worker pool, retaining each task's inputs in
/// `inflight` until its completion is observed.
fn dispatch_ready(
    buffers: &mut Buffers<'_>,
    ready: Vec<TaskId>,
    pool: &WorkPool<WorkItem>,
    inflight: &mut HashMap<TaskId, Inflight>,
    stats: &mut RunStats,
    tracing: bool,
) {
    let ready_ns = if tracing { now_ns() } else { 0 };
    for id in ready {
        if let Some((ix, inputs)) = buffers.take(id) {
            // The retained (re-fire) copy is the one input clone dispatch
            // costs.
            stats.perf.payload_clones += inputs.len() as u64;
            inflight.insert(
                id,
                Inflight {
                    ix,
                    inputs: inputs.clone(),
                    dispatched_at: Instant::now(),
                    refires: 0,
                },
            );
            pool.push(WorkItem { ix, inputs, ready_ns });
        }
    }
}

/// Run one rank to completion. Any error is also recorded in `errors`
/// before this rank's shutdown FIN goes out, so the FIN wakes every peer
/// blocked on its inbox and the peer stops with the recorded error (the
/// role `MPI_Abort` plays in MPI).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    ep: RankComm,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    workers: usize,
    timeout: Duration,
    faults: &FaultPlan,
    sink: Arc<dyn TraceSink>,
    errors: &FirstError,
) -> RankOutcome {
    let mut rel = ReliableEndpoint::new(ep);
    let outcome =
        rank_main_inner(&mut rel, plan, registry, initial, workers, timeout, faults, sink, errors);
    finish_rank(rel, outcome, timeout, errors)
}

/// Shut one rank down after its dataflow part ended with `outcome`.
pub(crate) fn finish_rank(
    mut rel: ReliableEndpoint,
    outcome: RankOutcome,
    timeout: Duration,
    errors: &FirstError,
) -> RankOutcome {
    match outcome {
        Ok((outputs, mut stats)) => {
            // Drain: wait for our acks, then linger re-acking peers until
            // the whole world is finished. A `false` here means a peer
            // failed or died without reaching the barrier — its own
            // outcome carries the error, ours is complete.
            rel.flush_unless(timeout, || errors.get().is_some());
            stats.recovery.merge(&rel.stats);
            stats.perf.envelopes_sent += rel.envelopes_sent;
            stats.perf.batches_sent += rel.batches_sent;
            Ok((outputs, stats))
        }
        Err(e) => {
            errors.set(e.clone());
            // Unblock peers waiting on their inboxes or lingering at the
            // shutdown barrier.
            rel.mark_finished();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_main_inner(
    rel: &mut ReliableEndpoint,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    workers: usize,
    timeout: Duration,
    faults: &FaultPlan,
    sink: Arc<dyn TraceSink>,
    errors: &FirstError,
) -> RankOutcome {
    let my_shard = ShardId(rel.rank() as u32);
    let local_total = plan.local(my_shard).len();
    let mut buffers = Buffers::new(plan, plan.local(my_shard).iter().copied(), initial)?;

    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let kills: Arc<HashSet<u32>> = Arc::new(
        faults
            .kill_worker
            .iter()
            .filter(|&&(r, _)| r == rel.rank())
            .map(|&(_, w)| w)
            .collect(),
    );
    let pool: WorkPool<WorkItem> = WorkPool::new(workers);
    let (done_tx, done_rx) = unbounded::<DoneItem>();

    std::thread::scope(|s| {
        // Worker pool: executes ready tasks in the order their inputs
        // completed, retrying a panicking callback in place. Idle workers
        // steal from busy siblings' deques.
        for worker_idx in 0..workers as u32 {
            let pool = pool.clone();
            let done_tx = done_tx.clone();
            let sink = sink.clone();
            let kills = kills.clone();
            let plan = plan.clone();
            s.spawn(move || {
                while let Some(WorkItem { ix, inputs, ready_ns }) = pool.recv(worker_idx as usize)
                {
                    if kills.contains(&worker_idx) {
                        // Injected worker death: abandon the task just
                        // picked up and die. The controller re-fires it
                        // from the retained inputs onto a live worker.
                        break;
                    }
                    let pt = plan.task(ix);
                    if tracing {
                        sink.record(
                            TraceEvent::span(
                                SpanKind::QueueWait,
                                ready_ns,
                                now_ns(),
                                my_rank,
                                worker_idx,
                            )
                            .with_task(pt.id(), pt.callback()),
                        );
                    }
                    let cb = registry.get(pt.callback()).expect("preflight checked bindings");
                    let ran = run_task(pt, cb, &inputs, &*sink, my_rank, worker_idx);
                    let _ = done_tx.send(DoneItem { ix, ran });
                }
            });
        }
        drop(done_tx);

        let result = (|| -> RankOutcome {
            let mut outputs: BTreeMap<TaskId, Vec<Payload>> = BTreeMap::new();
            let mut stats = RunStats::default();
            let mut executed = 0usize;
            let mut inflight: HashMap<TaskId, Inflight> = HashMap::new();
            let mut completed: HashSet<TaskId> = HashSet::new();

            let initially_ready = buffers.ready();
            dispatch_ready(&mut buffers, initially_ready, &pool, &mut inflight, &mut stats, tracing);

            // Short select tick (drives retransmits and re-fires) decoupled
            // from the stall timeout (no progress at all for `timeout`).
            let tick = Duration::from_millis(10).min(timeout);
            let refire_after =
                (timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
            let mut last_progress = Instant::now();

            while executed < local_total {
                if let Some(err) = errors.get() {
                    return Err(err);
                }
                // Consume queued acks (before any tick can retransmit
                // against them) and send the acks this rank owes.
                rel.poll();
                // Reliable layer first: deliver whatever is in order.
                let mut newly_ready = Vec::new();
                while let Some((src_rank, _tag, body)) = rel.pop_ready() {
                    let recv_start = if tracing { now_ns() } else { 0 };
                    let wire_bytes = body.len() as u64;
                    let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                        ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
                    })?;
                    if buffers.deliver(msg.src_task, msg.dst_task, Payload::Buffer(msg.payload))? {
                        newly_ready.push(msg.dst_task);
                    }
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
                    last_progress = Instant::now();
                }
                dispatch_ready(&mut buffers, newly_ready, &pool, &mut inflight, &mut stats, tracing);

                // Biased two-way select: worker completions first, then network
                // envelopes, then the protocol tick.
                let sel = select2(&done_rx, rel.inbox(), tick);
                match sel {
                    Select2::A(DoneItem { ix, ran }) => {
                        let pt = plan.task(ix);
                        let id = pt.id();
                        if !completed.insert(id) {
                            // A re-fired task completing a second time: its
                            // outputs were already routed (exactly-once).
                            continue;
                        }
                        inflight.remove(&id);
                        let ran = ran?;
                        executed += 1;
                        stats.tasks_executed += 1;
                        stats.recovery.retries += ran.retries;
                        stats.perf.payload_clones += ran.clones;
                        last_progress = Instant::now();

                        let mut newly_ready = Vec::new();
                        let clones = route(pt, ran.outputs, Some(my_shard), |hop| {
                            match hop {
                                Hop::External(p) => outputs.entry(id).or_default().push(p),
                                Hop::Local(dst, p) => {
                                    // In-memory fast path: skip serialization.
                                    if buffers.deliver(id, dst, p)? {
                                        newly_ready.push(dst);
                                    }
                                    stats.local_messages += 1;
                                    if tracing {
                                        let t = now_ns();
                                        // In-memory move: no serialization, bytes = 0.
                                        sink.record(
                                            TraceEvent::span(
                                                SpanKind::MsgSend,
                                                t,
                                                t,
                                                my_rank,
                                                CONTROL_THREAD,
                                            )
                                            .with_task(id, pt.callback())
                                            .with_message(dst, 0),
                                        );
                                    }
                                }
                                Hop::Remote(r, p) => {
                                    let send_start = if tracing { now_ns() } else { 0 };
                                    let body = DataflowMsg::from_payload(r.dst, id, p).encode();
                                    let wire_bytes = body.len() as u64;
                                    stats.remote_messages += 1;
                                    stats.remote_bytes += wire_bytes;
                                    rel.send(r.shard.0 as usize, TAG_DATAFLOW, body);
                                    if tracing {
                                        sink.record(
                                            TraceEvent::span(
                                                SpanKind::MsgSend,
                                                send_start,
                                                now_ns(),
                                                my_rank,
                                                CONTROL_THREAD,
                                            )
                                            .with_task(id, pt.callback())
                                            .with_message(r.dst, wire_bytes),
                                        );
                                    }
                                }
                            }
                            Ok::<(), ControllerError>(())
                        })?;
                        stats.perf.payload_clones += clones;
                        // One envelope per destination for this task's whole
                        // fan-out.
                        rel.flush_sends();
                        dispatch_ready(
                            &mut buffers, newly_ready, &pool, &mut inflight, &mut stats, tracing,
                        );
                    }
                    Select2::B(env) => {
                        rel.handle(env);
                    }
                    Select2::DisconnectedA => {
                        return Err(ControllerError::Runtime("worker pool died".into()));
                    }
                    Select2::DisconnectedB => {
                        return Err(ControllerError::Runtime("world torn down".into()));
                    }
                    Select2::Timeout => {
                        rel.tick();
                        // Re-fire tasks whose completion is overdue — their
                        // worker died holding them. Idempotence makes the
                        // duplicate execution harmless; `completed` dedups.
                        let now = Instant::now();
                        for inf in inflight.values_mut() {
                            if now.duration_since(inf.dispatched_at) >= refire_after
                                && inf.refires < MAX_TASK_RETRIES
                            {
                                inf.refires += 1;
                                inf.dispatched_at = now;
                                stats.recovery.retries += 1;
                                stats.perf.payload_clones += inf.inputs.len() as u64;
                                pool.push(WorkItem {
                                    ix: inf.ix,
                                    inputs: inf.inputs.clone(),
                                    ready_ns: if tracing { now_ns() } else { 0 },
                                });
                            }
                        }
                        if last_progress.elapsed() >= timeout {
                            let mut pending = buffers.pending();
                            pending.extend(inflight.keys().copied());
                            pending.sort();
                            return Err(ControllerError::Deadlock { pending });
                        }
                    }
                }
            }

            Ok((outputs, stats))
        })();

        // Release the workers whether the loop succeeded or not; the scope
        // join below needs them to exit.
        pool.close();
        result
    })
}
