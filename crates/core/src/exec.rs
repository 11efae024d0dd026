//! The one task executor every controller shares.
//!
//! "All runtime controllers share the same interface", and here they also
//! share the same per-task body, so the backends differ only in scheduling
//! (when a task runs, on which thread) and transport (how its outputs reach
//! their consumers):
//!
//! * [`run_task`] executes one ready task: the retry loop over
//!   [`catch_invoke`], the trace spans, the output-arity check, and the
//!   attempt and clone accounting;
//! * [`route`] fans its outputs out along the plan's precomputed routes;
//! * [`Buffers`] is the plan-indexed table of a shard's pending input
//!   buffers, seeded with the host's inputs;
//! * [`FirstError`] is the one slot a multi-threaded run reports its first
//!   failure through, and setting it wakes the run's coordinator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::controller::{ControllerError, InitialInputs, Result};
use crate::fault::{catch_invoke, MAX_TASK_RETRIES};
use crate::ids::{ShardId, TaskId};
use crate::payload::Payload;
use crate::plan::{PlanBuffer, PlanTask, Route, ShardPlan};
use crate::registry::Callback;
use crate::sync::Mutex;
use crate::trace::{now_ns, SpanKind, TraceEvent, TraceSink};

/// A task that ran to completion, with what running it cost.
#[derive(Debug)]
pub struct Executed {
    /// The callback's outputs, one per output slot.
    pub outputs: Vec<Payload>,
    /// Failed attempts before the one that succeeded.
    pub retries: u64,
    /// Input handles cloned, one set per attempt.
    pub clones: u64,
}

/// Execute the plan task `pt` with `callback` on `inputs`.
///
/// Tasks are idempotent, so a panicking callback is caught and re-run from
/// the same inputs, up to [`MAX_TASK_RETRIES`] times, before the task fails
/// with [`ControllerError::TaskError`]. A callback returning the wrong
/// number of outputs fails with [`ControllerError::BadOutputArity`].
///
/// Every attempt, failed ones included, records one `TaskExec` span and,
/// inside it, one `Callback` span on the `(rank, thread)` row of the
/// caller, so retries show in the trace as extra task spans.
pub fn run_task(
    pt: &PlanTask,
    callback: &Callback,
    inputs: &[Payload],
    sink: &dyn TraceSink,
    rank: u32,
    thread: u32,
) -> Result<Executed> {
    let tracing = sink.enabled();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let start = if tracing { now_ns() } else { 0 };
        let result = catch_invoke(callback, inputs.to_vec(), pt.id());
        if tracing {
            let end = now_ns();
            for kind in [SpanKind::TaskExec, SpanKind::Callback] {
                sink.record(
                    TraceEvent::span(kind, start, end, rank, thread)
                        .with_task(pt.id(), pt.callback()),
                );
            }
        }
        match result {
            Ok(outputs) if outputs.len() == pt.fan_out() => {
                let attempts = u64::from(attempts);
                return Ok(Executed {
                    outputs,
                    retries: attempts - 1,
                    clones: attempts * inputs.len() as u64,
                });
            }
            Ok(outputs) => {
                return Err(ControllerError::BadOutputArity {
                    task: pt.id(),
                    expected: pt.fan_out(),
                    got: outputs.len(),
                })
            }
            Err(reason) if attempts > MAX_TASK_RETRIES => {
                return Err(ControllerError::TaskError {
                    task: pt.id(),
                    attempts,
                    reason,
                })
            }
            Err(_) => {}
        }
    }
}

/// One output edge of an executed task, as [`route`] hands it over.
#[derive(Debug)]
pub enum Hop<'a> {
    /// To the host application.
    External(Payload),
    /// To a consumer the executor delivers to in memory.
    Local(TaskId, Payload),
    /// To a consumer on another shard: the payload is borrowed, for the
    /// transport to serialize.
    Remote(&'a Route, &'a Payload),
}

/// Fan `outputs` (one per output slot of `pt`) out along the task's
/// precomputed routes, slot by slot and in route order, calling `hop` once
/// per route.
///
/// `here` is the executing shard when consumers on other shards are
/// reached through a transport, or `None` when every consumer shares the
/// executor's memory. External and local hops get an owned payload handle
/// (one clone each); remote hops borrow it. Returns the number of clones.
pub fn route<E>(
    pt: &PlanTask,
    outputs: Vec<Payload>,
    here: Option<ShardId>,
    mut hop: impl FnMut(Hop<'_>) -> std::result::Result<(), E>,
) -> std::result::Result<u64, E> {
    let mut clones = 0;
    for (payload, routes) in outputs.iter().zip(&pt.routes) {
        for route in routes {
            if route.is_external() {
                clones += 1;
                hop(Hop::External(payload.clone()))?;
            } else if here.is_none_or(|shard| shard == route.shard) {
                clones += 1;
                hop(Hop::Local(route.dst, payload.clone()))?;
            } else {
                hop(Hop::Remote(route, payload))?;
            }
        }
    }
    Ok(clones)
}

/// The input buffers of the tasks an executor has yet to run, by task id.
#[derive(Debug)]
pub struct Buffers<'p> {
    plan: &'p ShardPlan,
    pending: HashMap<TaskId, PlanBuffer>,
}

impl<'p> Buffers<'p> {
    /// Empty buffers for the plan tasks at `ixs`, then filled with the
    /// host's `initial` inputs, which must all be for those tasks.
    pub fn new(
        plan: &'p ShardPlan,
        ixs: impl IntoIterator<Item = u32>,
        initial: InitialInputs,
    ) -> Result<Self> {
        let pending = ixs
            .into_iter()
            .map(|ix| (plan.task(ix).id(), PlanBuffer::new(plan, ix)))
            .collect();
        let mut buffers = Buffers { plan, pending };
        for (task, payloads) in initial {
            if !buffers.pending.contains_key(&task) {
                return Err(ControllerError::Runtime(format!(
                    "initial input for task {task}, which this executor does not run"
                )));
            }
            for p in payloads {
                buffers.deliver(TaskId::EXTERNAL, task, p)?;
            }
        }
        Ok(buffers)
    }

    /// Deliver `payload` from `src` into the first free input slot of
    /// `dst` wired to `src`. Returns whether `dst` is now ready; a `dst`
    /// that is not pending here, or has no free slot for `src`, is a
    /// [`ControllerError::Runtime`].
    pub fn deliver(&mut self, src: TaskId, dst: TaskId, payload: Payload) -> Result<bool> {
        let Some(buf) = self.pending.get_mut(&dst) else {
            return Err(ControllerError::Runtime(format!(
                "delivery {src} -> {dst}: task {dst} is not pending here"
            )));
        };
        if !buf.deliver(self.plan.task(buf.ix()), src, payload) {
            return Err(ControllerError::Runtime(format!(
                "delivery {src} -> {dst}: no free input slot"
            )));
        }
        Ok(buf.ready())
    }

    /// Whether `id` is pending with every input slot filled.
    pub fn is_ready(&self, id: TaskId) -> bool {
        self.pending.get(&id).is_some_and(PlanBuffer::ready)
    }

    /// The pending tasks whose inputs are complete, in id order.
    pub fn ready(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self
            .pending
            .iter()
            .filter(|(_, b)| b.ready())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Remove the ready task `id`, returning its plan index and its inputs
    /// in slot order; `None` if `id` is not pending.
    ///
    /// # Panics
    /// If `id` is pending but not ready.
    pub fn take(&mut self, id: TaskId) -> Option<(u32, Vec<Payload>)> {
        self.pending.remove(&id).map(|buf| (buf.ix(), buf.take()))
    }

    /// Ids of the tasks still pending, in id order.
    pub fn pending(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Whether every task has been taken.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The first error of a run, shared by every thread executing it.
///
/// Only the first [`set`](Self::set) is kept, so a failure that follows
/// from an earlier one (a rank that stops because a peer failed) never
/// hides its cause. The first `set` also runs the wake-up the slot was
/// made with, so the run's coordinator stops waiting at once instead of
/// at its stall timeout.
pub struct FirstError {
    first: Mutex<Option<ControllerError>>,
    /// Lock-free fast path of [`get`](Self::get): stored (`Release`) only
    /// after `first` is filled, so a reader that loads it (`Acquire`) finds
    /// the error under the lock.
    failed: AtomicBool,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Default for FirstError {
    fn default() -> Self {
        Self::waking(|| {})
    }
}

impl FirstError {
    /// An empty slot whose first [`set`](Self::set) calls `wake`.
    pub fn waking(wake: impl Fn() + Send + Sync + 'static) -> Self {
        FirstError {
            first: Mutex::new(None),
            failed: AtomicBool::new(false),
            wake: Box::new(wake),
        }
    }

    /// Record `err` unless an error is already recorded; the first call
    /// wakes the coordinator.
    pub fn set(&self, err: ControllerError) {
        let mut first = self.first.lock();
        if first.is_some() {
            return;
        }
        *first = Some(err);
        self.failed.store(true, Ordering::Release);
        drop(first);
        (self.wake)();
    }

    /// The recorded error, if any. Cheap while none is recorded, so
    /// receive loops can check it on every iteration.
    pub fn get(&self) -> Option<ControllerError> {
        if !self.failed.load(Ordering::Acquire) {
            return None;
        }
        self.first.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{quiet_panic_hook, PANIC_MARKER};
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::payload::Blob;
    use crate::registry::Registry;
    use crate::sync::Counter;
    use crate::task::Task;
    use crate::taskmap::ModuloMap;
    use crate::trace::NoopSink;
    use std::sync::Arc;

    /// 0 -> {1 (shard 1), EXTERNAL} and 0 -> 2 (shard 0): one task with two
    /// output slots, on a two-shard map.
    fn fan_out_plan() -> ShardPlan {
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1), TaskId::EXTERNAL], vec![TaskId(2)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(0));
        t1.incoming = vec![TaskId(0)];
        let mut t2 = Task::new(TaskId(2), CallbackId(0));
        t2.incoming = vec![TaskId(0)];
        let g = ExplicitGraph::new(vec![t0, t1, t2], vec![CallbackId(0)]);
        ShardPlan::build(&g, &ModuloMap::new(2, 3))
    }

    fn blob(v: u8) -> Payload {
        Payload::wrap(Blob(vec![v]))
    }

    #[test]
    fn run_task_retries_panics_and_counts_every_attempt() {
        quiet_panic_hook();
        let plan = fan_out_plan();
        let calls = Arc::new(Counter::new(0));
        let mut reg = Registry::new();
        let c = calls.clone();
        reg.register(CallbackId(0), move |inputs, _| {
            if c.next() < 2 {
                panic!("{PANIC_MARKER}: flaky");
            }
            vec![inputs[0].clone(), inputs[0].clone()]
        });
        let ran = run_task(
            plan.task(0),
            reg.get(CallbackId(0)).unwrap(),
            &[blob(1)],
            &NoopSink,
            0,
            0,
        )
        .unwrap();
        assert_eq!((ran.outputs.len(), ran.retries, ran.clones), (2, 2, 3));
    }

    #[test]
    fn run_task_reports_arity_and_exhausted_retries() {
        quiet_panic_hook();
        let plan = fan_out_plan();
        let mut reg = Registry::new();
        reg.register(CallbackId(0), |_, _| vec![]);
        reg.register(CallbackId(1), |_, _| panic!("{PANIC_MARKER}: always"));
        let err = run_task(
            plan.task(0),
            reg.get(CallbackId(0)).unwrap(),
            &[],
            &NoopSink,
            0,
            0,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ControllerError::BadOutputArity {
                    task: TaskId(0),
                    expected: 2,
                    got: 0
                }
            ),
            "got {err}"
        );
        let err = run_task(
            plan.task(0),
            reg.get(CallbackId(1)).unwrap(),
            &[],
            &NoopSink,
            0,
            0,
        )
        .unwrap_err();
        assert!(
            matches!(err, ControllerError::TaskError { task: TaskId(0), attempts, .. }
                if attempts == MAX_TASK_RETRIES + 1),
            "got {err}"
        );
    }

    #[test]
    fn route_owns_local_and_external_hops_and_borrows_remote_ones() {
        let plan = fan_out_plan();
        let mut seen = Vec::new();
        let clones = route(
            plan.task(0),
            vec![blob(7), blob(8)],
            Some(ShardId(0)),
            |hop| {
                seen.push(match hop {
                    Hop::External(p) => format!("ext {}", p.extract::<Blob>().unwrap().0[0]),
                    Hop::Local(dst, p) => {
                        format!("local {dst} {}", p.extract::<Blob>().unwrap().0[0])
                    }
                    Hop::Remote(r, p) => {
                        format!("remote {} {}", r.dst, p.extract::<Blob>().unwrap().0[0])
                    }
                });
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(seen, ["remote 1 7", "ext 7", "local 2 8"]);
        assert_eq!(clones, 2);
        // In one address space every hop is local.
        let clones = route(plan.task(0), vec![blob(7), blob(8)], None, |hop| {
            assert!(!matches!(hop, Hop::Remote(..)));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(clones, 3);
    }

    #[test]
    fn buffers_seed_deliver_and_reject() {
        let plan = fan_out_plan();
        let mut initial = InitialInputs::new();
        initial.insert(TaskId(0), vec![blob(1)]);
        let mut b = Buffers::new(&plan, 0..3, initial).unwrap();
        assert_eq!(b.ready(), vec![TaskId(0)]);
        assert_eq!(
            b.take(TaskId(0)).map(|(ix, inputs)| (ix, inputs.len())),
            Some((0, 1))
        );
        assert!(b.deliver(TaskId(0), TaskId(2), blob(2)).unwrap());
        assert!(b.is_ready(TaskId(2)) && !b.is_ready(TaskId(1)));
        assert!(matches!(
            b.deliver(TaskId(0), TaskId(2), blob(3)),
            Err(ControllerError::Runtime(_))
        ));
        assert!(matches!(
            b.deliver(TaskId(0), TaskId(0), blob(3)),
            Err(ControllerError::Runtime(_))
        ));
        assert_eq!(b.pending(), vec![TaskId(1), TaskId(2)]);

        let mut foreign = InitialInputs::new();
        foreign.insert(TaskId(0), vec![blob(1)]);
        assert!(
            Buffers::new(&plan, [1, 2], foreign).is_err(),
            "task 0 does not run here"
        );
        let mut too_many = InitialInputs::new();
        too_many.insert(TaskId(0), vec![blob(1), blob(2)]);
        assert!(Buffers::new(&plan, 0..3, too_many).is_err());
    }

    #[test]
    fn first_error_keeps_the_first_and_wakes_once() {
        let wakes = Arc::new(Counter::new(0));
        let w = wakes.clone();
        let slot = FirstError::waking(move || {
            w.next();
        });
        assert!(slot.get().is_none());
        slot.set(ControllerError::Runtime("first".into()));
        slot.set(ControllerError::Deadlock { pending: vec![] });
        assert!(matches!(slot.get(), Some(ControllerError::Runtime(m)) if m == "first"));
        assert_eq!(wakes.get(), 1);
    }
}
