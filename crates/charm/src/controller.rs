//! The Charm++ controller — §IV-B of the paper.
//!
//! "The Charm++ runtime controller implements the tasks as chares. […] The
//! tasks in the task graph are mapped to a collection of chares called a
//! chare array. […] no explicit task map is needed. […] Unlike the MPI and
//! Legion implementation, Charm++ does not explicitly instantiate any local
//! or global task graph. Instead, the chare id is translated into a task id
//! at the execution time of a chare, […] and the communication between
//! chares uses remote procedure calls."
//!
//! Accordingly this controller ignores the user's `TaskMap` for placement
//! (the runtime places and rebalances chares itself), creates one chare per
//! task with chare index == task id, and starts the dataflow by delivering
//! the initial payloads to the input chares. Graph structure comes from a
//! [`ShardPlan`] built once up front, so chare construction and routing
//! never re-query the procedural graph.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use babelflow_core::exec::{route, run_task, FirstError, Hop};
use babelflow_core::sync::{Counter, Latch};
use babelflow_core::trace::TraceSink;
use babelflow_core::{
    Callback, Controller, ControllerError, InitialInputs, Payload, PlanBuffer, Registry, Result,
    RunReport, ShardPlan, TaskId,
};

use crate::runtime::{Chare, ChareCtx, CharmRuntime, LoadBalance};

/// Charm++-style controller: tasks as migratable chares with periodic load
/// balancing.
#[derive(Clone, Debug)]
pub struct CharmController {
    /// Processing elements (worker threads) to schedule chares on.
    pub pes: usize,
    /// Load-balancing strategy (paper experiments use periodic).
    pub lb: LoadBalance,
    /// Quiescence-stall timeout.
    pub timeout: Duration,
}

impl CharmController {
    /// Controller over `pes` processing elements with periodic load
    /// balancing every 50 ms.
    pub fn new(pes: usize) -> Self {
        CharmController {
            pes,
            lb: LoadBalance::Periodic(Duration::from_millis(50)),
            timeout: Duration::from_secs(10),
        }
    }

    /// Set the load-balancing strategy.
    pub fn with_lb(mut self, lb: LoadBalance) -> Self {
        self.lb = lb;
        self
    }

    /// Set the quiescence-stall timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// A task graph node hosted as a chare: buffers inputs, executes its
/// callback when complete, then retires.
struct TaskChare {
    buffer: PlanBuffer,
    plan: Arc<ShardPlan>,
    callback: Callback,
    /// The run's first failure; setting it ends the run at once.
    errors: Arc<FirstError>,
    /// Shared retry counter, surfaced as `RunStats::recovery.retries`.
    retries: Arc<Counter>,
    /// Shared payload-clone counter, surfaced as `PerfStats::payload_clones`.
    clones: Arc<Counter>,
}

impl Chare for TaskChare {
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
        let ix = self.buffer.ix();
        let pt = self.plan.task(ix);
        if !self.buffer.deliver(pt, src, payload) {
            // Retire; the error slot carries the failure out.
            self.errors
                .set(ControllerError::Runtime(format!("unexpected delivery {src} -> {}", pt.id())));
            return true;
        }
        if !self.buffer.ready() {
            return false;
        }
        // Execute: translate the chare id back into a task and run it.
        // Chares re-execute a faulted entry method in place, so recovery
        // needs no cooperation from the runtime's messaging layer.
        let buffer = std::mem::replace(&mut self.buffer, PlanBuffer::new(&self.plan, ix));
        let sink = ctx.trace_sink();
        let ran = match run_task(pt, &self.callback, &buffer.take(), sink, ctx.pe() as u32, 0) {
            Ok(ran) => ran,
            Err(err) => {
                self.errors.set(err);
                return true;
            }
        };
        if ran.retries > 0 {
            self.retries.fetch_add(ran.retries);
        }
        let Ok(routed) = route(pt, ran.outputs, None, |hop| {
            match hop {
                Hop::External(p) => ctx.emit_external(pt.id(), p),
                Hop::Local(dst, p) => ctx.send(dst.0, pt.id(), p),
                Hop::Remote(..) => unreachable!("chares share one address space"),
            }
            Ok::<(), Infallible>(())
        });
        // One shared-counter update per task: PEs contend for it.
        self.clones.fetch_add(ran.clones + routed);
        true
    }

    fn footprint(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl Controller for CharmController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        plan.preflight(registry, &initial)?;

        let indices: Vec<u64> = plan.tasks().iter().map(|pt| pt.id().0).collect();
        let done = Arc::new(Latch::new());
        let errors = {
            let done = done.clone();
            Arc::new(FirstError::waking(move || done.set()))
        };
        let retries = Arc::new(Counter::new(0));
        let clones = Arc::new(Counter::new(0));

        let factory = {
            let errors = errors.clone();
            let retries = retries.clone();
            let clones = clones.clone();
            let plan = plan.clone();
            move |idx: u64| -> Box<dyn Chare> {
                let ix = plan.index_of(TaskId(idx)).expect("chare index is a task id");
                let pt = plan.task(ix);
                let callback =
                    registry.get(pt.callback()).expect("preflight checked bindings").clone();
                Box::new(TaskChare {
                    buffer: PlanBuffer::new(&plan, ix),
                    plan: plan.clone(),
                    callback,
                    errors: errors.clone(),
                    retries: retries.clone(),
                    clones: clones.clone(),
                })
            }
        };

        let mut bootstrap = Vec::new();
        for (task, payloads) in initial {
            for p in payloads {
                bootstrap.push((task.0, TaskId::EXTERNAL, p));
            }
        }

        let rt = CharmRuntime::new(self.pes)
            .with_lb(self.lb)
            .with_timeout(self.timeout)
            .with_sink(sink);
        let result = rt.run_until(&indices, factory, bootstrap, done);

        if let Some(err) = errors.get() {
            return Err(err);
        }

        match result {
            Ok((outputs, stats)) => {
                let mut report = RunReport { outputs, ..RunReport::default() };
                report.stats.tasks_executed = stats.retired;
                report.stats.local_messages = stats.local_messages;
                report.stats.remote_messages = stats.cross_pe_messages;
                report.stats.recovery.retries = retries.get();
                report.stats.perf.payload_clones = clones.get();
                Ok(report)
            }
            Err(pending) => Err(ControllerError::Deadlock {
                pending: pending.into_iter().map(TaskId).collect(),
            }),
        }
    }

    fn name(&self) -> &'static str {
        "charm"
    }
}
