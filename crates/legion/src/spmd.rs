//! The Legion SPMD controller — the paper's preferred Legion execution.
//!
//! "Slaughter et al. suggest that in order to scale an application with a
//! high number of data-parallel tasks, an SPMD approach is preferable. […]
//! we start one task per shard using a must parallelism launcher to execute
//! a set of independent tasks running in parallel without any runtime
//! synchronization. […] The per-shard task will then schedule its assigned
//! part of the task graph using single task launchers. To manage
//! dependencies between shards, Legion provides synchronization primitives
//! called phase barriers."
//!
//! Implementation: one must-epoch launch of `num_shards` shard tasks. Each
//! shard task walks its local subgraph (from a [`ShardPlan`] capturing the
//! user's `TaskMap` — "as in the MPI case, the Legion controller makes use
//! of the task map") and submits one single-task launcher per dataflow
//! task. Same-shard edges become region-readiness dependencies; cross-shard
//! edges additionally get a one-arrival phase barrier that the producer
//! arrives at after writing the shared region.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use babelflow_core::exec::{route, run_task, FirstError, Hop};
use babelflow_core::sync::{Counter, Mutex};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    Callback, Controller, ControllerError, InitialInputs, Payload, PlanTask, Registry, Result,
    RunReport, ShardId, ShardPlan, TaskId,
};

use crate::edges::{input_regions, output_regions};
use crate::runtime::{LegionRuntime, RegionKey, RegionRequirement, TaskLauncher, WaitOutcome};

/// Legion-style SPMD controller (must-epoch shards + phase barriers).
#[derive(Clone, Debug)]
pub struct LegionSpmdController {
    /// Worker threads executing launched tasks.
    pub workers: usize,
    /// Stall-detection timeout.
    pub timeout: Duration,
}

impl LegionSpmdController {
    /// Controller executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        LegionSpmdController { workers, timeout: Duration::from_secs(10) }
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Shared output/error sinks for task bodies.
pub(crate) struct Sinks {
    pub(crate) outputs: Mutex<BTreeMap<TaskId, Vec<Payload>>>,
    pub(crate) executed: Mutex<HashSet<TaskId>>,
    /// The run's first failure; setting it stops the runtime's
    /// [`wait_all`](LegionRuntime::wait_all).
    pub(crate) errors: FirstError,
    /// Callback re-executions after captured panics, surfaced as
    /// `RunStats::recovery.retries`.
    pub(crate) retries: Counter,
    /// Payload clones (inputs handed to callbacks, outputs copied into
    /// regions), surfaced as `PerfStats::payload_clones`.
    pub(crate) clones: Counter,
}

impl Sinks {
    /// Empty sinks for a run on `rt`.
    pub(crate) fn new(rt: &LegionRuntime) -> Arc<Self> {
        Arc::new(Sinks {
            outputs: Mutex::default(),
            executed: Mutex::default(),
            errors: FirstError::waking(rt.stopper()),
            retries: Counter::new(0),
            clones: Counter::new(0),
        })
    }

    /// Run `rt`'s workers until every launched task of `plan` completes,
    /// then report; the first task failure wins over the stall it causes.
    pub(crate) fn wait(
        &self,
        rt: &LegionRuntime,
        plan: &ShardPlan,
        timeout: Duration,
    ) -> Result<RunReport> {
        let finished = rt.wait_all(timeout);
        if let Some(err) = self.errors.get() {
            return Err(err);
        }
        match finished {
            WaitOutcome::Completed => {}
            WaitOutcome::Stalled { .. } => {
                let executed = self.executed.lock();
                let mut pending: Vec<TaskId> = plan
                    .tasks()
                    .iter()
                    .map(|pt| pt.id())
                    .filter(|id| !executed.contains(id))
                    .collect();
                pending.sort();
                return Err(ControllerError::Deadlock { pending });
            }
            WaitOutcome::NoWorkers { outstanding } => {
                return Err(ControllerError::Runtime(format!(
                    "runtime has zero workers; {outstanding} tasks can never run"
                )));
            }
        }
        let outputs = std::mem::take(&mut *self.outputs.lock());
        let mut report = RunReport { outputs, ..RunReport::default() };
        report.stats.tasks_executed = self.executed.lock().len() as u64;
        report.stats.local_messages = rt.stats().tasks_launched;
        report.stats.recovery.retries = self.retries.get();
        report.stats.perf.payload_clones = self.clones.get();
        Ok(report)
    }
}

/// Attach every external input payload as a pre-mapped physical region.
pub(crate) fn attach_inputs(rt: &LegionRuntime, plan: &ShardPlan, initial: &InitialInputs) {
    for (task_id, payloads) in initial {
        let pt = plan.task_by_id(*task_id).expect("preflight verified inputs");
        let regions = input_regions(&pt.task);
        let mut supplied = payloads.iter();
        for (slot, &src) in pt.task.incoming.iter().enumerate() {
            if src.is_external() {
                let p = supplied.next().expect("preflight counted external inputs");
                rt.attach_region(regions[slot], p.clone());
            }
        }
    }
}

/// Build the fully owned single-task launcher for the plan task at `ix`.
///
/// `barriers` maps cross-shard edge regions to their phase barrier; pass
/// an empty map for index-launch mode (plain region dependences).
pub(crate) fn build_task_launcher(
    plan: &Arc<ShardPlan>,
    ix: u32,
    registry: &Registry,
    barriers: Arc<HashMap<RegionKey, u64>>,
    sinks: Arc<Sinks>,
    cross_shard_inputs: Vec<u64>,
    rank: u32,
) -> TaskLauncher {
    let pt = plan.task(ix);
    let callback: Callback =
        registry.get(pt.callback()).expect("preflight checked bindings").clone();
    let in_regions = input_regions(&pt.task);
    // One region per route, in route order.
    let out_regions: Vec<RegionKey> =
        output_regions(&pt.task).into_iter().map(|(_, region)| region).collect();

    // Cross-shard inputs are gated by their barrier (which implies the
    // region was written); everything else is a region dependence.
    let reqs = in_regions
        .iter()
        .filter(|region| !barriers.contains_key(region))
        .map(|&region| RegionRequirement::read(region))
        .collect();

    let trace_task = pt.id().0;
    let plan = plan.clone();
    let mut launcher = TaskLauncher::new(
        "dataflow-task",
        Box::new(move |ctx| {
            let pt = plan.task(ix);
            // Physical regions are immutable once written, so a faulted
            // callback re-reads the same inputs: re-execution in place.
            let inputs: Vec<Payload> = in_regions.iter().map(|&r| ctx.read_region(r)).collect();
            let worker = ctx.worker();
            let ran = match run_task(pt, &callback, &inputs, ctx.trace_sink(), rank, worker) {
                Ok(ran) => ran,
                Err(err) => return sinks.errors.set(err),
            };
            if ran.retries > 0 {
                sinks.retries.fetch_add(ran.retries);
            }
            let tracing = ctx.tracing();
            let mut regions = out_regions.iter();
            let Ok(routed) = route(pt, ran.outputs, None, |hop| {
                let region = *regions.next().expect("one region per route");
                match hop {
                    Hop::External(p) => sinks.outputs.lock().entry(pt.id()).or_default().push(p),
                    Hop::Local(dst, p) => {
                        let send_start = if tracing { now_ns() } else { 0 };
                        ctx.write_region(region, p);
                        if let Some(&b) = barriers.get(&region) {
                            ctx.arrive(b);
                        }
                        if tracing {
                            // Region writes move payloads in memory: bytes = 0.
                            ctx.trace_sink().record(
                                TraceEvent::span(
                                    SpanKind::MsgSend,
                                    send_start,
                                    now_ns(),
                                    rank,
                                    worker,
                                )
                                    .with_task(pt.id(), pt.callback())
                                    .with_message(dst, 0),
                            );
                        }
                    }
                    Hop::Remote(..) => unreachable!("regions share one address space"),
                }
                Ok::<(), Infallible>(())
            });
            // One shared-counter update per task: workers contend for it.
            sinks.clones.fetch_add(ran.clones + routed);
            sinks.executed.lock().insert(pt.id());
        }),
    );
    launcher.requirements = reqs;
    launcher.barriers = cross_shard_inputs;
    launcher.trace_task = trace_task;
    launcher
}

/// Classify a task's inputs and construct its launcher with barriers for
/// cross-shard edges. Shard placement comes from the plan, never the map.
fn launcher_for(
    pt: &PlanTask,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    barriers: &Arc<HashMap<RegionKey, u64>>,
    sinks: &Arc<Sinks>,
) -> TaskLauncher {
    let in_regions = input_regions(&pt.task);
    let home = pt.shard;
    let mut waits = Vec::new();
    for (slot, &src) in pt.task.incoming.iter().enumerate() {
        if !src.is_external()
            && plan.task_by_id(src).expect("edge source exists").shard != home
        {
            if let Some(&b) = barriers.get(&in_regions[slot]) {
                waits.push(b);
            }
        }
    }
    let ix = plan.index_of(pt.id()).expect("plan indexes its own ids");
    build_task_launcher(plan, ix, registry, barriers.clone(), sinks.clone(), waits, home.0)
}

impl Controller for LegionSpmdController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        plan.preflight(registry, &initial)?;
        let shards = plan.num_shards();
        let rt = LegionRuntime::with_sink(self.workers, sink);
        attach_inputs(&rt, plan, &initial);

        // One phase barrier per cross-shard edge.
        let mut barriers: HashMap<RegionKey, u64> = HashMap::new();
        for pt in plan.tasks() {
            let home = pt.shard;
            for (_, region) in output_regions(&pt.task) {
                let dst = TaskId(region.dst);
                if !dst.is_external()
                    && plan.task_by_id(dst).expect("edge target exists").shard != home
                {
                    barriers.insert(region, rt.create_barrier(1).id);
                }
            }
        }
        let barriers = Arc::new(barriers);
        let sinks = Sinks::new(&rt);

        // Precompute each shard's launchers (the shard task's "schedule its
        // assigned part of the task graph" work), then must-epoch launch
        // the shard tasks which submit them.
        let mut shard_tasks = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let launchers: Vec<TaskLauncher> = plan
                .local(ShardId(shard))
                .iter()
                .map(|&ix| launcher_for(plan.task(ix), plan, registry, &barriers, &sinks))
                .collect();
            shard_tasks.push(TaskLauncher::new(
                "spmd-shard",
                Box::new(move |ctx| {
                    for l in launchers {
                        ctx.launch(l);
                    }
                }),
            ));
        }
        rt.must_epoch_launch(shard_tasks);
        sinks.wait(&rt, plan, self.timeout)
    }

    fn name(&self) -> &'static str {
        "legion-spmd"
    }
}
