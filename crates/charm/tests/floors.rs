//! Latency floors: a run returns when its last chare retires, not when a
//! timer next fires. Neither the quiescence check nor the load balancer's
//! period may hold a finished run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_charm::{Chare, ChareCtx, CharmController, CharmRuntime, LoadBalance};
use babelflow_core::{
    canonical_outputs, run_serial, Blob, CallbackId, Controller, ModuloMap, Payload, Registry,
    ShardPlan, TaskGraph, TaskId,
};
use babelflow_graphs::Reduction;

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn sum_registry() -> Registry {
    let mut r = Registry::new();
    r.register(CallbackId(0), |inputs, id| vec![pay(val(&inputs[0]).wrapping_add(id.0))]);
    for cb in [1, 2] {
        r.register(CallbackId(cb), |inputs, _| {
            vec![pay(inputs.iter().map(val).fold(0u64, u64::wrapping_add))]
        });
    }
    r
}

fn leaf_inputs(g: &Reduction) -> HashMap<TaskId, Vec<Payload>> {
    g.leaf_ids().into_iter().enumerate().map(|(i, id)| (id, vec![pay(i as u64)])).collect()
}

#[test]
fn load_balancer_period_does_not_hold_a_finished_run() {
    let g = Reduction::new(64, 4);
    let reg = sum_registry();
    let inputs = leaf_inputs(&g);
    let golden = canonical_outputs(&run_serial(&g, &reg, inputs.clone()).unwrap());
    let map = ModuloMap::new(2, g.size() as u64);
    let mut ctl = CharmController::new(2).with_lb(LoadBalance::Periodic(Duration::from_secs(10)));
    let start = Instant::now();
    let report = ctl.run(&g, &map, &reg, inputs).unwrap();
    let took = start.elapsed();
    assert_eq!(canonical_outputs(&report), golden);
    assert!(took < Duration::from_secs(1), "a 10 s balancer period held the run for {took:?}");
}

/// A chare that never retires.
struct Waiting;

impl Chare for Waiting {
    fn on_message(&mut self, _src: TaskId, _payload: Payload, _ctx: &mut ChareCtx<'_>) -> bool {
        false
    }
}

#[test]
fn load_balancer_exits_when_a_stalled_run_is_torn_down() {
    // The chare never retires, so the run stalls after the 100 ms timeout,
    // and teardown must release the balancer at once rather than at the
    // end of its 10 s period.
    let rt = CharmRuntime::new(2)
        .with_lb(LoadBalance::Periodic(Duration::from_secs(10)))
        .with_timeout(Duration::from_millis(100));
    let start = Instant::now();
    let pending = rt
        .run(&[0], |_| Box::new(Waiting), vec![(0, TaskId::EXTERNAL, pay(1))])
        .unwrap_err();
    assert_eq!(pending, vec![0]);
    assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
}

#[test]
fn step_sized_reduction_has_no_timer_floor() {
    // Reduction(1024, 4) is 1365 tasks; before this floor was removed a
    // run took at least the 50 ms balancer period.
    let g = Reduction::new(1024, 4);
    let reg = sum_registry();
    let inputs = leaf_inputs(&g);
    let map = ModuloMap::new(2, g.size() as u64);
    let plan = Arc::new(ShardPlan::build(&g, &map));
    // The fastest of three runs, so one descheduling of a test thread on
    // a busy machine does not decide the verdict.
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            let report = CharmController::new(2)
                .with_plan(plan.clone())
                .run(&g, &map, &reg, inputs.clone())
                .unwrap();
            assert_eq!(report.stats.tasks_executed as usize, g.size());
            start.elapsed()
        })
        .min()
        .expect("three runs");
    assert!(best < Duration::from_millis(25), "best of 3 took {best:?}");
}
