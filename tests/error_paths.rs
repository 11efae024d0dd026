//! Error-path matrix: on every backend, one failing task must fail the run
//! fast and with the real error. For each backend × {wrong output arity,
//! retries exhausted} × {leaf, interior task}, a `Reduction(16, 2)` over
//! `ModuloMap(2)` must return the exact `ControllerError` variant naming
//! the failing task well inside every backend's 10 s stall timeout, never
//! a `Deadlock` derived from the failure.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use babelflow::core::{
    quiet_panic_hook, Blob, CallbackId, Controller, ControllerError, ModuloMap, Payload, Registry,
    TaskGraph, TaskId, MAX_TASK_RETRIES, PANIC_MARKER,
};
use babelflow::graphs::Reduction;

/// How long a failed run may take to report its error.
const BOUND: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The task's callback returns no outputs instead of one.
    WrongArity,
    /// The task's callback panics on every attempt.
    AlwaysPanics,
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(
        p.extract::<Blob>()
            .unwrap()
            .0
            .as_slice()
            .try_into()
            .unwrap(),
    )
}

/// Sum-reduction callbacks in which task `failing` misbehaves as `fault`.
fn registry(failing: TaskId, fault: Fault) -> Registry {
    let mut reg = Registry::new();
    for cb in 0..3 {
        reg.register(CallbackId(cb), move |inputs, id| {
            if id == failing {
                match fault {
                    Fault::WrongArity => return vec![],
                    Fault::AlwaysPanics => panic!("{PANIC_MARKER}: task {id} always fails"),
                }
            }
            vec![pay(inputs.iter().map(val).sum())]
        });
    }
    reg
}

fn backends() -> Vec<Box<dyn Controller>> {
    vec![
        Box::new(babelflow::core::SerialController::new()),
        Box::new(babelflow::mpi::MpiController::new()),
        Box::new(babelflow::mpi::BlockingMpiController::new()),
        Box::new(babelflow::charm::CharmController::new(2)),
        Box::new(babelflow::legion::LegionSpmdController::new(2)),
        Box::new(babelflow::legion::LegionIndexLaunchController::new(2)),
    ]
}

fn is_expected(err: &ControllerError, failing: TaskId, fault: Fault) -> bool {
    match (fault, err) {
        (
            Fault::WrongArity,
            ControllerError::BadOutputArity {
                task,
                expected: 1,
                got: 0,
            },
        ) => *task == failing,
        (Fault::AlwaysPanics, ControllerError::TaskError { task, attempts, .. }) => {
            *task == failing && *attempts == MAX_TASK_RETRIES + 1
        }
        _ => false,
    }
}

#[test]
fn one_failing_task_fails_every_backend_fast_with_the_real_error() {
    quiet_panic_hook();
    let g = Reduction::new(16, 2);
    let map = ModuloMap::new(2, g.size() as u64);
    let inputs: HashMap<TaskId, Vec<Payload>> = g
        .leaf_ids()
        .into_iter()
        .map(|id| (id, vec![pay(id.0)]))
        .collect();
    // A leaf on shard 0, and interior task 5 on shard 1 (its consumer,
    // task 2, is on shard 0).
    let leaf = g.leaf_ids()[1];
    let interior = TaskId(5);
    assert_eq!((leaf.0 % 2, interior.0 % 2), (0, 1));

    let mut failures = Vec::new();
    let mut cases = 0;
    for mut ctl in backends() {
        for fault in [Fault::WrongArity, Fault::AlwaysPanics] {
            for failing in [leaf, interior] {
                cases += 1;
                let reg = registry(failing, fault);
                let start = Instant::now();
                let result = ctl.run(&g, &map, &reg, inputs.clone());
                let took = start.elapsed();
                let case = format!("{} {fault:?} at task {failing}", ctl.name());
                eprintln!("{case}: {took:?}");
                match result {
                    Ok(_) => failures.push(format!("{case}: succeeded")),
                    Err(err) if !is_expected(&err, failing, fault) => {
                        failures.push(format!("{case}: wrong error after {took:?}: {err:?}"))
                    }
                    Err(_) if took > BOUND => {
                        failures.push(format!("{case}: took {took:?} (bound {BOUND:?})"))
                    }
                    Err(_) => {}
                }
            }
        }
    }
    assert_eq!(cases, 24);
    assert!(
        failures.is_empty(),
        "{} of {cases} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
