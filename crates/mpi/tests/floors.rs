//! Transport floors: on a clean link, acks already queued in a busy rank's
//! inbox are read before anything is judged overdue, so neither controller
//! retransmits.

use std::collections::HashMap;

use babelflow_core::{Blob, BlockMap, CallbackId, Controller, Payload, Registry, TaskGraph, TaskId};
use babelflow_graphs::Reduction;
use babelflow_mpi::{BlockingMpiController, MpiController};

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

/// Fewest retransmits over three runs of `Reduction(4096, 4)` on two
/// shards: one run slowed by a descheduled thread may retransmit, a
/// protocol that reads acks late retransmits on every run.
fn fewest_retransmits(ctl: &mut dyn Controller) -> u64 {
    let g = Reduction::new(4096, 4);
    let map = BlockMap::new(2, g.size() as u64);
    let reg = sum_registry();
    let inputs: HashMap<TaskId, Vec<Payload>> =
        g.leaf_ids().into_iter().enumerate().map(|(i, id)| (id, vec![pay(i as u64)])).collect();
    (0..3)
        .map(|_| {
            let report = ctl.run(&g, &map, &reg, inputs.clone()).unwrap();
            assert_eq!(report.stats.tasks_executed as usize, g.size());
            report.stats.recovery.retransmits
        })
        .min()
        .expect("three runs")
}

#[test]
fn async_controller_does_not_retransmit_on_a_clean_link() {
    assert_eq!(fewest_retransmits(&mut MpiController::new().with_workers(1)), 0);
}

#[test]
fn blocking_controller_does_not_retransmit_on_a_clean_link() {
    assert_eq!(fewest_retransmits(&mut BlockingMpiController::new()), 0);
}
