//! The six backends, sized for a 2-core machine.

use std::sync::Arc;

use babelflow_charm::CharmController;
use babelflow_core::{Controller, SerialController, ShardPlan};
use babelflow_legion::{LegionIndexLaunchController, LegionSpmdController};
use babelflow_mpi::{BlockingMpiController, MpiController};

/// Backend names, in the round-robin order of the timed loop.
pub const BACKENDS: [&str; 6] = [
    "serial",
    "mpi-async",
    "mpi-blocking",
    "charm",
    "legion-spmd",
    "legion-il",
];

/// The backends that serialize across ranks.
pub const MPI_BACKENDS: [&str; 2] = ["mpi-async", "mpi-blocking"];

/// Processing elements (Charm) or workers (Legion): one per core.
const WORKERS: usize = 2;

/// A controller for `name` that reuses `plan` on every run, as an in-situ
/// caller running the same dataflow each simulation step would.
///
/// # Panics
/// If `name` is not one of [`BACKENDS`].
pub fn controller(name: &str, plan: Arc<ShardPlan>) -> Box<dyn Controller> {
    match name {
        "serial" => Box::new(SerialController::new().with_plan(plan)),
        // Two ranks (one per shard) with one pool worker each.
        "mpi-async" => Box::new(MpiController::new().with_workers(1).with_plan(plan)),
        "mpi-blocking" => Box::new(BlockingMpiController::new().with_plan(plan)),
        "charm" => Box::new(CharmController::new(WORKERS).with_plan(plan)),
        "legion-spmd" => Box::new(LegionSpmdController::new(WORKERS).with_plan(plan)),
        "legion-il" => Box::new(LegionIndexLaunchController::new(WORKERS).with_plan(plan)),
        other => panic!("unknown backend {other}"),
    }
}
