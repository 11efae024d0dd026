//! End-to-end and per-layer benchmark of BabelFlow-RS.
//!
//! Every figure is taken from outside the program, around calls into its
//! public API: plan build, preflight and lint, `Controller::run` and
//! `run_traced` on all six backends, and the registered callbacks, which
//! the benchmark wraps itself. See `README.md` for the workloads, the
//! metrics and the layer each one measures.

pub mod backends;
pub mod bench;
pub mod machine;
pub mod micro;
pub mod probe;
pub mod stats;
pub mod workload;
