//! The three workloads: graph, placement, callbacks and seeded inputs.
//!
//! * `step-1k` — a 1365-task 4-way reduction with 8-byte payloads: one
//!   in-situ analysis step, dominated by each controller's fixed floor.
//! * `wide-fine` — the same reduction at 5461 tasks: per-task cost
//!   (delivery, routing, scheduling, per-message transport) dominates.
//! * `fat-payload` — an 80-task binary swap whose every edge carries a
//!   256 KiB blob blended byte by byte: bytes (codec, copies, callback
//!   time) dominate and per-task costs are bypassed.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::rng::Rng;
use babelflow_core::{
    Blob, BlockMap, CallbackId, InitialInputs, Payload, Registry, TaskGraph, TaskId,
};
use babelflow_graphs::{BinarySwap, Reduction};

use crate::probe::Probe;

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["step-1k", "wide-fine", "fat-payload"];

/// Shards every workload is placed on: one per core of the 2-core
/// machine the benchmark is sized for.
pub const SHARDS: u32 = 2;

/// Bytes per edge of the `fat-payload` workload. At 1 MiB per edge a run
/// moves several hundred MiB, and on a shared host the parallel backends'
/// medians then doubled from one launch to the next with the memory
/// traffic of neighbouring machines; at 256 KiB they hold steady.
pub const FAT_BYTES: usize = 256 << 10;

/// One workload, ready to run.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The task graph.
    pub graph: Box<dyn TaskGraph + Send + Sync>,
    /// Contiguous placement over [`SHARDS`] shards.
    pub map: BlockMap,
    /// Wrapped callbacks (see [`Probe`]).
    pub registry: Registry,
    /// Seeded external inputs.
    pub inputs: InitialInputs,
    /// Bytes each edge carries.
    pub payload_bytes: usize,
    /// The stamps every wrapped callback writes.
    pub probe: Arc<Probe>,
}

impl Workload {
    /// Build the named workload with inputs drawn from `seed`; `None` for
    /// an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, graph, payload_bytes): (_, Box<dyn TaskGraph + Send + Sync>, _) = match name {
            "step-1k" => ("step-1k", Box::new(Reduction::new(1024, 4)), 8),
            "wide-fine" => ("wide-fine", Box::new(Reduction::new(4096, 4)), 8),
            "fat-payload" => ("fat-payload", Box::new(BinarySwap::new(16)), FAT_BYTES),
            _ => return None,
        };
        let probe = Arc::new(Probe::default());
        let fan_outs: Arc<HashMap<TaskId, usize>> = Arc::new(
            graph
                .ids()
                .into_iter()
                .filter_map(|id| graph.task(id).map(|t| (id, t.fan_out())))
                .collect(),
        );
        let mut registry = Registry::new();
        for cb in callbacks_of(&*graph) {
            let probe = probe.clone();
            let fan_outs = fan_outs.clone();
            let fat = payload_bytes == FAT_BYTES;
            registry.register(cb, move |inputs, id| {
                let n = fan_outs.get(&id).copied().unwrap_or(1);
                probe.call(inputs, id, |inputs, id| {
                    if fat {
                        blend(&inputs, id, n)
                    } else {
                        mix(&inputs, id, n)
                    }
                })
            });
        }
        let mut rng = Rng::seed_from_u64(seed);
        let inputs = graph
            .input_tasks()
            .into_iter()
            .map(|id| {
                let task = graph.task(id).expect("input task exists");
                let externals = task.incoming.iter().filter(|s| s.is_external()).count();
                let payloads = (0..externals)
                    .map(|_| {
                        let bytes: Vec<u8> = if payload_bytes == 8 {
                            rng.next_u64().to_le_bytes().to_vec()
                        } else {
                            (0..payload_bytes / 8)
                                .flat_map(|_| rng.next_u64().to_le_bytes())
                                .collect()
                        };
                        Payload::wrap(Blob(bytes))
                    })
                    .collect();
                (id, payloads)
            })
            .collect();
        let map = BlockMap::new(SHARDS, graph.size() as u64);
        Some(Workload {
            name,
            graph,
            map,
            registry,
            inputs,
            payload_bytes,
            probe,
        })
    }

    /// A payload of this workload's edge size (for the layer benchmarks).
    pub fn sample_payload(&self) -> Payload {
        self.inputs
            .values()
            .flatten()
            .next()
            .expect("workload has inputs")
            .clone()
    }
}

fn callbacks_of(graph: &dyn TaskGraph) -> Vec<CallbackId> {
    let mut cbs = graph.callback_ids();
    cbs.extend(
        graph
            .ids()
            .into_iter()
            .filter_map(|id| graph.task(id))
            .map(|t| t.callback),
    );
    cbs.sort_unstable();
    cbs.dedup();
    cbs
}

fn blob(p: &Payload) -> Arc<Blob> {
    p.extract::<Blob>().expect("workload payloads are blobs")
}

/// The FNV-style mixer of the perf smoke: folds the 8-byte inputs and the
/// task id into one word, then fans it out.
fn mix(inputs: &[Payload], id: TaskId, fan_out: usize) -> Vec<Payload> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in inputs {
        let v = u64::from_le_bytes(blob(p).0.as_slice().try_into().expect("8-byte payload"));
        h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(7);
    }
    h ^= id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..fan_out as u64)
        .map(|s| Payload::wrap(Blob((h ^ s).to_le_bytes().to_vec())))
        .collect()
}

/// Byte-wise alpha blend of the inputs, as in image compositing: each
/// output slot gets its own weight, so every edge carries distinct bytes.
fn blend(inputs: &[Payload], id: TaskId, fan_out: usize) -> Vec<Payload> {
    let blobs: Vec<Arc<Blob>> = inputs.iter().map(blob).collect();
    (0..fan_out as u64)
        .map(|slot| {
            let w = 64 + (id.0.wrapping_mul(31).wrapping_add(slot * 97) % 128) as u16;
            let a = &blobs[0].0;
            let out: Vec<u8> = match blobs.get(1) {
                Some(b) => a
                    .iter()
                    .zip(&b.0)
                    .map(|(&x, &y)| ((x as u16 * w + y as u16 * (256 - w)) >> 8) as u8)
                    .collect(),
                None => a
                    .iter()
                    .map(|&x| ((x as u16 * w) >> 8) as u8 ^ slot as u8)
                    .collect(),
            };
            Payload::wrap(Blob(out))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::{canonical_outputs, run_serial};

    #[test]
    fn workloads_have_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| Workload::new(w, 1).unwrap().graph.size())
            .collect();
        assert_eq!(sizes, [1365, 5461, 80]);
        assert!(Workload::new("nope", 1).is_none());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let golden = |seed| {
            let w = Workload::new("step-1k", seed).unwrap();
            canonical_outputs(&run_serial(&*w.graph, &w.registry, w.inputs.clone()).unwrap())
        };
        assert_eq!(golden(3), golden(3));
        assert_ne!(golden(3), golden(4));
    }
}
