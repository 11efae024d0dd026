//! Layer microbenchmarks, each a loop over one public entry point at the
//! workload's payload size. Every figure is the median over timed batches.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::unbounded;
use babelflow_core::trace::{SpanKind, TraceEvent, TraceSink};
use babelflow_core::{catch_invoke, Callback, CallbackId, Payload, PlanBuffer, ShardPlan, TaskId};
use babelflow_mpi::{DataflowMsg, ReliableEndpoint, World, TAG_DATAFLOW};
use babelflow_trace::TraceRecorder;

use crate::stats::median;

/// Results of one pass over every layer benchmark.
#[derive(Clone, Debug)]
pub struct Layers {
    /// `DataflowMsg::encode`, ns per KiB of payload.
    pub encode_ns_per_kib: f64,
    /// `DataflowMsg::decode`, ns per KiB of payload.
    pub decode_ns_per_kib: f64,
    /// One `core::channel` hop between two threads (half a ping-pong).
    pub hop_ns: f64,
    /// One `ReliableEndpoint` send-and-ack round trip on a 2-rank world.
    pub rtt_us: f64,
    /// One `PlanBuffer::deliver`.
    pub deliver_ns: f64,
    /// One `catch_invoke` of a no-op callback.
    pub dispatch_ns: f64,
    /// One `TraceRecorder::record`.
    pub record_ns: f64,
}

/// Time `batch` repeatedly for about `budget`, at least five times; the
/// median ns per operation. A batch returns the time its measured part
/// took (set-up it does first is not counted) and its operation count.
fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || start.elapsed() < budget {
        let (spent, ops) = batch();
        per_op.push(spent.as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&per_op)
}

/// Time `f`, which performs `ops` operations.
fn timed(ops: u64, f: impl FnOnce()) -> (Duration, u64) {
    let t = Instant::now();
    f();
    (t.elapsed(), ops)
}

/// Run every layer benchmark, spending about `budget` in total. `payload`
/// is one edge of the workload; `plan` supplies the delivery target.
pub fn measure(plan: &ShardPlan, payload: &Payload, budget: Duration) -> Layers {
    let each = budget / 7;
    let bytes = payload.to_buffer();
    let kib = bytes.len() as f64 / 1024.0;
    // ~1 ms batches: a 1 MiB encode takes ~100 µs, an 8 B one ~50 ns.
    let reps = (20_000_000 / (bytes.len() as u64 + 1_000)).clamp(2, 20_000);

    let msg = DataflowMsg {
        dst_task: TaskId(1),
        src_task: TaskId(0),
        payload: bytes.clone(),
    };
    let encode = ns_per_op(each, || {
        timed(reps, || {
            for _ in 0..reps {
                black_box(black_box(&msg).encode());
            }
        })
    });
    let wire = msg.encode();
    let decode = ns_per_op(each, || {
        timed(reps, || {
            for _ in 0..reps {
                black_box(DataflowMsg::decode(black_box(&wire)).expect("round trip"));
            }
        })
    });

    Layers {
        encode_ns_per_kib: encode / kib,
        decode_ns_per_kib: decode / kib,
        hop_ns: channel_hop(payload, each),
        rtt_us: reliable_rtt(&wire, each) / 1000.0,
        deliver_ns: deliver(plan, payload, each),
        dispatch_ns: dispatch(each),
        record_ns: record(each),
    }
}

/// Ping-pong a payload handle between two threads; half a round trip.
fn channel_hop(payload: &Payload, budget: Duration) -> f64 {
    const TRIPS: u64 = 500;
    let (to_b, from_a) = unbounded::<Payload>();
    let (to_a, from_b) = unbounded::<Payload>();
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            while let Ok(p) = from_a.recv() {
                if to_a.send(p).is_err() {
                    break;
                }
            }
        });
        let rtt = ns_per_op(budget, || {
            timed(TRIPS, || {
                for _ in 0..TRIPS {
                    to_b.send(payload.clone()).expect("echo thread alive");
                    black_box(from_b.recv().expect("echo thread alive"));
                }
            })
        });
        drop(to_b);
        echo.join().expect("echo thread panicked");
        rtt / 2.0
    })
}

/// Send one framed message from rank 0 to rank 1 and wait for its ack.
fn reliable_rtt(body: &babelflow_core::Bytes, budget: Duration) -> f64 {
    const TRIPS: u64 = 20;
    let mut world = World::new(2);
    let mut eps = world.endpoints().into_iter();
    let mut r0 = ReliableEndpoint::new(eps.next().expect("rank 0"));
    let mut r1 = ReliableEndpoint::new(eps.next().expect("rank 1"));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if let Ok(env) = r1.inbox().recv_timeout(Duration::from_millis(5)) {
                    r1.handle(env);
                    while r1.pop_ready().is_some() {}
                }
            }
        });
        let rtt = ns_per_op(budget, || {
            timed(TRIPS, || {
                for _ in 0..TRIPS {
                    r0.send(1, TAG_DATAFLOW, body.clone());
                    r0.flush_sends();
                    while !r0.all_acked() {
                        let env = r0
                            .inbox()
                            .recv_timeout(Duration::from_secs(5))
                            .expect("ack arrives");
                        r0.handle(env);
                    }
                }
            })
        });
        stop.store(true, Ordering::Release);
        peer.join().expect("peer rank panicked");
        rtt
    })
}

/// Fill the input slots of the plan's widest task, many buffers at a time.
fn deliver(plan: &ShardPlan, payload: &Payload, budget: Duration) -> f64 {
    const BUFFERS: usize = 256;
    let (ix, pt) = plan
        .tasks()
        .iter()
        .enumerate()
        .max_by_key(|(_, pt)| pt.fan_in())
        .expect("plan has tasks");
    let sources = pt.task.incoming.clone();
    ns_per_op(budget, || {
        let mut bufs: Vec<PlanBuffer> = (0..BUFFERS)
            .map(|_| PlanBuffer::new(plan, ix as u32))
            .collect();
        let inputs: Vec<Payload> = (0..BUFFERS * sources.len())
            .map(|_| payload.clone())
            .collect();
        let mut inputs = inputs.into_iter();
        let ops = (BUFFERS * sources.len()) as u64;
        let spent = timed(ops, || {
            for buf in &mut bufs {
                for &src in &sources {
                    let ok = buf.deliver(pt, src, inputs.next().expect("one payload per slot"));
                    assert!(ok, "delivery into a free slot");
                }
            }
        });
        assert!(bufs.iter().all(PlanBuffer::ready));
        spent
    })
}

fn dispatch(budget: Duration) -> f64 {
    const REPS: u64 = 20_000;
    let cb: Callback = Arc::new(|inputs, _| inputs);
    ns_per_op(budget, || {
        timed(REPS, || {
            for i in 0..REPS {
                black_box(catch_invoke(&cb, Vec::new(), TaskId(i)).expect("no-op callback"));
            }
        })
    })
}

fn record(budget: Duration) -> f64 {
    const REPS: u64 = 20_000;
    let rec = TraceRecorder::new();
    let ev = TraceEvent::span(SpanKind::Callback, 1, 2, 0, 0).with_task(TaskId(1), CallbackId(0));
    ns_per_op(budget, || {
        let spent = timed(REPS, || {
            for _ in 0..REPS {
                rec.record(black_box(ev));
            }
        });
        black_box(rec.take());
        spent
    })
}
