//! A Charm++-like chare-array runtime.
//!
//! Charm++ programs are collections of *chares* — "migratable objects that
//! represent the basic unit of parallel computation" — addressed by array
//! index, executing entry methods in response to messages, scheduled
//! message-driven on processing elements (PEs), and periodically migrated
//! by a load balancer. Rust has no Charm++ binding, so this module builds
//! that execution model from threads and channels:
//!
//! * a **chare array** indexed by `u64`, with a location manager mapping
//!   each index to its current PE;
//! * **PEs** (threads) running a message-driven scheduler loop;
//! * **remote method invocation**: `ctx.send(idx, …)` routes a message to
//!   the chare's current PE, forwarding if it raced with a migration;
//! * a **periodic measurement-based load balancer** migrating chares from
//!   busy PEs to idle ones (the paper's experiments "use periodic load
//!   balance").

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::trace::{noop_sink, now_ns, SpanKind, TraceEvent, TraceSink, HOST_RANK};
use babelflow_core::{Payload, TaskId};
use babelflow_core::sync::{Latch, Mutex, WorkPool};

/// A message-driven parallel object hosted by the runtime.
pub trait Chare: Send {
    /// Handle one message. Returns `true` when the chare has completed all
    /// its work and should retire (one-shot dataflow tasks retire after
    /// executing).
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool;

    /// Approximate bytes of state moved on migration (for statistics).
    fn footprint(&self) -> usize {
        0
    }
}

/// Directives a PE scheduler processes.
enum Directive {
    /// Entry-method invocation on a chare.
    Deliver {
        idx: u64,
        src: TaskId,
        payload: Payload,
        /// [`now_ns`] at send time (0 when tracing is off); the receiving
        /// PE turns the gap until execution into a queue-wait span.
        sent_ns: u64,
    },
    /// Load-balancer order: pack chare `idx` and ship it to PE `to`.
    Migrate {
        idx: u64,
        to: usize,
    },
    /// Inbound migrated chare.
    Install {
        idx: u64,
        chare: Box<dyn Chare>,
    },
    /// Drain and exit.
    Stop,
}

/// Counters the runtime reports after a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CharmStats {
    /// Entry-method messages delivered on the sending PE.
    pub local_messages: u64,
    /// Entry-method messages that crossed PEs.
    pub cross_pe_messages: u64,
    /// Chares migrated by the load balancer.
    pub migrations: u64,
    /// Chares retired (tasks executed).
    pub retired: u64,
    /// Messages dropped because their target chare had already retired.
    pub late_messages: u64,
}

struct Shared {
    /// Location manager: chare index -> current PE.
    locations: Mutex<HashMap<u64, usize>>,
    /// PE scheduler queues: one [`WorkPool`] whose *pinned* lanes replace
    /// the old per-PE channels. Directives target a specific PE (a chare's
    /// owner), so they ride the pinned lane stealing never touches —
    /// migration stays the load balancer's job, not the scheduler's.
    pool: WorkPool<Directive>,
    /// External outputs collected across PEs.
    outputs: Mutex<BTreeMap<TaskId, Vec<Payload>>>,
    /// Retired-chare count (quiescence detection).
    retired: AtomicU64,
    /// Chares in the array; the run is quiescent when `retired` reaches it.
    total: u64,
    /// Set when the last chare retires, the coordinator declares a stall,
    /// or the caller of [`CharmRuntime::run_until`] stops the run: the
    /// coordinator and the load balancer wait on it instead of polling
    /// `retired` on a timer.
    done: Arc<Latch>,
    /// Busy nanoseconds per PE (load metric for the balancer).
    busy_ns: Vec<AtomicU64>,
    /// Message counters.
    local_msgs: AtomicU64,
    cross_msgs: AtomicU64,
    migrations: AtomicU64,
    /// Messages addressed to already-retired chares (protocol violations).
    late_msgs: AtomicU64,
    /// Trace consumer shared by every PE (the no-op sink by default).
    sink: Arc<dyn TraceSink>,
    /// Cached `sink.enabled()` so hot paths pay one load, not a vcall.
    tracing: bool,
}

impl Shared {
    /// Route a message to a chare's current PE. Messages to retired
    /// chares are dropped and counted — a correct dataflow never produces
    /// them, and the quiescence timeout surfaces any resulting stall.
    fn send(&self, from_pe: usize, idx: u64, src: TaskId, payload: Payload) {
        let Some(pe) = self.locations.lock().get(&idx).copied() else {
            self.late_msgs.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if pe == from_pe {
            self.local_msgs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cross_msgs.fetch_add(1, Ordering::Relaxed);
        }
        let sent_ns = if self.tracing { now_ns() } else { 0 };
        self.pool.push_to(pe, Directive::Deliver { idx, src, payload, sent_ns });
        if self.tracing {
            let rank = if from_pe == usize::MAX { HOST_RANK } else { from_pe as u32 };
            // Payloads move by shared reference between PEs: bytes = 0.
            self.sink.record(
                TraceEvent::span(SpanKind::MsgSend, sent_ns, sent_ns, rank, 0)
                    .with_task(src, babelflow_core::CallbackId(u32::MAX))
                    .with_message(TaskId(idx), 0),
            );
        }
    }
}

/// Context handed to a chare's entry method: lets it invoke other chares
/// and emit external results.
pub struct ChareCtx<'a> {
    shared: &'a Shared,
    pe: usize,
    /// The index of the chare currently executing.
    pub self_idx: u64,
}

impl ChareCtx<'_> {
    /// Asynchronously invoke chare `idx` with a payload (remote procedure
    /// call in the paper's terms).
    pub fn send(&mut self, idx: u64, src: TaskId, payload: Payload) {
        self.shared.send(self.pe, idx, src, payload);
    }

    /// Emit a result to the host application.
    pub fn emit_external(&mut self, task: TaskId, payload: Payload) {
        self.shared.outputs.lock().entry(task).or_default().push(payload);
    }

    /// The PE this entry method runs on (informational).
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// The runtime's trace sink, so chares can emit spans (e.g. the
    /// dataflow controller's exactly-once task-execution span) on the same
    /// timeline as the runtime's message events.
    pub fn trace_sink(&self) -> &dyn TraceSink {
        &*self.shared.sink
    }

    /// Whether tracing is live (callers skip clock reads when not).
    pub fn tracing(&self) -> bool {
        self.shared.tracing
    }
}

/// Load-balancing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Never migrate.
    Off,
    /// Every period, migrate pending chares from the busiest PE to the
    /// least busy one ("periodic load balance", as used in the paper's
    /// experiments).
    Periodic(Duration),
}

/// What [`CharmRuntime::run`] returns: the external outputs and run
/// statistics, or the indices of the chares that never retired.
type RunOutcome = Result<(BTreeMap<TaskId, Vec<Payload>>, CharmStats), Vec<u64>>;

/// The chare-array runtime.
pub struct CharmRuntime {
    /// Number of processing elements (worker threads).
    pub pes: usize,
    /// Load-balancing strategy.
    pub lb: LoadBalance,
    /// Quiescence timeout: if no chare retires for this long, the run is
    /// declared stalled.
    pub timeout: Duration,
    /// Trace consumer (no-op by default).
    pub sink: Arc<dyn TraceSink>,
}

impl CharmRuntime {
    /// Runtime with `pes` processing elements and no load balancing.
    pub fn new(pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        CharmRuntime {
            pes,
            lb: LoadBalance::Off,
            timeout: Duration::from_secs(10),
            sink: noop_sink(),
        }
    }

    /// Enable a load-balancing strategy.
    pub fn with_lb(mut self, lb: LoadBalance) -> Self {
        self.lb = lb;
        self
    }

    /// Set the quiescence timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Record trace events into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Execute a chare array until every chare has retired.
    ///
    /// `indices` enumerates the chare array (placed round-robin over PEs,
    /// Charm++'s default block map); `factory` constructs each chare;
    /// `initial` is the set of bootstrap messages (from the main chare in
    /// Charm++ terms).
    ///
    /// Returns the external outputs and run statistics, or the indices of
    /// unretired chares if the run stalls.
    pub fn run<F>(
        &self,
        indices: &[u64],
        factory: F,
        initial: Vec<(u64, TaskId, Payload)>,
    ) -> Result<(BTreeMap<TaskId, Vec<Payload>>, CharmStats), Vec<u64>>
    where
        F: Fn(u64) -> Box<dyn Chare> + Send + Sync,
    {
        self.run_until(indices, factory, initial, Arc::new(Latch::new()))
    }

    /// [`run`](Self::run), but the run also ends, as if quiescent, once
    /// `done` is set from outside (a chare's failure does that).
    pub(crate) fn run_until<F>(
        &self,
        indices: &[u64],
        factory: F,
        initial: Vec<(u64, TaskId, Payload)>,
        done: Arc<Latch>,
    ) -> RunOutcome
    where
        F: Fn(u64) -> Box<dyn Chare> + Send + Sync,
    {
        let total = indices.len() as u64;
        let locations: HashMap<u64, usize> =
            indices.iter().enumerate().map(|(i, &idx)| (idx, i % self.pes)).collect();

        let shared = Arc::new(Shared {
            locations: Mutex::new(locations),
            pool: WorkPool::new(self.pes),
            outputs: Mutex::new(BTreeMap::new()),
            retired: AtomicU64::new(0),
            total,
            done,
            busy_ns: (0..self.pes).map(|_| AtomicU64::new(0)).collect(),
            local_msgs: AtomicU64::new(0),
            cross_msgs: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            late_msgs: AtomicU64::new(0),
            sink: self.sink.clone(),
            tracing: self.sink.enabled(),
        });

        if total == 0 {
            shared.done.set();
        }

        // Bootstrap messages, routed like any remote invocation.
        for (idx, src, payload) in initial {
            shared.send(usize::MAX, idx, src, payload);
        }

        let factory = &factory;
        let result: Result<(), Vec<u64>> = std::thread::scope(|s| {
            // PE scheduler threads.
            for pe in 0..self.pes {
                let shared = shared.clone();
                let my: Vec<u64> = shared
                    .locations
                    .lock()
                    .iter()
                    .filter(|(_, &p)| p == pe)
                    .map(|(&i, _)| i)
                    .collect();
                s.spawn(move || pe_main(pe, shared, my, factory));
            }

            // Optional periodic load balancer.
            let lb_handle = if let LoadBalance::Periodic(period) = self.lb {
                let shared = shared.clone();
                let pes = self.pes;
                Some(s.spawn(move || lb_main(shared, pes, period)))
            } else {
                None
            };

            // Quiescence detection: wake when the last chare retires. The
            // latch wait is sliced only to notice a stall — no chare
            // retiring for the whole timeout.
            let slice = self.timeout / 4;
            let mut last_retired = 0;
            let mut last_progress = Instant::now();
            let quiesced = loop {
                if shared.done.wait_timeout(slice) {
                    break true;
                }
                let retired = shared.retired.load(Ordering::Acquire);
                if retired != last_retired {
                    last_retired = retired;
                    last_progress = Instant::now();
                } else if last_progress.elapsed() > self.timeout {
                    break false;
                }
            };

            // Tear down; on a stall, setting the latch releases the load
            // balancer.
            shared.done.set();
            for pe in 0..self.pes {
                shared.pool.push_to(pe, Directive::Stop);
            }
            shared.pool.close();
            if let Some(h) = lb_handle {
                let _ = h.join();
            }

            if quiesced {
                Ok(())
            } else {
                // Report which chares never retired. Retired ones are
                // removed from the location table.
                let pending: Vec<u64> = {
                    let locs = shared.locations.lock();
                    let mut v: Vec<u64> = locs.keys().copied().collect();
                    v.sort();
                    v
                };
                Err(pending)
            }
        });

        result?;

        let outputs = std::mem::take(&mut *shared.outputs.lock());
        let stats = CharmStats {
            local_messages: shared.local_msgs.load(Ordering::Relaxed),
            cross_pe_messages: shared.cross_msgs.load(Ordering::Relaxed),
            migrations: shared.migrations.load(Ordering::Relaxed),
            retired: shared.retired.load(Ordering::Relaxed),
            late_messages: shared.late_msgs.load(Ordering::Relaxed),
        };
        Ok((outputs, stats))
    }
}

/// PE scheduler loop: message-driven execution of hosted chares.
fn pe_main<F>(
    pe: usize,
    shared: Arc<Shared>,
    my_indices: Vec<u64>,
    factory: &F,
) where
    F: Fn(u64) -> Box<dyn Chare> + Send + Sync,
{
    // Eagerly construct the chares placed here (Charm++ constructs array
    // elements at insertion).
    let mut chares: HashMap<u64, Box<dyn Chare>> =
        my_indices.into_iter().map(|i| (i, factory(i))).collect();
    // Messages for chares that are migrating toward this PE but whose
    // state has not arrived yet.
    let mut waiting: HashMap<u64, Vec<(TaskId, Payload, u64)>> = HashMap::new();

    // `recv` blocks on the pinned lane (and would steal floating work, but
    // every directive is pinned); `None` means the pool closed under us.
    while let Some(directive) = shared.pool.recv(pe) {
        match directive {
            Directive::Stop => return,
            Directive::Deliver { idx, src, payload, sent_ns } => {
                if chares.contains_key(&idx) {
                    run_entry(pe, &shared, &mut chares, idx, src, payload, sent_ns);
                } else {
                    let owner = shared.locations.lock().get(&idx).copied();
                    match owner {
                        Some(p) if p == pe => {
                            // Inbound migration in flight: stash until the
                            // state arrives.
                            waiting.entry(idx).or_default().push((src, payload, sent_ns));
                        }
                        Some(p) => {
                            // Raced with an outbound migration: forward,
                            // keeping the original send stamp.
                            shared
                                .pool
                                .push_to(p, Directive::Deliver { idx, src, payload, sent_ns });
                        }
                        None => {
                            // Chare already retired: late/duplicate message.
                            // Dataflow chares retire only after all inputs,
                            // so this indicates a protocol violation; drop
                            // and count it (the quiescence timeout surfaces
                            // any resulting stall).
                            shared.late_msgs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Directive::Migrate { idx, to } => {
                if let Some(chare) = chares.remove(&idx) {
                    shared.locations.lock().insert(idx, to);
                    shared.migrations.fetch_add(1, Ordering::Relaxed);
                    shared.pool.push_to(to, Directive::Install { idx, chare });
                }
                // If the chare is not here (already migrated or retired),
                // the directive is stale: ignore.
            }
            Directive::Install { idx, chare } => {
                chares.insert(idx, chare);
                if let Some(msgs) = waiting.remove(&idx) {
                    for (src, payload, sent_ns) in msgs {
                        run_entry(pe, &shared, &mut chares, idx, src, payload, sent_ns);
                    }
                }
            }
        }
    }
}

/// Execute one entry method, handling retirement.
#[allow(clippy::too_many_arguments)]
fn run_entry(
    pe: usize,
    shared: &Arc<Shared>,
    chares: &mut HashMap<u64, Box<dyn Chare>>,
    idx: u64,
    src: TaskId,
    payload: Payload,
    sent_ns: u64,
) {
    let start = Instant::now();
    if shared.tracing {
        let t = now_ns();
        // The in-flight + inbox time of this message, charged to the
        // receiving chare (its task id is its array index by convention).
        shared.sink.record(
            TraceEvent::span(SpanKind::QueueWait, sent_ns, t, pe as u32, 0)
                .with_task(TaskId(idx), babelflow_core::CallbackId(u32::MAX))
                .with_message(src, 0),
        );
    }
    let mut ctx = ChareCtx { shared, pe, self_idx: idx };
    let retired = {
        let chare = chares.get_mut(&idx).expect("caller checked presence");
        chare.on_message(src, payload, &mut ctx)
    };
    shared.busy_ns[pe].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if retired {
        chares.remove(&idx);
        shared.locations.lock().remove(&idx);
        if shared.retired.fetch_add(1, Ordering::AcqRel) + 1 == shared.total {
            shared.done.set();
        }
    }
}

/// Periodic measurement-based load balancer: shifts chares from the
/// busiest PE to the least busy one each period, and exits as soon as the
/// run is done rather than at the end of the period.
fn lb_main(shared: Arc<Shared>, pes: usize, period: Duration) {
    let mut prev_busy = vec![0u64; pes];
    while !shared.done.wait_timeout(period) {
        let busy: Vec<u64> =
            shared.busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let delta: Vec<u64> =
            busy.iter().zip(&prev_busy).map(|(b, p)| b - p).collect();
        prev_busy = busy;

        let (max_pe, _) = match delta.iter().enumerate().max_by_key(|(_, &d)| d) {
            Some(x) => x,
            None => continue,
        };
        let (min_pe, _) = match delta.iter().enumerate().min_by_key(|(_, &d)| d) {
            Some(x) => x,
            None => continue,
        };
        if max_pe == min_pe {
            continue;
        }
        // Move one not-yet-retired chare from the busiest PE.
        let candidate = {
            let locs = shared.locations.lock();
            locs.iter().find(|(_, &p)| p == max_pe).map(|(&i, _)| i)
        };
        if let Some(idx) = candidate {
            shared.pool.push_to(max_pe, Directive::Migrate { idx, to: min_pe });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::Blob;

    /// A chare that accumulates `n` values and emits their sum.
    struct Accum {
        need: usize,
        got: Vec<u64>,
        forward_to: Option<u64>,
        id: TaskId,
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    impl Chare for Accum {
        fn on_message(&mut self, _src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
            self.got.push(val(&payload));
            if self.got.len() == self.need {
                let sum: u64 = self.got.iter().sum();
                match self.forward_to {
                    Some(next) => ctx.send(next, self.id, pay(sum)),
                    None => ctx.emit_external(self.id, pay(sum)),
                }
                true
            } else {
                false
            }
        }
    }

    /// Chain of accumulators: 0 and 1 each get two bootstrap values, both
    /// forward to 2, which emits.
    fn chain_factory(idx: u64) -> Box<dyn Chare> {
        Box::new(Accum {
            need: 2,
            got: Vec::new(),
            forward_to: (idx < 2).then_some(2),
            id: TaskId(idx),
        })
    }

    #[test]
    fn message_driven_sum_tree() {
        for pes in [1, 2, 4] {
            let rt = CharmRuntime::new(pes);
            let initial = vec![
                (0, TaskId::EXTERNAL, pay(1)),
                (0, TaskId::EXTERNAL, pay(2)),
                (1, TaskId::EXTERNAL, pay(3)),
                (1, TaskId::EXTERNAL, pay(4)),
            ];
            let (outputs, stats) =
                rt.run(&[0, 1, 2], chain_factory, initial).unwrap();
            assert_eq!(val(&outputs[&TaskId(2)][0]), 10, "pes={pes}");
            assert_eq!(stats.retired, 3);
        }
    }

    #[test]
    fn stalled_run_reports_pending_chares() {
        let rt = CharmRuntime::new(2).with_timeout(Duration::from_millis(100));
        // Chare 1 never gets its second value; 2 never fires.
        let initial = vec![
            (0, TaskId::EXTERNAL, pay(1)),
            (0, TaskId::EXTERNAL, pay(2)),
            (1, TaskId::EXTERNAL, pay(3)),
        ];
        let pending = rt.run(&[0, 1, 2], chain_factory, initial).unwrap_err();
        assert_eq!(pending, vec![1, 2]);
    }

    #[test]
    fn periodic_lb_migrates_and_stays_correct() {
        // Imbalanced work: chare 0 sleeps, others are quick. With a short
        // LB period, migrations happen and the result is unchanged.
        struct Sleepy(Accum);
        impl Chare for Sleepy {
            fn on_message(&mut self, src: TaskId, p: Payload, ctx: &mut ChareCtx<'_>) -> bool {
                std::thread::sleep(Duration::from_millis(3));
                self.0.on_message(src, p, ctx)
            }
        }
        let factory = |idx: u64| -> Box<dyn Chare> {
            Box::new(Sleepy(Accum {
                need: 2,
                got: Vec::new(),
                forward_to: (idx < 8).then_some(8),
                id: TaskId(idx),
            }))
        };
        let rt = CharmRuntime::new(2).with_lb(LoadBalance::Periodic(Duration::from_millis(2)));
        let mut initial = Vec::new();
        for idx in 0..8 {
            initial.push((idx, TaskId::EXTERNAL, pay(idx)));
            initial.push((idx, TaskId::EXTERNAL, pay(100)));
        }
        // Chare 8 needs 8 inputs... need=2 is wrong for it; use need=8.
        let factory = move |idx: u64| -> Box<dyn Chare> {
            if idx == 8 {
                Box::new(Accum { need: 8, got: Vec::new(), forward_to: None, id: TaskId(8) })
            } else {
                factory(idx)
            }
        };
        let indices: Vec<u64> = (0..9).collect();
        let (outputs, _stats) = rt.run(&indices, factory, initial).unwrap();
        // Sum of (idx + 100 + idx? no: each leaf sums its two inputs
        // idx + 100, then 8 sums the 8 results: Σ(idx+100) = 28 + 800.
        assert_eq!(val(&outputs[&TaskId(8)][0]), 828);
    }

    #[test]
    fn cross_pe_and_local_messages_counted() {
        let rt = CharmRuntime::new(2);
        let initial = vec![
            (0, TaskId::EXTERNAL, pay(1)),
            (0, TaskId::EXTERNAL, pay(2)),
            (1, TaskId::EXTERNAL, pay(3)),
            (1, TaskId::EXTERNAL, pay(4)),
        ];
        let (_, stats) = rt.run(&[0, 1, 2], chain_factory, initial).unwrap();
        // Bootstraps (4, sent from "outside" = cross) + 2 forwards.
        assert_eq!(stats.local_messages + stats.cross_pe_messages, 6);
    }
}
