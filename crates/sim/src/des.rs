//! The discrete-event dataflow simulator.
//!
//! Executes a task graph in *virtual time* on a modeled cluster: every
//! task's compute cost and message size comes from a [`TaskCostModel`]
//! (calibrated against the real kernels), and the scheduling policy,
//! overheads, and fast paths come from a [`RuntimeCosts`] preset. The
//! graphs, placements, and readiness rules are the real ones — only
//! wall-clock is replaced — which lets the 128–32768-core studies of the
//! paper run on a two-core build machine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use babelflow_core::{Task, TaskGraph, TaskId};

use crate::costs::{RuntimeCosts, Schedule};
use crate::machine::{MachineConfig, Ns};

/// Task compute/communication costs for a use case.
pub trait TaskCostModel: Send + Sync {
    /// Pure compute nanoseconds for `task` given input sizes in bytes
    /// (slot order).
    fn compute_ns(&self, task: &Task, input_bytes: &[u64]) -> Ns;
    /// Output payload sizes in bytes, one per output slot.
    fn output_bytes(&self, task: &Task, input_bytes: &[u64]) -> Vec<u64>;
    /// Size of the external input feeding `slot` of `task`.
    fn external_input_bytes(&self, task: &Task, slot: usize) -> u64;
}

/// One simulated task execution: where and when a task ran in virtual
/// time. Mirrors the `TaskExec` spans a real controller traces, so a
/// recorded trace can be diffed against the simulator's prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSpan {
    /// The task that executed.
    pub task: TaskId,
    /// Core the task ran on (after any migration).
    pub core: u32,
    /// Virtual time the core picked the task up.
    pub start_ns: Ns,
    /// Virtual time the task (overhead + compute) finished.
    pub end_ns: Ns,
}

/// Results of a simulated run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Virtual time at which the last task (and message) completed.
    pub makespan_ns: Ns,
    /// Time spent staging/launching tasks (parents + central runtime).
    pub staging_ns: Ns,
    /// Total pure task compute.
    pub compute_ns: Ns,
    /// Total per-task runtime overhead.
    pub overhead_ns: Ns,
    /// Cross-core messages.
    pub messages: u64,
    /// Cross-core bytes.
    pub bytes: u64,
    /// Load-balancer migrations.
    pub migrations: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Per-task execution spans in event order (the predicted schedule).
    pub timeline: Vec<SimSpan>,
}

impl SimReport {
    /// Makespan in seconds (figure axis).
    pub fn seconds(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

/// A serially used resource (core, NIC, central runtime).
#[derive(Clone, Debug, Default)]
struct Resource {
    free_at: Ns,
    busy: Ns,
}

impl Resource {
    /// Request `work` at time `t`; returns the completion time.
    fn alloc(&mut self, t: Ns, work: Ns) -> Ns {
        let start = t.max(self.free_at);
        self.free_at = start + work;
        self.busy += work;
        self.free_at
    }
}

#[derive(Debug)]
enum Ev {
    /// A cross-core message reaches its destination core.
    Arrive { dst: u32, src: TaskId, bytes: u64 },
    /// A task begins its start procedure (LB placement, central runtime
    /// meta-work, core allocation). Routing starts through the event heap
    /// keeps every resource's request stream ordered in time.
    Start { idx: u32 },
    /// A task finished executing.
    Done { idx: u32 },
}

/// Deterministic pseudo-random core candidates for the LB model.
fn lb_candidate(task: u64, i: u32, cores: u32) -> u32 {
    let mut x = task
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    (x % cores as u64) as u32
}

/// Kahn levelization: longest-path round per task (id-tiebroken order).
fn levelize(tasks: &[Task], index: &HashMap<TaskId, u32>) -> Vec<u32> {
    let n = tasks.len();
    let mut indeg: Vec<u32> = tasks
        .iter()
        .map(|t| t.incoming.iter().filter(|s| !s.is_external()).count() as u32)
        .collect();
    let mut round = vec![0u32; n];
    let mut queue: VecDeque<u32> = {
        let mut q: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        q.sort_by_key(|&i| tasks[i as usize].id);
        q.into()
    };
    while let Some(i) = queue.pop_front() {
        for dsts in &tasks[i as usize].outgoing {
            for dst in dsts {
                if dst.is_external() {
                    continue;
                }
                let j = index[dst];
                round[j as usize] = round[j as usize].max(round[i as usize] + 1);
                indeg[j as usize] -= 1;
                if indeg[j as usize] == 0 {
                    queue.push_back(j);
                }
            }
        }
    }
    round
}

/// Simulate one dataflow execution.
///
/// `placement` maps every task to its home core in `0..machine.cores()`.
pub fn simulate(
    graph: &dyn TaskGraph,
    placement: &dyn Fn(TaskId) -> u32,
    cost: &dyn TaskCostModel,
    machine: &MachineConfig,
    rc: &RuntimeCosts,
) -> SimReport {
    let ids = graph.ids();
    let tasks: Vec<Task> = ids.iter().map(|&id| graph.task(id).expect("id has task")).collect();
    let n = tasks.len();
    let index: HashMap<TaskId, u32> =
        tasks.iter().enumerate().map(|(i, t)| (t.id, i as u32)).collect();
    let cores_n = machine.cores();
    let home: Vec<u32> = tasks.iter().map(|t| placement(t.id) % cores_n).collect();

    let mut cores: Vec<Resource> = vec![Resource::default(); cores_n as usize];
    // Separate controller-thread resources when the runtime overlaps
    // communication handling with task execution.
    let mut comms: Vec<Resource> = vec![Resource::default(); cores_n as usize];
    let mut nics: Vec<Resource> = vec![Resource::default(); machine.nodes as usize];
    let mut central = Resource::default();

    // Input-slot bookkeeping.
    const EMPTY: u64 = u64::MAX;
    let mut in_bytes: Vec<Vec<u64>> = tasks.iter().map(|t| vec![EMPTY; t.fan_in()]).collect();
    let mut missing: Vec<u32> = tasks.iter().map(|t| t.fan_in() as u32).collect();
    let mut exec_core: Vec<u32> = home.clone();
    let mut started = vec![false; n];

    // Static-order schedule (blocking baseline).
    let rounds = levelize(&tasks, &index);
    let mut core_lists: Vec<Vec<u32>> = vec![Vec::new(); cores_n as usize];
    let mut core_ptr: Vec<usize> = vec![0; cores_n as usize];
    let mut ready_flag = vec![false; n];
    if rc.schedule == Schedule::StaticOrder {
        for i in 0..n as u32 {
            core_lists[home[i as usize] as usize].push(i);
        }
        for list in &mut core_lists {
            list.sort_by_key(|&i| (rounds[i as usize], tasks[i as usize].id));
        }
    }

    // Round gating (index launches).
    let n_rounds = rounds.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut round_remaining = vec![0u32; n_rounds];
    let mut round_open = vec![false; n_rounds.max(1)];
    let mut round_stash: Vec<Vec<u32>> = vec![Vec::new(); n_rounds.max(1)];
    if rc.round_sync {
        for i in 0..n {
            round_remaining[rounds[i] as usize] += 1;
        }
        round_open[0] = true;
    }

    let mut report = SimReport { tasks: n as u64, ..SimReport::default() };

    // SPMD-style upfront launching: each core pays for submitting its
    // local launchers before anything runs.
    if rc.upfront_launch_ns > 0 {
        let mut counts = vec![0u64; cores_n as usize];
        for &h in &home {
            counts[h as usize] += 1;
        }
        for (c, &k) in counts.iter().enumerate() {
            if k > 0 {
                let w = k * rc.upfront_launch_ns;
                cores[c].alloc(0, w);
                report.staging_ns += w;
            }
        }
    }

    let mut heap: BinaryHeap<Reverse<(Ns, u64, u32)>> = BinaryHeap::new();
    let mut payloads: Vec<Ev> = Vec::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<(Ns, u64, u32)>>,
                    payloads: &mut Vec<Ev>,
                    seq: &mut u64,
                    t: Ns,
                    ev: Ev| {
        payloads.push(ev);
        heap.push(Reverse((t, *seq, (payloads.len() - 1) as u32)));
        *seq += 1;
    };

    // Execution starts discovered while processing an event; converted to
    // heap events so resources see time-ordered requests.
    let mut start_queue: VecDeque<(u32, Ns)> = VecDeque::new();

    // Deliver external inputs at t = 0.
    for i in 0..n {
        let t = &tasks[i];
        for (slot, src) in t.incoming.iter().enumerate() {
            if src.is_external() {
                in_bytes[i][slot] = cost.external_input_bytes(t, slot);
                missing[i] -= 1;
            }
        }
        if missing[i] == 0 {
            mark_ready(
                i as u32,
                0,
                rc,
                &home,
                &mut ready_flag,
                &core_lists,
                &mut core_ptr,
                &rounds,
                &round_open,
                &mut round_stash,
                &mut start_queue,
            );
        }
    }

    let mut final_time: Ns = 0;

    loop {
        // Convert newly runnable tasks into Start events.
        while let Some((i, t)) = start_queue.pop_front() {
            push(&mut heap, &mut payloads, &mut seq, t, Ev::Start { idx: i });
        }

        let Some(Reverse((t, _, ev_idx))) = heap.pop() else { break };
        final_time = final_time.max(t);
        match std::mem::replace(&mut payloads[ev_idx as usize], Ev::Done { idx: u32::MAX }) {
            Ev::Start { idx } => {
                let i_us = idx as usize;
                debug_assert!(!started[i_us], "task started twice");
                started[i_us] = true;
                let mut t = t;

                // Periodic load balancing: a chare migrates only when it
                // would otherwise queue behind at least one balancing
                // period of backlog — the balancer cannot react faster
                // than it runs.
                if let Some(lb) = &rc.lb {
                    let h = home[i_us];
                    let backlog = cores[h as usize].free_at.saturating_sub(t);
                    if backlog > lb.period_ns {
                        let mut best = h;
                        let mut best_free = cores[h as usize].free_at;
                        for c in 0..lb.candidates {
                            let cand = lb_candidate(tasks[i_us].id.0, c, cores_n);
                            if cores[cand as usize].free_at + lb.migrate_ns < best_free {
                                best = cand;
                                best_free = cores[cand as usize].free_at;
                            }
                        }
                        if best != h {
                            report.migrations += 1;
                            t += lb.migrate_ns;
                            exec_core[i_us] = best;
                        }
                    }
                }

                // Central runtime meta-work (Legion).
                if rc.central_overhead_ns > 0 {
                    t = central.alloc(t, rc.central_overhead_ns);
                    report.staging_ns += rc.central_overhead_ns;
                }

                let compute = cost.compute_ns(&tasks[i_us], &in_bytes[i_us]);
                report.compute_ns += compute;
                report.overhead_ns += rc.task_overhead_ns;
                let work = rc.task_overhead_ns + compute;
                let end = cores[exec_core[i_us] as usize].alloc(t, work);
                report.timeline.push(SimSpan {
                    task: tasks[i_us].id,
                    core: exec_core[i_us],
                    start_ns: end - work,
                    end_ns: end,
                });
                push(&mut heap, &mut payloads, &mut seq, end, Ev::Done { idx });
            }
            Ev::Arrive { dst, src, bytes } => {
                let core = home[dst as usize];
                let work =
                    (bytes as f64 * rc.deser_ns_per_byte) as Ns + rc.msg_cpu_ns;
                let pool = if rc.comm_thread { &mut comms } else { &mut cores };
                let done = pool[core as usize].alloc(t, work);
                deliver(
                    dst,
                    src,
                    bytes,
                    done,
                    &tasks,
                    &mut in_bytes,
                    &mut missing,
                    rc,
                    &home,
                    &mut ready_flag,
                    &core_lists,
                    &mut core_ptr,
                    &rounds,
                    &round_open,
                    &mut round_stash,
                    &mut start_queue,
                );
                final_time = final_time.max(done);
            }
            Ev::Done { idx } => {
                if idx == u32::MAX {
                    continue;
                }
                let i = idx as usize;
                let out = cost.output_bytes(&tasks[i], &in_bytes[i]);
                debug_assert_eq!(out.len(), tasks[i].fan_out());
                let src_core = exec_core[i];
                let mut send_cursor = t;
                for (slot, dsts) in tasks[i].outgoing.clone().iter().enumerate() {
                    for &dst in dsts {
                        if dst.is_external() {
                            continue;
                        }
                        let j = index[&dst];
                        let bytes = out[slot];
                        if rc.local_fast_path && home[j as usize] == src_core {
                            deliver(
                                j,
                                tasks[i].id,
                                bytes,
                                t,
                                &tasks,
                                &mut in_bytes,
                                &mut missing,
                                rc,
                                &home,
                                &mut ready_flag,
                                &core_lists,
                                &mut core_ptr,
                                &rounds,
                                &round_open,
                                &mut round_stash,
                                &mut start_queue,
                            );
                        } else {
                            let ser =
                                (bytes as f64 * rc.ser_ns_per_byte) as Ns + rc.msg_cpu_ns;
                            let pool =
                                if rc.comm_thread { &mut comms } else { &mut cores };
                            send_cursor = pool[src_core as usize].alloc(send_cursor, ser);
                            let dst_core = home[j as usize];
                            let mut ready_t = send_cursor;
                            if machine.node_of(src_core) != machine.node_of(dst_core) {
                                ready_t = nics[machine.node_of(src_core) as usize]
                                    .alloc(ready_t, machine.nic_ns(bytes));
                            }
                            let arrive = ready_t + machine.wire_ns(src_core, dst_core, bytes);
                            report.messages += 1;
                            report.bytes += bytes;
                            push(
                                &mut heap,
                                &mut payloads,
                                &mut seq,
                                arrive,
                                Ev::Arrive { dst: j, src: tasks[i].id, bytes },
                            );
                        }
                    }
                }

                // Round barrier: completing the last task of a round opens
                // the next one.
                if rc.round_sync {
                    let r = rounds[i] as usize;
                    round_remaining[r] -= 1;
                    if round_remaining[r] == 0 && r + 1 < n_rounds {
                        round_open[r + 1] = true;
                        for task in std::mem::take(&mut round_stash[r + 1]) {
                            mark_ready(
                                task,
                                t,
                                rc,
                                &home,
                                &mut ready_flag,
                                &core_lists,
                                &mut core_ptr,
                                &rounds,
                                &round_open,
                                &mut round_stash,
                                &mut start_queue,
                            );
                        }
                    }
                }
            }
        }
    }

    let unstarted = started.iter().filter(|&&s| !s).count();
    assert_eq!(unstarted, 0, "{unstarted} tasks never executed (graph or model bug)");
    report.makespan_ns = final_time;
    report
}

/// Fill an input slot; enqueue the task if it became runnable.
#[allow(clippy::too_many_arguments)]
fn deliver(
    idx: u32,
    src: TaskId,
    bytes: u64,
    t: Ns,
    tasks: &[Task],
    in_bytes: &mut [Vec<u64>],
    missing: &mut [u32],
    rc: &RuntimeCosts,
    home: &[u32],
    ready_flag: &mut [bool],
    core_lists: &[Vec<u32>],
    core_ptr: &mut [usize],
    rounds: &[u32],
    round_open: &[bool],
    round_stash: &mut [Vec<u32>],
    start_queue: &mut VecDeque<(u32, Ns)>,
) {
    let i = idx as usize;
    const EMPTY: u64 = u64::MAX;
    let mut placed = false;
    for (slot, s) in tasks[i].incoming.iter().enumerate() {
        if *s == src && in_bytes[i][slot] == EMPTY {
            in_bytes[i][slot] = bytes;
            placed = true;
            break;
        }
    }
    assert!(placed, "unexpected delivery {src} -> {}", tasks[i].id);
    missing[i] -= 1;
    if missing[i] == 0 {
        mark_ready(
            idx, t, rc, home, ready_flag, core_lists, core_ptr, rounds, round_open,
            round_stash, start_queue,
        );
    }
}

/// Apply the schedule's gating to a task whose inputs are complete.
#[allow(clippy::too_many_arguments)]
fn mark_ready(
    idx: u32,
    t: Ns,
    rc: &RuntimeCosts,
    home: &[u32],
    ready_flag: &mut [bool],
    core_lists: &[Vec<u32>],
    core_ptr: &mut [usize],
    rounds: &[u32],
    round_open: &[bool],
    round_stash: &mut [Vec<u32>],
    start_queue: &mut VecDeque<(u32, Ns)>,
) {
    let i = idx as usize;
    if rc.round_sync && !round_open[rounds[i] as usize] {
        round_stash[rounds[i] as usize].push(idx);
        return;
    }
    match rc.schedule {
        Schedule::Greedy => start_queue.push_back((idx, t)),
        Schedule::StaticOrder => {
            ready_flag[i] = true;
            let core = home[i] as usize;
            let list = &core_lists[core];
            let ptr = &mut core_ptr[core];
            while *ptr < list.len() && ready_flag[list[*ptr] as usize] {
                start_queue.push_back((list[*ptr], t));
                *ptr += 1;
            }
        }
    }
}
