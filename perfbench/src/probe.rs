//! Outside-in timing: the benchmark's own clock, the wrapper it puts
//! around every registered callback, and the spans it keeps in memory.
//!
//! Nothing here reaches inside a controller. A run is timed around the
//! public `Controller::run` call, and the wrapper stamps each callback's
//! entry and exit. The first entry and the last exit split the run into
//! startup (thread spawn, plan hand-off, initial delivery), execution and
//! teardown (quiescence detection, joins, result collection).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use babelflow_core::{Payload, TaskId};

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fixed piece of work owned by the benchmark, never by the program:
/// ordered-map inserts and lookups over pseudo-random keys, which
/// allocate, compare and chase pointers like a controller's bookkeeping.
/// Timing it next to every run tells how fast the host is at that moment.
pub fn calibration_kernel() -> u64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4096u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
    }
    let mut sum = 0u64;
    for k in map.keys().step_by(3) {
        sum = sum.wrapping_add(map[k]);
    }
    sum
}

/// One span the benchmark recorded around a call into the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was timed: `plan_build`, `preflight`, `lint`, `run`,
    /// `traced_run` or `callback`.
    pub kind: &'static str,
    /// The run the span belongs to (0 for set-up spans).
    pub run_id: u64,
    /// Backend name, or the workload name for set-up spans.
    pub label: &'static str,
    /// The task, for callback spans.
    pub task: Option<TaskId>,
    /// Start, from [`now_ns`].
    pub start_ns: u64,
    /// End, from [`now_ns`].
    pub end_ns: u64,
}

/// Callback entry and exit stamps of one run, shared by every wrapped
/// callback. The counters publish no other data, so `Relaxed` suffices;
/// the controller's own joins order them before [`Probe::take`].
pub struct Probe {
    first_entry: AtomicU64,
    last_exit: AtomicU64,
    callback_ns: AtomicU64,
    calls: AtomicU64,
    capture: AtomicBool,
    run_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// What the wrapper saw during one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallbackWindow {
    /// Earliest callback entry (`u64::MAX` if no callback ran).
    pub first_entry: u64,
    /// Latest callback exit.
    pub last_exit: u64,
    /// Sum of the time spent inside callbacks.
    pub callback_ns: u64,
    /// Callback invocations.
    pub calls: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            first_entry: AtomicU64::new(u64::MAX),
            last_exit: AtomicU64::new(0),
            callback_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            capture: AtomicBool::new(false),
            run_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Probe {
    /// Start a new run: clear the window, and record one span per
    /// callback invocation if `capture` is set.
    pub fn begin(&self, run_id: u64, capture: bool) {
        self.first_entry.store(u64::MAX, Ordering::Relaxed);
        self.last_exit.store(0, Ordering::Relaxed);
        self.callback_ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.run_id.store(run_id, Ordering::Relaxed);
        self.capture.store(capture, Ordering::Relaxed);
    }

    /// The window of the run since [`begin`](Self::begin).
    pub fn take(&self) -> CallbackWindow {
        self.capture.store(false, Ordering::Relaxed);
        CallbackWindow {
            first_entry: self.first_entry.load(Ordering::Relaxed),
            last_exit: self.last_exit.load(Ordering::Relaxed),
            callback_ns: self.callback_ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    /// Drain the captured callback spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Run `f(inputs, id)` and stamp it.
    pub fn call(
        &self,
        inputs: Vec<Payload>,
        id: TaskId,
        f: impl FnOnce(Vec<Payload>, TaskId) -> Vec<Payload>,
    ) -> Vec<Payload> {
        let start = now_ns();
        let out = f(inputs, id);
        let end = now_ns();
        self.first_entry.fetch_min(start, Ordering::Relaxed);
        self.last_exit.fetch_max(end, Ordering::Relaxed);
        self.callback_ns.fetch_add(end - start, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.capture.load(Ordering::Relaxed) {
            self.spans.lock().expect("span buffer poisoned").push(Span {
                kind: "callback",
                run_id: self.run_id.load(Ordering::Relaxed),
                label: "",
                task: Some(id),
                start_ns: start,
                end_ns: end,
            });
        }
        out
    }
}

/// One run split at the callback window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phases {
    /// `run` call to first callback entry.
    pub startup_ns: u64,
    /// First callback entry to last callback exit.
    pub exec_ns: u64,
    /// Last callback exit to `run` return.
    pub teardown_ns: u64,
}

impl Phases {
    /// Split the run `[start, end]` at `w`. The three parts always add up
    /// to `end - start`; a run without callbacks is all startup.
    pub fn split(start: u64, end: u64, w: &CallbackWindow) -> Phases {
        if w.calls == 0 {
            return Phases {
                startup_ns: end - start,
                exec_ns: 0,
                teardown_ns: 0,
            };
        }
        let first = w.first_entry.clamp(start, end);
        let last = w.last_exit.clamp(first, end);
        Phases {
            startup_ns: first - start,
            exec_ns: last - first,
            teardown_ns: end - last,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_tracks_first_entry_and_last_exit() {
        let p = Probe::default();
        p.begin(7, true);
        let before = now_ns();
        p.call(Vec::new(), TaskId(1), |i, _| i);
        p.call(Vec::new(), TaskId(2), |i, _| i);
        let after = now_ns();
        let w = p.take();
        assert_eq!(w.calls, 2);
        assert!(before <= w.first_entry && w.first_entry <= w.last_exit && w.last_exit <= after);
        assert!(w.callback_ns <= w.last_exit - w.first_entry);
        let spans = p.take_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.run_id == 7 && s.kind == "callback"));
        p.begin(8, false);
        p.call(Vec::new(), TaskId(3), |i, _| i);
        assert!(p.take_spans().is_empty());
    }

    #[test]
    fn phases_add_up_to_the_run() {
        let w = CallbackWindow {
            first_entry: 130,
            last_exit: 170,
            callback_ns: 30,
            calls: 4,
        };
        let ph = Phases::split(100, 200, &w);
        assert_eq!(
            ph,
            Phases {
                startup_ns: 30,
                exec_ns: 40,
                teardown_ns: 30
            }
        );
        let none = Phases::split(100, 200, &CallbackWindow::default());
        assert_eq!(none.startup_ns + none.exec_ns + none.teardown_ns, 100);
    }
}
