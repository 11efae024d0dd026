//! One workload, measured: set-up, a closed-loop timed phase over all six
//! backends, and (with tracing) traced runs and layer microbenchmarks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::{
    canonical_outputs, Bytes, Controller, RunReport, RunStats, ShardPlan, TaskId,
};
use babelflow_trace::{check_coverage_effective, TraceRecorder, TraceSummary};
use babelflow_verify::{check_happens_before, lint_graph};

use crate::backends::{controller, BACKENDS, MPI_BACKENDS};
use crate::probe::{calibration_kernel, now_ns, Phases, Span};
use crate::stats::{median, quartiles, tail};
use crate::workload::Workload;
use crate::{machine, micro};

/// What to measure.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measurement time, excluding set-up.
    pub seconds: f64,
    /// Report per-layer metrics (traced runs and microbenchmarks) instead
    /// of end-to-end ones.
    pub trace: bool,
}

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and spread, for the human-readable line.
    pub note: String,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every run returned `Ok` with the golden output.
    pub correct: bool,
    /// Runs attempted (warm-up, timed, traced and captured).
    pub attempted: u64,
    /// Runs that failed or produced other output.
    pub failed: u64,
    /// End-to-end metrics, in [`end_to_end_spec`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in [`per_layer_spec`] order: all of them with
    /// tracing, and without it those the timed loop alone measures.
    pub per_layer: Vec<Metric>,
    /// Every span the benchmark recorded.
    pub spans: Vec<Span>,
}

/// Backends whose end-to-end figure is plain wall time. Charm's run is
/// bound by its load balancer's 50 ms period, a timer that does not speed
/// up or slow down with the host, so dividing it by the calibration kernel
/// (see [`calibration_kernel`](crate::probe::calibration_kernel)) would
/// only import the host's swings. Every other backend's run scales with
/// the host, and is gated as a multiple of the kernel.
const WALL_CLOCK_GATED: [&str; 1] = ["charm"];

/// The gated and the reported-only form of `b`'s run time.
fn run_forms(b: &str) -> [(String, &'static str); 2] {
    let wall = (format!("{b}.run_ms"), "ms");
    let cal = (format!("{b}.run_cal"), "x");
    if WALL_CLOCK_GATED.contains(&b) {
        [wall, cal]
    } else {
        [cal, wall]
    }
}

/// Names and units of the end-to-end metrics.
pub fn end_to_end_spec() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        BACKENDS.iter().map(|b| run_forms(b)[0].clone()).collect();
    v.push(("setup_s".into(), "s"));
    v.push(("ok_frac".into(), "ratio"));
    v.push(("peak_rss_mb".into(), "MiB"));
    v
}

const PER_BACKEND: [(&str, &str); 14] = [
    ("startup_ms", "ms"),
    ("exec_ms", "ms"),
    ("teardown_ms", "ms"),
    ("exec_ns_per_task", "ns/task"),
    ("callback_ms", "ms"),
    ("run_ms_tail", "ms"),
    ("payload_clones", "count"),
    ("delivery_allocs", "count"),
    ("task_queries", "count"),
    ("local_msgs", "count"),
    ("retries", "count"),
    ("trace_overhead", "ratio"),
    ("queue_wait_ms", "ms"),
    ("utilization", "ratio"),
];

const PER_MPI: [(&str, &str); 7] = [
    ("envelopes", "count"),
    ("batches", "count"),
    ("remote_msgs", "count"),
    ("retransmits", "count"),
    ("dups_suppressed", "count"),
    ("retransmit_ratio", "ratio"),
    ("remote_bytes", "bytes"),
];

const LAYERS: [(&str, &str); 11] = [
    ("plan.build_ms", "ms"),
    ("plan.build_ns_per_task", "ns/task"),
    ("lint.ms", "ms"),
    ("preflight.ms", "ms"),
    ("planbuffer.deliver_ns", "ns"),
    ("invoke.dispatch_ns", "ns"),
    ("reliable.rtt_us", "us"),
    ("channel.hop_ns", "ns"),
    ("codec.encode_ns_per_kib", "ns/KiB"),
    ("codec.decode_ns_per_kib", "ns/KiB"),
    ("trace.record_ns", "ns"),
];

/// Names and units of the per-layer metrics.
pub fn per_layer_spec() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for b in BACKENDS {
        v.push(run_forms(b)[1].clone());
        for (m, u) in PER_BACKEND {
            v.push((format!("{b}.{m}"), u));
        }
    }
    for b in MPI_BACKENDS {
        for (m, u) in PER_MPI {
            v.push((format!("{b}.{m}"), u));
        }
    }
    v.extend(LAYERS.iter().map(|(m, u)| (m.to_string(), *u)));
    v.push(("host.calib_us".into(), "us"));
    v
}

/// One timed run.
struct RunRec {
    /// The calibration kernel, timed just before the run.
    calib_ns: u64,
    run_ns: u64,
    phases: Phases,
    callback_ns: u64,
    stats: RunStats,
}

/// One traced run.
struct TracedRec {
    run_ns: u64,
    queue_wait_ns: u64,
    utilization: f64,
}

/// Share of the time that goes to the timed loop when tracing; the rest
/// is split between traced runs and the layer microbenchmarks.
const TRACE_TIMED_SHARE: f64 = 0.6;
const TRACE_TRACED_SHARE: f64 = 0.25;
/// Share of `--seconds` spent warming up before the timed loop (not part
/// of the measured time).
const WARMUP_SHARE: f64 = 0.1;
/// Plan builds per round of the timed loop: set-up is sampled across the
/// whole run, so a slow phase of the host weighs on it as on the runs.
const BUILDS_PER_ROUND: usize = 3;

struct Run<'a> {
    wl: &'a Workload,
    golden: BTreeMap<TaskId, Vec<Bytes>>,
    attempted: u64,
    failed: u64,
    next_run_id: u64,
    spans: Vec<Span>,
}

impl<'a> Run<'a> {
    /// Compute the serial golden output of `wl` once, to check every run.
    fn new(wl: &'a Workload) -> Result<Self, String> {
        let report = babelflow_core::SerialController::new()
            .run(&*wl.graph, &wl.map, &wl.registry, wl.inputs.clone())
            .map_err(|e| format!("serial golden run failed: {e}"))?;
        let golden = canonical_outputs(&report);
        Ok(Run {
            wl,
            golden,
            attempted: 0,
            failed: 0,
            next_run_id: 0,
            spans: Vec::new(),
        })
    }

    /// Why `result` is wrong, if it is: an error, a task count other than
    /// the graph's size, or outputs that differ from the serial golden.
    fn verdict(&self, result: &babelflow_core::Result<RunReport>) -> Option<String> {
        let size = self.wl.graph.size() as u64;
        match result {
            Err(e) => Some(format!("error: {e}")),
            Ok(r) if r.stats.tasks_executed != size => Some(format!(
                "executed {} of {size} tasks",
                r.stats.tasks_executed
            )),
            Ok(r) if canonical_outputs(r) != self.golden => {
                Some("outputs differ from the serial golden".into())
            }
            Ok(_) => None,
        }
    }

    /// Count one attempted run, failed if it has a `problem`.
    fn count(&mut self, label: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: {} {label}: {p}", self.wl.name);
        }
    }

    /// One untraced run of `ctl`, timed and split at the callback window.
    fn timed(&mut self, name: &'static str, ctl: &mut dyn Controller, capture: bool) -> RunRec {
        let wl = self.wl;
        let inputs = wl.inputs.clone();
        self.next_run_id += 1;
        let id = self.next_run_id;
        let c0 = now_ns();
        std::hint::black_box(calibration_kernel());
        let c1 = now_ns();
        self.spans.push(span("calib", id, name, c0, c1));
        wl.probe.begin(id, capture);
        let start = now_ns();
        let result = ctl.run(&*wl.graph, &wl.map, &wl.registry, inputs);
        let end = now_ns();
        let window = wl.probe.take();
        self.spans.push(span("run", id, name, start, end));
        self.count(name, self.verdict(&result));
        RunRec {
            calib_ns: c1 - c0,
            run_ns: end - start,
            phases: Phases::split(start, end, &window),
            callback_ns: window.callback_ns,
            stats: result.map(|r| r.stats).unwrap_or_default(),
        }
    }

    /// One traced run, checked for coverage and happens-before order.
    fn traced(
        &mut self,
        name: &'static str,
        ctl: &mut dyn Controller,
        plan: &ShardPlan,
    ) -> TracedRec {
        let wl = self.wl;
        let inputs = wl.inputs.clone();
        let rec = Arc::new(TraceRecorder::new());
        self.next_run_id += 1;
        let id = self.next_run_id;
        wl.probe.begin(id, false);
        let start = now_ns();
        let result = ctl.run_traced(&*wl.graph, &wl.map, &wl.registry, inputs, rec.clone());
        let end = now_ns();
        wl.probe.take();
        self.spans.push(span("traced_run", id, name, start, end));
        let trace = rec.take();
        let hb = check_happens_before(&trace, plan);
        let problem = self
            .verdict(&result)
            .or_else(|| {
                check_coverage_effective(&trace, &*wl.graph)
                    .err()
                    .map(|e| format!("coverage: {e:?}"))
            })
            .or_else(|| (!hb.is_clean()).then(|| format!("happens-before: {:?}", hb.violations())));
        self.count(name, problem);
        let summary = TraceSummary::from_trace(&trace);
        let ranks = summary.ranks.len().max(1) as f64;
        TracedRec {
            run_ns: end - start,
            queue_wait_ns: summary.ranks.iter().map(|r| r.wait_ns).sum(),
            utilization: summary.ranks.iter().map(|r| r.utilization).sum::<f64>() / ranks,
        }
    }
}

fn span(kind: &'static str, run_id: u64, label: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        kind,
        run_id,
        label,
        task: None,
        start_ns,
        end_ns,
    }
}

/// Set-up samples: `ShardPlan::build`, its `preflight`, and (optionally)
/// `lint_graph`, each in ns.
#[derive(Default)]
struct Setup {
    build: Vec<f64>,
    preflight: Vec<f64>,
    lint: Vec<f64>,
}

impl Setup {
    fn sample(
        &mut self,
        wl: &Workload,
        lint: bool,
        spans: &mut Vec<Span>,
    ) -> Result<ShardPlan, String> {
        let t0 = now_ns();
        let plan = ShardPlan::build(&*wl.graph, &wl.map);
        let t1 = now_ns();
        let pre = plan.preflight(&wl.registry, &wl.inputs);
        let t2 = now_ns();
        pre.map_err(|e| format!("preflight failed: {e}"))?;
        spans.push(span("plan_build", 0, wl.name, t0, t1));
        spans.push(span("preflight", 0, wl.name, t1, t2));
        self.build.push((t1 - t0) as f64);
        self.preflight.push((t2 - t1) as f64);
        if lint {
            let t3 = now_ns();
            let report = lint_graph(&*wl.graph, &wl.map);
            let t4 = now_ns();
            if report.has_errors() {
                return Err(format!("lint found errors:\n{report}"));
            }
            spans.push(span("lint", 0, wl.name, t3, t4));
            self.lint.push((t4 - t3) as f64);
        }
        Ok(plan)
    }
}

/// Measure one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let wl = Workload::new(&cfg.workload, cfg.seed)
        .ok_or_else(|| format!("unknown workload '{}'", cfg.workload))?;
    let tasks = wl.graph.size() as f64;
    let mut run = Run::new(&wl)?;
    let mut setup = Setup::default();
    let plan = Arc::new(setup.sample(&wl, cfg.trace, &mut run.spans)?);
    let mut ctls: Vec<Box<dyn Controller>> = BACKENDS
        .iter()
        .map(|b| controller(b, plan.clone()))
        .collect();

    // Warm-up rounds until the allocator's heap and the threads' stacks have
    // grown to their steady size: the first rounds of `fat-payload` run up
    // to four times slower than the rest.
    let warm = Instant::now();
    let mut warm_rounds = 0;
    while warm_rounds < 3 || warm.elapsed().as_secs_f64() < cfg.seconds * WARMUP_SHARE {
        for (name, ctl) in BACKENDS.iter().zip(&mut ctls) {
            run.timed(name, ctl.as_mut(), false);
        }
        warm_rounds += 1;
    }

    // Closed loop: one caller, the next run starts when the last returns.
    // Backends take turns within each round, so a slow phase of the host
    // lands on all six alike; plan builds are spread over the same rounds.
    let budget = cfg.seconds * if cfg.trace { TRACE_TIMED_SHARE } else { 1.0 };
    let mut recs: Vec<Vec<RunRec>> = BACKENDS.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut round_peaks = Vec::new();
    let mut per_round_peaks = true;
    while recs[0].len() < 3 || start.elapsed().as_secs_f64() < budget {
        per_round_peaks &= machine::reset_peak_rss();
        for _ in 0..BUILDS_PER_ROUND {
            drop(setup.sample(&wl, cfg.trace, &mut run.spans)?);
        }
        for (i, name) in BACKENDS.iter().enumerate() {
            recs[i].push(run.timed(name, ctls[i].as_mut(), false));
        }
        round_peaks.extend(machine::peak_rss_mb());
    }

    let mut all = HashMap::<String, Metric>::new();
    let mut put = |name: String, value: f64, unit: &'static str, note: String| {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        let m = Metric {
            name: name.clone(),
            value,
            unit,
            note,
        };
        assert!(all.insert(name, m).is_none(), "metric reported twice");
    };
    // The host's speed in each round: the median of the kernel timings
    // taken before each of its runs.
    let rounds = recs[0].len();
    let calib: Vec<f64> = (0..rounds)
        .map(|k| {
            median(
                &recs
                    .iter()
                    .map(|r| r[k].calib_ns as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    put(
        "host.calib_us".into(),
        median(&calib) / 1e3,
        "us",
        format!("median over n={rounds} rounds of the calibration kernel"),
    );
    let setup_ns: Vec<f64> = setup
        .build
        .iter()
        .zip(&setup.preflight)
        .map(|(b, p)| b + p)
        .collect();

    for (i, b) in BACKENDS.iter().enumerate() {
        let r = &recs[i];
        let n = r.len();
        let ms = |f: &dyn Fn(&RunRec) -> u64| -> Vec<f64> {
            r.iter().map(|x| f(x) as f64 / 1e6).collect()
        };
        let run_ms = ms(&|x| x.run_ns);
        let [q1, q2, q3] = quartiles(&run_ms);
        let t = tail(&run_ms);
        put(
            format!("{b}.run_ms"),
            q2,
            "ms",
            format!("median of n={n}, quartiles {q1:.4}..{q3:.4}"),
        );
        let cal: Vec<f64> = r
            .iter()
            .zip(&calib)
            .map(|(x, c)| x.run_ns as f64 / c)
            .collect();
        let [c1, c2, c3] = quartiles(&cal);
        put(
            format!("{b}.run_cal"),
            c2,
            "x",
            format!(
                "median of n={n} run / same-round calibration kernel, quartiles {c1:.4}..{c3:.4}"
            ),
        );
        // The phase split of the typical run: means over the runs whose
        // wall time lies between the quartiles. Phases are not additive
        // under the median (MPI's teardown is bimodal, for one), but these
        // means add up to a run time that lies between the quartiles.
        let typical: Vec<&RunRec> = r
            .iter()
            .filter(|x| (q1..=q3).contains(&(x.run_ns as f64 / 1e6)))
            .collect();
        let mean_ms = |f: &dyn Fn(&RunRec) -> u64| {
            typical.iter().map(|x| f(x) as f64 / 1e6).sum::<f64>() / typical.len() as f64
        };
        let startup = mean_ms(&|x| x.phases.startup_ns);
        let exec = mean_ms(&|x| x.phases.exec_ns);
        let teardown = mean_ms(&|x| x.phases.teardown_ns);
        let phase_note = format!(
            "mean of the n={} runs within the run_ms quartiles",
            typical.len()
        );
        put(format!("{b}.startup_ms"), startup, "ms", phase_note.clone());
        put(format!("{b}.exec_ms"), exec, "ms", phase_note.clone());
        put(
            format!("{b}.teardown_ms"),
            teardown,
            "ms",
            phase_note.clone(),
        );
        put(
            format!("{b}.exec_ns_per_task"),
            exec * 1e6 / tasks,
            "ns/task",
            phase_note,
        );
        let note = format!("median of n={n}");
        put(
            format!("{b}.callback_ms"),
            median(&ms(&|x| x.callback_ns)),
            "ms",
            note.clone(),
        );
        put(
            format!("{b}.run_ms_tail"),
            t.value,
            "ms",
            format!("p{:.1} of n={}, {} samples beyond", t.pct, t.n, t.beyond),
        );
        let count = |f: &dyn Fn(&RunStats) -> u64| {
            median(&r.iter().map(|x| f(&x.stats) as f64).collect::<Vec<_>>())
        };
        put(
            format!("{b}.payload_clones"),
            count(&|s| s.perf.payload_clones),
            "count",
            note.clone(),
        );
        put(
            format!("{b}.delivery_allocs"),
            count(&|s| s.perf.delivery_allocs),
            "count",
            note.clone(),
        );
        put(
            format!("{b}.task_queries"),
            count(&|s| s.perf.task_queries),
            "count",
            note.clone(),
        );
        put(
            format!("{b}.local_msgs"),
            count(&|s| s.local_messages),
            "count",
            note.clone(),
        );
        put(
            format!("{b}.retries"),
            count(&|s| s.recovery.retries),
            "count",
            note.clone(),
        );
        if MPI_BACKENDS.contains(b) {
            let sum =
                |f: &dyn Fn(&RunStats) -> u64| r.iter().map(|x| f(&x.stats)).sum::<u64>() as f64;
            put(
                format!("{b}.envelopes"),
                count(&|s| s.perf.envelopes_sent),
                "count",
                note.clone(),
            );
            put(
                format!("{b}.batches"),
                count(&|s| s.perf.batches_sent),
                "count",
                note.clone(),
            );
            put(
                format!("{b}.remote_msgs"),
                count(&|s| s.remote_messages),
                "count",
                note.clone(),
            );
            put(
                format!("{b}.retransmits"),
                count(&|s| s.recovery.retransmits),
                "count",
                note.clone(),
            );
            put(
                format!("{b}.dups_suppressed"),
                count(&|s| s.recovery.duplicates_suppressed),
                "count",
                note.clone(),
            );
            put(
                format!("{b}.retransmit_ratio"),
                sum(&|s| s.recovery.retransmits) / sum(&|s| s.perf.envelopes_sent).max(1.0),
                "ratio",
                format!("retransmits / envelopes over n={n}"),
            );
            put(
                format!("{b}.remote_bytes"),
                count(&|s| s.remote_bytes),
                "bytes",
                note.clone(),
            );
        }
        let sum = startup + exec + teardown;
        println!(
            "phases {} {b}: startup {startup:.4} + exec {exec:.4} + teardown {teardown:.4} = {sum:.4} ms \
             against run_ms {q2:.4}, quartiles {q1:.4}..{q3:.4}: {}",
            wl.name,
            if (q1..=q3).contains(&sum) { "within" } else { "OUTSIDE" }
        );
    }
    let n = setup_ns.len();
    put(
        "setup_s".into(),
        median(&setup_ns) / 1e9,
        "s",
        format!("median of n={n} plan build + preflight"),
    );

    if cfg.trace {
        // Traced runs, round-robin like the timed loop.
        let traced_budget = cfg.seconds * TRACE_TRACED_SHARE;
        let mut traced: Vec<Vec<TracedRec>> = BACKENDS.iter().map(|_| Vec::new()).collect();
        let start = Instant::now();
        while traced[0].len() < 3 || start.elapsed().as_secs_f64() < traced_budget {
            for (i, name) in BACKENDS.iter().enumerate() {
                traced[i].push(run.traced(name, ctls[i].as_mut(), &plan));
            }
        }
        // One untraced run per backend with every callback span kept.
        for (name, ctl) in BACKENDS.iter().zip(&mut ctls) {
            run.timed(name, ctl.as_mut(), true);
            let spans = wl.probe.take_spans();
            run.spans.extend(spans);
        }
        for (i, b) in BACKENDS.iter().enumerate() {
            let t = &traced[i];
            let n = t.len();
            let note = format!("median of n={n} traced runs");
            let traced_ms = median(&t.iter().map(|x| x.run_ns as f64 / 1e6).collect::<Vec<_>>());
            let untraced_ms = median(
                &recs[i]
                    .iter()
                    .map(|x| x.run_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            );
            put(
                format!("{b}.trace_overhead"),
                traced_ms / untraced_ms,
                "ratio",
                format!("traced {traced_ms:.4} ms (n={n}) / untraced {untraced_ms:.4} ms"),
            );
            put(
                format!("{b}.queue_wait_ms"),
                median(
                    &t.iter()
                        .map(|x| x.queue_wait_ns as f64 / 1e6)
                        .collect::<Vec<_>>(),
                ),
                "ms",
                note.clone(),
            );
            put(
                format!("{b}.utilization"),
                median(&t.iter().map(|x| x.utilization).collect::<Vec<_>>()),
                "ratio",
                note,
            );
        }

        let n = setup.build.len();
        let note = format!("median of n={n}");
        let build = median(&setup.build);
        put("plan.build_ms".into(), build / 1e6, "ms", note.clone());
        put(
            "plan.build_ns_per_task".into(),
            build / tasks,
            "ns/task",
            note.clone(),
        );
        put(
            "preflight.ms".into(),
            median(&setup.preflight) / 1e6,
            "ms",
            note.clone(),
        );
        put(
            "lint.ms".into(),
            median(&setup.lint) / 1e6,
            "ms",
            format!("median of n={}", setup.lint.len()),
        );

        let micro_budget = cfg.seconds * (1.0 - TRACE_TIMED_SHARE - TRACE_TRACED_SHARE);
        let layers = micro::measure(
            &plan,
            &wl.sample_payload(),
            Duration::from_secs_f64(micro_budget),
        );
        let bytes = wl.payload_bytes;
        let note = format!("median over batches, {bytes} B payload");
        put(
            "planbuffer.deliver_ns".into(),
            layers.deliver_ns,
            "ns",
            note.clone(),
        );
        put(
            "invoke.dispatch_ns".into(),
            layers.dispatch_ns,
            "ns",
            note.clone(),
        );
        put("reliable.rtt_us".into(), layers.rtt_us, "us", note.clone());
        put("channel.hop_ns".into(), layers.hop_ns, "ns", note.clone());
        put(
            "codec.encode_ns_per_kib".into(),
            layers.encode_ns_per_kib,
            "ns/KiB",
            note.clone(),
        );
        put(
            "codec.decode_ns_per_kib".into(),
            layers.decode_ns_per_kib,
            "ns/KiB",
            note.clone(),
        );
        put("trace.record_ns".into(), layers.record_ns, "ns", note);
    }

    let ok = if run.attempted == 0 {
        0.0
    } else {
        (run.attempted - run.failed) as f64 / run.attempted as f64
    };
    put(
        "ok_frac".into(),
        ok,
        "ratio",
        format!(
            "{} of {} runs correct",
            run.attempted - run.failed,
            run.attempted
        ),
    );
    // The peak of each round, reset in between where the kernel allows:
    // the maximum over a whole process is one extreme sample and varied by
    // a third between launches on `fat-payload`.
    let (rss, note) = if per_round_peaks && !round_peaks.is_empty() {
        (
            median(&round_peaks),
            format!(
                "median over n={} rounds of the round's VmHWM",
                round_peaks.len()
            ),
        )
    } else {
        let hwm = machine::peak_rss_mb().ok_or("cannot read peak resident memory")?;
        (hwm, "VmHWM of this process".to_string())
    };
    put("peak_rss_mb".into(), rss, "MiB", note);
    // Report in spec order, so every listed name is printed exactly once.
    let end_to_end = end_to_end_spec()
        .into_iter()
        .map(|(n, _)| {
            all.remove(&n)
                .unwrap_or_else(|| panic!("end-to-end metric {n} missing"))
        })
        .collect();
    let per_layer = per_layer_spec()
        .into_iter()
        .filter_map(|(n, _)| all.remove(&n))
        .collect();
    Ok(Outcome {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        end_to_end,
        per_layer,
        spans: run.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_of_one_run_add_up_to_its_wall_time() {
        let wl = Workload::new("step-1k", 3).expect("known workload");
        let mut run = Run::new(&wl).expect("golden run");
        let plan = Arc::new(ShardPlan::build(&*wl.graph, &wl.map));
        for b in BACKENDS {
            let rec = run.timed(b, controller(b, plan.clone()).as_mut(), false);
            let p = rec.phases;
            assert_eq!(p.startup_ns + p.exec_ns + p.teardown_ns, rec.run_ns, "{b}");
            assert!(p.exec_ns > 0 && rec.callback_ns > 0, "{b}");
            assert_eq!(rec.stats.tasks_executed, 1365, "{b}");
        }
        assert_eq!((run.attempted, run.failed), (6, 0));
    }
}
