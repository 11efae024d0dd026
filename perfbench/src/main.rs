//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one human-readable line per metric (with unit and sample count)
//! and, last, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits 1 if any run was wrong. `--workload all` runs each workload in a
//! child process of its own, one after the other.

use std::io::Write;
use std::process::{Command, ExitCode};

use babelflow_perfbench::bench::{self, Config, Metric};
use babelflow_perfbench::probe::Span;
use babelflow_perfbench::{machine, workload::WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    println!("machine {}", machine::describe());
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
    };
    let outcome = match bench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!(
            "metric {} {} = {} {} ({})",
            cfg.workload, m.name, m.value, m.unit, m.note
        );
    }
    match write_spans(&cfg, &outcome.spans) {
        Ok(path) => println!("spans {} written to {path}", outcome.spans.len()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    let reported = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        result_json(outcome.correct, outcome.attempted, outcome.failed, reported)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each workload in its own process, one after the other.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("flag present")
            + 1;
        child_args[at] = w.to_string();
        let status = Command::new(&exe).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Write the recorded spans as JSON lines next to the executable, under
/// the build directory.
fn write_spans(cfg: &Config, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::env::current_exe()?
        .parent()
        .map(|p| p.join("perfbench-spans"))
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?;
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.jsonl",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "{{\"machine\": {:?}}}", machine::describe())?;
    for s in spans {
        let task = s.task.map_or("null".to_string(), |t| t.0.to_string());
        writeln!(
            out,
            "{{\"kind\": \"{}\", \"run\": {}, \"label\": \"{}\", \"task\": {task}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.kind, s.run_id, s.label, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}
