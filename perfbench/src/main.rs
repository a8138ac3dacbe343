//! End-to-end benchmark of the DiSE library: cold one-shot `dise run`
//! analyses, a store-warm resident `dise serve`, and jobs-2 `dise evolve`
//! analyses, each on `dise-gen` inputs made from `--seed`.
//!
//! ```text
//! perfbench --workload <run-cold-100x|serve-warm-100x|evolve-30x-jobs2>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before
//! it (`run-info: {…}`) records the seed, cores, load average, toolchain
//! and commit, so disturbed runs can be told apart. See README.md.

mod common;
mod evolve;
mod inputs;
mod layers;
mod run_cold;
mod serve_warm;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::Outcome;
use dise_trace::json::quote;
use layers::{median, Recorder};

const WORKLOADS: [&str; 3] = ["run-cold-100x", "serve-warm-100x", "evolve-30x-jobs2"];

/// Variables the library or the CLI read as defaults; any of them would
/// silently change the measured program.
const PINNED_ENV: [&str; 5] = [
    "DISE_JOBS",
    "DISE_SWEEP_BUDGET",
    "DISE_SUMMARIES",
    "DISE_HEURISTIC",
    "DISE_STORE",
];

/// Per-layer metrics printed by a traced run, with their units. A layer
/// the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("ir.parse_ms", "ms"),
    ("session.open_ms", "ms"),
    ("diff.ms", "ms"),
    ("diff.changed_nodes", "count"),
    ("affected.ms", "ms"),
    ("affected.nodes", "count"),
    ("explore.ms", "ms"),
    ("explore.states", "count"),
    ("explore.pcs", "count"),
    ("solver.pipeline_checks", "count"),
    ("solver.trie_hit_ratio", "ratio"),
    ("report.render_ms", "ms"),
    ("report.output_kb", "KB"),
    ("serve.response_kb", "KB"),
    ("store.finalize_ms", "ms"),
    ("store.entry_kb", "KB"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.explorations", "count"),
    ("serve.key_parse_ms", "ms"),
    ("serve.key_fingerprint_ms", "ms"),
    ("frontier.speculative_states", "count"),
    ("frontier.speculative_solves", "count"),
    ("frontier.consumed_ratio", "ratio"),
    ("full.base_ms", "ms"),
    ("full.modified_ms", "ms"),
    ("summaries.instantiated", "count"),
    ("summaries.fallback_checks", "count"),
    ("evolution.witness_ms", "ms"),
    ("evolution.classify_ms", "ms"),
    ("evolution.localize_ms", "ms"),
    ("evolution.impact_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--self-test"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed expects an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds expects a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    match name {
        "run-cold-100x" => Ok(run_cold::run(seed, seconds, rec)),
        "serve-warm-100x" => serve_warm::run(seed, seconds, work_dir, rec),
        "evolve-30x-jobs2" => evolve::run(seed, seconds, rec),
        _ => unreachable!("workload names are validated"),
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".to_string())
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor took from this machine between two
/// [`cpu_jiffies`] readings, in percent; runs that lost time this way
/// read slower.
fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that is not a repository.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn self_test(work_dir: &Path) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        let mut rec = Recorder::new(true);
        match run_workload(name, 1, 0.0, work_dir, &mut rec) {
            Err(e) => {
                println!("{name}: set-up failed: {e}");
                ok = false;
            }
            Ok(outcome) => {
                let t = &outcome.tally;
                println!(
                    "{name}: {} op(s), {} failed, correct {}, p50 {:.1} ms, setup {:.3} s",
                    t.attempted,
                    t.failed,
                    t.correct,
                    outcome.latency_p50(),
                    median(&outcome.setup_s)
                );
                for line in &outcome.inputs {
                    println!("  {line}");
                }
                ok &= t.correct && t.failed == 0;
            }
        }
    }
    println!("self-test: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|var| std::env::var_os(var).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; unset it so the measured configuration is the pinned one");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let Some(args) = parsed else {
        return self_test(&work_dir);
    };

    let load_start = loadavg();
    let jiffies_start = cpu_jiffies();
    let mut rec = Recorder::new(args.trace);
    let outcome = match run_workload(&args.workload, args.seed, args.seconds, &work_dir, &mut rec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let load_end = loadavg();
    let steal = steal_pct(jiffies_start, cpu_jiffies());
    let tally = &outcome.tally;

    let mut metrics = String::new();
    if args.trace {
        let medians = rec.medians();
        for (name, unit) in PER_LAYER {
            metric(
                &mut metrics,
                name,
                medians.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        let spans = work_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&spans, rec.spans_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    } else {
        metric(&mut metrics, "setup_s", median(&outcome.setup_s), "s");
        metric(
            &mut metrics,
            "throughput_ops_s",
            outcome.throughput(),
            "ops/s",
        );
        metric(&mut metrics, "latency_ms.p50", outcome.latency_p50(), "ms");
        metric(&mut metrics, "peak_rss_mb", outcome.peak_rss_mb, "MB");
    }

    let setup: Vec<String> = outcome.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "run-info: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"rounds\": {}, \"measured_s\": {:.3}, \"setup_s\": [{}], \"logical_cores\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \"cpu_steal_pct\": {:.2}, \"rustc\": {}, \"git_commit\": {}}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        tally.attempted,
        tally.failed,
        outcome.round_times.len(),
        outcome.measured().as_secs_f64(),
        setup.join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(&load_start),
        quote(&load_end),
        steal,
        quote(&rustc_version()),
        quote(&git_commit()),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.correct, tally.attempted, tally.failed
    );
    ExitCode::SUCCESS
}
