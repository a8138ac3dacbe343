//! Pinned configurations, the CLI's program loader, shared checks and
//! the per-run tally every workload fills.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dise_core::affected::DataflowPrecision;
use dise_core::dise::DiseConfig;
use dise_core::session::AnalysisSession;
use dise_ir::Program;
use dise_solver::{Solver, SolverConfig};
use dise_symexec::{
    ConcreteConfig, ConcreteExecutor, ExecConfig, FilterScope, HeuristicChoice, PathOutcome,
    SummaryMode, SweepBudget, SymbolicSummary,
};

use crate::layers::median;

/// Every executor knob spelled out, so no `DISE_*` variable or changed
/// default can alter the measured program. The values are the ones
/// `dise run`, `dise serve` and `dise evolve` use when no flag is given.
pub fn exec_config(jobs: usize, sweep_budget: SweepBudget) -> ExecConfig {
    ExecConfig {
        depth_bound: None,
        unknown_is_sat: false,
        max_states: None,
        record_traces: true,
        record_pruned: false,
        record_tree: false,
        filter_scope: FilterScope::ChoicePoints,
        jobs,
        sweep_budget,
        summaries: SummaryMode::Auto,
        heuristic: HeuristicChoice::Inherit,
        solver: SolverConfig::default(),
        tracer: None,
    }
}

/// A pinned pipeline configuration (see [`exec_config`]).
pub fn dise_config(jobs: usize, sweep_budget: SweepBudget, store: Option<PathBuf>) -> DiseConfig {
    DiseConfig {
        exec: exec_config(jobs, sweep_budget),
        precision: DataflowPrecision::CfgPath,
        trace_affected: false,
        trace_directed: false,
        store,
    }
}

/// The concrete-replay settings of the evolution applications.
pub fn concrete_config() -> ConcreteConfig {
    ConcreteConfig { fuel: 1_000_000 }
}

/// Parse + type-check + non-emptiness, as `dise run` loads a file.
pub fn load(origin: &str, source: &str) -> Result<Program, String> {
    let program = dise_ir::parse_program(source).map_err(|e| format!("{origin}: {e}"))?;
    dise_ir::check_program(&program).map_err(|e| format!("{origin}: {e}"))?;
    if program.procs.is_empty() {
        return Err(format!("{origin}: program declares no procedures"));
    }
    Ok(program)
}

/// Statements across all procedures of `source` (for input reports).
pub fn stmt_count(source: &str) -> usize {
    load("source", source)
        .map(|p| p.procs.iter().map(|proc| proc.body.stmt_count()).sum())
        .unwrap_or(0)
}

/// Ground truth: every CFG node that carries an edited marker lies in
/// ACN ∪ AWN, and every marker maps to at least one node (else the check
/// would hold vacuously).
pub fn check_ground_truth(session: &mut AnalysisSession, markers: &[i64]) -> Result<(), String> {
    let affected = session.affected().map_err(|e| e.to_string())?.clone();
    let cfg = &session.diffed().map_err(|e| e.to_string())?.cfg_mod;
    for &marker in markers {
        let nodes = dise_gen::nodes_with_marker(cfg, marker);
        if nodes.is_empty() {
            return Err(format!(
                "edited marker {marker} has no node in the modified CFG"
            ));
        }
        if let Some(node) = nodes.iter().find(|&&n| !affected.contains(n)) {
            return Err(format!(
                "node {} with edited marker {marker} is outside ACN ∪ AWN",
                node.index()
            ));
        }
    }
    Ok(())
}

/// Model replay: each complete directed path's solver model, run by the
/// concrete executor on the flattened modified program, follows the
/// recorded trace to the recorded outcome. Returns the paths replayed.
pub fn check_replay(
    flat_modified: &Program,
    proc_name: &str,
    summary: &SymbolicSummary,
) -> Result<usize, String> {
    let concrete = ConcreteExecutor::new(flat_modified, proc_name, concrete_config())
        .map_err(|e| e.to_string())?;
    let mut solver = Solver::new();
    let mut replayed = 0;
    for path in summary.paths() {
        let expect_failure = match &path.outcome {
            PathOutcome::Completed => false,
            PathOutcome::Error(_) => true,
            _ => continue,
        };
        let outcome = solver.check(path.pc.conjuncts());
        let model = outcome
            .model()
            .ok_or_else(|| format!("recorded path has no model: {}", path.pc))?;
        let run = concrete.run_with_model(summary.inputs(), model);
        if run.outcome.is_failure() != expect_failure {
            return Err(format!(
                "replay outcome {:?} differs for PC {}",
                run.outcome, path.pc
            ));
        }
        if run.trace != path.trace {
            return Err(format!("replay left the recorded path of PC {}", path.pc));
        }
        replayed += 1;
    }
    Ok(replayed)
}

/// Exact work counts of one serial analysis; they must repeat on every
/// pass over the same pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    pub pipeline_checks: u64,
    pub states: u64,
    pub pcs: u64,
}

impl WorkCounts {
    pub fn of(summary: &SymbolicSummary) -> WorkCounts {
        WorkCounts {
            pipeline_checks: summary.stats().solver.pipeline_checks(),
            states: summary.stats().states_explored,
            pcs: summary.pc_count() as u64,
        }
    }
}

/// Checks answered by the prefix trie (own or shared) per check made.
pub fn trie_hit_ratio(summary: &SymbolicSummary) -> f64 {
    let solver = &summary.stats().solver;
    if solver.checks == 0 {
        return 0.0;
    }
    (solver.prefix_cache_hits + solver.shared_trie_hits) as f64 / solver.checks as f64
}

/// Ops attempted and failed, and whether every check held.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    problems: Vec<String>,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            problems: Vec::new(),
        }
    }

    /// Counts one op: `Ok` passed; an error from the program fails the op;
    /// a failed check also marks the run incorrect.
    pub fn record(&mut self, result: OpResult) {
        self.attempted += 1;
        match result {
            OpResult::Ok => {}
            OpResult::Error(message) => {
                self.failed += 1;
                self.note(format!("op failed: {message}"));
            }
            OpResult::Wrong(message) => {
                self.failed += 1;
                self.correct = false;
                self.note(format!("check failed: {message}"));
            }
        }
    }

    fn note(&mut self, message: String) {
        if self.problems.len() < 8 {
            eprintln!("perfbench: {message}");
            self.problems.push(message);
        }
    }
}

/// How one op ended.
pub enum OpResult {
    Ok,
    /// The program returned an error.
    Error(String),
    /// The program answered, and a correctness check rejected the answer.
    Wrong(String),
}

/// Everything a workload run reports.
pub struct Outcome {
    pub tally: Tally,
    /// Wall time of each op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Sum of the op times of each round (checks between ops excluded).
    pub round_times: Vec<Duration>,
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// One line per input pair, for the self-test and the README.
    pub inputs: Vec<String>,
}

impl Outcome {
    /// Completed ops per round over the median round time: every round
    /// holds the same ops, and the median keeps one disturbed round from
    /// moving the figure.
    pub fn throughput(&self) -> f64 {
        let completed = (self.tally.attempted - self.tally.failed) as f64;
        let per_round = completed / self.round_times.len().max(1) as f64;
        let secs: Vec<f64> = self.round_times.iter().map(Duration::as_secs_f64).collect();
        per_round / median(&secs).max(1e-9)
    }

    pub fn latency_p50(&self) -> f64 {
        median(&self.latencies_ms)
    }

    pub fn measured(&self) -> Duration {
        self.round_times.iter().sum()
    }
}

/// Whether a run has measured enough whole rounds: it stops at the round
/// boundary nearest to `seconds` (after at least one round).
pub fn rounds_done(round_times: &[Duration], seconds: f64) -> bool {
    let measured: f64 = round_times.iter().map(Duration::as_secs_f64).sum();
    let mean = measured / round_times.len().max(1) as f64;
    measured + mean / 2.0 >= seconds
}

/// Runs `setup` `reps` times and returns the last result with each
/// repetition's wall time in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
