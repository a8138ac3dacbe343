//! `run-cold-100x`: one-shot directed analyses of 240-arm pairs, the
//! calls `dise run base mod proc` makes, at jobs 1 with no store.

use std::time::{Duration, Instant};

use dise_core::report::verdict_pc_block;
use dise_core::session::AnalysisSession;
use dise_symexec::SweepBudget;

use crate::common::{
    check_ground_truth, check_replay, dise_config, load, peak_rss_mb, repeat_setup, rounds_done,
    stmt_count, trie_hit_ratio, OpResult, Outcome, Tally, WorkCounts,
};
use crate::inputs::{build_all, callee_specs, Pair};
use crate::layers::{ms, Recorder};

/// Pairs per round: a callee-body edit each, with the four companion
/// kinds in turn (each twice).
const PAIRS: usize = 8;
const SETUP_REPS: usize = 5;

/// What one analysis leaves for the checks made after its timer stops.
struct ColdRun {
    session: AnalysisSession,
    output: String,
}

/// One `dise run`: load both versions, open the session, run the stages
/// in pipeline order, assemble the result, finalize, render the verdict
/// block.
fn analyze(pair: &Pair, rec: &mut Recorder) -> Result<ColdRun, String> {
    let (base, modified) = rec.time("ir.parse_ms", || {
        Ok::<_, String>((
            load("base", &pair.base_src)?,
            load("modified", &pair.mod_src)?,
        ))
    })?;
    let config = dise_config(1, SweepBudget::Auto, None);
    let mut session = rec
        .time("session.open_ms", || {
            AnalysisSession::open(&base, &modified, &pair.proc_name, config)
        })
        .map_err(|e| e.to_string())?;
    rec.time("diff.ms", || session.diffed().map(|_| ()))
        .map_err(|e| e.to_string())?;
    rec.time("affected.ms", || session.affected().map(|_| ()))
        .map_err(|e| e.to_string())?;
    rec.time("explore.ms", || session.explored().map(|_| ()))
        .map_err(|e| e.to_string())?;
    let output = rec
        .time("report.render_ms", || {
            let result = session.result()?;
            session.finalize();
            Ok::<_, dise_core::DiseError>(verdict_pc_block(result.affected_pc_strings()))
        })
        .map_err(|e| e.to_string())?;
    Ok(ColdRun { session, output })
}

/// First pass over a pair: ground truth and model replay. Later passes:
/// the exact work counts and the output repeat.
fn check(
    pair: &Pair,
    run: &mut ColdRun,
    first: &mut Option<(WorkCounts, String)>,
) -> Result<WorkCounts, String> {
    let summary = &run.session.explored().map_err(|e| e.to_string())?.summary;
    let counts = WorkCounts::of(summary);
    match first {
        Some((expected, output)) => {
            if counts != *expected {
                return Err(format!(
                    "{}: work counts {counts:?} differ from the first pass {expected:?}",
                    pair.proc_name
                ));
            }
            if run.output != *output {
                return Err(format!(
                    "{}: verdict block differs from the first pass",
                    pair.proc_name
                ));
            }
        }
        None => {
            let summary = summary.clone();
            check_ground_truth(&mut run.session, &pair.markers)?;
            check_replay(run.session.mod_flat(), &pair.proc_name, &summary)?;
            *first = Some((counts, run.output.clone()));
        }
    }
    Ok(counts)
}

pub fn run(seed: u64, seconds: f64, rec: &mut Recorder) -> Outcome {
    let specs = callee_specs(seed, 0x100, PAIRS, false);
    let (pairs, setup_s) = repeat_setup(SETUP_REPS, || build_all(&specs));
    let mut firsts: Vec<Option<(WorkCounts, String)>> = vec![None; pairs.len()];
    let mut tally = Tally::new();
    let mut latencies_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut round_times = Vec::new();
    loop {
        let round_start = measured;
        for (pair, first) in pairs.iter().zip(firsts.iter_mut()) {
            rec.begin_op("op.run-cold");
            let start = Instant::now();
            let result = analyze(pair, rec);
            let elapsed = start.elapsed();
            rec.end_op();
            measured += elapsed;
            latencies_ms.push(ms(elapsed));
            let op = match result {
                Err(e) => OpResult::Error(e),
                Ok(mut run) => match check(pair, &mut run, first) {
                    Err(e) => OpResult::Wrong(e),
                    Ok(counts) => {
                        let affected = run.session.affected().map(|a| a.len()).unwrap_or(0);
                        let changed = run
                            .session
                            .diffed()
                            .map(|d| d.diff.changed_node_count())
                            .unwrap_or(0);
                        let ratio = run
                            .session
                            .explored()
                            .map(|e| trie_hit_ratio(&e.summary))
                            .unwrap_or(0.0);
                        rec.sample("diff.changed_nodes", changed as f64);
                        rec.sample("affected.nodes", affected as f64);
                        rec.sample("explore.states", counts.states as f64);
                        rec.sample("explore.pcs", counts.pcs as f64);
                        rec.sample("solver.pipeline_checks", counts.pipeline_checks as f64);
                        rec.sample("solver.trie_hit_ratio", ratio);
                        rec.sample("report.output_kb", run.output.len() as f64 / 1024.0);
                        OpResult::Ok
                    }
                },
            };
            tally.record(op);
        }
        round_times.push(measured - round_start);
        if rounds_done(&round_times, seconds) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let inputs = pairs
        .iter()
        .zip(&firsts)
        .map(|(pair, first)| {
            let (counts, output) = first.clone().unwrap_or_default();
            format!(
                "{}: stmts {}+{}, pcs {}, states {}, pipeline checks {}, output {} KB",
                pair.describe(),
                stmt_count(&pair.base_src),
                stmt_count(&pair.mod_src),
                counts.pcs,
                counts.states,
                counts.pipeline_checks,
                output.len() / 1024
            )
        })
        .collect();
    Outcome {
        tally,
        latencies_ms,
        setup_s,
        peak_rss_mb,
        round_times,
        inputs,
    }
}
