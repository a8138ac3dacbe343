//! `evolve-30x-jobs2`: `dise evolve` (witnesses, differential summary,
//! localization, impact report off one session) plus the full baseline
//! of the modified version that `dise run --full` adds, on 72-arm pairs
//! at jobs 2 with the default `auto` sweep.

use std::time::{Duration, Instant};

use dise_core::report::verdict_pc_block;
use dise_core::session::AnalysisSession;
use dise_evolution::diffsum::{DiffSumConfig, DiffSummary, PathClass};
use dise_evolution::localize::{Formula, LocalizeConfig};
use dise_evolution::report::ImpactConfig;
use dise_evolution::witness::{Divergence, WitnessConfig, WitnessReport};
use dise_gen::EditKind;
use dise_symexec::{ConcreteExecutor, SweepBudget};

use crate::common::{
    concrete_config, dise_config, load, peak_rss_mb, repeat_setup, rounds_done, stmt_count,
    trie_hit_ratio, OpResult, Outcome, Tally,
};
use crate::inputs::{build_all, find_spec, mix, Pair, PairSpec, ARMS_30X};
use crate::layers::{ms, Recorder};

/// Single-edit pairs, [`PAIRS_PER_KIND`] per kind; a dead-branch-only pair
/// must show no diverging witness.
const KINDS: [EditKind; 5] = [
    EditKind::DeadBranchInsert,
    EditKind::GuardStrengthen,
    EditKind::GuardWeaken,
    EditKind::EffectRewrite,
    EditKind::CalleeBodyEdit,
];
const PAIRS_PER_KIND: usize = 2;
const JOBS: usize = 2;
const SETUP_REPS: usize = 5;

/// What one evolve op leaves for the checks made after its timer stops.
struct EvolveRun {
    session: AnalysisSession,
    witnesses: WitnessReport,
    diffsum: DiffSummary,
    output: String,
}

fn specs(seed: u64) -> Vec<PairSpec> {
    (0..KINDS.len() * PAIRS_PER_KIND)
        .map(|k| {
            find_spec(
                mix(seed, 0x300 + k as u64),
                ARMS_30X,
                &[KINDS[k % KINDS.len()]],
                dise_gen::PROC_NAME,
            )
        })
        .collect()
}

/// The four applications in `dise evolve` order, each rendered as
/// `dise evolve` prints it, then the modified version's full exploration
/// and its verdict block as `dise run --full` prints them.
fn evolve(pair: &Pair, jobs: usize, rec: &mut Recorder) -> Result<EvolveRun, String> {
    let (base, modified) = rec.time("ir.parse_ms", || {
        Ok::<_, String>((
            load("base", &pair.base_src)?,
            load("modified", &pair.mod_src)?,
        ))
    })?;
    let config = dise_config(jobs, SweepBudget::Auto, None);
    let mut session = rec
        .time("session.open_ms", || {
            AnalysisSession::open(&base, &modified, &pair.proc_name, config.clone())
        })
        .map_err(|e| e.to_string())?;
    rec.time("diff.ms", || session.diffed().map(|_| ()))
        .map_err(|e| e.to_string())?;
    rec.time("affected.ms", || session.affected().map(|_| ()))
        .map_err(|e| e.to_string())?;
    rec.time("explore.ms", || session.explored().map(|_| ()))
        .map_err(|e| e.to_string())?;
    let concrete = concrete_config();
    let (witnesses, mut output) = rec
        .time("evolution.witness_ms", || {
            let config = WitnessConfig {
                dise: config.clone(),
                concrete,
                max_paths: None,
            };
            dise_evolution::witness::find_witnesses_with(&mut session, &config).map(|report| {
                let text = dise_evolution::witness::render_report(&report);
                (report, text)
            })
        })
        .map_err(|e| e.to_string())?;
    let diffsum = rec
        .time("evolution.classify_ms", || {
            let config = DiffSumConfig {
                dise: config.clone(),
                concrete,
                solver: dise_solver::SolverConfig::default(),
                max_paths: None,
            };
            dise_evolution::diffsum::classify_changes_with(&mut session, &config)
        })
        .map_err(|e| e.to_string())?;
    output.push_str(&diffsum.render());
    rec.time("full.base_ms", || session.base_full().map(|_| ()))
        .map_err(|e| e.to_string())?;
    let localization = rec
        .time("evolution.localize_ms", || {
            let config = LocalizeConfig {
                dise: config.clone(),
                concrete,
                formula: Formula::Ochiai,
            };
            dise_evolution::localize::localize_change_with(&mut session, &config)
                .map(|l| dise_evolution::localize::render_localization(&l))
        })
        .map_err(|e| e.to_string())?;
    output.push_str(&localization);
    let report = rec
        .time("evolution.impact_ms", || {
            let config = ImpactConfig {
                dise: config.clone(),
                concrete,
                max_pcs: 20,
                max_witnesses: 10,
            };
            dise_evolution::report::impact_report_with(&mut session, &config)
        })
        .map_err(|e| e.to_string())?;
    output.push_str(&report);
    let full = rec
        .time("full.modified_ms", || {
            session
                .modified_full()
                .map(|full| verdict_pc_block(full.path_conditions()))
        })
        .map_err(|e| e.to_string())?;
    output.push_str(&full);
    session.finalize();
    Ok(EvolveRun {
        session,
        witnesses,
        diffsum,
        output,
    })
}

/// Semantic checks of one evolve answer, replayed concretely on the
/// flattened versions: every diverging witness reproduces its claimed
/// divergence, no effect-preserving path has a diverging input, and a
/// dead-branch-only pair has no diverging witness at all.
fn check_semantics(pair: &Pair, run: &EvolveRun) -> Result<(), String> {
    let name = &pair.proc_name;
    if pair.dead_branch_only() && run.witnesses.diverging_count() != 0 {
        return Err(format!(
            "dead-branch-only pair has {} diverging witness(es)",
            run.witnesses.diverging_count()
        ));
    }
    let base = ConcreteExecutor::new(run.session.base_flat(), name, concrete_config())
        .map_err(|e| e.to_string())?;
    let modified = ConcreteExecutor::new(run.session.mod_flat(), name, concrete_config())
        .map_err(|e| e.to_string())?;
    for witness in &run.witnesses.witnesses {
        let b = base.run(&witness.input);
        let m = modified.run(&witness.input);
        let holds = match &witness.divergence {
            Divergence::Outcome { base, modified } => b.outcome == *base && m.outcome == *modified,
            Divergence::Effect(diffs) => diffs
                .iter()
                .all(|d| b.value(&d.var) == Some(d.base) && m.value(&d.var) == Some(d.modified)),
            Divergence::None => b.outcome == m.outcome,
        };
        if !holds {
            return Err(format!("witness for PC {} does not replay", witness.pc));
        }
    }
    let globals: Vec<&str> = run
        .session
        .base_flat()
        .globals
        .iter()
        .map(|g| g.name.as_str())
        .filter(|g| run.session.mod_flat().globals.iter().any(|m| m.name == *g))
        .collect();
    for path in &run.diffsum.paths {
        if path.class == PathClass::EffectPreserving {
            let b = base.run(&path.input);
            let m = modified.run(&path.input);
            if b.outcome != m.outcome || globals.iter().any(|g| b.value(g) != m.value(g)) {
                return Err(format!("preserving path {} diverges concretely", path.pc));
            }
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, rec: &mut Recorder) -> Result<Outcome, String> {
    let specs = specs(seed);
    let (pairs, setup_s) = repeat_setup(SETUP_REPS, || build_all(&specs));
    // References: each pair at jobs 1, outside the timed loop and the trace.
    let mut untraced = Recorder::new(false);
    let mut expected = Vec::new();
    let mut pc_counts = Vec::new();
    for pair in &pairs {
        let mut run = evolve(pair, 1, &mut untraced)?;
        let directed = run.session.explored().map_or(0, |e| e.summary.pc_count());
        let full = run.session.modified_full().map_or(0, |f| f.pc_count());
        pc_counts.push((directed, full));
        expected.push(run.output);
    }
    let mut checked = vec![false; pairs.len()];
    let mut tally = Tally::new();
    let mut latencies_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut round_times = Vec::new();
    loop {
        let round_start = measured;
        for (p, pair) in pairs.iter().enumerate() {
            rec.begin_op("op.evolve");
            let start = Instant::now();
            let result = evolve(pair, JOBS, rec);
            let elapsed = start.elapsed();
            rec.end_op();
            measured += elapsed;
            latencies_ms.push(ms(elapsed));
            let op = match result {
                Err(e) => OpResult::Error(format!("{}: {e}", pair.kinds_tag())),
                Ok(run) if run.output != expected[p] => OpResult::Wrong(format!(
                    "{}: jobs {JOBS} output differs from jobs 1",
                    pair.kinds_tag()
                )),
                Ok(mut run) => {
                    let semantics = if checked[p] {
                        Ok(())
                    } else {
                        checked[p] = true;
                        check_semantics(pair, &run)
                    };
                    match semantics {
                        Err(e) => OpResult::Wrong(format!("{}: {e}", pair.kinds_tag())),
                        Ok(()) => {
                            sample_layers(&mut run, rec);
                            OpResult::Ok
                        }
                    }
                }
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
        .zip(expected.iter().zip(&pc_counts))
        .map(|(pair, (output, (directed, full)))| {
            format!(
                "{}: stmts {}+{}, directed pcs {directed}, full pcs {full}, output {} KB",
                pair.describe(),
                stmt_count(&pair.base_src),
                stmt_count(&pair.mod_src),
                output.len() / 1024
            )
        })
        .collect();
    Ok(Outcome {
        tally,
        latencies_ms,
        setup_s,
        peak_rss_mb,
        round_times,
        inputs,
    })
}

/// Per-layer counts of one evolve op (traced runs only).
fn sample_layers(run: &mut EvolveRun, rec: &mut Recorder) {
    if !rec.traced() {
        return;
    }
    let session = &mut run.session;
    if let Ok(d) = session.diffed() {
        rec.sample("diff.changed_nodes", d.diff.changed_node_count() as f64);
    }
    if let Ok(a) = session.affected() {
        rec.sample("affected.nodes", a.len() as f64);
    }
    if let Ok(explored) = session.explored() {
        let stats = explored.summary.stats();
        let frontier = &stats.frontier;
        rec.sample("explore.states", stats.states_explored as f64);
        rec.sample("explore.pcs", explored.summary.pc_count() as f64);
        rec.sample(
            "solver.pipeline_checks",
            stats.solver.pipeline_checks() as f64,
        );
        rec.sample("solver.trie_hit_ratio", trie_hit_ratio(&explored.summary));
        rec.sample(
            "frontier.speculative_states",
            frontier.speculative_states as f64,
        );
        rec.sample(
            "frontier.speculative_solves",
            frontier.speculative_solves as f64,
        );
        let consumed = if frontier.speculative_solves == 0 {
            0.0
        } else {
            frontier.trie_answers_consumed as f64 / frontier.speculative_solves as f64
        };
        rec.sample("frontier.consumed_ratio", consumed);
    }
    if let Ok(full) = session.modified_full() {
        let summary = &full.stats().summary;
        rec.sample("summaries.instantiated", summary.paths_instantiated as f64);
        rec.sample("summaries.fallback_checks", summary.fallback_checks as f64);
    }
    rec.sample("report.output_kb", run.output.len() as f64 / 1024.0);
}
