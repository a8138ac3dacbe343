//! `serve-warm-100x`: an in-process `dise_serve::Server` (jobs 1, store
//! populated during set-up) answering one closed-loop client. Each round
//! starts a fresh server on the same store and sends every pair
//! [`REPEATS`] times in a seeded order: a pair's first request is a
//! store-warm miss, the others are session-cache hits.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dise_core::dise::run_dise;
use dise_core::report::verdict_pc_block;
use dise_core::session::AnalysisSession;
use dise_serve::{MetricsSnapshot, ServeConfig, Server};
use dise_symexec::SweepBudget;
use dise_trace::json::{parse, quote};

use crate::common::{
    dise_config, load, peak_rss_mb, repeat_setup, rounds_done, stmt_count, OpResult, Outcome, Tally,
};
use crate::inputs::{build_all, callee_specs, mix, Pair};
use crate::layers::{ms, Recorder};

const PAIRS: usize = 3;
/// Requests per pair per round: one miss, the rest hits.
const REPEATS: usize = 8;
const SETUP_REPS: usize = 3;
/// Session-cache budget, far above the round's working set (~1 MB a pair).
const CACHE_BYTES: usize = 64 << 20;

fn serve_config(store: &Path) -> ServeConfig {
    ServeConfig {
        jobs: 1,
        pool: 1,
        cache_bytes: CACHE_BYTES,
        store: Some(store.to_path_buf()),
        trace_dir: None,
    }
}

/// Populates the store the way a server miss does (jobs 1, sweep off)
/// and starts the server. Returns the finalize times and the stored
/// bytes per pair.
fn populate(pairs: &[Pair], store: &Path) -> Result<(Server, Vec<f64>, f64), String> {
    let mut finalize_ms = Vec::new();
    for pair in pairs {
        let base = load("base", &pair.base_src)?;
        let modified = load("modified", &pair.mod_src)?;
        let config = dise_config(1, SweepBudget::Tokens(0), Some(store.to_path_buf()));
        let mut session = AnalysisSession::open(&base, &modified, &pair.proc_name, config)
            .map_err(|e| e.to_string())?;
        session.result().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let saved = session.finalize().is_some_and(|status| status.saved);
        finalize_ms.push(ms(start.elapsed()));
        if !saved {
            return Err(format!("{}: store entry was not saved", pair.proc_name));
        }
    }
    let entry_kb = dir_bytes(store) as f64 / 1024.0 / pairs.len() as f64;
    Ok((Server::new(serve_config(store)), finalize_ms, entry_kb))
}

/// Bytes of all files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

fn request_line(id: usize, pair: &Pair, dir: &Path) -> String {
    let path = |which: &str| {
        quote(
            &dir.join(format!("{}_{which}.mj", pair.proc_name))
                .to_string_lossy(),
        )
    };
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"analyze\",\"params\":{{\"proc\":{},\"base_path\":{},\"mod_path\":{}}}}}",
        quote(&pair.proc_name),
        path("base"),
        path("mod")
    )
}

/// Writes each pair's versions where its requests name them.
fn write_sources(pairs: &[Pair], dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for pair in pairs {
        for (which, source) in [("base", &pair.base_src), ("mod", &pair.mod_src)] {
            let file = dir.join(format!("{}_{which}.mj", pair.proc_name));
            std::fs::write(&file, source).map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    Ok(())
}

/// The seeded request order of a round: every pair [`REPEATS`] times.
fn request_order(seed: u64, pairs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pairs * REPEATS).map(|i| i % pairs).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed, 0x5e7 + i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Checks that `response` answers request `id` with `expected` as its
/// `output`. The verdict block is compared in its JSON-escaped form, so
/// the check reads the ~1 MB response once.
fn check_response(response: &str, id: usize, expected_quoted: &str) -> OpResult {
    if !response.starts_with(&format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"result\":{{")) {
        let message = parse(response)
            .ok()
            .and_then(|v| v.get("error")?.get("message")?.as_str().map(str::to_string))
            .unwrap_or_else(|| response.chars().take(200).collect());
        return OpResult::Error(format!("request {id}: {message}"));
    }
    if response.contains(&format!("\"output\":{expected_quoted},")) {
        OpResult::Ok
    } else {
        OpResult::Wrong(format!(
            "request {id}: response output differs from the one-shot run"
        ))
    }
}

/// Traced runs only: the hit path's key computation, replayed on the
/// request's sources (parse + type-check, then both fingerprints).
fn replay_key(pair: &Pair, dir: &Path, rec: &mut Recorder) {
    let read = |which: &str| {
        let file = dir.join(format!("{}_{which}.mj", pair.proc_name));
        std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))
    };
    let programs = rec.time("serve.key_parse_ms", || {
        Ok::<_, String>((
            load("base", &read("base")?)?,
            load("modified", &read("mod")?)?,
        ))
    });
    if let Ok((base, modified)) = programs {
        rec.time("serve.key_fingerprint_ms", || {
            let _ = dise_diff::proc_fingerprint(&base, &pair.proc_name);
            let _ = dise_diff::proc_fingerprint(&modified, &pair.proc_name);
        });
    }
}

/// Traced runs only: the miss path's pipeline stages, replayed against
/// the warm store without saving, to split a miss by layer.
fn replay_miss(pair: &Pair, store: &Path, rec: &mut Recorder) -> Result<(), String> {
    let (base, modified) = rec.time("ir.parse_ms", || {
        Ok::<_, String>((
            load("base", &pair.base_src)?,
            load("modified", &pair.mod_src)?,
        ))
    })?;
    let config = dise_config(1, SweepBudget::Tokens(0), Some(store.to_path_buf()));
    let mut session = rec
        .time("session.open_ms", || {
            AnalysisSession::open(&base, &modified, &pair.proc_name, config)
        })
        .map_err(|e| e.to_string())?;
    let changed = rec
        .time("diff.ms", || {
            session.diffed().map(|d| d.diff.changed_node_count())
        })
        .map_err(|e| e.to_string())?;
    let affected = rec
        .time("affected.ms", || session.affected().map(|a| a.len()))
        .map_err(|e| e.to_string())?;
    let summary = rec
        .time("explore.ms", || {
            session.explored().map(|e| e.summary.clone())
        })
        .map_err(|e| e.to_string())?;
    let output = rec
        .time("report.render_ms", || {
            session
                .result()
                .map(|result| verdict_pc_block(result.affected_pc_strings()))
        })
        .map_err(|e| e.to_string())?;
    rec.sample("diff.changed_nodes", changed as f64);
    rec.sample("affected.nodes", affected as f64);
    rec.sample("explore.states", summary.stats().states_explored as f64);
    rec.sample("explore.pcs", summary.pc_count() as f64);
    rec.sample(
        "solver.pipeline_checks",
        summary.stats().solver.pipeline_checks() as f64,
    );
    rec.sample(
        "solver.trie_hit_ratio",
        crate::common::trie_hit_ratio(&summary),
    );
    rec.sample("report.output_kb", output.len() as f64 / 1024.0);
    Ok(())
}

/// The server counters a finished round must show.
fn check_round(metrics: &MetricsSnapshot, pairs: usize) -> Result<(), String> {
    let requests = (pairs * REPEATS) as u64;
    let expected = MetricsSnapshot {
        requests,
        cache_hits: requests - pairs as u64,
        coalesced: 0,
        explorations: pairs as u64,
        evictions: 0,
        errors: 0,
        pipeline_solver_calls: 0,
        scheduler_waits: 0,
        cache_entries: pairs as u64,
        cache_bytes: metrics.cache_bytes,
    };
    if *metrics == expected {
        Ok(())
    } else {
        Err(format!(
            "server counters {metrics:?}, expected {expected:?}"
        ))
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let run_dir: PathBuf = work_dir.join(format!("serve-{}", std::process::id()));
    let (store, sources) = (run_dir.join("store"), run_dir.join("sources"));
    let outcome = serve(seed, seconds, &store, &sources, rec);
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome
}

fn serve(
    seed: u64,
    seconds: f64,
    store: &Path,
    sources: &Path,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let mut finalize_ms = Vec::new();
    let mut entry_kb = 0.0;
    let specs = callee_specs(seed, 0x200, PAIRS, true);
    let (setup, setup_s) = repeat_setup(SETUP_REPS, || {
        let _ = std::fs::remove_dir_all(store);
        let pairs = build_all(&specs);
        let populated = write_sources(&pairs, sources).and_then(|()| populate(&pairs, store));
        populated.map(|(server, times, kb)| {
            finalize_ms.extend(times);
            entry_kb = kb;
            (pairs, server)
        })
    });
    let (pairs, first_server) = setup?;
    for t in finalize_ms {
        rec.sample("store.finalize_ms", t);
    }
    rec.sample("store.entry_kb", entry_kb);

    // Reference verdicts from independent cold one-shot runs (no store),
    // computed outside the timed loop.
    let mut expected = Vec::new();
    for pair in &pairs {
        let base = load("base", &pair.base_src)?;
        let modified = load("modified", &pair.mod_src)?;
        let result = run_dise(
            &base,
            &modified,
            &pair.proc_name,
            &dise_config(1, SweepBudget::Auto, None),
        )
        .map_err(|e| e.to_string())?;
        expected.push(verdict_pc_block(result.affected_pc_strings()));
    }
    let expected_quoted: Vec<String> = expected.iter().map(|e| quote(e)).collect();
    let order = request_order(seed, pairs.len());
    let lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(id, &p)| request_line(id, &pairs[p], sources))
        .collect();

    let mut tally = Tally::new();
    let mut latencies_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut round_times = Vec::new();
    let mut server = Some(first_server);
    loop {
        let round_start = measured;
        let server = server
            .take()
            .unwrap_or_else(|| Server::new(serve_config(store)));
        let mut seen = vec![false; pairs.len()];
        let mut results = Vec::with_capacity(order.len());
        for (id, (line, &p)) in lines.iter().zip(&order).enumerate() {
            let miss = !std::mem::replace(&mut seen[p], true);
            let before = server.metrics();
            rec.begin_op("op.serve");
            let start = Instant::now();
            let response = rec.time("serve.handle_line", || server.handle_line(line));
            let elapsed = start.elapsed();
            rec.end_op();
            measured += elapsed;
            latencies_ms.push(ms(elapsed));
            let after = server.metrics();
            rec.sample(
                if miss {
                    "serve.miss_ms"
                } else {
                    "serve.hit_ms"
                },
                ms(elapsed),
            );
            rec.sample("serve.response_kb", response.len() as f64 / 1024.0);
            let explored = after.explorations - before.explorations;
            let hit = after.cache_hits - before.cache_hits;
            let result = match check_response(&response, id, &expected_quoted[p]) {
                OpResult::Ok if (explored, hit) != (miss as u64, !miss as u64) => OpResult::Wrong(format!(
                    "{}: expected a {}, the server counted {explored} exploration(s) and {hit} hit(s)",
                    pairs[p].proc_name,
                    if miss { "miss" } else { "hit" }
                )),
                result => result,
            };
            if rec.traced() {
                if miss {
                    if let Err(e) = replay_miss(&pairs[p], store, rec) {
                        eprintln!("perfbench: miss replay failed: {e}");
                    }
                } else {
                    replay_key(&pairs[p], sources, rec);
                }
            }
            results.push(result);
        }
        let metrics = server.metrics();
        rec.sample("serve.cache_hits", metrics.cache_hits as f64);
        rec.sample("serve.explorations", metrics.explorations as f64);
        let round_check = check_round(&metrics, pairs.len());
        for result in results {
            tally.record(match (&round_check, result) {
                (Err(e), OpResult::Ok) => OpResult::Wrong(e.clone()),
                (_, result) => result,
            });
        }
        round_times.push(measured - round_start);
        if rounds_done(&round_times, seconds) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let misses = pairs.len();
    let inputs = pairs
        .iter()
        .zip(&expected)
        .map(|(pair, output)| {
            format!(
                "{}: stmts {}+{}, pcs {}, output {} KB",
                pair.describe(),
                stmt_count(&pair.base_src),
                stmt_count(&pair.mod_src),
                output.lines().count(),
                output.len() / 1024
            )
        })
        .chain(std::iter::once(format!(
            "round: {} requests, {misses} misses ({:.1}%), {} hits",
            order.len(),
            100.0 * misses as f64 / order.len() as f64,
            order.len() - misses
        )))
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
