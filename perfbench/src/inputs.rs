//! Seeded inputs: `dise-gen` scenario pairs, chosen by edit kind so that
//! every run of a workload holds the same mix of cost classes whatever
//! its seed.

use dise_gen::{evolve, AppliedEdit, EditKind, GenParams, Scenario, PROC_NAME};

/// Dispatch arms of the 100x tier (`BENCH_generated_scale.json`).
pub const ARMS_100X: usize = 240;
/// Dispatch arms of the 30x tier.
pub const ARMS_30X: usize = 72;

/// The edit kinds that ride along a callee-body edit, one per pair in
/// turn, so a workload's pairs cover all five kinds.
pub const COMPANIONS: [EditKind; 4] = [
    EditKind::GuardStrengthen,
    EditKind::GuardWeaken,
    EditKind::EffectRewrite,
    EditKind::DeadBranchInsert,
];

/// One generated `(base, modified)` pair, as sources.
pub struct Pair {
    /// The analyzed procedure (the generator's entry, possibly renamed).
    pub proc_name: String,
    pub base_src: String,
    pub mod_src: String,
    /// The applied edits' kinds, in order.
    pub kinds: Vec<EditKind>,
    /// Ground-truth markers of the edited statements.
    pub markers: Vec<i64>,
    pub scenario_seed: u64,
    pub edit_seed: u64,
}

impl Pair {
    /// `kind+kind` tag for reports.
    pub fn kinds_tag(&self) -> String {
        self.kinds
            .iter()
            .map(|k| k.tag())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// `proc kinds (seeds)` line for input reports.
    pub fn describe(&self) -> String {
        format!(
            "{} {} (scenario seed {}, edit seed {})",
            self.proc_name,
            self.kinds_tag(),
            self.scenario_seed,
            self.edit_seed
        )
    }

    /// True when every edit is a dead-branch insert (an unsatisfiable
    /// guard by construction, so no input can tell the versions apart).
    pub fn dead_branch_only(&self) -> bool {
        self.kinds.iter().all(|k| *k == EditKind::DeadBranchInsert)
    }
}

/// splitmix64 finalizer: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tier shape of `generated_scale`: only the arm count varies.
fn shape(seed: u64, arms: usize) -> GenParams {
    GenParams {
        seed,
        arms,
        guard_depth: 2,
        helpers: 3,
        call_depth: 2,
        globals: 3,
    }
}

/// The callee edits of one cost class: an effect rewrite in helper
/// `h{level}_{j}` whose target is `Reg{j}`. Arm `i` calls `h0_{i % 3}`
/// (which calls `h1_{i % 3}`) and ends with a clamp and an assertion on
/// `Reg{i % 3}`, so such an edit reaches the safety branch of every
/// calling arm: ~4000 directed states on a 240-arm pair. Callee edits
/// that miss the callers' register, or rewrite a helper guard, land
/// anywhere from ~2400 states to 2–3x the cost (guards rewritten into
/// `==`/`!=` need the solver's case-splitting fallback in every inlined
/// copy), with no property of the pair telling which before it is
/// analyzed; they are left out so that every op of a workload falls in
/// one class whatever the seed.
fn callee_edit_in_class(edit: &AppliedEdit, base_source: &str) -> bool {
    let Some(rest) = edit.description.strip_prefix("effect ") else {
        return false;
    };
    let (Some(target), Some(&marker)) = (rest.split_whitespace().next(), edit.markers.first())
    else {
        return false;
    };
    helper_index(base_source, marker).is_some_and(|j| target == format!("Reg{j}"))
}

/// `j` of the helper `h{level}_{j}` whose body assigns `… + marker;`.
fn helper_index(source: &str, marker: i64) -> Option<usize> {
    let needle = format!("+ {marker};");
    let mut helper = None;
    for line in source.lines() {
        if let Some(rest) = line.strip_prefix("proc ") {
            helper = rest
                .strip_prefix('h')
                .and_then(|r| r.split('(').next())
                .and_then(|name| name.split_once('_'))
                .and_then(|(_, j)| j.parse::<usize>().ok());
        } else if line.contains(&needle) {
            return helper;
        }
    }
    None
}

/// Edit seeds tried on one scenario before [`find_spec`] moves on to the
/// next; some scenarios have no in-class callee edit at all.
const EDIT_SEEDS_PER_SCENARIO: u64 = 2_000;

/// Scans edit seeds from `start` for an evolution of `base` with exactly
/// the multiset of edit kinds `want` whose callee edit, if any, is in the
/// class of [`callee_edit_in_class`]. The scan is deterministic: same
/// base, same start, same answer.
fn find_edit_seed(base: &Scenario, start: u64, want: &[EditKind]) -> Option<u64> {
    let source = base.source();
    let mut want_sorted: Vec<&str> = want.iter().map(|k| k.tag()).collect();
    want_sorted.sort_unstable();
    (0..EDIT_SEEDS_PER_SCENARIO)
        .map(|offset| start.wrapping_add(offset))
        .find(|&edit_seed| {
            let evolution = evolve(base, edit_seed, want.len());
            let mut got: Vec<&str> = evolution.edits.iter().map(|e| e.kind.tag()).collect();
            got.sort_unstable();
            let in_class = evolution
                .edits
                .iter()
                .filter(|e| e.kind == EditKind::CalleeBodyEdit)
                .all(|e| callee_edit_in_class(e, &source));
            got == want_sorted && in_class
        })
}

/// Where one pair comes from: the scenario seed and the edit seed that
/// [`find_spec`] chose. Building it is deterministic.
pub struct PairSpec {
    pub scenario_seed: u64,
    pub edit_seed: u64,
    pub arms: usize,
    pub edits: usize,
    pub proc_name: String,
}

impl PairSpec {
    /// Generates the scenario, applies the edits and renders both
    /// versions, with the entry procedure renamed to `proc_name`.
    pub fn build(&self) -> Pair {
        let base = Scenario::generate(&shape(self.scenario_seed, self.arms));
        let evolution = evolve(&base, self.edit_seed, self.edits);
        let rename = |source: String| {
            source.replacen(
                &format!("proc {PROC_NAME}("),
                &format!("proc {}(", self.proc_name),
                1,
            )
        };
        Pair {
            proc_name: self.proc_name.clone(),
            base_src: rename(base.source()),
            mod_src: rename(evolution.modified.source()),
            kinds: evolution.edits.iter().map(|e| e.kind).collect(),
            markers: evolution.ground_truth_markers().into_iter().collect(),
            scenario_seed: self.scenario_seed,
            edit_seed: self.edit_seed,
        }
    }
}

/// The first pair, over scenarios seeded from `slot_seed`, with `arms`
/// arms whose edits are the kinds `want` (see [`find_edit_seed`]). The
/// search is not part of a workload's set-up time: how long it runs
/// depends on the seed by design, and no change to the analysis can move
/// work into it.
pub fn find_spec(slot_seed: u64, arms: usize, want: &[EditKind], proc_name: &str) -> PairSpec {
    (0u64..)
        .find_map(|attempt| {
            let scenario_seed = mix(slot_seed, attempt);
            let base = Scenario::generate(&shape(scenario_seed, arms));
            let edit_seed = find_edit_seed(&base, mix(scenario_seed, 1), want)?;
            Some(PairSpec {
                scenario_seed,
                edit_seed,
                arms,
                edits: want.len(),
                proc_name: proc_name.to_string(),
            })
        })
        .expect("an unbounded scenario scan finds a pair")
}

/// `count` 100x pair specs, each a callee-body edit plus one companion
/// kind (cycling through [`COMPANIONS`]). `salt` separates workloads;
/// `rename` gives pair `k` the entry procedure `step_k`.
pub fn callee_specs(seed: u64, salt: u64, count: usize, rename: bool) -> Vec<PairSpec> {
    (0..count)
        .map(|k| {
            let want = [EditKind::CalleeBodyEdit, COMPANIONS[k % COMPANIONS.len()]];
            let name = if rename {
                format!("{PROC_NAME}_{k}")
            } else {
                PROC_NAME.to_string()
            };
            find_spec(mix(seed, salt + k as u64), ARMS_100X, &want, &name)
        })
        .collect()
}

/// Builds every spec (a workload's input generation).
pub fn build_all(specs: &[PairSpec]) -> Vec<Pair> {
    specs.iter().map(PairSpec::build).collect()
}
