//! E20 — whole-cluster fault search in virtual time (softborg-search,
//! this repro): sweep seeded fault plans over the reliable pod→hive
//! transport simulation, judge every run against the robustness
//! oracles, and recycle every divergence into a minimal, replayable
//! reproducer.
//!
//! Three phases:
//!
//! * **A — clean sweep.** The unmodified platform digests a bounded
//!   sweep of crash/partition/dup/reorder plans with **zero**
//!   divergences. Any finding here is a real robustness bug.
//! * **B — canary detection.** Each [`CanaryBug`] (three real recovery
//!   bugs kept behind a config flag) is armed in turn; the search must
//!   find it, delta-debug the offending plan to a minimal reproducer,
//!   bisect the first divergent dispatch, and pin it in the corpus.
//! * **C — corpus regression.** Every pinned entry replays byte for
//!   byte: same `sched_trace_hash`, same oracle verdict, same
//!   first-divergent-event report.
//!
//! Phase B also re-runs each canary sweep with coverage-guided case
//! scheduling (prefix-probe ordering) and records how many full
//! evaluations the first failure cost with and without guidance.
//!
//! Writes `BENCH_search.json` into the current directory (under
//! `target/bench-smoke/` for a smoke run) and the
//! divergence corpus under `--corpus DIR` (default
//! `target/e20-corpus`). `--smoke` shrinks the budgets for CI;
//! `--seed N` (default 7) and `--budget N` override the sweep.

use softborg_bench::{arg_u64, banner, cell, table_header, write_record};
use softborg_hive::CanaryBug;
use softborg_search::{replay_corpus, run_search, GenConfig, SearchConfig, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The judged campaign: small enough to re-run hundreds of times while
/// shrinking, with several frames per session so crash-recovery bugs
/// (which live between two frames of one session) can arm.
fn workload(canary: Option<CanaryBug>) -> Workload {
    Workload {
        traces: 24,
        batch: 2,
        canary,
        ..Workload::default()
    }
}

fn config(seed: u64, budget: u64, canary: Option<CanaryBug>, dir: PathBuf) -> SearchConfig {
    SearchConfig {
        seed,
        budget,
        workload: workload(canary),
        generator: GenConfig::default(),
        guided: false,
        corpus_dir: Some(dir),
        registry: None,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = arg_u64("--seed", 7);
    let clean_budget = arg_u64("--budget", if smoke { 24 } else { 96 });
    let canary_budget = clean_budget.div_ceil(2);
    let corpus_root = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--corpus")
        .map(|w| PathBuf::from(&w[1]))
        .unwrap_or_else(|| PathBuf::from("target/e20-corpus"));

    banner(
        "E20",
        "whole-cluster fault search: sweep, bisect, shrink to minimal reproducers",
        "§2 'recycling failure information' + §5 automated debugging — applied to the platform itself",
    );
    println!(
        "workload: 3 pods x 12 frames, session transport under virtual time\n\
         fault space: server crashes, pod partitions, dup/reorder knobs\n\
         seed {seed} · clean budget {clean_budget} · per-canary budget {canary_budget}\n\
         corpus: {}\n",
        corpus_root.display()
    );

    // ---- Phase A: the clean platform survives the sweep ---------------
    let t = Instant::now();
    let clean = run_search(&config(seed, clean_budget, None, corpus_root.join("clean")))
        .expect("clean sweep runs");
    let clean_wall = t.elapsed().as_secs_f64();
    println!(
        "phase A: {} plans, {} runs, {} divergences in {clean_wall:.1}s",
        clean.plans_explored, clean.runs_executed, clean.divergences
    );
    assert_eq!(
        clean.divergences, 0,
        "clean platform diverged: {:#?}",
        clean.minimized
    );

    // ---- Phase B: every armed canary is found, shrunk, pinned ---------
    println!("\nphase B: canary detection");
    table_header(&[
        ("canary", 20),
        ("found", 7),
        ("oracle", 26),
        ("w_orig", 8),
        ("w_min", 7),
        ("steps", 7),
        ("probes", 8),
        ("bisect@", 9),
        ("first", 7),
        ("guided", 8),
    ]);
    let mut canary_rows = Vec::new();
    for canary in CanaryBug::ALL {
        let t = Instant::now();
        let report = run_search(&config(
            seed,
            canary_budget,
            Some(canary),
            corpus_root.join(canary.name()),
        ))
        .expect("canary sweep runs");
        let wall = t.elapsed().as_secs_f64();
        assert!(
            report.divergences >= 1,
            "canary {canary} went undetected in {canary_budget} cases"
        );
        // Same sweep with coverage-guided scheduling (corpus-less: it
        // finds the same failures, only sooner) to measure how many
        // full evaluations the first failure costs each way.
        let guided = run_search(&SearchConfig {
            guided: true,
            corpus_dir: None,
            ..config(seed, canary_budget, Some(canary), PathBuf::new())
        })
        .expect("guided canary sweep runs");
        assert_eq!(
            guided.divergences, report.divergences,
            "guided scheduling changed which plans fail"
        );
        let f = report
            .minimized
            .iter()
            .min_by_key(|f| f.minimal.weight())
            .expect("at least one minimized failure");
        assert!(
            f.minimal.weight() <= f.original.weight(),
            "shrinking made the plan heavier"
        );
        println!(
            "{}{}{}{}{}{}{}{}{}{}",
            cell(canary.name(), 20),
            cell(
                format!("{}/{}", report.divergences, report.plans_explored),
                7
            ),
            cell(&f.oracle, 26),
            cell(f.original.weight(), 8),
            cell(f.minimal.weight(), 7),
            cell(f.shrink_steps, 7),
            cell(f.shrink_probes, 8),
            cell(
                f.first_divergent_event
                    .map_or(String::from("-"), |e| e.to_string()),
                9
            ),
            cell(
                report
                    .cases_to_first_failure
                    .map_or(String::from("-"), |n| n.to_string()),
                7
            ),
            cell(
                guided
                    .cases_to_first_failure
                    .map_or(String::from("-"), |n| n.to_string()),
                8
            ),
        );
        canary_rows.push((canary, report, guided, wall));
    }

    // ---- Phase C: the corpus replays as a regression suite ------------
    println!("\nphase C: corpus regression replay");
    let mut replayed = 0u64;
    for canary in CanaryBug::ALL {
        let rep = replay_corpus(&corpus_root.join(canary.name())).expect("corpus loads");
        assert!(
            rep.failures.is_empty(),
            "corpus entries stopped reproducing: {:#?}",
            rep.failures
        );
        println!(
            "  {}: {} entr(y|ies) replayed byte-for-byte",
            canary, rep.replayed
        );
        replayed += rep.replayed;
    }
    assert!(replayed >= 3, "every canary must pin at least one entry");

    // ---- JSON ----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"experiment\": \"E20 fault search\", \"seed\": {seed},"
    );
    let _ = writeln!(
        json,
        "  \"clean\": {{\"budget\": {}, \"runs\": {}, \"divergences\": {}, \"wall_seconds\": {clean_wall:.3}}},",
        clean.plans_explored, clean.runs_executed, clean.divergences
    );
    let _ = writeln!(json, "  \"canaries\": [");
    for (i, (canary, report, guided, wall)) in canary_rows.iter().enumerate() {
        let f = report
            .minimized
            .iter()
            .min_by_key(|f| f.minimal.weight())
            .expect("minimized");
        let _ = writeln!(
            json,
            "    {{\"canary\": \"{canary}\", \"budget\": {}, \"divergences\": {}, \"oracle\": \"{}\", \"original_weight\": {}, \"minimal_weight\": {}, \"shrink_steps\": {}, \"shrink_probes\": {}, \"bisect_event\": {}, \"corpus_entries\": {}, \"cases_to_first_failure\": {}, \"cases_to_first_failure_guided\": {}, \"wall_seconds\": {wall:.3}}}{}",
            report.plans_explored,
            report.divergences,
            f.oracle,
            f.original.weight(),
            f.minimal.weight(),
            f.shrink_steps,
            f.shrink_probes,
            f.first_divergent_event.map_or(String::from("null"), |e| e.to_string()),
            report.corpus_written.len(),
            report.cases_to_first_failure.map_or(String::from("null"), |n| n.to_string()),
            guided.cases_to_first_failure.map_or(String::from("null"), |n| n.to_string()),
            if i + 1 == canary_rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"corpus_replayed\": {replayed}");
    json.push_str("}\n");
    write_record("BENCH_search.json", smoke, &json);
    println!(
        "\nexpected shape: phase A finds nothing (the platform digests the\n\
         whole sweep); each canary is caught and shrunk to a near-minimal\n\
         plan (typically a single crash window); the corpus replays green."
    );
}
