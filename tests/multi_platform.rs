//! Multi-program platform: several pod fleets share one sharded ingest
//! pool, and per-shard crash-only durability composes with sharding —
//! a campaign killed at any point recovers **every** shard
//! byte-identical to the uninterrupted run at the recovered committed
//! round (the minimum across shards).

use softborg::{
    DurabilityConfig, DurabilityError, FleetSpec, MultiPlatform, MultiPlatformConfig,
    MultiRoundReport,
};
use softborg_program::scenarios::{self, Scenario};
use std::path::PathBuf;

const ROUNDS: u64 = 3;
const EXECS: u32 = 8;
const N_PODS: u32 = 4;
const N_SHARDS: usize = 3;

fn fleet_scenarios() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
        scenarios::bank_transfer(),
    ]
}

fn specs(scs: &[Scenario]) -> Vec<FleetSpec<'_>> {
    scs.iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: softborg::pod::PodConfig {
                input_range: s.input_range,
                ..softborg::pod::PodConfig::default()
            },
        })
        .collect()
}

fn config(durability: Option<DurabilityConfig>) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: N_PODS,
        n_shards: N_SHARDS,
        seed: 23,
        durability,
        ..MultiPlatformConfig::default()
    }
}

/// A fresh, empty campaign directory unique to this test + process.
fn campaign_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softborg-multi-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Aggressive checkpoints so short campaigns exercise the chain path.
fn compacting(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 2,
        min_compact_wal_bytes: 1024,
        ..DurabilityConfig::new(dir)
    }
}

/// Compaction disabled: used by the torn-phase-A test, whose simulated
/// crash (a journal tail lost *after* the process exited) is only a
/// state the two-phase protocol can produce if no shard checkpointed the
/// final round into its chain.
fn no_compaction(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 0,
        ..DurabilityConfig::new(dir)
    }
}

/// Per-shard states of an uninterrupted durable run, indexed by
/// committed round count (`states[k][shard]` = shard's state after
/// round k), plus the full history.
fn reference_run(dcfg: DurabilityConfig) -> (Vec<Vec<Vec<u8>>>, Vec<MultiRoundReport>) {
    let scs = fleet_scenarios();
    let mut p = MultiPlatform::new(&specs(&scs), config(Some(dcfg)));
    let shard_states =
        |p: &MultiPlatform<'_>| (0..N_SHARDS).map(|i| p.shard_state(i)).collect::<Vec<_>>();
    let mut states = vec![shard_states(&p)];
    for _ in 0..ROUNDS {
        p.round(EXECS);
        states.push(shard_states(&p));
    }
    (states, p.history().to_vec())
}

#[test]
fn multi_round_runs_every_fleet_through_the_shared_pool() {
    let scs = fleet_scenarios();
    let mut p = MultiPlatform::new(&specs(&scs), config(None));
    let report = p.round(EXECS);
    assert_eq!(report.programs.len(), scs.len());
    for pr in &report.programs {
        assert_eq!(pr.executions, u64::from(N_PODS) * u64::from(EXECS));
    }
    assert_eq!(
        report.executions,
        report.programs.iter().map(|p| p.executions).sum::<u64>()
    );
    let stats = p.last_run().expect("round ran the sharded pipeline");
    assert_eq!(stats.frames_corrupt, 0);
    assert_eq!(stats.frames_rerouted, 0);
    assert_eq!(stats.frames_unknown_program, 0);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.traces_merged, report.executions);
    // Every fleet's traffic reached its own hive.
    for (id, hive) in p.sharded().hives() {
        let pr = report
            .programs
            .iter()
            .find(|pr| pr.program == id.0)
            .expect("every placed program reported");
        assert_eq!(hive.stats().traces, pr.executions);
        assert_eq!(hive.stats().unreconstructed, 0);
    }
    assert_eq!(p.run(2, EXECS).len(), 3);
}

#[test]
fn multi_rounds_are_deterministic_across_identical_runs() {
    let scs = fleet_scenarios();
    let mut a = MultiPlatform::new(&specs(&scs), config(None));
    let mut b = MultiPlatform::new(&specs(&scs), config(None));
    a.run(2, EXECS);
    b.run(2, EXECS);
    assert_eq!(a.history(), b.history());
    for shard in 0..N_SHARDS {
        assert_eq!(
            a.shard_state(shard),
            b.shard_state(shard),
            "shard {shard} diverged between identical runs"
        );
    }
}

#[test]
fn kill_at_every_round_boundary_recovers_every_shard_byte_identically() {
    let scs = fleet_scenarios();
    let (reference, ref_history) =
        reference_run(DurabilityConfig::new(campaign_dir("boundary-ref")));
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("boundary-{k}"));
        {
            let mut p = MultiPlatform::new(
                &specs(&scs),
                config(Some(DurabilityConfig::new(dir.clone()))),
            );
            p.run(k as u32, EXECS);
        } // drop = kill: nothing beyond the synced journals survives
        let (resumed, report) =
            MultiPlatform::resume(&specs(&scs), config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(report.target_round, k, "lost rounds at kill {k}");
        assert_eq!(resumed.committed_rounds(), k);
        for sr in &report.shards {
            assert_eq!(sr.rounds_from_snapshot + sr.rounds_replayed, k);
            assert_eq!(sr.records_discarded, 0, "shard {} at kill {k}", sr.shard);
        }
        for (shard, expected) in reference[k as usize].iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged from uninterrupted run at round {k}"
            );
        }
        assert_eq!(resumed.history(), &ref_history[..k as usize]);
        // The campaign keeps going after recovery.
        let mut resumed = resumed;
        let r = resumed.round(EXECS);
        assert_eq!(
            r.executions,
            u64::from(N_PODS) * u64::from(EXECS) * scs.len() as u64
        );
        assert_eq!(resumed.committed_rounds(), k + 1);
    }
}

#[test]
fn kill_at_every_round_boundary_restores_every_fleet_pod_mid_stream() {
    let scs = fleet_scenarios();
    let mut ref_run = MultiPlatform::new(
        &specs(&scs),
        config(Some(DurabilityConfig::new(campaign_dir("pods-ref")))),
    );
    let mut ref_pods = vec![ref_run.export_pod_states()];
    for _ in 0..ROUNDS {
        ref_run.round(EXECS);
        ref_pods.push(ref_run.export_pod_states());
    }
    let ref_history = ref_run.history().to_vec();
    let ref_states: Vec<_> = (0..N_SHARDS).map(|i| ref_run.shard_state(i)).collect();
    drop(ref_run);
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("pods-{k}"));
        {
            let mut p = MultiPlatform::new(
                &specs(&scs),
                config(Some(DurabilityConfig::new(dir.clone()))),
            );
            p.run(k as u32, EXECS);
        } // drop = kill
        let (mut resumed, _) =
            MultiPlatform::resume(&specs(&scs), config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(
            resumed.export_pod_states(),
            ref_pods[k as usize],
            "fleet pod populations diverged from the uninterrupted run at round {k}"
        );
        // Restored pods carry their RNG positions, corpora, and queued
        // directives across every lane, so the continuation replays
        // the uninterrupted run byte for byte.
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(
            resumed.history(),
            &ref_history[..],
            "continued history diverged after resume at round {k}"
        );
        assert_eq!(resumed.export_pod_states(), ref_pods[ROUNDS as usize]);
        for (shard, expected) in ref_states.iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged in the continuation after resume at round {k}"
            );
        }
    }
}

#[test]
fn shard_compaction_composes_with_resume() {
    let scs = fleet_scenarios();
    let (reference, _) = reference_run(compacting(campaign_dir("compact-ref")));
    let dir = campaign_dir("compact");
    {
        let mut p = MultiPlatform::new(&specs(&scs), config(Some(compacting(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
        // Force at least one chain record on every shard so the
        // checkpoint path is exercised even for lightly-loaded shards.
        let written = p.checkpoint().unwrap();
        assert!(written > 0, "an on-demand checkpoint wrote nothing");
    }
    let (resumed, report) =
        MultiPlatform::resume(&specs(&scs), config(Some(compacting(dir)))).unwrap();
    assert_eq!(report.target_round, ROUNDS);
    for sr in &report.shards {
        assert!(
            sr.chain.records > 0,
            "shard {} never checkpointed",
            sr.shard
        );
        assert!(
            sr.rounds_from_snapshot > 0,
            "shard {} resume ignored its checkpoint",
            sr.shard
        );
    }
    for (shard, expected) in reference[ROUNDS as usize].iter().enumerate() {
        assert_eq!(
            &resumed.shard_state(shard),
            expected,
            "shard {shard} diverged through compaction + resume"
        );
    }
}

#[test]
fn crash_between_shard_fsyncs_rolls_back_to_the_minimum_committed_round() {
    let scs = fleet_scenarios();
    let (reference, _) = reference_run(no_compaction(campaign_dir("torn-ref")));
    let dir = campaign_dir("torn");
    {
        let mut p = MultiPlatform::new(&specs(&scs), config(Some(no_compaction(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    // Simulate a crash inside phase A of the final round's commit: one
    // shard's journal loses the tail of its last append (the closing
    // round record), so that shard never committed the round while its
    // peers did.
    let victim = dir.join("shard-0").join("hive.wal");
    let bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 8);
    std::fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();

    let (resumed, report) =
        MultiPlatform::resume(&specs(&scs), config(Some(no_compaction(dir)))).unwrap();
    // The final round was never acked; the campaign's truth is the
    // minimum committed round, and the shards that got ahead are
    // truncated back to it.
    assert_eq!(report.target_round, ROUNDS - 1);
    assert_eq!(resumed.committed_rounds(), ROUNDS - 1);
    assert!(
        report
            .shards
            .iter()
            .any(|s| s.records_discarded > 0 || s.wal_tail_dropped > 0),
        "injected damage left no trace in the resume report"
    );
    for (shard, expected) in reference[(ROUNDS - 1) as usize].iter().enumerate() {
        assert_eq!(
            &resumed.shard_state(shard),
            expected,
            "shard {shard} diverged after phase-A crash recovery"
        );
    }
    // A second resume is clean: the truncation is durable.
    drop(resumed);
    let scs2 = fleet_scenarios();
    let dir = std::env::temp_dir().join(format!("softborg-multi-{}-torn", std::process::id()));
    let (again, report) =
        MultiPlatform::resume(&specs(&scs2), config(Some(no_compaction(dir)))).unwrap();
    assert_eq!(report.target_round, ROUNDS - 1);
    for sr in &report.shards {
        assert_eq!(sr.records_discarded, 0);
        assert_eq!(sr.wal_tail_dropped, 0);
    }
    assert_eq!(again.committed_rounds(), ROUNDS - 1);
}

#[test]
fn chained_paged_fleet_resumes_process_equivalent_across_shards() {
    use softborg::store::PagedConfig;
    let scs = fleet_scenarios();
    // Default-policy, never-killed reference: the aggressively
    // checkpointed, paged fleet must be indistinguishable from it at
    // every recovered round.
    let (reference, ref_history) = reference_run(DurabilityConfig::new(campaign_dir("cp-ref")));
    let cfg = |dir: PathBuf| MultiPlatformConfig {
        tree_paging: Some(PagedConfig::new(&dir.join("pages"), 8, 2)),
        ..config(Some(DurabilityConfig {
            compact_ratio: 1,
            min_compact_wal_bytes: 1,
            ..DurabilityConfig::new(dir)
        }))
    };
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("cp-{k}"));
        {
            let mut p = MultiPlatform::new(&specs(&scs), cfg(dir.clone()));
            p.run(k as u32, EXECS);
        } // drop = kill
        let (mut resumed, report) = MultiPlatform::resume(&specs(&scs), cfg(dir)).unwrap();
        assert_eq!(report.target_round, k, "lost rounds at kill {k}");
        for sr in &report.shards {
            assert!(
                sr.chain.records > 0,
                "shard {} resumed without folding its chain",
                sr.shard
            );
        }
        for (shard, expected) in reference[k as usize].iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged from the default-policy reference at round {k}"
            );
        }
        // The continuation replays the reference byte for byte, paging
        // and chains included.
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(resumed.history(), &ref_history[..]);
        for (shard, expected) in reference[ROUNDS as usize].iter().enumerate() {
            assert_eq!(&resumed.shard_state(shard), expected);
        }
        let stats = resumed.page_stats();
        assert_eq!(stats.pages_trusted, 0, "clean fleet adopted stale pages");
        assert!(stats.total_pages > 0, "paging never engaged: {stats:?}");
    }
}

#[test]
fn legacy_shard_snapshot_is_refused_never_cold_started() {
    use softborg::hive::HiveSnapshot;
    let scs = fleet_scenarios();
    let dir = campaign_dir("legacy");
    {
        let mut p = MultiPlatform::new(&specs(&scs), config(Some(compacting(dir.clone()))));
        p.run(2, EXECS);
    }
    // One shard directory looks like an older build's: a hand-written
    // two-generation `hive.snap` store and no chain.
    let shard = dir.join("shard-1");
    std::fs::remove_dir_all(shard.join("chain")).unwrap();
    let snap = HiveSnapshot {
        state: b"legacy hive state".to_vec(),
        sessions: Default::default(),
        wal_covered: 0,
        wal_covered_hash: 0,
        app_meta: Vec::new(),
    };
    std::fs::write(shard.join("hive.snap.prev"), snap.encode()).unwrap();
    let cfg = || config(Some(compacting(dir.clone())));
    match MultiPlatform::resume(&specs(&scs), cfg()) {
        Err(DurabilityError::Corrupt(msg)) => {
            assert!(msg.contains("shard 1") && msg.contains("legacy"), "{msg}");
        }
        other => panic!("expected Corrupt refusal, got {:?}", other.map(|_| ())),
    }
    match MultiPlatform::scrub(&cfg()) {
        Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("legacy"), "{msg}"),
        other => panic!("expected Corrupt refusal, got {other:?}"),
    }
    // A fresh start refuses too, even with every journal emptied.
    for i in 0..N_SHARDS {
        let d = dir.join(format!("shard-{i}"));
        std::fs::write(d.join("hive.wal"), b"").unwrap();
        let _ = std::fs::remove_dir_all(d.join("chain"));
    }
    match MultiPlatform::try_new(&specs(&scs), cfg()) {
        Err(DurabilityError::CampaignExists(d)) => assert_eq!(d, shard),
        other => panic!("expected CampaignExists, got {:?}", other.map(|_| ())),
    }
    assert!(shard.join("hive.snap.prev").exists());
}

/// Both platforms run one round core: a one-program, one-shard
/// multi-platform is the single-program platform, round for round — the
/// same per-round counters, the same hive state bytes and the same pod
/// images (lane 0's pods draw the platform's seeds).
#[test]
fn one_program_multi_platform_matches_platform() {
    use softborg::{Platform, PlatformConfig};
    for s in fleet_scenarios() {
        for seed in [1u64, 7] {
            let pod = softborg::pod::PodConfig {
                input_range: s.input_range,
                ..softborg::pod::PodConfig::default()
            };
            let mut single = Platform::new(
                &s.program,
                PlatformConfig {
                    n_pods: 8,
                    pod: pod.clone(),
                    seed,
                    ..PlatformConfig::default()
                },
            );
            let mut multi = MultiPlatform::new(
                &[FleetSpec {
                    program: &s.program,
                    pod,
                }],
                MultiPlatformConfig {
                    n_pods: 8,
                    n_shards: 1,
                    seed,
                    ..MultiPlatformConfig::default()
                },
            );
            let what = format!("{} seed {seed}", s.name);
            for round in 0..6 {
                let a = single.round(24);
                let b = multi.round(24);
                let lane = &b.programs[0];
                assert_eq!(
                    (
                        a.executions,
                        a.failures,
                        a.fixes_promoted,
                        a.overlay_version,
                        a.directed
                    ),
                    (
                        b.executions,
                        b.failures,
                        b.fixes_promoted,
                        lane.overlay_version,
                        lane.directed
                    ),
                    "{what}: round {round} counters diverged"
                );
                let hive = multi.sharded().hive(s.program.id()).unwrap();
                assert_eq!(
                    single.hive_state(),
                    hive.encode_state(),
                    "{what}: round {round} hive state diverged"
                );
                assert_eq!(
                    single.export_pod_states(),
                    multi.export_pod_states()[0],
                    "{what}: round {round} pod images diverged"
                );
            }
        }
    }
}

/// A fleet with no pods runs empty rounds on both platforms: guidance
/// still plans (so a resumed campaign reaches the same hive state) but
/// has no pod to send directives to.
#[test]
fn zero_pod_fleets_run_empty_rounds_on_both_platforms() {
    use softborg::{Platform, PlatformConfig};
    let scs = fleet_scenarios();
    let s = &scs[0];
    let single_cfg = |dir: PathBuf| PlatformConfig {
        n_pods: 0,
        pod: softborg::pod::PodConfig {
            input_range: s.input_range,
            ..softborg::pod::PodConfig::default()
        },
        durability: Some(DurabilityConfig::new(dir)),
        ..PlatformConfig::default()
    };
    let dir = campaign_dir("zero-pods-single");
    let mut single = Platform::new(&s.program, single_cfg(dir.clone()));
    for _ in 0..3 {
        let r = single.round(10);
        assert_eq!((r.executions, r.failures, r.directed), (0, 0, 0));
    }
    let (resumed, _) = Platform::resume(&s.program, single_cfg(dir.clone())).unwrap();
    assert_eq!(resumed.committed_rounds(), 3);
    assert_eq!(resumed.hive_state(), single.hive_state());
    let _ = std::fs::remove_dir_all(dir);

    let mut multi = MultiPlatform::new(
        &specs(&scs),
        MultiPlatformConfig {
            n_pods: 0,
            ..config(None)
        },
    );
    for _ in 0..3 {
        let r = multi.round(10);
        assert_eq!((r.executions, r.failures), (0, 0));
        assert!(r.programs.iter().all(|p| p.directed == 0));
    }
}
