//! The multi-program platform: several pod fleets, one sharded hive.
//!
//! [`Platform`](crate::Platform) closes the quality-feedback loop for a
//! single program. A real deployment recycles information from *many*
//! programs at once, so a [`MultiPlatform`] runs one pod fleet per
//! program and drives every fleet's traffic through the sharded ingest
//! layer (`softborg-shard`): all fleets share **one** decode+reconstruct
//! worker pool, while each program's hive lives on its deterministic
//! shard and sees its own traces in exact submission order.
//!
//! Durability composes with sharding by construction: each shard owns
//! its own `shard-<i>/` directory (journal + checkpoint chain), and a
//! round commits in two phases — first the round's frames, promotions,
//! and round record are appended and fsynced to **every** shard journal
//! (phase A), only then may any shard checkpoint into its chain (phase
//! B). A crash can therefore leave shards at *different* committed
//! rounds, but never with a checkpoint ahead of another shard's journal;
//! [`MultiPlatform::resume`] recovers every shard, takes the *minimum*
//! committed round as the campaign's truth, and truncates any shard that
//! got ahead (those rounds were never acked). The recovered per-shard
//! state is byte-identical to an uninterrupted run at the same committed
//! round.
//!
//! The round stages — the pod loop, the fix pipeline, guidance dispatch,
//! round telemetry and the journal segment scan — are the ones
//! [`Platform`](crate::Platform) runs, written once in the private
//! `fleet` module (`fleet.rs`): a multi-platform is one fleet per program
//! over a [`ShardedHive`]. What is its own here is the sharded hive and
//! ingest, the journal record bodies (session = lane, promotions carry
//! their program id) and the recovery policy above.

use crate::durable::{Campaign, Recovery, ShardStore};
use crate::fleet::{self, ExecCounts, Fleet, FrameLog, Promotion, SegmentScan};
use crate::platform::{
    decode_pod_states, encode_pod_states, io_err, restore_pod_states, DurabilityConfig,
    DurabilityError, IngestSettings, RoundTelemetry,
};
use softborg_hive::{scrub_page_dir, HiveConfig, JournalStore, PageScrub, ScrubReport};
use softborg_obs::ObsHandles;
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Program, ProgramId};
use softborg_shard::{ShardRunStats, ShardedHive};
use softborg_store::{ChainReport, PageStats, PagedConfig, RecordKind};
use std::collections::BTreeMap;

/// One program's fleet specification: the program plus the pod template
/// its population is built from (each pod gets a derived seed).
#[derive(Debug, Clone)]
pub struct FleetSpec<'p> {
    /// The program this fleet executes.
    pub program: &'p Program,
    /// Template for the fleet's pods.
    pub pod: PodConfig,
}

/// Multi-program platform configuration.
#[derive(Debug, Clone)]
pub struct MultiPlatformConfig {
    /// Pods per program.
    pub n_pods: u32,
    /// Hive shards (each shard serves one or more programs).
    pub n_shards: usize,
    /// Hive configuration (applied to every program's hive).
    pub hive: HiveConfig,
    /// Master seed; pod seeds derive from (seed, lane, pod index).
    pub seed: u64,
    /// Whether hives distribute fixes.
    pub fixes_enabled: bool,
    /// Whether guidance directives are distributed.
    pub guidance_enabled: bool,
    /// Passing cases required before a predicted (zero-failing-case)
    /// deadlock fix may distribute on preservation evidence alone.
    pub min_preservation_cases: usize,
    /// Execution/ingest tuning. `pipelined` is ignored: multi-program
    /// rounds always flow through the sharded pipeline.
    pub ingest: IngestSettings,
    /// Crash-only durability root. Each shard persists under its own
    /// `shard-<i>/` subdirectory of [`DurabilityConfig::dir`].
    pub durability: Option<DurabilityConfig>,
    /// Paged execution-tree storage: each program's tree pages into a
    /// `prog-<id>/` subdirectory of the configured page dir, under the
    /// same resident budget. Byte-identical state with paging on or off.
    pub tree_paging: Option<PagedConfig>,
    /// Telemetry sinks: per-round `multi.*` counters, commit/fsync span
    /// histograms, and `round_committed` events. Passive — shard state
    /// is byte-identical with telemetry on or off.
    pub obs: ObsHandles,
}

impl Default for MultiPlatformConfig {
    fn default() -> Self {
        MultiPlatformConfig {
            n_pods: 20,
            n_shards: 2,
            hive: HiveConfig::default(),
            seed: 0,
            fixes_enabled: true,
            guidance_enabled: true,
            min_preservation_cases: 5,
            ingest: IngestSettings::default(),
            durability: None,
            tree_paging: None,
            obs: ObsHandles::default(),
        }
    }
}

/// One program's slice of a multi-program round.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRoundReport {
    /// Raw program id.
    pub program: u64,
    /// Executions this fleet performed.
    pub executions: u64,
    /// Failures this fleet observed.
    pub failures: u64,
    /// Fixes promoted for this program.
    pub fixes_promoted: u64,
    /// The program's overlay version after the round.
    pub overlay_version: u64,
    /// Directed (guided) executions in this fleet.
    pub directed: u64,
}

/// Metrics for one multi-program round (aggregate + per program).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Total executions across all fleets.
    pub executions: u64,
    /// Total failures across all fleets.
    pub failures: u64,
    /// Aggregate failures per 10k executions.
    pub failure_rate_per_10k: f64,
    /// Total fixes promoted across all programs.
    pub fixes_promoted: u64,
    /// Per-program breakdown, in lane (sorted program id) order.
    pub programs: Vec<ProgramRoundReport>,
}

impl MultiRoundReport {
    /// Serializes the report for durable `REC_ROUND` records.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.round);
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
        codec::put_f64(buf, self.failure_rate_per_10k);
        codec::put_u64(buf, self.fixes_promoted);
        codec::put_u32(buf, self.programs.len() as u32);
        for p in &self.programs {
            codec::put_u64(buf, p.program);
            codec::put_u64(buf, p.executions);
            codec::put_u64(buf, p.failures);
            codec::put_u64(buf, p.fixes_promoted);
            codec::put_u64(buf, p.overlay_version);
            codec::put_u64(buf, p.directed);
        }
    }

    /// Decodes a report written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let round = r.u64("MultiRoundReport.round")?;
        let executions = r.u64("MultiRoundReport.executions")?;
        let failures = r.u64("MultiRoundReport.failures")?;
        let failure_rate_per_10k = r.f64("MultiRoundReport.failure_rate_per_10k")?;
        let fixes_promoted = r.u64("MultiRoundReport.fixes_promoted")?;
        let n = r.seq_len("MultiRoundReport.programs", 40)?;
        let mut programs = Vec::with_capacity(n);
        for _ in 0..n {
            programs.push(ProgramRoundReport {
                program: r.u64("ProgramRoundReport.program")?,
                executions: r.u64("ProgramRoundReport.executions")?,
                failures: r.u64("ProgramRoundReport.failures")?,
                fixes_promoted: r.u64("ProgramRoundReport.fixes_promoted")?,
                overlay_version: r.u64("ProgramRoundReport.overlay_version")?,
                directed: r.u64("ProgramRoundReport.directed")?,
            });
        }
        Ok(MultiRoundReport {
            round,
            executions,
            failures,
            failure_rate_per_10k,
            fixes_promoted,
            programs,
        })
    }
}

/// What [`MultiPlatform::resume`] found and did on one shard.
#[derive(Debug, Clone)]
pub struct ShardResumeReport {
    /// Shard index.
    pub shard: usize,
    /// Committed rounds restored from the shard's chain head alone.
    pub rounds_from_snapshot: u64,
    /// Committed rounds replayed from this shard's journal suffix.
    pub rounds_replayed: u64,
    /// Corrupt/unsynced journal-tail bytes dropped.
    pub wal_tail_dropped: u64,
    /// Intact records discarded because they belong past the campaign's
    /// minimum committed round: an uncommitted partial segment, a round
    /// this shard journaled while another shard's fsync never happened
    /// (the round was never acked), or a suffix disconnected from a
    /// fallback chain record. All are truncated.
    pub records_discarded: u64,
    /// The shard's chain walk: which lineage validated and every
    /// damaged record file found.
    pub chain: ChainReport,
    /// Delta records applied on top of this shard's chain full record.
    pub chain_deltas_applied: u64,
}

/// What [`MultiPlatform::resume`] found and did across all shards.
#[derive(Debug, Clone)]
pub struct MultiResumeReport {
    /// The campaign's recovered committed round: the *minimum* across
    /// shards (a round is acked only once every shard fsynced it).
    pub target_round: u64,
    /// Per-shard recovery detail.
    pub shards: Vec<ShardResumeReport>,
}

/// One fleet's slice of work handed to a
/// [`MultiPlatform::round_driven`] driver.
#[derive(Debug)]
pub struct LaneTask<'a, 'p> {
    /// Lane index (the durable journal session for this fleet's frames).
    pub lane: u64,
    /// The fleet's program id.
    pub program: ProgramId,
    /// The fleet's pods, overlay already distributed.
    pub pods: &'a mut [Pod<'p>],
}

/// What an external driver executed during one
/// [`MultiPlatform::round_driven`] round.
#[derive(Debug, Default)]
pub struct MultiDrivenExecution {
    /// Executions, failures and directed runs per lane, in lane order —
    /// one entry per [`LaneTask`] handed to the driver.
    pub per_lane: Vec<ExecCounts>,
    /// Every wire-encoded batch frame produced, as `(lane, seq, frame)`
    /// in the same layout [`MultiPlatform::round`] journals.
    pub frames: Vec<(u64, u64, Vec<u8>)>,
}

/// The multi-program platform. See the [module docs](self).
pub struct MultiPlatform<'p> {
    sharded: ShardedHive<'p>,
    /// Fleets in lane order (sorted by program id) — lane index is the
    /// durable journal session for that program's frames.
    fleets: Vec<Fleet<'p>>,
    config: MultiPlatformConfig,
    round_idx: u64,
    history: Vec<MultiRoundReport>,
    telemetry: Vec<RoundTelemetry>,
    last_run: Option<ShardRunStats>,
    durable: Option<Campaign>,
}

impl<'p> MultiPlatform<'p> {
    /// Builds the in-memory shell: one sharded hive plus one fleet per
    /// program, lanes sorted by program id.
    fn base(specs: &[FleetSpec<'p>], config: MultiPlatformConfig) -> Self {
        let mut specs: Vec<&FleetSpec<'p>> = specs.iter().collect();
        specs.sort_by_key(|s| s.program.id());
        let programs: Vec<&'p Program> = specs.iter().map(|s| s.program).collect();
        let sharded = ShardedHive::new(&programs, config.n_shards, &config.hive)
            .expect("sharded hive placement failed");
        let fleets = specs
            .iter()
            .enumerate()
            .map(|(lane, spec)| {
                Fleet::new(
                    spec.program,
                    &spec.pod,
                    config.n_pods,
                    config.seed,
                    lane as u64,
                )
            })
            .collect();
        MultiPlatform {
            sharded,
            fleets,
            config,
            round_idx: 0,
            history: Vec::new(),
            telemetry: Vec::new(),
            last_run: None,
            durable: None,
        }
    }

    /// Moves every hive's tree behind the paged store (when
    /// [`MultiPlatformConfig::tree_paging`] is set), one `prog-<id>/`
    /// page directory per program.
    fn enable_tree_paging(&mut self) -> Result<(), DurabilityError> {
        let Some(root) = self.config.tree_paging.clone() else {
            return Ok(());
        };
        for (id, hive) in self.sharded.hives_mut() {
            let mut cfg = root.clone();
            cfg.dir = root.dir.join(format!("prog-{}", id.0));
            hive.enable_tree_paging(cfg)
                .map_err(|e| io_err("page-store", &e))?;
        }
        Ok(())
    }

    /// Builds a multi-program platform. With durability configured this
    /// starts a *fresh* campaign and panics if any shard directory
    /// already holds campaign state (use [`try_new`](Self::try_new) to
    /// handle the error, or [`resume`](Self::resume) to continue).
    ///
    /// # Panics
    ///
    /// On duplicate programs, zero shards, or durable initialization
    /// failure.
    pub fn new(specs: &[FleetSpec<'p>], config: MultiPlatformConfig) -> Self {
        Self::try_new(specs, config).expect("durable multi-platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when any shard directory
    /// already holds chain records, a non-empty journal, or a legacy
    /// `hive.snap`/`hive.snap.prev` snapshot; [`DurabilityError::Io`]
    /// when a shard's journal or chain cannot be opened.
    pub fn try_new(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<Self, DurabilityError> {
        let mut platform = Self::base(specs, config);
        platform.enable_tree_paging()?;
        if let Some(dcfg) = &platform.config.durability {
            let shards = (0..platform.sharded.n_shards())
                .map(|i| ShardStore::create(shard_dir(dcfg, i), dcfg))
                .collect::<Result<_, _>>()?;
            platform.durable = Some(Campaign::new(shards));
        }
        Ok(platform)
    }

    /// Resumes (or cold-starts) a durable multi-program campaign.
    ///
    /// Every shard recovers independently — its checkpoint chain folded
    /// (falling back a lineage if the newest full record is damaged),
    /// then journal replay — and the campaign's committed round is the
    /// **minimum** across shards: a round was acked only once phase A
    /// fsynced it on every shard, so any shard past the minimum holds
    /// rounds that were never acked. Those suffixes (and any uncommitted
    /// partial segment) are truncated, leaving every shard
    /// byte-identical to the uninterrupted run at the recovered round.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a checksummed record decodes to
    /// garbage, or a shard directory holds a legacy `hive.snap` campaign
    /// and no chain.
    pub fn resume(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<(Self, MultiResumeReport), DurabilityError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut platform = Self::base(specs, config);
        let n_shards = platform.sharded.n_shards();
        let lanes: Vec<ProgramId> = platform.fleets.iter().map(|f| f.id).collect();
        let hive_config = platform.config.hive.clone();

        // Pass 1: fold every shard's chain into its hives, scan its
        // journal, and count its committed rounds (checkpoint rounds +
        // connected ROUND records).
        struct ShardScan {
            store: ShardStore,
            recovery: Recovery,
            /// The chain head's decoded meta (round, history, pods).
            meta: Option<MultiAppMeta>,
            committed: u64,
        }
        let mut scans = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let sharded = &mut platform.sharded;
            let (store, recovery) = ShardStore::open(
                shard_dir(&dcfg, i),
                &dcfg,
                &platform.config.obs.recorder,
                Some(i),
                |kind, state| match kind {
                    RecordKind::Full => sharded
                        .decode_shard_state(i, state, &hive_config)
                        .map_err(|e| e.to_string()),
                    RecordKind::Delta => sharded
                        .apply_shard_state_delta(i, state)
                        .map_err(|e| e.to_string()),
                },
            )?;
            let meta = recovery
                .head
                .as_ref()
                .map(|h| decode_multi_app_meta(&h.app_meta))
                .transpose()?;
            let snap_round = meta.as_ref().map_or(0, |m| m.0);
            let mut committed = snap_round;
            let mut scan = SegmentScan::new(&recovery.records, recovery.replay_from);
            while let Some(seg) = scan.next_round(MultiRoundReport::decode)? {
                if seg.report.round != committed {
                    // Disconnected suffix (the chain fell back to an
                    // older record); nothing past here counts.
                    break;
                }
                committed += 1;
            }
            scans.push(ShardScan {
                store,
                recovery,
                meta,
                committed,
            });
        }
        let target = scans.iter().map(|s| s.committed).min().unwrap_or(0);

        // Pass 2: replay each shard's journal up to (exactly) the target
        // round, truncating whatever lies beyond — ahead rounds, partial
        // segments.
        let mut shard_reports = Vec::with_capacity(n_shards);
        let mut durable_shards = Vec::with_capacity(n_shards);
        let mut promote_seq = 0u64;
        let mut frame_floors: BTreeMap<u64, u64> = BTreeMap::new();
        let mut recovered_history: Option<Vec<MultiRoundReport>> = None;
        // Per-lane durable pod populations: seeded from each shard's
        // chain head, then overwritten by committed `REC_PODS` records
        // replayed from that shard's journal suffix.
        let mut lane_pod_states: BTreeMap<u64, Vec<PodState>> = BTreeMap::new();
        for (shard, mut sc) in scans.into_iter().enumerate() {
            let (snap_round, mut history, head_pods) = sc.meta.take().unwrap_or_default();
            if snap_round > target {
                // Phase B runs only after phase A committed on every
                // shard, so a checkpoint can never be ahead of the
                // campaign minimum.
                return Err(DurabilityError::Corrupt(format!(
                    "shard {shard} checkpoint is at round {snap_round} but the campaign minimum \
                     is {target}"
                )));
            }
            lane_pod_states.extend(head_pods);
            if let Some(head) = &sc.recovery.head {
                for (&session, &floor) in &head.sessions {
                    let f = frame_floors.entry(session).or_insert(0);
                    *f = (*f).max(floor);
                }
            }
            let mut rounds_applied = snap_round;
            let mut scan = SegmentScan::new(&sc.recovery.records, sc.recovery.replay_from);
            // End of the last fully-applied round (the truncation
            // boundary if anything uncommitted follows): byte offset and
            // record index.
            let mut boundary = scan.open_start();
            while rounds_applied < target {
                let Some(seg) = scan.next_round(MultiRoundReport::decode)? else {
                    boundary = scan.open_start();
                    break;
                };
                if seg.report.round != rounds_applied {
                    boundary = seg.start;
                    break; // disconnected: truncated below
                }
                let sharded = &mut platform.sharded;
                seg.replay_frames(&mut frame_floors, |session, traces| {
                    let lane = usize::try_from(session)
                        .ok()
                        .filter(|&l| l < lanes.len())
                        .ok_or_else(|| {
                            DurabilityError::Corrupt(format!(
                                "frame record on unknown lane {session}"
                            ))
                        })?;
                    let hive = sharded
                        .hive_mut(lanes[lane])
                        .expect("lane program is placed");
                    traces.iter().for_each(|t| hive.ingest(t));
                    Ok(())
                })?;
                for pr in &seg.promotes {
                    let mut r = codec::Reader::new(&pr.frame);
                    let program = ProgramId(
                        r.u64("promote.program")
                            .map_err(|e| DurabilityError::Corrupt(e.to_string()))?,
                    );
                    let (signature, fix) = fleet::decode_promotion(&mut r)?;
                    platform
                        .sharded
                        .hive_mut(program)
                        .map_err(|e| DurabilityError::Corrupt(format!("promote record: {e}")))?
                        .promote(&signature, &fix);
                    promote_seq = promote_seq.max(pr.seq + 1);
                }
                if platform.config.guidance_enabled {
                    for id in platform.sharded.map().programs_on(shard) {
                        let _ = platform
                            .sharded
                            .hive_mut(id)
                            .expect("placed program")
                            .guidance();
                    }
                }
                for (&lane, pr) in &seg.pods {
                    lane_pod_states.insert(lane, decode_pod_states(&pr.frame)?);
                }
                rounds_applied += 1;
                history.push(seg.report);
                boundary = scan.open_start();
            }
            let (boundary, applied_records) = boundary;
            let records_discarded = (sc.recovery.records.len() - applied_records) as u64;
            if (boundary as u64) < sc.store.journal.len() {
                if records_discarded > 0 {
                    platform.config.obs.recorder.warn_or_ops(
                        "multi.resume",
                        "records_truncated",
                        &[
                            ("shard", shard as u64),
                            ("records", records_discarded),
                            ("target_round", target),
                        ],
                        format_args!(
                            "shard {shard} resume truncating {records_discarded} journal \
                             record(s) past committed round {target}"
                        ),
                    );
                }
                sc.store.journal.truncate(boundary as u64)?;
            }
            if rounds_applied != target {
                return Err(DurabilityError::Corrupt(format!(
                    "shard {shard} replayed to round {rounds_applied} but the campaign minimum \
                     is {target}"
                )));
            }
            if recovered_history.is_none() {
                recovered_history = Some(history);
            }
            shard_reports.push(ShardResumeReport {
                shard,
                chain: sc.recovery.chain,
                chain_deltas_applied: sc.recovery.deltas_applied,
                rounds_from_snapshot: snap_round,
                rounds_replayed: rounds_applied - snap_round,
                wal_tail_dropped: sc.recovery.tail_dropped,
                records_discarded,
            });
            durable_shards.push(sc.store);
        }

        // Paging attaches only after every shard's state is final:
        // decode_shard_state replaces whole hives, so an earlier enable
        // would be silently discarded.
        platform.enable_tree_paging()?;

        // Process equivalence: install every fleet's freshest committed
        // pod images (journal beats checkpoint; lanes with no durable
        // record — a cold campaign — keep their seed-derived round-0
        // population).
        for (lane, fleet) in platform.fleets.iter_mut().enumerate() {
            if let Some(states) = lane_pod_states.remove(&(lane as u64)) {
                restore_pod_states(&mut fleet.pods, states)?;
            }
        }
        if let Some((&lane, _)) = lane_pod_states.iter().next() {
            return Err(DurabilityError::Corrupt(format!(
                "durable pod states reference unknown lane {lane}"
            )));
        }

        platform.round_idx = target;
        platform.history = recovered_history.unwrap_or_default();
        platform.durable = Some(Campaign {
            stores: durable_shards,
            promote_seq,
            frame_floors,
        });
        Ok((
            platform,
            MultiResumeReport {
                target_round: target,
                shards: shard_reports,
            },
        ))
    }

    /// The sharded hive (read access for experiments).
    pub fn sharded(&self) -> &ShardedHive<'p> {
        &self.sharded
    }

    /// Program ids in lane order (lane index = durable frame session).
    pub fn programs(&self) -> Vec<ProgramId> {
        self.fleets.iter().map(|f| f.id).collect()
    }

    /// All round reports so far.
    pub fn history(&self) -> &[MultiRoundReport] {
        &self.history
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.round_idx
    }

    /// Sharded-run statistics from the most recent round, if any.
    pub fn last_run(&self) -> Option<&ShardRunStats> {
        self.last_run.as_ref()
    }

    /// Paged-tree counters summed over every program's execution tree
    /// (all zeros when [`MultiPlatformConfig::tree_paging`] is off).
    pub fn page_stats(&self) -> PageStats {
        let mut total = PageStats::default();
        for (_, hive) in self.sharded.hives() {
            let s = hive.tree().page_stats();
            total.faults += s.faults;
            total.evictions += s.evictions;
            total.writes += s.writes;
            total.pages_trusted += s.pages_trusted;
            total.resident_pages += s.resident_pages;
            total.total_pages += s.total_pages;
            total.total_items += s.total_items;
            total.resident_items += s.resident_items;
        }
        total
    }

    /// Per-round telemetry for every round this *process* ran, parallel
    /// to [`history`](Self::history) but never journaled (resumed rounds
    /// therefore have no entries — see [`RoundTelemetry`]).
    pub fn round_telemetry(&self) -> &[RoundTelemetry] {
        &self.telemetry
    }

    /// The configuration the platform was built with (telemetry sinks
    /// included — the simulator paths use this to retime the attached
    /// flight recorder onto virtual time).
    pub fn config(&self) -> &MultiPlatformConfig {
        &self.config
    }

    /// Serialized state of shard `shard` — the byte-identity invariant
    /// checked by the kill/restart harness.
    ///
    /// # Panics
    ///
    /// On an out-of-range shard index.
    pub fn shard_state(&self, shard: usize) -> Vec<u8> {
        self.sharded
            .encode_shard_state(shard)
            .expect("shard index in range")
    }

    /// Exports every fleet's durable pod images, in lane order — the
    /// pod half of the process-equivalence invariant checked by the
    /// kill/restart harness.
    pub fn export_pod_states(&self) -> Vec<Vec<PodState>> {
        self.fleets
            .iter()
            .map(|f| f.pods.iter().map(Pod::export_state).collect())
            .collect()
    }

    /// Scrubs every shard's durable files for bit rot *before*
    /// resuming, in shard order — the multi-shard analogue of
    /// [`Platform::scrub`](crate::Platform::scrub). Returns one
    /// [`ScrubReport`] per shard.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// otherwise the first failing shard's error (I/O, or a shard whose
    /// durable data was entirely destroyed).
    pub fn scrub(config: &MultiPlatformConfig) -> Result<Vec<ScrubReport>, DurabilityError> {
        let dcfg = config
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut reports = Vec::with_capacity(config.n_shards);
        for i in 0..config.n_shards {
            reports.push(ShardStore::scrub(
                &shard_dir(dcfg, i),
                &config.obs.recorder,
                Some(i),
            )?);
        }
        // Page stores are per program (`prog-<id>/` under the paging
        // root), not per shard; their merged verdict rides on the first
        // shard's report.
        if let Some(pcfg) = &config.tree_paging {
            let mut merged = PageScrub {
                pages_valid: 0,
                quarantined: Vec::new(),
            };
            let mut prog_dirs: Vec<std::path::PathBuf> = match std::fs::read_dir(&pcfg.dir) {
                Ok(entries) => entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.is_dir()
                            && p.file_name()
                                .is_some_and(|n| n.to_string_lossy().starts_with("prog-"))
                    })
                    .collect(),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(io_err("page-root", &e)),
            };
            prog_dirs.sort();
            for dir in prog_dirs {
                let sub = scrub_page_dir(&dir, &config.obs.recorder)?;
                merged.pages_valid += sub.pages_valid;
                let prefix = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                merged
                    .quarantined
                    .extend(sub.quarantined.into_iter().map(|f| format!("{prefix}/{f}")));
            }
            if let Some(first) = reports.first_mut() {
                first.pages = Some(merged);
            }
        }
        Ok(reports)
    }

    /// Advances one round: distribute overlays, execute every fleet
    /// through the sharded pipeline, validate and promote fixes per
    /// program, distribute guidance, and (when durable) commit the round
    /// to every shard journal before returning the report.
    pub fn round(&mut self, execs_per_pod: u32) -> MultiRoundReport {
        self.distribute_overlays();
        let log = FrameLog::new(self.durable.is_some());
        let per_lane = self.execute_sharded(execs_per_pod, &log);
        self.finish_round(per_lane, log.into_frames())
    }

    /// Advances one round with execution *driven from outside*, the
    /// multi-program counterpart of
    /// [`Platform::round_driven`](crate::Platform::round_driven):
    /// `driver` receives one [`LaneTask`] per fleet (overlays already
    /// distributed) plus the configured batch size, runs the pods
    /// however it likes, and returns per-lane counters plus every
    /// wire-encoded batch frame as `(lane, seq, frame)` triples in the
    /// pre-partitioned per-lane sequence layout of
    /// [`PodBatcher`](crate::PodBatcher) (pod `j` owns slots
    /// `j*k..(j+1)*k`, `k = ceil(execs_per_pod / batch)`).
    ///
    /// Frames are ingested in `(lane, seq)` order — each lane's order is
    /// exactly the sharded merger's release order and the durable resume
    /// replay order — then the identical fix / guidance / report /
    /// commit pipeline runs.
    ///
    /// # Panics
    ///
    /// Panics when the driver returns the wrong number of per-lane
    /// entries, an out-of-range lane, or a frame that fails wire
    /// validation — driver bugs, not input conditions.
    pub fn round_driven<F>(&mut self, driver: F) -> MultiRoundReport
    where
        F: for<'a> FnOnce(Vec<LaneTask<'a, 'p>>, u64) -> MultiDrivenExecution,
    {
        self.distribute_overlays();
        let batch = self.config.ingest.batch_size.max(1) as u64;
        let n_lanes = self.fleets.len();
        let tasks: Vec<LaneTask<'_, 'p>> = self
            .fleets
            .iter_mut()
            .enumerate()
            .map(|(lane, fleet)| LaneTask {
                lane: lane as u64,
                program: fleet.id,
                pods: &mut fleet.pods,
            })
            .collect();
        let drv = driver(tasks, batch);
        assert_eq!(
            drv.per_lane.len(),
            n_lanes,
            "driver must report one ExecCounts entry per lane"
        );
        let mut frames = drv.frames;
        let lanes = self.programs();
        fleet::ingest_driven(&mut self.sharded, &mut frames, |lane| lanes[lane as usize]);
        if self.durable.is_none() {
            frames.clear();
        }
        self.finish_round(drv.per_lane, frames)
    }

    /// Step 1 of a round: push each program's current overlay to its
    /// fleet.
    fn distribute_overlays(&mut self) {
        fleet::distribute_overlays(&mut self.fleets, &self.sharded, self.config.fixes_enabled);
    }

    /// Steps 3–6 of a round, shared by [`round`](Self::round) and
    /// [`round_driven`](Self::round_driven): fix pipelines, guidance,
    /// report, durable two-phase commit.
    fn finish_round(
        &mut self,
        per_lane: Vec<ExecCounts>,
        frames: Vec<fleet::Frame>,
    ) -> MultiRoundReport {
        let promoted = fleet::fix_and_guide(
            &mut self.fleets,
            &mut self.sharded,
            self.config.fixes_enabled,
            self.config.guidance_enabled,
            self.config.min_preservation_cases,
        );
        let mut fixes_by_lane = vec![0u64; self.fleets.len()];
        for p in &promoted {
            fixes_by_lane[p.lane] += 1;
        }
        let programs: Vec<ProgramRoundReport> = self
            .fleets
            .iter()
            .zip(&per_lane)
            .zip(&fixes_by_lane)
            .map(|((fleet, counts), &fixes_promoted)| ProgramRoundReport {
                program: fleet.id.0,
                executions: counts.executions,
                failures: counts.failures,
                fixes_promoted,
                overlay_version: self
                    .sharded
                    .hive(fleet.id)
                    .expect("fleet program is placed")
                    .current_overlay()
                    .1,
                directed: counts.directed,
            })
            .collect();
        let executions: u64 = programs.iter().map(|p| p.executions).sum();
        let failures: u64 = programs.iter().map(|p| p.failures).sum();
        let report = MultiRoundReport {
            round: self.round_idx,
            executions,
            failures,
            failure_rate_per_10k: fleet::failure_rate_per_10k(executions, failures),
            fixes_promoted: promoted.len() as u64,
            programs,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // Durable two-phase commit.
        let obs = self.config.obs.clone();
        let r = &report;
        let totals = [r.round, r.executions, r.failures, r.fixes_promoted];
        let telemetry = fleet::commit_observed(&obs, "multi", totals, &[], || {
            self.commit_round(r, frames, &promoted)
        });
        self.telemetry.push(telemetry);
        report
    }

    /// Runs `rounds` rounds and returns the full history.
    pub fn run(&mut self, rounds: u32, execs_per_pod: u32) -> &[MultiRoundReport] {
        for _ in 0..rounds {
            self.round(execs_per_pod);
        }
        self.history()
    }

    /// Executes every fleet's pods on scoped threads, submitting batch
    /// frames into pre-partitioned per-program sequence slots (pod `j`
    /// of a fleet owns slots `j*k..(j+1)*k`), so each program's merge
    /// order is pod-major — byte-identical to a serial per-program loop
    /// — regardless of thread scheduling. Returns the counts per lane.
    fn execute_sharded(&mut self, execs_per_pod: u32, log: &FrameLog) -> Vec<ExecCounts> {
        let batch = self.config.ingest.batch_size.max(1) as u64;
        let pod_threads = self.config.ingest.pod_threads;
        let cfg = fleet::pipeline_config(&self.config.ingest.pipeline, &self.config.obs);
        let lanes = self.programs();
        let fleets = &mut self.fleets;
        let (per_lane, stats) = self.sharded.ingest_frames(&cfg, move |tx| {
            fleet::execute_threaded(
                fleets,
                execs_per_pod,
                batch,
                pod_threads,
                tx,
                |tx, lane, _, seq, frame| {
                    log.push(lane as u64, seq, &frame);
                    tx.submit_for_at(lanes[lane], seq, frame)
                        .expect("lane program is placed");
                },
            )
        });
        self.last_run = Some(stats);
        per_lane
    }

    /// Commits one round durably. Phase A: append this round's frames
    /// (per-lane, in merge order), promotions, and the round record to
    /// **every** shard journal, then fsync them all — only after every
    /// fsync is the round acked. Phase B: per-shard checkpoints, which
    /// can therefore never capture a round some journal lacks. Returns
    /// the commit's telemetry slice (fsync is timed only when a registry
    /// is attached; the checkpoint stall is always timed).
    fn commit_round(
        &mut self,
        report: &MultiRoundReport,
        frames: Vec<fleet::Frame>,
        promoted: &[Promotion],
    ) -> Result<RoundTelemetry, DurabilityError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(RoundTelemetry::default());
        };
        let mut stats = RoundTelemetry {
            frames_journaled: frames.len() as u64,
            promotions_journaled: promoted.len() as u64,
            ..RoundTelemetry::default()
        };
        let fleets = &self.fleets;
        let map = self.sharded.map();
        let shard_of = |lane: usize| {
            map.shard_of(fleets[lane].id)
                .expect("lane program is placed")
        };
        // Capture every fleet's pod population *after* guidance queued
        // next-round directives — the exact state an uninterrupted
        // process carries into the next round.
        let pod_bodies: Vec<Vec<u8>> = self
            .fleets
            .iter()
            .map(|f| encode_pod_states(&f.pods))
            .collect();
        let pods: Vec<(usize, u64, &[u8])> = pod_bodies
            .iter()
            .enumerate()
            .map(|(lane, body)| (shard_of(lane), lane as u64, body.as_slice()))
            .collect();
        let promotions = promoted
            .iter()
            .map(|p| {
                let mut body = Vec::new();
                codec::put_u64(&mut body, fleets[p.lane].id.0);
                p.encode_into(&mut body);
                (shard_of(p.lane), body)
            })
            .collect();
        let frames = frames
            .into_iter()
            .map(|f| (shard_of(f.0 as usize), f))
            .collect();
        let mut body = Vec::new();
        report.encode_into(&mut body);
        let round = (report.round, body.as_slice());
        stats.fsync_ns = d.journal_round(frames, promotions, &pods, round, &self.config.obs)?;
        self.checkpoint_shards(&pod_bodies, true, &mut stats)?;
        Ok(stats)
    }

    /// Appends a checkpoint record to every shard's chain — only to the
    /// shards whose journal outgrew its chain footprint when `due_only`
    /// (phase B of a commit) — truncates those journals, resets their
    /// delta tracking, and adds the bytes and stall to `stats`. A
    /// record's session floors and pod populations cover only the lanes
    /// whose frames land in that shard's journal.
    fn checkpoint_shards(
        &mut self,
        pod_bodies: &[Vec<u8>],
        due_only: bool,
        stats: &mut RoundTelemetry,
    ) -> Result<(), DurabilityError> {
        let lanes = self.programs();
        let d = self
            .durable
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let sharded = &mut self.sharded;
        for shard in 0..d.stores.len() {
            if due_only && !d.stores[shard].checkpoint_due() {
                continue;
            }
            let started = std::time::Instant::now();
            let on_shard = |lane: u64| {
                lanes
                    .get(lane as usize)
                    .is_some_and(|&id| sharded.map().shard_of(id) == Ok(shard))
            };
            let sessions: BTreeMap<u64, u64> = d
                .frame_floors
                .iter()
                .filter(|(&lane, _)| on_shard(lane))
                .map(|(&lane, &floor)| (lane, floor))
                .collect();
            let shard_pods: Vec<(u64, &[u8])> = (0..pod_bodies.len() as u64)
                .filter(|&lane| on_shard(lane))
                .map(|lane| (lane, pod_bodies[lane as usize].as_slice()))
                .collect();
            let app_meta = encode_multi_app_meta(self.round_idx, &self.history, &shard_pods);
            stats.checkpoint_bytes += d.stores[shard].checkpoint(
                |kind| {
                    match kind {
                        RecordKind::Full => sharded.encode_shard_state(shard),
                        RecordKind::Delta => sharded.encode_shard_state_delta(shard),
                    }
                    .expect("shard index in range")
                },
                sessions,
                app_meta,
                true,
            )?;
            sharded.mark_shard_clean(shard);
            stats.checkpoint_ns += started.elapsed().as_nanos() as u64;
            stats.compacted = true;
        }
        Ok(())
    }

    /// On-demand checkpoint of every shard: each folds its journal into
    /// a fresh chain record (full or delta) and truncates it. Returns
    /// the payload bytes written, summed over shards.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] on a non-durable platform;
    /// [`DurabilityError::Io`] when a chain append fails.
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        let pod_bodies: Vec<Vec<u8>> = self
            .fleets
            .iter()
            .map(|f| encode_pod_states(&f.pods))
            .collect();
        let mut stats = RoundTelemetry::default();
        self.checkpoint_shards(&pod_bodies, false, &mut stats)?;
        Ok(stats.checkpoint_bytes)
    }
}

/// `shard-<i>/` under the campaign's durability root.
fn shard_dir(dcfg: &DurabilityConfig, shard: usize) -> std::path::PathBuf {
    dcfg.dir.join(format!("shard-{shard}"))
}

/// Shard-checkpoint `app_meta` payload: committed-round counter, the full
/// multi-round history, and this shard's lanes' durable pod populations
/// (`u32 count` then `u64 lane | bytes` per lane), in the deterministic
/// byte codec.
fn encode_multi_app_meta(
    round_idx: u64,
    history: &[MultiRoundReport],
    lane_pods: &[(u64, &[u8])],
) -> Vec<u8> {
    let mut buf = Vec::new();
    fleet::encode_history(&mut buf, round_idx, history, MultiRoundReport::encode_into);
    codec::put_u32(&mut buf, lane_pods.len() as u32);
    for (lane, body) in lane_pods {
        codec::put_u64(&mut buf, *lane);
        codec::put_bytes(&mut buf, body);
    }
    buf
}

type MultiAppMeta = (u64, Vec<MultiRoundReport>, Vec<(u64, Vec<PodState>)>);

fn decode_multi_app_meta(bytes: &[u8]) -> Result<MultiAppMeta, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let labels = ["multi_app_meta.round_idx", "multi_app_meta.history"];
    let (round_idx, history) = fleet::decode_history(&mut r, labels, MultiRoundReport::decode)?;
    let n_lanes = r.seq_len("multi_app_meta.lane_pods", 12)?;
    let mut lane_pods = Vec::with_capacity(n_lanes);
    for _ in 0..n_lanes {
        let lane = r.u64("multi_app_meta.lane")?;
        let body = r.bytes("multi_app_meta.pods")?;
        lane_pods.push((lane, decode_pod_states(body)?));
    }
    fleet::expect_end(&r, "multi_app_meta")?;
    Ok((round_idx, history, lane_pods))
}
