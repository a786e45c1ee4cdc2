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

use crate::durable::{Recovery, ShardStore};
use crate::platform::{
    decode_pod_states, encode_pod_states, io_err, restore_pod_states, CommitStats,
    DurabilityConfig, DurabilityError, IngestSettings, RoundTelemetry,
};
use softborg_fix::{rank, FixCandidate, LabConfig, TestCase, Verdict};
use softborg_guidance::Directive;
use softborg_hive::journal::{
    self, JournalRecord, REC_ABORT, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND, REC_TOMBSTONE,
    SESSION_PROMOTE, SESSION_ROUND,
};
use softborg_hive::{
    outcome_signature, scrub_page_dir, HiveConfig, JournalStore, PageScrub, ScrubReport,
};
use softborg_obs::{ObsHandles, SpanTimer};
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Program, ProgramId};
use softborg_shard::{ShardRunStats, ShardedHive};
use softborg_store::{ChainReport, PageStats, PagedConfig, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::sync::Mutex;

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

/// A round's durable frame log: `(lane, seq, frame)` triples mirrored
/// from the sharded ingest path, shared across pod threads.
type FrameLog = Mutex<Vec<(u64, u64, Vec<u8>)>>;

/// The live durable half of a multi-program campaign.
#[derive(Debug)]
struct MultiDurableState {
    /// One journal + chain per shard, in shard order.
    shards: Vec<ShardStore>,
    /// Next sequence number for `REC_PROMOTE` records (global across
    /// shards, so promotion order is totally ordered).
    promote_seq: u64,
    /// Per-lane frame floors (`lane → next seq`), checkpointed per shard.
    frame_floors: BTreeMap<u64, u64>,
}

/// One program's fleet: the program, its lane, and its pods.
struct Fleet<'p> {
    id: ProgramId,
    program: &'p Program,
    pods: Vec<Pod<'p>>,
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
    /// `(executions, failures, directed)` per lane, in lane order — one
    /// entry per [`LaneTask`] handed to the driver.
    pub per_lane: Vec<(u64, u64, u64)>,
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
    durable: Option<MultiDurableState>,
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
                let pods = (0..config.n_pods)
                    .map(|i| {
                        let mut pc = spec.pod.clone();
                        pc.seed = config
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((lane as u64) << 20)
                            .wrapping_add(u64::from(i) + 1);
                        Pod::new(spec.program, pc)
                    })
                    .collect();
                Fleet {
                    id: spec.program.id(),
                    program: spec.program,
                    pods,
                }
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
            platform.durable = Some(MultiDurableState {
                shards,
                promote_seq: 0,
                frame_floors: BTreeMap::new(),
            });
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
            for rec in &recovery.records {
                match rec.kind {
                    REC_ROUND => {
                        let mut r = codec::Reader::new(&rec.frame);
                        let report = MultiRoundReport::decode(&mut r)
                            .map_err(|e| DurabilityError::Corrupt(format!("round record: {e}")))?;
                        if report.round != committed {
                            // Disconnected suffix (the chain fell back
                            // to an older record); nothing past here
                            // counts.
                            break;
                        }
                        committed += 1;
                    }
                    REC_FRAME | REC_PROMOTE | REC_PODS | REC_TOMBSTONE | REC_ABORT => {}
                    other => {
                        return Err(DurabilityError::Corrupt(format!(
                            "unknown journal record kind {other}"
                        )));
                    }
                }
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
            let mut seg_frames: Vec<&JournalRecord> = Vec::new();
            let mut seg_promotes: Vec<&JournalRecord> = Vec::new();
            let mut seg_pods: BTreeMap<u64, &JournalRecord> = BTreeMap::new();
            let mut offset = sc.recovery.replay_from;
            // End of the last fully-applied round (the truncation
            // boundary if anything uncommitted follows).
            let mut boundary = sc.recovery.replay_from;
            let mut applied_records = 0usize;
            for (idx, rec) in sc.recovery.records.iter().enumerate() {
                if rounds_applied == target {
                    break;
                }
                let rec_end = offset + rec.encoded_len();
                match rec.kind {
                    REC_FRAME => seg_frames.push(rec),
                    REC_PROMOTE => seg_promotes.push(rec),
                    REC_PODS => {
                        seg_pods.insert(rec.session, rec);
                    }
                    REC_TOMBSTONE => {}
                    REC_ABORT => {
                        // Fenced by an earlier recovery: never apply.
                        seg_frames.clear();
                        seg_promotes.clear();
                        seg_pods.clear();
                        boundary = rec_end;
                        applied_records = idx + 1;
                    }
                    REC_ROUND => {
                        let mut r = codec::Reader::new(&rec.frame);
                        let report = MultiRoundReport::decode(&mut r)
                            .map_err(|e| DurabilityError::Corrupt(format!("round record: {e}")))?;
                        if report.round != rounds_applied {
                            break; // disconnected: truncated below
                        }
                        seg_frames.sort_by_key(|r| (r.session, r.seq));
                        for fr in seg_frames.drain(..) {
                            let lane = usize::try_from(fr.session)
                                .ok()
                                .filter(|&l| l < lanes.len());
                            let Some(lane) = lane else {
                                return Err(DurabilityError::Corrupt(format!(
                                    "frame record on unknown lane {}",
                                    fr.session
                                )));
                            };
                            let traces = wire::decode_batch(&fr.frame).map_err(|e| {
                                DurabilityError::Corrupt(format!("frame batch: {e}"))
                            })?;
                            let hive = platform
                                .sharded
                                .hive_mut(lanes[lane])
                                .expect("lane program is placed");
                            for trace in &traces {
                                hive.ingest(trace);
                            }
                            let floor = frame_floors.entry(fr.session).or_insert(0);
                            *floor = (*floor).max(fr.seq + 1);
                        }
                        for pr in seg_promotes.drain(..) {
                            let mut r = codec::Reader::new(&pr.frame);
                            let program = ProgramId(
                                r.u64("promote.program")
                                    .map_err(|e| DurabilityError::Corrupt(e.to_string()))?,
                            );
                            let signature = r
                                .str("promote.signature")
                                .map_err(|e| DurabilityError::Corrupt(e.to_string()))?
                                .to_string();
                            let overlay = softborg_program::Overlay::decode(&mut r)
                                .map_err(|e| DurabilityError::Corrupt(e.to_string()))?;
                            platform
                                .sharded
                                .hive_mut(program)
                                .map_err(|e| {
                                    DurabilityError::Corrupt(format!("promote record: {e}"))
                                })?
                                .promote(
                                    &signature,
                                    &FixCandidate {
                                        overlay,
                                        description: String::new(),
                                    },
                                );
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
                        for (lane, pr) in std::mem::take(&mut seg_pods) {
                            lane_pod_states.insert(lane, decode_pod_states(&pr.frame)?);
                        }
                        rounds_applied += 1;
                        history.push(report);
                        boundary = rec_end;
                        applied_records = idx + 1;
                    }
                    other => {
                        return Err(DurabilityError::Corrupt(format!(
                            "unknown journal record kind {other}"
                        )));
                    }
                }
                offset = rec_end;
            }
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
        platform.durable = Some(MultiDurableState {
            shards: durable_shards,
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
        // 1. Distribute each program's current overlay to its fleet.
        self.distribute_overlays();

        // 2. Execute all fleets through the shared sharded pipeline.
        let frame_log = self
            .durable
            .is_some()
            .then(|| Mutex::new(Vec::<(u64, u64, Vec<u8>)>::new()));
        let per_lane = self.execute_sharded(execs_per_pod, frame_log.as_ref());
        let frames = frame_log
            .map(|m| m.into_inner().expect("frame log poisoned"))
            .unwrap_or_default();

        // 3-6. Fix pipelines, guidance, report, durable commit.
        self.finish_round(per_lane, frames)
    }

    /// Advances one round with execution *driven from outside*, the
    /// multi-program counterpart of
    /// [`Platform::round_driven`](crate::Platform::round_driven):
    /// `driver` receives one [`LaneTask`] per fleet (overlays already
    /// distributed) plus the configured batch size, runs the pods
    /// however it likes, and returns per-lane counters plus every
    /// wire-encoded batch frame as `(lane, seq, frame)` triples in the
    /// pre-partitioned per-lane sequence layout (pod `j` owns slots
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
            "driver must report one (executions, failures, directed) entry per lane"
        );
        let mut frames = drv.frames;
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));
        for (lane, _, frame) in &frames {
            let id = self.fleets[*lane as usize].id;
            let traces = wire::decode_batch(frame).expect("driver produced a corrupt frame");
            let hive = self.sharded.hive_mut(id).expect("fleet program is placed");
            for trace in &traces {
                hive.ingest(trace);
            }
        }
        let frames = if self.durable.is_some() {
            frames
        } else {
            Vec::new()
        };
        self.finish_round(drv.per_lane, frames)
    }

    /// Step 1 of a round: push each program's current overlay to its
    /// fleet.
    fn distribute_overlays(&mut self) {
        if self.config.fixes_enabled {
            for fleet in &mut self.fleets {
                let (overlay, version) = {
                    let (o, v) = self
                        .sharded
                        .hive(fleet.id)
                        .expect("fleet program is placed")
                        .current_overlay();
                    (o.clone(), v)
                };
                for pod in &mut fleet.pods {
                    pod.install_fix(overlay.clone(), version);
                }
            }
        }
    }

    /// Steps 3–6 of a round, shared by [`round`](Self::round) and
    /// [`round_driven`](Self::round_driven): fix pipelines, guidance,
    /// report, durable two-phase commit.
    fn finish_round(
        &mut self,
        per_lane: Vec<(u64, u64, u64)>,
        frames: Vec<(u64, u64, Vec<u8>)>,
    ) -> MultiRoundReport {
        // 3. Per-program fix pipeline. Proposals from every program are
        //    validated concurrently on scoped threads (each against its
        //    own program's round-start overlay), then promoted
        //    sequentially in (lane, proposal) order — deterministic
        //    regardless of scheduling, and replayed from recorded
        //    promotion decisions on resume.
        let mut promoted: Vec<(ProgramId, String, softborg_program::Overlay)> = Vec::new();
        let mut fixes_by_lane = vec![0u64; self.fleets.len()];
        if self.config.fixes_enabled {
            struct Trial {
                lane: usize,
                signature: String,
                candidates: Vec<FixCandidate>,
                failing: Vec<TestCase>,
                passing: Vec<TestCase>,
                base: softborg_program::Overlay,
            }
            let mut trials: Vec<Trial> = Vec::new();
            for (lane, fleet) in self.fleets.iter().enumerate() {
                let hive = self
                    .sharded
                    .hive(fleet.id)
                    .expect("fleet program is placed");
                let base = hive.current_overlay().0.clone();
                for proposal in hive.propose_fixes() {
                    let failing: Vec<TestCase> = fleet
                        .pods
                        .iter()
                        .flat_map(|p| p.failing_cases())
                        .filter(|(_, o)| {
                            outcome_signature(o).as_deref() == Some(proposal.signature.as_str())
                        })
                        .map(|(c, _)| c.clone())
                        .take(16)
                        .collect();
                    let passing: Vec<TestCase> = fleet
                        .pods
                        .iter()
                        .flat_map(|p| p.passing_cases())
                        .take(32)
                        .cloned()
                        .collect();
                    trials.push(Trial {
                        lane,
                        signature: proposal.signature,
                        candidates: proposal.candidates,
                        failing,
                        passing,
                        base: base.clone(),
                    });
                }
            }
            let fleets = &self.fleets;
            let winners: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = trials
                    .iter()
                    .map(|t| {
                        let program = fleets[t.lane].program;
                        s.spawn(move || {
                            rank(
                                program,
                                &t.base,
                                &t.candidates,
                                &t.failing,
                                &t.passing,
                                LabConfig::default(),
                            )
                            .into_iter()
                            .next()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("trial validation thread panicked"))
                    .collect()
            });
            for (t, winner) in trials.iter().zip(winners) {
                let Some((candidate, validation)) = winner else {
                    continue;
                };
                let distribute = match validation.verdict {
                    Verdict::Distribute => true,
                    Verdict::Reject | Verdict::Suggest => {
                        t.signature.starts_with("lock-cycle:")
                            && t.failing.is_empty()
                            && validation.passing_total as usize
                                >= self.config.min_preservation_cases
                            && validation.passing_preserved == validation.passing_total
                    }
                };
                if distribute {
                    let id = self.fleets[t.lane].id;
                    self.sharded
                        .hive_mut(id)
                        .expect("fleet program is placed")
                        .promote(&t.signature, &candidate);
                    if self.durable.is_some() {
                        promoted.push((id, t.signature.clone(), candidate.overlay.clone()));
                    }
                    fixes_by_lane[t.lane] += 1;
                }
            }
        }

        // 4. Guidance, per program.
        if self.config.guidance_enabled {
            for fleet in &mut self.fleets {
                let (plan, _stats) = self
                    .sharded
                    .hive_mut(fleet.id)
                    .expect("fleet program is placed")
                    .guidance();
                if !plan.directives.is_empty() {
                    let n = fleet.pods.len();
                    for (i, d) in plan.directives.into_iter().enumerate() {
                        match d {
                            Directive::InputSeed { .. } => {
                                for k in 0..3usize {
                                    fleet.pods[(i * 3 + k) % n].receive_guidance([d.clone()]);
                                }
                            }
                            other => {
                                fleet.pods[i % n].receive_guidance([other]);
                            }
                        }
                    }
                }
            }
        }

        // 5. Report.
        let programs: Vec<ProgramRoundReport> = self
            .fleets
            .iter()
            .enumerate()
            .map(|(lane, fleet)| {
                let (e, f, d) = per_lane[lane];
                ProgramRoundReport {
                    program: fleet.id.0,
                    executions: e,
                    failures: f,
                    fixes_promoted: fixes_by_lane[lane],
                    overlay_version: self
                        .sharded
                        .hive(fleet.id)
                        .expect("fleet program is placed")
                        .current_overlay()
                        .1,
                    directed: d,
                }
            })
            .collect();
        let executions: u64 = programs.iter().map(|p| p.executions).sum();
        let failures: u64 = programs.iter().map(|p| p.failures).sum();
        let report = MultiRoundReport {
            round: self.round_idx,
            executions,
            failures,
            failure_rate_per_10k: if executions == 0 {
                0.0
            } else {
                failures as f64 * 10_000.0 / executions as f64
            },
            fixes_promoted: fixes_by_lane.iter().sum(),
            programs,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // 6. Durable two-phase commit.
        let obs = self.config.obs.clone();
        let clock = obs.span_clock();
        let commit_hist = obs
            .registry
            .as_ref()
            .map(|r| r.histogram("multi.round_commit_ns"));
        let frames_journaled = frames.len() as u64;
        let promotions_journaled = promoted.len() as u64;
        let commit_span = SpanTimer::start_if(clock.as_ref(), &commit_hist);
        let commit = self
            .commit_round(&report, frames, &promoted)
            .expect("durable round commit failed");
        let commit_ns = commit_span.map_or(0, SpanTimer::stop);
        self.telemetry.push(RoundTelemetry {
            round: report.round,
            commit_ns,
            fsync_ns: commit.fsync_ns,
            frames_journaled,
            promotions_journaled,
            compacted: commit.compacted,
            checkpoint_ns: commit.checkpoint_ns,
            checkpoint_bytes: commit.checkpoint_bytes,
        });
        if let Some(reg) = obs.registry.as_ref() {
            reg.counter("multi.rounds").incr();
            reg.counter("multi.executions").add(report.executions);
            reg.counter("multi.failures").add(report.failures);
            reg.counter("multi.fixes_promoted")
                .add(report.fixes_promoted);
        }
        // Content-determined fields only, so events_hash stays replay-
        // and host-stable.
        obs.recorder.info(
            "multi",
            "round_committed",
            &[
                ("round", report.round),
                ("executions", report.executions),
                ("failures", report.failures),
                ("fixes_promoted", report.fixes_promoted),
            ],
            format_args!(
                "round {} committed: {} executions, {} failures, {} fix(es) promoted",
                report.round, report.executions, report.failures, report.fixes_promoted
            ),
        );
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
    /// — regardless of thread scheduling. Returns `(executions,
    /// failures, directed)` per lane.
    fn execute_sharded(
        &mut self,
        execs_per_pod: u32,
        frame_log: Option<&FrameLog>,
    ) -> Vec<(u64, u64, u64)> {
        let batch = self.config.ingest.batch_size.max(1) as u64;
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let n_lanes = self.fleets.len();
        let MultiPlatform {
            sharded,
            fleets,
            config,
            last_run,
            ..
        } = self;
        let mut units: Vec<(u64, ProgramId, u64, &mut Pod<'p>)> = Vec::new();
        for (lane, fleet) in fleets.iter_mut().enumerate() {
            for (j, pod) in fleet.pods.iter_mut().enumerate() {
                units.push((lane as u64, fleet.id, j as u64, pod));
            }
        }
        let threads = config.ingest.pod_threads.max(1).min(units.len().max(1));
        let chunk_size = units.len().div_ceil(threads).max(1);
        let mut cfg = config.ingest.pipeline.clone();
        if !cfg.obs.is_enabled() {
            // One attach point: platform-level telemetry flows into the
            // sharded ingest stage unless the pipeline has its own sinks.
            cfg.obs = config.obs.clone();
        }
        let (per_unit, stats) = sharded.ingest_frames(&cfg, move |tx| {
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for chunk in units.chunks_mut(chunk_size) {
                    let tx = tx.clone();
                    handles.push(s.spawn(move || {
                        let mut out: Vec<(u64, u64, u64, u64)> = Vec::with_capacity(chunk.len());
                        for (lane, id, pod_index, pod) in chunk {
                            let (mut executions, mut failures, mut directed) = (0u64, 0u64, 0u64);
                            let mut next_seq = *pod_index * frames_per_pod;
                            let mut buf: Vec<softborg_trace::ExecutionTrace> =
                                Vec::with_capacity(batch as usize);
                            let flush =
                                |buf: &mut Vec<softborg_trace::ExecutionTrace>,
                                 next_seq: &mut u64| {
                                    let frame = wire::encode_batch(&*buf);
                                    if let Some(log) = frame_log {
                                        log.lock().expect("frame log poisoned").push((
                                            *lane,
                                            *next_seq,
                                            frame.clone(),
                                        ));
                                    }
                                    tx.submit_for_at(*id, *next_seq, frame)
                                        .expect("lane program is placed");
                                    *next_seq += 1;
                                    buf.clear();
                                };
                            for _ in 0..execs_per_pod {
                                let run = pod.run_once();
                                executions += 1;
                                if run.result.outcome.is_failure() {
                                    failures += 1;
                                }
                                if run.directed {
                                    directed += 1;
                                }
                                buf.push(run.trace);
                                if buf.len() as u64 == batch {
                                    flush(&mut buf, &mut next_seq);
                                }
                            }
                            if !buf.is_empty() {
                                flush(&mut buf, &mut next_seq);
                            }
                            out.push((*lane, executions, failures, directed));
                        }
                        out
                    }));
                }
                drop(tx);
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("pod thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        *last_run = Some(stats);
        let mut per_lane = vec![(0u64, 0u64, 0u64); n_lanes];
        for (lane, e, f, d) in per_unit {
            let entry = &mut per_lane[lane as usize];
            entry.0 += e;
            entry.1 += f;
            entry.2 += d;
        }
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
        mut frames: Vec<(u64, u64, Vec<u8>)>,
        promoted: &[(ProgramId, String, softborg_program::Overlay)],
    ) -> Result<CommitStats, DurabilityError> {
        let obs = self.config.obs.clone();
        let lanes: Vec<ProgramId> = self.fleets.iter().map(|f| f.id).collect();
        if self.durable.is_none() {
            return Ok(CommitStats::default());
        }
        // Capture every fleet's pod population *after* guidance queued
        // next-round directives — the exact state an uninterrupted
        // process carries into the next round.
        let pod_bodies: Vec<Vec<u8>> = self
            .fleets
            .iter()
            .map(|f| encode_pod_states(&f.pods))
            .collect();
        let d = self.durable.as_mut().expect("checked above");
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));

        // Phase A: append everywhere…
        let mut rec = Vec::new();
        for (lane, seq, bytes) in &frames {
            let shard = self
                .sharded
                .map()
                .shard_of(lanes[*lane as usize])
                .expect("lane program is placed");
            rec.clear();
            journal::append_record(&mut rec, REC_FRAME, *lane, *seq, bytes);
            d.shards[shard].journal.append(&rec)?;
            let floor = d.frame_floors.entry(*lane).or_insert(0);
            *floor = (*floor).max(seq + 1);
        }
        for (program, signature, overlay) in promoted {
            let shard = self
                .sharded
                .map()
                .shard_of(*program)
                .expect("promoted program is placed");
            let mut body = Vec::new();
            codec::put_u64(&mut body, program.0);
            codec::put_str(&mut body, signature);
            overlay.encode_into(&mut body);
            rec.clear();
            journal::append_record(&mut rec, REC_PROMOTE, SESSION_PROMOTE, d.promote_seq, &body);
            d.promote_seq += 1;
            d.shards[shard].journal.append(&rec)?;
        }
        for (lane, pod_body) in pod_bodies.iter().enumerate() {
            let shard = self
                .sharded
                .map()
                .shard_of(lanes[lane])
                .expect("lane program is placed");
            rec.clear();
            journal::append_record(&mut rec, REC_PODS, lane as u64, report.round, pod_body);
            d.shards[shard].journal.append(&rec)?;
        }
        let mut body = Vec::new();
        report.encode_into(&mut body);
        rec.clear();
        journal::append_record(&mut rec, REC_ROUND, SESSION_ROUND, report.round, &body);
        for store in &mut d.shards {
            store.journal.append(&rec)?;
        }
        // …then fsync everywhere. A crash between fsyncs leaves some
        // shards one round ahead; resume truncates them back to the
        // minimum (the round was never acked).
        let clock = obs.span_clock();
        let fsync_hist = obs.registry.as_ref().map(|r| r.histogram("hive.fsync_ns"));
        let fsync_span = SpanTimer::start_if(clock.as_ref(), &fsync_hist);
        for store in &mut d.shards {
            store.journal.sync()?;
        }
        let fsync_ns = fsync_span.map_or(0, SpanTimer::stop);

        // Phase B: per-shard checkpoints.
        let mut stats = CommitStats {
            fsync_ns,
            ..CommitStats::default()
        };
        for shard in 0..d.shards.len() {
            if !d.shards[shard].checkpoint_due() {
                continue;
            }
            let started = std::time::Instant::now();
            stats.checkpoint_bytes += write_shard_checkpoint(
                d,
                shard,
                &lanes,
                &mut self.sharded,
                self.round_idx,
                &self.history,
                &pod_bodies,
            )?;
            stats.checkpoint_ns += started.elapsed().as_nanos() as u64;
            stats.compacted = true;
        }
        Ok(stats)
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
        let lanes: Vec<ProgramId> = self.fleets.iter().map(|f| f.id).collect();
        let pod_bodies: Vec<Vec<u8>> = self
            .fleets
            .iter()
            .map(|f| encode_pod_states(&f.pods))
            .collect();
        let d = self
            .durable
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut written = 0;
        for shard in 0..d.shards.len() {
            written += write_shard_checkpoint(
                d,
                shard,
                &lanes,
                &mut self.sharded,
                self.round_idx,
                &self.history,
                &pod_bodies,
            )?;
        }
        Ok(written)
    }
}

/// `shard-<i>/` under the campaign's durability root.
fn shard_dir(dcfg: &DurabilityConfig, shard: usize) -> std::path::PathBuf {
    dcfg.dir.join(format!("shard-{shard}"))
}

/// Appends one checkpoint record to shard `shard`'s chain covering its
/// whole journal, truncates that journal, and resets the shard's delta
/// tracking. The record's session floors and pod populations cover only
/// the lanes whose frames land in this shard's journal. Returns the
/// payload size in bytes.
fn write_shard_checkpoint(
    d: &mut MultiDurableState,
    shard: usize,
    lanes: &[ProgramId],
    sharded: &mut ShardedHive<'_>,
    round_idx: u64,
    history: &[MultiRoundReport],
    lane_pods: &[Vec<u8>],
) -> Result<u64, DurabilityError> {
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
    let shard_pods: Vec<(u64, &[u8])> = lane_pods
        .iter()
        .enumerate()
        .filter(|&(lane, _)| on_shard(lane as u64))
        .map(|(lane, body)| (lane as u64, body.as_slice()))
        .collect();
    let app_meta = encode_multi_app_meta(round_idx, history, &shard_pods);
    let written = d.shards[shard].checkpoint(
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
    Ok(written)
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
    codec::put_u64(&mut buf, round_idx);
    codec::put_u32(&mut buf, history.len() as u32);
    for report in history {
        report.encode_into(&mut buf);
    }
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
    let round_idx = r.u64("multi_app_meta.round_idx")?;
    let n = r.seq_len("multi_app_meta.history", 112)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(MultiRoundReport::decode(&mut r)?);
    }
    let n_lanes = r.seq_len("multi_app_meta.lane_pods", 12)?;
    let mut lane_pods = Vec::with_capacity(n_lanes);
    for _ in 0..n_lanes {
        let lane = r.u64("multi_app_meta.lane")?;
        let body = r.bytes("multi_app_meta.pods")?;
        lane_pods.push((lane, decode_pod_states(body)?));
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "multi_app_meta has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok((round_idx, history, lane_pods))
}
