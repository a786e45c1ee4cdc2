//! The SoftBorg platform: the closed quality-feedback loop of Figure 1.
//!
//! A [`Platform`] owns a hive and a population of pods for one program
//! and advances in *rounds*. Each round: pods execute on behalf of their
//! users and ship traces; the hive aggregates, diagnoses, and proposes
//! fixes; candidates are validated on trial pods' locally-retained cases
//! (the privacy-preserving repair lab); validated fixes are promoted and
//! distributed; and guidance directives steer the next round's
//! executions. The headline experiment E1 charts the population failure
//! rate across rounds — "the more a program is used, the more reliable
//! it should become" (§2).
//!
//! The round stages themselves — the pod loop, the fix pipeline,
//! guidance dispatch, round telemetry and the journal segment scan —
//! live in the private `fleet` module (`fleet.rs`), shared with
//! [`MultiPlatform`](crate::MultiPlatform): a platform is one fleet over
//! one [`Hive`]. What is its own here is the hive, the pipelined ingest,
//! the journal record bodies (session = pod index) and the recovery
//! policy, which fences a partial round behind `REC_ABORT`.

use crate::durable::{Campaign, ShardStore};
use crate::fleet::{self, ExecCounts, Fleet, FrameLog, Promotion, SegmentScan};
use serde::{Deserialize, Serialize};
use softborg_hive::journal::{self, REC_ABORT, SESSION_ROUND};
use softborg_hive::{
    diagnosis_signature, scrub_page_dir, Hive, HiveConfig, JournalIoError, JournalStore,
    ScrubError, ScrubReport,
};
use softborg_ingest::{IngestConfig, IngestStats};
use softborg_obs::ObsHandles;
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::Program;
use softborg_store::{ChainReport, PageStats, PagedConfig, RecordKind};
use softborg_tree::CoverageStats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Population size.
    pub n_pods: u32,
    /// Template for every pod (each pod gets a derived seed).
    pub pod: PodConfig,
    /// Hive configuration.
    pub hive: HiveConfig,
    /// Master seed.
    pub seed: u64,
    /// Whether the hive distributes fixes (off = observation only; the
    /// E1 control arm).
    pub fixes_enabled: bool,
    /// Whether guidance directives are distributed.
    pub guidance_enabled: bool,
    /// Passing cases required before a *predicted* (zero-failing-case)
    /// deadlock fix may be distributed on preservation evidence alone.
    pub min_preservation_cases: usize,
    /// How round executions report into the hive.
    pub ingest: IngestSettings,
    /// Crash-only durability: when set, every round is committed to a
    /// write-ahead journal (with periodic delta-chain checkpoints) before
    /// its report is returned, and a killed process can continue the
    /// campaign via [`Platform::resume`]. `None` = in-memory only.
    pub durability: Option<DurabilityConfig>,
    /// Paged execution-tree storage: when set, cold tree pages are
    /// evicted to checksummed page files under the configured resident
    /// budget and faulted back transparently. Paging is pure storage —
    /// merges, traversals, snapshots, and deltas are byte-identical with
    /// paging on or off. `None` = fully in-memory tree.
    pub tree_paging: Option<PagedConfig>,
    /// Telemetry sinks: per-round `platform.*` counters, commit/fsync
    /// span histograms, and `round_committed` flight-recorder events.
    /// Telemetry is passive — it never changes what a round computes or
    /// journals, so platform state is byte-identical on or off.
    pub obs: ObsHandles,
}

/// Where and how a durable campaign persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the campaign's `hive.wal` journal and its
    /// `chain/` subdirectory of checkpoint records (created if absent).
    pub dir: PathBuf,
    /// Checkpoint trigger: checkpoint when the journal is at least this
    /// many times larger than the chain's footprint (its newest full
    /// record plus every delta since). `0` disables automatic
    /// checkpoints.
    pub compact_ratio: u64,
    /// Journal size below which a checkpoint never triggers, so tiny
    /// campaigns don't churn chain records every round.
    pub min_compact_wal_bytes: u64,
    /// Delta-snapshot chain policy. Every checkpoint appends one
    /// checksummed full or delta record to `chain/`, so a checkpoint
    /// writes O(changes since the last one), not O(hive). `None` means
    /// [`ChainSettings::default()`].
    pub chain: Option<ChainSettings>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default checkpoint policy
    /// (checkpoint once the journal exceeds 4× the chain footprint and
    /// 64 KiB) and the default chain settings.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            compact_ratio: 4,
            min_compact_wal_bytes: 64 * 1024,
            chain: None,
        }
    }

    /// The chain policy in force: [`chain`](Self::chain), or the
    /// defaults when it is `None`.
    pub(crate) fn chain_settings(&self) -> ChainSettings {
        self.chain.clone().unwrap_or_default()
    }
}

/// Delta-snapshot chain policy.
#[derive(Debug, Clone)]
pub struct ChainSettings {
    /// Full-rebase trigger: append a fresh full record once accumulated
    /// delta payload bytes exceed this many times the newest full's
    /// size, bounding chain length and recovery work. `0` = never rebase
    /// (deltas forever; only sensible in fault harnesses).
    pub rebase_ratio: u64,
    /// **Injected bug** — resume silently drops the newest delta record
    /// when folding the chain, rebuilding state one checkpoint stale
    /// while trusting the head's metadata (the `skip_delta` canary for
    /// the durable fault-search campaign). Must stay `false` outside
    /// fault harnesses.
    pub skip_last_delta: bool,
}

impl Default for ChainSettings {
    fn default() -> Self {
        ChainSettings {
            rebase_ratio: 4,
            skip_last_delta: false,
        }
    }
}

/// Why a durable platform could not be created or resumed, or why a
/// durable round commit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// The operation requires [`PlatformConfig::durability`] to be set.
    NotConfigured,
    /// [`Platform::try_new`] found campaign state already on disk; use
    /// [`Platform::resume`] instead of silently clobbering it.
    CampaignExists(PathBuf),
    /// An underlying journal or chain I/O operation failed.
    Io(JournalIoError),
    /// A durable record decoded to garbage (wrong program, torn bytes
    /// that passed no checksum, or a version this build cannot read).
    Corrupt(String),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::NotConfigured => {
                write!(f, "platform has no durability configuration")
            }
            DurabilityError::CampaignExists(dir) => write!(
                f,
                "campaign state already exists in {} (resume it instead)",
                dir.display()
            ),
            DurabilityError::Io(e) => write!(f, "durability I/O failure: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "durable state corrupt: {what}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<JournalIoError> for DurabilityError {
    fn from(e: JournalIoError) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Corrupt(e.to_string())
    }
}

impl From<ScrubError> for DurabilityError {
    fn from(e: ScrubError) -> Self {
        match e {
            ScrubError::Io(io) => DurabilityError::Io(io),
            ScrubError::NothingRecoverable => {
                DurabilityError::Corrupt(ScrubError::NothingRecoverable.to_string())
            }
        }
    }
}

pub(crate) fn io_err(op: &'static str, e: &std::io::Error) -> DurabilityError {
    DurabilityError::Io(JournalIoError {
        op,
        kind: e.kind(),
        msg: e.to_string(),
    })
}

/// How a round's executions flow into the hive.
#[derive(Debug, Clone)]
pub struct IngestSettings {
    /// `true`: pods run on scoped threads and report through the staged
    /// ingest pipeline (wire-encoded batch frames, decode+reconstruct
    /// worker pool, ordered merger) while they execute. `false`:
    /// [`Platform::round`] runs the built-in serial driver through
    /// [`Platform::round_driven`] — pods one after another, then their
    /// frames ingested in merge order. Both produce byte-identical hive
    /// state and journals.
    pub pipelined: bool,
    /// Threads executing pods (pods are partitioned into contiguous
    /// chunks, one per thread).
    pub pod_threads: usize,
    /// Traces bundled per batch frame.
    pub batch_size: usize,
    /// Pipeline tuning (workers, queue bounds, backpressure, memo).
    pub pipeline: IngestConfig,
}

impl Default for IngestSettings {
    fn default() -> Self {
        IngestSettings {
            pipelined: true,
            pod_threads: 2,
            batch_size: 32,
            pipeline: IngestConfig::default(),
        }
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            n_pods: 50,
            pod: PodConfig::default(),
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

/// Metrics for one platform round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Executions performed this round.
    pub executions: u64,
    /// Failures observed this round.
    pub failures: u64,
    /// Failures per 10k executions this round.
    pub failure_rate_per_10k: f64,
    /// Fixes promoted this round.
    pub fixes_promoted: u64,
    /// Overlay version after the round.
    pub overlay_version: u64,
    /// Tree coverage after the round.
    pub coverage: CoverageStats,
    /// Published proof certificates after the round.
    pub proofs: u64,
    /// Directed (guided) executions this round.
    pub directed: u64,
}

impl RoundReport {
    /// Serializes the report for the durable journal's `REC_ROUND`
    /// record (floats as IEEE-754 bit patterns, so the roundtrip is
    /// exact).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.round);
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
        codec::put_f64(buf, self.failure_rate_per_10k);
        codec::put_u64(buf, self.fixes_promoted);
        codec::put_u64(buf, self.overlay_version);
        codec::put_u64(buf, self.coverage.nodes);
        codec::put_u64(buf, self.coverage.distinct_paths);
        codec::put_u64(buf, self.coverage.sites_seen);
        codec::put_u64(buf, self.coverage.paths_merged);
        codec::put_u64(buf, self.coverage.frontier_arms);
        codec::put_f64(buf, self.coverage.closed_fraction);
        codec::put_u64(buf, self.proofs);
        codec::put_u64(buf, self.directed);
    }

    /// Decodes a report written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        Ok(RoundReport {
            round: r.u64("RoundReport.round")?,
            executions: r.u64("RoundReport.executions")?,
            failures: r.u64("RoundReport.failures")?,
            failure_rate_per_10k: r.f64("RoundReport.failure_rate_per_10k")?,
            fixes_promoted: r.u64("RoundReport.fixes_promoted")?,
            overlay_version: r.u64("RoundReport.overlay_version")?,
            coverage: CoverageStats {
                nodes: r.u64("CoverageStats.nodes")?,
                distinct_paths: r.u64("CoverageStats.distinct_paths")?,
                sites_seen: r.u64("CoverageStats.sites_seen")?,
                paths_merged: r.u64("CoverageStats.paths_merged")?,
                frontier_arms: r.u64("CoverageStats.frontier_arms")?,
                closed_fraction: r.f64("CoverageStats.closed_fraction")?,
            },
            proofs: r.u64("RoundReport.proofs")?,
            directed: r.u64("RoundReport.directed")?,
        })
    }
}

/// What [`Platform::resume`] found and did, for recovery observability.
#[derive(Debug, Clone)]
pub struct ResumeReport {
    /// Committed rounds restored from the chain head alone.
    pub rounds_from_snapshot: u64,
    /// Committed rounds replayed from the journal suffix.
    pub rounds_replayed: u64,
    /// Byte offset of the journal suffix that was replayed (nonzero
    /// exactly when a crash hit between the chain append and the journal
    /// truncate).
    pub wal_replay_offset: u64,
    /// Corrupt/unsynced journal-tail bytes dropped (warned, not silent).
    pub wal_tail_dropped: u64,
    /// Intact records belonging to an uncommitted round, discarded and
    /// fenced behind a `REC_ABORT` so later replays skip them too.
    pub fenced_records: u64,
    /// Intact records discarded because their round index did not
    /// continue from the recovered checkpoint — the newest chain record
    /// was lost and recovery fell back to an older one, so the journal
    /// suffix belongs to rounds the fallback never saw. The suffix is
    /// truncated; the campaign resumes from the older (consistent)
    /// state.
    pub disconnected_records: u64,
    /// The chain walk: which lineage validated (primary, fallback, or
    /// none for a cold start) and every damaged record file found.
    pub chain: ChainReport,
    /// Delta records applied on top of the chain's full record.
    pub chain_deltas_applied: u64,
}

/// Per-round telemetry the platform keeps *beside* the journaled
/// [`RoundReport`] history. Deliberately not part of the report: commit
/// and fsync timings are host-speed-dependent, and the report's durable
/// codec (and the equivalence suites that compare reports byte-for-byte)
/// must stay identical with telemetry on or off. Timings are measured by
/// the span timers that feed the `platform.round_commit_ns` /
/// `hive.fsync_ns` histograms, so they are zero unless
/// [`PlatformConfig::obs`] has a registry attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Round index this entry describes.
    pub round: u64,
    /// Durable-commit duration (append + fsync + compaction), ns.
    pub commit_ns: u64,
    /// The fsync portion of the commit, ns.
    pub fsync_ns: u64,
    /// Batch frames appended to the journal this round.
    pub frames_journaled: u64,
    /// Fix promotions appended to the journal this round.
    pub promotions_journaled: u64,
    /// Whether this round's commit appended a checkpoint record to the
    /// chain (and truncated the journal).
    pub compacted: bool,
    /// Wall-clock duration of this round's checkpoint write — the
    /// compaction stall — in ns (0 when no checkpoint ran). Unlike
    /// `commit_ns`/`fsync_ns` this is measured unconditionally, so the
    /// durability benches can report stall percentiles without a
    /// registry attached.
    pub checkpoint_ns: u64,
    /// Bytes the checkpoint wrote (the chain record's full or delta
    /// payload). The deterministic stall proxy: a steady-state delta
    /// checkpoint writes O(changes) instead of O(hive).
    pub checkpoint_bytes: u64,
}

/// What an external driver executed during one
/// [`Platform::round_driven`] round.
#[derive(Debug, Default)]
pub struct DrivenExecution {
    /// Executions, failures and directed runs across all pods.
    pub counts: ExecCounts,
    /// Every wire-encoded batch frame produced, as
    /// `(session = pod index, seq, frame)` — the same layout
    /// [`Platform::round`] journals and the pipelined merger replays.
    pub frames: Vec<(u64, u64, Vec<u8>)>,
}

/// The platform. See the [module docs](self).
#[derive(Debug)]
pub struct Platform<'p> {
    hive: Hive<'p>,
    fleet: Fleet<'p>,
    config: PlatformConfig,
    round_idx: u64,
    history: Vec<RoundReport>,
    telemetry: Vec<RoundTelemetry>,
    last_ingest: Option<IngestStats>,
    durable: Option<Campaign>,
}

impl<'p> Platform<'p> {
    /// Builds the in-memory platform shell: one hive plus `n_pods` pods
    /// with derived seeds. Durability (if configured) is attached by the
    /// caller.
    fn base(program: &'p Program, config: PlatformConfig) -> Self {
        Platform {
            hive: Hive::new(program, config.hive.clone()),
            fleet: Fleet::new(program, &config.pod, config.n_pods, config.seed, 0),
            config,
            round_idx: 0,
            history: Vec::new(),
            telemetry: Vec::new(),
            last_ingest: None,
            durable: None,
        }
    }

    /// Builds a platform: one hive plus `n_pods` pods with derived
    /// seeds. With [`PlatformConfig::durability`] set this starts a
    /// *fresh* durable campaign and panics if initialization fails or
    /// campaign state already exists (crash-only software fails loudly
    /// at startup; use [`try_new`](Self::try_new) to handle the error,
    /// or [`resume`](Self::resume) to continue an existing campaign).
    pub fn new(program: &'p Program, config: PlatformConfig) -> Self {
        Self::try_new(program, config).expect("durable platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when the configured directory
    /// already holds chain records, a non-empty journal, or a legacy
    /// `hive.snap`/`hive.snap.prev` snapshot, and [`DurabilityError::Io`]
    /// when the journal or chain cannot be opened.
    pub fn try_new(program: &'p Program, config: PlatformConfig) -> Result<Self, DurabilityError> {
        let mut platform = Self::base(program, config);
        if let Some(pcfg) = platform.config.tree_paging.clone() {
            platform
                .hive
                .enable_tree_paging(pcfg)
                .map_err(|e| io_err("page-store", &e))?;
        }
        if let Some(dcfg) = &platform.config.durability {
            platform.durable = Some(Campaign::new(vec![ShardStore::create(
                dcfg.dir.clone(),
                dcfg,
            )?]));
        }
        Ok(platform)
    }

    /// Resumes (or cold-starts) a durable campaign from
    /// [`PlatformConfig::durability`]: folds the checkpoint chain (its
    /// newest valid lineage, falling back to the previous full record's
    /// if the newest is damaged), replays the journal suffix round by
    /// round — re-ingesting frames in merge order, re-applying
    /// promotions, re-running guidance — and fences any uncommitted
    /// partial round behind a `REC_ABORT` record. Recovery **is** the
    /// startup path: an empty directory resumes into a fresh campaign.
    ///
    /// The recovered hive state is byte-identical
    /// ([`hive_state`](Self::hive_state)) to the uninterrupted run at
    /// the same committed round — and so is the pod population: every
    /// pod's RNG position, locally-retained repair-lab corpus, overlay
    /// version, and pending guidance directives are restored from the
    /// round commit's durable pod images, so the resumed process draws
    /// the exact random stream the uninterrupted one would have.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a checksummed record decodes to
    /// garbage (records damaged *behind* a valid checksum, e.g. a
    /// checkpoint for a different program), or when the directory holds
    /// a legacy `hive.snap` campaign and no chain.
    pub fn resume(
        program: &'p Program,
        config: PlatformConfig,
    ) -> Result<(Self, ResumeReport), DurabilityError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut platform = Self::base(program, config);
        let hive_config = platform.config.hive.clone();
        let hive = &mut platform.hive;
        let (mut store, recovery) = ShardStore::open(
            dcfg.dir.clone(),
            &dcfg,
            &platform.config.obs.recorder,
            None,
            |kind, state| match kind {
                RecordKind::Full => Hive::decode_state(program, hive_config.clone(), state)
                    .map(|h| *hive = h)
                    .map_err(|e| e.to_string()),
                RecordKind::Delta => hive.apply_state_delta(state).map_err(|e| e.to_string()),
            },
        )?;
        let mut frame_floors = BTreeMap::new();
        // The freshest durable pod population seen so far: the chain
        // head's, then overwritten by each committed `REC_PODS` record
        // replayed from the journal suffix.
        let mut pod_states: Option<Vec<PodState>> = None;
        if let Some(head) = &recovery.head {
            let (round_idx, history, head_pods) = decode_app_meta(&head.app_meta)?;
            platform.round_idx = round_idx;
            platform.history = history;
            pod_states = Some(head_pods);
            frame_floors = head.sessions.clone();
        }
        // Recovered trees are decoded in-memory; move them behind the
        // paged store (if configured) before journal replay so the
        // resident budget holds during re-ingest too.
        if let Some(pcfg) = platform.config.tree_paging.clone() {
            platform
                .hive
                .enable_tree_paging(pcfg)
                .map_err(|e| io_err("page-store", &e))?;
        }
        let rounds_from_snapshot = platform.round_idx;

        let records = &recovery.records;
        let mut promote_seq = 0u64;
        let mut rounds_replayed = 0u64;
        let mut disconnected_records = 0u64;
        let mut scan = SegmentScan::new(records, recovery.replay_from);
        while let Some(seg) = scan.next_round(RoundReport::decode)? {
            // If the newest chain record was destroyed and recovery fell
            // back to an older one, the journal suffix covers rounds the
            // fallback state never saw. Merging it would skip the rounds
            // in between, so discard the disconnected suffix instead and
            // resume from the older — but consistent — state.
            let report = &seg.report;
            if report.round != platform.round_idx {
                let (seg_start, seg_start_idx) = seg.start;
                disconnected_records = (records.len() - seg_start_idx) as u64;
                platform.config.obs.recorder.warn_or_ops(
                    "platform.resume",
                    "disconnected_records",
                    &[
                        ("records", disconnected_records),
                        ("journal_round", report.round),
                        ("state_round", platform.round_idx),
                    ],
                    format_args!(
                        "platform resume discarding {disconnected_records} \
                         disconnected journal record(s): round record says {} but the \
                         recovered state is at round {}",
                        report.round, platform.round_idx
                    ),
                );
                store.journal.truncate(seg_start as u64)?;
                break;
            }
            let hive = &mut platform.hive;
            seg.replay_frames(&mut frame_floors, |_, traces| {
                traces.iter().for_each(|t| hive.ingest(t));
                Ok(())
            })?;
            for pr in &seg.promotes {
                let (signature, fix) = fleet::decode_promotion(&mut codec::Reader::new(&pr.frame))?;
                platform.hive.promote(&signature, &fix);
                promote_seq = promote_seq.max(pr.seq + 1);
            }
            if platform.config.guidance_enabled {
                // Re-run guidance to advance hive-internal state; the
                // directives it produced are already queued inside the
                // committed pod images, so the copies here are discarded.
                let _ = platform.hive.guidance();
            }
            if let Some(pr) = seg.pods.values().next_back() {
                pod_states = Some(decode_pod_states(&pr.frame)?);
            }
            platform.round_idx += 1;
            rounds_replayed += 1;
            platform.history.push(seg.report);
        }
        let mut fenced_records = 0u64;
        let partial = scan.pending();
        if partial > 0 {
            // The process died mid-round: those records were never acked
            // (the round never returned), so discard them — and fence
            // them so every future replay discards them too.
            let mut rec = Vec::new();
            journal::append_record(&mut rec, REC_ABORT, SESSION_ROUND, platform.round_idx, &[]);
            store.journal.append(&rec)?;
            store.journal.sync()?;
            fenced_records = partial;
        }

        // Process equivalence: install the freshest committed pod images
        // (journal beats checkpoint; a cold start keeps the seed-derived
        // population, which *is* the round-0 state).
        if let Some(states) = pod_states {
            restore_pod_states(&mut platform.fleet.pods, states)?;
        }

        platform.durable = Some(Campaign {
            stores: vec![store],
            promote_seq,
            frame_floors,
        });
        Ok((
            platform,
            ResumeReport {
                rounds_from_snapshot,
                rounds_replayed,
                wal_replay_offset: recovery.replay_from as u64,
                wal_tail_dropped: recovery.tail_dropped,
                fenced_records,
                disconnected_records,
                chain: recovery.chain,
                chain_deltas_applied: recovery.deltas_applied,
            },
        ))
    }

    /// The hive (read access for experiments).
    pub fn hive(&self) -> &Hive<'p> {
        &self.hive
    }

    /// The pods.
    pub fn pods(&self) -> &[Pod<'p>] {
        &self.fleet.pods
    }

    /// All round reports so far.
    pub fn history(&self) -> &[RoundReport] {
        &self.history
    }

    /// Advances one round with `execs_per_pod` executions per pod.
    ///
    /// With [`IngestSettings::pipelined`] the pods report through the
    /// staged ingest pipeline while they run; without it this is
    /// [`round_driven`](Self::round_driven) with the built-in serial
    /// driver. Both leave byte-identical hive state and journals.
    ///
    /// With durability configured, the round's batch frames, fix
    /// promotions, and report are all on disk (journal appended and
    /// fsynced) *before* this returns — returning the report is the ack.
    /// A durable-commit failure panics: crash-only software dies loudly
    /// and restarts through [`resume`](Self::resume) rather than running
    /// on with unpersisted state.
    pub fn round(&mut self, execs_per_pod: u32) -> RoundReport {
        if !self.config.ingest.pipelined {
            return self.round_driven(|pods, batch| serial_driver(pods, execs_per_pod, batch));
        }
        self.distribute_overlay();
        let log = FrameLog::new(self.durable.is_some());
        let counts = self.execute_pipelined(execs_per_pod, &log);
        self.finish_round(counts, log.into_frames())
    }

    /// Advances one round with execution *driven from outside*: `driver`
    /// receives the pods (overlay already distributed) and the
    /// configured batch size, runs them however it likes — a
    /// virtual-time scheduler interleaving pods at simulated instants —
    /// and returns the counters plus every wire-encoded batch frame as
    /// `(session = pod index, seq, frame)` triples using the same
    /// pre-partitioned sequence layout as the built-in paths
    /// ([`PodBatcher`](crate::PodBatcher):
    /// `seq = pod_index * ceil(execs_per_pod / batch) + k`).
    ///
    /// The platform ingests the frames in `(session, seq)` order —
    /// exactly the order the pipelined merger releases them and the
    /// durable resume path replays them — then runs the identical fix /
    /// guidance / report / commit pipeline. Pods carry their own RNG and
    /// get no mid-round feedback, so any driver that runs each pod
    /// `execs_per_pod` times produces byte-identical hive state to
    /// [`round`](Self::round), regardless of interleaving.
    ///
    /// # Panics
    ///
    /// Panics if the driver returns a frame that fails wire validation —
    /// a driver bug, not an input condition.
    pub fn round_driven<F>(&mut self, driver: F) -> RoundReport
    where
        F: FnOnce(&mut [Pod<'p>], u64) -> DrivenExecution,
    {
        self.distribute_overlay();
        let batch = self.config.ingest.batch_size.max(1) as u64;
        let drv = driver(&mut self.fleet.pods, batch);
        let mut frames = drv.frames;
        let id = self.fleet.id;
        fleet::ingest_driven(&mut self.hive, &mut frames, |_| id);
        if self.durable.is_none() {
            frames.clear();
        }
        self.finish_round(drv.counts, frames)
    }

    /// Step 1 of a round: push the hive's current overlay to every pod.
    fn distribute_overlay(&mut self) {
        fleet::distribute_overlays(
            std::slice::from_mut(&mut self.fleet),
            &self.hive,
            self.config.fixes_enabled,
        );
    }

    /// Steps 3–6 of a round, shared by [`round`](Self::round) and
    /// [`round_driven`](Self::round_driven): fix pipeline, guidance,
    /// report, durable commit.
    fn finish_round(&mut self, counts: ExecCounts, frames: Vec<fleet::Frame>) -> RoundReport {
        let promoted = fleet::fix_and_guide(
            std::slice::from_mut(&mut self.fleet),
            &mut self.hive,
            self.config.fixes_enabled,
            self.config.guidance_enabled,
            self.config.min_preservation_cases,
        );
        let report = RoundReport {
            round: self.round_idx,
            executions: counts.executions,
            failures: counts.failures,
            failure_rate_per_10k: fleet::failure_rate_per_10k(counts.executions, counts.failures),
            fixes_promoted: promoted.len() as u64,
            overlay_version: self.hive.current_overlay().1,
            coverage: self.hive.coverage(),
            proofs: self.hive.proofs().len() as u64,
            directed: counts.directed,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // Durable commit: frames, promotions, and the round record hit
        // the journal and are fsynced before the report (the ack) leaves
        // this function.
        let obs = self.config.obs.clone();
        let r = &report;
        let totals = [r.round, r.executions, r.failures, r.fixes_promoted];
        let extra = [("overlay_version", r.overlay_version)];
        let telemetry = fleet::commit_observed(&obs, "platform", totals, &extra, || {
            self.commit_round(r, frames, &promoted)
        });
        self.telemetry.push(telemetry);
        report
    }

    /// Appends one committed round to the journal (frames in merge
    /// order, then promotions, then the round record), fsyncs, and
    /// checkpoints into the chain when the journal dwarfs its footprint.
    /// Returns the commit's telemetry (fsync is timed only when a
    /// registry is attached; the checkpoint stall is always timed).
    fn commit_round(
        &mut self,
        report: &RoundReport,
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
        let promotions = promoted
            .iter()
            .map(|p| {
                let mut body = Vec::new();
                p.encode_into(&mut body);
                (0, body)
            })
            .collect();
        // Capture the pod population *after* guidance queued next-round
        // directives, so the durable image is exactly what an
        // uninterrupted process would carry into the next round.
        let pods = encode_pod_states(&self.fleet.pods);
        let frames = frames.into_iter().map(|f| (0, f)).collect();
        let mut body = Vec::new();
        report.encode_into(&mut body);
        let round = (report.round, body.as_slice());
        let pods = [(0, 0, pods.as_slice())];
        stats.fsync_ns = d.journal_round(frames, promotions, &pods, round, &self.config.obs)?;

        // Checkpoint when the journal has outgrown the chain footprint,
        // then truncate it.
        if d.stores[0].checkpoint_due() {
            let started = std::time::Instant::now();
            stats.checkpoint_bytes = self.write_checkpoint(true)?;
            stats.checkpoint_ns = started.elapsed().as_nanos() as u64;
            stats.compacted = true;
        }
        Ok(stats)
    }

    /// Appends one chain record covering the whole journal, then (when
    /// `truncate`) empties the journal, and resets the hive's delta
    /// tracking so the next delta covers exactly the rounds since this
    /// record. Returns the payload bytes written.
    fn write_checkpoint(&mut self, truncate: bool) -> Result<u64, DurabilityError> {
        let d = self
            .durable
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let app_meta = encode_app_meta(self.round_idx, &self.history, &self.fleet.pods);
        let hive = &self.hive;
        let written = d.stores[0].checkpoint(
            |kind| match kind {
                RecordKind::Full => hive.encode_state(),
                RecordKind::Delta => hive.encode_state_delta(),
            },
            d.frame_floors.clone(),
            app_meta,
            truncate,
        )?;
        self.hive.mark_clean();
        Ok(written)
    }

    /// On-demand checkpoint: folds the journal into a fresh chain record
    /// (full or delta) and truncates it, regardless of the automatic
    /// [`DurabilityConfig::compact_ratio`] trigger. Returns the payload
    /// bytes written — the deterministic stall proxy benches report.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] on a non-durable platform;
    /// [`DurabilityError::Io`] when the chain append fails.
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.write_checkpoint(true)
    }

    /// Like [`checkpoint`](Self::checkpoint) but dies before the journal
    /// truncate: on return, the disk is exactly the crash window between
    /// the chain append and the truncate. Crash-injection harnesses use
    /// this to prove [`resume`](Self::resume) never double-applies
    /// journal records a checkpoint already covers.
    ///
    /// # Errors
    ///
    /// Same as [`checkpoint`](Self::checkpoint).
    pub fn checkpoint_interrupted(&mut self) -> Result<(), DurabilityError> {
        self.write_checkpoint(false).map(|_| ())
    }

    /// Serialized hive state (the byte-identity invariant checked by the
    /// durability harness: recovered == uninterrupted at the same
    /// committed round).
    pub fn hive_state(&self) -> Vec<u8> {
        self.hive.encode_state()
    }

    /// Exports every pod's durable image — the second half of the
    /// process-equivalence invariant: a resumed platform's pod states
    /// equal the uninterrupted run's at the same committed round.
    pub fn export_pod_states(&self) -> Vec<PodState> {
        self.fleet.pods.iter().map(Pod::export_state).collect()
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.round_idx
    }

    /// Scrubs the campaign's durable files for bit rot *before*
    /// resuming: corrupt chain records are quarantined, journal
    /// damage is cut or repaired around (see
    /// [`softborg_hive::scrub`]), and every detection records a Warn
    /// event on [`PlatformConfig::obs`]. Run this after a suspected
    /// media fault, then [`resume`](Self::resume) as usual.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures; and
    /// [`DurabilityError::Corrupt`] when the directory held campaign
    /// data but nothing valid survived, or holds a legacy `hive.snap`
    /// campaign and no chain — resuming would silently cold-start over
    /// it, which the scrub refuses to sanction.
    pub fn scrub(config: &PlatformConfig) -> Result<ScrubReport, DurabilityError> {
        let dcfg = config
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut report = ShardStore::scrub(&dcfg.dir, &config.obs.recorder, None)?;
        if let Some(pcfg) = &config.tree_paging {
            report.pages = Some(scrub_page_dir(&pcfg.dir, &config.obs.recorder)?);
        }
        Ok(report)
    }

    /// Current write-ahead-journal size in bytes (`None` when the
    /// platform is not durable). The checkpoint bound asserted by E16:
    /// after a round commits, this stays below `compact_ratio` times the
    /// chain footprint (or `min_compact_wal_bytes`).
    pub fn wal_len(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.stores[0].journal.len())
    }

    /// Generation of the chain head (`None` when the platform is not
    /// durable or the chain is cold).
    pub fn chain_head_generation(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .and_then(|d| d.stores[0].chain.head_generation())
    }

    /// Paged-tree counters (zeros when [`PlatformConfig::tree_paging`]
    /// is off): faults, evictions, resident vs total pages and items.
    pub fn page_stats(&self) -> PageStats {
        self.hive.tree().page_stats()
    }

    /// Pods run on scoped threads and report wire-encoded batch frames
    /// into the hive's staged ingest pipeline while it decodes,
    /// reconstructs, and merges concurrently. Frame sequence numbers are
    /// pre-partitioned by pod index, so the ordered merger replays traces
    /// in exact pod-major order — the order the serial driver ingests in.
    fn execute_pipelined(&mut self, execs_per_pod: u32, log: &FrameLog) -> ExecCounts {
        let batch = self.config.ingest.batch_size.max(1) as u64;
        let pod_threads = self.config.ingest.pod_threads;
        let cfg = fleet::pipeline_config(&self.config.ingest.pipeline, &self.config.obs);
        let fleets = std::slice::from_mut(&mut self.fleet);
        let (per_lane, stats) = self.hive.ingest_frames(&cfg, move |tx| {
            fleet::execute_threaded(
                fleets,
                execs_per_pod,
                batch,
                pod_threads,
                tx,
                |tx, _, slot, seq, frame| {
                    log.push(slot, seq, &frame);
                    tx.submit_at(seq, frame);
                },
            )
        });
        self.last_ingest = Some(stats);
        per_lane[0]
    }

    /// Pipeline statistics from the most recent pipelined round, if any.
    pub fn last_ingest(&self) -> Option<&IngestStats> {
        self.last_ingest.as_ref()
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
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Runs `rounds` rounds and returns the full history.
    pub fn run(&mut self, rounds: u32, execs_per_pod: u32) -> &[RoundReport] {
        for _ in 0..rounds {
            self.round(execs_per_pod);
        }
        self.history()
    }

    /// Signatures of all currently-diagnosed failure modes.
    pub fn diagnosed_modes(&self) -> Vec<String> {
        self.hive
            .diagnoses()
            .iter()
            .map(|d| diagnosis_signature(d))
            .collect()
    }
}

/// Checkpoint `app_meta` payload: committed-round counter, the full
/// round history, and the durable pod population, in the deterministic
/// byte codec. The pod images make checkpoint-only recovery (a fully
/// truncated journal) restore every pod mid-stream, exactly like
/// replaying the journal's `REC_PODS` records would.
fn encode_app_meta(round_idx: u64, history: &[RoundReport], pods: &[Pod<'_>]) -> Vec<u8> {
    let mut buf = Vec::new();
    fleet::encode_history(&mut buf, round_idx, history, RoundReport::encode_into);
    buf.extend_from_slice(&encode_pod_states(pods));
    buf
}

fn decode_app_meta(
    bytes: &[u8],
) -> Result<(u64, Vec<RoundReport>, Vec<PodState>), DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let labels = ["app_meta.round_idx", "app_meta.history"];
    let (round_idx, history) = fleet::decode_history(&mut r, labels, RoundReport::decode)?;
    let pods = decode_pod_states_reader(&mut r)?;
    fleet::expect_end(&r, "app_meta")?;
    Ok((round_idx, history, pods))
}

/// The built-in serial driver [`Platform::round`] hands to
/// [`Platform::round_driven`] when [`IngestSettings::pipelined`] is off:
/// the pods run one after another through the shared pod loop, and their
/// frames land at the `(session = pod index, seq)` slots the pipelined
/// path uses.
fn serial_driver(pods: &mut [Pod<'_>], execs_per_pod: u32, batch: u64) -> DrivenExecution {
    let mut frames = Vec::new();
    let mut counts = ExecCounts::default();
    for (slot, pod) in pods.iter_mut().enumerate() {
        let slot = slot as u64;
        let emit = |seq, frame| frames.push((slot, seq, frame));
        counts.add(fleet::run_pod(pod, slot, execs_per_pod, batch, emit));
    }
    DrivenExecution { counts, frames }
}

/// Encodes the whole pod population for a `REC_PODS` journal record or a
/// checkpoint's `app_meta`: `u32 count` then one length-prefixed
/// [`PodState`] image (itself versioned and checksummed) per pod.
pub(crate) fn encode_pod_states(pods: &[Pod<'_>]) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u32(&mut buf, pods.len() as u32);
    for pod in pods {
        codec::put_bytes(&mut buf, &pod.export_state().encode());
    }
    buf
}

/// Decodes a pod population written by [`encode_pod_states`]. Every pod
/// image re-verifies its own checksum, so torn bytes behind a valid
/// journal checksum still fail loudly.
pub(crate) fn decode_pod_states(bytes: &[u8]) -> Result<Vec<PodState>, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let states = decode_pod_states_reader(&mut r)?;
    fleet::expect_end(&r, "pod-state record")?;
    Ok(states)
}

fn decode_pod_states_reader(r: &mut codec::Reader<'_>) -> Result<Vec<PodState>, DurabilityError> {
    let n = r
        .seq_len("pod_states", 9)
        .map_err(|e| DurabilityError::Corrupt(e.to_string()))?;
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let bytes = r
            .bytes("pod_states.image")
            .map_err(|e| DurabilityError::Corrupt(e.to_string()))?;
        states.push(
            PodState::decode(bytes)
                .map_err(|e| DurabilityError::Corrupt(format!("pod {i} state: {e}")))?,
        );
    }
    Ok(states)
}

/// Installs decoded pod images onto a freshly built population,
/// requiring an exact count match — a mismatch means the durable record
/// belongs to a differently-configured campaign.
pub(crate) fn restore_pod_states(
    pods: &mut [Pod<'_>],
    states: Vec<PodState>,
) -> Result<(), DurabilityError> {
    if states.len() != pods.len() {
        return Err(DurabilityError::Corrupt(format!(
            "pod-state record holds {} pod(s) but the campaign is configured for {}",
            states.len(),
            pods.len()
        )));
    }
    for (pod, state) in pods.iter_mut().zip(states) {
        pod.restore_state(state);
    }
    Ok(())
}
