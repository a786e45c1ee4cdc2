//! One durable hive's on-disk store: a write-ahead journal (`hive.wal`)
//! plus a delta-snapshot chain (`chain/`) of checkpoint records.
//!
//! A durable [`Campaign`] holds one [`ShardStore`]: the
//! [`Platform`](crate::Platform)'s is rooted at its durability
//! directory, and a [`MultiPlatform`](crate::MultiPlatform) keeps one
//! per `shard-<i>/` subdirectory. Everything the two platforms do to
//! their files lives here — opening a fresh campaign, folding the chain
//! back into hive state, scanning the journal suffix, journaling a
//! committed round, deciding when to checkpoint, appending the
//! checkpoint, and scrubbing. What the record *bodies* hold (promotions,
//! pod images, round reports) stays with each platform, because their
//! round records differ.
//!
//! Every checkpoint is one chain record whose payload is a
//! [`HiveSnapshot`]: a full record holds the whole hive state, a delta
//! holds the changes since the previous record. Both carry the same
//! metadata (session floors, journal coverage, application meta), so the
//! chain head alone says where journal replay starts.

use crate::fleet::Frame;
use crate::platform::{io_err, DurabilityConfig, DurabilityError};
use softborg_hive::journal::{
    self, JournalRecord, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND, SESSION_PROMOTE,
    SESSION_ROUND,
};
use softborg_hive::{scrub_campaign, FileJournal, HiveSnapshot, JournalStore, ScrubReport};
use softborg_obs::{FlightRecorder, ObsHandles, SpanTimer};
use softborg_store::{ChainReport, ChainStore, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Checkpoint files an older build's two-generation snapshot store
/// wrote. This build cannot read them, so a directory holding one and
/// no chain is refused instead of cold-started over.
const LEGACY_SNAPSHOTS: [&str; 2] = ["hive.snap", "hive.snap.prev"];

/// One hive's journal and checkpoint chain. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardStore {
    /// The write-ahead journal the platform appends round records to.
    pub(crate) journal: FileJournal,
    /// The checkpoint chain (appended only through
    /// [`checkpoint`](Self::checkpoint)).
    pub(crate) chain: ChainStore,
    compact_ratio: u64,
    min_compact_wal_bytes: u64,
    rebase_ratio: u64,
}

/// What [`ShardStore::open`] recovered.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The chain head's record: session floors, journal coverage and
    /// application meta of the newest checkpoint (`None` on a cold
    /// chain).
    pub(crate) head: Option<HiveSnapshot>,
    /// The chain walk: which lineage validated, every damaged record.
    pub(crate) chain: ChainReport,
    /// Delta records folded on top of the lineage's full record.
    pub(crate) deltas_applied: u64,
    /// Journal byte offset replay starts from (nonzero exactly when a
    /// crash hit between the chain append and the journal truncate).
    pub(crate) replay_from: usize,
    /// The intact journal records from `replay_from` on.
    pub(crate) records: Vec<JournalRecord>,
    /// Damaged journal-tail bytes dropped (and cut from the file).
    pub(crate) tail_dropped: u64,
}

/// `"shard <i> "` for a multi-platform shard, empty for a platform.
fn who(shard: Option<usize>) -> String {
    shard.map_or_else(String::new, |i| format!("shard {i} "))
}

/// The first legacy snapshot file present in `dir`, if any.
fn legacy_snapshot(dir: &Path) -> Option<PathBuf> {
    LEGACY_SNAPSHOTS
        .iter()
        .map(|name| dir.join(name))
        .find(|p| p.exists())
}

/// Refuses a directory whose cold chain sits next to a legacy snapshot:
/// resuming or scrubbing it would silently cold-start over a campaign.
fn refuse_legacy(dir: &Path, shard: Option<usize>) -> Result<(), DurabilityError> {
    match legacy_snapshot(dir) {
        Some(path) => Err(DurabilityError::Corrupt(format!(
            "{}found no chain records but a legacy two-generation snapshot {} \
             (written by an older build, which this build cannot read)",
            who(shard),
            path.display()
        ))),
        None => Ok(()),
    }
}

impl ShardStore {
    fn with(journal: FileJournal, chain: ChainStore, cfg: &DurabilityConfig) -> Self {
        ShardStore {
            journal,
            chain,
            compact_ratio: cfg.compact_ratio,
            min_compact_wal_bytes: cfg.min_compact_wal_bytes,
            rebase_ratio: cfg.chain_settings().rebase_ratio,
        }
    }

    /// Starts a fresh store in `dir`, refusing any existing campaign: a
    /// legacy snapshot, a non-empty journal, or a chain with a head.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] on an existing campaign;
    /// [`DurabilityError::Io`] when a file cannot be opened.
    pub(crate) fn create(dir: PathBuf, cfg: &DurabilityConfig) -> Result<Self, DurabilityError> {
        if legacy_snapshot(&dir).is_some() {
            return Err(DurabilityError::CampaignExists(dir));
        }
        let chain = ChainStore::open(&dir.join("chain")).map_err(|e| io_err("chain-dir", &e))?;
        if chain.head_generation().is_some() {
            return Err(DurabilityError::CampaignExists(dir));
        }
        let journal =
            FileJournal::open(dir.join("hive.wal")).map_err(|e| io_err("wal-open", &e))?;
        if !journal.is_empty() {
            return Err(DurabilityError::CampaignExists(dir));
        }
        Ok(Self::with(journal, chain, cfg))
    }

    /// Opens the store in `dir` (an empty directory is a cold start) and
    /// recovers it: walks the chain, hands the lineage's full record
    /// state and then every delta state to `fold` in generation order,
    /// and scans the journal from the head's replay offset, cutting (and
    /// warning about) a damaged tail. `shard` names the store in errors
    /// and events.
    ///
    /// With [`ChainSettings::skip_last_delta`](crate::ChainSettings)
    /// armed, the newest delta's state is withheld from `fold` while its
    /// metadata still becomes [`Recovery::head`] — the `skip_delta`
    /// canary.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a chain record's payload does
    /// not decode, `fold` rejects a state, or the chain is cold next to
    /// a legacy snapshot.
    pub(crate) fn open(
        dir: PathBuf,
        cfg: &DurabilityConfig,
        obs: &FlightRecorder,
        shard: Option<usize>,
        mut fold: impl FnMut(RecordKind, &[u8]) -> Result<(), String>,
    ) -> Result<(Self, Recovery), DurabilityError> {
        let chain = ChainStore::open(&dir.join("chain")).map_err(|e| io_err("chain-dir", &e))?;
        let load = chain.load();
        let skip_last = cfg.chain_settings().skip_last_delta;
        let mut head = None;
        let mut deltas_applied = 0u64;
        for (k, rec) in load.records.iter().enumerate() {
            let snap = HiveSnapshot::decode(&rec.payload).map_err(|e| {
                DurabilityError::Corrupt(format!(
                    "{}chain record {}: {e}",
                    who(shard),
                    rec.generation
                ))
            })?;
            // Planted bug (`skip_delta` canary): the head's metadata is
            // trusted below while its state changes are dropped.
            let skipped = skip_last && k > 0 && k + 1 == load.records.len();
            if !skipped {
                fold(rec.kind, &snap.state).map_err(|e| {
                    DurabilityError::Corrupt(format!(
                        "{}chain record {} state: {e}",
                        who(shard),
                        rec.generation
                    ))
                })?;
                deltas_applied += u64::from(k > 0);
            }
            head = Some(snap);
        }
        if head.is_none() {
            refuse_legacy(&dir, shard)?;
        }

        let mut journal =
            FileJournal::open(dir.join("hive.wal")).map_err(|e| io_err("wal-open", &e))?;
        let wal = journal.read().map_err(|e| io_err("wal-read", &e))?;
        let replay_from = head.as_ref().map_or(0, |h| h.replay_offset(&wal));
        let (records, scan) = journal::scan(&wal[replay_from..]);
        if let Some(err) = scan.tail_error {
            let (source, mut fields) = match shard {
                None => ("platform.resume", Vec::new()),
                Some(i) => ("multi.resume", vec![("shard", i as u64)]),
            };
            fields.push(("tail_bytes", scan.tail_dropped as u64));
            fields.push(("intact_records", scan.records as u64));
            obs.warn_or_ops(
                source,
                "wal_tail_dropped",
                &fields,
                format_args!(
                    "{}resume dropped {} journal tail byte(s) after {} intact record(s): {err}",
                    who(shard),
                    scan.tail_dropped,
                    scan.records
                ),
            );
            // Cut the damaged tail so future appends land on a clean
            // record boundary.
            journal.truncate((replay_from + scan.valid_len) as u64)?;
        }
        Ok((
            Self::with(journal, chain, cfg),
            Recovery {
                head,
                chain: load.report,
                deltas_applied,
                replay_from,
                records,
                tail_dropped: scan.tail_dropped as u64,
            },
        ))
    }

    /// Scrubs the store in `dir` for bit rot (see
    /// [`softborg_hive::scrub`]), refusing a cold chain next to a legacy
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] on a legacy directory or when nothing
    /// valid survived the scrub.
    pub(crate) fn scrub(
        dir: &Path,
        obs: &FlightRecorder,
        shard: Option<usize>,
    ) -> Result<ScrubReport, DurabilityError> {
        let chain = ChainStore::open(&dir.join("chain")).map_err(|e| io_err("chain-dir", &e))?;
        if chain.head_generation().is_none() {
            refuse_legacy(dir, shard)?;
        }
        Ok(scrub_campaign(&dir.join("hive.wal"), &chain, obs)?)
    }

    /// `true` when the journal has outgrown the checkpoint footprint:
    /// at least `min_compact_wal_bytes`, and at least `compact_ratio`
    /// times the chain's newest full record plus every delta since. The
    /// footprint comes from the chain's own bookkeeping, so the check
    /// never pays an O(hive) encode.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let wal_len = self.journal.len();
        if self.compact_ratio == 0 || wal_len < self.min_compact_wal_bytes {
            return false;
        }
        let footprint = self
            .chain
            .last_full_payload_bytes()
            .saturating_add(self.chain.delta_payload_bytes_since_full())
            .max(1);
        wal_len >= self.compact_ratio.saturating_mul(footprint)
    }

    /// Appends one checkpoint covering the whole journal, then (when
    /// `truncate`) empties the journal. The chain picks the record kind
    /// ([`ChainStore::rebase_due`]: a full on a cold chain or once the
    /// deltas outgrew the rebase ratio, else a delta) and `state` encodes
    /// the hive for it. Returns the payload bytes written. The caller
    /// resets the hive's delta tracking afterwards, so the next delta
    /// covers exactly the changes since this record.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the journal read, the chain append
    /// or the truncate fails.
    pub(crate) fn checkpoint(
        &mut self,
        state: impl FnOnce(RecordKind) -> Vec<u8>,
        sessions: BTreeMap<u64, u64>,
        app_meta: Vec<u8>,
        truncate: bool,
    ) -> Result<u64, DurabilityError> {
        let kind = if self.chain.rebase_due(self.rebase_ratio) {
            RecordKind::Full
        } else {
            RecordKind::Delta
        };
        let state = state(kind);
        let wal = self.journal.read().map_err(|e| io_err("wal-read", &e))?;
        let payload = HiveSnapshot {
            state,
            sessions,
            wal_covered: wal.len() as u64,
            wal_covered_hash: wire::fnv1a(&wal),
            app_meta,
        }
        .encode();
        self.chain
            .append(kind, &payload)
            .map_err(|e| io_err("chain-append", &e))?;
        if truncate {
            self.journal.truncate(0)?;
        }
        Ok(payload.len() as u64)
    }
}

/// The live half of a durable campaign: one store per shard (a
/// [`Platform`](crate::Platform) has one) and the bookkeeping replay
/// needs.
#[derive(Debug)]
pub(crate) struct Campaign {
    /// The stores, in shard order.
    pub(crate) stores: Vec<ShardStore>,
    /// Next sequence number for `REC_PROMOTE` records (global across
    /// shards, so promotion order is totally ordered).
    pub(crate) promote_seq: u64,
    /// Per-session frame floors (`session → next seq`), carried into
    /// checkpoints so transports resuming against this campaign can
    /// deduplicate across the restart.
    pub(crate) frame_floors: BTreeMap<u64, u64>,
}

impl Campaign {
    /// A campaign over `stores` with nothing journaled yet.
    pub(crate) fn new(stores: Vec<ShardStore>) -> Self {
        Campaign {
            stores,
            promote_seq: 0,
            frame_floors: BTreeMap::new(),
        }
    }

    /// Phase A of a round commit: appends the round's frames in merge
    /// order `(session, seq)` (raising their floors), promotions and pod
    /// populations, each to its shard's journal, and the round record
    /// (`round` and its encoded report) to **every** journal; then
    /// fsyncs them all under the `hive.fsync_ns` span (the returned time
    /// is 0 without a registry). The round is acked only after every
    /// fsync: a crash between them leaves some shards one round ahead,
    /// which resume truncates back.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when an append or fsync fails.
    pub(crate) fn journal_round(
        &mut self,
        mut frames: Vec<(usize, Frame)>,
        promotions: Vec<(usize, Vec<u8>)>,
        pods: &[(usize, u64, &[u8])],
        (round, report): (u64, &[u8]),
        obs: &ObsHandles,
    ) -> Result<u64, DurabilityError> {
        frames.sort_by_key(|&(_, (session, seq, _))| (session, seq));
        let mut rec = Vec::new();
        for (shard, (session, seq, bytes)) in &frames {
            rec.clear();
            journal::append_record(&mut rec, REC_FRAME, *session, *seq, bytes);
            self.stores[*shard].journal.append(&rec)?;
            let floor = self.frame_floors.entry(*session).or_insert(0);
            *floor = (*floor).max(seq + 1);
        }
        for (shard, body) in &promotions {
            rec.clear();
            journal::append_record(
                &mut rec,
                REC_PROMOTE,
                SESSION_PROMOTE,
                self.promote_seq,
                body,
            );
            self.promote_seq += 1;
            self.stores[*shard].journal.append(&rec)?;
        }
        for (shard, session, body) in pods {
            rec.clear();
            journal::append_record(&mut rec, REC_PODS, *session, round, body);
            self.stores[*shard].journal.append(&rec)?;
        }
        rec.clear();
        journal::append_record(&mut rec, REC_ROUND, SESSION_ROUND, round, report);
        for store in &mut self.stores {
            store.journal.append(&rec)?;
        }
        let clock = obs.span_clock();
        let fsync_hist = obs.registry.as_ref().map(|r| r.histogram("hive.fsync_ns"));
        let fsync_span = SpanTimer::start_if(clock.as_ref(), &fsync_hist);
        for store in &mut self.stores {
            store.journal.sync()?;
        }
        Ok(fsync_span.map_or(0, SpanTimer::stop))
    }
}
