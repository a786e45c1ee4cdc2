//! The round core both platforms share. [`Platform`](crate::Platform)
//! is one [`Fleet`] over a [`Hive`]; [`MultiPlatform`](crate::MultiPlatform)
//! is one fleet per program over a [`ShardedHive`]. Every stage of the
//! Figure 1 loop that does not depend on which of the two runs it is
//! written here once: pod construction and overlay install, the pod loop
//! ([`PodBatcher`]), the fix pipeline, guidance dispatch, the round's
//! telemetry, the journal segment scan and the history half of both
//! checkpoint `app_meta` layouts. Each platform keeps only what differs:
//! its hive container, its ingest pipeline, its journal record bodies
//! and its recovery policy.

use crate::platform::{DurabilityError, RoundTelemetry};
use softborg_fix::{rank, FixCandidate, LabConfig, TestCase, Validation, Verdict};
use softborg_guidance::Directive;
use softborg_hive::journal::{
    JournalRecord, REC_ABORT, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND, REC_TOMBSTONE,
};
use softborg_hive::{outcome_signature, Hive};
use softborg_ingest::IngestConfig;
use softborg_obs::{ObsHandles, SpanTimer};
use softborg_pod::{Pod, PodConfig, PodRun};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, Program, ProgramId};
use softborg_shard::ShardedHive;
use softborg_trace::{wire, ExecutionTrace};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A wire-encoded batch frame with its journal address:
/// `(session, seq, frame)`.
pub(crate) type Frame = (u64, u64, Vec<u8>);

/// The hive container a platform runs its fleets over: one [`Hive`]
/// (every fleet's program maps to it) or a [`ShardedHive`].
pub(crate) trait Hives<'p> {
    /// The hive serving `program`.
    fn hive(&self, program: ProgramId) -> &Hive<'p>;
    /// The hive serving `program`, mutably.
    fn hive_mut(&mut self, program: ProgramId) -> &mut Hive<'p>;
}

impl<'p> Hives<'p> for Hive<'p> {
    fn hive(&self, _: ProgramId) -> &Hive<'p> {
        self
    }

    fn hive_mut(&mut self, _: ProgramId) -> &mut Hive<'p> {
        self
    }
}

impl<'p> Hives<'p> for ShardedHive<'p> {
    fn hive(&self, program: ProgramId) -> &Hive<'p> {
        ShardedHive::hive(self, program).expect("fleet program is placed")
    }

    fn hive_mut(&mut self, program: ProgramId) -> &mut Hive<'p> {
        ShardedHive::hive_mut(self, program).expect("fleet program is placed")
    }
}

/// One program's fleet: the program and its pods.
#[derive(Debug)]
pub(crate) struct Fleet<'p> {
    pub(crate) id: ProgramId,
    pub(crate) program: &'p Program,
    pub(crate) pods: Vec<Pod<'p>>,
}

impl<'p> Fleet<'p> {
    /// `n_pods` pods built from `template`. Pod `i` of lane `lane` is
    /// seeded `seed·φ + (lane << 20) + i + 1`, so lane 0 (and the single
    /// fleet of a [`Platform`](crate::Platform)) draws the same streams
    /// whichever platform runs it.
    pub(crate) fn new(
        program: &'p Program,
        template: &PodConfig,
        n_pods: u32,
        seed: u64,
        lane: u64,
    ) -> Self {
        let pods = (0..n_pods)
            .map(|i| {
                let mut pc = template.clone();
                pc.seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(lane << 20)
                    .wrapping_add(u64::from(i) + 1);
                Pod::new(program, pc)
            })
            .collect();
        Fleet {
            id: program.id(),
            program,
            pods,
        }
    }
}

/// Step 1 of a round: installs each program's current overlay on its
/// fleet (nothing when fixes are disabled).
pub(crate) fn distribute_overlays<'p>(
    fleets: &mut [Fleet<'p>],
    hives: &impl Hives<'p>,
    fixes_enabled: bool,
) {
    if !fixes_enabled {
        return;
    }
    for fleet in fleets {
        let (overlay, version) = hives.hive(fleet.id).current_overlay();
        for pod in &mut fleet.pods {
            pod.install_fix(overlay.clone(), version);
        }
    }
}

/// Executions, failures and directed (guided) runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Executions performed.
    pub executions: u64,
    /// Executions that failed.
    pub failures: u64,
    /// Executions a guidance directive drove.
    pub directed: u64,
}

impl ExecCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: ExecCounts) {
        self.executions += other.executions;
        self.failures += other.failures;
        self.directed += other.directed;
    }
}

/// Batches one pod's traces into wire frames at the pre-partitioned
/// sequence slots every round path uses: the pod in slot `j` of its
/// session owns sequence numbers `j·k .. (j+1)·k`, where
/// `k = ceil(execs_per_pod / batch)` ([`frames_per_pod`](Self::frames_per_pod)).
/// A frame closes when it holds `batch` traces or the pod ran its last
/// execution, so every pod ships exactly `k` frames and a merger that
/// releases frames in `(session, seq)` order replays them pod-major.
#[derive(Debug)]
pub struct PodBatcher {
    next_seq: u64,
    execs_left: u32,
    batch: usize,
    buf: Vec<ExecutionTrace>,
}

impl PodBatcher {
    /// Frames each pod ships in a round: `ceil(execs_per_pod / batch)`.
    pub fn frames_per_pod(execs_per_pod: u32, batch: u64) -> u64 {
        u64::from(execs_per_pod).div_ceil(batch.max(1))
    }

    /// A batcher for the pod in `slot` that will run `execs_per_pod`
    /// times, bundling `batch` traces per frame.
    pub fn new(slot: u64, execs_per_pod: u32, batch: u64) -> Self {
        let batch = batch.max(1);
        PodBatcher {
            next_seq: slot * Self::frames_per_pod(execs_per_pod, batch),
            execs_left: execs_per_pod,
            batch: batch as usize,
            buf: Vec::with_capacity(batch.min(u64::from(execs_per_pod)) as usize),
        }
    }

    /// Executions still to run.
    pub fn execs_left(&self) -> u32 {
        self.execs_left
    }

    /// Counts `run` into `counts` and buffers its trace. Returns
    /// `(seq, frame)` when this run closed a frame.
    ///
    /// # Panics
    ///
    /// When called more than `execs_per_pod` times.
    pub fn record(&mut self, run: PodRun, counts: &mut ExecCounts) -> Option<(u64, Vec<u8>)> {
        counts.executions += 1;
        counts.failures += u64::from(run.result.outcome.is_failure());
        counts.directed += u64::from(run.directed);
        self.buf.push(run.trace);
        self.execs_left = self
            .execs_left
            .checked_sub(1)
            .expect("pod ran more executions than its batcher was built for");
        if self.buf.len() < self.batch && self.execs_left > 0 {
            return None;
        }
        let frame = wire::encode_batch(&self.buf);
        self.buf.clear();
        let seq = self.next_seq;
        self.next_seq += 1;
        Some((seq, frame))
    }
}

/// The pod loop: runs `pod` (in `slot` of its session) `execs_per_pod`
/// times and hands every closed frame to `emit(seq, frame)`.
pub(crate) fn run_pod(
    pod: &mut Pod<'_>,
    slot: u64,
    execs_per_pod: u32,
    batch: u64,
    mut emit: impl FnMut(u64, Vec<u8>),
) -> ExecCounts {
    let mut counts = ExecCounts::default();
    let mut batcher = PodBatcher::new(slot, execs_per_pod, batch);
    while batcher.execs_left() > 0 {
        if let Some((seq, frame)) = batcher.record(pod.run_once(), &mut counts) {
            emit(seq, frame);
        }
    }
    counts
}

/// Runs every pod of every fleet on up to `pod_threads` scoped threads,
/// each thread taking a contiguous chunk of the fleet-major pod list.
/// Every pod goes through [`run_pod`] in its slot within its fleet, and
/// `emit(tx, lane, slot, seq, frame)` ships each frame through the
/// thread's own clone of `tx`. Pods carry their own RNG and get no
/// mid-round feedback, so what they produce does not depend on the
/// thread count. Returns the counts per lane.
pub(crate) fn execute_threaded<S: Clone + Send>(
    fleets: &mut [Fleet<'_>],
    execs_per_pod: u32,
    batch: u64,
    pod_threads: usize,
    tx: S,
    emit: impl Fn(&S, usize, u64, u64, Vec<u8>) + Sync,
) -> Vec<ExecCounts> {
    let n_lanes = fleets.len();
    let mut units: Vec<(usize, u64, &mut Pod<'_>)> = fleets
        .iter_mut()
        .enumerate()
        .flat_map(|(lane, fleet)| {
            fleet
                .pods
                .iter_mut()
                .enumerate()
                .map(move |(slot, pod)| (lane, slot as u64, pod))
        })
        .collect();
    let threads = pod_threads.max(1).min(units.len().max(1));
    let chunk_size = units.len().div_ceil(threads).max(1);
    let emit = &emit;
    let per_unit: Vec<(usize, ExecCounts)> = std::thread::scope(|s| {
        let handles: Vec<_> = units
            .chunks_mut(chunk_size)
            .map(|chunk| {
                let tx = tx.clone();
                s.spawn(move || {
                    chunk
                        .iter_mut()
                        .map(|&mut (lane, slot, ref mut pod)| {
                            let counts = run_pod(pod, slot, execs_per_pod, batch, |seq, frame| {
                                emit(&tx, lane, slot, seq, frame);
                            });
                            (lane, counts)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        drop(tx);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pod thread panicked"))
            .collect()
    });
    let mut per_lane = vec![ExecCounts::default(); n_lanes];
    for (lane, counts) in per_unit {
        per_lane[lane].add(counts);
    }
    per_lane
}

/// The ingest pipeline's configuration for a round: the configured
/// pipeline, with the platform's telemetry attached unless the pipeline
/// has its own sinks.
pub(crate) fn pipeline_config(pipeline: &IngestConfig, obs: &ObsHandles) -> IngestConfig {
    let mut cfg = pipeline.clone();
    if !cfg.obs.is_enabled() {
        cfg.obs = obs.clone();
    }
    cfg
}

/// A round's durable frame log: every frame mirrored from the ingest
/// path, shared across pod threads. Off (and free) on a non-durable
/// platform.
pub(crate) struct FrameLog(Option<Mutex<Vec<Frame>>>);

impl FrameLog {
    pub(crate) fn new(durable: bool) -> Self {
        FrameLog(durable.then(|| Mutex::new(Vec::new())))
    }

    /// Mirrors one frame (a copy) into the log, when it is on.
    pub(crate) fn push(&self, session: u64, seq: u64, frame: &[u8]) {
        if let Some(log) = &self.0 {
            log.lock()
                .expect("frame log poisoned")
                .push((session, seq, frame.to_vec()));
        }
    }

    /// The logged frames, in no particular order.
    pub(crate) fn into_frames(self) -> Vec<Frame> {
        self.0
            .map(|m| m.into_inner().expect("frame log poisoned"))
            .unwrap_or_default()
    }
}

/// Ingests a round driver's frames in merge order `(session, seq)` —
/// the order the pipelined mergers release them and resume replays them
/// — into the hive of the program `program_of(session)`.
///
/// # Panics
///
/// When a frame fails wire validation: a driver bug, not an input
/// condition.
pub(crate) fn ingest_driven<'p>(
    hives: &mut impl Hives<'p>,
    frames: &mut [Frame],
    program_of: impl Fn(u64) -> ProgramId,
) {
    frames.sort_by_key(|&(session, seq, _)| (session, seq));
    for (session, _, frame) in frames.iter() {
        let traces = wire::decode_batch(frame).expect("driver produced a corrupt frame");
        let hive = hives.hive_mut(program_of(*session));
        for trace in &traces {
            hive.ingest(trace);
        }
    }
}

/// A fix that passed trial validation and was promoted.
pub(crate) struct Promotion {
    /// The fleet (lane) whose program it fixes.
    pub(crate) lane: usize,
    /// The failure mode it fixes.
    pub(crate) signature: String,
    /// The winning candidate.
    pub(crate) candidate: FixCandidate,
}

impl Promotion {
    /// Appends the signature and overlay: the tail both platforms'
    /// `REC_PROMOTE` bodies share.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_str(buf, &self.signature);
        self.candidate.overlay.encode_into(buf);
    }
}

/// Decodes the tail written by [`Promotion::encode_into`]: the failure
/// mode's signature and the promoted fix.
pub(crate) fn decode_promotion(
    r: &mut codec::Reader<'_>,
) -> Result<(String, FixCandidate), DurabilityError> {
    let corrupt = |e: CodecError| DurabilityError::Corrupt(e.to_string());
    let signature = r.str("promote.signature").map_err(corrupt)?.to_string();
    let overlay = Overlay::decode(r).map_err(corrupt)?;
    let description = String::new();
    Ok((
        signature,
        FixCandidate {
            overlay,
            description,
        },
    ))
}

/// One proposal's trial: its candidates, the trial cases pooled from
/// the fleet's pods, and the overlay it is validated against.
struct Trial<'a> {
    lane: usize,
    signature: String,
    candidates: Vec<FixCandidate>,
    failing: Vec<TestCase>,
    passing: Vec<TestCase>,
    base: &'a Overlay,
}

/// Steps 3 and 4 of a round: the fix pipeline (when `fixes` is on), then
/// guidance dispatch (when `guidance` is on). Returns the promoted fixes.
pub(crate) fn fix_and_guide<'p>(
    fleets: &mut [Fleet<'p>],
    hives: &mut impl Hives<'p>,
    fixes: bool,
    guidance: bool,
    min_preservation_cases: usize,
) -> Vec<Promotion> {
    let promoted = if fixes {
        promote_fixes(fleets, hives, min_preservation_cases)
    } else {
        Vec::new()
    };
    if guidance {
        dispatch_guidance(fleets, hives);
    }
    promoted
}

/// The fix pipeline. Every fleet's hive proposes fixes; each proposal
/// pools trial cases from its fleet's pods (failing cases of its mode,
/// then passing regression cases) and is ranked on a scoped thread of its
/// own, always against its program's *round-start* overlay. Winners are
/// then promoted sequentially in `(lane, proposal)` order, so the chosen
/// fixes and the overlay-version sequence do not depend on thread
/// scheduling. (Resume replays recorded promotions, never re-validation.)
fn promote_fixes<'p>(
    fleets: &[Fleet<'p>],
    hives: &mut impl Hives<'p>,
    min_preservation_cases: usize,
) -> Vec<Promotion> {
    let bases: Vec<Overlay> = fleets
        .iter()
        .map(|f| hives.hive(f.id).current_overlay().0.clone())
        .collect();
    let mut trials: Vec<Trial<'_>> = Vec::new();
    for (lane, fleet) in fleets.iter().enumerate() {
        for proposal in hives.hive(fleet.id).propose_fixes() {
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
                base: &bases[lane],
            });
        }
    }
    let winners: Vec<Option<(FixCandidate, Validation)>> = std::thread::scope(|s| {
        let handles: Vec<_> = trials
            .iter()
            .map(|t| {
                let program = fleets[t.lane].program;
                s.spawn(move || {
                    rank(
                        program,
                        t.base,
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
    let mut promoted = Vec::new();
    for (t, winner) in trials.into_iter().zip(winners) {
        let Some((candidate, validation)) = winner else {
            continue;
        };
        if distributes(&t, &validation, min_preservation_cases) {
            hives
                .hive_mut(fleets[t.lane].id)
                .promote(&t.signature, &candidate);
            promoted.push(Promotion {
                lane: t.lane,
                signature: t.signature,
                candidate,
            });
        }
    }
    promoted
}

/// The distribute rule: a `Distribute` verdict, or a predicted deadlock
/// fix (a `lock-cycle:` mode with no failing case yet) that preserved
/// every one of at least `min_preservation_cases` passing cases.
fn distributes(trial: &Trial<'_>, validation: &Validation, min_preservation_cases: usize) -> bool {
    match validation.verdict {
        Verdict::Distribute => true,
        Verdict::Reject | Verdict::Suggest => {
            trial.signature.starts_with("lock-cycle:")
                && trial.failing.is_empty()
                && validation.passing_total as usize >= min_preservation_cases
                && validation.passing_preserved == validation.passing_total
        }
    }
}

/// Guidance dispatch: plans each fleet's guidance and spreads the
/// directives over its pods — directive `i` to pod `i mod n`, and each
/// input seed to three consecutive pods, so one lost or odd pod cannot
/// stall exploration. A fleet with no pods still plans (its hive
/// advances exactly as resume replays it) but receives nothing.
fn dispatch_guidance<'p>(fleets: &mut [Fleet<'p>], hives: &mut impl Hives<'p>) {
    for fleet in fleets {
        let (plan, _stats) = hives.hive_mut(fleet.id).guidance();
        let n = fleet.pods.len();
        if n == 0 {
            continue;
        }
        for (i, d) in plan.directives.into_iter().enumerate() {
            match d {
                Directive::InputSeed { .. } => {
                    for k in 0..3usize {
                        fleet.pods[(i * 3 + k) % n].receive_guidance([d.clone()]);
                    }
                }
                other => fleet.pods[i % n].receive_guidance([other]),
            }
        }
    }
}

/// Failures per 10k executions (0 for an empty round).
pub(crate) fn failure_rate_per_10k(executions: u64, failures: u64) -> f64 {
    if executions == 0 {
        0.0
    } else {
        failures as f64 * 10_000.0 / executions as f64
    }
}

/// Step 6 of a round, the durable commit and its bookkeeping: runs
/// `commit` under the `<source>.round_commit_ns` span, counts the round's
/// `[round, executions, failures, fixes_promoted]` totals into
/// `<source>.rounds`, `.executions`, `.failures` and `.fixes_promoted`,
/// and records its `round_committed` event with `extra` fields after the
/// totals (content-determined only, so `events_hash` is replay- and
/// host-stable). Returns the round's telemetry entry.
///
/// # Panics
///
/// When the commit fails: crash-only software dies loudly and restarts
/// through resume rather than running on with unpersisted state.
pub(crate) fn commit_observed(
    obs: &ObsHandles,
    source: &'static str,
    [round, executions, failures, fixes_promoted]: [u64; 4],
    extra: &[(&'static str, u64)],
    commit: impl FnOnce() -> Result<RoundTelemetry, DurabilityError>,
) -> RoundTelemetry {
    let clock = obs.span_clock();
    let commit_hist = obs
        .registry
        .as_ref()
        .map(|r| r.histogram(&format!("{source}.round_commit_ns")));
    let commit_span = SpanTimer::start_if(clock.as_ref(), &commit_hist);
    let mut telemetry = commit().expect("durable round commit failed");
    telemetry.commit_ns = commit_span.map_or(0, SpanTimer::stop);
    telemetry.round = round;
    if let Some(reg) = obs.registry.as_ref() {
        reg.counter(&format!("{source}.rounds")).incr();
        reg.counter(&format!("{source}.executions")).add(executions);
        reg.counter(&format!("{source}.failures")).add(failures);
        reg.counter(&format!("{source}.fixes_promoted"))
            .add(fixes_promoted);
    }
    let mut fields = vec![
        ("round", round),
        ("executions", executions),
        ("failures", failures),
        ("fixes_promoted", fixes_promoted),
    ];
    fields.extend_from_slice(extra);
    obs.recorder.info(
        source,
        "round_committed",
        &fields,
        format_args!(
            "round {round} committed: {executions} executions, {failures} failures, \
             {fixes_promoted} fix(es) promoted"
        ),
    );
    telemetry
}

/// The half both checkpoint `app_meta` layouts share: the
/// committed-round counter, then the whole round history, each report
/// written by `encode`.
pub(crate) fn encode_history<R>(
    buf: &mut Vec<u8>,
    round_idx: u64,
    history: &[R],
    encode: impl Fn(&R, &mut Vec<u8>),
) {
    codec::put_u64(buf, round_idx);
    codec::put_u32(buf, history.len() as u32);
    for report in history {
        encode(report, buf);
    }
}

/// Decodes the half written by [`encode_history`]; `labels` name the
/// round counter and the history in codec errors.
pub(crate) fn decode_history<R>(
    r: &mut codec::Reader<'_>,
    [round_label, history_label]: [&'static str; 2],
    decode: impl Fn(&mut codec::Reader<'_>) -> Result<R, CodecError>,
) -> Result<(u64, Vec<R>), CodecError> {
    let round_idx = r.u64(round_label)?;
    let n = r.seq_len(history_label, 112)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(decode(r)?);
    }
    Ok((round_idx, history))
}

/// Fails unless `r` consumed its whole input: trailing bytes behind a
/// valid checksum mean the record has some other layout.
pub(crate) fn expect_end(r: &codec::Reader<'_>, what: &str) -> Result<(), DurabilityError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(DurabilityError::Corrupt(format!(
            "{what} has {n} trailing byte(s)"
        ))),
    }
}

/// One committed round's journal records: everything after the previous
/// ROUND or ABORT record, through this round's ROUND record.
pub(crate) struct Segment<'r, R> {
    /// The decoded round record.
    pub(crate) report: R,
    /// Frame records, in merge order `(session, seq)`.
    pub(crate) frames: Vec<&'r JournalRecord>,
    /// Promotion records, in journal order.
    pub(crate) promotes: Vec<&'r JournalRecord>,
    /// The newest pod-image record per session.
    pub(crate) pods: BTreeMap<u64, &'r JournalRecord>,
    /// Where the segment starts: journal byte offset and record index.
    pub(crate) start: (usize, usize),
}

impl<R> Segment<'_, R> {
    /// Decodes every frame record in merge order, hands its session and
    /// traces to `ingest`, and raises each session's frame floor past it.
    pub(crate) fn replay_frames(
        &self,
        floors: &mut BTreeMap<u64, u64>,
        mut ingest: impl FnMut(u64, &[ExecutionTrace]) -> Result<(), DurabilityError>,
    ) -> Result<(), DurabilityError> {
        for fr in &self.frames {
            let traces = wire::decode_batch(&fr.frame)
                .map_err(|e| DurabilityError::Corrupt(format!("frame batch: {e}")))?;
            ingest(fr.session, &traces)?;
            let floor = floors.entry(fr.session).or_insert(0);
            *floor = (*floor).max(fr.seq + 1);
        }
        Ok(())
    }
}

/// Walks a journal suffix one committed round at a time. FRAME, PROMOTE
/// and PODS records are buffered; an ABORT record (a partial round an
/// earlier recovery fenced) discards the buffer; a ROUND record closes
/// the segment. Unknown record kinds are corruption. What to do with a
/// segment — apply it, or stop because it does not continue the
/// recovered state — is the caller's recovery policy.
pub(crate) struct SegmentScan<'r> {
    records: &'r [JournalRecord],
    /// Index and byte offset of the next record.
    next: usize,
    offset: usize,
    /// Where the open segment starts: byte offset and record index.
    open: (usize, usize),
    frames: Vec<&'r JournalRecord>,
    promotes: Vec<&'r JournalRecord>,
    pods: BTreeMap<u64, &'r JournalRecord>,
}

impl<'r> SegmentScan<'r> {
    /// Scans `records`, the first of which starts at journal byte
    /// `replay_from`.
    pub(crate) fn new(records: &'r [JournalRecord], replay_from: usize) -> Self {
        SegmentScan {
            records,
            next: 0,
            offset: replay_from,
            open: (replay_from, 0),
            frames: Vec::new(),
            promotes: Vec::new(),
            pods: BTreeMap::new(),
        }
    }

    /// The next committed round, its round record read by `decode`, or
    /// `None` at the end of the journal.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] on a round record that does not
    /// decode or an unknown record kind.
    pub(crate) fn next_round<R>(
        &mut self,
        decode: impl Fn(&mut codec::Reader<'_>) -> Result<R, CodecError>,
    ) -> Result<Option<Segment<'r, R>>, DurabilityError> {
        while let Some(rec) = self.records.get(self.next) {
            self.next += 1;
            self.offset += rec.encoded_len();
            match rec.kind {
                REC_FRAME => self.frames.push(rec),
                REC_PROMOTE => self.promotes.push(rec),
                REC_PODS => {
                    self.pods.insert(rec.session, rec);
                }
                REC_TOMBSTONE => {} // transport-only; platforms journal none
                REC_ABORT => {
                    self.frames.clear();
                    self.promotes.clear();
                    self.pods.clear();
                    self.open = (self.offset, self.next);
                }
                REC_ROUND => {
                    let report = decode(&mut codec::Reader::new(&rec.frame))
                        .map_err(|e| DurabilityError::Corrupt(format!("round record: {e}")))?;
                    let mut frames = std::mem::take(&mut self.frames);
                    frames.sort_by_key(|r| (r.session, r.seq));
                    return Ok(Some(Segment {
                        report,
                        frames,
                        promotes: std::mem::take(&mut self.promotes),
                        pods: std::mem::take(&mut self.pods),
                        start: std::mem::replace(&mut self.open, (self.offset, self.next)),
                    }));
                }
                other => {
                    return Err(DurabilityError::Corrupt(format!(
                        "unknown journal record kind {other}"
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Where the open segment starts (just past the newest ROUND or
    /// ABORT record scanned): byte offset and record index.
    pub(crate) fn open_start(&self) -> (usize, usize) {
        self.open
    }

    /// Records buffered in the open, uncommitted segment.
    pub(crate) fn pending(&self) -> u64 {
        (self.frames.len() + self.promotes.len() + self.pods.len()) as u64
    }
}
