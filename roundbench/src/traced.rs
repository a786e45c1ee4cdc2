//! The traced run: the benchmark composes each closed-loop round from the
//! layers' public calls over its own hive(s) and pods, and records a span
//! around every call. Nothing inside the crates is instrumented.
//!
//! The composition repeats what `Platform::round` and
//! `MultiPlatform::round` do, stage by stage, with pods derived from the
//! same seeds. Two things differ, neither of which changes a result:
//! pods execute serially before ingest (the platforms overlap them on
//! two threads), and trial validation runs one proposal after another
//! (the platforms use one thread per proposal). The traced campaign only
//! counts when its reports and hive state equal the platform's.
//!
//! The composition's spans give the time split. Because it submits a
//! whole round's frames in one burst, its ingest pipeline queues differ
//! from the platform's, so the pipeline figures (worker busy time, frame
//! latency, queue depth, memo hits, rerouted frames) come from the
//! platform's own `last_ingest()` / `last_run()` instead.

use softborg::fix::{rank, LabConfig, TestCase, Validation, Verdict};
use softborg::guidance::Directive;
use softborg::hive::{outcome_signature, Hive};
use softborg::ingest::IngestStats;
use softborg::pod::Pod;
use softborg::program::{Program, ProgramId};
use softborg::shard::{ShardRunStats, ShardedHive};
use softborg::trace::wire;
use softborg::{
    FleetSpec, MultiPlatformConfig, MultiRoundReport, PlatformConfig, ProgramRoundReport,
    RoundReport,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the span that encloses one round.
pub const ROUND: &str = "core.round";

/// One timed call, or a run of `calls` back-to-back calls of the same
/// function. `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub calls: u32,
    pub parent: Option<usize>,
    pub campaign: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub campaign: u32,
    pub round: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            campaign: 0,
            round: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            calls: 1,
            parent: self.stack.last().copied(),
            campaign: self.campaign,
            round: self.round,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now();
    }

    /// Closes span `id` as covering `calls` back-to-back calls.
    pub fn end_calls(&mut self, id: usize, calls: u32) {
        self.end(id);
        self.spans[id].calls = calls;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Writes every span as one JSON array per line:
    /// `[id, parent, campaign, round, name, calls, start_ns, end_ns]`,
    /// with `parent = -1` for a root span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "[{id},{parent},{},{},\"{}\",{},{},{}]",
                s.campaign, s.round, s.name, s.calls, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Busy time per span name and per layer, from the spans directly under
/// each round span. A round's self time is its duration minus its
/// children's, and is charged to the `core` layer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTimes {
    pub by_name: BTreeMap<&'static str, u64>,
    pub by_layer: BTreeMap<&'static str, u64>,
    pub round_ns: u64,
    pub round_self_ns: u64,
}

impl LayerTimes {
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let mut t = LayerTimes::default();
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans {
            let Some(p) = s.parent else { continue };
            if spans[p].name != ROUND {
                continue;
            }
            *child_ns.entry(p).or_default() += s.dur_ns();
            *t.by_name.entry(s.name).or_default() += s.dur_ns();
            *t.by_layer.entry(s.layer()).or_default() += s.dur_ns();
        }
        for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == ROUND) {
            t.round_ns += s.dur_ns();
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
            t.round_self_ns += own;
        }
        *t.by_layer.entry("core").or_default() += t.round_self_ns;
        t
    }

    /// Busy nanoseconds of span `name`.
    pub fn name_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }
}

/// Deterministic work counts gathered at the same call sites as the
/// spans, plus the platform's per-round ingest and sharded-run stats.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub execs: u64,
    pub steps: u64,
    pub directed: u64,
    pub frame_bytes: u64,
    pub ingest_busy_ns: u64,
    pub ingest_latency_ns: u64,
    pub ingest_frames_merged: u64,
    pub ingest_queue_high_water: u64,
    pub ingest_hits: u64,
    pub ingest_misses: u64,
    pub ingest_frames_failed: u64,
    pub shard_busy_ns: u64,
    pub shard_hits: u64,
    pub shard_misses: u64,
    pub shard_rerouted: u64,
    pub shard_imbalance_sum: f64,
    pub shard_runs: u64,
    pub proposals: u64,
    pub trial_cases: u64,
    pub promoted: u64,
    pub directives: u64,
    pub infeasible_marked: u64,
    /// Certificates published after each campaign's last round.
    pub certificates: u64,
    /// Tree nodes after each campaign's last round.
    pub nodes: u64,
    /// Paths merged after each campaign's last round.
    pub paths_merged: u64,
}

impl Counts {
    pub fn add_ingest(&mut self, s: &IngestStats) {
        self.ingest_busy_ns += s.worker_busy_ns;
        self.ingest_latency_ns += s.frame_latency_ns;
        self.ingest_frames_merged += s.frames_merged;
        self.ingest_queue_high_water = self.ingest_queue_high_water.max(s.queue_high_water as u64);
        self.ingest_hits += s.cache_hits;
        self.ingest_misses += s.cache_misses;
        self.ingest_frames_failed += s.frames_corrupt + s.frames_dropped;
    }

    pub fn add_shard(&mut self, s: &ShardRunStats) {
        self.shard_busy_ns += s.worker_busy_ns;
        self.shard_hits += s.cache_hits;
        self.shard_misses += s.cache_misses;
        self.shard_rerouted += s.frames_rerouted;
        self.shard_imbalance_sum += s.imbalance_ratio();
        self.shard_runs += 1;
        self.ingest_frames_failed += s.frames_corrupt + s.frames_dropped;
    }
}

/// Seeds pod `i` of a fleet exactly as the platforms do (`lane` is 0 for
/// a single-program platform).
fn pod_seed(seed: u64, lane: u64, i: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane << 20)
        .wrapping_add(u64::from(i) + 1)
}

/// Step 1: install the hive's current overlay on every pod.
fn distribute(hive: &Hive<'_>, pods: &mut [Pod<'_>]) {
    let (overlay, version) = hive.current_overlay();
    for pod in pods {
        pod.install_fix(overlay.clone(), version);
    }
}

/// `(executions, failures, directed)` of one fleet's round.
type Tally = (u64, u64, u64);

/// Step 2a: run every pod `execs` times, batching traces into wire
/// frames at the sequence slots the platforms use
/// (`pod_index * ceil(execs / batch) + k`). One `pod.run_once` span
/// covers the calls that fill one frame, so a campaign records one span
/// per pod and round rather than one per execution.
fn execute(
    pods: &mut [Pod<'_>],
    execs: u32,
    batch: usize,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (Vec<(u64, Vec<u8>)>, Tally) {
    let frames_per_pod = u64::from(execs).div_ceil(batch as u64);
    let mut frames = Vec::new();
    let mut tally = (0, 0, 0);
    for (i, pod) in pods.iter_mut().enumerate() {
        let mut seq = i as u64 * frames_per_pod;
        let mut done = 0;
        while done < execs {
            let n = (batch as u32).min(execs - done);
            let mut buf = Vec::with_capacity(n as usize);
            let span = rec.begin("pod.run_once");
            for _ in 0..n {
                let run = pod.run_once();
                tally.0 += 1;
                tally.1 += u64::from(run.result.outcome.is_failure());
                tally.2 += u64::from(run.directed);
                counts.steps += run.result.steps;
                buf.push(run.trace);
            }
            rec.end_calls(span, n);
            done += n;
            let frame = rec.span("trace.encode_batch", || wire::encode_batch(&buf));
            counts.frame_bytes += frame.len() as u64;
            frames.push((seq, frame));
            seq += 1;
        }
    }
    counts.execs += tally.0;
    counts.directed += tally.2;
    (frames, tally)
}

/// Whether a trial verdict distributes: the platforms' promotion rule.
/// Predicted deadlock fixes have no failing cases yet and distribute on
/// perfect preservation evidence alone.
fn distributes(
    signature: &str,
    failing_cases: usize,
    v: &Validation,
    min_preservation_cases: usize,
) -> bool {
    match v.verdict {
        Verdict::Distribute => true,
        Verdict::Reject | Verdict::Suggest => {
            signature.starts_with("lock-cycle:")
                && failing_cases == 0
                && v.passing_total as usize >= min_preservation_cases
                && v.passing_preserved == v.passing_total
        }
    }
}

/// Step 3: propose, trial-validate and promote fixes for one program.
/// Returns the fixes promoted.
fn fix_stage(
    program: &Program,
    hive: &mut Hive<'_>,
    pods: &[Pod<'_>],
    min_preservation_cases: usize,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> u64 {
    let proposals = rec.span("hive.propose_fixes", || hive.propose_fixes());
    counts.proposals += proposals.len() as u64;
    let base = hive.current_overlay().0.clone();
    let mut winners = Vec::with_capacity(proposals.len());
    for proposal in &proposals {
        let failing: Vec<TestCase> = pods
            .iter()
            .flat_map(|p| p.failing_cases())
            .filter(|(_, o)| outcome_signature(o).as_deref() == Some(proposal.signature.as_str()))
            .map(|(c, _)| c.clone())
            .take(16)
            .collect();
        let passing: Vec<TestCase> = pods
            .iter()
            .flat_map(|p| p.passing_cases())
            .take(32)
            .cloned()
            .collect();
        counts.trial_cases += ((failing.len() + passing.len()) * proposal.candidates.len()) as u64;
        let best = rec.span("fix.rank", || {
            rank(
                program,
                &base,
                &proposal.candidates,
                &failing,
                &passing,
                LabConfig::default(),
            )
            .into_iter()
            .next()
        });
        winners.push((best, failing.len()));
    }
    let mut fixes = 0;
    for (proposal, (best, failing)) in proposals.iter().zip(winners) {
        let Some((candidate, validation)) = best else {
            continue;
        };
        if distributes(
            &proposal.signature,
            failing,
            &validation,
            min_preservation_cases,
        ) {
            rec.span("fix.promote", || {
                hive.promote(&proposal.signature, &candidate)
            });
            fixes += 1;
        }
    }
    counts.promoted += fixes;
    fixes
}

/// Step 4: plan guidance and hand the directives to pods, spreading
/// input seeds over three pods each.
fn guidance_stage(
    hive: &mut Hive<'_>,
    pods: &mut [Pod<'_>],
    rec: &mut Recorder,
    counts: &mut Counts,
) {
    let (plan, stats) = rec.span("guidance.plan", || hive.guidance());
    counts.directives += plan.directives.len() as u64;
    counts.infeasible_marked += stats.infeasible_marked;
    let n = pods.len();
    for (i, d) in plan.directives.into_iter().enumerate() {
        match d {
            Directive::InputSeed { .. } => {
                for k in 0..3usize {
                    pods[(i * 3 + k) % n].receive_guidance([d.clone()]);
                }
            }
            other => pods[i % n].receive_guidance([other]),
        }
    }
}

/// A traced single-program campaign: `rounds` rounds of `Platform::round`
/// composed from public calls. Returns the reports and the final hive
/// state.
pub fn single_campaign(
    program: &Program,
    cfg: &PlatformConfig,
    rounds: u32,
    execs: u32,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (Vec<RoundReport>, Vec<u8>) {
    let mut hive = Hive::new(program, cfg.hive.clone());
    let mut pods: Vec<Pod<'_>> = (0..cfg.n_pods)
        .map(|i| {
            let mut pc = cfg.pod.clone();
            pc.seed = pod_seed(cfg.seed, 0, i);
            Pod::new(program, pc)
        })
        .collect();
    let batch = cfg.ingest.batch_size.max(1);
    let mut history = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        rec.round = round;
        let span = rec.begin(ROUND);
        if cfg.fixes_enabled {
            rec.span("core.distribute", || distribute(&hive, &mut pods));
        }
        let (frames, (executions, failures, directed)) =
            execute(&mut pods, execs, batch, rec, counts);
        let pipeline = cfg.ingest.pipeline.clone();
        rec.span("ingest.ingest_frames", || {
            hive.ingest_frames(&pipeline, move |tx| {
                for (seq, frame) in frames {
                    tx.submit_at(seq, frame);
                }
            })
        });
        let fixes_promoted = if cfg.fixes_enabled {
            fix_stage(
                program,
                &mut hive,
                &pods,
                cfg.min_preservation_cases,
                rec,
                counts,
            )
        } else {
            0
        };
        if cfg.guidance_enabled {
            guidance_stage(&mut hive, &mut pods, rec, counts);
        }
        let coverage = rec.span("tree.coverage", || hive.coverage());
        let proofs = rec.span("hive.proofs", || hive.proofs()).len() as u64;
        history.push(RoundReport {
            round: u64::from(round),
            executions,
            failures,
            failure_rate_per_10k: rate_per_10k(failures, executions),
            fixes_promoted,
            overlay_version: hive.current_overlay().1,
            coverage,
            proofs,
            directed,
        });
        rec.end(span);
    }
    if let Some(last) = history.last() {
        counts.certificates += last.proofs;
        counts.nodes += last.coverage.nodes;
        counts.paths_merged += last.coverage.paths_merged;
    }
    (history, hive.encode_state())
}

/// One program's fleet in a traced multi-program campaign.
struct Fleet<'p> {
    id: ProgramId,
    program: &'p Program,
    pods: Vec<Pod<'p>>,
}

/// A traced multi-program campaign: `rounds` rounds of
/// `MultiPlatform::round` composed from public calls over a
/// `ShardedHive`. Returns the reports and every shard's state.
pub fn multi_campaign(
    specs: &[FleetSpec<'_>],
    cfg: &MultiPlatformConfig,
    rounds: u32,
    execs: u32,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (Vec<MultiRoundReport>, Vec<Vec<u8>>) {
    let mut specs: Vec<&FleetSpec<'_>> = specs.iter().collect();
    specs.sort_by_key(|s| s.program.id());
    let programs: Vec<&Program> = specs.iter().map(|s| s.program).collect();
    let mut sharded =
        ShardedHive::new(&programs, cfg.n_shards, &cfg.hive).expect("sharded hive placement");
    let mut fleets: Vec<Fleet<'_>> = specs
        .iter()
        .enumerate()
        .map(|(lane, spec)| Fleet {
            id: spec.program.id(),
            program: spec.program,
            pods: (0..cfg.n_pods)
                .map(|i| {
                    let mut pc = spec.pod.clone();
                    pc.seed = pod_seed(cfg.seed, lane as u64, i);
                    Pod::new(spec.program, pc)
                })
                .collect(),
        })
        .collect();
    let batch = cfg.ingest.batch_size.max(1);
    let mut history = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        rec.round = round;
        let span = rec.begin(ROUND);
        if cfg.fixes_enabled {
            rec.span("core.distribute", || {
                for f in &mut fleets {
                    distribute(sharded.hive(f.id).expect("placed"), &mut f.pods);
                }
            });
        }
        let mut tagged = Vec::new();
        let mut tallies = Vec::with_capacity(fleets.len());
        for f in &mut fleets {
            let (frames, tally) = execute(&mut f.pods, execs, batch, rec, counts);
            tagged.extend(frames.into_iter().map(|(seq, fr)| (f.id, seq, fr)));
            tallies.push(tally);
        }
        let pipeline = cfg.ingest.pipeline.clone();
        rec.span("shard.ingest_frames", || {
            sharded.ingest_frames(&pipeline, move |tx| {
                for (id, seq, frame) in tagged {
                    tx.submit_for_at(id, seq, frame)
                        .expect("lane program is placed");
                }
            })
        });
        // Lanes are independent hives, so fixing lane by lane promotes
        // exactly what the platform's (lane, proposal)-ordered pass does.
        let mut fixes = vec![0u64; fleets.len()];
        if cfg.fixes_enabled {
            for (lane, f) in fleets.iter().enumerate() {
                let hive = sharded.hive_mut(f.id).expect("placed");
                fixes[lane] = fix_stage(
                    f.program,
                    hive,
                    &f.pods,
                    cfg.min_preservation_cases,
                    rec,
                    counts,
                );
            }
        }
        if cfg.guidance_enabled {
            for f in &mut fleets {
                guidance_stage(
                    sharded.hive_mut(f.id).expect("placed"),
                    &mut f.pods,
                    rec,
                    counts,
                );
            }
        }
        let programs: Vec<ProgramRoundReport> = fleets
            .iter()
            .zip(&tallies)
            .zip(&fixes)
            .map(|((f, &(e, fl, d)), &fx)| ProgramRoundReport {
                program: f.id.0,
                executions: e,
                failures: fl,
                fixes_promoted: fx,
                overlay_version: sharded.hive(f.id).expect("placed").current_overlay().1,
                directed: d,
            })
            .collect();
        let executions = programs.iter().map(|p| p.executions).sum();
        let failures = programs.iter().map(|p| p.failures).sum();
        history.push(MultiRoundReport {
            round: u64::from(round),
            executions,
            failures,
            failure_rate_per_10k: rate_per_10k(failures, executions),
            fixes_promoted: fixes.iter().sum(),
            programs,
        });
        rec.end(span);
    }
    for (_, hive) in sharded.hives() {
        counts.nodes += hive.tree().coverage().nodes;
        counts.paths_merged += hive.tree().coverage().paths_merged;
    }
    let states = (0..sharded.n_shards())
        .map(|i| sharded.encode_shard_state(i).expect("shard index in range"))
        .collect();
    (history, states)
}

fn rate_per_10k(failures: u64, executions: u64) -> f64 {
    if executions == 0 {
        0.0
    } else {
        failures as f64 * 10_000.0 / executions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            calls: 1,
            parent,
            campaign: 0,
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_round_minus_children() {
        let spans = vec![
            span(ROUND, None, 0, 100),
            span("pod.run_once", Some(0), 0, 30),
            span("pod.run_once", Some(0), 30, 50),
            span("hive.proofs", Some(0), 60, 90),
            span(ROUND, None, 100, 150),
            span("hive.proofs", Some(4), 100, 140),
        ];
        let t = LayerTimes::from_spans(&spans);
        assert_eq!(t.round_ns, 150);
        assert_eq!(t.round_self_ns, 20 + 10);
        assert_eq!(t.name_ns("pod.run_once"), 50);
        assert_eq!(t.by_layer["hive"], 70);
        assert_eq!(t.by_layer["core"], 30);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::default();
        let outer = rec.begin(ROUND);
        let v = rec.span("tree.coverage", || 7);
        rec.end(outer);
        assert_eq!(v, 7);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("[0,-1,0,0,\"core.round\",1,"));
        assert_eq!(text.lines().count(), 2);
    }
}
