//! The three closed-loop workloads, their platform configurations, and
//! the untraced campaign runner with its correctness gates.
//!
//! A *campaign* builds the programs and a fresh platform (the set-up),
//! then runs a fixed number of rounds with one client: the next round
//! starts only when the previous `round()` returns its report. A run
//! executes several campaigns, each on a sub-seed derived from the run's
//! seed, so one run averages over several independent populations.

use softborg::hive::HiveConfig;
use softborg::ingest::{IngestConfig, IngestStats};
use softborg::obs::{FlightRecorder, MetricsRegistry, ObsHandles};
use softborg::pod::PodConfig;
use softborg::program::interp::ExecConfig;
use softborg::program::scenarios::{self, Scenario};
use softborg::shard::ShardRunStats;
use softborg::store::ChainStore;
use softborg::trace::wire::fnv1a;
use softborg::{
    ChainSettings, DurabilityConfig, FleetSpec, IngestSettings, MultiPlatform, MultiPlatformConfig,
    MultiRoundReport, Platform, PlatformConfig, RoundReport, RoundTelemetry,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Run length (seconds) the campaign counts below are sized for; a run
/// asked to measure for `s` seconds executes `campaigns * s / REF_SECONDS`
/// campaigns (at least one).
pub const REF_SECONDS: u64 = 30;

/// Hang-deep draws `in0` from 40..=49, so one execution in ten takes the
/// `in0 == 42` hang. Under the scenario's natural 0..=999 range a round
/// sees 0.75 hangs on average, so whether and when the hang first fires
/// varies from seed to seed and a late first hang leaves failures in the
/// final rounds; at one in ten it fires in round 0 of every campaign.
const HANG_INPUTS: (i64, i64) = (40, 49);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HangDeep,
    WideDurable,
    FleetMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HangDeep,
        Workload::WideDurable,
        Workload::FleetMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HangDeep => "hang-deep",
            Workload::WideDurable => "wide-durable",
            Workload::FleetMix => "fleet-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size. `smoke` shrinks it to finish in seconds; a
    /// smoke run checks plumbing, not performance.
    pub fn spec(self, smoke: bool) -> Spec {
        let full = match self {
            Workload::HangDeep => Spec {
                rounds: 10,
                n_pods: 30,
                execs_per_pod: 25,
                max_steps: 5_000,
                hang_bound: 800,
                campaigns: 14,
                min_checkpoints: 0,
            },
            Workload::WideDurable => Spec {
                rounds: 100,
                n_pods: 50,
                execs_per_pod: 25,
                max_steps: 50_000,
                hang_bound: HiveConfig::default().hang_bound,
                campaigns: 6,
                min_checkpoints: 10,
            },
            Workload::FleetMix => Spec {
                rounds: 100,
                n_pods: 20,
                execs_per_pod: 25,
                max_steps: 5_000,
                hang_bound: HiveConfig::default().hang_bound,
                campaigns: 6,
                min_checkpoints: 0,
            },
        };
        if !smoke {
            return full;
        }
        Spec {
            rounds: if self == Workload::HangDeep { 4 } else { 6 },
            n_pods: full.n_pods.min(8),
            execs_per_pod: 10,
            max_steps: full.max_steps.min(3_000),
            hang_bound: full.hang_bound.min(500),
            campaigns: 1,
            min_checkpoints: 0,
        }
    }

    /// The guest programs, built fresh (building them is part of set-up).
    pub fn programs(self) -> Vec<Scenario> {
        match self {
            Workload::HangDeep => {
                let mut s = scenarios::spin_wait();
                s.input_range = HANG_INPUTS;
                vec![s]
            }
            Workload::WideDurable => vec![scenarios::record_processor()],
            // The 8-program corpus of the shard-scaling experiment.
            Workload::FleetMix => vec![
                scenarios::token_parser(),
                scenarios::triangle(),
                scenarios::short_read_client(),
                scenarios::bank_transfer(),
                scenarios::spin_wait(),
                scenarios::racy_counter(),
                scenarios::dining_philosophers(3),
                scenarios::record_processor(),
            ],
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::WideDurable
    }
}

/// One workload's size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Rounds per campaign.
    pub rounds: u32,
    /// Pods per program.
    pub n_pods: u32,
    /// Executions per pod per round.
    pub execs_per_pod: u32,
    /// Interpreter step budget per execution.
    pub max_steps: u64,
    /// `HiveConfig::hang_bound`.
    pub hang_bound: u64,
    /// Campaigns per run of `REF_SECONDS`.
    pub campaigns: usize,
    /// Checkpoints a durable campaign must write (0 = no check).
    pub min_checkpoints: u64,
}

impl Spec {
    /// Campaigns in a run that measures for `seconds`.
    pub fn campaigns_for(&self, seconds: u64) -> usize {
        let scaled = (self.campaigns as u64 * seconds + REF_SECONDS / 2) / REF_SECONDS;
        scaled.max(1) as usize
    }
}

/// The sub-seed of campaign `index` in a run with seed `seed`
/// (splitmix64 of the pair, so nearby seeds give unrelated campaigns).
pub fn campaign_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ingest settings of every workload: the host has two CPUs, so two pod
/// threads and two decode workers.
fn ingest_settings() -> IngestSettings {
    IngestSettings {
        pipelined: true,
        pod_threads: 2,
        batch_size: 32,
        pipeline: IngestConfig {
            workers: 2,
            ..IngestConfig::default()
        },
    }
}

fn pod_config(spec: &Spec, s: &Scenario) -> PodConfig {
    PodConfig {
        input_range: s.input_range,
        exec: ExecConfig {
            max_steps: spec.max_steps,
        },
        ..PodConfig::default()
    }
}

fn hive_config(spec: &Spec) -> HiveConfig {
    HiveConfig {
        hang_bound: spec.hang_bound,
        ..HiveConfig::default()
    }
}

/// The durability policy of `wide-durable`: the default policy wrote only
/// 3 chain records in 60 rounds, so compaction triggers earlier and the
/// chain rebases after less delta growth, giving 10+ checkpoints and at
/// least one full rebase per 100-round campaign.
pub fn durability_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        compact_ratio: 1,
        min_compact_wal_bytes: 64 * 1024,
        chain: Some(ChainSettings {
            rebase_ratio: 1,
            skip_last_delta: false,
        }),
    }
}

/// A single-program platform's configuration. `live_obs` attaches a
/// metrics registry, so store commits are timed (traced runs only).
pub fn platform_config(
    spec: &Spec,
    s: &Scenario,
    seed: u64,
    durable_dir: Option<&Path>,
    live_obs: bool,
) -> PlatformConfig {
    let obs = if live_obs {
        ObsHandles::new(MetricsRegistry::new(), FlightRecorder::disabled())
    } else {
        ObsHandles::default()
    };
    PlatformConfig {
        n_pods: spec.n_pods,
        pod: pod_config(spec, s),
        hive: hive_config(spec),
        seed,
        ingest: ingest_settings(),
        durability: durable_dir.map(durability_config),
        obs,
        ..PlatformConfig::default()
    }
}

pub fn multi_config(spec: &Spec, seed: u64) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: spec.n_pods,
        n_shards: 2,
        hive: hive_config(spec),
        seed,
        ingest: ingest_settings(),
        ..MultiPlatformConfig::default()
    }
}

pub fn fleet_specs<'p>(spec: &Spec, programs: &'p [Scenario]) -> Vec<FleetSpec<'p>> {
    programs
        .iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: pod_config(spec, s),
        })
        .collect()
}

/// What one round reported, reduced to the counters the gates and
/// metrics read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    pub executions: u64,
    pub failures: u64,
    pub fixes: u64,
}

/// Digests a single-program history (the journal's report encoding).
pub fn history_digest(history: &[RoundReport]) -> u64 {
    let mut buf = Vec::new();
    for r in history {
        r.encode_into(&mut buf);
    }
    fnv1a(&buf)
}

/// Digests a multi-program history.
pub fn multi_history_digest(history: &[MultiRoundReport]) -> u64 {
    let mut buf = Vec::new();
    for r in history {
        r.encode_into(&mut buf);
    }
    fnv1a(&buf)
}

/// Digests every shard state, in shard order.
pub fn shards_digest(states: &[Vec<u8>]) -> u64 {
    let mut buf = Vec::new();
    for s in states {
        buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
        buf.extend_from_slice(s);
    }
    fnv1a(&buf)
}

/// One campaign's result.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub seed: u64,
    /// Wall time of the campaign's own set-up.
    pub setup_s: f64,
    /// The campaign's own set-up time followed by every set-up timed
    /// between its rounds.
    pub setup_samples: Vec<f64>,
    pub campaign_s: f64,
    pub round_ms: Vec<f64>,
    pub rounds: Vec<RoundSummary>,
    pub state_digest: u64,
    pub history_digest: u64,
    /// `Err` names the first correctness gate the campaign failed.
    pub gate: Result<(), String>,
    pub durable: Option<DurableCheck>,
    /// Per-round store telemetry (durable workloads only).
    pub telemetry: Vec<RoundTelemetry>,
    /// Journal bytes appended per round, measured on rounds that did not
    /// compact (where the journal only grows).
    pub journal_bytes: Vec<u64>,
    /// The platform's own ingest-pipeline statistics, one per round
    /// (traced single-program runs only).
    pub ingest_runs: Vec<IngestStats>,
    /// The platform's own sharded-run statistics, one per round (traced
    /// `fleet-mix` runs only).
    pub shard_runs: Vec<ShardRunStats>,
}

/// The durable half of a campaign's result.
#[derive(Debug, Clone)]
pub struct DurableCheck {
    /// Wall time of `Platform::resume` (outside `campaign_s`).
    pub resume_s: f64,
    pub checkpoints: u64,
    /// Whether the chain rebased onto a full record past generation 0.
    pub rebased: bool,
}

impl Campaign {
    pub fn executions(&self) -> u64 {
        self.rounds.iter().map(|r| r.executions).sum()
    }

    pub fn failures(&self) -> u64 {
        self.rounds.iter().map(|r| r.failures).sum()
    }

    /// Rounds up to and including the one that promoted the last fix
    /// (0 when no fix was promoted).
    pub fn rounds_to_fix(&self) -> u64 {
        self.rounds
            .iter()
            .rposition(|r| r.fixes > 0)
            .map_or(0, |i| i as u64 + 1)
    }
}

/// Builds the programs and a platform once, as a campaign's set-up does,
/// and returns the wall time; a durable set-up opens `dir`, which is
/// removed afterwards.
fn time_setup(w: Workload, spec: &Spec, seed: u64, dir: &Path) -> f64 {
    let t0 = Instant::now();
    let programs = w.programs();
    let elapsed = match w {
        Workload::FleetMix => {
            let p = MultiPlatform::new(&fleet_specs(spec, &programs), multi_config(spec, seed));
            let e = t0.elapsed();
            drop(p);
            e
        }
        _ => {
            let dir = w.durable().then_some(dir);
            let cfg = platform_config(spec, &programs[0], seed, dir, false);
            let p = Platform::new(&programs[0].program, cfg);
            let e = t0.elapsed();
            drop(p);
            e
        }
    };
    remove_dir(dir);
    elapsed.as_secs_f64()
}

/// After each round of an untraced campaign one more set-up is timed, so
/// that the `setup_s` samples spread over the whole run rather than
/// bunching at a few moments of it. Returns the time this took, which
/// the campaign time leaves out (zero in traced runs, which skip it).
fn setup_after_round(
    w: Workload,
    spec: &Spec,
    seed: u64,
    dir: &Path,
    traced: bool,
    samples: &mut Vec<f64>,
) -> Duration {
    if traced {
        return Duration::ZERO;
    }
    let t = Instant::now();
    samples.push(time_setup(w, spec, seed, dir));
    t.elapsed()
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove a benchmark work directory");
    }
}

/// Runs one campaign of the platform on `seed`. `dir` is the campaign's
/// durable directory (used only by durable workloads; removed
/// afterwards), and durable set-ups between rounds use `dir` with the
/// extension `setup`. `traced` attaches a metrics registry to a durable
/// platform, so store commits are timed, and keeps the platform's
/// per-round pipeline statistics; both stay off in untraced runs, which
/// instead time set-ups between rounds.
pub fn run_campaign(w: Workload, spec: &Spec, seed: u64, dir: &Path, traced: bool) -> Campaign {
    match w {
        Workload::FleetMix => run_multi(spec, seed, dir, traced),
        _ => {
            let c = run_single(w, spec, seed, dir, traced);
            remove_dir(dir);
            c
        }
    }
}

fn run_single(w: Workload, spec: &Spec, seed: u64, dir: &Path, traced: bool) -> Campaign {
    let durable_dir = w.durable().then_some(dir);
    let live_obs = traced && durable_dir.is_some();
    if let Some(d) = durable_dir {
        remove_dir(d);
    }
    let t0 = Instant::now();
    let programs = w.programs();
    let cfg = platform_config(spec, &programs[0], seed, durable_dir, live_obs);
    let mut platform = Platform::new(&programs[0].program, cfg.clone());
    let setup_s = t0.elapsed().as_secs_f64();

    let mut round_ms = Vec::with_capacity(spec.rounds as usize);
    let mut journal_bytes = Vec::new();
    let mut ingest_runs = Vec::new();
    let mut setup_samples = vec![setup_s];
    let mut setup_time = Duration::ZERO;
    let setup_dir = dir.with_extension("setup");
    let started = Instant::now();
    for _ in 0..spec.rounds {
        let wal_before = platform.wal_len();
        let t = Instant::now();
        platform.round(spec.execs_per_pod);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if traced {
            ingest_runs.extend(platform.last_ingest().copied());
        }
        let compacted = platform
            .round_telemetry()
            .last()
            .is_some_and(|t| t.compacted);
        if let (Some(before), Some(after), false) = (wal_before, platform.wal_len(), compacted) {
            journal_bytes.push(after - before);
        }
        setup_time += setup_after_round(w, spec, seed, &setup_dir, traced, &mut setup_samples);
    }
    let campaign_s = (started.elapsed() - setup_time).as_secs_f64();

    let history = platform.history().to_vec();
    let state = platform.hive_state();
    let rounds: Vec<RoundSummary> = history
        .iter()
        .map(|r| RoundSummary {
            executions: r.executions,
            failures: r.failures,
            fixes: r.fixes_promoted,
        })
        .collect();
    let telemetry = match durable_dir {
        Some(_) => platform.round_telemetry().to_vec(),
        None => Vec::new(),
    };
    drop(platform);

    let mut c = Campaign {
        seed,
        setup_s,
        setup_samples,
        campaign_s,
        round_ms,
        rounds,
        state_digest: fnv1a(&state),
        history_digest: history_digest(&history),
        gate: Ok(()),
        durable: None,
        telemetry,
        journal_bytes,
        ingest_runs,
        shard_runs: Vec::new(),
    };
    c.gate = match w {
        Workload::HangDeep => hang_gate(&c.rounds),
        _ => fix_promoted_gate(&c.rounds),
    };
    if let Some(d) = durable_dir {
        let (check, resumed) = resume_check(&programs[0], cfg, d, &state, &history);
        if c.gate.is_ok() {
            c.gate = resumed;
        }
        if c.gate.is_ok() && check.checkpoints < spec.min_checkpoints {
            c.gate = Err(format!(
                "{} checkpoint(s) written, the policy must give at least {}",
                check.checkpoints, spec.min_checkpoints
            ));
        }
        if c.gate.is_ok() && spec.min_checkpoints > 0 && !check.rebased {
            c.gate = Err("the chain never rebased onto a second full record".into());
        }
        c.durable = Some(check);
    }
    c
}

/// `hang-deep`'s loop outcome: the hang fired, its bound was promoted,
/// and the final rounds are failure-free.
pub fn hang_gate(rounds: &[RoundSummary]) -> Result<(), String> {
    const QUIET_TAIL: usize = 3;
    let failures: u64 = rounds.iter().map(|r| r.failures).sum();
    let fixes: u64 = rounds.iter().map(|r| r.fixes).sum();
    let tail_start = rounds.len().saturating_sub(QUIET_TAIL);
    let tail: u64 = rounds[tail_start..].iter().map(|r| r.failures).sum();
    if failures == 0 {
        Err("the hang never fired".into())
    } else if fixes == 0 {
        Err("the hang bound was never promoted".into())
    } else if tail > 0 {
        Err(format!(
            "{tail} failure(s) in the final {QUIET_TAIL} rounds"
        ))
    } else {
        Ok(())
    }
}

/// At least one fix was promoted.
pub fn fix_promoted_gate(rounds: &[RoundSummary]) -> Result<(), String> {
    if rounds.iter().any(|r| r.fixes > 0) {
        Ok(())
    } else {
        Err("no fix was promoted".into())
    }
}

/// Resumes the finished campaign from its directory and checks that the
/// recovered hive state and history are byte-identical.
fn resume_check(
    s: &Scenario,
    cfg: softborg::PlatformConfig,
    dir: &Path,
    state: &[u8],
    history: &[RoundReport],
) -> (DurableCheck, Result<(), String>) {
    let t = Instant::now();
    let resumed = Platform::resume(&s.program, cfg);
    let resume_s = t.elapsed().as_secs_f64();
    let verdict = match &resumed {
        Err(e) => Err(format!("resume failed: {e}")),
        Ok((p, _)) if p.hive_state() != state => Err("resumed hive state differs".into()),
        Ok((p, _)) if p.history() != history => Err("resumed history differs".into()),
        Ok(_) => Ok(()),
    };
    drop(resumed);
    let (checkpoints, rebased) = chain_records(dir);
    (
        DurableCheck {
            resume_s,
            checkpoints,
            rebased,
        },
        verdict,
    )
}

/// `(checkpoints written, rebased)` for a campaign's chain: the head
/// generation counts every record, and a full record past generation 0
/// is a rebase.
fn chain_records(dir: &Path) -> (u64, bool) {
    let Ok(chain) = ChainStore::open(&dir.join("chain")) else {
        return (0, false);
    };
    let report = chain.validate();
    let checkpoints = report.head_generation.map_or(0, |g| g + 1);
    (checkpoints, report.full_generation.is_some_and(|g| g > 0))
}

fn run_multi(spec: &Spec, seed: u64, dir: &Path, traced: bool) -> Campaign {
    let t0 = Instant::now();
    let programs = Workload::FleetMix.programs();
    let mut platform = MultiPlatform::new(&fleet_specs(spec, &programs), multi_config(spec, seed));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut round_ms = Vec::with_capacity(spec.rounds as usize);
    let mut shard_runs = Vec::new();
    let mut setup_samples = vec![setup_s];
    let mut setup_time = Duration::ZERO;
    let started = Instant::now();
    for _ in 0..spec.rounds {
        let t = Instant::now();
        platform.round(spec.execs_per_pod);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if traced {
            shard_runs.extend(platform.last_run().cloned());
        }
        setup_time += setup_after_round(
            Workload::FleetMix,
            spec,
            seed,
            dir,
            traced,
            &mut setup_samples,
        );
    }
    let campaign_s = (started.elapsed() - setup_time).as_secs_f64();

    let history = platform.history().to_vec();
    let states: Vec<Vec<u8>> = (0..platform.sharded().n_shards())
        .map(|i| platform.shard_state(i))
        .collect();
    let gate = fleet_gate(&platform, &programs, &history);
    Campaign {
        seed,
        setup_s,
        setup_samples,
        campaign_s,
        round_ms,
        rounds: history
            .iter()
            .map(|r| RoundSummary {
                executions: r.executions,
                failures: r.failures,
                fixes: r.fixes_promoted,
            })
            .collect(),
        state_digest: shards_digest(&states),
        history_digest: multi_history_digest(&history),
        gate,
        durable: None,
        telemetry: Vec::new(),
        journal_bytes: Vec::new(),
        ingest_runs: Vec::new(),
        shard_runs,
    }
}

/// `fleet-mix`'s loop outcome: every lane whose hive diagnosed a failure
/// mode promoted at least one fix.
fn fleet_gate(
    platform: &MultiPlatform<'_>,
    programs: &[Scenario],
    history: &[MultiRoundReport],
) -> Result<(), String> {
    for (lane, id) in platform.programs().into_iter().enumerate() {
        let hive = platform
            .sharded()
            .hive(id)
            .expect("fleet program is placed");
        let diagnosed = hive.diagnoses().len();
        let fixes: u64 = history
            .iter()
            .map(|r| r.programs[lane].fixes_promoted)
            .sum();
        if diagnosed > 0 && fixes == 0 {
            return Err(format!(
                "lane {lane} ({}) diagnosed {diagnosed} mode(s) but promoted no fix",
                programs
                    .iter()
                    .find(|s| s.program.id() == id)
                    .map_or("?", |s| s.name)
            ));
        }
    }
    Ok(())
}

/// A scratch directory for durable campaigns, removed when dropped.
pub struct Workdir(pub PathBuf);

impl Workdir {
    pub fn create(out: &Path, tag: &str) -> std::io::Result<Workdir> {
        let dir = out.join(format!("work-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(failures: u64, fixes: u64) -> RoundSummary {
        RoundSummary {
            executions: 100,
            failures,
            fixes,
        }
    }

    #[test]
    fn hang_gate_needs_a_fix_and_a_quiet_tail() {
        assert!(hang_gate(&[r(5, 1), r(0, 0), r(0, 0), r(0, 0)]).is_ok());
        assert!(hang_gate(&[r(0, 0), r(0, 0), r(0, 0)]).is_err());
        assert!(hang_gate(&[r(5, 0), r(0, 0), r(0, 0), r(0, 0)]).is_err());
        assert!(hang_gate(&[r(5, 1), r(0, 0), r(1, 0), r(0, 0)]).is_err());
    }

    #[test]
    fn rounds_to_fix_counts_through_the_last_promotion() {
        let c = |rounds: Vec<RoundSummary>| Campaign {
            seed: 0,
            setup_s: 0.0,
            setup_samples: Vec::new(),
            campaign_s: 0.0,
            round_ms: Vec::new(),
            rounds,
            state_digest: 0,
            history_digest: 0,
            gate: Ok(()),
            durable: None,
            telemetry: Vec::new(),
            journal_bytes: Vec::new(),
            ingest_runs: Vec::new(),
            shard_runs: Vec::new(),
        };
        assert_eq!(
            c(vec![r(1, 0), r(1, 1), r(0, 0), r(1, 1), r(0, 0)]).rounds_to_fix(),
            4
        );
        assert_eq!(c(vec![r(0, 0)]).rounds_to_fix(), 0);
    }

    #[test]
    fn campaign_seeds_differ_and_repeat() {
        assert_eq!(campaign_seed(7, 0), campaign_seed(7, 0));
        assert_ne!(campaign_seed(7, 0), campaign_seed(7, 1));
        assert_ne!(campaign_seed(7, 0), campaign_seed(8, 0));
    }

    #[test]
    fn campaign_count_scales_with_run_length() {
        let spec = Workload::HangDeep.spec(false);
        assert_eq!(spec.campaigns_for(REF_SECONDS), spec.campaigns);
        assert_eq!(spec.campaigns_for(1), 1);
        assert_eq!(spec.campaigns_for(2 * REF_SECONDS), 2 * spec.campaigns);
    }
}
