//! `roundbench` — the closed-loop round benchmark.
//!
//! One run executes one workload for a fixed number of seeded campaigns
//! and prints every metric by name with its unit; its last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end metrics, measured on
//! the platforms themselves; with `--trace 1` they are the per-layer
//! metrics of a traced composition of the same rounds. `--record` runs
//! every workload (untraced, traced, and on a held-out seed) in child
//! processes and writes the benchmark record. See README.md.

mod json;
mod stats;
mod traced;
mod workloads;

use json::{hex, Json};
use softborg::trace::wire::fnv1a;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use traced::{Counts, LayerTimes, Recorder};
use workloads::{campaign_seed, Campaign, Workdir, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("execs_per_s", "execs/s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers in the order the record lists their shares.
pub const LAYERS: [&str; 10] = [
    "pod", "trace", "ingest", "shard", "tree", "hive", "fix", "guidance", "store", "core",
];

/// Per-layer metrics (`--trace 1`): name and unit. Times and counts are
/// per campaign; every metric is printed on every workload, as 0 where
/// the workload does not exercise that layer.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("pod.run_once_ms", "ms"),
    ("pod.steps", "count"),
    ("pod.execs", "count"),
    ("pod.directed", "count"),
    ("pod.share", "ratio"),
    ("trace.encode_ms", "ms"),
    ("trace.frame_bytes", "bytes"),
    ("trace.share", "ratio"),
    ("ingest.wall_ms", "ms"),
    ("ingest.worker_busy_ms", "ms"),
    ("ingest.frame_latency_us_mean", "us"),
    ("ingest.queue_high_water", "count"),
    ("ingest.memo_hit_rate", "ratio"),
    ("ingest.memo_hits", "count"),
    ("ingest.memo_misses", "count"),
    ("ingest.frames_failed", "count"),
    ("ingest.share", "ratio"),
    ("shard.ingest_wall_ms", "ms"),
    ("shard.worker_busy_ms", "ms"),
    ("shard.memo_hit_rate", "ratio"),
    ("shard.memo_hits", "count"),
    ("shard.memo_misses", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.frames_rerouted", "count"),
    ("shard.share", "ratio"),
    ("tree.coverage_ms", "ms"),
    ("tree.nodes", "count"),
    ("tree.paths_merged", "count"),
    ("tree.share", "ratio"),
    ("hive.proofs_ms", "ms"),
    ("hive.certificates", "count"),
    ("hive.propose_fixes_ms", "ms"),
    ("hive.proposals", "count"),
    ("hive.share", "ratio"),
    ("fix.rank_ms", "ms"),
    ("fix.promote_ms", "ms"),
    ("fix.trial_cases", "count"),
    ("fix.promoted_per_proposal", "ratio"),
    ("fix.share", "ratio"),
    ("guidance.plan_ms", "ms"),
    ("guidance.directives", "count"),
    ("guidance.infeasible_marked", "count"),
    ("guidance.directed_per_directive", "ratio"),
    ("guidance.share", "ratio"),
    ("store.commit_ms_p50", "ms"),
    ("store.fsync_ms_p50", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.bytes_per_round", "bytes"),
    ("store.share", "ratio"),
    ("core.distribute_ms", "ms"),
    ("core.round_self_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.share", "ratio"),
    ("core.traced_campaign_s", "s"),
    ("core.untraced_campaign_s", "s"),
    ("loop.failures_per_10k", "failures/10k"),
    ("loop.rounds_to_fix", "rounds"),
];

/// The busiest layer predicted per workload when the workloads were chosen.
fn predicted_busiest(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::HangDeep => &["hive", "tree"],
        Workload::WideDurable => &["hive"],
        Workload::FleetMix => &["pod", "shard"],
    }
}

/// Seed of the committed record's held-out runs: never used while the
/// workloads were sized.
const HELD_OUT_SEED: u64 = 7_310_419;

const USAGE: &str = "usage: roundbench --workload <hang-deep|wide-durable|fleet-mix> [--seed N] \
[--seconds N] [--trace 0|1] [--smoke] [--out DIR] [--report FILE]\n       roundbench --record \
[--seed N] [--seconds N] [--smoke] [--out DIR]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    record: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    report: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        record: false,
        seed: 1,
        seconds: workloads::REF_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("roundbench/out"),
        report: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--record" => a.record = true,
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--report" => a.report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.record == a.workload.is_some() {
        return Err("give exactly one of --workload and --record".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.record {
        record(&args)
    } else {
        run(&args).map(|line| println!("{line}"))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the working tree differs from [`git_rev`] in tracked files,
/// from `git status`; `None` outside a git checkout or without git.
fn git_dirty() -> Option<bool> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(!out.stdout.is_empty())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// A metric value with its unit, and the sample count behind it when it
/// is an order statistic.
fn metric(value: f64, unit: &str, samples: Option<usize>) -> Json {
    let m = Json::obj().with("value", value).with("unit", unit);
    match samples {
        Some(n) => m.with("samples", n),
        None => m,
    }
}

/// One run: untraced (`--trace 0`) or traced (`--trace 1`). Writes the
/// full run report and returns the result line.
fn run(args: &Args) -> Result<Json, String> {
    let w = args.workload.expect("checked by parse_args");
    let spec = w.spec(args.smoke);
    // A traced run covers the first half of the untraced run's campaigns:
    // it runs each twice (platform and composition).
    let k = match (spec.campaigns_for(args.seconds), args.trace) {
        (k, true) => k.div_ceil(2),
        (k, false) => k,
    };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let work = Workdir::create(&args.out, w.name()).map_err(|e| format!("work dir: {e}"))?;
    println!(
        "roundbench workload={} seed={} campaigns={k} rounds/campaign={} trace={} smoke={}",
        w.name(),
        args.seed,
        spec.rounds,
        u8::from(args.trace),
        args.smoke
    );

    let mut rec = Recorder::default();
    let mut counts = Counts::default();
    let mut traced_s = Vec::new();
    let mut campaigns: Vec<Result<Campaign, String>> = Vec::with_capacity(k);
    for i in 0..k {
        let seed = campaign_seed(args.seed, i);
        let dir = work.0.join(format!("c{i}"));
        let outcome = guarded(|| {
            let mut c = workloads::run_campaign(w, &spec, seed, &dir, args.trace);
            if args.trace {
                c.ingest_runs.iter().for_each(|s| counts.add_ingest(s));
                c.shard_runs.iter().for_each(|s| counts.add_shard(s));
                rec.campaign = i as u32;
                let t = Instant::now();
                let (state, history) = traced_campaign(w, &spec, seed, &mut rec, &mut counts);
                let commit_s: f64 = c.telemetry.iter().map(|t| t.commit_ns as f64 / 1e9).sum();
                traced_s.push(t.elapsed().as_secs_f64() + commit_s);
                check_traced(&mut c, state, history);
            }
            c
        });
        match &outcome {
            Ok(c) => {
                if let Err(e) = &c.gate {
                    eprintln!("campaign {i} (seed {seed:#x}) failed its gate: {e}");
                }
            }
            Err(e) => eprintln!("campaign {i} (seed {seed:#x}) {e}"),
        }
        campaigns.push(outcome);
    }
    drop(work);

    let ok: Vec<&Campaign> = campaigns.iter().filter_map(|c| c.as_ref().ok()).collect();
    let attempted = k as u64 * u64::from(spec.rounds);
    let failed = failed_rounds(&campaigns, spec.rounds);

    let mut report = Json::obj()
        .with("workload", w.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("smoke", args.smoke)
        .with("host_cpus", host_cpus())
        .with("git_rev", git_rev())
        .with(
            "campaigns",
            campaigns.iter().map(campaign_json).collect::<Vec<_>>(),
        )
        .with("rounds", k * spec.rounds as usize)
        .with("executions", ok.iter().map(|c| c.executions()).sum::<u64>())
        .with("attempted", attempted)
        .with("failed", failed)
        .with("correct", failed == 0);
    let mut digest_bytes = Vec::new();
    for c in &ok {
        digest_bytes.extend_from_slice(&c.state_digest.to_le_bytes());
        digest_bytes.extend_from_slice(&c.history_digest.to_le_bytes());
    }
    report.set("digest", hex(fnv1a(&digest_bytes)));
    report.set(
        "state_digests",
        ok.iter().map(|c| hex(c.state_digest)).collect::<Vec<_>>(),
    );
    report.set(
        "history_digests",
        ok.iter().map(|c| hex(c.history_digest)).collect::<Vec<_>>(),
    );

    let executions: u64 = ok.iter().map(|c| c.executions()).sum();
    let failures: u64 = ok.iter().map(|c| c.failures()).sum();
    let loop_metrics = Json::obj()
        .with(
            "failures_per_10k",
            metric(per_10k(failures, executions), "failures/10k", None),
        )
        .with(
            "rounds_to_fix",
            metric(
                mean(ok.iter().map(|c| c.rounds_to_fix() as f64)),
                "rounds",
                None,
            ),
        );
    report.set("loop", loop_metrics);

    let metrics = if args.trace {
        let (m, shares) = per_layer_metrics(&ok, &rec, &counts, &traced_s);
        report.set("layer_shares", shares);
        let spans = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        write_spans(&rec, &spans)?;
        report.set("spans_file", spans.display().to_string());
        m
    } else {
        let (m, tail) = end_to_end_metrics(&ok);
        report.set("round_ms_tail", tail);
        m
    };
    print_metrics(&metrics);
    if !args.trace {
        print_metrics(report.get("loop").expect("set above"));
    }
    println!(
        "correct={} attempted={attempted} failed={failed} digest={}",
        failed == 0,
        report.get("digest").and_then(Json::as_str).unwrap_or("")
    );
    report.set("metrics", metrics.clone());
    let report_path = args.report.clone().unwrap_or_else(|| {
        args.out.join(format!(
            "run-{}-seed{}-trace{}{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace),
            if args.smoke { "-smoke" } else { "" }
        ))
    });
    write_file(&report_path, &format!("{report}\n"))?;

    // The result line carries value and unit only.
    let mut slim = Json::obj();
    if let Json::Obj(map) = &metrics {
        for (name, m) in map {
            slim.set(
                name,
                Json::obj()
                    .with("value", m.get("value").cloned().unwrap_or(Json::Null))
                    .with("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
            );
        }
    }
    Ok(Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", slim))
}

/// Prints one `name = value unit` line per metric of a metrics object.
fn print_metrics(metrics: &Json) {
    let Json::Obj(map) = metrics else { return };
    for (name, m) in map {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        match m.get("samples").and_then(Json::as_f64) {
            Some(n) => println!("{name} = {value} {unit} (samples={n})"),
            None => println!("{name} = {value} {unit}"),
        }
    }
}

/// Fails the campaign's gate when the traced composition's digests
/// differ from the platform's.
fn check_traced(c: &mut Campaign, state_digest: u64, history_digest: u64) {
    if c.gate.is_ok() && (state_digest, history_digest) != (c.state_digest, c.history_digest) {
        c.gate = Err("the traced composition diverged from the platform".into());
    }
}

/// Failed operations: every round of a campaign that panicked or failed
/// a correctness gate.
fn failed_rounds(campaigns: &[Result<Campaign, String>], rounds: u32) -> u64 {
    let bad = campaigns
        .iter()
        .filter(|c| !matches!(c, Ok(c) if c.gate.is_ok()))
        .count() as u64;
    bad * u64::from(rounds)
}

/// Runs the traced composition of one campaign and returns its
/// `(state, history)` digests.
fn traced_campaign(
    w: Workload,
    spec: &workloads::Spec,
    seed: u64,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (u64, u64) {
    let programs = w.programs();
    match w {
        Workload::FleetMix => {
            let specs = workloads::fleet_specs(spec, &programs);
            let cfg = workloads::multi_config(spec, seed);
            let (history, states) =
                traced::multi_campaign(&specs, &cfg, spec.rounds, spec.execs_per_pod, rec, counts);
            (
                workloads::shards_digest(&states),
                workloads::multi_history_digest(&history),
            )
        }
        _ => {
            let cfg = workloads::platform_config(spec, &programs[0], seed, None, false);
            let (history, state) = traced::single_campaign(
                &programs[0].program,
                &cfg,
                spec.rounds,
                spec.execs_per_pod,
                rec,
                counts,
            );
            (fnv1a(&state), workloads::history_digest(&history))
        }
    }
}

fn campaign_json(c: &Result<Campaign, String>) -> Json {
    let c = match c {
        Ok(c) => c,
        Err(e) => return Json::obj().with("gate", e.as_str()),
    };
    let mut j = Json::obj()
        .with("seed", hex(c.seed))
        .with("setup_s", c.setup_s)
        .with("campaign_s", c.campaign_s)
        .with("rounds", c.rounds.len())
        .with("executions", c.executions())
        .with("failures", c.failures())
        .with("fixes", c.rounds.iter().map(|r| r.fixes).sum::<u64>())
        .with("rounds_to_fix", c.rounds_to_fix())
        .with("state_digest", hex(c.state_digest))
        .with("history_digest", hex(c.history_digest))
        .with(
            "gate",
            match &c.gate {
                Ok(()) => "ok".to_string(),
                Err(e) => e.clone(),
            },
        );
    if let Some(d) = &c.durable {
        j.set("resume_s", d.resume_s);
        j.set("checkpoints", d.checkpoints);
        j.set("rebased", d.rebased);
    }
    j
}

fn per_10k(failures: u64, executions: u64) -> f64 {
    if executions == 0 {
        0.0
    } else {
        failures as f64 * 10_000.0 / executions as f64
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run, and the round-time tail at
/// the highest percentile the sample count allows.
fn end_to_end_metrics(ok: &[&Campaign]) -> (Json, Json) {
    let setups: Vec<f64> = ok
        .iter()
        .flat_map(|c| c.setup_samples.iter().copied())
        .collect();
    let round_ms: Vec<f64> = ok.iter().flat_map(|c| c.round_ms.iter().copied()).collect();
    let campaign_s: Vec<f64> = ok.iter().map(|c| c.campaign_s).collect();
    let executions: u64 = ok.iter().map(|c| c.executions()).sum();
    let n = round_ms.len();
    let mut m = Json::obj()
        .with(
            "setup_s",
            metric(
                stats::median(&setups).unwrap_or(0.0),
                "s",
                Some(setups.len()),
            ),
        )
        .with(
            "campaign_s",
            metric(
                stats::median(&campaign_s).unwrap_or(0.0),
                "s",
                Some(campaign_s.len()),
            ),
        )
        .with(
            "execs_per_s",
            metric(
                ratio(executions as f64, campaign_s.iter().sum()),
                "execs/s",
                None,
            ),
        )
        .with(
            "round_ms.p50",
            metric(stats::median(&round_ms).unwrap_or(0.0), "ms", Some(n)),
        )
        .with("peak_rss_mb", metric(peak_rss_mb(), "MB", None));
    if stats::percentile_allowed(n, 90.0) {
        m.set(
            "round_ms.p90",
            metric(
                stats::percentile(&round_ms, 90.0).unwrap_or(0.0),
                "ms",
                Some(n),
            ),
        );
    }
    let tail = match stats::tail_percentile(n) {
        Some(p) => Json::obj()
            .with("percentile", p)
            .with("value_ms", stats::percentile(&round_ms, p).unwrap_or(0.0))
            .with("samples", n),
        None => Json::obj().with("samples", n),
    };
    (m, tail)
}

/// The per-layer metrics of a traced run, and each layer's share of
/// round time.
fn per_layer_metrics(
    ok: &[&Campaign],
    rec: &Recorder,
    c: &Counts,
    traced_s: &[f64],
) -> (Json, Json) {
    let k = ok.len().max(1) as f64;
    let t = LayerTimes::from_spans(&rec.spans);
    let ms = |ns: u64| ns as f64 / 1e6 / k;
    let per = |v: u64| v as f64 / k;

    // Store layer: the durable platform's own commit telemetry.
    let telemetry: Vec<_> = ok.iter().flat_map(|c| c.telemetry.iter()).collect();
    let commit_ms: Vec<f64> = telemetry.iter().map(|t| t.commit_ns as f64 / 1e6).collect();
    let fsync_ms: Vec<f64> = telemetry.iter().map(|t| t.fsync_ns as f64 / 1e6).collect();
    let store_ns: u64 = telemetry.iter().map(|t| t.commit_ns).sum();
    let checkpoint_bytes: u64 = telemetry.iter().map(|t| t.checkpoint_bytes).sum();
    let journal: Vec<f64> = ok
        .iter()
        .flat_map(|c| c.journal_bytes.iter().map(|&b| b as f64))
        .collect();
    let bytes_per_round = if telemetry.is_empty() {
        0.0
    } else {
        mean(journal.into_iter()) + checkpoint_bytes as f64 / telemetry.len() as f64
    };

    let total_ns = (t.round_ns + store_ns) as f64;
    let layer_ns = |layer: &str| match layer {
        "store" => store_ns,
        l => t.by_layer.get(l).copied().unwrap_or(0),
    };
    let share = |layer: &str| ratio(layer_ns(layer) as f64, total_ns);
    let mut shares = Json::obj();
    for layer in LAYERS {
        shares.set(layer, share(layer));
    }
    let busiest = LAYERS
        .iter()
        .copied()
        .max_by_key(|l| layer_ns(l))
        .unwrap_or("core");

    let execs = ok.iter().map(|c| c.executions()).sum::<u64>();
    let failures = ok.iter().map(|c| c.failures()).sum::<u64>();
    let untraced_s = mean(ok.iter().map(|c| c.campaign_s));
    let traced = mean(traced_s.iter().copied());
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.extend(LAYERS.map(|layer| (format!("{layer}.share"), share(layer))));
    values.extend(
        [
            ("pod.run_once_ms", ms(t.name_ns("pod.run_once"))),
            ("pod.steps", per(c.steps)),
            ("pod.execs", per(c.execs)),
            ("pod.directed", per(c.directed)),
            ("trace.encode_ms", ms(t.name_ns("trace.encode_batch"))),
            ("trace.frame_bytes", per(c.frame_bytes)),
            ("ingest.wall_ms", ms(t.name_ns("ingest.ingest_frames"))),
            ("ingest.worker_busy_ms", ms(c.ingest_busy_ns)),
            (
                "ingest.frame_latency_us_mean",
                ratio(
                    c.ingest_latency_ns as f64 / 1e3,
                    c.ingest_frames_merged as f64,
                ),
            ),
            ("ingest.queue_high_water", c.ingest_queue_high_water as f64),
            (
                "ingest.memo_hit_rate",
                ratio(
                    c.ingest_hits as f64,
                    (c.ingest_hits + c.ingest_misses) as f64,
                ),
            ),
            ("ingest.memo_hits", per(c.ingest_hits)),
            ("ingest.memo_misses", per(c.ingest_misses)),
            ("ingest.frames_failed", per(c.ingest_frames_failed)),
            ("shard.ingest_wall_ms", ms(t.name_ns("shard.ingest_frames"))),
            ("shard.worker_busy_ms", ms(c.shard_busy_ns)),
            (
                "shard.memo_hit_rate",
                ratio(c.shard_hits as f64, (c.shard_hits + c.shard_misses) as f64),
            ),
            ("shard.memo_hits", per(c.shard_hits)),
            ("shard.memo_misses", per(c.shard_misses)),
            (
                "shard.imbalance",
                ratio(c.shard_imbalance_sum, c.shard_runs as f64),
            ),
            ("shard.frames_rerouted", per(c.shard_rerouted)),
            ("tree.coverage_ms", ms(t.name_ns("tree.coverage"))),
            ("tree.nodes", per(c.nodes)),
            ("tree.paths_merged", per(c.paths_merged)),
            ("hive.proofs_ms", ms(t.name_ns("hive.proofs"))),
            ("hive.certificates", per(c.certificates)),
            ("hive.propose_fixes_ms", ms(t.name_ns("hive.propose_fixes"))),
            ("hive.proposals", per(c.proposals)),
            ("fix.rank_ms", ms(t.name_ns("fix.rank"))),
            ("fix.promote_ms", ms(t.name_ns("fix.promote"))),
            ("fix.trial_cases", per(c.trial_cases)),
            (
                "fix.promoted_per_proposal",
                ratio(c.promoted as f64, c.proposals as f64),
            ),
            ("guidance.plan_ms", ms(t.name_ns("guidance.plan"))),
            ("guidance.directives", per(c.directives)),
            ("guidance.infeasible_marked", per(c.infeasible_marked)),
            (
                "guidance.directed_per_directive",
                ratio(c.directed as f64, c.directives as f64),
            ),
            (
                "store.commit_ms_p50",
                stats::median(&commit_ms).unwrap_or(0.0),
            ),
            (
                "store.fsync_ms_p50",
                stats::median(&fsync_ms).unwrap_or(0.0),
            ),
            (
                "store.checkpoint_ms",
                ms(telemetry.iter().map(|t| t.checkpoint_ns).sum()),
            ),
            (
                "store.checkpoints",
                per(telemetry.iter().filter(|t| t.compacted).count() as u64),
            ),
            ("store.bytes_per_round", bytes_per_round),
            ("core.distribute_ms", ms(t.name_ns("core.distribute"))),
            ("core.round_self_ms", ms(t.round_self_ns)),
            ("core.round_ms", ms(t.round_ns)),
            ("core.traced_campaign_s", traced),
            ("core.untraced_campaign_s", untraced_s),
            ("loop.failures_per_10k", per_10k(failures, execs)),
            (
                "loop.rounds_to_fix",
                mean(ok.iter().map(|c| c.rounds_to_fix() as f64)),
            ),
        ]
        .map(|(name, v): (&str, f64)| (name.to_string(), v)),
    );
    let mut m = Json::obj();
    for (name, unit) in PER_LAYER {
        let value = values
            .get(name)
            .copied()
            .expect("every per-layer metric is computed");
        let samples = match name {
            "store.commit_ms_p50" => Some(commit_ms.len()),
            "store.fsync_ms_p50" => Some(fsync_ms.len()),
            _ => None,
        };
        m.set(name, metric(value, unit, samples));
    }
    let shares = Json::obj()
        .with("shares", shares)
        .with("busiest", busiest)
        .with("round_total_ms", total_ns / 1e6 / k)
        .with(
            "core_round_self_share",
            ratio(t.round_self_ns as f64, total_ns),
        )
        .with("tracing_overhead_s", traced - untraced_s);
    (m, shares)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_spans(rec: &Recorder, path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    rec.write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs one child process of this binary and returns its run report.
fn child_report(
    args: &Args,
    w: Workload,
    seed: u64,
    trace: bool,
    tag: &str,
) -> Result<Json, String> {
    let dir = args.out.join("record");
    let report = dir.join(format!("{}-{tag}.json", w.name()));
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .arg("--report")
        .arg(&report)
        .stdout(std::process::Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    eprintln!("roundbench record: {} {tag} (seed {seed})", w.name());
    let status = cmd
        .status()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    if !status.success() {
        return Err(format!("{} {tag} run exited with {status}", w.name()));
    }
    let text =
        std::fs::read_to_string(&report).map_err(|e| format!("read {}: {e}", report.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

/// Record mode: every workload untraced, traced and on the held-out
/// seed, one child process each; writes `roundbench/RECORD.json`, or
/// `<out>/RECORD-smoke.json` for a smoke record, which therefore never
/// replaces the committed record.
fn record(args: &Args) -> Result<(), String> {
    let dirty = git_dirty();
    let mut workloads = Json::obj();
    let mut missed = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let untraced = child_report(args, w, args.seed, false, "untraced")?;
        let traced = child_report(args, w, args.seed, true, "traced")?;
        let held_out = child_report(args, w, HELD_OUT_SEED, false, "held-out")?;
        let entry = record_entry(w, untraced, traced, held_out);
        all_correct &= entry.get("correct").and_then(Json::as_bool) == Some(true);
        if entry.get("prediction_holds").and_then(Json::as_bool) != Some(true) {
            missed.push(Json::from(w.name()));
        }
        workloads.set(w.name(), entry);
    }
    let record = Json::obj()
        .with("benchmark", "roundbench")
        .with("git_rev", git_rev())
        .with("git_dirty", dirty.map_or(Json::Null, Json::Bool))
        .with("host_cpus", host_cpus())
        .with("smoke", args.smoke)
        .with("seed", args.seed)
        .with("held_out_seed", HELD_OUT_SEED)
        .with("seconds", args.seconds)
        .with("correct", all_correct)
        .with("predictions_missed", missed)
        .with("workloads", workloads);
    let path = if args.smoke {
        args.out.join("RECORD-smoke.json")
    } else {
        PathBuf::from("roundbench/RECORD.json")
    };
    write_file(&path, &format!("{record}\n"))?;
    println!("roundbench record written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("a run failed its correctness checks (see the record)".into())
    }
}

/// One workload's record entry: the three runs, whether the traced run
/// reproduced the untraced one, the tracing overhead, and each layer's
/// share of round time against the predicted busiest layer.
fn record_entry(w: Workload, untraced: Json, traced: Json, held_out: Json) -> Json {
    // The traced run covers the first campaigns of the untraced run.
    let digests = |r: &Json, key: &str| match r.get(key) {
        Some(Json::Arr(a)) => a.clone(),
        _ => Vec::new(),
    };
    let matches = ["state_digests", "history_digests"].iter().all(|key| {
        let (u, t) = (digests(&untraced, key), digests(&traced, key));
        !t.is_empty() && u.starts_with(&t)
    });
    let value = |r: &Json, k: &str| {
        r.get("metrics")
            .and_then(|m| m.get(k))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    // Both timings come from the traced process, on the same campaigns.
    let overhead = match (
        value(&traced, "core.traced_campaign_s"),
        value(&traced, "core.untraced_campaign_s"),
    ) {
        (Some(t), Some(u)) => Json::Num(t - u),
        _ => Json::Null,
    };
    let shares = traced.get("layer_shares").cloned().unwrap_or(Json::Null);
    let busiest = shares
        .get("busiest")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let predicted = predicted_busiest(w);
    let correct = [&untraced, &traced, &held_out]
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
        && matches;
    Json::obj()
        .with("correct", correct)
        .with("traced_matches_untraced", matches)
        .with("tracing_overhead_s", overhead)
        .with("layer_shares", shares)
        .with(
            "predicted_busiest",
            predicted.iter().map(|&l| Json::from(l)).collect::<Vec<_>>(),
        )
        .with("prediction_holds", predicted.contains(&busiest.as_str()))
        .with("untraced", untraced)
        .with("traced", traced)
        .with("held_out", held_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_run_command_line() {
        let a = args(&[
            "--workload",
            "fleet-mix",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::FleetMix));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2", "--workload", "hang-deep"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--record", "--workload", "hang-deep"]).is_err());
    }

    fn campaign(state_digest: u64, history_digest: u64) -> Campaign {
        Campaign {
            seed: 1,
            setup_s: 0.1,
            setup_samples: vec![0.1],
            campaign_s: 1.0,
            round_ms: vec![10.0; 4],
            rounds: Vec::new(),
            state_digest,
            history_digest,
            gate: Ok(()),
            durable: None,
            telemetry: Vec::new(),
            journal_bytes: Vec::new(),
            ingest_runs: Vec::new(),
            shard_runs: Vec::new(),
        }
    }

    #[test]
    fn a_digest_mismatch_fails_every_round_of_its_campaign() {
        let mut same = campaign(1, 2);
        check_traced(&mut same, 1, 2);
        let mut state = campaign(1, 2);
        check_traced(&mut state, 9, 2);
        let mut history = campaign(1, 2);
        check_traced(&mut history, 1, 9);
        assert!(same.gate.is_ok());
        assert!(state.gate.is_err() && history.gate.is_err());
        let runs = vec![
            Ok(same),
            Ok(state),
            Err("panicked: boom".to_string()),
            Ok(history),
        ];
        assert_eq!(failed_rounds(&runs, 10), 30);
        assert_eq!(failed_rounds(&runs[..1], 10), 0);
    }

    fn test_args(w: Workload, trace: bool) -> Args {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        Args {
            workload: Some(w),
            record: false,
            seed: 5,
            seconds: 1,
            trace,
            smoke: true,
            out: out.clone(),
            report: Some(out.join(format!("{}-{}.json", w.name(), u8::from(trace)))),
        }
    }

    /// The smoke configuration of every workload runs in seconds, passes
    /// its gates, and its traced composition reproduces the platform.
    #[test]
    fn smoke_runs_of_every_workload_are_correct_and_reproducible() {
        for w in Workload::ALL {
            let untraced = run(&test_args(w, false)).expect("untraced smoke run");
            let traced = run(&test_args(w, true)).expect("traced smoke run");
            for line in [&untraced, &traced] {
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", w.name());
                assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(line.get("attempted").and_then(Json::as_f64) > Some(0.0));
            }
            let report = |t| {
                let path = test_args(w, t).report.unwrap();
                Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
            };
            let (u, t) = (report(false), report(true));
            assert_eq!(u.get("digest"), t.get("digest"), "{}", w.name());
            // Smoke runs have fewer than 100 rounds, so no p90.
            let metrics = untraced.get("metrics").unwrap();
            for (name, unit) in END_TO_END {
                if name == "round_ms.p90" {
                    assert!(metrics.get(name).is_none());
                    continue;
                }
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(|v| v > 0.0));
            }
            // The campaign's own set-up, then the set-ups between rounds.
            let spec = w.spec(true);
            let setup_samples = u
                .get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("samples"))
                .and_then(Json::as_f64);
            let expected = 1 + spec.rounds;
            assert_eq!(setup_samples, Some(f64::from(expected)), "{}", w.name());
            let layers = traced.get("metrics").unwrap();
            for (name, unit) in PER_LAYER {
                let m = layers.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            }
            // The pipeline figures come from the platform's own stats:
            // the single-program ingest pipeline, or the sharded one.
            let value = |name: &str| {
                layers
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap()
            };
            let (busy, idle) = match w {
                Workload::FleetMix => ("shard", "ingest"),
                _ => ("ingest", "shard"),
            };
            for stat in ["worker_busy_ms", "memo_misses"] {
                assert!(
                    value(&format!("{busy}.{stat}")) > 0.0,
                    "{} {busy}.{stat}",
                    w.name()
                );
                assert_eq!(
                    value(&format!("{idle}.{stat}")),
                    0.0,
                    "{} {idle}.{stat}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn record_entries_carry_the_cross_run_checks() {
        let run = |digest: &str, correct: bool| {
            let digests = vec![Json::from(digest), Json::from("last")];
            Json::obj()
                .with("correct", correct)
                .with("state_digests", digests.clone())
                .with("history_digests", digests)
                .with(
                    "metrics",
                    Json::obj()
                        .with("core.untraced_campaign_s", metric(2.0, "s", None))
                        .with("core.traced_campaign_s", metric(2.5, "s", None)),
                )
                .with(
                    "layer_shares",
                    Json::obj()
                        .with("busiest", "hive")
                        .with("shares", Json::obj()),
                )
        };
        // A traced run that covers only the first campaign still matches.
        let mut first_only = run("a", true);
        first_only.set("state_digests", vec![Json::from("a")]);
        first_only.set("history_digests", vec![Json::from("a")]);
        let e = record_entry(
            Workload::HangDeep,
            run("a", true),
            first_only,
            run("b", true),
        );
        for key in [
            "correct",
            "traced_matches_untraced",
            "tracing_overhead_s",
            "layer_shares",
            "predicted_busiest",
            "prediction_holds",
            "untraced",
            "traced",
            "held_out",
        ] {
            assert!(e.get(key).is_some(), "record entry lacks {key}");
        }
        assert_eq!(e.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            e.get("tracing_overhead_s").and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(e.get("prediction_holds"), Some(&Json::Bool(true)));
        let diverged = record_entry(
            Workload::FleetMix,
            run("a", true),
            run("c", true),
            run("b", true),
        );
        assert_eq!(
            diverged.get("traced_matches_untraced"),
            Some(&Json::Bool(false))
        );
        assert_eq!(diverged.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(diverged.get("prediction_holds"), Some(&Json::Bool(false)));
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match b.get(key) {
                Some(Json::Arr(a)) => a
                    .iter()
                    .map(|m| {
                        (
                            m.get("name").and_then(Json::as_str).unwrap().to_string(),
                            m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = match b.get("workloads") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect(),
            _ => panic!("BENCHMARK.json lacks workloads"),
        };
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }
}
