//! # softborg-bench — experiment harnesses
//!
//! One runnable binary per experiment in `EXPERIMENTS.md` (E1–E20) plus
//! Criterion micro-benchmarks (`portfolio`, `merge`, `recording`). Each
//! binary prints the table/series its experiment defines;
//! `cargo run -p softborg-bench --release --bin <name>` regenerates it.

#![warn(missing_docs)]

pub mod fleet;

use softborg_program::interp::{ExecConfig, Executor, Observer, Outcome};
use softborg_program::overlay::Overlay;
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{BranchSiteId, Program, ThreadId};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Observer that captures the full decision path.
#[derive(Default)]
pub struct PathObserver {
    /// Decisions in dynamic order.
    pub decisions: Vec<(BranchSiteId, bool)>,
}

impl Observer for PathObserver {
    fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, taken: bool, _dep: bool) {
        self.decisions.push((s, taken));
    }
}

/// Runs `program` once with a seeded random schedule, returning the full
/// decision path and outcome.
pub fn collect_path(
    program: &Program,
    inputs: &[i64],
    seed: u64,
) -> (Vec<(BranchSiteId, bool)>, Outcome) {
    let mut obs = PathObserver::default();
    let r = Executor::new(program)
        .with_config(ExecConfig { max_steps: 50_000 })
        .run(
            inputs,
            &mut DefaultEnv::new(EnvConfig {
                seed,
                ..EnvConfig::default()
            }),
            &mut RandomSched::seeded(seed),
            &Overlay::empty(),
            &mut obs,
        )
        .expect("bench inputs match program arity");
    (obs.decisions, r.outcome)
}

/// Parses `--<flag> N` from argv, returning `default` when absent.
/// Panics (with the flag name) on a non-integer value.
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} wants an integer"));
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} wants an integer, got {v:?}"))
        }
    }
}

/// Parses the shared `--seed N` flag, returning `default` when absent.
/// Every harness seed routes through here (or a literal passed to a
/// config) — never the wall clock or process entropy — so any reported
/// number can be regenerated from the command line that produced it.
pub fn arg_seed(default: u64) -> u64 {
    arg_u64("--seed", default)
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, source: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper source: {source}");
    println!("================================================================");
}

/// Prints a table header row followed by a separator.
pub fn table_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(100)));
}

/// Formats one table cell right-aligned.
pub fn cell(value: impl ToString, width: usize) -> String {
    format!("{:>width$}  ", value.to_string(), width = width)
}

/// Geometric mean of positive samples (0 when empty).
pub fn geo_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s: f64 = samples.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / samples.len() as f64).exp()
}

/// Median of samples (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Directory smoke-run records go to, so a `--smoke` run never
/// overwrites a committed full-size record.
pub const SMOKE_DIR: &str = "target/bench-smoke";

/// Start of the provenance line [`write_record`] puts first in every
/// record.
const STAMP_PREFIX: &str = "  \"host_cpus\": ";

/// Where the record `file` lives: the working directory (the repository
/// root, where full-size records are committed) for a full run, or
/// [`SMOKE_DIR`] for a smoke run.
pub fn record_path(file: &str, smoke: bool) -> PathBuf {
    if smoke {
        Path::new(SMOKE_DIR).join(file)
    } else {
        PathBuf::from(file)
    }
}

/// The checked-out commit (`-dirty` when tracked files differ from it),
/// or `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        None => "unknown".to_string(),
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}-dirty"),
        },
    }
}

/// Writes a benchmark record: `json` is one JSON object whose text starts
/// with `"{\n"`. The record is stamped with a first line giving the
/// host's CPU count, the git revision and the smoke flag (replacing any
/// earlier stamp), and goes to [`record_path`]. Returns the path written.
///
/// # Panics
///
/// Panics if `json` does not start with `"{\n"` or the file cannot be
/// written.
pub fn write_record(file: &str, smoke: bool, json: &str) -> PathBuf {
    let body = json
        .strip_prefix("{\n")
        .expect("a record is a JSON object starting with \"{\\n\"");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n{STAMP_PREFIX}{host_cpus}, \"git_rev\": \"{}\", \"smoke\": {smoke},\n",
        git_rev()
    );
    for line in body.lines().filter(|l| !l.starts_with(STAMP_PREFIX)) {
        out.push_str(line);
        out.push('\n');
    }
    let path = record_path(file, smoke);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
    path
}

/// Sets the top-level `key` section of the record `file` to `section`
/// (a JSON value whose nested lines are indented by four spaces),
/// keeping every other section the record holds, and rewrites it with
/// [`write_record`].
pub fn merge_record_section(file: &str, smoke: bool, key: &str, section: &str) -> PathBuf {
    let existing = std::fs::read_to_string(record_path(file, smoke)).unwrap_or_default();
    let mut body = existing
        .trim_end()
        .trim_end_matches('}')
        .trim_end()
        .to_string();
    let marker = format!("\n  \"{key}\":");
    if let Some(start) = body.find(&marker) {
        let after = start + marker.len();
        let end = body[after..]
            .find("\n  \"")
            .map_or(body.len(), |i| after + i);
        body.replace_range(start..end, "");
    }
    let body = body.trim_end().trim_end_matches(',');
    let json = if body.trim().is_empty() || body.trim() == "{" {
        format!("{{\n  \"{key}\": {section}\n}}\n")
    } else {
        format!("{body},\n  \"{key}\": {section}\n}}\n")
    };
    write_record(file, smoke, &json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;

    #[test]
    fn collect_path_returns_decisions() {
        let s = scenarios::token_parser();
        let (path, outcome) = collect_path(&s.program, &[1, 2, 3, 4, 5, 6], 0);
        assert!(!path.is_empty());
        assert_eq!(outcome, Outcome::Success);
    }

    #[test]
    fn geo_mean_and_median_behave() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(geo_mean(&[]), 0.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn smoke_records_never_land_on_committed_ones() {
        assert_eq!(
            record_path("BENCH_x.json", false),
            PathBuf::from("BENCH_x.json")
        );
        assert!(record_path("BENCH_x.json", true).starts_with(SMOKE_DIR));
    }

    #[test]
    fn merging_replaces_one_section_and_keeps_the_rest() {
        let file = format!("BENCH_merge_test_{}.json", std::process::id());
        let path = record_path(&file, true);
        let _ = std::fs::remove_file(&path);
        merge_record_section(&file, true, "a", "{\n    \"v\": 1\n  }");
        merge_record_section(&file, true, "b", "{\n    \"v\": 2\n  }");
        merge_record_section(&file, true, "a", "{\n    \"v\": 3\n  }");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Tests run in the crate directory: drop the directories the
        // record created there (no-op when other files remain).
        let _ = std::fs::remove_dir(Path::new(SMOKE_DIR));
        let _ = std::fs::remove_dir(Path::new(SMOKE_DIR).parent().unwrap());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with(STAMP_PREFIX) && lines[1].contains("\"smoke\": true"));
        assert_eq!(text.matches(STAMP_PREFIX).count(), 1, "{text}");
        assert_eq!(
            lines[2..].join("\n"),
            "  \"b\": {\n    \"v\": 2\n  },\n  \"a\": {\n    \"v\": 3\n  }\n}"
        );
    }
}
