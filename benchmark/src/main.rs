//! The repo benchmark (see `benchmark/README.md`).
//!
//! Driver form, one workload per process:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` prints
//! progress on stderr and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Human forms: `run`, `traced`, `compare`, `selfcheck`.

mod closed;
mod compare;
mod fingerprint;
mod layers;
mod net;
mod replay;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{Config, RunOutcome, Sizing};

const USAGE: &str = "\
usage:
  stmbench7-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  stmbench7-benchmark run       [--seed <n>] [--seconds <s>] [--quick]
  stmbench7-benchmark traced    [--seed <n>] [--seconds <s>] [--quick]
  stmbench7-benchmark compare   <A.json>... -- <B.json>... [--force]
  stmbench7-benchmark selfcheck [--seed <n>] [--seconds <s>]
  stmbench7-benchmark vocabulary          (prints BENCHMARK.json)
workloads: closed_rw_medium closed_rw_tl2 closed_r_traversal net_open_rw net_peak_w";

/// One workload's result, as printed on the driver form's last line.
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of the vocabulary.
    pub metrics: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// The one-line JSON object of the driver contract. Values print
    /// with every digit Rust's shortest round-trip form has.
    pub fn to_line(&self, units: &[spec::Metric]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = units
                    .iter()
                    .find(|m| &m.name == name)
                    .map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Flags shared by every form.
#[derive(Clone, Debug)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => flags.quick = true,
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(flags)
}

impl Flags {
    /// The measured seconds of one workload run: `--seconds`, else the
    /// `run_seconds` of `BENCHMARK.json`; a tenth of it under `--quick`.
    pub fn sizing(&self) -> Sizing {
        let seconds = self.seconds.unwrap_or(DEFAULT_SECONDS);
        Sizing {
            seconds: if self.quick { seconds / 10.0 } else { seconds },
            quick: self.quick,
        }
    }
}

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Runs one workload in this process, untraced: the end-to-end vector.
fn run_untraced(name: &str, config: &Config, seed: u64, sizing: &Sizing) -> WorkloadResult {
    let outcome: RunOutcome = match config {
        Config::Closed(w) => closed::run(w, seed, sizing),
        Config::Net(w) => net::run(w, seed, sizing),
    };
    let mut correct = outcome.correct();
    if outcome.invalid_reps > 0 {
        eprintln!(
            "{name}: {} reps left out (generator behind schedule)",
            outcome.invalid_reps
        );
    }
    if outcome.reps.is_empty() {
        return WorkloadResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
    }
    for (i, rep) in outcome.reps.iter().enumerate() {
        eprintln!(
            "{name} rep {i}: setup {:.3} s, {:.0} op/s, p50 {:.1} us, tail {:.1} us, within limit {:.5}, peak {:.1} MiB, {} attempted, {} failed, {} samples",
            rep.setup_s, rep.ops_per_s, rep.p50_us, rep.tail_us, rep.within_limit_share,
            rep.peak_rss_mb, rep.attempted, rep.failed, rep.samples
        );
    }
    let metrics = vec![
        ("ops_per_s".to_string(), outcome.median(|r| r.ops_per_s)),
        ("p50_us".to_string(), outcome.median(|r| r.p50_us)),
        ("tail_us".to_string(), outcome.median(|r| r.tail_us)),
        (
            "within_limit_share".to_string(),
            outcome.median(|r| r.within_limit_share),
        ),
        ("setup_s".to_string(), outcome.median(|r| r.setup_s)),
        // Memory freed by an earlier rep stays resident and can only
        // inflate a later rep's peak, so the cleanest rep is the lowest.
        (
            "peak_rss_mb".to_string(),
            outcome
                .reps
                .iter()
                .map(|r| r.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
        ),
    ];
    if metrics.iter().any(|(_, v)| !v.is_finite()) {
        correct = false;
    }
    WorkloadResult {
        correct,
        attempted: outcome.reps.iter().map(|r| r.attempted).sum(),
        failed: outcome.reps.iter().map(|r| r.failed).sum(),
        metrics,
    }
}

/// `BENCHMARK.json`, generated from the vocabulary so the two cannot
/// drift (a unit test compares the committed file to the tables).
fn benchmark_json() -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let rows = |metrics: &[spec::Metric]| -> String {
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.key()
                )
            })
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        rows(&spec::end_to_end()),
        rows(&spec::per_layer())
    )
}

/// The driver form: one workload, one JSON line.
fn drive_one(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().expect("checked by the caller");
    let config = workload::config(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let sizing = flags.sizing();
    let (result, vocabulary) = if flags.trace {
        (
            suite::run_traced(name, &config, flags.seed, &sizing),
            spec::per_layer(),
        )
    } else {
        (
            run_untraced(name, &config, flags.seed, &sizing),
            spec::end_to_end(),
        )
    };
    // The harness and BENCHMARK.json must agree on what a run prints.
    let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let listed: Vec<&str> = vocabulary.iter().map(|m| m.name.as_str()).collect();
    if emitted != listed {
        return Err(format!(
            "emitted metrics differ from the vocabulary:\n emitted {emitted:?}\n listed  {listed:?}"
        ));
    }
    println!("{}", result.to_line(&vocabulary));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (form, rest) = match args.first().map(String::as_str) {
        Some(f @ ("run" | "traced" | "compare" | "selfcheck" | "vocabulary")) => (f, &args[1..]),
        _ => ("", &args[..]),
    };
    let outcome = match form {
        // Refuses to print a BENCHMARK.json the driver would refuse.
        "vocabulary" => {
            spec::check_vocabulary(&spec::WORKLOADS, &spec::end_to_end(), &spec::per_layer()).map(
                |()| {
                    print!("{}", benchmark_json());
                    ExitCode::SUCCESS
                },
            )
        }
        // `compare` owns its argument grammar (the `--` separator).
        "compare" => compare::compare_command(rest),
        _ => parse_flags(rest).and_then(|flags| match form {
            "run" => compare::run_command(&flags, false),
            "traced" => compare::run_command(&flags, true),
            "selfcheck" => compare::selfcheck_command(&flags),
            _ if flags.workload.is_some() => drive_one(&flags),
            _ => Err("no workload and no command given".into()),
        }),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
