//! The human forms: `run` and `traced` (every workload, each in a
//! fresh child process of this binary, results stamped and written to
//! `benchmark/out/`), `compare` (two sets of run files, a verdict per
//! workload × metric) and `selfcheck` (the suite against itself).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use stmbench7_core::JsonValue;

use crate::fingerprint::{fingerprint, mismatch};
use crate::spec::{self, Better, Metric, WORKLOADS};
use crate::stats;
use crate::Flags;

const FORMAT: &str = "stmbench7-benchmark/1";

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in a child process — so peak memory and cache
/// state are the workload's own — and parses its result line.
fn run_child(workload: &str, flags: &Flags, traced: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &flags.seed.to_string()])
        .args([
            "--seconds",
            &flags.seconds.unwrap_or(crate::DEFAULT_SECONDS).to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if flags.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    stmbench7_lab::json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// Runs the five workloads, prints `workload metric value unit` lines,
/// writes the stamped results file and returns its path and whether
/// every workload's outputs checked out.
fn run_suite(flags: &Flags, traced: bool) -> Result<(PathBuf, bool), String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        eprintln!("== {}: {}", w.name, w.why);
        let result = run_child(w.name, flags, traced)?;
        let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        let failed = result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1);
        all_correct &= correct && failed == 0;
        if let Some(JsonValue::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                println!(
                    "{} {name} {} {}",
                    w.name,
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN),
                    m.get("unit").and_then(JsonValue::as_str).unwrap_or("")
                );
            }
        }
        println!(
            "{} error_share {} ratio",
            w.name,
            failed as f64
                / result
                    .get("attempted")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(1.0)
        );
        if !correct {
            eprintln!("{}: OUTPUT CHECKS FAILED", w.name);
        }
        let JsonValue::Obj(mut pairs) = result else {
            return Err(format!("{}: result line is not an object", w.name));
        };
        pairs.insert(0, ("name".to_string(), JsonValue::str(w.name)));
        entries.push(JsonValue::Obj(pairs));
    }
    let sizing = flags.sizing();
    let doc = JsonValue::obj(vec![
        ("format", JsonValue::str(FORMAT)),
        (
            "kind",
            JsonValue::str(if traced { "traced" } else { "run" }),
        ),
        (
            "fingerprint",
            fingerprint(flags.seed, sizing.seconds, sizing.quick),
        ),
        ("workloads", JsonValue::Arr(entries)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if traced { "traced" } else { "run" };
    let path = dir.join(format!("{kind}-{stamp}-{}.json", std::process::id()));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    if traced {
        merge_traces(&dir)?;
    }
    eprintln!("wrote {}", path.display());
    Ok((path, all_correct))
}

/// Joins the per-workload Chrome traces into `out/trace.json`, one
/// process id per workload.
fn merge_traces(dir: &Path) -> Result<(), String> {
    let mut events = Vec::new();
    for (pid, w) in WORKLOADS.iter().enumerate() {
        let path = dir.join(format!("trace-{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let from = "\"pid\":1,";
        let to = format!("\"pid\":{},", pid + 1);
        events.extend(
            text.lines()
                .filter(|l| l.contains("\"ph\""))
                .map(|l| l.trim_end_matches(',').replace(from, &to)),
        );
    }
    let path = dir.join("trace.json");
    std::fs::write(&path, format!("[\n{}\n]\n", events.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run_command(flags: &Flags, traced: bool) -> Result<ExitCode, String> {
    let (_, correct) = run_suite(flags, traced)?;
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One side of a comparison: the values of every workload × metric
/// across its run files, plus the files' fingerprint.
struct Side {
    fingerprint: JsonValue,
    /// `(workload, metric) → one value per file`, in file order.
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: u64,
}

fn load_side(paths: &[String]) -> Result<Side, String> {
    let mut side = Side {
        fingerprint: JsonValue::Null,
        values: BTreeMap::new(),
        failed: 0,
    };
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = stmbench7_lab::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("format").and_then(JsonValue::as_str) != Some(FORMAT) {
            return Err(format!("{path}: not a {FORMAT} document"));
        }
        let fp = doc.get("fingerprint").cloned().unwrap_or(JsonValue::Null);
        if side.fingerprint == JsonValue::Null {
            side.fingerprint = fp;
        } else if let Some(why) = mismatch(&side.fingerprint, &fp) {
            return Err(format!(
                "{path}: fingerprint differs within one side ({why})"
            ));
        }
        for w in doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let workload = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            side.failed += w.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
            if w.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                side.failed += 1;
            }
            let Some(JsonValue::Obj(metrics)) = w.get("metrics") else {
                continue;
            };
            for (metric, m) in metrics {
                let Some(value) = m.get("value").and_then(JsonValue::as_f64) else {
                    continue;
                };
                side.values
                    .entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one workload × metric. `parent` and `change` hold
/// one value per run file.
///
/// * `unresolved` — the parent's own interquartile spread exceeds the
///   bound, so a bound-sized move cannot be told from noise;
/// * `regressed` — the change's median is worse by more than the bound;
/// * `improved` — with ten or more position-paired files: the change
///   wins nine tenths of the pairs (ties count for neither) and the
///   medians differ by more than the parent's spread; with fewer:
///   the median is better by more than the bound;
/// * `unchanged` — otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (a, b) = (stats::median(parent), stats::median(change));
    let spread = stats::spread(parent).abs();
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let improved = if parent.len() >= 10 && parent.len() == change.len() {
        let wins = |x: &f64, y: &f64| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        };
        let pairs = parent.iter().zip(change);
        let won = pairs.clone().filter(|(x, y)| wins(x, y)).count();
        let decided = pairs.filter(|(x, y)| x != y).count();
        won * 10 >= decided * 9 && decided > 0 && -worse_by > spread
    } else {
        -worse_by > bound
    };
    if improved {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn quartile_text(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!(
        "{:.5} [{:.5} .. {:.5}] n={}",
        stats::median(values),
        q1,
        q3,
        values.len()
    )
}

/// Compares two loaded sides over every end-to-end metric; prints one
/// row per workload × metric and returns the verdicts.
fn compare_sides(a: &Side, b: &Side) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    let metrics: Vec<Metric> = spec::end_to_end();
    println!(
        "{:<20} {:<20} {:>11} {:<44} {:<44} {:>8}",
        "workload", "metric", "verdict", "A median [q1 .. q3]", "B median [q1 .. q3]", "B vs A"
    );
    for w in &WORKLOADS {
        for m in &metrics {
            let key = (w.name.to_string(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                println!("{:<20} {:<20} {:>11}", w.name, m.name, "missing");
                verdicts.push(Verdict::Unresolved);
                continue;
            };
            let v = verdict(
                va,
                vb,
                m.better,
                m.bound.expect("end-to-end metrics are bounded"),
            );
            println!(
                "{:<20} {:<20} {:>11} {:<44} {:<44} {:>+7.2}%",
                w.name,
                m.name,
                v.key(),
                quartile_text(va),
                quartile_text(vb),
                (stats::median(vb) / stats::median(va) - 1.0) * 100.0
            );
            verdicts.push(v);
        }
        println!(
            "{:<20} {:<20} {:>11}",
            w.name,
            "error_share",
            if a.failed + b.failed == 0 {
                "zero"
            } else {
                "NONZERO"
            }
        );
    }
    verdicts
}

/// `compare <A…> -- <B…> [--force]`.
pub fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let force = args.iter().any(|a| a == "--force");
    let files: Vec<String> = args.iter().filter(|a| *a != "--force").cloned().collect();
    let split = files
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between the two sets of run files")?;
    let (left, right) = (&files[..split], &files[split + 1..]);
    if left.is_empty() || right.is_empty() {
        return Err("compare needs at least one run file on each side".into());
    }
    let (a, b) = (load_side(left)?, load_side(right)?);
    if let Some(why) = mismatch(&a.fingerprint, &b.fingerprint) {
        if !force {
            return Err(format!(
                "the two sides were not recorded on the same machine and sizing ({why}); \
                 numbers from different hardware do not compare — pass --force to see them anyway"
            ));
        }
        eprintln!("warning: fingerprints differ ({why}); verdicts are not meaningful");
    }
    let verdicts = compare_sides(&a, &b);
    let bad = verdicts
        .iter()
        .any(|v| matches!(v, Verdict::Regressed | Verdict::Unresolved))
        || a.failed + b.failed > 0;
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `selfcheck`: the suite twice on one commit; every end-to-end metric
/// must come out `unchanged` and no workload may report an error.
pub fn selfcheck_command(flags: &Flags) -> Result<ExitCode, String> {
    let (first, ok_a) = run_suite(flags, false)?;
    let (second, ok_b) = run_suite(flags, false)?;
    let text = |p: &Path| p.to_string_lossy().into_owned();
    let (a, b) = (load_side(&[text(&first)])?, load_side(&[text(&second)])?);
    let verdicts = compare_sides(&a, &b);
    let steady = verdicts.iter().all(|v| *v == Verdict::Unchanged);
    if !steady {
        eprintln!("selfcheck: two runs of one commit disagree beyond the bounds");
    }
    Ok(if steady && ok_a && ok_b {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_parents_spread() {
        let lower = Better::Lower;
        // Within the bound either way.
        assert_eq!(verdict(&[100.0], &[105.0], lower, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&[100.0], &[95.0], lower, 0.10), Verdict::Unchanged);
        // Beyond it.
        assert_eq!(verdict(&[100.0], &[111.0], lower, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[89.0], lower, 0.10), Verdict::Improved);
        // Direction matters.
        assert_eq!(
            verdict(&[100.0], &[89.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[100.0], &[111.0], Better::Higher, 0.10),
            Verdict::Improved
        );
        // A parent that cannot repeat within the bound resolves nothing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(verdict(&noisy, &[100.0], lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn ten_pairs_resolve_a_gain_smaller_than_the_bound() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|v| v - 5.0).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.10),
            Verdict::Improved
        );
        // Winning only six of ten is not a gain, whatever the medians say.
        let mut mixed = change.clone();
        for v in mixed.iter_mut().take(4) {
            *v += 7.0;
        }
        assert_eq!(
            verdict(&parent, &mixed, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Fewer than ten pairs fall back to the bound.
        assert_eq!(
            verdict(&parent[..5], &change[..5], Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }
}
