//! End-to-end tests of the `stmbench7` command-line interface (paper
//! Appendix A.1): flag parsing, the report sections, `--describe`, and
//! post-run validation, exercised through the real binary.

use stmbench7::cli::{self, Command, Flag, Kind, COMMANDS, FLAGS};

fn stmbench7() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_stmbench7"))
}

fn run_ok(args: &[&str]) -> (String, String) {
    let out = stmbench7().args(args).output().expect("binary must launch");
    assert!(
        out.status.success(),
        "stmbench7 {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn describe_prints_census_and_indexes() {
    let (stdout, _) = run_ok(&["-s", "tiny", "--describe"]);
    assert!(stdout.contains("complex assemblies: 4"));
    assert!(stdout.contains("base assemblies:    9"));
    assert!(stdout.contains("atomic parts:       120"));
    // All six indexes of Table 1.
    for needle in [
        "atomic part id",
        "atomic part build date",
        "composite part id",
        "document title",
        "base assembly id",
        "complex assembly id",
    ] {
        assert!(stdout.contains(needle), "missing index line: {needle}");
    }
}

#[test]
fn fixed_ops_run_emits_all_report_sections() {
    let (stdout, _) = run_ok(&[
        "-s",
        "tiny",
        "-g",
        "medium",
        "-w",
        "rw",
        "--ops",
        "200",
        "--ttc-histograms",
        "--validate",
    ]);
    for section in [
        "== Benchmark parameters ==",
        "== TTC histograms ==",
        "== Detailed results ==",
        "== Sample errors ==",
        "== Summary ==",
    ] {
        assert!(stdout.contains(section), "missing section: {section}");
    }
    assert!(stdout.contains("total throughput"));
    assert!(stdout.contains("TTC histogram for"));
}

#[test]
fn every_strategy_flag_runs_and_validates() {
    for strategy in [
        "sequential",
        "coarse",
        "medium",
        "fine",
        "astm",
        "astm-sharded",
        "astm-visible",
        "tl2",
        "tl2-sharded",
        "norec",
        "norec-sharded",
    ] {
        let (stdout, stderr) = run_ok(&[
            "-s",
            "tiny",
            "-g",
            strategy,
            "-w",
            "w",
            "--ops",
            "100",
            "--validate",
        ]);
        assert!(
            stdout.contains("total throughput"),
            "{strategy}: no throughput line"
        );
        assert!(
            stderr.contains("structure valid"),
            "{strategy}: structure not validated:\n{stderr}"
        );
    }
}

#[test]
fn shards_flag_runs_and_validates_across_strategies() {
    // The shard axis must be result-invisible: a sharded run still
    // completes and the exported structure still validates, for a lock
    // strategy with per-shard locks and an STM whose variable sets scale
    // with the axis.
    for strategy in ["medium", "fine", "tl2-sharded"] {
        let (stdout, stderr) = run_ok(&[
            "-s",
            "tiny",
            "--shards",
            "8",
            "-g",
            strategy,
            "-w",
            "rw",
            "--ops",
            "150",
            "--validate",
        ]);
        assert!(stdout.contains("total throughput"), "{strategy}");
        assert!(stderr.contains("structure valid"), "{strategy}:\n{stderr}");
    }
    // Out-of-range counts fail cleanly, order-independently.
    let out = stmbench7()
        .args(["--shards", "65", "-s", "tiny", "--ops", "10"])
        .output()
        .expect("binary must launch");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("index_shards"));
}

#[test]
fn custom_workload_flag_runs() {
    let (stdout, _) = run_ok(&["-s", "tiny", "-w", "u25", "--ops", "150", "--validate"]);
    assert!(stdout.contains("workload:            custom (25% updates)"));
    assert!(stdout.contains("total throughput"));
}

#[test]
fn stm_strategies_report_stm_statistics() {
    let (stdout, _) = run_ok(&["-s", "tiny", "-g", "tl2", "--ops", "100"]);
    assert!(stdout.contains("== STM statistics =="));
    assert!(stdout.contains("commits"));
}

/// Runs the binary expecting a usage error: exit 2, `needle` and the
/// usage text on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = stmbench7().args(args).output().expect("binary must launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} must name {needle}:\n{stderr}"
    );
    assert!(
        stderr.contains("USAGE"),
        "{args:?} must print usage:\n{stderr}"
    );
}

/// The argument prefix selecting a mode of the binary.
fn mode_args(cmd: &Command) -> Vec<&'static str> {
    if cmd.name.is_empty() {
        vec![]
    } else {
        vec![cmd.name]
    }
}

#[test]
fn unknown_flags_fail_with_usage() {
    assert_usage_error(&["--bogus"], "unknown argument");
    // A flag that exists, but only on another subcommand, is unknown too.
    assert_usage_error(
        &["net-drive", "--workers", "2"],
        "unknown argument '--workers'",
    );
    assert_usage_error(&["lab", "-g", "coarse"], "unknown argument '-g'");
    for cmd in COMMANDS {
        let taken: Vec<&str> = cmd.flags().flat_map(Flag::names).collect();
        for name in FLAGS.iter().flat_map(Flag::names) {
            if !taken.contains(&name) {
                let mut args = mode_args(cmd);
                args.push(name);
                assert_usage_error(&args, &format!("unknown argument '{name}'"));
            }
        }
    }
}

#[test]
fn bad_flag_values_fail_with_the_flag_name_and_usage() {
    // The divergences the one table closed: these used to panic in the
    // engine (-t 0) or be accepted by `run` only (-l 0).
    assert_usage_error(&["-t", "0"], "-t:");
    assert_usage_error(&["-l", "0"], "-l:");
    assert_usage_error(&["--shards", "0"], "--shards:");
    for cmd in COMMANDS {
        for flag in cmd.flags() {
            let bad: &[&str] = match flag.kind {
                Kind::Switch(_) => continue,
                Kind::Count(_) | Kind::Positive(_) => &["x", "0"],
                Kind::Counts(_) | Kind::Positives(_) => &["x", "0", "1,0", "1,,2"],
                Kind::Number(_) => &["x", "-1"],
                Kind::Named(..) | Kind::Parsed(_) => &["?"],
                Kind::Text(_) => &[],
            };
            for name in flag.names() {
                let mut args = mode_args(cmd);
                args.push(name);
                assert_usage_error(&args, &format!("missing value for {name}"));
                for value in bad {
                    let mut args = args.clone();
                    args.push(value);
                    assert_usage_error(&args, &format!("{name}:"));
                }
            }
        }
    }
    // Zero is a legal pipelining window: it means unpipelined.
    let net_drive = COMMANDS.iter().find(|c| c.name == "net-drive").unwrap();
    assert!(cli::parse(net_drive, &["--inflight".to_string(), "0".to_string()]).is_ok());
}

#[test]
fn help_exits_zero_and_mentions_every_flag_of_the_mode() {
    for cmd in COMMANDS {
        let mut args = mode_args(cmd);
        args.push("--help");
        let (stdout, _) = run_ok(&args);
        assert!(stdout.contains("USAGE"), "{args:?}:\n{stdout}");
        for name in cmd.flags().flat_map(Flag::names) {
            assert!(
                stdout.contains(name),
                "{args:?} must mention {name}:\n{stdout}"
            );
        }
    }
}

#[test]
fn every_mode_accepts_exactly_its_flags() {
    // The accepted vocabulary, pinned per mode: adding a flag to a mode
    // (or dropping one) must be a deliberate edit here too.
    let expected: [(&str, &str); 6] = [
        (
            "",
            "-s --shards -w --no-traversals --no-sms --astm-friendly -g --backend --cm --trace \
             --window --seed -l --validate -t --ops --ttc-histograms --csv --describe",
        ),
        (
            "lab",
            "--shards --trace --window --seed --list --preset --secs --warmup --reps --threads \
             --rates --out --compare --tolerance",
        ),
        (
            "serve",
            "-s --shards -w --no-traversals --no-sms --astm-friendly -g --backend --workers \
             --queue-cap --admission --batch --affinity --trace --window --seed -l --requests \
             --validate",
        ),
        (
            "net-serve",
            "-s --shards -w -g --backend --workers --queue-cap --admission --batch --affinity \
             --trace --window --seed --validate --addr --metrics",
        ),
        (
            "net-drive",
            "-w --no-traversals --no-sms --astm-friendly --seed -l --requests --addr \
             --connections --inflight --shutdown",
        ),
        ("trace-summary", "--top"),
    ];
    assert_eq!(COMMANDS.len(), expected.len());
    for (cmd, (name, flags)) in COMMANDS.iter().zip(expected) {
        assert_eq!(cmd.name, name);
        let taken: Vec<&str> = cmd.flags().flat_map(Flag::names).collect();
        assert_eq!(
            taken,
            flags.split_whitespace().collect::<Vec<_>>(),
            "{name}"
        );
    }
}

#[test]
fn preset_and_shards_commute() {
    for name in ["", "serve", "net-serve"] {
        let cmd = COMMANDS.iter().find(|c| c.name == name).unwrap();
        let params = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            cli::parse(cmd, &argv)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .params()
        };
        let a = params(&["-s", "standard", "--shards", "8"]);
        assert_eq!(a, params(&["--shards", "8", "-s", "standard"]), "{name}");
        assert_eq!(a.preset_name(), Some("standard"));
        assert_eq!(a.index_shards, 8);
    }
}

#[test]
fn unknown_strategy_fails_cleanly() {
    let out = stmbench7()
        .args(["-g", "nonsense"])
        .output()
        .expect("binary must launch");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
}

mod lab {
    use super::*;
    use stmbench7::core::JsonValue;
    use stmbench7::lab::json::parse;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sb7-lab-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_smoke(out: &std::path::Path, extra: &[&str]) -> std::process::Output {
        stmbench7()
            .args([
                "lab", "smoke", "--secs", "0.03", "--warmup", "0", "--reps", "2", "--out",
            ])
            .arg(out)
            .args(extra)
            .output()
            .expect("binary must launch")
    }

    #[test]
    fn list_names_every_builtin_spec() {
        let (stdout, _) = run_ok(&["lab", "--list"]);
        for name in [
            "smoke",
            "paper_fig3",
            "paper_fig4",
            "paper_table3",
            "paper_fig6",
            "ultimate_baseline",
            "scaling",
            "write_storm",
            "mixed_custom",
            "net_loopback",
            "slo_burst",
        ] {
            assert!(stdout.contains(name), "missing spec {name}");
        }
    }

    #[test]
    fn sharded_scaling_runs_and_keys_the_shard_axis() {
        let dir = tmp_dir("sharded");
        let out_path = dir.join("BENCH_sharded.json");
        let out = stmbench7()
            .args([
                "lab",
                "sharded_scaling",
                "--secs",
                "0.03",
                "--warmup",
                "0",
                "--reps",
                "1",
                "--out",
            ])
            .arg(&out_path)
            .output()
            .expect("binary must launch");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&out_path).expect("results written");
        let doc = parse(&text).expect("results must be valid JSON");
        let cells = doc.get("cells").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cells.len(), 18, "3 backends × 3 shard counts × 2t");
        // The shard axis is first-class in both the key and the cell body.
        assert!(cells.iter().any(|c| {
            c.get("key")
                .and_then(JsonValue::as_str)
                .is_some_and(|k| k.contains("/s16/"))
                && c.get("shards").and_then(JsonValue::as_u64) == Some(16)
        }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_grid_specs_run_and_key_their_cells() {
        let dir = tmp_dir("paper");
        // (spec, first key, cell count, every key's suffix): Figure 3
        // keeps long traversals on, Figure 6 applies the §5 filter.
        for (spec, first_key, cells, suffix) in [
            ("paper_fig3", "coarse/r/1t", 4, "/1t"),
            ("paper_fig4", "coarse/r/1t/no-lt", 6, "/1t/no-lt"),
            ("paper_table3", "coarse/r/1t/no-lt", 6, "/1t/no-lt"),
            (
                "paper_fig6",
                "coarse/r/1t/no-lt/astm-friendly",
                9,
                "/1t/no-lt/astm-friendly",
            ),
            (
                "ultimate_baseline",
                "sequential/r/1t/no-lt",
                15,
                "/1t/no-lt",
            ),
        ] {
            let out_path = dir.join(format!("{spec}.json"));
            let out = out_path.to_str().unwrap();
            run_ok(&[
                "lab",
                spec,
                "--preset",
                "tiny",
                "--secs",
                "0.05",
                "--warmup",
                "0",
                "--reps",
                "1",
                "--threads",
                "1",
                "--out",
                out,
            ]);
            let doc = parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
            let cells_json = doc.get("cells").and_then(JsonValue::as_array).unwrap();
            assert_eq!(cells_json.len(), cells, "{spec}");
            let key = |c: &JsonValue| c.get("key").and_then(JsonValue::as_str).map(str::to_string);
            assert_eq!(key(&cells_json[0]).as_deref(), Some(first_key), "{spec}");
            for cell in cells_json {
                let key = key(cell).unwrap();
                assert!(key.ends_with(suffix), "{spec}: {key}");
                let median = cell.get("throughput").and_then(|t| t.get("median"));
                assert!(
                    median.and_then(JsonValue::as_f64).unwrap() > 0.0,
                    "{spec}: {key}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_spec_fails_cleanly() {
        let out = stmbench7()
            .args(["lab", "nonsense"])
            .output()
            .expect("binary must launch");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown spec"));
    }

    #[test]
    fn smoke_writes_a_versioned_parseable_document() {
        let dir = tmp_dir("write");
        let out_path = dir.join("BENCH_smoke.json");
        let out = run_smoke(&out_path, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&out_path).expect("results written");
        let doc = parse(&text).expect("results must be valid JSON");
        assert_eq!(
            doc.get("format").and_then(JsonValue::as_str),
            Some("stmbench7-lab/7")
        );
        assert_eq!(doc.get("spec").and_then(JsonValue::as_str), Some("smoke"));
        let cells = doc.get("cells").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cells.len(), 6, "smoke grid is 3 backends × 2 thread counts");
        for cell in cells {
            assert!(cell.get("key").and_then(JsonValue::as_str).is_some());
            let median = cell
                .get("throughput")
                .and_then(|t| t.get("median"))
                .and_then(JsonValue::as_f64)
                .unwrap();
            assert!(median > 0.0);
            assert_eq!(
                cell.get("reps")
                    .and_then(JsonValue::as_array)
                    .map(<[_]>::len),
                Some(2)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Scales every cell's median throughput in a results document —
    /// fabricating a baseline from better (or worse) hardware.
    fn doctor_medians(doc: &JsonValue, factor: f64) -> JsonValue {
        match doc {
            JsonValue::Obj(pairs) => JsonValue::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == "throughput" {
                            match v {
                                JsonValue::Obj(stats) => JsonValue::Obj(
                                    stats
                                        .iter()
                                        .map(|(sk, sv)| {
                                            let sv = match (sk.as_str(), sv) {
                                                ("median", JsonValue::Num(x)) => {
                                                    JsonValue::Num(x * factor)
                                                }
                                                _ => sv.clone(),
                                            };
                                            (sk.clone(), sv)
                                        })
                                        .collect(),
                                ),
                                other => other.clone(),
                            }
                        } else {
                            doctor_medians(v, factor)
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            JsonValue::Arr(items) => {
                JsonValue::Arr(items.iter().map(|v| doctor_medians(v, factor)).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn compare_gates_against_a_doctored_worse_baseline() {
        let dir = tmp_dir("compare");
        let honest = dir.join("honest.json");
        let out = run_smoke(&honest, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = parse(&std::fs::read_to_string(&honest).unwrap()).unwrap();

        // A baseline 1000x faster than this machine: the fresh run must
        // regress and the gate must fail with a readable report.
        let fast_baseline = dir.join("fast.json");
        std::fs::write(&fast_baseline, doctor_medians(&doc, 1000.0).render()).unwrap();
        let out = run_smoke(
            &dir.join("second.json"),
            &[
                "--compare",
                fast_baseline.to_str().unwrap(),
                "--tolerance",
                "10x",
            ],
        );
        assert!(!out.status.success(), "regression must exit nonzero");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("REGRESSED"),
            "report names the cells:\n{stdout}"
        );
        assert!(
            stdout.contains("REGRESSION"),
            "report has a verdict:\n{stdout}"
        );

        // Against its own numbers with a loose tolerance, the gate holds.
        let out = run_smoke(
            &dir.join("third.json"),
            &["--compare", honest.to_str().unwrap(), "--tolerance", "10x"],
        );
        assert!(
            out.status.success(),
            "self-comparison within 10x must pass:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: OK"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_refuses_a_previous_format_before_running() {
        let dir = tmp_dir("oldformat");
        let baseline = dir.join("v6.json");
        std::fs::write(
            &baseline,
            r#"{"format": "stmbench7-lab/6", "spec": "smoke", "cells": []}"#,
        )
        .unwrap();
        let out_path = dir.join("never.json");
        let out = run_smoke(&out_path, &["--compare", baseline.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("stmbench7-lab/6"),
            "names the format:\n{stderr}"
        );
        assert!(
            !out_path.exists(),
            "the format check runs before the grid, so nothing is written"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

mod serve {
    use super::*;

    #[test]
    fn serve_reports_the_latency_decomposition() {
        let (stdout, stderr) = run_ok(&[
            "serve",
            "open:50000",
            "-s",
            "tiny",
            "--backend",
            "tl2",
            "-w",
            "rw",
            "-l",
            "0.05",
            "--workers",
            "2",
            "--validate",
        ]);
        assert!(
            stdout.contains("== Service =="),
            "service section:\n{stdout}"
        );
        // Queue-wait and service-time percentiles, separately.
        assert!(stdout.contains("queue wait"), "queue-wait row:\n{stdout}");
        assert!(
            stdout.contains("service time"),
            "service-time row:\n{stdout}"
        );
        assert!(stdout.contains("end-to-end"));
        assert!(stdout.contains("p50") && stdout.contains("p95") && stdout.contains("p99"));
        assert!(stdout.contains("schedule:            open50000"));
        assert!(stdout.contains("total throughput"));
        assert!(stderr.contains("structure valid"), "{stderr}");
    }

    #[test]
    fn closed_schedule_with_batching_and_rejection_runs() {
        let (stdout, _) = run_ok(&[
            "serve",
            "closed:2",
            "-s",
            "tiny",
            "--requests",
            "400",
            "--queue-cap",
            "16",
            "--admission",
            "reject",
            "--batch",
            "8",
            "-w",
            "r",
            "--validate",
        ]);
        assert!(stdout.contains("== Service =="));
        assert!(stdout.contains("rejected"), "reject counter:\n{stdout}");
        assert!(stdout.contains("batch 8"));
    }

    #[test]
    fn bad_schedule_fails_with_usage() {
        for bad in ["open:0", "open:x", "warble:3", "closed"] {
            assert_usage_error(&["serve", bad, "-s", "tiny"], "unknown schedule");
            assert_usage_error(
                &["net-drive", bad, "--addr", "127.0.0.1:1"],
                "unknown schedule",
            );
        }
        // No schedule at all, and a second positional, are usage errors too.
        assert_usage_error(&["serve", "-s", "tiny"], "no schedule named");
        assert_usage_error(
            &["serve", "open:10", "open:20"],
            "unknown argument 'open:20'",
        );
    }

    #[test]
    fn closed_schedule_without_requests_fails_cleanly() {
        let out = stmbench7()
            .args(["serve", "closed:2", "-s", "tiny"])
            .output()
            .expect("binary must launch");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--requests"), "{stderr}");
    }

    #[test]
    fn lab_latency_open_writes_service_results() {
        let dir = std::env::temp_dir().join(format!("sb7-serve-lab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_latency.json");
        let out = stmbench7()
            .args([
                "lab",
                "latency_open",
                "--reps",
                "1",
                "--warmup",
                "0",
                "--out",
            ])
            .arg(&out_path)
            .output()
            .expect("binary must launch");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = stmbench7::lab::json::parse(&std::fs::read_to_string(&out_path).unwrap())
            .expect("valid JSON");
        let cells = doc
            .get("cells")
            .and_then(stmbench7::core::JsonValue::as_array)
            .unwrap();
        assert_eq!(cells.len(), 2, "medium + tl2-sharded");
        for cell in cells {
            let svc = cell.get("service").expect("service object");
            assert!(
                svc.get("queue_wait_us")
                    .and_then(|l| l.get("p99"))
                    .is_some(),
                "queue-wait percentiles in results"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

mod net {
    use super::*;
    use std::io::BufRead;
    use std::process::Stdio;

    /// Spawns `net-serve` on an ephemeral port and parses the readiness
    /// line off its stderr. Returns the child and the bound address.
    fn spawn_server(extra: &[&str]) -> (std::process::Child, String) {
        let mut child = stmbench7()
            .args(["net-serve", "--addr", "127.0.0.1:0", "-s", "tiny"])
            .args(extra)
            .stderr(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("server must launch");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before listening")
                .expect("stderr is UTF-8");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        // Keep the pipe drained so the server can't block on stderr.
        std::thread::spawn(move || for _ in lines {});
        (child, addr)
    }

    /// Like [`spawn_server`], but with `--metrics 127.0.0.1:0`; also
    /// parses the `metrics on <addr>` line (printed before the
    /// readiness line). Returns (child, data addr, metrics addr).
    fn spawn_server_with_metrics(extra: &[&str]) -> (std::process::Child, String, String) {
        let mut child = stmbench7()
            .args([
                "net-serve",
                "--addr",
                "127.0.0.1:0",
                "--metrics",
                "127.0.0.1:0",
                "-s",
                "tiny",
            ])
            .args(extra)
            .stderr(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("server must launch");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let mut metrics_addr = None;
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before listening")
                .expect("stderr is UTF-8");
            if let Some(addr) = line.strip_prefix("metrics on ") {
                metrics_addr = Some(addr.to_string());
            }
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        std::thread::spawn(move || for _ in lines {});
        let metrics_addr = metrics_addr.expect("metrics line precedes the readiness line");
        (child, addr, metrics_addr)
    }

    /// One metrics scrape over plain HTTP/1.0: returns (status line, body).
    fn scrape(addr: &str) -> (String, String) {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
            .expect("write scrape request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header block");
        let status = head.lines().next().unwrap_or_default().to_string();
        (status, body.to_string())
    }

    fn counter_value(body: &str, name: &str) -> u64 {
        body.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} present in:\n{body}"))
    }

    #[test]
    fn metrics_endpoint_is_scrapeable_mid_run() {
        // The CI-gated metrics smoke: scrape before and after a drive,
        // both while the server is live — the exposition must parse and
        // stmbench7_ops_total must be exact across the two scrapes.
        let (mut server, addr, metrics_addr) =
            spawn_server_with_metrics(&["-g", "coarse", "--workers", "2"]);

        let before = scrape(&metrics_addr);
        run_ok(&[
            "net-drive",
            "closed:2",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "100",
            "-w",
            "rw",
        ]);
        let after = scrape(&metrics_addr);
        stmbench7::net::shutdown(&addr).expect("shutdown acknowledged");
        let status = server.wait().expect("server must exit after shutdown");
        assert!(status.success(), "server exit must be clean: {status:?}");

        assert_eq!(before.0, "HTTP/1.0 200 OK");
        for family in [
            "# TYPE stmbench7_ops_total counter",
            "# TYPE stmbench7_queue_depth gauge",
            "stmbench7_latency_us_bucket",
        ] {
            assert!(before.1.contains(family), "missing {family}:\n{}", before.1);
        }
        let ops_before = counter_value(&before.1, "stmbench7_ops_total");
        let ops_after = counter_value(&after.1, "stmbench7_ops_total");
        assert!(
            ops_after > ops_before,
            "ops_total must increase across scrapes ({ops_before} -> {ops_after})"
        );
        // The client held all 100 responses before the second scrape,
        // and workers publish counters before answering: exact, not
        // merely monotonic.
        assert_eq!(ops_after, 100);
    }

    #[test]
    fn graceful_shutdown_smoke() {
        // The CI-gated smoke: start net-serve, drive 100 requests over
        // the wire, send the shutdown frame, and assert both processes
        // exit cleanly with their reports.
        let (mut server, addr) = spawn_server(&["-g", "coarse", "--workers", "2", "--validate"]);
        let (stdout, stderr) = run_ok(&[
            "net-drive",
            "closed:2",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "100",
            "-w",
            "rw",
            "--shutdown",
        ]);
        assert!(stdout.contains("== Service =="), "client report:\n{stdout}");
        assert!(stdout.contains("offered 100"), "all offered:\n{stdout}");
        assert!(stdout.contains("network"), "network lane:\n{stdout}");
        assert!(
            stderr.contains("server shutdown acknowledged"),
            "ack:\n{stderr}"
        );

        let status = server.wait().expect("server must exit after shutdown");
        assert!(status.success(), "server exit must be clean: {status:?}");
        let mut server_stdout = String::new();
        use std::io::Read as _;
        server
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut server_stdout)
            .unwrap();
        assert!(
            server_stdout.contains("== Service =="),
            "server report:\n{server_stdout}"
        );
        assert!(
            server_stdout.contains("offered 100"),
            "server saw the whole stream:\n{server_stdout}"
        );
        assert!(
            server_stdout.contains("schedule:            net:"),
            "net-labeled schedule:\n{server_stdout}"
        );
    }

    #[test]
    fn graceful_shutdown_smoke_with_pipelining() {
        // The graceful-shutdown smoke again, but with an --inflight 8
        // window: the event-loop server must drain pipelined in-flight
        // requests before acknowledging shutdown.
        let (mut server, addr) = spawn_server(&["-g", "coarse", "--workers", "2"]);
        let (stdout, stderr) = run_ok(&[
            "net-drive",
            "closed:2",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--inflight",
            "8",
            "--requests",
            "100",
            "-w",
            "rw",
            "--shutdown",
        ]);
        assert!(stdout.contains("== Service =="), "client report:\n{stdout}");
        assert!(stdout.contains("offered 100"), "all offered:\n{stdout}");
        assert!(
            stdout.contains("reconnects 0"),
            "a healthy loopback drive must not reconnect:\n{stdout}"
        );
        assert!(
            stderr.contains("server shutdown acknowledged"),
            "ack:\n{stderr}"
        );
        let status = server.wait().expect("server must exit after shutdown");
        assert!(status.success(), "server exit must be clean: {status:?}");
        let mut server_stdout = String::new();
        use std::io::Read as _;
        server
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut server_stdout)
            .unwrap();
        assert!(
            server_stdout.contains("offered 100"),
            "server drained every pipelined request:\n{server_stdout}"
        );
    }

    #[test]
    fn traced_net_run_round_trips_with_events_from_four_layers() {
        // The whole-stack observability smoke: a traced net-serve run
        // must produce valid Chrome trace_event JSON whose events span
        // the engine, backend, service, and net layers, and the
        // trace-summary subcommand must digest it.
        let dir = std::env::temp_dir().join(format!("sb7-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("net.trace.json");
        // flatcomb: its combiner emits a Backend-layer event per batch,
        // so backend coverage doesn't depend on winning a lock race.
        let (mut server, addr) = spawn_server(&[
            "-g",
            "flatcomb",
            "--workers",
            "2",
            "--trace",
            trace_path.to_str().unwrap(),
        ]);
        run_ok(&[
            "net-drive",
            "closed:2",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "200",
            "-w",
            "rw",
            "--shutdown",
        ]);
        let status = server.wait().expect("server must exit after shutdown");
        assert!(status.success(), "server exit must be clean: {status:?}");

        let text = std::fs::read_to_string(&trace_path).expect("trace file written");
        let doc = stmbench7::lab::json::parse(&text).expect("trace must be valid JSON");
        let events = doc.as_array().expect("Chrome trace array format");
        assert!(events.len() > 10, "expected a populated trace");
        let mut layers: Vec<String> = events
            .iter()
            .filter_map(|e| e.get("cat"))
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect();
        layers.sort();
        layers.dedup();
        for layer in ["engine", "backend", "service", "net"] {
            assert!(
                layers.iter().any(|l| l == layer),
                "no {layer} events in trace; layers present: {layers:?}"
            );
        }
        assert!(
            text.contains("trace_dropped"),
            "completeness marker must ride along"
        );

        let (summary, _) = run_ok(&["trace-summary", trace_path.to_str().unwrap()]);
        assert!(
            summary.contains("events across") && summary.contains("layers"),
            "summary header:\n{summary}"
        );
        assert!(summary.contains("queue-admit"), "summary rows:\n{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_summary_of_a_counter_only_trace_exits_zero_and_says_so() {
        // A run can record zero span/instant events and still write a
        // valid trace (just the drop-counter marker); summarizing it
        // must not fail or print an empty table.
        let dir = std::env::temp_dir().join(format!("sb7-ctrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counters.trace.json");
        std::fs::write(
            &path,
            "[{\"name\":\"trace_dropped\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":0,\
             \"pid\":1,\"tid\":0,\"args\":{\"dropped\":3}}]",
        )
        .unwrap();
        let (summary, _) = run_ok(&["trace-summary", path.to_str().unwrap()]);
        assert!(
            summary.contains("0 events across 0 layers, 3 dropped"),
            "summary header:\n{summary}"
        );
        assert!(
            summary.contains("no span/instant events"),
            "summary body:\n{summary}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_summary_top_lists_slowest_spans_from_the_fixture() {
        // A committed fixture trace pins the --top contract: per-layer
        // sections, slowest span first, instants excluded.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/top_spans.trace.json"
        );
        let (out, _) = run_ok(&["trace-summary", fixture, "--top", "2"]);
        assert!(
            out.contains("top 2 slowest spans per layer:"),
            "top header:\n{out}"
        );
        assert!(out.contains("engine:") && out.contains("backend:"));
        // Engine: T1 (500 us) outranks OP3 (120 us); ST2 (80 us) is cut
        // by the truncation and the op-fail instant never qualifies.
        let t1 = out.find("op             T1").expect("T1 listed");
        let op3 = out.find("op             OP3").expect("OP3 listed");
        assert!(t1 < op3, "slowest span first:\n{out}");
        let top = &out[out.find("top 2 slowest").unwrap()..];
        assert!(!top.contains("ST2"), "third span truncated:\n{top}");
        assert!(!top.contains("SM4"), "instants are not spans:\n{top}");
        assert!(
            top.contains("lock-wait      coarse"),
            "backend span:\n{top}"
        );
        // Without --top the section is absent entirely.
        let (plain, _) = run_ok(&["trace-summary", fixture]);
        assert!(!plain.contains("slowest spans"), "no --top, no section");
    }

    #[test]
    fn net_drive_requires_an_address() {
        let out = stmbench7()
            .args(["net-drive", "open:1000"])
            .output()
            .expect("binary must launch");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--addr"), "{stderr}");
        assert!(stderr.contains("USAGE"), "{stderr}");
    }

    #[test]
    fn net_drive_rejects_bad_schedules() {
        for bad in ["open:0", "warble:3"] {
            let out = stmbench7()
                .args(["net-drive", bad, "--addr", "127.0.0.1:1"])
                .output()
                .expect("binary must launch");
            assert!(!out.status.success(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn lab_net_loopback_writes_the_network_lane() {
        let dir = std::env::temp_dir().join(format!("sb7-net-lab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_net.json");
        let out = stmbench7()
            .args([
                "lab",
                "net_loopback",
                "--reps",
                "1",
                "--warmup",
                "0",
                "--out",
            ])
            .arg(&out_path)
            .output()
            .expect("binary must launch");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = stmbench7::lab::json::parse(&std::fs::read_to_string(&out_path).unwrap())
            .expect("valid JSON");
        use stmbench7::core::JsonValue;
        let cells = doc.get("cells").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cells.len(), 2, "medium + tl2-sharded");
        for cell in cells {
            let key = cell.get("key").and_then(JsonValue::as_str).unwrap();
            assert!(key.ends_with("/net2c"), "net suffix in {key}");
            let svc = cell.get("service").expect("service object");
            let net = svc.get("network_us").expect("network lane");
            assert!(
                net.get("samples").and_then(JsonValue::as_u64).unwrap() > 0,
                "network lane sampled in {key}"
            );
            assert!(
                svc.get("categories")
                    .and_then(|c| c.get("short operations"))
                    .is_some(),
                "category split in {key}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn csv_flag_appends_rows() {
    let dir = std::env::temp_dir().join(format!("sb7-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("out.csv");
    let csv_path = csv.to_str().unwrap();
    run_ok(&["-s", "tiny", "--ops", "150", "--csv", csv_path]);
    let content = std::fs::read_to_string(&csv).expect("CSV written");
    assert!(content.lines().count() > 5, "per-op rows expected");
    assert!(content.lines().all(|l| l.split(',').count() == 8));
    // An unwritable path is a reported failure, not a panic.
    let out = stmbench7()
        .args(["-s", "tiny", "--ops", "10", "--csv"])
        .arg(dir.join("missing-dir/out.csv"))
        .output()
        .expect("binary must launch");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: cannot open"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
