//! The traced run: every per-layer metric of the vocabulary.
//!
//! Most rows are workload-independent — microbenchmarks of one layer,
//! or one of the five configurations run briefly to read a ratio off
//! it (contention on the 2-thread closed runs, batching on the
//! `net_peak_w` configuration, the lanes of `net_open_rw`). The
//! `trace.*` and `benchmark.*` rows come from the traced replay of the
//! workload the run was asked for.

use std::time::{Duration, Instant};

use stmbench7_backend::AnyBackend;
use stmbench7_core::{run_benchmark, Report, RunMode};
use stmbench7_data::{OpOutcome, Workspace};
use stmbench7_net::{DriveConfig, WireOutcome};
use stmbench7_obs::Recorder;
use stmbench7_service::{serve, Request, Schedule};

use crate::closed::{engine_stream, via_direct, ClosedWorkload};
use crate::fingerprint::cpu_time_us;
use crate::layers::{self, Rows, SmallRw};
use crate::net::{with_server, Client, Pacing};
use crate::replay;
use crate::spec::{self, SPAN_SHARES};
use crate::stats;
use crate::trace::Spans;
use crate::workload::{closed_config, net_config, Config, Sizing};
use crate::WorkloadResult;

/// One timed run of a closed configuration on a fresh structure.
fn closed_run(
    w: &ClosedWorkload,
    seed: u64,
    window: Duration,
    recorder: Recorder,
    window_ms: Option<u64>,
) -> (Report, f64) {
    let ws = Workspace::build(w.params.clone(), seed);
    let backend = AnyBackend::build_traced(w.choice(), ws, recorder.clone());
    let mut cfg = w.bench_config(RunMode::Timed(window), w.threads, seed);
    cfg.recorder = recorder;
    cfg.window_ms = window_ms;
    let t0 = Instant::now();
    let report = run_benchmark(&backend, &w.params, &cfg);
    let ops_per_s = report.total_started() as f64 / t0.elapsed().as_secs_f64();
    (report, ops_per_s)
}

/// Ratios read off the two 2-thread closed configurations, and what
/// the product's own tracing and windowing cost on one of them.
fn contention_and_obs(seed: u64, window: Duration, rows: &mut Rows) {
    let medium = closed_config("closed_rw_medium");
    let (report, plain) = closed_run(&medium, seed, window, Recorder::off(), None);
    let c = report.contention.unwrap_or_default();
    let thread_ns = report.elapsed.as_nanos() as f64 * medium.threads as f64;
    rows.push((
        "backend.lock_wait_share".into(),
        c.lock_wait_ns as f64 / thread_ns,
    ));
    rows.push(("backend.lock_contended_share".into(), c.contention_ratio()));

    let (_, traced) = closed_run(&medium, seed, window, Recorder::enabled(), None);
    let (_, windowed) = closed_run(&medium, seed, window, Recorder::off(), Some(250));
    rows.push(("obs.trace_ratio".into(), traced / plain));
    rows.push(("obs.window_ratio".into(), windowed / plain));

    let tl2 = closed_config("closed_rw_tl2");
    let (report, _) = closed_run(&tl2, seed, window, Recorder::off(), None);
    let s = report.stm.unwrap_or_default();
    let commits = s.commits.max(1) as f64;
    rows.push((
        "stm.abort_share".into(),
        s.aborts as f64 / s.starts.max(1) as f64,
    ));
    rows.push(("stm.reads_per_commit".into(), s.reads as f64 / commits));
    rows.push((
        "stm.validation_steps_per_commit".into(),
        s.validation_steps as f64 / commits,
    ));
}

/// Where a 1-thread closed operation's time goes, and what share of it
/// the three measured parts fail to explain.
fn closed_budget(small_rw: &SmallRw, rows: &mut Rows) {
    let SmallRw { w, seed, ops, .. } = small_rw;
    let mut plain = Workspace::build(w.params.clone(), *seed);
    let outcomes = engine_stream(w, *seed, *ops, via_direct(&mut plain));
    let fails = outcomes
        .iter()
        .filter(|o| matches!(o, OpOutcome::Fail(_)))
        .count();
    rows.push(("core.benign_fail_share".into(), fails as f64 / *ops as f64));

    let row = |name: &str| {
        rows.iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let explained =
        small_rw.body_ns + row("backend.sync_tax_ns.medium") + row("core.engine_overhead_ns");
    let measured = small_rw.engine_ns_per_op(w.strategy);
    rows.push(("core.residual_share".into(), 1.0 - explained / measured));
}

/// The batching, routing and stealing counters of the `net_peak_w`
/// configuration, served in-process.
fn service_batching(seed: u64, rows: &mut Rows) {
    let w = net_config("net_peak_w");
    let cfg = w.serve_config(w.workers, seed);
    let stream = Schedule::Closed { clients: w.workers }.generate(&w.workload_mix(), seed, 40_000);
    let report = serve(&w.backend(seed), &w.params, &cfg, &stream).report;
    let svc = report.service.expect("serve attaches service stats");
    let batches = svc.batches.max(1) as f64;
    rows.push(("service.batch_mean".into(), svc.offered as f64 / batches));
    rows.push((
        "service.write_batch_share".into(),
        svc.write_batches as f64 / batches,
    ));
    rows.push((
        "service.steals_per_kreq".into(),
        svc.steals as f64 * 1_000.0 / svc.offered.max(1) as f64,
    ));
    rows.push((
        "service.worker_busy_share".into(),
        svc.busy_ns as f64 / (svc.busy_ns + svc.idle_ns).max(1) as f64,
    ));
}

fn p_us(sorted_ns: &[u64], p: f64) -> f64 {
    stats::percentile(sorted_ns, p) as f64 / 1e3
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The wire rows that need a live server.
fn net_live(seed: u64, window: Duration, rows: &mut Rows) -> std::io::Result<()> {
    // Floor: one connection, one in flight, the cheapest read.
    let open = net_config("net_open_rw");
    let cheapest: Vec<Request> = (0..2_000)
        .map(|id| Request {
            id,
            arrival_ns: 0,
            op: stmbench7_core::OpKind::Op5,
            rng_seed: id,
        })
        .collect();
    let cfg = open.serve_config(1, seed);
    let drive = with_server(&open.backend(seed), &open.params, &cfg, |addr| {
        Client::connect(addr, 1)?.drive(
            &cheapest,
            Pacing::Closed { inflight: 1 },
            None,
            false,
            &mut Spans::off(),
        )
    })?;
    let floor = sorted(drive.lanes().map(|(_, l)| l.net_lane_ns()).collect());
    rows.push(("net.rtt_floor_us".into(), p_us(&floor, 50.0)));

    // The lanes of the open-loop workload against one worker.
    let (drive, _) = replay::net_drive(&open, seed, window, &mut Spans::off())?;
    let lanes: Vec<_> = drive.lanes().map(|(_, l)| l).collect();
    let late = sorted(lanes.iter().map(|l| l.client_late_ns()).collect());
    let lane = sorted(lanes.iter().map(|l| l.net_lane_ns()).collect());
    let queue = sorted(lanes.iter().map(|l| l.queue_ns).collect());
    let service = sorted(lanes.iter().map(|l| l.service_ns).collect());
    let latency = sorted(lanes.iter().map(|l| l.latency_ns()).collect());
    rows.push(("net.client_late_p99_us".into(), p_us(&late, 99.0)));
    rows.push(("net.lane_p50_us".into(), p_us(&lane, 50.0)));
    rows.push(("net.lane_p99_us".into(), p_us(&lane, 99.0)));
    rows.push(("net.server_queue_p50_us".into(), p_us(&queue, 50.0)));
    rows.push(("net.server_service_p50_us".into(), p_us(&service, 50.0)));
    // Per request the four lanes sum to the latency exactly (the lane
    // is defined as the remainder); their medians need not. This is
    // how far the p50 decomposition is from additive.
    let lanes_p50 =
        p_us(&late, 50.0) + p_us(&lane, 50.0) + p_us(&queue, 50.0) + p_us(&service, 50.0);
    rows.push((
        "net.residual_share".into(),
        1.0 - lanes_p50 / p_us(&latency, 50.0),
    ));

    // CPU per request at capacity, client included: whether the box
    // was CPU-bound.
    let peak = net_config("net_peak_w");
    let stream = peak.stream(seed, window);
    let cfg = peak.serve_config(peak.workers, seed);
    let backend = peak.backend(seed);
    let (cpu_us, answered) = with_server(&backend, &peak.params, &cfg, |addr| {
        let mut client = Client::connect(addr, peak.connections)?;
        let before = cpu_time_us();
        let drive = client.drive(&stream, peak.pacing, Some(window), false, &mut Spans::off())?;
        Ok((cpu_time_us() - before, drive.answered()))
    })?;
    rows.push(("net.cpu_us_per_req".into(), cpu_us / answered.max(1) as f64));

    // The product's own driver on the same stream.
    let mut drive_cfg = DriveConfig::new(Schedule::Closed { clients: 2 }, peak.mix, seed);
    drive_cfg.connections = peak.connections;
    drive_cfg.inflight = 32;
    drive_cfg.long_traversals = false;
    let stream = &stream[..stream.len().min(50_000)];
    let backend = peak.backend(seed);
    let (answered, secs) = with_server(&backend, &peak.params, &cfg, |addr| {
        let t0 = Instant::now();
        let result = stmbench7_net::drive(addr, &drive_cfg, stream)?;
        let answered = result
            .outcomes
            .iter()
            .filter(|o| matches!(o, Some(WireOutcome::Done(_) | WireOutcome::Fail(_))))
            .count();
        Ok((answered, t0.elapsed().as_secs_f64()))
    })?;
    rows.push(("net.driver_req_per_s".into(), answered as f64 / secs));
    Ok(())
}

/// The traced replay of the workload the run was asked for.
fn workload_replay(
    name: &str,
    config: &Config,
    seed: u64,
    sizing: &Sizing,
    rows: &mut Rows,
) -> std::io::Result<(u64, u64)> {
    let replay = match config {
        Config::Closed(w) => {
            let mut one = w.clone();
            one.threads = 1;
            let rep_seconds = sizing.seconds / w.reps as f64;
            let ops = match w.timed_rep(seed, 0, rep_seconds).0 {
                RunMode::FixedOps(n) => n,
                // About a rep's window at a quarter of the rate one
                // thread of this box sustains: enough for steady shares.
                RunMode::Timed(d) => (d.as_secs_f64() * 25_000.0) as u64,
            };
            replay::closed(&one, seed, ops)
        }
        Config::Net(w) => replay::net(
            w,
            seed,
            Duration::from_secs_f64(sizing.seconds / w.reps as f64),
        )?,
    };
    for (share, span) in replay.shares.iter().zip(SPAN_SHARES) {
        rows.push((format!("trace.self_share.{span}"), *share));
    }
    rows.push((
        "benchmark.span_overhead_ratio".into(),
        replay.overhead_ratio,
    ));
    rows.push((
        "benchmark.error_share".into(),
        replay.failed as f64 / replay.attempted.max(1) as f64,
    ));

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)?;
    let path = out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, replay.spans.chrome_json(name, 20_000))?;
    eprintln!(
        "{name}: {} spans, written to {}",
        replay.spans.len(),
        path.display()
    );
    eprintln!(
        "{:<16} {:>9} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (span, row) in replay.spans.table() {
        eprintln!(
            "{span:<16} {:>9} {:>14.3} {:>14.3}",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    Ok((replay.attempted, replay.failed))
}

/// Runs the whole per-layer suite plus the workload's traced replay.
pub fn run_traced(name: &str, config: &Config, seed: u64, sizing: &Sizing) -> WorkloadResult {
    let window = Duration::from_secs_f64(if sizing.quick { 0.15 } else { 1.0 });
    let mut rows = Rows::new();
    let mut problems = Vec::new();
    let stage = |label: &str, rows: &Rows, t0: Instant| {
        eprintln!(
            "{label}: {} rows so far, {:.1} s",
            rows.len(),
            t0.elapsed().as_secs_f64()
        );
    };
    let t0 = Instant::now();

    let standard = layers::data(seed, &mut rows);
    let small_rw = SmallRw::measure(seed);
    layers::core(seed, standard, &small_rw, &mut rows);
    stage("data, core", &rows, t0);
    layers::backend(seed, &small_rw, &mut rows);
    layers::backend_queue(&mut rows);
    closed_budget(&small_rw, &mut rows);
    contention_and_obs(seed, window, &mut rows);
    stage("backend, contention, obs", &rows, t0);
    layers::stm(&mut rows);
    layers::service(seed, &mut rows);
    service_batching(seed, &mut rows);
    stage("stm, service", &rows, t0);
    layers::net_codec(&mut rows);
    if let Err(e) = net_live(seed, window, &mut rows) {
        problems.push(format!("wire rows: {e}"));
    }
    if let Err(e) = layers::poll(&mut rows) {
        problems.push(format!("poll rows: {e}"));
    }
    layers::obs_probe(&mut rows);
    layers::lab(&mut rows);
    stage("net, poll, obs, lab", &rows, t0);
    let (attempted, failed) = workload_replay(name, config, seed, sizing, &mut rows)
        .unwrap_or_else(|e| {
            problems.push(format!("replay: {e}"));
            (1, 1)
        });
    stage("replay", &rows, t0);

    // Emit in vocabulary order; a row the suite failed to produce is a
    // failed check, reported as zero so the line stays valid JSON.
    let metrics = spec::per_layer()
        .into_iter()
        .map(|m| {
            let value = rows.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            match value {
                Some(v) if v.is_finite() => (m.name, v),
                _ => {
                    problems.push(format!("no finite value for {}", m.name));
                    (m.name, 0.0)
                }
            }
        })
        .collect();
    for problem in &problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    WorkloadResult {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}
