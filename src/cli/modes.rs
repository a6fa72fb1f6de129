//! What each mode of the binary does once its flags are parsed.

use std::io::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use super::{Failure, Opts};
use crate::backend::{AnyBackend, Backend};
use crate::core::{run_benchmark, BenchConfig, OpFilter, RunMode, WorkloadMix};
use crate::data::{validate, StructureParams, Workspace};
use crate::lab::{check_slos, compare_documents, registry, run_spec, Tolerance};
use crate::net::DriveConfig;
use crate::obs::{
    chrome_trace_json, summarize, top_spans, Event, EventKind, Layer, Recorder, Trace,
    DEFAULT_WINDOW_MS,
};
use crate::service::{Request, Schedule, ServeConfig};
use crate::{net, service};

type Outcome = Result<ExitCode, Failure>;

fn failed(msg: String) -> Failure {
    Failure::Failed(msg)
}

fn usage(msg: &str) -> Failure {
    Failure::Usage(msg.to_string())
}

/// What every structure-holding mode shares: the recorder behind
/// `--trace`, the built structure, and the strategy around it.
struct Session {
    params: StructureParams,
    recorder: Recorder,
    backend: AnyBackend,
}

fn build_structure(params: &StructureParams, seed: u64) -> Workspace {
    eprintln!(
        "building structure (preset with {} atomic parts)...",
        params.initial_atomics()
    );
    Workspace::build(params.clone(), seed)
}

impl Session {
    fn start(o: &Opts) -> Session {
        let params = o.params();
        let recorder = match o.trace {
            Some(_) => Recorder::enabled(),
            None => Recorder::off(),
        };
        let ws = build_structure(&params, o.seed());
        let backend = AnyBackend::build_traced(o.strategy(), ws, recorder.clone());
        Session {
            params,
            recorder,
            backend,
        }
    }

    /// The tail every mode repeats: the `--validate` census, then the
    /// `--trace` file.
    fn finish(self, o: &Opts) -> Outcome {
        if o.validate {
            match validate(&self.backend.export()) {
                Ok(census) => eprintln!(
                    "structure valid: {} atomic parts, {} assemblies",
                    census.atomic_parts,
                    census.base_assemblies + census.complex_assemblies
                ),
                Err(msg) => {
                    eprintln!("STRUCTURE CORRUPTED: {msg}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        if let Some(path) = &o.trace {
            // Drop first: the RCL backend's server thread only flushes its
            // trace lane when the thread exits at backend drop.
            drop(self.backend);
            write_trace(path, &self.recorder.take_trace())?;
        }
        Ok(ExitCode::SUCCESS)
    }
}

fn create_parent_dir(path: &str) -> Result<(), Failure> {
    match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)
            .map_err(|e| failed(format!("cannot create {}: {e}", dir.display()))),
        _ => Ok(()),
    }
}

fn write_file(path: &str, contents: String) -> Result<(), Failure> {
    std::fs::write(path, contents).map_err(|e| failed(format!("cannot write {path}: {e}")))
}

/// Writes a trace as Chrome `trace_event` JSON, creating parent
/// directories as needed.
fn write_trace(path: &str, trace: &Trace) -> Result<(), Failure> {
    create_parent_dir(path)?;
    write_file(path, chrome_trace_json(trace))?;
    eprintln!(
        "wrote {path} ({} events, {} dropped)",
        trace.events.len(),
        trace.dropped
    );
    Ok(())
}

fn describe(params: &StructureParams, ws: &Workspace) {
    let census = validate(ws).expect("fresh build must validate");
    println!(
        "STMBench7 structure ({} levels, fan-out {}):",
        params.assembly_levels, params.assembly_fanout
    );
    println!("  complex assemblies: {}", census.complex_assemblies);
    println!("  base assemblies:    {}", census.base_assemblies);
    println!("  composite parts:    {}", census.composite_parts);
    println!("  atomic parts:       {}", census.atomic_parts);
    println!("  documents:          {}", census.documents);
    println!("  manual size:        {} chars", ws.manual.text.len());
    println!("Indexes (paper Table 1):");
    println!("  1. atomic part id         -> atomic part");
    println!(
        "  2. atomic part build date -> atomic part   ({} entries)",
        ws.atomics.by_date.len()
    );
    println!("  3. composite part id      -> composite part");
    println!(
        "  4. document title         -> document      ({} entries)",
        ws.documents.by_title.len()
    );
    println!("  5. base assembly id       -> base assembly");
    println!(
        "  6. complex assembly id    -> complex assembly ({} entries)",
        ws.sm.complex_index.len()
    );
}

/// The default mode: the paper's closed-loop benchmark.
pub(super) fn run(o: &Opts) -> Outcome {
    if o.describe {
        let params = o.params();
        describe(&params, &build_structure(&params, o.seed()));
        return Ok(ExitCode::SUCCESS);
    }
    let session = Session::start(o);
    let cfg = BenchConfig {
        threads: o.threads.unwrap_or(1),
        mode: match o.ops {
            Some(n) => RunMode::FixedOps(n),
            None => RunMode::Timed(Duration::from_secs_f64(o.length.unwrap_or(10.0))),
        },
        workload: o.workload(),
        long_traversals: !o.no_traversals,
        structure_mods: !o.no_sms,
        filter: OpFilter::astm_friendly_if(o.astm_friendly),
        seed: o.seed(),
        histograms: o.histograms,
        recorder: session.recorder.clone(),
        window_ms: o.window,
    };
    eprintln!(
        "running: backend={} threads={} workload={} ...",
        session.backend.name(),
        cfg.threads,
        cfg.workload.name()
    );
    let report = run_benchmark(&session.backend, &session.params, &cfg);
    print!("{}", report.render(o.histograms));

    if let Some(path) = &o.csv {
        let rows = report.csv_rows();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| failed(format!("cannot open {path}: {e}")))?;
        for row in &rows {
            writeln!(file, "{row}").map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        }
        eprintln!("appended {} rows to {path}", rows.len());
    }
    session.finish(o)
}

/// Flattens a cell key (`coarse/rw/4t/...`) into a filename stem.
fn trace_file_stem(key: &str) -> String {
    key.chars()
        .map(|c| match c {
            c if c.is_ascii_alphanumeric() || c == '-' || c == '.' => c,
            _ => '_',
        })
        .collect()
}

/// `lab`: run a registry spec, write its results, gate on its windowed
/// SLOs and, under `--compare`, on a baseline document.
pub(super) fn lab(o: &Opts) -> Outcome {
    if o.list {
        println!("built-in lab specs:");
        for (name, description, _) in registry::CATALOG {
            println!("  {name:<17} {description}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let name = o.operand.as_ref().ok_or(usage("no spec named"))?;
    let mut spec = registry::build(name).ok_or_else(|| {
        let names: Vec<&str> = registry::CATALOG.iter().map(|(n, ..)| *n).collect();
        Failure::Usage(format!(
            "unknown spec '{name}'; available: {}",
            names.join(", ")
        ))
    })?;
    if let Some(params) = &o.preset {
        spec.params = params.clone();
    }
    if let Some(shards) = o.shards {
        spec.params = spec.params.with_shards(shards);
    }
    spec.secs_per_cell = o.secs.unwrap_or(spec.secs_per_cell);
    spec.warmup_secs = o.warmup.unwrap_or(spec.warmup_secs);
    spec.repetitions = o.reps.unwrap_or(spec.repetitions);
    spec.seed = o.seed.unwrap_or(spec.seed);
    if let Some(threads) = &o.thread_axis {
        spec = spec.with_threads(threads);
    }
    if let Some(rates) = &o.rates {
        spec = spec.with_rates(rates);
    }
    for cell in &mut spec.cells {
        cell.trace |= o.trace.is_some();
        if o.window.is_some() {
            cell.window_ms = o.window;
        }
    }

    // Load the baseline before running anything: a mistyped path or a
    // malformed document must not waste a multi-minute grid run.
    let baseline = match &o.compare {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| failed(format!("cannot read baseline {path}: {e}")))?;
            let doc = crate::lab::json::parse(&text)
                .and_then(|doc| crate::lab::check_format(&doc).map(|()| doc))
                .map_err(|e| failed(format!("baseline {path}: {e}")))?;
            Some(doc)
        }
    };

    eprintln!(
        "lab spec '{}': {} cells × {} reps × {:.2} s (+{:.2} s warmup each) — ~{:.0} s measured",
        spec.name,
        spec.cells.len(),
        spec.repetitions,
        spec.secs_per_cell,
        spec.warmup_secs,
        spec.measured_secs(),
    );
    let result = run_spec(&spec, |line| eprintln!("{line}"));

    println!(
        "{:<40} {:>12} {:>12} {:>12} {:>10}",
        "cell", "median op/s", "p95 op/s", "completed", "aborts/c"
    );
    for cell in &result.cells {
        println!(
            "{:<40} {:>12.1} {:>12.1} {:>12} {:>10.3}",
            cell.cell.key(),
            cell.throughput.median,
            cell.throughput.p95,
            cell.completed,
            cell.abort_ratio(),
        );
    }

    // Windowed SLO checks gate every run (exit 1 on a failing cell),
    // with or without --compare.
    let slo_checks = check_slos(&result);
    if !slo_checks.is_empty() {
        println!("\nwindowed SLO checks (p99 per window):");
    }
    for check in &slo_checks {
        if check.windows == 0 {
            println!("  FAIL {}: no windows sampled", check.key);
            continue;
        }
        let aggregate = check
            .aggregate_p99_us
            .map_or_else(|| "n/a".to_string(), |us| format!("{us} us"));
        println!(
            "  {} {}: {} breaching windows (allowed {}) against p99 ≤ {} us; worst window p99 {} us, aggregate p99 {aggregate}",
            if check.pass() { "PASS" } else { "FAIL" },
            check.key,
            check.violations,
            check.slo.max_violation_windows,
            check.slo.p99_us,
            check.worst_p99_us,
        );
    }

    let out_path = match &o.out {
        Some(path) => path.clone(),
        None => format!("results/BENCH_{}.json", spec.name),
    };
    create_parent_dir(&out_path)?;
    let document = result.to_json();
    write_file(&out_path, document.render())?;
    eprintln!("wrote {out_path}");

    if let Some(dir) = &o.trace {
        let mut written = 0usize;
        for cell in &result.cells {
            if let Some(trace) = &cell.trace {
                let file = format!("{dir}/{}.trace.json", trace_file_stem(&cell.cell.key()));
                create_parent_dir(&file)?;
                write_file(&file, chrome_trace_json(trace))?;
                written += 1;
            }
        }
        eprintln!("wrote {written} trace files to {dir}");
    }

    if let Some(baseline) = &baseline {
        let comparison =
            compare_documents(baseline, &document, o.tolerance.unwrap_or(Tolerance(1.25)))
                .map_err(failed)?;
        print!("{}", comparison.render());
        if !comparison.ok() {
            return Ok(ExitCode::FAILURE);
        }
    }
    if slo_checks.iter().any(|c| !c.pass()) {
        eprintln!("SLO gate failed: a cell missed its windowed p99 objective");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The request stream `serve` and `net-drive` replay: `--requests` of
/// the schedule, or everything arriving within `-l` seconds.
fn stream(o: &Opts, schedule: Schedule, mix: &WorkloadMix) -> Result<Vec<Request>, Failure> {
    let requests = match o.requests {
        Some(n) => schedule.generate(mix, o.seed(), n),
        None => schedule
            .generate_for(
                mix,
                o.seed(),
                Duration::from_secs_f64(o.length.unwrap_or(5.0)),
            )
            .ok_or(usage("closed schedules need --requests"))?,
    };
    if requests.is_empty() {
        return Err(usage(
            "the schedule offers no requests before the horizon; raise -l or the rate",
        ));
    }
    Ok(requests)
}

fn schedule(o: &Opts) -> Result<Schedule, Failure> {
    o.schedule.ok_or(usage("no schedule named"))
}

/// The worker-pool configuration `serve` and `net-serve` share.
fn pool_config(o: &Opts, schedule: Schedule, workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(schedule, o.workload(), o.seed());
    cfg.workers = workers;
    cfg.queue_cap = o.queue_cap.unwrap_or(cfg.queue_cap);
    cfg.admission = o.admission.unwrap_or(cfg.admission);
    cfg.batch_max = o.batch.unwrap_or(cfg.batch_max);
    cfg.affinity = o.affinity.unwrap_or(cfg.affinity);
    cfg.window_ms = o.window;
    cfg
}

fn pool_line(backend: &AnyBackend, cfg: &ServeConfig) -> String {
    format!(
        "backend={} workers={} queue={} admission={} batch={} affinity={}",
        backend.name(),
        cfg.workers,
        cfg.queue_cap,
        cfg.admission.key(),
        cfg.batch_max,
        cfg.affinity.key(),
    )
}

/// `serve`: an in-process open-loop request stream.
pub(super) fn serve(o: &Opts) -> Outcome {
    let schedule = schedule(o)?;
    let workers = o.workers.unwrap_or(match schedule {
        Schedule::Closed { clients } => clients,
        _ => 2,
    });
    let mut cfg = pool_config(o, schedule, workers);
    cfg.long_traversals = !o.no_traversals;
    cfg.structure_mods = !o.no_sms;
    cfg.filter = OpFilter::astm_friendly_if(o.astm_friendly);
    let requests = stream(o, schedule, &cfg.mix())?;

    let session = Session::start(o);
    cfg.recorder = session.recorder.clone();
    eprintln!(
        "serving: schedule={} {} requests={}",
        schedule.key(),
        pool_line(&session.backend, &cfg),
        requests.len(),
    );
    let result = service::serve(&session.backend, &session.params, &cfg, &requests);
    print!("{}", result.report.render(false));
    session.finish(o)
}

fn bind(what: &str, addr: &str) -> Result<(TcpListener, std::net::SocketAddr), Failure> {
    let listener =
        TcpListener::bind(addr).map_err(|e| failed(format!("cannot bind {what}{addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| failed(format!("bound socket has no address: {e}")))?;
    Ok((listener, local))
}

/// `net-serve`: the wire-protocol server.
pub(super) fn net_serve(o: &Opts) -> Outcome {
    let (listener, addr) = bind("", o.addr.as_deref().unwrap_or("127.0.0.1:7117"))?;
    let metrics = match &o.metrics {
        Some(addr) => Some(bind("metrics endpoint ", addr)?),
        None => None,
    };
    let session = Session::start(o);
    let workers = o.workers.unwrap_or(2);
    // The schedule is inert: arrivals come off the wire. The report
    // overrides it with `net:<addr>`.
    let inert = Schedule::Closed { clients: workers };
    let mut cfg = pool_config(o, inert, workers);
    cfg.recorder = session.recorder.clone();
    if metrics.is_some() {
        // A metrics endpoint without a sampler would expose frozen
        // gauges; scraping implies windowing at the default cadence.
        cfg.window_ms.get_or_insert(DEFAULT_WINDOW_MS);
    }
    // `metrics on` precedes `listening on`: scripts that break at the
    // readiness line see both addresses once it appears.
    if let Some((_, metrics_addr)) = &metrics {
        eprintln!("metrics on {metrics_addr}");
    }
    // The readiness line the shutdown smoke test (and any script driving
    // `--addr host:0`) parses for the actual port.
    eprintln!("listening on {addr}");
    eprintln!("serving: {}", pool_line(&session.backend, &cfg));
    let metrics = metrics.map(|(listener, _)| listener);
    let result = net::serve_net(&session.backend, &session.params, &cfg, listener, metrics)
        .map_err(|e| failed(format!("server failed: {e}")))?;
    eprintln!("shutdown frame received; queue drained");
    print!("{}", result.report.render(false));
    session.finish(o)
}

/// `net-drive`: the remote load driver.
pub(super) fn net_drive(o: &Opts) -> Outcome {
    let schedule = schedule(o)?;
    let addr = o.addr.as_deref().ok_or(usage("--addr is required"))?;
    let mut cfg = DriveConfig::new(schedule, o.workload(), o.seed());
    cfg.connections = o.connections.unwrap_or(2);
    cfg.inflight = o.inflight;
    cfg.long_traversals = !o.no_traversals;
    cfg.structure_mods = !o.no_sms;
    cfg.filter = OpFilter::astm_friendly_if(o.astm_friendly);
    let requests = stream(o, schedule, &cfg.mix())?;
    eprintln!(
        "driving: schedule={} addr={addr} connections={} requests={}",
        schedule.key(),
        cfg.connections,
        requests.len(),
    );
    let result =
        net::drive(addr, &cfg, &requests).map_err(|e| failed(format!("drive failed: {e}")))?;
    print!("{}", result.report.render(false));
    if o.shutdown {
        net::shutdown(addr).map_err(|e| failed(format!("shutdown not acknowledged: {e}")))?;
        eprintln!("server shutdown acknowledged");
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses a Chrome `trace_event` JSON file written by `--trace` back
/// into a [`Trace`] (the inverse of `chrome_trace_json`).
fn parse_trace_file(text: &str) -> Result<Trace, String> {
    let doc = crate::lab::json::parse(text)?;
    let events = doc.as_array().ok_or("trace is not a JSON array")?;
    let mut trace = Trace::default();
    // Event names come from a small static vocabulary (operation names,
    // lock names), so leaking one copy per distinct name to get
    // back to `&'static str` is bounded.
    let mut names: Vec<&'static str> = Vec::new();
    for ev in events {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("event without a name")?;
        let args = ev.get("args");
        if name == "trace_dropped" {
            trace.dropped = args
                .and_then(|a| a.get("dropped"))
                .and_then(|d| d.as_u64())
                .unwrap_or(0);
            continue;
        }
        let Some(layer) = ev
            .get("cat")
            .and_then(|v| v.as_str())
            .and_then(Layer::parse)
        else {
            continue; // foreign category; not one of ours
        };
        let kind = args
            .and_then(|a| a.get("kind"))
            .and_then(|k| k.as_str())
            .and_then(EventKind::parse)
            .ok_or_else(|| format!("event '{name}' has no recognizable kind"))?;
        let static_name = match names.iter().find(|n| **n == name) {
            Some(n) => *n,
            None => {
                let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
                names.push(leaked);
                leaked
            }
        };
        let micros = |key: &str| {
            ev.get(key)
                .and_then(|v| v.as_f64())
                .map_or(0, |us| (us * 1_000.0).round() as u64)
        };
        trace.events.push(Event {
            layer,
            kind,
            name: static_name,
            t_ns: micros("ts"),
            dur_ns: micros("dur"),
            arg: args
                .and_then(|a| a.get("arg"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            tid: ev.get("tid").and_then(|v| v.as_u64()).unwrap_or(0) as u32,
        });
    }
    Ok(trace)
}

/// `trace-summary`: aggregate a recorded trace.
pub(super) fn trace_summary(o: &Opts) -> Outcome {
    let path = o.operand.as_ref().ok_or(usage("expected a trace file"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    let trace = parse_trace_file(&text).map_err(|e| failed(format!("{path}: {e}")))?;
    print!("{}", summarize(&trace));
    if let Some(n) = o.top {
        println!();
        print!("{}", top_spans(&trace, n));
    }
    Ok(ExitCode::SUCCESS)
}
