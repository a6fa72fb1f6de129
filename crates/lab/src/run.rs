//! The spec runner: executes every cell of an [`ExperimentSpec`] —
//! warmup, then `repetitions` measured runs, each on a freshly built
//! structure — and aggregates the repetitions into a [`SpecResult`] that
//! serializes to the versioned `results/BENCH_<spec>.json` document.

use stmbench7_backend::AnyBackend;
use stmbench7_core::{run_benchmark, JsonValue, Report, ServiceStats, Timeseries};
use stmbench7_data::Workspace;
use stmbench7_obs::{ContentionSnapshot, Recorder, Trace};

use crate::spec::{Cell, ExperimentSpec};
use crate::stats::Summary;

/// The version tag every results document leads with; bump on any
/// incompatible schema change. Readers accept this version only: a
/// document of another version is re-run, never read.
pub const FORMAT: &str = "stmbench7-lab/7";

/// Checks that `doc` is a results document this crate can read, i.e.
/// one whose `format` is [`FORMAT`].
pub fn check_format(doc: &JsonValue) -> Result<(), String> {
    match doc.get("format").and_then(JsonValue::as_str) {
        Some(FORMAT) => Ok(()),
        Some(other) => Err(format!(
            "unsupported results format {other:?} (expected {FORMAT:?})"
        )),
        None => Err("document has no \"format\" field".to_string()),
    }
}

/// One measured repetition, condensed.
#[derive(Clone, Copy, Debug)]
pub struct RepResult {
    pub elapsed_s: f64,
    pub completed: u64,
    pub failed: u64,
    pub throughput: f64,
    pub attempted: f64,
    pub abort_ratio: f64,
}

impl RepResult {
    fn from_report(report: &Report) -> RepResult {
        RepResult {
            elapsed_s: report.elapsed.as_secs_f64(),
            completed: report.total_completed(),
            failed: report.total_failed(),
            throughput: report.throughput(),
            attempted: report.throughput_attempted(),
            abort_ratio: report.stm.as_ref().map_or(0.0, |s| s.abort_ratio()),
        }
    }
}

/// Aggregated measurements of one cell across its repetitions.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub cell: Cell,
    /// The backend's self-reported name (may be finer-grained than the
    /// cell key, e.g. contention-manager variants).
    pub backend_label: String,
    /// Successful / benignly failed operations, summed over repetitions.
    pub completed: u64,
    pub failed: u64,
    /// STM commits and aborts summed over repetitions (0 for locks).
    pub commits: u64,
    pub aborts: u64,
    pub throughput: Summary,
    pub attempted: Summary,
    /// `(category name, completed, failed, max_ms)` rollups, summed over
    /// repetitions (max_ms is the max across them).
    pub categories: Vec<(String, u64, u64, f64)>,
    pub reps: Vec<RepResult>,
    /// Latency decomposition, present for service cells: the
    /// repetitions' [`ServiceStats`] merged (see [`ServiceStats::merge`];
    /// net cells carry the client side, `network` lane included).
    pub service: Option<ServiceStats>,
    /// Always-on contention counters summed over repetitions (`None`
    /// for backends that keep none).
    pub contention: Option<ContentionSnapshot>,
    /// The lifecycle trace of a traced cell (all repetitions merged);
    /// written to a per-cell file by the CLI, never embedded in the
    /// results document.
    pub trace: Option<Trace>,
    /// Flight-recorder window series, one per repetition that produced
    /// one (empty for unwindowed cells). Unlike `trace`, these ARE
    /// embedded in the results document — they are what the windowed
    /// SLO gate reads.
    pub timeseries: Vec<Timeseries>,
}

/// The keys of a cell's `service` object, in document order: the
/// rep-merged [`ServiceStats`] minus its per-run header (schedule,
/// workers, queue cap, batch size, per-worker busy time).
const CELL_SERVICE_KEYS: [&str; 16] = [
    "offered",
    "rejected",
    "affinity",
    "reconnects",
    "busy_ns",
    "idle_ns",
    "trace_dropped",
    "batches",
    "write_batches",
    "max_write_batch",
    "steals",
    "queue_wait_us",
    "service_time_us",
    "e2e_us",
    "network_us",
    "categories",
];

fn cell_service_json(svc: &ServiceStats) -> JsonValue {
    let full = svc.to_json_value();
    JsonValue::obj(
        CELL_SERVICE_KEYS
            .iter()
            .map(|key| {
                let value = full.get(key).expect("ServiceStats serializes every key");
                (*key, value.clone())
            })
            .collect(),
    )
}

impl CellResult {
    /// Aborts per commit over all repetitions.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    fn to_json(&self) -> JsonValue {
        let categories = self
            .categories
            .iter()
            .map(|(name, completed, failed, max_ms)| {
                (
                    name.clone(),
                    JsonValue::obj(vec![
                        ("completed", JsonValue::num(*completed as f64)),
                        ("failed", JsonValue::num(*failed as f64)),
                        ("max_ms", JsonValue::num(*max_ms)),
                    ]),
                )
            })
            .collect();
        let reps = self
            .reps
            .iter()
            .map(|r| {
                JsonValue::obj(vec![
                    ("elapsed_s", JsonValue::num(r.elapsed_s)),
                    ("completed", JsonValue::num(r.completed as f64)),
                    ("failed", JsonValue::num(r.failed as f64)),
                    ("throughput", JsonValue::num(r.throughput)),
                    ("attempted", JsonValue::num(r.attempted)),
                    ("abort_ratio", JsonValue::num(r.abort_ratio)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("key", JsonValue::str(self.cell.key())),
            ("backend", JsonValue::str(self.cell.backend.key())),
            ("backend_label", JsonValue::str(&self.backend_label)),
            ("workload", JsonValue::str(self.cell.workload_key())),
            ("threads", JsonValue::num(self.cell.threads as f64)),
            (
                // Additive (readers match cells by key): the shard-count
                // axis, null when the cell inherits the preset's.
                "shards",
                match self.cell.shards {
                    None => JsonValue::Null,
                    Some(n) => JsonValue::num(n as f64),
                },
            ),
            (
                "long_traversals",
                JsonValue::Bool(self.cell.long_traversals),
            ),
            ("structure_mods", JsonValue::Bool(self.cell.structure_mods)),
            ("astm_friendly", JsonValue::Bool(self.cell.astm_friendly)),
            ("completed", JsonValue::num(self.completed as f64)),
            ("failed", JsonValue::num(self.failed as f64)),
            ("commits", JsonValue::num(self.commits as f64)),
            ("aborts", JsonValue::num(self.aborts as f64)),
            ("abort_ratio", JsonValue::num(self.abort_ratio())),
            ("throughput", self.throughput.to_json()),
            ("attempted", self.attempted.to_json()),
            ("categories", JsonValue::Obj(categories)),
            ("reps", JsonValue::Arr(reps)),
            (
                "contention",
                match &self.contention {
                    None => JsonValue::Null,
                    Some(c) => JsonValue::obj(vec![
                        ("lock_acquires", JsonValue::num(c.lock_acquires as f64)),
                        ("lock_contended", JsonValue::num(c.lock_contended as f64)),
                        ("lock_wait_ns", JsonValue::num(c.lock_wait_ns as f64)),
                        ("cas_retries", JsonValue::num(c.cas_retries as f64)),
                        ("shard_conflicts", JsonValue::num(c.shard_conflicts as f64)),
                        ("contention_ratio", JsonValue::num(c.contention_ratio())),
                    ]),
                },
            ),
            (
                "service",
                match &self.service {
                    None => JsonValue::Null,
                    Some(svc) => cell_service_json(svc),
                },
            ),
            (
                "timeseries",
                if self.timeseries.is_empty() {
                    JsonValue::Null
                } else {
                    JsonValue::Arr(
                        self.timeseries
                            .iter()
                            .map(Timeseries::to_json_value)
                            .collect(),
                    )
                },
            ),
            (
                "slo",
                match &self.cell.slo {
                    None => JsonValue::Null,
                    Some(slo) => JsonValue::obj(vec![
                        ("p99_us", JsonValue::num(slo.p99_us as f64)),
                        (
                            "max_violation_windows",
                            JsonValue::num(slo.max_violation_windows as f64),
                        ),
                    ]),
                },
            ),
        ])
    }
}

/// The verdict of one cell's windowed SLO: how many windows breached the
/// per-window p99 bound, across every repetition's series.
#[derive(Clone, Debug)]
pub struct SloCheck {
    /// The cell's key.
    pub key: String,
    /// The declared objective.
    pub slo: crate::spec::Slo,
    /// Windows with at least one latency sample, across repetitions.
    pub windows: u64,
    /// Sampled windows whose p99 exceeded the bound.
    pub violations: u64,
    /// Worst per-window p99 observed, in microseconds.
    pub worst_p99_us: u64,
    /// The run's aggregate p99 (µs) over the `e2e` lane, when the cell
    /// kept one — shown so a failure report can say "aggregate fine,
    /// windows not".
    pub aggregate_p99_us: Option<u64>,
}

impl SloCheck {
    /// True when the cell met its objective. A cell that sampled no
    /// window (an SLO without `window_ms`) fails: its objective was
    /// never checked.
    pub fn pass(&self) -> bool {
        self.windows > 0 && self.violations <= self.slo.max_violation_windows
    }
}

/// Evaluates every cell that declares a windowed SLO against its own
/// flight-recorder series. Cells without an SLO are skipped.
pub fn check_slos(result: &SpecResult) -> Vec<SloCheck> {
    result
        .cells
        .iter()
        .filter_map(|cell| {
            let slo = cell.cell.slo?;
            let mut windows = 0u64;
            let mut violations = 0u64;
            let mut worst = 0u64;
            for window in cell.timeseries.iter().flat_map(|ts| &ts.windows) {
                if window.latency.samples == 0 {
                    continue;
                }
                windows += 1;
                worst = worst.max(window.latency.p99_us);
                if window.latency.p99_us > slo.p99_us {
                    violations += 1;
                }
            }
            Some(SloCheck {
                key: cell.cell.key(),
                slo,
                windows,
                violations,
                worst_p99_us: worst,
                aggregate_p99_us: cell
                    .service
                    .as_ref()
                    .and_then(|s| s.e2e.percentile_us(99.0)),
            })
        })
        .collect()
}

/// A completed spec run: protocol echo plus one [`CellResult`] per cell.
#[derive(Clone, Debug)]
pub struct SpecResult {
    pub spec_name: String,
    pub description: String,
    pub preset: String,
    pub secs_per_cell: f64,
    pub warmup_secs: f64,
    pub repetitions: u32,
    pub seed: u64,
    pub cells: Vec<CellResult>,
}

impl SpecResult {
    /// The versioned results document written to `results/BENCH_*.json`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("format", JsonValue::str(FORMAT)),
            ("spec", JsonValue::str(&self.spec_name)),
            ("description", JsonValue::str(&self.description)),
            ("preset", JsonValue::str(&self.preset)),
            ("secs_per_cell", JsonValue::num(self.secs_per_cell)),
            ("warmup_secs", JsonValue::num(self.warmup_secs)),
            ("repetitions", JsonValue::num(f64::from(self.repetitions))),
            // Seeds are 64-bit identifiers, not quantities: a decimal
            // string survives the f64 number path exactly.
            ("seed", JsonValue::str(self.seed.to_string())),
            (
                "cells",
                JsonValue::Arr(self.cells.iter().map(CellResult::to_json).collect()),
            ),
        ])
    }
}

/// Runs every cell of the spec. `progress` receives one line per
/// completed cell (empty closure to run silently).
pub fn run_spec(spec: &ExperimentSpec, mut progress: impl FnMut(&str)) -> SpecResult {
    let mut cells = Vec::with_capacity(spec.cells.len());
    for (i, cell) in spec.cells.iter().enumerate() {
        let result = run_one_cell(spec, cell);
        progress(&format!(
            "[{}/{}] {:<32} median {:>9.1} op/s  (min {:.1}, max {:.1}, aborts/commit {:.3})",
            i + 1,
            spec.cells.len(),
            result.cell.key(),
            result.throughput.median,
            result.throughput.min,
            result.throughput.max,
            result.abort_ratio(),
        ));
        cells.push(result);
    }
    SpecResult {
        spec_name: spec.name.clone(),
        description: spec.description.clone(),
        preset: spec.params.preset_name().unwrap_or("custom").to_string(),
        secs_per_cell: spec.secs_per_cell,
        warmup_secs: spec.warmup_secs,
        repetitions: spec.repetitions,
        seed: spec.seed,
        cells,
    }
}

fn run_one_cell(spec: &ExperimentSpec, cell: &Cell) -> CellResult {
    // The cell may override the preset's shard count (the sharding axis).
    let params = cell.params(&spec.params);
    // One recorder for the whole cell: repetitions accumulate into the
    // same trace, which the CLI writes to one file per cell.
    let recorder = if cell.trace {
        Recorder::enabled()
    } else {
        Recorder::off()
    };
    let mut reports: Vec<Report> = Vec::with_capacity(spec.repetitions as usize);
    for rep in 0..spec.repetitions.max(1) {
        let ws = Workspace::build(params.clone(), spec.seed);
        let backend = AnyBackend::build_traced(cell.backend, ws, recorder.clone());
        if spec.warmup_secs > 0.0 {
            // Discarded warmup on this repetition's fresh structure:
            // fills caches and pre-faults the heap before measurement.
            // Service cells warm up closed-loop too — the structure and
            // code paths are shared; only the driving differs.
            let cfg = spec.bench_config(cell, spec.warmup_secs, u32::MAX);
            let _ = run_benchmark(&backend, &params, &cfg);
        }
        let seed = spec.seed.wrapping_add(u64::from(rep));
        if let Some((mut server_cfg, drive_cfg)) = cell.net_configs(seed) {
            server_cfg.recorder = recorder.clone();
            // Net cell: this backend behind a real (loopback) socket on
            // an ephemeral port, measured from the client side.
            let plan = cell.net.as_ref().expect("net_configs implies plan");
            if plan.idle_conns > 0 {
                // The herd needs file descriptors on both ends of the
                // loopback plus headroom for the hot subset; CI runners
                // default to a 1024 soft limit.
                let want = (plan.idle_conns * 2 + plan.connections * 2 + 512) as u64;
                stmbench7_poll::raise_nofile_limit(want).expect("raise RLIMIT_NOFILE");
            }
            let requests = drive_cfg.generate(plan.requests);
            let listener =
                std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral loopback port");
            let addr = listener.local_addr().expect("bound socket has an address");
            let client = std::thread::scope(|scope| {
                let backend = &backend;
                let params = &params;
                let server_cfg = &server_cfg;
                let server = scope.spawn(move || {
                    stmbench7_net::serve_net(backend, params, server_cfg, listener, None)
                });
                // The c10k axis: open the idle herd first and hold it for
                // the whole drive — the event loop must carry these
                // connections (registered, never speaking) without
                // spawning threads or starving the hot subset.
                let idle: Vec<std::net::TcpStream> = (0..plan.idle_conns)
                    .map(|_| std::net::TcpStream::connect(addr).expect("idle connection"))
                    .collect();
                // Shut the server down even when the drive failed —
                // panicking first would leave the scope joining a server
                // blocked in accept(), hanging the run instead of
                // reporting the error.
                let client = stmbench7_net::drive(addr, &drive_cfg, &requests);
                drop(idle); // hang up the herd before the shutdown drain
                let shutdown = stmbench7_net::shutdown(addr);
                server
                    .join()
                    .expect("net cell server panicked")
                    .expect("net cell server exits cleanly");
                let client = client.expect("net cell drive");
                shutdown.expect("net cell shutdown");
                client
            });
            reports.push(client.report);
            continue;
        }
        match cell.serve_config(seed) {
            Some(mut serve_cfg) => {
                serve_cfg.recorder = recorder.clone();
                let plan = cell.service.as_ref().expect("serve_config implies plan");
                let requests = serve_cfg.generate(plan.requests);
                let result = stmbench7_service::serve(&backend, &params, &serve_cfg, &requests);
                reports.push(result.report);
            }
            None => {
                let mut cfg = spec.bench_config(cell, spec.secs_per_cell, rep);
                cfg.recorder = recorder.clone();
                reports.push(run_benchmark(&backend, &params, &cfg));
            }
        }
    }
    // Every backend (including the RCL server thread, whose ring flushes
    // at backend drop) is gone by now, so the trace is complete.
    let trace = cell.trace.then(|| recorder.take_trace());
    aggregate(cell, &reports, trace)
}

fn aggregate(cell: &Cell, reports: &[Report], trace: Option<Trace>) -> CellResult {
    let throughputs: Vec<f64> = reports.iter().map(Report::throughput).collect();
    let attempted: Vec<f64> = reports.iter().map(Report::throughput_attempted).collect();
    let mut categories: Vec<(String, u64, u64, f64)> = Vec::new();
    for cat in stmbench7_core::Category::all() {
        let mut completed = 0;
        let mut failed = 0;
        let mut max_ms = 0.0f64;
        for r in reports {
            let (c, f, m) = r.category_rollup(cat);
            completed += c;
            failed += f;
            max_ms = max_ms.max(m);
        }
        categories.push((cat.name().to_string(), completed, failed, max_ms));
    }
    // A service aggregate only when every repetition was served.
    let service = reports
        .iter()
        .map(|r| r.service.as_ref())
        .collect::<Option<Vec<_>>>()
        .and_then(|reps| {
            let (first, rest) = reps.split_first()?;
            let mut merged = (*first).clone();
            for svc in rest {
                merged.merge(svc);
            }
            Some(merged)
        });
    CellResult {
        cell: cell.clone(),
        backend_label: reports
            .first()
            .map_or_else(String::new, |r| r.backend.clone()),
        completed: reports.iter().map(Report::total_completed).sum(),
        failed: reports.iter().map(Report::total_failed).sum(),
        commits: reports
            .iter()
            .filter_map(|r| r.stm.as_ref())
            .map(|s| s.commits)
            .sum(),
        aborts: reports
            .iter()
            .filter_map(|r| r.stm.as_ref())
            .map(|s| s.aborts)
            .sum(),
        throughput: Summary::from_samples(&throughputs).expect("at least one repetition"),
        attempted: Summary::from_samples(&attempted).expect("at least one repetition"),
        categories,
        reps: reports.iter().map(RepResult::from_report).collect(),
        service,
        contention: reports.iter().filter_map(|r| r.contention.as_ref()).fold(
            None,
            |acc: Option<ContentionSnapshot>, c| {
                Some(match acc {
                    None => *c,
                    Some(sum) => sum.merge(c),
                })
            },
        ),
        trace,
        timeseries: reports
            .iter()
            .filter_map(|r| r.timeseries.clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::grid;
    use stmbench7_backend::BackendChoice;
    use stmbench7_core::WorkloadType;
    use stmbench7_data::StructureParams;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "unit".into(),
            description: "unit-test spec".into(),
            params: StructureParams::tiny(),
            secs_per_cell: 0.03,
            warmup_secs: 0.01,
            repetitions: 2,
            seed: 7,
            cells: grid(
                &[BackendChoice::Coarse],
                &[WorkloadType::ReadWrite],
                &[1],
                true,
                true,
                false,
            ),
        }
    }

    #[test]
    fn run_spec_aggregates_repetitions() {
        let spec = tiny_spec();
        let mut lines = Vec::new();
        let result = run_spec(&spec, |l| lines.push(l.to_string()));
        assert_eq!(result.cells.len(), 1);
        assert_eq!(lines.len(), 1);
        let cell = &result.cells[0];
        assert_eq!(cell.reps.len(), 2);
        assert!(cell.completed > 0);
        assert!(cell.throughput.min <= cell.throughput.median);
        assert!(cell.throughput.median <= cell.throughput.max);
        assert_eq!(cell.backend_label, "coarse");
        // Category rollups sum to the cell totals.
        let cat_completed: u64 = cell.categories.iter().map(|(_, c, _, _)| c).sum();
        assert_eq!(cat_completed, cell.completed);
    }

    #[test]
    fn service_cells_run_and_serialize_their_latency_split() {
        use crate::spec::ServicePlan;
        use stmbench7_service::Schedule;

        let mut spec = tiny_spec();
        spec.cells[0].service = Some(ServicePlan::open_loop(
            Schedule::Open { rate: 100_000.0 },
            64,
            300,
        ));
        let result = run_spec(&spec, |_| {});
        let cell = &result.cells[0];
        let agg = cell.service.as_ref().expect("service aggregation");
        assert_eq!(agg.offered, 600, "300 requests × 2 repetitions");
        assert_eq!(agg.rejected, 0, "blocking admission loses nothing");
        assert_eq!(agg.queue_wait.samples(), 600);
        assert_eq!(agg.service_time.samples(), 600);
        assert_eq!(cell.completed + cell.failed, 600);

        let doc = result.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(
            json_cell.get("key").and_then(JsonValue::as_str),
            Some("coarse/rw/1t/open100000/q64")
        );
        let svc = json_cell.get("service").expect("service object");
        assert_eq!(svc.get("offered").and_then(JsonValue::as_u64), Some(600));
        let JsonValue::Obj(pairs) = svc else {
            panic!("service is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "offered",
                "rejected",
                "affinity",
                "reconnects",
                "busy_ns",
                "idle_ns",
                "trace_dropped",
                "batches",
                "write_batches",
                "max_write_batch",
                "steals",
                "queue_wait_us",
                "service_time_us",
                "e2e_us",
                "network_us",
                "categories",
            ],
            "the stmbench7-lab/7 cell service schema"
        );
        for key in ["queue_wait_us", "service_time_us", "e2e_us"] {
            assert!(
                svc.get(key).and_then(|l| l.get("p99")).is_some(),
                "missing {key}.p99"
            );
        }
    }

    #[test]
    fn closed_loop_cells_serialize_a_null_service() {
        let result = run_spec(&tiny_spec(), |_| {});
        assert!(result.cells[0].service.is_none());
        let doc = result.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(json_cell.get("service"), Some(&JsonValue::Null));
    }

    #[test]
    fn net_cells_run_over_loopback_and_serialize_the_network_lane() {
        use crate::spec::NetPlan;
        use stmbench7_service::Schedule;

        let mut spec = tiny_spec();
        spec.repetitions = 2;
        spec.cells[0].net = Some(NetPlan::hot(Schedule::Open { rate: 100_000.0 }, 64, 2, 200));
        let result = run_spec(&spec, |_| {});
        let cell = &result.cells[0];
        let agg = cell
            .service
            .as_ref()
            .expect("net cells aggregate service stats");
        assert_eq!(agg.offered, 400, "200 requests × 2 repetitions");
        assert_eq!(agg.queue_wait.samples(), 400);
        let network = agg.network.as_ref().expect("net cells have a network lane");
        assert_eq!(network.samples(), 400);
        let per_cat: u64 = agg
            .per_category
            .iter()
            .map(|c| c.queue_wait.samples())
            .sum();
        assert_eq!(per_cat, 400);

        let doc = result.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(
            json_cell.get("key").and_then(JsonValue::as_str),
            Some("coarse/rw/1t/open100000/q64/net2c")
        );
        let svc = json_cell.get("service").expect("service object");
        let net = svc.get("network_us").expect("network lane serialized");
        assert_eq!(net.get("samples").and_then(JsonValue::as_u64), Some(400));
        assert!(
            svc.get("categories")
                .and_then(|c| c.get("short operations"))
                .is_some(),
            "category split serialized"
        );
    }

    #[test]
    fn service_cells_serialize_a_null_network_lane() {
        use crate::spec::ServicePlan;
        use stmbench7_service::Schedule;

        let mut spec = tiny_spec();
        spec.cells[0].service = Some(ServicePlan::open_loop(
            Schedule::Open { rate: 100_000.0 },
            64,
            150,
        ));
        let result = run_spec(&spec, |_| {});
        assert!(result.cells[0].service.as_ref().unwrap().network.is_none());
        let doc = result.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(
            json_cell.get("service").unwrap().get("network_us"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn windowed_service_cells_embed_their_timeseries_and_the_slo_gate_reads_it() {
        use crate::spec::{ServicePlan, Slo};
        use stmbench7_service::Schedule;

        let mut spec = tiny_spec();
        spec.repetitions = 1;
        spec.cells[0].service = Some(ServicePlan::open_loop(
            Schedule::Open { rate: 100_000.0 },
            64,
            400,
        ));
        spec.cells[0].window_ms = Some(1);
        // An objective nothing real can meet: every sampled window
        // violates, so the gate must fail the cell …
        spec.cells[0].slo = Some(Slo {
            p99_us: 0,
            max_violation_windows: 0,
        });
        let result = run_spec(&spec, |_| {});
        let cell = &result.cells[0];
        assert_eq!(cell.timeseries.len(), 1, "one series per repetition");
        let ts = &cell.timeseries[0];
        assert_eq!(ts.window_ms, 1);
        let completed: u64 = ts.windows.iter().map(|w| w.completed).sum();
        assert_eq!(completed, 400);

        let checks = check_slos(&result);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].violations > 0);
        assert!(!checks[0].pass());
        assert!(checks[0].worst_p99_us > 0);

        // … while an unreachable bound passes.
        let mut relaxed = result.clone();
        relaxed.cells[0].cell.slo = Some(Slo {
            p99_us: u64::MAX,
            max_violation_windows: 0,
        });
        let checks = check_slos(&relaxed);
        assert!(checks[0].pass());

        // The document embeds the series and echoes the objective.
        let doc = result.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        let series = json_cell
            .get("timeseries")
            .and_then(JsonValue::as_array)
            .expect("timeseries array");
        assert_eq!(series.len(), 1);
        assert_eq!(
            series[0].get("window_ms").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert!(series[0]
            .get("windows")
            .and_then(JsonValue::as_array)
            .is_some_and(|w| !w.is_empty()));
        assert_eq!(
            json_cell
                .get("slo")
                .and_then(|s| s.get("max_violation_windows"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
        // Unwindowed cells stay null.
        let plain = run_spec(&tiny_spec(), |_| {});
        let doc = plain.to_json();
        let json_cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(json_cell.get("timeseries"), Some(&JsonValue::Null));
        assert_eq!(json_cell.get("slo"), Some(&JsonValue::Null));
    }

    #[test]
    fn an_slo_without_sampled_windows_fails() {
        use crate::spec::Slo;

        let mut spec = tiny_spec();
        spec.repetitions = 1;
        spec.cells[0].window_ms = None;
        spec.cells[0].slo = Some(Slo {
            p99_us: u64::MAX,
            max_violation_windows: u64::MAX,
        });
        let checks = check_slos(&run_spec(&spec, |_| {}));
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].windows, 0);
        assert!(!checks[0].pass(), "an unchecked objective must not pass");
    }

    #[test]
    fn results_document_is_versioned_and_parseable() {
        let spec = tiny_spec();
        let result = run_spec(&spec, |_| {});
        let doc = result.to_json();
        assert_eq!(doc.get("format").and_then(JsonValue::as_str), Some(FORMAT));
        assert_eq!(doc.get("preset").and_then(JsonValue::as_str), Some("tiny"));
        let text = doc.render();
        let back = crate::json::parse(&text).expect("own output must parse");
        let cells = back.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("key").and_then(JsonValue::as_str),
            Some("coarse/rw/1t")
        );
        assert_eq!(
            cells[0].get("completed").and_then(JsonValue::as_u64),
            Some(result.cells[0].completed)
        );
    }
}
