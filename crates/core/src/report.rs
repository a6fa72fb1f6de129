//! Benchmark output, mirroring the paper's Appendix A.1 sections:
//! benchmark parameters, optional TTC histograms, detailed per-operation
//! results, sample errors, and summary results (per-category rollups,
//! total errors, throughput, elapsed time).

use std::fmt::Write as _;
use std::time::Duration;

use stmbench7_obs::{ContentionSnapshot, WindowSample};
use stmbench7_stm::StatsSnapshot;

use crate::histogram::Histogram;
use crate::json::JsonValue;
use crate::ops::{Category, OpKind};
use crate::workload::WorkloadType;

/// Merged measurements for one operation.
#[derive(Clone, Debug)]
pub struct OpReport {
    /// Which operation this row measures.
    pub op: OpKind,
    /// The configured ratio `C_T`.
    pub expected_ratio: f64,
    /// Successful executions.
    pub completed: u64,
    /// Benign failures (e.g. a drawn id that no longer exists).
    pub failed: u64,
    /// Aborted-and-retried execution attempts (attempts beyond the
    /// first; STM conflicts, lock-plan re-executions).
    pub aborts: u64,
    /// Slowest single execution, nanoseconds.
    pub max_ns: u64,
    /// Total time spent in this operation, nanoseconds.
    pub sum_ns: u64,
    /// TTC histogram (populated when `--ttc-histograms` is on).
    pub hist: Histogram,
}

impl OpReport {
    /// A zeroed row for one operation; harnesses (the engine, the service
    /// layer) fill it by merging per-thread measurements.
    pub fn empty(op: OpKind, expected_ratio: f64) -> Self {
        OpReport {
            op,
            expected_ratio,
            completed: 0,
            failed: 0,
            aborts: 0,
            max_ns: 0,
            sum_ns: 0,
            hist: Histogram::new(),
        }
    }

    /// Counts one answered execution: a completion (`done`) with its
    /// latency, or a benign failure. The TTC histogram is fed only when
    /// `histogram` is set.
    #[inline]
    pub fn record(&mut self, done: bool, latency_ns: u64, histogram: bool) {
        if done {
            self.completed += 1;
            self.max_ns = self.max_ns.max(latency_ns);
            self.sum_ns += latency_ns;
            if histogram {
                self.hist.record(latency_ns);
            }
        } else {
            self.failed += 1;
        }
    }

    /// Folds another thread's row for the same operation in.
    pub fn merge(&mut self, other: &OpReport) {
        debug_assert_eq!(self.op, other.op, "rows of different operations");
        self.completed += other.completed;
        self.failed += other.failed;
        self.aborts += other.aborts;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns += other.sum_ns;
        self.hist.merge(&other.hist);
    }

    /// Operations started (completed or failed).
    pub fn started(&self) -> u64 {
        self.completed + self.failed
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }

    /// Mean latency over completed executions, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.completed as f64 / 1e6
        }
    }

    /// The p-th latency percentile in milliseconds, from the TTC
    /// histogram (1 ms resolution; `None` without histogram samples).
    pub fn percentile_ms(&self, p: f64) -> Option<u64> {
        self.hist.percentile(p)
    }
}

/// Per-operation sample errors (Appendix A.1, "Sample errors").
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleError {
    /// Ratio computed from the input parameters.
    pub c: f64,
    /// Ratio of successful executions to all successful operations.
    pub r: f64,
    /// `E_T = |C_T - R_T|`.
    pub e: f64,
    /// Ratio of successful *and failed* executions to all successful
    /// operations.
    pub a: f64,
    /// `F_T = |A_T - R_T|`.
    pub f: f64,
}

/// Queue-wait and service-time lanes for one operation category — the
/// per-category latency split of a service run. Long traversals, short
/// traversals, short operations and structure modifications have latency
/// distributions orders of magnitude apart; folding them into one
/// histogram hides which class a tail belongs to.
#[derive(Clone, Debug)]
pub struct CategoryLatency {
    /// Which of the four categories this row covers.
    pub category: Category,
    /// Scheduled arrival → execution start for this category's requests
    /// (microsecond resolution).
    pub queue_wait: Histogram,
    /// Execution start → completion for this category's requests
    /// (microsecond resolution).
    pub service_time: Histogram,
}

impl CategoryLatency {
    /// An empty split for one category.
    pub fn empty(category: Category) -> Self {
        CategoryLatency {
            category,
            queue_wait: Histogram::micros(),
            service_time: Histogram::micros(),
        }
    }

    /// One empty split per category, in [`Category::all`] order — the
    /// shape every harness fills and merges positionally.
    pub fn all_empty() -> Vec<CategoryLatency> {
        Category::all().into_iter().map(Self::empty).collect()
    }

    /// Folds another split of the same category in (thread merge).
    pub fn merge(&mut self, other: &CategoryLatency) {
        assert_eq!(
            self.category, other.category,
            "cannot merge latency splits of different categories"
        );
        self.queue_wait.merge(&other.queue_wait);
        self.service_time.merge(&other.service_time);
    }
}

/// Measurements specific to a service-layer run (`stmbench7 serve`):
/// the offered-load accounting and the per-request latency decomposition
/// the closed-loop engine cannot express.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// The arrival schedule's stable key (e.g. `open2000`).
    pub schedule: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bound of the request queue.
    pub queue_cap: usize,
    /// Maximum batch size (1 = batching off).
    pub batch_max: usize,
    /// Worker-affinity routing key (`none` or `shard`).
    pub affinity: String,
    /// Requests offered by the arrival schedule.
    pub offered: u64,
    /// Requests dropped by reject-on-full admission control.
    pub rejected: u64,
    /// Broken connections the remote driver re-established mid-drive
    /// (0 for in-process service runs, which have no transport to lose).
    pub reconnects: u64,
    /// Total worker time spent executing batches, summed over workers.
    pub busy_ns: u64,
    /// Total worker time spent waiting for work, summed over workers.
    pub idle_ns: u64,
    /// Busy time attributed per worker, in worker order. Work executes
    /// on the worker that *drains* it: a batch stolen from worker A's
    /// sub-queue counts toward the thief's entry, not A's — so under
    /// shard affinity this vector shows who actually carried the load.
    pub worker_busy_ns: Vec<u64>,
    /// Trace events dropped by full per-thread rings during the run
    /// (0 when tracing is off).
    pub trace_dropped: u64,
    /// Backend executions (batching folds several requests into one).
    pub batches: u64,
    /// Multi-request batches that carried at least one writing request
    /// (group commit; 0 when batching is off or write-free).
    pub write_batches: u64,
    /// Largest group-committed write batch observed (requests).
    pub max_write_batch: u64,
    /// Requests taken from another worker's sub-queue under shard
    /// affinity (0 when affinity is off).
    pub steals: u64,
    /// Scheduled arrival → execution start, per admitted request
    /// (microsecond resolution).
    pub queue_wait: Histogram,
    /// Execution start → completion, per admitted request (microsecond
    /// resolution; batched requests share their batch's service time).
    pub service_time: Histogram,
    /// Scheduled arrival → completion, per admitted request (microsecond
    /// resolution).
    pub e2e: Histogram,
    /// Client-measured transport overhead of a remote run: network round
    /// trip minus the server-reported queue+service time (microsecond
    /// resolution). `None` for in-process service runs, which have no
    /// wire to cross.
    pub network: Option<Histogram>,
    /// The queue-wait/service-time split per operation category (one
    /// entry per [`Category`], in [`Category::all`] order; categories the
    /// run never drew hold empty histograms).
    pub per_category: Vec<CategoryLatency>,
}

/// An empty ledger: zero counters, empty microsecond lanes, no network
/// lane, one empty split per category. Harnesses fill in the header
/// fields (schedule, workers, queue cap, batch, affinity).
impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            schedule: String::new(),
            workers: 0,
            queue_cap: 0,
            batch_max: 1,
            affinity: String::new(),
            offered: 0,
            rejected: 0,
            reconnects: 0,
            busy_ns: 0,
            idle_ns: 0,
            worker_busy_ns: Vec::new(),
            trace_dropped: 0,
            batches: 0,
            write_batches: 0,
            max_write_batch: 0,
            steals: 0,
            queue_wait: Histogram::micros(),
            service_time: Histogram::micros(),
            e2e: Histogram::micros(),
            network: None,
            per_category: CategoryLatency::all_empty(),
        }
    }
}

impl ServiceStats {
    /// Counts one answered request's latency split into the aggregate
    /// lanes and its category's lanes.
    #[inline]
    pub fn record(&mut self, category: Category, queue_ns: u64, service_ns: u64, e2e_ns: u64) {
        self.queue_wait.record(queue_ns);
        self.service_time.record(service_ns);
        self.e2e.record(e2e_ns);
        let cat = &mut self.per_category[category.index()];
        cat.queue_wait.record(queue_ns);
        cat.service_time.record(service_ns);
    }

    /// Folds another thread's or repetition's stats in. Counters sum;
    /// `max_write_batch` takes the max, and so does `trace_dropped`: the
    /// repetitions of a lab cell share one recorder, so each value is
    /// already cumulative. `network` is kept when either side carries
    /// one, `per_category` merges positionally and `worker_busy_ns`
    /// element-wise. The header fields keep `self`'s values.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.offered += other.offered;
        self.rejected += other.rejected;
        self.reconnects += other.reconnects;
        self.busy_ns += other.busy_ns;
        self.idle_ns += other.idle_ns;
        if self.worker_busy_ns.len() < other.worker_busy_ns.len() {
            self.worker_busy_ns.resize(other.worker_busy_ns.len(), 0);
        }
        for (mine, theirs) in self.worker_busy_ns.iter_mut().zip(&other.worker_busy_ns) {
            *mine += theirs;
        }
        self.trace_dropped = self.trace_dropped.max(other.trace_dropped);
        self.batches += other.batches;
        self.write_batches += other.write_batches;
        self.max_write_batch = self.max_write_batch.max(other.max_write_batch);
        self.steals += other.steals;
        self.queue_wait.merge(&other.queue_wait);
        self.service_time.merge(&other.service_time);
        self.e2e.merge(&other.e2e);
        if let Some(network) = &other.network {
            self.network
                .get_or_insert_with(Histogram::micros)
                .merge(network);
        }
        for (mine, theirs) in self.per_category.iter_mut().zip(&other.per_category) {
            mine.merge(theirs);
        }
    }

    /// `(p50, p95, p99)` of a latency histogram, in microseconds.
    pub fn percentiles_us(hist: &Histogram) -> (u64, u64, u64) {
        (
            hist.percentile_us(50.0).unwrap_or(0),
            hist.percentile_us(95.0).unwrap_or(0),
            hist.percentile_us(99.0).unwrap_or(0),
        )
    }

    /// The `{p50, p95, p99, samples}` JSON object every latency
    /// histogram serializes to — shared by report-level and lab
    /// cell-level service objects so the schema cannot diverge.
    pub fn latency_json(hist: &Histogram) -> JsonValue {
        let (p50, p95, p99) = Self::percentiles_us(hist);
        JsonValue::obj(vec![
            ("p50", JsonValue::num(p50 as f64)),
            ("p95", JsonValue::num(p95 as f64)),
            ("p99", JsonValue::num(p99 as f64)),
            ("samples", JsonValue::num(hist.samples() as f64)),
        ])
    }

    /// The `{<category>: {queue_wait_us, service_time_us}}` JSON object
    /// of a per-category split (categories with samples only) — shared by
    /// report-level and lab cell-level service objects so the schema
    /// cannot diverge.
    pub fn categories_json(per_category: &[CategoryLatency]) -> JsonValue {
        JsonValue::Obj(
            per_category
                .iter()
                .filter(|c| c.queue_wait.samples() > 0)
                .map(|c| {
                    (
                        c.category.name().to_string(),
                        JsonValue::obj(vec![
                            ("queue_wait_us", Self::latency_json(&c.queue_wait)),
                            ("service_time_us", Self::latency_json(&c.service_time)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The `service` object embedded in the report's JSON form.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schedule", JsonValue::str(&self.schedule)),
            ("workers", JsonValue::num(self.workers as f64)),
            ("queue_cap", JsonValue::num(self.queue_cap as f64)),
            ("batch_max", JsonValue::num(self.batch_max as f64)),
            ("affinity", JsonValue::str(&self.affinity)),
            ("offered", JsonValue::num(self.offered as f64)),
            ("rejected", JsonValue::num(self.rejected as f64)),
            ("reconnects", JsonValue::num(self.reconnects as f64)),
            ("busy_ns", JsonValue::num(self.busy_ns as f64)),
            ("idle_ns", JsonValue::num(self.idle_ns as f64)),
            (
                "worker_busy_ns",
                JsonValue::Arr(
                    self.worker_busy_ns
                        .iter()
                        .map(|ns| JsonValue::num(*ns as f64))
                        .collect(),
                ),
            ),
            ("trace_dropped", JsonValue::num(self.trace_dropped as f64)),
            ("batches", JsonValue::num(self.batches as f64)),
            ("write_batches", JsonValue::num(self.write_batches as f64)),
            (
                "max_write_batch",
                JsonValue::num(self.max_write_batch as f64),
            ),
            ("steals", JsonValue::num(self.steals as f64)),
            ("queue_wait_us", Self::latency_json(&self.queue_wait)),
            ("service_time_us", Self::latency_json(&self.service_time)),
            ("e2e_us", Self::latency_json(&self.e2e)),
            (
                "network_us",
                match &self.network {
                    None => JsonValue::Null,
                    Some(h) => Self::latency_json(h),
                },
            ),
            ("categories", Self::categories_json(&self.per_category)),
        ])
    }
}

/// The flight recorder's windowed time-series: per-window throughput,
/// latency percentiles and gauge readings over the run (see
/// `stmbench7_obs::FlightRecorder`). Present when the run was sampled
/// (`--window`); the lab's windowed SLO gates read it back.
#[derive(Clone, Debug, Default)]
pub struct Timeseries {
    /// The sampling window length in milliseconds.
    pub window_ms: u64,
    /// The closed windows, in time order.
    pub windows: Vec<WindowSample>,
}

impl Timeseries {
    /// The `timeseries` JSON object shared by report-level and lab
    /// cell-level documents, so the schema cannot diverge.
    pub fn to_json_value(&self) -> JsonValue {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                let contention = match &w.contention {
                    None => JsonValue::Null,
                    Some(c) => JsonValue::obj(vec![
                        ("lock_acquires", JsonValue::num(c.lock_acquires as f64)),
                        ("lock_contended", JsonValue::num(c.lock_contended as f64)),
                        ("lock_wait_ns", JsonValue::num(c.lock_wait_ns as f64)),
                        ("cas_retries", JsonValue::num(c.cas_retries as f64)),
                        ("shard_conflicts", JsonValue::num(c.shard_conflicts as f64)),
                    ]),
                };
                JsonValue::obj(vec![
                    ("index", JsonValue::num(w.index as f64)),
                    ("start_ms", JsonValue::num(w.start_ms as f64)),
                    ("end_ms", JsonValue::num(w.end_ms as f64)),
                    ("completed", JsonValue::num(w.completed as f64)),
                    ("failed", JsonValue::num(w.failed as f64)),
                    ("aborts", JsonValue::num(w.aborts as f64)),
                    ("rejected", JsonValue::num(w.rejected as f64)),
                    ("batches", JsonValue::num(w.batches as f64)),
                    ("write_batches", JsonValue::num(w.write_batches as f64)),
                    ("steals", JsonValue::num(w.steals as f64)),
                    ("reconnects", JsonValue::num(w.reconnects as f64)),
                    ("busy_ns", JsonValue::num(w.busy_ns as f64)),
                    ("queue_depth", JsonValue::num(w.queue_depth as f64)),
                    (
                        "latency",
                        JsonValue::obj(vec![
                            ("p50_us", JsonValue::num(w.latency.p50_us as f64)),
                            ("p95_us", JsonValue::num(w.latency.p95_us as f64)),
                            ("p99_us", JsonValue::num(w.latency.p99_us as f64)),
                            ("samples", JsonValue::num(w.latency.samples as f64)),
                        ]),
                    ),
                    ("contention", contention),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("window_ms", JsonValue::num(self.window_ms as f64)),
            ("windows", JsonValue::Arr(windows)),
        ])
    }

    /// The rendered `== Timeseries ==` rows.
    fn render_into(&self, out: &mut String) {
        let _ = writeln!(out, "\n== Timeseries ({} ms windows) ==", self.window_ms);
        for w in &self.windows {
            let lat = if w.latency.samples > 0 {
                format!(
                    "p50 {:>7} us   p99 {:>7} us",
                    w.latency.p50_us, w.latency.p99_us
                )
            } else {
                format!("{:>29}", "no samples")
            };
            let _ = writeln!(
                out,
                "  #{:<4} {:>6}-{:<6} ms   ops {:>7}   fail {:>5}   aborts {:>5}   rej {:>5}   {}   queue {:>5}   steals {:>4}   busy {:>8.1} ms",
                w.index,
                w.start_ms,
                w.end_ms,
                w.completed,
                w.failed,
                w.aborts,
                w.rejected,
                lat,
                w.queue_depth,
                w.steals,
                w.busy_ns as f64 / 1e6,
            );
        }
    }
}

/// A complete benchmark result.
#[derive(Clone, Debug)]
pub struct Report {
    /// The strategy's canonical `-g` name.
    pub backend: String,
    /// Worker thread count of the run.
    pub threads: usize,
    /// The workload mix the run drew from.
    pub workload: WorkloadType,
    /// Whether long traversals were enabled (`--no-traversals` off).
    pub long_traversals: bool,
    /// Whether structure modifications were enabled (`--no-sms` off).
    pub structure_mods: bool,
    /// Root RNG seed of the run.
    pub seed: u64,
    /// Measured wall-clock window.
    pub elapsed: Duration,
    /// One row per operation, specification order.
    pub per_op: Vec<OpReport>,
    /// STM runtime statistics, for the STM backends.
    pub stm: Option<StatsSnapshot>,
    /// Always-on contention counters, if the backend maintains them
    /// (delta over the measured window).
    pub contention: Option<ContentionSnapshot>,
    /// Present when the run went through the service layer.
    pub service: Option<ServiceStats>,
    /// Windowed flight-recorder samples, when sampling was on
    /// (`--window`).
    pub timeseries: Option<Timeseries>,
}

impl Report {
    /// Total successfully completed operations.
    pub fn total_completed(&self) -> u64 {
        self.per_op.iter().map(|o| o.completed).sum()
    }

    /// Total benignly failed operations.
    pub fn total_failed(&self) -> u64 {
        self.per_op.iter().map(|o| o.failed).sum()
    }

    /// Total operations started.
    pub fn total_started(&self) -> u64 {
        self.total_completed() + self.total_failed()
    }

    /// Total aborted-and-retried execution attempts.
    pub fn total_aborts(&self) -> u64 {
        self.per_op.iter().map(|o| o.aborts).sum()
    }

    /// Aborted-and-retried attempts for one category's operations.
    pub fn category_aborts(&self, cat: Category) -> u64 {
        self.per_op
            .iter()
            .filter(|o| o.op.category() == cat)
            .map(|o| o.aborts)
            .sum()
    }

    /// Successful operations per second — the paper's headline
    /// throughput number.
    pub fn throughput(&self) -> f64 {
        self.total_completed() as f64 / self.elapsed.as_secs_f64()
    }

    /// Started (completed or failed) operations per second.
    pub fn throughput_attempted(&self) -> f64 {
        self.total_started() as f64 / self.elapsed.as_secs_f64()
    }

    /// Maximum latency over an operation subset, in milliseconds (the
    /// quantity Figure 3 plots for T1 and T2b).
    pub fn max_latency_ms(&self, op: OpKind) -> f64 {
        self.per_op[op.index()].max_ms()
    }

    /// The p-th latency percentile of one operation, in milliseconds
    /// (extension beyond the paper's max/mean; needs `histograms`).
    pub fn percentile_ms(&self, op: OpKind, p: f64) -> Option<u64> {
        self.per_op[op.index()].percentile_ms(p)
    }

    /// Merged report rows for one category.
    pub fn category_rollup(&self, cat: Category) -> (u64, u64, f64) {
        let mut completed = 0;
        let mut failed = 0;
        let mut max_ms = 0.0f64;
        for o in self.per_op.iter().filter(|o| o.op.category() == cat) {
            completed += o.completed;
            failed += o.failed;
            max_ms = max_ms.max(o.max_ms());
        }
        (completed, failed, max_ms)
    }

    /// Sample errors per operation, per Appendix A.1.
    pub fn sample_errors(&self) -> Vec<SampleError> {
        let total = self.total_completed().max(1) as f64;
        self.per_op
            .iter()
            .map(|o| {
                let c = o.expected_ratio;
                let r = o.completed as f64 / total;
                let a = o.started() as f64 / total;
                SampleError {
                    c,
                    r,
                    e: (c - r).abs(),
                    a,
                    f: (a - r).abs(),
                }
            })
            .collect()
    }

    /// Total sample errors `E` and `F`.
    pub fn total_errors(&self) -> (f64, f64) {
        let errs = self.sample_errors();
        (
            errs.iter().map(|s| s.e).sum(),
            errs.iter().map(|s| s.f).sum(),
        )
    }

    /// Renders the Appendix-A-style text report.
    pub fn render(&self, ttc_histograms: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Benchmark parameters ==");
        let _ = writeln!(out, "  backend:             {}", self.backend);
        let _ = writeln!(out, "  threads:             {}", self.threads);
        let _ = writeln!(out, "  workload:            {}", self.workload.label());
        let _ = writeln!(out, "  long traversals:     {}", self.long_traversals);
        let _ = writeln!(out, "  structure mods:      {}", self.structure_mods);
        let _ = writeln!(out, "  seed:                {}", self.seed);

        if ttc_histograms {
            let _ = writeln!(out, "\n== TTC histograms ==");
            for o in &self.per_op {
                if o.hist.samples() == 0 {
                    continue;
                }
                let pairs = o
                    .hist
                    .pairs()
                    .iter()
                    .map(|(ms, c)| format!("{ms},{c}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(out, "TTC histogram for {}: {}", o.op.name(), pairs);
            }
        }

        let _ = writeln!(out, "\n== Detailed results ==");
        for o in &self.per_op {
            if o.started() == 0 {
                continue;
            }
            // Percentiles (an extension over the paper's max/mean) are
            // shown when TTC histograms were collected.
            let tail = match (o.percentile_ms(50.0), o.percentile_ms(95.0)) {
                (Some(p50), Some(p95)) if ttc_histograms => {
                    format!("   p50 {p50:>5} ms   p95 {p95:>5} ms")
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:<5} completed {:>9}   max {:>10.3} ms   mean {:>9.3} ms   failed {:>7}{}",
                o.op.name(),
                o.completed,
                o.max_ms(),
                o.mean_ms(),
                o.failed,
                tail,
            );
        }

        let _ = writeln!(out, "\n== Sample errors ==");
        let errors = self.sample_errors();
        for (o, s) in self.per_op.iter().zip(&errors) {
            if o.started() == 0 && s.c == 0.0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<5} C={:.4}  R={:.4}  E={:.4}  A={:.4}  F={:.4}",
                o.op.name(),
                s.c,
                s.r,
                s.e,
                s.a,
                s.f,
            );
        }

        let _ = writeln!(out, "\n== Summary ==");
        for cat in Category::all() {
            let (completed, failed, max_ms) = self.category_rollup(cat);
            let _ = writeln!(
                out,
                "  {:<24} completed {:>9}   max {:>10.3} ms   failed {:>7}   aborts {:>7}   started {:>9}",
                cat.name(),
                completed,
                max_ms,
                failed,
                self.category_aborts(cat),
                completed + failed,
            );
        }
        let (e, f) = self.total_errors();
        let _ = writeln!(out, "  total sample errors: E={e:.4} F={f:.4}");
        let _ = writeln!(
            out,
            "  total throughput:    {:.1} op/s successful, {:.1} op/s attempted",
            self.throughput(),
            self.throughput_attempted(),
        );
        let _ = writeln!(
            out,
            "  elapsed time:        {:.3} s",
            self.elapsed.as_secs_f64()
        );

        if let Some(svc) = &self.service {
            let _ = writeln!(out, "\n== Service ==");
            let _ = writeln!(
                out,
                "  schedule:            {}   workers {}   queue cap {}   batch {}   affinity {}",
                svc.schedule, svc.workers, svc.queue_cap, svc.batch_max, svc.affinity,
            );
            // Counters render unconditionally — zero included — so the
            // output shape is stable across runs and greppable.
            let _ = writeln!(
                out,
                "  offered {}   rejected {}   batches {}   reconnects {}",
                svc.offered, svc.rejected, svc.batches, svc.reconnects,
            );
            let _ = writeln!(
                out,
                "  write batches {}   max write batch {}   steals {}",
                svc.write_batches, svc.max_write_batch, svc.steals,
            );
            let _ = writeln!(
                out,
                "  workers busy {:.3} s   idle {:.3} s   trace drops {}",
                svc.busy_ns as f64 / 1e9,
                svc.idle_ns as f64 / 1e9,
                svc.trace_dropped,
            );
            let mut lanes: Vec<(&str, &Histogram)> = vec![
                ("queue wait", &svc.queue_wait),
                ("service time", &svc.service_time),
                ("end-to-end", &svc.e2e),
            ];
            if let Some(network) = &svc.network {
                lanes.push(("network", network));
            }
            for (label, hist) in lanes {
                let (p50, p95, p99) = ServiceStats::percentiles_us(hist);
                let _ = writeln!(
                    out,
                    "  {label:<12} p50 {p50:>9} us   p95 {p95:>9} us   p99 {p99:>9} us",
                );
            }
            for cat in &svc.per_category {
                if cat.queue_wait.samples() == 0 {
                    continue;
                }
                let (qw50, qw95, _) = ServiceStats::percentiles_us(&cat.queue_wait);
                let (sv50, sv95, _) = ServiceStats::percentiles_us(&cat.service_time);
                let _ = writeln!(
                    out,
                    "  {:<24} qwait p50 {qw50:>8} us p95 {qw95:>8} us   service p50 {sv50:>8} us p95 {sv95:>8} us",
                    cat.category.name(),
                );
            }
        }

        if let Some(ts) = &self.timeseries {
            ts.render_into(&mut out);
        }

        if let Some(c) = &self.contention {
            let _ = writeln!(out, "\n== Contention ==");
            let _ = writeln!(
                out,
                "  lock acquires {}  contended {}  contention-ratio {:.4}  wait {:.3} ms",
                c.lock_acquires,
                c.lock_contended,
                c.contention_ratio(),
                c.lock_wait_ns as f64 / 1e6,
            );
            let _ = writeln!(
                out,
                "  cas retries {}  shard conflicts {}",
                c.cas_retries, c.shard_conflicts,
            );
        }

        if let Some(stm) = &self.stm {
            let _ = writeln!(out, "\n== STM statistics ==");
            let _ = writeln!(
                out,
                "  commits {}  aborts {}  abort-ratio {:.3}  reads {}  writes {}",
                stm.commits,
                stm.aborts,
                stm.abort_ratio(),
                stm.reads,
                stm.writes,
            );
            let _ = writeln!(
                out,
                "  validation steps {}  clones {}  extensions {}  enemy aborts {}",
                stm.validation_steps, stm.clones, stm.extensions, stm.enemy_aborts,
            );
        }
        out
    }

    /// The machine-readable form of this report — one JSON object with
    /// the run parameters, totals, per-operation rows (started ops only)
    /// and STM statistics. Consumed by the lab harness, which embeds it
    /// per repetition and aggregates across repetitions.
    pub fn to_json_value(&self) -> JsonValue {
        let per_op = self
            .per_op
            .iter()
            .filter(|o| o.started() > 0)
            .map(|o| {
                JsonValue::obj(vec![
                    ("op", JsonValue::str(o.op.name())),
                    ("completed", JsonValue::num(o.completed as f64)),
                    ("failed", JsonValue::num(o.failed as f64)),
                    ("aborts", JsonValue::num(o.aborts as f64)),
                    ("max_ms", JsonValue::num(o.max_ms())),
                    ("mean_ms", JsonValue::num(o.mean_ms())),
                ])
            })
            .collect();
        let categories = Category::all()
            .into_iter()
            .map(|cat| {
                let (completed, failed, max_ms) = self.category_rollup(cat);
                (
                    cat.name().to_string(),
                    JsonValue::obj(vec![
                        ("completed", JsonValue::num(completed as f64)),
                        ("failed", JsonValue::num(failed as f64)),
                        ("aborts", JsonValue::num(self.category_aborts(cat) as f64)),
                        ("max_ms", JsonValue::num(max_ms)),
                    ]),
                )
            })
            .collect();
        let stm = match &self.stm {
            None => JsonValue::Null,
            Some(s) => JsonValue::obj(vec![
                ("commits", JsonValue::num(s.commits as f64)),
                ("aborts", JsonValue::num(s.aborts as f64)),
                ("abort_ratio", JsonValue::num(s.abort_ratio())),
                ("reads", JsonValue::num(s.reads as f64)),
                ("writes", JsonValue::num(s.writes as f64)),
                (
                    "validation_steps",
                    JsonValue::num(s.validation_steps as f64),
                ),
                ("clones", JsonValue::num(s.clones as f64)),
                ("extensions", JsonValue::num(s.extensions as f64)),
                ("enemy_aborts", JsonValue::num(s.enemy_aborts as f64)),
            ]),
        };
        let contention = match &self.contention {
            None => JsonValue::Null,
            Some(c) => JsonValue::obj(vec![
                ("lock_acquires", JsonValue::num(c.lock_acquires as f64)),
                ("lock_contended", JsonValue::num(c.lock_contended as f64)),
                ("lock_wait_ns", JsonValue::num(c.lock_wait_ns as f64)),
                ("cas_retries", JsonValue::num(c.cas_retries as f64)),
                ("shard_conflicts", JsonValue::num(c.shard_conflicts as f64)),
                ("contention_ratio", JsonValue::num(c.contention_ratio())),
            ]),
        };
        let service = match &self.service {
            None => JsonValue::Null,
            Some(svc) => svc.to_json_value(),
        };
        let timeseries = match &self.timeseries {
            None => JsonValue::Null,
            Some(ts) => ts.to_json_value(),
        };
        JsonValue::obj(vec![
            ("backend", JsonValue::str(&self.backend)),
            ("threads", JsonValue::num(self.threads as f64)),
            ("workload", JsonValue::str(self.workload.label())),
            ("long_traversals", JsonValue::Bool(self.long_traversals)),
            ("structure_mods", JsonValue::Bool(self.structure_mods)),
            // Seeds are 64-bit identifiers, not quantities: a decimal
            // string survives the f64 number path exactly.
            ("seed", JsonValue::str(self.seed.to_string())),
            ("elapsed_s", JsonValue::num(self.elapsed.as_secs_f64())),
            ("completed", JsonValue::num(self.total_completed() as f64)),
            ("failed", JsonValue::num(self.total_failed() as f64)),
            ("throughput", JsonValue::num(self.throughput())),
            (
                "throughput_attempted",
                JsonValue::num(self.throughput_attempted()),
            ),
            ("aborts", JsonValue::num(self.total_aborts() as f64)),
            ("per_op", JsonValue::Arr(per_op)),
            ("categories", JsonValue::Obj(categories)),
            ("stm", stm),
            ("contention", contention),
            ("service", service),
            ("timeseries", timeseries),
        ])
    }

    /// One CSV row per operation:
    /// `backend,threads,workload,op,completed,failed,max_ms,mean_ms`.
    pub fn csv_rows(&self) -> Vec<String> {
        self.per_op
            .iter()
            .filter(|o| o.started() > 0)
            .map(|o| {
                format!(
                    "{},{},{},{},{},{},{:.3},{:.3}",
                    self.backend,
                    self.threads,
                    self.workload.name(),
                    o.op.name(),
                    o.completed,
                    o.failed,
                    o.max_ms(),
                    o.mean_ms(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_obs::LatencyCut;

    fn sample_report() -> Report {
        let mut per_op: Vec<OpReport> = OpKind::ALL
            .iter()
            .map(|op| OpReport::empty(*op, 1.0 / 45.0))
            .collect();
        per_op[OpKind::T1.index()].completed = 8;
        per_op[OpKind::T1.index()].max_ns = 2_000_000;
        per_op[OpKind::T1.index()].sum_ns = 8_000_000;
        per_op[OpKind::St1.index()].completed = 90;
        per_op[OpKind::St1.index()].failed = 10;
        per_op[OpKind::St1.index()].aborts = 4;
        Report {
            backend: "test".into(),
            threads: 2,
            workload: WorkloadType::ReadWrite,
            long_traversals: true,
            structure_mods: true,
            seed: 0,
            elapsed: Duration::from_secs(2),
            per_op,
            stm: None,
            contention: None,
            service: None,
            timeseries: None,
        }
    }

    fn sample_service_stats() -> ServiceStats {
        let mut queue_wait = Histogram::micros();
        let mut service_time = Histogram::micros();
        let mut e2e = Histogram::micros();
        for us in [3u64, 40, 700] {
            queue_wait.record(us * 1_000);
            service_time.record(2 * us * 1_000);
            e2e.record(3 * us * 1_000);
        }
        let mut per_category = CategoryLatency::all_empty();
        for us in [5u64, 90] {
            per_category[0].queue_wait.record(us * 1_000);
            per_category[0].service_time.record(4 * us * 1_000);
        }
        ServiceStats {
            schedule: "open2000".into(),
            workers: 2,
            queue_cap: 64,
            batch_max: 8,
            affinity: "none".into(),
            offered: 100,
            rejected: 2,
            reconnects: 0,
            busy_ns: 1_500_000_000,
            idle_ns: 500_000_000,
            worker_busy_ns: vec![1_000_000_000, 500_000_000],
            trace_dropped: 0,
            batches: 40,
            write_batches: 4,
            max_write_batch: 3,
            steals: 0,
            queue_wait,
            service_time,
            e2e,
            network: None,
            per_category,
        }
    }

    #[test]
    fn totals_and_throughput() {
        let r = sample_report();
        assert_eq!(r.total_completed(), 98);
        assert_eq!(r.total_failed(), 10);
        assert_eq!(r.total_started(), 108);
        assert!((r.throughput() - 49.0).abs() < 1e-9);
        assert!((r.throughput_attempted() - 54.0).abs() < 1e-9);
    }

    #[test]
    fn sample_error_arithmetic() {
        let r = sample_report();
        let errs = r.sample_errors();
        let st1 = errs[OpKind::St1.index()];
        assert!((st1.r - 90.0 / 98.0).abs() < 1e-9);
        assert!((st1.a - 100.0 / 98.0).abs() < 1e-9);
        assert!((st1.f - 10.0 / 98.0).abs() < 1e-9);
        let (e, f) = r.total_errors();
        assert!(e > 0.0);
        assert!(f > 0.0);
    }

    #[test]
    fn render_contains_all_sections() {
        let r = sample_report();
        let text = r.render(true);
        for section in [
            "== Benchmark parameters ==",
            "== Detailed results ==",
            "== Sample errors ==",
            "== Summary ==",
        ] {
            assert!(text.contains(section), "missing {section}");
        }
        assert!(text.contains("T1"));
        assert!(text.contains("total throughput"));
    }

    #[test]
    fn csv_rows_only_for_started_ops() {
        let r = sample_report();
        let rows = r.csv_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("test,2,rw,T1,8,0,"));
    }

    #[test]
    fn percentiles_render_with_histograms() {
        let mut r = sample_report();
        let op = &mut r.per_op[OpKind::T1.index()];
        for ms in [1u64, 2, 3, 40] {
            op.hist.record(ms * 1_000_000);
        }
        assert_eq!(r.percentile_ms(OpKind::T1, 50.0), Some(2));
        assert_eq!(r.percentile_ms(OpKind::T1, 100.0), Some(40));
        assert_eq!(r.percentile_ms(OpKind::St1, 50.0), None);
        let text = r.render(true);
        assert!(text.contains("p50"), "percentile column rendered");
        let plain = r.render(false);
        assert!(!plain.contains("p50"), "no percentiles without histograms");
    }

    #[test]
    fn json_value_carries_totals() {
        let r = sample_report();
        let doc = r.to_json_value();
        assert_eq!(doc.get("backend").and_then(JsonValue::as_str), Some("test"));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(98));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(
            doc.get("throughput").and_then(JsonValue::as_f64),
            Some(r.throughput())
        );
        // Only started operations appear.
        assert_eq!(
            doc.get("per_op")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("stm"), Some(&JsonValue::Null));
        assert!(doc.render().contains("\"workload\": \"rw\""));
    }

    #[test]
    fn service_section_renders_and_serializes() {
        let mut r = sample_report();
        assert_eq!(
            r.to_json_value().get("service"),
            Some(&JsonValue::Null),
            "closed-loop reports carry no service object"
        );
        r.service = Some(sample_service_stats());
        let text = r.render(false);
        assert!(text.contains("== Service =="));
        assert!(text.contains("queue wait"));
        assert!(text.contains("service time"));
        assert!(text.contains("rejected 2"));
        assert!(
            text.contains("reconnects 0"),
            "zero counters render too — shape-stable output:\n{text}"
        );
        assert!(text.contains("workers busy 1.500 s"));
        assert!(text.contains("idle 0.500 s"));
        assert!(text.contains("trace drops 0"));
        let mut noisy = r.clone();
        noisy.service.as_mut().unwrap().reconnects = 3;
        assert!(noisy.render(false).contains("reconnects 3"));

        let doc = r.to_json_value();
        let svc = doc.get("service").expect("service object");
        assert_eq!(
            svc.get("schedule").and_then(JsonValue::as_str),
            Some("open2000")
        );
        assert_eq!(svc.get("offered").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(svc.get("rejected").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(svc.get("reconnects").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            svc.get("busy_ns").and_then(JsonValue::as_u64),
            Some(1_500_000_000)
        );
        assert_eq!(
            svc.get("idle_ns").and_then(JsonValue::as_u64),
            Some(500_000_000)
        );
        assert_eq!(
            svc.get("trace_dropped").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(svc.get("batches").and_then(JsonValue::as_u64), Some(40));
        for key in ["queue_wait_us", "service_time_us", "e2e_us"] {
            let lat = svc.get(key).unwrap_or_else(|| panic!("missing {key}"));
            let p50 = lat.get("p50").and_then(JsonValue::as_u64).unwrap();
            let p99 = lat.get("p99").and_then(JsonValue::as_u64).unwrap();
            assert!(p50 <= p99, "{key}: p50 {p50} > p99 {p99}");
            assert_eq!(lat.get("samples").and_then(JsonValue::as_u64), Some(3));
        }
    }

    #[test]
    fn service_stats_merge_sums_counters_and_merges_lanes() {
        let mut a = sample_service_stats();
        let mut b = sample_service_stats();
        b.offered = 50;
        b.rejected = 1;
        b.reconnects = 2;
        b.max_write_batch = 9;
        b.trace_dropped = 5;
        a.trace_dropped = 3;
        b.worker_busy_ns = vec![10, 20, 30];
        b.schedule = "other".into();
        let mut network = Histogram::micros();
        network.record(12_000);
        b.network = Some(network);
        a.merge(&b);

        assert_eq!(a.offered, 150);
        assert_eq!(a.rejected, 3);
        assert_eq!(a.reconnects, 2);
        assert_eq!(a.busy_ns, 3_000_000_000);
        assert_eq!(a.idle_ns, 1_000_000_000);
        assert_eq!(a.batches, 80);
        assert_eq!(a.write_batches, 8);
        assert_eq!(a.max_write_batch, 9, "max, not sum");
        assert_eq!(a.trace_dropped, 5, "cumulative per rep: max, not sum");
        assert_eq!(a.schedule, "open2000", "header fields keep self's");
        assert_eq!(a.e2e.samples(), 6);
        assert_eq!(a.queue_wait.samples(), 6);
        assert_eq!(
            a.worker_busy_ns,
            vec![1_000_000_010, 500_000_020, 30],
            "element-wise, growing to the longer side"
        );
        assert_eq!(a.per_category[0].queue_wait.samples(), 4, "positional");
        assert_eq!(a.per_category[0].service_time.samples(), 4);
        assert_eq!(a.per_category[1].queue_wait.samples(), 0);
        assert_eq!(
            a.network.as_ref().map(Histogram::samples),
            Some(1),
            "a network lane survives when one input carried it"
        );

        let mut plain = sample_service_stats();
        plain.merge(&sample_service_stats());
        assert!(plain.network.is_none(), "no input carried a network lane");
        let mut empty = ServiceStats::default();
        empty.merge(&sample_service_stats());
        assert_eq!(empty.offered, 100);
        assert_eq!(empty.worker_busy_ns, vec![1_000_000_000, 500_000_000]);
    }

    #[test]
    fn service_stats_record_feeds_the_aggregate_and_category_lanes() {
        let mut svc = ServiceStats::default();
        svc.record(Category::ShortOperation, 1_000, 20_000, 25_000);
        svc.record(Category::ShortOperation, 3_000, 40_000, 45_000);
        svc.record(Category::LongTraversal, 9_000, 900_000, 910_000);
        assert_eq!(svc.queue_wait.samples(), 3);
        assert_eq!(svc.service_time.samples(), 3);
        assert_eq!(svc.e2e.samples(), 3);
        let lane = |cat: Category| &svc.per_category[cat.index()];
        assert_eq!(lane(Category::ShortOperation).queue_wait.samples(), 2);
        assert_eq!(lane(Category::ShortOperation).service_time.samples(), 2);
        assert_eq!(lane(Category::LongTraversal).service_time.samples(), 1);
        assert_eq!(lane(Category::ShortTraversal).queue_wait.samples(), 0);
        assert_eq!(ServiceStats::percentiles_us(&svc.e2e).2, 1_023);
    }

    #[test]
    fn op_report_records_and_merges() {
        let mut a = OpReport::empty(OpKind::T1, 0.5);
        a.record(true, 3_000_000, true);
        a.record(false, 9_000_000, true);
        a.record(true, 1_000_000, false);
        assert_eq!((a.completed, a.failed), (2, 1));
        assert_eq!(a.max_ns, 3_000_000, "failures carry no latency");
        assert_eq!(a.sum_ns, 4_000_000);
        assert_eq!(a.hist.samples(), 1, "histogram only when asked");
        let mut b = OpReport::empty(OpKind::T1, 0.0);
        b.record(true, 7_000_000, true);
        b.aborts = 4;
        a.merge(&b);
        assert_eq!((a.completed, a.failed, a.aborts), (3, 1, 4));
        assert_eq!(a.max_ns, 7_000_000);
        assert_eq!(a.sum_ns, 11_000_000);
        assert_eq!(a.hist.samples(), 2);
        assert_eq!(a.expected_ratio, 0.5, "the configured ratio stays");
    }

    #[test]
    fn worker_busy_ns_serializes_in_worker_order() {
        let mut r = sample_report();
        r.service = Some(sample_service_stats());
        let doc = r.to_json_value();
        let lanes = doc
            .get("service")
            .and_then(|s| s.get("worker_busy_ns"))
            .and_then(JsonValue::as_array)
            .expect("worker_busy_ns array");
        let ns: Vec<u64> = lanes.iter().filter_map(JsonValue::as_u64).collect();
        assert_eq!(ns, vec![1_000_000_000, 500_000_000]);
    }

    fn sample_timeseries() -> Timeseries {
        let windows = (0..2u64)
            .map(|i| WindowSample {
                index: i,
                start_ms: i * 250,
                end_ms: (i + 1) * 250,
                completed: 100 + i,
                failed: 1,
                aborts: 2,
                rejected: 0,
                batches: 10,
                write_batches: 1,
                steals: i,
                reconnects: 0,
                busy_ns: 200_000_000,
                queue_depth: 7,
                latency: LatencyCut {
                    p50_us: 40,
                    p95_us: 400,
                    p99_us: 900,
                    samples: 100,
                },
                contention: if i == 0 {
                    None
                } else {
                    Some(ContentionSnapshot {
                        lock_acquires: 50,
                        lock_contended: 5,
                        lock_wait_ns: 1_000,
                        cas_retries: 3,
                        shard_conflicts: 1,
                    })
                },
            })
            .collect();
        Timeseries {
            window_ms: 250,
            windows,
        }
    }

    #[test]
    fn timeseries_section_renders_and_serializes() {
        let mut r = sample_report();
        assert_eq!(
            r.to_json_value().get("timeseries"),
            Some(&JsonValue::Null),
            "unsampled reports carry no timeseries"
        );
        assert!(!r.render(false).contains("== Timeseries"));

        r.timeseries = Some(sample_timeseries());
        let text = r.render(false);
        assert!(text.contains("== Timeseries (250 ms windows) =="));
        assert!(text.contains("#0"), "window rows rendered:\n{text}");
        assert!(text.contains("900 us"), "p99 rendered:\n{text}");

        let doc = r.to_json_value();
        let ts = doc.get("timeseries").expect("timeseries object");
        assert_eq!(ts.get("window_ms").and_then(JsonValue::as_u64), Some(250));
        let windows = ts
            .get("windows")
            .and_then(JsonValue::as_array)
            .expect("windows array");
        assert_eq!(windows.len(), 2);
        let w0 = &windows[0];
        assert_eq!(w0.get("completed").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(w0.get("end_ms").and_then(JsonValue::as_u64), Some(250));
        assert_eq!(w0.get("queue_depth").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            w0.get("latency")
                .and_then(|l| l.get("p99_us"))
                .and_then(JsonValue::as_u64),
            Some(900)
        );
        assert_eq!(
            w0.get("contention"),
            Some(&JsonValue::Null),
            "a window without a contention probe serializes null"
        );
        let w1 = &windows[1];
        assert_eq!(w1.get("steals").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            w1.get("contention")
                .and_then(|c| c.get("lock_contended"))
                .and_then(JsonValue::as_u64),
            Some(5)
        );
    }

    #[test]
    fn network_lane_and_category_split_render_and_serialize() {
        let mut r = sample_report();
        r.service = Some(sample_service_stats());

        // Without a network lane: JSON null, no rendered row.
        let doc = r.to_json_value();
        let svc = doc.get("service").expect("service object");
        assert_eq!(svc.get("network_us"), Some(&JsonValue::Null));
        assert!(!r.render(false).contains("network"));

        // The per-category split serializes only sampled categories.
        let cats = svc.get("categories").expect("categories object");
        let lt = cats
            .get(Category::LongTraversal.name())
            .expect("sampled category present");
        assert_eq!(
            lt.get("queue_wait_us")
                .and_then(|l| l.get("samples"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert!(
            cats.get(Category::ShortOperation.name()).is_none(),
            "unsampled categories are omitted"
        );
        let text = r.render(false);
        assert!(text.contains("long traversals"), "category row rendered");
        assert!(text.contains("qwait"), "split columns rendered:\n{text}");

        // With a network lane: a fourth row and a populated JSON object.
        let mut network = Histogram::micros();
        for us in [12u64, 300] {
            network.record(us * 1_000);
        }
        r.service.as_mut().unwrap().network = Some(network);
        assert!(r.render(false).contains("network"));
        let doc = r.to_json_value();
        let net = doc.get("service").unwrap().get("network_us").unwrap();
        assert_eq!(net.get("samples").and_then(JsonValue::as_u64), Some(2));
        let p50 = net.get("p50").and_then(JsonValue::as_u64).unwrap();
        let p99 = net.get("p99").and_then(JsonValue::as_u64).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    #[should_panic(expected = "different categories")]
    fn merging_mismatched_category_splits_panics() {
        let mut a = CategoryLatency::empty(Category::LongTraversal);
        let b = CategoryLatency::empty(Category::ShortOperation);
        a.merge(&b);
    }

    #[test]
    fn seeds_above_2_53_survive_exactly() {
        let mut r = sample_report();
        r.seed = u64::MAX; // not representable as f64
        let doc = r.to_json_value();
        assert_eq!(
            doc.get("seed").and_then(JsonValue::as_str),
            Some("18446744073709551615")
        );
    }

    #[test]
    fn abort_counts_roll_up_and_serialize() {
        let r = sample_report();
        assert_eq!(r.total_aborts(), 4);
        assert_eq!(r.category_aborts(Category::ShortTraversal), 4);
        assert_eq!(r.category_aborts(Category::LongTraversal), 0);
        let text = r.render(false);
        assert!(text.contains("aborts"), "summary renders abort column");
        let doc = r.to_json_value();
        assert_eq!(doc.get("aborts").and_then(JsonValue::as_u64), Some(4));
        let st = doc
            .get("categories")
            .and_then(|c| c.get(Category::ShortTraversal.name()))
            .expect("short-traversal rollup");
        assert_eq!(st.get("aborts").and_then(JsonValue::as_u64), Some(4));
    }

    #[test]
    fn contention_section_renders_and_serializes() {
        let mut r = sample_report();
        assert_eq!(r.to_json_value().get("contention"), Some(&JsonValue::Null));
        assert!(!r.render(false).contains("== Contention =="));
        r.contention = Some(ContentionSnapshot {
            lock_acquires: 100,
            lock_contended: 25,
            lock_wait_ns: 3_000_000,
            cas_retries: 7,
            shard_conflicts: 2,
        });
        let text = r.render(false);
        assert!(text.contains("== Contention =="));
        assert!(text.contains("lock acquires 100"));
        assert!(text.contains("contention-ratio 0.2500"));
        assert!(text.contains("cas retries 7"));
        let doc = r.to_json_value();
        let c = doc.get("contention").expect("contention object");
        assert_eq!(
            c.get("lock_acquires").and_then(JsonValue::as_u64),
            Some(100)
        );
        assert_eq!(
            c.get("lock_wait_ns").and_then(JsonValue::as_u64),
            Some(3_000_000)
        );
        assert_eq!(
            c.get("contention_ratio").and_then(JsonValue::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn category_rollup_sums() {
        let r = sample_report();
        let (completed, failed, max_ms) = r.category_rollup(Category::LongTraversal);
        assert_eq!((completed, failed), (8, 0));
        assert!((max_ms - 2.0).abs() < 1e-9);
        let (c2, f2, _) = r.category_rollup(Category::ShortTraversal);
        assert_eq!((c2, f2), (90, 10));
    }
}
