//! The experiment vocabulary: one [`Cell`] is a single benchmark
//! configuration, an [`ExperimentSpec`] is a named grid of cells plus the
//! measurement protocol (structure preset, duration, warmup, repetition
//! count, seed).

use std::time::Duration;

use stmbench7_backend::BackendChoice;
use stmbench7_core::{BenchConfig, OpFilter, RunMode, WorkloadType};
use stmbench7_data::StructureParams;
use stmbench7_net::DriveConfig;
use stmbench7_service::{Admission, Affinity, Schedule, ServeConfig};

/// Service-layer protocol of one cell: run through `stmbench7-service`'s
/// open-loop queue instead of the closed-loop engine. `threads` on the
/// owning [`Cell`] becomes the worker-pool size.
#[derive(Clone, Debug, PartialEq)]
pub struct ServicePlan {
    pub schedule: Schedule,
    /// Bound of the request queue.
    pub queue_cap: usize,
    pub admission: Admission,
    /// Maximum group-commit batch size (1 = batching off).
    pub batch_max: usize,
    /// Worker routing policy (shared queue vs shard-affine sub-queues).
    pub affinity: Affinity,
    /// Length of the request stream; duration follows from the schedule
    /// (`requests / rate` for open arrivals), keeping lab runs
    /// deterministic in work rather than wall time.
    pub requests: u64,
}

impl ServicePlan {
    /// An open-loop plan with blocking admission, no batching, no
    /// affinity routing.
    pub fn open_loop(schedule: Schedule, queue_cap: usize, requests: u64) -> ServicePlan {
        ServicePlan {
            schedule,
            queue_cap,
            admission: Admission::Block,
            batch_max: 1,
            affinity: Affinity::None,
            requests,
        }
    }

    /// The key suffix identifying this plan inside a cell key.
    fn key_suffix(&self) -> String {
        let mut key = format!("/{}/q{}", self.schedule.key(), self.queue_cap);
        if self.admission == Admission::Reject {
            key.push_str("/reject");
        }
        if self.batch_max > 1 {
            key.push_str(&format!("/b{}", self.batch_max));
        }
        if self.affinity == Affinity::Shard {
            key.push_str("/affS");
        }
        key
    }
}

/// Network protocol of one cell: the cell's backend runs behind
/// `stmbench7-net`'s TCP server on an ephemeral loopback port, and the
/// remote load driver replays the schedule over sockets. `threads` on
/// the owning [`Cell`] becomes the *server* worker-pool size; the
/// measured report is the *client's*, so the cell's throughput and
/// latency include the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct NetPlan {
    pub schedule: Schedule,
    /// Bound of the server-side request queue (blocking admission).
    pub queue_cap: usize,
    /// Client connections the stream is striped over.
    pub connections: usize,
    /// Length of the request stream (see [`ServicePlan::requests`] for
    /// why lab runs are deterministic in work, not wall time).
    pub requests: u64,
    /// Per-connection pipelining window of the driver (0 = unbounded —
    /// requests are issued purely by schedule).
    pub inflight: usize,
    /// Extra mostly-idle connections the runner opens and holds for the
    /// duration of the drive — the c10k axis: the event-loop server must
    /// carry them without spawning threads or dropping frames.
    pub idle_conns: usize,
}

impl NetPlan {
    /// A hot-connections-only plan (no pipelining window, no idle herd) —
    /// the shape every pre-c10k net cell had.
    pub fn hot(schedule: Schedule, queue_cap: usize, connections: usize, requests: u64) -> NetPlan {
        NetPlan {
            schedule,
            queue_cap,
            connections,
            requests,
            inflight: 0,
            idle_conns: 0,
        }
    }

    /// The key suffix identifying this plan inside a cell key.
    fn key_suffix(&self) -> String {
        let mut key = format!(
            "/{}/q{}/net{}c",
            self.schedule.key(),
            self.queue_cap,
            self.connections
        );
        if self.inflight > 0 {
            key.push_str(&format!("/in{}", self.inflight));
        }
        if self.idle_conns > 0 {
            key.push_str(&format!("/idle{}", self.idle_conns));
        }
        key
    }
}

/// A windowed service-level objective on one cell: the run's
/// [`Timeseries`](stmbench7_core::Timeseries) windows are checked
/// individually against `p99_us`, and the cell fails its SLO when more
/// than `max_violation_windows` windows breach it. This is the gate the
/// aggregate p99 cannot express: a run that is fine on average but
/// stalls for a few windows during bursts fails here and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slo {
    /// Per-window p99 latency bound, in microseconds.
    pub p99_us: u64,
    /// Number of breaching windows tolerated before the cell fails.
    pub max_violation_windows: u64,
}

/// One sweep cell: a backend × workload × thread-count configuration,
/// optionally run through the service layer ([`ServicePlan`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub backend: BackendChoice,
    pub workload: WorkloadType,
    pub threads: usize,
    /// Index shard count override (`StructureParams::index_shards`);
    /// `None` inherits the spec preset's. The `--shards` axis of
    /// `sharded_scaling`.
    pub shards: Option<usize>,
    pub long_traversals: bool,
    pub structure_mods: bool,
    pub astm_friendly: bool,
    /// When set, the cell runs open-loop through `stmbench7-service`
    /// (`threads` = worker-pool size) instead of the closed-loop engine.
    pub service: Option<ServicePlan>,
    /// When set, the cell runs over a loopback socket through
    /// `stmbench7-net` (`threads` = server worker-pool size); mutually
    /// exclusive with `service`.
    pub net: Option<NetPlan>,
    /// Record a lifecycle trace while running this cell. Deliberately
    /// NOT part of [`Cell::key`]: a traced run is the *same* experiment
    /// (only observed), so baseline comparison can put a traced run
    /// against an untraced one — exactly what the overhead gate does.
    pub trace: bool,
    /// Flight-recorder window for this cell, in milliseconds. Like
    /// `trace`, NOT part of [`Cell::key`]: a windowed run is the same
    /// experiment observed, so the sampler overhead gate can compare a
    /// windowed run against an unwindowed baseline.
    pub window_ms: Option<u64>,
    /// Windowed SLO this cell must meet (requires `window_ms`). Also
    /// excluded from [`Cell::key`]: the SLO judges the run, it does not
    /// change what runs.
    pub slo: Option<Slo>,
}

impl Cell {
    /// A cell with the paper's default switches (long traversals and
    /// structure modifications on, no operation filter).
    pub fn new(backend: BackendChoice, workload: WorkloadType, threads: usize) -> Cell {
        Cell {
            backend,
            workload,
            threads,
            shards: None,
            long_traversals: true,
            structure_mods: true,
            astm_friendly: false,
            service: None,
            net: None,
            trace: false,
            window_ms: None,
            slo: None,
        }
    }

    /// The structure parameters this cell builds with: the spec preset,
    /// with the cell's shard override applied when present.
    pub fn params(&self, preset: &StructureParams) -> StructureParams {
        match self.shards {
            Some(n) => preset.clone().with_shards(n),
            None => preset.clone(),
        }
    }

    /// Stable short key for the workload axis (`r`, `rw`, `w`, `uNN`).
    pub fn workload_key(&self) -> String {
        match self.workload {
            WorkloadType::Custom { update_pct } => format!("u{update_pct}"),
            other => other.name().to_string(),
        }
    }

    /// The engine configuration for running this cell for `secs`
    /// seconds with the given seed — the single cell-to-config mapping
    /// of the spec runner.
    pub fn bench_config(&self, secs: f64, seed: u64) -> BenchConfig {
        BenchConfig {
            threads: self.threads,
            mode: RunMode::Timed(Duration::from_secs_f64(secs)),
            workload: self.workload,
            long_traversals: self.long_traversals,
            structure_mods: self.structure_mods,
            filter: OpFilter::astm_friendly_if(self.astm_friendly),
            seed,
            histograms: false,
            recorder: stmbench7_obs::Recorder::default(),
            window_ms: self.window_ms,
        }
    }

    /// Stable identity of this cell inside a results document; baseline
    /// comparison matches cells by this key.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}/{}t",
            self.backend.key(),
            self.workload_key(),
            self.threads
        );
        if let Some(shards) = self.shards {
            key.push_str(&format!("/s{shards}"));
        }
        if !self.long_traversals {
            key.push_str("/no-lt");
        }
        if !self.structure_mods {
            key.push_str("/no-sm");
        }
        if self.astm_friendly {
            key.push_str("/astm-friendly");
        }
        debug_assert!(
            self.service.is_none() || self.net.is_none(),
            "a cell is either a service cell or a net cell, not both"
        );
        if let Some(plan) = &self.service {
            key.push_str(&plan.key_suffix());
        }
        if let Some(plan) = &self.net {
            key.push_str(&plan.key_suffix());
        }
        key
    }

    /// A worker pool of `threads` over this cell's mix and switches —
    /// what the service and net plans share.
    fn pool_config(&self, schedule: Schedule, queue_cap: usize, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(schedule, self.workload, seed);
        cfg.workers = self.threads;
        cfg.queue_cap = queue_cap;
        cfg.long_traversals = self.long_traversals;
        cfg.structure_mods = self.structure_mods;
        cfg.filter = OpFilter::astm_friendly_if(self.astm_friendly);
        cfg.window_ms = self.window_ms;
        cfg
    }

    /// The service configuration for running this cell's plan with the
    /// given seed; `None` for closed-loop cells.
    pub fn serve_config(&self, seed: u64) -> Option<ServeConfig> {
        let plan = self.service.as_ref()?;
        let mut cfg = self.pool_config(plan.schedule, plan.queue_cap, seed);
        cfg.admission = plan.admission;
        cfg.batch_max = plan.batch_max;
        cfg.affinity = plan.affinity;
        Some(cfg)
    }

    /// The server and driver configurations for running this cell's
    /// network plan with the given seed; `None` for cells without one.
    pub fn net_configs(&self, seed: u64) -> Option<(ServeConfig, DriveConfig)> {
        let plan = self.net.as_ref()?;
        // The server takes arrivals off the wire; its schedule field is
        // inert and overwritten with `net:<addr>` in its report.
        let server = self.pool_config(plan.schedule, plan.queue_cap, seed);
        let mut driver = DriveConfig::new(plan.schedule, self.workload, seed);
        driver.connections = plan.connections;
        driver.inflight = plan.inflight;
        driver.long_traversals = self.long_traversals;
        driver.structure_mods = self.structure_mods;
        driver.filter = server.filter.clone();
        Some((server, driver))
    }
}

/// The full cross product of backends × workloads × thread counts with
/// shared switches — the grid constructor every built-in spec uses.
pub fn grid(
    backends: &[BackendChoice],
    workloads: &[WorkloadType],
    threads: &[usize],
    long_traversals: bool,
    structure_mods: bool,
    astm_friendly: bool,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(backends.len() * workloads.len() * threads.len());
    for &workload in workloads {
        for &backend in backends {
            for &t in threads {
                let mut cell = Cell::new(backend, workload, t);
                cell.long_traversals = long_traversals;
                cell.structure_mods = structure_mods;
                cell.astm_friendly = astm_friendly;
                cells.push(cell);
            }
        }
    }
    cells
}

/// A grid over the sharding axis: backends × shard counts × thread
/// counts, one workload, long traversals off (the short-operation mix is
/// where per-shard locking shows) — the constructor behind
/// `sharded_scaling`.
pub fn sharded_grid(
    backends: &[BackendChoice],
    workload: WorkloadType,
    shards: &[usize],
    threads: &[usize],
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(backends.len() * shards.len() * threads.len());
    for &backend in backends {
        for &s in shards {
            for &t in threads {
                let mut cell = Cell::new(backend, workload, t);
                cell.shards = Some(s);
                cell.long_traversals = false;
                cells.push(cell);
            }
        }
    }
    cells
}

/// A grid of *service* cells: backends × arrival schedules × one worker
/// count, each running `plan_of(schedule)` open-loop — the constructor
/// behind the latency specs.
pub fn service_grid(
    backends: &[BackendChoice],
    workload: WorkloadType,
    workers: usize,
    schedules: &[Schedule],
    long_traversals: bool,
    plan_of: impl Fn(Schedule) -> ServicePlan,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(backends.len() * schedules.len());
    for &schedule in schedules {
        for &backend in backends {
            let mut cell = Cell::new(backend, workload, workers);
            cell.long_traversals = long_traversals;
            cell.service = Some(plan_of(schedule));
            cells.push(cell);
        }
    }
    cells
}

/// A grid of *network* cells: backends × arrival schedules × one server
/// worker count, each driven over loopback sockets by `plan_of(schedule)`
/// — the constructor behind `net_loopback`.
pub fn net_grid(
    backends: &[BackendChoice],
    workload: WorkloadType,
    workers: usize,
    schedules: &[Schedule],
    long_traversals: bool,
    plan_of: impl Fn(Schedule) -> NetPlan,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(backends.len() * schedules.len());
    for &schedule in schedules {
        for &backend in backends {
            let mut cell = Cell::new(backend, workload, workers);
            cell.long_traversals = long_traversals;
            cell.net = Some(plan_of(schedule));
            cells.push(cell);
        }
    }
    cells
}

/// A named, fully pinned experiment: the grid plus the measurement
/// protocol. Everything needed to reproduce a results document.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    pub name: String,
    pub description: String,
    pub params: StructureParams,
    /// Measured duration of every cell repetition, in seconds.
    pub secs_per_cell: f64,
    /// Discarded warmup run before the measured repetitions (0 = none).
    pub warmup_secs: f64,
    /// Measured repetitions per cell; aggregates are computed across
    /// them. Each repetition runs on a freshly built structure.
    pub repetitions: u32,
    pub seed: u64,
    pub cells: Vec<Cell>,
}

impl ExperimentSpec {
    /// Replaces the thread axis: every unique cell modulo thread count is
    /// re-crossed with `threads` (deduplicated, order preserved — cell
    /// keys must stay unique for baseline comparison).
    pub fn with_threads(mut self, threads: &[usize]) -> Self {
        let mut threads_axis: Vec<usize> = Vec::new();
        for &t in threads {
            if !threads_axis.contains(&t) {
                threads_axis.push(t);
            }
        }
        let mut base: Vec<Cell> = Vec::new();
        for cell in &self.cells {
            let mut c = cell.clone();
            c.threads = 0;
            if !base.contains(&c) {
                base.push(c);
            }
        }
        self.cells = base
            .into_iter()
            .flat_map(|c| {
                threads_axis.iter().map(move |&t| {
                    let mut cell = c.clone();
                    cell.threads = t;
                    cell
                })
            })
            .collect();
        self
    }

    /// Replaces the arrival-rate axis: every unique open-loop cell modulo
    /// its schedule's rate is re-crossed with `rates` (deduplicated,
    /// order preserved), scaling each plan's request count with the rate
    /// so every cell measures the same wall-clock window. Closed-loop
    /// cells (no service/net plan, or a non-open schedule) pass through
    /// unchanged.
    pub fn with_rates(mut self, rates: &[f64]) -> Self {
        let mut axis: Vec<f64> = Vec::new();
        for &r in rates {
            if !axis.contains(&r) {
                axis.push(r);
            }
        }
        let mut cells: Vec<Cell> = Vec::new();
        for cell in &self.cells {
            let old_rate = match (&cell.service, &cell.net) {
                (Some(p), _) => match p.schedule {
                    Schedule::Open { rate } => Some(rate),
                    _ => None,
                },
                (_, Some(p)) => match p.schedule {
                    Schedule::Open { rate } => Some(rate),
                    _ => None,
                },
                _ => None,
            };
            let Some(old_rate) = old_rate else {
                if !cells.contains(cell) {
                    cells.push(cell.clone());
                }
                continue;
            };
            for &rate in &axis {
                let mut c = cell.clone();
                let scale = |requests: u64| ((requests as f64) * rate / old_rate).round() as u64;
                if let Some(p) = &mut c.service {
                    p.requests = scale(p.requests).max(1);
                    p.schedule = Schedule::Open { rate };
                }
                if let Some(p) = &mut c.net {
                    p.requests = scale(p.requests).max(1);
                    p.schedule = Schedule::Open { rate };
                }
                if !cells.contains(&c) {
                    cells.push(c);
                }
            }
        }
        self.cells = cells;
        self
    }

    /// The engine configuration for one cell under this spec's protocol.
    pub fn bench_config(&self, cell: &Cell, secs: f64, rep: u32) -> BenchConfig {
        cell.bench_config(secs, self.seed.wrapping_add(u64::from(rep)))
    }

    /// Total measured benchmark seconds (excluding warmup and builds) —
    /// printed up front so the user knows what they signed up for.
    pub fn measured_secs(&self) -> f64 {
        self.cells.len() as f64 * self.secs_per_cell * f64::from(self.repetitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_a_full_cross_product() {
        let cells = grid(
            &[BackendChoice::Coarse, BackendChoice::Medium],
            &[WorkloadType::ReadDominated, WorkloadType::WriteDominated],
            &[1, 2, 4],
            false,
            true,
            false,
        );
        assert_eq!(cells.len(), 12);
        assert!(cells.iter().all(|c| !c.long_traversals && c.structure_mods));
    }

    #[test]
    fn cell_keys_are_distinct_and_stable() {
        let a = Cell::new(BackendChoice::Coarse, WorkloadType::ReadWrite, 2);
        assert_eq!(a.key(), "coarse/rw/2t");
        let mut b = a.clone();
        b.long_traversals = false;
        b.astm_friendly = true;
        assert_eq!(b.key(), "coarse/rw/2t/no-lt/astm-friendly");
        let custom = Cell::new(
            BackendChoice::Medium,
            WorkloadType::Custom { update_pct: 25 },
            4,
        );
        assert_eq!(custom.key(), "medium/u25/4t");
    }

    #[test]
    fn with_threads_regrids_preserving_other_axes() {
        let spec = ExperimentSpec {
            name: "t".into(),
            description: String::new(),
            params: StructureParams::tiny(),
            secs_per_cell: 0.1,
            warmup_secs: 0.0,
            repetitions: 1,
            seed: 1,
            cells: grid(
                &[BackendChoice::Coarse, BackendChoice::Medium],
                &[WorkloadType::ReadWrite],
                &[1, 2],
                true,
                true,
                false,
            ),
        };
        let re = spec.with_threads(&[8]);
        assert_eq!(re.cells.len(), 2);
        assert!(re.cells.iter().all(|c| c.threads == 8));
    }

    #[test]
    fn with_threads_dedups_the_axis() {
        let spec = ExperimentSpec {
            name: "t".into(),
            description: String::new(),
            params: StructureParams::tiny(),
            secs_per_cell: 0.1,
            warmup_secs: 0.0,
            repetitions: 1,
            seed: 1,
            cells: grid(
                &[BackendChoice::Coarse],
                &[WorkloadType::ReadWrite],
                &[1],
                true,
                true,
                false,
            ),
        };
        let re = spec.with_threads(&[2, 1, 2, 2]);
        let keys: Vec<String> = re.cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys, vec!["coarse/rw/2t", "coarse/rw/1t"]);
    }
}
