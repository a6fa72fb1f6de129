//! The service core: a request source feeding a bounded queue, a worker
//! pool executing requests through a [`Backend`], and per-request latency
//! decomposition (queue wait vs service time).
//!
//! [`serve_source`] is the general engine: the *source* is any closure
//! that offers requests through an [`Ingress`] — the in-process replay
//! dispatcher ([`serve`]) and the network front end (`stmbench7-net`,
//! which decodes requests off TCP connections) are both such sources, so
//! admission control, batching and the latency decomposition are written
//! once. An *observer* callback sees every completed request from the
//! worker that ran it, which is how the network server sends responses
//! without the pool knowing about sockets.
//!
//! The same request stream can also be run *closed-loop*
//! ([`run_stream_closed`]): one thread, no queue, operations
//! back-to-back. Both paths execute identical operations with identical
//! per-request random choices, which is what the sequential-oracle test
//! leans on: serving a stream must not change any operation's outcome.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stmbench7_backend::{Backend, TxOperation};
use stmbench7_core::{
    access_spec, merge_ops, op_ledger, primary_shard, run_op, BackendCounters, Flight, OpCtx,
    OpFilter, OpKind, OpReport, Report, ServiceStats, Timeseries, WindowAcc, WorkloadMix,
    WorkloadType,
};
use stmbench7_data::{AccessSpec, OpOutcome, Sb7Tx, StructureParams, TxR};
use stmbench7_obs::{EventKind, FlightRecorder, Layer, Recorder};

use stmbench7_backend::queue::{Admission, BoundedQueue};

use crate::schedule::{Request, Schedule};

/// How the service routes queued requests to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Affinity {
    /// One shared queue; any idle worker takes the next request.
    #[default]
    None,
    /// Per-worker sub-queues keyed by the request's declared primary
    /// shard ([`primary_shard`]), with work stealing as the fallback, so
    /// a shard's index nodes stay hot in one worker's cache. Requests
    /// without a shard declaration spread round-robin by id.
    Shard,
}

impl Affinity {
    /// Parses a CLI/spec value (`none` | `shard`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Affinity::None),
            "shard" => Some(Affinity::Shard),
            _ => None,
        }
    }

    /// The stable key used in reports and lab cell names.
    pub fn key(self) -> &'static str {
        match self {
            Affinity::None => "none",
            Affinity::Shard => "shard",
        }
    }
}

/// Full configuration of a service run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The arrival schedule requests are replayed from.
    pub schedule: Schedule,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound of the request queue (split across sub-queues under shard
    /// affinity).
    pub queue_cap: usize,
    /// What happens when the queue is full (block or reject).
    pub admission: Admission,
    /// Maximum number of lock-compatible requests folded into one
    /// backend execution (1 = batching off). Read-only runs always
    /// merge; writers merge when their access specs are group-commit
    /// compatible ([`AccessSpec::compatible_for_group_commit`]).
    pub batch_max: usize,
    /// Worker routing policy (shared queue vs shard-affine sub-queues).
    pub affinity: Affinity,
    /// The mix requests are drawn from.
    pub workload: WorkloadType,
    /// Whether long traversals are in the mix.
    pub long_traversals: bool,
    /// Whether structure modifications are in the mix.
    pub structure_mods: bool,
    /// The §5 operation filter.
    pub filter: OpFilter,
    /// Seed of the request stream (and, derived, of every request).
    pub seed: u64,
    /// Lifecycle trace recorder (`--trace`); disabled by default.
    pub recorder: Recorder,
    /// Flight-recorder sampling window (`--window`), milliseconds.
    /// `None` disables windowed telemetry (and the live counters the
    /// metrics endpoint reads).
    pub window_ms: Option<u64>,
}

impl ServeConfig {
    /// A deterministic single-purpose configuration: 2 workers, blocking
    /// admission, no batching, all operations on.
    pub fn new(schedule: Schedule, workload: WorkloadType, seed: u64) -> Self {
        ServeConfig {
            schedule,
            workers: 2,
            queue_cap: 1024,
            admission: Admission::Block,
            batch_max: 1,
            affinity: Affinity::None,
            workload,
            long_traversals: true,
            structure_mods: true,
            filter: OpFilter::none(),
            seed,
            recorder: Recorder::default(),
            window_ms: None,
        }
    }

    /// The operation mix this configuration draws requests from — the
    /// same pool the closed-loop engine uses.
    pub fn mix(&self) -> WorkloadMix {
        WorkloadMix::compute(
            self.workload,
            self.long_traversals,
            self.structure_mods,
            &self.filter,
        )
    }

    /// The first `n` requests of this configuration's schedule.
    pub fn generate(&self, n: u64) -> Vec<Request> {
        self.schedule.generate(&self.mix(), self.seed, n)
    }

    /// Every request of this configuration's schedule arriving before
    /// `horizon` (`None` for closed schedules; use [`Self::generate`]).
    pub fn generate_for(&self, horizon: Duration) -> Option<Vec<Request>> {
        self.schedule.generate_for(&self.mix(), self.seed, horizon)
    }
}

/// A completed service run: the merged [`Report`] (with
/// [`ServiceStats`] attached) plus the per-request outcomes, indexed by
/// request id (`None` = rejected by admission control).
pub struct ServeResult {
    /// The merged run report, service stats attached.
    pub report: Report,
    /// Per-request outcomes, indexed by request id.
    pub outcomes: Vec<Option<OpOutcome>>,
}

/// The outcome of a non-blocking offer ([`Ingress::offer_nonblocking`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// Enqueued; the id is consumed.
    Admitted,
    /// Reject-on-full dropped it; the drop is counted and the id stays
    /// unexecuted (`None`) in the outcome vector.
    Rejected,
    /// Blocking admission found the queue full. The id was rolled back —
    /// the caller keeps the request and retries when the queue drains.
    Saturated,
}

/// The live front door of a running service: offers requests into the
/// bounded queue under the configured admission policy, and hands out
/// timestamps and dense request ids to dynamic sources (the network
/// server) whose streams are not known up front.
///
/// Contract: request ids must be dense `0..offered` — either
/// pre-assigned by a schedule and offered in order, or claimed through
/// [`Ingress::claim_id`] and then offered exactly once. The outcome
/// vector of the run is indexed by them.
pub struct Ingress<'q> {
    /// One queue under [`Affinity::None`]; one per worker under
    /// [`Affinity::Shard`].
    queues: &'q [BoundedQueue<Request>],
    affinity: Affinity,
    params: StructureParams,
    admission: Admission,
    epoch: Instant,
    next_id: AtomicU64,
    offered: AtomicU64,
    rejected: AtomicU64,
    recorder: Recorder,
    /// The run's flight recorder and window latencies (off when
    /// `window_ms` is unset).
    flight: &'q Flight,
}

impl Ingress<'_> {
    /// Nanoseconds since the run's epoch — what a dynamic source stamps
    /// `Request::arrival_ns` with at decode time.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The sub-queue a request routes to: its declared primary shard's
    /// worker under shard affinity, round-robin by id for requests
    /// without a shard declaration, queue 0 otherwise.
    fn route(&self, req: &Request) -> &BoundedQueue<Request> {
        let idx = match self.affinity {
            Affinity::None => 0,
            Affinity::Shard => primary_shard(req.op, &self.params, req.rng_seed)
                .map_or(req.id as usize % self.queues.len(), |s| {
                    s % self.queues.len()
                }),
        };
        &self.queues[idx]
    }

    /// A fresh dense request id. Every claimed id must be offered.
    pub fn claim_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Offers one request under the admission policy. Returns `false`
    /// when reject-on-full dropped it (the drop is counted; the id stays
    /// unexecuted in the outcome vector).
    pub fn offer(&self, req: Request) -> bool {
        let id = req.id;
        let queue = self.route(&req);
        self.offered.fetch_add(1, Ordering::Relaxed);
        match self.admission {
            Admission::Block => {
                queue.push_blocking(req);
                self.recorder
                    .instant(Layer::Service, EventKind::QueueAdmit, "queue", id);
                true
            }
            Admission::Reject => {
                if queue.try_push(req).is_err() {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.flight.recorder.add_rejected(1);
                    self.recorder
                        .instant(Layer::Service, EventKind::QueueReject, "queue", id);
                    false
                } else {
                    self.recorder
                        .instant(Layer::Service, EventKind::QueueAdmit, "queue", id);
                    true
                }
            }
        }
    }

    /// Offers one request without ever blocking the caller — the event
    /// loop's front door. `req.id` must be the most recent
    /// [`Self::claim_id`] (claiming first lets the caller route the
    /// response *before* a worker can possibly complete the request). A
    /// full queue under blocking admission returns [`Offer::Saturated`]
    /// and rolls the id back, so ids stay dense; the caller keeps the
    /// request, pauses intake, and retries when the queue drains.
    ///
    /// The rollback assumes a single offering thread (true for the
    /// event-loop server); don't mix this with concurrent
    /// [`Self::claim_id`] callers.
    pub fn offer_nonblocking(&self, req: Request) -> Offer {
        let id = req.id;
        let queue = self.route(&req);
        match self.admission {
            Admission::Reject => {
                self.offered.fetch_add(1, Ordering::Relaxed);
                if queue.try_push(req).is_err() {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.flight.recorder.add_rejected(1);
                    self.recorder
                        .instant(Layer::Service, EventKind::QueueReject, "queue", id);
                    Offer::Rejected
                } else {
                    self.recorder
                        .instant(Layer::Service, EventKind::QueueAdmit, "queue", id);
                    Offer::Admitted
                }
            }
            Admission::Block => {
                if queue.try_push(req).is_err() {
                    let next = self.next_id.fetch_sub(1, Ordering::Relaxed);
                    debug_assert_eq!(next, id + 1, "rollback needs the latest claimed id");
                    Offer::Saturated
                } else {
                    self.offered.fetch_add(1, Ordering::Relaxed);
                    self.recorder
                        .instant(Layer::Service, EventKind::QueueAdmit, "queue", id);
                    Offer::Admitted
                }
            }
        }
    }

    /// Requests offered so far (admitted or rejected).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Requests sitting in the admission queue(s) right now. Racy by
    /// nature — an observation gauge, never a synchronization input.
    pub fn queue_depth(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// Counts one driver reconnect on the flight recorder (the network
    /// server calls this when an accepted connection reuses a slot a
    /// previous connection died in).
    pub fn note_reconnect(&self) {
        self.flight.recorder.add_reconnects(1);
    }

    /// The Prometheus text exposition of the run's live counters —
    /// what the `net-serve --metrics` endpoint serves per scrape. The
    /// latency histogram is the closed-window totals plus the open
    /// window, so a scrape always sees every sample recorded so far.
    /// All-zero (but well-formed) when the flight recorder is off.
    pub fn metrics_text(&self) -> String {
        crate::metrics::render_prometheus(
            &self.flight.recorder.totals(),
            &self.flight.latency_so_far(),
            self.queue_depth(),
        )
    }
}

/// Executes a batch of requests inside one transaction. Every request
/// re-seeds the context RNG from its own `rng_seed`, so retries (STM) and
/// re-executions (fine-grained discovery) replay identical choices, and
/// outcomes are independent of which worker runs the batch.
struct BatchRunner<'a> {
    batch: &'a [Request],
    ctx: &'a mut OpCtx,
    /// Execution attempts the backend made for this batch; anything past
    /// the first is an abort-and-retry.
    attempts: u64,
}

impl TxOperation<Vec<OpOutcome>> for BatchRunner<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<Vec<OpOutcome>> {
        let mut outcomes = Vec::with_capacity(self.batch.len());
        for req in self.batch {
            self.ctx.rng = SmallRng::seed_from_u64(req.rng_seed);
            outcomes.push(run_op(req.op, tx, self.ctx)?);
        }
        Ok(outcomes)
    }

    fn begin_attempt(&mut self) {
        self.attempts += 1;
    }
}

/// One worker's ledger: the engine's per-operation rows plus the
/// latency split, the outcomes it produced, and its window chunk.
struct WorkerLedger<'f> {
    ops: Vec<OpReport>,
    svc: ServiceStats,
    outcomes: Vec<(u64, OpOutcome)>,
    win: WindowAcc<'f>,
}

impl<'f> WorkerLedger<'f> {
    fn new(mix: &WorkloadMix, flight: &'f Flight) -> Self {
        WorkerLedger {
            ops: op_ledger(mix),
            svc: ServiceStats::default(),
            outcomes: Vec::new(),
            win: flight.acc(),
        }
    }

    fn record(&mut self, req: &Request, outcome: OpOutcome, start_ns: u64, end_ns: u64) {
        let service_ns = end_ns - start_ns;
        let done = matches!(outcome, OpOutcome::Done(_));
        self.ops[req.op.index()].record(done, service_ns, true);
        self.svc.record(
            req.op.category(),
            start_ns.saturating_sub(req.arrival_ns),
            service_ns,
            end_ns.saturating_sub(req.arrival_ns),
        );
        self.outcomes.push((req.id, outcome));
    }
}

fn op_specs(params: &StructureParams) -> Vec<AccessSpec> {
    OpKind::ALL
        .iter()
        .map(|op| access_spec(*op, params.assembly_levels))
        .collect()
}

fn batch_spec(specs: &[AccessSpec], batch: &[Request]) -> AccessSpec {
    let mut spec = specs[batch[0].op.index()];
    for req in &batch[1..] {
        spec = spec.union(&specs[req.op.index()]);
    }
    spec
}

/// Pre-computed group-commit compatibility between every pair of
/// operation types: bit `j` of entry `i` says ops `i` and `j` may share
/// a batch. Declared access specs are per-op-type constants, so the
/// whole predicate flattens to one table lookup on the queue's hot path.
fn op_compat_table(specs: &[AccessSpec]) -> [u64; 45] {
    let mut table = [0u64; 45];
    for (i, a) in specs.iter().enumerate() {
        for (j, b) in specs.iter().enumerate() {
            if a.compatible_for_group_commit(b) {
                table[i] |= 1 << j;
            }
        }
    }
    table
}

#[allow(clippy::too_many_arguments)] // Worker-loop plumbing, not an API.
fn execute_batch<B: Backend>(
    backend: &B,
    specs: &[AccessSpec],
    batch: &[Request],
    ctx: &mut OpCtx,
    epoch: Instant,
    recorder: &Recorder,
    flight: &FlightRecorder,
    worker: &mut WorkerLedger<'_>,
    observe: &(impl Fn(&Request, &OpOutcome, u64, u64) + ?Sized),
) {
    let spec = batch_spec(specs, batch);
    let trace_t0 = recorder.now_ns();
    let t0 = Instant::now();
    let mut runner = BatchRunner {
        batch,
        ctx,
        attempts: 0,
    };
    let outcomes = backend.execute(&spec, &mut runner);
    let attempts = runner.attempts;
    let aborts = attempts.saturating_sub(1);
    let end_ns = epoch.elapsed().as_nanos() as u64;
    let start_ns = (t0 - epoch).as_nanos() as u64;
    let busy_ns = end_ns.saturating_sub(start_ns);
    let svc = &mut worker.svc;
    svc.batches += 1;
    let write_batch = batch.len() > 1 && batch.iter().any(|r| !r.op.is_read_only());
    if write_batch {
        svc.write_batches += 1;
        svc.max_write_batch = svc.max_write_batch.max(batch.len() as u64);
    }
    svc.busy_ns += busy_ns;
    // A retried batch is one abort; attribute it to the batch head's
    // operation (batches are homogeneous-enough: group-commit merges
    // only lock-compatible specs).
    worker.ops[batch[0].op.index()].aborts += aborts;
    if worker.win.enabled() {
        // Publish the batch's whole footprint in one flush, *before*
        // `observe` hands out responses: once a client holds a
        // response, a live scrape is guaranteed to count it.
        worker.win.execution(busy_ns, aborts);
        for (req, outcome) in batch.iter().zip(&outcomes) {
            let failed = matches!(outcome, OpOutcome::Fail(_));
            worker
                .win
                .answer(failed, end_ns.saturating_sub(req.arrival_ns));
        }
        worker.win.flush();
        flight.add_batch(write_batch);
    }
    for (req, outcome) in batch.iter().zip(outcomes) {
        if recorder.is_enabled() {
            recorder.push(
                Layer::Engine,
                EventKind::Op,
                req.op.name(),
                trace_t0,
                busy_ns,
                attempts,
            );
            if matches!(outcome, OpOutcome::Fail(_)) {
                recorder.instant(Layer::Engine, EventKind::OpFail, req.op.name(), req.id);
            }
        }
        observe(req, &outcome, start_ns, end_ns);
        worker.record(req, outcome, start_ns, end_ns);
    }
}

/// End-of-run accounting that travels alongside the worker ledgers.
struct RunTotals {
    elapsed: Duration,
    offered: u64,
    rejected: u64,
    counters: BackendCounters,
    timeseries: Option<Timeseries>,
}

fn merge_into_report<B: Backend>(
    backend: &B,
    cfg: &ServeConfig,
    mix: &WorkloadMix,
    workers: Vec<WorkerLedger<'_>>,
    totals: RunTotals,
) -> ServeResult {
    let mut per_op = op_ledger(mix);
    let mut svc = ServiceStats {
        schedule: cfg.schedule.key(),
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        batch_max: cfg.batch_max,
        affinity: cfg.affinity.key().to_string(),
        offered: totals.offered,
        rejected: totals.rejected,
        // Busy time per worker, in worker order. Stolen batches execute
        // on the thief's thread and accrue into the thief's ledger, so
        // this is genuinely "who did the work", not "whose queue it sat
        // in".
        worker_busy_ns: workers.iter().map(|w| w.svc.busy_ns).collect(),
        trace_dropped: cfg.recorder.dropped(),
        ..ServiceStats::default()
    };
    let mut outcomes: Vec<Option<OpOutcome>> = vec![None; totals.offered as usize];
    for worker in &workers {
        merge_ops(&mut per_op, &worker.ops);
        svc.merge(&worker.svc);
        for &(id, outcome) in &worker.outcomes {
            outcomes[id as usize] = Some(outcome);
        }
    }
    let BackendCounters { stm, contention } = totals.counters;
    let report = Report {
        backend: backend.name().to_string(),
        threads: cfg.workers,
        workload: cfg.workload,
        long_traversals: cfg.long_traversals,
        structure_mods: cfg.structure_mods,
        seed: cfg.seed,
        elapsed: totals.elapsed,
        per_op,
        stm,
        contention,
        timeseries: totals.timeseries,
        service: Some(svc),
    };
    ServeResult { report, outcomes }
}

/// Runs the queue/worker machinery over requests offered by an arbitrary
/// *source*: `feed` runs on the calling thread with an [`Ingress`] handle
/// and offers requests until its stream ends (return closes the queue;
/// the workers drain what remains and stop). `observe` is invoked from
/// the executing worker for every completed request — the hook the
/// network server answers responses from; in-process callers pass a
/// no-op.
///
/// Returns the merged [`ServeResult`] together with whatever `feed`
/// returned.
pub fn serve_source<B: Backend, R>(
    backend: &B,
    params: &StructureParams,
    cfg: &ServeConfig,
    feed: impl FnOnce(&Ingress<'_>) -> R,
    observe: impl Fn(&Request, &OpOutcome, u64, u64) + Sync,
) -> (ServeResult, R) {
    assert!(cfg.workers >= 1, "at least one worker required");
    assert!(cfg.batch_max >= 1, "batch_max must be at least 1");
    let mix = cfg.mix();
    let specs = op_specs(params);
    // Shard affinity gives each worker its own sub-queue (the shared cap
    // split between them); otherwise one shared queue keeps the original
    // any-worker semantics.
    let nqueues = match cfg.affinity {
        Affinity::None => 1,
        Affinity::Shard => cfg.workers,
    };
    let queues: Vec<BoundedQueue<Request>> = (0..nqueues)
        .map(|_| BoundedQueue::new((cfg.queue_cap / nqueues).max(1)))
        .collect();
    let batch_max = cfg.batch_max;
    let compat = op_compat_table(&specs);
    let compatible = move |a: &Request, b: &Request| {
        batch_max > 1 && compat[a.op.index()] >> b.op.index() & 1 == 1
    };

    let counters = BackendCounters::read(backend);
    // Workers publish per-batch measurements, the scoped sampler thread
    // cuts windows, live scrapes read the cumulative side through
    // `Ingress::metrics_text`.
    let flight = Flight::new(cfg.window_ms);

    let epoch = Instant::now();
    let ingress = Ingress {
        queues: &queues,
        affinity: cfg.affinity,
        params: params.clone(),
        admission: cfg.admission,
        epoch,
        next_id: AtomicU64::new(0),
        offered: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        recorder: cfg.recorder.clone(),
        flight: &flight,
    };

    let (workers, fed): (Vec<WorkerLedger<'_>>, R) = std::thread::scope(|scope| {
        flight.spawn_sampler(
            scope,
            || queues.iter().map(|q| q.len() as u64).sum(),
            || backend.contention(),
        );
        let mut handles = Vec::with_capacity(cfg.workers);
        for worker_id in 0..cfg.workers {
            let queues = &queues;
            let specs = &specs;
            let mix = &mix;
            let compatible = &compatible;
            let observe = &observe;
            let flight = &flight;
            handles.push(scope.spawn(move || {
                // The context RNG is re-seeded per request from the
                // request itself; the worker seed only covers the (never
                // drawn) idle state.
                let mut ctx = OpCtx::new(
                    params.clone(),
                    cfg.seed ^ (worker_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut worker = WorkerLedger::new(mix, flight);
                let mut steals = 0u64;
                let worker_t0 = Instant::now();
                {
                    let mut run = |batch: Vec<Request>| {
                        execute_batch(
                            backend,
                            specs,
                            &batch,
                            &mut ctx,
                            epoch,
                            &cfg.recorder,
                            &flight.recorder,
                            &mut worker,
                            observe,
                        );
                    };
                    match cfg.affinity {
                        // The shared combiner loop (also the RCL
                        // backend's server loop): batches until closed
                        // and drained.
                        Affinity::None => queues[0].drain(cfg.batch_max, compatible, &mut run),
                        // Shard-affine loop: drain the worker's own
                        // sub-queue, steal from peers when it runs dry,
                        // park briefly when everything is empty.
                        Affinity::Shard => loop {
                            let batch = queues[worker_id].try_pop_batch(cfg.batch_max, compatible);
                            if !batch.is_empty() {
                                run(batch);
                                continue;
                            }
                            let stolen = (1..queues.len()).find_map(|i| {
                                let peer = (worker_id + i) % queues.len();
                                let b = queues[peer].try_pop_batch(cfg.batch_max, compatible);
                                (!b.is_empty()).then_some(b)
                            });
                            if let Some(batch) = stolen {
                                steals += batch.len() as u64;
                                flight.recorder.add_steal();
                                run(batch);
                                continue;
                            }
                            if queues.iter().all(BoundedQueue::is_finished) {
                                break;
                            }
                            let batch = queues[worker_id].pop_batch_timeout(
                                cfg.batch_max,
                                compatible,
                                Duration::from_millis(1),
                            );
                            if !batch.is_empty() {
                                run(batch);
                            }
                        },
                    }
                }
                worker.svc.steals = steals;
                // Whatever wall time was not spent in a batch, the worker
                // spent waiting on the queue.
                let total_ns = worker_t0.elapsed().as_nanos() as u64;
                worker.svc.idle_ns = total_ns.saturating_sub(worker.svc.busy_ns);
                worker
            }));
        }

        // This thread is the source: offer until the stream ends.
        let fed = feed(&ingress);
        for queue in &queues {
            queue.close();
        }

        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect();
        // Cut the final partial window and release the sampler before
        // the scope joins it.
        flight.stop();
        (workers, fed)
    });

    let elapsed = epoch.elapsed();
    let result = merge_into_report(
        backend,
        cfg,
        &mix,
        workers,
        RunTotals {
            elapsed,
            offered: ingress.offered.load(Ordering::Relaxed),
            rejected: ingress.rejected.load(Ordering::Relaxed),
            counters: counters.since(backend),
            timeseries: flight.timeseries(),
        },
    );
    (result, fed)
}

/// Serves a request stream: replays the arrival schedule into the queue
/// (open-loop; time is honored — the dispatcher sleeps until each
/// scheduled arrival) and drains it with `cfg.workers` worker threads.
///
/// Queue wait is measured from the *scheduled* arrival, not the enqueue
/// instant, so dispatcher lag and admission backpressure count as
/// queueing delay rather than being silently omitted.
pub fn serve<B: Backend>(
    backend: &B,
    params: &StructureParams,
    cfg: &ServeConfig,
    requests: &[Request],
) -> ServeResult {
    serve_source(
        backend,
        params,
        cfg,
        |ingress| {
            for req in requests {
                let target = ingress.epoch + Duration::from_nanos(req.arrival_ns);
                let now = Instant::now();
                if now < target {
                    std::thread::sleep(target - now);
                }
                ingress.offer(*req);
            }
        },
        |_, _, _, _| {},
    )
    .0
}

/// Runs the same request stream closed-loop: one thread, no queue, no
/// arrival times — operations back-to-back in stream order, exactly as
/// the paper's engine would issue them. The sequential oracle: for a
/// deterministic backend, [`serve`] with one worker must produce the
/// same outcome for every request.
pub fn run_stream_closed<B: Backend>(
    backend: &B,
    params: &StructureParams,
    cfg: &ServeConfig,
    requests: &[Request],
) -> ServeResult {
    let mix = cfg.mix();
    let specs = op_specs(params);
    let counters = BackendCounters::read(backend);
    let epoch = Instant::now();
    let mut ctx = OpCtx::new(params.clone(), cfg.seed);
    // Closed-loop oracle runs are never sampled: no queue, no windows.
    let flight = Flight::new(None);
    let mut worker = WorkerLedger::new(&mix, &flight);
    for req in requests {
        execute_batch(
            backend,
            &specs,
            std::slice::from_ref(req),
            &mut ctx,
            epoch,
            &cfg.recorder,
            &flight.recorder,
            &mut worker,
            &|_: &Request, _: &OpOutcome, _: u64, _: u64| {},
        );
    }
    let elapsed = epoch.elapsed();
    let mut result = merge_into_report(
        backend,
        cfg,
        &mix,
        vec![worker],
        RunTotals {
            elapsed,
            offered: requests.len() as u64,
            rejected: 0,
            counters: counters.since(backend),
            timeseries: None,
        },
    );
    // Closed-loop runs are not service runs: threads reflect the single
    // driving thread and no service stats are attached.
    result.report.threads = 1;
    result.report.service = None;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_backend::{CoarseBackend, SequentialBackend};
    use stmbench7_data::{validate, Workspace};

    fn tiny() -> (StructureParams, Workspace) {
        let params = StructureParams::tiny();
        let ws = Workspace::build(params.clone(), 7);
        (params, ws)
    }

    #[test]
    fn serve_accounts_for_every_request() {
        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let cfg = ServeConfig::new(Schedule::Closed { clients: 2 }, WorkloadType::ReadWrite, 42);
        let requests = cfg.generate(300);
        let result = serve(&backend, &params, &cfg, &requests);
        let report = &result.report;
        assert_eq!(report.total_started(), 300);
        let svc = report.service.as_ref().expect("service stats");
        assert_eq!(svc.offered, 300);
        assert_eq!(svc.rejected, 0);
        assert_eq!(svc.queue_wait.samples(), 300);
        assert_eq!(svc.service_time.samples(), 300);
        assert_eq!(svc.e2e.samples(), 300);
        assert!(result.outcomes.iter().all(Option::is_some));
        validate(&backend.export()).expect("structure intact");
    }

    #[test]
    fn reject_admission_drops_excess_load() {
        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let mut cfg = ServeConfig::new(Schedule::Closed { clients: 1 }, WorkloadType::ReadWrite, 1);
        // One worker, a 1-slot queue and a burst of simultaneous
        // arrivals: most of the stream must be rejected.
        cfg.workers = 1;
        cfg.queue_cap = 1;
        cfg.admission = Admission::Reject;
        let requests = cfg.generate(200);
        let result = serve(&backend, &params, &cfg, &requests);
        let svc = result.report.service.as_ref().unwrap();
        assert!(svc.rejected > 0, "a 1-slot queue must reject under burst");
        assert_eq!(
            result.report.total_started() + svc.rejected,
            200,
            "every request is either executed or rejected"
        );
        let n_none = result.outcomes.iter().filter(|o| o.is_none()).count();
        assert_eq!(n_none as u64, svc.rejected);
    }

    #[test]
    fn batching_folds_read_only_runs_into_fewer_executions() {
        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let mut cfg = ServeConfig::new(
            Schedule::Closed { clients: 1 },
            WorkloadType::ReadDominated,
            3,
        );
        cfg.workers = 1;
        cfg.batch_max = 8;
        let requests = cfg.generate(250);
        let result = serve(&backend, &params, &cfg, &requests);
        let svc = result.report.service.as_ref().unwrap();
        assert!(
            svc.batches < 250,
            "read-dominated stream must batch: {} executions",
            svc.batches
        );
        assert_eq!(result.report.total_started(), 250);
    }

    #[test]
    fn serve_source_feeds_dynamically_and_observes_every_request() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let cfg = ServeConfig::new(Schedule::Closed { clients: 1 }, WorkloadType::ReadWrite, 5);
        // A dynamic source in the network server's shape: ops drawn on
        // the fly, ids claimed from the ingress, arrivals stamped at
        // offer time.
        let mix = cfg.mix();
        let observed = AtomicU64::new(0);
        let (result, fed) = serve_source(
            &backend,
            &params,
            &cfg,
            |ingress| {
                let mut rng = SmallRng::seed_from_u64(99);
                for _ in 0..120 {
                    use rand::Rng;
                    let req = Request {
                        id: ingress.claim_id(),
                        arrival_ns: ingress.now_ns(),
                        op: mix.pick(&mut rng),
                        rng_seed: rng.gen(),
                    };
                    ingress.offer(req);
                }
                "stream-done"
            },
            |req, outcome, start_ns, end_ns| {
                assert!(start_ns <= end_ns, "request {} ran backwards", req.id);
                match outcome {
                    OpOutcome::Done(_) | OpOutcome::Fail(_) => {
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            },
        );
        assert_eq!(fed, "stream-done");
        assert_eq!(observed.load(Ordering::Relaxed), 120);
        assert_eq!(result.report.total_started(), 120);
        assert_eq!(result.outcomes.len(), 120);
        assert!(result.outcomes.iter().all(Option::is_some));
    }

    #[test]
    fn offer_nonblocking_rolls_back_ids_on_saturation() {
        let op = OpKind::ALL[0];
        let req = |id: u64| Request {
            id,
            arrival_ns: 0,
            op,
            rng_seed: id,
        };
        let queue: BoundedQueue<Request> = BoundedQueue::new(1);
        let flight = Flight::new(None);
        let ingress = Ingress {
            queues: std::slice::from_ref(&queue),
            affinity: Affinity::None,
            params: StructureParams::tiny(),
            admission: Admission::Block,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            recorder: Recorder::default(),
            flight: &flight,
        };
        assert_eq!(
            ingress.offer_nonblocking(req(ingress.claim_id())),
            Offer::Admitted
        );
        assert_eq!(
            ingress.offer_nonblocking(req(ingress.claim_id())),
            Offer::Saturated,
            "blocking admission must not block the event loop"
        );
        assert_eq!(ingress.offered(), 1, "a saturated offer is not counted");
        assert_eq!(queue.pop_batch(1, |_, _| true)[0].id, 0);
        let id = ingress.claim_id();
        assert_eq!(id, 1, "the rolled-back id is reused, keeping ids dense");
        assert_eq!(ingress.offer_nonblocking(req(id)), Offer::Admitted);

        let queue: BoundedQueue<Request> = BoundedQueue::new(1);
        let flight = Flight::new(None);
        let ingress = Ingress {
            queues: std::slice::from_ref(&queue),
            affinity: Affinity::None,
            params: StructureParams::tiny(),
            admission: Admission::Reject,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            recorder: Recorder::default(),
            flight: &flight,
        };
        assert_eq!(
            ingress.offer_nonblocking(req(ingress.claim_id())),
            Offer::Admitted
        );
        assert_eq!(
            ingress.offer_nonblocking(req(ingress.claim_id())),
            Offer::Rejected,
            "reject-on-full consumes the id: the slot stays None"
        );
        assert_eq!(ingress.offered(), 2);
        assert_eq!(ingress.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_category_split_accounts_for_every_request() {
        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let cfg = ServeConfig::new(Schedule::Closed { clients: 2 }, WorkloadType::ReadWrite, 17);
        let requests = cfg.generate(400);
        let result = serve(&backend, &params, &cfg, &requests);
        let svc = result.report.service.as_ref().expect("service stats");
        // Each request lands in exactly one category lane.
        let cat_samples: u64 = svc
            .per_category
            .iter()
            .map(|c| c.queue_wait.samples())
            .sum();
        assert_eq!(cat_samples, 400);
        let svc_samples: u64 = svc
            .per_category
            .iter()
            .map(|c| c.service_time.samples())
            .sum();
        assert_eq!(svc_samples, 400);
        // The rw mix draws all four categories over 400 requests.
        assert!(
            svc.per_category.iter().all(|c| c.queue_wait.samples() > 0),
            "every category sampled"
        );
        // In-process runs carry no network lane.
        assert!(svc.network.is_none());
    }

    #[test]
    fn stolen_work_counts_toward_the_thief() {
        // Two workers under shard affinity, every request declaring a
        // shard that routes to worker 0's sub-queue. Worker 1 can only
        // ever obtain work by stealing — so any busy time it reports is
        // stolen work attributed to the executing worker, not the queue
        // owner.
        let params = StructureParams::tiny().with_shards(2);
        let ws = Workspace::build(params.clone(), 7);
        let backend = CoarseBackend::new(ws);
        let op = OpKind::Op1;
        let seeds: Vec<u64> = (0u64..)
            .filter(|s| primary_shard(op, &params, *s) == Some(0))
            .take(400)
            .collect();
        let requests: Vec<Request> = seeds
            .iter()
            .enumerate()
            .map(|(id, seed)| Request {
                id: id as u64,
                arrival_ns: 0,
                op,
                rng_seed: *seed,
            })
            .collect();
        let mut cfg = ServeConfig::new(Schedule::Closed { clients: 2 }, WorkloadType::ReadWrite, 5);
        cfg.workers = 2;
        cfg.affinity = Affinity::Shard;
        cfg.queue_cap = 8;
        let result = serve(&backend, &params, &cfg, &requests);
        assert_eq!(result.report.total_started(), 400);
        let svc = result.report.service.as_ref().expect("service stats");
        assert_eq!(svc.worker_busy_ns.len(), 2, "one lane per worker");
        assert_eq!(
            svc.worker_busy_ns.iter().sum::<u64>(),
            svc.busy_ns,
            "per-worker lanes sum to the total"
        );
        assert!(svc.steals > 0, "worker 1 found work only by stealing");
        assert!(
            svc.worker_busy_ns[1] > 0,
            "stolen batches execute on — and are billed to — the thief"
        );
    }

    #[test]
    fn windowed_serve_attaches_a_timeseries_and_serves_metrics() {
        let (params, ws) = tiny();
        let backend = SequentialBackend::new(ws);
        let mut cfg =
            ServeConfig::new(Schedule::Closed { clients: 2 }, WorkloadType::ReadWrite, 21);
        cfg.window_ms = Some(1);
        let requests = cfg.generate(300);
        // The feed doubles as a mid-run scraper: the exposition must be
        // servable while workers are still draining.
        let (result, scrape) = serve_source(
            &backend,
            &params,
            &cfg,
            |ingress| {
                for req in &requests {
                    ingress.offer(*req);
                }
                ingress.metrics_text()
            },
            |_, _, _, _| {},
        );
        assert!(scrape.contains("# TYPE stmbench7_ops_total counter"));
        assert!(scrape.contains("# TYPE stmbench7_queue_depth gauge"));
        assert!(scrape.contains("stmbench7_latency_us_bucket"));

        let ts = result.report.timeseries.as_ref().expect("sampled run");
        assert_eq!(ts.window_ms, 1);
        assert!(!ts.windows.is_empty());
        let completed: u64 = ts.windows.iter().map(|w| w.completed).sum();
        assert_eq!(completed, 300, "window deltas sum to the run total");
        let samples: u64 = ts.windows.iter().map(|w| w.latency.samples).sum();
        assert_eq!(samples, 300, "every e2e sample lands in some window");
        let svc = result.report.service.as_ref().expect("service stats");
        let batches: u64 = ts.windows.iter().map(|w| w.batches).sum();
        assert_eq!(batches, svc.batches);

        // Unsampled runs carry no timeseries at all.
        let plain = serve(
            &backend,
            &params,
            &ServeConfig::new(Schedule::Closed { clients: 1 }, WorkloadType::ReadWrite, 21),
            &cfg.generate(50),
        );
        assert!(plain.report.timeseries.is_none());
    }

    #[test]
    fn multi_worker_serve_keeps_the_structure_valid() {
        let (params, ws) = tiny();
        let backend = CoarseBackend::new(ws);
        let mut cfg = ServeConfig::new(
            Schedule::Open { rate: 100_000.0 },
            WorkloadType::WriteDominated,
            11,
        );
        cfg.workers = 4;
        cfg.queue_cap = 64;
        let requests = cfg.generate(400);
        let result = serve(&backend, &params, &cfg, &requests);
        assert_eq!(result.report.total_started(), 400);
        validate(&backend.export()).expect("structure intact after writes");
    }
}
