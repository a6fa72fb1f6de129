//! The multi-threaded benchmark engine (paper §4).
//!
//! "STMBench7 runs a user-specified number of concurrent threads, all
//! performing operations on the shared data structure. The threads are
//! uniform in a sense that each picks its next operation randomly from
//! the whole pool of 45 STMBench7 operations. Each thread registers
//! locally its performance measurements. These are combined at the end of
//! the benchmark."

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stmbench7_backend::{Backend, TxOperation};
use stmbench7_data::{OpOutcome, Sb7Tx, StructureParams, TxR};
use stmbench7_obs::{EventKind, Layer, Recorder};

use crate::ledger::{merge_ops, op_ledger, BackendCounters, Flight};
use crate::ops::{access_spec, run_op, shard_hint, OpCtx, OpKind};
use crate::report::{OpReport, Report};
use crate::workload::{OpFilter, WorkloadMix, WorkloadType};

/// How long the benchmark runs.
#[derive(Clone, Copy, Debug)]
pub enum RunMode {
    /// Wall-clock duration (the paper's `-l length`).
    Timed(Duration),
    /// A fixed number of operations per thread — deterministic with one
    /// thread; used by tests and benches.
    FixedOps(u64),
}

/// Full benchmark configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Worker thread count (the paper's `-t`).
    pub threads: usize,
    /// Timed or fixed-operation-count run.
    pub mode: RunMode,
    /// Read-dominated / read-write / write-dominated mix (`-w`).
    pub workload: WorkloadType,
    /// The paper's `--no-traversals` switch, inverted.
    pub long_traversals: bool,
    /// The paper's `--no-sms` switch, inverted.
    pub structure_mods: bool,
    /// The §5 operation filter (e.g. `--astm-friendly`).
    pub filter: OpFilter,
    /// Root RNG seed; every thread and operation derives from it.
    pub seed: u64,
    /// Collect TTC histograms (`--ttc-histograms`).
    pub histograms: bool,
    /// Lifecycle trace recorder (`--trace`). Disabled by default — a
    /// disabled recorder costs one branch per probe site.
    pub recorder: Recorder,
    /// Flight-recorder sampling window (`--window`), milliseconds.
    /// `None` disables windowed telemetry entirely.
    pub window_ms: Option<u64>,
}

impl BenchConfig {
    /// A deterministic single-thread configuration used by tests.
    pub fn deterministic(workload: WorkloadType, ops: u64, seed: u64) -> Self {
        BenchConfig {
            threads: 1,
            mode: RunMode::FixedOps(ops),
            workload,
            long_traversals: true,
            structure_mods: true,
            filter: OpFilter::none(),
            seed,
            histograms: true,
            recorder: Recorder::default(),
            window_ms: None,
        }
    }
}

/// Operations per window-chunk flush — small against even a 1 ms window
/// at realistic throughputs, so windows stay sharp.
const FLUSH_EVERY: u64 = 64;

struct Runner<'c> {
    op: OpKind,
    ctx: &'c mut OpCtx,
    /// RNG state at the start of this operation; every attempt restarts
    /// from here so retries (STM) and re-executions (fine-grained
    /// discovery + execution) replay identical random choices.
    attempt_rng: rand::rngs::SmallRng,
    /// Execution attempts the backend made for this operation; anything
    /// past the first is an abort-and-retry.
    attempts: u64,
}

impl<'c> Runner<'c> {
    fn new(op: OpKind, ctx: &'c mut OpCtx) -> Self {
        Runner {
            op,
            attempt_rng: ctx.rng.clone(),
            ctx,
            attempts: 0,
        }
    }
}

impl TxOperation<OpOutcome> for Runner<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<OpOutcome> {
        run_op(self.op, tx, self.ctx)
    }

    fn begin_attempt(&mut self) {
        self.attempts += 1;
        self.ctx.rng = self.attempt_rng.clone();
    }
}

/// Runs the benchmark over a backend and merges all measurements.
pub fn run_benchmark<B: Backend>(
    backend: &B,
    params: &StructureParams,
    cfg: &BenchConfig,
) -> Report {
    assert!(cfg.threads >= 1, "at least one thread required");
    let mix = WorkloadMix::compute(
        cfg.workload,
        cfg.long_traversals,
        cfg.structure_mods,
        &cfg.filter,
    );
    let specs: Vec<_> = OpKind::ALL
        .iter()
        .map(|op| access_spec(*op, params.assembly_levels))
        .collect();

    let stop = AtomicBool::new(false);
    let started_at = Instant::now();
    let counters = BackendCounters::read(backend);
    // Workers chunk-flush into the flight recorder; the closed loop has
    // no admission queue, so the depth gauge reads zero.
    let flight = Flight::new(cfg.window_ms);

    let ledgers: Vec<Vec<OpReport>> = std::thread::scope(|scope| {
        flight.spawn_sampler(scope, || 0, || backend.contention());
        let mut handles = Vec::with_capacity(cfg.threads);
        for thread_id in 0..cfg.threads {
            let mix = &mix;
            let specs = &specs;
            let stop = &stop;
            let flight = &flight;
            handles.push(scope.spawn(move || {
                let mut ctx = OpCtx::new(
                    params.clone(),
                    cfg.seed ^ (thread_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut ledger = op_ledger(mix);
                let deadline = match cfg.mode {
                    RunMode::Timed(d) => Some(Instant::now() + d),
                    RunMode::FixedOps(_) => None,
                };
                let budget = match cfg.mode {
                    RunMode::FixedOps(n) => n,
                    RunMode::Timed(_) => u64::MAX,
                };
                let mut executed = 0u64;
                let mut win = flight.acc();
                while executed < budget {
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline || stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    let op = mix.pick(&mut ctx.rng);
                    let i = op.index();
                    // Per-instance spec: narrow the atomic shard set when
                    // the operation's footprint is known from its pre-drawn
                    // ids (sharded structures only; see `shard_hint`).
                    let mut spec = specs[i];
                    if let Some(hint) = shard_hint(op, &ctx) {
                        spec.atomic_shards = hint;
                    }
                    let trace_t0 = cfg.recorder.now_ns();
                    let t0 = Instant::now();
                    let mut runner = Runner::new(op, &mut ctx);
                    let outcome = backend.execute(&spec, &mut runner);
                    let attempts = runner.attempts;
                    let aborts = attempts.saturating_sub(1);
                    let dt = t0.elapsed().as_nanos() as u64;
                    let done = matches!(outcome, OpOutcome::Done(_));
                    if cfg.recorder.is_enabled() {
                        cfg.recorder.push(
                            Layer::Engine,
                            EventKind::Op,
                            op.name(),
                            trace_t0,
                            dt,
                            attempts,
                        );
                        if !done {
                            cfg.recorder
                                .instant(Layer::Engine, EventKind::OpFail, op.name(), 0);
                        }
                    }
                    if win.enabled() {
                        win.execution(dt, aborts);
                        win.answer(!done, dt);
                        if win.pending() >= FLUSH_EVERY {
                            win.flush();
                        }
                    }
                    ledger[i].aborts += aborts;
                    ledger[i].record(done, dt, cfg.histograms);
                    executed += 1;
                }
                win.flush();
                stop.store(true, Ordering::Relaxed);
                ledger
            }));
        }
        let ledgers = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect();
        // Cut the final partial window and release the sampler before
        // the scope joins it.
        flight.stop();
        ledgers
    });

    let elapsed = started_at.elapsed();
    let BackendCounters { stm, contention } = counters.since(backend);
    let mut per_op = op_ledger(&mix);
    for ledger in &ledgers {
        merge_ops(&mut per_op, ledger);
    }

    Report {
        backend: backend.name().to_string(),
        threads: cfg.threads,
        workload: cfg.workload,
        long_traversals: cfg.long_traversals,
        structure_mods: cfg.structure_mods,
        seed: cfg.seed,
        elapsed,
        per_op,
        stm,
        contention,
        service: None,
        timeseries: flight.timeseries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_backend::SequentialBackend;
    use stmbench7_data::Workspace;

    #[test]
    fn deterministic_single_thread_runs_are_identical() {
        let params = StructureParams::tiny();
        let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 300, 42);
        let run = || {
            let ws = Workspace::build(params.clone(), 7);
            let backend = SequentialBackend::new(ws);
            run_benchmark(&backend, &params, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.total_failed(), b.total_failed());
        for (x, y) in a.per_op.iter().zip(&b.per_op) {
            assert_eq!(x.completed, y.completed, "{}", x.op.name());
            assert_eq!(x.failed, y.failed, "{}", x.op.name());
        }
    }

    #[test]
    fn fixed_ops_budget_is_respected() {
        let params = StructureParams::tiny();
        let ws = Workspace::build(params.clone(), 7);
        let backend = SequentialBackend::new(ws);
        let cfg = BenchConfig::deterministic(WorkloadType::ReadDominated, 200, 1);
        let report = run_benchmark(&backend, &params, &cfg);
        assert_eq!(report.total_started(), 200);
        // The structure must still be valid afterwards.
        stmbench7_data::validate(&backend.export()).unwrap();
    }

    #[test]
    fn histograms_account_for_every_completed_operation() {
        let params = StructureParams::tiny();
        let ws = Workspace::build(params.clone(), 7);
        let backend = SequentialBackend::new(ws);
        let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 400, 9);
        let report = run_benchmark(&backend, &params, &cfg);
        for o in &report.per_op {
            assert_eq!(
                o.hist.samples(),
                o.completed,
                "{}: histogram samples must equal completions",
                o.op.name()
            );
        }
        // And without the flag, nothing is recorded.
        let mut cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 100, 9);
        cfg.histograms = false;
        let ws = Workspace::build(params.clone(), 7);
        let report = run_benchmark(&SequentialBackend::new(ws), &params, &cfg);
        assert!(report.per_op.iter().all(|o| o.hist.samples() == 0));
    }

    #[test]
    fn windowed_run_produces_a_timeseries_that_sums_to_the_totals() {
        let params = StructureParams::tiny();
        let ws = Workspace::build(params.clone(), 7);
        let backend = SequentialBackend::new(ws);
        let mut cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 400, 11);
        cfg.window_ms = Some(1);
        let report = run_benchmark(&backend, &params, &cfg);
        let ts = report.timeseries.as_ref().expect("sampled run");
        assert_eq!(ts.window_ms, 1);
        assert!(!ts.windows.is_empty());
        let completed: u64 = ts.windows.iter().map(|w| w.completed).sum();
        let failed: u64 = ts.windows.iter().map(|w| w.failed).sum();
        assert_eq!(completed, report.total_started());
        assert_eq!(failed, report.total_failed());
        let samples: u64 = ts.windows.iter().map(|w| w.latency.samples).sum();
        assert_eq!(samples, report.total_started());

        // And the same run unsampled carries no timeseries.
        cfg.window_ms = None;
        let ws = Workspace::build(params.clone(), 7);
        let plain = run_benchmark(&SequentialBackend::new(ws), &params, &cfg);
        assert!(plain.timeseries.is_none());
    }

    #[test]
    fn timed_mode_stops() {
        let params = StructureParams::tiny();
        let ws = Workspace::build(params.clone(), 7);
        let backend = SequentialBackend::new(ws);
        let cfg = BenchConfig {
            threads: 2,
            mode: RunMode::Timed(Duration::from_millis(200)),
            workload: WorkloadType::ReadWrite,
            long_traversals: false,
            structure_mods: true,
            filter: OpFilter::none(),
            seed: 3,
            histograms: false,
            recorder: Recorder::default(),
            window_ms: None,
        };
        let report = run_benchmark(&backend, &params, &cfg);
        assert!(report.total_started() > 0);
        assert!(report.elapsed < Duration::from_secs(10));
    }
}
