//! The closed-loop workloads: `run_benchmark` — the paper's engine —
//! timed from outside. Throughput is wall time around the call;
//! per-operation latency comes from [`Timed`], a `Backend` that wraps
//! the product's backend and clocks every `execute` with raw
//! nanosecond samples.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use stmbench7_backend::{AnyBackend, Backend, BackendChoice, TxOperation};
use stmbench7_core::ops::shard_hint;
use stmbench7_core::{
    access_spec, run_benchmark, run_op, BenchConfig, OpCtx, OpFilter, OpKind, RunMode, WorkloadMix,
    WorkloadType,
};
use stmbench7_data::{
    validate, AccessSpec, DirectTx, OpOutcome, Sb7Tx, StructureParams, TxR, Workspace,
};
use stmbench7_obs::{ContentionSnapshot, Recorder};
use stmbench7_stm::StatsSnapshot;

use crate::fingerprint::{peak_rss_mib, reset_peak_rss};
use crate::workload::{latency_stats, rep_seed, tail_us, Rep, RunOutcome, Sizing};

/// One closed-loop workload's fixed configuration.
#[derive(Clone, Debug)]
pub struct ClosedWorkload {
    pub params: StructureParams,
    pub mix: WorkloadType,
    pub long_traversals: bool,
    pub strategy: &'static str,
    pub threads: usize,
    pub reps: usize,
    pub stream: Stream,
    /// The percentile of a rep's per-operation latency reported as
    /// `tail_us`.
    pub tail_percentile: f64,
    /// Warm-up operations per thread before each timed rep.
    pub warmup_ops: u64,
    /// Operations slower than this miss `within_limit_share`.
    pub limit_us: u64,
    /// Operations of the oracle replay.
    pub check_ops: u64,
}

/// What bounds a timed rep and seeds its operation stream.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Run for the rep's share of `--seconds`; the stream is drawn from
    /// `--seed`.
    Timed,
    /// Run `ops_per_second` × the rep's share of `--seconds` operations
    /// of the one stream `seed` draws, whatever `--seed` is.
    Fixed { seed: u64, ops_per_second: u64 },
}

impl ClosedWorkload {
    /// Run mode and stream seed of timed rep `rep`.
    pub fn timed_rep(&self, seed: u64, rep: usize, rep_seconds: f64) -> (RunMode, u64) {
        match self.stream {
            Stream::Timed => (
                RunMode::Timed(Duration::from_secs_f64(rep_seconds)),
                rep_seed(seed, rep),
            ),
            Stream::Fixed {
                seed,
                ops_per_second,
            } => (
                RunMode::FixedOps(((ops_per_second as f64 * rep_seconds) as u64).max(1)),
                seed,
            ),
        }
    }

    pub fn choice(&self) -> BackendChoice {
        BackendChoice::parse(self.strategy).expect("catalog strategy")
    }

    pub fn bench_config(&self, mode: RunMode, threads: usize, seed: u64) -> BenchConfig {
        BenchConfig {
            threads,
            mode,
            workload: self.mix,
            long_traversals: self.long_traversals,
            structure_mods: true,
            filter: OpFilter::none(),
            seed,
            histograms: false,
            recorder: Recorder::off(),
            window_ms: None,
        }
    }

    pub fn workload_mix(&self) -> WorkloadMix {
        WorkloadMix::compute(self.mix, self.long_traversals, true, &OpFilter::none())
    }
}

thread_local! {
    /// The (wrapper, slot) this thread last recorded into.
    static SLOT: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

static NEXT_WRAPPER: AtomicUsize = AtomicUsize::new(1);

/// A backend that times every `execute` of the backend it wraps. Each
/// calling thread claims its own sample slot on first use, so recording
/// is an uncontended lock and a push.
pub struct Timed<'b, B> {
    inner: &'b B,
    id: usize,
    next_slot: AtomicUsize,
    slots: Vec<Mutex<Vec<u64>>>,
}

impl<'b, B: Backend> Timed<'b, B> {
    pub fn new(inner: &'b B, threads: usize) -> Self {
        Timed {
            inner,
            id: NEXT_WRAPPER.fetch_add(1, Ordering::Relaxed),
            next_slot: AtomicUsize::new(0),
            slots: (0..threads)
                .map(|_| Mutex::new(Vec::with_capacity(1 << 16)))
                .collect(),
        }
    }

    fn record(&self, ns: u64) {
        let slot = SLOT.with(|cell| {
            let (owner, slot) = cell.get();
            if owner == self.id {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            assert!(slot < self.slots.len(), "more threads than sample slots");
            cell.set((self.id, slot));
            slot
        });
        self.slots[slot]
            .lock()
            .expect("sample slot poisoned")
            .push(ns);
    }

    /// All samples, ascending.
    pub fn into_sorted(self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .slots
            .into_iter()
            .flat_map(|s| s.into_inner().expect("sample slot poisoned"))
            .collect();
        all.sort_unstable();
        all
    }
}

impl<B: Backend> Backend for Timed<'_, B> {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        let t0 = Instant::now();
        let out = self.inner.execute(spec, op);
        self.record(t0.elapsed().as_nanos() as u64);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn export(&self) -> Workspace {
        self.inner.export()
    }

    fn stm_stats(&self) -> Option<StatsSnapshot> {
        self.inner.stm_stats()
    }

    fn contention(&self) -> Option<ContentionSnapshot> {
        self.inner.contention()
    }
}

/// Runs the workload untraced: `reps` × (rebuild → backend → warm-up →
/// timed `run_benchmark`), the structure validated after every rep.
pub fn run(w: &ClosedWorkload, seed: u64, sizing: &Sizing) -> RunOutcome {
    let mut out = RunOutcome::default();
    for rep in 0..w.reps {
        reset_peak_rss();
        let setup_t0 = Instant::now();
        let ws = Workspace::build(w.params.clone(), rep_seed(seed, rep));
        let backend = AnyBackend::build(w.choice(), ws);
        let (mode, stream_seed) = w.timed_rep(seed, rep, sizing.seconds / w.reps as f64);
        let warm = w.bench_config(
            RunMode::FixedOps(sizing.scale(w.warmup_ops)),
            w.threads,
            !stream_seed,
        );
        run_benchmark(&backend, &w.params, &warm);
        let setup_s = setup_t0.elapsed().as_secs_f64();

        let timed = Timed::new(&backend, w.threads);
        let cfg = w.bench_config(mode, w.threads, stream_seed);
        let t0 = Instant::now();
        let report = run_benchmark(&timed, &w.params, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mib();
        let samples = timed.into_sorted();

        let attempted = report.total_started();
        if samples.len() as u64 != attempted {
            out.fail(format!(
                "rep {rep}: {} timed executions for {attempted} operations",
                samples.len()
            ));
        }
        if let Err(e) = validate(&backend.export()) {
            out.fail(format!("rep {rep}: structure invalid after the run: {e}"));
        }
        let (p50_us, within) = latency_stats(&samples, w.limit_us, attempted, &mut out);
        let tail_us = tail_us(&samples, w.tail_percentile, sizing, &mut out);
        out.reps.push(Rep {
            setup_s,
            ops_per_s: attempted as f64 / wall,
            p50_us,
            tail_us,
            within_limit_share: within,
            peak_rss_mb,
            attempted,
            failed: 0,
            samples: samples.len(),
        });
    }
    check_oracle(w, seed, sizing, &mut out);
    out
}

/// One operation of the engine's stream, re-runnable: every attempt
/// restarts from the generator state the operation began with.
struct Runner<'c> {
    op: OpKind,
    ctx: &'c mut OpCtx,
    start_rng: SmallRng,
}

impl TxOperation<OpOutcome> for Runner<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<OpOutcome> {
        run_op(self.op, tx, self.ctx)
    }

    fn begin_attempt(&mut self) {
        self.ctx.rng = self.start_rng.clone();
    }
}

/// Replays the exact operation stream thread 0 of `run_benchmark`
/// draws for `seed` — pick, per-instance shard narrowing, execute —
/// handing each operation to `exec`.
pub fn engine_stream(
    w: &ClosedWorkload,
    seed: u64,
    ops: u64,
    mut exec: impl FnMut(OpKind, &AccessSpec, &mut OpCtx) -> OpOutcome,
) -> Vec<OpOutcome> {
    let mix = w.workload_mix();
    let specs: Vec<AccessSpec> = OpKind::ALL
        .iter()
        .map(|op| access_spec(*op, w.params.assembly_levels))
        .collect();
    let mut ctx = OpCtx::new(w.params.clone(), seed);
    (0..ops)
        .map(|_| {
            let op = mix.pick(&mut ctx.rng);
            let mut spec = specs[op.index()];
            if let Some(hint) = shard_hint(op, &ctx) {
                spec.atomic_shards = hint;
            }
            exec(op, &spec, &mut ctx)
        })
        .collect()
}

/// `exec` for [`engine_stream`]: through a backend.
pub fn via_backend<'b, B: Backend>(
    backend: &'b B,
) -> impl FnMut(OpKind, &AccessSpec, &mut OpCtx) -> OpOutcome + 'b {
    move |op, spec, ctx| {
        let start_rng = ctx.rng.clone();
        backend.execute(spec, &mut Runner { op, ctx, start_rng })
    }
}

/// `exec` for [`engine_stream`]: the bare operation body on a plain
/// workspace — no synchronization of any kind.
pub fn via_direct(
    ws: &mut Workspace,
) -> impl FnMut(OpKind, &AccessSpec, &mut OpCtx) -> OpOutcome + '_ {
    move |op, _, ctx| {
        run_op(op, &mut DirectTx::writing(ws), ctx).expect("a direct transaction cannot abort")
    }
}

/// The oracle: the workload's backend, driven by one thread, must
/// compute outcome for outcome what the bare operation bodies compute
/// on a plain workspace, and the engine on `sequential` must count the
/// same completions and benign failures per operation.
fn check_oracle(w: &ClosedWorkload, seed: u64, sizing: &Sizing, out: &mut RunOutcome) {
    let ops = sizing.scale(w.check_ops);
    let built = Workspace::build(w.params.clone(), seed);
    let mut plain = built.clone();
    let expected = engine_stream(w, seed, ops, via_direct(&mut plain));
    let backend = AnyBackend::build(w.choice(), built.clone());
    let got = engine_stream(w, seed, ops, via_backend(&backend));
    if got != expected {
        let at = got.iter().zip(&expected).position(|(a, b)| a != b);
        out.fail(format!(
            "oracle: {} diverges from the bare operation bodies at operation {at:?}",
            w.strategy
        ));
    }
    if validate(&backend.export()) != validate(&plain) {
        out.fail("oracle: structure census differs from the plain replay".into());
    }
    let sequential = AnyBackend::build(BackendChoice::Sequential, built);
    let report = run_benchmark(
        &sequential,
        &w.params,
        &w.bench_config(RunMode::FixedOps(ops), 1, seed),
    );
    let done = expected.iter().filter(|o| o.is_done()).count() as u64;
    if report.total_completed() != done || report.total_started() != ops {
        out.fail(format!(
            "oracle: engine on sequential completed {} of {}, the replay {done} of {ops}",
            report.total_completed(),
            report.total_started()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replayed_stream_is_the_engines_stream() {
        // `engine_stream` claims to reproduce what thread 0 of
        // `run_benchmark` executes; the per-operation ledgers must agree.
        let w = crate::workload::closed_config("closed_rw_medium");
        let ops = 3_000;
        let mut plain = Workspace::build(w.params.clone(), 5);
        let mut kinds = Vec::new();
        let mut direct = via_direct(&mut plain);
        let outcomes = engine_stream(&w, 5, ops, |op, spec, ctx| {
            kinds.push(op);
            direct(op, spec, ctx)
        });
        let backend = AnyBackend::build(
            BackendChoice::Sequential,
            Workspace::build(w.params.clone(), 5),
        );
        let report = run_benchmark(
            &backend,
            &w.params,
            &w.bench_config(RunMode::FixedOps(ops), 1, 5),
        );
        for r in &report.per_op {
            let of_kind = || kinds.iter().zip(&outcomes).filter(|(k, _)| **k == r.op);
            assert_eq!(r.started(), of_kind().count() as u64, "{}", r.op.name());
            assert_eq!(
                r.completed,
                of_kind().filter(|(_, o)| o.is_done()).count() as u64,
                "{}",
                r.op.name()
            );
        }
    }

    #[test]
    fn the_timing_wrapper_sees_every_execution_once() {
        let w = crate::workload::closed_config("closed_rw_tl2");
        let backend = AnyBackend::build(w.choice(), Workspace::build(w.params.clone(), 3));
        let timed = Timed::new(&backend, 2);
        let report = run_benchmark(
            &timed,
            &w.params,
            &w.bench_config(RunMode::FixedOps(500), 2, 3),
        );
        let samples = timed.into_sorted();
        assert_eq!(samples.len() as u64, report.total_started());
        assert_eq!(samples.len(), 1_000);
        assert!(samples.windows(2).all(|p| p[0] <= p[1]));
    }
}
