//! Run accounting, written once for every harness.
//!
//! The paper's §4: "each thread registers locally its performance
//! measurements; these are combined at the end of the benchmark". The
//! closed-loop engine, the service worker pool and the remote driver
//! all keep the same thread-local ledger — one [`OpReport`] row per
//! operation ([`op_ledger`], folded together by [`merge_ops`]), plus a
//! [`ServiceStats`](crate::ServiceStats) for runs with a latency split
//! — and all publish windowed telemetry through one accumulator
//! ([`WindowAcc`]) into one [`Flight`]. A window's latency sample is
//! every *answered* operation: a benign failure is an outcome, as the
//! benchmark counts it, so a served run and a closed-loop run of the
//! same stream report comparable window percentiles.

use std::sync::Mutex;
use std::thread::Scope;

use stmbench7_backend::Backend;
use stmbench7_obs::{ContentionSnapshot, FlightProbes, FlightRecorder, LatencyCut};
use stmbench7_stm::StatsSnapshot;

use crate::histogram::Histogram;
use crate::ops::OpKind;
use crate::report::{OpReport, Timeseries};
use crate::workload::WorkloadMix;

/// A thread's empty ledger: one zeroed row per operation, in
/// specification order, carrying the mix's configured ratios.
pub fn op_ledger(mix: &WorkloadMix) -> Vec<OpReport> {
    OpKind::ALL
        .iter()
        .map(|op| OpReport::empty(*op, mix.expected(*op)))
        .collect()
}

/// Folds one thread's ledger into the run's, row by row.
pub fn merge_ops(run: &mut [OpReport], thread: &[OpReport]) {
    for (row, theirs) in run.iter_mut().zip(thread) {
        row.merge(theirs);
    }
}

/// The backend's STM and always-on contention counters at one instant.
/// Read one at the start of a run; [`Self::since`] turns it into the
/// run's deltas — a report's `stm` and `contention` members.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendCounters {
    /// STM runtime statistics, for the STM backends.
    pub stm: Option<StatsSnapshot>,
    /// Contention counters, if the backend maintains them.
    pub contention: Option<ContentionSnapshot>,
}

impl BackendCounters {
    /// Reads the backend's cumulative counters now.
    pub fn read<B: Backend>(backend: &B) -> Self {
        BackendCounters {
            stm: backend.stm_stats(),
            contention: backend.contention(),
        }
    }

    /// What the counters grew by since `self` was read.
    pub fn since<B: Backend>(self, backend: &B) -> Self {
        let now = Self::read(backend);
        BackendCounters {
            stm: self
                .stm
                .zip(now.stm)
                .map(|(before, after)| after.delta(&before)),
            contention: self
                .contention
                .zip(now.contention)
                .map(|(before, after)| after.delta(&before)),
        }
    }
}

/// A run's flight recorder plus its window-latency histograms: the open
/// window (the sampler swaps it out at every cut) and the closed
/// windows merged (what a live scrape adds the open window to). Off
/// when the run has no `window_ms`.
#[derive(Debug)]
pub struct Flight {
    /// The windowed counters; harness-specific counters (rejections,
    /// batches, steals, reconnects) are bumped on it directly.
    pub recorder: FlightRecorder,
    open: Mutex<Histogram>,
    closed: Mutex<Histogram>,
}

impl Flight {
    /// A flight cutting `window_ms` windows, or an inert one for `None`.
    pub fn new(window_ms: Option<u64>) -> Self {
        Flight {
            recorder: window_ms.map_or_else(FlightRecorder::off, FlightRecorder::new),
            open: Mutex::new(Histogram::micros()),
            closed: Mutex::new(Histogram::micros()),
        }
    }

    /// A worker's accumulator publishing into this flight.
    pub fn acc(&self) -> WindowAcc<'_> {
        WindowAcc {
            flight: self,
            ops: 0,
            failed: 0,
            aborts: 0,
            busy_ns: 0,
            latencies_ns: Vec::new(),
        }
    }

    /// Runs the sampler on a thread of `scope` (nothing when off). Call
    /// [`Self::stop`] before the scope ends.
    pub fn spawn_sampler<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        queue_depth: impl Fn() -> u64 + Send + Sync + 'env,
        contention: impl Fn() -> Option<ContentionSnapshot> + Send + Sync + 'env,
    ) {
        if self.recorder.enabled() {
            scope.spawn(move || {
                self.recorder.run_sampler(FlightProbes {
                    queue_depth: &queue_depth,
                    latency_cut: &|| self.cut(),
                    contention: &contention,
                })
            });
        }
    }

    /// Closes the open latency window into the totals and returns its
    /// percentiles (the sampler's probe).
    fn cut(&self) -> LatencyCut {
        let window = std::mem::replace(
            &mut *self.open.lock().expect("latency window poisoned"),
            Histogram::micros(),
        );
        self.closed
            .lock()
            .expect("latency totals poisoned")
            .merge(&window);
        window.latency_cut()
    }

    /// Every latency sample published so far: the closed windows plus
    /// the open one (what a live scrape renders).
    pub fn latency_so_far(&self) -> Histogram {
        // One lock at a time — the sampler's cut takes them in the same
        // singly-held fashion, so no ordering deadlock exists.
        let mut all = self.closed.lock().expect("latency totals poisoned").clone();
        all.merge(&self.open.lock().expect("latency window poisoned"));
        all
    }

    /// Asks the sampler to cut the final window and exit.
    pub fn stop(&self) {
        self.recorder.stop();
    }

    /// The finished series (after the sampler has been joined); `None`
    /// when the run was not windowed.
    pub fn timeseries(&self) -> Option<Timeseries> {
        self.recorder.window_ms().map(|window_ms| Timeseries {
            window_ms,
            windows: self.recorder.take_samples(),
        })
    }
}

/// A worker's not-yet-published window chunk. Measurements batch
/// locally and [`Self::flush`] publishes them in a handful of relaxed
/// adds plus one histogram lock — the only path by which operations,
/// busy time and latencies reach the flight recorder.
pub struct WindowAcc<'f> {
    flight: &'f Flight,
    ops: u64,
    failed: u64,
    aborts: u64,
    busy_ns: u64,
    latencies_ns: Vec<u64>,
}

impl WindowAcc<'_> {
    /// True when the run is windowed; when false, skip the bookkeeping.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.flight.recorder.enabled()
    }

    /// Counts one backend execution (an operation, or a batch of them):
    /// its busy time and aborted attempts.
    #[inline]
    pub fn execution(&mut self, busy_ns: u64, aborts: u64) {
        self.busy_ns += busy_ns;
        self.aborts += aborts;
    }

    /// Counts one answered operation and its latency.
    #[inline]
    pub fn answer(&mut self, failed: bool, latency_ns: u64) {
        self.ops += 1;
        self.failed += u64::from(failed);
        self.latencies_ns.push(latency_ns);
    }

    /// Operations counted since the last flush.
    #[inline]
    pub fn pending(&self) -> u64 {
        self.ops
    }

    /// Publishes the chunk: latencies into the open window first, then
    /// the counters — so a sampler cut landing in between leaves the
    /// counters for a later window, never samples the final cut skips.
    pub fn flush(&mut self) {
        if self.ops == 0 && self.aborts == 0 {
            return;
        }
        let sum_ns: u64 = self.latencies_ns.iter().sum();
        let mut open = self.flight.open.lock().expect("latency window poisoned");
        for ns in self.latencies_ns.drain(..) {
            open.record(ns);
        }
        drop(open);
        let recorder = &self.flight.recorder;
        recorder.add_ops(self.ops, self.failed, self.aborts);
        recorder.add_busy_ns(self.busy_ns);
        recorder.add_latency_us(sum_ns / 1_000, self.ops);
        self.ops = 0;
        self.failed = 0;
        self.aborts = 0;
        self.busy_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_obs::WindowSample;

    #[test]
    fn a_windowed_flight_samples_what_its_workers_flush() {
        let flight = Flight::new(Some(1));
        std::thread::scope(|scope| {
            flight.spawn_sampler(scope, || 3, || None);
            let mut acc = flight.acc();
            for i in 0..100 {
                acc.execution(10, 0);
                acc.answer(i % 10 == 0, 2_000);
                if acc.pending() >= 16 {
                    acc.flush();
                }
            }
            acc.flush();
            flight.stop();
        });
        let ts = flight.timeseries().expect("windowed flight");
        assert_eq!(ts.window_ms, 1);
        let sum = |f: fn(&WindowSample) -> u64| ts.windows.iter().map(f).sum::<u64>();
        assert_eq!(sum(|w| w.completed), 100);
        assert_eq!(sum(|w| w.failed), 10);
        assert_eq!(sum(|w| w.busy_ns), 1_000);
        assert_eq!(sum(|w| w.latency.samples), 100, "the final cut lands");
        assert!(ts.windows.iter().all(|w| w.queue_depth == 3));
    }

    #[test]
    fn backend_counters_turn_readings_into_run_deltas() {
        use crate::engine::{run_benchmark, BenchConfig};
        use crate::workload::WorkloadType;
        use stmbench7_backend::{CoarseBackend, SequentialBackend};
        use stmbench7_data::{StructureParams, Workspace};

        let params = StructureParams::tiny();
        let plain = SequentialBackend::new(Workspace::build(params.clone(), 7));
        let none = BackendCounters::read(&plain).since(&plain);
        assert!(none.stm.is_none() && none.contention.is_none());

        let coarse = CoarseBackend::new(Workspace::build(params.clone(), 7));
        let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 50, 3);
        run_benchmark(&coarse, &params, &cfg);
        let before = BackendCounters::read(&coarse);
        let report = run_benchmark(&coarse, &params, &cfg);
        let delta = before.since(&coarse).contention.expect("coarse counts");
        assert_eq!(
            delta.lock_acquires, 50,
            "one acquisition per execute; the earlier run is excluded"
        );
        assert_eq!(report.contention.map(|c| c.lock_acquires), Some(50));
    }

    #[test]
    fn window_acc_publishes_only_on_flush() {
        let flight = Flight::new(Some(60_000));
        let mut acc = flight.acc();
        assert!(acc.enabled());
        acc.execution(5_000, 2);
        acc.answer(false, 3_000);
        acc.answer(true, 9_000);
        assert_eq!(acc.pending(), 2);
        assert_eq!(
            flight.recorder.totals().completed,
            0,
            "nothing before flush"
        );
        acc.flush();
        assert_eq!(acc.pending(), 0);
        let t = flight.recorder.totals();
        assert_eq!((t.completed, t.failed, t.aborts), (2, 1, 2));
        assert_eq!(t.busy_ns, 5_000);
        assert_eq!((t.latency_sum_us, t.latency_count), (12, 2));
        assert_eq!(
            flight.latency_so_far().samples(),
            2,
            "every answer, failures included, is a latency sample"
        );
        assert_eq!(flight.cut().samples, 2);
        assert_eq!(flight.latency_so_far().samples(), 2, "cut keeps the totals");
        assert_eq!(flight.cut().samples, 0, "the open window restarted");
    }

    #[test]
    fn an_unwindowed_flight_is_inert() {
        let flight = Flight::new(None);
        let mut acc = flight.acc();
        assert!(!acc.enabled());
        acc.answer(false, 1);
        acc.flush();
        assert_eq!(flight.recorder.totals().completed, 0);
        assert!(flight.timeseries().is_none());
    }
}
