//! What every workload run produces, and the five configurations.

use stmbench7_core::WorkloadType;
use stmbench7_data::StructureParams;
use stmbench7_service::Affinity;

use crate::closed::{ClosedWorkload, Stream};
use crate::net::{NetWorkload, Pacing};
use crate::stats;

/// How long a run measures and whether it is the short, ungated form.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Measured seconds of the whole run, split evenly across reps.
    pub seconds: f64,
    /// `--quick`: ten times shorter, for wiring checks; the sample-count
    /// rules that protect the gated numbers are not enforced.
    pub quick: bool,
}

impl Sizing {
    /// A fixed operation count, ten times smaller under `--quick`.
    pub fn scale(&self, count: u64) -> u64 {
        if self.quick {
            (count / 10).max(1)
        } else {
            count
        }
    }
}

/// The seed rep `rep` of a run draws its structure and stream from:
/// every rep gets its own, so the median over reps also averages over
/// inputs.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep as u64)
}

/// One repetition's numbers.
#[derive(Clone, Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub within_limit_share: f64,
    /// Peak resident set from the start of the rep's set-up to the end
    /// of its timed window: structure, backend, server and the
    /// harness's sample buffers — not the validation copy made after.
    pub peak_rss_mb: f64,
    /// Operations (requests) attempted in the timed window.
    pub attempted: u64,
    /// Rejected, unanswered, duplicated or failed in transport.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// A whole untraced run: its reps, and whether every output check held.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// The valid reps.
    pub reps: Vec<Rep>,
    /// Reps left out because the load generator ran behind schedule.
    pub invalid_reps: usize,
    pub problems: Vec<String>,
}

impl RunOutcome {
    pub fn fail(&mut self, problem: String) {
        eprintln!("CHECK FAILED: {problem}");
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Median over reps of one per-rep value.
    pub fn median(&self, of: impl Fn(&Rep) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(of).collect::<Vec<_>>())
    }
}

/// `(p50_us, within_limit_share)` of one rep's ascending latency
/// samples. Attempts without a sample (failed, unanswered) count as
/// misses.
pub fn latency_stats(
    sorted_ns: &[u64],
    limit_us: u64,
    attempted: u64,
    out: &mut RunOutcome,
) -> (f64, f64) {
    if sorted_ns.is_empty() {
        out.fail("a rep produced no latency samples".into());
        return (f64::NAN, 0.0);
    }
    let within = sorted_ns.partition_point(|ns| *ns <= limit_us * 1_000);
    (
        stats::percentile(sorted_ns, 50.0) as f64 / 1_000.0,
        within as f64 / attempted.max(1) as f64,
    )
}

/// The `percentile` of ascending latency samples, in microseconds. A
/// gated sample that cannot carry it — fewer than ten samples beyond —
/// is a failed check, not a quiet lower percentile.
pub fn tail_us(sorted_ns: &[u64], percentile: f64, sizing: &Sizing, out: &mut RunOutcome) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    if !sizing.quick && stats::highest_supported_percentile(sorted_ns.len()) < Some(percentile) {
        out.fail(format!(
            "{} samples cannot carry a p{percentile} (ten samples must lie beyond it)",
            sorted_ns.len()
        ));
    }
    stats::percentile(sorted_ns, percentile) as f64 / 1_000.0
}

/// A workload's configuration, by the name `BENCHMARK.json` gives it.
pub enum Config {
    Closed(ClosedWorkload),
    Net(NetWorkload),
}

/// The closed configuration `name`; panics on a wire workload's name.
pub fn closed_config(name: &str) -> ClosedWorkload {
    match config(name) {
        Some(Config::Closed(w)) => w,
        _ => panic!("{name} is not a closed workload"),
    }
}

/// The wire configuration `name`; panics on a closed workload's name.
pub fn net_config(name: &str) -> NetWorkload {
    match config(name) {
        Some(Config::Net(w)) => w,
        _ => panic!("{name} is not a wire workload"),
    }
}

pub fn config(name: &str) -> Option<Config> {
    let closed_rw = |strategy| ClosedWorkload {
        params: StructureParams::small(),
        mix: WorkloadType::ReadWrite,
        long_traversals: false,
        strategy,
        threads: 2,
        reps: 5,
        stream: Stream::Timed,
        tail_percentile: 99.0,
        warmup_ops: 20_000,
        limit_us: 500,
        check_ops: 20_000,
    };
    Some(match name {
        "closed_rw_medium" => Config::Closed(closed_rw("medium")),
        "closed_rw_tl2" => Config::Closed(closed_rw("tl2-sharded")),
        // One thread: at two, reader/writer lock scheduling swings the
        // number far beyond its bound.
        "closed_r_traversal" => Config::Closed(ClosedWorkload {
            params: StructureParams::standard(),
            mix: WorkloadType::ReadDominated,
            long_traversals: true,
            strategy: "medium",
            threads: 1,
            reps: 5,
            // About one operation in 100 is a long traversal of tens of
            // milliseconds, so re-drawing the sequence moves throughput
            // by +-10% through their count alone. The sequence is
            // therefore one fixed draw; `--seed` rebuilds the structure
            // it runs against.
            stream: Stream::Fixed {
                seed: 7,
                ops_per_second: 4_000,
            },
            // The mix makes traversals of 10 ms and more 1.0% of the
            // operations, so p99 falls on the edge of their class: 2 ms
            // in one rep, 6 ms in the next. Full traversals of ~32 ms
            // are 0.2%, and p99.9 lies in the middle of them.
            tail_percentile: 99.9,
            warmup_ops: 400,
            limit_us: 250_000,
            check_ops: 400,
        }),
        // The CLI defaults of `net-serve`, driven far below capacity.
        "net_open_rw" => Config::Net(NetWorkload {
            params: StructureParams::small(),
            mix: WorkloadType::ReadWrite,
            strategy: "medium",
            workers: 2,
            batch_max: 1,
            affinity: Affinity::None,
            connections: 2,
            pacing: Pacing::Open {
                rate: 20_000.0,
                inflight: 1024,
            },
            reps: 10,
            warmup_requests: 10_000,
            limit_us: 2_000,
            check_requests: 20_000,
        }),
        "net_peak_w" => Config::Net(NetWorkload {
            params: StructureParams::small().with_shards(8),
            mix: WorkloadType::WriteDominated,
            strategy: "medium",
            workers: 2,
            batch_max: 8,
            affinity: Affinity::Shard,
            connections: 2,
            // 512 outstanding, about 4 ms of work and half the server's
            // queue: with 64 the window drained whenever one of the four
            // threads lost its core for a moment, both cores idled, and
            // throughput followed the host's mood (-10% under a 40%
            // one-core hog; under 1% with this window).
            pacing: Pacing::Closed { inflight: 256 },
            reps: 10,
            warmup_requests: 20_000,
            // Latency here is window / throughput (p50 4 ms, p99 10 ms);
            // the limit sits well beyond it and catches stalls only.
            limit_us: 50_000,
            check_requests: 20_000,
        }),
        _ => return None,
    })
}
