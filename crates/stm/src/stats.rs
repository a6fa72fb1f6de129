//! Runtime statistics.
//!
//! The paper's §5 diagnosis rests on *where the work goes*: validation
//! steps (the O(k²) incremental-validation pathology) and whole-object
//! clones (the logging-granularity pathology). The three runtimes account
//! for them here; the ablation benches print these counters next to
//! wall-clock results.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters owned by a runtime.
#[derive(Debug, Default)]
pub struct Counters {
    pub starts: AtomicU64,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    /// Read-set entries examined during validation (every entry of every
    /// validation pass counts one step).
    pub validation_steps: AtomicU64,
    /// Whole-object clones performed by copy-on-write opens.
    pub clones: AtomicU64,
    /// Successful read-timestamp extensions (TL2/LSA only).
    pub extensions: AtomicU64,
    /// Contention-manager decisions that killed the enemy transaction.
    pub enemy_aborts: AtomicU64,
}

impl Counters {
    /// Takes a consistent-enough snapshot for reporting (individual
    /// counters are read independently; exactness across counters is not
    /// required for statistics).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            starts: self.starts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            validation_steps: self.validation_steps.load(Ordering::Relaxed),
            clones: self.clones.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            enemy_aborts: self.enemy_aborts.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub starts: u64,
    pub commits: u64,
    pub aborts: u64,
    pub reads: u64,
    pub writes: u64,
    pub validation_steps: u64,
    pub clones: u64,
    pub extensions: u64,
    pub enemy_aborts: u64,
}

impl StatsSnapshot {
    /// Aborts per commit — the headline contention metric.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Difference of two snapshots (for measuring a window).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            starts: self.starts - earlier.starts,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            validation_steps: self.validation_steps - earlier.validation_steps,
            clones: self.clones - earlier.clones,
            extensions: self.extensions - earlier.extensions,
            enemy_aborts: self.enemy_aborts - earlier.enemy_aborts,
        }
    }
}

/// Per-transaction counter buffer, flushed once per attempt (TL2: once
/// per transaction) to keep the shared atomics off the hot path. A field
/// that is 0 at flush time touches no shared cache line.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LocalCounts {
    pub starts: u64,
    pub commits: u64,
    pub aborts: u64,
    pub reads: u64,
    pub writes: u64,
    pub validation_steps: u64,
    pub clones: u64,
    pub extensions: u64,
}

impl LocalCounts {
    pub(crate) fn flush(&mut self, into: &Counters) {
        fn add(counter: &AtomicU64, n: u64) {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        add(&into.starts, self.starts);
        add(&into.commits, self.commits);
        add(&into.aborts, self.aborts);
        add(&into.reads, self.reads);
        add(&into.writes, self.writes);
        add(&into.validation_steps, self.validation_steps);
        add(&into.clones, self.clones);
        add(&into.extensions, self.extensions);
        *self = LocalCounts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let c = Counters::default();
        c.commits.store(10, Ordering::Relaxed);
        c.aborts.store(5, Ordering::Relaxed);
        let a = c.snapshot();
        assert_eq!(a.abort_ratio(), 0.5);
        c.commits.store(30, Ordering::Relaxed);
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.commits, 20);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn abort_ratio_handles_zero_commits() {
        assert_eq!(StatsSnapshot::default().abort_ratio(), 0.0);
    }

    #[test]
    fn local_counts_flush_accumulates_and_resets() {
        let c = Counters::default();
        let mut l = LocalCounts {
            starts: 2,
            aborts: 1,
            commits: 1,
            reads: 3,
            writes: 2,
            validation_steps: 7,
            clones: 1,
            extensions: 0,
        };
        l.flush(&c);
        l.reads = 5;
        l.flush(&c);
        let s = c.snapshot();
        assert_eq!((s.starts, s.commits, s.aborts), (2, 1, 1));
        assert_eq!(s.reads, 8);
        assert_eq!(s.writes, 2);
        assert_eq!(s.validation_steps, 7);
    }
}
