//! A NOrec-style STM: no ownership records, one global sequence lock,
//! value-based validation.
//!
//! This is the third major design point in the remedy space the paper's
//! §5 opens (after TL2's global version clock, [`crate::tl2`], and
//! DSTM/ASTM locators, [`crate::astm`]):
//!
//! * **No per-object metadata.** A variable is just its committed value.
//!   Transactional bookkeeping lives entirely in the transaction and one
//!   global sequence lock, so memory overhead per object is zero — the
//!   opposite extreme from ASTM's per-object locator.
//! * **Value-based validation.** A reader records the value handles it
//!   observed; whenever the global clock moves, it re-checks that those
//!   handles are still current and adopts the new clock. Unrelated
//!   commits therefore never abort a reader — only commits that touched
//!   its read set do. Validation is O(read set) per clock movement, which
//!   is NOrec's known weakness under write-heavy loads; the
//!   `validation_steps` counter makes that cost visible.
//! * **Lazy writes behind a single commit lock.** Writes buffer in a
//!   redo log; commit increments the sequence lock to an odd value,
//!   publishes, and releases. Exactly one writer commits at a time —
//!   cheap commits, but writer-writer parallelism is nil (the design's
//!   stated trade-off).
//!
//! Like the other runtimes, values are immutable `Arc`s and "value"
//! comparison is `Arc` identity: strictly conservative (an ABA value
//! would revalidate as changed and abort — a spurious abort, never a
//! safety issue), and the retained handles pin the allocations so
//! identity cannot be recycled.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::{
    backoff, copy_on_write, downcast, Abort, ErasedVal, StmResult, StmRuntime, TxVal,
};
use crate::stats::{Counters, LocalCounts, StatsSnapshot};

/// A variable: nothing but its committed value behind a short mutex.
struct NorecCell {
    value: Mutex<ErasedVal>,
}

impl NorecCell {
    fn load(&self) -> ErasedVal {
        self.value.lock().clone()
    }
}

/// A transactional variable managed by [`NorecRuntime`].
pub struct NorecVar<T> {
    cell: Arc<NorecCell>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for NorecVar<T> {
    fn clone(&self) -> Self {
        NorecVar {
            cell: Arc::clone(&self.cell),
            _marker: PhantomData,
        }
    }
}

/// The NOrec runtime (see module docs).
///
/// # Examples
///
/// ```
/// use stmbench7_stm::{NorecRuntime, StmRuntime};
///
/// let rt = NorecRuntime::new();
/// let v = rt.new_var(40u64);
/// let out = rt.atomic(|tx| {
///     NorecRuntime::update(tx, &v, |n| *n += 1)?;
///     Ok(*NorecRuntime::read(tx, &v)? + 1)
/// });
/// assert_eq!(out, 42);
/// ```
pub struct NorecRuntime {
    /// Global sequence lock: even = quiescent, odd = a writer is
    /// publishing. Doubles as the validation clock.
    seqlock: AtomicU64,
    counters: Counters,
    ticket: AtomicU64,
}

impl NorecRuntime {
    /// Creates a fresh runtime.
    pub fn new() -> Self {
        NorecRuntime {
            seqlock: AtomicU64::new(0),
            counters: Counters::default(),
            ticket: AtomicU64::new(1),
        }
    }

    /// Spins until the sequence lock is even (no writer publishing) and
    /// returns it.
    fn wait_even(&self) -> u64 {
        loop {
            let t = self.seqlock.load(Ordering::Acquire);
            if t & 1 == 0 {
                return t;
            }
            std::hint::spin_loop();
        }
    }
}

impl Default for NorecRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// One transaction attempt.
pub struct NorecTx<'rt> {
    rt: &'rt NorecRuntime,
    /// The even sequence-lock value this attempt's reads are consistent
    /// with.
    snapshot: u64,
    /// Read set: the cells and the exact value handles observed. Keeping
    /// the handles alive pins their allocations, making pointer identity
    /// a sound (conservative) value comparison.
    reads: Vec<(Arc<NorecCell>, ErasedVal)>,
    read_index: HashMap<usize, usize>,
    /// Redo log: cell pointer → (cell, tentative value).
    writes: HashMap<usize, (Arc<NorecCell>, ErasedVal)>,
    local: LocalCounts,
    id: u64,
}

impl NorecTx<'_> {
    /// Value-based validation: re-check every recorded read, then adopt
    /// the given (even) clock as the new snapshot.
    fn validate_to(&mut self, time: u64) -> StmResult<()> {
        self.local.validation_steps += self.reads.len() as u64;
        for (cell, seen) in &self.reads {
            if !Arc::ptr_eq(&cell.load(), seen) {
                return Err(Abort);
            }
        }
        self.snapshot = time;
        Ok(())
    }

    /// The NOrec read protocol: read the value, and if the global clock
    /// moved since our snapshot, revalidate the read set before trusting
    /// it. Loops until value and clock agree.
    fn consistent_load(&mut self, cell: &Arc<NorecCell>) -> StmResult<ErasedVal> {
        loop {
            let value = cell.load();
            let now = self.rt.wait_even();
            if now == self.snapshot {
                return Ok(value);
            }
            self.validate_to(now)?;
            // Clock adopted; the value may have changed in between — loop
            // and re-read under the new snapshot.
            if Arc::ptr_eq(&cell.load(), &value) {
                return Ok(value);
            }
        }
    }
}

impl StmRuntime for NorecRuntime {
    type Var<T: TxVal> = NorecVar<T>;
    type Tx<'rt> = NorecTx<'rt>;

    fn new_var<T: TxVal>(&self, value: T) -> NorecVar<T> {
        NorecVar {
            cell: Arc::new(NorecCell {
                value: Mutex::new(Arc::new(value)),
            }),
            _marker: PhantomData,
        }
    }

    fn read<T: TxVal>(tx: &mut NorecTx<'_>, var: &NorecVar<T>) -> StmResult<Arc<T>> {
        let key = Arc::as_ptr(&var.cell) as usize;
        if let Some((_, buffered)) = tx.writes.get(&key) {
            return Ok(downcast(buffered.clone()));
        }
        if let Some(&idx) = tx.read_index.get(&key) {
            // Repeat read: the snapshot discipline guarantees the
            // recorded handle is still the consistent view.
            return Ok(downcast(tx.reads[idx].1.clone()));
        }
        let value = tx.consistent_load(&Arc::clone(&var.cell))?;
        tx.local.reads += 1;
        tx.read_index.insert(key, tx.reads.len());
        tx.reads.push((Arc::clone(&var.cell), value.clone()));
        Ok(downcast(value))
    }

    fn update<T: TxVal>(
        tx: &mut NorecTx<'_>,
        var: &NorecVar<T>,
        f: impl FnOnce(&mut T),
    ) -> StmResult<()> {
        let key = Arc::as_ptr(&var.cell) as usize;
        if let Some((_, buffered)) = tx.writes.get_mut(&key) {
            // Re-open: mutate the buffered value in place, unless a read
            // handed out a handle to it that must not change.
            match Arc::get_mut(buffered).and_then(|v| v.downcast_mut::<T>()) {
                Some(value) => f(value),
                None => *buffered = copy_on_write(buffered.clone(), f),
            }
            return Ok(());
        }
        // Clone-on-write from a consistent read (registered, so commit
        // validation catches write-after-read-invalidation).
        let current: Arc<T> = Self::read(tx, var)?;
        let mut fresh = (*current).clone();
        tx.local.clones += 1;
        f(&mut fresh);
        tx.local.writes += 1;
        tx.writes
            .insert(key, (Arc::clone(&var.cell), Arc::new(fresh)));
        Ok(())
    }

    fn atomic<R>(&self, mut f: impl FnMut(&mut NorecTx<'_>) -> StmResult<R>) -> R {
        let mut attempt = 0u32;
        loop {
            self.counters.starts.fetch_add(1, Ordering::Relaxed);
            let mut tx = NorecTx {
                rt: self,
                snapshot: self.wait_even(),
                reads: Vec::new(),
                read_index: HashMap::new(),
                writes: HashMap::new(),
                local: LocalCounts::default(),
                id: self.ticket.fetch_add(1, Ordering::Relaxed),
            };
            let result = match f(&mut tx) {
                Ok(r) => commit(&mut tx).map(|()| r),
                Err(Abort) => Err(Abort),
            };
            tx.local.flush(&self.counters);
            match result {
                Ok(r) => {
                    self.counters.commits.fetch_add(1, Ordering::Relaxed);
                    return r;
                }
                Err(Abort) => {
                    self.counters.aborts.fetch_add(1, Ordering::Relaxed);
                    backoff(attempt, tx.id);
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    fn read_quiesced<T: TxVal>(&self, var: &NorecVar<T>) -> Arc<T> {
        downcast(var.cell.load())
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.counters.snapshot()
    }
}

/// The NOrec commit: read-only transactions are already serialized by
/// their last validation; writers acquire the sequence lock (odd),
/// publish the redo log and release (even).
fn commit(tx: &mut NorecTx<'_>) -> StmResult<()> {
    if tx.writes.is_empty() {
        return Ok(());
    }
    let acquired = loop {
        let time = tx.rt.wait_even();
        if time != tx.snapshot {
            // A validation result computed while another writer was
            // publishing is discarded by the failing CAS below, so
            // validating against possibly in-flight values is safe.
            tx.validate_to(time)?;
        }
        if tx
            .rt
            .seqlock
            .compare_exchange(time, time + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            break time;
        }
        // Another writer won the lock; wait and revalidate.
    };
    for (cell, value) in tx.writes.values() {
        *cell.value.lock() = value.clone();
    }
    // Release: the new even value publishes the redo log to readers.
    tx.rt.seqlock.store(acquired + 2, Ordering::Release);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    type Rt = NorecRuntime;

    #[test]
    fn read_your_own_write() {
        let rt = Rt::new();
        let v = rt.new_var(1u32);
        let out = rt.atomic(|tx| {
            Rt::update(tx, &v, |n| *n = 5)?;
            Rt::update(tx, &v, |n| *n += 1)?;
            Ok(*Rt::read(tx, &v)?)
        });
        assert_eq!(out, 6);
        assert_eq!(rt.atomic(|tx| Ok(*Rt::read(tx, &v)?)), 6);
    }

    #[test]
    fn aborted_attempt_leaves_no_trace() {
        let rt = Rt::new();
        let v = rt.new_var(0u32);
        let tried = AtomicBool::new(false);
        let out = rt.atomic(|tx| {
            Rt::update(tx, &v, |n| *n += 1)?;
            if !tried.swap(true, Ordering::Relaxed) {
                return Err(Abort);
            }
            Ok(*Rt::read(tx, &v)?)
        });
        assert_eq!(out, 1);
        let s = rt.snapshot();
        assert_eq!((s.commits, s.aborts, s.starts), (1, 1, 2));
    }

    #[test]
    fn repeat_reads_return_the_snapshot_value() {
        // A repeat read of the same variable returns the recorded handle
        // even if a writer committed in between: the read-only
        // transaction simply serializes before the writer.
        let rt = Arc::new(Rt::new());
        let a = rt.new_var(0u64);
        let out = rt.atomic(|tx| {
            let x = *Rt::read(tx, &a)?;
            if x == 0 {
                std::thread::scope(|s| {
                    let rt2 = Arc::clone(&rt);
                    let a = a.clone();
                    s.spawn(move || rt2.atomic(|tx| NorecRuntime::update(tx, &a, |n| *n += 7)));
                });
            }
            let y = *Rt::read(tx, &a)?;
            Ok((x, y))
        });
        assert_eq!(out, (0, 0), "both reads observe the same snapshot");
        assert_eq!(rt.snapshot().aborts, 0);
        assert_eq!(rt.atomic(|tx| Ok(*Rt::read(tx, &a)?)), 7);
    }

    #[test]
    fn unrelated_commits_do_not_abort_readers() {
        // The NOrec selling point: value-based validation lets a reader
        // survive commits that do not touch its read set.
        let rt = Arc::new(Rt::new());
        let a = rt.new_var(10u64);
        let b = rt.new_var(20u64);
        let c = rt.new_var(5u64);
        let observed = rt.atomic(|tx| {
            let x = *Rt::read(tx, &a)?;
            // Commit to b on another thread, moving the global clock.
            std::thread::scope(|s| {
                let rt2 = Arc::clone(&rt);
                let b = b.clone();
                s.spawn(move || rt2.atomic(|tx| NorecRuntime::update(tx, &b, |n| *n += 1)));
            });
            // Reading a *new* variable observes the moved clock,
            // revalidates `a` by value, and succeeds without an abort.
            let y = *Rt::read(tx, &c)?;
            Ok(x + y)
        });
        assert_eq!(observed, 15);
        assert_eq!(rt.snapshot().aborts, 0, "no spurious aborts");
        assert!(rt.snapshot().validation_steps > 0, "revalidation happened");
    }

    #[test]
    fn conflicting_commit_aborts_the_reader_attempt() {
        let rt = Arc::new(Rt::new());
        let a = rt.new_var(0u64);
        let b = rt.new_var(100u64);
        let hit = AtomicBool::new(false);
        let out = rt.atomic(|tx| {
            let x = *Rt::read(tx, &a)?;
            if !hit.swap(true, Ordering::Relaxed) {
                // First attempt: another thread commits to `a` mid-flight.
                std::thread::scope(|s| {
                    let rt2 = Arc::clone(&rt);
                    let a = a.clone();
                    s.spawn(move || rt2.atomic(|tx| NorecRuntime::update(tx, &a, |n| *n += 7)));
                });
            }
            // Opening a fresh variable forces validation of `a`; the
            // first attempt must notice the conflict and abort.
            let y = *Rt::read(tx, &b)?;
            Ok(x + y)
        });
        assert_eq!(out, 107, "second attempt sees the committed value");
        assert!(rt.snapshot().aborts >= 1);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let rt = Arc::new(Rt::new());
        let v = rt.new_var(0u64);
        let threads = 4;
        let per = 500;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rt = Arc::clone(&rt);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        rt.atomic(|tx| Rt::update(tx, &v, |n| *n += 1));
                    }
                });
            }
        });
        assert_eq!(rt.atomic(|tx| Ok(*Rt::read(tx, &v)?)), threads * per);
    }

    #[test]
    fn bank_transfer_conserves_total() {
        let rt = Arc::new(Rt::new());
        let accounts: Vec<_> = (0..8).map(|_| rt.new_var(100i64)).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                let accounts = accounts.clone();
                s.spawn(move || {
                    for i in 0..300usize {
                        let from = (t + i) % accounts.len();
                        let to = (t * 3 + i * 7 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        rt.atomic(|tx| {
                            let balance = *Rt::read(tx, &accounts[from])?;
                            let amount = balance.min(10);
                            Rt::update(tx, &accounts[from], |b| *b -= amount)?;
                            Rt::update(tx, &accounts[to], |b| *b += amount)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| *rt.read_quiesced(a)).sum();
        assert_eq!(total, 800, "money must be conserved");
    }

    #[test]
    fn opacity_invariant_under_contention() {
        let rt = Arc::new(Rt::new());
        let x = rt.new_var(0i64);
        let y = rt.new_var(0i64);
        std::thread::scope(|s| {
            for t in 0..2 {
                let rt = Arc::clone(&rt);
                let (x, y) = (x.clone(), y.clone());
                s.spawn(move || {
                    for i in 0..300 {
                        rt.atomic(|tx| {
                            Rt::update(tx, &x, |v| *v += t * 10 + i)?;
                            Rt::update(tx, &y, |v| *v += t * 10 + i)?;
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let (x, y) = (x.clone(), y.clone());
                s.spawn(move || {
                    for _ in 0..600 {
                        let (a, b) = rt.atomic(|tx| {
                            let a = *Rt::read(tx, &x)?;
                            let b = *Rt::read(tx, &y)?;
                            Ok((a, b))
                        });
                        assert_eq!(a, b, "opacity violation: observed x != y");
                    }
                });
            }
        });
    }

    #[test]
    fn read_only_transactions_never_take_the_lock() {
        let rt = Rt::new();
        let v = rt.new_var(3u32);
        let before = rt.seqlock.load(Ordering::Relaxed);
        for _ in 0..10 {
            rt.atomic(|tx| Ok(*Rt::read(tx, &v)?));
        }
        assert_eq!(rt.seqlock.load(Ordering::Relaxed), before);
    }

    #[test]
    fn sequence_lock_advances_by_two_per_writer() {
        let rt = Rt::new();
        let v = rt.new_var(0u32);
        let before = rt.seqlock.load(Ordering::Relaxed);
        rt.atomic(|tx| Rt::update(tx, &v, |n| *n += 1));
        rt.atomic(|tx| Rt::update(tx, &v, |n| *n += 1));
        let after = rt.seqlock.load(Ordering::Relaxed);
        assert_eq!(after, before + 4);
        assert_eq!(after & 1, 0, "lock released");
    }
}
