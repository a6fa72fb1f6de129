//! The TL2/LSA-style STM.
//!
//! This is the remedy class the paper's §5 points to (ref. 5 Dice/Shalev/
//! Shavit TL2, ref. 11 Riegel/Felber/Fetzer LSA, ref. 13 Spear et al.): a global
//! version clock makes every read *self-validating* — O(1) per read
//! instead of re-validating the whole read list — so a transaction with k
//! reads does O(k) total validation work instead of O(k²).
//!
//! Protocol summary:
//!
//! * every variable carries a versioned lock word (`version << 1 | locked`);
//! * a transaction samples the clock at start (`rv`) and aborts (or
//!   *extends*, LSA-style, when enabled) upon meeting a newer version;
//! * writes are buffered privately (lazy acquisition);
//! * commit locks the write set in address order (bounded trylock),
//!   increments the clock, validates the read set once, writes back and
//!   releases with the new version.
//!
//! Values are still `Arc`-boxed whole objects, so *logging granularity*
//! is identical to the ASTM runtime — the two runtimes differ only in the
//! validation/acquisition strategy, which is exactly what the validation
//! ablation bench isolates.
//!
//! **Transaction descriptor.** Each thread keeps one set of transaction
//! bookkeeping (`TxSets`) and reuses it: a transaction takes it from a
//! thread-local on entry, clears it between attempts, and hands it back
//! empty on return, so no `Arc` outlives the transaction and the tables
//! are not regrown from nothing for every attempt. A nested `atomic` (or
//! a transaction after a panicking one) finds the slot empty and starts
//! with fresh sets. The read set and the buffered writes share one table
//! keyed by cell address and hashed by `PtrHasher` (one multiply); the
//! written addresses, sorted in place, are the commit's lock order. Sets
//! grown past `RETAINED_CAP` entries are freed on return, so a small
//! transaction never clears or validates a table sized for the largest
//! one the thread ever ran. The counters are buffered per transaction and
//! flushed once when it returns, skipping fields that stayed 0; a
//! transaction whose body panics counts nothing.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::runtime::{backoff, downcast, Abort, ErasedVal, PtrMap, StmResult, StmRuntime, TxVal};
use crate::stats::{Counters, LocalCounts, StatsSnapshot};

const LOCKED: u64 = 1;

/// Entries a thread's retained [`TxSets`] may keep room for.
const RETAINED_CAP: usize = 1024;

#[inline]
fn is_locked(vlock: u64) -> bool {
    vlock & LOCKED != 0
}

#[inline]
fn version_of(vlock: u64) -> u64 {
    vlock >> 1
}

struct Cell {
    /// `version << 1 | locked`.
    vlock: AtomicU64,
    value: RwLock<ErasedVal>,
}

impl Cell {
    /// Reads a consistent `(version, value)` pair, spinning through
    /// in-flight commits a few times before giving up.
    fn sample(&self) -> StmResult<(u64, ErasedVal)> {
        for _ in 0..64 {
            let v1 = self.vlock.load(Ordering::Acquire);
            if is_locked(v1) {
                std::hint::spin_loop();
                continue;
            }
            let value = self.value.read().clone();
            let v2 = self.vlock.load(Ordering::Acquire);
            if v1 == v2 {
                return Ok((version_of(v1), value));
            }
        }
        Err(Abort)
    }

    /// Locks the cell for a commit reading at `rv`, with a bounded
    /// trylock; fails when someone committed past `rv` or holds the lock
    /// too long.
    fn try_lock(&self, rv: u64) -> bool {
        for _ in 0..128 {
            let vl = self.vlock.load(Ordering::Acquire);
            if is_locked(vl) {
                std::hint::spin_loop();
                continue;
            }
            if version_of(vl) > rv {
                return false; // Someone committed past us.
            }
            if self
                .vlock
                .compare_exchange(vl, vl | LOCKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    fn unlock(&self) {
        let vl = self.vlock.load(Ordering::Relaxed);
        self.vlock.store(vl & !LOCKED, Ordering::Release);
    }
}

/// A transactional variable managed by [`Tl2Runtime`].
pub struct Tl2Var<T> {
    cell: Arc<Cell>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Tl2Var<T> {
    fn clone(&self) -> Self {
        Tl2Var {
            cell: Arc::clone(&self.cell),
            _marker: PhantomData,
        }
    }
}

/// Configuration of the TL2-like runtime.
#[derive(Clone, Copy, Debug)]
pub struct Tl2Config {
    /// Attempt LSA-style read-timestamp extension instead of aborting when
    /// a version newer than `rv` is met (paper ref. 11, LSA).
    pub timestamp_extension: bool,
    /// Honor [`crate::StmRuntime::atomic_read_only`] with TL2's classic
    /// read-only mode: no read set is recorded at all (every read is
    /// self-validating against `rv`; a newer version aborts, since
    /// extension is impossible without a read set). Disable to measure
    /// the bookkeeping the fast path saves.
    pub read_only_fast_path: bool,
}

impl Default for Tl2Config {
    fn default() -> Self {
        Tl2Config {
            timestamp_extension: true,
            read_only_fast_path: true,
        }
    }
}

/// The TL2-like runtime (see module docs).
pub struct Tl2Runtime {
    config: Tl2Config,
    clock: AtomicU64,
    counters: Counters,
}

impl Tl2Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: Tl2Config) -> Self {
        Tl2Runtime {
            config,
            clock: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> Tl2Config {
        self.config
    }

    /// The shared retry loop behind [`StmRuntime::atomic`] and
    /// [`StmRuntime::atomic_read_only`].
    fn run_retrying<R>(
        &self,
        read_only: bool,
        mut f: impl FnMut(&mut Tl2Tx<'_>) -> StmResult<R>,
    ) -> R {
        let mut tx = Tl2Tx {
            rt: self,
            rv: 0,
            sets: TxSets::take(),
            read_only,
            local: LocalCounts::default(),
        };
        let mut attempt = 0u32;
        let out = loop {
            tx.local.starts += 1;
            tx.rv = self.clock.load(Ordering::SeqCst);
            let result = match f(&mut tx) {
                Ok(r) => tx.commit().map(|()| r),
                Err(Abort) => Err(Abort),
            };
            match result {
                Ok(r) => break r,
                Err(Abort) => {
                    tx.local.aborts += 1;
                    tx.sets.clear();
                    backoff(attempt, attempt as u64 + 1);
                    attempt = attempt.saturating_add(1);
                }
            }
        };
        tx.local.commits += 1;
        tx.local.flush(&self.counters);
        tx.sets.give_back();
        out
    }
}

impl Default for Tl2Runtime {
    fn default() -> Self {
        Self::new(Tl2Config::default())
    }
}

/// What a transaction knows about one cell it touched.
struct Access {
    cell: Arc<Cell>,
    /// Version at first read (or first open for writing).
    seen: u64,
    /// The private value commit publishes, once opened for writing.
    buffered: Option<ErasedVal>,
}

impl Access {
    /// Re-reads the cell; any version but the one first seen aborts.
    fn resample(&self) -> StmResult<ErasedVal> {
        let (ver, value) = self.cell.sample()?;
        if ver == self.seen {
            Ok(value)
        } else {
            Err(Abort)
        }
    }

    /// Whether the cell still carries the version first seen and no
    /// other transaction holds its lock (`ours`: this one does).
    fn unchanged(&self, ours: bool) -> bool {
        let vl = self.cell.vlock.load(Ordering::Acquire);
        version_of(vl) == self.seen && (ours || !is_locked(vl))
    }
}

/// A thread's reusable transaction descriptor (see module docs).
#[derive(Default)]
struct TxSets {
    /// Cell address → access: the read set, with the write set's buffered
    /// values in the same entries (every written cell is read first).
    accesses: PtrMap<Access>,
    /// Addresses of the cells with a buffered value; commit sorts them in
    /// place into its lock order.
    written: Vec<usize>,
}

thread_local! {
    /// The thread's idle [`TxSets`]; empty while a transaction holds them.
    static SPARE: std::cell::Cell<Option<TxSets>> = const { std::cell::Cell::new(None) };
}

impl TxSets {
    /// The thread's retained sets, or fresh ones when a running
    /// transaction of this thread holds them (nested `atomic`) or a
    /// panic dropped them.
    fn take() -> TxSets {
        SPARE.with(std::cell::Cell::take).unwrap_or_default()
    }

    /// Empties the sets and hands them back to the thread, freeing them
    /// if they grew past [`RETAINED_CAP`].
    fn give_back(mut self) {
        self.clear();
        if self.accesses.capacity() > RETAINED_CAP || self.written.capacity() > RETAINED_CAP {
            self = TxSets::default();
        }
        SPARE.with(|spare| spare.set(Some(self)));
    }

    fn clear(&mut self) {
        self.accesses.clear();
        self.written.clear();
    }
}

/// One transaction attempt.
pub struct Tl2Tx<'rt> {
    rt: &'rt Tl2Runtime,
    /// Read validity horizon.
    rv: u64,
    sets: TxSets,
    /// The classic TL2 read-only mode: no read set, no extension,
    /// updates forbidden.
    read_only: bool,
    local: LocalCounts,
}

impl Tl2Tx<'_> {
    /// Revalidates the read set against the current clock and, on success,
    /// advances `rv` (LSA-style extension).
    fn extend(&mut self) -> StmResult<()> {
        let now = self.rt.clock.load(Ordering::SeqCst);
        self.local.validation_steps += self.sets.accesses.len() as u64;
        if !self.sets.accesses.values().all(|a| a.unchanged(false)) {
            return Err(Abort);
        }
        self.rv = now;
        self.local.extensions += 1;
        Ok(())
    }

    fn commit(&mut self) -> StmResult<()> {
        let TxSets { accesses, written } = &mut self.sets;
        if written.is_empty() {
            return Ok(());
        }
        // Lock the write set in address order with a bounded trylock.
        written.sort_unstable();
        let release = |held: &[usize]| held.iter().for_each(|key| accesses[key].cell.unlock());
        for (held, key) in written.iter().enumerate() {
            if !accesses[key].cell.try_lock(self.rv) {
                release(&written[..held]);
                return Err(Abort);
            }
        }

        let wv = self.rt.clock.fetch_add(1, Ordering::SeqCst) + 1;

        // Validate the read set once (skippable when nothing committed in
        // between). Cells we locked only need their version checked.
        if wv != self.rv + 1 {
            self.local.validation_steps += accesses.len() as u64;
            if !accesses.values().all(|a| a.unchanged(a.buffered.is_some())) {
                release(written);
                return Err(Abort);
            }
        }

        // Write back and release with the new version.
        for key in written.iter() {
            let access = accesses
                .get_mut(key)
                .expect("written cells are in the read set");
            *access.cell.value.write() =
                access.buffered.take().expect("written cells hold a value");
            access.cell.vlock.store(wv << 1, Ordering::Release);
        }
        Ok(())
    }

    /// Samples a cell within the `rv` horizon, extending when allowed.
    fn consistent_sample(&mut self, cell: &Arc<Cell>) -> StmResult<(u64, ErasedVal)> {
        loop {
            let (ver, value) = cell.sample()?;
            if ver <= self.rv {
                return Ok((ver, value));
            }
            if !self.rt.config.timestamp_extension {
                return Err(Abort);
            }
            self.extend()?;
            // `rv` advanced; re-sample (the cell may be mid-commit).
        }
    }
}

/// Clones a committed value and applies `f` to the copy.
fn copy_on_write<T: TxVal>(value: ErasedVal, f: impl FnOnce(&mut T)) -> ErasedVal {
    let mut fresh = (*downcast::<T>(value)).clone();
    f(&mut fresh);
    Arc::new(fresh)
}

impl StmRuntime for Tl2Runtime {
    type Var<T: TxVal> = Tl2Var<T>;
    type Tx<'rt> = Tl2Tx<'rt>;

    fn new_var<T: TxVal>(&self, value: T) -> Tl2Var<T> {
        Tl2Var {
            cell: Arc::new(Cell {
                vlock: AtomicU64::new(0),
                value: RwLock::new(Arc::new(value)),
            }),
            _marker: PhantomData,
        }
    }

    fn read<T: TxVal>(tx: &mut Tl2Tx<'_>, var: &Tl2Var<T>) -> StmResult<Arc<T>> {
        if tx.read_only {
            // The fast path: a sample within the horizon is proof enough;
            // nothing is recorded. Any version past `rv` aborts (a
            // repeat read that changed underneath necessarily carries a
            // newer version, so repeat consistency is covered too).
            let (ver, value) = var.cell.sample()?;
            if ver > tx.rv {
                return Err(Abort);
            }
            tx.local.reads += 1;
            return Ok(downcast(value));
        }
        let key = Arc::as_ptr(&var.cell) as usize;
        if let Some(access) = tx.sets.accesses.get(&key) {
            return match &access.buffered {
                Some(buffered) => Ok(downcast(buffered.clone())),
                // Already read; the version cannot have changed without
                // commit, which validation will catch — return the
                // committed value.
                None => access.resample().map(downcast),
            };
        }
        let (seen, value) = tx.consistent_sample(&var.cell)?;
        tx.local.reads += 1;
        let access = Access {
            cell: Arc::clone(&var.cell),
            seen,
            buffered: None,
        };
        tx.sets.accesses.insert(key, access);
        Ok(downcast(value))
    }

    fn update<T: TxVal>(
        tx: &mut Tl2Tx<'_>,
        var: &Tl2Var<T>,
        f: impl FnOnce(&mut T),
    ) -> StmResult<()> {
        assert!(
            !tx.read_only,
            "update inside a transaction declared read-only"
        );
        let key = Arc::as_ptr(&var.cell) as usize;
        if let Some(access) = tx.sets.accesses.get_mut(&key) {
            if let Some(buffered) = &mut access.buffered {
                // Re-open: mutate the buffered value in place, unless a
                // read handed out a handle to it that must not change.
                match Arc::get_mut(buffered).and_then(|v| v.downcast_mut::<T>()) {
                    Some(value) => f(value),
                    None => *buffered = copy_on_write(buffered.clone(), f),
                }
                return Ok(());
            }
            // Base the clone on a consistent snapshot; commit re-verifies
            // the version under the write lock.
            access.buffered = Some(copy_on_write(access.resample()?, f));
        } else {
            let (seen, value) = tx.consistent_sample(&var.cell)?;
            let access = Access {
                cell: Arc::clone(&var.cell),
                seen,
                buffered: Some(copy_on_write(value, f)),
            };
            tx.sets.accesses.insert(key, access);
        }
        tx.local.clones += 1;
        tx.local.writes += 1;
        tx.sets.written.push(key);
        Ok(())
    }

    fn atomic<R>(&self, f: impl FnMut(&mut Tl2Tx<'_>) -> StmResult<R>) -> R {
        self.run_retrying(false, f)
    }

    fn atomic_read_only<R>(&self, f: impl FnMut(&mut Tl2Tx<'_>) -> StmResult<R>) -> R {
        self.run_retrying(self.config.read_only_fast_path, f)
    }

    fn read_quiesced<T: TxVal>(&self, var: &Tl2Var<T>) -> Arc<T> {
        downcast(var.cell.value.read().clone())
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    type Rt = Tl2Runtime;

    #[test]
    fn read_your_own_write() {
        let rt = Rt::default();
        let v = rt.new_var(1u32);
        let out = rt.atomic(|tx| {
            Rt::update(tx, &v, |n| *n = 5)?;
            Rt::update(tx, &v, |n| *n += 1)?;
            Ok(*Rt::read(tx, &v)?)
        });
        assert_eq!(out, 6);
        assert_eq!(rt.atomic(|tx| Ok(*Rt::read(tx, &v)?)), 6);
    }

    /// Pins what every counter counts, so a change to the transaction's
    /// bookkeeping cannot silently redefine `stm.reads_per_commit` or
    /// `stm.validation_steps_per_commit`. The abort is forced by commits
    /// of nested transactions on the same thread, which also drive one
    /// extension and one commit-time validation.
    #[test]
    fn accounting_is_pinned() {
        let rt = Rt::default();
        let (a, b, c) = (rt.new_var(1u64), rt.new_var(2u64), rt.new_var(3u64));

        // Read-only fast path: every read counts, repeats included.
        let sum = rt.atomic_read_only(|tx| {
            Ok(*Rt::read(tx, &a)? + *Rt::read(tx, &b)? + *Rt::read(tx, &a)?)
        });
        assert_eq!(sum, 4);

        // Repeat read and read-your-writes count nothing; a re-opened
        // write neither clones nor counts again.
        let seen = rt.atomic(|tx| {
            let first = *Rt::read(tx, &a)?;
            let again = *Rt::read(tx, &a)?;
            Rt::update(tx, &b, |n| *n *= 10)?;
            let own = *Rt::read(tx, &b)?;
            Rt::update(tx, &b, |n| *n += 1)?;
            Rt::update(tx, &a, |n| *n += 5)?;
            Ok((first, again, own, *Rt::read(tx, &c)?))
        });
        assert_eq!(seen, (1, 1, 20, 3));

        // Attempt 1 reads a and b, meets a nested commit to c (one
        // extension over 2 entries), then a nested commit to b makes its
        // commit-time validation (3 entries) fail. Attempt 2 commits.
        let tried = AtomicBool::new(false);
        let out = rt.atomic(|tx| {
            let first = !tried.swap(true, Ordering::Relaxed);
            let x = *Rt::read(tx, &a)? + *Rt::read(tx, &b)?;
            if first {
                rt.atomic(|inner| Rt::update(inner, &c, |n| *n += 100));
            }
            let y = *Rt::read(tx, &c)?;
            if first {
                rt.atomic(|inner| Rt::update(inner, &b, |n| *n += 1000));
            }
            Rt::update(tx, &a, |n| *n += 1)?;
            Ok(x + y)
        });
        assert_eq!(out, 6 + 1021 + 103);
        assert_eq!(*rt.read_quiesced(&a), 7);

        assert_eq!(
            rt.snapshot(),
            StatsSnapshot {
                starts: 6,
                commits: 5,
                aborts: 1,
                reads: 11,
                writes: 6,
                validation_steps: 5,
                clones: 6,
                extensions: 1,
                enemy_aborts: 0,
            }
        );
    }

    /// The capacity this thread's idle sets retain; they must be empty.
    fn retained_capacity() -> usize {
        SPARE.with(|spare| {
            let sets = spare.take().unwrap_or_default();
            assert!(sets.accesses.is_empty() && sets.written.is_empty());
            let cap = sets.accesses.capacity().max(sets.written.capacity());
            spare.set(Some(sets));
            cap
        })
    }

    #[test]
    fn retry_sees_no_stale_entries() {
        let rt = Rt::default();
        let (x, y) = (rt.new_var(0u32), rt.new_var(0u32));
        let attempts = std::cell::Cell::new(0);
        let seen_x = rt.atomic(|tx| {
            attempts.set(attempts.get() + 1);
            if attempts.get() == 1 {
                Rt::update(tx, &x, |n| *n = 99)?;
                return Err(Abort);
            }
            // A commit to x mid-attempt fails this attempt's validation
            // only if x lingered in the read set.
            let _ = Rt::read(tx, &y)?;
            rt.atomic(|inner| Rt::update(inner, &x, |n| *n += 1));
            Rt::update(tx, &y, |n| *n += 1)?;
            Ok(*rt.read_quiesced(&x))
        });
        assert_eq!(attempts.get(), 2, "a stale read entry failed the retry");
        assert_eq!(seen_x, 1, "the aborted attempt's write leaked");
        assert_eq!((*rt.read_quiesced(&x), *rt.read_quiesced(&y)), (1, 1));
    }

    #[test]
    fn panicking_body_leaves_the_thread_usable() {
        let rt = Rt::default();
        let (v, w) = (rt.new_var(0u32), rt.new_var(0u32));
        let ro = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.atomic_read_only(|tx| Rt::update(tx, &v, |n| *n += 1))
        }));
        assert!(ro.is_err());
        let rw = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.atomic(|tx| -> StmResult<()> {
                let _ = Rt::read(tx, &v)?;
                Rt::update(tx, &w, |n| *n += 1)?;
                panic!("body fails with populated sets")
            })
        }));
        assert!(rw.is_err());
        assert_eq!(Arc::strong_count(&v.cell), 1, "the panicked sets leaked");
        rt.atomic(|tx| {
            Rt::update(tx, &v, |n| *n += 1)?;
            Rt::update(tx, &w, |n| *n += 2)
        });
        assert_eq!((*rt.read_quiesced(&v), *rt.read_quiesced(&w)), (1, 2));
    }

    #[test]
    fn nested_atomic_on_a_second_runtime_keeps_both_sets() {
        let (outer, inner) = (Rt::default(), Rt::default());
        let a = outer.new_var(1u32);
        let b = inner.new_var(10u32);
        let out = outer.atomic(|tx| {
            Rt::update(tx, &a, |n| *n += 1)?;
            let nested = inner.atomic(|itx| {
                Rt::update(itx, &b, |n| *n += 1)?;
                Ok(*Rt::read(itx, &b)?)
            });
            // The outer write is still buffered and read back.
            Ok((*Rt::read(tx, &a)?, nested))
        });
        assert_eq!(out, (2, 11));
        assert_eq!(
            (*outer.read_quiesced(&a), *inner.read_quiesced(&b)),
            (2, 11)
        );
        assert_eq!(outer.snapshot().writes, 1);
        assert_eq!(inner.snapshot().writes, 1);
    }

    #[test]
    fn oversized_transaction_frees_its_sets() {
        let rt = Rt::default();
        let vars: Vec<_> = (0..10_000u64).map(|i| rt.new_var(i)).collect();
        rt.atomic(|tx| {
            let mut sum = 0;
            for (i, v) in vars.iter().enumerate() {
                sum += *Rt::read(tx, v)?;
                if i % 10 == 0 {
                    Rt::update(tx, v, |n| *n += 1)?;
                }
            }
            Ok(sum)
        });
        assert!(retained_capacity() <= RETAINED_CAP);
        let small = rt.atomic(|tx| {
            Rt::update(tx, &vars[1], |n| *n += 1)?;
            Ok(*Rt::read(tx, &vars[0])? + *Rt::read(tx, &vars[1])?)
        });
        assert_eq!(small, 1 + 2);
        assert!(retained_capacity() <= RETAINED_CAP);
        assert!(
            vars.iter().all(|v| Arc::strong_count(&v.cell) == 1),
            "the retained sets hold a cell"
        );
    }

    #[test]
    fn aborted_attempt_leaves_no_trace() {
        let rt = Rt::default();
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
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
    }

    #[test]
    fn validation_work_is_linear_not_quadratic() {
        let rt = Rt::default();
        let vars: Vec<_> = (0..50u64).map(|i| rt.new_var(i)).collect();
        rt.atomic(|tx| {
            for v in &vars {
                let _ = Rt::read(tx, v)?;
            }
            Ok(())
        });
        let s = rt.snapshot();
        // Read-only at a stable clock: no validation at all.
        assert_eq!(s.validation_steps, 0);
        assert_eq!(s.reads, 50);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let rt = Arc::new(Rt::default());
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
        let total = rt.atomic(|tx| Ok(*Rt::read(tx, &v)?));
        assert_eq!(total, threads * per);
    }

    #[test]
    fn opacity_invariant_under_contention() {
        let rt = Arc::new(Rt::default());
        let x = rt.new_var(0i64);
        let y = rt.new_var(0i64);
        std::thread::scope(|s| {
            for t in 0..2i64 {
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
    fn bank_transfer_conserves_total() {
        let rt = Arc::new(Rt::default());
        let accounts: Vec<_> = (0..8).map(|_| rt.new_var(100i64)).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let n = accounts.len();
                    for i in 0..400 {
                        let from = (t + i) % n;
                        let to = (t + i * 7 + 1) % n;
                        if from == to {
                            continue;
                        }
                        rt.atomic(|tx| {
                            let amount = (*Rt::read(tx, &accounts[from])?).min(10);
                            Rt::update(tx, &accounts[from], |b| *b -= amount)?;
                            Rt::update(tx, &accounts[to], |b| *b += amount)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: i64 = rt.atomic(|tx| {
            let mut sum = 0;
            for a in &accounts {
                sum += *Rt::read(tx, a)?;
            }
            Ok(sum)
        });
        assert_eq!(total, 800);
    }

    #[test]
    fn read_only_fast_path_reads_without_bookkeeping() {
        let rt = Rt::default();
        let vars: Vec<_> = (0..50u64).map(|i| rt.new_var(i)).collect();
        let sum = rt.atomic_read_only(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += *Rt::read(tx, v)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, (0..50).sum::<u64>());
        let s = rt.snapshot();
        assert_eq!(s.reads, 50);
        assert_eq!(s.validation_steps, 0);
        assert_eq!(s.extensions, 0, "no extension without a read set");
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn read_only_transactions_reject_updates() {
        let rt = Rt::default();
        let v = rt.new_var(0u32);
        rt.atomic_read_only(|tx| Rt::update(tx, &v, |n| *n += 1));
    }

    #[test]
    fn read_only_scans_stay_consistent_under_transfers() {
        // Concurrent RO scans of a bank must always see the conserved
        // total — the fast path may abort and retry but never return a
        // torn snapshot.
        let rt = Arc::new(Rt::default());
        let accounts: Vec<_> = (0..6).map(|_| rt.new_var(100i64)).collect();
        std::thread::scope(|s| {
            for t in 0..2usize {
                let rt = Arc::clone(&rt);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let n = accounts.len();
                    for i in 0..400 {
                        let from = (t + i) % n;
                        let to = (t * 5 + i * 3 + 1) % n;
                        if from == to {
                            continue;
                        }
                        rt.atomic(|tx| {
                            let amount = (*Rt::read(tx, &accounts[from])?).min(7);
                            Rt::update(tx, &accounts[from], |b| *b -= amount)?;
                            Rt::update(tx, &accounts[to], |b| *b += amount)?;
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let accounts = accounts.clone();
                s.spawn(move || {
                    for _ in 0..400 {
                        let total = rt.atomic_read_only(|tx| {
                            let mut sum = 0;
                            for a in &accounts {
                                sum += *Rt::read(tx, a)?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(total, 600, "torn read-only snapshot");
                    }
                });
            }
        });
    }

    #[test]
    fn extension_disabled_still_correct() {
        let rt = Arc::new(Rt::new(Tl2Config {
            timestamp_extension: false,
            ..Tl2Config::default()
        }));
        let v = rt.new_var(0u64);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rt = Arc::clone(&rt);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..300 {
                        rt.atomic(|tx| Rt::update(tx, &v, |n| *n += 1));
                    }
                });
            }
        });
        assert_eq!(rt.atomic(|tx| Ok(*Rt::read(tx, &v)?)), 900);
    }
}
