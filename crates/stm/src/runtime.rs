//! The runtime interface shared by the three STMs.

use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::stats::StatsSnapshot;

/// Marker returned when a transaction must be re-executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort;

/// Result type for transactional code.
pub type StmResult<T> = Result<T, Abort>;

/// Values that can live in transactional variables.
///
/// `Clone` is what object-granularity logging means: opening a value for
/// writing clones *all of it* (for STMBench7's manual, a megabyte of
/// text — one of the two pathologies §5 of the paper diagnoses).
pub trait TxVal: Any + Clone + Send + Sync + 'static {}

impl<T: Any + Clone + Send + Sync + 'static> TxVal for T {}

/// A software transactional memory runtime.
///
/// The API is deliberately small: typed transactional variables, snapshot
/// reads returning shared handles, clone-on-write updates, and a retry
/// loop. Reads return `Arc<T>` so large objects are never copied on the
/// read path (copies happen only on write, as in ASTM).
///
/// # Examples
///
/// ```
/// use stmbench7_stm::{StmRuntime, Tl2Runtime};
///
/// let rt = Tl2Runtime::default();
/// let v = rt.new_var(0u64);
/// let total = rt.atomic(|tx| {
///     Tl2Runtime::update(tx, &v, |n| *n += 41)?;
///     Ok(*Tl2Runtime::read(tx, &v)? + 1)
/// });
/// assert_eq!(total, 42);
/// ```
pub trait StmRuntime: Send + Sync + Sized + 'static {
    /// A transactional variable holding a `T`.
    type Var<T: TxVal>: Send + Sync + Clone;
    /// Per-attempt transaction state.
    type Tx<'rt>
    where
        Self: 'rt;

    /// Creates a new transactional variable.
    fn new_var<T: TxVal>(&self, value: T) -> Self::Var<T>;

    /// Reads a variable within a transaction.
    fn read<T: TxVal>(tx: &mut Self::Tx<'_>, var: &Self::Var<T>) -> StmResult<Arc<T>>;

    /// Opens a variable for writing: clones the current value, applies
    /// `f`, and buffers the result for commit.
    fn update<T: TxVal>(
        tx: &mut Self::Tx<'_>,
        var: &Self::Var<T>,
        f: impl FnOnce(&mut T),
    ) -> StmResult<()>;

    /// Runs `f` transactionally, retrying on aborts, and returns its
    /// result once a commit succeeds.
    fn atomic<R>(&self, f: impl FnMut(&mut Self::Tx<'_>) -> StmResult<R>) -> R;

    /// Like [`StmRuntime::atomic`], with the caller's promise that `f`
    /// never calls [`StmRuntime::update`]. Runtimes may use the promise
    /// to skip read-set bookkeeping (TL2's classic read-only mode); the
    /// default simply delegates to `atomic`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `f` breaks the promise and writes.
    fn atomic_read_only<R>(&self, f: impl FnMut(&mut Self::Tx<'_>) -> StmResult<R>) -> R {
        self.atomic(f)
    }

    /// Reads the committed value of a variable *outside* any transaction.
    ///
    /// Only meaningful when the caller knows the system is quiescent (no
    /// concurrent transactions) — used for exporting state to the
    /// validator and for diagnostics, never on the benchmark's hot path.
    fn read_quiesced<T: TxVal>(&self, var: &Self::Var<T>) -> Arc<T>;

    /// Cumulative runtime statistics.
    fn snapshot(&self) -> StatsSnapshot;
}

/// Type-erased committed value, as stored inside cells.
pub(crate) type ErasedVal = Arc<dyn Any + Send + Sync>;

/// Downcasts an erased committed value to its concrete type.
///
/// # Panics
///
/// Panics on a type mismatch, which can only happen if a `Var<T>` was
/// forged with the wrong phantom type — impossible through the public API.
pub(crate) fn downcast<T: TxVal>(v: ErasedVal) -> Arc<T> {
    v.downcast::<T>()
        .unwrap_or_else(|_| panic!("transactional variable holds an unexpected type"))
}

/// Hashes a cell address with one multiply.
///
/// Keys are addresses of live cells the runtime allocated itself, never
/// outside input, so no collision resistance is needed. The multiply
/// carries every address bit into the high half; the rotation brings that
/// half down to the low bits `HashMap` takes its bucket index from (cell
/// addresses share their low, alignment bits, which a bare multiply
/// would leave in the index).
#[derive(Default)]
pub(crate) struct PtrHasher(u64);

impl Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PtrHasher hashes cell addresses (usize) only")
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = (addr as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

/// A map keyed by cell address, hashed by [`PtrHasher`].
pub(crate) type PtrMap<V> = HashMap<usize, V, BuildHasherDefault<PtrHasher>>;

/// Bounded exponential backoff with deterministic per-thread jitter, used
/// between transaction attempts by the three runtimes.
pub(crate) fn backoff(attempt: u32, seed: u64) {
    let exp = attempt.min(10);
    let base = 1u64 << exp; // 1..1024 "units" of ~50ns spin
    let jitter = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58; // 0..63
    let spins = base * 4 + jitter;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt > 6 {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcast_roundtrips() {
        let v: ErasedVal = Arc::new(7u32);
        assert_eq!(*downcast::<u32>(v), 7);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn downcast_mismatch_panics() {
        let v: ErasedVal = Arc::new(7u32);
        let _ = downcast::<u64>(v);
    }

    #[test]
    fn ptr_hasher_spreads_aligned_addresses() {
        use std::hash::BuildHasher;
        // 64-byte-aligned addresses must still land in distinct low bits.
        let hasher = BuildHasherDefault::<PtrHasher>::default();
        let buckets: std::collections::HashSet<u64> = (0..256usize)
            .map(|i| hasher.hash_one(0x7f00_0000_0000 + i * 64) & 255)
            .collect();
        assert!(
            buckets.len() > 128,
            "only {} of 256 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn backoff_terminates() {
        for a in 0..20 {
            backoff(a, a as u64);
        }
    }
}
