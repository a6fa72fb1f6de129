//! Typed object identifiers and bounded id pools.
//!
//! Every object in the STMBench7 graph is referenced by a typed id rather
//! than a pointer. This is what lets one operation implementation run over
//! plain stores (locking backends) and transactional cells (STM backends),
//! and it is what makes zombie STM transactions memory-safe: a stale id can
//! at worst observe a stale or absent object, never a dangling pointer.
//!
//! Raw ids start at 1, matching OO7. Id pools are bounded (`max`) because
//! the paper constrains structure modifications: "the maximum size of the
//! structure is confined" — SM1/SM5/SM7 fail when a pool is exhausted.
//! Freed ids are recycled in LIFO order.

use std::fmt;

macro_rules! typed_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric id (OO7 object ids start at 1).
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

typed_id!(
    /// Identifier of an atomic part (index 1 of Table 1 maps these).
    AtomicPartId
);
typed_id!(
    /// Identifier of a composite part (index 3 of Table 1 maps these).
    CompositePartId
);
typed_id!(
    /// Identifier of a base assembly (index 5 of Table 1 maps these).
    BaseAssemblyId
);
typed_id!(
    /// Identifier of a complex assembly (index 6 of Table 1 maps these).
    ComplexAssemblyId
);
typed_id!(
    /// Identifier of a document (documents are looked up by title, index 4).
    DocumentId
);

/// A bounded pool of raw ids with LIFO recycling.
///
/// `alloc` returns `None` once `max` live ids exist, which is how structure
/// modification operations detect that "the maximum number of … has been
/// reached" and fail, per the paper's SM1/SM5/SM7 specification.
///
/// # Examples
///
/// ```
/// use stmbench7_data::IdPool;
///
/// let mut pool = IdPool::new(2);
/// let a = pool.alloc().unwrap();
/// let b = pool.alloc().unwrap();
/// assert_eq!((a, b), (1, 2));
/// assert_eq!(pool.alloc(), None);
/// pool.free(a);
/// assert_eq!(pool.alloc(), Some(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdPool {
    next: u32,
    max: u32,
    free: Vec<u32>,
}

impl IdPool {
    /// Creates a pool handing out ids `1..=max`.
    pub fn new(max: u32) -> Self {
        IdPool {
            next: 1,
            max,
            free: Vec::new(),
        }
    }

    /// Allocates an id, preferring recycled ones; `None` when exhausted.
    pub fn alloc(&mut self) -> Option<u32> {
        if let Some(id) = self.free.pop() {
            return Some(id);
        }
        if self.next <= self.max {
            let id = self.next;
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    /// The id the next [`IdPool::alloc`] returns, without allocating it:
    /// lets a creation check the object it would build before changing
    /// anything.
    pub fn peek(&self) -> Option<u32> {
        match self.free.last() {
            Some(&id) => Some(id),
            None => (self.next <= self.max).then_some(self.next),
        }
    }

    /// Returns an id to the pool. Returns `false` (freeing nothing) when
    /// `id` was never allocated or is already free.
    ///
    /// Under lock-based backends a `false` return indicates a bug and
    /// callers assert on it; under optimistic backends a doomed
    /// transaction can legitimately attempt a stale free, which its
    /// abort then discards.
    #[must_use]
    pub fn free(&mut self, id: u32) -> bool {
        if id < 1 || id >= self.next || self.free.contains(&id) {
            return false;
        }
        self.free.push(id);
        true
    }

    /// Number of ids currently live.
    pub fn live(&self) -> usize {
        (self.next as usize - 1) - self.free.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> u32 {
        self.max
    }

    /// Largest raw id that may ever be handed out (for sizing dense stores).
    pub fn max_raw(&self) -> u32 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_sequential_from_one() {
        let mut p = IdPool::new(3);
        assert_eq!(p.alloc(), Some(1));
        assert_eq!(p.alloc(), Some(2));
        assert_eq!(p.alloc(), Some(3));
        assert_eq!(p.alloc(), None);
        assert_eq!(p.live(), 3);
    }

    #[test]
    fn recycles_lifo() {
        let mut p = IdPool::new(4);
        for _ in 0..4 {
            p.alloc().unwrap();
        }
        assert!(p.free(2));
        assert!(p.free(4));
        assert_eq!(p.alloc(), Some(4));
        assert_eq!(p.alloc(), Some(2));
        assert_eq!(p.alloc(), None);
    }

    #[test]
    fn live_tracks_frees() {
        let mut p = IdPool::new(10);
        let a = p.alloc().unwrap();
        let _b = p.alloc().unwrap();
        assert_eq!(p.live(), 2);
        assert!(p.free(a));
        assert_eq!(p.live(), 1);
    }

    #[test]
    fn free_of_unallocated_is_rejected() {
        let mut p = IdPool::new(10);
        assert!(!p.free(5));
        let id = p.alloc().unwrap();
        assert!(p.free(id));
        assert!(!p.free(id), "double free must be rejected");
    }

    #[test]
    fn typed_ids_format() {
        let id = AtomicPartId(7);
        assert_eq!(format!("{id:?}"), "AtomicPartId(7)");
        assert_eq!(format!("{id}"), "7");
        assert_eq!(id.raw(), 7);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            /// Arbitrary alloc/free interleavings keep the pool's model:
            /// live ids are unique, within bounds, counted exactly, only
            /// live ids can be freed, and `peek` names what `alloc` hands
            /// out next.
            #[test]
            fn alloc_free_model(
                capacity in 1u32..40,
                ops in proptest::collection::vec((proptest::bool::ANY, 0u32..45), 0..120),
            ) {
                let mut pool = IdPool::new(capacity);
                let mut live: HashSet<u32> = HashSet::new();
                for (is_alloc, pick) in ops {
                    if is_alloc {
                        prop_assert_eq!(pool.peek(), pool.clone().alloc());
                        match pool.alloc() {
                            Some(id) => {
                                prop_assert!((1..=capacity).contains(&id));
                                prop_assert!(live.insert(id), "id {id} double-allocated");
                            }
                            None => prop_assert_eq!(live.len() as u32, capacity),
                        }
                    } else {
                        let expect = live.remove(&pick);
                        prop_assert_eq!(pool.free(pick), expect);
                    }
                    prop_assert_eq!(pool.live(), live.len());
                    prop_assert_eq!(pool.capacity(), capacity);
                }
            }

            /// Draining and refilling always hands back the full id range.
            #[test]
            fn drain_refill_covers_range(capacity in 1u32..60) {
                let mut pool = IdPool::new(capacity);
                let first: HashSet<u32> = (0..capacity).map(|_| pool.alloc().unwrap()).collect();
                prop_assert_eq!(first.len() as u32, capacity);
                prop_assert_eq!(pool.alloc(), None);
                for id in &first {
                    prop_assert!(pool.free(*id));
                }
                let second: HashSet<u32> = (0..capacity).map(|_| pool.alloc().unwrap()).collect();
                prop_assert_eq!(second, first);
            }
        }
    }
}
