//! The sharded-index subsystem: one id routing for every per-shard
//! layer, and N per-shard B+trees behind one map API.
//!
//! The paper's §5 diagnosis is that the six Table 1 indexes are the
//! contention hot spot: under coarse representations every index update
//! conflicts with every other. Sharding is the structural remedy, applied
//! *below* the synchronization layer: keys are routed by [`ShardKey`] onto
//! one of N independent shards, so backends can wrap each shard in its
//! own lock (medium/fine strategies) or its own transactional variable
//! (the STM backends), and two operations touching different shards never
//! contend. Indexes 3–6 are [`ShardedIndex`]es of [`BTree`]s. The
//! atomic-part indexes take the shape of their keys instead (see
//! [`crate::workspace::AtomicGroup`]): index 1 is the dense slot store,
//! and index 2 one [`crate::DateIndex`] per shard.
//!
//! Sharding is invisible to results: `for_each` and `for_range` merge the
//! (individually sorted) shards back into one globally key-ordered visit,
//! so a sharded index enumerates *exactly* the sequence the monolithic
//! tree would, and [`merge_date_entries`] does the same for index 2 —
//! the property the cross-backend oracle tests rely on.
//!
//! Routing conventions (fixed so every layer agrees shard-for-shard):
//!
//! * `u32` raw ids route by `id % shards`, computed by [`ShardMap`];
//! * `(date, id)` build-date entries route by **id**, not date, so a
//!   part's date entry lives in the same shard as the part itself and a
//!   date update (OP15) touches exactly one shard;
//! * `String` titles route by a stable FNV-1a hash.

use crate::btree::BTree;

/// Upper bound on `StructureParams::index_shards`: shard sets are
/// declared as 64-bit masks in [`crate::spec::ShardSet`].
pub const MAX_SHARDS: usize = 64;

/// Exact `raw % n` and `raw / n` for one fixed shard count `n`, without
/// a division per call.
///
/// Every id-routed layer (index shards, medium's atomic-part lock shards
/// and their dense per-shard stores, STM index buckets, fine's date-index
/// locks) maps a raw id to a shard, and some also to a slot within it, on
/// every access. For `n > 1` both come from Lemire, Kaser and Kurz's
/// precomputed reciprocal `m = ⌈2⁶⁴ / n⌉` ("Faster Remainder by Direct
/// Computation", 2019): `raw / n` is the high word of `m · raw`, and
/// `raw % n` the high word of `(m · raw mod 2⁶⁴) · n`, both exact for
/// every 32-bit `raw` and `n`. For `n = 1` the reciprocal overflows, and
/// the map answers `0` and `raw` directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n: u32,
    /// `⌈2⁶⁴ / n⌉`; unused when `n == 1`.
    m: u64,
}

impl ShardMap {
    /// The map for `n` shards.
    ///
    /// # Panics
    ///
    /// Panics when `n` is 0 or does not fit a `u32`.
    pub fn new(n: usize) -> Self {
        let n = u32::try_from(n)
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("shard count must be in 1..=u32::MAX, got {n}"));
        let m = if n == 1 {
            0
        } else {
            u64::MAX / u64::from(n) + 1
        };
        ShardMap { n, m }
    }

    /// The shard count `n`.
    #[inline]
    pub fn count(&self) -> usize {
        self.n as usize
    }

    /// `raw % n`: the shard `raw` routes to.
    #[inline]
    pub fn shard(&self, raw: u32) -> usize {
        if self.n == 1 {
            return 0;
        }
        let low = self.m.wrapping_mul(u64::from(raw));
        ((u128::from(low) * u128::from(self.n)) >> 64) as usize
    }

    /// `raw / n`: `raw`'s slot within its shard.
    #[inline]
    pub fn local(&self, raw: u32) -> u32 {
        if self.n == 1 {
            return raw;
        }
        ((u128::from(self.m) * u128::from(raw)) >> 64) as u32
    }
}

/// Routes a key to its shard. Implementations must be pure functions of
/// the key and the shard count — every layer (workspace, lock backends,
/// STM backends) relies on agreeing where a key lives.
pub trait ShardKey {
    /// The shard index in `0..map.count()` this key routes to.
    fn shard(&self, map: &ShardMap) -> usize;
}

impl ShardKey for u32 {
    #[inline]
    fn shard(&self, map: &ShardMap) -> usize {
        map.shard(*self)
    }
}

/// Build-date keys route by the *id* component so a part and its date
/// entry always share a shard (date updates stay single-shard).
impl ShardKey for (i32, u32) {
    #[inline]
    fn shard(&self, map: &ShardMap) -> usize {
        map.shard(self.1)
    }
}

impl ShardKey for String {
    fn shard(&self, map: &ShardMap) -> usize {
        shard_of_str(self, map.count())
    }
}

/// Stable FNV-1a routing for string keys (used for document titles); a
/// free function so callers holding a `&str` can route without allocating.
pub fn shard_of_str(s: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize % shards
}

/// Restores the global `(date, id)` order over build-date index entries
/// gathered shard-by-shard and strips them to part ids — the shared tail
/// of every backend's sharded date-range scan (OP2/OP3/OP10). Keeping it
/// in one place keeps the backends' scan ordering provably identical.
pub fn merge_date_entries(mut entries: Vec<(i32, u32)>) -> Vec<crate::ids::AtomicPartId> {
    entries.sort_unstable();
    entries
        .into_iter()
        .map(|(_, id)| crate::ids::AtomicPartId(id))
        .collect()
}

/// An ordered map sharded over N independent B+trees (see module docs).
///
/// # Examples
///
/// ```
/// use stmbench7_data::sharded::ShardedIndex;
///
/// let mut idx: ShardedIndex<u32, u32> = ShardedIndex::new(4);
/// for i in 0..100 {
///     idx.insert(i, i * 2);
/// }
/// assert_eq!(idx.get(&40), Some(&80));
/// assert_eq!(idx.shard_count(), 4);
/// // Enumeration is globally key-ordered despite the sharding.
/// let mut keys = Vec::new();
/// idx.for_each(|k, _| keys.push(*k));
/// assert_eq!(keys, (0..100).collect::<Vec<u32>>());
/// ```
#[derive(Clone, Debug)]
pub struct ShardedIndex<K, V> {
    shards: Vec<BTree<K, V>>,
    map: ShardMap,
    len: usize,
}

impl<K: Ord + Clone + ShardKey, V: Clone> ShardedIndex<K, V> {
    /// Creates an empty index over `shards` trees (≥ 1; 1 is exactly a
    /// monolithic B+tree).
    pub fn new(shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        ShardedIndex {
            shards: (0..shards).map(|_| BTree::new()).collect(),
            map: ShardMap::new(shards),
            len: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, k: &K) -> usize {
        k.shard(&self.map)
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no shard has entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a key in its shard.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.shards[self.shard_of(k)].get(k)
    }

    /// True when the key is present.
    pub fn contains(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let shard = self.shard_of(&k);
        let old = self.shards[shard].insert(k, v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let shard = self.shard_of(k);
        let removed = self.shards[shard].remove(k);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Globally key-ordered visit of every entry: the shards (each sorted)
    /// are k-way merged, so iteration order equals the monolithic tree's.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (k, v) in self.merged(BTree::entries) {
            f(k, v);
        }
    }

    /// Every entry, cloned, in global key order.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Globally key-ordered visit of entries with keys in `[lo, hi]`.
    pub fn for_range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        for (k, v) in self.merged(|shard| shard.entries_in_range(lo, hi)) {
            f(k, v);
        }
    }

    /// Concatenates the per-shard (sorted) slices and restores the global
    /// key order with one sort. Keys are globally unique (each routes to
    /// exactly one shard), so an unstable sort is deterministic, and
    /// sorting shards-many already-sorted runs is the cheap case of
    /// pattern-defeating quicksort.
    fn merged<'a>(
        &'a self,
        collect: impl Fn(&'a BTree<K, V>) -> Vec<(&'a K, &'a V)>,
    ) -> Vec<(&'a K, &'a V)> {
        if self.shards.len() == 1 {
            return collect(&self.shards[0]);
        }
        let mut out: Vec<(&K, &V)> = self.shards.iter().flat_map(collect).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Read access to the individual shard trees, in shard order — the
    /// splitting point for backends that put each shard behind its own
    /// lock or transactional variable.
    pub fn shards(&self) -> &[BTree<K, V>] {
        &self.shards
    }

    /// Decomposes the index into its shard trees (shard `s` holds exactly
    /// the keys with `ShardKey::shard == s`).
    pub fn into_shards(self) -> Vec<BTree<K, V>> {
        self.shards
    }

    /// Reassembles an index from per-shard trees produced by
    /// [`ShardedIndex::into_shards`] (or built shard-by-shard under
    /// per-shard locks).
    ///
    /// # Panics
    ///
    /// Panics (debug) if a key sits in the wrong shard.
    pub fn from_shards(shards: Vec<BTree<K, V>>) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards.len()),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        let len = shards.iter().map(BTree::len).sum();
        let map = ShardMap::new(shards.len());
        let index = ShardedIndex { shards, map, len };
        #[cfg(debug_assertions)]
        for (s, shard) in index.shards.iter().enumerate() {
            shard.for_each(|k, _| {
                debug_assert_eq!(index.shard_of(k), s, "key routed to the wrong shard");
            });
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn one_shard_behaves_like_a_btree() {
        let mut idx: ShardedIndex<u32, &str> = ShardedIndex::new(1);
        assert!(idx.is_empty());
        assert_eq!(idx.insert(1, "a"), None);
        assert_eq!(idx.insert(1, "b"), Some("a"));
        assert_eq!(idx.get(&1), Some(&"b"));
        assert_eq!(idx.remove(&1), Some("b"));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        let _ = ShardedIndex::<u32, ()>::new(0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn oversized_shard_count_rejected() {
        let _ = ShardedIndex::<u32, ()>::new(MAX_SHARDS + 1);
    }

    #[test]
    fn date_keys_route_by_id_not_date() {
        let map = ShardMap::new(8);
        for id in 0..100u32 {
            for date in [1000, 1500, 1999] {
                assert_eq!((date, id).shard(&map), id.shard(&map));
            }
        }
    }

    #[test]
    fn shard_map_is_exact_division() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5eed);
        // Every lock-shard count, and STM's default bucket count.
        for n in (1..=64u32).chain([256]) {
            let map = ShardMap::new(n as usize);
            assert_eq!(map.count(), n as usize);
            let edges = [0, 1, n - 1, n, n + 1, u32::MAX];
            let random = (0..10_000).map(|_| rng.gen::<u32>());
            for raw in edges.into_iter().chain(random) {
                assert_eq!(map.shard(raw), (raw % n) as usize, "{raw} % {n}");
                assert_eq!(map.local(raw), raw / n, "{raw} / {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn shard_map_rejects_zero() {
        let _ = ShardMap::new(0);
    }

    #[test]
    fn string_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 64] {
            for s in ["", "Manual", "Composite Part #42"] {
                let a = shard_of_str(s, shards);
                assert_eq!(a, shard_of_str(s, shards));
                assert_eq!(a, s.to_string().shard(&ShardMap::new(shards)));
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn round_trip_through_shards() {
        let mut idx: ShardedIndex<u32, u32> = ShardedIndex::new(5);
        for i in 0..50 {
            idx.insert(i, i + 1);
        }
        let shards = idx.into_shards();
        assert_eq!(shards.len(), 5);
        let back = ShardedIndex::from_shards(shards);
        assert_eq!(back.len(), 50);
        assert_eq!(back.get(&49), Some(&50));
    }

    proptest! {
        /// Every key routes to exactly one shard: after any operation
        /// sequence, each live key is present in its routed shard and in
        /// no other.
        #[test]
        fn keys_live_in_exactly_one_shard(
            ops in proptest::collection::vec((0u8..3, 0u32..500), 1..300),
            shards in 1usize..=16,
        ) {
            let mut idx: ShardedIndex<u32, u32> = ShardedIndex::new(shards);
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for (op, k) in ops {
                match op {
                    0 | 1 => {
                        prop_assert_eq!(idx.insert(k, k + 7), model.insert(k, k + 7));
                    }
                    _ => {
                        prop_assert_eq!(idx.remove(&k), model.remove(&k));
                    }
                }
            }
            for (k, v) in &model {
                let home = k.shard(&ShardMap::new(shards));
                for (s, shard) in idx.shards().iter().enumerate() {
                    if s == home {
                        prop_assert_eq!(shard.get(k), Some(v));
                    } else {
                        prop_assert_eq!(shard.get(k), None);
                    }
                }
            }
        }

        /// A sharded index enumerates the same (key, value) sequence — in
        /// the same order — as the unsharded build of the same entries.
        #[test]
        fn enumeration_matches_unsharded(
            keys in proptest::collection::btree_set((0i32..64, 0u32..500), 0..200),
            shards in 1usize..=16,
            lo in (0i32..64, 0u32..500),
            hi in (0i32..64, 0u32..500),
        ) {
            let mut sharded: ShardedIndex<(i32, u32), u32> = ShardedIndex::new(shards);
            let mut mono: BTree<(i32, u32), u32> = BTree::new();
            for k in &keys {
                sharded.insert(*k, k.1);
                mono.insert(*k, k.1);
            }
            prop_assert_eq!(sharded.len(), keys.len());
            let mut a = Vec::new();
            sharded.for_each(|k, v| a.push((*k, *v)));
            let mut b = Vec::new();
            mono.for_each(|k, v| b.push((*k, *v)));
            prop_assert_eq!(a, b);
            let mut ra = Vec::new();
            sharded.for_range(&lo, &hi, |k, _| ra.push(*k));
            let mut rb = Vec::new();
            mono.for_range(&lo, &hi, |k, _| rb.push(*k));
            prop_assert_eq!(ra, rb);
        }
    }
}
