//! Index 2 of Table 1 (atomic-part build date → atomic parts), shaped
//! like its keys.
//!
//! Build dates lie in a fixed, tiny domain: the builder draws them from
//! `[min_date, max_date]` and [`crate::AtomicPart::next_build_date`] moves
//! a date by one step, so every date stays in
//! [`crate::StructureParams::date_domain`]. [`DateIndex`] therefore keeps
//! one sorted, duplicate-free bucket of part ids per date of that domain.
//! A range scan walks its buckets in `(date, id)` order, so one shard
//! needs no sort; [`crate::sharded::merge_date_entries`] stays the one
//! merge across id-routed shards.

use std::ops::RangeInclusive;

use crate::access::{TxErr, TxR};

/// The refusal of a build date outside a [`DateIndex`]'s domain.
pub const DATE_OUT_OF_DOMAIN: TxErr =
    TxErr::Invariant("build date outside the date index's domain");

/// `Ok` when `domain` holds `date`, else [`DATE_OUT_OF_DOMAIN`]: the check
/// of a strategy that keeps its date domain beside its index.
pub fn check_date(domain: &RangeInclusive<i32>, date: i32) -> TxR<()> {
    if domain.contains(&date) {
        Ok(())
    } else {
        Err(DATE_OUT_OF_DOMAIN)
    }
}

/// `(date, id)` entries of index 2 in per-date buckets (see module docs).
///
/// # Examples
///
/// ```
/// use stmbench7_data::DateIndex;
///
/// let mut index = DateIndex::new(999..=2000);
/// assert_eq!(index.insert(1500, 7), Ok(true));
/// assert_eq!(index.insert(1500, 3), Ok(true));
/// assert_eq!(index.insert(999, 9), Ok(true));
/// assert!(index.insert(2001, 1).is_err(), "outside the domain");
/// let mut seen = Vec::new();
/// index.for_range(i32::MIN, 1500, |date, id| seen.push((date, id)));
/// assert_eq!(seen, [(999, 9), (1500, 3), (1500, 7)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DateIndex {
    /// The first date of the domain; bucket `i` holds date `first + i`.
    first: i32,
    buckets: Vec<Vec<u32>>,
}

impl DateIndex {
    /// An empty index over the dates of `domain`.
    ///
    /// # Panics
    ///
    /// Panics when `domain` is empty.
    pub fn new(domain: RangeInclusive<i32>) -> Self {
        let (first, last) = domain.into_inner();
        assert!(first <= last, "empty date domain {first}..={last}");
        let dates = (i64::from(last) - i64::from(first) + 1) as usize;
        DateIndex {
            first,
            buckets: vec![Vec::new(); dates],
        }
    }

    /// The dates this index accepts.
    pub fn domain(&self) -> RangeInclusive<i32> {
        self.first..=self.first + (self.buckets.len() - 1) as i32
    }

    /// `Ok` when `date` lies in the domain, else [`DATE_OUT_OF_DOMAIN`].
    #[inline]
    pub fn check(&self, date: i32) -> TxR<()> {
        self.slot(date).map(drop)
    }

    #[inline]
    fn slot(&self, date: i32) -> TxR<usize> {
        let i = i64::from(date) - i64::from(self.first);
        usize::try_from(i)
            .ok()
            .filter(|&i| i < self.buckets.len())
            .ok_or(DATE_OUT_OF_DOMAIN)
    }

    /// Number of entries, summed over the buckets.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// True when no bucket holds an entry.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// Inserts `(date, id)`: `Ok(false)` when it was present already, and
    /// [`DATE_OUT_OF_DOMAIN`], leaving the index unchanged, when `date`
    /// lies outside the domain.
    pub fn insert(&mut self, date: i32, id: u32) -> TxR<bool> {
        let slot = self.slot(date)?;
        let bucket = &mut self.buckets[slot];
        // Ids are mostly handed out in ascending order: append is the
        // common case.
        if bucket.last().is_none_or(|&last| last < id) {
            bucket.push(id);
            return Ok(true);
        }
        match bucket.binary_search(&id) {
            Ok(_) => Ok(false),
            Err(i) => {
                bucket.insert(i, id);
                Ok(true)
            }
        }
    }

    /// Removes `(date, id)`, returning whether it was present.
    pub fn remove(&mut self, date: i32, id: u32) -> bool {
        let Ok(slot) = self.slot(date) else {
            return false;
        };
        let bucket = &mut self.buckets[slot];
        match bucket.binary_search(&id) {
            Ok(i) => {
                bucket.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Moves part `id`'s entry from date `from` to date `to`. A `to`
    /// outside the domain is refused with [`DATE_OUT_OF_DOMAIN`] before
    /// anything changes.
    pub fn move_entry(&mut self, id: u32, from: i32, to: i32) -> TxR<()> {
        self.check(to)?;
        self.remove(from, id);
        self.insert(to, id).map(drop)
    }

    /// Visits the entries with dates in `[lo, hi]` in `(date, id)` order;
    /// the range is clamped to the domain, and an inverted range visits
    /// nothing.
    pub fn for_range(&self, lo: i32, hi: i32, mut f: impl FnMut(i32, u32)) {
        let last = *self.domain().end();
        let (lo, hi) = (lo.max(self.first), hi.min(last));
        if lo > hi {
            return;
        }
        let (a, b) = ((lo - self.first) as usize, (hi - self.first) as usize);
        for (date, bucket) in (lo..).zip(&self.buckets[a..=b]) {
            for &id in bucket {
                f(date, id);
            }
        }
    }

    /// Every bucket with its date, in date order, empty ones included.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, &[u32])> {
        (self.first..).zip(self.buckets.iter().map(Vec::as_slice))
    }

    /// The bucket of `date`, mutably and unchecked: whatever is written
    /// here bypasses the sorted, duplicate-free condition the other
    /// methods keep. Only corruption tests use it, to show that
    /// [`crate::validate()`] catches what it breaks.
    pub fn bucket_mut(&mut self, date: i32) -> Option<&mut Vec<u32>> {
        let slot = self.slot(date).ok()?;
        Some(&mut self.buckets[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const DOMAIN: RangeInclusive<i32> = 999..=1010;

    /// The index's entries, in visit order.
    fn entries(index: &DateIndex) -> Vec<(i32, u32)> {
        let mut out = Vec::new();
        index.for_range(i32::MIN, i32::MAX, |d, id| out.push((d, id)));
        out
    }

    fn reference_range(model: &BTreeSet<(i32, u32)>, lo: i32, hi: i32) -> Vec<(i32, u32)> {
        if lo > hi {
            return Vec::new();
        }
        model.range((lo, 0)..=(hi, u32::MAX)).copied().collect()
    }

    /// Random insert, remove, move and range sequences, dates drawn from
    /// two past either edge of the domain, against a `BTreeSet`.
    #[test]
    fn matches_a_btreeset_reference() {
        let (first, last) = (*DOMAIN.start(), *DOMAIN.end());
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(0xda7e ^ seed);
            let mut index = DateIndex::new(DOMAIN);
            let mut model: BTreeSet<(i32, u32)> = BTreeSet::new();
            let date = |rng: &mut SmallRng| rng.gen_range(first - 2..=last + 2);
            for step in 0..2_000 {
                let id = rng.gen_range(1..=40u32);
                match rng.gen_range(0..4) {
                    0 => {
                        let d = date(&mut rng);
                        let before = index.clone();
                        match index.insert(d, id) {
                            Ok(fresh) => {
                                assert!(DOMAIN.contains(&d), "{seed}/{step}: {d} accepted");
                                assert_eq!(fresh, model.insert((d, id)), "{seed}/{step}");
                            }
                            Err(e) => {
                                assert_eq!(e, DATE_OUT_OF_DOMAIN);
                                assert!(!DOMAIN.contains(&d), "{seed}/{step}: {d} refused");
                                assert_eq!(index, before, "a refused insert changed the index");
                            }
                        }
                    }
                    1 => {
                        let d = date(&mut rng);
                        assert_eq!(index.remove(d, id), model.remove(&(d, id)), "{seed}/{step}");
                    }
                    2 => {
                        // Move a present entry, as `set_date` does.
                        let Some(&(from, id)) = model.iter().nth(rng.gen_range(0..=model.len()))
                        else {
                            continue;
                        };
                        let to = date(&mut rng);
                        let before = index.clone();
                        match index.move_entry(id, from, to) {
                            Ok(()) => {
                                model.remove(&(from, id));
                                model.insert((to, id));
                            }
                            Err(e) => {
                                assert_eq!(e, DATE_OUT_OF_DOMAIN);
                                assert!(!DOMAIN.contains(&to));
                                assert_eq!(index, before, "a refused move changed the index");
                            }
                        }
                    }
                    _ => {
                        let (lo, hi) = (date(&mut rng), date(&mut rng));
                        let mut seen = Vec::new();
                        index.for_range(lo, hi, |d, id| seen.push((d, id)));
                        assert_eq!(seen, reference_range(&model, lo, hi), "[{lo}, {hi}]");
                    }
                }
                assert_eq!(index.len(), model.len());
            }
            assert_eq!(entries(&index), model.iter().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn domain_edges_empty_and_inverted_ranges() {
        let mut index = DateIndex::new(DOMAIN);
        assert!(index.is_empty());
        assert_eq!(index.domain(), DOMAIN);
        let (first, last) = (*DOMAIN.start(), *DOMAIN.end());
        assert_eq!(index.insert(first, 5), Ok(true));
        assert_eq!(index.insert(last, 4), Ok(true));
        assert_eq!(index.insert(last, 4), Ok(false), "no duplicate entries");
        assert_eq!(index.insert(first - 1, 1), Err(DATE_OUT_OF_DOMAIN));
        assert_eq!(index.insert(last + 1, 1), Err(DATE_OUT_OF_DOMAIN));
        assert_eq!(index.insert(i32::MIN, 1), Err(DATE_OUT_OF_DOMAIN));
        assert_eq!(index.insert(i32::MAX, 1), Err(DATE_OUT_OF_DOMAIN));
        assert_eq!(entries(&index), [(first, 5), (last, 4)]);
        let range = |lo, hi| {
            let mut out = Vec::new();
            index.for_range(lo, hi, |d, id| out.push((d, id)));
            out
        };
        assert_eq!(range(first, first), [(first, 5)]);
        assert_eq!(range(last, last), [(last, 4)]);
        assert_eq!(range(first + 1, last - 1), []);
        assert_eq!(range(last, first), [], "an inverted range");
        assert_eq!(range(i32::MAX, i32::MIN), []);
        assert_eq!(range(last + 1, i32::MAX), [], "past the domain");
        assert!(index.remove(first, 5));
        assert!(!index.remove(first, 5));
        assert!(
            !index.remove(last + 1, 4),
            "outside the domain holds nothing"
        );
        assert_eq!(index.len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty date domain")]
    fn empty_domain_is_rejected() {
        let _ = DateIndex::new(RangeInclusive::new(5, 4));
    }
}
