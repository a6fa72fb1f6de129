//! The per-thread scratch of ST3/ST8's bottom-up walk.
//!
//! ST3 and ST8 climb from the base assemblies using a composite part to
//! the root, visiting each complex assembly at most once. Allocating a
//! visited set per walk cost more than the visits themselves, so each
//! thread keeps one [`Walk`] and lends it to one walk at a time, keyed by
//! complex-assembly raw id. (The atomic-graph walks need no scratch: each
//! graph stores its visit order, see `traversals.rs`.)
//!
//! * the **visited bitset** has one bit per key and grows on demand to
//!   the largest key seen. It is never sized from the structure
//!   parameters: SM7 hands out ids above the initial population, and one
//!   thread may walk workspaces of several presets;
//! * the **visited list** records the keys set since the last
//!   [`Walk::begin`], which clears exactly those bits. A walk that ends
//!   in an error, an abort or an early return therefore leaves nothing
//!   stale behind, and the list's length is the visited count;
//! * the **stack** keeps its capacity from walk to walk; ST3/ST8 use it
//!   as the work list of base assemblies.
//!
//! The keys stay below the complex-assembly pool bound.

use std::cell::Cell;

/// A visited bitset over `u32` keys, the keys it holds in insertion
/// order, and a reusable stack of keys.
#[derive(Default)]
pub(crate) struct Walk {
    bits: Vec<u64>,
    visited: Vec<u32>,
    /// The walk's stack (or work list) of keys; [`Walk::begin`] empties
    /// it.
    pub(crate) stack: Vec<u32>,
}

thread_local! {
    /// The thread's idle [`Walk`]; empty while a walk holds it.
    static SPARE: Cell<Option<Walk>> = const { Cell::new(None) };
}

impl Walk {
    /// Lends the thread's scratch to `f`, or a fresh one when a walk of
    /// this thread already holds it (a nested walk) or a panic dropped
    /// it. Each walk inside `f` starts with [`Walk::begin`].
    pub(crate) fn with<R>(f: impl FnOnce(&mut Walk) -> R) -> R {
        let mut walk = SPARE.with(Cell::take).unwrap_or_default();
        let result = f(&mut walk);
        SPARE.with(|spare| spare.set(Some(walk)));
        result
    }

    /// Starts a walk: clears the bits the previous walk set and empties
    /// the visited list and the stack.
    pub(crate) fn begin(&mut self) {
        for &raw in &self.visited {
            self.bits[raw as usize / 64] &= !(1 << (raw % 64));
        }
        self.visited.clear();
        self.stack.clear();
    }

    /// Marks `raw` visited; false when it already was.
    #[inline]
    pub(crate) fn insert(&mut self, raw: u32) -> bool {
        let (word, bit) = (raw as usize / 64, 1u64 << (raw % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit != 0 {
            return false;
        }
        self.bits[word] |= bit;
        self.visited.push(raw);
        true
    }

    /// The keys visited since [`Walk::begin`], in visiting order.
    pub(crate) fn visited(&self) -> &[u32] {
        &self.visited
    }
}

#[cfg(test)]
mod tests {
    use stmbench7_data::{DirectTx, OpOutcome, StructureParams, Workspace};

    use super::*;
    use crate::ops::{run_op, OpCtx, OpKind};

    /// Runs `op` with a context seeded `seed`; `Err` when the transaction
    /// refused an access.
    fn run(op: OpKind, tx: &mut DirectTx<'_>, seed: u64) -> Result<OpOutcome, ()> {
        let mut ctx = OpCtx::new(StructureParams::tiny(), seed);
        run_op(op, tx, &mut ctx).map_err(drop)
    }

    /// A context seed whose ST3 succeeds on `ws`, and its visit count.
    fn hitting_seed(ws: &Workspace) -> (u64, OpOutcome) {
        (0..)
            .find_map(
                |seed| match run(OpKind::St3, &mut DirectTx::reading(ws), seed) {
                    Ok(done @ OpOutcome::Done(_)) => Some((seed, done)),
                    _ => None,
                },
            )
            .expect("some random id hits")
    }

    #[test]
    fn a_walk_that_fails_partway_leaves_no_stale_bit() {
        let ws = Workspace::build(StructureParams::tiny(), 3);
        let (seed, fresh) = hitting_seed(&ws);
        // The read-only transaction refuses ST8's first update, after its
        // walk has marked every ancestor; ST3 of the same part then walks
        // the same assemblies and would stop at the first stale bit.
        assert!(run(OpKind::St8, &mut DirectTx::reading(&ws), seed).is_err());
        assert_eq!(
            run(OpKind::St3, &mut DirectTx::reading(&ws), seed),
            Ok(fresh)
        );
    }

    #[test]
    fn a_nested_walk_gets_a_fresh_scratch() {
        let ws = Workspace::build(StructureParams::tiny(), 3);
        let (seed, fresh) = hitting_seed(&ws);
        let root = ws.module.design_root.raw();
        Walk::with(|outer| {
            outer.begin();
            assert!(outer.insert(root));
            // The thread's scratch is lent out, so ST3 builds its own and
            // neither walk sees the other's bits, though both hold the
            // root.
            assert_eq!(
                run(OpKind::St3, &mut DirectTx::reading(&ws), seed),
                Ok(fresh)
            );
            assert!(!outer.insert(root), "the outer walk keeps its bit");
            assert_eq!(outer.visited(), &[root]);
        });
        // The outer scratch went back to the thread with its bit set.
        assert_eq!(
            run(OpKind::St3, &mut DirectTx::reading(&ws), seed),
            Ok(fresh)
        );
    }
}
