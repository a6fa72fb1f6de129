//! The per-thread scratch of the graph walks (T1–T3, ST3/ST8, ST9/ST10).
//!
//! A walk needs a visited set and a stack. Allocating both per walk — a
//! SipHash hash set per atomic graph — cost more than the visits
//! themselves, so each thread keeps one [`Walk`] and lends it to one walk
//! at a time. A walk keys it by whatever dense `u32` it walks: the atomic
//! graph walks by a part's local index in its composite part's
//! [`stmbench7_data::PartGraph`], ST3/ST8 by complex-assembly raw id.
//!
//! * the **visited bitset** has one bit per key and grows on demand to
//!   the largest key seen. It is never sized from the structure
//!   parameters: SM1 and SM7 hand out ids above the initial population,
//!   and one thread may walk workspaces of several presets;
//! * the **visited list** records the keys set since the last
//!   [`Walk::begin`], which clears exactly those bits. A walk that ends
//!   in an error, an abort or an early return therefore leaves nothing
//!   stale behind, and the list's length is the visited count;
//! * the **stack** keeps its capacity from walk to walk.
//!
//! An atomic graph's local indexes stop at its part count: 200 bits, half
//! a cache line, at `standard`, and ~12 KiB at `paper-full`'s 100 000
//! parts per graph. ST3/ST8's keys stay below the complex-assembly pool
//! bound.

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
    use std::collections::BTreeSet;

    use std::sync::Arc;

    use stmbench7_data::{
        BaseAssemblyId, CompositePartId, DirectTx, OpOutcome, PartGraph, Sb7Tx, StructureParams,
        Workspace,
    };

    use super::*;
    use crate::ops::traversals::{traverse_graph, PartAction};
    use crate::ops::{run_op, OpCtx, OpKind};

    /// The reference: a depth-first reachability count over part ids
    /// with a fresh set.
    fn reference_count(graph: &PartGraph) -> i64 {
        let local = |id| graph.parts.iter().position(|&p| p == id).unwrap();
        let mut seen = BTreeSet::new();
        let mut stack = vec![graph.root()];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(graph.connections(local(id)).map(|c| c.to));
            }
        }
        seen.len() as i64
    }

    fn graph_of(ws: &Workspace, comp: u32) -> Arc<PartGraph> {
        Arc::clone(&ws.composites.store.get(comp).expect("composite").graph)
    }

    fn walk_count(ws: &Workspace, graph: &PartGraph) -> i64 {
        let mut tx = DirectTx::reading(ws);
        traverse_graph(&mut tx, graph, PartAction::Read, &mut 0).expect("read-only walk")
    }

    #[test]
    fn walks_alternating_between_presets_match_a_set_reference() {
        // Tiny's local indexes all lie inside standard's range, so a bit
        // left standing by one preset's walk would hide parts of the
        // other's.
        let tiny = Workspace::build(StructureParams::tiny(), 3);
        let standard = Workspace::build(StructureParams::standard(), 3);
        for comp in 1..=12 {
            for ws in [&tiny, &standard, &tiny] {
                let graph = graph_of(ws, comp);
                assert_eq!(
                    walk_count(ws, &graph),
                    reference_count(&graph),
                    "comp {comp}"
                );
            }
        }
        let last = graph_of(&standard, 500);
        assert_eq!(walk_count(&standard, &last), reference_count(&last));
    }

    #[test]
    fn a_walk_that_fails_partway_leaves_no_stale_bit() {
        let p = StructureParams::tiny();
        let ws = Workspace::build(p.clone(), 3);
        let graph = graph_of(&ws, 1);
        let mut tx = DirectTx::reading(&ws);
        // The read-only transaction refuses the first update, after the
        // walk has marked the root and pushed its targets.
        let update = PartAction::UpdateAll {
            indexed: false,
            times: 1,
        };
        assert!(traverse_graph(&mut tx, &graph, update, &mut 0).is_err());
        assert_eq!(walk_count(&ws, &graph), p.atomics_per_comp as i64);
    }

    #[test]
    fn a_nested_walk_gets_a_fresh_scratch() {
        let p = StructureParams::tiny();
        let ws = Workspace::build(p.clone(), 3);
        let graph = graph_of(&ws, 2);
        Walk::with(|outer| {
            outer.begin();
            assert!(outer.insert(0));
            // The thread's scratch is lent out, so this walk builds its
            // own and neither walk sees the other's bits.
            assert_eq!(walk_count(&ws, &graph), p.atomics_per_comp as i64);
            assert!(!outer.insert(0), "the outer walk keeps its bit");
            assert_eq!(outer.visited(), &[0]);
        });
        // The outer scratch went back to the thread with its bit set.
        assert_eq!(walk_count(&ws, &graph), p.atomics_per_comp as i64);
    }

    #[test]
    fn t1_counts_parts_created_above_every_id_seen_so_far() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let t1 = |ws: &mut Workspace| {
            let mut ctx = OpCtx::new(ws.params.clone(), 0);
            run_op(OpKind::T1, &mut DirectTx::writing(ws), &mut ctx).expect("direct T1")
        };
        // T1 counts each part once per base-assembly link to its graph.
        let census = |ws: &Workspace| -> i64 {
            ws.bases
                .store
                .iter()
                .flat_map(|(_, b)| &b.components)
                .map(|c| {
                    ws.composites
                        .store
                        .get(c.raw())
                        .expect("linked")
                        .graph
                        .parts
                        .len() as i64
                })
                .sum()
        };
        assert_eq!(t1(&mut ws), OpOutcome::Done(census(&ws)));
        let seen = ws.atomics.store.iter().map(|(raw, _)| raw).max().unwrap();

        let mut ctx = OpCtx::new(p.clone(), 7);
        let mut tx = DirectTx::writing(&mut ws);
        let OpOutcome::Done(comp) = run_op(OpKind::Sm1, &mut tx, &mut ctx).unwrap() else {
            panic!("SM1 has room on a fresh build");
        };
        let comp = CompositePartId(comp as u32);
        let base = BaseAssemblyId(1);
        tx.base_mut(base, |b| b.components.push(comp)).unwrap();
        tx.composite_mut(comp, |c| c.used_in.push(base)).unwrap();
        let new_parts = graph_of(&ws, comp.raw()).parts.clone();
        assert!(
            new_parts.iter().all(|id| id.raw() > seen),
            "SM1 grew the id range"
        );

        assert_eq!(t1(&mut ws), OpOutcome::Done(census(&ws)));
    }
}
