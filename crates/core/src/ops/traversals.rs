//! Long traversals T1–T6 and queries Q6, Q7 (paper Appendix B.2.1).
//!
//! All originate from OO7 and never fail. They are the operations that
//! make STMBench7 a "crash test" for STMs: T1 alone opens every assembly,
//! every composite part and every atomic part reachable from the module.
//!
//! # Visit order
//!
//! The walk over an atomic graph (`traverse_graph`, which also serves
//! ST9/ST10) iterates the composite part's immutable [`PartGraph`] in its
//! stored depth-first order, [`PartGraph::dfs`]: the graph never changes,
//! so neither does the order, and it is computed once when the graph is
//! built. Each part in that order is opened once through `tx.atomic`,
//! and an update follows its part's open, so every backend sees the
//! accesses of a search from the root that pushes a part's targets in
//! connection order and pops them last-in first-out. That order fixes
//! every update order and every returned value, which
//! `tests/op_outcomes_pinned.rs` holds to constants.

use std::sync::Arc;

use stmbench7_data::objects::AssemblyChildren;
use stmbench7_data::{
    AtomicPart, BaseAssemblyId, ComplexAssemblyId, OpOutcome, PartGraph, Sb7Tx, TxR,
};

/// What a T-family traversal does to the atomic parts it reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PartAction {
    /// T1: read-only visit of every part.
    Read,
    /// T6: visit only each graph's root part.
    ReadRootOnly,
    /// T2a / T3a: update only root parts (`times` applications).
    UpdateRoot { indexed: bool, times: u32 },
    /// T2b, T2c / T3b, T3c: update every part.
    UpdateAll { indexed: bool, times: u32 },
}

/// Collects all base assemblies by a depth-first walk of the assembly
/// tree, reading every complex assembly on the way (shared by the long
/// traversals).
pub(crate) fn collect_bases_depth_first<T: Sb7Tx>(tx: &mut T) -> TxR<Vec<BaseAssemblyId>> {
    let root = tx.module(|m| m.design_root)?;
    let mut bases = Vec::new();
    let mut stack = vec![root];
    while let Some(ca) = stack.pop() {
        let children = tx.complex(ca, |c| c.children.clone())?;
        match children {
            AssemblyChildren::Complex(v) => stack.extend(v),
            AssemblyChildren::Base(v) => bases.extend(v),
        }
    }
    Ok(bases)
}

/// Visits one composite part's atomic graph in its depth-first order from
/// the root part, applying `action`. Returns the number of parts visited.
pub(crate) fn traverse_graph<T: Sb7Tx>(
    tx: &mut T,
    graph: &PartGraph,
    action: PartAction,
    checksum: &mut i64,
) -> TxR<i64> {
    if matches!(action, PartAction::ReadRootOnly) {
        *checksum += tx.atomic(graph.root(), |p| i64::from(p.x) + i64::from(p.y))?;
        return Ok(1);
    }
    for &local in &graph.dfs {
        let id = graph.parts[local as usize];
        *checksum += tx.atomic(id, |p| i64::from(p.x) + i64::from(p.y))?;
        let do_update = match action {
            PartAction::Read | PartAction::ReadRootOnly => None,
            PartAction::UpdateRoot { indexed, times } => (local == 0).then_some((indexed, times)),
            PartAction::UpdateAll { indexed, times } => Some((indexed, times)),
        };
        if let Some((indexed, times)) = do_update {
            for _ in 0..times {
                if indexed {
                    let date = tx.atomic(id, |p| p.build_date)?;
                    tx.set_atomic_build_date(id, AtomicPart::next_build_date(date))?;
                } else {
                    tx.atomic_mut(id, |p| p.swap_xy())?;
                }
            }
        }
    }
    Ok(graph.dfs.len() as i64)
}

/// The common T1/T2/T3 skeleton: full tree walk, then every composite
/// part of every base assembly, then its atomic graph.
fn t_family<T: Sb7Tx>(tx: &mut T, action: PartAction) -> TxR<OpOutcome> {
    let bases = collect_bases_depth_first(tx)?;
    let mut count = 0i64;
    let mut checksum = 0i64;
    for base in bases {
        let comps = tx.base(base, |b| b.components.clone())?;
        for comp in comps {
            let graph = tx.composite(comp, |c| Arc::clone(&c.graph))?;
            count += traverse_graph(tx, &graph, action, &mut checksum)?;
        }
    }
    std::hint::black_box(checksum);
    Ok(OpOutcome::Done(count))
}

/// T1: read-only traversal of the entire structure; returns the number of
/// atomic parts visited.
pub fn t1<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(tx, PartAction::Read)
}

/// T2a: as T1, updating non-indexed attributes of each root atomic part.
pub fn t2a<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateRoot {
            indexed: false,
            times: 1,
        },
    )
}

/// T2b: as T1, updating non-indexed attributes of every atomic part.
pub fn t2b<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateAll {
            indexed: false,
            times: 1,
        },
    )
}

/// T2c: as T2b, with each update performed four times, one by one.
pub fn t2c<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateAll {
            indexed: false,
            times: 4,
        },
    )
}

/// T3a: as T2a on the indexed `buildDate` attribute.
pub fn t3a<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateRoot {
            indexed: true,
            times: 1,
        },
    )
}

/// T3b: as T2b on the indexed `buildDate` attribute.
pub fn t3b<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateAll {
            indexed: true,
            times: 1,
        },
    )
}

/// T3c: as T3b, four updates per part.
pub fn t3c<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(
        tx,
        PartAction::UpdateAll {
            indexed: true,
            times: 4,
        },
    )
}

/// T4: traversal down to documents, counting `'I'` characters.
pub fn t4<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    let bases = collect_bases_depth_first(tx)?;
    let mut total = 0i64;
    for base in bases {
        let comps = tx.base(base, |b| b.components.clone())?;
        for comp in comps {
            let doc = tx.composite(comp, |c| c.doc)?;
            total += tx.document(doc, |d| {
                stmbench7_data::text::count_char(&d.text, 'I') as i64
            })?;
        }
    }
    Ok(OpOutcome::Done(total))
}

/// T5: as T4, swapping `"I am"` ↔ `"This is"` in every document; returns
/// the number of substrings replaced.
pub fn t5<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    let bases = collect_bases_depth_first(tx)?;
    let mut total = 0i64;
    for base in bases {
        let comps = tx.base(base, |b| b.components.clone())?;
        for comp in comps {
            let doc = tx.composite(comp, |c| c.doc)?;
            total +=
                tx.document_mut(doc, |d| stmbench7_data::text::swap_text(&mut d.text) as i64)?;
        }
    }
    Ok(OpOutcome::Done(total))
}

/// T6: as T1 but visiting only each graph's root atomic part.
pub fn t6<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    t_family(tx, PartAction::ReadRootOnly)
}

/// Q6: count complex assemblies that are ancestors of a base assembly
/// whose build date is lower than that of one of its composite parts.
pub fn q6<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    fn rec<T: Sb7Tx>(tx: &mut T, ca: ComplexAssemblyId, matched: &mut i64) -> TxR<bool> {
        let children = tx.complex(ca, |c| c.children.clone())?;
        let mut any = false;
        match children {
            AssemblyChildren::Complex(v) => {
                for child in v {
                    any |= rec(tx, child, matched)?;
                }
            }
            AssemblyChildren::Base(v) => {
                for base in v {
                    let (date, comps) = tx.base(base, |b| (b.build_date, b.components.clone()))?;
                    for comp in comps {
                        // Iterate "until one with a larger buildDate is
                        // found", per the spec.
                        if tx.composite(comp, |c| c.build_date)? > date {
                            any = true;
                            break;
                        }
                    }
                }
            }
        }
        if any {
            *matched += 1;
        }
        Ok(any)
    }

    let root = tx.module(|m| m.design_root)?;
    let mut matched = 0i64;
    rec(tx, root, &mut matched)?;
    Ok(OpOutcome::Done(matched))
}

/// Q7: iterate over all atomic parts via the id index.
pub fn q7<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    let mut checksum = 0i64;
    let visited = tx.for_each_atomic(|p| checksum += i64::from(p.x) + i64::from(p.y))?;
    std::hint::black_box(checksum);
    Ok(OpOutcome::Done(visited as i64))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::ops::{run_op, OpCtx, OpKind};
    use stmbench7_data::{AtomicPartId, CompositePartId, DirectTx, StructureParams, Workspace};

    /// The reference: a depth-first search over part ids with a fresh
    /// set, returning the ids in the order it reaches them.
    fn reference_order(graph: &PartGraph) -> Vec<AtomicPartId> {
        let local = |id| graph.parts.iter().position(|&p| p == id).unwrap();
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        let mut stack = vec![graph.root()];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                order.push(id);
                stack.extend(graph.connections(local(id)).map(|c| c.to));
            }
        }
        order
    }

    fn graph_of(ws: &Workspace, comp: u32) -> Arc<PartGraph> {
        Arc::clone(&ws.composites.store.get(comp).expect("composite").graph)
    }

    #[test]
    fn stored_orders_match_a_set_reference_across_presets() {
        // Tiny's local indexes all lie inside standard's range; each
        // graph's walk must follow its own order and count.
        let tiny = Workspace::build(StructureParams::tiny(), 3);
        let standard = Workspace::build(StructureParams::standard(), 3);
        let check = |ws: &Workspace, comp: u32| {
            let graph = graph_of(ws, comp);
            let stored: Vec<_> = graph.dfs.iter().map(|&l| graph.parts[l as usize]).collect();
            let reference = reference_order(&graph);
            assert_eq!(stored, reference, "comp {comp}");
            let mut tx = DirectTx::reading(ws);
            let walked = traverse_graph(&mut tx, &graph, PartAction::Read, &mut 0);
            assert_eq!(walked, Ok(reference.len() as i64), "comp {comp}");
        };
        for comp in 1..=12 {
            for ws in [&tiny, &standard, &tiny] {
                check(ws, comp);
            }
        }
        check(&standard, 500);
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
                .map(|c| graph_of(ws, c.raw()).parts.len() as i64)
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

    #[test]
    fn collect_bases_visits_every_base_exactly_once() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let mut tx = DirectTx::writing(&mut ws);
        let bases = collect_bases_depth_first(&mut tx).unwrap();
        assert_eq!(bases.len(), p.initial_bases());
        let mut unique: Vec<_> = bases.clone();
        unique.sort_unstable_by_key(|b| b.raw());
        unique.dedup();
        assert_eq!(unique.len(), bases.len(), "no base visited twice");
    }

    #[test]
    fn traverse_graph_read_visits_connected_component() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let graph = Arc::clone(&ws.composites.store.get(1).unwrap().graph);
        let mut tx = DirectTx::writing(&mut ws);
        let mut checksum = 0;
        let n = traverse_graph(&mut tx, &graph, PartAction::Read, &mut checksum).unwrap();
        // Graphs are ring-connected, so the DFS covers the whole graph.
        assert_eq!(n, p.atomics_per_comp as i64);
        let one = traverse_graph(&mut tx, &graph, PartAction::ReadRootOnly, &mut checksum).unwrap();
        assert_eq!(one, 1);
    }

    #[test]
    fn update_actions_report_the_same_counts_as_read() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let graph = Arc::clone(&ws.composites.store.get(2).unwrap().graph);
        let mut tx = DirectTx::writing(&mut ws);
        let mut checksum = 0;
        let read = traverse_graph(&mut tx, &graph, PartAction::Read, &mut checksum).unwrap();
        let updated = traverse_graph(
            &mut tx,
            &graph,
            PartAction::UpdateAll {
                indexed: false,
                times: 2,
            },
            &mut checksum,
        )
        .unwrap();
        assert_eq!(read, updated, "visit counts are action-independent");
    }
}
