//! Failure injection against the structural validator.
//!
//! Every concurrency test in this suite trusts `validate()` to catch a
//! corrupted structure — so the validator itself must be shown to detect
//! each class of corruption a buggy backend could produce. Each test
//! takes a valid workspace, breaks exactly one invariant by hand, and
//! asserts the validator rejects it with the right diagnostic.

use std::sync::Arc;

use stmbench7::data::objects::AssemblyChildren;
use stmbench7::data::{validate, PartGraph, StructureParams, Workspace};

fn fresh() -> Workspace {
    Workspace::build(StructureParams::tiny(), 17)
}

/// Runs the validator and asserts it fails mentioning `needle`.
fn assert_rejects(ws: &Workspace, needle: &str) {
    match validate(ws) {
        Ok(_) => panic!("validator accepted a structure corrupted via: {needle}"),
        Err(msg) => assert!(
            msg.contains(needle),
            "wrong diagnostic: got {msg:?}, expected it to contain {needle:?}"
        ),
    }
}

#[test]
fn fresh_builds_validate() {
    validate(&fresh()).unwrap();
}

#[test]
fn detects_missing_design_root() {
    let mut ws = fresh();
    let root = ws.module.design_root.raw();
    let level = *ws.sm.complex_index.get(&root).unwrap();
    ws.complex_level_mut(level).store.remove(root);
    ws.sm.complex_index.remove(&root);
    assert_rejects(&ws, "design root does not exist");
}

#[test]
fn detects_stale_complex_level_index_for_the_root() {
    let mut ws = fresh();
    let root = ws.module.design_root.raw();
    // Claim the root lives at the wrong level: lookups that resolve the
    // level through index 6 can no longer find the object.
    ws.sm.complex_index.insert(root, 2);
    assert_rejects(&ws, "design root does not exist");
}

#[test]
fn detects_orphaned_subtree() {
    let mut ws = fresh();
    // Detach the root's first child without deleting the subtree: the
    // subtree becomes unreachable, breaking "the root complex assembly
    // is always connected to all base assemblies".
    let root = ws.module.design_root;
    let level = ws.params.assembly_levels;
    let ca = ws
        .complex_level_mut(level)
        .store
        .get_mut(root.raw())
        .unwrap();
    match &mut ca.children {
        AssemblyChildren::Complex(v) => {
            v.remove(0);
        }
        AssemblyChildren::Base(v) => {
            v.remove(0);
        }
    }
    assert_rejects(&ws, "unreachable");
}

#[test]
fn detects_parent_link_mismatch() {
    let mut ws = fresh();
    // Rewire some level-2 assembly's parent to itself.
    let victim = {
        let (raw, _) = ws.complex_level(2).store.iter().next().unwrap();
        raw
    };
    let ca = ws.complex_level_mut(2).store.get_mut(victim).unwrap();
    ca.parent = Some(ca.id);
    assert_rejects(&ws, "parent mismatch");
}

#[test]
fn detects_bag_multiplicity_mismatch() {
    let mut ws = fresh();
    // Add a forward link without the reverse entry.
    let comp = {
        let (raw, _) = ws.composites.store.iter().next().unwrap();
        stmbench7::data::CompositePartId(raw)
    };
    let (_, base) = ws.bases.store.iter().next().unwrap();
    let base_raw = base.id.raw();
    ws.bases
        .store
        .get_mut(base_raw)
        .unwrap()
        .components
        .push(comp);
    assert_rejects(&ws, "bag multiplicity mismatch");
}

#[test]
fn detects_dangling_used_in_entry() {
    let mut ws = fresh();
    let (_, base) = ws.bases.store.iter().next().unwrap();
    let base_id = base.id;
    let comp_raw = {
        let (raw, _) = ws.composites.store.iter().next().unwrap();
        raw
    };
    // A reverse entry with no matching forward link.
    ws.composites
        .store
        .get_mut(comp_raw)
        .unwrap()
        .used_in
        .push(base_id);
    assert_rejects(&ws, "forward link");
}

#[test]
fn detects_date_index_drift() {
    let mut ws = fresh();
    // Mutate an indexed attribute directly, bypassing the index — the
    // bug `Sb7Tx::set_atomic_build_date` exists to prevent.
    let raw = {
        let (raw, _) = ws.atomics.store.iter().next().unwrap();
        raw
    };
    ws.atomics.store.get_mut(raw).unwrap().build_date += 1;
    assert_rejects(&ws, "missing from date index");
}

/// A workspace whose index 2 is split 8 ways, and its first part that
/// does not route to shard 0, with that part's date.
fn sharded() -> (Workspace, u32, i32) {
    let ws = Workspace::build(StructureParams::tiny().with_shards(8), 17);
    let map = ws.atomics.shard_map();
    let (raw, part) = ws
        .atomics
        .store
        .iter()
        .find(|(raw, _)| map.shard(*raw) != 0)
        .expect("parts route past shard 0");
    let date = part.build_date;
    (ws, raw, date)
}

#[test]
fn detects_date_edited_without_moving_its_entry() {
    let (mut ws, raw, date) = sharded();
    // Another date inside the domain: only the entry's place is wrong.
    let moved = if date > 1500 { date - 300 } else { date + 300 };
    ws.atomics.store.get_mut(raw).unwrap().build_date = moved;
    assert_rejects(&ws, "missing from date index");
}

#[test]
fn detects_duplicated_id_in_a_date_bucket() {
    let (mut ws, raw, date) = sharded();
    let shard = ws.atomics.shard_map().shard(raw);
    let bucket = ws.atomics.by_date[shard].bucket_mut(date).unwrap();
    let at = bucket.binary_search(&raw).unwrap();
    bucket.insert(at, raw);
    assert_rejects(&ws, "not sorted and duplicate-free");
}

#[test]
fn detects_date_entry_whose_part_was_removed() {
    let (mut ws, raw, _) = sharded();
    // The store is index 1: removing the part un-indexes it, but its
    // date entry stays behind.
    ws.atomics.store.remove(raw).unwrap();
    assert_rejects(&ws, "names no atomic part");
}

#[test]
fn detects_date_outside_the_domain() {
    let (mut ws, raw, _) = sharded();
    let past = *ws.params.date_domain().end() + 1;
    ws.atomics.store.get_mut(raw).unwrap().build_date = past;
    assert_rejects(&ws, "outside the date index's domain");
}

#[test]
fn detects_date_entry_in_the_wrong_shard() {
    let (mut ws, raw, date) = sharded();
    let shard = ws.atomics.shard_map().shard(raw);
    assert!(ws.atomics.by_date[shard].remove(date, raw));
    assert_eq!(ws.atomics.by_date[0].insert(date, raw), Ok(true));
    assert_rejects(&ws, "not its own");
}

#[test]
fn detects_part_without_a_date_entry() {
    let (mut ws, raw, date) = sharded();
    let shard = ws.atomics.shard_map().shard(raw);
    assert!(ws.atomics.by_date[shard].remove(date, raw));
    assert_rejects(&ws, "date index holds");
}

#[test]
fn detects_title_index_drift() {
    let mut ws = fresh();
    let title = {
        let (_, doc) = ws.documents.store.iter().next().unwrap();
        doc.title.clone()
    };
    ws.documents.by_title.remove(&title);
    assert_rejects(&ws, "title index wrong");
}

#[test]
fn detects_document_back_link_corruption() {
    let mut ws = fresh();
    // Point a document at the wrong composite.
    let (first, second) = {
        let mut it = ws.composites.store.iter();
        let a = it.next().unwrap().1.clone();
        let b = it.next().unwrap().1.clone();
        (a, b)
    };
    ws.documents.store.get_mut(first.doc.raw()).unwrap().part = second.id;
    assert_rejects(&ws, "document back link wrong");
}

#[test]
fn detects_atomic_owner_corruption() {
    let mut ws = fresh();
    let (first, second) = {
        let mut it = ws.composites.store.iter();
        let a = it.next().unwrap().1.clone();
        let b = it.next().unwrap().1.clone();
        (a, b)
    };
    ws.atomics
        .store
        .get_mut(first.graph.root().raw())
        .unwrap()
        .owner = second.id;
    assert_rejects(&ws, "owner mismatch");
}

#[test]
fn detects_disconnected_part_graph() {
    let mut ws = fresh();
    // Cut every outgoing connection of a root part (local index 0) out
    // of its composite's CSR graph: the rest of the graph becomes
    // unreachable from the root.
    let (_, comp) = ws.composites.store.iter().next().unwrap();
    let comp_raw = comp.id.raw();
    let graph = Arc::make_mut(&mut ws.composites.store.get_mut(comp_raw).unwrap().graph);
    let cut = graph.offsets[1] as usize;
    graph.targets.drain(..cut);
    graph.kinds.drain(..cut);
    graph.lengths.drain(..cut);
    for offset in &mut graph.offsets[1..] {
        *offset -= cut as u32;
    }
    assert_rejects(&ws, "parts reachable from root");
}

#[test]
fn detects_out_of_range_graph_target() {
    let mut ws = fresh();
    // Point one connection past the end of its graph's part list.
    let (raw, comp) = ws.composites.store.iter().next().unwrap();
    let n = comp.graph.parts.len() as u32;
    let graph = Arc::make_mut(&mut ws.composites.store.get_mut(raw).unwrap().graph);
    graph.targets[1] = n;
    assert_rejects(&ws, "out of range");
}

#[test]
fn detects_pool_drift() {
    let mut ws = fresh();
    // Allocate an id without creating the object.
    ws.sm.pools.atomic.alloc().unwrap();
    assert_rejects(&ws, "atomic pool count mismatch");
}

#[test]
fn detects_duplicate_parts_entry() {
    let mut ws = fresh();
    let (comp_raw, part) = {
        let (raw, comp) = ws.composites.store.iter().next().unwrap();
        (raw, comp.graph.parts[0])
    };
    // List the root part a second time, in place of part 1.
    Arc::make_mut(&mut ws.composites.store.get_mut(comp_raw).unwrap().graph).parts[1] = part;
    assert_rejects(&ws, "duplicates");
}

/// Applies `corrupt` to the first composite's graph and asserts that the
/// validator rejects the stored visit order.
fn assert_rejects_visit_order(corrupt: impl FnOnce(&mut PartGraph)) {
    let mut ws = fresh();
    let raw = ws.composites.store.iter().next().unwrap().0;
    corrupt(Arc::make_mut(
        &mut ws.composites.store.get_mut(raw).unwrap().graph,
    ));
    assert_rejects(&ws, "stored visit order");
}

#[test]
fn detects_swapped_visit_order_entries() {
    // The root no longer comes first.
    assert_rejects_visit_order(|graph| graph.dfs.swap(0, 1));
}

#[test]
fn detects_truncated_visit_order() {
    assert_rejects_visit_order(|graph| {
        graph.dfs.pop();
    });
}

#[test]
fn detects_repeated_visit_order_entry() {
    assert_rejects_visit_order(|graph| {
        let last = graph.dfs.len() - 1;
        graph.dfs[last] = graph.dfs[1];
    });
}

#[test]
fn detects_targets_changed_under_a_stored_order() {
    // Re-aim the root's last connection, the first one the search pops,
    // at a part other than the one the stored order visits second. The
    // ring edges stay, so every part is still reachable, but the search
    // now reaches that other part second.
    assert_rejects_visit_order(|graph| {
        let last = graph.offsets[1] as usize - 1;
        assert!(last > 0, "the root's last edge is not its ring edge");
        let n = graph.parts.len() as u32;
        graph.targets[last] = (1..n).find(|&t| t != graph.dfs[1]).unwrap();
    });
}
