//! Structure modification operations SM1–SM8 (paper Appendix B.2.4).
//!
//! These create and delete structure, constrained so "the structure is
//! never degenerated in a significant way": the root stays connected to
//! all base assemblies, sole children cannot be deleted, and id pools
//! bound growth. All capacity checks happen *before* any mutation so the
//! non-rollback (lock-based) backends never leave partial changes behind.

use stmbench7_data::access::PoolKind;
use stmbench7_data::builder::{
    build_assembly_subtree, create_composite_with_graph, subtree_cost, NewAssembly,
};
use stmbench7_data::objects::AssemblyChildren;
use stmbench7_data::{BaseAssemblyId, ComplexAssemblyId, OpOutcome, Sb7Tx, TxErr, TxR};

use super::OpCtx;

/// SM1: create a composite part (document + atomic graph), unlinked from
/// any base assembly. Fails when a pool is exhausted.
pub fn sm1<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    match create_composite_with_graph(tx, &ctx.params.clone(), &mut ctx.rng)? {
        Some(id) => Ok(OpOutcome::Done(i64::from(id.raw()))),
        None => Ok(OpOutcome::Fail("maximum number of composite parts reached")),
    }
}

/// SM2: delete a random composite part with its document and atomic
/// graph, unlinking it from every base assembly using it.
pub fn sm2<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let raw = ctx.random_composite_raw();
    let Some(comp) = tx.lookup_composite(raw)? else {
        return Ok(OpOutcome::Fail("composite part id not found in index"));
    };
    let removed = tx.delete_composite(comp)?;
    // Unlink from every base assembly (the bag may hold duplicates; each
    // occurrence removes one forward link).
    let mut users = removed.used_in.clone();
    users.sort_unstable_by_key(|b| b.raw());
    users.dedup();
    for base in users {
        tx.base_mut(base, |b| b.components.retain(|c| *c != comp))?;
    }
    tx.delete_document(removed.doc)?;
    let mut deleted_parts = 0i64;
    for part in &removed.graph.parts {
        tx.delete_atomic(*part)?;
        deleted_parts += 1;
    }
    Ok(OpOutcome::Done(deleted_parts))
}

/// SM3: link a random base assembly to a random composite part (a bag
/// link: duplicates are allowed).
pub fn sm3<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let base_raw = ctx.random_base_raw();
    let comp_raw = ctx.random_composite_raw();
    let Some(base) = tx.lookup_base(base_raw)? else {
        return Ok(OpOutcome::Fail("base assembly id not found in index"));
    };
    let Some(comp) = tx.lookup_composite(comp_raw)? else {
        return Ok(OpOutcome::Fail("composite part id not found in index"));
    };
    tx.base_mut(base, |b| b.components.push(comp))?;
    tx.composite_mut(comp, |c| c.used_in.push(base))?;
    Ok(OpOutcome::Done(1))
}

/// SM4: delete a random link between a random base assembly and one of
/// its composite parts.
pub fn sm4<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let base_raw = ctx.random_base_raw();
    let Some(base) = tx.lookup_base(base_raw)? else {
        return Ok(OpOutcome::Fail("base assembly id not found in index"));
    };
    let comps = tx.base(base, |b| b.components.clone())?;
    if comps.is_empty() {
        return Ok(OpOutcome::Fail("base assembly has no composite-part links"));
    }
    let victim_idx = ctx.rng.gen_range(0..comps.len());
    let comp = comps[victim_idx];
    // Remove by value, not by index: under an optimistic backend the
    // components bag may have changed since `comps` was read (doomed
    // transaction), and closures must never panic on stale state.
    tx.base_mut(base, |b| {
        if let Some(pos) = b.components.iter().position(|c| *c == comp) {
            b.components.remove(pos);
        }
    })?;
    tx.composite_mut(comp, |c| {
        if let Some(pos) = c.used_in.iter().position(|b| *b == base) {
            c.used_in.remove(pos);
        }
    })?;
    Ok(OpOutcome::Done(1))
}

use rand::Rng;

/// SM5: create a base assembly as a sibling of a random existing one.
pub fn sm5<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let base_raw = ctx.random_base_raw();
    let Some(base) = tx.lookup_base(base_raw)? else {
        return Ok(OpOutcome::Fail("base assembly id not found in index"));
    };
    if tx.pool_capacity(PoolKind::Base)? < 1 {
        return Ok(OpOutcome::Fail("maximum number of base assemblies reached"));
    }
    let parent = tx.base(base, |b| b.parent)?;
    let created = build_assembly_subtree(
        tx,
        &ctx.params.clone(),
        &mut ctx.rng,
        1,
        Some(parent),
        false,
        &[],
    )?
    .expect("capacity checked above");
    let NewAssembly::Base(new_id) = created else {
        unreachable!("level-1 subtree roots are base assemblies");
    };
    tx.complex_mut(parent, |p| match &mut p.children {
        AssemblyChildren::Base(v) => v.push(new_id),
        // Only reachable for doomed optimistic transactions holding a
        // stale parent id; their write never commits.
        AssemblyChildren::Complex(_) => {}
    })?;
    Ok(OpOutcome::Done(i64::from(new_id.raw())))
}

/// SM6: delete a random base assembly (fails when it is its parent's only
/// child).
pub fn sm6<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let base_raw = ctx.random_base_raw();
    let Some(base) = tx.lookup_base(base_raw)? else {
        return Ok(OpOutcome::Fail("base assembly id not found in index"));
    };
    let parent = tx.base(base, |b| b.parent)?;
    let siblings = tx.complex(parent, |p| p.children.len())?;
    if siblings <= 1 {
        return Ok(OpOutcome::Fail(
            "base assembly is the only child of its parent",
        ));
    }
    tx.complex_mut(parent, |p| match &mut p.children {
        AssemblyChildren::Base(v) => v.retain(|b| *b != base),
        // Doomed-transaction tolerance; see SM5.
        AssemblyChildren::Complex(_) => {}
    })?;
    delete_base_with_links(tx, base)?;
    Ok(OpOutcome::Done(1))
}

/// Deletes one base assembly, removing one `used_in` entry per link.
fn delete_base_with_links<T: Sb7Tx>(tx: &mut T, base: BaseAssemblyId) -> TxR<()> {
    let removed = tx.delete_base(base)?;
    for comp in removed.components {
        tx.composite_mut(comp, |c| {
            if let Some(pos) = c.used_in.iter().position(|b| *b == base) {
                c.used_in.remove(pos);
            }
        })?;
    }
    Ok(())
}

/// SM7: add a full assembly subtree of height `k - 1` under a random
/// complex assembly at level `k`.
pub fn sm7<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let raw = ctx.random_complex_raw();
    let Some(ca) = tx.lookup_complex(raw)? else {
        return Ok(OpOutcome::Fail("complex assembly id not found in index"));
    };
    let level = tx.complex(ca, |c| c.level)?;
    debug_assert!(level >= 2);
    let (need_complex, need_base) = subtree_cost(&ctx.params, level - 1);
    if tx.pool_capacity(PoolKind::Complex)? < need_complex
        || tx.pool_capacity(PoolKind::Base)? < need_base
    {
        return Ok(OpOutcome::Fail("maximum number of assemblies reached"));
    }
    let created = build_assembly_subtree(
        tx,
        &ctx.params.clone(),
        &mut ctx.rng,
        level - 1,
        Some(ca),
        false,
        &[],
    )?
    .expect("capacity checked above");
    match created {
        NewAssembly::Complex(child) => tx.complex_mut(ca, |p| match &mut p.children {
            AssemblyChildren::Complex(v) => v.push(child),
            // Doomed-transaction tolerance; see SM5.
            AssemblyChildren::Base(_) => {}
        })?,
        NewAssembly::Base(child) => tx.complex_mut(ca, |p| match &mut p.children {
            AssemblyChildren::Base(v) => v.push(child),
            // Doomed-transaction tolerance; see SM5.
            AssemblyChildren::Complex(_) => {}
        })?,
    }
    Ok(OpOutcome::Done((need_complex + need_base) as i64))
}

/// SM8: delete the whole assembly subtree rooted at (and including) a
/// random complex assembly. Fails for the root and for sole children.
pub fn sm8<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let raw = ctx.random_complex_raw();
    let Some(ca) = tx.lookup_complex(raw)? else {
        return Ok(OpOutcome::Fail("complex assembly id not found in index"));
    };
    let Some(parent) = tx.complex(ca, |c| c.parent)? else {
        return Ok(OpOutcome::Fail("cannot delete the root complex assembly"));
    };
    let siblings = tx.complex(parent, |p| p.children.len())?;
    if siblings <= 1 {
        return Ok(OpOutcome::Fail(
            "complex assembly is the only child of its parent",
        ));
    }
    tx.complex_mut(parent, |p| match &mut p.children {
        AssemblyChildren::Complex(v) => v.retain(|c| *c != ca),
        // Doomed-transaction tolerance; see SM5.
        AssemblyChildren::Base(_) => {}
    })?;
    let deleted = delete_subtree(tx, ca)?;
    Ok(OpOutcome::Done(deleted))
}

/// Recursively deletes a complex assembly and all descendants, returning
/// the number of assemblies removed (Figure 2 of the paper).
fn delete_subtree<T: Sb7Tx>(tx: &mut T, root: ComplexAssemblyId) -> TxR<i64> {
    let mut deleted = 0i64;
    let mut stack = vec![root];
    while let Some(ca) = stack.pop() {
        let removed = tx.delete_complex(ca)?;
        deleted += 1;
        match removed.children {
            AssemblyChildren::Complex(v) => stack.extend(v),
            AssemblyChildren::Base(v) => {
                for base in v {
                    delete_base_with_links(tx, base)?;
                    deleted += 1;
                }
            }
        }
    }
    Ok(deleted)
}

/// Shared error conversion helper for tests.
#[allow(dead_code)]
fn _assert_txr_shape(r: TxR<OpOutcome>) -> Result<OpOutcome, TxErr> {
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::{validate, DirectTx, StructureParams, Workspace};

    #[test]
    fn delete_subtree_counts_assemblies_exactly() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let before = validate(&ws).unwrap();
        // Pick a level-2 complex assembly that is not an only child and
        // detach it the way SM8 does.
        let (victim, parent) = {
            let mut found = None;
            for (raw, ca) in ws.complex_level(2).store.iter() {
                if let Some(parent) = ca.parent {
                    found = Some((ComplexAssemblyId(raw), parent));
                    break;
                }
            }
            found.expect("tiny structure has level-2 assemblies")
        };
        let mut tx = DirectTx::writing(&mut ws);
        tx.complex_mut(parent, |pa| match &mut pa.children {
            AssemblyChildren::Complex(v) => v.retain(|c| *c != victim),
            AssemblyChildren::Base(_) => unreachable!("parent of level 2 is complex"),
        })
        .unwrap();
        let deleted = delete_subtree(&mut tx, victim).unwrap();
        // A level-2 subtree is the assembly itself plus `fanout` bases.
        assert_eq!(deleted, 1 + p.assembly_fanout as i64);
        let after = validate(&ws).unwrap();
        assert_eq!(after.complex_assemblies, before.complex_assemblies - 1);
        assert_eq!(
            after.base_assemblies,
            before.base_assemblies - p.assembly_fanout
        );
    }

    #[test]
    fn delete_base_with_links_cleans_reverse_bags() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let (base_id, comps) = {
            let (raw, base) = ws.bases.store.iter().next().unwrap();
            (BaseAssemblyId(raw), base.components.clone())
        };
        let mut tx = DirectTx::writing(&mut ws);
        // Detach from the parent first, as SM6 does.
        let parent = tx.base(base_id, |b| b.parent).unwrap();
        tx.complex_mut(parent, |pa| match &mut pa.children {
            AssemblyChildren::Base(v) => v.retain(|b| *b != base_id),
            AssemblyChildren::Complex(_) => unreachable!(),
        })
        .unwrap();
        delete_base_with_links(&mut tx, base_id).unwrap();
        for comp in comps {
            let still_referenced = tx
                .composite(comp, |c| c.used_in.contains(&base_id))
                .unwrap();
            assert!(!still_referenced, "reverse bag must drop the base");
        }
        validate(&ws).unwrap();
    }
}
