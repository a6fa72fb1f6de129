//! Short traversals ST1–ST10 (paper Appendix B.2.2).
//!
//! These follow a random path through the structure (or use an index) and
//! may *fail* benignly: a base assembly without composite parts, or a
//! random id that misses its index, ends the operation with
//! [`OpOutcome::Fail`], exactly as the paper prescribes ("we use this
//! mechanism extensively, because operations lack input data and thus have
//! to make choices randomly").

use std::sync::Arc;

use rand::Rng;

use stmbench7_data::objects::AssemblyChildren;
use stmbench7_data::{BaseAssemblyId, ComplexAssemblyId, CompositePartId, OpOutcome, Sb7Tx, TxR};

use super::traversals::{traverse_graph, PartAction};
use super::visit::Walk;
use super::OpCtx;

/// Toggles a non-indexed build date (assemblies, composite parts).
pub(crate) fn toggle_date(date: i32) -> i32 {
    stmbench7_data::AtomicPart::next_build_date(date)
}

/// A uniformly random element of `v`, or `None` (drawing nothing) when
/// `v` is empty. Called inside accessor closures, so no list is cloned.
fn pick<T: Copy>(rng: &mut impl Rng, v: &[T]) -> Option<T> {
    (!v.is_empty()).then(|| v[rng.gen_range(0..v.len())])
}

/// Walks a uniformly random root-to-base path; returns the base assembly
/// and a random composite part of it, or the failure reason.
fn random_descent<T: Sb7Tx>(
    tx: &mut T,
    ctx: &mut OpCtx,
) -> TxR<Result<(BaseAssemblyId, CompositePartId), &'static str>> {
    let rng = &mut ctx.rng;
    let mut current = tx.module(|m| m.design_root)?;
    let base = loop {
        // `Ok` descends to a complex child, `Err` is the base reached.
        let step = tx.complex(current, |c| match &c.children {
            AssemblyChildren::Complex(v) => pick(rng, v).map(Ok),
            AssemblyChildren::Base(v) => pick(rng, v).map(Err),
        })?;
        match step {
            Some(Ok(child)) => current = child,
            Some(Err(base)) => break base,
            None => return Ok(Err("complex assembly without children")),
        }
    };
    let Some(comp) = tx.base(base, |b| pick(rng, &b.components))? else {
        return Ok(Err("base assembly with no composite parts"));
    };
    Ok(Ok((base, comp)))
}

/// ST1: random path down to one atomic part; read-only. Returns
/// `x + y` of the visited part.
pub fn st1<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st1_impl(tx, ctx, false)
}

/// ST6: as ST1, updating the visited part's non-indexed attributes.
pub fn st6<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st1_impl(tx, ctx, true)
}

fn st1_impl<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx, update: bool) -> TxR<OpOutcome> {
    let (_, comp) = match random_descent(tx, ctx)? {
        Ok(pair) => pair,
        Err(reason) => return Ok(OpOutcome::Fail(reason)),
    };
    let part = tx
        .composite(comp, |c| pick(&mut ctx.rng, &c.graph.parts))?
        .expect("composite parts always have graphs");
    let sum = tx.atomic(part, |p| i64::from(p.x) + i64::from(p.y))?;
    if update {
        tx.atomic_mut(part, |p| p.swap_xy())?;
    }
    Ok(OpOutcome::Done(sum))
}

/// ST2: random path down to one document; counts `'I'` characters.
pub fn st2<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st2_impl(tx, ctx, false)
}

/// ST7: as ST2, swapping `"I am"` ↔ `"This is"`; returns replacements.
pub fn st7<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st2_impl(tx, ctx, true)
}

fn st2_impl<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx, update: bool) -> TxR<OpOutcome> {
    let (_, comp) = match random_descent(tx, ctx)? {
        Ok(pair) => pair,
        Err(reason) => return Ok(OpOutcome::Fail(reason)),
    };
    let doc = tx.composite(comp, |c| c.doc)?;
    let result = if update {
        tx.document_mut(doc, |d| stmbench7_data::text::swap_text(&mut d.text) as i64)?
    } else {
        tx.document(doc, |d| {
            stmbench7_data::text::count_char(&d.text, 'I') as i64
        })?
    };
    Ok(OpOutcome::Done(result))
}

/// The ST3/ST8 bottom-up walk: marks visited in `walk`, in visiting
/// order, the complex assemblies that are ancestors of the composite
/// part owning a random atomic part.
fn ancestors_of_random_part<T: Sb7Tx>(
    tx: &mut T,
    ctx: &mut OpCtx,
    walk: &mut Walk,
) -> TxR<Result<(), &'static str>> {
    walk.begin();
    let raw = ctx.random_atomic_raw();
    let Some(part) = tx.lookup_atomic(raw)? else {
        return Ok(Err("atomic part id not found in index"));
    };
    let comp = tx.atomic(part, |p| p.owner)?;
    // The walk's stack holds the owner's base assemblies as a work list.
    let bases = &mut walk.stack;
    tx.composite(comp, |c| bases.extend(c.used_in.iter().map(|b| b.raw())))?;
    if walk.stack.is_empty() {
        return Ok(Err("composite part not used by any base assembly"));
    }
    for i in 0..walk.stack.len() {
        let mut current = Some(tx.base(BaseAssemblyId(walk.stack[i]), |b| b.parent)?);
        while let Some(ca) = current {
            if !walk.insert(ca.raw()) {
                break; // Visit each complex assembly at most once.
            }
            current = tx.complex(ca, |c| c.parent)?;
        }
    }
    Ok(Ok(()))
}

/// ST3 (T7 in OO7): bottom-up traversal from a random atomic part to the
/// root; returns the number of complex assemblies visited.
pub fn st3<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    Walk::with(|walk| {
        if let Err(reason) = ancestors_of_random_part(tx, ctx, walk)? {
            return Ok(OpOutcome::Fail(reason));
        }
        let mut checksum = 0i64;
        for &raw in walk.visited() {
            checksum += tx.complex(ComplexAssemblyId(raw), |c| i64::from(c.build_date))?;
        }
        std::hint::black_box(checksum);
        Ok(OpOutcome::Done(walk.visited().len() as i64))
    })
}

/// ST8: as ST3, updating each visited assembly's (non-indexed) build
/// date.
pub fn st8<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    Walk::with(|walk| {
        if let Err(reason) = ancestors_of_random_part(tx, ctx, walk)? {
            return Ok(OpOutcome::Fail(reason));
        }
        for &raw in walk.visited() {
            tx.complex_mut(ComplexAssemblyId(raw), |c| {
                c.build_date = toggle_date(c.build_date)
            })?;
        }
        Ok(OpOutcome::Done(walk.visited().len() as i64))
    })
}

/// ST4 (Q4 in OO7): look up 100 random document titles and perform a
/// read-only operation on each base assembly using the matching composite
/// parts. Returns the number of base assemblies visited.
pub fn st4<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    let mut visited = 0i64;
    let mut checksum = 0i64;
    for _ in 0..100 {
        let title = stmbench7_data::text::document_title(ctx.random_composite_raw());
        let Some(doc) = tx.lookup_document(&title)? else {
            continue;
        };
        let comp = tx.document(doc, |d| d.part)?;
        let bases = tx.composite(comp, |c| c.used_in.clone())?;
        for base in bases {
            checksum += tx.base(base, |b| i64::from(b.build_date))?;
            visited += 1;
        }
    }
    std::hint::black_box(checksum);
    Ok(OpOutcome::Done(visited))
}

/// ST5 (Q5 in OO7): find base assemblies whose build date is lower than
/// that of one of their composite parts, via the base-assembly index.
pub fn st5<T: Sb7Tx>(tx: &mut T) -> TxR<OpOutcome> {
    let bases = tx.all_base_ids()?;
    let mut matched = 0i64;
    for base in bases {
        let (date, comps) = tx.base(base, |b| (b.build_date, b.components.clone()))?;
        for comp in comps {
            if tx.composite(comp, |c| c.build_date)? > date {
                matched += 1;
                break;
            }
        }
    }
    Ok(OpOutcome::Done(matched))
}

/// ST9: as ST1 but performing a depth-first search over the whole atomic
/// graph of the chosen composite part; returns parts visited.
pub fn st9<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st9_impl(tx, ctx, false)
}

/// ST10: as ST9, updating every visited atomic part.
pub fn st10<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    st9_impl(tx, ctx, true)
}

fn st9_impl<T: Sb7Tx>(tx: &mut T, ctx: &mut OpCtx, update: bool) -> TxR<OpOutcome> {
    let (_, comp) = match random_descent(tx, ctx)? {
        Ok(pair) => pair,
        Err(reason) => return Ok(OpOutcome::Fail(reason)),
    };
    let graph = tx.composite(comp, |c| Arc::clone(&c.graph))?;
    // T1's search; ST10's update is T2b's one swap per part.
    let action = if update {
        PartAction::UpdateAll {
            indexed: false,
            times: 1,
        }
    } else {
        PartAction::Read
    };
    let mut checksum = 0i64;
    let visited = traverse_graph(tx, &graph, action, &mut checksum)?;
    std::hint::black_box(checksum);
    Ok(OpOutcome::Done(visited))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::{DirectTx, StructureParams, Workspace};

    #[test]
    fn toggle_date_is_a_self_inverse() {
        for date in [1000, 1001, 1990, 1999, 0, -5] {
            assert_eq!(toggle_date(toggle_date(date)), date);
            assert_eq!((toggle_date(date) - date).abs(), 1);
        }
    }

    #[test]
    fn random_descent_always_lands_on_fresh_builds() {
        // The initial build links every base assembly to composite
        // parts, so the descent cannot fail.
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        for seed in 0..30 {
            let mut ctx = OpCtx::new(p.clone(), seed);
            let mut tx = DirectTx::writing(&mut ws);
            let (base, comp) = random_descent(&mut tx, &mut ctx)
                .unwrap()
                .unwrap_or_else(|reason| panic!("seed {seed} failed: {reason}"));
            // The returned pair is actually linked.
            let linked = tx.base(base, |b| b.components.contains(&comp)).unwrap();
            assert!(linked);
        }
    }

    #[test]
    fn ancestors_walk_reaches_the_root_without_duplicates() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::build(p.clone(), 3);
        let root = ws.module.design_root;
        let mut found = false;
        for seed in 0..50 {
            let mut ctx = OpCtx::new(p.clone(), seed);
            let mut tx = DirectTx::writing(&mut ws);
            Walk::with(|walk| {
                if ancestors_of_random_part(&mut tx, &mut ctx, walk)
                    .unwrap()
                    .is_ok()
                {
                    found = true;
                    let ancestors = walk.visited();
                    assert!(ancestors.contains(&root.raw()), "walk must reach the root");
                    let mut unique = ancestors.to_vec();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(unique.len(), ancestors.len(), "each assembly at most once");
                }
            });
        }
        assert!(found, "some random id must hit");
    }
}
