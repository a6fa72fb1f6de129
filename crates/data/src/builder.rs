//! Deterministic construction of the initial STMBench7 structure.
//!
//! Everything goes through [`crate::Sb7Tx`], so the same code can populate
//! any backend (in practice backends are populated once via the plain
//! workspace and converted, because building 100 000 parts inside a single
//! ASTM transaction would exercise exactly the O(k²) pathology the paper
//! measures). The helpers here are shared with the structure-modification
//! operations: SM1 uses [`create_composite_with_graph`], SM7 uses
//! [`build_assembly_subtree`].

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::{PoolKind, Sb7Tx, TxR};
use crate::ids::{BaseAssemblyId, ComplexAssemblyId, CompositePartId};
use crate::objects::{
    AssemblyChildren, AtomicPart, BaseAssembly, ComplexAssembly, CompositePart, Document,
    PartGraph, CONNECTION_TYPES, DESIGN_TYPES,
};
use crate::params::StructureParams;
use crate::text;

/// Census of the objects created by [`build`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    pub complex_assemblies: usize,
    pub base_assemblies: usize,
    pub composite_parts: usize,
    pub atomic_parts: usize,
    pub documents: usize,
    pub connections: usize,
}

/// A newly created assembly (SM7 may create either kind as a subtree root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NewAssembly {
    Complex(ComplexAssemblyId),
    Base(BaseAssemblyId),
}

fn random_date(rng: &mut SmallRng, params: &StructureParams) -> i32 {
    rng.gen_range(params.min_date..=params.max_date)
}

fn random_kind(rng: &mut SmallRng) -> u8 {
    rng.gen_range(0..DESIGN_TYPES.len() as u8)
}

/// Creates one composite part with its document and graph of atomic parts,
/// unlinked from any base assembly — exactly what SM1 does.
///
/// Returns `None` (creating nothing) when any required pool lacks
/// capacity, so non-rollback backends never observe partial creations.
pub fn create_composite_with_graph<T: Sb7Tx>(
    tx: &mut T,
    params: &StructureParams,
    rng: &mut SmallRng,
) -> TxR<Option<CompositePartId>> {
    if tx.pool_capacity(PoolKind::Composite)? < 1
        || tx.pool_capacity(PoolKind::Document)? < 1
        || tx.pool_capacity(PoolKind::Atomic)? < params.atomics_per_comp
    {
        return Ok(None);
    }

    let comp_date = random_date(rng, params);
    let comp_kind = random_kind(rng);
    let Some(comp_id) = tx.create_composite(|id| CompositePart {
        id,
        kind: comp_kind,
        build_date: comp_date,
        doc: crate::ids::DocumentId(0), // Patched below, after the document exists.
        graph: Arc::default(),          // Patched below.
        used_in: Vec::new(),
    })?
    else {
        return Ok(None);
    };

    let doc_size = params.doc_size;
    let doc_id = tx
        .create_document(|id| Document {
            id,
            title: text::document_title(comp_id.raw()),
            text: text::document_text(comp_id.raw(), doc_size),
            part: comp_id,
        })?
        .expect("document pool capacity checked above");

    // Create the atomic parts first, then wire the connection graph: a ring
    // guaranteeing reachability from the root part plus random extras, as
    // in OO7.
    let n = params.atomics_per_comp;
    let mut part_ids = Vec::with_capacity(n);
    for _ in 0..n {
        let date = random_date(rng, params);
        let kind = random_kind(rng);
        let x = rng.gen_range(0..100_000);
        let y = rng.gen_range(0..100_000);
        let id = tx
            .create_atomic(|id| AtomicPart {
                id,
                kind,
                build_date: date,
                x,
                y,
                owner: comp_id,
            })?
            .expect("atomic pool capacity checked above");
        part_ids.push(id);
    }
    let conns = params.conns_per_atomic;
    // Each connection draws its kind, then its length, then (past the
    // ring edge) its target. The ring edge keeps the whole graph
    // reachable from the root, local index 0.
    let edges = (0..n).flat_map(|i| (0..conns).map(move |c| (i, c)));
    let graph = PartGraph::new(
        part_ids,
        conns,
        edges.map(|(i, c)| {
            let kind = rng.gen_range(0..CONNECTION_TYPES.len() as u8);
            let length = rng.gen_range(1..1_000);
            let to = if c == 0 {
                (i + 1) % n
            } else {
                rng.gen_range(0..n)
            };
            (kind, length, to as u32)
        }),
    );

    let graph = Arc::new(graph);
    tx.composite_mut(comp_id, |c| {
        c.doc = doc_id;
        c.graph = graph;
    })?;
    Ok(Some(comp_id))
}

/// Builds a full assembly subtree whose root sits at `level` (base
/// assembly for level 1, complex assembly above), attached to `parent`.
///
/// `library` is the candidate set of composite parts; each created base
/// assembly links to `comps_per_base` random members when `link_components`
/// is set (initial build), or none otherwise (SM7 creates bare bases, which
/// can later gain links via SM3).
///
/// Returns `None` when an id pool runs dry; callers that cannot roll back
/// must pre-check capacity with [`subtree_cost`].
pub fn build_assembly_subtree<T: Sb7Tx>(
    tx: &mut T,
    params: &StructureParams,
    rng: &mut SmallRng,
    level: u8,
    parent: Option<ComplexAssemblyId>,
    link_components: bool,
    library: &[CompositePartId],
) -> TxR<Option<NewAssembly>> {
    if level == 1 {
        let parent = parent.expect("base assemblies always have a parent");
        let date = random_date(rng, params);
        let kind = random_kind(rng);
        let mut components = Vec::new();
        if link_components && !library.is_empty() {
            for _ in 0..params.comps_per_base {
                components.push(library[rng.gen_range(0..library.len())]);
            }
        }
        let Some(id) = tx.create_base(|id| BaseAssembly {
            id,
            kind,
            build_date: date,
            parent,
            components: components.clone(),
        })?
        else {
            return Ok(None);
        };
        for comp in components {
            tx.composite_mut(comp, |c| c.used_in.push(id))?;
        }
        return Ok(Some(NewAssembly::Base(id)));
    }

    let date = random_date(rng, params);
    let kind = random_kind(rng);
    let children = if level == 2 {
        AssemblyChildren::Base(Vec::new())
    } else {
        AssemblyChildren::Complex(Vec::new())
    };
    let Some(id) = tx.create_complex(level, |id| ComplexAssembly {
        id,
        kind,
        build_date: date,
        parent,
        level,
        children,
    })?
    else {
        return Ok(None);
    };

    for _ in 0..params.assembly_fanout {
        let child = build_assembly_subtree(
            tx,
            params,
            rng,
            level - 1,
            Some(id),
            link_components,
            library,
        )?;
        match child {
            Some(NewAssembly::Complex(c)) => tx.complex_mut(id, |a| match &mut a.children {
                AssemblyChildren::Complex(v) => v.push(c),
                AssemblyChildren::Base(_) => unreachable!("level > 2 has complex children"),
            })?,
            Some(NewAssembly::Base(b)) => tx.complex_mut(id, |a| match &mut a.children {
                AssemblyChildren::Base(v) => v.push(b),
                AssemblyChildren::Complex(_) => unreachable!("level 2 has base children"),
            })?,
            None => return Ok(None),
        }
    }
    Ok(Some(NewAssembly::Complex(id)))
}

/// Pool cost of a full subtree rooted at `level`:
/// `(complex assemblies, base assemblies)`.
pub fn subtree_cost(params: &StructureParams, level: u8) -> (usize, usize) {
    if level == 1 {
        return (0, 1);
    }
    let f = params.assembly_fanout;
    let mut complexes = 0;
    let mut width = 1;
    for _ in 2..=level {
        complexes += width;
        width *= f;
    }
    (complexes, width)
}

/// Populates an empty workspace with the given parameters (deterministic
/// in `seed`): first the design library of `library_size` composite parts,
/// then the assembly tree with its root at `assembly_levels`.
pub fn build<T: Sb7Tx>(tx: &mut T, params: &StructureParams, seed: u64) -> TxR<BuildStats> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut library = Vec::with_capacity(params.library_size);
    for _ in 0..params.library_size {
        let id = create_composite_with_graph(tx, params, &mut rng)?
            .expect("pools are sized for the initial library");
        library.push(id);
    }

    let root = build_assembly_subtree(
        tx,
        params,
        &mut rng,
        params.assembly_levels,
        None,
        true,
        &library,
    )?
    .expect("pools are sized for the initial tree");
    let NewAssembly::Complex(root) = root else {
        unreachable!("the tree root is a complex assembly (levels >= 2)");
    };
    tx.set_design_root(root)?;

    Ok(BuildStats {
        complex_assemblies: params.initial_complexes(),
        base_assemblies: params.initial_bases(),
        composite_parts: params.library_size,
        atomic_parts: params.initial_atomics(),
        documents: params.library_size,
        connections: params.initial_atomics() * params.conns_per_atomic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{DirectTx, Workspace};

    #[test]
    fn subtree_cost_matches_closed_form() {
        let p = StructureParams::standard(); // fanout 3
        assert_eq!(subtree_cost(&p, 1), (0, 1));
        assert_eq!(subtree_cost(&p, 2), (1, 3));
        assert_eq!(subtree_cost(&p, 3), (1 + 3, 9));
        assert_eq!(subtree_cost(&p, 7), (364, 729));
    }

    #[test]
    fn build_is_deterministic() {
        let p = StructureParams::tiny();
        let a = Workspace::build(p.clone(), 42);
        let b = Workspace::build(p, 42);
        // Spot-check: same random dates on the same part.
        let pa = a.atomics.store.get(5).unwrap();
        let pb = b.atomics.store.get(5).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(a.module.design_root, b.module.design_root);
    }

    #[test]
    fn build_census_matches_params() {
        let p = StructureParams::tiny();
        let mut ws = Workspace::new(p.clone());
        let stats = {
            let mut tx = DirectTx::writing(&mut ws);
            build(&mut tx, &p, 7).unwrap()
        };
        assert_eq!(stats.base_assemblies, p.initial_bases());
        assert_eq!(stats.complex_assemblies, p.initial_complexes());
        assert_eq!(ws.bases.store.live(), p.initial_bases());
        assert_eq!(ws.atomics.store.live(), p.initial_atomics());
        assert_eq!(ws.composites.store.live(), p.library_size);
        assert_eq!(ws.documents.store.live(), p.library_size);
        assert_ne!(ws.module.design_root.raw(), 0);
    }

    #[test]
    fn composite_graph_is_ring_connected() {
        let p = StructureParams::tiny();
        let ws = Workspace::build(p.clone(), 3);
        let comp = ws.composites.store.get(1).unwrap();
        let graph = &comp.graph;
        assert_eq!(graph.parts.len(), p.atomics_per_comp);
        // Every part has the right number of connections, all internal,
        // the first of them to the next part around the ring.
        for (i, &pid) in graph.parts.iter().enumerate() {
            let part = ws.atomics.store.get(pid.raw()).unwrap();
            assert_eq!(part.owner, comp.id);
            assert_eq!(graph.targets(i).len(), p.conns_per_atomic);
            assert_eq!(graph.targets(i)[0] as usize, (i + 1) % graph.parts.len());
            for c in graph.connections(i) {
                assert!(graph.parts.contains(&c.to));
                assert!(usize::from(c.kind) < CONNECTION_TYPES.len());
            }
        }
        // Document is wired both ways.
        let doc = ws.documents.store.get(comp.doc.raw()).unwrap();
        assert_eq!(doc.part, comp.id);
        assert!(doc.title.contains("#1"));
    }
}
