//! Structural invariant checking.
//!
//! The test suite runs [`validate`] after every concurrent workload on
//! every backend: whatever synchronization strategy executed the
//! operations, the structure afterwards must still be a well-formed
//! STMBench7 graph. The checks cover exactly the invariants the paper's
//! operations rely on (e.g. "the root complex assembly is always connected
//! to all base assemblies").

use std::collections::HashSet;
use std::fmt::Debug;

use crate::objects::AssemblyChildren;
use crate::workspace::Workspace;

/// Object counts of a validated structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    pub complex_assemblies: usize,
    pub base_assemblies: usize,
    pub composite_parts: usize,
    pub atomic_parts: usize,
    pub documents: usize,
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Checks every structural invariant; returns the census on success.
pub fn validate(ws: &Workspace) -> Result<Census, String> {
    let params = &ws.params;

    // --- Assembly tree -----------------------------------------------------
    let root_id = ws.module.design_root;
    let root = ws
        .complex_ref(root_id.raw())
        .ok_or("design root does not exist")?;
    ensure!(
        root.level == params.assembly_levels,
        "root level {} != {}",
        root.level,
        params.assembly_levels
    );
    ensure!(root.parent.is_none(), "root has a parent");

    let mut seen_complex = HashSet::new();
    let mut seen_base = HashSet::new();
    let mut stack = vec![root_id];
    while let Some(id) = stack.pop() {
        ensure!(
            seen_complex.insert(id),
            "complex assembly {id} reached twice"
        );
        let ca = ws
            .complex_ref(id.raw())
            .ok_or_else(|| format!("complex assembly {id} missing"))?;
        ensure!(ca.id == id, "complex assembly {id} has wrong id field");
        ensure!(
            ws.sm.complex_index.get(&id.raw()) == Some(&ca.level),
            "complex index wrong for {id}"
        );
        ensure!(
            !ca.children.is_empty(),
            "complex assembly {id} has no children"
        );
        match &ca.children {
            AssemblyChildren::Complex(children) => {
                ensure!(ca.level > 2, "complex children below level 3 ({id})");
                for &c in children {
                    let child = ws
                        .complex_ref(c.raw())
                        .ok_or_else(|| format!("child {c} of {id} missing"))?;
                    ensure!(
                        child.parent == Some(id),
                        "child {c} parent mismatch (expected {id})"
                    );
                    ensure!(
                        child.level + 1 == ca.level,
                        "child {c} level {} under parent level {}",
                        child.level,
                        ca.level
                    );
                    stack.push(c);
                }
            }
            AssemblyChildren::Base(children) => {
                ensure!(
                    ca.level == 2,
                    "base children under level {} ({id})",
                    ca.level
                );
                for &b in children {
                    ensure!(seen_base.insert(b), "base assembly {b} reached twice");
                    let base = ws
                        .bases
                        .store
                        .get(b.raw())
                        .ok_or_else(|| format!("base assembly {b} missing"))?;
                    ensure!(base.id == b, "base assembly {b} has wrong id field");
                    ensure!(
                        base.parent == id,
                        "base {b} parent mismatch (expected {id})"
                    );
                }
            }
        }
    }
    // The root must reach *all* assemblies (the paper: "the root complex
    // assembly is always connected to all base assemblies").
    ensure!(
        seen_complex.len() == ws.sm.complex_index.len(),
        "unreachable complex assemblies: reached {} of {}",
        seen_complex.len(),
        ws.sm.complex_index.len()
    );
    let mut complex_store_total = 0;
    for g in &ws.complexes {
        complex_store_total += g.store.live();
        for (raw, ca) in g.store.iter() {
            ensure!(
                seen_complex.contains(&crate::ids::ComplexAssemblyId(raw)),
                "complex assembly {raw} in store but unreachable"
            );
            ensure!(ca.id.raw() == raw, "complex store key/id mismatch at {raw}");
        }
    }
    ensure!(
        complex_store_total == seen_complex.len(),
        "complex store count {complex_store_total} != reachable {}",
        seen_complex.len()
    );
    ensure!(
        seen_base.len() == ws.bases.store.live(),
        "unreachable base assemblies: reached {} of {}",
        seen_base.len(),
        ws.bases.store.live()
    );

    // --- Base assemblies and the many-to-many bags -------------------------
    let mut base_index_count = 0;
    ws.bases.by_id.for_each(|_, _| base_index_count += 1);
    ensure!(
        base_index_count == ws.bases.store.live(),
        "base id index size mismatch"
    );
    for (raw, base) in ws.bases.store.iter() {
        ensure!(
            ws.bases.by_id.contains(&raw),
            "base {raw} missing from index"
        );
        for &comp in &base.components {
            let c = ws
                .composites
                .store
                .get(comp.raw())
                .ok_or_else(|| format!("base {raw} links missing composite {comp}"))?;
            // Bag semantics: multiplicities must match on both sides.
            let fwd = base.components.iter().filter(|&&x| x == comp).count();
            let back = c.used_in.iter().filter(|&&x| x.raw() == raw).count();
            ensure!(
                fwd == back,
                "bag multiplicity mismatch base {raw} <-> composite {comp}: {fwd} vs {back}"
            );
        }
    }

    // --- Atomic-part indexes -------------------------------------------------
    // Index 1 is the store itself. Index 2's buckets must hold exactly one
    // entry per stored part, under its date, in the shard its id routes
    // to: entries are distinct (sorted, duplicate-free buckets; one date
    // and one shard per id), each names a stored part carrying the
    // bucket's date, and they are as many as the parts.
    let domain = params.date_domain();
    for (raw, part) in ws.atomics.store.iter() {
        ensure!(
            domain.contains(&part.build_date),
            "atomic part {raw} dated {} lies outside the date index's domain {domain:?}",
            part.build_date
        );
    }
    let map = ws.atomics.shard_map();
    let mut dated = 0;
    for (s, shard) in ws.atomics.by_date.iter().enumerate() {
        for (date, ids) in shard.buckets() {
            ensure!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "date index bucket {date} of shard {s} is not sorted and duplicate-free"
            );
            for &id in ids {
                ensure!(
                    map.shard(id) == s,
                    "date index entry ({date}, {id}) sits in shard {s}, not its own {}",
                    map.shard(id)
                );
                let part = ws.atomics.store.get(id).ok_or_else(|| {
                    format!("date index entry ({date}, {id}) names no atomic part")
                })?;
                ensure!(
                    part.build_date == date,
                    "atomic part {id} dated {} is missing from date index (its entry sits under {date})",
                    part.build_date
                );
            }
            dated += ids.len();
        }
    }
    ensure!(
        dated == ws.atomics.store.live(),
        "date index holds {dated} entries for {} atomic parts",
        ws.atomics.store.live()
    );

    // --- Composite parts, documents, atomic graphs -------------------------
    let mut comp_index_count = 0;
    ws.composites.by_id.for_each(|_, _| comp_index_count += 1);
    ensure!(
        comp_index_count == ws.composites.store.live(),
        "composite id index size mismatch"
    );
    let mut atomic_total = 0;
    // Each part belongs to one graph only, once; indexed by raw id.
    let mut part_seen = vec![false; params.max_atomics() as usize + 1];
    for (raw, comp) in ws.composites.store.iter() {
        ensure!(
            ws.composites.by_id.contains(&raw),
            "composite {raw} missing from index"
        );
        for &b in &comp.used_in {
            let base = ws
                .bases
                .store
                .get(b.raw())
                .ok_or_else(|| format!("composite {raw} used_in missing base {b}"))?;
            ensure!(
                base.components.contains(&comp.id),
                "composite {raw} used_in base {b} lacks the forward link"
            );
        }
        let doc = ws
            .documents
            .store
            .get(comp.doc.raw())
            .ok_or_else(|| format!("composite {raw} missing document"))?;
        ensure!(doc.part == comp.id, "document back link wrong for {raw}");
        ensure!(
            ws.documents.by_title.get(&doc.title) == Some(&doc.id.raw()),
            "title index wrong for document {}",
            doc.id
        );

        let graph = &comp.graph;
        let n = graph.parts.len();
        ensure!(n > 0, "composite {raw} has no atomic parts");
        let edges = graph.targets.len();
        ensure!(
            graph.offsets.len() == n + 1
                && graph.offsets[0] == 0
                && graph.offsets[n] as usize == edges
                && graph.offsets.windows(2).all(|w| w[0] <= w[1])
                && graph.kinds.len() == edges
                && graph.lengths.len() == edges,
            "composite {raw} graph offsets malformed"
        );
        if let Some(&t) = graph.targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!(
                "composite {raw} graph target {t} out of range (parts: {n})"
            ));
        }
        for &pid in &graph.parts {
            let slot = pid.raw() as usize;
            if slot >= part_seen.len() {
                part_seen.resize(slot + 1, false);
            }
            ensure!(
                !std::mem::replace(&mut part_seen[slot], true),
                "composite {raw} parts set has duplicates (part {pid})"
            );
            let part = ws
                .atomics
                .store
                .get(pid.raw())
                .ok_or_else(|| format!("atomic part {pid} missing"))?;
            ensure!(part.owner == comp.id, "atomic part {pid} owner mismatch");
        }
        atomic_total += n;
        // The graph must be reachable from the root part, local index 0
        // (the builder's ring guarantees it; no operation rewires
        // connections), and the stored visit order must be the one its
        // edges give.
        let order = graph.depth_first();
        ensure!(
            order.len() == n,
            "composite {raw}: only {} of {n} parts reachable from root part",
            order.len()
        );
        ensure!(
            graph.dfs == order,
            "composite {raw}: stored visit order ({} entries) is not the \
             depth-first order of its edges",
            graph.dfs.len()
        );
    }
    ensure!(
        atomic_total == ws.atomics.store.live(),
        "atomic parts in graphs {atomic_total} != store {}",
        ws.atomics.store.live()
    );
    ensure!(
        ws.documents.store.live() == ws.composites.store.live(),
        "documents and composites must be 1:1"
    );

    // --- Pools --------------------------------------------------------------
    ensure!(
        ws.sm.pools.atomic.live() == ws.atomics.store.live(),
        "atomic pool count mismatch"
    );
    ensure!(
        ws.sm.pools.composite.live() == ws.composites.store.live(),
        "composite pool count mismatch"
    );
    ensure!(
        ws.sm.pools.document.live() == ws.documents.store.live(),
        "document pool count mismatch"
    );
    ensure!(
        ws.sm.pools.base.live() == ws.bases.store.live(),
        "base pool count mismatch"
    );
    ensure!(
        ws.sm.pools.complex.live() == complex_store_total,
        "complex pool count mismatch"
    );

    Ok(Census {
        complex_assemblies: complex_store_total,
        base_assemblies: ws.bases.store.live(),
        composite_parts: ws.composites.store.live(),
        atomic_parts: ws.atomics.store.live(),
        documents: ws.documents.store.live(),
    })
}

/// Compares two structures exactly — the module, the manual, the id
/// pools, every object of every store and every index's entries, all in
/// order — and names the first difference. [`validate`]'s [`Census`] only
/// counts objects; this also catches a wrong value that keeps the counts
/// coherent (a build date, a complex level, a bag entry).
pub fn structural_diff(a: &Workspace, b: &Workspace) -> Result<(), String> {
    fn same<'w, T: PartialEq + Debug, I: IntoIterator<Item = T>>(
        what: &str,
        a: &'w Workspace,
        b: &'w Workspace,
        part: impl Fn(&'w Workspace) -> I,
    ) -> Result<(), String> {
        let (x, y): (Vec<T>, Vec<T>) =
            (part(a).into_iter().collect(), part(b).into_iter().collect());
        if let Some(i) = (0..x.len().min(y.len())).find(|&i| x[i] != y[i]) {
            return Err(format!("{what}, entry {i}: {:?} vs {:?}", x[i], y[i]));
        }
        ensure!(
            x.len() == y.len(),
            "{what}: {} vs {} entries",
            x.len(),
            y.len()
        );
        Ok(())
    }
    same("module", a, b, |w| [&w.module])?;
    same("manual", a, b, |w| [&w.manual])?;
    same("id pools", a, b, |w| [&w.sm.pools])?;
    same("atomic parts", a, b, |w| w.atomics.store.iter())?;
    same("composite parts", a, b, |w| w.composites.store.iter())?;
    same("documents", a, b, |w| w.documents.store.iter())?;
    same("base assemblies", a, b, |w| w.bases.store.iter())?;
    same("complex levels", a, b, |w| [w.complexes.len()])?;
    for level in 2..=a.params.assembly_levels {
        let what = format!("complex assemblies of level {level}");
        same(&what, a, b, |w| w.complex_level(level).store.iter())?;
    }
    same("index 1", a, b, |w| {
        w.atomics.store.iter().map(|(raw, _)| raw)
    })?;
    same("index 2", a, b, |w| w.atomics.date_entries())?;
    same("index 3", a, b, |w| w.composites.by_id.entries())?;
    same("index 4", a, b, |w| w.documents.by_title.entries())?;
    same("index 5", a, b, |w| w.bases.by_id.entries())?;
    same("index 6", a, b, |w| w.sm.complex_index.entries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StructureParams;

    #[test]
    fn fresh_build_validates() {
        let p = StructureParams::tiny();
        let ws = Workspace::build(p.clone(), 1);
        let census = validate(&ws).unwrap();
        assert_eq!(census.base_assemblies, p.initial_bases());
        assert_eq!(census.complex_assemblies, p.initial_complexes());
        assert_eq!(census.atomic_parts, p.initial_atomics());
        assert_eq!(census.composite_parts, p.library_size);
        assert_eq!(census.documents, p.library_size);
    }

    #[test]
    fn small_build_validates() {
        let ws = Workspace::build(StructureParams::small(), 99);
        validate(&ws).unwrap();
    }

    #[test]
    fn detects_broken_back_link() {
        let mut ws = Workspace::build(StructureParams::tiny(), 1);
        // Break a used_in bag.
        let base_id = {
            let (_, b) = ws.bases.store.iter().next().unwrap();
            b.id
        };
        let comp = ws.bases.store.get(base_id.raw()).unwrap().components[0];
        ws.composites
            .store
            .get_mut(comp.raw())
            .unwrap()
            .used_in
            .retain(|b| *b != base_id);
        assert!(validate(&ws).is_err());
    }

    #[test]
    fn detects_date_index_drift() {
        let mut ws = Workspace::build(StructureParams::tiny(), 1);
        // Mutate a build date behind the index's back.
        let part = ws.atomics.store.get_mut(1).unwrap();
        part.build_date += 1_000_000;
        assert!(validate(&ws).err().unwrap().contains("date index"));
    }

    #[test]
    fn detects_orphaned_assembly() {
        let mut ws = Workspace::build(StructureParams::tiny(), 1);
        // Detach the root's first child but leave it in the store.
        let root = ws.module.design_root;
        let level = *ws.sm.complex_index.get(&root.raw()).unwrap();
        let root_ca = ws
            .complex_level_mut(level)
            .store
            .get_mut(root.raw())
            .unwrap();
        if let AssemblyChildren::Complex(children) = &mut root_ca.children {
            children.remove(0);
        } else if let AssemblyChildren::Base(children) = &mut root_ca.children {
            children.remove(0);
        }
        assert!(validate(&ws).is_err());
    }
}
