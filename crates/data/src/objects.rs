//! The seven object kinds of the OO7/STMBench7 graph (paper Figure 1).
//!
//! Per the paper's specification (Appendix B.1) only the module and
//! connection objects are immutable; everything else — including indexes,
//! sets and bags — may be updated by operations. Connections are
//! therefore not objects of their own, and not stored in the atomic parts
//! either: each composite part holds one immutable [`PartGraph`] — its
//! part list plus every connection in compressed sparse row form, indexed
//! by a part's position in that list — behind an `Arc`. The long
//! traversals open every atomic part (§5), so a part is kept to its
//! mutable attributes (28 bytes as a store slot) and a walk reads its
//! targets from one contiguous array instead of a heap vector per part.
//! Copy-on-write STM clones of a composite part and `export()` share the
//! graph instead of copying it, and locking and STM granularity stay what
//! the paper prescribes: connections never change, so no lock or
//! transactional variable ever needs to cover them.
//!
//! Because they never change, neither does the order in which a
//! depth-first search from the root part reaches the parts. The graph's
//! one constructor, [`PartGraph::new`], computes that visit order once and
//! stores it beside the edges, so T1–T3, T6 and ST9/ST10 iterate a list
//! instead of re-running the search with a visited set and a stack on
//! every visit of the graph.

use std::sync::Arc;

use crate::ids::{AtomicPartId, BaseAssemblyId, ComplexAssemblyId, CompositePartId, DocumentId};

/// Connection types, mirroring OO7's small set of type strings.
pub const CONNECTION_TYPES: &[&str] = &["type A", "type B", "type C"];

/// Part/assembly types, mirroring OO7's ten type strings.
pub const DESIGN_TYPES: &[&str] = &[
    "type #0", "type #1", "type #2", "type #3", "type #4", "type #5", "type #6", "type #7",
    "type #8", "type #9",
];

/// An immutable connection between two atomic parts of one graph, as
/// [`PartGraph::connections`] yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connection {
    /// Index into [`CONNECTION_TYPES`].
    pub kind: u8,
    /// OO7 "length" attribute.
    pub length: i32,
    /// Destination atomic part (always within the same composite part's
    /// graph).
    pub to: AtomicPartId,
}

/// One composite part's graph of atomic parts, immutable once built.
///
/// Parts are addressed by their *local index*, their position in
/// [`PartGraph::parts`]; local index 0 is the root part. Part `i`'s
/// connections are edges `offsets[i]..offsets[i + 1]`, in the order the
/// builder drew them, and edge `e` leads to local index `targets[e]` with
/// connection type `kinds[e]` and length `lengths[e]`. [`PartGraph::dfs`]
/// is the depth-first visit order of those edges. [`crate::validate()`]
/// checks the shape and the order; the fields are public, like every
/// object's, so that tests can corrupt them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartGraph {
    /// All atomic parts of the graph (OO7 keeps this set so ST1 can pick a
    /// random descendant without traversing the graph); the root first.
    pub parts: Vec<AtomicPartId>,
    /// Row offsets into the edge arrays; `parts.len() + 1` entries.
    pub offsets: Vec<u32>,
    /// Each edge's destination, as a local index.
    pub targets: Vec<u32>,
    /// Each edge's connection type, an index into [`CONNECTION_TYPES`].
    pub kinds: Vec<u8>,
    /// Each edge's OO7 "length" attribute.
    pub lengths: Vec<i32>,
    /// The local indexes of the parts reachable from the root, in the
    /// order a depth-first search from the root reaches them: the root
    /// first, a part marked when it is popped, its targets pushed in
    /// connection order and popped last-in first-out.
    pub dfs: Vec<u32>,
}

impl PartGraph {
    /// The graph over `parts` in which every part has `degree`
    /// connections: `edges` yields them as `(kind, length, target local
    /// index)`, part by part, each part's in connection order. Computes
    /// the visit order [`PartGraph::dfs`].
    ///
    /// # Panics
    ///
    /// Panics unless `edges` yields `degree` connections per part, and on
    /// a target outside the graph that the search reaches.
    pub fn new(
        parts: Vec<AtomicPartId>,
        degree: usize,
        edges: impl IntoIterator<Item = (u8, i32, u32)>,
    ) -> Self {
        let count = parts.len() * degree;
        let mut graph = PartGraph {
            offsets: (0..=parts.len()).map(|i| (i * degree) as u32).collect(),
            parts,
            targets: Vec::with_capacity(count),
            kinds: Vec::with_capacity(count),
            lengths: Vec::with_capacity(count),
            dfs: Vec::new(),
        };
        for (kind, length, to) in edges {
            graph.kinds.push(kind);
            graph.lengths.push(length);
            graph.targets.push(to);
        }
        assert_eq!(graph.targets.len(), count, "{degree} edges per part");
        graph.dfs = graph.depth_first();
        graph
    }

    /// Runs the depth-first search [`PartGraph::dfs`] stores over the
    /// edges as they stand; empty for a graph without parts.
    pub(crate) fn depth_first(&self) -> Vec<u32> {
        let mut marked = vec![false; self.parts.len()];
        let mut order = Vec::with_capacity(self.parts.len());
        // Each edge is pushed at most once, after the root.
        let mut stack = Vec::with_capacity(self.targets.len() + 1);
        if !self.parts.is_empty() {
            stack.push(0);
        }
        while let Some(local) = stack.pop() {
            if !std::mem::replace(&mut marked[local as usize], true) {
                order.push(local);
                stack.extend_from_slice(self.targets(local as usize));
            }
        }
        order
    }

    /// The root part, entry point of the traversals.
    ///
    /// # Panics
    ///
    /// Panics on a graph without parts, which [`crate::validate()`] rejects.
    pub fn root(&self) -> AtomicPartId {
        self.parts[0]
    }

    /// The edge range of the part at local index `local`.
    #[inline]
    fn edges(&self, local: usize) -> std::ops::Range<usize> {
        self.offsets[local] as usize..self.offsets[local + 1] as usize
    }

    /// The local indexes the part at local index `local` connects to, in
    /// connection order.
    #[inline]
    pub fn targets(&self, local: usize) -> &[u32] {
        &self.targets[self.edges(local)]
    }

    /// The connections of the part at local index `local`, in order.
    pub fn connections(&self, local: usize) -> impl Iterator<Item = Connection> + '_ {
        self.edges(local).map(|e| Connection {
            kind: self.kinds[e],
            length: self.lengths[e],
            to: self.parts[self.targets[e] as usize],
        })
    }
}

/// An atomic part: the leaves of the design library graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicPart {
    pub id: AtomicPartId,
    /// Index into [`DESIGN_TYPES`].
    pub kind: u8,
    /// Indexed attribute (index 2 of Table 1). Must only be changed through
    /// [`crate::Sb7Tx::set_atomic_build_date`] so the index stays coherent.
    pub build_date: i32,
    /// Non-indexed attribute updated by T2/ST6/ST10/OP9/OP10.
    pub x: i32,
    /// Non-indexed attribute updated together with `x`.
    pub y: i32,
    /// The composite part owning this part's graph (which holds the
    /// part's connections).
    pub owner: CompositePartId,
}

// A store slot is an `Option<AtomicPart>`, and a long traversal reads one
// per part; keep the slot from silently growing back.
const _: () = assert!(std::mem::size_of::<Option<AtomicPart>>() <= 32);

impl AtomicPart {
    /// The non-indexed update the paper's operations perform: swap `x`/`y`.
    pub fn swap_xy(&mut self) {
        std::mem::swap(&mut self.x, &mut self.y);
    }

    /// The indexed update: nudge the build date within its range
    /// (even dates move down, odd dates move up, as in the Java release).
    pub fn next_build_date(date: i32) -> i32 {
        if date % 2 == 0 {
            date - 1
        } else {
            date + 1
        }
    }
}

/// A document attached to a composite part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Document {
    pub id: DocumentId,
    /// Indexed attribute (index 4 of Table 1); never changes after build.
    pub title: String,
    /// Free text searched/updated by T4/T5/ST2/ST7.
    pub text: String,
    /// Back link to the owning composite part.
    pub part: CompositePartId,
}

/// A composite part in the design library, shared between base assemblies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositePart {
    pub id: CompositePartId,
    pub kind: u8,
    pub build_date: i32,
    /// The associated documentation object.
    pub doc: DocumentId,
    /// The graph of atomic parts, shared by every copy of this part.
    pub graph: Arc<PartGraph>,
    /// Bag of base assemblies using this composite part (the reverse side
    /// of the many-to-many association; duplicates allowed, it is a bag).
    pub used_in: Vec<BaseAssemblyId>,
}

/// A leaf of the assembly tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseAssembly {
    pub id: BaseAssemblyId,
    pub kind: u8,
    pub build_date: i32,
    /// Parent complex assembly (level 2).
    pub parent: ComplexAssemblyId,
    /// Bag of composite parts this assembly uses (duplicates allowed).
    pub components: Vec<CompositePartId>,
}

/// Children of a complex assembly: complex assemblies above level 2, base
/// assemblies at level 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssemblyChildren {
    Complex(Vec<ComplexAssemblyId>),
    Base(Vec<BaseAssemblyId>),
}

impl AssemblyChildren {
    /// Number of children.
    pub fn len(&self) -> usize {
        match self {
            AssemblyChildren::Complex(v) => v.len(),
            AssemblyChildren::Base(v) => v.len(),
        }
    }

    /// True when there are no children (a transient state during structure
    /// modifications; `validate` rejects it in quiescent structures).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An internal node of the assembly tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComplexAssembly {
    pub id: ComplexAssemblyId,
    pub kind: u8,
    pub build_date: i32,
    /// `None` only for the root complex assembly.
    pub parent: Option<ComplexAssemblyId>,
    /// Level in the tree; base assemblies are level 1, so complex
    /// assemblies occupy `2..=assembly_levels`.
    pub level: u8,
    pub children: AssemblyChildren,
}

/// The module manual: a single large text object. Updating it under an
/// object-granularity STM copies the whole text — one of the two
/// pathologies §5 of the paper diagnoses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manual {
    pub title: String,
    pub text: String,
}

/// The single module (the paper confines STMBench7 to one). Immutable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    pub id: u32,
    pub kind: u8,
    pub build_date: i32,
    /// Root of the assembly tree; set once by the builder.
    pub design_root: ComplexAssemblyId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_xy_swaps() {
        let mut p = AtomicPart {
            id: AtomicPartId(1),
            kind: 0,
            build_date: 1000,
            x: 3,
            y: 9,
            owner: CompositePartId(1),
        };
        p.swap_xy();
        assert_eq!((p.x, p.y), (9, 3));
        p.swap_xy();
        assert_eq!((p.x, p.y), (3, 9));
    }

    #[test]
    fn next_build_date_toggles_and_stays_close() {
        assert_eq!(AtomicPart::next_build_date(1000), 999);
        assert_eq!(AtomicPart::next_build_date(999), 1000);
        // Toggling twice returns to the start.
        let d = 1990;
        assert_eq!(
            AtomicPart::next_build_date(AtomicPart::next_build_date(d)),
            d
        );
    }

    #[test]
    fn children_len_and_empty() {
        let c = AssemblyChildren::Complex(vec![ComplexAssemblyId(1)]);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        let b = AssemblyChildren::Base(vec![]);
        assert!(b.is_empty());
    }
}
