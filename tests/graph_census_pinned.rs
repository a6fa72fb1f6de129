//! The initial object graph pinned to constants.
//!
//! `op_outcomes_pinned` pins what the operation bodies return, and
//! `validate` checks that a structure is well formed, but neither holds
//! the builder to one particular graph: a change to how the parts and
//! connections are stored could draw them differently and still pass
//! both. This test computes an FNV-1a digest over every composite part's
//! part list, in order, and over each part's outgoing connections —
//! `(to, kind, length)` in connection order — for fresh builds of three
//! presets at three seeds, and compares it with constants recorded before
//! the connection storage last changed.
//!
//! It pins each graph's depth-first visit order the same way: the order
//! in which T1–T3, T6 and ST9/ST10 open the parts. A reference search
//! written here computes the order of every graph of three fresh builds
//! and of the graphs SM1 creates during a fixed stream; the digests of
//! those orders were recorded before the visit order was first stored,
//! and every graph's stored order (`PartGraph::dfs`) must equal its
//! reference order.

use stmbench7::core::ops::{run_op, OpCtx, OpKind};
use stmbench7::data::{DirectTx, OpOutcome, PartGraph, StructureParams, Workspace};

/// One pinned build: preset, seed, graph digest and connection count.
type Pinned = (&'static str, u64, u64, usize);

const PINNED: &[Pinned] = &[
    ("tiny", 1, 0x928711386396357a, 360),
    ("tiny", 2, 0x47e11b99e97d89c1, 360),
    ("tiny", 3, 0x36d9682ceb1cc84d, 360),
    ("small", 1, 0x0aafdc256a0ea83a, 7200),
    ("small", 2, 0x4c51c9e149d25603, 7200),
    ("small", 3, 0xbab826bfe40c431e, 7200),
    ("standard", 1, 0x8cd7748bf78ce617, 300000),
    ("standard", 2, 0x9aca33f417cab9a8, 300000),
    ("standard", 3, 0x4e6f348668332c54, 300000),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest and connection count of one fresh build.
fn census(preset: &str, seed: u64) -> (u64, usize) {
    let ws = Workspace::build(StructureParams::parse(preset).expect("preset"), seed);
    let mut digest = Fnv::new();
    let mut connections = 0;
    for (raw, comp) in ws.composites.store.iter() {
        let graph = &comp.graph;
        digest.bytes(&raw.to_le_bytes());
        digest.bytes(&(graph.parts.len() as u32).to_le_bytes());
        for part in &graph.parts {
            digest.bytes(&part.raw().to_le_bytes());
        }
        for (local, part) in graph.parts.iter().enumerate() {
            assert!(ws.atomics.store.get(part.raw()).is_some(), "part exists");
            digest.bytes(&(graph.targets(local).len() as u32).to_le_bytes());
            for c in graph.connections(local) {
                digest.bytes(&c.to.raw().to_le_bytes());
                digest.bytes(&[c.kind]);
                digest.bytes(&c.length.to_le_bytes());
                connections += 1;
            }
        }
    }
    (digest.0, connections)
}

#[test]
fn initial_graphs_match_the_pinned_digests() {
    // Every build runs before any assertion, so one failure reports the
    // actual values of all nine.
    let mut mismatches = Vec::new();
    for &(preset, seed, digest, connections) in PINNED {
        let got = census(preset, seed);
        if got != (digest, connections) {
            mismatches.push(format!(
                "(\"{preset}\", {seed}, {:#018x}, {}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} builds differ from their pins; actual:\n{}",
        mismatches.len(),
        PINNED.len(),
        mismatches.join("\n")
    );
}

/// One pinned set of visit orders: preset, digest of every graph's
/// depth-first visit order and the number of graphs. Builds use seed 1;
/// `"small+sm1"` is the graphs SM1 creates on a fresh `small` build, one
/// call per context seed in `SM1_SEEDS`.
const PINNED_ORDERS: &[(&str, u64, usize)] = &[
    ("tiny", 0x04f085c0b6e0d5c1, 12),
    ("small", 0xae7c8e0db00fdca6, 60),
    ("standard", 0xc093bc6254bc4819, 500),
    ("small+sm1", 0xeb870872652139cd, 18),
];

/// The context seeds of the SM1 calls behind `"small+sm1"`.
const SM1_SEEDS: std::ops::Range<u64> = 100..120;

/// The reference search, independent of the library's: depth first from
/// local index 0 with a fresh visited set; a part is marked when it is
/// popped, and its targets are pushed in connection order, so they are
/// popped last-in first-out. Returns the local indexes in marking order.
fn reference_order(graph: &PartGraph) -> Vec<u32> {
    let mut marked = vec![false; graph.parts.len()];
    let mut order = Vec::new();
    let mut stack = vec![0u32];
    while let Some(local) = stack.pop() {
        if !std::mem::replace(&mut marked[local as usize], true) {
            order.push(local);
            stack.extend_from_slice(graph.targets(local as usize));
        }
    }
    order
}

/// The digest of the graphs' visit orders, as part ids, and the graph
/// count. Checks that each graph stores its reference order.
fn order_digest<'a>(graphs: impl Iterator<Item = (u32, &'a PartGraph)>) -> (u64, usize) {
    let mut digest = Fnv::new();
    let mut count = 0;
    for (raw, graph) in graphs {
        let order = reference_order(graph);
        assert_eq!(graph.dfs, order, "composite {raw}: stored visit order");
        digest.bytes(&raw.to_le_bytes());
        digest.bytes(&(order.len() as u32).to_le_bytes());
        for &local in &order {
            digest.bytes(&graph.parts[local as usize].raw().to_le_bytes());
        }
        count += 1;
    }
    (digest.0, count)
}

/// The visit-order digest of one entry of [`PINNED_ORDERS`].
fn orders(name: &str) -> (u64, usize) {
    let (preset, sm1) = match name.strip_suffix("+sm1") {
        Some(preset) => (preset, true),
        None => (name, false),
    };
    let params = StructureParams::parse(preset).expect("preset");
    let mut ws = Workspace::build(params.clone(), 1);
    if !sm1 {
        return order_digest(ws.composites.store.iter().map(|(raw, c)| (raw, &*c.graph)));
    }
    let mut created = Vec::new();
    for seed in SM1_SEEDS {
        let mut ctx = OpCtx::new(params.clone(), seed);
        let outcome = run_op(OpKind::Sm1, &mut DirectTx::writing(&mut ws), &mut ctx);
        if let OpOutcome::Done(raw) = outcome.expect("SM1 on DirectTx") {
            created.push(raw as u32);
        }
    }
    order_digest(created.iter().map(|&raw| {
        let comp = ws.composites.store.get(raw).expect("created composite");
        (raw, &*comp.graph)
    }))
}

#[test]
fn visit_orders_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for &(name, digest, graphs) in PINNED_ORDERS {
        let got = orders(name);
        if got != (digest, graphs) {
            mismatches.push(format!("(\"{name}\", {:#018x}, {}),", got.0, got.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} visit-order digests differ from their pins; actual:\n{}",
        mismatches.len(),
        PINNED_ORDERS.len(),
        mismatches.join("\n")
    );
}
