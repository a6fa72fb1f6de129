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

use stmbench7::data::{StructureParams, Workspace};

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
