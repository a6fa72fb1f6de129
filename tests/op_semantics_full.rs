//! Per-operation semantic tests for the operations `op_semantics.rs` does
//! not pin down exactly: the update variants of the long traversals, all
//! short traversals, and the sibling/neighborhood short operations.
//!
//! The tests lean on three algebraic facts of the STMBench7 update
//! operations:
//!
//! * the non-indexed update is `swap(x, y)` — applying it twice restores
//!   the object, and it conserves `x + y`;
//! * the indexed/date update is an even/odd toggle — applying it twice
//!   restores the date;
//! * document and manual updates swap between two fixed spellings —
//!   applying them twice restores the text.
//!
//! So "run the operation twice with the same seed" must be the identity on
//! the whole structure for every non-SM update operation, and any mix of
//! the swap family conserves the global `Σ(x+y)`.

use stmbench7::core::ops::{run_op, OpCtx, OpKind};
use stmbench7::data::objects::{
    AtomicPart, BaseAssembly, ComplexAssembly, CompositePart, Document,
};
use stmbench7::data::{validate, DirectTx, OpOutcome, StructureParams, Workspace};

fn run_one(ws: &mut Workspace, op: OpKind, seed: u64) -> OpOutcome {
    let params = ws.params.clone();
    let mut ctx = OpCtx::new(params, seed);
    let mut tx = DirectTx::writing(ws);
    run_op(op, &mut tx, &mut ctx).expect("direct execution cannot abort")
}

fn done(outcome: OpOutcome) -> i64 {
    match outcome {
        OpOutcome::Done(v) => v,
        OpOutcome::Fail(reason) => panic!("unexpected failure: {reason}"),
    }
}

/// Everything mutable in the workspace, for exact before/after diffing.
type Snapshot = (
    Vec<(u32, AtomicPart)>,
    Vec<(u32, CompositePart)>,
    Vec<(u32, BaseAssembly)>,
    Vec<(u32, ComplexAssembly)>,
    Vec<(u32, Document)>,
    String,
);

fn snapshot(ws: &Workspace) -> Snapshot {
    let atoms = ws
        .atomics
        .store
        .iter()
        .map(|(r, p)| (r, p.clone()))
        .collect();
    let comps = ws
        .composites
        .store
        .iter()
        .map(|(r, c)| (r, c.clone()))
        .collect();
    let bases = ws.bases.store.iter().map(|(r, b)| (r, b.clone())).collect();
    let mut complexes = Vec::new();
    for group in &ws.complexes {
        complexes.extend(group.store.iter().map(|(r, c)| (r, c.clone())));
    }
    let docs = ws
        .documents
        .store
        .iter()
        .map(|(r, d)| (r, d.clone()))
        .collect();
    (atoms, comps, bases, complexes, docs, ws.manual.text.clone())
}

fn xy_sum(ws: &Workspace) -> i64 {
    ws.atomics
        .store
        .iter()
        .map(|(_, p)| i64::from(p.x) + i64::from(p.y))
        .sum()
}

fn fresh() -> Workspace {
    Workspace::build(StructureParams::tiny(), 5)
}

// ---------------------------------------------------------------------------
// Long traversal update variants
// ---------------------------------------------------------------------------

/// How often T-family traversals reach each composite's graph: once per
/// bag occurrence in any base assembly (composite parts are shared).
fn traversal_multiplicity(ws: &Workspace) -> std::collections::HashMap<u32, usize> {
    let mut mult: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (_, base) in ws.bases.store.iter() {
        for comp in &base.components {
            *mult.entry(comp.raw()).or_default() += 1;
        }
    }
    mult
}

#[test]
fn t2a_swaps_root_parts_once_per_bag_occurrence() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    // Root part raw id → number of times its graph is traversed. A part
    // swapped an even number of times ends up unchanged.
    let mult = traversal_multiplicity(&ws);
    let root_swaps: std::collections::HashMap<u32, usize> = ws
        .composites
        .store
        .iter()
        .map(|(raw, c)| (c.graph.root().raw(), mult.get(&raw).copied().unwrap_or(0)))
        .collect();
    let visited = done(run_one(&mut ws, OpKind::T2a, 1));
    // T2a walks the full structure (same count as T1) but only updates
    // the root part of each graph.
    let expect = StructureParams::tiny();
    assert_eq!(
        visited,
        (expect.initial_bases() * expect.comps_per_base * expect.atomics_per_comp) as i64
    );
    for ((raw, old), (_, new)) in before.0.iter().zip(ws.atomics.store.iter()) {
        if root_swaps.get(raw).copied().unwrap_or(0) % 2 == 1 {
            assert_eq!((old.x, old.y), (new.y, new.x), "root part {raw} swapped");
        } else {
            assert_eq!((old.x, old.y), (new.x, new.y), "part {raw} unchanged");
        }
    }
}

#[test]
fn t2b_twice_is_identity() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    done(run_one(&mut ws, OpKind::T2b, 1));
    assert_ne!(before, snapshot(&ws), "one pass must change the parts");
    done(run_one(&mut ws, OpKind::T2b, 2));
    assert_eq!(before, snapshot(&ws), "two swaps must restore every part");
}

#[test]
fn t2c_is_identity_in_a_single_run() {
    // T2c applies the swap four times per part: a net no-op that still
    // produces 4x the write traffic — the point of the operation.
    let mut ws = fresh();
    let before = snapshot(&ws);
    let visited = done(run_one(&mut ws, OpKind::T2c, 1));
    assert!(visited > 0);
    assert_eq!(before, snapshot(&ws));
}

#[test]
fn t3a_toggles_only_root_dates_and_keeps_the_index() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    let mult = traversal_multiplicity(&ws);
    let root_toggles: std::collections::HashMap<u32, usize> = ws
        .composites
        .store
        .iter()
        .map(|(raw, c)| (c.graph.root().raw(), mult.get(&raw).copied().unwrap_or(0)))
        .collect();
    done(run_one(&mut ws, OpKind::T3a, 1));
    for ((raw, old), (_, new)) in before.0.iter().zip(ws.atomics.store.iter()) {
        // The even/odd toggle self-inverts: an even number of
        // applications restores the date.
        if root_toggles.get(raw).copied().unwrap_or(0) % 2 == 1 {
            assert_eq!(AtomicPart::next_build_date(old.build_date), new.build_date);
        } else {
            assert_eq!(old.build_date, new.build_date);
        }
    }
    validate(&ws).expect("date index must follow the updates");
}

#[test]
fn t3b_twice_and_t3c_once_are_date_identities() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    done(run_one(&mut ws, OpKind::T3b, 1));
    done(run_one(&mut ws, OpKind::T3b, 2));
    assert_eq!(before, snapshot(&ws));
    done(run_one(&mut ws, OpKind::T3c, 3));
    assert_eq!(before, snapshot(&ws), "4 toggles are 2 round trips");
    validate(&ws).unwrap();
}

#[test]
fn t4_counts_document_chars_exactly() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    // Expected: per base assembly, per *bag occurrence* of a composite
    // part, the 'I' count of its document.
    let mut expect = 0i64;
    for (_, base) in ws.bases.store.iter() {
        for comp in &base.components {
            let c = ws.composites.store.get(comp.raw()).unwrap();
            let d = ws.documents.store.get(c.doc.raw()).unwrap();
            expect += stmbench7::data::text::count_char(&d.text, 'I') as i64;
        }
    }
    assert_eq!(done(run_one(&mut ws, OpKind::T4, 1)), expect);
}

#[test]
fn t5_twice_restores_documents_and_t4_agrees() {
    let mut ws = fresh();
    let t4_before = done(run_one(&mut ws, OpKind::T4, 1));
    let docs_before = snapshot(&ws).4;
    let replaced = done(run_one(&mut ws, OpKind::T5, 2));
    assert!(replaced > 0);
    done(run_one(&mut ws, OpKind::T5, 3));
    assert_eq!(docs_before, snapshot(&ws).4);
    assert_eq!(done(run_one(&mut ws, OpKind::T4, 4)), t4_before);
}

// ---------------------------------------------------------------------------
// Short traversals
// ---------------------------------------------------------------------------

#[test]
fn st1_returns_x_plus_y_of_one_part_and_never_fails_on_fresh_builds() {
    let mut ws = fresh();
    for seed in 0..50 {
        let v = done(run_one(&mut ws, OpKind::St1, seed));
        // x and y are drawn from [0, 100000).
        assert!((0..200_000).contains(&v), "seed {seed}: {v} out of range");
    }
}

#[test]
fn st6_swaps_exactly_one_part() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    done(run_one(&mut ws, OpKind::St6, 7));
    let after = snapshot(&ws);
    let changed: Vec<_> = before
        .0
        .iter()
        .zip(&after.0)
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(changed.len(), 1, "exactly one part must change");
    let (old, new) = (&changed[0].0 .1, &changed[0].1 .1);
    assert_eq!((old.x, old.y), (new.y, new.x));
    // Everything else is untouched.
    assert_eq!(before.1, after.1);
    assert_eq!(before.5, after.5);
}

#[test]
fn st2_counts_within_one_document() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    // Upper bound: the largest 'I' count over all documents.
    let max_count = ws
        .documents
        .store
        .iter()
        .map(|(_, d)| stmbench7::data::text::count_char(&d.text, 'I') as i64)
        .max()
        .unwrap();
    for seed in 0..20 {
        let v = done(run_one(&mut ws, OpKind::St2, seed));
        assert!((0..=max_count).contains(&v));
    }
}

#[test]
fn st7_twice_is_identity_on_documents() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    let first = done(run_one(&mut ws, OpKind::St7, 9));
    assert!(first > 0, "documents contain replaceable phrases");
    let second = done(run_one(&mut ws, OpKind::St7, 9));
    assert_eq!(first, second);
    assert_eq!(before, snapshot(&ws));
}

#[test]
fn st3_success_visits_between_tree_height_and_all_complexes() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    let mut succeeded = false;
    for seed in 0..100 {
        if let OpOutcome::Done(v) = run_one(&mut ws, OpKind::St3, seed) {
            succeeded = true;
            // At least the direct chain to the root, at most every
            // complex assembly.
            assert!(
                v >= i64::from(p.assembly_levels) - 1,
                "chain too short: {v}"
            );
            assert!(v <= p.initial_complexes() as i64);
        }
    }
    assert!(succeeded, "ST3 must sometimes hit an existing part");
}

#[test]
fn st8_twice_is_identity_on_assemblies() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    let mut seed_hit = None;
    for seed in 0..100 {
        if let OpOutcome::Done(_) = run_one(&mut ws, OpKind::St8, seed) {
            seed_hit = Some(seed);
            break;
        }
    }
    let seed = seed_hit.expect("ST8 must sometimes hit");
    assert_ne!(before.3, snapshot(&ws).3, "ancestor dates toggled");
    done(run_one(&mut ws, OpKind::St8, seed));
    assert_eq!(before, snapshot(&ws), "same path toggles back");
}

#[test]
fn st4_is_deterministic_and_bounded() {
    let p = StructureParams::tiny();
    let run = |seed| {
        let mut ws = Workspace::build(p.clone(), 5);
        done(run_one(&mut ws, OpKind::St4, seed))
    };
    // 100 title lookups, each visiting every base assembly using the
    // document's composite part.
    let max_used_in: i64 = {
        let ws = Workspace::build(p.clone(), 5);
        ws.composites
            .store
            .iter()
            .map(|(_, c)| c.used_in.len() as i64)
            .sum()
    };
    for seed in [1, 2, 3] {
        let v = run(seed);
        assert!((0..=100 * max_used_in).contains(&v));
        assert_eq!(v, run(seed), "same seed, same titles, same count");
    }
}

#[test]
fn st9_visits_the_whole_graph_of_one_composite() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    for seed in 0..20 {
        // Graphs are ring-connected, so the DFS reaches every part.
        assert_eq!(
            done(run_one(&mut ws, OpKind::St9, seed)),
            p.atomics_per_comp as i64
        );
    }
}

#[test]
fn st10_twice_is_identity() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    assert!(done(run_one(&mut ws, OpKind::St10, 3)) > 0);
    done(run_one(&mut ws, OpKind::St10, 3));
    assert_eq!(before, snapshot(&ws));
}

// ---------------------------------------------------------------------------
// Short operations
// ---------------------------------------------------------------------------

#[test]
fn op1_processes_at_most_ten_deterministically() {
    let p = StructureParams::tiny();
    for seed in 0..10 {
        let run = |seed| {
            let mut ws = Workspace::build(p.clone(), 5);
            done(run_one(&mut ws, OpKind::Op1, seed))
        };
        let v = run(seed);
        assert!((0..=10).contains(&v));
        assert_eq!(v, run(seed));
    }
}

#[test]
fn op9_and_op10_conserve_xy_sums() {
    let mut ws = fresh();
    let sum = xy_sum(&ws);
    for seed in 0..20 {
        run_one(&mut ws, OpKind::Op9, seed);
        run_one(&mut ws, OpKind::Op10, seed);
    }
    assert_eq!(xy_sum(&ws), sum, "swap(x, y) conserves x + y");
}

#[test]
fn swap_family_conserves_xy_sums_globally() {
    let mut ws = fresh();
    let sum = xy_sum(&ws);
    for (seed, op) in [
        OpKind::T2a,
        OpKind::T2b,
        OpKind::T2c,
        OpKind::St6,
        OpKind::St10,
        OpKind::Op9,
        OpKind::Op10,
    ]
    .into_iter()
    .enumerate()
    {
        run_one(&mut ws, op, seed as u64);
        assert_eq!(xy_sum(&ws), sum, "{} broke the invariant", op.name());
    }
}

#[test]
fn op15_keeps_the_date_index_coherent_and_dates_near() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    let mut moved = 0i64;
    for seed in 0..20 {
        moved += done(run_one(&mut ws, OpKind::Op15, seed));
        validate(&ws).expect("index must follow every date update");
    }
    assert!(moved > 0, "OP15 must hit parts");
    // Dates only ever toggle by one.
    for ((_, old), (_, new)) in before.0.iter().zip(ws.atomics.store.iter()) {
        assert!((old.build_date - new.build_date).abs() <= 1);
    }
}

#[test]
fn op6_returns_fanout_or_zero_for_the_root() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    let root = ws.module.design_root.raw();
    let mut saw_nonroot = false;
    for seed in 0..60 {
        let mut ctx = OpCtx::new(p.clone(), seed);
        let picked = ctx.random_complex_raw();
        match run_one(&mut ws, OpKind::Op6, seed) {
            OpOutcome::Done(0) => assert_eq!(picked, root, "only the root has no siblings"),
            OpOutcome::Done(v) => {
                // On a fresh tree every non-root level is fully populated.
                assert_eq!(v, p.assembly_fanout as i64);
                saw_nonroot = true;
            }
            OpOutcome::Fail(reason) => assert!(reason.contains("not found")),
        }
    }
    assert!(saw_nonroot);
}

#[test]
fn op7_returns_fanout_on_fresh_trees() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    let mut hits = 0;
    for seed in 0..60 {
        match run_one(&mut ws, OpKind::Op7, seed) {
            OpOutcome::Done(v) => {
                assert_eq!(v, p.assembly_fanout as i64);
                hits += 1;
            }
            OpOutcome::Fail(reason) => assert!(reason.contains("not found")),
        }
    }
    assert!(hits > 0);
}

#[test]
fn op8_returns_comps_per_base_on_fresh_trees() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    let mut hits = 0;
    for seed in 0..60 {
        match run_one(&mut ws, OpKind::Op8, seed) {
            OpOutcome::Done(v) => {
                assert_eq!(v, p.comps_per_base as i64, "bag size is fixed initially");
                hits += 1;
            }
            OpOutcome::Fail(reason) => assert!(reason.contains("not found")),
        }
    }
    assert!(hits > 0);
}

#[test]
fn op12_op13_op14_double_runs_are_identities() {
    for op in [OpKind::Op12, OpKind::Op13, OpKind::Op14] {
        let mut ws = fresh();
        let before = snapshot(&ws);
        // Find a seed where the operation completes with work done.
        let mut seed_hit = None;
        for seed in 0..100 {
            if let OpOutcome::Done(v) = run_one(&mut ws, op, seed) {
                if v > 0 {
                    seed_hit = Some(seed);
                    break;
                }
            }
        }
        let seed = seed_hit.unwrap_or_else(|| panic!("{} never completed", op.name()));
        assert_ne!(before, snapshot(&ws), "{} must mutate", op.name());
        done(run_one(&mut ws, op, seed));
        assert_eq!(before, snapshot(&ws), "{} twice must restore", op.name());
    }
}

// ---------------------------------------------------------------------------
// Cross-cutting properties
// ---------------------------------------------------------------------------

#[test]
fn every_operation_is_deterministic_in_its_seed() {
    let p = StructureParams::tiny();
    for &op in OpKind::ALL {
        let run = |seed| {
            let mut ws = Workspace::build(p.clone(), 5);
            run_one(&mut ws, op, seed)
        };
        assert_eq!(run(11), run(11), "{} diverged", op.name());
    }
}

#[test]
fn sm1_fails_with_the_documented_reason_when_the_pool_fills() {
    let p = StructureParams::tiny();
    let mut ws = Workspace::build(p.clone(), 5);
    let headroom = p.max_comps() as usize - p.library_size;
    for i in 0..headroom {
        assert!(
            run_one(&mut ws, OpKind::Sm1, i as u64).is_done(),
            "creation {i} of {headroom} must succeed"
        );
    }
    match run_one(&mut ws, OpKind::Sm1, 999) {
        OpOutcome::Fail(reason) => assert!(reason.contains("maximum number of composite parts")),
        OpOutcome::Done(_) => panic!("pool must be exhausted"),
    }
    validate(&ws).unwrap();
}

#[test]
fn read_only_operations_never_modify_the_structure() {
    let mut ws = fresh();
    let before = snapshot(&ws);
    for &op in OpKind::ALL.iter().filter(|o| o.is_read_only()) {
        for seed in 0..5 {
            run_one(&mut ws, op, seed);
        }
        assert_eq!(
            before,
            snapshot(&ws),
            "{} claims to be read-only but mutated state",
            op.name()
        );
    }
}
