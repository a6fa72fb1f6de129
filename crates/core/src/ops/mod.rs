//! The 45 STMBench7 operations (paper Appendix B.2).
//!
//! Operations are written once against [`Sb7Tx`] and carry no
//! synchronization; each declares an [`AccessSpec`] consumed by the
//! locking backends. The four files mirror the paper's taxonomy:
//!
//! * [`traversals`] — long traversals T1–T6, Q6, Q7,
//! * [`short_traversals`] — ST1–ST10,
//! * [`short_ops`] — OP1–OP15,
//! * [`structure_mods`] — SM1–SM8.

pub mod short_ops;
pub mod short_traversals;
pub mod structure_mods;
pub mod traversals;
mod visit;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use stmbench7_data::spec::{AccessSpec, Mode, ShardSet};
use stmbench7_data::{OpOutcome, Sb7Tx, ShardMap, StructureParams, TxR};

/// The paper's four operation categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// T1–T6, CT1–CT14: whole-graph traversals.
    LongTraversal,
    /// ST1–ST10: index-assisted partial traversals.
    ShortTraversal,
    /// OP1–OP15: few-object lookups and updates.
    ShortOperation,
    /// SM1–SM8: inserts/deletes that reshape the structure.
    StructureModification,
}

impl Category {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Category::LongTraversal => "long traversals",
            Category::ShortTraversal => "short traversals",
            Category::ShortOperation => "short operations",
            Category::StructureModification => "structure modifications",
        }
    }

    /// All categories in display order.
    pub fn all() -> [Category; 4] {
        [
            Category::LongTraversal,
            Category::ShortTraversal,
            Category::ShortOperation,
            Category::StructureModification,
        ]
    }

    /// Dense index into per-category tables ([`Category::all`] order).
    pub fn index(self) -> usize {
        match self {
            Category::LongTraversal => 0,
            Category::ShortTraversal => 1,
            Category::ShortOperation => 2,
            Category::StructureModification => 3,
        }
    }
}

macro_rules! ops {
    ($( $name:ident => ($cat:ident, $ro:expr, $label:expr) ),+ $(,)?) => {
        /// One of the 45 STMBench7 operations.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum OpKind {
            $( #[doc = $label] $name, )+
        }

        impl OpKind {
            /// All operations, in specification order.
            pub const ALL: &'static [OpKind] = &[ $( OpKind::$name, )+ ];

            /// The operation's category.
            pub fn category(self) -> Category {
                match self {
                    $( OpKind::$name => Category::$cat, )+
                }
            }

            /// True when the operation performs no updates.
            pub fn is_read_only(self) -> bool {
                match self {
                    $( OpKind::$name => $ro, )+
                }
            }

            /// The paper's name for the operation.
            pub fn name(self) -> &'static str {
                match self {
                    $( OpKind::$name => $label, )+
                }
            }

            /// Dense index into per-op tables.
            pub fn index(self) -> usize {
                Self::ALL.iter().position(|o| *o == self).expect("member of ALL")
            }
        }
    };
}

ops! {
    T1  => (LongTraversal, true,  "T1"),
    T2a => (LongTraversal, false, "T2a"),
    T2b => (LongTraversal, false, "T2b"),
    T2c => (LongTraversal, false, "T2c"),
    T3a => (LongTraversal, false, "T3a"),
    T3b => (LongTraversal, false, "T3b"),
    T3c => (LongTraversal, false, "T3c"),
    T4  => (LongTraversal, true,  "T4"),
    T5  => (LongTraversal, false, "T5"),
    T6  => (LongTraversal, true,  "T6"),
    Q6  => (LongTraversal, true,  "Q6"),
    Q7  => (LongTraversal, true,  "Q7"),
    St1 => (ShortTraversal, true,  "ST1"),
    St2 => (ShortTraversal, true,  "ST2"),
    St3 => (ShortTraversal, true,  "ST3"),
    St4 => (ShortTraversal, true,  "ST4"),
    St5 => (ShortTraversal, true,  "ST5"),
    St6 => (ShortTraversal, false, "ST6"),
    St7 => (ShortTraversal, false, "ST7"),
    St8 => (ShortTraversal, false, "ST8"),
    St9 => (ShortTraversal, true,  "ST9"),
    St10 => (ShortTraversal, false, "ST10"),
    Op1  => (ShortOperation, true,  "OP1"),
    Op2  => (ShortOperation, true,  "OP2"),
    Op3  => (ShortOperation, true,  "OP3"),
    Op4  => (ShortOperation, true,  "OP4"),
    Op5  => (ShortOperation, true,  "OP5"),
    Op6  => (ShortOperation, true,  "OP6"),
    Op7  => (ShortOperation, true,  "OP7"),
    Op8  => (ShortOperation, true,  "OP8"),
    Op9  => (ShortOperation, false, "OP9"),
    Op10 => (ShortOperation, false, "OP10"),
    Op11 => (ShortOperation, false, "OP11"),
    Op12 => (ShortOperation, false, "OP12"),
    Op13 => (ShortOperation, false, "OP13"),
    Op14 => (ShortOperation, false, "OP14"),
    Op15 => (ShortOperation, false, "OP15"),
    Sm1 => (StructureModification, false, "SM1"),
    Sm2 => (StructureModification, false, "SM2"),
    Sm3 => (StructureModification, false, "SM3"),
    Sm4 => (StructureModification, false, "SM4"),
    Sm5 => (StructureModification, false, "SM5"),
    Sm6 => (StructureModification, false, "SM6"),
    Sm7 => (StructureModification, false, "SM7"),
    Sm8 => (StructureModification, false, "SM8"),
}

/// Per-execution context: the structure parameters (for random id ranges
/// and date ranges) and the operation's random number generator.
pub struct OpCtx {
    /// The structure sizing the ids and dates are drawn against.
    pub params: StructureParams,
    /// The operation's own generator; reseeding it per request makes
    /// outcomes independent of scheduling.
    pub rng: SmallRng,
}

impl OpCtx {
    /// Creates a context with a deterministic generator.
    pub fn new(params: StructureParams, seed: u64) -> Self {
        OpCtx {
            params,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A random raw atomic-part id in `[1, pool max]`, as the paper's
    /// operations pick them ("operations … have to make choices randomly",
    /// and may fail when the id does not exist).
    pub fn random_atomic_raw(&mut self) -> u32 {
        self.rng.gen_range(1..=self.params.max_atomics())
    }

    /// A random raw composite-part id.
    pub fn random_composite_raw(&mut self) -> u32 {
        self.rng.gen_range(1..=self.params.max_comps())
    }

    /// A random raw base-assembly id.
    pub fn random_base_raw(&mut self) -> u32 {
        self.rng.gen_range(1..=self.params.max_bases())
    }

    /// A random raw complex-assembly id.
    pub fn random_complex_raw(&mut self) -> u32 {
        self.rng.gen_range(1..=self.params.max_complexes())
    }
}

/// Executes one operation.
pub fn run_op<T: Sb7Tx>(op: OpKind, tx: &mut T, ctx: &mut OpCtx) -> TxR<OpOutcome> {
    use OpKind::*;
    match op {
        T1 => traversals::t1(tx),
        T2a => traversals::t2a(tx),
        T2b => traversals::t2b(tx),
        T2c => traversals::t2c(tx),
        T3a => traversals::t3a(tx),
        T3b => traversals::t3b(tx),
        T3c => traversals::t3c(tx),
        T4 => traversals::t4(tx),
        T5 => traversals::t5(tx),
        T6 => traversals::t6(tx),
        Q6 => traversals::q6(tx),
        Q7 => traversals::q7(tx),
        St1 => short_traversals::st1(tx, ctx),
        St2 => short_traversals::st2(tx, ctx),
        St3 => short_traversals::st3(tx, ctx),
        St4 => short_traversals::st4(tx, ctx),
        St5 => short_traversals::st5(tx),
        St6 => short_traversals::st6(tx, ctx),
        St7 => short_traversals::st7(tx, ctx),
        St8 => short_traversals::st8(tx, ctx),
        St9 => short_traversals::st9(tx, ctx),
        St10 => short_traversals::st10(tx, ctx),
        Op1 => short_ops::op1(tx, ctx),
        Op2 => short_ops::op2(tx, ctx),
        Op3 => short_ops::op3(tx, ctx),
        Op4 => short_ops::op4(tx),
        Op5 => short_ops::op5(tx),
        Op6 => short_ops::op6(tx, ctx),
        Op7 => short_ops::op7(tx, ctx),
        Op8 => short_ops::op8(tx, ctx),
        Op9 => short_ops::op9(tx, ctx),
        Op10 => short_ops::op10(tx, ctx),
        Op11 => short_ops::op11(tx),
        Op12 => short_ops::op12(tx, ctx),
        Op13 => short_ops::op13(tx, ctx),
        Op14 => short_ops::op14(tx, ctx),
        Op15 => short_ops::op15(tx, ctx),
        Sm1 => structure_mods::sm1(tx, ctx),
        Sm2 => structure_mods::sm2(tx, ctx),
        Sm3 => structure_mods::sm3(tx, ctx),
        Sm4 => structure_mods::sm4(tx, ctx),
        Sm5 => structure_mods::sm5(tx, ctx),
        Sm6 => structure_mods::sm6(tx, ctx),
        Sm7 => structure_mods::sm7(tx, ctx),
        Sm8 => structure_mods::sm8(tx, ctx),
    }
}

/// The lock groups each operation touches under the medium-grained
/// strategy (paper Figure 5); the coarse strategy derives its single
/// lock's mode from the same table.
pub fn access_spec(op: OpKind, levels: u8) -> AccessSpec {
    use OpKind::*;
    let r = Mode::Read;
    let w = Mode::Write;
    let top = levels;
    match op {
        // Long traversals: module → assemblies → composites → atomics.
        T1 | T6 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .atomics(r),
        T2a | T2b | T2c | T3a | T3b | T3c => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .atomics(w),
        T4 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .documents(r),
        T5 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .documents(w),
        Q6 => AccessSpec::new().regular().levels(1, top, r).composites(r),
        Q7 => AccessSpec::new().regular().atomics(r),
        // Short traversals.
        St1 | St9 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .atomics(r),
        St2 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .documents(r),
        St3 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .atomics(r),
        St4 => AccessSpec::new()
            .regular()
            .level(1, r)
            .composites(r)
            .documents(r),
        St5 => AccessSpec::new().regular().level(1, r).composites(r),
        St6 | St10 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .atomics(w),
        St7 => AccessSpec::new()
            .regular()
            .levels(1, top, r)
            .composites(r)
            .documents(w),
        St8 => AccessSpec::new()
            .regular()
            .levels(1, top, w)
            .composites(r)
            .atomics(r),
        // Short operations.
        Op1 | Op2 | Op3 => AccessSpec::new().regular().atomics(r),
        Op4 | Op5 => AccessSpec::new().regular().manual(r),
        Op6 => AccessSpec::new().regular().levels(2, top, r),
        Op7 => AccessSpec::new().regular().levels(1, 2, r),
        Op8 => AccessSpec::new().regular().level(1, r).composites(r),
        Op9 | Op10 | Op15 => AccessSpec::new().regular().atomics(w),
        Op11 => AccessSpec::new().regular().manual(w),
        Op12 => AccessSpec::new().regular().levels(2, top, w),
        Op13 => AccessSpec::new().regular().level(1, w).level(2, r),
        Op14 => AccessSpec::new().regular().level(1, r).composites(w),
        // Structure modifications: fully isolated by the SM gate; they
        // additionally take the groups they touch in write mode so the
        // borrow structure matches the mutation pattern.
        Sm1 => AccessSpec::new()
            .sm_op()
            .composites(w)
            .atomics(w)
            .documents(w),
        Sm2 => AccessSpec::new()
            .sm_op()
            .level(1, w)
            .composites(w)
            .atomics(w)
            .documents(w),
        Sm3 | Sm4 => AccessSpec::new().sm_op().level(1, w).composites(w),
        Sm5 => AccessSpec::new().sm_op().levels(1, top, w),
        Sm6 => AccessSpec::new().sm_op().levels(1, top, w).composites(w),
        Sm7 => AccessSpec::new().sm_op().levels(1, top, w),
        Sm8 => AccessSpec::new().sm_op().levels(1, top, w).composites(w),
    }
}

/// The exact atomic-part shard set of one operation *instance*, when it
/// can be known before execution: operations that draw their atomic-part
/// ids first thing and touch no other atomic part have a footprint that
/// replaying those draws against a clone of the operation's RNG yields
/// exactly. Backends with per-shard atomic locks (the medium strategy)
/// then skip every other shard.
///
/// Two families qualify:
///
/// * OP1/OP9/OP15 draw ten candidate ids up front (see
///   [`short_ops::op1`]) — and a date entry shares its part's shard, so
///   even OP15's index update stays inside the set;
/// * ST3/ST8 draw exactly one id (see
///   [`short_traversals::st3`]) and read only that part before walking
///   *upward* through assemblies — groups the narrowing never touches.
///
/// Returns `None` for every operation whose atomic footprint is
/// data-dependent: those keep the conservative [`ShardSet::ALL`]
/// declaration. OP7/OP8 also draw an id first, but their footprint holds
/// no atomic parts at all (assembly levels and composites are not
/// shard-split), so there is nothing for a hint to narrow.
pub fn shard_hint(op: OpKind, ctx: &OpCtx) -> Option<ShardSet> {
    let shards = ctx.params.effective_shards();
    if shards <= 1 {
        return None;
    }
    let map = ShardMap::new(shards);
    // `begin_attempt` restores the pre-execution RNG state for every
    // attempt, so replaying the leading draws against a clone of the
    // generator is exact by construction. Only the generator is cloned —
    // this runs on every operation dispatch, so the probe must not
    // rebuild a context (the draw itself needs nothing but the id range).
    let max = ctx.params.max_atomics();
    match op {
        OpKind::Op1 | OpKind::Op9 | OpKind::Op15 => {
            // Replay the ten draws exactly as `op1_impl` will make them.
            let mut rng = ctx.rng.clone();
            let mut set = ShardSet::EMPTY;
            for _ in 0..10 {
                set = set.with(map.shard(rng.gen_range(1..=max)));
            }
            Some(set)
        }
        OpKind::St3 | OpKind::St8 => {
            // `ancestors_of_random_part` draws its single id first; the
            // walk upward reads that one part's owner and then leaves the
            // atomic group entirely.
            Some(ShardSet::of(map.shard(ctx.rng.clone().gen_range(1..=max))))
        }
        _ => None,
    }
}

/// The shard a request's *first* atomic-part draw routes to, computed
/// from the request's seed alone — the affinity router's key.
///
/// The service layer re-seeds each request's generator from
/// `Request::rng_seed` before execution, so the first draw any hintable
/// operation makes is fully determined by `(op, params, rng_seed)`; a
/// dispatcher can therefore route the request to the worker that owns
/// that shard without building a context or touching the structure.
/// Returns `None` for unhintable operations and single-shard structures
/// (no affinity signal; route however balances load).
///
/// For OP1/OP9/OP15 the first of the ten drawn ids stands in for the
/// whole footprint: a 10-draw set usually spans several shards, and a
/// router needs one owner, not a set — the remaining shards are covered
/// by the lock plan ([`shard_hint`]), not by placement.
pub fn primary_shard(op: OpKind, params: &StructureParams, rng_seed: u64) -> Option<usize> {
    let shards = params.effective_shards();
    if shards <= 1 {
        return None;
    }
    match op {
        OpKind::Op1 | OpKind::Op9 | OpKind::Op15 | OpKind::St3 | OpKind::St8 => {
            let mut rng = SmallRng::seed_from_u64(rng_seed);
            Some(ShardMap::new(shards).shard(rng.gen_range(1..=params.max_atomics())))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_45_operations() {
        assert_eq!(OpKind::ALL.len(), 45);
    }

    #[test]
    fn category_sizes_match_the_paper() {
        let count = |c: Category| OpKind::ALL.iter().filter(|o| o.category() == c).count();
        assert_eq!(count(Category::LongTraversal), 12);
        assert_eq!(count(Category::ShortTraversal), 10);
        assert_eq!(count(Category::ShortOperation), 15);
        assert_eq!(count(Category::StructureModification), 8);
    }

    #[test]
    fn read_only_sets_match_the_paper() {
        use OpKind::*;
        let ro: Vec<_> = OpKind::ALL
            .iter()
            .copied()
            .filter(|o| o.is_read_only())
            .collect();
        assert_eq!(
            ro,
            vec![
                T1, T4, T6, Q6, Q7, St1, St2, St3, St4, St5, St9, Op1, Op2, Op3, Op4, Op5, Op6,
                Op7, Op8
            ]
        );
        // All structure modifications are updates.
        assert!(OpKind::ALL
            .iter()
            .filter(|o| o.category() == Category::StructureModification)
            .all(|o| !o.is_read_only()));
    }

    #[test]
    fn t1_acquires_nine_locks_under_medium_grained() {
        // The paper: "long traversals have to acquire 9 locks".
        assert_eq!(access_spec(OpKind::T1, 7).lock_count(), 9);
        assert_eq!(access_spec(OpKind::T2b, 7).lock_count(), 9);
        assert_eq!(access_spec(OpKind::T4, 7).lock_count(), 9);
    }

    #[test]
    fn specs_are_consistent_with_read_only_flags() {
        for &op in OpKind::ALL {
            let spec = access_spec(op, 7);
            if op.is_read_only() {
                assert!(!spec.any_write(), "{} is read-only but writes", op.name());
            } else {
                assert!(spec.any_write(), "{} updates but declares none", op.name());
            }
            // Every operation declares its relationship to the SM gate.
            let is_sm = op.category() == Category::StructureModification;
            assert_eq!(spec.sm.is_write(), is_sm, "{} gate mode wrong", op.name());
            assert!(spec.sm.touched(), "{} must declare the gate", op.name());
        }
    }

    #[test]
    fn shard_hints_cover_exactly_the_drawn_ids() {
        let params = StructureParams::tiny().with_shards(8);
        for op in [OpKind::Op1, OpKind::Op9, OpKind::Op15] {
            for seed in 0..20 {
                let ctx = OpCtx::new(params.clone(), seed);
                let hint = shard_hint(op, &ctx).expect("op1 family is hintable");
                // Replaying the same draws independently must land inside
                // the hinted set, and the hint must contain nothing else.
                let mut probe = OpCtx::new(params.clone(), seed);
                let mut expect = ShardSet::EMPTY;
                for _ in 0..10 {
                    let raw = probe.random_atomic_raw();
                    assert!(hint.contains(raw as usize % 8));
                    expect = expect.with(raw as usize % 8);
                }
                assert_eq!(hint, expect);
                assert!(!hint.is_all());
            }
        }
        // Data-dependent footprints never get a hint; unsharded
        // structures never do either.
        assert!(shard_hint(OpKind::Op2, &OpCtx::new(params, 1)).is_none());
        let unsharded = OpCtx::new(StructureParams::tiny(), 1);
        assert!(shard_hint(OpKind::Op1, &unsharded).is_none());
    }

    #[test]
    fn st3_st8_hints_are_the_singleton_shard_of_the_first_draw() {
        let params = StructureParams::tiny().with_shards(8);
        for op in [OpKind::St3, OpKind::St8] {
            for seed in 0..25 {
                let ctx = OpCtx::new(params.clone(), seed);
                let hint = shard_hint(op, &ctx).expect("st3/st8 are hintable");
                // One id drawn ⇒ exactly one shard, and exactly the one
                // the replayed draw routes to.
                assert_eq!(hint.count(8), 1, "{} seed {seed}", op.name());
                let mut probe = OpCtx::new(params.clone(), seed);
                let raw = probe.random_atomic_raw();
                assert_eq!(hint, ShardSet::of(raw as usize % 8));
            }
        }
        // OP7/OP8 draw an id too, but touch no atomic parts: their specs
        // have nothing a shard hint could narrow.
        for op in [OpKind::Op7, OpKind::Op8] {
            assert!(!access_spec(op, 7).atomics.touched());
            assert!(shard_hint(op, &OpCtx::new(params.clone(), 1)).is_none());
        }
    }

    #[test]
    fn primary_shard_is_the_first_draw_of_every_hintable_op() {
        let params = StructureParams::tiny().with_shards(8);
        for op in [
            OpKind::Op1,
            OpKind::Op9,
            OpKind::Op15,
            OpKind::St3,
            OpKind::St8,
        ] {
            for seed in 0..25u64 {
                let primary =
                    primary_shard(op, &params, seed).expect("hintable ops have a primary shard");
                // The router key is the first replayed draw — and is
                // therefore always inside the lock plan's hinted set.
                let mut probe = OpCtx::new(params.clone(), seed);
                assert_eq!(primary, probe.random_atomic_raw() as usize % 8);
                let hint = shard_hint(op, &OpCtx::new(params.clone(), seed)).unwrap();
                assert!(hint.contains(primary), "{} seed {seed}", op.name());
            }
        }
        // No signal for unhintable ops or unsharded structures.
        assert!(primary_shard(OpKind::T1, &params, 1).is_none());
        assert!(primary_shard(OpKind::Op2, &params, 1).is_none());
        assert!(primary_shard(OpKind::Op1, &StructureParams::tiny(), 1).is_none());
    }

    #[test]
    fn medium_backend_runs_st3_st8_under_their_narrowed_specs() {
        use stmbench7_backend::{Backend, MediumBackend, SequentialBackend, TxOperation};
        use stmbench7_data::{validate, OpOutcome, Workspace};

        /// One operation instance with its own pinned RNG — the engine's
        /// per-instance execution, reduced to a test harness.
        struct OneOp {
            op: OpKind,
            params: StructureParams,
            seed: u64,
        }
        impl TxOperation<OpOutcome> for OneOp {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<OpOutcome> {
                let mut ctx = OpCtx::new(self.params.clone(), self.seed);
                run_op(self.op, tx, &mut ctx)
            }
        }

        let params = StructureParams::tiny().with_shards(8);
        let ws = Workspace::build(params.clone(), 7);
        let medium = MediumBackend::new(ws.clone());
        let sequential = SequentialBackend::new(ws);
        for op in [OpKind::St3, OpKind::St8] {
            for seed in 0..30 {
                let hint = shard_hint(op, &OpCtx::new(params.clone(), seed)).unwrap();
                let mut spec = access_spec(op, params.assembly_levels);
                spec.atomic_shards = hint;
                // The narrowed declaration suffices (no undeclared-shard
                // panic) and computes exactly what sequential computes.
                let mut a = OneOp {
                    op,
                    params: params.clone(),
                    seed,
                };
                let mut b = OneOp {
                    op,
                    params: params.clone(),
                    seed,
                };
                let narrowed = medium.execute(&spec, &mut a);
                let oracle = sequential.execute(&spec, &mut b);
                assert_eq!(narrowed, oracle, "{} seed {seed}", op.name());
            }
        }
        validate(&medium.export()).expect("structure intact after narrowed runs");
    }

    #[test]
    fn indexes_round_trip() {
        for (i, &op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }
}
