//! The fine-grained locking strategy — the paper's stated future work.
//!
//! §4 of the paper sketches it: "locking each assembly and composite part
//! separately could result in better scalability. However … there is a
//! need for each operation to build a list of objects it wants to access,
//! sort the list and then acquire locks in the right order to avoid
//! deadlocks." §6 calls a "fine-grained, highly-optimized locking
//! strategy" the missing "ultimate baseline". This module implements that
//! strategy.
//!
//! # Granularity
//!
//! Following the paper ("it would probably make no sense to protect each
//! atomic part with a single lock"), the lockable units are:
//!
//! * one read-write lock per **base assembly**,
//! * one read-write lock per **complex assembly**,
//! * one read-write lock per **composite cell** — a composite part
//!   together with its document and its whole graph of atomic parts
//!   (the "group small objects" §5 remedy, applied to locks),
//! * one lock for the **manual**,
//! * one lock for the **build-date index** (index 2) — the only index a
//!   non-SM operation can mutate,
//! * the **structure-modification gate**, held in read mode by every
//!   regular operation and in write mode by SM1–SM8.
//!
//! All remaining indexes, the id pools and the graph *topology* (links,
//! object existence) change only under the gate in write mode, so regular
//! operations — which hold the gate in read mode for their whole duration —
//! may read them without further locking.
//!
//! # The discover / sort / acquire / execute cycle
//!
//! Exactly as the paper prescribes, every regular operation runs twice:
//!
//! 1. **Discovery** executes the operation body against a `DiscoverTx`
//!    that takes momentary per-object read locks (never more than one at
//!    a time — deadlock-free by construction), buffers writes in a local
//!    overlay so read-your-own-write control flow is preserved, and
//!    records the set of locks the operation needs and the result of each
//!    build-date range scan.
//! 2. The recorded plan is **sorted** into one canonical lock order and
//!    all locks are **acquired** in that order (ordered acquisition —
//!    deadlock-free).
//! 3. **Execution** re-runs the operation body (with identical random
//!    choices, see [`TxOperation::begin_attempt`]) against an `ExecTx`
//!    holding the acquired guards; this run's effects are real.
//!
//! Discovery, planned execution and the exclusive execution of SM
//! operations run one `Sb7Tx` body, `FineTx`; each phase supplies only how
//! it reaches a lock unit (`FineUnits`).
//!
//! # Stale plans
//!
//! The topology is frozen under the gate, so a plan goes stale only when a
//! value discovery read changes before acquisition. A build-date range
//! scan (OP2, OP3, OP10) can find other parts after a concurrent date
//! update: execution compares each scan, made under the held date-shard
//! guards, with discovery's and aborts on a mismatch, before any write,
//! since these operations scan first. ST5 and Q6 stop at a composite whose
//! build date OP12–OP14 and the short traversals toggle concurrently; both
//! are read-only. So an aborted planned attempt has written nothing and a
//! retry never applies a write twice; an unplanned access after a write is
//! an invariant violation, not a retry. The backend re-discovers a bounded
//! number of times, then falls back to exclusive (gate-write) execution,
//! guaranteeing progress.
//!
//! This cost — an extra uncommitted execution of every operation, plus
//! sorting — is exactly the "additional overhead which, together with the
//! significant engineering cost, would be difficult to justify" that the
//! paper predicts; the `ultimate_baseline` row of the lab's
//! `registry::CATALOG` (`stmbench7 lab ultimate_baseline`) quantifies it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use stmbench7_data::access::PoolKind;
use stmbench7_data::btree::BTree;
use stmbench7_data::dates::check_date;
use stmbench7_data::sharded::{merge_date_entries, ShardMap, ShardedIndex};
use stmbench7_data::spec::AccessSpec;
use stmbench7_data::text;
use stmbench7_data::workspace::{
    AtomicGroup, BaseGroup, ComplexLevelGroup, CompositeGroup, DocGroup, SmState, Store, Workspace,
};
use stmbench7_data::{
    AtomicPart, AtomicPartId, BaseAssembly, BaseAssemblyId, ComplexAssembly, ComplexAssemblyId,
    CompositePart, CompositePartId, DateIndex, Document, DocumentId, Manual, Module, Sb7Tx,
    StructureParams, TxErr, TxR,
};

use crate::{Backend, TxOperation};

/// Retries of the discover/acquire/execute cycle before falling back to
/// exclusive execution. Plans only go stale through concurrent build-date
/// changes (see the module docs), so the bound is generous.
const MAX_PLAN_RETRIES: u32 = 8;

const MISSING: TxErr = TxErr::Invariant("object not found");
const GATED: TxErr = TxErr::Invariant("create/delete outside the SM gate");
/// An access fell outside the planned lock set, or a scan disagreed with
/// discovery's (a stale plan); reported as `Abort` so the backend
/// re-discovers.
const UNPLANNED: TxErr = TxErr::Abort;
/// The same after the attempt has written: retrying would apply its
/// writes twice.
const STALE_AFTER_WRITE: TxErr = TxErr::Invariant("plan went stale after a write");

// ---------------------------------------------------------------------------
// Lock identities and plans
// ---------------------------------------------------------------------------

/// Identity of one fine-grained lock.
///
/// The derived `Ord` *is* the canonical acquisition order: the date-index
/// shards first in shard order (they gate plan stability), then base
/// assemblies, complex assemblies and composite cells by raw id, then the
/// manual. The SM gate is not part of the plan — it is always acquired
/// first, before discovery.
///
/// The date index is sharded `index_shards` ways, routed by part id (the
/// same routing as [`ShardedIndex`]): an OP15-style date update plans
/// exactly the shards of the parts it touches, so updates on different
/// shards no longer serialize on one index lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LockKey {
    DateShard(u32),
    Base(u32),
    Complex(u32),
    Composite(u32),
    Manual,
}

/// What discovery produced: the lock set (key → exclusive?) and, in
/// order, the result of every build-date range scan.
#[derive(Debug, Default)]
struct Plan {
    locks: BTreeMap<LockKey, bool>,
    scans: Vec<Vec<AtomicPartId>>,
}

impl Plan {
    /// Records a lock requirement, upgrading read → write and never
    /// downgrading.
    #[inline]
    fn need(&mut self, key: LockKey, write: bool) {
        let entry = self.locks.entry(key).or_insert(false);
        *entry |= write;
    }

    /// Number of planned locks.
    fn len(&self) -> usize {
        self.locks.len()
    }
}

/// A held per-object guard.
enum Held<'a, T> {
    Read(RwLockReadGuard<'a, T>),
    Write(RwLockWriteGuard<'a, T>),
}

impl<T> Held<'_, T> {
    #[inline]
    fn get(&self) -> &T {
        match self {
            Held::Read(g) => g,
            Held::Write(g) => g,
        }
    }
}

fn held<T>(lock: &RwLock<T>, write: bool) -> Held<'_, T> {
    if write {
        Held::Write(lock.write())
    } else {
        Held::Read(lock.read())
    }
}

// ---------------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------------

/// A composite part with everything that lives and dies with it: its
/// document and its graph of atomic parts. One lock protects the cell.
///
/// The members are optional because SM2 dismantles a cell in steps
/// (composite, then document, then parts); the cell is garbage-collected
/// when the last member goes. All such steps happen under the gate in
/// write mode, so regular operations never observe a tombstone.
#[derive(Clone, Debug, Default)]
struct CompositeCell {
    comp: Option<CompositePart>,
    doc: Option<Document>,
    parts: HashMap<u32, AtomicPart>,
}

impl CompositeCell {
    fn is_tombstone(&self) -> bool {
        self.comp.is_none() && self.doc.is_none() && self.parts.is_empty()
    }
}

/// Everything behind the SM gate.
///
/// The module, the plain `BTree` members (`complex index` inside
/// [`SmState`], `base_ids`, `composite_ids`, `atomic_owner`, `doc_owner`,
/// `by_title`) and the id pools are mutated only while the gate is held
/// in write mode; regular operations hold the gate in read mode and read
/// them lock-free. Only `by_date` — which OP15 and the T3 family mutate —
/// and the per-object cells need interior locks.
struct FineWorld {
    module: Module,
    sm: SmState,
    manual: RwLock<Manual>,
    bases: Store<RwLock<BaseAssembly>>,
    base_ids: ShardedIndex<u32, ()>,
    complexes: Store<RwLock<ComplexAssembly>>,
    cells: Store<RwLock<CompositeCell>>,
    composite_ids: ShardedIndex<u32, ()>,
    /// Atomic part raw id → owning composite raw id (doubles as index 1).
    atomic_owner: BTree<u32, u32>,
    /// Document raw id → owning composite raw id.
    doc_owner: BTree<u32, u32>,
    /// Index 4: document title → document raw id.
    by_title: ShardedIndex<String, u32>,
    /// Index 2 — the only index regular operations mutate — split into
    /// per-shard locks, routed by part id (shard `s` holds the entries of
    /// parts with `id % shards == s`).
    by_date: Vec<RwLock<DateIndex>>,
    /// Routes a part id to its `by_date` shard.
    date_map: ShardMap,
    /// The dates `by_date` accepts, readable without its locks.
    date_domain: std::ops::RangeInclusive<i32>,
}

impl FineWorld {
    #[inline]
    fn owner_of_atomic(&self, raw: u32) -> TxR<u32> {
        self.atomic_owner.get(&raw).copied().ok_or(MISSING)
    }

    #[inline]
    fn owner_of_doc(&self, raw: u32) -> TxR<u32> {
        self.doc_owner.get(&raw).copied().ok_or(MISSING)
    }

    /// Cell `owner` under a momentary read lock.
    #[inline]
    fn read_cell(&self, owner: u32) -> TxR<RwLockReadGuard<'_, CompositeCell>> {
        Ok(self.cells.get(owner).ok_or(MISSING)?.read())
    }

    #[inline]
    fn cell_mut(&mut self, owner: u32) -> TxR<&mut CompositeCell> {
        Ok(self.cells.get_mut(owner).ok_or(MISSING)?.get_mut())
    }

    /// Removes a cell once its last member is gone.
    fn gc_cell(&mut self, owner: u32) {
        if self.cell_mut(owner).is_ok_and(|c| c.is_tombstone()) {
            self.cells.remove(owner);
        }
    }
}

/// Appends `index`'s entries dated within `[lo, hi]` to `out`.
#[inline]
fn collect_range(index: &DateIndex, lo: i32, hi: i32, out: &mut Vec<(i32, u32)>) {
    index.for_range(lo, hi, |date, raw| out.push((date, raw)));
}

/// Counters describing how the fine-grained strategy behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FineStats {
    /// Operations executed through the discover/acquire/execute cycle.
    pub planned_ops: u64,
    /// Operations executed under the exclusive gate (SM operations).
    pub exclusive_ops: u64,
    /// Per-object locks acquired by execution phases (gate excluded).
    pub locks_acquired: u64,
    /// Plans that went stale and were re-discovered.
    pub plan_retries: u64,
    /// Operations that exhausted retries and fell back to the gate.
    pub fallbacks: u64,
}

#[derive(Default)]
struct FineCounters {
    planned_ops: AtomicU64,
    exclusive_ops: AtomicU64,
    locks_acquired: AtomicU64,
    plan_retries: AtomicU64,
    fallbacks: AtomicU64,
}

/// The fine-grained locking backend (see module docs).
///
/// # Examples
///
/// ```
/// use stmbench7_backend::{Backend, FineBackend, TxOperation};
/// use stmbench7_data::{AccessSpec, Sb7Tx, StructureParams, TxR, Workspace};
///
/// struct RootId;
/// impl TxOperation<u32> for RootId {
///     fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<u32> {
///         tx.module(|m| m.design_root.raw())
///     }
/// }
///
/// let backend = FineBackend::new(Workspace::build(StructureParams::tiny(), 1));
/// let root = backend.execute(&AccessSpec::new().regular(), &mut RootId);
/// assert_ne!(root, 0);
/// assert_eq!(backend.fine_stats().planned_ops, 1);
/// ```
pub struct FineBackend {
    params: StructureParams,
    gate: RwLock<FineWorld>,
    counters: FineCounters,
}

impl FineBackend {
    /// Partitions a built workspace into per-object lock cells.
    pub fn new(ws: Workspace) -> Self {
        let mut cells: Store<RwLock<CompositeCell>> = Store::new(ws.params.max_comps());
        let mut atomic_owner = BTree::new();
        let mut doc_owner = BTree::new();
        for (raw, comp) in ws.composites.store.iter() {
            let doc = ws
                .documents
                .store
                .get(comp.doc.raw())
                .expect("composite document exists")
                .clone();
            doc_owner.insert(comp.doc.raw(), raw);
            let mut parts = HashMap::with_capacity(comp.graph.parts.len());
            for pid in &comp.graph.parts {
                let part = ws
                    .atomics
                    .store
                    .get(pid.raw())
                    .expect("composite part graph exists")
                    .clone();
                atomic_owner.insert(pid.raw(), raw);
                parts.insert(pid.raw(), part);
            }
            cells.insert(
                raw,
                RwLock::new(CompositeCell {
                    comp: Some(comp.clone()),
                    doc: Some(doc),
                    parts,
                }),
            );
        }

        let mut bases: Store<RwLock<BaseAssembly>> = Store::new(ws.params.max_bases());
        for (raw, b) in ws.bases.store.iter() {
            bases.insert(raw, RwLock::new(b.clone()));
        }
        let mut complexes: Store<RwLock<ComplexAssembly>> = Store::new(ws.params.max_complexes());
        for group in &ws.complexes {
            for (raw, c) in group.store.iter() {
                complexes.insert(raw, RwLock::new(c.clone()));
            }
        }

        FineBackend {
            gate: RwLock::new(FineWorld {
                module: ws.module,
                sm: ws.sm,
                manual: RwLock::new(ws.manual),
                bases,
                base_ids: ws.bases.by_id,
                complexes,
                cells,
                composite_ids: ws.composites.by_id,
                atomic_owner,
                doc_owner,
                by_title: ws.documents.by_title,
                date_map: ws.atomics.shard_map(),
                date_domain: ws.params.date_domain(),
                by_date: ws.atomics.by_date.into_iter().map(RwLock::new).collect(),
            }),
            params: ws.params,
            counters: FineCounters::default(),
        }
    }

    /// Snapshot of the strategy's behaviour counters.
    pub fn fine_stats(&self) -> FineStats {
        FineStats {
            planned_ops: self.counters.planned_ops.load(Ordering::Relaxed),
            exclusive_ops: self.counters.exclusive_ops.load(Ordering::Relaxed),
            locks_acquired: self.counters.locks_acquired.load(Ordering::Relaxed),
            plan_retries: self.counters.plan_retries.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Runs `op` once with the gate held in write mode, counting it on
    /// `counter`.
    fn run_exclusive<R, O: TxOperation<R>>(&self, counter: &AtomicU64, op: &mut O) -> R {
        let mut world = self.gate.write();
        counter.fetch_add(1, Ordering::Relaxed);
        op.begin_attempt();
        match op.run(&mut FineTx(FullTx { world: &mut world })) {
            Ok(v) => v,
            Err(TxErr::Abort) => unreachable!("exclusive execution cannot abort"),
            Err(TxErr::Invariant(msg)) => panic!("operation violated its access spec: {msg}"),
        }
    }
}

impl Backend for FineBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        if spec.sm.is_write() {
            // Structure modifications run in isolation, exactly as under
            // the medium-grained strategy: the gate serializes them
            // against everything.
            return self.run_exclusive(&self.counters.exclusive_ops, op);
        }

        let world = self.gate.read();
        for _attempt in 0..MAX_PLAN_RETRIES {
            // Phase 1: discovery.
            op.begin_attempt();
            let mut disc = FineTx(DiscoverTx {
                world: &world,
                plan: Plan::default(),
                overlay: Overlay::default(),
            });
            match op.run(&mut disc) {
                Ok(_) => {}
                Err(TxErr::Abort) => unreachable!("discovery cannot abort"),
                Err(TxErr::Invariant(msg)) => {
                    panic!("operation violated an invariant during lock discovery: {msg}")
                }
            }
            let plan = disc.0.plan;

            // Phases 2 + 3: ordered acquisition, then the real run.
            self.counters
                .locks_acquired
                .fetch_add(plan.len() as u64, Ordering::Relaxed);
            let mut exec = ExecTx::acquire(&world, plan);
            op.begin_attempt();
            match op.run(&mut exec) {
                Ok(r) => {
                    self.counters.planned_ops.fetch_add(1, Ordering::Relaxed);
                    return r;
                }
                // The plan went stale before any write; re-discover.
                Err(TxErr::Abort) => {
                    self.counters.plan_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(TxErr::Invariant(msg)) => {
                    panic!("operation violated its discovered lock plan: {msg}")
                }
            }
        }

        // Fallback: run exclusively. Guarantees progress for plans that
        // keep racing the date index.
        drop(world);
        self.run_exclusive(&self.counters.fallbacks, op)
    }

    fn name(&self) -> &'static str {
        "fine"
    }

    fn export(&self) -> Workspace {
        let mut world = self.gate.write();
        let world = &mut *world;
        let mut ws = Workspace::new(self.params.clone());
        ws.module = world.module.clone();
        ws.manual = world.manual.get_mut().clone();
        ws.sm = world.sm.clone();

        let mut bases = BaseGroup {
            store: Store::new(self.params.max_bases()),
            by_id: world.base_ids.clone(),
        };
        for (raw, cell) in world.bases.iter() {
            bases.store.insert(raw, cell.read().clone());
        }
        ws.bases = bases;

        let levels = usize::from(self.params.assembly_levels);
        let mut per_level: Vec<Store<ComplexAssembly>> = (2..=levels)
            .map(|_| Store::new(self.params.max_complexes()))
            .collect();
        for (raw, cell) in world.complexes.iter() {
            let ca = cell.read().clone();
            per_level[usize::from(ca.level) - 2].insert(raw, ca);
        }
        ws.complexes = per_level
            .into_iter()
            .map(|store| ComplexLevelGroup { store })
            .collect();

        let mut composites = CompositeGroup {
            store: Store::new(self.params.max_comps()),
            by_id: world.composite_ids.clone(),
        };
        let mut atomics = Store::new(self.params.max_atomics());
        let mut documents = DocGroup {
            store: Store::new(self.params.max_comps()),
            by_title: world.by_title.clone(),
        };
        for (raw, cell) in world.cells.iter() {
            let cell = cell.read();
            if let Some(comp) = &cell.comp {
                composites.store.insert(raw, comp.clone());
            }
            if let Some(doc) = &cell.doc {
                documents.store.insert(doc.id.raw(), doc.clone());
            }
            for (praw, part) in &cell.parts {
                atomics.insert(*praw, part.clone());
            }
        }
        ws.composites = composites;
        let by_date = world.by_date.iter_mut();
        ws.atomics =
            AtomicGroup::from_parts(atomics, by_date.map(|l| l.get_mut().clone()).collect());
        ws.documents = documents;
        ws
    }
}

// ---------------------------------------------------------------------------
// The one transaction body
// ---------------------------------------------------------------------------

/// How one phase of the cycle reaches the lock units: a read and a write
/// closure per unit, the build-date index, and the world behind the gate.
/// A document or atomic part is reached through its composite's cell,
/// `owner`, whose lock guards it.
trait FineUnits {
    /// The world as the held gate freezes it: the module, the topology,
    /// the owner tables, the gate-only indexes and the id pools.
    fn world(&self) -> &FineWorld;

    /// The world for creating and deleting objects, which only exclusive
    /// execution (the gate in write mode) may do.
    #[inline]
    fn world_mut(&mut self) -> TxR<&mut FineWorld> {
        Err(GATED)
    }

    fn manual<R>(&mut self, f: impl FnOnce(&Manual) -> R) -> TxR<R>;
    fn manual_mut<R>(&mut self, f: impl FnOnce(&mut Manual) -> R) -> TxR<R>;
    fn base<R>(&mut self, raw: u32, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R>;
    fn base_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut BaseAssembly) -> R) -> TxR<R>;
    fn complex<R>(&mut self, raw: u32, f: impl FnOnce(&ComplexAssembly) -> R) -> TxR<R>;
    fn complex_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut ComplexAssembly) -> R) -> TxR<R>;
    fn composite<R>(&mut self, raw: u32, f: impl FnOnce(&CompositePart) -> R) -> TxR<R>;
    fn composite_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut CompositePart) -> R) -> TxR<R>;
    fn document<R>(&mut self, owner: u32, f: impl FnOnce(&Document) -> R) -> TxR<R>;
    fn document_mut<R>(&mut self, owner: u32, f: impl FnOnce(&mut Document) -> R) -> TxR<R>;
    fn atomic<R>(&mut self, owner: u32, raw: u32, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R>;
    fn atomic_mut<R>(
        &mut self,
        owner: u32,
        raw: u32,
        f: impl FnOnce(&mut AtomicPart) -> R,
    ) -> TxR<R>;

    /// Moves part `raw`'s build-date index entry from `old` to `new`.
    fn move_date(&mut self, raw: u32, old: i32, new: i32) -> TxR<()>;

    /// Index 2 range scan over every shard, in global (date, id) order.
    fn scan_dates(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>>;
}

/// The one `Sb7Tx` body of discovery, planned and exclusive execution. A
/// newtype, because the orphan rule refuses a blanket impl of the data
/// crate's trait over a trait of this crate.
struct FineTx<U>(U);

impl<U: FineUnits> Sb7Tx for FineTx<U> {
    #[inline]
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(&self.0.world().module))
    }

    #[inline]
    fn manual_text_len(&mut self) -> TxR<usize> {
        self.0.manual(|m| m.text.len())
    }

    #[inline]
    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        self.0.manual(|m| text::count_char(&m.text, c))
    }

    #[inline]
    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        self.0.manual(|m| text::first_last_equal(&m.text))
    }

    #[inline]
    fn manual_swap_case(&mut self) -> TxR<usize> {
        self.0.manual_mut(|m| text::swap_manual_case(&mut m.text))
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    #[inline]
    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let owner = self.0.world().owner_of_atomic(id.raw())?;
        self.0.atomic(owner, id.raw(), f)
    }

    #[inline]
    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.0.composite(id.raw(), f)
    }

    #[inline]
    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.0.base(id.raw(), f)
    }

    #[inline]
    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.0.complex(id.raw(), f)
    }

    #[inline]
    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        let owner = self.0.world().owner_of_doc(id.raw())?;
        self.0.document(owner, f)
    }

    #[inline]
    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        let owner = self.0.world().owner_of_atomic(id.raw())?;
        self.0.atomic_mut(owner, id.raw(), f)
    }

    #[inline]
    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.0.composite_mut(id.raw(), f)
    }

    #[inline]
    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        self.0.base_mut(id.raw(), f)
    }

    #[inline]
    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.0.complex_mut(id.raw(), f)
    }

    #[inline]
    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let owner = self.0.world().owner_of_doc(id.raw())?;
        self.0.document_mut(owner, f)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        // The date index entry moves together with the attribute.
        let raw = id.raw();
        check_date(&self.0.world().date_domain, date)?;
        let owner = self.0.world().owner_of_atomic(raw)?;
        let old = self
            .0
            .atomic_mut(owner, raw, |p| std::mem::replace(&mut p.build_date, date))?;
        self.0.move_date(raw, old, date)
    }

    #[inline]
    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        let found = self.0.world().atomic_owner.contains(&raw);
        Ok(found.then_some(AtomicPartId(raw)))
    }

    #[inline]
    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        let found = self.0.world().composite_ids.contains(&raw);
        Ok(found.then_some(CompositePartId(raw)))
    }

    #[inline]
    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        let found = self.0.world().base_ids.contains(&raw);
        Ok(found.then_some(BaseAssemblyId(raw)))
    }

    #[inline]
    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        let found = self.0.world().sm.complex_index.contains(&raw);
        Ok(found.then_some(ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        let by_title = &self.0.world().by_title;
        Ok(by_title.get(&title.to_string()).map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        self.0.scan_dates(lo, hi)
    }

    fn for_each_atomic(&mut self, mut f: impl FnMut(&AtomicPart)) -> TxR<usize> {
        // Index 1 is the owner table: its keys, then one open per part.
        let mut ids = Vec::new();
        let owners = &self.0.world().atomic_owner;
        owners.for_each(|raw, _| ids.push(AtomicPartId(*raw)));
        for &id in &ids {
            self.atomic(id, &mut f)?;
        }
        Ok(ids.len())
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let mut out = Vec::new();
        let ids = &self.0.world().base_ids;
        ids.for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        let pool = self.0.world().sm.pools.of(kind);
        Ok(pool.capacity() as usize - pool.live())
    }

    fn create_atomic(
        &mut self,
        make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        let world = self.0.world_mut()?;
        // Build and check the part before allocating its id, so that a
        // refused date changes nothing.
        let Some(raw) = world.sm.pools.atomic.peek() else {
            return Ok(None);
        };
        let id = AtomicPartId(raw);
        let part = make(id);
        debug_assert_eq!(part.id, id);
        check_date(&world.date_domain, part.build_date)?;
        let allocated = world.sm.pools.atomic.alloc();
        debug_assert_eq!(allocated, Some(raw));
        let owner = part.owner.raw();
        let shard = world.date_map.shard(raw);
        let fresh = world.by_date[shard].get_mut().insert(part.build_date, raw);
        debug_assert_eq!(fresh, Ok(true), "date entry of new part {raw}");
        world.atomic_owner.insert(raw, owner);
        let cell = world
            .cell_mut(owner)
            .expect("atomic parts are created into existing cells");
        let previous = cell.parts.insert(raw, part);
        debug_assert!(previous.is_none(), "atomic id {raw} reused while live");
        Ok(Some(id))
    }

    fn create_composite(
        &mut self,
        make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        let world = self.0.world_mut()?;
        let Some(raw) = world.sm.pools.composite.alloc() else {
            return Ok(None);
        };
        let id = CompositePartId(raw);
        let comp = make(id);
        debug_assert_eq!(comp.id, id);
        world.composite_ids.insert(raw, ());
        match world.cells.get_mut(raw) {
            // A tombstone with this id can only linger within one SM
            // operation (the gate excludes everything else); reuse it.
            Some(cell) => {
                let cell = cell.get_mut();
                debug_assert!(cell.comp.is_none(), "composite id {raw} reused while live");
                cell.comp = Some(comp);
            }
            None => world.cells.insert(
                raw,
                RwLock::new(CompositeCell {
                    comp: Some(comp),
                    doc: None,
                    parts: HashMap::new(),
                }),
            ),
        }
        Ok(Some(id))
    }

    fn create_document(
        &mut self,
        make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        let world = self.0.world_mut()?;
        let Some(raw) = world.sm.pools.document.alloc() else {
            return Ok(None);
        };
        let id = DocumentId(raw);
        let doc = make(id);
        debug_assert_eq!(doc.id, id);
        let owner = doc.part.raw();
        world.doc_owner.insert(raw, owner);
        world.by_title.insert(doc.title.clone(), raw);
        let cell = world
            .cell_mut(owner)
            .expect("documents are created into existing cells");
        debug_assert!(cell.doc.is_none(), "cell {owner} already has a document");
        cell.doc = Some(doc);
        Ok(Some(id))
    }

    fn create_base(
        &mut self,
        make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        let world = self.0.world_mut()?;
        let Some(raw) = world.sm.pools.base.alloc() else {
            return Ok(None);
        };
        let id = BaseAssemblyId(raw);
        let b = make(id);
        debug_assert_eq!(b.id, id);
        world.base_ids.insert(raw, ());
        world.bases.insert(raw, RwLock::new(b));
        Ok(Some(id))
    }

    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        let world = self.0.world_mut()?;
        let Some(raw) = world.sm.pools.complex.alloc() else {
            return Ok(None);
        };
        let id = ComplexAssemblyId(raw);
        let c = make(id);
        debug_assert_eq!(c.id, id);
        debug_assert_eq!(c.level, level);
        world.sm.complex_index.insert(raw, level);
        world.complexes.insert(raw, RwLock::new(c));
        Ok(Some(id))
    }

    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart> {
        let world = self.0.world_mut()?;
        let raw = id.raw();
        let owner = world.atomic_owner.remove(&raw).ok_or(MISSING)?;
        let part = world
            .cell_mut(owner)?
            .parts
            .remove(&raw)
            .expect("owner table and cell agree");
        let shard = world.date_map.shard(raw);
        world.by_date[shard].get_mut().remove(part.build_date, raw);
        assert!(world.sm.pools.atomic.free(raw), "pool drift");
        world.gc_cell(owner);
        Ok(part)
    }

    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart> {
        let world = self.0.world_mut()?;
        let raw = id.raw();
        let comp = world.cell_mut(raw)?.comp.take().ok_or(MISSING)?;
        world.composite_ids.remove(&raw);
        assert!(world.sm.pools.composite.free(raw), "pool drift");
        world.gc_cell(raw);
        Ok(comp)
    }

    fn delete_document(&mut self, id: DocumentId) -> TxR<Document> {
        let world = self.0.world_mut()?;
        let raw = id.raw();
        let owner = world.doc_owner.remove(&raw).ok_or(MISSING)?;
        let doc = world
            .cell_mut(owner)?
            .doc
            .take()
            .expect("owner table and cell agree");
        world.by_title.remove(&doc.title);
        assert!(world.sm.pools.document.free(raw), "pool drift");
        world.gc_cell(owner);
        Ok(doc)
    }

    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly> {
        let world = self.0.world_mut()?;
        let raw = id.raw();
        let cell = world.bases.remove(raw).ok_or(MISSING)?;
        world.base_ids.remove(&raw);
        assert!(world.sm.pools.base.free(raw), "pool drift");
        Ok(cell.into_inner())
    }

    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        let world = self.0.world_mut()?;
        let raw = id.raw();
        let cell = world.complexes.remove(raw).ok_or(MISSING)?;
        world.sm.complex_index.remove(&raw);
        assert!(world.sm.pools.complex.free(raw), "pool drift");
        Ok(cell.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

/// Write buffer keeping discovery's control flow identical to a real
/// execution (read-your-own-write), without publishing anything.
/// Documents are keyed by their owning composite, as in the seam.
#[derive(Default)]
struct Overlay {
    bases: HashMap<u32, BaseAssembly>,
    complexes: HashMap<u32, ComplexAssembly>,
    comps: HashMap<u32, CompositePart>,
    docs: HashMap<u32, Document>,
    parts: HashMap<u32, AtomicPart>,
    manual: Option<Manual>,
}

/// The overlay copy of object `raw`, loaded on its first write.
#[inline]
fn buffered<T>(
    overlay: &mut HashMap<u32, T>,
    raw: u32,
    load: impl FnOnce() -> TxR<T>,
) -> TxR<&mut T> {
    Ok(match overlay.entry(raw) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(load()?),
    })
}

/// Phase-1 units: momentary per-object read locks (at most one held at a
/// time), every access recorded in the plan, writes buffered locally.
struct DiscoverTx<'a> {
    world: &'a FineWorld,
    plan: Plan,
    overlay: Overlay,
}

impl FineUnits for DiscoverTx<'_> {
    #[inline]
    fn world(&self) -> &FineWorld {
        self.world
    }

    #[inline]
    fn manual<R>(&mut self, f: impl FnOnce(&Manual) -> R) -> TxR<R> {
        self.plan.need(LockKey::Manual, false);
        Ok(match &self.overlay.manual {
            Some(m) => f(m),
            None => f(&self.world.manual.read()),
        })
    }

    #[inline]
    fn manual_mut<R>(&mut self, f: impl FnOnce(&mut Manual) -> R) -> TxR<R> {
        self.plan.need(LockKey::Manual, true);
        let world = self.world;
        let manual = &mut self.overlay.manual;
        let m = manual.get_or_insert_with(|| world.manual.read().clone());
        Ok(f(m))
    }

    #[inline]
    fn base<R>(&mut self, raw: u32, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.plan.need(LockKey::Base(raw), false);
        match self.overlay.bases.get(&raw) {
            Some(b) => Ok(f(b)),
            None => Ok(f(&self.world.bases.get(raw).ok_or(MISSING)?.read())),
        }
    }

    #[inline]
    fn base_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut BaseAssembly) -> R) -> TxR<R> {
        self.plan.need(LockKey::Base(raw), true);
        let bases = &self.world.bases;
        let b = buffered(&mut self.overlay.bases, raw, || {
            Ok(bases.get(raw).ok_or(MISSING)?.read().clone())
        })?;
        Ok(f(b))
    }

    #[inline]
    fn complex<R>(&mut self, raw: u32, f: impl FnOnce(&ComplexAssembly) -> R) -> TxR<R> {
        self.plan.need(LockKey::Complex(raw), false);
        match self.overlay.complexes.get(&raw) {
            Some(c) => Ok(f(c)),
            None => Ok(f(&self.world.complexes.get(raw).ok_or(MISSING)?.read())),
        }
    }

    #[inline]
    fn complex_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut ComplexAssembly) -> R) -> TxR<R> {
        self.plan.need(LockKey::Complex(raw), true);
        let complexes = &self.world.complexes;
        let c = buffered(&mut self.overlay.complexes, raw, || {
            Ok(complexes.get(raw).ok_or(MISSING)?.read().clone())
        })?;
        Ok(f(c))
    }

    #[inline]
    fn composite<R>(&mut self, raw: u32, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(raw), false);
        match self.overlay.comps.get(&raw) {
            Some(c) => Ok(f(c)),
            None => {
                let cell = self.world.read_cell(raw)?;
                cell.comp.as_ref().map(f).ok_or(MISSING)
            }
        }
    }

    #[inline]
    fn composite_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut CompositePart) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(raw), true);
        let world = self.world;
        let c = buffered(&mut self.overlay.comps, raw, || {
            world.read_cell(raw)?.comp.clone().ok_or(MISSING)
        })?;
        Ok(f(c))
    }

    #[inline]
    fn document<R>(&mut self, owner: u32, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(owner), false);
        match self.overlay.docs.get(&owner) {
            Some(d) => Ok(f(d)),
            None => {
                let cell = self.world.read_cell(owner)?;
                cell.doc.as_ref().map(f).ok_or(MISSING)
            }
        }
    }

    #[inline]
    fn document_mut<R>(&mut self, owner: u32, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(owner), true);
        let world = self.world;
        let d = buffered(&mut self.overlay.docs, owner, || {
            world.read_cell(owner)?.doc.clone().ok_or(MISSING)
        })?;
        Ok(f(d))
    }

    #[inline]
    fn atomic<R>(&mut self, owner: u32, raw: u32, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(owner), false);
        match self.overlay.parts.get(&raw) {
            Some(p) => Ok(f(p)),
            None => {
                let cell = self.world.read_cell(owner)?;
                cell.parts.get(&raw).map(f).ok_or(MISSING)
            }
        }
    }

    #[inline]
    fn atomic_mut<R>(
        &mut self,
        owner: u32,
        raw: u32,
        f: impl FnOnce(&mut AtomicPart) -> R,
    ) -> TxR<R> {
        self.plan.need(LockKey::Composite(owner), true);
        let world = self.world;
        let p = buffered(&mut self.overlay.parts, raw, || {
            let cell = world.read_cell(owner)?;
            cell.parts.get(&raw).cloned().ok_or(MISSING)
        })?;
        Ok(f(p))
    }

    #[inline]
    fn move_date(&mut self, raw: u32, _old: i32, _new: i32) -> TxR<()> {
        let shard = self.world.date_map.shard(raw) as u32;
        self.plan.need(LockKey::DateShard(shard), true);
        Ok(())
    }

    fn scan_dates(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        // A range spans every date shard; plan them all (read mode), read
        // each momentarily, and record the result for execution to check.
        let mut entries = Vec::new();
        for (s, shard) in self.world.by_date.iter().enumerate() {
            self.plan.need(LockKey::DateShard(s as u32), false);
            collect_range(&shard.read(), lo, hi, &mut entries);
        }
        let ids = merge_date_entries(entries);
        self.plan.scans.push(ids.clone());
        Ok(ids)
    }
}

// ---------------------------------------------------------------------------
// Planned execution
// ---------------------------------------------------------------------------

/// A possibly-held guard over one date-index shard.
type HeldDateShard<'a> = Option<Held<'a, DateIndex>>;

/// Phase-3 units: every access resolves against a guard acquired in
/// canonical order from the discovered plan. An access outside the plan,
/// or a scan that disagrees with discovery's, is a stale plan: [`UNPLANNED`]
/// (an `Abort`) before the run's first write, [`STALE_AFTER_WRITE`] after.
struct ExecTx<'a> {
    world: &'a FineWorld,
    /// Held date-index shards, slot `s` for shard `s`.
    date: Vec<HeldDateShard<'a>>,
    bases: HashMap<u32, Held<'a, BaseAssembly>>,
    complexes: HashMap<u32, Held<'a, ComplexAssembly>>,
    cells: HashMap<u32, Held<'a, CompositeCell>>,
    manual: Option<Held<'a, Manual>>,
    /// Discovery's scan results, in the order it made them.
    scans: std::vec::IntoIter<Vec<AtomicPartId>>,
    /// Whether this run has written anything yet.
    wrote: bool,
}

impl<'a> ExecTx<'a> {
    /// Acquires every planned lock, in `BTreeMap` (= canonical) order.
    /// Built inside its [`FineTx`]: wrapping it afterwards moves all 240
    /// bytes, a copy on every operation.
    fn acquire(world: &'a FineWorld, plan: Plan) -> FineTx<Self> {
        let mut tx = FineTx(ExecTx {
            world,
            date: (0..world.by_date.len()).map(|_| None).collect(),
            bases: HashMap::new(),
            complexes: HashMap::new(),
            cells: HashMap::new(),
            manual: None,
            scans: plan.scans.into_iter(),
            wrote: false,
        });
        let units = &mut tx.0;
        for (key, write) in plan.locks {
            match key {
                LockKey::DateShard(s) => {
                    units.date[s as usize] = Some(held(&world.by_date[s as usize], write));
                }
                LockKey::Base(raw) => {
                    // Planned objects can only vanish through SM
                    // operations, which the held gate excludes.
                    let lock = world.bases.get(raw).expect("planned base exists");
                    units.bases.insert(raw, held(lock, write));
                }
                LockKey::Complex(raw) => {
                    let lock = world.complexes.get(raw).expect("planned complex exists");
                    units.complexes.insert(raw, held(lock, write));
                }
                LockKey::Composite(raw) => {
                    let lock = world.cells.get(raw).expect("planned cell exists");
                    units.cells.insert(raw, held(lock, write));
                }
                LockKey::Manual => {
                    units.manual = Some(held(&world.manual, write));
                }
            }
        }
        tx
    }
}

/// The error for a stale plan: retryable until the run has written.
#[inline]
fn stale(wrote: bool) -> TxErr {
    if wrote {
        STALE_AFTER_WRITE
    } else {
        UNPLANNED
    }
}

/// A held guard's object, for reading.
#[inline]
fn read_held<'s, T>(wrote: bool, slot: Option<&'s Held<'_, T>>) -> TxR<&'s T> {
    slot.map(Held::get).ok_or(stale(wrote))
}

/// A held write guard's object; marks the run as having written.
#[inline]
fn write_held<'s, T>(wrote: &mut bool, slot: Option<&'s mut Held<'_, T>>) -> TxR<&'s mut T> {
    match slot {
        Some(Held::Write(g)) => {
            *wrote = true;
            Ok(&mut **g)
        }
        _ => Err(stale(*wrote)),
    }
}

impl FineUnits for ExecTx<'_> {
    #[inline]
    fn world(&self) -> &FineWorld {
        self.world
    }

    #[inline]
    fn manual<R>(&mut self, f: impl FnOnce(&Manual) -> R) -> TxR<R> {
        Ok(f(read_held(self.wrote, self.manual.as_ref())?))
    }

    #[inline]
    fn manual_mut<R>(&mut self, f: impl FnOnce(&mut Manual) -> R) -> TxR<R> {
        Ok(f(write_held(&mut self.wrote, self.manual.as_mut())?))
    }

    #[inline]
    fn base<R>(&mut self, raw: u32, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        Ok(f(read_held(self.wrote, self.bases.get(&raw))?))
    }

    #[inline]
    fn base_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut BaseAssembly) -> R) -> TxR<R> {
        Ok(f(write_held(&mut self.wrote, self.bases.get_mut(&raw))?))
    }

    #[inline]
    fn complex<R>(&mut self, raw: u32, f: impl FnOnce(&ComplexAssembly) -> R) -> TxR<R> {
        Ok(f(read_held(self.wrote, self.complexes.get(&raw))?))
    }

    #[inline]
    fn complex_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut ComplexAssembly) -> R) -> TxR<R> {
        let c = write_held(&mut self.wrote, self.complexes.get_mut(&raw))?;
        Ok(f(c))
    }

    #[inline]
    fn composite<R>(&mut self, raw: u32, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        let cell = read_held(self.wrote, self.cells.get(&raw))?;
        cell.comp.as_ref().map(f).ok_or(MISSING)
    }

    #[inline]
    fn composite_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut CompositePart) -> R) -> TxR<R> {
        let cell = write_held(&mut self.wrote, self.cells.get_mut(&raw))?;
        cell.comp.as_mut().map(f).ok_or(MISSING)
    }

    #[inline]
    fn document<R>(&mut self, owner: u32, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        let cell = read_held(self.wrote, self.cells.get(&owner))?;
        cell.doc.as_ref().map(f).ok_or(MISSING)
    }

    #[inline]
    fn document_mut<R>(&mut self, owner: u32, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let cell = write_held(&mut self.wrote, self.cells.get_mut(&owner))?;
        cell.doc.as_mut().map(f).ok_or(MISSING)
    }

    #[inline]
    fn atomic<R>(&mut self, owner: u32, raw: u32, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let cell = read_held(self.wrote, self.cells.get(&owner))?;
        cell.parts.get(&raw).map(f).ok_or(MISSING)
    }

    #[inline]
    fn atomic_mut<R>(
        &mut self,
        owner: u32,
        raw: u32,
        f: impl FnOnce(&mut AtomicPart) -> R,
    ) -> TxR<R> {
        let cell = write_held(&mut self.wrote, self.cells.get_mut(&owner))?;
        cell.parts.get_mut(&raw).map(f).ok_or(MISSING)
    }

    #[inline]
    fn move_date(&mut self, raw: u32, old: i32, new: i32) -> TxR<()> {
        let shard = self.world.date_map.shard(raw);
        let index = write_held(&mut self.wrote, self.date[shard].as_mut())?;
        index.move_entry(raw, old, new)
    }

    fn scan_dates(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        // Discovery planned every shard for the scan; a result other than
        // the one it recorded means the plan may miss a part.
        let mut entries = Vec::new();
        for slot in &self.date {
            collect_range(read_held(self.wrote, slot.as_ref())?, lo, hi, &mut entries);
        }
        let ids = merge_date_entries(entries);
        match self.scans.next() {
            Some(planned) if planned == ids => Ok(ids),
            _ => Err(stale(self.wrote)),
        }
    }
}

// ---------------------------------------------------------------------------
// Exclusive execution (SM operations and the fallback path)
// ---------------------------------------------------------------------------

/// Gate-exclusive units with direct mutable access; the only ones allowed
/// to create and delete objects.
struct FullTx<'a> {
    world: &'a mut FineWorld,
}

impl FineUnits for FullTx<'_> {
    #[inline]
    fn world(&self) -> &FineWorld {
        self.world
    }

    #[inline]
    fn world_mut(&mut self) -> TxR<&mut FineWorld> {
        Ok(self.world)
    }

    #[inline]
    fn manual<R>(&mut self, f: impl FnOnce(&Manual) -> R) -> TxR<R> {
        self.manual_mut(|m| f(m))
    }

    #[inline]
    fn manual_mut<R>(&mut self, f: impl FnOnce(&mut Manual) -> R) -> TxR<R> {
        Ok(f(self.world.manual.get_mut()))
    }

    #[inline]
    fn base<R>(&mut self, raw: u32, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.base_mut(raw, |b| f(b))
    }

    #[inline]
    fn base_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut BaseAssembly) -> R) -> TxR<R> {
        Ok(f(self.world.bases.get_mut(raw).ok_or(MISSING)?.get_mut()))
    }

    #[inline]
    fn complex<R>(&mut self, raw: u32, f: impl FnOnce(&ComplexAssembly) -> R) -> TxR<R> {
        self.complex_mut(raw, |c| f(c))
    }

    #[inline]
    fn complex_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut ComplexAssembly) -> R) -> TxR<R> {
        let c = self.world.complexes.get_mut(raw).ok_or(MISSING)?;
        Ok(f(c.get_mut()))
    }

    #[inline]
    fn composite<R>(&mut self, raw: u32, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.composite_mut(raw, |c| f(c))
    }

    #[inline]
    fn composite_mut<R>(&mut self, raw: u32, f: impl FnOnce(&mut CompositePart) -> R) -> TxR<R> {
        let cell = self.world.cell_mut(raw)?;
        cell.comp.as_mut().map(f).ok_or(MISSING)
    }

    #[inline]
    fn document<R>(&mut self, owner: u32, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        self.document_mut(owner, |d| f(d))
    }

    #[inline]
    fn document_mut<R>(&mut self, owner: u32, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let cell = self.world.cell_mut(owner)?;
        cell.doc.as_mut().map(f).ok_or(MISSING)
    }

    #[inline]
    fn atomic<R>(&mut self, owner: u32, raw: u32, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        self.atomic_mut(owner, raw, |p| f(p))
    }

    #[inline]
    fn atomic_mut<R>(
        &mut self,
        owner: u32,
        raw: u32,
        f: impl FnOnce(&mut AtomicPart) -> R,
    ) -> TxR<R> {
        let cell = self.world.cell_mut(owner)?;
        cell.parts.get_mut(&raw).map(f).ok_or(MISSING)
    }

    #[inline]
    fn move_date(&mut self, raw: u32, old: i32, new: i32) -> TxR<()> {
        let shard = self.world.date_map.shard(raw);
        self.world.by_date[shard]
            .get_mut()
            .move_entry(raw, old, new)
    }

    fn scan_dates(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        let mut entries = Vec::new();
        for lock in &mut self.world.by_date {
            collect_range(lock.get_mut(), lo, hi, &mut entries);
        }
        Ok(merge_date_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::Mode;

    struct ReadRoot;
    impl TxOperation<u32> for ReadRoot {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<u32> {
            tx.module(|m| m.design_root.raw())
        }
    }

    struct SwapManual;
    impl TxOperation<usize> for SwapManual {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<usize> {
            tx.manual_swap_case()
        }
    }

    /// Swaps x/y of one atomic part reached through its composite.
    struct SwapFirstPart;
    impl TxOperation<(i32, i32)> for SwapFirstPart {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<(i32, i32)> {
            let comp = tx.lookup_composite(1)?.expect("composite 1 exists");
            let part = tx.composite(comp, |c| c.graph.root())?;
            tx.atomic_mut(part, |p| {
                p.swap_xy();
                (p.x, p.y)
            })
        }
    }

    fn regular() -> AccessSpec {
        AccessSpec::new().regular()
    }

    fn build(seed: u64) -> FineBackend {
        FineBackend::new(Workspace::build(StructureParams::tiny(), seed))
    }

    #[test]
    fn read_write_and_export_round_trip() {
        let backend = build(5);
        let root = backend.execute(&regular(), &mut ReadRoot);
        assert_ne!(root, 0);
        assert!(backend.execute(&regular().manual(Mode::Write), &mut SwapManual) > 0);
        let (x1, y1) = backend.execute(&regular(), &mut SwapFirstPart);
        let (x2, y2) = backend.execute(&regular(), &mut SwapFirstPart);
        assert_eq!((x1, y1), (y2, x2));
        let ws = backend.export();
        stmbench7_data::validate(&ws).unwrap();
        assert_eq!(ws.module.design_root.raw(), root);
    }

    #[test]
    fn plans_are_counted() {
        let backend = build(6);
        backend.execute(&regular(), &mut ReadRoot);
        backend.execute(&regular(), &mut SwapFirstPart);
        let stats = backend.fine_stats();
        assert_eq!(stats.planned_ops, 2);
        assert_eq!(stats.exclusive_ops, 0);
        // ReadRoot locks nothing; SwapFirstPart locks exactly one cell.
        assert_eq!(stats.locks_acquired, 1);
        assert_eq!(stats.plan_retries, 0);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn sm_ops_run_exclusively() {
        let backend = build(7);
        struct Sm1Like;
        impl TxOperation<bool> for Sm1Like {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<bool> {
                let params = StructureParams::tiny();
                let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
                Ok(
                    stmbench7_data::builder::create_composite_with_graph(tx, &params, &mut rng)?
                        .is_some(),
                )
            }
        }
        let spec = AccessSpec::new().sm_op().composites(Mode::Write);
        assert!(backend.execute(&spec, &mut Sm1Like));
        assert_eq!(backend.fine_stats().exclusive_ops, 1);
        stmbench7_data::validate(&backend.export()).unwrap();
    }

    #[test]
    fn lock_order_is_canonical() {
        let mut keys = vec![
            LockKey::Manual,
            LockKey::Composite(1),
            LockKey::Complex(9),
            LockKey::Base(500),
            LockKey::DateShard(3),
            LockKey::DateShard(0),
            LockKey::Complex(2),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                LockKey::DateShard(0),
                LockKey::DateShard(3),
                LockKey::Base(500),
                LockKey::Complex(2),
                LockKey::Complex(9),
                LockKey::Composite(1),
                LockKey::Manual,
            ]
        );
    }

    #[test]
    fn plan_upgrades_but_never_downgrades() {
        let mut plan = Plan::default();
        plan.need(LockKey::Base(1), false);
        plan.need(LockKey::Base(1), true);
        plan.need(LockKey::Base(1), false);
        assert_eq!(plan.locks.get(&LockKey::Base(1)), Some(&true));
        assert_eq!(plan.len(), 1);
    }

    /// An adversarial operation whose access set *changes between
    /// attempts*: attempt n touches the root parts of `extra(n)`
    /// composites. With `extra` growing per attempt, execution always
    /// touches one cell discovery did not plan, exercising the retry
    /// loop (bounded growth) or the gate-write fallback (unbounded).
    struct ShiftingFootprint {
        attempts: u32,
        limit: u32,
    }

    impl TxOperation<i64> for ShiftingFootprint {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<i64> {
            // `begin_attempt` does not reset this — the drift across
            // attempts is the point.
            let extra = self.attempts.min(self.limit);
            self.attempts += 1;
            let mut sum = 0i64;
            for raw in 1..=(1 + extra) {
                if let Some(comp) = tx.lookup_composite(raw)? {
                    let part = tx.composite(comp, |c| c.graph.root())?;
                    sum += tx.atomic(part, |p| i64::from(p.x))?;
                }
            }
            Ok(sum)
        }
    }

    #[test]
    fn stale_plans_are_retried() {
        let backend = build(21);
        // Discovery (attempt 0) plans 1 cell; execution (attempt 1)
        // touches 2 → retry; re-discovery (attempt 2) plans 3 while
        // execution (attempt 3) wants 4 → retry… until `limit` freezes
        // the footprint and one cycle succeeds.
        let mut op = ShiftingFootprint {
            attempts: 0,
            limit: 4,
        };
        backend.execute(&regular(), &mut op);
        let stats = backend.fine_stats();
        assert!(stats.plan_retries > 0, "the shifting footprint must race");
        assert_eq!(stats.fallbacks, 0, "a frozen footprint settles in time");
        assert_eq!(stats.planned_ops, 1);
    }

    #[test]
    fn unbounded_drift_falls_back_to_exclusive_execution() {
        // Discovery attempts (even) and execution attempts (odd) touch
        // *different* cells, so no plan can ever settle; only the
        // gate-write fallback makes progress.
        struct ParityFootprint {
            attempts: u32,
        }
        impl TxOperation<i64> for ParityFootprint {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<i64> {
                let raw = 1 + (self.attempts % 2);
                self.attempts += 1;
                let comp = tx.lookup_composite(raw)?.expect("composites 1 and 2 exist");
                let part = tx.composite(comp, |c| c.graph.root())?;
                tx.atomic(part, |p| i64::from(p.x))
            }
        }

        let backend = build(22);
        backend.execute(&regular(), &mut ParityFootprint { attempts: 0 });
        let stats = backend.fine_stats();
        assert_eq!(stats.fallbacks, 1, "progress requires the fallback");
        assert_eq!(stats.plan_retries as u32, MAX_PLAN_RETRIES);
        assert_eq!(stats.planned_ops, 0);
    }

    #[test]
    fn concurrent_date_scans_and_updates_stay_coherent() {
        // OP15-style date writes race OP2-style scans: the only
        // plan-instability the fine strategy admits. The date-index lock
        // keeps every execution coherent regardless.
        use stmbench7_data::AtomicPart;
        struct BumpDates;
        impl TxOperation<u32> for BumpDates {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<u32> {
                let mut bumped = 0;
                for raw in [3u32, 7, 11] {
                    if let Some(id) = tx.lookup_atomic(raw)? {
                        let date = tx.atomic(id, |p| p.build_date)?;
                        tx.set_atomic_build_date(id, AtomicPart::next_build_date(date))?;
                        bumped += 1;
                    }
                }
                Ok(bumped)
            }
        }
        struct ScanDates;
        impl TxOperation<usize> for ScanDates {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<usize> {
                let ids = tx.atomics_in_date_range(i32::MIN, i32::MAX)?;
                let mut sum = 0i64;
                for id in &ids {
                    sum += tx.atomic(*id, |p| i64::from(p.x))?;
                }
                std::hint::black_box(sum);
                Ok(ids.len())
            }
        }

        let backend = std::sync::Arc::new(build(23));
        let parts = backend.export().atomics.store.live();
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = std::sync::Arc::clone(&backend);
                s.spawn(move || {
                    for _ in 0..200 {
                        if t % 2 == 0 {
                            b.execute(&regular().atomics(Mode::Write), &mut BumpDates);
                        } else {
                            // The full-range scan must always see every
                            // live part: dates move but parts never
                            // appear or vanish under the gate.
                            let seen = b.execute(&regular(), &mut ScanDates);
                            assert_eq!(seen, parts);
                        }
                    }
                });
            }
        });
        stmbench7_data::validate(&backend.export()).unwrap();
    }

    #[test]
    fn concurrent_mixed_load_keeps_structure_valid() {
        let backend = std::sync::Arc::new(build(11));
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = std::sync::Arc::clone(&backend);
                s.spawn(move || {
                    for i in 0..100 {
                        if (t + i) % 3 == 0 {
                            b.execute(&regular().manual(Mode::Write), &mut SwapManual);
                        } else {
                            b.execute(&regular(), &mut SwapFirstPart);
                        }
                    }
                });
            }
        });
        stmbench7_data::validate(&backend.export()).unwrap();
    }

    struct MoveDate(AtomicPartId, i32);
    impl TxOperation<()> for MoveDate {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<()> {
            tx.set_atomic_build_date(self.0, self.1)
        }
    }

    /// OP10's shape: scan one build date, then swap x/y of every part
    /// found. Its first discovery run, after the scan, has another thread
    /// move `mover` — a part of a composite the plan does not cover — into
    /// that date, so execution finds one part more than was planned.
    struct SwapDate<'b> {
        backend: &'b FineBackend,
        date: i32,
        mover: AtomicPartId,
        runs: u32,
    }
    impl TxOperation<usize> for SwapDate<'_> {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<usize> {
            let ids = tx.atomics_in_date_range(self.date, self.date)?;
            if self.runs == 0 {
                let (backend, mut mover) = (self.backend, MoveDate(self.mover, self.date));
                std::thread::scope(|s| {
                    s.spawn(|| backend.execute(&regular().atomics(Mode::Write), &mut mover));
                });
            }
            self.runs += 1;
            for &id in &ids {
                tx.atomic(id, |p| p.x)?;
                tx.atomic_mut(id, |p| p.swap_xy())?;
            }
            Ok(ids.len())
        }
    }

    #[test]
    fn stale_plan_retry_does_not_repeat_writes() {
        let backend = build(24);
        let before = backend.export();
        let parts: Vec<&AtomicPart> = before.atomics.store.iter().map(|(_, p)| p).collect();
        // The date of the lowest part id, and the highest part id outside
        // every composite holding a part of that date: the moved part sorts
        // last, after parts execution would already have swapped.
        let date = parts[0].build_date;
        let in_range: Vec<&AtomicPart> = parts
            .iter()
            .copied()
            .filter(|p| p.build_date == date)
            .collect();
        let planned: Vec<CompositePartId> = in_range.iter().map(|p| p.owner).collect();
        let mover = parts
            .iter()
            .rev()
            .find(|p| !planned.contains(&p.owner))
            .expect("a part outside the planned composites");
        assert!(
            in_range.iter().any(|p| p.x != p.y),
            "a swap must be visible"
        );

        let mut op = SwapDate {
            backend: &backend,
            date,
            mover: mover.id,
            runs: 0,
        };
        assert_eq!(
            backend.execute(&regular().atomics(Mode::Write), &mut op),
            in_range.len() + 1
        );
        let stats = backend.fine_stats();
        assert_eq!((stats.plan_retries, stats.fallbacks), (1, 0), "{stats:?}");

        let after = backend.export();
        for p in &parts {
            let now = after
                .atomics
                .store
                .get(p.id.raw())
                .expect("no part vanished");
            let swapped = p.build_date == date || p.id == mover.id;
            let expect = if swapped { (p.y, p.x) } else { (p.x, p.y) };
            let raw = p.id.raw();
            assert_eq!(
                (now.x, now.y),
                expect,
                "part {raw} must be swapped exactly once"
            );
        }
        stmbench7_data::validate(&after).unwrap();
    }

    #[test]
    #[should_panic(expected = "plan went stale after a write")]
    fn unplanned_access_after_a_write_is_an_invariant_violation() {
        // Both runs write into composite 1 first; discovery runs (even)
        // then read composite 2 and execution runs (odd) composite 3. A
        // retry would repeat the write, so the stale plan is not retried.
        struct WriteThenDrift(u32);
        impl TxOperation<()> for WriteThenDrift {
            fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<()> {
                let raw = 2 + self.0 % 2;
                self.0 += 1;
                let comp = tx.lookup_composite(1)?.expect("composite 1 exists");
                let part = tx.composite(comp, |c| c.graph.root())?;
                tx.atomic_mut(part, |p| p.swap_xy())?;
                let other = tx.lookup_composite(raw)?.expect("composites 2 and 3 exist");
                tx.composite(other, |c| c.build_date).map(drop)
            }
        }
        build(25).execute(&regular(), &mut WriteThenDrift(0));
    }

    /// Calls every accessor that changes the structure and records what
    /// each returned, one list per run. Under an SM spec it creates one
    /// object of each kind and deletes them again.
    #[derive(Default)]
    struct StructureWrites {
        runs: Vec<Vec<(&'static str, TxR<()>)>>,
    }
    impl TxOperation<()> for StructureWrites {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<()> {
            use stmbench7_data::objects::AssemblyChildren;
            let root = tx.module(|m| m.design_root)?;
            let mut seen = vec![("set_design_root", tx.set_design_root(root))];
            // Where a create is refused, the deletes name live objects.
            let comp = tx.create_composite(|id| CompositePart {
                id,
                kind: 0,
                build_date: 1000,
                doc: DocumentId(1),
                graph: Default::default(),
                used_in: vec![],
            });
            seen.push(("create_composite", comp.map(drop)));
            let comp = comp.ok().flatten().unwrap_or(CompositePartId(1));
            let doc = tx.create_document(|id| Document {
                id,
                title: "Gate probe".to_string(),
                text: String::new(),
                part: comp,
            });
            seen.push(("create_document", doc.map(drop)));
            let part = tx.create_atomic(|id| AtomicPart {
                id,
                kind: 0,
                build_date: 1000,
                x: 0,
                y: 0,
                owner: comp,
            });
            seen.push(("create_atomic", part.map(drop)));
            let base = tx.create_base(|id| BaseAssembly {
                id,
                kind: 0,
                build_date: 1000,
                parent: root,
                components: vec![],
            });
            seen.push(("create_base", base.map(drop)));
            let complex = tx.create_complex(2, |id| ComplexAssembly {
                id,
                kind: 0,
                build_date: 1000,
                parent: Some(root),
                level: 2,
                children: AssemblyChildren::Base(vec![]),
            });
            seen.push(("create_complex", complex.map(drop)));
            let part = part.ok().flatten().unwrap_or(AtomicPartId(1));
            let doc = doc.ok().flatten().unwrap_or(DocumentId(1));
            let base = base.ok().flatten().unwrap_or(BaseAssemblyId(1));
            let complex = complex.ok().flatten().unwrap_or(root);
            seen.push(("delete_atomic", tx.delete_atomic(part).map(drop)));
            seen.push(("delete_document", tx.delete_document(doc).map(drop)));
            seen.push(("delete_composite", tx.delete_composite(comp).map(drop)));
            seen.push(("delete_base", tx.delete_base(base).map(drop)));
            seen.push(("delete_complex", tx.delete_complex(complex).map(drop)));
            self.runs.push(seen);
            Ok(())
        }
    }

    #[test]
    fn structure_writes_are_refused_outside_the_gate() {
        let backend = build(26);
        let mut op = StructureWrites::default();
        backend.execute(&regular().composites(Mode::Write), &mut op);
        // One discovery run and one execution run, both refused whole.
        assert_eq!(op.runs.len(), 2);
        for (run, seen) in op.runs.iter().enumerate() {
            assert_eq!(seen.len(), 11, "run {run}");
            for (accessor, r) in seen {
                assert!(
                    matches!(r, Err(TxErr::Invariant(m)) if *m != "object not found"),
                    "run {run}: {accessor} returned {r:?}"
                );
            }
        }
        stmbench7_data::validate(&backend.export()).unwrap();

        // Under the gate every create and delete succeeds; the module
        // stays immutable, as under the medium-grained strategy.
        let mut op = StructureWrites::default();
        let sm = AccessSpec::new().sm_op().composites(Mode::Write);
        backend.execute(&sm, &mut op);
        let [seen] = op.runs.as_slice() else {
            panic!("one exclusive run, not {}", op.runs.len());
        };
        for (accessor, r) in seen {
            match *accessor {
                "set_design_root" => assert!(matches!(r, Err(TxErr::Invariant(_)))),
                _ => assert_eq!(r, &Ok(()), "{accessor}"),
            }
        }
        assert_eq!(backend.fine_stats().exclusive_ops, 1);
        stmbench7_data::validate(&backend.export()).unwrap();
    }
}
