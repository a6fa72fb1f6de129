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
//!    records the set of locks the operation needs.
//! 2. The recorded plan is **sorted** into one canonical lock order and
//!    all locks are **acquired** in that order (ordered acquisition —
//!    deadlock-free).
//! 3. **Execution** re-runs the operation body (with identical random
//!    choices, see [`TxOperation::begin_attempt`]) against an `ExecTx`
//!    holding the acquired guards; this run's effects are real.
//!
//! Because the topology is frozen under the gate, discovery is exact for
//! every operation whose access set is topology-determined — all of them
//! except the build-date range scans (OP2, OP3, OP10), whose result can
//! change if another thread commits a date update between discovery and
//! acquisition. Execution detects any access outside the planned lock set
//! and aborts; the backend retries discovery a bounded number of times and
//! finally falls back to exclusive (gate-write) execution, guaranteeing
//! progress.
//!
//! This cost — an extra uncommitted execution of every operation, plus
//! sorting — is exactly the "additional overhead which, together with the
//! significant engineering cost, would be difficult to justify" that the
//! paper predicts; the `ultimate_baseline` row of the lab's
//! `registry::CATALOG` (`stmbench7 lab ultimate_baseline`) quantifies it.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use stmbench7_data::access::PoolKind;
use stmbench7_data::btree::BTree;
use stmbench7_data::sharded::{ShardMap, ShardedIndex};
use stmbench7_data::spec::AccessSpec;
use stmbench7_data::workspace::{
    AtomicGroup, BaseGroup, ComplexLevelGroup, CompositeGroup, DocGroup, SmState, Store, Workspace,
};
use stmbench7_data::{
    AtomicPart, AtomicPartId, BaseAssembly, BaseAssemblyId, ComplexAssembly, ComplexAssemblyId,
    CompositePart, CompositePartId, Document, DocumentId, Manual, Module, Sb7Tx, StructureParams,
    TxErr, TxR,
};

use crate::{Backend, TxOperation};

/// Retries of the discover/acquire/execute cycle before falling back to
/// exclusive execution. Plans only go stale through build-date index
/// races, so the bound is generous.
const MAX_PLAN_RETRIES: u32 = 8;

const MISSING: TxErr = TxErr::Invariant("object not found");
const GATED: TxErr = TxErr::Invariant("create/delete outside the SM gate");
/// An access fell outside the planned lock set (a stale plan, possible
/// only through build-date index races); reported as `Abort` so the
/// backend re-discovers.
const UNPLANNED: TxErr = TxErr::Abort;

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

/// The lock set discovery produced: key → exclusive?
#[derive(Clone, Debug, Default)]
struct Plan {
    locks: BTreeMap<LockKey, bool>,
}

impl Plan {
    /// Records a lock requirement, upgrading read → write and never
    /// downgrading.
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
    fn get(&self) -> &T {
        match self {
            Held::Read(g) => g,
            Held::Write(g) => g,
        }
    }

    /// Exclusive access; a read guard means the plan under-approximated
    /// (stale plan), so the caller retries.
    fn get_mut(&mut self) -> TxR<&mut T> {
        match self {
            Held::Read(_) => Err(UNPLANNED),
            Held::Write(g) => Ok(g),
        }
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
/// The plain `BTree` members (`complex index` inside [`SmState`],
/// `base_ids`, `composite_ids`, `atomic_owner`, `doc_owner`, `by_title`)
/// and the id pools are mutated only while the gate is held in write
/// mode; regular operations hold the gate in read mode and read them
/// lock-free. Only `by_date` — which OP15 and the T3 family mutate — and
/// the per-object cells need interior locks.
struct FineWorld {
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
    by_date: Vec<RwLock<BTree<(i32, u32), ()>>>,
    /// Routes a part id to its `by_date` shard.
    date_map: ShardMap,
}

impl FineWorld {
    /// The date-index shard a part id routes to.
    fn date_shard_of(&self, raw: u32) -> usize {
        self.date_map.shard(raw)
    }
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
    module: Module,
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
            module: ws.module,
            gate: RwLock::new(FineWorld {
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
                date_map: ShardMap::new(ws.atomics.by_date.shard_count()),
                by_date: ws
                    .atomics
                    .by_date
                    .into_shards()
                    .into_iter()
                    .map(RwLock::new)
                    .collect(),
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
}

impl Backend for FineBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        if spec.sm.is_write() {
            // Structure modifications run in isolation, exactly as under
            // the medium-grained strategy: the gate serializes them
            // against everything.
            let mut world = self.gate.write();
            self.counters.exclusive_ops.fetch_add(1, Ordering::Relaxed);
            op.begin_attempt();
            let mut tx = FullTx {
                module: &self.module,
                world: &mut world,
            };
            return unwrap_lock_result(op.run(&mut tx));
        }

        let world = self.gate.read();
        for _attempt in 0..MAX_PLAN_RETRIES {
            // Phase 1: discovery.
            op.begin_attempt();
            let mut disc = DiscoverTx {
                module: &self.module,
                world: &world,
                plan: Plan::default(),
                overlay: Overlay::default(),
            };
            match op.run(&mut disc) {
                Ok(_) => {}
                Err(TxErr::Abort) => unreachable!("discovery cannot abort"),
                Err(TxErr::Invariant(msg)) => {
                    panic!("operation violated an invariant during lock discovery: {msg}")
                }
            }
            let plan = disc.plan;

            // Phases 2 + 3: ordered acquisition, then the real run.
            let mut exec = ExecTx::acquire(&self.module, &world, &plan);
            self.counters
                .locks_acquired
                .fetch_add(plan.len() as u64, Ordering::Relaxed);
            op.begin_attempt();
            match op.run(&mut exec) {
                Ok(r) => {
                    self.counters.planned_ops.fetch_add(1, Ordering::Relaxed);
                    return r;
                }
                // The plan went stale (a date-index race); re-discover.
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
        let mut world = self.gate.write();
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        op.begin_attempt();
        let mut tx = FullTx {
            module: &self.module,
            world: &mut world,
        };
        unwrap_lock_result(op.run(&mut tx))
    }

    fn name(&self) -> &'static str {
        "fine"
    }

    fn export(&self) -> Workspace {
        let mut world = self.gate.write();
        let world = &mut *world;
        let mut ws = Workspace::new(self.params.clone());
        ws.module = self.module.clone();
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
        let mut atomics = AtomicGroup {
            store: Store::new(self.params.max_atomics()),
            by_id: ShardedIndex::new(self.params.effective_shards()),
            by_date: ShardedIndex::from_shards(
                world
                    .by_date
                    .iter_mut()
                    .map(|lock| lock.get_mut().clone())
                    .collect(),
            ),
        };
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
                atomics.by_id.insert(*praw, ());
                atomics.store.insert(*praw, part.clone());
            }
        }
        ws.composites = composites;
        ws.atomics = atomics;
        ws.documents = documents;
        ws
    }
}

fn unwrap_lock_result<R>(r: TxR<R>) -> R {
    match r {
        Ok(v) => v,
        Err(TxErr::Abort) => unreachable!("exclusive execution cannot abort"),
        Err(TxErr::Invariant(msg)) => panic!("operation violated its access spec: {msg}"),
    }
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

/// Write buffer keeping discovery's control flow identical to a real
/// execution (read-your-own-write), without publishing anything.
#[derive(Default)]
struct Overlay {
    bases: HashMap<u32, BaseAssembly>,
    complexes: HashMap<u32, ComplexAssembly>,
    comps: HashMap<u32, CompositePart>,
    docs: HashMap<u32, Document>,
    parts: HashMap<u32, AtomicPart>,
    manual: Option<Manual>,
}

/// Phase-1 transaction: runs the operation body with momentary per-object
/// read locks (at most one held at a time), records the lock plan and
/// buffers writes locally.
struct DiscoverTx<'a> {
    module: &'a Module,
    world: &'a FineWorld,
    plan: Plan,
    overlay: Overlay,
}

impl DiscoverTx<'_> {
    fn owner_of_atomic(&self, raw: u32) -> TxR<u32> {
        self.world.atomic_owner.get(&raw).copied().ok_or(MISSING)
    }

    fn owner_of_doc(&self, raw: u32) -> TxR<u32> {
        self.world.doc_owner.get(&raw).copied().ok_or(MISSING)
    }

    /// Clones an object out of its cell under a momentary read lock.
    fn snapshot<T>(&self, owner: u32, pick: impl FnOnce(&CompositeCell) -> Option<&T>) -> TxR<T>
    where
        T: Clone,
    {
        let cell = self.world.cells.get(owner).ok_or(MISSING)?.read();
        pick(&cell).cloned().ok_or(MISSING)
    }
}

impl Sb7Tx for DiscoverTx<'_> {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(self.module))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        self.plan.need(LockKey::Manual, false);
        if let Some(m) = &self.overlay.manual {
            return Ok(m.text.len());
        }
        Ok(self.world.manual.read().text.len())
    }

    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        self.plan.need(LockKey::Manual, false);
        if let Some(m) = &self.overlay.manual {
            return Ok(stmbench7_data::text::count_char(&m.text, c));
        }
        Ok(stmbench7_data::text::count_char(
            &self.world.manual.read().text,
            c,
        ))
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        self.plan.need(LockKey::Manual, false);
        if let Some(m) = &self.overlay.manual {
            return Ok(stmbench7_data::text::first_last_equal(&m.text));
        }
        Ok(stmbench7_data::text::first_last_equal(
            &self.world.manual.read().text,
        ))
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        self.plan.need(LockKey::Manual, true);
        let m = match &mut self.overlay.manual {
            Some(m) => m,
            slot @ None => {
                *slot = Some(self.world.manual.read().clone());
                slot.as_mut().expect("just filled")
            }
        };
        Ok(stmbench7_data::text::swap_manual_case(&mut m.text))
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.plan.need(LockKey::Composite(owner), false);
        if let Some(p) = self.overlay.parts.get(&id.raw()) {
            return Ok(f(p));
        }
        let cell = self.world.cells.get(owner).ok_or(MISSING)?.read();
        cell.parts.get(&id.raw()).map(f).ok_or(MISSING)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.plan.need(LockKey::Composite(id.raw()), false);
        if let Some(c) = self.overlay.comps.get(&id.raw()) {
            return Ok(f(c));
        }
        let cell = self.world.cells.get(id.raw()).ok_or(MISSING)?.read();
        cell.comp.as_ref().map(f).ok_or(MISSING)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.plan.need(LockKey::Base(id.raw()), false);
        if let Some(b) = self.overlay.bases.get(&id.raw()) {
            return Ok(f(b));
        }
        let b = self.world.bases.get(id.raw()).ok_or(MISSING)?.read();
        Ok(f(&b))
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.plan.need(LockKey::Complex(id.raw()), false);
        if let Some(c) = self.overlay.complexes.get(&id.raw()) {
            return Ok(f(c));
        }
        let c = self.world.complexes.get(id.raw()).ok_or(MISSING)?.read();
        Ok(f(&c))
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.plan.need(LockKey::Composite(owner), false);
        if let Some(d) = self.overlay.docs.get(&id.raw()) {
            return Ok(f(d));
        }
        let cell = self.world.cells.get(owner).ok_or(MISSING)?.read();
        cell.doc.as_ref().map(f).ok_or(MISSING)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.plan.need(LockKey::Composite(owner), true);
        if !self.overlay.parts.contains_key(&id.raw()) {
            let p = self.snapshot(owner, |cell| cell.parts.get(&id.raw()))?;
            self.overlay.parts.insert(id.raw(), p);
        }
        Ok(f(self
            .overlay
            .parts
            .get_mut(&id.raw())
            .expect("just inserted")))
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.plan.need(LockKey::Composite(id.raw()), true);
        if !self.overlay.comps.contains_key(&id.raw()) {
            let c = self.snapshot(id.raw(), |cell| cell.comp.as_ref())?;
            self.overlay.comps.insert(id.raw(), c);
        }
        Ok(f(self
            .overlay
            .comps
            .get_mut(&id.raw())
            .expect("just inserted")))
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        self.plan.need(LockKey::Base(id.raw()), true);
        if !self.overlay.bases.contains_key(&id.raw()) {
            let b = self
                .world
                .bases
                .get(id.raw())
                .ok_or(MISSING)?
                .read()
                .clone();
            self.overlay.bases.insert(id.raw(), b);
        }
        Ok(f(self
            .overlay
            .bases
            .get_mut(&id.raw())
            .expect("just inserted")))
    }

    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        self.plan.need(LockKey::Complex(id.raw()), true);
        if !self.overlay.complexes.contains_key(&id.raw()) {
            let c = self
                .world
                .complexes
                .get(id.raw())
                .ok_or(MISSING)?
                .read()
                .clone();
            self.overlay.complexes.insert(id.raw(), c);
        }
        Ok(f(self
            .overlay
            .complexes
            .get_mut(&id.raw())
            .expect("just inserted")))
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.plan.need(LockKey::Composite(owner), true);
        if !self.overlay.docs.contains_key(&id.raw()) {
            let d = self.snapshot(owner, |cell| cell.doc.as_ref())?;
            self.overlay.docs.insert(id.raw(), d);
        }
        Ok(f(self
            .overlay
            .docs
            .get_mut(&id.raw())
            .expect("just inserted")))
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        let shard = self.world.date_shard_of(id.raw()) as u32;
        self.plan.need(LockKey::DateShard(shard), true);
        self.atomic_mut(id, |p| p.build_date = date)
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        Ok(self.world.atomic_owner.get(&raw).map(|_| AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        Ok(self
            .world
            .composite_ids
            .get(&raw)
            .map(|_| CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        Ok(self.world.base_ids.get(&raw).map(|_| BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        Ok(self
            .world
            .sm
            .complex_index
            .get(&raw)
            .map(|_| ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        Ok(self
            .world
            .by_title
            .get(&title.to_string())
            .map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        // A range spans every date shard; plan them all (read mode), read
        // each momentarily, and restore the global (date, id) order.
        let mut entries: Vec<(i32, u32)> = Vec::new();
        for (s, shard) in self.world.by_date.iter().enumerate() {
            self.plan.need(LockKey::DateShard(s as u32), false);
            shard
                .read()
                .for_range(&(lo, 0), &(hi, u32::MAX), |k, _| entries.push(*k));
        }
        Ok(stmbench7_data::sharded::merge_date_entries(entries))
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        let mut out = Vec::new();
        self.world
            .atomic_owner
            .for_each(|raw, _| out.push(AtomicPartId(*raw)));
        Ok(out)
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let mut out = Vec::new();
        self.world
            .base_ids
            .for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        Ok(pool_capacity_of(&self.world.sm, kind))
    }

    fn create_atomic(
        &mut self,
        _make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        Err(GATED)
    }

    fn create_composite(
        &mut self,
        _make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        Err(GATED)
    }

    fn create_document(
        &mut self,
        _make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        Err(GATED)
    }

    fn create_base(
        &mut self,
        _make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        Err(GATED)
    }

    fn create_complex(
        &mut self,
        _level: u8,
        _make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        Err(GATED)
    }

    fn delete_atomic(&mut self, _id: AtomicPartId) -> TxR<AtomicPart> {
        Err(GATED)
    }

    fn delete_composite(&mut self, _id: CompositePartId) -> TxR<CompositePart> {
        Err(GATED)
    }

    fn delete_document(&mut self, _id: DocumentId) -> TxR<Document> {
        Err(GATED)
    }

    fn delete_base(&mut self, _id: BaseAssemblyId) -> TxR<BaseAssembly> {
        Err(GATED)
    }

    fn delete_complex(&mut self, _id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        Err(GATED)
    }
}

fn pool_capacity_of(sm: &SmState, kind: PoolKind) -> usize {
    let pool = match kind {
        PoolKind::Atomic => &sm.pools.atomic,
        PoolKind::Composite => &sm.pools.composite,
        PoolKind::Document => &sm.pools.document,
        PoolKind::Base => &sm.pools.base,
        PoolKind::Complex => &sm.pools.complex,
    };
    pool.capacity() as usize - pool.live()
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A possibly-held guard over one date-index shard.
type HeldDateShard<'a> = Option<Held<'a, BTree<(i32, u32), ()>>>;

/// Phase-3 transaction: every access resolves against a guard acquired in
/// canonical order from the discovered plan. Accesses outside the plan
/// return [`UNPLANNED`] (an `Abort`), making the backend re-discover.
struct ExecTx<'a> {
    module: &'a Module,
    world: &'a FineWorld,
    /// Held date-index shards, slot `s` for shard `s`.
    date: Vec<HeldDateShard<'a>>,
    bases: HashMap<u32, Held<'a, BaseAssembly>>,
    complexes: HashMap<u32, Held<'a, ComplexAssembly>>,
    cells: HashMap<u32, Held<'a, CompositeCell>>,
    manual: Option<Held<'a, Manual>>,
}

impl<'a> ExecTx<'a> {
    /// Acquires every planned lock, in `BTreeMap` (= canonical) order.
    fn acquire(module: &'a Module, world: &'a FineWorld, plan: &Plan) -> Self {
        let mut tx = ExecTx {
            module,
            world,
            date: (0..world.by_date.len()).map(|_| None).collect(),
            bases: HashMap::new(),
            complexes: HashMap::new(),
            cells: HashMap::new(),
            manual: None,
        };
        for (&key, &write) in &plan.locks {
            match key {
                LockKey::DateShard(s) => {
                    tx.date[s as usize] = Some(held(&world.by_date[s as usize], write));
                }
                LockKey::Base(raw) => {
                    // Planned objects can only vanish through SM
                    // operations, which the held gate excludes.
                    let lock = world.bases.get(raw).expect("planned base exists");
                    tx.bases.insert(raw, held(lock, write));
                }
                LockKey::Complex(raw) => {
                    let lock = world.complexes.get(raw).expect("planned complex exists");
                    tx.complexes.insert(raw, held(lock, write));
                }
                LockKey::Composite(raw) => {
                    let lock = world.cells.get(raw).expect("planned cell exists");
                    tx.cells.insert(raw, held(lock, write));
                }
                LockKey::Manual => {
                    tx.manual = Some(held(&world.manual, write));
                }
            }
        }
        tx
    }

    fn cell(&self, owner: u32) -> TxR<&CompositeCell> {
        self.cells.get(&owner).map(Held::get).ok_or(UNPLANNED)
    }

    fn cell_mut(&mut self, owner: u32) -> TxR<&mut CompositeCell> {
        self.cells.get_mut(&owner).ok_or(UNPLANNED)?.get_mut()
    }

    fn owner_of_atomic(&self, raw: u32) -> TxR<u32> {
        self.world.atomic_owner.get(&raw).copied().ok_or(MISSING)
    }

    fn owner_of_doc(&self, raw: u32) -> TxR<u32> {
        self.world.doc_owner.get(&raw).copied().ok_or(MISSING)
    }
}

fn held<T>(lock: &RwLock<T>, write: bool) -> Held<'_, T> {
    if write {
        Held::Write(lock.write())
    } else {
        Held::Read(lock.read())
    }
}

impl Sb7Tx for ExecTx<'_> {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(self.module))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        Ok(self.manual.as_ref().ok_or(UNPLANNED)?.get().text.len())
    }

    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        Ok(stmbench7_data::text::count_char(
            &self.manual.as_ref().ok_or(UNPLANNED)?.get().text,
            c,
        ))
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        Ok(stmbench7_data::text::first_last_equal(
            &self.manual.as_ref().ok_or(UNPLANNED)?.get().text,
        ))
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        Ok(stmbench7_data::text::swap_manual_case(
            &mut self.manual.as_mut().ok_or(UNPLANNED)?.get_mut()?.text,
        ))
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.cell(owner)?.parts.get(&id.raw()).map(f).ok_or(MISSING)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.cell(id.raw())?.comp.as_ref().map(f).ok_or(MISSING)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        Ok(f(self.bases.get(&id.raw()).ok_or(UNPLANNED)?.get()))
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self.complexes.get(&id.raw()).ok_or(UNPLANNED)?.get()))
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.cell(owner)?.doc.as_ref().map(f).ok_or(MISSING)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.cell_mut(owner)?
            .parts
            .get_mut(&id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.cell_mut(id.raw())?.comp.as_mut().map(f).ok_or(MISSING)
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self
            .bases
            .get_mut(&id.raw())
            .ok_or(UNPLANNED)?
            .get_mut()?))
    }

    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self
            .complexes
            .get_mut(&id.raw())
            .ok_or(UNPLANNED)?
            .get_mut()?))
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.cell_mut(owner)?.doc.as_mut().map(f).ok_or(MISSING)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        let owner = self.owner_of_atomic(id.raw())?;
        // The date index entry moves together with the attribute.
        let old = {
            let part = self
                .cell_mut(owner)?
                .parts
                .get_mut(&id.raw())
                .ok_or(MISSING)?;
            let old = part.build_date;
            part.build_date = date;
            old
        };
        let shard = self.world.date_shard_of(id.raw());
        let index = self.date[shard].as_mut().ok_or(UNPLANNED)?.get_mut()?;
        index.remove(&(old, id.raw()));
        index.insert((date, id.raw()), ());
        Ok(())
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        Ok(self.world.atomic_owner.get(&raw).map(|_| AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        Ok(self
            .world
            .composite_ids
            .get(&raw)
            .map(|_| CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        Ok(self.world.base_ids.get(&raw).map(|_| BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        Ok(self
            .world
            .sm
            .complex_index
            .get(&raw)
            .map(|_| ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        Ok(self
            .world
            .by_title
            .get(&title.to_string())
            .map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        // Every shard must be in the plan (discovery plans them all for
        // range scans); merge the sorted slices back into global order.
        let mut entries: Vec<(i32, u32)> = Vec::new();
        for slot in &self.date {
            let index = slot.as_ref().ok_or(UNPLANNED)?.get();
            index.for_range(&(lo, 0), &(hi, u32::MAX), |k, _| entries.push(*k));
        }
        Ok(stmbench7_data::sharded::merge_date_entries(entries))
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        let mut out = Vec::new();
        self.world
            .atomic_owner
            .for_each(|raw, _| out.push(AtomicPartId(*raw)));
        Ok(out)
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let mut out = Vec::new();
        self.world
            .base_ids
            .for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        Ok(pool_capacity_of(&self.world.sm, kind))
    }

    fn create_atomic(
        &mut self,
        _make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        Err(GATED)
    }

    fn create_composite(
        &mut self,
        _make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        Err(GATED)
    }

    fn create_document(
        &mut self,
        _make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        Err(GATED)
    }

    fn create_base(
        &mut self,
        _make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        Err(GATED)
    }

    fn create_complex(
        &mut self,
        _level: u8,
        _make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        Err(GATED)
    }

    fn delete_atomic(&mut self, _id: AtomicPartId) -> TxR<AtomicPart> {
        Err(GATED)
    }

    fn delete_composite(&mut self, _id: CompositePartId) -> TxR<CompositePart> {
        Err(GATED)
    }

    fn delete_document(&mut self, _id: DocumentId) -> TxR<Document> {
        Err(GATED)
    }

    fn delete_base(&mut self, _id: BaseAssemblyId) -> TxR<BaseAssembly> {
        Err(GATED)
    }

    fn delete_complex(&mut self, _id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        Err(GATED)
    }
}

// ---------------------------------------------------------------------------
// Exclusive execution (SM operations and the fallback path)
// ---------------------------------------------------------------------------

/// Gate-exclusive transaction with direct mutable access; the only one
/// allowed to create and delete objects.
struct FullTx<'a> {
    module: &'a Module,
    world: &'a mut FineWorld,
}

impl FullTx<'_> {
    fn owner_of_atomic(&self, raw: u32) -> TxR<u32> {
        self.world.atomic_owner.get(&raw).copied().ok_or(MISSING)
    }

    fn owner_of_doc(&self, raw: u32) -> TxR<u32> {
        self.world.doc_owner.get(&raw).copied().ok_or(MISSING)
    }

    fn cell_mut(&mut self, owner: u32) -> TxR<&mut CompositeCell> {
        Ok(self.world.cells.get_mut(owner).ok_or(MISSING)?.get_mut())
    }

    /// Removes a cell once its last member is gone.
    fn gc_cell(&mut self, owner: u32) {
        let empty = self
            .world
            .cells
            .get_mut(owner)
            .map(|c| c.get_mut().is_tombstone())
            .unwrap_or(false);
        if empty {
            self.world.cells.remove(owner);
        }
    }
}

impl Sb7Tx for FullTx<'_> {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(self.module))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        Ok(self.world.manual.get_mut().text.len())
    }

    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        Ok(stmbench7_data::text::count_char(
            &self.world.manual.get_mut().text,
            c,
        ))
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        Ok(stmbench7_data::text::first_last_equal(
            &self.world.manual.get_mut().text,
        ))
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        Ok(stmbench7_data::text::swap_manual_case(
            &mut self.world.manual.get_mut().text,
        ))
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.cell_mut(owner)?
            .parts
            .get(&id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.cell_mut(id.raw())?.comp.as_ref().map(f).ok_or(MISSING)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        Ok(f(self
            .world
            .bases
            .get_mut(id.raw())
            .ok_or(MISSING)?
            .get_mut()))
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self
            .world
            .complexes
            .get_mut(id.raw())
            .ok_or(MISSING)?
            .get_mut()))
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.cell_mut(owner)?.doc.as_ref().map(f).ok_or(MISSING)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        let owner = self.owner_of_atomic(id.raw())?;
        self.cell_mut(owner)?
            .parts
            .get_mut(&id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.cell_mut(id.raw())?.comp.as_mut().map(f).ok_or(MISSING)
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self
            .world
            .bases
            .get_mut(id.raw())
            .ok_or(MISSING)?
            .get_mut()))
    }

    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        Ok(f(self
            .world
            .complexes
            .get_mut(id.raw())
            .ok_or(MISSING)?
            .get_mut()))
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let owner = self.owner_of_doc(id.raw())?;
        self.cell_mut(owner)?.doc.as_mut().map(f).ok_or(MISSING)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        let owner = self.owner_of_atomic(id.raw())?;
        let part = self
            .cell_mut(owner)?
            .parts
            .get_mut(&id.raw())
            .ok_or(MISSING)?;
        let old = part.build_date;
        part.build_date = date;
        let shard = self.world.date_shard_of(id.raw());
        let index = self.world.by_date[shard].get_mut();
        index.remove(&(old, id.raw()));
        index.insert((date, id.raw()), ());
        Ok(())
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        Ok(self.world.atomic_owner.get(&raw).map(|_| AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        Ok(self
            .world
            .composite_ids
            .get(&raw)
            .map(|_| CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        Ok(self.world.base_ids.get(&raw).map(|_| BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        Ok(self
            .world
            .sm
            .complex_index
            .get(&raw)
            .map(|_| ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        Ok(self
            .world
            .by_title
            .get(&title.to_string())
            .map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        let mut entries: Vec<(i32, u32)> = Vec::new();
        for lock in &mut self.world.by_date {
            lock.get_mut()
                .for_range(&(lo, 0), &(hi, u32::MAX), |k, _| entries.push(*k));
        }
        Ok(stmbench7_data::sharded::merge_date_entries(entries))
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        let mut out = Vec::new();
        self.world
            .atomic_owner
            .for_each(|raw, _| out.push(AtomicPartId(*raw)));
        Ok(out)
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let mut out = Vec::new();
        self.world
            .base_ids
            .for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        Ok(pool_capacity_of(&self.world.sm, kind))
    }

    fn create_atomic(
        &mut self,
        make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        let Some(raw) = self.world.sm.pools.atomic.alloc() else {
            return Ok(None);
        };
        let id = AtomicPartId(raw);
        let part = make(id);
        debug_assert_eq!(part.id, id);
        let owner = part.owner.raw();
        let shard = self.world.date_shard_of(raw);
        self.world.by_date[shard]
            .get_mut()
            .insert((part.build_date, raw), ());
        self.world.atomic_owner.insert(raw, owner);
        let cell = self
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
        let Some(raw) = self.world.sm.pools.composite.alloc() else {
            return Ok(None);
        };
        let id = CompositePartId(raw);
        let comp = make(id);
        debug_assert_eq!(comp.id, id);
        self.world.composite_ids.insert(raw, ());
        match self.world.cells.get_mut(raw) {
            // A tombstone with this id can only linger within one SM
            // operation (the gate excludes everything else); reuse it.
            Some(cell) => {
                let cell = cell.get_mut();
                debug_assert!(cell.comp.is_none(), "composite id {raw} reused while live");
                cell.comp = Some(comp);
            }
            None => self.world.cells.insert(
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
        let Some(raw) = self.world.sm.pools.document.alloc() else {
            return Ok(None);
        };
        let id = DocumentId(raw);
        let doc = make(id);
        debug_assert_eq!(doc.id, id);
        let owner = doc.part.raw();
        self.world.doc_owner.insert(raw, owner);
        self.world.by_title.insert(doc.title.clone(), raw);
        let cell = self
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
        let Some(raw) = self.world.sm.pools.base.alloc() else {
            return Ok(None);
        };
        let id = BaseAssemblyId(raw);
        let b = make(id);
        debug_assert_eq!(b.id, id);
        self.world.base_ids.insert(raw, ());
        self.world.bases.insert(raw, RwLock::new(b));
        Ok(Some(id))
    }

    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        let Some(raw) = self.world.sm.pools.complex.alloc() else {
            return Ok(None);
        };
        let id = ComplexAssemblyId(raw);
        let c = make(id);
        debug_assert_eq!(c.id, id);
        debug_assert_eq!(c.level, level);
        self.world.sm.complex_index.insert(raw, level);
        self.world.complexes.insert(raw, RwLock::new(c));
        Ok(Some(id))
    }

    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart> {
        let raw = id.raw();
        let owner = self.world.atomic_owner.remove(&raw).ok_or(MISSING)?;
        let part = self
            .cell_mut(owner)?
            .parts
            .remove(&raw)
            .expect("owner table and cell agree");
        let shard = self.world.date_shard_of(raw);
        self.world.by_date[shard]
            .get_mut()
            .remove(&(part.build_date, raw));
        assert!(self.world.sm.pools.atomic.free(raw), "pool drift");
        self.gc_cell(owner);
        Ok(part)
    }

    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart> {
        let raw = id.raw();
        let comp = self.cell_mut(raw)?.comp.take().ok_or(MISSING)?;
        self.world.composite_ids.remove(&raw);
        assert!(self.world.sm.pools.composite.free(raw), "pool drift");
        self.gc_cell(raw);
        Ok(comp)
    }

    fn delete_document(&mut self, id: DocumentId) -> TxR<Document> {
        let raw = id.raw();
        let owner = self.world.doc_owner.remove(&raw).ok_or(MISSING)?;
        let doc = self
            .cell_mut(owner)?
            .doc
            .take()
            .expect("owner table and cell agree");
        self.world.by_title.remove(&doc.title);
        assert!(self.world.sm.pools.document.free(raw), "pool drift");
        self.gc_cell(owner);
        Ok(doc)
    }

    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly> {
        let raw = id.raw();
        let cell = self.world.bases.remove(raw).ok_or(MISSING)?;
        self.world.base_ids.remove(&raw);
        assert!(self.world.sm.pools.base.free(raw), "pool drift");
        Ok(cell.into_inner())
    }

    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        let raw = id.raw();
        let cell = self.world.complexes.remove(raw).ok_or(MISSING)?;
        self.world.sm.complex_index.remove(&raw);
        assert!(self.world.sm.pools.complex.free(raw), "pool drift");
        Ok(cell.into_inner())
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
}
