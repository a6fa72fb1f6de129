//! The lock-based synchronization strategies.
//!
//! * **Sequential** — a single mutex; every operation is exclusive. Used
//!   as the determinism oracle in tests and the single-thread floor in
//!   benches.
//! * **Coarse-grained** — the paper's baseline: one read-write lock
//!   protects the whole structure; read-only operations share it,
//!   updating ones take it exclusively.
//! * **Medium-grained** — the paper's Figure 5: one read-write lock per
//!   assembly level, one for all composite parts, one for all documents,
//!   one for the manual, plus a structure-modification gate (write mode
//!   for SM1–SM8, read mode for everything else). The atomic-part group —
//!   the contention hot spot §5 diagnoses — is split into
//!   `StructureParams::index_shards` lock shards ([`AtomicLockShard`]):
//!   each shard owns the parts whose raw id routes to it *and* that
//!   shard's slices of indexes 1 and 2, so an operation whose
//!   [`AccessSpec::atomic_shards`] is narrowed (the OP1/OP9/OP15 family)
//!   locks only the shards it touches. Locks are always acquired in one
//!   canonical order — gate, levels top-down, composites, atomic shards
//!   ascending, documents, manual — so deadlock is impossible by
//!   construction.

use std::time::Instant;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use stmbench7_obs::{ContentionCounters, ContentionSnapshot, EventKind, Layer, Recorder};

use stmbench7_data::access::PoolKind;
use stmbench7_data::btree::BTree;
use stmbench7_data::sharded::MAX_SHARDS;
use stmbench7_data::spec::{AccessSpec, Mode, MAX_LEVELS};
use stmbench7_data::workspace::{
    AtomicGroup, BaseGroup, ComplexLevelGroup, CompositeGroup, DirectTx, DocGroup, SmState, Store,
    Workspace,
};
use stmbench7_data::{
    AtomicPart, AtomicPartId, BaseAssembly, BaseAssemblyId, ComplexAssembly, ComplexAssemblyId,
    CompositePart, CompositePartId, Document, DocumentId, Manual, Module, Sb7Tx, StructureParams,
    TxErr, TxR,
};

use crate::{Backend, TxOperation};

/// The observability pair a lock backend owns: always-on contention
/// counters plus an (off by default) trace recorder handle.
#[derive(Debug, Default)]
pub(crate) struct LockObs {
    pub recorder: Recorder,
    pub counters: ContentionCounters,
}

impl LockObs {
    /// Timed read acquisition: the uncontended try-path pays no clock
    /// read; a blocked one is counted and traced as a lock-wait span.
    /// `shard` marks atomic-shard locks for conflict attribution.
    fn read<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        name: &'static str,
        shard: bool,
    ) -> RwLockReadGuard<'a, T> {
        match lock.try_read() {
            Some(g) => {
                self.counters.lock_acquired(0, false);
                g
            }
            None => self.read_slow(lock, name, shard),
        }
    }

    #[cold]
    fn read_slow<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        name: &'static str,
        shard: bool,
    ) -> RwLockReadGuard<'a, T> {
        let t0 = Instant::now();
        let g = lock.read();
        self.waited(t0, name, shard);
        g
    }

    /// Timed write acquisition (see [`LockObs::read`]).
    fn write<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        name: &'static str,
        shard: bool,
    ) -> RwLockWriteGuard<'a, T> {
        match lock.try_write() {
            Some(g) => {
                self.counters.lock_acquired(0, false);
                g
            }
            None => self.write_slow(lock, name, shard),
        }
    }

    #[cold]
    fn write_slow<'a, T>(
        &self,
        lock: &'a RwLock<T>,
        name: &'static str,
        shard: bool,
    ) -> RwLockWriteGuard<'a, T> {
        let t0 = Instant::now();
        let g = lock.write();
        self.waited(t0, name, shard);
        g
    }

    fn waited(&self, t0: Instant, name: &'static str, shard: bool) {
        let wait_ns = (t0.elapsed().as_nanos() as u64).max(1);
        self.counters.lock_acquired(wait_ns, shard);
        if self.recorder.is_enabled() {
            let now = self.recorder.now_ns();
            self.recorder.push(
                Layer::Backend,
                EventKind::LockWait,
                name,
                now.saturating_sub(wait_ns),
                wait_ns,
                0,
            );
        }
    }
}

/// Single-mutex backend: fully serialized execution.
pub struct SequentialBackend {
    ws: Mutex<Workspace>,
}

impl SequentialBackend {
    /// Wraps a built workspace.
    pub fn new(ws: Workspace) -> Self {
        SequentialBackend { ws: Mutex::new(ws) }
    }
}

impl Backend for SequentialBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, _spec: &AccessSpec, op: &mut O) -> R {
        let mut ws = self.ws.lock();
        let mut tx = DirectTx::writing(&mut ws);
        op.begin_attempt();
        unwrap_lock_result(op.run(&mut tx))
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn export(&self) -> Workspace {
        self.ws.lock().clone()
    }
}

/// The paper's coarse-grained strategy: one read-write lock.
pub struct CoarseBackend {
    ws: RwLock<Workspace>,
    obs: LockObs,
}

impl CoarseBackend {
    /// Wraps a built workspace.
    pub fn new(ws: Workspace) -> Self {
        CoarseBackend {
            ws: RwLock::new(ws),
            obs: LockObs::default(),
        }
    }

    /// Attaches a trace recorder (builder style, before sharing).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs.recorder = recorder;
        self
    }
}

impl Backend for CoarseBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        if spec.any_write() {
            let mut ws = self.obs.write(&self.ws, "coarse", false);
            let mut tx = DirectTx::writing(&mut ws);
            op.begin_attempt();
            unwrap_lock_result(op.run(&mut tx))
        } else {
            let ws = self.obs.read(&self.ws, "coarse", false);
            let mut tx = DirectTx::reading(&ws);
            op.begin_attempt();
            unwrap_lock_result(op.run(&mut tx))
        }
    }

    fn name(&self) -> &'static str {
        "coarse"
    }

    fn export(&self) -> Workspace {
        self.ws.read().clone()
    }

    fn contention(&self) -> Option<ContentionSnapshot> {
        Some(self.obs.counters.snapshot())
    }
}

pub(crate) fn unwrap_lock_result<R>(r: TxR<R>) -> R {
    match r {
        Ok(v) => v,
        Err(TxErr::Abort) => unreachable!("lock-based transactions cannot abort"),
        Err(TxErr::Invariant(msg)) => panic!("operation violated its access spec: {msg}"),
    }
}

/// One lock shard of the atomic-part group: the parts whose raw id routes
/// here (stored densely at `raw / shards`) plus this shard's slices of
/// index 1 (id) and index 2 (build date — whose `(date, id)` entries
/// route by id, so a date update touches exactly one shard).
pub struct AtomicLockShard {
    shards: usize,
    store: Store<AtomicPart>,
    by_id: BTree<u32, ()>,
    by_date: BTree<(i32, u32), ()>,
}

impl AtomicLockShard {
    fn local(&self, raw: u32) -> u32 {
        raw / self.shards as u32
    }

    fn get(&self, raw: u32) -> Option<&AtomicPart> {
        self.store.get(self.local(raw))
    }

    fn get_mut(&mut self, raw: u32) -> Option<&mut AtomicPart> {
        let local = self.local(raw);
        self.store.get_mut(local)
    }

    fn create(&mut self, p: AtomicPart) {
        let raw = p.id.raw();
        self.by_id.insert(raw, ());
        self.by_date.insert((p.build_date, raw), ());
        let local = self.local(raw);
        self.store.insert(local, p);
    }

    fn delete(&mut self, raw: u32) -> Option<AtomicPart> {
        let local = self.local(raw);
        let p = self.store.remove(local)?;
        self.by_id.remove(&raw);
        self.by_date.remove(&(p.build_date, raw));
        Some(p)
    }

    /// Fills the store during construction, when the index slices are
    /// already populated (they arrive pre-split from the workspace).
    fn create_store_only(&mut self, raw: u32, p: AtomicPart) {
        let local = self.local(raw);
        self.store.insert(local, p);
    }

    fn set_date(&mut self, raw: u32, date: i32) -> bool {
        let local = self.local(raw);
        let Some(p) = self.store.get_mut(local) else {
            return false;
        };
        let old = p.build_date;
        p.build_date = date;
        self.by_date.remove(&(old, raw));
        self.by_date.insert((date, raw), ());
        true
    }
}

/// The paper's medium-grained strategy (Figure 5), with the atomic-part
/// group split into per-shard locks (see module docs).
pub struct MediumBackend {
    params: StructureParams,
    module: Module,
    sm: RwLock<SmState>,
    bases: RwLock<BaseGroup>,
    complexes: Vec<RwLock<ComplexLevelGroup>>,
    composites: RwLock<CompositeGroup>,
    atomics: Vec<RwLock<AtomicLockShard>>,
    documents: RwLock<DocGroup>,
    manual: RwLock<Manual>,
    obs: LockObs,
}

impl MediumBackend {
    /// Partitions a built workspace along the Figure 5 lock groups,
    /// splitting the atomic-part group `params.index_shards` ways.
    pub fn new(ws: Workspace) -> Self {
        let shards = ws.params.effective_shards();
        let local_max = ws.params.max_atomics() / shards as u32;
        let by_id_shards = ws.atomics.by_id.into_shards();
        let by_date_shards = ws.atomics.by_date.into_shards();
        let mut atomics: Vec<AtomicLockShard> = by_id_shards
            .into_iter()
            .zip(by_date_shards)
            .map(|(by_id, by_date)| AtomicLockShard {
                shards,
                store: Store::new(local_max),
                by_id,
                by_date,
            })
            .collect();
        for (raw, part) in ws.atomics.store.into_entries() {
            atomics[raw as usize % shards].create_store_only(raw, part);
        }
        MediumBackend {
            params: ws.params,
            module: ws.module,
            sm: RwLock::new(ws.sm),
            bases: RwLock::new(ws.bases),
            complexes: ws.complexes.into_iter().map(RwLock::new).collect(),
            composites: RwLock::new(ws.composites),
            atomics: atomics.into_iter().map(RwLock::new).collect(),
            documents: RwLock::new(ws.documents),
            manual: RwLock::new(ws.manual),
            obs: LockObs::default(),
        }
    }

    /// Attaches a trace recorder (builder style, before sharing).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs.recorder = recorder;
        self
    }

    /// Number of assembly levels configured.
    fn levels(&self) -> usize {
        self.complexes.len() + 1
    }
}

impl Backend for MediumBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        // Canonical acquisition order (see module docs): the SM gate, then
        // assembly levels top-down, then composites, atomic shards
        // ascending, documents, manual. All operations declare the gate,
        // so it always comes first, which is what isolates SM operations
        // from everything.
        let sm = Guard::acquire(&self.sm, spec.sm, &self.obs, "sm-gate", false);
        // Fixed-size guard arrays: the lock plan lives entirely on the
        // stack, so the hot path allocates nothing per execute.
        let mut complexes: [Guard<'_, ComplexLevelGroup>; MAX_LEVELS - 1] =
            std::array::from_fn(|_| Guard::None);
        let mut bases = Guard::None;
        for level in (1..=self.levels()).rev() {
            let mode = spec.levels[level - 1];
            if level == 1 {
                bases = Guard::acquire(&self.bases, mode, &self.obs, "bases", false);
            } else {
                complexes[level - 2] = Guard::acquire(
                    &self.complexes[level - 2],
                    mode,
                    &self.obs,
                    "complex",
                    false,
                );
            }
        }
        let composites = Guard::acquire(
            &self.composites,
            spec.composites,
            &self.obs,
            "composites",
            false,
        );
        // Per-shard atomic locks: only the declared shards are taken, so
        // narrowed operations on different shards run concurrently.
        let mut atomics: [Guard<'_, AtomicLockShard>; MAX_SHARDS] =
            std::array::from_fn(|_| Guard::None);
        for (s, lock) in self.atomics.iter().enumerate() {
            if spec.atomic_shards.contains(s) {
                atomics[s] = Guard::acquire(lock, spec.atomics, &self.obs, "shard", true);
            }
        }
        let documents = Guard::acquire(
            &self.documents,
            spec.documents,
            &self.obs,
            "documents",
            false,
        );
        let manual = Guard::acquire(&self.manual, spec.manual, &self.obs, "manual", false);

        let mut tx = MediumTx {
            module: &self.module,
            sm,
            bases,
            complexes,
            complex_levels: self.complexes.len(),
            composites,
            atomics,
            shards: self.atomics.len(),
            documents,
            manual,
        };
        op.begin_attempt();
        let r = op.run(&mut tx);
        drop(tx);
        unwrap_lock_result(r)
    }

    fn name(&self) -> &'static str {
        "medium"
    }

    fn export(&self) -> Workspace {
        let mut atomics =
            AtomicGroup::new(self.params.max_atomics(), self.params.effective_shards());
        for shard in &self.atomics {
            let shard = shard.read();
            for (_, part) in shard.store.iter() {
                atomics.create(part.clone());
            }
        }
        Workspace {
            params: self.params.clone(),
            module: self.module.clone(),
            manual: self.manual.read().clone(),
            sm: self.sm.read().clone(),
            bases: self.bases.read().clone(),
            complexes: self.complexes.iter().map(|g| g.read().clone()).collect(),
            composites: self.composites.read().clone(),
            atomics,
            documents: self.documents.read().clone(),
        }
    }

    fn contention(&self) -> Option<ContentionSnapshot> {
        Some(self.obs.counters.snapshot())
    }
}

/// A possibly-held read-write lock guard.
enum Guard<'a, T> {
    None,
    Read(RwLockReadGuard<'a, T>),
    Write(RwLockWriteGuard<'a, T>),
}

impl<'a, T> Guard<'a, T> {
    fn acquire(
        lock: &'a RwLock<T>,
        mode: Mode,
        obs: &LockObs,
        name: &'static str,
        shard: bool,
    ) -> Self {
        match mode {
            Mode::None => Guard::None,
            Mode::Read => Guard::Read(obs.read(lock, name, shard)),
            Mode::Write => Guard::Write(obs.write(lock, name, shard)),
        }
    }

    fn get(&self) -> TxR<&T> {
        match self {
            Guard::None => Err(TxErr::Invariant("group accessed without its lock")),
            Guard::Read(g) => Ok(g),
            Guard::Write(g) => Ok(g),
        }
    }

    fn get_mut(&mut self) -> TxR<&mut T> {
        match self {
            Guard::None => Err(TxErr::Invariant("group accessed without its lock")),
            Guard::Read(_) => Err(TxErr::Invariant("group written under a read lock")),
            Guard::Write(g) => Ok(g),
        }
    }
}

/// The medium-grained transaction: a set of held guards (one per atomic
/// shard for the atomic-part group). The guard sets are fixed-capacity
/// stack arrays sized for the workspace maxima; `complex_levels` and
/// `shards` record how many slots are actually configured.
pub struct MediumTx<'a> {
    module: &'a Module,
    sm: Guard<'a, SmState>,
    bases: Guard<'a, BaseGroup>,
    complexes: [Guard<'a, ComplexLevelGroup>; MAX_LEVELS - 1],
    complex_levels: usize,
    composites: Guard<'a, CompositeGroup>,
    atomics: [Guard<'a, AtomicLockShard>; MAX_SHARDS],
    shards: usize,
    documents: Guard<'a, DocGroup>,
    manual: Guard<'a, Manual>,
}

const MISSING: TxErr = TxErr::Invariant("object not found");

impl MediumTx<'_> {
    /// The held shard an atomic raw id routes to; `Invariant` when the
    /// operation did not declare that shard (a narrowing bug — the
    /// backend panics on it, exactly as for undeclared groups).
    fn atomic_shard(&self, raw: u32) -> TxR<&AtomicLockShard> {
        self.atomics[raw as usize % self.shards].get()
    }

    /// Mutable variant of [`MediumTx::atomic_shard`].
    fn atomic_shard_mut(&mut self, raw: u32) -> TxR<&mut AtomicLockShard> {
        let shard = raw as usize % self.shards;
        self.atomics[shard].get_mut()
    }

    fn complex_group(&self, level: u8) -> TxR<&ComplexLevelGroup> {
        self.complexes[..self.complex_levels]
            .get(usize::from(level) - 2)
            .ok_or(TxErr::Invariant("assembly level out of range"))?
            .get()
    }

    fn complex_group_mut(&mut self, level: u8) -> TxR<&mut ComplexLevelGroup> {
        self.complexes[..self.complex_levels]
            .get_mut(usize::from(level) - 2)
            .ok_or(TxErr::Invariant("assembly level out of range"))?
            .get_mut()
    }

    fn complex_level_of(&self, raw: u32) -> TxR<u8> {
        self.sm
            .get()?
            .complex_index
            .get(&raw)
            .copied()
            .ok_or(MISSING)
    }
}

impl Sb7Tx for MediumTx<'_> {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(self.module))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        Ok(self.manual.get()?.text.len())
    }

    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        Ok(stmbench7_data::text::count_char(
            &self.manual.get()?.text,
            c,
        ))
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        Ok(stmbench7_data::text::first_last_equal(
            &self.manual.get()?.text,
        ))
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        Ok(stmbench7_data::text::swap_manual_case(
            &mut self.manual.get_mut()?.text,
        ))
    }

    fn set_design_root(&mut self, _root: ComplexAssemblyId) -> TxR<()> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        self.atomic_shard(id.raw())?
            .get(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.composites
            .get()?
            .store
            .get(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.bases.get()?.store.get(id.raw()).map(f).ok_or(MISSING)
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        let level = self.complex_level_of(id.raw())?;
        self.complex_group(level)?
            .store
            .get(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        self.documents
            .get()?
            .store
            .get(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        self.atomic_shard_mut(id.raw())?
            .get_mut(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        self.composites
            .get_mut()?
            .store
            .get_mut(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        self.bases
            .get_mut()?
            .store
            .get_mut(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R> {
        let level = self.complex_level_of(id.raw())?;
        self.complex_group_mut(level)?
            .store
            .get_mut(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        self.documents
            .get_mut()?
            .store
            .get_mut(id.raw())
            .map(f)
            .ok_or(MISSING)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        if self.atomic_shard_mut(id.raw())?.set_date(id.raw(), date) {
            Ok(())
        } else {
            Err(MISSING)
        }
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        Ok(self
            .atomic_shard(raw)?
            .by_id
            .get(&raw)
            .map(|_| AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        Ok(self
            .composites
            .get()?
            .by_id
            .get(&raw)
            .map(|_| CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        Ok(self
            .bases
            .get()?
            .by_id
            .get(&raw)
            .map(|_| BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        Ok(self
            .sm
            .get()?
            .complex_index
            .get(&raw)
            .map(|_| ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        Ok(self
            .documents
            .get()?
            .by_title
            .get(&title.to_string())
            .map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        // Range scans span all shards; each per-shard slice is sorted, so
        // one global sort restores the monolithic `(date, id)` order.
        let mut entries: Vec<(i32, u32)> = Vec::new();
        for shard in &self.atomics[..self.shards] {
            shard
                .get()?
                .by_date
                .for_range(&(lo, 0), &(hi, u32::MAX), |k, _| entries.push(*k));
        }
        Ok(stmbench7_data::sharded::merge_date_entries(entries))
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        let mut out = Vec::new();
        for shard in &self.atomics[..self.shards] {
            shard.get()?.by_id.for_each(|raw, _| out.push(*raw));
        }
        out.sort_unstable();
        Ok(out.into_iter().map(AtomicPartId).collect())
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let group = self.bases.get()?;
        let mut out = Vec::with_capacity(group.store.live());
        group
            .by_id
            .for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        let pools = &self.sm.get()?.pools;
        let pool = match kind {
            PoolKind::Atomic => &pools.atomic,
            PoolKind::Composite => &pools.composite,
            PoolKind::Document => &pools.document,
            PoolKind::Base => &pools.base,
            PoolKind::Complex => &pools.complex,
        };
        Ok(pool.capacity() as usize - pool.live())
    }

    fn create_atomic(
        &mut self,
        make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>> {
        let Some(raw) = self.sm.get_mut()?.pools.atomic.alloc() else {
            return Ok(None);
        };
        let id = AtomicPartId(raw);
        let part = make(id);
        self.atomic_shard_mut(raw)?.create(part);
        Ok(Some(id))
    }

    fn create_composite(
        &mut self,
        make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        let Some(raw) = self.sm.get_mut()?.pools.composite.alloc() else {
            return Ok(None);
        };
        let id = CompositePartId(raw);
        self.composites.get_mut()?.create(make(id));
        Ok(Some(id))
    }

    fn create_document(
        &mut self,
        make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        let Some(raw) = self.sm.get_mut()?.pools.document.alloc() else {
            return Ok(None);
        };
        let id = DocumentId(raw);
        self.documents.get_mut()?.create(make(id));
        Ok(Some(id))
    }

    fn create_base(
        &mut self,
        make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        let Some(raw) = self.sm.get_mut()?.pools.base.alloc() else {
            return Ok(None);
        };
        let id = BaseAssemblyId(raw);
        self.bases.get_mut()?.create(make(id));
        Ok(Some(id))
    }

    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        let Some(raw) = self.sm.get_mut()?.pools.complex.alloc() else {
            return Ok(None);
        };
        let id = ComplexAssemblyId(raw);
        self.sm.get_mut()?.complex_index.insert(raw, level);
        self.complex_group_mut(level)?.store.insert(raw, make(id));
        Ok(Some(id))
    }

    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart> {
        let p = self
            .atomic_shard_mut(id.raw())?
            .delete(id.raw())
            .ok_or(MISSING)?;
        assert!(self.sm.get_mut()?.pools.atomic.free(id.raw()), "pool drift");
        Ok(p)
    }

    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart> {
        let c = self.composites.get_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(
            self.sm.get_mut()?.pools.composite.free(id.raw()),
            "pool drift"
        );
        Ok(c)
    }

    fn delete_document(&mut self, id: DocumentId) -> TxR<Document> {
        let d = self.documents.get_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(
            self.sm.get_mut()?.pools.document.free(id.raw()),
            "pool drift"
        );
        Ok(d)
    }

    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly> {
        let b = self.bases.get_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(self.sm.get_mut()?.pools.base.free(id.raw()), "pool drift");
        Ok(b)
    }

    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        let level = self.complex_level_of(id.raw())?;
        let c = self
            .complex_group_mut(level)?
            .store
            .remove(id.raw())
            .ok_or(MISSING)?;
        let sm = self.sm.get_mut()?;
        sm.complex_index.remove(&id.raw());
        assert!(sm.pools.complex.free(id.raw()), "pool drift");
        Ok(c)
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

    fn read_spec() -> AccessSpec {
        AccessSpec::new().regular()
    }

    fn manual_write_spec() -> AccessSpec {
        AccessSpec::new().regular().manual(Mode::Write)
    }

    #[test]
    fn all_lock_backends_run_simple_ops() {
        let ws = Workspace::build(StructureParams::tiny(), 5);
        let root = ws.module.design_root.raw();
        let seq = SequentialBackend::new(ws.clone());
        let coarse = CoarseBackend::new(ws.clone());
        let medium = MediumBackend::new(ws);
        assert_eq!(seq.execute(&read_spec(), &mut ReadRoot), root);
        assert_eq!(coarse.execute(&read_spec(), &mut ReadRoot), root);
        assert_eq!(medium.execute(&read_spec(), &mut ReadRoot), root);
        assert!(seq.execute(&manual_write_spec(), &mut SwapManual) > 0);
        assert!(coarse.execute(&manual_write_spec(), &mut SwapManual) > 0);
        assert!(medium.execute(&manual_write_spec(), &mut SwapManual) > 0);
    }

    #[test]
    #[should_panic(expected = "access spec")]
    fn medium_catches_undeclared_writes() {
        let ws = Workspace::build(StructureParams::tiny(), 5);
        let medium = MediumBackend::new(ws);
        // SwapManual writes the manual but declares nothing.
        medium.execute(&read_spec(), &mut SwapManual);
    }

    #[test]
    #[should_panic(expected = "access spec")]
    fn coarse_catches_writes_under_read_mode() {
        let ws = Workspace::build(StructureParams::tiny(), 5);
        let coarse = CoarseBackend::new(ws);
        // The spec requests no writes, so coarse takes a read lock and the
        // DirectTx is read-only.
        coarse.execute(&read_spec(), &mut SwapManual);
    }

    /// Reads atomic part `raw` through index 1.
    struct ReadAtomic(u32);
    impl TxOperation<i64> for ReadAtomic {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<i64> {
            let id = tx.lookup_atomic(self.0)?.expect("part exists");
            tx.atomic(id, |p| i64::from(p.x) + i64::from(p.y))
        }
    }

    #[test]
    fn medium_narrowed_shard_spec_suffices() {
        use stmbench7_data::ShardSet;
        let shards = 8usize;
        let ws = Workspace::build(StructureParams::tiny().with_shards(shards), 5);
        let medium = MediumBackend::new(ws);
        for raw in 1..=16u32 {
            let spec = AccessSpec::new()
                .regular()
                .atomics(Mode::Read)
                .atomics_shards(ShardSet::of(raw as usize % shards));
            medium.execute(&spec, &mut ReadAtomic(raw));
        }
        stmbench7_data::validate(&medium.export()).unwrap();
    }

    #[test]
    #[should_panic(expected = "access spec")]
    fn medium_catches_access_outside_the_declared_shard() {
        use stmbench7_data::ShardSet;
        let shards = 8usize;
        let ws = Workspace::build(StructureParams::tiny().with_shards(shards), 5);
        let medium = MediumBackend::new(ws);
        // Part 1 routes to shard 1; declaring only shard 2 must trip the
        // same undeclared-access panic as an undeclared group.
        let spec = AccessSpec::new()
            .regular()
            .atomics(Mode::Read)
            .atomics_shards(ShardSet::of(2));
        medium.execute(&spec, &mut ReadAtomic(1));
    }

    #[test]
    fn export_round_trips() {
        let ws = Workspace::build(StructureParams::tiny(), 9);
        let medium = MediumBackend::new(ws.clone());
        let out = medium.export();
        stmbench7_data::validate(&out).unwrap();
        assert_eq!(out.module.design_root, ws.module.design_root);
        assert_eq!(out.atomics.store.live(), ws.atomics.store.live());
    }

    #[test]
    fn medium_sharded_export_equals_unsharded() {
        // The shard split is pure representation: building at 8 shards
        // and exporting must reproduce the monolithic structure.
        let mono = Workspace::build(StructureParams::tiny(), 9);
        let ws = Workspace::build(StructureParams::tiny().with_shards(8), 9);
        let out = MediumBackend::new(ws).export();
        stmbench7_data::validate(&out).unwrap();
        assert_eq!(out.atomics.store.live(), mono.atomics.store.live());
        assert_eq!(out.atomics.by_id.len(), mono.atomics.by_id.len());
        let collect = |ws: &Workspace| {
            let mut v = Vec::new();
            ws.atomics.by_date.for_each(|k, _| v.push(*k));
            v
        };
        assert_eq!(collect(&out), collect(&mono));
    }

    #[test]
    fn medium_parallel_readers_and_writers() {
        let ws = Workspace::build(StructureParams::tiny().with_shards(4), 11);
        let medium = std::sync::Arc::new(MediumBackend::new(ws));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&medium);
                s.spawn(move || {
                    for _ in 0..50 {
                        m.execute(&read_spec(), &mut ReadRoot);
                        m.execute(&manual_write_spec(), &mut SwapManual);
                    }
                });
            }
        });
        stmbench7_data::validate(&medium.export()).unwrap();
    }
}
