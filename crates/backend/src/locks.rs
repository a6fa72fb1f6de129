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

use stmbench7_data::btree::BTree;
use stmbench7_data::sharded::MAX_SHARDS;
use stmbench7_data::spec::{AccessSpec, Mode, MAX_LEVELS};
use stmbench7_data::workspace::{
    AtomicGroup, AtomicSlice, BaseGroup, ComplexLevelGroup, CompositeGroup, DirectTx, DocGroup,
    LockGroups, SmState, Store, Workspace,
};
use stmbench7_data::{AtomicPart, Manual, Module, StructureParams, TxErr, TxR};

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

    /// Fills the store during construction, when the index slices are
    /// already populated (they arrive pre-split from the workspace).
    fn create_store_only(&mut self, raw: u32, p: AtomicPart) {
        let local = self.local(raw);
        self.store.insert(local, p);
    }
}

impl AtomicSlice for AtomicLockShard {
    #[inline]
    fn get(&self, raw: u32) -> Option<&AtomicPart> {
        self.store.get(self.local(raw))
    }

    #[inline]
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

    #[inline]
    fn contains(&self, raw: u32) -> bool {
        self.by_id.contains(&raw)
    }

    fn for_date_range(&self, lo: i32, hi: i32, mut f: impl FnMut((i32, u32))) {
        self.by_date
            .for_range(&(lo, 0), &(hi, u32::MAX), |k, _| f(*k));
    }

    fn for_each_id(&self, mut f: impl FnMut(u32)) {
        self.by_id.for_each(|raw, _| f(*raw));
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
/// `shards` record how many slots are actually configured. It implements
/// only the [`LockGroups`] getters; its `Sb7Tx` accessors are the shared
/// body in `stmbench7_data::workspace`.
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

const LEVEL_RANGE: TxErr = TxErr::Invariant("assembly level out of range");

/// Medium's groups are the held guards; a group without a guard, or
/// written under a read guard, is refused with `TxErr::Invariant`.
impl LockGroups for MediumTx<'_> {
    type Atomics = AtomicLockShard;

    #[inline]
    fn module_ref(&self) -> &Module {
        self.module
    }
    #[inline]
    fn module_mut(&mut self) -> TxR<&mut Module> {
        Err(TxErr::Invariant(
            "the module is immutable once a backend is constructed",
        ))
    }
    #[inline]
    fn sm(&self) -> TxR<&SmState> {
        self.sm.get()
    }
    #[inline]
    fn sm_mut(&mut self) -> TxR<&mut SmState> {
        self.sm.get_mut()
    }
    #[inline]
    fn manual(&self) -> TxR<&Manual> {
        self.manual.get()
    }
    #[inline]
    fn manual_mut(&mut self) -> TxR<&mut Manual> {
        self.manual.get_mut()
    }
    #[inline]
    fn bases(&self) -> TxR<&BaseGroup> {
        self.bases.get()
    }
    #[inline]
    fn bases_mut(&mut self) -> TxR<&mut BaseGroup> {
        self.bases.get_mut()
    }
    #[inline]
    fn complex_level(&self, level: u8) -> TxR<&ComplexLevelGroup> {
        self.complexes[..self.complex_levels]
            .get(usize::from(level) - 2)
            .ok_or(LEVEL_RANGE)?
            .get()
    }
    #[inline]
    fn complex_level_mut(&mut self, level: u8) -> TxR<&mut ComplexLevelGroup> {
        self.complexes[..self.complex_levels]
            .get_mut(usize::from(level) - 2)
            .ok_or(LEVEL_RANGE)?
            .get_mut()
    }
    #[inline]
    fn composites(&self) -> TxR<&CompositeGroup> {
        self.composites.get()
    }
    #[inline]
    fn composites_mut(&mut self) -> TxR<&mut CompositeGroup> {
        self.composites.get_mut()
    }
    #[inline]
    fn documents(&self) -> TxR<&DocGroup> {
        self.documents.get()
    }
    #[inline]
    fn documents_mut(&mut self) -> TxR<&mut DocGroup> {
        self.documents.get_mut()
    }
    /// The held shard `raw` routes to; `Invariant` when the operation did
    /// not declare that shard (a narrowing bug — the backend panics on it,
    /// exactly as for undeclared groups).
    #[inline]
    fn atomic_group(&self, raw: u32) -> TxR<&AtomicLockShard> {
        self.atomics[raw as usize % self.shards].get()
    }
    #[inline]
    fn atomic_group_mut(&mut self, raw: u32) -> TxR<&mut AtomicLockShard> {
        self.atomics[raw as usize % self.shards].get_mut()
    }
    fn atomic_groups(&self) -> impl Iterator<Item = TxR<&AtomicLockShard>> {
        self.atomics[..self.shards].iter().map(Guard::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::objects::AssemblyChildren;
    use stmbench7_data::{
        structural_diff, AtomicPartId, BaseAssembly, BaseAssemblyId, ComplexAssembly,
        ComplexAssemblyId, CompositePart, CompositePartId, Document, DocumentId, Mode, Sb7Tx,
    };

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

    /// Calls each of the 18 write-family accessors once, on objects that
    /// exist, and returns every result.
    struct WriteFamily(ComplexAssemblyId);
    impl TxOperation<Vec<(&'static str, TxR<()>)>> for WriteFamily {
        fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<Vec<(&'static str, TxR<()>)>> {
            let (root, part, comp) = (self.0, AtomicPartId(1), CompositePartId(1));
            let (doc, base) = (DocumentId(1), BaseAssemblyId(1));
            Ok(vec![
                ("atomic_mut", tx.atomic_mut(part, |_| ())),
                ("composite_mut", tx.composite_mut(comp, |_| ())),
                ("base_mut", tx.base_mut(base, |_| ())),
                ("complex_mut", tx.complex_mut(root, |_| ())),
                ("document_mut", tx.document_mut(doc, |_| ())),
                (
                    "set_atomic_build_date",
                    tx.set_atomic_build_date(part, 1999),
                ),
                ("set_design_root", tx.set_design_root(root)),
                ("manual_swap_case", tx.manual_swap_case().map(drop)),
                (
                    "create_atomic",
                    tx.create_atomic(|id| AtomicPart {
                        id,
                        kind: 0,
                        build_date: 1000,
                        x: 0,
                        y: 0,
                        to: vec![],
                        owner: comp,
                    })
                    .map(drop),
                ),
                (
                    "create_composite",
                    tx.create_composite(|id| CompositePart {
                        id,
                        kind: 0,
                        build_date: 1000,
                        doc,
                        root_part: part,
                        parts: vec![],
                        used_in: vec![],
                    })
                    .map(drop),
                ),
                (
                    "create_document",
                    tx.create_document(|id| Document {
                        id,
                        title: "Rejected".to_string(),
                        text: String::new(),
                        part: comp,
                    })
                    .map(drop),
                ),
                (
                    "create_base",
                    tx.create_base(|id| BaseAssembly {
                        id,
                        kind: 0,
                        build_date: 1000,
                        parent: root,
                        components: vec![],
                    })
                    .map(drop),
                ),
                (
                    "create_complex",
                    tx.create_complex(2, |id| ComplexAssembly {
                        id,
                        kind: 0,
                        build_date: 1000,
                        parent: Some(root),
                        level: 2,
                        children: AssemblyChildren::Base(vec![]),
                    })
                    .map(drop),
                ),
                ("delete_atomic", tx.delete_atomic(part).map(drop)),
                ("delete_composite", tx.delete_composite(comp).map(drop)),
                ("delete_document", tx.delete_document(doc).map(drop)),
                ("delete_base", tx.delete_base(base).map(drop)),
                ("delete_complex", tx.delete_complex(root).map(drop)),
            ])
        }
    }

    #[test]
    fn read_only_lock_transactions_reject_every_write() {
        // Both implementors of the one shared body: a read-only DirectTx,
        // and MediumTx holding read guards on every group, or no guard.
        let ws = Workspace::build(StructureParams::tiny().with_shards(4), 5);
        let mut op = WriteFamily(ws.module.design_root);
        let all_read = AccessSpec::new()
            .regular()
            .levels(1, MAX_LEVELS as u8, Mode::Read)
            .composites(Mode::Read)
            .atomics(Mode::Read)
            .documents(Mode::Read)
            .manual(Mode::Read);
        let medium = MediumBackend::new(ws.clone());
        let runs = [
            (
                "DirectTx::reading",
                op.run(&mut DirectTx::reading(&ws)).unwrap(),
            ),
            (
                "MediumTx with read guards",
                medium.execute(&all_read, &mut op),
            ),
            (
                "MediumTx with no guard",
                medium.execute(&AccessSpec::new(), &mut op),
            ),
        ];
        for (who, results) in runs {
            assert_eq!(results.len(), 18, "{who}");
            for (accessor, r) in results {
                assert!(
                    matches!(r, Err(TxErr::Invariant(m)) if m != "object not found"),
                    "{who}: {accessor} returned {r:?}"
                );
            }
        }
        structural_diff(&medium.export(), &ws).unwrap();
    }
}
