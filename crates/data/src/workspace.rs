//! The plain, synchronization-free workspace and its lock groups.
//!
//! Data is partitioned exactly along the paper's medium-grained lock
//! boundaries (Figure 5): one group per assembly level, one for all
//! composite parts, one for all atomic parts, one for all documents, one
//! for the manual, plus the structure-modification state (id pools and the
//! complex-assembly id index) that only gate-exclusive operations mutate.
//!
//! [`Sb7Tx`] is implemented once here, over [`LockGroups`] — a getter per
//! group. [`DirectTx`] borrows a whole workspace and backs the sequential,
//! coarse-grained, `flatcomb` and `rcl` strategies and the builder; the
//! medium-grained backend's transaction holds one lock guard per group and
//! runs the same accessor bodies.

use crate::access::{PoolKind, Sb7Tx, TxErr, TxR};
use crate::ids::{
    AtomicPartId, BaseAssemblyId, ComplexAssemblyId, CompositePartId, DocumentId, IdPool,
};
use crate::objects::{
    AtomicPart, BaseAssembly, ComplexAssembly, CompositePart, Document, Manual, Module,
};
use crate::params::StructureParams;
use crate::sharded::ShardedIndex;
use crate::text;

/// A dense slot store keyed directly by raw object id.
///
/// Id pools bound the largest id that can ever exist, so a dense vector is
/// both the fastest and the simplest representation.
#[derive(Clone, Debug)]
pub struct Store<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Store<T> {
    /// Creates a store able to hold raw ids `1..=max_raw`.
    pub fn new(max_raw: u32) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(max_raw as usize + 1, || None);
        Store { slots, live: 0 }
    }

    /// Returns the object with the given raw id.
    pub fn get(&self, raw: u32) -> Option<&T> {
        self.slots.get(raw as usize).and_then(|s| s.as_ref())
    }

    /// Returns the object mutably.
    pub fn get_mut(&mut self, raw: u32) -> Option<&mut T> {
        self.slots.get_mut(raw as usize).and_then(|s| s.as_mut())
    }

    /// Inserts an object at a fresh slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or out of range — ids come from
    /// bounded pools, so either indicates a backend bug.
    pub fn insert(&mut self, raw: u32, value: T) {
        let slot = self
            .slots
            .get_mut(raw as usize)
            .unwrap_or_else(|| panic!("store: raw id {raw} out of range"));
        assert!(slot.is_none(), "store: slot {raw} already occupied");
        *slot = Some(value);
        self.live += 1;
    }

    /// Removes and returns the object at `raw`.
    pub fn remove(&mut self, raw: u32) -> Option<T> {
        let removed = self.slots.get_mut(raw as usize).and_then(|s| s.take());
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Number of live objects.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Iterates `(raw_id, object)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i as u32, t)))
    }

    /// Consumes the store, yielding owned `(raw_id, object)` pairs in id
    /// order — lets backends repartition a workspace without cloning
    /// every object (50 M atomic parts at paper scale).
    pub fn into_entries(self) -> impl Iterator<Item = (u32, T)> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (i as u32, t)))
    }
}

/// Group 1 of Figure 5: base assemblies (assembly level 1) and their id
/// index (index 5 of Table 1).
#[derive(Clone, Debug)]
pub struct BaseGroup {
    pub store: Store<BaseAssembly>,
    pub by_id: ShardedIndex<u32, ()>,
}

impl BaseGroup {
    fn new(max_raw: u32, shards: usize) -> Self {
        BaseGroup {
            store: Store::new(max_raw),
            by_id: ShardedIndex::new(shards),
        }
    }

    /// Inserts a freshly created base assembly.
    pub fn create(&mut self, b: BaseAssembly) {
        self.by_id.insert(b.id.raw(), ());
        self.store.insert(b.id.raw(), b);
    }

    /// Removes a base assembly and its index entry.
    pub fn delete(&mut self, raw: u32) -> Option<BaseAssembly> {
        let b = self.store.remove(raw)?;
        self.by_id.remove(&raw);
        Some(b)
    }
}

/// One complex-assembly level (levels 2..=7 of Figure 5). Lookup by id
/// goes through the shared complex-assembly index in [`SmState`].
#[derive(Clone, Debug)]
pub struct ComplexLevelGroup {
    pub store: Store<ComplexAssembly>,
}

/// The composite-part group: stores, bags and index 3.
#[derive(Clone, Debug)]
pub struct CompositeGroup {
    pub store: Store<CompositePart>,
    pub by_id: ShardedIndex<u32, ()>,
}

impl CompositeGroup {
    fn new(max_raw: u32, shards: usize) -> Self {
        CompositeGroup {
            store: Store::new(max_raw),
            by_id: ShardedIndex::new(shards),
        }
    }

    /// Inserts a freshly created composite part.
    pub fn create(&mut self, c: CompositePart) {
        self.by_id.insert(c.id.raw(), ());
        self.store.insert(c.id.raw(), c);
    }

    /// Removes a composite part and its index entry.
    pub fn delete(&mut self, raw: u32) -> Option<CompositePart> {
        let c = self.store.remove(raw)?;
        self.by_id.remove(&raw);
        Some(c)
    }
}

/// The atomic-part group: store plus indexes 1 (id) and 2 (build date).
#[derive(Clone, Debug)]
pub struct AtomicGroup {
    pub store: Store<AtomicPart>,
    pub by_id: ShardedIndex<u32, ()>,
    /// Duplicate dates are modeled with composite `(date, id)` keys;
    /// entries route by the *id* component (see [`crate::sharded`]), so
    /// a part's date entry lives in its own shard.
    pub by_date: ShardedIndex<(i32, u32), ()>,
}

impl AtomicGroup {
    /// Creates an empty group with `shards`-way sharded indexes.
    pub fn new(max_raw: u32, shards: usize) -> Self {
        AtomicGroup {
            store: Store::new(max_raw),
            by_id: ShardedIndex::new(shards),
            by_date: ShardedIndex::new(shards),
        }
    }
}

/// One atomic-part lock group: the whole [`AtomicGroup`] here, one lock
/// shard in the medium-grained backend. Store and indexes 1 and 2 stay
/// coherent under every mutation.
pub trait AtomicSlice {
    /// The part with this raw id.
    fn get(&self, raw: u32) -> Option<&AtomicPart>;
    /// The part with this raw id, mutably (never change its build date here).
    fn get_mut(&mut self, raw: u32) -> Option<&mut AtomicPart>;
    /// Inserts a freshly created part into the store and both indexes.
    fn create(&mut self, p: AtomicPart);
    /// Removes a part from the store and both indexes.
    fn delete(&mut self, raw: u32) -> Option<AtomicPart>;
    /// Changes a part's build date, keeping index 2 coherent.
    fn set_date(&mut self, raw: u32, date: i32) -> bool;
    /// Whether index 1 holds this raw id.
    fn contains(&self, raw: u32) -> bool;
    /// Visits this slice's index-2 entries with dates in `[lo, hi]`;
    /// [`crate::sharded::merge_date_entries`] restores the global order.
    fn for_date_range(&self, lo: i32, hi: i32, f: impl FnMut((i32, u32)));
    /// Visits this slice's index-1 entries.
    fn for_each_id(&self, f: impl FnMut(u32));
}

impl AtomicSlice for AtomicGroup {
    #[inline]
    fn get(&self, raw: u32) -> Option<&AtomicPart> {
        self.store.get(raw)
    }

    #[inline]
    fn get_mut(&mut self, raw: u32) -> Option<&mut AtomicPart> {
        self.store.get_mut(raw)
    }

    fn create(&mut self, p: AtomicPart) {
        self.by_id.insert(p.id.raw(), ());
        self.by_date.insert((p.build_date, p.id.raw()), ());
        self.store.insert(p.id.raw(), p);
    }

    fn delete(&mut self, raw: u32) -> Option<AtomicPart> {
        let p = self.store.remove(raw)?;
        self.by_id.remove(&raw);
        self.by_date.remove(&(p.build_date, raw));
        Some(p)
    }

    fn set_date(&mut self, raw: u32, date: i32) -> bool {
        let Some(p) = self.store.get_mut(raw) else {
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
        for shard in self.by_date.shards() {
            shard.for_range(&(lo, 0), &(hi, u32::MAX), |k, _| f(*k));
        }
    }

    fn for_each_id(&self, mut f: impl FnMut(u32)) {
        for shard in self.by_id.shards() {
            shard.for_each(|raw, _| f(*raw));
        }
    }
}

/// The document group: store plus the title index (index 4).
#[derive(Clone, Debug)]
pub struct DocGroup {
    pub store: Store<Document>,
    pub by_title: ShardedIndex<String, u32>,
}

impl DocGroup {
    fn new(max_raw: u32, shards: usize) -> Self {
        DocGroup {
            store: Store::new(max_raw),
            by_title: ShardedIndex::new(shards),
        }
    }

    /// Inserts a freshly created document.
    pub fn create(&mut self, d: Document) {
        self.by_title.insert(d.title.clone(), d.id.raw());
        self.store.insert(d.id.raw(), d);
    }

    /// Removes a document and its title-index entry.
    pub fn delete(&mut self, raw: u32) -> Option<Document> {
        let d = self.store.remove(raw)?;
        self.by_title.remove(&d.title);
        Some(d)
    }
}

/// All five id pools. Only touched during the build and by SM operations
/// (which hold the gate exclusively).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pools {
    pub atomic: IdPool,
    pub composite: IdPool,
    pub document: IdPool,
    pub base: IdPool,
    pub complex: IdPool,
}

/// State protected by the structure-modification gate: the pools and the
/// complex-assembly id index (index 6), which doubles as the directory
/// mapping a complex assembly's id to its level. Non-SM operations hold
/// the gate in read mode and may therefore read it freely; only SM
/// operations (gate in write mode) mutate it.
#[derive(Clone, Debug)]
pub struct SmState {
    pub pools: Pools,
    /// Complex-assembly raw id → level.
    pub complex_index: ShardedIndex<u32, u8>,
}

/// The entire STMBench7 structure, partitioned along Figure 5's lock
/// groups, with no synchronization of its own.
#[derive(Clone, Debug)]
pub struct Workspace {
    pub params: StructureParams,
    pub module: Module,
    pub manual: Manual,
    pub sm: SmState,
    pub bases: BaseGroup,
    /// Complex levels 2..=assembly_levels; slot `l - 2` holds level `l`.
    pub complexes: Vec<ComplexLevelGroup>,
    pub composites: CompositeGroup,
    pub atomics: AtomicGroup,
    pub documents: DocGroup,
}

impl Workspace {
    /// Creates an empty workspace (module and manual in place, no
    /// assemblies or parts). Use [`crate::builder::build`] to populate it.
    pub fn new(params: StructureParams) -> Self {
        params.check().expect("invalid structure parameters");
        let levels = usize::from(params.assembly_levels);
        let shards = params.effective_shards();
        let manual = Manual {
            title: "Manual for module #1".to_string(),
            text: text::manual_text(1, params.manual_size),
        };
        let module = Module {
            id: 1,
            kind: 0,
            build_date: params.min_date,
            design_root: ComplexAssemblyId(0),
        };
        Workspace {
            module,
            manual,
            sm: SmState {
                pools: Pools {
                    atomic: IdPool::new(params.max_atomics()),
                    composite: IdPool::new(params.max_comps()),
                    document: IdPool::new(params.max_comps()),
                    base: IdPool::new(params.max_bases()),
                    complex: IdPool::new(params.max_complexes()),
                },
                complex_index: ShardedIndex::new(shards),
            },
            bases: BaseGroup::new(params.max_bases(), shards),
            complexes: (2..=levels)
                .map(|_| ComplexLevelGroup {
                    store: Store::new(params.max_complexes()),
                })
                .collect(),
            composites: CompositeGroup::new(params.max_comps(), shards),
            atomics: AtomicGroup::new(params.max_atomics(), shards),
            documents: DocGroup::new(params.max_comps(), shards),
            params,
        }
    }

    /// Builds a fully populated workspace deterministically from a seed.
    pub fn build(params: StructureParams, seed: u64) -> Self {
        let mut ws = Workspace::new(params.clone());
        let mut tx = DirectTx::writing(&mut ws);
        crate::builder::build(&mut tx, &params, seed).expect("direct build cannot abort");
        ws
    }

    /// Group holding complex assemblies of `level` (2-based).
    pub fn complex_level(&self, level: u8) -> &ComplexLevelGroup {
        &self.complexes[usize::from(level) - 2]
    }

    /// Mutable variant of [`Workspace::complex_level`].
    pub fn complex_level_mut(&mut self, level: u8) -> &mut ComplexLevelGroup {
        &mut self.complexes[usize::from(level) - 2]
    }

    /// Looks up a complex assembly across levels via index 6.
    pub fn complex_ref(&self, raw: u32) -> Option<&ComplexAssembly> {
        let level = *self.sm.complex_index.get(&raw)?;
        self.complex_level(level).store.get(raw)
    }
}

/// Access to the Figure 5 lock groups: a read getter and a `TxR`-returning
/// write getter per group. [`Sb7Tx`] is implemented once over this trait,
/// so every strategy that keeps the groups as plain values — borrowed
/// whole by [`DirectTx`], or held group by group under the medium-grained
/// backend's lock guards — runs the same accessor bodies. A getter
/// returns `TxErr::Invariant` when the transaction may not touch its
/// group in that mode.
pub trait LockGroups {
    /// How this transaction stores the atomic-part group.
    type Atomics: AtomicSlice;

    /// The module; every transaction may read it.
    fn module_ref(&self) -> &Module;
    /// The module, for the builder's [`Sb7Tx::set_design_root`].
    fn module_mut(&mut self) -> TxR<&mut Module>;
    /// Id pools and index 6.
    fn sm(&self) -> TxR<&SmState>;
    fn sm_mut(&mut self) -> TxR<&mut SmState>;
    fn manual(&self) -> TxR<&Manual>;
    fn manual_mut(&mut self) -> TxR<&mut Manual>;
    fn bases(&self) -> TxR<&BaseGroup>;
    fn bases_mut(&mut self) -> TxR<&mut BaseGroup>;
    /// Complex assemblies of `level` (2-based).
    fn complex_level(&self, level: u8) -> TxR<&ComplexLevelGroup>;
    fn complex_level_mut(&mut self, level: u8) -> TxR<&mut ComplexLevelGroup>;
    fn composites(&self) -> TxR<&CompositeGroup>;
    fn composites_mut(&mut self) -> TxR<&mut CompositeGroup>;
    fn documents(&self) -> TxR<&DocGroup>;
    fn documents_mut(&mut self) -> TxR<&mut DocGroup>;
    /// The atomic-part group holding raw id `raw`.
    fn atomic_group(&self, raw: u32) -> TxR<&Self::Atomics>;
    fn atomic_group_mut(&mut self, raw: u32) -> TxR<&mut Self::Atomics>;
    /// Every atomic-part group, for index scans.
    fn atomic_groups(&self) -> impl Iterator<Item = TxR<&Self::Atomics>>;

    /// The level of complex assembly `raw`, through index 6.
    #[inline]
    fn level_of(&self, raw: u32) -> TxR<u8> {
        self.sm()?.complex_index.get(&raw).copied().ok_or(MISSING)
    }
}

/// How a [`DirectTx`] borrows the workspace.
enum WsRef<'a> {
    Read(&'a Workspace),
    Write(&'a mut Workspace),
}

/// The [`LockGroups`] of a borrowed workspace, with no synchronization of
/// its own. Sequential, `flatcomb`, `rcl` and the builder use the writing
/// form; the coarse-grained backend uses the reading form for operations
/// whose [`crate::AccessSpec`] requests no writes.
pub struct DirectTx<'a> {
    ws: WsRef<'a>,
}

impl<'a> DirectTx<'a> {
    /// A transaction that may read and write.
    pub fn writing(ws: &'a mut Workspace) -> Self {
        DirectTx {
            ws: WsRef::Write(ws),
        }
    }

    /// A read-only transaction; write accessors return
    /// `TxErr::Invariant`.
    pub fn reading(ws: &'a Workspace) -> Self {
        DirectTx {
            ws: WsRef::Read(ws),
        }
    }

    #[inline]
    fn ws(&self) -> &Workspace {
        match &self.ws {
            WsRef::Read(w) => w,
            WsRef::Write(w) => w,
        }
    }

    #[inline]
    fn ws_mut(&mut self) -> TxR<&mut Workspace> {
        match &mut self.ws {
            WsRef::Read(_) => Err(TxErr::Invariant(
                "write accessor used in a read-only transaction",
            )),
            WsRef::Write(w) => Ok(w),
        }
    }
}

impl LockGroups for DirectTx<'_> {
    type Atomics = AtomicGroup;

    #[inline]
    fn module_ref(&self) -> &Module {
        &self.ws().module
    }
    #[inline]
    fn module_mut(&mut self) -> TxR<&mut Module> {
        Ok(&mut self.ws_mut()?.module)
    }
    #[inline]
    fn sm(&self) -> TxR<&SmState> {
        Ok(&self.ws().sm)
    }
    #[inline]
    fn sm_mut(&mut self) -> TxR<&mut SmState> {
        Ok(&mut self.ws_mut()?.sm)
    }
    #[inline]
    fn manual(&self) -> TxR<&Manual> {
        Ok(&self.ws().manual)
    }
    #[inline]
    fn manual_mut(&mut self) -> TxR<&mut Manual> {
        Ok(&mut self.ws_mut()?.manual)
    }
    #[inline]
    fn bases(&self) -> TxR<&BaseGroup> {
        Ok(&self.ws().bases)
    }
    #[inline]
    fn bases_mut(&mut self) -> TxR<&mut BaseGroup> {
        Ok(&mut self.ws_mut()?.bases)
    }
    #[inline]
    fn complex_level(&self, level: u8) -> TxR<&ComplexLevelGroup> {
        Ok(self.ws().complex_level(level))
    }
    #[inline]
    fn complex_level_mut(&mut self, level: u8) -> TxR<&mut ComplexLevelGroup> {
        Ok(self.ws_mut()?.complex_level_mut(level))
    }
    #[inline]
    fn composites(&self) -> TxR<&CompositeGroup> {
        Ok(&self.ws().composites)
    }
    #[inline]
    fn composites_mut(&mut self) -> TxR<&mut CompositeGroup> {
        Ok(&mut self.ws_mut()?.composites)
    }
    #[inline]
    fn documents(&self) -> TxR<&DocGroup> {
        Ok(&self.ws().documents)
    }
    #[inline]
    fn documents_mut(&mut self) -> TxR<&mut DocGroup> {
        Ok(&mut self.ws_mut()?.documents)
    }
    #[inline]
    fn atomic_group(&self, _raw: u32) -> TxR<&AtomicGroup> {
        Ok(&self.ws().atomics)
    }
    #[inline]
    fn atomic_group_mut(&mut self, _raw: u32) -> TxR<&mut AtomicGroup> {
        Ok(&mut self.ws_mut()?.atomics)
    }
    fn atomic_groups(&self) -> impl Iterator<Item = TxR<&AtomicGroup>> {
        std::iter::once(Ok(&self.ws().atomics))
    }
}

const MISSING: TxErr = TxErr::Invariant("object not found");

/// The one `Sb7Tx` body of every strategy that keeps the Figure 5 groups
/// as plain values (see [`LockGroups`]).
impl<G: LockGroups> Sb7Tx for G {
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R> {
        Ok(f(self.module_ref()))
    }

    fn manual_text_len(&mut self) -> TxR<usize> {
        Ok(self.manual()?.text.len())
    }

    fn manual_count_char(&mut self, c: char) -> TxR<usize> {
        Ok(text::count_char(&self.manual()?.text, c))
    }

    fn manual_first_last_equal(&mut self) -> TxR<bool> {
        Ok(text::first_last_equal(&self.manual()?.text))
    }

    fn manual_swap_case(&mut self) -> TxR<usize> {
        Ok(text::swap_manual_case(&mut self.manual_mut()?.text))
    }

    fn set_design_root(&mut self, root: ComplexAssemblyId) -> TxR<()> {
        self.module_mut()?.design_root = root;
        Ok(())
    }

    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R> {
        let raw = id.raw();
        self.atomic_group(raw)?.get(raw).map(f).ok_or(MISSING)
    }

    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R> {
        self.composites()?.store.get(id.raw()).map(f).ok_or(MISSING)
    }

    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R> {
        self.bases()?.store.get(id.raw()).map(f).ok_or(MISSING)
    }

    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R> {
        let level = self.level_of(id.raw())?;
        let group = self.complex_level(level)?;
        group.store.get(id.raw()).map(f).ok_or(MISSING)
    }

    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R> {
        self.documents()?.store.get(id.raw()).map(f).ok_or(MISSING)
    }

    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R> {
        let raw = id.raw();
        self.atomic_group_mut(raw)?
            .get_mut(raw)
            .map(f)
            .ok_or(MISSING)
    }

    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R> {
        let group = self.composites_mut()?;
        group.store.get_mut(id.raw()).map(f).ok_or(MISSING)
    }

    fn base_mut<R>(
        &mut self,
        id: BaseAssemblyId,
        f: impl FnOnce(&mut BaseAssembly) -> R,
    ) -> TxR<R> {
        self.bases_mut()?
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
        let level = self.level_of(id.raw())?;
        let group = self.complex_level_mut(level)?;
        group.store.get_mut(id.raw()).map(f).ok_or(MISSING)
    }

    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R> {
        let group = self.documents_mut()?;
        group.store.get_mut(id.raw()).map(f).ok_or(MISSING)
    }

    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()> {
        let raw = id.raw();
        let found = self.atomic_group_mut(raw)?.set_date(raw, date);
        found.then_some(()).ok_or(MISSING)
    }

    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>> {
        let found = self.atomic_group(raw)?.contains(raw);
        Ok(found.then_some(AtomicPartId(raw)))
    }

    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>> {
        let found = self.composites()?.by_id.contains(&raw);
        Ok(found.then_some(CompositePartId(raw)))
    }

    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>> {
        let found = self.bases()?.by_id.contains(&raw);
        Ok(found.then_some(BaseAssemblyId(raw)))
    }

    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>> {
        let found = self.sm()?.complex_index.contains(&raw);
        Ok(found.then_some(ComplexAssemblyId(raw)))
    }

    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>> {
        let group = self.documents()?;
        Ok(group
            .by_title
            .get(&title.to_string())
            .map(|raw| DocumentId(*raw)))
    }

    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>> {
        let mut entries = Vec::new();
        for group in self.atomic_groups() {
            group?.for_date_range(lo, hi, |k| entries.push(k));
        }
        Ok(crate::sharded::merge_date_entries(entries))
    }

    fn all_atomic_ids(&mut self) -> TxR<Vec<AtomicPartId>> {
        let mut out = Vec::new();
        for group in self.atomic_groups() {
            group?.for_each_id(|raw| out.push(AtomicPartId(raw)));
        }
        out.sort_unstable();
        Ok(out)
    }

    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>> {
        let group = self.bases()?;
        let mut out = Vec::with_capacity(group.store.live());
        group
            .by_id
            .for_each(|raw, _| out.push(BaseAssemblyId(*raw)));
        Ok(out)
    }

    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize> {
        let pools = &self.sm()?.pools;
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
        let Some(raw) = self.sm_mut()?.pools.atomic.alloc() else {
            return Ok(None);
        };
        let id = AtomicPartId(raw);
        let part = make(id);
        debug_assert_eq!(part.id, id);
        self.atomic_group_mut(raw)?.create(part);
        Ok(Some(id))
    }

    fn create_composite(
        &mut self,
        make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>> {
        let Some(raw) = self.sm_mut()?.pools.composite.alloc() else {
            return Ok(None);
        };
        let id = CompositePartId(raw);
        let part = make(id);
        debug_assert_eq!(part.id, id);
        self.composites_mut()?.create(part);
        Ok(Some(id))
    }

    fn create_document(
        &mut self,
        make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>> {
        let Some(raw) = self.sm_mut()?.pools.document.alloc() else {
            return Ok(None);
        };
        let id = DocumentId(raw);
        let doc = make(id);
        debug_assert_eq!(doc.id, id);
        self.documents_mut()?.create(doc);
        Ok(Some(id))
    }

    fn create_base(
        &mut self,
        make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>> {
        let Some(raw) = self.sm_mut()?.pools.base.alloc() else {
            return Ok(None);
        };
        let id = BaseAssemblyId(raw);
        let b = make(id);
        debug_assert_eq!(b.id, id);
        self.bases_mut()?.create(b);
        Ok(Some(id))
    }

    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>> {
        let sm = self.sm_mut()?;
        let Some(raw) = sm.pools.complex.alloc() else {
            return Ok(None);
        };
        sm.complex_index.insert(raw, level);
        let id = ComplexAssemblyId(raw);
        let c = make(id);
        debug_assert_eq!(c.id, id);
        debug_assert_eq!(c.level, level);
        self.complex_level_mut(level)?.store.insert(raw, c);
        Ok(Some(id))
    }

    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart> {
        let raw = id.raw();
        let p = self.atomic_group_mut(raw)?.delete(raw).ok_or(MISSING)?;
        assert!(self.sm_mut()?.pools.atomic.free(raw), "pool drift");
        Ok(p)
    }

    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart> {
        let c = self.composites_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(self.sm_mut()?.pools.composite.free(id.raw()), "pool drift");
        Ok(c)
    }

    fn delete_document(&mut self, id: DocumentId) -> TxR<Document> {
        let d = self.documents_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(self.sm_mut()?.pools.document.free(id.raw()), "pool drift");
        Ok(d)
    }

    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly> {
        let b = self.bases_mut()?.delete(id.raw()).ok_or(MISSING)?;
        assert!(self.sm_mut()?.pools.base.free(id.raw()), "pool drift");
        Ok(b)
    }

    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly> {
        let level = self.level_of(id.raw())?;
        let group = self.complex_level_mut(level)?;
        let c = group.store.remove(id.raw()).ok_or(MISSING)?;
        let sm = self.sm_mut()?;
        sm.complex_index.remove(&id.raw());
        assert!(sm.pools.complex.free(id.raw()), "pool drift");
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::AssemblyChildren;

    #[test]
    fn store_insert_get_remove() {
        let mut s: Store<u32> = Store::new(10);
        s.insert(3, 30);
        assert_eq!(s.get(3), Some(&30));
        assert_eq!(s.live(), 1);
        assert_eq!(s.remove(3), Some(30));
        assert_eq!(s.get(3), None);
        assert_eq!(s.live(), 0);
        assert_eq!(s.remove(3), None);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn store_double_insert_panics() {
        let mut s: Store<u32> = Store::new(10);
        s.insert(3, 30);
        s.insert(3, 31);
    }

    #[test]
    fn atomic_group_indexes_follow_dates() {
        // Four-way sharded: the routing must be invisible to the group API.
        let mut g = AtomicGroup::new(100, 4);
        let in_date_range = |g: &AtomicGroup, lo, hi| {
            let mut entries = Vec::new();
            g.for_date_range(lo, hi, |k| entries.push(k));
            crate::sharded::merge_date_entries(entries)
        };
        for i in 1..=10u32 {
            g.create(AtomicPart {
                id: AtomicPartId(i),
                kind: 0,
                build_date: 1990 + (i as i32 % 3),
                x: 0,
                y: 0,
                to: vec![],
                owner: CompositePartId(1),
            });
        }
        assert_eq!(in_date_range(&g, 1990, 1990).len(), 3); // ids 3, 6, 9
        assert!(g.set_date(3, 1995));
        assert_eq!(in_date_range(&g, 1990, 1990).len(), 2);
        assert_eq!(in_date_range(&g, 1995, 1995), vec![AtomicPartId(3)]);
        let p = g.delete(3).unwrap();
        assert_eq!(p.build_date, 1995);
        assert_eq!(in_date_range(&g, 1995, 1995).len(), 0);
        assert!(!g.contains(3));
    }

    #[test]
    fn create_and_delete_complex_keeps_index_coherent() {
        let mut ws = Workspace::new(StructureParams::tiny());
        let mut tx = DirectTx::writing(&mut ws);
        let id = tx
            .create_complex(2, |id| ComplexAssembly {
                id,
                kind: 0,
                build_date: 1500,
                parent: None,
                level: 2,
                children: AssemblyChildren::Base(vec![]),
            })
            .unwrap()
            .unwrap();
        assert_eq!(tx.lookup_complex(id.raw()).unwrap(), Some(id));
        let c = tx.delete_complex(id).unwrap();
        assert_eq!(c.id, id);
        assert_eq!(tx.lookup_complex(id.raw()).unwrap(), None);
        // The freed id is recycled.
        let id2 = tx
            .create_complex(2, |id| ComplexAssembly {
                id,
                kind: 0,
                build_date: 1500,
                parent: None,
                level: 2,
                children: AssemblyChildren::Base(vec![]),
            })
            .unwrap()
            .unwrap();
        assert_eq!(id2, id);
    }

    #[test]
    fn pool_capacity_reflects_allocations() {
        let mut ws = Workspace::new(StructureParams::tiny());
        let max = ws.params.max_atomics() as usize;
        let mut tx = DirectTx::writing(&mut ws);
        assert_eq!(tx.pool_capacity(PoolKind::Atomic).unwrap(), max);
        tx.create_atomic(|id| AtomicPart {
            id,
            kind: 0,
            build_date: 1000,
            x: 0,
            y: 0,
            to: vec![],
            owner: CompositePartId(1),
        })
        .unwrap()
        .unwrap();
        assert_eq!(tx.pool_capacity(PoolKind::Atomic).unwrap(), max - 1);
    }
}
