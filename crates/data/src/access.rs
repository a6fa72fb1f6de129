//! The synchronization-free access interface to the STMBench7 structure.
//!
//! Every one of the 45 operations is written once, generically, against
//! [`Sb7Tx`]. Backends give the trait different meanings:
//!
//! * lock-based backends resolve accessors directly against the stores
//!   they hold guards for;
//! * STM backends resolve them against transactional cells, recording
//!   read/write sets and possibly aborting ([`TxErr::Abort`]).
//!
//! This mirrors the paper's requirement that "the core code of STMBench7
//! does not contain any concurrency control mechanisms" so that an
//! arbitrary STM framework (or lock strategy) can be merged in.

use crate::ids::{AtomicPartId, BaseAssemblyId, ComplexAssemblyId, CompositePartId, DocumentId};
use crate::objects::{AtomicPart, BaseAssembly, ComplexAssembly, CompositePart, Document, Module};

/// Why a transaction could not proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxErr {
    /// The backend detected a conflict; the operation will be re-executed.
    /// Lock-based backends never produce this.
    Abort,
    /// An object that must exist was absent, or a write was attempted in a
    /// read-only context. Under locks this is a hard bug (the executor
    /// panics); under STM it is treated as a conflict symptom and retried.
    Invariant(&'static str),
}

/// Shorthand for transactional results.
pub type TxR<T> = Result<T, TxErr>;

/// The benchmark-level outcome of one operation.
///
/// The paper distinguishes operations that *complete* from operations that
/// *fail* benignly (e.g. a random index lookup missing); both are reported
/// separately by the harness. `Done` carries the operation's return value
/// (e.g. number of atomic parts visited) so computations cannot be
/// optimized away and tests can assert exact results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation completed; the payload is its specified return value.
    Done(i64),
    /// The operation failed benignly, with the reason the spec names.
    Fail(&'static str),
}

impl OpOutcome {
    /// True for `Done`.
    pub fn is_done(&self) -> bool {
        matches!(self, OpOutcome::Done(_))
    }

    /// The payload of `Done`, if any.
    pub fn value(&self) -> Option<i64> {
        match self {
            OpOutcome::Done(v) => Some(*v),
            OpOutcome::Fail(_) => None,
        }
    }
}

/// Identifies an id pool for capacity queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    Atomic,
    Composite,
    Document,
    Base,
    Complex,
}

/// Transactional access to the STMBench7 structure.
///
/// All object accessors are closure-based: the callee resolves the object
/// (possibly recording an STM read or write) and hands a borrow to the
/// closure. Accessors taking an id return `Err(TxErr::Invariant)` when the
/// object is absent — operations reach objects through index lookups and
/// links, so absence is either an STM conflict artifact (retried) or a bug
/// (panics under locks).
///
/// Index-maintaining mutations (`set_atomic_build_date`, the `create_*` /
/// `delete_*` families) exist so that plain attribute writers
/// (`atomic_mut` etc.) never have to touch an index: operations must not
/// modify indexed attributes through the plain `_mut` accessors.
pub trait Sb7Tx {
    // ----- module and manual ------------------------------------------------

    /// Reads the module (immutable after build).
    fn module<R>(&mut self, f: impl FnOnce(&Module) -> R) -> TxR<R>;

    /// Total characters of manual text.
    fn manual_text_len(&mut self) -> TxR<usize>;

    /// Counts occurrences of `c` in the manual (OP4).
    ///
    /// Manual access is expressed as whole operations rather than a
    /// `&Manual` closure so that backends that split the manual into
    /// chunks (the paper's §5 remedy) can evaluate them chunk-wise.
    fn manual_count_char(&mut self, c: char) -> TxR<usize>;

    /// Whether the manual's first and last characters match (OP5).
    fn manual_first_last_equal(&mut self) -> TxR<bool>;

    /// Swaps `'I'` ↔ `'i'` throughout the manual, returning the number of
    /// characters changed (OP11).
    fn manual_swap_case(&mut self) -> TxR<usize>;

    /// Records the design root after the builder constructs the tree.
    fn set_design_root(&mut self, root: ComplexAssemblyId) -> TxR<()>;

    // ----- object reads -----------------------------------------------------

    /// Reads an atomic part.
    fn atomic<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&AtomicPart) -> R) -> TxR<R>;

    /// Reads a composite part.
    fn composite<R>(&mut self, id: CompositePartId, f: impl FnOnce(&CompositePart) -> R) -> TxR<R>;

    /// Reads a base assembly.
    fn base<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&BaseAssembly) -> R) -> TxR<R>;

    /// Reads a complex assembly.
    fn complex<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&ComplexAssembly) -> R,
    ) -> TxR<R>;

    /// Reads a document.
    fn document<R>(&mut self, id: DocumentId, f: impl FnOnce(&Document) -> R) -> TxR<R>;

    // ----- object writes (non-indexed attributes only) ----------------------

    /// Updates an atomic part. The build date must not be changed here; use
    /// [`Sb7Tx::set_atomic_build_date`].
    fn atomic_mut<R>(&mut self, id: AtomicPartId, f: impl FnOnce(&mut AtomicPart) -> R) -> TxR<R>;

    /// Updates a composite part (build date, bags).
    fn composite_mut<R>(
        &mut self,
        id: CompositePartId,
        f: impl FnOnce(&mut CompositePart) -> R,
    ) -> TxR<R>;

    /// Updates a base assembly (build date — not indexed — and bags).
    fn base_mut<R>(&mut self, id: BaseAssemblyId, f: impl FnOnce(&mut BaseAssembly) -> R)
        -> TxR<R>;

    /// Updates a complex assembly (build date, children).
    fn complex_mut<R>(
        &mut self,
        id: ComplexAssemblyId,
        f: impl FnOnce(&mut ComplexAssembly) -> R,
    ) -> TxR<R>;

    /// Updates a document's text (the title is indexed and must not change).
    fn document_mut<R>(&mut self, id: DocumentId, f: impl FnOnce(&mut Document) -> R) -> TxR<R>;

    /// Updates an atomic part's build date *and* the build-date index
    /// (T3a/T3b/T3c, OP15). A date outside
    /// [`crate::StructureParams::date_domain`] is refused with
    /// [`crate::dates::DATE_OUT_OF_DOMAIN`] before anything changes.
    fn set_atomic_build_date(&mut self, id: AtomicPartId, date: i32) -> TxR<()>;

    // ----- index lookups (Table 1) ------------------------------------------

    /// Index 1: atomic part id → atomic part.
    fn lookup_atomic(&mut self, raw: u32) -> TxR<Option<AtomicPartId>>;

    /// Index 3: composite part id → composite part.
    fn lookup_composite(&mut self, raw: u32) -> TxR<Option<CompositePartId>>;

    /// Index 5: base assembly id → base assembly.
    fn lookup_base(&mut self, raw: u32) -> TxR<Option<BaseAssemblyId>>;

    /// Index 6: complex assembly id → complex assembly.
    fn lookup_complex(&mut self, raw: u32) -> TxR<Option<ComplexAssemblyId>>;

    /// Index 4: document title → document.
    fn lookup_document(&mut self, title: &str) -> TxR<Option<DocumentId>>;

    /// Index 2 range scan: ids of atomic parts with build date in
    /// `[lo, hi]` (OP2, OP3, OP10).
    fn atomics_in_date_range(&mut self, lo: i32, hi: i32) -> TxR<Vec<AtomicPartId>>;

    /// Index 1 scan (Q7): calls `f` on every atomic part once and returns
    /// how many it visited. The visit order is the body's own and carries
    /// no meaning: the lock-world body walks each held shard's slot store,
    /// which is index 1, while the STM and fine-grained bodies read their
    /// id index's keys and then open each part in id order.
    fn for_each_atomic(&mut self, f: impl FnMut(&AtomicPart)) -> TxR<usize>;

    /// All base assembly ids in index order (ST5).
    fn all_base_ids(&mut self) -> TxR<Vec<BaseAssemblyId>>;

    // ----- pools, creation, deletion ----------------------------------------

    /// Remaining capacity of an id pool; structure modifications check this
    /// *before* creating anything, so a mid-operation failure never leaves
    /// partial changes behind under non-rollback (lock) backends.
    fn pool_capacity(&mut self, kind: PoolKind) -> TxR<usize>;

    /// Creates an atomic part; `make` receives the allocated id. Returns
    /// `None` when the pool is exhausted. A part dated outside
    /// [`crate::StructureParams::date_domain`] is refused with
    /// [`crate::dates::DATE_OUT_OF_DOMAIN`] before anything changes.
    fn create_atomic(
        &mut self,
        make: impl FnOnce(AtomicPartId) -> AtomicPart,
    ) -> TxR<Option<AtomicPartId>>;

    /// Creates a composite part (updates index 3).
    fn create_composite(
        &mut self,
        make: impl FnOnce(CompositePartId) -> CompositePart,
    ) -> TxR<Option<CompositePartId>>;

    /// Creates a document (updates index 4).
    fn create_document(
        &mut self,
        make: impl FnOnce(DocumentId) -> Document,
    ) -> TxR<Option<DocumentId>>;

    /// Creates a base assembly (updates index 5).
    fn create_base(
        &mut self,
        make: impl FnOnce(BaseAssemblyId) -> BaseAssembly,
    ) -> TxR<Option<BaseAssemblyId>>;

    /// Creates a complex assembly at `level` (updates index 6).
    fn create_complex(
        &mut self,
        level: u8,
        make: impl FnOnce(ComplexAssemblyId) -> ComplexAssembly,
    ) -> TxR<Option<ComplexAssemblyId>>;

    /// Deletes an atomic part, returning it (SM2).
    fn delete_atomic(&mut self, id: AtomicPartId) -> TxR<AtomicPart>;

    /// Deletes a composite part, returning it (SM2).
    fn delete_composite(&mut self, id: CompositePartId) -> TxR<CompositePart>;

    /// Deletes a document, returning it (SM2).
    fn delete_document(&mut self, id: DocumentId) -> TxR<Document>;

    /// Deletes a base assembly, returning it (SM6, SM8).
    fn delete_base(&mut self, id: BaseAssemblyId) -> TxR<BaseAssembly>;

    /// Deletes a complex assembly, returning it (SM8).
    fn delete_complex(&mut self, id: ComplexAssemblyId) -> TxR<ComplexAssembly>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        assert!(OpOutcome::Done(3).is_done());
        assert_eq!(OpOutcome::Done(3).value(), Some(3));
        assert!(!OpOutcome::Fail("x").is_done());
        assert_eq!(OpOutcome::Fail("x").value(), None);
    }

    #[test]
    fn txerr_is_comparable() {
        assert_eq!(TxErr::Abort, TxErr::Abort);
        assert_ne!(TxErr::Abort, TxErr::Invariant("m"));
    }
}
