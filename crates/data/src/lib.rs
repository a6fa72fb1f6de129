//! The OO7/STMBench7 shared data structure.
//!
//! This crate implements everything the paper calls "the core code" of
//! STMBench7: the object graph derived from the OO7 benchmark (Figure 1 of
//! the paper), the six indexes of Table 1, the id pools that bound structure
//! growth, text generation for documents and the manual, and — crucially —
//! the [`access::Sb7Tx`] trait through which *all* operations touch shared
//! state. The core code contains no concurrency control whatsoever; locking
//! strategies and STM runtimes implement `Sb7Tx` in the
//! `stmbench7-backend` crate, mirroring the paper's design where strategies
//! are merged with the synchronization-free core at compile time.
//!
//! # Layout
//!
//! * [`ids`] — typed object ids and bounded id pools,
//! * [`objects`] — the seven object kinds (module, manual, assemblies,
//!   composite parts, atomic parts with embedded connections, documents),
//! * [`params`] — structure-size presets (`paper_full`, `standard`,
//!   `small`, `tiny`),
//! * [`btree`] — the B+tree used for every index,
//! * [`sharded`] — [`sharded::ShardedIndex`], N per-shard B+trees behind
//!   one map API with order-preserving merged enumeration; the unit of
//!   per-shard locking in the backends (`--shards`),
//! * [`text`] — document/manual text generation and the search/replace
//!   operations the paper specifies,
//! * [`access`] — the `Sb7Tx` trait, transaction error types and the
//!   [`spec::AccessSpec`] lock declarations,
//! * [`workspace`] — the plain (synchronization-free) workspace, its lock
//!   groups and the one `Sb7Tx` body over them ([`workspace::LockGroups`]),
//!   which [`workspace::DirectTx`] (sequential, coarse, `flatcomb`, `rcl`,
//!   the builder) and the medium-grained backend's transaction share,
//! * [`builder`] — deterministic construction of the initial structure,
//! * [`mod@validate`] — structural invariant checking used throughout the
//!   test suite.

pub mod access;
pub mod btree;
pub mod builder;
pub mod ids;
pub mod objects;
pub mod params;
pub mod sharded;
pub mod spec;
pub mod text;
pub mod validate;
pub mod workspace;

pub use access::{OpOutcome, PoolKind, Sb7Tx, TxErr, TxR};
pub use builder::{build, BuildStats};
pub use ids::{
    AtomicPartId, BaseAssemblyId, ComplexAssemblyId, CompositePartId, DocumentId, IdPool,
};
pub use objects::{
    AtomicPart, BaseAssembly, ComplexAssembly, CompositePart, Connection, Document, Manual, Module,
};
pub use params::StructureParams;
pub use sharded::{ShardKey, ShardedIndex};
pub use spec::{AccessSpec, Mode, ShardSet};
pub use validate::{structural_diff, validate, Census};
pub use workspace::{DirectTx, Workspace};
