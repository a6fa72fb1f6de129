//! STMBench7 in Rust — a reproduction of Guerraoui, Kapałka and Vitek,
//! *"STMBench7: A Benchmark for Software Transactional Memory"*
//! (EuroSys 2007).
//!
//! This facade crate re-exports the whole workspace: the data structure,
//! the STM runtimes, the synchronization backends (including
//! [`AnyBackend`], the single dispatchable type over every strategy), the
//! benchmark core, and the [`lab`] experiment harness used by the
//! `stmbench7 lab` subcommand; [`cli`] is the binary's flag table and
//! argument parser.
//!
//! # Quickstart
//!
//! ```
//! use stmbench7::data::{StructureParams, Workspace};
//! use stmbench7::backend::{Backend, CoarseBackend};
//! use stmbench7::core::{run_benchmark, BenchConfig, WorkloadType};
//!
//! let params = StructureParams::tiny();
//! let ws = Workspace::build(params.clone(), 42);
//! let backend = CoarseBackend::new(ws);
//! let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 100, 1);
//! let report = run_benchmark(&backend, &params, &cfg);
//! assert_eq!(report.total_started(), 100);
//! ```

pub mod cli;

pub use stmbench7_backend as backend;
pub use stmbench7_core as core;
pub use stmbench7_data as data;
pub use stmbench7_lab as lab;
pub use stmbench7_net as net;
pub use stmbench7_obs as obs;
pub use stmbench7_service as service;
pub use stmbench7_stm as stm;

pub use stmbench7_backend::{strategy_catalog, AnyBackend, BackendChoice};

/// Parses a structure-size preset name (`tiny`, `small`, `standard`,
/// `paper-full`).
pub fn parse_preset(s: &str) -> Option<stmbench7_data::StructureParams> {
    stmbench7_data::StructureParams::parse(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert!(parse_preset("tiny").is_some());
        assert!(parse_preset("small").is_some());
        assert!(parse_preset("standard").is_some());
        assert!(parse_preset("bogus").is_none());
    }

    #[test]
    fn preset_names_round_trip() {
        for name in ["tiny", "small", "standard", "paper-full"] {
            let params = parse_preset(name).unwrap();
            assert_eq!(params.preset_name(), Some(name));
        }
    }

    #[test]
    fn facade_reexports_choice_types() {
        assert_eq!(BackendChoice::parse("coarse"), Some(BackendChoice::Coarse));
        assert_eq!(strategy_catalog().len(), 13);
    }
}
