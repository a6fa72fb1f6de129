//! Runtime backend selection: [`BackendChoice`] names a strategy the way
//! the CLI's `-g` flag does, and [`AnyBackend`] dispatches over every
//! implementation so harnesses can hold "some backend" without generics.
//!
//! This lives in the backend crate (not the facade) so that the lab
//! harness, the sweep binaries and the CLI all share one strategy
//! vocabulary without depending on each other.

use stmbench7_data::{AccessSpec, Workspace};
use stmbench7_obs::{ContentionSnapshot, Recorder};
use stmbench7_stm::astm::AstmConfig;
use stmbench7_stm::tl2::Tl2Config;
use stmbench7_stm::{ContentionManager, StatsSnapshot};

use crate::stm::Granularity;
use crate::{
    AstmBackend, Backend, CoarseBackend, CombiningStats, DedicatedServerBackend, FineBackend,
    FlatCombiningBackend, MediumBackend, NorecBackend, SequentialBackend, StmBackend, Tl2Backend,
    TxOperation,
};

/// Which synchronization strategy to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// One mutex, one thread at a time — the determinism oracle.
    Sequential,
    /// One read-write lock over everything (the paper's coarse strategy).
    Coarse,
    /// SM gate + per-group read-write locks (the paper's Figure 5).
    Medium,
    /// Per-object locking with the discover/sort/acquire cycle — the
    /// "ultimate baseline" the paper names as future work.
    Fine,
    /// Flat combining: the workspace-lock holder executes every published
    /// operation — one lock hand-off per batch, not per operation.
    FlatCombining,
    /// RCL-style delegation: a dedicated server thread drains a
    /// submission queue; the combiner role never moves.
    DedicatedServer,
    /// The paper's system under test.
    Astm {
        /// Monolithic or sharded transactional-variable representation.
        granularity: Granularity,
        /// The contention manager arbitrating conflicting transactions.
        cm: ContentionManager,
        /// DSTM-style visible reads (ablation of the invisible-read
        /// pathology); the paper's configuration is `false`.
        visible: bool,
    },
    /// The §5 remedy class (TL2/LSA-style).
    Tl2 {
        /// Monolithic or sharded transactional-variable representation.
        granularity: Granularity,
    },
    /// The metadata-free remedy class (NOrec-style: global sequence
    /// lock, value-based validation).
    Norec {
        /// Monolithic or sharded transactional-variable representation.
        granularity: Granularity,
    },
}

impl BackendChoice {
    /// The paper's system under test, as §4 ran it: monolithic ASTM,
    /// invisible reads, the Polka contention manager (`-g astm`).
    pub const ASTM_PAPER: BackendChoice = BackendChoice::Astm {
        granularity: Granularity::Monolithic,
        cm: ContentionManager::Polka,
        visible: false,
    };

    /// Parses a `-g` argument (`coarse`, `medium`, `sequential`, `astm`,
    /// `tl2`, plus `-sharded` suffixes).
    pub fn parse(s: &str) -> Option<BackendChoice> {
        Some(match s {
            "sequential" | "seq" => BackendChoice::Sequential,
            "coarse" => BackendChoice::Coarse,
            "medium" => BackendChoice::Medium,
            "fine" => BackendChoice::Fine,
            "flatcomb" => BackendChoice::FlatCombining,
            "rcl" => BackendChoice::DedicatedServer,
            "astm" => BackendChoice::ASTM_PAPER,
            "astm-sharded" => BackendChoice::Astm {
                granularity: Granularity::Sharded,
                cm: ContentionManager::Polka,
                visible: false,
            },
            "astm-visible" => BackendChoice::Astm {
                granularity: Granularity::Monolithic,
                cm: ContentionManager::Polka,
                visible: true,
            },
            // Not in the CLI catalog, but needed so every constructible
            // ASTM variant has a distinct, round-tripping key.
            "astm-sharded-visible" => BackendChoice::Astm {
                granularity: Granularity::Sharded,
                cm: ContentionManager::Polka,
                visible: true,
            },
            "tl2" => BackendChoice::Tl2 {
                granularity: Granularity::Monolithic,
            },
            "tl2-sharded" => BackendChoice::Tl2 {
                granularity: Granularity::Sharded,
            },
            "norec" => BackendChoice::Norec {
                granularity: Granularity::Monolithic,
            },
            "norec-sharded" => BackendChoice::Norec {
                granularity: Granularity::Sharded,
            },
            _ => return None,
        })
    }

    /// The canonical `-g` spelling of this choice — stable across runs,
    /// used as the cell key in lab results. Non-default contention
    /// managers keep the base name (the CLI composes them via `--cm`).
    pub fn key(&self) -> &'static str {
        match self {
            BackendChoice::Sequential => "sequential",
            BackendChoice::Coarse => "coarse",
            BackendChoice::Medium => "medium",
            BackendChoice::Fine => "fine",
            BackendChoice::FlatCombining => "flatcomb",
            BackendChoice::DedicatedServer => "rcl",
            BackendChoice::Astm {
                granularity,
                visible,
                ..
            } => match (granularity, visible) {
                (Granularity::Monolithic, false) => "astm",
                (Granularity::Sharded, false) => "astm-sharded",
                (Granularity::Monolithic, true) => "astm-visible",
                (Granularity::Sharded, true) => "astm-sharded-visible",
            },
            BackendChoice::Tl2 { granularity } => match granularity {
                Granularity::Monolithic => "tl2",
                Granularity::Sharded => "tl2-sharded",
            },
            BackendChoice::Norec { granularity } => match granularity {
                Granularity::Monolithic => "norec",
                Granularity::Sharded => "norec-sharded",
            },
        }
    }
}

/// A backend chosen at runtime (the CLI's `-g` flag).
#[allow(missing_docs)] // Variants mirror BackendChoice, documented there.
pub enum AnyBackend {
    Sequential(SequentialBackend),
    Coarse(CoarseBackend),
    Medium(MediumBackend),
    Fine(FineBackend),
    FlatCombining(FlatCombiningBackend),
    Rcl(DedicatedServerBackend),
    Astm(AstmBackend),
    Tl2(Tl2Backend),
    Norec(NorecBackend),
}

impl AnyBackend {
    /// Builds the chosen strategy around a freshly built workspace.
    pub fn build(choice: BackendChoice, ws: Workspace) -> AnyBackend {
        Self::build_traced(choice, ws, Recorder::default())
    }

    /// As [`AnyBackend::build`], attaching a trace recorder to backends
    /// that record lifecycle events (lock waits, STM retries, combiner
    /// batches). A disabled recorder — `Recorder::default()` — makes
    /// this identical to `build`.
    pub fn build_traced(choice: BackendChoice, ws: Workspace, recorder: Recorder) -> AnyBackend {
        match choice {
            BackendChoice::Sequential => AnyBackend::Sequential(SequentialBackend::new(ws)),
            BackendChoice::Coarse => {
                AnyBackend::Coarse(CoarseBackend::new(ws).with_recorder(recorder))
            }
            BackendChoice::Medium => {
                AnyBackend::Medium(MediumBackend::new(ws).with_recorder(recorder))
            }
            BackendChoice::Fine => AnyBackend::Fine(FineBackend::new(ws)),
            BackendChoice::FlatCombining => {
                AnyBackend::FlatCombining(FlatCombiningBackend::new(ws).with_recorder(recorder))
            }
            BackendChoice::DedicatedServer => {
                AnyBackend::Rcl(DedicatedServerBackend::with_recorder(ws, recorder))
            }
            BackendChoice::Astm {
                granularity,
                cm,
                visible,
            } => AnyBackend::Astm(
                StmBackend::from_workspace(
                    &ws,
                    stmbench7_stm::AstmRuntime::new(AstmConfig {
                        cm,
                        incremental_validation: true,
                        visible_reads: visible,
                    }),
                    granularity,
                )
                .with_recorder(recorder),
            ),
            BackendChoice::Tl2 { granularity } => AnyBackend::Tl2(
                StmBackend::from_workspace(
                    &ws,
                    stmbench7_stm::Tl2Runtime::new(Tl2Config::default()),
                    granularity,
                )
                .with_recorder(recorder),
            ),
            BackendChoice::Norec { granularity } => AnyBackend::Norec(
                StmBackend::from_workspace(&ws, stmbench7_stm::NorecRuntime::new(), granularity)
                    .with_recorder(recorder),
            ),
        }
    }

    /// Fine-grained strategy counters, when this is the fine backend.
    pub fn fine_stats(&self) -> Option<crate::FineStats> {
        match self {
            AnyBackend::Fine(b) => Some(b.fine_stats()),
            _ => None,
        }
    }

    /// Combiner counters, when this is a delegation backend.
    pub fn combining_stats(&self) -> Option<CombiningStats> {
        match self {
            AnyBackend::FlatCombining(b) => Some(b.combining_stats()),
            AnyBackend::Rcl(b) => Some(b.combining_stats()),
            _ => None,
        }
    }
}

impl Backend for AnyBackend {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        match self {
            AnyBackend::Sequential(b) => b.execute(spec, op),
            AnyBackend::Coarse(b) => b.execute(spec, op),
            AnyBackend::Medium(b) => b.execute(spec, op),
            AnyBackend::Fine(b) => b.execute(spec, op),
            AnyBackend::FlatCombining(b) => b.execute(spec, op),
            AnyBackend::Rcl(b) => b.execute(spec, op),
            AnyBackend::Astm(b) => b.execute(spec, op),
            AnyBackend::Tl2(b) => b.execute(spec, op),
            AnyBackend::Norec(b) => b.execute(spec, op),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyBackend::Sequential(b) => b.name(),
            AnyBackend::Coarse(b) => b.name(),
            AnyBackend::Medium(b) => b.name(),
            AnyBackend::Fine(b) => b.name(),
            AnyBackend::FlatCombining(b) => b.name(),
            AnyBackend::Rcl(b) => b.name(),
            AnyBackend::Astm(b) => b.name(),
            AnyBackend::Tl2(b) => b.name(),
            AnyBackend::Norec(b) => b.name(),
        }
    }

    fn export(&self) -> Workspace {
        match self {
            AnyBackend::Sequential(b) => b.export(),
            AnyBackend::Coarse(b) => b.export(),
            AnyBackend::Medium(b) => b.export(),
            AnyBackend::Fine(b) => b.export(),
            AnyBackend::FlatCombining(b) => b.export(),
            AnyBackend::Rcl(b) => b.export(),
            AnyBackend::Astm(b) => b.export(),
            AnyBackend::Tl2(b) => b.export(),
            AnyBackend::Norec(b) => b.export(),
        }
    }

    fn stm_stats(&self) -> Option<StatsSnapshot> {
        match self {
            AnyBackend::Sequential(b) => b.stm_stats(),
            AnyBackend::Coarse(b) => b.stm_stats(),
            AnyBackend::Medium(b) => b.stm_stats(),
            AnyBackend::Fine(b) => b.stm_stats(),
            AnyBackend::FlatCombining(b) => b.stm_stats(),
            AnyBackend::Rcl(b) => b.stm_stats(),
            AnyBackend::Astm(b) => b.stm_stats(),
            AnyBackend::Tl2(b) => b.stm_stats(),
            AnyBackend::Norec(b) => b.stm_stats(),
        }
    }

    fn contention(&self) -> Option<ContentionSnapshot> {
        match self {
            AnyBackend::Sequential(b) => b.contention(),
            AnyBackend::Coarse(b) => b.contention(),
            AnyBackend::Medium(b) => b.contention(),
            AnyBackend::Fine(b) => b.contention(),
            AnyBackend::FlatCombining(b) => b.contention(),
            AnyBackend::Rcl(b) => b.contention(),
            AnyBackend::Astm(b) => b.contention(),
            AnyBackend::Tl2(b) => b.contention(),
            AnyBackend::Norec(b) => b.contention(),
        }
    }
}

/// Every `-g` strategy name the CLI accepts, paired with its parsed
/// [`BackendChoice`] — the single source the cross-backend test suites
/// draw from, so a newly added strategy cannot silently miss coverage.
pub fn strategy_catalog() -> Vec<(&'static str, BackendChoice)> {
    [
        "sequential",
        "coarse",
        "medium",
        "fine",
        "flatcomb",
        "rcl",
        "astm",
        "astm-sharded",
        "astm-visible",
        "tl2",
        "tl2-sharded",
        "norec",
        "norec-sharded",
    ]
    .into_iter()
    .map(|name| {
        let choice = BackendChoice::parse(name)
            .unwrap_or_else(|| panic!("catalog entry '{name}' must parse"));
        (name, choice)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_data::StructureParams;

    #[test]
    fn backend_choice_parsing() {
        assert_eq!(BackendChoice::parse("coarse"), Some(BackendChoice::Coarse));
        assert_eq!(BackendChoice::parse("medium"), Some(BackendChoice::Medium));
        assert_eq!(BackendChoice::parse("fine"), Some(BackendChoice::Fine));
        assert_eq!(
            BackendChoice::parse("flatcomb"),
            Some(BackendChoice::FlatCombining)
        );
        assert_eq!(
            BackendChoice::parse("rcl"),
            Some(BackendChoice::DedicatedServer)
        );
        assert!(matches!(
            BackendChoice::parse("astm"),
            Some(BackendChoice::Astm { .. })
        ));
        assert!(matches!(
            BackendChoice::parse("tl2-sharded"),
            Some(BackendChoice::Tl2 {
                granularity: Granularity::Sharded
            })
        ));
        assert_eq!(BackendChoice::parse("nope"), None);
    }

    #[test]
    fn any_backend_names() {
        let ws = Workspace::build(StructureParams::tiny(), 1);
        for (choice, name) in [
            (BackendChoice::Coarse, "coarse"),
            (BackendChoice::Medium, "medium"),
            (BackendChoice::Fine, "fine"),
            (BackendChoice::FlatCombining, "flatcomb"),
            (BackendChoice::DedicatedServer, "rcl"),
        ] {
            let b = AnyBackend::build(choice, ws.clone());
            assert_eq!(b.name(), name);
        }
    }

    #[test]
    fn strategy_catalog_is_complete_and_distinct() {
        let catalog = strategy_catalog();
        assert_eq!(catalog.len(), 13);
        for window in catalog.windows(2) {
            assert_ne!(window[0].1, window[1].1, "duplicate catalog entries");
        }
    }

    #[test]
    fn keys_round_trip_through_parse() {
        for (name, choice) in strategy_catalog() {
            assert_eq!(choice.key(), name, "key must be the canonical spelling");
            assert_eq!(BackendChoice::parse(choice.key()), Some(choice));
        }
        // The one constructible variant outside the CLI catalog still
        // has a distinct, round-tripping key (compare matches by key).
        let sharded_visible = BackendChoice::Astm {
            granularity: Granularity::Sharded,
            cm: ContentionManager::Polka,
            visible: true,
        };
        assert_eq!(sharded_visible.key(), "astm-sharded-visible");
        assert_eq!(
            BackendChoice::parse(sharded_visible.key()),
            Some(sharded_visible)
        );
    }
}
