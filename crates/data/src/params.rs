//! Structure-size parameters and presets.
//!
//! The paper builds on the "medium" OO7 configuration: an assembly tree of
//! seven levels (base assemblies at level 1, the root complex assembly at
//! level 7) with fan-out three, three composite parts per base assembly, a
//! design library of 500 composite parts, and graphs of atomic parts with
//! three connections per part. Dates are drawn from `[1000, 1999]` as in
//! OO7, which makes OP2's range `[1990, 1999]` select ~1% of atomic parts
//! and OP3's `[1900, 1999]` ~10%.
//!
//! Presets scale the *sizes* while preserving every structural ratio, so
//! traversal shapes and contention footprints are preserved: a smaller
//! preset stands in for the paper's sizing without changing what an
//! operation touches relative to the whole.

use std::ops::RangeInclusive;

/// All tunables that determine the initial structure and its growth bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureParams {
    /// Number of assembly levels; base assemblies sit at level 1, the root
    /// complex assembly at `assembly_levels`. The paper uses 7.
    pub assembly_levels: u8,
    /// Children per complex assembly (3 in the paper).
    pub assembly_fanout: usize,
    /// Composite parts linked from each base assembly (3 in the paper).
    pub comps_per_base: usize,
    /// Initial size of the composite-part design library (500 in the paper).
    pub library_size: usize,
    /// Atomic parts in each composite part's graph.
    pub atomics_per_comp: usize,
    /// Outgoing connections per atomic part (3 in the paper: a ring edge
    /// plus random extras, guaranteeing the graph is reachable from its
    /// root part).
    pub conns_per_atomic: usize,
    /// Characters of generated text per document.
    pub doc_size: usize,
    /// Characters of generated text in the manual.
    pub manual_size: usize,
    /// Chunk count used by the sharded-STM manual representation
    /// (the §5 "split the manual" remedy).
    pub manual_chunks: usize,
    /// Inclusive build-date range for all objects.
    pub min_date: i32,
    /// See [`StructureParams::min_date`].
    pub max_date: i32,
    /// Headroom factor (percent) for id pools over the initial population;
    /// structure modifications fail once a pool is exhausted.
    pub growth_percent: u32,
    /// Number of shards each Table 1 index is split into (the CLI's
    /// `--shards` axis; see [`crate::sharded`]). `0` — the preset
    /// default — means *unset*: indexes are monolithic
    /// ([`StructureParams::effective_shards`] = 1) and the sharded STM
    /// granularity keeps its own historical bucket sizing. Any explicit
    /// value (including 1) is exact for every backend, so `--shards 1`
    /// really measures one bucket. Bounded by
    /// [`crate::sharded::MAX_SHARDS`].
    pub index_shards: usize,
}

impl StructureParams {
    /// The sizing spelled out in the paper's §2.2 text: 500 composite parts
    /// each with a graph of 100 000 atomic parts (~50 M objects, matching
    /// the "more than 50 millions of objects" read sets of §5).
    ///
    /// This preset exists for fidelity; it needs several GiB of memory and
    /// is not used by the test suite.
    pub fn paper_full() -> Self {
        Self::base(7, 3, 3, 500, 100_000, 3, 20_000, 1 << 20)
    }

    /// The sizing of the authors' released Java implementation: 500
    /// composite parts × 200 atomic parts = 100 000 atomic parts. This is
    /// the default for the CLI.
    pub fn standard() -> Self {
        Self::base(7, 3, 3, 500, 200, 3, 2_000, 1 << 20)
    }

    /// A laptop/CI-scale structure preserving all ratios
    /// (81 base assemblies, 2 400 atomic parts).
    pub fn small() -> Self {
        Self::base(5, 3, 3, 60, 40, 3, 400, 1 << 16)
    }

    /// A unit-test-scale structure (9 base assemblies, 120 atomic parts).
    pub fn tiny() -> Self {
        Self::base(3, 3, 2, 12, 10, 3, 120, 1 << 12)
    }

    /// Parses a preset name (`tiny`, `small`, `standard`/`medium-oo7`,
    /// `paper-full`/`paper_full`) — the `-s`/`--preset` vocabulary of the
    /// CLI, the sweep binaries and the lab harness.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "tiny" => StructureParams::tiny(),
            "small" => StructureParams::small(),
            "standard" | "medium-oo7" => StructureParams::standard(),
            "paper-full" | "paper_full" => StructureParams::paper_full(),
            _ => return None,
        })
    }

    /// The preset name whose sizing equals `self`, if any. The shard
    /// count is a contention axis, not a sizing axis, so it is ignored:
    /// `small` at `--shards 8` is still the `small` preset.
    pub fn preset_name(&self) -> Option<&'static str> {
        ["tiny", "small", "standard", "paper-full"]
            .into_iter()
            .find(|name| {
                Self::parse(name).map(|p| p.with_shards(self.index_shards)) == Some(self.clone())
            })
    }

    #[allow(clippy::too_many_arguments)] // Private constructor mirroring the preset table's columns.
    fn base(
        levels: u8,
        fanout: usize,
        comps_per_base: usize,
        library: usize,
        atomics: usize,
        conns: usize,
        doc: usize,
        manual: usize,
    ) -> Self {
        StructureParams {
            assembly_levels: levels,
            assembly_fanout: fanout,
            comps_per_base,
            library_size: library,
            atomics_per_comp: atomics,
            conns_per_atomic: conns,
            doc_size: doc,
            manual_size: manual,
            manual_chunks: 64,
            min_date: 1000,
            max_date: 1999,
            growth_percent: 30,
            index_shards: 0,
        }
    }

    /// This preset with an explicit index shard count (the `--shards`
    /// override; sharding never changes results, only contention).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.index_shards = shards;
        self
    }

    /// The shard count the in-memory indexes are actually built with:
    /// the explicit `--shards` value, or 1 (monolithic) when unset.
    pub fn effective_shards(&self) -> usize {
        self.index_shards.max(1)
    }

    /// Initial number of base assemblies: `fanout^(levels-1)`.
    pub fn initial_bases(&self) -> usize {
        self.assembly_fanout
            .pow(u32::from(self.assembly_levels) - 1)
    }

    /// Initial number of complex assemblies:
    /// `(fanout^(levels-1) - 1) / (fanout - 1)` for fan-out > 1.
    pub fn initial_complexes(&self) -> usize {
        let mut total = 0;
        let mut width = 1;
        for _ in 1..self.assembly_levels {
            total += width;
            width *= self.assembly_fanout;
        }
        total
    }

    /// Initial number of atomic parts across the whole library.
    pub fn initial_atomics(&self) -> usize {
        self.library_size * self.atomics_per_comp
    }

    fn with_growth(&self, n: usize) -> u32 {
        let n = n as u64;
        let grown = n + n * u64::from(self.growth_percent) / 100;
        u32::try_from(grown.max(n + 1)).expect("pool capacity exceeds u32")
    }

    /// Pool bound for composite parts (and documents, 1:1).
    pub fn max_comps(&self) -> u32 {
        self.with_growth(self.library_size)
    }

    /// Pool bound for atomic parts.
    pub fn max_atomics(&self) -> u32 {
        self.with_growth(self.initial_atomics())
    }

    /// Pool bound for base assemblies.
    pub fn max_bases(&self) -> u32 {
        self.with_growth(self.initial_bases())
    }

    /// Pool bound for complex assemblies.
    pub fn max_complexes(&self) -> u32 {
        self.with_growth(self.initial_complexes())
    }

    /// Every build date an atomic part can carry: the builder draws from
    /// `[min_date, max_date]`, and [`crate::AtomicPart::next_build_date`]
    /// moves a date one step, down from an even date and up from an odd
    /// one, so a date leaves the drawn range by at most one. The domain of
    /// index 2 ([`crate::DateIndex`]).
    pub fn date_domain(&self) -> RangeInclusive<i32> {
        self.min_date.saturating_sub(1)..=self.max_date.saturating_add(1)
    }

    /// Validates internal consistency (levels ≥ 2, fan-out ≥ 1, non-empty
    /// library and graphs, sane date range).
    pub fn check(&self) -> Result<(), String> {
        if self.assembly_levels < 2 {
            return Err("assembly_levels must be ≥ 2 (a root and base assemblies)".into());
        }
        if self.assembly_fanout == 0 || self.comps_per_base == 0 {
            return Err("fanout and comps_per_base must be ≥ 1".into());
        }
        if self.library_size == 0 || self.atomics_per_comp == 0 {
            return Err("library_size and atomics_per_comp must be ≥ 1".into());
        }
        if self.min_date >= self.max_date {
            return Err("min_date must be < max_date".into());
        }
        if self.manual_chunks == 0 || self.manual_size == 0 || self.doc_size == 0 {
            return Err("text sizes and manual_chunks must be ≥ 1".into());
        }
        if self.index_shards > crate::sharded::MAX_SHARDS {
            return Err(format!(
                "index_shards must be in 0..={} (0 = unset), got {}",
                crate::sharded::MAX_SHARDS,
                self.index_shards
            ));
        }
        Ok(())
    }

    /// The "young" date range `[1990, 1999]` used by OP2.
    pub fn young_range(&self) -> (i32, i32) {
        (self.max_date - 9, self.max_date)
    }

    /// The wider date range `[1900, 1999]` used by OP3.
    pub fn old_range(&self) -> (i32, i32) {
        (self.max_date - 99, self.max_date)
    }
}

impl Default for StructureParams {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_match_section_2_2() {
        let p = StructureParams::paper_full();
        // Six levels of complex assemblies with three children each.
        assert_eq!(p.initial_bases(), 729);
        assert_eq!(p.initial_complexes(), 364);
        assert_eq!(p.library_size, 500);
        // 500 graphs of 100 000 atomic parts each — 50 M objects.
        assert_eq!(p.initial_atomics(), 50_000_000);
    }

    #[test]
    fn standard_matches_java_release_sizing() {
        let p = StructureParams::standard();
        assert_eq!(p.initial_atomics(), 100_000);
        assert_eq!(p.initial_bases(), 729);
    }

    #[test]
    fn presets_are_internally_consistent() {
        for p in [
            StructureParams::paper_full(),
            StructureParams::standard(),
            StructureParams::small(),
            StructureParams::tiny(),
        ] {
            p.check().unwrap();
            assert!(p.max_bases() as usize > p.initial_bases());
            assert!(p.max_complexes() as usize > p.initial_complexes());
            assert!(p.max_comps() as usize > p.library_size);
            assert!(p.max_atomics() as usize > p.initial_atomics());
        }
    }

    #[test]
    fn date_ranges_match_oo7() {
        let p = StructureParams::standard();
        assert_eq!(p.young_range(), (1990, 1999));
        assert_eq!(p.old_range(), (1900, 1999));
    }

    #[test]
    fn shard_axis_parses_and_keeps_preset_identity() {
        let p = StructureParams::small().with_shards(8);
        p.check().unwrap();
        assert_eq!(p.index_shards, 8);
        assert_eq!(p.effective_shards(), 8);
        assert_eq!(p.preset_name(), Some("small"));
        // Both spellings of the paper preset parse to the same sizing.
        assert_eq!(
            StructureParams::parse("paper_full"),
            StructureParams::parse("paper-full")
        );
        // Unset (0) builds monolithic indexes; explicit values are exact.
        assert_eq!(StructureParams::tiny().effective_shards(), 1);
        assert_eq!(StructureParams::tiny().with_shards(1).effective_shards(), 1);
        assert!(StructureParams::tiny().with_shards(0).check().is_ok());
        assert!(StructureParams::tiny().with_shards(65).check().is_err());
        assert!(StructureParams::tiny().with_shards(64).check().is_ok());
    }

    #[test]
    fn check_rejects_degenerate_configs() {
        let mut p = StructureParams::tiny();
        p.assembly_levels = 1;
        assert!(p.check().is_err());
        let mut p = StructureParams::tiny();
        p.min_date = p.max_date;
        assert!(p.check().is_err());
        let mut p = StructureParams::tiny();
        p.library_size = 0;
        assert!(p.check().is_err());
    }
}
