//! Workload types and the operation-ratio solver (paper §3, Table 2).
//!
//! The user describes the target application by a workload type
//! (read-dominated / read-write / write-dominated) and two switches
//! (long traversals, structure modifications); the benchmark derives the
//! per-operation ratios: category weights come from Table 2 (long
//! traversals 5%, short traversals 40%, short operations 45%, structure
//! modifications 10%), the read/update balance from the workload type
//! (90/10, 60/40, 10/90), and "operations from the same category have
//! equal ratios".

use rand::rngs::SmallRng;
use rand::Rng;

use crate::ops::{Category, OpKind};

/// The paper's three workload types, plus a custom update percentage —
/// the "more workloads need to be explored" extension its §6 calls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadType {
    /// 90% reads (`-w r`).
    ReadDominated,
    /// 60% reads (`-w rw`).
    ReadWrite,
    /// 10% reads (`-w w`).
    WriteDominated,
    /// An arbitrary update percentage in `0..=100` (`-w uNN`); the
    /// category weights of Table 2 are unchanged.
    Custom {
        /// The percentage of operations that update, `0..=100`.
        update_pct: u8,
    },
}

impl WorkloadType {
    /// Fraction of update operations (Table 2's bottom half).
    pub fn update_ratio(&self) -> f64 {
        match self {
            WorkloadType::ReadDominated => 0.10,
            WorkloadType::ReadWrite => 0.40,
            WorkloadType::WriteDominated => 0.90,
            WorkloadType::Custom { update_pct } => f64::from(*update_pct) / 100.0,
        }
    }

    /// Short name used by the CLI (`-w r|rw|w`) and in CSV keys.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadType::ReadDominated => "r",
            WorkloadType::ReadWrite => "rw",
            WorkloadType::WriteDominated => "w",
            WorkloadType::Custom { .. } => "custom",
        }
    }

    /// Human-readable label including the custom percentage.
    pub fn label(&self) -> String {
        match self {
            WorkloadType::Custom { update_pct } => format!("custom ({update_pct}% updates)"),
            other => other.name().to_string(),
        }
    }

    /// Parses `r`, `rw`, `w`, or `uNN` (NN = update percent, 0..=100).
    pub fn parse(s: &str) -> Option<WorkloadType> {
        match s {
            "r" => Some(WorkloadType::ReadDominated),
            "rw" => Some(WorkloadType::ReadWrite),
            "w" => Some(WorkloadType::WriteDominated),
            _ => {
                let pct: u8 = s.strip_prefix('u')?.parse().ok()?;
                (pct <= 100).then_some(WorkloadType::Custom { update_pct: pct })
            }
        }
    }

    /// All paper workloads, for sweeps.
    pub fn all() -> [WorkloadType; 3] {
        [
            WorkloadType::ReadDominated,
            WorkloadType::ReadWrite,
            WorkloadType::WriteDominated,
        ]
    }
}

/// Category weights from Table 2 (percent).
pub fn category_weight(c: Category) -> f64 {
    match c {
        Category::LongTraversal => 0.05,
        Category::ShortTraversal => 0.40,
        Category::ShortOperation => 0.45,
        Category::StructureModification => 0.10,
    }
}

/// Explicitly disabled operations, beyond the two paper switches.
#[derive(Clone, Debug, Default)]
pub struct OpFilter {
    disabled: Vec<OpKind>,
}

impl OpFilter {
    /// Nothing disabled.
    pub fn none() -> Self {
        OpFilter::default()
    }

    /// Disables one operation.
    pub fn disable(mut self, op: OpKind) -> Self {
        if !self.disabled.contains(&op) {
            self.disabled.push(op);
        }
        self
    }

    /// The §5 configuration: "we disabled all operations that acquire too
    /// many objects in read mode or modify either the large index of
    /// atomic parts or the manual" — beyond disabling long traversals,
    /// that is OP11 (manual update), OP15 (indexed-attribute update) and
    /// SM1/SM2 (create/delete whole atomic graphs through the index).
    pub fn astm_friendly() -> Self {
        OpFilter::none()
            .disable(OpKind::Op11)
            .disable(OpKind::Op15)
            .disable(OpKind::Sm1)
            .disable(OpKind::Sm2)
    }

    /// The filter behind the `--astm-friendly` switch:
    /// [`OpFilter::astm_friendly`] when set, [`OpFilter::none`] otherwise.
    pub fn astm_friendly_if(on: bool) -> Self {
        if on {
            OpFilter::astm_friendly()
        } else {
            OpFilter::none()
        }
    }

    /// Whether `op` is disabled by this filter.
    pub fn is_disabled(&self, op: OpKind) -> bool {
        self.disabled.contains(&op)
    }
}

/// Per-operation execution probabilities.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    probs: [f64; 45],
    cumulative: [f64; 45],
}

impl WorkloadMix {
    /// Computes the mix for a workload description (see module docs).
    pub fn compute(
        workload: WorkloadType,
        long_traversals: bool,
        structure_mods: bool,
        filter: &OpFilter,
    ) -> WorkloadMix {
        // Category weights, with disabled categories removed and the rest
        // renormalized.
        let mut weights = [0.0f64; 4];
        for (i, c) in Category::all().into_iter().enumerate() {
            let enabled = match c {
                Category::LongTraversal => long_traversals,
                Category::StructureModification => structure_mods,
                _ => true,
            };
            weights[i] = if enabled { category_weight(c) } else { 0.0 };
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }

        // Split each non-SM category between read-only and update
        // operations so the global update ratio lands on the workload's
        // target; SM operations are all updates.
        let u = workload.update_ratio();
        let sm = weights[3];
        let f = if sm >= 1.0 {
            0.0
        } else {
            ((u - sm) / (1.0 - sm)).clamp(0.0, 1.0)
        };

        let mut probs = [0.0f64; 45];
        for (ci, c) in Category::all().into_iter().enumerate() {
            let members = |read_only: bool| -> Vec<OpKind> {
                OpKind::ALL
                    .iter()
                    .copied()
                    .filter(|o| {
                        o.category() == c
                            && o.is_read_only() == read_only
                            && !filter.is_disabled(*o)
                    })
                    .collect()
            };
            if c == Category::StructureModification {
                let ops = members(false);
                if !ops.is_empty() {
                    let share = weights[ci] / ops.len() as f64;
                    for op in ops {
                        probs[op.index()] = share;
                    }
                }
                continue;
            }
            for (read_only, mass) in [(true, weights[ci] * (1.0 - f)), (false, weights[ci] * f)] {
                let ops = members(read_only);
                if ops.is_empty() {
                    continue; // Mass redistributed by the final renorm.
                }
                let share = mass / ops.len() as f64;
                for op in ops {
                    probs[op.index()] = share;
                }
            }
        }

        let sum: f64 = probs.iter().sum();
        assert!(sum > 0.0, "workload mix has no enabled operations");
        for p in &mut probs {
            *p /= sum;
        }

        let mut cumulative = [0.0f64; 45];
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            cumulative[i] = acc;
        }
        cumulative[44] = 1.0;
        WorkloadMix { probs, cumulative }
    }

    /// The expected execution ratio of an operation (the `C_T` of the
    /// paper's sample-error output).
    pub fn expected(&self, op: OpKind) -> f64 {
        self.probs[op.index()]
    }

    /// Draws an operation.
    pub fn pick(&self, rng: &mut SmallRng) -> OpKind {
        let x: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|c| *c < x);
        OpKind::ALL[idx.min(44)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mass(mix: &WorkloadMix, pred: impl Fn(OpKind) -> bool) -> f64 {
        OpKind::ALL
            .iter()
            .filter(|o| pred(**o))
            .map(|o| mix.expected(*o))
            .sum()
    }

    #[test]
    fn table2_read_dominated() {
        let mix = WorkloadMix::compute(WorkloadType::ReadDominated, true, true, &OpFilter::none());
        assert!((mass(&mix, |o| o.is_read_only()) - 0.90).abs() < 1e-9);
        assert!((mass(&mix, |o| o.category() == Category::LongTraversal) - 0.05).abs() < 1e-9);
        assert!((mass(&mix, |o| o.category() == Category::ShortTraversal) - 0.40).abs() < 1e-9);
        assert!((mass(&mix, |o| o.category() == Category::ShortOperation) - 0.45).abs() < 1e-9);
        assert!(
            (mass(&mix, |o| o.category() == Category::StructureModification) - 0.10).abs() < 1e-9
        );
    }

    #[test]
    fn table2_read_write_and_write_dominated() {
        let rw = WorkloadMix::compute(WorkloadType::ReadWrite, true, true, &OpFilter::none());
        assert!((mass(&rw, |o| !o.is_read_only()) - 0.40).abs() < 1e-9);
        let w = WorkloadMix::compute(WorkloadType::WriteDominated, true, true, &OpFilter::none());
        assert!((mass(&w, |o| !o.is_read_only()) - 0.90).abs() < 1e-9);
    }

    #[test]
    fn custom_workloads_hit_their_update_ratio() {
        for pct in [0u8, 25, 50, 75, 100] {
            let wl = WorkloadType::Custom { update_pct: pct };
            let mix = WorkloadMix::compute(wl, true, true, &OpFilter::none());
            let target = f64::from(pct) / 100.0;
            // SM operations are all updates and carry 10% of the mass, so
            // the reachable update ratio is clamped below at 0.10.
            let expect = target.max(0.10);
            assert!(
                (mass(&mix, |o| !o.is_read_only()) - expect).abs() < 1e-9,
                "pct {pct}"
            );
        }
        // Without structure modifications the full range is reachable.
        let wl = WorkloadType::Custom { update_pct: 0 };
        let mix = WorkloadMix::compute(wl, true, false, &OpFilter::none());
        assert!(mass(&mix, |o| !o.is_read_only()).abs() < 1e-9);
    }

    #[test]
    fn custom_workload_parse_and_label() {
        assert_eq!(
            WorkloadType::parse("u37"),
            Some(WorkloadType::Custom { update_pct: 37 })
        );
        assert_eq!(WorkloadType::parse("u101"), None);
        assert_eq!(WorkloadType::parse("u"), None);
        assert_eq!(WorkloadType::parse("x"), None);
        let wl = WorkloadType::Custom { update_pct: 37 };
        assert_eq!(wl.name(), "custom");
        assert_eq!(wl.label(), "custom (37% updates)");
        assert!((wl.update_ratio() - 0.37).abs() < 1e-12);
        assert_eq!(WorkloadType::parse("rw").unwrap().label(), "rw");
    }

    #[test]
    fn disabling_traversals_removes_their_mass() {
        let mix = WorkloadMix::compute(WorkloadType::ReadWrite, false, true, &OpFilter::none());
        assert_eq!(mass(&mix, |o| o.category() == Category::LongTraversal), 0.0);
        let total: f64 = OpKind::ALL.iter().map(|o| mix.expected(*o)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Update ratio is preserved.
        assert!((mass(&mix, |o| !o.is_read_only()) - 0.40).abs() < 1e-9);
    }

    #[test]
    fn disabling_sms_moves_updates_to_other_categories() {
        let mix = WorkloadMix::compute(WorkloadType::ReadDominated, true, false, &OpFilter::none());
        assert!((mass(&mix, |o| !o.is_read_only()) - 0.10).abs() < 1e-9);
        assert_eq!(
            mass(&mix, |o| o.category() == Category::StructureModification),
            0.0
        );
    }

    #[test]
    fn filtered_ops_get_zero_probability() {
        let mix = WorkloadMix::compute(
            WorkloadType::ReadWrite,
            false,
            true,
            &OpFilter::astm_friendly(),
        );
        assert_eq!(mix.expected(OpKind::Op11), 0.0);
        assert_eq!(mix.expected(OpKind::Op15), 0.0);
        assert_eq!(mix.expected(OpKind::Sm1), 0.0);
        assert_eq!(mix.expected(OpKind::Sm2), 0.0);
        let total: f64 = OpKind::ALL.iter().map(|o| mix.expected(*o)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equal_ratios_within_a_bucket() {
        let mix = WorkloadMix::compute(WorkloadType::ReadWrite, true, true, &OpFilter::none());
        // All read-only long traversals share one ratio.
        let t1 = mix.expected(OpKind::T1);
        for op in [OpKind::T4, OpKind::T6, OpKind::Q6, OpKind::Q7] {
            assert!((mix.expected(op) - t1).abs() < 1e-12);
        }
    }

    #[test]
    fn pick_matches_expected_frequencies() {
        let mix = WorkloadMix::compute(WorkloadType::ReadWrite, true, true, &OpFilter::none());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u32; 45];
        let n = 200_000;
        for _ in 0..n {
            counts[mix.pick(&mut rng).index()] += 1;
        }
        for &op in OpKind::ALL {
            let observed = counts[op.index()] as f64 / n as f64;
            let expect = mix.expected(op);
            assert!(
                (observed - expect).abs() < 0.01,
                "{}: observed {observed:.4} vs expected {expect:.4}",
                op.name()
            );
        }
    }
}
