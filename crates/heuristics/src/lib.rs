//! # heuristics — the paper's decision trees (Figure 18)
//!
//! Section 5.4 distills the performance study into rules a query optimizer
//! can apply from workload statistics it already has: payload widths, match
//! ratio estimates, skew estimates, and input sizes.
//!
//! Every tree is data walked by one function, and each has one entry point
//! that returns the walk itself as an [`Explained`] — the pick, the guard
//! that fired, its rationale and the branches rejected on the way:
//!
//! * [`choose_join`] encodes Figure 18a — picking among all four GPU
//!   implementations;
//! * [`choose_smj`] encodes Figure 18b — the SMJ-OM vs SMJ-UM subtree;
//! * [`choose_group_by`] is the grouped-aggregation tree;
//! * [`composite::choose_composite`] picks how a multi-column GROUP BY /
//!   ORDER BY key maps onto the single-key kernels.
//!
//! A planner that acts on a walk records it as one [`Decision`] (or a
//! pinned one when the plan fixed the algorithm), which the join and
//! group-by [`Provenance`] embed and EXPLAIN renders.
//!
//! The trees' inputs come from two places:
//!
//! * [`profile_of`] derives a [`WorkloadProfile`] from actual relations, so
//!   the recommendation can be validated against measured runs (the
//!   `fig18_decision_tree` experiment does exactly that);
//! * [`estimate`] fills the statistics an optimizer would otherwise supply
//!   (match ratio, skew) by sampling — Section 5.4's "this type of
//!   information is typically available to an optimizer", made operational.

pub mod composite;
pub mod estimate;

pub use estimate::{
    estimate_profile, sample_group_stats, sample_stats, EstimatedGroupStats, EstimatedStats,
};

use columnar::{DType, Relation};
use groupby::GroupByAlgorithm;
use joins::Algorithm;
use serde::{Deserialize, Serialize};

/// The workload statistics the decision trees branch on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// More than one payload column on either input ("wide" join).
    pub wide: bool,
    /// Estimated fraction of probe tuples with a match partner.
    pub match_ratio: f64,
    /// Foreign keys heavily skewed (Zipf factor ≳ 1).
    pub skewed: bool,
    /// Any 8-byte keys or payload columns present.
    pub has_8byte: bool,
    /// Inputs small enough that payload columns are L2-resident, which
    /// makes unclustered gathers cheap (the paper's TPC-H J3 case).
    pub small_inputs: bool,
}

impl WorkloadProfile {
    /// The paper's default microbenchmark shape: wide, 100% match, uniform,
    /// 4-byte, large.
    pub fn default_wide() -> Self {
        WorkloadProfile {
            wide: true,
            match_ratio: 1.0,
            skewed: false,
            has_8byte: false,
            small_inputs: false,
        }
    }
}

/// The schema facts one join input contributes to a [`WorkloadProfile`] —
/// kept separable from the physical [`Relation`] so a late-materializing
/// executor can describe the *logical* input (the columns the query will
/// eventually materialize) rather than the ticket-carrying physical one it
/// actually feeds the join. Fused and unfused plans then branch on the same
/// profile and pick the same algorithm.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SideShape {
    /// Payload (non-key) columns the query materializes from this side.
    pub num_payloads: usize,
    /// Any 8-byte key or payload column on this side.
    pub has_8byte: bool,
    /// Total bytes of the materialized key + payload columns.
    pub size_bytes: u64,
}

impl SideShape {
    /// The shape of a concrete relation (the eager-materialization case).
    pub fn of(rel: &Relation) -> SideShape {
        SideShape {
            num_payloads: rel.num_payloads(),
            has_8byte: rel.key().dtype() == DType::I64
                || rel.payloads().iter().any(|c| c.dtype() == DType::I64),
            size_bytes: rel.size_bytes(),
        }
    }
}

/// Compose sampled statistics with the two sides' schema facts into the
/// profile the join tree branches on. [`estimate::estimate_profile`] is
/// this function applied to [`SideShape::of`] the physical relations;
/// late-materializing callers pass logical shapes instead.
pub fn profile_from_stats(
    stats: &EstimatedStats,
    r: &SideShape,
    s: &SideShape,
    l2_bytes: u64,
) -> WorkloadProfile {
    profile(r, s, stats.match_ratio, stats.skewed(), l2_bytes)
}

/// Derive a profile from concrete relations plus distribution estimates the
/// caller knows (match ratio and skew are generator/optimizer knowledge, not
/// derivable from a cheap scan).
pub fn profile_of(
    r: &Relation,
    s: &Relation,
    match_ratio: f64,
    zipf: f64,
    l2_bytes: u64,
) -> WorkloadProfile {
    let (r, s) = (SideShape::of(r), SideShape::of(s));
    profile(&r, &s, match_ratio, zipf >= 1.0, l2_bytes)
}

/// The profile rule, once: wide when either side materializes more than one
/// payload, 8-byte when either side has an 8-byte column, and "small" when
/// the larger side fits in half the L2 — room to spare for the gather's
/// working set.
fn profile(
    r: &SideShape,
    s: &SideShape,
    match_ratio: f64,
    skewed: bool,
    l2_bytes: u64,
) -> WorkloadProfile {
    WorkloadProfile {
        wide: r.num_payloads > 1 || s.num_payloads > 1,
        match_ratio,
        skewed,
        has_8byte: r.has_8byte || s.has_8byte,
        small_inputs: r.size_bytes.max(s.size_bytes) < l2_bytes / 2,
    }
}

/// One branch of a decision tree: a named guard over the profile and the
/// recommendation when the guard holds. Every tree ends in a fallthrough
/// branch whose guard is always true, so a walk always terminates on a
/// branch.
///
/// The trees are data, not control flow, so the pick and its provenance
/// come from the *same* walk by construction — the explain layer can never
/// describe a different tree than the one the planner ran.
struct Branch<P: 'static, A: 'static> {
    /// The predicate as the paper's figure states it (shown in provenance).
    guard: &'static str,
    holds: fn(&P) -> bool,
    algorithm: A,
    rationale: &'static str,
}

/// A branch the walk evaluated and rejected before reaching its choice —
/// the "roads not taken" half of decision provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectedBranch {
    /// Display name of the algorithm this branch would have picked.
    pub algorithm: String,
    /// The guard that evaluated false.
    pub guard: String,
}

/// The outcome of walking a decision tree — what every `choose_*` returns:
/// the choice, the guard that fired, and every branch rejected on the way
/// down.
#[derive(Debug, Clone)]
pub struct Explained<A> {
    /// The algorithm the tree picked.
    pub algorithm: A,
    /// The guard of the branch taken (`"otherwise"` for the fallthrough).
    pub guard: &'static str,
    /// The taken branch's rationale.
    pub rationale: &'static str,
    /// Branches evaluated and rejected before the taken one, in tree order.
    pub rejected: Vec<RejectedBranch>,
}

fn walk_tree<P, A: Copy>(
    tree: &'static [Branch<P, A>],
    p: &P,
    name: fn(A) -> &'static str,
) -> Explained<A> {
    let mut rejected = Vec::new();
    for b in tree {
        if (b.holds)(p) {
            return Explained {
                algorithm: b.algorithm,
                guard: b.guard,
                rationale: b.rationale,
                rejected,
            };
        }
        rejected.push(RejectedBranch {
            algorithm: name(b.algorithm).to_string(),
            guard: b.guard.to_string(),
        });
    }
    unreachable!("every decision tree ends in an always-true fallthrough branch")
}

/// Figure 18a as data. The partitioned hash joins dominate throughout the
/// study ("partitioning is more efficient than sorting but both
/// transformations make the match-finding phase similarly efficient"), so
/// the tree mostly decides *which* PHJ variant to use.
static JOIN_TREE: [Branch<WorkloadProfile, Algorithm>; 5] = [
    Branch {
        guard: "skewed foreign keys",
        holds: |p| p.skewed,
        // Bucket chaining collapses under skew (Figure 14); the stable
        // radix partitioner does not.
        algorithm: Algorithm::PhjOm,
        rationale: "skewed foreign keys: bucket-chain partitioning (PHJ-UM) degrades, \
                    RADIX-PARTITION is distribution-robust",
    },
    Branch {
        guard: "narrow join (single payload)",
        holds: |p| !p.wide,
        algorithm: Algorithm::PhjUm,
        rationale: "narrow join: nothing to gain from transforming payloads; \
                    PHJ-UM and PHJ-OM are nearly identical, bucket chaining is \
                    marginally ahead on small inputs",
    },
    Branch {
        guard: "match ratio < 0.25",
        holds: |p| p.match_ratio < 0.25,
        algorithm: Algorithm::PhjUm,
        rationale: "low match ratio: little is materialized, unclustered gathers are \
                    cheap, and GFTR's transformation cost does not pay off (Figure 13)",
    },
    Branch {
        guard: "inputs fit L2",
        holds: |p| p.small_inputs,
        algorithm: Algorithm::PhjUm,
        rationale: "inputs fit the L2 cache: unclustered gathers are already fast \
                    (the TPC-H J3 effect), skip the payload transformation",
    },
    Branch {
        guard: "otherwise",
        holds: |_| true,
        algorithm: Algorithm::PhjOm,
        rationale: "wide join with a high match ratio: materialization dominates and \
                    clustered gathers win despite the partitioning cost (Figure 10); \
                    PHJ-OM also tolerates 8-byte values where SMJ-OM does not",
    },
];

/// Figure 18b as data: within the sort-merge family, does optimized
/// materialization pay off?
static SMJ_TREE: [Branch<WorkloadProfile, Algorithm>; 6] = [
    Branch {
        guard: "narrow join (single payload)",
        holds: |p| !p.wide,
        algorithm: Algorithm::SmjUm,
        rationale: "narrow join: SMJ-OM degenerates to SMJ-UM",
    },
    Branch {
        guard: "match ratio < 0.25",
        holds: |p| p.match_ratio < 0.25,
        algorithm: Algorithm::SmjUm,
        rationale: "low match ratio: materialization is not the bottleneck",
    },
    Branch {
        guard: "skewed foreign keys",
        holds: |p| p.skewed,
        algorithm: Algorithm::SmjUm,
        rationale: "skewed keys: few primary keys have matches, so little is \
                    materialized and consistent sorting wins (Figure 14)",
    },
    Branch {
        guard: "8-byte keys or payloads",
        holds: |p| p.has_8byte,
        algorithm: Algorithm::SmjUm,
        rationale: "8-byte keys/payloads: sorting every payload column becomes too \
                    expensive (Figure 15); gather from untransformed relations",
    },
    Branch {
        guard: "inputs fit L2",
        holds: |p| p.small_inputs,
        algorithm: Algorithm::SmjUm,
        rationale: "L2-resident inputs make unclustered gathers cheap",
    },
    Branch {
        guard: "otherwise",
        holds: |_| true,
        algorithm: Algorithm::SmjOm,
        rationale: "wide 4-byte join with a high match ratio: clustered gathers repay \
                    the extra sorting (Figure 10)",
    },
];

/// Figure 18a: choose among SMJ-UM, SMJ-OM, PHJ-UM and PHJ-OM.
pub fn choose_join(p: &WorkloadProfile) -> Explained<Algorithm> {
    walk_tree(&JOIN_TREE, p, Algorithm::name)
}

/// Figure 18b: within the sort-merge family, does optimized materialization
/// pay off?
pub fn choose_smj(p: &WorkloadProfile) -> Explained<Algorithm> {
    walk_tree(&SMJ_TREE, p, Algorithm::name)
}

/// The statistics the grouped-aggregation decision branches on — the
/// aggregation-side counterpart of [`WorkloadProfile`], fed either from
/// optimizer knowledge or from [`sample_group_stats`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AggProfile {
    /// Input rows.
    pub rows: usize,
    /// Estimated number of distinct groups.
    pub est_groups: usize,
    /// Grouping keys heavily skewed (one group holds ≳5% of the rows).
    pub skewed: bool,
    /// More than one aggregated column ("wide" aggregation).
    pub wide: bool,
    /// L2 capacity of the target device, bytes.
    pub l2_bytes: u64,
}

impl AggProfile {
    /// Does the global hash table (key + accumulator slots per group) fit
    /// comfortably in L2? This is the paper's "few groups" regime where the
    /// untransformed atomic variant is hard to beat.
    pub fn table_fits_l2(&self) -> bool {
        // ~16 bytes per slot (widened key + i64 accumulator) at 50% target
        // occupancy, against half the L2 to leave room for the input stream.
        (self.est_groups as u64) * 16 * 2 <= self.l2_bytes / 2
    }
}

/// The grouped-aggregation tree as data: global hash table while it is
/// L2-resident and uniform, otherwise transform — with the GFTR/GFUR choice
/// following the same width logic as the join tree (Section 5.4 applied to
/// the aggregation half of the paper).
static GROUP_BY_TREE: [Branch<AggProfile, GroupByAlgorithm>; 4] = [
    Branch {
        guard: "hash table fits L2, uniform keys",
        holds: |p| p.table_fits_l2() && !p.skewed,
        algorithm: GroupByAlgorithm::HashGlobal,
        rationale: "few groups: the global hash table is L2-resident, random atomic \
                    updates are cheap and skip the transformation entirely",
    },
    Branch {
        guard: "hash table fits L2, skewed keys",
        holds: |p| p.skewed && p.table_fits_l2(),
        algorithm: GroupByAlgorithm::PartitionedGfur,
        rationale: "skewed keys serialize global atomics on the hot group; the stable \
                    radix partitioner spreads each group over shared-memory tables",
    },
    Branch {
        guard: "several aggregate columns",
        holds: |p| p.wide,
        algorithm: GroupByAlgorithm::PartitionedGftr,
        rationale: "many groups and several aggregate columns: transforming every \
                    column (GFTR) converts the random accesses of aggregation into \
                    sequential ones",
    },
    Branch {
        guard: "otherwise",
        holds: |_| true,
        algorithm: GroupByAlgorithm::PartitionedGfur,
        rationale: "many groups but few columns: partition the (key, ID) pairs once and \
                    gather — the transformation cost of GFTR would not pay off",
    },
];

/// The grouped-aggregation decision.
pub fn choose_group_by(p: &AggProfile) -> Explained<GroupByAlgorithm> {
    walk_tree(&GROUP_BY_TREE, p, GroupByAlgorithm::name)
}

/// One planner decision as EXPLAIN reports it: what was chosen, how it
/// materializes, and — for a tree walk — the guard that fired, its
/// rationale and the branches rejected before it. The one record every
/// decision kind embeds ([`JoinProvenance`], [`GroupByProvenance`]) and
/// `engine::explain` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// True when the plan pinned the algorithm and no tree ran.
    pub pinned: bool,
    /// Display name of the chosen algorithm.
    pub choice: String,
    /// Materialization strategy of the choice (`"GFTR"` / `"GFUR"` / ...).
    pub materialization: String,
    /// The guard that fired (`"pinned by plan"` when pinned).
    pub guard: String,
    /// The taken branch's rationale.
    pub rationale: String,
    /// Branches rejected before the taken one, in tree order.
    pub rejected: Vec<RejectedBranch>,
}

impl Decision {
    /// The record of a tree walk that picked the algorithm displayed as
    /// `choice`, which materializes as `materialization`.
    pub fn walked<A>(e: Explained<A>, choice: &str, materialization: &str) -> Decision {
        Decision {
            pinned: false,
            rejected: e.rejected,
            ..Decision::pinned(choice, materialization, e.guard, e.rationale)
        }
    }

    /// The record of a choice fixed without walking a tree: `guard` says
    /// who pinned it, `rationale` why.
    pub fn pinned(choice: &str, materialization: &str, guard: &str, rationale: &str) -> Decision {
        Decision {
            pinned: true,
            choice: choice.to_string(),
            materialization: materialization.to_string(),
            guard: guard.to_string(),
            rationale: rationale.to_string(),
            rejected: Vec::new(),
        }
    }
}

/// Everything the planner knew when it picked a join algorithm: the inputs
/// it looked at, the statistics it sampled, and the [`Decision`] it made.
/// Captured at plan time by `engine::op`, rendered by `engine::explain`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinProvenance {
    /// Build-side rows at plan time.
    pub build_rows: usize,
    /// Probe-side rows at plan time.
    pub probe_rows: usize,
    /// Free device memory the chunk planner saw, bytes.
    pub free_mem_bytes: u64,
    /// The profile the tree branched on (`None` when the algorithm was
    /// pinned by the plan, skipping profiling entirely).
    pub profile: Option<WorkloadProfile>,
    /// The sampled statistics behind the profile (`None` when the profile
    /// came from optimizer knowledge rather than sampling).
    pub sampled: Option<EstimatedStats>,
    /// Chunk count the out-of-core planner settled on (1 = in-core).
    pub chunks: usize,
    /// The choice and how it was made.
    pub decision: Decision,
}

/// Everything the planner knew when it picked a grouped-aggregation
/// algorithm — the aggregation-side counterpart of [`JoinProvenance`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupByProvenance {
    /// Input rows at plan time.
    pub rows: usize,
    /// The profile the tree branched on (`None` when pinned).
    pub profile: Option<AggProfile>,
    /// The sampled grouping-key statistics (Chao1 estimate, skew signal).
    pub sampled: Option<EstimatedGroupStats>,
    /// The choice and how it was made.
    pub decision: Decision,
}

/// What the plan-rewrite fusion pass did at one fused node: which adjacent
/// Filter/Project plan nodes it collapsed, how selective the single fused
/// predicate turned out to be, and whether the node's output left as
/// materialized columns or as deferred row-id tickets — plus why.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionProvenance {
    /// Labels of the collapsed plan nodes, outermost last
    /// (e.g. `["Filter", "Project", "Filter"]`).
    pub steps: Vec<String>,
    /// Filter predicates merged into the single fused evaluation.
    pub predicates: usize,
    /// Input rows the fused predicate scanned.
    pub input_rows: usize,
    /// Rows surviving the selection (equal to `input_rows` with no filters).
    pub selected_rows: usize,
    /// Output columns deferred as tickets (base columns gathered later, at
    /// the materialization boundary).
    pub deferred_cols: usize,
    /// Output columns that are computed expressions (evaluated over the
    /// selection, not deferrable past a join).
    pub computed_cols: usize,
    /// True when this node materialized its output columns itself.
    pub materialized_here: bool,
    /// Why the output was deferred or materialized here (the ticket's
    /// lifetime boundary: plan root, or the consumer that takes tickets).
    pub boundary: String,
}

/// Decision provenance attached to an executed operator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Provenance {
    /// A join planner decision.
    Join(JoinProvenance),
    /// A grouped-aggregation planner decision.
    GroupBy(GroupByProvenance),
    /// An operator-fusion rewrite decision.
    Fusion(FusionProvenance),
}

impl Provenance {
    /// The planner decision this node records; `None` for a fusion
    /// rewrite, which describes its strategy in its own terms.
    pub fn decision(&self) -> Option<&Decision> {
        match self {
            Provenance::Join(j) => Some(&j.decision),
            Provenance::GroupBy(g) => Some(&g.decision),
            Provenance::Fusion(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_always_routes_to_phj_om() {
        let p = WorkloadProfile {
            skewed: true,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjOm);
        let narrow_skewed = WorkloadProfile {
            wide: false,
            skewed: true,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_join(&narrow_skewed).algorithm, Algorithm::PhjOm);
    }

    #[test]
    fn narrow_uniform_prefers_phj_um() {
        let p = WorkloadProfile {
            wide: false,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjUm);
    }

    #[test]
    fn low_match_ratio_avoids_gftr() {
        let p = WorkloadProfile {
            match_ratio: 0.1,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjUm);
        assert_eq!(choose_smj(&p).algorithm, Algorithm::SmjUm);
    }

    #[test]
    fn wide_high_match_uses_gftr() {
        let p = WorkloadProfile::default_wide();
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjOm);
        assert_eq!(choose_smj(&p).algorithm, Algorithm::SmjOm);
    }

    #[test]
    fn eight_byte_values_kill_smj_om_but_not_phj_om() {
        let p = WorkloadProfile {
            has_8byte: true,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_smj(&p).algorithm, Algorithm::SmjUm);
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjOm);
    }

    #[test]
    fn small_inputs_prefer_unoptimized_materialization() {
        let p = WorkloadProfile {
            small_inputs: true,
            ..WorkloadProfile::default_wide()
        };
        assert_eq!(choose_join(&p).algorithm, Algorithm::PhjUm);
        assert_eq!(choose_smj(&p).algorithm, Algorithm::SmjUm);
    }

    #[test]
    fn few_uniform_groups_stay_on_the_hash_table() {
        let p = AggProfile {
            rows: 1 << 24,
            est_groups: 1024,
            skewed: false,
            wide: true,
            l2_bytes: 40 << 20,
        };
        assert_eq!(choose_group_by(&p).algorithm, GroupByAlgorithm::HashGlobal);
    }

    #[test]
    fn skew_leaves_the_global_hash_table() {
        let p = AggProfile {
            rows: 1 << 24,
            est_groups: 1024,
            skewed: true,
            wide: true,
            l2_bytes: 40 << 20,
        };
        assert_ne!(choose_group_by(&p).algorithm, GroupByAlgorithm::HashGlobal);
    }

    #[test]
    fn many_groups_pick_a_transform_by_width() {
        let many = AggProfile {
            rows: 1 << 26,
            est_groups: 1 << 24,
            skewed: false,
            wide: true,
            l2_bytes: 40 << 20,
        };
        assert_eq!(
            choose_group_by(&many).algorithm,
            GroupByAlgorithm::PartitionedGftr
        );
        let narrow = AggProfile {
            wide: false,
            ..many
        };
        assert_eq!(
            choose_group_by(&narrow).algorithm,
            GroupByAlgorithm::PartitionedGfur
        );
    }

    #[test]
    fn logical_shapes_override_physical_ticket_relations() {
        use columnar::Column;
        let dev = sim::Device::a100();
        // The physical relation a late-materializing executor feeds a join:
        // key + one narrow i32 ticket column.
        let tickets = Relation::new(
            "tickets",
            Column::from_i32(&dev, (0..4096).collect(), "k"),
            vec![Column::from_i32(&dev, (0..4096).collect(), "ticket")],
        );
        let probe = Relation::new(
            "probe",
            Column::from_i32(&dev, (0..4096).collect(), "k"),
            vec![Column::from_i32(&dev, (0..4096).collect(), "p")],
        );
        // The logical input it stands for: two payloads, one 8-byte.
        let logical = SideShape {
            num_payloads: 2,
            has_8byte: true,
            size_bytes: 4096 * (4 + 4 + 8),
        };
        let stats = EstimatedStats {
            match_ratio: 1.0,
            top_key_share: 0.0,
            sample_size: 512,
        };
        let physical = profile_from_stats(
            &stats,
            &SideShape::of(&tickets),
            &SideShape::of(&probe),
            40 << 20,
        );
        let shaped = profile_from_stats(&stats, &logical, &SideShape::of(&probe), 40 << 20);
        assert!(!physical.wide && !physical.has_8byte);
        assert!(shaped.wide && shaped.has_8byte);
        // The eagerly materialized twin of the same input: identical tree
        // inputs, so the ticket relation picks the identical algorithm.
        let eager = Relation::new(
            "eager",
            Column::from_i32(&dev, (0..4096).collect(), "k"),
            vec![
                Column::from_i32(&dev, (0..4096).collect(), "p1"),
                Column::from_i64(&dev, (0..4096i64).collect(), "p2"),
            ],
        );
        let eager_profile = profile_from_stats(
            &stats,
            &SideShape::of(&eager),
            &SideShape::of(&probe),
            40 << 20,
        );
        assert_eq!(shaped, eager_profile, "logical shape == eager twin's shape");
        assert_eq!(
            choose_join(&shaped).algorithm,
            choose_join(&eager_profile).algorithm
        );
    }

    #[test]
    fn only_planner_decisions_carry_a_decision() {
        let fusion = Provenance::Fusion(FusionProvenance {
            steps: vec!["Filter".into(), "Project".into()],
            predicates: 1,
            input_rows: 100,
            selected_rows: 10,
            deferred_cols: 3,
            computed_cols: 1,
            materialized_here: false,
            boundary: "Join gathers through tickets".into(),
        });
        assert!(fusion.decision().is_none());
        let decision = Decision::pinned("HASH", "GFUR", "pinned by plan", "fixed");
        let group_by = Provenance::GroupBy(GroupByProvenance {
            rows: 100,
            profile: None,
            sampled: None,
            decision: decision.clone(),
        });
        assert_eq!(group_by.decision(), Some(&decision));
    }

    #[test]
    fn profile_detects_widths_and_size() {
        use columnar::Column;
        let dev = sim::Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![1, 2], "k"),
            vec![Column::from_i64(&dev, vec![1, 2], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, vec![1, 2], "k"),
            vec![
                Column::from_i32(&dev, vec![1, 2], "p"),
                Column::from_i32(&dev, vec![1, 2], "q"),
            ],
        );
        let p = profile_of(&r, &s, 1.0, 0.0, 40 << 20);
        assert!(p.wide, "S has two payload columns");
        assert!(p.has_8byte, "R payload is 8-byte");
        assert!(p.small_inputs);
        assert!(!p.skewed);
    }
}
