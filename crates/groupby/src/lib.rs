//! # groupby — grouped aggregations on the simulated GPU
//!
//! The grouped-aggregation half of *Efficiently Processing Joins and Grouped
//! Aggregations on GPUs*: the same three-phase framework as the joins
//! (transform → group finding → per-column aggregation) with the same two
//! transformation strategies and the same GFUR/GFTR choice. `driver.rs`
//! holds that computation once; a [`GroupByAlgorithm`] is a row of this
//! table (`GroupByAlgorithm::recipe` in code):
//!
//! | algorithm | transform | pattern | group finding | per-column aggregation |
//! |---|---|---|---|---|
//! | HASH    | none | in-place | global hash table, row → group id | atomic updates into global accumulators (random access), privatized when the groups fit shared memory |
//! | SORT-OM | sort every column with the keys | GFTR | segment boundaries of the sorted keys | streaming segmented reduce |
//! | SORT-UM | sort `(key, ID)` once | GFUR | segment boundaries of the sorted keys | unclustered gather, then segmented reduce |
//! | PART-OM | stable radix partition, every column | GFTR | shared-memory table per partition | streaming fold into shared-memory accumulators |
//! | PART-UM | stable radix partition `(key, ID)` once | GFUR | shared-memory table per partition | unclustered gather, then the same fold |
//!
//! The trade-off mirrors the join study: with many aggregated columns and
//! large inputs, transforming every column (GFTR) converts the random
//! accesses of aggregation into sequential ones; with few groups, the global
//! hash table is L2-resident and hard to beat (but suffers atomic contention
//! on heavily skewed keys).

mod driver;
pub mod oracle;

// Per-algorithm test suites: each module holds only the documentation of its
// algorithm's row and the unit tests that drive it through `run_group_by`.
mod hash;
mod partitioned;
mod sort;

use columnar::{Column, Relation};
use driver::Transform;
use primitives::Pattern;
use serde::{Deserialize, Serialize};
use sim::{Device, OpStats};

/// Aggregate function applied to one payload column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFn {
    /// Sum of values (widened to `i64`).
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Number of rows in the group (the payload column is only used for its
    /// length).
    Count,
}

impl AggFn {
    /// Neutral accumulator start value.
    pub fn identity(self) -> i64 {
        match self {
            AggFn::Sum | AggFn::Count => 0,
            AggFn::Min => i64::MAX,
            AggFn::Max => i64::MIN,
        }
    }

    /// Fold one value, widened to `i64`, into an accumulator.
    #[inline]
    pub fn fold(self, acc: i64, v: impl Into<i64>) -> i64 {
        let v = v.into();
        match self {
            AggFn::Sum => acc + v,
            AggFn::Min => acc.min(v),
            AggFn::Max => acc.max(v),
            AggFn::Count => acc + 1,
        }
    }

    /// Fold `col` into one accumulator per group, row `i` into
    /// `accs[row_group[i]]`: the per-row loop of the HASH and PART
    /// aggregation kernels, with one type dispatch per column.
    pub(crate) fn fold_by_group(self, col: &Column, row_group: &[u32], accs: &mut [i64]) {
        columnar::dispatch_column!(col, |vals| {
            for (&g, &v) in row_group.iter().zip(vals.iter()) {
                let acc = &mut accs[g as usize];
                *acc = self.fold(*acc, v);
            }
        })
    }

    /// Merge two partial accumulators (used by per-block pre-aggregation).
    #[inline]
    pub fn merge(self, a: i64, b: i64) -> i64 {
        match self {
            AggFn::Sum | AggFn::Count => a + b,
            AggFn::Min => a.min(b),
            AggFn::Max => a.max(b),
        }
    }
}

/// Which grouped-aggregation implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupByAlgorithm {
    /// Global hash table with atomic updates.
    HashGlobal,
    /// Sort-based, GFTR materialization (sort every column with the keys).
    SortGftr,
    /// Sort-based, GFUR materialization (sort IDs, gather unclustered).
    SortGfur,
    /// Radix-partitioned, GFTR materialization.
    PartitionedGftr,
    /// Radix-partitioned, GFUR materialization.
    PartitionedGfur,
}

impl GroupByAlgorithm {
    /// Display name for benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            GroupByAlgorithm::HashGlobal => "HASH",
            GroupByAlgorithm::SortGftr => "SORT-OM",
            GroupByAlgorithm::SortGfur => "SORT-UM",
            GroupByAlgorithm::PartitionedGftr => "PART-OM",
            GroupByAlgorithm::PartitionedGfur => "PART-UM",
        }
    }

    /// The `(transform, pattern)` of an algorithm plus the allocation label
    /// of the ID column a sort/radix transform creates. HASH transforms
    /// nothing and aggregates the input columns where they are, so its
    /// pattern is GFUR's and it has no ID column.
    #[rustfmt::skip]
    pub(crate) fn recipe(self) -> (Transform, Pattern, &'static str) {
        use {GroupByAlgorithm::*, Pattern::*, Transform as T};
        match self {
            HashGlobal      => (T::None,  Gfur, ""),
            SortGftr        => (T::Sort,  Gftr, "sort_gb.ids"),
            SortGfur        => (T::Sort,  Gfur, "sort_gb.ids"),
            PartitionedGftr => (T::Radix, Gftr, "part_gb.ids"),
            PartitionedGfur => (T::Radix, Gfur, "part_gb.ids"),
        }
    }

    /// The materialization strategy label: `"GFTR"` when every aggregated
    /// column is transformed with the keys, `"GFUR"` when only (key, ID)
    /// pairs are transformed and values are gathered unclustered,
    /// `"in-place"` for the global hash table (no transformation at all).
    pub fn materialization(self) -> &'static str {
        match self.recipe() {
            (Transform::None, _, _) => "in-place",
            (_, pattern, _) => pattern.label(),
        }
    }

    /// Every implementation, for sweep benchmarks.
    pub const ALL: [GroupByAlgorithm; 5] = [
        GroupByAlgorithm::HashGlobal,
        GroupByAlgorithm::SortGftr,
        GroupByAlgorithm::SortGfur,
        GroupByAlgorithm::PartitionedGftr,
        GroupByAlgorithm::PartitionedGfur,
    ];
}

impl std::fmt::Display for GroupByAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for the grouped aggregations.
#[derive(Debug, Clone, Default)]
pub struct GroupByConfig {
    /// Radix bits for the partitioned variant; `None` auto-sizes.
    pub radix_bits: Option<u32>,
}

/// Result of a grouped aggregation: one row per group.
pub struct GroupByOutput {
    /// Distinct group keys (order is implementation-defined).
    pub keys: Column,
    /// One aggregate column per requested [`AggFn`], widened to `i64`.
    pub aggregates: Vec<Column>,
    /// Timing, memory and hardware-counter report; [`OpStats::rows`] is
    /// the group count.
    pub stats: OpStats,
}

impl GroupByOutput {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the input had no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Rows as `(key, aggregates...)`, sorted by key — order-insensitive
    /// form for oracle comparison.
    pub fn rows_sorted(&self) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..self.len())
            .map(|i| {
                let mut row = Vec::with_capacity(1 + self.aggregates.len());
                row.push(self.keys.value(i));
                row.extend(self.aggregates.iter().map(|c| c.value(i)));
                row
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// The aggregation request: `aggs[i]` applies to payload column `i` of the
/// input relation. Panics if the lengths differ.
pub fn run_group_by(
    dev: &Device,
    algorithm: GroupByAlgorithm,
    input: &Relation,
    aggs: &[AggFn],
    config: &GroupByConfig,
) -> GroupByOutput {
    assert_eq!(
        aggs.len(),
        input.num_payloads(),
        "need exactly one aggregate function per payload column"
    );
    let before = dev.counters();
    let t0 = dev.elapsed();
    let mut out = columnar::dispatch_column!(input.key(), |k| {
        driver::typed(k, dev, input, aggs, config, algorithm.recipe())
    });
    out.stats.counters = dev.counters().delta_since(&before).0;
    out.stats.query = dev.query_id();
    dev.trace_span(sim::SpanCat::GroupBy, algorithm.name(), t0, dev.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggfn_identities_and_folds() {
        assert_eq!(AggFn::Sum.fold(AggFn::Sum.identity(), 5), 5);
        assert_eq!(AggFn::Min.fold(AggFn::Min.identity(), 5), 5);
        assert_eq!(AggFn::Max.fold(AggFn::Max.identity(), -5), -5);
        assert_eq!(AggFn::Count.fold(AggFn::Count.identity(), 123), 1);
        assert_eq!(AggFn::Sum.merge(3, 4), 7);
        assert_eq!(AggFn::Min.merge(3, 4), 3);
        assert_eq!(AggFn::Max.merge(3, 4), 4);
        assert_eq!(AggFn::Count.merge(3, 4), 7);
    }
}
