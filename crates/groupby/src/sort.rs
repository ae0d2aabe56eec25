//! Sort-based grouped aggregation: sort by key, detect group boundaries,
//! reduce each segment.
//!
//! The GFTR variant sorts every aggregate column together with the keys
//! (stable radix sort → identical layouts), turning the per-column reduce
//! into a pure streaming pass. The GFUR variant sorts `(key, ID)` once and
//! fetches values through unclustered gathers — cheaper transform, costlier
//! aggregation, exactly the join study's trade-off.

use crate::{AggFn, GroupByConfig, GroupByOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{gather_column, iota, run_boundaries, timed_phase, KeyOrder, STREAM_WARP_INSTR};
use sim::{Device, DeviceBuffer, OpStats, PhaseTimes};

/// Segmented fold of a (already ordered) column: one streaming read, one
/// `|G|`-sized write.
fn segmented_fold(dev: &Device, col: &Column, boundaries: &[u32], agg: AggFn) -> Column {
    let groups = boundaries.len().saturating_sub(1);
    let out = columnar::dispatch_column!(col, |vals| {
        boundaries
            .windows(2)
            .map(|w| {
                vals[w[0] as usize..w[1] as usize]
                    .iter()
                    .fold(agg.identity(), |acc, &v| agg.fold(acc, v))
            })
            .collect()
    });
    dev.kernel("segmented_fold")
        .items(col.len() as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(col.len() as u64 * col.dtype().size())
        .seq_write_bytes(groups as u64 * 8)
        .launch();
    Column::from_i64(dev, out, "sort_gb.agg")
}

/// Sort-based grouped aggregation; `gftr` selects the materialization
/// pattern (see module docs).
pub fn sort_groupby(
    dev: &Device,
    input: &Relation,
    aggs: &[AggFn],
    _config: &GroupByConfig,
    gftr: bool,
) -> GroupByOutput {
    fn typed<K: ColumnElement>(
        keys: &DeviceBuffer<K>,
        dev: &Device,
        input: &Relation,
        aggs: &[AggFn],
        gftr: bool,
    ) -> GroupByOutput {
        dev.reset_peak_mem();
        let mut phases = PhaseTimes::default();

        // Transformation: GFTR sorts (key, col_0); GFUR sorts (key, ID). The
        // keys' order is computed once for every column GFTR sorts.
        let order = KeyOrder::sort(keys, if gftr { aggs.len() } else { 1 });
        let ((sorted_keys, mut first_col, sorted_ids), t) = timed_phase(dev, "transform", || {
            if gftr && !input.payloads().is_empty() {
                let (k, c, _) = order.apply_column(dev, input.payload(0));
                (k, Some(c), None)
            } else {
                let ids = iota(dev, keys.len(), "sort_gb.ids");
                let (k, v, _) = order.apply(dev, &ids);
                (k, None, Some(v))
            }
        });
        phases.transform = t;

        // Group finding: boundary detection over the sorted keys.
        let (boundaries, t) = timed_phase(dev, "match_find", || {
            run_boundaries(dev, sorted_keys.as_slice())
        });
        phases.match_find = t;
        let groups = boundaries.len() - 1;

        // Aggregation. (`_starts` is handed out of the phase: it is freed
        // with the rest of the working state, after the phase closes.)
        let ((aggregates, group_keys, _starts), t) = timed_phase(dev, "materialize", || {
            let mut aggregates = Vec::with_capacity(aggs.len());
            for (j, agg) in aggs.iter().enumerate() {
                let ordered: Column = if gftr {
                    // Column 0 was sorted in the transformation phase.
                    first_col
                        .take()
                        .unwrap_or_else(|| order.apply_column(dev, input.payload(j)).1)
                } else {
                    // GFUR: unclustered gather through the sorted IDs.
                    let ids = sorted_ids.as_ref().expect("gfur sorted ids");
                    gather_column(dev, input.payload(j), ids)
                };
                aggregates.push(segmented_fold(dev, &ordered, &boundaries, *agg));
            }
            // Group keys: one value per segment start (clustered gather).
            let starts = dev.upload(boundaries[..groups].to_vec(), "sort_gb.starts");
            let group_keys = primitives::gather(dev, &sorted_keys, &starts);
            (aggregates, group_keys, starts)
        });
        phases.materialize = t;

        GroupByOutput {
            keys: K::wrap(group_keys),
            aggregates,
            stats: OpStats::new(phases, groups, dev.mem_report().peak_bytes),
        }
    }
    columnar::dispatch_column!(input.key(), |k| typed(k, dev, input, aggs, gftr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::group_by_oracle;
    use columnar::Column;
    use sim::Device;

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn]) {
        for gftr in [true, false] {
            let out = sort_groupby(dev, input, aggs, &GroupByConfig::default(), gftr);
            assert_eq!(
                out.rows_sorted(),
                group_by_oracle(input, aggs),
                "gftr={gftr}"
            );
        }
    }

    #[test]
    fn matches_oracle() {
        let dev = Device::a100();
        let keys: Vec<i32> = (0..3000).map(|i| (i * 11) % 113).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![
                Column::from_i64(&dev, keys.iter().map(|&k| k as i64 * 5).collect(), "v"),
                Column::from_i32(&dev, keys.iter().map(|&k| 200 - k).collect(), "w"),
            ],
        );
        check(&dev, &input, &[AggFn::Min, AggFn::Sum]);
        check(&dev, &input, &[AggFn::Max, AggFn::Count]);
    }

    #[test]
    fn single_group_and_all_distinct() {
        let dev = Device::a100();
        let one = Relation::new(
            "T",
            Column::from_i32(&dev, vec![7; 100], "k"),
            vec![Column::from_i32(&dev, (0..100).collect(), "v")],
        );
        check(&dev, &one, &[AggFn::Sum]);
        let distinct = Relation::new(
            "T",
            Column::from_i32(&dev, (0..100).rev().collect(), "k"),
            vec![Column::from_i32(&dev, (0..100).collect(), "v")],
        );
        check(&dev, &distinct, &[AggFn::Max]);
    }

    #[test]
    fn empty_and_payloadless() {
        let dev = Device::a100();
        let empty = Relation::new("T", Column::from_i32(&dev, vec![], "k"), vec![]);
        check(&dev, &empty, &[]);
        // Payload-less distinct: grouping only.
        let distinct = Relation::new("T", Column::from_i32(&dev, vec![3, 1, 3, 2], "k"), vec![]);
        let out = sort_groupby(&dev, &distinct, &[], &GroupByConfig::default(), true);
        assert_eq!(out.rows_sorted(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn gftr_has_cheaper_aggregation_for_wide_inputs() {
        // Shrunken L2 so the unclustered gathers of GFUR pay DRAM latency.
        let mut cfg = sim::DeviceConfig::rtx3090();
        cfg.l2_bytes = 1 << 20;
        let dev = Device::new(cfg);
        let n = 1 << 21;
        let mut keys: Vec<i32> = (0..n).map(|i| i % (1 << 18)).collect();
        // Shuffle so sorted order scrambles the IDs.
        let mut state = 0xD1B54A32D192ED03u64;
        for i in (1..keys.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![
                Column::from_i32(&dev, keys.iter().map(|&k| k + 1).collect(), "a"),
                Column::from_i32(&dev, keys.iter().map(|&k| k + 2).collect(), "b"),
                Column::from_i32(&dev, keys.iter().map(|&k| k + 3).collect(), "c"),
                Column::from_i32(&dev, keys.iter().map(|&k| k + 4).collect(), "d"),
            ],
        );
        let aggs = [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Sum];
        let cfg = GroupByConfig::default();
        let om = sort_groupby(&dev, &input, &aggs, &cfg, true);
        let um = sort_groupby(&dev, &input, &aggs, &cfg, false);
        assert_eq!(om.rows_sorted(), um.rows_sorted());
        assert!(
            om.stats.phases.total() < um.stats.phases.total(),
            "GFTR {} should beat GFUR {} on 4 aggregate columns",
            om.stats.phases.total(),
            um.stats.phases.total()
        );
    }
}
