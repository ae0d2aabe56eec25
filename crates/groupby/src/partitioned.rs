//! Radix-partitioned grouped aggregation — the PHJ-OM analog: stable radix
//! partition by the group key so every partition's groups fit a
//! shared-memory table, then aggregate partition-locally.
//!
//! GFTR partitions every aggregate column with the keys (stability makes the
//! layouts identical) and aggregates each with a streaming pass; GFUR
//! partitions `(key, ID)` once and fetches values with unclustered gathers.
//!
//! Group finding probes [`primitives::PartitionTable`], the host's one
//! shared-memory table (PHJ match finding's too), sized per partition; its
//! kernel charges streaming traffic only, so the table moves no simulated
//! number.

use crate::{AggFn, GroupByConfig, GroupByOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{
    gather_column, iota, timed_phase, KeyOrder, PartitionTable, BUILD_WARP_INSTR, STREAM_WARP_INSTR,
};
use sim::{Device, DeviceBuffer, OpStats, PhaseTimes};

fn choose_bits(dev: &Device, n: usize, key_bytes: u64, config: &GroupByConfig) -> u32 {
    if let Some(b) = config.radix_bits {
        return b;
    }
    let target = dev.config().shared_mem_tuples(key_bytes + 8).max(64);
    let parts = (n as u64).div_ceil(target).max(1);
    (64 - (parts - 1).leading_zeros()).clamp(1, 16)
}

/// Radix-partitioned grouped aggregation; `gftr` selects the pattern.
pub fn partitioned_groupby(
    dev: &Device,
    input: &Relation,
    aggs: &[AggFn],
    config: &GroupByConfig,
    gftr: bool,
) -> GroupByOutput {
    fn typed<K: ColumnElement>(
        keys: &DeviceBuffer<K>,
        dev: &Device,
        input: &Relation,
        aggs: &[AggFn],
        config: &GroupByConfig,
        gftr: bool,
    ) -> GroupByOutput {
        dev.reset_peak_mem();
        let mut phases = PhaseTimes::default();
        let n = keys.len();
        let bits = choose_bits(dev, n.max(1), K::SIZE, config);

        // Transformation: partition keys with col_0 (GFTR) or with IDs
        // (GFUR). Offsets come from the partitioner's histogram + scan. The
        // keys' order is computed once for every column GFTR partitions.
        let order = KeyOrder::partition(keys, bits, if gftr { aggs.len() } else { 1 });
        let ((part_keys, offsets, mut first_col, part_ids), t) =
            timed_phase(dev, "transform", || {
                if gftr && !input.payloads().is_empty() {
                    let (k, c, offsets) = order.apply_column(dev, input.payload(0));
                    (k, offsets, Some(c), None)
                } else {
                    let ids = iota(dev, n, "part_gb.ids");
                    let (k, v, offsets) = order.apply(dev, &ids);
                    (k, offsets, None, Some(v))
                }
            });
        phases.transform = t;

        // Group finding: per-partition shared-memory tables assign each row
        // a global group id, in first-seen order of the partitioned scan
        // (one streaming pass writing the group-id column and the distinct
        // keys).
        let ((group_keys, row_group), t) = timed_phase(dev, "match_find", || {
            let mut group_keys: Vec<K> = Vec::new();
            let mut row_group: Vec<u32> = Vec::with_capacity(n);
            let mut table = PartitionTable::default();
            for w in offsets.windows(2) {
                let part = &part_keys[w[0] as usize..w[1] as usize];
                if part.is_empty() {
                    continue;
                }
                table.reset(part.len());
                for pk in part {
                    row_group.push(table.get_or_insert(pk.to_radix(), || {
                        group_keys.push(*pk);
                        group_keys.len() as u32 - 1
                    }));
                }
            }
            dev.kernel("part_gb.group_find")
                .items(n as u64, BUILD_WARP_INSTR)
                .seq_read_bytes(n as u64 * K::SIZE)
                .seq_write_bytes(n as u64 * 4 + group_keys.len() as u64 * K::SIZE)
                .launch();
            (group_keys, dev.upload(row_group, "part_gb.row_group"))
        });
        phases.match_find = t;
        let groups = group_keys.len();

        // Aggregation: per column. GFTR re-partitions the column (identical
        // layout by stability) and streams; GFUR gathers unclustered.
        let (aggregates, t) = timed_phase(dev, "materialize", || {
            let mut aggregates = Vec::with_capacity(aggs.len());
            for (j, agg) in aggs.iter().enumerate() {
                let ordered: Column = if gftr {
                    // Column 0 was partitioned in the transformation phase.
                    first_col
                        .take()
                        .unwrap_or_else(|| order.apply_column(dev, input.payload(j)).1)
                } else {
                    let ids = part_ids.as_ref().expect("gfur partitioned ids");
                    gather_column(dev, input.payload(j), ids)
                };
                // Streaming fold into shared-memory accumulators (group ids
                // are partition-local on hardware; charged as a streaming
                // pass).
                let mut accs = vec![agg.identity(); groups];
                agg.fold_by_group(&ordered, &row_group, &mut accs);
                dev.kernel("part_gb.aggregate")
                    .items(n as u64, STREAM_WARP_INSTR)
                    .seq_read_bytes(n as u64 * (ordered.dtype().size() + 4))
                    .seq_write_bytes(groups as u64 * 8)
                    .launch();
                aggregates.push(Column::from_i64(dev, accs, "part_gb.out"));
            }
            aggregates
        });
        phases.materialize = t;

        GroupByOutput {
            keys: K::wrap(dev.upload(group_keys, "part_gb.group_keys")),
            aggregates,
            stats: OpStats::new(phases, groups, dev.mem_report().peak_bytes),
        }
    }
    columnar::dispatch_column!(input.key(), |k| typed(k, dev, input, aggs, config, gftr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::group_by_oracle;
    use columnar::Column;
    use sim::Device;

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn], config: &GroupByConfig) {
        for gftr in [true, false] {
            let out = partitioned_groupby(dev, input, aggs, config, gftr);
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
        let keys: Vec<i32> = (0..4000).map(|i| (i * 17) % 257).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![
                Column::from_i32(&dev, keys.iter().map(|&k| k * 2).collect(), "v"),
                Column::from_i64(&dev, keys.iter().map(|&k| 1000 - k as i64).collect(), "w"),
            ],
        );
        check(
            &dev,
            &input,
            &[AggFn::Sum, AggFn::Min],
            &GroupByConfig::default(),
        );
    }

    #[test]
    fn explicit_bits_partition_groups_correctly() {
        let dev = Device::a100();
        let keys: Vec<i32> = (0..2000).map(|i| (i % 700) - 350).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![Column::from_i32(
                &dev,
                keys.iter().map(|&k| k.abs()).collect(),
                "v",
            )],
        );
        for bits in [1, 5, 9] {
            check(
                &dev,
                &input,
                &[AggFn::Max],
                &GroupByConfig {
                    radix_bits: Some(bits),
                    ..GroupByConfig::default()
                },
            );
        }
    }

    #[test]
    fn i64_keys() {
        let dev = Device::a100();
        let keys: Vec<i64> = (0..1500).map(|i| ((i % 37) as i64) << 33).collect();
        let input = Relation::new(
            "T",
            Column::from_i64(&dev, keys.clone(), "k"),
            vec![Column::from_i32(&dev, (0..1500).collect(), "v")],
        );
        check(&dev, &input, &[AggFn::Sum], &GroupByConfig::default());
    }

    #[test]
    fn empty_input() {
        let dev = Device::a100();
        let input = Relation::new("T", Column::from_i32(&dev, vec![], "k"), vec![]);
        let out = partitioned_groupby(&dev, &input, &[], &GroupByConfig::default(), true);
        assert!(out.is_empty());
    }

    #[test]
    fn partitioning_is_skew_robust_compared_to_hash() {
        // The radix partitioner gives every thread equal work regardless of
        // the key distribution; the global hash table serializes on the hot
        // group. (Figure 14's story carried over to aggregation.)
        let dev = Device::a100();
        let n = 1 << 17;
        // Wide group domain: too many groups for shared-memory
        // privatization, so the hash table pays hot-group atomics.
        let skewed: Vec<i32> = (0..n)
            .map(|i| if i % 10 == 0 { i % 65536 } else { 1 })
            .collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, skewed.clone(), "k"),
            vec![Column::from_i32(&dev, skewed, "v")],
        );
        let cfg = GroupByConfig::default();
        let part = partitioned_groupby(&dev, &input, &[AggFn::Sum], &cfg, true);
        let hash = crate::hash::hash_groupby(&dev, &input, &[AggFn::Sum], &cfg);
        assert_eq!(part.rows_sorted(), hash.rows_sorted());
        assert!(
            part.stats.phases.total() < hash.stats.phases.total(),
            "partitioned {} should beat contended hash {}",
            part.stats.phases.total(),
            hash.stats.phases.total()
        );
    }
}
