//! Global hash-table aggregation: the baseline grouped aggregation, one
//! atomic update per row per aggregate column into a table in device memory.
//!
//! Strong when the group count is small (the table is L2-resident) but
//! degrades on large group cardinalities (random misses) and on heavy key
//! skew (atomic serialization on the hottest group) — the same two effects
//! that shape the non-partitioned hash *join*.

use crate::{AggFn, GroupByConfig, GroupByOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{linear_probe_slots, timed_phase, GLOBAL_HASH_WARP_INSTR, STREAM_WARP_INSTR};
use sim::{Device, DeviceBuffer, Element, OpStats, PhaseTimes};

/// Global hash aggregation (see module docs).
pub fn hash_groupby(
    dev: &Device,
    input: &Relation,
    aggs: &[AggFn],
    config: &GroupByConfig,
) -> GroupByOutput {
    fn typed<K: ColumnElement>(
        keys: &DeviceBuffer<K>,
        dev: &Device,
        input: &Relation,
        aggs: &[AggFn],
        config: &GroupByConfig,
    ) -> GroupByOutput {
        dev.reset_peak_mem();
        let mut phases = PhaseTimes::default();
        let n = keys.len();

        // Real GPU implementations size the table for the worst case (every
        // row its own group) unless told otherwise.
        let cap = config.expected_groups.unwrap_or(n).max(1);
        let slots = (cap * 2).next_power_of_two();
        // The table's keys live in simulated memory only: the L2 model reads
        // their slot addresses, the host never their contents.
        let table_keys = dev.reserve(slots as u64 * u64::SIZE, "hash_gb.keys");
        let mut occupied: Vec<u32> = vec![u32::MAX; slots]; // group index per slot
        let mut group_keys: Vec<K> = Vec::new();
        let mut group_counts: Vec<u64> = Vec::new();
        let mut row_group = dev.alloc::<u32>(n, "hash_gb.row_group");

        // Group finding: one pass assigning each row its group id, chasing
        // random table slots.
        let ((), t) = timed_phase(dev, "match_find", || {
            let row_group = row_group.as_mut_slice();
            let touched =
                linear_probe_slots(keys.iter().map(|k| k.to_radix()), slots - 1, |i, _, s| {
                    let g = match occupied[s] {
                        u32::MAX => {
                            let g = group_keys.len() as u32;
                            occupied[s] = g;
                            group_keys.push(keys[i]);
                            group_counts.push(0);
                            g
                        }
                        g if group_keys[g as usize] == keys[i] => g,
                        _ => return true,
                    };
                    group_counts[g as usize] += 1;
                    row_group[i] = g;
                    false
                })
                .map(|s| table_keys.base_addr() + s as u64 * u64::SIZE);
            dev.kernel("hash_gb.build")
                .items(n as u64, GLOBAL_HASH_WARP_INSTR)
                .seq_read_bytes(n as u64 * K::SIZE)
                .warp_loads(12, touched)
                .seq_write_bytes(n as u64 * 4)
                .launch();
        });
        phases.match_find = t;
        let groups = group_keys.len();
        let hottest = group_counts.iter().copied().max().unwrap_or(0);

        // Aggregation: one pass per column. When the group set fits in
        // shared memory, thread blocks pre-aggregate into private tables and
        // merge once per block at the end — the standard privatization that
        // keeps low-cardinality aggregation off the global atomic units.
        // Otherwise every row's update lands at a random global accumulator
        // (atomics, contended on the hottest group).
        let privatized = (groups as u64) <= dev.config().shared_mem_tuples(16);
        let blocks = (dev.config().sms * 4) as u64;
        let (aggregates, t) = timed_phase(dev, "materialize", || {
            let mut aggregates = Vec::with_capacity(aggs.len());
            for (j, agg) in aggs.iter().enumerate() {
                let col = input.payload(j);
                let mut accs = dev.alloc::<i64>(groups, "hash_gb.accs");
                let acc = accs.as_mut_slice();
                acc.fill(agg.identity());
                agg.fold_by_group(col, &row_group, acc);
                if privatized {
                    dev.kernel("hash_gb.aggregate.privatized")
                        .items(n as u64, STREAM_WARP_INSTR)
                        .seq_read_bytes(n as u64 * (col.dtype().size() + 4))
                        // Cross-block merge: one partial table per block.
                        .seq_write_bytes(blocks * groups as u64 * 8)
                        .atomics(blocks * groups as u64, blocks)
                        .launch();
                } else {
                    let accs_addrs = row_group.iter().map(|&g| accs.addr_of(g as usize));
                    dev.kernel("hash_gb.aggregate.global")
                        .items(n as u64, STREAM_WARP_INSTR)
                        .seq_read_bytes(n as u64 * (col.dtype().size() + 4))
                        .warp_stores(8, accs_addrs)
                        .atomics(n as u64, hottest)
                        .launch();
                }
                aggregates.push(Column::from_i64(dev, accs.to_vec(), "hash_gb.out"));
            }
            // Compact the table into the output key column (streaming scan of
            // the slots).
            dev.kernel("hash_gb.compact")
                .items(slots as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(slots as u64 * 12)
                .seq_write_bytes(groups as u64 * K::SIZE)
                .launch();
            aggregates
        });
        phases.materialize = t;
        drop((table_keys, row_group));

        GroupByOutput {
            keys: K::wrap(dev.upload(group_keys, "hash_gb.group_keys")),
            aggregates,
            stats: OpStats::new(phases, groups, dev.mem_report().peak_bytes),
        }
    }
    columnar::dispatch_column!(input.key(), |k| typed(k, dev, input, aggs, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::group_by_oracle;
    use columnar::Column;
    use sim::Device;

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn]) {
        let out = hash_groupby(dev, input, aggs, &GroupByConfig::default());
        assert_eq!(out.rows_sorted(), group_by_oracle(input, aggs));
    }

    #[test]
    fn matches_oracle() {
        let dev = Device::a100();
        let keys: Vec<i32> = (0..5000).map(|i| (i * 7) % 97).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![
                Column::from_i32(&dev, keys.iter().map(|&k| k * 3).collect(), "v"),
                Column::from_i64(&dev, keys.iter().map(|&k| -(k as i64)).collect(), "w"),
            ],
        );
        check(&dev, &input, &[AggFn::Sum, AggFn::Min]);
        check(&dev, &input, &[AggFn::Count, AggFn::Max]);
    }

    #[test]
    fn i64_keys_and_negative_values() {
        let dev = Device::a100();
        let keys: Vec<i64> = (0..1000)
            .map(|i| ((i % 13) - 6) as i64 * 1_000_000_000)
            .collect();
        let input = Relation::new(
            "T",
            Column::from_i64(&dev, keys.clone(), "k"),
            vec![Column::from_i32(
                &dev,
                (0..1000).map(|i| i - 500).collect(),
                "v",
            )],
        );
        check(&dev, &input, &[AggFn::Sum]);
    }

    #[test]
    fn empty_input() {
        let dev = Device::a100();
        let input = Relation::new("T", Column::from_i32(&dev, vec![], "k"), vec![]);
        let out = hash_groupby(&dev, &input, &[], &GroupByConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn all_rows_one_group() {
        let dev = Device::a100();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, vec![42; 1000], "k"),
            vec![Column::from_i32(&dev, (0..1000).collect(), "v")],
        );
        let out = hash_groupby(&dev, &input, &[AggFn::Sum], &GroupByConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows_sorted(), vec![vec![42, 499_500]]);
    }

    #[test]
    fn skewed_keys_pay_atomic_contention() {
        // Group domains beyond the shared-memory capacity force the global
        // atomic path, where a hot group serializes. (Small domains take the
        // privatized path and are immune — by design.)
        let dev = Device::a100();
        let n = 1 << 17;
        let uniform: Vec<i32> = (0..n).map(|i| i % 65536).collect();
        let skewed: Vec<i32> = (0..n)
            .map(|i| if i % 10 == 0 { i % 65536 } else { 1 })
            .collect();
        let mk = |keys: Vec<i32>| {
            Relation::new(
                "T",
                Column::from_i32(&dev, keys.clone(), "k"),
                vec![Column::from_i32(&dev, keys, "v")],
            )
        };
        let cfg = GroupByConfig::default();
        let t_uniform = hash_groupby(&dev, &mk(uniform), &[AggFn::Sum], &cfg)
            .stats
            .phases
            .total();
        let t_skewed = hash_groupby(&dev, &mk(skewed), &[AggFn::Sum], &cfg)
            .stats
            .phases
            .total();
        assert!(
            t_skewed.secs() > 1.5 * t_uniform.secs(),
            "skewed {t_skewed} vs uniform {t_uniform}"
        );
    }
}
