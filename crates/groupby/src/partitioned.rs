//! Radix-partitioned grouped aggregation through [`crate::run_group_by`] —
//! the PHJ-OM analog, `Transform::Radix` in [`crate::driver`]: stable radix
//! partition by the group key so every partition's groups fit a
//! shared-memory table, then aggregate partition-locally.
//!
//! PART-OM (GFTR) partitions every aggregate column with the keys
//! (stability makes the layouts identical) and aggregates each with a
//! streaming pass; PART-UM (GFUR) partitions `(key, ID)` once and fetches
//! values with unclustered gathers.
//!
//! Group finding probes [`primitives::PartitionTable`], the host's one
//! shared-memory table (PHJ match finding's too), sized per partition; its
//! kernel charges streaming traffic only, so the table moves no simulated
//! number.

#[cfg(test)]
mod tests {
    use crate::oracle::group_by_oracle;
    use crate::{run_group_by, AggFn, GroupByAlgorithm, GroupByConfig};
    use columnar::{Column, Relation};
    use sim::Device;

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn], config: &GroupByConfig) {
        use GroupByAlgorithm::{PartitionedGftr, PartitionedGfur};
        for alg in [PartitionedGftr, PartitionedGfur] {
            let out = run_group_by(dev, alg, input, aggs, config);
            assert_eq!(out.rows_sorted(), group_by_oracle(input, aggs), "{alg}");
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
        let part_om = GroupByAlgorithm::PartitionedGftr;
        let out = run_group_by(&dev, part_om, &input, &[], &GroupByConfig::default());
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
        let run = |alg| run_group_by(&dev, alg, &input, &[AggFn::Sum], &cfg);
        let part = run(GroupByAlgorithm::PartitionedGftr);
        let hash = run(GroupByAlgorithm::HashGlobal);
        assert_eq!(part.rows_sorted(), hash.rows_sorted());
        assert!(
            part.stats.phases.total() < hash.stats.phases.total(),
            "partitioned {} should beat contended hash {}",
            part.stats.phases.total(),
            hash.stats.phases.total()
        );
    }
}
