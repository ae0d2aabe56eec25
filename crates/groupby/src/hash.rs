//! Global hash-table aggregation (HASH) through [`crate::run_group_by`]:
//! the baseline grouped aggregation, `Transform::None` in [`crate::driver`].
//! Group finding assigns every row a group id in one global table in device
//! memory; aggregation then makes one atomic update per row per aggregate
//! column, or pre-aggregates per thread block when the groups fit shared
//! memory.
//!
//! Strong when the group count is small (the table is L2-resident) but
//! degrades on large group cardinalities (random misses) and on heavy key
//! skew (atomic serialization on the hottest group) — the same two effects
//! that shape the non-partitioned hash *join*.

#[cfg(test)]
mod tests {
    use crate::oracle::group_by_oracle;
    use crate::{run_group_by, AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput};
    use columnar::{Column, Relation};
    use sim::Device;

    fn hash_groupby(
        dev: &Device,
        input: &Relation,
        aggs: &[AggFn],
        config: &GroupByConfig,
    ) -> GroupByOutput {
        run_group_by(dev, GroupByAlgorithm::HashGlobal, input, aggs, config)
    }

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
