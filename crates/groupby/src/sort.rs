//! Sort-based grouped aggregation through [`crate::run_group_by`]: sort by
//! key, detect group boundaries, reduce each segment — `Transform::Sort` in
//! [`crate::driver`].
//!
//! SORT-OM (GFTR) sorts every aggregate column together with the keys
//! (stable radix sort → identical layouts), turning the per-column reduce
//! into a pure streaming pass. SORT-UM (GFUR) sorts `(key, ID)` once and
//! fetches values through unclustered gathers — cheaper transform, costlier
//! aggregation, exactly the join study's trade-off.

#[cfg(test)]
mod tests {
    use crate::oracle::group_by_oracle;
    use crate::{run_group_by, AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput};
    use columnar::{Column, Relation};
    use sim::Device;

    fn sort_groupby(
        dev: &Device,
        alg: GroupByAlgorithm,
        input: &Relation,
        aggs: &[AggFn],
    ) -> GroupByOutput {
        run_group_by(dev, alg, input, aggs, &GroupByConfig::default())
    }

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn]) {
        for alg in [GroupByAlgorithm::SortGftr, GroupByAlgorithm::SortGfur] {
            let out = sort_groupby(dev, alg, input, aggs);
            assert_eq!(out.rows_sorted(), group_by_oracle(input, aggs), "{alg}");
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
        let out = sort_groupby(&dev, GroupByAlgorithm::SortGftr, &distinct, &[]);
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
        let om = sort_groupby(&dev, GroupByAlgorithm::SortGftr, &input, &aggs);
        let um = sort_groupby(&dev, GroupByAlgorithm::SortGfur, &input, &aggs);
        assert_eq!(om.rows_sorted(), um.rows_sorted());
        assert!(
            om.stats.phases.total() < um.stats.phases.total(),
            "GFTR {} should beat GFUR {} on 4 aggregate columns",
            om.stats.phases.total(),
            um.stats.phases.total()
        );
    }
}
