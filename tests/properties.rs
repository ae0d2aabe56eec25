//! Property-based tests: every join and grouped-aggregation implementation
//! must agree with the naive oracle on *arbitrary* inputs — duplicate keys,
//! negative values, dangling tuples on either side, any payload mix.

use columnar::{Column, Relation};
use groupby::{oracle::group_by_oracle, AggFn, GroupByAlgorithm, GroupByConfig};
use joins::{oracle::hash_join_oracle, Algorithm, JoinConfig};
use proptest::prelude::*;
use sim::Device;

/// A small relation described by plain vectors (so proptest can shrink it).
#[derive(Debug, Clone)]
struct RelSpec {
    keys: Vec<i32>,
    p32: Vec<i32>,
    p64: Vec<i64>,
}

fn rel_strategy(max_rows: usize, key_range: i32) -> impl Strategy<Value = RelSpec> {
    (0..=max_rows)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(-key_range..key_range, n),
                proptest::collection::vec(any::<i32>(), n),
                proptest::collection::vec(any::<i64>(), n),
            )
        })
        .prop_map(|(keys, p32, p64)| RelSpec { keys, p32, p64 })
}

fn build(dev: &Device, spec: &RelSpec, name: &str) -> Relation {
    Relation::new(
        name,
        Column::from_i32(dev, spec.keys.clone(), "k"),
        vec![
            Column::from_i32(dev, spec.p32.clone(), "p32"),
            Column::from_i64(dev, spec.p64.clone(), "p64"),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_joins_match_oracle(r in rel_strategy(60, 40), s in rel_strategy(60, 40)) {
        let dev = Device::a100();
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let expected = hash_join_oracle(&rr, &ss);
        let config = JoinConfig { unique_build: false, ..JoinConfig::default() };
        for alg in [
            Algorithm::SmjUm,
            Algorithm::SmjOm,
            Algorithm::PhjUm,
            Algorithm::PhjOm,
            Algorithm::PhjOmGfur,
            Algorithm::Nphj,
            Algorithm::CpuRadix,
        ] {
            let out = joins::run_join(&dev, alg, &rr, &ss, &config);
            prop_assert_eq!(out.rows_sorted(), expected.clone(), "{}", alg);
        }
    }

    #[test]
    fn all_groupbys_match_oracle(input in rel_strategy(80, 25)) {
        let dev = Device::a100();
        let rel = build(&dev, &input, "T");
        // Min on the i32 column, Sum on the i64 column: Sum over arbitrary
        // i64 values can overflow in both oracle and implementation the same
        // way, so constrain to Min/Max/Count for the 64-bit column.
        let aggs = [AggFn::Min, AggFn::Max];
        let expected = group_by_oracle(&rel, &aggs);
        for alg in GroupByAlgorithm::ALL {
            let out = groupby::run_group_by(&dev, alg, &rel, &aggs, &GroupByConfig::default());
            prop_assert_eq!(out.rows_sorted(), expected.clone(), "{}", alg);
        }
    }

    #[test]
    fn join_is_symmetric_in_cardinality(r in rel_strategy(40, 20), s in rel_strategy(40, 20)) {
        // |R ⋈ S| == |S ⋈ R| for every implementation.
        let dev = Device::a100();
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let config = JoinConfig { unique_build: false, ..JoinConfig::default() };
        let ab = joins::run_join(&dev, Algorithm::PhjOm, &rr, &ss, &config).len();
        let ba = joins::run_join(&dev, Algorithm::PhjOm, &ss, &rr, &config).len();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn radix_bits_are_semantically_transparent(
        r in rel_strategy(50, 30),
        s in rel_strategy(50, 30),
        bits in 1u32..12,
    ) {
        let dev = Device::a100();
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let expected = hash_join_oracle(&rr, &ss);
        let config = JoinConfig {
            unique_build: false,
            radix_bits: Some(bits),
            ..JoinConfig::default()
        };
        for alg in [Algorithm::PhjUm, Algorithm::PhjOm] {
            let out = joins::run_join(&dev, alg, &rr, &ss, &config);
            prop_assert_eq!(out.rows_sorted(), expected.clone(), "{} bits={}", alg, bits);
        }
    }

    #[test]
    fn scheduler_seed_never_changes_results(
        r in rel_strategy(50, 15),
        s in rel_strategy(50, 15),
        seed in any::<u64>(),
    ) {
        // PHJ-UM's bucket layout is scheduler-dependent (non-deterministic
        // on real hardware); its *results* must not be.
        let dev = Device::a100();
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let base = JoinConfig { unique_build: false, bucket_tuples: 16, ..JoinConfig::default() };
        let with_seed = JoinConfig { scheduler_seed: seed, ..base.clone() };
        let a = joins::run_join(&dev, Algorithm::PhjUm, &rr, &ss, &base);
        let b = joins::run_join(&dev, Algorithm::PhjUm, &rr, &ss, &with_seed);
        prop_assert_eq!(a.rows_sorted(), b.rows_sorted());
    }

    #[test]
    fn join_kinds_match_oracle_for_all_gpu_algorithms(
        r in rel_strategy(40, 15),
        s in rel_strategy(40, 15),
        kind_sel in 0usize..4,
    ) {
        use joins::JoinKind;
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::Outer][kind_sel];
        let dev = Device::a100();
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let expected = joins::oracle::join_oracle_kind(&rr, &ss, kind);
        let config = JoinConfig { unique_build: false, kind, ..JoinConfig::default() };
        for alg in [
            Algorithm::SmjOm,
            Algorithm::PhjOm,
            Algorithm::PhjUm,
            Algorithm::Nphj,
            Algorithm::CpuRadix,
        ] {
            let out = joins::run_join(&dev, alg, &rr, &ss, &config);
            prop_assert_eq!(out.rows_sorted(), expected.clone(), "{} {}", alg, kind.name());
        }
    }

    #[test]
    fn join_kinds_match_oracle_with_duplicate_heavy_keys(
        r in rel_strategy(150, 3),
        s in rel_strategy(150, 3),
        kind_sel in 0usize..4,
        bucket_sel in 0usize..2,
    ) {
        // Six distinct keys on both sides (the many-to-many blow-up), tiny
        // buckets and, on the shrunken device, build partitions of several
        // shared-memory chunks: the partitioned hash joins re-stream the
        // probe side once per bucket / chunk, so one probe row's matches
        // are *not* contiguous in the match list the kind adjustment sees.
        use joins::JoinKind;
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::Outer][kind_sel];
        let dev = Device::new(sim::DeviceConfig::a100().scaled(1024.0));
        let rr = build(&dev, &r, "R");
        let ss = build(&dev, &s, "S");
        let expected = joins::oracle::join_oracle_kind(&rr, &ss, kind);
        let config = JoinConfig {
            unique_build: false,
            kind,
            bucket_tuples: [2, 16][bucket_sel],
            radix_bits: Some(1),
            ..JoinConfig::default()
        };
        for alg in [
            Algorithm::SmjUm,
            Algorithm::SmjOm,
            Algorithm::PhjUm,
            Algorithm::PhjOm,
            Algorithm::PhjOmGfur,
            Algorithm::Nphj,
        ] {
            let out = joins::run_join(&dev, alg, &rr, &ss, &config);
            prop_assert_eq!(
                out.rows_sorted(),
                expected.clone(),
                "{} {} bucket_tuples={}",
                alg,
                kind.name(),
                config.bucket_tuples
            );
        }
    }

    #[test]
    fn memory_model_dominance(m_t in 0u64..1_000_000, m_c in 1u64..1_000_000_000) {
        prop_assert!(
            gpu_join::memory_model::gftr_peak(m_t, m_c)
                <= gpu_join::memory_model::gfur_peak(m_t, m_c)
        );
    }

    #[test]
    fn groupby_group_count_equals_distinct_keys(input in rel_strategy(80, 30)) {
        let dev = Device::a100();
        let rel = build(&dev, &input, "T");
        let distinct: std::collections::HashSet<i64> = rel.key().iter_i64().collect();
        for alg in GroupByAlgorithm::ALL {
            let out = groupby::run_group_by(
                &dev,
                alg,
                &rel,
                &[AggFn::Count, AggFn::Count],
                &GroupByConfig::default(),
            );
            prop_assert_eq!(out.len(), distinct.len(), "{}", alg);
        }
    }
}
