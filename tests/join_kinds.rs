//! Semi/anti/outer join semantics across every implementation, checked
//! against the oracle.

use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;
use joins::oracle::join_oracle_kind;
use joins::JoinKind;

const ALGS: [Algorithm; 7] = [
    Algorithm::SmjUm,
    Algorithm::SmjOm,
    Algorithm::PhjUm,
    Algorithm::PhjOm,
    Algorithm::PhjOmGfur,
    Algorithm::Nphj,
    Algorithm::CpuRadix,
];

fn check_kind(kind: JoinKind, match_ratio: f64) {
    let dev = Device::a100();
    let w = JoinWorkload {
        match_ratio,
        ..JoinWorkload::wide(1 << 11)
    };
    let (r, s) = w.generate(&dev);
    let expected = join_oracle_kind(&r, &s, kind);
    let config = JoinConfig {
        kind,
        ..JoinConfig::default()
    };
    for alg in ALGS {
        let out = run_join(&dev, alg, &r, &s, &config);
        assert_eq!(out.rows_sorted(), expected, "{alg} {}", kind.name());
        if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
            assert!(
                out.r_payloads.is_empty(),
                "{alg}: semi/anti drop R payloads"
            );
        }
    }
}

#[test]
fn semi_join_all_algorithms() {
    check_kind(JoinKind::Semi, 0.6);
}

#[test]
fn anti_join_all_algorithms() {
    check_kind(JoinKind::Anti, 0.6);
}

#[test]
fn outer_join_all_algorithms() {
    check_kind(JoinKind::Outer, 0.6);
}

#[test]
fn full_match_degenerate_cases() {
    // 100% match: anti is empty, semi = distinct probe rows, outer = inner.
    let dev = Device::a100();
    let (r, s) = JoinWorkload::wide(1 << 10).generate(&dev);
    let anti = run_join(
        &dev,
        Algorithm::PhjOm,
        &r,
        &s,
        &JoinConfig {
            kind: JoinKind::Anti,
            ..JoinConfig::default()
        },
    );
    assert!(anti.is_empty());
    let semi = run_join(
        &dev,
        Algorithm::PhjOm,
        &r,
        &s,
        &JoinConfig {
            kind: JoinKind::Semi,
            ..JoinConfig::default()
        },
    );
    assert_eq!(semi.len(), s.len(), "PK-FK: every probe row matches once");
    let outer = run_join(
        &dev,
        Algorithm::PhjOm,
        &r,
        &s,
        &JoinConfig {
            kind: JoinKind::Outer,
            ..JoinConfig::default()
        },
    );
    let inner = run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
    assert_eq!(outer.rows_sorted(), inner.rows_sorted());
}

#[test]
fn duplicates_on_build_side_dedup_in_semi() {
    let dev = Device::a100();
    let r = Relation::new(
        "R",
        Column::from_i32(&dev, vec![7, 7, 7, 9], "k"),
        vec![
            Column::from_i32(&dev, vec![1, 2, 3, 4], "p"),
            Column::from_i32(&dev, vec![5, 6, 7, 8], "q"),
        ],
    );
    let probe = |keys: Vec<i32>| {
        let x = keys.iter().map(|&k| k as i64 * 10).collect();
        let y = keys.iter().map(|&k| k as i64 * 10 + 1).collect();
        Relation::new(
            "S",
            Column::from_i32(&dev, keys, "k"),
            vec![
                Column::from_i64(&dev, x, "x"),
                Column::from_i64(&dev, y, "y"),
            ],
        )
    };
    let config = JoinConfig {
        unique_build: false,
        kind: JoinKind::Semi,
        ..JoinConfig::default()
    };
    // Second input: two-tuple buckets spread key 7's three build rows over
    // two buckets of one chain, so the bucket-chain join emits each probe
    // row's matches once per bucket rather than contiguously.
    let chained = JoinConfig {
        bucket_tuples: 2,
        ..config.clone()
    };
    for (s, config, expected) in [
        (probe(vec![7, 8]), &config, vec![vec![7, 70, 71]]),
        (probe(vec![7, 7, 8]), &chained, vec![vec![7, 70, 71]; 2]),
    ] {
        for alg in ALGS {
            let out = joins::run_join(&dev, alg, &r, &s, config);
            assert_eq!(
                out.rows_sorted(),
                expected,
                "{alg}: one semi row per matching probe row despite 3 build matches"
            );
        }
    }
}

#[test]
fn outer_join_nulls_are_type_sentinels() {
    let dev = Device::a100();
    let r = Relation::new(
        "R",
        Column::from_i32(&dev, vec![1], "k"),
        vec![
            Column::from_i32(&dev, vec![10], "p32"),
            Column::from_i64(&dev, vec![100], "p64"),
        ],
    );
    let s = Relation::new(
        "S",
        Column::from_i32(&dev, vec![1, 2], "k"),
        vec![Column::from_i32(&dev, vec![11, 22], "q")],
    );
    let config = JoinConfig {
        kind: JoinKind::Outer,
        ..JoinConfig::default()
    };
    let out = run_join(&dev, Algorithm::SmjOm, &r, &s, &config);
    assert_eq!(
        out.rows_sorted(),
        vec![vec![1, 10, 100, 11], vec![2, i32::MIN as i64, i64::MIN, 22],]
    );
}
