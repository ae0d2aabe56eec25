//! Cross-crate integration tests: TPC extracts through the public API,
//! deterministic replay, pipelines, and dictionary round trips.

use gpu_join::engine::{execute, AggSpec, Catalog, Plan, Table};
use gpu_join::prelude::*;
use gpu_join::workloads::tpc::{generate, TpcJoinId};
use gpu_join::workloads::JoinWorkload;
use joins::oracle::hash_join_oracle;

const ALL_GPU: [Algorithm; 5] = [
    Algorithm::SmjUm,
    Algorithm::SmjOm,
    Algorithm::PhjUm,
    Algorithm::PhjOm,
    Algorithm::Nphj,
];

#[test]
fn every_algorithm_agrees_on_every_tpc_extract() {
    let dev = Device::a100();
    for id in TpcJoinId::ALL {
        // Tiny scale keeps J5's exploding output manageable.
        let scale = if id == TpcJoinId::J5 { 0.0002 } else { 0.001 };
        let inst = generate(&dev, id, scale, DType::I32);
        let expected = hash_join_oracle(&inst.r, &inst.s);
        for alg in ALL_GPU {
            let out = run_join(&dev, alg, &inst.r, &inst.s, &inst.config);
            assert_eq!(out.rows_sorted(), expected, "{id} via {alg}");
        }
        let out = run_join(&dev, Algorithm::CpuRadix, &inst.r, &inst.s, &inst.config);
        assert_eq!(out.rows_sorted(), expected, "{id} via CPU");
    }
}

#[test]
fn tpc_extracts_work_with_8_byte_keys() {
    let dev = Device::a100();
    let inst = generate(&dev, TpcJoinId::J1, 0.001, DType::I64);
    let expected = hash_join_oracle(&inst.r, &inst.s);
    for alg in [Algorithm::SmjOm, Algorithm::PhjOm] {
        let out = run_join(&dev, alg, &inst.r, &inst.s, &inst.config);
        assert_eq!(out.rows_sorted(), expected, "{alg}");
    }
}

#[test]
fn deterministic_replay_same_seed_same_results_and_times() {
    let w = JoinWorkload::wide(1 << 14);
    let run = || {
        let dev = Device::a100();
        let (r, s) = w.generate(&dev);
        let out = run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
        (out.rows_sorted(), out.stats.phases.total().secs())
    };
    let (rows1, t1) = run();
    let (rows2, t2) = run();
    assert_eq!(rows1, rows2, "same seed, same rows");
    assert_eq!(t1, t2, "the simulator is fully deterministic");
}

#[test]
fn match_ratio_controls_output_size_for_all_algorithms() {
    let dev = Device::a100();
    let w = JoinWorkload {
        match_ratio: 0.5,
        ..JoinWorkload::wide(1 << 12)
    };
    let (r, s) = w.generate(&dev);
    let expected = hash_join_oracle(&r, &s);
    let frac = expected.len() as f64 / s.len() as f64;
    assert!((frac - 0.5).abs() < 0.05);
    for alg in ALL_GPU {
        let out = run_join(&dev, alg, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), expected, "{alg}");
    }
}

#[test]
fn skewed_workloads_join_correctly() {
    let dev = Device::a100();
    let w = JoinWorkload {
        zipf: 1.5,
        ..JoinWorkload::wide(1 << 12)
    };
    let (r, s) = w.generate(&dev);
    let expected = hash_join_oracle(&r, &s);
    for alg in ALL_GPU {
        let out = run_join(&dev, alg, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), expected, "{alg}");
    }
}

#[test]
fn join_groupby_pipeline_matches_two_stage_oracle() {
    let dev = Device::a100();
    let w = JoinWorkload::narrow(1 << 12);
    let (r, s) = w.generate(&dev);

    let mut catalog = Catalog::new();
    catalog.insert(Table::new(
        "r",
        vec![("k", r.key().alias()), ("r0", r.payloads()[0].alias())],
    ));
    catalog.insert(Table::new(
        "s",
        vec![("k", s.key().alias()), ("s0", s.payloads()[0].alias())],
    ));
    let plan = Plan::scan("r")
        .join(Plan::scan("s"), "k", "k")
        .with_join_algorithm(Algorithm::PhjOm)
        .aggregate(
            "k",
            vec![
                AggSpec::new(AggFn::Count, "r0", "n"),
                AggSpec::new(AggFn::Sum, "s0", "total"),
            ],
        )
        .with_group_algorithm(GroupByAlgorithm::SortGftr);
    let out = execute(&dev, &catalog, &plan).unwrap();

    // Oracle: group the oracle join rows by key.
    use std::collections::HashMap;
    let mut expected: HashMap<i64, (i64, i64)> = HashMap::new();
    for row in hash_join_oracle(&r, &s) {
        let e = expected.entry(row[0]).or_insert((0, 0));
        e.0 += 1;
        e.1 += row[2];
    }
    let mut expected: Vec<Vec<i64>> = expected
        .into_iter()
        .map(|(k, (c, sum))| vec![k, c, sum])
        .collect();
    expected.sort_unstable();
    assert_eq!(out.table.rows_sorted(), expected);
}

#[test]
fn dictionary_round_trips_through_a_join() {
    let dev = Device::a100();
    let mut dict = DictionaryEncoder::new();
    let ship_modes = ["AIR", "SHIP", "RAIL", "TRUCK"];
    let r_codes: Vec<i32> = (0..64).map(|i| dict.encode(ship_modes[i % 4])).collect();
    let r = Relation::new(
        "modes",
        Column::from_i32(&dev, (0..64).collect(), "k"),
        vec![Column::from_i32(&dev, r_codes, "mode")],
    );
    let s = Relation::new(
        "orders",
        Column::from_i32(&dev, (0..256).map(|i| i % 64).collect(), "k"),
        vec![Column::from_i32(&dev, (0..256).collect(), "qty")],
    );
    let out = run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
    // Every materialized mode code decodes back to one of the four strings.
    for code in out.r_payloads[0].iter_i64() {
        let s = dict.decode(code as i32).expect("code is in the dictionary");
        assert!(ship_modes.contains(&s));
    }
}

#[test]
fn peak_memory_is_reported_and_bounded_by_device_capacity() {
    let dev = Device::a100();
    let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
    for alg in ALL_GPU {
        let out = run_join(&dev, alg, &r, &s, &JoinConfig::default());
        assert!(out.stats.peak_mem_bytes > 0, "{alg}");
        assert!(out.stats.peak_mem_bytes < dev.config().global_mem_bytes);
    }
}

#[test]
fn groupby_algorithms_agree_on_a_tpc_shaped_input() {
    let dev = Device::a100();
    let w = gpu_join::workloads::agg::AggWorkload {
        payloads: vec![DType::I32, DType::I64],
        ..gpu_join::workloads::agg::AggWorkload::uniform(1 << 13, 321)
    };
    let input = w.generate(&dev);
    let aggs = [AggFn::Sum, AggFn::Min];
    let expected = gpu_join::groupby::oracle::group_by_oracle(&input, &aggs);
    for alg in GroupByAlgorithm::ALL {
        let out = run_group_by(&dev, alg, &input, &aggs, &GroupByConfig::default());
        assert_eq!(out.rows_sorted(), expected, "{alg}");
    }
}
