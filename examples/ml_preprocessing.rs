//! The paper's motivating scenario (Section 1): relational preprocessing on
//! the GPU as part of an ML pipeline. Feature augmentation joins a samples
//! table against a features table *without any filtering* — a 100% match
//! ratio, many payload columns, everything materialized because the result
//! feeds a training job on the same device.
//!
//! The example compares GFUR vs GFTR end to end, then computes per-label
//! feature statistics with a grouped aggregation.
//!
//! ```text
//! cargo run --release --example ml_preprocessing
//! ```

use gpu_join::engine::{execute, AggSpec, Catalog, Plan, Table};
use gpu_join::prelude::*;
use rand::{Rng, SeedableRng};

fn main() {
    // Paper-regime scaled A100 (see quickstart.rs): 2^21 samples against a
    // proportionally shrunken L2 puts us in the paper's cache regime.
    let dev = Device::new(DeviceConfig::a100().scaled(64.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // samples(entity_id, label) — 2M training rows referencing 1M entities.
    let n_entities = 1 << 20;
    let n_samples = 1 << 21;
    let entity_ids: Vec<i32> = {
        let mut ids: Vec<i32> = (0..n_entities).collect();
        use rand::seq::SliceRandom;
        ids.shuffle(&mut rng);
        ids
    };
    // features(entity_id, f1..f4): four feature columns to merge in.
    let features = Relation::new(
        "features",
        Column::from_i32(&dev, entity_ids.clone(), "entity_id"),
        (0..4)
            .map(|f| {
                Column::from_i32(
                    &dev,
                    entity_ids.iter().map(|&e| e.wrapping_mul(13 + f)).collect(),
                    "feature",
                )
            })
            .collect(),
    );
    let sample_refs: Vec<i32> = (0..n_samples)
        .map(|_| rng.gen_range(0..n_entities))
        .collect();
    let samples = Relation::new(
        "samples",
        Column::from_i32(&dev, sample_refs.clone(), "entity_id"),
        vec![Column::from_i32(
            &dev,
            sample_refs.iter().map(|&e| e % 16).collect(), // 16 labels
            "label",
        )],
    );

    println!(
        "feature augmentation: samples ({} rows) ⋈ features ({} rows, 4 feature cols)\n",
        n_samples, n_entities
    );
    for alg in [Algorithm::PhjUm, Algorithm::PhjOm] {
        let out = run_join(&dev, alg, &features, &samples, &JoinConfig::default());
        println!(
            "{:<8} total {:>10}   (materialization share {:>4.0}%)",
            alg.name(),
            out.stats.phases.total().to_string(),
            out.stats.phases.materialize_fraction() * 100.0,
        );
    }

    // The decision tree agrees this is GFTR territory: wide join, full
    // match ratio, uniform keys.
    let profile = profile_of(&features, &samples, 1.0, 0.0, dev.config().l2_bytes);
    let rec = choose_join(&profile);
    println!(
        "\ndecision tree: {} via \"{}\" — {}\n",
        rec.algorithm, rec.guard, rec.rationale
    );

    // Downstream of the join: per-label statistics over the features (a
    // grouped aggregation on the augmented table).
    let mut catalog = Catalog::new();
    let mut cols = vec![("entity_id".to_string(), features.key().alias())];
    for (i, c) in features.payloads().iter().enumerate() {
        cols.push((format!("f{}", i + 1), c.alias()));
    }
    catalog.insert(Table::from_columns("features", cols));
    catalog.insert(Table::new(
        "samples",
        vec![
            ("entity_id", samples.key().alias()),
            ("label", samples.payloads()[0].alias()),
        ],
    ));
    let plan = Plan::scan("features")
        .join(Plan::scan("samples"), "entity_id", "entity_id")
        .with_join_algorithm(rec.algorithm)
        .aggregate(
            "label",
            vec![
                AggSpec::new(AggFn::Count, "entity_id", "rows"),
                AggSpec::new(AggFn::Sum, "f1", "sum_f1"),
                AggSpec::new(AggFn::Min, "f2", "min_f2"),
                AggSpec::new(AggFn::Max, "f3", "max_f3"),
                AggSpec::new(AggFn::Sum, "f4", "sum_f4"),
            ],
        )
        .with_group_algorithm(GroupByAlgorithm::PartitionedGftr);
    let out = execute(&dev, &catalog, &plan).expect("the plan binds against its catalog");
    println!(
        "per-label stats: {} labels from {} augmented rows in {}",
        out.table.num_rows(),
        out.stats.children[0].rows(),
        out.stats.total_time(),
    );
    assert_eq!(out.table.num_rows(), 16);
}
