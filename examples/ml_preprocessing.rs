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

use gpu_join::pipeline::GroupKey;
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
    println!("\ndecision tree: {} — {}\n", rec.algorithm, rec.rationale);

    // Downstream of the join: per-label statistics over the first feature
    // (a grouped aggregation on the augmented table).
    let stats = join_then_group_by(
        &dev,
        &features,
        &samples,
        &PipelineSpec::new(
            rec.algorithm,
            GroupKey::SPayload(0), // group by label
            GroupByAlgorithm::PartitionedGftr,
            &[
                AggFn::Count, // join key column (entity id) -> row count per label
                AggFn::Sum,   // f1
                AggFn::Min,   // f2
                AggFn::Max,   // f3
                AggFn::Sum,   // f4
            ],
        ),
    );
    println!(
        "per-label stats: {} labels from {} augmented rows in {}",
        stats.groups.len(),
        stats.join_rows,
        stats.total_time(),
    );
    assert_eq!(stats.groups.len(), 16);
}
