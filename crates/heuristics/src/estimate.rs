//! Sampling-based workload statistics.
//!
//! Section 5.4 of the paper: the decision tree's inputs (match ratio, skew,
//! widths, sizes) are "typically available to an optimizer". This module
//! produces them when they are *not* available, from a cheap device-side
//! sample: one clustered gather of `sample_size` probe keys plus a build-side
//! membership filter, a few microseconds at any realistic size.

use crate::{profile_from_stats, SideShape, WorkloadProfile};
use columnar::{Column, Relation};
use serde::{Deserialize, Serialize};
use sim::Device;
use std::collections::HashMap;

/// Statistics estimated from a key sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EstimatedStats {
    /// Estimated fraction of probe tuples with a build-side partner.
    pub match_ratio: f64,
    /// Share of the sample held by the most frequent probe key — the skew
    /// signal (uniform keys over `d` distinct values give ~1/d; a Zipf(1+)
    /// distribution gives tens of percent).
    pub top_key_share: f64,
    /// Sample size actually used.
    pub sample_size: usize,
}

/// The skew verdict both trees want from a sample: is the hottest key
/// heavy enough to serialize atomics (bucket-chain partitioning, a global
/// hash table's hot group)? The 5% threshold maps to roughly Zipf ≥ 1 over
/// realistic domains (compare Figure 14).
const SKEWED_TOP_KEY_SHARE: f64 = 0.05;

impl EstimatedStats {
    /// The skew verdict the join tree branches on.
    pub fn skewed(&self) -> bool {
        self.top_key_share > SKEWED_TOP_KEY_SHARE
    }
}

/// Estimate match ratio and skew by sampling `sample_size` evenly spaced
/// probe keys and testing membership against a build-side key set.
///
/// Device cost: one strided sample gather of the probe keys and one
/// build-side read to assemble the membership filter (on hardware this is a
/// Bloom filter build; we charge the same streaming pass).
pub fn sample_stats(
    dev: &Device,
    r: &Relation,
    s: &Relation,
    sample_size: usize,
) -> EstimatedStats {
    let n = s.len();
    let sample_size = sample_size.clamp(1, n.max(1));
    // Membership filter from R's keys (streaming read, like a Bloom build).
    let build: std::collections::HashSet<i64> = r.key().iter_i64().collect();
    dev.kernel("estimate.filter_build")
        .items(r.len() as u64, primitives::STREAM_WARP_INSTR)
        .seq_read_bytes(r.key().size_bytes())
        .launch();

    // Evenly spaced probe sample (clustered-ish strided gather).
    let stride = (n / sample_size).max(1);
    let mut matched = 0usize;
    let mut freq: HashMap<i64, usize> = HashMap::new();
    let mut taken = 0usize;
    let mut i = 0usize;
    while i < n && taken < sample_size {
        let k = s.key().value(i);
        if build.contains(&k) {
            matched += 1;
        }
        *freq.entry(k).or_insert(0) += 1;
        taken += 1;
        i += stride;
    }
    dev.kernel("estimate.sample_probe")
        .items(taken as u64, primitives::STREAM_WARP_INSTR)
        .seq_read_bytes(taken as u64 * s.key().dtype().size())
        .launch();

    EstimatedStats {
        match_ratio: share(matched, taken),
        top_key_share: top_key_share(&freq, taken),
        sample_size: taken,
    }
}

/// `part / whole`, and 0 for an empty sample.
fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The skew signal: the share of a `taken`-key sample held by its most
/// frequent key.
fn top_key_share(freq: &HashMap<i64, usize>, taken: usize) -> f64 {
    share(freq.values().copied().max().unwrap_or(0), taken)
}

/// Statistics estimated from a grouping-key sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EstimatedGroupStats {
    /// Estimated number of distinct groups in the full column (Chao1
    /// extrapolation from the sample).
    pub est_groups: usize,
    /// Share of the sample held by the most frequent key — same skew signal
    /// as [`EstimatedStats::top_key_share`].
    pub top_key_share: f64,
    /// Sample size actually used.
    pub sample_size: usize,
}

impl EstimatedGroupStats {
    /// The skew verdict the group-by tree branches on.
    pub fn skewed(&self) -> bool {
        self.top_key_share > SKEWED_TOP_KEY_SHARE
    }
}

/// Estimate the distinct-group count and key skew of a grouping column by
/// sampling `sample_size` evenly spaced keys.
///
/// The extrapolation is the Chao1 estimator `d + f1^2 / (2 f2)` (singletons
/// `f1`, doubletons `f2` in the sample), clamped to `[d_sample, rows]` — the
/// standard abundance-based richness estimate, good enough to tell "the
/// table is L2-resident" from "it is not", which is all the decision tree
/// needs. Device cost: one strided sample gather, same as [`sample_stats`].
pub fn sample_group_stats(dev: &Device, key: &Column, sample_size: usize) -> EstimatedGroupStats {
    let n = key.len();
    let sample_size = sample_size.clamp(1, n.max(1));
    // Pseudo-random positions (splitmix64, fixed seed): Chao1 assumes a
    // random sample, and a deterministic stride both aliases with cyclic
    // key layouts and never produces the duplicate draws the estimator
    // counts. With-replacement draws are fine at these sampling fractions.
    let mut freq: HashMap<i64, usize> = HashMap::new();
    let mut taken = 0usize;
    if n > 0 {
        for j in 0..sample_size {
            let mut z = (j as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *freq.entry(key.value((z % n as u64) as usize)).or_insert(0) += 1;
            taken += 1;
        }
    }
    dev.kernel("estimate.group_sample")
        .items(taken as u64, primitives::STREAM_WARP_INSTR)
        .seq_read_bytes(taken as u64 * key.dtype().size())
        .launch();

    let d = freq.len();
    let f1 = freq.values().filter(|&&c| c == 1).count();
    let f2 = freq.values().filter(|&&c| c == 2).count();
    // Chao1; the f2 == 0 form follows Chao (1984)'s bias-corrected variant.
    let extra = if f2 > 0 {
        (f1 * f1) as f64 / (2 * f2) as f64
    } else {
        (f1 * (f1.saturating_sub(1))) as f64 / 2.0
    };
    let est_groups = ((d as f64 + extra).round() as usize).clamp(d, n.max(d));
    EstimatedGroupStats {
        est_groups,
        top_key_share: top_key_share(&freq, taken),
        sample_size: taken,
    }
}

/// Build a full [`WorkloadProfile`] from the relations plus sampled
/// statistics — the estimator-backed version of [`crate::profile_of`].
pub fn estimate_profile(
    dev: &Device,
    r: &Relation,
    s: &Relation,
    sample_size: usize,
) -> WorkloadProfile {
    let stats = sample_stats(dev, r, s, sample_size);
    profile_from_stats(
        &stats,
        &SideShape::of(r),
        &SideShape::of(s),
        dev.config().l2_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Column;
    use sim::Device;

    fn rel(dev: &Device, keys: Vec<i32>) -> Relation {
        let p = keys.clone();
        Relation::new(
            "T",
            Column::from_i32(dev, keys, "k"),
            vec![Column::from_i32(dev, p, "p")],
        )
    }

    #[test]
    fn match_ratio_estimate_tracks_truth() {
        let dev = Device::a100();
        let nr = 4000;
        let r = rel(&dev, (0..nr).collect());
        for ratio in [0.25f64, 0.5, 1.0] {
            // FKs drawn so that `ratio` of them land inside R's domain.
            let s_keys: Vec<i32> = (0..8000)
                .map(|i| {
                    if (i as f64 / 8000.0) < ratio {
                        i % nr
                    } else {
                        nr + i // outside the domain
                    }
                })
                .collect();
            let s = rel(&dev, s_keys);
            let est = sample_stats(&dev, &r, &s, 512);
            assert!(
                (est.match_ratio - ratio).abs() < 0.12,
                "true {ratio}, estimated {}",
                est.match_ratio
            );
        }
    }

    #[test]
    fn skew_detection() {
        let dev = Device::a100();
        let r = rel(&dev, (0..1024).collect());
        let uniform = rel(&dev, (0..8192).map(|i| i % 1024).collect());
        let est = sample_stats(&dev, &r, &uniform, 512);
        assert!(!est.skewed(), "uniform keys flagged skewed: {est:?}");

        let skewed = rel(
            &dev,
            (0..8192)
                .map(|i| if i % 3 == 0 { i % 1024 } else { 7 })
                .collect(),
        );
        let est = sample_stats(&dev, &r, &skewed, 512);
        assert!(est.skewed(), "2/3 mass on one key must flag: {est:?}");
    }

    #[test]
    fn estimator_charges_device_time_proportional_to_sample() {
        let dev = Device::a100();
        let r = rel(&dev, (0..1000).collect());
        let s = rel(&dev, (0..100_000).map(|i| i % 1000).collect());
        dev.reset_stats();
        let _ = sample_stats(&dev, &r, &s, 256);
        let t = dev.elapsed().secs();
        assert!(t > 0.0, "sampling is charged");
        // Far cheaper than a pass over S.
        dev.reset_stats();
        dev.kernel("estimate.full_scan")
            .seq_read_bytes(s.key().size_bytes())
            .launch();
        assert!(t < 10.0 * dev.elapsed().secs());
    }

    #[test]
    fn profile_composes_estimates_with_schema_facts() {
        let dev = Device::a100();
        let r = rel(&dev, (0..512).collect());
        let s = rel(&dev, (0..2048).map(|i| i % 512).collect());
        let p = estimate_profile(&dev, &r, &s, 256);
        assert!(!p.wide);
        assert!(p.match_ratio > 0.9);
        assert!(!p.has_8byte);
        assert!(p.small_inputs);
    }

    #[test]
    fn group_estimate_tracks_truth() {
        let dev = Device::a100();
        for d in [16usize, 256, 4096] {
            let keys = Column::from_i32(&dev, (0..65_536).map(|i| (i % d) as i32).collect(), "g");
            let est = sample_group_stats(&dev, &keys, 1024);
            assert!(
                est.est_groups >= d / 4 && est.est_groups <= d * 8,
                "true {d} groups, estimated {}",
                est.est_groups
            );
        }
    }

    #[test]
    fn group_skew_detection() {
        let dev = Device::a100();
        let uniform = Column::from_i32(&dev, (0..8192).map(|i| i % 1024).collect(), "g");
        assert!(!sample_group_stats(&dev, &uniform, 512).skewed());
        let hot = Column::from_i32(
            &dev,
            (0..8192).map(|i| if i % 2 == 0 { 7 } else { i }).collect(),
            "g",
        );
        assert!(sample_group_stats(&dev, &hot, 512).skewed());
    }

    #[test]
    fn empty_probe_side() {
        let dev = Device::a100();
        let r = rel(&dev, vec![1, 2, 3]);
        let s = rel(&dev, vec![]);
        let est = sample_stats(&dev, &r, &s, 64);
        assert_eq!(est.match_ratio, 0.0);
        assert!(!est.skewed());
    }

    /// The values must be finite (no NaN/Inf anywhere the explain layer
    /// would print) and the record must serialize to a complete JSON object
    /// — the renderability contract provenance capture relies on.
    fn assert_renderable(est: &EstimatedGroupStats) {
        assert!(est.top_key_share.is_finite(), "top_key_share NaN: {est:?}");
        assert!(
            (0.0..=1.0).contains(&est.top_key_share),
            "share out of range: {est:?}"
        );
        let v = serde_json::to_value(est);
        for field in ["est_groups", "top_key_share", "sample_size"] {
            assert!(!v[field].is_null(), "field {field} missing/null: {v:?}");
        }
        let text = serde_json::to_string(est).expect("serializes");
        assert!(
            !text.contains("null") && !text.contains("NaN"),
            "unrenderable value in {text}"
        );
    }

    #[test]
    fn chao1_on_empty_column() {
        let dev = Device::a100();
        let empty = Column::from_i32(&dev, vec![], "g");
        let est = sample_group_stats(&dev, &empty, 512);
        assert_eq!(est.est_groups, 0);
        assert_eq!(est.sample_size, 0);
        assert_eq!(est.top_key_share, 0.0);
        assert!(!est.skewed());
        assert_renderable(&est);
    }

    #[test]
    fn chao1_on_all_distinct_sample() {
        let dev = Device::a100();
        // Far more distinct keys than sample draws: essentially every draw
        // is a singleton, f2 ~ 0, so the bias-corrected f1(f1-1)/2 form
        // fires. The estimate explodes upward by design — the clamp must
        // cap it at the row count, never NaN or overflow.
        let n = 1 << 20;
        let keys = Column::from_i32(&dev, (0..n).collect(), "g");
        let est = sample_group_stats(&dev, &keys, 256);
        assert!(est.est_groups >= 200, "mostly singletons: {est:?}");
        assert!(est.est_groups <= n as usize, "clamped to rows: {est:?}");
        assert!(!est.skewed(), "all-distinct is the opposite of skew");
        assert_renderable(&est);
    }

    #[test]
    fn chao1_on_single_group_sample() {
        let dev = Device::a100();
        let keys = Column::from_i32(&dev, vec![42; 4096], "g");
        let est = sample_group_stats(&dev, &keys, 512);
        // One group, zero singletons and doubletons: d=1, extra=0.
        assert_eq!(est.est_groups, 1);
        assert_eq!(est.top_key_share, 1.0);
        assert!(est.skewed(), "one group holding everything is maximal skew");
        assert_renderable(&est);
    }

    #[test]
    fn chao1_on_single_row_column() {
        let dev = Device::a100();
        let keys = Column::from_i32(&dev, vec![7], "g");
        let est = sample_group_stats(&dev, &keys, 512);
        // One row sampled once or more: d=1, f1 counts at most one
        // singleton, and the clamp pins the estimate to [1, 1].
        assert_eq!(est.est_groups, 1);
        assert_renderable(&est);
    }

    #[test]
    fn estimate_profile_is_the_sample_through_the_profile_rule() {
        let dev = Device::a100();
        let r = rel(&dev, (0..512).collect());
        let s = rel(&dev, (0..2048).map(|i| i % 512).collect());
        let profile = estimate_profile(&dev, &r, &s, 256);
        let t_profile = dev.elapsed().secs();
        dev.reset_stats();
        let stats = sample_stats(&dev, &r, &s, 256);
        assert_eq!(dev.elapsed().secs().to_bits(), t_profile.to_bits());
        let shapes = (SideShape::of(&r), SideShape::of(&s));
        let composed = profile_from_stats(&stats, &shapes.0, &shapes.1, dev.config().l2_bytes);
        assert_eq!(profile, composed);
        assert_eq!(stats.sample_size, 256);
    }
}
