//! NPHJ through [`crate::run_join`]: the traditional non-partitioned hash
//! join over a global hash table in device memory — the cuDF baseline of the
//! evaluation (Section 5.2.2), `Transform::None` in [`crate::driver`].
//!
//! There is no transformation phase: R's keys go straight into a global
//! table, S's keys probe it. Both steps are dominated by random accesses
//! into the table, which is why the paper finds it the slowest of the GPU
//! joins for large inputs (but respectable for small ones, where the table
//! fits in L2). Materialization gathers the probe side clustered (matches
//! come out in probe order) and the build side unclustered.

#[cfg(test)]
mod tests {
    use crate::oracle::hash_join_oracle;
    use crate::{run_join, Algorithm, JoinConfig, JoinOutput};
    use columnar::{Column, Relation};
    use sim::Device;

    fn nphj(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
        run_join(dev, Algorithm::Nphj, r, s, config)
    }

    #[test]
    fn nphj_matches_oracle() {
        let dev = Device::a100();
        let pk: Vec<i32> = (0..997).map(|i| (i * 31) % 997).collect();
        let fk: Vec<i32> = (0..3000).map(|i| i % 1400).collect();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, pk.clone(), "rk"),
            vec![Column::from_i64(
                &dev,
                pk.iter().map(|&k| k as i64).collect(),
                "r1",
            )],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, fk.clone(), "sk"),
            vec![Column::from_i32(&dev, fk, "s1")],
        );
        let out = nphj(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        // No transformation phase.
        assert_eq!(out.stats.phases.transform.secs(), 0.0);
    }

    #[test]
    fn nphj_duplicates() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![1, 1, 2], "k"),
            vec![Column::from_i32(&dev, vec![10, 11, 20], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, vec![1, 2, 2, 3], "k"),
            vec![Column::from_i32(&dev, vec![100, 200, 201, 300], "q")],
        );
        let out = nphj(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn large_table_is_slower_per_tuple_than_small() {
        // Shrunken 1 MB L2: the 2^15-entry table (768 KB) stays resident,
        // the 2^21-entry one (48 MB) does not — the regime split behind the
        // paper's "cuDF is fine on small inputs, worst on large" finding.
        let mut cfg = sim::DeviceConfig::rtx3090();
        cfg.l2_bytes = 1 << 20;
        let dev = Device::new(cfg);
        let make = |n: usize| {
            let keys: Vec<i32> = (0..n as i32)
                .map(|i| (i.wrapping_mul(2654435761u32 as i32)) % n as i32)
                .collect();
            let keys: Vec<i32> = keys.iter().map(|k| k.rem_euclid(n as i32)).collect();
            (
                Relation::new(
                    "R",
                    Column::from_i32(&dev, keys.clone(), "rk"),
                    vec![Column::from_i32(&dev, keys.clone(), "r1")],
                ),
                Relation::new(
                    "S",
                    Column::from_i32(&dev, keys.clone(), "sk"),
                    vec![Column::from_i32(&dev, keys, "s1")],
                ),
            )
        };
        let cfg = JoinConfig {
            unique_build: false,
            ..JoinConfig::default()
        };
        // Small: table fits L2 — probes mostly hit. Large: it does not —
        // hit rate collapses and the random-access tax dominates.
        let (r, s) = make(1 << 15);
        dev.reset_stats();
        let _ = nphj(&dev, &r, &s, &cfg);
        let small_hits = dev.counters().l2_hit_rate();
        let (r, s) = make(1 << 21);
        dev.reset_stats();
        dev.flush_l2();
        let large = nphj(&dev, &r, &s, &cfg);
        let large_hits = dev.counters().l2_hit_rate();
        assert!(
            small_hits > 0.6 && large_hits < 0.4,
            "hit rates: small {small_hits} vs large {large_hits}"
        );
        // The random-access tax shows up as a per-warp coalescing failure.
        assert!(dev.counters().sectors_per_request() > 8.0);
        assert!(large.stats.phases.match_find.secs() > 0.0);
    }
}
