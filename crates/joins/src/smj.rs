//! Sort-merge joins through [`crate::run_join`]: SMJ-UM (Section 3.1, the
//! GFUR state of the art) and SMJ-OM (Section 4.2, the paper's GFTR variant)
//! are `Transform::Sort` in [`crate::driver`] and differ only in what gets
//! sorted and where payload values are gathered from:
//!
//! * **SMJ-UM** sorts `(key, physical ID)` and materializes by gathering
//!   payloads from the *original* relations — the IDs are a random
//!   permutation after sorting, so every gather is unclustered.
//! * **SMJ-OM** sorts each payload column *with* the key (Algorithm 1) and
//!   gathers from the *sorted* columns using the merge join's virtual IDs,
//!   which are clustered. The first payload column of each side rides along
//!   with the key sort in the transformation phase; the rest are sorted
//!   lazily in the materialization phase, one at a time, which also keeps
//!   peak memory below GFUR's (Tables 1-2).

#[cfg(test)]
mod tests {
    use crate::oracle::hash_join_oracle;
    use crate::{run_join, Algorithm, JoinConfig, JoinOutput};
    use columnar::{Column, Relation};
    use sim::Device;

    fn smj_um(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
        run_join(dev, Algorithm::SmjUm, r, s, config)
    }

    fn smj_om(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
        run_join(dev, Algorithm::SmjOm, r, s, config)
    }

    fn pk_fk_inputs(dev: &Device, nr: usize, ns: usize) -> (Relation, Relation) {
        // Shuffled primary keys 0..nr; foreign keys cycle with stride.
        let mut pk: Vec<i32> = (0..nr as i32).collect();
        // Deterministic shuffle (LCG swap).
        let mut state = 0x2545F491u64;
        for i in (1..pk.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pk.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let fk: Vec<i32> = (0..ns).map(|i| ((i * 7) % nr) as i32).collect();
        let r = Relation::new(
            "R",
            Column::from_i32(dev, pk.clone(), "rk"),
            vec![
                Column::from_i32(dev, pk.iter().map(|&k| k * 10).collect(), "r1"),
                Column::from_i64(dev, pk.iter().map(|&k| k as i64 * 100).collect(), "r2"),
            ],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(dev, fk.clone(), "sk"),
            vec![Column::from_i32(
                dev,
                fk.iter().map(|&k| k + 1).collect(),
                "s1",
            )],
        );
        (r, s)
    }

    #[test]
    fn smj_um_matches_oracle() {
        let dev = Device::a100();
        let (r, s) = pk_fk_inputs(&dev, 500, 1200);
        let out = smj_um(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        assert_eq!(out.stats.rows, 1200);
    }

    #[test]
    fn smj_om_matches_oracle() {
        let dev = Device::a100();
        let (r, s) = pk_fk_inputs(&dev, 500, 1200);
        let out = smj_om(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn duplicate_keys_on_both_sides() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![5, 5, 9, 1], "k"),
            vec![Column::from_i32(&dev, vec![50, 51, 90, 10], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, vec![5, 9, 5], "k"),
            vec![Column::from_i64(&dev, vec![500, 900, 501], "q")],
        );
        let cfg = JoinConfig {
            unique_build: false,
            ..JoinConfig::default()
        };
        for f in [smj_um, smj_om] {
            let out = f(&dev, &r, &s, &cfg);
            assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        }
    }

    #[test]
    fn payloadless_join() {
        let dev = Device::a100();
        let r = Relation::new("R", Column::from_i32(&dev, vec![1, 2, 3], "k"), vec![]);
        let s = Relation::new("S", Column::from_i32(&dev, vec![2, 3, 4], "k"), vec![]);
        for f in [smj_um, smj_om] {
            let out = f(&dev, &r, &s, &JoinConfig::default());
            assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
            assert!(out.r_payloads.is_empty() && out.s_payloads.is_empty());
        }
    }

    #[test]
    fn i64_keys_work() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i64(&dev, vec![10, -20, 30], "k"),
            vec![Column::from_i32(&dev, vec![1, 2, 3], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i64(&dev, vec![-20, 30, 99], "k"),
            vec![Column::from_i32(&dev, vec![7, 8, 9], "q")],
        );
        for f in [smj_um, smj_om] {
            let out = f(&dev, &r, &s, &JoinConfig::default());
            assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        }
    }

    #[test]
    #[should_panic(expected = "share a physical type")]
    fn mixed_key_types_rejected() {
        let dev = Device::a100();
        let r = Relation::new("R", Column::from_i32(&dev, vec![1], "k"), vec![]);
        let s = Relation::new("S", Column::from_i64(&dev, vec![1], "k"), vec![]);
        let _ = smj_um(&dev, &r, &s, &JoinConfig::default());
    }

    #[test]
    fn om_spends_less_time_materializing_wide_joins() {
        // The paper's wide-join regime needs the gathered regions to dwarf
        // the L2 (2^27 rows vs 40 MB on the A100). To keep the test fast we
        // shrink the L2 instead of growing the data: 2^21-row columns (8 MB)
        // against a 1 MB cache, with the paper's Figure 10 layout — two
        // 4-byte payload columns on each side.
        let mut cfg = sim::DeviceConfig::rtx3090();
        cfg.l2_bytes = 1 << 20;
        let dev = Device::new(cfg);
        let n = 1 << 21;
        // Properly shuffled PKs: after sorting, the physical IDs are a
        // random permutation — exactly what makes UM's gathers unclustered.
        let mut pk: Vec<i32> = (0..n as i32).collect();
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in (1..pk.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pk.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let fk: Vec<i32> = (0..n).map(|i| pk[(i * 7) % n]).collect();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, pk.clone(), "rk"),
            vec![
                Column::from_i32(&dev, pk.iter().map(|&k| k * 10).collect(), "r1"),
                Column::from_i32(&dev, pk.iter().map(|&k| k + 3).collect(), "r2"),
            ],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, fk.clone(), "sk"),
            vec![
                Column::from_i32(&dev, fk.iter().map(|&k| k + 1).collect(), "s1"),
                Column::from_i32(&dev, fk.iter().map(|&k| k - 1).collect(), "s2"),
            ],
        );
        let um = smj_um(&dev, &r, &s, &JoinConfig::default());
        let om = smj_om(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(um.rows_sorted(), om.rows_sorted());
        assert!(
            om.stats.phases.materialize < um.stats.phases.materialize,
            "OM materialize {} should beat UM {}",
            om.stats.phases.materialize,
            um.stats.phases.materialize
        );
        // And end to end, the Figure 10 ordering: SMJ-OM beats SMJ-UM.
        assert!(om.stats.phases.total() < um.stats.phases.total());
    }
}
