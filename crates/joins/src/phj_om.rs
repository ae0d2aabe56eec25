//! PHJ-OM: the paper's new radix-partitioned hash join (Section 4.3,
//! Figure 6), built on the *stable* RADIX-PARTITION primitive so that every
//! payload column can be partitioned into exactly the same layout as its key
//! column — the property bucket chaining cannot give (non-determinism and
//! fragmentation, Section 3.2/4.3).
//!
//! The same match-finding machinery also runs the GFUR pattern
//! ([`phj_om_gfur`]) by partitioning `(key, physical ID)` instead of
//! payloads — the paper points out this flexibility makes the implementation
//! competitive for low-match-ratio workloads too.

use crate::kinds::{apply_kind_timed, JoinKind};
use crate::smj::{dispatch_keys, iota};
use crate::{choose_radix_bits, timed_phase, JoinConfig, JoinOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{
    gather, gather_column, gather_column_or_null, join_copartitions, radix_partition, MatchResult,
};
use sim::{Device, DeviceBuffer, OpStats, PhaseTimes};

/// Partition a payload column together with the relation's keys. Stability
/// of the radix partition guarantees a layout identical to every other
/// column partitioned with the same keys.
fn partition_payload_with_key<K: ColumnElement>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    payload: &Column,
    bits: u32,
) -> (DeviceBuffer<K>, Column, Vec<u32>) {
    match payload {
        Column::I32(v) => {
            let p = radix_partition(dev, keys, v, bits);
            (p.keys, Column::I32(p.vals), p.offsets)
        }
        Column::I64(v) => {
            let p = radix_partition(dev, keys, v, bits);
            (p.keys, Column::I64(p.vals), p.offsets)
        }
    }
}

/// PHJ-OM with the GFTR pattern (Algorithm 1 with `transform = partition`).
pub fn phj_om(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
    fn typed<K: ColumnElement>(
        r_keys: &DeviceBuffer<K>,
        s_keys: &DeviceBuffer<K>,
        dev: &Device,
        r: &Relation,
        s: &Relation,
        config: &JoinConfig,
    ) -> JoinOutput {
        dev.reset_peak_mem();
        let mut reservation =
            crate::OutputReservation::new(dev, r, s, crate::estimated_out_rows(config, s));
        let mut phases = PhaseTimes::default();
        let bits = choose_radix_bits(dev, r.len().max(1), K::SIZE, config);

        // Transformation: partition keys with the first payload column of
        // each relation (histogram + prefix sum for offsets included).
        let ((rt, st), t) = timed_phase(dev, "transform", || {
            let rt = match r.payloads().first() {
                Some(p) => {
                    let (k, p, off) = partition_payload_with_key(dev, r_keys, p, bits);
                    (k, Some(p), off)
                }
                None => {
                    let ids = iota(dev, r_keys.len(), "phj_om.r_ids");
                    let p = radix_partition(dev, r_keys, &ids, bits);
                    (p.keys, None, p.offsets)
                }
            };
            let st = match s.payloads().first() {
                Some(p) => {
                    let (k, p, off) = partition_payload_with_key(dev, s_keys, p, bits);
                    (k, Some(p), off)
                }
                None => {
                    let ids = iota(dev, s_keys.len(), "phj_om.s_ids");
                    let p = radix_partition(dev, s_keys, &ids, bits);
                    (p.keys, None, p.offsets)
                }
            };
            (rt, st)
        });
        phases.transform = t;

        // Match finding: shared-memory hash join per co-partition; the
        // emitted positions are virtual IDs into the partitioned relations,
        // clustered on the probe side.
        let (rt_keys, mut rt_p0, rt_off) = rt;
        let (st_keys, mut st_p0, st_off) = st;
        let (m, t) = timed_phase(dev, "match_find", || {
            reservation.release_keys();
            join_copartitions(dev, &rt_keys, &rt_off, &st_keys, &st_off).0
        });
        phases.match_find = t;
        // Kind adjustment in transformed (partitioned) space.
        let adj = apply_kind_timed(dev, config.kind, m, &st_keys, st_keys.len());
        phases.match_find += adj.time;
        // GFTR frees the transformed keys here, keeping only the first
        // transformed payload columns (Section 4.4).
        drop((rt_keys, st_keys));

        // Materialization: clustered gathers; columns beyond the first are
        // partitioned lazily, one at a time, and released once gathered.
        let gather_r = |src: &Column, map| {
            if config.kind == JoinKind::Outer {
                gather_column_or_null(dev, src, map)
            } else {
                gather_column(dev, src, map)
            }
        };
        let ((r_payloads, s_payloads), t) = timed_phase(dev, "materialize", || {
            let mut rp = Vec::with_capacity(r.num_payloads());
            if adj.materialize_r {
                if let Some(p0) = rt_p0.take() {
                    reservation.release_r(0);
                    rp.push(gather_r(&p0, &adj.r_map));
                }
                for (i, c) in r.payloads().iter().enumerate().skip(1) {
                    let (_, part, _) = partition_payload_with_key(dev, r_keys, c, bits);
                    reservation.release_r(i);
                    rp.push(gather_r(&part, &adj.r_map));
                }
            }
            let mut sp = Vec::with_capacity(s.num_payloads());
            if let Some(p0) = st_p0.take() {
                reservation.release_s(0);
                sp.push(gather_column(dev, &p0, &adj.s_map));
            }
            for (i, c) in s.payloads().iter().enumerate().skip(1) {
                let (_, part, _) = partition_payload_with_key(dev, s_keys, c, bits);
                reservation.release_s(i);
                sp.push(gather_column(dev, &part, &adj.s_map));
            }
            (rp, sp)
        });
        phases.materialize = t;

        let rows = adj.keys.len();
        JoinOutput {
            keys: K::wrap(adj.keys),
            r_payloads,
            s_payloads,
            stats: OpStats::new(phases, rows, dev.mem_report().peak_bytes),
        }
    }
    dispatch_keys!(r, s, typed(dev, r, s, config))
}

/// The same partitioned hash join run in GFUR mode: partition `(key,
/// physical ID)` only, then gather payloads from the untransformed inputs.
pub fn phj_om_gfur(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
    fn typed<K: ColumnElement>(
        r_keys: &DeviceBuffer<K>,
        s_keys: &DeviceBuffer<K>,
        dev: &Device,
        r: &Relation,
        s: &Relation,
        config: &JoinConfig,
    ) -> JoinOutput {
        dev.reset_peak_mem();
        let mut reservation =
            crate::OutputReservation::new(dev, r, s, crate::estimated_out_rows(config, s));
        let mut phases = PhaseTimes::default();
        let bits = choose_radix_bits(dev, r.len().max(1), K::SIZE, config);

        let ((rp, sp), t) = timed_phase(dev, "transform", || {
            let r_ids = iota(dev, r_keys.len(), "phj_gfur.r_ids");
            let s_ids = iota(dev, s_keys.len(), "phj_gfur.s_ids");
            (
                radix_partition(dev, r_keys, &r_ids, bits),
                radix_partition(dev, s_keys, &s_ids, bits),
            )
        });
        phases.transform = t;

        let ((keys, r_ids, s_ids), t) = timed_phase(dev, "match_find", || {
            reservation.release_keys();
            let (m, _) = join_copartitions(dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
            // Positions -> physical IDs (clustered reads of the partitioned
            // ID arrays).
            let r_ids = gather(dev, &rp.vals, &m.r_idx);
            let s_ids = gather(dev, &sp.vals, &m.s_idx);
            (m.keys, r_ids, s_ids)
        });
        phases.match_find = t;
        drop((rp, sp));
        // Kind adjustment in physical-ID space.
        let adj = apply_kind_timed(
            dev,
            config.kind,
            MatchResult {
                keys,
                r_idx: r_ids,
                s_idx: s_ids,
            },
            s_keys,
            s.len(),
        );
        phases.match_find += adj.time;

        let ((r_payloads, s_payloads), t) = timed_phase(dev, "materialize", || {
            let rp: Vec<Column> = if adj.materialize_r {
                r.payloads()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        reservation.release_r(i);
                        if config.kind == JoinKind::Outer {
                            gather_column_or_null(dev, c, &adj.r_map)
                        } else {
                            gather_column(dev, c, &adj.r_map)
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let sp: Vec<Column> = s
                .payloads()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    reservation.release_s(i);
                    gather_column(dev, c, &adj.s_map)
                })
                .collect();
            (rp, sp)
        });
        phases.materialize = t;

        let rows = adj.keys.len();
        JoinOutput {
            keys: K::wrap(adj.keys),
            r_payloads,
            s_payloads,
            stats: OpStats::new(phases, rows, dev.mem_report().peak_bytes),
        }
    }
    dispatch_keys!(r, s, typed(dev, r, s, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::hash_join_oracle;
    use columnar::Column;
    use sim::Device;

    fn inputs(dev: &Device, nr: usize, ns: usize) -> (Relation, Relation) {
        let pk: Vec<i32> = (0..nr as i32).rev().collect();
        let fk: Vec<i32> = (0..ns).map(|i| ((i * 13 + 5) % nr) as i32).collect();
        let r = Relation::new(
            "R",
            Column::from_i32(dev, pk.clone(), "rk"),
            vec![
                Column::from_i64(dev, pk.iter().map(|&k| k as i64 * 3).collect(), "r1"),
                Column::from_i32(dev, pk.iter().map(|&k| k + 7).collect(), "r2"),
            ],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(dev, fk.clone(), "sk"),
            vec![Column::from_i32(
                dev,
                fk.iter().map(|&k| -k).collect(),
                "s1",
            )],
        );
        (r, s)
    }

    #[test]
    fn phj_om_matches_oracle() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 700, 2000);
        let out = phj_om(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        assert_eq!(out.stats.rows, 2000);
    }

    #[test]
    fn phj_om_gfur_matches_oracle() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 700, 2000);
        let out = phj_om_gfur(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn explicit_radix_bits_respected_and_correct() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 1000, 1000);
        for bits in [1, 4, 10] {
            let cfg = JoinConfig {
                radix_bits: Some(bits),
                ..JoinConfig::default()
            };
            let out = phj_om(&dev, &r, &s, &cfg);
            assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s), "bits={bits}");
        }
    }

    #[test]
    fn duplicates_and_non_matching_keys() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![3, 3, 8, 100], "k"),
            vec![Column::from_i32(&dev, vec![30, 31, 80, 1], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, vec![8, 3, 42], "k"),
            vec![Column::from_i64(&dev, vec![800, 300, 4200], "q")],
        );
        let cfg = JoinConfig {
            unique_build: false,
            ..JoinConfig::default()
        };
        let out = phj_om(&dev, &r, &s, &cfg);
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn i64_keys() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i64(&dev, (0..100).map(|i| i * 1_000_000_007).collect(), "k"),
            vec![Column::from_i32(&dev, (0..100).collect(), "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i64(&dev, (0..50).map(|i| i * 2 * 1_000_000_007).collect(), "k"),
            vec![Column::from_i32(&dev, (0..50).collect(), "q")],
        );
        let out = phj_om(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn empty_probe_side() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![1, 2], "k"),
            vec![Column::from_i32(&dev, vec![1, 2], "p")],
        );
        let s = Relation::new("S", Column::from_i32(&dev, vec![], "k"), vec![]);
        let out = phj_om(&dev, &r, &s, &JoinConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn probe_side_ids_clustered_under_gftr() {
        // The property GFTR is built on: matched probe positions ascend.
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 512, 4096);
        let out = phj_om(&dev, &r, &s, &JoinConfig::default());
        // Indirectly verified through result equality above; here check the
        // partition-level invariant via GFUR mode's internals by running a
        // narrow join and confirming identical results across modes.
        let out2 = phj_om_gfur(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), out2.rows_sorted());
    }
}
