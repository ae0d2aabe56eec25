//! Sort-merge joins: SMJ-UM (Section 3.1, the GFUR state of the art) and
//! SMJ-OM (Section 4.2, the paper's GFTR variant).
//!
//! Both sort with [`primitives::sort_pairs`] and match with the merge-path
//! merge join. They differ only in what gets sorted and where payload values
//! are gathered from:
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

use crate::kinds::{apply_kind_timed, JoinKind};
use crate::{timed_phase, JoinConfig, JoinOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{
    gather, gather_column, gather_column_or_null, merge_join, sort_pairs, MatchResult,
};
use sim::{Device, DeviceBuffer, OpStats, PhaseTimes};

/// Generate physical tuple identifiers `0..n` (one streaming write).
pub(crate) fn iota(dev: &Device, n: usize, label: &'static str) -> DeviceBuffer<u32> {
    let ids = dev.upload((0..n as u32).collect(), label);
    dev.kernel("iota")
        .items(n as u64, primitives::STREAM_WARP_INSTR)
        .seq_write_bytes(n as u64 * 4)
        .launch();
    ids
}

/// Sort a payload column by the relation's key column, returning the sorted
/// keys and the co-sorted payload. Stability of the radix sort guarantees
/// every payload column of a relation ends up in the *same* order.
pub(crate) fn sort_payload_with_key<K: ColumnElement>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    payload: &Column,
) -> (DeviceBuffer<K>, Column) {
    match payload {
        Column::I32(v) => {
            let (k, v) = sort_pairs(dev, keys, v);
            (k, Column::I32(v))
        }
        Column::I64(v) => {
            let (k, v) = sort_pairs(dev, keys, v);
            (k, Column::I64(v))
        }
    }
}

/// Dispatch a typed join body over the (matching) key types of two
/// relations.
macro_rules! dispatch_keys {
    ($r:expr, $s:expr, $body:ident($($args:expr),*)) => {
        match ($r.key(), $s.key()) {
            (Column::I32(rk), Column::I32(sk)) => $body(rk, sk $(, $args)*),
            (Column::I64(rk), Column::I64(sk)) => $body(rk, sk $(, $args)*),
            (a, b) => panic!(
                "join keys must share a physical type, got {:?} vs {:?}",
                a.dtype(),
                b.dtype()
            ),
        }
    };
}
pub(crate) use dispatch_keys;

/// SMJ-UM: sort-merge join with unoptimized (GFUR) materialization.
///
/// For *narrow* joins (at most one payload column per side) the classic
/// implementation sorts the payload directly as the value of the
/// `(key, value)` pair instead of taking the ID + gather detour, which makes
/// it operationally identical to SMJ-OM — exactly the paper's observation
/// ("since the joins are narrow, SMJ-OM is identical to SMJ-UM",
/// Section 5.2.2). We reuse the GFTR code path for that case.
pub fn smj_um(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
    if r.num_payloads() <= 1 && s.num_payloads() <= 1 {
        return smj_om(dev, r, s, config);
    }
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

        // Transformation: associate physical IDs, sort (key, ID) pairs.
        let ((rs, ss), t) = timed_phase(dev, "transform", || {
            let r_ids = iota(dev, r_keys.len(), "smj_um.r_ids");
            let s_ids = iota(dev, s_keys.len(), "smj_um.s_ids");
            (
                sort_pairs(dev, r_keys, &r_ids),
                sort_pairs(dev, s_keys, &s_ids),
            )
        });
        phases.transform = t;

        // Match finding: merge the sorted keys, then translate the merge
        // positions into physical IDs (clustered lookups into the sorted ID
        // arrays — on hardware the IDs ride through the merge kernel).
        let ((keys, r_ids, s_ids), t) = timed_phase(dev, "match_find", || {
            reservation.release_keys();
            let m = merge_join(dev, &rs.0, &ss.0, config.unique_build);
            let r_ids = gather(dev, &rs.1, &m.r_idx);
            let s_ids = gather(dev, &ss.1, &m.s_idx);
            (m.keys, r_ids, s_ids)
        });
        phases.match_find = t;
        drop((rs, ss));
        // Kind adjustment in physical-ID space (original S keys source).
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

        // Materialization: unclustered gathers from the original columns.
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

/// SMJ-OM: sort-merge join with optimized (GFTR) materialization —
/// Algorithm 1 with `transform = sort`.
pub fn smj_om(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
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

        // Transformation (Algorithm 1, lines 1-2): sort keys together with
        // the *first* payload column of each side. Payload-less sides sort
        // keys alone (modeled as a key-only pair sort with 4-byte IDs).
        let ((rt, st), t) = timed_phase(dev, "transform", || {
            let rt = match r.payloads().first() {
                Some(p) => {
                    let (k, p) = sort_payload_with_key(dev, r_keys, p);
                    (k, Some(p))
                }
                None => {
                    let ids = iota(dev, r_keys.len(), "smj_om.r_ids");
                    (sort_pairs(dev, r_keys, &ids).0, None)
                }
            };
            let st = match s.payloads().first() {
                Some(p) => {
                    let (k, p) = sort_payload_with_key(dev, s_keys, p);
                    (k, Some(p))
                }
                None => {
                    let ids = iota(dev, s_keys.len(), "smj_om.s_ids");
                    (sort_pairs(dev, s_keys, &ids).0, None)
                }
            };
            (rt, st)
        });
        phases.transform = t;

        // Match finding (line 3): virtual IDs fall straight out of the
        // merge — they are positions in the sorted relations.
        let (rt_keys, mut rt_p0) = rt;
        let (st_keys, mut st_p0) = st;
        let (m, t) = timed_phase(dev, "match_find", || {
            reservation.release_keys();
            merge_join(dev, &rt_keys, &st_keys, config.unique_build)
        });
        phases.match_find = t;
        // Kind adjustment in transformed (sorted) space — the sorted S keys
        // supply unmatched-row key values for anti/outer joins.
        let adj = apply_kind_timed(dev, config.kind, m, &st_keys, st_keys.len());
        phases.match_find += adj.time;
        // GFTR frees the transformed *keys* after match finding but keeps
        // the transformed payload columns (Section 4.4).
        drop((rt_keys, st_keys));

        // Materialization (lines 4-9): clustered gather of the two already
        // sorted payload columns; remaining columns are sorted on demand,
        // one at a time, then gathered (and each transformed column is
        // released as soon as its gather completes — Table 2).
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
                    let (_, sorted) = sort_payload_with_key(dev, r_keys, c);
                    reservation.release_r(i);
                    rp.push(gather_r(&sorted, &adj.r_map));
                }
            }
            let mut sp = Vec::with_capacity(s.num_payloads());
            if let Some(p0) = st_p0.take() {
                reservation.release_s(0);
                sp.push(gather_column(dev, &p0, &adj.s_map));
            }
            for (i, c) in s.payloads().iter().enumerate().skip(1) {
                let (_, sorted) = sort_payload_with_key(dev, s_keys, c);
                reservation.release_s(i);
                sp.push(gather_column(dev, &sorted, &adj.s_map));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::hash_join_oracle;
    use columnar::Column;
    use sim::Device;

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
