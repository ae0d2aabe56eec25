//! Join kinds beyond the paper's inner equi-join: probe-side semi, anti and
//! outer joins.
//!
//! These matter for the paper's own workloads — J5 is extracted from TPC-DS
//! Q95, whose plan is an EXISTS (semi) join — and they compose with both
//! materialization patterns: the kind adjustment transforms the matched
//! triple `(key, ID_R, ID_S)` *before* payload materialization, so GFTR's
//! clustered gathers work unchanged. Unmatched probe rows in an outer join
//! gather R payloads as the type's null sentinel (`i32::MIN` / `i64::MIN`)
//! through [`primitives::gather_or`].

use columnar::ColumnElement;
use primitives::{gather, timed_phase, MatchResult, NULL_ID, STREAM_WARP_INSTR};
use serde::{Deserialize, Serialize};
use sim::{Device, DeviceBuffer, SimTime};

/// The join semantics, relative to the probe side S.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum JoinKind {
    /// All matching pairs — the paper's setting.
    #[default]
    Inner,
    /// One output row per S row with at least one match (EXISTS).
    Semi,
    /// One output row per S row with no match (NOT EXISTS).
    Anti,
    /// Inner matches plus one row per unmatched S row, R side null.
    Outer,
}

impl JoinKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
            JoinKind::Outer => "outer",
        }
    }
}

/// The match triple after kind adjustment, ready for materialization.
pub(crate) struct KindAdjusted<K: sim::Element> {
    /// Output key column values.
    pub keys: DeviceBuffer<K>,
    /// Map into the R-side payload source; `NULL_ID` rows gather the null
    /// sentinel. Empty when `materialize_r` is false.
    pub r_map: DeviceBuffer<u32>,
    /// Map into the S-side payload source.
    pub s_map: DeviceBuffer<u32>,
    /// Whether R payloads appear in the output (false for semi/anti).
    pub materialize_r: bool,
    /// Simulated time spent adjusting (add to the match-finding phase).
    pub time: SimTime,
}

/// Mark which S positions appear in a match list (in any order) and
/// return the unmatched ones. One streaming pass, charged.
fn unmatched_positions(dev: &Device, s_idx: &DeviceBuffer<u32>, s_len: usize) -> Vec<u32> {
    let mut matched = vec![false; s_len];
    for &s in s_idx.iter() {
        matched[s as usize] = true;
    }
    let extra: Vec<u32> = (0..s_len as u32)
        .filter(|&i| !matched[i as usize])
        .collect();
    dev.kernel("kind.unmatched_scan")
        .items((s_idx.len() + s_len) as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(s_idx.len() as u64 * 4)
        .seq_write_bytes((s_len / 8) as u64 + extra.len() as u64 * 4)
        .launch();
    extra
}

/// Transform an inner-match triple according to `kind`. `s_keys_src` is the
/// key column in the same ID space as `m.s_idx` (transformed keys for GFTR
/// drivers, original keys for GFUR ones); it supplies the key values of
/// unmatched rows for anti/outer joins.
pub(crate) fn apply_kind<K: ColumnElement>(
    dev: &Device,
    kind: JoinKind,
    m: MatchResult<K>,
    s_keys_src: &DeviceBuffer<K>,
    s_len: usize,
) -> KindAdjusted<K> {
    // No order is assumed of the match list. The merge join and the global
    // hash table emit all matches of one probe row contiguously, but the
    // partitioned hash joins re-stream the probe partition once per build
    // chunk / bucket, so a probe row's matches recur once per chunk there;
    // and under GFUR the values are physical IDs, grouped at best.
    let t0 = dev.elapsed();
    match kind {
        JoinKind::Inner => KindAdjusted {
            keys: m.keys,
            r_map: m.r_idx,
            s_map: m.s_idx,
            materialize_r: true,
            time: SimTime::ZERO,
        },
        JoinKind::Semi => {
            // Keep the first match of each S row, by a seen-bitmap over S
            // (as `unmatched_positions` does) — one streaming pass plus a
            // compaction gather.
            let mut seen = vec![false; s_len];
            let keep: Vec<u32> = (0..m.s_idx.len() as u32)
                .filter(|&i| !std::mem::replace(&mut seen[m.s_idx[i as usize] as usize], true))
                .collect();
            dev.kernel("kind.semi_flags")
                .items(m.s_idx.len() as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(m.s_idx.len() as u64 * 4)
                .seq_write_bytes(keep.len() as u64 * 4)
                .launch();
            let keep = dev.upload(keep, "kind.keep");
            let keys = gather(dev, &m.keys, &keep);
            let s_map = gather(dev, &m.s_idx, &keep);
            KindAdjusted {
                keys,
                r_map: dev.upload(Vec::new(), "kind.empty"),
                s_map,
                materialize_r: false,
                time: dev.elapsed() - t0,
            }
        }
        JoinKind::Anti => {
            let extra = unmatched_positions(dev, &m.s_idx, s_len);
            let s_map = dev.upload(extra, "kind.anti_s");
            let keys = gather(dev, s_keys_src, &s_map);
            KindAdjusted {
                keys,
                r_map: dev.upload(Vec::new(), "kind.empty"),
                s_map,
                materialize_r: false,
                time: dev.elapsed() - t0,
            }
        }
        JoinKind::Outer => {
            let extra = unmatched_positions(dev, &m.s_idx, s_len);
            let extra_buf = dev.upload(extra.clone(), "kind.outer_s");
            let extra_keys = gather(dev, s_keys_src, &extra_buf);
            // Concatenate (one sequential copy of both halves).
            let total = m.keys.len() + extra.len();
            let mut keys = Vec::with_capacity(total);
            keys.extend_from_slice(&m.keys);
            keys.extend_from_slice(&extra_keys);
            let mut r_map = Vec::with_capacity(total);
            r_map.extend_from_slice(&m.r_idx);
            r_map.extend(std::iter::repeat_n(NULL_ID, extra.len()));
            let mut s_map = Vec::with_capacity(total);
            s_map.extend_from_slice(&m.s_idx);
            s_map.extend(extra);
            dev.kernel("kind.outer_concat")
                .items(total as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(total as u64 * (K::SIZE + 8))
                .seq_write_bytes(total as u64 * (K::SIZE + 8))
                .launch();
            KindAdjusted {
                keys: dev.upload(keys, "kind.keys"),
                r_map: dev.upload(r_map, "kind.r_map"),
                s_map: dev.upload(s_map, "kind.s_map"),
                materialize_r: true,
                time: dev.elapsed() - t0,
            }
        }
    }
}

/// Convenience wrapper used by the drivers: run `apply_kind` under the
/// match-finding timer.
pub(crate) fn apply_kind_timed<K: ColumnElement>(
    dev: &Device,
    kind: JoinKind,
    m: MatchResult<K>,
    s_keys_src: &DeviceBuffer<K>,
    s_len: usize,
) -> KindAdjusted<K> {
    let (out, t) = timed_phase(dev, "match_find", || {
        apply_kind(dev, kind, m, s_keys_src, s_len)
    });
    KindAdjusted { time: t, ..out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    fn sample(dev: &Device) -> (MatchResult<i32>, DeviceBuffer<i32>) {
        // S keys: [5, 9, 5, 7]; R matched s positions 0, 0, 2 (key 5 twice
        // in R) — position 1 (key 9) and 3 (key 7) unmatched.
        let m = MatchResult {
            keys: dev.upload(vec![5i32, 5, 5], "k"),
            r_idx: dev.upload(vec![0u32, 1, 0], "r"),
            s_idx: dev.upload(vec![0u32, 0, 2], "s"),
        };
        let s_keys = dev.upload(vec![5i32, 9, 5, 7], "sk");
        (m, s_keys)
    }

    #[test]
    fn inner_is_identity() {
        let dev = Device::a100();
        let (m, sk) = sample(&dev);
        let a = apply_kind(&dev, JoinKind::Inner, m, &sk, 4);
        assert!(a.materialize_r);
        assert_eq!(a.keys.as_slice(), &[5, 5, 5]);
        assert_eq!(a.r_map.as_slice(), &[0, 1, 0]);
    }

    #[test]
    fn semi_keeps_first_match_per_probe_row() {
        let dev = Device::a100();
        let (m, sk) = sample(&dev);
        let a = apply_kind(&dev, JoinKind::Semi, m, &sk, 4);
        assert!(!a.materialize_r);
        assert_eq!(a.keys.as_slice(), &[5, 5]);
        assert_eq!(a.s_map.as_slice(), &[0, 2]);
    }

    #[test]
    fn anti_emits_unmatched_probe_rows() {
        let dev = Device::a100();
        let (m, sk) = sample(&dev);
        let a = apply_kind(&dev, JoinKind::Anti, m, &sk, 4);
        assert!(!a.materialize_r);
        assert_eq!(a.keys.as_slice(), &[9, 7]);
        assert_eq!(a.s_map.as_slice(), &[1, 3]);
    }

    #[test]
    fn outer_appends_null_padded_rows() {
        let dev = Device::a100();
        let (m, sk) = sample(&dev);
        let a = apply_kind(&dev, JoinKind::Outer, m, &sk, 4);
        assert!(a.materialize_r);
        assert_eq!(a.keys.as_slice(), &[5, 5, 5, 9, 7]);
        assert_eq!(a.r_map.as_slice(), &[0, 1, 0, NULL_ID, NULL_ID]);
        assert_eq!(a.s_map.as_slice(), &[0, 0, 2, 1, 3]);
    }

    #[test]
    fn empty_match_list_edge_cases() {
        let dev = Device::a100();
        let m = MatchResult {
            keys: dev.upload(Vec::<i32>::new(), "k"),
            r_idx: dev.upload(Vec::<u32>::new(), "r"),
            s_idx: dev.upload(Vec::<u32>::new(), "s"),
        };
        let sk = dev.upload(vec![3i32, 4], "sk");
        let a = apply_kind(&dev, JoinKind::Anti, m, &sk, 2);
        assert_eq!(a.keys.as_slice(), &[3, 4]);
    }
}
