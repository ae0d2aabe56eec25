//! A real multi-threaded CPU radix join — the stand-in for the optimized
//! CPU baseline of Balkesen et al. used in Figure 8.
//!
//! Unlike every other algorithm in this crate, nothing here is simulated:
//! the join runs on host threads (`std::thread::scope`) and reports *measured*
//! wall-clock, converted into [`sim::SimTime`] so the benchmark harness can
//! chart CPU and GPU series together. The structure is the classic
//! partitioned radix join: parallel histogram + scatter into contiguous
//! partitions, then per-partition hash build/probe, then payload
//! materialization by tuple ID.

use crate::kinds::JoinKind;
use crate::{JoinConfig, JoinOutput};
use columnar::{Column, ColumnElement, Relation};
use sim::{Device, DeviceBuffer, Element, OpStats, PhaseTimes, SimTime};
use std::time::Instant;

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Parallel stable radix partition of `(key, 0..n)` into `2^bits`
/// contiguous partitions. Returns `(keys, ids, offsets)`.
fn partition_parallel<K: ColumnElement>(keys: &[K], bits: u32) -> (Vec<K>, Vec<u32>, Vec<u32>) {
    let n = keys.len();
    let parts = 1usize << bits;
    let mask = (parts - 1) as u64;
    let threads = num_threads().min(n.max(1));
    let chunk = n.div_ceil(threads.max(1)).max(1);

    // Per-thread histograms.
    let mut histograms = vec![vec![0u32; parts]; threads];
    std::thread::scope(|scope| {
        for (t, hist) in histograms.iter_mut().enumerate() {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            scope.spawn(move || {
                for k in &keys[lo..hi.max(lo)] {
                    hist[(k.to_radix() & mask) as usize] += 1;
                }
            });
        }
    });

    // Global offsets: partition-major, thread-minor (keeps the pass stable).
    let mut write_base = vec![vec![0u32; parts]; threads];
    let mut offsets = vec![0u32; parts + 1];
    let mut acc = 0u32;
    for p in 0..parts {
        offsets[p] = acc;
        for t in 0..threads {
            write_base[t][p] = acc;
            acc += histograms[t][p];
        }
    }
    offsets[parts] = acc;

    // Parallel scatter through disjoint output windows.
    let mut out_keys = vec![K::default(); n];
    let mut out_ids = vec![0u32; n];
    {
        // Hand each thread its own cursor row; windows are disjoint by
        // construction, so the raw-pointer writes below never alias.
        struct SendPtr<T>(*mut T);
        unsafe impl<T> Send for SendPtr<T> {}
        unsafe impl<T> Sync for SendPtr<T> {}
        let kp = SendPtr(out_keys.as_mut_ptr());
        let ip = SendPtr(out_ids.as_mut_ptr());
        let kp = &kp;
        let ip = &ip;
        std::thread::scope(|scope| {
            for (t, mut cursor) in write_base.into_iter().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    for (i, k) in (lo..hi.max(lo)).zip(&keys[lo..hi.max(lo)]) {
                        let p = (k.to_radix() & mask) as usize;
                        let pos = cursor[p] as usize;
                        cursor[p] += 1;
                        // SAFETY: each (thread, partition) window is
                        // disjoint, sized by that thread's histogram.
                        unsafe {
                            *kp.0.add(pos) = *k;
                            *ip.0.add(pos) = i as u32;
                        }
                    }
                });
            }
        });
    }
    (out_keys, out_ids, offsets)
}

/// Per-partition hash join, partitions spread over threads. Returns matched
/// `(key, r_id, s_id)` triples concatenated in partition order.
fn join_partitions<K: ColumnElement>(
    r_keys: &[K],
    r_ids: &[u32],
    r_off: &[u32],
    s_keys: &[K],
    s_ids: &[u32],
    s_off: &[u32],
) -> (Vec<K>, Vec<u32>, Vec<u32>) {
    let parts = r_off.len() - 1;
    let threads = num_threads().min(parts.max(1));
    let per_thread = parts.div_ceil(threads);
    let mut shards: Vec<(Vec<K>, Vec<u32>, Vec<u32>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let p_lo = t * per_thread;
            let p_hi = ((t + 1) * per_thread).min(parts);
            handles.push(scope.spawn(move || {
                let mut keys = Vec::new();
                let mut ri = Vec::new();
                let mut si = Vec::new();
                let mut table: Vec<(u64, u32)> = Vec::new();
                for p in p_lo..p_hi {
                    let rr = r_off[p] as usize..r_off[p + 1] as usize;
                    let sr = s_off[p] as usize..s_off[p + 1] as usize;
                    if rr.is_empty() || sr.is_empty() {
                        continue;
                    }
                    let slots = (rr.len() * 2).next_power_of_two().max(4);
                    let mask = slots - 1;
                    table.clear();
                    table.resize(slots, (u64::MAX, u32::MAX));
                    for i in rr {
                        let k = r_keys[i].to_radix();
                        let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
                        while table[h].1 != u32::MAX {
                            h = (h + 1) & mask;
                        }
                        table[h] = (k, r_ids[i]);
                    }
                    for j in sr {
                        let k = s_keys[j].to_radix();
                        let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
                        while table[h].1 != u32::MAX {
                            if table[h].0 == k {
                                keys.push(s_keys[j]);
                                ri.push(table[h].1);
                                si.push(s_ids[j]);
                            }
                            h = (h + 1) & mask;
                        }
                    }
                }
                (keys, ri, si)
            }));
        }
        shards = handles
            .into_iter()
            .map(|h| h.join().expect("join thread panicked"))
            .collect();
    });

    let total: usize = shards.iter().map(|s| s.0.len()).sum();
    let mut keys = Vec::with_capacity(total);
    let mut ri = Vec::with_capacity(total);
    let mut si = Vec::with_capacity(total);
    for (k, r, s) in shards {
        keys.extend(k);
        ri.extend(r);
        si.extend(s);
    }
    (keys, ri, si)
}

/// Materialize one payload column by tuple IDs, in parallel. `u32::MAX`
/// entries (outer-join nulls) produce the type's null sentinel.
fn gather_cpu(col: &Column, ids: &[u32], dev: &Device) -> Column {
    fn typed<T: Element>(src: &DeviceBuffer<T>, ids: &[u32], null: T) -> Vec<T> {
        let n = ids.len();
        let threads = num_threads().min(n.max(1));
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let mut out = vec![T::default(); n];
        std::thread::scope(|scope| {
            for (slice, id_chunk) in out.chunks_mut(chunk).zip(ids.chunks(chunk)) {
                scope.spawn(move || {
                    for (o, &m) in slice.iter_mut().zip(id_chunk) {
                        *o = if m == u32::MAX { null } else { src[m as usize] };
                    }
                });
            }
        });
        out
    }
    match col {
        Column::I32(b) => Column::from_i32(dev, typed(b, ids, i32::MIN), "cpu.gather"),
        Column::I64(b) => Column::from_i64(dev, typed(b, ids, i64::MIN), "cpu.gather"),
    }
}

/// Host-side kind adjustment of the matched triple (see
/// [`crate::kinds::JoinKind`]); the CPU baseline supports all four kinds.
fn apply_kind_cpu<K: Element + Copy>(
    kind: JoinKind,
    keys: Vec<K>,
    r_ids: Vec<u32>,
    s_ids: Vec<u32>,
    s_keys: &[K],
) -> (Vec<K>, Vec<u32>, Vec<u32>, bool) {
    match kind {
        JoinKind::Inner => (keys, r_ids, s_ids, true),
        JoinKind::Semi => {
            let mut k = Vec::new();
            let mut sm = Vec::new();
            for i in 0..s_ids.len() {
                if i == 0 || s_ids[i] != s_ids[i - 1] {
                    k.push(keys[i]);
                    sm.push(s_ids[i]);
                }
            }
            (k, Vec::new(), sm, false)
        }
        JoinKind::Anti => {
            let mut matched = vec![false; s_keys.len()];
            for &sid in &s_ids {
                matched[sid as usize] = true;
            }
            let sm: Vec<u32> = (0..s_keys.len() as u32)
                .filter(|&i| !matched[i as usize])
                .collect();
            let k = sm.iter().map(|&i| s_keys[i as usize]).collect();
            (k, Vec::new(), sm, false)
        }
        JoinKind::Outer => {
            let mut matched = vec![false; s_keys.len()];
            for &sid in &s_ids {
                matched[sid as usize] = true;
            }
            let mut k = keys;
            let mut rm = r_ids;
            let mut sm = s_ids;
            for i in 0..s_keys.len() as u32 {
                if !matched[i as usize] {
                    k.push(s_keys[i as usize]);
                    rm.push(u32::MAX);
                    sm.push(i);
                }
            }
            (k, rm, sm, true)
        }
    }
}

/// Multi-threaded CPU radix join. Wall-clock measured; no simulated costs.
pub fn cpu_radix_join(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
    fn typed<K: ColumnElement>(
        r_keys: &DeviceBuffer<K>,
        s_keys: &DeviceBuffer<K>,
        dev: &Device,
        r: &Relation,
        s: &Relation,
        config: &JoinConfig,
    ) -> JoinOutput {
        let bits = config.radix_bits.unwrap_or_else(|| {
            // Partitions sized to roughly fit L2 per core.
            let target = 16_384u64;
            let parts = (r.len() as u64).div_ceil(target).max(1);
            (64 - (parts - 1).leading_zeros()).clamp(4, 14)
        });
        let mut phases = PhaseTimes::default();

        let t0 = Instant::now();
        let (rk, ri, ro) = partition_parallel(r_keys.as_slice(), bits);
        let (sk, si, so) = partition_parallel(s_keys.as_slice(), bits);
        phases.transform = SimTime::from_secs(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let (keys, r_ids, s_ids) = join_partitions(&rk, &ri, &ro, &sk, &si, &so);
        let (keys, r_ids, s_ids, materialize_r) =
            apply_kind_cpu(config.kind, keys, r_ids, s_ids, s_keys.as_slice());
        phases.match_find = SimTime::from_secs(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let r_payloads: Vec<Column> = if materialize_r {
            r.payloads()
                .iter()
                .map(|c| gather_cpu(c, &r_ids, dev))
                .collect()
        } else {
            Vec::new()
        };
        let s_payloads: Vec<Column> = s
            .payloads()
            .iter()
            .map(|c| gather_cpu(c, &s_ids, dev))
            .collect();
        phases.materialize = SimTime::from_secs(t0.elapsed().as_secs_f64());

        let rows = keys.len();
        JoinOutput {
            keys: K::wrap(dev.upload(keys, "cpu.out_keys")),
            r_payloads,
            s_payloads,
            // peak 0: host memory, not device-ledger tracked
            stats: OpStats::new(phases, rows, 0),
        }
    }
    columnar::dispatch_column!(r.key(), s.key(), |rk, sk| typed(rk, sk, dev, r, s, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::hash_join_oracle;
    use columnar::Column;
    use sim::Device;

    #[test]
    fn cpu_join_matches_oracle() {
        let dev = Device::a100();
        let pk: Vec<i32> = (0..2000).map(|i| (i * 7 + 3) % 2000).collect();
        let fk: Vec<i32> = (0..5000).map(|i| i % 2500).collect();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, pk.clone(), "rk"),
            vec![Column::from_i64(
                &dev,
                pk.iter().map(|&k| k as i64 * 2).collect(),
                "r1",
            )],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, fk.clone(), "sk"),
            vec![Column::from_i32(
                &dev,
                fk.iter().map(|&k| k + 9).collect(),
                "s1",
            )],
        );
        let out = cpu_radix_join(&dev, &r, &s, &JoinConfig::default());
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        assert!(out.stats.phases.total().secs() > 0.0);
    }

    #[test]
    fn cpu_join_with_duplicates_and_i64_keys() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i64(&dev, vec![5, 5, -9, 300], "k"),
            vec![Column::from_i32(&dev, vec![1, 2, 3, 4], "p")],
        );
        let s = Relation::new(
            "S",
            Column::from_i64(&dev, vec![-9, 5, 5, 17], "k"),
            vec![Column::from_i64(&dev, vec![10, 20, 30, 40], "q")],
        );
        let cfg = JoinConfig {
            unique_build: false,
            radix_bits: Some(4),
            ..JoinConfig::default()
        };
        let out = cpu_radix_join(&dev, &r, &s, &cfg);
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn empty_inputs() {
        let dev = Device::a100();
        let r = Relation::new("R", Column::from_i32(&dev, vec![], "k"), vec![]);
        let s = Relation::new("S", Column::from_i32(&dev, vec![], "k"), vec![]);
        let out = cpu_radix_join(&dev, &r, &s, &JoinConfig::default());
        assert!(out.is_empty());
    }
}
