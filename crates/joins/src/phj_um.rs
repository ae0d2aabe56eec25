//! PHJ-UM's transformation and match finding: the bucket-chain partitioned
//! hash join of Sioulas et al. (Section 3.2, Figure 3) — the GFUR state of
//! the art the paper improves on. [`crate::driver`] runs it as
//! `Transform::BucketChain`.
//!
//! Partitions live in chains of fixed-size buckets carved out of a
//! pre-allocated pool. Buckets are claimed and filled with atomic
//! operations, which makes the layout
//!
//! * **non-deterministic** — the insertion order depends on the block
//!   schedule, so partitioning `(key, col_1)` and `(key, col_2)` separately
//!   would interleave rows differently (the simulator reproduces this with
//!   a seeded block scheduler; see [`layout_fingerprint`]), and
//! * **fragmented** — the last bucket of every chain is partially full, so
//!   positional lookup into a partitioned column is not O(1).
//!
//! Together these are why the GFTR pattern cannot be retrofitted onto
//! bucket chaining (Section 4.3) and why this transform always
//! materializes through unclustered gathers. The atomic bookkeeping also
//! makes the partitioner collapse under heavy skew (Figure 14), which the
//! cost model charges via the hottest partition's serialized atomics.

use crate::JoinConfig;
use columnar::ColumnElement;
use primitives::{iota, BUILD_WARP_INSTR, PROBE_WARP_INSTR, SCATTER_WARP_INSTR};
use sim::{Device, DeviceBuffer, Element};

/// A relation's keys and physical IDs, partitioned into bucket chains.
pub(crate) struct BucketChains<K: Element> {
    /// Bucket pool for keys; buckets are `bucket_tuples` wide.
    pool_keys: DeviceBuffer<K>,
    /// Bucket pool for physical tuple IDs.
    pool_ids: DeviceBuffer<u32>,
    /// Per partition, the chain of `(pool_start, filled)` bucket descriptors.
    chains: Vec<Vec<(u32, u32)>>,
}

/// Deterministic pseudo-shuffle of block processing order from a seed —
/// the stand-in for the GPU's nondeterministic block scheduler.
fn scheduled_blocks(num_blocks: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..num_blocks).collect();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..num_blocks).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Partition `(keys, physical IDs)` into bucket chains, charging the
/// two-pass atomic partitioning cost of Sioulas et al.
pub(crate) fn bucket_partition<K: ColumnElement>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    bits: u32,
    config: &JoinConfig,
) -> BucketChains<K> {
    let n = keys.len();
    let parts = 1usize << bits;
    // `bucket_tuples == 0` auto-sizes buckets to the shared-memory hash
    // table one thread block can build (so one bucket ~ one build chunk).
    let bucket = if config.bucket_tuples == 0 {
        dev.config().shared_mem_tuples(K::SIZE + 4).max(64) as usize
    } else {
        config.bucket_tuples
    };
    let ids = iota(dev, n, "phj_um.ids");

    // Pool sized for the worst case: every partition wastes one partial
    // bucket — the fragmentation of Figure 3 — plus 50% headroom, since the
    // chains grow dynamically and the implementation cannot bound per-
    // partition sizes before the pass runs. This over-allocation is what
    // puts PHJ-UM above PHJ-OM in the paper's measured Table 5.
    let max_buckets = (parts + n.div_ceil(bucket)) * 3 / 2;
    let mut pool_keys = dev.alloc::<K>(max_buckets * bucket, "phj_um.pool_keys");
    let mut pool_ids = dev.alloc::<u32>(max_buckets * bucket, "phj_um.pool_ids");

    let mut chains: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
    let mut next_bucket = 0u32;
    let mut hist = vec![0u64; parts];

    // Blocks race to append; the seeded schedule decides the interleaving.
    const BLOCK_TUPLES: usize = 4096;
    let num_blocks = n.div_ceil(BLOCK_TUPLES);
    let (pool_k, pool_i) = (pool_keys.as_mut_slice(), pool_ids.as_mut_slice());
    for b in scheduled_blocks(num_blocks, config.scheduler_seed) {
        let lo = b * BLOCK_TUPLES;
        let hi = (lo + BLOCK_TUPLES).min(n);
        for i in lo..hi {
            let p = (keys[i].to_radix() & ((1u64 << bits) - 1)) as usize;
            hist[p] += 1;
            let need_new = match chains[p].last() {
                None => true,
                Some(&(_, filled)) => filled as usize == bucket,
            };
            if need_new {
                chains[p].push((next_bucket * bucket as u32, 0));
                next_bucket += 1;
            }
            let slot = chains[p].last_mut().expect("chain has a bucket");
            let pos = slot.0 as usize + slot.1 as usize;
            pool_k[pos] = keys[i];
            pool_i[pos] = ids[i];
            slot.1 += 1;
        }
    }

    // Cost: the paper's implementation runs two partitioning passes over
    // (key, ID); each pass reads and writes both arrays and performs one
    // atomic bookkeeping op per tuple, serializing on the hottest partition.
    let hottest = hist.iter().copied().max().unwrap_or(0);
    let pair = n as u64 * (K::SIZE + 4);
    for pass in ["phj_um.partition.pass1", "phj_um.partition.pass2"] {
        dev.kernel(pass)
            .items(n as u64, SCATTER_WARP_INSTR)
            .seq_read_bytes(pair)
            .seq_write_bytes(pair)
            .atomics(n as u64, hottest)
            .launch();
    }

    BucketChains {
        pool_keys,
        pool_ids,
        chains,
    }
}

/// Join co-partitions bucket by bucket: build a shared-memory table per
/// build bucket, stream the probe chain through it (block-nested-loop when
/// a build partition has several buckets — Section 3.2).
pub(crate) fn bucket_join<K: ColumnElement>(
    dev: &Device,
    r: &BucketChains<K>,
    s: &BucketChains<K>,
) -> (Vec<K>, Vec<u32>, Vec<u32>) {
    let mut out_keys = Vec::new();
    let mut out_r = Vec::new();
    let mut out_s = Vec::new();
    let mut table: Vec<(u64, u32)> = Vec::new();
    let mut build_reads = 0u64;
    let mut probe_reads = 0u64;

    for (rp, sp) in r.chains.iter().zip(&s.chains) {
        if rp.is_empty() || sp.is_empty() {
            continue;
        }
        for &(r_start, r_len) in rp {
            // Build this bucket's table.
            let slots = ((r_len as usize * 2).next_power_of_two()).max(4);
            let mask = slots - 1;
            table.clear();
            table.resize(slots, (u64::MAX, u32::MAX));
            for off in 0..r_len as usize {
                let pos = r_start as usize + off;
                let k = r.pool_keys[pos].to_radix();
                let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & mask;
                while table[h].1 != u32::MAX {
                    h = (h + 1) & mask;
                }
                table[h] = (k, r.pool_ids[pos]);
            }
            build_reads += r_len as u64;

            // Probe the whole S chain against it.
            for &(s_start, s_len) in sp {
                for off in 0..s_len as usize {
                    let pos = s_start as usize + off;
                    let sk = s.pool_keys[pos];
                    let k = sk.to_radix();
                    let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & mask;
                    while table[h].1 != u32::MAX {
                        if table[h].0 == k {
                            out_keys.push(sk);
                            out_r.push(table[h].1);
                            out_s.push(s.pool_ids[pos]);
                        }
                        h = (h + 1) & mask;
                    }
                }
                probe_reads += s_len as u64;
            }
        }
    }

    dev.kernel("phj_um.build")
        .items(build_reads, BUILD_WARP_INSTR)
        .seq_read_bytes(build_reads * (K::SIZE + 4))
        .launch();
    dev.kernel("phj_um.probe")
        .items(probe_reads, PROBE_WARP_INSTR)
        .seq_read_bytes(probe_reads * (K::SIZE + 4))
        .seq_write_bytes(out_keys.len() as u64 * (K::SIZE + 8))
        .launch();

    (out_keys, out_r, out_s)
}

/// Fingerprint of the bucket-pool layout a given scheduler seed produces for
/// a relation's keys — used to *demonstrate* the non-determinism of bucket
/// chaining (Section 4.3): different seeds generally give different
/// fingerprints while the join result stays identical.
#[cfg(test)]
fn layout_fingerprint(dev: &Device, rel: &columnar::Relation, config: &JoinConfig) -> u64 {
    fn typed<K: ColumnElement>(keys: &DeviceBuffer<K>, dev: &Device, config: &JoinConfig) -> u64 {
        let bits = crate::choose_radix_bits(dev, keys.len().max(1), K::SIZE, config);
        let chains = bucket_partition(dev, keys, bits, config);
        let mut h = 0xcbf29ce484222325u64;
        for part in &chains.chains {
            for &(start, len) in part {
                for off in 0..len as usize {
                    let v = chains.pool_ids[start as usize + off] as u64;
                    h = (h ^ v).wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }
    columnar::dispatch_column!(rel.key(), |k| typed(k, dev, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::hash_join_oracle;
    use crate::{run_join, Algorithm, JoinOutput};
    use columnar::{Column, Relation};

    fn phj_um(dev: &Device, r: &Relation, s: &Relation, config: &JoinConfig) -> JoinOutput {
        run_join(dev, Algorithm::PhjUm, r, s, config)
    }

    fn inputs(dev: &Device, nr: usize, ns: usize) -> (Relation, Relation) {
        let pk: Vec<i32> = (0..nr as i32).map(|i| (i * 37 + 11) % nr as i32).collect();
        // (i*37+11) mod nr is a permutation only if gcd(37, nr)=1; use a
        // co-prime nr in callers.
        let fk: Vec<i32> = (0..ns).map(|i| ((i * 3) % nr) as i32).collect();
        // Two payload columns on R keep these tests on the wide-join path,
        // where the bucket-chain machinery actually runs.
        let r = Relation::new(
            "R",
            Column::from_i32(dev, pk.clone(), "rk"),
            vec![
                Column::from_i32(dev, pk.iter().map(|&k| k * 2).collect(), "r1"),
                Column::from_i32(dev, pk.iter().map(|&k| k + 9).collect(), "r2"),
            ],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(dev, fk.clone(), "sk"),
            vec![Column::from_i64(
                dev,
                fk.iter().map(|&k| k as i64 - 5).collect(),
                "s1",
            )],
        );
        (r, s)
    }

    #[test]
    fn phj_um_matches_oracle() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 701, 2100);
        let cfg = JoinConfig {
            unique_build: false,
            ..JoinConfig::default()
        };
        let out = phj_um(&dev, &r, &s, &cfg);
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn result_invariant_under_scheduler_seed() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 701, 1000);
        let mut results = Vec::new();
        for seed in [0u64, 7, 1234] {
            let cfg = JoinConfig {
                scheduler_seed: seed,
                bucket_tuples: 64,
                ..JoinConfig::default()
            };
            results.push(phj_um(&dev, &r, &s, &cfg).rows_sorted());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn layout_is_nondeterministic_across_seeds() {
        let dev = Device::a100();
        let (r, _) = inputs(&dev, 5003, 10);
        let cfg0 = JoinConfig {
            scheduler_seed: 0,
            bucket_tuples: 32,
            ..JoinConfig::default()
        };
        let cfg1 = JoinConfig {
            scheduler_seed: 99,
            ..cfg0.clone()
        };
        let f0 = layout_fingerprint(&dev, &r, &cfg0);
        let f1 = layout_fingerprint(&dev, &r, &cfg1);
        // Identical seeds reproduce; different seeds diverge.
        assert_eq!(f0, layout_fingerprint(&dev, &r, &cfg0));
        assert_ne!(f0, f1, "block schedule should change the bucket layout");
    }

    #[test]
    fn tiny_buckets_force_chains() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 701, 3000);
        let cfg = JoinConfig {
            bucket_tuples: 8,
            radix_bits: Some(3),
            unique_build: false,
            ..JoinConfig::default()
        };
        let out = phj_um(&dev, &r, &s, &cfg);
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn skew_blows_up_partition_time() {
        let dev = Device::a100();
        let n = 1 << 16;
        // Uniform foreign keys.
        let uniform: Vec<i32> = (0..n).map(|i| i % 1024).collect();
        // Extreme skew: everything hits one key.
        let skewed: Vec<i32> = vec![7; n as usize];
        let pk: Vec<i32> = (0..1024).collect();
        let mk = |fk: Vec<i32>| {
            let r = Relation::new(
                "R",
                Column::from_i32(&dev, pk.clone(), "rk"),
                vec![
                    Column::from_i32(&dev, pk.clone(), "r1"),
                    Column::from_i32(&dev, pk.clone(), "r2"),
                ],
            );
            let s = Relation::new(
                "S",
                Column::from_i32(&dev, fk.clone(), "sk"),
                vec![
                    Column::from_i32(&dev, fk.clone(), "s1"),
                    Column::from_i32(&dev, fk, "s2"),
                ],
            );
            (r, s)
        };
        let cfg = JoinConfig {
            radix_bits: Some(10),
            ..JoinConfig::default()
        };
        let (r, s) = mk(uniform);
        let t_uniform = phj_um(&dev, &r, &s, &cfg).stats.phases.transform;
        let (r, s) = mk(skewed);
        let t_skewed = phj_um(&dev, &r, &s, &cfg).stats.phases.transform;
        assert!(
            t_skewed.secs() > 3.0 * t_uniform.secs(),
            "skewed {} vs uniform {}",
            t_skewed,
            t_uniform
        );
    }

    #[test]
    fn fragmentation_costs_pool_memory() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 701, 701);
        let cfg = JoinConfig {
            bucket_tuples: 512,
            radix_bits: Some(8),
            unique_build: false,
            ..JoinConfig::default()
        };
        let out = phj_um(&dev, &r, &s, &cfg);
        // Pool is allocated for (parts + n/bucket) buckets on each side —
        // far more than the tuples themselves.
        assert!(out.stats.peak_mem_bytes > 2 * (r.size_bytes() + s.size_bytes()));
    }
}
