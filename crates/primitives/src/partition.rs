//! Stable radix partitioning — the RADIX-PARTITION primitive of Section 2.3.
//!
//! One pass moves at most [`sim::DeviceConfig::max_radix_bits_per_pass`]
//! bits (8 on Ampere → 256 partitions); wider fan-outs compose passes from
//! the least significant digit up, which keeps the result *stable* — the
//! property Section 4.3 of the paper relies on to partition every payload
//! column identically to its key column.

use crate::KeyOrder;
use columnar::Column;
use sim::{Device, DeviceBuffer, Element};

/// Output of [`radix_partition`]: reordered pairs plus partition offsets.
///
/// Partition `p` occupies `keys[offsets[p] as usize .. offsets[p + 1] as
/// usize]` — contiguous storage with no fragmentation, in contrast to the
/// bucket chains of Sioulas et al. (Section 3.2).
pub struct PartitionedPairs<K: Element, V: Element> {
    /// Keys, grouped by partition (stable within each partition).
    pub keys: DeviceBuffer<K>,
    /// Values, moved with their keys.
    pub vals: DeviceBuffer<V>,
    /// `num_partitions + 1` offsets into `keys`/`vals`.
    pub offsets: Vec<u32>,
    /// Number of radix bits defining a partition.
    pub bits: u32,
}

impl<K: Element, V: Element> PartitionedPairs<K, V> {
    /// Number of partitions (`2^bits`).
    pub fn num_partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Half-open row range of partition `p`.
    pub fn partition_range(&self, p: usize) -> std::ops::Range<usize> {
        self.offsets[p] as usize..self.offsets[p + 1] as usize
    }
}

/// The partition id (digit under the full `bits` mask) of a key.
#[inline]
pub fn partition_of<K: Element>(key: K, bits: u32) -> usize {
    (key.to_radix() & ((1u64 << bits) - 1)) as usize
}

/// The radix fan-out for `rows` tuples of `tuple_bytes` each: `pinned` if
/// set, else partitions sized to the shared-memory hash table, clamped to
/// the 2-pass range the paper uses (Section 4.3).
pub fn choose_radix_bits(dev: &Device, rows: usize, tuple_bytes: u64, pinned: Option<u32>) -> u32 {
    if let Some(bits) = pinned {
        return bits;
    }
    let target = dev.config().shared_mem_tuples(tuple_bytes).max(64);
    let parts = (rows as u64).div_ceil(target).max(1);
    (64 - (parts - 1).leading_zeros()).clamp(1, 16)
}

/// Partition pairs into `2^bits` partitions by the low `bits` of the key's
/// radix image, composing as many ≤8-bit passes as needed (two for the
/// 15-16 bits the paper's PHJ-OM uses — Section 4.3).
///
/// The result is stable and contiguous, and comes with partition offsets
/// (histogram + prefix sum, as described for Figure 6 step 1). The host
/// runs it as one order carrying the values (see [`crate::KeyOrder`]);
/// the device is charged every pass.
pub fn radix_partition<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    bits: u32,
) -> PartitionedPairs<K, V> {
    let (keys, vals, offsets) = KeyOrder::partition(keys, bits, 1).apply(dev, vals);
    PartitionedPairs {
        keys,
        vals,
        offsets,
        bits,
    }
}

/// [`radix_partition`] a payload column with its relation's keys, returning
/// the partitioned keys, the column and the partition offsets. Stability
/// gives every column partitioned with the same keys an identical layout.
pub fn radix_partition_column<K: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    col: &Column,
    bits: u32,
) -> (DeviceBuffer<K>, Column, Vec<u32>) {
    KeyOrder::partition(keys, bits, 1).apply_column(dev, col)
}

/// One stable counting pass on `bits` starting at `shift`, executed on the
/// host as the device runs it. Panics if `bits` exceeds the device's
/// per-pass limit — compose passes instead, as the hardware primitive
/// requires (Section 2.3). The pass-by-pass reference the order-based host
/// execution is checked against.
#[cfg(test)]
pub(crate) fn radix_partition_pass<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    shift: u32,
    bits: u32,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    assert!(
        bits <= dev.config().max_radix_bits_per_pass,
        "a single RADIX-PARTITION pass supports at most {} bits, got {bits}",
        dev.config().max_radix_bits_per_pass
    );
    assert_eq!(keys.len(), vals.len(), "key/value arrays must pair up");
    let n = keys.len();
    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;

    // Histogram kernel: one streaming read of the keys. Per-block histograms
    // live in shared memory; the global merge is tiny.
    let mut hist = vec![0u32; buckets];
    for k in keys.iter() {
        hist[((k.to_radix() >> shift) & mask) as usize] += 1;
    }
    dev.kernel("radix_partition.histogram")
        .items(n as u64, crate::HISTOGRAM_WARP_INSTR)
        .seq_read_bytes(n as u64 * K::SIZE)
        .launch();

    let offsets = crate::exclusive_scan(dev, &hist);
    let mut cursor: Vec<u32> = offsets[..buckets].to_vec();

    // Scatter kernel: reads both arrays, writes both. Writes are staged per
    // digit in shared memory and flushed coalesced (the OneSweep pattern),
    // so they charge as sequential traffic.
    let mut out_k = vec![K::default(); n];
    let mut out_v = vec![V::default(); n];
    for i in 0..n {
        let b = ((keys[i].to_radix() >> shift) & mask) as usize;
        let pos = cursor[b] as usize;
        cursor[b] += 1;
        out_k[pos] = keys[i];
        out_v[pos] = vals[i];
    }
    dev.kernel("radix_partition.scatter")
        .items(n as u64, crate::SCATTER_WARP_INSTR)
        .seq_read_bytes(n as u64 * (K::SIZE + V::SIZE))
        .seq_write_bytes(n as u64 * (K::SIZE + V::SIZE))
        .launch();

    (
        dev.upload(out_k, "radix_partition.keys"),
        dev.upload(out_v, "radix_partition.vals"),
    )
}

/// [`radix_partition`] pass by pass on the host, every intermediate pass a
/// host vector: the reference for the order-based execution.
#[cfg(test)]
pub(crate) fn radix_partition_reference<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    bits: u32,
) -> PartitionedPairs<K, V> {
    assert!(bits <= 24, "fan-out beyond 2^24 partitions is unrealistic");
    let per_pass = dev.config().max_radix_bits_per_pass;
    let n = keys.len();

    if bits == 0 {
        // Single partition: logically a copy (used by degenerate configs).
        let out_k = dev.upload(keys.to_vec(), "radix_partition.keys");
        let out_v = dev.upload(vals.to_vec(), "radix_partition.vals");
        dev.kernel("radix_partition.copy")
            .items(n as u64, crate::SCATTER_WARP_INSTR)
            .seq_read_bytes(n as u64 * (K::SIZE + V::SIZE))
            .seq_write_bytes(n as u64 * (K::SIZE + V::SIZE))
            .launch();
        return PartitionedPairs {
            keys: out_k,
            vals: out_v,
            offsets: vec![0, n as u32],
            bits,
        };
    }

    let mut shift = 0u32;
    let (mut cur_k, mut cur_v) = {
        let b = bits.min(per_pass);
        shift += b;
        radix_partition_pass(dev, keys, vals, 0, b)
    };
    while shift < bits {
        let b = (bits - shift).min(per_pass);
        let (nk, nv) = radix_partition_pass(dev, &cur_k, &cur_v, shift, b);
        cur_k = nk;
        cur_v = nv;
        shift += b;
    }

    // Partition offsets: histogram over the fully partitioned keys + scan.
    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;
    let mut hist = vec![0u32; buckets];
    for k in cur_k.iter() {
        hist[(k.to_radix() & mask) as usize] += 1;
    }
    dev.kernel("radix_partition.offsets")
        .items(n as u64, crate::HISTOGRAM_WARP_INSTR)
        .seq_read_bytes(n as u64 * K::SIZE)
        .launch();
    let offsets = crate::exclusive_scan(dev, &hist);

    PartitionedPairs {
        keys: cur_k,
        vals: cur_v,
        offsets,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    fn check_partitioned(p: &PartitionedPairs<i32, u32>, orig: &[(i32, u32)], bits: u32) {
        // Every partition holds exactly the keys with that digit, stably.
        assert_eq!(p.offsets.len(), (1 << bits) + 1);
        assert_eq!(*p.offsets.last().unwrap() as usize, orig.len());
        for part in 0..p.num_partitions() {
            let range = p.partition_range(part);
            let got: Vec<(i32, u32)> = range.clone().map(|i| (p.keys[i], p.vals[i])).collect();
            let expected: Vec<(i32, u32)> = orig
                .iter()
                .copied()
                .filter(|&(k, _)| partition_of(k, bits) == part)
                .collect();
            assert_eq!(got, expected, "partition {part} differs (stability?)");
        }
    }

    #[test]
    fn single_pass_partitions_stably() {
        let dev = Device::a100();
        let pairs: Vec<(i32, u32)> = vec![(5, 0), (2, 1), (5, 2), (0, 3), (7, 4), (2, 5)];
        let keys = dev.upload(pairs.iter().map(|p| p.0).collect(), "k");
        let vals = dev.upload(pairs.iter().map(|p| p.1).collect(), "v");
        let p = radix_partition(&dev, &keys, &vals, 3);
        check_partitioned(&p, &pairs, 3);
    }

    #[test]
    fn multi_pass_matches_wide_fanout() {
        let dev = Device::a100();
        let n = 10_000;
        let pairs: Vec<(i32, u32)> = (0..n)
            .map(|i| (((i as i64 * 2654435761) % 100_000) as i32, i as u32))
            .collect();
        let keys = dev.upload(pairs.iter().map(|p| p.0).collect(), "k");
        let vals = dev.upload(pairs.iter().map(|p| p.1).collect(), "v");
        let bits = 12; // needs two passes (8 + 4)
        let p = radix_partition(&dev, &keys, &vals, bits);
        check_partitioned(&p, &pairs, bits);
    }

    #[test]
    fn zero_bits_is_identity() {
        let dev = Device::a100();
        let keys = dev.upload(vec![3i32, 1, 2], "k");
        let vals = dev.upload(vec![0u32, 1, 2], "v");
        let p = radix_partition(&dev, &keys, &vals, 0);
        assert_eq!(p.keys.as_slice(), &[3, 1, 2]);
        assert_eq!(p.vals.as_slice(), &[0, 1, 2]);
        assert_eq!(p.offsets, vec![0, 3]);
    }

    #[test]
    fn empty_input() {
        let dev = Device::a100();
        let keys = dev.upload(Vec::<i32>::new(), "k");
        let vals = dev.upload(Vec::<u32>::new(), "v");
        let p = radix_partition(&dev, &keys, &vals, 4);
        assert_eq!(p.num_partitions(), 16);
        assert!(p.offsets.iter().all(|&o| o == 0));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn per_pass_limit_enforced() {
        let dev = Device::a100();
        let keys = dev.upload(vec![1i32], "k");
        let vals = dev.upload(vec![0u32], "v");
        let _ = radix_partition_pass(&dev, &keys, &vals, 0, 9);
    }

    #[test]
    fn negative_keys_partition_by_radix_image() {
        let dev = Device::a100();
        let pairs: Vec<(i32, u32)> = vec![(-1, 0), (1, 1), (-2, 2), (2, 3)];
        let keys = dev.upload(pairs.iter().map(|p| p.0).collect(), "k");
        let vals = dev.upload(pairs.iter().map(|p| p.1).collect(), "v");
        let p = radix_partition(&dev, &keys, &vals, 2);
        check_partitioned(&p, &pairs, 2);
    }

    #[test]
    fn two_pass_partitioning_charges_more_traffic_than_one() {
        let dev = Device::a100();
        let n = 1 << 16;
        let keys = dev.upload((0..n).collect(), "k");
        let vals = dev.upload((0..n as u32).collect(), "v");
        let _ = radix_partition(&dev, &keys, &vals, 8);
        let one_pass = dev.counters().dram_bytes();
        dev.reset_stats();
        let _ = radix_partition(&dev, &keys, &vals, 16);
        let two_pass = dev.counters().dram_bytes();
        assert!(two_pass > one_pass * 3 / 2, "{two_pass} vs {one_pass}");
    }
}
