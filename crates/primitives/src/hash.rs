//! Hash-based match finding: the per-partition shared-memory join kernel
//! (PHJ match finding, Sections 3.2 and 4.3) and the global hash table of
//! the non-partitioned baseline (cuDF's join, Section 5.2.2).
//!
//! A thread block's shared-memory table runs on the host as one flat
//! [`PartitionTable`], shared by PHJ match finding and PART group finding;
//! its kernels charge streaming traffic only, so its layout moves no
//! simulated number.

use crate::{BUILD_WARP_INSTR, GLOBAL_HASH_WARP_INSTR, PROBE_WARP_INSTR};
use sim::{Device, DeviceBuffer, Element, Reservation};

/// Matched tuples: the intermediate relation `T'(key, ID_R, ID_S)` of
/// Section 2.2. Depending on the pattern, the index columns hold physical
/// tuple IDs (GFUR) or positions in the transformed relations (GFTR).
pub struct MatchResult<K: Element> {
    /// Matched key values, one per output row.
    pub keys: DeviceBuffer<K>,
    /// Matching positions into the R side.
    pub r_idx: DeviceBuffer<u32>,
    /// Matching positions into the S side.
    pub s_idx: DeviceBuffer<u32>,
}

impl<K: Element> MatchResult<K> {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the join produced no matches.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Diagnostics from [`join_copartitions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoPartitionCost {
    /// Largest number of build-side chunks any partition needed (1 means
    /// every build partition fit the shared-memory hash table at once).
    pub max_build_chunks: u32,
    /// Total probe-side tuples re-read due to multi-chunk (block-nested-
    /// loop) processing, beyond the first pass.
    pub probe_rereads: u64,
}

/// Multiplicative hash into `mask + 1` slots (Fibonacci hashing).
#[inline]
fn slot_of(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// The host stand-in for a thread block's shared-memory hash table: one
/// flat open-addressing array of `(radix key, value)` slots, linearly
/// probed, refilled per partition (or build chunk) by
/// [`PartitionTable::reset`]. A value of `u32::MAX` marks an empty slot, so
/// values must stay below it.
///
/// Every key of a radix partition shares its low partition bits, so the
/// home slot hashes only the bits above them: the top bits of `(key >>
/// bits) * φ` (Fibonacci hashing). `slot_of`'s middle bits of `key * φ`
/// cluster such keys (64 dense keys of a partition at 8 bits walk ~43
/// slots to an empty one), but [`GlobalHashTable`] and hash group finding
/// keep it: they charge the slots they visit.
#[derive(Debug, Default)]
pub struct PartitionTable {
    slots: Vec<(u64, u32)>,
    mask: usize,
    /// The low key bits every key of the current partition shares.
    partition_bits: u32,
    /// `64 - log2(slots)`, at most 63: the product's top bits index a slot.
    shift: u32,
}

/// The in-band empty marker of [`PartitionTable`].
const EMPTY: u32 = u32::MAX;

impl PartitionTable {
    /// Empty the table and size it for `rows` entries at a load factor of
    /// at most 1/2: `(2 * rows).next_power_of_two()` slots. The keys to
    /// come share their low `partition_bits` (the radix partition's digit).
    pub fn reset(&mut self, rows: usize, partition_bits: u32) {
        let slots = (rows * 2).next_power_of_two();
        self.slots.clear();
        self.slots.resize(slots, (u64::MAX, EMPTY));
        self.mask = slots - 1;
        self.partition_bits = partition_bits.min(63);
        self.shift = 64 - slots.trailing_zeros().max(1);
    }

    /// The slot a probe for `key` starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        ((key >> self.partition_bits).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
            & self.mask
    }

    /// Insert `(key, value)`, keeping earlier entries of an equal key (a
    /// PHJ build).
    #[inline]
    pub fn insert(&mut self, key: u64, value: u32) {
        debug_assert_ne!(value, EMPTY, "u32::MAX marks an empty slot");
        let mut s = self.home(key);
        while self.slots[s].1 != EMPTY {
            s = (s + 1) & self.mask;
        }
        self.slots[s] = (key, value);
    }

    /// Call `f` with the value of every entry equal to `key`, in probe
    /// order: the chain is walked to the first empty slot (a PHJ probe).
    #[inline]
    pub fn for_each_match(&self, key: u64, mut f: impl FnMut(u32)) {
        let mut s = self.home(key);
        while self.slots[s].1 != EMPTY {
            if self.slots[s].0 == key {
                f(self.slots[s].1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// The value stored for `key`, inserting `new()` first if there is none
    /// (group finding: `new` hands out the next group id).
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, new: impl FnOnce() -> u32) -> u32 {
        let mut s = self.home(key);
        loop {
            let (k, v) = self.slots[s];
            if v == EMPTY {
                let v = new();
                debug_assert_ne!(v, EMPTY, "u32::MAX marks an empty slot");
                self.slots[s] = (key, v);
                return v;
            }
            if k == key {
                return v;
            }
            s = (s + 1) & self.mask;
        }
    }
}

/// The slots linear probing visits, as a lazy stream: each radix key in
/// turn starts at its home slot in a table of `mask + 1` slots and steps to
/// the next one for as long as `visit(row, key, slot)` returns `true`.
///
/// `visit` does the table's work (insert, match, assign a group), so
/// draining the iterator *is* the build or probe pass. Handing it to
/// [`sim::KernelBuilder::warp_loads`] charges every visited slot without
/// the slot sequence ever being materialized.
pub fn linear_probe_slots<'a>(
    keys: impl Iterator<Item = u64> + 'a,
    mask: usize,
    mut visit: impl FnMut(usize, u64, usize) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    let mut keys = keys.enumerate();
    // The chain being walked: (row, key, next slot to visit).
    let mut walk: Option<(usize, u64, usize)> = None;
    std::iter::from_fn(move || {
        let (row, key, slot) = match walk.take() {
            Some(w) => w,
            None => {
                let (row, key) = keys.next()?;
                (row, key, slot_of(key, mask))
            }
        };
        if visit(row, key, slot) {
            walk = Some((row, key, (slot + 1) & mask));
        }
        Some(slot)
    })
}

/// Join co-partitions with per-partition shared-memory hash tables — the
/// match-finding kernel of the partitioned hash joins (Figure 6, step 2).
///
/// `r_offsets`/`s_offsets` are the partition boundary arrays produced by
/// [`crate::radix_partition`]; both sides must use the same fan-out. A
/// thread block builds a hash table from (a chunk of) the build partition in
/// shared memory and streams the probe co-partition through it; build
/// partitions larger than the shared-memory budget fall back to the
/// block-nested-loop behaviour the paper describes, re-reading the probe
/// partition once per chunk.
///
/// Returned positions are *global* indices into the partitioned arrays, and
/// the probe-side (`s_idx`) output is non-decreasing within each build
/// chunk — the clustering that GFTR's cheap materialization relies on. (A
/// build partition of several chunks re-streams its probe partition, so a
/// probe row's matches then recur once per chunk.)
pub fn join_copartitions<K: Element + Eq>(
    dev: &Device,
    r_keys: &DeviceBuffer<K>,
    r_offsets: &[u32],
    s_keys: &DeviceBuffer<K>,
    s_offsets: &[u32],
) -> (MatchResult<K>, CoPartitionCost) {
    assert_eq!(
        r_offsets.len(),
        s_offsets.len(),
        "co-partitioned inputs must share a fan-out"
    );
    let parts = r_offsets.len() - 1;
    let bits = parts.trailing_zeros();
    // Shared-memory hash table capacity, in tuples of (key, position).
    let cap = dev.config().shared_mem_tuples(K::SIZE + 4).max(64) as usize;

    let mut keys = Vec::new();
    let mut r_idx = Vec::new();
    let mut s_idx = Vec::new();
    let mut cost = CoPartitionCost::default();

    // Radix key -> global r position.
    let mut table = PartitionTable::default();

    let mut probe_tuples_read = 0u64;
    let mut build_tuples_read = 0u64;

    for p in 0..parts {
        let r_range = r_offsets[p] as usize..r_offsets[p + 1] as usize;
        let s_range = s_offsets[p] as usize..s_offsets[p + 1] as usize;
        if r_range.is_empty() || s_range.is_empty() {
            continue;
        }
        let chunks = r_range.len().div_ceil(cap);
        cost.max_build_chunks = cost.max_build_chunks.max(chunks as u32);
        if chunks > 1 {
            cost.probe_rereads += (chunks as u64 - 1) * s_range.len() as u64;
        }

        for chunk in 0..chunks {
            let chunk_start = r_range.start + chunk * cap;
            let chunk_end = (chunk_start + cap).min(r_range.end);

            let chunk_len = chunk_end - chunk_start;
            table.reset(chunk_len, bits);
            for (gi, k) in (chunk_start..).zip(&r_keys[chunk_start..chunk_end]) {
                table.insert(k.to_radix(), gi as u32);
            }
            build_tuples_read += chunk_len as u64;

            // Probe: stream the S co-partition; duplicates on the build side
            // are found by continuing the probe chain to the first empty slot.
            for (sg, &sk) in (s_range.start..).zip(&s_keys[s_range.clone()]) {
                table.for_each_match(sk.to_radix(), |r| {
                    keys.push(sk);
                    r_idx.push(r);
                    s_idx.push(sg as u32);
                });
            }
            probe_tuples_read += s_range.len() as u64;
        }
    }

    let out_rows = keys.len() as u64;
    dev.kernel("copartition.build")
        .items(build_tuples_read, BUILD_WARP_INSTR)
        .seq_read_bytes(build_tuples_read * K::SIZE)
        .launch();
    dev.kernel("copartition.probe")
        .items(probe_tuples_read, PROBE_WARP_INSTR)
        .seq_read_bytes(probe_tuples_read * K::SIZE)
        .seq_write_bytes(out_rows * (K::SIZE + 4 + 4))
        .launch();

    (
        MatchResult {
            keys: dev.upload(keys, "copartition_join.keys"),
            r_idx: dev.upload(r_idx, "copartition_join.r_idx"),
            s_idx: dev.upload(s_idx, "copartition_join.s_idx"),
        },
        cost,
    )
}

/// A global hash table in device memory — the core of the non-partitioned
/// hash join (cuDF baseline). Every insert and probe chases random slots in
/// global memory; the simulator routes those accesses through the L2 model,
/// so small tables are cheap and large ones pay the paper's random-access
/// tax (Section 5.2.2: "cuDF is the most inefficient of all because of the
/// random accesses during the construction and probing of the hash table").
///
/// The key and value ranges live in simulated memory only: the L2 model
/// reads their slot addresses, the host never their contents. The host
/// keeps one build row per slot and compares probe keys against an alias
/// of the build keys.
pub struct GlobalHashTable<K: Element> {
    keys: Reservation,
    _vals: Reservation,
    /// Build row per slot; `u32::MAX` marks an empty slot.
    rows: Vec<u32>,
    /// The keys `rows` index, once built.
    build_keys: Option<DeviceBuffer<K>>,
    mask: usize,
}

impl<K: Element + Eq> GlobalHashTable<K> {
    /// Allocate a table able to hold `n` entries at ≤50% load factor.
    pub fn new(dev: &Device, n: usize) -> Self {
        let slots = (n.max(1) * 2).next_power_of_two();
        GlobalHashTable {
            keys: dev.reserve(slots as u64 * u64::SIZE, "global_ht.keys"),
            _vals: dev.reserve(slots as u64 * u32::SIZE, "global_ht.vals"),
            rows: vec![EMPTY; slots],
            build_keys: None,
            mask: slots - 1,
        }
    }

    /// Build the table from `build_keys`, storing each key's position.
    pub fn build(&mut self, dev: &Device, build_keys: &DeviceBuffer<K>) {
        let base = self.keys.base_addr();
        let rows = &mut self.rows;
        let touched = linear_probe_slots(
            build_keys.iter().map(|k| k.to_radix()),
            self.mask,
            |i, _, s| {
                if rows[s] != EMPTY {
                    return true;
                }
                rows[s] = i as u32;
                false
            },
        )
        .map(|s| base + s as u64 * u64::SIZE);
        dev.kernel("global_ht.build")
            .items(build_keys.len() as u64, GLOBAL_HASH_WARP_INSTR)
            .seq_read_bytes(build_keys.len() as u64 * K::SIZE)
            .warp_stores(12, touched)
            .launch();
        self.build_keys = Some(build_keys.alias());
    }

    /// Probe with `probe_keys`; returns matches in probe order (`s_idx`
    /// clustered, `r_idx` random — which is why the NPHJ's materialization
    /// of the build side stays expensive).
    pub fn probe(&self, dev: &Device, probe_keys: &DeviceBuffer<K>) -> MatchResult<K> {
        let build: &[K] = self.build_keys.as_deref().unwrap_or(&[]);
        let mut keys = Vec::new();
        let mut r_idx = Vec::new();
        let mut s_idx = Vec::new();
        let touched = linear_probe_slots(
            probe_keys.iter().map(|k| k.to_radix()),
            self.mask,
            |j, _, s| {
                let r = self.rows[s];
                if r == EMPTY {
                    return false;
                }
                if build[r as usize] == probe_keys[j] {
                    keys.push(probe_keys[j]);
                    r_idx.push(r);
                    s_idx.push(j as u32);
                }
                true
            },
        )
        .map(|s| self.keys.base_addr() + s as u64 * u64::SIZE);
        let kernel = dev
            .kernel("global_ht.probe")
            .items(probe_keys.len() as u64, GLOBAL_HASH_WARP_INSTR)
            .seq_read_bytes(probe_keys.len() as u64 * K::SIZE)
            .warp_loads(12, touched);
        // The probe pass ran inside `warp_loads`; its output is known now.
        let out_rows = keys.len() as u64;
        kernel
            .seq_write_bytes(out_rows * (K::SIZE + 4 + 4))
            .launch();
        MatchResult {
            keys: dev.upload(keys, "global_ht.out_keys"),
            r_idx: dev.upload(r_idx, "global_ht.out_r_idx"),
            s_idx: dev.upload(s_idx, "global_ht.out_s_idx"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix_partition;
    use sim::Device;
    use std::collections::HashMap;

    /// splitmix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Group ids per row, then the distinct keys in id order, from one scan
    /// over `partitions`, restarting the table at each: what PART group
    /// finding does with [`PartitionTable::get_or_insert`].
    fn scan_with_table(partitions: &[Vec<u64>]) -> (Vec<u32>, Vec<u64>) {
        let (mut ids, mut distinct) = (Vec::new(), Vec::new());
        let mut table = PartitionTable::default();
        for part in partitions.iter().filter(|p| !p.is_empty()) {
            table.reset(part.len(), 0);
            for &k in part {
                ids.push(table.get_or_insert(k, || {
                    distinct.push(k);
                    distinct.len() as u32 - 1
                }));
            }
        }
        (ids, distinct)
    }

    /// The same scan with a `HashMap` per partition.
    fn scan_with_hash_map(partitions: &[Vec<u64>]) -> (Vec<u32>, Vec<u64>) {
        let (mut ids, mut distinct) = (Vec::new(), Vec::new());
        for part in partitions {
            let mut map = HashMap::new();
            for &k in part {
                ids.push(*map.entry(k).or_insert_with(|| {
                    distinct.push(k);
                    distinct.len() as u32 - 1
                }));
            }
        }
        (ids, distinct)
    }

    #[test]
    fn partition_table_groups_like_a_hash_map() {
        const SIZES: [usize; 4] = [0, 1, 33, 4097];
        // Keys whose home slot is 0 in the largest table, hence in every
        // smaller one (it indexes by a prefix of the same product bits).
        let mut largest = PartitionTable::default();
        largest.reset(SIZES[3], 0);
        let home_zero: Vec<u64> = (0u64..)
            .map(|i| i.to_radix())
            .filter(|&k| largest.home(k) == 0)
            .take(48)
            .collect();
        let key_sets: [(&str, &dyn Fn(u64) -> u64); 5] = [
            ("all equal", &|_| 7i32.to_radix()),
            // Distinct keys that agree on their low 12 bits (one radix
            // partition at any fan-out up to 2^12).
            ("shared low bits", &|r| {
                ((((r % 500) as i64) << 12) | 0x5A5).to_radix()
            }),
            ("negatives", &|r| (-((r % 700) as i32) - 1).to_radix()),
            // Fibonacci hashing maps these to even slots only.
            ("i64 multiples of 2^33", &|r| {
                (((r % 300) as i64 - 150) << 33).to_radix()
            }),
            ("home-slot collisions", &|r| home_zero[(r % 48) as usize]),
        ];
        for (name, key) in key_sets {
            for seed in 0..4 {
                let mut state = seed;
                let partitions: Vec<Vec<u64>> = SIZES
                    .iter()
                    .map(|&len| (0..len).map(|_| key(next(&mut state))).collect())
                    .collect();
                assert_eq!(
                    scan_with_table(&partitions),
                    scan_with_hash_map(&partitions),
                    "{name}, seed {seed}"
                );
            }
        }
    }

    /// Slots a probe walks from `key`'s home to the first empty slot,
    /// averaged over the keys of a full table.
    fn mean_chain(table: &PartitionTable, keys: &[u64]) -> f64 {
        let walked: usize = keys
            .iter()
            .map(|&k| {
                let mut s = table.home(k);
                let mut n = 1;
                while table.slots[s].1 != EMPTY {
                    s = (s + 1) & table.mask;
                    n += 1;
                }
                n
            })
            .sum();
        walked as f64 / keys.len() as f64
    }

    /// A dense radix partition — 64 keys sharing their low `b` bits, the
    /// rest consecutive — probes short chains at every fan-out. (The
    /// middle bits of `key * φ` walked 11.8, 22 and 43 slots at 6, 7 and
    /// 8 bits.)
    #[test]
    fn dense_partitions_probe_short_chains_at_every_fan_out() {
        for bits in 0..=16u32 {
            for partition in [0u64, (1 << bits) - 1] {
                for dtype_i64 in [false, true] {
                    let keys: Vec<u64> = (0..64u64)
                        .map(|j| {
                            let k = j << bits | partition;
                            if dtype_i64 {
                                (k as i64).to_radix()
                            } else {
                                (k as i32).to_radix()
                            }
                        })
                        .collect();
                    let mut table = PartitionTable::default();
                    table.reset(keys.len(), bits);
                    for (v, &k) in keys.iter().enumerate() {
                        table.insert(k, v as u32);
                    }
                    let chain = mean_chain(&table, &keys);
                    assert!(chain < 3.0, "{bits} bits, partition {partition}: {chain}");
                }
            }
        }
    }

    #[test]
    fn copartition_join_matches_oracle() {
        let dev = Device::a100();
        let r: Vec<i32> = (0..1000).collect();
        let s: Vec<i32> = (0..2000).map(|i| (i * 7) % 1500).collect();
        let rk = dev.upload(r.clone(), "r");
        let rv = dev.upload((0..r.len() as u32).collect::<Vec<_>>(), "rv");
        let sk = dev.upload(s.clone(), "s");
        let sv = dev.upload((0..s.len() as u32).collect::<Vec<_>>(), "sv");
        let rp = radix_partition(&dev, &rk, &rv, 4);
        let sp = radix_partition(&dev, &sk, &sv, 4);
        let (m, _) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);

        let expected: usize = s.iter().filter(|&&v| (0..1000).contains(&v)).count();
        assert_eq!(m.len(), expected);
        for i in 0..m.len() {
            assert_eq!(rp.keys[m.r_idx[i] as usize], m.keys[i]);
            assert_eq!(sp.keys[m.s_idx[i] as usize], m.keys[i]);
        }
        // Probe side clustered.
        assert!(m.s_idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn copartition_join_handles_duplicates_on_both_sides() {
        let dev = Device::a100();
        let rk = dev.upload(vec![4i32, 4, 8], "r");
        let rv = dev.upload(vec![0u32, 1, 2], "rv");
        let sk = dev.upload(vec![4i32, 8, 4], "s");
        let sv = dev.upload(vec![0u32, 1, 2], "sv");
        let rp = radix_partition(&dev, &rk, &rv, 2);
        let sp = radix_partition(&dev, &sk, &sv, 2);
        let (m, _) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
        // key 4: 2 (R) × 2 (S) + key 8: 1 × 1.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn oversized_build_partition_falls_back_to_chunks() {
        let mut cfg = sim::DeviceConfig::a100();
        cfg.shared_mem_bytes = 1 << 10; // tiny: 64-tuple chunks
        let dev = Device::new(cfg);
        let n = 1000i32;
        let rk = dev.upload((0..n).collect::<Vec<_>>(), "r");
        let rv = dev.upload((0..n as u32).collect::<Vec<_>>(), "rv");
        let sk = dev.upload((0..n).collect::<Vec<_>>(), "s");
        let sv = dev.upload((0..n as u32).collect::<Vec<_>>(), "sv");
        // Single partition => build side far larger than shared memory.
        let rp = radix_partition(&dev, &rk, &rv, 0);
        let sp = radix_partition(&dev, &sk, &sv, 0);
        let (m, cost) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
        assert_eq!(m.len(), n as usize);
        assert!(cost.max_build_chunks > 1);
        assert!(cost.probe_rereads > 0);
    }

    #[test]
    fn global_table_build_probe_roundtrip() {
        let dev = Device::a100();
        let build = dev.upload((0..512i32).map(|i| i * 2).collect::<Vec<_>>(), "b");
        let probe = dev.upload((0..512i32).collect::<Vec<_>>(), "p");
        let mut ht = GlobalHashTable::new(&dev, build.len());
        ht.build(&dev, &build);
        let m = ht.probe(&dev, &probe);
        assert_eq!(m.len(), 256); // even numbers only
        for i in 0..m.len() {
            assert_eq!(build[m.r_idx[i] as usize], m.keys[i]);
            assert_eq!(probe[m.s_idx[i] as usize], m.keys[i]);
        }
        assert!(m.s_idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn global_table_random_access_is_charged() {
        let dev = Device::a100();
        // Large table (footprint >> L2) with shuffled keys: probes must
        // touch many sectors.
        let n = 1 << 21;
        let keys: Vec<i32> = (0..n)
            .map(|i| (i * 2654435761u64 as i64 % n) as i32)
            .collect();
        let build = dev.upload(keys, "b");
        let mut ht = GlobalHashTable::new(&dev, build.len());
        dev.reset_stats();
        ht.build(&dev, &build);
        let c = dev.counters();
        assert!(
            c.sectors_per_request() > 8.0,
            "spr={}",
            c.sectors_per_request()
        );
    }

    #[test]
    fn global_table_handles_duplicate_build_keys() {
        let dev = Device::a100();
        let build = dev.upload(vec![7i32, 7, 9], "b");
        let probe = dev.upload(vec![7i32], "p");
        let mut ht = GlobalHashTable::new(&dev, 3);
        ht.build(&dev, &build);
        let m = ht.probe(&dev, &probe);
        assert_eq!(m.len(), 2);
    }
}
