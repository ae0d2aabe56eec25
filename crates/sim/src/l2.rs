//! A direct-mapped sector cache standing in for the GPU's L2.
//!
//! The model only sees *gather-style* traffic: streaming reads/writes bypass
//! it (hardware streams with an evict-first policy, so they neither benefit
//! from nor meaningfully pollute L2 for our purposes). This is what makes
//! small-relation unclustered gathers cheap — the paper observes exactly this
//! on TPC-H J3 — while large-relation gathers miss constantly.
//!
//! Kernels charge it one warp request at a time through
//! [`L2Cache::access_warp`], whose contract is "sort the lane sectors,
//! drop duplicates, probe in ascending order" — computed without the sort,
//! and for unordered warps in a lane pass without data-dependent branches.
//! A warp known to cover a gap-free ascending sector range (a contiguous
//! stream, charged by `KernelBuilder::contiguous_loads`) skips the lanes
//! and probes the range. See `DESIGN.md`, "Warp-traffic accounting".

use crate::WARP_SIZE;

/// Direct-mapped, sector-granular (32 B) cache model.
pub struct L2Cache {
    /// Tag per set; `u64::MAX` marks an empty set.
    tags: Vec<u64>,
    mask: u64,
    /// `stamps[set] == epoch` iff the unordered warp being charged has
    /// already touched `set`. Bumping `epoch` resets every stamp at once.
    stamps: Vec<u32>,
    /// Never 0 while a warp is being charged, so 0 means "not this warp".
    epoch: u32,
}

impl L2Cache {
    /// Create a cache of `capacity_bytes`, rounded down to a power of two
    /// number of 32-byte sectors.
    pub fn new(capacity_bytes: u64) -> Self {
        let sectors = (capacity_bytes / crate::SECTOR_BYTES).max(1);
        let sets = sectors.next_power_of_two() >> if sectors.is_power_of_two() { 0 } else { 1 };
        L2Cache {
            tags: vec![u64::MAX; sets as usize],
            mask: sets - 1,
            stamps: vec![0; sets as usize],
            epoch: 0,
        }
    }

    /// Number of sets (== sectors of capacity).
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    /// Access one sector; returns `true` on hit. Misses install the sector.
    #[inline]
    pub fn access(&mut self, sector: u64) -> bool {
        let idx = (sector & self.mask) as usize;
        // Safety note: idx is masked to the table size, so indexing cannot
        // panic; plain indexing keeps the bounds check visible to LLVM.
        let tag = &mut self.tags[idx];
        if *tag == sector {
            true
        } else {
            *tag = sector;
            false
        }
    }

    /// Charge one warp request: the lanes' sectors (at most [`WARP_SIZE`])
    /// coalesce to their distinct set, which is probed in ascending sector
    /// order. Returns `(distinct sectors, sectors that missed)`.
    ///
    /// No sort happens. A direct-mapped set's hits, misses and final tag
    /// depend only on the order of the accesses *to that set*, so sets may
    /// be probed in any interleaving as long as each one sees its own
    /// distinct sectors ascending:
    ///
    /// * lanes already non-decreasing (clustered gathers) are that
    ///   order — drop adjacent duplicates and probe;
    /// * otherwise probe in lane order. A set touched once, or again only
    ///   by the sector it now holds, has seen exactly its ascending
    ///   sequence. A set asked for a second distinct sector is *conflicting*:
    ///   it is rolled back to its pre-warp tag and replayed over its own
    ///   distinct sectors in ascending order.
    #[inline]
    pub fn access_warp(&mut self, sectors: &[u64]) -> (u64, u64) {
        debug_assert!(sectors.len() <= WARP_SIZE);
        if sectors.windows(2).all(|w| w[0] <= w[1]) {
            self.probe_ascending(sectors)
        } else {
            self.access_warp_unordered(sectors)
        }
    }

    /// Probe non-decreasing `sectors` once each; `(distinct, missed)`.
    #[inline]
    fn probe_ascending(&mut self, sectors: &[u64]) -> (u64, u64) {
        let (mut distinct, mut dram) = (0, 0);
        let mut prev = u64::MAX;
        for &s in sectors {
            if s != prev {
                distinct += 1;
                dram += u64::from(!self.access(s));
                prev = s;
            }
        }
        (distinct, dram)
    }

    /// Probe every sector of the ascending range `first..=last` once — an
    /// ordered warp whose lanes cover each sector between its first and
    /// last; `(distinct, missed)`.
    #[inline]
    pub(crate) fn access_range(&mut self, first: u64, last: u64) -> (u64, u64) {
        let dram = (first..=last).filter(|&s| !self.access(s)).count();
        (last - first + 1, dram as u64)
    }

    fn access_warp_unordered(&mut self, sectors: &[u64]) -> (u64, u64) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps of 2^32 warps ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        // Pre-warp tag of the lane's set, valid at the lane that touched the
        // set first.
        let mut pre = [0u64; WARP_SIZE];
        // Lanes that found their set holding a different sector of this warp.
        let mut conflicts = 0u32;
        let (mut distinct, mut dram) = (0, 0);
        // No data-dependent branch: whether a lane is its set's first touch
        // and whether it differs from the set's tag are flags, the tag is
        // written through a select and the counts add 0 or 1. A repeat touch
        // writes back the tag it read, so only first touches move a set.
        // The slices are taken once, so the loop checks one bound per lane.
        let tags = &mut self.tags[..];
        let stamps = &mut self.stamps[..tags.len()];
        let mask = self.mask as usize;
        for (lane, (&s, pre_tag)) in sectors.iter().zip(&mut pre).enumerate() {
            let set = s as usize & mask;
            let tag = tags[set];
            let first = stamps[set] != epoch;
            let differs = tag != s;
            stamps[set] = epoch;
            *pre_tag = tag;
            tags[set] = if first { s } else { tag };
            distinct += u64::from(first);
            dram += u64::from(first & differs);
            conflicts |= u32::from(!first & differs) << lane;
        }
        while conflicts != 0 {
            let lane = conflicts.trailing_zeros() as usize;
            conflicts &= conflicts - 1;
            let set = self.set_of(sectors[lane]);
            if self.stamps[set] != epoch {
                continue; // replayed for an earlier conflicting lane
            }
            self.stamps[set] = 0;
            // Every lane of this set; the first of them was probed above.
            let mut own = [0u64; WARP_SIZE];
            let mut n = 0;
            let mut first = lane;
            for (j, &s) in sectors.iter().enumerate() {
                if self.set_of(s) == set {
                    first = first.min(j);
                    own[n] = s;
                    n += 1;
                }
            }
            own[..n].sort_unstable();
            // Undo that probe, then replay the set in ascending order.
            distinct -= 1;
            dram -= u64::from(pre[first] != sectors[first]);
            self.tags[set] = pre[first];
            let (d, m) = self.probe_ascending(&own[..n]);
            distinct += d;
            dram += m;
        }
        (distinct, dram)
    }

    /// The contract [`L2Cache::access_warp`] must reproduce bit for bit:
    /// sort the warp, drop duplicates, probe ascending.
    #[cfg(test)]
    pub(crate) fn access_warp_reference(&mut self, sectors: &[u64]) -> (u64, u64) {
        let mut warp = sectors.to_vec();
        warp.sort_unstable();
        warp.dedup();
        let dram = warp.iter().filter(|&&s| !self.access(s)).count();
        (warp.len() as u64, dram as u64)
    }

    /// Invalidate everything.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
    }

    /// The set index `sector` maps to.
    #[inline]
    pub fn set_of(&self, sector: u64) -> usize {
        (sector & self.mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capacity_is_power_of_two_sectors() {
        let c = L2Cache::new(40 << 20);
        assert!(c.sets().is_power_of_two());
        assert!(c.sets() <= (40 << 20) / 32);
        let small = L2Cache::new(33);
        assert_eq!(small.sets(), 1);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access(42));
        assert!(c.access(42));
        c.clear();
        assert!(!c.access(42));
    }

    #[test]
    fn conflicting_sectors_evict() {
        let mut c = L2Cache::new(1 << 10); // 32 sets
        let sets = c.sets() as u64;
        assert!(!c.access(7));
        assert!(!c.access(7 + sets)); // maps to the same set
        assert!(!c.access(7)); // was evicted
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_round() {
        let mut c = L2Cache::new(1 << 14); // 512 sets
        let n = c.sets() as u64;
        for s in 0..n {
            assert!(!c.access(s));
        }
        for s in 0..n {
            assert!(c.access(s), "sector {s} should still be resident");
        }
    }

    #[test]
    fn warp_outcomes_by_hand() {
        let mut c = L2Cache::new(4 * 32); // 4 sets
        assert_eq!(c.access_warp(&[]), (0, 0));
        // Ordered with duplicates: sectors 1, 2, 6 (6 evicts 2 from set 2).
        assert_eq!(c.access_warp(&[1, 1, 2, 6]), (3, 3));
        // Unordered, no conflict: 6 and 1 are resident.
        assert_eq!(c.access_warp(&[6, 1, 6]), (2, 0));
        // Unordered with a conflict in set 2: ascending replay probes 2
        // (miss, evicts 6), 6 (miss), 10 (miss); sector 1 still hits.
        assert_eq!(c.access_warp(&[10, 6, 1, 2, 10]), (4, 3));
        assert_eq!(c.tags, [u64::MAX, 1, 10, u64::MAX]);
    }

    /// Charge `warps` through the streaming core and the sort-based
    /// reference, flushing both before every `flush_every`-th warp; every
    /// per-warp outcome and the final tag arrays must agree.
    fn assert_matches_reference(core: &mut L2Cache, warps: &[Vec<u64>], flush_every: usize) {
        let mut reference = L2Cache::new(core.sets() as u64 * crate::SECTOR_BYTES);
        reference.tags.copy_from_slice(&core.tags);
        for (w, warp) in warps.iter().enumerate() {
            if w % flush_every == flush_every - 1 {
                core.clear();
                reference.clear();
            }
            assert_eq!(
                core.access_warp(warp),
                reference.access_warp_reference(warp),
                "warp {w}: {warp:?}"
            );
        }
        assert_eq!(core.tags, reference.tags);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sectors drawn from four times the cache's sets: nearly every
        /// warp of more than a few lanes repeats sectors and maps several
        /// distinct ones to one set, so the rollback path carries the test.
        #[test]
        fn streaming_core_matches_sort_reference(
            set_bits in 0u32..=6,
            lanes in 1usize..=32,
            stream in collection::vec(0u64..256, 1..700),
            sorted_every in 1usize..6,
            flush_every in 1usize..40,
        ) {
            let sets = 1u64 << set_bits;
            let mut warps: Vec<Vec<u64>> = stream
                .chunks(lanes) // the last warp is usually partial
                .map(|w| w.iter().map(|s| s % (4 * sets)).collect())
                .collect();
            for warp in warps.iter_mut().step_by(sorted_every) {
                warp.sort_unstable(); // interleave the ordered fast path
            }
            let mut core = L2Cache::new(sets * crate::SECTOR_BYTES);
            prop_assert_eq!(core.sets() as u64, sets);
            assert_matches_reference(&mut core, &warps, flush_every);
        }
    }

    #[test]
    fn epoch_wraps_without_resurrecting_old_stamps() {
        let mut core = L2Cache::new(8 * 32); // 8 sets
                                             // Epoch 1: set 1 conflicts (1, 17) and is replayed; set 5 is touched
                                             // once and keeps stamp 1.
        assert_matches_reference(&mut core, &[vec![5, 1, 17]], usize::MAX);
        assert_eq!((core.epoch, core.stamps[5]), (1, 1));
        // 2^32 - 2 unordered warps later the counter wraps back onto 1. Were
        // the stamps not cleared, set 5 would read as already touched by
        // the next warp and its hit on sector 5 as an in-warp duplicate.
        core.epoch = u32::MAX;
        let after = [vec![9, 5, 2], vec![21, 13, 5, 29], vec![2, 1]];
        assert_matches_reference(&mut core, &after, usize::MAX);
        assert_eq!(core.epoch, 3);
    }
}
