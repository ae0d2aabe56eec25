//! Prefix scans, ID generation, sorted-run boundary detection and mask
//! compaction.

use crate::STREAM_WARP_INSTR;
use sim::{Device, DeviceBuffer};

/// Generate physical tuple identifiers `0..n` (one streaming write) — the
/// ID column GFUR transforms with the keys instead of the payloads.
pub fn iota(dev: &Device, n: usize, label: &'static str) -> DeviceBuffer<u32> {
    let ids = dev.upload((0..n as u32).collect(), label);
    dev.kernel("iota")
        .items(n as u64, STREAM_WARP_INSTR)
        .seq_write_bytes(n as u64 * 4)
        .launch();
    ids
}

/// Exclusive prefix sum of `counts`, returning a vector one element longer:
/// `out[i]` is the sum of `counts[..i]`, `out[counts.len()]` the grand total.
///
/// Used to turn radix histograms into partition offsets. The device cost of
/// one streaming pass over the counts is charged (scans of histogram-sized
/// arrays are negligible next to the data passes, exactly as on hardware).
pub fn exclusive_scan(dev: &Device, counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    out.push(0);
    for &c in counts {
        acc = acc
            .checked_add(c)
            .expect("prefix sum overflowed u32 — partition too large");
        out.push(acc);
    }
    charge_exclusive_scan(dev, counts.len());
    out
}

/// The device charge of [`exclusive_scan`] over `len` counts, for a caller
/// that already holds the scanned values.
pub(crate) fn charge_exclusive_scan(dev: &Device, len: usize) {
    dev.kernel("scan.exclusive")
        .items(len as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(len as u64 * 4)
        .seq_write_bytes((len as u64 + 1) * 4)
        .launch();
}

/// Boundaries of equal-key runs in a sorted slice: returns `b` with
/// `b[0] = 0`, `b[last] = keys.len()`, and one entry at every index where
/// `keys[i] != keys[i-1]`.
///
/// This is the segment-detection kernel of sort-based grouped aggregation
/// (one streaming read of the keys plus a compacted write of the flags).
pub fn run_boundaries<K: PartialEq + sim::Element>(dev: &Device, keys: &[K]) -> Vec<u32> {
    let mut b = Vec::new();
    b.push(0u32);
    if keys.is_empty() {
        // Zero groups: a single boundary, so `len - 1 == 0` segments.
        return b;
    }
    for i in 1..keys.len() {
        if keys[i] != keys[i - 1] {
            b.push(i as u32);
        }
    }
    b.push(keys.len() as u32);
    dev.kernel("scan.boundaries")
        .items(keys.len() as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(keys.len() as u64 * K::SIZE)
        .seq_write_bytes(b.len() as u64 * 4)
        .launch();
    b
}

/// Compact a byte mask into a selection vector: returns the (ascending) row
/// ids of every `mask[i] != 0` as a device buffer — the standard
/// prefix-sum stream compaction (CUB's `DeviceSelect::Flagged`).
///
/// Cost: one streaming read of the mask (1 byte/row) plus a coalesced write
/// of the surviving ids, as on hardware where the block-wide prefix sum
/// lives in shared memory and only the flags and ids touch DRAM.
pub fn compact_mask(dev: &Device, mask: &DeviceBuffer<u8>) -> DeviceBuffer<u32> {
    let sel: Vec<u32> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &keep)| (keep != 0).then_some(i as u32))
        .collect();
    dev.kernel("compact.mask")
        .items(mask.len() as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(mask.len() as u64)
        .seq_write_bytes(sel.len() as u64 * 4)
        .launch();
    dev.upload(sel, "compact.sel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn scan_basic() {
        let dev = Device::a100();
        assert_eq!(exclusive_scan(&dev, &[3, 0, 2, 5]), vec![0, 3, 3, 5, 10]);
        assert_eq!(exclusive_scan(&dev, &[]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn scan_overflow_detected() {
        let dev = Device::a100();
        let _ = exclusive_scan(&dev, &[u32::MAX, 2]);
    }

    #[test]
    fn boundaries_of_sorted_runs() {
        let dev = Device::a100();
        let keys: Vec<i32> = vec![1, 1, 1, 4, 4, 9];
        assert_eq!(run_boundaries(&dev, &keys), vec![0, 3, 5, 6]);
        let empty: Vec<i32> = vec![];
        assert_eq!(
            run_boundaries(&dev, &empty),
            vec![0],
            "empty input: zero groups"
        );
        assert_eq!(run_boundaries(&dev, &[7i32]), vec![0, 1]);
    }

    #[test]
    fn scan_charges_device_time() {
        let dev = Device::a100();
        let before = dev.elapsed();
        let _ = exclusive_scan(&dev, &[1; 1024]);
        assert!(dev.elapsed() > before);
    }

    #[test]
    fn compact_mask_selects_ascending_ids() {
        let dev = Device::a100();
        let mask = dev.upload(vec![1u8, 0, 1, 1, 0, 1], "m");
        let sel = compact_mask(&dev, &mask);
        assert_eq!(sel.as_slice(), &[0, 2, 3, 5]);
        let none = compact_mask(&dev, &dev.upload(vec![0u8; 4], "m0"));
        assert!(none.is_empty());
        let empty = compact_mask(&dev, &dev.upload(Vec::<u8>::new(), "me"));
        assert!(empty.is_empty());
    }

    #[test]
    fn compact_mask_charges_one_launch_and_honest_bytes() {
        let dev = Device::a100();
        let n = 1usize << 16;
        let mask = dev.upload((0..n).map(|i| (i % 10 == 0) as u8).collect::<Vec<_>>(), "m");
        dev.reset_stats();
        let sel = compact_mask(&dev, &mask);
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1);
        // One byte read per row plus 4 bytes written per survivor.
        let expected = n as u64 + sel.len() as u64 * 4;
        assert!(
            c.dram_bytes() >= expected,
            "dram {} < honest minimum {expected}",
            c.dram_bytes()
        );
    }

    #[test]
    fn compact_mask_is_classified_as_streaming() {
        // The fused-filter compaction kernel must read as a streaming pass
        // in the roofline/diagnosis layer, never as a random gather.
        let dev = Device::a100();
        let n = 1usize << 18;
        let mask = dev.upload((0..n).map(|i| (i % 3 == 0) as u8).collect::<Vec<_>>(), "m");
        dev.reset_stats();
        let _ = compact_mask(&dev, &mask);
        let diags = sim::analysis::diagnose(&dev.counters(), dev.config());
        assert!(
            diags
                .iter()
                .all(|d| d.pattern != sim::analysis::AccessPattern::RandomGather),
            "compaction misdiagnosed: {diags:?}"
        );
    }
}
