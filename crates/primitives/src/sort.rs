//! SORT-PAIRS — LSD radix sort of (key, value) pairs, as CUB implements it
//! (Section 2.3 of the paper): a sequence of stable RADIX-PARTITION passes
//! from the least significant digit up. Sorting a 4-byte key takes four
//! 8-bit passes; with a 4-byte payload that is the "~17 sequential scans"
//! of key and payload arrays quoted in Section 4.2.

use crate::order::{KeyOrder, Radix};
use columnar::Column;
use sim::{Device, DeviceBuffer, Element};

/// Sort pairs by the low `bits` of the key's radix image.
///
/// Exposed separately from [`sort_pairs`] so callers that know their key
/// domain (e.g. keys in `0..|R|`) can run fewer passes — an ablation the
/// benchmark harness uses; the paper's implementations sort the full width.
/// The host runs it as one order carrying the values (see
/// [`crate::KeyOrder`]); the device is charged every pass.
pub fn sort_pairs_bits<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    bits: u32,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    let (keys, vals, _) = KeyOrder::new(keys, Radix::Sort(bits), 1).apply(dev, vals);
    (keys, vals)
}

/// Sort pairs by the full key width (ascending, signed-aware), the way the
/// paper's SMJ variants use the primitive.
pub fn sort_pairs<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    sort_pairs_bits(dev, keys, vals, (K::SIZE * 8) as u32)
}

/// Sort a payload column by its relation's keys, returning the sorted keys
/// and the co-sorted column. Stability of the radix sort guarantees every
/// column of a relation sorted this way ends up in the *same* order — what
/// lets GFTR sort columns one at a time (Algorithm 1).
pub fn sort_column<K: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    col: &Column,
) -> (DeviceBuffer<K>, Column) {
    let (keys, col, _) = KeyOrder::sort(keys, 1).apply_column(dev, col);
    (keys, col)
}

/// [`sort_pairs_bits`] pass by pass on the host, every intermediate pass a
/// host vector: the reference for the order-based execution.
#[cfg(test)]
pub(crate) fn sort_pairs_bits_reference<K: Element, V: Element>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    bits: u32,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    let per_pass = dev.config().max_radix_bits_per_pass;
    let mut shift = 0u32;
    let mut cur: Option<(DeviceBuffer<K>, DeviceBuffer<V>)> = None;
    while shift < bits {
        let b = (bits - shift).min(per_pass);
        let (k, v) = match &cur {
            None => crate::partition::radix_partition_pass(dev, keys, vals, shift, b),
            Some((ck, cv)) => crate::partition::radix_partition_pass(dev, ck, cv, shift, b),
        };
        cur = Some((k, v));
        shift += b;
    }
    cur.unwrap_or_else(|| {
        // bits == 0: the sort is a no-op copy.
        (
            dev.upload(keys.to_vec(), "sort_pairs.keys"),
            dev.upload(vals.to_vec(), "sort_pairs.vals"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn sorts_and_preserves_pairing() {
        let dev = Device::a100();
        let ks = vec![5i32, -3, 9, 0, -3, 2];
        let vs: Vec<u32> = (0..ks.len() as u32).collect();
        let kb = dev.upload(ks.clone(), "k");
        let vb = dev.upload(vs.clone(), "v");
        let (sk, sv) = sort_pairs(&dev, &kb, &vb);
        let mut expected: Vec<(i32, u32)> = ks.iter().copied().zip(vs).collect();
        expected.sort_by_key(|&(k, v)| (k, v)); // stable ties keep insertion order
        let got: Vec<(i32, u32)> = sk.iter().copied().zip(sv.iter().copied()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn stability_on_duplicate_keys() {
        let dev = Device::a100();
        let kb = dev.upload(vec![1i32, 1, 1, 0, 0], "k");
        let vb = dev.upload(vec![10u32, 11, 12, 20, 21], "v");
        let (sk, sv) = sort_pairs(&dev, &kb, &vb);
        assert_eq!(sk.as_slice(), &[0, 0, 1, 1, 1]);
        assert_eq!(sv.as_slice(), &[20, 21, 10, 11, 12]);
    }

    #[test]
    fn sixty_four_bit_keys() {
        let dev = Device::a100();
        let ks = vec![i64::MAX, -1, 0, i64::MIN, 42];
        let kb = dev.upload(ks.clone(), "k");
        let vb = dev.upload((0..5u32).collect::<Vec<_>>(), "v");
        let (sk, _) = sort_pairs(&dev, &kb, &vb);
        let mut expected = ks;
        expected.sort_unstable();
        assert_eq!(sk.as_slice(), expected.as_slice());
    }

    #[test]
    fn four_byte_sort_runs_four_passes() {
        let dev = Device::a100();
        let n = 1usize << 12;
        let kb = dev.upload((0..n as i32).rev().collect::<Vec<_>>(), "k");
        let vb = dev.upload((0..n as u32).collect::<Vec<_>>(), "v");
        dev.reset_stats();
        let _ = sort_pairs(&dev, &kb, &vb);
        // 4 passes × (histogram + scan + scatter) = 12 kernels.
        assert_eq!(dev.counters().kernel_launches, 12);
    }

    #[test]
    fn restricted_bits_run_fewer_passes_and_still_sort_in_domain() {
        let dev = Device::a100();
        let ks: Vec<i32> = vec![200, 3, 150, 77, 0, 255];
        let kb = dev.upload(ks.clone(), "k");
        let vb = dev.upload((0..6u32).collect::<Vec<_>>(), "v");
        dev.reset_stats();
        let (sk, _) = sort_pairs_bits(&dev, &kb, &vb, 8);
        assert_eq!(dev.counters().kernel_launches, 3);
        let mut expected = ks;
        expected.sort_unstable();
        assert_eq!(sk.as_slice(), expected.as_slice());
    }

    #[test]
    fn zero_bits_copies() {
        let dev = Device::a100();
        let kb = dev.upload(vec![3i32, 1], "k");
        let vb = dev.upload(vec![0u32, 1], "v");
        let (sk, sv) = sort_pairs_bits(&dev, &kb, &vb, 0);
        assert_eq!(sk.as_slice(), &[3, 1]);
        assert_eq!(sv.as_slice(), &[0, 1]);
    }
}
