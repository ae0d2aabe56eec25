//! One stable order per key column: how the host executes RADIX-PARTITION
//! and SORT-PAIRS.
//!
//! A stable LSD radix transform sends every row to a position that depends
//! on the keys alone — the property GFTR's correctness rests on (Sections
//! 4.2-4.3) — so every column transformed with one key column lands in the
//! same order. The host therefore computes that order once ([`KeyOrder`])
//! and replays it for each column with one gather, while the device is
//! charged, per application, exactly the passes it runs: per pass of at most
//! [`sim::DeviceConfig::max_radix_bits_per_pass`] bits a histogram, a scan
//! and a scatter kernel, then that pass's key and value allocations, with
//! the previous pass's freed. Every one of those charges depends on the row
//! count and the widths alone, never on the data, which is what lets the
//! host skip a digit on which all keys agree (it moves no row) without
//! moving a simulated number. Intermediate passes are bare ledger
//! reservations: nothing reads them, so they hold no host vector.
//!
//! A transform whose order is used once — [`crate::sort_pairs`],
//! [`crate::radix_partition`], their column forms, GFUR's `(key, ID)` pairs
//! and a lone GFTR column — carries its value column through the host passes
//! in place of row ids, so it pays for no gather.

use crate::scan::charge_exclusive_scan;
use crate::{HISTOGRAM_WARP_INSTR, SCATTER_WARP_INSTR};
use columnar::{Column, ColumnElement};
use sim::{Device, DeviceBuffer, Element};
use std::sync::Arc;

/// The device primitive a transform runs, which fixes what it charges.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Radix {
    /// SORT-PAIRS on the low `bits` of the key's radix image.
    Sort(u32),
    /// RADIX-PARTITION into `2^bits` partitions, offsets included.
    Partition(u32),
}

/// Width of a host digit. The device's pass width is charged separately: a
/// stable sort's result does not depend on the digits it is built from.
const DIGIT_BITS: u32 = 8;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// How the host transforms the columns that ride with one key column: the
/// stable order is computed once when several columns will be transformed
/// and replayed for each by one gather; a lone column rides the host passes
/// itself. Either way each application charges the device the full
/// transform, so the choice moves no simulated number.
pub struct KeyOrder<'k, K: Element> {
    keys: &'k [K],
    radix: Radix,
    /// Computed when two or more columns will be transformed.
    replay: Option<Replay<K>>,
}

/// A computed order.
struct Replay<K> {
    /// The keys in transformed order, shared by every application's keys.
    keys: Arc<Vec<K>>,
    /// `rows[i]` is the input row that lands at position `i`.
    rows: Vec<u32>,
    /// Partition offsets (empty for a sort).
    offsets: Vec<u32>,
}

impl<'k, K: Element> KeyOrder<'k, K> {
    /// SORT-PAIRS by `keys` (full width) for `columns` columns.
    pub fn sort(keys: &'k [K], columns: usize) -> Self {
        Self::new(keys, Radix::Sort(K::SIZE as u32 * 8), columns)
    }

    /// RADIX-PARTITION by `keys` into `2^bits` partitions for `columns`
    /// columns.
    pub fn partition(keys: &'k [K], bits: u32, columns: usize) -> Self {
        Self::new(keys, Radix::Partition(bits), columns)
    }

    pub(crate) fn new(keys: &'k [K], radix: Radix, columns: usize) -> Self {
        let replay = (columns > 1).then(|| {
            let (ordered, rows, offsets) = host_transform(keys, radix, |i| i as u32);
            Replay {
                keys: Arc::new(ordered),
                rows,
                offsets,
            }
        });
        KeyOrder {
            keys,
            radix,
            replay,
        }
    }

    /// Transform `(keys, vals)`: charge the device the whole transform and
    /// return the transformed keys and values with the partition offsets
    /// (empty for a sort).
    pub fn apply<V: Element>(
        &self,
        dev: &Device,
        vals: &[V],
    ) -> (DeviceBuffer<K>, DeviceBuffer<V>, Vec<u32>) {
        assert_eq!(self.keys.len(), vals.len(), "key/value arrays must pair up");
        let (keys, vals, offsets) = match &self.replay {
            Some(order) => {
                let gathered = order.rows.iter().map(|&r| vals[r as usize]).collect();
                (Arc::clone(&order.keys), gathered, order.offsets.clone())
            }
            None => {
                let (ordered, vals, offsets) = host_transform(self.keys, self.radix, |i| vals[i]);
                (Arc::new(ordered), vals, offsets)
            }
        };
        let (keys, vals) = charge(dev, self.radix, &keys, vals);
        (keys, vals, offsets)
    }

    /// [`KeyOrder::apply`] to a payload column.
    pub fn apply_column(&self, dev: &Device, col: &Column) -> (DeviceBuffer<K>, Column, Vec<u32>) {
        columnar::dispatch_column!(col, |v| {
            let (k, v, offsets) = self.apply(dev, v);
            (k, ColumnElement::wrap(v), offsets)
        })
    }

    /// [`KeyOrder::apply`] to a physical ID column, which the pairs keep.
    pub fn carry_ids(&self, dev: &Device, ids: &[u32]) -> Pairs<K> {
        let (keys, ids, offsets) = self.apply(dev, ids);
        Pairs {
            keys,
            ids: Some(ids),
            payload0: None,
            offsets,
        }
    }

    /// [`KeyOrder::apply_column`] to the first payload column.
    pub fn carry_column(&self, dev: &Device, col: &Column) -> Pairs<K> {
        let (keys, payload0, offsets) = self.apply_column(dev, col);
        Pairs {
            keys,
            ids: None,
            payload0: Some(payload0),
            offsets,
        }
    }
}

/// Where an operator reads payload columns from after its transform — the
/// paper's materialization choice (Section 4.2), the same for joins and
/// grouped aggregations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Gather From Untransformed Relations: transform `(key, physical ID)`,
    /// gather from the original columns — unclustered.
    Gfur,
    /// Gather From Transformed Relations: transform every payload column
    /// with the keys, gather by virtual ID — clustered.
    Gftr,
}

impl Pattern {
    /// `"GFUR"` or `"GFTR"`.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Gfur => "GFUR",
            Pattern::Gftr => "GFTR",
        }
    }
}

/// One relation after a sort or radix transform: its keys and the one
/// column that rode with them.
pub struct Pairs<K: Element> {
    /// Keys in transformed order.
    pub keys: DeviceBuffer<K>,
    /// Physical tuple IDs in transformed order (GFUR).
    pub ids: Option<DeviceBuffer<u32>>,
    /// The first payload column in transformed order (GFTR).
    pub payload0: Option<Column>,
    /// Partition offsets (radix; empty when sorted).
    pub offsets: Vec<u32>,
}

/// The host half of a transform: `keys` in order, `carry(i)` moved along
/// with row `i`, and the partition offsets.
fn host_transform<K: Element, C: Copy + Default>(
    keys: &[K],
    radix: Radix,
    carry: impl Fn(usize) -> C,
) -> (Vec<K>, Vec<C>, Vec<u32>) {
    let bits = match radix {
        Radix::Sort(bits) => bits,
        Radix::Partition(bits) => {
            assert!(bits <= 24, "fan-out beyond 2^24 partitions is unrealistic");
            bits
        }
    };
    let (ordered, carried, first_digit) = lsd(keys, bits, carry);
    let offsets = match radix {
        Radix::Sort(_) => Vec::new(),
        Radix::Partition(bits) => partition_offsets(&ordered, bits, &first_digit),
    };
    (ordered, carried, offsets)
}

/// Stable LSD radix sort of `keys` on their low `bits`, moving `carry(i)`
/// with row `i`; also returns the first digit's histogram. Every digit on
/// which all keys agree is skipped.
fn lsd<K: Element, C: Copy + Default>(
    keys: &[K],
    bits: u32,
    carry: impl Fn(usize) -> C,
) -> (Vec<K>, Vec<C>, [u32; 256]) {
    let n = keys.len();
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    };
    // One read finds the digits on which all keys agree (the bits where
    // their AND and OR differ are the only ones that move a row), a second
    // counts every other digit. Counting a constant digit would cost most:
    // every key increments the same counter.
    let (all, any) = keys.iter().fold((mask, 0), |(all, any), k| {
        let r = k.to_radix() & mask;
        (all & r, any | r)
    });
    let digits = bits.div_ceil(DIGIT_BITS).min(64 / DIGIT_BITS);
    let shift = |d: u32| d * DIGIT_BITS;
    let live: Vec<u32> = (0..digits)
        .filter(|&d| ((all ^ any) >> shift(d)) & DIGIT_MASK != 0)
        .collect();
    let mut hist = vec![[0u32; 256]; live.len()];
    for k in keys {
        let r = k.to_radix() & mask;
        for (h, &d) in hist.iter_mut().zip(&live) {
            h[((r >> shift(d)) & DIGIT_MASK) as usize] += 1;
        }
    }
    let mut first_digit = [0; 256];
    match live.first() {
        Some(0) => first_digit = hist[0],
        _ if n > 0 => first_digit[(all & DIGIT_MASK) as usize] = n as u32,
        _ => {}
    }

    let mut passes = live.iter().map(|&d| shift(d)).zip(&hist);
    let Some(first) = passes.next() else {
        return (keys.to_vec(), (0..n).map(carry).collect(), first_digit);
    };
    let (mut cur_k, mut cur_c) = (vec![K::default(); n], vec![C::default(); n]);
    scatter_digit(keys, &carry, (&mut cur_k, &mut cur_c), mask, first);
    let mut rest = passes.peekable();
    if rest.peek().is_some() {
        let (mut next_k, mut next_c) = (vec![K::default(); n], vec![C::default(); n]);
        for pass in rest {
            let src_c = |i: usize| cur_c[i];
            scatter_digit(&cur_k, src_c, (&mut next_k, &mut next_c), mask, pass);
            std::mem::swap(&mut cur_k, &mut next_k);
            std::mem::swap(&mut cur_c, &mut next_c);
        }
    }
    (cur_k, cur_c, first_digit)
}

/// One stable counting pass on the digit at `shift`, from `src_k` (and
/// `src_c(i)` beside it) into `dst`.
fn scatter_digit<K: Element, C: Copy>(
    src_k: &[K],
    src_c: impl Fn(usize) -> C,
    (dst_k, dst_c): (&mut [K], &mut [C]),
    mask: u64,
    (shift, hist): (u32, &[u32; 256]),
) {
    let mut cursor = [0u32; 256];
    let mut acc = 0;
    for (c, &h) in cursor.iter_mut().zip(hist) {
        *c = acc;
        acc += h;
    }
    for (i, k) in src_k.iter().enumerate() {
        let b = (((k.to_radix() & mask) >> shift) & DIGIT_MASK) as usize;
        let pos = cursor[b] as usize;
        cursor[b] += 1;
        dst_k[pos] = *k;
        dst_c[pos] = src_c(i);
    }
}

/// Offsets of the `2^bits` partitions of keys already ordered on their low
/// `bits`: the first digit's histogram when it spans them all, else one
/// walk of the ordered keys.
fn partition_offsets<K: Element>(ordered: &[K], bits: u32, first_digit: &[u32; 256]) -> Vec<u32> {
    let parts = 1usize << bits;
    let mut offsets = Vec::with_capacity(parts + 1);
    offsets.push(0);
    if bits == 0 {
        offsets.push(ordered.len() as u32);
    } else if bits <= DIGIT_BITS {
        let mut acc = 0;
        offsets.extend(first_digit[..parts].iter().map(|&c| {
            acc += c;
            acc
        }));
    } else {
        let mask = parts as u64 - 1;
        for (i, k) in ordered.iter().enumerate() {
            let p = (k.to_radix() & mask) as usize;
            while offsets.len() <= p {
                offsets.push(i as u32);
            }
        }
        offsets.resize(parts + 1, ordered.len() as u32);
    }
    offsets
}

/// Charge the device one application of `radix` to `vals.len()` pairs
/// whose final order is `keys` / `vals`, and return the final buffers. This
/// is the device's sequence exactly: per pass, histogram, scan and scatter
/// kernels, then the pass's key and value allocations, then the previous
/// pass's freed (keys first); intermediate passes are reservations, the
/// last one holds the data. A partition then reads its offsets.
fn charge<K: Element, V: Element>(
    dev: &Device,
    radix: Radix,
    keys: &Arc<Vec<K>>,
    vals: Vec<V>,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    let n = vals.len() as u64;
    let bits = match radix {
        Radix::Sort(0) => {
            // A no-op sort: a copy, as the device's sort skips every pass.
            let keys = dev.upload_shared(keys, "sort_pairs.keys");
            return (keys, dev.upload(vals, "sort_pairs.vals"));
        }
        Radix::Partition(0) => {
            // A single partition: logically a copy.
            let keys = dev.upload_shared(keys, "radix_partition.keys");
            let vals = dev.upload(vals, "radix_partition.vals");
            dev.kernel("radix_partition.copy")
                .items(n, SCATTER_WARP_INSTR)
                .seq_read_bytes(n * (K::SIZE + V::SIZE))
                .seq_write_bytes(n * (K::SIZE + V::SIZE))
                .launch();
            return (keys, vals);
        }
        Radix::Sort(bits) | Radix::Partition(bits) => bits,
    };
    let per_pass = dev.config().max_radix_bits_per_pass;
    let mut held = None;
    let mut shift = 0;
    loop {
        let pass_bits = (bits - shift).min(per_pass);
        shift += pass_bits;
        // Histogram kernel: one streaming read of the keys.
        dev.kernel("radix_partition.histogram")
            .items(n, HISTOGRAM_WARP_INSTR)
            .seq_read_bytes(n * K::SIZE)
            .launch();
        charge_exclusive_scan(dev, 1 << pass_bits);
        // Scatter kernel: reads both arrays, writes both. Writes are staged
        // per digit in shared memory and flushed coalesced (the OneSweep
        // pattern), so they charge as sequential traffic.
        dev.kernel("radix_partition.scatter")
            .items(n, SCATTER_WARP_INSTR)
            .seq_read_bytes(n * (K::SIZE + V::SIZE))
            .seq_write_bytes(n * (K::SIZE + V::SIZE))
            .launch();
        if shift >= bits {
            break;
        }
        let pass_out = (
            dev.reserve(n * K::SIZE, "radix_partition.keys"),
            dev.reserve(n * V::SIZE, "radix_partition.vals"),
        );
        drop(held.replace(pass_out));
    }
    let out = (
        dev.upload_shared(keys, "radix_partition.keys"),
        dev.upload(vals, "radix_partition.vals"),
    );
    drop(held);
    if let Radix::Partition(bits) = radix {
        // Partition offsets: histogram over the partitioned keys + scan.
        dev.kernel("radix_partition.offsets")
            .items(n, HISTOGRAM_WARP_INSTR)
            .seq_read_bytes(n * K::SIZE)
            .launch();
        charge_exclusive_scan(dev, 1 << bits);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::radix_partition_reference;
    use crate::sort::sort_pairs_bits_reference;
    use sim::trace::MemEvent;
    use sim::{BudgetError, Counters, DeviceConfig, MemReport, SchedPolicy};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A shrunken A100, so the grid's inputs still span many L2 sets.
    fn config() -> DeviceConfig {
        DeviceConfig::a100().scaled(1024.0)
    }

    /// What a run hands back: its outputs' radix images, offsets and
    /// simulated base addresses as one word list.
    type Out = Vec<u64>;

    fn words<K: Element, V: Element>(
        k: DeviceBuffer<K>,
        v: DeviceBuffer<V>,
        offsets: &[u32],
    ) -> Out {
        let mut out: Out = k.iter().map(|k| k.to_radix()).collect();
        out.extend(v.iter().map(|v| v.to_radix()));
        out.extend(offsets.iter().map(|&o| o as u64));
        out.extend([k.addr_of(0), v.addr_of(0)]);
        out
    }

    /// Everything a run leaves observable on a fresh traced device.
    #[derive(Debug, PartialEq)]
    struct Observed {
        out: Out,
        counters: Counters,
        clock_bits: u64,
        mem: MemReport,
        samples: Vec<MemEvent>,
    }

    fn observe(run: &dyn Fn(&Device) -> Out) -> Observed {
        let dev = Device::new(config());
        dev.enable_tracing();
        let out = run(&dev);
        let trace = dev.take_trace().expect("tracing was enabled");
        Observed {
            out,
            counters: dev.counters(),
            clock_bits: dev.elapsed().secs().to_bits(),
            mem: dev.mem_report(),
            samples: trace.mem_samples().cloned().collect(),
        }
    }

    /// The budget error `run` raises on a query lane of `budget` bytes, as
    /// (requested bytes, in-use bytes, label); `None` if it fits.
    fn budget_error(run: &dyn Fn(&Device) -> Out, budget: u64) -> Option<(u64, u64, String)> {
        let dev = Device::new(config());
        dev.sched_start(SchedPolicy::Serial);
        let q = dev
            .sched_register(1.0, budget)
            .expect("the device has room");
        let mut seen = None;
        dev.sched_run(|_| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(&q))) {
                let err = payload.downcast::<BudgetError>().expect("a budget error");
                seen = Some((err.requested_bytes, err.in_use_bytes, err.label.clone()));
            }
        });
        dev.sched_finish();
        seen
    }

    /// `new` against the pass-by-pass `reference`: identical observations,
    /// and, on a query lane whose budget runs out at each ledger step in
    /// turn, the same budget error.
    fn assert_equivalent(
        case: &str,
        reference: &dyn Fn(&Device) -> Out,
        new: &dyn Fn(&Device) -> Out,
        budgets: bool,
    ) {
        assert_eq!(observe(reference), observe(new), "{case}");
        if !budgets {
            return;
        }
        let mut budget = 0;
        loop {
            let failed = budget_error(reference, budget);
            assert_eq!(failed, budget_error(new, budget), "{case}, budget {budget}");
            // Just enough for the step that failed: the next run fails at
            // the next step that raises the ledger's high-water mark.
            match failed {
                Some((requested, in_use, _)) => budget = in_use + requested,
                None => break,
            }
        }
    }

    /// Key families: all equal, constant high digits, negative, full-width
    /// random.
    fn key_families(n: usize) -> [(&'static str, Vec<i64>); 4] {
        let mut state = n as u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut family = |f: &mut dyn FnMut(u64) -> i64| (0..n).map(|_| f(next())).collect();
        [
            ("equal", vec![7; n]),
            ("small", family(&mut |r| (r % 200) as i64)),
            ("negative", family(&mut |r| -((r % 5000) as i64) - 1)),
            ("full-width", family(&mut |r| r as i64)),
        ]
    }

    /// One transform of `(k, v)` by the pass-by-pass reference.
    fn reference<K: Element, V: Element>(
        dev: &Device,
        radix: Radix,
        k: &DeviceBuffer<K>,
        v: &DeviceBuffer<V>,
    ) -> Out {
        match radix {
            Radix::Sort(bits) => {
                let (k, v) = sort_pairs_bits_reference(dev, k, v, bits);
                words(k, v, &[])
            }
            Radix::Partition(bits) => {
                let p = radix_partition_reference(dev, k, v, bits);
                words(p.keys, p.vals, &p.offsets)
            }
        }
    }

    /// One application of `order` to `v`.
    fn applied<K: Element, V: Element>(dev: &Device, order: &KeyOrder<K>, v: &[V]) -> Out {
        let (k, v, offsets) = order.apply(dev, v);
        words(k, v, &offsets)
    }

    fn check<K: Element, V: Element>(key: fn(i64) -> K, val: fn(u32) -> V) {
        let width = K::SIZE as u32 * 8;
        for n in [0, 1, 33, 4097] {
            for (family, raw) in key_families(n) {
                let keys: Vec<K> = raw.into_iter().map(key).collect();
                let vals: Vec<V> = (0..n as u32).map(val).collect();
                let upload = |dev: &Device| {
                    (
                        dev.upload(keys.clone(), "t.keys"),
                        dev.upload(vals.clone(), "t.vals"),
                    )
                };
                for bits in [1, 8, 9, 16, width] {
                    let partition = (bits <= 24).then_some(Radix::Partition(bits));
                    for radix in [Some(Radix::Sort(bits)), partition].into_iter().flatten() {
                        let pass_by_pass = |dev: &Device| {
                            let (k, v) = upload(dev);
                            reference(dev, radix, &k, &v)
                        };
                        for columns in [1, 2] {
                            let ordered = |dev: &Device| {
                                let (k, v) = upload(dev);
                                applied(dev, &KeyOrder::new(&k, radix, columns), &v)
                            };
                            let case = format!(
                                "{radix:?} for {columns} columns, {n} {family} keys of {width} bits"
                            );
                            assert_equivalent(&case, &pass_by_pass, &ordered, n == 33);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn order_then_apply_matches_the_pass_by_pass_reference() {
        check::<i32, u32>(|k| k as i32, |v| v);
        check::<i32, i32>(|k| k as i32, |v| v as i32 - 5);
        check::<i32, i64>(|k| k as i32, |v| v as i64 * -3);
        check::<i64, u32>(|k| k, |v| v);
        check::<i64, i32>(|k| k, |v| v as i32 - 5);
        check::<i64, i64>(|k| k, |v| v as i64 * -3);
        check::<u32, u32>(|k| k as u32, |v| v);
        check::<u32, i32>(|k| k as u32, |v| v as i32 - 5);
        check::<u32, i64>(|k| k as u32, |v| v as i64 * -3);
    }

    #[test]
    fn one_order_serves_three_columns_in_a_row() {
        let n = 4097;
        for (family, raw) in key_families(n) {
            let upload = |dev: &Device| {
                (
                    dev.upload(raw.clone(), "t.keys"),
                    dev.upload((0..n as u32).collect::<Vec<_>>(), "t.a"),
                    dev.upload((0..n as i32).map(|v| -v).collect::<Vec<_>>(), "t.b"),
                    dev.upload((0..n as i64).map(|v| v << 33).collect::<Vec<_>>(), "t.c"),
                )
            };
            for radix in [Radix::Sort(64), Radix::Partition(16), Radix::Partition(7)] {
                // Three transforms of one key column, one after the other,
                // each column's outputs freed before the next: GFTR's
                // lazily transformed columns.
                let pass_by_pass = |dev: &Device| {
                    let (k, a, b, c) = upload(dev);
                    let mut out = reference(dev, radix, &k, &a);
                    out.extend(reference(dev, radix, &k, &b));
                    out.extend(reference(dev, radix, &k, &c));
                    out
                };
                let replayed = |dev: &Device| {
                    let (k, a, b, c) = upload(dev);
                    let order = KeyOrder::new(&k, radix, 3);
                    let mut out = applied(dev, &order, &a);
                    out.extend(applied(dev, &order, &b));
                    out.extend(applied(dev, &order, &c));
                    out
                };
                let case = format!("{family} keys, {radix:?}, three columns");
                assert_equivalent(&case, &pass_by_pass, &replayed, true);
            }
        }
    }
}
