//! Algorithm 1, once, for grouped aggregation: the single three-phase
//! driver behind every group-by.
//!
//! A grouped aggregation is the joins' computation over one relation —
//! *transform* the keys, *find groups* in them, *aggregate* every payload
//! column — with the same two free choices: the [`Transform`] and the
//! [`Pattern`], i.e. where aggregation reads payload columns from.
//! [`GroupByAlgorithm::recipe`](crate::GroupByAlgorithm) is the one table
//! mapping each algorithm to its choices; [`typed`] is the one body that
//! runs them. The transform fixes how groups are found and folded:
//!
//! | transform | group finding | fold kernel |
//! |---|---|---|
//! | `None` (HASH) | `linear_probe_slots` into a global table: row → group id | `hash_gb.aggregate.{privatized,global}`, then `hash_gb.compact` |
//! | `Sort` | `run_boundaries`: one segment per group | `segmented_fold` |
//! | `Radix` | a `PartitionTable` per partition: row → group id | `part_gb.aggregate` |
//!
//! # Ordering invariants
//!
//! The memory ledger hands out addresses by bumping a pointer and the L2
//! model maps by absolute address, so the order of allocations, kernels and
//! frees is part of every simulated number; a trace's `mem` samples and a
//! query lane's budget errors see even the order of allocations and frees
//! within one instant. The driver therefore fixes:
//!
//! * HASH opens no `transform` span. It reserves `hash_gb.keys` and
//!   allocates `hash_gb.row_group` before its build kernel, and one
//!   `hash_gb.accs` per column. It frees the table pieces after the
//!   `materialize` span closes and only then uploads `hash_gb.group_keys`.
//! * The ID column a transform carries (`iota`: GFUR, and GFTR without
//!   payloads) is freed at the end of the transform phase. Its transformed
//!   IDs live to the end — a payload-less GFTR group-by *keeps* them, where
//!   a join drops them at once — as do the transformed keys.
//! * The first GFTR column rode with the keys; each further one is
//!   transformed in `materialize` by replaying the keys' order. Each
//!   ordered column (GFTR's or a GFUR gather) is freed right after its
//!   fold uploads the column's aggregates.
//! * SORT uploads `sort_gb.starts` and gathers the group keys *inside*
//!   `materialize`; `starts` is freed after the span closes.
//! * PART uploads `part_gb.row_group` at the end of group finding, and
//!   uploads `part_gb.group_keys` after `materialize`, before freeing
//!   `part_gb.row_group`.

use crate::{AggFn, GroupByConfig, GroupByOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{
    choose_radix_bits, gather, gather_column, iota, linear_probe_slots, run_boundaries,
    timed_phase, KeyOrder, Pairs, PartitionTable, Pattern, BUILD_WARP_INSTR,
    GLOBAL_HASH_WARP_INSTR, STREAM_WARP_INSTR,
};
use sim::{Device, DeviceBuffer, Element, OpStats, PhaseTimes, Reservation};

/// The transformation strategy of a grouped aggregation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Transform {
    /// No transformation: a global hash table over the original keys.
    None,
    /// Stable radix sort; a group is a run of equal keys.
    Sort,
    /// Stable radix partitioning; a shared-memory table per partition.
    Radix,
}

/// What group finding hands aggregation, one variant per transform.
enum Groups<K> {
    /// Sorted: the `groups + 1` boundaries of the runs of equal keys.
    Segments(Vec<u32>),
    /// Partitioned: a group id per row of the partitioned keys.
    Partitioned(RowGroups<K>),
    /// Global table: a group id per input row, and the table.
    Hashed(RowGroups<K>, GlobalTable),
}

/// The distinct keys in first-seen order, and each row's index into them.
struct RowGroups<K> {
    keys: Vec<K>,
    row_group: DeviceBuffer<u32>,
}

/// HASH's global table: the ledger charge of its key slots (simulated
/// memory only, held until the table is freed), their count, and the row
/// count of its hottest group.
struct GlobalTable {
    _keys: Reservation,
    slots: usize,
    hottest: u64,
}

/// Run the group-by `transform` x `pattern` on typed keys: Algorithm 1.
pub(crate) fn typed<K: ColumnElement>(
    keys: &DeviceBuffer<K>,
    dev: &Device,
    input: &Relation,
    aggs: &[AggFn],
    config: &GroupByConfig,
    (transform, pattern, ids_label): (Transform, Pattern, &'static str),
) -> GroupByOutput {
    dev.reset_peak_mem();
    let mut phases = PhaseTimes::default();
    let n = keys.len();

    // The keys' stable order, computed once for every column GFTR
    // transforms with them; GFUR transforms one ID column.
    let columns = match pattern {
        Pattern::Gftr => aggs.len(),
        Pattern::Gfur => 1,
    };
    let order = match transform {
        Transform::None => None,
        Transform::Sort => Some(KeyOrder::sort(keys, columns)),
        Transform::Radix => {
            let bits = choose_radix_bits(dev, n.max(1), K::SIZE + 8, config.radix_bits);
            Some(KeyOrder::partition(keys, bits, columns))
        }
    };

    // Transformation: the keys carry the first payload column (GFTR) or an
    // ID column (GFUR, and GFTR without payloads). HASH has no such phase.
    let mut transformed = order.map(|order| {
        let carried = || match (pattern, input.payloads().first()) {
            (Pattern::Gftr, Some(p)) => order.carry_column(dev, p),
            _ => order.carry_ids(dev, &iota(dev, n, ids_label)),
        };
        let (pairs, t) = timed_phase(dev, "transform", carried);
        phases.transform = t;
        (order, pairs)
    });
    let mut first = transformed.as_mut().and_then(|(_, p)| p.payload0.take());

    // Group finding.
    let (groups, t) = timed_phase(dev, "match_find", || match &transformed {
        None => hash_groups(dev, keys),
        Some((_, p)) if transform == Transform::Sort => {
            Groups::Segments(run_boundaries(dev, p.keys.as_slice()))
        }
        Some((_, p)) => partition_groups(dev, p),
    });
    phases.match_find = t;

    // Aggregation, one column at a time: the column in group-finding order
    // (a GFUR gather through the carried IDs, GFTR's first column or a
    // replay of the order, or for HASH the input column itself), folded by
    // the group finder's own kernel.
    let ((aggregates, sorted_group_keys), t) = timed_phase(dev, "materialize", || {
        let fold = |(j, &agg): (usize, &AggFn)| {
            let col = input.payload(j);
            let ordered = transformed.as_ref().map(|(order, p)| match &p.ids {
                Some(ids) => gather_column(dev, col, ids),
                None => first
                    .take()
                    .unwrap_or_else(|| order.apply_column(dev, col).1),
            });
            groups.fold(dev, ordered.as_ref().unwrap_or(col), agg)
        };
        let aggregates: Vec<Column> = aggs.iter().enumerate().map(fold).collect();
        let sorted_group_keys = match &groups {
            Groups::Segments(bounds) => {
                // One key per segment start (clustered gather).
                let starts = dev.upload(bounds[..bounds.len() - 1].to_vec(), "sort_gb.starts");
                let (_, sorted) = transformed.as_ref().expect("SORT transformed its keys");
                Some((gather(dev, &sorted.keys, &starts), starts))
            }
            Groups::Hashed(rows, table) => {
                // Compact the table into the output key column (streaming
                // scan of the slots).
                dev.kernel("hash_gb.compact")
                    .items(table.slots as u64, STREAM_WARP_INSTR)
                    .seq_read_bytes(table.slots as u64 * 12)
                    .seq_write_bytes(rows.keys.len() as u64 * K::SIZE)
                    .launch();
                None
            }
            Groups::Partitioned(_) => None,
        };
        (aggregates, sorted_group_keys)
    });
    phases.materialize = t;

    let rows = groups.len();
    let group_keys = match groups {
        Groups::Segments(_) => {
            let (keys, _starts) = sorted_group_keys.expect("SORT gathers its keys in materialize");
            keys
        }
        Groups::Partitioned(rows) => dev.upload(rows.keys, "part_gb.group_keys"),
        Groups::Hashed(rows, table) => {
            drop((table, rows.row_group));
            dev.upload(rows.keys, "hash_gb.group_keys")
        }
    };
    GroupByOutput {
        keys: K::wrap(group_keys),
        aggregates,
        stats: OpStats::new(phases, rows, dev.mem_report().peak_bytes),
    }
}

/// HASH group finding: one pass assigning each row its group id, chasing
/// random slots of a global table sized, as real GPU implementations size
/// it, for the worst case (every row its own group).
fn hash_groups<K: ColumnElement>(dev: &Device, keys: &DeviceBuffer<K>) -> Groups<K> {
    let n = keys.len();
    let slots = (n.max(1) * 2).next_power_of_two();
    // The table's keys live in simulated memory only: the L2 model reads
    // their slot addresses, the host never their contents.
    let table_keys = dev.reserve(slots as u64 * u64::SIZE, "hash_gb.keys");
    let mut occupied: Vec<u32> = vec![u32::MAX; slots]; // group index per slot
    let mut group_keys: Vec<K> = Vec::new();
    let mut group_counts: Vec<u64> = Vec::new();
    let mut row_group = dev.alloc::<u32>(n, "hash_gb.row_group");
    let rows = row_group.as_mut_slice();
    let touched = linear_probe_slots(keys.iter().map(|k| k.to_radix()), slots - 1, |i, _, s| {
        let g = match occupied[s] {
            u32::MAX => {
                let g = group_keys.len() as u32;
                occupied[s] = g;
                group_keys.push(keys[i]);
                group_counts.push(0);
                g
            }
            g if group_keys[g as usize] == keys[i] => g,
            _ => return true,
        };
        group_counts[g as usize] += 1;
        rows[i] = g;
        false
    })
    .map(|s| table_keys.base_addr() + s as u64 * u64::SIZE);
    dev.kernel("hash_gb.build")
        .items(n as u64, GLOBAL_HASH_WARP_INSTR)
        .seq_read_bytes(n as u64 * K::SIZE)
        .warp_loads(12, touched)
        .seq_write_bytes(n as u64 * 4)
        .launch();
    let table = GlobalTable {
        _keys: table_keys,
        slots,
        hottest: group_counts.iter().copied().max().unwrap_or(0),
    };
    let keys = group_keys;
    Groups::Hashed(RowGroups { keys, row_group }, table)
}

/// PART group finding: per-partition shared-memory tables assign each row a
/// global group id, in first-seen order of the partitioned scan (one
/// streaming pass writing the group-id column and the distinct keys).
fn partition_groups<K: Element>(dev: &Device, pairs: &Pairs<K>) -> Groups<K> {
    let n = pairs.keys.len();
    let mut keys: Vec<K> = Vec::new();
    let mut row_group: Vec<u32> = Vec::with_capacity(n);
    let mut table = PartitionTable::default();
    let bits = (pairs.offsets.len() - 1).trailing_zeros();
    for w in pairs.offsets.windows(2) {
        let part = &pairs.keys[w[0] as usize..w[1] as usize];
        if part.is_empty() {
            continue;
        }
        table.reset(part.len(), bits);
        for pk in part {
            row_group.push(table.get_or_insert(pk.to_radix(), || {
                keys.push(*pk);
                keys.len() as u32 - 1
            }));
        }
    }
    dev.kernel("part_gb.group_find")
        .items(n as u64, BUILD_WARP_INSTR)
        .seq_read_bytes(n as u64 * K::SIZE)
        .seq_write_bytes(n as u64 * 4 + keys.len() as u64 * K::SIZE)
        .launch();
    let row_group = dev.upload(row_group, "part_gb.row_group");
    Groups::Partitioned(RowGroups { keys, row_group })
}

impl<K> Groups<K> {
    /// Number of groups.
    fn len(&self) -> usize {
        match self {
            Groups::Segments(bounds) => bounds.len() - 1,
            Groups::Partitioned(rows) | Groups::Hashed(rows, _) => rows.keys.len(),
        }
    }

    /// Fold `col`, in group-finding order, into one `i64` accumulator per
    /// group with this group finder's kernel.
    fn fold(&self, dev: &Device, col: &Column, agg: AggFn) -> Column {
        let (n, groups) = (col.len() as u64, self.len());
        match self {
            Groups::Segments(bounds) => segmented_fold(dev, col, bounds, agg),
            Groups::Partitioned(rows) => {
                // Streaming fold into shared-memory accumulators (group ids
                // are partition-local on hardware; charged as a streaming
                // pass).
                let mut accs = vec![agg.identity(); groups];
                agg.fold_by_group(col, &rows.row_group, &mut accs);
                dev.kernel("part_gb.aggregate")
                    .items(n, STREAM_WARP_INSTR)
                    .seq_read_bytes(n * (col.dtype().size() + 4))
                    .seq_write_bytes(groups as u64 * 8)
                    .launch();
                Column::from_i64(dev, accs, "part_gb.out")
            }
            Groups::Hashed(rows, table) => {
                // When the group set fits in shared memory, thread blocks
                // pre-aggregate into private tables and merge once per block
                // at the end — the standard privatization that keeps
                // low-cardinality aggregation off the global atomic units.
                // Otherwise every row's update lands at a random global
                // accumulator (atomics, contended on the hottest group).
                let privatized = (groups as u64) <= dev.config().shared_mem_tuples(16);
                let blocks = (dev.config().sms * 4) as u64;
                let mut accs = dev.alloc::<i64>(groups, "hash_gb.accs");
                let acc = accs.as_mut_slice();
                acc.fill(agg.identity());
                agg.fold_by_group(col, &rows.row_group, acc);
                if privatized {
                    dev.kernel("hash_gb.aggregate.privatized")
                        .items(n, STREAM_WARP_INSTR)
                        .seq_read_bytes(n * (col.dtype().size() + 4))
                        // Cross-block merge: one partial table per block.
                        .seq_write_bytes(blocks * groups as u64 * 8)
                        .atomics(blocks * groups as u64, blocks)
                        .launch();
                } else {
                    let accs_addrs = rows.row_group.iter().map(|&g| accs.addr_of(g as usize));
                    dev.kernel("hash_gb.aggregate.global")
                        .items(n, STREAM_WARP_INSTR)
                        .seq_read_bytes(n * (col.dtype().size() + 4))
                        .warp_stores(8, accs_addrs)
                        .atomics(n, table.hottest)
                        .launch();
                }
                Column::from_i64(dev, accs.to_vec(), "hash_gb.out")
            }
        }
    }
}

/// Segmented fold of a sorted column: one streaming read, one `|G|`-sized
/// write.
fn segmented_fold(dev: &Device, col: &Column, boundaries: &[u32], agg: AggFn) -> Column {
    let groups = boundaries.len().saturating_sub(1);
    let out = columnar::dispatch_column!(col, |vals| {
        boundaries
            .windows(2)
            .map(|w| {
                vals[w[0] as usize..w[1] as usize]
                    .iter()
                    .fold(agg.identity(), |acc, &v| agg.fold(acc, v))
            })
            .collect()
    });
    dev.kernel("segmented_fold")
        .items(col.len() as u64, STREAM_WARP_INSTR)
        .seq_read_bytes(col.len() as u64 * col.dtype().size())
        .seq_write_bytes(groups as u64 * 8)
        .launch();
    Column::from_i64(dev, out, "sort_gb.agg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_group_by, GroupByAlgorithm};
    use sim::{SimTime, SpanCat};

    /// Every algorithm's row of the recipe table, as the crate docs give it.
    const RECIPES: [(GroupByAlgorithm, Transform, &str); 5] = [
        (GroupByAlgorithm::HashGlobal, Transform::None, "in-place"),
        (GroupByAlgorithm::SortGftr, Transform::Sort, "GFTR"),
        (GroupByAlgorithm::SortGfur, Transform::Sort, "GFUR"),
        (GroupByAlgorithm::PartitionedGftr, Transform::Radix, "GFTR"),
        (GroupByAlgorithm::PartitionedGfur, Transform::Radix, "GFUR"),
    ];

    #[test]
    fn recipes_resolve_as_the_crate_docs_table_says() {
        for (alg, transform, materialization) in RECIPES {
            let (t, pattern, ids_label) = alg.recipe();
            assert_eq!(t, transform, "{alg}");
            assert_eq!(alg.materialization(), materialization, "{alg}");
            if transform != Transform::None {
                assert_eq!(pattern.label(), materialization, "{alg}");
                assert!(ids_label.ends_with("_gb.ids"), "{alg}: {ids_label}");
            }
        }
    }

    /// A relation of `n` keys `i * 7 mod 500` with `cols` mixed-width
    /// payload columns.
    fn input(dev: &Device, n: i32, cols: usize) -> Relation {
        let keys: Vec<i32> = (0..n).map(|i| (i * 7) % 500).collect();
        let payloads = (0..cols)
            .map(|j| match j % 2 {
                0 => Column::from_i32(dev, keys.iter().map(|&k| k + j as i32).collect(), "p32"),
                _ => Column::from_i64(dev, keys.iter().map(|&k| k as i64 * 3).collect(), "p64"),
            })
            .collect();
        Relation::new("T", Column::from_i32(dev, keys, "k"), payloads)
    }

    /// The trace of one group-by: the phase spans of a name sum, in log
    /// order and bit for bit, to the reported phase time, and HASH opens no
    /// `transform` span.
    #[test]
    fn phase_spans_reproduce_phase_times_bit_for_bit() {
        for (alg, transform, _) in RECIPES {
            for cols in [0, 1, 3] {
                let dev = Device::new(sim::DeviceConfig::a100().scaled(1024.0));
                let rel = input(&dev, 3_000, cols);
                let aggs = &[AggFn::Sum, AggFn::Min, AggFn::Max][..cols];
                dev.enable_tracing();
                let out = run_group_by(&dev, alg, &rel, aggs, &GroupByConfig::default());
                let trace = dev.take_trace().expect("tracing was enabled");
                let case = format!("{alg} x{cols}");

                let sum = |phase: &str| {
                    let of_phase =
                        |s: &&sim::trace::SpanEvent| s.cat == SpanCat::Phase && s.name == phase;
                    let spans: Vec<_> = trace.spans().filter(of_phase).collect();
                    let durs = spans.iter().map(|s| SimTime::from_secs(s.end - s.start));
                    let total = durs.fold(SimTime::ZERO, |acc, d| acc + d);
                    (spans.len(), total.secs().to_bits())
                };
                let phases = out.stats.phases;
                let has_transform = (transform != Transform::None) as usize;
                let bits = |t: SimTime| t.secs().to_bits();
                assert_eq!(
                    sum("transform"),
                    (has_transform, bits(phases.transform)),
                    "{case}"
                );
                assert_eq!(sum("match_find"), (1, bits(phases.match_find)), "{case}");
                assert_eq!(sum("materialize"), (1, bits(phases.materialize)), "{case}");
            }
        }
    }
}
