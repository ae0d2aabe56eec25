//! # primitives — device primitives for joins and grouped aggregations
//!
//! The procedures of Section 2.3 of the paper, implemented on the [`sim`]
//! substrate with the same cost structure as their CUB/Thrust/ModernGPU
//! originals:
//!
//! * [`radix_partition`] — stable LSD radix partitioning, at most 8 bits
//!   per pass (the Ampere limit the paper cites), with partition offsets
//!   computed by histogram + prefix sum; [`choose_radix_bits`] is the one
//!   fan-out rule of the partitioned joins and group-bys.
//! * [`sort_pairs`] — least-significant-digit radix sort of (key, value)
//!   pairs, built from partition passes exactly like CUB's OneSweep; for
//!   4-byte keys this is the "~17 sequential passes" of Section 4.2.
//! * [`KeyOrder`] — how the host runs both: one stable order per key
//!   column, computed once and replayed for every column transformed with
//!   those keys, while the device is charged every pass of every column.
//!   Its [`Pairs`] are what the join and group-by drivers carry out of the
//!   transform phase: the keys with either the first payload column or an
//!   ID column, as the [`Pattern`] (GFTR or GFUR) asks.
//! * [`gather`] / [`gather_column`] / [`scatter`] — the Thrust-style gather
//!   with warp-level coalescing accounting; this is where clustered vs
//!   unclustered maps (Table 4) diverge.
//! * [`merge_join`] — merge-path-balanced sorted merge join (ModernGPU /
//!   Rui et al. style).
//! * [`join_copartitions`] — per-partition shared-memory hash join
//!   (the match-finding kernel of the paper's PHJ-OM, Section 4.3), over
//!   [`PartitionTable`], the host's one shared-memory table, which PART
//!   group finding probes too.
//! * [`GlobalHashTable`] — a non-partitioned global hash table (the cuDF
//!   baseline's core).
//! * [`sort_column`] / [`radix_partition_column`] — transform one payload
//!   [`columnar::Column`] with its relation's keys; [`iota`] — the physical
//!   ID column transformed instead when payloads stay put (GFUR).
//! * [`exclusive_scan`], [`run_boundaries`] — support primitives for
//!   partition offsets and sort-based grouped aggregation.
//! * [`compact_mask`] — prefix-sum stream compaction of a predicate byte
//!   mask into a selection vector (CUB `DeviceSelect::Flagged`); the
//!   device-side half of the engine's fused Filter evaluation.

mod costs;
mod gather;
mod hash;
mod merge;
mod order;
mod partition;
mod scan;
mod sort;

pub use costs::*;
pub use gather::{gather, gather_column, gather_column_or_null, gather_or, scatter, NULL_ID};
pub use hash::{join_copartitions, CoPartitionCost};
pub use hash::{linear_probe_slots, GlobalHashTable, MatchResult, PartitionTable};
pub use merge::{merge_join, merge_path_partitions};
pub use order::{KeyOrder, Pairs, Pattern};
pub use partition::{
    choose_radix_bits, partition_of, radix_partition, radix_partition_column, PartitionedPairs,
};
pub use scan::{compact_mask, exclusive_scan, iota, run_boundaries};
pub use sort::{sort_column, sort_pairs, sort_pairs_bits};

/// Time a closure in simulated device time *and* record it as a paper-phase
/// span (`transform` / `match_find` / `materialize`) on the device trace —
/// the one phase bracket of every join and group-by driver. The returned
/// duration is exactly the recorded span's, so phase-span sums in a trace
/// reproduce [`sim::PhaseTimes`] bit for bit.
pub fn timed_phase<T>(
    dev: &sim::Device,
    phase: &'static str,
    f: impl FnOnce() -> T,
) -> (T, sim::SimTime) {
    let t0 = dev.elapsed();
    let out = f();
    let t1 = dev.elapsed();
    dev.trace_span(sim::SpanCat::Phase, phase, t0, t1);
    (out, t1 - t0)
}
