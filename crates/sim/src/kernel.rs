//! Kernel launch accounting: the cost model.
//!
//! A kernel's simulated time is `max(compute, memory) + atomic_serialization
//! + launch_overhead`:
//!
//! * compute = warp instructions / chip-wide issue rate;
//! * memory = DRAM traffic / effective bandwidth, where gather-style traffic
//!   is counted in *sectors actually touched per warp* and poorly coalesced
//!   sectors pay a latency-bound penalty (see [`crate::DeviceConfig`]);
//! * atomic serialization = the hottest contended address's update count
//!   times the per-update serialization cost — the bucket-chain partitioner's
//!   skew pathology (Figure 14 of the paper).
//!
//! The calibration is validated against Table 4 of the paper in
//! `tests/calibration.rs` of the `primitives` crate.

use crate::trace::{KernelEvent, TraceEvent};
use crate::{
    Counters, Device, DeviceBuffer, Element, Fold, QueryId, SimTime, SECTOR_BYTES, WARP_SIZE,
};

/// Warps per stack chunk of [`KernelBuilder::warp_loads`]: addresses are
/// pulled 1024 at a time (8 KiB of sector ids), so the stream needs no heap
/// and the device lock is taken once per chunk, not once per address.
const CHUNK_WARPS: usize = 32;

/// Builder describing one kernel launch. Obtain via [`Device::kernel`],
/// charge work to it, then call [`KernelBuilder::launch`].
#[must_use = "a kernel builder does nothing until launch() is called"]
pub struct KernelBuilder<'d> {
    dev: &'d Device,
    name: &'static str,
    warp_instructions: u64,
    seq_read_bytes: u64,
    seq_write_bytes: u64,
    load_requests: u64,
    sectors_requested: u64,
    l2_hit_sectors: u64,
    dram_gather_sectors: u64,
    /// DRAM-missing sectors written by [`KernelBuilder::warp_stores`]; each
    /// costs a read-modify-write, so its write-back half is charged to
    /// `Counters::dram_write_bytes` at launch.
    store_writeback_sectors: u64,
    /// Gather DRAM bytes after the per-request coalescing penalty.
    penalized_gather_bytes: f64,
    atomics_total: u64,
    atomics_hottest: u64,
}

impl<'d> KernelBuilder<'d> {
    pub(crate) fn new(dev: &'d Device, name: &'static str) -> Self {
        KernelBuilder {
            dev,
            name,
            warp_instructions: 0,
            seq_read_bytes: 0,
            seq_write_bytes: 0,
            load_requests: 0,
            sectors_requested: 0,
            l2_hit_sectors: 0,
            dram_gather_sectors: 0,
            store_writeback_sectors: 0,
            penalized_gather_bytes: 0.0,
            atomics_total: 0,
            atomics_hottest: 0,
        }
    }

    /// Charge instruction work for `n` data items, `warp_instr` warp
    /// instructions per warp of 32 items. The paper's gather kernel issues
    /// ~18.5 warp instructions per warp (Table 4: 77.6M for 2^27 items).
    pub fn items(mut self, n: u64, warp_instr: f64) -> Self {
        let warps = n.div_ceil(WARP_SIZE as u64);
        self.warp_instructions += (warps as f64 * warp_instr).round() as u64;
        self
    }

    /// Charge perfectly coalesced streaming reads.
    pub fn seq_read_bytes(mut self, bytes: u64) -> Self {
        self.seq_read_bytes += bytes;
        self
    }

    /// Charge perfectly coalesced streaming writes.
    pub fn seq_write_bytes(mut self, bytes: u64) -> Self {
        self.seq_write_bytes += bytes;
        self
    }

    /// Charge warp-level loads of `elem_size`-byte values at the given
    /// simulated addresses, 32 lanes per request. Addresses are deduplicated
    /// to 32-byte sectors per request (coalescing), filtered through the L2
    /// model, and the surviving DRAM sectors pay the uncoalesced penalty
    /// proportional to how far the request is from its ideal sector count.
    ///
    /// The stream is consumed in fixed stack chunks: `addrs` runs without
    /// the device lock (it may read buffers, or do the kernel's host-side
    /// work as it goes), then the chunk's warps are charged under it by
    /// [`crate::L2Cache::access_warp`]. Nothing is allocated.
    pub fn warp_loads<I>(mut self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let ideal = ideal_sectors(elem_size);
        let dev = self.dev;
        let penalty = dev.inner.config.uncoalesced_penalty;
        let mut sectors = [0u64; CHUNK_WARPS * WARP_SIZE];
        let mut addrs = addrs.into_iter();
        loop {
            // A lane may touch two sectors if the element straddles a
            // boundary; element sizes here are 4/8 bytes and buffers are
            // 256-byte aligned, so one sector suffices.
            let mut lanes = 0;
            for (slot, a) in sectors.iter_mut().zip(addrs.by_ref()) {
                *slot = a / SECTOR_BYTES;
                lanes += 1;
            }
            let mut st = dev.lock();
            let l2 = &mut st.lane(dev.query).l2;
            // Only the stream's last warp can be partial.
            for warp in sectors[..lanes].chunks(WARP_SIZE) {
                let (distinct, dram) = l2.access_warp(warp);
                self.charge_warp(distinct, dram, ideal, penalty);
            }
            drop(st);
            if lanes < sectors.len() {
                return self;
            }
        }
    }

    /// Charge warp-level loads of every element of `buf`, in order — by
    /// definition
    /// `warp_loads(T::SIZE, (0..buf.len()).map(|i| buf.addr_of(i)))`,
    /// charged by sector instead of by lane.
    ///
    /// An element is at most one sector wide, so consecutive lanes advance
    /// by at most one sector: a warp's distinct sectors are exactly the
    /// range from its first lane's sector to its last's, already ascending.
    /// Each is probed once, and the warps are folded in order, so every
    /// counter and f64 is the per-lane path's (`DESIGN.md`, "Warp-traffic
    /// accounting"). Nothing is allocated.
    pub fn contiguous_loads<T: Element>(mut self, buf: &DeviceBuffer<T>) -> Self {
        const { assert!(T::SIZE <= SECTOR_BYTES) };
        let ideal = ideal_sectors(T::SIZE);
        let dev = self.dev;
        let penalty = dev.inner.config.uncoalesced_penalty;
        let sector = |i: usize| buf.addr_of(i) / SECTOR_BYTES;
        let mut st = dev.lock();
        let l2 = &mut st.lane(dev.query).l2;
        for start in (0..buf.len()).step_by(WARP_SIZE) {
            let last = (start + WARP_SIZE).min(buf.len()) - 1;
            let (distinct, dram) = l2.access_range(sector(start), sector(last));
            self.charge_warp(distinct, dram, ideal, penalty);
        }
        drop(st);
        self
    }

    /// Fold one warp request's outcome into the builder, in warp order: the
    /// f64 penalty sum is order-sensitive.
    #[inline]
    fn charge_warp(&mut self, distinct: u64, dram: u64, ideal: f64, penalty: f64) {
        self.load_requests += 1;
        self.sectors_requested += distinct;
        self.l2_hit_sectors += distinct - dram;
        self.dram_gather_sectors += dram;
        // Latency-bound penalty per *excess* sector, in units of a
        // fully coalesced 4-byte request (4 sectors). Crucially this
        // depends on how scattered the request is, not on the
        // element width — the paper observes that unclustered 4-byte
        // and 8-byte gathers cost about the same, since both touch
        // ~32 sectors per warp (Section 5.2.5).
        let spr = distinct as f64;
        let factor = 1.0 + penalty * ((spr - ideal).max(0.0) / 4.0);
        self.penalized_gather_bytes += dram as f64 * SECTOR_BYTES as f64 * factor;
    }

    /// Charge warp-level *stores* at the given addresses. Stores follow the
    /// same coalescing and penalty rules as loads; a DRAM-missing sector
    /// additionally costs a read-modify-write (the write is narrower than a
    /// sector), i.e. double traffic.
    pub fn warp_stores<I>(mut self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let before = self.dram_gather_sectors;
        self = self.warp_loads(elem_size, addrs);
        let new_dram = self.dram_gather_sectors - before;
        // RMW: each missing sector is both fetched and written back. The
        // write-back half is tracked separately so launch() can charge it
        // to the DRAM-write counter as well as to time.
        self.store_writeback_sectors += new_dram;
        self.penalized_gather_bytes += (new_dram * SECTOR_BYTES) as f64;
        self
    }

    /// Charge `total` global atomic updates of which the hottest single
    /// address receives `hottest`. The hottest address serializes.
    pub fn atomics(mut self, total: u64, hottest: u64) -> Self {
        self.atomics_total += total;
        self.atomics_hottest = self.atomics_hottest.max(hottest);
        let instr = self.dev.inner.config.atomic_instr_cost;
        self.warp_instructions += (total as f64 * instr / WARP_SIZE as f64).ceil() as u64;
        self
    }

    /// Launch: convert the accounted work into simulated time, charge it,
    /// and return the kernel's duration.
    ///
    /// On the base handle the launch advances the device clock, counters,
    /// trace and metrics. On a query handle it advances only the query's
    /// private clock, counters and trace and appends the charge to the
    /// query's timeline; the session loop ([`Device::sched_run`]) charges
    /// the same record to the device-wide aggregates (whose trace tags the
    /// event with the query id, yielding the multi-tenant timeline) when
    /// the policy gives the query its turn.
    pub fn launch(self) -> SimTime {
        let cfg = &self.dev.inner.config;
        let t_comp = self.warp_instructions as f64 / cfg.issue_rate();
        let seq = (self.seq_read_bytes + self.seq_write_bytes) as f64;
        let t_mem = (seq + self.penalized_gather_bytes) / cfg.effective_bandwidth()
            + (self.l2_hit_sectors * SECTOR_BYTES) as f64 / cfg.l2_bandwidth();
        let t_atomic = self.atomics_hottest as f64 * cfg.atomic_serialize_cycles / cfg.clock_hz;
        let t = t_comp.max(t_mem) + t_atomic + cfg.kernel_launch_overhead;

        // Launches on a planning handle (the planner's statistics samplers,
        // see `Device::planning`) charge nothing — no clock, counters,
        // trace, metrics or timeline record. They model work a cached plan
        // skips, so a recorded (cold) run and its cached replay must
        // observe identical bytes on every clock. Safe because sampling
        // kernels stream charges only (no `warp_loads`): they never mutate
        // the shared L2 image or the memory ledger.
        if self.dev.planning {
            return SimTime::from_secs(t);
        }

        let k = KernelCharge {
            name: self.name,
            secs: t,
            work: Counters {
                kernel_launches: 1,
                cycles: t * cfg.clock_hz,
                warp_instructions: self.warp_instructions,
                dram_read_bytes: self.seq_read_bytes + self.dram_gather_sectors * SECTOR_BYTES,
                dram_write_bytes: self.seq_write_bytes
                    + self.store_writeback_sectors * SECTOR_BYTES,
                load_requests: self.load_requests,
                sectors_requested: self.sectors_requested,
                l2_hits: self.l2_hit_sectors,
                l2_misses: self.dram_gather_sectors,
                atomics: self.atomics_total,
            },
        };
        let query = self.dev.query;
        let mut st = self.dev.lock();
        let lane = st.lane(query);
        let start = lane.clock;
        lane.clock += t;
        lane.counters += &k.work;
        st.emit(query, Fold::BaseLane, |_| k.event(start, query));
        // On a query lane nothing device-wide moved: the session loop
        // replays the charge onto the base lane at the query's turn.
        if let Some(qid) = query {
            st.queries[qid as usize].timeline.push_back(k);
        }
        SimTime::from_secs(t)
    }
}

/// Sectors a fully coalesced warp of `elem_size`-byte lanes touches.
fn ideal_sectors(elem_size: u64) -> f64 {
    (elem_size * WARP_SIZE as u64).div_ceil(SECTOR_BYTES).max(1) as f64
}

/// One launched kernel as the device accounts it: its name, its simulated
/// duration and its work as a one-launch [`Counters`] record. Every lane's
/// counters, the trace event and the metrics totals fold or embed `work`
/// itself, so they cross-check exactly — and a query's timeline of charges
/// is all the session loop needs to replay its kernels onto the device
/// clock. `work.cycles` is computed once, in `launch`, so the base lane adds
/// the very f64 the query's lane added.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelCharge {
    pub(crate) name: &'static str,
    pub(crate) secs: f64,
    pub(crate) work: Counters,
}

impl KernelCharge {
    /// The trace event of this charge, started at `start` on the clock it
    /// is charged to and tagged with the query it ran for.
    pub(crate) fn event(&self, start: f64, query: Option<QueryId>) -> TraceEvent {
        TraceEvent::Kernel(KernelEvent {
            name: self.name,
            start,
            dur: self.secs,
            query,
            work: self.work,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Counters, Device, Element, SECTOR_BYTES};
    use proptest::prelude::*;

    #[test]
    fn streaming_kernel_is_bandwidth_bound() {
        let dev = Device::a100();
        let bytes = 1u64 << 30;
        let t = dev
            .kernel("stream")
            .items(bytes / 4, 4.0)
            .seq_read_bytes(bytes)
            .seq_write_bytes(bytes)
            .launch();
        let expected = 2.0 * bytes as f64 / dev.config().effective_bandwidth();
        assert!(
            (t.secs() - expected).abs() / expected < 0.05,
            "t={} expected~{expected}",
            t.secs()
        );
    }

    #[test]
    fn coalesced_loads_touch_ideal_sectors() {
        let dev = Device::a100();
        let buf = dev.alloc::<i32>(1 << 16, "x");
        dev.kernel("coalesced")
            .warp_loads(4, (0..buf.len()).map(|i| buf.addr_of(i)))
            .launch();
        let c = dev.counters();
        // 32 consecutive 4-byte lanes span exactly 4 sectors.
        assert_eq!(c.load_requests, (1 << 16) / 32);
        assert!((c.sectors_per_request() - 4.0).abs() < 0.25);
    }

    #[test]
    fn strided_loads_touch_many_sectors_and_cost_more() {
        let dev = Device::a100();
        // Large enough that memory traffic dwarfs the fixed launch overhead
        // and the strided footprint (64 MB) exceeds the 40 MB L2.
        let n = 1usize << 20;
        let buf = dev.alloc::<i32>(n * 16, "x");
        let t_seq = dev
            .kernel("seq")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i)))
            .launch();
        dev.reset_stats();
        let t_strided = dev
            .kernel("strided")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 16)))
            .launch();
        let c = dev.counters();
        assert!(c.sectors_per_request() > 16.0);
        assert!(t_strided.secs() > 4.0 * t_seq.secs());
    }

    #[test]
    fn l2_absorbs_repeated_random_access_to_small_region() {
        let dev = Device::a100();
        let n = 1usize << 14; // 64 KiB region, far below 40 MB L2
        let buf = dev.alloc::<i32>(n, "small");
        // Pseudo-random permutation touches every element twice.
        let addrs = |round: usize| {
            let buf = &buf;
            (0..n).map(move |i| buf.addr_of((i * 769 + round * 13) % n))
        };
        dev.kernel("warmup").warp_loads(4, addrs(0)).launch();
        let before = dev.counters();
        dev.kernel("hot").warp_loads(4, addrs(1)).launch();
        let d = dev.counters().delta_since(&before);
        assert!(
            d.l2_hit_rate() > 0.95,
            "expected hot region to hit in L2, got {}",
            d.l2_hit_rate()
        );
    }

    #[test]
    fn atomic_hotspot_serializes() {
        let dev = Device::a100();
        let n = 1u64 << 22;
        // All updates to one address.
        let t_hot = dev.kernel("hot").atomics(n, n).launch();
        // Updates spread over many addresses.
        let t_spread = dev.kernel("spread").atomics(n, n / 4096).launch();
        assert!(t_hot.secs() > 10.0 * t_spread.secs());
        assert_eq!(dev.counters().atomics, 2 * n);
    }

    #[test]
    fn stores_pay_rmw_traffic() {
        let dev = Device::a100();
        let n = 1usize << 14;
        let buf = dev.alloc::<i32>(n * 64, "x");
        let t_load = dev
            .kernel("l")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 64)))
            .launch();
        let read_only = dev.counters();
        assert_eq!(
            read_only.dram_write_bytes, 0,
            "loads must not charge DRAM writes"
        );
        dev.reset_stats();
        dev.flush_l2();
        let t_store = dev
            .kernel("s")
            .warp_stores(4, (0..n).map(|i| buf.addr_of(i * 64)))
            .launch();
        assert!(t_store.secs() > t_load.secs());
        // The RMW write-back must show up in the write counter, one sector
        // per DRAM-missing store sector.
        let c = dev.counters();
        assert!(c.dram_write_bytes > 0, "RMW write-back missing from writes");
        assert_eq!(c.dram_write_bytes, c.l2_misses * SECTOR_BYTES);
    }

    #[test]
    fn chunked_stream_matches_warp_at_a_time_reference() {
        // Strided, sequential and conflict-heavy streams whose lengths are
        // multiples of neither the chunk nor the warp, on a cache small
        // enough that sets conflict inside a warp. The reference charges the
        // same addresses one warp at a time through the sort-based L2 probe.
        let n = 5 * super::CHUNK_WARPS * super::WARP_SIZE / 2 + 7;
        let run = |reference: bool| {
            let dev = Device::new(crate::DeviceConfig::a100().scaled(4096.0));
            let buf = dev.alloc::<i32>(n * 16, "x");
            let streams: [(u64, Vec<u64>); 3] = [
                (4, (0..n).map(|i| buf.addr_of(i * 16)).collect()),
                (4, (0..n).map(|i| buf.addr_of(i)).collect()),
                (
                    8,
                    (0..n).map(|i| buf.addr_of((i * 769) % (n * 16))).collect(),
                ),
            ];
            let mut k = dev.kernel("mixed");
            for (elem_size, addrs) in streams {
                if !reference {
                    k = k.warp_loads(elem_size, addrs);
                    continue;
                }
                let ideal = (elem_size * 32).div_ceil(SECTOR_BYTES) as f64;
                let penalty = dev.config().uncoalesced_penalty;
                for warp in addrs.chunks(super::WARP_SIZE) {
                    let sectors: Vec<u64> = warp.iter().map(|a| a / SECTOR_BYTES).collect();
                    let (distinct, dram) = dev.lock().base.l2.access_warp_reference(&sectors);
                    k.charge_warp(distinct, dram, ideal, penalty);
                }
            }
            let t = k.launch();
            (dev.counters(), t, dev.elapsed())
        };
        let core = run(false);
        assert!(core.0.l2_hits > 0 && core.0.l2_misses > 0);
        assert_eq!(core, run(true));
    }

    /// `contiguous_loads(&buf)` and the stream that defines it, each on one
    /// of two twin devices with an L2 of `sets` sets that one scattered
    /// stream over and around the buffer has warmed. The buffer is charged
    /// twice, so the second pass starts from the first's L2 state. Returns
    /// both sides' charge as `(counters, cycles, kernel time, clock)`, the
    /// f64s as bits.
    fn range_and_definition<T: Element>(
        sets: u64,
        len: usize,
        warm: &[u64],
    ) -> [(Counters, u64, u64, u64); 2] {
        [true, false].map(|by_range| {
            let mut cfg = crate::DeviceConfig::a100();
            cfg.l2_bytes = sets * SECTOR_BYTES;
            let dev = Device::new(cfg);
            let buf = dev.alloc::<T>(len, "x");
            let span = (len as u64 * T::SIZE).max(1) + 8 * sets * SECTOR_BYTES;
            let warm = warm.iter().map(|&w| buf.addr_of(0) + w % span);
            dev.kernel("warm").warp_loads(4, warm).launch();
            let warmed = dev.counters();
            let mut k = dev.kernel("range");
            for _ in 0..2 {
                k = if by_range {
                    k.contiguous_loads(&buf)
                } else {
                    k.warp_loads(T::SIZE, (0..buf.len()).map(|i| buf.addr_of(i)))
                };
            }
            let t = k.launch();
            let c = dev.counters().delta_since(&warmed).0;
            let elapsed = dev.elapsed().secs().to_bits();
            (c, c.cycles.to_bits(), t.secs().to_bits(), elapsed)
        })
    }

    /// Lengths around the warp and the 1024-lane chunk.
    const EDGE_LENGTHS: [usize; 9] = [0, 1, 31, 32, 33, 1023, 1024, 1025, 5000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn range_charge_matches_its_defining_stream(
            set_bits in 0u32..=6,
            elem in 0usize..3,
            edge in any::<bool>(),
            edge_len in 0usize..EDGE_LENGTHS.len(),
            any_len in 0usize..=5000,
            warm in collection::vec(any::<u64>(), 1..600),
        ) {
            let sets = 1u64 << set_bits;
            let len = if edge { EDGE_LENGTHS[edge_len] } else { any_len };
            let [range, definition] = match elem {
                0 => range_and_definition::<u8>(sets, len, &warm),
                1 => range_and_definition::<u32>(sets, len, &warm),
                _ => range_and_definition::<i64>(sets, len, &warm),
            };
            prop_assert_eq!(range, definition, "{} sets, len {}, elem {}", sets, len, elem);
        }
    }

    #[test]
    fn range_charge_sees_hits_and_misses() {
        // The property above is only as good as the L2 states it reaches:
        // its warm-up must leave sectors for the buffer to hit as well as
        // miss.
        let warm: Vec<u64> = (0..500u64).map(|i| i * 2654435761).collect();
        let [range, definition] = range_and_definition::<u32>(16, 1025, &warm);
        assert_eq!(range, definition);
        let c = range.0;
        assert!(c.l2_hits > 0 && c.l2_misses > 0, "{c:?}");
    }

    #[test]
    fn empty_address_stream_charges_no_requests() {
        let dev = Device::a100();
        let t = dev
            .kernel("empty")
            .warp_loads(4, std::iter::empty())
            .warp_stores(8, Vec::new())
            .launch();
        let c = dev.counters();
        assert_eq!((c.load_requests, c.sectors_requested), (0, 0));
        assert_eq!((c.dram_read_bytes, c.dram_write_bytes), (0, 0));
        assert_eq!(t.secs(), dev.config().kernel_launch_overhead);
    }

    #[test]
    fn partial_final_warp_counts_one_request() {
        let dev = Device::a100();
        let buf = dev.alloc::<i32>(40, "x");
        dev.kernel("tail")
            .warp_loads(4, (0..40).map(|i| buf.addr_of(i)))
            .launch();
        assert_eq!(dev.counters().load_requests, 2);
        let _ = SECTOR_BYTES;
    }
}
