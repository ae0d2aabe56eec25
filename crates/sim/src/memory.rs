//! Device-memory ledger and RAII buffers.
//!
//! Every intermediate a join or aggregation allocates goes through
//! [`DeviceBuffer`], so peak usage (Table 5 of the paper, and the analytic
//! model of Tables 1-2) falls out of the simulation for free. Buffers also
//! carry a fake, monotonically increasing base address so the L2 model can
//! distinguish sectors of different buffers.

use crate::{Device, Element, Fold, Lane};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// CUDA's `cudaMalloc` alignment.
const ALLOC_ALIGN: u64 = 256;

/// Snapshot of device-memory usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemReport {
    /// Bytes currently allocated.
    pub current_bytes: u64,
    /// High-water mark since creation or the last [`Device::reset_peak_mem`].
    pub peak_bytes: u64,
    /// Number of live allocations.
    pub live_allocations: u64,
}

/// Why a [`MemLedger::try_alloc`] could not be satisfied; the caller turns
/// this into the appropriate failure (device OOM panic or typed
/// [`crate::BudgetError`]).
pub(crate) struct AllocFailure {
    /// Requested bytes after alignment rounding.
    pub(crate) requested_bytes: u64,
    /// Bytes the ledger already had in use.
    pub(crate) in_use_bytes: u64,
}

#[derive(Default, Clone)]
pub(crate) struct MemLedger {
    next_addr: u64,
    current: u64,
    peak: u64,
    live: u64,
}

impl MemLedger {
    /// A ledger whose address space starts at `base` — per-query sub-ledgers
    /// all start at [`crate::QUERY_ADDR_BASE`], disjoint from the base
    /// ledger's low addresses but deliberately identical to each other.
    pub(crate) fn with_base(base: u64) -> Self {
        MemLedger {
            next_addr: base,
            ..MemLedger::default()
        }
    }

    /// Reserve `bytes` if they fit in `capacity`, returning the base
    /// address. A rejection leaves the ledger untouched (an unwound join
    /// must balance back to zero).
    pub(crate) fn try_alloc(&mut self, bytes: u64, capacity: u64) -> Result<u64, AllocFailure> {
        let rounded = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        if self.current + rounded > capacity {
            return Err(AllocFailure {
                requested_bytes: rounded,
                in_use_bytes: self.current,
            });
        }
        // Zero-byte allocations charge nothing and are not counted live
        // (`DeviceBuffer`'s drop skips them), but still receive a distinct
        // address range.
        if rounded > 0 {
            self.current += rounded;
            self.live += 1;
            self.peak = self.peak.max(self.current);
        }
        let addr = self.next_addr;
        self.next_addr += rounded.max(ALLOC_ALIGN);
        Ok(addr)
    }

    /// Credit a charged (non-zero) allocation back.
    pub(crate) fn free(&mut self, bytes: u64) {
        debug_assert!(bytes > 0, "zero-byte allocations were never counted live");
        let rounded = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.current = self.current.saturating_sub(rounded);
        self.live = self.live.saturating_sub(1);
    }

    pub(crate) fn reset_peak(&mut self) {
        self.peak = self.current;
    }

    pub(crate) fn report(&self) -> MemReport {
        MemReport {
            current_bytes: self.current,
            peak_bytes: self.peak,
            live_allocations: self.live,
        }
    }
}

/// One charge on a lane's memory ledger: a simulated address range that is
/// credited back on drop. It owns no host memory. Every [`DeviceBuffer`]
/// holds one; [`Device::reserve`] hands out a bare one for memory the
/// simulation accounts for but never reads or writes (the joins' output
/// reservation).
#[derive(Debug)]
pub struct Reservation {
    base_addr: u64,
    /// Bytes charged to the ledger at construction (before alignment
    /// rounding); zero for aliasing views and empty ranges, which never
    /// entered the ledger.
    charged_bytes: u64,
    label: &'static str,
    dev: Device,
}

impl Reservation {
    pub(crate) fn new(dev: Device, bytes: u64, label: &'static str) -> Self {
        let mut st = dev.lock();
        let lane = st.lane(dev.query);
        let capacity = lane.capacity;
        let base_addr = match lane.mem.try_alloc(bytes, capacity) {
            Ok(addr) => addr,
            Err(f) => match dev.query {
                None => panic!(
                    "device out of memory allocating {bytes} bytes for '{label}': \
                     {} in use of {capacity} capacity",
                    f.in_use_bytes + f.requested_bytes
                ),
                // Exceeding a query's budget raises a *typed* panic that a
                // scheduler can catch and convert, leaving co-tenants
                // untouched — the base ledger and every other query's
                // sub-ledger never move.
                Some(query) => {
                    let err = crate::BudgetError {
                        query,
                        budget_bytes: capacity,
                        requested_bytes: f.requested_bytes,
                        in_use_bytes: f.in_use_bytes,
                        label: label.to_string(),
                    };
                    drop(st);
                    // resume_unwind rather than panic_any: budget overruns
                    // are typed control flow the scheduler catches per
                    // tenant, not programmer errors — skip the default
                    // panic hook's stderr noise.
                    std::panic::resume_unwind(Box::new(err));
                }
            },
        };
        st.emit(dev.query, Fold::BaseLane, Lane::mem_sample);
        drop(st);
        Reservation {
            base_addr,
            charged_bytes: bytes,
            label,
            dev,
        }
    }

    /// Simulated device address of the range's first byte.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// The same address range and charge, held for the lane of `dev` when
    /// this one is held for a query lane (see [`DeviceBuffer::rebind`]);
    /// a base-lane range keeps its handle.
    fn rebind(&self, dev: &Device) -> Reservation {
        let dev = match self.dev.query {
            Some(_) => Device {
                planning: self.dev.planning,
                ..dev.clone()
            },
            None => self.dev.clone(),
        };
        Reservation {
            base_addr: self.base_addr,
            charged_bytes: self.charged_bytes,
            label: self.label,
            dev,
        }
    }

    /// The same address range with no charge of its own.
    fn view(&self) -> Reservation {
        Reservation {
            base_addr: self.base_addr,
            charged_bytes: 0,
            label: self.label,
            dev: self.dev.clone(),
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.charged_bytes == 0 {
            return;
        }
        let mut st = self.dev.lock();
        // A query's charge that outlived its session has nowhere to credit.
        let Some(lane) = st.try_lane(self.dev.query) else {
            return;
        };
        lane.mem.free(self.charged_bytes);
        st.emit(self.dev.query, Fold::BaseLane, Lane::mem_sample);
    }
}

/// A typed allocation in simulated device memory.
///
/// Dereferences to a slice for host-side algorithm execution; the memory
/// ledger is charged on construction and credited on drop. The buffer's
/// *simulated address* ([`DeviceBuffer::addr_of`]) feeds the coalescing and
/// L2 models.
///
/// The host vector is shared between a buffer and its
/// [aliases](DeviceBuffer::alias) and is copy-on-write: the first mutable
/// borrow of a shared vector gives that handle a private copy, so the other
/// handles keep reading what they were given.
pub struct DeviceBuffer<T: Element> {
    data: Arc<Vec<T>>,
    mem: Reservation,
}

impl<T: Element> DeviceBuffer<T> {
    pub(crate) fn from_vec(dev: Device, data: Vec<T>, label: &'static str) -> Self {
        Self::from_shared(dev, Arc::new(data), label)
    }

    pub(crate) fn from_shared(dev: Device, data: Arc<Vec<T>>, label: &'static str) -> Self {
        let mem = Reservation::new(dev, data.len() as u64 * T::SIZE, label);
        DeviceBuffer { data, mem }
    }

    pub(crate) fn zeroed(dev: Device, len: usize, label: &'static str) -> Self {
        Self::from_vec(dev, vec![T::default(); len], label)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes as charged to the ledger (before alignment rounding).
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64 * T::SIZE
    }

    /// Simulated device address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.mem.base_addr + i as u64 * T::SIZE
    }

    /// The label given at allocation time (for debugging OOMs).
    pub fn label(&self) -> &'static str {
        self.mem.label
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> &Device {
        &self.mem.dev
    }

    /// View as a host slice (the simulator executes on the host).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable host view. If the host vector is shared with an alias this
    /// copies it first (copy-on-write), so the check costs one atomic
    /// operation per borrow: loops take the slice once, outside.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume the buffer, returning the host vector (copied only if an
    /// alias still shares it). The ledger is credited as if the buffer were
    /// freed.
    pub fn into_vec(self) -> Vec<T> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// This buffer as the query of `dev` holds it once
    /// [`Device::sched_install`] gave that query the lane this buffer's
    /// query left: the same host vector, simulated range and ledger charge,
    /// credited to `dev`'s lane on drop. A buffer of the base lane (an
    /// alias of a resident column) keeps its handle. No charge, traffic or
    /// copy.
    pub fn rebind(&self, dev: &Device) -> DeviceBuffer<T> {
        DeviceBuffer {
            data: Arc::clone(&self.data),
            mem: self.mem.rebind(dev),
        }
    }

    /// A zero-cost aliasing view: the same simulated address range and the
    /// same host vector, no additional ledger charge, no kernel traffic, no
    /// copy. This models passing a column pointer between operators.
    /// Mutating either handle afterwards is copy-on-write on the host and
    /// leaves the other's contents unchanged; the simulated address range
    /// stays common to both.
    pub fn alias(&self) -> DeviceBuffer<T> {
        DeviceBuffer {
            data: Arc::clone(&self.data),
            mem: self.mem.view(),
        }
    }
}

impl<T: Element> std::ops::Deref for DeviceBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Element> std::ops::DerefMut for DeviceBuffer<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Element> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("label", &self.mem.label)
            .field("len", &self.data.len())
            .field("base_addr", &self.mem.base_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::MemReport;
    use crate::trace::MemEvent;
    use crate::{BudgetError, Device, DeviceConfig, SchedPolicy};

    #[test]
    fn ledger_tracks_current_and_peak() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(1024, "a");
        let r1 = dev.mem_report();
        assert_eq!(r1.current_bytes, 4096);
        assert_eq!(r1.live_allocations, 1);
        {
            let _b = dev.alloc::<i64>(1024, "b");
            let r2 = dev.mem_report();
            assert_eq!(r2.current_bytes, 4096 + 8192);
            assert_eq!(r2.peak_bytes, 4096 + 8192);
        }
        let r3 = dev.mem_report();
        assert_eq!(r3.current_bytes, 4096);
        assert_eq!(r3.peak_bytes, 4096 + 8192, "peak survives frees");
        drop(a);
        assert_eq!(dev.mem_report().current_bytes, 0);
        assert_eq!(dev.mem_report().live_allocations, 0);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let dev = Device::a100();
        {
            let _a = dev.alloc::<i64>(1 << 20, "a");
        }
        assert!(dev.mem_report().peak_bytes > 0);
        dev.reset_peak_mem();
        assert_eq!(dev.mem_report().peak_bytes, 0);
    }

    #[test]
    fn addresses_are_disjoint_and_typed() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(16, "a");
        let b = dev.alloc::<i64>(16, "b");
        assert_eq!(a.addr_of(1) - a.addr_of(0), 4);
        assert_eq!(b.addr_of(1) - b.addr_of(0), 8);
        // Buffers never overlap.
        assert!(a.addr_of(15) < b.addr_of(0) || b.addr_of(15) < a.addr_of(0));
    }

    #[test]
    fn alias_drop_leaves_ledger_untouched() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(1024, "a");
        let before = dev.mem_report();
        assert_eq!(before.live_allocations, 1);
        {
            let view = a.alias();
            // The alias shares the address range and charges nothing.
            assert_eq!(view.addr_of(0), a.addr_of(0));
            assert_eq!(dev.mem_report(), before);
        }
        // Regression: dropping the alias used to decrement live_allocations.
        assert_eq!(dev.mem_report(), before);
        drop(a);
        assert_eq!(dev.mem_report().live_allocations, 0);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }

    #[test]
    fn mutating_one_alias_leaves_the_other_unchanged() {
        let dev = Device::a100();
        let mut a = dev.upload(vec![1i32, 2, 3], "a");
        let mut view = a.alias();
        let held = dev.mem_report();
        // Mutate through the owner first, then through the alias: each
        // write lands in that handle only.
        a.as_mut_slice()[0] = 10;
        assert_eq!(
            (a.as_slice(), view.as_slice()),
            (&[10, 2, 3][..], &[1, 2, 3][..])
        );
        view[1] = 20;
        assert_eq!(
            (a.as_slice(), view.as_slice()),
            (&[10, 2, 3][..], &[1, 20, 3][..])
        );
        // The simulated side never moved: one address range, one charge.
        assert_eq!(view.addr_of(2), a.addr_of(2));
        assert_eq!(dev.mem_report(), held);
        assert_eq!((held.current_bytes, held.live_allocations), (256, 1));
        assert_eq!(view.into_vec(), vec![1, 20, 3]);
        assert_eq!(a.into_vec(), vec![10, 2, 3]);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }

    #[test]
    fn alias_and_owner_drop_in_either_order() {
        let dev = Device::a100();
        for owner_first in [true, false] {
            let a = dev.upload(vec![7i64; 100], "a");
            let view = a.alias();
            let held = dev.mem_report();
            if owner_first {
                // The charge goes with the owner; the alias keeps the data.
                drop(a);
                assert_eq!(dev.mem_report().current_bytes, 0);
                assert_eq!(view.as_slice(), &[7i64; 100][..]);
                drop(view);
            } else {
                drop(view);
                assert_eq!(dev.mem_report(), held);
                assert_eq!(a.into_vec(), vec![7i64; 100]);
            }
            let after = dev.mem_report();
            assert_eq!((after.current_bytes, after.live_allocations), (0, 0));
            assert_eq!(after.peak_bytes, held.peak_bytes);
        }
    }

    /// One charge seen from outside: the report while it is held, the
    /// address the next allocation gets, the report once it is released,
    /// and the traced ledger timeline.
    fn ledger_view<G>(hold: impl Fn(&Device) -> G) -> (MemReport, u64, MemReport, Vec<MemEvent>) {
        let dev = Device::a100();
        dev.enable_tracing();
        let _resident = dev.alloc::<i32>(100, "resident");
        dev.kernel("k").items(32, 1.0).launch();
        let guard = hold(&dev);
        let held = dev.mem_report();
        let next = dev.alloc::<u8>(1, "next").addr_of(0);
        dev.kernel("k").items(32, 1.0).launch();
        drop(guard);
        let released = dev.mem_report();
        let trace = dev.take_trace().unwrap();
        (held, next, released, trace.mem_samples().cloned().collect())
    }

    #[test]
    fn reserve_charges_the_ledger_exactly_like_alloc() {
        // Empty, sub-alignment, exactly aligned, large.
        for n in [0usize, 3, 32, (1 << 20) + 1] {
            let reserved = ledger_view(|d| d.reserve(n as u64 * 8, "x"));
            assert_eq!(reserved, ledger_view(|d| d.alloc::<i64>(n, "x")), "n={n}");
            assert!(reserved.3.len() >= 2, "n={n}: the timeline was traced");
        }
    }

    /// The typed error a query handle raises when `over` exceeds its budget.
    fn budget_error_of<G>(over: impl Fn(&Device) -> G) -> String {
        let mut cfg = DeviceConfig::a100();
        cfg.global_mem_bytes = 1 << 20;
        let dev = Device::new(cfg);
        dev.sched_start(SchedPolicy::Serial, None);
        let q = dev.sched_register(1.0, 1 << 19).unwrap();
        let mut seen = String::new();
        dev.sched_run(|_| {
            let _kept = q.alloc::<u8>(1000, "kept");
            let before = q.mem_report();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| over(&q)));
            let Err(payload) = unwound else {
                panic!("the charge fit the budget");
            };
            let err = payload.downcast::<BudgetError>().unwrap();
            assert_eq!(q.mem_report(), before, "a refused charge leaves no trace");
            seen = format!("{err:?}");
        });
        seen
    }

    #[test]
    fn reserve_over_budget_raises_the_same_budget_error_as_alloc() {
        let reserved = budget_error_of(|q| q.reserve((1 << 19) - 7, "big"));
        assert_eq!(
            reserved,
            budget_error_of(|q| q.alloc::<u8>((1 << 19) - 7, "big"))
        );
        assert!(
            reserved.contains("requested_bytes: 524288, in_use_bytes: 1024"),
            "{reserved}"
        );
    }

    #[test]
    fn zero_length_buffers_balance() {
        let dev = Device::a100();
        {
            let empty = dev.alloc::<i32>(0, "empty");
            assert!(empty.is_empty());
            // Nothing charged, nothing counted live.
            assert_eq!(dev.mem_report().live_allocations, 0);
            assert_eq!(dev.mem_report().current_bytes, 0);
        }
        assert_eq!(dev.mem_report().live_allocations, 0);
    }

    #[test]
    fn alignment_rounds_small_allocations_up() {
        let dev = Device::a100();
        let _a = dev.alloc::<i32>(1, "tiny");
        assert_eq!(dev.mem_report().current_bytes, 256);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn oom_panics() {
        let mut cfg = DeviceConfig::a100();
        cfg.global_mem_bytes = 1024;
        let dev = Device::new(cfg);
        let _a = dev.alloc::<i64>(1024, "too big");
    }

    #[test]
    fn upload_and_into_vec_roundtrip() {
        let dev = Device::a100();
        let buf = dev.upload(vec![3i32, 1, 2], "v");
        assert_eq!(buf.as_slice(), &[3, 1, 2]);
        let v = buf.into_vec();
        assert_eq!(v, vec![3, 1, 2]);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }
}
