//! Device-memory ledger and RAII buffers.
//!
//! Every intermediate a join or aggregation allocates goes through
//! [`DeviceBuffer`], so peak usage (Table 5 of the paper, and the analytic
//! model of Tables 1-2) falls out of the simulation for free. Buffers also
//! carry a fake, monotonically increasing base address so the L2 model can
//! distinguish sectors of different buffers.

use crate::{Device, Element};
use serde::{Deserialize, Serialize};

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

#[derive(Default)]
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

/// A typed allocation in simulated device memory.
///
/// Dereferences to a slice for host-side algorithm execution; the memory
/// ledger is charged on construction and credited on drop. The buffer's
/// *simulated address* ([`DeviceBuffer::addr_of`]) feeds the coalescing and
/// L2 models.
pub struct DeviceBuffer<T: Element> {
    data: Vec<T>,
    base_addr: u64,
    /// Bytes charged to the ledger at construction; freed exactly once on
    /// drop even if the data vector is moved out via [`DeviceBuffer::into_vec`].
    charged_bytes: u64,
    label: &'static str,
    dev: Device,
}

impl<T: Element> DeviceBuffer<T> {
    pub(crate) fn from_vec(dev: Device, data: Vec<T>, label: &'static str) -> Self {
        let bytes = data.len() as u64 * T::SIZE;
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
        st.note_mem(dev.query);
        drop(st);
        DeviceBuffer {
            data,
            base_addr,
            charged_bytes: bytes,
            label,
            dev,
        }
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
        self.base_addr + i as u64 * T::SIZE
    }

    /// The label given at allocation time (for debugging OOMs).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// View as a host slice (the simulator executes on the host).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable host view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the buffer, returning the host vector. The ledger is credited
    /// as if the buffer were freed.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// A zero-cost aliasing view: the same simulated address range, no
    /// additional ledger charge, no kernel traffic. This models passing a
    /// column pointer between operators (the host data is duplicated only
    /// because the simulator has no shared ownership; the device model —
    /// addresses, L2 behaviour, memory accounting — is identical). Callers
    /// must not mutate either alias afterwards.
    pub fn alias(&self) -> DeviceBuffer<T> {
        DeviceBuffer {
            data: self.data.clone(),
            base_addr: self.base_addr,
            charged_bytes: 0,
            label: self.label,
            dev: self.dev.clone(),
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
        &mut self.data
    }
}

impl<T: Element> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // Zero-charged buffers (aliasing views, empty buffers) never entered
        // the ledger: nothing to free, no timeline sample.
        if self.charged_bytes == 0 {
            return;
        }
        let mut st = self.dev.lock();
        // A query buffer that outlived its session has nowhere to credit.
        let Some(lane) = st.try_lane(self.dev.query) else {
            return;
        };
        lane.mem.free(self.charged_bytes);
        st.note_mem(self.dev.query);
    }
}

impl<T: Element> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("label", &self.label)
            .field("len", &self.data.len())
            .field("base_addr", &self.base_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

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
        let mut cfg = crate::DeviceConfig::a100();
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
