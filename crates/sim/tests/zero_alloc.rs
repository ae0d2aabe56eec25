//! Charging warp traffic must not touch the heap: `warp_loads` and
//! `warp_stores` stream addresses through a stack chunk,
//! `contiguous_loads` charges sector ranges computed on the fly, and
//! `launch()` on an untraced, unmetered device only bumps counters.
//!
//! This file holds a single test on purpose — the counting allocator is
//! process-wide, and although it only counts the thread that asked, a lone
//! test keeps the harness quiet while it runs.

use sim::Device;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the thread whose allocations are being counted. Const-
    /// initialized and without a destructor, so reading it inside the
    /// allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warp_traffic_and_launch_do_not_allocate() {
    const N: usize = 1 << 16;
    let dev = Device::a100();
    let buf = dev.alloc::<i32>(N * 16, "z.buf");
    let scattered = |i: usize| buf.addr_of(i.wrapping_mul(2654435761) % (N * 16));

    COUNTING.with(|c| c.set(true));
    let t = dev
        .kernel("z.scattered")
        .warp_loads(4, (0..N).map(scattered))
        .warp_stores(4, (0..N).map(|i| scattered(i + N)))
        .contiguous_loads(&buf)
        .launch();
    COUNTING.with(|c| c.set(false));

    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        0,
        "heap allocations while charging 2^17 scattered addresses and a 2^20-element range"
    );
    assert!(t.secs() > 0.0);
    assert_eq!(
        dev.counters().load_requests,
        2 * (N as u64 / 32) + buf.len() as u64 / 32
    );
}
