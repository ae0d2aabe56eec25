//! A byte-counting global allocator for the host-allocation tests
//! (`host_bytes.rs` here, `engine/tests/scan_host_bytes.rs`), included by
//! `#[path]`. Each of those files holds a single test: the allocator is
//! process-wide, and although it only counts the thread that asked, a lone
//! test keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the thread whose allocations are being counted. Const-
    /// initialized and without a destructor, so reading it inside the
    /// allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static BYTES: AtomicUsize = AtomicUsize::new(0);

struct ByteCountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
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
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAllocator = ByteCountingAllocator;

/// Host bytes `f` asks the allocator for on this thread.
pub fn host_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (BYTES.load(Ordering::Relaxed) - before, out)
}
