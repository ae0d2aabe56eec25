//! Handing a buffer on and reserving output memory move no host bytes:
//! `alias()` shares the host vector and `Device::reserve` owns none, so
//! both cost the same few bytes however large the simulated range is.
//!
//! One test per file: see `support/byte_counting.rs`.

#[path = "support/byte_counting.rs"]
mod byte_counting;

use byte_counting::host_bytes;
use sim::Device;

#[test]
fn alias_and_reserve_allocate_constant_host_bytes() {
    const N: usize = 1 << 20;
    /// Far below one element per thousand; a copy would be 8 MiB.
    const CONSTANT: usize = 1024;
    let dev = Device::a100();
    let buf = dev.upload((0..N as i64).collect::<Vec<_>>(), "h.buf");
    let held = dev.mem_report().current_bytes;

    let (aliased, view) = host_bytes(|| buf.alias());
    assert!(
        aliased <= CONSTANT,
        "alias() allocated {aliased} host bytes"
    );
    assert_eq!(view.as_slice().as_ptr(), buf.as_slice().as_ptr());
    assert_eq!(dev.mem_report().current_bytes, held);

    let (reserved, guard) = host_bytes(|| dev.reserve(N as u64 * 8, "h.reserved"));
    assert!(
        reserved <= CONSTANT,
        "reserve() allocated {reserved} host bytes"
    );
    assert_eq!(dev.mem_report().current_bytes, held + N as u64 * 8);

    // The yardstick: what the same charge costs when it is a buffer.
    let (allocated, _real) = host_bytes(|| dev.alloc::<i64>(N, "h.real"));
    assert!(allocated >= N * 8);
    drop(guard);
    assert_eq!(dev.mem_report().current_bytes, held + N as u64 * 8);
}
