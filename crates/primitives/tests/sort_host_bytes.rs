//! SORT-PAIRS holds host data for its result only: the host orders the
//! pairs in two ping-pong arrays, and every intermediate device pass is a
//! bare ledger reservation. Executed pass by pass, each of the eight passes
//! of an 8-byte key allocated its own output on the host.
//!
//! One test per file: see `sim/tests/support/byte_counting.rs`.

#[path = "../../sim/tests/support/byte_counting.rs"]
mod byte_counting;

use byte_counting::host_bytes;
use primitives::sort_pairs;
use sim::Device;

#[test]
fn sort_pairs_allocates_under_half_the_pass_by_pass_host_bytes() {
    const N: usize = 1 << 16;
    /// Pass by pass, each of the eight passes of an i64 key allocated a
    /// 12 * N byte output (8-byte keys, 4-byte values): 96 * N bytes.
    const PASS_BY_PASS: usize = 8 * 12 * N;
    let dev = Device::a100();
    // Full-width keys, so the host skips no digit.
    let keys: Vec<i64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64)
        .collect();
    let kb = dev.upload(keys.clone(), "h.keys");
    let vb = dev.upload((0..N as u32).collect::<Vec<_>>(), "h.vals");

    let (allocated, (sk, sv)) = host_bytes(|| sort_pairs(&dev, &kb, &vb));
    assert!(
        allocated < PASS_BY_PASS / 2,
        "sort_pairs allocated {allocated} host bytes, pass by pass took {PASS_BY_PASS}"
    );
    let mut expected: Vec<(i64, u32)> = keys.into_iter().zip(0..).collect();
    expected.sort_by_key(|&(k, _)| k);
    let got: Vec<(i64, u32)> = sk.iter().copied().zip(sv.iter().copied()).collect();
    assert_eq!(got, expected);
}
