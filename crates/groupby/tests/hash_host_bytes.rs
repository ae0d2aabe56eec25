//! HASH group finding keeps its table's keys in simulated memory only:
//! `hash_gb.keys` is charged to the ledger and its slot addresses feed the
//! L2 model, but the host never reads or writes its contents, so it is a
//! `Device::reserve` with no host vector behind it.
//!
//! One test per file: see `sim/tests/support/byte_counting.rs`.

#[path = "../../sim/tests/support/byte_counting.rs"]
mod byte_counting;

use byte_counting::host_bytes;
use columnar::{Column, Relation};
use groupby::{hash::hash_groupby, AggFn, GroupByConfig};
use sim::Device;

#[test]
fn hash_groupby_holds_no_host_copy_of_its_table_keys() {
    const N: usize = 1 << 16;
    /// Host bytes this call allocated at commit 96bbd0b, whose
    /// `hash_gb.keys` was a zeroed host buffer.
    const WITH_HOST_TABLE: usize = 1_999_072;
    /// `hash_gb.keys`: `(2N).next_power_of_two()` u64 slots.
    const TABLE: usize = 2 * N * 8;
    let dev = Device::a100();
    let keys: Vec<i32> = (0..N as i32)
        .map(|i| i.wrapping_mul(40_503) & 4095)
        .collect();
    let input = Relation::new(
        "T",
        Column::from_i32(&dev, keys, "k"),
        vec![Column::from_i32(&dev, (0..N as i32).collect(), "v")],
    );
    let (allocated, out) =
        host_bytes(|| hash_groupby(&dev, &input, &[AggFn::Sum], &GroupByConfig::default()));
    assert!(
        allocated <= WITH_HOST_TABLE - TABLE,
        "hash_groupby allocated {allocated} host bytes; with a host table it took {WITH_HOST_TABLE}"
    );
    assert_eq!(out.len(), 4096);
}
