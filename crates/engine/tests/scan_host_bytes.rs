//! A `Scan` hands its table's columns on as aliases, so executing one must
//! not copy the table on the host: it allocates fewer host bytes than the
//! table holds (before zero-copy aliases it allocated all of them).
//!
//! One test per file: see `sim/tests/support/byte_counting.rs`.

#[path = "../../sim/tests/support/byte_counting.rs"]
mod byte_counting;

use byte_counting::host_bytes;
use engine::{demo, execute, Plan};
use sim::Device;

#[test]
fn scan_allocates_fewer_host_bytes_than_the_table_holds() {
    let dev = Device::a100();
    let catalog = demo::tpch_full(&dev, 1 << 14, 7);
    let lineitem = catalog.get("lineitem").unwrap();
    let table_bytes: u64 = lineitem.columns().iter().map(|(_, c)| c.size_bytes()).sum();
    let held = dev.mem_report();

    let (allocated, out) = host_bytes(|| execute(&dev, &catalog, &Plan::scan("lineitem")).unwrap());
    assert!(
        (allocated as u64) < table_bytes / 8,
        "Scan(lineitem) allocated {allocated} host bytes for a {table_bytes} byte table"
    );
    // Same rows at the same simulated addresses, nothing charged.
    assert_eq!(out.table.num_rows(), lineitem.num_rows());
    for ((_, got), (_, src)) in out.table.columns().iter().zip(lineitem.columns()) {
        assert_eq!(got.addr_of(0), src.addr_of(0));
    }
    assert_eq!(dev.mem_report(), held);
}
