//! Run TPC-H-shaped query plans end to end on the simulated GPU through the
//! `engine` crate: scan → filter → join → aggregate, with the join
//! implementation chosen by the paper's Figure 18 decision tree, and a
//! per-node simulated-time breakdown.
//!
//! ```text
//! cargo run --release --example query_engine [orders]
//! ```

use gpu_join::engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use gpu_join::engine::execute;
use gpu_join::prelude::*;

fn main() {
    let orders: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1 << 18);
    // Paper-regime scaled device (see quickstart.rs).
    let dev = Device::new(DeviceConfig::a100().scaled(64.0));
    let catalog = tpch_mini(&dev, orders, 2026);
    println!(
        "catalog: {} orders, ~{} lineitems, {} customers\n",
        orders,
        orders * 4,
        (orders / 10).max(1)
    );

    for (name, plan) in [
        ("Q1-like (filter + group by)", q1_like()),
        ("Q3-like (two joins + group by)", q3_like()),
        ("Q18-like (join + group by + having)", q18_like()),
    ] {
        let out = execute(&dev, &catalog, &plan).expect("demo plans bind");
        println!("=== {name} ===");
        println!(
            "{} rows out in {} simulated device time",
            out.table.num_rows(),
            out.stats.total_time()
        );
        print!("{}", out.stats.render());
        println!();
    }
}
