//! Profile: trace a join → group-by pipeline end to end on the simulated
//! clock and export the timeline for Chrome/Perfetto.
//!
//! ```text
//! cargo run --release --example profile
//! ```
//!
//! Writes `trace.json` (open at <https://ui.perfetto.dev> or
//! `chrome://tracing`) and `trace.jsonl` (one event per line, for jq), and
//! prints the engine's per-operator stats tree next to an nsys-stats-style
//! per-kernel rollup. The timeline shows the operator span on top, the
//! join/group-by algorithm spans below it, the paper's
//! transform/match/materialize phases below those, and every simulated
//! kernel launch on its own track — all on the *simulated* clock, so the
//! trace is deterministic: every run writes the same bytes.

use gpu_join::engine::{execute, AggSpec, Catalog, Plan, Table};
use gpu_join::prelude::*;
use gpu_join::sim::trace;
use gpu_join::workloads::JoinWorkload;

/// A relation as an engine table: key `k`, payloads `{prefix}0`, `{prefix}1`, ...
fn table_of(rel: &Relation, name: &str, prefix: &str) -> Table {
    let mut cols = vec![("k".to_string(), rel.key().alias())];
    for (i, c) in rel.payloads().iter().enumerate() {
        cols.push((format!("{prefix}{i}"), c.alias()));
    }
    Table::from_columns(name, cols)
}

fn main() {
    // Same paper-regime scaling as the quickstart: demo at 2^20 tuples
    // with capacity parameters shrunk 2^7 so the data:cache ratio matches
    // the paper's 2^27-tuple headline runs.
    let dev = Device::new(DeviceConfig::a100().scaled(128.0));
    dev.enable_tracing();

    let workload = JoinWorkload::wide(1 << 20);
    let (r, s) = workload.generate(&dev);
    println!(
        "profiling PHJ-UM join + SORT-OM group-by over R={} S={} tuples\n",
        r.len(),
        s.len()
    );

    // Join R ⋈ S with the paper's out-of-place radix join, then group the
    // join output by its key and SUM every payload column.
    let mut catalog = Catalog::new();
    catalog.insert(table_of(&r, "r", "r"));
    catalog.insert(table_of(&s, "s", "s"));
    let aggs = ["r0", "r1", "s0", "s1"]
        .into_iter()
        .map(|c| AggSpec::new(AggFn::Sum, c, format!("sum_{c}")))
        .collect();
    let plan = Plan::scan("r")
        .join(Plan::scan("s"), "k", "k")
        .with_join_algorithm(Algorithm::PhjUm)
        .aggregate("k", aggs)
        .with_group_algorithm(GroupByAlgorithm::SortGftr);
    let out = execute(&dev, &catalog, &plan).expect("the plan binds against its catalog");
    println!(
        "join produced {} rows, aggregation {} groups in {} simulated\n",
        out.stats.children[0].rows(),
        out.table.num_rows(),
        out.stats.total_time()
    );

    // The engine's per-operator stats tree ...
    println!("== operator tree ==");
    print!("{}", out.stats.render());

    // ... and the trace-derived per-kernel rollup, nsys-stats style.
    let traces: Vec<trace::Trace> = dev.trace_snapshot().into_iter().collect();
    println!("\n== kernel summary ==");
    print!("{}", trace::render_kernel_summary(&traces));

    std::fs::write("trace.json", trace::chrome_trace_json(&traces)).expect("write trace.json");
    std::fs::write("trace.jsonl", trace::jsonl(&traces)).expect("write trace.jsonl");
    println!("\nwrote trace.json (chrome://tracing, ui.perfetto.dev) and trace.jsonl");
}
