//! Sequences of joins over a star schema (the Figure 16 experiment shape):
//! a fact table with N foreign keys joined against N dimension tables,
//! materializing one more dimension payload at every step.
//!
//! ```text
//! cargo run --release --example star_schema_pipeline [num_joins]
//! ```

use gpu_join::prelude::*;
use gpu_join::workloads::star::star_schema;

fn main() {
    let num_joins: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    // Paper-regime scaled A100 (see quickstart.rs).
    let dev = Device::new(DeviceConfig::a100().scaled(128.0));

    let fact_rows = 1 << 20;
    let dim_rows = 1 << 18;
    let (fact, dims) = star_schema(&dev, fact_rows, dim_rows, num_joins, 42);
    println!(
        "star schema: |F| = {} with {} FKs, |D_i| = {}\n",
        fact_rows, num_joins, dim_rows
    );

    println!(
        "{:<12} {:>12} {:>14} {:>10}",
        "algorithm", "total", "Mtuples/s", "rows out"
    );
    let input_tuples = fact_rows + num_joins * dim_rows;
    for alg in [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ] {
        let out = join_sequence(&dev, &fact, &dims, alg, &JoinConfig::default());
        println!(
            "{:<12} {:>12} {:>14.1} {:>10}",
            alg.name(),
            out.total_time().to_string(),
            input_tuples as f64 / out.total_time().secs() / 1e6,
            out.rows,
        );
        assert_eq!(out.rows, fact_rows, "100% FK match keeps all fact rows");
    }

    // Per-step cost growth for the GFTR hash join: later joins carry more
    // payload columns, so each step gets more expensive.
    let out = join_sequence(&dev, &fact, &dims, Algorithm::PhjOm, &JoinConfig::default());
    println!("\nPHJ-OM per-step breakdown:");
    for (i, step) in out.steps.iter().enumerate() {
        println!(
            "  join {}: fk fetch {:>10}, transform {:>10}, match {:>10}, materialize {:>10}",
            i + 1,
            step.fk_fetch.to_string(),
            step.join.phases.transform.to_string(),
            step.join.phases.match_find.to_string(),
            step.join.phases.materialize.to_string(),
        );
    }
}
