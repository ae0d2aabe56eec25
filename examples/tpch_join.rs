//! Run the paper's five TPC-H/TPC-DS join extracts (Table 6) at a reduced
//! scale, comparing all four GPU implementations and showing what the
//! decision tree would have picked.
//!
//! ```text
//! cargo run --release --example tpch_join [scale]
//! ```
//!
//! `scale` is the fraction of the paper's SF10/SF100 row counts (default
//! 0.01 — J2 then probes 600k tuples).

use gpu_join::prelude::*;
use gpu_join::workloads::tpc::{generate, TpcJoinId};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.01);
    // Paper-regime scaled A100: capacity parameters shrink with the chosen
    // fraction of the benchmark scale (see quickstart.rs).
    let dev = Device::new(DeviceConfig::a100().scaled((1.0 / scale).max(1.0)));

    for id in TpcJoinId::ALL {
        let inst = generate(&dev, id, scale, DType::I32);
        println!(
            "\n{} ({} {}): |R| = {}, |S| = {}, payloads {}+{}",
            inst.spec.id,
            inst.spec.benchmark,
            inst.spec.query,
            inst.r.len(),
            inst.s.len(),
            inst.r.num_payloads(),
            inst.s.num_payloads(),
        );
        let mut best: Option<(Algorithm, SimTime)> = None;
        for alg in Algorithm::GPU_VARIANTS {
            let out = run_join(&dev, alg, &inst.r, &inst.s, &inst.config);
            let t = out.stats.phases.total();
            println!(
                "  {:<8} {:>10}  ({} rows out)",
                alg.name(),
                t.to_string(),
                out.len()
            );
            assert_eq!(out.len(), inst.expected_out);
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((alg, t));
            }
        }
        let (best_alg, _) = best.expect("ran at least one algorithm");
        let profile = profile_of(&inst.r, &inst.s, 1.0, 0.0, dev.config().l2_bytes);
        let rec = choose_join(&profile);
        println!(
            "  measured best: {} | decision tree: {} via \"{}\"",
            best_alg.name(),
            rec.algorithm.name(),
            rec.guard
        );
    }
}
