//! Quickstart: run the same PK-FK join with all four GPU implementations
//! and the two baselines, and print the per-phase time breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;

fn main() {
    // Paper-regime scaling: the study's headline runs join 2^27 tuples
    // against a 40 MB L2; demoing at 2^20 tuples, we shrink the device's
    // capacity parameters by 2^7 so the data:cache ratio (and therefore the
    // GFUR-vs-GFTR picture) matches the paper. Use `Device::a100()` for
    // the real hardware parameters.
    let dev = Device::new(DeviceConfig::a100().scaled(128.0));

    // A wide join in the paper's default shape: |S| = 2|R|, two 4-byte
    // payload columns per relation, 100% match ratio.
    let workload = JoinWorkload::wide(1 << 20);
    let (r, s) = workload.generate(&dev);
    println!(
        "R: {} tuples x {} payload cols, S: {} tuples x {} payload cols ({:.1} MB total)\n",
        r.len(),
        r.num_payloads(),
        s.len(),
        s.num_payloads(),
        workload.total_bytes() as f64 / 1e6,
    );

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "algorithm", "transform", "match", "materialize", "total", "Mtuples/s"
    );
    for alg in [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
        Algorithm::Nphj,
        Algorithm::CpuRadix,
    ] {
        let out = run_join(&dev, alg, &r, &s, &JoinConfig::default());
        let p = out.stats.phases;
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>14.1}",
            alg.name(),
            p.transform.to_string(),
            p.match_find.to_string(),
            p.materialize.to_string(),
            p.total().to_string(),
            out.stats.throughput_tuples(workload.total_tuples()) / 1e6,
        );
        assert_eq!(out.len(), s.len(), "100% match: every S tuple matches");
    }

    // What would the paper's decision tree have picked?
    let profile = profile_of(&r, &s, 1.0, 0.0, dev.config().l2_bytes);
    let rec = choose_join(&profile);
    println!(
        "\ndecision tree picks {} — {}",
        rec.algorithm, rec.rationale
    );
}
