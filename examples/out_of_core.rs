//! Out-of-core joins: a probe relation that does not fit device memory,
//! streamed through in chunks (`joins::chunked`), with the join
//! implementation picked by the sampling estimator + Figure 18 tree.
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use gpu_join::heuristics::estimate_profile;
use gpu_join::joins::chunked::{chunked_join, plan_chunks};
use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;

fn main() {
    // A deliberately small device: the inputs fit, but a direct join's
    // working state (output reservation + transformed columns) does not.
    let mut cfg = DeviceConfig::a100().scaled(128.0);
    cfg.global_mem_bytes = 48 << 20;
    let dev = Device::new(cfg);

    let w = JoinWorkload {
        s_tuples: 1 << 20,
        ..JoinWorkload::wide(1 << 18)
    };
    let (r, s) = w.generate(&dev);
    println!(
        "device memory: {} MB; build side {} KB; probe side {} MB\n",
        dev.config().global_mem_bytes >> 20,
        r.size_bytes() >> 10,
        s.size_bytes() >> 20,
    );

    // Statistics an optimizer would have, estimated from a 512-row sample.
    let profile = estimate_profile(&dev, &r, &s, 512);
    let rec = choose_join(&profile);
    println!(
        "estimated match ratio {:.2}, skewed: {} -> decision tree picks {} via \"{}\"",
        profile.match_ratio, profile.skewed, rec.algorithm, rec.guard
    );

    let plan = plan_chunks(&dev, &r, &s).expect("build side fits");
    println!(
        "chunk plan: {} chunks of {} probe rows\n",
        plan.chunks, plan.chunk_rows
    );

    let (out, plan) = chunked_join(&dev, rec.algorithm, &r, &s, &JoinConfig::default());
    println!(
        "joined {} rows in {} simulated time across {} chunks (peak {} MB of {} MB)",
        out.len(),
        out.stats.phases.total(),
        plan.chunks,
        out.stats.peak_mem_bytes >> 20,
        dev.config().global_mem_bytes >> 20,
    );
    assert_eq!(out.len(), s.len(), "100% match ratio");
    assert!(out.stats.peak_mem_bytes <= dev.config().global_mem_bytes);
}
