//! Table 4: micro-architectural comparison between unclustered and
//! clustered GATHERs — cycles, warp instructions, DRAM reads, and sectors
//! per load request, straight from the simulator's Nsight-style counters.

use crate::{Claim, Report, Session};
use primitives::gather;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "table04",
        "Micro-architectural comparison between unclustered and clustered GATHERs",
        session,
    );
    let dev = session.device();
    let n = session.tuples();
    let src = dev.upload((0..n as i32).collect::<Vec<_>>(), "t4.src");

    let mut unclustered_map: Vec<u32> = (0..n as u32).collect();
    unclustered_map.shuffle(&mut rand::rngs::StdRng::seed_from_u64(4));
    let measure = |map: Vec<u32>, label: &str| {
        let map = dev.upload(map, "t4.map");
        dev.reset_stats();
        dev.flush_l2();
        let _ = gather(&dev, &src, &map);
        let c = dev.counters();
        let t = dev.elapsed();
        serde_json::json!({
            "case": label,
            "items": n,
            "total_cycles": c.cycles,
            "warp_instructions": c.warp_instructions,
            "cycles_per_warp_instruction": c.cycles_per_warp_instruction(),
            "memory_reads_bytes": c.dram_read_bytes,
            "sectors_per_load_request": c.sectors_per_request(),
            "l2_hit_rate": c.l2_hit_rate(),
            "time_s": t.secs(),
        })
    };

    let unclustered = measure(unclustered_map, "unclustered");
    let clustered = measure((0..n as u32).collect(), "clustered");

    let ratio = |key: &str| unclustered[key].as_f64().unwrap() / clustered[key].as_f64().unwrap();
    let cycle_ratio = ratio("total_cycles");
    report.claim(
        Claim::new("cycles_ratio", cycle_ratio)
            .near(8.5, 0.25)
            .says(format!(
                "unclustered gather is {cycle_ratio:.1}x slower in cycles (paper: ~8.5x)"
            )),
    );
    let read_ratio = ratio("memory_reads_bytes");
    report.claim(
        Claim::new("dram_read_ratio", read_ratio)
            .near(3.0, 0.25)
            .says(format!(
                "unclustered gather reads {read_ratio:.1}x more DRAM bytes (paper: 3x — 4.5 GB \
                 vs 1.5 GB)"
            )),
    );
    let sectors = |v: &serde_json::Value| v["sectors_per_load_request"].as_f64().unwrap();
    let clustered_sectors = sectors(&clustered);
    report.claim(
        Claim::new("clustered_sectors_per_request", clustered_sectors)
            .near(6.0, 0.25)
            .says(format!(
                "sectors per load request: {:.0} vs {clustered_sectors:.0} (paper: 18 vs 6)",
                sectors(&unclustered)
            )),
    );
    report.push(unclustered);
    report.push(clustered);
    report
}
