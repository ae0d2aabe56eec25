//! Table 4: micro-architectural comparison between unclustered and
//! clustered GATHERs — cycles, warp instructions, DRAM reads, and sectors
//! per load request, straight from the simulator's Nsight-style counters.

use crate::{Report, Session};
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
    println!(
        "Table 4 — gathering {} 4-byte items on {}\n",
        n, report.device
    );

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

    println!("{:<36} {:>16} {:>16}", "metric", "unclustered", "clustered");
    for (key, fmt) in [
        ("items", "%d"),
        ("total_cycles", "%.0f"),
        ("warp_instructions", "%d"),
        ("cycles_per_warp_instruction", "%.2f"),
        ("memory_reads_bytes", "%d"),
        ("sectors_per_load_request", "%.1f"),
        ("l2_hit_rate", "%.3f"),
    ] {
        let get = |v: &serde_json::Value| v[key].as_f64().unwrap_or(0.0);
        let show = |x: f64| match fmt {
            "%d" => format!("{}", x as u64),
            "%.0f" => format!("{x:.0}"),
            "%.1f" => format!("{x:.1}"),
            "%.3f" => format!("{x:.3}"),
            _ => format!("{x:.2}"),
        };
        println!(
            "{:<36} {:>16} {:>16}",
            key,
            show(get(&unclustered)),
            show(get(&clustered))
        );
    }
    println!();

    let cycle_ratio =
        unclustered["total_cycles"].as_f64().unwrap() / clustered["total_cycles"].as_f64().unwrap();
    let read_ratio = unclustered["memory_reads_bytes"].as_f64().unwrap()
        / clustered["memory_reads_bytes"].as_f64().unwrap();
    report.finding(format!(
        "unclustered gather is {cycle_ratio:.1}x slower in cycles (paper: ~8.5x)"
    ));
    report.finding(format!(
        "unclustered gather reads {read_ratio:.1}x more DRAM bytes (paper: 3x — 4.5 GB vs 1.5 GB)"
    ));
    report.finding(format!(
        "sectors per load request: {:.0} vs {:.0} (paper: 18 vs 6)",
        unclustered["sectors_per_load_request"].as_f64().unwrap(),
        clustered["sectors_per_load_request"].as_f64().unwrap()
    ));
    report.push(unclustered);
    report.push(clustered);
    report
}
