//! Figure 7: clustered vs unclustered GATHER efficiency *including* the
//! extra transformation cost — the core bet of the GFTR pattern. Three
//! bars per device: the unclustered gather alone (what *-UM pays), sort +
//! clustered gather (SMJ-OM), and partition + clustered gather (PHJ-OM).

use crate::{mtps, Claim, Report, Session};
use primitives::{gather, radix_partition, sort_pairs};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim::{Device, DeviceConfig};

fn bars(dev: &Device, n: usize) -> Vec<(String, f64)> {
    let keys: Vec<i32> = {
        let mut k: Vec<i32> = (0..n as i32).collect();
        k.shuffle(&mut rand::rngs::StdRng::seed_from_u64(7));
        k
    };
    let payload: Vec<i32> = keys.iter().map(|&k| k * 3).collect();

    let mut out = Vec::new();

    // *-UM: the map is an unsorted-ID permutation; only the gather runs.
    {
        let src = dev.upload(payload.clone(), "f7.src");
        let mut map: Vec<u32> = (0..n as u32).collect();
        map.shuffle(&mut rand::rngs::StdRng::seed_from_u64(8));
        let map = dev.upload(map, "f7.map");
        dev.reset_stats();
        dev.flush_l2();
        let _ = gather(dev, &src, &map);
        out.push(("unclustered (*-UM)".to_string(), mtps(n, dev.elapsed())));
    }
    // SMJ-OM: sort (key, payload), then a clustered gather.
    {
        let kb = dev.upload(keys.clone(), "f7.k");
        let vb = dev.upload(payload.clone(), "f7.v");
        dev.reset_stats();
        dev.flush_l2();
        let (_, sorted) = sort_pairs(dev, &kb, &vb);
        let map = dev.upload((0..n as u32).collect::<Vec<_>>(), "f7.cmap");
        let _ = gather(dev, &sorted, &map);
        out.push((
            "sort + clustered (SMJ-OM)".to_string(),
            mtps(n, dev.elapsed()),
        ));
    }
    // PHJ-OM: two-pass radix partition, then a clustered gather.
    {
        let kb = dev.upload(keys, "f7.k");
        let vb = dev.upload(payload, "f7.v");
        dev.reset_stats();
        dev.flush_l2();
        let p = radix_partition(dev, &kb, &vb, 16);
        let map = dev.upload((0..n as u32).collect::<Vec<_>>(), "f7.cmap");
        let _ = gather(dev, &p.vals, &map);
        out.push((
            "partition + clustered (PHJ-OM)".to_string(),
            mtps(n, dev.elapsed()),
        ));
    }
    out
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "fig07",
        "Clustered GATHER with transformation cost vs unclustered GATHER",
        session,
    );
    let n = session.tuples();
    let f = session.regime_factor();
    let a100 = bars(&Device::new(DeviceConfig::a100().scaled(f)), n);
    let r3090 = bars(&Device::new(DeviceConfig::rtx3090().scaled(f)), n);
    for ((label, a), (_, r)) in a100.iter().zip(&r3090) {
        report.push(serde_json::json!({
            "configuration": label, "a100_mtps": a, "rtx3090_mtps": r,
        }));
    }

    let speedup = |bars: &[(String, f64)], i: usize| bars[i].1 / bars[0].1;
    let partition = speedup(&a100, 2);
    report.claim(
        Claim::new("partition_clustered_speedup_a100", partition)
            .near(1.79, 0.25)
            .says(format!(
                "partition+clustered beats the unclustered gather {partition:.2}x on A100 / \
                 {:.2}x on RTX 3090 (paper: 1.79x / 2.2x)",
                speedup(&r3090, 2)
            )),
    );
    let sort = speedup(&a100, 1);
    report.claim(
        Claim::new("sort_clustered_speedup_a100", sort)
            .near(1.23, 0.15)
            .says(format!(
                "sort+clustered beats it {sort:.2}x on A100 / {:.2}x on RTX 3090 (paper: 1.23x \
                 / 1.37x)",
                speedup(&r3090, 1)
            )),
    );
    report
}
