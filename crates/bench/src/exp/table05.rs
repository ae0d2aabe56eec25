//! Table 5: peak device-memory usage per implementation per type mix —
//! the empirical counterpart of the Section 4.4 analysis. The optimized
//! (GFTR) implementations never use more memory than their GFUR
//! counterparts.

use crate::exp::run_algorithms;
use crate::{Claim, Report, Session};
use columnar::DType;
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("table05", "Memory usage", session);
    let dev = session.device();
    let n = session.tuples();
    // (key, payload) type mixes, in the rows' peak_4b4b/4b8b/8b8b order.
    let combos = [
        (DType::I32, DType::I32),
        (DType::I32, DType::I64),
        (DType::I64, DType::I64),
    ];
    let mut peaks = vec![vec![0u64; combos.len()]; Algorithm::GPU_VARIANTS.len()];
    for (ci, &(key_type, payload)) in combos.iter().enumerate() {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            key_type,
            r_payloads: vec![payload; 2],
            s_payloads: vec![payload; 2],
            ..JoinWorkload::narrow(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        for (ai, (_, stats)) in results.iter().enumerate() {
            peaks[ai][ci] = stats.peak_mem_bytes;
        }
    }
    for (ai, alg) in Algorithm::GPU_VARIANTS.iter().enumerate() {
        report.push(serde_json::json!({
            "algorithm": alg.name(),
            "peak_4b4b": peaks[ai][0],
            "peak_4b8b": peaks[ai][1],
            "peak_8b8b": peaks[ai][2],
        }));
    }

    let idx = |a: Algorithm| {
        Algorithm::GPU_VARIANTS
            .iter()
            .position(|&x| x == a)
            .unwrap()
    };
    let phj_ok = (0..combos.len())
        .all(|c| peaks[idx(Algorithm::PhjOm)][c] <= peaks[idx(Algorithm::PhjUm)][c]);
    report.claim(
        Claim::yes_no("phj_om_no_more_memory", phj_ok)
            .paper(1.0)
            .band(1.0, 1.0)
            .says(format!(
                "PHJ-OM uses no more memory than PHJ-UM in every type mix: {phj_ok} (paper: yes \
                 — the bucket pool's fragmentation costs PHJ-UM 10-20%)"
            )),
    );
    let smj_worst = (0..combos.len())
        .map(|c| peaks[idx(Algorithm::SmjOm)][c] as f64 / peaks[idx(Algorithm::SmjUm)][c] as f64)
        .fold(0.0f64, f64::max);
    // Paper: 9.5/15/18 GB vs 11/15/20 GB, so the worst mix is parity.
    report.claim(
        Claim::new("smj_om_footprint_ratio", smj_worst)
            .paper(1.0)
            .band(0.0, 1.0)
            .says(format!(
                "SMJ-OM stays within {smj_worst:.2}x of SMJ-UM's footprint across the mixes \
                 (paper: equal or lower — 9.5/15/18 GB vs 11/15/20 GB)"
            )),
    );
    report
}
