//! Figure 15: effect of data types — 4-byte vs 8-byte keys and payloads.
//! Wider payloads make GFTR's extra transformation passes more expensive
//! (SMJ-OM loses its edge); PHJ-OM keeps winning because partitioning needs
//! half the passes of sorting.

use crate::exp::{breakdown_row, run_algorithms, total_of};
use crate::{Claim, Report, Session};
use columnar::DType;
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig15", "Effect of data types", session);
    let dev = session.device();
    let n = session.tuples();
    let mut phj_om_wins_everywhere = true;
    for (key, payload, label, name) in [
        (DType::I32, DType::I32, "4B key + 4B payload", "4b4b"),
        (DType::I32, DType::I64, "4B key + 8B payload", "4b8b"),
        (DType::I64, DType::I64, "8B key + 8B payload", "8b8b"),
    ] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            key_type: key,
            r_payloads: vec![payload; 2],
            s_payloads: vec![payload; 2],
            ..JoinWorkload::narrow(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        for (alg, stats) in &results {
            let mut row = breakdown_row(alg.name(), stats);
            row["types"] = serde_json::json!(label);
            report.push(row);
        }
        let best = results
            .iter()
            .min_by(|a, b| a.1.phases.total().partial_cmp(&b.1.phases.total()).unwrap())
            .unwrap()
            .0;
        if best != Algorithm::PhjOm {
            phj_om_wins_everywhere = false;
        }
        if payload == DType::I64 {
            let smj_gap =
                total_of(&results, Algorithm::SmjUm) / total_of(&results, Algorithm::SmjOm);
            report.claim(
                Claim::new(&format!("smj_om_edge_{name}"), smj_gap)
                    .band(0.0, 1.1)
                    .says(format!(
                        "{label}: SMJ-OM's edge over SMJ-UM shrinks to {smj_gap:.2}x (paper: the \
                         8-byte sorting cost erodes it)"
                    )),
            );
        }
    }
    report.claim(
        Claim::yes_no("phj_om_fastest_every_type", phj_om_wins_everywhere)
            .paper(1.0)
            .band(1.0, 1.0)
            .says(format!(
                "PHJ-OM is the fastest for every type combination: {phj_om_wins_everywhere} \
                 (paper: yes)"
            )),
    );
    report
}
