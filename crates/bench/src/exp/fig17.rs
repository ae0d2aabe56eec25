//! Figure 17 / Table 6: the five TPC-H / TPC-DS join extracts, run with
//! 4-byte and 8-byte key variants. The scale flag maps onto the paper's
//! SF10/SF100 row counts: `--scale 27` reproduces them 1:1, the default 22
//! runs everything at 1/32 of the paper's sizes.

use crate::exp::breakdown_row;
use crate::{Claim, Report, Session};
use columnar::DType;
use joins::Algorithm;
use workloads::tpc::{generate, TpcJoinId};

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig17", "Joins from TPC-H and TPC-DS benchmarks", session);
    let dev = session.device();
    let scale = (session.tuples() as f64 / (1u64 << 27) as f64).min(1.0);
    let mut phj_om_near_best = 0usize;
    let mut cases = 0usize;
    for key_type in [DType::I32, DType::I64] {
        for id in TpcJoinId::ALL {
            // J5's output explodes 12.5x; run it two scale steps smaller.
            let s = if id == TpcJoinId::J5 {
                scale / 4.0
            } else {
                scale
            };
            let inst = generate(&dev, id, s, key_type);
            let mut best_t = f64::INFINITY;
            let mut phj_om_t = f64::INFINITY;
            for alg in Algorithm::GPU_VARIANTS {
                let out = joins::run_join(&dev, alg, &inst.r, &inst.s, &inst.config);
                assert_eq!(out.len(), inst.expected_out, "{id}: wrong cardinality");
                let mut row = breakdown_row(alg.name(), &out.stats);
                row["join"] = serde_json::json!(inst.spec.id);
                row["key_type"] = serde_json::json!(key_type.label());
                let t = out.stats.phases.total().secs();
                best_t = best_t.min(t);
                if alg == Algorithm::PhjOm {
                    phj_om_t = t;
                }
                report.push(row);
            }
            cases += 1;
            if phj_om_t <= best_t * 1.1 {
                phj_om_near_best += 1;
            }
        }
    }
    report.claim(
        Claim::new("phj_om_near_best_cases", phj_om_near_best as f64)
            .paper(cases as f64)
            .band(cases as f64, cases as f64)
            .says(format!(
                "PHJ-OM is within 10% of the best implementation on {phj_om_near_best}/{cases} \
                 TPC join cases (paper: 'PHJ-OM performs consistently well for all evaluated \
                 joins')"
            )),
    );
    report
}
