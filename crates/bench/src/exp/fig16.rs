//! Figure 16: sequences of joins over a star schema — each join
//! materializes one more carried column than the last, so the GFTR
//! implementations pull further ahead as the pipeline deepens.

use crate::{mtps, Claim, Report, Session};
use joins::plan::join_sequence;
use joins::{Algorithm, JoinConfig};
use workloads::star::star_schema;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig16", "Sequences of joins", session);
    let dev = session.device();
    let fact = session.tuples();
    let dim = session.tuples() >> 2; // the paper's |F| = 2^27, |D_i| = 2^25
    let mut ratio_at = Vec::new();
    for n_joins in [1usize, 2, 4, 6, 8] {
        let (fact_table, dims) = star_schema(&dev, fact, dim, n_joins, 16);
        let input_tuples = fact + n_joins * dim;
        let mut row = serde_json::json!({"n_joins": n_joins});
        let mut um = 0.0;
        let mut om = 0.0;
        for alg in Algorithm::GPU_VARIANTS {
            let out = join_sequence(&dev, &fact_table, &dims, alg, &JoinConfig::default());
            let t = out.total_time();
            let tput = mtps(input_tuples, t);
            row[alg.name()] = serde_json::json!(tput);
            if alg == Algorithm::PhjUm {
                um = t.secs();
            }
            if alg == Algorithm::PhjOm {
                om = t.secs();
            }
        }
        ratio_at.push((n_joins, um / om));
        report.push(row);
    }
    let first = ratio_at
        .iter()
        .find(|(n, _)| *n == 2)
        .map(|(_, r)| *r)
        .unwrap_or(1.0);
    let last = ratio_at.last().map(|(_, r)| *r).unwrap_or(1.0);
    report.claim(
        Claim::new("phj_om_over_um_8_joins", last)
            .near(1.78, 0.25)
            .says(format!(
                "PHJ-OM's advantage over PHJ-UM grows with pipeline depth: {first:.2}x at 2 \
                 joins -> {last:.2}x at 8 (paper: 1.49x -> 1.78x)"
            )),
    );
    report
}
