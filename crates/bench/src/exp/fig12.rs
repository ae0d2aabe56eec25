//! Figure 12: effect of the number of payload columns (|R| = |S|).

use crate::exp::{run_algorithms, total_of};
use crate::{mtps, Report, Session};
use columnar::DType;
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig12", "Effect of the number of payload columns", session);
    let dev = session.device();
    let n = session.tuples();
    println!(
        "Figure 12 — wide join, |R| = |S| = {}, payload columns swept ({})\n",
        n, report.device
    );
    print!("{:<10}", "cols");
    for alg in Algorithm::GPU_VARIANTS {
        print!(" {:>10}", alg.name());
    }
    println!("  (M tuples/s)");

    let mut phj_ratio_at_8 = 0.0;
    let mut smj_ratio_at_8 = 0.0;
    for cols in [1usize, 2, 4, 6, 8] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            r_payloads: vec![DType::I32; cols],
            s_payloads: vec![DType::I32; cols],
            ..JoinWorkload::narrow(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        print!("{cols:<10}");
        let mut row = serde_json::json!({"payload_cols": cols});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            print!(" {tput:>10.1}");
            row[alg.name()] = serde_json::json!(tput);
        }
        println!();
        if cols == 8 {
            phj_ratio_at_8 =
                total_of(&results, Algorithm::PhjUm) / total_of(&results, Algorithm::PhjOm);
            smj_ratio_at_8 =
                total_of(&results, Algorithm::SmjUm) / total_of(&results, Algorithm::SmjOm);
        }
        report.push(row);
    }
    println!();
    report.finding(format!(
        "at 8 payload columns, PHJ-OM holds a {phj_ratio_at_8:.2}x speedup over PHJ-UM \
         (paper: ~2x maintained as columns grow)"
    ));
    report.finding(format!(
        "at 8 payload columns, SMJ-OM holds a {smj_ratio_at_8:.2}x speedup over SMJ-UM \
         (paper: ~1.3x)"
    ));
    report
}
