//! Figure 11: effect of the |R|/|S| size ratio on wide joins (|S| fixed).

use crate::exp::run_algorithms;
use crate::{mtps, Report, Session};
use joins::{Algorithm, JoinConfig};
use sim::SimTime;
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig11", "Effect of |R|/|S|", session);
    let dev = session.device();
    let s_tuples = session.tuples();
    println!(
        "Figure 11 — wide join, |S| = {} fixed, |R|/|S| swept ({})\n",
        s_tuples, report.device
    );
    print!("{:<10}", "|R|/|S|");
    for alg in Algorithm::GPU_VARIANTS {
        print!(" {:>10}", alg.name());
    }
    println!("  (M tuples/s)");

    let mut om_always_ahead = true;
    for denom in [8usize, 4, 2, 1] {
        let w = JoinWorkload {
            r_tuples: s_tuples / denom,
            s_tuples,
            ..JoinWorkload::wide(s_tuples / denom)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        print!("1/{denom:<8}");
        let mut row = serde_json::json!({"r_over_s": 1.0 / denom as f64});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            print!(" {tput:>10.1}");
            row[alg.name()] = serde_json::json!(tput);
        }
        println!();
        let t = |a: Algorithm| {
            results
                .iter()
                .find(|(x, _)| *x == a)
                .unwrap()
                .1
                .phases
                .total()
                .secs()
        };
        if t(Algorithm::PhjOm) > t(Algorithm::PhjUm) {
            om_always_ahead = false;
        }
        report.push(row);
    }
    println!();
    report.finding(format!(
        "*-OM outperform *-UM across all size ratios: {} (paper: yes, even when R is small)",
        om_always_ahead
    ));
    let _ = SimTime::ZERO;
    report
}
