//! Figure 8: CPU vs GPU narrow-join throughput across input sizes
//! (|S| = 2|R|, one payload column per relation, 100% match ratio).

use crate::exp::run_algorithms;
use crate::{mtps, Claim, Report, Session};
use joins::{Algorithm, JoinConfig};
use sim::SimTime;
use workloads::JoinWorkload;

const ALGS: [Algorithm; 6] = [
    Algorithm::CpuRadix,
    Algorithm::Nphj,
    Algorithm::SmjUm,
    Algorithm::SmjOm,
    Algorithm::PhjUm,
    Algorithm::PhjOm,
];

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "fig08",
        "CPU- and GPU-based narrow join throughput",
        session,
    );
    let dev = session.device();
    let mut best_gpu_vs_cpu = 0.0f64;
    let mut best_vs_cudf = 0.0f64;
    for shift in (0..4).rev() {
        let r_tuples = session.tuples() >> shift;
        let w = JoinWorkload::narrow(r_tuples);
        let total = w.total_tuples();
        // The CPU baseline measures real wall-clock: repeat and keep the
        // median; the simulated joins are deterministic.
        let mut row = serde_json::json!({"r_tuples": r_tuples});
        let mut cpu = f64::NAN;
        let mut nphj = f64::NAN;
        let mut best = 0.0f64;
        for alg in ALGS {
            let t = if alg == Algorithm::CpuRadix {
                let mut ts: Vec<f64> = (0..session.reps().max(1))
                    .map(|_| {
                        let (r, s) = w.generate(&dev);
                        joins::run_join(&dev, alg, &r, &s, &JoinConfig::default())
                            .stats
                            .phases
                            .total()
                            .secs()
                    })
                    .collect();
                ts.sort_by(f64::total_cmp);
                ts[ts.len() / 2]
            } else {
                run_algorithms(&dev, &w, &[alg], &JoinConfig::default())[0]
                    .1
                    .phases
                    .total()
                    .secs()
            };
            let tput = mtps(total, SimTime::from_secs(t));
            row[alg.name()] = serde_json::json!(tput);
            match alg {
                Algorithm::CpuRadix => cpu = tput,
                Algorithm::Nphj => nphj = tput,
                _ => best = best.max(tput),
            }
        }
        best_gpu_vs_cpu = best_gpu_vs_cpu.max(best / cpu);
        best_vs_cudf = best_vs_cudf.max(best / nphj);
        report.push(row);
    }
    report.claim(
        Claim::new("gpu_over_cpu", best_gpu_vs_cpu)
            .paper(34.5)
            .says(format!(
                "best GPU join is {best_gpu_vs_cpu:.1}x faster than the CPU radix join \
                 (paper: up to 34.5x; the CPU here is this machine's, not a 2x36-core server)"
            )),
    );
    report.claim(
        Claim::new("gpu_over_nphj", best_vs_cudf)
            .near(4.0, 0.25)
            .says(format!(
                "best GPU join is {best_vs_cudf:.1}x faster than the cuDF-style NPHJ (paper: up \
                 to 4x)"
            )),
    );
    report
}
