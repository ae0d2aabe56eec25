//! Figure 13: effect of the match ratio. High ratios make materialization
//! dominate (GFTR wins); below ~25% almost nothing is materialized and the
//! GFUR implementations pull ahead.

use crate::exp::{run_algorithms, total_of};
use crate::{mtps, Claim, Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig13", "Effect of different match ratios", session);
    let dev = session.device();
    let n = session.tuples();
    let mut crossover: Option<f64> = None;
    let mut low_ratio_winner = Algorithm::PhjUm;
    for pct in [3.0f64, 6.0, 12.5, 25.0, 50.0, 100.0] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            match_ratio: pct / 100.0,
            ..JoinWorkload::wide(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        let mut row = serde_json::json!({"match_ratio_pct": pct});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
        }
        let om = total_of(&results, Algorithm::PhjOm);
        let um = total_of(&results, Algorithm::PhjUm);
        if om <= um && crossover.is_none() {
            crossover = Some(pct);
        }
        if pct <= 6.0 {
            low_ratio_winner = results
                .iter()
                .min_by(|a, b| a.1.phases.total().partial_cmp(&b.1.phases.total()).unwrap())
                .unwrap()
                .0;
        }
        report.push(row);
    }
    let sentence = match crossover {
        Some(pct) => format!(
            "PHJ-OM overtakes PHJ-UM once the match ratio reaches ~{pct}% \
             (paper: *-OM lose below 25%)"
        ),
        None => {
            "PHJ-OM never overtakes PHJ-UM in this sweep — check the scale/L2 regime".to_string()
        }
    };
    report.claim(
        Claim::new("crossover_pct", crossover.unwrap_or(f64::NAN))
            .paper(25.0)
            .band(12.5, 25.0)
            .says(sentence),
    );
    report.claim(
        Claim::yes_no(
            "phj_um_wins_low_ratios",
            low_ratio_winner == Algorithm::PhjUm,
        )
        .paper(1.0)
        .band(1.0, 1.0)
        .says(format!(
            "at low match ratios the winner is {} (paper: PHJ-UM, thanks to cheap \
             unclustered gathers of tiny outputs)",
            low_ratio_winner.name()
        )),
    );
    report
}
