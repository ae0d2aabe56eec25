//! Ablation A4: the same wide join across device generations
//! (RTX 3090 → A100 → H100), paper-regime scaled. Asks whether bigger
//! caches and bandwidth erase the GFTR advantage — the paper's Figure 7
//! observation ("a larger GPU ... cannot alleviate the inefficiency of
//! unclustered gathers") extrapolated one generation forward.

use crate::exp::{run_algorithms, total_of};
use crate::{Claim, Report, Session};
use joins::{Algorithm, JoinConfig};
use sim::{Device, DeviceConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "ablation_device_sweep",
        "Wide join across device generations",
        session,
    );
    let w = JoinWorkload {
        s_tuples: session.tuples() * 2,
        ..JoinWorkload::wide(session.tuples())
    };

    let f = session.regime_factor();
    for cfg in [
        DeviceConfig::rtx3090(),
        DeviceConfig::a100(),
        DeviceConfig::h100(),
    ] {
        let name = cfg.name.clone();
        let dev = Device::new(cfg.scaled(f));
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        let t = |a| total_of(&results, a);
        let ratio = t(Algorithm::PhjUm) / t(Algorithm::PhjOm);
        report.push(serde_json::json!({
            "device": name,
            "smj_um_s": t(Algorithm::SmjUm),
            "smj_om_s": t(Algorithm::SmjOm),
            "phj_um_s": t(Algorithm::PhjUm),
            "phj_om_s": t(Algorithm::PhjOm),
            "phj_om_over_um": ratio,
        }));
    }
    let first = report.rows.first().unwrap()["phj_om_over_um"]
        .as_f64()
        .unwrap();
    let last = report.rows.last().unwrap()["phj_om_over_um"]
        .as_f64()
        .unwrap();
    report.claim(Claim::new("phj_om_over_um_h100", last).says(format!(
        "PHJ-OM's advantage persists across generations ({first:.2}x on RTX 3090, \
         {last:.2}x on H100): growing L2 and bandwidth together does not fix \
         unclustered gathers, as the paper observed for A100 vs RTX 3090"
    )));
    report
}
