//! The load generator the serving experiments (`m01`–`m04`) share: the
//! demo query mix, its solo-service calibration, and a seeded open-loop
//! (Poisson) arrival schedule.
//!
//! Everything here is deterministic and platform-independent — each
//! experiment passes its own seed constant, and the draws and f64
//! operations happen in a fixed order — so the artifacts derived from a
//! schedule are byte-identical across re-runs.

use crate::Session;
use engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use engine::scheduler::{OpenQuery, Policy, QueryReport, QuerySpec};
use engine::Plan;
use sim::SimTime;

/// The serving classes, in mix order: q18 is the long class, q1 the short.
pub(crate) const CLASSES: [&str; 3] = ["q18", "q3", "q1"];

/// The demo mix, cycled across arrivals (or tenants).
pub(crate) fn mix(i: usize) -> (&'static str, Plan) {
    let plan = match i % 3 {
        0 => q18_like(),
        1 => q3_like(),
        _ => q1_like(),
    };
    (CLASSES[i % 3], plan)
}

/// Simulated service demand of each mix class run alone: `run_solo`
/// executes one plan under the Serial policy and returns its report.
/// `busy` is the query's own kernel time, independent of queueing.
pub(crate) fn solo_busy(mut run_solo: impl FnMut(Plan) -> QueryReport) -> Vec<f64> {
    (0..CLASSES.len())
        .map(|i| {
            let report = run_solo(mix(i).1);
            assert!(report.result.is_ok(), "solo demo query must run");
            report.busy.secs()
        })
        .collect()
}

/// The calibrated capacity of one device for the mix.
pub(crate) struct Calibration {
    /// Per-class solo service time, seconds, in [`CLASSES`] order.
    pub(crate) solo_busy: Vec<f64>,
    /// Mean of `solo_busy`.
    pub(crate) mean_service: f64,
    /// `1 / mean_service`: the offered load at which ρ = 1.
    pub(crate) capacity_qps: f64,
}

impl Calibration {
    /// Calibrate on one fresh device and catalog per class, so each
    /// measurement starts from a cold clock and an empty ledger.
    pub(crate) fn fresh_devices(session: &mut Session, orders: usize) -> Self {
        let solo_busy = solo_busy(|plan| {
            let dev = session.device();
            let catalog = tpch_mini(&dev, orders, 99);
            engine::run_queries(&dev, &catalog, vec![QuerySpec::new(plan)], Policy::Serial)
                .remove(0)
        });
        let mean_service = solo_busy.iter().sum::<f64>() / solo_busy.len() as f64;
        Calibration {
            solo_busy,
            mean_service,
            capacity_qps: 1.0 / mean_service,
        }
    }
}

/// `splitmix64` step — the standard 64-bit mixer; deterministic and
/// platform-independent, which is all the arrival process needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `(0, 1]` (never 0, so `ln` is finite).
fn uniform(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// The first `n` arrival instants of a Poisson process of rate `lambda`
/// that starts at `start`: seeded exponential gaps, accumulated in order.
pub(crate) fn arrival_times(seed: u64, start: f64, lambda: f64, n: usize) -> Vec<f64> {
    let mut rng = seed;
    let mut at = start;
    (0..n)
        .map(|_| {
            at += -uniform(&mut rng).ln() / lambda;
            at
        })
        .collect()
}

/// The mix arriving at `times`, each request labelled with its class.
pub(crate) fn arrivals(times: impl IntoIterator<Item = f64>) -> Vec<OpenQuery> {
    times
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let (class, plan) = mix(i);
            OpenQuery::new(SimTime::from_secs(at), class, QuerySpec::new(plan))
        })
        .collect()
}
