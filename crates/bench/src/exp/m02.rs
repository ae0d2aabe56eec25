//! M2 (serving): an open-loop serving benchmark over `sim::metrics`.
//!
//! Queries from the demo mix (Q18/Q3/Q1 shapes) *arrive* on the simulated
//! clock with seeded exponential inter-arrival gaps — an open-loop Poisson
//! process, so offered load is independent of how fast the device drains
//! it. The sweep walks offered load ρ from well below the calibrated
//! capacity to 1.5x beyond it and reports the latency-throughput curve:
//! per-class p50/p90/p99/max end-to-end latency, achieved throughput,
//! utilization, and the time-averaged number of queries in the system.
//!
//! Every latency statistic is read back from the device's metrics
//! subsystem (`query_latency_seconds{class=...}` histograms recorded by
//! `engine::scheduler`), not from ad-hoc bookkeeping — the bench exists to
//! exercise that path end to end. Arrivals, admission and service all run
//! on the simulated clock under the Serial (FIFO run-to-completion)
//! policy, so the whole curve is bit-identical across re-runs. Each step
//! executes every plan once and replays it for later arrivals
//! (`ServingConfig::with_replay`), which moves no number, only host time.

use super::serving::{arrival_times, arrivals, mix, Calibration, CLASSES};
use crate::{Claim, Report, Session};
use engine::demo::tpch_mini;
use engine::scheduler::{Policy, ServingConfig};

/// Arrivals per offered-load step: enough for stable medians while keeping
/// the tail quantiles honest (p99 of 24 samples is the max by rank).
const ARRIVALS_PER_STEP: usize = 24;

/// Offered load as a fraction of calibrated capacity.
const RHO_SWEEP: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.5];

/// Per-class latency summary pulled out of one metrics snapshot.
struct ClassStats {
    count: u64,
    mean_s: f64,
    p50_s: f64,
    p90_s: f64,
    p99_s: f64,
    max_s: f64,
}

fn class_stats(snap: &sim::MetricsSnapshot, class: &str) -> ClassStats {
    let h = snap
        .registry
        .histogram("query_latency_seconds", &[("class", class)])
        .expect("scheduler records per-class latency histograms");
    ClassStats {
        count: h.count(),
        mean_s: if h.count() == 0 {
            0.0
        } else {
            h.sum_scaled() / h.count() as f64
        },
        p50_s: h.quantile(0.50),
        p90_s: h.quantile(0.90),
        p99_s: h.quantile(0.99),
        max_s: h.max_scaled(),
    }
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "m02_serving",
        "Open-loop serving: offered load vs latency from service metrics",
        session,
    );
    let orders = session.tuples() / 16;

    // -- Calibration: mean solo-Serial service time of the mix -------------
    let capacity_qps = Calibration::fresh_devices(session, orders).capacity_qps;

    let mut curve: Vec<(f64, f64, f64)> = Vec::new(); // (rho, achieved, worst p99)
    for (step, &rho) in RHO_SWEEP.iter().enumerate() {
        let lambda = rho * capacity_qps;
        // Fresh device and catalog per step: the latency histograms are
        // cumulative, so a clean registry is what makes each step's
        // quantiles that step's quantiles. The curve is derived from the
        // metrics subsystem, so the recorder is on even without --observe.
        let dev = session.metered_device();
        let catalog = tpch_mini(&dev, orders, 99);
        let t0 = dev.elapsed().secs();

        // Open-loop arrival schedule: seeded exponential gaps.
        let seed = 0x6d30_325f_7365_7276u64 ^ (step as u64); // "m02_serv"
        let arrivals = arrivals(arrival_times(seed, t0, lambda, ARRIVALS_PER_STEP));
        let first_arrival = arrivals[0].at.secs();

        let serving = ServingConfig::new().with_replay();
        let reports =
            engine::run_open_loop_with(&dev, &catalog, arrivals, Policy::Serial, &serving);
        assert!(
            reports.iter().all(|r| r.result.is_ok()),
            "every open-loop request must complete"
        );
        let snap = dev.metrics_snapshot().expect("metrics recorder is on");

        // Exact aggregates from the lifecycle records (sampler-independent):
        // achieved throughput, utilization, and — by Little's law, as the
        // time integral of (completion - arrival) — the time-averaged
        // number of queries in the system.
        let last_completion = reports
            .iter()
            .map(|r| r.completion.secs())
            .fold(0.0, f64::max);
        let span = last_completion - first_arrival;
        let achieved_qps = reports.len() as f64 / span;
        let busy: f64 = snap.lifecycles.iter().map(|l| l.sched.busy_secs).sum();
        let utilization = busy / span;
        let in_system: f64 = snap
            .lifecycles
            .iter()
            .map(|l| l.sched.completion_secs - l.sched.arrival_secs)
            .sum::<f64>()
            / span;

        let classes: Vec<(&str, ClassStats)> = CLASSES
            .iter()
            .map(|&c| (c, class_stats(&snap, c)))
            .collect();
        assert_eq!(
            classes.iter().map(|(_, s)| s.count).sum::<u64>(),
            ARRIVALS_PER_STEP as u64,
            "per-class histogram counts must add up to the arrivals"
        );

        let class_json: Vec<(String, serde_json::Value)> = classes
            .iter()
            .map(|(c, s)| {
                (
                    c.to_string(),
                    serde_json::json!({
                        "count": s.count, "mean_s": s.mean_s, "p50_s": s.p50_s,
                        "p90_s": s.p90_s, "p99_s": s.p99_s, "max_s": s.max_s,
                    }),
                )
            })
            .collect();
        // Per-query lifecycle timestamps straight off the reports: the
        // request-scoped observability record (arrival, admitted, first
        // kernel, completion, queue wait) for every request in the step.
        let lifecycle_json: Vec<serde_json::Value> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                serde_json::json!({
                    "query": r.query, "class": mix(i).0,
                    "arrival_s": r.arrival.secs(), "admitted_s": r.admitted.secs(),
                    "started_s": r.started.secs(), "completed_s": r.completion.secs(),
                    "queue_wait_s": r.queue_wait().secs(),
                })
            })
            .collect();
        report.push(serde_json::json!({
            "sweep": "offered_load", "rho": rho, "queries": ARRIVALS_PER_STEP,
            "offered_qps": lambda, "achieved_qps": achieved_qps,
            "utilization": utilization, "mean_in_system": in_system,
            "classes": serde_json::Value::Object(class_json),
            "lifecycle": lifecycle_json,
        }));
        if session.observing() {
            if let Some(trace) = dev.trace_snapshot() {
                let explains: Vec<_> = reports
                    .iter()
                    .filter_map(|r| r.explain(dev.config()).map(|e| (r.query, e)))
                    .collect();
                let digest = engine::slow_queries(&trace, &snap, &explains);
                session.record_digest(&format!("m02_serving rho={rho:.2}"), &digest);
            }
        }
        let worst_p99 = classes.iter().map(|(_, s)| s.p99_s).fold(0.0, f64::max);
        curve.push((rho, achieved_qps, worst_p99));
    }

    // The two ends of the latency-throughput curve, as findings.
    let below = &curve[0]; // rho = 0.25
    let above = curve.last().unwrap(); // rho = 1.5
    let achieved = above.1;
    report.claim(Claim::new("achieved_qps_at_1_5", achieved).says(format!(
        "open-loop serving saturates at the calibrated capacity: offered 1.5x capacity \
         achieves {achieved:.1} q/s vs ~{capacity_qps:.0} q/s capacity, while worst-class \
         p99 inflates {:.1}x over the rho=0.25 operating point",
        above.2 / below.2.max(1e-12)
    )));
    report.claim(
        Claim::new("samples_per_step", ARRIVALS_PER_STEP as f64).says(format!(
            "the whole curve is derived from `query_latency_seconds{{class=...}}` histograms \
             ({ARRIVALS_PER_STEP} samples per step) and lifecycle records — no bench-side \
             latency bookkeeping"
        )),
    );

    report
}
