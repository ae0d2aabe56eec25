//! M4 (SLO): per-class latency targets, attainment tracking and automatic
//! slow-query attribution on the serving path.
//!
//! The m02 open-loop mix (Q18/Q3/Q1 shapes, seeded exponential arrivals)
//! runs at offered loads below, near and past the calibrated capacity,
//! with a per-class SLO of 2.5x each class's solo service time configured
//! via [`ServingConfig::with_slo`]. Every step runs with lifecycle tracing
//! and metrics on, then asks [`engine::slow_queries`] *why* the misses
//! were slow.
//!
//! The headline property, asserted: attribution flips from execution to
//! queueing as load crosses capacity. Below capacity queries spend their
//! latency executing (what little misses exist are exec-dominated, and
//! mean exec time exceeds mean queue wait); past saturation the backlog
//! grows without bound and the digest pins the blame on the admission
//! queue — the worst slow query is queue-dominated and mean queue wait
//! dwarfs mean exec time. SLO attainment and debt come straight from the
//! metrics registry (`slo_met_total` / `slo_missed_total` /
//! `slo_attainment_ratio` / `slo_debt_seconds_total`), not bench-side
//! bookkeeping.
//!
//! Every session replays repeated (plan, budget) keys
//! (`ServingConfig::with_replay`): no number moves, only host time.

use super::serving::{arrival_times, arrivals, mix, Calibration, CLASSES};
use crate::{Claim, Report, Session};
use engine::demo::tpch_mini;
use engine::scheduler::{Policy, ServingConfig};

/// Arrivals per offered-load step (same regime as `m02`).
const ARRIVALS_PER_STEP: usize = 24;

/// Offered load as a fraction of calibrated capacity: one point well
/// below, one near, one well past saturation.
const RHO_SWEEP: [f64; 3] = [0.25, 0.75, 1.5];

/// SLO target as a multiple of each class's solo service time: generous
/// enough that an unloaded system always meets it, tight enough that a
/// saturated queue cannot.
const SLO_FACTOR: f64 = 2.5;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "m04_slo",
        "SLO attainment and slow-query attribution across the load curve",
        session,
    );
    let orders = session.tuples() / 16;

    // -- Calibration: solo-Serial service time per mix class ---------------
    let Calibration {
        solo_busy,
        capacity_qps,
        ..
    } = Calibration::fresh_devices(session, orders);
    let slos: Vec<(&str, f64)> = CLASSES
        .iter()
        .zip(&solo_busy)
        .map(|(&c, &b)| (c, b * SLO_FACTOR))
        .collect();

    // (rho, worst slow query's dominant stage, mean queue wait, mean exec)
    let mut flips: Vec<(f64, Option<String>, f64, f64)> = Vec::new();
    for (step, &rho) in RHO_SWEEP.iter().enumerate() {
        let lambda = rho * capacity_qps;
        // Fresh device per step; the digest needs lifecycle tracing and
        // the SLO counters need metrics, so both recorders are always on
        // here (an --observe run exports byte-identical supersets).
        let dev = session.metered_device();
        dev.enable_tracing();
        let catalog = tpch_mini(&dev, orders, 99);
        let t0 = dev.elapsed().secs();

        let seed = 0x6d30_345f_736c_6f30_u64 ^ (step as u64); // "m04_slo0"
        let arrivals = arrivals(arrival_times(seed, t0, lambda, ARRIVALS_PER_STEP));

        let mut serving = ServingConfig::new().with_replay();
        for (class, slo) in &slos {
            serving = serving.with_slo(*class, *slo);
        }
        let reports =
            engine::run_open_loop_with(&dev, &catalog, arrivals, Policy::Serial, &serving);
        assert!(
            reports.iter().all(|r| r.result.is_ok()),
            "unbounded queue: every request must complete"
        );

        let snap = dev.metrics_snapshot().expect("metrics recorder is on");
        let trace = dev.trace_snapshot().expect("trace recorder is on");
        let explains: Vec<_> = reports
            .iter()
            .filter_map(|r| r.explain(dev.config()).map(|e| (r.query, e)))
            .collect();
        let digest = engine::slow_queries(&trace, &snap, &explains);
        assert_eq!(digest.queries, ARRIVALS_PER_STEP);
        session.record_digest(&format!("m04_slo rho={rho:.2}"), &digest);

        // SLO accounting straight off the registry.
        let mut met_total = 0u64;
        let mut missed_total = 0u64;
        let mut debt_total = 0.0f64;
        let class_json: Vec<(String, serde_json::Value)> = slos
            .iter()
            .map(|(class, slo)| {
                let labels = [("class", *class)];
                let met = snap.registry.counter("slo_met_total", &labels);
                let missed = snap.registry.counter("slo_missed_total", &labels);
                let attainment = snap.registry.gauge("slo_attainment_ratio", &labels);
                let debt = snap.registry.gauge("slo_debt_seconds_total", &labels);
                assert_eq!(
                    met + missed,
                    snap.registry.counter("query_completed_total", &labels),
                    "every completed {class} query is judged against its SLO"
                );
                met_total += met;
                missed_total += missed;
                debt_total += debt;
                (
                    class.to_string(),
                    serde_json::json!({
                        "slo_s": slo, "met": met, "missed": missed,
                        "attainment": attainment, "debt_s": debt,
                    }),
                )
            })
            .collect();

        // Attribution flip evidence: the digest's verdict on the worst
        // slow query, plus population means from the lifecycle records.
        let worst_stage = digest.slow.first().map(|r| r.dominant_stage.clone());
        let mean_queue =
            reports.iter().map(|r| r.queue_wait().secs()).sum::<f64>() / reports.len() as f64;
        let mean_exec = reports.iter().map(|r| r.busy.secs()).sum::<f64>() / reports.len() as f64;

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
            "sweep": "slo", "rho": rho, "queries": ARRIVALS_PER_STEP,
            "met": met_total, "missed": missed_total, "debt_s": debt_total,
            "slow_queries": digest.slow.len(),
            "worst_dominant_stage": worst_stage,
            "mean_queue_wait_s": mean_queue, "mean_exec_s": mean_exec,
            "classes": serde_json::Value::Object(class_json),
            "lifecycle": lifecycle_json,
        }));
        flips.push((rho, worst_stage, mean_queue, mean_exec));
    }

    // The acceptance criterion, enforced: attribution flips from execution
    // to queueing as load crosses capacity.
    let below = &flips[0]; // rho = 0.25
    let above = flips.last().unwrap(); // rho = 1.5
    assert!(
        below.3 > below.2,
        "below capacity (rho={}) latency must be execution-dominated: \
         mean exec {:.3}ms vs mean queue wait {:.3}ms",
        below.0,
        below.3 * 1e3,
        below.2 * 1e3
    );
    assert!(
        above.2 > above.3,
        "past saturation (rho={}) latency must be queue-dominated: \
         mean queue wait {:.3}ms vs mean exec {:.3}ms",
        above.0,
        above.2 * 1e3,
        above.3 * 1e3
    );
    assert_eq!(
        above.1.as_deref(),
        Some("queue"),
        "past saturation the digest must blame the admission queue for the worst query"
    );
    let saturated_queue_ms = above.2 * 1e3;
    report.claim(
        Claim::new("saturated_mean_queue_ms", saturated_queue_ms).says(format!(
            "slow-query attribution flips execute->queue across capacity: at rho={} mean \
             exec/queue is {:.2}ms/{:.2}ms, at rho={} it is {:.2}ms/{saturated_queue_ms:.2}ms \
             and the digest pins the worst miss on the '{}' stage",
            below.0,
            below.3 * 1e3,
            below.2 * 1e3,
            above.0,
            above.3 * 1e3,
            above.1.as_deref().unwrap_or("-")
        )),
    );
    report.claim(Claim::new("slo_factor", SLO_FACTOR).says(format!(
        "SLO attainment and debt come from the registry (slo_met/missed_total, \
         slo_attainment_ratio, slo_debt_seconds_total) under per-class targets of \
         {SLO_FACTOR}x solo service; each stage attribution partitions its query's \
         latency exactly"
    )));

    report
}
