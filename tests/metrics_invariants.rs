//! Invariants of the `sim::metrics` subsystem, checked end to end through
//! the real execution stack:
//!
//! * metrics totals cross-check exactly against the hardware counters and
//!   against the kernel events of a simultaneously recorded trace;
//! * exports are byte-identical across re-runs (the serving curve's
//!   determinism claim);
//! * the policy-invariant metric families (`operator_*`, `tenant_*`)
//!   are byte-identical across scheduling policies — scheduling moves
//!   *when* work runs, never how much;
//! * a disabled recorder perturbs nothing simulated;
//! * open-loop arrivals respect the simulated clock (admission never
//!   precedes arrival, and an idle device jumps its clock forward to the
//!   next arrival instead of busy-waiting);
//! * the cumulative `*_total` sampler series are monotone.

use gpu_join::engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use gpu_join::engine::{self, AggSpec, Catalog, Expr, Plan, Table};
use gpu_join::prelude::*;
use gpu_join::sim::{metrics_json, openmetrics, secs_to_ticks, MetricsSnapshot};
use gpu_join::workloads::JoinWorkload;

/// A short sampler interval so even smoke-sized runs cross ticks (the
/// sampler emits at most one point per launch regardless).
const INTERVAL: f64 = 1e-9;

fn metered_device() -> Device {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_metrics(SimTime::from_secs(INTERVAL));
    dev
}

fn catalog(dev: &Device) -> Catalog {
    let mut c = Catalog::new();
    c.insert(Table::new(
        "orders",
        vec![("o_id", Column::from_i32(dev, (0..128).collect(), "o_id"))],
    ));
    c.insert(Table::new(
        "lineitem",
        vec![
            (
                "l_oid",
                Column::from_i32(dev, (0..640).map(|i| (i * 3) % 160).collect(), "l_oid"),
            ),
            (
                "l_qty",
                Column::from_i64(dev, (0..640).map(|i| (i * 13) % 37).collect(), "l_qty"),
            ),
        ],
    ));
    c
}

fn tenant_plans() -> Vec<Plan> {
    vec![
        Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")]),
        Plan::scan("lineitem")
            .filter(Expr::col("l_qty").gt(Expr::lit(9)))
            .distinct("l_oid"),
        Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid"),
    ]
}

/// Exports of one snapshot, as the strings an observed `bench` run writes.
fn exports(snap: &MetricsSnapshot) -> (String, String) {
    let snaps = std::slice::from_ref(snap);
    (openmetrics(snaps), metrics_json(snaps))
}

#[test]
fn totals_match_counters_and_trace_exactly() {
    let dev = metered_device();
    dev.enable_tracing();
    let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
    let _ = gpu_join::joins::run_join(&dev, Algorithm::PhjUm, &r, &s, &JoinConfig::default());

    let c = dev.counters();
    let trace = dev.take_trace().expect("tracing was enabled");
    let t = dev
        .metrics_snapshot()
        .expect("metrics recorder is on")
        .totals;

    // Metrics were enabled from device creation with no resets in between,
    // and both fold the same per-launch record in the same order, so the
    // cumulative totals equal the counters — cycles included, bit for bit.
    assert_eq!(t.work, c);

    // Busy time is recorded per launch as integer nanoseconds of the same
    // kernel durations the trace carries — the sums agree exactly, and
    // both agree with the counters' cycle total up to per-launch rounding.
    assert_eq!(trace.kernels().count() as u64, c.kernel_launches);
    let trace_ns: u64 = trace.kernels().map(|k| secs_to_ticks(k.dur)).sum();
    assert_eq!(t.busy_ns, trace_ns);
    let counter_secs = c.cycles / dev.config().clock_hz;
    assert!(
        (t.busy_ns as f64 * 1e-9 - counter_secs).abs() <= c.kernel_launches as f64 * 1e-9,
        "metrics busy {}ns vs counters {}s",
        t.busy_ns,
        counter_secs
    );
}

#[test]
fn exports_are_byte_identical_across_reruns() {
    let run = || -> (String, String) {
        let dev = metered_device();
        let cat = catalog(&dev);
        let t0 = dev.elapsed().secs();
        let arrivals = tenant_plans()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                OpenQuery::new(
                    SimTime::from_secs(t0 + i as f64 * 2e-6),
                    format!("c{}", i % 2),
                    QuerySpec::new(p),
                )
            })
            .collect();
        let reports = engine::run_open_loop_with(
            &dev,
            &cat,
            arrivals,
            Policy::Serial,
            &ServingConfig::default(),
        );
        assert!(reports.iter().all(|r| r.result.is_ok()));
        exports(&dev.metrics_snapshot().expect("metrics recorder is on"))
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "exports differ across re-runs");
}

#[test]
fn operator_and_tenant_families_are_policy_invariant() {
    // Scheduling policy decides when each tenant runs, not what it runs:
    // the per-operator histograms and per-tenant work counters must come
    // out byte-identical under any policy. (Completion-time metrics — the
    // latency histograms — legitimately move; they are excluded.)
    let family_lines = |policy: Policy| -> Vec<String> {
        let dev = metered_device();
        let cat = catalog(&dev);
        let specs = tenant_plans().into_iter().map(QuerySpec::new).collect();
        let reports = engine::run_queries(&dev, &cat, specs, policy);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        let (om, _) = exports(&dev.metrics_snapshot().expect("metrics recorder is on"));
        om.lines()
            .filter(|l| {
                let name = l.strip_prefix("# TYPE ").unwrap_or(l);
                name.starts_with("operator_") || name.starts_with("tenant_")
            })
            .map(str::to_string)
            .collect()
    };
    let serial = family_lines(Policy::Serial);
    assert!(
        serial.iter().any(|l| l.starts_with("operator_seconds")),
        "operator histograms are present"
    );
    assert!(
        serial
            .iter()
            .any(|l| l.starts_with("tenant_kernel_launches_total")),
        "per-tenant counters are present"
    );
    assert_eq!(
        serial,
        family_lines(Policy::RoundRobin),
        "operator_*/tenant_* families must not depend on the policy"
    );
}

#[test]
fn disabled_metrics_leaves_results_untouched() {
    let run = |metered: bool| {
        let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        if metered {
            dev.enable_metrics(SimTime::from_secs(INTERVAL));
        }
        let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
        let out = gpu_join::joins::run_join(&dev, Algorithm::PhjUm, &r, &s, &JoinConfig::default());
        (out.len(), out.stats.total_time(), dev.counters().cycles)
    };
    assert_eq!(
        run(false),
        run(true),
        "metrics must not perturb the simulation"
    );
}

#[test]
fn open_loop_arrivals_respect_the_simulated_clock() {
    let dev = metered_device();
    let cat = catalog(&dev);
    let t0 = dev.elapsed().secs();
    // The second arrival lands far beyond the first query's completion, so
    // the device goes idle and must jump its clock to the arrival.
    let gap = 1.0;
    let arrivals = vec![
        OpenQuery::new(
            SimTime::from_secs(t0),
            "now",
            QuerySpec::new(tenant_plans().remove(0)),
        ),
        OpenQuery::new(
            SimTime::from_secs(t0 + gap),
            "later",
            QuerySpec::new(tenant_plans().remove(1)),
        ),
    ];
    let reports = engine::run_open_loop_with(
        &dev,
        &cat,
        arrivals,
        Policy::Serial,
        &ServingConfig::default(),
    );
    for r in &reports {
        assert!(r.result.is_ok());
        assert!(
            r.admitted.secs() >= r.arrival.secs(),
            "q{}: admitted before it arrived",
            r.query
        );
        assert!(
            r.completion.secs() > r.admitted.secs(),
            "q{}: completed before admission",
            r.query
        );
    }
    assert!(
        reports[0].completion.secs() < t0 + gap,
        "first query finishes long before the second arrives"
    );
    assert!(
        reports[1].admitted.secs() >= t0 + gap,
        "idle clock advance must not admit ahead of the arrival"
    );
    assert!(
        dev.elapsed().secs() >= t0 + gap,
        "device clock jumped over the idle gap"
    );
    // The lifecycle records mirror the report timestamps.
    let snap = dev.metrics_snapshot().expect("metrics recorder is on");
    assert_eq!(snap.lifecycles.len(), 2);
    for (l, r) in snap.lifecycles.iter().zip(&reports) {
        assert_eq!(l.query, r.query);
        assert_eq!(l.sched.arrival_secs, r.arrival.secs());
        assert_eq!(l.sched.completion_secs, r.completion.secs());
    }
}

#[test]
fn cumulative_series_are_monotone() {
    let dev = metered_device();
    let cat = catalog(&dev);
    let specs = tenant_plans().into_iter().map(QuerySpec::new).collect();
    let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
    assert!(reports.iter().all(|r| r.result.is_ok()));
    let snap = dev.metrics_snapshot().expect("metrics recorder is on");
    let totals: Vec<_> = snap
        .series
        .iter()
        .filter(|s| s.name.ends_with("_total"))
        .collect();
    assert!(!totals.is_empty(), "sampler emitted cumulative series");
    for s in totals {
        for w in s.points.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 <= w[1].1,
                "{}: series must be strictly ordered in time and non-decreasing in value",
                s.name
            );
        }
    }
}
