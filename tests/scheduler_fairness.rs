//! Fairness regressions for the multi-query scheduler, measured entirely in
//! simulated time. The device executes one kernel at a time (no overlap is
//! modeled), so N equal queries need exactly N× one query's busy time of
//! device clock in total; what the policy controls is *who waits*:
//!
//! * under round-robin, every one of N equal queries finishes within a
//!   small constant factor of N× its solo simulated time (nobody lags, and
//!   — unlike serial — nobody front-runs either);
//! * under a 3:1 weighted-fair split the weight-3 tenant finishes well
//!   before the weight-1 tenant.
//!
//! Finish times are taken from the base device trace — kernel events there
//! are device-timestamped and tagged with the owning query, so the metric
//! is exact and deterministic.

use gpu_join::engine::{self, AggSpec, Catalog, Expr, Plan, Table};
use gpu_join::prelude::*;
use gpu_join::sim::trace::Trace;
use gpu_join::sim::QueryId;

use engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};

fn device() -> Device {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_tracing();
    dev
}

fn catalog(dev: &Device) -> Catalog {
    let n_orders = 192usize;
    let n_lines = 768usize;
    let mut c = Catalog::new();
    c.insert(Table::new(
        "orders",
        vec![(
            "o_id",
            Column::from_i32(dev, (0..n_orders as i32).collect(), "o_id"),
        )],
    ));
    c.insert(Table::new(
        "lineitem",
        vec![
            (
                "l_oid",
                Column::from_i32(
                    dev,
                    (0..n_lines as i32).map(|i| (i * 11) % 200).collect(),
                    "l_oid",
                ),
            ),
            (
                "l_qty",
                Column::from_i64(
                    dev,
                    (0..n_lines as i64).map(|i| (i * 17) % 53).collect(),
                    "l_qty",
                ),
            ),
        ],
    ));
    c
}

/// The workload every tenant runs: a join feeding a grouped aggregation —
/// enough kernels for the policies to interleave at fine grain.
fn tenant_plan() -> Plan {
    Plan::scan("orders")
        .join(Plan::scan("lineitem"), "o_id", "l_oid")
        .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")])
}

/// Device-clock time at which query `q` launched its last kernel work —
/// its deterministic finish time on the shared timeline.
fn finish_time(base_trace: &Trace, q: QueryId) -> f64 {
    base_trace
        .kernels()
        .filter(|k| k.query == Some(q))
        .map(|k| k.start + k.dur)
        .fold(0.0, f64::max)
}

/// One query's solo simulated busy time under the same budget regime.
fn solo_busy() -> f64 {
    let dev = device();
    let cat = catalog(&dev);
    let reports = engine::run_queries(
        &dev,
        &cat,
        vec![QuerySpec::new(tenant_plan())],
        Policy::Serial,
    );
    assert!(reports[0].result.is_ok());
    reports[0].busy.secs()
}

#[test]
fn round_robin_bounds_every_equal_tenant_near_n_times_solo() {
    let solo = solo_busy();
    let n = 4usize;
    let dev = device();
    let cat = catalog(&dev);
    let specs = vec![QuerySpec::new(tenant_plan()); n];
    let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
    let trace = dev.take_trace().expect("tracing was enabled");

    for r in &reports {
        assert!(
            r.result.is_ok(),
            "q{}: {:?}",
            r.query,
            r.result.as_ref().err()
        );
        // Each tenant's own kernel time is unchanged by co-tenancy.
        assert_eq!(
            r.busy.secs().to_bits(),
            solo.to_bits(),
            "q{}: busy time must equal solo busy time",
            r.query
        );
    }

    let finishes: Vec<f64> = (0..n as u32).map(|q| finish_time(&trace, q)).collect();
    let slowest = finishes.iter().cloned().fold(0.0, f64::max);
    let fastest = finishes.iter().cloned().fold(f64::INFINITY, f64::min);
    // The headline bound: the slowest of N equal queries finishes within a
    // small constant factor of N× its solo time (it is exactly N× here —
    // the device runs one kernel at a time — but the regression bound
    // leaves slack for cost-model evolution).
    assert!(
        slowest <= 1.5 * n as f64 * solo,
        "slowest tenant finished at {slowest}s, solo time is {solo}s (N={n})"
    );
    // And the fairness half: round-robin means nobody front-runs — even
    // the first finisher has waited through nearly everyone else's work.
    assert!(
        fastest >= (n - 1) as f64 * solo,
        "fastest tenant finished at {fastest}s — interleaving should hold \
         it back to at least (N-1)× solo ({}s)",
        (n - 1) as f64 * solo
    );
}

#[test]
fn serial_front_runs_while_round_robin_interleaves() {
    let solo = solo_busy();
    let n = 3usize;
    let run = |policy: Policy| {
        let dev = device();
        let cat = catalog(&dev);
        let specs = vec![QuerySpec::new(tenant_plan()); n];
        let reports = engine::run_queries(&dev, &cat, specs, policy);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        let trace = dev.take_trace().expect("tracing was enabled");
        finish_time(&trace, 0)
    };
    // Serially, query 0 owns the device and finishes in its solo time;
    // round-robin makes it share, pushing its finish towards N× solo.
    let serial_q0 = run(Policy::Serial);
    let rr_q0 = run(Policy::RoundRobin);
    assert!(
        (serial_q0 - solo).abs() <= solo * 1e-9,
        "serial q0 should finish in its solo time ({solo}s), got {serial_q0}s"
    );
    assert!(
        rr_q0 >= (n - 1) as f64 * solo,
        "round-robin q0 should finish near N× solo, got {rr_q0}s vs solo {solo}s"
    );
}

#[test]
fn weighted_fair_three_to_one_skews_completion_order() {
    let solo = solo_busy();
    let run = |w0: f64, w1: f64| {
        let dev = device();
        let cat = catalog(&dev);
        let specs = vec![
            QuerySpec::new(tenant_plan()).with_weight(w0),
            QuerySpec::new(tenant_plan()).with_weight(w1),
        ];
        let reports = engine::run_queries(&dev, &cat, specs, Policy::WeightedFair);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        let trace = dev.take_trace().expect("tracing was enabled");
        (finish_time(&trace, 0), finish_time(&trace, 1))
    };

    // 3:1 — the heavy tenant finishes first, and early: it receives ~3/4
    // of the device while contending, so it finishes near 4/3× solo while
    // the light tenant drains the remainder at ~2× solo.
    let (heavy, light) = run(3.0, 1.0);
    assert!(
        heavy < light,
        "weight-3 tenant must finish before weight-1 ({heavy}s vs {light}s)"
    );
    assert!(
        heavy <= 1.7 * solo,
        "weight-3 tenant should finish near 4/3× solo ({solo}s), got {heavy}s"
    );
    assert!(
        light >= 1.8 * solo,
        "weight-1 tenant drains last, near 2× solo ({solo}s), got {light}s"
    );

    // Swapping the weights swaps the completion order: the skew comes from
    // the policy, not from query ids.
    let (light2, heavy2) = run(1.0, 3.0);
    assert!(
        heavy2 < light2,
        "swapped weights must swap completion order ({heavy2}s vs {light2}s)"
    );
}

/// A cheap single-table filter: the "short" class for the SJF tests.
fn short_plan() -> Plan {
    Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(26)))
}

/// Solo simulated busy time of an arbitrary plan on a fresh device.
fn solo_busy_of(plan: Plan) -> f64 {
    let dev = device();
    let cat = catalog(&dev);
    let reports = engine::run_queries(&dev, &cat, vec![QuerySpec::new(plan)], Policy::Serial);
    assert!(reports[0].result.is_ok());
    reports[0].busy.secs()
}

#[test]
fn sjf_short_class_p99_beats_fifo_under_mixed_load() {
    // Calibrate the two service classes, then offer ~2x the device's
    // capacity so the queue builds: every 4th arrival is the long
    // join+aggregate, the rest are cheap filters.
    let s_short = solo_busy_of(short_plan());
    let s_long = solo_busy_of(tenant_plan());
    assert!(
        s_long > 2.0 * s_short,
        "classes must be visibly different (short {s_short}s, long {s_long}s)"
    );
    let n = 24usize;
    let mean_work = (s_long + 3.0 * s_short) / 4.0;
    let gap = mean_work / 2.0; // offered load = 2x capacity

    let run = |policy: Policy| -> (f64, u64) {
        let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        dev.enable_metrics(SimTime::from_secs(1e-9));
        let cat = catalog(&dev);
        let t0 = dev.elapsed().secs();
        let arrivals = (0..n)
            .map(|i| {
                let (class, plan) = if i % 4 == 0 {
                    ("long", tenant_plan())
                } else {
                    ("short", short_plan())
                };
                OpenQuery::new(
                    SimTime::from_secs(t0 + i as f64 * gap),
                    class,
                    QuerySpec::new(plan),
                )
            })
            .collect();
        let reports =
            engine::run_open_loop_with(&dev, &cat, arrivals, policy, &ServingConfig::default());
        assert!(
            reports.iter().all(|r| r.result.is_ok()),
            "{policy:?}: unbounded queue must complete everything"
        );
        let snap = dev.metrics_snapshot().expect("metrics recorder is on");
        let p99 = snap
            .registry
            .histogram("query_latency_seconds", &[("class", "short")])
            .expect("short-class latency histogram")
            .quantile(0.99);
        let completed = snap
            .registry
            .counter("query_completed_total", &[("class", "short")])
            + snap
                .registry
                .counter("query_completed_total", &[("class", "long")]);
        (p99, completed)
    };

    // Serial is arrival-order service — the FIFO baseline.
    let (fifo_p99, fifo_completed) = run(Policy::Serial);
    let (sjf_p99, sjf_completed) = run(Policy::Sjf);

    // Goodput first: same offered work, same completions — SJF must not
    // buy its latency win by dropping anything.
    assert_eq!(fifo_completed, n as u64);
    assert_eq!(
        sjf_completed, n as u64,
        "goodput must not regress under SJF"
    );
    // The headline service-level bound: past saturation, letting shorts
    // overtake queued longs must cut the short class's tail latency — by a
    // margin far above the histogram's <=1% quantile error.
    assert!(
        sjf_p99 < 0.9 * fifo_p99,
        "short-class p99 under SJF ({sjf_p99}) must beat FIFO ({fifo_p99})"
    );
}

#[test]
fn aging_bounds_the_longest_jobs_completion() {
    // The aging divisor is `1 + wait_seconds`, so waits must reach whole
    // simulated seconds to matter. Throttling DRAM and L2 bandwidth by 1e9
    // stretches these byte-bound queries from microseconds to seconds
    // without touching capacities (so admission maths are unchanged).
    let slow = || {
        let mut cfg = DeviceConfig::a100().scaled(8192.0);
        cfg.mem_bandwidth /= 1e9;
        cfg.l2_bandwidth /= 1e9;
        Device::new(cfg)
    };
    let solo = |plan: Plan| -> f64 {
        let dev = slow();
        let cat = catalog(&dev);
        let reports = engine::run_queries(&dev, &cat, vec![QuerySpec::new(plan)], Policy::Serial);
        assert!(reports[0].result.is_ok());
        reports[0].busy.secs()
    };
    let s_short = solo(short_plan());
    let s_long = solo(tenant_plan());
    assert!(
        s_short > 0.1 && s_long > 2.0 * s_short,
        "slow device must stretch service into seconds (short {s_short}s, long {s_long}s)"
    );

    // One long job at t0, then a near-saturating stream of shorts (~0.9
    // utilization from the shorts alone). Under pure SJF the statically
    // cheaper shorts win every redesignation, so the long job runs only in
    // the slivers between them and finishes dead last. Under aging its
    // rank has decayed below a fresh short's by the time the first short
    // even arrives (wait ≈ gap seconds against a predicted-cost ratio of a
    // few), so it holds the device and completes mid-stream. The stream
    // stays under saturation on purpose: queued shorts age at the same
    // rate as the long, so aging only lets it overtake *fresh* arrivals —
    // past saturation the backlog never empties and nothing changes.
    let n_short = 10usize;
    let gap = 1.1 * s_short;
    let run = |policy: Policy| -> Vec<f64> {
        let dev = slow();
        let cat = catalog(&dev);
        let t0 = dev.elapsed().secs();
        let mut arrivals = vec![OpenQuery::new(
            SimTime::from_secs(t0),
            "long",
            QuerySpec::new(tenant_plan()),
        )];
        arrivals.extend((0..n_short).map(|k| {
            OpenQuery::new(
                SimTime::from_secs(t0 + (k + 1) as f64 * gap),
                "short",
                QuerySpec::new(short_plan()),
            )
        }));
        let reports =
            engine::run_open_loop_with(&dev, &cat, arrivals, policy, &ServingConfig::default());
        assert!(reports.iter().all(|r| r.result.is_ok()));
        reports.iter().map(|r| r.completion.secs()).collect()
    };

    let sjf = run(Policy::Sjf);
    let aging = run(Policy::SjfAging);

    // Pure SJF starves the long job to the very end of the session.
    let sjf_last_short = sjf[1..].iter().cloned().fold(0.0, f64::max);
    assert!(
        sjf[0] > sjf_last_short,
        "under SJF the long job must finish last ({}s vs last short {}s)",
        sjf[0],
        sjf_last_short
    );
    // Aging bounds that starvation: the long job's rank decays with its
    // wait, so it overtakes fresh shorts mid-stream and finishes strictly
    // earlier than under pure SJF...
    assert!(
        aging[0] < sjf[0],
        "aging must finish the long job earlier than SJF ({}s vs {}s)",
        aging[0],
        sjf[0]
    );
    // ...and, concretely, no longer dead last: shorts are still completing
    // after it.
    let aging_last_short = aging[1..].iter().cloned().fold(0.0, f64::max);
    assert!(
        aging[0] < aging_last_short,
        "under aging the long job must not finish last ({}s vs last short {}s)",
        aging[0],
        aging_last_short
    );
}
