//! Property suite for the serving-control layer: admission control,
//! cost-ordered queueing, and plan caching.
//!
//! Over arbitrary arrival schedules × tenant classes × budgets, the
//! scheduler must uphold:
//!
//! * **work conservation** — a closed-loop session's makespan equals the
//!   sum of per-query kernel time: the device never idles while a query
//!   is runnable, under any policy;
//! * **lifecycle ordering / no starvation** — every admitted query
//!   completes, with `arrival ≤ admitted ≤ completion` and a service
//!   interval at least as long as its own kernel time, including under
//!   [`Policy::SjfAging`] (the aging bound itself is quantified in
//!   `tests/scheduler_fairness.rs`);
//! * **shed-only-when-full** — a bounded admission queue sheds an arrival
//!   exactly when the waiting room is at capacity, and an unbounded queue
//!   never sheds; shed queries run nothing and complete at their arrival;
//! * **per-class depth** — a depth on one class (names mapped to indices in
//!   first-arrival order, tightest duplicate wins, unknown names inert)
//!   sheds that class alone and leaves co-tenant reports bit-unchanged;
//! * **SJF ordering** — under [`Policy::Sjf`] (and, for simultaneous
//!   arrivals, [`Policy::SjfAging`]) completion order is exactly the cost
//!   model's predicted-time order;
//! * **plan-cache byte-identity** — a cache hit replays the recorded
//!   sampling observations and produces output, `OpStats` and EXPLAIN
//!   byte-identical to the cold (recording) run;
//! * **export byte-identity** — full metrics exports (OpenMetrics and
//!   JSON) are byte-identical from a session to its re-run on a fresh
//!   device under *every* policy, with admission control active;
//! * **retire-releases-at-completion** — a query that waited for budget is
//!   admitted at exactly the completion time of the query whose retire
//!   released it, never part-way through (or after) a later kernel turn,
//!   and the whole session is bit-identical from run to run.

use gpu_join::engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use gpu_join::engine::{
    self, cost, AggSpec, CacheOutcome, Catalog, EngineError, Expr, Plan, PlanCache, QueryExplain,
    QueryReport, Table,
};
use gpu_join::prelude::*;
use gpu_join::sim::{metrics_json, openmetrics};
use proptest::prelude::*;

fn device() -> Device {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_metrics(SimTime::from_secs(1e-9));
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

/// Plan shapes of visibly different sizes, so predicted costs spread.
fn plan_of(shape: u8) -> Plan {
    match shape % 5 {
        0 => Plan::scan("orders"),
        1 => Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(9))),
        2 => Plan::scan("lineitem").distinct("l_oid"),
        3 => Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid"),
        _ => Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")]),
    }
}

fn budget_of(budget: u8) -> Option<u64> {
    match budget % 3 {
        0 => None,          // equal / quarter share
        1 => Some(1 << 21), // ample, explicit
        _ => Some(1 << 20), // ample, smaller
    }
}

/// One proptest-chosen open-loop arrival: inter-arrival gap (tenths of a
/// microsecond), tenant class, plan shape and budget choice.
#[derive(Debug, Clone)]
struct ArrivalDesc {
    gap_tenth_us: u16,
    class: u8,
    shape: u8,
    budget: u8,
}

fn schedule_strategy(max_len: usize) -> impl Strategy<Value = Vec<ArrivalDesc>> {
    proptest::collection::vec(
        (0u16..400, 0u8..3, 0u8..5, 0u8..3).prop_map(|(gap_tenth_us, class, shape, budget)| {
            ArrivalDesc {
                gap_tenth_us,
                class,
                shape,
                budget,
            }
        }),
        2..=max_len,
    )
}

fn arrivals_of(schedule: &[ArrivalDesc], t0: f64) -> Vec<OpenQuery> {
    let mut at = t0;
    schedule
        .iter()
        .map(|d| {
            at += d.gap_tenth_us as f64 * 1e-7;
            let mut spec = QuerySpec::new(plan_of(d.shape));
            if let Some(b) = budget_of(d.budget) {
                spec = spec.with_budget(b);
            }
            OpenQuery::new(SimTime::from_secs(at), format!("c{}", d.class % 3), spec)
        })
        .collect()
}

fn all_policies() -> [Policy; 5] {
    [
        Policy::Serial,
        Policy::RoundRobin,
        Policy::WeightedFair,
        Policy::Sjf,
        Policy::SjfAging,
    ]
}

/// Sum of per-query busy times vs. the session span, with a tolerance for
/// float re-association (per-query sums add the same kernel durations in a
/// different order than the mirror clock did).
fn assert_work_conserved(reports: &[QueryReport], ctx: &str) {
    let total_busy: f64 = reports.iter().map(|r| r.busy.secs()).sum();
    let start = reports
        .iter()
        .map(|r| r.arrival.secs())
        .fold(f64::INFINITY, f64::min);
    let end = reports
        .iter()
        .map(|r| r.completion.secs())
        .fold(0.0f64, f64::max);
    let makespan = end - start;
    assert!(
        (makespan - total_busy).abs() <= 1e-9 * total_busy.max(1e-9),
        "{ctx}: makespan {makespan} != total busy {total_busy}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Closed loop (all tenants present at start): under every policy the
    /// session is work-conserving — its makespan is exactly the sum of the
    /// kernel time its queries received — and every lifecycle is ordered.
    #[test]
    fn closed_loop_sessions_conserve_work(
        tenants in proptest::collection::vec((0u8..5, 0u8..3), 2..=6),
        policy_idx in 0usize..5,
    ) {
        let policy = all_policies()[policy_idx];
        let dev = device();
        let cat = catalog(&dev);
        let specs = tenants
            .iter()
            .map(|&(shape, budget)| {
                let mut s = QuerySpec::new(plan_of(shape));
                if let Some(b) = budget_of(budget) {
                    s = s.with_budget(b);
                }
                s
            })
            .collect();
        let reports = engine::run_queries(&dev, &cat, specs, policy);
        for r in &reports {
            prop_assert!(r.result.is_ok(), "q{}: {:?}", r.query, r.result.as_ref().err());
            prop_assert!(r.arrival <= r.admitted, "q{}: admitted before arrival", r.query);
            prop_assert!(r.admitted <= r.completion, "q{}: completed before admission", r.query);
        }
        assert_work_conserved(&reports, &format!("{policy:?}"));
    }

    /// Open loop over arbitrary schedules: every query completes (no
    /// starvation, including under aging), lifecycles are ordered, the
    /// service interval covers the query's own kernel time, and the total
    /// kernel time fits inside the session span.
    #[test]
    fn open_loop_lifecycles_are_ordered_and_complete(schedule in schedule_strategy(6)) {
        for policy in [Policy::Serial, Policy::Sjf, Policy::SjfAging] {
            let dev = device();
            let cat = catalog(&dev);
            let arrivals = arrivals_of(&schedule, dev.elapsed().secs());
            let reports = engine::run_open_loop(&dev, &cat, arrivals, policy);
            let mut total_busy = 0.0f64;
            for r in &reports {
                prop_assert!(r.result.is_ok(), "{policy:?} q{}: {:?}", r.query, r.result.as_ref().err());
                prop_assert!(r.arrival <= r.admitted);
                prop_assert!(r.admitted <= r.completion);
                let service = r.completion.secs() - r.admitted.secs();
                let busy = r.busy.secs();
                prop_assert!(
                    service >= busy * (1.0 - 1e-9),
                    "{policy:?} q{}: service {service} < own kernel time {busy}",
                    r.query
                );
                total_busy += busy;
            }
            let start = reports.iter().map(|r| r.arrival.secs()).fold(f64::INFINITY, f64::min);
            let end = reports.iter().map(|r| r.completion.secs()).fold(0.0f64, f64::max);
            prop_assert!(
                total_busy <= (end - start) * (1.0 + 1e-9),
                "{policy:?}: kernel time {total_busy} exceeds session span {}",
                end - start
            );
        }
    }

    /// Bounded queue: with every arrival at the same instant and budgets
    /// sized so exactly two reservations fit, the shed set is exactly what
    /// the waiting-room model predicts — an arrival is shed iff the
    /// waiting room already holds `cap` earlier arrivals (registration is
    /// sequential and nothing retires while it runs) — and the same
    /// schedule under an unbounded queue sheds nothing.
    #[test]
    fn shed_exactly_when_the_waiting_room_is_full(n in 3usize..=7, cap in 0usize..=2) {
        let run = |serving: &ServingConfig| -> Vec<QueryReport> {
            let dev = device();
            let cat = catalog(&dev);
            let free = dev.mem_capacity() - dev.mem_report().current_bytes;
            let budget = free * 2 / 5; // two fit, the third waits
            let t0 = dev.elapsed().secs();
            let arrivals = (0..n)
                .map(|i| {
                    OpenQuery::new(
                        SimTime::from_secs(t0),
                        "all",
                        QuerySpec::new(plan_of(i as u8)).with_budget(budget),
                    )
                })
                .collect();
            engine::run_open_loop_with(&dev, &cat, arrivals, Policy::Serial, serving)
        };

        // Reference model: ids 0 and 1 admit on arrival; each later id
        // joins the waiting room if it has space, and is shed otherwise.
        let mut expect_shed = vec![false; n];
        let mut waiting = 0usize;
        for shed in expect_shed.iter_mut().skip(2) {
            if waiting >= cap {
                *shed = true;
            } else {
                waiting += 1;
            }
        }

        let bounded = run(&ServingConfig::new().with_total_depth(cap));
        for (r, &shed) in bounded.iter().zip(&expect_shed) {
            if shed {
                match &r.result {
                    Err(EngineError::QueueShed { query }) => prop_assert_eq!(*query, r.query),
                    other => panic!("q{} should shed, got {:?}", r.query, other.as_ref().err()),
                }
                prop_assert_eq!(r.busy.secs().to_bits(), 0f64.to_bits(), "shed queries run nothing");
                prop_assert_eq!(
                    r.completion.secs().to_bits(),
                    r.arrival.secs().to_bits(),
                    "a shed query completes at its arrival"
                );
            } else {
                prop_assert!(r.result.is_ok(), "q{}: {:?}", r.query, r.result.as_ref().err());
            }
        }

        let unbounded = run(&ServingConfig::default());
        for r in &unbounded {
            prop_assert!(r.result.is_ok(), "unbounded queue must never shed (q{})", r.query);
        }
    }

    /// The shortest-job policies run queries in exactly the cost model's
    /// predicted order (ties toward the lower id). With simultaneous
    /// arrivals the aging divisor is common to all queries, so
    /// [`Policy::SjfAging`] must agree with [`Policy::Sjf`].
    #[test]
    fn sjf_completion_order_follows_predicted_costs(shapes in proptest::collection::vec(0u8..5, 2..=6)) {
        for policy in [Policy::Sjf, Policy::SjfAging] {
            let dev = device();
            let cat = catalog(&dev);
            let predicted: Vec<f64> = shapes
                .iter()
                .map(|&s| {
                    cost::estimate(dev.config(), &cat, &plan_of(s))
                        .expect("catalog plans estimate")
                        .secs
                })
                .collect();
            let specs = shapes.iter().map(|&s| QuerySpec::new(plan_of(s))).collect();
            let reports = engine::run_queries(&dev, &cat, specs, policy);
            for r in &reports {
                prop_assert!(r.result.is_ok());
            }
            let mut expected: Vec<usize> = (0..shapes.len()).collect();
            expected.sort_by(|&a, &b| {
                predicted[a].partial_cmp(&predicted[b]).unwrap().then(a.cmp(&b))
            });
            let mut actual: Vec<usize> = (0..shapes.len()).collect();
            actual.sort_by(|&a, &b| {
                reports[a]
                    .completion
                    .secs()
                    .partial_cmp(&reports[b].completion.secs())
                    .unwrap()
                    .then(a.cmp(&b))
            });
            prop_assert_eq!(
                &expected, &actual,
                "{:?}: completion order must follow predicted costs {:?}",
                policy, predicted
            );
        }
    }

    /// Plan-cache contract: a hit — recompiling the stored plan and
    /// replaying the recorded sampling observations into it on a fresh
    /// device —
    /// is byte-identical to the cold recording run on every observable:
    /// rows, schema, the full `OpStats` tree, and the rendered EXPLAIN.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_planning(shape in 0u8..5, threshold in 0i64..36) {
        let plan = match shape {
            0 => plan_of(3),
            1 => plan_of(4),
            2 => Plan::scan("lineitem")
                .filter(Expr::col("l_qty").gt(Expr::lit(threshold)))
                .aggregate("l_oid", vec![AggSpec::new(AggFn::Count, "l_qty", "n")]),
            3 => Plan::scan("lineitem")
                .filter(Expr::col("l_qty").lt(Expr::lit(threshold)))
                .distinct("l_oid"),
            _ => Plan::scan("orders").join(
                Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(threshold))),
                "o_id",
                "l_oid",
            ),
        };
        let mut cache = PlanCache::new(4);
        let cold_dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        let cold_cat = catalog(&cold_dev);
        let (cold, i0) = cache.execute(&cold_dev, &cold_cat, &plan).unwrap();
        let hot_dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        let hot_cat = catalog(&hot_dev);
        let (hot, i1) = cache.execute(&hot_dev, &hot_cat, &plan).unwrap();
        prop_assert_eq!(i0.outcome, CacheOutcome::Miss);
        prop_assert_eq!(i1.outcome, CacheOutcome::Hit);
        prop_assert_eq!(i0.fingerprint, i1.fingerprint);
        prop_assert_eq!(cold.table.rows_sorted(), hot.table.rows_sorted());
        prop_assert_eq!(cold.table.column_names(), hot.table.column_names());
        prop_assert_eq!(
            format!("{:?}", cold.stats),
            format!("{:?}", hot.stats),
            "OpStats trees must be byte-identical"
        );
        prop_assert_eq!(
            QueryExplain::from_stats(cold_dev.config(), &cold.stats).render(),
            QueryExplain::from_stats(hot_dev.config(), &hot.stats).render(),
            "EXPLAIN must be byte-identical"
        );
    }
}

proptest! {
    // Ten sessions per case (5 policies × 2 runs): fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full-export byte-identity across re-runs, under *every* policy
    /// — including the shortest-job pair — with a bounded queue in force so
    /// shed accounting is part of the compared bytes.
    #[test]
    fn exports_are_byte_identical_across_reruns_for_every_policy(
        schedule in schedule_strategy(5),
        depth in (0usize..=3).prop_map(|d| (d > 0).then_some(d)),
    ) {
        let mut serving = ServingConfig::new();
        if let Some(d) = depth {
            serving = serving.with_total_depth(d);
        }
        for policy in all_policies() {
            let run = || -> (String, String) {
                let dev = device();
                let cat = catalog(&dev);
                let arrivals = arrivals_of(&schedule, dev.elapsed().secs());
                let reports = engine::run_open_loop_with(&dev, &cat, arrivals, policy, &serving);
                for r in &reports {
                    if let Err(e) = &r.result {
                        assert!(
                            matches!(e, EngineError::QueueShed { .. }),
                            "q{}: unexpected {e:?}",
                            r.query
                        );
                    }
                }
                let snap = dev.metrics_snapshot().expect("metrics recorder is on");
                let snaps = std::slice::from_ref(&snap);
                (openmetrics(snaps), metrics_json(snaps))
            };
            let (a, b) = (run(), run());
            prop_assert_eq!(a, b, "{:?}: exports differ across re-runs", policy);
        }
    }
}

/// The order the thread-per-query turn gate left to the host scheduler:
/// when a query finished its last kernel, its retire raced the co-tenants'
/// next turns, so a waiting query's admission could land one or more turns
/// late. Seven simultaneous arrivals with half-pool budgets keep five
/// queries waiting on retires; under every policy each of them must be
/// admitted at bit-exactly the completion of the query that released its
/// budget, at a kernel-turn boundary, identically in all 50 repetitions.
#[test]
fn budget_waiters_are_admitted_exactly_at_the_releasing_completion() {
    const ARRIVALS: usize = 7;
    for policy in all_policies() {
        let mut first: Option<Vec<(u64, u64)>> = None;
        for rep in 0..50 {
            let dev = device();
            dev.enable_tracing();
            let cat = catalog(&dev);
            let free = dev.mem_capacity() - dev.mem_report().current_bytes;
            let t0 = dev.elapsed();
            let arrivals = (0..ARRIVALS)
                .map(|i| {
                    // Shapes 1..=4: every query launches kernels, so none
                    // retires at the instant it is admitted.
                    let spec = QuerySpec::new(plan_of(1 + i as u8 % 4)).with_budget(free / 2);
                    OpenQuery::new(t0, "all", spec)
                })
                .collect();
            let reports = engine::run_open_loop(&dev, &cat, arrivals, policy);
            let trace = dev.take_trace().expect("base tracing is on");
            let ctx = format!("{policy:?} rep {rep}");

            let mut waited = 0;
            for r in &reports {
                assert!(
                    r.result.is_ok(),
                    "{ctx} q{}: {:?}",
                    r.query,
                    r.result.as_ref().err()
                );
                let admitted = r.admitted.secs();
                if admitted > r.arrival.secs() {
                    waited += 1;
                    assert!(
                        reports.iter().any(|o| {
                            o.query != r.query
                                && o.completion.secs().to_bits() == admitted.to_bits()
                        }),
                        "{ctx} q{}: admitted at {admitted:e}, not at any co-tenant's completion",
                        r.query
                    );
                }
                for k in trace.kernels().filter(|k| k.query != Some(r.query)) {
                    assert!(
                        !(k.start < admitted && admitted < k.start + k.dur),
                        "{ctx} q{}: admitted at {admitted:e} inside q{:?}'s turn [{:e}, {:e}]",
                        r.query,
                        k.query,
                        k.start,
                        k.start + k.dur
                    );
                }
            }
            assert_eq!(waited, ARRIVALS - 2, "{ctx}: two reservations fit at once");

            let stamps: Vec<(u64, u64)> = reports
                .iter()
                .map(|r| (r.admitted.secs().to_bits(), r.completion.secs().to_bits()))
                .collect();
            match &first {
                None => first = Some(stamps),
                Some(f) => assert_eq!(f, &stamps, "{ctx}: session differs from rep 0"),
            }
        }
    }
}

/// Per-class depth through the engine: class names map to the device's
/// class indices in first-*arrival* order (not the config's), duplicate
/// entries keep the tightest depth, and a name no arrival carries limits
/// nothing. Three full-pool "a" queries arrive ahead of two "b" ones; with
/// depth 0 on "b" the b's are shed at the door while the a's — two of them
/// waiting — are not, and since FIFO admission would have served the b's
/// last anyway, every "a" report is unchanged to the bit by the limit.
#[test]
fn class_depth_sheds_only_its_class_and_leaves_co_tenants_unchanged() {
    let fingerprint = |r: &QueryReport| {
        let out = r.result.as_ref().expect("class a completes");
        format!(
            "{:?} {:?} {:?}",
            (out.table.rows_sorted(), &out.stats),
            [r.arrival, r.admitted, r.started, r.completion, r.busy].map(|t| t.secs().to_bits()),
            (r.budget_bytes, r.peak_mem_bytes),
        )
    };
    for policy in [Policy::Serial, Policy::RoundRobin, Policy::WeightedFair] {
        let run = |serving: &ServingConfig| {
            let dev = device();
            let cat = catalog(&dev);
            let free = dev.mem_capacity() - dev.mem_report().current_bytes;
            let t0 = dev.elapsed();
            let arrivals = ["a", "a", "a", "b", "b"]
                .iter()
                .enumerate()
                .map(|(i, class)| {
                    let spec = QuerySpec::new(plan_of(1 + i as u8)).with_budget(free);
                    OpenQuery::new(t0, *class, spec)
                })
                .collect();
            let reports = engine::run_open_loop_with(&dev, &cat, arrivals, policy, serving);
            let shed_total = |class: &str| {
                dev.metrics_snapshot()
                    .expect("metrics recorder is on")
                    .registry
                    .counter("query_shed_total", &[("class", class)])
            };
            (reports, shed_total("a"), shed_total("b"))
        };
        let limited = ServingConfig::new()
            .with_class_depth("b", 2)
            .with_class_depth("ghost", 0)
            .with_class_depth("b", 0)
            .with_class_depth("b", 2);
        let (with_limit, shed_a, shed_b) = run(&limited);
        let (without, ..) = run(&ServingConfig::new());

        assert_eq!((shed_a, shed_b), (0, 2), "{policy:?}: shed counters");
        for (r, free_run) in with_limit.iter().zip(&without) {
            assert!(free_run.result.is_ok(), "{policy:?}: no limit, no shed");
            if r.query < 3 {
                assert_eq!(
                    fingerprint(r),
                    fingerprint(free_run),
                    "{policy:?} q{}: a co-tenant of the limited class moved",
                    r.query
                );
            } else {
                assert!(
                    matches!(r.result, Err(EngineError::QueueShed { query }) if query == r.query),
                    "{policy:?} q{} (class b) must be shed: {:?}",
                    r.query,
                    r.result.as_ref().err()
                );
                assert_eq!(r.completion, r.arrival, "shed at the door");
            }
        }
    }
}
