//! Failure injection: the simulator surfaces the same hard edges a real GPU
//! deployment hits — out-of-memory on undersized devices, invalid gather
//! maps, mismatched schemas.

use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;
use std::panic::AssertUnwindSafe;

/// A device too small for the intermediate state of a wide join.
fn tiny_device() -> Device {
    let mut cfg = DeviceConfig::a100();
    cfg.global_mem_bytes = 1 << 20; // 1 MiB
    Device::new(cfg)
}

#[test]
fn join_oom_panics_with_allocation_context() {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let dev = tiny_device();
        let (r, s) = JoinWorkload::wide(1 << 16).generate(&dev);
        run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default())
    }));
    let err = match result {
        Ok(_) => panic!("a 1 MiB device cannot hold this join"),
        Err(e) => e,
    };
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("device out of memory"),
        "panic should identify the OOM, got: {msg}"
    );
}

#[test]
fn workload_that_fits_barely_succeeds() {
    // Same device, much smaller join: must complete.
    let dev = tiny_device();
    let (r, s) = JoinWorkload::narrow(1 << 8).generate(&dev);
    let out = run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
    assert_eq!(out.len(), 1 << 9);
}

#[test]
fn mismatched_key_types_rejected_for_every_algorithm() {
    let dev = Device::a100();
    let r = Relation::new("R", Column::from_i32(&dev, vec![1], "k"), vec![]);
    let s = Relation::new("S", Column::from_i64(&dev, vec![1], "k"), vec![]);
    for alg in [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
        Algorithm::Nphj,
        Algorithm::CpuRadix,
    ] {
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            joins::run_join(&dev, alg, &r, &s, &JoinConfig::default())
        }));
        assert!(res.is_err(), "{alg} must reject mixed key types");
    }
}

#[test]
fn aggregation_spec_arity_checked() {
    let dev = Device::a100();
    let input = Relation::new(
        "T",
        Column::from_i32(&dev, vec![1, 2], "k"),
        vec![Column::from_i32(&dev, vec![3, 4], "v")],
    );
    let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_group_by(
            &dev,
            GroupByAlgorithm::HashGlobal,
            &input,
            &[AggFn::Sum, AggFn::Sum], // two aggs, one payload
            &GroupByConfig::default(),
        )
    }));
    assert!(res.is_err(), "arity mismatch must be rejected");
}

#[test]
fn ledger_balances_after_oom_unwind() {
    // After an OOM panic unwinds, dropped buffers must leave the ledger
    // balanced (no phantom allocations).
    let dev = tiny_device();
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let (r, s) = JoinWorkload::wide(1 << 16).generate(&dev);
        joins::run_join(&dev, Algorithm::SmjOm, &r, &s, &JoinConfig::default())
    }));
    assert_eq!(
        dev.mem_report().current_bytes,
        0,
        "all buffers must be released during unwind"
    );
    assert_eq!(dev.mem_report().live_allocations, 0);
}

// ---------------------------------------------------------------------------
// Multi-query budget failures: a tenant that cannot live within its memory
// budget fails (or spills out-of-core) *alone* — with a typed engine error,
// a ledger that never crossed the budget, and co-tenants whose results and
// peak-memory ledgers are identical to running them single-query.
// ---------------------------------------------------------------------------

use gpu_join::engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use gpu_join::engine::{self, AggSpec, Catalog, EngineError, Expr, NodeStats, Plan, Table};

/// Catalog with one join pair plus a table wide enough that materializing a
/// filter over it cannot fit a deliberately tiny budget.
fn sched_catalog(dev: &Device) -> Catalog {
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
                Column::from_i32(dev, (0..512).map(|i| (i * 3) % 150).collect(), "l_oid"),
            ),
            (
                "l_qty",
                Column::from_i64(dev, (0..512).map(|i| (i * 7) % 29).collect(), "l_qty"),
            ),
        ],
    ));
    c.insert(Table::new(
        "big",
        vec![("v", Column::from_i64(dev, (0..(1i64 << 16)).collect(), "v"))],
    ));
    c
}

fn join_plan() -> Plan {
    Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid")
}

fn agg_plan() -> Plan {
    Plan::scan("lineitem").aggregate("l_oid", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")])
}

#[test]
fn over_budget_tenant_fails_typed_while_cotenants_match_oracle() {
    const TINY: u64 = 16 << 10; // 16 KiB: a 512 KiB filter output can't fit
    const AMPLE: u64 = 1 << 22;
    let dev = Device::a100();
    let cat = sched_catalog(&dev);
    let base_in_use = dev.mem_report().current_bytes;
    // Per-query traces carry each tenant's kernels, the failed one included.
    dev.enable_tracing();
    let counters_before = dev.counters();
    let specs = vec![
        QuerySpec::new(join_plan()).with_budget(AMPLE),
        QuerySpec::new(Plan::scan("big").filter(Expr::col("v").gt(Expr::lit(-1))))
            .with_budget(TINY),
        QuerySpec::new(agg_plan()).with_budget(AMPLE),
    ];
    let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
    let session = dev.counters().delta_since(&counters_before).0;

    // The over-budget tenant dies with the typed error, naming itself and
    // its budget — and its private ledger never crossed the budget.
    match &reports[1].result {
        Err(EngineError::BudgetExceeded {
            query,
            budget_bytes,
            requested_bytes,
            ..
        }) => {
            assert_eq!(*query, 1);
            assert_eq!(*budget_bytes, TINY);
            assert!(*requested_bytes > TINY, "the offending allocation is named");
        }
        other => panic!("expected BudgetExceeded, got {:?}", other.as_ref().err()),
    }
    assert!(reports[1].peak_mem_bytes <= TINY);

    // Co-tenants are unaffected: byte-for-byte the single-query outcome
    // under the same budget.
    for (i, plan) in [(0usize, join_plan()), (2usize, agg_plan())] {
        let solo_dev = Device::a100();
        let solo_cat = sched_catalog(&solo_dev);
        let solo = engine::run_queries(
            &solo_dev,
            &solo_cat,
            vec![QuerySpec::new(plan).with_budget(AMPLE)],
            Policy::Serial,
        );
        let (a, b) = (&reports[i], &solo[0]);
        let (x, y) = (
            a.result.as_ref().expect("co-tenant succeeds"),
            b.result.as_ref().expect("solo oracle succeeds"),
        );
        assert_eq!(x.table.rows_sorted(), y.table.rows_sorted(), "q{i} rows");
        assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes, "q{i} ledger peak");
        assert_eq!(
            a.busy.secs().to_bits(),
            b.busy.secs().to_bits(),
            "q{i} simulated busy time"
        );
    }

    // Query allocations live on private sub-ledgers: the base ledger holds
    // exactly the catalog, before and after the failed session.
    assert_eq!(dev.mem_report().current_bytes, base_in_use);

    // The device was charged exactly the kernels its tenants launched —
    // including the ones the failed tenant got through before it died.
    assert!(
        reports[1].busy.secs() > 0.0,
        "the failing tenant launched kernels before its allocation failed"
    );
    let mut launched = gpu_join::sim::Counters::default();
    for r in &reports {
        for k in r.trace.as_ref().expect("tracing was on").kernels() {
            launched += &k.work;
        }
    }
    // Cycles are an f64 sum taken in a different order; the rest is exact.
    assert!((session.cycles - launched.cycles).abs() <= 1e-9 * launched.cycles);
    launched.cycles = session.cycles;
    assert_eq!(session, launched);

    // The failure path closed the session: the device serves the next one.
    let again = engine::run_queries(
        &dev,
        &cat,
        vec![QuerySpec::new(agg_plan()).with_budget(AMPLE)],
        Policy::RoundRobin,
    );
    let (x, y) = (
        again[0].result.as_ref().unwrap(),
        reports[2].result.as_ref().unwrap(),
    );
    assert_eq!(x.table.rows_sorted(), y.table.rows_sorted());
}

#[test]
fn unsatisfiable_budget_is_rejected_at_admission() {
    let dev = Device::a100();
    let cat = sched_catalog(&dev);
    let absurd = dev.mem_capacity() * 2;
    let specs = vec![
        QuerySpec::new(join_plan()),
        QuerySpec::new(join_plan()).with_budget(absurd),
    ];
    let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
    assert!(reports[0].result.is_ok(), "co-tenant runs to completion");
    match &reports[1].result {
        Err(EngineError::BudgetUnsatisfiable {
            requested_bytes,
            available_bytes,
        }) => {
            assert_eq!(*requested_bytes, absurd);
            assert!(*available_bytes < absurd);
        }
        other => panic!(
            "expected BudgetUnsatisfiable, got {:?}",
            other.as_ref().err()
        ),
    }
}

#[test]
fn budget_capped_tenant_spills_out_of_core_and_stays_correct() {
    // A budget big enough to run chunk-by-chunk but far too small for the
    // direct join: the planner must spill out-of-core rather than fail —
    // and produce exactly the rows an uncapped device produces.
    let n = 1usize << 15;
    let build = |dev: &Device| {
        let mut c = Catalog::new();
        c.insert(Table::new(
            "r",
            vec![
                ("rk", Column::from_i32(dev, (0..n as i32).collect(), "rk")),
                (
                    "rv",
                    Column::from_i64(dev, (0..n as i64).map(|i| i * 3).collect(), "rv"),
                ),
            ],
        ));
        c.insert(Table::new(
            "s",
            vec![
                (
                    "sk",
                    Column::from_i32(
                        dev,
                        (0..n as i32).map(|i| (i * 5) % n as i32).collect(),
                        "sk",
                    ),
                ),
                (
                    "sv",
                    Column::from_i64(dev, (0..n as i64).map(|i| i + 1).collect(), "sv"),
                ),
            ],
        ));
        c
    };
    let plan = Plan::scan("r").join(Plan::scan("s"), "rk", "sk");

    let uncapped_dev = Device::a100();
    let oracle = engine::execute(&uncapped_dev, &build(&uncapped_dev), &plan)
        .expect("uncapped join succeeds");

    let budget = 1536u64 << 10; // 1.5 MiB — the direct join needs well over 2 MiB
    let dev = Device::a100();
    let cat = build(&dev);
    let reports = engine::run_queries(
        &dev,
        &cat,
        vec![QuerySpec::new(plan).with_budget(budget)],
        Policy::RoundRobin,
    );
    let out = reports[0]
        .result
        .as_ref()
        .expect("budgeted join spills, not fails");
    assert_eq!(out.table.rows_sorted(), oracle.table.rows_sorted());
    assert!(
        reports[0].peak_mem_bytes <= budget,
        "peak {} must respect the {budget} byte budget",
        reports[0].peak_mem_bytes
    );

    // Prove it actually went out-of-core: the join node's label records the
    // chunked re-plan.
    fn labels(n: &NodeStats, out: &mut Vec<String>) {
        out.push(n.label.clone());
        for c in &n.children {
            labels(c, out);
        }
    }
    let mut all = Vec::new();
    labels(&out.stats, &mut all);
    assert!(
        all.iter().any(|l| l.contains("chunked x")),
        "expected a chunked join node, got labels: {all:?}"
    );
}

// ---------------------------------------------------------------------------
// Admission-control failure edges: the serving path distinguishes two typed
// rejections — shed at a full queue vs rejected by the predicted-memory gate
// — and neither perturbs a co-tenant by a single byte.
// ---------------------------------------------------------------------------

/// A plan the predicted-memory gate must refuse under a tiny budget: its
/// materialized filter output alone is ~512 KiB.
fn doomed_plan() -> Plan {
    Plan::scan("big").filter(Expr::col("v").gt(Expr::lit(-1)))
}

#[test]
fn shed_and_reject_are_distinct_typed_errors_in_one_session() {
    const TINY: u64 = 16 << 10;
    let dev = Device::a100();
    let cat = sched_catalog(&dev);
    let free = dev.mem_capacity() - dev.mem_report().current_bytes;
    let budget = free * 2 / 5; // two reservations fit, a third cannot
    let t0 = dev.elapsed().secs();
    let at = SimTime::from_secs(t0);

    // Zero queue depth plus the memory gate: q0/q1 admit on arrival, q2
    // finds both reservations taken and nowhere to wait, q3 is refused by
    // the gate before it ever registers.
    let serving = ServingConfig::new().with_total_depth(0).with_memory_gate();
    let arrivals = vec![
        OpenQuery::new(at, "ok", QuerySpec::new(join_plan()).with_budget(budget)),
        OpenQuery::new(at, "ok", QuerySpec::new(agg_plan()).with_budget(budget)),
        OpenQuery::new(at, "ok", QuerySpec::new(join_plan()).with_budget(budget)),
        OpenQuery::new(
            at,
            "doomed",
            QuerySpec::new(doomed_plan()).with_budget(TINY),
        ),
    ];
    let reports = engine::run_open_loop_with(&dev, &cat, arrivals, Policy::Serial, &serving);

    assert!(
        reports[0].result.is_ok(),
        "{:?}",
        reports[0].result.as_ref().err()
    );
    assert!(
        reports[1].result.is_ok(),
        "{:?}",
        reports[1].result.as_ref().err()
    );

    // Shed at the full queue: the error names the query, and the query
    // observably never ran — no kernel time, completion at arrival.
    match &reports[2].result {
        Err(EngineError::QueueShed { query }) => assert_eq!(*query, 2),
        other => panic!("expected QueueShed, got {:?}", other.as_ref().err()),
    }
    assert_eq!(reports[2].busy.secs().to_bits(), 0f64.to_bits());
    assert_eq!(
        reports[2].completion.secs().to_bits(),
        reports[2].arrival.secs().to_bits()
    );

    // Rejected by the gate: a different variant, carrying the prediction
    // that doomed it — and the query never even registered.
    match &reports[3].result {
        Err(EngineError::AdmissionRejected {
            predicted_peak_bytes,
            budget_bytes,
        }) => {
            assert_eq!(*budget_bytes, TINY);
            assert!(
                *predicted_peak_bytes > TINY,
                "the rejection must carry the oversized prediction ({predicted_peak_bytes})"
            );
        }
        other => panic!("expected AdmissionRejected, got {:?}", other.as_ref().err()),
    }
    assert_eq!(reports[3].busy.secs().to_bits(), 0f64.to_bits());
    assert_eq!(
        reports[3].peak_mem_bytes, 0,
        "rejected queries never allocate"
    );
}

#[test]
fn cotenant_observables_are_unchanged_by_a_shed_coarrival() {
    // The same two-tenant session, with and without a third arrival that
    // gets shed: every co-tenant observable — rows, ledger peak, kernel
    // time, completion stamp — must be byte-identical.
    let serving = ServingConfig::new().with_total_depth(0);
    let run = |with_shed: bool| {
        let dev = Device::a100();
        let cat = sched_catalog(&dev);
        let free = dev.mem_capacity() - dev.mem_report().current_bytes;
        let budget = free * 2 / 5;
        let at = SimTime::from_secs(dev.elapsed().secs());
        let mut arrivals = vec![
            OpenQuery::new(at, "ok", QuerySpec::new(join_plan()).with_budget(budget)),
            OpenQuery::new(at, "ok", QuerySpec::new(agg_plan()).with_budget(budget)),
        ];
        if with_shed {
            arrivals.push(OpenQuery::new(
                at,
                "extra",
                QuerySpec::new(join_plan()).with_budget(budget),
            ));
        }
        engine::run_open_loop_with(&dev, &cat, arrivals, Policy::RoundRobin, &serving)
    };

    let baseline = run(false);
    let with_shed = run(true);
    assert!(matches!(
        with_shed[2].result,
        Err(EngineError::QueueShed { query: 2 })
    ));
    for i in 0..2 {
        let (a, b) = (&baseline[i], &with_shed[i]);
        let (x, y) = (
            a.result.as_ref().expect("baseline co-tenant succeeds"),
            b.result
                .as_ref()
                .expect("co-tenant succeeds despite the shed"),
        );
        assert_eq!(x.table.rows_sorted(), y.table.rows_sorted(), "q{i} rows");
        assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes, "q{i} ledger peak");
        assert_eq!(
            a.busy.secs().to_bits(),
            b.busy.secs().to_bits(),
            "q{i} busy"
        );
        assert_eq!(
            a.completion.secs().to_bits(),
            b.completion.secs().to_bits(),
            "q{i} completion stamp"
        );
    }
}

#[test]
fn zero_capacity_queue_degrades_to_pure_admission_control() {
    // With `total_depth = 0` there is no waiting room at all: an arrival
    // either admits on the spot or is shed on the spot. Whether it admits
    // is purely a memory question.
    let run = |budget_num: u64, budget_den: u64| {
        let dev = Device::a100();
        let cat = sched_catalog(&dev);
        let free = dev.mem_capacity() - dev.mem_report().current_bytes;
        let budget = free * budget_num / budget_den;
        let at = SimTime::from_secs(dev.elapsed().secs());
        let arrivals = (0..3)
            .map(|_| OpenQuery::new(at, "c", QuerySpec::new(agg_plan()).with_budget(budget)))
            .collect();
        engine::run_open_loop_with(
            &dev,
            &cat,
            arrivals,
            Policy::Serial,
            &ServingConfig::new().with_total_depth(0),
        )
    };

    // All three reservations fit: nothing ever needs to wait, so the
    // zero-capacity queue sheds nothing and everyone admits at arrival.
    let fits = run(1, 4);
    for r in &fits {
        assert!(
            r.result.is_ok(),
            "q{}: {:?}",
            r.query,
            r.result.as_ref().err()
        );
        assert_eq!(
            r.admitted.secs().to_bits(),
            r.arrival.secs().to_bits(),
            "q{}: with capacity free nothing queues",
            r.query
        );
    }

    // Only two fit: the third would have to wait, and with no waiting room
    // that means an immediate shed — pure admission control.
    let pressured = run(2, 5);
    assert!(pressured[0].result.is_ok());
    assert!(pressured[1].result.is_ok());
    assert!(matches!(
        pressured[2].result,
        Err(EngineError::QueueShed { query: 2 })
    ));
    assert_eq!(
        pressured[2].completion.secs().to_bits(),
        pressured[2].arrival.secs().to_bits(),
        "a zero-capacity shed is decided at the arrival instant"
    );
}
