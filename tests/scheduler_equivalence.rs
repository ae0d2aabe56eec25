//! The scheduler's central correctness claim: concurrency is *unobservable*
//! per query. Any mix of up to 8 concurrent queries — random plan shapes
//! over joins and group-bys, random budget splits, random fair-share
//! weights — produces byte-identical per-query outputs, `OpStats` and
//! traces under [`Policy::RoundRobin`] and [`Policy::WeightedFair`] as
//! under [`Policy::Serial`] (the same specs run to completion one at a
//! time). Queries that blow their budget must fail *identically* too.

use gpu_join::engine::{self, AggSpec, Catalog, Expr, NodeStats, Plan, QueryReport, Table};
use gpu_join::prelude::*;
use gpu_join::sim::trace::jsonl;
use proptest::prelude::*;

use engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use engine::EngineError;
use gpu_join::sim::QuerySchedStats;

/// One proptest-chosen tenant: a plan shape, a predicate knob, a fair-share
/// weight and a budget choice. Plain data so proptest can shrink it.
#[derive(Debug, Clone)]
struct TenantDesc {
    shape: u8,
    threshold: i32,
    weight: u8,
    budget: u8,
}

fn tenant_strategy() -> impl Strategy<Value = Vec<TenantDesc>> {
    proptest::collection::vec(
        (0u8..6, 0i32..64, 1u8..=4, 0u8..3).prop_map(|(shape, threshold, weight, budget)| {
            TenantDesc {
                shape,
                threshold,
                weight,
                budget,
            }
        }),
        1..=8,
    )
}

/// Deterministic two-table catalog (the Q3/Q18 shape at toy scale).
fn catalog(dev: &Device) -> Catalog {
    let n_orders = 256usize;
    let n_lines = 1024usize;
    let mut c = Catalog::new();
    c.insert(Table::new(
        "orders",
        vec![
            (
                "o_id",
                Column::from_i32(dev, (0..n_orders as i32).collect(), "o_id"),
            ),
            (
                "o_cust",
                Column::from_i32(
                    dev,
                    (0..n_orders as i32).map(|i| (i * 7) % 41).collect(),
                    "o_cust",
                ),
            ),
        ],
    ));
    c.insert(Table::new(
        "lineitem",
        vec![
            (
                "l_oid",
                Column::from_i32(
                    dev,
                    (0..n_lines as i32).map(|i| (i * 13) % 300).collect(),
                    "l_oid",
                ),
            ),
            (
                "l_qty",
                Column::from_i64(
                    dev,
                    (0..n_lines as i64).map(|i| (i * 31) % 97).collect(),
                    "l_qty",
                ),
            ),
        ],
    ));
    c
}

fn plan_of(d: &TenantDesc) -> Plan {
    match d.shape {
        0 => Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(d.threshold as i64))),
        1 => Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid"),
        2 => Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate(
                "o_cust",
                vec![
                    AggSpec::new(AggFn::Sum, "l_qty", "total_qty"),
                    AggSpec::new(AggFn::Max, "o_id", "max_order"),
                ],
            ),
        3 => Plan::scan("lineitem").distinct("l_oid"),
        4 => Plan::scan("lineitem").sort_by("l_qty", true, Some(16)),
        _ => Plan::scan("orders")
            .join(
                Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(d.threshold as i64))),
                "o_id",
                "l_oid",
            )
            .aggregate("o_id", vec![AggSpec::new(AggFn::Count, "l_qty", "lines")]),
    }
}

fn spec_of(d: &TenantDesc) -> QuerySpec {
    let spec = QuerySpec::new(plan_of(d)).with_weight(d.weight as f64);
    match d.budget {
        // An equal share of the free capacity — always ample here.
        0 => spec,
        // Ample explicit budget.
        1 => spec.with_budget(1 << 22),
        // Tight budget: joins may re-plan out-of-core or fail with
        // BudgetExceeded — in which case they must do so *identically*
        // under every policy.
        _ => spec.with_budget(48 << 10),
    }
}

fn run(tenants: &[TenantDesc], policy: Policy) -> Vec<QueryReport> {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_tracing();
    let catalog = catalog(&dev);
    let specs = tenants.iter().map(spec_of).collect();
    engine::run_queries(&dev, &catalog, specs, policy)
}

/// Flatten a stats tree to `(label, canonical JSON of the node's OpStats)`
/// pairs — `OpStats` has no `PartialEq`, but its serialized form is the
/// byte-level fingerprint the results files persist.
fn flatten_stats(n: &NodeStats, out: &mut Vec<(String, String)>) {
    out.push((
        n.label.clone(),
        serde_json::to_string(&n.op).expect("OpStats serializes"),
    ));
    for c in &n.children {
        flatten_stats(c, out);
    }
}

/// Canonical `(label, OpStats JSON)` form of one operator with the query
/// tag stripped, so solo (`query: None`) and in-session (`query: Some(q)`)
/// runs of the same plan compare equal. `strip_ledger` additionally zeroes
/// `peak_mem_bytes`: peaks are ledger-scoped (device-wide solo vs
/// per-tenant in-session), so solo-vs-shared comparisons exclude them.
fn canonical_op(label: &str, op: &OpStats, strip_ledger: bool) -> (String, String) {
    let mut op = op.clone();
    op.query = None;
    if strip_ledger {
        op.peak_mem_bytes = 0;
    }
    (
        label.to_string(),
        serde_json::to_string(&op).expect("OpStats serializes"),
    )
}

/// A report's operators flattened in pre-order, `(label, OpStats)` per
/// node; empty when the query failed.
fn breakdown(report: &QueryReport) -> Vec<(String, OpStats)> {
    fn walk(n: &NodeStats, out: &mut Vec<(String, OpStats)>) {
        out.push((n.label.clone(), n.op.clone()));
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut rows = Vec::new();
    if let Ok(out) = &report.result {
        walk(&out.stats, &mut rows);
    }
    rows
}

/// Canonical form of a report's per-operator breakdown.
fn canonical_breakdown(report: &QueryReport, strip_ledger: bool) -> Vec<(String, String)> {
    breakdown(report)
        .iter()
        .map(|(label, op)| canonical_op(label, op, strip_ledger))
        .collect()
}

/// Pre-order canonical form of a stats tree (the solo-run counterpart of
/// [`canonical_breakdown`]).
fn canonical_tree(n: &NodeStats, strip_ledger: bool, out: &mut Vec<(String, String)>) {
    out.push(canonical_op(&n.label, &n.op, strip_ledger));
    for c in &n.children {
        canonical_tree(c, strip_ledger, out);
    }
}

fn assert_reports_identical(a: &QueryReport, b: &QueryReport, ctx: &str) {
    assert_eq!(a.query, b.query, "{ctx}: spec index");
    assert_eq!(a.budget_bytes, b.budget_bytes, "{ctx}: budget");
    assert_eq!(
        a.busy.secs().to_bits(),
        b.busy.secs().to_bits(),
        "{ctx}: simulated busy time must be bit-identical"
    );
    assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes, "{ctx}: ledger peak");
    match (&a.result, &b.result) {
        (Ok(x), Ok(y)) => {
            assert_eq!(
                x.table.column_names(),
                y.table.column_names(),
                "{ctx}: output schema"
            );
            for (name, col) in x.table.columns() {
                let other = y.table.column(name).expect("same schema");
                assert_eq!(
                    col.to_vec_i64(),
                    other.to_vec_i64(),
                    "{ctx}: column {name:?} values"
                );
            }
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            flatten_stats(&x.stats, &mut sa);
            flatten_stats(&y.stats, &mut sb);
            assert_eq!(sa, sb, "{ctx}: per-node OpStats");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{ctx}: error"),
        (x, y) => panic!(
            "{ctx}: outcome diverged across policies: {:?} vs {:?}",
            x.as_ref().map(|o| o.table.num_rows()),
            y.as_ref().map(|o| o.table.num_rows())
        ),
    }
    // The flattened breakdown and the attributed explain are derived from
    // the same stats, so they must agree byte-for-byte across policies too.
    assert_eq!(
        canonical_breakdown(a, false),
        canonical_breakdown(b, false),
        "{ctx}: per-operator breakdown"
    );
    let cfg = DeviceConfig::a100().scaled(8192.0);
    assert_eq!(
        a.explain(&cfg).map(|e| e.render()),
        b.explain(&cfg).map(|e| e.render()),
        "{ctx}: rendered explain"
    );
    let (ta, tb) = (&a.trace, &b.trace);
    assert_eq!(
        ta.is_some(),
        tb.is_some(),
        "{ctx}: trace presence must agree"
    );
    if let (Some(ta), Some(tb)) = (ta, tb) {
        assert_eq!(
            jsonl(std::slice::from_ref(ta)),
            jsonl(std::slice::from_ref(tb)),
            "{ctx}: per-query traces must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: per-query observables under a concurrent
    /// policy are byte-identical to the serial oracle.
    #[test]
    fn concurrent_policies_match_serial_oracle(tenants in tenant_strategy()) {
        let serial = run(&tenants, Policy::Serial);
        for policy in [Policy::RoundRobin, Policy::WeightedFair] {
            let concurrent = run(&tenants, policy);
            prop_assert_eq!(serial.len(), concurrent.len());
            for (a, b) in serial.iter().zip(&concurrent) {
                assert_reports_identical(a, b, &format!("{policy:?} q{}", a.query));
            }
        }
    }
}

/// Eight ample-budget tenants each compute the same answer (and simulated
/// operator time) the plain single-query `execute` path computes on a
/// private device — the query handles virtualize the device completely.
#[test]
fn eight_concurrent_queries_match_solo_execution() {
    let tenants: Vec<TenantDesc> = (0..8)
        .map(|i| TenantDesc {
            shape: i as u8 % 6,
            threshold: 11 * i,
            weight: 1 + (i as u8 % 3),
            budget: 0,
        })
        .collect();
    let concurrent = run(&tenants, Policy::RoundRobin);
    assert_eq!(concurrent.len(), 8);
    for (d, report) in tenants.iter().zip(&concurrent) {
        let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        let catalog = catalog(&dev);
        let solo = engine::execute(&dev, &catalog, &plan_of(d)).expect("solo run succeeds");
        let shared = report.result.as_ref().expect("concurrent run succeeds");
        assert_eq!(solo.table.rows_sorted(), shared.table.rows_sorted());
        // `OpStats::query` differs by construction (None solo, Some(q)
        // shared), so compare the simulated time rather than bytes.
        assert_eq!(
            solo.stats.total_time().secs().to_bits(),
            shared.stats.total_time().secs().to_bits(),
            "q{}: simulated time must not depend on co-tenants",
            report.query
        );
        // The report's flattened per-operator breakdown equals the solo
        // run's stats tree, node for node. Peaks are stripped: the solo run
        // measures them against the base ledger (catalog resident), a
        // tenant against its own empty sub-ledger — all attributed *work*
        // (counters, times, rows) must still match exactly.
        let mut solo_flat = Vec::new();
        canonical_tree(&solo.stats, true, &mut solo_flat);
        assert_eq!(
            solo_flat,
            canonical_breakdown(report, true),
            "q{}: per-tenant breakdown must equal the solo-run breakdown",
            report.query
        );
    }
}

/// A session of one query under every policy is just that query: identical
/// to `Policy::Serial` with itself, and `busy` covers the whole run.
#[test]
fn single_tenant_session_is_policy_invariant() {
    let tenant = [TenantDesc {
        shape: 2,
        threshold: 5,
        weight: 1,
        budget: 0,
    }];
    let serial = run(&tenant, Policy::Serial);
    for policy in [Policy::RoundRobin, Policy::WeightedFair] {
        let other = run(&tenant, policy);
        assert_reports_identical(&serial[0], &other[0], &format!("{policy:?}"));
    }
}

// --- Repeated-spec sessions -------------------------------------------------
//
// Open-loop serving sends the same few plans over and over. Each tenant of
// such a session must be indistinguishable from the same arrival served
// alone: same result bytes, same per-operator breakdown (query tags
// included, once the solo run's id is mapped to the tenant's), same
// per-query trace up to the query id, and the same schedule record.

/// The three tenant classes of a repeated-spec session: a join feeding an
/// aggregate with an ample budget, the same plan under a budget it
/// overruns (so the two differ only in the budget, and the second fails
/// with `BudgetExceeded`), and a distinct over one column.
const CLASSES: [&str; 3] = ["ample", "tight", "distinct"];

fn class_spec(class: usize) -> QuerySpec {
    let join = TenantDesc {
        shape: 2,
        threshold: 0,
        weight: 1,
        budget: 1,
    };
    match class {
        0 => spec_of(&join),
        1 => QuerySpec::new(plan_of(&join)).with_budget(24 << 10),
        _ => spec_of(&TenantDesc {
            shape: 3,
            weight: 2,
            ..join
        }),
    }
}

/// `n` arrivals cycling through the classes, `gap` simulated seconds apart.
fn repeated_arrivals(n: usize, gap: f64) -> Vec<OpenQuery> {
    (0..n)
        .map(|i| {
            let class = i % CLASSES.len();
            OpenQuery::new(
                SimTime::from_secs(i as f64 * gap),
                CLASSES[class],
                class_spec(class),
            )
        })
        .collect()
}

fn serving(replay: bool) -> ServingConfig {
    let config = CLASSES
        .iter()
        .fold(ServingConfig::new(), |c, class| c.with_slo(*class, 2e-6));
    if replay {
        config.with_replay()
    } else {
        config
    }
}

/// What one session leaves: the reports, each registered query's schedule
/// record, and the device-wide base trace's JSONL and metrics export.
struct Served {
    reports: Vec<QueryReport>,
    sched: Vec<QuerySchedStats>,
    base_trace: String,
    metrics: String,
}

/// One traced, metered open-loop session on a fresh device, with or
/// without replay.
fn open_session(arrivals: Vec<OpenQuery>, policy: Policy, replay: bool) -> Served {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_tracing();
    dev.enable_metrics(SimTime::from_secs(1e-9));
    let catalog = catalog(&dev);
    let reports = engine::run_open_loop_with(&dev, &catalog, arrivals, policy, &serving(replay));
    let sched = (0..reports.len() as u32)
        .map(|q| dev.sched_query_stats(q))
        .collect();
    let trace = dev.take_trace().expect("tracing was enabled");
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    Served {
        reports,
        sched,
        base_trace: jsonl(std::slice::from_ref(&trace)),
        metrics: gpu_join::sim::metrics_json(std::slice::from_ref(&snap)),
    }
}

/// A per-query trace's JSONL with query id `q` renamed to 0.
fn trace_as_q0(trace: &gpu_join::sim::Trace, q: u32) -> String {
    jsonl(std::slice::from_ref(trace))
        .replace(&format!("\"query\":{q},"), "\"query\":0,")
        .replace(&format!("#q{q}\""), "#q0\"")
}

/// Tenant `q` of a session against the same arrival served alone: `full`
/// also compares the schedule's clock stamps, which equal the solo
/// session's only when no co-tenant delayed the tenant.
fn assert_matches_solo(
    arrival: &OpenQuery,
    shared: (&QueryReport, &QuerySchedStats),
    policy: Policy,
    full: bool,
) {
    let (report, sched) = shared;
    let q = report.query;
    let ctx = format!("{policy:?} q{q} ({})", arrival.class);
    let Served {
        reports: solo,
        sched: solo_sched,
        ..
    } = open_session(vec![arrival.clone()], policy, false);
    let solo = &solo[0];
    match (&report.result, &solo.result) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.table.column_names(), y.table.column_names(), "{ctx}");
            for ((_, a), (_, b)) in x.table.columns().iter().zip(y.table.columns()) {
                assert_eq!(a.to_vec_i64(), b.to_vec_i64(), "{ctx}: result bytes");
            }
        }
        (Err(x), Err(y)) => {
            let rename =
                |e: &EngineError| format!("{e:?}").replace(&format!("query: {q},"), "query: 0,");
            assert_eq!(rename(x), format!("{y:?}"), "{ctx}: error");
        }
        (x, y) => panic!(
            "{ctx}: outcome differs from the solo session: {:?} vs {:?}",
            x.as_ref().err(),
            y.as_ref().err()
        ),
    }
    let tagged = |report: &QueryReport, from: u32| -> Vec<(String, String)> {
        breakdown(report)
            .into_iter()
            .map(|(label, mut op)| {
                assert_eq!(
                    op.query,
                    Some(from),
                    "{ctx}: operator tagged with its query"
                );
                op.query = Some(q);
                (
                    label,
                    serde_json::to_string(&op).expect("OpStats serializes"),
                )
            })
            .collect()
    };
    assert_eq!(tagged(report, q), tagged(solo, 0), "{ctx}: breakdown");
    assert_eq!(
        report.peak_mem_bytes, solo.peak_mem_bytes,
        "{ctx}: ledger peak"
    );
    let shared_trace = report.trace.as_ref().expect("traced session");
    let solo_trace = solo.trace.as_ref().expect("traced session");
    assert_eq!(
        trace_as_q0(shared_trace, q),
        jsonl(std::slice::from_ref(solo_trace)),
        "{ctx}: per-query trace"
    );
    let solo_sched = &solo_sched[0];
    assert_eq!(
        sched.busy_secs.to_bits(),
        solo_sched.busy_secs.to_bits(),
        "{ctx}: busy"
    );
    assert_eq!(
        sched.arrival_secs.to_bits(),
        solo_sched.arrival_secs.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        (sched.budget_bytes, sched.shed, &sched.class, sched.slo_secs),
        (
            solo_sched.budget_bytes,
            solo_sched.shed,
            &solo_sched.class,
            solo_sched.slo_secs
        ),
        "{ctx}: schedule record"
    );
    if full {
        assert_eq!(
            format!("{sched:?}"),
            format!("{solo_sched:?}"),
            "{ctx}: schedule record, clock stamps included"
        );
    }
}

const ALL_POLICIES: [Policy; 5] = [
    Policy::Serial,
    Policy::RoundRobin,
    Policy::WeightedFair,
    Policy::Sjf,
    Policy::SjfAging,
];

/// Thirty-three arrivals of three repeated specs, close enough that they
/// queue and interleave, under every policy, executed and replayed: each
/// tenant is its solo session, up to the query id and the clock stamps
/// co-tenants move.
#[test]
fn repeated_spec_tenants_match_their_solo_sessions() {
    for (policy, replay) in ALL_POLICIES.iter().flat_map(|p| [(*p, false), (*p, true)]) {
        let arrivals = repeated_arrivals(33, DENSE_GAP);
        let served = open_session(arrivals.clone(), policy, replay);
        assert!(
            served
                .reports
                .iter()
                .any(|r| r.queue_wait() > SimTime::ZERO),
            "{policy:?}: the session must queue"
        );
        for ((arrival, report), sched) in arrivals.iter().zip(&served.reports).zip(&served.sched) {
            assert_matches_solo(arrival, (report, sched), policy, false);
        }
    }
}

/// The same specs spaced so each tenant finds the device idle: then even
/// the schedule's clock stamps are the solo session's, bit for bit.
#[test]
fn spaced_repeated_spec_tenants_match_their_solo_sessions_exactly() {
    for (policy, replay) in ALL_POLICIES.iter().flat_map(|p| [(*p, false), (*p, true)]) {
        let arrivals = repeated_arrivals(12, SPACED_GAP);
        let served = open_session(arrivals.clone(), policy, replay);
        for ((arrival, report), sched) in arrivals.iter().zip(&served.reports).zip(&served.sched) {
            assert_eq!(
                report.queue_wait(),
                SimTime::ZERO,
                "spaced arrivals never queue"
            );
            assert_matches_solo(arrival, (report, sched), policy, true);
        }
    }
}

/// A replaying session is the executing one, byte for byte: every report,
/// schedule record, base trace and metrics export, under every policy.
#[test]
fn replaying_a_repeated_spec_session_changes_no_observable() {
    for policy in ALL_POLICIES {
        let arrivals = repeated_arrivals(33, DENSE_GAP);
        let executed = open_session(arrivals.clone(), policy, false);
        let replayed = open_session(arrivals, policy, true);
        for (a, b) in executed.reports.iter().zip(&replayed.reports) {
            assert_reports_identical(a, b, &format!("{policy:?} q{}", a.query));
        }
        assert_eq!(
            format!("{:?}", executed.sched),
            format!("{:?}", replayed.sched),
            "{policy:?}: schedule records"
        );
        assert_eq!(
            executed.base_trace, replayed.base_trace,
            "{policy:?}: base trace"
        );
        assert_eq!(executed.metrics, replayed.metrics, "{policy:?}: metrics");
    }
}

const DENSE_GAP: f64 = 1e-7;
const SPACED_GAP: f64 = 1e-3;
