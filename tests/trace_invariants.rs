//! Invariants of the `sim::trace` subsystem, checked end to end through
//! the real execution stack:
//!
//! * kernel-event durations account for exactly the simulated time the
//!   hardware counters report (`Counters::cycles / clock_hz`);
//! * spans nest — any two spans on a device are either disjoint or one
//!   contains the other;
//! * phase spans reproduce the reported [`PhaseTimes`], and operator spans
//!   reproduce [`OpStats::total_time`], within 1 ns of simulated time;
//! * traces are byte-identical across re-runs and with metrics on or off
//!   (the trace is derived under the device lock from state that is itself
//!   deterministic, and the metrics fold only reads the events it shares
//!   with the trace).

use gpu_join::engine::{execute, AggSpec, Catalog, Plan, QueryOutput, Table};
use gpu_join::prelude::*;
use gpu_join::sim::trace::{chrome_trace_json, jsonl, SpanEvent, Trace};
use gpu_join::sim::SpanCat;
use gpu_join::workloads::JoinWorkload;

/// 1 ns of simulated time — the acceptance tolerance for span sums.
const NS: f64 = 1e-9;

fn traced_device() -> Device {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_tracing();
    dev
}

fn spans_of(trace: &Trace, cat: SpanCat) -> Vec<SpanEvent> {
    trace.spans().filter(|s| s.cat == cat).cloned().collect()
}

/// Join a 2^14-tuple wide workload's R and S on their key with `join`, then
/// SUM every payload column per key with `group`: one engine plan.
fn join_then_group(dev: &Device, join: Algorithm, group: GroupByAlgorithm) -> QueryOutput {
    let (r, s) = JoinWorkload::wide(1 << 14).generate(dev);
    let mut catalog = Catalog::new();
    let mut aggs = Vec::new();
    for (name, rel) in [("r", &r), ("s", &s)] {
        let mut cols = vec![("k".to_string(), rel.key().alias())];
        for (i, c) in rel.payloads().iter().enumerate() {
            let col = format!("{name}{i}");
            aggs.push(AggSpec::new(AggFn::Sum, col.clone(), format!("sum_{col}")));
            cols.push((col, c.alias()));
        }
        catalog.insert(Table::from_columns(name, cols));
    }
    let plan = Plan::scan("r")
        .join(Plan::scan("s"), "k", "k")
        .with_join_algorithm(join)
        .aggregate("k", aggs)
        .with_group_algorithm(group);
    execute(dev, &catalog, &plan).expect("the plan binds against its catalog")
}

#[test]
fn kernel_durations_sum_to_counter_cycles() {
    for alg in [Algorithm::PhjUm, Algorithm::SmjOm, Algorithm::Nphj] {
        let dev = traced_device();
        let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
        let _ = gpu_join::joins::run_join(&dev, alg, &r, &s, &JoinConfig::default());
        let counters = dev.counters();
        let trace = dev.take_trace().expect("tracing was enabled");

        let kernel_secs: f64 = trace.kernels().map(|k| k.dur).sum();
        let counter_secs = counters.cycles / dev.config().clock_hz;
        assert_eq!(trace.kernels().count() as u64, counters.kernel_launches);
        assert!(
            (kernel_secs - counter_secs).abs() <= counter_secs * 1e-9,
            "{alg:?}: kernel events cover {kernel_secs}s but counters say {counter_secs}s"
        );
    }
}

#[test]
fn spans_nest_without_overlap() {
    let dev = traced_device();
    let _ = join_then_group(&dev, Algorithm::PhjUm, GroupByAlgorithm::SortGftr);
    let trace = dev.take_trace().expect("tracing was enabled");
    let spans: Vec<&SpanEvent> = trace.spans().collect();
    assert!(spans.len() > 8, "the plan should produce a rich span tree");

    for (i, a) in spans.iter().enumerate() {
        for b in spans.iter().skip(i + 1) {
            let disjoint = a.end <= b.start + NS || b.end <= a.start + NS;
            let a_in_b = b.start <= a.start + NS && a.end <= b.end + NS;
            let b_in_a = a.start <= b.start + NS && b.end <= a.end + NS;
            assert!(
                disjoint || a_in_b || b_in_a,
                "spans overlap without nesting: {:?} [{}, {}] vs {:?} [{}, {}]",
                a.name,
                a.start,
                a.end,
                b.name,
                b.start,
                b.end
            );
        }
    }
}

#[test]
fn phase_spans_reproduce_reported_phase_times() {
    for alg in [Algorithm::PhjUm, Algorithm::PhjOm, Algorithm::SmjUm] {
        let dev = traced_device();
        let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
        let out = gpu_join::joins::run_join(&dev, alg, &r, &s, &JoinConfig::default());
        let trace = dev.take_trace().expect("tracing was enabled");

        let join_spans = spans_of(&trace, SpanCat::Join);
        assert_eq!(join_spans.len(), 1);
        let join = &join_spans[0];
        assert_eq!(join.name, alg.name());
        // run_join attributes every simulated instant to a phase
        // (`other` stays zero), so the covering span *is* the phase total.
        assert!(
            (join.dur() - out.stats.total_time().secs()).abs() <= NS,
            "{alg:?}: join span {}s vs OpStats::total_time {}s",
            join.dur(),
            out.stats.total_time().secs()
        );

        let phase_secs: f64 = spans_of(&trace, SpanCat::Phase)
            .iter()
            .filter(|p| join.start <= p.start + NS && p.end <= join.end + NS)
            .map(SpanEvent::dur)
            .sum();
        let reported = out.stats.phases.total().secs();
        assert!(
            (phase_secs - reported).abs() <= NS,
            "{alg:?}: phase spans sum to {phase_secs}s but PhaseTimes::total is {reported}s"
        );
    }
}

#[test]
fn operator_span_durations_match_op_stats() {
    let dev = traced_device();
    let out = join_then_group(&dev, Algorithm::PhjOm, GroupByAlgorithm::HashGlobal);
    let trace = dev.take_trace().expect("tracing was enabled");

    // Flatten the engine's stats tree: label -> node-only total_time.
    fn flatten(n: &gpu_join::engine::NodeStats, out: &mut Vec<(String, f64)>) {
        out.push((n.label.clone(), n.op.total_time().secs()));
        for c in &n.children {
            flatten(c, out);
        }
    }
    let mut nodes = Vec::new();
    flatten(&out.stats, &mut nodes);

    let op_spans = spans_of(&trace, SpanCat::Operator);
    assert_eq!(
        op_spans.len(),
        nodes.len(),
        "one operator span per plan node"
    );
    for (label, secs) in nodes {
        let span = op_spans
            .iter()
            .find(|s| s.name == label)
            .unwrap_or_else(|| panic!("no operator span labelled {label:?}"));
        assert!(
            (span.dur() - secs).abs() <= NS,
            "{label}: span {}s vs OpStats::total_time {}s",
            span.dur(),
            secs
        );
    }
}

#[test]
fn traces_are_byte_identical_across_reruns_and_metrics() {
    let run = |metrics: bool| -> Trace {
        let dev = traced_device();
        if metrics {
            // Attached to a live trace, with one sample per launch: the
            // busiest metrics fold there is.
            dev.enable_metrics(SimTime::from_secs(1e-9));
        }
        let _ = join_then_group(&dev, Algorithm::PhjUm, GroupByAlgorithm::SortGftr);
        dev.take_trace().expect("tracing was enabled")
    };
    let t1 = run(false);
    let a = std::slice::from_ref(&t1);
    for metrics in [false, true] {
        let other = run(metrics);
        let b = std::slice::from_ref(&other);
        assert_eq!(
            jsonl(a),
            jsonl(b),
            "JSONL export differs on a re-run with metrics {metrics}"
        );
        assert_eq!(
            chrome_trace_json(a),
            chrome_trace_json(b),
            "Chrome export differs on a re-run with metrics {metrics}"
        );
    }
}

/// Dropping a catalog frees its tables at one frozen instant, and the
/// trace coalesces that burst into one `mem` sample whose high-water is the
/// ledger after the *first* free — so the free order must not depend on a
/// per-process hash seed.
#[test]
fn catalog_drop_order_leaves_the_trace_reproducible() {
    use gpu_join::engine::{Catalog, Table};
    let run = || -> String {
        let dev = traced_device();
        let mut catalog = Catalog::new();
        for (i, name) in ["nation", "customer", "orders", "lineitem", "part"]
            .into_iter()
            .enumerate()
        {
            let rows = 64 << i;
            let col = Column::from_i32(&dev, (0..rows).collect(), "id");
            catalog.insert(Table::new(name, vec![("id", col)]));
        }
        // Advance the clock so the drop below opens a fresh `mem` sample.
        dev.kernel("tick").items(1 << 10, 1.0).launch();
        drop(catalog);
        jsonl(&[dev.take_trace().expect("tracing was enabled")])
    };
    let first = run();
    assert!(first.contains(r#""type":"mem""#), "no mem samples traced");
    for i in 1..8 {
        assert_eq!(first, run(), "run {i}: JSONL differs from run 0");
    }
}

#[test]
fn disabled_tracing_leaves_results_untouched() {
    let run = |traced: bool| {
        let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        if traced {
            dev.enable_tracing();
        }
        let (r, s) = JoinWorkload::wide(1 << 14).generate(&dev);
        let out = gpu_join::joins::run_join(&dev, Algorithm::PhjUm, &r, &s, &JoinConfig::default());
        (out.len(), out.stats.total_time(), dev.counters().cycles)
    };
    assert_eq!(
        run(false),
        run(true),
        "tracing must not perturb the simulation"
    );
}

// ---------------------------------------------------------------------------
// Multi-query sessions: interleaving must not corrupt any of the above.
// Each tenant's private trace still nests and still accounts for exactly its
// own OpStats; its ledger timeline never crosses its budget; and the base
// device's trace carries the interleaved timeline with every kernel tagged
// by its owning query.
// ---------------------------------------------------------------------------

mod multi_query {
    use super::*;
    use gpu_join::engine::scheduler::{Policy, QuerySpec};
    use gpu_join::engine::{self, AggSpec, Catalog, Expr, Plan, Table};

    const BUDGET: u64 = 1 << 22;

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

    fn run_session() -> (Vec<gpu_join::engine::scheduler::QueryReport>, Trace) {
        let dev = traced_device();
        let cat = catalog(&dev);
        let specs = tenant_plans()
            .into_iter()
            .map(|p| QuerySpec::new(p).with_budget(BUDGET))
            .collect();
        let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
        let base = dev.take_trace().expect("tracing was enabled");
        (reports, base)
    }

    #[test]
    fn per_query_spans_still_nest() {
        let (reports, _) = run_session();
        for r in &reports {
            let trace = r.trace.as_ref().expect("per-query trace present");
            let spans: Vec<&SpanEvent> = trace.spans().collect();
            assert!(!spans.is_empty());
            for (i, a) in spans.iter().enumerate() {
                for b in spans.iter().skip(i + 1) {
                    let disjoint = a.end <= b.start + NS || b.end <= a.start + NS;
                    let a_in_b = b.start <= a.start + NS && a.end <= b.end + NS;
                    let b_in_a = a.start <= b.start + NS && b.end <= a.end + NS;
                    assert!(
                        disjoint || a_in_b || b_in_a,
                        "q{}: spans overlap without nesting: {:?} vs {:?}",
                        r.query,
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn per_query_operator_spans_match_per_query_op_stats() {
        let (reports, _) = run_session();
        for r in &reports {
            let out = r.result.as_ref().expect("tenant succeeds");
            let trace = r.trace.as_ref().expect("per-query trace present");

            fn flatten(n: &gpu_join::engine::NodeStats, acc: &mut Vec<(String, f64)>) {
                acc.push((n.label.clone(), n.op.total_time().secs()));
                for c in &n.children {
                    flatten(c, acc);
                }
            }
            let mut nodes = Vec::new();
            flatten(&out.stats, &mut nodes);
            let op_spans = spans_of(trace, SpanCat::Operator);
            assert_eq!(
                op_spans.len(),
                nodes.len(),
                "q{}: one operator span per plan node",
                r.query
            );
            for (label, secs) in nodes {
                let span = op_spans
                    .iter()
                    .find(|s| s.name == label)
                    .unwrap_or_else(|| panic!("q{}: no operator span {label:?}", r.query));
                assert!(
                    (span.dur() - secs).abs() <= NS,
                    "q{}: {label}: span {}s vs OpStats::total_time {}s",
                    r.query,
                    span.dur(),
                    secs
                );
            }
            // Every OpStats in the tree is stamped with the owning query.
            fn stamped(n: &gpu_join::engine::NodeStats, q: u32) {
                assert_eq!(n.op.query, Some(q), "{}: missing query stamp", n.label);
                for c in &n.children {
                    stamped(c, q);
                }
            }
            stamped(&out.stats, r.query);
        }
    }

    #[test]
    fn ledger_timeline_never_crosses_the_budget() {
        let (reports, _) = run_session();
        for r in &reports {
            assert!(r.peak_mem_bytes <= BUDGET, "q{}: peak over budget", r.query);
            let trace = r.trace.as_ref().expect("per-query trace present");
            let samples: Vec<_> = trace.mem_samples().collect();
            assert!(
                !samples.is_empty(),
                "q{}: ledger timeline recorded",
                r.query
            );
            for m in samples {
                assert!(
                    m.high_water_bytes <= BUDGET,
                    "q{}: ledger sample at {}s shows {} bytes, budget is {BUDGET}",
                    r.query,
                    m.ts,
                    m.high_water_bytes
                );
            }
        }
    }

    #[test]
    fn metrics_totals_agree_with_the_tagged_base_trace() {
        // Run the session with the metrics recorder on as well: the
        // cumulative totals and the per-tenant dual-accounted counters
        // must reproduce what the tagged trace says, launch for launch.
        let dev = traced_device();
        dev.enable_metrics(gpu_join::sim::SimTime::from_secs(1e-6));
        let cat = catalog(&dev);
        let specs = tenant_plans()
            .into_iter()
            .map(|p| QuerySpec::new(p).with_budget(BUDGET))
            .collect();
        let reports = engine::run_queries(&dev, &cat, specs, Policy::RoundRobin);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        let base = dev.take_trace().expect("tracing was enabled");
        let snap = dev.metrics_snapshot().expect("metrics recorder is on");

        assert_eq!(
            snap.totals.work.kernel_launches,
            base.kernels().count() as u64
        );
        let trace_ns: u64 = base
            .kernels()
            .map(|k| gpu_join::sim::secs_to_ticks(k.dur))
            .sum();
        assert_eq!(snap.totals.busy_ns, trace_ns);
        for r in &reports {
            let tenant = r.query.to_string();
            let labels = [("tenant", tenant.as_str())];
            let tagged: Vec<_> = base
                .kernels()
                .filter(|k| k.query == Some(r.query))
                .collect();
            assert_eq!(
                snap.registry
                    .counter("tenant_kernel_launches_total", &labels),
                tagged.len() as u64,
                "q{}: dual-accounted launch count",
                r.query
            );
            let tagged_ns: u64 = tagged
                .iter()
                .map(|k| gpu_join::sim::secs_to_ticks(k.dur))
                .sum();
            assert_eq!(
                snap.registry.counter("tenant_busy_ns_total", &labels),
                tagged_ns,
                "q{}: dual-accounted busy time",
                r.query
            );
        }
    }

    #[test]
    fn base_trace_tags_every_session_kernel_with_its_query() {
        let (reports, base) = run_session();
        // Kernels launched inside the session carry their owner's id; the
        // tagged sub-streams partition the session exactly — each query's
        // tagged kernel count and total duration equal its private trace.
        for r in &reports {
            let qtrace = r.trace.as_ref().expect("per-query trace present");
            let tagged: Vec<_> = base
                .kernels()
                .filter(|k| k.query == Some(r.query))
                .collect();
            assert_eq!(
                tagged.len(),
                qtrace.kernels().count(),
                "q{}: base-trace kernel count",
                r.query
            );
            let base_secs: f64 = tagged.iter().map(|k| k.dur).sum();
            let q_secs: f64 = qtrace.kernels().map(|k| k.dur).sum();
            assert!(
                (base_secs - q_secs).abs() <= NS,
                "q{}: base-trace kernel time {base_secs}s vs private {q_secs}s",
                r.query
            );
            assert!(
                (r.busy.secs() - q_secs).abs() <= NS,
                "q{}: reported busy {}s vs kernel time {q_secs}s",
                r.query,
                r.busy.secs()
            );
        }
        // And nothing else ran during the session: every tag is a real
        // query id (untagged kernels, if any, predate the session).
        let ids: Vec<u32> = (0..reports.len() as u32).collect();
        for k in base.kernels() {
            if let Some(q) = k.query {
                assert!(ids.contains(&q), "unknown query tag {q}");
            }
        }
    }
}
