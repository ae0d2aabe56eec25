//! Request-scoped observability invariants over the serving path:
//!
//! * **partition identity** — each completed query's lifecycle spans tile
//!   `[arrival, completion]` exactly: tick-quantized
//!   `queue_wait + planning + Σ exec_slices + Σ interference` equals
//!   `completion - arrival` to the nanosecond, under every policy;
//! * **terminal spans** — shed queries record exactly `arrival` + `shed`
//!   (no queued/exec/interference spans), and pre-registration rejections
//!   record `arrival` + `rejected` with no query id, stamped — like every
//!   stamp of their report — at their scheduled arrival;
//! * **digest byte-identity** — the slow-query digest (JSON and text) and
//!   the lifecycle trace are byte-identical from a session to its re-run
//!   under every policy, and the digest's population is exactly the
//!   queries `query_completed_total` counts (a tenant that failed mid-run
//!   retires, but never completes);
//! * **zero observer effect** — enabling tracing changes no observable:
//!   per-query timestamps and the full metrics export — of sessions with
//!   gate rejections, sheds and budget failures, and of a plan cache that
//!   evicts — are byte-identical to an untraced run, and a ring-capped
//!   trace's export differs only by its `trace_events_dropped_total`
//!   (evicted events were folded anyway);
//! * **flight recorder** — a ring-capacity trace never exceeds its
//!   capacity and accounts every dropped event in
//!   `trace_events_dropped_total`.

use gpu_join::engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use gpu_join::engine::{self, slow_queries, Catalog, EngineError, Expr, Plan, PlanCache, Table};
use gpu_join::prelude::*;
use gpu_join::sim::{metrics_json, secs_to_ticks, LifecycleStage, MetricsSnapshot, Trace};

fn device() -> Device {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_metrics(SimTime::from_secs(1e-9));
    dev.enable_tracing();
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

fn plan_of(i: usize) -> Plan {
    match i % 3 {
        0 => Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid"),
        1 => Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(9))),
        _ => Plan::scan("lineitem").distinct("l_oid"),
    }
}

/// Nine bursty arrivals across three classes: gaps small enough that
/// queries overlap (so interference spans exist) under every policy.
fn arrivals() -> Vec<OpenQuery> {
    (0..9)
        .map(|i| {
            OpenQuery::new(
                SimTime::from_secs(i as f64 * 1e-9),
                ["a", "b", "c"][i % 3],
                QuerySpec::new(plan_of(i)),
            )
        })
        .collect()
}

/// One session that ends every way a query can: `a` is admitted with a
/// budget that passes the memory gate (exactly its predicted peak) but not
/// its real peak, so it fails mid-run; `b` is refused by the gate; of the
/// four-query `c` burst, two hold the pool, one waits in the one-slot
/// queue and one is shed.
fn mixed_arrivals(dev: &Device, cat: &Catalog) -> (Vec<OpenQuery>, ServingConfig) {
    let free = dev.mem_capacity() - dev.mem_report().current_bytes;
    let predicted = engine::cost::estimate(dev.config(), cat, &plan_of(2))
        .unwrap()
        .peak_bytes;
    let at = |i: usize| SimTime::from_secs(i as f64 * 1e-9);
    let mut arr = vec![
        OpenQuery::new(
            at(0),
            "a",
            QuerySpec::new(plan_of(2)).with_budget(predicted),
        ),
        OpenQuery::new(at(1), "b", QuerySpec::new(plan_of(0)).with_budget(4 << 10)),
    ];
    arr.extend((2..6).map(|i| {
        OpenQuery::new(
            at(2),
            "c",
            QuerySpec::new(plan_of(i)).with_budget(free * 2 / 5),
        )
    }));
    let serving = ServingConfig::new()
        .with_total_depth(1)
        .with_memory_gate()
        .with_slo("a", 0.0)
        .with_slo("c", 1e-6);
    (arr, serving)
}

/// Which way each query of a session ended.
fn endings(reports: &[engine::QueryReport]) -> Vec<&'static str> {
    reports
        .iter()
        .map(|r| match &r.result {
            Ok(_) => "ok",
            Err(EngineError::QueueShed { .. }) => "shed",
            Err(EngineError::AdmissionRejected { .. }) => "rejected",
            Err(EngineError::BudgetExceeded { .. }) => "failed",
            Err(e) => panic!("unexpected error {e:?}"),
        })
        .collect()
}

fn session(
    policy: Policy,
    serving: &ServingConfig,
) -> (Trace, MetricsSnapshot, Vec<engine::QueryReport>) {
    let dev = device();
    let cat = catalog(&dev);
    let reports = engine::run_open_loop_with(&dev, &cat, arrivals(), policy, serving);
    let trace = dev.take_trace().expect("tracing was enabled");
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    (trace, snap, reports)
}

const POLICIES: [Policy; 3] = [Policy::Serial, Policy::Sjf, Policy::SjfAging];

/// Tick-quantized stage sums per query id out of a lifecycle trace:
/// `(queue, exec, interference, completion - arrival)`.
fn stage_sums(trace: &Trace) -> Vec<(u32, u64, u64, u64, u64)> {
    type Acc = (u32, u64, u64, u64, Option<u64>, Option<u64>);
    let mut out: Vec<Acc> = Vec::new();
    for ev in trace.lifecycles() {
        let Some(q) = ev.query else { continue };
        let slot = match out.iter_mut().find(|r| r.0 == q) {
            Some(s) => s,
            None => {
                out.push((q, 0, 0, 0, None, None));
                out.last_mut().unwrap()
            }
        };
        let dur = secs_to_ticks(ev.end).saturating_sub(secs_to_ticks(ev.start));
        match ev.stage {
            LifecycleStage::Queued => slot.1 += dur,
            LifecycleStage::ExecSlice => slot.2 += dur,
            LifecycleStage::Interference => slot.3 += dur,
            LifecycleStage::Arrival => slot.4 = Some(secs_to_ticks(ev.start)),
            LifecycleStage::Complete => slot.5 = Some(secs_to_ticks(ev.end)),
            _ => {}
        }
    }
    out.into_iter()
        .filter_map(|(q, queue, exec, interf, arr, done)| {
            Some((q, queue, exec, interf, done? - arr?))
        })
        .collect()
}

#[test]
fn lifecycle_spans_partition_latency_exactly() {
    for policy in POLICIES {
        let (trace, _, reports) = session(policy, &ServingConfig::new());
        assert!(reports.iter().all(|r| r.result.is_ok()));
        let sums = stage_sums(&trace);
        assert_eq!(
            sums.len(),
            reports.len(),
            "{policy:?}: every completed query has a full lifecycle"
        );
        for &(q, queue, exec, interf, latency) in &sums {
            // planning is charge-free by construction, so the three
            // recorded span families must account for every tick.
            assert_eq!(
                queue + exec + interf,
                latency,
                "{policy:?}: q{q} spans must tile [arrival, completion] \
                 (queue {queue} + exec {exec} + interference {interf} != {latency})"
            );
        }
        // The schedule is bursty: at least one query must actually have
        // waited on a co-tenant, or the identity is vacuous.
        assert!(
            sums.iter().any(|(_, q, _, i, _)| *q + *i > 0),
            "{policy:?}: bursty arrivals must produce some waiting"
        );
    }
}

#[test]
fn shed_and_rejected_record_terminal_spans_and_never_execute() {
    let dev = device();
    let cat = catalog(&dev);
    let free = dev.mem_capacity() - dev.mem_report().current_bytes;
    let t0 = SimTime::ZERO;
    let mut arr: Vec<OpenQuery> = (0..6)
        .map(|_| {
            OpenQuery::new(
                t0,
                "burst",
                QuerySpec::new(plan_of(0)).with_budget(free * 2 / 5),
            )
        })
        .collect();
    arr.extend((0..2).map(|_| {
        OpenQuery::new(
            t0,
            "doomed",
            QuerySpec::new(plan_of(0)).with_budget(4 << 10),
        )
    }));
    let serving = ServingConfig::new().with_total_depth(1).with_memory_gate();
    let reports = engine::run_open_loop_with(&dev, &cat, arr, Policy::Sjf, &serving);
    let trace = dev.take_trace().expect("tracing was enabled");

    let shed_ids: Vec<u32> = reports
        .iter()
        .filter_map(|r| match &r.result {
            Err(EngineError::QueueShed { query }) => Some(*query),
            _ => None,
        })
        .collect();
    let rejected = reports
        .iter()
        .filter(|r| matches!(r.result, Err(EngineError::AdmissionRejected { .. })))
        .count();
    assert!(!shed_ids.is_empty(), "the burst must shed");
    assert_eq!(rejected, 2, "the gate must refuse both doomed arrivals");

    for id in &shed_ids {
        let stages: Vec<LifecycleStage> = trace
            .lifecycles()
            .filter(|e| e.query == Some(*id))
            .map(|e| e.stage)
            .collect();
        assert_eq!(
            stages,
            vec![LifecycleStage::Arrival, LifecycleStage::Shed],
            "q{id}: a shed query records exactly arrival + shed — no spans, no slices"
        );
    }
    // Pre-registration rejections have no device query id: their terminal
    // spans carry `query: None`.
    let anon: Vec<LifecycleStage> = trace
        .lifecycles()
        .filter(|e| e.query.is_none())
        .map(|e| e.stage)
        .collect();
    assert_eq!(
        anon,
        vec![
            LifecycleStage::Arrival,
            LifecycleStage::Rejected,
            LifecycleStage::Arrival,
            LifecycleStage::Rejected,
        ],
        "each rejected arrival records arrival + rejected with query: None"
    );
}

#[test]
fn a_rejected_arrival_is_stamped_at_its_scheduled_arrival() {
    let dev = device();
    let cat = catalog(&dev);
    let at = SimTime::from_secs(5e-6);
    let doomed = OpenQuery::new(
        at,
        "doomed",
        QuerySpec::new(plan_of(0)).with_budget(4 << 10),
    );
    let serving = ServingConfig::new().with_memory_gate();
    let reports = engine::run_open_loop_with(&dev, &cat, vec![doomed], Policy::Serial, &serving);
    let r = &reports[0];
    assert!(matches!(
        r.result,
        Err(EngineError::AdmissionRejected { .. })
    ));
    assert_eq!(
        (r.arrival, r.admitted, r.started, r.completion),
        (at, at, at, at)
    );
    assert_eq!(r.queue_wait(), SimTime::ZERO);
    let trace = dev.take_trace().expect("tracing was enabled");
    let stamps: Vec<(LifecycleStage, f64)> =
        trace.lifecycles().map(|e| (e.stage, e.start)).collect();
    assert_eq!(
        stamps,
        [
            (LifecycleStage::Arrival, at.secs()),
            (LifecycleStage::Rejected, at.secs())
        ],
        "the trace and the report agree on the one arrival stamp"
    );
}

#[test]
fn the_digest_counts_exactly_the_completed_queries() {
    let dev = device();
    let cat = catalog(&dev);
    let (arr, serving) = mixed_arrivals(&dev, &cat);
    let reports = engine::run_open_loop_with(&dev, &cat, arr, Policy::Serial, &serving);
    assert_eq!(
        endings(&reports),
        ["failed", "rejected", "ok", "ok", "shed", "ok"]
    );
    let trace = dev.take_trace().expect("tracing was enabled");
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    let digest = slow_queries(&trace, &snap, &[]);
    let completed: u64 = ["a", "b", "c"]
        .iter()
        .map(|c| {
            snap.registry
                .counter("query_completed_total", &[("class", c)])
        })
        .sum();
    assert_eq!(completed, 3);
    assert_eq!(digest.queries as u64, completed);
    // Class `a`'s zero-second SLO would flag its query as slow had it
    // completed; it failed.
    assert_eq!(
        snap.registry
            .counter("query_failed_total", &[("class", "a")]),
        1
    );
    assert!(
        digest.slow.iter().all(|r| r.query != 0),
        "{:?}",
        digest.slow
    );
}

#[test]
fn digest_and_lifecycle_trace_are_byte_identical_across_reruns() {
    // SLO of zero seconds marks every completed query slow, so the digest
    // exercises attribution for the full population.
    let serving = ServingConfig::new()
        .with_slo("a", 0.0)
        .with_slo("b", 0.0)
        .with_slo("c", 0.0);
    for policy in POLICIES {
        let run = || -> (String, String, String) {
            let (trace, snap, reports) = session(policy, &serving);
            let cfg = DeviceConfig::a100().scaled(8192.0);
            let explains: Vec<_> = reports
                .iter()
                .filter_map(|r| r.explain(&cfg).map(|e| (r.query, e)))
                .collect();
            let digest = slow_queries(&trace, &snap, &explains);
            let lifecycle_lines: String = gpu_join::sim::trace::jsonl(&[trace])
                .lines()
                .filter(|l| l.contains("\"lifecycle\""))
                .collect::<Vec<_>>()
                .join("\n");
            (digest.to_json(), digest.render(), lifecycle_lines)
        };
        let (json1, text1, trace1) = run();
        let (json2, text2, trace2) = run();
        assert!(
            !trace1.is_empty(),
            "{policy:?}: lifecycle events were traced"
        );
        assert_eq!(
            json1, json2,
            "{policy:?}: digest JSON differs across re-runs"
        );
        assert_eq!(
            text1, text2,
            "{policy:?}: digest text differs across re-runs"
        );
        assert_eq!(
            trace1, trace2,
            "{policy:?}: lifecycle trace differs across re-runs"
        );
    }
}

#[test]
fn tracing_perturbs_no_observable() {
    for policy in POLICIES {
        let run = |attach_trace: fn(&Device)| {
            let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
            dev.enable_metrics(SimTime::from_secs(1e-9));
            attach_trace(&dev);
            let cat = catalog(&dev);
            let mixed = mixed_arrivals(&dev, &cat);
            let mut stamps: Vec<(u32, u64, u64, u64, u64)> = Vec::new();
            for (arrivals, serving) in [
                (arrivals(), ServingConfig::new().with_slo("a", 1e-6)),
                mixed,
            ] {
                let reports = engine::run_open_loop_with(&dev, &cat, arrivals, policy, &serving);
                if serving.memory_gate {
                    let mut ended = endings(&reports);
                    ended.sort_unstable();
                    ended.dedup();
                    assert_eq!(ended, ["failed", "ok", "rejected", "shed"], "{policy:?}");
                }
                stamps.extend(reports.iter().map(|r| {
                    (
                        r.query,
                        secs_to_ticks(r.arrival.secs()),
                        secs_to_ticks(r.admitted.secs()),
                        secs_to_ticks(r.started.secs()),
                        secs_to_ticks(r.completion.secs()),
                    )
                }));
            }
            // A one-plan cache alternating two plans: every pass misses
            // and all but the first evict.
            let mut cache = PlanCache::new(1);
            for i in [0, 1, 0] {
                cache.execute(&dev, &cat, &plan_of(i)).unwrap();
            }
            assert_eq!(cache.stats(), (0, 3, 2));
            let dropped = dev.take_trace().map_or(0, |t| t.dropped_events());
            (stamps, dev.metrics_snapshot().unwrap(), dropped)
        };
        let (stamps_off, mut snap_off, _) = run(|_| {});
        // Every family the comparison below covers was recorded untraced.
        let reg = &snap_off.registry;
        for (name, labels) in [
            ("query_failed_total", [("class", "a")]),
            ("query_rejected_total", [("class", "b")]),
            ("query_shed_total", [("class", "c")]),
            ("slo_met_total", [("class", "c")]),
            ("operator_rows_total", [("op", "join")]),
        ] {
            assert!(reg.counter(name, &labels) > 0, "{policy:?}: {name}");
        }
        assert_eq!(reg.counter("plan_cache_evictions_total", &[]), 2);
        let (stamps_on, snap_on, _) = run(Device::enable_tracing);
        // A flight recorder far smaller than the session: what it evicts
        // was folded into the metrics all the same.
        let (stamps_ring, snap_ring, dropped) = run(|dev| dev.enable_tracing_ring(8));
        assert_eq!(
            stamps_off, stamps_on,
            "{policy:?}: tracing must not move any lifecycle timestamp"
        );
        assert_eq!(
            stamps_off, stamps_ring,
            "{policy:?}: a ring-capped trace must not move any lifecycle timestamp"
        );
        assert_eq!(
            metrics_json(std::slice::from_ref(&snap_off)),
            metrics_json(&[snap_on]),
            "{policy:?}: tracing must not change the metrics export"
        );
        assert!(dropped > 0, "{policy:?}: the ring must have evicted");
        snap_off
            .registry
            .counter_add("trace_events_dropped_total", Vec::new(), dropped);
        assert_eq!(
            metrics_json(&[snap_off]),
            metrics_json(&[snap_ring]),
            "{policy:?}: a ring-capped trace may change only trace_events_dropped_total"
        );
    }
}

#[test]
fn flight_recorder_caps_events_and_counts_drops() {
    let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
    dev.enable_metrics(SimTime::from_secs(1e-9));
    dev.enable_tracing_ring(8);
    let cat = catalog(&dev);
    let reports = engine::run_open_loop_with(
        &dev,
        &cat,
        arrivals(),
        Policy::Serial,
        &ServingConfig::new(),
    );
    assert!(reports.iter().all(|r| r.result.is_ok()));
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    let trace = dev.take_trace().expect("ring tracing was enabled");
    assert!(
        trace.events.len() <= 8,
        "ring capacity must bound retained events (got {})",
        trace.events.len()
    );
    assert!(
        trace.dropped_events() > 0,
        "a 9-query session overflows 8 slots"
    );
    assert_eq!(
        snap.registry.counter("trace_events_dropped_total", &[]),
        trace.dropped_events(),
        "every dropped event is accounted in trace_events_dropped_total"
    );
}
