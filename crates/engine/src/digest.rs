//! Automatic slow-query attribution: turn a lifecycle trace, a metrics
//! snapshot and the per-query EXPLAIN reports into a "why was it slow"
//! digest.
//!
//! [`slow_queries`] is a *pure* function of its three inputs — it runs no
//! kernels, reads no clocks, and allocates nothing on the device — so the
//! digest it produces is byte-identical whenever its inputs are, which the
//! lifecycle invariant suite holds across re-runs under every policy.
//!
//! A query is *slow* against its own SLO target when the serving session
//! configured one ([`crate::scheduler::ServingConfig::with_slo`]), and
//! against the population p99 latency otherwise. Each slow query's
//! end-to-end latency is attributed across the lifecycle stages —
//! admission-queue wait, planning (always zero: no lifecycle stage feeds
//! it), execution slices, and cross-tenant interference — using the same
//! tick quantization the metrics pipeline uses, so the four stage totals
//! sum to the latency *exactly*. The dominant stage names the phase to
//! blame; when EXPLAIN output is available the digest also names the
//! dominant operator and its roofline bottleneck, plus plan-cache
//! provenance.

use crate::explain::{ExplainNode, QueryExplain};
use crate::plan_cache::CacheOutcome;
use serde::Serialize;
use sim::{secs_to_ticks, LifecycleStage, MetricsSnapshot, QueryId, Trace, SECONDS_SCALE};

/// Where one query's end-to-end latency went, in integer nanoseconds.
/// The four fields sum to the query's latency exactly (the lifecycle
/// partition identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StageAttribution {
    /// Admission-queue wait: arrival to budget grant.
    pub queue_ns: u64,
    /// Planning time. Always zero, because no lifecycle stage feeds it.
    /// Sampling kernels are charge-free (the `Device::planning` handle)
    /// only under [`crate::PlanCache`]; a serving session executes with
    /// sampling charged to the query, so its sampling time is in
    /// `exec_ns`.
    pub planning_ns: u64,
    /// Time the query actually held the device (its exec slices).
    pub exec_ns: u64,
    /// Admitted-but-not-running time: gaps where co-tenants held the
    /// device.
    pub interference_ns: u64,
}

impl StageAttribution {
    /// Sum of all four stages — equals the query latency exactly.
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.planning_ns + self.exec_ns + self.interference_ns
    }

    /// The stage to blame: the largest attribution, ties broken in
    /// pipeline order (queue, planning, exec, interference).
    pub fn dominant(&self) -> &'static str {
        let stages = [
            ("queue", self.queue_ns),
            ("planning", self.planning_ns),
            ("exec", self.exec_ns),
            ("interference", self.interference_ns),
        ];
        let max = stages.iter().map(|(_, v)| *v).max().unwrap_or(0);
        stages
            .iter()
            .find(|(_, v)| *v == max)
            .map(|(n, _)| *n)
            .unwrap_or("queue")
    }
}

/// The operator that dominated a slow query's execution time, per its
/// EXPLAIN report.
#[derive(Debug, Clone, Serialize)]
pub struct OperatorAttribution {
    /// The node's display label (operator + parameters + algorithm).
    pub label: String,
    /// Simulated time in the node, children excluded, seconds.
    pub time_secs: f64,
    /// The node's roofline verdict (e.g. "memory-bound, 87% of DRAM peak").
    pub bottleneck: String,
}

/// One slow query with its latency fully attributed.
#[derive(Debug, Clone, Serialize)]
pub struct SlowQueryReport {
    /// Device-side query id.
    pub query: QueryId,
    /// Serving class, when the session annotated one.
    pub class: Option<String>,
    /// End-to-end latency, arrival to completion, nanoseconds.
    pub latency_ns: u64,
    /// The SLO target the query was judged against, nanoseconds;
    /// `None` when it was judged against the population p99 instead.
    pub slo_ns: Option<u64>,
    /// Where the latency went. Sums to `latency_ns` exactly.
    pub attribution: StageAttribution,
    /// The stage to blame (largest attribution).
    pub dominant_stage: String,
    /// The operator to blame, when an EXPLAIN report was supplied.
    pub dominant_operator: Option<OperatorAttribution>,
    /// Plan-cache provenance from EXPLAIN (`"hit"` / `"miss"`), when
    /// the execution went through a plan cache.
    pub plan_cache: Option<String>,
}

/// The digest: every slow query in a session, worst first.
#[derive(Debug, Clone, Serialize)]
pub struct SlowQueryDigest {
    /// Device the trace came from.
    pub device: String,
    /// Completed queries considered (shed, rejected and failed queries
    /// never complete and are excluded) — the sum of the metrics'
    /// `query_completed_total` over the session.
    pub queries: usize,
    /// Population p99 latency (rank `ceil(0.99 n)` of the completed
    /// latencies), nanoseconds — the threshold for queries without an
    /// SLO. `None` when no query completed.
    pub p99_ns: Option<u64>,
    /// Slow queries, sorted by latency descending (query id ascending on
    /// ties).
    pub slow: Vec<SlowQueryReport>,
}

/// Per-query accumulator while walking the lifecycle events.
#[derive(Default)]
struct LifeAcc {
    arrival: Option<f64>,
    queued: Option<(f64, f64)>,
    exec: Vec<(f64, f64)>,
    interference: Vec<(f64, f64)>,
    complete: Option<f64>,
    plan_cache: Option<&'static str>,
}

/// The deepest-preordered node with the largest own-time in the EXPLAIN
/// tree (first wins on ties — pre-order puts parents before children).
fn dominant_node(node: &ExplainNode) -> &ExplainNode {
    let mut best = node;
    let mut stack: Vec<&ExplainNode> = node.children.iter().rev().collect();
    while let Some(n) = stack.pop() {
        if n.time_secs > best.time_secs {
            best = n;
        }
        stack.extend(n.children.iter().rev());
    }
    best
}

/// Span duration in integer nanoseconds, quantized exactly as the metrics
/// pipeline quantizes timestamps — endpoint ticks subtract, so spans that
/// tile an interval telescope to the interval's tick length with no
/// rounding remainder.
fn span_ns(start: f64, end: f64) -> u64 {
    secs_to_ticks(end).saturating_sub(secs_to_ticks(start))
}

/// Build the slow-query digest for one serving session.
///
/// `trace` supplies the lifecycle events (enable tracing on the device
/// before the session), `metrics` supplies per-query class/SLO annotations
/// (and is where latency percentiles would come from), and `explains`
/// supplies optional per-query EXPLAIN reports for operator-level blame —
/// pass the pairs from [`crate::scheduler::QueryReport`] (`query`,
/// `explain`) for completed queries.
pub fn slow_queries(
    trace: &Trace,
    metrics: &MetricsSnapshot,
    explains: &[(QueryId, QueryExplain)],
) -> SlowQueryDigest {
    // Group lifecycle events by query id. Events without an id (rejected
    // before registration) never completed and carry no spans to
    // attribute.
    let mut accs: Vec<(QueryId, LifeAcc)> = Vec::new();
    for ev in trace.lifecycles() {
        let Some(q) = ev.query else { continue };
        let acc = match accs.iter_mut().find(|(id, _)| *id == q) {
            Some((_, acc)) => acc,
            None => {
                accs.push((q, LifeAcc::default()));
                &mut accs.last_mut().expect("just pushed").1
            }
        };
        match ev.stage {
            LifecycleStage::Arrival => acc.arrival = Some(ev.start),
            LifecycleStage::Queued => acc.queued = Some((ev.start, ev.end)),
            LifecycleStage::ExecSlice => acc.exec.push((ev.start, ev.end)),
            LifecycleStage::Interference => acc.interference.push((ev.start, ev.end)),
            // A query that failed mid-run retires like any other, but
            // its outcome says so: it did not complete.
            LifecycleStage::Complete if !ev.outcome.as_ref().is_some_and(|o| o.failed) => {
                acc.complete = Some(ev.end)
            }
            LifecycleStage::PlanCacheHit => acc.plan_cache = Some("hit"),
            LifecycleStage::PlanCacheMiss => acc.plan_cache = Some("miss"),
            _ => {}
        }
    }
    accs.sort_by_key(|(id, _)| *id);

    // Completed queries and their latencies; p99 by rank ceil(0.99 n).
    let mut completed: Vec<(QueryId, &LifeAcc, u64)> = Vec::new();
    for (id, acc) in &accs {
        if let (Some(arr), Some(done)) = (acc.arrival, acc.complete) {
            completed.push((*id, acc, span_ns(arr, done)));
        }
    }
    let p99_ns = if completed.is_empty() {
        None
    } else {
        let mut lat: Vec<u64> = completed.iter().map(|(_, _, l)| *l).collect();
        lat.sort_unstable();
        let rank = ((0.99 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        Some(lat[rank - 1])
    };

    let mut slow: Vec<SlowQueryReport> = Vec::new();
    for (id, acc, latency_ns) in &completed {
        let lifecycle = metrics.lifecycles.iter().find(|l| l.query == *id);
        let slo_ns = lifecycle.and_then(|l| l.sched.slo_secs).map(secs_to_ticks);
        // Against an SLO a query is slow when it *misses* the target
        // (latency strictly above); against the p99 the rank statistic
        // itself is slow (latency at or above), so the digest is never
        // empty for a non-degenerate population.
        let is_slow = match (slo_ns, p99_ns) {
            (Some(slo), _) => *latency_ns > slo,
            (None, Some(p99)) => *latency_ns >= p99,
            (None, None) => false,
        };
        if !is_slow {
            continue;
        }
        let attribution = StageAttribution {
            queue_ns: acc.queued.map(|(s, e)| span_ns(s, e)).unwrap_or(0),
            planning_ns: 0,
            exec_ns: acc.exec.iter().map(|&(s, e)| span_ns(s, e)).sum(),
            interference_ns: acc.interference.iter().map(|&(s, e)| span_ns(s, e)).sum(),
        };
        let explain = explains.iter().find(|(q, _)| q == id).map(|(_, e)| e);
        let dominant_operator = explain.map(|e| {
            let node = dominant_node(&e.root);
            OperatorAttribution {
                label: node.label.clone(),
                time_secs: node.time_secs,
                bottleneck: node.roofline.summary(),
            }
        });
        let plan_cache = explain
            .and_then(|e| e.cache.as_ref())
            .map(|c| match c.outcome {
                CacheOutcome::Hit => "hit".to_string(),
                CacheOutcome::Miss => "miss".to_string(),
            })
            .or_else(|| acc.plan_cache.map(str::to_string));
        slow.push(SlowQueryReport {
            query: *id,
            class: lifecycle.and_then(|l| l.sched.class.clone()),
            latency_ns: *latency_ns,
            slo_ns,
            attribution,
            dominant_stage: attribution.dominant().to_string(),
            dominant_operator,
            plan_cache,
        });
    }
    slow.sort_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.query.cmp(&b.query)));

    SlowQueryDigest {
        device: trace.device.clone(),
        queries: completed.len(),
        p99_ns,
        slow,
    }
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.6}s", ns as f64 * SECONDS_SCALE)
}

impl SlowQueryDigest {
    /// Deterministic JSON rendering (field order fixed by the struct
    /// definitions) — what an observed `bench` run writes as `digest.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("digest serializes") + "\n"
    }

    /// Human-readable "why slow" report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slow-query digest: device {}, {} completed quer{}, p99 {}\n",
            self.device,
            self.queries,
            if self.queries == 1 { "y" } else { "ies" },
            self.p99_ns.map(fmt_secs).unwrap_or_else(|| "n/a".into()),
        ));
        if self.slow.is_empty() {
            out.push_str("no slow queries\n");
            return out;
        }
        for r in &self.slow {
            let total = r.attribution.total_ns().max(1);
            let pct = |ns: u64| ns as f64 * 100.0 / total as f64;
            out.push_str(&format!(
                "q{}{}: latency {}{} — dominant stage: {}\n",
                r.query,
                r.class
                    .as_deref()
                    .map(|c| format!(" (class {c})"))
                    .unwrap_or_default(),
                fmt_secs(r.latency_ns),
                r.slo_ns
                    .map(|s| format!(" (slo {})", fmt_secs(s)))
                    .unwrap_or_default(),
                r.dominant_stage,
            ));
            out.push_str(&format!(
                "  queue {} ({:.1}%), planning {} ({:.1}%), exec {} ({:.1}%), interference {} ({:.1}%)\n",
                fmt_secs(r.attribution.queue_ns),
                pct(r.attribution.queue_ns),
                fmt_secs(r.attribution.planning_ns),
                pct(r.attribution.planning_ns),
                fmt_secs(r.attribution.exec_ns),
                pct(r.attribution.exec_ns),
                fmt_secs(r.attribution.interference_ns),
                pct(r.attribution.interference_ns),
            ));
            if let Some(op) = &r.dominant_operator {
                out.push_str(&format!(
                    "  dominant operator: {} ({:.6}s) — {}\n",
                    op.label, op.time_secs, op.bottleneck
                ));
            }
            if let Some(cache) = &r.plan_cache {
                out.push_str(&format!("  plan cache: {cache}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{self, OpenQuery, Policy, QuerySpec, ServingConfig};
    use crate::{Catalog, Plan, Table};
    use columnar::Column;
    use sim::{Device, SimTime};

    fn catalog(dev: &Device) -> Catalog {
        let n = 8192usize;
        let mut c = Catalog::new();
        c.insert(Table::new(
            "t",
            vec![(
                "k",
                Column::from_i64(dev, (0..n as i64).map(|i| i % 31).collect(), "k"),
            )],
        ));
        c
    }

    fn session(dev: &Device, slo: f64) -> Vec<scheduler::QueryReport> {
        let cat = catalog(dev);
        let arrivals: Vec<OpenQuery> = (0..4)
            .map(|i| {
                OpenQuery::new(
                    SimTime::from_secs(i as f64 * 1e-6),
                    "t1",
                    QuerySpec::new(Plan::scan("t").distinct("k")),
                )
            })
            .collect();
        scheduler::run_open_loop_with(
            dev,
            &cat,
            arrivals,
            Policy::RoundRobin,
            &ServingConfig::new().with_slo("t1", slo),
        )
    }

    #[test]
    fn attribution_partitions_latency_exactly() {
        let dev = Device::a100();
        dev.enable_tracing();
        dev.enable_metrics(SimTime::from_secs(1e-3));
        let reports = session(&dev, 0.0); // slo 0: every query is slow
        let trace = dev.take_trace().unwrap();
        let snap = dev.metrics_snapshot().unwrap();
        let explains: Vec<_> = reports
            .iter()
            .filter_map(|r| r.explain(dev.config()).map(|e| (r.query, e)))
            .collect();
        let digest = slow_queries(&trace, &snap, &explains);
        assert_eq!(digest.queries, 4);
        assert_eq!(digest.slow.len(), 4, "slo 0 makes every query slow");
        for r in &digest.slow {
            assert_eq!(
                r.attribution.total_ns(),
                r.latency_ns,
                "stage attribution must partition q{}'s latency exactly",
                r.query
            );
            assert!(r.dominant_operator.is_some());
            assert_eq!(r.slo_ns, Some(0));
        }
        // Later arrivals wait on earlier tenants: the worst query is
        // queue- or interference-dominated, never pure exec.
        let worst = &digest.slow[0];
        assert!(worst.attribution.queue_ns + worst.attribution.interference_ns > 0);
    }

    #[test]
    fn p99_threshold_flags_the_tail_when_no_slo() {
        let dev = Device::a100();
        dev.enable_tracing();
        dev.enable_metrics(SimTime::from_secs(1e-3));
        let cat = catalog(&dev);
        let arrivals: Vec<OpenQuery> = (0..4)
            .map(|i| {
                OpenQuery::new(
                    SimTime::from_secs(i as f64 * 1e-6),
                    "t1",
                    QuerySpec::new(Plan::scan("t").distinct("k")),
                )
            })
            .collect();
        let _ = scheduler::run_open_loop_with(
            &dev,
            &cat,
            arrivals,
            Policy::RoundRobin,
            &ServingConfig::default(),
        );
        let trace = dev.take_trace().unwrap();
        let snap = dev.metrics_snapshot().unwrap();
        let digest = slow_queries(&trace, &snap, &[]);
        assert_eq!(digest.queries, 4);
        let p99 = digest.p99_ns.expect("population p99");
        assert!(!digest.slow.is_empty(), "p99 rank statistic is always slow");
        assert!(digest.slow.iter().all(|r| r.latency_ns >= p99));
        assert!(digest.slow.iter().all(|r| r.slo_ns.is_none()));
    }

    #[test]
    fn digest_is_pure_and_renderings_deterministic() {
        let dev = Device::a100();
        dev.enable_tracing();
        dev.enable_metrics(SimTime::from_secs(1e-3));
        let _ = session(&dev, 0.0);
        let trace = dev.take_trace().unwrap();
        let snap = dev.metrics_snapshot().unwrap();
        let a = slow_queries(&trace, &snap, &[]);
        let b = slow_queries(&trace, &snap, &[]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
        assert!(a.to_json().contains("\"dominant_stage\""));
        assert!(a.render().contains("dominant stage"));
    }
}
