//! M1 (multi-query extension): N concurrent tenants on one simulated
//! device, through `engine::scheduler`. Three sweeps:
//!
//! 1. **Tenant count** — 1..8 round-robin tenants running the demo query
//!    mix: aggregate throughput, mean and p99 simulated completion latency,
//!    and the slowest tenant's stretch vs its solo time.
//! 2. **Policy** — the same 4-tenant mix under serial, round-robin and a
//!    4:2:1:1 weighted-fair split: the makespan is policy-invariant (the
//!    device is work-conserving), only *who waits* moves.
//! 3. **Budget split** — 4 equal tenants with per-tenant budgets derived
//!    from the measured solo peak: ample budgets run in-core, halved
//!    budgets push joins out-of-core (chunked re-plans), and a starved
//!    tenant fails alone with a typed error while its co-tenants' simulated
//!    busy time stays bit-identical.
//!
//! Finish times are read from the base device trace (kernel events are
//! device-timestamped and tagged with the owning query), so every reported
//! number is deterministic simulated time.

use super::serving::{mix, solo_busy};
use crate::{Claim, Report, Session};
use engine::demo::tpch_mini;
use engine::scheduler::{Policy, QuerySpec};
use engine::{Catalog, NodeStats, Plan};
use sim::Device;

/// Per-tenant finish times (seconds since `t0`) from the base trace.
fn finishes(dev: &Device, t0: f64, tenants: usize) -> Vec<f64> {
    let trace = dev.trace_snapshot().expect("m01 enables tracing");
    (0..tenants as u32)
        .map(|q| {
            trace
                .kernels()
                .filter(|k| k.query == Some(q) && k.start >= t0 - 1e-12)
                .map(|k| k.start + k.dur - t0)
                .fold(0.0, f64::max)
        })
        .collect()
}

fn p99(latencies: &[f64]) -> f64 {
    let mut v = latencies.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((v.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    v[idx]
}

fn count_chunked(stats: &NodeStats) -> usize {
    let here = usize::from(stats.label.contains("chunked x"));
    here + stats.children.iter().map(count_chunked).sum::<usize>()
}

struct Round {
    reports: Vec<engine::scheduler::QueryReport>,
    finishes: Vec<f64>,
    makespan: f64,
}

fn round(dev: &Device, catalog: &Catalog, specs: Vec<QuerySpec>, policy: Policy) -> Round {
    let n = specs.len();
    let t0 = dev.elapsed().secs();
    let reports = engine::run_queries(dev, catalog, specs, policy);
    let makespan = dev.elapsed().secs() - t0;
    Round {
        reports,
        finishes: finishes(dev, t0, n),
        makespan,
    }
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "m01_multi_query",
        "Multi-query scheduling: throughput, fairness, latency",
        session,
    );
    let dev = session.device();
    // Finish times come from the tagged base trace, so tracing is always on
    // here (it does not perturb the simulation — see tests/trace_invariants).
    dev.enable_tracing();
    let orders = session.tuples() / 16;
    let catalog = tpch_mini(&dev, orders, 99);

    // Solo baselines: each mix shape alone on the device.
    let solo_busy = solo_busy(|plan| {
        round(&dev, &catalog, vec![QuerySpec::new(plan)], Policy::Serial)
            .reports
            .remove(0)
    });

    // -- Sweep 1: tenant count under round-robin -------------------------
    for n in [1usize, 2, 4, 8] {
        let specs = (0..n).map(|i| QuerySpec::new(mix(i).1)).collect();
        let s = round(&dev, &catalog, specs, Policy::RoundRobin);
        assert!(s.reports.iter().all(|r| r.result.is_ok()));
        let mean = s.finishes.iter().sum::<f64>() / n as f64;
        let p99v = p99(&s.finishes);
        // The slowest tenant's completion vs the ideal fair share: N x its
        // own solo busy time (on a one-kernel-at-a-time device, N x solo is
        // what a perfectly fair policy owes the heaviest query).
        let stretch = s
            .finishes
            .iter()
            .enumerate()
            .map(|(i, f)| f / (n as f64 * solo_busy[i % 3]))
            .fold(0.0_f64, f64::max);
        let throughput = n as f64 / s.makespan;
        report.push(serde_json::json!({
            "sweep": "tenants", "tenants": n, "policy": "round-robin",
            "makespan_s": s.makespan, "throughput_qps": throughput,
            "mean_latency_s": mean, "p99_latency_s": p99v, "slowest_stretch": stretch,
        }));
        if n == 8 {
            report.claim(Claim::new("stretch_8_tenants", stretch).says(format!(
                "8 round-robin tenants: the slowest finishes within {stretch:.2}x of N x its \
                 solo simulated time (fair-share ideal = 1.0)"
            )));
        }
    }

    // -- Sweep 2: policy at 4 tenants ------------------------------------
    let mut makespans = Vec::new();
    for (name, policy, weights) in [
        ("serial", Policy::Serial, [1.0, 1.0, 1.0, 1.0]),
        ("round-robin", Policy::RoundRobin, [1.0, 1.0, 1.0, 1.0]),
        (
            "weighted 4:2:1:1",
            Policy::WeightedFair,
            [4.0, 2.0, 1.0, 1.0],
        ),
    ] {
        let specs = (0..4)
            .map(|i| QuerySpec::new(mix(i).1).with_weight(weights[i]))
            .collect();
        let s = round(&dev, &catalog, specs, policy);
        assert!(s.reports.iter().all(|r| r.result.is_ok()));
        // Each tenant comes back with its own attributed EXPLAIN ANALYZE
        // report; under --observe, record the round-robin round's.
        if policy == Policy::RoundRobin {
            for r in &s.reports {
                if let Some(ex) = r.explain(dev.config()) {
                    session.record_explain(&format!("m01 round-robin tenant {}", r.query), &ex);
                }
            }
        }
        let mean = s.finishes.iter().sum::<f64>() / 4.0;
        let p99v = p99(&s.finishes);
        report.push(serde_json::json!({
            "sweep": "policy", "tenants": 4, "policy": name,
            "makespan_s": s.makespan, "mean_latency_s": mean, "p99_latency_s": p99v,
        }));
        makespans.push(s.makespan);
    }
    let spread = makespans.iter().cloned().fold(0.0_f64, f64::max)
        / makespans.iter().cloned().fold(f64::INFINITY, f64::min);
    let spread_pct = (spread - 1.0) * 100.0;
    report.claim(
        Claim::new("makespan_policy_spread_pct", spread_pct).says(format!(
            "the 4-tenant makespan is policy-invariant within {spread_pct:.2}% (the simulated \
             device is work-conserving); scheduling only redistributes who waits"
        )),
    );

    // -- Sweep 3: budget splits at 4 tenants ------------------------------
    // The budget sweep runs a plain FK join (the operator the out-of-core
    // re-planner covers); its direct-path peak calibrates the splits.
    let budget_plan = || Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid");
    let solo_peak = {
        let s = round(
            &dev,
            &catalog,
            vec![QuerySpec::new(budget_plan())],
            Policy::Serial,
        );
        s.reports[0].peak_mem_bytes
    };
    // "Ample" must clear not just the direct-path peak but the chunk
    // planner's conservative fit estimate, which has a fixed scratch floor.
    let ample = (solo_peak * 4).max(4 << 20);
    let mut ample_busy: Vec<u64> = Vec::new();
    for (name, budgets) in [
        ("ample 4x peak", [ample; 4]),
        // Half the solo peak, floored just above the chunk planner's fixed
        // scratch so tiny smoke scales spill instead of failing outright.
        ("half peak", [(solo_peak / 2).max(192 << 10); 4]),
        (
            "one starved",
            [ample, ample, ample, (solo_peak / 8).max(4096)],
        ),
    ] {
        let specs = (0..4)
            .map(|i| QuerySpec::new(budget_plan()).with_budget(budgets[i]))
            .collect();
        let s = round(&dev, &catalog, specs, Policy::RoundRobin);
        let completed = s.reports.iter().filter(|r| r.result.is_ok()).count();
        let out_of_core: usize = s
            .reports
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|o| count_chunked(&o.stats))
            .sum();
        for r in &s.reports {
            assert!(
                r.peak_mem_bytes <= r.budget_bytes,
                "tenant ledger must never cross its budget"
            );
        }
        if name.starts_with("ample") {
            ample_busy = s.reports.iter().map(|r| r.busy.secs().to_bits()).collect();
        } else if name.starts_with("one starved") && completed >= 3 {
            // Isolation: the three ample co-tenants are bit-identical to
            // their ample-split runs even while tenant 3 spills or dies.
            for (r, &expected) in s.reports.iter().zip(&ample_busy).take(3) {
                assert_eq!(
                    r.busy.secs().to_bits(),
                    expected,
                    "co-tenant busy time must not depend on a starved tenant"
                );
            }
        }
        let p99v = p99(&s.finishes);
        report.push(serde_json::json!({
            "sweep": "budget", "tenants": 4, "split": name,
            "budget_bytes": budgets.to_vec(),
            "completed": completed, "chunked_joins": out_of_core,
            "makespan_s": s.makespan, "p99_latency_s": p99v,
        }));
    }
    let solo_peak_mib = solo_peak as f64 / (1 << 20) as f64;
    report.claim(
        Claim::new("solo_join_peak_mib", solo_peak_mib).says(format!(
            "per-tenant budgets hold: no tenant's ledger peak ever exceeded its reservation \
             (solo join peak {solo_peak_mib:.1} MiB); undersized budgets re-plan joins \
             out-of-core instead of OOMing co-tenants"
        )),
    );

    report
}
