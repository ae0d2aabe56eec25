//! The per-layer numbers: one layer at a time, called through its public
//! functions and timed from outside.
//!
//! Host-clock values are medians of [`REPS`] calls. Simulated values and
//! counts come off the device counters of one of those calls; they repeat
//! exactly. The suite does not depend on which workload the traced run is
//! for, so every traced run reports every name.

use crate::common::{device, host_threads, median_secs, metric, Metric, Params, Size};
use crate::stats::{median, SplitMix};
use crate::workload;
use crate::workload::join::scale_log2 as join_scale_log2;
use crate::workload::sql_closed::texts;
use engine::PlanCache;
use primitives::{gather, merge_join, radix_partition, sort_pairs, GlobalHashTable};
use sim::{Device, DeviceBuffer};
use workloads::JoinWorkload;

/// Outside-timed calls behind every host-clock median.
const REPS: usize = 5;
/// Addresses per `warp_loads` / `warp_stores` probe.
const ADDRS_LOG2: u32 = 22;
/// Launches timed together for `sim.launch.host_us`; one launch is too short
/// for the clock.
const LAUNCH_BATCH: usize = 1000;
/// Calls timed together for the SQL frontend and cost-model probes.
const FRONTEND_BATCH: usize = 20;

/// Run every probe. `seed` feeds the generated inputs, as in the workloads.
pub fn run_all(seed: u64) -> Result<Vec<Metric>, String> {
    let probe = Params {
        seed,
        seconds: 0.0,
        size: Size::Probe,
    };
    let mut out = sim_probes(seed);
    out.extend(primitive_probes(seed));
    out.extend(generator_probes(seed));
    out.extend(frontend_and_engine_probes(seed)?);
    // Layers whose numbers are read off a workload's own timed calls.
    for name in ["join_wide", "groupby_mix", "sql_closed", "serving_open"] {
        let outcome = workload::run(name, &probe)?;
        if !outcome.correct() {
            return Err(format!("{name} probe failed its output checks"));
        }
        out.extend(outcome.layer);
    }
    Ok(out)
}

/// A permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut map: Vec<u32> = (0..n as u32).collect();
    SplitMix(seed).shuffle(&mut map);
    map
}

/// `sim`: the warp-traffic accounting of `sim::kernel`, a bare launch, and
/// an upload.
fn sim_probes(seed: u64) -> Vec<Metric> {
    let n = 1usize << ADDRS_LOG2;
    let dev = device(ADDRS_LOG2, host_threads());
    let seq_dev = device(ADDRS_LOG2, 1);
    let addrs_of = |dev: &Device, map: &[u32]| -> (DeviceBuffer<u32>, Vec<u64>) {
        let buf = dev.alloc::<u32>(n, "probe.src");
        let addrs = map.iter().map(|&i| buf.addr_of(i as usize)).collect();
        (buf, addrs)
    };
    let map = permutation(seed, n);
    let (_src, unclustered) = addrs_of(&dev, &map);
    let clustered: Vec<u64> = {
        let mut sorted = unclustered.clone();
        sorted.sort_unstable();
        sorted
    };
    let (_seq_src, seq_unclustered) = addrs_of(&seq_dev, &map);
    let maddr_per_s = |secs: f64| n as f64 / secs / 1e6;
    let loads = |dev: &Device, addrs: &[u64]| {
        median_secs(REPS, || {
            dev.kernel("probe.warp_loads")
                .warp_loads(4, addrs.iter().copied())
                .launch();
        })
    };
    let mut out = vec![
        metric(
            "sim.warp_loads.unclustered.maddr_per_host_s",
            maddr_per_s(loads(&dev, &unclustered)),
            "Maddr/s",
        ),
        metric(
            "sim.warp_loads.clustered.maddr_per_host_s",
            maddr_per_s(loads(&dev, &clustered)),
            "Maddr/s",
        ),
        metric(
            "sim.warp_loads.seq_ref.maddr_per_host_s",
            maddr_per_s(loads(&seq_dev, &seq_unclustered)),
            "Maddr/s",
        ),
        metric(
            "sim.warp_stores.maddr_per_host_s",
            maddr_per_s(median_secs(REPS, || {
                dev.kernel("probe.warp_stores")
                    .warp_stores(4, unclustered.iter().copied())
                    .launch();
            })),
            "Maddr/s",
        ),
    ];
    let launch_s = median_secs(REPS, || {
        for _ in 0..LAUNCH_BATCH {
            dev.kernel("probe.launch")
                .items(1 << 10, 1.0)
                .seq_read_bytes(1 << 12)
                .launch();
        }
    });
    out.push(metric(
        "sim.launch.host_us",
        launch_s * 1e6 / LAUNCH_BATCH as f64,
        "us",
    ));
    let data = vec![0u32; n];
    let upload_s = median_secs(REPS, || {
        drop(dev.upload(data.clone(), "probe.upload"));
    });
    out.push(metric(
        "sim.upload.gb_per_host_s",
        (n * 4) as f64 / upload_s / 1e9,
        "GB/s",
    ));
    out
}

/// `primitives`, on the key and payload buffers of the wide join input, plus
/// the Table 4 counts of the two gathers.
fn primitive_probes(seed: u64) -> Vec<Metric> {
    let l = join_scale_log2(Size::Probe);
    let dev = device(l, host_threads());
    let (r, s) = JoinWorkload {
        seed,
        ..JoinWorkload::wide(1 << l)
    }
    .generate(&dev);
    let (r_keys, r_vals) = (r.key().as_i32(), r.payload(0).as_i32());
    let (s_keys, s_vals) = (s.key().as_i32(), s.payload(0).as_i32());
    let both = (r.len() + s.len()) as f64;

    let mut out = Vec::new();
    // Each probe: the host median of REPS calls, and the simulated time and
    // counter delta of the last one.
    let mut probe = |name: &str, tuples: f64, call: &mut dyn FnMut()| {
        let mut sim_s = 0.0;
        let mut counters = dev.counters();
        let host_s = median_secs(REPS, || {
            let (t0, c0) = (dev.elapsed(), dev.counters());
            call();
            sim_s = (dev.elapsed() - t0).secs();
            counters = dev.counters().delta_since(&c0).0;
        });
        out.push(metric(
            format!("primitives.{name}.mtuples_per_host_s"),
            tuples / host_s / 1e6,
            "Mtuples/s",
        ));
        out.push(metric(
            format!("primitives.{name}.sim_mtuples_per_s"),
            tuples / sim_s / 1e6,
            "sim_Mtuples/s",
        ));
        counters
    };

    probe("radix_partition", s.len() as f64, &mut || {
        drop(radix_partition(&dev, s_keys, s_vals, 8));
    });
    probe("sort_pairs", s.len() as f64, &mut || {
        drop(sort_pairs(&dev, s_keys, s_vals));
    });
    let identity = dev.upload((0..s.len() as u32).collect(), "probe.map");
    let shuffled = dev.upload(permutation(seed, s.len()), "probe.map");
    let clustered = probe("gather.clustered", s.len() as f64, &mut || {
        drop(gather(&dev, s_vals, &identity));
    });
    let unclustered = probe("gather.unclustered", s.len() as f64, &mut || {
        drop(gather(&dev, s_vals, &shuffled));
    });
    probe("hash_build_probe", both, &mut || {
        let mut table = GlobalHashTable::<i32>::new(&dev, r.len());
        table.build(&dev, r_keys);
        drop(table.probe(&dev, s_keys));
    });
    let (r_sorted, _) = sort_pairs(&dev, r_keys, r_vals);
    let (s_sorted, _) = sort_pairs(&dev, s_keys, s_vals);
    probe("merge_join", both, &mut || {
        drop(merge_join(&dev, &r_sorted, &s_sorted, true));
    });

    out.extend([
        metric(
            "sim.gather.unclustered.sectors_per_request",
            unclustered.sectors_per_request(),
            "count",
        ),
        metric(
            "sim.gather.clustered.sectors_per_request",
            clustered.sectors_per_request(),
            "count",
        ),
        metric(
            "sim.gather.unclustered.l2_hit_rate",
            unclustered.l2_hit_rate(),
            "ratio",
        ),
        metric(
            "sim.gather.unclustered.dram_read_gb",
            unclustered.dram_read_bytes as f64 / 1e9,
            "sim_GB",
        ),
    ]);

    // `heuristics`: the planner's group-count sampler on the same key column.
    let sample_s = median_secs(REPS, || {
        heuristics::estimate::sample_group_stats(&dev, s.key(), 4096);
    });
    out.push(metric(
        "heuristics.sample_group_stats.host_us",
        sample_s * 1e6,
        "us",
    ));
    out
}

/// `workloads` and `engine::demo`: the generators behind `setup_s`.
fn generator_probes(seed: u64) -> Vec<Metric> {
    let l = join_scale_log2(Size::Probe);
    let dev = device(l, host_threads());
    let join = JoinWorkload {
        seed,
        ..JoinWorkload::wide(1 << l)
    };
    let join_s = median_secs(REPS, || drop(join.generate(&dev)));
    let mut rows = 0;
    let tpch_s = median_secs(REPS, || {
        let catalog = engine::demo::tpch_full(&dev, 1 << l, seed);
        rows = catalog
            .table_names()
            .iter()
            .map(|t| catalog.get(t).map_or(0, |t| t.num_rows()))
            .sum();
    });
    vec![
        metric(
            "workloads.join_generate.mtuples_per_host_s",
            join.total_tuples() as f64 / join_s / 1e6,
            "Mtuples/s",
        ),
        metric(
            "workloads.tpch_full.mrows_per_host_s",
            rows as f64 / tpch_s / 1e6,
            "Mrows/s",
        ),
    ]
}

/// `sql` (lex, parse, bind, lower) and the parts of `engine` a query's own
/// timing does not separate: compile, fusion, the plan cache, the cost model.
fn frontend_and_engine_probes(seed: u64) -> Result<Vec<Metric>, String> {
    let l = workload::sql_closed::lineitems_log2(Size::Probe);
    let dev = device(l, host_threads());
    let catalog = engine::demo::tpch_full(&dev, 1 << l, seed);
    let err = |e: engine::EngineError| e.to_string();
    // Microseconds per call, from a batch of calls timed together.
    let batch_us = |call: &mut dyn FnMut()| {
        median_secs(REPS, || (0..FRONTEND_BATCH).for_each(|_| call())) * 1e6 / FRONTEND_BATCH as f64
    };

    let (mut lex, mut parse, mut bind, mut lower, mut compile, mut estimate, mut qerr) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut plans = Vec::new();
    for (_, text, _) in texts() {
        let query = sql::parse(text).map_err(err)?;
        let logical = sql::bind(&query, &catalog).map_err(err)?;
        let plan = sql::lower(&logical, &catalog).map_err(err)?.plan;
        lex.push(batch_us(&mut || drop(sql::fingerprint(text))));
        parse.push(batch_us(&mut || drop(sql::parse(text))));
        bind.push(batch_us(&mut || drop(sql::bind(&query, &catalog))));
        lower.push(batch_us(&mut || drop(sql::lower(&logical, &catalog))));
        compile.push(batch_us(&mut || drop(engine::op::compile(&plan))));
        estimate.push(batch_us(&mut || {
            drop(engine::cost::estimate(dev.config(), &catalog, &plan))
        }));
        let predicted = engine::cost::estimate(dev.config(), &catalog, &plan)
            .map_err(err)?
            .secs;
        let actual = engine::execute(&dev, &catalog, &plan)
            .map_err(err)?
            .stats
            .total_time()
            .secs();
        qerr.push((predicted / actual).max(actual / predicted));
        plans.push(plan);
    }
    let mut out = vec![
        metric("sql.lex_us", median(&lex), "us"),
        metric("sql.parse_us", median(&parse), "us"),
        metric("sql.bind_us", median(&bind), "us"),
        metric("sql.lower_us", median(&lower), "us"),
        metric("engine.compile_us", median(&compile), "us"),
        metric("engine.cost.estimate_us", median(&estimate), "us"),
        metric(
            "engine.cost.qerr_time",
            qerr.iter().copied().fold(0.0, f64::max),
            "ratio",
        ),
    ];

    // Fusion, on Q3: unfused over fused, on both clocks.
    let q3 = &plans[0];
    let mut sim = [0.0; 2];
    let mut host = [0.0; 2];
    for (i, fused) in [true, false].into_iter().enumerate() {
        host[i] = median_secs(REPS, || {
            let out = if fused {
                engine::execute(&dev, &catalog, q3)
            } else {
                engine::execute_unfused(&dev, &catalog, q3)
            };
            sim[i] = out.map_or(0.0, |o| o.stats.total_time().secs());
        });
    }
    out.push(metric(
        "engine.fusion.sim_speedup",
        sim[1] / sim[0],
        "ratio",
    ));
    out.push(metric(
        "engine.fusion.host_ratio",
        host[1] / host[0],
        "ratio",
    ));

    // Plan cache, on Q18: the first call fills the entry, the timed ones hit.
    let (_, q18_text, _) = texts()[1];
    let key = sql::fingerprint(q18_text).map_err(err)?;
    let mut cache = PlanCache::new(4);
    cache
        .execute_keyed(key, &dev, &catalog, &plans[1])
        .map_err(err)?;
    let hit_s = median_secs(REPS, || {
        drop(cache.execute_keyed(key, &dev, &catalog, &plans[1]));
    });
    let (hits, _, _) = cache.stats();
    if hits != REPS as u64 {
        return Err(format!("plan cache probe: {hits} hits, expected {REPS}"));
    }
    out.push(metric("engine.plan_cache.hit_host_ms", hit_s * 1e3, "ms"));
    Ok(out)
}
