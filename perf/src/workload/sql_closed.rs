//! `sql_closed`: one client sends SQL text and waits for the result, over
//! and over. Every query is planned cold (`sql::parse` → `bind` → `lower`,
//! the body of `sql::plan_sql`) and run with `engine::execute`.

use crate::common::{
    closed_loop_sim_metrics, columns_checksum, device, hash_counters, host_threads, metric, Op,
    Params, Pass, Size, Status, Summary, Workload,
};
use crate::spans::Tracer;
use crate::stats::{median, rel_diff, Fnv};
use engine::{Catalog, NodeStats, Table};
use sim::Device;
use std::time::Instant;

/// The benchmark's own Q1-style text: a filtered scan and a small group-by.
pub const Q1S_SQL: &str = "SELECT l_discount, SUM(l_quantity) AS q, SUM(l_extendedprice) AS p, \
     COUNT(*) AS n FROM lineitem WHERE l_quantity <= 45 GROUP BY l_discount ORDER BY l_discount";

/// The three texts of a pass: (name, SQL, tables it reads).
pub fn texts() -> [(&'static str, &'static str, &'static [&'static str]); 3] {
    const ALL: &[&str] = &["customer", "orders", "lineitem"];
    [
        ("q3", engine::demo::q3_sql(), ALL),
        ("q18", engine::demo::q18_sql(), ALL),
        ("q1s", Q1S_SQL, &["lineitem"]),
    ]
}

pub fn lineitems_log2(size: Size) -> u32 {
    match size {
        Size::Full | Size::Traced => 17,
        Size::Probe => 15,
        Size::Smoke => 12,
    }
}

/// How far a query's simulated time may sit from its warm-up's. The modelled
/// L2 maps sectors by absolute address and the device's allocator never
/// reuses one, so the same query lands on different sets each time it runs:
/// Q3's gathers hit 0.4 % more or less often from pass to pass and its time
/// moves by 3e-4. Q18 and the Q1-style text repeat exactly. The reported
/// `sim_*` metrics come from the first timed pass, whose allocation history
/// is the same in every run.
const SIM_WOBBLE: f64 = 2e-3;

/// What the timed loop keeps of one query beyond its [`Op`].
struct QueryRecord {
    text: usize,
    execute_s: f64,
    kernel_launches: u64,
    nodes: usize,
}

struct Expected {
    rows: usize,
    checksum: u64,
    tuples: u64,
    /// Simulated time of the warm-up pass's query; 0 until it has run.
    sim_s: f64,
}

pub struct SqlBench {
    dev: Device,
    catalog: Catalog,
    expected: Vec<Expected>,
    records: Vec<QueryRecord>,
    lineitems_log2: u32,
}

fn table_checksum(table: &Table) -> u64 {
    columns_checksum(table.columns().iter().map(|(_, col)| col))
}

/// Column names and values, in order: two tables are byte-identical when
/// these are equal.
fn table_image(table: &Table) -> Vec<(String, Vec<i64>)> {
    table
        .columns()
        .iter()
        .map(|(name, col)| (name.clone(), col.to_vec_i64()))
        .collect()
}

pub fn count_nodes(stats: &NodeStats) -> usize {
    1 + stats.children.iter().map(count_nodes).sum::<usize>()
}

impl SqlBench {
    pub fn setup(p: &Params) -> Result<Self, String> {
        let l = lineitems_log2(p.size);
        let dev = device(l, host_threads());
        let catalog = engine::demo::tpch_full(&dev, 1 << l, p.seed);
        let mut expected = Vec::new();
        for (name, text, tables) in texts() {
            let plan = sql::plan_sql(text, &catalog)
                .map_err(|e| format!("{name}: plan_sql failed: {e}"))?
                .plan;
            let fused = engine::execute(&dev, &catalog, &plan)
                .map_err(|e| format!("{name}: execute failed: {e}"))?;
            let unfused = engine::execute_unfused(&dev, &catalog, &plan)
                .map_err(|e| format!("{name}: execute_unfused failed: {e}"))?;
            if table_image(&fused.table) != table_image(&unfused.table) {
                return Err(format!("{name}: fused and unfused results differ"));
            }
            let mut tuples = 0;
            for table in tables {
                let table = catalog.get(table).map_err(|e| e.to_string())?;
                tuples += table.num_rows() as u64;
            }
            expected.push(Expected {
                rows: fused.table.num_rows(),
                checksum: table_checksum(&fused.table),
                tuples,
                sim_s: 0.0,
            });
        }
        let mut bench = SqlBench {
            dev,
            catalog,
            expected,
            records: Vec::new(),
            lineitems_log2: l,
        };
        // Warm-up pass through the timed path itself.
        let warm = bench.pass(&mut Tracer::new(false));
        if warm.ops.iter().any(|op| op.status != Status::Ok) {
            return Err("warm-up pass: a query's result differs from execute's".into());
        }
        for (expected, op) in bench.expected.iter_mut().zip(&warm.ops) {
            expected.sim_s = op.sim_latency_s;
        }
        bench.records.clear();
        Ok(bench)
    }
}

impl Workload for SqlBench {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let wall = Instant::now();
        let before = self.dev.counters();
        let mut fingerprint = Fnv::new();
        let mut ops = Vec::new();
        let mut sim_s = 0.0;
        for (i, ((name, text, _), expected)) in texts().into_iter().zip(&self.expected).enumerate()
        {
            tracer.next_op();
            let (dev, catalog) = (&self.dev, &self.catalog);
            let t = Instant::now();
            let result = tracer.span("bench", name, Some(dev), expected.tuples, |tr| {
                let result = (|| {
                    let query = tr.span("sql", "parse", None, 0, |_| (sql::parse(text), 0))?;
                    let logical =
                        tr.span("sql", "bind", None, 0, |_| (sql::bind(&query, catalog), 0))?;
                    let lowered = tr.span("sql", "lower", None, 0, |_| {
                        (sql::lower(&logical, catalog), 0)
                    })?;
                    let launches = dev.counters().kernel_launches;
                    let t = Instant::now();
                    let out = tr.span("engine", "execute", Some(dev), expected.tuples, |_| {
                        let out = engine::execute(dev, catalog, &lowered.plan);
                        let rows = out.as_ref().map_or(0, |o| o.table.num_rows() as u64);
                        (out, rows)
                    })?;
                    let execute_s = t.elapsed().as_secs_f64();
                    let launches = dev.counters().kernel_launches - launches;
                    Ok::<_, engine::EngineError>((out, execute_s, launches))
                })();
                let rows = result
                    .as_ref()
                    .map_or(0, |(o, _, _)| o.table.num_rows() as u64);
                (result, rows)
            });
            let mut op = Op {
                kind: name,
                host_s: 0.0,
                sim_latency_s: 0.0,
                tuples: expected.tuples,
                status: Status::Failed,
            };
            if let Ok((out, execute_s, kernel_launches)) = result {
                let sim_s = out.stats.total_time().secs();
                let ok = out.table.num_rows() == expected.rows
                    && table_checksum(&out.table) == expected.checksum
                    && (expected.sim_s == 0.0 || rel_diff(sim_s, expected.sim_s) <= SIM_WOBBLE);
                op.status = if ok { Status::Ok } else { Status::Failed };
                op.sim_latency_s = sim_s;
                fingerprint.word(out.table.num_rows() as u64);
                hash_stats(&mut fingerprint, &out.stats);
                self.records.push(QueryRecord {
                    text: i,
                    execute_s,
                    kernel_launches,
                    nodes: count_nodes(&out.stats),
                });
                drop(out);
            }
            // A query's wall time runs from sending the text to having
            // released the result; the output check is inside it, as a
            // client reading its rows would be.
            op.host_s = t.elapsed().as_secs_f64();
            sim_s += op.sim_latency_s;
            ops.push(op);
        }
        Pass {
            ops,
            wall_s: wall.elapsed().as_secs_f64(),
            sim_s,
            dram_bytes: self.dev.counters().delta_since(&before).dram_bytes(),
            fingerprint: fingerprint.finish(),
        }
    }

    fn sim_repeats_exactly(&self) -> bool {
        false
    }

    fn summarize(&self, passes: &[Pass]) -> Summary {
        let records = &self.records;
        let mut layer = Vec::new();
        for (i, (name, _, _)) in texts().iter().enumerate() {
            let execute_ms: Vec<f64> = records
                .iter()
                .filter(|r| r.text == i)
                .map(|r| r.execute_s * 1e3)
                .collect();
            layer.push(metric(
                format!("engine.execute.{name}.host_ms"),
                median(&execute_ms),
                "ms",
            ));
            layer.push(metric(
                format!("engine.execute.{name}.sim_ms"),
                passes[0].ops[i].sim_latency_s * 1e3,
                "sim_ms",
            ));
        }
        let per = |f: fn(&QueryRecord) -> f64| -> f64 {
            median(
                &records
                    .iter()
                    .map(|r| r.execute_s * 1e6 / f(r))
                    .collect::<Vec<_>>(),
            )
        };
        layer.push(metric(
            "engine.host_us_per_node",
            per(|r| r.nodes as f64),
            "us",
        ));
        layer.push(metric(
            "engine.host_us_per_launch",
            per(|r| r.kernel_launches as f64),
            "us",
        ));
        let l = self.lineitems_log2;
        Summary {
            sim: closed_loop_sim_metrics(passes),
            layer,
            notes: vec![
                format!(
                    "inputs: tpch_full(lineitems = 2^{l}); closed loop, one client, texts q3/q18/q1s \
                     cycling, every query planned cold; device a100 scaled 2^{}; L2 cold at device \
                     start, not flushed between queries",
                    27 - l,
                ),
                "model unvalidated: the repo holds no paper numbers for these queries".into(),
            ],
        }
    }
}

/// Fold a query's node-stats tree into the fingerprint.
pub fn hash_stats(h: &mut Fnv, stats: &NodeStats) {
    h.word(stats.op.rows as u64);
    hash_counters(h, &stats.op.counters);
    h.float(stats.op.total_time().secs());
    for child in &stats.children {
        hash_stats(h, child);
    }
}
