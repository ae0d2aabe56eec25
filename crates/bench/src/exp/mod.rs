//! Experiment implementations, one module per paper artifact, and the
//! [`REGISTRY`] that names them: the only place where an experiment's
//! name, scale notch and run function are bound. The `bench` binary, the
//! smoke tests and the report differ all read this table.
//!
//! An experiment records rows and claims and prints nothing. Every claim of
//! a join artifact (Figures 1 and 7-18, Tables 1-2, 4 and 5) has a band:
//! the paper's stated ratio or percentage ±25% (±15% where 25% would admit
//! a reversal below 1x); `[1, ∞)` for an ordering the paper states without
//! a ratio; exactly 1 for a yes/no the paper answers yes; otherwise the
//! range the paper's wording gives ("very close", "equal or lower", "lose
//! below 25%"). Wall-clock claims get none.

mod ablation;
mod ablation_fusion;
mod device_sweep;
mod fig01;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig18;
mod g01;
mod g02;
mod g03;
mod g04;
mod g05;
mod g06;
mod m01;
mod m02;
mod m03;
mod m04;
mod q_tpch;
mod serving;
mod table04;
mod table05;
mod table12;

use crate::{Report, Session};
use joins::{Algorithm, JoinConfig};
use sim::{Device, OpStats};
use workloads::JoinWorkload;

/// One runnable experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Registry name: the CLI argument, [`Report::experiment`] and the
    /// stem of the report file `<out>/<name>.json`.
    pub name: &'static str,
    /// Added to `--scale`: sweeps that multiply data volume run one notch
    /// down (`-1`).
    pub scale_delta: i32,
    /// The experiment body; run it through [`Session::run`], which applies
    /// `scale_delta` first.
    pub(crate) run: fn(&mut Session) -> Report,
}

const fn entry(
    name: &'static str,
    scale_delta: i32,
    run: fn(&mut Session) -> Report,
) -> Experiment {
    Experiment {
        name,
        scale_delta,
        run,
    }
}

/// Every experiment, in the order `bench all` runs them.
pub const REGISTRY: &[Experiment] = &[
    entry("fig01", 0, fig01::run),
    entry("table04", 0, table04::run),
    entry("fig07", 0, fig07::run),
    entry("fig08", 0, fig08::run),
    entry("fig09", 0, fig09::run),
    entry("fig10", 0, fig10::run),
    entry("fig11", 0, fig11::run),
    // payload-column and TPC sweeps multiply data volume: one notch down.
    entry("fig12", -1, fig12::run),
    entry("fig13", 0, fig13::run),
    entry("fig14", 0, fig14::run),
    entry("fig15", 0, fig15::run),
    entry("table05", 0, table05::run),
    entry("fig16", -1, fig16::run),
    entry("fig17", -1, fig17::run),
    entry("fig18", -1, fig18::run),
    entry("table12", 0, table12::run),
    entry("g01", 0, g01::run),
    entry("g02", 0, g02::run),
    entry("g03", -1, g03::run),
    entry("g04", -1, g04::run),
    entry("g05", 0, g05::run),
    entry("g06", -1, g06::run),
    entry("m01_multi_query", -1, m01::run),
    entry("m02_serving", -1, m02::run),
    entry("m03_admission", -1, m03::run),
    entry("m04_slo", -1, m04::run),
    entry("q_tpch", -1, q_tpch::run),
    entry("ablation_radix_bits", -1, ablation::radix_bits),
    entry("ablation_sort_bits", -1, ablation::sort_bits),
    entry("ablation_phj_patterns", -1, ablation::phj_patterns),
    // The fusion ablation's acceptance floor (≥20% DRAM saved at 10%
    // selectivity) is stated at the base scale: no notch down.
    entry("ablation_fusion", 0, ablation_fusion::run),
    entry("ablation_device_sweep", -1, device_sweep::run),
];

/// Look an experiment up by its registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Run one workload through a set of algorithms on a shared device,
/// returning per-algorithm stats. Inputs are regenerated per algorithm so
/// the memory ledger starts clean each time.
pub(crate) fn run_algorithms(
    dev: &Device,
    w: &JoinWorkload,
    algorithms: &[Algorithm],
    config: &JoinConfig,
) -> Vec<(Algorithm, OpStats)> {
    algorithms
        .iter()
        .map(|&alg| {
            let (r, s) = w.generate(dev);
            let out = joins::run_join(dev, alg, &r, &s, config);
            (alg, out.stats)
        })
        .collect()
}

/// One algorithm's per-phase breakdown as a JSON row.
pub(crate) fn breakdown_row(label: &str, stats: &OpStats) -> serde_json::Value {
    let p = stats.phases;
    serde_json::json!({
        "algorithm": label,
        "transform_s": p.transform.secs(),
        "match_s": p.match_find.secs(),
        "materialize_s": p.materialize.secs(),
        "total_s": p.total().secs(),
        "materialize_fraction": p.materialize_fraction(),
        "rows": stats.rows,
        "peak_mem_bytes": stats.peak_mem_bytes,
    })
}

/// Total time of one algorithm out of a `run_algorithms` result set.
pub(crate) fn total_of(results: &[(Algorithm, OpStats)], alg: Algorithm) -> f64 {
    results
        .iter()
        .find(|(a, _)| *a == alg)
        .map(|(_, s)| s.phases.total().secs())
        .expect("algorithm was run")
}
