//! The five workloads and the loop that times them.

pub mod groupby;
pub mod join;
pub mod serving_open;
pub mod sql_closed;

use crate::common::{
    host_metrics, metric, peak_rss_mb, Metric, Params, Pass, Size, Status, Workload, SETUP_REPS,
};
use crate::spans::Tracer;
use crate::stats::median;
use std::time::Instant;

/// Build a workload: generate, upload, check against the oracle, warm up.
/// Everything in here is set-up time.
pub fn setup(name: &str, p: &Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "join_narrow" => Box::new(join::JoinBench::setup(false, p)?),
        "join_wide" => Box::new(join::JoinBench::setup(true, p)?),
        "groupby_mix" => Box::new(groupby::GroupByBench::setup(p)?),
        "sql_closed" => Box::new(sql_closed::SqlBench::setup(p)?),
        "serving_open" => Box::new(serving_open::ServingBench::setup(p)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Timed passes a run makes at least. At full size the floor is what gives
/// `host_query_ms_p95` its 200 operations (ten beyond the percentile); a
/// `serving_open` pass is a whole sweep of 4 x 240 arrivals.
pub fn min_passes(name: &str, size: Size) -> usize {
    match (size, name) {
        (Size::Full, "join_narrow" | "join_wide") => 40,
        (Size::Full, "groupby_mix") => 15,
        (Size::Full, "sql_closed") => 67,
        (Size::Full, _) => 1,
        (Size::Probe, "serving_open") => 1,
        (Size::Probe, _) => 5,
        (Size::Traced, "sql_closed") => 20,
        (Size::Traced, "serving_open") => 1,
        (Size::Traced, _) => 6,
        (Size::Smoke, _) => 1,
    }
}

/// The result of one untraced run of one workload.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// Arrivals refused by admission control.
    pub shed: u64,
    /// Host seconds inside the timed calls of each pass, in order.
    pub pass_host_s: Vec<f64>,
    /// End-to-end metrics that could be computed at this size.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics read off the same passes.
    pub layer: Vec<Metric>,
    pub sim_fingerprint: u64,
    /// Why the run is incorrect, if it is.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Set up `name` (several times at full size), then time passes until
/// `p.seconds` is up and the floor is met.
pub fn run(name: &str, p: &Params) -> Result<Outcome, String> {
    let reps = if p.size == Size::Full { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        // Release the previous set-up first, so the peak is one set-up's.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup(name, p)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let floor = min_passes(name, p.size);
    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let loop_start = Instant::now();
    while passes.len() < floor || loop_start.elapsed().as_secs_f64() < p.seconds {
        passes.push(workload.pass(&mut tracer));
    }

    let mut errors = Vec::new();
    if workload.sim_repeats_exactly()
        && passes
            .iter()
            .any(|pass| pass.fingerprint != passes[0].fingerprint)
    {
        errors.push("simulated statistics differ between passes (sim_fingerprint)".to_string());
    }
    let count = |status: Status| -> u64 {
        passes
            .iter()
            .flat_map(|pass| &pass.ops)
            .filter(|op| op.status == status)
            .count() as u64
    };
    let attempted: u64 = passes.iter().map(|pass| pass.ops.len() as u64).sum();
    let summary = workload.summarize(&passes);

    let mut end_to_end = vec![metric("setup_s", median(&setup_s), "s")];
    end_to_end.extend(host_metrics(&passes));
    if let Some(mb) = peak_rss_mb() {
        end_to_end.push(metric("peak_rss_mb", mb, "MB"));
    }
    end_to_end.extend(summary.sim);
    end_to_end.push(metric(
        "ok_frac",
        count(Status::Ok) as f64 / attempted as f64,
        "ratio",
    ));
    Ok(Outcome {
        attempted,
        failed: count(Status::Failed),
        shed: count(Status::Shed),
        pass_host_s: passes.iter().map(Pass::host_s).collect(),
        end_to_end,
        layer: summary.layer,
        sim_fingerprint: passes[0].fingerprint,
        errors,
        notes: summary.notes,
    })
}

/// The traced run of one workload.
pub struct Traced {
    /// Median wall seconds of a pass with spans off.
    pub off_s: f64,
    /// The same with spans on.
    pub on_s: f64,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
}

/// Set `name` up once, then run passes with spans off and on in turn,
/// swapping which goes first each round, so that drift hits both alike.
pub fn traced(name: &str, p: &Params) -> Result<Traced, String> {
    let mut workload = setup(name, p)?;
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for round in 0..min_passes(name, p.size) {
        let mut order = [(&mut off, &mut off_s), (&mut on, &mut on_s)];
        if round % 2 == 1 {
            order.reverse();
        }
        for (tracer, wall_s) in order {
            let pass = workload.pass(tracer);
            wall_s.push(pass.wall_s);
            attempted += pass.ops.len() as u64;
            failed += pass
                .ops
                .iter()
                .filter(|op| op.status == Status::Failed)
                .count() as u64;
        }
    }
    Ok(Traced {
        off_s: median(&off_s),
        on_s: median(&on_s),
        tracer: on,
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::manifest;

    /// Every workload at 2^12 rows, one pass: nothing fails, and every name
    /// it reports is one the manifest declares.
    #[test]
    fn smoke_every_workload() {
        let p = Params {
            seed: 42,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let legal = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for name in &manifest().workloads {
            let outcome = run(name, &p).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(outcome.failed, 0, "{name}: failed operations");
            assert!(outcome.errors.is_empty(), "{name}: {:?}", outcome.errors);
            assert_eq!(outcome.pass_host_s.len(), 1);
            assert!(outcome.attempted >= 1);
            for m in &outcome.end_to_end {
                assert!(legal(&m.name), "{name}: metric name {:?}", m.name);
                assert!(
                    m.value.is_finite() && m.value != 0.0,
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
                let declared = manifest().end_to_end.iter().find(|d| d.name == m.name);
                assert_eq!(
                    declared.map(|d| d.unit.as_str()),
                    Some(m.unit),
                    "{name}: {} is not declared with this unit",
                    m.name
                );
            }
            for m in &outcome.layer {
                assert!(legal(&m.name), "{name}: metric name {:?}", m.name);
                assert!(
                    manifest()
                        .per_layer
                        .iter()
                        .any(|(n, u)| *n == m.name && u == m.unit),
                    "{name}: {} [{}] is not a declared per-layer metric",
                    m.name,
                    m.unit
                );
            }
        }
    }
}
