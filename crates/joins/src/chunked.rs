//! Out-of-core joins: inputs larger than device memory, processed in
//! probe-side chunks.
//!
//! The paper scopes itself to in-memory joins and cites out-of-memory
//! processing as orthogonal work (Kaldewey et al., Rui et al., Sioulas et
//! al. — Section 6); this module provides the straightforward composition:
//! keep the build relation resident, stream the probe relation through the
//! device in chunks sized so that one chunk's join (inputs + the
//! reservation + the transformation intermediates, per the Section 4.4
//! model) fits the remaining memory, and concatenate the chunk outputs.
//! Inner, semi and outer kinds distribute over probe chunks; anti does too
//! (each probe row's fate depends only on the resident build side).
//!
//! The chunk budget is computed from the same memory model Tables 1-2
//! validate, so a workload that OOMs the direct path runs chunked without
//! trial and error.

use crate::{run_join, Algorithm, JoinConfig, JoinOutput};
use columnar::{Column, Relation};
use primitives::gather_column;
use sim::{Device, OpStats, PhaseTimes};

/// How the chunked driver split the work.
#[derive(Debug, Clone, Copy)]
pub struct ChunkPlan {
    /// Probe rows per chunk.
    pub chunk_rows: usize,
    /// Number of chunks.
    pub chunks: usize,
}

/// Upper bound on the *additional* device bytes one chunk's join needs
/// beyond what is already resident, from the Section 4.4 accounting: the
/// staged probe chunk + the chunk's output reservation + GFTR
/// transformation state (`M_t + 4 M_c` with a histogram-sized `M_t`).
fn chunk_bytes_needed(r: &Relation, s: &Relation, chunk_rows: usize, out_rows: usize) -> u64 {
    let s_row = s.size_bytes() / s.len().max(1) as u64;
    let out_row: u64 = r.key().dtype().size()
        + r.payloads().iter().map(|c| c.dtype().size()).sum::<u64>()
        + s.payloads().iter().map(|c| c.dtype().size()).sum::<u64>();
    // Widest column pairs.
    let m_c = (chunk_rows.max(r.len()) as u64) * 8;
    // Transformation intermediates: histograms and scans sized to the
    // fan-out the build side needs, plus fixed kernel scratch.
    let m_t = (64 << 10) + (r.len() as u64 / 512) * 16;
    chunk_rows as u64 * s_row           // staged probe chunk
        + out_rows as u64 * out_row     // output reservation for the chunk
        + m_t + 4 * m_c // transformation state (Table 2)
}

/// Plan the probe-side chunking for the device's free memory. Returns
/// `None` when even a single-row chunk cannot fit (the build side itself is
/// too large — build-side chunking is future work, as in the papers cited).
pub fn plan_chunks(dev: &Device, r: &Relation, s: &Relation) -> Option<ChunkPlan> {
    // `mem_capacity` is the query's reserved budget on a scheduler query
    // handle (and the device's global memory otherwise), so a budget-capped
    // tenant re-plans out-of-core instead of OOMing.
    let budget = dev
        .mem_capacity()
        .saturating_sub(dev.mem_report().current_bytes);
    // The output of a PK-FK chunk is at most the chunk itself; general
    // joins can explode, so leave a 2x factor.
    let fits = |rows: usize| chunk_bytes_needed(r, s, rows, rows * 2) <= budget;
    if !fits(1) {
        return None;
    }
    if fits(s.len().max(1)) {
        return Some(ChunkPlan {
            chunk_rows: s.len().max(1),
            chunks: 1,
        });
    }
    // Largest power-of-two chunk that fits.
    let mut rows = 1usize;
    while rows * 2 <= s.len() && fits(rows * 2) {
        rows *= 2;
    }
    Some(ChunkPlan {
        chunk_rows: rows,
        chunks: s.len().div_ceil(rows),
    })
}

/// Join `r ⋈ s` in probe-side chunks with the given algorithm. Falls back
/// to a single direct run when everything fits. Panics (device OOM) only if
/// even one-row chunks cannot fit.
///
/// Chunk outputs are staged host-side as they complete (out-of-core output
/// lives on the host by definition); the returned [`JoinOutput`] re-uploads
/// the concatenation for API uniformity, so the *final* result must fit the
/// device alongside the inputs. Callers that stream further (e.g. to disk)
/// can adapt the loop to consume per-chunk outputs instead.
pub fn chunked_join(
    dev: &Device,
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> (JoinOutput, ChunkPlan) {
    let plan = plan_chunks(dev, r, s).unwrap_or_else(|| {
        panic!(
            "build side ({} bytes) alone exceeds device memory; build-side \
             chunking is not implemented",
            r.size_bytes()
        )
    });
    if plan.chunks == 1 {
        return (run_join(dev, algorithm, r, s, config), plan);
    }

    let counters_before = dev.counters();
    let mut phases = PhaseTimes::default();
    let mut peak = 0u64;
    let mut out_keys: Vec<i64> = Vec::new();
    let mut out_r: Vec<Vec<i64>> = vec![Vec::new(); r.num_payloads()];
    let mut out_s: Vec<Vec<i64>> = vec![Vec::new(); s.num_payloads()];
    let mut r_cols_present = r.num_payloads();

    for c in 0..plan.chunks {
        let chunk_t0 = dev.elapsed();
        let lo = c * plan.chunk_rows;
        let hi = ((c + 1) * plan.chunk_rows).min(s.len());
        // Chunk transfer: on hardware this is the host->device copy of the
        // chunk; charge one streaming pass (a clustered gather of the rows).
        let sel = dev.upload((lo as u32..hi as u32).collect::<Vec<u32>>(), "chunk.sel");
        let key = gather_column(dev, s.key(), &sel);
        let payloads = s
            .payloads()
            .iter()
            .map(|col| gather_column(dev, col, &sel))
            .collect();
        let chunk = Relation::new(format!("{}#{}", s.name(), c), key, payloads);
        let out = run_join(dev, algorithm, r, &chunk, config);
        phases += out.stats.phases;
        peak = peak.max(out.stats.peak_mem_bytes);
        out_keys.extend(out.keys.iter_i64());
        r_cols_present = out.r_payloads.len();
        for (acc, col) in out_r.iter_mut().zip(&out.r_payloads) {
            acc.extend(col.iter_i64());
        }
        for (acc, col) in out_s.iter_mut().zip(&out.s_payloads) {
            acc.extend(col.iter_i64());
        }
        // Covers the staging gathers plus the chunk's join run.
        dev.trace_span(
            sim::SpanCat::Chunk,
            &format!("chunk {}/{} [{lo}..{hi})", c + 1, plan.chunks),
            chunk_t0,
            dev.elapsed(),
        );
    }

    // Reassemble in the original column types.
    let keys = rebuild(dev, r.key(), out_keys);
    let r_payloads = out_r
        .into_iter()
        .take(r_cols_present)
        .zip(r.payloads())
        .map(|(vals, proto)| rebuild(dev, proto, vals))
        .collect();
    let s_payloads = out_s
        .into_iter()
        .zip(s.payloads())
        .map(|(vals, proto)| rebuild(dev, proto, vals))
        .collect();
    let keys_len = keys.len();
    let mut stats = OpStats::new(phases, keys_len, peak);
    // Counter delta over all chunks, including the staging gathers.
    stats.counters = dev.counters().delta_since(&counters_before).0;
    (
        JoinOutput {
            keys,
            r_payloads,
            s_payloads,
            stats,
        },
        plan,
    )
}

fn rebuild(dev: &Device, proto: &Column, vals: Vec<i64>) -> Column {
    match proto.dtype() {
        columnar::DType::I32 => Column::from_i32(
            dev,
            vals.into_iter().map(|v| v as i32).collect(),
            "chunk.out",
        ),
        columnar::DType::I64 => Column::from_i64(dev, vals, "chunk.out"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::JoinKind;
    use crate::oracle::{hash_join_oracle, join_oracle_kind};
    use sim::DeviceConfig;

    fn small_device(bytes: u64) -> Device {
        let mut cfg = DeviceConfig::a100();
        cfg.global_mem_bytes = bytes;
        Device::new(cfg)
    }

    fn inputs(dev: &Device, nr: usize, ns: usize) -> (Relation, Relation) {
        let pk: Vec<i32> = (0..nr as i32).collect();
        let fk: Vec<i32> = (0..ns).map(|i| ((i * 13) % nr) as i32).collect();
        (
            Relation::new(
                "R",
                Column::from_i32(dev, pk.clone(), "rk"),
                vec![
                    Column::from_i32(dev, pk.iter().map(|&k| k * 2).collect(), "r1"),
                    Column::from_i32(dev, pk.iter().map(|&k| k + 1).collect(), "r2"),
                ],
            ),
            Relation::new(
                "S",
                Column::from_i32(dev, fk.clone(), "sk"),
                vec![Column::from_i64(
                    dev,
                    fk.iter().map(|&k| k as i64).collect(),
                    "s1",
                )],
            ),
        )
    }

    #[test]
    fn everything_fits_runs_direct() {
        let dev = Device::a100();
        let (r, s) = inputs(&dev, 500, 2000);
        let (out, plan) = chunked_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
        assert_eq!(plan.chunks, 1);
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
    }

    #[test]
    fn chunked_matches_oracle_on_a_tight_device() {
        // A device barely big enough for R plus a fraction of S: the direct
        // join OOMs, the chunked one succeeds with the same result.
        let dev = small_device(1 << 20);
        let (r, s) = inputs(&dev, 2000, 30_000);
        let direct = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default())
        }));
        assert!(direct.is_err(), "the direct path must OOM on this device");

        let (out, plan) = chunked_join(&dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
        assert!(
            plan.chunks > 1,
            "expected probe-side chunking, got {plan:?}"
        );
        assert_eq!(out.rows_sorted(), hash_join_oracle(&r, &s));
        assert!(
            dev.mem_report().current_bytes <= dev.config().global_mem_bytes,
            "nothing beyond the device capacity stays resident"
        );
    }

    #[test]
    fn chunked_kinds_distribute_over_probe_chunks() {
        let dev = small_device(1 << 20);
        let pk: Vec<i32> = (0..1500).collect();
        let fk: Vec<i32> = (0..24_000).map(|i| i % 3000).collect(); // half dangle
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, pk.clone(), "rk"),
            vec![Column::from_i32(&dev, pk.clone(), "r1")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, fk.clone(), "sk"),
            vec![Column::from_i32(&dev, fk, "s1")],
        );
        for kind in [JoinKind::Semi, JoinKind::Anti, JoinKind::Outer] {
            let config = JoinConfig {
                kind,
                unique_build: false,
                ..JoinConfig::default()
            };
            let (out, plan) = chunked_join(&dev, Algorithm::PhjOm, &r, &s, &config);
            assert!(plan.chunks > 1);
            assert_eq!(
                out.rows_sorted(),
                join_oracle_kind(&r, &s, kind),
                "{} chunked",
                kind.name()
            );
        }
    }

    #[test]
    fn oversized_build_side_is_rejected() {
        // Capacity just above the inputs themselves: the relations fit, but
        // no chunk of any size leaves room for the join's working state.
        let dev = small_device(250 << 10);
        let (r, s) = inputs(&dev, 20_000, 100);
        assert!(plan_chunks(&dev, &r, &s).is_none());
    }

    #[test]
    fn chunk_plan_is_conservative() {
        let dev = small_device(4 << 20);
        let (r, s) = inputs(&dev, 2000, 100_000);
        let plan = plan_chunks(&dev, &r, &s).expect("build side fits");
        // The planned chunk must actually fit the Section 4.4 accounting
        // within what the inputs left free.
        let budget = dev.config().global_mem_bytes - dev.mem_report().current_bytes;
        assert!(chunk_bytes_needed(&r, &s, plan.chunk_rows, plan.chunk_rows * 2) <= budget);
    }
}
