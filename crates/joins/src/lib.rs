//! # joins — the paper's join implementations
//!
//! Every GPU join is one three-phase computation — transform, match
//! finding, materialize (the paper's Algorithm 1) — with two free choices:
//! the transformation and where payloads are gathered from (GFUR: the
//! untransformed relations; GFTR: the transformed ones). `driver.rs` holds
//! that computation once; an [`Algorithm`] is a row of this table
//! (`Algorithm::recipe` in code):
//!
//! | algorithm   | transform                        | pattern | narrow join ⇒ | section |
//! |-------------|----------------------------------|---------|---------------|---------|
//! | SMJ-UM      | sort `(key, ID)`                 | GFUR, unclustered gathers | SMJ-OM | 3.1 |
//! | SMJ-OM      | sort every column with the keys  | GFTR, clustered gathers   |        | 4.2 |
//! | PHJ-UM      | bucket-chain partition `(key, ID)` (`phj_um.rs`) | GFUR      | PHJ-OM | 3.2 |
//! | PHJ-OM      | stable radix partition, every column | GFTR                  |        | 4.3 |
//! | PHJ-OM/GFUR | stable radix partition `(key, ID)`   | GFUR                  |        | 4.3 |
//! | NPHJ        | none (global hash table, cuDF stand-in) | GFUR               |        | 5.2.2 |
//!
//! A *narrow* join (at most one payload column per side) carries its payload
//! as the pair value, so the UM variants *are* the OM paths there. The one
//! baseline outside the table is [`cpu::cpu_radix_join`] — a real
//! multi-threaded CPU radix join (Balkesen et al. stand-in), measured in
//! host wall-clock.
//!
//! All of them consume [`columnar::Relation`]s and produce a [`JoinOutput`]
//! with the materialized result plus per-phase timing and peak memory.
//! [`oracle::hash_join_oracle`] provides the reference results the test
//! suite checks every implementation against, and [`plan`] chains joins into
//! the star-schema pipelines of Figure 16.

pub mod chunked;
pub mod cpu;
mod driver;
pub mod kinds;
pub mod oracle;
mod phj_um;
pub mod plan;

// Per-algorithm test suites: each module holds only the documentation of its
// algorithm's row and the unit tests that drive it through `run_join`.
mod nphj;
mod phj_om;
mod smj;

pub use kinds::JoinKind;

use columnar::{Column, Relation};
use serde::{Deserialize, Serialize};
use sim::{Device, OpStats, SimTime};

/// Which join implementation to run — the paper's four variants plus the
/// two baselines. The short labels (SU/PU/SO/PO) follow Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Sort-merge join, unoptimized materialization (GFUR).
    SmjUm,
    /// Sort-merge join, optimized materialization (GFTR).
    SmjOm,
    /// Bucket-chain partitioned hash join, unoptimized materialization.
    PhjUm,
    /// Radix-partitioned hash join, optimized materialization.
    PhjOm,
    /// Radix-partitioned hash join run in GFUR mode (Section 4.3's remark
    /// that the new implementation can also skip payload partitioning).
    PhjOmGfur,
    /// Non-partitioned global hash join (cuDF baseline).
    Nphj,
    /// Multi-threaded CPU radix join (Balkesen et al. baseline).
    CpuRadix,
}

impl Algorithm {
    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SmjUm => "SMJ-UM",
            Algorithm::SmjOm => "SMJ-OM",
            Algorithm::PhjUm => "PHJ-UM",
            Algorithm::PhjOm => "PHJ-OM",
            Algorithm::PhjOmGfur => "PHJ-OM/GFUR",
            Algorithm::Nphj => "NPHJ",
            Algorithm::CpuRadix => "CPU",
        }
    }

    /// The materialization strategy label (the paper's Section 4.2 split):
    /// `"GFTR"` for gather-from-transformed-relations variants, `"GFUR"`
    /// for gather-from-untransformed-relations, `"CPU"` for the host
    /// baseline.
    pub fn materialization(self) -> &'static str {
        match self.recipe(false) {
            Some((_, driver::Pattern::Gftr, _)) => "GFTR",
            Some((_, driver::Pattern::Gfur, _)) => "GFUR",
            None => "CPU",
        }
    }

    /// All GPU variants compared throughout Section 5.
    pub const GPU_VARIANTS: [Algorithm; 4] = [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pre-allocated output memory, matching the paper's measurement protocol
/// (Section 4.4 assumes "the output relation is already allocated"; Section
/// 5.2.6: "we allocate the majority of the consumed memory before executing
/// the join"). One reservation piece per output column, released right
/// before the real column is written so nothing is double-counted. No
/// kernel touches reserved memory, so the pieces are ledger charges only
/// ([`Device::reserve`]) with no host bytes behind them.
pub(crate) struct OutputReservation {
    keys: Option<sim::Reservation>,
    /// One piece per R payload column; set to `None` to release it.
    pub(crate) r_cols: Vec<Option<sim::Reservation>>,
    /// One piece per S payload column.
    pub(crate) s_cols: Vec<Option<sim::Reservation>>,
}

impl OutputReservation {
    /// Reserve space for `rows` output rows of `r ⋈ s`'s schema.
    pub(crate) fn new(dev: &Device, r: &Relation, s: &Relation, rows: usize) -> Self {
        let piece = |dtype: columnar::DType| {
            Some(dev.reserve(rows as u64 * dtype.size(), "output_reservation"))
        };
        OutputReservation {
            keys: piece(r.key().dtype()),
            r_cols: r.payloads().iter().map(|c| piece(c.dtype())).collect(),
            s_cols: s.payloads().iter().map(|c| piece(c.dtype())).collect(),
        }
    }

    /// Release the key column's reservation (call right before the match
    /// keys are written).
    pub(crate) fn release_keys(&mut self) {
        self.keys = None;
    }
}

/// The output-size estimate used for the reservation: the caller's explicit
/// expectation, else the PK-FK default `|T| = |S|` (the paper's setting).
pub(crate) fn estimated_out_rows(config: &JoinConfig, s: &Relation) -> usize {
    config.expected_out_rows.unwrap_or_else(|| s.len())
}

/// Tuning knobs shared by the join implementations.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Declare the build side (R) duplicate-free — the PK-FK case the paper
    /// focuses on. Enables the single-bounds-pass merge join.
    pub unique_build: bool,
    /// Radix bits for the partitioned joins; `None` sizes partitions to the
    /// device's shared memory (the paper's 15-16 bits at 2^27 tuples).
    pub radix_bits: Option<u32>,
    /// Bucket capacity (tuples) for the bucket-chain partitioner of PHJ-UM;
    /// `0` (the default) sizes buckets to the shared-memory hash table.
    pub bucket_tuples: usize,
    /// Seed for the simulated block scheduler — different seeds expose
    /// PHJ-UM's non-deterministic partition layouts (Section 4.3).
    pub scheduler_seed: u64,
    /// Expected output cardinality, used to pre-allocate the output
    /// relation (the paper's protocol). `None` assumes the PK-FK case
    /// `|T| = |S|`.
    pub expected_out_rows: Option<usize>,
    /// Join semantics: inner (the paper's setting), or probe-side
    /// semi/anti/outer (see [`kinds::JoinKind`]).
    pub kind: JoinKind,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            unique_build: true,
            radix_bits: None,
            bucket_tuples: 0,
            scheduler_seed: 0,
            expected_out_rows: None,
            kind: JoinKind::Inner,
        }
    }
}

/// A materialized join result `T(k, r_1..r_n, s_1..s_m)` plus statistics.
pub struct JoinOutput {
    /// The matched key column.
    pub keys: Column,
    /// Materialized payload columns from R, in schema order.
    pub r_payloads: Vec<Column>,
    /// Materialized payload columns from S, in schema order.
    pub s_payloads: Vec<Column>,
    /// Timing, memory and hardware-counter report.
    pub stats: OpStats,
}

impl JoinOutput {
    /// Output cardinality.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the join matched nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All rows as widened tuples `(key, r payloads…, s payloads…)`, sorted —
    /// an order-insensitive form for oracle comparison in tests.
    pub fn rows_sorted(&self) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..self.len())
            .map(|i| {
                let mut row = Vec::with_capacity(1 + self.r_payloads.len() + self.s_payloads.len());
                row.push(self.keys.value(i));
                row.extend(self.r_payloads.iter().map(|c| c.value(i)));
                row.extend(self.s_payloads.iter().map(|c| c.value(i)));
                row
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// Run `algorithm` on `(r, s)` — the uniform entry point used by the
/// benchmark harness, the engine's operator layer and the decision-tree
/// validation. Captures the per-join hardware-counter delta (Table 4
/// metrics) into the shared [`OpStats`] report.
pub fn run_join(
    dev: &Device,
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> JoinOutput {
    let before = dev.counters();
    let t0 = dev.elapsed();
    let narrow = r.num_payloads() <= 1 && s.num_payloads() <= 1;
    let mut out = match algorithm.recipe(narrow) {
        Some(recipe) => columnar::dispatch_column!(r.key(), s.key(), |rk, sk| {
            driver::typed(rk, sk, dev, r, s, config, recipe)
        }),
        None => cpu::cpu_radix_join(dev, r, s, config),
    };
    out.stats.counters = dev.counters().delta_since(&before).0;
    out.stats.query = dev.query_id();
    dev.trace_span(sim::SpanCat::Join, algorithm.name(), t0, dev.elapsed());
    out
}

/// Time a closure in simulated device time.
pub(crate) fn timed<T>(dev: &Device, f: impl FnOnce() -> T) -> (T, SimTime) {
    let t0 = dev.elapsed();
    let out = f();
    (out, dev.elapsed() - t0)
}

/// Pick the radix fan-out: partitions sized to the shared-memory hash table,
/// clamped to the 2-pass range the paper uses (Section 4.3).
pub(crate) fn choose_radix_bits(
    dev: &Device,
    build_rows: usize,
    key_bytes: u64,
    config: &JoinConfig,
) -> u32 {
    if let Some(bits) = config.radix_bits {
        return bits;
    }
    let target = dev.config().shared_mem_tuples(key_bytes + 4).max(64);
    let parts = (build_rows as u64).div_ceil(target).max(1);
    (64 - (parts - 1).leading_zeros()).clamp(1, 16)
}
