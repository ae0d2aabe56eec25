//! # gpu-join — GPU joins and grouped aggregations, end to end
//!
//! The facade crate of this workspace: a reproduction of *Efficiently
//! Processing Large Relational Joins on GPUs* (VLDB'24) and the grouped
//! aggregations of its SIGMOD'25 successor, running on a calibrated software
//! GPU simulator (see the [`sim`] crate for the substitution rationale).
//!
//! ## Quick start
//!
//! ```
//! use gpu_join::prelude::*;
//!
//! let dev = &Device::a100();
//!
//! // Two relations: R(key, payload), S(key, payload).
//! let r = Relation::new(
//!     "R",
//!     Column::from_i32(dev, vec![2, 0, 1], "r.key"),
//!     vec![Column::from_i32(dev, vec![20, 0, 10], "r.p")],
//! );
//! let s = Relation::new(
//!     "S",
//!     Column::from_i32(dev, vec![1, 1, 2], "s.key"),
//!     vec![Column::from_i32(dev, vec![7, 8, 9], "s.q")],
//! );
//!
//! // The paper's flagship: radix-partitioned hash join with GFTR
//! // (optimized) materialization.
//! let out = run_join(dev, Algorithm::PhjOm, &r, &s, &JoinConfig::default());
//! assert_eq!(out.len(), 3);
//! println!("transform  {}", out.stats.phases.transform);
//! println!("match find {}", out.stats.phases.match_find);
//! println!("materialize {}", out.stats.phases.materialize);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | GPU execution simulator: cost model, counters, memory ledger |
//! | [`columnar`] | columns, relations, dictionary encoding |
//! | [`primitives`] | RADIX-PARTITION, SORT-PAIRS, GATHER, merge path, hash tables |
//! | [`joins`] | SMJ-UM/OM, PHJ-UM/OM, NPHJ, CPU baseline, join pipelines |
//! | [`groupby`] | hash / sort / partitioned grouped aggregations |
//! | [`workloads`] | microbenchmark + TPC-H/DS extract generators |
//! | [`heuristics`] | the Figure 18 decision trees |
//! | [`engine`] | a minimal columnar query engine (scan/filter/project/join/aggregate) |

pub mod memory_model;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::memory_model;
    pub use columnar::{Column, DType, DictionaryEncoder, Relation};
    pub use groupby::{run_group_by, AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput};
    pub use heuristics::{choose_join, choose_smj, profile_of, WorkloadProfile};
    pub use joins::chunked::{chunked_join, plan_chunks};
    pub use joins::plan::{join_sequence, FactTable};
    pub use joins::{run_join, Algorithm, JoinConfig, JoinKind, JoinOutput};
    pub use sim::{Counters, Device, DeviceConfig, OpStats, PhaseTimes, SimTime};
}

// Re-export the member crates for direct access.
pub use columnar;
pub use engine;
pub use groupby;
pub use heuristics;
pub use joins;
pub use primitives;
pub use sim;
pub use sql;
pub use workloads;
