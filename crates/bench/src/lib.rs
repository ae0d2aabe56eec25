//! # bench — the experiment harness
//!
//! One registry entry ([`exp::REGISTRY`]) per table and figure of the
//! paper's evaluation (Section 5), plus the grouped-aggregation (G1..G6),
//! multi-query/serving (M1..M4), SQL (Q-TPCH) and ablation extensions, all
//! behind one binary:
//!
//! ```text
//! bench list | all | <experiment>... | diff | gate
//! ```
//!
//! Every experiment
//!
//! * prints the same rows/series the paper reports (who wins, by what
//!   factor, where the crossovers fall — absolute numbers come from the
//!   simulator's calibrated cost model, not real hardware);
//! * runs at `--scale <log2-tuples>` (default 22; the paper's headline scale
//!   is 27) plus its registry `scale_delta`, on `--device a100|rtx3090`;
//! * is deterministic: the simulator has no noise, so the paper's
//!   "median of 7 runs" protocol collapses to a single run (the CPU
//!   baseline, which measures real wall-clock, still repeats `--reps`
//!   times and takes the median).
//!
//! A run is one [`Session`]: it owns the parsed [`Config`], builds the
//! devices, collects what the experiments record, and — with `--out DIR` —
//! writes one artifact directory at the end (see [`Session::finish`]).
//! Run everything with `cargo run --release -p bench -- all`.

mod args;
pub mod diff;
pub mod exp;
pub mod gate;
mod session;

pub use args::{ArgError, Args, Compare, Config, DeviceKind, USAGE};
pub use session::Session;

use serde::Serialize;

/// A finished experiment: an identifier, headline text, and JSON rows.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Experiment id: its [`exp::REGISTRY`] name (e.g. "fig10").
    pub experiment: &'static str,
    /// What the paper's corresponding artifact shows.
    pub title: &'static str,
    /// Device the run used.
    pub device: String,
    /// Effective scale (log2 tuples): `--scale` plus the registry delta.
    pub scale_log2: u32,
    /// One JSON object per printed row.
    pub rows: Vec<serde_json::Value>,
    /// Headline findings, one sentence each (these feed EXPERIMENTS.md).
    pub findings: Vec<String>,
}

impl Report {
    /// Create an empty report.
    pub fn new(experiment: &'static str, title: &'static str, session: &Session) -> Self {
        Report {
            experiment,
            title,
            device: session.device_kind().name().to_string(),
            scale_log2: session.scale_log2(),
            rows: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// Record a headline finding (also printed).
    pub fn finding(&mut self, text: String) {
        println!(">> {text}");
        self.findings.push(text);
    }
}

/// Format a tuples/second figure the way the paper's axes do (M tuples/s).
pub fn mtps(tuples: usize, t: sim::SimTime) -> f64 {
    tuples as f64 / t.secs() / 1e6
}

/// `GB` with two decimals.
pub fn gb(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates() {
        let session = Session::new(Config::default());
        let mut r = Report::new("figX", "test", &session);
        r.push(serde_json::json!({"a": 1}));
        r.finding("works".to_string());
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!((r.device.as_str(), r.scale_log2), ("a100", 22));
    }

    #[test]
    fn mtps_math() {
        let v = mtps(2_000_000, sim::SimTime::from_secs(1.0));
        assert!((v - 2.0).abs() < 1e-9);
    }
}
