//! The one harness binary: `bench list | all | <experiment>... | gate`
//! (see [`bench::USAGE`]). Exit codes: 0 success, 1 the gate failed, 2 the
//! command line or the file system said no.

use bench::gate::{render_drift_table, run_gate, FigureDiff};
use bench::{Args, Session};
use std::process::exit;

fn main() {
    let args = Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", bench::USAGE);
        exit(2)
    });
    match args {
        Args::List => {
            for e in bench::exp::REGISTRY {
                println!("{}", e.name);
            }
        }
        Args::Run {
            experiments,
            config,
        } => {
            let mut session = Session::new(config);
            for e in experiments {
                session.run(e);
            }
            if let Err(e) = session.finish() {
                eprintln!("error: cannot write artifacts: {e}");
                exit(2)
            }
        }
        Args::Gate {
            baseline,
            fresh,
            tol,
        } => {
            let diffs = run_gate(&baseline, &fresh, tol);
            if diffs.is_empty() {
                eprintln!(
                    "error: no experiment reports under {} or {}",
                    baseline.display(),
                    fresh.display()
                );
                exit(2)
            }
            print!("{}", render_drift_table(&diffs, tol));
            if !diffs.iter().all(FigureDiff::ok) {
                exit(1)
            }
        }
    }
}
