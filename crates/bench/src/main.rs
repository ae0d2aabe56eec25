//! The one harness binary: `bench list | all | <experiment>... | diff | gate`
//! (see [`bench::USAGE`]). Exit codes: 0 success, 1 a diff or gate verdict
//! failed, 2 the command line or the file system said no.

use bench::diff::{diff_dirs, render_drift_table, FigureDiff};
use bench::gate::run_gate;
use bench::{Args, Compare, Session};
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
        Args::Diff(c) => verdict(&c, diff_dirs(&c.baseline, &c.fresh, c.tol)),
        Args::Gate(c) => verdict(&c, run_gate(&c.baseline, &c.fresh, c.tol).diffs),
    }
}

fn verdict(c: &Compare, diffs: Vec<FigureDiff>) {
    if diffs.is_empty() {
        eprintln!(
            "error: no experiment reports under {} or {}",
            c.baseline.display(),
            c.fresh.display()
        );
        exit(2)
    }
    print!("{}", render_drift_table(&diffs, c.tol));
    if !diffs.iter().all(FigureDiff::ok) {
        exit(1)
    }
}
