//! Smoke tests driven by the experiment registry: every experiment must run
//! end to end at a tiny scale, the registry must name exactly the checked-in
//! smoke baselines, and a fresh run's reports and claims must pass the 1%
//! gate against them.
//! A broken or drifting experiment fails here, under plain `cargo test`.

use bench::exp::REGISTRY;
use bench::{gate, Config, Session};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn tiny() -> Config {
    Config {
        scale_log2: 14,
        reps: 1,
        ..Config::default()
    }
}

fn smoke14() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/smoke14")
}

/// A clean scratch directory under the cargo target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_registry_experiment_runs_and_produces_rows() {
    let mut session = Session::new(tiny());
    for exp in REGISTRY {
        let (rows, text, findings) = catch_unwind(AssertUnwindSafe(|| {
            let report = session.run(exp);
            let findings: Vec<String> = report.findings().map(String::from).collect();
            (report.rows.len(), report.render(), findings)
        }))
        .unwrap_or_else(|_| panic!("{}: panicked (see output above)", exp.name));
        assert!(rows > 0, "{}: no result rows", exp.name);
        assert!(
            text.lines().count() > rows,
            "{}: fewer lines than rows in\n{text}",
            exp.name
        );
        for sentence in findings {
            assert!(
                text.contains(&format!(">> {sentence}\n")),
                "{}: finding '{sentence}' missing from\n{text}",
                exp.name
            );
        }
    }
}

#[test]
fn registry_names_are_unique_and_match_the_smoke14_baselines() {
    let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "duplicate registry name in {names:?}"
    );

    let mut stems: Vec<String> = std::fs::read_dir(smoke14())
        .expect("results/smoke14 exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|stem| stem != "fidelity")
        .collect();
    stems.sort_unstable();
    assert_eq!(names, stems, "registry vs results/smoke14/*.json");

    // `bench list` is that same table, in run order.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("list")
        .output()
        .expect("bench binary runs");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let expected: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), expected);
}

#[test]
fn fresh_scale_14_session_passes_the_gate() {
    let out = scratch("smoke_gate");
    let mut session = Session::new(Config {
        out: Some(out.clone()),
        ..tiny()
    });
    for exp in REGISTRY {
        session.run(exp);
    }
    session.finish().expect("artifact directory is writable");

    let verdict = gate::run_gate(&smoke14(), &out, gate::DEFAULT_TOL);
    let table = gate::render_drift_table(&verdict, gate::DEFAULT_TOL);
    assert_eq!(
        verdict.len(),
        REGISTRY.len() + 1,
        "reports + claims:\n{table}"
    );
    assert_eq!(verdict.last().unwrap().name, "fidelity", "{table}");
    assert!(verdict.iter().all(gate::FigureDiff::ok), "{table}");
    assert!(
        out.join("summary.md").exists(),
        "a full run writes summary.md"
    );
    assert!(
        !out.join("trace.json").exists(),
        "nothing is observed without --observe"
    );
}

#[test]
fn a_partial_run_writes_its_reports_but_no_summary() {
    let out = scratch("smoke_partial");
    let mut session = Session::new(Config {
        out: Some(out.clone()),
        ..tiny()
    });
    session.run(bench::exp::find("fig10").unwrap());
    session.finish().expect("artifact directory is writable");

    let data = std::fs::read_to_string(out.join("fig10.json")).expect("report file written");
    let parsed: serde_json::Value = serde_json::from_str(&data).expect("valid json");
    assert_eq!(parsed["experiment"], "fig10");
    assert!(parsed["rows"].as_array().is_some_and(|r| !r.is_empty()));
    assert!(!out.join("summary.md").exists());
    assert!(!out.join("fidelity.json").exists());
}
