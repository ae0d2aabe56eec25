//! Command-line parsing for the `bench` binary: argv in, a checked
//! [`Args`] or a typed [`ArgError`] out. Nothing here prints or exits;
//! `main` does both.

use crate::exp::{self, Experiment, REGISTRY};
use crate::gate;
use std::fmt;
use std::path::PathBuf;

/// The usage text `main` prints next to an [`ArgError`].
pub const USAGE: &str = "\
usage: bench list
       bench all | <experiment>... [--scale LOG2] [--device a100|rtx3090] [--reps N]
                                   [--out DIR [--observe]] [--sql QUERY]
       bench diff | gate [--baseline DIR] [--fresh DIR] [--tol FRACTION]";

/// `--scale` bounds: below 2^10 the sweeps degenerate (empty ranges,
/// devices too small for a single hash table); above 2^30 a relation no
/// longer fits the host.
pub(crate) const SCALE_RANGE: std::ops::RangeInclusive<u32> = 10..=30;

/// Device preset (`--device`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// NVIDIA A100 (the paper's primary device).
    A100,
    /// NVIDIA RTX 3090.
    Rtx3090,
}

impl DeviceKind {
    /// The flag value, which is also what [`crate::Report::device`] records.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::A100 => "a100",
            DeviceKind::Rtx3090 => "rtx3090",
        }
    }

    /// The unscaled hardware parameters.
    pub fn config(self) -> sim::DeviceConfig {
        match self {
            DeviceKind::A100 => sim::DeviceConfig::a100(),
            DeviceKind::Rtx3090 => sim::DeviceConfig::rtx3090(),
        }
    }
}

/// What one experiment run is configured with.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// log2 of the base tuple count (the paper's |R| = 2^27 corresponds to
    /// `--scale 27`); each experiment adds its registry `scale_delta`.
    pub scale_log2: u32,
    /// Device preset.
    pub device: DeviceKind,
    /// Repetitions for wall-clock (CPU) measurements.
    pub reps: usize,
    /// Artifact directory (`--out`); nothing is written without it.
    pub out: Option<PathBuf>,
    /// Record traces, metrics, EXPLAIN reports and slow-query digests on
    /// every device and export them into `out` (`--observe`). Selects what
    /// is written, never what is computed.
    pub observe: bool,
    /// SQL text (`--sql`): `q_tpch` runs this query instead of its built-in
    /// Q3/Q18 pair.
    pub sql: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale_log2: 22,
            device: DeviceKind::A100,
            reps: 3,
            out: None,
            observe: false,
            sql: None,
        }
    }
}

/// The two report directories `diff` and `gate` compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Compare {
    /// Checked-in baseline reports.
    pub baseline: PathBuf,
    /// Freshly produced reports (a `--out` directory).
    pub fresh: PathBuf,
    /// Relative tolerance.
    pub tol: f64,
}

/// A parsed `bench` command line.
#[derive(Debug)]
pub enum Args {
    /// `bench list`: print the registry names.
    List,
    /// `bench all` / `bench <experiment>...`: run experiments in one session.
    Run {
        /// What to run, in order.
        experiments: Vec<&'static Experiment>,
        /// How to run it.
        config: Config,
    },
    /// `bench diff`: drift table of fresh reports vs baselines (default
    /// `results-fresh` vs `results`, 5%).
    Diff(Compare),
    /// `bench gate`: the same comparison as a verdict on simulated fields
    /// only (default `target/smoke` vs `results/smoke14`, 1%).
    Gate(Compare),
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// No `list`, `all`, `diff`, `gate` or experiment name was given.
    MissingCommand,
    /// A `--flag` this binary does not know.
    UnknownFlag(String),
    /// A flag that takes a value was the last argument.
    MissingValue(&'static str),
    /// A flag's value does not parse or is out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// What is accepted.
        expected: &'static str,
    },
    /// A positional argument that is not a registry name.
    UnknownExperiment(String),
    /// A flag that belongs to a different command.
    FlagNotForCommand {
        /// The flag.
        flag: &'static str,
        /// The command it was given to.
        command: String,
    },
    /// `--observe` has nowhere to write without `--out`.
    ObserveWithoutOut,
    /// `--sql` is only read by `q_tpch`, which is not among the experiments.
    SqlWithoutQTpch,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command or experiment given"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} '{value}': expected {expected}"),
            ArgError::UnknownExperiment(name) => {
                write!(f, "unknown experiment '{name}' (see `bench list`)")
            }
            ArgError::FlagNotForCommand { flag, command } => {
                write!(f, "{flag} does not apply to `bench {command}`")
            }
            ArgError::ObserveWithoutOut => write!(f, "--observe needs --out DIR to write into"),
            ArgError::SqlWithoutQTpch => write!(f, "--sql is only read by the q_tpch experiment"),
        }
    }
}

impl std::error::Error for ArgError {}

fn parse_value<T: std::str::FromStr>(
    flag: &'static str,
    value: String,
    expected: &'static str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, ArgError> {
    match value.parse() {
        Ok(v) if accept(&v) => Ok(v),
        _ => Err(ArgError::BadValue {
            flag,
            value,
            expected,
        }),
    }
}

impl Args {
    /// Parse the arguments after the program name.
    pub fn parse_from(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut config = Config::default();
        let (mut baseline, mut fresh, mut tol) = (None, None, None);
        // The first flag seen of each family, to reject it under a command
        // of the other family.
        let (mut run_flag, mut compare_flag) = (None, None);
        let mut words: Vec<String> = Vec::new();

        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag| it.next().ok_or(ArgError::MissingValue(flag));
            match arg.as_str() {
                "--scale" => {
                    config.scale_log2 =
                        parse_value("--scale", value("--scale")?, "a log2 in 10..=30", |s| {
                            SCALE_RANGE.contains(s)
                        })?;
                    run_flag.get_or_insert("--scale");
                }
                "--device" => {
                    config.device = match value("--device")?.as_str() {
                        "a100" => DeviceKind::A100,
                        "rtx3090" => DeviceKind::Rtx3090,
                        other => {
                            return Err(ArgError::BadValue {
                                flag: "--device",
                                value: other.to_string(),
                                expected: "a100 or rtx3090",
                            })
                        }
                    };
                    run_flag.get_or_insert("--device");
                }
                "--reps" => {
                    config.reps =
                        parse_value("--reps", value("--reps")?, "a count >= 1", |&n| n >= 1)?;
                    run_flag.get_or_insert("--reps");
                }
                "--out" => {
                    config.out = Some(PathBuf::from(value("--out")?));
                    run_flag.get_or_insert("--out");
                }
                "--observe" => {
                    config.observe = true;
                    run_flag.get_or_insert("--observe");
                }
                "--sql" => {
                    config.sql = Some(value("--sql")?);
                    run_flag.get_or_insert("--sql");
                }
                "--baseline" => {
                    baseline = Some(PathBuf::from(value("--baseline")?));
                    compare_flag.get_or_insert("--baseline");
                }
                "--fresh" => {
                    fresh = Some(PathBuf::from(value("--fresh")?));
                    compare_flag.get_or_insert("--fresh");
                }
                "--tol" => {
                    tol = Some(parse_value(
                        "--tol",
                        value("--tol")?,
                        "a fraction >= 0 (e.g. 0.05)",
                        |&t: &f64| t >= 0.0,
                    )?);
                    compare_flag.get_or_insert("--tol");
                }
                flag if flag.starts_with("--") => {
                    return Err(ArgError::UnknownFlag(flag.to_string()))
                }
                _ => words.push(arg),
            }
        }

        let reject = |flag: Option<&'static str>| match flag {
            Some(flag) => Err(ArgError::FlagNotForCommand {
                flag,
                command: words[0].clone(),
            }),
            None => Ok(()),
        };
        let compare = |baseline_default: &str, fresh_default: &str, tol_default| Compare {
            baseline: baseline.clone().unwrap_or_else(|| baseline_default.into()),
            fresh: fresh.clone().unwrap_or_else(|| fresh_default.into()),
            tol: tol.unwrap_or(tol_default),
        };
        let names: Vec<&str> = words.iter().map(String::as_str).collect();
        match names.as_slice() {
            [] => Err(ArgError::MissingCommand),
            ["list"] => {
                reject(run_flag.or(compare_flag))?;
                Ok(Args::List)
            }
            ["diff"] => {
                reject(run_flag)?;
                Ok(Args::Diff(compare("results", "results-fresh", 0.05)))
            }
            ["gate"] => {
                reject(run_flag)?;
                Ok(Args::Gate(compare(
                    "results/smoke14",
                    "target/smoke",
                    gate::DEFAULT_TOL,
                )))
            }
            names => {
                reject(compare_flag)?;
                let experiments: Vec<&'static Experiment> = if names == ["all"] {
                    REGISTRY.iter().collect()
                } else {
                    names
                        .iter()
                        .map(|n| {
                            exp::find(n).ok_or_else(|| ArgError::UnknownExperiment(n.to_string()))
                        })
                        .collect::<Result<_, _>>()?
                };
                if config.observe && config.out.is_none() {
                    return Err(ArgError::ObserveWithoutOut);
                }
                if config.sql.is_some() && !experiments.iter().any(|e| e.name == "q_tpch") {
                    return Err(ArgError::SqlWithoutQTpch);
                }
                Ok(Args::Run {
                    experiments,
                    config,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::parse_from(line.split_whitespace().map(String::from))
    }

    fn bad_value(line: &str) -> (&'static str, String) {
        match parse(line) {
            Err(ArgError::BadValue { flag, value, .. }) => (flag, value),
            other => panic!("`{line}` should be a BadValue, got {other:?}"),
        }
    }

    #[test]
    fn run_commands_parse() {
        let Ok(Args::Run {
            experiments,
            config,
        }) = parse("all --scale 14 --reps 1 --observe --out target/smoke")
        else {
            panic!("`all` must parse")
        };
        assert_eq!(experiments.len(), REGISTRY.len());
        assert_eq!(
            config,
            Config {
                scale_log2: 14,
                reps: 1,
                observe: true,
                out: Some("target/smoke".into()),
                ..Config::default()
            }
        );

        let Ok(Args::Run { experiments, .. }) = parse("m02_serving --device rtx3090 fig08") else {
            panic!("named experiments must parse")
        };
        let names: Vec<_> = experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["m02_serving", "fig08"]);

        assert!(matches!(parse("list"), Ok(Args::List)));
    }

    #[test]
    fn compare_commands_parse_with_their_defaults() {
        let Ok(Args::Gate(c)) = parse("gate --fresh x") else {
            panic!("gate must parse")
        };
        assert_eq!(
            (c.baseline, c.fresh, c.tol),
            ("results/smoke14".into(), "x".into(), gate::DEFAULT_TOL)
        );
        let Ok(Args::Diff(c)) = parse("diff --tol 0.1") else {
            panic!("diff must parse")
        };
        assert_eq!(
            (c.baseline, c.fresh, c.tol),
            ("results".into(), "results-fresh".into(), 0.1)
        );
    }

    #[test]
    fn scale_outside_10_to_30_is_rejected() {
        // 64 used to wrap `1 << 64` to one tuple, 3 ran out of device
        // memory, 1 panicked inside the rng on an empty range.
        for s in ["64", "70", "3", "1", "9", "31", "-1", "x"] {
            assert_eq!(
                bad_value(&format!("fig08 --scale {s}")),
                ("--scale", s.to_string())
            );
        }
        assert!(parse("fig08 --scale 10").is_ok());
        assert!(parse("fig08 --scale 30").is_ok());
    }

    #[test]
    fn zero_reps_is_rejected() {
        assert_eq!(bad_value("fig08 --reps 0"), ("--reps", "0".to_string()));
    }

    #[test]
    fn unknown_device_is_rejected() {
        assert_eq!(
            bad_value("fig08 --device h100"),
            ("--device", "h100".to_string())
        );
    }

    #[test]
    fn negative_tolerance_is_rejected() {
        assert_eq!(bad_value("gate --tol -1"), ("--tol", "-1".to_string()));
    }

    #[test]
    fn missing_command_is_rejected() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(parse("--scale 14").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert_eq!(
            parse("fig99").unwrap_err(),
            ArgError::UnknownExperiment("fig99".to_string())
        );
        // The parent's binary names are gone with the binaries.
        assert_eq!(
            parse("fig08 fig08_narrow_throughput").unwrap_err(),
            ArgError::UnknownExperiment("fig08_narrow_throughput".to_string())
        );
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert_eq!(
            parse("fig08 --json x").unwrap_err(),
            ArgError::UnknownFlag("--json".to_string())
        );
    }

    #[test]
    fn flag_without_its_value_is_rejected() {
        assert_eq!(
            parse("fig08 --scale").unwrap_err(),
            ArgError::MissingValue("--scale")
        );
    }

    #[test]
    fn flags_of_the_other_command_family_are_rejected() {
        assert_eq!(
            parse("gate --scale 14").unwrap_err(),
            ArgError::FlagNotForCommand {
                flag: "--scale",
                command: "gate".to_string()
            }
        );
        assert_eq!(
            parse("fig08 --fresh x").unwrap_err(),
            ArgError::FlagNotForCommand {
                flag: "--fresh",
                command: "fig08".to_string()
            }
        );
        assert!(matches!(
            parse("list --out x"),
            Err(ArgError::FlagNotForCommand { flag: "--out", .. })
        ));
    }

    #[test]
    fn observe_without_out_is_rejected() {
        assert_eq!(
            parse("all --observe").unwrap_err(),
            ArgError::ObserveWithoutOut
        );
    }

    #[test]
    fn sql_without_q_tpch_is_rejected() {
        let sql =
            |exp: &str| Args::parse_from([exp, "--sql", "select 1 from orders"].map(String::from));
        assert_eq!(sql("fig08").unwrap_err(), ArgError::SqlWithoutQTpch);
        assert!(sql("q_tpch").is_ok());
        assert!(sql("all").is_ok());
    }
}
