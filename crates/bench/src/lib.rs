//! # bench — the experiment harness
//!
//! One registry entry ([`exp::REGISTRY`]) per table and figure of the
//! paper's evaluation (Section 5), plus the grouped-aggregation (G1..G6),
//! multi-query/serving (M1..M4), SQL (Q-TPCH) and ablation extensions, all
//! behind one binary:
//!
//! ```text
//! bench list | all | <experiment>... | gate
//! ```
//!
//! Every experiment
//!
//! * returns the rows/series the paper reports and its headline findings
//!   as [`Claim`]s (who wins, by what factor, where the crossovers fall —
//!   absolute numbers come from the simulator's calibrated cost model, not
//!   real hardware); one renderer, [`Report::render`], prints them;
//! * runs at `--scale <log2-tuples>` (default 22; the paper's headline scale
//!   is 27) plus its registry `scale_delta`, on `--device a100|rtx3090`;
//! * is deterministic: the simulator has no noise, so the paper's
//!   "median of 7 runs" protocol collapses to a single run (the CPU
//!   baseline, which measures real wall-clock, still repeats `--reps`
//!   times and takes the median).
//!
//! A run is one [`Session`]: it owns the parsed [`Config`], builds the
//! devices, collects what the experiments record, and — with `--out DIR` —
//! writes one artifact directory at the end (see [`Session::finish`]), whose
//! `summary.md` is the claim scoreboard. `bench gate` judges a fresh
//! directory's report rows and claims against a baseline's in one verdict
//! (see [`gate`]). Run everything with `cargo run --release -p bench -- all`.

mod args;
pub mod exp;
pub mod gate;
mod session;

pub use args::{ArgError, Args, Config, DeviceKind, USAGE};
pub use session::Session;

use serde::Serialize;
use serde_json::{json, Number, Value};

/// A finished experiment: an identifier, its rows, and its headline claims.
#[derive(Debug)]
pub struct Report {
    /// Experiment id: its [`exp::REGISTRY`] name (e.g. "fig10").
    pub experiment: &'static str,
    /// What the paper's corresponding artifact shows.
    pub title: &'static str,
    /// Device the run used.
    pub device: String,
    /// Effective scale (log2 tuples): `--scale` plus the registry delta.
    pub scale_log2: u32,
    /// One JSON object per result row.
    pub rows: Vec<Value>,
    /// Headline findings, one [`Claim`] each. The report file lists their
    /// sentences as `findings`; the session's `fidelity.json` and
    /// `summary.md` scoreboard carry the claims whole.
    pub claims: Vec<Claim>,
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
            claims: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Value) {
        self.rows.push(row);
    }

    /// Record a headline finding, qualifying its id with the experiment.
    pub fn claim(&mut self, mut claim: Claim) {
        debug_assert!(!claim.sentence.is_empty(), "{}: no sentence", claim.id);
        claim.id = format!("{}.{}", self.experiment, claim.id);
        self.claims.push(claim);
    }

    /// The findings' sentences, in recording order.
    pub fn findings(&self) -> impl Iterator<Item = &str> {
        self.claims.iter().map(|c| c.sentence.as_str())
    }

    /// The report as text: a header line, the rows as aligned tables (a
    /// new table wherever the rows' field names change), then one `>> `
    /// line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} (device {}, scale 2^{}) ==\n",
            self.experiment, self.title, self.device, self.scale_log2
        );
        for table in self.rows.chunk_by(|a, b| field_names(a).eq(field_names(b))) {
            render_table(&mut out, table);
        }
        out.push('\n');
        for sentence in self.findings() {
            out.push_str(&format!(">> {sentence}\n"));
        }
        out
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        json!({
            "experiment": self.experiment,
            "title": self.title,
            "device": self.device,
            "scale_log2": self.scale_log2,
            "rows": self.rows,
            "findings": self.findings().collect::<Vec<_>>(),
        })
    }
}

fn field_names(row: &Value) -> impl Iterator<Item = &str> {
    let fields = match row {
        Value::Object(fields) => fields.as_slice(),
        _ => &[],
    };
    fields.iter().map(|(k, _)| k.as_str())
}

/// One table: a blank line, a header of field names, then one line per
/// row, every column right-aligned to its widest cell.
fn render_table(out: &mut String, rows: &[Value]) {
    let names: Vec<&str> = field_names(&rows[0]).collect();
    let lines: Vec<Vec<String>> = std::iter::once(names.iter().map(|k| k.to_string()).collect())
        .chain(
            rows.iter()
                .map(|r| names.iter().map(|&k| cell(&r[k])).collect()),
        )
        .collect();
    let widths: Vec<usize> = (0..names.len())
        .map(|i| {
            lines
                .iter()
                .map(|l| l[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    out.push('\n');
    for line in &lines {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&padded.join("  "));
        out.push('\n');
    }
}

/// One cell: integers as integers, floats to 4 significant digits, a
/// nested array or object as its element count.
fn cell(v: &Value) -> String {
    match v {
        Value::Number(Number::F64(x)) => significant4(*x),
        Value::Number(Number::I64(i)) => i.to_string(),
        Value::Number(Number::U64(u)) => u.to_string(),
        Value::String(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Array(a) => format!("[{}]", a.len()),
        Value::Object(o) => format!("{{{}}}", o.len()),
        Value::Null => "-".to_string(),
    }
}

fn significant4(x: f64) -> String {
    let mag = x.abs();
    if mag == 0.0 || !x.is_finite() {
        x.to_string()
    } else if (1e-3..1e6).contains(&mag) {
        let decimals = (3 - mag.log10().floor() as i32).max(0) as usize;
        format!("{x:.decimals$}")
    } else {
        format!("{x:.3e}")
    }
}

/// One headline finding as data: the number it rests on, the paper's
/// value where the paper states one, and the band the number should land
/// in. Build it with [`Claim::new`] (or [`Claim::yes_no`]), give it its
/// sentence with [`Claim::says`], formatted from the same variable, and
/// record it with [`Report::claim`].
#[derive(Debug, Clone)]
pub struct Claim {
    /// `<experiment>.<name>`: [`Claim::new`] takes the name, and
    /// [`Report::claim`] prefixes the experiment.
    pub id: String,
    /// The headline number: 0 or 1 for a yes/no finding, NaN when the
    /// measurement found nothing (e.g. no crossover in a sweep).
    pub measured: f64,
    /// The paper's value, in the unit of `measured`.
    pub paper: Option<f64>,
    /// Inclusive acceptance band for `measured`; an open end is infinite
    /// (`null` in `fidelity.json`). Wall-clock claims get none.
    pub band: Option<(f64, f64)>,
    /// The finding as one sentence, formatted from `measured`.
    pub sentence: String,
}

impl Claim {
    /// A claim named `name`, with no paper value, no band and no sentence
    /// yet.
    pub fn new(name: &str, measured: f64) -> Self {
        Claim {
            id: name.to_string(),
            measured,
            paper: None,
            band: None,
            sentence: String::new(),
        }
    }

    /// A yes/no claim: `measured` is 1 for yes, 0 for no.
    pub fn yes_no(name: &str, yes: bool) -> Self {
        Claim::new(name, f64::from(u8::from(yes)))
    }

    /// Set the sentence.
    pub fn says(self, sentence: String) -> Self {
        Claim { sentence, ..self }
    }

    /// Set the paper's value.
    pub fn paper(self, value: f64) -> Self {
        Claim {
            paper: Some(value),
            ..self
        }
    }

    /// Set the acceptance band `lo..=hi`.
    pub fn band(self, lo: f64, hi: f64) -> Self {
        Claim {
            band: Some((lo, hi)),
            ..self
        }
    }

    /// Set the paper's value and a band of `rel` around it either way.
    pub fn near(self, paper: f64, rel: f64) -> Self {
        self.paper(paper)
            .band(paper * (1.0 - rel), paper * (1.0 + rel))
    }

    /// Whether `measured` lies in the band; `None` without a band.
    pub fn holds(&self) -> Option<bool> {
        self.band.map(|(lo, hi)| (lo..=hi).contains(&self.measured))
    }
}

/// The claim's `fidelity.json` entry: every field plus `holds`; `paper`,
/// `band` and `holds` appear only when set.
impl Serialize for Claim {
    fn to_value(&self) -> Value {
        let mut v = json!({"id": self.id, "measured": self.measured});
        if let Some(paper) = self.paper {
            v["paper"] = json!(paper);
        }
        if let Some((lo, hi)) = self.band {
            v["band"] = json!([lo, hi]);
            v["holds"] = json!(self.holds());
        }
        v["sentence"] = json!(self.sentence);
        v
    }
}

/// Millions of tuples per second, the unit of the paper's throughput axes.
pub fn mtps(tuples: usize, t: sim::SimTime) -> f64 {
    tuples as f64 / t.secs() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: Vec<Value>) -> Report {
        let mut r = Report::new("figX", "test", &Session::new(Config::default()));
        r.rows = rows;
        r
    }

    #[test]
    fn report_accumulates() {
        let mut r = report(vec![json!({"a": 1})]);
        r.claim(Claim::yes_no("works", true).says("works".to_string()));
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.claims[0].id, "figX.works");
        assert_eq!(r.claims[0].measured, 1.0);
        assert_eq!(r.findings().collect::<Vec<_>>(), ["works"]);
        assert_eq!((r.device.as_str(), r.scale_log2), ("a100", 22));
    }

    #[test]
    fn the_report_file_lists_claim_sentences_as_findings() {
        let mut r = report(vec![json!({"a": 1})]);
        r.claim(
            Claim::new("x", 2.5)
                .near(2.0, 0.25)
                .says("x is 2.5".to_string()),
        );
        let v = r.to_value();
        assert_eq!(v["findings"], json!(["x is 2.5"]));
        assert_eq!(v["rows"], json!([json!({"a": 1})]));
        assert!(v["claims"].is_null());
    }

    #[test]
    fn a_change_of_field_names_starts_a_new_table() {
        let r = report(vec![
            json!({"a": 1, "b": 2}),
            json!({"a": 3, "b": 4}),
            json!({"a": 5}),
            json!({"b": 6, "a": 7}),
        ]);
        let text = r.render();
        let headers: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with(['a', 'b']))
            .map(str::trim)
            .collect();
        assert_eq!(headers, ["a  b", "a", "b  a"]);
    }

    #[test]
    fn every_row_is_one_aligned_line() {
        let r = report(vec![
            json!({"name": "long label", "v": 1}),
            json!({"name": "x", "v": 12345}),
        ]);
        let text = r.render();
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 1 + 1 + 2, "{text}");
        assert_eq!(lines[2], "long label      1");
        assert_eq!(lines[3], "         x  12345");
    }

    #[test]
    fn cells_format_integers_floats_and_nested_values() {
        assert_eq!(cell(&json!(42)), "42");
        assert_eq!(cell(&json!(-7)), "-7");
        assert_eq!(cell(&json!(1.234567)), "1.235");
        assert_eq!(cell(&json!(1234.5678)), "1235");
        assert_eq!(cell(&json!(0.00012346)), "1.235e-4");
        assert_eq!(cell(&json!(2.0e9)), "2.000e9");
        assert_eq!(cell(&json!(0.0)), "0");
        assert_eq!(cell(&json!([1, 2, 3])), "[3]");
        assert_eq!(cell(&json!({"p": 1, "q": 2})), "{2}");
        assert_eq!(cell(&json!("text")), "text");
        assert_eq!(cell(&Value::Null), "-");
        let r = report(vec![json!({"lifecycle": [1, 2, 3, 4], "k": 1})]);
        assert!(r.render().lines().any(|l| l.trim() == "[4]  1"));
    }

    #[test]
    fn findings_render_as_marked_lines_after_the_rows() {
        let mut r = report(vec![json!({"a": 1})]);
        r.claim(Claim::new("one", 1.0).says("first".to_string()));
        r.claim(Claim::new("two", 2.0).says("second".to_string()));
        let text = r.render();
        assert!(text.starts_with("== figX — test (device a100, scale 2^22) ==\n"));
        assert!(text.ends_with(">> first\n>> second\n"), "{text}");
    }

    #[test]
    fn a_claim_holds_inside_its_band_and_serializes_holds_with_it() {
        let c = Claim::new("r", 2.0).near(2.3, 0.25);
        assert_eq!(c.holds(), Some(true));
        let v = c.to_value();
        assert_eq!(v["paper"].as_f64(), Some(2.3));
        assert_eq!(v["holds"], json!(true));
        let outside = Claim::new("r", 1.0).band(1.5, f64::INFINITY);
        assert_eq!(outside.holds(), Some(false));
        let unbanded = Claim::new("r", f64::NAN).paper(34.5);
        assert_eq!(unbanded.holds(), None);
        let v = unbanded.to_value();
        assert!(v["band"].is_null() && v["holds"].is_null());
        assert!(!serde_json::to_string(&v).unwrap().contains("holds"));
        assert_eq!(
            Claim::new("r", f64::NAN).band(0.0, 1.0).holds(),
            Some(false)
        );
    }

    #[test]
    fn mtps_math() {
        let v = mtps(2_000_000, sim::SimTime::from_secs(1.0));
        assert!((v - 2.0).abs() < 1e-9);
    }
}
