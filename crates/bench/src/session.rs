//! One run of the harness: the device factory the experiments draw from,
//! everything they record along the way, and the artifact directory
//! written once at the end.

use crate::args::SCALE_RANGE;
use crate::exp::{Experiment, REGISTRY};
use crate::{Claim, Config, DeviceKind, Report};
use sim::Device;
use std::path::Path;

/// A run session. Single owner: experiments get `&mut Session`, so there
/// is nothing to lock and nothing process-wide.
pub struct Session {
    config: Config,
    /// Effective scale of the experiment now running (`--scale` plus its
    /// registry delta).
    scale_log2: u32,
    reports: Vec<Report>,
    /// Devices built while observing, in creation order.
    devices: Vec<Device>,
    explains: Vec<serde_json::Value>,
    digests: Vec<serde_json::Value>,
}

impl Session {
    /// An empty session.
    pub fn new(config: Config) -> Self {
        Session {
            scale_log2: config.scale_log2,
            config,
            reports: Vec::new(),
            devices: Vec::new(),
            explains: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Run one experiment at `--scale` plus its registry delta (floored at
    /// the smallest accepted `--scale`), print its rendered report and keep
    /// it.
    pub fn run(&mut self, exp: &Experiment) -> &Report {
        let floor = *SCALE_RANGE.start() as i32;
        self.scale_log2 = (self.config.scale_log2 as i32 + exp.scale_delta).max(floor) as u32;
        let report = (exp.run)(self);
        println!("{}", report.render());
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// Effective log2 scale of the experiment now running.
    pub fn scale_log2(&self) -> u32 {
        self.scale_log2
    }

    /// Base tuple count `2^scale_log2`.
    pub fn tuples(&self) -> usize {
        1usize << self.scale_log2
    }

    /// The paper-regime scaling factor `2^(27 - scale)` (1 at the paper's
    /// full scale and above).
    pub fn regime_factor(&self) -> f64 {
        2f64.powi(27 - self.scale_log2 as i32).max(1.0)
    }

    /// The device preset.
    pub(crate) fn device_kind(&self) -> DeviceKind {
        self.config.device
    }

    /// Repetitions for wall-clock (CPU) measurements.
    pub fn reps(&self) -> usize {
        self.config.reps
    }

    /// The `--sql` text, if any.
    pub fn sql(&self) -> Option<&str> {
        self.config.sql.as_deref()
    }

    /// True under `--observe`: experiments should record their EXPLAIN
    /// reports and slow-query digests.
    pub fn observing(&self) -> bool {
        self.config.observe
    }

    fn device_config(&self) -> sim::DeviceConfig {
        self.config.device.config().scaled(self.regime_factor())
    }

    /// Build a device under *paper-regime scaling*: the paper's headline
    /// scale is 2^27 tuples, so a run at scale L shrinks the device's
    /// capacity parameters (L2, shared memory, global memory, launch
    /// overhead) by `2^(27 - L)` — see [`sim::DeviceConfig::scaled`]. At
    /// scale 27 you get the real hardware. Under `--observe` the device
    /// records traces and metrics and is kept for export.
    pub fn device(&mut self) -> Device {
        let dev = Device::new(self.device_config());
        if self.config.observe {
            dev.enable_tracing();
            dev.enable_metrics(self.metrics_interval());
            self.devices.push(dev.clone());
        }
        dev
    }

    /// Build a device whose metrics recorder is on whether or not the
    /// session observes: the serving experiments read their latency curves
    /// back from it. Same interval rule either way, so an observed run
    /// exports byte-identical histograms.
    pub fn metered_device(&mut self) -> Device {
        let dev = self.device();
        if !dev.metrics_enabled() {
            dev.enable_metrics(self.metrics_interval());
        }
        dev
    }

    /// 100 µs of simulated time at the paper's full scale, shrunk by the
    /// same paper-regime factor as the device itself so the sample density
    /// per kernel stays comparable across scales. (The sampler emits at
    /// most one point per kernel launch regardless, so this only bounds
    /// resolution, not cost.)
    fn metrics_interval(&self) -> sim::SimTime {
        sim::SimTime::from_secs(1e-4 / self.regime_factor())
    }

    /// Record one query's EXPLAIN ANALYZE report under `query` (an
    /// experiment-chosen label). No-op unless observing.
    pub fn record_explain(&mut self, query: &str, explain: &engine::QueryExplain) {
        if self.config.observe {
            self.explains.push(serde_json::json!({
                "query": query,
                "tree": explain.render(),
                "report": explain.to_json(),
            }));
        }
    }

    /// Record one serving run's slow-query digest under `label` (e.g.
    /// `"m04_slo rho=1.50"`). No-op unless observing.
    pub fn record_digest(&mut self, label: &str, digest: &engine::SlowQueryDigest) {
        if self.config.observe {
            self.digests.push(serde_json::json!({
                "label": label,
                "digest": serde_json::to_value(digest),
                "text": digest.render(),
            }));
        }
    }

    /// End the session: with `--out DIR`, write the artifact directory.
    ///
    /// | file | content |
    /// |---|---|
    /// | `<experiment>.json` | one [`Report`] per experiment run |
    /// | `summary.md` | every finding — only when the whole registry ran, so a partial run never overwrites the full summary |
    /// | `fidelity.json` | every [`crate::Claim`] with `holds` beside its band — only when the whole registry ran, as `summary.md` |
    /// | `trace.json`, `trace.jsonl` | Chrome `trace_event` timeline and JSONL event log of every device |
    /// | `explain.json` | recorded EXPLAIN ANALYZE reports plus the per-kernel roofline analysis |
    /// | `metrics.json`, `metrics.om` | service-level metrics snapshots, JSON and OpenMetrics text |
    /// | `digest.json`, `digest.txt` | slow-query digests, JSON and human-readable |
    ///
    /// The last four rows need `--observe`.
    pub fn finish(self) -> std::io::Result<()> {
        let Some(dir) = &self.config.out else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        for r in &self.reports {
            let data = serde_json::to_string_pretty(r).expect("report serializes");
            std::fs::write(dir.join(format!("{}.json", r.experiment)), data)?;
        }
        let ran = |e: &Experiment| self.reports.iter().any(|r| r.experiment == e.name);
        if REGISTRY.iter().all(ran) {
            std::fs::write(dir.join("summary.md"), self.summary())?;
            let claims: Vec<&Claim> = self.reports.iter().flat_map(|r| &r.claims).collect();
            let data = serde_json::to_string_pretty(&claims).expect("claims serialize");
            std::fs::write(dir.join("fidelity.json"), data)?;
        }
        if self.config.observe {
            self.write_observations(dir)?;
        }
        println!(
            "\nwrote {} report(s){} to {}",
            self.reports.len(),
            if self.config.observe {
                " + trace, explain, metrics, digest"
            } else {
                ""
            },
            dir.display()
        );
        Ok(())
    }

    fn summary(&self) -> String {
        let mut md = String::from("# Experiment summary (auto-generated by `bench all`)\n");
        for r in &self.reports {
            md.push_str(&format!(
                "\n## {} — {} (device {}, scale 2^{})\n",
                r.experiment, r.title, r.device, r.scale_log2
            ));
            for f in r.findings() {
                md.push_str(&format!("- {f}\n"));
            }
        }
        md
    }

    fn write_observations(&self, dir: &Path) -> std::io::Result<()> {
        let write = |name: &str, data: String| std::fs::write(dir.join(name), data);
        let traces: Vec<sim::Trace> = self
            .devices
            .iter()
            .filter_map(Device::trace_snapshot)
            .collect();
        let metrics: Vec<sim::MetricsSnapshot> = self
            .devices
            .iter()
            .filter_map(Device::metrics_snapshot)
            .collect();

        write("trace.json", sim::trace::chrome_trace_json(&traces))?;
        write("trace.jsonl", sim::trace::jsonl(&traces))?;

        // The kernel section analyses every device's launches against the
        // last experiment's scaled configuration.
        let cfg = self.device_config();
        let explain = serde_json::json!({
            "device": cfg.name,
            "queries": self.explains,
            "kernels": serde_json::to_value(&sim::analysis::analyze_kernels(&traces, &cfg)),
        });
        write(
            "explain.json",
            serde_json::to_string_pretty(&explain).expect("explain report serializes"),
        )?;

        write("metrics.json", sim::metrics_json(&metrics))?;
        write("metrics.om", sim::openmetrics(&metrics))?;

        let digest = serde_json::json!({ "sections": self.digests });
        write(
            "digest.json",
            serde_json::to_string_pretty(&digest).expect("digest report serializes"),
        )?;
        let mut text = String::new();
        for s in &self.digests {
            if let (Some(label), Some(body)) = (s["label"].as_str(), s["text"].as_str()) {
                text.push_str(&format!("== {label} ==\n{body}\n"));
            }
        }
        write("digest.txt", text)?;

        println!("\n== kernel summary (all experiments) ==");
        print!("{}", sim::trace::render_kernel_summary(&traces));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp;

    #[test]
    fn devices_follow_the_preset_and_record_only_when_observing() {
        let mut plain = Session::new(Config::default());
        let dev = plain.device();
        assert!(dev.config().name.starts_with("A100"));
        assert!(!dev.metrics_enabled() && !dev.tracing_enabled());
        assert!(plain.metered_device().metrics_enabled());
        assert!(plain.devices.is_empty());

        let mut observed = Session::new(Config {
            observe: true,
            ..Config::default()
        });
        let dev = observed.device();
        assert!(dev.metrics_enabled() && dev.tracing_enabled());
        dev.kernel("k").items(1 << 12, 1.0).launch();
        observed.metered_device();
        assert_eq!(observed.devices.len(), 2);
        assert_eq!(
            observed.devices[0]
                .metrics_snapshot()
                .unwrap()
                .totals
                .work
                .kernel_launches,
            1
        );
    }

    #[test]
    fn the_registry_delta_applies_to_every_run_and_is_floored() {
        let mut s = Session::new(Config {
            scale_log2: 10,
            reps: 1,
            ..Config::default()
        });
        assert_eq!(s.tuples(), 1 << 10);
        // table12 runs at the base scale, fig12 one notch down — floored.
        assert_eq!(s.run(exp::find("table12").unwrap()).scale_log2, 10);
        assert_eq!(s.run(exp::find("fig12").unwrap()).scale_log2, 10);
        let mut s = Session::new(Config {
            scale_log2: 12,
            reps: 1,
            ..Config::default()
        });
        assert_eq!(s.run(exp::find("fig12").unwrap()).scale_log2, 11);
        assert_eq!(s.reports.len(), 1);
    }
}
