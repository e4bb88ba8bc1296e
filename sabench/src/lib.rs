//! The repository's benchmark: two workloads that drive the simulator
//! and its job service through their public entry points, check every
//! output, and report end-to-end metrics (untraced runs) or a per-layer
//! host-time ledger (traced runs).
//!
//! Run one workload with
//! `cargo run --release --manifest-path sabench/Cargo.toml -- --workload paper8 --seed 1 --seconds 50 --trace 0`;
//! the last line of stdout is the result JSON.

pub mod hostspeed;
mod ledger;
pub mod manifest;
pub mod plan;
pub mod servebench;
pub mod simbench;
mod simload;
mod stats;

use std::collections::BTreeMap;

use plan::MetricDef;

/// What one run found: operations attempted and failed, the checks
/// that failed, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Books one operation; it failed if any check found a problem.
    pub fn check(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: every metric in `defs`, in order. A metric the
    /// run did not set is an error (reported as 0) unless `idle_zero`
    /// allows it — a layer the workload does not exercise reads 0.
    pub fn result_json(&mut self, defs: &[MetricDef], idle_zero: bool) -> String {
        let mut j = sa_metrics::JsonWriter::new();
        let mut missing = Vec::new();
        j.begin_object().key("metrics").begin_object();
        for d in defs {
            let v = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    missing.push(format!("{} is not finite", d.name));
                    0.0
                }
                None if idle_zero => 0.0,
                None => {
                    missing.push(format!("{} was not measured", d.name));
                    0.0
                }
            };
            j.key(d.name)
                .begin_object()
                .field_float("value", v)
                .field_str("unit", d.unit)
                .end_object();
        }
        j.end_object();
        self.errors.extend(missing);
        let correct = self.correct();
        j.key("correct")
            .boolean(correct)
            .field_uint("attempted", self.attempted.max(1))
            .field_uint("failed", self.failed)
            .end_object();
        j.finish()
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
