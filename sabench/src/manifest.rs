//! `manifest.json`: each workload's composition, its *why*, the metric
//! catalog with the layer→metric map, the commands that regenerate it,
//! and the simulated cycles every cell takes on the default seed.
//!
//! The file is generated (`--record`) from [`crate::plan`] and compiled
//! back in, so a run on the default seed checks its cycles against the
//! committed numbers on any host.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use sa_metrics::JsonValue;

use crate::plan::{self, MetricDef, Workload};

/// The committed manifest.
pub const COMMITTED: &str = include_str!("../manifest.json");

/// Command that regenerates the manifest.
pub const REGENERATE: &str = "cargo run --release --manifest-path sabench/Cargo.toml -- --record";
/// What "in reference seconds" means in the metric notes.
fn reference_seconds() -> String {
    format!(
        "wall seconds divided by the host's slowdown around them to the power {}; the slowdown is the wall time of a fixed hash-map, ordered-map and sort kernel owned by the benchmark (sabench/src/hostspeed.rs), run between cells or load segments, over its time on the reference host (2-vCPU KVM guest, Xeon at 2.0 GHz)",
        crate::hostspeed::SENSITIVITY
    )
}

/// Command that runs one workload.
pub const RUN: &str = "cargo run --release --manifest-path sabench/Cargo.toml -- --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

fn n(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_list(defs: &[MetricDef]) -> JsonValue {
    JsonValue::Arr(
        defs.iter()
            .map(|d| {
                obj([
                    ("name", s(d.name)),
                    ("unit", s(d.unit)),
                    ("better", s(d.better)),
                    ("layer", s(d.layer)),
                    ("note", s(d.note)),
                ])
            })
            .collect(),
    )
}

/// How each workload offers its load, beyond its cells.
fn load(w: Workload) -> JsonValue {
    match w {
        Workload::Paper8 => obj([
            ("engine", s("event")),
            ("loop", s("closed, one cell at a time, passes until the run's seconds are spent")),
            ("traced_extra_pass", s(&format!("multi-core cells on parallel:{}", plan::PARALLEL_THREADS))),
        ]),
        Workload::LitmusServe => obj([
            ("server", s("in-process sa_serve::Server over HTTP on 127.0.0.1")),
            ("workers", n(plan::SERVE_WORKERS as f64)),
            ("acceptors", n(plan::SERVE_WORKERS as f64)),
            ("queue_cap", n(plan::QUEUE_CAP as f64)),
            ("setups_per_run", n(plan::SERVE_SETUPS as f64)),
            ("open_rate_per_s", n(plan::OPEN_RATE)),
            ("open_rate_basis", s("about a third of the closed-loop capacity measured on the reference host (median 154 jobs/s over ten seeds): moderate load, no growing backlog")),
            ("open_share_of_seconds", n(plan::OPEN_SHARE)),
            ("segments", s("the load runs in one-second segments, open-loop ones first; between segments it pauses with nothing in flight to sample the host's slowdown and read GET /profile")),
            ("closed_in_flight", n(plan::CLOSED_IN_FLIGHT as f64)),
            ("programs", s("sa_litmus::gen CorpusStream seeded by --seed, sent as threads text, all five models checked")),
            ("program_max_threads", n(plan::LITMUS_MAX_THREADS as f64)),
            ("program_ops", n(plan::LITMUS_OPS as f64)),
            ("resubmit_share", n(plan::RESUBMIT_SHARE)),
            ("resubmit", s("an earlier program with its variables renamed")),
            ("long_job_every", n(plan::LONG_JOB_EVERY as f64)),
            ("long_job", s("radix workload job, 8 cores, seed = --seed, configurations in turn; its cells are listed below")),
            ("mix_basis", s("resubmit_share and long_job_every are assumptions, not observed traffic: the repository records no service traffic to take them from")),
            ("expected_results", s("the long-job cells run in process once before the server starts; every workload job must return their cycles and instruction count")),
            ("traced_extra_pass", s("the long-job cells once more under the span profiler (the service runs its simulations unprofiled)")),
        ]),
    }
}

/// The manifest for `cycles` (cell label → default-seed cycles, per
/// workload).
pub fn build(cycles: &BTreeMap<&str, BTreeMap<String, u64>>) -> JsonValue {
    let workloads = Workload::ALL
        .iter()
        .map(|&w| {
            let cells = w
                .cells()
                .iter()
                .map(|c| {
                    let label = c.label();
                    let cy = cycles.get(w.name()).and_then(|m| m.get(&label)).copied();
                    obj([
                        ("label", s(&label)),
                        ("workload", s(c.workload)),
                        ("cores", n(c.cores as f64)),
                        ("topology", s(&c.topology.to_string())),
                        ("config", s(c.model.label())),
                        ("instrs_per_core", n(c.instrs_per_core as f64)),
                        ("cycles", cy.map_or(JsonValue::Null, |v| n(v as f64))),
                    ])
                })
                .collect();
            (
                w.name().to_string(),
                obj([
                    ("why", s(w.why())),
                    ("load", load(w)),
                    ("cells", JsonValue::Arr(cells)),
                ]),
            )
        })
        .collect();
    obj([
        ("schema", s("sabench-manifest-v1")),
        ("regenerate", s(REGENERATE)),
        ("run", s(RUN)),
        ("default_seed", n(plan::DEFAULT_SEED as f64)),
        ("held_out_seed", n(plan::HELD_OUT_SEED as f64)),
        ("reference_seconds", s(&reference_seconds())),
        ("workloads", JsonValue::Obj(workloads)),
        ("end_to_end", metric_list(plan::END_TO_END)),
        ("per_layer", metric_list(plan::PER_LAYER)),
    ])
}

/// Indented JSON text (integral numbers without a fraction).
pub fn pretty(v: &JsonValue) -> String {
    fn go(v: &JsonValue, ind: usize, out: &mut String) {
        let pad = "  ".repeat(ind + 1);
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(&b.to_string()),
            JsonValue::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => {
                out.push_str(&format!("{}", *x as i64))
            }
            JsonValue::Num(x) => out.push_str(&x.to_string()),
            JsonValue::Str(t) => {
                let mut j = sa_metrics::JsonWriter::new();
                j.string(t);
                out.push_str(&j.finish());
            }
            JsonValue::Arr(a) if a.is_empty() => out.push_str("[]"),
            JsonValue::Arr(a) => {
                out.push_str("[\n");
                for (i, x) in a.iter().enumerate() {
                    out.push_str(&pad);
                    go(x, ind + 1, out);
                    out.push_str(if i + 1 < a.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(ind));
                out.push(']');
            }
            JsonValue::Obj(o) if o.is_empty() => out.push_str("{}"),
            JsonValue::Obj(o) => {
                out.push_str("{\n");
                for (i, (k, x)) in o.iter().enumerate() {
                    out.push_str(&pad);
                    go(&JsonValue::Str(k.clone()), ind + 1, out);
                    out.push_str(": ");
                    go(x, ind + 1, out);
                    out.push_str(if i + 1 < o.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(ind));
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

fn committed() -> &'static JsonValue {
    static PARSED: OnceLock<JsonValue> = OnceLock::new();
    PARSED.get_or_init(|| JsonValue::parse(COMMITTED).unwrap_or(JsonValue::Null))
}

/// The committed default-seed cycles of `label` in workload `w`.
pub fn recorded_cycles(w: Workload, label: &str) -> Option<u64> {
    committed()
        .get("workloads")?
        .get(w.name())?
        .get("cells")?
        .as_arr()?
        .iter()
        .find(|c| c.get("label").and_then(JsonValue::as_str) == Some(label))?
        .get("cycles")?
        .as_u64()
}

/// Runs every workload's cells on the default seed and writes the
/// manifest next to the benchmark's `Cargo.toml`.
pub fn record() -> std::io::Result<std::path::PathBuf> {
    let mut cycles: BTreeMap<&str, BTreeMap<String, u64>> = BTreeMap::new();
    for w in Workload::ALL {
        for cell in w.cells() {
            let r = crate::simload::run_plain(&cell, plan::DEFAULT_SEED);
            if !r.errors.is_empty() {
                return Err(std::io::Error::other(r.errors.join("; ")));
            }
            eprintln!("{}: {} cycles", cell.label(), r.report.cycles);
            cycles
                .entry(w.name())
                .or_default()
                .insert(cell.label(), r.report.cycles);
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("manifest.json");
    std::fs::write(&path, pretty(&build(&cycles)))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed manifest is what `--record` would write: same
    /// composition and catalog as the code, and a cycle count for every
    /// cell.
    #[test]
    fn committed_manifest_matches_the_plan() {
        let mut cycles: BTreeMap<&str, BTreeMap<String, u64>> = BTreeMap::new();
        for w in Workload::ALL {
            for cell in w.cells() {
                let cy = recorded_cycles(w, &cell.label())
                    .unwrap_or_else(|| panic!("{}: no recorded cycles", cell.label()));
                cycles.entry(w.name()).or_default().insert(cell.label(), cy);
            }
        }
        assert_eq!(
            pretty(&build(&cycles)),
            COMMITTED,
            "regenerate with: {REGENERATE}"
        );
    }

    #[test]
    fn pretty_round_trips() {
        let v = build(&BTreeMap::new());
        assert_eq!(JsonValue::parse(&pretty(&v)).unwrap(), v);
    }
}
