//! One short traced run of every workload, plus the agreement between
//! `BENCHMARK.json` and the benchmark's own catalog.

use sa_metrics::JsonValue;
use sabench::plan::{Cell, Workload, END_TO_END, HELD_OUT_SEED, PER_LAYER};
use sabench::{servebench, simbench, Outcome};

fn no_record(_: &str) -> Option<u64> {
    None
}

/// Runs `w` traced (the traced path also computes every end-to-end
/// metric) on `cells` and checks both result lines.
fn smoke(w: Workload, cells: &[Cell]) {
    let mut out = Outcome::default();
    match w {
        Workload::LitmusServe => {
            servebench::run(HELD_OUT_SEED, 1.0, true, &no_record, cells, &mut out)
        }
        Workload::Paper8 => simbench::run(cells, HELD_OUT_SEED, 0.1, true, &no_record, &mut out),
    }
    assert!(out.correct(), "{}: {:?}", w.name(), out.errors);
    assert!(out.attempted > 0);
    for (defs, idle_zero) in [(END_TO_END, false), (PER_LAYER, true)] {
        let line = out.result_json(defs, idle_zero);
        assert!(out.correct(), "{}: {:?}", w.name(), out.errors);
        let v = JsonValue::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = v.get("metrics").expect("metrics");
        for d in defs {
            let m = metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(d.unit));
        }
    }
    for d in END_TO_END {
        let v = out.metrics[d.name];
        assert!(v > 0.0, "{}: {} = {v}", w.name(), d.name);
    }
}

#[test]
fn paper8_smoke() {
    // Fifty times smaller cells keep the test quick.
    let mut cells = Workload::Paper8.cells();
    for c in &mut cells {
        c.instrs_per_core /= 50;
    }
    smoke(Workload::Paper8, &cells);
}

#[test]
fn litmus_serve_smoke() {
    smoke(Workload::LitmusServe, &Workload::LitmusServe.cells());
}

/// `BENCHMARK.json` lists exactly the workloads and metrics the program
/// prints, with the same units and directions.
#[test]
fn benchmark_json_matches_the_catalog() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let list = |k: &str| doc.get(k).and_then(JsonValue::as_arr).expect(k).to_vec();
    let field = |v: &JsonValue, k: &str| {
        v.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got: Vec<[String; 3]> = list(key)
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect();
        let want: Vec<[String; 3]> = defs
            .iter()
            .map(|d| [d.name.to_string(), d.unit.to_string(), d.better.to_string()])
            .collect();
        assert_eq!(got, want, "{key}");
    }
}
