//! `sabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of stdout;
//! `sabench --record` regenerates `manifest.json`.

use std::process::exit;

use sabench::plan::{Workload, END_TO_END, PER_LAYER};
use sabench::{manifest, servebench, simbench, Outcome};

const USAGE: &str =
    "usage: sabench --workload <paper8|litmus-serve> --seed <n> --seconds <s> --trace <0|1>\n       sabench --record";

fn usage(msg: &str) -> ! {
    eprintln!("sabench: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        match manifest::record() {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("sabench: recording failed: {e}");
                exit(1);
            }
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                )
            }
            "--seed" => seed = Some(v.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(traced)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are all required");
    };

    let mut out = Outcome::default();
    let recorded = |label: &str| manifest::recorded_cycles(w, label);
    let cells = w.cells();
    match w {
        Workload::Paper8 => simbench::run(&cells, seed, seconds, traced, &recorded, &mut out),
        Workload::LitmusServe => {
            servebench::run(seed, seconds, traced, &recorded, &cells, &mut out)
        }
    }
    let line = if traced {
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.result_json(PER_LAYER, true)
    } else {
        out.result_json(END_TO_END, false)
    };
    for e in out.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    println!("{line}");
}
