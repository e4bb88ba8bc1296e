//! The `paper8` workload: passes over simulation cells, one cell at a
//! time, for the run's seconds; then, when traced, one pass under the
//! span profiler and one of the multi-core cells on the parallel engine.

use std::time::{Duration, Instant};

use sa_profile::{NullProfiler, ProfileTree};
use sa_sim::EngineMode;

use crate::hostspeed::HostSpeed;
use crate::ledger;
use crate::plan::{Cell, DEFAULT_SEED, PARALLEL_THREADS};
use crate::simload::{run_cell, run_traced, CellRun, Pass};
use crate::stats::{median, tail};
use crate::Outcome;

/// Runs `cells` for at least `seconds` (at least one pass) and books
/// every check and metric into `out`. `recorded` gives the default
/// seed's recorded cycles for a cell label.
pub fn run(
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    traced: bool,
    recorded: &dyn Fn(&str) -> Option<u64>,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let mut host = HostSpeed::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    loop {
        passes.push(Pass::run(cells, seed, &mut host));
        // Later passes only add allocator fragmentation, and how many
        // fit in the run depends on host speed.
        if passes.len() == 1 {
            peak_rss_mb = crate::peak_rss_mb();
        }
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let first = &passes[0];
    for pass in &passes {
        for (i, c) in pass.cells.iter().enumerate() {
            let mut errors = c.errors.clone();
            let label = cells[i].label();
            if c.report != first.cells[i].report {
                errors.push(format!("{label}: report differs between passes"));
            }
            if seed == DEFAULT_SEED {
                match recorded(&label) {
                    Some(cy) if cy == c.report.cycles => {}
                    Some(cy) => errors.push(format!(
                        "{label}: {} cycles, manifest records {cy}",
                        c.report.cycles
                    )),
                    None => errors.push(format!("{label}: no cycles recorded in the manifest")),
                }
            }
            out.check(errors);
        }
    }
    // The smallest cell again on the cycle-exact lockstep engine.
    let (li, small) = cells
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.cores * c.instrs_per_core)
        .expect("workloads have cells");
    let ls = run_cell::<NullProfiler>(small, seed, EngineMode::Lockstep);
    out.check(same_report(&ls, &first.cells[li], small, "lockstep"));

    // Each cell's time in reference seconds, at its median pass.
    let per_cell = |f: fn(&CellRun) -> f64| -> Vec<f64> {
        (0..cells.len())
            .map(|i| {
                median(
                    &passes
                        .iter()
                        .map(|p| p.cells[i].at_ref(f))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let latencies: Vec<f64> = per_cell(CellRun::latency_s)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let t = tail(&latencies);
    eprintln!(
        "paper8: {} passes of {} cells, host slowdown median {:.2}; job_p99_ms is p{} of {} cells",
        passes.len(),
        cells.len(),
        median(host.samples()),
        t.pct,
        t.n
    );
    out.set("setup_s", median_pass(&passes, CellRun::setup_s));
    out.set(
        "sim_instr_per_s",
        first.sum_u64(CellRun::retired) as f64 / per_cell(|c| c.run_s).iter().sum::<f64>(),
    );
    out.set("job_p50_ms", median(&latencies));
    out.set("job_p99_ms", t.value);
    out.set(
        "max_jobs_per_s",
        1e3 * cells.len() as f64 / latencies.iter().sum::<f64>(),
    );
    out.set("peak_rss_mb", peak_rss_mb);
    if !traced {
        return;
    }

    book_phase_times(&passes, out);
    book_counts(first, out);
    let untraced_s = median(&passes.iter().map(|p| p.ref_s).collect::<Vec<_>>());
    traced_pass(cells, seed, first, untraced_s, &mut host, out);
    parallel_pass(cells, seed, &passes, &mut host, out);
}

/// `f` summed over each pass's cells in reference seconds, at the
/// median pass.
fn median_pass(passes: &[Pass], f: fn(&CellRun) -> f64) -> f64 {
    median(&passes.iter().map(|p| p.sum_ref(f)).collect::<Vec<_>>())
}

/// Each host phase of a cell, summed over a pass: the median pass.
pub(crate) fn book_phase_times(passes: &[Pass], out: &mut Outcome) {
    out.set(
        "workloads.generate_s",
        median_pass(passes, |c| c.generate_s),
    );
    out.set("sim.new_s", median_pass(passes, |c| c.new_s));
    out.set("sim.run_s", median_pass(passes, |c| c.run_s));
    out.set("sim.report_s", median_pass(passes, |c| c.report_s));
    out.set("sim.drop_s", median_pass(passes, |c| c.drop_s));
}

/// The cells once more under the span profiler: each must reproduce
/// `base`'s report, and the spans give the per-layer ledger against
/// `untraced_s`, an untraced pass in reference seconds.
pub(crate) fn traced_pass(
    cells: &[Cell],
    seed: u64,
    base: &Pass,
    untraced_s: f64,
    host: &mut HostSpeed,
    out: &mut Outcome,
) {
    let mut tree = ProfileTree::new();
    let pass = Pass::run_with(cells, host, |cell| {
        let (c, t) = run_traced(cell, seed);
        tree.merge(&t);
        c
    });
    for (i, cell) in cells.iter().enumerate() {
        out.check(same_report(&pass.cells[i], &base.cells[i], cell, "traced"));
    }
    let cycles = pass.sum_u64(|c| c.report.cycles);
    book_ledger(&ledger::from_tree(&tree), cycles, &pass, untraced_s, out);
}

/// An error unless `other` reproduced `base`'s report bit for bit.
pub(crate) fn same_report(other: &CellRun, base: &CellRun, cell: &Cell, what: &str) -> Vec<String> {
    let mut errors = other.errors.clone();
    if other.report != base.report {
        errors.push(format!(
            "{}: {what} run gives {} cycles, event engine {}",
            cell.label(),
            other.report.cycles,
            base.report.cycles
        ));
    }
    errors
}

/// The simulated-behaviour counters of one pass.
pub(crate) fn book_counts(pass: &Pass, out: &mut Outcome) {
    let retired = pass.sum_u64(CellRun::retired);
    let reexec = pass.sum_u64(|c| c.report.total().reexec_instrs.iter().sum());
    out.set(
        "ooo.useful_frac",
        retired as f64 / (retired + reexec) as f64,
    );
    out.set(
        "ooo.squashes",
        pass.sum_u64(|c| c.report.total().squashes.iter().sum()) as f64,
    );
    out.set(
        "ooo.gate_closed_cycles",
        pass.sum_u64(|c| c.report.total().gate_closed_cycles) as f64,
    );
    let hits = pass.sum_u64(|c| c.report.mem.l1_hits());
    let loads = pass.sum_u64(|c| c.report.mem.demand_loads());
    out.set("coherence.l1_hit_rate", hits as f64 / loads.max(1) as f64);
    out.set(
        "coherence.invalidations",
        pass.sum_u64(|c| c.report.mem.invalidations()) as f64,
    );
    out.set(
        "coherence.flits",
        pass.sum_u64(|c| c.report.mem.flits_sent) as f64,
    );
}

/// Host span name behind each per-layer metric (self time by name).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("sim.event.self", "event"),
    ("sim.tick.self", "tick"),
    ("sim.jump", "jump"),
    ("ooo.frontend", "frontend"),
    ("ooo.sched_scan", "sched_scan"),
    ("ooo.lsq_retry", "lsq_retry"),
    ("ooo.sq_search", "sq_search"),
    ("ooo.sb_drain", "sb_drain"),
    ("ooo.retire", "retire"),
    ("ooo.complete", "complete"),
    ("ooo.notices", "notices"),
    ("coherence.memsys.self", "memsys"),
    ("coherence.private", "private"),
    ("coherence.directory", "directory"),
];

/// Self time per layer in ns per simulated cycle, plus the traced
/// pass's overhead over `untraced_s` (both in reference seconds) and
/// the share of its wall time the spans cover.
fn book_ledger(
    roots: &[ledger::Span],
    cycles: u64,
    traced: &Pass,
    untraced_s: f64,
    out: &mut Outcome,
) {
    let by_name = ledger::self_ns_by_name(roots);
    for &(metric, span) in SPAN_METRICS {
        let ns = by_name.get(span).copied().unwrap_or(0);
        out.set(metric, ns as f64 / cycles.max(1) as f64);
    }
    out.set("trace.overhead_s", traced.ref_s - untraced_s);
    out.set(
        "trace.overhead_frac",
        (traced.ref_s - untraced_s) / untraced_s,
    );
    out.set(
        "trace.coverage",
        ledger::covered_ns(roots) as f64 / (traced.wall_s * 1e9),
    );
}

/// Every multi-core cell once more on `parallel:<n>`: it must reproduce
/// the event engine's report, and its epoch telemetry gives the
/// engine's ledger.
fn parallel_pass(
    cells: &[Cell],
    seed: u64,
    passes: &[Pass],
    host: &mut HostSpeed,
    out: &mut Outcome,
) {
    let engine = EngineMode::Parallel {
        threads: PARALLEL_THREADS,
    };
    let multi: Vec<Cell> = cells.iter().filter(|c| c.cores > 1).cloned().collect();
    let pass = Pass::run_with(&multi, host, |cell| {
        run_cell::<NullProfiler>(cell, seed, engine)
    });
    let (mut work, mut wait, mut exchange) = (0u64, 0u64, 0u64);
    let (mut event_s, mut parallel_s) = (0.0, 0.0);
    let base = cells.iter().enumerate().filter(|(_, c)| c.cores > 1);
    for ((i, cell), c) in base.zip(&pass.cells) {
        out.check(same_report(c, &passes[0].cells[i], cell, "parallel"));
        if let Some(s) = &c.scope {
            work += s.work_ns();
            wait += s.wait_ns();
            exchange += s.exchange_ns();
        }
        parallel_s += c.at_ref(|c| c.run_s);
        event_s += median(
            &passes
                .iter()
                .map(|p| p.cells[i].at_ref(|c| c.run_s))
                .collect::<Vec<_>>(),
        );
    }
    let total = (work + wait + exchange).max(1) as f64;
    out.set("sim.parallel.work_frac", work as f64 / total);
    out.set("sim.parallel.wait_frac", wait as f64 / total);
    out.set("sim.parallel.exchange_frac", exchange as f64 / total);
    out.set("sim.parallel.speedup_vs_event", event_s / parallel_s);
}
