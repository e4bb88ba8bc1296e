//! Simulation cells run straight through the simulator's public API:
//! `WorkloadSpec::generate` → `Multicore` construction → `run` →
//! `report` → drop, each timed from outside.

use std::time::Instant;

use sa_profile::{NullProfiler, Profiler, WallProfiler};
use sa_sim::{EngineMode, Multicore, ParallelScope, Report};
use sa_trace::NullTracer;

use crate::hostspeed::{self, HostSpeed};
use crate::plan::Cell;

/// One simulated cell and where its host time went.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub report: Report,
    /// Instructions in the generated traces.
    pub generated: u64,
    pub generate_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    pub drop_s: f64,
    /// Host slowdown around the cell (1 when not measured); see
    /// [`crate::hostspeed`].
    pub slowdown: f64,
    /// Parallel-engine epoch telemetry (parallel runs only).
    pub scope: Option<ParallelScope>,
    /// Problems the cell's own invariants found.
    pub errors: Vec<String>,
}

impl CellRun {
    /// Wall time from generation to teardown.
    pub fn latency_s(&self) -> f64 {
        self.generate_s + self.new_s + self.run_s + self.report_s + self.drop_s
    }

    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.new_s
    }

    /// `f(self)`, a wall time, in reference seconds.
    pub fn at_ref(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        f(self) / hostspeed::factor(self.slowdown)
    }

    pub fn retired(&self) -> u64 {
        self.report.total().retired_instrs
    }
}

/// Runs `cell` on `engine`. With `P = NullProfiler` the machine is
/// exactly what `Multicore::new` builds; with `WallProfiler` the
/// engine's own spans fill the calling thread's profile, under the
/// benchmark's spans for each phase.
pub fn run_cell<P: Profiler>(cell: &Cell, seed: u64, engine: EngineMode) -> CellRun {
    let spec = sa_workloads::by_name(cell.workload).expect("cells name existing workloads");
    let t0 = Instant::now();
    let traces = {
        let _p = P::span("generate");
        spec.generate(cell.cores, cell.instrs_per_core, seed)
    };
    let generated: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let t1 = Instant::now();
    let mut sim = {
        let _p = P::span("new");
        Multicore::<NullTracer, P>::with_tracer_profiler(cell.config(engine), traces, NullTracer)
    };
    let t2 = Instant::now();
    let ran = {
        let _p = P::span("run");
        sim.run(cell.budget())
    };
    let t3 = Instant::now();
    let report = {
        let _p = P::span("report");
        sim.report()
    };
    let t4 = Instant::now();
    let scope = sim.scalescope().cloned();
    let t5 = Instant::now();
    {
        let _p = P::span("drop");
        drop(sim);
    }
    let t6 = Instant::now();

    let label = cell.label();
    let mut errors = Vec::new();
    match ran {
        Err(e) => errors.push(format!("{label}: run failed: {e}")),
        Ok(r) if r != report => errors.push(format!("{label}: run and report() disagree")),
        Ok(_) => {}
    }
    let retired = report.total().retired_instrs;
    if retired != generated {
        errors.push(format!(
            "{label}: retired {retired} of {generated} generated instructions"
        ));
    }
    if !report.cpi_invariant_holds() {
        errors.push(format!("{label}: CPI stack out of balance"));
    }
    CellRun {
        report,
        generated,
        generate_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        report_s: (t4 - t3).as_secs_f64(),
        drop_s: (t6 - t5).as_secs_f64(),
        slowdown: 1.0,
        scope,
        errors,
    }
}

/// Untraced run on the default engine.
pub fn run_plain(cell: &Cell, seed: u64) -> CellRun {
    run_cell::<NullProfiler>(cell, seed, EngineMode::EventDriven)
}

/// Traced run on the default engine; returns the span tree with it.
pub fn run_traced(cell: &Cell, seed: u64) -> (CellRun, sa_profile::ProfileTree) {
    sa_profile::capture(|| run_cell::<WallProfiler>(cell, seed, EngineMode::EventDriven))
}

/// One pass over every cell, one at a time, with the host's slowdown
/// measured between cells.
#[derive(Debug, Clone)]
pub struct Pass {
    pub cells: Vec<CellRun>,
    /// Wall time of the cells, the slowdown samples excluded.
    pub wall_s: f64,
    /// The same in reference seconds.
    pub ref_s: f64,
}

impl Pass {
    pub fn run(cells: &[Cell], seed: u64, host: &mut HostSpeed) -> Pass {
        Pass::run_with(cells, host, |c| run_plain(c, seed))
    }

    /// `run` on each cell, each cell's slowdown the mean of the samples
    /// just before and just after it.
    pub fn run_with(
        cells: &[Cell],
        host: &mut HostSpeed,
        mut run: impl FnMut(&Cell) -> CellRun,
    ) -> Pass {
        let mut before = host.sample();
        let (mut wall_s, mut ref_s) = (0.0, 0.0);
        let cells = cells
            .iter()
            .map(|c| {
                let t = Instant::now();
                let mut r = run(c);
                let wall = t.elapsed().as_secs_f64();
                let after = host.sample();
                r.slowdown = (before + after) / 2.0;
                wall_s += wall;
                ref_s += wall / hostspeed::factor(r.slowdown);
                before = after;
                r
            })
            .collect();
        Pass {
            cells,
            wall_s,
            ref_s,
        }
    }

    /// `f` summed over the cells, each in reference seconds.
    pub fn sum_ref(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        self.cells.iter().map(|c| c.at_ref(&f)).sum()
    }

    pub fn sum_u64(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }
}
