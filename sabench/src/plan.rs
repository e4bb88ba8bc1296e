//! What the benchmark runs: the two workloads, their cells and load
//! parameters, and the metric catalog. `manifest.json` is generated
//! from this file (`--record`), so the composition is written once.

use sa_isa::ConsistencyModel;
use sa_sim::{EngineMode, SimConfig, Topology};

/// Seed whose simulated cycles are recorded in `manifest.json` and
/// checked on every run that uses it.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning; runs on it are held to the same invariant
/// and lockstep checks as every other seed.
pub const HELD_OUT_SEED: u64 = 7;

/// Instructions per core of a `paper8` parallel cell. The single-core
/// SPEC cells run eight times as many, so every cell simulates the
/// same instruction count.
pub const PAPER8_INSTRS: usize = 10_000;
/// `parallel:<n>` threads of the extra engine pass of a traced
/// `paper8` run.
pub const PARALLEL_THREADS: usize = 2;

/// sa-serve worker pool size and acceptor count (the host's 2 CPUs).
pub const SERVE_WORKERS: usize = 2;
/// Jobs kept in flight by the closed-loop phase.
pub const CLOSED_IN_FLIGHT: usize = 2;
/// Open-loop offered rate, jobs per second: about a third of the
/// closed-loop capacity measured on the reference host (median 154
/// jobs/s over ten seeds), so the loop measures latency at moderate
/// load without a growing backlog.
pub const OPEN_RATE: f64 = 50.0;
/// Share of the run's seconds spent in open-loop segments (the rest are
/// closed-loop). At 50 s runs it gives 1750 open-loop jobs, so p99 has
/// seventeen samples beyond it, and leaves fifteen closed-loop segments
/// for the capacity.
pub const OPEN_SHARE: f64 = 0.7;
/// Generated litmus programs: at most this many threads and this many
/// operations in all, which keeps the oracle's exhaustive exploration
/// to milliseconds (its cost grows steeply past them).
pub const LITMUS_MAX_THREADS: usize = 3;
pub const LITMUS_OPS: usize = 8;
/// Share of litmus jobs that resubmit an earlier program with its
/// variables renamed (an oracle-cache hit after canonicalisation).
/// An assumption, not observed traffic: the repository records no
/// service traffic to take it from.
pub const RESUBMIT_SHARE: f64 = 0.25;
/// One job in this many is a `radix` workload job. An assumption, not
/// observed traffic, as [`RESUBMIT_SHARE`].
pub const LONG_JOB_EVERY: u64 = 10;
/// Instructions per core of a `radix` workload job (8 cores).
pub const LONG_JOB_INSTRS: usize = 1_000;
/// Job-service queue capacity.
pub const QUEUE_CAP: usize = 64;
/// Server start-ups timed for `setup_s` (the median is reported).
pub const SERVE_SETUPS: usize = 25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper8,
    LitmusServe,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Paper8, Workload::LitmusServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::LitmusServe => "litmus-serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper8 => {
                "The paper's 8-core machine: barnes, radix, x264, 505.mcf and 557.xz_2 under all five configurations; host time is in the sa-ooo core model"
            }
            Workload::LitmusServe => {
                "sa-serve with open- and closed-loop litmus jobs, renamed resubmits and radix workload jobs: the only workload that runs the service, the oracle and its cache"
            }
        }
    }

    /// The simulation cells of one pass.
    pub fn cells(self) -> Vec<Cell> {
        let mut cells = Vec::new();
        match self {
            Workload::Paper8 => {
                for (name, cores) in [
                    ("barnes", 8),
                    ("radix", 8),
                    ("x264", 8),
                    ("505.mcf", 1),
                    ("557.xz_2", 1),
                ] {
                    for model in ConsistencyModel::ALL {
                        cells.push(Cell {
                            workload: name,
                            cores,
                            topology: Topology::FullyConnected,
                            model,
                            instrs_per_core: PAPER8_INSTRS * 8 / cores,
                        });
                    }
                }
            }
            // The service's workload jobs, one per configuration, as
            // the server runs them (8 fully-connected cores).
            Workload::LitmusServe => {
                for model in ConsistencyModel::ALL {
                    cells.push(Cell {
                        workload: "radix",
                        cores: 8,
                        topology: Topology::FullyConnected,
                        model,
                        instrs_per_core: LONG_JOB_INSTRS,
                    });
                }
            }
        }
        cells
    }
}

/// One simulation: a workload's generated traces on one machine under
/// one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub workload: &'static str,
    pub cores: usize,
    pub topology: Topology,
    pub model: ConsistencyModel,
    pub instrs_per_core: usize,
}

impl Cell {
    /// Stable name, e.g. `radix/8c/fc/x86`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}c/{}/{}",
            self.workload,
            self.cores,
            self.topology,
            self.model.label()
        )
    }

    pub fn config(&self, engine: EngineMode) -> SimConfig {
        SimConfig::default()
            .with_model(self.model)
            .with_cores(self.cores)
            .with_topology(self.topology)
            .with_engine(engine)
    }

    /// Cycle budget; exhausting it is a simulator bug.
    pub fn budget(&self) -> u64 {
        (self.instrs_per_core as u64 * 2_000).max(10_000_000)
    }
}

/// A reported metric and what it means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The layer it measures (`end-to-end` for the user-visible ones).
    pub layer: &'static str,
    /// Its definition and, for per-layer metrics, which end-to-end
    /// metric it should move on which workload.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        note,
    }
}

/// Printed by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "end-to-end",
      "paper8: median over passes of the pass's summed WorkloadSpec::generate + Multicore::new, in reference seconds; litmus-serve: median over server start-ups of Server::start until the first /metrics answer, in reference seconds"),
    m("sim_instr_per_s", "1/s", "higher", "end-to-end",
      "paper8: retired instructions of a pass per reference second inside Multicore::run, each cell at its median pass; litmus-serve: the workload jobs' instructions per reference second inside the service's own simulate spans (GET /profile between segments)"),
    m("job_p50_ms", "ms", "lower", "end-to-end",
      "litmus-serve: open-loop median latency from each job's due time to its observed terminal status, in reference ms; paper8: median over cells of each cell's latency (generate to drop) in reference ms at its median pass, one cell at a time"),
    m("job_p99_ms", "ms", "lower", "end-to-end",
      "as job_p50_ms at p99, or at the highest percentile with at least ten samples beyond it (stderr names the percentile and sample count); failed or refused jobs count as infinitely late"),
    m("max_jobs_per_s", "1/s", "higher", "end-to-end",
      "litmus-serve: completed jobs per reference second with 2 jobs kept in flight (closed-loop segments); paper8: cells completed per reference second, each cell at its median pass"),
    m("peak_rss_mb", "MB", "lower", "end-to-end",
      "peak resident set of the benchmark process (VmHWM, server included) after its first pass (litmus-serve: after the open-loop segments)"),
];

/// Printed by traced runs (`--trace 1`), on every workload. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.generate_s", "s", "lower", "sa-workloads",
      "median per pass of summed WorkloadSpec::generate, in reference seconds; should move setup_s on paper8"),
    m("sim.new_s", "s", "lower", "sa-sim",
      "median per pass of summed Multicore::new, in reference seconds; should move setup_s on paper8"),
    m("sim.run_s", "s", "lower", "sa-sim", "median per pass of summed Multicore::run, in reference seconds"),
    m("sim.report_s", "s", "lower", "sa-sim", "median per pass of summed Multicore::report, in reference seconds"),
    m("sim.drop_s", "s", "lower", "sa-sim", "median per pass of summed Multicore drop, in reference seconds"),
    m("sim.event.self", "ns/cycle", "lower", "sa-sim",
      "event-wheel self time; should move sim_instr_per_s"),
    m("sim.tick.self", "ns/cycle", "lower", "sa-sim",
      "core-tick self time outside the named sa-ooo phases; should move sim_instr_per_s"),
    m("sim.jump", "ns/cycle", "lower", "sa-sim", "idle-cycle jumps; should move sim_instr_per_s"),
    m("ooo.frontend", "ns/cycle", "lower", "sa-ooo",
      "should move sim_instr_per_s on paper8, barely litmus-serve"),
    m("ooo.sched_scan", "ns/cycle", "lower", "sa-ooo", "self time; as ooo.frontend"),
    m("ooo.lsq_retry", "ns/cycle", "lower", "sa-ooo", "self time; as ooo.frontend"),
    m("ooo.sq_search", "ns/cycle", "lower", "sa-ooo",
      "under both sched_scan and lsq_retry; as ooo.frontend"),
    m("ooo.sb_drain", "ns/cycle", "lower", "sa-ooo", "as ooo.frontend"),
    m("ooo.retire", "ns/cycle", "lower", "sa-ooo", "as ooo.frontend"),
    m("ooo.complete", "ns/cycle", "lower", "sa-ooo", "as ooo.frontend"),
    m("ooo.notices", "ns/cycle", "lower", "sa-ooo", "as ooo.frontend"),
    m("ooo.useful_frac", "ratio", "higher", "sa-ooo",
      "retired / (retired + re-executed) instructions"),
    m("ooo.squashes", "count", "lower", "sa-ooo", "squashes per pass"),
    m("ooo.gate_closed_cycles", "cycles", "lower", "sa-ooo", "retire-gate closed cycles per pass"),
    m("coherence.memsys.self", "ns/cycle", "lower", "sa-coherence",
      "memory-system self time (network included); should move sim_instr_per_s on paper8"),
    m("coherence.private", "ns/cycle", "lower", "sa-coherence", "private caches; as coherence.memsys.self"),
    m("coherence.directory", "ns/cycle", "lower", "sa-coherence", "directory banks; as coherence.memsys.self"),
    m("coherence.l1_hit_rate", "ratio", "higher", "sa-coherence", "L1 hits / demand loads"),
    m("coherence.invalidations", "count", "lower", "sa-coherence", "invalidations per pass"),
    m("coherence.flits", "count", "lower", "sa-coherence", "NoC flits per pass"),
    m("sim.parallel.work_frac", "ratio", "higher", "sa-sim parallel engine",
      "traced paper8 runs repeat the multi-core cells on parallel:2; moves sim_instr_per_s only if the default engine changes"),
    m("sim.parallel.wait_frac", "ratio", "lower", "sa-sim parallel engine", "as sim.parallel.work_frac"),
    m("sim.parallel.exchange_frac", "ratio", "lower", "sa-sim parallel engine", "as sim.parallel.work_frac"),
    m("sim.parallel.speedup_vs_event", "ratio", "higher", "sa-sim parallel engine",
      "event-engine run time / parallel:2 run time over those cells"),
    m("serve.submit_ms", "ms", "lower", "sa-serve", "median POST /jobs round trip; should move job_p99_ms"),
    m("serve.queue_wait_ms", "ms", "lower", "sa-serve", "mean queue wait from /profile; should move job_p99_ms"),
    m("serve.workload_job_ms", "ms", "lower", "sa-serve",
      "median open-loop latency of the radix workload jobs, in reference ms; should move job_p99_ms"),
    m("serve.oracle_cache_hit_frac", "ratio", "higher", "sa-serve",
      "litmus jobs answered from the oracle cache; should move job_p50_ms"),
    m("serve.rejected", "count", "lower", "sa-serve", "submissions refused with 429"),
    m("loadgen.lag_p99_ms", "ms", "lower", "load generator",
      "how late the open loop sent its jobs, at the same tail percentile as job_p99_ms"),
    m("litmus.canon_ms", "ms", "lower", "sa-litmus",
      "mean canonicalisation per litmus job; should move job_p50_ms and max_jobs_per_s"),
    m("litmus.explore_ms", "ms", "lower", "sa-litmus",
      "mean oracle exploration per cache miss; should move job_p50_ms and max_jobs_per_s"),
    m("trace.overhead_s", "s", "lower", "tracing",
      "traced pass minus untraced pass, in reference seconds"),
    m("trace.overhead_frac", "ratio", "lower", "tracing", "trace.overhead_s / untraced pass wall"),
    m("trace.coverage", "ratio", "higher", "tracing",
      "share of the traced wall time the spans account for"),
    m("error_rate", "ratio", "lower", "end-to-end",
      "failed / attempted operations of the run (also the top-level failed and attempted)"),
];
