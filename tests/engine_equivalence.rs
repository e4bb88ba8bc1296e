//! The event-driven engine's contract: cycle skipping is an
//! optimization, not a semantic change. For every workload and every
//! consistency configuration, the skipping engine must produce a
//! [`Report`] bit-identical to the lockstep reference — same final
//! cycle count, same per-core statistics and CPI stacks, same
//! time-series samples — and identical architectural outcomes
//! (registers and memory).

use sa_isa::{ConsistencyModel, CoreId, Reg, Trace};
use sa_litmus::{suite, LitmusTest};
use sa_sim::{EngineMode, Multicore, Report, SimConfig};

/// Runs the same machine twice — event-driven and lockstep — and
/// returns both simulators after asserting the reports are identical.
fn run_both(cfg: SimConfig, traces: Vec<Trace>, label: &str) -> (Multicore, Multicore) {
    let mut skip = Multicore::new(
        cfg.clone().with_engine(EngineMode::EventDriven),
        traces.clone(),
    );
    let mut lock = Multicore::new(cfg.with_engine(EngineMode::Lockstep), traces);
    let rs: Report = skip.run(u64::MAX).expect("event engine completes");
    let rl: Report = lock.run(u64::MAX).expect("lockstep engine completes");
    assert_eq!(rs.cycles, rl.cycles, "{label}: final cycle counts differ");
    assert_eq!(rs, rl, "{label}: reports differ");
    (skip, lock)
}

/// Litmus programs (with deliberate skews so cores sleep at different
/// times) across all five configurations: identical reports and
/// identical architectural outcomes.
#[test]
fn litmus_outcomes_and_reports_match() {
    for ct in [suite::n6(), suite::mp(), suite::sb()] {
        let n = ct.test.threads.len();
        let pads: Vec<Vec<usize>> = vec![vec![0; n], {
            let mut p = vec![0; n];
            p[0] = 120;
            p
        }];
        for model in ConsistencyModel::ALL {
            for pad in &pads {
                let traces = ct.test.to_traces_padded(pad);
                let cfg = SimConfig::default()
                    .with_model(model)
                    .with_cores(traces.len());
                let label = format!("{} under {model} pads {pad:?}", ct.test.name);
                let (skip, lock) = run_both(cfg, traces, &label);
                for t in 0..n {
                    for slot in 0..ct.test.loads_in(t) {
                        let r = Reg::new(slot as u8);
                        assert_eq!(
                            skip.core(CoreId::from_index(t)).arch_reg(r),
                            lock.core(CoreId::from_index(t)).arch_reg(r),
                            "{label}: thread {t} r{slot}"
                        );
                    }
                }
                for v in ct.test.vars() {
                    let a = LitmusTest::var_addr(v);
                    assert_eq!(
                        skip.memory().read(a, 8),
                        lock.memory().read(a, 8),
                        "{label}: var {v:?}"
                    );
                }
            }
        }
    }
}

/// An 8-core parallel workload with a fine sampling interval: the
/// skipping engine must land a sample on every interval boundary the
/// lockstep engine does, with identical contents.
#[test]
fn sampler_series_identical_under_skipping() {
    let w = sa_workloads::by_name("dedup").expect("dedup exists");
    for model in ConsistencyModel::ALL {
        let cfg = SimConfig::default()
            .with_model(model)
            .with_cores(8)
            .with_sample_interval(64);
        let traces = w.generate(8, 1_500, 99);
        let mut skip = Multicore::new(
            cfg.clone().with_engine(EngineMode::EventDriven),
            traces.clone(),
        );
        let mut lock = Multicore::new(cfg.with_engine(EngineMode::Lockstep), traces);
        let rs = skip.run(u64::MAX).expect("completes");
        let rl = lock.run(u64::MAX).expect("completes");
        assert!(
            !rs.samples.is_empty(),
            "{model}: a 64-cycle interval must produce samples"
        );
        assert_eq!(rs.samples, rl.samples, "{model}: sample series differ");
        assert_eq!(rs, rl, "{model}: full reports differ");
    }
}

/// Single-core runs (long memory stalls, the deepest skips) stay
/// cycle-exact too.
#[test]
fn single_core_workload_matches() {
    let w = sa_workloads::by_name("505.mcf").expect("505.mcf exists");
    for model in ConsistencyModel::ALL {
        let cfg = SimConfig::default().with_model(model).with_cores(1);
        run_both(
            cfg,
            w.generate(1, 1_000, 7),
            &format!("505.mcf under {model}"),
        );
    }
}

/// An MSHR-starved machine (2 MSHRs per core) keeps loads and RFOs
/// `Blocked(MshrFull)` for most of the run. The event engines sleep
/// through the memoized re-rejections and book them in closed form; the
/// booked request ids and reject counters must match lockstep at every
/// cycle boundary, and a fine sampling interval lands samples inside the
/// sleep spans. Lockstep, event-driven and `parallel:2` must agree.
#[test]
fn mshr_starved_rejections_book_identically() {
    for (name, cores, instrs) in [("505.mcf", 1, 2_000), ("radix", 8, 400)] {
        let w = sa_workloads::by_name(name).expect("workload exists");
        let traces = w.generate(cores, instrs, 3);
        for model in ConsistencyModel::ALL {
            let mut cfg = SimConfig::default()
                .with_model(model)
                .with_cores(cores)
                .with_sample_interval(64);
            cfg.mem.mshrs = 2;
            let label = format!("{name} under {model} with 2 MSHRs");
            let run = |engine: EngineMode| {
                Multicore::new(cfg.clone().with_engine(engine), traces.clone())
                    .run(u64::MAX)
                    .unwrap_or_else(|e| panic!("{label} on {engine:?}: {e}"))
            };
            let rl = run(EngineMode::Lockstep);
            for (i, c) in rl.mem.per_core.iter().enumerate() {
                assert!(c.mshr_rejects > 0, "{label}: core {i} never rejected");
            }
            assert!(!rl.samples.is_empty(), "{label}: no samples");
            for engine in [EngineMode::EventDriven, EngineMode::Parallel { threads: 2 }] {
                let r = run(engine);
                assert_eq!(
                    r.samples, rl.samples,
                    "{label} on {engine:?}: samples differ"
                );
                assert_eq!(r, rl, "{label} on {engine:?}: reports differ");
            }
        }
    }
}
