//! The `litmus-serve` workload: an in-process `sa_serve::Server`
//! driven over HTTP by one load-generator thread holding at most one
//! connection at a time.
//!
//! Jobs are generated litmus programs sent as `threads` text; a fixed
//! share resubmit an earlier program with its variables renamed (an
//! oracle-cache hit once canonicalised), and one job in
//! [`LONG_JOB_EVERY`] is a short `radix` workload job. The load runs in
//! one-second segments: open-loop ones offer [`OPEN_RATE`] jobs/s and
//! time each job from its due time; closed-loop ones keep
//! [`CLOSED_IN_FLIGHT`] jobs in flight and count completions. Between
//! segments the load pauses with nothing in flight to sample the host's
//! slowdown (see [`crate::hostspeed`]) and read the service's spans, so
//! each segment's times are reported in reference units.

use std::time::{Duration, Instant};

use sa_bench::client::ServeClient;
use sa_isa::rng::Xoshiro256;
use sa_isa::ConsistencyModel;
use sa_litmus::ast::{LOp, LitmusTest, Var};
use sa_litmus::{CorpusStream, GenConfig};
use sa_metrics::JsonValue;
use sa_serve::{ServeConfig, Server};
use sa_sim::EngineMode;

use crate::hostspeed::{self, HostSpeed};
use crate::ledger::{self, Span};
use crate::plan::{
    Cell, CLOSED_IN_FLIGHT, DEFAULT_SEED, LITMUS_MAX_THREADS, LITMUS_OPS, LONG_JOB_EVERY,
    LONG_JOB_INSTRS, OPEN_RATE, OPEN_SHARE, QUEUE_CAP, RESUBMIT_SHARE, SERVE_SETUPS, SERVE_WORKERS,
};
use crate::simbench::{book_counts, book_phase_times, same_report, traced_pass};
use crate::simload::{run_cell, Pass};
use crate::stats::{due_time, latency_from_due, lateness, median, tail};
use crate::Outcome;

/// How often outstanding jobs are polled.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Length of one load segment. Between segments the load pauses with
/// nothing in flight, and the pause samples the host's slowdown and
/// reads the service's span profile.
const SEGMENT: Duration = Duration::from_secs(1);
/// Longest wait for accepted jobs to finish after a segment ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// What a job is, as far as checking its result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Litmus,
    Workload(ConsistencyModel),
}

/// The seeded job stream.
pub(crate) struct JobMaker {
    corpus: CorpusStream,
    rng: Xoshiro256,
    earlier: Vec<LitmusTest>,
    seed: u64,
    made: u64,
}

impl JobMaker {
    pub(crate) fn new(seed: u64) -> JobMaker {
        JobMaker {
            corpus: CorpusStream::new(
                seed,
                GenConfig {
                    max_threads: LITMUS_MAX_THREADS,
                    total_ops: LITMUS_OPS,
                    ..GenConfig::default()
                },
            ),
            rng: Xoshiro256::seed_from_u64(seed ^ 0x5EED_CAFE),
            earlier: Vec::new(),
            seed,
            made: 0,
        }
    }

    /// The next job's kind and `POST /jobs` body.
    pub(crate) fn next_job(&mut self) -> (Kind, String) {
        let i = self.made;
        self.made += 1;
        if i % LONG_JOB_EVERY == LONG_JOB_EVERY - 1 {
            let models = ConsistencyModel::ALL;
            let model = models[(i / LONG_JOB_EVERY) as usize % models.len()];
            let body = format!(
                "{{\"kind\":\"workload\",\"workload\":\"radix\",\"model\":\"{}\",\"scale\":{LONG_JOB_INSTRS},\"seed\":{},\"cores\":8}}",
                model.label(),
                self.seed
            );
            return (Kind::Workload(model), body);
        }
        let test = if !self.earlier.is_empty() && self.rng.gen_f64() < RESUBMIT_SHARE {
            let pick = self.rng.gen_range_usize(0, self.earlier.len());
            let offset = 3 + self.rng.gen_range_u64(0, 5) as u8;
            rename(&self.earlier[pick], offset)
        } else {
            let t = self.corpus.next().expect("the corpus stream is infinite");
            self.earlier.push(t.clone());
            t
        };
        (Kind::Litmus, litmus_body(&test, i))
    }
}

/// `test` with every variable `k` renamed to `v<k + offset>`.
pub(crate) fn rename(test: &LitmusTest, offset: u8) -> LitmusTest {
    let r = |v: Var| Var(v.0 + offset);
    let threads = test
        .threads
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| match *op {
                    LOp::St(v, x) => LOp::St(r(v), x),
                    LOp::Ld(v) => LOp::Ld(r(v)),
                    LOp::Rmw(v, x) => LOp::Rmw(r(v), x),
                    LOp::Fence => LOp::Fence,
                })
                .collect()
        })
        .collect();
    LitmusTest::new(test.name, threads)
}

/// The `POST /jobs` body for a litmus program, one text line per thread.
pub(crate) fn litmus_body(test: &LitmusTest, i: u64) -> String {
    let mut j = sa_metrics::JsonWriter::new();
    j.begin_object()
        .field_str("kind", "litmus")
        .field_str("name", &format!("job-{i}"))
        .key("threads")
        .begin_array();
    for ops in &test.threads {
        let text: Vec<String> = ops.iter().map(ToString::to_string).collect();
        j.string(&text.join("; "));
    }
    j.end_array().end_object();
    j.finish()
}

/// Expected result of the workload jobs, from the in-process replay.
struct Expect {
    retired: u64,
    cycles: Vec<(ConsistencyModel, u64)>,
}

/// A job's observed end.
#[derive(Debug, Clone)]
struct Finished {
    kind: Kind,
    /// From due time (open loop) or send time (closed loop), ms;
    /// infinite for failed or refused jobs.
    latency_ms: f64,
    /// From send to observed end, ms.
    service_ms: f64,
    cached: bool,
    /// The segment it was sent in.
    segment: usize,
}

struct InFlight {
    id: u64,
    kind: Kind,
    due: Instant,
    sent: Instant,
}

/// One segment of load, between two pauses.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Closed loop (else open loop).
    closed: bool,
    /// From the segment's start until its last job ended.
    secs: f64,
    /// Mean of the slowdowns sampled in the pauses before and after it.
    slowdown: f64,
    /// Growth of the service's `simulate` spans of workload jobs:
    /// nanoseconds and count.
    sim_ns: u64,
    sim_n: u64,
}

/// The load generator's state.
struct Load<'a> {
    client: ServeClient,
    expect: &'a Expect,
    maker: JobMaker,
    host: &'a mut HostSpeed,
    pending: Vec<InFlight>,
    done: Vec<Finished>,
    segments: Vec<Segment>,
    submit_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    rejected: u64,
    last_poll: Option<Instant>,
    /// Slowdown sampled and `simulate` spans read in the last pause.
    slowdown: f64,
    sim: (u64, u64),
}

impl<'a> Load<'a> {
    fn new(
        client: ServeClient,
        expect: &'a Expect,
        seed: u64,
        host: &'a mut HostSpeed,
        out: &mut Outcome,
    ) -> Load<'a> {
        let slowdown = host.sample();
        let mut load = Load {
            client,
            expect,
            maker: JobMaker::new(seed),
            host,
            pending: Vec::new(),
            done: Vec::new(),
            segments: Vec::new(),
            submit_ms: Vec::new(),
            lag_ms: Vec::new(),
            rejected: 0,
            last_poll: None,
            slowdown,
            sim: (0, 0),
        };
        load.sim = load.read_sim(out);
        load
    }

    fn failed(&mut self, kind: Kind) {
        let segment = self.segments.len();
        self.done.push(Finished {
            kind,
            latency_ms: f64::INFINITY,
            service_ms: f64::INFINITY,
            cached: false,
            segment,
        });
    }

    /// Sends the next job, due at `due`.
    fn submit(&mut self, due: Instant, out: &mut Outcome) {
        let (kind, body) = self.maker.next_job();
        let sent = Instant::now();
        self.lag_ms.push(lateness(due, sent).as_secs_f64() * 1e3);
        let reply = self.client.submit(&body);
        self.submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(Ok(id)) => self.pending.push(InFlight {
                id,
                kind,
                due,
                sent,
            }),
            Ok(Err((429, _))) => {
                self.rejected += 1;
                out.check(vec!["job refused with 429".to_string()]);
                self.failed(kind);
            }
            r => {
                out.check(vec![format!("POST /jobs failed: {r:?}")]);
                self.failed(kind);
            }
        }
    }

    /// Polls every outstanding job (at most once per [`POLL_EVERY`]).
    fn poll(&mut self, out: &mut Outcome) {
        let now = Instant::now();
        if self.last_poll.is_some_and(|t| now - t < POLL_EVERY) {
            return;
        }
        self.last_poll = Some(now);
        let mut k = 0;
        while k < self.pending.len() {
            let job = &self.pending[k];
            let reply = self.client.get(&format!("/jobs/{}", job.id));
            let observed = Instant::now();
            let v = match reply {
                Ok((200, b)) => JsonValue::parse(&b).ok(),
                _ => None,
            };
            let status = v
                .as_ref()
                .and_then(|v| v.get("status")?.as_str().map(str::to_string));
            if matches!(status.as_deref(), Some("queued" | "running")) {
                k += 1;
                continue;
            }
            let job = self.pending.swap_remove(k);
            let v = v.unwrap_or(JsonValue::Null);
            let errors = check_job(&v, job.kind, self.expect, job.id);
            let ok = errors.is_empty();
            out.check(errors);
            let segment = self.segments.len();
            self.done.push(Finished {
                kind: job.kind,
                latency_ms: if ok {
                    latency_from_due(job.due, observed).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                },
                service_ms: (observed - job.sent).as_secs_f64() * 1e3,
                cached: v.get("cached").and_then(JsonValue::as_bool) == Some(true),
                segment,
            });
        }
    }

    /// Waits for every accepted job to end.
    fn drain(&mut self, out: &mut Outcome) {
        let limit = Instant::now() + DRAIN_LIMIT;
        while !self.pending.is_empty() && Instant::now() < limit {
            self.poll(out);
            std::thread::sleep(POLL_EVERY / 2);
        }
        for job in std::mem::take(&mut self.pending) {
            out.check(vec![format!("job {} did not finish", job.id)]);
            self.failed(job.kind);
        }
    }

    /// Cumulative nanoseconds and count of the service's `simulate`
    /// spans of workload jobs.
    fn read_sim(&self, out: &mut Outcome) -> (u64, u64) {
        match profile(self.client) {
            Ok(roots) => span_under(&roots, "job/workload", "simulate"),
            Err(e) => {
                out.check(vec![format!("GET /profile: {e}")]);
                self.sim
            }
        }
    }

    /// Ends the segment that began at `start`: waits for its jobs, then
    /// samples the slowdown and reads the spans while nothing runs.
    fn pause(&mut self, closed: bool, start: Instant, out: &mut Outcome) {
        self.drain(out);
        let secs = start.elapsed().as_secs_f64();
        let slowdown = self.host.sample();
        let sim = self.read_sim(out);
        self.segments.push(Segment {
            closed,
            secs,
            slowdown: (self.slowdown + slowdown) / 2.0,
            sim_ns: sim.0 - self.sim.0,
            sim_n: sim.1 - self.sim.1,
        });
        self.slowdown = slowdown;
        self.sim = sim;
    }

    /// One open-loop segment: [`OPEN_RATE`] jobs a second, each timed
    /// from its due time.
    fn open_segment(&mut self, out: &mut Outcome) {
        let start = Instant::now();
        let mut i = 0;
        loop {
            let due = due_time(start, OPEN_RATE, i);
            if due - start >= SEGMENT {
                break;
            }
            if Instant::now() >= due {
                self.submit(due, out);
                i += 1;
                continue;
            }
            self.poll(out);
            let now = Instant::now();
            if due > now {
                std::thread::sleep((due - now).min(POLL_EVERY));
            }
        }
        self.pause(false, start, out);
    }

    /// One closed-loop segment: [`CLOSED_IN_FLIGHT`] jobs kept in
    /// flight.
    fn closed_segment(&mut self, out: &mut Outcome) {
        let start = Instant::now();
        while start.elapsed() < SEGMENT {
            if self.pending.len() < CLOSED_IN_FLIGHT {
                self.submit(Instant::now(), out);
                continue;
            }
            self.poll(out);
            std::thread::sleep(POLL_EVERY / 4);
        }
        self.pause(true, start, out);
    }
}

/// Problems with one finished job's status and result.
fn check_job(v: &JsonValue, kind: Kind, expect: &Expect, id: u64) -> Vec<String> {
    let status = v
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    if status != "done" {
        let err = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
        return vec![format!("job {id} ended {status} {err}")];
    }
    let Some(r) = v.get("result") else {
        return vec![format!("job {id}: done without a result")];
    };
    let mut errors = Vec::new();
    match kind {
        Kind::Litmus => {
            let models = r.get("models").and_then(JsonValue::as_arr).unwrap_or(&[]);
            if models.len() != ConsistencyModel::ALL.len() {
                errors.push(format!("job {id}: {} models checked, not 5", models.len()));
            }
            for m in models {
                let sims = m.get("sims").and_then(JsonValue::as_u64).unwrap_or(0);
                let bad = m.get("violations").and_then(JsonValue::as_u64).unwrap_or(1);
                if sims == 0 || bad != 0 {
                    errors.push(format!("job {id}: {sims} sims, {bad} violations"));
                }
            }
            if r.get("violations")
                .and_then(JsonValue::as_arr)
                .is_none_or(|a| !a.is_empty())
            {
                errors.push(format!("job {id}: violations reported"));
            }
        }
        Kind::Workload(model) => {
            let retired = r.get("retired_instrs").and_then(JsonValue::as_u64);
            if retired != Some(expect.retired) {
                errors.push(format!(
                    "job {id}: retired {retired:?}, generated {}",
                    expect.retired
                ));
            }
            let cycles = r.get("cycles").and_then(JsonValue::as_u64);
            let want = expect.cycles.iter().find(|(m, _)| *m == model).map(|c| c.1);
            if cycles != want {
                errors.push(format!(
                    "job {id} ({model}): {cycles:?} cycles, in-process run {want:?}"
                ));
            }
        }
    }
    errors
}

fn config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: SERVE_WORKERS,
        acceptors: SERVE_WORKERS,
        queue_cap: QUEUE_CAP,
        retain: 1 << 16,
        results_dir: None,
        checkpoint_every: 0,
        farm: None,
        ..ServeConfig::default()
    }
}

/// Starts a server and waits for its first `/metrics` answer.
fn start() -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(config()).map_err(|e| format!("Server::start: {e}"))?;
    let client = ServeClient::new(server.port());
    loop {
        if let Ok((200, _)) = client.get("/metrics") {
            return Ok((server, t.elapsed().as_secs_f64()));
        }
        if t.elapsed() > Duration::from_secs(10) {
            return Err("no /metrics answer within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Starts the service [`SERVE_SETUPS`] times, timing each start-up in
/// reference seconds, and keeps the last one running.
fn set_up(host: &mut HostSpeed) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    loop {
        let slowdown = host.sample();
        let (server, t) = start()?;
        setups.push(t / hostspeed::factor(slowdown));
        if setups.len() == SERVE_SETUPS {
            return Ok((server, setups));
        }
        server.shutdown();
        server.join();
    }
}

/// The load's end-to-end figures in reference units: each segment's
/// times divided by [`hostspeed::factor`] of its slowdown.
#[derive(Debug, Clone, PartialEq)]
struct Figures {
    /// Open-loop job latencies, ms from due time (infinite for failed
    /// or refused jobs), in the order the jobs ended.
    latencies: Vec<f64>,
    /// Closed-loop jobs completed per second.
    jobs_per_s: f64,
    /// Workload jobs' instructions per second inside the service's
    /// `simulate` spans, at `retired` instructions a job.
    instr_per_s: f64,
}

impl Figures {
    fn of(done: &[Finished], segments: &[Segment], retired: u64) -> Figures {
        let f = |g: &Segment| hostspeed::factor(g.slowdown);
        let latencies = done
            .iter()
            .filter(|j| !segments[j.segment].closed)
            .map(|j| j.latency_ms / f(&segments[j.segment]))
            .collect();
        let closed_jobs = done
            .iter()
            .filter(|j| segments[j.segment].closed && j.latency_ms.is_finite())
            .count();
        let closed_s: f64 = segments
            .iter()
            .filter(|g| g.closed)
            .map(|g| g.secs / f(g))
            .sum();
        let sim_n: u64 = segments.iter().map(|g| g.sim_n).sum();
        let sim_s: f64 = segments.iter().map(|g| g.sim_ns as f64 * 1e-9 / f(g)).sum();
        Figures {
            latencies,
            jobs_per_s: closed_jobs as f64 / closed_s,
            instr_per_s: (sim_n * retired) as f64 / sim_s,
        }
    }
}

/// The service's span tree (`GET /profile`).
fn profile(client: ServeClient) -> Result<Vec<Span>, String> {
    let (_, body) = client.get("/profile").map_err(|e| e.to_string())?;
    ledger::from_json(&body)
}

/// Total and count of the spans named `name` under root `root`.
fn span_under(roots: &[Span], root: &str, name: &str) -> (u64, u64) {
    roots
        .iter()
        .filter(|r| r.name == root)
        .filter_map(|r| r.child(name))
        .fold((0, 0), |(t, c), s| (t + s.total_ns, c + s.count))
}

/// Runs the workload for `seconds` and books every check and metric.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    recorded: &dyn Fn(&str) -> Option<u64>,
    cells: &[Cell],
    out: &mut Outcome,
) {
    let mut host = HostSpeed::new();
    // The workload jobs' expected results, from in-process runs of the
    // same cells; one of them again on the lockstep engine.
    let replay = Pass::run(cells, seed, &mut host);
    let mut expect = Expect {
        retired: replay.cells[0].generated,
        cycles: Vec::new(),
    };
    for (cell, r) in cells.iter().zip(&replay.cells) {
        let mut errors = r.errors.clone();
        if seed == DEFAULT_SEED && recorded(&cell.label()) != Some(r.report.cycles) {
            errors.push(format!(
                "{}: {} cycles, manifest records {:?}",
                cell.label(),
                r.report.cycles,
                recorded(&cell.label())
            ));
        }
        out.check(errors);
        expect.cycles.push((cell.model, r.report.cycles));
    }
    let ls = run_cell::<sa_profile::NullProfiler>(&cells[0], seed, EngineMode::Lockstep);
    out.check(same_report(&ls, &replay.cells[0], &cells[0], "lockstep"));

    let (server, setups) = match set_up(&mut host) {
        Ok(v) => v,
        Err(e) => {
            out.check(vec![e]);
            return;
        }
    };
    let client = ServeClient::new(server.port());
    let mut load = Load::new(client, &expect, seed, &mut host, out);
    let open_len = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let t0 = Instant::now();
    while t0.elapsed() < open_len {
        load.open_segment(out);
    }
    // The closed loop's job count varies with host speed, and so would
    // the allocator's high-water mark after it.
    let peak_rss_mb = crate::peak_rss_mb();
    let t1 = Instant::now();
    while t0.elapsed() < Duration::from_secs_f64(seconds) || t1.elapsed() < SEGMENT {
        load.closed_segment(out);
    }

    let profile = profile(client).unwrap_or_else(|e| {
        out.check(vec![format!("GET /profile: {e}")]);
        Vec::new()
    });
    server.shutdown();
    let report = server.join();
    let Load {
        done,
        segments,
        submit_ms,
        lag_ms,
        rejected,
        ..
    } = load;
    let ok = |f: &&Finished| f.latency_ms.is_finite();
    let ok_jobs = done.iter().filter(ok).count() as u64;
    let mut errors = Vec::new();
    if report.failed != 0 || report.violations != 0 || report.completed != ok_jobs {
        errors.push(format!(
            "server drained with {} done, {} failed, {} violations; client saw {ok_jobs} done",
            report.completed, report.failed, report.violations
        ));
    }
    // Every workload job the client saw end has its `simulate` span.
    let sim_n: u64 = segments.iter().map(|g| g.sim_n).sum();
    let workload_jobs = done
        .iter()
        .filter(ok)
        .filter(|f| matches!(f.kind, Kind::Workload(_)))
        .count() as u64;
    if sim_n != workload_jobs {
        errors.push(format!(
            "/profile has {sim_n} simulate spans for {workload_jobs} workload jobs"
        ));
    }
    out.check(errors);

    let fig = Figures::of(&done, &segments, expect.retired);
    let latencies = &fig.latencies;
    let t = tail(latencies);
    eprintln!(
        "litmus-serve: {} open-loop jobs at {OPEN_RATE}/s, {} closed-loop, {} segments, host slowdown median {:.2}; job_p99_ms is p{} of {} samples",
        latencies.len(),
        done.len() - latencies.len(),
        segments.len(),
        median(&segments.iter().map(|g| g.slowdown).collect::<Vec<_>>()),
        t.pct,
        t.n
    );
    out.set("setup_s", median(&setups));
    out.set("sim_instr_per_s", fig.instr_per_s);
    out.set("job_p50_ms", median(latencies));
    out.set("job_p99_ms", t.value);
    out.set("max_jobs_per_s", fig.jobs_per_s);
    out.set("peak_rss_mb", peak_rss_mb);
    if !traced {
        return;
    }

    let (qw_ns, qw_n) = ["job/litmus", "job/workload"]
        .iter()
        .map(|r| span_under(&profile, r, "queue_wait"))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let (canon_ns, canon_n) = span_under(&profile, "job/litmus", "canon");
    let (explore_ns, explore_n) = span_under(&profile, "job/litmus", "explore");
    let litmus: Vec<&Finished> = done
        .iter()
        .filter(ok)
        .filter(|f| f.kind == Kind::Litmus)
        .collect();
    let workload_ms: Vec<f64> = done
        .iter()
        .filter(|j| !segments[j.segment].closed)
        .zip(latencies)
        .filter(|(j, _)| matches!(j.kind, Kind::Workload(_)))
        .map(|(_, l)| *l)
        .collect();
    let per = |ns: u64, n: u64| ns as f64 * 1e-6 / n.max(1) as f64;
    out.set("serve.submit_ms", median(&submit_ms));
    out.set("serve.queue_wait_ms", per(qw_ns, qw_n));
    out.set("serve.workload_job_ms", median(&workload_ms));
    out.set(
        "serve.oracle_cache_hit_frac",
        litmus.iter().filter(|f| f.cached).count() as f64 / litmus.len().max(1) as f64,
    );
    out.set("serve.rejected", rejected as f64);
    out.set("loadgen.lag_p99_ms", tail(&lag_ms).value);
    out.set("litmus.canon_ms", per(canon_ns, canon_n));
    out.set("litmus.explore_ms", per(explore_ns, explore_n));

    // The simulator layers, from the workload-job cells replayed in
    // process (the service runs its simulations unprofiled).
    let replay = [replay];
    book_phase_times(&replay, out);
    book_counts(&replay[0], out);
    traced_pass(cells, seed, &replay[0], replay[0].ref_s, &mut host, out);
    // Coverage on this workload is the service's own: how much of each
    // job's send-to-end time its lifecycle spans account for.
    let job_ns: u64 = profile
        .iter()
        .filter(|r| r.name.starts_with("job/"))
        .map(|r| r.total_ns)
        .sum();
    let service_ms: f64 = done
        .iter()
        .filter(|f| f.service_ms.is_finite())
        .map(|f| f.service_ms)
        .sum();
    out.set("trace.coverage", job_ns as f64 * 1e-6 / service_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostspeed::factor;

    /// Each segment's times are scaled by its own slowdown; failed jobs
    /// stay infinitely late and do not count as completed.
    #[test]
    fn figures_scale_each_segment_by_its_slowdown() {
        let seg = |closed, secs, slowdown, sim_ns, sim_n| Segment {
            closed,
            secs,
            slowdown,
            sim_ns,
            sim_n,
        };
        // Slowdowns 1 and 4: factors 1 and 8.
        let segments = [
            seg(false, 1.0, 1.0, 2_000_000, 1),
            seg(false, 1.0, 4.0, 0, 0),
            seg(true, 2.0, 4.0, 8_000_000, 2),
        ];
        let job = |segment, latency_ms| Finished {
            kind: Kind::Litmus,
            latency_ms,
            service_ms: latency_ms,
            cached: false,
            segment,
        };
        let done = [
            job(0, 5.0),
            job(1, 16.0),
            job(1, f64::INFINITY),
            job(2, 1.0),
            job(2, 1.0),
            job(2, f64::INFINITY),
        ];
        let f = Figures::of(&done, &segments, 1000);
        assert_eq!(f.latencies, vec![5.0, 2.0, f64::INFINITY]);
        // 2 completed jobs in 2 s at factor 8: 2 / 0.25 s.
        assert_eq!(f.jobs_per_s, 8.0);
        // 3 jobs of 1000 instructions in 2 ms + 8 ms / 8.
        assert_eq!(f.instr_per_s, 3000.0 / 0.003);
        assert_eq!(factor(4.0), 8.0);
    }

    /// A renamed resubmission is textually new but canonically the same
    /// program, so the service's oracle cache answers it.
    #[test]
    fn renamed_resubmits_share_a_canonical_form() {
        let mut maker = JobMaker::new(3);
        for _ in 0..40 {
            let t = maker.corpus.next().unwrap();
            let r = rename(&t, 4);
            assert_ne!(litmus_body(&t, 0), litmus_body(&r, 0));
            assert_eq!(
                sa_litmus::canonicalize(&t).key,
                sa_litmus::canonicalize(&r).key
            );
        }
    }

    /// Every job body is one the service accepts, and the program text
    /// parses back to the generated program.
    #[test]
    fn job_bodies_parse_as_service_jobs() {
        let mut maker = JobMaker::new(5);
        let mut long = 0;
        for _ in 0..3 * LONG_JOB_EVERY {
            let (kind, body) = maker.next_job();
            match (
                kind,
                sa_serve::JobSpec::parse(&body).expect("service accepts the body"),
            ) {
                (Kind::Litmus, sa_serve::JobSpec::Litmus(l)) => assert_eq!(l.models.len(), 5),
                (Kind::Workload(m), sa_serve::JobSpec::Workload(w)) => {
                    assert_eq!((w.model, w.scale, w.seed), (m, LONG_JOB_INSTRS, 5));
                    long += 1;
                }
                (k, s) => panic!("{k:?} job parsed as {s:?}"),
            }
        }
        assert_eq!(long, 3);
        let t = maker.corpus.next().unwrap();
        let body = litmus_body(&t, 9);
        let Ok(sa_serve::JobSpec::Litmus(l)) = sa_serve::JobSpec::parse(&body) else {
            panic!("litmus body");
        };
        assert_eq!(l.test.threads, t.threads);
    }
}
