//! End-to-end tests for sa-serve over real HTTP: the n6 allowed set
//! served over the wire must be byte-identical to the committed golden,
//! a value-renamed resubmission must be answered from the memo cache
//! (hit counter moves, no new simulation or exploration), a concurrent
//! burst against a small pool must 429 the overflow and settle every
//! accepted job, a farm burst must drain cleanly through `/shutdown`,
//! and a hostile, deeply nested body must be refused without taking the
//! process down.

use std::path::PathBuf;
use std::time::Duration;

use sa_bench::client::ServeClient;
use sa_metrics::JsonValue;
use sa_serve::{ServeConfig, Server};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

fn counter(client: &ServeClient, name: &str) -> u64 {
    let (status, text) = client.get("/metrics").expect("scrape");
    assert_eq!(status, 200);
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{text}"))
        .split('.')
        .next()
        .unwrap()
        .parse()
        .expect("counter value")
}

/// Submit n6 by program text, poll to completion, compare the allowed
/// document byte-for-byte with the golden; then resubmit a
/// value-renamed variant and assert it is served from the cache.
#[test]
fn n6_over_http_matches_golden_and_renamed_resubmit_hits_cache() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = ServeClient::new(server.port());

    // n6 as program text, oracle-only (check:false — the golden pins the
    // axiomatic sets, no simulation needed).
    let id = client
        .submit(r#"{"name":"n6","threads":["st x,1; ld x; ld y","st y,2; st x,2"],"check":false}"#)
        .expect("submit")
        .expect("202");
    // `wait` rides the live event stream to terminal status instead of
    // polling blind; the final document is identical to a poll's.
    let v = client.wait(id, Duration::from_secs(30)).expect("wait");
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(v.get("cached").and_then(JsonValue::as_bool), Some(false));
    let allowed = v
        .get("result")
        .and_then(|r| r.get("allowed"))
        .and_then(|a| a.as_str())
        .expect("allowed doc")
        .to_string();
    assert_eq!(
        allowed,
        golden("oracle_n6.txt"),
        "served allowed set must be byte-identical to tests/golden/oracle_n6.txt"
    );

    let sims_before = counter(&client, "sa_serve_sims_total");
    let hits_before = counter(&client, "sa_oracle_cache_hits_total");
    let misses_before = counter(&client, "sa_oracle_cache_misses_total");
    assert_eq!(misses_before, 1, "first submission explores once");

    // Same program with renamed variables and different stored values:
    // canonically equal, so the oracle answer comes from the cache.
    let id2 = client
        .submit(
            r#"{"name":"n6_renamed","threads":["st z,7; ld z; ld y","st y,9; st z,3"],"check":false}"#,
        )
        .expect("submit")
        .expect("202");
    let v2 = client.poll(id2, Duration::from_secs(30)).expect("poll");
    assert_eq!(v2.get("status").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(
        v2.get("cached").and_then(JsonValue::as_bool),
        Some(true),
        "canonically-equal resubmission must be served from the memo cache: {v2:?}"
    );
    // The allowed sets come back in the *submitted* vocabulary (z/7/9/3),
    // not the cached canonical one.
    let allowed2 = v2
        .get("result")
        .and_then(|r| r.get("allowed"))
        .and_then(|a| a.as_str())
        .expect("allowed doc");
    assert!(allowed2.starts_with("# n6_renamed\n# T0: st z,7; ld z; ld y\n"));
    assert!(allowed2.contains("[X86]") && allowed2.contains("[StoreAtomic370]"));

    assert_eq!(
        counter(&client, "sa_oracle_cache_hits_total"),
        hits_before + 1,
        "hit counter must increment"
    );
    assert_eq!(
        counter(&client, "sa_oracle_cache_misses_total"),
        misses_before,
        "no new exploration"
    );
    assert_eq!(
        counter(&client, "sa_serve_sims_total"),
        sims_before,
        "no new simulation"
    );
    assert_eq!(counter(&client, "sa_oracle_cache_size"), 1);

    client.shutdown().expect("shutdown");
    let report = server.join();
    assert_eq!(report.completed, 2);
    assert_eq!(report.cache, (1, 1, 1));
}

/// A workload job carrying the scale-out axes — core-count override,
/// mesh topology, parallel engine — runs over the wire, and its result
/// document echoes the effective configuration. The same job re-run on
/// the serial engine returns the identical cycle count (the bit-exact
/// contract, observed end-to-end through the service).
#[test]
fn workload_scale_out_axes_round_trip_over_http() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = ServeClient::new(server.port());

    let run = |spec: &str| -> JsonValue {
        let id = client.submit(spec).expect("submit").expect("202");
        let v = client.wait(id, Duration::from_secs(60)).expect("wait");
        assert_eq!(
            v.get("status").and_then(|s| s.as_str()),
            Some("done"),
            "{v:?}"
        );
        v.get("result").expect("result document").clone()
    };

    let par = run(
        r#"{"kind":"workload","workload":"dedup","scale":120,"seed":3,
            "cores":16,"topology":"mesh:4","engine":"parallel:2"}"#,
    );
    assert_eq!(par.get("cores").and_then(JsonValue::as_u64), Some(16));
    assert_eq!(par.get("topology").and_then(|t| t.as_str()), Some("mesh:4"));
    assert_eq!(
        par.get("engine").and_then(|e| e.as_str()),
        Some("parallel:2")
    );
    let ser = run(
        r#"{"kind":"workload","workload":"dedup","scale":120,"seed":3,
            "cores":16,"topology":"mesh:4","engine":"event"}"#,
    );
    assert_eq!(ser.get("engine").and_then(|e| e.as_str()), Some("event"));
    assert_eq!(
        par.get("cycles").and_then(JsonValue::as_u64),
        ser.get("cycles").and_then(JsonValue::as_u64),
        "sharded and serial runs of the same job must agree cycle-for-cycle"
    );

    client.shutdown().expect("shutdown");
    server.join();
}

/// ≥200 concurrent mixed submissions against a 4-worker pool with a
/// small queue: overflow must get 429 (bounded memory), nothing may
/// deadlock, and every accepted job must reach a terminal status.
#[test]
fn concurrent_burst_is_backpressured_and_fully_settled() {
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 8,
        ..ServeConfig::default()
    })
    .expect("start server");
    let port = server.port();

    // Mixed load: cheap oracle-only jobs and single-sim checked jobs.
    let specs = [
        r#"{"suite":"sb","check":false}"#,
        r#"{"suite":"mp","models":["x86"],"pads":[[0,0]]}"#,
        r#"{"name":"inline","threads":["st x,1; ld y","st y,1; ld x"],"check":false}"#,
        r#"{"suite":"n6","models":["370-SLFSoS-key"],"pads":[[0,0]]}"#,
    ];
    let handles: Vec<_> = (0..16)
        .map(|t| {
            std::thread::spawn(move || {
                let client = ServeClient::new(port);
                let mut accepted = Vec::new();
                let mut rejected = 0u64;
                for i in 0..16 {
                    match client.submit(specs[(t + i) % specs.len()]).expect("submit") {
                        Ok(id) => accepted.push(id),
                        Err((status, _)) => {
                            assert_eq!(status, 429, "only backpressure may reject");
                            rejected += 1;
                        }
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for h in handles {
        let (a, r) = h.join().expect("submitter");
        accepted.extend(a);
        rejected += r;
    }
    assert_eq!(
        accepted.len() as u64 + rejected,
        256,
        "16 threads x 16 submissions"
    );
    assert!(
        rejected > 0,
        "a queue of 8 must overflow under 256 submissions"
    );

    // Every accepted job reaches a terminal status. Records beyond the
    // retention window would 404, but retain (1024) covers the burst.
    let client = ServeClient::new(port);
    for &id in &accepted {
        let v = client.poll(id, Duration::from_secs(60)).expect("poll");
        let status = v.get("status").and_then(|s| s.as_str()).unwrap();
        assert!(status == "done" || status == "failed", "job {id}: {status}");
    }

    client.shutdown().expect("shutdown");
    let report = server.join();
    assert_eq!(report.completed + report.failed, accepted.len() as u64);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.failed, 0, "nothing should actually fail");
}

/// A farm burst generates, dedupes and executes programs, fills the
/// coverage matrix, and `/shutdown` drains everything cleanly.
#[test]
fn farm_burst_fills_coverage_and_drains_on_shutdown() {
    let dir = std::env::temp_dir().join(format!("sa_serve_e2e_farm_{}", std::process::id()));
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 16,
        results_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = ServeClient::new(server.port());

    let (status, body) = client
        .post("/farm", r#"{"programs":25,"seed":11}"#)
        .expect("farm");
    assert_eq!(status, 202, "{body}");

    // Wait until the farm's jobs drain through the pool.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let done = counter(&client, "sa_serve_jobs_completed_total");
        let generated = counter(&client, "sa_serve_farm_generated_total");
        let deduped = counter(&client, "sa_serve_farm_deduped_total");
        if generated >= 25 && done >= generated - deduped {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "farm did not drain: {generated} generated, {deduped} deduped, {done} done"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, cov) = client.get("/coverage").expect("coverage");
    assert_eq!(status, 200);
    let v = JsonValue::parse(&cov).expect("coverage json");
    let cells = v.get("cells").and_then(|c| c.as_arr()).expect("cells");
    assert!(
        cells.len() >= 7,
        "25 farm programs across 5 configs + 2 axiomatic rows must fill cells, got {}",
        cells.len()
    );

    client.shutdown().expect("shutdown");
    let report = server.join();
    assert_eq!(report.failed, 0);
    assert_eq!(report.violations, 0, "clean machine must not violate");
    let checkpoint = report
        .checkpoint
        .expect("final checkpoint with results_dir set");
    let doc = std::fs::read_to_string(&checkpoint).expect("read checkpoint");
    assert!(doc.contains("sa-serve-checkpoint-v1"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body of 60 KB of `[` fits inside `MAX_BODY` but nests far past the
/// JSON reader's depth bound: `POST /jobs` refuses it with 400 instead of
/// overflowing the connection thread's stack, and the server keeps
/// answering.
#[test]
fn deeply_nested_body_is_refused_and_server_survives() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = ServeClient::new(server.port());
    let body = "[".repeat(60 * 1024);
    assert!(body.len() < sa_serve::http::MAX_BODY);
    let (status, text) = client.post("/jobs", &body).expect("post");
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("nesting too deep"), "{text}");
    let (status, text) = client.get("/metrics").expect("scrape after refusal");
    assert_eq!(status, 200);
    assert!(text.contains("sa_serve_jobs_completed_total"), "{text}");
    client.shutdown().expect("shutdown");
    let report = server.join();
    assert_eq!(report.completed + report.failed, 0);
}
