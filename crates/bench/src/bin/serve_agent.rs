//! Scenario server process: hosts one `serve::router::Router` behind a
//! loopback TCP socket for the benchmark harness.
//!
//! Spawned by `bench::harness::run_scenario` as its own OS process, so
//! scenario measurements cross a real process boundary (separate heaps,
//! separate RSS, real sockets) instead of sharing the load generator's
//! address space the way the old per-PR bench binaries did. The serving
//! datapath itself — stream specs, per-request frame synthesis, router,
//! connection handling — lives in [`bench::agent`], shared with
//! `shard_agent`. The process holds no frames between requests, so its
//! peak RSS (the `stats` line's `rss_kb`) is the engines' plans, cubes and
//! scratch plus the frames in flight.
//!
//! Protocol (single-line JSON):
//! * stdin, first line: `{"scenario": <ScenarioConfig>}`,
//! * stdout: `{"event":"ready","port":N,"simd":…,"target_features":{…}}`
//!   once listening ([`agent::ready_line`]),
//! * TCP, per request: `{"id":n,"stream":i,"seed":k}` →
//!   `{"id":n,"status":"ok"|"expired"|"panicked"|"error","sum":…}` — the
//!   frame is synthesized server-side from the scenario seed, the stream
//!   and slot `seed % FRAME_POOL` when the request arrives, so the socket
//!   carries only routing metadata and the measurement isolates the
//!   serving datapath,
//! * stdin `shutdown` (or EOF): stdout
//!   `{"event":"stats","rss_kb":…,"router":<RouterStatsWire>}`, exit.

use bench::agent;
use bench::harness::{max_rss_kb, ScenarioConfig};
use runtime::json::Json;
use serve::RouterStatsWire;
use std::io::BufRead;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    agent::install_chaos_panic_hook();

    let stdin = std::io::stdin();
    let mut first_line = String::new();
    if stdin.lock().read_line(&mut first_line).is_err() || first_line.trim().is_empty() {
        agent::protocol_error("expected a scenario config line on stdin");
    }
    let config = Json::parse(first_line.trim())
        .map_err(|e| e.to_string())
        .and_then(|v| {
            ScenarioConfig::from_json(
                v.get("scenario").ok_or("config line without `scenario`".to_string())?,
            )
        })
        .unwrap_or_else(|e| agent::protocol_error(&format!("bad scenario config: {e}")));

    let streams = agent::Streams::new(&config);
    let router = agent::build_router(&config)
        .unwrap_or_else(|e| agent::protocol_error(&e));
    let router = Arc::new(router);

    // Warm the streams active from t=0 (engine spawn + plan build) so the
    // measured window starts from a hot server. Streams whose activity
    // window opens later spin up under traffic — that spin-up is exactly
    // what the churn scenario measures.
    let warm_now = (0..config.streams.len()).filter(|&i| config.streams[i].is_active_at(0));
    if let Err(e) = streams.warm(&router, warm_now) {
        agent::protocol_error(&e);
    }

    let listener = TcpListener::bind("127.0.0.1:0")
        .unwrap_or_else(|e| agent::protocol_error(&format!("binding loopback listener: {e}")));
    let port = listener.local_addr().expect("local addr").port();
    println!("{}", agent::ready_line(port).to_string_compact());

    let streams = Arc::new(streams);
    let deadline = config.deadline_ms.map(Duration::from_millis);
    let shed_on_full = config.shed_on_full;
    let stats_router = Arc::clone(&router);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            stream.set_nodelay(true).ok();
            let router = Arc::clone(&router);
            let streams = Arc::clone(&streams);
            std::thread::spawn(move || {
                agent::serve_connection(stream, router, streams, deadline, None, shed_on_full)
            });
        }
    });

    // Block until the harness asks for the final snapshot. Load agents
    // have drained and disconnected by then, so `stats()` sees the whole
    // scenario. Exiting main tears down the accept loop and workers.
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let stats = RouterStatsWire::from_stats(&stats_router.stats());
    let line = Json::obj([
        ("event", Json::str("stats")),
        ("rss_kb", max_rss_kb().map_or(Json::Null, |r| Json::num(r as f64))),
        ("router", stats.to_json()),
    ]);
    println!("{}", line.to_string_compact());
}
