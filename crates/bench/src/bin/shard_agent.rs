//! One shard of the registry-coordinated serving topology.
//!
//! Hosts the same serving datapath as `serve_agent` ([`bench::agent`]) —
//! same specs, same seeded per-request frames, same router, no frames held
//! between requests — but additionally:
//!
//! * registers its stream keys with the shard registry and renews its
//!   heartbeat lease every `heartbeat_ms`,
//! * keeps a live [`bench::agent::ShardView`] of which keys the registry
//!   currently assigns to it, answering requests for unassigned keys with
//!   `status:"wrong_epoch"` so clients refresh their routing and fail
//!   over,
//! * warms **every** stream at startup, not just its assigned ones — when
//!   a sibling shard is killed and its keys reassigned here, failover
//!   traffic must land on a hot engine, not pay an engine spin-up inside
//!   the client's deadline.
//!
//! Protocol (single-line JSON):
//! * stdin, first line: `{"scenario": <ScenarioConfig>,
//!   "registry_port": p, "shard_index": s}`,
//! * stdout: `{"event":"ready","port":N,"simd":…,"target_features":{…}}`
//!   once registered and listening ([`agent::ready_line`]),
//! * stdin `shutdown` (or EOF): stdout
//!   `{"event":"stats","shard":s,"rss_kb":…,"router":…}`, exit.

use bench::agent::{self, ShardView};
use bench::harness::{max_rss_kb, ScenarioConfig};
use runtime::backoff::Backoff;
use runtime::json::Json;
use serve::RouterStatsWire;
use shard::client::RegistryConn;
use shard::ShardError;
use std::io::BufRead;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attempts to reach the registry at startup before giving up. The
/// harness spawns registry and shards concurrently, so the first
/// connects may race the registry's bind.
const STARTUP_ATTEMPTS: u32 = 10;

/// Per-exchange budget for register/renew calls.
const REGISTRY_CALL_BUDGET: Duration = Duration::from_millis(500);

/// Extracts `(epoch, assigned keys)` from a register/renew response.
fn lease_view(response: &Json) -> Result<(u64, Vec<String>), String> {
    let epoch = response
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or("lease response without `epoch`")?;
    let assigned = response
        .get("assigned")
        .and_then(Json::as_arr)
        .ok_or("lease response without `assigned`")?
        .iter()
        .map(|k| k.as_str().map(str::to_string).ok_or("non-string assigned key".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((epoch, assigned))
}

fn main() {
    agent::install_chaos_panic_hook();

    let stdin = std::io::stdin();
    let mut first_line = String::new();
    if stdin.lock().read_line(&mut first_line).is_err() || first_line.trim().is_empty() {
        agent::protocol_error("expected a config line on stdin");
    }
    let config_value = Json::parse(first_line.trim())
        .unwrap_or_else(|e| agent::protocol_error(&format!("bad config line: {e}")));
    let scenario = config_value
        .get("scenario")
        .ok_or("missing `scenario`".to_string())
        .and_then(ScenarioConfig::from_json)
        .unwrap_or_else(|e| agent::protocol_error(&format!("bad scenario: {e}")));
    let registry_port = config_value
        .get("registry_port")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| agent::protocol_error("missing `registry_port`")) as u16;
    let shard_index = config_value
        .get("shard_index")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| agent::protocol_error("missing `shard_index`"));

    let streams = agent::Streams::new(&scenario);
    let router =
        agent::build_router(&scenario).unwrap_or_else(|e| agent::protocol_error(&e));
    let router = Arc::new(router);

    // Warm everything: any key can be reassigned here the moment a sibling
    // dies, and failover latency must not include an engine spin-up.
    if let Err(e) = streams.warm(&router, 0..streams.specs.len()) {
        agent::protocol_error(&e);
    }

    let listener = TcpListener::bind("127.0.0.1:0")
        .unwrap_or_else(|e| agent::protocol_error(&format!("binding data listener: {e}")));
    let data_port = listener.local_addr().expect("local addr").port();

    let shard_name = format!("shard{shard_index}");
    let data_addr = format!("127.0.0.1:{data_port}");
    let registry_addr = format!("127.0.0.1:{registry_port}");
    let keys = Json::arr((0..streams.specs.len()).map(|i| Json::str(i.to_string())));
    let register_frame = Json::obj([
        ("op", Json::str("register")),
        ("shard", Json::str(shard_name.clone())),
        ("addr", Json::str(data_addr)),
        ("keys", keys),
    ]);

    // Register with bounded retry: the registry may still be binding.
    let mut registry = RegistryConn::new(registry_addr);
    let mut backoff =
        Backoff::new(Duration::from_millis(20), Duration::from_millis(500), scenario.seed);
    let view = ShardView::new();
    let mut registered = false;
    for attempt in 0..STARTUP_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match registry.call(&register_frame, Instant::now() + REGISTRY_CALL_BUDGET) {
            Ok(response) => {
                let (epoch, assigned) = lease_view(&response)
                    .unwrap_or_else(|e| agent::protocol_error(&format!("bad register reply: {e}")));
                view.update(epoch, assigned);
                registered = true;
                break;
            }
            Err(_) if attempt + 1 < STARTUP_ATTEMPTS => {}
            Err(e) => agent::protocol_error(&format!("registering with registry: {e}")),
        }
    }
    if !registered {
        agent::protocol_error("registering with registry: attempts exhausted");
    }

    println!("{}", agent::ready_line(data_port).to_string_compact());

    // Heartbeat loop: renew the lease every `heartbeat_ms`, fold the
    // registry's answer into the live view, and re-register from scratch
    // if the registry evicted us (a long stall, not a crash). Transient
    // registry errors just wait for the next beat — the lease survives
    // until `lease_ttl_ms` without a renewal.
    {
        let view = view.clone();
        let shard_name = shard_name.clone();
        let interval = Duration::from_millis(scenario.heartbeat_ms);
        std::thread::spawn(move || {
            let renew_frame =
                Json::obj([("op", Json::str("renew")), ("shard", Json::str(shard_name))]);
            loop {
                std::thread::sleep(interval);
                let deadline = Instant::now() + REGISTRY_CALL_BUDGET;
                let response = match registry.call(&renew_frame, deadline) {
                    Ok(response) => response,
                    Err(ShardError::Registry(why)) if why == "unknown_shard" => {
                        // Evicted: our keys may already live elsewhere.
                        // Re-register and accept whatever the fresh epoch
                        // assigns us.
                        match registry.call(&register_frame, deadline) {
                            Ok(response) => response,
                            Err(_) => continue,
                        }
                    }
                    Err(_) => continue,
                };
                if let Ok((epoch, assigned)) = lease_view(&response) {
                    view.update(epoch, assigned);
                }
            }
        });
    }

    let streams = Arc::new(streams);
    let deadline = scenario.deadline_ms.map(Duration::from_millis);
    let shed_on_full = scenario.shed_on_full;
    let stats_router = Arc::clone(&router);
    {
        let view = view.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                stream.set_nodelay(true).ok();
                let router = Arc::clone(&router);
                let streams = Arc::clone(&streams);
                let view = view.clone();
                std::thread::spawn(move || {
                    agent::serve_connection(stream, router, streams, deadline, Some(view), shed_on_full)
                });
            }
        });
    }

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
        ("shard", Json::num(shard_index as f64)),
        ("rss_kb", max_rss_kb().map_or(Json::Null, |r| Json::num(r as f64))),
        ("router", stats.to_json()),
    ]);
    println!("{}", line.to_string_compact());
}
