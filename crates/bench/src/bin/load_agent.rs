//! Scenario load-generator process: offers traffic to a `serve_agent` (or,
//! in sharded scenarios, to the registry-coordinated shard fleet through a
//! [`shard::ShardClient`]) and measures client-side latency.
//!
//! Spawned by `bench::harness::run_scenario`, one or more per scenario.
//! Latency is measured here — wall-clock from writing the request to
//! reading its response — so it includes the socket, queueing, batching
//! and compute exactly as a scanner-side client would see them, not just
//! the server's internal dispatch time.
//!
//! Protocol (single-line JSON):
//! * stdin, first line: `{"scenario": <ScenarioConfig>, "agent_index": i,
//!   …}` plus either `"port": p` (direct mode — dial the serve_agent) or
//!   `"registry_port": p` (sharded mode — discover shards via the
//!   registry),
//! * stdout, at exit: the [`bench::harness::AgentSummary`] line
//!   (`{"event":"summary", …}`) with warmup-excluded counters, the merged
//!   latency histogram, tail-window recovery counters, the per-frame
//!   response checksums, and this process's max RSS.
//!
//! Two offered-load models ([`bench::harness::LoadModel`]): closed-loop
//! pipelining with a fixed in-flight budget (a permit returns with each
//! response), and open-loop seeded Poisson arrivals
//! ([`runtime::poisson::PoissonArrivals`]) that keep offering whatever the
//! server does — the model that can expose queueing collapse. Sharded
//! scenarios are closed-loop only (enforced by scenario validation): each
//! of `inflight` worker threads drives one retrying call at a time.
//!
//! Direct mode is hardened against a wedged or vanished server: the
//! initial connect retries with jittered exponential backoff, both socket
//! directions carry timeouts, and the response reader tolerates timeouts
//! instead of blocking forever — a dead server costs the drain grace, not
//! a hang.

use bench::agent::FRAME_POOL;
use bench::harness::{max_rss_kb, AgentSummary, LoadModel, ScenarioConfig, StreamLoad};
use runtime::backoff::Backoff;
use runtime::json::Json;
use serve::LatencyHistogram;
use shard::{ShardClient, ShardClientConfig, ShardError};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the agent waits after the offered window for stragglers before
/// declaring the remainder lost.
const DRAIN_GRACE: Duration = Duration::from_secs(20);

/// Connect attempts against the serve_agent before giving up (the server
/// may still be binding when the harness spawns both sides).
const CONNECT_ATTEMPTS: u32 = 8;

/// Socket read/write budget in direct mode; a healthy loopback peer
/// answers in microseconds, so tripping this means the server is gone.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

fn protocol_error(detail: &str) -> ! {
    let line = Json::obj([("event", Json::str("error")), ("detail", Json::str(detail))]);
    println!("{}", line.to_string_compact());
    std::process::exit(1);
}

/// Outcome counters a response thread accumulates.
#[derive(Default)]
struct Tally {
    ok: u64,
    expired: u64,
    panicked: u64,
    errors: u64,
    tail_measured: u64,
    tail_ok: u64,
    latency: LatencyHistogram,
    checks: BTreeMap<String, String>,
}

impl Tally {
    /// Folds one resolved measured request into the counters.
    fn record(&mut self, status: &str, sent_at: Instant, tail: bool, check: Option<(String, &str)>) {
        match status {
            "ok" => {
                self.ok += 1;
                self.latency.record(sent_at.elapsed());
            }
            "expired" => self.expired += 1,
            "panicked" => self.panicked += 1,
            _ => self.errors += 1,
        }
        if tail {
            self.tail_measured += 1;
            if status == "ok" {
                self.tail_ok += 1;
            }
        }
        if let Some((key, sum)) = check {
            self.checks
                .entry(key)
                .and_modify(|seen| {
                    if seen != sum {
                        *seen = "!conflict".to_string();
                    }
                })
                .or_insert_with(|| sum.to_string());
        }
    }
}

/// The scenario's fixed request-shaping state, shared by both modes.
struct Shaper {
    scenario: ScenarioConfig,
    /// Deterministic weighted stream cycle: weights `[2,1]` → `[0,0,1]`
    /// repeated, so the offered mix matches the weights exactly, not just
    /// in expectation.
    cycle: Vec<usize>,
    started: Instant,
    warmup_cutoff: Instant,
    /// Start of the tail window: the final quarter of the measured span.
    /// Failover scenarios place the shard kill well before it, so the
    /// tail success rate probes post-recovery health.
    tail_cutoff: Instant,
    offered_until: Instant,
    agent_index: usize,
}

impl Shaper {
    fn new(scenario: ScenarioConfig, agent_index: usize) -> Self {
        let cycle: Vec<usize> = scenario
            .streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i, s.weight as usize))
            .collect();
        let started = Instant::now();
        let measured_span = scenario.duration_ms.saturating_sub(scenario.warmup_ms);
        Self {
            cycle,
            started,
            warmup_cutoff: started + Duration::from_millis(scenario.warmup_ms),
            tail_cutoff: started
                + Duration::from_millis(scenario.warmup_ms + 3 * measured_span / 4),
            offered_until: started + Duration::from_millis(scenario.duration_ms),
            agent_index,
            scenario,
        }
    }

    /// The stream a request with ordinal `n` at instant `now` targets:
    /// walk the weighted cycle from `n`, skipping streams outside their
    /// activity window (validation guarantees an always-active stream, so
    /// this terminates).
    fn pick_stream(&self, n: u64, now: Instant) -> usize {
        let offset_ms = now.duration_since(self.started).as_millis() as u64;
        let len = self.cycle.len();
        for step in 0..len {
            let idx = self.cycle[(n as usize + step) % len];
            let stream: &StreamLoad = &self.scenario.streams[idx];
            if stream.is_active_at(offset_ms) {
                return idx;
            }
        }
        self.cycle[(n as usize) % len]
    }

    /// The wire seed for request `id`: mix, then keep 32 bits — JSON
    /// numbers are f64, exact only below 2^53, and the server only uses
    /// the seed to pick the frame slot it synthesizes.
    fn wire_seed(&self, id: u64) -> u64 {
        (self.scenario.seed ^ ((self.agent_index as u64) << 48) ^ id)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 32
    }
}

fn main() {
    let stdin = std::io::stdin();
    let mut first_line = String::new();
    if stdin.lock().read_line(&mut first_line).is_err() || first_line.trim().is_empty() {
        protocol_error("expected a config line on stdin");
    }
    let config_value = Json::parse(first_line.trim())
        .unwrap_or_else(|e| protocol_error(&format!("bad config line: {e}")));
    let scenario = config_value
        .get("scenario")
        .ok_or("missing `scenario`".to_string())
        .and_then(ScenarioConfig::from_json)
        .unwrap_or_else(|e| protocol_error(&format!("bad scenario: {e}")));
    let agent_index = config_value
        .get("agent_index")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| protocol_error("missing `agent_index`"));

    let shaper = Shaper::new(scenario, agent_index);
    let summary = match config_value.get("registry_port").and_then(Json::as_u64) {
        Some(registry_port) => run_sharded(&shaper, registry_port as u16),
        None => {
            let port = config_value
                .get("port")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| protocol_error("missing `port` (or `registry_port`)"))
                as u16;
            run_direct(&shaper, port)
        }
    };
    println!("{}", summary.to_json().to_string_compact());
}

/// Direct mode: one hardened loopback connection to the serve_agent.
fn run_direct(shaper: &Shaper, port: u16) -> AgentSummary {
    let scenario = &shaper.scenario;

    // Bounded connect retry: the server process may still be binding.
    let mut backoff = Backoff::new(
        Duration::from_millis(20),
        Duration::from_millis(500),
        scenario.seed ^ ((shaper.agent_index as u64 + 1) << 56),
    );
    let mut sock = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => {
                sock = Some(stream);
                break;
            }
            Err(e) if attempt + 1 == CONNECT_ATTEMPTS => {
                protocol_error(&format!("connecting to serve_agent: {e}"))
            }
            Err(_) => {}
        }
    }
    let sock = sock.expect("connect loop either sets the socket or exits");
    sock.set_nodelay(true).ok();
    // Satellite hardening: a silent server trips a socket timeout instead
    // of pinning this agent forever.
    sock.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
    sock.set_write_timeout(Some(SOCKET_TIMEOUT)).ok();
    let reader = BufReader::new(sock.try_clone().expect("clone connection"));
    let mut writer = BufWriter::new(sock.try_clone().expect("clone connection"));

    // id → (send instant, measured?, tail?, stream, pool slot). The
    // response thread removes entries; whatever survives the drain grace
    // is lost.
    type Pending = (Instant, bool, bool, usize, u64);
    let outstanding: Arc<Mutex<HashMap<u64, Pending>>> = Arc::default();
    let tally: Arc<Mutex<Tally>> = Arc::default();
    let done_sending = Arc::new(AtomicBool::new(false));

    // Closed-loop permits: prefilled with the in-flight budget, one permit
    // returned per response. Open loop sends on the Poisson schedule and
    // ignores permits.
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let mut arrivals = match &scenario.load {
        LoadModel::ClosedLoop { inflight } => {
            for _ in 0..*inflight {
                permit_tx.send(()).expect("prefill permits");
            }
            None
        }
        LoadModel::OpenLoopPoisson { rate_hz } => Some(
            runtime::poisson::PoissonArrivals::new(
                *rate_hz,
                scenario.seed ^ ((shaper.agent_index as u64 + 1) << 40),
            )
            .unwrap_or_else(|e| protocol_error(&format!("bad Poisson rate: {e}"))),
        ),
    };

    let response_thread = {
        let outstanding = Arc::clone(&outstanding);
        let tally = Arc::clone(&tally);
        let done_sending = Arc::clone(&done_sending);
        let permit_tx = permit_tx.clone();
        let mut reader = reader;
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                // Timeout-tolerant read: a socket timeout only ends the
                // loop once sending has stopped and nothing is owed.
                let read = loop {
                    match reader.read_line(&mut line) {
                        Ok(0) => break false,
                        Ok(_) if line.ends_with('\n') => break true,
                        Ok(_) => {} // partial line; keep reading
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            if done_sending.load(Ordering::Acquire)
                                && outstanding.lock().expect("outstanding map").is_empty()
                            {
                                break false;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break false,
                    }
                };
                if !read {
                    break;
                }
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let Ok(response) = Json::parse(trimmed) else { break };
                let (Some(id), Some(status)) = (
                    response.get("id").and_then(Json::as_u64),
                    response.get("status").and_then(Json::as_str),
                ) else {
                    break;
                };
                let entry = outstanding.lock().expect("outstanding map").remove(&id);
                let Some((sent_at, measured, tail, stream_idx, slot)) = entry else { continue };
                let _ = permit_tx.send(());
                if measured {
                    let check = response
                        .get("sum")
                        .and_then(Json::as_str)
                        .map(|sum| (format!("{stream_idx}:{slot}"), sum));
                    tally.lock().expect("tally").record(status, sent_at, tail, check);
                }
                // Once sending has stopped, exit as soon as the map drains
                // so the agent does not sit out the full grace window.
                if done_sending.load(Ordering::Acquire)
                    && outstanding.lock().expect("outstanding map").is_empty()
                {
                    break;
                }
            }
        })
    };

    // Offer window: send requests until `offered_until`.
    let mut sent: u64 = 0;
    let mut measured_sent: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= shaper.offered_until {
            break;
        }
        match &mut arrivals {
            None => {
                // Closed loop: block for a permit, but wake up at the
                // window's end even if the server has stalled.
                let budget = shaper.offered_until.saturating_duration_since(Instant::now());
                match permit_rx.recv_timeout(budget) {
                    Ok(()) => {}
                    Err(mpsc::RecvTimeoutError::Timeout) => break,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            Some(poisson) => {
                // Open loop: sleep to the next arrival regardless of
                // responses.
                std::thread::sleep(poisson.next_gap());
            }
        }
        let now = Instant::now();
        if now >= shaper.offered_until {
            break;
        }
        let id = sent;
        let stream_idx = shaper.pick_stream(id, now);
        let seed = shaper.wire_seed(id);
        let measured = now >= shaper.warmup_cutoff;
        let tail = now >= shaper.tail_cutoff;
        let slot = seed % FRAME_POOL as u64;
        outstanding
            .lock()
            .expect("outstanding map")
            .insert(id, (now, measured, tail, stream_idx, slot));
        let line = Json::obj([
            ("id", Json::num(id as f64)),
            ("stream", Json::num(stream_idx as f64)),
            ("seed", Json::num(seed as f64)),
        ])
        .to_string_compact();
        if writeln!(writer, "{line}").and_then(|_| writer.flush()).is_err() {
            outstanding.lock().expect("outstanding map").remove(&id);
            break;
        }
        sent += 1;
        if measured {
            measured_sent += 1;
        }
    }
    done_sending.store(true, Ordering::Release);

    // Drain: give in-flight requests a grace window, then count leftovers
    // as lost. Shutting the socket down (not just dropping a clone — the
    // reader holds another) forces EOF on the response thread, which may be
    // blocked in `read_line` if the last response landed before
    // `done_sending` was set.
    let drain_deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < drain_deadline {
        if outstanding.lock().expect("outstanding map").is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(writer);
    let _ = sock.shutdown(std::net::Shutdown::Both);
    let _ = response_thread.join();

    let leftovers = outstanding.lock().expect("outstanding map");
    let lost = leftovers.len() as u64;
    let lost_measured =
        leftovers.values().filter(|(_, measured, ..)| *measured).count() as u64;
    drop(leftovers);

    let tally = std::mem::take(&mut *tally.lock().expect("tally"));
    AgentSummary {
        agent: shaper.agent_index,
        sent,
        // Measured = post-warmup requests with a known outcome; the lost
        // remainder is reported separately (and must be 0 in a healthy run).
        measured: measured_sent - lost_measured,
        ok: tally.ok,
        expired: tally.expired,
        panicked: tally.panicked,
        errors: tally.errors,
        lost,
        retries: 0,
        failovers: 0,
        tail_measured: tally.tail_measured,
        tail_ok: tally.tail_ok,
        checks: tally.checks,
        latency: tally.latency,
        rss_kb: max_rss_kb(),
        elapsed_s: shaper.started.elapsed().as_secs_f64(),
    }
}

/// Sharded mode: `inflight` worker threads drive retrying, failover-aware
/// calls through one shared [`ShardClient`]. Every call resolves — as a
/// response, a typed shed, or a typed timeout — so `lost` is 0 by
/// construction; losing a request would mean the client hung, which its
/// deadlines forbid.
fn run_sharded(shaper: &Shaper, registry_port: u16) -> AgentSummary {
    let scenario = &shaper.scenario;
    let LoadModel::ClosedLoop { inflight } = scenario.load else {
        protocol_error("sharded scenarios are closed-loop only");
    };
    let deadline_ms = scenario
        .deadline_ms
        .unwrap_or_else(|| protocol_error("sharded scenarios need a deadline"));
    let deadline = Duration::from_millis(deadline_ms);

    let client = Arc::new(ShardClient::new(ShardClientConfig {
        registry_addr: format!("127.0.0.1:{registry_port}"),
        deadline,
        // Several attempts must fit inside one deadline: an attempt that
        // hits a dead shard burns its request_timeout, and failover only
        // happens on the next attempt's re-resolve.
        request_timeout: (deadline / 4).max(Duration::from_millis(25)),
        max_attempts: 32,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        window: inflight * 4,
        seed: scenario.seed ^ ((shaper.agent_index as u64 + 1) << 40),
        routing_ttl: Duration::from_millis(scenario.heartbeat_ms.clamp(10, 50)),
    }));

    let tally: Arc<Mutex<Tally>> = Arc::default();
    let ordinal = Arc::new(AtomicU64::new(0));
    let measured_sent = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..inflight)
        .map(|_| {
            let client = Arc::clone(&client);
            let tally = Arc::clone(&tally);
            let ordinal = Arc::clone(&ordinal);
            let measured_sent = Arc::clone(&measured_sent);
            let shaper_streams = scenario.streams.clone();
            let warmup_cutoff = shaper.warmup_cutoff;
            let tail_cutoff = shaper.tail_cutoff;
            let offered_until = shaper.offered_until;
            let started = shaper.started;
            let cycle = shaper.cycle.clone();
            let scenario_seed = scenario.seed;
            let agent_index = shaper.agent_index;
            std::thread::spawn(move || loop {
                let now = Instant::now();
                if now >= offered_until {
                    break;
                }
                let id = ordinal.fetch_add(1, Ordering::Relaxed);
                let offset_ms = now.duration_since(started).as_millis() as u64;
                let mut stream_idx = cycle[(id as usize) % cycle.len()];
                for step in 0..cycle.len() {
                    let idx = cycle[(id as usize + step) % cycle.len()];
                    if shaper_streams[idx].is_active_at(offset_ms) {
                        stream_idx = idx;
                        break;
                    }
                }
                let seed = (scenario_seed ^ ((agent_index as u64) << 48) ^ id)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 32;
                let measured = now >= warmup_cutoff;
                let tail = now >= tail_cutoff;
                if measured {
                    measured_sent.fetch_add(1, Ordering::Relaxed);
                }
                let payload = Json::obj([
                    ("stream", Json::num(stream_idx as f64)),
                    ("seed", Json::num(seed as f64)),
                ]);
                let outcome = client.call(&stream_idx.to_string(), &payload);
                if !measured {
                    continue;
                }
                let slot = seed % FRAME_POOL as u64;
                let mut tally = tally.lock().expect("tally");
                match outcome {
                    Ok(outcome) => {
                        let status =
                            outcome.response.get("status").and_then(Json::as_str).unwrap_or("error");
                        let check = outcome
                            .response
                            .get("sum")
                            .and_then(Json::as_str)
                            .map(|sum| (format!("{stream_idx}:{slot}"), sum));
                        tally.record(status, now, tail, check);
                    }
                    // A call that exhausted its deadline is the sharded
                    // analogue of a server-side deadline expiry.
                    Err(ShardError::Timeout(_)) => tally.record("expired", now, tail, None),
                    // Sheds and connection/registry failures are typed
                    // errors — counted, never lost.
                    Err(_) => tally.record("error", now, tail, None),
                }
            })
        })
        .collect();
    for worker in workers {
        let _ = worker.join();
    }

    let stats = client.stats();
    let tally = std::mem::take(&mut *tally.lock().expect("tally"));
    AgentSummary {
        agent: shaper.agent_index,
        sent: ordinal.load(Ordering::Relaxed),
        measured: measured_sent.load(Ordering::Relaxed),
        ok: tally.ok,
        expired: tally.expired,
        panicked: tally.panicked,
        errors: tally.errors,
        lost: 0,
        retries: stats.retries,
        failovers: stats.failovers,
        tail_measured: tally.tail_measured,
        tail_ok: tally.tail_ok,
        checks: tally.checks,
        latency: tally.latency,
        rss_kb: max_rss_kb(),
        elapsed_s: shaper.started.elapsed().as_secs_f64(),
    }
}
