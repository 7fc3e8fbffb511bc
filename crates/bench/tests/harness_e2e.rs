//! End-to-end harness smoke tests: spawn real `serve_agent`/`load_agent`
//! OS processes through `run_scenario`, and drive the `bench_compare`
//! binary's exit code with a perturbed run — the acceptance checks of the
//! scenario-benchmark subsystem, run at debug scale.

use bench::compare::{baseline_from_summaries, compare, Tolerances};
use bench::harness::{
    agent_bin_path, run_scenario, summary_json, summary_metrics, LoadModel, Profile,
    ScenarioConfig, StreamLoad, SCHEMA_VERSION,
};
use bench::agent::FRAME_POOL;
use runtime::json::Json;
use runtime::simd;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// A scenario small enough for a debug-build test (two streams, deadline,
/// two agents → three OS processes) yet exercising the whole protocol.
fn tiny_scenario() -> ScenarioConfig {
    let mut config = ScenarioConfig::named("e2e_smoke");
    config.channels = 8;
    config.grid_rows = 8;
    config.grid_cols = 4;
    config.num_samples = 64;
    config.streams = vec![StreamLoad::new("das-planned"), StreamLoad::new("das")];
    config.load = LoadModel::ClosedLoop { inflight: 2 };
    config.duration_ms = 500;
    config.warmup_ms = 100;
    config.deadline_ms = Some(2_000);
    config.agents = 2;
    config.seed = 7;
    config
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_e2e_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn scenario_spawns_processes_and_emits_a_stable_summary() {
    let config = tiny_scenario();
    let outcome = run_scenario(&config, Profile::Fast).expect("scenario runs");

    // Two load agents reported, requests flowed on both, nothing vanished.
    assert_eq!(outcome.agent_summaries.len(), 2);
    assert!(outcome.ok > 0, "no successful requests measured");
    assert_eq!(outcome.lost, 0, "requests were lost");
    assert_eq!(
        outcome.measured,
        outcome.ok + outcome.expired + outcome.panicked + outcome.errors
    );
    // The merged histogram is the lossless sum of the agents' histograms.
    assert_eq!(
        outcome.latency.count(),
        outcome.agent_summaries.iter().map(|s| s.latency.count()).sum::<u64>()
    );
    assert_eq!(outcome.latency.count(), outcome.ok);
    // The server saw both streams and reported its own counters + RSS.
    assert_eq!(outcome.router.engines.len(), 2);
    assert!(outcome.router.server.completed > 0);
    if cfg!(target_os = "linux") {
        assert!(outcome.server_rss_kb.unwrap_or(0) > 0, "server RSS probe failed");
        assert!(outcome.load_agent_rss_kb.unwrap_or(0) > 0, "agent RSS probe failed");
    }

    // summary.json carries the stable schema and the full gate vocabulary.
    let summary = summary_json(&outcome);
    assert_eq!(summary.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    assert_eq!(summary.get("scenario").and_then(Json::as_str), Some("e2e_smoke"));
    assert_eq!(
        summary.get("processes").and_then(|p| p.get("load_agents")).and_then(Json::as_u64),
        Some(2)
    );
    let reparsed = Json::parse(&summary.to_string_pretty()).expect("summary round-trips");
    assert_eq!(reparsed, summary);
    let metric_names: Vec<String> = summary_metrics(&summary).into_iter().map(|(n, _)| n).collect();
    for name in ["p50_us", "p99_us", "throughput_rps", "success_rate", "expired", "panicked", "lost"] {
        assert!(metric_names.iter().any(|m| m == name), "metric {name} missing");
    }

    // An identical-by-construction run compares clean against itself.
    let baseline = baseline_from_summaries("fast", std::slice::from_ref(&summary)).expect("baseline");
    let report = compare(&baseline, &[summary], &Tolerances::default()).expect("compare");
    assert!(!report.regressed(), "self-comparison regressed:\n{}", report.render());
}

/// Spawns `serve_agent` on `config`. Its stdout lines arrive on the
/// receiver; every line is read, so the agent's final stats line never
/// meets a closed pipe.
fn spawn_serve_agent(config: &ScenarioConfig) -> (Child, ChildStdin, Receiver<std::io::Result<String>>) {
    let bin = agent_bin_path("serve_agent").expect("serve_agent is built");
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve_agent spawns");
    let mut stdin = child.stdin.take().unwrap();
    let config_line = Json::obj([("scenario", config.to_json())]).to_string_compact();
    writeln!(stdin, "{config_line}").unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, stdin, rx)
}

/// The `ready` line names the SIMD tier the agent's kernels run under and
/// the target features its build has, so a build without `target-cpu=native`
/// shows from outside the process.
#[test]
fn serve_agent_reports_its_simd_tier_and_target_features_when_ready() {
    let (mut child, mut stdin, rx) = spawn_serve_agent(&tiny_scenario());
    let line = rx.recv_timeout(Duration::from_secs(60)).expect("a ready line within 60 s").unwrap();
    writeln!(stdin, "shutdown").unwrap();
    assert!(child.wait().unwrap().success(), "serve_agent failed after {line}");

    let ready = Json::parse(line.trim()).expect("the ready line is JSON");
    assert_eq!(ready.get("event").and_then(Json::as_str), Some("ready"), "{line}");
    assert!(ready.get("port").and_then(Json::as_u64).is_some_and(|p| p > 0), "{line}");
    assert_eq!(ready.get("simd").and_then(Json::as_str), Some(simd::mode().label()), "{line}");
    let features = ready.get("target_features").expect("target_features");
    for (name, on) in simd::TARGET_FEATURES {
        assert_eq!(features.get(name).and_then(Json::as_bool), Some(on), "{name} in {line}");
    }
}

/// The agent holds no frames between requests. This scenario's frame pools
/// would take 128 MiB (4 streams × 32 frames × 128 channels × 2048 samples
/// × 4 B); served every distinct frame of every stream, the agent peaks
/// below 64 MiB.
#[test]
fn serve_agent_peak_rss_holds_no_frame_pool() {
    let mut config = ScenarioConfig::named("e2e_no_pool");
    config.channels = 128;
    config.num_samples = 2048;
    config.grid_rows = 8;
    config.grid_cols = 4;
    config.streams = vec![StreamLoad::new("das-planned"); 4];
    let (mut child, mut stdin, rx) = spawn_serve_agent(&config);
    let next_line = || {
        let line = rx.recv_timeout(Duration::from_secs(60)).expect("an agent line within 60 s").unwrap();
        Json::parse(line.trim()).expect("agent lines are JSON")
    };
    let ready = next_line();
    let port = ready.get("port").and_then(Json::as_u64).expect("ready line with a port") as u16;

    // One request at a time, so at most one frame is ever in flight.
    let mut client = TcpStream::connect(("127.0.0.1", port)).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut replies = BufReader::new(client.try_clone().unwrap());
    for seed in 0..FRAME_POOL {
        for stream in 0..config.streams.len() {
            let request = format!("{{\"id\":{seed},\"stream\":{stream},\"seed\":{seed}}}\n");
            client.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            replies.read_line(&mut line).unwrap();
            let reply = Json::parse(line.trim()).unwrap();
            assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{line}");
        }
    }
    drop((client, replies));

    writeln!(stdin, "shutdown").unwrap();
    let stats = next_line();
    assert!(child.wait().unwrap().success(), "serve_agent failed");
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    if cfg!(target_os = "linux") {
        let rss_kb = stats.get("rss_kb").and_then(Json::as_u64).expect("stats line with rss_kb");
        assert!(rss_kb < 64 * 1024, "serve_agent peaked at {rss_kb} kB: it holds frames between requests");
    }
}

/// Mid-run churn: a second stream joins partway through the window (engine
/// spin-up under live traffic) and leaves again; the idle TTL then evicts
/// its engine while the anchor stream keeps serving.
#[test]
fn stream_churn_spins_up_and_evicts_under_traffic() {
    let mut config = tiny_scenario();
    config.name = "e2e_churn".into();
    config.agents = 1;
    config.streams = vec![
        StreamLoad::new("das-planned"),
        StreamLoad { active_from_ms: Some(250), active_until_ms: Some(450), ..StreamLoad::new("das") },
    ];
    config.duration_ms = 800;
    config.warmup_ms = 100;
    config.engine_ttl_ms = Some(100);
    let outcome = run_scenario(&config, Profile::Fast).expect("churn scenario runs");

    assert_eq!(outcome.lost, 0, "churn lost requests");
    assert!(outcome.ok > 0);
    // The churning stream was actually served (its frame checksums were
    // collected) and its idle engine was evicted before shutdown.
    assert!(
        outcome.checks.keys().any(|k| k.starts_with("1:")),
        "windowed stream never served: {:?}",
        outcome.checks.keys().collect::<Vec<_>>()
    );
    assert!(
        outcome.router.resilience.engines_evicted >= 1,
        "idle TTL never evicted the churned engine"
    );
}

/// Fan-in overload: four agents hammer one stream key into a tiny
/// submission queue with `shed_on_full`. The backpressure contract: the
/// overflow surfaces as typed `status:"shed"` refusals (the `errors`
/// bucket) with zero lost requests — never as reader threads hanging on a
/// blocking submit.
#[test]
fn stream_fanin_sheds_typed_errors_instead_of_hanging() {
    let mut config =
        bench::scenarios::scenario("stream_fanin", Profile::Fast).expect("catalogue scenario");
    // Debug-scale geometry; the chaos-pinned 2 ms service time (not
    // beamforming cost) stays the capacity limit.
    config.channels = 8;
    config.grid_rows = 8;
    config.grid_cols = 4;
    config.num_samples = 64;
    config.duration_ms = 700;
    config.warmup_ms = 150;
    let outcome = run_scenario(&config, Profile::Fast).expect("fan-in scenario runs");

    // Every request resolved, and resolved *typed*: ok, expired, or shed.
    assert_eq!(outcome.lost, 0, "fan-in lost requests");
    assert_eq!(
        outcome.measured,
        outcome.ok + outcome.expired + outcome.panicked + outcome.errors
    );
    assert_eq!(outcome.panicked, 0, "no panics are injected in this scenario");
    // The tiny queue demonstrably overflowed (typed sheds in the errors
    // bucket) while accepted traffic kept being served.
    assert!(
        outcome.errors > 0,
        "offered load never overflowed the {}-slot queue into sheds",
        config.queue_capacity.unwrap()
    );
    assert!(outcome.ok > 0, "shedding must not starve accepted requests");
    // All four agents got answers — none was left hanging on backpressure.
    assert_eq!(outcome.agent_summaries.len(), 4);
    for agent in &outcome.agent_summaries {
        assert!(agent.measured > 0, "agent {} saw no measured traffic", agent.agent);
    }
}

#[test]
fn invalid_configs_never_reach_the_process_spawn() {
    let mut config = tiny_scenario();
    config.duration_ms = 0;
    let err = run_scenario(&config, Profile::Fast).unwrap_err();
    assert!(err.contains("duration"), "unexpected error: {err}");
}

/// The gate demonstrably fails: a run identical to the baseline except for
/// one perturbed metric makes the `bench_compare` *binary* exit non-zero.
#[test]
fn bench_compare_binary_exits_nonzero_on_a_perturbed_run() {
    let bench_compare = agent_bin_path("bench_compare").expect("bench_compare binary");
    let dir = scratch_dir("compare");
    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).expect("run dir");

    // A hand-built summary: only the gate vocabulary matters here.
    let summary = Json::obj([
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("scenario", Json::str("gated")),
        ("profile", Json::str("fast")),
        (
            "latency_us",
            Json::obj([
                ("p50", Json::num(1024.0)),
                ("p99", Json::num(2048.0)),
                ("mean", Json::num(1200.0)),
            ]),
        ),
        ("throughput_rps", Json::num(500.0)),
        ("success_rate", Json::num(1.0)),
        (
            "requests",
            Json::obj([
                ("expired", Json::num(0.0)),
                ("panicked", Json::num(0.0)),
                ("lost", Json::num(0.0)),
            ]),
        ),
        ("rss_kb", Json::obj([("server_max", Json::num(10_000.0))])),
    ]);
    std::fs::write(run_dir.join("gated.summary.json"), summary.to_string_pretty())
        .expect("write summary");

    let baseline_path = dir.join("baseline.json");
    let tolerance_path = dir.join("tolerances.json");
    std::fs::write(
        &tolerance_path,
        r#"{"defaults": {"p99_us": {"rel": 0.20}, "lost": {"abs": 0}}}"#,
    )
    .expect("write tolerances");

    // 1. Write the baseline from the run.
    let status = Command::new(&bench_compare)
        .args(["--baseline"])
        .arg(&baseline_path)
        .args(["--dir"])
        .arg(&run_dir)
        .arg("--write-baseline")
        .status()
        .expect("run bench_compare --write-baseline");
    assert!(status.success(), "--write-baseline failed");

    // 2. The unperturbed run passes (exit 0).
    let status = Command::new(&bench_compare)
        .args(["--baseline"])
        .arg(&baseline_path)
        .args(["--dir"])
        .arg(&run_dir)
        .args(["--tolerance-file"])
        .arg(&tolerance_path)
        .status()
        .expect("run bench_compare");
    assert!(status.success(), "identical run must pass the gate");

    // 3. Perturb p99 by 4× (tolerance allows 1.2×) → exit code 1.
    let text = std::fs::read_to_string(run_dir.join("gated.summary.json")).unwrap();
    std::fs::write(
        run_dir.join("gated.summary.json"),
        text.replace("\"p99\": 2048", "\"p99\": 8192"),
    )
    .expect("perturb summary");
    let output = Command::new(&bench_compare)
        .args(["--baseline"])
        .arg(&baseline_path)
        .args(["--dir"])
        .arg(&run_dir)
        .args(["--tolerance-file"])
        .arg(&tolerance_path)
        .output()
        .expect("run bench_compare on perturbed run");
    assert_eq!(output.status.code(), Some(1), "perturbed run must fail the gate");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("REGRESSED"), "report must flag the regression:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
