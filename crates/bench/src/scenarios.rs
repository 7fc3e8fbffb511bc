//! The named scenario catalogue — the bench trajectory as data.
//!
//! Each scenario ports one of the measurements the retired per-PR bench
//! binaries (`bench_pr2`–`bench_pr6`) made in-process into the process-spawning
//! harness, so the whole trajectory is re-runnable under one schema and
//! gated by `bench_compare`:
//!
//! | Scenario | Ports | Question it answers |
//! |---|---|---|
//! | `baseline_latency` | bench_pr2 | single-stream serve-path latency |
//! | `planned_vs_direct` | bench_pr3 | plan-cache reuse vs per-frame geometry |
//! | `router_fanout` | bench_pr4 | heterogeneous streams + deadline under fan-out |
//! | `quantized_sweep` | bench_pr5 | all six quantization schemes side by side |
//! | `simd_kernels` | bench_pr9 | float vs fx16 integer datapath under serve load |
//! | `poisson_openloop` | new | open-loop offered load (queueing, not capacity) |
//! | `chaos_availability` | bench_pr6 | success rate under injected faults + ladder |
//! | `stream_fanin` | new | many agents on one stream key: typed shedding, not backpressure hangs |
//! | `shard_chaos` | new | shard kill compounded with injected panics/latency |
//!
//! Both profiles describe the *same* scenarios; [`Profile::Fast`] shrinks
//! grids and durations to CI-smoke scale (~a second per scenario) while
//! [`Profile::Full`] is the measurement shape.

use crate::harness::{ChaosSpec, LoadModel, Profile, ScenarioConfig, StreamLoad};
use quantize::QuantScheme;

/// Names of every scenario in the catalogue, in run order.
pub fn scenario_names() -> Vec<&'static str> {
    vec![
        "baseline_latency",
        "planned_vs_direct",
        "router_fanout",
        "quantized_sweep",
        "simd_kernels",
        "poisson_openloop",
        "chaos_availability",
        "stream_churn",
        "shard_failover",
        "stream_fanin",
        "shard_chaos",
    ]
}

/// Builds the full catalogue for a profile. Every config is validated; a
/// construction bug here is a panic at build time, not a mid-run failure.
pub fn all_scenarios(profile: Profile) -> Vec<ScenarioConfig> {
    let configs: Vec<ScenarioConfig> =
        scenario_names().into_iter().map(|name| scenario(name, profile).expect("known name")).collect();
    for config in &configs {
        if let Err(e) = config.validate() {
            panic!("scenario `{}` is invalid: {e}", config.name);
        }
    }
    configs
}

/// Builds one named scenario for a profile; `None` for unknown names.
pub fn scenario(name: &str, profile: Profile) -> Option<ScenarioConfig> {
    let fast = profile == Profile::Fast;
    let mut config = ScenarioConfig::named(name);
    // Shared profile scaling: the fast profile must finish in about a
    // second per scenario; the full profile runs long enough for stable
    // percentiles on larger grids.
    if fast {
        config.channels = 32;
        config.grid_rows = 16;
        config.grid_cols = 8;
        config.num_samples = 256;
        config.duration_ms = 800;
        config.warmup_ms = 200;
    } else {
        config.channels = 64;
        config.grid_rows = 48;
        config.grid_cols = 24;
        config.num_samples = 1024;
        config.duration_ms = 6_000;
        config.warmup_ms = 1_000;
    }
    match name {
        "baseline_latency" => {
            // bench_pr2's question: what does one stream cost through the
            // full submit→batch→respond path, nothing else running?
            config.streams = vec![StreamLoad::new("das-planned")];
            config.load = LoadModel::ClosedLoop { inflight: 4 };
            config.seed = 0xB10E;
        }
        "planned_vs_direct" => {
            // bench_pr3's question: plan-cache reuse vs recomputing
            // geometry per frame. Same probe, same grid, two backends; the
            // per-engine latency split in `server.engines` carries the
            // comparison.
            config.streams = vec![StreamLoad::new("das"), StreamLoad::new("das-planned")];
            config.load = LoadModel::ClosedLoop { inflight: 4 };
            config.seed = 0x91A2;
        }
        "router_fanout" => {
            // bench_pr4's question: heterogeneous probe/grid streams
            // through one router under a dispatch deadline, offered by two
            // concurrent agent processes.
            let (small, large) = if fast { ((16, 8), (24, 16)) } else { ((32, 16), (64, 32)) };
            config.streams = vec![
                StreamLoad {
                    weight: 2,
                    channels: Some(if fast { 16 } else { 32 }),
                    grid: Some(small),
                    ..StreamLoad::new("das-planned")
                },
                StreamLoad { grid: Some(large), ..StreamLoad::new("das-planned") },
                StreamLoad::new("das"),
            ];
            config.load = LoadModel::ClosedLoop { inflight: 3 };
            config.agents = 2;
            config.deadline_ms = Some(if fast { 250 } else { 500 });
            config.max_batch = 6;
            config.seed = 0xFA40;
        }
        "quantized_sweep" => {
            // bench_pr5's question: the six quantization schemes of the
            // paper's Table III side by side, sharing one TOF plan cache.
            config.streams =
                QuantScheme::all().iter().map(|s| StreamLoad::new(s.backend_label())).collect();
            config.load = LoadModel::ClosedLoop { inflight: 6 };
            // Tiny-VBF inference is the heavy path: keep the full profile
            // on the fast-profile geometry and stretch only the duration.
            config.channels = 32;
            config.grid_rows = 16;
            config.grid_cols = 8;
            config.num_samples = 256;
            config.seed = 0x0A17;
        }
        "simd_kernels" => {
            // bench_pr9's question carried into the serving harness: with
            // the SIMD datapath under the hot loops, does the fx16 integer
            // rung actually undercut the float path end to end? Two
            // Tiny-VBF streams — float and fx16 — share one TOF plan cache;
            // the per-engine latency split carries the comparison, and the
            // gate tracks both rungs against the recorded baseline.
            config.streams =
                vec![StreamLoad::new("tiny-vbf-fp"), StreamLoad::new("tiny-vbf-fx16")];
            config.load = LoadModel::ClosedLoop { inflight: 6 };
            // Same reasoning as `quantized_sweep`: inference is the heavy
            // path, so the full profile stretches duration, not geometry.
            config.channels = 32;
            config.grid_rows = 16;
            config.grid_cols = 8;
            config.num_samples = 256;
            config.seed = 0x51D9;
        }
        "poisson_openloop" => {
            // New with the harness: open-loop offered load. A closed loop
            // self-throttles and can never show queueing collapse; seeded
            // Poisson arrivals keep offering at rate λ whatever the server
            // does, so deadline expiries become visible.
            config.streams = vec![StreamLoad::new("das-planned")];
            config.load = LoadModel::OpenLoopPoisson { rate_hz: if fast { 120.0 } else { 200.0 } };
            config.deadline_ms = Some(if fast { 100 } else { 200 });
            config.seed = 0x9015;
        }
        "chaos_availability" => {
            // bench_pr6's question: availability under injected faults,
            // with the degradation ladder allowed to shed to the healthy
            // backend. The chaos rung panics 1-in-16 and stalls on *every*
            // call; 8 pipelined requests against a small batch ceiling
            // saturate the deadline, so expiries accumulate until the
            // ladder downshifts to the clean planned-DAS rung and the
            // success rate recovers — the dynamic the gate then tracks.
            config.streams = vec![StreamLoad::new("chaos:das-planned")];
            config.chaos = Some(ChaosSpec {
                seed: 0xC405,
                panic_one_in: 16,
                delay_one_in: 1,
                delay_ms: if fast { 6 } else { 12 },
            });
            config.degrade_ladder = Some(vec!["chaos:das-planned".into(), "das-planned".into()]);
            config.deadline_ms = Some(if fast { 25 } else { 50 });
            config.load = LoadModel::ClosedLoop { inflight: 8 };
            config.max_batch = 2;
            config.seed = 0xC4A0;
        }
        "stream_churn" => {
            // Mid-run churn: the stream mix changes while the offered
            // window is live. A second stream joins partway through (engine
            // spin-up under traffic) and leaves again; the idle-engine TTL
            // then evicts its engine while the anchor stream keeps serving.
            // The gate watches the anchor's latency and the eviction
            // counter — churn must neither wedge the router nor leak
            // engines.
            let (from, until, ttl) = if fast { (350, 550, 120) } else { (2_500, 4_000, 800) };
            config.streams = vec![
                StreamLoad::new("das-planned"),
                StreamLoad {
                    active_from_ms: Some(from),
                    active_until_ms: Some(until),
                    ..StreamLoad::new("das")
                },
            ];
            config.engine_ttl_ms = Some(ttl);
            config.load = LoadModel::ClosedLoop { inflight: 4 };
            config.seed = 0x51C8;
        }
        "shard_failover" => {
            // The tentpole's acceptance scenario: two shard processes
            // behind the registry, one stream key assigned to each; the
            // harness SIGKILLs the second shard mid-window. Clients must
            // ride it out — retry/backoff through the blackout (at most
            // lease TTL + one sweep + one routing refresh), then fail over
            // to the survivor — with every request resolving and the tail
            // window (the final quarter of the measured span, well past
            // recovery) back to full success.
            config.streams = vec![StreamLoad::new("das-planned"), StreamLoad::new("das-planned")];
            config.shards = 2;
            config.lease_ttl_ms = 250;
            config.heartbeat_ms = 80;
            config.load = LoadModel::ClosedLoop { inflight: 4 };
            config.deadline_ms = Some(500);
            if fast {
                config.duration_ms = 1_600;
                config.kill_shard_at_ms = Some(700);
            } else {
                config.kill_shard_at_ms = Some(2_500);
            }
            config.seed = 0x5A8D;
        }
        "stream_fanin" => {
            // Fan-in overload: four agent processes all offering the *same*
            // stream key into a deliberately tiny submission queue. With
            // the blocking submit path, overload would surface as unbounded
            // socket backpressure (reader threads parked on a full queue);
            // `shed_on_full` turns it into `status:"shed"` — a typed,
            // gate-visible outcome (`errors`) — while accepted requests
            // keep bounded queueing delay. Chaos pins the per-call service
            // time so capacity, and therefore the overflow, is
            // machine-independent.
            config.streams = vec![StreamLoad::new("chaos:das-planned")];
            config.chaos =
                Some(ChaosSpec { seed: 0xFA11, panic_one_in: 0, delay_one_in: 1, delay_ms: 2 });
            config.agents = 4;
            config.load = LoadModel::OpenLoopPoisson { rate_hz: if fast { 300.0 } else { 250.0 } };
            config.queue_capacity = Some(8);
            config.shed_on_full = true;
            config.deadline_ms = Some(if fast { 100 } else { 200 });
            config.max_batch = 4;
            config.seed = 0xFA11;
        }
        "shard_chaos" => {
            // Compound fault: both shards serve chaos-wrapped engines
            // (seeded injected panics and latency) while the harness
            // SIGKILLs the second shard mid-window. The bar compounds the
            // failover scenario's: zero lost requests, panics surface as
            // typed outcomes, clients retry and fail over through the
            // blackout, and the tail window recovers to the chaos-limited
            // steady state.
            //
            // The panic rate is deliberately far below the engine's
            // consecutive-panic quarantine threshold (see the catalogue
            // test): this scenario measures fault *transparency* — typed
            // outcomes plus retry/failover riding through the kill — not
            // circuit-breaker storms, which would drown the tail in
            // `Quarantined` rejections a closed loop turns into a spin.
            config.streams =
                vec![StreamLoad::new("chaos:das-planned"), StreamLoad::new("chaos:das-planned")];
            config.chaos = Some(ChaosSpec {
                seed: 0xC0C5,
                panic_one_in: 100,
                delay_one_in: 2,
                delay_ms: if fast { 2 } else { 4 },
            });
            config.max_batch = 2;
            config.shards = 2;
            config.lease_ttl_ms = 250;
            config.heartbeat_ms = 80;
            config.load = LoadModel::ClosedLoop { inflight: 4 };
            config.deadline_ms = Some(500);
            if fast {
                config.duration_ms = 1_600;
                config.kill_shard_at_ms = Some(700);
            } else {
                config.kill_shard_at_ms = Some(2_500);
            }
            config.seed = 0xC0C5;
        }
        _ => return None,
    }
    Some(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_and_valid_in_both_profiles() {
        for profile in [Profile::Fast, Profile::Full] {
            let configs = all_scenarios(profile);
            assert_eq!(configs.len(), scenario_names().len());
            for config in &configs {
                config.validate().expect("catalogue scenario must validate");
            }
        }
        assert!(scenario("no_such_scenario", Profile::Fast).is_none());
    }

    #[test]
    fn catalogue_names_match_configs() {
        let configs = all_scenarios(Profile::Fast);
        let names: Vec<_> = configs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, scenario_names());
    }

    #[test]
    fn quantized_sweep_covers_every_scheme() {
        let config = scenario("quantized_sweep", Profile::Fast).unwrap();
        assert_eq!(config.streams.len(), QuantScheme::all().len());
        for scheme in QuantScheme::all() {
            assert!(config.streams.iter().any(|s| s.backend == scheme.backend_label()));
        }
    }

    #[test]
    fn churn_scenario_changes_the_mix_mid_window() {
        for profile in [Profile::Fast, Profile::Full] {
            let config = scenario("stream_churn", profile).unwrap();
            let churner = &config.streams[1];
            let from = churner.active_from_ms.expect("windowed stream");
            let until = churner.active_until_ms.expect("windowed stream");
            // The join and the leave must both land inside the offered
            // window, and the idle TTL must be able to evict before it ends
            // — otherwise the scenario no longer exercises churn.
            assert!(from > 0 && until < config.duration_ms);
            assert!(until + config.engine_ttl_ms.unwrap() < config.duration_ms);
            assert!(config.streams[0].is_active_at(0));
        }
    }

    #[test]
    fn failover_scenario_kills_inside_the_window_and_recovers_before_the_tail() {
        for profile in [Profile::Fast, Profile::Full] {
            let config = scenario("shard_failover", profile).unwrap();
            assert_eq!(config.shards, 2);
            let kill_at = config.kill_shard_at_ms.expect("kill point");
            // The blackout is bounded by lease TTL + sweep + routing
            // refresh; the tail window (final measured quarter) must start
            // after the kill plus that bound, or its success rate would
            // measure the outage instead of the recovery.
            let measured = config.duration_ms - config.warmup_ms;
            let tail_start = config.warmup_ms + 3 * measured / 4;
            let recovery_bound = config.lease_ttl_ms + config.lease_ttl_ms / 4 + 100;
            assert!(kill_at > config.warmup_ms);
            assert!(kill_at + recovery_bound < tail_start, "{profile:?}");
        }
    }

    #[test]
    fn fanin_scenario_overflows_a_tiny_queue_with_typed_shedding() {
        for profile in [Profile::Fast, Profile::Full] {
            let config = scenario("stream_fanin", profile).unwrap();
            assert!(config.shed_on_full, "fan-in must shed, not block");
            let capacity = config.queue_capacity.expect("tiny queue") as f64;
            assert!(config.agents >= 4, "fan-in needs many agents on the one key");
            assert_eq!(config.streams.len(), 1, "all agents share one stream key");
            // The offered rate must exceed the chaos-pinned service
            // capacity (1 worker × 1/delay) or the queue never overflows
            // and the scenario stops measuring shedding.
            let chaos = config.chaos.as_ref().expect("service time is chaos-pinned");
            assert_eq!(chaos.delay_one_in, 1);
            let capacity_rps = 1_000.0 / chaos.delay_ms as f64;
            let LoadModel::OpenLoopPoisson { rate_hz } = config.load else {
                panic!("fan-in must offer open-loop load");
            };
            let offered = rate_hz * config.agents as f64;
            assert!(
                offered > 1.5 * capacity_rps,
                "{profile:?}: offered {offered} rps cannot overflow {capacity_rps} rps capacity"
            );
            // Queued wait is bounded by capacity × service time — the
            // deadline must clear it, so accepted requests succeed and the
            // only typed refusals are sheds.
            assert!((capacity * chaos.delay_ms as f64) < config.deadline_ms.unwrap() as f64);
        }
    }

    #[test]
    fn shard_chaos_compounds_the_kill_with_seeded_faults() {
        for profile in [Profile::Fast, Profile::Full] {
            let config = scenario("shard_chaos", profile).unwrap();
            assert_eq!(config.shards, 2);
            assert!(config.kill_shard_at_ms.is_some());
            let chaos = config.chaos.as_ref().expect("chaos schedule");
            // The seeded panic schedule fires with probability 1/N per
            // call, so a whole dispatch of `max_batch` calls panics with
            // probability ≈ max_batch/N — and three *consecutive* panicked
            // dispatches quarantine the engine, turning the closed loop
            // into a 250 ms spin of typed rejections. Keep the per-dispatch
            // panic probability low enough (N ≥ 20 × max_batch ⇒ cube
            // ≤ 1.25e-4) that quarantine is out of the measured dynamics.
            assert!(
                chaos.panic_one_in >= 20 * config.max_batch as u64,
                "panic cadence {} risks quarantine storms at batch {}",
                chaos.panic_one_in,
                config.max_batch
            );
            for stream in &config.streams {
                assert!(stream.backend.starts_with("chaos:"), "both shards serve chaos engines");
            }
            // Same recovery arithmetic as shard_failover: the kill plus the
            // blackout bound must land before the tail window starts.
            let measured = config.duration_ms - config.warmup_ms;
            let tail_start = config.warmup_ms + 3 * measured / 4;
            let recovery_bound = config.lease_ttl_ms + config.lease_ttl_ms / 4 + 100;
            assert!(config.kill_shard_at_ms.unwrap() + recovery_bound < tail_start, "{profile:?}");
        }
    }

    #[test]
    fn fanout_scenario_spawns_multiple_processes() {
        // The acceptance bar: scenarios spawn ≥ 2 OS processes. Every
        // scenario has 1 server + ≥ 1 agents; the fan-out one uses 2 agents.
        let config = scenario("router_fanout", Profile::Fast).unwrap();
        assert!(config.agents >= 2);
        for config in all_scenarios(Profile::Fast) {
            assert!(1 + config.agents >= 2, "{} must spawn at least 2 processes", config.name);
        }
    }
}
