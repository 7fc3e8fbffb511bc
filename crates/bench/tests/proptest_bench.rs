//! Property tests for the scenario harness: config validation must accept
//! exactly the combinations the harness can actually run, whatever corner
//! of the parameter space a scenario author wanders into.

use bench::harness::{ChaosSpec, LoadModel, ScenarioConfig, StreamLoad};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `validate()` is exactly the conjunction of the documented rules: a
    /// config passes iff duration/warmup/agents/streams/load are all
    /// individually sane. Catches both rejected-valid and accepted-invalid
    /// drift when rules are added or edited.
    #[test]
    fn validation_matches_the_documented_predicate(
        duration_ms in 0u64..1_500,
        warmup_ms in 0u64..1_500,
        agents in 0usize..4,
        num_streams in 0usize..4,
        weight0 in 0u32..3,
        inflight in 0usize..6,
        use_poisson_bit in 0u8..2,
        rate_centi_hz in 0u64..200_000,
        chaos_label_bit in 0u8..2,
        chaos_spec_bit in 0u8..2,
    ) {
        let use_poisson = use_poisson_bit == 1;
        let with_chaos_label = chaos_label_bit == 1;
        let with_chaos_spec = chaos_spec_bit == 1;
        let mut config = ScenarioConfig::named("prop");
        config.duration_ms = duration_ms;
        config.warmup_ms = warmup_ms;
        config.agents = agents;
        config.streams = (0..num_streams)
            .map(|i| {
                let label = if with_chaos_label && i == 0 { "chaos:das" } else { "das" };
                let mut stream = StreamLoad::new(label);
                stream.weight = if i == 0 { weight0 } else { 1 };
                stream
            })
            .collect();
        let rate_hz = rate_centi_hz as f64 / 100.0;
        config.load = if use_poisson {
            LoadModel::OpenLoopPoisson { rate_hz }
        } else {
            LoadModel::ClosedLoop { inflight }
        };
        config.chaos = with_chaos_spec.then_some(ChaosSpec {
            seed: 1,
            panic_one_in: 16,
            delay_one_in: 0,
            delay_ms: 0,
        });

        let expected = duration_ms > 0
            && warmup_ms < duration_ms
            && agents > 0
            && num_streams > 0
            && (weight0 > 0 || num_streams > 1)
            && (!with_chaos_label || with_chaos_spec)
            && if use_poisson { rate_hz > 0.0 } else { inflight > 0 };
        prop_assert_eq!(
            config.validate().is_ok(),
            expected,
            "config {:?}: {:?}",
            config,
            config.validate()
        );
    }

    /// Every *valid* generated config survives the agent wire format
    /// unchanged — the exact document the harness pipes to the spawned
    /// server and load processes.
    #[test]
    fn valid_configs_round_trip_through_the_agent_wire(
        duration_ms in 1u64..1_500,
        warmup_frac in 0u64..100,
        agents in 1usize..4,
        inflight in 1usize..6,
        use_poisson_bit in 0u8..2,
        rate_centi_hz in 1u64..200_000,
        deadline_ms in 0u64..500,
        seed in 0u64..u64::MAX,
    ) {
        let use_poisson = use_poisson_bit == 1;
        let mut config = ScenarioConfig::named("prop_round_trip");
        config.duration_ms = duration_ms;
        config.warmup_ms = duration_ms * warmup_frac / 101;
        config.agents = agents;
        config.deadline_ms = (deadline_ms > 0).then_some(deadline_ms);
        config.seed = seed;
        config.load = if use_poisson {
            LoadModel::OpenLoopPoisson { rate_hz: rate_centi_hz as f64 / 100.0 }
        } else {
            LoadModel::ClosedLoop { inflight }
        };
        prop_assert!(config.validate().is_ok());
        let parsed = ScenarioConfig::from_json(&config.to_json());
        prop_assert_eq!(parsed.as_ref(), Ok(&config), "wire: {}", config.to_json().to_string_compact());
    }
}
