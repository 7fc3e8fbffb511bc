//! The four benchmark workloads, each a closed-loop traffic mix expressed as
//! a `bench::harness::ScenarioConfig` (the document `serve_agent` reads).

use bench::agent::FRAME_POOL;
use bench::harness::{LoadModel, ScenarioConfig, StreamLoad};

/// Every workload name, in the order the README lists them.
pub const NAMES: [&str; 4] = ["vbf_fp_paper", "das_paper", "vbf_ladder", "serve_small"];

/// The six Table III rungs, best quality first.
pub const LADDER: [&str; 6] =
    ["tiny-vbf-fp", "tiny-vbf-fx24", "tiny-vbf-fx20", "tiny-vbf-fx16", "tiny-vbf-w8a20", "tiny-vbf-w8a16"];

/// Distinct pool frames each stream's requests cycle through. The output
/// check beamforms each one in-process, so a few keep that reference cheap
/// on the paper grid while still varying the input.
pub const SLOTS_PER_STREAM: usize = 4;

/// One workload: the server's scenario, the closed-loop depth and the pool
/// slots its requests use. Everything is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The scenario `serve_agent` is started with.
    pub scenario: ScenarioConfig,
    /// Requests kept outstanding on the one connection.
    pub inflight: usize,
    /// Per stream, the frame-pool slots its requests cycle through.
    pub slots: Vec<Vec<usize>>,
}

impl Workload {
    /// Builds the named workload for a workload seed; the scenario seed
    /// (which fixes every pool frame) and every request seed derive from it.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown name.
    pub fn new(name: &str, seed: u64) -> Result<Self, String> {
        let Some(&name) = NAMES.iter().find(|&&n| n == name) else {
            return Err(format!("unknown workload `{name}` (expected one of {})", NAMES.join(", ")));
        };
        // (channels, rows, cols, samples, backends, frames in flight)
        let (channels, rows, cols, samples, backends, inflight): (_, _, _, _, &[&str], _) = match name {
            "vbf_fp_paper" => (128, 368, 128, 2048, &["tiny-vbf-fp"], 1),
            "das_paper" => (128, 368, 128, 2048, &["das-planned"], 1),
            "vbf_ladder" => (128, 46, 128, 2048, &LADDER, 6),
            _ => (32, 16, 8, 256, &["das-planned"], 4),
        };
        let mut scenario = ScenarioConfig::named(name);
        scenario.channels = channels;
        scenario.grid_rows = rows;
        scenario.grid_cols = cols;
        scenario.num_samples = samples;
        scenario.streams = backends.iter().map(|&b| StreamLoad::new(b)).collect();
        scenario.load = LoadModel::ClosedLoop { inflight };
        scenario.seed = mix(seed, 0);
        scenario.validate()?;
        let slots = (0..backends.len())
            .map(|stream| {
                (0..SLOTS_PER_STREAM)
                    .map(|j| (mix(seed, 1 + (stream * SLOTS_PER_STREAM + j) as u64) % FRAME_POOL as u64) as usize)
                    .collect()
            })
            .collect();
        Ok(Self { name, scenario, inflight, slots })
    }

    /// Number of streams (one per backend).
    pub fn streams(&self) -> usize {
        self.slots.len()
    }

    /// The `i`-th request as `(stream, seed)`: streams take turns, and each
    /// stream walks its slots. The server picks pool frame `seed % FRAME_POOL`.
    pub fn request(&self, i: u64) -> (usize, u64) {
        let streams = self.streams() as u64;
        let stream = (i % streams) as usize;
        let slots = &self.slots[stream];
        (stream, slots[((i / streams) % slots.len() as u64) as usize] as u64)
    }
}

/// SplitMix64 of `seed` and a stream index: independent, reproducible
/// sub-seeds from one workload seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::json::Json;

    #[test]
    fn scenario_round_trips_through_the_server_config_line() {
        for name in NAMES {
            let workload = Workload::new(name, 11).expect("known workload");
            let line = Json::obj([("scenario", workload.scenario.to_json())]).to_string_compact();
            let parsed = Json::parse(&line).expect("config line parses");
            let decoded = ScenarioConfig::from_json(parsed.get("scenario").expect("scenario key"))
                .expect("serve_agent accepts the config");
            assert_eq!(decoded, workload.scenario, "{name}");
            assert_eq!(decoded.max_batch, 8);
            assert_eq!(decoded.linger_us, 200);
            assert_eq!(decoded.queue_capacity, None, "router default queue of 1024");
        }
    }

    #[test]
    fn seeds_fix_frames_and_requests() {
        let a = Workload::new("vbf_ladder", 5).unwrap();
        let b = Workload::new("vbf_ladder", 5).unwrap();
        let c = Workload::new("vbf_ladder", 6).unwrap();
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.slots, b.slots);
        assert_ne!(a.scenario.seed, c.scenario.seed);
        let requests: Vec<_> = (0..12).map(|i| a.request(i)).collect();
        assert_eq!(requests.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
        assert!(requests.iter().all(|&(s, seed)| a.slots[s].contains(&(seed as usize))));
    }

    #[test]
    fn shapes_match_the_workload_table() {
        let paper = Workload::new("vbf_fp_paper", 1).unwrap();
        assert_eq!((paper.scenario.grid_rows, paper.scenario.grid_cols, paper.inflight), (368, 128, 1));
        let ladder = Workload::new("vbf_ladder", 1).unwrap();
        assert_eq!((ladder.scenario.grid_rows, ladder.streams(), ladder.inflight), (46, 6, 6));
        let small = Workload::new("serve_small", 1).unwrap();
        assert_eq!((small.scenario.channels, small.scenario.num_samples, small.inflight), (32, 256, 4));
        assert!(Workload::new("nope", 1).is_err());
    }
}
