//! Process-spawning scenario benchmark harness.
//!
//! Every perf claim before this subsystem came from a one-off in-process
//! binary (`bench_pr1`–`bench_pr6`) with its own ad-hoc JSON schema — six
//! snapshots, no trajectory, nothing failing CI on a regression. The
//! harness replaces that with one declarative model:
//!
//! * [`ScenarioConfig`] — a scenario described as data: probe/grid shape,
//!   the stream mix (backend labels + weights), the offered-load model
//!   (closed-loop pipelining or open-loop Poisson arrivals via
//!   [`runtime::poisson`]), duration/warmup, deadlines, chaos injection
//!   (`serve::chaos`) and an optional degradation ladder,
//! * [`run_scenario`] — spawns **separate OS processes**: one `serve_agent`
//!   hosting the `serve::router::Router` behind a loopback TCP socket, and
//!   one or more `load_agent`s offering load and measuring client-side
//!   latency. Agents speak single-line JSON over stdio (control) and TCP
//!   (data); the harness merges their [`serve::LatencyHistogram`]s and
//!   success/expiry/panic counters and samples each process's max RSS from
//!   `/proc/self/status`,
//! * [`summary_json`] — one machine-readable `summary.json` per scenario
//!   under a stable versioned schema ([`SCHEMA_VERSION`]), the input to the
//!   `bench_compare` regression gate (see [`crate::compare`]).
//!
//! The protocol frames are deliberately tiny: a load-agent request carries
//! only `{id, stream, seed}` — the server synthesizes the RF frame from the
//! seed with the same deterministic LCG the per-PR benches used
//! ([`synthetic_frame`]), so the wire measures the serving datapath rather
//! than frame shipping, and any two runs of a scenario offer bit-identical
//! frames.

use runtime::json::Json;
use serve::LatencyHistogram;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ultrasound::{ChannelData, LinearArray};

/// Version stamped into every `summary.json`; bump when the schema changes
/// shape (adding fields is backward compatible and does not bump it).
pub const SCHEMA_VERSION: u64 = 1;

/// How long the harness waits for one protocol line from an agent before
/// declaring the scenario hung.
const AGENT_LINE_TIMEOUT: Duration = Duration::from_secs(120);

/// Benchmark profile: `fast` is the CI smoke shape (seconds per scenario),
/// `full` the measurement shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small grids, short durations — the CI smoke-and-gate profile.
    Fast,
    /// Larger grids and durations for real measurements.
    Full,
}

impl Profile {
    /// Parses `"fast"` / `"full"`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "fast" => Ok(Self::Fast),
            "full" => Ok(Self::Full),
            other => Err(format!("unknown profile `{other}` (expected `fast` or `full`)")),
        }
    }

    /// The profile's name as written into reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fast => "fast",
            Self::Full => "full",
        }
    }
}

/// One stream of a scenario's traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamLoad {
    /// Backend label the stream submits under. Labels the serve agent
    /// understands (see [`crate::agent::build_backend`]): `"das"`,
    /// `"das-planned"`, the six Tiny-VBF scheme labels `"tiny-vbf-fp"`,
    /// `"-fx24"`, `"-fx20"`, `"-fx16"`, `"-w8a20"` and `"-w8a16"`, and
    /// `"chaos:<inner>"` which wraps `<inner>` in a
    /// [`serve::ChaosBeamformer`] driven by [`ScenarioConfig::chaos`].
    pub backend: String,
    /// Relative share of offered requests routed to this stream.
    pub weight: u32,
    /// Receive-channel count override (defaults to
    /// [`ScenarioConfig::channels`]) — heterogeneous-probe scenarios.
    pub channels: Option<usize>,
    /// `(rows, cols)` grid override (defaults to the scenario grid).
    pub grid: Option<(usize, usize)>,
    /// Mid-run churn: the stream is only offered from this many ms into
    /// the run (`None` = from the start). Engines for late streams spin up
    /// under traffic rather than during warmup.
    pub active_from_ms: Option<u64>,
    /// Mid-run churn: the stream stops being offered after this many ms
    /// into the run (`None` = until the end). Combined with
    /// [`ScenarioConfig::engine_ttl_ms`], a retired stream's idle engine
    /// gets evicted while the rest of the mix keeps serving.
    pub active_until_ms: Option<u64>,
}

impl StreamLoad {
    /// A stream with weight 1, the scenario-default geometry, active for
    /// the whole run.
    pub fn new(backend: impl Into<String>) -> Self {
        Self {
            backend: backend.into(),
            weight: 1,
            channels: None,
            grid: None,
            active_from_ms: None,
            active_until_ms: None,
        }
    }

    /// Whether the stream is offered at `offset_ms` into the run.
    pub fn is_active_at(&self, offset_ms: u64) -> bool {
        offset_ms >= self.active_from_ms.unwrap_or(0)
            && offset_ms < self.active_until_ms.unwrap_or(u64::MAX)
    }
}

/// How load agents offer traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Closed loop: at most `inflight` requests outstanding per agent; a
    /// response frees the slot for the next request. Self-throttling —
    /// measures capacity, hides queueing collapse.
    ClosedLoop {
        /// Outstanding-request budget per agent (≥ 1).
        inflight: usize,
    },
    /// Open loop: requests sent at seeded Poisson arrival instants
    /// regardless of responses ([`runtime::poisson::PoissonArrivals`]).
    /// Exposes queueing collapse under overload.
    OpenLoopPoisson {
        /// Offered arrival rate per agent, in requests/second.
        rate_hz: f64,
    },
}

/// Deterministic fault-injection knobs applied to `"chaos:*"` backends
/// (forwarded to [`serve::ChaosSchedule::seeded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Inject a panic every `n`-th call (0 disables).
    pub panic_one_in: u64,
    /// Inject an added latency every `n`-th call (0 disables).
    pub delay_one_in: u64,
    /// The injected latency, in milliseconds.
    pub delay_ms: u64,
}

/// A declaratively-defined benchmark scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Scenario name (also the summary file stem): `[a-z0-9_]+`.
    pub name: String,
    /// Default receive-channel count of the synthetic probe.
    pub channels: usize,
    /// Default imaging-grid rows.
    pub grid_rows: usize,
    /// Default imaging-grid columns.
    pub grid_cols: usize,
    /// RF samples per channel in every synthetic frame.
    pub num_samples: usize,
    /// The traffic mix (at least one stream).
    pub streams: Vec<StreamLoad>,
    /// The offered-load model.
    pub load: LoadModel,
    /// Measured run length per agent (after warmup), in milliseconds.
    pub duration_ms: u64,
    /// Warmup span per agent: requests sent before this cutoff are served
    /// but excluded from the merged measurements.
    pub warmup_ms: u64,
    /// Per-request dispatch deadline (milliseconds); `None` disables.
    pub deadline_ms: Option<u64>,
    /// Number of load-agent processes.
    pub agents: usize,
    /// Scheduler `max_batch` of the serve agent's router.
    pub max_batch: usize,
    /// Scheduler linger of the serve agent's router, in microseconds.
    pub linger_us: u64,
    /// Fault-injection schedule for `"chaos:*"` backends.
    pub chaos: Option<ChaosSpec>,
    /// Optional degradation ladder (backend labels, best quality first);
    /// the serve agent builds the router with
    /// [`serve::DegradeConfig::with_ladder`] over it.
    pub degrade_ladder: Option<Vec<String>>,
    /// Base seed for frame synthesis and load scheduling; every derived
    /// per-agent seed is a pure function of this.
    pub seed: u64,
    /// Shard-server processes behind a registry (`0` = the single-process
    /// topology: one `serve_agent`, agents dial it directly). Sharded
    /// scenarios require a closed-loop load model and a per-call deadline.
    pub shards: usize,
    /// Heartbeat-lease TTL of the shard registry, in milliseconds.
    pub lease_ttl_ms: u64,
    /// Shard heartbeat (lease-renew) period, in milliseconds; must leave
    /// headroom under the TTL so one delayed renew does not evict a
    /// healthy shard.
    pub heartbeat_ms: u64,
    /// Chaos: SIGKILL the highest-indexed shard this many ms after the
    /// load agents start (requires at least two shards).
    pub kill_shard_at_ms: Option<u64>,
    /// Idle-engine TTL of the router(s) ([`serve::router::FaultPolicy`]),
    /// in milliseconds; `None` keeps engines forever. Drives the mid-run
    /// churn scenario's eviction half.
    pub engine_ttl_ms: Option<u64>,
    /// Router submission-queue capacity override; `None` keeps the serving
    /// default (1024). Small values make queue overflow reachable at bench
    /// scale, which is what the fan-in scenario measures.
    pub queue_capacity: Option<usize>,
    /// Shed instead of blocking when the submission queue is full: the
    /// server answers `status:"shed"` immediately (a typed, accounted
    /// refusal) rather than exerting backpressure through the socket.
    pub shed_on_full: bool,
}

impl ScenarioConfig {
    /// A closed-loop single-stream scenario with placeholder geometry —
    /// the starting point the named scenarios specialize.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            channels: 32,
            grid_rows: 16,
            grid_cols: 8,
            num_samples: 256,
            streams: vec![StreamLoad::new("das-planned")],
            load: LoadModel::ClosedLoop { inflight: 4 },
            duration_ms: 800,
            warmup_ms: 200,
            deadline_ms: None,
            agents: 1,
            max_batch: 8,
            linger_us: 200,
            chaos: None,
            degrade_ladder: None,
            seed: 2026,
            shards: 0,
            lease_ttl_ms: 250,
            heartbeat_ms: 60,
            kill_shard_at_ms: None,
            engine_ttl_ms: None,
            queue_capacity: None,
            shed_on_full: false,
        }
    }

    /// Validates the configuration, returning the first problem found.
    /// Rejected combinations include a zero duration, an empty stream set,
    /// zero-weight mixes, non-positive Poisson rates, and chaos labels
    /// without a chaos schedule.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(format!("scenario name `{}` must be non-empty [a-z0-9_]+", self.name));
        }
        if self.channels < 2 {
            return Err("probe needs at least 2 channels".into());
        }
        if self.grid_rows == 0 || self.grid_cols == 0 {
            return Err("grid must have at least one row and column".into());
        }
        if self.num_samples == 0 {
            return Err("frames need at least one RF sample".into());
        }
        if self.streams.is_empty() {
            return Err("scenario needs at least one stream (empty backend set)".into());
        }
        if self.streams.iter().all(|s| s.weight == 0) {
            return Err("at least one stream must have a non-zero weight".into());
        }
        if !self
            .streams
            .iter()
            .any(|s| s.weight > 0 && s.active_from_ms.is_none() && s.active_until_ms.is_none())
        {
            return Err(
                "at least one weighted stream must be active for the whole run \
                 (no activity window), or the offered mix can go empty"
                    .into(),
            );
        }
        for stream in &self.streams {
            if let (Some(from), Some(until)) = (stream.active_from_ms, stream.active_until_ms) {
                if from >= until {
                    return Err(format!(
                        "stream `{}` activity window [{from}, {until}) is empty",
                        stream.backend
                    ));
                }
            }
            if stream.backend.is_empty() {
                return Err("stream backend label must be non-empty".into());
            }
            if stream.channels.is_some_and(|c| c < 2) {
                return Err("per-stream channel override needs at least 2 channels".into());
            }
            if stream.grid.is_some_and(|(r, c)| r == 0 || c == 0) {
                return Err("per-stream grid override must be non-empty".into());
            }
            if stream.backend.starts_with("chaos:") && self.chaos.is_none() {
                return Err(format!(
                    "stream `{}` injects chaos but the scenario has no chaos schedule",
                    stream.backend
                ));
            }
        }
        if self.duration_ms == 0 {
            return Err("scenario duration must be non-zero".into());
        }
        if self.warmup_ms >= self.duration_ms {
            return Err("warmup must be shorter than the scenario duration".into());
        }
        if self.deadline_ms == Some(0) {
            return Err("a zero deadline would expire every request".into());
        }
        if self.agents == 0 {
            return Err("scenario needs at least one load agent".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        match &self.load {
            LoadModel::ClosedLoop { inflight } => {
                if *inflight == 0 {
                    return Err("closed-loop inflight budget must be at least 1".into());
                }
            }
            LoadModel::OpenLoopPoisson { rate_hz } => {
                if !rate_hz.is_finite() || *rate_hz <= 0.0 {
                    return Err(format!("Poisson rate must be finite and positive, got {rate_hz}"));
                }
            }
        }
        if let Some(ladder) = &self.degrade_ladder {
            if ladder.len() < 2 {
                return Err("a degradation ladder needs at least two rungs".into());
            }
            if ladder.iter().any(|l| l.starts_with("chaos:")) && self.chaos.is_none() {
                return Err("ladder injects chaos but the scenario has no chaos schedule".into());
            }
        }
        if let Some(chaos) = &self.chaos {
            if chaos.panic_one_in == 0 && chaos.delay_one_in == 0 {
                return Err("chaos schedule enables neither panics nor delays".into());
            }
        }
        if self.engine_ttl_ms == Some(0) {
            return Err("a zero engine TTL would evict every engine instantly".into());
        }
        if self.queue_capacity == Some(0) {
            return Err("a zero queue capacity would shed or block every request".into());
        }
        if self.shards > 0 {
            if !matches!(self.load, LoadModel::ClosedLoop { .. }) {
                return Err("sharded scenarios require a closed-loop load model".into());
            }
            if self.deadline_ms.is_none() {
                return Err(
                    "sharded scenarios need a deadline (it bounds the client's retry loop)".into(),
                );
            }
            if self.lease_ttl_ms == 0 {
                return Err("lease TTL must be non-zero".into());
            }
            if self.heartbeat_ms == 0 || self.heartbeat_ms.saturating_mul(2) > self.lease_ttl_ms {
                return Err(format!(
                    "heartbeat ({} ms) must be non-zero and at most half the lease TTL ({} ms)",
                    self.heartbeat_ms, self.lease_ttl_ms
                ));
            }
        }
        if let Some(kill_at) = self.kill_shard_at_ms {
            if self.shards < 2 {
                return Err("killing a shard needs at least two shards (someone must survive)".into());
            }
            if kill_at >= self.duration_ms {
                return Err("kill_shard_at_ms must fall inside the offered window".into());
            }
        }
        Ok(())
    }

    /// The probe geometry of stream `index` (the scenario default with the
    /// stream's overrides applied).
    pub fn stream_array(&self, index: usize) -> LinearArray {
        let channels = self.streams[index].channels.unwrap_or(self.channels);
        LinearArray::small_test_array().with_num_elements(channels)
    }

    /// The `(rows, cols)` grid of stream `index`.
    pub fn stream_grid_shape(&self, index: usize) -> (usize, usize) {
        self.streams[index].grid.unwrap_or((self.grid_rows, self.grid_cols))
    }

    /// Encodes the scenario for the agent config line (and the `config`
    /// echo inside `summary.json`).
    pub fn to_json(&self) -> Json {
        let streams = self.streams.iter().map(|s| {
            let mut pairs = vec![
                ("backend".to_string(), Json::str(s.backend.clone())),
                ("weight".to_string(), Json::num(s.weight as f64)),
            ];
            if let Some(channels) = s.channels {
                pairs.push(("channels".to_string(), Json::num(channels as f64)));
            }
            if let Some((rows, cols)) = s.grid {
                pairs.push((
                    "grid".to_string(),
                    Json::arr([Json::num(rows as f64), Json::num(cols as f64)]),
                ));
            }
            if let Some(from) = s.active_from_ms {
                pairs.push(("active_from_ms".to_string(), Json::num(from as f64)));
            }
            if let Some(until) = s.active_until_ms {
                pairs.push(("active_until_ms".to_string(), Json::num(until as f64)));
            }
            Json::Obj(pairs)
        });
        let load = match &self.load {
            LoadModel::ClosedLoop { inflight } => Json::obj([
                ("model", Json::str("closed_loop")),
                ("inflight", Json::num(*inflight as f64)),
            ]),
            LoadModel::OpenLoopPoisson { rate_hz } => Json::obj([
                ("model", Json::str("open_loop_poisson")),
                ("rate_hz", Json::num(*rate_hz)),
            ]),
        };
        let mut pairs = vec![
            ("name".to_string(), Json::str(self.name.clone())),
            ("channels".to_string(), Json::num(self.channels as f64)),
            ("grid_rows".to_string(), Json::num(self.grid_rows as f64)),
            ("grid_cols".to_string(), Json::num(self.grid_cols as f64)),
            ("num_samples".to_string(), Json::num(self.num_samples as f64)),
            ("streams".to_string(), Json::arr(streams)),
            ("load".to_string(), load),
            ("duration_ms".to_string(), Json::num(self.duration_ms as f64)),
            ("warmup_ms".to_string(), Json::num(self.warmup_ms as f64)),
            (
                "deadline_ms".to_string(),
                self.deadline_ms.map_or(Json::Null, |d| Json::num(d as f64)),
            ),
            ("agents".to_string(), Json::num(self.agents as f64)),
            ("max_batch".to_string(), Json::num(self.max_batch as f64)),
            ("linger_us".to_string(), Json::num(self.linger_us as f64)),
            // Seeds are full-range u64; JSON numbers are f64 and lose
            // precision above 2^53, so seeds cross the wire as strings.
            ("seed".to_string(), Json::str(self.seed.to_string())),
            ("shards".to_string(), Json::num(self.shards as f64)),
            ("lease_ttl_ms".to_string(), Json::num(self.lease_ttl_ms as f64)),
            ("heartbeat_ms".to_string(), Json::num(self.heartbeat_ms as f64)),
        ];
        if let Some(kill_at) = self.kill_shard_at_ms {
            pairs.push(("kill_shard_at_ms".to_string(), Json::num(kill_at as f64)));
        }
        if let Some(ttl) = self.engine_ttl_ms {
            pairs.push(("engine_ttl_ms".to_string(), Json::num(ttl as f64)));
        }
        if let Some(capacity) = self.queue_capacity {
            pairs.push(("queue_capacity".to_string(), Json::num(capacity as f64)));
        }
        if self.shed_on_full {
            pairs.push(("shed_on_full".to_string(), Json::Bool(true)));
        }
        if let Some(chaos) = &self.chaos {
            pairs.push((
                "chaos".to_string(),
                Json::obj([
                    ("seed", Json::str(chaos.seed.to_string())),
                    ("panic_one_in", Json::num(chaos.panic_one_in as f64)),
                    ("delay_one_in", Json::num(chaos.delay_one_in as f64)),
                    ("delay_ms", Json::num(chaos.delay_ms as f64)),
                ]),
            ));
        }
        if let Some(ladder) = &self.degrade_ladder {
            pairs.push((
                "degrade_ladder".to_string(),
                Json::arr(ladder.iter().map(|l| Json::str(l.clone()))),
            ));
        }
        Json::Obj(pairs)
    }

    /// Decodes [`ScenarioConfig::to_json`] output and re-validates it.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, String> {
            value.get(name).ok_or_else(|| format!("scenario config: missing field `{name}`"))
        }
        fn usize_field(value: &Json, name: &str) -> Result<usize, String> {
            field(value, name)?
                .as_usize()
                .ok_or_else(|| format!("scenario config: field `{name}` must be an unsigned integer"))
        }
        fn u64_field(value: &Json, name: &str) -> Result<u64, String> {
            field(value, name)?
                .as_u64()
                .ok_or_else(|| format!("scenario config: field `{name}` must be an unsigned integer"))
        }
        fn seed_field(value: &Json, name: &str) -> Result<u64, String> {
            field(value, name)?
                .as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("scenario config: field `{name}` must be a decimal seed string"))
        }
        let streams = field(value, "streams")?
            .as_arr()
            .ok_or("scenario config: `streams` must be an array")?
            .iter()
            .map(|s| {
                Ok(StreamLoad {
                    backend: s
                        .get("backend")
                        .and_then(Json::as_str)
                        .ok_or("scenario config: stream without backend")?
                        .to_string(),
                    weight: u64_field(s, "weight")? as u32,
                    channels: match s.get("channels") {
                        Some(c) => Some(
                            c.as_usize().ok_or("scenario config: stream channels must be an integer")?,
                        ),
                        None => None,
                    },
                    grid: match s.get("grid").and_then(Json::as_arr) {
                        Some([rows, cols]) => Some((
                            rows.as_usize().ok_or("scenario config: grid rows must be an integer")?,
                            cols.as_usize().ok_or("scenario config: grid cols must be an integer")?,
                        )),
                        Some(_) => return Err("scenario config: grid override must be [rows, cols]".into()),
                        None => None,
                    },
                    active_from_ms: s.get("active_from_ms").and_then(Json::as_u64),
                    active_until_ms: s.get("active_until_ms").and_then(Json::as_u64),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let load_value = field(value, "load")?;
        let load = match load_value.get("model").and_then(Json::as_str) {
            Some("closed_loop") => LoadModel::ClosedLoop { inflight: usize_field(load_value, "inflight")? },
            Some("open_loop_poisson") => LoadModel::OpenLoopPoisson {
                rate_hz: load_value
                    .get("rate_hz")
                    .and_then(Json::as_f64)
                    .ok_or("scenario config: Poisson load without rate_hz")?,
            },
            other => return Err(format!("scenario config: unknown load model {other:?}")),
        };
        let chaos = match value.get("chaos") {
            Some(c) if !c.is_null() => Some(ChaosSpec {
                seed: seed_field(c, "seed")?,
                panic_one_in: u64_field(c, "panic_one_in")?,
                delay_one_in: u64_field(c, "delay_one_in")?,
                delay_ms: u64_field(c, "delay_ms")?,
            }),
            _ => None,
        };
        let degrade_ladder = match value.get("degrade_ladder") {
            Some(l) if !l.is_null() => Some(
                l.as_arr()
                    .ok_or("scenario config: degrade_ladder must be an array")?
                    .iter()
                    .map(|r| {
                        r.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "scenario config: ladder rung must be a string".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            _ => None,
        };
        let config = Self {
            name: field(value, "name")?
                .as_str()
                .ok_or("scenario config: `name` must be a string")?
                .to_string(),
            channels: usize_field(value, "channels")?,
            grid_rows: usize_field(value, "grid_rows")?,
            grid_cols: usize_field(value, "grid_cols")?,
            num_samples: usize_field(value, "num_samples")?,
            streams,
            load,
            duration_ms: u64_field(value, "duration_ms")?,
            warmup_ms: u64_field(value, "warmup_ms")?,
            deadline_ms: match value.get("deadline_ms") {
                Some(Json::Null) | None => None,
                Some(d) => {
                    Some(d.as_u64().ok_or("scenario config: deadline_ms must be an integer or null")?)
                }
            },
            agents: usize_field(value, "agents")?,
            max_batch: usize_field(value, "max_batch")?,
            linger_us: u64_field(value, "linger_us")?,
            chaos,
            degrade_ladder,
            seed: seed_field(value, "seed")?,
            // Sharding fields default for pre-shard documents.
            shards: value.get("shards").and_then(Json::as_usize).unwrap_or(0),
            lease_ttl_ms: value.get("lease_ttl_ms").and_then(Json::as_u64).unwrap_or(250),
            heartbeat_ms: value.get("heartbeat_ms").and_then(Json::as_u64).unwrap_or(60),
            kill_shard_at_ms: value.get("kill_shard_at_ms").and_then(Json::as_u64),
            engine_ttl_ms: value.get("engine_ttl_ms").and_then(Json::as_u64),
            queue_capacity: value.get("queue_capacity").and_then(Json::as_usize),
            shed_on_full: value.get("shed_on_full").and_then(Json::as_bool).unwrap_or(false),
        };
        config.validate()?;
        Ok(config)
    }
}

/// Multiplier and increment of the frame LCG (Knuth's MMIX constants).
const LCG_MUL: u64 = 6364136223846793005;
const LCG_INC: u64 = 1442695040888963407;

/// States [`synthetic_frame`] advances side by side: enough independent
/// multiply chains to hide the latency of a 64-bit vector multiply.
const LCG_LANES: usize = 64;

/// Samples generated into a stack buffer before they are appended to the
/// frame, so the lanes stay in registers across blocks.
const LCG_CHUNK: usize = 16 * LCG_LANES;

/// [`LCG_LANES`] steps of the LCG as one affine step mod 2⁶⁴:
/// `(a^L, c·(a^(L−1) + … + a + 1))`.
const LCG_JUMP: (u64, u64) = {
    let (mut mul, mut inc) = (1u64, 0u64);
    let mut step = 0;
    while step < LCG_LANES {
        mul = mul.wrapping_mul(LCG_MUL);
        inc = inc.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        step += 1;
    }
    (mul, inc)
};

/// One LCG state as a sample: the integer `state >> 40`, times 2⁻²⁴, minus
/// 0.5. Every step is exact (the integer is below 2²⁴, the difference a
/// multiple of 2⁻²⁴ below 1 in magnitude); the integer goes through `i32`,
/// which every SIMD level converts to `f32` natively.
fn lcg_sample(state: u64) -> f32 {
    (state >> 40) as i32 as f32 * (1.0 / (1u64 << 24) as f32) - 0.5
}

/// Deterministic pseudo-random RF frame — the same LCG every per-PR bench
/// binary used, now shared: serving cost is independent of sample values,
/// so a cheap generator replaces the full simulator, and seeding makes the
/// offered frames bit-identical across runs and processes.
///
/// Sample `n` (in [`ChannelData`]'s sample-major order) is the LCG's
/// `n + 1`-th state after `seed · φ + 1`. The states are generated
/// `L = 64` at a time: lane `j` holds the state of sample `k·L + j`, and
/// all lanes advance by one affine step `(a^L, c·(a^(L−1) + … + a + 1))`
/// mod 2⁶⁴, which is exactly `L` serial steps in wrapping `u64`
/// arithmetic; a final partial block takes the first lanes. So every
/// sample is the one the serial loop produces, bit for bit, while the
/// lanes run on vector multiplies instead of one dependent multiply chain
/// (a 128 × 2048 frame in 0.14–0.16 ms against 0.42–0.56 ms serially on
/// an AVX-512 x86-64 core, the cost of cloning a cold frame of that size).
/// The frame's buffer is written once, with no zero-fill first.
pub fn synthetic_frame(array: &LinearArray, num_samples: usize, seed: u64) -> ChannelData {
    let samples = lcg_samples(seed, num_samples * array.num_elements());
    ChannelData::from_vec(samples, num_samples, array.num_elements(), array.sampling_frequency())
        .expect("the sample count matches the frame shape")
}

/// The first `len` samples of the LCG seeded with `seed` (see
/// [`synthetic_frame`]).
fn lcg_samples(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut lanes = [0u64; LCG_LANES];
    for lane in &mut lanes {
        state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        *lane = state;
    }
    let (mul, inc) = LCG_JUMP;
    let mut samples = Vec::with_capacity(len);
    let mut buffer = [0.0f32; LCG_CHUNK];
    // Samples still to generate in whole blocks of `LCG_LANES`.
    let mut left = len - len % LCG_LANES;
    while left > 0 {
        let chunk = &mut buffer[..left.min(LCG_CHUNK)];
        for block in chunk.chunks_exact_mut(LCG_LANES) {
            for (sample, lane) in block.iter_mut().zip(&mut lanes) {
                *sample = lcg_sample(*lane);
                *lane = lane.wrapping_mul(mul).wrapping_add(inc);
            }
        }
        samples.extend_from_slice(chunk);
        left -= chunk.len();
    }
    samples.extend(lanes[..len % LCG_LANES].iter().map(|&state| lcg_sample(state)));
    samples
}

/// Max resident-set size of the calling process in kilobytes, sampled from
/// the `VmHWM` line of `/proc/self/status`. `None` where the probe is
/// unavailable (non-Linux hosts).
pub fn max_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Per-agent measurement block parsed from a load agent's summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSummary {
    /// Agent index within the scenario.
    pub agent: usize,
    /// Requests sent in total, including warmup.
    pub sent: u64,
    /// Post-warmup requests (the measured set).
    pub measured: u64,
    /// Measured requests served successfully.
    pub ok: u64,
    /// Measured requests expired at their deadline.
    pub expired: u64,
    /// Measured requests lost to a contained engine panic.
    pub panicked: u64,
    /// Measured requests failing any other way (factory errors,
    /// quarantine, backpressure).
    pub errors: u64,
    /// Requests never answered before the drain grace expired (must be 0
    /// in a healthy run — the server resolves every accepted request).
    pub lost: u64,
    /// Retry attempts beyond each call's first (sharded mode; 0 when the
    /// agent dials the server directly).
    pub retries: u64,
    /// Calls that switched shards mid-flight (sharded mode).
    pub failovers: u64,
    /// Measured requests sent in the tail window (the final quarter of
    /// the measured span) — the post-recovery probe of failover scenarios.
    pub tail_measured: u64,
    /// Tail-window requests that succeeded.
    pub tail_ok: u64,
    /// Response checksum per `"stream:poolslot"` — the bitwise-determinism
    /// probe. A key whose checksum disagreed across responses maps to
    /// `"!conflict"`.
    pub checks: std::collections::BTreeMap<String, String>,
    /// Client-side submit→response latency of measured requests.
    pub latency: LatencyHistogram,
    /// Max RSS of the agent process, when the probe is available.
    pub rss_kb: Option<u64>,
    /// Wall-clock the agent spent offering + draining, in seconds.
    pub elapsed_s: f64,
}

impl AgentSummary {
    /// Encodes the agent's summary line payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("event", Json::str("summary")),
            ("agent", Json::num(self.agent as f64)),
            ("sent", Json::num(self.sent as f64)),
            ("measured", Json::num(self.measured as f64)),
            ("ok", Json::num(self.ok as f64)),
            ("expired", Json::num(self.expired as f64)),
            ("panicked", Json::num(self.panicked as f64)),
            ("errors", Json::num(self.errors as f64)),
            ("lost", Json::num(self.lost as f64)),
            ("retries", Json::num(self.retries as f64)),
            ("failovers", Json::num(self.failovers as f64)),
            ("tail_measured", Json::num(self.tail_measured as f64)),
            ("tail_ok", Json::num(self.tail_ok as f64)),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            ("latency", serve::wire::latency_to_json(&self.latency)),
            ("rss_kb", self.rss_kb.map_or(Json::Null, |r| Json::num(r as f64))),
            ("elapsed_s", Json::num(self.elapsed_s)),
        ])
    }

    /// Decodes [`AgentSummary::to_json`] output.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        fn counter(value: &Json, name: &str) -> Result<u64, String> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("agent summary: missing counter `{name}`"))
        }
        Ok(Self {
            agent: value
                .get("agent")
                .and_then(Json::as_usize)
                .ok_or("agent summary: missing `agent`")?,
            sent: counter(value, "sent")?,
            measured: counter(value, "measured")?,
            ok: counter(value, "ok")?,
            expired: counter(value, "expired")?,
            panicked: counter(value, "panicked")?,
            errors: counter(value, "errors")?,
            lost: counter(value, "lost")?,
            retries: value.get("retries").and_then(Json::as_u64).unwrap_or(0),
            failovers: value.get("failovers").and_then(Json::as_u64).unwrap_or(0),
            tail_measured: value.get("tail_measured").and_then(Json::as_u64).unwrap_or(0),
            tail_ok: value.get("tail_ok").and_then(Json::as_u64).unwrap_or(0),
            checks: value
                .get("checks")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect()
                })
                .unwrap_or_default(),
            latency: serve::wire::latency_from_json(
                value.get("latency").ok_or("agent summary: missing `latency`")?,
            )?,
            rss_kb: value.get("rss_kb").and_then(Json::as_u64),
            elapsed_s: value
                .get("elapsed_s")
                .and_then(Json::as_f64)
                .ok_or("agent summary: missing `elapsed_s`")?,
        })
    }
}

/// One shard process's endgame, as collected by the sharded scenario
/// runner.
#[derive(Debug, Clone)]
pub struct ShardProcessStats {
    /// Shard index within the scenario.
    pub shard: usize,
    /// Whether the chaos timer SIGKILLed this shard mid-window.
    pub killed: bool,
    /// Max RSS of the shard process (kB); `None` for a killed shard.
    pub rss_kb: Option<u64>,
    /// The shard's router counters; `None` for a killed shard (its stats
    /// died with it — which is the point of the exercise).
    pub router: Option<serve::RouterStatsWire>,
}

/// The merged outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario as run.
    pub config: ScenarioConfig,
    /// Profile the scenario was instantiated for.
    pub profile: String,
    /// Per-agent raw summaries, by agent index.
    pub agent_summaries: Vec<AgentSummary>,
    /// Lossless merge of every agent's latency histogram.
    pub latency: LatencyHistogram,
    /// Sum of the agents' `sent` counters.
    pub sent: u64,
    /// Sum of the agents' measured (post-warmup) request counters.
    pub measured: u64,
    /// Measured successes across agents.
    pub ok: u64,
    /// Measured deadline expiries across agents.
    pub expired: u64,
    /// Measured contained-panic failures across agents.
    pub panicked: u64,
    /// Other measured failures across agents.
    pub errors: u64,
    /// Requests unanswered at drain time across agents.
    pub lost: u64,
    /// Client-side retry attempts across agents (sharded runs).
    pub retries: u64,
    /// Client-side shard failovers across agents (sharded runs).
    pub failovers: u64,
    /// Measured requests offered in the tail window across agents.
    pub tail_measured: u64,
    /// Tail-window successes across agents.
    pub tail_ok: u64,
    /// Merged response checksums (`"stream:poolslot"` → FNV hash);
    /// disagreements across agents collapse to `"!conflict"`.
    pub checks: std::collections::BTreeMap<String, String>,
    /// Measured successes per second of measured window.
    pub throughput_rps: f64,
    /// Max RSS of the server process (kB), when the probe is available.
    pub server_rss_kb: Option<u64>,
    /// Largest load-agent max RSS (kB), when the probe is available.
    pub load_agent_rss_kb: Option<u64>,
    /// The server's own router counters, shipped over the stats line. In
    /// sharded runs this is the surviving shards' merge (counters summed,
    /// histograms merged, engine labels prefixed `s<shard>/`).
    pub router: serve::RouterStatsWire,
    /// Per-shard process stats (empty for single-process runs).
    pub shards: Vec<ShardProcessStats>,
    /// The registry's counters (sharded runs only): epoch, evictions,
    /// per-op counts.
    pub registry: Option<Json>,
    /// Wall-clock of the whole scenario (spawn → server exit), in seconds.
    pub elapsed_s: f64,
}

impl ScenarioOutcome {
    /// Measured success rate (`ok / measured`, 1.0 for an empty window so
    /// an idle control scenario does not read as an outage).
    pub fn success_rate(&self) -> f64 {
        if self.measured == 0 {
            1.0
        } else {
            self.ok as f64 / self.measured as f64
        }
    }

    /// Success rate over the tail window alone (the final quarter of the
    /// measured span). For a shard-kill scenario this is the *recovered*
    /// rate: the kill lands mid-window, so a topology that fails over
    /// shows a healthy tail even though the blackout dents the overall
    /// rate.
    pub fn tail_success_rate(&self) -> f64 {
        if self.tail_measured == 0 {
            1.0
        } else {
            self.tail_ok as f64 / self.tail_measured as f64
        }
    }
}

/// Resolves a sibling agent binary (`serve_agent`, `load_agent`): the
/// directory of the current executable, or its parent (tests run from
/// `target/<profile>/deps/`).
pub fn agent_bin_path(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    let mut candidates = vec![dir.join(name)];
    if let Some(parent) = dir.parent() {
        candidates.push(parent.join(name));
    }
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| format!("agent binary `{name}` not found next to {}", exe.display()))
}

/// A child's stdout pumped line-by-line through a channel, so every
/// protocol read can time out instead of hanging the harness on a wedged
/// agent.
struct LinePump {
    rx: mpsc::Receiver<std::io::Result<String>>,
}

impl LinePump {
    fn new(stdout: std::process::ChildStdout) -> Self {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                let failed = line.is_err();
                if tx.send(line).is_err() || failed {
                    break;
                }
            }
        });
        Self { rx }
    }

    fn next_line(&self, what: &str) -> Result<String, String> {
        match self.rx.recv_timeout(AGENT_LINE_TIMEOUT) {
            Ok(Ok(line)) => Ok(line),
            Ok(Err(e)) => Err(format!("reading {what}: {e}")),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("timed out waiting for {what}")),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(format!("agent exited before sending {what}"))
            }
        }
    }

    /// Reads lines until one parses as a JSON object with `"event": what`.
    fn next_event(&self, what: &str) -> Result<Json, String> {
        loop {
            let line = self.next_line(what)?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let value = Json::parse(trimmed)
                .map_err(|e| format!("bad protocol line while waiting for {what}: {e} ({trimmed})"))?;
            match value.get("event").and_then(Json::as_str) {
                Some(event) if event == what => return Ok(value),
                Some("error") => {
                    let detail =
                        value.get("detail").and_then(Json::as_str).unwrap_or("unknown agent error");
                    return Err(format!("agent reported an error: {detail}"));
                }
                _ => continue,
            }
        }
    }
}

fn spawn_agent(path: &PathBuf, config_line: &str) -> Result<(Child, LinePump), String> {
    let mut child = Command::new(path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", path.display()))?;
    {
        let stdin = child.stdin.as_mut().ok_or("agent stdin not piped")?;
        stdin
            .write_all(config_line.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing agent config: {e}"))?;
    }
    let stdout = child.stdout.take().ok_or("agent stdout not piped")?;
    Ok((child, LinePump::new(stdout)))
}

fn reap(mut child: Child, what: &str) -> Result<(), String> {
    match child.wait() {
        Ok(status) if status.success() => Ok(()),
        Ok(status) => Err(format!("{what} exited with {status}")),
        Err(e) => Err(format!("waiting for {what}: {e}")),
    }
}

/// Load-agent summaries folded into scenario-wide totals.
struct MergedLoad {
    summaries: Vec<AgentSummary>,
    latency: LatencyHistogram,
    sent: u64,
    measured: u64,
    ok: u64,
    expired: u64,
    panicked: u64,
    errors: u64,
    lost: u64,
    retries: u64,
    failovers: u64,
    tail_measured: u64,
    tail_ok: u64,
    checks: std::collections::BTreeMap<String, String>,
    load_agent_rss_kb: Option<u64>,
}

fn merge_load(mut summaries: Vec<AgentSummary>) -> MergedLoad {
    summaries.sort_by_key(|s| s.agent);
    let mut merged = MergedLoad {
        summaries: Vec::new(),
        latency: LatencyHistogram::default(),
        sent: 0,
        measured: 0,
        ok: 0,
        expired: 0,
        panicked: 0,
        errors: 0,
        lost: 0,
        retries: 0,
        failovers: 0,
        tail_measured: 0,
        tail_ok: 0,
        checks: std::collections::BTreeMap::new(),
        load_agent_rss_kb: summaries.iter().filter_map(|s| s.rss_kb).max(),
    };
    for summary in &summaries {
        merged.latency.merge(&summary.latency);
        merged.sent += summary.sent;
        merged.measured += summary.measured;
        merged.ok += summary.ok;
        merged.expired += summary.expired;
        merged.panicked += summary.panicked;
        merged.errors += summary.errors;
        merged.lost += summary.lost;
        merged.retries += summary.retries;
        merged.failovers += summary.failovers;
        merged.tail_measured += summary.tail_measured;
        merged.tail_ok += summary.tail_ok;
        // Checksums are keyed by (stream, pool slot), which pins the input
        // frame bit-for-bit — every agent (and every serving process) must
        // therefore agree on the output.
        for (key, sum) in &summary.checks {
            match merged.checks.get(key) {
                None => {
                    merged.checks.insert(key.clone(), sum.clone());
                }
                Some(existing) if existing != sum => {
                    merged.checks.insert(key.clone(), "!conflict".to_string());
                }
                Some(_) => {}
            }
        }
    }
    merged.summaries = summaries;
    merged
}

/// Merges the surviving shards' router stats into one [`RouterStatsWire`]:
/// counters summed, latency histograms merged losslessly, engine and
/// degrade entries concatenated under `s<shard>/`-prefixed stream labels
/// so the per-shard breakdown survives the merge.
fn merge_router_stats(shards: &[ShardProcessStats]) -> serve::RouterStatsWire {
    let mut server: serve::ServerStats = Default::default();
    let mut engines = Vec::new();
    let mut degrade = Vec::new();
    let mut resilience: serve::ResilienceStats = Default::default();
    for stats in shards {
        let Some(wire) = &stats.router else { continue };
        server.submitted += wire.server.submitted;
        server.completed += wire.server.completed;
        server.batches += wire.server.batches;
        server.max_batch_observed = server.max_batch_observed.max(wire.server.max_batch_observed);
        server.deadline_expired += wire.server.deadline_expired;
        server.latency.merge(&wire.server.latency);
        for engine in &wire.engines {
            let mut engine = engine.clone();
            engine.stream = format!("s{}/{}", stats.shard, engine.stream);
            engines.push(engine);
        }
        for entry in &wire.degrade {
            let mut entry = entry.clone();
            entry.stream = format!("s{}/{}", stats.shard, entry.stream);
            degrade.push(entry);
        }
        resilience.panics += wire.resilience.panics;
        resilience.retries += wire.resilience.retries;
        resilience.quarantined += wire.resilience.quarantined;
        resilience.quarantines += wire.resilience.quarantines;
        resilience.engines_evicted += wire.resilience.engines_evicted;
    }
    serve::RouterStatsWire { server, engines, degrade, resilience }
}

/// Runs one scenario end-to-end. Single-process topology
/// (`config.shards == 0`): spawns the `serve_agent` and `config.agents`
/// load agents dialing it directly. Sharded topology: spawns the
/// `shard_registry`, `config.shards` shard servers and load agents that
/// route through `shard::ShardClient` — plus, when configured, a chaos
/// timer that SIGKILLs one shard mid-window. Either way, merges the
/// agents' measurements and collects server-side stats and RSS.
pub fn run_scenario(config: &ScenarioConfig, profile: Profile) -> Result<ScenarioOutcome, String> {
    config.validate()?;
    if config.shards > 0 {
        return run_sharded_scenario(config, profile);
    }
    let serve_bin = agent_bin_path("serve_agent")?;
    let load_bin = agent_bin_path("load_agent")?;
    let started = Instant::now();

    let config_json = config.to_json();
    let server_line = Json::obj([("scenario", config_json.clone())]).to_string_compact();
    let (mut server, server_pump) = spawn_agent(&serve_bin, &server_line)?;

    // Everything after the server is up must tear it down on error, or a
    // failed scenario leaks a listening process.
    let result = (|| {
        let ready = server_pump.next_event("ready")?;
        let port =
            ready.get("port").and_then(Json::as_u64).ok_or("ready line without a port")? as u16;

        let mut agents = Vec::with_capacity(config.agents);
        for agent_index in 0..config.agents {
            let line = Json::obj([
                ("scenario", config_json.clone()),
                ("port", Json::num(port as f64)),
                ("agent_index", Json::num(agent_index as f64)),
            ])
            .to_string_compact();
            agents.push(spawn_agent(&load_bin, &line)?);
        }

        let mut summaries = Vec::with_capacity(config.agents);
        for (child, pump) in agents {
            let summary = AgentSummary::from_json(&pump.next_event("summary")?)?;
            reap(child, "load_agent")?;
            summaries.push(summary);
        }
        summaries.sort_by_key(|s| s.agent);

        // Ask the server for its stats and let it exit.
        if let Some(stdin) = server.stdin.as_mut() {
            let _ = stdin.write_all(b"shutdown\n").and_then(|_| stdin.flush());
        }
        let stats_line = server_pump.next_event("stats")?;
        let router = serve::RouterStatsWire::from_json(
            stats_line.get("router").ok_or("stats line without router stats")?,
        )?;
        let server_rss_kb = stats_line.get("rss_kb").and_then(Json::as_u64);
        Ok((summaries, router, server_rss_kb))
    })();

    let (summaries, router, server_rss_kb) = match result {
        Ok(parts) => parts,
        Err(e) => {
            let _ = server.kill();
            let _ = server.wait();
            return Err(e);
        }
    };
    reap(server, "serve_agent")?;

    let merged = merge_load(summaries);
    let measured_window_s = (config.duration_ms - config.warmup_ms) as f64 / 1e3;
    Ok(outcome_from(config, profile, merged, router, server_rss_kb, measured_window_s, Vec::new(), None, started))
}

/// Assembles the outcome struct shared by both topologies.
#[allow(clippy::too_many_arguments)]
fn outcome_from(
    config: &ScenarioConfig,
    profile: Profile,
    merged: MergedLoad,
    router: serve::RouterStatsWire,
    server_rss_kb: Option<u64>,
    measured_window_s: f64,
    shards: Vec<ShardProcessStats>,
    registry: Option<Json>,
    started: Instant,
) -> ScenarioOutcome {
    ScenarioOutcome {
        config: config.clone(),
        profile: profile.name().to_string(),
        agent_summaries: merged.summaries,
        latency: merged.latency,
        sent: merged.sent,
        measured: merged.measured,
        ok: merged.ok,
        expired: merged.expired,
        panicked: merged.panicked,
        errors: merged.errors,
        lost: merged.lost,
        retries: merged.retries,
        failovers: merged.failovers,
        tail_measured: merged.tail_measured,
        tail_ok: merged.tail_ok,
        checks: merged.checks,
        throughput_rps: merged.ok as f64 / measured_window_s,
        server_rss_kb,
        load_agent_rss_kb: merged.load_agent_rss_kb,
        router,
        shards,
        registry,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// The sharded topology runner (see [`run_scenario`]). Spawn order
/// matters: the registry first (shards need its port), then every shard —
/// each waited for until it reports `ready`, i.e. *registered* — so the
/// routing table is complete before the first load agent dials in.
fn run_sharded_scenario(config: &ScenarioConfig, profile: Profile) -> Result<ScenarioOutcome, String> {
    let registry_bin = agent_bin_path("shard_registry")?;
    let shard_bin = agent_bin_path("shard_agent")?;
    let load_bin = agent_bin_path("load_agent")?;
    let started = Instant::now();
    let config_json = config.to_json();

    let registry_line =
        Json::obj([("lease_ttl_ms", Json::num(config.lease_ttl_ms as f64))]).to_string_compact();
    let (mut registry, registry_pump) = spawn_agent(&registry_bin, &registry_line)?;

    let mut shards: Vec<(Child, LinePump)> = Vec::new();
    let mut loads: Vec<(Child, LinePump)> = Vec::new();
    // The chaos timer holds only the victim's pid; on an error exit the
    // harness kills all children itself, and this flag keeps a late timer
    // from firing at a by-then-recycled pid.
    let disarm = Arc::new(AtomicBool::new(false));

    let result = (|| {
        let ready = registry_pump.next_event("ready")?;
        let registry_port =
            ready.get("port").and_then(Json::as_u64).ok_or("registry ready line without a port")?;

        for shard_index in 0..config.shards {
            let line = Json::obj([
                ("scenario", config_json.clone()),
                ("registry_port", Json::num(registry_port as f64)),
                ("shard_index", Json::num(shard_index as f64)),
            ])
            .to_string_compact();
            let (child, pump) = spawn_agent(&shard_bin, &line)?;
            pump.next_event("ready")?;
            shards.push((child, pump));
        }

        for agent_index in 0..config.agents {
            let line = Json::obj([
                ("scenario", config_json.clone()),
                ("registry_port", Json::num(registry_port as f64)),
                ("agent_index", Json::num(agent_index as f64)),
            ])
            .to_string_compact();
            loads.push(spawn_agent(&load_bin, &line)?);
        }

        let victim = config.shards - 1;
        if let Some(kill_at) = config.kill_shard_at_ms {
            let pid = shards[victim].0.id();
            let disarm = Arc::clone(&disarm);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(kill_at));
                if !disarm.load(std::sync::atomic::Ordering::Relaxed) {
                    // SIGKILL, not SIGTERM: the scenario models a crash, so
                    // the shard must get no chance to deregister cleanly.
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                }
            });
        }

        let mut summaries = Vec::with_capacity(config.agents);
        for (child, pump) in loads.drain(..) {
            let summary = AgentSummary::from_json(&pump.next_event("summary")?)?;
            reap(child, "load_agent")?;
            summaries.push(summary);
        }

        let killed = config.kill_shard_at_ms.map(|_| victim);
        let mut shard_stats = Vec::with_capacity(config.shards);
        for (shard_index, (mut child, pump)) in shards.drain(..).enumerate() {
            if Some(shard_index) == killed {
                let _ = child.kill(); // no-op once the chaos timer has fired
                let _ = child.wait();
                shard_stats.push(ShardProcessStats {
                    shard: shard_index,
                    killed: true,
                    rss_kb: None,
                    router: None,
                });
                continue;
            }
            if let Some(stdin) = child.stdin.as_mut() {
                let _ = stdin.write_all(b"shutdown\n").and_then(|_| stdin.flush());
            }
            let stats_line = pump.next_event("stats")?;
            let router = serve::RouterStatsWire::from_json(
                stats_line.get("router").ok_or("shard stats line without router stats")?,
            )?;
            let rss_kb = stats_line.get("rss_kb").and_then(Json::as_u64);
            reap(child, "shard_agent")?;
            shard_stats.push(ShardProcessStats {
                shard: shard_index,
                killed: false,
                rss_kb,
                router: Some(router),
            });
        }

        if let Some(stdin) = registry.stdin.as_mut() {
            let _ = stdin.write_all(b"shutdown\n").and_then(|_| stdin.flush());
        }
        let registry_stats = registry_pump
            .next_event("stats")?
            .get("registry")
            .cloned()
            .ok_or("registry stats line without a registry object")?;
        Ok((summaries, shard_stats, registry_stats))
    })();

    let (summaries, shard_stats, registry_stats) = match result {
        Ok(parts) => parts,
        Err(e) => {
            disarm.store(true, std::sync::atomic::Ordering::Relaxed);
            for (mut child, _) in shards.drain(..).chain(loads.drain(..)) {
                let _ = child.kill();
                let _ = child.wait();
            }
            let _ = registry.kill();
            let _ = registry.wait();
            return Err(e);
        }
    };
    reap(registry, "shard_registry")?;

    let merged = merge_load(summaries);
    let router = merge_router_stats(&shard_stats);
    let server_rss_kb = shard_stats.iter().filter_map(|s| s.rss_kb).max();
    let measured_window_s = (config.duration_ms - config.warmup_ms) as f64 / 1e3;
    Ok(outcome_from(
        config,
        profile,
        merged,
        router,
        server_rss_kb,
        measured_window_s,
        shard_stats,
        Some(registry_stats),
        started,
    ))
}

/// Builds the stable `summary.json` document for one scenario outcome.
pub fn summary_json(outcome: &ScenarioOutcome) -> Json {
    let latency_us = Json::obj([
        ("p50", Json::num(outcome.latency.p50().as_micros() as f64)),
        ("p99", Json::num(outcome.latency.p99().as_micros() as f64)),
        ("mean", Json::num(outcome.latency.mean().as_micros() as f64)),
        ("count", Json::num(outcome.latency.count() as f64)),
    ]);
    let mut pairs: Vec<(String, Json)> = vec![
        ("schema_version".to_string(), Json::num(SCHEMA_VERSION as f64)),
        ("scenario".to_string(), Json::str(outcome.config.name.clone())),
        ("profile".to_string(), Json::str(outcome.profile.clone())),
        (
            "processes".to_string(),
            Json::obj([
                (
                    "server",
                    Json::num(if outcome.config.shards > 0 {
                        outcome.config.shards as f64
                    } else {
                        1.0
                    }),
                ),
                ("registry", Json::num(if outcome.config.shards > 0 { 1.0 } else { 0.0 })),
                ("load_agents", Json::num(outcome.config.agents as f64)),
            ]),
        ),
        ("config".to_string(), outcome.config.to_json()),
        (
            "requests".to_string(),
            Json::obj([
                ("sent", Json::num(outcome.sent as f64)),
                ("measured", Json::num(outcome.measured as f64)),
                ("ok", Json::num(outcome.ok as f64)),
                ("expired", Json::num(outcome.expired as f64)),
                ("panicked", Json::num(outcome.panicked as f64)),
                ("errors", Json::num(outcome.errors as f64)),
                ("lost", Json::num(outcome.lost as f64)),
            ]),
        ),
        (
            "client".to_string(),
            Json::obj([
                ("retries", Json::num(outcome.retries as f64)),
                ("failovers", Json::num(outcome.failovers as f64)),
            ]),
        ),
        (
            "tail".to_string(),
            Json::obj([
                ("measured", Json::num(outcome.tail_measured as f64)),
                ("ok", Json::num(outcome.tail_ok as f64)),
                ("success_rate", Json::num(outcome.tail_success_rate())),
            ]),
        ),
        (
            "checks".to_string(),
            Json::Obj(
                outcome.checks.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect(),
            ),
        ),
        ("latency_us".to_string(), latency_us),
        ("latency_histogram".to_string(), serve::wire::latency_to_json(&outcome.latency)),
        ("throughput_rps".to_string(), Json::num(outcome.throughput_rps)),
        ("success_rate".to_string(), Json::num(outcome.success_rate())),
        (
            "rss_kb".to_string(),
            Json::obj([
                ("server_max", outcome.server_rss_kb.map_or(Json::Null, |r| Json::num(r as f64))),
                (
                    "load_agent_max",
                    outcome.load_agent_rss_kb.map_or(Json::Null, |r| Json::num(r as f64)),
                ),
            ]),
        ),
        ("server".to_string(), outcome.router.to_json()),
    ];
    if !outcome.shards.is_empty() {
        pairs.push((
            "shards".to_string(),
            Json::arr(outcome.shards.iter().map(|s| {
                Json::obj([
                    ("shard", Json::num(s.shard as f64)),
                    ("killed", Json::Bool(s.killed)),
                    ("rss_kb", s.rss_kb.map_or(Json::Null, |r| Json::num(r as f64))),
                    ("router", s.router.as_ref().map_or(Json::Null, |r| r.to_json())),
                ])
            })),
        ));
    }
    if let Some(registry) = &outcome.registry {
        pairs.push(("registry".to_string(), registry.clone()));
    }
    pairs.push(("elapsed_s".to_string(), Json::num(outcome.elapsed_s)));
    Json::Obj(pairs)
}

/// Flattens the gate-relevant metrics out of a `summary.json` document —
/// the shared vocabulary of `BENCH_baseline.json`, `ci_tolerances.json`
/// and the `bench_compare` gate.
pub fn summary_metrics(summary: &Json) -> Vec<(String, f64)> {
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.push((name.to_string(), v));
        }
    };
    let latency = summary.get("latency_us");
    push("p50_us", latency.and_then(|l| l.get("p50")).and_then(Json::as_f64));
    push("p99_us", latency.and_then(|l| l.get("p99")).and_then(Json::as_f64));
    push("mean_us", latency.and_then(|l| l.get("mean")).and_then(Json::as_f64));
    push("throughput_rps", summary.get("throughput_rps").and_then(Json::as_f64));
    push("success_rate", summary.get("success_rate").and_then(Json::as_f64));
    let requests = summary.get("requests");
    push("expired", requests.and_then(|r| r.get("expired")).and_then(Json::as_f64));
    push("panicked", requests.and_then(|r| r.get("panicked")).and_then(Json::as_f64));
    push("errors", requests.and_then(|r| r.get("errors")).and_then(Json::as_f64));
    push("lost", requests.and_then(|r| r.get("lost")).and_then(Json::as_f64));
    push(
        "server_rss_kb",
        summary.get("rss_kb").and_then(|r| r.get("server_max")).and_then(Json::as_f64),
    );
    let client = summary.get("client");
    push("retries", client.and_then(|c| c.get("retries")).and_then(Json::as_f64));
    push("failovers", client.and_then(|c| c.get("failovers")).and_then(Json::as_f64));
    push(
        "tail_success_rate",
        summary.get("tail").and_then(|t| t.get("success_rate")).and_then(Json::as_f64),
    );
    // Image-quality summaries (eval_quality) carry their gate metrics under
    // a `quality` object; flatten them into the shared vocabulary.
    let quality = summary.get("quality");
    push("cr_db", quality.and_then(|q| q.get("cr_db")).and_then(Json::as_f64));
    push("cnr", quality.and_then(|q| q.get("cnr")).and_then(Json::as_f64));
    push("gcnr", quality.and_then(|q| q.get("gcnr")).and_then(Json::as_f64));
    push("fwhm_mm", quality.and_then(|q| q.get("fwhm_mm")).and_then(Json::as_f64));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_validates_and_round_trips() {
        let mut config = ScenarioConfig::named("round_trip");
        config.streams = vec![
            StreamLoad::new("das"),
            StreamLoad { weight: 3, channels: Some(16), grid: Some((24, 12)), ..StreamLoad::new("das-planned") },
            StreamLoad::new("chaos:das-planned"),
        ];
        config.chaos = Some(ChaosSpec { seed: 7, panic_one_in: 16, delay_one_in: 2, delay_ms: 5 });
        config.degrade_ladder = Some(vec!["chaos:das-planned".into(), "das-planned".into()]);
        config.deadline_ms = Some(25);
        config.load = LoadModel::OpenLoopPoisson { rate_hz: 123.5 };
        config.validate().expect("valid");
        let parsed = ScenarioConfig::from_json(&config.to_json()).expect("round trip");
        assert_eq!(parsed, config);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = ScenarioConfig::named("ok");
        base.validate().expect("base config is valid");
        let mut broken: Vec<(&str, ScenarioConfig)> = Vec::new();
        let mut with = |label, f: &dyn Fn(&mut ScenarioConfig)| {
            let mut c = base.clone();
            f(&mut c);
            broken.push((label, c));
        };
        with("zero duration", &|c| c.duration_ms = 0);
        with("warmup >= duration", &|c| c.warmup_ms = c.duration_ms);
        with("empty streams", &|c| c.streams.clear());
        with("all weights zero", &|c| c.streams[0].weight = 0);
        with("zero agents", &|c| c.agents = 0);
        with("zero max_batch", &|c| c.max_batch = 0);
        with("zero deadline", &|c| c.deadline_ms = Some(0));
        with("bad name", &|c| c.name = "No Spaces Allowed".into());
        with("zero inflight", &|c| c.load = LoadModel::ClosedLoop { inflight: 0 });
        with("zero rate", &|c| c.load = LoadModel::OpenLoopPoisson { rate_hz: 0.0 });
        with("nan rate", &|c| c.load = LoadModel::OpenLoopPoisson { rate_hz: f64::NAN });
        with("chaos label without schedule", &|c| c.streams[0].backend = "chaos:das".into());
        with("one-rung ladder", &|c| c.degrade_ladder = Some(vec!["das".into()]));
        with("zero engine ttl", &|c| c.engine_ttl_ms = Some(0));
        with("empty activity window", &|c| {
            c.streams.push(StreamLoad {
                active_from_ms: Some(300),
                active_until_ms: Some(300),
                ..StreamLoad::new("das")
            });
        });
        with("no always-active stream", &|c| {
            c.streams[0].active_from_ms = Some(100);
        });
        with("sharded without deadline", &|c| {
            c.shards = 2;
            c.deadline_ms = None;
        });
        with("sharded open loop", &|c| {
            c.shards = 2;
            c.deadline_ms = Some(200);
            c.load = LoadModel::OpenLoopPoisson { rate_hz: 50.0 };
        });
        with("heartbeat too close to ttl", &|c| {
            c.shards = 2;
            c.deadline_ms = Some(200);
            c.lease_ttl_ms = 100;
            c.heartbeat_ms = 80;
        });
        with("kill with one shard", &|c| {
            c.shards = 1;
            c.deadline_ms = Some(200);
            c.kill_shard_at_ms = Some(100);
        });
        with("kill outside the window", &|c| {
            c.shards = 2;
            c.deadline_ms = Some(200);
            c.kill_shard_at_ms = Some(c.duration_ms);
        });
        for (label, config) in broken {
            assert!(config.validate().is_err(), "{label} must be rejected");
        }
    }

    #[test]
    fn sharded_and_churn_configs_round_trip() {
        let mut config = ScenarioConfig::named("sharded_round_trip");
        config.streams = vec![
            StreamLoad::new("das-planned"),
            StreamLoad {
                active_from_ms: Some(200),
                active_until_ms: Some(600),
                ..StreamLoad::new("das")
            },
        ];
        config.shards = 2;
        config.deadline_ms = Some(400);
        config.lease_ttl_ms = 300;
        config.heartbeat_ms = 90;
        config.kill_shard_at_ms = Some(500);
        config.engine_ttl_ms = Some(150);
        config.validate().expect("valid");
        let parsed = ScenarioConfig::from_json(&config.to_json()).expect("round trip");
        assert_eq!(parsed, config);
    }

    #[test]
    fn stream_activity_windows_clip_the_offer() {
        let stream = StreamLoad {
            active_from_ms: Some(100),
            active_until_ms: Some(200),
            ..StreamLoad::new("das")
        };
        assert!(!stream.is_active_at(99));
        assert!(stream.is_active_at(100));
        assert!(stream.is_active_at(199));
        assert!(!stream.is_active_at(200));
        assert!(StreamLoad::new("das").is_active_at(0));
    }

    #[test]
    fn agent_summary_round_trips() {
        let mut latency = LatencyHistogram::default();
        for i in 0..50u64 {
            latency.record(Duration::from_micros(100 + i * 97));
        }
        let summary = AgentSummary {
            agent: 3,
            sent: 120,
            measured: 100,
            ok: 90,
            expired: 6,
            panicked: 3,
            errors: 1,
            lost: 0,
            retries: 4,
            failovers: 2,
            tail_measured: 25,
            tail_ok: 24,
            checks: [("0:3".to_string(), "00ff00ff00ff00ff".to_string())].into_iter().collect(),
            latency,
            rss_kb: Some(12345),
            elapsed_s: 1.25,
        };
        let parsed = AgentSummary::from_json(&summary.to_json()).expect("round trip");
        assert_eq!(parsed, summary);
    }

    #[test]
    fn synthetic_frames_are_deterministic() {
        let array = LinearArray::small_test_array();
        let a = synthetic_frame(&array, 128, 42);
        let b = synthetic_frame(&array, 128, 42);
        let c = synthetic_frame(&array, 128, 43);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }

    /// The LCG as one serial loop, one dependent step per sample: the
    /// oracle the lane form must reproduce.
    fn serial_lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn bits(samples: &[f32]) -> Vec<u32> {
        samples.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lane_lcg_equals_the_serial_loop_bit_for_bit() {
        let lengths =
            [0, 1, LCG_LANES - 1, LCG_LANES, LCG_LANES + 1, 3 * LCG_LANES + 5, LCG_CHUNK, 2 * LCG_CHUNK + LCG_LANES + 7];
        for seed in [0, 1, 42, 0x5EED, u64::MAX] {
            for len in lengths {
                assert_eq!(bits(&lcg_samples(seed, len)), bits(&serial_lcg(seed, len)), "seed {seed}, {len} samples");
            }
        }
    }

    #[test]
    fn synthetic_frame_is_the_serial_lcg_in_sample_major_order() {
        for (channels, num_samples, seed) in [(3, 1, 9), (5, 7, 2026), (17, 129, 0), (128, 33, u64::MAX)] {
            let array = LinearArray::small_test_array().with_num_elements(channels);
            let frame = synthetic_frame(&array, num_samples, seed);
            assert_eq!((frame.num_samples(), frame.num_channels()), (num_samples, channels));
            assert_eq!(frame.sampling_frequency(), array.sampling_frequency());
            assert_eq!(frame.start_time(), 0.0);
            assert_eq!(bits(frame.as_slice()), bits(&serial_lcg(seed, num_samples * channels)));
        }
    }

    #[test]
    fn rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = max_rss_kb().expect("VmHWM must parse on Linux");
            assert!(rss > 0);
        }
    }

    #[test]
    fn summary_metrics_cover_the_gate_vocabulary() {
        let outcome = ScenarioOutcome {
            config: ScenarioConfig::named("metrics"),
            profile: "fast".into(),
            agent_summaries: Vec::new(),
            latency: LatencyHistogram::default(),
            sent: 10,
            measured: 8,
            ok: 7,
            expired: 1,
            panicked: 0,
            errors: 0,
            lost: 0,
            retries: 3,
            failovers: 1,
            tail_measured: 2,
            tail_ok: 2,
            checks: std::collections::BTreeMap::new(),
            throughput_rps: 11.7,
            server_rss_kb: Some(4096),
            load_agent_rss_kb: Some(2048),
            router: serve::RouterStatsWire {
                server: Default::default(),
                engines: Vec::new(),
                degrade: Vec::new(),
                resilience: Default::default(),
            },
            shards: Vec::new(),
            registry: None,
            elapsed_s: 0.9,
        };
        let summary = summary_json(&outcome);
        assert_eq!(summary.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let metrics = summary_metrics(&summary);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "p50_us",
            "p99_us",
            "mean_us",
            "throughput_rps",
            "success_rate",
            "expired",
            "panicked",
            "lost",
            "retries",
            "failovers",
            "tail_success_rate",
            "server_rss_kb",
        ] {
            assert!(names.contains(&expected), "metric {expected} missing from {names:?}");
        }
        let lookup = |n: &str| metrics.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(lookup("success_rate"), 7.0 / 8.0);
        assert_eq!(lookup("tail_success_rate"), 1.0);
        assert_eq!(lookup("retries"), 3.0);
        assert_eq!(lookup("server_rss_kb"), 4096.0);
    }

    #[test]
    fn summary_metrics_flatten_quality_summaries() {
        // eval_quality summaries carry only a `quality` object; the gate
        // vocabulary must pick its four metrics up (and nothing else).
        let summary = Json::obj([
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("scenario", Json::str("quality_tiny-vbf-fx16")),
            ("profile", Json::str("fast")),
            (
                "quality",
                Json::obj([
                    ("cr_db", Json::num(11.5)),
                    ("cnr", Json::num(1.4)),
                    ("gcnr", Json::num(0.87)),
                    ("fwhm_mm", Json::num(0.62)),
                    ("sqnr_db", Json::num(64.0)),
                ]),
            ),
        ]);
        let metrics = summary_metrics(&summary);
        assert_eq!(
            metrics,
            vec![
                ("cr_db".to_string(), 11.5),
                ("cnr".to_string(), 1.4),
                ("gcnr".to_string(), 0.87),
                ("fwhm_mm".to_string(), 0.62),
            ]
        );
    }
}
