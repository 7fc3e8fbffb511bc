//! Shared serving datapath of the scenario agent binaries.
//!
//! `serve_agent` (the single-process scenario server) and `shard_agent`
//! (one shard of the registry-coordinated topology) host the exact same
//! stack — the scenario's [`Streams`], a `serve::router::Router`, and a
//! line-frame TCP data plane. This module is that shared stack, so the two
//! binaries differ only in topology: `serve_agent` listens and serves,
//! `shard_agent` additionally registers with the shard registry, renews its
//! heartbeat lease, and rejects requests for stream keys the registry has
//! (re)assigned elsewhere with `status:"wrong_epoch"`.
//!
//! An agent holds no frames between requests. Each request names a stream
//! and a seed, and [`serve_connection`] synthesizes that request's RF frame
//! when it arrives ([`Streams::frame`]): a pure function of the scenario
//! seed, the stream and the slot `seed % FRAME_POOL`. The frame moves into
//! the router without a copy, so the agent's memory is the engines' plans,
//! cubes and scratch plus the frames in flight. [`build_streams`] builds
//! whole pools from the same function, for in-process callers that want
//! every frame up front.
//!
//! Keeping one datapath is also what makes the failover acceptance check
//! meaningful: a surviving shard's responses must be bitwise identical to
//! the single-process router's for the same seeds, which holds trivially
//! when both run this very code. Responses carry an FNV-1a checksum of the
//! beamformed image (`"sum"`) so load agents can assert that identity
//! without shipping images over the wire.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas};
use beamforming::plan::{FrameFormat, PlanCache};
use crate::harness::{synthetic_frame, ChaosSpec, ScenarioConfig};
use quantize::QuantScheme;
use runtime::json::Json;
use runtime::simd;
use serve::router::{FaultPolicy, Router, StreamSpec};
use serve::{
    BatchConfig, ChaosBeamformer, ChaosSchedule, DegradeConfig, ServeError, ServeResult,
    TrySubmitError,
};
use std::collections::HashSet;
use shard::wire::FrameReader;
use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
use ultrasound::ChannelData;

/// Distinct frames per stream: a request with seed `k` is served frame slot
/// `k % FRAME_POOL` of its stream ([`Streams::frame`]). The agents keep none
/// of them resident; [`build_streams`] materializes all of them.
pub const FRAME_POOL: usize = 32;

/// Threads resolving response handles per connection. Handles resolve in
/// roughly dispatch order, so a small pool keeps up with the batcher.
pub const COMPLETION_THREADS: usize = 4;

/// How long the server waits for each complete request line before it
/// closes the connection as dead. Load agents disconnect when done, so only
/// a wedged or vanished peer ever idles this long — without the cap, each
/// one would leak a connection thread.
pub const CONNECTION_IDLE: Duration = Duration::from_secs(120);

/// Budget for writing one response line before the connection is declared
/// dead (a healthy loopback peer drains in microseconds).
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Prints a fatal protocol error line and exits (agent stdio protocol).
pub fn protocol_error(detail: &str) -> ! {
    let line = Json::obj([("event", Json::str("error")), ("detail", Json::str(detail))]);
    println!("{}", line.to_string_compact());
    std::process::exit(1);
}

/// The line an agent prints once it serves on `port`:
/// `{"event":"ready","port":N,"simd":…,"target_features":{…}}`, with the SIMD
/// tier its kernels run under and the build's target features, so a slow
/// build shows from outside the process.
pub fn ready_line(port: u16) -> Json {
    let features = simd::TARGET_FEATURES.map(|(name, on)| (name, Json::Bool(on)));
    Json::obj([
        ("event", Json::str("ready")),
        ("port", Json::num(f64::from(port))),
        ("simd", Json::str(simd::mode().label())),
        ("target_features", Json::obj(features)),
    ])
}

/// Silences backtraces of injected chaos panics (they unwind with a
/// `chaos:` payload and are contained at the router's dispatch boundary)
/// so scenario stderr stays readable. Real panics keep the default hook.
pub fn install_chaos_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with("chaos:"));
        if !injected {
            default_hook(info);
        }
    }));
}

/// Builds the beamformer for a backend label. `chaos:` prefixes wrap the
/// inner backend in a fault-injecting [`ChaosBeamformer`] driven by the
/// scenario's schedule; quantized Tiny-VBF labels share one TOF plan cache
/// across schemes, as in `tests/quant_serving.rs`.
pub fn build_backend(
    label: &str,
    spec: &StreamSpec,
    chaos: &Option<ChaosSpec>,
    shared_tof: &Arc<PlanCache>,
) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
    if let Some(inner) = label.strip_prefix("chaos:") {
        let Some(chaos) = chaos else {
            return Err(ServeError::Engine(format!("backend `{label}` needs a chaos schedule")));
        };
        let mut schedule = ChaosSchedule::seeded(chaos.seed);
        if chaos.panic_one_in > 0 {
            schedule = schedule.panic_one_in(chaos.panic_one_in);
        }
        if chaos.delay_one_in > 0 {
            schedule =
                schedule.delay_one_in(chaos.delay_one_in, Duration::from_millis(chaos.delay_ms));
        }
        let inner = build_backend(inner, spec, &None, shared_tof)?;
        return Ok(Arc::new(ChaosBeamformer::new(inner, schedule)));
    }
    match label {
        "das" => Ok(Arc::new(DelayAndSum::default())),
        "das-planned" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
        _ => match QuantScheme::all().iter().find(|s| s.backend_label() == label) {
            Some(scheme) => {
                let config =
                    TinyVbfConfig::small().for_frame(spec.array.num_elements(), spec.grid.num_cols());
                let model = TinyVbf::new(&config)
                    .map_err(|e| ServeError::Engine(format!("building Tiny-VBF: {e}")))?;
                Ok(Arc::new(QuantizedTinyVbfBeamformer::with_tof_cache(
                    QuantizedTinyVbf::from_model(&model, *scheme),
                    Arc::clone(shared_tof),
                )))
            }
            None => Err(ServeError::Engine(format!("unknown backend `{label}`"))),
        },
    }
}

/// Maps a resolved request to its wire status.
pub fn status_of(result: &ServeResult<IqImage>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ServeError::DeadlineExceeded) => "expired",
        Err(ServeError::EnginePanicked { .. }) | Err(ServeError::WorkerDied) => "panicked",
        Err(_) => "error",
    }
}

/// FNV-1a over the image's interleaved `f32` bit patterns — the bitwise
/// determinism probe responses carry as `"sum"`. Two images checksum equal
/// iff every sample is bit-identical (modulo 64-bit FNV collisions, which
/// the failover acceptance test tolerates at ~2⁻⁶⁴).
///
/// The pixels are hashed in place, `re` then `im` per pixel in row-major
/// order: the bytes of [`IqImage::to_interleaved`] without its copy.
pub fn image_checksum(image: &IqImage) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for pixel in image.as_slice() {
        for value in [pixel.re, pixel.im] {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

/// A scenario's streams as an agent holds them: one spec per stream, and
/// the scenario seed and frame length every stream's frames derive from.
/// It holds no frame; [`Streams::frame`] synthesizes one per call.
pub struct Streams {
    /// One spec per scenario stream, in scenario order.
    pub specs: Vec<StreamSpec>,
    seed: u64,
    num_samples: usize,
}

impl Streams {
    /// The specs of `config`'s streams: each stream's probe (with its
    /// channel override), its grid over 5–20 mm depth, c = 1540 m/s and its
    /// backend.
    pub fn new(config: &ScenarioConfig) -> Self {
        let specs = (0..config.streams.len())
            .map(|index| {
                let array = config.stream_array(index);
                let (rows, cols) = config.stream_grid_shape(index);
                StreamSpec {
                    grid: ImagingGrid::for_array(&array, 5.0e-3, 15.0e-3, rows, cols),
                    array,
                    sound_speed: 1540.0,
                    backend: config.streams[index].backend.clone(),
                }
            })
            .collect();
        Self { specs, seed: config.seed, num_samples: config.num_samples }
    }

    /// Frame `slot` of stream `index`, the frame a request with
    /// `seed % FRAME_POOL == slot` is served. It derives from the scenario
    /// seed alone, so every process serving this scenario — single-process
    /// server or any shard — synthesizes bit-identical frames.
    pub fn frame(&self, index: usize, slot: usize) -> ChannelData {
        let seed = self.seed.wrapping_add((index as u64) << 32).wrapping_add(slot as u64);
        synthetic_frame(&self.specs[index].array, self.num_samples, seed)
    }

    /// The format of every frame of stream `index` ([`synthetic_frame`]'s
    /// frames start at t = 0 and sample at the probe's rate).
    pub fn format(&self, index: usize) -> FrameFormat {
        FrameFormat {
            num_samples: self.num_samples,
            sampling_frequency: self.specs[index].array.sampling_frequency(),
            start_time: 0.0,
        }
    }

    /// Warms (engine spawn + plan build) the given streams from their
    /// frame formats, so the measured window starts from a hot server.
    pub fn warm(&self, router: &Router, indices: impl Iterator<Item = usize>) -> Result<(), String> {
        for index in indices {
            warm(router, &self.specs[index], &self.format(index))?;
        }
        Ok(())
    }
}

/// One spec + seeded frame pool per scenario stream: pool `i` holds
/// [`Streams::frame`]`(i, slot)` for every slot below [`FRAME_POOL`]. For
/// in-process callers that want every frame built up front; the agents
/// synthesize frames per request instead.
pub fn build_streams(config: &ScenarioConfig) -> (Vec<StreamSpec>, Vec<Vec<ChannelData>>) {
    let streams = Streams::new(config);
    let pools = (0..streams.specs.len())
        .map(|index| (0..FRAME_POOL).map(|slot| streams.frame(index, slot)).collect())
        .collect();
    (streams.specs, pools)
}

/// Builds the scenario's router: chaos-aware backend factory, the
/// scenario's batch shape, the degradation ladder when configured, and the
/// idle-engine TTL ([`FaultPolicy::engine_ttl`]) when the scenario churns
/// streams.
pub fn build_router(config: &ScenarioConfig) -> Result<Router, String> {
    let chaos = config.chaos.clone();
    let shared_tof = Arc::new(PlanCache::new(4));
    let factory =
        move |spec: &StreamSpec| build_backend(&spec.backend, spec, &chaos, &shared_tof);
    let batch_config = BatchConfig {
        max_batch: config.max_batch,
        linger: Duration::from_micros(config.linger_us),
        queue_capacity: config.queue_capacity.unwrap_or(1024),
        ..BatchConfig::default()
    };
    let policy = FaultPolicy {
        engine_ttl: config.engine_ttl_ms.map(Duration::from_millis),
        ..FaultPolicy::default()
    };
    let degrade = config.degrade_ladder.as_ref().map(|ladder| {
        // Fast-reacting policy sized to second-scale scenarios: decide
        // every 8 requests, shift after one clean/dirty window.
        DegradeConfig {
            window: 8,
            cooldown_windows: 1,
            downshift_expiry_rate: 0.25,
            upshift_expiry_rate: 0.02,
            ..DegradeConfig::with_ladder(ladder.clone())
        }
    });
    Router::with_policies(batch_config, factory, runtime::default_threads(), policy, degrade)
        .map_err(|e| format!("invalid router config: {e}"))
}

/// Warms (engine spawn + plan build) the given streams from their pools'
/// first frames, so the measured window starts from a hot server.
pub fn warm_streams(
    router: &Router,
    specs: &[StreamSpec],
    pools: &[Vec<ChannelData>],
    indices: impl Iterator<Item = usize>,
) -> Result<(), String> {
    for index in indices {
        warm(router, &specs[index], &FrameFormat::of(&pools[index][0]))?;
    }
    Ok(())
}

fn warm(router: &Router, spec: &StreamSpec, format: &FrameFormat) -> Result<(), String> {
    router.warm(spec, format).map_err(|e| format!("warming `{}`: {e}", spec.backend))
}

/// The shard server's live view of its registry lease, shared between the
/// heartbeat thread (which writes it after every renew) and the data-plane
/// connections (which consult it per request).
#[derive(Clone)]
pub struct ShardView {
    /// Stream keys the registry currently assigns to this shard.
    pub assigned: Arc<Mutex<HashSet<String>>>,
    /// Epoch of the last renew/register — echoed on `wrong_epoch` replies.
    pub epoch: Arc<AtomicU64>,
}

impl ShardView {
    /// An empty view (nothing assigned, epoch 0).
    pub fn new() -> Self {
        Self { assigned: Arc::new(Mutex::new(HashSet::new())), epoch: Arc::new(AtomicU64::new(0)) }
    }

    /// Replaces the assigned-key set and epoch after a register/renew.
    pub fn update(&self, epoch: u64, assigned: impl IntoIterator<Item = String>) {
        *self.assigned.lock().expect("shard view") = assigned.into_iter().collect();
        self.epoch.store(epoch, Ordering::Release);
    }
}

impl Default for ShardView {
    fn default() -> Self {
        Self::new()
    }
}

/// Serves one load-agent connection until it disconnects, idles out or
/// misbehaves: a reader thread synthesizes each request's frame
/// ([`Streams::frame`] of slot `seed % FRAME_POOL`) and submits it,
/// [`COMPLETION_THREADS`] waiters resolve handles and write responses (with
/// the image checksum on success) through a shared writer.
///
/// Requests are read through [`FrameReader`], one JSON object per line under
/// a [`CONNECTION_IDLE`] deadline per line. Any reader error closes the
/// connection: a silent peer, a line longer than
/// [`shard::wire::MAX_FRAME_BYTES`] (so a peer that never sends a newline
/// cannot grow the server's memory), a blank or unparseable line, or EOF.
///
/// With a `shard_view`, requests whose `key` the registry no longer
/// assigns to this shard are answered `status:"wrong_epoch"` instead of
/// being served — the client's signal to refresh its routing table and
/// fail over.
///
/// With `shed_on_full`, submissions that find the router's queue at
/// capacity are refused immediately with `status:"shed"` (a typed,
/// accounted outcome) instead of blocking the reader thread — the fan-in
/// scenario's backpressure contract: overload must surface as data, not
/// as a hung socket.
pub fn serve_connection(
    stream: TcpStream,
    router: Arc<Router>,
    streams: Arc<Streams>,
    deadline: Option<Duration>,
    shard_view: Option<ShardView>,
    shed_on_full: bool,
) {
    // Both socket directions are time-bounded (reads by the frame deadline),
    // so a dead or silent peer can never pin this connection's threads.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = FrameReader::new(stream.try_clone().expect("clone connection"));
    let writer = Arc::new(Mutex::new(BufWriter::new(stream)));
    let (tx, rx) = mpsc::channel::<(u64, serve::ResponseHandle<IqImage>)>();
    let rx = Arc::new(Mutex::new(rx));

    let waiters: Vec<_> = (0..COMPLETION_THREADS)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || loop {
                let next = rx.lock().expect("completion queue").recv();
                let Ok((id, handle)) = next else { break };
                let result = handle.wait();
                let mut pairs = vec![
                    ("id".to_string(), Json::num(id as f64)),
                    ("status".to_string(), Json::str(status_of(&result))),
                ];
                if let Ok(image) = &result {
                    pairs.push(("sum".to_string(), Json::str(image_checksum(image))));
                }
                let line = Json::Obj(pairs).to_string_compact();
                let mut writer = writer.lock().expect("response writer");
                if writeln!(writer, "{line}").and_then(|_| writer.flush()).is_err() {
                    break; // agent went away; drain remaining handles silently
                }
            })
        })
        .collect();

    while let Ok(request) = reader.read_frame(Instant::now() + CONNECTION_IDLE) {
        let (Some(id), Some(stream_idx), Some(seed)) = (
            request.get("id").and_then(Json::as_u64),
            request.get("stream").and_then(Json::as_usize),
            request.get("seed").and_then(Json::as_u64),
        ) else {
            break;
        };
        if stream_idx >= streams.specs.len() {
            break;
        }
        if let Some(view) = &shard_view {
            let key = request.get("key").and_then(Json::as_str).unwrap_or("");
            let assigned = view.assigned.lock().expect("shard view").contains(key);
            if !assigned {
                // This shard no longer owns the key (or never did): tell
                // the client which world we live in and let it re-route.
                let line = Json::obj([
                    ("id", Json::num(id as f64)),
                    ("status", Json::str("wrong_epoch")),
                    ("epoch", Json::num(view.epoch.load(Ordering::Acquire) as f64)),
                ])
                .to_string_compact();
                let mut writer = writer.lock().expect("response writer");
                if writeln!(writer, "{line}").and_then(|_| writer.flush()).is_err() {
                    break;
                }
                continue;
            }
        }
        let frame = streams.frame(stream_idx, seed as usize % FRAME_POOL);
        let spec = &streams.specs[stream_idx];
        let submitted = match (deadline, shed_on_full) {
            (Some(d), false) => router.submit_with_deadline(spec, frame, d),
            (None, false) => router.submit(spec, frame),
            (Some(d), true) => router.try_submit_with_deadline(spec, frame, d),
            (None, true) => router.try_submit(spec, frame),
        };
        match submitted {
            Ok(handle) => {
                if tx.send((id, handle)).is_err() {
                    break;
                }
            }
            Err(e) => {
                // Queue full (shed mode) or shutting down: answer directly
                // so the agent can account for the request instead of
                // counting it lost.
                let status = match e {
                    TrySubmitError::Full(_) => "shed",
                    TrySubmitError::ShuttingDown(_) => "error",
                };
                let line = Json::obj([("id", Json::num(id as f64)), ("status", Json::str(status))])
                    .to_string_compact();
                let mut writer = writer.lock().expect("response writer");
                if writeln!(writer, "{line}").and_then(|_| writer.flush()).is_err() {
                    break;
                }
            }
        }
    }
    drop(tx);
    for waiter in waiters {
        let _ = waiter.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StreamLoad;
    use ultrasound::LinearArray;

    /// FNV-1a over a copy of the interleaved samples: the checksum's form
    /// before it hashed in place.
    fn interleaved_checksum(image: &IqImage) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for value in image.to_interleaved() {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{hash:016x}")
    }

    #[test]
    fn in_place_checksum_equals_the_interleaved_copy_on_special_values() {
        let values = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            1.5,
            -2.25,
        ];
        let grid = ImagingGrid::for_array(&LinearArray::small_test_array(), 5.0e-3, 15.0e-3, 4, 3);
        let mut image = IqImage::zeros(grid);
        for (pixel, value) in values.iter().enumerate() {
            let sample = image.value_mut(pixel / 3, pixel % 3);
            sample.re = *value;
            sample.im = values[values.len() - 1 - pixel];
        }
        assert_eq!(image_checksum(&image), interleaved_checksum(&image));

        // The hash sees bit patterns: swapping the +0 and −0 pixels moves it.
        let mut flipped = image.clone();
        flipped.value_mut(1, 0).re = -0.0;
        flipped.value_mut(1, 1).re = 0.0;
        assert_ne!(image_checksum(&flipped), image_checksum(&image));
        assert_eq!(image_checksum(&flipped), interleaved_checksum(&flipped));
    }

    fn bits(frame: &ChannelData) -> Vec<u32> {
        frame.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn per_request_frames_equal_the_pool_frames_bit_for_bit() {
        let mut config = ScenarioConfig::named("frames");
        config.num_samples = 24;
        config.seed = u64::MAX - 3;
        config.streams = vec![
            StreamLoad::new("das-planned"),
            StreamLoad { channels: Some(5), ..StreamLoad::new("das-planned") },
            StreamLoad { channels: Some(17), grid: Some((6, 3)), ..StreamLoad::new("das") },
        ];
        let streams = Streams::new(&config);
        let (specs, pools) = build_streams(&config);
        assert_eq!(specs, streams.specs);
        for (index, pool) in pools.iter().enumerate() {
            assert_eq!(pool.len(), FRAME_POOL);
            let channels = config.streams[index].channels.unwrap_or(config.channels);
            for (slot, pooled) in pool.iter().enumerate() {
                let frame = streams.frame(index, slot);
                assert_eq!(bits(&frame), bits(pooled), "stream {index}, slot {slot}");
                assert_eq!(frame.num_channels(), channels);
                assert_eq!(FrameFormat::of(&frame), streams.format(index));
                // The slot's seed, as the served checksums have always used it.
                let seed = config.seed.wrapping_add((index as u64) << 32).wrapping_add(slot as u64);
                let expected = synthetic_frame(&config.stream_array(index), config.num_samples, seed);
                assert_eq!(bits(&frame), bits(&expected), "stream {index}, slot {slot}");
            }
        }
    }
}
