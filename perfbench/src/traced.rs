//! The traced run: per-layer metrics from timed calls into each layer's
//! public functions, recorded as spans.
//!
//! Three phases, each with the workload's seed, geometry and the server's
//! thread budget:
//!
//! 1. an untraced served window (a third of `--seconds`) gives the client
//!    latency median the spans are reconciled against;
//! 2. an in-process replay (another third) makes the calls `serve_agent`
//!    makes — `build_streams`, `build_router`, `warm_streams`, then per
//!    request `runtime::json` decode, the pool-frame copy, `Router::submit`
//!    → `ResponseHandle::wait`, `image_checksum` and the response encode —
//!    with the same frames in flight;
//! 3. the engine stages run directly on one of the workload's frames: plan
//!    builds, ToF gather + normalize, DAS gather, Hilbert IQ, every rung's
//!    forward and direct `Beamformer::beamform`, a `par_map_rows` scope and
//!    the `runtime::simd` kernels under each dispatch tier.
//!
//! Spans (name, start, end, parent, request) stay in memory and are written
//! to `<out>/<workload>-seed<n>-spans.jsonl` at the end. Metrics are medians
//! of span self times (span minus its children), plus counts.

use crate::report::{Metric, Report};
use crate::server::{self, References, Server, Tally};
use crate::stats::median;
use crate::timed;
use crate::workloads::{Workload, LADDER};
use beamforming::iq::rf_to_iq_with_threads;
use beamforming::pipeline::{Beamformer, DelayAndSum};
use beamforming::plan::{BeamformPlan, FrameFormat, PlanCache};
use beamforming::tof::tof_correct_planned;
use bench::agent;
use neural::tensor::Tensor;
use quantize::QuantScheme;
use runtime::json::Json;
use runtime::simd::{self, SimdMode};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::{QuantizedTinyVbf, QuantizedTinyVbfBeamformer};
use ultrasound::PlaneWave;

/// Most requests the in-process replay makes (bounds the span file).
const MAX_REPLAY: u64 = 4000;
/// A repeated stage runs until this much time is spent (at least once).
const STAGE_BUDGET: Duration = Duration::from_millis(250);
/// Most repetitions of one stage.
const MAX_REPS: usize = 200;
/// Fewest forward + direct beamform pairs behind the adapter remainder.
const ADAPTER_PAIRS: usize = 3;

struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: Option<u64>,
}

/// In-memory span recorder.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, request: Option<u64>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name: name.into(), start: now, end: now, parent, request });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn time<R>(&mut self, name: &str, parent: Option<usize>, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` under spans named `name` until [`STAGE_BUDGET`] is spent
    /// (once at least, [`MAX_REPS`] at most); returns the last result.
    fn repeat<R>(&mut self, name: &str, parent: usize, mut f: impl FnMut() -> R) -> R {
        let started = Instant::now();
        let mut out = self.time(name, Some(parent), None, &mut f);
        let mut reps = 1;
        while reps < MAX_REPS && started.elapsed() < STAGE_BUDGET {
            out = self.time(name, Some(parent), None, &mut f);
            reps += 1;
        }
        out
    }

    /// Self time in ms of every span named `name`: its duration minus the
    /// part its children cover (children of one span never overlap here).
    fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end - span.start;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(span, _)| span.name == name)
            .map(|(span, covered)| (span.end - span.start).saturating_sub(*covered).as_secs_f64() * 1e3)
            .collect()
    }

    /// Duration (ms) of the most recent span.
    fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, |span| (span.end - span.start).as_secs_f64() * 1e3)
    }

    /// Median self time (ms) of the spans named `name`.
    fn median_ms(&self, name: &str) -> Result<f64, String> {
        let samples = self.self_ms(name);
        if samples.is_empty() {
            return Err(format!("no `{name}` span recorded"));
        }
        Ok(median(&samples))
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::num(id as f64)),
                ("name", Json::str(span.name.clone())),
                ("start_us", Json::num(span.start.as_secs_f64() * 1e6)),
                ("end_us", Json::num(span.end.as_secs_f64() * 1e6)),
                ("parent", span.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                ("request", span.request.map_or(Json::Null, |r| Json::num(r as f64))),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        std::fs::File::create(path)
            .and_then(|mut file| file.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// What the in-process replay measured beyond its spans.
struct Replay {
    tally: Tally,
    /// Per request: served round trip minus the direct call on its frame, µs.
    overhead_us: Vec<f64>,
    mean_batch: f64,
    plan_misses: u64,
}

/// One request in flight through the in-process router.
struct InFlight {
    id: u64,
    key: (usize, usize),
    root: usize,
    roundtrip: usize,
    handle: serve::ResponseHandle<beamforming::IqImage>,
}

/// Phase 2: the serving calls of `serve_agent`, in-process, closed loop.
fn replay(trace: &mut Trace, workload: &Workload, references: &References, seconds: f64) -> Result<Replay, String> {
    let (specs, pools) = trace.time("agent.frame_pool", None, None, || agent::build_streams(&workload.scenario));
    let router = trace.time("serve.build_router", None, None, || agent::build_router(&workload.scenario))?;
    trace.time("serve.warm", None, None, || agent::warm_streams(&router, &specs, &pools, 0..specs.len()))?;

    let submit = |trace: &mut Trace, id: u64| -> Result<InFlight, String> {
        let (stream, seed) = workload.request(id);
        let line = server::request_line(id, stream, seed);
        let root = trace.begin("request", None, Some(id));
        let (stream, seed) = trace
            .time("agent.decode", Some(root), Some(id), || {
                let request = Json::parse(line.trim()).ok()?;
                let stream = request.get("stream").and_then(Json::as_usize)?;
                let seed = request.get("seed").and_then(Json::as_u64)?;
                request.get("id").and_then(Json::as_u64)?;
                Some((stream, seed))
            })
            .ok_or("request line did not decode")?;
        let slot = seed as usize % agent::FRAME_POOL;
        let frame = trace.time("agent.frame_copy", Some(root), Some(id), || pools[stream][slot].clone());
        let roundtrip = trace.begin("serve.roundtrip", Some(root), Some(id));
        let handle = router.submit(&specs[stream], frame).map_err(|_| "the router refused a request")?;
        Ok(InFlight { id, key: (stream, slot), root, roundtrip, handle })
    };

    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut queue = VecDeque::new();
    let mut next_id = 0;
    for _ in 0..workload.inflight {
        queue.push_back(submit(trace, next_id)?);
        next_id += 1;
    }
    let mut tally = Tally::default();
    let mut overhead_us = Vec::new();
    while let Some(request) = queue.pop_front() {
        let result = request.handle.wait();
        trace.end(request.roundtrip);
        tally.sent += 1;
        let id = Some(request.id);
        let reference = references.get(&request.key).ok_or("no reference for a replayed frame")?;
        match result {
            Ok(image) => {
                let sum = trace.time("agent.checksum", Some(request.root), id, || agent::image_checksum(&image));
                let line = trace.time("agent.encode", Some(request.root), id, || {
                    Json::obj([
                        ("id", Json::num(request.id as f64)),
                        ("status", Json::str("ok")),
                        ("sum", Json::str(sum.clone())),
                    ])
                    .to_string_compact()
                });
                black_box(line);
                if sum == reference.sum {
                    tally.verified += 1;
                } else {
                    tally.mismatches += 1;
                }
            }
            Err(e) => eprintln!("perfbench: replayed request {} failed: {e}", request.id),
        }
        trace.end(request.root);
        let span = &trace.spans[request.roundtrip];
        overhead_us.push(((span.end - span.start).as_secs_f64() * 1e3 - reference.direct_ms) * 1e3);
        if Instant::now() < stop && next_id < MAX_REPLAY {
            queue.push_back(submit(trace, next_id)?);
            next_id += 1;
        }
    }
    let stats = router.stats();
    let plan_misses = stats.engines.iter().filter_map(|e| e.plan_cache.as_ref().map(|c| c.misses)).max().unwrap_or(0);
    let mean_batch = stats.server.mean_batch();
    router.shutdown();
    Ok(Replay { tally, overhead_us, mean_batch, plan_misses })
}

/// Short rung name: `tiny-vbf-fx24` → `fx24`.
fn rung(label: &str) -> &str {
    label.trim_start_matches("tiny-vbf-")
}

/// Phase 3: every engine stage run directly on one of the workload's
/// frames. Returns the stage metrics.
fn stages(trace: &mut Trace, workload: &Workload) -> Result<Vec<Metric>, String> {
    let threads = runtime::default_threads();
    let scenario = &workload.scenario;
    let array = scenario.stream_array(0);
    let (specs, pools) = agent::build_streams(scenario);
    let spec = &specs[0];
    let (grid, c) = (&spec.grid, spec.sound_speed);
    let frame = &pools[0][workload.slots[0][0]];
    let format = FrameFormat::of(frame);
    let root = trace.begin("stages", None, None);
    let bf = |e: beamforming::BeamformError| e.to_string();

    let tof_plan = trace.time("beamforming.plan_build.tof", Some(root), None, || {
        BeamformPlan::for_tof(&array, grid, PlaneWave::zero_angle(), c, format)
    });
    let tof_plan = tof_plan.map_err(bf)?;
    let das = DelayAndSum::default();
    let das_plan = trace
        .time("beamforming.plan_build.das", Some(root), None, || BeamformPlan::for_das(&das, &array, grid, c, format));
    let das_plan = das_plan.map_err(bf)?;
    let cube = trace.repeat("beamforming.tof", root, || {
        tof_correct_planned(frame, &tof_plan).map(|mut cube| {
            cube.normalize();
            cube
        })
    });
    let cube = cube.map_err(bf)?;
    let rf = trace.repeat("beamforming.das_gather", root, || das_plan.beamform_rf_with_threads(frame, threads));
    let rf = rf.map_err(bf)?;
    trace.repeat("beamforming.iq", root, || rf_to_iq_with_threads(&rf, grid, threads).map(black_box)).map_err(bf)?;

    // Every rung's engine, forward and direct beamform on the same frame.
    // The adapter's own time (the SQNR probe and image assembly) is direct
    // beamform − ToF − forward, taken per back-to-back pair so both calls
    // see the same host, over the rungs the workload serves (fp when none).
    let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
    let ops = tiny_vbf::gops::tiny_vbf_gops(&config, grid.num_rows(), grid.num_cols()).ops_per_frame;
    let tof_ms = trace.median_ms("beamforming.tof")?;
    let served: Vec<&str> = LADDER.into_iter().filter(|l| specs.iter().any(|s| s.backend == *l)).collect();
    let adapter_rungs = if served.is_empty() { vec![LADDER[0]] } else { served };
    let tof_cache = Arc::new(PlanCache::new(4));
    let mut metrics = Vec::new();
    let mut gops = Vec::new();
    let mut adapter = Vec::new();
    for label in LADDER {
        let scheme = QuantScheme::from_backend_label(label).ok_or_else(|| format!("unknown rung {label}"))?;
        let engine = trace.time("tiny_vbf.engine_build", Some(root), None, || {
            TinyVbf::new(&config).map(|model| QuantizedTinyVbf::from_model(&model, scheme))
        });
        let engine =
            QuantizedTinyVbfBeamformer::with_tof_cache(engine.map_err(|e| e.to_string())?, Arc::clone(&tof_cache));
        engine.prepare(&array, grid, c, &format);
        let forward = format!("tiny_vbf.forward.{}", rung(label));
        let direct = format!("tiny_vbf.beamform.{}", rung(label));
        let min_pairs = if adapter_rungs.contains(&label) { ADAPTER_PAIRS } else { 1 };
        let started = Instant::now();
        let mut pairs = 0;
        while pairs < min_pairs || (pairs < MAX_REPS && started.elapsed() < STAGE_BUDGET) {
            trace
                .time(&forward, Some(root), None, || engine.beamform_cube_with_threads(&cube, grid, threads))
                .map_err(|e| e.to_string())?;
            let forward_ms = trace.last_ms();
            trace.time(&direct, Some(root), None, || engine.beamform(frame, &array, grid, c)).map_err(bf)?;
            if adapter_rungs.contains(&label) {
                adapter.push(trace.last_ms() - tof_ms - forward_ms);
            }
            pairs += 1;
        }
        let forward_ms = trace.median_ms(&forward)?;
        metrics.push(Metric::new(format!("tiny_vbf.forward_ms.{}", rung(label)), "ms", forward_ms));
        gops.push(Metric::new(format!("tiny_vbf.gops_per_s.{}", rung(label)), "GOP/s", ops as f64 / forward_ms / 1e6));
    }
    metrics.extend(gops);
    metrics.push(Metric::new("tiny_vbf.ops_per_frame", "count", ops as f64));
    metrics.push(Metric::new("tiny_vbf.adapter_self_ms", "ms", median(&adapter)));
    metrics.push(Metric::new("tiny_vbf.engine_build_ms", "ms", trace.median_ms("tiny_vbf.engine_build")?));

    // Beamforming layer: the plan the workload's backend streams per frame.
    let das_served = spec.backend.starts_with("das");
    let (plan, kind) = if das_served { (&das_plan, "das") } else { (&tof_plan, "tof") };
    let gbps = |plan: &BeamformPlan, ms: f64| plan.memory_bytes() as f64 / ms / 1e6;
    let das_ms = trace.median_ms("beamforming.das_gather")?;
    metrics.extend([
        Metric::new("beamforming.tof_ms", "ms", tof_ms),
        Metric::new("beamforming.das_gather_ms", "ms", das_ms),
        Metric::new("beamforming.iq_ms", "ms", trace.median_ms("beamforming.iq")?),
        Metric::new("beamforming.plan_build_ms", "ms", trace.median_ms(&format!("beamforming.plan_build.{kind}"))?),
        Metric::new("beamforming.plan_mb", "MB", plan.memory_bytes() as f64 / (1024.0 * 1024.0)),
        Metric::new("beamforming.tof_gbps", "GB/s", gbps(&tof_plan, tof_ms)),
        Metric::new("beamforming.das_gbps", "GB/s", gbps(&das_plan, das_ms)),
    ]);

    // Runtime layer: one parallel scope of trivial work, and the kernels.
    let mut buffer = vec![0.0f32; 16 * 8];
    trace.repeat("runtime.scope", root, || {
        runtime::par_map_rows(&mut buffer, 8, threads, |first, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = (first * 8 + i) as f32;
            }
        })
    });
    metrics.push(Metric::new("runtime.scope_us", "us", trace.median_ms("runtime.scope")? * 1e3));
    metrics.extend(kernels(trace, root));
    trace.end(root);
    Ok(metrics)
}

/// A named kernel call and how many calls one timed batch makes.
type Kernel<'a> = (&'static str, usize, Box<dyn FnMut() + 'a>);

/// `runtime::simd` kernels at paper shapes (128-channel gathers over 1024
/// samples, the 128×128·128×8 encoder matmul, a 64-pair × 128 i16 madd
/// block, a 128 × 128 i64 MAC row) under each tier, in µs per call.
fn kernels(trace: &mut Trace, root: usize) -> Vec<Metric> {
    let mut state = 0x5EED_u64;
    let mut lcg = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    };
    let (channels, samples) = (128usize, 1024usize);
    let flat: Vec<f32> = (0..channels * samples).map(|_| lcg()).collect();
    let tap0: Vec<u32> =
        (0..channels).map(|ch| (ch * samples) as u32 + (lcg().abs() * (samples - 2) as f32) as u32).collect();
    let tap1: Vec<u32> = tap0.iter().map(|t| t + 1).collect();
    let w1: Vec<f32> = (0..channels).map(|_| lcg() + 0.5).collect();
    let w0: Vec<f32> = w1.iter().map(|f| 1.0 - f).collect();
    let apod: Vec<f32> = (0..channels).map(|_| lcg().abs()).collect();
    let mut matrix = |rows: usize, cols: usize| {
        let mut t = Tensor::zeros(&[rows, cols]);
        t.as_mut_slice().iter_mut().for_each(|v| *v = lcg());
        t
    };
    let (a_mat, b_mat) = (matrix(128, 128), matrix(128, 8));
    let a_codes: Vec<i32> = (0..128).map(|_| (lcg() * 20000.0) as i32).collect();
    let b_codes: Vec<i32> = (0..128 * 128).map(|_| (lcg() * 20000.0) as i32).collect();
    let pair = |a: i32, b: i32| simd::pack_i16_pair(a.clamp(-32767, 32767), b.clamp(-32767, 32767));
    let a_pairs: Vec<i32> = (0..64).map(|p| pair(a_codes[2 * p], a_codes[2 * p + 1])).collect();
    let b_pairs: Vec<i32> = (0..64 * 128)
        .map(|i| pair(b_codes[(2 * (i / 128)) * 128 + i % 128], b_codes[(2 * (i / 128) + 1) * 128 + i % 128]))
        .collect();
    let mut gathered = vec![0.0f32; channels];

    let mut kernels: Vec<Kernel> = vec![
        (
            "gather_two_tap",
            2000,
            Box::new(|| {
                simd::gather_two_tap(&flat, &tap0, &tap1, &w0, &w1, &mut gathered);
                black_box(&gathered);
            }),
        ),
        (
            "das_gather_reduce",
            2000,
            Box::new(|| {
                black_box(simd::das_gather_reduce(&flat, &tap0, &tap1, &w0, &w1, &apod));
            }),
        ),
        (
            "matmul_128x128x8",
            250,
            Box::new(|| {
                black_box(a_mat.matmul(&b_mat));
            }),
        ),
        (
            "madd_block",
            2000,
            Box::new(|| {
                let mut acc = [0i32; 128];
                simd::madd_block(&mut acc, &a_pairs, &b_pairs);
                black_box(&acc);
            }),
        ),
        (
            "i64_mac_row",
            500,
            Box::new(|| {
                let mut acc = [0i64; 128];
                simd::i64_mac_row(&mut acc, &a_codes, &b_codes);
                black_box(&acc);
            }),
        ),
    ];
    let mut metrics = Vec::new();
    for (kernel, iters, f) in kernels.iter_mut() {
        for mode in [SimdMode::Scalar, SimdMode::Portable, SimdMode::Native] {
            simd::force_mode(Some(mode));
            let name = format!("runtime.simd.{kernel}.{}", mode.label());
            let batch_ms = {
                for _ in 0..5 {
                    trace.time(&name, Some(root), None, || (0..*iters).for_each(|_| f()));
                }
                median(&trace.self_ms(&name))
            };
            metrics.push(Metric::new(format!("{name}_us"), "us", batch_ms * 1e3 / *iters as f64));
        }
    }
    simd::force_mode(None);
    metrics
}

/// Runs the traced mode of one workload.
pub fn run(bin: &Path, workload: &Workload, seconds: f64, out: &Path, seed: u64) -> Result<Report, String> {
    let references = server::references(workload)?;
    let third = seconds / 3.0;

    // Phase 1: the untraced served latency the spans are reconciled with.
    let (server, _) = Server::start(bin, workload)?;
    let (window, warm) = timed::measure(&server, workload, &references, third)?;
    server.shutdown()?;
    if window.latencies.is_empty() {
        return Err("no verified response inside the untraced window".into());
    }
    let served_p50 = median(&window.latencies);

    // Phase 2 and 3, traced.
    let mut trace = Trace::new();
    let replay = replay(&mut trace, workload, &references, third)?;
    let mut metrics = Vec::new();
    let decode_ms = trace.median_ms("agent.decode")?;
    let copy_ms = trace.median_ms("agent.frame_copy")?;
    let checksum_ms = trace.median_ms("agent.checksum")?;
    let encode_ms = trace.median_ms("agent.encode")?;
    let roundtrip_ms = trace.median_ms("serve.roundtrip")?;
    metrics.extend([
        Metric::new("agent.decode_us", "us", decode_ms * 1e3),
        Metric::new("agent.frame_copy_us", "us", copy_ms * 1e3),
        Metric::new("agent.checksum_ms", "ms", checksum_ms),
        Metric::new("agent.encode_us", "us", encode_ms * 1e3),
        Metric::new("agent.frame_pool_ms", "ms", trace.median_ms("agent.frame_pool")?),
        Metric::new("serve.roundtrip_ms", "ms", roundtrip_ms),
        Metric::new("serve.overhead_us", "us", median(&replay.overhead_us)),
        Metric::new("serve.mean_batch", "count", replay.mean_batch),
        Metric::new("serve.warm_ms", "ms", trace.median_ms("serve.warm")?),
        Metric::new("beamforming.plan_misses", "count", replay.plan_misses as f64),
    ]);
    metrics.extend(stages(&mut trace, workload)?);
    let unattributed_ms = served_p50 - roundtrip_ms - decode_ms - copy_ms - checksum_ms - encode_ms;
    metrics.push(Metric::new("trace.unattributed_ms", "ms", unattributed_ms));

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    trace.write_jsonl(&out.join(format!("{}-seed{seed}-spans.jsonl", workload.name)))?;

    // The three remainders, against a tenth of the served frame time.
    let value = |name: &str| metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
    let remainders = [
        ("tiny_vbf.adapter_self_ms", value("tiny_vbf.adapter_self_ms")),
        ("serve.overhead_us", value("serve.overhead_us") / 1e3),
        ("trace.unattributed_ms", unattributed_ms),
    ];
    let findings: Vec<Json> = remainders
        .iter()
        .filter(|(_, ms)| *ms > 0.1 * served_p50)
        .map(|(name, ms)| Json::str(format!("{name} is {ms:.3} ms, above 10 % of the {served_p50:.3} ms frame")))
        .collect();
    for (name, ms) in &remainders {
        eprintln!("perfbench: {} remainder {name} = {ms:.4} ms of a {served_p50:.4} ms frame", workload.name);
    }
    let mut tally = replay.tally;
    tally.add(window.tally);
    tally.add(warm);
    let host = Json::obj([
        ("steal_s", Json::num(window.steal_s)),
        ("server_cpu_s", Json::num(window.server_cpu_s)),
        ("wakeup_probe_us", Json::num(window.wakeup_us)),
        ("untraced_latency_ms_p50", Json::num(served_p50)),
        ("samples", Json::obj([("untraced_latency_ms_p50", Json::num(window.latencies.len() as f64))])),
        ("replayed", Json::num(replay.tally.sent as f64)),
        ("spans", Json::num(trace.spans.len() as f64)),
        ("remainders_ms", Json::Obj(remainders.iter().map(|(n, ms)| (n.to_string(), Json::num(*ms))).collect())),
        ("findings", Json::arr(findings)),
        ("error_rate", Json::num(tally.failed() as f64 / tally.sent.max(1) as f64)),
        ("mismatches", Json::num(tally.mismatches as f64)),
    ]);
    Ok(Report { tally, metrics, host })
}
