//! Multi-engine serving router: one submission queue, one thread budget,
//! many heterogeneous beamforming streams — failing *soft*, not hard.
//!
//! Production front-ends see *heterogeneous* traffic — different probes,
//! imaging grids, frame formats and backends (DAS, MVDR, Tiny-VBF)
//! interleaved on one wire. The [`Router`] serves them all from a single
//! micro-batching [`Server`]; a one-stream router is the plain frame-level
//! server:
//!
//! * every request names its [`StreamSpec`] (probe + grid + sound speed +
//!   backend); requests of *all* streams share one bounded submission queue,
//!   so backpressure and deadlines apply globally,
//! * a drained batch is partitioned by spec and dispatched to the matching
//!   engines **concurrently**, the total thread budget divided across the
//!   sub-batches proportionally to their sizes
//!   ([`runtime::fair_shares`] + [`runtime::par_collect_shares`]),
//! * engines spin up **lazily**: the first request of an unseen spec invokes
//!   the [`EngineFactory`] and the built beamformer joins the
//!   [`EngineRegistry`]; [`Router::warm`] spins one up (and builds its
//!   beamforming plan) ahead of traffic,
//! * underneath, the planned beamformers' multi-slot LRU
//!   [`beamforming::plan::PlanCache`] keeps every stream shape's delay table
//!   warm, and lossy quantized backends report per-engine SQNR counters
//!   ([`EngineStats::quant_quality`]) next to the latency percentiles.
//!
//! PR 6 adds the **fault boundary** and the **degradation loop**:
//!
//! * each engine's sub-batch dispatch runs under `catch_unwind` — a panicking
//!   engine resolves *only its own* requests with
//!   [`ServeError::EnginePanicked`]; every other stream in the same batch
//!   completes normally, and repeated panics quarantine the engine,
//! * the registry is a circuit breaker per spec: transient factory failures
//!   are retried with bounded exponential backoff, persistent ones trip the
//!   breaker and requests fail fast with [`ServeError::Quarantined`] until
//!   the quarantine window elapses ([`FaultPolicy`]); concurrent first
//!   requests of one spec build one engine (a `Building` marker plus a
//!   condvar — the factory runs *outside* the registry lock so a slow or
//!   sleeping build never stalls other streams),
//! * engines idle past [`FaultPolicy::engine_ttl`] are evicted so probe/grid
//!   churn times six quantized schemes doesn't grow the registry unboundedly,
//! * an optional [`DegradeConfig`] attaches the load-shedding ladder of
//!   [`crate::degrade`]: streams under deadline pressure downshift to
//!   cheaper backends instead of shedding requests, and upshift back with
//!   hysteresis + cooldown ([`RouterStats::degrade`] shows each stream's
//!   rung, [`ResilienceStats`] the global shed/shift/panic/retry counters).
//!
//! Routing is pure scheduling: each frame's image depends only on its own
//! payload and its stream's configuration, so a routed image is **bitwise
//! identical** to a serial `beamform` call with the same spec, for every mix
//! of streams, batch size, linger, deadline and thread budget — and the
//! degradation ladder preserves this for every request it does *not*
//! downshift (`examples/route_demo.rs`, `serve/tests/router.rs` and
//! `serve/tests/chaos.rs` assert this).

use crate::batcher::{BatchConfig, BatchEngine, LatencyHistogram, ResponseHandle, Server, ServerStats, TrySubmitError};
use crate::degrade::{DegradeConfig, DegradeController, DegradeStats};
use crate::{recover, ServeError, ServeResult};
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, QuantQualityStats};
use beamforming::plan::{FrameFormat, PlanCacheStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ultrasound::{ChannelData, LinearArray};

/// Everything that identifies one stream shape to the router: which engine
/// must serve a frame and with what acquisition geometry.
///
/// Two requests belong to the same stream iff their specs compare equal
/// (probe geometry, imaging grid, sound speed and backend label). The frame
/// format — the remaining axis of the full stream key — is carried by each
/// [`ChannelData`] itself and resolved *inside* the engine by the multi-slot
/// plan cache, so one engine serves a stream whose sample count changes
/// mid-flight without respawning.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Probe geometry of the stream's acquisitions.
    pub array: LinearArray,
    /// Imaging grid the stream's frames are reconstructed on.
    pub grid: ImagingGrid,
    /// Assumed speed of sound in m/s.
    pub sound_speed: f32,
    /// Which beamformer backend serves the stream (a label the
    /// [`EngineFactory`] understands, e.g. `"das"`, `"mvdr"`, `"tiny-vbf"`,
    /// or a per-quantization-scheme label like `"tiny-vbf-fx16"` — see
    /// `quantize::QuantScheme::backend_label`).
    pub backend: String,
}

impl StreamSpec {
    /// Compact human-readable identifier used in stats and reports, e.g.
    /// `"das/128ch/368x128"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}ch/{}x{}",
            self.backend,
            self.array.num_elements(),
            self.grid.num_rows(),
            self.grid.num_cols()
        )
    }
}

/// Builds the beamformer for a [`StreamSpec`] the first time the router sees
/// it (lazy engine spin-up).
///
/// Implemented for closures, so a match over the backend label is enough:
///
/// ```
/// use beamforming::pipeline::{DelayAndSum, PlannedDas};
/// use serve::router::StreamSpec;
/// use serve::{ServeError, ServeResult};
/// use std::sync::Arc;
///
/// let factory = |spec: &StreamSpec| -> ServeResult<Arc<dyn beamforming::pipeline::Beamformer + Send + Sync>> {
///     match spec.backend.as_str() {
///         "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
///         other => Err(ServeError::Engine(format!("unknown backend {other}"))),
///     }
/// };
/// # let _ = factory;
/// ```
pub trait EngineFactory: Send + Sync + 'static {
    /// Builds the beamformer serving `spec`'s stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] (typically [`ServeError::Engine`]) when the
    /// spec names an unknown backend or an unsupported configuration. The
    /// registry retries transient failures with bounded backoff
    /// ([`FaultPolicy::factory_retries`]) before failing the queued requests,
    /// and quarantines the spec after repeated failures.
    fn build(&self, spec: &StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>>;
}

impl<F> EngineFactory for F
where
    F: Fn(&StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> + Send + Sync + 'static,
{
    fn build(&self, spec: &StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        self(spec)
    }
}

/// Fault-handling knobs of the [`EngineRegistry`] and the dispatch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How many times a failed factory build is retried (with backoff)
    /// before the failure is reported to the waiting requests. `0` disables
    /// retries.
    pub factory_retries: u32,
    /// Backoff before the first retry; doubles per retry, capped at 50 ms.
    /// The sleep happens *outside* the registry lock, so other streams keep
    /// serving while one backend's factory backs off.
    pub retry_backoff: Duration,
    /// Consecutive failed build rounds (each already including its retries)
    /// after which the spec's circuit breaker opens.
    pub quarantine_after: u32,
    /// How long an open breaker rejects the spec's requests with
    /// [`ServeError::Quarantined`] before the next request may try a rebuild.
    pub quarantine_for: Duration,
    /// Consecutive *dispatch panics* of a live engine after which the engine
    /// is torn down and its spec quarantined (a successful dispatch resets
    /// the count).
    pub panic_quarantine_after: u32,
    /// Idle TTL: engines unused this long are evicted from the registry
    /// (their next request rebuilds them). `None` — the default — keeps
    /// engines forever.
    pub engine_ttl: Option<Duration>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            factory_retries: 2,
            retry_backoff: Duration::from_micros(500),
            quarantine_after: 3,
            quarantine_for: Duration::from_millis(250),
            panic_quarantine_after: 3,
            engine_ttl: None,
        }
    }
}

/// Retry backoff growth cap (see [`FaultPolicy::retry_backoff`]).
const MAX_RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// One spun-up engine: the beamformer plus its serving counters.
struct EngineEntry {
    spec: StreamSpec,
    beamformer: Arc<dyn Beamformer + Send + Sync>,
    requests: AtomicU64,
    batches: AtomicU64,
    panics: AtomicU64,
    consecutive_panics: AtomicU32,
    latency: Mutex<LatencyHistogram>,
}

impl EngineEntry {
    fn new(spec: StreamSpec, beamformer: Arc<dyn Beamformer + Send + Sync>) -> Self {
        Self {
            spec,
            beamformer,
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            consecutive_panics: AtomicU32::new(0),
            latency: Mutex::new(LatencyHistogram::default()),
        }
    }

    fn snapshot(&self) -> EngineStats {
        EngineStats {
            spec: self.spec.clone(),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            latency: *recover(self.latency.lock()),
            plan_cache: self.beamformer.plan_cache_stats(),
            quant_quality: self.beamformer.quant_quality_stats(),
        }
    }
}

/// Lifecycle of one spec's registry slot — the circuit-breaker state machine.
enum EngineState {
    /// The engine is live and serving.
    Ready(Arc<EngineEntry>),
    /// Some thread is running the factory for this spec (outside the
    /// registry lock); others wait on the registry condvar.
    Building,
    /// The last build round failed (`consecutive` rounds in a row), or a
    /// live engine was torn down for repeated dispatch panics. While
    /// `quarantined_until` lies in the future, requests fail fast with
    /// [`ServeError::Quarantined`]; afterwards the next request retries the
    /// build.
    Broken {
        consecutive: u32,
        quarantined_until: Option<Instant>,
    },
}

struct EngineSlot {
    spec: StreamSpec,
    state: EngineState,
    last_used: Instant,
}

/// The set of engines a router has spun up, with per-spec circuit breaking.
///
/// Lookup is a linear scan over [`StreamSpec`] equality — routers serve a
/// handful of stream shapes, not thousands, and the scan avoids imposing
/// `Eq`/`Hash` on floating-point probe geometry.
pub struct EngineRegistry {
    slots: Mutex<Vec<EngineSlot>>,
    built: Condvar,
    factory: Box<dyn EngineFactory>,
    policy: FaultPolicy,
    retries: AtomicU64,
    quarantined_rejections: AtomicU64,
    quarantines: AtomicU64,
    panics: AtomicU64,
    evictions: AtomicU64,
}

impl EngineRegistry {
    fn new(factory: impl EngineFactory, policy: FaultPolicy) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            built: Condvar::new(),
            factory: Box::new(factory),
            policy,
            retries: AtomicU64::new(0),
            quarantined_rejections: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the engine serving `spec`, spinning it up through the factory
    /// on first sight (or after an eviction/quarantine). The factory runs
    /// *outside* the registry lock behind a `Building` marker, so concurrent
    /// first-requests of one spec build one engine while other specs keep
    /// resolving.
    fn get_or_spawn(&self, spec: &StreamSpec) -> ServeResult<Arc<EngineEntry>> {
        let mut slots = recover(self.slots.lock());
        self.sweep_idle(&mut slots);
        loop {
            // Re-scan each iteration: a condvar wake or an eviction may have
            // reshuffled the slot vector.
            match slots.iter().position(|s| s.spec == *spec) {
                Some(i) => match &slots[i].state {
                    EngineState::Ready(entry) => {
                        let entry = Arc::clone(entry);
                        slots[i].last_used = Instant::now();
                        return Ok(entry);
                    }
                    EngineState::Building => {
                        slots = recover(self.built.wait(slots));
                    }
                    EngineState::Broken { consecutive, quarantined_until } => {
                        if let Some(until) = quarantined_until {
                            if Instant::now() < *until {
                                self.quarantined_rejections.fetch_add(1, Ordering::Relaxed);
                                return Err(ServeError::Quarantined { backend: spec.backend.clone() });
                            }
                        }
                        let prior = *consecutive;
                        slots[i].state = EngineState::Building;
                        drop(slots);
                        return self.build_slot(spec, prior);
                    }
                },
                None => {
                    slots.push(EngineSlot {
                        spec: spec.clone(),
                        state: EngineState::Building,
                        last_used: Instant::now(),
                    });
                    drop(slots);
                    return self.build_slot(spec, 0);
                }
            }
        }
    }

    /// Runs the factory (with retries) for a spec already marked `Building`,
    /// then publishes the outcome and wakes the waiters.
    fn build_slot(&self, spec: &StreamSpec, prior_failures: u32) -> ServeResult<Arc<EngineEntry>> {
        let built = self.try_build(spec);
        let mut slots = recover(self.slots.lock());
        let i = slots
            .iter()
            .position(|s| s.spec == *spec)
            .expect("a Building registry slot is never removed");
        let result = match built {
            Ok(beamformer) => {
                let entry = Arc::new(EngineEntry::new(spec.clone(), beamformer));
                slots[i].state = EngineState::Ready(Arc::clone(&entry));
                slots[i].last_used = Instant::now();
                Ok(entry)
            }
            Err(e) => {
                let consecutive = prior_failures + 1;
                let quarantined_until = (consecutive >= self.policy.quarantine_after).then(|| {
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                    Instant::now() + self.policy.quarantine_for
                });
                slots[i].state = EngineState::Broken { consecutive, quarantined_until };
                Err(e)
            }
        };
        drop(slots);
        self.built.notify_all();
        result
    }

    /// One build round: the factory call plus up to
    /// [`FaultPolicy::factory_retries`] backed-off retries. A panicking
    /// factory counts as a failed attempt (and is retried like one).
    fn try_build(&self, spec: &StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        let mut backoff = self.policy.retry_backoff;
        let mut attempt = 0;
        loop {
            let outcome = match catch_unwind(AssertUnwindSafe(|| self.factory.build(spec))) {
                Ok(result) => result,
                Err(_) => Err(ServeError::Engine(format!("engine factory panicked building `{}`", spec.backend))),
            };
            match outcome {
                Ok(beamformer) => return Ok(beamformer),
                Err(e) => {
                    if attempt >= self.policy.factory_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    backoff = (backoff * 2).min(MAX_RETRY_BACKOFF);
                }
            }
        }
    }

    /// Records a contained dispatch panic of a live engine; tears the engine
    /// down and quarantines its spec once
    /// [`FaultPolicy::panic_quarantine_after`] panics happen consecutively.
    fn record_dispatch_panic(&self, entry: &Arc<EngineEntry>) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        entry.panics.fetch_add(1, Ordering::Relaxed);
        let consecutive = entry.consecutive_panics.fetch_add(1, Ordering::Relaxed) + 1;
        if consecutive < self.policy.panic_quarantine_after {
            return;
        }
        let mut slots = recover(self.slots.lock());
        if let Some(slot) = slots.iter_mut().find(|s| s.spec == entry.spec) {
            // Only tear down the engine that actually panicked — a rebuilt
            // successor under the same spec must not pay for its
            // predecessor's record.
            if matches!(&slot.state, EngineState::Ready(e) if Arc::ptr_eq(e, entry)) {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                slot.state = EngineState::Broken {
                    consecutive: 0,
                    quarantined_until: Some(Instant::now() + self.policy.quarantine_for),
                };
            }
        }
    }

    /// Evicts `Ready` engines idle past the TTL. Called with the registry
    /// lock held; `Building`/`Broken` slots are never swept (a build in
    /// flight must find its slot again).
    fn sweep_idle(&self, slots: &mut Vec<EngineSlot>) {
        let Some(ttl) = self.policy.engine_ttl else {
            return;
        };
        let now = Instant::now();
        let before = slots.len();
        slots.retain(|s| {
            !(matches!(s.state, EngineState::Ready(_)) && now.saturating_duration_since(s.last_used) > ttl)
        });
        let evicted = (before - slots.len()) as u64;
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Cumulative quality counters of `spec`'s live engine, if it is `Ready`
    /// and its beamformer reports any (the degradation ladder's quality
    /// probe).
    fn quality_of(&self, spec: &StreamSpec) -> Option<QuantQualityStats> {
        let slots = recover(self.slots.lock());
        slots.iter().find(|s| s.spec == *spec).and_then(|s| match &s.state {
            EngineState::Ready(entry) => entry.beamformer.quant_quality_stats(),
            _ => None,
        })
    }

    /// Number of live (`Ready`) engines.
    fn len(&self) -> usize {
        recover(self.slots.lock()).iter().filter(|s| matches!(s.state, EngineState::Ready(_))).count()
    }

    fn snapshots(&self) -> Vec<EngineStats> {
        recover(self.slots.lock())
            .iter()
            .filter_map(|s| match &s.state {
                EngineState::Ready(entry) => Some(entry.snapshot()),
                _ => None,
            })
            .collect()
    }

    fn resilience(&self) -> ResilienceStats {
        ResilienceStats {
            panics: self.panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined_rejections.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            engines_evicted: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// One queued routed frame (the router's [`BatchEngine::Request`]).
pub struct RoutedRequest {
    spec: StreamSpec,
    frame: ChannelData,
    submitted_at: Instant,
}

/// The [`BatchEngine`] behind a [`Router`]: partitions each drained batch by
/// [`StreamSpec`] and dispatches the sub-batches to their engines
/// concurrently under one shared thread budget, each behind its own panic
/// boundary.
pub struct RouterEngine {
    registry: Arc<EngineRegistry>,
    degrade: Option<Arc<DegradeController>>,
    /// Total thread budget per dispatched batch, divided across the
    /// sub-batches with [`runtime::fair_shares`].
    threads: usize,
}

impl BatchEngine for RouterEngine {
    type Request = RoutedRequest;
    type Response = IqImage;

    fn process_batch(&self, batch: Vec<RoutedRequest>) -> Vec<ServeResult<IqImage>> {
        let n = batch.len();
        // Resolve each request's *effective* spec: the degradation ladder may
        // currently serve the stream on a cheaper backend. Untouched requests
        // keep their original spec (and hence bitwise-identical output).
        let effective: Vec<StreamSpec> = batch
            .iter()
            .map(|r| {
                self.degrade
                    .as_ref()
                    .and_then(|d| d.route(&r.spec))
                    .unwrap_or_else(|| r.spec.clone())
            })
            .collect();
        // Partition by effective spec, preserving submission order per group.
        let mut groups: Vec<(StreamSpec, Vec<usize>)> = Vec::new();
        for (i, spec) in effective.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| s == spec) {
                Some((_, indices)) => indices.push(i),
                None => groups.push((spec.clone(), vec![i])),
            }
        }
        // Move the frames out of the batch, grouped (no clones); keep each
        // request's *base* spec for the ladder's completion accounting.
        let mut frames: Vec<Option<ChannelData>> = batch.iter().map(|_| None).collect();
        let mut submitted_at = Vec::with_capacity(n);
        let mut bases = Vec::with_capacity(n);
        for (i, request) in batch.into_iter().enumerate() {
            frames[i] = Some(request.frame);
            submitted_at.push(request.submitted_at);
            bases.push(request.spec);
        }
        let group_frames: Vec<Vec<ChannelData>> = groups
            .iter()
            .map(|(_, indices)| {
                indices.iter().map(|&i| frames[i].take().expect("frame moved twice")).collect()
            })
            .collect();
        // Resolve engines up front (lazy spin-up, retry and circuit breaking
        // happen here); a factory failure or quarantine fails only its group.
        let engines: Vec<ServeResult<Arc<EngineEntry>>> =
            groups.iter().map(|(spec, _)| self.registry.get_or_spawn(spec)).collect();

        // Dispatch the sub-batches concurrently, sharing the router's thread
        // budget proportionally to sub-batch size. Each dispatch runs under
        // `catch_unwind`: a panicking engine fails its own group with
        // `EnginePanicked` and every other stream completes normally.
        let sizes: Vec<usize> = group_frames.iter().map(Vec::len).collect();
        let shares = runtime::fair_shares(self.threads, &sizes);
        let group_results: Vec<Vec<ServeResult<IqImage>>> = runtime::par_collect_shares(&shares, |g| {
            let entry = match &engines[g] {
                Ok(entry) => entry,
                Err(e) => return group_frames[g].iter().map(|_| Err(e.clone())).collect(),
            };
            let spec = &entry.spec;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                entry
                    .beamformer
                    .beamform_batch_results(&group_frames[g], &spec.array, &spec.grid, spec.sound_speed, shares[g])
            }));
            match outcome {
                Ok(results) => {
                    entry.consecutive_panics.store(0, Ordering::Relaxed);
                    results.into_iter().map(|r| r.map_err(|e| ServeError::Engine(e.to_string()))).collect()
                }
                Err(_) => {
                    self.registry.record_dispatch_panic(entry);
                    group_frames[g]
                        .iter()
                        .map(|_| Err(ServeError::EnginePanicked { backend: spec.backend.clone() }))
                        .collect()
                }
            }
        });

        // Per-engine accounting, then scatter back to submission order.
        let now = Instant::now();
        let mut out: Vec<Option<ServeResult<IqImage>>> = (0..n).map(|_| None).collect();
        for ((engine, (_, indices)), results) in engines.iter().zip(&groups).zip(group_results) {
            if let Ok(engine) = engine {
                engine.requests.fetch_add(indices.len() as u64, Ordering::Relaxed);
                engine.batches.fetch_add(1, Ordering::Relaxed);
                let mut latency = recover(engine.latency.lock());
                for &i in indices {
                    latency.record(now.saturating_duration_since(submitted_at[i]));
                }
            }
            for (&i, result) in indices.iter().zip(results) {
                out[i] = Some(result);
            }
        }
        // Feed the ladder: every processed request is a non-expired
        // observation of its *base* stream.
        if let Some(degrade) = &self.degrade {
            for base in &bases {
                degrade.record(base, false, |spec| self.registry.quality_of(spec));
            }
        }
        out.into_iter().map(|r| r.expect("router dropped a request")).collect()
    }

    fn on_expired(&self, request: &RoutedRequest) {
        // A deadline expiry is the ladder's pressure signal: record the shed
        // against the request's base stream.
        if let Some(degrade) = &self.degrade {
            degrade.record(&request.spec, true, |spec| self.registry.quality_of(spec));
        }
    }
}

/// Per-engine serving counters (one element of [`RouterStats`]).
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// The stream shape the engine serves.
    pub spec: StreamSpec,
    /// Frames this engine beamformed.
    pub requests: u64,
    /// Dispatches (sub-batches) this engine executed.
    pub batches: u64,
    /// Dispatch panics contained at this engine's boundary.
    pub panics: u64,
    /// Submit → beamformed latency distribution of this engine's frames.
    pub latency: LatencyHistogram,
    /// The engine beamformer's plan-cache counters, when it has a cache
    /// (see [`Beamformer::plan_cache_stats`]). Zero `misses` growth after
    /// warm-up proves the multi-slot cache never thrashes.
    pub plan_cache: Option<PlanCacheStats>,
    /// The engine beamformer's accuracy-proxy counters, when it is a lossy
    /// (e.g. fixed-point Tiny-VBF) backend — accumulated SQNR so
    /// quantization degradation is observable per backend label under load
    /// (see [`Beamformer::quant_quality_stats`]). `None` for exact backends.
    ///
    /// Like the plan-cache counters, this is a snapshot of whatever the
    /// beamformer reports: when several engines are clones sharing one
    /// accumulator (or out-of-router clones also serve frames), each
    /// snapshot covers the shared total, not only this engine's requests.
    pub quant_quality: Option<QuantQualityStats>,
}

/// Global fault-handling counters of a [`Router`] (part of [`RouterStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Engine dispatch panics contained at the sub-batch boundary.
    pub panics: u64,
    /// Factory build retries performed (transient-failure recoveries).
    pub retries: u64,
    /// Requests rejected fast with [`ServeError::Quarantined`].
    pub quarantined: u64,
    /// Times a spec's circuit breaker opened (build failures or repeated
    /// dispatch panics).
    pub quarantines: u64,
    /// Idle engines evicted by the TTL sweep
    /// ([`FaultPolicy::engine_ttl`]).
    pub engines_evicted: u64,
}

/// Snapshot of a [`Router`]'s work: the shared server counters plus the
/// per-engine, per-stream-ladder and fault-handling breakdowns.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Counters of the shared submission queue / scheduler (including
    /// [`ServerStats::deadline_expired`]).
    pub server: ServerStats,
    /// One entry per live engine, in spin-up order.
    pub engines: Vec<EngineStats>,
    /// One entry per degradation-managed stream: its current rung and its
    /// shed/shift counters. Empty without a [`DegradeConfig`].
    pub degrade: Vec<DegradeStats>,
    /// Global panic/retry/quarantine/eviction counters.
    pub resilience: ResilienceStats,
}

impl RouterStats {
    /// Aggregated plan-cache counters over every engine that has a cache.
    pub fn plan_cache_total(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for engine in &self.engines {
            if let Some(stats) = &engine.plan_cache {
                total.merge(stats);
            }
        }
        total
    }

    /// Aggregated accuracy-proxy counters over every lossy (quantized)
    /// engine. Exact backends contribute nothing; with no lossy engine at
    /// all the total is the noiseless default (infinite SQNR, zero frames).
    /// Engines that share one accumulator (clones of one backend) are each
    /// merged as reported, so shared counters are re-counted per engine —
    /// see [`EngineStats::quant_quality`].
    pub fn quant_quality_total(&self) -> QuantQualityStats {
        let mut total = QuantQualityStats::default();
        for engine in &self.engines {
            if let Some(stats) = &engine.quant_quality {
                total.merge(stats);
            }
        }
        total
    }

    /// Total load-driven downshifts across every managed stream.
    pub fn downshifts_total(&self) -> u64 {
        self.degrade.iter().map(|d| d.downshifts).sum()
    }

    /// Total upshifts across every managed stream.
    pub fn upshifts_total(&self) -> u64 {
        self.degrade.iter().map(|d| d.upshifts).sum()
    }

    /// Total requests shed (deadline-expired) across every managed stream.
    pub fn sheds_total(&self) -> u64 {
        self.degrade.iter().map(|d| d.sheds).sum()
    }
}

/// A multi-stream beamforming server: heterogeneous
/// `(probe, grid, sound speed, backend)` streams in, [`IqImage`]s out, one
/// bounded queue and one thread budget across all of them — with per-engine
/// panic containment, a per-spec circuit breaker and an optional
/// load-shedding ladder.
///
/// See the [module documentation](self) for the architecture and
/// `examples/route_demo.rs` / `examples/degrade_demo.rs` for end-to-end runs.
pub struct Router {
    server: Server<RouterEngine>,
    registry: Arc<EngineRegistry>,
    degrade: Option<Arc<DegradeController>>,
}

impl Router {
    /// Spawns a router over the factory with the workspace-default thread
    /// budget ([`runtime::default_threads`]), the default [`FaultPolicy`] and
    /// no degradation ladder.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`BatchConfig`] (zero `max_batch` or capacity).
    pub fn new(config: BatchConfig, factory: impl EngineFactory) -> Self {
        Self::with_policies(config, factory, runtime::default_threads(), FaultPolicy::default(), None)
            .expect("no degrade config to validate")
    }

    /// [`Router::new`] with a degradation ladder attached: streams whose
    /// backend heads one of `degrade`'s ladders downshift to cheaper
    /// backends under deadline pressure instead of shedding requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `degrade` fails
    /// [`DegradeConfig::validate`].
    ///
    /// # Panics
    ///
    /// Same as [`Router::new`] (invalid [`BatchConfig`]).
    pub fn with_degrade(config: BatchConfig, factory: impl EngineFactory, degrade: DegradeConfig) -> ServeResult<Self> {
        Self::with_policies(config, factory, runtime::default_threads(), FaultPolicy::default(), Some(degrade))
    }

    /// Full-control constructor: explicit per-dispatch thread budget
    /// ([`runtime::default_threads`] is the default one), [`FaultPolicy`] and
    /// optional [`DegradeConfig`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the degrade config is invalid.
    ///
    /// # Panics
    ///
    /// Same as [`Router::new`] (invalid [`BatchConfig`]).
    pub fn with_policies(
        config: BatchConfig,
        factory: impl EngineFactory,
        threads: usize,
        policy: FaultPolicy,
        degrade: Option<DegradeConfig>,
    ) -> ServeResult<Self> {
        let degrade = degrade.map(DegradeController::new).transpose()?.map(Arc::new);
        let registry = Arc::new(EngineRegistry::new(factory, policy));
        let engine = RouterEngine {
            registry: Arc::clone(&registry),
            degrade: degrade.clone(),
            threads: threads.max(1),
        };
        Ok(Self { server: Server::new(config, engine), registry, degrade })
    }

    /// Submits one frame of `spec`'s stream, blocking while the shared queue
    /// is full (backpressure). Carries the configured default deadline, if
    /// any.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::ShuttingDown`] (with the frame returned) once
    /// [`Router::shutdown`] has begun.
    pub fn submit(
        &self,
        spec: &StreamSpec,
        frame: ChannelData,
    ) -> Result<ResponseHandle<IqImage>, TrySubmitError<ChannelData>> {
        self.server.submit(self.routed(spec, frame)).map_err(strip_routing)
    }

    /// [`Router::submit`] with an explicit per-request deadline (see
    /// [`Server::submit_with_deadline`]).
    ///
    /// # Errors
    ///
    /// Same as [`Router::submit`].
    pub fn submit_with_deadline(
        &self,
        spec: &StreamSpec,
        frame: ChannelData,
        deadline: Duration,
    ) -> Result<ResponseHandle<IqImage>, TrySubmitError<ChannelData>> {
        self.server.submit_with_deadline(self.routed(spec, frame), deadline).map_err(strip_routing)
    }

    /// Non-blocking [`Router::submit`]: sheds load instead of waiting.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] at capacity, [`TrySubmitError::ShuttingDown`]
    /// after shutdown — both return the frame.
    pub fn try_submit(
        &self,
        spec: &StreamSpec,
        frame: ChannelData,
    ) -> Result<ResponseHandle<IqImage>, TrySubmitError<ChannelData>> {
        self.server.try_submit(self.routed(spec, frame)).map_err(strip_routing)
    }

    /// Non-blocking [`Router::submit_with_deadline`]: sheds load instead
    /// of waiting when the shared queue is full.
    ///
    /// # Errors
    ///
    /// Same as [`Router::try_submit`].
    pub fn try_submit_with_deadline(
        &self,
        spec: &StreamSpec,
        frame: ChannelData,
        deadline: Duration,
    ) -> Result<ResponseHandle<IqImage>, TrySubmitError<ChannelData>> {
        self.server
            .try_submit_with_deadline(self.routed(spec, frame), deadline)
            .map_err(strip_routing)
    }

    fn routed(&self, spec: &StreamSpec, frame: ChannelData) -> RoutedRequest {
        RoutedRequest { spec: spec.clone(), frame, submitted_at: Instant::now() }
    }

    /// Spins up (or finds) the engine for `spec` and warms its per-stream
    /// caches for the given frame format, so the stream's first frame pays
    /// neither the factory nor the plan build.
    ///
    /// # Errors
    ///
    /// Propagates the factory's error (after the configured retries), or
    /// [`ServeError::Quarantined`] while the spec's breaker is open; plan
    /// building itself is best-effort (see [`Beamformer::prepare`]).
    pub fn warm(&self, spec: &StreamSpec, frame: &FrameFormat) -> ServeResult<()> {
        let entry = self.registry.get_or_spawn(spec)?;
        entry.beamformer.prepare(&spec.array, &spec.grid, spec.sound_speed, frame);
        Ok(())
    }

    /// Number of live engines (excluding quarantined/broken slots).
    pub fn num_engines(&self) -> usize {
        self.registry.len()
    }

    /// Number of requests currently queued (all streams share this queue).
    pub fn queue_depth(&self) -> usize {
        self.server.queue_depth()
    }

    /// Snapshot of the shared server counters and the per-engine,
    /// per-stream-ladder and fault-handling breakdowns.
    pub fn stats(&self) -> RouterStats {
        Self::assemble_stats(self.server.stats(), &self.registry, self.degrade.as_deref())
    }

    /// Graceful shutdown: stops intake, drains every accepted request
    /// (expired deadlines resolve as timeouts), joins the worker and returns
    /// the final counters.
    pub fn shutdown(self) -> RouterStats {
        let registry = Arc::clone(&self.registry);
        let degrade = self.degrade.clone();
        let server = self.server.shutdown();
        Self::assemble_stats(server, &registry, degrade.as_deref())
    }

    fn assemble_stats(server: ServerStats, registry: &EngineRegistry, degrade: Option<&DegradeController>) -> RouterStats {
        RouterStats {
            server,
            engines: registry.snapshots(),
            degrade: degrade.map(DegradeController::stats).unwrap_or_default(),
            resilience: registry.resilience(),
        }
    }
}

fn strip_routing(e: TrySubmitError<RoutedRequest>) -> TrySubmitError<ChannelData> {
    match e {
        TrySubmitError::Full(r) => TrySubmitError::Full(r.frame),
        TrySubmitError::ShuttingDown(r) => TrySubmitError::ShuttingDown(r.frame),
    }
}
