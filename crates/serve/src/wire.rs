//! JSON wire format for the serving stats — the cross-process stats
//! protocol of the scenario benchmark harness.
//!
//! The harness (`crates/bench`) runs the router in a separate OS process
//! (`serve_agent`) and reads its counters back over stdio as one JSON line.
//! This module defines that encoding. Two rules keep it trustworthy:
//!
//! 1. **Lossless counters.** Every counter and the full latency histogram
//!    round-trip exactly: `parse(write(stats)) == stats`. The round-trip is
//!    asserted field-by-field in `tests/wire_roundtrip.rs`, so a counter
//!    added to a stats struct but forgotten here fails the equality test
//!    rather than silently reading as zero.
//! 2. **Labels, not geometry.** [`crate::router::StreamSpec`] carries the
//!    full probe/grid description; on the wire an engine is identified by
//!    the spec's compact label plus its backend. The consumer of the stats
//!    line (the harness) already knows the scenario's geometry — reshipping
//!    it per engine would bloat every stats line for no information.
//!
//! [`RouterStatsWire`] is therefore a mirror of [`RouterStats`] with specs
//! flattened to labels; [`RouterStatsWire::from_stats`] converts a live
//! snapshot, [`RouterStatsWire::to_json`] / [`RouterStatsWire::from_json`]
//! move it across the boundary.

use crate::batcher::{LatencyHistogram, ServerStats};
use crate::degrade::DegradeStats;
use crate::router::{ResilienceStats, RouterStats};
use beamforming::pipeline::QuantQualityStats;
use beamforming::plan::PlanCacheStats;
use runtime::json::Json;

/// Error string produced when a wire document is missing or mistypes a
/// field.
fn missing(field: &str) -> String {
    format!("stats wire: missing or mistyped field `{field}`")
}

fn get_u64(value: &Json, field: &str) -> Result<u64, String> {
    value.get(field).and_then(Json::as_u64).ok_or_else(|| missing(field))
}

fn get_f64(value: &Json, field: &str) -> Result<f64, String> {
    value.get(field).and_then(Json::as_f64).ok_or_else(|| missing(field))
}

fn get_str(value: &Json, field: &str) -> Result<String, String> {
    value.get(field).and_then(Json::as_str).map(str::to_owned).ok_or_else(|| missing(field))
}

/// Encodes a latency histogram as `{ "buckets": [...], "total_micros": n }`.
///
/// The bucket array always has [`LatencyHistogram::NUM_BUCKETS`] entries so
/// the decoder never guesses the resolution; the count is derived from the
/// buckets on decode (see [`LatencyHistogram::from_parts`]).
pub fn latency_to_json(latency: &LatencyHistogram) -> Json {
    Json::obj([
        ("buckets", Json::arr(latency.bucket_counts().iter().map(|&n| Json::num(n as f64)))),
        ("total_micros", Json::num(latency.total_micros() as f64)),
    ])
}

/// Decodes a histogram written by [`latency_to_json`].
pub fn latency_from_json(value: &Json) -> Result<LatencyHistogram, String> {
    let items = value.get("buckets").and_then(Json::as_arr).ok_or_else(|| missing("buckets"))?;
    if items.len() != LatencyHistogram::NUM_BUCKETS {
        return Err(format!(
            "stats wire: histogram has {} buckets, expected {}",
            items.len(),
            LatencyHistogram::NUM_BUCKETS
        ));
    }
    let mut buckets = [0u64; LatencyHistogram::NUM_BUCKETS];
    for (slot, item) in buckets.iter_mut().zip(items) {
        *slot = item.as_u64().ok_or_else(|| missing("buckets[i]"))?;
    }
    Ok(LatencyHistogram::from_parts(buckets, get_u64(value, "total_micros")?))
}

/// Encodes the shared queue/scheduler counters.
pub fn server_stats_to_json(stats: &ServerStats) -> Json {
    Json::obj([
        ("submitted", Json::num(stats.submitted as f64)),
        ("completed", Json::num(stats.completed as f64)),
        ("batches", Json::num(stats.batches as f64)),
        ("max_batch_observed", Json::num(stats.max_batch_observed as f64)),
        ("deadline_expired", Json::num(stats.deadline_expired as f64)),
        ("latency", latency_to_json(&stats.latency)),
    ])
}

/// Decodes [`server_stats_to_json`] output.
pub fn server_stats_from_json(value: &Json) -> Result<ServerStats, String> {
    Ok(ServerStats {
        submitted: get_u64(value, "submitted")?,
        completed: get_u64(value, "completed")?,
        batches: get_u64(value, "batches")?,
        max_batch_observed: value
            .get("max_batch_observed")
            .and_then(Json::as_usize)
            .ok_or_else(|| missing("max_batch_observed"))?,
        deadline_expired: get_u64(value, "deadline_expired")?,
        latency: latency_from_json(value.get("latency").ok_or_else(|| missing("latency"))?)?,
    })
}

/// Encodes the router-wide fault counters.
pub fn resilience_to_json(stats: &ResilienceStats) -> Json {
    Json::obj([
        ("panics", Json::num(stats.panics as f64)),
        ("retries", Json::num(stats.retries as f64)),
        ("quarantined", Json::num(stats.quarantined as f64)),
        ("quarantines", Json::num(stats.quarantines as f64)),
        ("engines_evicted", Json::num(stats.engines_evicted as f64)),
    ])
}

/// Decodes [`resilience_to_json`] output.
pub fn resilience_from_json(value: &Json) -> Result<ResilienceStats, String> {
    Ok(ResilienceStats {
        panics: get_u64(value, "panics")?,
        retries: get_u64(value, "retries")?,
        quarantined: get_u64(value, "quarantined")?,
        quarantines: get_u64(value, "quarantines")?,
        engines_evicted: get_u64(value, "engines_evicted")?,
    })
}

/// Encodes one managed stream's degradation snapshot.
pub fn degrade_to_json(stats: &DegradeStats) -> Json {
    Json::obj([
        ("stream", Json::str(stats.stream.clone())),
        ("ladder", Json::arr(stats.ladder.iter().map(|l| Json::str(l.clone())))),
        ("rung", Json::num(stats.rung as f64)),
        ("backend", Json::str(stats.backend.clone())),
        ("downshifts", Json::num(stats.downshifts as f64)),
        ("upshifts", Json::num(stats.upshifts as f64)),
        ("sheds", Json::num(stats.sheds as f64)),
        ("windows", Json::num(stats.windows as f64)),
    ])
}

/// Decodes [`degrade_to_json`] output.
pub fn degrade_from_json(value: &Json) -> Result<DegradeStats, String> {
    let ladder = value
        .get("ladder")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("ladder"))?
        .iter()
        .map(|l| l.as_str().map(str::to_owned).ok_or_else(|| missing("ladder[i]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DegradeStats {
        stream: get_str(value, "stream")?,
        ladder,
        rung: value.get("rung").and_then(Json::as_usize).ok_or_else(|| missing("rung"))?,
        backend: get_str(value, "backend")?,
        downshifts: get_u64(value, "downshifts")?,
        upshifts: get_u64(value, "upshifts")?,
        sheds: get_u64(value, "sheds")?,
        windows: get_u64(value, "windows")?,
    })
}

fn plan_cache_to_json(stats: &PlanCacheStats) -> Json {
    Json::obj([
        ("hits", Json::num(stats.hits as f64)),
        ("misses", Json::num(stats.misses as f64)),
        ("evictions", Json::num(stats.evictions as f64)),
        ("entries", Json::num(stats.entries as f64)),
        ("capacity", Json::num(stats.capacity as f64)),
    ])
}

fn plan_cache_from_json(value: &Json) -> Result<PlanCacheStats, String> {
    Ok(PlanCacheStats {
        hits: get_u64(value, "hits")?,
        misses: get_u64(value, "misses")?,
        evictions: get_u64(value, "evictions")?,
        entries: value.get("entries").and_then(Json::as_usize).ok_or_else(|| missing("entries"))?,
        capacity: value.get("capacity").and_then(Json::as_usize).ok_or_else(|| missing("capacity"))?,
    })
}

fn quant_quality_to_json(stats: &QuantQualityStats) -> Json {
    Json::obj([
        ("frames", Json::num(stats.frames as f64)),
        ("signal_energy", Json::num(stats.signal_energy)),
        ("noise_energy", Json::num(stats.noise_energy)),
    ])
}

fn quant_quality_from_json(value: &Json) -> Result<QuantQualityStats, String> {
    Ok(QuantQualityStats {
        frames: get_u64(value, "frames")?,
        signal_energy: get_f64(value, "signal_energy")?,
        noise_energy: get_f64(value, "noise_energy")?,
    })
}

/// One engine's counters with its [`crate::router::StreamSpec`] flattened
/// to `(stream label, backend label)` — the per-engine element of
/// [`RouterStatsWire`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStatsWire {
    /// Compact stream identifier (see `StreamSpec::label`), e.g.
    /// `"das/32ch/16x8"`.
    pub stream: String,
    /// Backend label of the spec.
    pub backend: String,
    /// Frames the engine beamformed.
    pub requests: u64,
    /// Sub-batches the engine executed.
    pub batches: u64,
    /// Dispatch panics contained at the engine boundary.
    pub panics: u64,
    /// Submit → beamformed latency distribution of the engine's frames.
    pub latency: LatencyHistogram,
    /// Plan-cache counters, when the backend exposes them.
    pub plan_cache: Option<PlanCacheStats>,
    /// Quantization accuracy-proxy counters, when the backend is lossy.
    pub quant_quality: Option<QuantQualityStats>,
}

impl EngineStatsWire {
    /// Encodes the engine entry.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("stream".to_string(), Json::str(self.stream.clone())),
            ("backend".to_string(), Json::str(self.backend.clone())),
            ("requests".to_string(), Json::num(self.requests as f64)),
            ("batches".to_string(), Json::num(self.batches as f64)),
            ("panics".to_string(), Json::num(self.panics as f64)),
            ("latency".to_string(), latency_to_json(&self.latency)),
        ];
        if let Some(cache) = &self.plan_cache {
            pairs.push(("plan_cache".to_string(), plan_cache_to_json(cache)));
        }
        if let Some(quality) = &self.quant_quality {
            pairs.push(("quant_quality".to_string(), quant_quality_to_json(quality)));
        }
        Json::Obj(pairs)
    }

    /// Decodes [`EngineStatsWire::to_json`] output.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Self {
            stream: get_str(value, "stream")?,
            backend: get_str(value, "backend")?,
            requests: get_u64(value, "requests")?,
            batches: get_u64(value, "batches")?,
            panics: get_u64(value, "panics")?,
            latency: latency_from_json(value.get("latency").ok_or_else(|| missing("latency"))?)?,
            plan_cache: value.get("plan_cache").map(plan_cache_from_json).transpose()?,
            quant_quality: value.get("quant_quality").map(quant_quality_from_json).transpose()?,
        })
    }
}

/// Process-boundary mirror of [`RouterStats`]: every counter, histogram and
/// per-engine/per-stream breakdown, with stream specs flattened to labels.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterStatsWire {
    /// Shared queue/scheduler counters.
    pub server: ServerStats,
    /// Per-engine counters, in spin-up order.
    pub engines: Vec<EngineStatsWire>,
    /// Per-managed-stream degradation snapshots.
    pub degrade: Vec<DegradeStats>,
    /// Router-wide fault counters.
    pub resilience: ResilienceStats,
}

impl RouterStatsWire {
    /// Flattens a live [`RouterStats`] snapshot for the wire.
    pub fn from_stats(stats: &RouterStats) -> Self {
        Self {
            server: stats.server,
            engines: stats
                .engines
                .iter()
                .map(|engine| EngineStatsWire {
                    stream: engine.spec.label(),
                    backend: engine.spec.backend.clone(),
                    requests: engine.requests,
                    batches: engine.batches,
                    panics: engine.panics,
                    latency: engine.latency,
                    plan_cache: engine.plan_cache,
                    quant_quality: engine.quant_quality,
                })
                .collect(),
            degrade: stats.degrade.clone(),
            resilience: stats.resilience,
        }
    }

    /// Encodes the full snapshot.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("server", server_stats_to_json(&self.server)),
            ("engines", Json::arr(self.engines.iter().map(EngineStatsWire::to_json))),
            ("degrade", Json::arr(self.degrade.iter().map(degrade_to_json))),
            ("resilience", resilience_to_json(&self.resilience)),
        ])
    }

    /// Decodes [`RouterStatsWire::to_json`] output.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Self {
            server: server_stats_from_json(value.get("server").ok_or_else(|| missing("server"))?)?,
            engines: value
                .get("engines")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("engines"))?
                .iter()
                .map(EngineStatsWire::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            degrade: value
                .get("degrade")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("degrade"))?
                .iter()
                .map(degrade_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            resilience: resilience_from_json(
                value.get("resilience").ok_or_else(|| missing("resilience"))?,
            )?,
        })
    }

    /// Encodes as one line of compact JSON (the agent stdio framing).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parses one line written by [`RouterStatsWire::to_json_line`].
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let value = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        Self::from_json(&value)
    }
}
