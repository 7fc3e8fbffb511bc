//! Streaming micro-batching inference front-end for the Tiny-VBF beamformers.
//!
//! Tiny-VBF's pitch (Rahoof et al., DATE 2024) is *real-time* single-angle
//! plane-wave imaging: frames arrive continuously from the scanner and must be
//! reconstructed at acquisition rate. The deep-learning beamforming literature
//! frames models like Tiny-VBF as components of a streaming
//! acquisition→reconstruction pipeline, and `Beamformer::beamform_batch_results`
//! is the per-frame batch primitive. This crate turns that per-call primitive
//! into a throughput-oriented service:
//!
//! * [`Server`] — the generic micro-batching server: a **bounded submission
//!   queue** (backpressure), a scheduler that **coalesces** pending requests
//!   into batches (configurable max batch size and linger), one batch worker
//!   thread whose engine calls each run behind a panic boundary, and
//!   per-request [`ResponseHandle`]s that resolve when the batch completes,
//! * [`BatchConfig`] — `max_batch`, linger, queue capacity and default
//!   deadline,
//! * [`BatchEngine`] — the pluggable batch computation (implement it, or wrap
//!   a closure with [`Server::from_fn`]),
//! * [`router`] — the beamforming front end on top: a [`router::Router`]
//!   submits [`ultrasound::ChannelData`] frames and yields
//!   [`beamforming::iq::IqImage`]s through any
//!   [`beamforming::pipeline::Beamformer`] (DAS, MVDR, Tiny-VBF, …). It
//!   dispatches one stream or many *heterogeneous* ones (distinct probes,
//!   grids, sound speeds, frame formats and backends) from one shared queue
//!   to lazily spun-up engines, batching each stream's frames through
//!   `beamform_batch_results` so frames run concurrently while each stays
//!   internally row-parallel under one bounded thread budget, and reports
//!   per-engine latency and plan-cache counters.
//!
//! Latency policy: requests may carry **deadlines**
//! ([`Server::submit_with_deadline`], [`BatchConfig::deadline`]) — the
//! scheduler cuts a lingering batch early when the oldest request's slack
//! runs out, and a request stuck past its deadline resolves with
//! [`ServeError::DeadlineExceeded`] instead of blocking younger traffic.
//!
//! Everything is synchronous-core `std`: no async runtime, plain
//! `Mutex`/`Condvar` scheduling, deterministic results — an image produced
//! through the server is **bitwise identical** to one produced by a serial
//! per-frame call, for every batch size, linger and `TINY_VBF_THREADS`
//! setting (asserted by `examples/serve_demo.rs` and this crate's tests).
//!
//! # Example
//!
//! ```
//! use serve::{BatchConfig, Server};
//!
//! // A toy engine: double every request. Beamforming deployments use
//! // `serve::router::Router` instead of a closure.
//! let server = Server::from_fn(BatchConfig::default(), |batch: Vec<i64>| {
//!     batch.into_iter().map(|v| Ok(v * 2)).collect()
//! });
//! let handles: Vec<_> = (0..8).map(|v| server.submit(v).unwrap()).collect();
//! let results: Vec<i64> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
//! assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod chaos;
pub mod degrade;
pub mod router;
pub mod wire;

pub use batcher::{BatchConfig, BatchEngine, LatencyHistogram, ResponseHandle, Server, ServerStats, TrySubmitError};
pub use chaos::{ChaosBeamformer, ChaosFactory, ChaosFactoryProbe, ChaosFault, ChaosSchedule, ChaosStats};
pub use degrade::{DegradeConfig, DegradeStats, RungMeasurement};
pub use router::{EngineFactory, EngineStats, FaultPolicy, ResilienceStats, Router, RouterStats, StreamSpec};
pub use wire::{EngineStatsWire, RouterStatsWire};

use std::error::Error;
use std::fmt;
use std::sync::{LockResult, PoisonError};

/// Recovers the guard from a possibly-poisoned lock.
///
/// A poisoned serve-crate lock means some thread panicked while holding it;
/// every guarded mutation in this crate is a single-step counter bump, queue
/// push/pop or slot write, so the protected state is never left half-updated
/// and recovery is sound. Cascading the poison panic instead would turn one
/// panic into a dead batch worker, stranded handles and failing submitters.
pub(crate) fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Errors produced by the serving front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The [`BatchConfig`] is invalid (a zero `max_batch` or queue
    /// capacity).
    InvalidConfig(String),
    /// The server is shutting down and no longer accepts submissions.
    ShuttingDown,
    /// The bounded submission queue is full (backpressure signal).
    QueueFull,
    /// The batch engine failed for this request.
    Engine(String),
    /// The batch engine returned a result vector of the wrong length.
    BatchSizeMismatch {
        /// Number of requests in the batch.
        expected: usize,
        /// Number of results the engine returned.
        actual: usize,
    },
    /// The batch engine panicked while processing this request's batch. The
    /// panic is caught at the batch boundary: every request of that batch
    /// resolves with this error and the worker keeps serving.
    WorkerDied,
    /// One routed engine panicked while beamforming its sub-batch. The panic
    /// is contained at the engine boundary: only the panicking engine's
    /// requests resolve with this error, every other stream in the same
    /// dispatched batch completes normally (see `serve::router`).
    EnginePanicked {
        /// Backend label of the engine that panicked.
        backend: String,
    },
    /// The stream's engine is quarantined by the circuit breaker: its factory
    /// (or dispatch) failed too many consecutive times, so requests fail fast
    /// until the quarantine window elapses instead of hammering a broken
    /// backend (see [`router::FaultPolicy`]).
    Quarantined {
        /// Backend label of the quarantined engine.
        backend: String,
    },
    /// The request's deadline passed while it was still queued, so it was
    /// dropped from its batch and resolved with this timeout instead of
    /// blocking younger requests (see
    /// [`Server::submit_with_deadline`](batcher::Server::submit_with_deadline)).
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(reason) => write!(f, "invalid batch configuration: {reason}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::QueueFull => write!(f, "submission queue is full"),
            Self::Engine(reason) => write!(f, "batch engine error: {reason}"),
            Self::BatchSizeMismatch { expected, actual } => {
                write!(f, "batch engine returned {actual} results for {expected} requests")
            }
            Self::WorkerDied => write!(f, "worker died before fulfilling the request"),
            Self::EnginePanicked { backend } => {
                write!(f, "engine `{backend}` panicked while processing the request's sub-batch")
            }
            Self::Quarantined { backend } => {
                write!(f, "engine `{backend}` is quarantined after repeated failures")
            }
            Self::DeadlineExceeded => write!(f, "request deadline expired before dispatch"),
        }
    }
}

impl Error for ServeError {}

/// Convenience alias for results with [`ServeError`].
pub type ServeResult<T> = Result<T, ServeError>;
