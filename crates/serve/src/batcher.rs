//! The generic micro-batching server: bounded queue, coalescing scheduler,
//! one batch worker, per-request handles, backpressure and graceful
//! shutdown.
//!
//! The data path is deliberately simple — one `Mutex<VecDeque>` plus two
//! `Condvar`s — because the expensive work (the batch computation itself)
//! happens outside the lock, on the worker thread; the engine's own
//! (frame/row) parallelism runs inside the batch call. Requests never
//! reorder relative to their submission, and every request's result depends
//! only on its own payload, so serving adds latency policy (coalescing)
//! without changing any numeric result.
//!
//! The worker has one panic boundary: every engine call runs under
//! `catch_unwind`, so a panicking batch resolves with
//! [`ServeError::WorkerDied`] and the worker keeps serving. Nothing else on
//! the worker thread can unwind (the `on_expired` hook is caught the same
//! way), so no handle is ever stranded.

use crate::{recover, ServeError, ServeResult};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum number of requests coalesced into one engine call.
    pub max_batch: usize,
    /// How long the scheduler waits after picking up the first pending request
    /// for more requests to arrive before dispatching a partial batch.
    /// `Duration::ZERO` dispatches immediately with whatever is queued. A
    /// linger whose end is past what an [`Instant`] can represent (such as
    /// `Duration::MAX`) waits until the batch fills, a deadline cuts it, or
    /// shutdown begins.
    pub linger: Duration,
    /// Bounded submission-queue capacity. When full, [`Server::submit`] blocks
    /// and [`Server::try_submit`] returns [`TrySubmitError::Full`].
    pub queue_capacity: usize,
    /// Latency-priority mode: default per-request deadline applied by
    /// [`Server::submit`] / [`Server::try_submit`] (individual requests may
    /// override it via [`Server::submit_with_deadline`]). `None` (the
    /// default) disables deadlines entirely.
    ///
    /// A deadline bounds **time to dispatch**: the scheduler cuts a lingering
    /// batch early when the oldest queued request's slack runs out, and a
    /// request still queued when its deadline passes is dropped from its
    /// batch and resolved with [`ServeError::DeadlineExceeded`] instead of
    /// blocking younger requests. A request already handed to the engine
    /// always completes normally.
    pub deadline: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 8, linger: Duration::from_millis(2), queue_capacity: 64, deadline: None }
    }
}

impl BatchConfig {
    /// Validates the configuration (`max_batch` and `queue_capacity` must be
    /// ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> ServeResult<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        Ok(())
    }
}

/// A pluggable batch computation for a [`Server`].
///
/// `process_batch` receives the coalesced requests in submission order and
/// must return exactly one result per request, in the same order. The engine
/// moves to the server's worker thread, so it must be `Send`.
pub trait BatchEngine: Send + 'static {
    /// Payload submitted per request (e.g. one `ChannelData` frame).
    type Request: Send + 'static;
    /// Result resolved per request (e.g. one `IqImage`).
    type Response: Send + 'static;

    /// Processes one coalesced batch, returning one result per request in
    /// request order.
    fn process_batch(&self, batch: Vec<Self::Request>) -> Vec<ServeResult<Self::Response>>;

    /// Hook invoked once per request dropped from a batch because its
    /// deadline expired before dispatch (the request's handle resolves with
    /// [`ServeError::DeadlineExceeded`] separately). The router feeds its
    /// load-shedding ladder from this signal. Must be cheap and non-blocking;
    /// a panic here is swallowed. The default does nothing.
    fn on_expired(&self, _request: &Self::Request) {}
}

/// Adapter implementing [`BatchEngine`] from a plain closure
/// (see [`Server::from_fn`]).
pub struct FnEngine<I, O, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, F> BatchEngine for FnEngine<I, O, F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(Vec<I>) -> Vec<ServeResult<O>> + Send + 'static,
{
    type Request = I;
    type Response = O;

    fn process_batch(&self, batch: Vec<I>) -> Vec<ServeResult<O>> {
        (self.f)(batch)
    }
}

/// Fixed-bucket end-to-end latency histogram.
///
/// Bucket `i` counts requests whose submit→response latency fell in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 additionally absorbs sub-µs
/// latencies), so percentile estimates carry at most one octave of
/// quantisation error. The storage is a fixed inline array — recording is two
/// integer increments with **no allocation on the hot path** — and the top
/// bucket saturates at ≈ 71 minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; Self::NUM_BUCKETS],
    count: u64,
    total_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; Self::NUM_BUCKETS], count: 0, total_micros: 0 }
    }
}

impl LatencyHistogram {
    /// Number of power-of-two-microsecond buckets.
    pub const NUM_BUCKETS: usize = 32;

    /// Records one request latency.
    pub fn record(&mut self, latency: Duration) {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = if micros <= 1 { 0 } else { (63 - micros.leading_zeros()) as usize }.min(Self::NUM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean recorded latency ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.total_micros.checked_div(self.count).unwrap_or(0))
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`): the upper
    /// edge of the bucket containing the rank-`⌈q·count⌉` latency. Returns
    /// [`Duration::ZERO`] when nothing was recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Duration::from_micros(1u64 << (i + 1));
            }
        }
        Duration::from_micros(1u64 << Self::NUM_BUCKETS)
    }

    /// Median latency estimate (see [`LatencyHistogram::percentile`]).
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// Losslessly folds another histogram into this one: afterwards every
    /// count/mean/percentile query answers as if each latency recorded in
    /// either histogram had been recorded here. The scenario benchmark
    /// harness merges the per-process histograms of independent load agents
    /// this way.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
    }

    /// The raw per-bucket counts, bucket `i` covering latencies in
    /// `(2^i, 2^(i+1)]` microseconds (bucket 0 also holds 0–1 µs, the last
    /// bucket everything above its lower edge).
    pub fn bucket_counts(&self) -> &[u64; Self::NUM_BUCKETS] {
        &self.buckets
    }

    /// Upper edge of bucket `i` as reported by [`LatencyHistogram::percentile`].
    pub fn bucket_upper_bound(index: usize) -> Duration {
        assert!(index < Self::NUM_BUCKETS, "bucket index out of range");
        Duration::from_micros(1u64 << (index + 1))
    }

    /// Iterates the non-empty buckets as `(upper_bound, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (Duration, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper_bound(i), n))
    }

    /// Total recorded microseconds (the numerator of
    /// [`LatencyHistogram::mean`]); exposed so a histogram can be shipped
    /// across a process boundary and rebuilt losslessly with
    /// [`LatencyHistogram::from_parts`].
    pub fn total_micros(&self) -> u64 {
        self.total_micros
    }

    /// Rebuilds a histogram from wire parts: per-bucket counts plus the
    /// total recorded microseconds. The count is recomputed from the
    /// buckets, so `from_parts(h.bucket_counts().clone(), h.total_micros())`
    /// equals `h` for any histogram `h`.
    pub fn from_parts(buckets: [u64; Self::NUM_BUCKETS], total_micros: u64) -> Self {
        let count = buckets.iter().sum();
        Self { buckets, count, total_micros }
    }

    /// 99th-percentile latency estimate (see
    /// [`LatencyHistogram::percentile`]).
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }
}

/// Counters describing what a server has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests whose handle has been fulfilled (success or error).
    pub completed: u64,
    /// Engine calls (coalesced batches) executed.
    pub batches: u64,
    /// Largest batch dispatched in one engine call.
    pub max_batch_observed: usize,
    /// Requests whose deadline expired while queued; they resolved with
    /// [`ServeError::DeadlineExceeded`] without reaching the engine (counted
    /// in [`ServerStats::completed`] too — their handles were fulfilled).
    pub deadline_expired: u64,
    /// End-to-end (submit → response) latency distribution of requests the
    /// engine actually served, including queueing, linger and engine time
    /// (deadline-expired requests are excluded).
    pub latency: LatencyHistogram,
}

impl ServerStats {
    /// Mean requests per engine call so far (0 when no batch ran yet).
    /// Deadline-expired requests never reach an engine call, so they are
    /// excluded.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed - self.deadline_expired) as f64 / self.batches as f64
        }
    }
}

enum SlotState<O> {
    Pending,
    Done(ServeResult<O>),
    Taken,
}

struct Slot<O> {
    state: Mutex<SlotState<O>>,
    ready: Condvar,
}

impl<O> Slot<O> {
    fn new() -> Arc<Self> {
        Arc::new(Self { state: Mutex::new(SlotState::Pending), ready: Condvar::new() })
    }

    fn fulfill(&self, result: ServeResult<O>) {
        let mut state = recover(self.state.lock());
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Done(result);
            self.ready.notify_all();
        }
    }
}

/// The receiving end of one submitted request: a blocking future.
///
/// Obtained from [`Server::submit`] / [`Server::try_submit`]; resolves when
/// the worker finishes the request's batch. Handles stay valid across
/// [`Server::shutdown`] — shutdown drains the queue, so every accepted
/// request is fulfilled before the worker exits.
pub struct ResponseHandle<O> {
    slot: Arc<Slot<O>>,
}

impl<O> ResponseHandle<O> {
    /// Blocks until the request completes and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the result was already consumed by a successful
    /// [`ResponseHandle::try_take`] — take a handle out of any polling sweep
    /// once `try_take` has returned `Some` for it.
    pub fn wait(self) -> ServeResult<O> {
        let mut state = recover(self.slot.state.lock());
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Done(result) => return result,
                SlotState::Taken => panic!("ResponseHandle polled after the result was taken"),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    // Waiting is sound: an engine panic resolves its batch
                    // with WorkerDied, and shutdown drains the queue before
                    // the worker exits, so every accepted request is
                    // eventually fulfilled.
                    state = recover(self.slot.ready.wait(state));
                }
            }
        }
    }

    /// Non-blocking probe: `Some(result)` the first time it is called after
    /// the request completed, `None` while the request is still queued or in
    /// flight — and `None` again once the result has been consumed, so
    /// polling a set of handles in a loop is safe after some have resolved.
    pub fn try_take(&self) -> Option<ServeResult<O>> {
        let mut state = recover(self.slot.state.lock());
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Done(result) => Some(result),
            SlotState::Pending => {
                *state = SlotState::Pending;
                None
            }
            SlotState::Taken => None,
        }
    }

    /// Whether a result is currently available to take (`false` while the
    /// request is in flight and after the result has been consumed).
    pub fn is_ready(&self) -> bool {
        matches!(*recover(self.slot.state.lock()), SlotState::Done(_))
    }
}

/// Rejection from [`Server::submit`] / [`Server::try_submit`]; returns the
/// request to the caller so it can be retried, re-routed or shed instead of
/// being dropped.
#[derive(Debug)]
pub enum TrySubmitError<I> {
    /// The bounded queue is at capacity — backpressure; retry later. Never
    /// produced by the blocking [`Server::submit`], which waits instead.
    Full(I),
    /// The server no longer accepts requests.
    ShuttingDown(I),
}

impl<I> fmt::Display for TrySubmitError<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_serve_error().fmt(f)
    }
}

impl<I: fmt::Debug> std::error::Error for TrySubmitError<I> {}

impl<I> TrySubmitError<I> {
    /// The equivalent [`ServeError`] (dropping the payload).
    pub fn as_serve_error(&self) -> ServeError {
        match self {
            Self::Full(_) => ServeError::QueueFull,
            Self::ShuttingDown(_) => ServeError::ShuttingDown,
        }
    }
}

/// One queued request: payload, response slot and its timing metadata.
struct Pending<I, O> {
    request: I,
    slot: Arc<Slot<O>>,
    submitted_at: Instant,
    /// Absolute dispatch deadline (`None` = never expires).
    deadline: Option<Instant>,
}

struct QueueState<I, O> {
    queue: VecDeque<Pending<I, O>>,
    shutting_down: bool,
    stats: ServerStats,
}

/// Earliest dispatch deadline among the queued requests, if any.
fn earliest_deadline<I, O>(queue: &VecDeque<Pending<I, O>>) -> Option<Instant> {
    queue.iter().filter_map(|p| p.deadline).min()
}

struct Shared<I, O> {
    state: Mutex<QueueState<I, O>>,
    /// Signalled when a request is enqueued or shutdown begins (wakes the
    /// worker).
    not_empty: Condvar,
    /// Signalled when queue space frees up (wakes blocked submitters).
    not_full: Condvar,
}

/// A synchronous streaming micro-batching server over a [`BatchEngine`].
///
/// See the [crate-level documentation](crate) for the architecture.
/// Construction spawns the one worker thread; [`Server::shutdown`] (or
/// dropping the server) drains every accepted request and joins it.
///
/// ```
/// use serve::{BatchConfig, Server};
/// use std::time::Duration;
///
/// let server = Server::from_fn(
///     BatchConfig { max_batch: 4, linger: Duration::ZERO, ..BatchConfig::default() },
///     |batch: Vec<u32>| batch.into_iter().map(|v| Ok(v + 1)).collect(),
/// );
/// let handle = server.submit(9).unwrap();
/// assert_eq!(handle.wait(), Ok(10));
/// let stats = server.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct Server<E: BatchEngine> {
    shared: Arc<Shared<E::Request, E::Response>>,
    config: BatchConfig,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<I, O, F> Server<FnEngine<I, O, F>>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(Vec<I>) -> Vec<ServeResult<O>> + Send + 'static,
{
    /// Builds a server whose engine is a plain closure mapping a batch of
    /// requests to one result per request (in order). Convenient for tests
    /// and custom pipelines; beamforming deployments use
    /// [`crate::router::Router`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`BatchConfig`] (zero `max_batch` or capacity).
    pub fn from_fn(config: BatchConfig, f: F) -> Self {
        Self::new(config, FnEngine { f, _marker: std::marker::PhantomData })
    }
}

impl<E: BatchEngine> Server<E> {
    /// Spawns the worker thread and returns the running server.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`BatchConfig`] (zero `max_batch` or capacity).
    pub fn new(config: BatchConfig, engine: E) -> Self {
        config.validate().expect("invalid BatchConfig");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), shutting_down: false, stats: ServerStats::default() }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("serve-worker".into())
                .spawn(move || worker_loop(&shared, &engine, &config))
                .expect("failed to spawn serve worker")
        };
        Self { shared, config, worker: Some(worker) }
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Submits a request, blocking while the bounded queue is full
    /// (backpressure). The request carries the configured default deadline
    /// ([`BatchConfig::deadline`]), if any.
    ///
    /// # Errors
    ///
    /// Returns [`TrySubmitError::ShuttingDown`] — carrying the request back to
    /// the caller for failover instead of dropping it — once
    /// [`Server::shutdown`] has begun.
    pub fn submit(&self, request: E::Request) -> Result<ResponseHandle<E::Response>, TrySubmitError<E::Request>> {
        self.enqueue(request, self.config.deadline, true)
    }

    /// [`Server::submit`] with an explicit per-request deadline overriding
    /// [`BatchConfig::deadline`]. The deadline is measured from submission:
    /// if the request is still queued `deadline` from now, it resolves with
    /// [`ServeError::DeadlineExceeded`] instead of being dispatched, and a
    /// lingering batch is cut early rather than letting the request's slack
    /// run out (see [`BatchConfig::deadline`] for the exact semantics). A
    /// deadline whose end is past what an [`Instant`] can represent (such as
    /// `Duration::MAX`) never expires.
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`].
    pub fn submit_with_deadline(
        &self,
        request: E::Request,
        deadline: Duration,
    ) -> Result<ResponseHandle<E::Response>, TrySubmitError<E::Request>> {
        self.enqueue(request, Some(deadline), true)
    }

    /// Non-blocking [`Server::submit`]: sheds load instead of waiting.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] when the queue is at capacity,
    /// [`TrySubmitError::ShuttingDown`] after shutdown began — both return
    /// the request so the caller can retry or drop it.
    pub fn try_submit(&self, request: E::Request) -> Result<ResponseHandle<E::Response>, TrySubmitError<E::Request>> {
        self.enqueue(request, self.config.deadline, false)
    }

    /// Non-blocking [`Server::submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// Same as [`Server::try_submit`].
    pub fn try_submit_with_deadline(
        &self,
        request: E::Request,
        deadline: Duration,
    ) -> Result<ResponseHandle<E::Response>, TrySubmitError<E::Request>> {
        self.enqueue(request, Some(deadline), false)
    }

    fn enqueue(
        &self,
        request: E::Request,
        deadline: Option<Duration>,
        block: bool,
    ) -> Result<ResponseHandle<E::Response>, TrySubmitError<E::Request>> {
        let mut state = recover(self.shared.state.lock());
        loop {
            if state.shutting_down {
                return Err(TrySubmitError::ShuttingDown(request));
            }
            if state.queue.len() < self.config.queue_capacity {
                break;
            }
            if !block {
                return Err(TrySubmitError::Full(request));
            }
            state = recover(self.shared.not_full.wait(state));
        }
        let slot = Slot::new();
        let submitted_at = Instant::now();
        state.queue.push_back(Pending {
            request,
            slot: Arc::clone(&slot),
            submitted_at,
            deadline: deadline.and_then(|d| submitted_at.checked_add(d)),
        });
        state.stats.submitted += 1;
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(ResponseHandle { slot })
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> ServerStats {
        recover(self.shared.state.lock()).stats
    }

    /// Number of requests currently queued (not yet drained into a batch).
    pub fn queue_depth(&self) -> usize {
        recover(self.shared.state.lock()).queue.len()
    }

    /// Graceful shutdown: stops accepting new requests, lets the worker
    /// drain and fulfil every already-accepted request, joins it and returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        recover(self.shared.state.lock()).shutting_down = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // The worker exits only on an empty queue, so joining it drains every
        // accepted request.
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<E: BatchEngine> Drop for Server<E> {
    fn drop(&mut self) {
        if self.worker.is_some() && !std::thread::panicking() {
            self.stop();
        }
    }
}

fn worker_loop<E: BatchEngine>(shared: &Shared<E::Request, E::Response>, engine: &E, config: &BatchConfig) {
    loop {
        let (batch, expired) = {
            let mut state = recover(shared.state.lock());
            // Sleep until there is work or the server is shutting down.
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.shutting_down {
                    return;
                }
                state = recover(shared.not_empty.wait(state));
            }
            // Expiry reference point: a request times out only if its
            // deadline had already passed when this dispatch cycle began —
            // i.e. it spent a whole engine call (or longer) stuck in the
            // queue. A deadline that fires *during* the linger below cuts
            // the batch and the request dispatches immediately instead, so
            // the boundary between "cut early and serve" and "expire" is
            // never racy.
            let cycle_start = Instant::now();
            // Linger: give late arrivals a chance to coalesce into this batch.
            // Skipped once the batch is full, the queue is at capacity (no
            // further arrival is possible — submitters are parked on
            // `not_full`), or the server is draining for shutdown. In
            // latency-priority mode the wait is additionally capped by the
            // oldest queued request's deadline: once its slack runs out the
            // batch is cut early and dispatched with whatever coalesced. A
            // linger or deadline past the end of `Instant` sets no cut.
            if !config.linger.is_zero() {
                let linger_until = cycle_start.checked_add(config.linger);
                while state.queue.len() < config.max_batch.min(config.queue_capacity) && !state.shutting_down {
                    match [earliest_deadline(&state.queue), linger_until].into_iter().flatten().min() {
                        Some(cut) => {
                            let now = Instant::now();
                            if now >= cut {
                                break;
                            }
                            let (next, timeout) = recover(shared.not_empty.wait_timeout(state, cut - now));
                            state = next;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        None => state = recover(shared.not_empty.wait(state)),
                    }
                }
            }
            // Drain up to max_batch live requests; requests whose deadline
            // passed before this cycle began are pulled aside to time out
            // instead of occupying batch slots. Only this thread pops the
            // queue, so the drain takes at least one request.
            let mut batch = Vec::new();
            let mut expired = Vec::new();
            while batch.len() < config.max_batch {
                match state.queue.front() {
                    Some(p) if p.deadline.is_some_and(|d| cycle_start >= d) => {
                        expired.push(state.queue.pop_front().expect("front checked"));
                    }
                    Some(_) => batch.push(state.queue.pop_front().expect("front checked")),
                    None => break,
                }
            }
            if !batch.is_empty() {
                state.stats.batches += 1;
                state.stats.max_batch_observed = state.stats.max_batch_observed.max(batch.len());
            }
            state.stats.deadline_expired += expired.len() as u64;
            state.stats.completed += expired.len() as u64;
            (batch, expired)
        };
        shared.not_full.notify_all();
        for p in expired {
            // Feed the expiry signal to the engine (the router's ladder
            // listens here) before resolving the timeout; a panicking hook
            // must not take the worker down with it.
            let _ = catch_unwind(AssertUnwindSafe(|| engine.on_expired(&p.request)));
            p.slot.fulfill(Err(ServeError::DeadlineExceeded));
        }
        if batch.is_empty() {
            continue;
        }

        let mut requests = Vec::with_capacity(batch.len());
        let mut slots = Vec::with_capacity(batch.len());
        let mut submitted_at = Vec::with_capacity(batch.len());
        for p in batch {
            requests.push(p.request);
            slots.push(p.slot);
            submitted_at.push(p.submitted_at);
        }
        let count = requests.len();
        // The one panic boundary: a panicking engine resolves its batch with
        // WorkerDied and the worker lives on.
        let mut results = catch_unwind(AssertUnwindSafe(|| engine.process_batch(requests)))
            .unwrap_or_else(|_| (0..count).map(|_| Err(ServeError::WorkerDied)).collect());
        if results.len() != count {
            let actual = results.len();
            results = (0..count).map(|_| Err(ServeError::BatchSizeMismatch { expected: count, actual })).collect();
        }
        for (slot, result) in slots.iter().zip(results) {
            slot.fulfill(result);
        }
        let mut state = recover(shared.state.lock());
        state.stats.completed += count as u64;
        for at in &submitted_at {
            state.stats.latency.record(at.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_percentiles_bracket_recorded_values() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        // 99 fast requests (~100 µs) and one slow outlier (~50 ms).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        // p50 sits in the [64, 128) µs bucket → upper bound 128 µs.
        assert_eq!(h.p50(), Duration::from_micros(128));
        // p99 is still a fast request; p100 must cover the outlier.
        assert_eq!(h.p99(), Duration::from_micros(128));
        assert!(h.percentile(1.0) >= Duration::from_millis(50));
        assert!(h.mean() >= Duration::from_micros(100));
    }

    #[test]
    fn latency_histogram_merge_is_lossless() {
        // Two disjoint recording sets, merged, must answer every query
        // exactly as one histogram that recorded both sets directly.
        let fast: Vec<Duration> = (0..97).map(|i| Duration::from_micros(40 + 7 * i)).collect();
        let slow: Vec<Duration> =
            (0..31).map(|i| Duration::from_millis(3 + i) + Duration::from_micros(13 * i)).collect();
        let (mut a, mut b, mut combined) =
            (LatencyHistogram::default(), LatencyHistogram::default(), LatencyHistogram::default());
        for &d in &fast {
            a.record(d);
            combined.record(d);
        }
        for &d in &slow {
            b.record(d);
            combined.record(d);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.p50(), combined.p50());
        assert_eq!(a.p99(), combined.p99());
        assert_eq!(a.percentile(1.0), combined.percentile(1.0));
        assert_eq!(a.mean(), combined.mean());
        // Merging an empty histogram is the identity.
        let before = a;
        a.merge(&LatencyHistogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn latency_histogram_bucket_round_trip() {
        let mut h = LatencyHistogram::default();
        for i in 0..200u64 {
            h.record(Duration::from_micros(1 + i * 311));
        }
        let rebuilt = LatencyHistogram::from_parts(*h.bucket_counts(), h.total_micros());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), h.count());
        // The iterator covers exactly the recorded mass, in bucket order.
        let total: u64 = h.buckets().map(|(_, n)| n).sum();
        assert_eq!(total, h.count());
        let mut last = Duration::ZERO;
        for (upper, _) in h.buckets() {
            assert!(upper > last);
            last = upper;
        }
    }

    #[test]
    fn latency_histogram_edge_cases_saturate() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO); // sub-µs → bucket 0
        h.record(Duration::from_secs(60 * 60 * 24)); // beyond the top bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.5), Duration::from_micros(2));
        assert!(h.percentile(1.0) >= Duration::from_micros(1 << 31));
    }

    #[test]
    fn expired_deadline_resolves_with_timeout_instead_of_blocking_the_batch() {
        // A slow engine call occupies the single worker; requests queued
        // behind it with a tiny deadline expire before the worker drains
        // them, while a deadline-free request in the same drain is served.
        use std::sync::atomic::{AtomicBool, Ordering};
        let entered = Arc::new(AtomicBool::new(false));
        let server = {
            let entered = Arc::clone(&entered);
            Server::from_fn(
                BatchConfig { max_batch: 4, linger: Duration::ZERO, ..BatchConfig::default() },
                move |batch: Vec<u32>| {
                    entered.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(40));
                    batch.into_iter().map(|v| Ok(v * 10)).collect()
                },
            )
        };
        let plug = server.submit(1).unwrap();
        // Only submit behind the worker once it is provably inside the engine,
        // so the doomed request cannot sneak into the first batch.
        while !entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let doomed = server.submit_with_deadline(2, Duration::from_millis(10)).unwrap();
        let survivor = server.submit(3).unwrap();
        assert_eq!(plug.wait(), Ok(10));
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        assert_eq!(survivor.wait(), Ok(30));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 3, "expired requests still resolve their handles");
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.latency.count(), 2, "timed-out requests must not pollute the latency histogram");
        assert!(stats.mean_batch() <= 2.0);
    }

    #[test]
    fn deadline_cuts_a_lingering_batch_early() {
        // Linger is far longer than the request's slack: the scheduler must
        // dispatch when the slack runs out, not when the linger ends.
        let server = Server::from_fn(
            BatchConfig {
                max_batch: 64,
                linger: Duration::from_secs(5),
                deadline: Some(Duration::from_millis(30)),
                ..BatchConfig::default()
            },
            |batch: Vec<u32>| batch.into_iter().map(Ok).collect(),
        );
        let start = Instant::now();
        let handle = server.submit(7).unwrap();
        assert_eq!(handle.wait(), Ok(7), "the request must be served, not timed out");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "batch must be cut at the ~30 ms deadline, not the 5 s linger (took {elapsed:?})"
        );
        let stats = server.shutdown();
        assert_eq!(stats.deadline_expired, 0);
    }

    #[test]
    fn config_default_deadline_applies_to_plain_submit() {
        let server = Server::from_fn(
            BatchConfig {
                max_batch: 1,
                linger: Duration::ZERO,
                deadline: Some(Duration::ZERO),
                ..BatchConfig::default()
            },
            |batch: Vec<u32>| {
                std::thread::sleep(Duration::from_millis(20));
                batch.into_iter().map(Ok).collect()
            },
        );
        // First request is picked up immediately (may be served before its
        // zero deadline is checked); everything queued behind the busy worker
        // has already expired by the next drain.
        let first = server.submit(0).unwrap();
        let rest: Vec<_> = (1..5).map(|v| server.submit(v).unwrap()).collect();
        let _ = first.wait();
        let timed_out =
            rest.into_iter().filter(|h| matches!(h.try_take(), Some(Err(ServeError::DeadlineExceeded)))).count();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 5);
        assert!(stats.deadline_expired >= timed_out as u64);
        assert!(stats.deadline_expired >= 3, "zero default deadline must expire queued requests");
    }

    #[test]
    fn server_records_one_latency_per_request() {
        let server = Server::from_fn(
            BatchConfig { max_batch: 4, linger: Duration::ZERO, ..BatchConfig::default() },
            |batch: Vec<u32>| {
                std::thread::sleep(Duration::from_millis(2));
                batch.into_iter().map(|v| Ok(v + 1)).collect()
            },
        );
        let handles: Vec<_> = (0..6).map(|v| server.submit(v).unwrap()).collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.latency.count(), 6);
        // Every request waited at least the 2 ms engine sleep.
        assert!(stats.latency.percentile(0.01) >= Duration::from_millis(2), "{:?}", stats.latency.percentile(0.01));
        assert!(stats.latency.p99() >= stats.latency.p50());
    }
}
