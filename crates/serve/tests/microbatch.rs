//! Micro-batcher edge cases: empty queue, batch-of-one, coalescing, ordering,
//! backpressure, error isolation, panics at the batch and expiry boundaries,
//! unbounded linger and deadlines, and shutdown with in-flight requests.

use serve::{BatchConfig, BatchEngine, ServeError, ServeResult, Server, TrySubmitError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn identity_server(config: BatchConfig) -> Server<impl BatchEngine<Request = usize, Response = usize>> {
    Server::from_fn(config, |batch: Vec<usize>| batch.into_iter().map(Ok).collect())
}

#[test]
fn shutdown_with_empty_queue_returns_immediately() {
    let server = identity_server(BatchConfig::default());
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.batches, 0);
}

#[test]
fn batch_of_one_resolves() {
    let server = identity_server(BatchConfig { linger: Duration::ZERO, ..BatchConfig::default() });
    let handle = server.submit(41).unwrap();
    assert_eq!(handle.wait().unwrap(), 41);
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch_observed, 1);
}

#[test]
fn results_map_to_their_own_requests_in_order() {
    let server = identity_server(BatchConfig { max_batch: 4, queue_capacity: 128, ..BatchConfig::default() });
    let handles: Vec<_> = (0..100).map(|v| server.submit(v).unwrap()).collect();
    for (expected, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), expected);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 100);
    assert!(stats.batches >= 25, "max_batch 4 needs >= 25 engine calls for 100 requests");
    assert!(stats.max_batch_observed <= 4);
}

/// A gate the test holds closed while the worker is inside the engine,
/// so queue contents while the worker is busy are deterministic.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>, // (open, entered-count)
    changed: Condvar,
}

impl Gate {
    fn enter_and_wait(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn wait_for_entries(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.1 < n {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
    }
}

#[test]
fn pending_requests_coalesce_into_one_batch() {
    let gate = Arc::new(Gate::default());
    let sizes = Arc::new(Mutex::new(Vec::new()));
    let server = {
        let gate = Arc::clone(&gate);
        let sizes = Arc::clone(&sizes);
        Server::from_fn(
            BatchConfig { max_batch: 8, linger: Duration::ZERO, queue_capacity: 16, ..BatchConfig::default() },
            move |batch: Vec<usize>| {
                sizes.lock().unwrap().push(batch.len());
                // Only the plug request (value 0) blocks on the gate.
                if batch[0] == 0 {
                    gate.enter_and_wait();
                }
                batch.into_iter().map(Ok).collect()
            },
        )
    };
    // Plug the single worker, then queue 5 requests behind it.
    let plug = server.submit(0).unwrap();
    gate.wait_for_entries(1);
    let handles: Vec<_> = (1..=5).map(|v| server.submit(v).unwrap()).collect();
    gate.open();
    assert_eq!(plug.wait().unwrap(), 0);
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), i + 1);
    }
    let stats = server.shutdown();
    // The 5 queued requests must have been drained as one coalesced batch.
    assert_eq!(*sizes.lock().unwrap(), vec![1, 5]);
    assert_eq!(stats.max_batch_observed, 5);
}

#[test]
fn full_queue_rejects_try_submit_and_backpressures_submit() {
    let gate = Arc::new(Gate::default());
    let server = {
        let gate = Arc::clone(&gate);
        Server::from_fn(
            BatchConfig { max_batch: 1, linger: Duration::ZERO, queue_capacity: 2, ..BatchConfig::default() },
            move |batch: Vec<usize>| {
                gate.enter_and_wait();
                batch.into_iter().map(Ok).collect()
            },
        )
    };
    let plug = server.submit(0).unwrap();
    gate.wait_for_entries(1); // worker is now busy; the queue is empty
    let q1 = server.submit(1).unwrap();
    let q2 = server.submit(2).unwrap();
    assert_eq!(server.queue_depth(), 2);
    // Queue is at capacity: non-blocking submission must shed the request.
    match server.try_submit(99) {
        Err(TrySubmitError::Full(returned)) => {
            assert_eq!(returned, 99);
            assert_eq!(TrySubmitError::Full(returned).as_serve_error(), ServeError::QueueFull);
        }
        other => panic!("expected Full rejection, got {:?}", other.map(|_| "handle")),
    }
    // A blocking submit must park until the worker frees a slot.
    let blocked = {
        let submitted = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&submitted);
        let server_ref = &server;
        std::thread::scope(|scope| {
            let join = scope.spawn(move || {
                let handle = server_ref.submit(3).unwrap();
                flag.store(1, Ordering::SeqCst);
                handle
            });
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(submitted.load(Ordering::SeqCst), 0, "submit must block while the queue is full");
            gate.open(); // worker drains; space frees up; submit completes
            join.join().unwrap()
        })
    };
    assert_eq!(plug.wait().unwrap(), 0);
    assert_eq!(q1.wait().unwrap(), 1);
    assert_eq!(q2.wait().unwrap(), 2);
    assert_eq!(blocked.wait().unwrap(), 3);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = identity_server(BatchConfig {
        max_batch: 3,
        linger: Duration::from_millis(50),
        queue_capacity: 64,
        ..BatchConfig::default()
    });
    let handles: Vec<_> = (0..40).map(|v| server.submit(v).unwrap()).collect();
    // Shut down immediately: every accepted request must still resolve.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 40);
    assert_eq!(stats.completed, 40);
    for (expected, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), expected);
    }
}

#[test]
fn unrepresentable_linger_and_deadline_wait_instead_of_overflowing() {
    // `Instant + Duration::MAX` overflows; such a linger sets no cut, so a
    // batch waits until it fills or shutdown begins, and such a deadline
    // never expires.
    let sizes = Arc::new(Mutex::new(Vec::new()));
    let server = {
        let sizes = Arc::clone(&sizes);
        Server::from_fn(
            BatchConfig { max_batch: 2, linger: Duration::MAX, ..BatchConfig::default() },
            move |batch: Vec<usize>| {
                sizes.lock().unwrap().push(batch.len());
                batch.into_iter().map(Ok).collect()
            },
        )
    };
    let first = server.submit(1).unwrap();
    let second = server.submit_with_deadline(2, Duration::MAX).unwrap();
    assert_eq!(first.wait(), Ok(1));
    assert_eq!(second.wait(), Ok(2));
    // A lone request lingers until shutdown drains it.
    let third = server.submit(3).unwrap();
    let stats = server.shutdown();
    assert_eq!(third.wait(), Ok(3));
    assert_eq!(*sizes.lock().unwrap(), vec![2, 1], "the first two requests must coalesce into one batch");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.deadline_expired, 0);
}

#[test]
fn per_request_engine_errors_do_not_poison_the_batch() {
    let server = Server::from_fn(
        BatchConfig { max_batch: 8, queue_capacity: 16, ..BatchConfig::default() },
        |batch: Vec<usize>| {
            batch
                .into_iter()
                .map(|v| if v % 2 == 0 { Ok(v) } else { Err(ServeError::Engine(format!("odd input {v}"))) })
                .collect()
        },
    );
    let handles: Vec<_> = (0..10).map(|v| server.submit(v).unwrap()).collect();
    for (v, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(out) => {
                assert_eq!(out, v);
                assert_eq!(v % 2, 0);
            }
            Err(ServeError::Engine(reason)) => {
                assert_eq!(v % 2, 1);
                assert!(reason.contains(&format!("{v}")));
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    server.shutdown();
}

#[test]
fn wrong_result_count_is_reported_not_hung() {
    let server = Server::from_fn(
        BatchConfig { max_batch: 4, linger: Duration::ZERO, ..BatchConfig::default() },
        |_batch: Vec<usize>| vec![Ok(1)], // always one result, whatever the batch size
    );
    let gate_batch: Vec<_> = (0..1).map(|v| server.submit(v).unwrap()).collect();
    // A singleton batch actually matches the bogus engine, so it succeeds…
    assert_eq!(gate_batch.into_iter().next().unwrap().wait().unwrap(), 1);
    server.shutdown();

    // …but any larger coalesced batch must resolve every handle with the
    // mismatch error instead of leaving three of them pending forever.
    let gate = Arc::new(Gate::default());
    let server = {
        let gate = Arc::clone(&gate);
        Server::from_fn(
            BatchConfig { max_batch: 4, linger: Duration::ZERO, queue_capacity: 16, ..BatchConfig::default() },
            move |batch: Vec<usize>| {
                if batch[0] == 0 {
                    gate.enter_and_wait();
                    batch.into_iter().map(Ok).collect()
                } else {
                    vec![Ok(1)]
                }
            },
        )
    };
    let plug = server.submit(0).unwrap();
    gate.wait_for_entries(1);
    let handles: Vec<_> = (1..=3).map(|v| server.submit(v).unwrap()).collect();
    gate.open();
    plug.wait().unwrap();
    for handle in handles {
        assert_eq!(handle.wait(), Err(ServeError::BatchSizeMismatch { expected: 3, actual: 1 }));
    }
    server.shutdown();
}

#[test]
fn engine_panic_resolves_its_batch_and_the_worker_survives() {
    let server = Server::from_fn(
        BatchConfig { max_batch: 1, linger: Duration::ZERO, queue_capacity: 8, ..BatchConfig::default() },
        |batch: Vec<usize>| {
            assert!(!batch.is_empty(), "empty batches must never be dispatched");
            if batch[0] == 13 {
                panic!("unlucky request");
            }
            batch.into_iter().map(Ok).collect()
        },
    );
    let before = server.submit(1).unwrap();
    let doomed = server.submit(13).unwrap();
    let after = server.submit(2).unwrap();
    assert_eq!(before.wait().unwrap(), 1);
    // The panicking batch resolves instead of hanging…
    assert_eq!(doomed.wait(), Err(ServeError::WorkerDied));
    // …and the single worker survives to serve requests queued behind it.
    assert_eq!(after.wait().unwrap(), 2);
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

/// A slow engine whose expiry hook panics after counting its call.
struct PanickingExpiryHook {
    expired_calls: Arc<AtomicUsize>,
}

impl BatchEngine for PanickingExpiryHook {
    type Request = usize;
    type Response = usize;

    fn process_batch(&self, batch: Vec<usize>) -> Vec<ServeResult<usize>> {
        std::thread::sleep(Duration::from_millis(20));
        batch.into_iter().map(Ok).collect()
    }

    fn on_expired(&self, _request: &usize) {
        self.expired_calls.fetch_add(1, Ordering::SeqCst);
        panic!("expiry hook panics");
    }
}

#[test]
fn expiry_hook_panic_still_times_out_its_request_and_the_worker_survives() {
    let expired_calls = Arc::new(AtomicUsize::new(0));
    let server = Server::new(
        BatchConfig { max_batch: 1, linger: Duration::ZERO, ..BatchConfig::default() },
        PanickingExpiryHook { expired_calls: Arc::clone(&expired_calls) },
    );
    let first = server.submit(1).unwrap();
    // Queued behind the first one-request batch, so it has expired by the
    // time the worker drains it.
    let doomed = server.submit_with_deadline(2, Duration::ZERO).unwrap();
    assert_eq!(first.wait(), Ok(1));
    assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
    assert_eq!(expired_calls.load(Ordering::SeqCst), 1, "the expiry hook must have run");
    // The worker survived the hook's panic and serves the next request.
    assert_eq!(server.submit(3).unwrap().wait(), Ok(3));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn try_take_and_is_ready_probe_without_blocking() {
    let gate = Arc::new(Gate::default());
    let server = {
        let gate = Arc::clone(&gate);
        Server::from_fn(BatchConfig::default(), move |batch: Vec<usize>| {
            gate.enter_and_wait();
            batch.into_iter().map(Ok).collect()
        })
    };
    let handle = server.submit(7).unwrap();
    gate.wait_for_entries(1);
    assert!(!handle.is_ready());
    assert!(handle.try_take().is_none());
    gate.open();
    // Poll until the result lands, as a client loop would.
    let result = loop {
        if let Some(result) = handle.try_take() {
            break result;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(result.unwrap(), 7);
    // A consumed handle polls as not-ready/None instead of panicking, so
    // sweeping a mixed set of handles every tick is safe.
    assert!(!handle.is_ready());
    assert!(handle.try_take().is_none());
    server.shutdown();
}
