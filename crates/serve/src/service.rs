//! The inference service: admission control, micro-batching, a worker
//! pool, and graceful shutdown around one compiled [`Engine`].
//!
//! A [`Service`] owns three moving parts:
//!
//! 1. a bounded **request queue** (the private `queue` module) where
//!    [`Client::submit`] performs admission control;
//! 2. one **batcher** thread (the private `batcher` module) coalescing
//!    queued requests into micro-batches (flush on size or delay) and
//!    dropping expired work;
//! 3. an **executor pool** running each micro-batch as one packed
//!    sweep ([`Engine::run_packed`]) against one
//!    [`Engine`] compiled **once** at
//!    [`Service::start`] — all weight-side work is amortized across
//!    every request the service ever handles, and executors reuse
//!    [`tfe_sim::engine::Scratch`] arenas from a shared pool bounded to
//!    the executor count, so the steady-state hot path allocates
//!    nothing. Responses stay bit-identical to calling
//!    [`FunctionalNetwork::run`] directly, regardless of how arrivals
//!    were packed into batches (`tests/serve_smoke.rs` asserts this
//!    under concurrent load).
//!
//! Every admitted request is guaranteed a response: if a request is
//! dropped on any path (including service teardown), its slot resolves
//! to [`Rejected::ShuttingDown`] rather than leaving the waiter hung.

use crate::batcher::{batcher_loop, executor_loop, MicroBatch};
use crate::config::ServeConfig;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tfe_sim::counters::Counters;
use tfe_sim::engine::{Engine, ScratchPool};
use tfe_sim::network::FunctionalNetwork;
use tfe_sim::SimError;
use tfe_telemetry::TelemetrySnapshot;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;

/// Why a request did not produce an inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded request queue was at capacity; the request was never
    /// admitted.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The request's deadline expired while it waited in the queue; it
    /// was dropped before wasting a batch slot.
    DeadlineExceeded,
    /// The service is shutting down (or already gone) and accepts no new
    /// work.
    ShuttingDown,
    /// The request named a model this endpoint does not serve (raised by
    /// the `tfe-fleet` router; a single-model service never emits it).
    UnknownModel {
        /// The model id the request asked for.
        model: String,
    },
    /// The simulator rejected the request (bad geometry, invalid
    /// configuration, …).
    Failed(SimError),
}

impl Rejected {
    /// Stable wire-protocol identifier for the rejection class.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::DeadlineExceeded => "deadline_exceeded",
            Rejected::ShuttingDown => "shutting_down",
            Rejected::UnknownModel { .. } => "unknown_model",
            Rejected::Failed(_) => "sim_error",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            Rejected::DeadlineExceeded => write!(f, "deadline expired before execution"),
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
            Rejected::UnknownModel { model } => write!(f, "unknown model '{model}'"),
            Rejected::Failed(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Rejected::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferenceReply {
    /// Final network activations, bit-identical to
    /// [`FunctionalNetwork::run`] on the same input.
    pub activations: Tensor4<Fx16>,
    /// This request's own simulator counters.
    pub counters: Counters,
    /// Queue + batching + execution latency, admission to completion.
    pub latency: Duration,
}

/// What a request ultimately resolves to.
pub type ServeResult = Result<InferenceReply, Rejected>;

/// One-shot response slot shared between a waiting [`Ticket`] and the
/// pipeline. First write wins; later writes are ignored, which makes the
/// drop-safety net (resolve to `ShuttingDown` on teardown) idempotent.
pub(crate) struct Slot {
    state: Mutex<Option<ServeResult>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn fulfill(&self, result: ServeResult) {
        let mut state = self.state.lock().expect("slot lock poisoned");
        if state.is_none() {
            *state = Some(result);
            drop(state);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> ServeResult {
        let mut state = self.state.lock().expect("slot lock poisoned");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.ready.wait(state).expect("slot lock poisoned");
        }
    }
}

/// Handle to one in-flight request, returned by [`Client::submit`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(self) -> ServeResult {
        self.slot.wait()
    }
}

/// An admitted request traveling through the pipeline. Dropping a
/// `Pending` without completing it resolves its slot to
/// [`Rejected::ShuttingDown`] — no waiter can hang.
pub(crate) struct Pending {
    pub(crate) input: Tensor4<Fx16>,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    slot: Arc<Slot>,
}

impl Pending {
    pub(crate) fn complete(self, result: ServeResult) {
        self.slot.fulfill(result);
    }

    /// Takes the input tensor back out of a request that was never
    /// admitted — the recovery half of [`Client::submit_recovering`].
    /// The drop guard still resolves the slot, but no [`Ticket`] ever
    /// escaped for it, so nothing observes that resolution.
    pub(crate) fn recover_input(mut self) -> Tensor4<Fx16> {
        std::mem::replace(&mut self.input, Tensor4::zeros([0, 0, 0, 0]))
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.slot.fulfill(Err(Rejected::ShuttingDown));
    }
}

/// State shared by the client handles and the pipeline threads.
pub(crate) struct Shared {
    /// The network compiled once at startup; every request runs against
    /// this, never redoing weight-side work. Behind an [`Arc`] so a
    /// fleet shard can share one compiled engine across several replica
    /// services without duplicating the IR tables.
    pub(crate) engine: Arc<Engine>,
    /// Warm per-worker scratch arenas reused across micro-batches,
    /// bounded to one arena per executor.
    pub(crate) scratches: ScratchPool,
    pub(crate) config: ServeConfig,
    pub(crate) requests: BoundedQueue<Pending>,
    pub(crate) batches: BoundedQueue<MicroBatch>,
    pub(crate) metrics: Metrics,
}

/// A running inference service.
///
/// Obtain request handles with [`client`](Service::client); stop with
/// [`shutdown`](Service::shutdown), which drains everything already
/// admitted before returning. Dropping the service performs the same
/// drain.
pub struct Service {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl Service {
    /// Starts a service around a network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero-sized knobs or an
    /// empty network.
    pub fn start(net: FunctionalNetwork, config: ServeConfig) -> Result<Service, SimError> {
        config.validate()?;
        if net.stages().is_empty() {
            return Err(SimError::InvalidConfig {
                what: "cannot serve a network with no stages",
            });
        }
        // Compile once: all weight-side work (row tables, orbit
        // expansion, bias folding) for the life of the service happens
        // here, before the first request. The telemetry sink rides the
        // engine, so every executor's runs feed one per-layer registry.
        let mut engine = Engine::compile(&net, config.reuse)?;
        engine.enable_telemetry(config.telemetry_ring);
        Service::start_with_engine(Arc::new(engine), config)
    }

    /// Starts a service around an already compiled, shared engine.
    ///
    /// This is the replica entry point for `tfe-fleet`: a shard compiles
    /// one [`Engine`] per (model × reuse configuration) and starts
    /// several replica services over the same [`Arc`], so the IR tables
    /// exist once per shard no matter how many replicas drain its
    /// traffic. The caller owns telemetry policy — attach a sink with
    /// [`Engine::enable_telemetry`] *before* wrapping the engine in the
    /// [`Arc`] (all replicas then feed one per-layer registry).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero-sized knobs, an
    /// engine with no stages, or a `config.reuse` that disagrees with
    /// the engine's compiled reuse configuration (batches must run under
    /// the configuration the IR was specialized for).
    pub fn start_with_engine(
        engine: Arc<Engine>,
        config: ServeConfig,
    ) -> Result<Service, SimError> {
        config.validate()?;
        if engine.stage_count() == 0 {
            return Err(SimError::InvalidConfig {
                what: "cannot serve an engine with no stages",
            });
        }
        if engine.reuse() != config.reuse {
            return Err(SimError::InvalidConfig {
                what: "config.reuse must match the engine's compiled reuse configuration",
            });
        }
        let shared = Arc::new(Shared {
            engine,
            scratches: ScratchPool::with_capacity(config.executors),
            requests: BoundedQueue::new(config.queue_capacity),
            // One formed batch of headroom per executor: when every
            // worker is busy the batcher stalls here, the request queue
            // fills, and admission control sheds load at the front door.
            batches: BoundedQueue::new(config.executors),
            metrics: Metrics::new(),
            config,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tfe-serve-batcher".to_owned())
                .spawn(move || batcher_loop(&shared))
                .map_err(|_| SimError::InvalidConfig {
                    what: "failed to spawn the batcher thread",
                })?
        };
        let mut executors = Vec::with_capacity(shared.config.executors);
        for worker in 0..shared.config.executors {
            let shared_worker = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("tfe-serve-exec-{worker}"))
                .spawn(move || executor_loop(&shared_worker))
                .map_err(|_| SimError::InvalidConfig {
                    what: "failed to spawn an executor thread",
                })?;
            executors.push(handle);
        }
        Ok(Service {
            shared,
            batcher: Some(batcher),
            executors,
            stopped: false,
        })
    }

    /// A cloneable submission handle.
    #[must_use]
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Point-in-time metrics (including the live queue-depth gauge).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.requests.len())
    }

    /// The service's metrics registry (e.g. for
    /// [`Metrics::take_window`]).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Point-in-time per-layer telemetry from the engine's sink: one
    /// entry per compiled stage, with live latency quantiles and exact
    /// cumulative reuse counters.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.engine.telemetry().snapshot()
    }

    /// The compiled engine this service executes against (shared with
    /// every replica started over the same [`Arc`]).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Stops admission and drains every in-flight request without
    /// consuming the service: the queue closes, the batcher flushes what
    /// was already admitted, the executors finish it, and the worker
    /// threads join. Idempotent; [`shutdown`](Service::shutdown) calls
    /// this internally. After draining, the final metrics (including
    /// requests that completed *during* the drain) remain readable via
    /// [`metrics`](Service::metrics) / [`snapshot`](Service::snapshot) —
    /// which is what a fleet shard needs to retire a replica without
    /// losing its history.
    pub fn drain(&mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // Closing the request queue stops admission; the batcher drains
        // what is left, then closes the batch queue; the executors drain
        // that and exit. Every admitted request resolves.
        self.shared.requests.close();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stop admitting, drain every in-flight batch,
    /// join the worker threads, and return the final metrics.
    #[must_use]
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.metrics.snapshot(self.shared.requests.len())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Cloneable handle submitting requests to a [`Service`].
///
/// Handles stay valid across service shutdown — submissions after the
/// fact resolve to [`Rejected::ShuttingDown`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one `[1, C, H, W]` image under the service's default
    /// deadline, returning a [`Ticket`] without waiting.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] under backpressure,
    /// [`Rejected::ShuttingDown`] after shutdown, or
    /// [`Rejected::Failed`] for geometry the network cannot accept
    /// (checked at admission so a malformed request can never poison a
    /// whole batch).
    pub fn submit(&self, input: Tensor4<Fx16>) -> Result<Ticket, Rejected> {
        self.submit_with_deadline(input, self.shared.config.default_deadline)
    }

    /// [`submit`](Self::submit) with an explicit per-request deadline
    /// (`None` = wait indefinitely). Expired requests are dropped at
    /// batch-formation time and resolve to
    /// [`Rejected::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        input: Tensor4<Fx16>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Rejected> {
        self.submit_inner(input, deadline).map_err(|(e, _)| e)
    }

    /// [`submit`](Self::submit)-style admission that hands the input
    /// back alongside any rejection, so routers retrying across a
    /// hot-swap boundary (the fleet's `Shard::submit`) never need a
    /// defensive per-request clone on the dispatch hot path.
    ///
    /// `deadline` semantics match [`submit`](Self::submit): `None` uses
    /// the service's configured default deadline.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit), each paired with the refused
    /// input.
    pub fn submit_recovering(
        &self,
        input: Tensor4<Fx16>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, (Rejected, Tensor4<Fx16>)> {
        self.submit_inner(input, deadline.or(self.shared.config.default_deadline))
    }

    fn submit_inner(
        &self,
        input: Tensor4<Fx16>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, (Rejected, Tensor4<Fx16>)> {
        self.shared.metrics.record_submitted();
        if let Err(e) = self.validate_geometry(&input) {
            return Err((e, input));
        }
        let submitted = Instant::now();
        let slot = Slot::new();
        let pending = Pending {
            input,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            slot: Arc::clone(&slot),
        };
        match self.shared.requests.try_push(pending) {
            Ok(()) => Ok(Ticket { slot }),
            Err((PushError::Full, pending)) => {
                self.shared.metrics.record_rejected();
                Err((
                    Rejected::QueueFull {
                        capacity: self.shared.requests.capacity(),
                    },
                    pending.recover_input(),
                ))
            }
            Err((PushError::Closed, pending)) => {
                Err((Rejected::ShuttingDown, pending.recover_input()))
            }
        }
    }

    /// Blocking round-trip: submit and wait for the result.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit), plus any in-flight rejection.
    pub fn infer(&self, input: Tensor4<Fx16>) -> ServeResult {
        self.submit(input)?.wait()
    }

    /// Point-in-time metrics, the payload of the wire protocol's stats
    /// request.
    #[must_use]
    pub fn stats(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.requests.len())
    }

    /// Point-in-time per-layer telemetry (one entry per compiled
    /// stage) — the other half of the stats payload.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.engine.telemetry().snapshot()
    }

    /// A clone of the live request-latency histogram. Unlike the
    /// precomputed quantiles in [`stats`](Self::stats), histograms can
    /// be [`merged`](tfe_telemetry::LatencyHistogram::merge) — the fleet
    /// router folds every replica's histogram into one per-model (and
    /// one fleet-wide) latency view.
    #[must_use]
    pub fn latency_histogram(&self) -> tfe_telemetry::LatencyHistogram {
        self.shared.metrics.latency_histogram()
    }

    fn validate_geometry(&self, input: &Tensor4<Fx16>) -> Result<(), Rejected> {
        let first = self
            .shared
            .engine
            .stage_shape(0)
            .expect("service network has stages");
        let [batch, c, h, w] = input.dims();
        let checks = [
            ("request batch dimension", 1, batch),
            ("input channels", first.n(), c),
            ("input rows", first.h(), h),
            ("input columns", first.w(), w),
        ];
        for (what, expected, actual) in checks {
            if expected != actual {
                self.shared.metrics.record_failed(1);
                return Err(Rejected::Failed(SimError::OperandMismatch {
                    what,
                    expected,
                    actual,
                }));
            }
        }
        Ok(())
    }
}
