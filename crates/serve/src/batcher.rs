//! Micro-batch formation and execution — the analogue of the paper's
//! ping-pong input memory feeding the PE array.
//!
//! The **batcher** thread pops admitted requests and coalesces them into
//! micro-batches, flushing when the batch reaches
//! [`max_batch_size`](crate::config::ServeConfig::max_batch_size) or
//! [`max_batch_delay`](crate::config::ServeConfig::max_batch_delay)
//! after the batch's first request — whichever comes first. Requests
//! whose deadline expired while queued are dropped at formation time so
//! they never waste a batch slot.
//!
//! **Executor** workers pull formed batches and run each one on their
//! own thread through [`tfe_sim::engine::Engine::run_packed`] against
//! the service's compile-once engine, checking a warm scratch arena out
//! of the shared pool: the requests pack into a single `[B, C, H, W]`
//! tensor executed as **one filter-stationary batched sweep**, and
//! outputs and per-image counters split back out per request — batching
//! changes latency and throughput, never values or per-request counters
//! (each request's reply is bit-identical to a lone
//! [`tfe_sim::engine::Engine::run`], see `tests/serve_smoke.rs`). The
//! executor pool is the service's one parallelism
//! ([`ServeConfig::executors`](crate::config::ServeConfig::executors)):
//! a micro-batch never fans out further, which measured faster in wall
//! time than splitting it between two workers on every model the fleet
//! serves (DESIGN §5.13).

use crate::service::{InferenceReply, Pending, Rejected, Shared};
use std::time::Instant;
use tfe_sim::counters::Counters;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;

/// A formed micro-batch traveling from the batcher to an executor.
pub(crate) struct MicroBatch {
    pub(crate) requests: Vec<Pending>,
}

/// Coalesces queued requests into micro-batches until the request queue
/// is closed and drained, then closes the batch queue behind itself.
pub(crate) fn batcher_loop(shared: &Shared) {
    while let Some(first) = shared.requests.pop_blocking() {
        let flush_at = Instant::now() + shared.config.max_batch_delay;
        let mut formed = vec![first];
        while formed.len() < shared.config.max_batch_size {
            match shared.requests.pop_until(flush_at) {
                Some(pending) => formed.push(pending),
                // Delay elapsed, or the queue closed and drained — flush.
                None => break,
            }
        }

        // Shed expired work before it occupies a batch slot.
        let now = Instant::now();
        let mut live = Vec::with_capacity(formed.len());
        let mut expired = 0u64;
        for pending in formed {
            if pending.deadline.is_some_and(|d| d <= now) {
                expired += 1;
                pending.complete(Err(Rejected::DeadlineExceeded));
            } else {
                live.push(pending);
            }
        }
        if expired > 0 {
            shared.metrics.record_expired(expired);
        }
        if live.is_empty() {
            continue;
        }

        shared.metrics.record_batch(live.len() as u64);
        // Blocking push: when every executor is busy this stalls, the
        // request queue fills, and admission control rejects new
        // arrivals — the backpressure chain. On the (teardown-only)
        // closed path the dropped batch resolves its requests to
        // `ShuttingDown` via `Pending`'s drop guard.
        let _ = shared.batches.push_blocking(MicroBatch { requests: live });
    }
    shared.batches.close();
}

/// Executes formed micro-batches until the batch queue is closed and
/// drained: each batch runs as one packed filter-stationary sweep
/// ([`Engine::run_packed`](tfe_sim::engine::Engine::run_packed)) on this
/// executor's thread.
pub(crate) fn executor_loop(shared: &Shared) {
    while let Some(batch) = shared.batches.pop_blocking() {
        let inputs: Vec<&Tensor4<Fx16>> = batch.requests.iter().map(|p| &p.input).collect();
        let mut scratch = shared.scratches.checkout();
        let result = shared.engine.run_packed(&inputs, &mut scratch);
        shared.scratches.restore(scratch);
        match result {
            Ok(outputs) => {
                let mut merged = Counters::new();
                for (pending, output) in batch.requests.into_iter().zip(outputs) {
                    merged.merge(&output.counters);
                    let latency = pending.submitted.elapsed();
                    shared.metrics.record_completed(latency);
                    pending.complete(Ok(InferenceReply {
                        activations: output.activations,
                        counters: output.counters,
                        latency,
                    }));
                }
                shared.metrics.merge_counters(&merged);
            }
            Err(error) => {
                // Admission-time geometry checks make this unreachable
                // for shape errors; it remains the catch-all for any
                // other simulator failure.
                shared.metrics.record_failed(batch.requests.len() as u64);
                for pending in batch.requests {
                    pending.complete(Err(Rejected::Failed(error.clone())));
                }
            }
        }
    }
}
