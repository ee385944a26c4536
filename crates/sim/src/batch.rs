//! Batched multi-image evaluation of one compiled engine — the
//! "serve heavy traffic" entry point.
//!
//! [`run_engine_batch`] pushes a batch of independent input images
//! through one compiled [`Engine`], dividing the images into contiguous
//! chunks, one per worker thread. Each chunk checks a
//! [`Scratch`](crate::engine::Scratch) arena out of a [`ScratchPool`]
//! and runs as one packed filter-stationary sweep through
//! [`Engine::run_packed`]; outputs come back in input order and
//! per-image [`Counters`] merge in input order via [`Counters::merge`] —
//! so both the activation values and the merged totals are
//! **bit-identical** to a sequential loop over the batch, for every
//! thread count (`tests/parallel_parity.rs` asserts this).
//!
//! [`run_batch`] is the convenience wrapper over a
//! [`FunctionalNetwork`]: it compiles (or fetches the cached) engine via
//! [`FunctionalNetwork::engine`] and delegates to [`run_engine_batch`]
//! with the network's internal scratch pool.
//!
//! Thread budget: [`BatchOptions::workers`] resolves it — the pinned
//! [`BatchOptions::threads`], else the `TFE_THREADS` environment
//! variable when it names a positive integer, else the machine's
//! available parallelism. Parallelism is across image chunks only: each
//! chunk's sweep runs on one worker.
//! Handing one sweep the whole budget instead (the stage partitioner's
//! batch chunks) measured about 1.5× slower on small images
//! (`sim_throughput`'s VGG prefix at 2 threads), where each stage's
//! thread spawn and join outweigh its work.

use crate::counters::Counters;
use crate::engine::{chunk_lengths, fan_out, Engine, ScratchPool};
use crate::network::{FunctionalNetwork, NetworkOutput};
use crate::SimError;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;

/// Knobs for a batched evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker-thread count for this batch; `None` uses the default
    /// budget (`TFE_THREADS`, else all cores).
    pub threads: Option<usize>,
}

impl BatchOptions {
    /// Options pinning an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads: Some(threads),
        }
    }

    /// The worker count these options resolve to: the pinned
    /// [`threads`](Self::threads), else `TFE_THREADS` when it names a
    /// positive integer, else the machine's available parallelism. The
    /// one rule [`run_engine_batch`] and the `tfe-serve` executors share.
    #[must_use]
    pub fn workers(self) -> usize {
        self.threads.unwrap_or_else(|| {
            parse_threads(std::env::var("TFE_THREADS").ok())
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        })
    }
}

/// The thread count an environment value names: a positive integer.
/// Unset, empty, zero, negative, padded and non-numeric values give
/// `None`, so the lookup falls through to available parallelism.
fn parse_threads(value: Option<String>) -> Option<usize> {
    value?.parse().ok().filter(|&n| n > 0)
}

/// Result of a batched evaluation.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per-image network outputs, in input order. Each retains its own
    /// per-image counter set.
    pub outputs: Vec<NetworkOutput>,
    /// All per-image counters merged in input order.
    pub counters: Counters,
}

/// Evaluates a batch of independent `[1, N, H, W]`-shaped (or any
/// batch-dim) input images through one network plan.
///
/// This is a thin wrapper over [`run_engine_batch`]: the network's
/// cached engine for `reuse` is compiled on first use
/// ([`FunctionalNetwork::engine`]) and the batch fans out over the
/// network's internal scratch pool.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if `options.threads` is
/// `Some(0)` — a zero-thread pool could never make progress, so the
/// request is rejected before any compilation or evaluation. Otherwise
/// propagates compile-time errors, then the first per-image
/// [`SimError`] in input order (the same error a sequential loop would
/// hit first).
pub fn run_batch(
    net: &FunctionalNetwork,
    inputs: &[Tensor4<Fx16>],
    reuse: ReuseConfig,
    options: BatchOptions,
) -> Result<BatchOutput, SimError> {
    if options.threads == Some(0) {
        return Err(SimError::InvalidConfig {
            what: "batch thread count must be at least 1 (got Some(0))",
        });
    }
    let engine = net.engine(reuse)?;
    run_engine_batch(engine, inputs, options, net.scratch_pool())
}

/// Evaluates a batch of independent input images through a compiled
/// [`Engine`] — the execution core behind [`run_batch`].
///
/// Inputs are divided into at most [`BatchOptions::workers`] contiguous
/// chunks (never more chunks than inputs, so no worker receives empty
/// work), fanned out one chunk per thread. Each chunk checks a
/// [`Scratch`](crate::engine::Scratch) arena out of `scratches` and runs
/// through [`Engine::run_packed`] on one worker: its inputs pack into
/// one `[B, C, H, W]` tensor executed as a single filter-stationary
/// sweep, so each quantized filter row loads once per chunk instead of
/// once per image. Outputs come back in input order, each input keeping
/// its own per-image counters, and the merged totals accumulate in input
/// order — so results are bit-identical to a sequential loop at every
/// thread count (`tests/parallel_parity.rs` and
/// `tests/batched_parity.rs` assert this).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for `Some(0)` threads, otherwise
/// the first error of the first failing chunk in input order. Each
/// chunk checks its inputs' stage-0 geometry (channels, then height,
/// then width — [`Engine::run`]'s order) in input order before packing,
/// so packing never reorders which mismatch is reported first.
pub fn run_engine_batch(
    engine: &Engine,
    inputs: &[Tensor4<Fx16>],
    options: BatchOptions,
    scratches: &ScratchPool,
) -> Result<BatchOutput, SimError> {
    if options.threads == Some(0) {
        return Err(SimError::InvalidConfig {
            what: "batch thread count must be at least 1 (got Some(0))",
        });
    }
    let mut images = inputs.iter();
    let chunks: Vec<Vec<&Tensor4<Fx16>>> = chunk_lengths(inputs.len(), options.workers())
        .into_iter()
        .map(|len| images.by_ref().take(len).collect())
        .collect();
    let per_chunk = fan_out(chunks, |chunk| {
        let mut scratch = scratches.checkout();
        let result = engine.run_packed(&chunk, &mut scratch, 1);
        scratches.restore(scratch);
        result
    });
    let mut outputs = Vec::with_capacity(inputs.len());
    for chunk in per_chunk {
        outputs.extend(chunk?);
    }
    let mut counters = Counters::new();
    for output in &outputs {
        counters.merge(&output.counters);
    }
    Ok(BatchOutput { outputs, counters })
}

/// Splits a `[B, C, H, W]` tensor into `B` single-image `[1, C, H, W]`
/// tensors, the input format [`run_batch`] fans out over.
#[must_use]
pub fn split_batch(input: &Tensor4<Fx16>) -> Vec<Tensor4<Fx16>> {
    let [batch, c, h, w] = input.dims();
    (0..batch)
        .map(|b| Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| input.get([b, ci, y, x])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::shape::LayerShape;
    use tfe_transfer::TransferScheme;

    fn det(seed: &mut u32) -> f32 {
        *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        (((*seed >> 20) & 0xf) as f32 - 7.5) / 8.0
    }

    fn small_net(seed: &mut u32) -> FunctionalNetwork {
        let shapes = vec![
            (LayerShape::conv("b1", 1, 8, 8, 8, 3, 1, 1).unwrap(), true),
            (LayerShape::conv("b2", 8, 8, 4, 4, 3, 1, 1).unwrap(), false),
        ];
        FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(seed)).unwrap()
    }

    fn images(count: usize, seed: &mut u32) -> Vec<Tensor4<Fx16>> {
        (0..count)
            .map(|_| Tensor4::from_fn([1, 1, 8, 8], |_| Fx16::from_f32(det(seed))))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_loop_bit_exactly() {
        let mut seed = 5;
        let net = small_net(&mut seed);
        let inputs = images(6, &mut seed);
        let sequential: Vec<NetworkOutput> = inputs
            .iter()
            .map(|i| net.run(i, ReuseConfig::FULL).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            let batched = run_batch(
                &net,
                &inputs,
                ReuseConfig::FULL,
                BatchOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(batched.outputs.len(), sequential.len());
            for (b, s) in batched.outputs.iter().zip(&sequential) {
                assert_eq!(b.activations, s.activations, "threads={threads}");
                assert_eq!(b.counters, s.counters, "threads={threads}");
            }
            let expected: Counters = sequential.iter().map(|s| s.counters).sum();
            assert_eq!(batched.counters, expected, "threads={threads}");
        }
    }

    #[test]
    fn thread_values_parse_to_positive_integers_only() {
        assert_eq!(parse_threads(Some("4".to_owned())), Some(4));
        for value in ["0", "", "-1", "four", " 2"] {
            assert_eq!(parse_threads(Some(value.to_owned())), None, "{value:?}");
        }
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut seed = 9;
        let net = small_net(&mut seed);
        let out = run_batch(&net, &[], ReuseConfig::FULL, BatchOptions::default()).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.counters, Counters::new());
    }

    #[test]
    fn split_batch_round_trips() {
        let mut seed = 3;
        let packed = Tensor4::from_fn([3, 2, 4, 4], |_| Fx16::from_f32(det(&mut seed)));
        let split = split_batch(&packed);
        assert_eq!(split.len(), 3);
        for (b, img) in split.iter().enumerate() {
            assert_eq!(img.dims(), [1, 2, 4, 4]);
            for c in 0..2 {
                for y in 0..4 {
                    for x in 0..4 {
                        assert_eq!(img.get([0, c, y, x]), packed.get([b, c, y, x]));
                    }
                }
            }
        }
    }

    #[test]
    fn engine_batch_matches_wrapper_batch_bit_exactly() {
        let mut seed = 17;
        let net = small_net(&mut seed);
        let inputs = images(5, &mut seed);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let scratches = ScratchPool::new();
        let want = run_batch(&net, &inputs, ReuseConfig::FULL, BatchOptions::default()).unwrap();
        // More threads than images exercises the no-empty-chunk path.
        for threads in [1usize, 2, 4, 9] {
            let got = run_engine_batch(
                &engine,
                &inputs,
                BatchOptions::with_threads(threads),
                &scratches,
            )
            .unwrap();
            assert_eq!(got.outputs.len(), want.outputs.len(), "threads={threads}");
            for (g, w) in got.outputs.iter().zip(&want.outputs) {
                assert_eq!(g.activations, w.activations, "threads={threads}");
                assert_eq!(g.counters, w.counters, "threads={threads}");
            }
            assert_eq!(got.counters, want.counters, "threads={threads}");
        }
        // Ambient-budget path and empty batch.
        let got = run_engine_batch(&engine, &inputs, BatchOptions::default(), &scratches).unwrap();
        assert_eq!(got.counters, want.counters);
        let empty = run_engine_batch(&engine, &[], BatchOptions::default(), &scratches).unwrap();
        assert!(empty.outputs.is_empty());
    }

    #[test]
    fn engine_batch_reports_the_first_error_in_input_order() {
        let mut seed = 23;
        let net = small_net(&mut seed);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let scratches = ScratchPool::new();
        let mut inputs = images(3, &mut seed);
        inputs[1] = Tensor4::from_fn([1, 2, 8, 8], |_| Fx16::from_f32(det(&mut seed)));
        let err = run_engine_batch(&engine, &inputs, BatchOptions::default(), &scratches);
        assert!(matches!(
            err,
            Err(SimError::OperandMismatch {
                what: "input channels",
                ..
            })
        ));
        let zero = run_engine_batch(&engine, &inputs, BatchOptions::with_threads(0), &scratches);
        assert!(matches!(zero, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn zero_thread_request_is_a_typed_error() {
        let mut seed = 13;
        let net = small_net(&mut seed);
        let inputs = images(2, &mut seed);
        let err = run_batch(
            &net,
            &inputs,
            ReuseConfig::FULL,
            BatchOptions::with_threads(0),
        );
        assert!(
            matches!(err, Err(SimError::InvalidConfig { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn per_image_error_is_the_first_in_input_order() {
        let mut seed = 7;
        let net = small_net(&mut seed);
        let mut inputs = images(3, &mut seed);
        // Wrong channel count for the second image.
        inputs[1] = Tensor4::from_fn([1, 2, 8, 8], |_| Fx16::from_f32(det(&mut seed)));
        let err = run_batch(&net, &inputs, ReuseConfig::FULL, BatchOptions::default());
        assert!(matches!(
            err,
            Err(SimError::OperandMismatch {
                what: "input channels",
                ..
            })
        ));
    }
}
