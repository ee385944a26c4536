//! Output checking: every measured result is compared bit for bit with
//! the result of sequential single-image `Engine::run` calls, the path
//! the repository's parity suites pin to the reference convolution.

use std::thread;
use tfe_sim::counters::Counters;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::NetworkOutput;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;

/// Requests attempted and failed, and whether every output checked out.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
    }
}

/// Image `b` of a batch as a one-image tensor.
pub fn image(batch: &Tensor4<Fx16>, b: usize) -> Tensor4<Fx16> {
    let [_, c, h, w] = batch.dims();
    let len = c * h * w;
    Tensor4::from_vec(
        [1, c, h, w],
        batch.as_slice()[b * len..(b + 1) * len].to_vec(),
    )
    .expect("slice length matches the image dims")
}

/// Expected outputs of `images` (each `[1, C, H, W]`), from single-image
/// `Engine::run` calls spread over `workers` threads.
pub fn expected_outputs(
    engine: &Engine,
    images: &[Tensor4<Fx16>],
    workers: usize,
) -> Result<Vec<NetworkOutput>, String> {
    let chunk = images.len().div_ceil(workers.max(1)).max(1);
    thread::scope(|s| {
        let handles: Vec<_> = images
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut scratch = Scratch::new();
                    part.iter()
                        .map(|img| engine.run(img, &mut scratch))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(images.len());
        for handle in handles {
            let part = handle
                .join()
                .map_err(|_| "expected-output worker panicked".to_owned())?
                .map_err(|e| format!("expected-output run failed: {e}"))?;
            out.extend(part);
        }
        Ok(out)
    })
}

/// Whether one image's activations and counters equal `expected`.
pub fn same(activations: &[Fx16], counters: &Counters, expected: &NetworkOutput) -> bool {
    activations == expected.activations.as_slice() && *counters == expected.counters
}

/// Whether a batched result equals its images' expected outputs.
pub fn same_batch(
    activations: &Tensor4<Fx16>,
    per_image: &[Counters],
    expected: &[NetworkOutput],
) -> bool {
    let per = activations.len() / expected.len().max(1);
    per_image.len() == expected.len()
        && activations
            .as_slice()
            .chunks(per)
            .zip(per_image)
            .zip(expected)
            .all(|((acts, counters), e)| same(acts, counters, e))
}
