//! Seeded inputs: every weight, image, arrival time and model pick the
//! program sees derives from the workload seed, one independent
//! SplitMix64 stream per purpose, so the same seed always yields the
//! same inputs and changing one purpose's draw count never shifts
//! another's.

use std::time::Duration;
use tfe_nets::zoo;
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

/// SplitMix64: small, fast, and fully specified, so inputs never depend
/// on a dependency's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `purpose` under `seed`.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let tag = purpose.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        let mut rng = Rng(seed ^ tag);
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A 32-bit seed for the repository's own seeded constructors.
    pub fn seed32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// The weight representations the VGG-16 trunk is built in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Dense,
    Scnn,
    Dcnn4,
}

impl Scheme {
    pub const ALL: [Scheme; 3] = [Scheme::Dense, Scheme::Scnn, Scheme::Dcnn4];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Dense => "dense",
            Scheme::Scnn => "scnn",
            Scheme::Dcnn4 => "dcnn4",
        }
    }

    fn transfer(self) -> Option<TransferScheme> {
        match self {
            Scheme::Dense => None,
            Scheme::Scnn => Some(TransferScheme::Scnn),
            Scheme::Dcnn4 => Some(TransferScheme::DCNN4),
        }
    }
}

/// Side of the trunk's square input: the smallest that all five 2×2
/// pools accept, and CIFAR-10's image size.
const TRUNK_HW: usize = 32;
/// Images per trunk batch.
pub const TRUNK_BATCH: usize = 8;

/// The 13 conv layers of `zoo::vgg16()` at a `3 × 32 × 32` input, ReLU
/// after each and a 2×2 max-pool closing each block, with seeded
/// weights in `scheme`'s representation.
///
/// Weights are uniform in `±sqrt(6 / fan_in)` (He scaling, as a trained
/// ReLU net's are), so activations stay well inside the Q8.8 range
/// through all 13 layers instead of sitting on the saturation rails.
pub fn vgg_trunk(scheme: Scheme, seed: u64) -> FunctionalNetwork {
    let mut rng = Rng::new(seed, &format!("trunk-weights-{}", scheme.name()));
    let mut hw = TRUNK_HW;
    let mut stages = Vec::new();
    for layer in zoo::vgg16().conv_layers() {
        let s = layer.shape();
        let shape = LayerShape::conv(s.name(), s.n(), s.m(), hw, hw, s.k(), s.stride(), s.pad())
            .expect("VGG-16 conv geometry is valid at 32x32");
        let bound = (6.0 / (s.n() * s.k() * s.k()) as f64).sqrt();
        let mut next = || ((rng.unit() * 2.0 - 1.0) * bound) as f32;
        let weights = match scheme.transfer() {
            None => TransferredLayer::Dense {
                weights: Tensor4::from_fn([s.m(), s.n(), s.k(), s.k()], |_| next()),
            },
            Some(transfer) => TransferredLayer::random(&shape, transfer, &mut next)
                .expect("VGG-16 3x3 layers transfer under SCNN and DCNN4"),
        };
        let output = if layer.pool().is_some() {
            hw /= 2;
            OutputConfig::RELU_POOL2
        } else {
            OutputConfig::RELU_ONLY
        };
        stages.push(FunctionalStage {
            shape,
            weights,
            bias: Vec::new(),
            output,
        });
    }
    FunctionalNetwork::new(stages).expect("VGG-16 trunk stages chain")
}

/// One `[8, 3, 32, 32]` batch of pixels uniform in `[0, 1)`.
pub fn trunk_batch(seed: u64) -> Tensor4<Fx16> {
    let mut rng = Rng::new(seed, "trunk-images");
    Tensor4::from_fn([TRUNK_BATCH, 3, TRUNK_HW, TRUNK_HW], |_| {
        Fx16::from_f32(rng.unit() as f32)
    })
}

/// Images in the serving pool.
pub const POOL_IMAGES: usize = 64;
/// The served models' shared input geometry (the fleet demo contract).
const SERVE_DIMS: [usize; 4] = [1, 3, 12, 12];

/// The serving workloads' image pool, values uniform in `[-0.5, 0.5)`.
pub fn serve_images(seed: u64) -> Vec<Tensor4<Fx16>> {
    let mut rng = Rng::new(seed, "serve-images");
    (0..POOL_IMAGES)
        .map(|_| Tensor4::from_fn(SERVE_DIMS, |_| Fx16::from_f32((rng.unit() - 0.5) as f32)))
        .collect()
}

/// One open-loop request: when it is due (from the window start), which
/// served model it targets, and which pool image it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub model: usize,
    pub image: usize,
}

/// Poisson arrivals at `rate` per second over `window`, conditioned on
/// their count: exactly `rate × window` arrivals whose times are
/// exponential gaps rescaled to the window (the order statistics of
/// uniform times), so the offered load is identical for every seed.
/// Model picks follow `weights` (index = model); images are uniform
/// over the pool.
pub fn arrivals(seed: u64, rate: f64, window: Duration, weights: &[usize]) -> Vec<Arrival> {
    let mut gaps = Rng::new(seed, "arrival-gaps");
    let mut picks = Rng::new(seed, "arrival-models");
    let mut images = Rng::new(seed, "arrival-images");
    let count = (rate * window.as_secs_f64()).round() as usize;
    // `1 - u` keeps each logarithm finite; the extra gap closes the window.
    let mut times: Vec<f64> = (0..=count).map(|_| -(1.0 - gaps.unit()).ln()).collect();
    let mut t = 0.0;
    for gap in &mut times {
        t += *gap;
        *gap = t;
    }
    let scale = window.as_secs_f64() / t;
    let total: usize = weights.iter().sum();
    times[..count]
        .iter()
        .map(|&at| {
            let mut pick = picks.below(total);
            let model = weights
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("pick is below the weight total");
            Arrival {
                due: Duration::from_secs_f64(at * scale),
                model,
                image: images.below(POOL_IMAGES),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_identical_inputs() {
        let window = Duration::from_secs(2);
        assert_eq!(
            arrivals(11, 1000.0, window, &[2, 1, 1]),
            arrivals(11, 1000.0, window, &[2, 1, 1])
        );
        assert_eq!(serve_images(11), serve_images(11));
        assert_eq!(trunk_batch(11), trunk_batch(11));
        for scheme in Scheme::ALL {
            let a = vgg_trunk(scheme, 11);
            let b = vgg_trunk(scheme, 11);
            for (x, y) in a.stages().iter().zip(b.stages()) {
                assert_eq!(x.weights, y.weights);
            }
        }
    }

    #[test]
    fn different_seeds_yield_different_inputs() {
        let window = Duration::from_secs(1);
        assert_ne!(
            arrivals(1, 1000.0, window, &[2, 1, 1]),
            arrivals(2, 1000.0, window, &[2, 1, 1])
        );
        assert_ne!(serve_images(1), serve_images(2));
        assert_ne!(trunk_batch(1), trunk_batch(2));
        let a = vgg_trunk(Scheme::Scnn, 1);
        let b = vgg_trunk(Scheme::Scnn, 2);
        assert_ne!(a.stages()[0].weights, b.stages()[0].weights);
    }

    #[test]
    fn arrivals_follow_rate_and_weights() {
        let window = Duration::from_secs(20);
        let schedule = arrivals(5, 1000.0, window, &[2, 1, 1]);
        assert_eq!(schedule.len(), 20_000);
        assert!(schedule.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(schedule.last().unwrap().due < window);
        // Rate is uniform over the window: each half holds half the load
        // (a binomial count, within 4 sigma).
        let first_half = schedule.iter().filter(|a| a.due < window / 2).count();
        assert!((9_720..=10_280).contains(&first_half), "{first_half}");
        let share = schedule.iter().filter(|a| a.model == 0).count() as f64 / schedule.len() as f64;
        assert!((share - 0.5).abs() < 0.02, "{share}");
        assert!(schedule
            .iter()
            .all(|a| a.model < 3 && a.image < POOL_IMAGES));
    }

    #[test]
    fn trunk_is_the_vgg16_conv_stack_at_32x32() {
        let net = vgg_trunk(Scheme::Dcnn4, 3);
        assert_eq!(net.stages().len(), 13);
        assert_eq!(net.stages()[0].shape.name(), "conv1_1");
        assert_eq!(net.stages()[12].shape.name(), "conv5_3");
        assert_eq!(net.stages()[12].shape.h(), 2);
        let pools = net
            .stages()
            .iter()
            .filter(|s| s.output.pool.is_some())
            .count();
        assert_eq!(pools, 5);
    }
}
