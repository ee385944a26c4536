//! The output memory system (Fig. 13): adder trees → ReLU → row-wise
//! pooling through `Pool_Reg` and the two `O_Memory` banks. (The data
//! alignment memory that follows in the figure only stages finished rows
//! for off-chip bursts, and is not modelled.)
//!
//! The TFE produces ofmap activations *row by row*, so pooling cannot see
//! a whole tile: a `p × p` pool first reduces each fresh row horizontally
//! (`1 × p`, staging each activation in `Pool_Reg`), stores the result
//! in an `O_Memory` bank, and completes the window when the `p`-th row's
//! horizontal reduction arrives. `finish_plane` computes what that
//! machinery computes for one ofmap channel and charges its accesses in
//! closed form — the one output stage every compiled engine stage drives
//! its accumulator planes through, inside each worker's part; tests pin
//! its results to the tile-at-once reference in [`tfe_tensor::pool`].

use crate::counters::Counters;
use tfe_tensor::fixed::{Accum, Fx16};

/// Configuration of the output stage for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputConfig {
    /// Apply ReLU before pooling (the paper's CONV layers all do).
    pub relu: bool,
    /// Non-overlapping pooling window extent; `None` = no pooling layer.
    pub pool: Option<usize>,
}

impl OutputConfig {
    /// ReLU only, no pooling.
    pub const RELU_ONLY: OutputConfig = OutputConfig {
        relu: true,
        pool: None,
    };

    /// ReLU followed by non-overlapping 2×2 max pooling — the common
    /// configuration in the benchmark networks.
    pub const RELU_POOL2: OutputConfig = OutputConfig {
        relu: true,
        pool: Some(2),
    };
}

/// Finishes one ofmap channel plane (`width`-long accumulator rows, in
/// order) into `out`: bias fold → ReLU → re-quantization → `p × p` max
/// pooling, `out` holding the `(rows/p) × (width/p)` activations (the
/// plane's own shape unpooled). Activations are Q8.8.
///
/// Pooling comes first: each window's largest accumulator is activated
/// once, `to_sample(relu(max + bias))`. That is exact, because the
/// saturating bias add, ReLU and `to_sample` are each monotone
/// non-decreasing, so the largest activation of a window is the
/// activation of its largest accumulator.
///
/// Charges are what the row-wise pooler's traffic is, in closed form:
/// each of the plane's activations is staged through `Pool_Reg` once (a
/// register write and read per element), and each horizontally reduced
/// row is one `O_Memory` write of `width/p` words, read back when its
/// window's last row arrives. An unpooled plane charges nothing. Engine
/// compilation rejects pool extents that do not divide the plane, so
/// every row band completes a window.
pub(crate) fn finish_plane(
    plane: &[Accum],
    width: usize,
    bias: Accum,
    config: OutputConfig,
    out: &mut [Fx16],
    counters: &mut Counters,
) {
    let activate = |acc: Accum| {
        let v = acc + bias;
        let v = if config.relu { v.relu() } else { v };
        v.to_sample()
    };
    let p = config.pool.unwrap_or(1);
    debug_assert_eq!(
        (plane.len() % (p * width), width % p),
        (0, 0),
        "pool windows must tile the plane; Engine::compile validates e % p == 0 and f % p == 0"
    );
    debug_assert_eq!(out.len() * p * p, plane.len(), "out holds the pooled plane");
    if config.pool.is_none() {
        for (slot, &acc) in out.iter_mut().zip(plane) {
            *slot = activate(acc);
        }
        return;
    }
    let words = plane.len() as u64;
    counters.sr_writes += words;
    counters.sr_reads += words;
    counters.psum_mem_writes += words / p as u64;
    counters.psum_mem_reads += words / p as u64;
    let bands = plane
        .chunks_exact(p * width)
        .zip(out.chunks_exact_mut(width / p));
    // The 2×2 pool closing every VGG block gets a loop of fixed-size
    // windows, which the compiler unrolls; on the VGG-16 trunk it took
    // 5–6 % off the whole run's CPU against the general loop below.
    if p == 2 {
        for (band, out_row) in bands {
            let (top, bottom) = band.split_at(width);
            let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (slot, (t, b)) in out_row.iter_mut().zip(windows) {
                *slot = activate(t[0].max(t[1]).max(b[0].max(b[1])));
            }
        }
        return;
    }
    for (band, out_row) in bands {
        for (x, slot) in out_row.iter_mut().enumerate() {
            let mut max = Accum::from_bits(i32::MIN);
            for row in band.chunks_exact(width) {
                for &acc in &row[x * p..][..p] {
                    max = max.max(acc);
                }
            }
            *slot = activate(max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::pool::{pool2d, PoolKind, PoolSpec};
    use tfe_tensor::tensor::Tensor4;

    fn acc(v: f32) -> Accum {
        Fx16::from_f32(v).widening_mul(Fx16::ONE)
    }

    /// Runs one plane of rows through [`finish_plane`] (zero bias) and
    /// returns its output rows as `f32`.
    fn run(rows: &[&[f32]], config: OutputConfig, counters: &mut Counters) -> Vec<Vec<f32>> {
        let width = rows[0].len();
        let plane: Vec<Accum> = rows
            .iter()
            .flat_map(|r| r.iter().map(|&v| acc(v)))
            .collect();
        let p = config.pool.unwrap_or(1);
        let mut out = vec![Fx16::ZERO; plane.len() / (p * p)];
        finish_plane(&plane, width, Accum::ZERO, config, &mut out, counters);
        out.chunks(width / p)
            .map(|row| row.iter().map(|v| v.to_f32()).collect())
            .collect()
    }

    #[test]
    fn relu_only_passes_rows_through() {
        let mut counters = Counters::new();
        let out = run(
            &[&[1.0, -2.0], &[-0.5, 3.0]],
            OutputConfig::RELU_ONLY,
            &mut counters,
        );
        assert_eq!(out, vec![vec![1.0, 0.0], vec![0.0, 3.0]]);
    }

    #[test]
    fn row_wise_pooling_matches_tile_reference() {
        let mut counters = Counters::new();
        let data: Vec<f32> = (0..36).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let rows: Vec<&[f32]> = data.chunks(6).collect();
        let out = run(&rows, OutputConfig::RELU_POOL2, &mut counters);

        // Reference: relu then 2x2 max pool on the whole tile.
        let tile = Tensor4::from_fn([1, 1, 6, 6], |[_, _, y, x]| data[y * 6 + x].max(0.0));
        let spec = PoolSpec::non_overlapping(PoolKind::Max, 2).unwrap();
        let reference = pool2d(&tile, spec).unwrap();
        assert_eq!(out.len(), 3);
        for (y, row) in out.iter().enumerate() {
            for (x, &v) in row.iter().enumerate() {
                assert_eq!(v, reference.get([0, 0, y, x]), "({y},{x})");
            }
        }
    }

    #[test]
    fn pooling_counts_o_memory_traffic() {
        let mut counters = Counters::new();
        let _ = run(
            &[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]],
            OutputConfig::RELU_POOL2,
            &mut counters,
        );
        // Two horizontal rows of 2 written, both read back.
        assert_eq!(counters.psum_mem_writes, 4);
        assert_eq!(counters.psum_mem_reads, 4);
        // Pool_Reg staged each of the 8 activations once.
        assert_eq!(counters.sr_writes, 8);
    }

    #[test]
    fn no_relu_keeps_negative_activations() {
        let mut counters = Counters::new();
        let config = OutputConfig {
            relu: false,
            pool: None,
        };
        let out = run(&[&[-1.5, 0.5]], config, &mut counters);
        assert_eq!(out, vec![vec![-1.5, 0.5]]);
    }

    /// The `i32` rails and their neighbours, where the bias add and the
    /// rounding add of `to_sample` saturate.
    const RAILS: [i32; 6] = [i32::MIN, i32::MIN + 1, -1, 0, i32::MAX - 1, i32::MAX];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Pooling first must equal activating every accumulator and then
        /// max-pooling the tile with [`pool2d`], bit for bit, and charge
        /// the row-wise pooler's closed-form traffic: over uniform `i32`
        /// planes and planes on the rails, biases on the rails or
        /// anywhere, ReLU on and off, pool `None` and 1–4 over divisible
        /// shapes.
        #[test]
        fn pool_first_finisher_matches_activate_then_pool(
            pool in 0usize..5,
            bands in 1usize..5,
            cols in 1usize..5,
            relu in proptest::prelude::any::<bool>(),
            rails in proptest::prelude::any::<bool>(),
            bias_pick in 0usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let config = OutputConfig { relu, pool: (pool > 0).then_some(pool) };
            let p = pool.max(1);
            let (height, width) = (bands * p, cols * p);
            let mut state = seed;
            let mut draw = |rails: bool| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let bits = (state >> 32) as u32 as i32;
                if rails { RAILS[(state >> 61) as usize % RAILS.len()] } else { bits }
            };
            let plane: Vec<Accum> = (0..height * width).map(|_| Accum::from_bits(draw(rails))).collect();
            let bias = Accum::from_bits(match RAILS.get(bias_pick) {
                Some(&rail) => rail,
                None => draw(false),
            });
            let mut out = vec![Fx16::ZERO; bands * cols];
            let mut counters = Counters::new();
            finish_plane(&plane, width, bias, config, &mut out, &mut counters);

            let activated = Tensor4::from_fn([1, 1, height, width], |[_, _, y, x]| {
                let v = plane[y * width + x] + bias;
                let v = if relu { v.relu() } else { v };
                v.to_sample().to_f32()
            });
            let reference = match config.pool {
                None => activated,
                Some(p) => pool2d(&activated, PoolSpec::non_overlapping(PoolKind::Max, p).unwrap()).unwrap(),
            };
            let want: Vec<Fx16> = reference.as_slice().iter().map(|&v| Fx16::from_f32(v)).collect();
            proptest::prop_assert_eq!(out, want);

            let mut charged = Counters::new();
            if config.pool.is_some() {
                let words = (height * width) as u64;
                charged.sr_writes = words;
                charged.sr_reads = words;
                charged.psum_mem_writes = words / p as u64;
                charged.psum_mem_reads = words / p as u64;
            }
            proptest::prop_assert_eq!(counters, charged);
        }
    }
}
