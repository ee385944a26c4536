//! The output memory system (Fig. 13): adder trees → ReLU → row-wise
//! pooling through `Pool_Reg` and the two `O_Memory` banks → the data
//! alignment memory (DAM).
//!
//! The TFE produces ofmap activations *row by row*, so pooling cannot see
//! a whole tile: a `p × p` pool first reduces each fresh row horizontally
//! (`1 × p`, staging each activation in `Pool_Reg`), stores the result
//! in an `O_Memory` bank, and completes the window when the `p`-th row's
//! horizontal reduction arrives. `process_channel` implements that
//! machinery with access counting for one ofmap channel — the one output
//! stage every compiled engine stage drives its accumulator planes
//! through; tests pin its results to the tile-at-once reference in
//! [`tfe_tensor::pool`].

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

/// Drives one ofmap channel plane (`width`-long accumulator rows, in
/// order) through the output memory system — bias fold → ReLU →
/// re-quantization → row-wise pooling — appending the activations to
/// `next` row by row. `act_row`, `pool_row`, and `staged` (the
/// `O_Memory` contents, flat) are caller-owned scratch. Activations stay
/// Q8.8 throughout: max pooling compares samples, which is exact.
///
/// Each pooled activation is staged through `Pool_Reg` once (a register
/// write and read per element); each horizontally reduced row is one
/// `O_Memory` write, read back when its window's last row arrives.
/// Engine compilation rejects pool extents that do not divide the plane,
/// so every staged row completes a window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_channel(
    plane: &[Accum],
    width: usize,
    bias: Accum,
    config: OutputConfig,
    act_row: &mut Vec<Fx16>,
    pool_row: &mut Vec<Fx16>,
    staged: &mut Vec<Fx16>,
    next: &mut Vec<Fx16>,
    counters: &mut Counters,
) {
    let activate = |&acc: &Accum| {
        let v = acc + bias;
        let v = if config.relu { v.relu() } else { v };
        v.to_sample()
    };
    let Some(p) = config.pool else {
        next.extend(plane.iter().map(activate));
        return;
    };
    staged.clear();
    let mut staged_rows = 0usize;
    for row in plane.chunks_exact(width) {
        act_row.clear();
        act_row.extend(row.iter().map(activate));
        counters.sr_writes += act_row.len() as u64;
        counters.sr_reads += act_row.len() as u64;
        pool_row.clear();
        pool_row.extend(
            act_row
                .chunks_exact(p)
                .map(|window| window.iter().copied().fold(Fx16::MIN, Fx16::max)),
        );
        counters.psum_mem_writes += pool_row.len() as u64;
        let staged_width = pool_row.len();
        staged.extend_from_slice(pool_row);
        staged_rows += 1;
        if staged_rows == p {
            counters.psum_mem_reads += staged.len() as u64;
            next.extend((0..staged_width).map(|x| {
                (0..p)
                    .map(|r| staged[r * staged_width + x])
                    .fold(Fx16::MIN, Fx16::max)
            }));
            staged.clear();
            staged_rows = 0;
        }
    }
    // compile() rejects non-divisible pool geometry, so no staged rows
    // may remain (a dropped tail would leave psum_mem_writes charged
    // without matching psum_mem_reads).
    debug_assert_eq!(
        staged_rows, 0,
        "pooling tail must be empty; Engine::compile validates e % p == 0"
    );
}

/// The data alignment memory: buffers pooled rows until a whole channel
/// group is ready for a single burst to off-chip memory, eliminating the
/// "complex data alignment operation" (Section IV).
#[derive(Debug, Clone)]
pub struct AlignmentMemory {
    capacity_words: usize,
    buffered: Vec<Vec<f32>>,
    words: usize,
    /// Number of off-chip bursts issued.
    bursts: u64,
}

impl AlignmentMemory {
    /// Creates a DAM with the given capacity in 16-bit words (the paper's
    /// DAM is 16 KB = 8192 words).
    #[must_use]
    pub fn new(capacity_words: usize) -> Self {
        AlignmentMemory {
            capacity_words: capacity_words.max(1),
            buffered: Vec::new(),
            words: 0,
            bursts: 0,
        }
    }

    /// Buffers one pooled row; issues a burst (returning the drained
    /// rows) when the memory fills.
    pub fn push(&mut self, row: Vec<f32>, counters: &mut Counters) -> Option<Vec<Vec<f32>>> {
        counters.psum_mem_writes += row.len() as u64;
        self.words += row.len();
        self.buffered.push(row);
        if self.words >= self.capacity_words {
            Some(self.drain(counters))
        } else {
            None
        }
    }

    /// Drains whatever is buffered as a final burst.
    pub fn drain(&mut self, counters: &mut Counters) -> Vec<Vec<f32>> {
        let rows = std::mem::take(&mut self.buffered);
        let words: usize = rows.iter().map(Vec::len).sum();
        counters.dram_bits += words as u64 * 16;
        self.words = 0;
        self.bursts += 1;
        rows
    }

    /// Off-chip bursts issued so far.
    #[must_use]
    pub fn bursts(&self) -> u64 {
        self.bursts
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

    /// Runs one plane of rows through [`process_channel`] (zero bias)
    /// and returns its output rows as `f32`.
    fn run(rows: &[&[f32]], config: OutputConfig, counters: &mut Counters) -> Vec<Vec<f32>> {
        let width = rows[0].len();
        let plane: Vec<Accum> = rows
            .iter()
            .flat_map(|r| r.iter().map(|&v| acc(v)))
            .collect();
        let mut next = Vec::new();
        process_channel(
            &plane,
            width,
            Accum::ZERO,
            config,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut next,
            counters,
        );
        let out_width = config.pool.map_or(width, |p| width / p);
        next.chunks(out_width)
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
    fn dam_bursts_when_full() {
        let mut counters = Counters::new();
        let mut dam = AlignmentMemory::new(4);
        assert!(dam.push(vec![1.0, 2.0], &mut counters).is_none());
        let burst = dam.push(vec![3.0, 4.0], &mut counters);
        assert!(burst.is_some());
        assert_eq!(burst.unwrap().len(), 2);
        assert_eq!(dam.bursts(), 1);
        assert_eq!(counters.dram_bits, 4 * 16);
    }

    #[test]
    fn dam_final_drain_flushes_remainder() {
        let mut counters = Counters::new();
        let mut dam = AlignmentMemory::new(100);
        let _ = dam.push(vec![1.0; 3], &mut counters);
        let rows = dam.drain(&mut counters);
        assert_eq!(rows.len(), 1);
        assert_eq!(counters.dram_bits, 3 * 16);
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
}
