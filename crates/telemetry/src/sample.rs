//! One telemetry record: which compiled stage ran, how long it took,
//! and the datapath events it generated.

use crate::counters::Counters;

/// One per-stage execution record emitted by the engine's
/// instrumentation: the stage index, the wall time, how many images the
/// execution covered, and exactly the [`Counters`] delta that stage
/// contributed to the run's total.
///
/// A batched run (`Engine::run` on a `[B, …]` tensor) emits **one**
/// sample per stage covering all `B` images — `images` keeps the
/// per-layer image throughput exact even when the serving stack packs a
/// whole micro-batch into a single engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSample {
    /// Compiled stage index (0-based, in network order).
    pub layer: u32,
    /// Wall-clock time of the stage, nanoseconds.
    pub wall_ns: u64,
    /// Number of images this stage execution processed (the run's batch
    /// dimension).
    pub images: u64,
    /// The stage's own counter delta (sums to the run total across all
    /// stages of one run).
    pub counters: Counters,
}

impl LayerSample {
    /// Number of `u64` words one encoded sample occupies in the ring:
    /// the `layer` tag word, `wall_ns`, `images`, and the 11 counter
    /// fields.
    pub(crate) const WORDS: usize = 14;

    /// Packs the sample into fixed-width words for the atomic ring.
    pub(crate) fn encode(&self) -> [u64; Self::WORDS] {
        // Exhaustive destructuring: adding a Counters field without
        // growing WORDS (and decode below) is a compile error.
        let Counters {
            dense_macs,
            multiplies,
            adds,
            sr_reads,
            sr_writes,
            psum_mem_reads,
            psum_mem_writes,
            input_mem_reads,
            weight_reads,
            dram_bits,
            cycles,
        } = self.counters;
        [
            u64::from(self.layer),
            self.wall_ns,
            self.images,
            dense_macs,
            multiplies,
            adds,
            sr_reads,
            sr_writes,
            psum_mem_reads,
            psum_mem_writes,
            input_mem_reads,
            weight_reads,
            dram_bits,
            cycles,
        ]
    }

    /// Inverse of [`encode`](Self::encode).
    pub(crate) fn decode(words: [u64; Self::WORDS]) -> LayerSample {
        let [tag, wall_ns, images, dense_macs, multiplies, adds, sr_reads, sr_writes, psum_mem_reads, psum_mem_writes, input_mem_reads, weight_reads, dram_bits, cycles] =
            words;
        LayerSample {
            layer: tag as u32,
            wall_ns,
            images,
            counters: Counters {
                dense_macs,
                multiplies,
                adds,
                sr_reads,
                sr_writes,
                psum_mem_reads,
                psum_mem_writes,
                input_mem_reads,
                weight_reads,
                dram_bits,
                cycles,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_word_encoding() {
        let sample = LayerSample {
            layer: 0x00ab_cdef,
            wall_ns: u64::MAX - 7,
            images: 42,
            counters: Counters {
                dense_macs: 1,
                multiplies: 2,
                adds: 3,
                sr_reads: 4,
                sr_writes: 5,
                psum_mem_reads: 6,
                psum_mem_writes: 7,
                input_mem_reads: 8,
                weight_reads: 9,
                dram_bits: u64::MAX,
                cycles: 11,
            },
        };
        assert_eq!(LayerSample::decode(sample.encode()), sample);
    }
}
