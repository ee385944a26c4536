//! ERRR — entire-row result reuse (Section III.C, Figs. 8–9).
//!
//! The output memory system keeps the row results of the last few input
//! rows alive in a ring of PSum memories (MEM0, MEM1, … are cyclically
//! rewritten as Fig. 8's periods advance). A window result for output row
//! `oy` sums row results of input rows `oy..oy+K−1`; as soon as row `i`
//! falls out of every remaining window, its memory is recycled for row
//! `i + K`.
//!
//! [`RowRing`] is the functional model: a bounded ring of row slots with
//! access counting and the invariant that a row is only ever requested
//! while it is still resident — the property that makes the cyclic
//! schedule correct.
//!
//! Access counting models one image's PSum traffic: a stream access is
//! charged its stored length. The compiled engine runs the same
//! schedule on its own ring of per-input-row part buffers
//! (`engine::exec`), holding every image's lane back to back (DESIGN
//! §5.13); its charges are this model's, one image's lane per access,
//! summed in closed form when the engine compiles.

use crate::counters::Counters;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use tfe_tensor::fixed::Accum;

/// Why a [`RowRing`] read could not be served. Every variant is a
/// scheduling bug in the caller, but they point at different bugs:
/// requesting an evicted row means the ring is under-provisioned (or the
/// window walk runs ahead of the schedule), while requesting a row that
/// was never inserted means the row pass itself was skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingReadError {
    /// The row was inserted earlier but its memory has been recycled.
    Evicted {
        /// The requested input-row index.
        row_index: usize,
    },
    /// The row was never inserted into the ring.
    NeverInserted {
        /// The requested input-row index.
        row_index: usize,
    },
    /// The row is resident but has no stream at the requested indices.
    MissingStream {
        /// The requested input-row index.
        row_index: usize,
        /// The requested filter-row index.
        filter_row: usize,
        /// The requested variant index.
        variant: usize,
    },
}

impl fmt::Display for RingReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RingReadError::Evicted { row_index } => write!(
                f,
                "row {row_index} was recycled before it was read (ring under-provisioned)"
            ),
            RingReadError::NeverInserted { row_index } => {
                write!(f, "row {row_index} was never inserted into the ring")
            }
            RingReadError::MissingStream {
                row_index,
                filter_row,
                variant,
            } => write!(
                f,
                "row {row_index} has no stream (filter_row {filter_row}, variant {variant})"
            ),
        }
    }
}

impl std::error::Error for RingReadError {}

/// The result streams one input row contributes to the ring, indexed
/// `streams[filter_row][variant][x]` — transferred-filter horizontal
/// offsets for the DCNN, forward/mirrored directions for the SCNN.
pub type Streams = Vec<Vec<Vec<Accum>>>;

/// One resident input row's results: for every (filter-row, variant)
/// stream the engine produced, a vector of per-position partial sums.
///
/// The `variant` index distinguishes the parallel streams one row pass
/// yields — transferred-filter horizontal offsets for the DCNN, the
/// forward/mirrored directions for the SCNN.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSlot {
    row_index: usize,
    /// `streams[filter_row][variant][x]`.
    streams: Streams,
}

/// A cyclic ring of PSum row memories.
///
/// `capacity` models the number of PSum memories dedicated to the layer
/// (the paper provisions seven 8 KB memories, enough for a 7×7 filter's
/// seven live rows).
#[derive(Debug, Clone)]
pub struct RowRing {
    capacity: usize,
    slots: VecDeque<RowSlot>,
    /// Number of slot evictions (memory recycles) that occurred.
    recycles: u64,
    /// Every row index ever inserted, so a failed read can distinguish
    /// "recycled too early" from "never computed". Bounded by the number
    /// of distinct input rows in a layer pass.
    ever_inserted: HashSet<usize>,
}

impl RowRing {
    /// Creates a ring with room for `capacity` input rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "row ring needs at least one slot");
        RowRing {
            capacity,
            slots: VecDeque::with_capacity(capacity),
            recycles: 0,
            ever_inserted: HashSet::new(),
        }
    }

    /// Number of rows currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Number of slot recycles so far (Fig. 8's period turnovers).
    #[must_use]
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Inserts a freshly computed row, evicting the oldest if full, and
    /// counts the PSum-memory writes.
    pub fn insert(&mut self, row_index: usize, streams: Streams, counters: &mut Counters) {
        let words: usize = streams.iter().flatten().map(Vec::len).sum();
        counters.psum_mem_writes += words as u64;
        if self.slots.len() == self.capacity {
            self.recycles += 1;
            self.slots.pop_front();
        }
        self.ever_inserted.insert(row_index);
        self.slots.push_back(RowSlot { row_index, streams });
    }

    /// Clears the ring for a fresh layer pass and resizes it to
    /// `capacity`. Access statistics ([`recycles`](Self::recycles))
    /// restart from zero.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "row ring needs at least one slot");
        self.capacity = capacity;
        self.recycles = 0;
        self.ever_inserted.clear();
        self.slots.clear();
    }

    /// Reads the result stream `(filter_row, variant)` of input row
    /// `row_index`, counting the PSum-memory reads.
    ///
    /// # Errors
    ///
    /// Returns a [`RingReadError`] naming the scheduling bug: the row was
    /// recycled before use, never inserted at all, or resident without
    /// the requested stream.
    pub fn try_read(
        &self,
        row_index: usize,
        filter_row: usize,
        variant: usize,
        counters: &mut Counters,
    ) -> Result<&[Accum], RingReadError> {
        let Some(slot) = self.slots.iter().find(|s| s.row_index == row_index) else {
            if self.ever_inserted.contains(&row_index) {
                return Err(RingReadError::Evicted { row_index });
            }
            return Err(RingReadError::NeverInserted { row_index });
        };
        let stream = slot
            .streams
            .get(filter_row)
            .and_then(|per_row| per_row.get(variant))
            .ok_or(RingReadError::MissingStream {
                row_index,
                filter_row,
                variant,
            })?;
        counters.psum_mem_reads += stream.len() as u64;
        Ok(stream)
    }

    /// [`RowRing::try_read`] with the error collapsed to `None`, for
    /// callers that handle all failure modes identically.
    #[must_use]
    pub fn read(
        &self,
        row_index: usize,
        filter_row: usize,
        variant: usize,
        counters: &mut Counters,
    ) -> Option<&[Accum]> {
        self.try_read(row_index, filter_row, variant, counters).ok()
    }

    /// Whether a row is currently resident.
    #[must_use]
    pub fn contains(&self, row_index: usize) -> bool {
        self.slots.iter().any(|s| s.row_index == row_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::fixed::Fx16;

    fn acc(v: f32) -> Accum {
        Fx16::from_f32(v).widening_mul(Fx16::ONE)
    }

    fn one_stream(values: &[f32]) -> Vec<Vec<Vec<Accum>>> {
        vec![vec![values.iter().map(|&v| acc(v)).collect()]]
    }

    #[test]
    fn ring_keeps_last_k_rows() {
        let mut ring = RowRing::new(3);
        let mut c = Counters::new();
        for i in 0..5 {
            ring.insert(i, one_stream(&[i as f32]), &mut c);
        }
        assert_eq!(ring.resident(), 3);
        assert!(!ring.contains(0));
        assert!(!ring.contains(1));
        assert!(ring.contains(2) && ring.contains(4));
        assert_eq!(ring.recycles(), 2);
    }

    #[test]
    fn read_counts_and_returns_values() {
        let mut ring = RowRing::new(2);
        let mut c = Counters::new();
        ring.insert(7, one_stream(&[1.0, 2.0, 3.0]), &mut c);
        assert_eq!(c.psum_mem_writes, 3);
        let data = ring.read(7, 0, 0, &mut c).unwrap();
        assert_eq!(data.len(), 3);
        assert_eq!(c.psum_mem_reads, 3);
        assert_eq!(data[1], acc(2.0));
    }

    #[test]
    fn reading_recycled_row_fails() {
        let mut ring = RowRing::new(1);
        let mut c = Counters::new();
        ring.insert(0, one_stream(&[1.0]), &mut c);
        ring.insert(1, one_stream(&[2.0]), &mut c);
        assert!(ring.read(0, 0, 0, &mut c).is_none());
        assert!(ring.read(1, 0, 0, &mut c).is_some());
    }

    #[test]
    fn try_read_distinguishes_failure_modes() {
        let mut ring = RowRing::new(1);
        let mut c = Counters::new();
        ring.insert(0, one_stream(&[1.0]), &mut c);
        ring.insert(1, one_stream(&[2.0]), &mut c);
        // Row 0 was inserted, then recycled by row 1's arrival.
        assert_eq!(
            ring.try_read(0, 0, 0, &mut c),
            Err(RingReadError::Evicted { row_index: 0 })
        );
        // Row 9 was never computed.
        assert_eq!(
            ring.try_read(9, 0, 0, &mut c),
            Err(RingReadError::NeverInserted { row_index: 9 })
        );
        // Row 1 is resident but only has stream (0, 0).
        assert_eq!(
            ring.try_read(1, 2, 0, &mut c),
            Err(RingReadError::MissingStream {
                row_index: 1,
                filter_row: 2,
                variant: 0
            })
        );
        // Failed reads must not count PSum-memory traffic.
        assert_eq!(c.psum_mem_reads, 0);
        assert!(ring.try_read(1, 0, 0, &mut c).is_ok());
        assert_eq!(c.psum_mem_reads, 1);
    }

    #[test]
    fn reset_empties_the_ring_and_restarts_its_statistics() {
        let mut ring = RowRing::new(1);
        let mut c = Counters::new();
        ring.insert(0, one_stream(&[1.0]), &mut c);
        ring.insert(1, one_stream(&[2.0]), &mut c);
        ring.reset(2);
        assert_eq!((ring.resident(), ring.recycles()), (0, 0));
        assert_eq!(
            ring.try_read(1, 0, 0, &mut c),
            Err(RingReadError::NeverInserted { row_index: 1 })
        );
        ring.insert(2, one_stream(&[3.0]), &mut c);
        ring.insert(3, one_stream(&[4.0]), &mut c);
        assert_eq!((ring.resident(), ring.recycles()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = RowRing::new(0);
    }

    #[test]
    fn missing_stream_indices_return_none() {
        let mut ring = RowRing::new(2);
        let mut c = Counters::new();
        ring.insert(0, one_stream(&[1.0]), &mut c);
        assert!(ring.read(0, 1, 0, &mut c).is_none());
        assert!(ring.read(0, 0, 1, &mut c).is_none());
    }
}
