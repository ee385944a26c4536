//! Run-phase arenas: the per-request [`Scratch`] buffers and the bounded
//! [`ScratchPool`] long-lived services check warm arenas out of.

use crate::counters::Counters;
use std::collections::VecDeque;
use std::sync::Mutex;
use tfe_tensor::fixed::{Accum, Fx16};

/// How many recent runs the high-water shrink window covers: after each
/// run, every batch-scaled arena's retained capacity is capped at the
/// largest geometry seen in the last `PEAK_WINDOW` runs, so a one-off
/// large batch stops pinning memory once it ages out of the window.
pub(crate) const PEAK_WINDOW: usize = 8;

/// One run's high-water buffer lengths — what [`Scratch::retire_run`]
/// folds into the shrink window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArenaPeak {
    /// Peak `padded` length across the run's stages.
    pub(crate) padded: usize,
    /// Peak `out` accumulator length across the run's stages.
    pub(crate) out: usize,
    /// Peak stage-activation length (`stage_in` / `stage_next`).
    pub(crate) stage: usize,
    /// Peak sparse row-parts length (`KernelBufs::parts`).
    pub(crate) parts: usize,
    /// Peak filter-vector position-list length
    /// (`KernelBufs::positions`, images × F).
    pub(crate) positions: usize,
    /// Peak output-row block length (`KernelBufs::rows_out`).
    pub(crate) rows_out: usize,
    /// Peak finished output-row block length (`KernelBufs::rows_fin`).
    pub(crate) rows_fin: usize,
    /// Peak window buffer length (`KernelBufs::window`) — batch-wide on
    /// row-layout transferred stages.
    pub(crate) window: usize,
    /// Peak length of one ERRR ring row's part buffer
    /// ([`KernelBufs::ring_pool`]).
    pub(crate) ring: usize,
}

impl ArenaPeak {
    /// Element-wise maximum of two peaks.
    pub(crate) fn max(self, other: ArenaPeak) -> ArenaPeak {
        ArenaPeak {
            padded: self.padded.max(other.padded),
            out: self.out.max(other.out),
            stage: self.stage.max(other.stage),
            parts: self.parts.max(other.parts),
            positions: self.positions.max(other.positions),
            rows_out: self.rows_out.max(other.rows_out),
            rows_fin: self.rows_fin.max(other.rows_fin),
            window: self.window.max(other.window),
            ring: self.ring.max(other.ring),
        }
    }
}

/// Reusable per-worker buffers for [`Engine::run`](crate::engine::Engine::run).
///
/// Ownership model: one `Scratch` belongs to exactly one in-flight
/// request at a time (typically one per worker thread — see
/// [`ScratchPool`]). The engine itself is immutable and shared; every
/// mutable byte of a request lives here. Buffers are retained between
/// requests so the steady state re-uses warm allocations — bounded by a
/// high-water window: capacity beyond the largest geometry of the last
/// `PEAK_WINDOW` runs is released when a run retires.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Flat padded input planes of the current stage, for the whole
    /// batch, interleaved by row: `[channel × padded_h × (batch ·
    /// padded_w)]`.
    pub(crate) padded: Vec<Fx16>,
    /// Flat ofmap accumulators of the current stage,
    /// `[batch × M × E × F]`, strided.
    pub(crate) out: Vec<Accum>,
    /// Current stage's input activations, flat `[B × C × H × W]`.
    pub(crate) stage_in: Vec<Fx16>,
    /// Next stage's activations, each part finishing its own slice.
    pub(crate) stage_next: Vec<Fx16>,
    /// Kernel-level buffers (window sums, row parts, ERRR rings).
    pub(crate) bufs: KernelBufs,
    /// Extra kernel-buffer sets for intra-run worker partitions, checked
    /// out per part and returned after the stage's fan-out joins.
    pub(crate) bufs_pool: Vec<KernelBufs>,
    /// Per-image counter accumulators of the current run, `[batch]`.
    pub(crate) image_counters: Vec<Counters>,
    /// The shrink window: the last [`PEAK_WINDOW`] runs' peaks.
    peaks: [ArenaPeak; PEAK_WINDOW],
    /// Next slot of `peaks` to overwrite.
    peak_cursor: usize,
    /// Filter rows quantized during the run phase. The compiled engine
    /// has no run-time quantization path, so this stays 0 — asserted
    /// after every run in debug builds and exposed for tests.
    pub(crate) run_quantized_rows: u64,
}

impl Scratch {
    /// An empty scratch arena; buffers grow to steady-state sizes during
    /// the first request.
    #[must_use]
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Filter rows quantized by the run phase with this scratch —
    /// always 0 (the invariant the compile/run split exists to provide).
    #[must_use]
    pub fn run_quantized_rows(&self) -> u64 {
        self.run_quantized_rows
    }

    /// This run's current buffer lengths, folded into a run's peak after
    /// every stage (`stage` is the longer of the two activation buffers
    /// the caller holds while the stage runs).
    pub(crate) fn peak(&self, stage: usize) -> ArenaPeak {
        ArenaPeak {
            padded: self.padded.len(),
            out: self.out.len(),
            stage,
            parts: self.bufs.parts.len(),
            positions: self.bufs.positions.len(),
            rows_out: self.bufs.rows_out.len(),
            rows_fin: self.bufs.rows_fin.len(),
            window: std::iter::once(&self.bufs)
                .chain(&self.bufs_pool)
                .map(|bufs| bufs.window.len())
                .max()
                .unwrap_or(0),
            ring: std::iter::once(&self.bufs)
                .chain(&self.bufs_pool)
                .flat_map(|bufs| &bufs.ring_pool)
                .map(Vec::len)
                .max()
                .unwrap_or(0),
        }
    }

    /// Retires one run: records its high-water buffer lengths in the
    /// shrink window, then caps every batch-scaled arena's retained
    /// capacity at the window maximum. A one-off large batch keeps its
    /// arenas warm for up to [`PEAK_WINDOW`] further runs, after which
    /// the excess capacity is released back to the allocator.
    pub(crate) fn retire_run(&mut self, peak: ArenaPeak) {
        self.peaks[self.peak_cursor] = peak;
        self.peak_cursor = (self.peak_cursor + 1) % PEAK_WINDOW;
        let keep = self.peaks.iter().fold(peak, |acc, &p| acc.max(p));
        retain(&mut self.padded, keep.padded);
        retain(&mut self.out, keep.out);
        retain(&mut self.stage_in, keep.stage);
        retain(&mut self.stage_next, keep.stage);
        for bufs in std::iter::once(&mut self.bufs).chain(&mut self.bufs_pool) {
            retain(&mut bufs.parts, keep.parts);
            retain(&mut bufs.positions, keep.positions);
            retain(&mut bufs.rows_out, keep.rows_out);
            retain(&mut bufs.rows_fin, keep.rows_fin);
            retain(&mut bufs.window, keep.window);
            for parts in &mut bufs.ring_pool {
                retain(parts, keep.ring);
            }
        }
    }

    /// The retained capacities of the batch-scaled arenas — what the
    /// high-water shrink bounds, in order: padded planes, out
    /// accumulators, the two stage-activation buffers, dense row parts,
    /// the window buffer, the filter-vector position list, the two
    /// output-row blocks (accumulators and finished activations, in
    /// elements) and the words of every ERRR ring part buffer, all of
    /// the caller-thread buffer set.
    #[must_use]
    pub fn arena_capacities(&self) -> [usize; 9] {
        [
            self.padded.capacity(),
            self.out.capacity(),
            self.stage_in.capacity(),
            self.stage_next.capacity(),
            self.bufs.parts.capacity(),
            self.bufs.window.capacity(),
            self.bufs.positions.capacity(),
            self.bufs.rows_out.capacity() + self.bufs.rows_fin.capacity(),
            self.bufs.ring_pool.iter().map(Vec::capacity).sum(),
        ]
    }
}

/// Buffers used inside a single unit kernel.
#[derive(Debug, Default)]
pub(crate) struct KernelBufs {
    /// Combined window sums for one output row: batch-wide on the
    /// sparse pass and row-layout groups, `[positions × G]` on
    /// lane-layout groups.
    pub(crate) window: Vec<Accum>,
    /// Sparse pass: `K` channel-summed batch-wide row parts, flat `[K ×
    /// row_span]`.
    pub(crate) parts: Vec<Accum>,
    /// Lane-layout groups: the part's emitted positions, as offsets
    /// into its interleaved rows (`images × F` of them).
    pub(crate) positions: Vec<usize>,
    /// Output-row parts of dense groups (`exec::partition`): the part's
    /// `[planes × rows × F]` accumulator block of one image.
    pub(crate) rows_out: Vec<Accum>,
    /// The same part's finished `[planes × rows/p × F/p]` activations,
    /// copied into the next stage's input after the fan-out.
    pub(crate) rows_fin: Vec<Fx16>,
    /// Lane groups: the running group's ERRR ring, its resident input
    /// rows in the order they were filled, each with one buffer of the
    /// row's parts (`exec::group_sweep`); between units it holds none.
    pub(crate) ring: VecDeque<(usize, Vec<Accum>)>,
    /// Retired ring part buffers awaiting the next input row.
    pub(crate) ring_pool: Vec<Vec<Accum>>,
}

/// Empties `buf` and caps its retained capacity at `keep` elements.
fn retain<T>(buf: &mut Vec<T>, keep: usize) {
    buf.clear();
    buf.shrink_to(keep);
}

/// A mutex-guarded, **bounded** pool of [`Scratch`] arenas, checked out
/// per in-flight request so long-lived callers (`tfe-serve`'s
/// executors, [`FunctionalNetwork::run`](crate::network::FunctionalNetwork::run))
/// reuse warm buffers across requests and threads.
///
/// The pool retains at most `capacity` idle arenas: a burst of N
/// concurrent requests can check out N arenas, but [`restore`] drops any
/// arena beyond the cap instead of retaining its steady-state-sized
/// buffers forever. The default capacity matches the machine's available
/// parallelism — one warm arena per worker thread that could plausibly
/// run concurrently.
///
/// [`restore`]: ScratchPool::restore
#[derive(Debug)]
pub struct ScratchPool {
    pool: Mutex<Vec<Scratch>>,
    capacity: usize,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl ScratchPool {
    /// An empty pool capped at the machine's available parallelism;
    /// arenas are created on first checkout.
    #[must_use]
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ScratchPool::with_capacity(workers)
    }

    /// An empty pool retaining at most `capacity` idle arenas (0 means
    /// nothing is ever retained — every checkout starts cold).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// The maximum number of idle arenas this pool retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many warm arenas are currently idle in the pool — never more
    /// than [`capacity`](ScratchPool::capacity).
    #[must_use]
    pub fn warm(&self) -> usize {
        self.pool.lock().expect("scratch pool lock poisoned").len()
    }

    /// Checks out a scratch arena (a warm one when available).
    #[must_use]
    pub fn checkout(&self) -> Scratch {
        self.pool
            .lock()
            .expect("scratch pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch arena to the pool for reuse. Arenas beyond the
    /// pool's capacity are dropped, bounding idle memory after a burst.
    pub fn restore(&self, scratch: Scratch) {
        let mut pool = self.pool.lock().expect("scratch pool lock poisoned");
        if pool.len() < self.capacity {
            pool.push(scratch);
        }
    }
}
