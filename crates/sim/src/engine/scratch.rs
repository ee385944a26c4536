//! Run-phase arenas: the per-request [`Scratch`] buffers and the bounded
//! [`ScratchPool`] long-lived services check warm arenas out of.

use crate::counters::Counters;
use crate::errr::{RowRing, Streams};
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
    /// Peak dense row-parts length (`KernelBufs::parts`).
    pub(crate) parts: usize,
    /// Peak filter-vector position-list length
    /// (`KernelBufs::positions`, images × F).
    pub(crate) positions: usize,
    /// Peak output-row block length (`KernelBufs::rows_out`).
    pub(crate) rows_out: usize,
    /// Peak finished output-row block length (`KernelBufs::rows_fin`).
    pub(crate) rows_fin: usize,
    /// Peak length of one stream or window buffer
    /// ([`KernelBufs::longest_stream`]) — batch-wide on transferred
    /// stages.
    pub(crate) stream: usize,
    /// Peak length of one lane-ring part buffer
    /// ([`KernelBufs::lane_pool`]).
    pub(crate) lanes: usize,
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
            stream: self.stream.max(other.stream),
            lanes: self.lanes.max(other.lanes),
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
            stream: std::iter::once(&self.bufs)
                .chain(&self.bufs_pool)
                .map(KernelBufs::longest_stream)
                .max()
                .unwrap_or(0),
            lanes: std::iter::once(&self.bufs)
                .chain(&self.bufs_pool)
                .flat_map(|bufs| &bufs.lane_pool)
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
            bufs.shrink_streams(keep.stream);
            for parts in &mut bufs.lane_pool {
                retain(parts, keep.lanes);
            }
        }
    }

    /// The retained capacities of the batch-scaled arenas — what the
    /// high-water shrink bounds, in order: padded planes, out
    /// accumulators, the two stage-activation buffers, dense row parts,
    /// the window buffer, the words of every transferred stream buffer
    /// (ERRR ring streams and the `per_row` streams), the
    /// filter-vector position list, the two output-row blocks
    /// (accumulators and finished activations, in elements) and the
    /// words of every lane-ring part buffer, all of the caller-thread
    /// buffer set.
    #[must_use]
    pub fn arena_capacities(&self) -> [usize; 10] {
        [
            self.padded.capacity(),
            self.out.capacity(),
            self.stage_in.capacity(),
            self.stage_next.capacity(),
            self.bufs.parts.capacity(),
            self.bufs.window.capacity(),
            self.bufs.streams().map(Vec::capacity).sum(),
            self.bufs.positions.capacity(),
            self.bufs.rows_out.capacity() + self.bufs.rows_fin.capacity(),
            self.bufs.lane_pool.iter().map(Vec::capacity).sum(),
        ]
    }
}

/// Buffers used inside a single unit kernel.
#[derive(Debug, Default)]
pub(crate) struct KernelBufs {
    /// Combined window sums for one output row, batch-wide.
    pub(crate) window: Vec<Accum>,
    /// Dense and sparse path: `K` channel-summed batch-wide row parts,
    /// flat `[K × row_span]`; filter-vector path: `K` parts of
    /// `[positions × G]`.
    pub(crate) parts: Vec<Accum>,
    /// Filter-vector path: the part's emitted positions, as offsets
    /// into its interleaved rows (`images × F` of them).
    pub(crate) positions: Vec<usize>,
    /// Filter-vector path, output-row parts (`exec::partition`): the
    /// part's `[planes × rows × F]` accumulator block of one image.
    pub(crate) rows_out: Vec<Accum>,
    /// The same part's finished `[planes × rows/p × F/p]` activations,
    /// copied into the next stage's input after the fan-out.
    pub(crate) rows_fin: Vec<Fx16>,
    /// Transferred path without a ring: `per_row[ky][v][x]` batch-wide
    /// stream buffers of one window.
    pub(crate) per_row: Streams,
    /// Transferred path: one ERRR ring per weight set of the running
    /// unit; between units they hold no streams.
    pub(crate) rings: Vec<RowRing>,
    /// Retired stream buffers awaiting the next row pass.
    pub(crate) streams_pool: Vec<Streams>,
    /// Lane form: the running lane group's ERRR ring, its resident
    /// input rows oldest first, each with one buffer of
    /// `[calls × positions × G]` parts; between units it holds none.
    pub(crate) lane_ring: VecDeque<(usize, Vec<Accum>)>,
    /// Retired lane-ring part buffers awaiting the next input row.
    pub(crate) lane_pool: Vec<Vec<Accum>>,
}

impl KernelBufs {
    /// Every stream buffer the set holds between units: the pooled ring
    /// streams (a unit resets its rings, draining their slots into
    /// `streams_pool`) and the `per_row` streams.
    fn streams(&self) -> impl Iterator<Item = &Vec<Accum>> {
        self.streams_pool
            .iter()
            .chain(std::iter::once(&self.per_row))
            .flatten()
            .flatten()
    }

    /// The longest stream or window buffer in the set. Retiring a run
    /// empties them all, so within a run this is the run's own peak.
    fn longest_stream(&self) -> usize {
        self.streams()
            .map(Vec::len)
            .chain(std::iter::once(self.window.len()))
            .max()
            .unwrap_or(0)
    }

    /// Empties every stream and the window buffer (each pass re-shapes
    /// them before use) and caps each one's capacity at `keep` words.
    fn shrink_streams(&mut self, keep: usize) {
        let pooled = self.streams_pool.iter_mut();
        for stream in pooled
            .chain(std::iter::once(&mut self.per_row))
            .flatten()
            .flatten()
        {
            retain(stream, keep);
        }
        retain(&mut self.window, keep);
    }
}

/// Empties `buf` and caps its retained capacity at `keep` elements.
fn retain<T>(buf: &mut Vec<T>, keep: usize) {
    buf.clear();
    buf.shrink_to(keep);
}

/// Shapes a recycled stream buffer to `rows × variants × len`, zeroing
/// every element (the `_acc` kernels accumulate into it).
pub(crate) fn shape_streams(streams: &mut Streams, rows: usize, variants: usize, len: usize) {
    streams.resize_with(rows, Vec::new);
    for per_row in streams.iter_mut() {
        per_row.resize_with(variants, Vec::new);
        for stream in per_row.iter_mut() {
            stream.clear();
            stream.resize(len, Accum::ZERO);
        }
    }
}

/// A mutex-guarded, **bounded** pool of [`Scratch`] arenas, checked out
/// per in-flight request so long-lived services (the batch runner,
/// `tfe-serve`'s executors) reuse warm buffers across requests and
/// threads.
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
