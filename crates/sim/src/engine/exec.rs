//! The run phase: filter-stationary batched row-pass execution of a
//! compiled [`Engine`].
//!
//! Every kernel here reads only the compiled tables in
//! [`ir`](super::ir) and mutates only a caller-owned
//! [`Scratch`] arena. The loop order is
//! **filter-stationary** (DESIGN §5.13): each stage pads the whole
//! batch once, then every quantized filter row is loaded once and swept
//! across all images of the batch before the next row is touched —
//! instead of re-streaming the full row table per image.
//!
//! Every stage runs one datapath: one row-interleaved padded layout
//! (`fill_padded_batch`), one executor per unit kind (a dense filter on
//! the compressed-sparse pass, or a group of lanes: dense filters, SCNN
//! orbit groups' or DCNN meta groups' blocks alike), one forward row
//! sweep for every row-kernel pass ([`row_sweep`]), one window combine
//! (`combine`), and one output memory system (`crate::output`'s
//! [`finish_plane`]), which each part runs on the planes it computed
//! ([`finish_part`]).
//!
//! Every stage but a sparse one runs the one group executor
//! ([`group_sweep`]) from the read schedule compile derived once from
//! the weights: one ERRR ring of per-input-row part buffers per group,
//! each ring row computing only the parts some window reads, then one
//! window per read, charged the closed forms compile summed. Its two
//! layouts differ only in how a ring row is filled (a [`row_sweep`] per
//! lane and weight row, or at 16 or more lanes one filter-vector pass
//! across every lane, DESIGN §5.10) and how a window is emitted. The
//! filter-vector pass visits only the part's emitted positions, so the
//! row sweep's inter-image junk positions and overlapped tail blocks
//! are gone there. A lone image of a dense stage with fewer groups than
//! workers splits its output rows between them ([`partition`]).
//!
//! Bit-identity discipline: each accumulated term is a complete
//! `j`-summed correlation; window parts combine first-copied-then-added
//! in `ky` order, via the one row sweep or filter-vector pass and the
//! ERRR ring schedule.
//! The batched sweep only reorders work **across** images, never within
//! one image, so every image sees the exact saturating-addition order a
//! sequential single-image run performs — `tests/batched_parity.rs`
//! pins this.
//!
//! Counters are data-independent: a unit's charges depend only on the
//! compiled geometry and reuse configuration, never on activation
//! values. Each partition therefore charges one representative image
//! into a `charges` accumulator and replicates it into every image of
//! the partition via [`Counters::merge`] (u64 additions — exact and
//! order-independent), which is both the counter-side hoisting win and
//! trivially bit-identical to per-image charging.

use super::ir::{check_operand, tap, Geo, LaneGroup, Layout, StageIr, UnitIr};
use super::kernels::{correlate_filters, Band, FILTER_GROUP};
use super::scratch::{ArenaPeak, KernelBufs, Scratch};
use super::sparse::sparse_band_pass;
use super::Engine;
use crate::counters::Counters;
use crate::functional::FunctionalOutput;
use crate::network::NetworkOutput;
use crate::output::finish_plane;
use crate::ppsr::{charge_conventional, row_sweep};
use crate::SimError;
use std::time::Instant;
use tfe_telemetry::LayerSample;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;

/// Result of [`Engine::run_batched`]: the batch's activations plus both
/// per-image and merged counter views, so [`Engine::run_packed`] can
/// split a packed batch back into per-input outputs with exact
/// per-input accounting, without re-running anything.
#[derive(Debug, Clone)]
pub struct BatchedRun {
    /// The `[B, C, H, W]` output activations, bit-identical per image to
    /// `B` sequential [`Engine::run`] calls.
    pub activations: Tensor4<Fx16>,
    /// Per-image counters, in batch order — each entry bit-identical to
    /// the counters a sequential single-image run reports.
    pub per_image: Vec<Counters>,
    /// All per-image counters merged in batch order.
    pub counters: Counters,
}

/// One partition of a stage's work: a contiguous image range × a
/// contiguous unit range × a contiguous output-row range, writing the
/// matching `[images × planes × rows × F]` block of the stage's output
/// accumulator planes and finishing it into the matching block of the
/// next stage's activations.
///
/// The partitioner emits full-unit batch chunks (`plane0..plane1` =
/// `0..M`), or, when the batch is smaller than the worker budget,
/// single-image unit runs whose plane ranges tile `0..M` (the
/// [`UnitIr::plane_range`] invariant) — both tile the `[B × M × E × F]`
/// output exactly, in ascending offset order, with every row. A dense
/// stage with fewer groups than an image's workers splits that image's
/// output rows instead (`oy0..oy1`, on pool-band boundaries); such a
/// part's block is not contiguous in the output, so it writes buffers
/// of its own and the stage copies its finished rows into place.
#[derive(Debug, Clone, Copy)]
struct Part {
    b0: usize,
    b1: usize,
    u0: usize,
    u1: usize,
    plane0: usize,
    plane1: usize,
    oy0: usize,
    oy1: usize,
}

impl Part {
    fn images(self) -> usize {
        self.b1 - self.b0
    }

    fn planes(self) -> usize {
        self.plane1 - self.plane0
    }

    fn rows(self) -> usize {
        self.oy1 - self.oy0
    }

    fn start(self, m: usize, plane_len: usize) -> usize {
        (self.b0 * m + self.plane0) * plane_len
    }

    fn len(self, m: usize, plane_len: usize) -> usize {
        if self.planes() == m {
            self.images() * m * plane_len
        } else {
            self.planes() * plane_len
        }
    }
}

/// Shared read-only context every partition of one stage sees.
#[derive(Clone, Copy)]
struct PartCtx<'a> {
    stage: &'a StageIr,
    geo: Geo,
    /// The whole run's batch size (padded-row stride for the
    /// interleaved layout — parts see all images' rows).
    batch: usize,
    /// Whether the stage's conservative bound proved every kernel
    /// intermediate stays inside `i32` — gates the wrapping
    /// (vectorizer-friendly) fast path of every pass: dense, sparse,
    /// DCNN, and SCNN.
    saturation_free: bool,
    /// The whole batch's padded input planes, interleaved by row
    /// (`[N × PH × (B·PW)]`) so one contiguous pass spans the batch.
    padded: &'a [Fx16],
}

impl<'a> PartCtx<'a> {
    /// The context of one stage over the padded batch, its
    /// saturation-free gate decided by one scan of `padded`.
    fn new(stage: &'a StageIr, geo: Geo, batch: usize, padded: &'a [Fx16]) -> Self {
        PartCtx {
            stage,
            geo,
            batch,
            saturation_free: saturation_free(stage, &geo, padded),
            padded,
        }
    }

    /// The span of one batch-wide row pass over `part`'s images:
    /// `(images−1)·PW + full_w`, image `bi`'s lane at `bi·PW`.
    fn row_span(&self, part: Part) -> usize {
        let Geo { pw, kw, .. } = self.geo;
        (part.images() - 1) * pw + pw - kw + 1
    }
}

impl Engine {
    /// Executes the network on a `[batch, N, H, W]` input using
    /// `scratch` for every intermediate buffer.
    ///
    /// After one warm-up request of each geometry the call performs no
    /// heap allocation in the datapath (only the returned output tensor
    /// is freshly allocated) and never touches `f32` weights.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OperandMismatch`] when the input (or a
    /// stage's activations) disagrees with the next stage's geometry.
    pub fn run(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
    ) -> Result<NetworkOutput, SimError> {
        let activations = self.run_inner(input, scratch, 1)?;
        let counters = total_counters(&scratch.image_counters);
        Ok(NetworkOutput {
            activations,
            counters,
        })
    }

    /// [`Engine::run`] with per-image counters and an intra-run worker
    /// budget: the batch's convolution work is partitioned into at most
    /// `workers` (batch-chunk × unit-group) parts executed on scoped
    /// threads.
    ///
    /// `workers` is taken literally (clamped to the work available and
    /// to at least 1) — callers decide the budget, e.g. from
    /// [`std::thread::available_parallelism`], and should pass 1 for runs
    /// too small to amortize a thread spawn. Activations and per-image
    /// counters are bit-identical at every worker count
    /// (`tests/batched_parity.rs`, `tests/parallel_parity.rs`).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn run_batched(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<BatchedRun, SimError> {
        let activations = self.run_inner(input, scratch, workers)?;
        let per_image = scratch.image_counters.clone();
        let counters = total_counters(&per_image);
        Ok(BatchedRun {
            activations,
            per_image,
            counters,
        })
    }

    /// Packs `inputs` into one `[ΣB, C, H, W]` batch, runs it as one
    /// [`Engine::run_batched`] sweep on the caller's thread, and splits
    /// the activations and per-image counters back out per input, in
    /// input order — the pack → run → split each `tfe-serve` executor
    /// runs its micro-batch through. The executor pool is the
    /// parallelism: one worker per micro-batch measured faster in wall
    /// time than image chunks or a packed sweep at 2 workers on every
    /// model the fleet serves (DESIGN §5.13). Each output is
    /// bit-identical to [`Engine::run`] on its input alone.
    ///
    /// Every input's `(C, H, W)` is checked against stage 0 in input
    /// order before anything runs, so packing never changes which
    /// mismatch is reported. A lone input skips the pack/split copies
    /// and runs through [`Engine::run`]; an input with leading dim > 1
    /// keeps its own sub-range of the pack; inputs whose `(C, H, W)`
    /// differ (possible only on a stage-less engine) run one at a time.
    ///
    /// # Errors
    ///
    /// The first stage-0 [`SimError::OperandMismatch`] in input order,
    /// otherwise the run's error.
    pub fn run_packed(
        &self,
        inputs: &[&Tensor4<Fx16>],
        scratch: &mut Scratch,
    ) -> Result<Vec<NetworkOutput>, SimError> {
        let chw = |t: &Tensor4<Fx16>| {
            let [_, c, h, w] = t.dims();
            (c, h, w)
        };
        if let Some(stage) = self.stages.first() {
            for input in inputs {
                check_input(&stage.shape, chw(input))?;
            }
        }
        if inputs.len() <= 1 || inputs.iter().any(|t| chw(t) != chw(inputs[0])) {
            return inputs.iter().map(|t| self.run(t, scratch)).collect();
        }
        let (c, h, w) = chw(inputs[0]);
        let total: usize = inputs.iter().map(|t| t.dims()[0]).sum();
        let mut packed = Vec::with_capacity(total * c * h * w);
        for t in inputs {
            packed.extend_from_slice(t.as_slice());
        }
        let packed = Tensor4::from_vec([total, c, h, w], packed)
            .expect("packed dims match the concatenated inputs");
        let run = self.run_batched(&packed, scratch, 1)?;
        let [_, oc, oh, ow] = run.activations.dims();
        let image_len = oc * oh * ow;
        let mut b0 = 0;
        let outputs = inputs
            .iter()
            .map(|t| {
                let b1 = b0 + t.dims()[0];
                let activations =
                    run.activations.as_slice()[b0 * image_len..b1 * image_len].to_vec();
                let output = NetworkOutput {
                    activations: Tensor4::from_vec([b1 - b0, oc, oh, ow], activations)
                        .expect("split dims match the packed output"),
                    counters: total_counters(&run.per_image[b0..b1]),
                };
                b0 = b1;
                output
            })
            .collect();
        Ok(outputs)
    }

    /// The shared run loop: executes every stage, leaves per-image
    /// counters in `scratch.image_counters`, and retires the run's
    /// arena peak into the high-water shrink window.
    fn run_inner(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<Tensor4<Fx16>, SimError> {
        let [batch, ic, ih, iw] = input.dims();
        scratch.image_counters.clear();
        scratch.image_counters.resize(batch, Counters::new());
        let mut cur = std::mem::take(&mut scratch.stage_in);
        let mut next = std::mem::take(&mut scratch.stage_next);
        cur.clear();
        cur.extend_from_slice(input.as_slice());
        let mut dims = (ic, ih, iw);
        let mut status = Ok(());
        let mut peak = ArenaPeak::default();
        // One branch decides whether instrumentation exists at all; the
        // disabled path never touches the clock. Sampling reads counter
        // *snapshots* around each stage — the accumulation itself is
        // untouched, so activations and totals stay bit-identical to
        // the uninstrumented run. One sample covers the whole batch
        // (`images` carries the batch size; counters are the exact
        // stage delta summed over the batch).
        let telemetry = self.sink.is_enabled();
        for (layer, stage) in self.stages.iter().enumerate() {
            let before = if telemetry {
                Some((Instant::now(), total_counters(&scratch.image_counters)))
            } else {
                None
            };
            match run_stage(stage, batch, dims, &mut cur, &mut next, scratch, workers) {
                Ok(out_dims) => {
                    dims = out_dims;
                    peak = peak.max(scratch.peak(cur.len().max(next.len())));
                    if let Some((start, base)) = before {
                        self.sink.record(&LayerSample {
                            layer: layer as u32,
                            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            images: batch as u64,
                            counters: total_counters(&scratch.image_counters) - base,
                        });
                    }
                }
                Err(e) => {
                    status = Err(e);
                    break;
                }
            }
        }
        let result = status.map(|()| {
            let (c, h, w) = dims;
            Tensor4::from_fn([batch, c, h, w], |[b, ci, y, x]| {
                cur[((b * c + ci) * h + y) * w + x]
            })
        });
        debug_assert_eq!(
            scratch.run_quantized_rows, 0,
            "the run phase must never quantize filter rows; all quantization happens in compile()"
        );
        scratch.stage_in = cur;
        scratch.stage_next = next;
        if result.is_ok() {
            scratch.retire_run(peak);
        }
        result
    }

    /// Runs the convolution of a single-stage engine and returns the raw
    /// accumulator planes — the layer-level reference contract of
    /// [`crate::functional::run_layer`], which owns validation and the
    /// output stage.
    pub(crate) fn run_conv_only(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
    ) -> Result<FunctionalOutput, SimError> {
        debug_assert_eq!(
            self.stages.len(),
            1,
            "run_conv_only executes exactly one compiled stage"
        );
        let [batch, ic, ih, iw] = input.dims();
        scratch.image_counters.clear();
        scratch.image_counters.resize(batch, Counters::new());
        let stage = &self.stages[0];
        let geo = begin_stage(stage, batch, (ic, ih, iw), input.as_slice(), scratch)?;
        let Scratch {
            padded,
            out,
            bufs,
            image_counters,
            ..
        } = scratch;
        let ctx = PartCtx::new(stage, geo, batch, padded);
        let mut charges = Counters::new();
        run_part(
            ctx,
            partition(batch, stage, &geo, 1)[0],
            out,
            bufs,
            &mut charges,
        );
        for image in image_counters.iter_mut() {
            image.merge(&charges);
        }
        let counters = total_counters(image_counters);
        let output = Tensor4::from_fn([batch, geo.m, geo.e, geo.f], |[b, c, y, x]| {
            out[((b * geo.m + c) * geo.e + y) * geo.f + x]
        });
        debug_assert_eq!(
            scratch.run_quantized_rows, 0,
            "the run phase must never quantize filter rows; all quantization happens in compile()"
        );
        let peak = scratch.peak(0);
        scratch.retire_run(peak);
        Ok(FunctionalOutput { output, counters })
    }
}

/// One full stage: every part computes its accumulator planes and
/// finishes them through the output memory system into its own slice of
/// `next` ([`run_parts`]), then the stage swap. Returns the output
/// `(channels, rows, cols)`.
fn run_stage(
    stage: &StageIr,
    batch: usize,
    dims: (usize, usize, usize),
    cur: &mut Vec<Fx16>,
    next: &mut Vec<Fx16>,
    scratch: &mut Scratch,
    workers: usize,
) -> Result<(usize, usize, usize), SimError> {
    let geo = begin_stage(stage, batch, dims, cur, scratch)?;
    let p = stage.output.pool.unwrap_or(1);
    let (rows, cols) = (geo.e / p, geo.f / p);
    next.clear();
    next.resize(batch * geo.m * rows * cols, Fx16::ZERO);
    run_parts(stage, geo, batch, next, scratch, workers);
    std::mem::swap(cur, next);
    Ok((geo.m, rows, cols))
}

/// A stage's prologue, shared by the full run and the convolution-only
/// run: validates the input geometry, charges every image the stage's
/// analytic MAC total, sizes the `[batch × M × E × F]` accumulator planes
/// in `scratch.out` and pads the whole batch once.
fn begin_stage(
    stage: &StageIr,
    batch: usize,
    dims: (usize, usize, usize),
    cur: &[Fx16],
    scratch: &mut Scratch,
) -> Result<Geo, SimError> {
    let shape = &stage.shape;
    check_input(shape, dims)?;
    let geo = Geo::of(shape);
    // Stage-level charge, outside the part fan-out: under unit-group
    // partitioning several parts cover the same image, so per-part
    // charging would double-count the analytic MAC total.
    for image in &mut scratch.image_counters {
        image.dense_macs += shape.macs();
    }
    scratch.out.clear();
    scratch
        .out
        .resize(batch * geo.m * geo.e * geo.f, Accum::ZERO);
    fill_padded_batch(&mut scratch.padded, cur, batch, &geo);
    Ok(geo)
}

/// Runs one stage's parts, partitioned across up to `workers` scoped
/// threads ([`partition`]): each part computes its accumulator planes
/// ([`run_part`]) and finishes them ([`finish_part`]) into its own slice
/// of `next`, the next stage's `[batch × M × E/p × F/p]` activations
/// (sized by the caller). Batch chunks and unit-group parts tile `next`
/// in the same ascending order as they tile `scratch.out`; output-row
/// parts finish into blocks of their own, copied into place after the
/// fan-out joins.
fn run_parts(
    stage: &StageIr,
    geo: Geo,
    batch: usize,
    next: &mut [Fx16],
    scratch: &mut Scratch,
    workers: usize,
) {
    let Scratch {
        padded,
        out,
        bufs,
        bufs_pool,
        image_counters,
        ..
    } = scratch;
    let ctx = PartCtx::new(stage, geo, batch, padded);
    let p = stage.output.pool.unwrap_or(1);
    let (rows, cols) = (geo.e / p, geo.f / p);
    let parts = partition(batch, stage, &geo, workers);
    // One part's whole stage: its planes, then their finishing.
    let run = |part, acc: &mut [Accum], fin: &mut [Fx16], bufs: &mut KernelBufs| {
        let mut charges = Counters::new();
        run_part(ctx, part, acc, bufs, &mut charges);
        finish_part(ctx, part, acc, fin, &mut charges);
        charges
    };
    if parts.len() == 1 {
        // One worker (`Engine::run`, `Engine::run_packed`): no thread
        // spawn, no extra buffer checkout — straight through on the
        // caller's thread with the warm primary buffers.
        let charges = run(parts[0], out, next, bufs);
        for image in image_counters.iter_mut() {
            image.merge(&charges);
        }
        return;
    }
    // Part 0 keeps the warm primary buffers (fan_out runs it inline
    // on the caller's thread); the others check buffers out of the
    // pool.
    let mut extra_bufs: Vec<KernelBufs> = (1..parts.len())
        .map(|_| bufs_pool.pop().unwrap_or_default())
        .collect();
    // Output-row parts each write blocks of their own, of accumulators
    // and of finished rows (a partition splits rows for every image or
    // for none, on pool-band boundaries).
    let row_parts = parts[0].rows() < geo.e;
    let mut blocks: Vec<(Vec<Accum>, Vec<Fx16>)> = Vec::new();
    if row_parts {
        for (part, part_bufs) in parts
            .iter()
            .zip(std::iter::once(&mut *bufs).chain(&mut extra_bufs))
        {
            let mut acc = std::mem::take(&mut part_bufs.rows_out);
            acc.clear();
            acc.resize(part.planes() * part.rows() * geo.f, Accum::ZERO);
            let mut fin = std::mem::take(&mut part_bufs.rows_fin);
            fin.clear();
            fin.resize(part.planes() * part.rows() / p * cols, Fx16::ZERO);
            blocks.push((acc, fin));
        }
    }
    let slices: Vec<(&mut [Accum], &mut [Fx16])> = if row_parts {
        blocks
            .iter_mut()
            .map(|(acc, fin)| (acc.as_mut_slice(), fin.as_mut_slice()))
            .collect()
    } else {
        let acc = carve(out, &parts, geo.m, geo.e * geo.f);
        let fin = carve(next, &parts, geo.m, rows * cols);
        acc.into_iter().zip(fin).collect()
    };
    let work: Vec<_> = parts
        .iter()
        .zip(slices)
        .zip(std::iter::once(&mut *bufs).chain(&mut extra_bufs))
        .map(|((&part, (acc, fin)), part_bufs)| (part, acc, fin, part_bufs))
        .collect();
    let charges = fan_out(work, |(part, acc, fin, part_bufs)| {
        run(part, acc, fin, part_bufs)
    });
    for (part, part_charges) in parts.iter().zip(&charges) {
        for per_image in &mut image_counters[part.b0..part.b1] {
            per_image.merge(part_charges);
        }
    }
    // Copy each output-row part's finished plane rows into place, then
    // hand its blocks back to its buffer set.
    for ((part, (acc, fin)), part_bufs) in parts
        .iter()
        .zip(blocks)
        .zip(std::iter::once(&mut *bufs).chain(&mut extra_bufs))
    {
        let span = part.rows() / p * cols;
        for (c, finished) in fin.chunks_exact(span).enumerate() {
            let at = ((part.b0 * geo.m + part.plane0 + c) * rows + part.oy0 / p) * cols;
            next[at..at + span].copy_from_slice(finished);
        }
        part_bufs.rows_out = acc;
        part_bufs.rows_fin = fin;
    }
    bufs_pool.append(&mut extra_bufs);
}

/// Carves `buf` into each part's disjoint, contiguous block of
/// `plane_len`-long planes. Batch chunks and unit-group parts tile a
/// stage's planes in ascending offset order (the
/// [`UnitIr::plane_range`] invariant), so successive `split_at_mut`s
/// cover `buf` exactly.
fn carve<'a, T>(buf: &'a mut [T], parts: &[Part], m: usize, plane_len: usize) -> Vec<&'a mut [T]> {
    let total = buf.len();
    let mut rest = buf;
    let mut blocks = Vec::with_capacity(parts.len());
    for part in parts {
        debug_assert_eq!(
            part.start(m, plane_len),
            total - rest.len(),
            "parts must tile the output contiguously"
        );
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(part.len(m, plane_len));
        blocks.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "parts must cover the whole output");
    blocks
}

/// Finishes a part's accumulator planes — its block of
/// `[images × planes × rows × F]`, planes rebased to the part's
/// `plane0` — through the output memory system
/// ([`finish_plane`]) into its block of `[images × planes × rows/p ×
/// F/p]` activations. Like [`run_part`], it charges one representative
/// image's planes, which the caller replicates per image.
fn finish_part(
    ctx: PartCtx<'_>,
    part: Part,
    acc: &[Accum],
    fin: &mut [Fx16],
    charges: &mut Counters,
) {
    let (stage, f) = (ctx.stage, ctx.geo.f);
    let p = stage.output.pool.unwrap_or(1);
    let planes = acc
        .chunks_exact(part.rows() * f)
        .zip(fin.chunks_exact_mut(part.rows() / p * (f / p)));
    // The part's later images finish the same planes into a spare.
    let mut spare = Counters::new();
    for (i, (plane, finished)) in planes.enumerate() {
        let counters = if i < part.planes() {
            &mut *charges
        } else {
            &mut spare
        };
        let c = part.plane0 + i % part.planes();
        finish_plane(plane, f, stage.bias[c], stage.output, finished, counters);
    }
}

/// The conservative saturation-free gate for one stage: every dense
/// parts-buffer slot, DCNN offset lane, and SCNN forward or mirrored
/// stream slot accumulates `N/groups` passes, each a `K`-term product
/// sum (transferred stages are ungrouped, and a DCNN lane or mirrored
/// stream correlates a `K`-tap slice or permutation of a stored row), so
/// **all** kernel intermediates (j-prefix sums and running accumulator
/// values alike) are bounded in magnitude by
/// `(N/groups) · K · max|w| · max|input|`. When that bound stays strictly
/// inside `i32`, no saturating addition can ever clamp, wrapping
/// arithmetic is exact, and exact integer sums are associative — the
/// wrapping kernel fast path is bit-identical to the saturating chain.
/// (The `K`-part window combine stays saturating on every path.)
///
/// The weight factor is folded at compile time ([`StageIr::w_abs_max`],
/// over every stored row: dense rows, DCNN meta rows, the stored SCNN
/// orientations); the input factor is one scan of the stage's padded
/// batch, amortized over the row passes that read it. The scan folds the
/// samples' `i16` minimum and maximum, which vectorizes, and widens once.
fn saturation_free(stage: &StageIr, geo: &Geo, padded: &[Fx16]) -> bool {
    let (mut lo, mut hi) = (0i16, 0i16);
    for v in padded {
        lo = lo.min(v.to_bits());
        hi = hi.max(v.to_bits());
    }
    let in_abs = i64::from(lo).abs().max(i64::from(hi));
    // Each filter sums over its own channel band (N/groups channels) of
    // K live taps per row — stuffed dilation zeros contribute nothing,
    // so the logical-tap bound stays valid for every geometry.
    (geo.cpg as i64)
        .saturating_mul(geo.k as i64)
        .saturating_mul(stage.w_abs_max)
        .saturating_mul(in_abs)
        < i64::from(i32::MAX)
}

/// Checks an activation's `(C, H, W)` against a stage's input
/// geometry: channels, then height, then width.
fn check_input(shape: &LayerShape, (c, h, w): (usize, usize, usize)) -> Result<(), SimError> {
    check_operand("input channels", shape.n(), c)?;
    check_operand("input height", shape.h(), h)?;
    check_operand("input width", shape.w(), w)
}

/// Runs `f` on every item — item 0 inline on the caller's thread, the
/// rest on scoped threads — and returns the results in item order: the
/// one thread fan-out, behind the stage partitioner ([`partition`]). A
/// worker's panic resumes on the caller's thread.
fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let first = f(first);
        std::iter::once(first)
            .chain(handles.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            }))
            .collect()
    })
}

/// Merges a run's per-image counters in batch order.
fn total_counters(per_image: &[Counters]) -> Counters {
    let mut total = Counters::new();
    for image in per_image {
        total.merge(image);
    }
    total
}

/// Contiguous chunk sizes dividing `len` items into at most `chunks`
/// non-empty pieces: `min(chunks, len)` chunks, sizes differing by at
/// most one, larger chunks first. The stage partitioner's one split
/// rule, for batch chunks, per-image worker shares, unit groups and
/// output-row bands alike.
fn chunk_lengths(len: usize, chunks: usize) -> Vec<usize> {
    let count = chunks.min(len);
    if count == 0 {
        return Vec::new();
    }
    let base = len / count;
    let extra = len % count;
    (0..count).map(|i| base + usize::from(i < extra)).collect()
}

/// Divides one stage's convolution work into at most `workers` parts.
///
/// `batch ≥ workers`: contiguous full-unit batch chunks (larger chunks
/// first, matching [`chunk_lengths`]). `batch < workers`: the worker
/// budget is shared across images and each image's unit list is split
/// into that many contiguous unit groups, so a lone large request still
/// fans out. Where each image has more workers than a stage has groups
/// and every group splits its rows ([`LaneGroup::splits_rows`]: dense
/// groups, each of whose ring parts one output row reads), each image's
/// output rows are split instead: splitting a group would run narrower
/// filter blocks (DESIGN §5.10), and a row split recomputes no part. A
/// transferred group's ring rows serve several output rows, so its
/// lone images split groups. Rows split on pool-band boundaries (`p`
/// rows, one row unpooled), so each part finishes whole pooling
/// windows; a map of fewer bands than workers runs fewer parts. Parts
/// are emitted in ascending output-offset order.
fn partition(batch: usize, stage: &StageIr, geo: &Geo, workers: usize) -> Vec<Part> {
    let units = &stage.units;
    let full = Part {
        b0: 0,
        b1: batch,
        u0: 0,
        u1: units.len(),
        plane0: 0,
        plane1: geo.m,
        oy0: 0,
        oy1: geo.e,
    };
    if workers <= 1 || batch == 0 || units.is_empty() {
        return vec![full];
    }
    let mut parts = Vec::new();
    if batch >= workers {
        let mut b0 = 0;
        for len in chunk_lengths(batch, workers) {
            parts.push(Part {
                b0,
                b1: b0 + len,
                ..full
            });
            b0 += len;
        }
    } else if workers / batch > units.len() && units.iter().all(splits_rows) {
        let p = stage.output.pool.unwrap_or(1);
        for (b, share) in chunk_lengths(workers, batch).into_iter().enumerate() {
            let mut oy0 = 0;
            for bands in chunk_lengths(geo.e / p, share) {
                let rows = bands * p;
                parts.push(Part {
                    b0: b,
                    b1: b + 1,
                    oy0,
                    oy1: oy0 + rows,
                    ..full
                });
                oy0 += rows;
            }
        }
    } else {
        for (b, share) in chunk_lengths(workers, batch).into_iter().enumerate() {
            let mut u0 = 0;
            for ulen in chunk_lengths(units.len(), share) {
                let u1 = u0 + ulen;
                parts.push(Part {
                    b0: b,
                    b1: b + 1,
                    u0,
                    u1,
                    plane0: units[u0].plane_range().start,
                    plane1: units[u1 - 1].plane_range().end,
                    ..full
                });
                u0 = u1;
            }
        }
    }
    parts
}

/// Executes one partition: its unit range over its image range, into its
/// disjoint output slice (`[images × planes × plane_len]`, planes
/// rebased to the part's `plane0`).
///
/// Charges accumulate for **one** representative image; the caller
/// replicates them into every image of the part (charges are
/// data-independent, so the replica is exactly what per-image charging
/// would produce).
fn run_part(
    ctx: PartCtx<'_>,
    part: Part,
    out_part: &mut [Accum],
    bufs: &mut KernelBufs,
    charges: &mut Counters,
) {
    if part.images() == 0 {
        // An empty batch: nothing to compute, and no image to charge.
        return;
    }
    for unit in &ctx.stage.units[part.u0..part.u1] {
        debug_assert!(
            part.rows() == ctx.geo.e || splits_rows(unit),
            "only groups that split their rows run output-row parts"
        );
        match unit {
            UnitIr::Sparse { m, taps } => {
                sparse_sweep(ctx, part, taps, *m, out_part, bufs, charges)
            }
            UnitIr::Lanes(group) => group_sweep(ctx, part, group, out_part, bufs, charges),
        }
    }
}

/// Whether `unit` is a group whose output rows a partition may split.
fn splits_rows(unit: &UnitIr) -> bool {
    matches!(unit, UnitIr::Lanes(group) if group.splits_rows())
}

/// Copies every image of `cur` into the flat zero-padded batch plane
/// buffer — the whole batch pads once per stage so the filter-stationary
/// sweep can stride across images.
///
/// The layout is `[N × PH × (B·PW)]`: each padded channel row stores all
/// images' rows back to back, so one contiguous row pass of span
/// `(B−1)·PW + full_w` covers the whole batch.
fn fill_padded_batch(padded: &mut Vec<Fx16>, cur: &[Fx16], batch: usize, geo: &Geo) {
    let Geo {
        n,
        h,
        w,
        pad,
        ph,
        pw,
        ..
    } = *geo;
    padded.clear();
    padded.resize(batch * n * ph * pw, Fx16::ZERO);
    let bw = batch * pw;
    for b in 0..batch {
        for c in 0..n {
            for y in 0..h {
                let src = &cur[((b * n + c) * h + y) * w..][..w];
                let dst = (c * ph + y + pad) * bw + b * pw + pad;
                padded[dst..dst + w].copy_from_slice(src);
            }
        }
    }
}

/// The adder trees' window combine, shared by every executor: the first
/// part copied, each later part added in order (saturating). Parts of
/// different lengths panic in every build: a misaligned schedule must
/// fail, not truncate the window. Callers pass the parts in `ky` order,
/// so the chain matches a one-image run's.
fn combine<'a>(window: &mut Vec<Accum>, parts: impl IntoIterator<Item = &'a [Accum]>) {
    let mut parts = parts.into_iter();
    window.clear();
    window.extend_from_slice(parts.next().unwrap_or_default());
    for part in parts {
        assert_eq!(part.len(), window.len(), "window parts must align");
        for (acc, &p) in window.iter_mut().zip(part) {
            *acc += p;
        }
    }
}

/// Emits output row `oy` of plane `m` (rebased to the part's plane and
/// row ranges) for every image of a part from one batch-wide window:
/// image `bi`'s lane starts at `bi·PW`, its output slab at `bi·slab`,
/// and the row takes every `s`-th lane position. The gap positions
/// between lanes are never read.
fn emit_rows(out_part: &mut [Accum], window: &[Accum], part: Part, m: usize, oy: usize, geo: &Geo) {
    let (rows, row) = (part.rows(), oy - part.oy0);
    let slab = part.planes() * rows * geo.f;
    for bi in 0..part.images() {
        let lane = &window[bi * geo.pw..];
        let orow = &mut out_part[bi * slab + (m * rows + row) * geo.f..][..geo.f];
        for (ox, slot) in orow.iter_mut().enumerate() {
            *slot = lane[ox * geo.s];
        }
    }
}

/// One compressed-sparse filter's plane for every image of the part at
/// once: per output row and `ky`, the filter's CSR tap pass
/// ([`sparse_band_pass`]) over its `N/groups` rows runs over one
/// contiguous span of the row-interleaved padded buffer covering the
/// whole image range — the filter-stationary inner loop. Each pass is
/// charged the one [`charge_conventional`] closed form a dense filter's
/// row pass is charged: a skipped zero tap is a wall-clock saving, not
/// a counter delta.
///
/// Geometry generality: the filter reads only its own channel band
/// (`cpg` padded channels starting at `(filter/mpg)·cpg`), vertical taps
/// sit at `oy·s + ky·d`, and taps sit at their zero-stuffed offsets in
/// a row of span `KW = d·(K−1)+1` — so grouped, depth-wise, and dilated
/// layers all run this same sweep.
///
/// The span is `(images−1)·PW + full_w`: valid position `x` of image
/// `bi` lives at offset `bi·PW + x` and reads exactly that image's
/// samples in ascending `j` order, so per-image values and saturating
/// addition order are identical to a single-image pass. The `KW−1`
/// positions between consecutive images' lanes mix two images' samples —
/// junk [`emit_rows`] never reads.
///
/// The parts buffer is laid out `[K × row_span]` so one `ky`'s pass is
/// one contiguous accumulator run.
fn sparse_sweep(
    ctx: PartCtx<'_>,
    part: Part,
    taps: &[Vec<(u16, Fx16)>],
    filter: usize,
    out_part: &mut [Accum],
    bufs: &mut KernelBufs,
    charges: &mut Counters,
) {
    let geo = &ctx.geo;
    let Geo {
        e,
        f,
        k,
        s,
        ph,
        pw,
        d,
        cpg,
        mpg,
        kw,
        ..
    } = *geo;
    let row_span = ctx.row_span(part);
    let bw = ctx.batch * pw;
    let c0 = (filter / mpg) * cpg;
    let KernelBufs { window, parts, .. } = bufs;
    for oy in 0..e {
        parts.clear();
        parts.resize(k * row_span, Accum::ZERO);
        for (ky, acc) in parts.chunks_exact_mut(row_span).enumerate() {
            // Each channel's input span is row_span + KW − 1 = images·PW,
            // which ends exactly at the next image range (or the row's
            // end) — always in bounds of the interleaved row.
            let input = &ctx.padded[(c0 * ph + oy * s + ky * d) * bw + part.b0 * pw..];
            let _ = charge_conventional(k, kw, pw, cpg, charges);
            let rows = &taps[ky * cpg..][..cpg];
            sparse_band_pass(rows, input, ph * bw, acc, ctx.saturation_free);
        }
        combine(window, parts.chunks_exact(row_span));
        // The adder trees combine K window parts only at the F
        // positions emit_rows consumes — the analytic model
        // (NetworkPerf: out_elems · (K−1)) and these counters must
        // agree, pinned by tests/engine_counters.rs. Charged once per
        // part (replicated per image by the caller).
        charges.adds += (k.saturating_sub(1) * f) as u64;
        emit_rows(out_part, window, part, filter - part.plane0, oy, geo);
    }
}

/// Whether padded input row `i` is a padding row: every sample is zero,
/// and so is every part over it (an exact zero sum in either form), so
/// a ring row over it writes its parts as zeros, not computed.
fn padding_row(geo: &Geo, i: usize) -> bool {
    i < geo.pad || i >= geo.pad + geo.h
}

/// The part's emitted positions as offsets into its interleaved rows:
/// image `bi`'s column `ox` reads from `bi·PW + ox·s`.
fn emitted_positions(positions: &mut Vec<usize>, part: Part, geo: &Geo) {
    let Geo { f, s, pw, .. } = *geo;
    positions.clear();
    positions.extend((0..part.images()).flat_map(|bi| (0..f).map(move |ox| bi * pw + ox * s)));
}

/// Emits output row `oy` for every image of a part from one
/// filter-vector window, `[positions × G]` with image `bi`'s column `ox`
/// at position `bi·F + ox`: each `(lane, plane)` pair of a
/// [`LaneWindow`](super::ir::LaneWindow) writes the window's lane into
/// that plane (rebased to the part's plane and row ranges).
fn emit_filters(
    out_part: &mut [Accum],
    window: &[Accum],
    part: Part,
    emits: impl IntoIterator<Item = (usize, usize)>,
    oy: usize,
    geo: &Geo,
) {
    let (rows, row) = (part.rows(), oy - part.oy0);
    let slab = part.planes() * rows * geo.f;
    for (fl, plane) in emits {
        for bi in 0..part.images() {
            let orow = &mut out_part[bi * slab + (plane * rows + row) * geo.f..][..geo.f];
            let lane = window[bi * geo.f * FILTER_GROUP + fl..]
                .iter()
                .step_by(FILTER_GROUP);
            for (slot, &v) in orow.iter_mut().zip(lane) {
                *slot = v;
            }
        }
    }
}

/// One group's planes for every image of the part and each of its output
/// rows ([`LaneGroup`]: dense filters, or an SCNN orbit group's or a DCNN
/// meta group's weight blocks, as lanes) — the one executor of every
/// stage but a sparse one, for both layouts.
///
/// The ring is the software form of ERRR, entire-row result reuse
/// (Section III.C, Figs. 8–9): the output memory system keeps the row
/// results of the last few input rows alive in a ring of PSum memories
/// (MEM0, MEM1, … are cyclically rewritten as Fig. 8's periods
/// advance). A window result for output row `oy` sums row results of
/// input rows `oy..oy+K−1`; as soon as row `i` falls out of every
/// remaining window, its memory is recycled for row `i + K`. Here, per
/// output row `oy`, the rows below its first tap `oy·s` leave the ring
/// (no later window reads them), and each input row a window reads and
/// the ring lacks is filled ([`fill_ring_row`]) into a recycled buffer
/// and inserted. So each input row's parts are computed once, and the
/// ring holds at most `(K−1)·d + 1` rows: `K` at dilation 1, where a
/// dilated output row's taps interleave with its neighbours'. Per output row each of the group's windows
/// combines `K` ring parts through the one window [`combine`] in `ky`
/// order — rows `first + ky`, or flipped for ERRR's vertically mirrored
/// members — and emits its `(lane, plane)` pairs. The layouts differ
/// only in how a ring row is filled and a window emitted:
///
/// * [`Layout::Rows`]: a lane's part is one batch-wide stream,
///   `(images−1)·PW + full_w` long with image `bi`'s lane at `bi·PW`;
///   each emit combines its own lane's streams (the inter-image junk
///   positions too, never emitted) and [`emit_rows`] slices each image's
///   lane.
/// * [`Layout::Lanes`]: a part is `[positions × G]`, at the part's
///   emitted positions only; each window combines once and
///   [`emit_filters`] writes its lanes.
///
/// Either way each lane's part is the sum its weight rows make at those
/// positions in the reference order, so per image the values equal a
/// one-image run's. Charges are one image's, summed over the members at
/// compile time: the group's `row_charge` per ring row filled, its
/// `window_charge` per output row — dense groups charge only the latter,
/// which is why their output rows may split between workers
/// ([`partition`]) while a transferred group's may not.
fn group_sweep(
    ctx: PartCtx<'_>,
    part: Part,
    group: &LaneGroup,
    out_part: &mut [Accum],
    bufs: &mut KernelBufs,
    charges: &mut Counters,
) {
    let geo = &ctx.geo;
    let Geo { k, s, d, .. } = *geo;
    let KernelBufs {
        window,
        positions,
        ring,
        ring_pool,
        ..
    } = bufs;
    // A ring row holds `lanes × rows × offsets` parts of `len`
    // accumulators; the lane layout's one part spans every lane.
    let len = match group.layout {
        Layout::Rows => ctx.row_span(part),
        Layout::Lanes => {
            emitted_positions(positions, part, geo);
            positions.len() * FILTER_GROUP
        }
    };
    for oy in part.oy0..part.oy1 {
        // Rows below this output row's first tap are read by no later
        // window: their buffers take the rows it lacks.
        let mut at = 0;
        while at < ring.len() {
            if ring[at].0 < oy * s {
                ring_pool.extend(ring.remove(at).map(|(_, parts)| parts));
            } else {
                at += 1;
            }
        }
        for ky in 0..k {
            let i = oy * s + ky * d;
            if ring.iter().any(|&(row, _)| row == i) {
                continue;
            }
            let mut parts = ring_pool.pop().unwrap_or_default();
            fill_ring_row(ctx, part, group, i, positions, len, &mut parts);
            *charges += group.row_charge;
            ring.push_back((i, parts));
        }
        for w in &group.windows {
            // Window part ky of `lane`: its row at offset call
            // `read.variant` in ring row `oy·s + ky·d`.
            let part_of = |lane: usize, ky: usize| {
                let i = oy * s + ky * d;
                let (_, parts) = ring
                    .iter()
                    .find(|&&(row, _)| row == i)
                    .expect("row still resident within the window");
                let at = group.part(lane, w.read.row(k, ky), w.read.variant);
                &parts[at * len..][..len]
            };
            match group.layout {
                Layout::Rows => {
                    for &(lane, plane) in &w.emits {
                        combine(window, (0..k).map(|ky| part_of(lane, ky)));
                        emit_rows(out_part, window, part, plane - part.plane0, oy, geo);
                    }
                }
                Layout::Lanes => {
                    combine(window, (0..k).map(|ky| part_of(0, ky)));
                    let emits = w
                        .emits
                        .iter()
                        .map(|&(lane, plane)| (lane, plane - part.plane0));
                    emit_filters(out_part, window, part, emits, oy, geo);
                }
            }
        }
        *charges += group.window_charge;
    }
    // Hand the ring's buffers back to the pool, where the arena's
    // high-water shrink sees them.
    ring_pool.extend(ring.drain(..).map(|(_, parts)| parts));
}

/// Fills `parts` with padded input row `i`'s ring row of `group` for
/// `part`: each part of `len` accumulators (lane, weight row `r`, offset
/// call `dx`, weights from column `dx·d`, at [`LaneGroup::part`]) that
/// some window reads at an output row of the part, and no other — at
/// stride 1 a dense group's edge rows, at larger strides most rows, hold
/// parts no window reads. Reading part `r` at window row `ky` means
/// output row `(i − ky·d)/s`, which must be whole and inside the part's
/// `oy0..oy1`. A [`padding_row`]'s parts are written as zeros; every
/// other part is one [`row_sweep`] of the lane's channel band in the
/// row layout, or one [`correlate_filters`] call across every lane at
/// `positions` in the lane layout. A part not computed keeps whatever
/// the buffer held, and no window reads it: skipping it saves wall time
/// and changes no counter, which charge the closed forms.
fn fill_ring_row(
    ctx: PartCtx<'_>,
    part: Part,
    group: &LaneGroup,
    i: usize,
    positions: &[usize],
    len: usize,
    parts: &mut Vec<Accum>,
) {
    let Geo {
        s,
        ph,
        pw,
        d,
        cpg,
        mpg,
        kw,
        ..
    } = ctx.geo;
    let bw = ctx.batch * pw;
    let table = &ctx.stage.rows[group.base..];
    let (rows, offsets) = (group.rows, group.offsets);
    // Lane l's row r of channel c sits at at(l, c·rows + r, 0):
    // consecutive channels' first tap rows are at(0, rows, 0) apart; its
    // input row one padded plane after channel c − 1's, from the group's
    // channel band on.
    let at = |lane: usize, row: usize, col: usize| {
        tap(group.layout.width(), cpg * rows, group.cols, lane, row, col)
    };
    let band = Band {
        channels: cpg,
        width: kw,
        w_stride: at(0, rows, 0),
        in_stride: ph * bw,
    };
    let c0 = group.m0 / mpg * cpg;
    let input = &ctx.padded[(c0 * ph + i) * bw + part.b0 * pw..];
    let padding = padding_row(&ctx.geo, i);
    let read_at = |ky: usize| {
        i.checked_sub(ky * d)
            .is_some_and(|t| t % s == 0 && (part.oy0..part.oy1).contains(&(t / s)))
    };
    parts.resize(group.reads.len() * len, Accum::ZERO);
    for (at_part, (acc, kys)) in parts.chunks_exact_mut(len).zip(&group.reads).enumerate() {
        if !kys.iter().any(|&ky| read_at(ky)) {
            continue;
        }
        let (lane, r, dx) = (
            at_part / (rows * offsets),
            at_part / offsets % rows,
            at_part % offsets,
        );
        match group.layout {
            _ if padding => acc.fill(Accum::ZERO),
            Layout::Rows => {
                // The row sweep accumulates into zeros.
                acc.fill(Accum::ZERO);
                row_sweep(
                    ctx.stage.kernel,
                    band,
                    part.images(),
                    input,
                    pw,
                    [(&table[at(lane, r, dx * d)..], acc)],
                    ctx.saturation_free,
                );
            }
            // The filter-vector pass overwrites every live lane.
            Layout::Lanes => correlate_filters(
                &table[at(0, r, dx * d)..],
                input,
                band,
                positions,
                group.live,
                acc,
                ctx.saturation_free,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FunctionalNetwork;
    use std::ops::Range;
    use tfe_transfer::analysis::ReuseConfig;
    use tfe_transfer::mode::ModePolicy;
    use tfe_transfer::TransferScheme;

    fn det(seed: &mut u32) -> f32 {
        *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        (((*seed >> 20) & 0xf) as f32 - 7.5) / 8.0
    }

    fn image(dims: [usize; 4], seed: &mut u32) -> Tensor4<Fx16> {
        Tensor4::from_fn(dims, |_| Fx16::from_f32(det(seed)))
    }

    fn small_engine(seed: &mut u32) -> Engine {
        let shapes = vec![
            (LayerShape::conv("p1", 1, 8, 8, 8, 3, 1, 1).unwrap(), true),
            (LayerShape::conv("p2", 8, 8, 4, 4, 3, 1, 1).unwrap(), false),
        ];
        let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(seed)).unwrap();
        Engine::compile(&net, ReuseConfig::FULL).unwrap()
    }

    /// `run_packed` against per-input `Engine::run`: activations and
    /// counters, in input order.
    fn assert_packed_matches_per_input_runs(engine: &Engine, inputs: &[Tensor4<Fx16>]) {
        let mut scratch = Scratch::new();
        let want: Vec<NetworkOutput> = inputs
            .iter()
            .map(|input| engine.run(input, &mut scratch).unwrap())
            .collect();
        let refs: Vec<&Tensor4<Fx16>> = inputs.iter().collect();
        let got = engine.run_packed(&refs, &mut scratch).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.activations, w.activations);
            assert_eq!(g.counters, w.counters);
        }
    }

    #[test]
    fn packed_inputs_keep_their_leading_dim_sub_ranges() {
        let mut seed = 29;
        let engine = small_engine(&mut seed);
        let inputs: Vec<_> = [2, 1, 3]
            .into_iter()
            .map(|b| image([b, 1, 8, 8], &mut seed))
            .collect();
        assert_packed_matches_per_input_runs(&engine, &inputs);
    }

    #[test]
    fn stageless_engine_runs_mixed_geometries_one_at_a_time() {
        let mut seed = 31;
        let net = FunctionalNetwork::new(vec![]).unwrap();
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let inputs = vec![
            image([1, 1, 8, 8], &mut seed),
            image([2, 3, 4, 5], &mut seed),
            image([1, 1, 8, 8], &mut seed),
        ];
        assert_packed_matches_per_input_runs(&engine, &inputs);
    }

    #[test]
    fn lone_input_matches_run() {
        let mut seed = 37;
        let engine = small_engine(&mut seed);
        assert_packed_matches_per_input_runs(&engine, &[image([1, 1, 8, 8], &mut seed)]);
        assert!(engine
            .run_packed(&[], &mut Scratch::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn first_geometry_mismatch_in_input_order_is_reported() {
        let mut seed = 41;
        let engine = small_engine(&mut seed);
        let inputs = [
            image([1, 1, 8, 8], &mut seed),
            image([1, 1, 8, 7], &mut seed),
            image([1, 2, 8, 8], &mut seed),
        ];
        let refs: Vec<&Tensor4<Fx16>> = inputs.iter().collect();
        let err = engine.run_packed(&refs, &mut Scratch::new());
        assert!(matches!(
            err,
            Err(SimError::OperandMismatch {
                what: "input width",
                expected: 8,
                actual: 7,
            })
        ));
    }

    #[test]
    #[should_panic(expected = "window parts must align")]
    fn combine_rejects_misaligned_parts() {
        let a = [Accum::from_bits(256), Accum::from_bits(512)];
        let b = [Accum::from_bits(128)];
        combine(&mut Vec::new(), [&a[..], &b[..]]);
    }

    /// How one stage's work splits: a lone image of a dense stage with
    /// fewer groups than its workers splits its output rows; every other
    /// stage splits units or batch chunks, all rows.
    #[test]
    fn lone_images_of_few_filter_groups_split_output_rows() {
        let split = |m: usize, batch: usize, workers: usize, policy: &ModePolicy| {
            let shape = LayerShape::conv("part", 4, m, 6, 6, 3, 1, 1).unwrap();
            let mut seed = 5u32;
            let net = FunctionalNetwork::new(vec![crate::network::FunctionalStage {
                shape: shape.clone(),
                weights: tfe_transfer::layer::TransferredLayer::Dense {
                    weights: Tensor4::from_fn([m, 4, 3, 3], |_| det(&mut seed)),
                },
                bias: Vec::new(),
                output: crate::output::OutputConfig::RELU_ONLY,
            }])
            .unwrap();
            let engine = Engine::compile_with_policy(&net, ReuseConfig::FULL, policy).unwrap();
            partition(batch, &engine.stages[0], &Geo::of(&shape), workers)
                .iter()
                .map(|p| (p.b0, p.u0..p.u1, p.plane0..p.plane1, p.oy0..p.oy1))
                .collect::<Vec<_>>()
        };
        let dense = &ModePolicy::DenseOnly;
        // One 32-filter group, one image, two workers: three rows each.
        assert_eq!(
            split(32, 1, 2, dense),
            [(0, 0..1, 0..32, 0..3), (0, 0..1, 0..32, 3..6)]
        );
        // Two groups: two workers take one group each; three split the
        // rows, every part running both groups.
        assert_eq!(
            split(64, 1, 2, dense),
            [(0, 0..1, 0..32, 0..6), (0, 1..2, 32..64, 0..6)]
        );
        assert_eq!(
            split(64, 1, 3, dense),
            [
                (0, 0..2, 0..64, 0..2),
                (0, 0..2, 0..64, 2..4),
                (0, 0..2, 0..64, 4..6)
            ]
        );
        // Every image of a batch splits its rows, or none does.
        assert_eq!(
            split(32, 2, 4, dense),
            [
                (0, 0..1, 0..32, 0..3),
                (0, 0..1, 0..32, 3..6),
                (1, 0..1, 0..32, 0..3),
                (1, 0..1, 0..32, 3..6)
            ]
        );
        assert_eq!(
            split(32, 2, 3, dense),
            [(0, 0..1, 0..32, 0..6), (1, 0..1, 0..32, 0..6)]
        );
        // The row sweep and the sparse pass keep unit runs: a forced
        // sparse stage has one unit per filter.
        assert_eq!(
            split(8, 1, 2, dense),
            [(0, 0..4, 0..4, 0..6), (0, 4..8, 4..8, 0..6)]
        );
        assert_eq!(
            split(32, 1, 2, &ModePolicy::ForceSparse),
            [(0, 0..16, 0..16, 0..6), (0, 16..32, 16..32, 0..6)]
        );
    }

    /// A one-stage dense network of `m` biased filters over `4 × hw × hw`
    /// inputs, with ReLU and a `p × p` pool.
    fn pooled_stage(m: usize, hw: usize, p: usize) -> Engine {
        let shape = LayerShape::conv("pooled", 4, m, hw, hw, 3, 1, 1).unwrap();
        let mut seed = 11u32 ^ m as u32;
        let net = FunctionalNetwork::new(vec![crate::network::FunctionalStage {
            shape,
            weights: tfe_transfer::layer::TransferredLayer::Dense {
                weights: Tensor4::from_fn([m, 4, 3, 3], |_| det(&mut seed)),
            },
            bias: (0..m).map(|_| det(&mut seed)).collect(),
            output: crate::output::OutputConfig {
                relu: true,
                pool: Some(p),
            },
        }])
        .unwrap();
        Engine::compile_with_policy(&net, ReuseConfig::FULL, &ModePolicy::DenseOnly).unwrap()
    }

    /// How a one-stage engine's work splits: `(image, units, rows)`.
    fn parts_of(
        engine: &Engine,
        batch: usize,
        workers: usize,
    ) -> Vec<(usize, Range<usize>, Range<usize>)> {
        let stage = &engine.stages[0];
        partition(batch, stage, &Geo::of(&stage.shape), workers)
            .iter()
            .map(|p| (p.b0, p.u0..p.u1, p.oy0..p.oy1))
            .collect()
    }

    /// `run_batched` at `workers` against `Engine::run` image by image:
    /// activations and per-image counters.
    fn assert_matches_runs(engine: &Engine, input: &Tensor4<Fx16>, workers: usize, label: &str) {
        let mut scratch = Scratch::new();
        let got = engine.run_batched(input, &mut scratch, workers).unwrap();
        let [batch, c, h, w] = input.dims();
        for b in 0..batch {
            let one = Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| input.get([b, ci, y, x]));
            let want = engine.run(&one, &mut scratch).unwrap();
            let [_, oc, oh, ow] = want.activations.dims();
            let mine = Tensor4::from_fn([1, oc, oh, ow], |[_, ci, y, x]| {
                got.activations.get([b, ci, y, x])
            });
            assert_eq!(
                mine, want.activations,
                "{label} workers {workers} image {b}"
            );
            assert_eq!(
                got.per_image[b], want.counters,
                "{label} workers {workers} image {b}"
            );
        }
    }

    /// A lone image of a pooled 32-filter stage splits its output rows
    /// on pool-band boundaries, each part finishing whole windows: at 1–5
    /// workers, on maps of more pool bands than workers and of fewer.
    #[test]
    fn lone_images_of_pooled_filter_groups_split_on_pool_bands() {
        let mut seed = 43u32;
        for (hw, p) in [(4, 2), (12, 2), (12, 3)] {
            let engine = pooled_stage(32, hw, p);
            let input = image([1, 4, hw, hw], &mut seed);
            for workers in 1..=5 {
                assert_matches_runs(&engine, &input, workers, &format!("{hw}x{hw} pool {p}"));
            }
        }
        // A 4×4 map has two 2×2 pool bands: three to five workers still
        // run two parts of one band each.
        let engine = pooled_stage(32, 4, 2);
        for workers in 3..=5 {
            assert_eq!(
                parts_of(&engine, 1, workers),
                [(0, 0..1, 0..2), (0, 0..1, 2..4)]
            );
        }
        // Twelve rows in 3×3 bands: four bands over three workers.
        assert_eq!(
            parts_of(&pooled_stage(32, 12, 3), 1, 3),
            [(0, 0..1, 0..6), (0, 0..1, 6..9), (0, 0..1, 9..12)]
        );
    }

    /// A lone image of a pooled row-layout stage (8 filters, one group
    /// each) splits into unit groups, each finishing its own planes.
    #[test]
    fn pooled_row_sweep_stages_split_into_unit_groups() {
        let mut seed = 47u32;
        let engine = pooled_stage(8, 12, 2);
        assert!(matches!(&engine.stages[0].units[0], UnitIr::Lanes(g) if g.layout == Layout::Rows));
        assert_eq!(
            parts_of(&engine, 1, 3),
            [(0, 0..3, 0..12), (0, 3..6, 0..12), (0, 6..8, 0..12)]
        );
        let input = image([1, 4, 12, 12], &mut seed);
        for workers in 1..=5 {
            assert_matches_runs(&engine, &input, workers, "row sweep");
        }
    }

    /// A lone image of a row-layout stage with fewer filters than its
    /// workers splits its output rows like a lane-layout stage: dense
    /// groups recompute nothing across a row split.
    #[test]
    fn lone_images_of_few_row_groups_split_output_rows() {
        let mut seed = 67u32;
        let engine = pooled_stage(2, 12, 2);
        assert_eq!(
            parts_of(&engine, 1, 3),
            [(0, 0..2, 0..4), (0, 0..2, 4..8), (0, 0..2, 8..12)]
        );
        let input = image([1, 4, 12, 12], &mut seed);
        for workers in 1..=5 {
            assert_matches_runs(&engine, &input, workers, "two filters");
        }
    }

    /// Batch chunks finish every plane of their own images, on the row
    /// sweep and the filter-vector sweep alike.
    #[test]
    fn pooled_batch_chunks_finish_their_own_images() {
        let mut seed = 53u32;
        for m in [8, 32] {
            let engine = pooled_stage(m, 12, 2);
            let units = engine.stages[0].units.len();
            assert_eq!(
                parts_of(&engine, 3, 2),
                [(0, 0..units, 0..12), (2, 0..units, 0..12)]
            );
            let input = image([3, 4, 12, 12], &mut seed);
            for workers in 1..=3 {
                assert_matches_runs(&engine, &input, workers, &format!("{m} filters"));
            }
        }
    }

    /// A meta group's row passes do not depend on how many planes it
    /// emits: a partial last DCNN group (4 of 16 filters, every read on
    /// offset row 0) sweeps the rows a full group sweeps, with or
    /// without ERRR, so it is charged the same multiplies, SR writes and
    /// ring writes.
    #[test]
    fn partial_dcnn_groups_sweep_every_window() {
        let charges = |m: usize, reuse: ReuseConfig| {
            let shape = LayerShape::conv("part", 3, m, 8, 8, 3, 1, 1).unwrap();
            let mut seed = 13u32;
            let net = FunctionalNetwork::random(&[(shape, false)], TransferScheme::DCNN6, || {
                det(&mut seed)
            })
            .unwrap();
            let input = image([1, 3, 8, 8], &mut seed);
            let engine = Engine::compile(&net, reuse).unwrap();
            let c = engine.run(&input, &mut Scratch::new()).unwrap().counters;
            (c.multiplies, c.sr_writes, c.psum_mem_writes)
        };
        for reuse in [
            ReuseConfig::FULL,
            ReuseConfig::NONE,
            ReuseConfig::PPSR_ONLY,
            ReuseConfig::ERRR_ONLY,
        ] {
            assert_eq!(charges(20, reuse), charges(32, reuse), "{reuse:?}");
        }
    }

    /// The gate's input factor is the largest magnitude on either side
    /// of zero: a batch whose extreme sample is negative gates exactly
    /// like its mirror image.
    #[test]
    fn saturation_gate_reads_negative_extremes() {
        let shape = LayerShape::conv("gate", 4, 8, 4, 4, 3, 1, 1).unwrap();
        let net = FunctionalNetwork::new(vec![crate::network::FunctionalStage {
            shape: shape.clone(),
            weights: tfe_transfer::layer::TransferredLayer::Dense {
                weights: Tensor4::filled([8, 4, 3, 3], 200.0),
            },
            bias: Vec::new(),
            output: crate::output::OutputConfig::RELU_ONLY,
        }])
        .unwrap();
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let stage = &engine.stages[0];
        assert_eq!(stage.w_abs_max, i64::from(i16::MAX));
        // 4 channels · 3 taps · 32767 · x stays below 2³¹ up to |x| = 5461.
        let gate =
            |x: i16| saturation_free(stage, &Geo::of(&shape), &[Fx16::ZERO, Fx16::from_bits(x)]);
        assert!(gate(5461) && gate(-5461));
        assert!(!gate(5462) && !gate(-5462) && !gate(i16::MIN));
    }

    /// A one-stage engine of `m` filters on `shape`: dense weights, or
    /// `scheme`'s.
    fn one_stage(
        shape: &LayerShape,
        scheme: Option<TransferScheme>,
        reuse: ReuseConfig,
        seed: &mut u32,
    ) -> Engine {
        let net = match scheme {
            Some(scheme) => {
                FunctionalNetwork::random(&[(shape.clone(), false)], scheme, || det(seed))
            }
            None => {
                let (m, n, k) = (shape.m(), shape.n(), shape.k());
                FunctionalNetwork::new(vec![crate::network::FunctionalStage {
                    shape: shape.clone(),
                    weights: tfe_transfer::layer::TransferredLayer::Dense {
                        weights: Tensor4::from_fn([m, n, k, k], |_| det(seed)),
                    },
                    bias: Vec::new(),
                    output: crate::output::OutputConfig::RELU_ONLY,
                }])
            }
        };
        Engine::compile(&net.expect("a valid one-stage network"), reuse).expect("compiles")
    }

    /// Fills every ring row `part` reads, for each group of `engine`'s
    /// one stage over `batch` images, from a buffer whose every part
    /// holds `unread`, and checks the parts the fill overwrote are the
    /// ones some window of the part reads: part `(lane, r, dx)` of
    /// input row `i` where an output row `oy` of the part reads `i` at
    /// window row `ky` (`oy·s + ky·d = i`) through a window whose
    /// `ky`-th row is `r` at offset call `dx`. Returns how many parts
    /// were read and how many skipped.
    fn fill_reads(engine: &Engine, batch: usize, oys: Range<usize>, seed: &mut u32) -> [usize; 2] {
        let unread = Accum::from_bits(0x5a5a_5a5a);
        let stage = &engine.stages[0];
        let geo = Geo::of(&stage.shape);
        let Geo { k, s, d, .. } = geo;
        let input = image([batch, geo.n, geo.h, geo.w], seed);
        let mut padded = Vec::new();
        fill_padded_batch(&mut padded, input.as_slice(), batch, &geo);
        let ctx = PartCtx::new(stage, geo, batch, &padded);
        let part = Part {
            b0: 0,
            b1: batch,
            u0: 0,
            u1: stage.units.len(),
            plane0: 0,
            plane1: geo.m,
            oy0: oys.start,
            oy1: oys.end,
        };
        let mut positions = Vec::new();
        emitted_positions(&mut positions, part, &geo);
        let mut counts = [0; 2];
        for unit in &stage.units {
            let UnitIr::Lanes(group) = unit else {
                panic!("only lane groups fill ring rows");
            };
            let (lanes, len) = match group.layout {
                Layout::Rows => (group.live, ctx.row_span(part)),
                Layout::Lanes => (1, positions.len() * FILTER_GROUP),
            };
            let count = lanes * group.rows * group.offsets;
            let rows: std::collections::BTreeSet<usize> = oys
                .clone()
                .flat_map(|oy| (0..k).map(move |ky| oy * s + ky * d))
                .collect();
            for i in rows {
                let mut read = vec![false; count];
                for ky in (0..k).filter(|&ky| oys.clone().any(|oy| oy * s + ky * d == i)) {
                    for w in &group.windows {
                        for &(lane, _) in &w.emits {
                            let lane = if lanes == 1 { 0 } else { lane };
                            let r = w.read.row(k, ky);
                            read[(lane * group.rows + r) * group.offsets + w.read.variant] = true;
                        }
                    }
                }
                let mut ring_row = vec![unread; count * len];
                fill_ring_row(ctx, part, group, i, &positions, len, &mut ring_row);
                let computed: Vec<bool> = ring_row
                    .chunks_exact(len)
                    .map(|p| p.iter().any(|&a| a != unread))
                    .collect();
                assert_eq!(
                    computed,
                    read,
                    "{:?} {:?} {:?}: output rows {oys:?}, input row {i}",
                    stage.shape,
                    engine.reuse(),
                    group.layout
                );
                for r in read {
                    counts[usize::from(!r)] += 1;
                }
            }
        }
        counts
    }

    /// Each ring row computes exactly the parts some window of its part
    /// reads ([`fill_reads`]). A part computed that no window reads
    /// changes no value and no counter, so no parity suite sees it; here
    /// the fill must overwrite exactly the parts read. Dense rows and
    /// lanes, SCNN rows and lanes, and DCNN4 meta rows, offset lanes and
    /// meta lanes, under every reuse configuration, at `K` = 1, 3 and
    /// 5, stride 1–3, dilation 1–2 and pad 0–2, for whole parts and
    /// output-row parts.
    #[test]
    fn ring_rows_compute_only_the_parts_windows_read() {
        let reuses = [
            ReuseConfig::NONE,
            ReuseConfig::PPSR_ONLY,
            ReuseConfig::ERRR_ONLY,
            ReuseConfig::FULL,
        ];
        // (weights, filters): dense rows and lanes; SCNN rows (8 filters,
        // at most 12 lanes) and lanes (40 filters); DCNN4 meta rows (5
        // meta groups), offset lanes (10: 20 lanes) and meta lanes (32).
        let schemes = [
            (None, 8),
            (None, 20),
            (Some(TransferScheme::Scnn), 8),
            (Some(TransferScheme::Scnn), 40),
            (Some(TransferScheme::DCNN4), 20),
            (Some(TransferScheme::DCNN4), 40),
            (Some(TransferScheme::DCNN4), 128),
        ];
        let geometries = [1, 3, 5].into_iter().flat_map(|k| {
            (1..=3).flat_map(move |s| (1..=2).flat_map(move |d| (0..=2).map(move |p| (k, s, d, p))))
        });
        let mut seed = 61u32;
        let mut counts = [0; 2];
        for (k, s, d, pad) in geometries {
            for (scheme, m) in schemes {
                let Ok(shape) = LayerShape::conv("fill", 2, m, 9, 9, k, s, pad)
                    .and_then(|shape| shape.with_dilation(d))
                else {
                    continue;
                };
                let e = shape.e();
                for reuse in reuses {
                    let engine = one_stage(&shape, scheme, reuse, &mut seed);
                    for oys in [0..e, 0..e / 2, e / 2..e, 1..e.saturating_sub(1)] {
                        if !oys.is_empty() {
                            let [read, skipped] = fill_reads(&engine, 2, oys, &mut seed);
                            counts[0] += read;
                            counts[1] += skipped;
                        }
                    }
                }
            }
        }
        // Both sides were exercised: parts read, and parts skipped.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn chunk_lengths_cover_exactly_without_empties() {
        for len in 0..12usize {
            for chunks in 1..16usize {
                let lengths = chunk_lengths(len, chunks);
                assert_eq!(lengths.iter().sum::<usize>(), len, "{len}/{chunks}");
                assert_eq!(lengths.len(), chunks.min(len), "{len}/{chunks}");
                assert!(lengths.iter().all(|&l| l > 0), "{len}/{chunks}");
                // Balanced: sizes differ by at most one.
                if let (Some(max), Some(min)) = (lengths.iter().max(), lengths.iter().min()) {
                    assert!(max - min <= 1, "{len}/{chunks}");
                }
            }
        }
    }
}
