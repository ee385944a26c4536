//! The compressed-sparse row pass of one dense filter (EIE-style;
//! Fig. 16's pruned comparators made executable).
//!
//! A pruned dense stage runs the dense sweep (`exec::dense_unit_sweep`)
//! unchanged — same row-interleaved batch layout, same batch-wide span,
//! same window combine, emit, and charges — except that each
//! `(output row, ky)` band pass is [`sparse_band_pass`] instead of the
//! channel-stacked kernel call: each `(ky, ci)` row touches only its
//! surviving `(offset, value)` taps from the compiled
//! [`SparseUnitIr`](super::plan::SparseUnitIr) stream. Bit-identity is
//! **unconditional** (see [`super::plan`]): a
//! zero weight's product is exactly `0` and `saturating_add(x, 0) == x`
//! even at the clamp rails, so eliding zero taps while keeping the dense
//! `(ky, ci, j)` chain order cannot change any accumulator value.
//!
//! Two inner loops, selected by the stage's conservative
//! saturation-free bound (`exec::saturation_free` — the same gate the
//! dense kernel uses):
//!
//! * **wrapping fast path** (bound holds): tap-outer, position-inner —
//!   one survivor's weight is loaded once and streamed across the whole
//!   batch-wide span with wrapping arithmetic. Exact sums are
//!   associative, so the reordering is bit-identical.
//! * **exact fallback**: position-inner with a complete per-row
//!   survivor sum per position, preserving the saturating chain
//!   exactly.

use tfe_tensor::fixed::{Accum, Fx16};

/// Accumulates one `ky` row of every channel of a compressed-sparse
/// filter into `acc`, in ascending channel order: `rows[ci]` holds
/// channel `ci`'s surviving taps (one `ky`'s band of
/// [`SparseUnitIr::rows`](super::plan::SparseUnitIr::rows)), its input
/// row starts at `ci · in_stride` in `input`, and position `x` reads
/// sample `x + j` for each survivor `j`. `acc.len()` is the pass's span
/// (batch-wide in the interleaved layout; the caller sizes it so every
/// read stays inside the rows).
pub(crate) fn sparse_band_pass(
    rows: &[Vec<(u16, Fx16)>],
    input: &[Fx16],
    in_stride: usize,
    acc: &mut [Accum],
    wrapping: bool,
) {
    let span = acc.len();
    for (ci, taps) in rows.iter().enumerate() {
        if taps.is_empty() {
            continue;
        }
        let in_row = &input[ci * in_stride..];
        if wrapping {
            for &(j, w) in taps {
                let wj = i32::from(w.to_bits());
                let seg = &in_row[j as usize..][..span];
                for (slot, &x) in acc.iter_mut().zip(seg) {
                    let prod = i32::from(x.to_bits()).wrapping_mul(wj);
                    *slot = Accum::from_bits(slot.to_bits().wrapping_add(prod));
                }
            }
        } else {
            for (x, slot) in acc.iter_mut().enumerate() {
                let mut sum = Accum::ZERO;
                for &(j, w) in taps {
                    sum += in_row[x + j as usize].widening_mul(w);
                }
                *slot += sum;
            }
        }
    }
}
