//! Weight-repetition (UCNN-style factorized dot-product) execution of
//! one dense unit — Fig. 16's repetition comparator made executable.
//!
//! [`factorized_unit_image`] consumes the compiled [`FactUnitIr`]: the
//! unit's nonzero taps grouped by shared quantized weight value, each
//! tap a precomputed offset into the image-major padded plane at output
//! position `(0, 0)`. Per output row it sums each group's activations
//! once into an `i64` group buffer, multiplies the group sum by its
//! weight, and accumulates the weighted totals — one multiply per
//! unique weight value instead of one per tap.
//!
//! Regrouping additions by value is only exact when nothing can
//! saturate, so the run phase admits this executor **per run** behind
//! the window-level bound `exec::window_saturation_free`
//! (`(N/groups)·K²·max|w|·max|in| < i32::MAX`): under it every dense
//! intermediate — row partial sums, accumulator updates, and the
//! `K−1` window-combine additions alike — is bounded by the absolute
//! sum of all window products, so the dense saturating chain never
//! clamps and equals the exact integer total computed here. When the
//! bound fails the stage falls back to the dense sweep for that run,
//! which is bit-identical by definition.
//!
//! Counters are charged by the caller via
//! [`super::plan::charge_dense_unit_image`] — the executor is pure
//! compute.

use super::ir::Geo;
use super::plan::FactUnitIr;
use super::scratch::KernelBufs;
use tfe_tensor::fixed::{Accum, Fx16};

/// Executes one factorized dense unit over one image-major padded
/// image, writing its ofmap plane (rebased to `plane`) into `out_img`.
pub(crate) fn factorized_unit_image(
    table: &FactUnitIr,
    padded_image: &[Fx16],
    geo: &Geo,
    plane: usize,
    out_img: &mut [Accum],
    bufs: &mut KernelBufs,
) {
    let Geo { e, f, s, pw, .. } = *geo;
    let KernelBufs {
        fact_acc, fact_sum, ..
    } = bufs;
    for oy in 0..e {
        fact_acc.clear();
        fact_acc.resize(f, 0i64);
        let row_shift = oy * s * pw;
        for (w, taps) in &table.groups {
            fact_sum.clear();
            fact_sum.resize(f, 0i64);
            for &off in taps {
                // One bounds check per tap (the row's `f` samples at
                // stride `s`) and a contiguous loop the compiler
                // vectorizes at stride 1: a per-element indexed gather
                // here runs at a speed that follows where the linker
                // places it (±15 % on the dense VGG trunk).
                let src = &padded_image[off as usize + row_shift..][..(f - 1) * s + 1];
                if s == 1 {
                    for (sum, &x) in fact_sum.iter_mut().zip(src) {
                        *sum += i64::from(x.to_bits());
                    }
                } else {
                    for (sum, &x) in fact_sum.iter_mut().zip(src.iter().step_by(s)) {
                        *sum += i64::from(x.to_bits());
                    }
                }
            }
            let wj = i64::from(w.to_bits());
            for (acc, &sum) in fact_acc.iter_mut().zip(fact_sum.iter()) {
                *acc += wj * sum;
            }
        }
        let orow = &mut out_img[(plane * e + oy) * f..][..f];
        for (slot, &total) in orow.iter_mut().zip(fact_acc.iter()) {
            // Exact under the admitting bound: |total| ≤ Σ|products| <
            // i32::MAX, so the cast is lossless and equals the dense
            // saturating chain (which never clamps under the bound).
            *slot = Accum::from_bits(total as i32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ir::{compile_stage, Geo, PrepareStats};
    use super::super::plan::AltUnit;
    use crate::output::OutputConfig;
    use tfe_transfer::analysis::ReuseConfig;
    use tfe_transfer::mode::ModePolicy;

    /// The offset algebra: a tap compiled at output `(0,0)` plus the
    /// worst-case `oy·s·PW + ox·s` shift must stay inside the padded
    /// image — the bound the per-row executor loop relies on.
    #[test]
    fn tap_offsets_stay_inside_the_padded_image() {
        let shape = tfe_tensor::shape::LayerShape::conv("c", 2, 2, 9, 9, 3, 2, 1)
            .unwrap()
            .with_dilation(2)
            .unwrap();
        let geo = Geo::of(&shape);
        let weights = tfe_tensor::tensor::Tensor4::from_fn([2, 2, 3, 3], |[m, c, y, x]| {
            (m + c + y + x) as f32 * 0.25
        });
        let layer = tfe_transfer::layer::TransferredLayer::Dense { weights };
        let mut stats = PrepareStats::default();
        let stage = compile_stage(
            &shape,
            &layer,
            &[],
            OutputConfig::RELU_ONLY,
            ReuseConfig::FULL,
            &mut stats,
            &ModePolicy::FORCE_FACTORIZED,
        )
        .unwrap();
        let img_len = geo.n * geo.ph * geo.pw;
        assert!(
            !stage.plan.units.is_empty(),
            "forced factorized plan has tables"
        );
        for unit in &stage.plan.units {
            let AltUnit::Fact(table) = unit else {
                panic!("forced factorized plan holds factorized tables")
            };
            for (_, taps) in &table.groups {
                for &off in taps {
                    let worst = off as usize + (geo.e - 1) * geo.s * geo.pw + (geo.f - 1) * geo.s;
                    assert!(worst < img_len, "tap offset {off} escapes the image");
                }
            }
        }
    }
}
