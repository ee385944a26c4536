//! Prints a digest of the compiled engine's results over a grid of
//! one-stage networks: per cell the executor each stage compiled to, and
//! per run an activation hash and every image's counters.
//!
//! Two trees whose engines differ only in how they execute must print
//! byte-identical digests. The binary uses only the public API, so the
//! same file builds against an older tree for comparison:
//!
//! ```text
//! cargo run --release --offline -p tfe-bench --bin engine_digest > new.txt
//! # in a copy of the older tree, with this file under crates/bench/src/bin/
//! cargo run --release --offline -p tfe-bench --bin engine_digest > old.txt
//! cmp old.txt new.txt
//! ```
//!
//! The grid: dense (under the measured policy), forced-sparse, SCNN,
//! DCNN4 and DCNN6 weights, at filter counts that take the row layout,
//! the lane layout with a partial last group and, for DCNN, offset and
//! meta lanes; dense stages also grouped and depth-wise. Each runs under
//! every reuse configuration, stride and dilation 1 and 2, `K` = 1, 3
//! and 5, same padding and none, unpooled and 2×2-pooled, on quiet data
//! (the wrapping kernels) and on loud data (the saturating ones), at batch /
//! workers 1/1, 1/3 (a lone image split between workers), 3/2 and 5/4.
//! A cell the compile rejects prints its error.

use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::ModePolicy;
use tfe_transfer::TransferScheme;

/// Input height and width of every cell.
const HW: usize = 12;

/// `(batch, workers)` of each run.
const RUNS: [(usize, usize); 4] = [(1, 1), (1, 3), (3, 2), (5, 4)];

/// How a cell's stage is shaped: `(label, channels, filters, groups)`;
/// `groups == channels == filters` is depth-wise.
type Form = (&'static str, usize, usize, usize);

const DENSE_FORMS: [Form; 4] = [
    ("rows", 4, 8, 1),
    ("lanes", 4, 40, 1),
    ("grouped", 8, 16, 2),
    ("depth-wise", 2, 2, 2),
];

/// Deterministic samples in `[-0.5, 0.5)`.
fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
    (*seed >> 16) as f32 / 65536.0 - 0.5
}

/// FNV-1a over the activations' raw bits.
fn hash(values: &[Fx16]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn shape_of(
    (_, n, m, groups): Form,
    k: usize,
    stride: usize,
    d: usize,
    same: bool,
) -> Option<LayerShape> {
    let pad = if same { d * (k - 1) / 2 } else { 0 };
    let shape = if groups == n && groups == m && groups > 1 {
        LayerShape::depthwise("cell", n, HW, HW, k, stride, pad).ok()?
    } else {
        LayerShape::conv("cell", n, m, HW, HW, k, stride, pad)
            .ok()?
            .with_groups(groups)
            .ok()?
    };
    shape.with_dilation(d).ok()
}

fn weights(
    shape: &LayerShape,
    scheme: Option<TransferScheme>,
    amp: f32,
    seed: &mut u32,
) -> Result<TransferredLayer, String> {
    let mut next = || amp * det(seed);
    match scheme {
        None => {
            let (m, c, k) = (shape.m(), shape.channels_per_group(), shape.k());
            Ok(TransferredLayer::Dense {
                weights: Tensor4::from_fn([m, c, k, k], |_| next()),
            })
        }
        Some(scheme) => TransferredLayer::random(shape, scheme, next).map_err(|e| e.to_string()),
    }
}

/// One cell's stage: everything but the form and the weights' scheme.
#[derive(Clone, Copy)]
struct Geometry {
    reuse: ReuseConfig,
    stride: usize,
    d: usize,
    k: usize,
    same: bool,
    pool: Option<usize>,
    amp: f32,
}

/// Every geometry of the grid, in print order.
fn geometries() -> Vec<Geometry> {
    let reuses = [
        ReuseConfig::NONE,
        ReuseConfig::PPSR_ONLY,
        ReuseConfig::ERRR_ONLY,
        ReuseConfig::FULL,
    ];
    let mut cells = Vec::new();
    for reuse in reuses {
        for (stride, d, k) in
            (1..=2).flat_map(|s| (1..=2).flat_map(move |d| [1, 3, 5].map(|k| (s, d, k))))
        {
            for same in [true, false] {
                for pool in [None, Some(2)] {
                    for amp in [1.0, 16.0] {
                        cells.push(Geometry {
                            reuse,
                            stride,
                            d,
                            k,
                            same,
                            pool,
                            amp,
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Compiles one cell and prints its executors, then each run's digest.
fn run_cell(
    (name, scheme, policy): (&str, Option<TransferScheme>, ModePolicy),
    form: Form,
    g: Geometry,
    seed: &mut u32,
    scratch: &mut Scratch,
) {
    let cell = format!(
        "{name} {} {:?} s{} d{} K{} {} pool {:?} amp {}",
        form.0,
        g.reuse,
        g.stride,
        g.d,
        g.k,
        if g.same { "same" } else { "pad 0" },
        g.pool,
        g.amp,
    );
    let Some(shape) = shape_of(form, g.k, g.stride, g.d, g.same) else {
        println!("{cell}: no such geometry");
        return;
    };
    let engine = weights(&shape, scheme, g.amp, seed).and_then(|w| {
        let net = FunctionalNetwork::new(vec![FunctionalStage {
            shape: shape.clone(),
            weights: w,
            bias: (0..shape.m()).map(|_| det(seed)).collect(),
            output: OutputConfig {
                relu: true,
                pool: g.pool,
            },
        }])
        .map_err(|e| e.to_string())?;
        Engine::compile_with_policy(&net, g.reuse, &policy).map_err(|e| e.to_string())
    });
    let engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            println!("{cell}: rejected: {e}");
            return;
        }
    };
    println!("{cell}: {:?}", engine.exec_modes());
    for (batch, workers) in RUNS {
        // Loud data: one sample per image far outside the quiet range.
        let input = Tensor4::from_fn([batch, shape.n(), HW, HW], |[_, c, y, x]| {
            let loud = g.amp > 1.0 && (c, y, x) == (0, HW / 2, HW / 2);
            Fx16::from_f32(if loud { 127.0 } else { det(seed) })
        });
        match engine.run_batched(&input, scratch, workers) {
            Ok(run) => {
                println!(
                    "  b{batch} w{workers} {:?} {:016x}",
                    run.activations.dims(),
                    hash(run.activations.as_slice())
                );
                for (b, counters) in run.per_image.iter().enumerate() {
                    println!("    image {b}: {counters:?}");
                }
            }
            Err(e) => println!("  b{batch} w{workers}: failed: {e}"),
        }
    }
}

fn main() {
    let schemes: [(&str, Option<TransferScheme>, ModePolicy, Vec<Form>); 5] = [
        ("dense", None, ModePolicy::Measured, DENSE_FORMS.to_vec()),
        (
            "sparse",
            None,
            ModePolicy::ForceSparse,
            DENSE_FORMS.to_vec(),
        ),
        (
            "scnn",
            Some(TransferScheme::Scnn),
            ModePolicy::Measured,
            vec![("rows", 4, 12, 1), ("lanes", 4, 72, 1)],
        ),
        (
            "dcnn4",
            Some(TransferScheme::DCNN4),
            ModePolicy::Measured,
            vec![
                ("rows", 4, 20, 1),
                ("offset lanes", 4, 34, 1),
                ("meta lanes", 4, 126, 1),
            ],
        ),
        (
            "dcnn6",
            Some(TransferScheme::DCNN6),
            ModePolicy::Measured,
            vec![("rows", 4, 44, 1), ("offset lanes", 4, 60, 1)],
        ),
    ];
    let mut seed = 0xd16e_u32;
    let mut scratch = Scratch::new();
    for (name, scheme, policy, forms) in schemes {
        for &form in &forms {
            for g in geometries() {
                run_cell((name, scheme, policy), form, g, &mut seed, &mut scratch);
            }
        }
    }
}
