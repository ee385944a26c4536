//! Per-layer profile of one network on the TFE vs Eyeriss: where the
//! cycles go, which layers transfer, and each layer's speedup.
//!
//! ```sh
//! cargo run --release --example layer_profile -- GoogLeNet
//! ```

use tfe::core::{Evaluator, TransferScheme};
use tfe::nets::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "AlexNet".to_owned());
    let network = zoo::by_name(&name).ok_or_else(|| format!("unknown network '{name}'"))?;

    let engine = Evaluator::new();
    let tfe = engine.tfe_perf(&network, TransferScheme::Scnn);
    let eyeriss = engine.eyeriss_perf(&network);

    println!(
        "{} under SCNN on the TFE (vs Eyeriss, normalized PEs)\n",
        network.name()
    );
    println!(
        "{:<24} {:<14} {:>7} {:>12} {:>12} {:>9}",
        "layer", "mode", "util", "tfe cycles", "ey cycles", "speedup"
    );
    for (t, e) in tfe.layers().iter().zip(eyeriss.layers()) {
        // Keep the profile readable on deep networks: skip layers that
        // contribute less than 0.5% of Eyeriss cycles.
        if (e.cycles() as f64) < eyeriss.total_cycles() as f64 * 0.005 {
            continue;
        }
        println!(
            "{:<24} {:<14} {:>6.1}% {:>12} {:>12} {:>8.2}x",
            t.name(),
            format!("{:?}", t.mode()),
            100.0 * t.utilization(),
            t.cycles(),
            e.cycles(),
            e.cycles() as f64 / t.cycles().max(1) as f64,
        );
    }
    println!(
        "\ntotals: tfe {} cycles, eyeriss {} cycles -> overall speedup {:.2}x",
        tfe.total_cycles(),
        eyeriss.total_cycles(),
        eyeriss.total_cycles() as f64 / tfe.total_cycles() as f64,
    );
    Ok(())
}
