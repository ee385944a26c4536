//! Survey: sweep all seven benchmark networks under all three transfer
//! schemes and print a dashboard of speedup, compression, off-chip saving
//! and energy efficiency — the numbers a deployment study would start
//! from.
//!
//! ```sh
//! cargo run --release --example accelerator_survey
//! ```

use tfe::core::{Evaluator, TransferScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Evaluator::new();
    let networks = [
        "AlexNet",
        "VGGNet",
        "GoogLeNet",
        "ResNet",
        "DenseNet",
        "SqueezeNet",
        "ResANet",
    ];
    println!(
        "{:<11} {:<8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "network", "scheme", "conv x", "overall x", "param x", "offchip x", "EE x"
    );
    for net in networks {
        for scheme in [
            TransferScheme::DCNN4,
            TransferScheme::DCNN6,
            TransferScheme::Scnn,
        ] {
            let r = engine.run_network(net, scheme)?;
            println!(
                "{:<11} {:<8} {:>9.2} {:>9.2} {:>8.2} {:>9.2} {:>9.2}",
                r.network,
                r.scheme,
                r.conv_speedup,
                r.overall_speedup,
                r.param_reduction,
                r.offchip_reduction,
                r.energy_efficiency,
            );
        }
    }
    println!("\n(speedups and energy efficiency are relative to the Eyeriss baseline)");
    Ok(())
}
