//! Quickstart: evaluate one network under one transfer scheme and print
//! the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- ResNet DCNN6x6
//! ```

use tfe::core::{Evaluator, TransferScheme};

fn parse_scheme(s: &str) -> TransferScheme {
    match s.to_ascii_lowercase().as_str() {
        "dcnn4x4" | "dcnn4" => TransferScheme::DCNN4,
        "dcnn6x6" | "dcnn6" => TransferScheme::DCNN6,
        _ => TransferScheme::Scnn,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let network = args.next().unwrap_or_else(|| "VGGNet".to_owned());
    let scheme = parse_scheme(&args.next().unwrap_or_else(|| "SCNN".to_owned()));

    let engine = Evaluator::new();
    let report = engine.run_network(&network, scheme)?;

    println!("network:                {}", report.network);
    println!("scheme:                 {}", report.scheme);
    println!("conv speedup vs Eyeriss: {:.2}x", report.conv_speedup);
    println!("overall speedup:         {:.2}x", report.overall_speedup);
    println!("conv parameter reduction:{:.2}x", report.param_reduction);
    println!("conv MAC reduction:      {:.2}x", report.conv_mac_reduction);
    println!("off-chip access saving:  {:.2}x", report.offchip_reduction);
    println!("modelled TFE power:      {:.1} mW", report.tfe_power_mw);
    println!(
        "energy efficiency:       {:.2}x Eyeriss",
        report.energy_efficiency
    );
    Ok(())
}
