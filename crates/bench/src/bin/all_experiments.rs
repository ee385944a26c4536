//! Runs every paper experiment in sequence and prints all tables and
//! figures.
//!
//! Flags: `--quick` shrinks the Table II training run; `--json` emits one
//! machine-readable JSON object with every result instead of the rendered
//! tables.

use serde_json::json;
use tfe_bench::experiments as ex;
use tfe_core::Evaluator;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let as_json = args.iter().any(|a| a == "--json");
    let engine = Evaluator::new();
    let scale = if quick {
        ex::table2::Scale::Quick
    } else {
        ex::table2::Scale::Full
    };
    let table2 = ex::table2::run(scale);
    let table3 = ex::table3::run();
    let fig14 = ex::fig14::run(&engine);
    let fig15 = ex::fig15::run(&engine);
    let fig16 = ex::fig16::run(&engine);
    let fig17 = ex::fig17::run(&engine);
    let table4 = ex::table4::run(&engine);
    let table5 = ex::table5::run(&engine);
    let fig18 = ex::fig18::run(&engine);
    let fig19 = ex::fig19::run();
    let fig20 = ex::fig20::run(&engine);
    let eq = ex::eq_analysis::run();
    let extensions = ex::extensions_table::run();
    let safm = ex::safm_ablation::run();

    if as_json {
        let all = json!({
            "table2": table2,
            "table3": table3,
            "fig14": fig14,
            "fig15": fig15,
            "fig16": fig16,
            "fig17": fig17,
            "table4": table4,
            "table5": table5,
            "fig18": fig18,
            "fig19": fig19,
            "fig20": fig20,
            "eq_analysis": eq,
            "extensions": extensions,
            "safm_ablation": safm,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&all).expect("results serialize")
        );
        return;
    }
    println!("{}", ex::table2::render(&table2));
    println!("{}", ex::table3::render(&table3));
    println!("{}", ex::fig14::render(&fig14));
    println!("{}", ex::fig15::render(&fig15));
    println!("{}", ex::fig16::render(&fig16));
    println!("{}", ex::fig17::render(&fig17));
    println!("{}", ex::table4::render(&table4));
    println!("{}", ex::table5::render(&table5));
    println!("{}", ex::fig18::render(&fig18));
    println!("{}", ex::fig19::render(&fig19));
    println!("{}", ex::fig20::render(&fig20));
    println!("{}", ex::eq_analysis::render(&eq));
    println!("{}", ex::extensions_table::render(&extensions));
    println!("{}", ex::safm_ablation::render(&safm));
}
