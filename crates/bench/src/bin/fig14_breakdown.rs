//! Regenerates Fig. 14 (area and power breakdown of the TFE).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::fig14::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::fig14::render(&result));
}
