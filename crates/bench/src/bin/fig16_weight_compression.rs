//! Regenerates Fig. 16 (comparison with weight-compression methods on
//! AlexNet).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::fig16::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::fig16::render(&result));
}
