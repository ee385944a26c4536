//! Regenerates Table IV (overall speedup of other methods on ResNet and
//! GoogLeNet).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::table4::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::table4::render(&result));
}
