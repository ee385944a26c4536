//! Regenerates Fig. 17 (comparison with computation-reduction methods on
//! VGGNet).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::fig17::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::fig17::render(&result));
}
