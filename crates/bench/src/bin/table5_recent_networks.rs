//! Regenerates Table V (speedups on DenseNet, SqueezeNet and ResANet).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::table5::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::table5::render(&result));
}
