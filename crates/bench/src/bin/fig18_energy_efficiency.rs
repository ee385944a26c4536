//! Regenerates Fig. 18 (energy-efficiency improvement over Eyeriss).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::fig18::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::fig18::render(&result));
}
