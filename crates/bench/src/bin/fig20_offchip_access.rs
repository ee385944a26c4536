//! Regenerates Fig. 20 (off-chip memory access reduction).

use tfe_core::Evaluator;

fn main() {
    let result = tfe_bench::experiments::fig20::run(&Evaluator::new());
    print!("{}", tfe_bench::experiments::fig20::render(&result));
}
