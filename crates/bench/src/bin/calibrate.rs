//! Calibration check: teacher-agreement accuracy as a function of submodel
//! depth, width, and bitwidth. Used to validate that the synthetic accuracy
//! substrate degrades gracefully along all three elasticity axes before
//! trusting the table/figure reproductions.

use sti::prelude::*;

fn main() {
    let ctx = sti_bench::harness::context(TaskKind::Sst2);
    let importance = ctx.importance();
    let (gold, _) = gold_accuracy(ctx.task());
    println!("gold accuracy: {:.3}\n", gold);

    println!("depth sweep (m=12, full fidelity):");
    for n in [1usize, 2, 3, 4, 6, 8, 10, 12] {
        let (acc, _) = ctx.evaluate_plan(&importance.top_submodel(n, 12, Bitwidth::Full));
        println!("  n={n:<2}  acc={acc:.3}");
    }

    println!("width sweep (n=12, full fidelity):");
    for m in [3usize, 6, 9, 12] {
        let (acc, _) = ctx.evaluate_plan(&importance.top_submodel(12, m, Bitwidth::Full));
        println!("  m={m:<2}  acc={acc:.3}");
    }

    println!("bitwidth sweep (12x12):");
    for bw in Bitwidth::ALL {
        let (acc, _) = ctx.evaluate_plan(&importance.top_submodel(12, 12, bw));
        println!("  {bw:<5} acc={acc:.3}");
    }

    println!("combined (paper-size submodels, 6-bit):");
    for (n, m) in [(5usize, 3usize), (7, 3), (4, 6), (3, 12), (6, 12)] {
        let (acc, _) = ctx.evaluate_plan(&importance.top_submodel(n, m, Bitwidth::B6));
        println!("  {n}x{m:<2}  acc={acc:.3}");
    }
}
