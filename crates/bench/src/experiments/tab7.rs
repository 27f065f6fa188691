//! Table 7: importance-guided vs random bitwidth allocation.
//!
//! The paper's differential study: start from a 5×3 submodel of all-2-bit
//! shards, award an additional IO budget, and spend it upgrading shards to
//! 6-bit — either randomly or in importance order. Same budget, very
//! different accuracy.

use sti::prelude::*;
use sti::TaskContext;
use sti_planner::PlannedLayer;
use sti_tensor::Rng;

use crate::harness;
use crate::report::{pct, TextTable};

const DEPTH: usize = 5;
const WIDTH: usize = 3;
const RANDOM_SEEDS: u64 = 5;

/// The paper's budgets (0.4/2.0/4.0 MB) expressed as 2-bit→6-bit upgrade
/// counts, which transfer across model scales: 0.4 MB buys ~1 upgrade at
/// paper scale, 2.0 ~6, 4.0 ~13 (of 15 shards in the submodel).
const UPGRADES: [usize; 3] = [1, 6, 13];
const PAPER_MB: [f64; 3] = [0.4, 2.0, 4.0];

fn in_submodel(layers: &[PlannedLayer]) -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    for (l, pl) in layers.iter().enumerate() {
        for pos in 0..pl.slices.len() {
            cells.push((l, pos));
        }
    }
    cells
}

fn upgraded(layers: &[PlannedLayer], cells: &[(usize, usize)]) -> Vec<PlannedLayer> {
    let mut out = layers.to_vec();
    for &(l, pos) in cells {
        out[l].bitwidths[pos] = Bitwidth::B6;
    }
    out
}

fn accuracy_random(ctx: &TaskContext, layers: &[PlannedLayer], k: usize) -> f64 {
    let cells = in_submodel(layers);
    let mut total = 0.0;
    for seed in 0..RANDOM_SEEDS {
        let mut rng = Rng::new(0xAB1E + seed);
        let mut pick = cells.clone();
        rng.shuffle(&mut pick);
        pick.truncate(k);
        let (acc, _) = ctx.evaluate_plan(&upgraded(layers, &pick));
        total += acc;
    }
    total / RANDOM_SEEDS as f64
}

fn accuracy_ours(ctx: &TaskContext, layers: &[PlannedLayer], k: usize) -> f64 {
    let importance = ctx.importance();
    let mut chosen = Vec::new();
    for id in importance.ranking() {
        if chosen.len() == k {
            break;
        }
        let l = id.layer as usize;
        if l >= DEPTH {
            continue;
        }
        if let Some(pos) = layers[l].slices.iter().position(|&s| s == id.slice) {
            chosen.push((l, pos));
        }
    }
    let (acc, _) = ctx.evaluate_plan(&upgraded(layers, &chosen));
    acc
}

/// Regenerates Table 7.
pub fn run() -> String {
    let contexts = harness::all_contexts();
    let mut t = TextTable::new({
        let mut h = vec!["Benchmark".to_string(), "Strategy".to_string()];
        for (mb, k) in PAPER_MB.iter().zip(UPGRADES) {
            h.push(format!("{mb}MB (~{k} upg.)"));
        }
        h
    });
    let mut gains = Vec::new();
    for (kind, ctx) in &contexts {
        // The `DEPTH x WIDTH` submodel of the most important slices, all 2-bit.
        let layers = ctx.importance().top_submodel(DEPTH, WIDTH, Bitwidth::B2);
        let mut rand_row = vec![kind.name().to_string(), "Random".to_string()];
        let mut ours_row = vec![String::new(), "Ours".to_string()];
        for k in UPGRADES {
            let r = accuracy_random(ctx, &layers, k);
            let o = accuracy_ours(ctx, &layers, k);
            gains.push((o - r) * 100.0);
            rand_row.push(pct(r));
            ours_row.push(pct(o));
        }
        t.row(rand_row);
        t.row(ours_row);
    }
    let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    let max_gain = gains.iter().fold(f64::MIN, |a, &b| a.max(b));
    format!(
        "Table 7: accuracies (%) from allocating additional IO budget within a {DEPTH}x{WIDTH}\n\
         submodel of 2-bit shards, upgrading shards to 6-bit randomly vs in importance order\n\
         (random averaged over {RANDOM_SEEDS} seeds).\n\n{}\n\
         Importance-guided allocation gains {:.2} pp on average, up to {:.2} pp\n\
         (paper: 8.19 pp average, up to 23.1 pp).\n",
        t.render(),
        mean_gain,
        max_gain
    )
}
