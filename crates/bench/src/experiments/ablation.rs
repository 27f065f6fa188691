//! Ablations of STI's individual design choices.

use sti::prelude::*;
use sti::{run_experiment, Experiment};
use sti_planner::io_plan::plan_io_greedy_only;
use sti_planner::schedule::{simulate_pipeline, LayerTiming};
use sti_planner::IoPlanInputs;

use sti_quant::UniformBlob;
use sti_tensor::stats;
use sti_transformer::ShardWeights;

use crate::harness;
use crate::report::{pct, TextTable};

/// Ablation 1: the preload buffer (Ours vs Ours-0MB across tasks).
fn preload_ablation() -> String {
    let device = DeviceProfile::odroid_n2();
    let budget = harness::preload_budget_for(&device);
    let mut t = TextTable::new(["Task", "Ours", "Ours-0MB", "delta (pp)"]);
    for (kind, ctx) in harness::all_contexts() {
        let exp = |baseline| Experiment {
            baseline,
            device: device.clone(),
            target: SimTime::from_ms(200),
            preload_bytes: budget,
        };
        let with = run_experiment(&ctx, &exp(Baseline::Sti));
        let without = run_experiment(&ctx, &exp(Baseline::StiNoPreload));
        t.row([
            kind.name().to_string(),
            pct(with.accuracy),
            pct(without.accuracy),
            format!("{:+.1}", (with.accuracy - without.accuracy) * 100.0),
        ]);
    }
    format!("[1] Preload buffer (T = 200 ms, Odroid):\n\n{}", t.render())
}

/// Ablation 2: two-pass allocation (uniform raise + upgrades) vs greedy-only
/// upgrades from the 2-bit floor.
fn two_pass_ablation() -> String {
    let device = DeviceProfile::odroid_n2();
    let budget = harness::preload_budget_for(&device);
    let mut t = TextTable::new(["Task", "two-pass", "greedy-only", "delta (pp)"]);
    for (kind, ctx) in harness::all_contexts() {
        let cfg = ctx.task().model().config().clone();
        let hw = HwProfile::measure(&device, &cfg, ctx.quant());
        let importance = ctx.importance();
        let target = SimTime::from_ms(200);
        let choice = plan_compute(&hw, cfg.layers, target, &DYNABERT_WIDTHS);
        let inputs = IoPlanInputs {
            hw: &hw,
            importance,
            choice,
            target,
            preload_bytes: budget,
            bitwidths: &Bitwidth::ALL,
        };
        let two_pass = plan_io(&inputs);
        let greedy = plan_io_greedy_only(&inputs);
        let (acc_two, _) = ctx.evaluate_plan(&two_pass.layers);
        let (acc_greedy, _) = ctx.evaluate_plan(&greedy.layers);
        t.row([
            kind.name().to_string(),
            pct(acc_two),
            pct(acc_greedy),
            format!("{:+.1}", (acc_two - acc_greedy) * 100.0),
        ]);
    }
    format!("[2] Two-pass bitwidth allocation vs greedy-only (§5.4.3 key idea):\n\n{}", t.render())
}

/// Ablation 3: layer-grain IO jobs vs shard-grain IO jobs (§3.1 claims
/// shard-grain leaves bandwidth underutilized because every request pays the
/// flash latency).
fn io_grain_ablation() -> String {
    let ctx = harness::context(TaskKind::Sst2);
    let cfg = ctx.task().model().config().clone();
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, ctx.quant());
    let mut t =
        TextTable::new(["width m", "layer-grain makespan", "shard-grain makespan", "penalty"]);
    for m in [3usize, 6, 12] {
        let bws = vec![Bitwidth::B6; m];
        let layer_grain = LayerTiming { io: hw.layer_io_delay(&bws), comp: hw.t_comp(m) };
        let shard_grain = LayerTiming {
            io: bws.iter().map(|&bw| hw.flash.request_delay(hw.shard_bytes(bw))).sum(),
            comp: hw.t_comp(m),
        };
        let a = simulate_pipeline(&[layer_grain; 6], SimTime::ZERO).makespan;
        let b = simulate_pipeline(&[shard_grain; 6], SimTime::ZERO).makespan;
        t.row([
            m.to_string(),
            a.to_string(),
            b.to_string(),
            format!("{:+.0}%", (b.as_ms() / a.as_ms() - 1.0) * 100.0),
        ]);
    }
    format!("[3] Layer-grain vs shard-grain IO (6-layer pipeline, 6-bit shards):\n\n{}", t.render())
}

/// Ablation 4: the deeper-on-ties rule of compute planning (§5.3).
fn depth_tie_ablation() -> String {
    let ctx = harness::context(TaskKind::Sst2);
    let importance = ctx.importance();
    // Equal-shard-count candidates: 8x3, 4x6, 2x12 all execute 24 shards.
    let shapes = [(8usize, 3usize), (4, 6), (2, 12)];
    let mut t = TextTable::new(["shape", "shards", "accuracy (6-bit uniform)"]);
    for (n, m) in shapes {
        let (acc, _) = ctx.evaluate_plan(&importance.top_submodel(n, m, Bitwidth::B6));
        t.row([format!("{n}x{m}"), (n * m).to_string(), pct(acc)]);
    }
    format!(
        "[4] Depth-vs-width at equal FLOPs (24 shards, SST-2): the planner's prefer-deeper\n\
         tie-break (§5.3) is justified if deeper shapes score at least as well.\n\n{}",
        t.render()
    )
}

/// Ablation 5: GOBO dictionary quantization vs uniform min-max levels at the
/// same bit budget (§4.2's rationale for the quantizer choice).
fn quantizer_ablation() -> String {
    let ctx = harness::context(TaskKind::Sst2);
    let model = ctx.task().model();
    let cfg = model.config().clone();
    let mut t = TextTable::new(["bitwidth", "GOBO mse", "uniform mse", "GOBO acc", "uniform acc"]);
    // Every shard's full-fidelity weight group, read once from the teacher's
    // source, in `layer·M + slice` order.
    let (mut slot, mut read) = (ShardWeights::zeros(&cfg), model.read_scratch());
    let flats: Vec<Vec<f32>> = cfg
        .shard_ids()
        .map(|id| {
            model.read_shard(id, &mut slot, &mut read);
            slot.flatten()
        })
        .collect();
    for bw in [Bitwidth::B2, Bitwidth::B3, Bitwidth::B4] {
        // Reconstruction error over a whole layer's shards (layer 0).
        let mut gobo_mse = 0.0f64;
        let mut uni_mse = 0.0f64;
        for flat in &flats[..cfg.heads] {
            let gobo = QuantizedBlob::quantize(flat, bw, ctx.quant()).dequantize();
            let uni = UniformBlob::quantize(flat, bw).dequantize();
            gobo_mse += stats::mse(flat, &gobo) as f64;
            uni_mse += stats::mse(flat, &uni) as f64;
        }
        // End-to-end accuracy of the full 12x12 grid at this fidelity.
        let eval = |dequant: &dyn Fn(&[f32]) -> Vec<f32>| -> f64 {
            let mut sub = sti_transformer::AssembledSubmodel::new();
            for layer in flats.chunks_exact(cfg.heads) {
                let shards: Vec<ShardWeights> = layer
                    .iter()
                    .map(|flat| ShardWeights::from_flat(&dequant(flat), &cfg))
                    .collect();
                sub.push_layer((0..cfg.heads).collect(), shards);
            }
            let preds: Vec<usize> = ctx
                .task()
                .test()
                .iter()
                .map(|e| model.predict_assembled(&e.tokens, &sub).0)
                .collect();
            ctx.task().test_accuracy(&preds)
        };
        let quant_cfg = *ctx.quant();
        let gobo_acc = eval(&|flat| QuantizedBlob::quantize(flat, bw, &quant_cfg).dequantize());
        let uni_acc = eval(&|flat| UniformBlob::quantize(flat, bw).dequantize());
        t.row([
            bw.to_string(),
            format!("{:.2e}", gobo_mse / cfg.heads as f64),
            format!("{:.2e}", uni_mse / cfg.heads as f64),
            pct(gobo_acc),
            pct(uni_acc),
        ]);
    }
    format!(
        "[5] GOBO dictionary vs uniform min-max quantization (SST-2, full 12x12 grid):\n\n{}",
        t.render()
    )
}

/// Runs all ablations.
pub fn run() -> String {
    format!(
        "Ablations of STI's design choices.\n\n{}\n{}\n{}\n{}\n{}",
        preload_ablation(),
        two_pass_ablation(),
        io_grain_ablation(),
        depth_tie_ablation(),
        quantizer_ablation()
    )
}
