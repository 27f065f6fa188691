//! §2.2 motivation measurements: why existing paradigms fail.

use sti::prelude::*;
use sti_planner::schedule::{sequential_makespan, simulate_pipeline, LayerTiming};

use crate::report::{human_bytes, measured_rss, TextTable};

/// Regenerates the motivating measurements of §2.2 on a DistilBERT-like
/// 6-layer full-width model (paper numbers in parentheses): per-layer IO of
/// 339 ms vs 95 ms compute, >72% pipeline stall, multi-second
/// load-before-execute delay.
pub fn run() -> String {
    let cfg = ModelConfig::distil_like();
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());

    let layer_io = hw.layer_io_delay(&vec![Bitwidth::Full; cfg.heads]);
    let layer_comp = hw.t_comp(cfg.heads);
    let timings = vec![LayerTiming { io: layer_io, comp: layer_comp }; cfg.layers];
    let pipeline = simulate_pipeline(&timings, SimTime::ZERO);
    let sequential = sequential_makespan(&timings);
    let compute_only = layer_comp * cfg.layers as u64;

    let mut t = TextTable::new(["Quantity", "Measured (scaled model)", "Paper (DistilBERT)"]);
    t.row(["per-layer parameter IO", &layer_io.to_string(), "339 ms"]);
    t.row(["per-layer computation", &layer_comp.to_string(), "95 ms"]);
    t.row(["IO/compute skew", &format!("{:.1}x", layer_io.as_ms() / layer_comp.as_ms()), "3.6x"]);
    t.row(["load-before-exec total", &sequential.to_string(), "3.6-3.7 s"]);
    t.row(["  of which IO", &(layer_io * cfg.layers as u64).to_string(), "3.1 s"]);
    t.row(["standard pipeline makespan", &pipeline.makespan.to_string(), "-"]);
    t.row([
        "pipeline compute stall",
        &format!("{:.0}%", pipeline.bubble_fraction() * 100.0),
        ">72%",
    ]);
    t.row(["compute-only lower bound", &compute_only.to_string(), "~0.6 s"]);

    // The memory side of the tension: hold the model, or only its residents.
    let model = Model::synthetic(1, cfg.clone());
    let resident = model.resident_byte_size() as u64;
    let whole = resident + model.sharded_byte_size() as u64;
    t.row(["hold-the-model memory (analytic)", &human_bytes(whole), "-"]);
    t.row(["resident parameters only (analytic)", &human_bytes(resident), "-"]);
    t.row(["this process, model built (measured)", &measured_rss(), "-"]);

    format!(
        "Motivation (§2.2): existing paradigms on a DistilBERT-like 6x12 model, Odroid\n\
         profile. Pipelining alone cannot hide IO: the skew leaves compute stalled most\n\
         of the time.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn reproduces_the_stall_claim() {
        let s = super::run();
        assert!(s.contains("skew"));
    }
}
