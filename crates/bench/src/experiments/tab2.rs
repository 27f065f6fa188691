//! Table 2: evaluation platforms.

use sti::prelude::*;

use crate::report::TextTable;

/// Renders the platform capability table (paper Table 2), extended with the
/// calibrated delay-model parameters this reproduction uses.
pub fn run() -> String {
    let mut t = TextTable::new([
        "Platform",
        "Processor",
        "Mem",
        "Flash BW",
        "IO req lat",
        "Layer comp (m=12)",
        "Layer comp (m=3)",
        "Layer IO (32-bit)",
    ]);
    let cfg = ModelConfig::scaled_bert();
    for dev in DeviceProfile::evaluation_platforms() {
        let layer_bytes = cfg.layer_fp32_bytes() as u64;
        t.row([
            dev.name.clone(),
            dev.processor.clone(),
            format!("{}GB", dev.mem_bytes >> 30),
            format!("{:.0}KB/s", dev.flash.bandwidth_bytes_per_sec as f64 / 1e3),
            dev.flash.request_latency.to_string(),
            dev.compute.layer_total(cfg.seq_len, 12, dev.freq).to_string(),
            dev.compute.layer_total(cfg.seq_len, 3, dev.freq).to_string(),
            dev.flash.transfer_delay(layer_bytes).to_string(),
        ]);
    }
    format!(
        "Table 2: platforms in evaluation (device models calibrated to the paper's measured\n\
         IO/compute skew; see sti_device::DeviceProfile on the dimensional scaling).\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn lists_both_platforms() {
        let s = super::run();
        assert!(s.contains("Odroid"));
        assert!(s.contains("Jetson"));
    }
}
