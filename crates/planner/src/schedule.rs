//! Analytic pipeline schedule: the timing recurrence of a layerwise
//! IO/compute pipeline.
//!
//! IO jobs execute back-to-back on the single flash channel; layer `k`'s
//! computation starts when both layer `k-1`'s computation and layer `k`'s IO
//! have finished. The gap between those two events is the *pipeline bubble*
//! (compute stall) the paper's planner minimizes.

use sti_device::SimTime;

/// Input timing of one pipeline stage (one layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTiming {
    /// Duration of the layer's IO job (0 if fully preloaded).
    pub io: SimTime,
    /// Duration of the layer's compute job (decompress + execute).
    pub comp: SimTime,
}

/// The computed timeline of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSchedule {
    /// When the layer's IO starts.
    pub io_start: SimTime,
    /// When the layer's IO completes.
    pub io_end: SimTime,
    /// When the layer's computation starts.
    pub comp_start: SimTime,
    /// When the layer's computation completes.
    pub comp_end: SimTime,
    /// Compute idle time immediately before this layer.
    pub stall: SimTime,
}

/// A predicted pipeline execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePrediction {
    /// Per-layer timeline.
    pub layers: Vec<LayerSchedule>,
    /// End-to-end completion time.
    pub makespan: SimTime,
    /// Total compute stall across layers.
    pub total_stall: SimTime,
}

impl SchedulePrediction {
    /// Fraction of the makespan the compute side spent stalled.
    pub fn bubble_fraction(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.total_stall.as_us() as f64 / self.makespan.as_us() as f64
    }

    /// Total busy compute time.
    pub fn compute_time(&self) -> SimTime {
        self.layers.iter().map(|l| l.comp_end - l.comp_start).sum()
    }

    /// Total busy IO time.
    pub fn io_time(&self) -> SimTime {
        self.layers.iter().map(|l| l.io_end - l.io_start).sum()
    }
}

/// Simulates the layerwise pipeline.
///
/// `io_head_start` lets IO begin before `t = 0` conceptually (unused by STI
/// itself, which models preload via reduced layer-0 IO, but useful for
/// what-if analyses); pass [`SimTime::ZERO`] normally.
pub fn simulate_pipeline(timings: &[LayerTiming], io_head_start: SimTime) -> SchedulePrediction {
    let mut layers = Vec::with_capacity(timings.len());
    let mut io_cursor = SimTime::ZERO;
    let mut prev_comp_end = io_head_start;
    let mut total_stall = SimTime::ZERO;
    for t in timings {
        let io_start = io_cursor;
        let io_end = io_start + t.io;
        io_cursor = io_end;
        let comp_start = prev_comp_end.max(io_end);
        let stall = comp_start.saturating_sub(prev_comp_end);
        let comp_end = comp_start + t.comp;
        total_stall += stall;
        layers.push(LayerSchedule { io_start, io_end, comp_start, comp_end, stall });
        prev_comp_end = comp_end;
    }
    let makespan = layers.last().map_or(SimTime::ZERO, |l| l.comp_end);
    SchedulePrediction { layers, makespan, total_stall }
}

/// Makespan of fully sequential load-then-execute (the `Load&Exec`
/// baseline): all IO, then all computation.
pub fn sequential_makespan(timings: &[LayerTiming]) -> SimTime {
    let io: SimTime = timings.iter().map(|t| t.io).sum();
    let comp: SimTime = timings.iter().map(|t| t.comp).sum();
    io + comp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn perfectly_overlapped_pipeline_has_no_stalls_after_warmup() {
        // IO faster than compute: only layer 0 stalls (warmup).
        let timings = vec![LayerTiming { io: ms(10), comp: ms(50) }; 4];
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        assert_eq!(p.layers[0].stall, ms(10));
        for l in &p.layers[1..] {
            assert_eq!(l.stall, SimTime::ZERO);
        }
        assert_eq!(p.makespan, ms(10 + 200));
    }

    #[test]
    fn io_bound_pipeline_stalls_every_layer() {
        // The paper's motivation: IO 339 ms vs compute 95 ms per layer.
        let timings = vec![LayerTiming { io: ms(339), comp: ms(95) }; 6];
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        assert!(p.layers.iter().all(|l| l.stall > SimTime::ZERO));
        // Makespan is IO-dominated: 6×339 + 95.
        assert_eq!(p.makespan, ms(6 * 339 + 95));
        // Computation stalls most of the time (paper: >72%).
        assert!(p.bubble_fraction() > 0.7, "bubble fraction {}", p.bubble_fraction());
    }

    #[test]
    fn zero_io_pipeline_is_pure_compute() {
        let timings = vec![LayerTiming { io: SimTime::ZERO, comp: ms(95) }; 12];
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        assert_eq!(p.makespan, ms(12 * 95));
        assert_eq!(p.total_stall, SimTime::ZERO);
    }

    #[test]
    fn sequential_is_never_faster_than_pipeline() {
        let timings: Vec<LayerTiming> = (0..8)
            .map(|i| LayerTiming { io: ms(20 + i * 7 % 40), comp: ms(30 + i * 13 % 50) })
            .collect();
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        assert!(p.makespan <= sequential_makespan(&timings));
    }

    #[test]
    fn empty_pipeline_is_zero() {
        let p = simulate_pipeline(&[], SimTime::ZERO);
        assert_eq!(p.makespan, SimTime::ZERO);
        assert_eq!(p.bubble_fraction(), 0.0);
    }

    #[test]
    fn mixed_io_times_respect_single_channel() {
        let timings = vec![
            LayerTiming { io: ms(100), comp: ms(10) },
            LayerTiming { io: ms(1), comp: ms(10) },
        ];
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        // Layer 1's IO can only start after layer 0's IO finishes.
        assert_eq!(p.layers[1].io_start, ms(100));
        assert_eq!(p.layers[1].io_end, ms(101));
    }

    #[test]
    fn compute_time_sums_comp_durations() {
        let timings = vec![LayerTiming { io: ms(5), comp: ms(20) }; 3];
        let p = simulate_pipeline(&timings, SimTime::ZERO);
        assert_eq!(p.compute_time(), ms(60));
    }
}
