//! ASCII rendering of pipeline timelines (used by the Figure 1 experiment).

use sti_planner::schedule::SchedulePrediction;
use sti_tensor::math;

/// Renders a timeline as a two-row-per-layer ASCII Gantt chart over
/// simulated time, `width` characters wide:
///
/// ```text
/// L0 io   ████████
/// L0 comp         ▒▒▒
/// L1 io           ████████
/// ...
/// ```
pub fn render_gantt(timeline: &SchedulePrediction, width: usize) -> String {
    if timeline.layers.is_empty() || timeline.makespan.as_us() == 0 {
        return String::from("(empty timeline)\n");
    }
    let span = timeline.makespan.as_us() as f64;
    let scale = |us: u64| math::round((us as f64 / span) * width as f64) as usize;
    let mut out = String::new();
    for (i, l) in timeline.layers.iter().enumerate() {
        let io_a = scale(l.io_start.as_us());
        let io_b = scale(l.io_end.as_us()).max(io_a);
        let c_a = scale(l.comp_start.as_us());
        let c_b = scale(l.comp_end.as_us()).max(c_a);
        out.push_str(&format!(
            "L{i:<2} io   {}{}\n",
            " ".repeat(io_a),
            "#".repeat((io_b - io_a).max(if l.io_end > l.io_start { 1 } else { 0 }))
        ));
        out.push_str(&format!(
            "L{i:<2} comp {}{}\n",
            " ".repeat(c_a),
            "=".repeat((c_b - c_a).max(1))
        ));
    }
    out.push_str(&format!(
        "makespan {}  stall {} ({:.0}% bubbles)\n",
        timeline.makespan,
        timeline.total_stall,
        timeline.bubble_fraction() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_device::SimTime;
    use sti_planner::schedule::{simulate_pipeline, LayerTiming};

    #[test]
    fn renders_rows_per_layer() {
        let t = simulate_pipeline(
            &[
                LayerTiming { io: SimTime::from_ms(30), comp: SimTime::from_ms(10) },
                LayerTiming { io: SimTime::from_ms(30), comp: SimTime::from_ms(10) },
            ],
            SimTime::ZERO,
        );
        let s = render_gantt(&t, 40);
        assert_eq!(s.lines().count(), 5); // 2 layers x 2 rows + summary
        assert!(s.contains('#'));
        assert!(s.contains('='));
        assert!(s.contains("makespan"));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let t = simulate_pipeline(&[], SimTime::ZERO);
        assert!(render_gantt(&t, 40).contains("empty"));
    }

    #[test]
    fn zero_io_layer_has_no_hash_marks() {
        let t = simulate_pipeline(
            &[LayerTiming { io: SimTime::ZERO, comp: SimTime::from_ms(10) }],
            SimTime::ZERO,
        );
        let s = render_gantt(&t, 40);
        let io_row = s.lines().next().unwrap();
        assert!(!io_row.contains('#'), "preloaded layer must show no IO: {io_row}");
    }
}
