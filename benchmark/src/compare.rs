//! `compare A B`: two sets of runs side by side. A set is a file of
//! records, one per line, as `run --out FILE` appends them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::spec::{self, Better, Kind};
use crate::stats;

/// One run's record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Renders the record line `run --out` appends.
pub fn record_line(workload: &str, seed: u64, trace: bool, result_json: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result_json}}}",
        u8::from(trace)
    )
}

/// Parses a set of records (blank lines ignored).
///
/// # Errors
///
/// Names the first line that is not a record.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |why: &str| format!("line {}: {why}", n + 1);
        let v = json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or_else(|| bad("no workload"))?;
        let seed = v.get("seed").and_then(Value::as_f64).ok_or_else(|| bad("no seed"))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        let metrics = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record { workload: workload.to_string(), seed: seed as u64, metrics });
    }
    Ok(out)
}

/// How one metric of one workload compares between the sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Simulated values equal seed by seed, or host medians within bound.
    Same,
    /// A simulated value or count differs for some seed both sets ran.
    SimDiffers,
    /// B's host median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread exceeds the bound and the sets' ranges overlap:
    /// the data cannot tell.
    Unresolved,
    /// Host metric without a bound (per-layer): shown, not judged.
    Shown,
}

/// The comparison report and whether it passed (no `SimDiffers`, no
/// `Regressed`).
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    for w in &spec::WORKLOADS {
        let (ra, rb): (Vec<&Record>, Vec<&Record>) = (
            a.iter().filter(|r| r.workload == w.name).collect(),
            b.iter().filter(|r| r.workload == w.name).collect(),
        );
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {} ({} vs {} runs)", w.name, ra.len(), rb.len());
        for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metrics.get(m.name).copied()).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = match (m.kind, m.bound) {
                (Kind::Sim, _) => {
                    let by_seed = |rs: &[&Record]| -> BTreeMap<u64, Vec<u64>> {
                        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                        for r in rs {
                            if let Some(v) = r.metrics.get(m.name) {
                                map.entry(r.seed).or_default().push(v.to_bits());
                            }
                        }
                        map
                    };
                    let (sa, sb) = (by_seed(&ra), by_seed(&rb));
                    let differs = sa.iter().any(|(seed, xs)| {
                        xs.iter().any(|x| x != &xs[0])
                            || sb.get(seed).is_some_and(|ys| ys.iter().any(|y| y != &xs[0]))
                    });
                    if differs {
                        Verdict::SimDiffers
                    } else {
                        Verdict::Same
                    }
                }
                (Kind::Host, None) => Verdict::Shown,
                (Kind::Host, Some(bound)) => {
                    let (ma, mb) = (stats::median(&va), stats::median(&vb));
                    let worse = match m.better {
                        Better::Lower => mb - ma,
                        Better::Higher => ma - mb,
                    } / ma.abs().max(f64::MIN_POSITIVE);
                    let noisy = stats::spread(&va) > bound || stats::spread(&vb) > bound;
                    let (lo_a, hi_a) = range(&va);
                    let (lo_b, hi_b) = range(&vb);
                    let disjoint = hi_a < lo_b || hi_b < lo_a;
                    if noisy && !disjoint {
                        Verdict::Unresolved
                    } else if worse > bound {
                        Verdict::Regressed
                    } else {
                        Verdict::Same
                    }
                }
            };
            pass &= !matches!(verdict, Verdict::SimDiffers | Verdict::Regressed);
            let _ = writeln!(
                out,
                "{:<40} {:<9} A {} | B {} | {:?}",
                m.name,
                m.unit,
                summary(&va),
                summary(&vb),
                verdict
            );
        }
    }
    (out, pass)
}

fn range(v: &[f64]) -> (f64, f64) {
    v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn summary(v: &[f64]) -> String {
    match stats::quartiles(v) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}]", stats::median(v), q1, q3),
        None => format!("{:.6} [single run]", stats::median(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64, host: f64, sim: f64) -> Record {
        Record {
            workload: "solo_stream".into(),
            seed,
            metrics: BTreeMap::from([
                ("setup_s".to_string(), host),
                ("sim_contended_p50_ms".to_string(), sim),
            ]),
        }
    }

    fn bound() -> f64 {
        spec::metric("setup_s").and_then(|m| m.bound).expect("a bounded host metric")
    }

    #[test]
    fn sim_must_match_exactly_and_host_within_bound() {
        let a = vec![rec(1, 100.0, 5.0), rec(2, 101.0, 6.0), rec(3, 99.0, 7.0)];
        let near = 100.0 * (1.0 + bound() / 2.0);
        let same = vec![rec(1, near, 5.0), rec(2, near - 1.0, 6.0), rec(3, near + 1.0, 7.0)];
        assert!(compare(&a, &same).1);
        let sim_moved = vec![rec(1, 100.0, 5.0), rec(2, 100.0, 6.5)];
        let (text, pass) = compare(&a, &sim_moved);
        assert!(!pass && text.contains("SimDiffers"));
        let far = 100.0 * (1.0 + 2.0 * bound());
        let slower = vec![rec(1, far, 5.0), rec(2, far + 1.0, 6.0), rec(3, far - 1.0, 7.0)];
        let (text, pass) = compare(&a, &slower);
        assert!(!pass && text.contains("Regressed"));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let w = 100.0 * 2.0 * bound();
        let a = vec![
            rec(1, 100.0 - w, 5.0),
            rec(2, 100.0, 5.0),
            rec(3, 100.0 + w, 5.0),
            rec(4, 95.0, 5.0),
        ];
        let b = vec![
            rec(1, 90.0, 5.0),
            rec(2, 95.0 + w, 5.0),
            rec(3, 100.0, 5.0),
            rec(4, 105.0 - w, 5.0),
        ];
        let (text, pass) = compare(&a, &b);
        assert!(pass && text.contains("Unresolved"), "{text}");
    }

    #[test]
    fn records_round_trip() {
        let line = record_line(
            "solo_stream",
            7,
            false,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
        );
        let recs = parse_records(&line).unwrap();
        assert_eq!(recs[0].seed, 7);
        assert_eq!(recs[0].metrics["setup_s"], 1.5);
        assert!(parse_records("not json").is_err());
    }
}
