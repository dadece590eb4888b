//! `zero_bench compare A.json B.json`: judges B against A, one row per
//! workload × end-to-end metric, by the bounds the benchmark fixes.

use serde_json::Value;

use crate::report::{Workload, END_TO_END};
use crate::stats::iqr_share;

/// Counts that repeat exactly between runs of one commit at one seed and
/// `--seconds`; `compare` says whether they did.
pub const EXACT: [&str; 4] = [
    "peak_device_bytes",
    "comm.bytes_per_step",
    "serve.batch_steps",
    "serve.prefix_hit_rate",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Worse,
    /// A's own repeats spread wider than the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` is the base (its median and its own repeats),
/// `b` the candidate's median.
pub fn judge(a: f64, a_repeats: &[f64], b: f64, higher_is_better: bool, bound: f64) -> Verdict {
    if iqr_share(a_repeats) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn metric<'a>(doc: &'a Value, workload: &str, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)
}

fn values(metric: &Value) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Value::as_array)
        .map_or(Vec::new(), |v| v.iter().filter_map(Value::as_f64).collect())
}

/// Compares two `--out` documents; returns the table and whether any row
/// is `worse`.
///
/// # Errors
/// A workload or end-to-end metric missing from either document.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>6} {:>7}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    let mut any_worse = false;
    for w in Workload::ALL {
        for spec in &END_TO_END {
            let get = |doc, label| {
                metric(doc, w.name(), spec.name)
                    .and_then(|m| Some((m.get("value")?.as_f64()?, values(m))))
                    .ok_or_else(|| format!("{label} has no {} for {}", spec.name, w.name()))
            };
            let ((av, a_repeats), (bv, _)) = (get(a, "A")?, get(b, "B")?);
            let bound = spec.bound.expect("end-to-end metrics have bounds");
            let verdict = judge(av, &a_repeats, bv, spec.higher_is_better, bound);
            any_worse |= verdict == Verdict::Worse;
            table.push_str(&format!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>6.2} {:>7.4}  {}\n",
                w.name(),
                spec.name,
                av,
                bv,
                bv / av,
                bound,
                iqr_share(&a_repeats),
                verdict.name()
            ));
        }
    }
    table.push_str("\nexact counts (same commit, seed and --seconds must repeat):\n");
    for w in Workload::ALL {
        for name in EXACT {
            // `n` = 0 marks a metric that does not apply to the workload.
            let value = |doc| {
                metric(doc, w.name(), name)
                    .filter(|m| m.get("n").and_then(Value::as_u64) != Some(0))?
                    .get("value")?
                    .as_f64()
            };
            if let (Some(av), Some(bv)) = (value(a), value(b)) {
                let same = if av == bv { "same" } else { "differs" };
                table.push_str(&format!(
                    "{:<14} {:<24} {:>16} {:>16}  {same}\n",
                    w.name(),
                    name,
                    av,
                    bv
                ));
            }
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2];
        // Lower is better: +5 % is inside a 10 % bound, +12 % is not.
        assert_eq!(judge(100.0, &steady, 105.0, false, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, &steady, 112.0, false, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, &steady, 50.0, false, 0.10), Verdict::Ok);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(100.0, &steady, 88.0, true, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, &steady, 112.0, true, 0.10), Verdict::Ok);
        // A's own repeats spread past the bound: unresolved, not unchanged.
        assert_eq!(
            judge(100.0, &[80.0, 100.0, 120.0, 140.0], 101.0, false, 0.10),
            Verdict::Unresolved
        );
        // One repeat shows no spread, so the bound alone decides.
        assert_eq!(judge(100.0, &[100.0], 101.0, false, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, &[100.0], 100.0, false, 0.0), Verdict::Ok);
    }
}
