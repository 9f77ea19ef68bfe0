//! `perf --compare A.json B.json`: judges result file B against A, one
//! row per (end-to-end metric, workload), by the metric's own direction
//! and bound.

use crate::estimate::spread;
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};

/// How B's median stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Within,
    /// The runs of one file spread wider than the bound: the files
    /// cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges medians `a` → `b` whose runs spread by `noise` (distance
/// between quartiles over median, the wider of the two files).
pub fn judge(def: &MetricDef, a: f64, b: f64, noise: f64) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    if noise > bound {
        return Verdict::Unresolved;
    }
    // Relative change in the direction that hurts.
    let worse_by = match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The value of every run of metric `name` on `workload` in `file`, and
/// their median as recorded.
fn row(file: &Json, workload: &str, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?;
    let runs = m.get("runs").map_or(Vec::new(), |r| {
        r.items().iter().filter_map(Json::num).collect()
    });
    Some((m.get("value")?.num()?, runs))
}

fn failed(file: &Json, workload: &str) -> f64 {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::num)
        .unwrap_or(0.0)
}

/// Prints the comparison table and returns whether B is acceptable: no
/// row worse, and no workload with more failed repetitions.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "noise", "bound"
    );
    for (workload, _) in a.get("workloads").map_or(&[][..], Json::members) {
        for def in END_TO_END {
            let (Some((va, ra)), Some((vb, rb))) =
                (row(a, workload, def.name), row(b, workload, def.name))
            else {
                println!("{workload:<18} {:<18} missing from one file", def.name);
                ok = false;
                continue;
            };
            // Fewer than three runs give no spread to speak of.
            let noise = [&ra, &rb]
                .iter()
                .filter(|r| r.len() >= 3)
                .map(|r| spread(r))
                .fold(0.0, f64::max);
            let verdict = judge(def, va, vb, noise);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {:<18} {va:>14.6} {vb:>14.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                def.name,
                (vb - va) / va.abs() * 100.0,
                noise * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.word()
            );
        }
        let (fa, fb) = (failed(a, workload), failed(b, workload));
        if fb > fa {
            println!("{workload:<18} failed repetitions rose from {fa} to {fb}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        let (bl, bh) = (lower.bound.unwrap(), higher.bound.unwrap());
        assert_eq!(
            judge(lower, 100.0, 100.0 * (1.0 + bl * 1.1), 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(lower, 100.0, 100.0 * (1.0 - bl * 1.1), 0.0),
            Verdict::Better
        );
        assert_eq!(
            judge(lower, 100.0, 100.0 * (1.0 + bl * 0.9), 0.0),
            Verdict::Within
        );
        assert_eq!(
            judge(higher, 100.0, 100.0 * (1.0 - bh * 1.1), 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(higher, 100.0, 100.0 * (1.0 + bh * 1.1), 0.0),
            Verdict::Better
        );
        assert_eq!(judge(lower, 100.0, 200.0, bl * 1.01), Verdict::Unresolved);
    }
}
