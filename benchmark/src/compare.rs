//! `benchmark compare <a> <b>`: the benchmark's own rule for "did this
//! number change", so nobody hand-rolls it.
//!
//! `<a>` is the parent, `<b>` the change; each is one `results.json` or
//! several separated by commas, whose samples are pooled (ten runs a side
//! is the norm for a claim). Per (workload, metric):
//!
//! * **measured** metrics (host time, memory) are compared by median
//!   against the metric's bound; when the spread of either side (distance
//!   between its quartiles ÷ median) is wider than the bound the verdict
//!   is `unresolved`, unless every sample of one side beats every sample
//!   of the other;
//! * **exact** metrics (counts and figures derived from simulated events)
//!   and `sim_fingerprint` must be identical on the same seed: any
//!   difference is a change, never noise.

use crate::json::Json;
use crate::metrics::{self, Better, Kind};
use crate::stats;
use std::process::ExitCode;

/// Bound used to label per-layer timing rows, which have none of their
/// own and never fail a comparison.
const LAYER_LABEL_BOUND: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Spread wider than the bound: more runs are needed, not a verdict.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a`'s median by which `b`'s median is worse (negative when
/// better).
fn worse_by(better: Better, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { mb - ma } else { (mb - ma) / ma.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge a measured metric.
pub fn judge_measured(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worse_by(better, a, b);
    let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
    if spread > bound {
        let range = |v: &[f64]| {
            v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
        let b_all_lower = b_hi < a_lo;
        let b_all_higher = b_lo > a_hi;
        return match (better, b_all_lower, b_all_higher) {
            (Better::Lower, true, _) | (Better::Higher, _, true) => Verdict::Improved,
            (Better::Lower, _, true) | (Better::Higher, true, _) if worse > bound => {
                Verdict::Regressed
            }
            _ => Verdict::Unresolved,
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Judge an exact metric: identical or changed.
pub fn judge_exact(better: Option<Better>, a: &[f64], b: &[f64]) -> Verdict {
    let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
    if same {
        return Verdict::Unchanged;
    }
    match better {
        Some(better) if worse_by(better, a, b) < 0.0 => Verdict::Improved,
        // Worse, or changed with no direction to excuse it.
        _ => Verdict::Regressed,
    }
}

/// One workload on one side of a comparison: the seeds, the fingerprints
/// and each metric's pooled samples.
struct Workload {
    seeds: Vec<u64>,
    fingerprints: Vec<String>,
    metrics: Vec<(String, Vec<f64>)>,
}

fn load_side(files: &str) -> Result<Vec<(String, Workload)>, String> {
    let mut side: Vec<(String, Workload)> = Vec::new();
    for file in files.split(',') {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or(format!("{file}: not a results.json (no \"workloads\")"))?;
        for (name, w) in workloads {
            let at = match side.iter().position(|(n, _)| n == name) {
                Some(at) => at,
                None => {
                    let empty = Workload { seeds: vec![], fingerprints: vec![], metrics: vec![] };
                    side.push((name.clone(), empty));
                    side.len() - 1
                }
            };
            let entry = &mut side[at].1;
            entry.seeds.extend(w.get("seed").and_then(Json::as_u64));
            let fp = w.get("sim_fingerprint").map(Json::compact).unwrap_or_default();
            entry.fingerprints.push(fp);
            for (metric, row) in w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let samples = row
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or(format!("{file}: {name}.{metric} has no samples"))?
                    .iter()
                    .filter_map(Json::as_f64);
                match entry.metrics.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, pooled)) => pooled.extend(samples),
                    None => entry.metrics.push((metric.clone(), samples.collect())),
                }
            }
        }
    }
    Ok(side)
}

/// `benchmark compare <a.json[,…]> <b.json[,…]>`: one row per (metric,
/// workload); non-zero exit when an end-to-end metric, an exact metric or
/// a fingerprint regressed or could not be resolved.
pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files (or comma-separated lists)".into());
    };
    let (a, b) = (load_side(a)?, load_side(b)?);
    let mut failed = 0usize;
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "change", "spread"
    );
    for (name, wa) in &a {
        let Some((_, wb)) = b.iter().find(|(n, _)| n == name) else {
            println!("{name:<12} missing from the second side");
            failed += 1;
            continue;
        };
        // Exact figures are only comparable on identical inputs: one
        // seed, the same on both sides.
        let one_seed = |w: &Workload| w.seeds.windows(2).all(|pair| pair[0] == pair[1]);
        let same_seed = wa.seeds.first() == wb.seeds.first() && one_seed(wa) && one_seed(wb);
        if same_seed {
            let same =
                wa.fingerprints.iter().chain(&wb.fingerprints).all(|f| *f == wa.fingerprints[0]);
            println!(
                "{name:<12} {:<34} {:>57}  {}",
                "sim_fingerprint",
                "",
                if same { "unchanged" } else { "regressed (changed)" }
            );
            failed += usize::from(!same);
        } else {
            println!(
                "{name:<12} seeds differ ({:?} vs {:?}): exact metrics and fingerprints skipped",
                wa.seeds, wb.seeds
            );
        }
        for (metric, sa) in &wa.metrics {
            let Some((_, sb)) = wb.metrics.iter().find(|(m, _)| m == metric) else { continue };
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let def = metrics::find(metric);
            let kind = def.map_or(Kind::Exact, |d| d.kind);
            let gating = kind == Kind::Exact || def.is_some_and(|d| d.bound.is_some());
            let verdict = match kind {
                Kind::Exact if same_seed => judge_exact(def.map(|d| d.better), sa, sb),
                // Across seeds an exact end-to-end metric is just a
                // bounded one; the others say nothing.
                Kind::Exact => match def.and_then(|d| d.bound.map(|bound| (d.better, bound))) {
                    Some((better, bound)) => judge_measured(better, bound, sa, sb),
                    None => continue,
                },
                Kind::Measured => {
                    let def = def.expect("measured metrics are registered");
                    judge_measured(def.better, def.bound.unwrap_or(LAYER_LABEL_BOUND), sa, sb)
                }
            };
            // A bypassed layer reports zeros on both sides: nothing to say.
            if !gating && sa.iter().chain(sb).all(|v| *v == 0.0) {
                continue;
            }
            let (ma, mb) = (stats::median(sa), stats::median(sb));
            let change = if ma == 0.0 { 0.0 } else { 100.0 * (mb - ma) / ma.abs() };
            let spread = 100.0 * stats::quartile_spread(sa).max(stats::quartile_spread(sb));
            let bad = gating && matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            println!(
                "{name:<12} {metric:<34} {ma:>14.6} {mb:>14.6} {change:>+8.2}% {spread:>7.2}%  {}{}",
                verdict.as_str(),
                if gating { "" } else { " (informational)" }
            );
            failed += usize::from(bad);
        }
    }
    if failed > 0 {
        println!("{failed} row(s) regressed or unresolved");
    }
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_metrics_follow_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [10.6, 10.7, 10.65, 10.6, 10.7];
        let faster = [9.0, 9.1, 8.9, 9.0, 9.05];
        let same = [10.1, 10.0, 10.2, 10.05, 10.1];
        assert_eq!(judge_measured(Better::Lower, 0.05, &a, &slower), Verdict::Regressed);
        assert_eq!(judge_measured(Better::Lower, 0.05, &a, &faster), Verdict::Improved);
        assert_eq!(judge_measured(Better::Lower, 0.05, &a, &same), Verdict::Unchanged);
        // Direction flips for higher-is-better metrics.
        assert_eq!(judge_measured(Better::Higher, 0.05, &a, &slower), Verdict::Improved);
        assert_eq!(judge_measured(Better::Higher, 0.05, &a, &faster), Verdict::Regressed);
        // One sample a side: no spread, the bound alone decides.
        assert_eq!(judge_measured(Better::Lower, 0.05, &[10.0], &[10.4]), Verdict::Unchanged);
        assert_eq!(judge_measured(Better::Lower, 0.05, &[10.0], &[10.6]), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate() {
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [9.0, 11.0, 13.0, 10.0, 12.0];
        assert_eq!(judge_measured(Better::Lower, 0.05, &noisy_a, &noisy_b), Verdict::Unresolved);
        let clearly_lower = [5.0, 6.0, 7.0, 5.5, 6.5];
        assert_eq!(
            judge_measured(Better::Lower, 0.05, &noisy_a, &clearly_lower),
            Verdict::Improved
        );
        let clearly_higher = [15.0, 16.0, 17.0, 15.5, 16.5];
        assert_eq!(
            judge_measured(Better::Lower, 0.05, &noisy_a, &clearly_higher),
            Verdict::Regressed
        );
        assert_eq!(
            judge_measured(Better::Higher, 0.05, &noisy_a, &clearly_higher),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        assert_eq!(judge_exact(Some(Better::Higher), &[24.5, 24.5], &[24.5]), Verdict::Unchanged);
        assert_eq!(judge_exact(Some(Better::Higher), &[24.5], &[24.500001]), Verdict::Improved);
        assert_eq!(judge_exact(Some(Better::Higher), &[24.5], &[24.499999]), Verdict::Regressed);
        assert_eq!(judge_exact(Some(Better::Lower), &[3.0], &[3.1]), Verdict::Regressed);
        assert_eq!(judge_exact(None, &[3.0], &[2.9]), Verdict::Regressed, "no direction: changed");
        // A side that disagrees with itself is a change too.
        assert_eq!(judge_exact(Some(Better::Lower), &[3.0, 3.1], &[3.0, 3.1]), Verdict::Regressed);
    }
}
