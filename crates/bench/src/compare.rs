//! Snapshot comparison — the perf-regression gate.
//!
//! [`compare`] diffs two [`Snapshot`]s bench-by-bench; [`Comparison`] then
//! answers the CI question: is any hot path outside the allowed band? The
//! band is symmetric in ratio space — with threshold `t`, a bench passes
//! while `current / baseline` stays within `[1 / (1 + t), 1 + t]`; the CI
//! gate's `t` is [`GATE_BAND`]. The slow side catches regressions; the fast
//! side catches measurement drift (a "10x speedup" on an unchanged hot path
//! means the bench broke or the runner lied, and the snapshot should be
//! regenerated deliberately rather than silently absorbed). A bench present
//! in the baseline but missing from the current run also fails the gate:
//! deleting a hot-path bench must be an explicit decision.
//!
//! Snapshots that time different work are not compared: the gate fails when
//! the two were taken in different modes (the sizing differs), from
//! different seeds (the characterization, engine and synthetic adversarial
//! fixture are all built from the seed) or on different render kernels (the
//! fleet rows render every frame they step, and each kernel is its own
//! compiled copy of the renderer). A bench with a non-positive ns/op
//! on either side fails it too: its ratio is meaningless, and the suite
//! never emits one, so a zero-time row means a hand-edited or corrupted
//! snapshot.

use crate::snapshot::Snapshot;

/// The gate's band: `repro bench-compare` fails a bench whose time moved by
/// more than ±30% in ratio space. The committed seed was measured on another
/// machine, so the band absorbs run-to-run noise plus moderate hardware skew.
pub const GATE_BAND: f64 = 0.3;

/// One bench present in both snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// The bench name.
    pub name: String,
    /// Baseline ns/op.
    pub baseline_ns: f64,
    /// Current ns/op.
    pub current_ns: f64,
}

impl BenchDelta {
    /// `current / baseline` (1.0 = unchanged, 2.0 = twice as slow). A
    /// degenerate non-positive baseline maps to 1.0 so it cannot divide by
    /// zero (the suite never emits one; a hand-edited snapshot might).
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.current_ns / self.baseline_ns
        } else {
            1.0
        }
    }

    /// Signed percent change (`+50.0` = 50% slower).
    pub fn delta_pct(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }

    /// Whether the ratio is inside the symmetric band for `threshold`.
    pub fn within_band(&self, threshold: f64) -> bool {
        let upper = 1.0 + threshold.max(0.0);
        let ratio = self.ratio();
        ratio <= upper && ratio >= 1.0 / upper
    }
}

/// The result of diffing two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benches present in both snapshots, in baseline order.
    pub deltas: Vec<BenchDelta>,
    /// Bench names only the baseline has (fail: a bench disappeared).
    pub only_baseline: Vec<String>,
    /// Bench names only the current snapshot has (informational: new bench).
    pub only_current: Vec<String>,
    /// Benches whose baseline or current ns/op is non-positive (fail: the
    /// ratio band is meaningless for them; the suite never emits a zero-time
    /// row, so one means a hand-edited or corrupted snapshot).
    pub degenerate: Vec<String>,
    /// Whether the two snapshots were taken in the same mode; comparing a
    /// `smoke` run against a `full` baseline is meaningless and fails.
    pub modes_match: bool,
    /// Whether the two snapshots were taken from the same seed; the suite
    /// builds its fixtures from the seed, so different seeds time different
    /// work and fail.
    pub seeds_match: bool,
    /// Whether the two snapshots ran the same render kernel; different
    /// kernels render frames with different code and fail.
    pub kernels_match: bool,
}

/// Diffs `current` against `baseline`.
pub fn compare(baseline: &Snapshot, current: &Snapshot) -> Comparison {
    let mut deltas = Vec::new();
    let mut only_baseline = Vec::new();
    for base in &baseline.benches {
        match current.benches.iter().find(|b| b.name == base.name) {
            Some(matching) => {
                deltas.push(BenchDelta {
                    name: base.name.clone(),
                    baseline_ns: base.ns_per_op,
                    current_ns: matching.ns_per_op,
                });
            }
            None => only_baseline.push(base.name.clone()),
        }
    }
    let only_current: Vec<String> = current
        .benches
        .iter()
        .filter(|b| !baseline.benches.iter().any(|base| base.name == b.name))
        .map(|b| b.name.clone())
        .collect();
    // A non-positive timing on *either side* is degenerate — including a
    // zero-time bench that only one snapshot has, which would otherwise
    // slip through as informational and poison the next baseline.
    let mut degenerate = Vec::new();
    for bench in baseline.benches.iter().chain(&current.benches) {
        if bench.ns_per_op <= 0.0 && !degenerate.contains(&bench.name) {
            degenerate.push(bench.name.clone());
        }
    }
    Comparison {
        deltas,
        only_baseline,
        only_current,
        degenerate,
        modes_match: baseline.mode == current.mode,
        seeds_match: baseline.seed == current.seed,
        kernels_match: baseline.kernel == current.kernel,
    }
}

impl Comparison {
    /// The benches whose ratio falls outside the band for `threshold`.
    pub fn out_of_band(&self, threshold: f64) -> Vec<&BenchDelta> {
        self.deltas
            .iter()
            .filter(|d| !d.within_band(threshold))
            .collect()
    }

    /// Whether the gate passes: modes, seeds and render kernels match, no
    /// baseline bench disappeared, no bench carries a degenerate
    /// (non-positive) timing, and every shared bench is within the band.
    pub fn passes(&self, threshold: f64) -> bool {
        self.modes_match
            && self.seeds_match
            && self.kernels_match
            && self.only_baseline.is_empty()
            && self.degenerate.is_empty()
            && self.out_of_band(threshold).is_empty()
    }

    /// Renders the per-bench report the CI log shows, one line per bench
    /// plus a verdict line.
    pub fn report(&self, threshold: f64) -> String {
        let mut out = String::new();
        for delta in &self.deltas {
            let marker = if delta.within_band(threshold) {
                "ok  "
            } else if delta.ratio() > 1.0 {
                "SLOW"
            } else {
                "FAST"
            };
            out.push_str(&format!(
                "{marker} {:<40} {:>12.1} ns -> {:>12.1} ns  ({:+.1}%)\n",
                delta.name,
                delta.baseline_ns,
                delta.current_ns,
                delta.delta_pct()
            ));
        }
        for name in &self.only_baseline {
            out.push_str(&format!(
                "GONE {name} (in baseline, missing from current run)\n"
            ));
        }
        for name in &self.degenerate {
            out.push_str(&format!(
                "ZERO {name} (non-positive ns/op — corrupted or hand-edited snapshot; \
                 regenerate it)\n"
            ));
        }
        for name in &self.only_current {
            out.push_str(&format!("new  {name} (not in baseline)\n"));
        }
        if !self.modes_match {
            out.push_str("MODE baseline and current snapshots were taken in different modes\n");
        }
        if !self.seeds_match {
            out.push_str("SEED baseline and current snapshots were taken from different seeds\n");
        }
        if !self.kernels_match {
            out.push_str("KERNEL baseline and current snapshots ran different render kernels\n");
        }
        let verdict = if self.passes(threshold) {
            format!(
                "PASS: {} benches within ±{:.0}% band\n",
                self.deltas.len(),
                threshold * 100.0
            )
        } else {
            format!(
                "FAIL: {} bench(es) outside ±{:.0}% band, {} missing, {} degenerate\n",
                self.out_of_band(threshold).len(),
                threshold * 100.0,
                self.only_baseline.len(),
                self.degenerate.len()
            )
        };
        out.push_str(&verdict);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_metrics::TimingRow;

    fn snapshot(mode: &str, benches: &[(&str, f64)]) -> Snapshot {
        Snapshot::new(
            mode,
            1,
            "avx512",
            benches
                .iter()
                .map(|(name, ns)| TimingRow::new(*name, *ns, 5, 10))
                .collect(),
        )
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snapshot("smoke", &[("x/a", 100.0), ("x/b", 5000.0)]);
        let comparison = compare(&a, &a.clone());
        assert!(comparison.passes(0.5));
        assert_eq!(comparison.out_of_band(0.0).len(), 0);
        assert!(comparison.report(0.5).contains("PASS"));
    }

    #[test]
    fn slow_and_fast_sides_both_fail_the_band() {
        let baseline = snapshot("smoke", &[("x/a", 100.0), ("x/b", 100.0), ("x/c", 100.0)]);
        let current = snapshot("smoke", &[("x/a", 151.0), ("x/b", 66.0), ("x/c", 120.0)]);
        let comparison = compare(&baseline, &current);
        // 1.51 > 1.5 fails, 0.66 < 1/1.5 fails, 1.2 passes.
        let out: Vec<&str> = comparison
            .out_of_band(0.5)
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(out, vec!["x/a", "x/b"]);
        assert!(!comparison.passes(0.5));
        let report = comparison.report(0.5);
        assert!(report.contains("SLOW x/a"));
        assert!(report.contains("FAST x/b"));
        assert!(report.contains("FAIL"));
    }

    #[test]
    fn boundary_ratios_are_inside_the_band() {
        let delta = BenchDelta {
            name: "x".into(),
            baseline_ns: 100.0,
            current_ns: 150.0,
        };
        assert!(delta.within_band(0.5));
        let delta = BenchDelta {
            name: "x".into(),
            baseline_ns: 150.0,
            current_ns: 100.0,
        };
        assert!(delta.within_band(0.5));
    }

    #[test]
    fn missing_bench_and_mode_mismatch_fail() {
        let baseline = snapshot("smoke", &[("x/a", 100.0), ("x/b", 100.0)]);
        let current = snapshot("smoke", &[("x/a", 100.0), ("x/new", 1.0)]);
        let comparison = compare(&baseline, &current);
        assert_eq!(comparison.only_baseline, vec!["x/b".to_string()]);
        assert_eq!(comparison.only_current, vec!["x/new".to_string()]);
        assert!(
            !comparison.passes(10.0),
            "a vanished bench fails any threshold"
        );

        let full = snapshot("full", &[("x/a", 100.0)]);
        let smoke = snapshot("smoke", &[("x/a", 100.0)]);
        let comparison = compare(&full, &smoke);
        assert!(!comparison.modes_match);
        assert!(!comparison.passes(10.0));
    }

    #[test]
    fn seed_mismatch_fails_with_a_seed_line() {
        let baseline = snapshot("smoke", &[("x/a", 100.0)]);
        let mut current = baseline.clone();
        current.seed = 7;
        let comparison = compare(&baseline, &current);
        assert!(comparison.modes_match);
        assert!(!comparison.seeds_match);
        assert!(
            !comparison.passes(10.0),
            "different fixtures fail any threshold"
        );
        let report = comparison.report(GATE_BAND);
        assert!(report.contains("SEED "));
        assert!(report.contains("FAIL"));
        assert!(compare(&baseline, &baseline.clone()).seeds_match);
    }

    #[test]
    fn kernel_mismatch_fails_with_a_kernel_line() {
        let baseline = snapshot("smoke", &[("x/a", 100.0)]);
        let mut current = baseline.clone();
        current.kernel = "portable".into();
        let comparison = compare(&baseline, &current);
        assert!(comparison.modes_match && comparison.seeds_match);
        assert!(!comparison.kernels_match);
        assert!(
            !comparison.passes(10.0),
            "a different renderer fails any threshold"
        );
        let report = comparison.report(GATE_BAND);
        assert!(report.contains("KERNEL "));
        assert!(report.contains("FAIL"));
        let same = compare(&baseline, &baseline.clone());
        assert!(same.kernels_match);
        assert!(!same.report(GATE_BAND).contains("KERNEL"));
    }

    #[test]
    fn degenerate_baseline_does_not_divide_by_zero() {
        let delta = BenchDelta {
            name: "x".into(),
            baseline_ns: 0.0,
            current_ns: 100.0,
        };
        assert_eq!(delta.ratio(), 1.0);
        assert!(delta.within_band(0.0));
    }

    #[test]
    fn zero_time_rows_fail_the_gate_with_a_clear_report() {
        // A 0-time row's ratio degenerates to 1.0 and would sail through any
        // band; the gate must reject it explicitly instead.
        let baseline = snapshot("smoke", &[("x/a", 0.0), ("x/b", 100.0)]);
        let current = snapshot("smoke", &[("x/a", 100.0), ("x/b", 100.0)]);
        let comparison = compare(&baseline, &current);
        assert_eq!(comparison.degenerate, vec!["x/a".to_string()]);
        assert!(
            !comparison.passes(0.5),
            "a degenerate row fails any threshold"
        );
        let report = comparison.report(0.5);
        assert!(report.contains("ZERO x/a"));
        assert!(report.contains("1 degenerate"));
        // The degenerate side can also be the current run.
        let comparison = compare(&current, &baseline);
        assert_eq!(comparison.degenerate, vec!["x/a".to_string()]);
        assert!(!comparison.passes(10.0));
        // Healthy snapshots report no degenerate rows.
        assert!(compare(&current, &current.clone()).degenerate.is_empty());
        // A zero-time bench that only the current snapshot has must fail
        // too — otherwise it sails through as informational and poisons the
        // next baseline.
        let with_new_zero = snapshot("smoke", &[("x/a", 100.0), ("x/b", 100.0), ("x/new", 0.0)]);
        let healthy = snapshot("smoke", &[("x/a", 100.0), ("x/b", 100.0)]);
        let comparison = compare(&healthy, &with_new_zero);
        assert_eq!(comparison.only_current, vec!["x/new".to_string()]);
        assert_eq!(comparison.degenerate, vec!["x/new".to_string()]);
        assert!(!comparison.passes(10.0));
    }
}
