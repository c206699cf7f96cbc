//! Timing rows for the perf-regression subsystem.
//!
//! A [`TimingRow`] is the unit of the `shift-bench` micro suite: one named
//! hot-path benchmark reduced to a nanoseconds-per-operation estimate. Rows
//! serialize to the JSON fragment embedded in `BENCH_micro.json` snapshots,
//! which the `compare` gate diffs across commits in CI.

/// One micro-benchmark measurement: the minimum per-operation time observed
/// across `samples` timed batches of `iters_per_sample` operations each.
///
/// The estimator is the *minimum* batch mean, not the grand mean: external
/// noise (scheduler preemption, frequency scaling, page faults) only ever
/// adds time, so the smallest observed batch is the least-contaminated
/// estimate of the true cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingRow {
    /// Stable benchmark name, `group/benchmark` style.
    pub name: String,
    /// Best-case nanoseconds per operation (minimum batch mean).
    pub ns_per_op: f64,
    /// Number of timed batches.
    pub samples: usize,
    /// Operations per timed batch.
    pub iters_per_sample: u64,
}

impl TimingRow {
    /// Creates a row.
    pub fn new(
        name: impl Into<String>,
        ns_per_op: f64,
        samples: usize,
        iters_per_sample: u64,
    ) -> Self {
        Self {
            name: name.into(),
            ns_per_op,
            samples,
            iters_per_sample,
        }
    }

    /// The JSON object fragment embedded in `BENCH_micro.json`.
    pub fn json_fragment(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"ns_per_op\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            self.name, self.ns_per_op, self.samples, self.iters_per_sample
        )
    }

    /// Human-readable per-op time (`ns`, `µs` or `ms` as appropriate).
    pub fn display_time(&self) -> String {
        if self.ns_per_op < 1_000.0 {
            format!("{:.1} ns", self.ns_per_op)
        } else if self.ns_per_op < 1_000_000.0 {
            format!("{:.2} µs", self.ns_per_op / 1_000.0)
        } else {
            format!("{:.2} ms", self.ns_per_op / 1_000_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fragment_is_one_object() {
        let row = TimingRow::new("ncc/context_detect", 88.0, 5, 1000);
        let json = row.json_fragment();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"ncc/context_detect\""));
        assert!(json.contains("\"ns_per_op\":88.0"));
    }

    #[test]
    fn display_time_picks_sane_units() {
        assert_eq!(TimingRow::new("a", 12.0, 1, 1).display_time(), "12.0 ns");
        assert_eq!(TimingRow::new("b", 4_500.0, 1, 1).display_time(), "4.50 µs");
        assert_eq!(
            TimingRow::new("c", 7_200_000.0, 1, 1).display_time(),
            "7.20 ms"
        );
    }
}
