//! Metric tables, statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer
/// a workload never reaches, or does not measure, reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("bench.regime_race.refs_s", "s"),
    ("grid.sched.selfish_s", "s"),
    ("grid.sched.batch_s", "s"),
    ("grid.sched.fractional_s", "s"),
    ("grid.setup.s", "s"),
    ("nws.s", "s"),
    ("nws.forecasts", "count"),
    ("core.selector.s", "s"),
    ("core.decisions", "count"),
    ("core.candidates", "count"),
    ("core.candidates_per_decision", "count"),
    ("core.planner_estimator.s", "s"),
    ("core.planner_estimator.us_per_candidate", "us"),
    ("core.decide_ms_p50", "ms"),
    ("core.decide_ms_p90", "ms"),
    ("core.selector.candidates_us", "us"),
    ("core.planner.plan_us", "us"),
    ("core.estimator.estimate_us", "us"),
    ("metasim.exec.s", "s"),
    ("metasim.exec.events", "count"),
    ("core.rescheduler.s", "s"),
    ("core.rescheduler.triggers", "count"),
    ("core.rescheduler.migrations", "count"),
    ("metasim.fault.s", "s"),
    ("metasim.fault.injected", "count"),
    ("metasim.fault.revocations", "count"),
    ("grid.impose.s", "s"),
    ("grid.impose.count", "count"),
    ("grid.stream.s", "s"),
    ("grid.attempts", "count"),
    ("grid.retries", "count"),
    ("grid.attempt_yield", "ratio"),
    ("obsv.metrics_s", "s"),
    ("obsv.timeseries_s", "s"),
    ("obsv.spans_s", "s"),
    ("obsv.events", "count"),
    ("metasim.topogen.generate_s", "s"),
    ("bench.event_engine.build_workload_s", "s"),
    ("metasim.net.events", "count"),
    ("metasim.net.transfers", "count"),
    ("metasim.net.events_per_transfer", "count"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// Every metric printed in one trace mode, in output order.
pub fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `v` (0 when
/// empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten of `n` samples beyond
/// it; the median below twenty samples.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        50.0
    } else {
        (100.0 * (1.0 - 10.0 / n as f64)).floor()
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, for the simulated-results digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a number.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations run: races, legs, decisions, simulations.
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// Digest of the simulated results; a change that only speeds the
    /// program up leaves it unchanged.
    pub digest: Fnv,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Set a timing metric to the median of `samples`, noting the
    /// quartiles and sample count.
    pub fn set_timing(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples));
        self.notes.push(format!(
            "{name}: median {:.6} q1 {:.6} q3 {:.6} n {}",
            median(samples),
            quantile(samples, 0.25),
            quantile(samples, 0.75),
            samples.len()
        ));
    }

    /// Count one operation; a failed one is noted with `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The result line: every metric of the trace mode, in table order.
    /// A metric that was never set reads 0; a non-finite one fails the
    /// run.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in metric_table(trace).iter().enumerate() {
            let mut value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                self.op(false, || format!("{name} is not finite"));
                value = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
