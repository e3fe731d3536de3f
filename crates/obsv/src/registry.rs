//! Deterministic metrics registry: counters, gauges and fixed-boundary
//! histograms.
//!
//! Determinism is the point. Prometheus client libraries lean on
//! wall-clock timestamps and hash-map iteration; here both are banned.
//! A [`Registry`] is the trace fold's accumulators read through one
//! table of families: families render in name order and series in
//! label order, so two runs of the same seeded scenario produce
//! byte-identical expositions — which is what lets CI diff two
//! snapshots as a regression gate.

use std::fmt::Write as _;

use metasim::simtrace::{TraceKind as K, KINDS};
use metasim::SimTime;

use crate::fold::Tally;

/// Nearest-rank percentile over raw samples.
///
/// `p` is in percent and is clamped to `[0, 100]`; NaN samples are
/// dropped before ranking; an empty (or empty-after-filter) slice
/// yields `0.0`, never NaN. This is the one sample-percentile
/// implementation in the workspace — `apples_grid::metrics` re-exports
/// it, and [`Histogram::quantile`] is its bucketed counterpart.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A fixed-boundary histogram with exact bucket counts.
///
/// Boundaries are inclusive upper bounds (`le`), strictly increasing;
/// everything above the last boundary lands in the implicit `+Inf`
/// bucket. Quantiles interpolate linearly inside the winning bucket
/// (the Prometheus `histogram_quantile` rule) and are clamped to the
/// observed `[min, max]`, so they are exact at the resolution of the
/// bucket grid and never extrapolate.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    boundaries: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
    /// NaN observations dropped (NaN belongs to no bucket).
    pub nan_dropped: u64,
}

impl Histogram {
    /// Build a histogram from explicit upper bounds. Non-finite bounds
    /// are dropped and the rest sorted and deduplicated, so the result
    /// is always well-formed.
    pub fn with_boundaries(mut boundaries: Vec<f64>) -> Histogram {
        boundaries.retain(|b| b.is_finite());
        boundaries.sort_by(|a, b| a.total_cmp(b));
        boundaries.dedup();
        let buckets = boundaries.len() + 1;
        Histogram {
            boundaries,
            counts: vec![0; buckets],
            sum: 0.0,
            count: 0,
            min: 0.0,
            max: 0.0,
            nan_dropped: 0,
        }
    }

    /// Log-spaced boundaries from `lo` to at least `hi` with
    /// `per_decade` buckets per factor of ten, preceded by an explicit
    /// zero boundary. The workhorse grid for simulated durations, which
    /// span micro-seconds to days.
    ///
    /// The zero boundary gives exactly-zero observations (instant
    /// events: cache hits, zero-wait dispatches) their own bucket
    /// instead of collapsing them into `(-inf, lo]` with every sub-`lo`
    /// duration — without it, quantiles of fast-event distributions
    /// interpolate across a bucket whose population is mostly zeros and
    /// clamp to the floor.
    pub fn log_spaced(lo: f64, hi: f64, per_decade: usize) -> Histogram {
        let lo = if lo.is_finite() && lo > 0.0 { lo } else { 1e-6 };
        let hi = if hi.is_finite() && hi > lo {
            hi
        } else {
            lo * 1e6
        };
        let per_decade = per_decade.max(1);
        let mut bounds = vec![0.0];
        let mut i = 0u32;
        loop {
            let b = lo * 10f64.powf(f64::from(i) / per_decade as f64);
            bounds.push(b);
            if b >= hi || bounds.len() > 512 {
                break;
            }
            i += 1;
        }
        Histogram::with_boundaries(bounds)
    }

    /// Record one observation. NaN is counted in
    /// [`Histogram::nan_dropped`] and otherwise ignored.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            self.nan_dropped += 1;
            return;
        }
        let idx = self
            .boundaries
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.boundaries.len());
        self.counts[idx] += 1;
        self.sum += v;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v.total_cmp(&self.min).is_lt() {
                self.min = v;
            }
            if v.total_cmp(&self.max).is_gt() {
                self.max = v;
            }
        }
        self.count += 1;
    }

    /// Total observations (NaN excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Upper bounds of the finite buckets.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Quantile `q` in `[0, 1]` (clamped), linearly interpolated within
    /// the winning bucket and clamped to the observed range. Empty
    /// histograms yield `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q.total_cmp(&0.0).is_eq() {
            return self.min;
        }
        let rank = (q * self.count as f64).max(1.0);
        let mut cum_prev = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let cum = cum_prev + n;
            if (cum as f64).total_cmp(&rank).is_ge() && n > 0 {
                // The +Inf bucket has no upper bound to interpolate
                // toward; the observed max is the honest answer.
                let Some(hi) = self.boundaries.get(i).copied() else {
                    return self.max;
                };
                let frac = (rank - cum_prev as f64) / n as f64;
                let lo = if i == 0 {
                    self.min.min(hi)
                } else {
                    self.boundaries[i - 1]
                };
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min, self.max);
            }
            cum_prev = cum;
        }
        self.max
    }

    /// Median from buckets.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile from buckets.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile from buckets.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A series: its label's value (or key), and its value if it exists.
type Series = (String, Option<f64>);

/// How a family's series read off the fold's [`Tally`]; a `None` value
/// is a series that does not exist yet.
enum Read {
    /// One unlabeled counter series.
    Counter(fn(&Tally) -> Option<f64>),
    /// One unlabeled gauge series.
    Gauge(fn(&Tally) -> Option<f64>),
    /// Counter series by the value of one label.
    By(&'static str, fn(&Tally) -> Vec<Series>),
    /// Counts of event kinds, by the value of one label.
    Kinds(&'static str, &'static [(&'static str, K)]),
    /// One unlabeled histogram.
    Histogram(fn(&Tally) -> &Histogram),
}

impl Read {
    /// The family's Prometheus type.
    fn kind(&self) -> &'static str {
        match self {
            Read::Gauge(_) => "gauge",
            Read::Histogram(_) => "histogram",
            Read::Counter(_) | Read::By(..) | Read::Kinds(..) => "counter",
        }
    }
}

/// Every exposed family: name, help text and how it reads the fold.
/// All names carry the `apples_` prefix.
const FAMILIES: [(&str, &str, Read); 22] = [
    (
        "apples_events_total",
        "Trace events observed, by kind.",
        Read::By("kind", |t| {
            let counts = KINDS.iter().zip(t.kinds);
            counts.map(|(k, n)| (k.to_string(), nonzero(n))).collect()
        }),
    ),
    (
        "apples_jobs_total",
        "Jobs that left the stream, by outcome (completed|failed).",
        Read::Kinds(
            "outcome",
            &[("completed", K::JobCompleted), ("failed", K::JobFailed)],
        ),
    ),
    (
        "apples_job_attempts_total",
        "Placement attempts dispatched (first tries and retries).",
        Read::Counter(|t| t.count(K::JobDispatched)),
    ),
    (
        "apples_job_retries_total",
        "Failed attempts that were scheduled for retry after backoff.",
        Read::Counter(|t| t.count(K::JobRetried)),
    ),
    (
        "apples_backfills_total",
        "Queued jobs started out of FCFS order by EASY backfilling.",
        Read::Counter(|t| t.count(K::JobBackfilled)),
    ),
    (
        "apples_queue_depth",
        "Jobs submitted or awaiting retry but not yet dispatched.",
        Read::Gauge(|t| t.queue.map(|(depth, _)| depth as f64)),
    ),
    (
        "apples_queue_depth_peak",
        "High-water mark of apples_queue_depth over the run.",
        Read::Gauge(|t| t.queue.map(|(_, peak)| peak as f64)),
    ),
    (
        "apples_compute_seconds",
        "Per-worker compute wall-clock (load and paging slowdown included).",
        Read::Histogram(|t| &t.compute_seconds),
    ),
    (
        "apples_compute_work_mflop_total",
        "Total work dispatched to workers, Mflop.",
        Read::Counter(|t| t.work_mflop),
    ),
    (
        "apples_transfer_mb_total",
        "Payload delivered, MB.",
        Read::Counter(|t| t.transfer_mb),
    ),
    (
        "apples_transfer_seconds",
        "Transfer admission-to-delivery wall-clock.",
        Read::Histogram(|t| &t.transfer_seconds),
    ),
    (
        "apples_transfer_contention_share",
        "Achieved over nominal bottleneck bandwidth (1 = link to itself).",
        Read::Histogram(|t| &t.contention_share),
    ),
    (
        "apples_forecast_abs_error",
        "Absolute error of each issued forecast against the observation.",
        Read::Histogram(|t| &t.forecast_abs_error),
    ),
    (
        "apples_faults_injected_total",
        "Faults injected into the topology, by target (host|link).",
        Read::Kinds(
            "target",
            &[
                ("host", K::HostFaultInjected),
                ("link", K::LinkFaultInjected),
            ],
        ),
    ),
    (
        "apples_placements_revoked_total",
        "Running placements revoked by host death.",
        Read::Counter(|t| t.count(K::PlacementRevoked)),
    ),
    (
        "apples_load_impositions_total",
        "Background-load windows imposed on hosts by dispatched jobs.",
        Read::Counter(|t| t.count(K::LoadImposed)),
    ),
    (
        "apples_selection_candidates",
        "Candidate resource sets per selection.",
        Read::Histogram(|t| &t.selection_candidates),
    ),
    (
        "apples_reschedule_decisions_total",
        "Phase-boundary reschedule decisions, by migrated (true|false).",
        Read::By("migrated", |t| {
            let counts = ["false", "true"].iter().zip(t.migrated);
            counts.map(|(m, n)| (m.to_string(), nonzero(n))).collect()
        }),
    ),
    (
        "apples_job_exec_seconds",
        "Job admission-to-completion wall-clock.",
        Read::Histogram(|t| &t.job_exec_seconds),
    ),
    (
        "apples_actuations_total",
        "Schedules actuated on the testbed.",
        Read::Counter(|t| t.count(K::Actuated)),
    ),
    (
        "apples_host_busy_seconds_total",
        "Cumulative compute seconds, by host.",
        Read::By("host", |t| {
            let busy = t.host_busy_seconds.iter();
            busy.map(|(h, &s)| (h.0.to_string(), s)).collect()
        }),
    ),
    (
        "apples_sim_last_event_seconds",
        "Simulation timestamp of the most recent event.",
        Read::Gauge(|t| t.last_at.map(SimTime::as_secs_f64)),
    ),
];

/// An event count as a counter total: no series until it is nonzero.
fn nonzero(n: u64) -> Option<f64> {
    (n > 0).then_some(n as f64)
}

impl Tally {
    fn count(&self, kind: K) -> Option<f64> {
        nonzero(self.kinds[kind as usize])
    }
}

/// A series' key: its labels as `{k="v",…}`, empty without labels. No
/// family has two labels, and no label value holds `"` or `\`.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", pairs.join(","))
}

/// The metrics registry: the fold's accumulators read through the
/// crate's one table of families.
///
/// [`crate::MetricsSink::registry`] takes a copy of the accumulators;
/// nothing else makes one, and nothing writes one. Every family is
/// present (its `# HELP` and `# TYPE` lines appear even when it has no
/// series); a counter series exists from its first finite, non-negative
/// increment, a histogram series from its first observation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    pub(crate) tally: Tally,
}

impl Registry {
    /// A counter or gauge family's series that exist, as canonical
    /// label key and value, in key order.
    fn numbers(&self, read: &Read) -> Vec<(String, f64)> {
        let t = &self.tally;
        let series: Vec<Series> = match read {
            Read::Counter(read) | Read::Gauge(read) => vec![(String::new(), read(t))],
            Read::By(label, read) => read(t)
                .into_iter()
                .map(|(value, v)| (label_key(&[(label, &value)]), v))
                .collect(),
            Read::Kinds(label, kinds) => kinds
                .iter()
                .map(|&(value, kind)| (label_key(&[(label, value)]), t.count(kind)))
                .collect(),
            Read::Histogram(_) => Vec::new(),
        };
        let mut series: Vec<(String, f64)> = series
            .into_iter()
            .filter_map(|(key, v)| Some((key, v?)))
            .collect();
        series.sort_by(|a, b| a.0.cmp(&b.0));
        series
    }

    fn number(&self, name: &str, labels: &[(&str, &str)], kind: &str) -> Option<f64> {
        let (_, _, read) = FAMILIES
            .iter()
            .find(|f| f.0 == name && f.2.kind() == kind)?;
        let key = label_key(labels);
        let series = self.numbers(read);
        series.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.number(name, labels, "counter")
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.number(name, labels, "gauge")
    }

    /// A histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match FAMILIES.iter().find(|f| f.0 == name)? {
            (_, _, Read::Histogram(read)) if labels.is_empty() => {
                let h = read(&self.tally);
                (h.count() + h.nan_dropped > 0).then_some(h)
            }
            _ => None,
        }
    }

    /// Render the registry in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers, one line per series, histogram
    /// series expanded into cumulative `_bucket{le=…}` plus `_sum` and
    /// `_count`. Output is byte-deterministic: families alphabetical,
    /// series in canonical label order, floats in shortest round-trip
    /// form, no timestamps.
    pub fn expose(&self) -> String {
        let mut families: Vec<_> = FAMILIES.iter().collect();
        families.sort_by_key(|f| f.0);
        let mut out = String::new();
        for (name, help, read) in families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", read.kind());
            for (labels, v) in self.numbers(read) {
                let _ = writeln!(out, "{name}{labels} {}", fmt_value(v));
            }
            let Some(h) = self.histogram(name, &[]) else {
                continue;
            };
            let mut cum = 0u64;
            for (i, &n) in h.counts().iter().enumerate() {
                cum += n;
                let le = match h.boundaries().get(i) {
                    Some(b) => fmt_value(*b),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum()));
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Shortest round-trip float rendering; integers drop the fraction the
/// way Rust's `{}` does (`3` not `3.0`), NaN/inf spelled Prometheus
/// style.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v.is_sign_positive() {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::HostId;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, -10.0), 1.0); // clamped to p0
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 250.0), 4.0); // clamped to p100
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert!(!percentile(&[f64::NAN], 99.0).is_nan());
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let mut h = Histogram::with_boundaries(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert!((h.sum() - 556.2).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 500.0);
        // p50 rank 2.5 lands in bucket (1,10]; interpolation stays
        // within the bucket bounds.
        let p50 = h.p50();
        assert!((1.0..=10.0).contains(&p50), "p50={p50}");
        // p99 rank ~4.95 lands in the +Inf bucket → max observed.
        assert_eq!(h.p99(), 500.0);
        assert_eq!(h.quantile(0.0), 0.5);
    }

    #[test]
    fn histogram_nan_and_empty() {
        let mut h = Histogram::with_boundaries(vec![1.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.nan_dropped, 1);
        assert_eq!(h.p95(), 0.0);
    }

    #[test]
    fn log_spaced_is_monotonic() {
        let h = Histogram::log_spaced(1e-3, 1e3, 3);
        let b = h.boundaries();
        assert!(b.len() > 10);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(*b.last().unwrap() >= 1e3);
    }

    #[test]
    fn log_spaced_zero_bucket_separates_instant_events() {
        let mut h = Histogram::log_spaced(1e-3, 1e3, 3);
        assert_eq!(h.boundaries()[0], 0.0, "first boundary must be zero");
        for _ in 0..90 {
            h.observe(0.0);
        }
        for _ in 0..10 {
            h.observe(5e-4);
        }
        // Zeros get their own bucket; sub-lo positives land in (0, lo].
        assert_eq!(h.counts()[0], 90);
        assert_eq!(h.counts()[1], 10);
        // Before the fix both populations shared (-inf, lo] and the
        // median of a mostly-instant distribution interpolated up
        // toward lo; with the zero boundary it is exactly 0.
        assert_eq!(h.p50(), 0.0);
        assert!(h.p95() > 0.0);
    }

    #[test]
    fn registry_reads_the_tally_through_the_family_table() {
        let mut tally = Tally::default();
        tally.kinds[K::JobCompleted as usize] = 3;
        tally.kinds[K::JobFailed as usize] = 1;
        tally.queue = Some((2, 3));
        for v in [0.05, 0.5, 2.0] {
            tally.job_exec_seconds.observe(v);
        }
        let busy = &mut tally.host_busy_seconds;
        busy.insert(HostId(2), Some(0.5));
        busy.insert(HostId(3), None);
        busy.insert(HostId(10), Some(1.5));
        let r = Registry { tally };
        let outcome = |o| [("outcome", o)];
        assert_eq!(
            r.counter_value("apples_jobs_total", &outcome("completed")),
            Some(3.0)
        );
        assert_eq!(r.gauge_value("apples_queue_depth_peak", &[]), Some(3.0));
        assert_eq!(
            r.histogram("apples_job_exec_seconds", &[]).unwrap().count(),
            3
        );
        // A lookup of the wrong kind, or of a series that never fired,
        // finds nothing.
        assert_eq!(r.gauge_value("apples_jobs_total", &outcome("failed")), None);
        assert_eq!(r.counter_value("apples_queue_depth", &[]), None);
        assert_eq!(r.counter_value("apples_job_retries_total", &[]), None);
        let host = |h| [("host", h)];
        assert_eq!(
            r.counter_value("apples_host_busy_seconds_total", &host("3")),
            None
        );
        assert!(r.histogram("apples_compute_seconds", &[]).is_none());
        let text = r.expose();
        // Every family is declared once, in name order, series or not.
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
            .collect();
        assert_eq!(names.len(), FAMILIES.len());
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(text.contains("# TYPE apples_job_retries_total counter\n# HELP apples_jobs_total"));
        assert!(text.contains(
            "apples_jobs_total{outcome=\"completed\"} 3\napples_jobs_total{outcome=\"failed\"} 1\n"
        ));
        // Labels sort as text: host 10 before host 2.
        assert!(text.contains(
            "apples_host_busy_seconds_total{host=\"10\"} 1.5\n\
             apples_host_busy_seconds_total{host=\"2\"} 0.5\n"
        ));
        assert!(text.contains("apples_job_exec_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(
            text.contains("apples_job_exec_seconds_sum 2.55\napples_job_exec_seconds_count 3\n")
        );
        assert_eq!(text, r.expose());
    }
}
