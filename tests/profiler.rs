//! simprof acceptance: the profiler's attribution must be *exact* and
//! *reproducible*. Exact means the five per-job buckets (queue-wait,
//! retry-backoff, compute, border-exchange, contention-wait) partition
//! each job's makespan with zero microseconds left over — a profiler
//! that loses time is a profiler that lies. Reproducible means the
//! folded-stack output and the Prometheus exposition are byte-identical
//! across two runs of the same seed, so they can gate regressions.

use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{GridConfig, GridOutcome, GridService, SchedRegime};
use metasim::simtrace::{EventSink, NoopSink, TraceEvent, VecSink};
use metasim::SimTime;
use obsv::{FanoutSink, MetricsSink, Profile, PHASES};

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(400.0),
        seed: 42,
        ..WorkloadConfig::default()
    }
}

/// Stream the workload through the validated default service.
fn stream(sink: &mut dyn EventSink) -> GridOutcome {
    GridService::new(GridConfig::default())
        .expect("valid grid config")
        .run(SchedRegime::Selfish, &workload(), sink)
        .expect("stream")
}

fn run_traced() -> Vec<metasim::simtrace::TraceEvent> {
    let mut sink = VecSink::new();
    stream(&mut sink);
    sink.events
}

/// One traced run, shared by the read-only tests (the byte-identity
/// test re-runs on its own; sharing would make it vacuous).
fn traced_events() -> &'static [metasim::simtrace::TraceEvent] {
    use std::sync::OnceLock;
    static EVENTS: OnceLock<Vec<metasim::simtrace::TraceEvent>> = OnceLock::new();
    EVENTS.get_or_init(run_traced)
}

#[test]
fn attribution_buckets_partition_each_makespan_exactly() {
    let profile = Profile::from_events(traced_events());
    assert!(
        profile.jobs.len() >= 5,
        "scenario too small to exercise the profiler: {} jobs",
        profile.jobs.len()
    );
    assert_eq!(profile.unclosed_jobs, 0, "every job should close in 600s");
    for j in &profile.jobs {
        let total: u64 = PHASES.iter().map(|&p| j.bucket_us(p)).sum();
        assert_eq!(
            total,
            j.makespan_us(),
            "job {} ({}): buckets sum to {total}us but makespan is {}us",
            j.job,
            j.kind,
            j.makespan_us()
        );
    }
    // The scenario must exercise more than one phase overall, or the
    // partition invariant is vacuous.
    let exercised = PHASES
        .iter()
        .filter(|&&p| profile.jobs.iter().any(|j| j.bucket_us(p) > 0))
        .count();
    assert!(exercised >= 2, "only {exercised} phase(s) saw any time");
}

#[test]
fn folded_output_is_byte_identical_across_runs() {
    let a = Profile::from_events(traced_events());
    let b = Profile::from_events(&run_traced());
    assert!(!a.folded().is_empty());
    assert_eq!(a.folded(), b.folded(), "folded stacks must reproduce");
    assert_eq!(a.gantt(72), b.gantt(72), "gantt must reproduce");
    assert_eq!(a.table(), b.table(), "table must reproduce");
}

#[test]
fn jsonl_roundtrip_profile_matches_in_memory_profile() {
    let events = traced_events();
    let direct = Profile::from_events(events);
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let (parsed, skipped) = TraceEvent::from_jsonl(&jsonl);
    assert_eq!(skipped, 0, "every emitted line must parse");
    let reparsed = Profile::from_events(&parsed);
    assert_eq!(reparsed.events, direct.events);
    assert_eq!(reparsed.folded(), direct.folded());
    assert_eq!(reparsed.table(), direct.table());
}

#[test]
fn metrics_exposition_is_byte_identical_across_runs() {
    let expose = || {
        let mut sink = MetricsSink::new();
        stream(&mut sink);
        sink.registry().expose()
    };
    let a = expose();
    let b = expose();
    assert!(
        a.lines().any(|l| l.starts_with("apples_jobs_total")),
        "exposition is missing the job counters:\n{a}"
    );
    assert_eq!(
        a, b,
        "same seed must reproduce the exposition byte for byte"
    );
}

#[test]
fn fanout_sink_feeds_both_consumers_without_perturbing_the_run() {
    let mut trace = VecSink::new();
    let mut metrics = MetricsSink::new();
    let traced = {
        let mut fan = FanoutSink::new();
        fan.push(&mut trace);
        fan.push(&mut metrics);
        stream(&mut fan)
    };
    let plain = stream(&mut NoopSink);
    assert_eq!(
        traced.records, plain.records,
        "fan-out must not perturb the simulation"
    );
    // Both consumers saw the same stream: the per-kind event counters
    // match the trace, and the per-outcome job counters match the
    // profiler's view of the same events.
    let mut by_kind: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for e in &trace.events {
        *by_kind.entry(e.kind()).or_default() += 1;
    }
    for (kind, n) in &by_kind {
        let v = metrics
            .registry()
            .counter_value("apples_events_total", &[("kind", kind)]);
        assert_eq!(v, Some(*n as f64), "event counter for kind {kind}");
    }
    let profile = Profile::from_events(&trace.events);
    let completed = metrics
        .registry()
        .counter_value("apples_jobs_total", &[("outcome", "completed")])
        .unwrap_or(0.0);
    assert_eq!(
        completed as usize,
        profile.jobs.iter().filter(|j| j.completed).count()
    );
}
