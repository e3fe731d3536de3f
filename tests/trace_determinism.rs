//! simtrace determinism: the whole point of structured tracing over a
//! deterministic simulator is that the event stream is part of the
//! reproducibility contract. Same seed → byte-identical JSONL, and the
//! `trace diff` machinery must report zero divergence on such a pair.

use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{GridConfig, GridOutcome, GridService, SchedRegime};
use metasim::simtrace::{
    first_divergence, EventSink, NoopSink, TraceEvent, TraceSummary, VecSink, WriterSink,
};
use metasim::{HostId, SimTime};
use obsv::{MetricsSink, Phase, Profile, TimeSeries, TimeSeriesSink, WindowMode};

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
        mix: JobMix::default_mix(),
        duration: s(300.0),
        seed: 7,
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

/// Run the stream with a JSONL sink and return the bytes written.
fn traced_jsonl() -> String {
    let mut sink = WriterSink::new(Vec::new());
    stream(&mut sink);
    assert!(sink.take_error().is_none());
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_jsonl();
    let b = traced_jsonl();
    assert!(!a.is_empty(), "traced stream emitted nothing");
    assert_eq!(a, b, "same seed must reproduce the trace byte for byte");
    assert!(
        first_divergence(&a, &b).is_none(),
        "diff machinery disagrees with byte equality"
    );
}

#[test]
fn trace_diff_pinpoints_the_first_divergence() {
    let a = traced_jsonl();
    // Corrupt one line mid-stream and check the report names it.
    let lines: Vec<&str> = a.lines().collect();
    let k = lines.len() / 2;
    let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    mutated[k] = mutated[k].replace("\"at\":", "\"at\":9");
    let b = mutated.join("\n") + "\n";
    let d = first_divergence(&a, &b).expect("mutation must diverge");
    assert_eq!(d.line, k + 1, "divergence line is 1-indexed");
    assert_eq!(d.left.as_deref(), Some(lines[k]));
    // A truncated right side reports the missing line as absent.
    let truncated: String = lines[..k]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>();
    let d = first_divergence(&a, &truncated).expect("truncation must diverge");
    assert_eq!(d.line, k + 1);
    assert!(d.right.is_none());
}

#[test]
fn traced_grid_run_spans_the_stack_and_matches_untraced() {
    let mut sink = VecSink::new();
    let traced = stream(&mut sink);
    let plain = stream(&mut NoopSink);
    assert_eq!(
        traced.records, plain.records,
        "attaching a sink must not perturb the simulation"
    );

    let summary = TraceSummary::from_events(&sink.events);
    assert_eq!(summary.events, sink.events.len());
    assert!(
        summary.by_kind.len() >= 6,
        "expected at least 6 distinct event kinds, got {:?}",
        summary.by_kind
    );
    // At least one event from each layer of the stack.
    let kinds: Vec<&str> = summary.by_kind.keys().map(|k| k.as_str()).collect();
    for (layer, witness) in [
        ("metasim", "compute_start"),
        ("nws", "forecast_issued"),
        ("core", "schedule_chosen"),
        ("grid", "job_completed"),
    ] {
        assert!(kinds.contains(&witness), "no {witness} event from {layer}");
    }

    // The JSONL round-trip preserves the per-kind counts.
    let jsonl: String = sink.events.iter().map(|e| e.to_json() + "\n").collect();
    let (parsed, skipped) = TraceEvent::from_jsonl(&jsonl);
    assert_eq!(skipped, 0, "every emitted line must parse");
    let reparsed = TraceSummary::from_events(&parsed);
    assert_eq!(reparsed.by_kind, summary.by_kind);
    assert_eq!(reparsed.first_at, summary.first_at);
    assert_eq!(reparsed.last_at, summary.last_at);
}

/// The time series of `events`, fed after the run.
fn series(events: &[TraceEvent], mode: WindowMode) -> TimeSeries {
    let mut sink = TimeSeriesSink::new(mode);
    for e in events {
        sink.record(e.clone());
    }
    sink.finalize()
}

/// The derived timelines (busy seconds, queue depth, decision latency)
/// as the obsv views compute them, on a hand-built trace where every
/// value can be checked against arithmetic done by eye.
#[test]
fn derived_timelines_match_hand_computed_values() {
    let events = vec![
        TraceEvent::JobSubmitted {
            job: 0,
            kind: "spmd".into(),
            at: s(1.0),
        },
        TraceEvent::JobSubmitted {
            job: 1,
            kind: "pipe".into(),
            at: s(2.0),
        },
        TraceEvent::JobDispatched {
            job: 0,
            at: s(3.0),
            attempt: 1,
        },
        // Host 2 computes over [6, 10]: 4 s of the [5, 10) window.
        TraceEvent::ComputeFinish {
            host: HostId(2),
            at: s(10.0),
            elapsed_seconds: 4.0,
        },
        TraceEvent::JobRetried {
            job: 0,
            at: s(11.0),
            attempt: 1,
        },
        TraceEvent::JobDispatched {
            job: 0,
            at: s(12.0),
            attempt: 2,
        },
        TraceEvent::JobCompleted {
            job: 0,
            at: s(13.0),
            exec_seconds: 1.0,
        },
        TraceEvent::JobDispatched {
            job: 1,
            at: s(14.0),
            attempt: 1,
        },
        TraceEvent::JobCompleted {
            job: 1,
            at: s(16.0),
            exec_seconds: 2.0,
        },
    ];

    let profile = Profile::from_events(&events);
    assert_eq!(profile.hosts.len(), 1);
    assert!((profile.hosts[&HostId(2)].compute_seconds - 4.0).abs() < 1e-9);

    // Windows [0,5) [5,10) [10,15) [15,20): only the second is busy.
    let fixed = series(&events, WindowMode::Fixed(s(5.0)));
    let util: Vec<f64> = fixed.rows.iter().map(|r| r.utilization).collect();
    assert_eq!(util.len(), 4);
    for (got, want) in util.iter().zip([0.0, 0.8, 0.0, 0.0]) {
        assert!((got - want).abs() < 1e-9, "utilization {util:?}");
    }

    // submit(+1) submit(+1) dispatch(-1) compute retry(+1) dispatch(-1)
    // complete dispatch(-1) complete: the retry re-enters the queue at
    // its own instant, t = 11.
    let aligned = series(&events, WindowMode::EventAligned);
    let depth: Vec<(f64, u64)> = aligned
        .rows
        .iter()
        .map(|r| (r.start.as_secs_f64(), r.queue_depth))
        .collect();
    assert_eq!(
        depth,
        vec![
            (1.0, 1),
            (2.0, 2),
            (3.0, 1),
            (10.0, 1),
            (11.0, 2),
            (12.0, 1),
            (13.0, 1),
            (14.0, 0),
            (16.0, 0)
        ]
    );

    // Decision latency is submit → *first* dispatch: the queue-wait
    // bucket. The retry does not reset it.
    let latency: Vec<f64> = profile
        .jobs
        .iter()
        .map(|j| j.bucket_seconds(Phase::QueueWait))
        .collect();
    assert_eq!(latency, vec![2.0, 12.0]);
}

/// The same views on a real traced run: cross-check them against each
/// other and against the stream's own invariants.
#[test]
fn derived_timelines_are_consistent_on_a_real_trace() {
    let mut sink = VecSink::new();
    stream(&mut sink);
    let events = &sink.events;
    let profile = Profile::from_events(events);

    // Busy seconds, three ways: the profile's host totals, the metrics
    // registry's per-host counters, and the time series' windows (the
    // same ComputeFinish intervals spread across 10 s windows).
    let mut metrics = MetricsSink::new();
    for e in events {
        metrics.record(e.clone());
    }
    let busy: f64 = profile.hosts.values().map(|h| h.compute_seconds).sum();
    assert!(busy > 0.0, "no compute events in the stream");
    for (host, h) in &profile.hosts {
        let label = host.0.to_string();
        let counted = metrics
            .registry()
            .counter_value("apples_host_busy_seconds_total", &[("host", &label)])
            .unwrap_or(0.0);
        assert!(
            (counted - h.compute_seconds).abs() < 1e-6,
            "host {host:?}: profile says {} s, metrics {counted} s",
            h.compute_seconds
        );
    }
    let windowed: f64 = series(events, WindowMode::Fixed(s(10.0)))
        .rows
        .iter()
        .map(|r| r.busy_seconds)
        .sum();
    assert!(
        (windowed - busy).abs() < 1e-6 * busy.max(1.0),
        "windows sum to {windowed} s, hosts to {busy} s"
    );

    // Queue depth is time-ordered and ends at zero: the 300 s stream
    // drains completely.
    let aligned = series(events, WindowMode::EventAligned);
    assert!(!aligned.rows.is_empty());
    assert_eq!(aligned.rows.last().map(|r| r.queue_depth), Some(0));
    for w in aligned.rows.windows(2) {
        assert!(w[0].start < w[1].start, "rows must be time-ordered");
    }

    // Every dispatched job closed with a queue-wait (decision latency)
    // bucket of its own.
    let dispatched: std::collections::BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobDispatched { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    let profiled: std::collections::BTreeSet<usize> = profile.jobs.iter().map(|j| j.job).collect();
    assert_eq!(profiled, dispatched);
    assert_eq!(profile.unclosed_jobs, 0);
}
