//! Property tests for the scheduling-regime layer: whatever the seed,
//! all three regimes must schedule exactly the same job set, EASY
//! backfilling must never delay the head-of-queue reservation, and
//! fractional shares must never oversubscribe a host. The last two
//! are checked by the regimes themselves on every stream: a violation
//! is a `GridError::Internal`, so here a stream must simply succeed.

use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, FaultInjection, GridConfig, SchedRegime};
use metasim::simtrace::{TraceEvent, VecSink};
use metasim::{FaultModel, SimTime};
use proptest::prelude::*;

/// One job's lifecycle events in a trace.
#[derive(Default)]
struct Lifecycle {
    submitted: u32,
    dispatched: u32,
    retried: u32,
    /// `(completed, at)` of every `JobCompleted` / `JobFailed`.
    terminal: Vec<(bool, SimTime)>,
}

impl Lifecycle {
    fn of(events: &[TraceEvent], id: usize) -> Lifecycle {
        let mut l = Lifecycle::default();
        for e in events {
            match *e {
                TraceEvent::JobSubmitted { job, .. } if job == id => l.submitted += 1,
                TraceEvent::JobDispatched { job, .. } if job == id => l.dispatched += 1,
                TraceEvent::JobRetried { job, .. } if job == id => l.retried += 1,
                TraceEvent::JobCompleted { job, at, .. } if job == id => {
                    l.terminal.push((true, at))
                }
                TraceEvent::JobFailed { job, at, .. } if job == id => l.terminal.push((false, at)),
                _ => {}
            }
        }
        l
    }
}

fn workload(seed: u64, gap_secs: u64) -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Uniform {
            gap: SimTime::from_secs(gap_secs),
        },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs(1500),
        seed,
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
    }
}

fn grid(seed: u64, crash_rate: f64) -> GridConfig {
    GridConfig {
        seed,
        faults: if crash_rate > 0.0 {
            FaultInjection::Random(FaultModel {
                host_crashes_per_hour: crash_rate,
                link_outages_per_hour: 0.0,
                mean_outage: SimTime::from_secs(600),
                permanent_fraction: 0.25,
            })
        } else {
            FaultInjection::None
        },
        ..GridConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No regime may lose or duplicate work: every submitted job id
    /// appears exactly once in the outcome, completed or failed, and
    /// its trace follows the lifecycle its record reports: one
    /// submission, one dispatch per attempt, one retry between
    /// consecutive attempts, and one terminal event at the record's
    /// finish.
    #[test]
    fn regimes_conserve_the_job_set(seed in 0u64..1000, crash_rate in 0.0f64..3.0) {
        let w = workload(seed, 180);
        let cfg = grid(seed, if crash_rate < 1.0 { 0.0 } else { crash_rate });
        let jobs = w.realize();
        let mut want: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        want.sort_unstable();
        for regime in SchedRegime::ALL {
            let mut sink = VecSink::new();
            let out = run_regime_jobs_with_sink(
                &cfg, regime, &jobs, w.duration, w.retry, &mut sink,
            ).expect("stream");
            let mut got: Vec<usize> = out.records.iter().map(|r| r.id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "regime {} lost or duplicated jobs", regime);
            for r in &out.records {
                prop_assert!(r.finish >= r.start, "job {} finished before starting", r.id);
                prop_assert!(r.start >= r.submit, "job {} started before submission", r.id);
                let l = Lifecycle::of(&sink.events, r.id);
                prop_assert_eq!(l.submitted, 1, "{} job {}: submissions", regime, r.id);
                prop_assert_eq!(l.dispatched, r.attempts, "{} job {}: dispatches", regime, r.id);
                prop_assert_eq!(l.retried + 1, r.attempts, "{} job {}: retries", regime, r.id);
                prop_assert_eq!(
                    &l.terminal,
                    &[(r.completed, r.finish)],
                    "{} job {}: terminal events", regime, r.id
                );
            }
        }
    }

    /// The EASY invariant: a backfill may start out of FCFS order only
    /// if it cannot push the head-of-queue reservation later.
    #[test]
    fn easy_backfills_never_delay_the_head(seed in 0u64..1000) {
        let w = workload(seed, 60);
        let cfg = grid(seed, 0.0);
        let jobs = w.realize();
        let mut sink = VecSink::new();
        let out = run_regime_jobs_with_sink(
            &cfg, SchedRegime::Batch, &jobs, w.duration, w.retry, &mut sink,
        ).unwrap_or_else(|e| panic!("batch stream: {e}"));
        prop_assert_eq!(out.records.len(), jobs.len());
    }

    /// Processor sharing conserves capacity: on every host, over every
    /// constant-share interval, resident shares sum to at most 1.
    #[test]
    fn fractional_shares_conserve_capacity(seed in 0u64..1000) {
        let w = workload(seed, 90);
        let cfg = grid(seed, 0.0);
        let jobs = w.realize();
        let mut sink = VecSink::new();
        let out = run_regime_jobs_with_sink(
            &cfg, SchedRegime::Fractional, &jobs, w.duration, w.retry, &mut sink,
        ).unwrap_or_else(|e| panic!("fractional stream: {e}"));
        prop_assert_eq!(out.records.len(), jobs.len());
    }
}
