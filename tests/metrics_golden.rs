//! Cross-commit golden digests of the metrics exposition.
//!
//! CI checks that two `metrics` runs of one build agree; this test pins
//! the bytes of `MetricsSink::registry().expose()` across commits, so a
//! refactor of the metrics fold that moves any byte, or makes a series
//! appear or vanish, fails here. Three simulated streams carry
//! reschedules, revocations, retries, backfills, `job_work_measured`
//! and the fractional regime's load write-back; a hand-built stream
//! pins the series-presence rules on odd inputs. When a change is
//! *meant* to alter the exposition, recompute its digest (the failure
//! message prints the new ones) and say why in the commit.

use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, FaultInjection, GridConfig, SchedRegime};
use metasim::simtrace::{EventSink, TraceEvent, VecSink};
use metasim::{FaultModel, HostId, LinkId, SimTime};
use obsv::MetricsSink;

/// 64-bit FNV-1a of a string.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One faulted stream of the given regime on the aware Figure-2 grid.
fn traced(regime: SchedRegime) -> Vec<TraceEvent> {
    let w = WorkloadConfig {
        arrivals: ArrivalProcess::Uniform {
            gap: SimTime::from_secs(80),
        },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs(1200),
        seed: 11,
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    };
    let grid = GridConfig {
        seed: 11,
        faults: FaultInjection::Random(FaultModel {
            host_crashes_per_hour: 8.0,
            link_outages_per_hour: 0.0,
            mean_outage: SimTime::from_secs(600),
            permanent_fraction: 0.25,
        }),
        ..GridConfig::default()
    };
    let mut sink = VecSink::new();
    run_regime_jobs_with_sink(&grid, regime, &w.realize(), w.duration, w.retry, &mut sink)
        .expect("traced stream");
    sink.events
}

/// A stream no simulator emits: each event tests one presence rule.
fn hand_built() -> Vec<TraceEvent> {
    let t = SimTime::from_secs_f64;
    vec![
        // A dispatch before any submission: queue depth clamps at 0.
        TraceEvent::JobDispatched {
            job: 9,
            at: t(1.0),
            attempt: 1,
        },
        TraceEvent::JobSubmitted {
            job: 0,
            kind: "jacobi".into(),
            at: t(2.0),
        },
        // Negative and non-finite work: no Mflop series from these.
        TraceEvent::ComputeStart {
            host: HostId(3),
            at: t(3.0),
            work_mflop: -1.0,
        },
        TraceEvent::ComputeStart {
            host: HostId(3),
            at: t(3.0),
            work_mflop: f64::INFINITY,
        },
        // NaN elapsed: a compute-seconds series with only a dropped
        // NaN, and no busy series for host 3.
        TraceEvent::ComputeFinish {
            host: HostId(3),
            at: t(4.0),
            elapsed_seconds: f64::NAN,
        },
        // Host 10 sorts before host 2 in the label order.
        TraceEvent::ComputeFinish {
            host: HostId(10),
            at: t(4.5),
            elapsed_seconds: 0.25,
        },
        TraceEvent::ComputeFinish {
            host: HostId(2),
            at: t(4.5),
            elapsed_seconds: -0.0,
        },
        // A finish with no start: no transfer-seconds observation; its
        // negative mb adds no MB series.
        TraceEvent::TransferFinish {
            from: HostId(1),
            to: HostId(2),
            at: t(5.0),
            mb: -8.0,
            contention_share: 0.5,
        },
        TraceEvent::ForecastIssued {
            at: t(6.0),
            resource: "cpu:1".into(),
            predicted: f64::NAN,
            observed: 0.5,
            error: 0.1,
            method: "mean".into(),
        },
        TraceEvent::HostFaultInjected {
            at: t(7.0),
            host: HostId(4),
            recover: None,
        },
        TraceEvent::RescheduleDecision {
            at: t(8.0),
            keep_seconds: 10.0,
            move_seconds: 12.0,
            move_cost_seconds: 1.0,
            migrated: false,
        },
        // A completion with no submission still counts and observes.
        TraceEvent::JobCompleted {
            job: 7,
            at: t(9.0),
            exec_seconds: 3.5,
        },
        // The last event is not the latest: the gauge reads 8.5.
        TraceEvent::LoadImposed {
            at: t(8.5),
            host: HostId(2),
            until: t(20.0),
            factor: 0.5,
        },
    ]
}

fn exposition(events: &[TraceEvent]) -> String {
    let mut sink = MetricsSink::new();
    for e in events {
        sink.record(e.clone());
    }
    sink.registry().expose()
}

#[test]
fn hand_built_stream_keeps_the_presence_rules() {
    let text = exposition(&hand_built());
    for present in [
        "apples_queue_depth 1\n",
        "apples_queue_depth_peak 1\n",
        "apples_compute_seconds_count 2\n",
        "apples_host_busy_seconds_total{host=\"10\"} 0.25\n",
        "apples_jobs_total{outcome=\"completed\"} 1\n",
        "apples_forecast_abs_error_count 0\n",
        "apples_transfer_contention_share_count 1\n",
        "apples_reschedule_decisions_total{migrated=\"false\"} 1\n",
        "apples_sim_last_event_seconds 8.5\n",
    ] {
        assert!(text.contains(present), "missing {present:?} in\n{text}");
    }
    for absent in [
        "\napples_compute_work_mflop_total ",
        "\napples_transfer_mb_total ",
        "\napples_transfer_seconds_count",
        "\napples_host_busy_seconds_total{host=\"3\"}",
        "\napples_host_busy_seconds_total{host=\"2\"}",
        "\napples_faults_injected_total{target=\"link\"}",
        "\napples_job_retries_total ",
    ] {
        assert!(!text.contains(absent), "unexpected {absent:?} in\n{text}");
    }
}

#[test]
fn exposition_matches_its_golden_digests() {
    // (stream, event kinds it must carry, exposition digest)
    let streams: [(&str, Vec<TraceEvent>, &[&str], u64); 4] = [
        (
            "selfish",
            traced(SchedRegime::Selfish),
            &[
                "reschedule_decision",
                "placement_revoked",
                "job_retried",
                "transfer_finish",
            ],
            0xe1cf_856c_a430_a349,
        ),
        (
            "batch",
            traced(SchedRegime::Batch),
            &["job_backfilled", "transfer_finish"],
            0x2146_a93e_3656_8e92,
        ),
        (
            "fractional",
            traced(SchedRegime::Fractional),
            &["job_work_measured", "load_imposed"],
            0xcfa8_6290_e450_9a39,
        ),
        ("hand-built", hand_built(), &[], 0x9af1_d187_d034_8e2f),
    ];
    let mut failures = Vec::new();
    for (name, events, kinds, want) in streams {
        for kind in kinds {
            assert!(
                events.iter().any(|e| e.kind() == *kind),
                "{name}: the stream carries no {kind}"
            );
        }
        let got = fnv(&exposition(&events));
        if got != want {
            failures.push(format!("{name}: 0x{got:016x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "exposition digests moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn link_faults_take_their_own_series() {
    let mut sink = MetricsSink::new();
    sink.record(TraceEvent::LinkFaultInjected {
        at: SimTime::from_secs(1),
        link: LinkId(0),
        recover: Some(SimTime::from_secs(2)),
    });
    let r = sink.registry();
    assert_eq!(
        r.counter_value("apples_faults_injected_total", &[("target", "link")]),
        Some(1.0)
    );
    assert_eq!(
        r.counter_value("apples_faults_injected_total", &[("target", "host")]),
        None
    );
}
