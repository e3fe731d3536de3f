//! Cross-commit golden digests for the three scheduling regimes.
//!
//! The determinism gates elsewhere compare two runs of the *same*
//! build. This test pins one small faulted stream per regime to an
//! FNV-64 digest of its JSONL trace and of its job records, so a
//! refactor that changes any output — one event, one field, one
//! float bit — fails here. When a change is *meant* to alter output,
//! recompute the digests and say why in the commit.

use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, FaultInjection, GridConfig, SchedRegime};
use metasim::simtrace::{TraceEvent, VecSink};
use metasim::{FaultModel, SimTime, TopoSpec};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
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
    }
}

fn grid() -> GridConfig {
    GridConfig {
        seed: 11,
        faults: FaultInjection::Random(FaultModel {
            host_crashes_per_hour: 8.0,
            link_outages_per_hour: 0.0,
            mean_outage: SimTime::from_secs(600),
            permanent_fraction: 0.25,
        }),
        ..GridConfig::default()
    }
}

/// The same stream on a generated 16-host tree under a heavier fault
/// load, so permanent crashes truncate generated host series.
fn tree_grid() -> GridConfig {
    GridConfig {
        topo: Some(TopoSpec::parse("tree:hosts=16,arity=2,per_seg=4").expect("tree spec")),
        faults: FaultInjection::Random(FaultModel {
            host_crashes_per_hour: 12.0,
            link_outages_per_hour: 0.0,
            mean_outage: SimTime::from_secs(600),
            permanent_fraction: 0.5,
        }),
        ..grid()
    }
}

struct Golden {
    trace: u64,
    records: u64,
    events: Vec<TraceEvent>,
}

fn run(cfg: &GridConfig, regime: SchedRegime) -> Golden {
    let w = workload();
    let mut sink = VecSink::new();
    let out = run_regime_jobs_with_sink(cfg, regime, &w.realize(), w.duration, w.retry, &mut sink)
        .expect("golden stream");
    let mut trace = Fnv::new();
    for e in &sink.events {
        trace.write(e.to_json().as_bytes());
        trace.write(b"\n");
    }
    let mut records = Fnv::new();
    for r in &out.records {
        records.write(format!("{r:?}\n").as_bytes());
    }
    Golden {
        trace: trace.0,
        records: records.0,
        events: sink.events,
    }
}

fn count(events: &[TraceEvent], kind: &str) -> usize {
    events.iter().filter(|e| e.kind() == kind).count()
}

#[test]
fn regime_outputs_match_their_golden_digests() {
    // (regime, trace digest, records digest)
    let want = [
        (
            SchedRegime::Selfish,
            0xb395_a51a_ded7_80fd,
            0x7aec_6908_d41b_3571,
        ),
        (
            SchedRegime::Batch,
            0x09da_678f_c529_649b,
            0x6e13_25b4_672f_e468,
        ),
        (
            SchedRegime::Fractional,
            0x158f_c94f_4be8_1f35,
            0xf68d_c6b8_2c1c_fa95,
        ),
    ];
    for (regime, trace, records) in want {
        let g = run(&grid(), regime);
        // The stream must reach the fault and retry paths, or the
        // digests pin nothing interesting.
        let retries = count(&g.events, "job_retried");
        let revocations = count(&g.events, "placement_revoked");
        let backfills = count(&g.events, "job_backfilled");
        assert!(retries > 0, "{regime}: no retry");
        match regime {
            SchedRegime::Batch => assert!(backfills > 0, "batch: no backfill"),
            _ => assert!(revocations > 0, "{regime}: no revocation"),
        }
        assert_eq!(
            (g.trace, g.records),
            (trace, records),
            "{regime}: output changed (got trace {:#018x}, records {:#018x})",
            g.trace,
            g.records
        );
    }
}

#[test]
fn generated_tree_outputs_match_their_golden_digests() {
    // (regime, trace digest, records digest)
    let want = [
        (
            SchedRegime::Selfish,
            0x85c7_fc6d_4e44_a18a,
            0xcc1d_36e4_fc24_4ab5,
        ),
        (
            SchedRegime::Batch,
            0x033d_2651_2a2f_971f,
            0xa0aa_dd4d_7a0f_b92d,
        ),
        (
            SchedRegime::Fractional,
            0xc6a1_ea19_c77b_589b,
            0x59c9_56de_f0d3_74f4,
        ),
    ];
    for (regime, trace, records) in want {
        let g = run(&tree_grid(), regime);
        let permanent = g
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::HostFaultInjected { recover: None, .. }))
            .count();
        assert!(permanent > 0, "{regime}: no permanent crash");
        assert!(count(&g.events, "job_retried") > 0, "{regime}: no retry");
        assert_eq!(
            (g.trace, g.records),
            (trace, records),
            "{regime}: output changed (got trace {:#018x}, records {:#018x})",
            g.trace,
            g.records
        );
    }
}
