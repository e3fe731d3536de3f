//! Cross-commit golden digests of the trace folds: simprof's folded
//! stacks, table and gantt, and the span tree's JSONL, rendering and
//! composition.
//!
//! CI diffs `prof` and `spans` output between two runs of one build;
//! this test pins them across commits, so a refactor of the folds in
//! `obsv` that moves any byte fails here. The three streams together
//! carry retries, revocations, backfills, transfers and
//! `job_work_measured`. When a change is *meant* to alter a view,
//! recompute its digest (the failure message prints the new ones) and
//! say why in the commit.

use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, FaultInjection, GridConfig, SchedRegime};
use metasim::simtrace::{TraceEvent, VecSink};
use metasim::{FaultModel, SimTime};
use obsv::{Profile, SpanTree};

/// 64-bit FNV-1a of a string.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

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

/// The gantt split into its job lanes (with the header) and its host
/// lanes.
fn gantt_halves(profile: &Profile) -> (String, String) {
    let g = profile.gantt(72);
    match g.find("hosts (busy fraction per column)") {
        Some(i) => (g[..i].to_string(), g[i..].to_string()),
        None => (g, String::new()),
    }
}

/// Digests of every view, in a fixed order: folded, table, gantt job
/// lanes, gantt host lanes, span JSONL, span rendering, composition.
fn digests(events: &[TraceEvent]) -> [u64; 7] {
    let profile = Profile::from_events(events);
    let tree = SpanTree::from_events(events);
    let (jobs, hosts) = gantt_halves(&profile);
    [
        fnv(&profile.folded()),
        fnv(&profile.table()),
        fnv(&jobs),
        fnv(&hosts),
        fnv(&tree.to_jsonl()),
        fnv(&tree.render()),
        fnv(&tree.composition().to_json()),
    ]
}

#[test]
fn fold_views_match_their_golden_digests() {
    // (regime, event kinds the stream must carry, view digests)
    let want: [(SchedRegime, &[&str], [u64; 7]); 3] = [
        (
            SchedRegime::Selfish,
            &["job_retried", "placement_revoked", "transfer_finish"],
            [
                0x9953_fd9c_b681_b438,
                0x19ac_1a26_a69b_9c72,
                0x2bb7_7e9d_e9b7_774f,
                0x7cff_78a4_b4bb_fbbb,
                0x105c_317a_7bb4_7726,
                0x57ab_7a12_70b5_bdf6,
                0x48ef_77dc_19a9_6b03,
            ],
        ),
        (
            SchedRegime::Batch,
            &["job_backfilled", "transfer_finish"],
            [
                0x07b0_2eb5_d78a_f144,
                0xeaaa_e623_435b_bca0,
                0x80bf_e10c_8a3b_e2ac,
                0x1125_21dc_c349_ff4f,
                0xf4a2_4236_dc4e_d264,
                0x2d35_07c1_b52b_cdc3,
                0x1ac7_b338_b4c1_ebe2,
            ],
        ),
        (
            SchedRegime::Fractional,
            &["job_work_measured"],
            [
                0x8e5b_c481_b761_d5a2,
                0xda2f_610a_77a4_3cdc,
                0x92ac_f7f6_ded0_5517,
                0xcbf2_9ce4_8422_2325,
                0x165a_a9f2_c890_a627,
                0xe4fd_f2e0_ee7b_58ce,
                0xef0d_26bb_cbb8_7f07,
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (regime, kinds, digest) in want {
        let events = traced(regime);
        for kind in kinds {
            assert!(
                events.iter().any(|e| e.kind() == *kind),
                "{regime}: the stream carries no {kind}"
            );
        }
        let got = digests(&events);
        if got != digest {
            let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
            failures.push(format!("{regime}: [{}]", hex.join(", ")));
        }
    }
    assert!(
        failures.is_empty(),
        "fold digests moved (folded, table, gantt jobs, gantt hosts, spans jsonl, \
         spans render, composition):\n{}",
        failures.join("\n")
    );
}
