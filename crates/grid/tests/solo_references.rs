//! `run_solo_references` shares one warmed Weather Service across the
//! kinds of a race row. Each reference must still equal, bit for bit,
//! the job run alone from scratch on a fault-free copy of the testbed.

use apples_grid::{
    run_regime_jobs_with_sink, run_solo_references, FaultInjection, GridConfig, JobKind, JobMix,
    JobSpec, Regime, RetryPolicy, SchedRegime,
};
use metasim::simtrace::NoopSink;
use metasim::topogen::TopoSpec;
use metasim::{FaultModel, SimTime};

#[test]
fn shared_warmup_references_equal_independent_solo_runs() {
    let kinds: Vec<JobKind> = JobMix::default_mix()
        .entries
        .iter()
        .map(|(k, _)| *k)
        .collect();
    let retry = RetryPolicy::with_attempts(3);
    let tree = TopoSpec::parse("tree:hosts=16,arity=2,per_seg=4").expect("valid spec");
    for topo in [None, Some(tree)] {
        for seed in [1996, 7] {
            for regime in [Regime::Aware, Regime::Blind] {
                // Faults on the row's config must not reach the references.
                let cfg = GridConfig {
                    topo,
                    seed,
                    regime,
                    faults: FaultInjection::Random(FaultModel {
                        host_crashes_per_hour: 2.0,
                        link_outages_per_hour: 0.0,
                        mean_outage: SimTime::from_secs(600),
                        permanent_fraction: 0.25,
                    }),
                    ..GridConfig::default()
                };
                let quiet = GridConfig {
                    faults: FaultInjection::None,
                    ..cfg.clone()
                };
                let shared = run_solo_references(&cfg, &kinds, retry).expect("references");
                assert_eq!(shared.len(), kinds.len());
                for (kind, fast) in kinds.iter().zip(&shared) {
                    let solo = [JobSpec {
                        id: 0,
                        submit: SimTime::ZERO,
                        kind: *kind,
                    }];
                    let out = run_regime_jobs_with_sink(
                        &quiet,
                        SchedRegime::Selfish,
                        &solo,
                        SimTime::from_secs(3600),
                        retry,
                        &mut NoopSink,
                    )
                    .expect("solo run");
                    let slow = &out.records[0];
                    let at = format!("{kind:?} on {topo:?}, seed {seed}, {regime:?}");
                    assert_eq!(
                        fast.exec_seconds.to_bits(),
                        slow.exec_seconds.to_bits(),
                        "exec_seconds of {at}"
                    );
                    assert_eq!(fast.finish, slow.finish, "finish of {at}");
                    assert_eq!(fast, slow, "record of {at}");
                }
            }
        }
    }
}
