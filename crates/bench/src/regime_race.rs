//! T-RACE: three scheduling regimes race on identical seeded streams.
//!
//! The paper argues for application-level (selfish) scheduling; the
//! obvious rebuttals are a centralized batch queue and egalitarian
//! processor sharing. This harness races all three —
//! [`SchedRegime::Selfish`], [`SchedRegime::Batch`] (FCFS + EASY
//! backfilling on the AppLeS estimator's predictions) and
//! [`SchedRegime::Fractional`] (dynamic fractional sharing) — over
//! the *same* realized job stream, the same topology and the same
//! seeded fault schedule, across a set of generated topology
//! families.
//!
//! Reported per (topology, regime):
//!
//! * **stretch** — `(finish − submit) / dedicated_exec`, where the
//!   denominator is the execution time of the job's own kind (class
//!   *and* size) alone on the same (fault-free) topology. Stretch folds queue wait *and* contention
//!   into one application-centric number: 1.0 means "as if I had the
//!   system to myself".
//! * **slowdown** — the classic `(wait + exec) / exec` from the job
//!   records.
//! * **goodput** — completed jobs per hour under fault injection
//!   (failed jobs don't count), plus retry and backfill counts: the
//!   `job_retried` and `job_backfilled` per-kind counts of the time
//!   series each leg already folds for its report timeline.
//!
//! Everything is seeded: the same [`RaceConfig`] renders a
//! byte-identical report, which is what the CI determinism gate
//! checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::table;
use apples_grid::workload::{
    ArrivalProcess, JobKind, JobMix, JobSpec, RetryPolicy, WorkloadConfig,
};
use apples_grid::{
    percentile, run_regime_jobs_with_sink, run_solo_references, FaultInjection, GridConfig,
    GridError, JobRecord, SchedRegime,
};
use metasim::simtrace::VecSink;
use metasim::topogen::TopoSpec;
use metasim::{FaultModel, SimTime};
use obsv::{Composition, SpanTree, TimeSeries, WindowMode, PHASES};

/// Window width of the per-regime report timeline, seconds.
pub const REPORT_WINDOW_SECS: f64 = 300.0;

/// Parameters of one race.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceConfig {
    /// Topology specs to race on (`""` means the Figure-2 SDSC/PCL
    /// testbed; anything else is parsed by [`TopoSpec::parse`]).
    pub topos: Vec<String>,
    /// Mean Poisson arrival rate, jobs per second.
    pub rate_hz: f64,
    /// Submission-window length, seconds.
    pub duration_secs: f64,
    /// Seed for workload, testbed and fault realization.
    pub seed: u64,
    /// Host crashes per host-hour (0 disables fault injection).
    pub crash_rate: f64,
    /// Mean recoverable-outage length, seconds.
    pub mean_outage_secs: f64,
    /// Retry budget shared by every regime.
    pub max_attempts: u32,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig {
            topos: vec![
                String::new(),
                "tree:hosts=16,arity=2,per_seg=4".into(),
                "clusters:clusters=2,segs=2,hosts=4".into(),
            ],
            rate_hz: 0.01,
            duration_secs: 1800.0,
            seed: 1996,
            crash_rate: 1.0,
            mean_outage_secs: 600.0,
            max_attempts: 3,
        }
    }
}

/// One regime's results on one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeCell {
    /// Which policy ran.
    pub regime: SchedRegime,
    /// Jobs submitted (identical across the row's regimes).
    pub jobs: usize,
    /// Jobs that finished their work.
    pub completed: usize,
    /// Jobs that exhausted their retry budget.
    pub failed: usize,
    /// Median stretch over completed jobs.
    pub stretch_p50: f64,
    /// 99th-percentile stretch over completed jobs.
    pub stretch_p99: f64,
    /// Median slowdown over completed jobs.
    pub slowdown_p50: f64,
    /// 99th-percentile slowdown over completed jobs.
    pub slowdown_p99: f64,
    /// Completed jobs per hour of submission window.
    pub goodput_per_hour: f64,
    /// Retry events observed: the series' `job_retried` count.
    pub retries: u64,
    /// EASY backfills (batch regime only): the series'
    /// `job_backfilled` count.
    pub backfills: u64,
    /// Critical-path composition of the regime's span trees.
    pub composition: Composition,
    /// Timeline rows, [`REPORT_WINDOW_SECS`]-wide windows.
    pub series: TimeSeries,
}

/// All regimes' results on one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceTrial {
    /// Topology label (`figure-2` for the default testbed).
    pub topo: String,
    /// One cell per regime, in [`SchedRegime::ALL`] order.
    pub cells: Vec<RegimeCell>,
}

/// Split a comma-separated topology list into individual specs.
///
/// Topology specs themselves contain commas
/// (`clusters:clusters=2,segs=2,hosts=4`), so a naive split would
/// shred them. A comma starts a *new* spec only when the next segment
/// is not a `key=value` parameter — i.e. it names a family
/// (`tree:...`, `star`) or the `figure-2` testbed. `figure-2` maps to
/// the empty string [`RaceConfig::topos`] uses for the default
/// testbed.
pub fn split_topo_list(raw: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for seg in raw.split(',') {
        let seg = seg.trim();
        if seg.is_empty() {
            continue;
        }
        let is_param = seg.contains('=') && !seg.contains(':');
        match out.last_mut() {
            Some(prev) if is_param && !prev.is_empty() => {
                prev.push(',');
                prev.push_str(seg);
            }
            _ => out.push(if seg == "figure-2" {
                String::new()
            } else {
                seg.to_string()
            }),
        }
    }
    out
}

/// Dedicated-execution reference per job kind: the kind streamed alone
/// through a fault-free copy of the topology
/// ([`run_solo_references`]). Shared by every regime on the row, so
/// stretch is comparable across them.
fn reference_execs(
    cfg: &GridConfig,
    jobs: &[JobSpec],
    retry: RetryPolicy,
) -> Result<Vec<(JobKind, f64)>, GridError> {
    let mut kinds: Vec<JobKind> = Vec::new();
    for job in jobs {
        if !kinds.contains(&job.kind) {
            kinds.push(job.kind);
        }
    }
    let records = run_solo_references(cfg, &kinds, retry)?;
    Ok(kinds
        .into_iter()
        .zip(records.iter().map(|r| r.exec_seconds))
        .collect())
}

/// Each job's dedicated-execution reference, by job id: the reference
/// of the job's full [`JobKind`]. A record only carries its kind's
/// class name, which the three Jacobi sizes of the default mix share,
/// so the reference must come through the job id.
fn dedicated_by_id(jobs: &[JobSpec], refs: &[(JobKind, f64)]) -> BTreeMap<usize, f64> {
    jobs.iter()
        .filter_map(|j| {
            let (_, exec) = refs.iter().find(|(k, _)| *k == j.kind)?;
            Some((j.id, *exec))
        })
        .collect()
}

/// Stretch of every completed record against its own job's dedicated
/// execution, floored at 1.0. Records without a usable reference are
/// skipped.
fn stretches(records: &[JobRecord], dedicated: &BTreeMap<usize, f64>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.completed)
        .filter_map(|r| {
            let d = *dedicated.get(&r.id)?;
            let response = r.finish.saturating_sub(r.submit).as_secs_f64();
            (d.is_finite() && d > 0.0).then(|| (response / d).max(1.0))
        })
        .collect()
}

/// Reject a race config whose knobs would panic or silently run
/// something else: every f64 knob must be finite, the rate, duration
/// and mean outage positive, the crash rate non-negative, and the retry
/// budget at least one attempt.
fn check(cfg: &RaceConfig) -> Result<(), GridError> {
    for (what, v, positive) in [
        ("rate", cfg.rate_hz, true),
        ("duration", cfg.duration_secs, true),
        ("mean outage", cfg.mean_outage_secs, true),
        ("crash rate", cfg.crash_rate, false),
    ] {
        let ok = v.is_finite() && if positive { v > 0.0 } else { v >= 0.0 };
        if !ok {
            let want = if positive { "positive" } else { "non-negative" };
            return Err(GridError::InvalidConfig(format!(
                "race {what} must be a finite {want} number, got {v}"
            )));
        }
    }
    if cfg.max_attempts == 0 {
        return Err(GridError::InvalidConfig(
            "race max_attempts must be at least 1".into(),
        ));
    }
    Ok(())
}

/// Race every regime over every topology in `cfg`.
pub fn run_race(cfg: &RaceConfig) -> Result<Vec<RaceTrial>, GridError> {
    run_race_with(cfg, &mut |_, _| {})
}

/// [`run_race`] with a progress callback, invoked once per
/// (topology, regime) pair just before that leg starts. The CLI points
/// it at stderr so the user can see which leg is running. A config
/// whose knobs the race cannot run is a [`GridError::InvalidConfig`].
pub fn run_race_with(
    cfg: &RaceConfig,
    progress: &mut dyn FnMut(&str, SchedRegime),
) -> Result<Vec<RaceTrial>, GridError> {
    check(cfg)?;
    let retry = RetryPolicy {
        max_attempts: cfg.max_attempts,
        ..RetryPolicy::default()
    };
    let duration = SimTime::from_secs_f64(cfg.duration_secs);
    let faults = if cfg.crash_rate > 0.0 {
        FaultInjection::Random(FaultModel {
            host_crashes_per_hour: cfg.crash_rate,
            link_outages_per_hour: 0.0,
            mean_outage: SimTime::from_secs_f64(cfg.mean_outage_secs),
            permanent_fraction: 0.25,
        })
    } else {
        FaultInjection::None
    };

    let mut trials = Vec::with_capacity(cfg.topos.len());
    for spec_raw in &cfg.topos {
        let (label, topo) = if spec_raw.is_empty() {
            ("figure-2".to_string(), None)
        } else {
            let spec = TopoSpec::parse(spec_raw).map_err(GridError::Sim)?;
            (spec_raw.clone(), Some(spec))
        };
        let grid = GridConfig {
            topo,
            seed: cfg.seed,
            faults: faults.clone(),
            ..GridConfig::default()
        };
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson {
                rate_hz: cfg.rate_hz,
            },
            mix: JobMix::default_mix(),
            duration,
            seed: cfg.seed,
            retry,
        };
        // One realization per topology: every regime consumes the
        // exact same job stream and the exact same fault schedule
        // (both keyed by cfg.seed).
        let jobs = workload.realize();
        let dedicated = dedicated_by_id(&jobs, &reference_execs(&grid, &jobs, retry)?);

        let mut cells = Vec::with_capacity(SchedRegime::ALL.len());
        for regime in SchedRegime::ALL {
            progress(&label, regime);
            let mut trace = VecSink::new();
            let out = run_regime_jobs_with_sink(&grid, regime, &jobs, duration, retry, &mut trace)?;
            let composition = SpanTree::from_events(&trace.events).composition();
            let series = TimeSeries::from_events(
                &trace.events,
                WindowMode::Fixed(SimTime::from_secs_f64(REPORT_WINDOW_SECS)),
            );

            let completed: Vec<&JobRecord> = out.records.iter().filter(|r| r.completed).collect();
            let stretches = stretches(&out.records, &dedicated);
            let slowdowns: Vec<f64> = completed.iter().map(|r| r.slowdown).collect();
            cells.push(RegimeCell {
                regime,
                jobs: jobs.len(),
                completed: completed.len(),
                failed: out.records.len() - completed.len(),
                stretch_p50: percentile(&stretches, 50.0),
                stretch_p99: percentile(&stretches, 99.0),
                slowdown_p50: percentile(&slowdowns, 50.0),
                slowdown_p99: percentile(&slowdowns, 99.0),
                goodput_per_hour: completed.len() as f64 / (cfg.duration_secs / 3600.0),
                retries: series.count("job_retried"),
                backfills: series.count("job_backfilled"),
                composition,
                series,
            });
        }
        trials.push(RaceTrial { topo: label, cells });
    }
    Ok(trials)
}

/// Render the race as one table, regimes grouped under each topology.
pub fn render(trials: &[RaceTrial]) -> String {
    let headers = [
        "topology",
        "regime",
        "jobs",
        "done",
        "failed",
        "stretch p50",
        "stretch p99",
        "slowdown p50",
        "slowdown p99",
        "goodput/h",
        "retries",
        "backfills",
    ];
    let mut rows = Vec::new();
    for t in trials {
        for c in &t.cells {
            rows.push(vec![
                t.topo.clone(),
                c.regime.name().to_string(),
                c.jobs.to_string(),
                c.completed.to_string(),
                c.failed.to_string(),
                format!("{:.2}", c.stretch_p50),
                format!("{:.2}", c.stretch_p99),
                format!("{:.2}", c.slowdown_p50),
                format!("{:.2}", c.slowdown_p99),
                format!("{:.1}", c.goodput_per_hour),
                c.retries.to_string(),
                c.backfills.to_string(),
            ]);
        }
    }
    table::render(&headers, &rows)
}

/// Timeline ramp glyphs, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Map `vals` onto the ramp, scaled so `max` hits the last glyph.
fn sparkline(vals: &[f64], max: f64) -> String {
    vals.iter()
        .map(|v| {
            let f = if max > 0.0 {
                (v / max).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let i = (f * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[i.min(RAMP.len() - 1)] as char
        })
        .collect()
}

/// Render the race as a markdown report: the summary table, then per
/// topology a critical-path composition table, the composition diff
/// against the selfish baseline, and per-regime utilization /
/// queue-depth timelines over [`REPORT_WINDOW_SECS`] windows.
///
/// Everything is derived from the seeded race, so the report is
/// byte-identical across reruns — CI regenerates and diffs it.
pub fn render_report(cfg: &RaceConfig, trials: &[RaceTrial]) -> String {
    let mut out = String::new();
    out.push_str("# T-RACE report\n\n");
    let _ = writeln!(
        out,
        "Three scheduling regimes race over identical seeded job streams \
         and fault schedules. Seed {}, arrival rate {:.4} jobs/s, \
         submission window {:.0} s, {:.2} crashes/host-hour, retry \
         budget {}.",
        cfg.seed, cfg.rate_hz, cfg.duration_secs, cfg.crash_rate, cfg.max_attempts
    );
    out.push_str("\n## Summary\n\n```text\n");
    out.push_str(&render(trials));
    out.push_str("```\n");

    for t in trials {
        let _ = writeln!(out, "\n## {}\n", t.topo);

        out.push_str("### Critical-path composition\n\n| regime |");
        for p in PHASES {
            let _ = write!(out, " {} |", p.name());
        }
        out.push_str(" dominates (jobs) | revocations | transfers |\n|---|");
        for _ in PHASES {
            out.push_str("---|");
        }
        out.push_str("---|---|---|\n");
        for c in &t.cells {
            let _ = write!(out, "| {} |", c.regime.name());
            for p in PHASES {
                let _ = write!(out, " {:.2}% |", 100.0 * c.composition.share(p));
            }
            let dom: Vec<String> = c
                .composition
                .dominant_jobs
                .iter()
                .map(|d| d.to_string())
                .collect();
            let _ = writeln!(
                out,
                " {} | {} | {} |",
                dom.join("/"),
                c.composition.revocations,
                c.composition.transfers
            );
        }
        let _ = writeln!(
            out,
            "\nShares are fractions of the summed per-job critical-path \
             makespan; `dominates` counts jobs whose critical path each \
             phase dominates, in {} order.",
            PHASES.map(|p| p.name()).join("/")
        );

        if let Some(base) = t.cells.iter().find(|c| c.regime == SchedRegime::Selfish) {
            out.push_str("\n### Composition vs. selfish (percentage points)\n\n| regime |");
            for p in PHASES {
                let _ = write!(out, " Δ {} |", p.name());
            }
            out.push_str("\n|---|");
            for _ in PHASES {
                out.push_str("---|");
            }
            out.push('\n');
            for c in &t.cells {
                if c.regime == SchedRegime::Selfish {
                    continue;
                }
                let _ = write!(out, "| {} |", c.regime.name());
                for p in PHASES {
                    let delta = 100.0 * (c.composition.share(p) - base.composition.share(p));
                    let _ = write!(out, " {delta:+.2} |");
                }
                out.push('\n');
            }
        }

        // Timeline sparklines on a window grid shared by the row's
        // regimes, so columns line up across them.
        let width = SimTime::from_secs_f64(REPORT_WINDOW_SECS).0.max(1);
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for c in &t.cells {
            for r in &c.series.rows {
                lo = lo.min(r.start.0);
                hi = hi.max(r.start.0);
            }
        }
        if lo <= hi {
            let starts: Vec<u64> = (lo..=hi).step_by(width as usize).collect();
            let _ = writeln!(
                out,
                "\n### Timeline ({:.0} s windows, one glyph per window)\n\n```text",
                REPORT_WINDOW_SECS
            );
            let util_max = t
                .cells
                .iter()
                .flat_map(|c| c.series.rows.iter().map(|r| r.utilization))
                .fold(0.0f64, f64::max);
            let queue_max = t
                .cells
                .iter()
                .flat_map(|c| c.series.rows.iter().map(|r| r.queue_depth as f64))
                .fold(0.0f64, f64::max);
            for c in &t.cells {
                let rows: std::collections::BTreeMap<u64, &obsv::Row> =
                    c.series.rows.iter().map(|r| (r.start.0, r)).collect();
                let util: Vec<f64> = starts
                    .iter()
                    .map(|s| rows.get(s).map_or(0.0, |r| r.utilization))
                    .collect();
                let peak = util.iter().copied().fold(0.0f64, f64::max);
                let _ = writeln!(
                    out,
                    "{:<10} util  |{}| peak {:.2} busy hosts",
                    c.regime.name(),
                    sparkline(&util, util_max),
                    peak
                );
            }
            // Fractional (processor-sharing) regimes realize work as
            // occupancy write-back (LoadImposed), not discrete compute
            // events, so a separate "load" lane keeps them visible.
            let load_max = t
                .cells
                .iter()
                .flat_map(|c| {
                    c.series
                        .rows
                        .iter()
                        .map(|r| r.imposed_load_seconds / REPORT_WINDOW_SECS)
                })
                .fold(0.0f64, f64::max);
            for c in &t.cells {
                let rows: std::collections::BTreeMap<u64, &obsv::Row> =
                    c.series.rows.iter().map(|r| (r.start.0, r)).collect();
                let load: Vec<f64> = starts
                    .iter()
                    .map(|s| {
                        rows.get(s)
                            .map_or(0.0, |r| r.imposed_load_seconds / REPORT_WINDOW_SECS)
                    })
                    .collect();
                let peak = load.iter().copied().fold(0.0f64, f64::max);
                let _ = writeln!(
                    out,
                    "{:<10} load  |{}| peak {:.2} occupied hosts",
                    c.regime.name(),
                    sparkline(&load, load_max),
                    peak
                );
            }
            for c in &t.cells {
                let rows: std::collections::BTreeMap<u64, &obsv::Row> =
                    c.series.rows.iter().map(|r| (r.start.0, r)).collect();
                let queue: Vec<f64> = starts
                    .iter()
                    .map(|s| rows.get(s).map_or(0.0, |r| r.queue_depth as f64))
                    .collect();
                let peak = queue.iter().copied().fold(0.0f64, f64::max);
                let _ = writeln!(
                    out,
                    "{:<10} queue |{}| peak {:.0} waiting",
                    c.regime.name(),
                    sparkline(&queue, queue_max),
                    peak
                );
            }
            out.push_str("```\n");
            out.push_str(
                "\n`util` counts hosts busy with discrete compute events; `load` \
                 counts hosts occupied by imposed background load — fractional \
                 (processor-sharing) runs realize all work as occupancy \
                 write-back, so they appear in the `load` lane, not `util`.\n",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RaceConfig {
        RaceConfig {
            topos: vec![String::new()],
            rate_hz: 0.005,
            duration_secs: 1200.0,
            crash_rate: 0.5,
            ..RaceConfig::default()
        }
    }

    #[test]
    fn every_bad_knob_is_an_invalid_config() {
        type Knob = fn(&mut RaceConfig);
        let cases: [(&str, Knob); 14] = [
            ("rate", |c| c.rate_hz = f64::NAN),
            ("rate", |c| c.rate_hz = f64::INFINITY),
            ("rate", |c| c.rate_hz = 0.0),
            ("rate", |c| c.rate_hz = -0.01),
            ("duration", |c| c.duration_secs = f64::NAN),
            ("duration", |c| c.duration_secs = f64::INFINITY),
            ("duration", |c| c.duration_secs = 0.0),
            ("crash rate", |c| c.crash_rate = f64::NAN),
            ("crash rate", |c| c.crash_rate = f64::INFINITY),
            ("crash rate", |c| c.crash_rate = -1.0),
            ("mean outage", |c| c.mean_outage_secs = f64::NAN),
            ("mean outage", |c| c.mean_outage_secs = f64::INFINITY),
            ("mean outage", |c| c.mean_outage_secs = 0.0),
            ("max_attempts", |c| c.max_attempts = 0),
        ];
        for (what, spoil) in cases {
            let mut cfg = tiny();
            spoil(&mut cfg);
            let mut legs = 0;
            match run_race_with(&cfg, &mut |_, _| legs += 1) {
                Err(GridError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{what}: {msg}")
                }
                other => panic!("{what}: {cfg:?} gave {other:?}"),
            }
            assert_eq!(legs, 0, "{what}: no leg may start");
        }
        // Zero crashes is a valid rate: the fault-free race.
        assert!(check(&RaceConfig {
            crash_rate: 0.0,
            ..tiny()
        })
        .is_ok());
    }

    #[test]
    fn stretch_divides_by_each_jobs_own_size() {
        // Two Jacobi sizes share the class name `jacobi2d`; each job
        // responds in exactly its own dedicated time, so both
        // stretches are 1.0.
        let small = JobKind::Jacobi {
            n: 800,
            iterations: 60,
        };
        let large = JobKind::Jacobi {
            n: 1200,
            iterations: 1500,
        };
        let jobs: Vec<JobSpec> = [small, large]
            .into_iter()
            .enumerate()
            .map(|(id, kind)| JobSpec {
                id,
                submit: SimTime::ZERO,
                kind,
            })
            .collect();
        let refs = [(small, 10.0), (large, 560.0)];
        let record = |id: usize, secs: f64| JobRecord {
            id,
            kind: "jacobi2d".into(),
            submit: SimTime::from_secs(600),
            start: SimTime::from_secs(600),
            finish: SimTime::from_secs(600) + SimTime::from_secs_f64(secs),
            hosts: vec![],
            wait_seconds: 0.0,
            exec_seconds: secs,
            slowdown: 1.0,
            attempts: 1,
            reschedules: 0,
            completed: true,
        };
        let records = [record(0, 10.0), record(1, 560.0)];
        assert_eq!(
            stretches(&records, &dedicated_by_id(&jobs, &refs)),
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn uncontended_selfish_stretch_is_about_one() {
        // Seed 5 streams seven jobs on the tree, none overlapping
        // another: Jacobi 1200²×300 first, then 800²×60 and
        // 1200²×1500, plus a farm job. Keyed by class name, the last
        // Jacobi's stretch would divide by the first Jacobi's solo
        // time (5× less work). Keyed by the job's own kind, only the
        // light profile's background load separates a job from its
        // solo run: every stretch stays under 1.3 (1.22 at most).
        let cfg = RaceConfig {
            topos: vec!["tree:hosts=16,arity=2,per_seg=4".into()],
            rate_hz: 0.0004,
            duration_secs: 20_000.0,
            seed: 5,
            crash_rate: 0.0,
            ..RaceConfig::default()
        };
        let trials = run_race(&cfg).unwrap();
        let selfish = &trials[0].cells[0];
        assert_eq!(selfish.regime, SchedRegime::Selfish);
        assert_eq!((selfish.jobs, selfish.completed), (7, 7));
        // With seven stretches, p99 interpolates 94% of the way from
        // the second largest to the largest.
        assert!(
            selfish.stretch_p99 < 1.3,
            "uncontended selfish stretch p99 {}",
            selfish.stretch_p99
        );
    }

    #[test]
    fn topo_list_splitting_respects_spec_internal_commas() {
        assert_eq!(
            split_topo_list("figure-2,clusters:clusters=2,segs=2,hosts=4,star:hosts=6,per_seg=3"),
            vec![
                String::new(),
                "clusters:clusters=2,segs=2,hosts=4".to_string(),
                "star:hosts=6,per_seg=3".to_string(),
            ]
        );
        assert_eq!(split_topo_list("star"), vec!["star".to_string()]);
        assert_eq!(split_topo_list(""), Vec::<String>::new());
        // A stray leading parameter cannot attach to anything — it
        // stands alone and will fail topology parsing loudly later.
        assert_eq!(split_topo_list("hosts=4"), vec!["hosts=4".to_string()]);
    }

    #[test]
    fn race_is_deterministic_and_loses_no_jobs() {
        let cfg = tiny();
        let a = run_race(&cfg).unwrap();
        let b = run_race(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(render(&a), render(&b));
        for t in &a {
            let jobs = t.cells[0].jobs;
            for c in &t.cells {
                assert_eq!(c.jobs, jobs, "regimes saw different streams");
                assert_eq!(c.completed + c.failed, jobs, "{} lost jobs", c.regime);
            }
        }
    }

    #[test]
    fn only_batch_backfills() {
        let trials = run_race(&tiny()).unwrap();
        for t in &trials {
            for c in &t.cells {
                if c.regime != SchedRegime::Batch {
                    assert_eq!(c.backfills, 0, "{} reported backfills", c.regime);
                }
            }
        }
    }

    #[test]
    fn report_is_deterministic_and_compositions_partition() {
        let cfg = tiny();
        let a = run_race(&cfg).unwrap();
        let b = run_race(&cfg).unwrap();
        let report = render_report(&cfg, &a);
        assert_eq!(report, render_report(&cfg, &b));
        assert!(report.contains("## Summary"));
        assert!(report.contains("### Critical-path composition"));
        assert!(report.contains("### Composition vs. selfish"));
        assert!(report.contains("### Timeline"));
        for t in &a {
            for c in &t.cells {
                // Every closed job folded, and the phase microseconds
                // partition the summed makespan exactly.
                assert_eq!(c.composition.jobs, c.completed + c.failed, "{}", c.regime);
                assert_eq!(
                    c.composition.phase_us.iter().sum::<u64>(),
                    c.composition.total_us,
                    "{} composition does not partition",
                    c.regime
                );
                assert!(!c.series.rows.is_empty(), "{} has no timeline", c.regime);
            }
        }
    }

    #[test]
    fn progress_callback_sees_every_leg_in_order() {
        let cfg = RaceConfig {
            topos: vec!["star:hosts=6".into()],
            rate_hz: 0.004,
            duration_secs: 1000.0,
            crash_rate: 0.0,
            ..RaceConfig::default()
        };
        let mut legs: Vec<(String, SchedRegime)> = Vec::new();
        run_race_with(&cfg, &mut |topo, regime| {
            legs.push((topo.to_string(), regime));
        })
        .unwrap();
        let expect: Vec<(String, SchedRegime)> = SchedRegime::ALL
            .iter()
            .map(|r| ("star:hosts=6".to_string(), *r))
            .collect();
        assert_eq!(legs, expect);
    }

    #[test]
    fn generated_topologies_race_too() {
        let cfg = RaceConfig {
            topos: vec!["star:hosts=6".into()],
            rate_hz: 0.004,
            duration_secs: 1000.0,
            crash_rate: 0.0,
            ..RaceConfig::default()
        };
        let trials = run_race(&cfg).unwrap();
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].topo, "star:hosts=6");
        assert_eq!(trials[0].cells.len(), 3);
        for c in &trials[0].cells {
            assert!(c.completed > 0, "{} completed nothing", c.regime);
        }
    }
}
