//! `race-clean` and `race-faults`: the three scheduling regimes raced
//! over seeded job streams on a generated 16-host tree.

use std::time::Instant;

use apples_bench::regime_race::{render, run_race_with, RaceConfig, REPORT_WINDOW_SECS};
use apples_grid::{
    run_regime_jobs_with_sink, ArrivalProcess, FaultInjection, GridConfig, GridError, JobMix,
    JobSpec, RetryPolicy, SchedRegime, WorkloadConfig,
};
use metasim::simtrace::{EventSink, TraceEvent, VecSink};
use metasim::topogen::TopoSpec;
use metasim::{FaultSpec, HostFault, HostId, SimTime};
use obsv::{MetricsSink, SpanTree, TimeSeriesSink};

use crate::clock::{ClockReport, HostClock, Layer};
use crate::report::{ratio, secs_since, Fnv, Outcome};
use crate::spans::SpanLog;
use crate::{mix, passes, Mode};

/// Topology every race runs on.
pub const TOPO: &str = "tree:hosts=16,arity=2,per_seg=4";
/// Mean Poisson arrival rate of every stream, jobs per second.
const RATE_HZ: f64 = 0.02;
/// `race-faults`: one host crashes every this many seconds...
const FAULT_PERIOD_S: u64 = 150;
/// ...and recovers this many seconds later, so at most one host is down
/// at a time and the feasible pool never shrinks to the size at which
/// the selector switches to exhaustive search.
const FAULT_OUTAGE_S: u64 = 120;

/// How much a race workload runs.
#[derive(Debug, Clone, Copy)]
pub struct RaceSize {
    /// Seeded streams raced per pass.
    pub streams: usize,
    /// Jobs in each stream.
    pub jobs: usize,
    /// Streams of the traced pass (a prefix of the pass).
    pub traced_streams: usize,
}

/// One seeded stream and the knobs every regime sees.
struct Stream {
    race: RaceConfig,
    grid: GridConfig,
    duration: SimTime,
    retry: RetryPolicy,
    jobs: Vec<JobSpec>,
}

impl Stream {
    /// Stream `i` of `seed`: exactly `jobs` Poisson arrivals (the
    /// window closes halfway between the last arrival and the next),
    /// with `regime_race::run_race`'s grid and retry settings.
    fn new(seed: u64, i: usize, jobs: usize, faulted: bool) -> Result<Stream, String> {
        let seed = mix(seed, i as u64);
        let horizon = SimTime::from_secs_f64(20.0 * (jobs + 1) as f64 / RATE_HZ);
        let arrivals = ArrivalProcess::Poisson { rate_hz: RATE_HZ }.realize(horizon, seed);
        let (Some(last), Some(next)) = (arrivals.get(jobs.saturating_sub(1)), arrivals.get(jobs))
        else {
            return Err(format!("stream {i} has fewer than {} arrivals", jobs + 1));
        };
        let race = RaceConfig {
            topos: vec![TOPO.to_string()],
            rate_hz: RATE_HZ,
            duration_secs: (last.as_secs_f64() + next.as_secs_f64()) / 2.0,
            seed,
            crash_rate: 0.0,
            ..RaceConfig::default()
        };
        // The same derivation as `run_race_with`; the traced pass checks
        // that it reproduces the race's cells.
        let retry = RetryPolicy {
            max_attempts: race.max_attempts,
            ..RetryPolicy::default()
        };
        let duration = SimTime::from_secs_f64(race.duration_secs);
        let mut grid = GridConfig {
            topo: Some(TopoSpec::parse(TOPO).map_err(|e| e.to_string())?),
            seed,
            ..GridConfig::default()
        };
        if faulted {
            let hosts = grid.topo.as_ref().map_or(0, TopoSpec::host_count) as u64;
            let mut spec = FaultSpec::none();
            let mut at = grid.warmup + SimTime::from_secs(FAULT_PERIOD_S / 2);
            while at < grid.warmup + duration {
                let k = spec.host_faults.len() as u64;
                spec.host_faults.push(HostFault {
                    host: HostId((mix(seed, k) % hosts) as usize),
                    at,
                    recover: Some(at + SimTime::from_secs(FAULT_OUTAGE_S)),
                });
                at += SimTime::from_secs(FAULT_PERIOD_S);
            }
            grid.faults = FaultInjection::Spec(spec);
        }
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: RATE_HZ },
            mix: JobMix::default_mix(),
            duration,
            seed,
            retry,
        };
        let stream = workload.realize();
        if stream.len() != jobs {
            return Err(format!(
                "stream {i} realized {} jobs, not {jobs}",
                stream.len()
            ));
        }
        Ok(Stream {
            race,
            grid,
            duration,
            retry,
            jobs: stream,
        })
    }
}

/// The sinks `regime_race` feeds every leg, each timed on its own.
struct ObsvSinks {
    metrics: MetricsSink,
    series: TimeSeriesSink,
    trace: VecSink,
    /// Host seconds of the metrics, time-series and span sinks.
    secs: [f64; 3],
}

impl ObsvSinks {
    fn new() -> ObsvSinks {
        ObsvSinks {
            metrics: MetricsSink::new(),
            series: TimeSeriesSink::fixed_seconds(REPORT_WINDOW_SECS),
            trace: VecSink::new(),
            secs: [0.0; 3],
        }
    }
}

impl EventSink for ObsvSinks {
    fn record(&mut self, event: TraceEvent) {
        let t0 = Instant::now();
        self.metrics.record(event.clone());
        let t1 = Instant::now();
        self.series.record(event.clone());
        let t2 = Instant::now();
        self.trace.record(event);
        self.secs[0] += (t1 - t0).as_secs_f64();
        self.secs[1] += (t2 - t1).as_secs_f64();
        self.secs[2] += secs_since(t2);
    }
}

/// One regime's counts on one stream: what must not change between
/// passes, or between the untraced and traced runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    jobs: usize,
    completed: usize,
    failed: usize,
    retries: u64,
}

/// What a traced leg measured.
#[derive(Default)]
struct LegTrace {
    clock: ClockReport,
    /// Metrics, time-series and span sinks, folds included.
    obsv_secs: [f64; 3],
    /// The span-tree and time-series folds after the run.
    fold_secs: f64,
    events: u64,
}

/// Run one regime over one stream the way `run_race_with` runs a leg:
/// the obsv sinks see every event, then the span tree and time series
/// are folded. With `spans`, a [`HostClock`] wraps the sinks.
fn leg(
    s: &Stream,
    regime: SchedRegime,
    spans: Option<&mut SpanLog>,
    digest: &mut Fnv,
) -> Result<(Cell, LegTrace), GridError> {
    let mut obsv = ObsvSinks::new();
    let run = |sink: &mut dyn EventSink| {
        run_regime_jobs_with_sink(&s.grid, regime, &s.jobs, s.duration, s.retry, sink)
    };
    let mut trace = LegTrace::default();
    let out = match spans {
        Some(log) => {
            let mut clock = HostClock::new(&mut obsv, log, regime.name(), Some(Layer::Setup));
            let out = run(&mut clock);
            trace.clock = clock.finish(Layer::Stream);
            out
        }
        None => run(&mut obsv),
    }?;
    let t = Instant::now();
    let composition = SpanTree::from_events(&obsv.trace.events).composition();
    let spans_fold = secs_since(t);
    let t = Instant::now();
    let series = obsv.series.finalize();
    let series_fold = secs_since(t);
    std::hint::black_box((composition, series));
    obsv.secs[1] += series_fold;
    obsv.secs[2] += spans_fold;
    trace.obsv_secs = obsv.secs;
    trace.fold_secs = series_fold + spans_fold;
    trace.events = obsv.trace.events.len() as u64;

    let completed = out.records.iter().filter(|r| r.completed).count();
    for r in &out.records {
        digest.write_u64(r.id as u64);
        digest.write_u64(u64::from(r.attempts));
        digest.write_u64(r.finish.as_micros());
        digest.write_u64(r.exec_seconds.to_bits());
    }
    let cell = Cell {
        jobs: s.jobs.len(),
        completed,
        failed: out.records.len() - completed,
        retries: obsv
            .metrics
            .registry()
            .counter_value("apples_job_retries_total", &[])
            .unwrap_or(0.0) as u64,
    };
    Ok((cell, trace))
}

/// One stream raced once, untraced.
struct Raced {
    /// The stream's output, compared across passes.
    text: String,
    cells: Vec<Cell>,
    /// Reference runs, then the selfish, batch and fractional legs.
    secs: [f64; 4],
}

/// `race-clean` races through the front door, `run_race_with`; the
/// progress callback stamps the legs. `race-faults` has no front door
/// for its fixed fault schedule and runs the same legs directly.
fn race(s: &Stream, faulted: bool) -> Result<Raced, GridError> {
    let t0 = Instant::now();
    if faulted {
        let mut digest = Fnv::default();
        let mut cells = Vec::new();
        let mut secs = [0.0; 4];
        for (i, regime) in SchedRegime::ALL.into_iter().enumerate() {
            let t = Instant::now();
            cells.push(leg(s, regime, None, &mut digest)?.0);
            secs[i + 1] = secs_since(t);
        }
        return Ok(Raced {
            text: format!("{cells:?} {:016x}", digest.finish()),
            cells,
            secs,
        });
    }
    let mut stamps = Vec::with_capacity(3);
    let trials = run_race_with(&s.race, &mut |_, _| stamps.push(secs_since(t0)))?;
    let end = secs_since(t0);
    let cells = trials
        .iter()
        .flat_map(|t| &t.cells)
        .map(|c| Cell {
            jobs: c.jobs,
            completed: c.completed,
            failed: c.failed,
            retries: c.retries,
        })
        .collect();
    let mut secs = [0.0; 4];
    let mut prev = 0.0;
    for (slot, at) in secs.iter_mut().zip(stamps.iter().chain([&end])) {
        *slot = at - prev;
        prev = *at;
    }
    Ok(Raced {
        text: render(&trials),
        cells,
        secs,
    })
}

/// Race every stream once; `None` where the race errored.
fn race_pass(streams: &[Stream], faulted: bool, out: &mut Outcome) -> Vec<Option<Raced>> {
    let mut raced = Vec::with_capacity(streams.len());
    for (i, s) in streams.iter().enumerate() {
        match race(s, faulted) {
            Ok(r) => {
                let lost = r.cells.iter().any(|c| c.completed + c.failed != c.jobs);
                out.op(!lost && r.cells.len() == 3, || {
                    format!("stream {i}: a regime lost jobs: {:?}", r.cells)
                });
                raced.push(Some(r));
            }
            Err(e) => {
                out.op(false, || format!("stream {i}: {e}"));
                raced.push(None);
            }
        }
    }
    raced
}

/// Run a race workload.
pub fn run(faulted: bool, seed: u64, size: RaceSize, mode: &Mode, out: &mut Outcome) {
    let make = || {
        (0..size.streams)
            .map(|i| Stream::new(seed, i, size.jobs, faulted))
            .collect::<Result<Vec<_>, _>>()
    };
    let streams = match mode.setup(out, make) {
        Ok(s) => s,
        Err(e) => return out.op(false, || e),
    };
    if mode.trace {
        let traced_streams = &streams[..size.traced_streams.min(streams.len())];
        return traced(traced_streams, faulted, mode, out);
    }

    let mut first: Vec<Option<String>> = Vec::new();
    let mut races = Vec::new();
    passes(mode.seconds, || {
        let raced = race_pass(&streams, faulted, out);
        for (i, r) in raced.into_iter().enumerate() {
            let text = r.map(|r| {
                races.push(r.secs.iter().sum());
                r.text
            });
            match first.get(i) {
                None => {
                    if let Some(t) = &text {
                        out.digest.write(t.as_bytes());
                    }
                    first.push(text);
                }
                Some(f) => out.op(text.is_some() && *f == text, || {
                    format!("stream {i}: output differs from the first pass")
                }),
            }
        }
    });
    out.set_timing("wall_s", &races);
}

/// Per-layer pass: race `streams` untraced for the leg split, then run
/// every leg again under a [`HostClock`].
fn traced(streams: &[Stream], faulted: bool, mode: &Mode, out: &mut Outcome) {
    let raced = race_pass(streams, faulted, out);
    let mut legs = [0.0; 4];
    for r in raced.iter().flatten() {
        for (a, b) in legs.iter_mut().zip(r.secs) {
            *a += b;
        }
        out.digest.write(r.text.as_bytes());
    }
    out.set("bench.regime_race.refs_s", legs[0]);
    out.set("grid.sched.selfish_s", legs[1]);
    out.set("grid.sched.batch_s", legs[2]);
    out.set("grid.sched.fractional_s", legs[3]);

    let mut spans = SpanLog::new(Instant::now());
    let mut clock = ClockReport::default();
    let mut obsv = [0.0; 3];
    let mut folds = 0.0;
    let mut events = 0;
    let mut traced_wall = 0.0;
    for (i, (s, r)) in streams.iter().zip(&raced).enumerate() {
        for (j, regime) in SchedRegime::ALL.into_iter().enumerate() {
            let t = Instant::now();
            let result = leg(s, regime, Some(&mut spans), &mut Fnv::default());
            traced_wall += secs_since(t);
            match result {
                Ok((cell, trace)) => {
                    let want = r.as_ref().and_then(|r| r.cells.get(j));
                    out.op(want == Some(&cell), || {
                        format!("stream {i} {regime}: traced {cell:?}, untraced {want:?}")
                    });
                    clock.add(&trace.clock);
                    for (a, b) in obsv.iter_mut().zip(trace.obsv_secs) {
                        *a += b;
                    }
                    folds += trace.fold_secs;
                    events += trace.events;
                }
                Err(e) => out.op(false, || format!("stream {i} {regime} traced: {e}")),
            }
        }
    }
    clock.set_metrics(out);
    out.set("obsv.metrics_s", obsv[0]);
    out.set("obsv.timeseries_s", obsv[1]);
    out.set("obsv.spans_s", obsv[2]);
    out.set("obsv.events", events as f64);
    let untraced = legs[1] + legs[2] + legs[3];
    out.set("trace_overhead_frac", ratio(traced_wall, untraced) - 1.0);
    out.set(
        "unattributed_frac",
        1.0 - ratio(clock.total_secs() + folds, traced_wall),
    );
    crate::write_spans(mode, &spans, out);
}
