//! Subcommand implementations.

use crate::args::{ArgError, Parsed};
use apples::coordinator::Coordinator;
use apples::info::{ForecastSource, InfoPool};
use apples::user::{PerformanceMetric, UserSpec};
use apples::Schedule;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{blocked_uniform, static_strip};
use apples_apps::react3d;
use apples_bench::table;
use metasim::exec::simulate_spmd;
use metasim::host::{HostSpec, SharingPolicy};
use metasim::testbed::{pcl_sdsc, LoadProfile, Testbed, TestbedConfig};
use metasim::{HostId, NoopSink, SimTime};
use nws::{ResourceKey, WeatherService, WeatherServiceConfig};

/// How a command that ran ends: [`Outcome::Differs`] (exit 1) is the
/// negative answer of a comparison or a check, not a failure.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Ran to the end (exit 0).
    Done,
    /// `trace diff` or `snapshot-diff` found a difference, or a
    /// `reproduce` check failed (exit 1).
    Differs,
}
use Outcome::{Differs, Done};

pub type CmdResult = Result<Outcome, Box<dyn std::error::Error>>;

fn profile_of(p: &Parsed) -> Result<LoadProfile, ArgError> {
    match p.get("profile", "moderate") {
        "dedicated" => Ok(LoadProfile::Dedicated),
        "light" => Ok(LoadProfile::Light),
        "moderate" => Ok(LoadProfile::Moderate),
        "heavy" => Ok(LoadProfile::Heavy),
        other => Err(ArgError(format!("unknown profile {other:?}"))),
    }
}

fn build_testbed(p: &Parsed) -> Result<Testbed, Box<dyn std::error::Error>> {
    let cfg = TestbedConfig {
        profile: profile_of(p)?,
        horizon: apples_grid::GridConfig::default().horizon,
        seed: p.get_parsed("seed", 1996u64)?,
        with_sp2: p.switch("sp2"),
    };
    Ok(pcl_sdsc(&cfg)?)
}

/// `apples-cli testbed` — FIG2: the SDSC/PCL system configuration.
pub fn testbed(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let topo = &tb.topo;
    println!(
        "Figure 2: SDSC/PCL system configuration for Jacobi2D, profile {:?}\n",
        profile_of(p)?
    );
    let hosts: Vec<Vec<String>> = topo
        .hosts()
        .iter()
        .map(|h| {
            let sharing = match h.spec.sharing {
                SharingPolicy::TimeShared => "time-shared",
                SharingPolicy::SpaceShared { .. } => "dedicated",
            };
            let segment = topo
                .segment_link(h.spec.segment)
                .and_then(|l| topo.link(l).map(|l| l.spec.name.clone()))
                .unwrap_or_default();
            let mean = h.mean_availability(SimTime::ZERO, SimTime::from_secs(100_000));
            vec![
                h.spec.name.clone(),
                format!("{:.0}", h.spec.mflops),
                format!("{:.0}", h.spec.mem_mb),
                sharing.into(),
                segment,
                format!("{mean:.2}"),
            ]
        })
        .collect();
    let headers = [
        "host",
        "Mflop/s",
        "mem MB",
        "sharing",
        "segment",
        "mean avail",
    ];
    println!("{}", table::render(&headers, &hosts));
    let links: Vec<Vec<String>> = topo
        .links()
        .iter()
        .map(|l| {
            vec![
                l.spec.name.clone(),
                format!("{:.2}", l.spec.bandwidth_mbps),
                format!("{:.1}", l.spec.latency.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["medium", "MB/s", "latency ms"], &links)
    );
    Ok(Done)
}

/// `apples-cli schedule`
pub fn schedule(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 2000)?;
    let iterations: usize = p.get_parsed("iterations", 100)?;
    let warmup = SimTime::from_secs(p.get_parsed("warmup", 600u64)?);

    let (hat, mut user) = jacobi_context(n, iterations);
    user.max_hosts = p.get_parsed("max-hosts", usize::MAX)?;
    user.metric = match p.get("metric", "time") {
        "time" => PerformanceMetric::ExecutionTime,
        "speedup" => PerformanceMetric::Speedup,
        other => match other.strip_prefix("cost:") {
            Some(rate) => PerformanceMetric::Cost {
                per_host_second: rate
                    .parse()
                    .map_err(|_| ArgError(format!("bad cost rate {rate:?}")))?,
            },
            None => return Err(ArgError(format!("unknown metric {other:?}")).into()),
        },
    };
    let source = match p.get("source", "nws") {
        "nws" => ForecastSource::Nws,
        "last-value" => ForecastSource::LastValue,
        "oracle" => ForecastSource::Oracle,
        "static" => ForecastSource::StaticNominal,
        other => return Err(ArgError(format!("unknown source {other:?}")).into()),
    };

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, warmup);
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup).with_source(source);
    let agent = Coordinator::new(hat.clone(), user.clone());
    let decision = agent.decide(&pool)?;
    let report =
        apples::actuator::actuate(&tb.topo, &hat, decision.schedule(), warmup, &mut NoopSink)?;

    println!(
        "Jacobi2D {n}x{n}, {iterations} iterations — {} candidates considered, {} rejected",
        decision.considered.len(),
        decision.rejected
    );
    if let Schedule::Stencil(s) = decision.schedule() {
        for part in &s.parts {
            let h = tb.topo.host(part.host)?;
            println!(
                "  {:>14}: {:>5} rows ({:>5.1}%)",
                h.spec.name,
                part.rows,
                part.rows as f64 / n as f64 * 100.0
            );
        }
    }
    println!(
        "predicted {:.2} s, actuated {:.2} s",
        decision.chosen().predicted_seconds,
        report.elapsed_seconds
    );
    Ok(Done)
}

/// `apples-cli compare`
pub fn compare(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 2000)?;
    let iterations: usize = p.get_parsed("iterations", 100)?;
    let warmup = SimTime::from_secs(600);
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, warmup);
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);
    let apples = apples_apps::jacobi2d::apples_stencil_schedule(&pool)?;
    let a = simulate_spmd(&tb.topo, &apples.to_spmd_job(t, warmup), &mut NoopSink)?;

    let ws_hosts = tb.workstations();
    let strip = static_strip(&tb.topo, n, iterations, &ws_hosts);
    let s = simulate_spmd(&tb.topo, &strip.to_spmd_job(t, warmup), &mut NoopSink)?;
    let blocked = blocked_uniform(n, iterations, &ws_hosts);
    let b = simulate_spmd(&tb.topo, &blocked.to_spmd_job(t, warmup), &mut NoopSink)?;

    let (a, s, b) = (
        a.makespan(warmup).as_secs_f64(),
        s.makespan(warmup).as_secs_f64(),
        b.makespan(warmup).as_secs_f64(),
    );
    println!("Jacobi2D {n}x{n}, {iterations} iterations (one trial):");
    println!("  AppLeS       {a:>9.2} s");
    println!("  static Strip {s:>9.2} s   ({:.2}x)", s / a);
    println!("  HPF Blocked  {b:>9.2} s   ({:.2}x)", b / a);
    Ok(Done)
}

/// `apples-cli forecast`
pub fn forecast(p: &Parsed) -> CmdResult {
    let until: u64 = p.get_parsed("until", 3600u64)?;
    // Past the horizon every load holds its last value, so the service
    // would track a flat signal the testbed never realized.
    let horizon_s = apples_grid::GridConfig::default().horizon.as_micros() / 1_000_000;
    if until > horizon_s {
        return Err(ArgError(format!(
            "--until {until}: past the testbed's {horizon_s} s load horizon"
        ))
        .into());
    }
    let tb = build_testbed(p)?;
    let host = HostId(p.get_parsed("host", 1usize)?);
    let name = &tb.topo.host(host)?.spec.name;
    println!("NWS tracking {name} for {until} s:");
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    let key = ResourceKey::Cpu(host);
    let step = (until / 12).max(60);
    let mut t = step;
    println!(
        "{:>8}  {:>8}  {:>8}  {:>7}  predictor",
        "time s", "measured", "forecast", "err"
    );
    while t <= until {
        let now = SimTime::from_secs(t);
        ws.advance(&tb.topo, now);
        if let (Some(cur), Some(f)) = (ws.current(key), ws.forecast(key)) {
            println!(
                "{:>8}  {:>8.3}  {:>8.3}  {:>7.4}  {}",
                t, cur, f.value, f.error, f.method
            );
        }
        t += step;
    }
    Ok(Done)
}

/// `apples-cli react` — T-REACT: single-site vs pipelined 3D-REACT,
/// the depth sweep at the best unit size and the unit-size sweep; or
/// one distributed run with `--unit`.
pub fn react(p: &Parsed) -> CmdResult {
    const HOUR: f64 = 3600.0;
    let seed: u64 = p.get_parsed("seed", 0u64)?;
    let unit: usize = p.get_parsed("unit", 0usize)?;
    if unit > 0 {
        let depth: usize = p.get_parsed("depth", 4usize)?;
        let tb = react3d::casa_testbed(seed)?;
        let c90 = react3d::single_site_run(&tb, tb.c90)?.as_secs_f64() / HOUR;
        let par = react3d::single_site_run(&tb, tb.paragon)?.as_secs_f64() / HOUR;
        println!("3D-REACT: single-site C90 {c90:.2} h, Paragon {par:.2} h");
        let run = react3d::distributed_run(&tb, unit, depth)?;
        println!(
            "distributed (unit {unit}, depth {depth}): {:.2} h",
            run.makespan(SimTime::ZERO).as_secs_f64() / HOUR
        );
        return Ok(Done);
    }
    if !p.get("depth", "").is_empty() {
        return Err(ArgError("--depth needs --unit (the sweep runs depth 4)".into()).into());
    }

    let r = apples_bench::react_exp::run(seed);
    println!("3D-REACT (quantum reactive scattering, H + D2 => HD + D)\n");
    println!("single-site C90:      {:>7.2} h", r.c90_hours);
    println!("single-site Paragon:  {:>7.2} h", r.paragon_hours);
    println!(
        "distributed pipeline: {:>7.2} h  (pipeline size {} SF, speedup {:.1}x)\n",
        r.distributed_hours, r.best_unit, r.speedup
    );

    let depths =
        react3d::sweep_pipeline_depths(&react3d::casa_testbed(seed)?, r.best_unit, &[1, 2, 4, 8])?;
    println!(
        "pipeline-depth sweep at the best unit size ({} SF):",
        r.best_unit
    );
    let depth_rows: Vec<Vec<String>> = depths
        .iter()
        .map(|d| {
            vec![
                format!("{}", d.depth),
                format!("{:.2}", d.makespan_s / HOUR),
                format!("{:.0}", d.producer_block_s),
                format!("{:.0}", d.consumer_stall_s),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["depth", "hours", "producer blocked s", "consumer stalled s"],
            &depth_rows
        )
    );
    println!();

    println!("pipeline-size sweep (surface functions per subdomain):");
    let rows: Vec<Vec<String>> = r
        .sweep
        .iter()
        .map(|&(u, h)| {
            vec![
                format!("{u}"),
                format!("{h:.2}"),
                if u == r.best_unit {
                    "<- best".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    println!("{}", table::render(&["unit SF", "hours", ""], &rows));
    println!(
        "Paper (§2.3): both machines alone exceed 16 h; the distributed\n\
         platform finishes in just under 5 h; subdomains of 5-20 surface\n\
         functions balance stall (too small) against lost overlap and\n\
         buffering cost (too large)."
    );
    Ok(Done)
}

/// `apples-cli nile` — T-NILE: the Site Manager's skim-vs-remote
/// decision on the NILE testbed, across campaign lengths.
pub fn nile(p: &Parsed) -> CmdResult {
    let events: u64 = p.get_parsed("events", 150_000u64)?;
    let seed: u64 = p.get_parsed("seed", 0u64)?;
    let runs: Vec<usize> = if p.get("runs", "").is_empty() {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![p.get_parsed("runs", 1usize)?]
    };
    println!("CLEO/NILE event analysis: skim vs remote access ({events} events)\n");
    let rows: Vec<Vec<String>> = apples_bench::nile_exp::run(events, &runs, seed)
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.runs),
                if r.skim { "skim" } else { "remote" }.into(),
                table::secs(r.predicted_s),
                table::secs(r.alternative_s),
                table::secs(r.measured_s),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["runs", "decision", "predicted s", "alt s", "measured s"],
            &rows
        )
    );
    println!(
        "A single pass stays remote (skimming copies ~3x the bytes one\n\
         analysis reads); repeated passes amortize the skim and the Site\n\
         Manager switches to building a private local data set."
    );
    Ok(Done)
}

/// `apples-cli resched` — RESCHED: a one-shot AppLeS decision versus
/// phase-wise rescheduling, on four hosts whose load regimes swap
/// pairwise at t = 660 s.
pub fn resched(p: &Parsed) -> CmdResult {
    use apples::rescheduler::ReschedulingAgent;
    use metasim::load::LoadModel;
    let n: usize = p.get_parsed("n", 1600)?;
    let iterations: usize = p.get_parsed("iterations", 600)?;
    let phase: usize = p.get_parsed("phase", 50)?;
    let seed: u64 = p.get_parsed("seed", 0u64)?;

    let mut b = metasim::net::TopologyBuilder::new();
    let seg = b.add_segment(metasim::net::LinkSpec::dedicated(
        "seg",
        12.5,
        SimTime::from_micros(500),
    ));
    let flip = SimTime::from_secs(660);
    for (name, before, after) in [("early-idle", 0.95, 0.1), ("late-idle", 0.1, 0.95)] {
        for i in 0..2 {
            b.add_host(HostSpec::workstation(
                &format!("{name}-{i}"),
                30.0,
                1024.0,
                seg,
                LoadModel::Trace(vec![(SimTime::ZERO, before), (flip, after)]),
            ));
        }
    }
    let topo = b.instantiate(SimTime::from_secs(1_000_000), seed)?;
    let start = SimTime::from_secs(600);
    let hat = apples::hat::jacobi2d_hat(n, iterations);
    let user = UserSpec::default();

    // One-shot: decide once at t = 600 s and ride it out.
    let mut ws1 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws1.advance(&topo, start);
    let one_shot = Coordinator::new(hat.clone(), user.clone());
    let (_, one_shot_report) = one_shot.run(&topo, &ws1, start, &mut NoopSink)?;

    // Adaptive: re-plan every `phase` iterations, migrate when the
    // predicted savings beat the data-movement cost.
    let mut ws2 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    let mut adaptive = ReschedulingAgent::new(Coordinator::new(hat, user));
    adaptive.policy.phase_iterations = phase;
    let report = adaptive.run_stencil(&topo, &mut ws2, start, &mut NoopSink)?;

    println!(
        "Mid-execution rescheduling: Jacobi2D {n}x{n}, {iterations} iterations,\n\
         load regime flips at t = 660 s (run starts at t = 600 s)\n"
    );
    println!(
        "one-shot AppLeS:      {:>8.1} s",
        one_shot_report.elapsed_seconds
    );
    println!(
        "rescheduling AppLeS:  {:>8.1} s  ({} migration(s))\n",
        report.elapsed_seconds, report.migrations
    );
    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                format!("{i}"),
                format!("{:.0}", p.start.as_secs_f64()),
                format!("{}", p.iterations),
                table::secs(p.elapsed_seconds),
                if p.migrated {
                    format!("yes ({:.1} s)", p.migration_seconds)
                } else {
                    String::new()
                },
                format!("{}", p.hosts.len()),
            ]
        })
        .collect();
    let headers = [
        "phase",
        "t start",
        "iters",
        "elapsed s",
        "migrated",
        "hosts",
    ];
    println!("{}", table::render(&headers, &rows));
    println!(
        "speedup from rescheduling: {:.2}x",
        one_shot_report.elapsed_seconds / report.elapsed_seconds
    );
    Ok(Done)
}

/// `apples-cli advise`
pub fn advise_cmd(p: &Parsed) -> CmdResult {
    use apples::advisor::advise;
    use metasim::host::SharingPolicy;
    let wait: f64 = p.get_parsed("wait", 900.0f64)?;
    let avail: f64 = p.get_parsed("avail", 0.35f64)?;
    let n: usize = p.get_parsed("n", 1200)?;
    let iterations: usize = p.get_parsed("iterations", 800)?;

    let mut b = metasim::net::TopologyBuilder::new();
    let seg = b.add_segment(metasim::net::LinkSpec::dedicated(
        "seg",
        20.0,
        SimTime::from_micros(200),
    ));
    for i in 0..2 {
        let mut spec = HostSpec::dedicated(&format!("batch-{i}"), 40.0, 1024.0, seg);
        spec.sharing = SharingPolicy::SpaceShared {
            wait: SimTime::from_secs_f64(wait),
        };
        b.add_host(spec);
    }
    for i in 0..2 {
        b.add_host(HostSpec::workstation(
            &format!("shared-{i}"),
            40.0,
            1024.0,
            seg,
            metasim::load::LoadModel::Constant(avail),
        ));
    }
    let topo = b.instantiate(SimTime::from_secs(1_000_000), 0)?;

    let hat = apples::hat::jacobi2d_hat(n, iterations);
    let user = UserSpec::default();
    let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
        .with_source(ForecastSource::Oracle);
    let advice = advise(
        &pool,
        &[vec![HostId(0), HostId(1)], vec![HostId(2), HostId(3)]],
    )?;
    println!(
        "Jacobi2D {n}x{n} x{iterations}: queue wait {wait:.0} s vs shared pool at {:.0}%",
        avail * 100.0
    );
    for o in &advice.options {
        println!(
            "  wait {:>6.0} s -> complete in {:>9.1} s",
            o.wait_seconds, o.completion_seconds
        );
    }
    let chosen = advice.chosen();
    println!(
        "recommendation: {}",
        if chosen.wait_seconds > 0.0 {
            "WAIT for the dedicated partition"
        } else {
            "RUN NOW on the shared pool"
        }
    );
    Ok(Done)
}

/// `apples-cli whatif` — T-WHATIF: double one resource at a time,
/// re-plan, re-run, and rank the upgrades by this job's speedup.
pub fn whatif(p: &Parsed) -> CmdResult {
    use apples::whatif::{evaluate, standard_menu};
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 2000)?;
    let iterations: usize = p.get_parsed("iterations", 80)?;
    let now = SimTime::from_secs(600);
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, now);
    let (hat, user) = jacobi_context(n, iterations);
    let menu = standard_menu(&tb.topo);
    let report = evaluate(&tb.topo, &ws, &hat, &user, now, &menu)?;
    println!(
        "What-if: double one resource at a time (Jacobi2D {n}x{n}, {iterations} iters)\n\
         baseline: {:.2} s\n",
        report.baseline_seconds
    );
    let rows: Vec<Vec<String>> = report
        .results
        .iter()
        .take(12)
        .map(|r| {
            vec![
                r.upgrade.describe(&tb.topo),
                table::secs(r.upgraded_seconds),
                table::ratio(r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["upgrade", "new time", "speedup"], &rows)
    );
    println!(
        "The ranking is application-centric: it reflects where *this*\n\
         application's time actually goes under *current* contention,\n\
         not the hardware's nominal specs. Re-planning after each\n\
         hypothetical upgrade matters — a faster host earns a bigger\n\
         strip, it doesn't just run its old strip faster."
    );
    Ok(Done)
}

/// Build the service- and workload-side configs for `grid` and
/// `validate` from the shared flag set. Deliberately does *not*
/// reject bad knob values here: both commands route them through
/// [`apples_grid::validate_config`] so every malformed class is
/// reported as a typed diagnostic rather than an ad-hoc parse error.
fn grid_setup(
    p: &Parsed,
) -> Result<(apples_grid::GridConfig, apples_grid::WorkloadConfig), Box<dyn std::error::Error>> {
    use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
    use apples_grid::{FaultInjection, GridConfig, Regime};
    use metasim::FaultModel;
    let rate: f64 = p.get_parsed("rate", 0.02)?;
    let duration: f64 = p.get_parsed("duration", 3600.0)?;
    let seed: u64 = p.get_parsed("seed", 1996)?;
    let horizon: f64 = p.get_parsed("horizon", GridConfig::default().horizon.as_secs_f64())?;
    let max_in_flight: usize = p.get_parsed("max-in-flight", usize::MAX)?;
    let fault_rate: f64 = p.get_parsed("fault-rate", 0.0)?;
    let link_fault_rate: f64 = p.get_parsed("link-fault-rate", 0.0)?;
    let mean_outage: f64 = p.get_parsed("mean-outage", 600.0)?;
    let permanent: f64 = p.get_parsed("permanent", 0.25)?;
    let max_attempts: u32 = p.get_parsed("max-attempts", 1)?;
    let backoff: f64 = p.get_parsed("backoff", 30.0)?;
    // Build a fault model as soon as any fault knob is touched, even
    // with zero rates, so the validator sees (and can reject) every
    // given value instead of silently discarding an inert model.
    let fault_knob_given = ["fault-rate", "link-fault-rate", "mean-outage", "permanent"]
        .iter()
        .any(|k| !p.get(k, "").is_empty());
    let faults = if fault_knob_given {
        FaultInjection::Random(FaultModel {
            host_crashes_per_hour: fault_rate,
            link_outages_per_hour: link_fault_rate,
            mean_outage: SimTime::from_secs_f64(mean_outage),
            permanent_fraction: permanent,
        })
    } else {
        FaultInjection::None
    };
    let topo_raw = p.get("topo", "");
    let topo = if topo_raw.is_empty() {
        None
    } else {
        Some(metasim::topogen::TopoSpec::parse(topo_raw)?)
    };
    let cfg = GridConfig {
        profile: profile_of(p)?,
        with_sp2: p.switch("sp2"),
        topo,
        seed,
        horizon: SimTime::from_secs_f64(horizon),
        regime: if p.switch("blind") {
            Regime::Blind
        } else {
            Regime::Aware
        },
        max_in_flight,
        faults,
        ..GridConfig::default()
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: rate },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(duration),
        seed,
        retry: RetryPolicy {
            max_attempts,
            base_backoff: SimTime::from_secs_f64(backoff),
            factor: 2.0,
        },
    };
    Ok((cfg, workload))
}

/// `apples-cli validate` — static pre-run check of a grid
/// configuration: print every typed diagnostic, exit nonzero if any.
pub fn validate(p: &Parsed) -> CmdResult {
    let (cfg, workload) = grid_setup(p)?;
    let regime = sched_regime_of(p)?;
    let diags = apples_grid::validate_config(&cfg, Some(&workload), Some(regime));
    if diags.is_empty() {
        println!(
            "configuration OK: {} profile{}, {regime} regime, horizon {}, seed {}",
            p.get("profile", "moderate"),
            if cfg.with_sp2 { " with SP-2 nodes" } else { "" },
            cfg.horizon,
            cfg.seed,
        );
        return Ok(Done);
    }
    for d in &diags {
        println!("{d}");
    }
    Err(format!("{} configuration issue(s) found", diags.len()).into())
}

/// Parse the `--regime` flag shared by `grid`, `metrics` and `validate`.
fn sched_regime_of(p: &Parsed) -> Result<apples_grid::SchedRegime, ArgError> {
    let raw = p.get("regime", "selfish");
    apples_grid::SchedRegime::parse(raw).ok_or_else(|| {
        ArgError(format!(
            "unknown scheduling regime {raw:?} (selfish | batch | fractional)"
        ))
    })
}

/// `apples-cli grid`
pub fn grid(p: &Parsed) -> CmdResult {
    use apples_grid::workload::ArrivalProcess;
    use apples_grid::{GridService, Regime};
    if p.switch("csv") && p.switch("json") {
        return Err(ArgError("--csv and --json are two outputs; pick one".into()).into());
    }
    let (cfg, workload) = grid_setup(p)?;
    let sched = sched_regime_of(p)?;
    let ArrivalProcess::Poisson { rate_hz: rate } = workload.arrivals else {
        return Err(ArgError("grid streams use Poisson arrivals".into()).into());
    };
    let duration = workload.duration.as_secs_f64();
    let seed = cfg.seed;
    let max_in_flight = cfg.max_in_flight;
    let service = GridService::new(cfg)?;
    let cfg = service.config();
    let trace_path = p.get("trace", "");
    let metrics_path = p.get("metrics", "");
    // Fan the one event stream out to whichever consumers were asked
    // for: a JSONL writer (--trace) and/or a metrics registry
    // (--metrics). With neither, the fan-out is disabled and the stream
    // builds no events at all.
    let mut writer = if trace_path.is_empty() {
        None
    } else {
        let file = std::fs::File::create(trace_path)
            .map_err(|e| format!("cannot create {trace_path}: {e}"))?;
        Some(metasim::simtrace::WriterSink::new(std::io::BufWriter::new(
            file,
        )))
    };
    let mut metrics = if metrics_path.is_empty() {
        None
    } else {
        Some(obsv::MetricsSink::new())
    };
    let out = {
        let mut fan = obsv::FanoutSink::new();
        if let Some(w) = writer.as_mut() {
            fan.push(w);
        }
        if let Some(m) = metrics.as_mut() {
            fan.push(m);
        }
        service.run(sched, &workload, &mut fan)
    };
    if let Some(mut sink) = writer {
        if let Some(e) = sink.take_error() {
            return Err(format!("writing {trace_path}: {e}").into());
        }
        sink.into_inner()
            .into_inner()
            .map_err(|e| format!("flushing {trace_path}: {e}"))?;
    }
    if let Some(sink) = metrics {
        std::fs::write(metrics_path, sink.registry().expose())
            .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
    }
    let out = out?;

    if p.switch("json") {
        println!("{}", out.fleet.to_json());
        return Ok(Done);
    }
    if p.switch("csv") {
        println!("{}", apples_grid::FleetMetrics::csv_header());
        println!("{}", out.fleet.csv_row(&format!("seed-{seed}")));
        println!();
        println!("{}", apples_grid::JobRecord::csv_header());
        for r in &out.records {
            println!("{}", r.csv_row());
        }
        return Ok(Done);
    }

    println!(
        "job stream: Poisson {rate}/s for {duration} s, seed {seed} \
         ({sched} scheduling, {} info, {} in-flight limit)\n",
        if cfg.regime == Regime::Blind {
            "blind"
        } else {
            "aware"
        },
        if max_in_flight == usize::MAX {
            "no".to_string()
        } else {
            max_in_flight.to_string()
        },
    );
    let f = &out.fleet;
    println!("jobs admitted     {:>10}", f.jobs);
    println!("jobs completed    {:>10}", f.jobs_completed);
    println!("jobs failed       {:>10}", f.jobs_failed);
    println!("jobs rescheduled  {:>10}", f.jobs_rescheduled);
    println!("total attempts    {:>10}", f.total_attempts);
    println!("throughput /h     {:>10.2}", f.throughput_per_hour);
    println!("goodput           {:>10.3}", f.goodput);
    println!("mean wait s       {:>10.2}", f.mean_wait_seconds);
    println!("mean exec s       {:>10.2}", f.mean_exec_seconds);
    println!("mean slowdown     {:>10.3}", f.mean_slowdown);
    println!("latency p50 s     {:>10.2}", f.latency_p50);
    println!("latency p95 s     {:>10.2}", f.latency_p95);
    println!("latency p99 s     {:>10.2}", f.latency_p99);
    println!("\nper-host demand utilization:");
    for (name, u) in &f.host_utilization {
        println!("  {name:>14}  {u:>6.3}");
    }
    Ok(Done)
}

/// Split a `--topo` list the way the race does and parse every spec,
/// so a malformed or oversized one is refused before any topology is
/// generated. `figure-2` stands for the default testbed.
fn topo_list(raw: &str) -> Result<Vec<String>, metasim::SimError> {
    let topos = apples_bench::regime_race::split_topo_list(raw);
    for spec in topos.iter().filter(|t| !t.is_empty()) {
        metasim::topogen::TopoSpec::parse(spec)?;
    }
    Ok(topos)
}

/// `apples-cli race` — T-RACE: race every scheduling regime (selfish
/// AppLeS agents, centralized EASY batch, fractional sharing) on
/// identical seeded streams across one or more topologies.
pub fn race(p: &Parsed) -> CmdResult {
    use apples_bench::regime_race::{render, render_report, run_race_with, RaceConfig};
    let defaults = RaceConfig::default();
    let rate_hz: f64 = p.get_parsed("rate", defaults.rate_hz)?;
    let duration_secs: f64 = p.get_parsed("duration", defaults.duration_secs)?;
    let seed: u64 = p.get_parsed("seed", defaults.seed)?;
    let crash_rate: f64 = p.get_parsed("fault-rate", defaults.crash_rate)?;
    let mean_outage_secs: f64 = p.get_parsed("mean-outage", defaults.mean_outage_secs)?;
    let max_attempts: u32 = p.get_parsed("max-attempts", defaults.max_attempts)?;
    let topo_raw = p.get("topo", "");
    let topos = if topo_raw.is_empty() {
        defaults.topos
    } else {
        topo_list(topo_raw)?
    };
    let cfg = RaceConfig {
        topos,
        rate_hz,
        duration_secs,
        seed,
        crash_rate,
        mean_outage_secs,
        max_attempts,
    };
    // Narrate each leg on stderr so redirected stdout stays clean.
    // --quiet disables it.
    let quiet = p.switch("quiet");
    let legs = cfg.topos.len() * apples_grid::SchedRegime::ALL.len();
    let mut done = 0usize;
    let trials = run_race_with(&cfg, &mut |topo, regime| {
        done += 1;
        if !quiet {
            eprintln!("race [{done}/{legs}] {topo}: {} regime...", regime.name());
        }
    })?;
    println!(
        "T-RACE: Poisson arrivals at {rate_hz}/s for {duration_secs} s, seed {seed}, \
         crashes {crash_rate}/host-hour\n\
         (every regime faces the same realized stream and fault schedule)\n"
    );
    println!("{}", render(&trials));
    let report_path = p.get("report", "");
    if !report_path.is_empty() {
        std::fs::write(report_path, render_report(&cfg, &trials))
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
        if !quiet {
            eprintln!("wrote {report_path}");
        }
    }
    Ok(Done)
}

/// Read an input file whole. A file that cannot be read is a usage
/// error (exit 2), like a bad argument.
fn read_input(path: &str) -> Result<String, ArgError> {
    std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))
}

/// Read a JSONL trace into events, with one stderr note for the lines
/// that did not parse.
fn read_trace(path: &str) -> Result<Vec<metasim::simtrace::TraceEvent>, ArgError> {
    let (events, skipped) = metasim::simtrace::TraceEvent::from_jsonl(&read_input(path)?);
    if skipped > 0 {
        eprintln!("note: skipped {skipped} malformed line(s)");
    }
    Ok(events)
}

/// The `--mode` flag, checked against `modes`; the first is the
/// default.
fn mode_of<'a>(p: &'a Parsed, modes: &[&'a str]) -> Result<&'a str, ArgError> {
    let mode = p.get("mode", modes[0]);
    if modes.contains(&mode) {
        Ok(mode)
    } else {
        Err(ArgError(format!(
            "unknown mode {mode:?} ({})",
            modes.join("|")
        )))
    }
}

/// `apples-cli trace summary FILE` / `apples-cli trace diff A B`.
/// `diff` compares the files line by line and [`Outcome::Differs`] at
/// the first divergence.
pub fn trace(p: &Parsed) -> CmdResult {
    use metasim::simtrace::{first_divergence, TraceSummary};
    let (a, b) = (p.positional(1), p.positional(2));
    match (p.positional(0), b.is_empty()) {
        ("summary", true) => print!("{}", TraceSummary::from_events(&read_trace(a)?).render()),
        ("diff", false) => {
            let (ta, tb) = (read_input(a)?, read_input(b)?);
            let Some(d) = first_divergence(&ta, &tb) else {
                println!("identical: {} events", ta.lines().count());
                return Ok(Done);
            };
            println!("divergence at line {}:", d.line);
            println!("  {a}: {}", d.left.as_deref().unwrap_or("<absent>"));
            println!("  {b}: {}", d.right.as_deref().unwrap_or("<absent>"));
            return Ok(Differs);
        }
        _ => return Err(ArgError("usage: trace summary FILE | trace diff A B".into()).into()),
    }
    Ok(Done)
}

/// `apples-cli prof FILE [--mode folded|gantt|table] [--width N]` —
/// time-attribution profile of a JSONL trace. `--width` sizes the
/// gantt, so any other mode refuses it.
pub fn prof(p: &Parsed) -> CmdResult {
    let mode = mode_of(p, &["folded", "gantt", "table"])?;
    if mode != "gantt" && !p.get("width", "").is_empty() {
        return Err(ArgError(format!("--width sizes the gantt; --mode {mode} has none")).into());
    }
    let width = p.get_parsed("width", 72usize)?;
    let profile = obsv::Profile::from_events(&read_trace(p.positional(0))?);
    print!(
        "{}",
        match mode {
            "gantt" => profile.gantt(width),
            "table" => profile.table(),
            _ => profile.folded(),
        }
    );
    Ok(Done)
}

/// `apples-cli spans FILE [--mode tree|jsonl|composition]` — fold a
/// JSONL trace into causal span trees (job → attempt → phase, with
/// retry/revocation/backfill cause edges and per-job critical paths).
/// `tree` renders the indented trees plus the composition summary,
/// `jsonl` emits one byte-stable JSON object per job, `composition`
/// only the critical-path composition rollup.
pub fn spans(p: &Parsed) -> CmdResult {
    let mode = mode_of(p, &["tree", "jsonl", "composition"])?;
    let tree = obsv::SpanTree::from_events(&read_trace(p.positional(0))?);
    match mode {
        "jsonl" => print!("{}", tree.to_jsonl()),
        "composition" => println!("{}", tree.composition().render()),
        _ => print!("{}", tree.render()),
    }
    Ok(Done)
}

/// Most rows `timeseries --window` may cut a trace's span into. A row
/// holds about half a kilobyte, so the series stays near 50 MB.
const MAX_WINDOWS: u64 = 100_000;

/// `apples-cli timeseries FILE [--window SECS | --aligned] [--jsonl]`
/// — stream a JSONL trace through the windowed time-series engine.
///
/// Default is 60 s fixed windows as a table; `--aligned` switches to
/// event-aligned (one row per distinct event time) and `--jsonl` emits
/// the byte-stable JSONL export instead. A width below the trace's
/// 1 µs resolution, or one that cuts the trace's span into more than
/// [`MAX_WINDOWS`] rows, is refused.
pub fn timeseries(p: &Parsed) -> CmdResult {
    let window: f64 = p.get_parsed("window", 60.0)?;
    if p.switch("aligned") && !p.get("window", "").is_empty() {
        return Err(ArgError("--window sets fixed windows; --aligned has none".into()).into());
    }
    if window.is_nan() || window * 1e6 < 1.0 {
        return Err(ArgError(format!(
            "--window {window}: needs at least 1 µs (0.000001 s), the trace's resolution"
        ))
        .into());
    }
    let events = read_trace(p.positional(0))?;
    let mode = if p.switch("aligned") {
        obsv::WindowMode::EventAligned
    } else {
        let width = SimTime::from_secs_f64(window);
        let (first, last) = events.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            (lo.min(e.at().0), hi.max(e.at().0))
        });
        let rows = (last / width.0)
            .saturating_sub(first / width.0)
            .saturating_add(1);
        if rows > MAX_WINDOWS {
            return Err(ArgError(format!(
                "--window {window} cuts the trace into {rows} rows, more than the \
                 limit of {MAX_WINDOWS}"
            ))
            .into());
        }
        obsv::WindowMode::Fixed(width)
    };
    let series = obsv::TimeSeries::from_events(&events, mode);
    if p.switch("jsonl") {
        print!("{}", series.to_jsonl());
    } else {
        print!("{}", series.render());
    }
    Ok(Done)
}

/// `apples-cli snapshot-diff A B` — compare two Prometheus text
/// snapshots series by series; [`Outcome::Differs`] on any difference
/// (mirrors `trace diff`).
pub fn snapshot_diff(p: &Parsed) -> CmdResult {
    let (ta, tb) = (read_input(p.positional(0))?, read_input(p.positional(1))?);
    let deltas = obsv::snapshot_diff(&ta, &tb);
    if deltas.is_empty() {
        println!(
            "identical: {} series",
            obsv::Snapshot::parse(&ta).series.len()
        );
        return Ok(Done);
    }
    println!("{} differing series:", deltas.len());
    for d in &deltas {
        println!("  {}", d.render());
    }
    Ok(Differs)
}

/// `apples-cli reproduce ID` — print one registry experiment's report
/// ([`apples_bench::reproduce`]); [`Outcome::Differs`] when a check it
/// makes fails. An unknown ID is a usage error naming the IDs.
pub fn reproduce(p: &Parsed) -> CmdResult {
    use apples_bench::reproduce::{render, REGISTRY};
    match render(p.positional(0)) {
        Some(report) => {
            let (Ok(text) | Err(text)) = &report;
            print!("{text}");
            Ok(if report.is_ok() { Done } else { Differs })
        }
        None => {
            let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
            Err(ArgError(format!("unknown ID; ID is one of: {}", ids.join(" "))).into())
        }
    }
}

/// `apples-cli metrics` — run a seeded grid scenario with a
/// [`obsv::MetricsSink`] attached and dump the Prometheus exposition
/// (to stdout, or `--out FILE`). Same scenario flags as `grid`.
pub fn metrics(p: &Parsed) -> CmdResult {
    use apples_grid::GridService;
    let (cfg, workload) = grid_setup(p)?;
    let sched = sched_regime_of(p)?;
    let service = GridService::new(cfg)?;
    let mut sink = obsv::MetricsSink::new();
    service.run(sched, &workload, &mut sink)?;
    let exposition = sink.registry().expose();
    let out_path = p.get("out", "");
    if out_path.is_empty() {
        print!("{exposition}");
    } else {
        std::fs::write(out_path, exposition)
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    }
    Ok(Done)
}

/// `apples-cli bench` — the T-SCALE events/sec sweep: incremental
/// dirty-set transfer engine vs the full-recompute baseline on a
/// seeded synthetic fleet and on each generated topology of `--topo`.
/// `--check FILE` validates an existing results document instead of
/// running the sweep.
pub fn bench(p: &Parsed) -> CmdResult {
    use apples_bench::event_engine::{
        compare_with_history, history_line, parse_history, parse_results, run_sweep,
        run_topo_sweep, to_json, to_table, DEFAULT_SWEEP, DEFAULT_TOPO_SWEEP,
    };

    // The trajectory file rides next to the results document:
    // `BENCH_event_engine.json` → `BENCH_event_engine.history.jsonl`.
    fn history_path(out: &str) -> String {
        match out.strip_suffix(".json") {
            Some(stem) => format!("{stem}.history.jsonl"),
            None => format!("{out}.history.jsonl"),
        }
    }

    let check = p.get("check", "");
    if !check.is_empty() {
        if let Some(flag) = ["hosts", "topo", "jobs", "seed", "out"]
            .into_iter()
            .find(|f| !p.get(f, "").is_empty())
        {
            return Err(ArgError(format!(
                "--check runs no sweep, so --{flag} would be ignored"
            ))
            .into());
        }
        let text =
            std::fs::read_to_string(check).map_err(|e| format!("cannot read {check}: {e}"))?;
        let points = parse_results(&text).map_err(|e| format!("{check}: {e}"))?;
        println!("{check}: {} valid sweep point(s)", points.len());
        let hist = history_path(check);
        match std::fs::read_to_string(&hist) {
            Ok(htext) => {
                let runs = parse_history(&htext).map_err(|e| format!("{hist}: {e}"))?;
                match runs.last() {
                    Some(last) => {
                        let drift = compare_with_history(&points, last)
                            .map_err(|e| format!("{check} vs {hist}: {e}"))?;
                        println!("vs last of {} history run(s) in {hist}:", runs.len());
                        for line in drift {
                            println!("  {line}");
                        }
                    }
                    None => println!("{hist}: empty history, nothing to compare"),
                }
            }
            Err(_) => println!("{hist}: no history file, nothing to compare"),
        }
        return Ok(Done);
    }

    fn list(raw: &str, what: &str) -> Result<Vec<usize>, ArgError> {
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{what}: cannot parse {s:?}")))
            })
            .collect()
    }
    let seed: u64 = p.get_parsed("seed", 42)?;
    let hosts_raw = p.get("hosts", "");
    let topo_raw = p.get("topo", "");
    let jobs_raw = p.get("jobs", "");
    let jobs = if jobs_raw.is_empty() {
        Vec::new()
    } else {
        list(jobs_raw, "jobs")?
    };
    // With neither --hosts nor --topo, run the default fleet sweep
    // plus the default generated-topology point, whose job counts are
    // fixed.
    let defaults = hosts_raw.is_empty() && topo_raw.is_empty();
    if defaults && !jobs.is_empty() {
        return Err(ArgError(
            "--jobs needs --hosts or --topo: the default sweep fixes its own job counts".into(),
        )
        .into());
    }
    if hosts_raw.is_empty() && jobs.len() > 1 {
        return Err(ArgError("--topo takes one --jobs value, used for every spec".into()).into());
    }
    let topo_jobs = jobs.first().copied().unwrap_or(10_000);
    let sweep: Vec<(usize, usize)> = if defaults {
        DEFAULT_SWEEP.to_vec()
    } else if hosts_raw.is_empty() {
        Vec::new()
    } else {
        let hosts = list(hosts_raw, "hosts")?;
        let per_point = match jobs.len() {
            0 => vec![1000; hosts.len()],
            1 => vec![jobs[0]; hosts.len()],
            n if n == hosts.len() => jobs,
            _ => {
                return Err(
                    ArgError("--jobs must have 1 value or as many as --hosts".into()).into(),
                )
            }
        };
        hosts.into_iter().zip(per_point).collect()
    };
    // Spec strings contain commas themselves, so the list is split
    // the way `race --topo` splits it.
    let topos = topo_list(topo_raw)?;
    let topo_sweep: Vec<(&str, usize)> = if defaults {
        DEFAULT_TOPO_SWEEP.to_vec()
    } else {
        topos.iter().map(|t| (t.as_str(), topo_jobs)).collect()
    };

    let mut points = run_sweep(&sweep, seed)?;
    points.extend(run_topo_sweep(&topo_sweep, seed)?);
    let doc = to_json(&points);
    if p.switch("json") {
        print!("{doc}");
    } else {
        print!("{}", to_table(&points));
    }
    let out = p.get("out", "BENCH_event_engine.json");
    std::fs::write(out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    // Append this run to the trajectory so `--check` (and a human with
    // `tail`) can see how the machine's numbers move over time.
    let hist = history_path(out);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&hist)
        .map_err(|e| format!("cannot open {hist}: {e}"))?;
    writeln!(f, "{}", history_line(&points)).map_err(|e| format!("cannot append {hist}: {e}"))?;
    eprintln!("appended {hist}");
    Ok(Done)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `words` against the command's real flag list.
    fn parsed(words: &[&str]) -> Parsed {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        crate::parse_command(&args).expect("parse").1
    }

    #[test]
    fn testbed_command_runs() {
        assert!(testbed(&parsed(&["testbed", "--sp2"])).is_ok());
    }

    #[test]
    fn schedule_command_runs_small() {
        assert!(schedule(&parsed(&["schedule", "--n", "600", "--iterations", "10"])).is_ok());
    }

    #[test]
    fn schedule_rejects_bad_metric_and_source() {
        assert!(schedule(&parsed(&["schedule", "--metric", "nonsense"])).is_err());
        assert!(schedule(&parsed(&["schedule", "--source", "nonsense"])).is_err());
    }

    #[test]
    fn schedule_accepts_cost_metric() {
        assert!(schedule(&parsed(&[
            "schedule",
            "--n",
            "600",
            "--iterations",
            "5",
            "--metric",
            "cost:2.5"
        ]))
        .is_ok());
    }

    #[test]
    fn compare_command_runs_small() {
        assert!(compare(&parsed(&["compare", "--n", "600", "--iterations", "10"])).is_ok());
    }

    #[test]
    fn forecast_command_runs() {
        assert!(forecast(&parsed(&["forecast", "--host", "1", "--until", "900"])).is_ok());
    }

    #[test]
    fn react_command_single_unit_runs() {
        assert!(react(&parsed(&["react", "--unit", "10"])).is_ok());
    }

    #[test]
    fn nile_command_runs_small() {
        assert!(nile(&parsed(&["nile", "--events", "5000", "--runs", "2"])).is_ok());
    }

    #[test]
    fn advise_command_runs() {
        assert!(advise_cmd(&parsed(&[
            "advise",
            "--wait",
            "60",
            "--n",
            "600",
            "--iterations",
            "100"
        ]))
        .is_ok());
    }

    #[test]
    fn bad_profile_is_an_error() {
        assert!(testbed(&parsed(&["testbed", "--profile", "imaginary"])).is_err());
    }

    #[test]
    fn grid_command_runs_small() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light"
        ]))
        .is_ok());
    }

    #[test]
    fn grid_csv_and_json_run() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light",
            "--csv"
        ]))
        .is_ok());
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light",
            "--json"
        ]))
        .is_ok());
    }

    #[test]
    fn grid_rejects_nonpositive_rate() {
        assert!(grid(&parsed(&["grid", "--rate", "0"])).is_err());
    }

    #[test]
    fn grid_runs_every_scheduling_regime() {
        for regime in ["selfish", "batch", "fractional"] {
            assert!(
                grid(&parsed(&[
                    "grid",
                    "--rate",
                    "0.005",
                    "--duration",
                    "900",
                    "--profile",
                    "light",
                    "--regime",
                    regime
                ]))
                .is_ok(),
                "regime {regime} failed"
            );
        }
    }

    #[test]
    fn grid_rejects_unknown_regime() {
        assert!(grid(&parsed(&["grid", "--regime", "gang"])).is_err());
    }

    #[test]
    fn race_rejects_bad_knobs() {
        assert!(race(&parsed(&["race", "--rate", "0"])).is_err());
        assert!(race(&parsed(&["race", "--max-attempts", "0"])).is_err());
        assert!(race(&parsed(&["race", "--topo", "not-a-family"])).is_err());
    }

    #[test]
    fn grid_fault_flags_run() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "600",
            "--profile",
            "light",
            "--fault-rate",
            "2.0",
            "--max-attempts",
            "3",
            "--backoff",
            "15",
        ]))
        .is_ok());
    }

    #[test]
    fn grid_rejects_bad_fault_knobs() {
        assert!(grid(&parsed(&["grid", "--fault-rate", "-1"])).is_err());
        assert!(grid(&parsed(&["grid", "--mean-outage", "0"])).is_err());
    }

    #[test]
    fn validate_accepts_shipped_configs() {
        assert!(validate(&parsed(&["validate"])).is_ok());
        assert!(validate(&parsed(&["validate", "--sp2"])).is_ok());
        assert!(validate(&parsed(&["validate", "--fault-rate", "0.5"])).is_ok());
    }

    #[test]
    fn validate_accepts_generated_topologies() {
        assert!(validate(&parsed(&["validate", "--topo", "star:hosts=16,per_seg=4"])).is_ok());
        assert!(validate(&parsed(&[
            "validate",
            "--topo",
            "clusters:clusters=2,segs=2,hosts=2"
        ]))
        .is_ok());
    }

    #[test]
    fn validate_rejects_bad_topo_spec() {
        assert!(validate(&parsed(&["validate", "--topo", "ring:hosts=9"])).is_err());
    }

    #[test]
    fn grid_runs_on_a_generated_topology() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.003",
            "--duration",
            "600",
            "--profile",
            "light",
            "--topo",
            "star:hosts=12,per_seg=4",
        ]))
        .is_ok());
    }

    #[test]
    fn validate_rejects_each_malformed_class() {
        for bad in [
            ["validate", "--rate", "0"],
            ["validate", "--max-attempts", "0"],
            ["validate", "--max-in-flight", "0"],
            ["validate", "--permanent", "1.5"],
            ["validate", "--fault-rate", "-1"],
            ["validate", "--horizon", "0"],
            ["validate", "--mean-outage", "0"],
        ] {
            assert!(validate(&parsed(&bad)).is_err(), "{bad:?} should fail");
        }
    }
}
