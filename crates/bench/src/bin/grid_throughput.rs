//! T-GRID: stream a multi-tenant workload through the shared testbed
//! and report fleet metrics.
//!
//! ```text
//! grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]
//!                 [--trials T] [--max-in-flight K] [--csv] [--json]
//!                 [--trace FILE] [--metrics FILE]
//! ```
//!
//! `--csv` emits one machine-parseable row per trial (plus per-job
//! rows for single-trial runs); `--json` emits the fleet metrics of
//! each trial as one JSON object per line. Same seed → same output,
//! bit for bit. `--trace` re-runs the first trial with a [`WriterSink`]
//! attached and writes every structured event to FILE as JSONL;
//! `--metrics` does the same with a [`MetricsSink`] and writes a
//! Prometheus text-format snapshot.
//!
//! [`WriterSink`]: metasim::simtrace::WriterSink
//! [`MetricsSink`]: obsv::MetricsSink

use apples_bench::grid_exp::{
    fleet_table, run_trials, sweep_summary, utilization_table, GridExpConfig,
};
use apples_grid::metrics::{FleetMetrics, JobRecord};
use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{run, GridConfig, GridOutcome, SchedRegime};
use metasim::simtrace::{EventSink, NoopSink, WriterSink};
use metasim::SimTime;

fn usage() -> ! {
    eprintln!(
        "usage: grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]\n\
         \x20                      [--trials T] [--max-in-flight K] [--csv] [--json]\n\
         \x20                      [--trace FILE] [--metrics FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = GridExpConfig::default();
    let mut csv = false;
    let mut json = false;
    let mut trace_path = String::new();
    let mut metrics_path = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--arrival-rate" => cfg.rate_hz = parse(&take("--arrival-rate")),
            "--duration" => cfg.duration_secs = parse(&take("--duration")),
            "--seed" => cfg.seed = parse(&take("--seed")),
            "--trials" => cfg.trials = parse(&take("--trials")),
            "--max-in-flight" => cfg.max_in_flight = parse(&take("--max-in-flight")),
            "--csv" => csv = true,
            "--trace" => trace_path = take("--trace"),
            "--metrics" => metrics_path = take("--metrics"),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if cfg.rate_hz <= 0.0 || cfg.duration_secs <= 0.0 || cfg.trials == 0 {
        eprintln!("arrival rate, duration and trials must be positive");
        usage();
    }

    let trials = run_trials(&cfg);

    if !trace_path.is_empty() {
        write_trace(&cfg, &trace_path);
    }
    if !metrics_path.is_empty() {
        write_metrics(&cfg, &metrics_path);
    }

    if json {
        for t in &trials {
            println!("{}", t.fleet.to_json());
        }
        return;
    }
    if csv {
        println!("{}", FleetMetrics::csv_header());
        for t in &trials {
            println!("{}", t.fleet.csv_row(&format!("seed-{}", t.seed)));
        }
        if cfg.trials == 1 {
            // Single trial: append the per-job records too.
            println!();
            println!("{}", JobRecord::csv_header());
            for r in single_trial_records(&cfg) {
                println!("{}", r.csv_row());
            }
        }
        return;
    }

    println!(
        "Poisson arrivals at {}/s for {} s on the Figure 2 testbed (seed {}, {} trial(s))\n",
        cfg.rate_hz, cfg.duration_secs, cfg.seed, cfg.trials
    );
    for t in &trials {
        println!("seed {}:", t.seed);
        println!("{}", fleet_table(&t.fleet));
        println!("{}", utilization_table(&t.fleet));
    }
    println!("{}", sweep_summary(&trials));
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("could not parse {s:?}");
        usage()
    })
}

/// Re-run the first trial to get its per-job records (the sweep only
/// keeps fleet metrics; determinism makes the re-run free of surprise).
fn single_trial_records(cfg: &GridExpConfig) -> Vec<JobRecord> {
    run_first_trial(cfg, &mut NoopSink)
        .expect("grid stream")
        .records
}

/// Stream the first trial's configuration, narrating into `sink`.
fn run_first_trial(
    cfg: &GridExpConfig,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, apples_grid::GridError> {
    let grid = GridConfig {
        seed: cfg.seed,
        max_in_flight: cfg.max_in_flight,
        ..GridConfig::default()
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson {
            rate_hz: cfg.rate_hz,
        },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(cfg.duration_secs),
        seed: cfg.seed,
        ..WorkloadConfig::default()
    };
    run(&grid, SchedRegime::Selfish, &workload, sink)
}

/// Re-run the first trial with a JSONL sink attached and write the
/// event stream to `path`.
fn write_trace(cfg: &GridExpConfig, path: &str) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(2);
    });
    let mut sink = WriterSink::new(std::io::BufWriter::new(file));
    let result = run_first_trial(cfg, &mut sink);
    if let Some(e) = sink.take_error() {
        eprintln!("writing {path}: {e}");
        std::process::exit(2);
    }
    if let Err(e) = std::io::Write::flush(&mut sink.into_inner()) {
        eprintln!("flushing {path}: {e}");
        std::process::exit(2);
    }
    result.expect("grid stream");
    eprintln!("trace written to {path}");
}

/// Re-run the first trial with a metrics sink attached and write the
/// Prometheus exposition to `path`.
fn write_metrics(cfg: &GridExpConfig, path: &str) {
    let mut sink = obsv::MetricsSink::new();
    run_first_trial(cfg, &mut sink).expect("grid stream");
    if let Err(e) = std::fs::write(path, sink.registry().expose()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("metrics written to {path}");
}
