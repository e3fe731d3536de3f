//! T-GRID: stream a multi-tenant workload through the shared testbed
//! and report fleet metrics.
//!
//! ```text
//! grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]
//!                 [--trials T] [--max-in-flight K] [--csv] [--json]
//! ```
//!
//! Trials `seed..seed+T` run in parallel. `--csv` emits one
//! machine-parseable row per trial; `--json` emits the fleet metrics
//! of each trial as one JSON object per line. Same seed → same output,
//! bit for bit. One trial's per-job records, trace and metrics
//! snapshot come from `apples-cli grid --profile light --seed N` with
//! `--csv`, `--trace FILE` and `--metrics FILE`.

use apples_bench::grid_exp::{
    fleet_table, run_trials, sweep_summary, utilization_table, GridExpConfig,
};
use apples_grid::metrics::FleetMetrics;

fn usage() -> ! {
    eprintln!(
        "usage: grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]\n\
         \x20                      [--trials T] [--max-in-flight K] [--csv] [--json]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = GridExpConfig::default();
    let mut csv = false;
    let mut json = false;
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
