//! A multi-tenant job stream on the shared testbed: Poisson arrivals
//! over a mix of Jacobi solves, pipelines and event farms, each job
//! scheduled by its own selfish AppLeS agent against the live system
//! state — earlier jobs' imposed load is what later agents' NWS
//! sensors observe (§3).
//!
//! ```sh
//! cargo run --release --example grid_stream
//! ```

use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{GridConfig, GridService, Regime, SchedRegime};
use metasim::simtrace::NoopSink;
use metasim::SimTime;

fn main() {
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.015 },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs(2400),
        seed: 42,
        ..WorkloadConfig::default()
    };

    // Same stream, two information regimes: agents that observe the
    // live (contended) system vs agents deciding from one pristine
    // pre-stream snapshot.
    for regime in [Regime::Blind, Regime::Aware] {
        let cfg = GridConfig {
            seed: 42,
            regime,
            ..GridConfig::default()
        };
        let out = GridService::new(cfg)
            .expect("valid grid config")
            .run(SchedRegime::Selfish, &workload, &mut NoopSink)
            .expect("job stream");
        let f = &out.fleet;
        println!(
            "{:?}: {} jobs, mean exec {:.1} s, p95 latency {:.1} s",
            regime, f.jobs, f.mean_exec_seconds, f.latency_p95
        );
        for r in out.records.iter().take(6) {
            println!(
                "  job {:>2} {:>10} submit {:>6.0}s exec {:>8.1}s on [{}]",
                r.id,
                r.kind,
                r.submit.as_secs_f64(),
                r.exec_seconds,
                r.hosts.join(", ")
            );
        }
        if out.records.len() > 6 {
            println!("  ... {} more", out.records.len() - 6);
        }
        println!();
    }
    println!(
        "No agent coordinates with any other; any aware-regime advantage\n\
         is purely from observation — applications experience each other\n\
         only through \"the dynamically varying performance capability\n\
         of metacomputing system resources\" (§3)."
    );
}
